//! Finite-difference verification of every autograd op.
//!
//! For a scalar loss L(θ), the analytic gradient from `Graph::backward`
//! must match the central difference (L(θ+ε) − L(θ−ε)) / 2ε on every
//! parameter coordinate. Each test builds a small network exercising one
//! op (plus the plumbing ops), with randomized parameters via proptest;
//! together they cover every backward arm of the tape.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlan_nn::{Conv1dBank, Embedding, Graph, Linear, LstmStack, Params, Tensor};

/// Relative/absolute tolerance appropriate for f32 central differences.
const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Compare analytic and numeric gradients for a loss closure.
fn check_gradients(
    params: &mut Params,
    loss_fn: &dyn Fn(&Params) -> (f32, sqlan_nn::Grads),
) -> Result<(), TestCaseError> {
    let (_, grads) = loss_fn(params);
    let ids: Vec<_> = params.iter_ids().collect();
    for id in ids {
        let n = params.get(id).data.len();
        // Probe a few coordinates per parameter, not all (speed).
        let probes: Vec<usize> = if n <= 4 {
            (0..n).collect()
        } else {
            vec![0, n / 3, n / 2, n - 1]
        };
        let (l0, _) = loss_fn(params);
        for k in probes {
            let orig = params.get(id).data[k];
            params.get_mut(id).data[k] = orig + EPS;
            let (lp, _) = loss_fn(params);
            params.get_mut(id).data[k] = orig - EPS;
            let (lm, _) = loss_fn(params);
            params.get_mut(id).data[k] = orig;
            let central = (lp - lm) / (2.0 * EPS);
            let fwd = (lp - l0) / EPS;
            let bwd = (l0 - lm) / EPS;
            let analytic = grads.get(id).data[k];
            let scale = 1.0f32.max(central.abs()).max(analytic.abs());
            // ReLU / max-pool kinks make finite differences invalid; at a
            // kink the one-sided slopes disagree. Skip those coordinates —
            // the op is genuinely non-differentiable there.
            if (fwd - bwd).abs() / scale > TOL {
                continue;
            }
            prop_assert!(
                (central - analytic).abs() / scale < TOL,
                "param {} [{}]: numeric {} vs analytic {}",
                params.name(id),
                k,
                central,
                analytic
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched linear regression head: row-wise Huber, reduced by sum_all.
    #[test]
    fn grad_linear_huber_rows(seed in 0u64..1000, y0 in -2.0f32..2.0, y1 in -2.0f32..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "fc", 3, 1, &mut rng);
        let x = vec![0.5f32, -1.0, 2.0, 1.5, 0.25, -0.75];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let xin = g.input(Tensor::from_vec(2, 3, x.clone()));
            let y = lin.forward(&mut g, xin);
            let losses = g.huber_rows(y, vec![y0, y1], 1.0);
            let loss = g.sum_all(losses);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }

    /// Two-layer ReLU MLP over a batch with row-wise softmax
    /// cross-entropy.
    #[test]
    fn grad_mlp_softmax_ce(seed in 0u64..1000, target in 0usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let l1 = Linear::new(&mut params, "l1", 4, 5, &mut rng);
        let l2 = Linear::new(&mut params, "l2", 5, 3, &mut rng);
        let x = vec![1.0f32, -0.5, 0.25, 2.0, -1.5, 0.75, 1.25, -0.25];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let xin = g.input(Tensor::from_vec(2, 4, x.clone()));
            let h1 = l1.forward(&mut g, xin);
            let a1 = g.relu(h1);
            let logits = l2.forward(&mut g, a1);
            let losses = g.softmax_ce_rows(logits, vec![target, (target + 1) % 3]);
            let loss = g.sum_all(losses);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }

    /// Embedding → CNN bank (conv1d, relu, max-over-time, concat) → head.
    #[test]
    fn grad_cnn_pipeline(seed in 0u64..1000, target in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 7, 4, &mut rng);
        let bank = Conv1dBank::new(&mut params, "cnn", &[2, 3], 3, 4, &mut rng);
        let head = Linear::new(&mut params, "head", 6, 2, &mut rng);
        let tokens: Vec<u32> = vec![1, 4, 2, 6, 0, 3];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let x = emb.forward(&mut g, &tokens);
            let feats = bank.forward(&mut g, x);
            let logits = head.forward(&mut g, feats);
            let loss = g.softmax_ce_rows(logits, vec![target]);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }

    /// Embedding → 2-layer LSTM → Huber head: exercises the fused gate and
    /// cell ops, gather_rows, select_rows_where and slice_cols through
    /// time.
    #[test]
    fn grad_lstm_pipeline(seed in 0u64..1000, target in -1.0f32..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 6, 3, &mut rng);
        let lstm = LstmStack::new(&mut params, "lstm", 3, 4, 2, &mut rng);
        let head = Linear::new(&mut params, "head", 4, 1, &mut rng);
        let tokens: Vec<u32> = vec![2, 5, 1, 3];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let x = emb.forward(&mut g, &tokens);
            let h = lstm.forward(&mut g, x);
            let y = head.forward(&mut g, h);
            let loss = g.huber_rows(y, vec![target], 1.0);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }

    /// Dropout with a fixed mask is differentiable through kept elements.
    #[test]
    fn grad_dropout(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "fc", 3, 4, &mut rng);
        let head = Linear::new(&mut params, "head", 4, 1, &mut rng);
        let mask = vec![true, false, true, true];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let xin = g.input(Tensor::row(vec![1.0, 2.0, -0.5]));
            let h = lin.forward(&mut g, xin);
            let d = g.dropout(h, mask.clone(), 0.75);
            let y = head.forward(&mut g, d);
            let loss = g.huber_rows(y, vec![0.3], 1.0);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched CNN tape: packed-segment convolution, per-segment max
    /// pooling, row-wise cross-entropy, and sum_all — the whole
    /// minibatch training graph of the CNN models.
    #[test]
    fn grad_batched_cnn_tape(seed in 0u64..1000, t0 in 0usize..2, t1 in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 7, 4, &mut rng);
        let bank = Conv1dBank::new(&mut params, "cnn", &[2, 3], 3, 4, &mut rng);
        let head = Linear::new(&mut params, "head", 6, 2, &mut rng);
        // Two sequences of different lengths, packed back to back.
        let flat: Vec<u32> = vec![1, 4, 2, 6, 0, 3, 5, 2, 1];
        let segs = vec![(0usize, 4usize), (4, 5)];
        let targets = vec![t0, t1];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let x = emb.forward(&mut g, &flat);
            let feats = bank.forward_packed(&mut g, x, &segs);
            let logits = head.forward(&mut g, feats);
            let losses = g.softmax_ce_rows(logits, targets.clone());
            let loss = g.sum_all(losses);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 0.5, &mut grads);
            (l * 0.5, grads)
        };
        check_gradients(&mut params, &f)?;
    }

    /// Batched LSTM tape: row gather from the padded embedding, masked
    /// state freezing (select_rows_where), and row-wise Huber — the
    /// minibatch training graph of the LSTM models.
    #[test]
    fn grad_batched_lstm_tape(seed in 0u64..1000, y0 in -1.0f32..1.0, y1 in -1.0f32..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 6, 3, &mut rng);
        let lstm = LstmStack::new(&mut params, "lstm", 3, 4, 2, &mut rng);
        let head = Linear::new(&mut params, "head", 4, 1, &mut rng);
        // Lengths 4 and 2, padded to 4 → two masked steps for row 1.
        let flat: Vec<u32> = vec![2, 5, 1, 3, 4, 1, 0, 0];
        let lens = vec![4usize, 2];
        let targets = vec![y0, y1];
        let f = move |p: &Params| {
            let mut g = Graph::new(p);
            let x = emb.forward(&mut g, &flat);
            let h = lstm.forward_batch(&mut g, x, &lens, 4);
            let y = head.forward(&mut g, h);
            let losses = g.huber_rows(y, targets.clone(), 1.0);
            let loss = g.sum_all(losses);
            let mut grads = p.zero_grads();
            let l = g.value(loss).item();
            g.backward(loss, 1.0, &mut grads);
            (l, grads)
        };
        check_gradients(&mut params, &f)?;
    }
}

//! Reusable layers built on the autograd tape: Linear, Embedding, the
//! multi-width convolution bank of the paper's shallow CNN (§5.3), and the
//! LSTM stack of §5.2 / Appendix A.2.
//!
//! Every layer is batch-capable. [`Linear::forward`] is shape-generic
//! (one `(B,K)·(K,N)` matmul covers a whole minibatch); the sequence
//! encoders have explicit batch twins — [`Conv1dBank::forward_packed`]
//! over per-example segments of a packed embedding, and
//! [`LstmStack::forward_batch`] over a length-bucketed padded batch with
//! per-row masks. The twins run the exact same per-row kernels as the
//! per-example paths, so batched inference is bit-identical to running
//! examples one at a time.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::{Graph, Var};
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Fully connected layer: `x @ W + b`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Linear {
        Linear {
            w: params.add_xavier(format!("{name}.w"), in_dim, out_dim, rng),
            b: params.add_zeros(format!("{name}.b"), 1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// `x @ W + b`. Batch twin for free: `x` may be `(B, in_dim)` — the
    /// matmul kernel's per-row contract makes each output row identical
    /// to the row's solo forward.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let w = g.param(self.w);
        let b = g.param(self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// Token embedding table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    pub fn new(
        params: &mut Params,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Embedding {
        // Slightly tighter init than Xavier for lookup tables.
        let bound = (3.0 / dim as f64).sqrt() as f32;
        let data = (0..vocab * dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Embedding {
            table: params.add(format!("{name}.emb"), Tensor::from_vec(vocab, dim, data)),
            vocab,
            dim,
        }
    }

    /// Embed a token sequence → (seq, dim).
    pub fn forward(&self, g: &mut Graph<'_>, tokens: &[u32]) -> Var {
        g.embed(self.table, tokens)
    }
}

/// The paper's shallow-CNN feature extractor: parallel 1-D convolutions
/// with kernel widths {3,4,5}, ReLU, max-over-time pooling, concatenated
/// into a fixed-size vector of `kernels_per_width × widths.len()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1dBank {
    pub widths: Vec<usize>,
    pub kernels_per_width: usize,
    weights: Vec<ParamId>,
    biases: Vec<ParamId>,
}

impl Conv1dBank {
    pub fn new(
        params: &mut Params,
        name: &str,
        widths: &[usize],
        kernels_per_width: usize,
        embed_dim: usize,
        rng: &mut StdRng,
    ) -> Conv1dBank {
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for &w in widths {
            weights.push(params.add_xavier(
                format!("{name}.conv{w}.w"),
                kernels_per_width,
                w * embed_dim,
                rng,
            ));
            biases.push(params.add_zeros(format!("{name}.conv{w}.b"), 1, kernels_per_width));
        }
        Conv1dBank {
            widths: widths.to_vec(),
            kernels_per_width,
            weights,
            biases,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.widths.len() * self.kernels_per_width
    }

    /// Apply to an embedded sequence (seq, d). The caller must pad the
    /// sequence to at least `max(widths)` tokens.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let seq = g.value(x).rows;
        self.forward_packed(g, x, &[(0, seq)])
    }

    /// Batch twin: apply to a packed embedding (Σseqᵢ, d) whose
    /// per-example spans are `segs`, producing one pooled feature row
    /// per example — (B, out_dim). Every sequence must be at least
    /// `max(widths)` tokens (the encoder pads on encode). Convolution,
    /// ReLU, and max-over-time all run per segment with the per-example
    /// kernels, so row i is bit-identical to `forward` on example i.
    pub fn forward_packed(&self, g: &mut Graph<'_>, x: Var, segs: &[(usize, usize)]) -> Var {
        let mut pooled = Vec::with_capacity(self.widths.len());
        for (i, &w) in self.widths.iter().enumerate() {
            let weight = g.param(self.weights[i]);
            let bias = g.param(self.biases[i]);
            let conv = g.conv1d_packed(x, weight, bias, w, segs.to_vec());
            let act = g.relu(conv);
            // Output segments shrink by w−1 rows each.
            let mut out_segs = Vec::with_capacity(segs.len());
            let mut off = 0usize;
            for &(_, len) in segs {
                let out_len = len - w + 1;
                out_segs.push((off, out_len));
                off += out_len;
            }
            pooled.push(g.max_over_segs(act, out_segs));
        }
        g.concat_cols(&pooled)
    }
}

/// One LSTM layer (Appendix A.2): the four gates packed into single
/// `(in, 4k)` / `(k, 4k)` matrices, gate order `[c̃, u, f, o]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LstmLayer {
    pub wx: ParamId,
    pub wh: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl LstmLayer {
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> LstmLayer {
        let b = {
            // Forget-gate bias starts at 1.0 (standard trick for gradient
            // flow through early training).
            let mut data = vec![0.0f32; 4 * hidden];
            for v in data.iter_mut().skip(2 * hidden).take(hidden) {
                *v = 1.0;
            }
            params.add(format!("{name}.b"), Tensor::from_vec(1, 4 * hidden, data))
        };
        LstmLayer {
            wx: params.add_xavier(format!("{name}.wx"), in_dim, 4 * hidden, rng),
            wh: params.add_xavier(format!("{name}.wh"), hidden, 4 * hidden, rng),
            b,
            in_dim,
            hidden,
        }
    }

    /// Push this layer's parameters onto the tape once, so a sequence
    /// loop doesn't re-clone `wx`/`wh`/`b` at every timestep.
    pub fn param_vars(&self, g: &mut Graph<'_>) -> LstmParamVars {
        LstmParamVars {
            wx: g.param(self.wx),
            wh: g.param(self.wh),
            b: g.param(self.b),
        }
    }

    /// One timestep on the fused-cell state: previous hidden state `h`
    /// (B, k), previous cell state inside `hc` (B, 7k; see
    /// [`Graph::lstm_cell`]), input rows `x` (B, in_dim) → next fused
    /// state (B, 7k). Two tape nodes per step instead of the sixteen an
    /// op-by-op cell costs.
    pub fn step(&self, g: &mut Graph<'_>, x: Var, h: Var, hc: Var, pv: &LstmParamVars) -> Var {
        let gates = g.lstm_gates(x, h, pv.wx, pv.wh, pv.b);
        g.lstm_cell(gates, hc, self.hidden)
    }
}

/// One LSTM layer's parameters pushed onto a tape (see
/// [`LstmLayer::param_vars`]).
#[derive(Debug, Clone, Copy)]
pub struct LstmParamVars {
    wx: Var,
    wh: Var,
    b: Var,
}

/// A stack of LSTM layers (the paper uses three); the last layer's final
/// hidden state is the sequence representation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmStack {
    pub layers: Vec<LstmLayer>,
}

impl LstmStack {
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> LstmStack {
        let mut layers = Vec::with_capacity(depth);
        for l in 0..depth {
            let d_in = if l == 0 { in_dim } else { hidden };
            layers.push(LstmLayer::new(
                params,
                &format!("{name}.l{l}"),
                d_in,
                hidden,
                rng,
            ));
        }
        LstmStack { layers }
    }

    /// Run the full stack over an embedded sequence (seq, d); returns the
    /// top layer's final hidden state (1, hidden). This *is* the batch
    /// twin at B = 1 — one code path, so per-example and batched
    /// execution cannot drift.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let seq = g.value(x).rows;
        self.forward_batch(g, x, &[seq], seq)
    }

    /// Batch twin: run the stack over a length-bucketed padded batch.
    ///
    /// `x` is the packed padded embedding — `B · padded_len` rows, row
    /// `i · padded_len + t` holding example i's token t (PAD beyond the
    /// true length) — and `lens` the true lengths (each ≥ 1 and ≤
    /// `padded_len`). Each timestep gathers the batch's token rows and
    /// steps every layer on `(B, ·)` state through the fused gate/cell
    /// ops; finished rows freeze with a masked select, keeping their
    /// exact previous bits, so the final state row of every example is
    /// bit-identical to running that example alone. Returns the top
    /// layer's final hidden state, (B, hidden).
    pub fn forward_batch(
        &self,
        g: &mut Graph<'_>,
        x: Var,
        lens: &[usize],
        padded_len: usize,
    ) -> Var {
        let bsz = lens.len();
        assert!(bsz > 0, "forward_batch: empty batch");
        assert_eq!(
            g.value(x).rows,
            bsz * padded_len,
            "forward_batch: packed row count"
        );
        assert!(
            lens.iter().all(|&l| l >= 1 && l <= padded_len),
            "forward_batch: lengths must be in 1..=padded_len"
        );
        let hidden = self.layers[0].hidden;
        let pvs: Vec<LstmParamVars> = self.layers.iter().map(|l| l.param_vars(g)).collect();
        // Per-layer fused state [h|c|stash] plus the h view consumed by
        // the gates matmul and the next layer.
        let mut hcs: Vec<Var> = Vec::with_capacity(self.layers.len());
        let mut hs: Vec<Var> = Vec::with_capacity(self.layers.len());
        for _ in &self.layers {
            hcs.push(g.input(Tensor::zeros_pooled(bsz, 7 * hidden)));
            hs.push(g.input(Tensor::zeros_pooled(bsz, hidden)));
        }
        for t in 0..padded_len {
            let keep: Vec<bool> = lens.iter().map(|&l| t < l).collect();
            let all_active = keep.iter().all(|&k| k);
            let idx: Vec<usize> = (0..bsz).map(|i| i * padded_len + t).collect();
            let mut inp = g.gather_rows(x, idx);
            for (l, layer) in self.layers.iter().enumerate() {
                let hc_new = layer.step(g, inp, hs[l], hcs[l], &pvs[l]);
                hcs[l] = if all_active {
                    hc_new
                } else {
                    // Finished rows keep their frozen state (and the
                    // padded step's would-be update gets no gradient).
                    g.select_rows_where(keep.clone(), hc_new, hcs[l])
                };
                hs[l] = g.slice_cols(hcs[l], 0, hidden);
                inp = hs[l];
            }
        }
        hs[self.layers.len() - 1]
    }
}

/// Draw a dropout mask of `n` elements with keep-probability `keep`.
pub fn dropout_mask(n: usize, keep: f32, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(keep as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut r = rng();
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "fc", 4, 3, &mut r);
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::row(vec![1.0; 4]));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (1, 3));
    }

    #[test]
    fn embedding_shapes_and_clamping() {
        let mut r = rng();
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 10, 6, &mut r);
        let mut g = Graph::new(&params);
        let x = emb.forward(&mut g, &[0, 5, 9, 99]); // 99 clamps to last row
        assert_eq!(g.value(x).shape(), (4, 6));
        assert_eq!(g.value(x).row_slice(2), g.value(x).row_slice(3));
    }

    #[test]
    fn conv_bank_output_is_fixed_size_regardless_of_seq_len() {
        let mut r = rng();
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 10, 8, &mut r);
        let bank = Conv1dBank::new(&mut params, "cnn", &[3, 4, 5], 16, 8, &mut r);
        for seq_len in [5usize, 12, 80] {
            let mut g = Graph::new(&params);
            let tokens: Vec<u32> = (0..seq_len as u32).map(|i| i % 10).collect();
            let x = emb.forward(&mut g, &tokens);
            let y = bank.forward(&mut g, x);
            assert_eq!(g.value(y).shape(), (1, 48));
        }
    }

    #[test]
    fn lstm_stack_final_state_shape() {
        let mut r = rng();
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 20, 8, &mut r);
        let stack = LstmStack::new(&mut params, "lstm", 8, 12, 3, &mut r);
        let mut g = Graph::new(&params);
        let x = emb.forward(&mut g, &[1, 2, 3, 4, 5, 6]);
        let h = stack.forward(&mut g, x);
        assert_eq!(g.value(h).shape(), (1, 12));
        // Values bounded by tanh ∘ sigmoid composition.
        assert!(g.value(h).data.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_is_sensitive_to_token_order() {
        let mut r = rng();
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 20, 8, &mut r);
        let stack = LstmStack::new(&mut params, "lstm", 8, 12, 2, &mut r);
        let run = |tokens: &[u32], params: &Params| -> Vec<f32> {
            let mut g = Graph::new(params);
            let x = emb.forward(&mut g, tokens);
            let h = stack.forward(&mut g, x);
            g.value(h).data.clone()
        };
        let a = run(&[1, 2, 3, 4], &params);
        let b = run(&[4, 3, 2, 1], &params);
        assert_ne!(a, b);
    }

    #[test]
    fn cnn_pooling_is_shift_insensitive_for_contained_patterns() {
        // Max-over-time pooling should produce similar features when the
        // same n-gram appears at different positions (padding elsewhere).
        let mut r = rng();
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut r);
        let bank = Conv1dBank::new(&mut params, "cnn", &[3], 8, 4, &mut r);
        let run = |tokens: &[u32], params: &Params| -> Vec<f32> {
            let mut g = Graph::new(params);
            let x = emb.forward(&mut g, tokens);
            let y = bank.forward(&mut g, x);
            g.value(y).data.clone()
        };
        // The pattern window [7,8,9] appears in both padded runs, so each
        // pooled max dominates the activation of the pattern alone — no
        // matter where the pattern sits.
        let pat = run(&[7, 8, 9], &params);
        let a = run(&[7, 8, 9, 0, 0, 0], &params);
        let b = run(&[0, 0, 0, 7, 8, 9], &params);
        for k in 0..pat.len() {
            assert!(a[k] >= pat[k] - 1e-5, "a[{k}]={} < pat={}", a[k], pat[k]);
            assert!(b[k] >= pat[k] - 1e-5, "b[{k}]={} < pat={}", b[k], pat[k]);
        }
    }

    #[test]
    fn dropout_mask_respects_keep_probability() {
        let mut r = rng();
        let mask = dropout_mask(10_000, 0.8, &mut r);
        let kept = mask.iter().filter(|&&m| m).count();
        assert!((kept as f64 / 10_000.0 - 0.8).abs() < 0.02);
    }
}

//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape of eagerly-evaluated nodes. Operations append a
//! node holding the forward value and a record of their operands; calling
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients
//! into per-node buffers and finally into a [`Grads`] store for parameter
//! leaves. Because operands always precede results on the tape, reverse
//! index order *is* reverse topological order.
//!
//! **Batched execution.** Every op is row-batched: element-wise ops,
//! `matmul`, and `add_row` operate on `(B, n)` tensors with rows fully
//! independent, and the sequence ops take explicit *segments* — `(offset,
//! rows)` spans of a packed tensor, one per example — so one tape node
//! covers a whole minibatch ([`Graph::conv1d_packed`],
//! [`Graph::max_over_segs`], [`Graph::gather_rows`],
//! [`Graph::select_rows_where`], [`Graph::softmax_ce_rows`],
//! [`Graph::huber_rows`], [`Graph::sum_all`]). A single example is the
//! one-segment (or one-row) case of the same kernels, which is what makes
//! batched inference *bit-identical* to per-example scoring: both run the
//! exact same per-row accumulation order, batching only along rows.
//!
//! **Allocation.** Node values and backward temporaries draw from the
//! thread-local buffer arena (`arena.rs`) and are recycled when the
//! graph drops (or, for backward temporaries, as soon as they are
//! consumed), so a steady-state training step allocates O(1) fresh
//! buffers. Dropping a graph also records its node count as the capacity
//! hint for the next tape on this thread.
//!
//! Every op's gradient is verified against central finite differences in
//! `tests/prop_grad.rs`.

use crate::arena;
use crate::fastmath;
use crate::params::{Grads, ParamId, Params};
use crate::tensor::Tensor;

/// Handle to one node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// A packed-tensor segment: `(first_row, n_rows)`.
pub type Seg = (usize, usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant input; no gradient.
    Input,
    /// Parameter leaf; gradient flows into `Grads`.
    Param(ParamId),
    Matmul(Var, Var),
    /// (m,n) + broadcast (1,n).
    AddRow(Var, Var),
    Relu(Var),
    /// Columns [start, end) of the operand.
    SliceCols(Var, usize, usize),
    /// Row gather: output row i is operand row `idx[i]`.
    GatherRows(Var, Vec<usize>),
    /// Per-row select: row i from `on` where `keep[i]`, else from `off`.
    SelectRowsWhere {
        on: Var,
        off: Var,
        keep: Vec<bool>,
    },
    /// Horizontal concat of equal-row-count blocks.
    ConcatCols(Vec<Var>),
    /// Embedding lookup: rows of the parameter matrix for each token id.
    EmbedLookup(ParamId, Vec<u32>),
    /// 1-D convolution over per-example segments of a packed (Σseq, d)
    /// input with (K, width·d) kernels and (1, K) bias, producing the
    /// packed (Σ(seq−width+1), K) activations.
    Conv1dPacked {
        input: Var,
        weight: Var,
        bias: Var,
        width: usize,
        segs: Vec<Seg>,
    },
    /// Per-segment max over rows: packed (Σrows, K) → (B, K).
    MaxOverSegs(Var, Vec<Seg>),
    /// Inverted dropout with a fixed mask (generated by the caller so the
    /// tape stays deterministic).
    Dropout(Var, Vec<bool>, f32),
    /// Fused LSTM gate pre-activations: `x·Wx + h·Wh + b` → (B, 4k).
    LstmGates {
        x: Var,
        h: Var,
        wx: Var,
        wh: Var,
        b: Var,
    },
    /// Fused LSTM cell update from pre-activation gates and previous
    /// state; value layout `[h | c | c̃ | u | f | o | tanh(c)]`, (B, 7k).
    LstmCell {
        gates: Var,
        hc_prev: Var,
        hidden: usize,
    },
    /// Row-wise fused softmax + cross-entropy: (B, C) logits and per-row
    /// class targets → (B, 1) losses.
    SoftmaxCERows {
        logits: Var,
        targets: Vec<usize>,
    },
    /// Row-wise Huber loss of (pred − target) on a (B, 1) column.
    HuberRows {
        pred: Var,
        targets: Vec<f32>,
        delta: f32,
    },
    /// Sum of every element → scalar (loss reduction for batched tapes).
    SumAll(Var),
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
}

/// The autograd tape.
#[derive(Debug)]
pub struct Graph<'p> {
    params: &'p Params,
    nodes: Vec<Node>,
}

impl<'p> Graph<'p> {
    pub fn new(params: &'p Params) -> Graph<'p> {
        // Size the tape from the last graph completed on this thread:
        // training steps repeat the same shapes, so after warmup the
        // node vector never regrows.
        Graph {
            params,
            nodes: Vec::with_capacity(arena::tape_hint().max(64)),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- leaf constructors ------------------------------------------

    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    pub fn param(&mut self, id: ParamId) -> Var {
        let t = self.params.get(id).copy_pooled();
        self.push(t, Op::Param(id))
    }

    // ---- ops ----------------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::Matmul(a, b))
    }

    /// `a + b` where `b` is a (1, n) row broadcast over a's rows.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(tb.rows, 1, "add_row: rhs must be a row");
        assert_eq!(ta.cols, tb.cols, "add_row width mismatch");
        let mut v = ta.copy_pooled();
        for r in 0..v.rows {
            for c in 0..v.cols {
                *v.at_mut(r, c) += tb.at(0, c);
            }
        }
        self.push(v, Op::AddRow(a, b))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let ta = self.value(a);
        assert!(start <= end && end <= ta.cols, "slice out of range");
        let mut v = Tensor::zeros_pooled(ta.rows, end - start);
        for r in 0..ta.rows {
            v.data[r * (end - start)..(r + 1) * (end - start)]
                .copy_from_slice(&ta.row_slice(r)[start..end]);
        }
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Gather rows: output row i is `a`'s row `idx[i]`. Duplicate
    /// indices are allowed (their gradients accumulate).
    pub fn gather_rows(&mut self, a: Var, idx: Vec<usize>) -> Var {
        let ta = self.value(a);
        let cols = ta.cols;
        let mut v = Tensor::zeros_pooled(idx.len(), cols);
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < ta.rows, "gather_rows: row out of range");
            v.data[i * cols..(i + 1) * cols].copy_from_slice(ta.row_slice(r));
        }
        self.push(v, Op::GatherRows(a, idx))
    }

    /// Per-row select between two same-shape operands: row i of the
    /// output is `on`'s row where `keep[i]`, else `off`'s. The masked
    /// update of length-bucketed batches: rows past their true sequence
    /// length keep (bit-identical) frozen state.
    pub fn select_rows_where(&mut self, keep: Vec<bool>, on: Var, off: Var) -> Var {
        let (ton, toff) = (self.value(on), self.value(off));
        assert_eq!(ton.shape(), toff.shape(), "select_rows_where shape");
        assert_eq!(keep.len(), ton.rows, "select_rows_where mask length");
        let cols = ton.cols;
        let mut v = Tensor::zeros_pooled(ton.rows, cols);
        for (r, &k) in keep.iter().enumerate() {
            let src = if k { ton } else { toff };
            v.data[r * cols..(r + 1) * cols].copy_from_slice(src.row_slice(r));
        }
        self.push(v, Op::SelectRowsWhere { on, off, keep })
    }

    /// Horizontal concat of equal-row-count blocks: (B, w₁) ⊕ … ⊕
    /// (B, wₙ) → (B, Σwᵢ).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let rows = self.value(parts[0]).rows;
        let mut total = 0usize;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows, rows, "concat_cols row-count mismatch");
            total += t.cols;
        }
        let mut data = arena::take_empty(rows * total);
        for r in 0..rows {
            for &p in parts {
                data.extend_from_slice(self.value(p).row_slice(r));
            }
        }
        let v = Tensor::from_vec(rows, total, data);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Look up embedding rows for a token sequence → (seq, d). For a
    /// batch, pass the examples' tokens concatenated (packed or padded):
    /// each output row depends only on its own token, so the batched
    /// gather is bit-identical to per-example lookups.
    pub fn embed(&mut self, table: ParamId, tokens: &[u32]) -> Var {
        let w = self.params.get(table);
        let d = w.cols;
        let mut v = Tensor::zeros_pooled(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            let t = (t as usize).min(w.rows - 1);
            v.data[i * d..(i + 1) * d].copy_from_slice(w.row_slice(t));
        }
        self.push(v, Op::EmbedLookup(table, tokens.to_vec()))
    }

    /// 1-D convolution over per-example `segs` of a packed (Σseq, d)
    /// input → packed (Σ(seq−width+1), K) output, segments in order.
    ///
    /// Per output element the accumulation starts at the bias and adds
    /// the window products in ascending offset order — exactly the
    /// per-example kernel — so batching changes no bits. The inner loop
    /// is an axpy over the K output channels (via a transposed kernel
    /// copy), which vectorizes without reassociating any sum.
    pub fn conv1d_packed(
        &mut self,
        input: Var,
        weight: Var,
        bias: Var,
        width: usize,
        segs: Vec<Seg>,
    ) -> Var {
        let x = self.value(input);
        let w = self.value(weight);
        let b = self.value(bias);
        let d = x.cols;
        assert_eq!(w.cols, width * d, "conv1d: kernel width mismatch");
        assert_eq!(b.shape(), (1, w.rows), "conv1d: bias shape");
        let k = w.rows;
        let wt = w.transpose(); // (width·d, K): p-major for the axpy loop
        let mut out_rows = 0usize;
        for &(off, len) in &segs {
            assert!(len >= width, "conv1d: sequence shorter than kernel");
            assert!(off + len <= x.rows, "conv1d: segment out of range");
            out_rows += len - width + 1;
        }
        let mut data = arena::take_empty(out_rows * k);
        for &(off, len) in &segs {
            for j in 0..=(len - width) {
                let row_start = data.len();
                data.extend_from_slice(&b.data);
                let window = &x.data[(off + j) * d..(off + j + width) * d];
                for (p, &a) in window.iter().enumerate() {
                    let w_row = &wt.data[p * k..(p + 1) * k];
                    for (o, &wv) in data[row_start..row_start + k].iter_mut().zip(w_row) {
                        *o += a * wv;
                    }
                }
            }
        }
        wt.recycle();
        let v = Tensor::from_vec(out_rows, k, data);
        self.push(
            v,
            Op::Conv1dPacked {
                input,
                weight,
                bias,
                width,
                segs,
            },
        )
    }

    /// Per-segment max over rows of a packed tensor: (Σrows, K) with B
    /// segments → (B, K). Each segment's fold runs in the same row order
    /// as the per-example op.
    pub fn max_over_segs(&mut self, a: Var, segs: Vec<Seg>) -> Var {
        let t = self.value(a);
        let cols = t.cols;
        let mut v = Tensor::zeros_pooled(segs.len(), cols);
        for (si, &(off, rows)) in segs.iter().enumerate() {
            assert!(rows >= 1, "max_over_segs: empty segment");
            assert!(off + rows <= t.rows, "max_over_segs: segment range");
            for c in 0..cols {
                let mut best = f32::NEG_INFINITY;
                for r in off..off + rows {
                    best = best.max(t.at(r, c));
                }
                *v.at_mut(si, c) = best;
            }
        }
        self.push(v, Op::MaxOverSegs(a, segs))
    }

    /// Inverted dropout: elements with `mask[i] == false` zero out; kept
    /// elements scale by `1/keep`. Pass an all-true mask at eval time (or
    /// simply skip the op). For a batch, concatenate the per-example
    /// masks in row order.
    pub fn dropout(&mut self, a: Var, mask: Vec<bool>, keep: f32) -> Var {
        let t = self.value(a);
        assert_eq!(mask.len(), t.len(), "dropout mask length");
        assert!(keep > 0.0 && keep <= 1.0);
        let v = Tensor::collect_pooled(
            t.rows,
            t.cols,
            t.data
                .iter()
                .zip(&mask)
                .map(|(&x, &m)| if m { x / keep } else { 0.0 }),
        );
        self.push(v, Op::Dropout(a, mask, keep))
    }

    /// Fused LSTM gate pre-activations: `b + x·Wx + h·Wh` in one node:
    /// the output rows start as bias copies and the two products
    /// accumulate in place with the standard row-major kernel — one tape
    /// node and one buffer instead of four, no intermediate product.
    /// Per-row accumulation order is fixed, so batched rows equal
    /// per-example rows bit for bit (B = 1 runs the same code).
    pub fn lstm_gates(&mut self, x: Var, h: Var, wx: Var, wh: Var, b: Var) -> Var {
        let (tx, th) = (self.value(x), self.value(h));
        let (twx, twh, tb) = (self.value(wx), self.value(wh), self.value(b));
        assert_eq!(tx.rows, th.rows, "lstm_gates batch mismatch");
        assert_eq!(twx.cols, twh.cols, "lstm_gates gate width");
        assert_eq!(tb.shape(), (1, twx.cols), "lstm_gates bias shape");
        let mut data = arena::take_empty(tx.rows * twx.cols);
        for _ in 0..tx.rows {
            data.extend_from_slice(&tb.data);
        }
        let mut v = Tensor::from_vec(tx.rows, twx.cols, data);
        v.matmul_acc(tx, twx);
        v.matmul_acc(th, twh);
        self.push(v, Op::LstmGates { x, h, wx, wh, b })
    }

    /// Fused LSTM cell: pre-activation `gates` (B, 4k; packed `[c̃ u f
    /// o]`) and previous state `hc_prev` (B, 7k) → next state (B, 7k).
    ///
    /// The state layout is `[h | c | c̃ | u | f | o | tanh(c)]`: columns
    /// `0..k` are the hidden state, `k..2k` the cell state, and the rest
    /// are stashed activations so backward recomputes no transcendental.
    /// Gradients flow only through the `h` and `c` columns — consumers
    /// must not read the stash. Per element the math replicates the
    /// unfused chain exactly (`tanh`/`σ` on the same gate bits, `u⊙c̃ +
    /// f⊙c`, `o⊙tanh(c')`), so fusion changes no forward bits.
    pub fn lstm_cell(&mut self, gates: Var, hc_prev: Var, hidden: usize) -> Var {
        let (tg, tp) = (self.value(gates), self.value(hc_prev));
        let k = hidden;
        let bsz = tg.rows;
        assert_eq!(tg.cols, 4 * k, "lstm_cell gate width");
        assert_eq!(tp.shape(), (bsz, 7 * k), "lstm_cell state shape");
        let mut v = Tensor::zeros_pooled(bsz, 7 * k);
        // Planar passes (single-stream loops vectorize; the layout puts
        // each activation plane contiguous within a row).
        for r in 0..bsz {
            let grow = tg.row_slice(r);
            let c_prev = &tp.row_slice(r)[k..2 * k];
            let out = &mut v.data[r * 7 * k..(r + 1) * 7 * k];
            // Split the row into its planes so each pass is a disjoint
            // slice the tiered kernels can write: [h | c | c̃ | u f o |
            // tanh(c)].
            let (h, rest) = out.split_at_mut(k);
            let (c, rest) = rest.split_at_mut(k);
            let (ctil, rest) = rest.split_at_mut(k);
            let (ufo, tanh_c) = rest.split_at_mut(3 * k);
            fastmath::fast_tanh_map(&grow[..k], ctil); // c̃
            fastmath::fast_sigmoid_map(&grow[k..4 * k], ufo); // u, f, o
                                                              // u⊙c̃ + f⊙c — mul, mul, add (no FMA on any tier, so the
                                                              // float association is exactly this).
            sqlan_simd::mul2_add_f32(c, &ufo[..k], ctil, &ufo[k..2 * k], c_prev);
            fastmath::fast_tanh_map(c, tanh_c); // tanh(c)
            sqlan_simd::mul_f32(h, &ufo[2 * k..3 * k], tanh_c); // h = o⊙tanh(c)
        }
        self.push(
            v,
            Op::LstmCell {
                gates,
                hc_prev,
                hidden,
            },
        )
    }

    /// Row-wise fused softmax + cross-entropy: (B, C) logits with one
    /// class target per row → (B, 1) per-example losses. Reduce with
    /// [`Graph::sum_all`] before calling backward.
    pub fn softmax_ce_rows(&mut self, logits: Var, targets: Vec<usize>) -> Var {
        let t = self.value(logits);
        assert_eq!(t.rows, targets.len(), "softmax_ce_rows target count");
        let mut v = Tensor::zeros_pooled(t.rows, 1);
        let mut p = arena::take_empty(t.cols);
        for (r, &y) in targets.iter().enumerate() {
            assert!(y < t.cols, "target class out of range");
            softmax_into(t.row_slice(r), &mut p);
            v.data[r] = -(p[y].max(1e-12)).ln();
        }
        arena::give(p);
        self.push(v, Op::SoftmaxCERows { logits, targets })
    }

    /// Softmax probabilities of a (1, C) logit row (inference helper; not
    /// differentiable — use [`Graph::softmax_ce_rows`] for training).
    pub fn softmax_probs(&self, logits: Var) -> Vec<f32> {
        softmax_row(self.value(logits).row_slice(0))
    }

    /// Row-wise softmax probabilities of (B, C) logits (inference
    /// helper). Each row is the same fold as [`softmax_row`], so batched
    /// probabilities are bit-identical to per-example ones.
    pub fn softmax_probs_rows(&self, logits: Var) -> Tensor {
        let t = self.value(logits);
        let mut v = Tensor::zeros_pooled(t.rows, t.cols);
        let mut p = arena::take_empty(t.cols);
        for r in 0..t.rows {
            softmax_into(t.row_slice(r), &mut p);
            v.data[r * t.cols..(r + 1) * t.cols].copy_from_slice(&p);
        }
        arena::give(p);
        v
    }

    /// Row-wise Huber loss: (B, 1) predictions with one target per row →
    /// (B, 1) per-example losses.
    pub fn huber_rows(&mut self, pred: Var, targets: Vec<f32>, delta: f32) -> Var {
        let t = self.value(pred);
        assert_eq!(t.cols, 1, "huber_rows expects a (B,1) column");
        assert_eq!(t.rows, targets.len(), "huber_rows target count");
        let mut v = Tensor::zeros_pooled(t.rows, 1);
        for (r, &y) in targets.iter().enumerate() {
            let rsd = t.data[r] - y;
            v.data[r] = if rsd.abs() <= delta {
                0.5 * rsd * rsd
            } else {
                delta * (rsd.abs() - 0.5 * delta)
            };
        }
        self.push(
            v,
            Op::HuberRows {
                pred,
                targets,
                delta,
            },
        )
    }

    /// Sum of every element → scalar. Seeding backward from this node
    /// with `s` hands every summand the gradient `s`, which is exactly
    /// the per-example loss seeding of the unbatched path.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let total: f32 = t.data.iter().sum();
        self.push(Tensor::scalar(total), Op::SumAll(a))
    }

    // ---- backward ------------------------------------------------------

    /// Back-propagate from scalar node `loss` (seeded with `seed`, usually
    /// 1.0 or 1/batch), accumulating parameter gradients into `grads`.
    pub fn backward(&self, loss: Var, seed: f32, grads: &mut Grads) {
        let mut node_grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        // Transposed-operand cache: matmul-family backward arms need
        // Bᵀ/Aᵀ of their operands, and recurrent tapes hit the *same*
        // weight nodes at every timestep — without the cache an LSTM
        // backward re-transposes Wx/Wh once per step-layer.
        let mut tcache: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        {
            let t = &self.nodes[loss.0].value;
            assert_eq!(t.len(), 1, "backward from non-scalar");
            node_grads[loss.0] = Some(Tensor::scalar(seed));
        }
        let transposed = |cache: &mut Vec<Option<Tensor>>, nodes: &[Node], v: Var| {
            if cache[v.0].is_none() {
                cache[v.0] = Some(nodes[v.0].value.transpose());
            }
        };

        for i in (0..=loss.0).rev() {
            let Some(g) = node_grads[i].take() else {
                continue;
            };
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(id) => grads.get_mut(*id).add_assign(&g),
                Op::Matmul(a, b) => {
                    transposed(&mut tcache, &self.nodes, *b);
                    let da = g.matmul(tcache[b.0].as_ref().expect("cached"));
                    transposed(&mut tcache, &self.nodes, *a);
                    let db = tcache[a.0].as_ref().expect("cached").matmul(&g);
                    accumulate(&mut node_grads, *a, da);
                    accumulate(&mut node_grads, *b, db);
                }
                Op::AddRow(a, b) => {
                    let mut db = Tensor::zeros_pooled(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            *db.at_mut(0, c) += g.at(r, c);
                        }
                    }
                    accumulate(&mut node_grads, *a, g.copy_pooled());
                    accumulate(&mut node_grads, *b, db);
                }
                Op::Relu(a) => {
                    let x = &self.nodes[a.0].value;
                    let da = Tensor::collect_pooled(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(&x.data)
                            .map(|(gr, xv)| if *xv > 0.0 { *gr } else { 0.0 }),
                    );
                    accumulate(&mut node_grads, *a, da);
                }
                // Scatter-shaped arms (slice/gather/select/concat) write
                // only a few rows or columns of their operand's
                // gradient, so they accumulate *in place* into the
                // operand's slot instead of materializing a full-size
                // sparse tensor and merging it — on a recurrent tape the
                // difference is millions of avoided zero-writes.
                Op::SliceCols(a, start, _end) => {
                    let da = grad_slot(&mut node_grads, &self.nodes, *a);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            *da.at_mut(r, start + c) += g.at(r, c);
                        }
                    }
                }
                Op::GatherRows(a, idx) => {
                    let da = grad_slot(&mut node_grads, &self.nodes, *a);
                    let cols = da.cols;
                    for (i, &r) in idx.iter().enumerate() {
                        let dst = &mut da.data[r * cols..(r + 1) * cols];
                        for (o, &gr) in dst.iter_mut().zip(g.row_slice(i)) {
                            *o += gr;
                        }
                    }
                }
                Op::SelectRowsWhere { on, off, keep } => {
                    let cols = g.cols;
                    for (r, &k) in keep.iter().enumerate() {
                        let dst =
                            grad_slot(&mut node_grads, &self.nodes, if k { *on } else { *off });
                        let drow = &mut dst.data[r * cols..(r + 1) * cols];
                        for (o, &gr) in drow.iter_mut().zip(g.row_slice(r)) {
                            *o += gr;
                        }
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let dp = grad_slot(&mut node_grads, &self.nodes, p);
                        let w = dp.cols;
                        for r in 0..g.rows {
                            let drow = &mut dp.data[r * w..(r + 1) * w];
                            for (o, &gr) in drow.iter_mut().zip(&g.row_slice(r)[offset..offset + w])
                            {
                                *o += gr;
                            }
                        }
                        offset += w;
                    }
                }
                Op::EmbedLookup(id, tokens) => {
                    let table = grads.get_mut(*id);
                    let d = table.cols;
                    for (r, &tok) in tokens.iter().enumerate() {
                        let tok = (tok as usize).min(table.rows - 1);
                        for c in 0..d {
                            *table.at_mut(tok, c) += g.at(r, c);
                        }
                    }
                }
                Op::Conv1dPacked {
                    input,
                    weight,
                    bias,
                    width,
                    segs,
                } => {
                    let x = &self.nodes[input.0].value;
                    let w = &self.nodes[weight.0].value;
                    let d = x.cols;
                    let k = w.rows;
                    let mut dx = Tensor::zeros_pooled(x.rows, x.cols);
                    let mut dw = Tensor::zeros_pooled(w.rows, w.cols);
                    let mut db = Tensor::zeros_pooled(1, k);
                    let mut or = 0usize;
                    for &(off, len) in segs {
                        let out_len = len - width + 1;
                        for j in 0..out_len {
                            let window = &x.data[(off + j) * d..(off + j + width) * d];
                            for ch in 0..k {
                                let go = g.at(or + j, ch);
                                if go == 0.0 {
                                    continue;
                                }
                                *db.at_mut(0, ch) += go;
                                let kernel = w.row_slice(ch);
                                let dw_row = &mut dw.data[ch * w.cols..(ch + 1) * w.cols];
                                let dx_win = &mut dx.data[(off + j) * d..(off + j + width) * d];
                                for p in 0..w.cols {
                                    dw_row[p] += go * window[p];
                                    dx_win[p] += go * kernel[p];
                                }
                            }
                        }
                        or += out_len;
                    }
                    accumulate(&mut node_grads, *input, dx);
                    accumulate(&mut node_grads, *weight, dw);
                    accumulate(&mut node_grads, *bias, db);
                }
                Op::MaxOverSegs(a, segs) => {
                    let t = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros_pooled(t.rows, t.cols);
                    for (si, &(off, rows)) in segs.iter().enumerate() {
                        for c in 0..t.cols {
                            let mut best = off;
                            for r in off + 1..off + rows {
                                if t.at(r, c) > t.at(best, c) {
                                    best = r;
                                }
                            }
                            *da.at_mut(best, c) = g.at(si, c);
                        }
                    }
                    accumulate(&mut node_grads, *a, da);
                }
                Op::Dropout(a, mask, keep) => {
                    let da = Tensor::collect_pooled(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(mask)
                            .map(|(gr, &m)| if m { gr / keep } else { 0.0 }),
                    );
                    accumulate(&mut node_grads, *a, da);
                }
                Op::LstmGates { x, h, wx, wh, b } => {
                    transposed(&mut tcache, &self.nodes, *wx);
                    let dx = g.matmul(tcache[wx.0].as_ref().expect("cached"));
                    transposed(&mut tcache, &self.nodes, *wh);
                    let dh = g.matmul(tcache[wh.0].as_ref().expect("cached"));
                    let txt = self.nodes[x.0].value.transpose();
                    let dwx = txt.matmul(&g);
                    txt.recycle();
                    let tht = self.nodes[h.0].value.transpose();
                    let dwh = tht.matmul(&g);
                    tht.recycle();
                    let mut db = Tensor::zeros_pooled(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            *db.at_mut(0, c) += g.at(r, c);
                        }
                    }
                    accumulate(&mut node_grads, *x, dx);
                    accumulate(&mut node_grads, *h, dh);
                    accumulate(&mut node_grads, *wx, dwx);
                    accumulate(&mut node_grads, *wh, dwh);
                    accumulate(&mut node_grads, *b, db);
                }
                Op::LstmCell {
                    gates,
                    hc_prev,
                    hidden,
                } => {
                    let k = *hidden;
                    let (v, tp) = {
                        let v = &self.nodes[i].value;
                        let tp = &self.nodes[hc_prev.0].value;
                        (v, tp)
                    };
                    let bsz = v.rows;
                    let mut dgates = Tensor::zeros_pooled(bsz, 4 * k);
                    let dprev = grad_slot(&mut node_grads, &self.nodes, *hc_prev);
                    for r in 0..bsz {
                        let vr = v.row_slice(r);
                        let gr = g.row_slice(r);
                        let c_prev = &tp.row_slice(r)[k..2 * k];
                        let dg = &mut dgates.data[r * 4 * k..(r + 1) * 4 * k];
                        let dp = &mut dprev.data[r * 7 * k..(r + 1) * 7 * k];
                        // Gradients arrive only through h (cols 0..k)
                        // and c (cols k..2k); the activation stash has
                        // no consumers. dc flows to the previous cell
                        // through dp's c plane; dgates get the usual
                        // σ'/tanh' factors from the stashed outputs.
                        for j in 0..k {
                            let (ct, u, f, o, c_act) = (
                                vr[2 * k + j],
                                vr[3 * k + j],
                                vr[4 * k + j],
                                vr[5 * k + j],
                                vr[6 * k + j],
                            );
                            let gh = gr[j];
                            let gc = gr[k + j];
                            let d_o = gh * c_act;
                            let d_c_next = gc + gh * o * (1.0 - c_act * c_act);
                            dg[j] = d_c_next * u * (1.0 - ct * ct);
                            dg[k + j] = d_c_next * ct * u * (1.0 - u);
                            dg[2 * k + j] = d_c_next * c_prev[j] * f * (1.0 - f);
                            dg[3 * k + j] = d_o * o * (1.0 - o);
                            dp[k + j] += d_c_next * f;
                        }
                    }
                    accumulate(&mut node_grads, *gates, dgates);
                }
                Op::SoftmaxCERows { logits, targets } => {
                    let l = &self.nodes[logits.0].value;
                    let mut dl = Tensor::zeros_pooled(l.rows, l.cols);
                    let mut p = arena::take_empty(l.cols);
                    for (r, &y) in targets.iter().enumerate() {
                        softmax_into(l.row_slice(r), &mut p);
                        let gi = g.data[r];
                        let dl_row = &mut dl.data[r * l.cols..(r + 1) * l.cols];
                        for (c, &pc) in p.iter().enumerate() {
                            let indicator = if c == y { 1.0 } else { 0.0 };
                            dl_row[c] = gi * (pc - indicator);
                        }
                    }
                    arena::give(p);
                    accumulate(&mut node_grads, *logits, dl);
                }
                Op::HuberRows {
                    pred,
                    targets,
                    delta,
                } => {
                    let t = &self.nodes[pred.0].value;
                    let mut dp = Tensor::zeros_pooled(t.rows, 1);
                    for (r, &y) in targets.iter().enumerate() {
                        let rsd = t.data[r] - y;
                        let dr = if rsd.abs() <= *delta {
                            rsd
                        } else {
                            delta * rsd.signum()
                        };
                        dp.data[r] = g.data[r] * dr;
                    }
                    accumulate(&mut node_grads, *pred, dp);
                }
                Op::SumAll(a) => {
                    let ta = &self.nodes[a.0].value;
                    let gi = g.item();
                    let da =
                        Tensor::collect_pooled(ta.rows, ta.cols, std::iter::repeat_n(gi, ta.len()));
                    accumulate(&mut node_grads, *a, da);
                }
            }
            // Every arm borrows `g` (operand gradients are fresh pooled
            // tensors), so the buffer can always be recycled here.
            g.recycle();
        }
        for t in tcache.into_iter().flatten() {
            t.recycle();
        }
    }
}

impl Drop for Graph<'_> {
    fn drop(&mut self) {
        arena::set_tape_hint(self.nodes.len());
        for n in self.nodes.drain(..) {
            n.value.recycle();
        }
    }
}

fn accumulate(node_grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut node_grads[v.0] {
        Some(existing) => {
            existing.add_assign(&g);
            g.recycle();
        }
        slot @ None => *slot = Some(g),
    }
}

/// The (possibly fresh, zeroed) gradient buffer for node `v` — for
/// scatter-shaped backward arms that add into a few rows/columns in
/// place rather than materializing a sparse full-size gradient.
fn grad_slot<'g>(node_grads: &'g mut [Option<Tensor>], nodes: &[Node], v: Var) -> &'g mut Tensor {
    let (r, c) = nodes[v.0].value.shape();
    node_grads[v.0].get_or_insert_with(|| Tensor::zeros_pooled(r, c))
}

/// Numerically-stable softmax of one row.
pub fn softmax_row(row: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(row.len());
    softmax_into(row, &mut out);
    out
}

/// Numerically-stable softmax of one row into a reused buffer. The fold
/// order (max, exps, sum, divide — all in index order) is the bit-level
/// definition every softmax in the workspace shares.
fn softmax_into(row: &[f32], out: &mut Vec<f32>) {
    out.clear();
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    out.extend(row.iter().map(|&x| (x - max).exp()));
    let sum: f32 = out.iter().sum();
    let denom = sum.max(1e-12);
    for e in out.iter_mut() {
        *e /= denom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    #[test]
    fn forward_matmul_chain() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::row(vec![1.0, 1.0]));
        let wv = g.param(w);
        let y = g.matmul(x, wv);
        assert_eq!(g.value(y).data, vec![4.0, 6.0]);
    }

    #[test]
    fn backward_linear_gradient_matches_analytic() {
        // loss = huber(x·w, 0) with small residual → dL/dw = (x·w) * x
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_vec(2, 1, vec![0.3, -0.2]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::row(vec![1.0, 2.0]));
        let wv = g.param(w);
        let y = g.matmul(x, wv); // 0.3 - 0.4 = -0.1
        let loss = g.huber_rows(y, vec![0.0], 1.0);
        g.backward(loss, 1.0, &mut grads);
        let r = -0.1f32;
        assert!((grads.get(w).data[0] - r * 1.0).abs() < 1e-6);
        assert!((grads.get(w).data[1] - r * 2.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_gradient_is_p_minus_onehot() {
        let mut params = Params::new();
        let w = params.add("logits", Tensor::row(vec![1.0, 2.0, 0.5]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let l = g.param(w);
        let loss = g.softmax_ce_rows(l, vec![1]);
        g.backward(loss, 1.0, &mut grads);
        let p = softmax_row(&[1.0, 2.0, 0.5]);
        let d = &grads.get(w).data;
        assert!((d[0] - p[0]).abs() < 1e-6);
        assert!((d[1] - (p[1] - 1.0)).abs() < 1e-6);
        assert!((d[2] - p[2]).abs() < 1e-6);
    }

    #[test]
    fn batched_ce_rows_match_per_example_bits() {
        let mut params = Params::new();
        let w = params.add(
            "logits",
            Tensor::from_vec(
                3,
                4,
                (0..12).map(|i| ((i * 37 % 11) as f32) / 3.0).collect(),
            ),
        );
        let params2 = params.clone();
        let targets = vec![1usize, 3, 0];
        // Batched losses.
        let mut g = Graph::new(&params);
        let l = g.param(w);
        let losses = g.softmax_ce_rows(l, targets.clone());
        let batched: Vec<u32> = g.value(losses).data.iter().map(|f| f.to_bits()).collect();
        // Per-example losses.
        let mut solo_bits = Vec::new();
        for (r, &y) in targets.iter().enumerate() {
            let mut gs = Graph::new(&params2);
            let l = gs.param(w);
            let row = gs.gather_rows(l, vec![r]);
            let loss = gs.softmax_ce_rows(row, vec![y]);
            solo_bits.push(gs.value(loss).item().to_bits());
        }
        assert_eq!(batched, solo_bits);
    }

    #[test]
    fn sum_all_seeds_each_row_like_per_example() {
        // d(sum of huber losses)/dpred must equal per-example seeding.
        let mut params = Params::new();
        let w = params.add("p", Tensor::from_vec(3, 1, vec![0.5, -2.0, 0.1]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let pv = g.param(w);
        let losses = g.huber_rows(pv, vec![0.0, 0.0, 0.0], 1.0);
        let total = g.sum_all(losses);
        g.backward(total, 0.5, &mut grads);
        // Residuals 0.5 (quad), -2.0 (linear), 0.1 (quad), each × seed.
        let d = &grads.get(w).data;
        assert!((d[0] - 0.5 * 0.5).abs() < 1e-6);
        assert!((d[1] + 0.5).abs() < 1e-6);
        assert!((d[2] - 0.5 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn gather_rows_accumulates_duplicate_indices() {
        let mut params = Params::new();
        let w = params.add("m", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let m = g.param(w);
        let picked = g.gather_rows(m, vec![1, 1, 0]);
        assert_eq!(g.value(picked).data, vec![3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
        // Sum everything → every picked element gets gradient 1.
        let ones = g.input(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let summed = g.matmul(picked, ones); // (3,1)
        let lsum = g.sum_all(summed);
        let loss = g.huber_rows(lsum, vec![0.0], 1e9);
        g.backward(loss, 1.0, &mut grads);
        let d = &grads.get(w).data;
        let total: f32 = g.value(lsum).item();
        // d/drow1 counts twice, d/drow0 once, all scaled by residual.
        assert!((d[0] / total - 1.0).abs() < 1e-5);
        assert!((d[2] / total - 2.0).abs() < 1e-5);
    }

    #[test]
    fn select_rows_where_routes_values_and_gradients() {
        let mut params = Params::new();
        let on = params.add("on", Tensor::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]));
        let off = params.add("off", Tensor::from_vec(2, 2, vec![5.0, 5.0, 5.0, 5.0]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let a = g.param(on);
        let b = g.param(off);
        let sel = g.select_rows_where(vec![true, false], a, b);
        assert_eq!(g.value(sel).data, vec![1.0, 1.0, 5.0, 5.0]);
        let ones = g.input(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let summed = g.matmul(sel, ones);
        let total = g.sum_all(summed);
        let loss = g.huber_rows(total, vec![0.0], 1e9);
        g.backward(loss, 1.0, &mut grads);
        let don = &grads.get(on).data;
        let doff = &grads.get(off).data;
        // Row 0 grads flow to `on`, row 1 grads to `off`.
        assert!(don[0] != 0.0 && don[1] != 0.0);
        assert_eq!(&don[2..], &[0.0, 0.0]);
        assert_eq!(&doff[..2], &[0.0, 0.0]);
        assert!(doff[2] != 0.0 && doff[3] != 0.0);
    }

    #[test]
    fn max_over_time_routes_gradient_to_argmax() {
        let mut params = Params::new();
        let w = params.add(
            "m",
            Tensor::from_vec(3, 2, vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0]),
        );
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let m = g.param(w);
        let mx = g.max_over_segs(m, vec![(0, 3)]);
        // Reduce to scalar via huber against 0 with big delta: d = value
        let c0 = g.slice_cols(mx, 0, 1);
        let loss = g.huber_rows(c0, vec![0.0], 1e9);
        g.backward(loss, 1.0, &mut grads);
        // argmax of column 0 is row 1 (value 5.0); residual = 5.0
        let d = &grads.get(w).data;
        assert_eq!(d[0], 0.0);
        assert!((d[2] - 5.0).abs() < 1e-4);
        assert_eq!(d[4], 0.0);
    }

    #[test]
    fn embed_lookup_accumulates_row_gradients() {
        let mut params = Params::new();
        let table = params.add("emb", Tensor::from_vec(3, 2, vec![0.0; 6]));
        let mut grads = params.zero_grads();
        let mut g = Graph::new(&params);
        let e = g.embed(table, &[1, 1, 2]);
        // Sum everything into a scalar: matmul with ones then select.
        let ones = g.input(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let summed = g.matmul(e, ones); // (3,1)
        let ones2 = g.input(Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        let total = g.matmul(ones2, summed); // (1,1)
        let loss = g.huber_rows(total, vec![-1.0], 1e9);
        g.backward(loss, 1.0, &mut grads);
        let d = &grads.get(table).data;
        // Row 1 used twice, row 2 once, row 0 never. Residual = 1.
        assert_eq!(d[0], 0.0);
        assert!((d[2] - 2.0).abs() < 1e-5);
        assert!((d[4] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn dropout_scales_kept_elements() {
        let params = Params::new();
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::row(vec![2.0, 4.0]));
        let y = g.dropout(x, vec![true, false], 0.5);
        assert_eq!(g.value(y).data, vec![4.0, 0.0]);
    }

    #[test]
    fn concat_cols_handles_multi_row_blocks() {
        let params = Params::new();
        let mut g = Graph::new(&params);
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 5.0, 6.0]));
        let b = g.input(Tensor::from_vec(2, 1, vec![3.0, 7.0]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), (2, 3));
        assert_eq!(g.value(c).data, vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "conv1d: sequence shorter than kernel")]
    fn conv_rejects_short_sequences() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::zeros(1, 6));
        let b = params.add("b", Tensor::zeros(1, 1));
        let mut g = Graph::new(&params);
        let x = g.input(Tensor::zeros(2, 2)); // seq 2 < width 3
        let (wv, bv) = (g.param(w), g.param(b));
        let _ = g.conv1d_packed(x, wv, bv, 3, vec![(0, 2)]);
    }

    #[test]
    fn packed_conv_segments_match_solo_runs_bitwise() {
        let mut params = Params::new();
        let w = params.add(
            "w",
            Tensor::from_vec(2, 4, (0..8).map(|i| (i as f32 * 0.37).sin()).collect()),
        );
        let b = params.add("b", Tensor::row(vec![0.1, -0.2]));
        // Two sequences of different lengths, packed back to back.
        let xs = [
            Tensor::from_vec(3, 2, (0..6).map(|i| (i as f32).cos()).collect()),
            Tensor::from_vec(5, 2, (0..10).map(|i| (i as f32 * 1.3).cos()).collect()),
        ];
        let mut packed_data = Vec::new();
        for x in &xs {
            packed_data.extend_from_slice(&x.data);
        }
        let mut g = Graph::new(&params);
        let xp = g.input(Tensor::from_vec(8, 2, packed_data));
        let (wv, bv) = (g.param(w), g.param(b));
        let conv = g.conv1d_packed(xp, wv, bv, 2, vec![(0, 3), (3, 5)]);
        let packed_bits: Vec<u32> = g.value(conv).data.iter().map(|f| f.to_bits()).collect();
        let mut solo_bits = Vec::new();
        for x in &xs {
            let mut gs = Graph::new(&params);
            let xv = gs.input(x.clone());
            let (wv, bv) = (gs.param(w), gs.param(b));
            let conv = gs.conv1d_packed(xv, wv, bv, 2, vec![(0, x.rows)]);
            solo_bits.extend(gs.value(conv).data.iter().map(|f| f.to_bits()));
        }
        assert_eq!(packed_bits, solo_bits);
    }
}

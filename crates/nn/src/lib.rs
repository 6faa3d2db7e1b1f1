//! # sqlan-nn
//!
//! A compact neural-network substrate for the `sqlan` reproduction of
//! *"Facilitating SQL Query Composition and Analysis"* (SIGMOD 2020):
//! dense 2-D tensors, a tape-based reverse-mode autograd, the layers the
//! paper's models need (embeddings, multi-width 1-D convolutions with
//! max-over-time pooling, stacked LSTMs, linear heads, dropout), and the
//! SGD/Adam/AdaMax optimizers with global-norm gradient clipping.
//!
//! Execution is **batched tensor execution**: one tape covers a whole
//! minibatch. [`plan_tiles`] buckets examples by length into tiles; the
//! encoders have batch twins ([`Conv1dBank::forward_packed`] over exact
//! packed segments, [`LstmStack::forward_batch`] over a padded batch
//! with masked state freezing, fused `lstm_gates`/`lstm_cell` tape ops);
//! linear heads run one `(B,K)·(K,N)` matmul. The kernels batch along
//! rows only — each row keeps the per-example accumulation order — so
//! batched inference is bit-identical to running examples one at a time
//! (`tests/prop_batch.rs`). Tape storage is recycled through a
//! thread-local buffer arena, so steady-state steps allocate O(1) fresh
//! buffers. The repository's `ARCHITECTURE.md` ("Batched training")
//! documents the bucketing, the bit-identity argument, and the gradient
//! merge-order contract.
//!
//! Gradient correctness for every op — including the fused and batched
//! ones — is property-tested against central finite differences
//! (`tests/prop_grad.rs`).
//!
//! ```
//! use sqlan_nn::{Graph, Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::scalar(3.0));
//! let mut grads = params.zero_grads();
//! let mut g = Graph::new(&params);
//! let wv = g.param(w);
//! let loss = g.huber_rows(wv, vec![1.0], 1.0); // residual 2 > delta → linear region
//! g.backward(loss, 1.0, &mut grads);
//! assert_eq!(grads.get(w).item(), 1.0);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub(crate) mod arena;
pub mod batch;
pub mod fastmath;
pub mod graph;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tensor;

pub use batch::{plan_tiles, Tile};
pub use graph::{softmax_row, Graph, Seg, Var};
pub use layers::{dropout_mask, Conv1dBank, Embedding, Linear, LstmLayer, LstmStack};
pub use optim::{AdaMax, Adam, Optimizer, Sgd};
pub use params::{Grads, ParamId, Params};
pub use tensor::Tensor;

//! The neural models: shallow CNN (§5.3) and three-layer LSTM (§5.2), at
//! character or word granularity, for classification or regression.
//!
//! Training follows the paper: AdaMax, lr 1e-3, batch 16, gradient-norm
//! clipping, cross-entropy for classification, Huber for regression over
//! log-transformed labels, model selection on validation loss.
//!
//! Execution is **tensorized**: a minibatch is planned into
//! length-bucketed tiles ([`sqlan_nn::plan_tiles`]) and each tile runs
//! one batched tape — packed-segment convolution for the CNN, padded
//! batch with per-row masks for the LSTM, one `(B,K)·(K,N)` matmul per
//! linear layer — instead of one graph per example. Inference rows are
//! bit-identical to the per-statement path (the kernels batch along rows
//! only); training gradients accumulate across a tile's rows in example
//! order and per-tile buffers merge in tile order, so trained parameters
//! are bit-identical at any `SQLAN_THREADS`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sqlan_features::Vocab;
use sqlan_nn::{
    dropout_mask, plan_tiles, AdaMax, Conv1dBank, Embedding, Grads, Graph, Linear, LstmStack,
    Optimizer, Params, Var,
};

use crate::config::{Granularity, TrainConfig};
use crate::models::zoo::TrainData;
use crate::text::{build_vocab, encode};

/// Examples per batched tape during training: small enough that one
/// 16-example paper minibatch still fans out across workers, large
/// enough to amortize tape/clone overhead ~an order of magnitude. It is
/// a constant because the tile shapes gradient summation (per-tile sums
/// merge in tile order), so every process must use the same width to
/// train the same parameters.
const TRAIN_TILE: usize = 8;

/// Examples per batched tape during inference (serving batches are
/// bigger and have no gradient memory, so tiles can be wider).
const PREDICT_TILE: usize = 32;

/// Which sequence encoder the model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchKind {
    Cnn,
    Lstm,
}

/// Training task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Task {
    /// `n` classes, cross-entropy.
    Classify(usize),
    /// Scalar regression with Huber loss on log-transformed labels.
    Regress,
}

impl Task {
    fn n_outputs(self) -> usize {
        match self {
            Task::Classify(n) => n,
            Task::Regress => 1,
        }
    }
}

/// Labels for training.
#[derive(Debug, Clone)]
pub enum Labels<'a> {
    Classes(&'a [usize]),
    Values(&'a [f64]),
}

#[derive(Serialize, Deserialize)]
enum Encoder {
    Cnn(Conv1dBank),
    Lstm(LstmStack),
}

impl std::fmt::Debug for Encoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Encoder::Cnn(_) => f.write_str("Cnn"),
            Encoder::Lstm(_) => f.write_str("Lstm"),
        }
    }
}

/// A trained neural model.
#[derive(Debug, Serialize, Deserialize)]
pub struct NeuralModel {
    pub arch: ArchKind,
    pub granularity: Granularity,
    pub task: Task,
    cfg: TrainConfig,
    vocab: Vocab,
    params: Params,
    emb: Embedding,
    encoder: Encoder,
    head: Linear,
    min_len: usize,
}

/// The CNN's kernel widths, straight from §5.3 / Kim (2014).
const CNN_WIDTHS: [usize; 3] = [3, 4, 5];

impl NeuralModel {
    /// Paper-style name, e.g. `ccnn`, `wlstm`.
    pub fn name(&self) -> String {
        let arch = match self.arch {
            ArchKind::Cnn => "cnn",
            ArchKind::Lstm => "lstm",
        };
        format!("{}{}", self.granularity.prefix(), arch)
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    pub fn n_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Train on `data`'s train slice, selecting the best epoch by loss on
    /// its validation slice.
    ///
    /// Each minibatch is planned into length-bucketed tiles and every
    /// tile forward/backwards as one batched tape on the [`sqlan_par`]
    /// pool. Determinism contract (pinned by `tests/par_determinism.rs`):
    /// the tile plan is a pure function of sequence lengths; per-example
    /// gradient rows accumulate inside a tape in example order (the
    /// matmul-transpose kernels walk batch rows ascending); and per-tile
    /// gradient buffers merge in tile order — so losses and trained
    /// parameters are bit-identical at any `SQLAN_THREADS`. Dropout
    /// masks are pre-drawn sequentially from the seeded RNG in chunk
    /// order and travel with their example into its tile.
    pub fn train(
        arch: ArchKind,
        granularity: Granularity,
        task: Task,
        data: &TrainData<'_>,
        cfg: &TrainConfig,
    ) -> NeuralModel {
        // Run under the configuration's thread budget so every nested
        // stage (including `eval_loss` re-resolving the pool) honors a
        // pinned count.
        cfg.pool()
            .install(|| Self::train_inner(arch, granularity, task, data, cfg))
    }

    fn train_inner(
        arch: ArchKind,
        granularity: Granularity,
        task: Task,
        data: &TrainData<'_>,
        cfg: &TrainConfig,
    ) -> NeuralModel {
        let train_statements = data.statements;
        let train_labels = data.labels.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let vocab = build_vocab(train_statements, granularity, cfg);
        let min_len = match arch {
            ArchKind::Cnn => *CNN_WIDTHS.iter().max().expect("non-empty"),
            ArchKind::Lstm => 1,
        };

        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "emb", vocab.len(), cfg.embed_dim, &mut rng);
        let (encoder, feat_dim) = match arch {
            ArchKind::Cnn => {
                let bank = Conv1dBank::new(
                    &mut params,
                    "cnn",
                    &CNN_WIDTHS,
                    cfg.kernels_per_width,
                    cfg.embed_dim,
                    &mut rng,
                );
                let dim = bank.out_dim();
                (Encoder::Cnn(bank), dim)
            }
            ArchKind::Lstm => {
                let stack = LstmStack::new(
                    &mut params,
                    "lstm",
                    cfg.embed_dim,
                    cfg.hidden,
                    cfg.lstm_depth,
                    &mut rng,
                );
                (Encoder::Lstm(stack), cfg.hidden)
            }
        };
        let head = Linear::new(&mut params, "head", feat_dim, task.n_outputs(), &mut rng);

        let mut model = NeuralModel {
            arch,
            granularity,
            task,
            cfg: *cfg,
            vocab,
            params,
            emb,
            encoder,
            head,
            min_len,
        };

        // Pre-encode all statements once (order-preserving parallel map).
        let pool = cfg.pool();
        let train_seqs: Vec<Vec<u32>> = pool.par_map(train_statements, |s| {
            encode(s, granularity, &model.vocab, cfg, min_len)
        });
        let valid_seqs: Vec<Vec<u32>> = pool.par_map(data.valid_statements, |s| {
            encode(s, granularity, &model.vocab, cfg, min_len)
        });

        let mut optimizer = AdaMax::new(cfg.lr);
        let mut order: Vec<usize> = (0..train_seqs.len()).collect();
        let mut best: Option<(f64, Params)> = None;
        let mut since_best = 0usize;

        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch.max(1)) {
                // Dropout masks come off the shared RNG sequentially, in
                // chunk order: the stream is independent of both worker
                // scheduling and the tile plan (mask length is
                // architecture-constant).
                let dropout = model.cfg.dropout > 0.0;
                let keep = 1.0 - model.cfg.dropout;
                let masks: Vec<Vec<bool>> = if dropout {
                    chunk
                        .iter()
                        .map(|_| dropout_mask(feat_dim, keep, &mut rng))
                        .collect()
                } else {
                    Vec::new()
                };
                let scale = 1.0 / chunk.len() as f32;
                let mut grads = model.params.zero_grads();
                // Length-bucketed tiles; one batched tape per tile.
                let lens: Vec<usize> = chunk.iter().map(|&i| train_seqs[i].len()).collect();
                let tiles = plan_tiles(&lens, TRAIN_TILE);
                let per_tile: Vec<Grads> = pool.par_map(&tiles, |tile| {
                    let mut tile_grads = model.params.zero_grads();
                    let mut g = Graph::new(&model.params);
                    let seqs: Vec<&[u32]> = tile
                        .indices
                        .iter()
                        .map(|&p| train_seqs[chunk[p]].as_slice())
                        .collect();
                    let mask_cat: Option<Vec<bool>> = dropout.then(|| {
                        tile.indices
                            .iter()
                            .flat_map(|&p| masks[p].iter().copied())
                            .collect()
                    });
                    let logits = model.logits_for_tile(&mut g, &seqs, mask_cat.as_deref());
                    let losses = match (&model.task, &train_labels) {
                        (Task::Classify(_), Labels::Classes(ys)) => {
                            let ts: Vec<usize> =
                                tile.indices.iter().map(|&p| ys[chunk[p]]).collect();
                            g.softmax_ce_rows(logits, ts)
                        }
                        (Task::Regress, Labels::Values(ys)) => {
                            let ts: Vec<f32> =
                                tile.indices.iter().map(|&p| ys[chunk[p]] as f32).collect();
                            g.huber_rows(logits, ts, model.cfg.huber_delta)
                        }
                        _ => panic!("task/label kind mismatch"),
                    };
                    // Seeding the summed loss with 1/batch hands every
                    // per-row loss a 1/batch gradient: the minibatch mean.
                    let loss = g.sum_all(losses);
                    g.backward(loss, scale, &mut tile_grads);
                    tile_grads
                });
                for tg in per_tile {
                    grads.merge(&tg);
                    tg.recycle();
                }
                if model.cfg.clip > 0.0 {
                    grads.clip_global_norm(model.cfg.clip);
                }
                optimizer.step(&mut model.params, &grads);
                grads.recycle();
            }

            // Validation for early stopping / model selection.
            let vloss = model.eval_loss(&valid_seqs, &data.valid_labels);
            let improved = best.as_ref().map(|(b, _)| vloss < *b).unwrap_or(true);
            if improved {
                best = Some((vloss, model.params.clone()));
                since_best = 0;
            } else {
                since_best += 1;
                if model.cfg.patience > 0 && since_best >= model.cfg.patience {
                    break;
                }
            }
        }
        if let Some((_, p)) = best {
            model.params = p;
        }
        model
    }

    /// Mean loss over pre-encoded sequences (no dropout). Tiles are
    /// planned deterministically and per-tile sums reduce in tile order
    /// (rows in example order within a tile), so the mean is
    /// bit-identical at any thread count.
    fn eval_loss(&self, seqs: &[Vec<u32>], labels: &Labels<'_>) -> f64 {
        if seqs.is_empty() {
            return f64::INFINITY;
        }
        let lens: Vec<usize> = seqs.iter().map(Vec::len).collect();
        let tiles = plan_tiles(&lens, PREDICT_TILE);
        let per_tile: Vec<f64> = self.cfg.pool().par_map(&tiles, |tile| {
            let mut g = Graph::new(&self.params);
            let tile_seqs: Vec<&[u32]> = tile.indices.iter().map(|&i| seqs[i].as_slice()).collect();
            let logits = self.logits_for_tile(&mut g, &tile_seqs, None);
            match (&self.task, labels) {
                (Task::Classify(_), Labels::Classes(ys)) => {
                    let probs = g.softmax_probs_rows(logits);
                    let mut sum = 0.0;
                    for (r, &i) in tile.indices.iter().enumerate() {
                        sum += -(probs.at(r, ys[i]).max(1e-12) as f64).ln();
                    }
                    probs.recycle();
                    sum
                }
                (Task::Regress, Labels::Values(ys)) => {
                    let out = g.value(logits);
                    let mut sum = 0.0;
                    for (r, &i) in tile.indices.iter().enumerate() {
                        let pred = out.data[r] as f64;
                        sum += sqlan_metrics::huber_loss(ys[i], pred, self.cfg.huber_delta as f64);
                    }
                    sum
                }
                _ => panic!("task/label kind mismatch"),
            }
        });
        per_tile.iter().sum::<f64>() / seqs.len() as f64
    }

    /// Batched tile forward: embeddings → encoder batch twin → optional
    /// dropout (per-example masks concatenated in tile row order) → head
    /// logits, (B, n_outputs). Row i is bit-identical to the per-example
    /// forward of `seqs[i]`: the CNN consumes exact packed segments, the
    /// LSTM pads to the tile max with masked (frozen-state) steps, and
    /// every kernel batches along rows only.
    fn logits_for_tile(&self, g: &mut Graph<'_>, seqs: &[&[u32]], mask: Option<&[bool]>) -> Var {
        assert!(!seqs.is_empty(), "empty tile");
        let feats = match &self.encoder {
            Encoder::Cnn(bank) => {
                let total: usize = seqs.iter().map(|s| s.len()).sum();
                let mut flat: Vec<u32> = Vec::with_capacity(total);
                let mut segs: Vec<(usize, usize)> = Vec::with_capacity(seqs.len());
                for s in seqs {
                    segs.push((flat.len(), s.len()));
                    flat.extend_from_slice(s);
                }
                let x = g.embed(self.emb.table, &flat);
                bank.forward_packed(g, x, &segs)
            }
            Encoder::Lstm(stack) => {
                let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
                let padded = lens.iter().copied().max().expect("non-empty tile");
                let mut flat: Vec<u32> = Vec::with_capacity(seqs.len() * padded);
                for s in seqs {
                    flat.extend_from_slice(s);
                    flat.resize(flat.len() + (padded - s.len()), sqlan_features::PAD);
                }
                let x = g.embed(self.emb.table, &flat);
                stack.forward_batch(g, x, &lens, padded)
            }
        };
        let feats = match mask {
            Some(mask) if self.cfg.dropout > 0.0 => {
                let keep = 1.0 - self.cfg.dropout;
                g.dropout(feats, mask.to_vec(), keep)
            }
            _ => feats,
        };
        self.head.forward(g, feats)
    }

    /// Shared encoder: embedding → CNN bank or LSTM stack → (1, feat_dim).
    /// A pre-drawn `mask` enables dropout (training); `None` disables it
    /// (inference). Masks are drawn by the caller so this stays a pure
    /// function, safe to fan out across gradient workers.
    fn encode_features(&self, g: &mut Graph<'_>, seq: &[u32], mask: Option<&[bool]>) -> Var {
        let x = self.emb.forward(g, seq);
        let feats = match &self.encoder {
            Encoder::Cnn(bank) => bank.forward(g, x),
            Encoder::Lstm(stack) => stack.forward(g, x),
        };
        match mask {
            Some(mask) if self.cfg.dropout > 0.0 => {
                let keep = 1.0 - self.cfg.dropout;
                g.dropout(feats, mask.to_vec(), keep)
            }
            _ => feats,
        }
    }

    fn encode_statement(&self, statement: &str) -> Vec<u32> {
        encode(
            statement,
            self.granularity,
            &self.vocab,
            &self.cfg,
            self.min_len,
        )
    }

    /// Inference forward pass (no dropout) for one pre-encoded sequence.
    fn proba_for_seq(&self, seq: &[u32]) -> Vec<f32> {
        let mut g = Graph::new(&self.params);
        let feats = self.encode_features(&mut g, seq, None);
        let out = self.head.forward(&mut g, feats);
        g.softmax_probs(out)
    }

    /// Inference forward pass (no dropout) for one pre-encoded sequence,
    /// scalar head.
    fn value_for_seq(&self, seq: &[u32]) -> f64 {
        let mut g = Graph::new(&self.params);
        let feats = self.encode_features(&mut g, seq, None);
        let out = self.head.forward(&mut g, feats);
        g.value(out).item() as f64
    }

    /// Class probabilities for one statement (classification models).
    pub fn predict_proba(&self, statement: &str) -> Vec<f32> {
        self.proba_for_seq(&self.encode_statement(statement))
    }

    /// Predicted class index.
    pub fn predict_class(&self, statement: &str) -> usize {
        sqlan_ml::argmax(&self.predict_proba(statement))
    }

    /// Predicted value in log-label space (regression models).
    pub fn predict_value(&self, statement: &str) -> f64 {
        self.value_for_seq(&self.encode_statement(statement))
    }

    /// Batch twin of [`Self::predict_proba`], via *true batched
    /// forward*: statements encode in one fan-out, tiles plan by length,
    /// and each tile runs one batched tape (one `(B,K)·(K,N)` matmul per
    /// layer instead of B vector-matrix products). Because every kernel
    /// batches along rows only — preserving each row's accumulation
    /// order — the output is bit-identical to mapping the per-statement
    /// API, at any thread count.
    pub fn predict_proba_batch(&self, statements: &[String]) -> Vec<Vec<f32>> {
        let seqs: Vec<Vec<u32>> = sqlan_par::par_map(statements, |s| self.encode_statement(s));
        let lens: Vec<usize> = seqs.iter().map(Vec::len).collect();
        let tiles = plan_tiles(&lens, PREDICT_TILE);
        let per_tile: Vec<Vec<Vec<f32>>> = sqlan_par::par_map(&tiles, |tile| {
            let mut g = Graph::new(&self.params);
            let tile_seqs: Vec<&[u32]> = tile.indices.iter().map(|&i| seqs[i].as_slice()).collect();
            let logits = self.logits_for_tile(&mut g, &tile_seqs, None);
            let probs = g.softmax_probs_rows(logits);
            let rows: Vec<Vec<f32>> = (0..probs.rows)
                .map(|r| probs.row_slice(r).to_vec())
                .collect();
            probs.recycle();
            rows
        });
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); statements.len()];
        for (tile, rows) in tiles.iter().zip(per_tile) {
            for (&i, row) in tile.indices.iter().zip(rows) {
                out[i] = row;
            }
        }
        out
    }

    /// Batch twin of [`Self::predict_class`].
    pub fn predict_class_batch(&self, statements: &[String]) -> Vec<usize> {
        self.predict_proba_batch(statements)
            .iter()
            .map(|p| sqlan_ml::argmax(p))
            .collect()
    }

    /// Batch twin of [`Self::predict_value`] (same true-batched forward
    /// as [`Self::predict_proba_batch`]).
    pub fn predict_value_batch(&self, statements: &[String]) -> Vec<f64> {
        let seqs: Vec<Vec<u32>> = sqlan_par::par_map(statements, |s| self.encode_statement(s));
        let lens: Vec<usize> = seqs.iter().map(Vec::len).collect();
        let tiles = plan_tiles(&lens, PREDICT_TILE);
        let per_tile: Vec<Vec<f64>> = sqlan_par::par_map(&tiles, |tile| {
            let mut g = Graph::new(&self.params);
            let tile_seqs: Vec<&[u32]> = tile.indices.iter().map(|&i| seqs[i].as_slice()).collect();
            let logits = self.logits_for_tile(&mut g, &tile_seqs, None);
            g.value(logits).data.iter().map(|&v| v as f64).collect()
        });
        let mut out: Vec<f64> = vec![0.0; statements.len()];
        for (tile, vals) in tiles.iter().zip(per_tile) {
            for (&i, v) in tile.indices.iter().zip(vals) {
                out[i] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially separable task: statements mentioning DROP are class 1.
    fn toy_classification() -> (Vec<String>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..120 {
            if i % 2 == 0 {
                xs.push(format!("SELECT col{} FROM t WHERE x = {}", i % 7, i));
                ys.push(0);
            } else {
                xs.push(format!("DROP TABLE t{}", i % 5));
                ys.push(1);
            }
        }
        (xs, ys)
    }

    #[test]
    fn cnn_classifier_learns_toy_task() {
        let (xs, ys) = toy_classification();
        let cfg = TrainConfig {
            epochs: 6,
            ..TrainConfig::tiny()
        };
        let m = NeuralModel::train(
            ArchKind::Cnn,
            Granularity::Word,
            Task::Classify(2),
            &TrainData {
                statements: &xs[..100],
                labels: Labels::Classes(&ys[..100]),
                valid_statements: &xs[100..],
                valid_labels: Labels::Classes(&ys[100..]),
            },
            &cfg,
        );
        assert_eq!(m.name(), "wcnn");
        let acc = xs[100..]
            .iter()
            .zip(&ys[100..])
            .filter(|(s, &y)| m.predict_class(s) == y)
            .count() as f64
            / 20.0;
        assert!(acc > 0.9, "wcnn should solve the toy task, acc={acc}");
    }

    #[test]
    fn lstm_classifier_learns_toy_task() {
        let (xs, ys) = toy_classification();
        let cfg = TrainConfig {
            epochs: 6,
            ..TrainConfig::tiny()
        };
        let m = NeuralModel::train(
            ArchKind::Lstm,
            Granularity::Char,
            Task::Classify(2),
            &TrainData {
                statements: &xs[..100],
                labels: Labels::Classes(&ys[..100]),
                valid_statements: &xs[100..],
                valid_labels: Labels::Classes(&ys[100..]),
            },
            &cfg,
        );
        assert_eq!(m.name(), "clstm");
        let acc = xs[100..]
            .iter()
            .zip(&ys[100..])
            .filter(|(s, &y)| m.predict_class(s) == y)
            .count() as f64
            / 20.0;
        assert!(acc > 0.8, "clstm should solve the toy task, acc={acc}");
    }

    #[test]
    fn cnn_regressor_tracks_signal() {
        // Label = number of 'x' tokens, a purely textual signal.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..120usize {
            let n = i % 6;
            xs.push(format!("SELECT {} FROM t", vec!["x"; n + 1].join(", ")));
            ys.push(n as f64);
        }
        let cfg = TrainConfig {
            epochs: 12,
            ..TrainConfig::tiny()
        };
        let m = NeuralModel::train(
            ArchKind::Cnn,
            Granularity::Word,
            Task::Regress,
            &TrainData {
                statements: &xs[..100],
                labels: Labels::Values(&ys[..100]),
                valid_statements: &xs[100..],
                valid_labels: Labels::Values(&ys[100..]),
            },
            &cfg,
        );
        // Predictions should at least order extremes correctly.
        let low = m.predict_value("SELECT x FROM t");
        let high = m.predict_value("SELECT x, x, x, x, x, x FROM t");
        assert!(
            high > low,
            "regressor should track token count: {low} vs {high}"
        );
    }

    #[test]
    fn probabilities_are_normalized() {
        let (xs, ys) = toy_classification();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        let m = NeuralModel::train(
            ArchKind::Cnn,
            Granularity::Char,
            Task::Classify(2),
            &TrainData {
                statements: &xs[..40],
                labels: Labels::Classes(&ys[..40]),
                valid_statements: &xs[40..60],
                valid_labels: Labels::Classes(&ys[40..60]),
            },
            &cfg,
        );
        let p = m.predict_proba("SELECT 1");
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn handles_arbitrary_prediction_input() {
        let (xs, ys) = toy_classification();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        let m = NeuralModel::train(
            ArchKind::Cnn,
            Granularity::Word,
            Task::Classify(2),
            &TrainData {
                statements: &xs[..40],
                labels: Labels::Classes(&ys[..40]),
                valid_statements: &xs[40..60],
                valid_labels: Labels::Classes(&ys[40..60]),
            },
            &cfg,
        );
        // Unknown tokens, empty strings, unicode — all must predict.
        let _ = m.predict_class("");
        let _ = m.predict_class("¿donde están las galaxias?");
        let _ = m.predict_class(&"z".repeat(10_000));
    }
}

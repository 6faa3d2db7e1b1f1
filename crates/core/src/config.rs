//! Model and training configuration.
//!
//! Defaults are scaled for a single-core laptop run of the full experiment
//! harness (the paper trained on GPUs with embedding 100 / hidden 150–300;
//! we default to embedding 24 / hidden 32, so every number the harness
//! reports comes from models much smaller than the paper's).

use serde::{Deserialize, Serialize};

/// Token granularity: the paper's `c*` vs `w*` model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    Char,
    Word,
}

impl Granularity {
    pub fn prefix(self) -> &'static str {
        match self {
            Granularity::Char => "c",
            Granularity::Word => "w",
        }
    }
}

/// Hyper-parameters shared by the neural and traditional models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    // Sequence handling.
    pub max_len_char: usize,
    pub max_len_word: usize,
    // Neural architecture.
    pub embed_dim: usize,
    pub hidden: usize,
    pub lstm_depth: usize,
    pub kernels_per_width: usize,
    pub dropout: f32,
    // Optimization (paper §6.1: lr 1e-3, batch 16, clip 0.25).
    pub lr: f32,
    pub batch: usize,
    pub epochs: usize,
    pub clip: f32,
    pub huber_delta: f32,
    /// Early stopping patience in epochs (0 disables).
    pub patience: usize,
    // Vocabularies.
    pub vocab_cap_char: usize,
    pub vocab_cap_word: usize,
    pub tfidf_features: usize,
    pub tfidf_max_ngram: usize,
    // Infrastructure.
    pub seed: u64,
    /// Worker threads for data-parallel training stages. `0` (the
    /// default) inherits the global setting (`SQLAN_THREADS` env var or
    /// available parallelism); any other value pins the count. Results
    /// are bit-identical either way — this knob only trades wall-clock.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_len_char: 160,
            max_len_word: 48,
            embed_dim: 24,
            hidden: 32,
            lstm_depth: 3,
            kernels_per_width: 32,
            dropout: 0.5,
            lr: 1e-3,
            batch: 16,
            epochs: 3,
            clip: 0.25,
            huber_delta: 1.0,
            patience: 2,
            vocab_cap_char: 512,
            vocab_cap_word: 8_000,
            tfidf_features: 20_000,
            tfidf_max_ngram: 5,
            seed: 20,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// A tiny configuration for unit tests (seconds, not minutes).
    pub fn tiny() -> TrainConfig {
        TrainConfig {
            max_len_char: 60,
            max_len_word: 24,
            embed_dim: 8,
            hidden: 12,
            lstm_depth: 2,
            kernels_per_width: 8,
            epochs: 2,
            vocab_cap_word: 1_000,
            tfidf_features: 2_000,
            tfidf_max_ngram: 3,
            ..TrainConfig::default()
        }
    }

    /// The worker pool this configuration selects: pinned when `threads`
    /// is nonzero, otherwise the global `SQLAN_THREADS` default. A pinned
    /// count is clamped to any already-installed scoped budget (we may be
    /// running inside a pool worker that carries a share of its parent's
    /// threads), so nesting never multiplies past the outer knob.
    pub fn pool(&self) -> sqlan_par::Pool {
        match (self.threads, sqlan_par::thread_override()) {
            (0, _) => sqlan_par::Pool::current(),
            (n, Some(budget)) => sqlan_par::Pool::new(n.min(budget)),
            (n, None) => sqlan_par::Pool::new(n),
        }
    }

    pub fn max_len(&self, g: Granularity) -> usize {
        match g {
            Granularity::Char => self.max_len_char,
            Granularity::Word => self.max_len_word,
        }
    }

    pub fn vocab_cap(&self, g: Granularity) -> usize {
        match g {
            Granularity::Char => self.vocab_cap_char,
            Granularity::Word => self.vocab_cap_word,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TrainConfig::default();
        assert!(c.max_len_char > c.max_len_word);
        assert!(c.dropout > 0.0 && c.dropout < 1.0);
        assert_eq!(c.lstm_depth, 3); // the paper's three-layer LSTM
    }

    #[test]
    fn pinned_pool_clamps_to_installed_budget() {
        let cfg = TrainConfig {
            threads: 4,
            ..TrainConfig::default()
        };
        // Inside a scoped budget of 2 (e.g. a pool worker), a pin of 4
        // must clamp so nesting cannot multiply threads.
        let clamped = sqlan_par::with_threads(2, || cfg.pool().threads());
        assert_eq!(clamped, 2);
        // A tighter pin than the budget stays tighter.
        let tighter = sqlan_par::with_threads(8, || cfg.pool().threads());
        assert_eq!(tighter, 4);
    }

    #[test]
    fn granularity_accessors() {
        let c = TrainConfig::default();
        assert_eq!(c.max_len(Granularity::Char), c.max_len_char);
        assert_eq!(c.vocab_cap(Granularity::Word), c.vocab_cap_word);
        assert_eq!(Granularity::Char.prefix(), "c");
    }
}

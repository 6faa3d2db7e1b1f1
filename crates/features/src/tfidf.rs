//! Bag-of-ngrams + TF-IDF features (§5.1).
//!
//! "For the Bag-of-ngrams, we select the most frequent n-grams (up to
//! 5-grams) from the training set. … the weight of token tᵢ is computed
//! using TFIDF(tᵢ,Q,𝒬) = TF(tᵢ,Q) × IDF(tᵢ,𝒬)", with TF the normalized
//! in-query frequency and IDF = log(|𝒬| / (1 + |{Q : tᵢ ∈ Q}|)).
//!
//! Hot-path notes: [`TfidfVectorizer::transform`] runs once per labeled
//! statement and once per served prediction, so it avoids both SipHash
//! (the vocabulary and count maps use the [`fxhash`] multiply-rotate
//! hasher) and per-n-gram `String` allocation (n-gram keys are rendered
//! into one reusable scratch buffer and probed by `&str`). The count map
//! and key buffer live in a thread-local scratch reused across calls, so
//! a transform allocates only its output vector.

use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A sparse feature vector: sorted (feature id, weight) pairs.
pub type SparseVec = Vec<(u32, f32)>;

/// Separator between tokens of one rendered n-gram key.
const SEP: char = '\u{1f}';

/// Generate all n-grams of `tokens` for n in `1..=max_n`, rendered as
/// separator-joined strings. (Allocating; the vectorizer hot paths
/// render keys into a scratch buffer instead — keep this for callers
/// that want the materialized list.)
pub fn ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
    let mut out = Vec::new();
    for_each_ngram(tokens, max_n, |key| out.push(key.to_string()));
    out
}

/// Visit every n-gram of `tokens` for n in `1..=max_n`, rendered into a
/// reused buffer — the borrowed-key scheme behind [`ngrams`] without its
/// per-n-gram allocation.
fn for_each_ngram(tokens: &[String], max_n: usize, mut visit: impl FnMut(&str)) {
    let mut key = String::new();
    for n in 1..=max_n {
        if tokens.len() < n {
            break;
        }
        for w in tokens.windows(n) {
            key.clear();
            for (i, t) in w.iter().enumerate() {
                if i > 0 {
                    key.push(SEP);
                }
                key.push_str(t);
            }
            visit(&key);
        }
    }
}

/// A fitted bag-of-ngrams TF-IDF vectorizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfidfVectorizer {
    pub max_n: usize,
    /// n-gram → feature id (Fx-hashed: internal keys, no DoS surface).
    vocab: FxHashMap<String, u32>,
    /// Per-feature inverse document frequency.
    idf: Vec<f32>,
}

/// Documents per accumulation chunk during [`TfidfVectorizer::fit`].
/// Boundaries depend only on this constant (never the worker count), so
/// the chunked document-frequency reduce merges in a fixed order.
const FIT_CHUNK_DOCS: usize = 64;

thread_local! {
    /// Reused across [`TfidfVectorizer::transform`] calls: the feature
    /// count map (cleared, capacity kept). One per thread — transforms
    /// fan out over the pool, and each worker gets its own scratch.
    static COUNT_SCRATCH: RefCell<FxHashMap<u32, f32>> = RefCell::new(FxHashMap::default());
    /// Structure-of-arrays scratch for the weighting tail: sorted ids,
    /// their counts, and the computed weights, as parallel columns the
    /// tiered `tfidf_weights` kernel can stream.
    static SOA_SCRATCH: RefCell<(Vec<u32>, Vec<f32>, Vec<f32>)> = RefCell::new(Default::default());
}

impl TfidfVectorizer {
    /// Fit on training token streams: select the `max_features` most
    /// frequent n-grams and compute their IDF.
    ///
    /// Document/collection-frequency accumulation fans out over the
    /// [`sqlan_par`] pool in fixed-size chunks; per-chunk maps merge in
    /// chunk order. Counts are integers and the ranking tiebreak is total
    /// (count desc, then n-gram asc), so the fitted vectorizer is
    /// identical to the sequential path at any thread count.
    pub fn fit(streams: &[Vec<String>], max_n: usize, max_features: usize) -> TfidfVectorizer {
        // Collection frequency and document frequency per n-gram.
        type Counts = FxHashMap<String, (usize, usize)>;
        let per_chunk: Vec<Counts> = sqlan_par::par_chunks(streams, FIT_CHUNK_DOCS, |chunk| {
            let mut counts: Counts = FxHashMap::default();
            // Per-stream occurrence counts, merged so each distinct
            // n-gram bumps the chunk's df exactly once per stream.
            let mut local: FxHashMap<String, usize> = FxHashMap::default();
            for stream in chunk {
                local.clear();
                for_each_ngram(stream, max_n, |key| match local.get_mut(key) {
                    Some(c) => *c += 1,
                    None => {
                        local.insert(key.to_string(), 1);
                    }
                });
                for (g, n) in local.drain() {
                    let slot = counts.entry(g).or_insert((0, 0));
                    slot.0 += n;
                    slot.1 += 1;
                }
            }
            counts
        });
        let mut merged: Counts = FxHashMap::default();
        for chunk in per_chunk {
            for (g, (cf, df)) in chunk {
                let slot = merged.entry(g).or_insert((0, 0));
                slot.0 += cf;
                slot.1 += df;
            }
        }
        let mut ranked: Vec<(String, (usize, usize))> = merged.into_iter().collect();
        ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        ranked.truncate(max_features);

        let n_docs = streams.len().max(1) as f32;
        let mut vocab = FxHashMap::default();
        vocab.reserve(ranked.len());
        let mut idf = Vec::with_capacity(ranked.len());
        for (i, (gram, (_, df))) in ranked.into_iter().enumerate() {
            idf.push((n_docs / (1.0 + df as f32)).ln().max(0.0));
            vocab.insert(gram, i as u32);
        }
        TfidfVectorizer { max_n, vocab, idf }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.idf.len()
    }

    /// Transform one token stream into a sparse TF-IDF vector.
    ///
    /// TF is the count of the n-gram divided by the total number of
    /// n-grams in the query ("the normalization prevents bias towards
    /// longer queries").
    pub fn transform(&self, tokens: &[String]) -> SparseVec {
        COUNT_SCRATCH.with(|scratch| {
            let counts = &mut *scratch.borrow_mut();
            counts.clear();
            let mut total = 0usize;
            for_each_ngram(tokens, self.max_n, |key| {
                total += 1;
                if let Some(&id) = self.vocab.get(key) {
                    *counts.entry(id).or_default() += 1.0;
                }
            });
            if total == 0 {
                return Vec::new();
            }
            let total = total as f32;
            // Flatten the count map into id-sorted parallel columns and
            // let the tiered kernel do the per-feature `(c/total)·idf`
            // (same association as the old per-pair expression, so the
            // weights are bit-identical on every tier).
            SOA_SCRATCH.with(|soa| {
                let (ids, cnts, wts) = &mut *soa.borrow_mut();
                ids.clear();
                ids.extend(counts.keys().copied());
                ids.sort_unstable();
                cnts.clear();
                cnts.extend(ids.iter().map(|id| counts[id]));
                wts.clear();
                wts.resize(ids.len(), 0.0);
                sqlan_simd::tfidf_weights(ids, cnts, &self.idf, total, wts);
                ids.iter().copied().zip(wts.iter().copied()).collect()
            })
        })
    }

    /// Transform many token streams at once, in parallel, preserving
    /// input order. Equivalent to mapping [`TfidfVectorizer::transform`]
    /// sequentially (each transform is a pure per-document function).
    ///
    /// When observability is on, the batch records a `featurize` span on
    /// any trace installed on the calling thread (the `par_map` workers
    /// do not inherit the install stack, so timing wraps the whole batch
    /// here) and its wall time lands in the global
    /// `sqlan_featurize_seconds` histogram.  The transform itself is
    /// identical either way.
    pub fn transform_batch(&self, streams: &[Vec<String>]) -> Vec<SparseVec> {
        if !sqlan_obs::enabled() {
            return sqlan_par::par_map(streams, |s| self.transform(s));
        }
        let start = std::time::Instant::now();
        let out = sqlan_obs::trace::timed("featurize", streams.len() as u64, || {
            sqlan_par::par_map(streams, |s| self.transform(s))
        });
        featurize_hist().record(start.elapsed().as_nanos() as u64);
        out
    }
}

/// Global wall-time histogram for whole featurize batches, seconds.
fn featurize_hist() -> &'static std::sync::Arc<sqlan_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<sqlan_obs::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| {
        sqlan_obs::global().histogram(
            "sqlan_featurize_seconds",
            "Wall time per TF-IDF featurize batch",
            1e-9,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn ngrams_up_to_three() {
        let t = toks(&["a", "b", "c"]);
        let g = ngrams(&t, 3);
        assert_eq!(g.len(), 3 + 2 + 1);
        assert!(g.contains(&"a\u{1f}b".to_string()));
        assert!(g.contains(&"a\u{1f}b\u{1f}c".to_string()));
    }

    #[test]
    fn ngrams_short_input() {
        let t = toks(&["a"]);
        assert_eq!(ngrams(&t, 5), vec!["a".to_string()]);
        assert!(ngrams(&[], 5).is_empty());
    }

    #[test]
    fn fit_transform_roundtrip() {
        let corpus = vec![
            toks(&["select", "x", "from", "t"]),
            toks(&["select", "y", "from", "u"]),
            toks(&["drop", "table", "t"]),
        ];
        let v = TfidfVectorizer::fit(&corpus, 2, 100);
        assert!(v.dim() > 0);
        let f = v.transform(&corpus[0]);
        assert!(!f.is_empty());
        // Sorted by feature id.
        for w in f.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn common_tokens_have_lower_idf_weight() {
        // "select" appears in every doc; "drop" in one.
        let corpus = vec![
            toks(&["select", "a"]),
            toks(&["select", "b"]),
            toks(&["select", "c"]),
            toks(&["drop", "d"]),
        ];
        let v = TfidfVectorizer::fit(&corpus, 1, 100);
        let common = v.transform(&toks(&["select"]));
        let rare = v.transform(&toks(&["drop"]));
        let wc = common.first().map(|x| x.1).unwrap_or(0.0);
        let wr = rare.first().map(|x| x.1).unwrap_or(0.0);
        assert!(
            wr > wc,
            "rare n-gram should out-weigh common one: rare={wr}, common={wc}"
        );
    }

    #[test]
    fn unknown_ngrams_are_dropped() {
        let corpus = vec![toks(&["a", "b"])];
        let v = TfidfVectorizer::fit(&corpus, 1, 10);
        let f = v.transform(&toks(&["zzz"]));
        assert!(f.is_empty());
    }

    #[test]
    fn max_features_caps_dimensionality() {
        let corpus: Vec<Vec<String>> = (0..50).map(|i| toks(&["t", &format!("x{i}")])).collect();
        let v = TfidfVectorizer::fit(&corpus, 1, 5);
        assert_eq!(v.dim(), 5);
    }

    #[test]
    fn fit_and_transform_batch_are_thread_count_invariant() {
        // More docs than FIT_CHUNK_DOCS so the chunked reduce really runs.
        let corpus: Vec<Vec<String>> = (0..150)
            .map(|i| {
                toks(&[
                    "select",
                    &format!("c{}", i % 17),
                    "from",
                    &format!("t{}", i % 5),
                ])
            })
            .collect();
        let fit_all = |threads: usize| {
            sqlan_par::with_threads(threads, || {
                let v = TfidfVectorizer::fit(&corpus, 3, 200);
                (v.dim(), v.idf.clone(), v.transform_batch(&corpus))
            })
        };
        let (dim1, idf1, mat1) = fit_all(1);
        for t in [3, 8] {
            let (dim, idf, mat) = fit_all(t);
            assert_eq!(dim, dim1, "threads={t}");
            assert_eq!(
                idf.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                idf1.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "threads={t}"
            );
            assert_eq!(mat, mat1, "threads={t}");
        }
    }

    #[test]
    fn borrowed_key_transform_matches_materialized_ngrams() {
        // The scratch-buffer n-gram walk must visit exactly the n-grams
        // `ngrams` materializes, in the same multiset.
        let corpus = vec![
            toks(&["select", "x", "from", "t", "where", "x"]),
            toks(&["select", "x", "x", "x"]),
        ];
        let v = TfidfVectorizer::fit(&corpus, 3, 100);
        for stream in &corpus {
            let grams = ngrams(stream, v.max_n);
            let mut visited = Vec::new();
            for_each_ngram(stream, v.max_n, |k| visited.push(k.to_string()));
            assert_eq!(grams, visited);
            // And the transform agrees with a from-scratch recount.
            let total = grams.len() as f32;
            let mut expect: Vec<(u32, f32)> = {
                let mut m: std::collections::BTreeMap<u32, f32> = Default::default();
                for g in &grams {
                    if let Some(&id) = v.vocab.get(g.as_str()) {
                        *m.entry(id).or_default() += 1.0;
                    }
                }
                m.into_iter().collect()
            };
            for e in &mut expect {
                e.1 = (e.1 / total) * v.idf[e.0 as usize];
            }
            assert_eq!(v.transform(stream), expect);
        }
    }

    #[test]
    fn tf_normalization_prevents_length_bias() {
        let corpus = vec![toks(&["a", "b"]), toks(&["c"])];
        let v = TfidfVectorizer::fit(&corpus, 1, 10);
        let short = v.transform(&toks(&["a"]));
        let long = v.transform(&toks(&["a", "a", "a", "a"]));
        // Same relative frequency (1.0) → same weight.
        assert!((short[0].1 - long[0].1).abs() < 1e-6);
    }
}

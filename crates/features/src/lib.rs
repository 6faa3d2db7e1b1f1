//! # sqlan-features
//!
//! Text featurization for the `sqlan` reproduction of *"Facilitating SQL
//! Query Composition and Analysis"* (SIGMOD 2020): character- and
//! word-level tokenization (digits → `<DIGIT>`, Definition 1 / §4.4.1),
//! frequency-capped vocabularies for the neural models, and bag-of-ngrams
//! TF-IDF vectors (up to 5-grams) for the traditional models (§5.1).

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use tfidf::{SparseVec, TfidfVectorizer};
pub use tokenize::{char_tokens, word_tokens};
pub use vocab::{Vocab, FIRST_TOKEN_ID, PAD, UNK};

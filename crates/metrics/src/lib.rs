//! # sqlan-metrics
//!
//! Evaluation metrics for the `sqlan` reproduction of *"Facilitating SQL
//! Query Composition and Analysis"* (SIGMOD 2020): accuracy, per-class
//! precision/recall/F-measure (§6.1), MSE and mean Huber loss over
//! log-transformed regression labels, mean cross-entropy, the qerror
//! percentile tables of §6.2 (Tables 3, 6, 7), and the service-latency
//! summary shape of the online prediction layer.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod classification;
pub mod latency;
pub mod qerror;
pub mod regression;

pub use classification::{
    accuracy, mean_cross_entropy, per_class_f_measure, ClassReport, ConfusionMatrix,
};
pub use latency::LatencySummary;
pub use qerror::{
    qerror, qerror_percentiles, qerror_percentiles_with_shift, qerror_with_shift, QErrorTable,
};
pub use regression::{huber_loss, mean_huber_loss, mse, squared_error};

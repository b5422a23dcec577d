//! The Aurora simulator's benchmark: three workloads in the paper's
//! k = 32 regime, each checked against committed fingerprints, with a
//! separate traced run that splits host time by layer.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod batch;
pub mod check;
pub mod outcome;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod trace;

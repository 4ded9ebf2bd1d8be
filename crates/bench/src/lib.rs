//! Benchmark harness for the oneshot reproduction.
//!
//! One module per concern:
//!
//! * [`workloads`] — the benchmark programs (tak/ctak, fib, boyer, deep
//!   recursion);
//! * [`measure`] — wall-clock + counter-delta measurement;
//! * [`experiments`] — one function per table/figure of the paper
//!   (E1–E8 in DESIGN.md);
//! * [`metrics`] — dependency-free JSON export of the experiment results
//!   (the `experiments.json` the binary writes) and the row declarations
//!   that drive both it and the printed tables;
//! * [`rng`] — a deterministic xorshift64* PRNG (no external deps).
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run --release -p oneshot-bench --bin experiments -- all
//! cargo run --release -p oneshot-bench --bin experiments -- figure5 --paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod metrics;
pub mod rng;
pub mod workloads;

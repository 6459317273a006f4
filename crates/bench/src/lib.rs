//! # aodb-bench — benchmark harness for the EDBT 2019 reproduction
//!
//! Reimplements the paper's .NET benchmarking tool (Section 6.1) and the
//! four evaluation figures, plus ablation experiments over the modeling
//! principles:
//!
//! * [`workload`] — simulated sensor fleet: open-loop request generation
//!   at 1 request/s/sensor × 10 points/channel, with the 98/1/1 mixed
//!   workload of Figures 8–9.
//! * [`measure`] — windowed throughput with the paper's drop-first/last
//!   method, latency percentile tables.
//! * [`experiments`] — Figure 6 (single-server saturation), Figure 7
//!   (scale-out), Figures 8/9 (query latency percentiles), and the
//!   placement / granularity / constraint ablations.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p aodb-bench --release --bin repro -- all
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod measure;
pub mod workload;

//! End-to-end and per-layer benchmark of MATE top-k join discovery and
//! acknowledged ingest over an `EngineLake`. See `BENCHMARK.json` at the
//! repository root for the workloads and metrics, and `main.rs` for the
//! command line.

pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

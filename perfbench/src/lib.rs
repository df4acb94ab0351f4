//! The PM-Blade benchmark: four closed-loop workloads over the engine,
//! the TCP server and the client, with every answer checked against an
//! in-process oracle and every metric labelled with its unit and clock.
//!
//! See `README.md` in this directory for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod engine;
pub mod keys;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;

pub use run::{run, Config, Outcome, Workload};

//! The repo's benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one. README.md explains
//! what each number means and which layer should move which.

pub mod drivers;
pub mod probes;
pub mod report;
pub mod rng;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod traced_engine;
pub mod verify;
pub mod workloads;

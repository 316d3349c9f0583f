//! End-to-end and per-layer benchmark of the shipped PhishingHook
//! daemons. `run.py` builds the release daemons and this crate, then runs
//! the `perfbench` binary; see `METRICS.md` for the workloads, the
//! metrics, and which layer metric should move which end-to-end metric.

pub mod client;
pub mod daemon;
pub mod drift;
pub mod gen;
pub mod layers;
pub mod load;
pub mod parity;
pub mod spans;
pub mod stats;
pub mod workloads;

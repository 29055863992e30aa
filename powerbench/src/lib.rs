//! # fluxpm-powerbench — one seeded benchmark for the power stack
//!
//! Four workloads drive the stack through its public API:
//!
//! * `fpp_cluster` — a Lassen queue of the paper's five apps under
//!   FPP and a global bound below the OPAL baselines;
//! * `storm_congested` — the congested chaos storm over several seeds;
//! * `telemetry_fanout` — thousands of relay subscribers polling a
//!   push-telemetry world;
//! * `fleet_sharded` — the full-fidelity fleet on two shards.
//!
//! Each run measures for a fixed host-time budget, checks the
//! workload's outputs (a failed check is an `Err`, and the binary exits
//! non-zero without printing a result), and reports host-time metrics as
//! medians over iterations. Simulated-time metrics and counts are exact:
//! they repeat bit-for-bit for a seed. A traced run additionally records
//! spans around the benchmark's own calls into each layer and times
//! each layer's public function on inputs captured from the run.

mod calib;
mod inputs;
mod observe;
mod query;
mod replay;
pub mod report;
mod stats;
mod trace;
mod workloads;

pub use report::{Metric, Outcome};
pub use trace::{Span, Tracer};
pub use workloads::{run_workload, Size, WORKLOADS};

//! Diagnostic: decompose full-fidelity shard-scaling wall time into
//! compute vs window coordination. Not part of the committed baseline —
//! run it when the `sim_world_sharded` curve looks off:
//!
//! ```sh
//! cargo run --release -p fluxpm-bench --bin shard_probe
//! cargo run --release -p fluxpm-bench --bin shard_probe -- --fleet 100000
//! ```
//!
//! The default mode sweeps the real monitor + manager stack (the
//! 128-rank congested storm) across shard counts 1/2/4/8 and splits
//! each point three ways:
//!
//! * **compute** — wall time the shards spent executing events inside
//!   their windows (summed across shards);
//! * **coordination** — everything else: window barriers, boundary
//!   encode/decode, thread wake-ups (`wall − max(shard busy)` on a
//!   parallel host; on a serialized host `wall − Σ busy`);
//! * **root-shard serialization** — shard 0's share of total compute.
//!   Shard 0 owns the root services (cluster/job managers, monitor
//!   root, StateLog), so its busy share is the Amdahl floor on how far
//!   the full-fidelity world can scale.
//!
//! `--fleet [ranks]` instead times one fleet-preset run (default 100k
//! ranks) on 8 shards.

use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use std::time::Instant;

fn full_fidelity_sweep() {
    println!("full-fidelity 128-rank congested storm (real monitor + manager stack)");
    let mut reference = None;
    for &shards in &[1usize, 2, 4, 8] {
        let cfg = FullShardConfig::congested(128, shards, 42);
        full_shard_run(&cfg); // warm-up
        let t = Instant::now();
        let (_, out) = full_shard_run(&cfg);
        let wall = t.elapsed().as_secs_f64();
        let hash = out.trace_hash;
        match reference {
            None => reference = Some(hash),
            Some(h) => assert_eq!(h, hash, "shard count changed the run"),
        }
        let busy_sum: f64 = out.stats.shard_busy.iter().map(|d| d.as_secs_f64()).sum();
        let busy_max = out
            .stats
            .shard_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        let busy_root = out.stats.shard_busy[0].as_secs_f64();
        let coord = (wall - busy_max).max(0.0);
        println!(
            "shards={shards} wall={:8.2}ms compute={:8.2}ms coord={:8.2}ms \
             root-share={:4.1}% windows={:5} boundary={:6} events={:8}",
            wall * 1e3,
            busy_sum * 1e3,
            coord * 1e3,
            100.0 * busy_root / busy_sum.max(1e-12),
            out.stats.coordinator.windows,
            out.stats.coordinator.boundary_msgs,
            out.stats.coordinator.events,
        );
    }
}

fn fleet_probe(ranks: u32) {
    let cfg = FullShardConfig::fleet(ranks, 8, 42);
    let t = Instant::now();
    let (_, out) = full_shard_run(&cfg);
    let wall = t.elapsed().as_secs_f64();
    println!(
        "fleet ranks={ranks} shards=8 wall={:8.2}ms records={} windows={} \
         boundary={} events={}",
        wall * 1e3,
        out.records,
        out.stats.coordinator.windows,
        out.stats.coordinator.boundary_msgs,
        out.stats.coordinator.events,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--fleet") {
        let ranks = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(100_000);
        fleet_probe(ranks);
    } else {
        full_fidelity_sweep();
    }
}

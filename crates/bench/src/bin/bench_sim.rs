//! Regenerate `BENCH_sim.json`, the committed simulator-performance
//! baseline.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release -p fluxpm-bench --bin bench_sim > BENCH_sim.json
//! ```
//!
//! Measures, on this machine:
//!
//! * engine ops/sec for the mixed churn workload on the optimized slab
//!   engine and the in-tree reference engine (same seeded program), and
//!   the live speedup between them;
//! * the sliced-drain driver pattern (poll `next_event_time`, then
//!   step), where the slab engine's O(1) lookup replaces the reference
//!   engine's O(pending) scan;
//! * per-hop overlay delivery cost from root → leaf echo round trips;
//! * wall time of the 128-rank chaos storms (standard and long
//!   horizon), against the recorded pre-optimization stack numbers;
//! * the full-fidelity shard-scaling curve: the real monitor + manager
//!   stack (production node agents, proportional power manager, RPC
//!   retries, deterministic congestion) sharded across 1/2/4/8 worker
//!   threads, record-hash-checked at every point, plus a 100k-rank
//!   fleet soak of the same full stack.
//!
//! The `pre_pr` block is a *recorded* measurement of the full pre-PR
//! stack (map-based engine, `String` topics, eager per-sample JSON via
//! the standard formatter) taken on the same class of machine before
//! the optimization landed; the engine speedups above it are measured
//! live on every run. Absolute numbers vary by machine — the committed
//! file is a trajectory anchor, not a portable constant.

use fluxpm_bench::workload::{
    churn_baseline, churn_new, sliced_drain_baseline, sliced_drain_new, DeliveryRig,
};
use fluxpm_experiments::chaos::{storm, StormConfig};
use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall time of `f()` in seconds, best of `reps` runs (best-of defeats
/// scheduler noise better than the mean for short single-thread work).
fn best_of<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // Warm-up: fault in code and allocator arenas at full scale — the
    // first storm on a cold process can run 40% slower than steady
    // state, enough to trip the speedup gate spuriously.
    churn_new(2_000, 42);
    churn_baseline(2_000, 42);
    storm(&StormConfig::new(128, 11));
    storm(&StormConfig::new(128, 11));

    // Engine churn: ops/sec on both engines, same program.
    const CHURN_N: usize = 20_000;
    let executed = churn_new(CHURN_N, 42);
    assert_eq!(
        executed,
        churn_baseline(CHURN_N, 42),
        "engines must execute identical programs"
    );
    let new_s = best_of(7, || churn_new(CHURN_N, 42));
    let base_s = best_of(7, || churn_baseline(CHURN_N, 42));
    let new_ops = executed as f64 / new_s;
    let base_ops = executed as f64 / base_s;

    // Sliced drain: the experiment-driver pattern of polling
    // `next_event_time` before every step — O(1) on the slab engine,
    // an O(pending) scan on the reference engine.
    const DRAIN_N: usize = 5_000;
    const DRAIN_SLICES: u64 = 50;
    let drained = sliced_drain_new(DRAIN_N, DRAIN_SLICES, 42);
    assert_eq!(
        drained,
        sliced_drain_baseline(DRAIN_N, DRAIN_SLICES, 42),
        "engines must drain identical programs"
    );
    let drain_new_s = best_of(7, || sliced_drain_new(DRAIN_N, DRAIN_SLICES, 42));
    let drain_base_s = best_of(3, || sliced_drain_baseline(DRAIN_N, DRAIN_SLICES, 42));

    // Delivery: echo round trip root -> deepest rank; per-hop cost is
    // the round trip divided by hops out + hops back.
    let mut rig = DeliveryRig::new(128);
    let hops = rig.hops();
    rig.roundtrip();
    let trips = 2_000u32;
    let rt_s = best_of(5, || {
        for _ in 0..trips {
            rig.roundtrip();
        }
    });
    let rt_ns = rt_s * 1e9 / trips as f64;
    let per_hop_ns = rt_ns / (2.0 * hops as f64);

    // 128-rank chaos storms. `pre_pr` values were measured on the
    // pre-optimization stack at the commit this PR branched from.
    let std_cfg = StormConfig::new(128, 7);
    let long_cfg = StormConfig::long(128, 21);
    let std_out = storm(&std_cfg);
    let std_s = best_of(5, || storm(&std_cfg));
    let long_s = best_of(3, || storm(&long_cfg));
    const PRE_PR_STD_S: f64 = 0.042;
    const PRE_PR_LONG_S: f64 = 0.198;

    // Full-fidelity shard scaling: the real monitor + manager stack,
    // replicated control plane, deterministic congestion — across
    // 1/2/4/8 worker shards, record-hash-checked at every point.
    // Parallel speedup needs parallel hardware: on hosts with fewer
    // than 4 cores the curve degenerates to serialized replica
    // overhead, so that is what gets gated there (see the asserts at
    // the end).
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shard_counts = [1usize, 2, 4, 8];
    let mut world_walls = [0.0f64; 4];
    let mut world_root_share = 0.0f64;
    let (_, world_ref) = full_shard_run(&FullShardConfig::congested(128, 1, 42));
    for (i, &shards) in shard_counts.iter().enumerate() {
        let cfg = FullShardConfig::congested(128, shards, 42);
        let (_, out) = full_shard_run(&cfg); // warm-up + invariance check
        assert_eq!(
            out.trace_hash, world_ref.trace_hash,
            "shard count must not change the full-fidelity run"
        );
        if shards == 4 {
            let busy_sum: f64 = out.stats.shard_busy.iter().map(|d| d.as_secs_f64()).sum();
            world_root_share = out.stats.shard_busy[0].as_secs_f64() / busy_sum.max(1e-12);
        }
        world_walls[i] = best_of(3, || full_shard_run(&cfg));
    }
    let world_speedup_4 = world_walls[0] / world_walls[2];

    // Full-fidelity fleet soak: 100k ranks with the real stack at
    // relaxed cadences. One timed run — this is a capacity proof, not
    // a latency microbenchmark.
    let world_fleet_cfg = FullShardConfig::fleet(100_000, 8, 42);
    let world_fleet_t = Instant::now();
    let (_, world_fleet) = full_shard_run(&world_fleet_cfg);
    let world_fleet_s = world_fleet_t.elapsed().as_secs_f64();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"fluxpm-bench-sim/v1\",\n");
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p fluxpm-bench --bin bench_sim > BENCH_sim.json\",\n",
    );
    out.push_str("  \"engine_churn\": {\n");
    let _ = writeln!(out, "    \"events_executed\": {executed},");
    let _ = writeln!(out, "    \"slab_ops_per_sec\": {:.0},", new_ops);
    let _ = writeln!(out, "    \"baseline_ops_per_sec\": {:.0},", base_ops);
    let _ = writeln!(out, "    \"speedup\": {:.2}", new_ops / base_ops);
    out.push_str("  },\n");
    out.push_str("  \"sliced_drain\": {\n");
    let _ = writeln!(out, "    \"events_executed\": {drained},");
    let _ = writeln!(out, "    \"slab_wall_s\": {:.4},", drain_new_s);
    let _ = writeln!(out, "    \"baseline_wall_s\": {:.4},", drain_base_s);
    let _ = writeln!(out, "    \"speedup\": {:.2}", drain_base_s / drain_new_s);
    out.push_str("  },\n");
    out.push_str("  \"delivery\": {\n");
    let _ = writeln!(out, "    \"tree_nodes\": 128,");
    let _ = writeln!(out, "    \"route_hops\": {hops},");
    let _ = writeln!(out, "    \"echo_roundtrip_ns\": {:.0},", rt_ns);
    let _ = writeln!(out, "    \"per_hop_ns\": {:.0}", per_hop_ns);
    out.push_str("  },\n");
    out.push_str("  \"soak_128_rank\": {\n");
    let _ = writeln!(out, "    \"trace_hash\": {},", std_out.trace_hash);
    let _ = writeln!(out, "    \"standard_wall_s\": {:.4},", std_s);
    let _ = writeln!(out, "    \"long_wall_s\": {:.4},", long_s);
    let _ = writeln!(
        out,
        "    \"standard_speedup_vs_pre_pr\": {:.2},",
        PRE_PR_STD_S / std_s
    );
    let _ = writeln!(
        out,
        "    \"long_speedup_vs_pre_pr\": {:.2}",
        PRE_PR_LONG_S / long_s
    );
    out.push_str("  },\n");
    out.push_str("  \"sim_world_sharded\": {\n");
    let _ = writeln!(out, "    \"storm_ranks\": 128,");
    let _ = writeln!(out, "    \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "    \"gate\": \"{}\",",
        if host_cores >= 4 {
            "speedup >= 3x at 4 shards"
        } else {
            "serialized 4-shard replica overhead <= 3x (host has < 4 cores)"
        }
    );
    let _ = writeln!(out, "    \"record_hash\": {},", world_ref.trace_hash);
    let _ = writeln!(out, "    \"records\": {},", world_ref.records);
    for (i, &shards) in shard_counts.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"wall_s_{shards}_shards\": {:.4},",
            world_walls[i]
        );
    }
    for (i, &shards) in shard_counts.iter().enumerate().skip(1) {
        let _ = writeln!(
            out,
            "    \"speedup_{shards}_shards\": {:.2},",
            world_walls[0] / world_walls[i]
        );
    }
    let _ = writeln!(
        out,
        "    \"root_shard_compute_share_4_shards\": {:.2},",
        world_root_share
    );
    out.push_str("    \"fleet\": {\n");
    let _ = writeln!(out, "      \"ranks\": 100000,");
    let _ = writeln!(out, "      \"shards\": 8,");
    let _ = writeln!(out, "      \"records\": {},", world_fleet.records);
    let _ = writeln!(
        out,
        "      \"windows\": {},",
        world_fleet.stats.coordinator.windows
    );
    let _ = writeln!(
        out,
        "      \"boundary_msgs\": {},",
        world_fleet.stats.coordinator.boundary_msgs
    );
    let _ = writeln!(out, "      \"wall_s\": {:.4}", world_fleet_s);
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"pre_pr\": {\n");
    out.push_str(
        "    \"note\": \"full pre-optimization stack (map-based engine, String topics, standard-formatter JSON), same seeds, same machine class, release build\",\n",
    );
    let _ = writeln!(out, "    \"standard_wall_s\": {:.4},", PRE_PR_STD_S);
    let _ = writeln!(out, "    \"long_wall_s\": {:.4}", PRE_PR_LONG_S);
    out.push_str("  }\n");
    out.push_str("}\n");
    print!("{out}");

    // The acceptance gate travels with the generator: regenerating the
    // baseline on a machine where the optimized stack is not at least
    // 2x the recorded pre-PR numbers should fail loudly, not silently
    // commit a regression.
    assert!(
        PRE_PR_STD_S / std_s >= 2.0 && PRE_PR_LONG_S / long_s >= 2.0,
        "128-rank soak speedup fell below 2x (standard {:.2}x, long {:.2}x)",
        PRE_PR_STD_S / std_s,
        PRE_PR_LONG_S / long_s
    );
    // Full-fidelity shard-scaling gate. With parallel hardware,
    // sharding the real stack must pay: at least 3x at 4 shards. A host
    // without 4 cores can only measure the serialized cost of running N
    // replicas through the window protocol — that must stay within 3x
    // of the single-shard run (measured ~2x on a 1-core host:
    // replicated control plane plus window barriers).
    if host_cores >= 4 {
        assert!(
            world_speedup_4 >= 3.0,
            "full-fidelity shard scaling fell below 3x at 4 shards \
             ({world_speedup_4:.2}x; walls {world_walls:?})"
        );
    } else {
        let serialized = world_walls[2] / world_walls[0];
        assert!(
            serialized <= 3.0,
            "serialized full-fidelity 4-shard overhead is {serialized:.2}x on a \
             {host_cores}-core host (walls {world_walls:?}) — the replica \
             model got expensive"
        );
    }
    // The full-stack fleet soak is a capacity gate, not a latency one:
    // 100k ranks with production agents must finish in minutes on any
    // host (measured ~45 s single-core).
    assert!(
        world_fleet_s < 120.0,
        "100k-rank full-fidelity fleet soak took {world_fleet_s:.1}s"
    );
}

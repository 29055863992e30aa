//! Shard-scaling benchmark for the parallel simulation core:
//! `sim_world_sharded/storm_64` — the full-fidelity sharded world (real
//! monitor + manager stack, replicated control plane, deterministic
//! congestion) at shards 1/2/4. The merged canonical record stream is
//! identical at every point.
//!
//! The committed `BENCH_sim.json` scaling curve is produced by the
//! `bench_sim` binary; this target is what CI's bench smoke job runs in
//! `--quick` mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use std::hint::black_box;

fn bench_world_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_world_sharded");
    g.sample_size(10);
    for &shards in &[1usize, 2, 4] {
        let cfg = FullShardConfig::congested(64, shards, 42);
        g.bench_with_input(
            BenchmarkId::new("storm_64", format!("{shards}shards")),
            &cfg,
            |b, cfg| b.iter(|| black_box(full_shard_run(cfg))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_world_scaling);
criterion_main!(benches);

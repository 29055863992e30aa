//! `fleet_sharded`: the full-fidelity fleet on two shards.
//!
//! 8192 ranks: half the 16k-rank fleet, so a run fits about twice as
//! many iterations and the 2-thread median, which is the noisiest on a
//! 2-core host, settles.
//!
//! `full_shard_run(&FullShardConfig::fleet(n, 2, seed))` is the only
//! workload that drives the conservative coordinator, the world shards
//! and the record merge. The merged record stream must hash the same
//! as the 1-shard run of the same config, which is run once per
//! benchmark run, outside the timed loop.

use super::{setup_probe, Fnv, Iteration, Size, Workload};
use crate::inputs;
use crate::observe::record_cap_latencies;
use crate::replay;
use crate::report::Metric;
use crate::stats::tail_q;
use crate::trace::Tracer;
use fluxpm_experiments::full_shard::{full_shard_run, FullShardConfig};
use fluxpm_flux::FaultPlan;
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::SimDuration;
use std::time::Instant;

/// Worker shards: the target of the 2-shard speed-up.
const SHARDS: usize = 2;

/// The workload.
pub struct Fleet {
    nodes: u32,
    seed: u64,
    hash: Option<u64>,
}

impl Fleet {
    /// The workload for `seed`.
    pub fn new(size: Size, seed: u64) -> Fleet {
        let nodes = match size {
            Size::Standard => 8_192,
            Size::Small => 64,
        };
        Fleet {
            nodes,
            seed: inputs::fleet_seed(seed),
            hash: None,
        }
    }
}

impl Workload for Fleet {
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let t_setup = Instant::now();
        let span = tracer.begin("setup");
        let cfg = FullShardConfig::fleet(self.nodes, SHARDS, self.seed);
        // `full_shard_run` builds its replicas inside the call.
        setup_probe(
            cfg.nodes,
            cfg.seed,
            MonitorConfig::default().with_sample_interval(cfg.sample_interval),
            FaultPlan::uniform(0.01, SimDuration::from_micros(20)).deterministic(cfg.seed),
            tracer,
        )?;
        tracer.end(span);
        let setup_s = t_setup.elapsed().as_secs_f64();

        let t_run = Instant::now();
        let (records, out) = tracer.scope("experiments.full_shard_run", || full_shard_run(&cfg));
        let step_s = t_run.elapsed().as_secs_f64();
        self.hash = Some(out.trace_hash);

        let (caps, unmatched) = record_cap_latencies(&records);
        let jobs_failed = records
            .iter()
            .filter(|r| r.code == fluxpm_flux::shard::rec::JOB_EVENT && r.b == 3)
            .count() as u64;
        let attempted = caps.len() + unmatched;
        let q = tail_q(caps.len() as usize);
        let exact = vec![
            Metric::new(
                "cap_latency_us_p50",
                caps.quantile(0.5) as f64,
                "us",
                caps.len(),
            ),
            Metric::new(
                "cap_latency_us_p99",
                caps.quantile(q) as f64,
                "us",
                caps.len(),
            ),
            Metric::new(
                "failed_frac",
                unmatched as f64 / attempted.max(1) as f64,
                "ratio",
                attempted,
            ),
        ];
        let mut digest = Fnv::default();
        digest.add(out.trace_hash);
        digest.add(out.records as u64);
        digest.add_metrics(&exact);

        let s = &out.stats;
        let events: u64 = s.shard_events.iter().sum();
        let busy: Vec<f64> = s.shard_busy.iter().map(|d| d.as_secs_f64()).collect();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        let busy_mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let ev_max = s.shard_events.iter().copied().max().unwrap_or(0) as f64;
        let ev_mean = events as f64 / s.shard_events.len() as f64;
        let shards = s.shard_events.len() as u64;
        let counts = vec![
            Metric::count("sim-core.events", events),
            Metric::count("flux.shard.windows", s.coordinator.windows),
            Metric::count("flux.shard.boundary_msgs", s.coordinator.boundary_msgs),
            Metric::new("flux.shard.busy_s_max", busy_max, "s", shards),
            Metric::new(
                "flux.shard.wait_frac",
                1.0 - busy_mean / step_s,
                "ratio",
                shards,
            ),
            Metric::new(
                "flux.shard.event_imbalance",
                ev_max / ev_mean,
                "ratio",
                shards,
            ),
            Metric::new(
                "flux.shard.root_share",
                s.shard_events[0] as f64 / events as f64,
                "ratio",
                shards,
            ),
            Metric::count("flux.exec.jobs_failed", jobs_failed),
        ];
        Ok(Iteration {
            setup_s,
            step_s,
            sim_node_s: f64::from(self.nodes) * cfg.horizon().as_secs_f64(),
            exact,
            counts,
            attempted,
            failed: unmatched,
            digest: digest.finish(),
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        let reference = full_shard_run(&FullShardConfig::fleet(self.nodes, 1, self.seed)).1;
        match self.hash {
            Some(h) if h == reference.trace_hash => Ok(()),
            h => Err(format!(
                "{SHARDS}-shard record hash {h:x?} differs from the 1-shard run's {:x}",
                reference.trace_hash
            )),
        }
    }

    fn layers(&mut self, last: &Iteration, step_ns: f64) -> Vec<Metric> {
        let per_hop = replay::overlay_per_hop_ns(self.nodes);
        let events = super::count_of(&last.counts, "sim-core.events");
        vec![
            Metric::new("flux.overlay.per_hop_ns", per_hop, "ns", 9),
            Metric::new("sim-core.ns_per_event", step_ns / events.max(1.0), "ns", 1),
        ]
    }
}

//! `storm_congested`: the fault-heavy management plane.
//!
//! `chaos::storm(&StormConfig::congested(n, seed))` over several
//! seeds per iteration: Gilbert–Elliott loss, congestion windows,
//! bounded link queues, RPC retries and timeouts, fail/recover and
//! rebalance, root death with state-log replay, and link-monitor
//! re-parenting, under the proportional manager with no FPP and no
//! subscribers. The storm checks its own invariants and panics on a
//! breach, including a probe job that does not complete. The benchmark
//! counts a breached storm as a failed operation (`failed_frac`) and
//! leaves it out of the throughput figure; every outcome, breach or
//! not, must repeat exactly on the next iteration.

use super::{setup_probe, Fnv, Iteration, Size, Workload};
use crate::inputs;
use crate::replay;
use crate::report::Metric;
use crate::trace::Tracer;
use fluxpm_experiments::chaos::{storm, StormConfig, StormOutcome};
use fluxpm_flux::FaultPlan;
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::SimDuration;
use std::time::Instant;

/// The workload.
pub struct Storm {
    nodes: u32,
    seeds: Vec<u64>,
}

impl Storm {
    /// The workload for `seed`.
    pub fn new(size: Size, seed: u64) -> Storm {
        let (nodes, k) = match size {
            Size::Standard => (256, 8),
            Size::Small => (32, 4),
        };
        Storm {
            nodes,
            seeds: inputs::storm_seeds(seed, k),
        }
    }
}

impl Workload for Storm {
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let t_setup = Instant::now();
        let span = tracer.begin("setup");
        // `storm()` builds its world inside the call.
        setup_probe(
            self.nodes,
            self.seeds[0],
            MonitorConfig::default().with_push_interval(SimDuration::from_secs(1)),
            FaultPlan::uniform(0.01, SimDuration::from_micros(20)),
            tracer,
        )?;
        let configs: Vec<StormConfig> = self
            .seeds
            .iter()
            .map(|&s| StormConfig::congested(self.nodes, s))
            .collect();
        tracer.end(span);
        let setup_s = t_setup.elapsed().as_secs_f64();

        // A breach panics inside `storm()`; catch it so the breach is
        // reported as a failed storm with its message, quietly.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut outcomes: Vec<StormOutcome> = Vec::new();
        let mut breaches: Vec<String> = Vec::new();
        let mut step_s = 0.0;
        for cfg in &configs {
            let t_run = Instant::now();
            let span = tracer.begin("experiments.storm");
            let out = std::panic::catch_unwind(|| storm(cfg));
            tracer.end(span);
            match out {
                Ok(o) => {
                    step_s += t_run.elapsed().as_secs_f64();
                    outcomes.push(o);
                }
                Err(payload) => breaches.push(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default(),
                ),
            }
        }
        std::panic::set_hook(hook);
        if outcomes.is_empty() {
            return Err(format!("every storm breached an invariant: {breaches:?}"));
        }

        let sim_s: f64 = outcomes.iter().map(|o| o.halted_at_us as f64 / 1e6).sum();
        let mut digest = Fnv::default();
        for b in &breaches {
            for byte in b.bytes() {
                digest.add(u64::from(byte));
            }
        }
        for o in &outcomes {
            for v in [
                o.trace_hash,
                o.trace_lines as u64,
                o.drops,
                o.timeouts,
                o.retries,
                o.epoch,
                o.invariant_checks,
                o.congestion_drops,
                o.congestion_reparents,
                o.completed as u64,
                o.failed as u64,
                o.halted_at_us,
            ] {
                digest.add(v);
            }
        }
        let sum = |f: fn(&StormOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
        let storms = configs.len() as u64;
        let failed = breaches.len() as u64;
        Ok(Iteration {
            setup_s,
            step_s,
            sim_node_s: f64::from(self.nodes) * sim_s,
            // Each storm is one awaited operation, failed when it breaks
            // an invariant or loses its probe job. Jobs killed by the
            // scripted node failures are the storm's modelled outcome
            // (`flux.exec.jobs_failed`), not failed operations.
            exact: vec![Metric::new(
                "failed_frac",
                failed as f64 / storms as f64,
                "ratio",
                storms,
            )],
            counts: vec![
                Metric::count("flux.overlay.fault_drops", sum(|o| o.drops)),
                Metric::count("flux.overlay.congestion_drops", sum(|o| o.congestion_drops)),
                Metric::count("flux.overlay.reparents", sum(|o| o.congestion_reparents)),
                Metric::count("flux.rpc.timeouts", sum(|o| o.timeouts)),
                Metric::count("flux.rpc.retries", sum(|o| o.retries)),
                Metric::count("flux.membership.epoch", sum(|o| o.epoch)),
                Metric::count("flux.exec.jobs_failed", sum(|o| o.failed as u64)),
            ],
            attempted: storms,
            failed,
            digest: digest.finish(),
        })
    }

    fn layers(&mut self, _last: &Iteration, _step_ns: f64) -> Vec<Metric> {
        // `storm()` exposes no engine, world or module handle, so only
        // its outcome counts and an overlay replay at its rank count
        // are measurable from outside.
        vec![Metric::new(
            "flux.overlay.per_hop_ns",
            replay::overlay_per_hop_ns(self.nodes),
            "ns",
            9,
        )]
    }
}

//! The four workloads and the loop that times them.
//!
//! A run repeats one workload instance (same seed, same inputs) until
//! the host-time budget is spent, with at least two measured iterations
//! after an untimed warm-up. Set-up time is the median over iterations;
//! throughput is the measured iterations' total simulated work over
//! their total host time. Every iteration must reproduce the first
//! one's exact metrics and output digest, so a run also checks that the
//! simulation is deterministic. A traced run alternates untraced and
//! traced iterations: the exact metrics agree across both, and the
//! ratio of their host times is the tracing overhead.

pub mod fleet;
pub mod fpp_cluster;
pub mod storm;
pub mod telemetry;

use crate::report::{Metric, Outcome};
use crate::stats::{median, quantile, tail_q};
use crate::trace::Tracer;
use fluxpm_experiments::JobRequest;
use fluxpm_flux::{FaultPlan, FluxEngine, JobSpec, JobState, World};
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use fluxpm_monitor::MonitorConfig;
use fluxpm_sim::{Engine, SimTime};
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "fpp_cluster",
    "storm_congested",
    "telemetry_fanout",
    "fleet_sharded",
];

/// Instance size: the benchmark's own, or a small one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Standard,
    /// Seconds-scale instances for the self-tests.
    Small,
}

/// What one iteration of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds from the start of the iteration to its first engine
    /// step.
    pub setup_s: f64,
    /// Host seconds of the simulation itself.
    pub step_s: f64,
    /// Simulated node-seconds the iteration covered (exact).
    pub sim_node_s: f64,
    /// Exact end-to-end metrics.
    pub exact: Vec<Metric>,
    /// Exact per-layer counts.
    pub counts: Vec<Metric>,
    /// Operations issued or awaited.
    pub attempted: u64,
    /// Of those, the failed ones.
    pub failed: u64,
    /// Hash of the iteration's outputs.
    pub digest: u64,
}

/// One workload instance, repeatable.
pub trait Workload {
    /// Build, run and check one instance. `tracer` is on for traced
    /// iterations; workloads may capture layer inputs when it is.
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String>;

    /// Checks made once per run, after the timed loop.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Layer replays and attribution for a traced run: `last` is a
    /// traced iteration and `step_ns` the median host ns of traced
    /// iterations.
    fn layers(&mut self, last: &Iteration, step_ns: f64) -> Vec<Metric>;
}

/// Run workload `name` for `seconds` of host time.
pub fn run_workload(
    name: &str,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Tracer), String> {
    match name {
        "fpp_cluster" => drive(
            &mut fpp_cluster::FppCluster::new(size, seed),
            seconds,
            traced,
        ),
        "storm_congested" => drive(&mut storm::Storm::new(size, seed), seconds, traced),
        "telemetry_fanout" => drive(&mut telemetry::Telemetry::new(size, seed), seconds, traced),
        "fleet_sharded" => drive(&mut fleet::Fleet::new(size, seed), seconds, traced),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn drive(w: &mut dyn Workload, seconds: f64, traced: bool) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    let mut iters: Vec<(Iteration, bool)> = Vec::new();
    // Calibration-kernel seconds around each iteration (see `calib`).
    let mut cals: Vec<f64> = Vec::new();
    let mut peak_rss = None;
    loop {
        let n = iters.len();
        let traced_iter = traced && n % 2 == 1;
        tracer.set_on(traced_iter);
        tracer.set_run(n as u32);
        // The warm-up iteration is not calibrated: its peak memory is
        // the workload's alone.
        let before = (n > 0).then(crate::calib::kernel_s);
        let it = w.iterate(&mut tracer)?;
        cals.push(before.map_or(0.0, |b| (b + crate::calib::kernel_s()) / 2.0));
        if let Some((first, _)) = iters.first() {
            if first.exact != it.exact || first.digest != it.digest {
                return Err(format!(
                    "iteration {n} (traced: {traced_iter}) diverged from iteration 0: \
                     exact {:?} vs {:?}, digest {:x} vs {:x}",
                    it.exact, first.exact, it.digest, first.digest
                ));
            }
        }
        iters.push((it, traced_iter));
        if iters.len() == 1 {
            // Peak memory of one workload instance: later iterations
            // repeat the same work, and how many fit the budget depends
            // on host speed.
            let rss = crate::report::peak_rss_mb().ok_or("cannot read the peak resident set")?;
            peak_rss = Some(rss);
        }
        if iters.len() >= 3 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tracer.set_on(false);
    w.finish()?;

    // The warm-up iteration is excluded from host-time figures.
    let measured = &iters[1..];
    let plain: Vec<(&Iteration, f64)> = measured
        .iter()
        .zip(&cals[1..])
        .filter(|((_, t), _)| !t)
        .map(|((i, _), &cal)| (i, cal))
        .collect();
    let n = plain.len() as u64;
    // Host seconds in reference seconds (see `calib`).
    let scale = |cal: f64| crate::calib::REFERENCE_S / cal;
    let setup: Vec<f64> = plain
        .iter()
        .map(|(i, cal)| i.setup_s * scale(*cal))
        .collect();
    let raw_setup: Vec<f64> = plain.iter().map(|(i, _)| i.setup_s).collect();
    // Throughput over all measured work rather than a median of
    // iterations, so a switch of host speed mid-run is averaged over.
    let sim_node_s: f64 = plain.iter().map(|(i, _)| i.sim_node_s).sum();
    let step_s: f64 = plain.iter().map(|(i, cal)| i.step_s * scale(*cal)).sum();
    let raw_step_s: f64 = plain.iter().map(|(i, _)| i.step_s).sum();
    let cal_ms: Vec<f64> = plain.iter().map(|(_, cal)| cal * 1e3).collect();
    let first = &iters[0].0;
    let mut out = Outcome {
        end_to_end: vec![
            Metric::new("setup_s", median(&setup), "s", n),
            Metric::new("sim_node_s_per_s", sim_node_s / step_s, "node-s/s", n),
            Metric::new("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB", 1),
        ],
        host: vec![
            Metric::new("host.setup_s", median(&raw_setup), "s", n),
            Metric::new(
                "host.sim_node_s_per_s",
                sim_node_s / raw_step_s,
                "node-s/s",
                n,
            ),
            Metric::new("host.calibration_ms", median(&cal_ms), "ms", n),
        ],
        exact: first.exact.clone(),
        layers: Vec::new(),
        attempted: first.attempted,
        failed: first.failed,
        digest: first.digest,
        iterations: iters.len(),
    };
    if traced {
        let traced_iters: Vec<&Iteration> = measured
            .iter()
            .filter(|(_, t)| *t)
            .map(|(i, _)| i)
            .collect();
        let traced_step: Vec<f64> = traced_iters.iter().map(|i| i.step_s).collect();
        let plain_step: Vec<f64> = plain.iter().map(|(i, _)| i.step_s).collect();
        let last = traced_iters
            .last()
            .expect("a traced run has traced iterations");
        let step_ns = median(&traced_step) * 1e9;
        let mut layers = last.counts.clone();
        layers.extend(engine_timing(&tracer, last));
        layers.extend(w.layers(last, step_ns));
        layers.push(Metric::new(
            "trace.overhead_frac",
            median(&traced_step) / median(&plain_step) - 1.0,
            "ratio",
            (traced_step.len() + plain_step.len()) as u64,
        ));
        layers.extend(out.host.iter().cloned());
        out.layers = layers;
    }
    Ok((out, tracer))
}

/// Host timing of the engine from the traced iterations' slice spans.
fn engine_timing(tracer: &Tracer, last: &Iteration) -> Vec<Metric> {
    let slices = tracer.durations_ns("sim-core.run_until");
    let events = last
        .counts
        .iter()
        .find(|m| m.name == "sim-core.events")
        .map_or(0.0, |m| m.value);
    if slices.is_empty() || events == 0.0 {
        return Vec::new();
    }
    let runs = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sim-core.run_until")
        .map(|s| s.run)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let ms: Vec<f64> = slices.iter().map(|ns| ns / 1e6).collect();
    let n = ms.len() as u64;
    vec![
        Metric::new(
            "sim-core.ns_per_event",
            slices.iter().sum::<f64>() / runs as f64 / events,
            "ns",
            runs as u64,
        ),
        Metric::new("sim-core.slice_ms_p50", quantile(&ms, 0.5), "ms", n),
        Metric::new(
            "sim-core.slice_ms_p99",
            quantile(&ms, tail_q(ms.len())),
            "ms",
            n,
        ),
    ]
}

/// Set-up time of a workload whose library call builds its own worlds,
/// measured by building the same stack shape from outside: the world,
/// the proportional manager, the monitor, the executor and the fault
/// plan. The world is dropped unused.
pub fn setup_probe(
    nodes: u32,
    seed: u64,
    monitor: MonitorConfig,
    plan: FaultPlan,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut world = tracer.scope("flux.World::new", || {
        World::new(MachineKind::Lassen, nodes, seed)
    });
    let mut eng: FluxEngine = Engine::new();
    let bound = Watts(f64::from(nodes) * 1500.0);
    let ok = tracer.scope("power-manager.load", || {
        fluxpm_manager::load(&mut world, &mut eng, ManagerConfig::proportional(bound))
    }) && tracer.scope("power-monitor.load", || {
        fluxpm_monitor::load(&mut world, &mut eng, monitor)
    });
    if !ok {
        return Err("a module failed to load in the set-up probe".into());
    }
    tracer.scope("flux.install_executor", || world.install_executor(&mut eng));
    tracer.scope("flux.install_fault_plan", || world.install_fault_plan(plan));
    std::hint::black_box(&world);
    Ok(())
}

/// A paper application program for `req`, as the experiment scenarios
/// build it (no jitter).
pub fn build_app(req: &JobRequest, seed: u64) -> fluxpm_workloads::App {
    let model = match req.app.as_str() {
        "LAMMPS" => fluxpm_workloads::lammps(),
        "GEMM" => fluxpm_workloads::gemm(),
        "Quicksilver" => fluxpm_workloads::quicksilver(),
        "Laghos" => fluxpm_workloads::laghos(),
        "NQueens" => fluxpm_workloads::nqueens(),
        other => panic!("unknown application {other:?}"),
    };
    let mut app = fluxpm_workloads::App::with_jitter(
        model,
        MachineKind::Lassen,
        req.nnodes,
        seed,
        fluxpm_workloads::JitterModel::none(),
    );
    if let Some(s) = req.work_scale {
        app = app.with_work_scale(s);
    }
    if let Some(s) = req.work_seconds {
        app = app.with_work_seconds(s);
    }
    app
}

/// Schedule each request's submission at its arrival time.
pub fn schedule_submissions(eng: &mut FluxEngine, jobs: &[JobRequest], seed: u64) {
    for (i, req) in jobs.iter().enumerate() {
        let app = build_app(req, seed.wrapping_add(1000 + i as u64));
        let spec = JobSpec::new(req.app.clone(), req.nnodes);
        let at = SimTime::from_micros((req.submit_at_s * 1e6) as u64);
        let mut slot = Some((spec, app));
        eng.schedule(at, move |w: &mut World, eng| {
            let (spec, app) = slot.take().expect("submission fires once");
            w.submit(eng, spec, Box::new(app));
        });
    }
}

/// Exact per-layer counts readable from a finished world.
pub fn world_counts(world: &World, eng: &FluxEngine, pending_peak: usize) -> Vec<Metric> {
    let links = world.link_stats();
    let delivered: u64 = links.iter().map(|l| l.delivered).sum();
    let delay_mean = if links.is_empty() {
        0.0
    } else {
        links.iter().map(|l| l.ewma_delay_us).sum::<f64>() / links.len() as f64
    };
    let rpc = world.rpc_stats();
    let jobs_failed = world
        .jobs
        .all()
        .iter()
        .filter(|j| j.state == JobState::Failed)
        .count() as u64;
    vec![
        Metric::count("sim-core.events", eng.executed()),
        Metric::count("sim-core.pending_peak", pending_peak as u64),
        Metric::count("flux.overlay.delivered", delivered),
        Metric::count("flux.overlay.fault_drops", world.fault_drops()),
        Metric::count(
            "flux.overlay.congestion_drops",
            world.congestion_drop_count(),
        ),
        Metric::count("flux.overlay.reparents", world.congestion_reparent_count()),
        Metric::new(
            "flux.overlay.queue_delay_us_mean",
            delay_mean,
            "us",
            links.len() as u64,
        ),
        Metric::count("flux.rpc.timeouts", rpc.values().map(|s| s.timeouts).sum()),
        Metric::count("flux.rpc.retries", rpc.values().map(|s| s.retries).sum()),
        Metric::count("flux.rpc.drops", rpc.values().map(|s| s.drops).sum()),
        Metric::count("flux.rpc.pending_end", world.pending_rpc_count() as u64),
        Metric::count("flux.membership.epoch", world.tbon.epoch()),
        Metric::count("flux.state.appended", world.state.total_appended()),
        Metric::count("flux.state.snapshots", world.state.snapshots_taken()),
        Metric::count("flux.exec.jobs_failed", jobs_failed),
    ]
}

/// Value of a count in `counts` (0 when absent).
pub fn count_of(counts: &[Metric], name: &str) -> f64 {
    counts
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every exact metric (value bits and sample count).
    pub fn add_metrics(&mut self, metrics: &[Metric]) {
        for m in metrics {
            self.add(m.value.to_bits());
            self.add(m.samples);
        }
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

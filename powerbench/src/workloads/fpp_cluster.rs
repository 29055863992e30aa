//! `fpp_cluster`: the paper's evaluation shape, scaled up.
//!
//! A Lassen cluster under `ManagerConfig::fpp` with a global bound below
//! the sum of the 1950 W OPAL baselines, the monitor loaded, and a
//! seeded queue of the five paper apps at 2–16 nodes with staggered
//! arrivals. The client issues one `job_stats_tree` query per finished
//! job. The node-side control loop does most of the work: FPP and its
//! period analysis, the hardware and Variorum models, the app models,
//! and the monitor's node agents. The overlay is small and fault-free,
//! with no subscribers and no shards.

use super::{count_of, schedule_submissions, world_counts, Fnv, Iteration, Size, Workload};
use crate::inputs;
use crate::observe::{cap_latencies, CapLog, Observed};
use crate::query;
use crate::replay::{self, NodeState};
use crate::report::Metric;
use crate::stats::{tail_q, Histogram};
use crate::trace::Tracer;
use fluxpm_experiments::{JobRequest, RunReport};
use fluxpm_flux::{FluxEngine, JobState, SharedModule, World};
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::{ClusterLevelManager, JobLevelManager, ManagerConfig, NodeLevelManager};
use fluxpm_monitor::{MonitorConfig, MonitorReply, MonitorRequest, SubtreeStatsRequest};
use fluxpm_sim::{Engine, SimDuration, SimTime};
use fluxpm_variorum::NodePowerSample;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::time::Instant;

/// The OPAL node baseline the paper validates against.
const OPAL_BASELINE_W: f64 = 1950.0;
/// Timeline sampling period, as the paper's tables use it.
const TIMELINE_PERIOD_S: f64 = 2.0;
/// Node states and GPU windows captured for the layer replays.
const CAPTURE_NODES: usize = 16;

/// Shape of the queue.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cluster size.
    pub nodes: u32,
    /// Jobs in the queue.
    pub jobs: usize,
    /// Mean gap between arrivals, seconds.
    pub mean_gap_s: f64,
    /// Global bound as a share of the summed OPAL baselines.
    pub bound_frac: f64,
    /// Run the 14-check reproduction gate once per run.
    pub verify: bool,
}

impl Config {
    /// The instance for `size`.
    pub fn for_size(size: Size) -> Config {
        match size {
            Size::Standard => Config {
                nodes: 256,
                jobs: 120,
                mean_gap_s: 4.0,
                bound_frac: 0.75,
                verify: true,
            },
            Size::Small => Config {
                nodes: 24,
                jobs: 5,
                mean_gap_s: 3.0,
                bound_frac: 0.75,
                verify: false,
            },
        }
    }
}

/// Inputs captured in a traced iteration for the layer replays.
#[derive(Debug, Default)]
struct Captured {
    windows: Vec<Vec<f64>>,
    states: Vec<NodeState>,
    exec_tick_s: f64,
    sim_s: f64,
}

/// The workload.
pub struct FppCluster {
    cfg: Config,
    seed: u64,
    captured: Captured,
}

impl FppCluster {
    /// The workload for `seed`.
    pub fn new(size: Size, seed: u64) -> FppCluster {
        FppCluster {
            cfg: Config::for_size(size),
            seed,
            captured: Captured::default(),
        }
    }
}

type Shared<T> = Rc<RefCell<T>>;

/// Manager handles the benchmark reads counters through.
struct Managers {
    cluster: Shared<Observed<ClusterLevelManager>>,
    job: Shared<JobLevelManager>,
    nodes: Vec<Shared<Observed<NodeLevelManager>>>,
}

/// `fluxpm_manager::load`, with the cluster- and node-level managers
/// wrapped in cap observers and their handles kept: the same modules,
/// loaded in the same order, with the same recovery factories.
fn load_manager(
    world: &mut World,
    eng: &mut FluxEngine,
    config: &ManagerConfig,
    log: &Shared<CapLog>,
) -> Result<Managers, String> {
    let mut ok = true;
    let mut nodes = Vec::new();
    for rank in world.tbon.ranks().collect::<Vec<_>>() {
        let m = Observed::shared(
            NodeLevelManager::with_target(config.policy, config.fpp.clone(), config.fpp_target),
            log,
        );
        let shared: SharedModule = m.clone();
        ok &= world.load_module(eng, rank, shared);
        nodes.push(m);
    }
    let root = world.root();
    let job = JobLevelManager::shared();
    ok &= world.load_module(eng, root, job.clone());
    let cluster = Observed::shared(ClusterLevelManager::new(config.clone()), log);
    let shared: SharedModule = cluster.clone();
    ok &= world.load_module(eng, root, shared);
    {
        let config = config.clone();
        world.register_module_factory(move |_rank| {
            NodeLevelManager::shared_with_target(
                config.policy,
                config.fpp.clone(),
                config.fpp_target,
            )
        });
    }
    world.register_root_service_factory(|| {
        let m: SharedModule = JobLevelManager::shared();
        m
    });
    let config = config.clone();
    world.register_root_service_factory(move || {
        let m: SharedModule = ClusterLevelManager::shared(config.clone());
        m
    });
    if !ok {
        return Err("a manager module failed to load".into());
    }
    Ok(Managers {
        cluster,
        job,
        nodes,
    })
}

/// A job-stats-tree query: the reduction window and node set resolved
/// from the job record, as the monitor client does it.
fn stats_request(world: &World, job: fluxpm_flux::JobId) -> MonitorRequest {
    let record = world.jobs.get(job).expect("queried jobs exist");
    MonitorRequest::SubtreeStats(SubtreeStatsRequest {
        start_us: record
            .started_at
            .expect("finished jobs started")
            .as_micros(),
        end_us: record
            .finished_at
            .expect("queried jobs finished")
            .as_micros(),
        targets: record.nodes.iter().map(|n| n.0).collect(),
    })
}

impl Workload for FppCluster {
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let cfg = self.cfg;
        let seed = self.seed;
        let t_setup = Instant::now();
        let setup_span = tracer.begin("setup");
        let queue: Vec<JobRequest> = inputs::fpp_queue(seed, cfg.jobs, cfg.mean_gap_s);
        let mut world = tracer.scope("flux.World::new", || {
            World::new(MachineKind::Lassen, cfg.nodes, seed)
        });
        let mut eng: FluxEngine = Engine::new();
        for n in &mut world.nodes {
            n.set_node_cap(Watts(OPAL_BASELINE_W))
                .map_err(|e| format!("OPAL baseline cap: {e:?}"))?;
        }
        let bound = f64::from(cfg.nodes) * OPAL_BASELINE_W * cfg.bound_frac;
        let config = ManagerConfig::fpp(Watts(bound));
        let log = Rc::new(RefCell::new(CapLog::default()));
        let span = tracer.begin("power-manager.load");
        let managers = load_manager(&mut world, &mut eng, &config, &log)?;
        tracer.end(span);
        let loaded = tracer.scope("power-monitor.load", || {
            fluxpm_monitor::load(&mut world, &mut eng, MonitorConfig::default())
        });
        if !loaded {
            return Err("a monitor module failed to load".into());
        }
        tracer.scope("flux.install_executor", || world.install_executor(&mut eng));

        // Timeline sampler: a sensor scan of every node each period —
        // the series the paper's tables derive energy from.
        let series: Shared<Vec<Vec<NodePowerSample>>> =
            Rc::new(RefCell::new(vec![Vec::new(); cfg.nodes as usize]));
        let sink = Rc::clone(&series);
        let period = SimDuration::from_secs_f64(TIMELINE_PERIOD_S);
        eng.schedule_every(SimTime::ZERO + period, period, move |w: &mut World, eng| {
            let ts = eng.now().as_micros();
            let mut buf = sink.borrow_mut();
            for i in 0..w.nodes.len() {
                let reading = w.nodes[i].read_sensors();
                buf[i].push(NodePowerSample::from_reading(
                    &w.brokers[i].hostname,
                    ts,
                    &reading,
                ));
            }
            ControlFlow::Continue(())
        });
        schedule_submissions(&mut eng, &queue, seed);
        tracer.end(setup_span);
        let setup_s = t_setup.elapsed().as_secs_f64();

        // Step in 1 s slices; between slices the client queries every
        // newly finished job, and a traced iteration captures node
        // states at the busiest slice.
        let t_run = Instant::now();
        let mut queries: Vec<(u64, query::Pending)> = Vec::new();
        let mut queried = vec![false; cfg.jobs];
        let mut pending_peak = 0usize;
        let mut busiest = 0usize;
        let mut states = Vec::new();
        let limit_s = 100_000u64;
        let mut t = 0u64;
        loop {
            t += 1;
            if t > limit_s {
                return Err(format!("queue did not drain within {limit_s} simulated s"));
            }
            let span = tracer.begin("sim-core.run_until");
            eng.run_until(&mut world, SimTime::from_secs(t));
            tracer.end(span);
            pending_peak = pending_peak.max(eng.pending());
            let finished: Vec<_> = world
                .jobs
                .all()
                .iter()
                .filter(|j| j.finished_at.is_some() && !queried[j.id.0 as usize])
                .map(|j| j.id)
                .collect();
            for job in finished {
                queried[job.0 as usize] = true;
                {
                    let req = stats_request(&world, job);
                    let root = world.root();
                    let span = tracer.begin("power-monitor.query");
                    let pending = query::send(&mut world, &mut eng, root, req);
                    tracer.end(span);
                    queries.push((eng.now().as_micros(), pending));
                }
            }
            if tracer.is_on() {
                let running = world.jobs.running();
                if running.len() > busiest {
                    busiest = running.len();
                    states = world
                        .nodes
                        .iter()
                        .filter(|n| world.jobs.job_on_node(n.id).is_some())
                        .take(CAPTURE_NODES)
                        .map(NodeState::capture)
                        .collect();
                }
            }
            let all_done = world.jobs.all().len() == cfg.jobs
                && world.jobs.all().iter().all(|j| j.finished_at.is_some());
            if all_done && queries.iter().all(|(_, q)| q.borrow().is_some()) {
                break;
            }
        }
        let step_s = t_run.elapsed().as_secs_f64();
        let sim_s = eng.now().as_secs_f64();

        // --- Outputs and checks -------------------------------------
        let node_series = series.borrow().clone();
        let report = RunReport::collect(&world, "fpp".into(), TIMELINE_PERIOD_S, node_series);
        let jobs_failed = world
            .jobs
            .all()
            .iter()
            .filter(|j| j.state != JobState::Completed)
            .count() as u64;
        let energy_kj: f64 = report
            .jobs
            .iter()
            .map(|j| j.energy_per_node_kj * f64::from(j.nnodes))
            .sum();
        let last_end_us = world
            .jobs
            .all()
            .iter()
            .filter_map(|j| j.finished_at.map(|t| t.as_micros()))
            .max()
            .unwrap_or(0);
        let mut instants: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in report.node_series.iter().flatten() {
            if s.timestamp_us <= last_end_us {
                *instants.entry(s.timestamp_us).or_insert(0.0) += s.node_power_estimate();
            }
        }
        let over = instants.values().filter(|&&w| w > bound).count();
        let over_budget_frac = over as f64 / instants.len().max(1) as f64;

        let (caps, cap_failures) = cap_latencies(&log.borrow(), &world);
        let mut reduction = Histogram::default();
        let mut query_failures = 0u64;
        for (sent, q) in &queries {
            match q.borrow().as_ref() {
                Some((at, Ok(MonitorReply::SubtreeStats(_)))) => reduction.add(at - sent),
                _ => query_failures += 1,
            }
        }
        let attempted = cfg.jobs as u64 + queries.len() as u64 + caps.len() + cap_failures;
        let failed = jobs_failed + query_failures + cap_failures;
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
                failed as f64 / attempted as f64,
                "ratio",
                attempted,
            ),
            Metric::new("energy_kj", energy_kj, "kJ", report.jobs.len() as u64),
            Metric::new(
                "makespan_s",
                report.makespan_s,
                "s",
                report.jobs.len() as u64,
            ),
            Metric::new(
                "over_budget_frac",
                over_budget_frac,
                "ratio",
                instants.len() as u64,
            ),
        ];

        let mut counts = world_counts(&world, &eng, pending_peak);
        let cluster = managers.cluster.borrow();
        let node_mgrs: Vec<_> = managers.nodes.iter().map(|m| m.borrow()).collect();
        counts.extend([
            Metric::new(
                "power-monitor.reduction_us_p50",
                reduction.quantile(0.5) as f64,
                "us",
                reduction.len(),
            ),
            Metric::count(
                "power-manager.cap_updates",
                cluster.inner.updates_sent() + managers.job.borrow().node_updates(),
            ),
            Metric::count(
                "power-manager.cap_failures",
                node_mgrs.iter().map(|m| m.inner.cap_failures()).sum(),
            ),
            Metric::count(
                "power-manager.fpp_epochs",
                node_mgrs
                    .iter()
                    .flat_map(|m| m.inner.controllers())
                    .map(|c| c.epochs())
                    .sum(),
            ),
        ]);

        let mut digest = Fnv::default();
        digest.add_metrics(&exact);
        digest.add(eng.executed());
        for j in world.jobs.all() {
            digest.add(j.started_at.map_or(0, |t| t.as_micros()));
            digest.add(j.finished_at.map_or(0, |t| t.as_micros()));
        }

        if tracer.is_on() {
            // GPU power windows at the controller's window length, from
            // the captured nodes' timelines.
            let window = (config.fpp.powercap_time_s / config.fpp.sample_period_s) as usize;
            let mut windows = Vec::new();
            for st in report.node_series.iter() {
                if windows.len() >= CAPTURE_NODES || st.len() < window {
                    continue;
                }
                let gpus = st[0].power_gpu_watts.len();
                let busy = st.iter().map(|s| s.gpu_total()).fold(0.0, f64::max);
                if busy <= 0.0 {
                    continue;
                }
                for g in 0..gpus {
                    windows.push(st[..window].iter().map(|s| s.power_gpu_watts[g]).collect());
                }
            }
            self.captured = Captured {
                windows,
                states,
                exec_tick_s: world.exec_tick.as_secs_f64(),
                sim_s,
            };
        }

        Ok(Iteration {
            setup_s,
            step_s,
            sim_node_s: f64::from(cfg.nodes) * sim_s,
            exact,
            counts,
            attempted,
            failed,
            digest: digest.finish(),
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        if !self.cfg.verify {
            return Ok(());
        }
        let checks = fluxpm_experiments::experiments::verify::run_checks();
        let failed: Vec<_> = checks.iter().filter(|c| !c.passed()).collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "reproduction gate: {} check(s) failed: {failed:?}",
                failed.len()
            ))
        }
    }

    fn layers(&mut self, last: &Iteration, step_ns: f64) -> Vec<Metric> {
        let cap = &self.captured;
        let nodes = f64::from(self.cfg.nodes);
        let per_hop = replay::overlay_per_hop_ns(self.cfg.nodes);
        let gpus = fluxpm_hw::lassen().gpus;
        let window = cap.windows.first().map_or(90, Vec::len);
        let fpp_epoch = replay::fpp_epoch_ns(gpus, window, self.seed);
        let (welch, period) = replay::fft(&cap.windows);
        let (json, read, tick) = replay::node_models(&cap.states, cap.exec_tick_s);
        // Op counts behind each replay: link crossings; per-GPU epoch
        // analyses (the default controller runs the single-window
        // estimate); monitor samples (2 s cadence) and timeline scans
        // (2 s); executor ticks.
        let samples = nodes * cap.sim_s / MonitorConfig::default().sample_interval.as_secs_f64();
        let scans = nodes * cap.sim_s / TIMELINE_PERIOD_S;
        let ticks = nodes * cap.sim_s / cap.exec_tick_s.max(1e-9);
        let attributed = count_of(&last.counts, "flux.overlay.delivered") * per_hop
            + count_of(&last.counts, "power-manager.fpp_epochs") * period
            + samples * json
            + scans * read
            + ticks * tick;
        let w = cap.windows.len() as u64;
        let s = cap.states.len() as u64;
        vec![
            Metric::new("flux.overlay.per_hop_ns", per_hop, "ns", 9),
            Metric::new("power-manager.fpp_epoch_ns", fpp_epoch, "ns", 9),
            Metric::new("fft.welch_ns", welch, "ns", w),
            Metric::new("fft.period_ns", period, "ns", w),
            Metric::new("variorum.node_power_json_ns", json, "ns", s),
            Metric::new("hw-models.read_sensors_ns", read, "ns", s),
            Metric::new("hw-models.tick_ns", tick, "ns", s),
            Metric::new("layers.attributed_frac", attributed / step_ns, "ratio", 1),
        ]
    }
}

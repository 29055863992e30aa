//! `telemetry_fanout`: the read side of the power monitor.
//!
//! A world with 1 s pushes, the proportional manager and a long-running
//! job mix. Thousands of subscribers attach at leaf ranks with mixed
//! filters (match-all, node-set, job, cadence-floored); a tail of slow
//! pollers overruns its queues while the rest poll at a fixed simulated
//! cadence. One more match-all subscriber at the root polls every
//! second with a queue that never overflows: its stream is the
//! reference every other subscriber is accounted against.
//!
//! Relay climbs, filter aggregation, per-edge staging, hub queues and
//! poll RPCs do most of the work here and almost none elsewhere.

use super::{count_of, schedule_submissions, world_counts, Fnv, Iteration, Size, Workload};
use crate::inputs::{self, SubSpec};
use crate::query::{self, Pending, Stamped};
use crate::replay::{self, NodeState};
use crate::report::Metric;
use crate::stats::{tail_q, Histogram};
use crate::trace::Tracer;
use fluxpm_flux::{FluxEngine, JobId, Rank, World};
use fluxpm_hw::{MachineKind, Watts};
use fluxpm_manager::ManagerConfig;
use fluxpm_monitor::proto::{PollRequest, SubscribeRequest};
use fluxpm_monitor::{MonitorConfig, MonitorReply, MonitorRequest, SubscriptionFilter};
use fluxpm_sim::{Engine, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Shape of the telemetry world.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Ranks (nodes).
    pub ranks: u32,
    /// Leaf subscribers (besides the root reference subscriber).
    pub subscribers: usize,
    /// Simulated seconds of streaming.
    pub horizon_s: u64,
    /// Poll cadence of ordinary subscribers, seconds.
    pub every_s: u64,
    /// Poll cadence of the slow tail, seconds.
    pub slow_every_s: u64,
    /// Per-subscriber queue capacity.
    pub queue_capacity: usize,
    /// Jobs in the mix.
    pub jobs: usize,
    /// Largest job, nodes.
    pub max_job_nodes: u32,
}

impl Config {
    /// The instance for `size`.
    pub fn for_size(size: Size) -> Config {
        match size {
            Size::Standard => Config {
                ranks: 256,
                subscribers: 2048,
                horizon_s: 10,
                every_s: 2,
                slow_every_s: 8,
                queue_capacity: 512,
                jobs: 12,
                max_job_nodes: 32,
            },
            Size::Small => Config {
                ranks: 16,
                subscribers: 40,
                horizon_s: 8,
                every_s: 2,
                slow_every_s: 6,
                queue_capacity: 32,
                jobs: 3,
                max_job_nodes: 4,
            },
        }
    }
}

/// One subscriber's requests and replies.
struct Sub {
    spec: SubSpec,
    subscribe: (u64, Pending),
    id: Option<u64>,
    outstanding: Option<(u64, Pending)>,
    replies: Vec<(u64, Stamped)>,
}

/// The workload.
pub struct Telemetry {
    cfg: Config,
    seed: u64,
    states: Vec<NodeState>,
}

impl Telemetry {
    /// The workload for `seed`.
    pub fn new(size: Size, seed: u64) -> Telemetry {
        Telemetry {
            cfg: Config::for_size(size),
            seed,
            states: Vec::new(),
        }
    }
}

fn matches(filter: &SubscriptionFilter, node: u32, job: Option<JobId>) -> bool {
    filter.job.is_none_or(|j| job == Some(j))
        && filter.nodes.as_ref().is_none_or(|n| n.contains(&node))
}

/// The reference stream indexed for counting matches up to a seq.
struct Reference {
    all: Vec<u64>,
    by_node: BTreeMap<u32, Vec<u64>>,
    by_job: BTreeMap<JobId, Vec<u64>>,
    by_node_job: BTreeMap<(u32, JobId), Vec<u64>>,
}

impl Reference {
    fn count(&self, filter: &SubscriptionFilter, upto: u64) -> u64 {
        let le = |v: Option<&Vec<u64>>| v.map_or(0, |s| s.partition_point(|&q| q <= upto) as u64);
        match (&filter.nodes, filter.job) {
            (None, None) => le(Some(&self.all)),
            (None, Some(j)) => le(self.by_job.get(&j)),
            (Some(nodes), None) => nodes.iter().map(|n| le(self.by_node.get(n))).sum(),
            (Some(nodes), Some(j)) => nodes
                .iter()
                .map(|&n| le(self.by_node_job.get(&(n, j))))
                .sum(),
        }
    }
}

impl Workload for Telemetry {
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let cfg = self.cfg;
        let seed = self.seed;
        let t_setup = Instant::now();
        let setup_span = tracer.begin("setup");
        let mut world = tracer.scope("flux.World::new", || {
            World::new(MachineKind::Lassen, cfg.ranks, seed)
        });
        let mut eng: FluxEngine = Engine::new();
        let leaves: Vec<u32> = world
            .tbon
            .ranks()
            .filter(|&r| world.tbon.children(r).is_empty())
            .map(|r| r.0)
            .collect();
        let jobs = inputs::telemetry_jobs(seed, cfg.jobs, cfg.max_job_nodes, cfg.horizon_s as f64);
        let specs = inputs::subscribers(
            seed,
            cfg.subscribers,
            &leaves,
            cfg.ranks,
            cfg.jobs as u64,
            cfg.every_s,
            cfg.slow_every_s,
        );
        let bound = Watts(f64::from(cfg.ranks) * 1500.0);
        let ok = tracer.scope("power-manager.load", || {
            fluxpm_manager::load(&mut world, &mut eng, ManagerConfig::proportional(bound))
        }) && tracer.scope("power-monitor.load", || {
            fluxpm_monitor::load(
                &mut world,
                &mut eng,
                MonitorConfig::default()
                    .with_sample_interval(SimDuration::from_secs(1))
                    .with_push_interval(SimDuration::from_secs(1))
                    .with_subscriber_queue_capacity(cfg.queue_capacity)
                    .with_subscriber_evict_after_drops(u64::MAX),
            )
        });
        if !ok {
            return Err("a module failed to load".into());
        }
        tracer.scope("flux.install_executor", || world.install_executor(&mut eng));
        schedule_submissions(&mut eng, &jobs, seed);
        tracer.end(setup_span);
        let setup_s = t_setup.elapsed().as_secs_f64();

        // --- Run: subscribe at t = 0, before the first push, so every
        // stream starts at seq 0 with an empty seed; then poll between
        // 1 s slices. Replies are only collected here and checked after
        // the timed run.
        let t_run = Instant::now();
        let root = world.root();
        let reference = SubSpec {
            rank: root.0,
            filter: SubscriptionFilter::all(),
            every_s: 1,
            max: 1 << 20,
        };
        let mut subs: Vec<Sub> = std::iter::once(reference)
            .chain(specs)
            .map(|spec| {
                let span = tracer.begin("power-monitor.query");
                let req = MonitorRequest::Subscribe(SubscribeRequest {
                    filter: spec.filter.clone(),
                });
                let pending = query::send(&mut world, &mut eng, Rank(spec.rank), req);
                tracer.end(span);
                Sub {
                    spec,
                    subscribe: (0, pending),
                    id: None,
                    outstanding: None,
                    replies: Vec::new(),
                }
            })
            .collect();
        let mut pending_peak = 0;
        let mut polls = 0u64;
        let final_s = cfg.horizon_s + 2;
        for t in 1..=final_s {
            let span = tracer.begin("sim-core.run_until");
            eng.run_until(&mut world, SimTime::from_secs(t));
            tracer.end(span);
            pending_peak = pending_peak.max(eng.pending());
            if t == cfg.horizon_s / 2 && tracer.is_on() {
                self.states = world
                    .nodes
                    .iter()
                    .take(16)
                    .map(NodeState::capture)
                    .collect();
            }
            for (i, sub) in subs.iter_mut().enumerate() {
                if sub.id.is_none() {
                    if let Some((_, Ok(MonitorReply::Subscribed(id)))) = &*sub.subscribe.1.borrow()
                    {
                        sub.id = Some(*id);
                    }
                }
                if let Some((sent, p)) = sub.outstanding.take() {
                    let reply = p.borrow_mut().take();
                    match reply {
                        Some(reply) => sub.replies.push((sent, reply)),
                        None => sub.outstanding = Some((sent, p)),
                    }
                }
                // Ordinary polls stop at the horizon; the reference
                // subscriber drains once more after everyone else.
                let due = if i == 0 {
                    t <= cfg.horizon_s + 1
                } else {
                    t <= cfg.horizon_s && t % sub.spec.every_s == 0
                };
                if let (Some(id), None, true) = (sub.id, &sub.outstanding, due) {
                    let span = tracer.begin("power-monitor.query");
                    let req = MonitorRequest::Poll(PollRequest {
                        sub: id,
                        max: sub.spec.max,
                    });
                    let p = query::send(&mut world, &mut eng, Rank(sub.spec.rank), req);
                    tracer.end(span);
                    sub.outstanding = Some((eng.now().as_micros(), p));
                    polls += 1;
                }
            }
        }
        let step_s = t_run.elapsed().as_secs_f64();
        let sim_s = eng.now().as_secs_f64();

        // --- Checks ----------------------------------------------------
        let mut failures = 0u64;
        let mut subscribe_us = Histogram::default();
        let mut rtt = Histogram::default();
        let mut age = Histogram::default();
        let mut delivered = 0u64;
        let mut shed = 0u64;
        let mut useful = 0u64;
        let mut digest = Fnv::default();
        let mut accounts: Vec<(u64, u64, Option<u64>)> = Vec::with_capacity(subs.len());
        let mut reference = Reference {
            all: Vec::new(),
            by_node: BTreeMap::new(),
            by_job: BTreeMap::new(),
            by_node_job: BTreeMap::new(),
        };
        for (i, sub) in subs.iter().enumerate() {
            match &*sub.subscribe.1.borrow() {
                Some((at, Ok(MonitorReply::Subscribed(_)))) => {
                    subscribe_us.add(at - sub.subscribe.0)
                }
                _ => failures += 1,
            }
            if sub.outstanding.is_some() {
                failures += 1;
            }
            let floor = sub.spec.filter.min_interval_us;
            let mut last_seq: Option<u64> = None;
            let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
            let mut received = 0u64;
            // (received, dropped) as of the last poll that returned
            // deltas: at that instant every matching delta up to its
            // last seq was either handed out or shed.
            let mut at_last = (0u64, 0u64);
            for (sent, (at, reply)) in &sub.replies {
                let batch = match reply {
                    Ok(MonitorReply::Deltas(b)) => b,
                    _ => {
                        failures += 1;
                        continue;
                    }
                };
                rtt.add(at - sent);
                if batch.deltas.is_empty() {
                    continue;
                }
                useful += 1;
                for d in &batch.deltas {
                    if d.link.is_some() || !matches(&sub.spec.filter, d.node, d.job) {
                        return Err(format!(
                            "subscriber {i} received a delta outside its filter: {d:?}"
                        ));
                    }
                    if last_seq.is_some_and(|s| d.seq <= s) {
                        return Err(format!("subscriber {i}: seq {} after {last_seq:?}", d.seq));
                    }
                    if floor > 0 {
                        if let Some(&prev) = last_ts.get(&d.node) {
                            if d.timestamp_us < prev + floor {
                                return Err(format!(
                                    "subscriber {i}: node {} delivered {} us after the previous delta, under its {floor} us floor",
                                    d.node,
                                    d.timestamp_us - prev
                                ));
                            }
                        }
                        last_ts.insert(d.node, d.timestamp_us);
                    }
                    last_seq = Some(d.seq);
                    age.add(at - d.timestamp_us);
                    if i == 0 {
                        reference.all.push(d.seq);
                        reference.by_node.entry(d.node).or_default().push(d.seq);
                        if let Some(j) = d.job {
                            reference.by_job.entry(j).or_default().push(d.seq);
                            reference
                                .by_node_job
                                .entry((d.node, j))
                                .or_default()
                                .push(d.seq);
                        }
                    }
                }
                received += batch.deltas.len() as u64;
                at_last = (received, batch.dropped);
            }
            let final_dropped = sub.replies.iter().rev().find_map(|(_, (_, r))| match r {
                Ok(MonitorReply::Deltas(b)) => Some(b.dropped),
                _ => None,
            });
            delivered += received;
            shed += final_dropped.unwrap_or(0);
            accounts.push((at_last.0, at_last.1, last_seq));
            digest.add(received);
            digest.add(final_dropped.unwrap_or(0));
            digest.add(last_seq.unwrap_or(u64::MAX));
        }
        // The reference saw every published delta: contiguous seqs from
        // 0, nothing shed, and at least as far as any subscriber.
        let contiguous = reference
            .all
            .iter()
            .enumerate()
            .all(|(k, &s)| s == k as u64);
        if !contiguous || accounts[0].1 != 0 || reference.all.is_empty() {
            return Err("the reference subscriber missed deltas".into());
        }
        let reference_end = *reference.all.last().expect("non-empty");
        for (i, (sub, &(received, dropped, last_seq))) in subs.iter().zip(&accounts).enumerate() {
            let Some(last_seq) = last_seq else { continue };
            if last_seq > reference_end {
                return Err(format!(
                    "subscriber {i} saw seq {last_seq} past the reference"
                ));
            }
            let expected = reference.count(&sub.spec.filter, last_seq);
            // A cadence floor thins the stream before it reaches the
            // subscriber's queue, so only an upper bound holds there.
            let floored = sub.spec.filter.min_interval_us > 0;
            let ok = if floored {
                received + dropped <= expected
            } else {
                received + dropped == expected
            };
            if !ok {
                return Err(format!(
                    "subscriber {i}: {received} delivered + {dropped} shed does not account for \
                     {expected} matching deltas up to seq {last_seq}"
                ));
            }
        }

        let attempted = subs.len() as u64 + polls;
        let q = tail_q(age.len() as usize);
        let exact = vec![
            Metric::new(
                "sample_age_us_p50",
                age.quantile(0.5) as f64,
                "us",
                age.len(),
            ),
            Metric::new("sample_age_us_p99", age.quantile(q) as f64, "us", age.len()),
            Metric::new(
                "failed_frac",
                failures as f64 / attempted as f64,
                "ratio",
                attempted,
            ),
        ];
        digest.add_metrics(&exact);
        digest.add(eng.executed());
        let mut counts = world_counts(&world, &eng, pending_peak);
        counts.extend([
            Metric::count("power-monitor.deltas_delivered", delivered),
            Metric::count("power-monitor.deltas_shed", shed),
            Metric::new(
                "power-monitor.poll_useful_frac",
                useful as f64 / rtt.len().max(1) as f64,
                "ratio",
                rtt.len(),
            ),
            Metric::new(
                "power-monitor.poll_rtt_us_p50",
                rtt.quantile(0.5) as f64,
                "us",
                rtt.len(),
            ),
            Metric::new(
                "power-monitor.poll_rtt_us_p99",
                rtt.quantile(tail_q(rtt.len() as usize)) as f64,
                "us",
                rtt.len(),
            ),
            Metric::new(
                "power-monitor.subscribe_us_p99",
                subscribe_us.quantile(tail_q(subscribe_us.len() as usize)) as f64,
                "us",
                subscribe_us.len(),
            ),
        ]);
        Ok(Iteration {
            setup_s,
            step_s,
            sim_node_s: f64::from(cfg.ranks) * sim_s,
            exact,
            counts,
            attempted,
            failed: failures,
            digest: digest.finish(),
        })
    }

    fn layers(&mut self, last: &Iteration, step_ns: f64) -> Vec<Metric> {
        let cfg = self.cfg;
        let per_hop = replay::overlay_per_hop_ns(cfg.ranks);
        let fanout = World::new(MachineKind::Lassen, cfg.ranks, self.seed)
            .tbon
            .fanout() as usize;
        let (relay_ns, egress) = replay::relay(
            cfg.ranks as usize,
            fanout,
            cfg.subscribers,
            cfg.queue_capacity,
        );
        let tick_s = World::new(MachineKind::Lassen, 1, 0)
            .exec_tick
            .as_secs_f64();
        let (json, read, tick) = replay::node_models(&self.states, tick_s);
        let sim_s = (cfg.horizon_s + 2) as f64;
        let nodes = f64::from(cfg.ranks);
        // Op counts: link crossings; subscriber deliveries; one sensor
        // read per node per second; executor ticks.
        let attributed = count_of(&last.counts, "flux.overlay.delivered") * per_hop
            + count_of(&last.counts, "power-monitor.deltas_delivered") * relay_ns
            + nodes * sim_s * json
            + nodes * sim_s / tick_s * tick;
        let s = self.states.len() as u64;
        vec![
            Metric::new("flux.overlay.per_hop_ns", per_hop, "ns", 9),
            Metric::new("power-monitor.relay_ns_per_delivery", relay_ns, "ns", 9),
            Metric::new("power-monitor.root_egress_per_delta", egress, "ratio", 1),
            Metric::new("variorum.node_power_json_ns", json, "ns", s),
            Metric::new("hw-models.read_sensors_ns", read, "ns", s),
            Metric::new("hw-models.tick_ns", tick, "ns", s),
            Metric::new("layers.attributed_frac", attributed / step_ns, "ratio", 1),
        ]
    }
}

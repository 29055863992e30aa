//! Cap-propagation observation from outside the manager.
//!
//! [`Observed`] wraps a manager module behind the public [`Module`]
//! trait: every call is delegated unchanged, and after each handled
//! message the wrapper reads the module's public accessors into a
//! [`CapLog`]. It schedules nothing and sends nothing, so the
//! simulation is the same with or without it.

use crate::stats::Histogram;
use fluxpm_flux::{
    JobId, Message, Module, ModuleCtx, MsgKind, StateEvent, StateValue, Topic, World,
};
use fluxpm_manager::{ClusterLevelManager, NodeLevelManager};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Job-limit decisions and node-limit applications, in simulated µs.
#[derive(Debug, Default)]
pub struct CapLog {
    /// `(at_us, job, job limit W)`: the cluster manager changed a job's
    /// limit.
    pub decisions: Vec<(u64, JobId, f64)>,
    /// `(at_us, rank, node limit W)`: a node-level manager applied a
    /// limit.
    pub applies: Vec<(u64, u32, f64)>,
    last: BTreeMap<JobId, f64>,
}

/// What the wrapper reads after each message.
pub trait Probe: Module {
    /// Record what `msg` changed.
    fn observe(&self, ctx: &ModuleCtx<'_>, msg: &Message, log: &mut CapLog);
}

impl Probe for ClusterLevelManager {
    fn observe(&self, ctx: &ModuleCtx<'_>, _msg: &Message, log: &mut CapLog) {
        let now = ctx.eng.now().as_micros();
        for (job, limit) in self.job_limits() {
            if log.last.get(&job) != Some(&limit.get()) {
                log.last.insert(job, limit.get());
                log.decisions.push((now, job, limit.get()));
            }
        }
    }
}

impl Probe for NodeLevelManager {
    fn observe(&self, ctx: &ModuleCtx<'_>, msg: &Message, log: &mut CapLog) {
        // Set-node-limit is the only request a node manager serves.
        if msg.kind == MsgKind::Request {
            if let Some(limit) = self.node_limit() {
                log.applies
                    .push((ctx.eng.now().as_micros(), ctx.rank.0, limit.get()));
            }
        }
    }
}

/// A manager module with a [`CapLog`] observer attached.
pub struct Observed<M: Probe> {
    /// The wrapped module (read its counters through this field).
    pub inner: M,
    log: Rc<RefCell<CapLog>>,
}

impl<M: Probe> Observed<M> {
    /// Wrap `inner`, logging into `log`; returns the shared handle the
    /// world loads and the benchmark keeps.
    pub fn shared(inner: M, log: &Rc<RefCell<CapLog>>) -> Rc<RefCell<Observed<M>>> {
        Rc::new(RefCell::new(Observed {
            inner,
            log: Rc::clone(log),
        }))
    }
}

impl<M: Probe> Module for Observed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn topics(&self) -> Vec<Topic> {
        self.inner.topics()
    }
    fn load(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.load(ctx);
    }
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        self.inner.handle(ctx, msg);
        self.inner.observe(ctx, msg, &mut self.log.borrow_mut());
    }
    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        self.inner.timer(ctx, tag);
    }
    fn root_service(&self) -> bool {
        self.inner.root_service()
    }
    fn on_migrate(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.on_migrate(ctx);
    }
    fn on_topology_change(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.inner.on_topology_change(ctx);
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
    fn snapshot(&self) -> Option<StateValue> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &StateValue) {
        self.inner.restore(snapshot);
    }
    fn apply_event(&mut self, event: &StateEvent) {
        self.inner.apply_event(event);
    }
}

/// How long a decision may stay unapplied on a node before the job's
/// next decision or its end makes the miss a race rather than a
/// failure: the default RPC retry budget (three 1 s attempts plus
/// backoff).
pub const APPLY_GRACE_US: u64 = 5_000_000;

/// Cap-propagation latencies: one sample per (job-limit decision, node
/// of that job), from the decision to the first application of the
/// job's per-node share on that node. A decision never applied on a
/// node is a failure unless the job's next decision or its end came
/// within [`APPLY_GRACE_US`] of it (then it was superseded in flight
/// and is not counted). Returns `(latencies, failures)`.
pub fn cap_latencies(log: &CapLog, world: &World) -> (Histogram, u64) {
    let mut by_rank: BTreeMap<u32, Vec<(u64, f64)>> = BTreeMap::new();
    for &(at, rank, limit) in &log.applies {
        by_rank.entry(rank).or_default().push((at, limit));
    }
    let mut hist = Histogram::default();
    let mut failures = 0;
    for (i, &(t0, job, limit)) in log.decisions.iter().enumerate() {
        let Some(record) = world.jobs.get(job) else {
            continue;
        };
        let ranks: Vec<u32> = record.nodes.iter().map(|n| n.0).collect();
        if ranks.is_empty() {
            continue;
        }
        // The job manager's split, with the same arithmetic.
        let per_node = (fluxpm_hw::Watts(limit) / ranks.len() as f64).get();
        let next = log.decisions[i + 1..]
            .iter()
            .find(|d| d.1 == job)
            .map_or(u64::MAX, |d| d.0);
        let end = record.finished_at.map_or(u64::MAX, |t| t.as_micros());
        let raced = next.min(end).saturating_sub(t0) < APPLY_GRACE_US;
        for rank in ranks {
            let first = by_rank.get(&rank).and_then(|applies| {
                let from = applies.partition_point(|a| a.0 < t0);
                applies[from..].iter().find(|a| a.1 == per_node)
            });
            match first {
                Some(&(t1, _)) => hist.add(t1 - t0),
                None if raced => {}
                None => failures += 1,
            }
        }
    }
    (hist, failures)
}

/// Cap-propagation latencies from a sharded run's canonical records:
/// each node-limit application is matched to the latest job-limit
/// decision at or before it whose job limit is a whole multiple of the
/// applied per-node limit (records carry milliwatts, so the multiple is
/// checked to the rounding of each term). Returns `(latencies,
/// unmatched applications)`.
pub fn record_cap_latencies(records: &[fluxpm_flux::ShardRecord]) -> (Histogram, u64) {
    use fluxpm_flux::shard::rec;
    let decisions: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.code == rec::JOB_LIMIT)
        .map(|r| (r.at_us, r.b))
        .collect();
    let mut hist = Histogram::default();
    let mut unmatched = 0;
    for r in records.iter().filter(|r| r.code == rec::NODE_LIMIT) {
        let node_mw = r.a as f64;
        let upto = decisions.partition_point(|d| d.0 <= r.at_us);
        let matched = decisions[..upto].iter().rev().find(|&&(_, job_mw)| {
            let n = (job_mw as f64 / node_mw).round();
            n >= 1.0 && (n * node_mw - job_mw as f64).abs() <= n + 1.0
        });
        match matched {
            Some(&(t0, _)) => hist.add(r.at_us - t0),
            None => unmatched += 1,
        }
    }
    (hist, unmatched)
}

//! TBON-distributed telemetry fan-out, end to end — the relay tentpole.
//!
//! Every broker hosts a `TelemetryRelay`: clients subscribe, poll, and
//! unsubscribe against the rank they attach to (`MonitorQuery::at`),
//! filters aggregate up each tree edge, and the root publishes each
//! delta once per *interested child edge* — O(fanout), not
//! O(subscribers). These tests drive the full in-sim lifecycle at leaf
//! ranks, check the leaf stream is identical to the root-attached
//! stream (the PR 7 hub semantics, preserved through the tree), watch
//! filter aggregation narrow the root's egress, check that same-instant
//! deltas share one wire message per edge without moving their arrival
//! time, and exercise the two
//! failure modes the design calls out: root failover (subscriptions at
//! surviving relays resume, gap-checked, duplicate-free) and subscriber
//! broker death (fresh relay, re-subscribe re-seeds from the latest
//! snapshot).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use fluxpm::flux::{Engine, FluxEngine, JobSpec, MsgKind, Rank, World};
use fluxpm::hw::{MachineKind, NodeId};
use fluxpm::monitor::relay::TOPIC_RELAY_DELTAS;
use fluxpm::monitor::subscription::TOPIC_SAMPLE_PUSH;
use fluxpm::monitor::{
    DeltaBatch, MonitorConfig, MonitorQuery, QueryHandle, RootAgent, SubscriptionFilter,
    TelemetryDelta, RELAY, ROOT_AGENT,
};
use fluxpm::sim::{SimDuration, SimTime, Trace, TraceLevel};
use fluxpm::workloads::{laghos, App, JitterModel};

/// A `nodes`-rank world (binary TBON; at 4 nodes: 0 -> {1, 2}, 1 -> {3})
/// with sample pushes every 2 s and one long job, so telemetry flows the
/// whole window.
fn pushing_world(nodes: u32, config: MonitorConfig) -> (World, FluxEngine) {
    let mut w = World::new(MachineKind::Lassen, nodes, 37);
    let mut eng: FluxEngine = Engine::new();
    fluxpm::monitor::load(&mut w, &mut eng, config);
    w.install_executor(&mut eng);
    w.submit(
        &mut eng,
        JobSpec::new("Laghos", nodes),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, nodes, 9, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );
    (w, eng)
}

fn push_config() -> MonitorConfig {
    MonitorConfig::default().with_push_interval(SimDuration::from_secs(2))
}

/// Instants (µs) at which the overlay delivered a `kind` message on
/// `topic` from `from` to `to`, read from a Debug-level world trace.
fn delivery_times(w: &World, from: Rank, to: Rank, kind: MsgKind, topic: &str) -> Vec<u64> {
    let line = format!("deliver {from} -> {to} {kind:?} topic {topic}");
    w.trace
        .for_subsystem("tbon")
        .filter(|e| e.message == line)
        .map(|e| e.at.as_micros())
        .collect()
}

/// Sample pushes landing at root rank 0 after `after_us`: instant → how
/// many landed in it.
fn root_push_arrivals(w: &World, after_us: u64) -> BTreeMap<u64, usize> {
    let mut arrivals = BTreeMap::new();
    for r in 0..w.size() {
        for at in delivery_times(w, Rank(r), Rank(0), MsgKind::Request, TOPIC_SAMPLE_PUSH) {
            if at > after_us {
                *arrivals.entry(at).or_default() += 1;
            }
        }
    }
    arrivals
}

type Slot<T> = Rc<RefCell<Option<T>>>;

fn slot<T>() -> Slot<T> {
    Rc::new(RefCell::new(None))
}

/// Key a delta by everything a consumer can observe, so two streams can
/// be compared for byte-level equality.
fn delta_key(d: &TelemetryDelta) -> (u64, u32, u64, u64, Option<u64>) {
    (
        d.seq,
        d.node,
        d.timestamp_us,
        d.node_w.to_bits(),
        d.job.map(|j| j.0),
    )
}

/// Subscribe at `rank` at `at` seconds, stashing the query handle.
fn subscribe_at(eng: &mut FluxEngine, rank: Rank, at: u64, out: &Slot<QueryHandle>) {
    let out = Rc::clone(out);
    eng.schedule(SimTime::from_secs(at), move |w: &mut World, eng| {
        let q = MonitorQuery::subscribe(SubscriptionFilter::all())
            .at(rank)
            .send(w, eng);
        *out.borrow_mut() = Some(q);
    });
}

/// Poll `sub` at `rank` at `at` seconds and append the drained deltas
/// to `into` half a second later.
fn poll_into(
    eng: &mut FluxEngine,
    rank: Rank,
    sub: &Slot<QueryHandle>,
    at_us: u64,
    into: &Rc<RefCell<Vec<TelemetryDelta>>>,
) {
    let (sub, into) = (Rc::clone(sub), Rc::clone(into));
    eng.schedule(SimTime::from_micros(at_us), move |w: &mut World, eng| {
        let id = sub
            .borrow()
            .as_ref()
            .expect("subscribe sent")
            .subscription()
            .expect("subscribe answered")
            .expect("subscribe ok");
        let q = MonitorQuery::poll(id, 4096).at(rank).send(w, eng);
        let into = Rc::clone(&into);
        eng.schedule(
            SimTime::from_micros(at_us + 500_000),
            move |_w: &mut World, _| {
                let batch = q.deltas().expect("poll answered").expect("poll ok");
                into.borrow_mut()
                    .extend(batch.deltas.iter().map(|d| (**d).clone()));
            },
        );
    });
}

/// Borrow the root agent on `rank` and run `f` against it.
fn with_root_agent<R>(w: &mut World, rank: Rank, f: impl FnOnce(&RootAgent) -> R) -> R {
    let module = w.brokers[rank.0 as usize]
        .module(ROOT_AGENT)
        .expect("root agent loaded");
    let mut guard = module.borrow_mut();
    let agent = guard
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<RootAgent>())
        .expect("concrete root agent");
    f(agent)
}

/// The full lifecycle served entirely by a *leaf* relay: subscribe,
/// ordered delivery, unsubscribe, dead-id poll, snapshot re-seed — the
/// same observable contract the root-attached path has always had.
#[test]
fn leaf_subscriber_lifecycle_through_relay() {
    let (mut w, mut eng) = pushing_world(4, push_config());
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);

    // An invalid filter is rejected with a typed error at the serving
    // relay, before anything climbs the tree.
    let bad_sub: Slot<QueryHandle> = slot();
    {
        let out = Rc::clone(&bad_sub);
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            let q = MonitorQuery::subscribe(SubscriptionFilter::all().with_nodes(vec![]))
                .at(leaf)
                .send(w, eng);
            *out.borrow_mut() = Some(q);
        });
    }

    let streamed = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &streamed);

    // t=20: unsubscribe at the leaf; t=21: the dead id errors there.
    let unsub: Slot<QueryHandle> = slot();
    let dead_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&unsub));
        eng.schedule(SimTime::from_secs(20), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            *out.borrow_mut() = Some(MonitorQuery::unsubscribe(id).at(leaf).send(w, eng));
        });
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&dead_poll));
        eng.schedule(SimTime::from_secs(21), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            let q = MonitorQuery::poll(id, 16).at(leaf).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(21_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // t=25.1: re-subscribe at the leaf. The seed arrives from the
    // root's latest-per-node snapshot, so a poll before the next push
    // round already holds one delta per node.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(25_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(leaf)
                    .send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(25_500_000),
                    move |w: &mut World, eng| {
                        let sub = q.subscription().unwrap().unwrap();
                        let q = MonitorQuery::poll(sub, 16).at(leaf).send(w, eng);
                        let out = Rc::clone(&out);
                        eng.schedule(
                            SimTime::from_micros(25_900_000),
                            move |_w: &mut World, _| {
                                *out.borrow_mut() =
                                    Some(q.deltas().expect("poll answered").expect("poll ok"));
                            },
                        );
                    },
                );
            },
        );
    }

    eng.run_until(&mut w, SimTime::from_secs(30));

    let err = bad_sub
        .borrow()
        .as_ref()
        .unwrap()
        .subscription()
        .expect("bad subscribe answered")
        .expect_err("empty node set rejected");
    assert!(err.contains("invalid filter"), "got: {err}");

    let deltas = streamed.borrow().clone();
    assert!(!deltas.is_empty(), "deltas reached the leaf by t=15");
    assert!(
        deltas.windows(2).all(|p| p[0].seq < p[1].seq),
        "publication order survives the tree"
    );
    let nodes: BTreeSet<u32> = deltas.iter().map(|d| d.node).collect();
    assert_eq!(nodes.len(), 4, "every node's pushes reached the leaf");
    assert!(
        deltas.iter().all(|d| d.job.is_some()),
        "job attribution (assigned at the root) survives the tree"
    );

    assert_eq!(
        unsub.borrow().as_ref().unwrap().unsubscribed(),
        Some(Ok(true)),
        "unsubscribe found its subscription at the leaf"
    );
    let err = dead_poll
        .borrow()
        .clone()
        .expect("dead poll resolved")
        .expect_err("polling an unsubscribed id errors");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    let batch = reseed_poll.borrow().clone().expect("re-seed resolved");
    let nodes: Vec<u32> = batch.deltas.iter().map(|d| d.node).collect();
    let unique: BTreeSet<u32> = nodes.iter().copied().collect();
    assert_eq!(
        (nodes.len(), unique.len()),
        (4, 4),
        "snapshot seeds exactly one latest delta per node: {nodes:?}"
    );
}

/// The equivalence acceptance: for the same filter over the same
/// window, a subscriber at a leaf relay sees *exactly* the stream a
/// root-attached subscriber sees — same deltas, same order, same
/// sequence numbers, same payload bits. The tree only changes who does
/// the fan-out work, never what a consumer observes.
#[test]
fn leaf_stream_is_byte_identical_to_root_stream() {
    let (mut w, mut eng) = pushing_world(4, push_config());

    let at_root: Slot<QueryHandle> = slot();
    let at_leaf: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, Rank(0), 5, &at_root);
    subscribe_at(&mut eng, Rank(3), 5, &at_leaf);

    let root_stream = Rc::new(RefCell::new(Vec::new()));
    let leaf_stream = Rc::new(RefCell::new(Vec::new()));
    // Repeated interleaved drains: equivalence must hold poll by poll,
    // not just in the final accumulation.
    for at_s in [9u64, 13, 17, 21, 25] {
        poll_into(&mut eng, Rank(0), &at_root, at_s * 1_000_000, &root_stream);
        poll_into(&mut eng, Rank(3), &at_leaf, at_s * 1_000_000, &leaf_stream);
    }

    eng.run_until(&mut w, SimTime::from_secs(28));

    let root: Vec<_> = root_stream.borrow().iter().map(delta_key).collect();
    let leaf: Vec<_> = leaf_stream.borrow().iter().map(delta_key).collect();
    assert!(root.len() >= 30, "a real stream flowed: {}", root.len());
    assert_eq!(root, leaf, "leaf stream diverged from root stream");
}

/// Filter aggregation narrows what each edge carries: a single-node
/// subscription at a leaf widens only its own path to the root, the
/// sibling subtree's edge stays silent, and the root's egress is
/// per-edge — O(fanout) — not per-subscriber.
#[test]
fn filter_aggregation_narrows_root_egress() {
    let (mut w, mut eng) = pushing_world(4, push_config());
    w.trace = Trace::enabled(TraceLevel::Debug);
    let leaf = Rank(3);

    // Two leaf subscribers with the same node-3-only filter: fan-out
    // cost at the root must not grow with the second subscriber.
    for _ in 0..2 {
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            let _ = MonitorQuery::subscribe(SubscriptionFilter::all().with_nodes(vec![3]))
                .at(leaf)
                .send(w, eng);
        });
    }
    let streamed = Rc::new(RefCell::new(Vec::new()));
    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    // This third subscriber is the firehose control at the same leaf.
    poll_into(&mut eng, leaf, &sub_q, 20_000_000, &streamed);

    eng.run_until(&mut w, SimTime::from_secs(24));

    // Every climb lands well before the t=6 push round, so from then on
    // the edge to rank 1 matches every pushed delta.
    let arrivals = root_push_arrivals(&w, 5_000_000);
    with_root_agent(&mut w, Rank(0), |agent| {
        let children: Vec<(u32, bool)> = agent
            .plane()
            .children()
            .map(|(c, a)| (c, a.is_all()))
            .collect();
        // Only the subtree containing rank 3 asked for anything; the
        // firehose widened that one edge to match-all. Rank 2's edge
        // never materialized.
        assert_eq!(children, vec![(1, true)], "{children:?}");
        // Egress is per-edge and per-instant: exactly one wire message
        // on the one interested edge per instant in which pushes
        // landed, carrying every delta of that instant, regardless of
        // three subscribers sitting below it.
        let msgs = agent.plane().egress_msgs();
        let deltas = agent.plane().egress_deltas();
        assert!(msgs > 0);
        assert_eq!(msgs, arrivals.len() as u64, "{arrivals:?}");
        assert_eq!(deltas, arrivals.values().sum::<usize>() as u64);
    });
    let deltas = streamed.borrow().clone();
    let nodes: BTreeSet<u32> = deltas.iter().map(|d| d.node).collect();
    assert_eq!(nodes.len(), 4, "the firehose still sees every node");
}

/// Same-instant coalescing: pushes from every rank at one depth land at
/// the root in the same microsecond, and leave each interested edge as
/// exactly one `RelayDeltas` message — yet every delta still reaches the
/// leaf at the instant it was published at the root plus 20 µs per hop.
#[test]
fn same_instant_pushes_share_one_message_per_edge() {
    // Binary TBON over 16 ranks: depth 3 holds ranks 7..=14, and leaf
    // rank 15 hangs four hops below the root (15 -> 7 -> 3 -> 1 -> 0).
    let (mut w, mut eng) = pushing_world(16, push_config());
    w.trace = Trace::enabled(TraceLevel::Debug);
    let leaf = Rank(15);
    let path = [Rank(0), Rank(1), Rank(3), Rank(7), leaf];
    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    let streamed = Rc::new(RefCell::new(Vec::new()));
    // Two drains keep the 64-delta queue from shedding.
    for at_us in [9_000_000, 13_000_000] {
        poll_into(&mut eng, leaf, &sub_q, at_us, &streamed);
    }

    eng.run_until(&mut w, SimTime::from_micros(13_900_000));

    // Push rounds at t = 6, 8, 10, 12 s, each landing at the root in
    // one instant per pushing depth.
    let arrivals = root_push_arrivals(&w, 5_000_000);
    assert_eq!(
        arrivals.values().copied().max(),
        Some(8),
        "all eight depth-3 pushes share one instant: {arrivals:?}"
    );
    let hop_us = w.tbon.hop_latency.as_micros();
    for (hops, pair) in path.windows(2).enumerate() {
        let got = delivery_times(&w, pair[0], pair[1], MsgKind::Event, TOPIC_RELAY_DELTAS);
        let want: Vec<u64> = arrivals
            .keys()
            .map(|at| at + (hops as u64 + 1) * hop_us)
            .collect();
        assert_eq!(
            got, want,
            "edge {} -> {}: one batch per push instant, one hop latency per hop later",
            pair[0], pair[1]
        );
    }
    // The sibling subtree asked for nothing: its edge stays silent.
    assert!(delivery_times(&w, Rank(0), Rank(2), MsgKind::Event, TOPIC_RELAY_DELTAS).is_empty());

    // The subscriber got its seed (one latest delta per node), then
    // every delta published after it, gap-free and in order.
    let deltas = streamed.borrow().clone();
    assert!(deltas.len() > 16, "{} deltas", deltas.len());
    let (seed, stream) = deltas.split_at(16);
    let seeded: BTreeSet<u32> = seed.iter().map(|d| d.node).collect();
    assert_eq!(seeded.len(), 16, "seeded one latest delta per node");
    assert_eq!(stream.len(), arrivals.values().sum::<usize>());
    assert!(deltas.windows(2).all(|p| p[0].seq < p[1].seq));
    assert!(stream.windows(2).all(|p| p[0].seq + 1 == p[1].seq));
    with_root_agent(&mut w, Rank(0), |agent| {
        assert_eq!(agent.plane().egress_msgs(), arrivals.len() as u64);
        assert!(
            !agent.flush_armed(),
            "every flush ran by the end of its instant"
        );
    });
}

/// Root failover: the authoritative hub (sequence counter, latest
/// snapshots) migrates to the promoted successor, the surviving leaf
/// relay re-advertises its aggregate to the new root, and the leaf
/// subscriber's stream resumes — strictly ordered, duplicate-free —
/// without re-subscribing.
#[test]
fn leaf_subscription_survives_root_failover() {
    let (mut w, mut eng) = pushing_world(4, push_config());
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);

    let before = Rc::new(RefCell::new(Vec::new()));
    let after = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &before);

    eng.schedule(SimTime::from_secs(20), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(0));
    });

    // Well after the failover: pushes flow to the promoted root
    // (rank 1), which distributes down the re-advertised edge to the
    // leaf relay. Same subscription, no client-side recovery.
    poll_into(&mut eng, leaf, &sub_q, 32_000_000, &after);

    eng.run_until(&mut w, SimTime::from_secs(35));
    assert_eq!(w.root(), Rank(1), "deterministic successor election");

    assert_stream_survived_failover(&before.borrow(), &after.borrow());
}

/// A leaf stream polled before and after the t=20 root failover flowed
/// on both sides, resumed with post-failover deltas from the surviving
/// nodes, and stayed strictly ordered and duplicate-free.
fn assert_stream_survived_failover(before: &[TelemetryDelta], after: &[TelemetryDelta]) {
    assert!(!before.is_empty(), "stream flowed before the failover");
    assert!(
        after.iter().any(|d| d.timestamp_us > 21_000_000),
        "stream resumed with post-failover deltas: {} deltas",
        after.len()
    );
    let all: Vec<u64> = before.iter().chain(after.iter()).map(|d| d.seq).collect();
    let unique: BTreeSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "no duplicates across the failover");
    assert!(
        all.windows(2).all(|p| p[0] < p[1]),
        "sequence stayed strictly increasing: the hub's counter migrated"
    );
    // Node 0 died with the root; the survivors keep reporting.
    let nodes: BTreeSet<u32> = after.iter().map(|d| d.node).collect();
    assert!(
        nodes.contains(&1) && nodes.contains(&2) && nodes.contains(&3),
        "survivors keep flowing: {nodes:?}"
    );
}

/// Root failover with a batch staged but not yet flushed: the root dies
/// in the very instant the t=20 pushes from ranks 1 and 2 landed, after
/// it published them and before its end-of-instant flush ran. The
/// staged batch leaves from the dead root and is dropped there like any
/// message the root had in flight; the promoted root starts clean and
/// the leaf stream stays ordered and duplicate-free.
#[test]
fn staged_batch_at_root_death_keeps_leaf_stream_ordered() {
    let (mut w, mut eng) = pushing_world(4, push_config());
    w.trace = Trace::enabled(TraceLevel::Warn);
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    let before = Rc::new(RefCell::new(Vec::new()));
    let after = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &before);

    // Key 1 runs after the instant's deliveries (key 0) and before its
    // end-of-instant flush (key u64::MAX).
    let landed_us = 20_000_000 + w.tbon.hop_latency.as_micros();
    eng.schedule_keyed(SimTime::from_micros(landed_us), 1, |w: &mut World, eng| {
        let staged = with_root_agent(w, Rank(0), |agent| agent.flush_armed());
        assert!(staged, "the landed pushes are staged, not yet sent");
        w.fail_node(eng, NodeId(0));
    });
    poll_into(&mut eng, leaf, &sub_q, 32_000_000, &after);

    eng.run_until(&mut w, SimTime::from_secs(35));
    assert_eq!(w.root(), Rank(1), "deterministic successor election");

    let dropped = format!(
        "drop from downed {}: Event -> {} topic {TOPIC_RELAY_DELTAS}",
        Rank(0),
        Rank(1)
    );
    assert!(
        w.trace
            .entries()
            .iter()
            .any(|e| e.at.as_micros() == landed_us && e.message == dropped),
        "the staged batch left from the dead root"
    );
    with_root_agent(&mut w, Rank(1), |agent| {
        assert!(
            !agent.flush_armed(),
            "no flush stays armed on the promoted root"
        );
    });

    assert_stream_survived_failover(&before.borrow(), &after.borrow());
}

/// Subscriber-broker death: the relay (and its queues) die with the
/// broker. After recovery the rank hosts a fresh relay — the old id is
/// unknown there — and a re-subscribe at the recovered rank re-seeds
/// from the root's latest snapshot, exactly like any slow-consumer
/// eviction.
#[test]
fn broker_death_drops_local_subscribers_and_resubscribe_reseeds() {
    let (mut w, mut eng) = pushing_world(4, push_config());
    let leaf = Rank(3);

    let sub_q: Slot<QueryHandle> = slot();
    subscribe_at(&mut eng, leaf, 5, &sub_q);
    let streamed = Rc::new(RefCell::new(Vec::new()));
    poll_into(&mut eng, leaf, &sub_q, 15_000_000, &streamed);

    eng.schedule(SimTime::from_secs(18), |w: &mut World, eng| {
        w.fail_node(eng, NodeId(3));
    });
    eng.schedule(SimTime::from_secs(22), |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(3)));
    });

    // t=26: the old id is unknown on the rebuilt relay.
    let dead_poll: Slot<Result<DeltaBatch, String>> = slot();
    {
        let (sub, out) = (Rc::clone(&sub_q), Rc::clone(&dead_poll));
        eng.schedule(SimTime::from_secs(26), move |w: &mut World, eng| {
            let id = sub
                .borrow()
                .as_ref()
                .unwrap()
                .subscription()
                .unwrap()
                .unwrap();
            let q = MonitorQuery::poll(id, 16).at(leaf).send(w, eng);
            let out = Rc::clone(&out);
            eng.schedule(
                SimTime::from_micros(26_500_000),
                move |_w: &mut World, _| {
                    *out.borrow_mut() = q.deltas();
                },
            );
        });
    }

    // t=27.1: re-subscribe at the recovered rank; the seed holds the
    // latest delta for every live node before the next push round.
    let reseed_poll: Slot<DeltaBatch> = slot();
    {
        let out = Rc::clone(&reseed_poll);
        eng.schedule(
            SimTime::from_micros(27_100_000),
            move |w: &mut World, eng| {
                let q = MonitorQuery::subscribe(SubscriptionFilter::all())
                    .at(leaf)
                    .send(w, eng);
                let out = Rc::clone(&out);
                eng.schedule(
                    SimTime::from_micros(27_500_000),
                    move |w: &mut World, eng| {
                        let sub = q.subscription().unwrap().unwrap();
                        let q = MonitorQuery::poll(sub, 16).at(leaf).send(w, eng);
                        let out = Rc::clone(&out);
                        eng.schedule(
                            SimTime::from_micros(27_900_000),
                            move |_w: &mut World, _| {
                                *out.borrow_mut() =
                                    Some(q.deltas().expect("poll answered").expect("poll ok"));
                            },
                        );
                    },
                );
            },
        );
    }

    eng.run_until(&mut w, SimTime::from_secs(30));

    assert!(!streamed.borrow().is_empty(), "stream flowed before death");
    let err = dead_poll
        .borrow()
        .clone()
        .expect("dead poll resolved")
        .expect_err("old id unknown on the rebuilt relay");
    assert!(err.contains("unknown subscriber"), "got: {err}");

    let batch = reseed_poll.borrow().clone().expect("re-seed resolved");
    let nodes: BTreeSet<u32> = batch.deltas.iter().map(|d| d.node).collect();
    assert_eq!(
        nodes.len(),
        4,
        "snapshot survived at the root and re-seeded the fresh relay: {nodes:?}"
    );
    // The relay module itself was rebuilt by the registered factory.
    assert!(
        w.brokers[leaf.0 as usize].module(RELAY).is_some(),
        "recovered broker hosts a fresh relay"
    );
}

//! Layer replays: each layer's public function timed on inputs taken
//! from the workload run it is reported with — its rank count, tree
//! shape and subscriber count, GPU windows, and node states — so a
//! layer's ns/op multiplies with the run's op count.

use crate::stats::median;
use fluxpm_bench::fpp::FppEpochRig;
use fluxpm_bench::relay_tree::RelayTree;
use fluxpm_bench::workload::DeliveryRig;
use fluxpm_fft::{PeriodAnalyzer, Samples};
use fluxpm_hw::{NodeHardware, NodeId, PowerDemand, Watts};
use std::hint::black_box;
use std::time::Instant;

/// Median over `batches` of the mean ns per call of `f`, called
/// `per_batch` times per batch after one untimed warm-up batch.
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..per_batch {
        f();
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Overlay cost per hop: an echo round trip to the deepest rank of a
/// `nodes`-rank TBON, divided by the hops it crosses.
pub fn overlay_per_hop_ns(nodes: u32) -> f64 {
    let mut rig = DeliveryRig::new(nodes);
    let hops = f64::from(2 * rig.hops());
    ns_per_call(9, 200, || rig.roundtrip()) / hops
}

/// Relay fan-out at the workload's shape: ns per subscriber delivery
/// and root egress messages per offered delta.
pub fn relay(nodes: usize, fanout: usize, subscribers: usize, queue_capacity: usize) -> (f64, f64) {
    let mut tree = RelayTree::new(nodes, fanout, subscribers, queue_capacity);
    let mut delivered = 0u64;
    let mut sweeps = 0u64;
    let ns = ns_per_call(9, 1, || {
        delivered += black_box(tree.publish_sweep());
        sweeps += 1;
    });
    let (msgs, _, offered) = tree.root_egress();
    let per_sweep = delivered as f64 / sweeps as f64;
    (ns / per_sweep.max(1.0), msgs as f64 / offered.max(1) as f64)
}

/// One node manager's FPP epoch (every GPU's period analysis through
/// the shared analyzer) at the controller's GPU count and window.
pub fn fpp_epoch_ns(gpus: usize, window: usize, seed: u64) -> f64 {
    let mut rig = FppEpochRig::new(gpus, window, seed);
    rig.verify_agreement();
    ns_per_call(9, 50, || {
        black_box(rig.planned_epoch());
    })
}

/// Planned Welch and single-window period estimates on captured GPU
/// power windows: `(welch ns, period ns)` per window.
pub fn fft(windows: &[Vec<f64>]) -> (f64, f64) {
    if windows.is_empty() {
        return (0.0, 0.0);
    }
    let mut analyzer = PeriodAnalyzer::new();
    let n = windows[0].len();
    let segment = (n / 2).max(8);
    let per = windows.len();
    let welch = ns_per_call(9, 10, || {
        for w in windows {
            black_box(analyzer.welch_estimate_period(Samples::from(w.as_slice()), 1.0, segment));
        }
    }) / per as f64;
    let period = ns_per_call(9, 10, || {
        for w in windows {
            black_box(analyzer.estimate_period(Samples::from(w.as_slice()), 1.0));
        }
    }) / per as f64;
    (welch, period)
}

/// A node's state as the run left it: demand and caps.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Requested power.
    pub demand: PowerDemand,
    /// OPAL node cap in force.
    pub node_cap: Option<Watts>,
    /// Per-GPU caps in force.
    pub gpu_caps: Vec<Option<Watts>>,
}

impl NodeState {
    /// Capture `node`'s demand and caps.
    pub fn capture(node: &NodeHardware) -> NodeState {
        NodeState {
            demand: node.demand().clone(),
            node_cap: node.node_cap(),
            gpu_caps: node.effective_gpu_caps(),
        }
    }

    fn rebuild(&self, i: usize) -> NodeHardware {
        let mut node = NodeHardware::new(NodeId(i as u32), fluxpm_hw::lassen(), 0xB0D + i as u64);
        node.set_demand(self.demand.clone());
        if let Some(cap) = self.node_cap {
            node.set_node_cap(cap)
                .expect("captured node cap was settable");
        }
        for (gpu, cap) in self.gpu_caps.iter().enumerate() {
            if let Some(cap) = cap {
                node.set_gpu_cap(gpu, *cap)
                    .expect("captured GPU cap was settable");
            }
        }
        node
    }
}

/// Variorum and hardware-model costs on captured node states:
/// `(get_node_power_json ns, read_sensors ns, tick ns)` per node.
pub fn node_models(states: &[NodeState], tick_s: f64) -> (f64, f64, f64) {
    if states.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut nodes: Vec<NodeHardware> = states
        .iter()
        .enumerate()
        .map(|(i, s)| s.rebuild(i))
        .collect();
    let per = nodes.len() as f64;
    let mut ts = 0u64;
    let json = ns_per_call(9, 20, || {
        ts += 1_000_000;
        for n in &mut nodes {
            black_box(fluxpm_variorum::get_node_power_json(n, "node", ts));
        }
    }) / per;
    let read = ns_per_call(9, 20, || {
        for n in &mut nodes {
            black_box(n.read_sensors());
        }
    }) / per;
    let tick = ns_per_call(9, 20, || {
        for n in &mut nodes {
            black_box(n.tick(tick_s));
        }
    }) / per;
    (json, read, tick)
}

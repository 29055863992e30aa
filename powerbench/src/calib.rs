//! Host-speed calibration.
//!
//! On a shared host the same binary and seed can run 1.7× slower for
//! minutes at a time. A fixed kernel timed right before and after each
//! workload iteration measures the host's speed at that moment, and
//! host-time metrics are reported in reference seconds: host seconds
//! scaled to a host on which the kernel takes [`REFERENCE_S`]. A change
//! to the stack moves the workload and not the kernel, so it shows in
//! full; a change in host speed moves both and largely cancels. The
//! kernel is a small discrete-event loop (binary-heap queue, hash-map
//! state, one small allocation per event), so it meets the same cache
//! and allocator pressure as the simulator. It uses only the standard
//! library: no code of the stack runs in it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, of the reference host.
pub const REFERENCE_S: f64 = 0.020;

/// Host seconds the calibration kernel takes right now.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut state: HashMap<u64, Vec<u64>> = HashMap::new();
    for id in 0..4096u64 {
        queue.push(Reverse((next() % 1_000_000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let Reverse((at, id)) = queue.pop().expect("the queue never drains");
        let entry = state.entry(next() % 65_536).or_default();
        if entry.len() < 4 {
            entry.push(at ^ id);
        } else {
            acc = acc.wrapping_add(entry.iter().sum::<u64>());
            entry.clear();
        }
        acc ^= black_box(Box::new([at; 8]))[3];
        queue.push(Reverse((at + 1 + next() % 10_000, id)));
    }
    black_box((acc, state.len()));
    t.elapsed().as_secs_f64()
}

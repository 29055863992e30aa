//! Seeded input generation. The workload seed is the only source of
//! variation: the same seed gives the same queue, subscriber placement
//! and filters, and storm and fleet seeds. The stack receives only
//! these generated inputs.

use fluxpm_experiments::JobRequest;
use fluxpm_flux::JobId;
use fluxpm_monitor::SubscriptionFilter;
use fluxpm_sim::Xoshiro256pp;

/// The paper's five applications.
pub const APPS: [&str; 5] = ["GEMM", "Quicksilver", "LAMMPS", "Laghos", "NQueens"];

/// An independent generator for one input family of one seed.
fn stream(seed: u64, family: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed ^ family.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A queue of `jobs` paper-app jobs: the five apps in equal shares and
/// the sizes 2, 4, 8 and 16 nodes in equal shares, each list in seeded
/// order, with arrivals staggered by seeded gaps of mean `mean_gap_s`.
/// Fixing the shares keeps the queue's total work nearly the same from
/// seed to seed, so seeds vary the schedule, not the amount of work.
pub fn fpp_queue(seed: u64, jobs: usize, mean_gap_s: f64) -> Vec<JobRequest> {
    let mut rng = stream(seed, 1);
    let mut apps: Vec<&str> = (0..jobs).map(|i| APPS[i % APPS.len()]).collect();
    let mut sizes: Vec<u32> = (0..jobs).map(|i| [2, 4, 8, 16][i % 4]).collect();
    shuffle(&mut rng, &mut apps);
    shuffle(&mut rng, &mut sizes);
    let mut t = 0.0;
    apps.into_iter()
        .zip(sizes)
        .map(|(app, nnodes)| {
            let req = JobRequest::new(app, nnodes).submit_at(t);
            t += rng.uniform(0.5 * mean_gap_s, 1.5 * mean_gap_s);
            req
        })
        .collect()
}

/// Fisher–Yates with a seeded stream.
fn shuffle<T>(rng: &mut Xoshiro256pp, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// A long-running job mix for the telemetry world: `count` jobs with
/// sizes spread evenly over 2..=`max_nodes` in seeded order, submitted
/// over the first seconds, each busy well past `horizon_s`, so job
/// filters see a live stream.
pub fn telemetry_jobs(seed: u64, count: usize, max_nodes: u32, horizon_s: f64) -> Vec<JobRequest> {
    assert!(max_nodes >= 2);
    let mut rng = stream(seed, 2);
    let span = u64::from(max_nodes - 2);
    let mut sizes: Vec<u32> = (0..count as u64)
        .map(|i| 2 + (i * span / (count as u64 - 1).max(1)) as u32)
        .collect();
    shuffle(&mut rng, &mut sizes);
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, nnodes)| {
            JobRequest::new(APPS[i % APPS.len()], nnodes)
                .with_work_seconds(horizon_s * 4.0)
                .submit_at(rng.uniform(0.0, 3.0))
        })
        .collect()
}

/// One telemetry subscriber: where it attaches, what it asks for, and
/// how it polls.
#[derive(Debug, Clone, PartialEq)]
pub struct SubSpec {
    /// Leaf rank whose relay serves the subscriber.
    pub rank: u32,
    /// The subscription filter.
    pub filter: SubscriptionFilter,
    /// Poll cadence in simulated seconds.
    pub every_s: u64,
    /// Deltas drained per poll.
    pub max: usize,
}

/// `count` subscribers at seeded leaf ranks with a mixed filter set in
/// fixed shares, assigned in seeded order: a quarter match-all, a third
/// node-set, a quarter one job, the rest cadence-floored. One in twenty
/// is a slow poller (every `slow_every_s` s, small drains) that overruns
/// its queue; the others poll every `every_s` s and drain fully. Fixed
/// shares keep the load nearly the same from seed to seed.
pub fn subscribers(
    seed: u64,
    count: usize,
    leaves: &[u32],
    ranks: u32,
    jobs: u64,
    every_s: u64,
    slow_every_s: u64,
) -> Vec<SubSpec> {
    assert!(!leaves.is_empty() && ranks > 0 && jobs > 0);
    let mut rng = stream(seed, 3);
    // Kind k of 20 slots: 0–4 match-all, 5–11 node-set, 12–16 job,
    // 17–19 cadence-floored; slot 0 of every 20 also polls slowly.
    let mut kinds: Vec<usize> = (0..count).map(|i| i % 20).collect();
    shuffle(&mut rng, &mut kinds);
    let node_set = |rng: &mut Xoshiro256pp| {
        let n = rng.range_inclusive(8, 32) as usize;
        let mut nodes: Vec<u32> = (0..n).map(|_| rng.below(u64::from(ranks)) as u32).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    };
    kinds
        .into_iter()
        .map(|kind| {
            let rank = leaves[rng.below(leaves.len() as u64) as usize];
            let filter = match kind {
                0..=4 => SubscriptionFilter::all(),
                5..=11 => SubscriptionFilter::all().with_nodes(node_set(&mut rng)),
                12..=16 => SubscriptionFilter::all().with_job(JobId(rng.below(jobs))),
                _ => {
                    let floor_us = 1_000_000 * rng.range_inclusive(2, 4);
                    let base = if kind == 17 {
                        SubscriptionFilter::all()
                    } else {
                        SubscriptionFilter::all().with_nodes(node_set(&mut rng))
                    };
                    base.with_min_interval_us(floor_us)
                }
            };
            let (every_s, max) = if kind == 0 {
                (slow_every_s, 64)
            } else {
                (every_s, 1 << 16)
            };
            SubSpec {
                rank,
                filter,
                every_s,
                max,
            }
        })
        .collect()
}

/// `k` storm seeds derived from the workload seed.
pub fn storm_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = stream(seed, 4);
    (0..k).map(|_| rng.next_u64()).collect()
}

/// The fleet's world seed, derived from the workload seed.
pub fn fleet_seed(seed: u64) -> u64 {
    stream(seed, 5).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fpp_queue(7, 20, 3.0), fpp_queue(7, 20, 3.0));
        assert_ne!(fpp_queue(7, 20, 3.0), fpp_queue(8, 20, 3.0));
        let leaves = [5u32, 6, 7];
        assert_eq!(
            subscribers(7, 50, &leaves, 8, 3, 2, 10),
            subscribers(7, 50, &leaves, 8, 3, 2, 10)
        );
        assert_eq!(storm_seeds(1, 3), storm_seeds(1, 3));
    }

    #[test]
    fn queue_holds_every_app_in_equal_shares() {
        let q = fpp_queue(3, 25, 2.0);
        for app in APPS {
            assert_eq!(q.iter().filter(|j| j.app == app).count(), 5);
        }
        assert!(q.windows(2).all(|w| w[0].submit_at_s <= w[1].submit_at_s));
    }
}

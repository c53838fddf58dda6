//! Algorithm 3: parallel bit-matrix evaluation of same generation,
//! plus the coordinated variant of Figure 7.
//!
//! ```text
//! sg(x, y) :- arc(p, x), arc(p, y), x != y.
//! sg(x, y) :- arc(a, x), sg(a, b), arc(b, y).
//! ```
//!
//! Unlike TC, a pair `(a, b)` in δ produces pairs `(q, p)` in *arbitrary*
//! rows (`q ∈ Varc[a]`, `p ∈ Varc[b]`), so newly produced work is not tied
//! to the thread's row partition — the source of the data skew the paper
//! discusses. [`sg_closure`] is the zero-coordination variant (each thread
//! keeps everything it generates); [`sg_closure_coordinated`] re-balances by
//! packing local δ overflow into work orders on a global pool.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use recstep_common::sched::ThreadPool;

use crate::{AdjIndex, BitMatrix};

/// Seed `Msg` and return the adjacency index shared by both variants, plus
/// the number of bits set. `Msg` stores all `n` rows: δ writes into
/// arbitrary rows, so slots are vertices. With `seeds = None` the
/// same-parent pairs of Algorithm 3 line 9 are generated; otherwise the
/// provided pairs (e.g. an already-evaluated seed stratum) initialize the
/// matrix.
fn seed(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    seeds: Option<&[(u32, u32)]>,
) -> (AdjIndex, BitMatrix, usize) {
    let arc = AdjIndex::new(n, edges);
    let msg = BitMatrix::new(n);
    let ones = AtomicUsize::new(0);
    match seeds {
        Some(pairs) => {
            pool.parallel_for(pairs.len(), 4096, |range, _| {
                let mut fresh = 0usize;
                for e in range {
                    let (x, y) = pairs[e];
                    fresh += usize::from(msg.set(x as usize, y as usize));
                }
                ones.fetch_add(fresh, Ordering::Relaxed);
            });
        }
        None => {
            pool.parallel_for(n, 64, |range, _| {
                let mut fresh = 0usize;
                for p in range {
                    let children = arc.neighbors(p as u32);
                    for &x in children {
                        for &y in children {
                            if x != y {
                                fresh += usize::from(msg.set(x as usize, y as usize));
                            }
                        }
                    }
                }
                ones.fetch_add(fresh, Ordering::Relaxed);
            });
        }
    }
    (arc, msg, ones.into_inner())
}

/// Expand one δ pair, pushing newly set pairs onto `out`; returns how many
/// were pushed.
#[inline]
fn expand(arc: &AdjIndex, msg: &BitMatrix, a: u32, b: u32, out: &mut Vec<(u32, u32)>) -> usize {
    let before = out.len();
    for &q in arc.neighbors(a) {
        for &p in arc.neighbors(b) {
            if msg.set(q as usize, p as usize) {
                out.push((q, p));
            }
        }
    }
    out.len() - before
}

/// Same-generation closure, zero-coordination variant (paper Algorithm 3).
pub fn sg_closure(pool: &ThreadPool, n: usize, edges: &[(u32, u32)]) -> BitMatrix {
    sg_closure_seeded(pool, n, edges, None)
}

/// Zero-coordination SG closure from explicit seed pairs (`None` = generate
/// the same-parent seed of Algorithm 3).
pub fn sg_closure_seeded(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    seeds: Option<&[(u32, u32)]>,
) -> BitMatrix {
    let (arc, mut msg, seeded) = seed(pool, n, edges, seeds);
    let ones = AtomicUsize::new(seeded);
    pool.run(|ctx| {
        // Initial δ: the seeded bits of this thread's row partition
        // (round-robin, line 10).
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut row = ctx.worker;
        while row < n {
            for col in msg.slot_ones(row) {
                stack.push((row as u32, col as u32));
            }
            row += ctx.threads;
        }
        // Work generated lands on the generating thread, wherever its row
        // partition is — the skew the coordinated variant fixes.
        let mut fresh = 0usize;
        while let Some((a, b)) = stack.pop() {
            fresh += expand(&arc, &msg, a, b, &mut stack);
        }
        ones.fetch_add(fresh, Ordering::Relaxed);
    });
    msg.set_ones(ones.into_inner());
    msg
}

/// Instrumentation of the coordinated variant.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordStats {
    /// Work orders posted to the global pool.
    pub orders_posted: u64,
    /// Work orders grabbed by idle threads.
    pub orders_grabbed: u64,
    /// Pairs shipped through the pool.
    pub pairs_shipped: u64,
}

/// Same-generation closure with work re-balancing (Figure 7's
/// SG-PBME-COORD): when a thread's local δ exceeds `threshold`, the
/// overflow is packed as a work order and published to a global pool;
/// idle threads grab orders. Termination is detected when every thread is
/// idle and the pool is empty.
pub fn sg_closure_coordinated(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    threshold: usize,
) -> (BitMatrix, CoordStats) {
    sg_closure_coordinated_seeded(pool, n, edges, threshold, None)
}

/// Coordinated SG closure from explicit seed pairs (`None` = generate the
/// same-parent seed of Algorithm 3).
pub fn sg_closure_coordinated_seeded(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    threshold: usize,
    seeds: Option<&[(u32, u32)]>,
) -> (BitMatrix, CoordStats) {
    let threshold = threshold.max(1);
    let (arc, mut msg, seeded) = seed(pool, n, edges, seeds);
    let ones = AtomicUsize::new(seeded);
    let global: Mutex<Vec<Vec<(u32, u32)>>> = Mutex::new(Vec::new());
    let idle = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let posted = AtomicU64::new(0);
    let grabbed = AtomicU64::new(0);
    let shipped = AtomicU64::new(0);

    pool.run(|ctx| {
        let mut local: Vec<(u32, u32)> = Vec::new();
        let mut fresh = 0usize;
        let mut row = ctx.worker;
        while row < n {
            for col in msg.slot_ones(row) {
                local.push((row as u32, col as u32));
            }
            row += ctx.threads;
        }
        'work: loop {
            if let Some((a, b)) = local.pop() {
                fresh += expand(&arc, &msg, a, b, &mut local);
                // Aggregate overflow into a work order (paper: "the δ is
                // aggregated and packed as a work order").
                if local.len() > threshold {
                    let order: Vec<(u32, u32)> = local.split_off(local.len() / 2);
                    shipped.fetch_add(order.len() as u64, Ordering::Relaxed);
                    posted.fetch_add(1, Ordering::Relaxed);
                    global.lock().push(order);
                }
                continue;
            }
            // Local queue drained: become idle and look for work orders.
            idle.fetch_add(1, Ordering::SeqCst);
            loop {
                if done.load(Ordering::SeqCst) {
                    break 'work;
                }
                let mut pool_guard = global.lock();
                if let Some(order) = pool_guard.pop() {
                    // Leave idle state while still holding the lock so the
                    // termination check below stays consistent.
                    idle.fetch_sub(1, Ordering::SeqCst);
                    drop(pool_guard);
                    grabbed.fetch_add(1, Ordering::Relaxed);
                    local = order;
                    break;
                }
                if idle.load(Ordering::SeqCst) == ctx.threads {
                    // Pool empty and everyone idle (checked under the pool
                    // lock): nothing can be produced any more.
                    done.store(true, Ordering::SeqCst);
                    break 'work;
                }
                drop(pool_guard);
                std::thread::yield_now();
            }
        }
        ones.fetch_add(fresh, Ordering::Relaxed);
    });
    msg.set_ones(ones.into_inner());
    (
        msg,
        CoordStats {
            orders_posted: posted.load(Ordering::Relaxed),
            orders_grabbed: grabbed.load(Ordering::Relaxed),
            pairs_shipped: shipped.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Naïve fixpoint oracle for SG.
    fn oracle_sg(n: usize, edges: &[(u32, u32)]) -> HashSet<(u32, u32)> {
        let arc = AdjIndex::new(n, edges);
        let mut sg: HashSet<(u32, u32)> = HashSet::new();
        for p in 0..n as u32 {
            for &x in arc.neighbors(p) {
                for &y in arc.neighbors(p) {
                    if x != y {
                        sg.insert((x, y));
                    }
                }
            }
        }
        loop {
            let mut fresh = Vec::new();
            for &(a, b) in &sg {
                for &x in arc.neighbors(a) {
                    for &y in arc.neighbors(b) {
                        if !sg.contains(&(x, y)) {
                            fresh.push((x, y));
                        }
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            sg.extend(fresh);
        }
        sg
    }

    fn rand_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..m).map(|_| (rnd() % n, rnd() % n)).collect()
    }

    fn as_set(m: &BitMatrix) -> HashSet<(u32, u32)> {
        let set: HashSet<(u32, u32)> = m.to_pairs().into_iter().collect();
        assert_eq!(m.ones(), set.len(), "kernel-counted ones");
        set
    }

    #[test]
    fn tree_same_generation() {
        // Binary tree: 0 -> 1,2; 1 -> 3,4; 2 -> 5,6.
        let edges = [(0u32, 1u32), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let pool = ThreadPool::new(3);
        let msg = sg_closure(&pool, 7, &edges);
        let expect = oracle_sg(7, &edges);
        assert_eq!(as_set(&msg), expect);
        // Siblings and cousins are same-generation.
        assert!(msg.get(1, 2));
        assert!(msg.get(3, 5));
        assert!(!msg.get(1, 3));
    }

    #[test]
    fn random_graphs_match_oracle_both_variants() {
        for seed in [7u64, 42, 99] {
            let n = 40;
            let edges = rand_edges(n, 150, seed);
            let expect = oracle_sg(n as usize, &edges);
            let pool = ThreadPool::new(4);
            let plain = sg_closure(&pool, n as usize, &edges);
            assert_eq!(as_set(&plain), expect, "plain, seed {seed}");
            let (coord, stats) = sg_closure_coordinated(&pool, n as usize, &edges, 8);
            assert_eq!(as_set(&coord), expect, "coordinated, seed {seed}");
            // Orders grabbed never exceeds orders posted.
            assert!(stats.orders_grabbed <= stats.orders_posted);
        }
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let msg = sg_closure(&pool, 5, &[]);
        assert_eq!(msg.ones(), 0);
        let (msg, stats) = sg_closure_coordinated(&pool, 5, &[], 4);
        assert_eq!(msg.ones(), 0);
        assert_eq!(stats.orders_posted, 0);
    }

    #[test]
    fn single_threaded_variants_agree() {
        let edges = rand_edges(25, 80, 5);
        let pool = ThreadPool::new(1);
        let a = sg_closure(&pool, 25, &edges);
        let (b, _) = sg_closure_coordinated(&pool, 25, &edges, 2);
        assert_eq!(as_set(&a), as_set(&b));
    }

    #[test]
    fn skewed_graph_ships_work_orders() {
        // A "hub" fanning out: one thread's partition generates nearly all
        // work, forcing re-balancing through the pool.
        let mut edges = Vec::new();
        let fan = 48u32;
        for i in 0..fan {
            edges.push((0, 1 + i)); // shared parent -> dense sg seed rows
            edges.push((1 + i, 1 + (i + 1) % fan));
        }
        let n = fan as usize + 1;
        let expect = oracle_sg(n, &edges);
        let pool = ThreadPool::new(4);
        let (coord, stats) = sg_closure_coordinated(&pool, n, &edges, 4);
        assert_eq!(as_set(&coord), expect);
        assert!(stats.orders_posted > 0, "skew must trigger work orders");
    }
}

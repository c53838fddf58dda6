//! Algorithm 2: parallel bit-matrix evaluation of transitive closure.
//!
//! Rows of `Mtc` are partitioned round-robin over `k` threads; each thread
//! runs the per-row frontier loop (lines 8–21) with **zero coordination**:
//! row `i`'s evaluation only ever updates row `i`, so threads never contend.
//!
//! Row `i` of `R(x, y) :- R(x, z), arc(z, y)` gets bits only if `i` is the
//! source of a seed pair, so `Mtc` stores just those rows: a sparse seed
//! set over a large vertex domain costs `rows × n` bits, not `n × n`.

use std::sync::atomic::{AtomicUsize, Ordering};

use recstep_common::sched::ThreadPool;

use crate::{AdjIndex, BitMatrix};

/// Compute the transitive closure of `edges` over vertices `0..n`.
///
/// Returns `Mtc` with `Mtc[i, j] = 1` iff `j` is reachable from `i` by a
/// non-empty path.
pub fn tc_closure(pool: &ThreadPool, n: usize, edges: &[(u32, u32)]) -> BitMatrix {
    tc_closure_seeded(pool, n, edges, edges)
}

/// The distinct values of `sources` (all below `n`) in ascending order:
/// the rows Algorithm 2 can fill for seeds with these sources.
pub fn seed_rows(n: usize, sources: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut marks = vec![0u64; n.div_ceil(64)];
    let mut rows = 0usize;
    for s in sources {
        let (w, bit) = (s as usize / 64, 1u64 << (s % 64));
        rows += usize::from(marks[w] & bit == 0);
        marks[w] |= bit;
    }
    let mut out = Vec::with_capacity(rows);
    for (w, &word) in marks.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            out.push((w * 64) as u32 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    out
}

/// Generalized Algorithm 2: close `seeds` under right-composition with
/// `edges` — the fixpoint of `R(x, y) :- R(x, z), arc(z, y)` with `R`
/// initialized to `seeds`. With `seeds = edges` this is the paper's TC
/// (`Mtc ← Marc`, line 5). The matrix stores one row per distinct seed
/// source ([`seed_rows`]).
pub fn tc_closure_seeded(
    pool: &ThreadPool,
    n: usize,
    seeds: &[(u32, u32)],
    edges: &[(u32, u32)],
) -> BitMatrix {
    let arc = AdjIndex::new(n, edges);
    let mut mtc = BitMatrix::with_rows(n, seed_rows(n, seeds.iter().map(|&(s, _)| s)));
    let ones = AtomicUsize::new(0);
    pool.parallel_for(seeds.len(), 4096, |range, _| {
        let mut fresh = 0usize;
        for e in range {
            let (s, t) = seeds[e];
            let slot = mtc.slot(s as usize).expect("every seed source has a row");
            fresh += usize::from(mtc.set(slot, t as usize));
        }
        ones.fetch_add(fresh, Ordering::Relaxed);
    });
    // Round-robin row partitions (line 6), one frontier loop per row.
    let rows = mtc.rows();
    pool.run(|ctx| {
        let mut delta: Vec<u32> = Vec::new();
        let mut delta_next: Vec<u32> = Vec::new();
        let mut fresh = 0usize;
        let mut slot = ctx.worker;
        while slot < rows {
            // δ ← {u | Mtc[i, u] = 1} (line 9).
            delta.clear();
            delta.extend(mtc.slot_ones(slot).map(|u| u as u32));
            while !delta.is_empty() {
                delta_next.clear();
                for &t in &delta {
                    for &j in arc.neighbors(t) {
                        // Lines 14-16: test-and-set fused join/dedup.
                        if mtc.set(slot, j as usize) {
                            delta_next.push(j);
                        }
                    }
                }
                fresh += delta_next.len();
                std::mem::swap(&mut delta, &mut delta_next);
            }
            slot += ctx.threads;
        }
        ones.fetch_add(fresh, Ordering::Relaxed);
    });
    mtc.set_ones(ones.into_inner());
    mtc
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use recstep_common::sched::ThreadPool;

    /// Floyd–Warshall oracle.
    fn oracle_tc(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; n]; n];
        for &(s, t) in edges {
            reach[s as usize][t as usize] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i][k] {
                    for j in 0..n {
                        if reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
        }
        reach
    }

    fn check(n: usize, edges: &[(u32, u32)], threads: usize) {
        check_seeded(n, edges, edges, threads);
    }

    /// Closure of `seeds` under `edges` against the oracle: `(x, y)` holds
    /// iff some seed `(x, z)` has `z = y` or `z` reaching `y`.
    fn check_seeded(n: usize, seeds: &[(u32, u32)], edges: &[(u32, u32)], threads: usize) {
        let pool = ThreadPool::new(threads);
        let mtc = tc_closure_seeded(&pool, n, seeds, edges);
        let reach = oracle_tc(n, edges);
        let mut expect = vec![vec![false; n]; n];
        for &(x, z) in seeds {
            expect[x as usize][z as usize] = true;
            for y in 0..n {
                expect[x as usize][y] |= reach[z as usize][y];
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(mtc.get(i, j), expect[i][j], "mismatch at ({i},{j})");
            }
        }
        let ones = expect.iter().flatten().filter(|&&b| b).count();
        assert_eq!(mtc.ones(), ones, "kernel-counted ones");
        assert_eq!(mtc.to_pairs().len(), ones);
        let sources: std::collections::BTreeSet<u32> = seeds.iter().map(|s| s.0).collect();
        assert_eq!(mtc.rows(), sources.len(), "one stored row per seed source");
        assert_eq!(
            mtc.heap_bytes(),
            BitMatrix::bytes_for(sources.len(), n),
            "fit-check estimate matches the allocation"
        );
    }

    #[test]
    fn chain_and_cycle() {
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 2);
        check(4, &[(0, 1), (1, 2), (2, 0)], 3);
    }

    #[test]
    fn empty_and_self_loops() {
        check(3, &[], 2);
        check(3, &[(1, 1)], 2);
    }

    #[test]
    fn random_graph_matches_oracle() {
        let n = 60;
        let mut edges = Vec::new();
        let mut state = 123456789u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..250 {
            edges.push((rnd() % n as u32, rnd() % n as u32));
        }
        check(n, &edges, 4);
        check(n, &edges, 1);
    }

    #[test]
    fn dense_block_closure() {
        // Complete bipartite-ish structure: 0..5 -> 5..10 -> 0..5.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 5..10u32 {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
        let pool = ThreadPool::new(4);
        let mtc = tc_closure(&pool, 10, &edges);
        // Everything reaches everything.
        assert_eq!(mtc.ones(), 100);
    }

    #[test]
    fn seed_rows_are_distinct_ascending_sources() {
        assert_eq!(seed_rows(200, [199, 3, 64, 3, 0, 199]), vec![0, 3, 64, 199]);
        assert!(seed_rows(10, []).is_empty());
    }

    #[test]
    fn compacted_rows_match_oracle() {
        // A chain 0 -> 1 -> ... -> 129 plus a self-loop on 129 and a back
        // edge 70 -> 5: every vertex is an edge source.
        let n = 130;
        let mut edges: Vec<(u32, u32)> = (0..129).map(|v| (v, v + 1)).collect();
        edges.push((129, 129));
        edges.push((70, 5));
        // Seed sources are a strict subset of the edge sources: most
        // vertices (0, 1, 2, ...) get no row and must read as empty.
        // Sources sit at high ids (128, 129 in the last word) and two
        // seeds are self-loops.
        let seeds = [(129, 129), (128, 3), (64, 64), (64, 100), (7, 129)];
        for threads in [1, 3] {
            check_seeded(n, &seeds, &edges, threads);
        }
        // No seeds at all: an empty matrix, whatever the edges.
        check_seeded(n, &[], &edges, 2);
        // Seeds over a vertex with no out-edges: nothing beyond the seed.
        check_seeded(n, &[(3, 129)], &[(0, 1)], 2);
    }
}

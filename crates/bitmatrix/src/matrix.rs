//! The atomic bit matrix: `rows × n`, one stored row per vertex that can
//! ever hold a bit.
//!
//! Bits are packed 64 per word, row-major. Writes use `fetch_or` so rows can
//! be updated from any thread (Algorithm 3's δ is not tied to row
//! partitions); reads are relaxed loads. A kernel's `set` reports whether
//! the bit was newly set, which is exactly the duplicate test fused into the
//! join ("merging the join and deduplication into one single stage").
//!
//! Stored rows are addressed by *slot* (`0..rows()`); the matrix keeps the
//! vertex id of each slot ([`BitMatrix::row_id`]), in ascending order.
//! Kernels write and scan by slot ([`BitMatrix::slot_ones`]); point reads
//! ([`BitMatrix::get`]) and [`BitMatrix::to_pairs`] are in vertex space,
//! where a vertex without a stored row reads as an all-zero row. A square
//! matrix stores every row, so its slots are its vertices.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bit matrix over `rows` stored rows and columns `0..n`.
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    /// Vertex id of each stored row, strictly ascending.
    row_ids: Vec<u32>,
    bits: Vec<AtomicU64>,
    /// Set bits, as counted by the kernel that filled the matrix.
    ones: usize,
}

impl BitMatrix {
    /// All-zero square `n × n` matrix (every vertex has its row).
    pub(crate) fn new(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("vertex domain exceeds u32");
        Self::with_rows(n, (0..n32).collect())
    }

    /// All-zero matrix storing only the rows of `row_ids` (strictly
    /// ascending vertex ids below `n`).
    pub(crate) fn with_rows(n: usize, row_ids: Vec<u32>) -> Self {
        debug_assert!(row_ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(row_ids.last().is_none_or(|&v| (v as usize) < n));
        let words_per_row = n.div_ceil(64);
        let total = words_per_row
            .checked_mul(row_ids.len())
            .expect("bit matrix too large");
        let mut bits = Vec::with_capacity(total);
        bits.resize_with(total, || AtomicU64::new(0));
        BitMatrix {
            n,
            words_per_row,
            row_ids,
            bits,
            ones: 0,
        }
    }

    /// Column count: the vertex domain.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_ids.len()
    }

    /// Vertex id of stored row `slot`.
    #[inline]
    pub fn row_id(&self, slot: usize) -> u32 {
        self.row_ids[slot]
    }

    /// Slot of vertex `i`'s row, or `None` when the row is not stored.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Option<usize> {
        if self.row_ids.len() == self.n {
            // Every vertex stored: the ascending ids are exactly 0..n.
            (i < self.n).then_some(i)
        } else {
            self.row_ids.binary_search(&u32::try_from(i).ok()?).ok()
        }
    }

    /// Heap bytes a `rows × n` matrix occupies, bit rows plus row map (the
    /// paper's memory-fit check uses this *before* allocating).
    pub fn bytes_for(rows: usize, n: usize) -> usize {
        rows.saturating_mul(n.div_ceil(64) * 8 + 4)
    }

    /// Heap footprint in bytes: bit rows plus row map.
    pub fn heap_bytes(&self) -> usize {
        self.bit_bytes() + self.row_ids.capacity() * 4
    }

    /// Bytes of the bit rows alone.
    pub fn bit_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }

    /// Number of set bits: the pairs of the closure.
    #[inline]
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Record the number of set bits (kernels count their fresh sets).
    pub(crate) fn set_ones(&mut self, ones: usize) {
        self.ones = ones;
    }

    /// Set bit `(row_id(slot), j)`; returns `true` iff it was previously 0.
    #[inline]
    pub(crate) fn set(&self, slot: usize, j: usize) -> bool {
        debug_assert!(slot < self.rows() && j < self.n);
        let word = slot * self.words_per_row + j / 64;
        let mask = 1u64 << (j % 64);
        let prev = self.bits[word].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Read bit `(i, j)` of vertex row `i`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        let Some(slot) = self.slot(i) else {
            return false;
        };
        let word = slot * self.words_per_row + j / 64;
        let mask = 1u64 << (j % 64);
        self.bits[word].load(Ordering::Relaxed) & mask != 0
    }

    /// Iterate the set columns of stored row `slot`.
    pub fn slot_ones(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        let base = slot * self.words_per_row;
        let n = self.n;
        (0..self.words_per_row).flat_map(move |w| {
            let mut word = self.bits[base + w].load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + bit)
            })
            .filter(move |&j| j < n)
        })
    }

    /// Materialize all set bits as `(row, col)` vertex pairs.
    pub fn to_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.ones);
        for slot in 0..self.rows() {
            let i = self.row_id(slot);
            out.extend(self.slot_ones(slot).map(|j| (i, j as u32)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reports_novelty() {
        let m = BitMatrix::new(10);
        assert!(m.set(3, 7));
        assert!(!m.set(3, 7));
        assert!(m.get(3, 7));
        assert!(!m.get(7, 3));
    }

    #[test]
    fn row_iteration_across_word_boundaries() {
        let m = BitMatrix::new(130);
        for j in [0usize, 63, 64, 65, 127, 128, 129] {
            m.set(5, j);
        }
        let got: Vec<usize> = m.slot_ones(5).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 129]);
        assert_eq!(m.to_pairs().len(), 7);
    }

    #[test]
    fn to_pairs_round_trips() {
        let m = BitMatrix::new(6);
        let pairs = [(0u32, 5u32), (2, 2), (5, 0)];
        for &(i, j) in &pairs {
            m.set(i as usize, j as usize);
        }
        let mut got = m.to_pairs();
        got.sort_unstable();
        assert_eq!(got, pairs.to_vec());
    }

    #[test]
    fn compacted_rows_read_in_vertex_space() {
        // Rows only for vertices 2 and 199 (a high id in the last word);
        // every other vertex reads as an empty row.
        let m = BitMatrix::with_rows(200, vec![2, 199]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.slot(2), Some(0));
        assert_eq!(m.slot(199), Some(1));
        assert_eq!(m.slot(0), None);
        assert_eq!(m.slot(198), None);
        assert_eq!(m.slot(1 << 40), None);
        assert!(m.set(1, 199)); // self-loop on vertex 199
        assert!(m.set(1, 0));
        assert!(m.set(0, 64));
        assert!(m.get(199, 199));
        assert!(m.get(199, 0));
        assert!(m.get(2, 64));
        assert!(!m.get(0, 64), "vertex 0 has no stored row");
        assert_eq!(m.slot_ones(1).collect::<Vec<_>>(), vec![0, 199]);
        assert_eq!(m.row_id(1), 199);
        let mut got = m.to_pairs();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 64), (199, 0), (199, 199)]);
    }

    #[test]
    fn bytes_estimate_matches_allocation() {
        assert_eq!(BitMatrix::bytes_for(64, 64), 64 * (8 + 4));
        assert_eq!(BitMatrix::bytes_for(65, 65), 65 * (2 * 8 + 4));
        let m = BitMatrix::new(65);
        assert_eq!(m.heap_bytes(), BitMatrix::bytes_for(65, 65));
        // Row-compacted: only the stored rows and their ids are paid for.
        let m = BitMatrix::with_rows(40_000, vec![0, 17, 39_999]);
        assert_eq!(m.heap_bytes(), BitMatrix::bytes_for(3, 40_000));
        assert_eq!(m.heap_bytes(), 3 * 625 * 8 + 3 * 4);
        assert_eq!(m.bit_bytes(), 3 * 625 * 8);
        let m = BitMatrix::with_rows(10, Vec::new());
        assert_eq!(m.heap_bytes(), BitMatrix::bytes_for(0, 10));
        assert!(m.to_pairs().is_empty());
    }

    #[test]
    fn concurrent_sets_count_once() {
        let m = std::sync::Arc::new(BitMatrix::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut fresh = 0usize;
                for i in 0..64 {
                    for j in 0..64 {
                        if m.set(i, j) {
                            fresh += 1;
                        }
                    }
                }
                fresh
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 64 * 64);
        assert_eq!(m.to_pairs().len(), 64 * 64);
    }
}

//! PBME pattern detection and dispatch (paper §5.3).
//!
//! The engine swaps tuple-based evaluation of a recursive stratum for
//! parallel bit-matrix evaluation when the stratum *is* transitive closure
//! or same generation over a binary EDB, and (in
//! [`PbmeMode::Auto`](crate::PbmeMode::Auto)) when
//! the matrix plus index fits the memory budget — the paper's rule: "We
//! decide to build the bit-matrix data structure only if the memory
//! available can fit both the bit matrix, as well as any additional index
//! data structures used during evaluation." The matrix is sized by the rows
//! it stores: one per distinct seed source for TC (no other row can get a
//! bit), all `n` for SG (δ writes into arbitrary rows).

use recstep_common::lang::Expr;
use recstep_datalog::{AtomVersion, CompiledStratum};

/// A stratum PBME can take over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbmePlan {
    /// `R(x,y) :- R(x,z), E(z,y).` (or the mirrored left-composition form).
    Tc {
        /// The recursive IDB.
        idb: String,
        /// The binary EDB composed with.
        edges: String,
        /// True for `R(x,y) :- E(x,z), R(z,y).` — evaluated on the
        /// transposed graph.
        mirrored: bool,
    },
    /// `R(x,y) :- E(a,x), R(a,b), E(b,y).`
    Sg {
        /// The recursive IDB.
        idb: String,
        /// The binary EDB.
        edges: String,
    },
}

impl PbmePlan {
    /// Name of the IDB the plan evaluates.
    pub fn idb(&self) -> &str {
        match self {
            PbmePlan::Tc { idb, .. } | PbmePlan::Sg { idb, .. } => idb,
        }
    }

    /// Name of the EDB the plan composes with.
    pub fn edges(&self) -> &str {
        match self {
            PbmePlan::Tc { edges, .. } | PbmePlan::Sg { edges, .. } => edges,
        }
    }
}

/// Match a recursive stratum against the TC and SG shapes.
pub fn detect(stratum: &CompiledStratum) -> Option<PbmePlan> {
    if !stratum.recursive || stratum.idbs.len() != 1 {
        return None;
    }
    let idb = &stratum.idbs[0];
    if idb.agg.is_some() || idb.arity != 2 || idb.subqueries.len() != 1 {
        return None;
    }
    let sq = &idb.subqueries[0];
    let clean = sq.residual.is_empty()
        && sq.negations.is_empty()
        && sq
            .scans
            .iter()
            .all(|s| s.filters.is_empty() && s.arity == 2);
    if !clean {
        return None;
    }
    match sq.scans.len() {
        2 => {
            let (s0, s1) = (&sq.scans[0], &sq.scans[1]);
            let join = &sq.joins[0];
            let head_ok = sq.head_exprs == vec![Expr::Col(0), Expr::Col(3)];
            let keys_ok = join.left_keys == vec![1] && join.right_keys == vec![0];
            if !(head_ok && keys_ok) {
                return None;
            }
            // R(x,y) :- R(x,z), E(z,y).
            if s0.version == AtomVersion::Delta
                && s0.rel == idb.rel
                && s1.version == AtomVersion::Base
                && s1.rel != idb.rel
            {
                return Some(PbmePlan::Tc {
                    idb: idb.rel.clone(),
                    edges: s1.rel.clone(),
                    mirrored: false,
                });
            }
            // R(x,y) :- E(x,z), R(z,y).
            if s0.version == AtomVersion::Base
                && s0.rel != idb.rel
                && s1.version == AtomVersion::Delta
                && s1.rel == idb.rel
            {
                return Some(PbmePlan::Tc {
                    idb: idb.rel.clone(),
                    edges: s0.rel.clone(),
                    mirrored: true,
                });
            }
            None
        }
        3 => {
            // R(x,y) :- E(a,x), R(a,b), E(b,y).
            let (s0, s1, s2) = (&sq.scans[0], &sq.scans[1], &sq.scans[2]);
            let ok = s0.version == AtomVersion::Base
                && s2.version == AtomVersion::Base
                && s0.rel == s2.rel
                && s0.rel != idb.rel
                && s1.version == AtomVersion::Delta
                && s1.rel == idb.rel
                && sq.joins[0].left_keys == vec![0]
                && sq.joins[0].right_keys == vec![0]
                && sq.joins[1].left_keys == vec![3]
                && sq.joins[1].right_keys == vec![0]
                && sq.head_exprs == vec![Expr::Col(1), Expr::Col(5)];
            if ok {
                Some(PbmePlan::Sg {
                    idb: idb.rel.clone(),
                    edges: s0.rel.clone(),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The paper's memory-fit condition: the bytes of a `rows × n` matrix
/// (bit rows plus row map) plus index bytes within the budget.
pub fn fits_budget(rows: usize, n: usize, edge_count: usize, budget_bytes: usize) -> bool {
    let matrix = recstep_bitmatrix::BitMatrix::bytes_for(rows, n);
    let index = (n + 1) * 4 + edge_count * 4; // CSR adjacency
    matrix.saturating_add(index) <= budget_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_datalog::{analyze::analyze, parser::parse, plan::compile};

    fn strata_of(src: &str) -> Vec<CompiledStratum> {
        compile(&analyze(parse(src).unwrap()).unwrap())
            .unwrap()
            .strata
    }

    #[test]
    fn detects_canonical_tc() {
        let strata = strata_of(recstep_datalog::programs::TC);
        assert_eq!(detect(&strata[0]), None);
        assert_eq!(
            detect(&strata[1]),
            Some(PbmePlan::Tc {
                idb: "tc".into(),
                edges: "arc".into(),
                mirrored: false
            })
        );
    }

    #[test]
    fn detects_mirrored_tc() {
        let strata = strata_of("tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).");
        assert_eq!(
            detect(&strata[1]),
            Some(PbmePlan::Tc {
                idb: "tc".into(),
                edges: "arc".into(),
                mirrored: true
            })
        );
    }

    #[test]
    fn detects_sg() {
        let strata = strata_of(recstep_datalog::programs::SG);
        let rec = strata.iter().find(|s| s.recursive).unwrap();
        assert_eq!(
            detect(rec),
            Some(PbmePlan::Sg {
                idb: "sg".into(),
                edges: "arc".into()
            })
        );
    }

    #[test]
    fn rejects_reach_and_other_shapes() {
        // REACH is monadic — not a bit-matrix candidate.
        let strata = strata_of(recstep_datalog::programs::REACH);
        for s in &strata {
            assert_eq!(detect(s), None);
        }
        // Residual predicates disqualify.
        let strata = strata_of("t(x, y) :- e(x, y).\nt(x, y) :- t(x, z), e(z, y), x != y.");
        let rec = strata.iter().find(|s| s.recursive).unwrap();
        assert_eq!(detect(rec), None);
        // Mutual recursion disqualifies.
        let strata = strata_of(recstep_datalog::programs::CSPA);
        for s in &strata {
            assert_eq!(detect(s), None);
        }
    }

    #[test]
    fn budget_check() {
        // 1000 vertices → 125 KB square matrix.
        assert!(fits_budget(1000, 1000, 10_000, 1 << 20));
        assert!(!fits_budget(100_000, 100_000, 10_000, 1 << 20)); // 1.25 GB matrix
                                                                  // 400 stored rows over 40k vertices: 2 MB, where the square
                                                                  // matrix would take 200 MB.
        assert!(fits_budget(400, 40_000, 40_000, 16 << 20));
        assert!(!fits_budget(40_000, 40_000, 40_000, 16 << 20));
    }
}

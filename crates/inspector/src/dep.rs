//! Dependence graphs over loop index sets.
//!
//! A [`DepGraph`] records, for every outer-loop index `i`, the set of indices
//! whose results `i` consumes. For the paper's *start-time schedulable*
//! loops all dependences are **forward**: `dep < i` in the original
//! sequential order (a row substitution only reads already-computed rows).
//! The graph is stored in CSR-like adjacency form.

use crate::{InspectorError, Result};
use rtpl_sparse::wire::{WireError, WireReader, WireResult, WireWriter};
use rtpl_sparse::Csr;

/// An immutable dependence DAG: `deps(i)` lists the indices that must
/// complete before `i` may execute.
#[derive(Clone, Debug, PartialEq)]
pub struct DepGraph {
    n: usize,
    indptr: Vec<usize>,
    deps: Vec<u32>,
    forward: bool,
}

impl DepGraph {
    /// Builds a graph from per-index dependence lists.
    ///
    /// Validates bounds and self-dependences. The graph is *forward* if every
    /// dependence satisfies `dep < i`; forward graphs are trivially acyclic.
    /// Non-forward graphs are accepted but [`crate::Wavefronts`] will detect
    /// cycles.
    pub fn from_lists(n: usize, lists: impl IntoIterator<Item = Vec<u32>>) -> Result<Self> {
        let mut indptr = Vec::with_capacity(n + 1);
        let mut deps = Vec::new();
        indptr.push(0usize);
        let mut forward = true;
        for (i, list) in lists.into_iter().enumerate() {
            for &d in &list {
                if d as usize >= n {
                    return Err(InspectorError::DependenceOutOfBounds {
                        index: i,
                        dep: d as usize,
                    });
                }
                if d as usize == i {
                    return Err(InspectorError::Cycle { at: i });
                }
                forward &= (d as usize) < i;
            }
            deps.extend_from_slice(&list);
            indptr.push(deps.len());
        }
        if indptr.len() != n + 1 {
            return Err(InspectorError::InvalidSchedule(format!(
                "expected {n} dependence lists, got {}",
                indptr.len() - 1
            )));
        }
        Ok(DepGraph {
            n,
            indptr,
            deps,
            forward,
        })
    }

    /// Builds a graph by calling `f(i)` for each index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> Vec<u32>) -> Result<Self> {
        Self::from_lists(n, (0..n).map(f))
    }

    /// Dependences of the paper's Figure 8 lower triangular solve: row `i`
    /// depends on every stored column `j < i` of `l`. Entries with `j == i`
    /// (a stored diagonal) are ignored; entries with `j > i` are an error.
    pub fn from_lower_triangular(l: &Csr) -> Result<Self> {
        let n = l.nrows();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut deps: Vec<u32> = Vec::with_capacity(l.nnz());
        indptr.push(0usize);
        for i in 0..n {
            let row = l.row_indices(i);
            // Columns are strictly increasing, so one comparison against the
            // largest entry settles the whole row; the dependence list is
            // then the row verbatim (a stored diagonal is dropped).
            match row.last() {
                None => {}
                Some(&c) if (c as usize) < i => deps.extend_from_slice(row),
                Some(&c) if c as usize == i => deps.extend_from_slice(&row[..row.len() - 1]),
                Some(&c) => {
                    return Err(InspectorError::DependenceOutOfBounds {
                        index: i,
                        dep: c as usize,
                    })
                }
            }
            indptr.push(deps.len());
        }
        Ok(DepGraph {
            n,
            indptr,
            deps,
            forward: true,
        })
    }

    /// Dependences of an upper triangular (backward) solve, expressed in the
    /// *reversed* index space: executor position `k` stands for row
    /// `n - 1 - k`, so all dependences become forward again and the same
    /// schedulers/executors apply unchanged.
    pub fn from_upper_triangular(u: &Csr) -> Result<Self> {
        let n = u.nrows();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut deps: Vec<u32> = Vec::with_capacity(u.nnz());
        indptr.push(0usize);
        // Walk positions in reversed order. Row i needs row j > i; in
        // reversed space, position n-1-i needs n-1-j. CSR rows are strictly
        // increasing, so traversing a row backwards emits each position's
        // dependences already sorted ascending — one pass, no per-row lists.
        for k in 0..n {
            let i = n - 1 - k;
            let row = u.row_indices(i);
            // Strictly increasing columns: one comparison against the
            // smallest entry settles the row, and everything past a stored
            // diagonal is strictly above it.
            let tail = match row.first() {
                None => row,
                Some(&c) if c as usize == i => &row[1..],
                Some(&c) if (c as usize) > i => row,
                Some(&c) => {
                    return Err(InspectorError::DependenceOutOfBounds {
                        index: i,
                        dep: c as usize,
                    })
                }
            };
            for &c in tail.iter().rev() {
                deps.push((n - 1 - c as usize) as u32);
            }
            indptr.push(deps.len());
        }
        // Every dependence n-1-j of position n-1-i has j > i, i.e. points
        // strictly backward in the reversed space: a forward graph.
        Ok(DepGraph {
            n,
            indptr,
            deps,
            forward: true,
        })
    }

    /// Dependences of the paper's Figure 2 "simple" loop
    /// `x(i) = x(i) + b(i) * x(ia(i))`: a flow dependence exists only when
    /// `ia(i) < i`; when `ia(i) >= i` the executor reads the *old* value
    /// (`xold`), so no ordering is required (Figure 4, line 2a).
    pub fn from_index_array(ia: &[usize]) -> Result<Self> {
        let n = ia.len();
        Self::from_fn(n, |i| {
            let t = ia[i];
            if t < i {
                vec![t as u32]
            } else {
                Vec::new()
            }
        })
    }

    /// Dependences of the nested loop of Figure 6
    /// (`y(i) += temp * y(g(i,j))` for `j = 1..m`): index `i` depends on
    /// every `g(i, j) < i`.
    pub fn from_nested_index_array(g: &[Vec<usize>]) -> Result<Self> {
        let n = g.len();
        Self::from_fn(n, |i| {
            let mut d: Vec<u32> = g[i].iter().filter(|&&t| t < i).map(|&t| t as u32).collect();
            d.sort_unstable();
            d.dedup();
            d
        })
    }

    /// Number of loop indices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of dependence edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.deps.len()
    }

    /// Dependences of index `i`.
    #[inline]
    pub fn deps(&self, i: usize) -> &[u32] {
        &self.deps[self.indptr[i]..self.indptr[i + 1]]
    }

    /// True if every dependence is forward (`dep < i`), i.e. the loop is
    /// start-time schedulable in its original order.
    #[inline]
    pub fn is_forward(&self) -> bool {
        self.forward
    }

    /// Out-degree view: for each index, how many later indices consume it.
    /// (Used by schedulers and by the synthetic-workload statistics.)
    pub fn consumer_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n];
        for &d in &self.deps {
            counts[d as usize] += 1;
        }
        counts
    }

    /// The longest dependence chain length (number of indices on the
    /// critical path); equals the number of wavefronts.
    pub fn critical_path_len(&self) -> Result<usize> {
        Ok(crate::Wavefronts::compute(self)?.num_wavefronts())
    }

    /// Stable structural hash of the dependence structure — the same
    /// 128-bit [`PatternFingerprint`] a CSR pattern carries, computed over
    /// the adjacency arrays. Every plan a scheduler can build (wavefronts,
    /// schedules, barrier sets) is a function of exactly this input, so
    /// the fingerprint is a sound cache key for analysis products. A graph
    /// built by [`DepGraph::from_lower_triangular`] from a *strictly*
    /// lower-triangular CSR fingerprints identically to that matrix's own
    /// pattern fingerprint (the adjacency arrays coincide).
    ///
    /// [`PatternFingerprint`]: rtpl_sparse::PatternFingerprint
    pub fn fingerprint(&self) -> rtpl_sparse::PatternFingerprint {
        rtpl_sparse::PatternFingerprint::of_structure(self.n, self.n, &self.indptr, &self.deps)
    }

    /// Serializes the graph in the [`rtpl_sparse::wire`] format (adjacency
    /// arrays only; the forward flag is recomputed on decode).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.n as u64);
        w.put_usizes32(&self.indptr);
        w.put_u32s(&self.deps);
    }

    /// Decodes a graph written by [`DepGraph::encode`], re-validating
    /// bounds, self-dependences, and adjacency-pointer shape in one cheap
    /// O(n + edges) pass — the wavefront sort is **not** redone (persisted
    /// plan artifacts carry their schedules alongside).
    pub fn decode(r: &mut WireReader) -> WireResult<DepGraph> {
        let n = r.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| WireError::Invalid(format!("graph size {n} overflows usize")))?;
        let indptr = r.usizes32()?;
        let deps = r.u32s()?;
        if indptr.len() != n + 1 || indptr.first() != Some(&0) || indptr[n] != deps.len() {
            return Err(WireError::Invalid(format!(
                "dep graph indptr shape invalid: {} entries for {n} indices, {} edges",
                indptr.len(),
                deps.len()
            )));
        }
        let mut forward = true;
        for i in 0..n {
            let (lo, hi) = (indptr[i], indptr[i + 1]);
            if lo > hi {
                return Err(WireError::Invalid(format!(
                    "dep graph indptr not monotone at index {i}"
                )));
            }
            for &d in &deps[lo..hi] {
                let d = d as usize;
                if d >= n {
                    return Err(WireError::Invalid(format!(
                        "dependence {d} of index {i} out of bounds"
                    )));
                }
                if d == i {
                    return Err(WireError::Invalid(format!("self-dependence at index {i}")));
                }
                forward &= d < i;
            }
        }
        Ok(DepGraph {
            n,
            indptr,
            deps,
            forward,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::gen::laplacian_5pt;

    #[test]
    fn from_lists_basic() {
        let g = DepGraph::from_lists(3, vec![vec![], vec![0], vec![0, 1]]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.deps(2), &[0, 1]);
        assert!(g.is_forward());
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = DepGraph::from_lists(2, vec![vec![], vec![5]]);
        assert!(matches!(
            err,
            Err(InspectorError::DependenceOutOfBounds { index: 1, dep: 5 })
        ));
    }

    #[test]
    fn rejects_self_dependence() {
        let err = DepGraph::from_lists(2, vec![vec![], vec![1]]);
        assert!(matches!(err, Err(InspectorError::Cycle { at: 1 })));
    }

    #[test]
    fn backward_edges_mark_non_forward() {
        let g = DepGraph::from_lists(2, vec![vec![1], vec![]]).unwrap();
        assert!(!g.is_forward());
    }

    #[test]
    fn from_lower_triangular_matches_structure() {
        let a = laplacian_5pt(3, 3);
        let l = a.lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        // Interior point 4 depends on west (3) and south (1).
        assert_eq!(g.deps(4), &[1, 3]);
        assert_eq!(g.deps(0), &[] as &[u32]);
        assert!(g.is_forward());
    }

    #[test]
    fn from_upper_triangular_reverses() {
        let a = laplacian_5pt(3, 3);
        let u = a.upper();
        let g = DepGraph::from_upper_triangular(&u).unwrap();
        assert!(g.is_forward());
        // Row 4 (reversed position 4) depends on rows 5 and 7 (positions 3, 1).
        assert_eq!(g.deps(4), &[1, 3]);
    }

    #[test]
    fn from_index_array_flow_vs_anti() {
        // ia = [2, 0, 1, 3]: i=0 reads x(2) (old value, no dep);
        // i=1 reads x(0) (flow dep); i=2 reads x(1); i=3 reads itself's old.
        let g = DepGraph::from_index_array(&[2, 0, 1, 3]).unwrap();
        assert_eq!(g.deps(0), &[] as &[u32]);
        assert_eq!(g.deps(1), &[0]);
        assert_eq!(g.deps(2), &[1]);
        assert_eq!(g.deps(3), &[] as &[u32]);
    }

    #[test]
    fn nested_index_array_dedups() {
        let g = DepGraph::from_nested_index_array(&[vec![], vec![0, 0], vec![1, 0, 1]]).unwrap();
        assert_eq!(g.deps(1), &[0]);
        assert_eq!(g.deps(2), &[0, 1]);
    }

    #[test]
    fn consumer_counts() {
        let g = DepGraph::from_lists(3, vec![vec![], vec![0], vec![0, 1]]).unwrap();
        assert_eq!(g.consumer_counts(), vec![2, 1, 0]);
    }

    #[test]
    fn fingerprint_is_structural_and_matches_strict_lower_csr() {
        let g1 = DepGraph::from_lists(3, vec![vec![], vec![0], vec![0, 1]]).unwrap();
        let g2 = DepGraph::from_lists(3, vec![vec![], vec![0], vec![0, 1]]).unwrap();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        let g3 = DepGraph::from_lists(3, vec![vec![], vec![0], vec![1]]).unwrap();
        assert_ne!(g1.fingerprint(), g3.fingerprint());
        // A strictly-lower CSR and its dependence graph share the key: a
        // loop spec built from the matrix is cached under the matrix's
        // own pattern fingerprint.
        let l = laplacian_5pt(4, 5).strict_lower();
        let g = DepGraph::from_lower_triangular(&l).unwrap();
        assert_eq!(g.fingerprint(), l.pattern_fingerprint());
    }
}

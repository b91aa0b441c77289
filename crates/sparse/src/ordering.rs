//! Matrix orderings and symmetric permutations.
//!
//! The paper's related work (§3) surveys "numerical methods ... \[that\]
//! reorder operations to increase available parallelism" — the ordering of
//! the unknowns decides the shape of the dependence DAG, hence the
//! wavefront structure the inspector discovers. This module provides:
//!
//! * [`Permutation`] — validated permutation vectors and symmetric
//!   application `P A Pᵀ`;
//! * [`reverse_cuthill_mckee`] — the classic bandwidth-reducing ordering
//!   (deepens wavefronts: good for cache, bad for parallelism);
//! * [`red_black`] — the two-color mesh ordering (flattens a bipartite
//!   dependence structure into two wavefronts: maximal parallelism for
//!   5-point stencils).
//!
//! The ordering ablation bench quantifies the tradeoff.

use crate::csr::Csr;
use crate::{Result, SparseError};

/// A permutation of `0..n`: `perm[new] = old` (gather convention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
    inv: Vec<u32>,
}

impl Permutation {
    /// Validates and wraps `perm[new] = old`.
    pub fn new(perm: Vec<u32>) -> Result<Self> {
        let n = perm.len();
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old as usize >= n || inv[old as usize] != u32::MAX {
                return Err(SparseError::InvalidStructure(format!(
                    "not a permutation at position {new}"
                )));
            }
            inv[old as usize] = new as u32;
        }
        Ok(Permutation { perm, inv })
    }

    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        Permutation {
            perm: (0..n as u32).collect(),
            inv: (0..n as u32).collect(),
        }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Old index at new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new] as usize
    }

    /// New position of old index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old] as usize
    }

    /// Reverses the order (turns Cuthill–McKee into *reverse* CM).
    pub fn reversed(mut self) -> Self {
        self.perm.reverse();
        for (new, &old) in self.perm.iter().enumerate() {
            self.inv[old as usize] = new as u32;
        }
        self
    }

    /// Symmetric application: `B = P A Pᵀ`, i.e.
    /// `B[new_i, new_j] = A[old_i, old_j]`.
    pub fn apply_symmetric(&self, a: &Csr) -> Result<Csr> {
        let n = a.nrows();
        if a.ncols() != n || self.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: self.len(),
            });
        }
        let mut b = crate::coo::CooBuilder::with_capacity(n, n, a.nnz());
        for new_i in 0..n {
            let old_i = self.old_of(new_i);
            for (old_j, v) in a.row(old_i) {
                b.push(new_i, self.new_of(old_j), v);
            }
        }
        Ok(b.build())
    }

    /// Permutes a vector: `out[new] = x[old]`.
    pub fn gather(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.perm.iter().map(|&old| x[old as usize]).collect()
    }

    /// Inverse-permutes a vector: `out[old] = x[new]`.
    pub fn scatter(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            out[old as usize] = x[new];
        }
        out
    }
}

/// Reverse Cuthill–McKee ordering of the symmetrized adjacency of `a`.
///
/// BFS from a pseudo-peripheral vertex, visiting neighbours in increasing
/// degree order, then reversed. Disconnected components are processed in
/// sequence.
pub fn reverse_cuthill_mckee(a: &Csr) -> Result<Permutation> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: a.ncols(),
        });
    }
    // Symmetrized adjacency (ignore values, drop the diagonal).
    let at = a.transpose();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, _) in a.row(i) {
            if j != i {
                adj[i].push(j as u32);
            }
        }
        for (j, _) in at.row(i) {
            if j != i {
                adj[i].push(j as u32);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    while order.len() < n {
        // Start the next component from its minimum-degree unvisited vertex
        // (cheap pseudo-peripheral heuristic).
        let start = (0..n)
            .filter(|&i| !visited[i])
            .min_by_key(|&i| degree[i])
            .expect("unvisited vertex exists");
        let mut head = order.len();
        order.push(start as u32);
        visited[start] = true;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            let mut nbrs: Vec<u32> = adj[u]
                .iter()
                .copied()
                .filter(|&v| !visited[v as usize])
                .collect();
            nbrs.sort_by_key(|&v| degree[v as usize]);
            for v in nbrs {
                visited[v as usize] = true;
                order.push(v);
            }
        }
    }
    Permutation::new(order).map(Permutation::reversed)
}

/// Red–black (two-color) ordering of an `nx × ny` grid in natural order:
/// all even-parity points first, then all odd-parity points. For a 5-point
/// stencil this makes each color internally independent — the dependence
/// DAG of the factor collapses to very few wavefronts.
pub fn red_black(nx: usize, ny: usize) -> Permutation {
    let mut perm = Vec::with_capacity(nx * ny);
    for parity in 0..2usize {
        for y in 0..ny {
            for x in 0..nx {
                if (x + y) % 2 == parity {
                    perm.push((y * nx + x) as u32);
                }
            }
        }
    }
    Permutation::new(perm).expect("red-black is a permutation")
}

/// Bandwidth of a matrix: `max |i − j|` over stored entries.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        for (j, _) in a.row(i) {
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::laplacian_5pt;

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![0, 2, 1]).is_ok());
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn gather_scatter_inverse() {
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        let x = vec![10.0, 20.0, 30.0];
        let g = p.gather(&x);
        assert_eq!(g, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.scatter(&g), x);
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_probe() {
        // Check P A Pt x' = (A x)' for the permuted vector.
        let a = laplacian_5pt(4, 4);
        let p = reverse_cuthill_mckee(&a).unwrap();
        let b = p.apply_symmetric(&a).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let mut ax = vec![0.0; 16];
        a.matvec(&x, &mut ax).unwrap();
        let xp = p.gather(&x);
        let mut bxp = vec![0.0; 16];
        b.matvec(&xp, &mut bxp).unwrap();
        let axp = p.gather(&ax);
        assert!(crate::dense::max_abs_diff(&bxp, &axp) < 1e-13);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_mesh() {
        // Scramble a mesh, then RCM should bring the bandwidth back down.
        let a = laplacian_5pt(8, 8);
        let n = a.nrows();
        // A value-less deterministic shuffle permutation.
        let mut shuffle: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            let j = (i * 37 + 11) % n;
            shuffle.swap(i, j);
        }
        let ps = Permutation::new(shuffle).unwrap();
        let scrambled = ps.apply_symmetric(&a).unwrap();
        let rcm = reverse_cuthill_mckee(&scrambled).unwrap();
        let restored = rcm.apply_symmetric(&scrambled).unwrap();
        assert!(
            bandwidth(&restored) < bandwidth(&scrambled),
            "RCM bandwidth {} vs scrambled {}",
            bandwidth(&restored),
            bandwidth(&scrambled)
        );
    }

    #[test]
    fn red_black_two_colors() {
        let p = red_black(4, 4);
        assert_eq!(p.len(), 16);
        // First half all even parity, second half odd.
        for new in 0..8 {
            let old = p.old_of(new);
            assert_eq!((old % 4 + old / 4) % 2, 0);
        }
        // Permuted 5-pt Laplacian: no entry couples two indices of the
        // same color (other than the diagonal).
        let a = laplacian_5pt(4, 4);
        let b = p.apply_symmetric(&a).unwrap();
        for i in 0..16 {
            for (j, _) in b.row(i) {
                if j != i {
                    assert!((i < 8) != (j < 8), "entry ({i},{j}) couples one color");
                }
            }
        }
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Block-diagonal: two disjoint chains.
        let mut b = crate::coo::CooBuilder::new(6, 6);
        for i in 0..3 {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
                b.push(i - 1, i, -1.0);
            }
        }
        for i in 3..6 {
            b.push(i, i, 2.0);
            if i > 3 {
                b.push(i, i - 1, -1.0);
                b.push(i - 1, i, -1.0);
            }
        }
        let a = b.build();
        let p = reverse_cuthill_mckee(&a).unwrap();
        assert_eq!(p.len(), 6);
    }
}

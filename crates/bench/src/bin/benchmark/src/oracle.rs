//! Answer checking.
//!
//! Every reply is checked twice over. At set-up the first reply for each
//! (pattern, rhs) key is compared against an **independent** reference —
//! the naive substitution loops of `sparse::triangular`, which share no
//! code with the compiled path — within a relative tolerance (the compiled
//! path pre-applies the reciprocal diagonal, so it is not bit-equal to the
//! naive loop). Every later reply for the same key must then equal that
//! first reply **bit for bit** (held as a 64-bit digest of its bits). A
//! digest of the first replies goes into `result.json`, so two commits can
//! be compared for bit-exactness.

use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::triangular::{solve_lower, solve_upper, Diag};
use rtpl::sparse::Csr;

/// Relative tolerance against the independent reference.
pub const REF_TOL: f64 = 1e-12;

/// `L U x = b` by the paper's naive loops (forward, then backward).
pub fn reference_solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; b.len()];
    let mut x = vec![0.0; b.len()];
    solve_lower(&f.l, b, Diag::Unit, &mut y).expect("reference forward substitution");
    solve_upper(&f.u, &y, Diag::Stored, &mut x).expect("reference backward substitution");
    x
}

/// `x(i) = rhs(i) − Σ a_k·x(dep_k)` over a strictly lower matrix: the
/// reference for `Job::linear`.
pub fn reference_linear(l_strict: &Csr, rhs: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; rhs.len()];
    solve_lower(l_strict, rhs, Diag::Unit, &mut x).expect("reference linear recurrence");
    x
}

/// `max|x − r| ≤ tol · max|r|`, and no entry of `x` is non-finite.
pub fn close(x: &[f64], reference: &[f64], tol: f64) -> bool {
    if x.len() != reference.len() {
        return false;
    }
    let scale = reference
        .iter()
        .fold(f64::MIN_POSITIVE, |m, r| m.max(r.abs()));
    x.iter()
        .zip(reference)
        .all(|(a, r)| a.is_finite() && (a - r).abs() <= tol * scale)
}

/// Bitwise equality (so `-0.0 ≠ 0.0` and a NaN equals only itself).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A 64-bit digest of the exact bits of `x` (length included). Four
/// independent multiply-xor lanes, so checking a 40 000-entry reply costs
/// microseconds and reads nothing but the reply itself: holding every
/// first reply in memory and re-reading it after each op would push the
/// out-of-cache workload's own data out of cache between ops.
pub fn bits_digest(x: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    let mut blocks = x.chunks_exact(4);
    for blk in &mut blocks {
        for (lane, v) in lanes.iter_mut().zip(blk) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(PRIME).rotate_left(23);
        }
    }
    let mut h = x.len() as u64;
    for v in blocks.remainder() {
        h = (h ^ v.to_bits()).wrapping_mul(PRIME).rotate_left(23);
    }
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME).rotate_left(23);
    }
    h
}

/// The expected replies of one workload, keyed by a dense index the
/// workload assigns to each (pattern, rhs) pair. Only the digest of each
/// first reply is kept.
#[derive(Debug, Default)]
pub struct Oracle {
    first: Vec<u64>,
    /// First replies that missed the independent reference.
    pub reference_misses: u64,
}

impl Oracle {
    /// Registers the first reply for the next key after checking it
    /// against the independent reference; returns the key.
    pub fn admit(&mut self, reply: &[f64], reference: &[f64]) -> usize {
        self.admit_with_tol(reply, reference, REF_TOL)
    }

    /// [`Oracle::admit`] for replies that are only expected to approach
    /// their reference (an iterative solve against its manufactured
    /// solution).
    pub fn admit_with_tol(&mut self, reply: &[f64], reference: &[f64], tol: f64) -> usize {
        if !close(reply, reference, tol) {
            self.reference_misses += 1;
        }
        self.first.push(bits_digest(reply));
        self.first.len() - 1
    }

    /// Whether `reply` has the bits of the first reply for `key`.
    pub fn check(&self, key: usize, reply: &[f64]) -> bool {
        bits_digest(reply) == self.first[key]
    }

    pub fn keys(&self) -> usize {
        self.first.len()
    }

    /// One digest over the first replies in key order. Every later reply is
    /// held to these, so this is the digest of all replies of the run.
    pub fn digest(&self) -> u64 {
        self.first.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
            (h ^ d).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl::sparse::gen::laplacian_5pt;
    use rtpl::sparse::ilu0;

    #[test]
    fn reference_inverts_the_factors() {
        let f = ilu0(&laplacian_5pt(5, 4)).unwrap();
        let b: Vec<f64> = (0..f.n()).map(|i| 1.0 + i as f64 * 0.25).collect();
        let x = reference_solve(&f, &b);
        // L (U x) must reproduce b.
        let mut ux = vec![0.0; f.n()];
        f.u.matvec(&x, &mut ux).unwrap();
        let mut lux = ux.clone();
        for (i, slot) in lux.iter_mut().enumerate() {
            for (j, v) in f.l.row(i) {
                *slot += v * ux[j];
            }
        }
        assert!(close(&lux, &b, 1e-13));
    }

    #[test]
    fn tolerance_and_bit_checks_differ() {
        let r = vec![1.0, -2.0, 4.0];
        let near = vec![1.0, -2.0, 4.0 + 1e-13];
        assert!(close(&near, &r, REF_TOL));
        assert!(!same_bits(&near, &r));
        assert!(!close(&[1.0, -2.0, 4.1], &r, REF_TOL));
        assert!(!close(&[1.0, f64::NAN, 4.0], &r, REF_TOL));
        assert!(!same_bits(&[0.0], &[-0.0]));
    }

    #[test]
    fn oracle_counts_misses_and_digests_replies() {
        let mut o = Oracle::default();
        let k0 = o.admit(&[1.0, 2.0], &[1.0, 2.0]);
        let k1 = o.admit(&[3.0, 9.0], &[3.0, 4.0]);
        assert_eq!((k0, k1, o.reference_misses), (0, 1, 1));
        assert!(o.check(k0, &[1.0, 2.0]));
        assert!(!o.check(k0, &[1.0, 2.0000000000000004]));
        let mut p = Oracle::default();
        p.admit(&[1.0, 2.0], &[1.0, 2.0]);
        p.admit(&[3.0, 9.0], &[3.0, 9.0]);
        assert_eq!(o.digest(), p.digest());
        p.admit(&[0.0], &[0.0]);
        assert_ne!(o.digest(), p.digest());
    }

    #[test]
    fn bits_digest_sees_every_position_and_the_length() {
        let x: Vec<f64> = (0..23).map(|i| i as f64 * 0.5).collect();
        let d = bits_digest(&x);
        for i in 0..x.len() {
            let mut y = x.clone();
            y[i] = f64::from_bits(y[i].to_bits() ^ 1);
            assert_ne!(bits_digest(&y), d, "flip at {i} went unseen");
        }
        assert_ne!(bits_digest(&x[..22]), d);
        assert_ne!(bits_digest(&[0.0]), bits_digest(&[-0.0]));
        let mut swapped = x.clone();
        swapped.swap(3, 7);
        assert_ne!(bits_digest(&swapped), d);
    }
}

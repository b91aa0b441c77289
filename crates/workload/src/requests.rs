//! Request-stream generation for the solver-service workloads.
//!
//! A long-running solver service sees a *mix* of dependence patterns:
//! a handful of hot structures (the operators of the currently active
//! simulations) and a long tail of rarely seen ones. This module models
//! that traffic: a set of distinct sparsity patterns plus a **Zipf**
//! popularity law over them, replayed as deterministic per-client request
//! streams. `rtpl-runtime`'s plan cache is exercised (and its hit rate
//! measured) against exactly these streams.

use rtpl_sparse::rng::SmallRng;
use rtpl_sparse::{Csr, PatternFingerprint};

use crate::SyntheticSpec;

/// A Zipf(s) popularity distribution over `k` patterns: pattern `i`
/// (0-based) is requested with probability proportional to `1/(i+1)^s`.
///
/// ```
/// use rtpl_workload::requests::ZipfMix;
/// let mix = ZipfMix::new(8, 1.0);
/// let stream = mix.stream(1000, 42);
/// assert_eq!(stream.len(), 1000);
/// // Rank 0 is the hottest pattern.
/// let hits0 = stream.iter().filter(|&&p| p == 0).count();
/// let hits7 = stream.iter().filter(|&&p| p == 7).count();
/// assert!(hits0 > hits7);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfMix {
    cdf: Vec<f64>,
}

impl ZipfMix {
    /// Builds the distribution over `num_patterns ≥ 1` ranks with exponent
    /// `s ≥ 0` (`s = 0` is uniform; larger `s` concentrates on the head).
    pub fn new(num_patterns: usize, exponent: f64) -> Self {
        assert!(num_patterns >= 1, "need at least one pattern");
        assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf: Vec<f64> = Vec::with_capacity(num_patterns);
        let mut total = 0.0;
        for i in 0..num_patterns {
            total += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        ZipfMix { cdf }
    }

    /// Number of ranks.
    pub fn num_patterns(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one pattern rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// A deterministic request stream of `len` ranks.
    pub fn stream(&self, len: usize, seed: u64) -> Vec<usize> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| self.sample(&mut rng)).collect()
    }

    /// A stream that **touches every rank once** (in a seed-shuffled order)
    /// before switching to Zipf draws — the warm-up-then-steady-state shape
    /// used by the cache acceptance tests, where every pattern must be
    /// built exactly once regardless of how unlucky the tail draws are.
    pub fn stream_covering(&self, len: usize, seed: u64) -> Vec<usize> {
        let k = self.cdf.len();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBADC_0FFE);
        let mut ids: Vec<usize> = (0..k).collect();
        // Fisher–Yates.
        for i in (1..k).rev() {
            ids.swap(i, rng.gen_range_usize(0, i + 1));
        }
        ids.truncate(len);
        let remaining = len.saturating_sub(ids.len());
        ids.extend(self.stream(remaining, seed));
        ids
    }

    /// One deterministic stream per simulated client, each `len` ranks
    /// long. Clients draw from the same Zipf mix but with decorrelated
    /// seeds, so they disagree about *when* they touch a pattern while
    /// still sharing the hot set — the traffic shape a network front door
    /// sees, and what the server load generator replays.
    pub fn client_streams(&self, clients: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
        (0..clients)
            .map(|c| self.stream(len, seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }
}

/// What one request of a mixed service stream asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A triangular solve (`L U x = b`) over the ranked solve pattern.
    Solve,
    /// A `DoConsider`-style index-array loop over the ranked loop pattern.
    Loop,
}

/// One request of a [`ZipfMix::mixed_stream`]: which kind, and the
/// popularity rank of the pattern it targets (solve and loop requests
/// rank into their own pattern sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedRequest {
    /// Request kind.
    pub kind: RequestKind,
    /// Pattern rank within the kind's set (0 = hottest).
    pub rank: usize,
}

impl ZipfMix {
    /// A deterministic **mixed** request stream: each request is a loop
    /// with probability `loop_share` (a solve otherwise), targeting a
    /// Zipf-ranked pattern of its kind. This is the traffic shape a batch
    /// front door sees — solves and automated-transformation loops
    /// interleaved, hot structures repeated.
    pub fn mixed_stream(&self, len: usize, loop_share: f64, seed: u64) -> Vec<MixedRequest> {
        assert!((0.0..=1.0).contains(&loop_share), "share is a probability");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0B47);
        (0..len)
            .map(|_| {
                let kind = if rng.gen_f64() < loop_share {
                    RequestKind::Loop
                } else {
                    RequestKind::Solve
                };
                MixedRequest {
                    kind,
                    rank: self.sample(&mut rng),
                }
            })
            .collect()
    }
}

/// Generates `count` **structurally distinct** unit-lower-triangular
/// dependency patterns on a `mesh × mesh` domain (the §4.1 synthetic
/// generator). Distinctness is guaranteed by pattern fingerprint, so a
/// plan cache sees exactly `count` different keys.
pub fn pattern_set(count: usize, mesh: usize, seed: u64) -> Vec<Csr> {
    let spec = SyntheticSpec {
        mesh,
        mean_degree: 3.0,
        mean_distance: 2.0,
    };
    let mut seen = std::collections::HashSet::<PatternFingerprint>::new();
    let mut out = Vec::with_capacity(count);
    let mut s = seed;
    while out.len() < count {
        let m = spec.generate(s);
        s = s.wrapping_add(1);
        if seen.insert(m.pattern_fingerprint()) {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let mix = ZipfMix::new(16, 1.2);
        assert_eq!(mix.stream(500, 7), mix.stream(500, 7));
        assert_ne!(mix.stream(500, 7), mix.stream(500, 8));
        let s = mix.stream(4000, 1);
        let count = |r: usize| s.iter().filter(|&&p| p == r).count();
        assert!(count(0) > count(4));
        assert!(count(0) > 4000 / 16, "head rank must beat uniform share");
        assert!(s.iter().all(|&p| p < 16));
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let mix = ZipfMix::new(4, 0.0);
        let s = mix.stream(8000, 3);
        for r in 0..4 {
            let c = s.iter().filter(|&&p| p == r).count();
            assert!((1700..2300).contains(&c), "rank {r}: {c}");
        }
    }

    #[test]
    fn covering_stream_touches_every_rank_once_up_front() {
        let mix = ZipfMix::new(12, 1.0);
        let s = mix.stream_covering(40, 9);
        assert_eq!(s.len(), 40);
        let head: std::collections::HashSet<usize> = s[..12].iter().copied().collect();
        assert_eq!(head.len(), 12, "prefix covers all ranks exactly once");
        // Shorter than the rank count: still a valid (truncated) cover.
        assert_eq!(mix.stream_covering(5, 9).len(), 5);
    }

    #[test]
    fn mixed_stream_is_deterministic_and_respects_the_share() {
        let mix = ZipfMix::new(8, 1.0);
        let s = mix.mixed_stream(4000, 0.25, 11);
        assert_eq!(s, mix.mixed_stream(4000, 0.25, 11));
        assert_ne!(s, mix.mixed_stream(4000, 0.25, 12));
        let loops = s.iter().filter(|r| r.kind == RequestKind::Loop).count();
        assert!((800..1200).contains(&loops), "~25% loops, got {loops}");
        assert!(s.iter().all(|r| r.rank < 8));
        // Still head-heavy within each kind.
        let hot = s
            .iter()
            .filter(|r| r.kind == RequestKind::Solve && r.rank == 0)
            .count();
        let cold = s
            .iter()
            .filter(|r| r.kind == RequestKind::Solve && r.rank == 7)
            .count();
        assert!(hot > cold);
        // Degenerate shares are exact.
        assert!(mix
            .mixed_stream(100, 0.0, 3)
            .iter()
            .all(|r| r.kind == RequestKind::Solve));
        assert!(mix
            .mixed_stream(100, 1.0, 3)
            .iter()
            .all(|r| r.kind == RequestKind::Loop));
    }

    #[test]
    fn pattern_set_is_distinct_and_deterministic() {
        let set = pattern_set(10, 8, 21);
        assert_eq!(set.len(), 10);
        let fps: std::collections::HashSet<_> =
            set.iter().map(|m| m.pattern_fingerprint()).collect();
        assert_eq!(fps.len(), 10);
        for m in &set {
            assert!(m.is_lower_triangular());
            assert_eq!(m.nrows(), 64);
        }
        let again = pattern_set(10, 8, 21);
        assert_eq!(set, again);
    }

    #[test]
    fn client_streams_are_deterministic_and_decorrelated() {
        let mix = ZipfMix::new(8, 1.1);
        let streams = mix.client_streams(4, 200, 99);
        assert_eq!(streams.len(), 4);
        assert!(streams.iter().all(|s| s.len() == 200));
        // Replaying the same seed reproduces every client exactly.
        assert_eq!(streams, mix.client_streams(4, 200, 99));
        // Clients are decorrelated: no two streams are identical.
        for a in 0..4 {
            for b in a + 1..4 {
                assert_ne!(streams[a], streams[b], "clients {a} and {b} collide");
            }
        }
        // But they share the distribution: every client favors rank 0.
        for s in &streams {
            let hot = s.iter().filter(|&&r| r == 0).count();
            let cold = s.iter().filter(|&&r| r == 7).count();
            assert!(hot > cold);
        }
    }
}

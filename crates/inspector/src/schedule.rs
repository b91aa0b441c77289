//! Execution schedules — the inspector's output.
//!
//! A [`Schedule`] fixes, for each of `p` processors, the order in which it
//! will execute its assigned loop indices, together with the phase
//! (wavefront) boundaries the pre-scheduled executor synchronizes on (the
//! `NEWPHASE` markers of Figure 5).
//!
//! **Progress invariant.** Every schedule keeps each processor's list in
//! nondecreasing phase order. Every dependence either crosses to a strictly
//! earlier phase, or — in a *coalesced* schedule ([`Schedule::coalesce`]) —
//! stays inside one phase on the **same processor at an earlier list
//! position**. Either way the index with the smallest phase among all
//! processors' current heads can always run (its unfinished dependences, if
//! any, sit earlier in its own list), so neither the barrier executor nor
//! the busy-wait executor can deadlock on a valid schedule.
//! [`Schedule::validate`] checks this invariant along with permutation-ness.
//!
//! **Phase-merge invariant (coalescing).** [`Schedule::coalesce`] merges
//! runs of consecutive wavefronts whose combined per-processor work is below
//! a grain derived from the host cost model into one barriered phase. Inside
//! a merged phase there is *no synchronization at all*: the pass re-assigns
//! ownership so that every dependence whose endpoints share a phase lands on
//! one processor, ordered write-before-read in that processor's list — the
//! intra-phase execution order IS the synchronization. Dependences that
//! still cross phases keep the barrier/publish ordering exactly as before.

use crate::partition::Partition;
use crate::wavefront::Wavefronts;
use crate::{DepGraph, InspectorError, Result};
use rtpl_sparse::wire::{WireError, WireReader, WireResult, WireWriter};

/// What [`Schedule::coalesce`] did: how many barriered phases the merge
/// removed and how many indices changed owner to keep merged-phase
/// dependences on one processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Barriered phases before merging (the wavefront count).
    pub phases_before: usize,
    /// Barriered phases after merging.
    pub phases_after: usize,
    /// Indices re-assigned to a different processor by component grouping.
    pub moved: usize,
}

/// How the inspector sorts and distributes the index set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sorting {
    /// Global topological sort + wrapped assignment ([`Schedule::global`]):
    /// balances every wavefront, the most expensive inspector.
    Global,
    /// Fixed striped partition (`i mod p`), local wavefront sort only.
    LocalStriped,
    /// Fixed contiguous-block partition, local wavefront sort only.
    LocalContiguous,
}

impl Sorting {
    /// Every strategy.
    pub const ALL: [Sorting; 3] = [
        Sorting::Global,
        Sorting::LocalStriped,
        Sorting::LocalContiguous,
    ];

    /// The schedule this strategy prescribes for `nprocs` processors over
    /// the wavefront decomposition `wf`.
    pub fn schedule(self, wf: &Wavefronts, nprocs: usize) -> Result<Schedule> {
        let n = wf.n();
        match self {
            Sorting::Global => Schedule::global(wf, nprocs),
            Sorting::LocalStriped => Schedule::local(wf, &Partition::striped(n, nprocs)?),
            Sorting::LocalContiguous => Schedule::local(wf, &Partition::contiguous(n, nprocs)?),
        }
    }
}

/// A per-processor execution order with phase markers.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    nprocs: usize,
    num_phases: usize,
    /// `per_proc[p]` — indices processor `p` executes, in order.
    per_proc: Vec<Vec<u32>>,
    /// `phase_ptr[p][w]..phase_ptr[p][w+1]` — slice of `per_proc[p]` that
    /// belongs to phase `w`.
    phase_ptr: Vec<Vec<usize>>,
    /// Wavefront number of each index (copied from the inspector).
    wavefront: Vec<u32>,
}

impl Schedule {
    /// **Global scheduling**: sort the whole index set by wavefront (stable,
    /// so within a wavefront the natural order is kept) and deal list
    /// position `k` to processor `k mod p` — evenly partitioning the work of
    /// every wavefront (Figure 10).
    pub fn global(wf: &Wavefronts, nprocs: usize) -> Result<Self> {
        if nprocs == 0 {
            return Err(InspectorError::NoProcessors);
        }
        let list = wf.sorted_list();
        let mut per_proc: Vec<Vec<u32>> = vec![Vec::with_capacity(list.len() / nprocs + 1); nprocs];
        for (k, &i) in list.iter().enumerate() {
            per_proc[k % nprocs].push(i);
        }
        Ok(Self::assemble(per_proc, wf))
    }

    /// **Local scheduling**: keep the fixed `partition` and reorder each
    /// processor's own indices by wavefront (stable counting sort, so the
    /// natural order is preserved within a wavefront). Much cheaper than
    /// global scheduling — no cross-processor data movement — at the price
    /// of per-phase load balance.
    pub fn local(wf: &Wavefronts, partition: &Partition) -> Result<Self> {
        if partition.n() != wf.n() {
            return Err(InspectorError::InvalidSchedule(format!(
                "partition size {} != index count {}",
                partition.n(),
                wf.n()
            )));
        }
        let nw = wf.num_wavefronts();
        let mut per_proc: Vec<Vec<u32>> = partition.proc_lists();
        // Counting-sort each processor's list by wavefront (stable).
        let mut counts = vec![0usize; nw + 1];
        for list in &mut per_proc {
            if list.is_empty() {
                continue;
            }
            counts[..=nw].fill(0);
            for &i in list.iter() {
                counts[wf.of(i as usize) as usize + 1] += 1;
            }
            for w in 0..nw {
                counts[w + 1] += counts[w];
            }
            let mut sorted = vec![0u32; list.len()];
            for &i in list.iter() {
                let w = wf.of(i as usize) as usize;
                sorted[counts[w]] = i;
                counts[w] += 1;
            }
            *list = sorted;
        }
        Ok(Self::assemble(per_proc, wf))
    }

    /// Builds phase pointers for per-processor lists already sorted by
    /// wavefront.
    fn assemble(per_proc: Vec<Vec<u32>>, wf: &Wavefronts) -> Self {
        let nprocs = per_proc.len();
        let num_phases = wf.num_wavefronts();
        let mut phase_ptr = Vec::with_capacity(nprocs);
        for list in &per_proc {
            let mut ptr = Vec::with_capacity(num_phases + 1);
            ptr.push(0usize);
            let mut pos = 0usize;
            for w in 0..num_phases as u32 {
                while pos < list.len() && wf.of(list[pos] as usize) == w {
                    pos += 1;
                }
                ptr.push(pos);
            }
            debug_assert_eq!(pos, list.len());
            phase_ptr.push(ptr);
        }
        Schedule {
            nprocs,
            num_phases,
            per_proc,
            phase_ptr,
            wavefront: wf.as_slice().to_vec(),
        }
    }

    /// Number of processors.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of phases (= wavefronts; the pre-scheduled executor performs
    /// `num_phases - 1` interior global synchronizations).
    #[inline]
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Total number of indices.
    #[inline]
    pub fn n(&self) -> usize {
        self.wavefront.len()
    }

    /// Processor `p`'s full execution order.
    #[inline]
    pub fn proc(&self, p: usize) -> &[u32] {
        &self.per_proc[p]
    }

    /// Processor `p`'s slice of phase `w`.
    #[inline]
    pub fn phase_slice(&self, p: usize, w: usize) -> &[u32] {
        &self.per_proc[p][self.phase_ptr[p][w]..self.phase_ptr[p][w + 1]]
    }

    /// Wavefront of index `i`.
    #[inline]
    pub fn wavefront_of(&self, i: usize) -> u32 {
        self.wavefront[i]
    }

    /// All wavefront numbers.
    #[inline]
    pub fn wavefronts(&self) -> &[u32] {
        &self.wavefront
    }

    /// Owner array implied by the schedule.
    pub fn owners(&self) -> Vec<u32> {
        let mut owner = vec![0u32; self.n()];
        for (p, list) in self.per_proc.iter().enumerate() {
            for &i in list {
                owner[i as usize] = p as u32;
            }
        }
        owner
    }

    /// Validates the schedule against a dependence graph:
    /// * union of processor lists is a permutation of `0..n`;
    /// * each processor's list is in nondecreasing phase order (the
    ///   progress invariant);
    /// * phase pointers delimit exactly the indices of that phase;
    /// * every dependence crosses to a strictly earlier phase, **or** sits
    ///   in the same phase on the same processor at an earlier position
    ///   (the coalesced phase-merge invariant — execution order is the
    ///   synchronization there).
    pub fn validate(&self, g: &DepGraph) -> Result<()> {
        let n = self.n();
        if g.n() != n {
            return Err(InspectorError::InvalidSchedule(format!(
                "graph size {} != schedule size {n}",
                g.n()
            )));
        }
        let mut seen = vec![false; n];
        let mut owner = vec![0u32; n];
        let mut pos = vec![0u32; n];
        for (p, list) in self.per_proc.iter().enumerate() {
            let mut prev = 0u32;
            for (k, &i) in list.iter().enumerate() {
                let i = i as usize;
                if i >= n || seen[i] {
                    return Err(InspectorError::InvalidSchedule(format!(
                        "processor {p} position {k}: index {i} duplicated or out of range"
                    )));
                }
                seen[i] = true;
                owner[i] = p as u32;
                pos[i] = k as u32;
                let w = self.wavefront[i];
                if k > 0 && w < prev {
                    return Err(InspectorError::InvalidSchedule(format!(
                        "processor {p} violates wavefront order at position {k}"
                    )));
                }
                prev = w;
            }
            // Phase pointers must agree with wavefronts.
            let ptr = &self.phase_ptr[p];
            if ptr.len() != self.num_phases + 1 || ptr[self.num_phases] != list.len() {
                return Err(InspectorError::InvalidSchedule(format!(
                    "processor {p}: malformed phase pointers"
                )));
            }
            for w in 0..self.num_phases {
                for &i in &list[ptr[w]..ptr[w + 1]] {
                    if self.wavefront[i as usize] as usize != w {
                        return Err(InspectorError::InvalidSchedule(format!(
                            "processor {p}: index {i} listed in phase {w} but has wavefront {}",
                            self.wavefront[i as usize]
                        )));
                    }
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(InspectorError::InvalidSchedule(format!(
                "index {missing} not scheduled on any processor"
            )));
        }
        // Dependence property: strictly earlier phase, or same phase on the
        // same processor at an earlier position (coalesced intra-phase
        // order).
        for i in 0..n {
            for &d in g.deps(i) {
                let d = d as usize;
                let ordered = self.wavefront[d] < self.wavefront[i]
                    || (self.wavefront[d] == self.wavefront[i]
                        && owner[d] == owner[i]
                        && pos[d] < pos[i]);
                if !ordered {
                    return Err(InspectorError::InvalidSchedule(format!(
                        "dependence {d} -> {i} is not phase-ordered"
                    )));
                }
            }
        }
        Ok(())
    }

    /// **Wavefront coalescing** — merges runs of consecutive phases whose
    /// combined per-processor work is below `grain` (in abstract operation
    /// units: `1 + |deps(i)|` per index, the same weight the simulator
    /// charges) into single barriered phases.
    ///
    /// Inside a merged phase no executor synchronizes, so the pass must
    /// make execution order alone sufficient: it computes the connected
    /// components of the dependence subgraph *restricted to each merged
    /// phase* and re-assigns every component whole to one processor
    /// (heaviest component first onto the least-loaded processor). Each
    /// processor's slice of a merged phase is ordered by original
    /// wavefront, which is a topological order of the intra-phase
    /// dependences. The result satisfies the relaxed [`Schedule::validate`]
    /// rule: every dependence crosses phases or is same-processor
    /// write-before-read.
    ///
    /// On one processor every barrier is pure overhead and there is nothing
    /// to balance, so all phases merge into one regardless of `grain` and
    /// the execution order is unchanged. Callers derive `grain` from the
    /// host cost model — `tsynch_ns / tp_ns` scaled by a policy factor —
    /// so the pass only buys barriers that cost more than the load
    /// imbalance they prevent.
    pub fn coalesce(&self, g: &DepGraph, grain: f64) -> Result<(Schedule, CoalesceStats)> {
        let n = self.n();
        if g.n() != n {
            return Err(InspectorError::InvalidSchedule(format!(
                "graph size {} != schedule size {n}",
                g.n()
            )));
        }
        let np = self.num_phases;
        let nprocs = self.nprocs;
        let unchanged = CoalesceStats {
            phases_before: np,
            phases_after: np,
            moved: 0,
        };
        if np <= 1 || n == 0 {
            return Ok((self.clone(), unchanged));
        }
        // Work per wavefront in operation units.
        let mut work = vec![0.0f64; np];
        for i in 0..n {
            work[self.wavefront[i] as usize] += 1.0 + g.deps(i).len() as f64;
        }
        // Greedy front-to-back grouping: merge the next wavefront while the
        // group's per-processor share stays within the grain. A single
        // processor merges everything — each barrier is pure overhead.
        let mut group_of = vec![0u32; np];
        let mut ngroups = 1usize;
        if nprocs > 1 {
            let mut acc = work[0];
            for w in 1..np {
                if (acc + work[w]) / nprocs as f64 > grain {
                    ngroups += 1;
                    acc = 0.0;
                }
                group_of[w] = (ngroups - 1) as u32;
                acc += work[w];
            }
        }
        if ngroups == np {
            return Ok((self.clone(), unchanged));
        }
        // Phase boundaries of each group (contiguous by construction).
        let mut ranges = vec![(usize::MAX, 0usize); ngroups];
        for (w, &gi) in group_of.iter().enumerate() {
            let r = &mut ranges[gi as usize];
            r.0 = r.0.min(w);
            r.1 = w + 1;
        }
        // New phase label per index.
        let mut phase = vec![0u32; n];
        for i in 0..n {
            phase[i] = group_of[self.wavefront[i] as usize];
        }
        // Union-find over intra-group dependence edges. Roots are kept as
        // the smallest index of their component, so component ids — and
        // with them the whole pass — are deterministic.
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                let gp = parent[parent[i as usize] as usize];
                parent[i as usize] = gp;
                i = gp;
            }
            i
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            for &d in g.deps(i) {
                if phase[d as usize] == phase[i] {
                    let a = find(&mut parent, i as u32);
                    let b = find(&mut parent, d);
                    if a != b {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi as usize] = lo;
                    }
                }
            }
        }
        let owners = self.owners();
        let mut per_proc: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        let mut phase_ptr: Vec<Vec<usize>> = vec![vec![0usize]; nprocs];
        let mut comp_weight = vec![0.0f64; n];
        let mut comp_proc = vec![0u32; n];
        let mut loads = vec![0.0f64; nprocs];
        let mut members: Vec<u32> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut moved = 0usize;
        for &(wlo, whi) in &ranges {
            if whi - wlo == 1 {
                // Untouched group: keep ownership and order as-is.
                for (p, list) in per_proc.iter_mut().enumerate() {
                    list.extend_from_slice(self.phase_slice(p, wlo));
                }
            } else {
                // Members in (wavefront, processor, position) order — a
                // topological order of the intra-group dependences.
                members.clear();
                for w in wlo..whi {
                    for p in 0..nprocs {
                        members.extend_from_slice(self.phase_slice(p, w));
                    }
                }
                roots.clear();
                for &i in &members {
                    let r = find(&mut parent, i) as usize;
                    if comp_weight[r] == 0.0 {
                        roots.push(r as u32);
                    }
                    comp_weight[r] += 1.0 + g.deps(i as usize).len() as f64;
                }
                // Heaviest component onto the least-loaded processor.
                roots.sort_unstable_by(|&a, &b| {
                    comp_weight[b as usize]
                        .total_cmp(&comp_weight[a as usize])
                        .then(a.cmp(&b))
                });
                loads.fill(0.0);
                for &r in &roots {
                    let mut best = 0usize;
                    for (p, &l) in loads.iter().enumerate().skip(1) {
                        if l < loads[best] {
                            best = p;
                        }
                    }
                    comp_proc[r as usize] = best as u32;
                    loads[best] += comp_weight[r as usize];
                }
                for &i in &members {
                    let r = find(&mut parent, i);
                    let p = comp_proc[r as usize];
                    if owners[i as usize] != p {
                        moved += 1;
                    }
                    per_proc[p as usize].push(i);
                }
                for &r in &roots {
                    comp_weight[r as usize] = 0.0;
                }
            }
            for (p, ptr) in phase_ptr.iter_mut().enumerate() {
                ptr.push(per_proc[p].len());
            }
        }
        let coalesced = Schedule {
            nprocs,
            num_phases: ngroups,
            per_proc,
            phase_ptr,
            wavefront: phase,
        };
        let stats = CoalesceStats {
            phases_before: np,
            phases_after: ngroups,
            moved,
        };
        Ok((coalesced, stats))
    }

    /// Serializes the schedule in the [`rtpl_sparse::wire`] format.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.nprocs as u64);
        w.put_u64(self.num_phases as u64);
        w.put_u32s(&self.wavefront);
        for p in 0..self.nprocs {
            w.put_u32s(&self.per_proc[p]);
            w.put_usizes32(&self.phase_ptr[p]);
        }
    }

    /// Decodes a schedule written by [`Schedule::encode`], re-checking the
    /// structural invariants a valid schedule carries (permutation-ness,
    /// phase-pointer shape, per-phase wavefront agreement) in one cheap
    /// O(n) pass — the wavefront sort itself is **not** redone. Graph
    /// agreement (the dependence property) is the caller's concern; plan
    /// artifacts persist the graph alongside and were validated at build.
    pub fn decode(r: &mut WireReader) -> WireResult<Schedule> {
        let dim = |raw: u64, what: &str| -> WireResult<usize> {
            usize::try_from(raw).map_err(|_| WireError::Invalid(format!("{what} {raw} overflows")))
        };
        let nprocs = dim(r.u64()?, "schedule nprocs")?;
        let num_phases = dim(r.u64()?, "schedule num_phases")?;
        let wavefront = r.u32s()?;
        let n = wavefront.len();
        if nprocs == 0 {
            return Err(WireError::Invalid("schedule has zero processors".into()));
        }
        if wavefront.iter().any(|&w| w as usize >= num_phases.max(1)) {
            return Err(WireError::Invalid(
                "schedule wavefront exceeds phase count".into(),
            ));
        }
        let mut per_proc = Vec::with_capacity(nprocs);
        let mut phase_ptr = Vec::with_capacity(nprocs);
        let mut seen = vec![false; n];
        for p in 0..nprocs {
            let list = r.u32s()?;
            let ptr = r.usizes32()?;
            if ptr.len() != num_phases + 1
                || ptr.first() != Some(&0)
                || ptr[num_phases] != list.len()
            {
                return Err(WireError::Invalid(format!(
                    "processor {p}: malformed phase pointers"
                )));
            }
            for w in 0..num_phases {
                if ptr[w] > ptr[w + 1] {
                    return Err(WireError::Invalid(format!(
                        "processor {p}: phase pointers not monotone at phase {w}"
                    )));
                }
                for &i in &list[ptr[w]..ptr[w + 1]] {
                    let i = i as usize;
                    if i >= n || seen[i] {
                        return Err(WireError::Invalid(format!(
                            "processor {p}: index {i} duplicated or out of range"
                        )));
                    }
                    seen[i] = true;
                    if wavefront[i] as usize != w {
                        return Err(WireError::Invalid(format!(
                            "processor {p}: index {i} in phase {w} has wavefront {}",
                            wavefront[i]
                        )));
                    }
                }
            }
            per_proc.push(list);
            phase_ptr.push(ptr);
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(WireError::Invalid(format!(
                "index {missing} not scheduled on any processor"
            )));
        }
        Ok(Schedule {
            nprocs,
            num_phases,
            per_proc,
            phase_ptr,
            wavefront,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpl_sparse::gen::laplacian_5pt;

    fn mesh(nx: usize, ny: usize) -> (DepGraph, Wavefronts) {
        let a = laplacian_5pt(nx, ny);
        let g = DepGraph::from_lower_triangular(&a.strict_lower()).unwrap();
        let wf = Wavefronts::compute(&g).unwrap();
        (g, wf)
    }

    #[test]
    fn global_schedule_valid_and_balanced() {
        let (g, wf) = mesh(5, 7);
        let s = Schedule::global(&wf, 4).unwrap();
        s.validate(&g).unwrap();
        let sizes: Vec<usize> = (0..4).map(|p| s.proc(p).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 35);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn global_schedule_balances_each_wavefront() {
        let (_, wf) = mesh(8, 8);
        let p = 4;
        let s = Schedule::global(&wf, p).unwrap();
        // Wavefront 7 (longest anti-diagonal, 8 indices) must be spread
        // evenly: 2 per processor.
        for q in 0..p {
            assert_eq!(s.phase_slice(q, 7).len(), 2);
        }
    }

    #[test]
    fn local_schedule_preserves_ownership() {
        let (g, wf) = mesh(6, 6);
        let part = Partition::striped(36, 3).unwrap();
        let s = Schedule::local(&wf, &part).unwrap();
        s.validate(&g).unwrap();
        for p in 0..3 {
            for &i in s.proc(p) {
                assert_eq!(
                    part.owner(i as usize),
                    p,
                    "local scheduling must not move indices"
                );
            }
        }
    }

    #[test]
    fn local_schedule_sorts_by_wavefront_stably() {
        let (_, wf) = mesh(4, 4);
        let part = Partition::striped(16, 2).unwrap();
        let s = Schedule::local(&wf, &part).unwrap();
        for p in 0..2 {
            let list = s.proc(p);
            for w in list.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(
                    wf.of(a) < wf.of(b) || (wf.of(a) == wf.of(b) && a < b),
                    "stable wavefront order violated"
                );
            }
        }
    }

    #[test]
    fn phase_slices_partition_proc_lists() {
        let (_, wf) = mesh(5, 5);
        let s = Schedule::global(&wf, 3).unwrap();
        for p in 0..3 {
            let total: usize = (0..s.num_phases()).map(|w| s.phase_slice(p, w).len()).sum();
            assert_eq!(total, s.proc(p).len());
        }
    }

    #[test]
    fn single_processor_schedule_is_topological_order() {
        let (g, wf) = mesh(4, 5);
        let s = Schedule::global(&wf, 1).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.proc(0).len(), 20);
        // Executing in this order never reads an unwritten value.
        let mut done = [false; 20];
        for &i in s.proc(0) {
            for &d in g.deps(i as usize) {
                assert!(done[d as usize]);
            }
            done[i as usize] = true;
        }
    }

    #[test]
    fn more_processors_than_indices() {
        let (g, wf) = mesh(2, 2);
        let s = Schedule::global(&wf, 16).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.nprocs(), 16);
    }

    #[test]
    fn owners_round_trip() {
        let (_, wf) = mesh(4, 4);
        let part = Partition::striped(16, 4).unwrap();
        let s = Schedule::local(&wf, &part).unwrap();
        let owners = s.owners();
        for i in 0..16 {
            assert_eq!(owners[i] as usize, part.owner(i));
        }
    }

    #[test]
    fn coalesce_single_proc_merges_all_and_keeps_order() {
        let (g, wf) = mesh(6, 6);
        let s = Schedule::global(&wf, 1).unwrap();
        let (c, stats) = s.coalesce(&g, 4.0).unwrap();
        assert_eq!(stats.phases_before, s.num_phases());
        assert_eq!(stats.phases_after, 1);
        assert_eq!(c.num_phases(), 1);
        assert_eq!(stats.moved, 0);
        // The execution order is bit-identical to the uncoalesced one.
        assert_eq!(c.proc(0), s.proc(0));
        c.validate(&g).unwrap();
    }

    #[test]
    fn coalesce_multi_proc_keeps_dependences_same_processor() {
        let (g, wf) = mesh(9, 7);
        for nprocs in [2usize, 4] {
            let s = Schedule::global(&wf, nprocs).unwrap();
            for grain in [2.0f64, 16.0, 1e9] {
                let (c, stats) = s.coalesce(&g, grain).unwrap();
                assert!(stats.phases_after <= stats.phases_before);
                c.validate(&g).unwrap();
                // Every dependence inside a phase must be same-processor
                // and earlier in the list (the phase-merge invariant).
                let owners = c.owners();
                let mut pos = vec![0usize; c.n()];
                for p in 0..nprocs {
                    for (k, &i) in c.proc(p).iter().enumerate() {
                        pos[i as usize] = k;
                    }
                }
                for i in 0..c.n() {
                    for &d in g.deps(i) {
                        let d = d as usize;
                        if c.wavefront_of(d) == c.wavefront_of(i) {
                            assert_eq!(owners[d], owners[i]);
                            assert!(pos[d] < pos[i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coalesce_tiny_grain_is_identity() {
        let (g, wf) = mesh(5, 5);
        let s = Schedule::global(&wf, 2).unwrap();
        let (c, stats) = s.coalesce(&g, 0.0).unwrap();
        assert_eq!(stats.phases_after, stats.phases_before);
        assert_eq!(stats.moved, 0);
        assert_eq!(c, s);
    }

    #[test]
    fn validate_rejects_tampered_schedule() {
        let (g, wf) = mesh(3, 3);
        let mut s = Schedule::global(&wf, 2).unwrap();
        // Swap two entries on processor 0 to break wavefront order.
        let last = s.per_proc[0].len() - 1;
        if last >= 1 {
            s.per_proc[0].swap(0, last);
        }
        assert!(s.validate(&g).is_err());
    }
}

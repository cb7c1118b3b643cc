//! Lock-free concurrent union-find.
//!
//! This is the Rust analogue of the disjoint-set code at the heart of
//! ECL-MST: parents live in a flat array of `AtomicU32`, `union` is a
//! compare-and-swap loop ("The union operation on Line 30 involves an
//! atomicCAS"), and the representative of a set is its highest-id member
//! (union by index), which makes `union` lock-free without per-node rank
//! storage — concurrent winners simply retry from the new roots.

#[cfg(ecl_model)]
use crate::model::shim::{AtomicU32, Ordering};
#[cfg(not(ecl_model))]
use std::sync::atomic::{AtomicU32, Ordering};

/// Orderings of the union compare-exchange (success, failure). AcqRel: a
/// successful union publishes the merge before any subsequent reservation
/// check observes the new root.
#[cfg(not(ecl_model_weak_union))]
const UNION_CAS_ORD: (Ordering, Ordering) = (Ordering::AcqRel, Ordering::Acquire);

/// Deliberately broken orderings for the model-checker's negative test:
/// under `--cfg ecl_model_weak_union` the union CAS is weakened to
/// `Relaxed` and the checker's ordering contract must flag every merge.
#[cfg(ecl_model_weak_union)]
const UNION_CAS_ORD: (Ordering, Ordering) = (Ordering::Relaxed, Ordering::Relaxed);

/// Find strategy used by [`AtomicDsu::find`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FindPolicy {
    /// Walk to the root without writing. ECL-MST's default: compression
    /// happens *implicitly* when the find result replaces the endpoint on
    /// the next worklist, so the structure itself is never compressed.
    #[default]
    NoCompression,
    /// Path halving with benign-race relaxed stores, the GPU-friendly
    /// explicit scheme ("path-halving code for GPUs") used by the
    /// "No Implicit Path Compression" de-optimized variant.
    Halving,
    /// Intermediate pointer jumping (Jaiganesh & Burtscher): every node on
    /// the walked path is re-pointed at its grandparent.
    IntermediatePointerJumping,
    /// Cache-blocked grandparent chasing with *bounded* path halving: the
    /// walk loads parent and grandparent like [`FindPolicy::Halving`], but a
    /// halving store is issued only (a) for the first
    /// [`HALVING_WRITE_BOUND`] steps of the walk and (b) when the walked
    /// node sits in the same [`CACHE_BLOCK_VERTICES`]-element block of the
    /// parent array as the query, so compression never dirties cache lines
    /// outside the block a scan is currently streaming through. Returns the
    /// same root as every other policy (halving stores are root-preserving).
    BlockedHalving,
}

/// Maximum halving stores one [`FindPolicy::BlockedHalving`] find issues.
/// Long chains beyond the bound are chased read-only; the next find over the
/// same region finishes the compression incrementally.
pub const HALVING_WRITE_BOUND: u32 = 4;

/// Block granularity (in elements) of the [`FindPolicy::BlockedHalving`]
/// same-block test: 16 Ki parents × 4 B = 64 KiB, a handful of L2 pages, so
/// a blocked scan's compression writes stay inside the region it already
/// owns. Must be a power of two (the test is a single XOR + mask).
pub const CACHE_BLOCK_VERTICES: u32 = 1 << 14;

/// Lock-free disjoint-set forest over elements `0..n`.
///
/// ```
/// use ecl_dsu::{AtomicDsu, FindPolicy};
/// let d = AtomicDsu::new(3);
/// std::thread::scope(|s| {
///     s.spawn(|| d.union(0, 1, FindPolicy::Halving));
///     s.spawn(|| d.union(1, 2, FindPolicy::Halving));
/// });
/// assert_eq!(d.num_sets(), 1);
/// // The representative is the highest id in the set (union by index).
/// assert_eq!(d.find(0, FindPolicy::NoCompression), 2);
/// ```
#[derive(Debug)]
pub struct AtomicDsu {
    parent: Vec<AtomicU32>,
}

impl AtomicDsu {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Resets every element to a singleton (requires exclusive access, so
    /// no atomics needed — used between benchmark repetitions).
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p.get_mut() = i as u32;
        }
    }

    #[inline]
    fn load_parent(&self, x: u32) -> u32 {
        // Relaxed suffices: parents only ever move toward the root, and the
        // algorithm tolerates stale reads (a stale parent is still in the
        // same set; callers re-check roots under CAS in `union`).
        self.parent[x as usize].load(Ordering::Relaxed)
    }

    /// Finds the current representative of `x` under the given policy.
    ///
    /// Returns the root *and* the number of parent hops walked (the hop
    /// count feeds the GPU cost model: each hop is a dependent global load).
    /// When an `ecl-metrics` session is active, every counted find also
    /// feeds the `ecl.dsu.find` / `find_hop` / `compression_write`
    /// counters; off, the telemetry costs one predictable branch.
    pub fn find_counted(&self, x: u32, policy: FindPolicy) -> (u32, u32) {
        let (root, hops, writes) = self.find_impl(x, policy);
        if ecl_metrics::active() {
            record_find_metrics(hops, writes);
        }
        (root, hops)
    }

    /// The policy dispatch behind [`find_counted`](Self::find_counted):
    /// returns `(root, hops, compression_writes)`.
    fn find_impl(&self, x: u32, policy: FindPolicy) -> (u32, u32, u32) {
        match policy {
            FindPolicy::NoCompression => {
                let mut cur = x;
                let mut hops = 0;
                loop {
                    let p = self.load_parent(cur);
                    if p == cur {
                        return (cur, hops, 0);
                    }
                    cur = p;
                    hops += 1;
                }
            }
            FindPolicy::Halving => {
                let mut cur = x;
                let mut hops = 0;
                let mut writes = 0;
                loop {
                    let p = self.load_parent(cur);
                    if p == cur {
                        return (cur, hops, writes);
                    }
                    let g = self.load_parent(p);
                    if g != p {
                        // Benign race: losing writers leave a still-valid
                        // (ancestor) parent in place.
                        self.parent[cur as usize].store(g, Ordering::Relaxed);
                        writes += 1;
                    }
                    cur = g;
                    hops += 1;
                }
            }
            FindPolicy::IntermediatePointerJumping => {
                let mut cur = x;
                let mut hops = 0;
                let mut writes = 0;
                loop {
                    let p = self.load_parent(cur);
                    if p == cur {
                        return (cur, hops, writes);
                    }
                    let g = self.load_parent(p);
                    if g != p {
                        self.parent[cur as usize].store(g, Ordering::Relaxed);
                        writes += 1;
                        cur = p; // advance one step, jumping intermediates
                    } else {
                        return (p, hops + 1, writes);
                    }
                    hops += 1;
                }
            }
            FindPolicy::BlockedHalving => {
                let block = x & !(CACHE_BLOCK_VERTICES - 1);
                let mut cur = x;
                let mut hops = 0;
                let mut writes = 0;
                loop {
                    let p = self.load_parent(cur);
                    if p == cur {
                        return (cur, hops, writes);
                    }
                    let g = self.load_parent(p);
                    if g != p
                        && writes < HALVING_WRITE_BOUND
                        && cur & !(CACHE_BLOCK_VERTICES - 1) == block
                    {
                        // Benign race, as in `Halving`: a losing writer
                        // leaves a still-valid ancestor in place.
                        self.parent[cur as usize].store(g, Ordering::Relaxed);
                        writes += 1;
                    }
                    cur = g;
                    hops += 1;
                }
            }
        }
    }

    /// Finds the current representative of `x`.
    #[inline]
    pub fn find(&self, x: u32, policy: FindPolicy) -> u32 {
        self.find_counted(x, policy).0
    }

    /// True when `x` and `y` are currently in the same set. (Under
    /// concurrent unions the answer is a snapshot, as on the GPU.)
    pub fn same(&self, x: u32, y: u32, policy: FindPolicy) -> bool {
        self.find(x, policy) == self.find(y, policy)
    }

    /// Lock-free union by index: the lower root is CAS-ed to point at the
    /// higher root; on contention the loser re-runs find from the moved
    /// root. Returns `true` when this call performed the merge and the
    /// number of CAS attempts (for the cost model).
    pub fn union_counted(&self, x: u32, y: u32, policy: FindPolicy) -> (bool, u32) {
        let (merged, attempts) = self.union_impl(x, y, policy);
        if ecl_metrics::active() {
            record_union_metrics(attempts);
        }
        (merged, attempts)
    }

    /// The CAS loop behind [`union_counted`](Self::union_counted).
    fn union_impl(&self, x: u32, y: u32, policy: FindPolicy) -> (bool, u32) {
        let mut rx = self.find(x, policy);
        let mut ry = self.find(y, policy);
        let mut attempts = 0;
        loop {
            if rx == ry {
                return (false, attempts);
            }
            let (lo, hi) = (rx.min(ry), rx.max(ry));
            attempts += 1;
            // See `UNION_CAS_ORD`: AcqRel so a successful union publishes
            // the merge before any subsequent reservation check observes
            // the new root.
            match self.parent[lo as usize].compare_exchange(
                lo,
                hi,
                UNION_CAS_ORD.0,
                UNION_CAS_ORD.1,
            ) {
                Ok(_) => return (true, attempts),
                Err(_) => {
                    // Someone re-parented lo concurrently; chase the roots
                    // and retry.
                    rx = self.find(lo, policy);
                    ry = self.find(hi, policy);
                }
            }
        }
    }

    /// Lock-free union by index (see [`Self::union_counted`]).
    #[inline]
    pub fn union(&self, x: u32, y: u32, policy: FindPolicy) -> bool {
        self.union_counted(x, y, policy).0
    }

    /// Snapshot of the number of disjoint sets (roots). Only meaningful in
    /// quiescent states.
    pub fn num_sets(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&v| self.load_parent(v) == v)
            .count()
    }

    /// Snapshot of all representatives (quiescent states only).
    pub fn labels(&self, policy: FindPolicy) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|v| self.find(v, policy))
            .collect()
    }

    /// Fills `out` with the representative of every element in **one**
    /// streaming pass — no pointer chasing. Quiescent states only.
    ///
    /// Union by index maintains `parent[v] >= v` (a root is only ever
    /// CAS-ed to a *higher* root, and halving stores re-point nodes at
    /// ancestors), so walking indices downward guarantees `out[parent[v]]`
    /// is already final when `v` is visited: each label is one sequential
    /// load plus one (already-cached, since `parent[v] >= v` was just
    /// written) lookup. Exactly equal to `labels(...)` but O(n) total
    /// instead of O(n · chain length) — the flat-DSU labeling pass the CPU
    /// codes run between their (barrier-separated) rounds.
    ///
    /// Debug builds assert the quiescence precondition as they go: every
    /// produced label must itself be a root. A concurrent union moves a
    /// root under us and trips the assertion (see the `ecl_model`
    /// scenario `flat_labels_quiescence_guard_trips_mid_union`), so a
    /// caller that streams labels mid-batch fails fast instead of
    /// returning a silently torn partition.
    pub fn flat_labels_into(&self, out: &mut Vec<u32>) {
        let n = self.parent.len();
        out.clear();
        out.resize(n, 0);
        for v in (0..n).rev() {
            let p = self.load_parent(v as u32);
            out[v] = if p as usize == v { p } else { out[p as usize] };
            debug_assert!(
                self.load_parent(out[v]) == out[v],
                "flat_labels_into at a non-quiescent point: label {} of element {v} is not a root",
                out[v],
            );
        }
    }
}

/// Out-of-line metrics publication for counted finds, `#[cold]` so the
/// metrics-off path compiles to a straight-line predictable branch.
#[cold]
fn record_find_metrics(hops: u32, writes: u32) {
    ecl_metrics::counter!(DSU_FIND);
    ecl_metrics::counter!(DSU_FIND_HOP, hops);
    ecl_metrics::counter!(DSU_COMPRESSION_WRITE, writes);
}

/// Out-of-line metrics publication for counted unions.
#[cold]
fn record_union_metrics(attempts: u32) {
    ecl_metrics::counter!(DSU_UNION);
    ecl_metrics::counter!(DSU_CAS_RETRY, attempts.saturating_sub(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{Compression, SeqDsu, UnionPolicy};
    use rand::{Rng, SeedableRng};

    const POLICIES: [FindPolicy; 4] = [
        FindPolicy::NoCompression,
        FindPolicy::Halving,
        FindPolicy::IntermediatePointerJumping,
        FindPolicy::BlockedHalving,
    ];

    #[test]
    fn singletons() {
        let d = AtomicDsu::new(4);
        for p in POLICIES {
            for x in 0..4 {
                assert_eq!(d.find(x, p), x);
            }
        }
        assert_eq!(d.num_sets(), 4);
    }

    #[test]
    fn union_semantics() {
        let d = AtomicDsu::new(4);
        let p = FindPolicy::NoCompression;
        assert!(d.union(0, 1, p));
        assert!(!d.union(0, 1, p));
        assert!(d.same(0, 1, p));
        assert!(!d.same(0, 2, p));
        assert_eq!(d.num_sets(), 3);
    }

    #[test]
    fn representative_is_highest_id() {
        let d = AtomicDsu::new(6);
        let p = FindPolicy::NoCompression;
        d.union(0, 5, p);
        d.union(1, 0, p);
        assert_eq!(d.find(0, p), 5);
        assert_eq!(d.find(1, p), 5);
    }

    #[test]
    fn all_find_policies_agree_on_roots() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 200;
        let d = AtomicDsu::new(n);
        for _ in 0..300 {
            let x = rng.gen_range(0..n as u32);
            let y = rng.gen_range(0..n as u32);
            d.union(x, y, FindPolicy::Halving);
        }
        let base = d.labels(FindPolicy::NoCompression);
        for p in POLICIES {
            assert_eq!(d.labels(p), base, "{p:?}");
        }
    }

    #[test]
    fn matches_sequential_partition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 500;
        let ops: Vec<(u32, u32)> = (0..800)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let atomic = AtomicDsu::new(n);
        let mut seq = SeqDsu::with_policies(n, Compression::Full, UnionPolicy::ByIndex);
        for &(x, y) in &ops {
            atomic.union(x, y, FindPolicy::Halving);
            seq.union(x, y);
        }
        for x in 0..n as u32 {
            for y in (x + 1)..(x + 5).min(n as u32) {
                assert_eq!(
                    atomic.same(x, y, FindPolicy::NoCompression),
                    seq.same(x, y),
                    "partition mismatch at ({x},{y})"
                );
            }
        }
        assert_eq!(atomic.num_sets(), seq.num_sets());
    }

    #[test]
    fn concurrent_unions_linearize() {
        // Hammer the structure from many threads; the final partition must
        // equal the sequential partition of the same edge multiset.
        let n = 2_000usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let edges: Vec<(u32, u32)> = (0..10_000)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let d = AtomicDsu::new(n);
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 8 + 1) {
                let d = &d;
                s.spawn(move || {
                    for &(x, y) in chunk {
                        d.union(x, y, FindPolicy::Halving);
                    }
                });
            }
        });
        let mut seq = SeqDsu::new(n);
        for &(x, y) in &edges {
            seq.union(x, y);
        }
        assert_eq!(d.num_sets(), seq.num_sets());
        let labels = d.labels(FindPolicy::NoCompression);
        for &(x, y) in &edges {
            assert_eq!(labels[x as usize], labels[y as usize]);
        }
    }

    #[test]
    fn concurrent_union_count_is_exact() {
        // Exactly one thread must win each merge: over any run, the number
        // of successful unions equals n - final_sets.
        let n = 1_000usize;
        let d = AtomicDsu::new(n);
        // Full path: under `--cfg ecl_model` the module-level `Ordering` is
        // the model shim's, which `AtomicUsize` does not accept.
        use std::sync::atomic::Ordering::Relaxed;
        let wins = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let d = &d;
                let wins = &wins;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                    for _ in 0..5_000 {
                        let x = rng.gen_range(0..n as u32);
                        let y = rng.gen_range(0..n as u32);
                        if x != y && d.union(x, y, FindPolicy::Halving) {
                            wins.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Relaxed), n - d.num_sets());
    }

    #[test]
    fn find_counted_reports_hops() {
        let d = AtomicDsu::new(4);
        let p = FindPolicy::NoCompression;
        // Build chain 0 -> 1 -> 2 -> 3 manually via unions.
        d.union(0, 1, p); // 0 -> 1
        d.union(1, 2, p); // 1 -> 2
        d.union(2, 3, p); // 2 -> 3
        let (root, hops) = d.find_counted(0, p);
        assert_eq!(root, 3);
        assert!(hops >= 1);
        let (_, root_hops) = d.find_counted(3, p);
        assert_eq!(root_hops, 0);
    }

    #[test]
    fn halving_reduces_subsequent_hops() {
        let d = AtomicDsu::new(64);
        let p = FindPolicy::NoCompression;
        for i in 0..63 {
            d.union(i, i + 1, p);
        }
        let (_, before) = d.find_counted(0, FindPolicy::NoCompression);
        let _ = d.find(0, FindPolicy::Halving);
        let (_, after) = d.find_counted(0, FindPolicy::NoCompression);
        assert!(
            after < before,
            "halving should shorten the chain: {before} -> {after}"
        );
    }

    #[test]
    fn reset_restores_singletons() {
        let mut d = AtomicDsu::new(5);
        d.union(0, 1, FindPolicy::Halving);
        d.reset();
        assert_eq!(d.num_sets(), 5);
    }

    #[test]
    fn flat_labels_match_find_labels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 17, 500] {
            let d = AtomicDsu::new(n);
            for _ in 0..(2 * n) {
                let x = rng.gen_range(0..n.max(1) as u32);
                let y = rng.gen_range(0..n.max(1) as u32);
                d.union(x, y, FindPolicy::Halving);
            }
            let mut flat = Vec::new();
            d.flat_labels_into(&mut flat);
            assert_eq!(flat, d.labels(FindPolicy::NoCompression), "n={n}");
        }
    }

    #[test]
    fn flat_labels_reuses_buffer() {
        let d = AtomicDsu::new(8);
        d.union(2, 7, FindPolicy::NoCompression);
        let mut out = vec![99; 3]; // wrong size and stale content
        d.flat_labels_into(&mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out[2], 7);
        assert_eq!(out[7], 7);
        assert_eq!(out[0], 0);
    }

    #[test]
    fn blocked_halving_bounds_writes_and_compresses() {
        // A 64-long chain: one blocked find may rewrite at most
        // HALVING_WRITE_BOUND parents, and the root must be exact.
        let d = AtomicDsu::new(64);
        let p = FindPolicy::NoCompression;
        for i in 0..63 {
            d.union(i, i + 1, p);
        }
        let before: Vec<u32> = (0..64).map(|v| d.load_parent(v)).collect();
        let (root, _) = d.find_counted(0, FindPolicy::BlockedHalving);
        assert_eq!(root, 63);
        let after: Vec<u32> = (0..64).map(|v| d.load_parent(v)).collect();
        let rewritten = before.iter().zip(&after).filter(|(b, a)| b != a).count() as u32;
        assert!(rewritten >= 1, "should compress something");
        assert!(
            rewritten <= HALVING_WRITE_BOUND,
            "writes {rewritten} exceed bound"
        );
        // Repeated finds keep shortening the chain without changing roots.
        let (_, h1) = d.find_counted(0, FindPolicy::NoCompression);
        let _ = d.find(0, FindPolicy::BlockedHalving);
        let (_, h2) = d.find_counted(0, FindPolicy::NoCompression);
        assert!(h2 < h1);
    }

    #[test]
    fn blocked_halving_skips_out_of_block_writes() {
        // Chain crossing a cache-block boundary: nodes outside the query's
        // block must keep their parents even within the write bound.
        let n = CACHE_BLOCK_VERTICES as usize + 8;
        let d = AtomicDsu::new(n);
        let p = FindPolicy::NoCompression;
        // x at the end of block 0 links into block 1's chain.
        let x = CACHE_BLOCK_VERTICES - 1;
        d.union(x, CACHE_BLOCK_VERTICES, p);
        for i in CACHE_BLOCK_VERTICES..(n as u32 - 1) {
            d.union(i, i + 1, p);
        }
        let before: Vec<u32> = (CACHE_BLOCK_VERTICES..n as u32)
            .map(|v| d.load_parent(v))
            .collect();
        let (root, _) = d.find_counted(x, FindPolicy::BlockedHalving);
        assert_eq!(root, n as u32 - 1);
        let after: Vec<u32> = (CACHE_BLOCK_VERTICES..n as u32)
            .map(|v| d.load_parent(v))
            .collect();
        assert_eq!(before, after, "out-of-block parents must be untouched");
    }
}

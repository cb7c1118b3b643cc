//! Incremental/dynamic MSF maintenance over batched edge updates.
//!
//! ROADMAP item 2 applies the paper's core insight — most edges never
//! matter to the MSF — over *time*: when a resident graph mutates, only
//! replacement-edge maintenance should run, not a full rebuild. This
//! module keeps a full adjacency plus the current minimum spanning forest
//! under batched insertions and deletions:
//!
//! * **Insert** — a cycle check via the DSU labels decides tree edge vs
//!   candidate; an edge that closes a cycle still enters the forest when
//!   it beats the maximum tree edge on the u–v tree path (cycle property).
//! * **Delete** — removing a non-tree edge is local; removing a tree edge
//!   floods the smaller side of the cut and picks the lightest surviving
//!   crossing edge as the replacement (cut property), reusing the
//!   filter-partition idea from [`crate::filter`] to prune the candidate
//!   scan. When no replacement exists the component genuinely splits and
//!   the DSU is rebuilt lazily at the next quiescent point.
//!
//! # The edge order, and why rebuild-equivalence holds
//!
//! Every static code in this workspace breaks weight ties by *builder
//! edge id*, and [`ecl_graph::GraphBuilder`] assigns ids by sorted
//! `(u, v)` rank — so the packed `(weight, id)` total order is exactly the
//! lexicographic `(weight, u, v)` order, which is stable under mutation.
//! The engine maintains its forest under that same `(w, u, v)` key, so
//! after any update sequence its tree-edge set is **bit-identical** to
//! rebuilding the surviving edge set from scratch and running
//! [`crate::serial_kruskal`] (the `ecl-fuzz --updates` campaign enforces
//! this after every batch, against that forest and the
//! [`crate::verify_msf`] certificate).
//!
//! Batches are the quiescence unit: [`DynamicMsf::apply_batch`] applies
//! ops in order, then rebuilds the DSU if a split dirtied it and refreshes
//! the reused flat-label buffer ([`ecl_dsu::AtomicDsu::flat_labels_into`]
//! is only legal at such points). Each batch records one
//! `dynamic/apply_batch` trace span and feeds the `ecl.dynamic.*` metrics.
//!
//! See DESIGN.md §18 for the full contract.

use crate::serial::serial_kruskal;
use ecl_dsu::{AtomicDsu, FindPolicy};
use ecl_graph::CsrGraph;
use std::collections::{BTreeMap, VecDeque};

/// Find policy used for all engine-internal DSU queries: the engine is
/// single-writer, so halving's relaxed compression stores are uncontended
/// and keep amortized find cost near-constant across batches.
const POLICY: FindPolicy = FindPolicy::Halving;

/// Candidate-set size below which the replacement search key-compares
/// directly instead of partitioning first (a threshold pass cannot pay for
/// itself on tiny scans).
const FILTER_MIN_CANDIDATES: usize = 64;

/// One edge update. Endpoints must be below the engine's vertex count;
/// self-loops are accepted and ignored (mirroring builder cleaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the undirected edge `{u, v}` with weight `w`. If the edge
    /// already exists the lighter weight wins (builder dedup semantics);
    /// inserting a heavier duplicate is a no-op.
    Insert {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Edge weight.
        w: u32,
    },
    /// Delete the undirected edge `{u, v}` (no-op when absent).
    Delete {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

/// What one [`DynamicMsf::apply_batch`] call did, for callers and tests;
/// the same numbers feed the `ecl.dynamic.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Ops in the batch (including no-ops).
    pub ops: usize,
    /// Edges actually added to the graph (self-loops and heavier
    /// duplicates excluded).
    pub inserted: usize,
    /// Edges actually removed from the graph.
    pub deleted: usize,
    /// Inserts that joined two components (new tree edge, DSU union).
    pub links: usize,
    /// Inserts that displaced a heavier tree edge on their cycle.
    pub swaps: usize,
    /// Deletes that removed a tree edge.
    pub cuts: usize,
    /// Cuts healed by a replacement edge (partition unchanged).
    pub replacements: usize,
    /// Crossing-edge candidates examined across all replacement searches.
    pub candidates_scanned: usize,
    /// Total tree-edge additions plus removals (the churn gauge).
    pub tree_churn: usize,
}

/// A resident graph plus its minimum spanning forest, maintained under
/// batched edge updates.
///
/// ```
/// use ecl_mst::dynamic::{DynamicMsf, UpdateOp};
/// let mut m = DynamicMsf::new(4);
/// m.apply_batch(&[
///     UpdateOp::Insert { u: 0, v: 1, w: 5 },
///     UpdateOp::Insert { u: 1, v: 2, w: 7 },
///     UpdateOp::Insert { u: 0, v: 2, w: 6 }, // closes a cycle, displaces 1-2
/// ]);
/// assert_eq!(m.num_tree_edges(), 2);
/// assert_eq!(m.total_weight(), 11);
/// assert!(!m.is_tree_edge(1, 2));
/// ```
#[derive(Debug)]
pub struct DynamicMsf {
    n: usize,
    /// Full adjacency: `nbrs[u][v] = w` for every live edge, both
    /// directions. BTreeMaps keep iteration deterministic.
    nbrs: Vec<BTreeMap<u32, u32>>,
    /// Forest adjacency, a subset of `nbrs`.
    tree: Vec<BTreeMap<u32, u32>>,
    num_edges: usize,
    num_tree_edges: usize,
    total_weight: u64,
    /// Component structure of the forest. Kept current by insert-side
    /// unions; a delete that splits a component marks it stale (union-find
    /// cannot un-union) and it is rebuilt lazily from the tree edges.
    dsu: AtomicDsu,
    dsu_stale: bool,
    /// Flat component labels, refreshed from the DSU at each batch
    /// boundary (the quiescent point `flat_labels_into` requires). The
    /// buffer is reused across batches — zero steady-state allocation.
    labels: Vec<u32>,
    // Reusable search scratch: visit stamps, BFS parents (+ edge weight to
    // parent), the two flood queues, and the replacement-filter weights.
    mark: Vec<u32>,
    stamp: u32,
    par: Vec<u32>,
    parw: Vec<u32>,
    qa: Vec<u32>,
    qb: Vec<u32>,
    wscratch: Vec<u32>,
}

impl DynamicMsf {
    /// Creates an engine over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        Self {
            n,
            nbrs: vec![BTreeMap::new(); n],
            tree: vec![BTreeMap::new(); n],
            num_edges: 0,
            num_tree_edges: 0,
            total_weight: 0,
            dsu: AtomicDsu::new(n),
            dsu_stale: false,
            labels: (0..n as u32).collect(),
            mark: vec![0; n],
            stamp: 0,
            par: vec![0; n],
            parw: vec![0; n],
            qa: Vec::new(),
            qb: Vec::new(),
            wscratch: Vec::new(),
        }
    }

    /// Seeds an engine from a resident CSR graph: the adjacency comes from
    /// the mutation-friendly [`CsrGraph::edge_list`] view and the initial
    /// forest from one [`serial_kruskal`] run (construction *is* the
    /// rebuild the engine is later measured against).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let mut m = Self::new(g.num_vertices());
        for (u, v, w) in g.edge_list() {
            m.nbrs[u as usize].insert(v, w);
            m.nbrs[v as usize].insert(u, w);
        }
        m.num_edges = g.num_edges();
        let msf = serial_kruskal(g);
        for e in g.edges() {
            if msf.in_mst[e.id as usize] {
                m.tree[e.src as usize].insert(e.dst, e.weight);
                m.tree[e.dst as usize].insert(e.src, e.weight);
            }
        }
        m.num_tree_edges = msf.num_edges;
        m.total_weight = msf.total_weight;
        m.dsu_stale = true;
        m.ensure_dsu();
        let mut labels = std::mem::take(&mut m.labels);
        m.dsu.flat_labels_into(&mut labels);
        m.labels = labels;
        m
    }

    /// Number of vertices (fixed for the engine's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of edges currently in the forest.
    pub fn num_tree_edges(&self) -> usize {
        self.num_tree_edges
    }

    /// Total weight of the forest.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Weight of the live edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<u32> {
        let (a, b) = canon(u, v)?;
        self.nbrs[a as usize].get(&b).copied()
    }

    /// True when `{u, v}` is currently a forest edge.
    pub fn is_tree_edge(&self, u: u32, v: u32) -> bool {
        match canon(u, v) {
            Some((a, b)) => self.tree[a as usize].contains_key(&b),
            None => false,
        }
    }

    /// Every forest edge as a canonical `(u, v, w)` triple with `u < v`,
    /// in vertex order — directly comparable against a rebuilt
    /// [`serial_kruskal`] edge set.
    pub fn tree_edges(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.num_tree_edges);
        for u in 0..self.n as u32 {
            for (&v, &w) in &self.tree[u as usize] {
                if u < v {
                    out.push((u, v, w));
                }
            }
        }
        out
    }

    /// Component labels as of the last batch boundary (every entry is the
    /// DSU root of its vertex). Mid-batch mutations are not reflected
    /// until the next [`DynamicMsf::apply_batch`] returns.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Applies `ops` in order, then restores quiescence: the DSU is
    /// rebuilt if a split dirtied it and the flat-label buffer refreshed.
    /// Records one `dynamic/apply_batch` trace span and the
    /// `ecl.dynamic.*` metrics.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> BatchStats {
        let _span = ecl_trace::range!(wall: "dynamic/apply_batch");
        let mut stats = BatchStats {
            ops: ops.len(),
            ..BatchStats::default()
        };
        for op in ops {
            match *op {
                UpdateOp::Insert { u, v, w } => self.do_insert(u, v, w, &mut stats),
                UpdateOp::Delete { u, v } => self.do_delete(u, v, &mut stats),
            }
        }
        // Quiescent point: the reused label buffer is only refreshed here,
        // where every label flat_labels_into produces is a settled root.
        self.ensure_dsu();
        let mut labels = std::mem::take(&mut self.labels);
        self.dsu.flat_labels_into(&mut labels);
        self.labels = labels;
        ecl_metrics::counter!(DYNAMIC_BATCHES);
        ecl_metrics::gauge!(DYNAMIC_TREE_CHURN, stats.tree_churn as f64);
        stats
    }

    /// Rebuilds the DSU from the tree edges when a split left it stale.
    fn ensure_dsu(&mut self) {
        if !self.dsu_stale {
            return;
        }
        self.dsu.reset();
        for u in 0..self.n as u32 {
            for &v in self.tree[u as usize].keys() {
                if u < v {
                    self.dsu.union(u, v, POLICY);
                }
            }
        }
        self.dsu_stale = false;
    }

    fn do_insert(&mut self, u: u32, v: u32, w: u32, stats: &mut BatchStats) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let Some((a, b)) = canon(u, v) else {
            return; // self-loop, dropped exactly as the builder drops it
        };
        if let Some(&old) = self.nbrs[a as usize].get(&b) {
            if w >= old {
                return; // heavier duplicate: the lightest wins, as in dedup
            }
            self.nbrs[a as usize].insert(b, w);
            self.nbrs[b as usize].insert(a, w);
            if let std::collections::btree_map::Entry::Occupied(mut e) =
                self.tree[a as usize].entry(b)
            {
                // Decreasing a tree edge's weight can never evict it.
                e.insert(w);
                self.tree[b as usize].insert(a, w);
                self.total_weight -= (old - w) as u64;
            } else {
                // A lighter non-tree edge may now displace its cycle max.
                self.try_swap(a, b, w, stats);
            }
            return;
        }
        self.nbrs[a as usize].insert(b, w);
        self.nbrs[b as usize].insert(a, w);
        self.num_edges += 1;
        stats.inserted += 1;
        // Cycle check via the DSU labels: distinct roots mean the edge
        // bridges two components and joins the forest unconditionally.
        self.ensure_dsu();
        if self.dsu.find(a, POLICY) != self.dsu.find(b, POLICY) {
            self.tree[a as usize].insert(b, w);
            self.tree[b as usize].insert(a, w);
            self.num_tree_edges += 1;
            self.total_weight += w as u64;
            self.dsu.union(a, b, POLICY);
            stats.links += 1;
            stats.tree_churn += 1;
        } else {
            self.try_swap(a, b, w, stats);
        }
    }

    /// Cycle-property step for a non-tree edge `(a, b, w)` whose endpoints
    /// are connected: if its key beats the maximum-key edge on the a–b
    /// tree path, swap them (the displaced edge stays in the graph).
    fn try_swap(&mut self, a: u32, b: u32, w: u32, stats: &mut BatchStats) {
        let (mw, mu, mv) = self.path_max(a, b);
        if (w, a, b) < (mw, mu, mv) {
            self.tree[mu as usize].remove(&mv);
            self.tree[mv as usize].remove(&mu);
            self.tree[a as usize].insert(b, w);
            self.tree[b as usize].insert(a, w);
            self.total_weight = self.total_weight - mw as u64 + w as u64;
            stats.swaps += 1;
            stats.tree_churn += 2;
            // The partition is unchanged: the DSU stays valid as-is.
        }
    }

    /// Maximum-key edge on the tree path between `a` and `b` (which must
    /// be in the same component), as a canonical `(w, u, v)` key.
    fn path_max(&mut self, a: u32, b: u32) -> (u32, u32, u32) {
        let s = self.bump_stamp(1);
        self.qa.clear();
        self.qa.push(a);
        self.mark[a as usize] = s;
        self.par[a as usize] = a;
        let mut head = 0;
        'bfs: while head < self.qa.len() {
            let x = self.qa[head];
            head += 1;
            for (&y, &wxy) in &self.tree[x as usize] {
                if self.mark[y as usize] != s {
                    self.mark[y as usize] = s;
                    self.par[y as usize] = x;
                    self.parw[y as usize] = wxy;
                    if y == b {
                        break 'bfs;
                    }
                    self.qa.push(y);
                }
            }
        }
        debug_assert_eq!(self.mark[b as usize], s, "path_max endpoints disconnected");
        let mut best = (0u32, 0u32, 0u32);
        let mut cur = b;
        let mut first = true;
        while cur != a {
            let p = self.par[cur as usize];
            let w = self.parw[cur as usize];
            let key = (w, p.min(cur), p.max(cur));
            if first || key > best {
                best = key;
                first = false;
            }
            cur = p;
        }
        best
    }

    fn do_delete(&mut self, u: u32, v: u32, stats: &mut BatchStats) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let Some((a, b)) = canon(u, v) else {
            return;
        };
        let Some(w) = self.nbrs[a as usize].remove(&b) else {
            return; // absent edge: no-op
        };
        self.nbrs[b as usize].remove(&a);
        self.num_edges -= 1;
        stats.deleted += 1;
        if self.tree[a as usize].remove(&b).is_none() {
            return; // non-tree edge: the forest is untouched
        }
        self.tree[b as usize].remove(&a);
        self.num_tree_edges -= 1;
        self.total_weight -= w as u64;
        stats.cuts += 1;
        stats.tree_churn += 1;
        if let Some((rw, ra, rb)) = self.replacement(a, b, stats) {
            self.tree[ra as usize].insert(rb, rw);
            self.tree[rb as usize].insert(ra, rw);
            self.num_tree_edges += 1;
            self.total_weight += rw as u64;
            stats.replacements += 1;
            stats.tree_churn += 1;
            // Replacement reconnects the cut: the partition is unchanged.
        } else {
            // The component genuinely split; rebuild the DSU lazily.
            self.dsu_stale = true;
        }
    }

    /// Cut-property step after deleting tree edge `(a, b)`: floods both
    /// sides of the cut in lockstep (cost bounded by the *smaller* side),
    /// then scans the finished side's incident edges for the lightest
    /// surviving crossing edge. Returns its canonical `(w, u, v)` triple.
    fn replacement(&mut self, a: u32, b: u32, stats: &mut BatchStats) -> Option<(u32, u32, u32)> {
        let sa = self.bump_stamp(2);
        let sb = sa + 1;
        self.qa.clear();
        self.qa.push(a);
        self.mark[a as usize] = sa;
        self.qb.clear();
        self.qb.push(b);
        self.mark[b as usize] = sb;
        let (mut ha, mut hb) = (0usize, 0usize);
        // Alternate single-vertex expansions; the first flood to exhaust
        // has fully covered its side of the cut.
        let side_stamp = loop {
            if ha >= self.qa.len() {
                break sa;
            }
            let x = self.qa[ha];
            ha += 1;
            for &y in self.tree[x as usize].keys() {
                if self.mark[y as usize] != sa {
                    self.mark[y as usize] = sa;
                    self.qa.push(y);
                }
            }
            if hb >= self.qb.len() {
                break sb;
            }
            let x = self.qb[hb];
            hb += 1;
            for &y in self.tree[x as usize].keys() {
                if self.mark[y as usize] != sb {
                    self.mark[y as usize] = sb;
                    self.qb.push(y);
                }
            }
        };
        let side = if side_stamp == sa { &self.qa } else { &self.qb };
        // Every non-tree edge connects vertices of one component, so an
        // incident edge leaving the finished side must cross the cut.
        let mut cands: Vec<(u32, u32, u32)> = Vec::new();
        for &x in side {
            for (&y, &wxy) in &self.nbrs[x as usize] {
                if self.mark[y as usize] == side_stamp || self.tree[x as usize].contains_key(&y) {
                    continue;
                }
                cands.push((wxy, x.min(y), x.max(y)));
            }
        }
        stats.candidates_scanned += cands.len();
        ecl_metrics::histogram!(DYNAMIC_REPLACEMENT_CANDIDATES, cands.len() as f64);
        pick_lightest(&cands, &mut self.wscratch)
    }

    /// Advances the visit stamp by `by`, recycling the mark array on
    /// wraparound (once per ~4 billion searches).
    fn bump_stamp(&mut self, by: u32) -> u32 {
        if self.stamp > u32::MAX - by {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.stamp = 0;
        }
        self.stamp += by;
        self.stamp - by + 1
    }
}

/// Canonical `(min, max)` endpoint pair; `None` for self-loops.
fn canon(u: u32, v: u32) -> Option<(u32, u32)> {
    if u == v {
        None
    } else {
        Some((u.min(v), u.max(v)))
    }
}

/// Picks the minimum `(w, u, v)` key among `cands`, reusing the
/// filter-partition idea from [`crate::filter::plan_filter`] on large
/// scans: sample a weight threshold, count the light partition with the
/// shared SWAR kernel ([`ecl_graph::simd::count_lt`]), and key-compare
/// only inside it — the partition contains the global minimum whenever it
/// is non-empty, by construction of the threshold.
fn pick_lightest(cands: &[(u32, u32, u32)], ws: &mut Vec<u32>) -> Option<(u32, u32, u32)> {
    if cands.len() < FILTER_MIN_CANDIDATES {
        return cands.iter().copied().min();
    }
    ws.clear();
    ws.extend(cands.iter().map(|c| c.0));
    // Threshold just above the lightest of ~20 evenly spaced samples: any
    // weight strictly below it includes the global minimum.
    let step = (cands.len() / 20).max(1);
    let sample_min = ws.iter().step_by(step).copied().min().expect("non-empty");
    let t = sample_min.saturating_add(1);
    if ecl_graph::simd::count_lt(ws, t) > 0 {
        cands.iter().copied().filter(|c| c.0 < t).min()
    } else {
        // All sampled weights saturate u32::MAX: partitioning is moot.
        cands.iter().copied().min()
    }
}

/// Sliding-window streaming over a [`DynamicMsf`]: each pushed stream item
/// enters the window and, once the window is full, the oldest item leaves.
/// The engine edge weight for a pair is always the minimum weight among
/// the pair's live items, so duplicate stream items behave like the
/// builder's keep-the-lightest dedup over the current window.
#[derive(Debug)]
pub struct SlidingWindow {
    engine: DynamicMsf,
    capacity: usize,
    /// Live stream items, oldest first (self-loops are dropped on push).
    items: VecDeque<(u32, u32, u32)>,
    /// Pair -> weight -> multiplicity for the live items.
    live: BTreeMap<(u32, u32), BTreeMap<u32, usize>>,
}

impl SlidingWindow {
    /// Creates a window of at most `capacity` stream items over `n`
    /// vertices.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            engine: DynamicMsf::new(n),
            capacity,
            items: VecDeque::new(),
            live: BTreeMap::new(),
        }
    }

    /// The engine maintaining the window's MSF.
    pub fn engine(&self) -> &DynamicMsf {
        &self.engine
    }

    /// Number of live stream items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no stream item is live.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes one stream item, evicting the oldest once the window is
    /// over capacity, and applies the resulting updates as one batch.
    /// Self-loops are dropped without occupying a window slot.
    pub fn push(&mut self, u: u32, v: u32, w: u32) -> BatchStats {
        let Some((a, b)) = canon(u, v) else {
            return self.engine.apply_batch(&[]);
        };
        let mut ops = Vec::new();
        self.items.push_back((a, b, w));
        *self.live.entry((a, b)).or_default().entry(w).or_insert(0) += 1;
        ops.push(UpdateOp::Insert { u: a, v: b, w });
        while self.items.len() > self.capacity {
            let (oa, ob, ow) = self.items.pop_front().expect("over-capacity window");
            let weights = self.live.get_mut(&(oa, ob)).expect("live entry for item");
            let m = weights.get_mut(&ow).expect("live weight for item");
            *m -= 1;
            if *m == 0 {
                weights.remove(&ow);
            }
            match weights.keys().next().copied() {
                None => {
                    self.live.remove(&(oa, ob));
                    ops.push(UpdateOp::Delete { u: oa, v: ob });
                }
                Some(min_w) if min_w > ow => {
                    // The evicted item held the pair's minimum: raise the
                    // engine edge to the surviving minimum.
                    ops.push(UpdateOp::Delete { u: oa, v: ob });
                    ops.push(UpdateOp::Insert {
                        u: oa,
                        v: ob,
                        w: min_w,
                    });
                }
                Some(_) => {} // an equal-or-lighter copy survives
            }
        }
        self.engine.apply_batch(&ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MstResult;
    use crate::verify::verify_msf;
    use ecl_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds the CSR graph of a live-edge model.
    fn rebuild(n: usize, model: &BTreeMap<(u32, u32), u32>) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(n, model.len());
        for (&(u, v), &w) in model {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Asserts the engine's forest is bit-identical to rebuilding `model`
    /// from scratch, via the full `verify_msf` gauntlet.
    fn assert_rebuild_equivalent(m: &DynamicMsf, model: &BTreeMap<(u32, u32), u32>) {
        assert_eq!(m.num_edges(), model.len());
        let g = rebuild(m.num_vertices(), model);
        let mut in_mst = vec![false; g.num_edges()];
        for e in g.edges() {
            in_mst[e.id as usize] = m.is_tree_edge(e.src, e.dst);
        }
        let r = MstResult::from_bitmap(&g, in_mst);
        assert_eq!(r.num_edges, m.num_tree_edges());
        assert_eq!(r.total_weight, m.total_weight());
        verify_msf(&g, &r).unwrap();
        // Labels must partition exactly like the forest.
        let labels = m.labels();
        for (u, v, _) in m.tree_edges() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    /// Applies an op to the model with the engine's exact semantics.
    fn model_apply(model: &mut BTreeMap<(u32, u32), u32>, op: UpdateOp) {
        match op {
            UpdateOp::Insert { u, v, w } => {
                if u != v {
                    let key = (u.min(v), u.max(v));
                    let e = model.entry(key).or_insert(w);
                    *e = (*e).min(w);
                }
            }
            UpdateOp::Delete { u, v } => {
                model.remove(&(u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn insert_links_and_swaps() {
        let mut m = DynamicMsf::new(4);
        let s = m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 4 },
            UpdateOp::Insert { u: 1, v: 2, w: 9 },
            UpdateOp::Insert { u: 2, v: 3, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 3 }, // displaces 1-2 (w=9)
        ]);
        assert_eq!(s.links, 3);
        assert_eq!(s.swaps, 1);
        assert_eq!(m.num_tree_edges(), 3);
        assert_eq!(m.total_weight(), 4 + 2 + 3);
        assert!(!m.is_tree_edge(1, 2));
        assert_eq!(m.edge_weight(1, 2), Some(9), "displaced edge stays live");
    }

    #[test]
    fn delete_finds_replacement() {
        let mut m = DynamicMsf::new(4);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 5 },
            UpdateOp::Insert { u: 2, v: 3, w: 3 },
        ]);
        assert!(!m.is_tree_edge(0, 2));
        let s = m.apply_batch(&[UpdateOp::Delete { u: 1, v: 2 }]);
        assert_eq!(s.cuts, 1);
        assert_eq!(s.replacements, 1);
        assert!(
            m.is_tree_edge(0, 2),
            "0-2 is the only surviving crossing edge"
        );
        assert_eq!(m.total_weight(), 1 + 5 + 3);
    }

    #[test]
    fn delete_without_replacement_splits() {
        let mut m = DynamicMsf::new(4);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
        ]);
        let s = m.apply_batch(&[UpdateOp::Delete { u: 0, v: 1 }]);
        assert_eq!(s.cuts, 1);
        assert_eq!(s.replacements, 0);
        assert_eq!(m.num_tree_edges(), 1);
        let l = m.labels();
        assert_ne!(l[0], l[1], "component must have split");
        assert_eq!(l[1], l[2]);
        // Re-linking works after the lazy DSU rebuild.
        let s = m.apply_batch(&[UpdateOp::Insert { u: 0, v: 2, w: 7 }]);
        assert_eq!(s.links, 1);
        assert_eq!(m.labels()[0], m.labels()[1]);
    }

    #[test]
    fn duplicate_keeps_lightest_and_self_loops_drop() {
        let mut m = DynamicMsf::new(3);
        let mut model = BTreeMap::new();
        let ops = [
            UpdateOp::Insert { u: 0, v: 1, w: 9 },
            UpdateOp::Insert { u: 1, v: 0, w: 4 }, // lighter duplicate wins
            UpdateOp::Insert { u: 0, v: 1, w: 7 }, // heavier duplicate: no-op
            UpdateOp::Insert { u: 2, v: 2, w: 1 }, // self-loop: dropped
            UpdateOp::Delete { u: 2, v: 2 },       // self-loop delete: no-op
        ];
        for op in ops {
            model_apply(&mut model, op);
        }
        m.apply_batch(&ops);
        assert_eq!(m.edge_weight(0, 1), Some(4));
        assert_eq!(m.num_edges(), 1);
        assert_rebuild_equivalent(&m, &model);
    }

    #[test]
    fn lighter_duplicate_can_enter_the_tree() {
        // Triangle where the non-tree edge becomes the lightest.
        let mut m = DynamicMsf::new(3);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 2 },
            UpdateOp::Insert { u: 1, v: 2, w: 3 },
            UpdateOp::Insert { u: 0, v: 2, w: 9 }, // non-tree
        ]);
        assert!(!m.is_tree_edge(0, 2));
        m.apply_batch(&[UpdateOp::Insert { u: 0, v: 2, w: 1 }]);
        assert!(m.is_tree_edge(0, 2));
        assert_eq!(m.total_weight(), 1 + 2);
    }

    #[test]
    fn deleting_absent_and_non_tree_edges_is_cheap() {
        let mut m = DynamicMsf::new(3);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 3 },
        ]);
        let s = m.apply_batch(&[
            UpdateOp::Delete { u: 2, v: 0 }, // non-tree
            UpdateOp::Delete { u: 2, v: 0 }, // now absent
        ]);
        assert_eq!(s.deleted, 1);
        assert_eq!(s.cuts, 0);
        assert_eq!(m.num_tree_edges(), 2);
    }

    #[test]
    fn randomized_batches_stay_rebuild_equivalent() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40usize;
        let mut m = DynamicMsf::new(n);
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for _batch in 0..30 {
            let mut ops = Vec::new();
            for _ in 0..12 {
                if model.is_empty() || rng.gen_range(0..10u32) < 6 {
                    ops.push(UpdateOp::Insert {
                        u: rng.gen_range(0..n as u32),
                        v: rng.gen_range(0..n as u32),
                        w: rng.gen_range(0..20u32),
                    });
                } else {
                    // Delete a uniformly random live edge (or miss).
                    let i = rng.gen_range(0..model.len());
                    let (&(u, v), _) = model.iter().nth(i).expect("non-empty");
                    ops.push(UpdateOp::Delete { u, v });
                }
            }
            for &op in &ops {
                model_apply(&mut model, op);
            }
            m.apply_batch(&ops);
            assert_rebuild_equivalent(&m, &model);
        }
    }

    #[test]
    fn from_graph_matches_serial_kruskal() {
        let g = ecl_graph::generators::rmat(8, 4, 3);
        let m = DynamicMsf::from_graph(&g);
        let r = serial_kruskal(&g);
        assert_eq!(m.num_tree_edges(), r.num_edges);
        assert_eq!(m.total_weight(), r.total_weight);
        let mut model = BTreeMap::new();
        for (u, v, w) in g.edge_list() {
            model.insert((u, v), w);
        }
        assert_rebuild_equivalent(&m, &model);
    }

    #[test]
    fn replacement_filter_partition_agrees_with_plain_min() {
        // Force the filtered path (>= FILTER_MIN_CANDIDATES candidates):
        // a long path 0-1-...-k plus many crossing edges over one cut.
        let n = 200usize;
        let mut m = DynamicMsf::new(n);
        let mut ops: Vec<UpdateOp> = (0..n as u32 - 1)
            .map(|i| UpdateOp::Insert {
                u: i,
                v: i + 1,
                w: 0,
            })
            .collect();
        // Crossing edges over the 99-100 cut, all heavier than the path.
        for i in 0..90u32 {
            ops.push(UpdateOp::Insert {
                u: i,
                v: n as u32 - 1 - i,
                w: 1000 - i,
            });
        }
        m.apply_batch(&ops);
        let s = m.apply_batch(&[UpdateOp::Delete { u: 99, v: 100 }]);
        assert_eq!(s.replacements, 1);
        assert!(s.candidates_scanned >= FILTER_MIN_CANDIDATES);
        // Lightest crossing edge is (89, 110, 911).
        assert!(m.is_tree_edge(89, 110));
        let mut model = BTreeMap::new();
        for (u, v, w) in m.tree_edges() {
            model.insert((u, v), w);
        }
        // Sanity: the engine still verifies against its own edge set.
        assert_eq!(m.num_tree_edges(), n - 1);
        drop(model);
    }

    #[test]
    fn sliding_window_tracks_the_live_suffix() {
        // Window of 4 over a stream with duplicates: the engine must
        // always equal a rebuild of the last-4-items edge multiset.
        let stream: Vec<(u32, u32, u32)> = vec![
            (0, 1, 5),
            (1, 2, 3),
            (0, 1, 2), // lighter duplicate of 0-1
            (2, 3, 4),
            (0, 1, 9), // heavier duplicate; evicts (0,1,5)
            (3, 4, 1), // evicts (1,2,3)
            (1, 2, 8), // evicts (0,1,2): 0-1 weight must *raise* to 9
        ];
        let mut w = SlidingWindow::new(5, 4);
        let mut window: VecDeque<(u32, u32, u32)> = VecDeque::new();
        for &(u, v, wt) in &stream {
            w.push(u, v, wt);
            window.push_back((u.min(v), u.max(v), wt));
            while window.len() > 4 {
                window.pop_front();
            }
            // Model: min weight per pair over the live window items.
            let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for &(a, b, x) in &window {
                let e = model.entry((a, b)).or_insert(x);
                *e = (*e).min(x);
            }
            assert_eq!(w.len(), window.len());
            super::tests::assert_rebuild_equivalent(w.engine(), &model);
        }
        assert_eq!(w.engine().edge_weight(0, 1), Some(9));
    }

    #[test]
    fn batch_metrics_feed_the_registry() {
        let ((), snap) = ecl_metrics::with_metrics(|| {
            let mut m = DynamicMsf::new(4);
            m.apply_batch(&[
                UpdateOp::Insert { u: 0, v: 1, w: 1 },
                UpdateOp::Insert { u: 1, v: 2, w: 2 },
                UpdateOp::Insert { u: 0, v: 2, w: 3 },
            ]);
            m.apply_batch(&[UpdateOp::Delete { u: 0, v: 1 }]);
        });
        assert_eq!(snap.counter("ecl.dynamic.batches"), 2);
        let hist = snap
            .entries
            .iter()
            .find(|e| e.name == "ecl.dynamic.replacement_candidates")
            .expect("histogram exported");
        assert_eq!(hist.count, 1, "one replacement search ran");
        let churn = snap
            .entries
            .iter()
            .find(|e| e.name == "ecl.dynamic.tree_churn")
            .expect("gauge exported");
        assert_eq!(churn.gauge, 2.0, "cut + replacement in the last batch");
    }

    #[test]
    fn apply_batch_emits_a_trace_span() {
        let ((), session) = ecl_trace::with_trace(|| {
            let mut m = DynamicMsf::new(2);
            m.apply_batch(&[UpdateOp::Insert { u: 0, v: 1, w: 1 }]);
        });
        assert!(
            session.chrome_trace().contains("dynamic/apply_batch"),
            "batch span missing from trace"
        );
    }
}

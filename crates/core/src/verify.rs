//! Solution verification.
//!
//! The paper's artifact "verifies the solution at the end of each run by
//! comparing it to the solution of a serial implementation of Kruskal's
//! algorithm". [`verify_msf`] proves the same fact without re-solving and
//! without sorting the edge list: it checks a certificate.
//!
//! Every code in this workspace breaks weight ties by edge id, so the
//! packed key `pack(w, id)` orders all edges strictly and the MSF is
//! unique. An edge set F is that MSF exactly when
//! 1. F is acyclic,
//! 2. F spans: no edge of the graph joins two different trees of F, and
//! 3. F has the strict cycle property: every non-tree edge's key is greater
//!    than every tree-edge key on the F-path between its endpoints.
//!
//! The unique MSF has all three (a non-tree edge lighter than some edge on
//! its cycle would swap in for it). Conversely, let F pass all three and
//! let e be an edge of the MSF M that is not in F. Removing e splits its
//! tree of M into two sides. The F-path between e's endpoints (it exists
//! by 2) crosses between them, so it holds an edge f that is not in M and,
//! by 3, is lighter than e; M − e + f would be a lighter spanning forest.
//! So M ⊆ F, and since both span the same components they have equal size:
//! F = M. Accepting therefore means "bit-identical to serial Kruskal", the
//! paper's check, while sharing no code with [`crate::serial_kruskal`].
//!
//! The check is one iterative DFS over the tree arcs that roots each tree
//! (the rooted-spanning-tree pass of "Beyond BFS", PAPERS.md), fused with
//! Tarjan's offline LCA: finished vertices are linked under their DFS
//! parent in a union-find whose links carry the largest tree-edge key on
//! the path they shortcut. The queries are the non-tree arcs already in
//! the CSR; see DESIGN.md §20.

use crate::result::{pack, MstResult};
use ecl_graph::{CsrGraph, VertexId};

/// DFS state of a vertex.
const UNSEEN: u8 = 0;
const ACTIVE: u8 = 1;
const DONE: u8 = 2;

/// Fully verifies `r` as the unique MSF of `g` (tie-break by edge id).
///
/// ```
/// use ecl_graph::generators::grid2d;
/// let g = grid2d(6, 1);
/// let mst = ecl_mst::ecl_mst_cpu(&g);
/// ecl_mst::verify_msf(&g, &mst).unwrap();
/// ```
///
/// Checks, in order:
/// 1. bitmap length and selected count are consistent,
/// 2. the selected edges are acyclic (a forest),
/// 3. no edge joins two trees of the forest (it spans),
/// 4. every non-tree edge is heavier than each tree edge on its cycle,
/// 5. the recorded total weight matches the forest.
///
/// Passing 2–4 is equivalent to equality with the serial-Kruskal forest
/// (see the module docs); no step sorts the edge list.
pub fn verify_msf(g: &CsrGraph, r: &MstResult) -> Result<(), String> {
    if r.in_mst.len() != g.num_edges() {
        return Err(format!(
            "bitmap length {} != edge count {}",
            r.in_mst.len(),
            g.num_edges()
        ));
    }
    let count = r.in_mst.iter().filter(|&&b| b).count();
    if count != r.num_edges {
        return Err(format!("num_edges {} != bitmap count {count}", r.num_edges));
    }
    let weight = Certificate::new(g, &r.in_mst).check()?;
    if weight != r.total_weight {
        return Err(format!(
            "total_weight {} != recomputed {weight}",
            r.total_weight
        ));
    }
    Ok(())
}

/// One certificate check: DFS state, the path-max union-find, and the
/// non-tree edges deferred to their LCA.
struct Certificate<'a> {
    g: &'a CsrGraph,
    in_mst: &'a [bool],
    state: Vec<u8>,
    /// Union-find parent; a vertex is its own root until it finishes.
    link: Vec<VertexId>,
    /// Largest tree-edge key on the path from a vertex to `link`. Until
    /// the vertex is linked it holds the key of its DFS parent edge.
    up: Vec<u64>,
    /// Head of each vertex's bucket of deferred queries, 1-based (0 = none).
    bucket: Vec<u32>,
    /// Deferred queries: (finishing endpoint, its arc, next in bucket).
    deferred: Vec<(VertexId, u32, u32)>,
}

impl<'a> Certificate<'a> {
    fn new(g: &'a CsrGraph, in_mst: &'a [bool]) -> Self {
        let n = g.num_vertices();
        Self {
            g,
            in_mst,
            state: vec![UNSEEN; n],
            link: vec![0; n],
            up: vec![0; n],
            bucket: vec![0; n],
            deferred: Vec::new(),
        }
    }

    fn arc_key(&self, a: usize) -> u64 {
        pack(self.g.arc_weight(a), self.g.arc_edge_id(a))
    }

    /// Runs the DFS from every unseen vertex and returns the forest weight.
    fn check(mut self) -> Result<u64, String> {
        let g = self.g;
        let mut weight = 0u64;
        // (vertex, next arc to scan, id of the edge to its DFS parent).
        let mut stack: Vec<(VertexId, usize, u32)> = Vec::new();
        for root in 0..g.num_vertices() as VertexId {
            if self.state[root as usize] != UNSEEN {
                continue;
            }
            self.discover(root);
            stack.push((root, g.arc_range(root).start, u32::MAX));
            while let Some(top) = stack.last_mut() {
                let (v, parent_id) = (top.0, top.2);
                let end = g.arc_range(v).end;
                let next = (top.1..end).find(|&a| {
                    let id = g.arc_edge_id(a);
                    self.in_mst[id as usize] && id != parent_id
                });
                top.1 = next.map_or(end, |a| a + 1);
                if let Some(a) = next {
                    let x = g.arc_dst(a);
                    if self.state[x as usize] != UNSEEN {
                        return Err(format!("selected edge {} closes a cycle", g.arc_edge_id(a)));
                    }
                    self.discover(x);
                    self.up[x as usize] = self.arc_key(a);
                    weight += u64::from(g.arc_weight(a));
                    stack.push((x, g.arc_range(x).start, g.arc_edge_id(a)));
                } else {
                    stack.pop();
                    self.finish(v, stack.last().map(|f| f.0))?;
                }
            }
        }
        Ok(weight)
    }

    fn discover(&mut self, v: VertexId) {
        self.state[v as usize] = ACTIVE;
        self.link[v as usize] = v;
    }

    /// Answers every non-tree edge whose second endpoint is `v`, plus the
    /// queries deferred to `v` as their LCA, then links `v` under its DFS
    /// parent.
    fn finish(&mut self, v: VertexId, parent: Option<VertexId>) -> Result<(), String> {
        for a in self.g.arc_range(v) {
            let x = self.g.arc_dst(a);
            if self.in_mst[self.g.arc_edge_id(a) as usize] || self.state[x as usize] != DONE {
                continue;
            }
            // The set root of a finished vertex is its deepest ancestor
            // still on the DFS stack, i.e. its LCA with `v`; a finished
            // root belongs to an earlier tree.
            let (lca, max) = self.find(x);
            if lca == v {
                self.cycle_property(a, max)?;
            } else if self.state[lca as usize] == ACTIVE {
                self.deferred.push((v, a as u32, self.bucket[lca as usize]));
                self.bucket[lca as usize] = self.deferred.len() as u32;
            } else {
                return Err(format!(
                    "forest does not span: edge {} joins two of its trees",
                    self.g.arc_edge_id(a)
                ));
            }
        }
        let mut i = self.bucket[v as usize];
        while i != 0 {
            let (y, a, next) = self.deferred[i as usize - 1];
            let (_, max_x) = self.find(self.g.arc_dst(a as usize));
            let (_, max_y) = self.find(y);
            self.cycle_property(a as usize, max_x.max(max_y))?;
            i = next;
        }
        self.state[v as usize] = DONE;
        if let Some(p) = parent {
            self.link[v as usize] = p;
        }
        Ok(())
    }

    /// Root of `v`'s set and the largest tree-edge key on the path to it,
    /// halving the path as it goes.
    fn find(&mut self, mut v: VertexId) -> (VertexId, u64) {
        let mut max = 0;
        loop {
            let p = self.link[v as usize];
            if p == v {
                return (v, max);
            }
            let gp = self.link[p as usize];
            if gp != p {
                self.up[v as usize] = self.up[v as usize].max(self.up[p as usize]);
                self.link[v as usize] = gp;
            }
            max = max.max(self.up[v as usize]);
            v = self.link[v as usize];
        }
    }

    /// The non-tree edge of arc `a` must be strictly heavier than `path_max`,
    /// the heaviest tree edge on the cycle it closes.
    fn cycle_property(&self, a: usize, path_max: u64) -> Result<(), String> {
        let key = self.arc_key(a);
        if key > path_max {
            return Ok(());
        }
        let (w, id) = crate::result::unpack(key);
        let (tw, tid) = crate::result::unpack(path_max);
        Err(format!(
            "edge set differs from the unique MSF: non-tree edge {id} (weight {w}) \
             is lighter than tree edge {tid} (weight {tw}) on the cycle it closes"
        ))
    }
}

/// Runs the fully-optimized CPU backend and verifies the result before
/// returning it — the paper's end-of-run verification ("The ECL-MST
/// implementation verifies the solution at the end of each run"), exposed
/// as a convenience for callers that want the same guarantee.
pub fn ecl_mst_cpu_verified(g: &CsrGraph) -> Result<MstResult, String> {
    let r = crate::cpu::ecl_mst_cpu(g);
    verify_msf(g, &r)?;
    Ok(r)
}

/// Simulated-GPU counterpart of [`ecl_mst_cpu_verified`].
pub fn ecl_mst_gpu_verified(
    g: &CsrGraph,
    profile: ecl_gpu_sim::GpuProfile,
) -> Result<MstResult, String> {
    let r = crate::gpu::ecl_mst_gpu(g, profile);
    verify_msf(g, &r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::ecl_mst_cpu;
    use crate::serial::serial_kruskal;
    use ecl_graph::generators::{grid2d, rmat};
    use ecl_graph::GraphBuilder;

    #[test]
    fn accepts_correct_solution() {
        let g = grid2d(10, 1);
        let r = ecl_mst_cpu(&g);
        verify_msf(&g, &r).unwrap();
    }

    #[test]
    fn accepts_msf_on_disconnected() {
        let g = rmat(8, 4, 2);
        let r = ecl_mst_cpu(&g);
        verify_msf(&g, &r).unwrap();
    }

    #[test]
    fn rejects_extra_edge() {
        let g = grid2d(6, 3);
        let mut r = ecl_mst_cpu(&g);
        // Adding any non-tree edge creates a cycle.
        let extra = r.in_mst.iter().position(|&b| !b).unwrap();
        r.in_mst[extra] = true;
        r.num_edges += 1;
        r.total_weight += g.edges().find(|e| e.id as usize == extra).unwrap().weight as u64;
        assert!(verify_msf(&g, &r).is_err());
    }

    #[test]
    fn rejects_missing_edge() {
        let g = grid2d(6, 3);
        let mut r = ecl_mst_cpu(&g);
        let first = r.in_mst.iter().position(|&b| b).unwrap();
        r.in_mst[first] = false;
        r.num_edges -= 1;
        r.total_weight -= g.edges().find(|e| e.id as usize == first).unwrap().weight as u64;
        assert!(verify_msf(&g, &r).is_err());
    }

    #[test]
    fn rejects_non_minimal_spanning_tree() {
        // A spanning tree that is not minimal: on a triangle, swap the
        // lightest edge for the heaviest.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(0, 2, 3);
        let g = b.build();
        let good = ecl_mst_cpu(&g);
        verify_msf(&g, &good).unwrap();
        // Build the bad tree {2, 3}.
        let mut in_mst = vec![false; 3];
        for e in g.edges().filter(|e| e.weight >= 2) {
            in_mst[e.id as usize] = true;
        }
        let bad = crate::result::MstResult::from_bitmap(&g, in_mst);
        let err = verify_msf(&g, &bad).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_bookkeeping() {
        let g = grid2d(4, 1);
        let mut r = ecl_mst_cpu(&g);
        r.total_weight += 1;
        assert!(verify_msf(&g, &r).unwrap_err().contains("total_weight"));
    }

    #[test]
    fn rejects_wrong_bitmap_length() {
        let g = grid2d(4, 1);
        let mut r = ecl_mst_cpu(&g);
        r.in_mst.push(false);
        assert!(verify_msf(&g, &r).unwrap_err().contains("length"));
    }

    // ---- mutation suite: every mutant must fail the certificate and
    // differ from the serial-Kruskal forest ----

    /// `base` with the edges `drop` removed and `add` selected, with its
    /// bookkeeping recomputed so only the structural checks can fail.
    fn mutant(g: &CsrGraph, base: &MstResult, drop: &[u32], add: &[u32]) -> MstResult {
        let mut in_mst = base.in_mst.clone();
        for &id in drop {
            assert!(in_mst[id as usize], "edge {id} is not a tree edge");
            in_mst[id as usize] = false;
        }
        for &id in add {
            assert!(!in_mst[id as usize], "edge {id} is already a tree edge");
            in_mst[id as usize] = true;
        }
        MstResult::from_bitmap(g, in_mst)
    }

    fn assert_rejected(g: &CsrGraph, m: &MstResult, needle: &str) {
        assert_ne!(m.in_mst, serial_kruskal(g).in_mst, "mutant equals Kruskal");
        let err = verify_msf(g, m).expect_err("mutant accepted");
        assert!(err.contains(needle), "expected {needle:?} in: {err}");
    }

    /// Id of the edge `u`–`v`.
    fn edge_id(g: &CsrGraph, u: u32, v: u32) -> u32 {
        g.neighbors(u).find(|e| e.dst == v).unwrap().id
    }

    /// Vertices reachable from `v` over the tree edges of `in_mst`.
    fn tree_side(g: &CsrGraph, in_mst: &[bool], v: u32) -> Vec<bool> {
        let mut seen = vec![false; g.num_vertices()];
        let mut todo = vec![v];
        seen[v as usize] = true;
        while let Some(u) = todo.pop() {
            for e in g.neighbors(u) {
                if in_mst[e.id as usize] && !seen[e.dst as usize] {
                    seen[e.dst as usize] = true;
                    todo.push(e.dst);
                }
            }
        }
        seen
    }

    #[test]
    fn mutant_tree_edge_swapped_for_heavier_crossing_edge() {
        let g = grid2d(12, 5);
        let r = serial_kruskal(&g);
        let mut swaps = 0;
        for t in g.edges().filter(|e| r.in_mst[e.id as usize]).step_by(7) {
            let mut in_mst = r.in_mst.clone();
            in_mst[t.id as usize] = false;
            let side = tree_side(&g, &in_mst, t.src);
            let Some(c) = g.edges().find(|e| {
                e.id != t.id
                    && !r.in_mst[e.id as usize]
                    && side[e.src as usize] != side[e.dst as usize]
            }) else {
                continue;
            };
            // Cut property: the crossing edge is heavier than the one cut.
            assert!(pack(c.weight, c.id) > pack(t.weight, t.id));
            let m = mutant(&g, &r, &[t.id], &[c.id]);
            assert_eq!(m.num_edges, r.num_edges);
            assert_rejected(&g, &m, "differs");
            swaps += 1;
        }
        assert!(swaps > 5, "only {swaps} swaps exercised");
    }

    #[test]
    fn mutant_tie_break_flip() {
        // A 4-cycle of equal weights: Kruskal keeps the three lowest ids,
        // the mutant keeps the highest id instead of the lowest.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            b.add_edge(u, v, 7);
        }
        let g = b.build();
        let r = serial_kruskal(&g);
        verify_msf(&g, &r).unwrap();
        assert!(!r.in_mst[3]);
        let m = mutant(&g, &r, &[0], &[3]);
        assert_eq!(m.total_weight, r.total_weight);
        assert_rejected(&g, &m, "differs");
    }

    #[test]
    fn mutant_dropped_tree_edge_fails_only_spanning() {
        for g in [grid2d(9, 4), rmat(8, 4, 2)] {
            let r = serial_kruskal(&g);
            for id in (0..g.num_edges() as u32)
                .filter(|&id| r.in_mst[id as usize])
                .step_by(11)
            {
                assert_rejected(&g, &mutant(&g, &r, &[id], &[]), "does not span");
            }
        }
    }

    #[test]
    fn mutant_extra_edge_closes_a_cycle() {
        let g = grid2d(9, 4);
        let r = serial_kruskal(&g);
        for id in (0..g.num_edges() as u32)
            .filter(|&id| !r.in_mst[id as usize])
            .step_by(5)
        {
            assert_rejected(&g, &mutant(&g, &r, &[], &[id]), "cycle");
        }
    }

    #[test]
    fn mutant_edge_joining_two_trees_of_a_disconnected_input() {
        // Two triangles; the forest of that disconnected input is checked
        // against the same graph plus one unselected bridge.
        let triangles = [
            (0, 1, 4),
            (1, 2, 5),
            (0, 2, 6),
            (3, 4, 1),
            (4, 5, 2),
            (3, 5, 3),
        ];
        let build = |extra: &[(u32, u32, u32)]| {
            let mut b = GraphBuilder::new(6);
            for &(u, v, w) in triangles.iter().chain(extra) {
                b.add_edge(u, v, w);
            }
            b.build()
        };
        let (g, bridged) = (build(&[]), build(&[(2, 3, 9)]));
        let r = serial_kruskal(&g);
        verify_msf(&g, &r).unwrap();
        let mut in_mst = vec![false; bridged.num_edges()];
        for e in g.edges().filter(|e| r.in_mst[e.id as usize]) {
            in_mst[edge_id(&bridged, e.src, e.dst) as usize] = true;
        }
        let m = MstResult::from_bitmap(&bridged, in_mst);
        assert_eq!(m.num_edges, 4);
        assert_rejected(&bridged, &m, "does not span");
    }

    #[test]
    fn mutants_with_zero_and_max_weights() {
        // A 4-cycle with a chord: weights at both ends of the u32 range.
        let max = u32::MAX;
        let mut b = GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 0), (1, 2, max), (2, 3, 0), (0, 3, max), (0, 2, max)] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let r = serial_kruskal(&g);
        verify_msf(&g, &r).unwrap();
        // Ids follow (u, v) order, so Kruskal keeps 0–2, the lowest-id
        // u32::MAX edge across the cut between the two zero-weight edges.
        let (zero, kept) = (edge_id(&g, 0, 1), edge_id(&g, 0, 2));
        assert!(r.in_mst[kept as usize]);
        // Zero-weight tree edge swapped for a u32::MAX edge across its cut.
        assert_rejected(
            &g,
            &mutant(&g, &r, &[zero], &[edge_id(&g, 1, 2)]),
            "differs",
        );
        // Tie-break flips among the u32::MAX edges.
        for (u, v) in [(0, 3), (1, 2)] {
            assert_rejected(
                &g,
                &mutant(&g, &r, &[kept], &[edge_id(&g, u, v)]),
                "differs",
            );
        }
    }

    #[test]
    fn accepts_exactly_the_kruskal_forest_under_random_mutation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for case in 0..60 {
            let n = rng.gen_range(1..40u32);
            let mut b = GraphBuilder::new(n as usize);
            for _ in 0..rng.gen_range(0..3 * n) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                // Few distinct weights, so ties are common.
                b.add_edge(u, v, rng.gen_range(0..4));
            }
            let g = b.build();
            let r = serial_kruskal(&g);
            verify_msf(&g, &r).unwrap();
            for _ in 0..40 {
                let mut in_mst = r.in_mst.clone();
                for _ in 0..rng.gen_range(1..4) {
                    if let Some(bit) = in_mst.get_mut(rng.gen_range(0..g.num_edges().max(1))) {
                        *bit = !*bit;
                    }
                }
                let m = MstResult::from_bitmap(&g, in_mst);
                assert_eq!(
                    verify_msf(&g, &m).is_ok(),
                    m.in_mst == r.in_mst,
                    "case {case}: certificate and Kruskal disagree"
                );
            }
        }
    }

    #[test]
    fn deep_trees_do_not_overflow_the_stack() {
        // A 2^20-vertex path closed by one chord: the DFS runs 2^20 deep
        // and the chord's path-max query walks the whole path.
        let n = 1u32 << 20;
        let mut b = GraphBuilder::with_capacity(n as usize, n as usize);
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1 + v % 1000);
        }
        b.add_edge(0, n - 1, 500);
        let g = b.build();
        let r = serial_kruskal(&g);
        verify_msf(&g, &r).unwrap();
        let chord = edge_id(&g, 0, n - 1);
        let path: Vec<bool> = (0..g.num_edges()).map(|id| id != chord as usize).collect();
        let m = MstResult::from_bitmap(&g, path);
        assert_rejected(&g, &m, "differs");

        // A road-map twin: one component with an enormous diameter.
        let g = ecl_graph::generators::road_map(512, 2.4, 8);
        verify_msf(&g, &serial_kruskal(&g)).unwrap();
    }
}

//! Edge-list ingestion and CSR construction.
//!
//! Implements the paper's input cleaning (§4): "we modified the graphs to
//! eliminate self-loops and multiple edges between the same two vertices. We
//! added any missing back edges to make the graphs undirected."

use crate::csr::CsrGraph;
use crate::par;
use crate::{VertexId, Weight};

/// log2 of [`BUCKET_WIDTH`].
const BUCKET_BITS: u32 = 12;

/// Vertices per bucket of [`GraphBuilder::build_chunked`]. A bucket's
/// per-row counters stay cache-resident, and the width is fixed, so bucket
/// boundaries depend only on the vertex count.
pub const BUCKET_WIDTH: usize = 1 << BUCKET_BITS;

/// Turns per-row counts into each row's first slot (exclusive prefix sum).
fn exclusive_prefix(counts: &mut [u32]) {
    let mut at = 0;
    for c in counts {
        (*c, at) = (at, at + *c);
    }
}

/// Accumulates undirected weighted edges and produces a clean [`CsrGraph`].
///
/// * self-loops are dropped,
/// * parallel edges are collapsed keeping the **lightest** weight (any MST of
///   the multigraph uses only lightest parallels, so this preserves MSTs),
/// * each surviving undirected edge gets a fresh id and two mirror arcs.
///
/// ```
/// use ecl_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 10);
/// b.add_edge(1, 0, 3); // parallel: lighter weight wins
/// b.add_edge(2, 2, 1); // self-loop: dropped
/// b.add_edge(2, 3, 7);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(0).next().unwrap().weight, 3);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Normalized as (min endpoint, max endpoint, weight).
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    ///
    /// # Panics
    /// If `num_vertices` exceeds `u32::MAX` (the 32-bit CSR limit).
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "binary 32-bit CSR format supports at most 2^32 - 1 vertices"
        );
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder expecting roughly `edge_hint` edges.
    pub fn with_capacity(num_vertices: usize, edge_hint: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(edge_hint);
        b
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds an undirected edge. Self-loops are silently dropped; duplicates
    /// are resolved at [`build`](Self::build) time.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        if u == v {
            return;
        }
        self.edges.push((u.min(v), u.max(v), w));
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId, Weight)>>(&mut self, it: I) {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds directly from an already-normalized edge list, skipping the
    /// per-edge `add_edge` bookkeeping. Triples must satisfy the `add_edge`
    /// postcondition: `u < v`, both in range. The chunked generators emit in
    /// exactly that form.
    pub(crate) fn from_normalized(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut b = Self::new(num_vertices);
        debug_assert!(edges
            .iter()
            .all(|&(u, v, _)| u < v && (v as usize) < num_vertices));
        b.edges = edges;
        b
    }

    /// Deduplicates, symmetrizes and converts to CSR.
    ///
    /// Runs the bucketed counting-sort build,
    /// [`build_chunked`](Self::build_chunked), on any thread budget (see
    /// DESIGN.md "Parallel CSR build"). The output is bit-identical to
    /// [`build_serial`](Self::build_serial) — `tests/build_parity.rs` checks
    /// that on every suite topology — and independent of the thread count.
    pub fn build(self) -> CsrGraph {
        let t0 = ecl_metrics::active().then(|| {
            // ecl-lint: allow(wall-clock-in-sim) host-side build-wall metric, gated on an active session; never feeds simulated numbers
            std::time::Instant::now()
        });
        let g = self.build_chunked();
        ecl_metrics::counter!(GRAPH_BUILDS);
        ecl_metrics::histogram!(GRAPH_BUILD_ARCS, g.num_arcs() as f64);
        if let Some(t0) = t0 {
            ecl_metrics::histogram!(GRAPH_BUILD_SECONDS, t0.elapsed().as_secs_f64());
        }
        g
    }

    /// The bucketed counting-sort CSR build behind [`build`](Self::build),
    /// callable directly so the parity tests name it.
    ///
    /// Vertices fall into buckets of [`BUCKET_WIDTH`]; every stage below is
    /// either a data-size-chunked stable scatter or one task per bucket, so
    /// no stage sorts the whole edge list and the result never depends on
    /// the thread count.
    pub fn build_chunked(self) -> CsrGraph {
        let n = self.num_vertices;
        let buckets = n.div_ceil(BUCKET_WIDTH).max(1);
        let bucket_of = |x: VertexId| (x >> BUCKET_BITS) as usize;
        let first_row = |b: usize| b << BUCKET_BITS;
        let row_cuts: Vec<usize> = (1..buckets).map(first_row).collect();
        ecl_metrics::counter!(GRAPH_BUILD_CHUNKS, buckets as u64);

        // 1. Group the normalized triples by source bucket, then free the
        //    raw list: nothing after the scatter reads it.
        let (mut by_src, src_off) =
            par::scatter_stable(&self.edges, buckets, |e| bucket_of(e.0), |_, &e| e);
        drop(self.edges);

        // 2. Per bucket: counting sort by source into packed (v, w) keys,
        //    sort each row, and keep the first — lightest — key of each
        //    destination run, written back as (u, v, w) at the front of the
        //    bucket's slice. The result is the bucket's deduped edges in
        //    (u, v) order. The per-row counters borrow `row_starts`, which
        //    step 5 overwrites.
        let mut row_starts = vec![0u32; n + 1];
        let mut keys = vec![0u64; by_src.len()];
        let tasks: Vec<_> = par::split_mut_at(&mut by_src, &src_off[1..buckets])
            .into_iter()
            .zip(par::split_mut_at(&mut keys, &src_off[1..buckets]))
            .zip(par::split_mut_at(&mut row_starts[..n], &row_cuts))
            .enumerate()
            .collect();
        let kept: Vec<usize> = par::par_tasks(tasks, |(b, ((piece, keys), next))| {
            assert!(
                piece.len() <= u32::MAX as usize,
                "bucket exceeds 2^32 raw triples"
            );
            let lo = first_row(b);
            for &(u, _, _) in piece.iter() {
                next[u as usize - lo] += 1;
            }
            exclusive_prefix(next);
            for &(u, v, w) in piece.iter() {
                let c = &mut next[u as usize - lo];
                keys[*c as usize] = u64::from(v) << 32 | u64::from(w);
                *c += 1;
            }
            // `next[r]` is now the end of row r.
            let (mut out, mut row_lo) = (0, 0);
            for (r, &row_hi) in next.iter().enumerate() {
                let row = &mut keys[row_lo..row_hi as usize];
                row.sort_unstable();
                let mut last = None;
                for &key in row.iter() {
                    let v = (key >> 32) as VertexId;
                    if last != Some(v) {
                        piece[out] = ((lo + r) as VertexId, v, key as Weight);
                        out += 1;
                        last = Some(v);
                    }
                }
                row_lo = row_hi as usize;
            }
            out
        });
        drop(keys);

        // 3. Compact into the deduped edge list. Buckets ascend by source, so
        //    the list is sorted by (u, v) and an edge's index is its id.
        let fwd_off: Vec<usize> = std::iter::once(0)
            .chain(kept.iter().scan(0, |acc, &k| {
                *acc += k;
                Some(*acc)
            }))
            .collect();
        let m = fwd_off[buckets];
        assert!(
            2 * m <= u32::MAX as usize,
            "arc count exceeds 32-bit CSR limit"
        );
        let mut edges = vec![(0, 0, 0); m];
        par::par_split_mut(&mut edges, &fwd_off[1..buckets], |b, piece| {
            piece.copy_from_slice(&by_src[src_off[b]..src_off[b] + piece.len()]);
        });
        drop(by_src);

        // 4. Reverse half: (v, u, w, id) grouped by destination bucket. The
        //    scatter is stable and its input is in id order, so the records
        //    of one destination v come out with ascending id — and, v being
        //    fixed, ascending u. No sort needed.
        let (rev, rev_off) = par::scatter_stable(
            &edges,
            buckets,
            |e| bucket_of(e.1),
            |id, &(u, v, w)| (v, u, w, id as u32),
        );

        // 5. Row s is its reverse arcs (dst < s, ascending) followed by its
        //    forward arcs (dst > s, ascending): a concatenation, written in
        //    place. Bucket b owns rows first_row(b).. and the arc range
        //    starting at fwd_off[b] + rev_off[b].
        let mut adjacency = vec![0 as VertexId; 2 * m];
        let mut arc_weights = vec![0 as Weight; 2 * m];
        let mut arc_edge_ids = vec![0u32; 2 * m];
        let arc_cuts: Vec<usize> = (1..buckets).map(|b| fwd_off[b] + rev_off[b]).collect();
        let tasks: Vec<_> = par::split_mut_at(&mut row_starts[..n], &row_cuts)
            .into_iter()
            .zip(par::split_mut_at(&mut adjacency, &arc_cuts))
            .zip(par::split_mut_at(&mut arc_weights, &arc_cuts))
            .zip(par::split_mut_at(&mut arc_edge_ids, &arc_cuts))
            .enumerate()
            .collect();
        par::par_tasks(tasks, |(b, (((starts, adj), wts), ids))| {
            let lo = first_row(b);
            let fwd = &edges[fwd_off[b]..fwd_off[b + 1]];
            let rvs = &rev[rev_off[b]..rev_off[b + 1]];
            // Row degrees, turned into each row's first slot in the bucket.
            starts.fill(0);
            for &(v, ..) in rvs {
                starts[v as usize - lo] += 1;
            }
            for &(u, ..) in fwd {
                starts[u as usize - lo] += 1;
            }
            exclusive_prefix(starts);
            let fwd_arcs = (fwd_off[b]..)
                .zip(fwd)
                .map(|(id, &(u, v, w))| (u, v, w, id as u32));
            for (src, dst, w, id) in rvs.iter().copied().chain(fwd_arcs) {
                let c = &mut starts[src as usize - lo];
                (adj[*c as usize], wts[*c as usize], ids[*c as usize]) = (dst, w, id);
                *c += 1;
            }
            // Each cursor now holds its row's end, the next row's start:
            // shift by one row and make them global.
            if !starts.is_empty() {
                starts.rotate_right(1);
                starts[0] = 0;
            }
            let base = (fwd_off[b] + rev_off[b]) as u32;
            for start in starts.iter_mut() {
                *start += base;
            }
        });
        row_starts[n] = (2 * m) as u32;

        CsrGraph::from_parts_unchecked(row_starts, adjacency, arc_weights, arc_edge_ids)
    }

    /// The pre-parallel reference implementation: serial sort, counting sort
    /// of arcs by source, per-row fixup sort. Kept verbatim as the oracle
    /// for the `build`/`build_serial` parity test; not used on any hot path
    /// (`cargo xtask lint-metering` flags serial sorts or `for`-loop hot
    /// paths that creep back into `build`).
    pub fn build_serial(mut self) -> CsrGraph {
        let n = self.num_vertices;

        // Sort normalized triples so duplicates are adjacent with the
        // lightest first, then keep the first of each (u, v) run.
        self.edges.sort_unstable();
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let m = self.edges.len();
        assert!(
            2 * m <= u32::MAX as usize,
            "arc count exceeds 32-bit CSR limit"
        );

        // Counting sort of arcs by source vertex.
        let mut degree = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            degree[u as usize + 1] += 1;
            degree[v as usize + 1] += 1;
        }
        let mut row_starts = degree;
        for i in 1..row_starts.len() {
            row_starts[i] += row_starts[i - 1];
        }

        let mut cursor = row_starts.clone();
        let mut adjacency = vec![0 as VertexId; 2 * m];
        let mut arc_weights = vec![0 as Weight; 2 * m];
        let mut arc_edge_ids = vec![0u32; 2 * m];
        for (id, &(u, v, w)) in self.edges.iter().enumerate() {
            for (s, d) in [(u, v), (v, u)] {
                let slot = cursor[s as usize] as usize;
                cursor[s as usize] += 1;
                adjacency[slot] = d;
                arc_weights[slot] = w;
                arc_edge_ids[slot] = id as u32;
            }
        }

        // Because the input triples were sorted by (u, v), the arcs emitted
        // for each source u are already in ascending destination order for
        // the u < v half; the v > u half interleaves, so sort each row for a
        // canonical adjacency order (cheap: rows are short on our inputs).
        let g_rows = row_starts.clone();
        for v in 0..n {
            let lo = g_rows[v] as usize;
            let hi = g_rows[v + 1] as usize;
            let mut row: Vec<(VertexId, Weight, u32)> = (lo..hi)
                .map(|a| (adjacency[a], arc_weights[a], arc_edge_ids[a]))
                .collect();
            row.sort_unstable();
            for (off, (d, w, id)) in row.into_iter().enumerate() {
                adjacency[lo + off] = d;
                arc_weights[lo + off] = w;
                arc_edge_ids[lo + off] = id;
            }
        }

        CsrGraph::from_parts_unchecked(row_starts, adjacency, arc_weights, arc_edge_ids)
    }
}

/// Returns a copy of `g` with `extra` isolated vertices appended.
///
/// The paper's RMAT/Kronecker inputs are padded to a power-of-two vertex
/// count by their generator; the unreached vertices account for most of
/// their huge connected-component counts. This helper reproduces that
/// padding for the synthetic twins.
pub fn append_isolated(g: &CsrGraph, extra: usize) -> CsrGraph {
    let mut row_starts = g.row_starts().to_vec();
    let last = *row_starts.last().expect("row_starts never empty");
    row_starts.extend(std::iter::repeat_n(last, extra));
    CsrGraph::from_parts_unchecked(
        row_starts,
        g.adjacency().to_vec(),
        g.arc_weights().to_vec(),
        g.arc_edge_ids().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_lightest() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        b.add_edge(1, 0, 2);
        b.add_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next().unwrap().weight, 2);
        g.validate().unwrap();
    }

    #[test]
    fn dedup_keeps_lightest_on_every_build_path() {
        // Pins the io_dimacs module-doc promise ("collapse parallels
        // keeping the lightest"): the tie handling lives in the shared
        // sort+dedup, but each build path runs its own copy of it, so pin
        // lightest-wins — not first-wins or last-wins — on all three, with
        // the lightest duplicate arriving first, last, and mid-run, in
        // both arc directions.
        let edges: &[(VertexId, VertexId, Weight)] = &[
            (0, 1, 4), // lightest first
            (1, 0, 9),
            (1, 2, 8),
            (2, 1, 3), // lightest last
            (0, 2, 7),
            (2, 0, 5), // lightest mid-run
            (0, 2, 6),
        ];
        let make = || {
            let mut b = GraphBuilder::new(3);
            b.extend_edges(edges.iter().copied());
            b
        };
        let (g, gs, gc) = (
            make().build(),
            make().build_serial(),
            make().build_chunked(),
        );
        assert_eq!(g, gs, "build must agree with build_serial");
        assert_eq!(g, gc, "build must agree with build_chunked");
        let weight_of = |u: VertexId, v: VertexId| {
            g.neighbors(u)
                .find(|e| e.dst == v)
                .expect("edge present")
                .weight
        };
        assert_eq!(weight_of(0, 1), 4);
        assert_eq!(weight_of(1, 2), 3);
        assert_eq!(weight_of(0, 2), 5);
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 4);
        b.add_edge(0, 2, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn adjacency_rows_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 4, 1);
        b.add_edge(2, 0, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(2, 1, 1);
        let g = b.build();
        let row: Vec<_> = g.neighbors(2).map(|e| e.dst).collect();
        assert_eq!(row, vec![0, 1, 3, 4]);
        g.validate().unwrap();
    }

    #[test]
    fn edge_ids_dense_and_shared() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let mut ids: Vec<_> = g.edges().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoint() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn extend_edges_matches_add_edge() {
        let mut a = GraphBuilder::new(4);
        a.extend_edges([(0, 1, 5), (1, 2, 6)]);
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 6);
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn append_isolated_adds_components() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let padded = append_isolated(&g, 5);
        assert_eq!(padded.num_vertices(), 8);
        assert_eq!(padded.num_edges(), 2);
        assert_eq!(padded.degree(5), 0);
        padded.validate().unwrap();
        assert_eq!(crate::stats::connected_components(&padded), 6);
    }

    #[test]
    fn append_isolated_zero_is_identity() {
        let g = {
            let mut b = GraphBuilder::new(2);
            b.add_edge(0, 1, 3);
            b.build()
        };
        assert_eq!(append_isolated(&g, 0), g);
    }

    #[test]
    fn build_large_star_is_valid() {
        let n = 1000;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(0, v, v);
        }
        let g = b.build();
        assert_eq!(g.degree(0), n - 1);
        assert_eq!(g.max_degree(), n - 1);
        g.validate().unwrap();
    }
}

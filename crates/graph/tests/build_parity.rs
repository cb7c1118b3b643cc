//! Parallel-vs-serial CSR build parity.
//!
//! `GraphBuilder::build_chunked` (the bucketed counting-sort build behind
//! `build`) must produce bit-identical CSRs to
//! `GraphBuilder::build_serial` (the legacy counting sort kept as the
//! oracle) on every suite topology — same row starts, same
//! adjacency order, same weights, same edge-id assignment. The parallel path
//! must also be schedule-independent: pinning it to one thread via
//! `par::with_serial_input` cannot change a byte.

use ecl_graph::builder::BUCKET_WIDTH;
use ecl_graph::par::with_serial_input;
use ecl_graph::{suite, suite_specs, CsrGraph, GraphBuilder, SuiteScale};

/// Rebuilds `g`'s edge list through both build paths and compares.
fn assert_parity(name: &str, g: &CsrGraph) {
    // Recover the undirected edge list in edge-id order, then feed it to
    // fresh builders in a scrambled order so the comparison exercises the
    // sort + dedup stages, not just pass-through.
    let mut edges: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|e| (e.src.max(e.dst), e.src.min(e.dst), e.weight))
        .collect();
    edges.reverse();
    // A few duplicates with heavier weights: dedup must keep the originals.
    let dupes: Vec<_> = edges
        .iter()
        .step_by(7)
        .map(|&(u, v, w)| (v, u, w.saturating_add(1)))
        .collect();
    edges.extend(dupes);

    let n = g.num_vertices();
    let build = |serial: bool| -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        if serial {
            b.build_serial()
        } else {
            b.build_chunked()
        }
    };
    let parallel = build(false);
    let serial = build(true);
    assert_eq!(
        parallel, serial,
        "{name}: parallel build diverged from the serial oracle"
    );
    let pinned = with_serial_input(|| build(false));
    assert_eq!(
        parallel, pinned,
        "{name}: parallel build is schedule-dependent"
    );
    parallel
        .validate()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn suite_entries_build_identically() {
    for e in suite(SuiteScale::Tiny) {
        assert_parity(e.name, &e.graph);
    }
}

#[test]
fn empty_and_degenerate_graphs() {
    for (n, edges) in [
        (0usize, vec![]),
        (1, vec![]),
        (5, vec![]),
        (2, vec![(0u32, 1u32, 7u32)]),
        (3, vec![(0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 2, 5)]),
    ] {
        let mk = |serial: bool| {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges.iter().copied());
            if serial {
                b.build_serial()
            } else {
                b.build_chunked()
            }
        };
        assert_eq!(mk(false), mk(true), "n={n}");
        mk(false).validate().unwrap();
    }
}

#[test]
fn msf_counters_identical_across_paths() {
    // The built CSR feeds the MST codes; identical bytes must give
    // identical forests. Spot-check with the serial Kruskal reference on a
    // scrambled rebuild of one multi-component suite entry.
    let entries = suite(SuiteScale::Tiny);
    let e = entries
        .iter()
        .find(|e| !e.is_mst_input())
        .expect("suite has MSF inputs");
    let edges: Vec<(u32, u32, u32)> = e
        .graph
        .edges()
        .map(|ed| (ed.src, ed.dst, ed.weight))
        .collect();
    let n = e.graph.num_vertices();
    let forest_weight = |g: &CsrGraph| {
        let mut sorted: Vec<(u32, u32, u32)> =
            g.edges().map(|ed| (ed.weight, ed.src, ed.dst)).collect();
        sorted.sort_unstable();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut total = 0u64;
        for (w, u, v) in sorted {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru as usize] = rv;
                total += u64::from(w);
            }
        }
        total
    };
    let mk = |serial: bool| {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges.iter().copied());
        if serial {
            b.build_serial()
        } else {
            b.build_chunked()
        }
    };
    let (p, s) = (mk(false), mk(true));
    assert_eq!(p, s);
    assert_eq!(forest_weight(&p), forest_weight(&s));
}

// --- bucket-crossing inputs ------------------------------------------------
//
// Tiny suite graphs fit inside one vertex bucket of the counting-sort build,
// so the cases below size their inputs by `BUCKET_WIDTH` to cross bucket
// boundaries, and the scatter's chunk size, on purpose.

/// Items per chunk of the build's stable scatter (`par::scatter_stable`).
const SCATTER_CHUNK: usize = 1 << 16;

/// Deterministic xorshift stream for test inputs.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Builds `arcs` on `n` vertices four ways — the serial oracle,
/// `build_chunked`, and `build` threaded and pinned to one thread — and
/// checks that all four are the same valid CSR.
fn assert_all_paths_agree(name: &str, n: usize, arcs: &[(u32, u32, u32)]) -> CsrGraph {
    let builder = || {
        let mut b = GraphBuilder::with_capacity(n, arcs.len());
        b.extend_edges(arcs.iter().copied());
        b
    };
    let serial = builder().build_serial();
    serial.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        builder().build_chunked(),
        serial,
        "{name}: build_chunked diverged from the serial oracle"
    );
    assert_eq!(builder().build(), serial, "{name}: build diverged");
    assert_eq!(
        with_serial_input(|| builder().build()),
        serial,
        "{name}: one-thread build diverged"
    );
    serial
}

/// `m` random edges on `n` vertices with weights in `0..max_w` (small
/// `max_w` forces weight ties). The draws repeat pairs, so the list holds
/// parallel edges, and now and then a self-loop.
fn random_edges(n: usize, m: usize, max_w: usize, seed: u64) -> Vec<(u32, u32, u32)> {
    let mut rng = Rng(seed | 1);
    (0..m)
        .map(|_| {
            let u = rng.below(n) as u32;
            // Mostly near neighbours (rows that cross bucket ends), some far.
            let v = if rng.below(4) == 0 {
                rng.below(n)
            } else {
                (u as usize + 1 + rng.below(8)) % n
            };
            (u, v as u32, rng.below(max_w) as u32)
        })
        .collect()
}

#[test]
fn vertex_counts_around_bucket_boundaries() {
    for n in [3 * BUCKET_WIDTH - 1, 3 * BUCKET_WIDTH, 3 * BUCKET_WIDTH + 1] {
        let mut arcs = random_edges(n, 4 * n, 50, n as u64);
        // The first and last vertex of every bucket, linked across the cut.
        for cut in (BUCKET_WIDTH..n).step_by(BUCKET_WIDTH) {
            arcs.push((cut as u32 - 1, cut as u32, 7));
            arcs.push((cut as u32, cut as u32 - 1, 3));
        }
        arcs.push((0, n as u32 - 1, 1));
        let g = assert_all_paths_agree(&format!("n={n}"), n, &arcs);
        assert!(
            g.degree(n as u32 - 1) > 0,
            "n={n}: last vertex must be an endpoint"
        );
    }
}

#[test]
fn hub_wider_than_a_bucket_and_a_scatter_chunk() {
    let hub_degree = SCATTER_CHUNK + BUCKET_WIDTH + 3;
    let n = hub_degree + 2;
    // One hub early (its row is mostly forward arcs, one huge row to sort)
    // and one at the last vertex (all reverse arcs, whose ids span every
    // chunk of the reverse scatter).
    let hubs = [(BUCKET_WIDTH + 5) as u32, n as u32 - 1];
    let mut rng = Rng(99);
    let mut arcs: Vec<(u32, u32, u32)> = Vec::new();
    for hub in hubs {
        for v in (0..n as u32).filter(|&v| v != hub) {
            let w = rng.below(1000) as u32;
            // Both orientations, the reverse copy heavier.
            arcs.extend([(hub, v, w), (v, hub, w + 1)]);
        }
    }
    arcs.extend(random_edges(n, n, 1000, 5));
    rng.shuffle(&mut arcs);
    let g = assert_all_paths_agree("hubs", n, &arcs);
    for hub in hubs {
        assert_eq!(g.degree(hub), n - 1);
    }
}

#[test]
fn isolated_vertices_after_the_last_endpoint() {
    // Endpoints stay in the first bucket and a half; four more buckets of
    // vertices (the last one partial) are isolated.
    let used = BUCKET_WIDTH + BUCKET_WIDTH / 2;
    let n = 5 * BUCKET_WIDTH + 17;
    let arcs = random_edges(used, 3 * used, 100, 11);
    let g = assert_all_paths_agree("isolated tail", n, &arcs);
    assert!((used as u32..n as u32).all(|v| g.degree(v) == 0));
    assert_eq!(g.row_starts()[n], g.row_starts()[used]);
}

#[test]
fn shuffled_symmetric_arcs_with_heavier_duplicates() {
    // The form the benchmark feeds: every edge in both orientations,
    // shuffled, plus heavier duplicates the dedup must drop.
    let n = 2 * BUCKET_WIDTH + 123;
    let base = random_edges(n, 5 * n, 1 << 20, 23);
    let mut rng = Rng(41);
    let mut arcs: Vec<(u32, u32, u32)> = base
        .iter()
        .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
        .collect();
    for &(u, v, w) in base.iter().step_by(3) {
        arcs.push((v, u, w + 1 + rng.below(9) as u32));
    }
    rng.shuffle(&mut arcs);
    assert_all_paths_agree("symmetric", n, &arcs);
}

#[test]
fn small_scale_suite_entries_build_identically() {
    // A mesh, a road map and a skewed Kronecker twin: several buckets each,
    // and the Kronecker hubs cross the scatter's chunk size.
    let wanted = ["2d-2e20.sym", "europe_osm", "kron_g500-logn21"];
    let specs: Vec<_> = suite_specs(SuiteScale::Small)
        .into_iter()
        .filter(|s| wanted.contains(&s.name))
        .collect();
    assert_eq!(specs.len(), wanted.len(), "suite names changed");
    for spec in specs {
        let e = spec.build();
        assert!(e.graph.num_vertices() > BUCKET_WIDTH, "{}", e.name);
        let mut arcs: Vec<(u32, u32, u32)> = e
            .graph
            .edges()
            .flat_map(|ed| [(ed.src, ed.dst, ed.weight), (ed.dst, ed.src, ed.weight)])
            .collect();
        Rng(7).shuffle(&mut arcs);
        let g = assert_all_paths_agree(e.name, e.graph.num_vertices(), &arcs);
        assert_eq!(g, e.graph, "{}: rebuild changed the suite graph", e.name);
    }
}

#[test]
fn build_needs_no_thread_count_branch() {
    // `build` always takes the bucketed path; pinned to one thread it must
    // still equal the serial oracle, on the tiny suite as well.
    for e in suite(SuiteScale::Tiny) {
        let arcs: Vec<(u32, u32, u32)> = e
            .graph
            .edges()
            .map(|ed| (ed.dst, ed.src, ed.weight))
            .collect();
        assert_all_paths_agree(e.name, e.graph.num_vertices(), &arcs);
    }
}

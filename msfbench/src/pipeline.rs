//! Static workloads: one operation takes a raw arc list to a verified
//! forest — `GraphBuilder::build` → `ecl_mst_cpu_with(OptConfig::full())`
//! → `verify_msf`.

use crate::check::{forest_matches, forest_of, reference_digest, Digest, Tally, Triple};
use crate::probe::InstanceInfo;
use crate::spans::{wall_total, Recorder};
use crate::workload::{instance_seed, Size, SplitMix, Workload};
use crate::EndToEnd;
use ecl_baselines::pbbs::pbbs_serial;
use ecl_gpu_sim::GpuProfile;
use ecl_graph::builder::append_isolated;
use ecl_graph::generators::{
    copapers, delaunay_like, grid2d, kronecker, preferential_attachment, rmat, road_map, webcrawl,
};
use ecl_graph::{CsrGraph, GraphBuilder, SuiteScale};
use ecl_mst::{ecl_mst_cpu_with, ecl_mst_gpu_with, evict_graph, serial_kruskal, verify_msf};
use ecl_mst::{CpuRun, OptConfig};
use std::time::Instant;

/// A suite twin recipe: `(base vertex count n0, log2 n0, seed) → graph`.
type Recipe = fn(usize, u32, u64) -> CsrGraph;

fn isqrt(x: usize) -> usize {
    (x as f64).sqrt() as usize
}

/// The suite rows each static workload draws on, with the suite's own
/// size recipes (`ecl_graph::suite_specs`) and a per-instance seed in
/// place of the suite's fixed one.
fn recipes(w: Workload) -> Vec<(&'static str, Recipe)> {
    match w {
        Workload::SparseMesh => vec![
            ("2d-2e20.sym", |n0, _, s| grid2d(isqrt(n0), s)),
            ("europe_osm", |n0, _, s| road_map(isqrt(4 * n0), 2.1, s)),
            ("delaunay_n24", |n0, _, s| delaunay_like(isqrt(2 * n0), s)),
        ],
        Workload::SkewedDense => vec![
            ("kron_g500-logn21", |n0, s0, s| {
                append_isolated(&kronecker(s0 - 1, 43, s), (n0 / 2) * 26 / 100)
            }),
            ("rmat22.sym", |n0, s0, s| {
                append_isolated(&rmat(s0, 8, s), n0 / 10)
            }),
            ("amazon0601", |n0, _, s| {
                preferential_attachment(n0 / 4, 6, 7, s)
            }),
            ("coPapersDBLP", |n0, _, s| copapers(n0 / 2, 28, s)),
            ("in-2004", |n0, _, s| {
                webcrawl(n0 / 2, 10, (n0 / 4096).max(4), s)
            }),
        ],
        Workload::DynamicChurn | Workload::OutOfCore => Vec::new(),
    }
}

/// One static input: a symmetric arc list in seeded random order, the way
/// DIMACS and the ECL binary format store graphs, plus its reference.
pub struct Instance {
    /// Suite row the recipe comes from.
    pub name: &'static str,
    /// Vertices, isolated pads included.
    pub num_vertices: usize,
    /// Every undirected edge in both directions, shuffled.
    pub arcs: Vec<Triple>,
    /// Undirected edges.
    pub edges: usize,
    /// Reference forest digest, computed from `arcs`.
    pub digest: Digest,
}

/// Generates workload `w`'s instances at `size` from the workload seed.
pub fn setup(w: Workload, size: Size, seed: u64) -> Vec<Instance> {
    let scale = match size {
        Size::Full => SuiteScale::Medium,
        Size::Tiny => SuiteScale::Tiny,
    };
    recipes(w)
        .into_iter()
        .enumerate()
        .map(|(i, (name, recipe))| {
            let s = instance_seed(seed, w, i);
            let g = recipe(scale.base(), scale.log2_base(), s);
            let mut arcs = Vec::with_capacity(2 * g.num_edges());
            for e in g.edges() {
                arcs.push((e.src, e.dst, e.weight));
                arcs.push((e.dst, e.src, e.weight));
            }
            SplitMix::new(s).shuffle(&mut arcs);
            let digest = reference_digest(g.num_vertices(), arcs.iter().copied());
            Instance {
                name,
                num_vertices: g.num_vertices(),
                edges: g.num_edges(),
                arcs,
                digest,
            }
        })
        .collect()
}

/// The host-record view of `instances`.
pub fn info(instances: &[Instance]) -> Vec<InstanceInfo> {
    instances
        .iter()
        .map(|i| InstanceInfo {
            name: i.name.to_string(),
            vertices: i.num_vertices as u64,
            edges: i.edges as u64,
        })
        .collect()
}

/// `GraphBuilder::build` of `triples` on `n` vertices.
fn csr(n: usize, triples: &[Triple]) -> CsrGraph {
    let mut builder = GraphBuilder::with_capacity(n, triples.len());
    builder.extend_edges(triples.iter().copied());
    builder.build()
}

/// [`csr`] in a `graph.builder` span under `parent` that records edges
/// kept over triples fed.
pub fn build(
    rec: &mut Recorder,
    op: u64,
    parent: Option<usize>,
    n: usize,
    triples: &[Triple],
) -> CsrGraph {
    let (g, b) = rec.call(op, parent, "graph.builder", true, || csr(n, triples));
    rec.attr(
        b,
        "dedup_ratio",
        g.num_edges() as f64 / triples.len().max(1) as f64,
    );
    g
}

/// Runs whole cycles over `instances`, one pipeline per instance, until
/// `seconds` have passed (at least one cycle), so every run holds the same
/// mix. With an enabled recorder each layer call gets a span; `references`
/// adds serial Kruskal and PBBS serial on each built graph, outside the
/// pipeline span.
pub fn measure(
    instances: &[Instance],
    seconds: f64,
    rec: &mut Recorder,
    references: bool,
) -> EndToEnd {
    let mut e = EndToEnd::start();
    let start = Instant::now();
    loop {
        for inst in instances {
            let (secs, ok) = pipeline(inst, rec, references);
            e.ops.push(secs);
            e.work += inst.edges as f64;
            e.tally.record(1, ok);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    e.finish()
}

/// One operation; returns its wall seconds and whether its output passed.
fn pipeline(inst: &Instance, rec: &mut Recorder, references: bool) -> (f64, bool) {
    let full = OptConfig::full();
    let traced = rec.enabled();
    let op = rec.next_op();
    let t0 = Instant::now();
    let p = rec.open(op, None, "pipeline");
    let g = build(rec, op, Some(p), inst.num_vertices, &inst.arcs);
    let ((run, wall), c) = rec.call(op, Some(p), "core.cpu", true, || {
        if traced {
            let (run, session) = ecl_trace::with_trace(|| ecl_mst_cpu_with(&g, &full));
            (run, session.wall_breakdown())
        } else {
            (ecl_mst_cpu_with(&g, &full), Vec::new())
        }
    });
    let (verified, _) = rec.call(op, Some(p), "core.verify", true, || {
        verify_msf(&g, &run.result)
    });
    rec.close(p);
    let secs = t0.elapsed().as_secs_f64();

    record_solve(rec, c, &run, &wall);
    let (ok, _) = rec.call(op, None, "check", false, || {
        verified.is_ok() && forest_matches(forest_of(&g, &run.result), &inst.digest)
    });
    if references {
        let _ = rec.call(op, None, "core.serial", false, || serial_kruskal(&g));
        let _ = rec.call(op, None, "baselines.pbbs", false, || pbbs_serial(&g));
    }
    (secs, ok)
}

/// Counters of one solve, and its program-internal wall spans read through
/// `with_trace` (`populate` may run twice; its times add up).
fn record_solve(rec: &mut Recorder, c: usize, run: &CpuRun, wall: &[ecl_trace::WallKernel]) {
    rec.attr(c, "iterations", run.iterations as f64);
    rec.attr(c, "two_phase", f64::from(u8::from(run.phases == 2)));
    for (span, key) in [
        ("populate", "populate_s"),
        ("phase1", "phase1_s"),
        ("phase2", "phase2_s"),
        ("plan_filter", "plan_s"),
    ] {
        rec.attr(c, key, wall_total(wall, span));
    }
}

/// Simulated ECL-MST (uncached, `TITAN_V`) once per instance: the separate
/// deterministic axis. Its forests are checked like any other output.
pub fn gpu_sim(instances: &[Instance], rec: &mut Recorder, tally: &mut Tally) {
    for inst in instances {
        let g = csr(inst.num_vertices, &inst.arcs);
        let op = rec.next_op();
        let (run, s) = rec.call(op, None, "gpu_sim", false, || {
            ecl_mst_gpu_with(&g, &OptConfig::full(), GpuProfile::TITAN_V)
        });
        rec.attr(s, "simulated_ms", run.kernel_seconds * 1e3);
        rec.attr(s, "launches", run.records.len() as f64);
        tally.check_forest(forest_of(&g, &run.result), &inst.digest);
        evict_graph(&g);
    }
}

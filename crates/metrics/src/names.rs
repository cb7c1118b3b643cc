//! The central metric-name registry.
//!
//! Every metric the workspace records is declared here — and only here —
//! as a `static` [`Metric`] with a stable dotted name. The recording
//! macros ([`counter!`](crate::counter), [`gauge!`](crate::gauge),
//! [`histogram!`](crate::histogram)) resolve their first argument against
//! this module, so an undeclared name is a *compile* error; the
//! `metric-name-registry` lint rule enforces the reverse direction (a
//! declared name with no call site is a lint error, waivable while a
//! subsystem is landing). Renames and deletions are therefore always
//! explicit diffs of this file.
//!
//! Naming convention: `ecl.<subsystem>.<quantity>`, lower-case, with
//! `_seconds`/`_us` unit suffixes on time-valued metrics. [`ALL`] fixes
//! the export order (declaration order), which both exporters share.

use crate::Metric;
use crate::Stability::{Stable, Volatile};

/// Wall-clock latency bounds in seconds, spanning sub-millisecond cache
/// probes to minute-long Large-scale sweeps.
pub const TIME_BUCKETS: &[f64] = &[
    1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
];

/// Size bounds (arc counts) for graph-build distributions.
pub const SIZE_BUCKETS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

// --- ECL_SIM_CACHE measurement store -------------------------------------

pub static SIMCACHE_HIT: Metric = Metric::counter(
    "ecl.simcache.hit",
    Stable,
    "sim-cache cells served from the on-disk store",
);
pub static SIMCACHE_MISS: Metric = Metric::counter(
    "ecl.simcache.miss",
    Stable,
    "sim-cache lookups that found no cell and recomputed",
);
pub static SIMCACHE_STALE: Metric = Metric::counter(
    "ecl.simcache.stale",
    Stable,
    "sim-cache cells that existed but failed to parse and were recomputed",
);
pub static SIMCACHE_WRITE: Metric = Metric::counter(
    "ecl.simcache.write",
    Stable,
    "sim-cache cells written back after a recompute",
);
pub static SIMCACHE_REPLAY: Metric = Metric::counter(
    "ecl.simcache.replay",
    Stable,
    "simulation results replayed from the in-process memo (no store I/O)",
);
pub static SIMCACHE_ENTRIES: Metric = Metric::gauge(
    "ecl.simcache.entries",
    Stable,
    "cells currently in the on-disk store",
);
pub static SIMCACHE_BYTES: Metric = Metric::gauge(
    "ecl.simcache.bytes",
    Stable,
    "total size of the on-disk store in bytes",
);

// --- DSU union/find -------------------------------------------------------

pub static DSU_FIND: Metric = Metric::counter(
    "ecl.dsu.find",
    Volatile,
    "AtomicDsu find calls (counted paths; live-thread counts can vary with interleaving)",
);
pub static DSU_FIND_HOP: Metric = Metric::counter(
    "ecl.dsu.find_hop",
    Volatile,
    "parent hops walked across all finds (compression state is race-dependent)",
);
pub static DSU_COMPRESSION_WRITE: Metric = Metric::counter(
    "ecl.dsu.compression_write",
    Volatile,
    "parent writes performed by the compressing find policies",
);
pub static DSU_UNION: Metric = Metric::counter(
    "ecl.dsu.union",
    Volatile,
    "AtomicDsu union calls (counted paths)",
);
pub static DSU_CAS_RETRY: Metric = Metric::counter(
    "ecl.dsu.cas_retry",
    Volatile,
    "union CAS attempts beyond the first (lost races under live threads)",
);

// --- bench runner / measure_matrix ---------------------------------------

pub static RUNNER_PHASE_SECONDS: Metric = Metric::histogram(
    "ecl.runner.phase_seconds",
    Volatile,
    TIME_BUCKETS,
    "wall seconds per measure_matrix phase (prepare, simulate, measure)",
);
pub static RUNNER_THREADS: Metric = Metric::gauge(
    "ecl.runner.threads",
    Volatile,
    "worker threads available to the simulate phase (machine-dependent)",
);
pub static RUNNER_CELLS: Metric = Metric::counter(
    "ecl.runner.cells",
    Stable,
    "matrix cells (code × graph) measured",
);

// --- graph build / generators ---------------------------------------------

pub static GRAPH_BUILDS: Metric = Metric::counter(
    "ecl.graph.builds",
    Stable,
    "CSR builds completed (serial and chunk-parallel paths)",
);
pub static GRAPH_BUILD_CHUNKS: Metric = Metric::counter(
    "ecl.graph.build_chunks",
    Volatile,
    "vertex buckets (4096 vertices each) processed by the counting-sort CSR \
     build; keyed by the vertex count, the same on any thread count",
);
pub static GRAPH_BUILD_ARCS: Metric = Metric::histogram(
    "ecl.graph.build_arcs",
    Stable,
    SIZE_BUCKETS,
    "arcs per built CSR graph (both directions)",
);
pub static GRAPH_BUILD_SECONDS: Metric = Metric::histogram(
    "ecl.graph.build_seconds",
    Volatile,
    TIME_BUCKETS,
    "wall seconds per CSR build (host-side observability only)",
);

// --- ecl-fuzz campaigns ----------------------------------------------------

pub static FUZZ_CASES: Metric =
    Metric::counter("ecl.fuzz.cases", Stable, "differential fuzz cases executed");
pub static FUZZ_DIVERGENCES: Metric = Metric::counter(
    "ecl.fuzz.divergences",
    Stable,
    "backend divergences detected before shrinking",
);
pub static FUZZ_SHRINK_STEPS: Metric = Metric::counter(
    "ecl.fuzz.shrink_steps",
    Stable,
    "shrink candidates evaluated while minimizing failures",
);

// --- dynamic MSF engine ----------------------------------------------------

pub static DYNAMIC_BATCHES: Metric = Metric::counter(
    "ecl.dynamic.batches",
    Stable,
    "update batches applied by the dynamic MSF engine",
);
pub static DYNAMIC_REPLACEMENT_CANDIDATES: Metric = Metric::histogram(
    "ecl.dynamic.replacement_candidates",
    Stable,
    SIZE_BUCKETS,
    "crossing-edge candidates scanned per replacement search after a tree-edge delete",
);
pub static DYNAMIC_TREE_CHURN: Metric = Metric::gauge(
    "ecl.dynamic.tree_churn",
    Stable,
    "tree edges added or removed by the most recent update batch",
);

// --- sharded out-of-core MSF ------------------------------------------------

pub static SHARD_SHARDS: Metric = Metric::counter(
    "ecl.shard.shards",
    Stable,
    "edge-stream shards solved by the out-of-core stage-1 pass",
);
pub static SHARD_SURVIVOR_EDGES: Metric = Metric::counter(
    "ecl.shard.survivor_edges",
    Stable,
    "per-shard MSF survivor edges kept after stage 1 (<= n-1 per shard)",
);
pub static SHARD_SPILL_BYTES: Metric = Metric::counter(
    "ecl.shard.spill_bytes",
    Stable,
    "bytes written to survivor spill files by the external-memory mode",
);
pub static SHARD_MERGE_ROUNDS: Metric = Metric::counter(
    "ecl.shard.merge_rounds",
    Stable,
    "hierarchical Boruvka merge rounds until one forest remained",
);
pub static SHARD_PEAK_RSS_BYTES: Metric = Metric::gauge(
    "ecl.shard.peak_rss_bytes",
    Stable,
    "peak resident set (VmHWM) observed over the most recent sharded cell",
);

// --- ecl-trace bridge (published when a trace session closes) -------------

pub static TRACE_LAUNCHES: Metric = Metric::counter(
    "ecl.trace.launches",
    Stable,
    "kernel launches recorded by closed trace sessions",
);
pub static TRACE_ATOMICS: Metric = Metric::counter(
    "ecl.trace.atomics",
    Stable,
    "metered atomic operations recorded by closed trace sessions",
);
pub static TRACE_FIND_CALLS: Metric = Metric::counter(
    "ecl.trace.find_calls",
    Stable,
    "find calls recorded by closed trace sessions",
);
pub static TRACE_FIND_HOPS: Metric = Metric::counter(
    "ecl.trace.find_hops",
    Volatile,
    "find hops recorded by closed trace sessions (live CPU hops are race-dependent)",
);
pub static TRACE_CAS_RETRIES: Metric = Metric::counter(
    "ecl.trace.cas_retries",
    Volatile,
    "CAS retries recorded by closed trace sessions",
);
pub static TRACE_SIM_US: Metric = Metric::counter(
    "ecl.trace.sim_us",
    Stable,
    "simulated microseconds accumulated by closed trace sessions",
);

/// Every registered metric, in declaration (= export) order.
pub static ALL: &[&Metric] = &[
    &SIMCACHE_HIT,
    &SIMCACHE_MISS,
    &SIMCACHE_STALE,
    &SIMCACHE_WRITE,
    &SIMCACHE_REPLAY,
    &SIMCACHE_ENTRIES,
    &SIMCACHE_BYTES,
    &DSU_FIND,
    &DSU_FIND_HOP,
    &DSU_COMPRESSION_WRITE,
    &DSU_UNION,
    &DSU_CAS_RETRY,
    &RUNNER_PHASE_SECONDS,
    &RUNNER_THREADS,
    &RUNNER_CELLS,
    &GRAPH_BUILDS,
    &GRAPH_BUILD_CHUNKS,
    &GRAPH_BUILD_ARCS,
    &GRAPH_BUILD_SECONDS,
    &FUZZ_CASES,
    &FUZZ_DIVERGENCES,
    &FUZZ_SHRINK_STEPS,
    &DYNAMIC_BATCHES,
    &DYNAMIC_REPLACEMENT_CANDIDATES,
    &DYNAMIC_TREE_CHURN,
    &SHARD_SHARDS,
    &SHARD_SURVIVOR_EDGES,
    &SHARD_SPILL_BYTES,
    &SHARD_MERGE_ROUNDS,
    &SHARD_PEAK_RSS_BYTES,
    &TRACE_LAUNCHES,
    &TRACE_ATOMICS,
    &TRACE_FIND_CALLS,
    &TRACE_FIND_HOPS,
    &TRACE_CAS_RETRIES,
    &TRACE_SIM_US,
];

/// Looks up a declared metric by dotted name.
pub fn by_name(name: &str) -> Option<&'static Metric> {
    ALL.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_declared_static() {
        // `ALL` is the export order; a declaration missing from it would
        // silently never export. The registry test in lib.rs checks name
        // hygiene; this one pins the count so additions update both.
        assert_eq!(ALL.len(), 36, "update ALL (and this count) together");
        assert!(by_name("ecl.simcache.hit").is_some());
        assert!(by_name("ecl.nope").is_none());
    }
}

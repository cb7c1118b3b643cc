//! Guards the workspace's serial-regression-prone parallel hot paths.
//!
//! Inside each registered hot function — and only there; e.g.
//! `build_serial` stays untouched as the reference oracle — a bare `for`
//! loop or a serial `.sort_unstable(` outside every parallel-helper call
//! span would quietly reintroduce a single-thread bottleneck the parallel
//! version replaced. Deliberate serial steps carry a waiver
//! (`lint-metering: serial-ok` or `ecl-lint: allow(builder-serial-hot-path)`).
//!
//! Registered hot paths:
//!
//! * `fn build_chunked` in the graph builder — the bucketed counting-sort
//!   CSR construction.
//! * The sharded MSF module's shard-merge kernels: `solve_triples` (route
//!   dispatch + total-order sort), `solve_dense` (the packed SWAR filter
//!   split), `scan_forest` (the greedy DSU scan — serial by nature, carries
//!   a waiver), and `scatter_table` (the O(nloc) remap fill, waived).

use crate::{Ctx, Rule, Workspace};

/// The original guarded file, kept as a named constant because the
/// rule's fixtures synthesize it by this path.
pub const BUILDER_FILE: &str = "crates/graph/src/builder.rs";

/// (file, hot function) pairs under guard — a file may register several. A
/// file absent from the workspace is skipped silently (fixture workspaces
/// contain only one of them); a present file missing a registered hot
/// function is a file-level error — the function was renamed and the guard
/// must follow it.
const HOT_FNS: &[(&str, &str)] = &[
    (BUILDER_FILE, "build_chunked"),
    ("crates/core/src/sharded.rs", "solve_triples"),
    ("crates/core/src/sharded.rs", "solve_dense"),
    ("crates/core/src/sharded.rs", "scan_forest"),
    ("crates/core/src/sharded.rs", "scatter_table"),
];

/// Parallel-helper callees; loops and sorts inside their argument spans run
/// chunked under the pool and are fine.
const PAR_HELPERS: &[&str] = &[
    "run_chunks",
    "par_map",
    "par_tasks",
    "par_split_mut",
    "scatter_stable",
    "chunk_ranges",
    "par_sort_unstable",
];

pub struct BuilderSerialHotPath;

impl Rule for BuilderSerialHotPath {
    fn name(&self) -> &'static str {
        "builder-serial-hot-path"
    }
    fn description(&self) -> &'static str {
        "no serial `for` loops or `.sort_unstable(` on the registered parallel hot paths \
         (chunked CSR build, shard-merge kernel) outside the par:: helper spans"
    }
    fn scope(&self) -> &'static [&'static str] {
        &[BUILDER_FILE, "crates/core/src/sharded.rs"]
    }

    fn run(&self, ws: &Workspace, ctx: &mut Ctx) {
        for file in ws.in_scope(self.scope()) {
            let code = &file.sf.code;
            let hot_fns: Vec<&str> = HOT_FNS
                .iter()
                .filter(|(path, _)| file.sf.rel == std::path::Path::new(path))
                .map(|&(_, f)| f)
                .collect();
            for hot_fn in hot_fns {
                let Some(f) = file.ix.find_fn(hot_fn) else {
                    ctx.emit_file(
                        self.name(),
                        &file.sf,
                        format!(
                            "`fn {hot_fn}(` not found — serial-hot-path lint has nothing to guard"
                        ),
                    );
                    continue;
                };
                let Some((body_lo, body_hi)) = file.ix.body_span(f) else {
                    continue;
                };
                // Argument spans of parallel-helper calls are covered territory.
                let covered: Vec<(usize, usize)> = file
                    .ix
                    .calls_in(code, body_lo, body_hi)
                    .filter(|c| {
                        let name = file.ix.toks[c.name_tok].text(code);
                        PAR_HELPERS.contains(&name)
                    })
                    .map(|c| {
                        let (o, cl) = c.args;
                        (file.ix.toks[o].lo, file.ix.toks[cl].hi.min(body_hi))
                    })
                    .collect();
                let in_covered = |at: usize| covered.iter().any(|&(lo, hi)| at > lo && at < hi);

                for for_tok in file.ix.for_loops_in(code, body_lo, body_hi) {
                    let at = file.ix.toks[for_tok].lo;
                    if in_covered(at) {
                        continue;
                    }
                    ctx.emit(
                        self.name(),
                        &file.sf,
                        at,
                        "serial `for` on a parallel hot path (outside every par-helper span)"
                            .to_string(),
                    );
                }
                for call in file.ix.calls_in(code, body_lo, body_hi) {
                    let t = file.ix.toks[call.name_tok];
                    if call.is_method && t.is_ident(code, "sort_unstable") && !in_covered(t.lo) {
                        ctx.emit(
                            self.name(),
                            &file.sf,
                            t.lo,
                            "serial `.sort_unstable(` on a parallel hot path (outside every \
                             par-helper span)"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }
}

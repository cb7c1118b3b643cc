//! Update-script fuzzing for the dynamic MSF engine.
//!
//! A script is an initial graph (drawn from the same 15 adversarial
//! families as the static campaign) plus a deterministic sequence of
//! insert/delete/window batches. The checker replays the script through
//! [`ecl_mst::DynamicMsf`] and, **after every batch**, demands that the
//! engine's forest is bit-identical to rebuilding the surviving edge set
//! from scratch — via the [`ecl_mst::verify_msf`] certificate and a direct
//! comparison with [`ecl_mst::serial_kruskal`]. Failing scripts shrink with
//! a ddmin pass over batches, ops, initial edges, weights, and vertices
//! ([`shrink_script`]), and minimized reproductions serialize as `.ups`
//! corpus entries next to the static `.txt` ones.

use crate::gen;
use crate::{fail, panic_message, Failure};
use ecl_graph::GraphBuilder;
use ecl_mst::{serial_kruskal, DynamicMsf, MstResult, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A deterministic dynamic-MSF fuzz input: initial edges plus update
/// batches. Like [`crate::RawCase`], the edge list is *uncleaned* — self-loops
/// and duplicates are allowed, and the engine's cleaning (drop loops,
/// keep the lightest) is itself under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateScript {
    /// Family label of the initial graph, stable for a given case index.
    pub family: &'static str,
    /// Number of vertices (fixed across the whole script).
    pub num_vertices: usize,
    /// Raw initial `(u, v, weight)` triples.
    pub initial_edges: Vec<(u32, u32, u32)>,
    /// Update batches, applied in order with a full rebuild check after
    /// each.
    pub batches: Vec<Vec<UpdateOp>>,
}

impl UpdateScript {
    /// Total ops across all batches.
    pub fn num_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Generates the deterministic update script for `(seed, case)`.
///
/// The initial graph is exactly [`gen::generate`]`(seed, case)` — the same
/// family cycle as the static campaign — and the batches come from a
/// differently-salted rng stream, so static case `k` and update case `k`
/// start from the same topology but are otherwise independent.
pub fn generate_script(seed: u64, case: usize) -> UpdateScript {
    let base = gen::generate(seed, case);
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add((case as u64) ^ 0x5DEE_CE66),
    );
    let n = base.num_vertices;
    // Generator-side bookkeeping so deletes hit live edges and window
    // batches evict oldest-first: a live-pair set plus an age queue.
    let mut live: BTreeMap<(u32, u32), ()> = BTreeMap::new();
    let mut ages: Vec<(u32, u32)> = Vec::new();
    let note_insert =
        |live: &mut BTreeMap<(u32, u32), ()>, ages: &mut Vec<(u32, u32)>, u: u32, v: u32| {
            if u != v && live.insert((u.min(v), u.max(v)), ()).is_none() {
                ages.push((u.min(v), u.max(v)));
            }
        };
    for &(u, v, _) in &base.edges {
        note_insert(&mut live, &mut ages, u, v);
    }
    // Small weight pools force tie-heavy updates on tie-heavy families.
    let pool = *[2u32, 7, 1_000, u32::MAX]
        .get(rng.gen_range(0..4usize))
        .unwrap();
    let mut batches = Vec::new();
    if n >= 2 {
        for _ in 0..rng.gen_range(1..=4usize) {
            let kind = rng.gen_range(0..4u32);
            let len = rng.gen_range(1..=12usize);
            let mut batch = Vec::with_capacity(len);
            for k in 0..len {
                let want_insert = match kind {
                    0 => true,
                    1 => false,
                    // Window slide: evict oldest, then refill.
                    3 => k >= len / 2,
                    _ => rng.gen_range(0..2u32) == 0,
                };
                // Nothing live to delete: fall back to an insert.
                let insert = want_insert || live.is_empty();
                if insert {
                    let u = rng.gen_range(0..n as u32);
                    // Bias toward duplicates and the occasional self-loop.
                    let v = if rng.gen_range(0..5u32) == 0 {
                        u
                    } else {
                        rng.gen_range(0..n as u32)
                    };
                    let w = rng.gen_range(0..pool.max(1));
                    note_insert(&mut live, &mut ages, u, v);
                    batch.push(UpdateOp::Insert { u, v, w });
                } else {
                    let (u, v) = if kind == 3 {
                        // Oldest live pair first (the sliding-window shape).
                        ages.remove(0)
                    } else {
                        let i = rng.gen_range(0..live.len());
                        *live.keys().nth(i).expect("non-empty live set")
                    };
                    live.remove(&(u, v));
                    ages.retain(|&p| p != (u, v));
                    batch.push(UpdateOp::Delete { u, v });
                }
            }
            batches.push(batch);
        }
    }
    UpdateScript {
        family: base.family,
        num_vertices: n,
        initial_edges: base.edges,
        batches,
    }
}

/// The reference model: cleaned live-edge map under engine semantics
/// (normalize endpoints, drop self-loops, keep the lightest duplicate).
fn model_apply(model: &mut BTreeMap<(u32, u32), u32>, op: UpdateOp) {
    match op {
        UpdateOp::Insert { u, v, w } => {
            if u != v {
                let e = model.entry((u.min(v), u.max(v))).or_insert(w);
                *e = (*e).min(w);
            }
        }
        UpdateOp::Delete { u, v } => {
            model.remove(&(u.min(v), u.max(v)));
        }
    }
}

/// Asserts the engine state is bit-identical to a rebuild of `model` from
/// scratch: edge-set equality under both oracles ([`crate::check_msf`]),
/// exact totals, per-edge weights, and a label partition that matches the
/// forest.
fn check_state(engine: &DynamicMsf, model: &BTreeMap<(u32, u32), u32>) -> Result<(), String> {
    if engine.num_edges() != model.len() {
        return Err(format!(
            "live-edge count diverged: engine {}, rebuild {}",
            engine.num_edges(),
            model.len()
        ));
    }
    for (&(u, v), &w) in model {
        if engine.edge_weight(u, v) != Some(w) {
            return Err(format!(
                "edge ({u},{v}) weight diverged: engine {:?}, rebuild {w}",
                engine.edge_weight(u, v)
            ));
        }
    }
    let mut b = GraphBuilder::with_capacity(engine.num_vertices(), model.len());
    for (&(u, v), &w) in model {
        b.add_edge(u, v, w);
    }
    let g = b.build();
    let mut in_mst = vec![false; g.num_edges()];
    for e in g.edges() {
        in_mst[e.id as usize] = engine.is_tree_edge(e.src, e.dst);
    }
    let r = MstResult::from_bitmap(&g, in_mst);
    if r.num_edges != engine.num_tree_edges() {
        return Err(format!(
            "tree-edge count diverged: engine {}, bitmap {}",
            engine.num_tree_edges(),
            r.num_edges
        ));
    }
    if r.total_weight != engine.total_weight() {
        return Err(format!(
            "total weight diverged: engine {}, bitmap {}",
            engine.total_weight(),
            r.total_weight
        ));
    }
    crate::check_msf(&g, &r, &serial_kruskal(&g))?;
    // The batch-boundary labels must partition exactly like the forest:
    // endpoints of every tree edge agree, and the number of distinct
    // labels is n - |forest|.
    let labels = engine.labels();
    for (u, v, _) in engine.tree_edges() {
        if labels[u as usize] != labels[v as usize] {
            return Err(format!("tree edge ({u},{v}) spans two labels"));
        }
    }
    let mut distinct: Vec<u32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != engine.num_vertices() - engine.num_tree_edges() {
        return Err(format!(
            "label partition has {} classes, forest implies {}",
            distinct.len(),
            engine.num_vertices() - engine.num_tree_edges()
        ));
    }
    Ok(())
}

/// Replays `script` through the dynamic engine, checking rebuild
/// equivalence after seeding **and after every batch**. Panics anywhere in
/// the engine are caught and reported as `dynamic` failures.
pub fn check_script(script: &UpdateScript) -> Result<(), Failure> {
    catch_unwind(AssertUnwindSafe(|| run_script(script)))
        .map_err(|p| fail("dynamic", format!("panicked: {}", panic_message(p))))?
}

fn run_script(script: &UpdateScript) -> Result<(), Failure> {
    let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut b = GraphBuilder::with_capacity(script.num_vertices, script.initial_edges.len());
    for &(u, v, w) in &script.initial_edges {
        b.add_edge(u, v, w);
        model_apply(&mut model, UpdateOp::Insert { u, v, w });
    }
    let mut engine = DynamicMsf::from_graph(&b.build());
    check_state(&engine, &model).map_err(|d| fail("dynamic", format!("after seeding: {d}")))?;
    for (bi, batch) in script.batches.iter().enumerate() {
        for &op in batch {
            model_apply(&mut model, op);
        }
        engine.apply_batch(batch);
        check_state(&engine, &model)
            .map_err(|d| fail("dynamic", format!("after batch {bi}: {d}")))?;
    }
    Ok(())
}

/// Predicate-evaluation budget per shrink, mirroring the static shrinker.
const MAX_EVALS: usize = 400;

/// Shrinks a failing script while `still_fails` keeps returning `true`:
/// drop batch chunks, then op chunks within each batch, then initial-edge
/// chunks, then simplify weights toward `1`, then compact the vertex set.
pub fn shrink_script(
    script: &UpdateScript,
    mut still_fails: impl FnMut(&UpdateScript) -> bool,
) -> UpdateScript {
    let mut best = script.clone();
    let mut evals = 0usize;
    let mut try_candidate =
        |best: &mut UpdateScript, cand: UpdateScript, evals: &mut usize| -> bool {
            if *evals >= MAX_EVALS {
                return false;
            }
            *evals += 1;
            if still_fails(&cand) {
                *best = cand;
                true
            } else {
                false
            }
        };

    // Pass 1: chunked batch removal, ddmin-style.
    let mut chunk = best.batches.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < best.batches.len() && evals < MAX_EVALS {
            let mut cand = best.clone();
            let end = (i + chunk).min(cand.batches.len());
            cand.batches.drain(i..end);
            if !try_candidate(&mut best, cand, &mut evals) {
                i += chunk;
            }
        }
        if chunk == 1 || evals >= MAX_EVALS {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Pass 2: chunked op removal inside each surviving batch, then drop
    // batches an op pass emptied.
    for bi in 0..best.batches.len() {
        let mut chunk = best.batches[bi].len().div_ceil(2).max(1);
        loop {
            let mut i = 0;
            while i < best.batches[bi].len() && evals < MAX_EVALS {
                let mut cand = best.clone();
                let end = (i + chunk).min(cand.batches[bi].len());
                cand.batches[bi].drain(i..end);
                if !try_candidate(&mut best, cand, &mut evals) {
                    i += chunk;
                }
            }
            if chunk == 1 || evals >= MAX_EVALS {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    if best.batches.iter().any(Vec::is_empty) {
        let mut cand = best.clone();
        cand.batches.retain(|b| !b.is_empty());
        try_candidate(&mut best, cand, &mut evals);
    }

    // Pass 3: chunked initial-edge removal.
    let mut chunk = best.initial_edges.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < best.initial_edges.len() && evals < MAX_EVALS {
            let mut cand = best.clone();
            let end = (i + chunk).min(cand.initial_edges.len());
            cand.initial_edges.drain(i..end);
            if !try_candidate(&mut best, cand, &mut evals) {
                i += chunk;
            }
        }
        if chunk == 1 || evals >= MAX_EVALS {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Pass 4: weight simplification, all-ones in one shot.
    let has_heavy = best.initial_edges.iter().any(|&(_, _, w)| w != 1)
        || best
            .batches
            .iter()
            .flatten()
            .any(|op| matches!(op, UpdateOp::Insert { w, .. } if *w != 1));
    if has_heavy {
        let mut cand = best.clone();
        for e in &mut cand.initial_edges {
            e.2 = 1;
        }
        for op in cand.batches.iter_mut().flatten() {
            if let UpdateOp::Insert { w, .. } = op {
                *w = 1;
            }
        }
        try_candidate(&mut best, cand, &mut evals);
    }

    // Pass 5: vertex compaction over every endpoint the script mentions.
    let mut used: Vec<u32> = best
        .initial_edges
        .iter()
        .flat_map(|&(u, v, _)| [u, v])
        .chain(best.batches.iter().flatten().flat_map(|op| match *op {
            UpdateOp::Insert { u, v, .. } | UpdateOp::Delete { u, v } => [u, v],
        }))
        .collect();
    used.sort_unstable();
    used.dedup();
    if !used.is_empty() && used.len() < best.num_vertices {
        let remap = |x: u32| used.binary_search(&x).expect("endpoint in used set") as u32;
        let cand = UpdateScript {
            family: best.family,
            num_vertices: used.len(),
            initial_edges: best
                .initial_edges
                .iter()
                .map(|&(u, v, w)| (remap(u), remap(v), w))
                .collect(),
            batches: best
                .batches
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|op| match *op {
                            UpdateOp::Insert { u, v, w } => UpdateOp::Insert {
                                u: remap(u),
                                v: remap(v),
                                w,
                            },
                            UpdateOp::Delete { u, v } => UpdateOp::Delete {
                                u: remap(u),
                                v: remap(v),
                            },
                        })
                        .collect()
                })
                .collect(),
        };
        try_candidate(&mut best, cand, &mut evals);
    }

    best
}

// --- .ups corpus serialization --------------------------------------------
//
// `c` comments, a `p <n> <m>` header, `e u v w` initial edges, then one
// `b` line per batch followed by its `i u v w` / `d u v` ops. The `.ups`
// extension keeps these entries invisible to the static `.txt` loader.

/// Serializes a script with provenance comments (`notes` lines get a
/// leading `c`).
pub fn script_to_text(script: &UpdateScript, notes: &[String]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "c ecl-fuzz minimized update script: {}\n",
        script.family
    ));
    for n in notes {
        for line in n.lines() {
            out.push_str(&format!("c {line}\n"));
        }
    }
    out.push_str(&format!(
        "p {} {}\n",
        script.num_vertices,
        script.initial_edges.len()
    ));
    for &(u, v, w) in &script.initial_edges {
        out.push_str(&format!("e {u} {v} {w}\n"));
    }
    for batch in &script.batches {
        out.push_str("b\n");
        for op in batch {
            match *op {
                UpdateOp::Insert { u, v, w } => out.push_str(&format!("i {u} {v} {w}\n")),
                UpdateOp::Delete { u, v } => out.push_str(&format!("d {u} {v}\n")),
            }
        }
    }
    out
}

/// Parses `.ups` text back into a script (family becomes `"corpus"`).
pub fn parse_script(text: &str) -> Result<UpdateScript, String> {
    let mut script: Option<UpdateScript> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tok = parts.next();
        let mut next = |name: &str| -> Result<u64, String> {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(&format!("malformed {name} record")))
        };
        match tok {
            Some("p") => {
                if script.is_some() {
                    return Err(err("duplicate problem line"));
                }
                let n = next("p")? as usize;
                let _m = next("p")?; // edge count re-checked below
                script = Some(UpdateScript {
                    family: "corpus",
                    num_vertices: n,
                    initial_edges: Vec::new(),
                    batches: Vec::new(),
                });
            }
            Some(rec @ ("e" | "i" | "d")) => {
                let s = script
                    .as_mut()
                    .ok_or_else(|| err("record before problem line"))?;
                let (u, v) = (next(rec)?, next(rec)?);
                if u >= s.num_vertices as u64 || v >= s.num_vertices as u64 {
                    return Err(err("endpoint out of range"));
                }
                let (u, v) = (u as u32, v as u32);
                match rec {
                    "e" => {
                        if !s.batches.is_empty() {
                            return Err(err("'e' record after a batch started"));
                        }
                        let w = next("e")?;
                        if w > u32::MAX as u64 {
                            return Err(err("weight exceeds 32 bits"));
                        }
                        s.initial_edges.push((u, v, w as u32));
                    }
                    "i" => {
                        let w = next("i")?;
                        if w > u32::MAX as u64 {
                            return Err(err("weight exceeds 32 bits"));
                        }
                        let b = s.batches.last_mut().ok_or_else(|| err("op before 'b'"))?;
                        b.push(UpdateOp::Insert { u, v, w: w as u32 });
                    }
                    _ => {
                        let b = s.batches.last_mut().ok_or_else(|| err("op before 'b'"))?;
                        b.push(UpdateOp::Delete { u, v });
                    }
                }
            }
            Some("b") => {
                script
                    .as_mut()
                    .ok_or_else(|| err("batch before problem line"))?
                    .batches
                    .push(Vec::new());
            }
            Some(tok) => return Err(err(&format!("unknown record '{tok}'"))),
            None => {}
        }
    }
    script.ok_or_else(|| "missing problem line".into())
}

/// Writes a script into `dir` (created if missing) as `<stem>.ups`.
pub fn write_script(
    dir: &Path,
    stem: &str,
    script: &UpdateScript,
    notes: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.ups"));
    std::fs::write(&path, script_to_text(script, notes))?;
    Ok(path)
}

/// Loads every `*.ups` entry under `dir`, sorted by file name. Parse
/// failures are hard errors — a corpus file that stops parsing is itself
/// a regression.
pub fn load_scripts(dir: &Path) -> std::io::Result<Vec<(PathBuf, UpdateScript)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ups"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let s = parse_script(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        out.push((path, s));
    }
    Ok(out)
}

// --- campaign --------------------------------------------------------------

/// One update-campaign failure, with its shrunken reproduction.
#[derive(Debug)]
pub struct ScriptFailure {
    /// Index of the generated case.
    pub case_index: usize,
    /// The original (unshrunk) script.
    pub raw: UpdateScript,
    /// Minimal reproduction (still failing).
    pub minimized: UpdateScript,
    /// The divergence observed on the original script.
    pub failure: Failure,
}

/// Update-campaign outcome.
#[derive(Debug)]
pub struct UpdateCampaignReport {
    /// Scripts generated and replayed.
    pub cases_run: usize,
    /// Total batches checked across all scripts.
    pub batches_checked: usize,
    /// All divergences, minimized.
    pub failures: Vec<ScriptFailure>,
}

impl UpdateCampaignReport {
    /// True when every script replayed bit-identically.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs an update-script campaign: `cfg.cases` scripts from
/// `(cfg.seed, case)`, each checked for rebuild equivalence after every
/// batch (`sample_every` is unused here — every batch of every script is
/// verified). Shares the `ecl.fuzz.*` metrics with the static campaign.
pub fn run_update_campaign(cfg: &crate::CampaignConfig) -> UpdateCampaignReport {
    run_update_campaign_with(cfg, |_, _| {})
}

/// [`run_update_campaign`] with a progress callback
/// `(cases_done, failures_so_far)` invoked after every script.
pub fn run_update_campaign_with(
    cfg: &crate::CampaignConfig,
    mut progress: impl FnMut(usize, usize),
) -> UpdateCampaignReport {
    let mut failures = Vec::new();
    let mut batches_checked = 0usize;
    for case_index in 0..cfg.cases {
        let raw = generate_script(cfg.seed, case_index);
        batches_checked += raw.batches.len();
        ecl_metrics::counter!(FUZZ_CASES);
        if let Err(failure) = check_script(&raw) {
            ecl_metrics::counter!(FUZZ_DIVERGENCES);
            let minimized = shrink_script(&raw, |cand| {
                ecl_metrics::counter!(FUZZ_SHRINK_STEPS);
                check_script(cand).is_err()
            });
            failures.push(ScriptFailure {
                case_index,
                raw,
                minimized,
                failure,
            });
        }
        progress(case_index + 1, failures.len());
    }
    UpdateCampaignReport {
        cases_run: cfg.cases,
        batches_checked,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..2 * gen::NUM_FAMILIES {
            assert_eq!(
                generate_script(7, case),
                generate_script(7, case),
                "case {case}"
            );
        }
    }

    #[test]
    fn scripts_cover_inserts_and_deletes() {
        let (mut ins, mut del) = (0usize, 0usize);
        for case in 0..2 * gen::NUM_FAMILIES {
            for op in generate_script(0, case).batches.iter().flatten() {
                match op {
                    UpdateOp::Insert { .. } => ins += 1,
                    UpdateOp::Delete { .. } => del += 1,
                }
            }
        }
        assert!(ins > 20, "only {ins} inserts generated");
        assert!(del > 20, "only {del} deletes generated");
    }

    #[test]
    fn one_family_cycle_replays_clean() {
        let report = run_update_campaign(&crate::CampaignConfig {
            cases: gen::NUM_FAMILIES,
            seed: 11,
            sample_every: 0,
        });
        assert_eq!(report.cases_run, gen::NUM_FAMILIES);
        if let Some(f) = report.failures.first() {
            panic!("case {} [{}]: {}", f.case_index, f.raw.family, f.failure);
        }
    }

    #[test]
    fn shrinker_reduces_while_preserving_the_predicate() {
        let raw = generate_script(3, 12); // sparse_random: edges + batches
        assert!(raw.num_ops() > 0, "family 12 must generate ops");
        // Synthetic predicate: "the script still contains a delete op".
        let has_delete = |s: &UpdateScript| {
            s.batches
                .iter()
                .flatten()
                .any(|op| matches!(op, UpdateOp::Delete { .. }))
        };
        if !has_delete(&raw) {
            return; // this (seed, case) drew an insert-only script
        }
        let min = shrink_script(&raw, has_delete);
        assert!(has_delete(&min), "shrinker returned a passing script");
        assert!(min.num_ops() <= raw.num_ops());
        assert!(min.initial_edges.len() <= raw.initial_edges.len());
        assert!(
            min.num_ops() + min.initial_edges.len() < raw.num_ops() + raw.initial_edges.len(),
            "nothing was removed"
        );
    }

    #[test]
    fn ups_round_trips() {
        let script = UpdateScript {
            family: "test",
            num_vertices: 5,
            initial_edges: vec![(0, 1, 7), (2, 2, 3), (1, 0, 2)],
            batches: vec![
                vec![
                    UpdateOp::Insert { u: 3, v: 4, w: 9 },
                    UpdateOp::Delete { u: 0, v: 1 },
                ],
                vec![],
                vec![UpdateOp::Insert { u: 0, v: 4, w: 1 }],
            ],
        };
        let text = script_to_text(&script, &["seed 0 case 3".into()]);
        let back = parse_script(&text).unwrap();
        assert_eq!(back.num_vertices, script.num_vertices);
        assert_eq!(back.initial_edges, script.initial_edges);
        assert_eq!(back.batches, script.batches);
        assert_eq!(back.family, "corpus");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_script("").is_err());
        assert!(parse_script("e 0 1 2\n").is_err());
        assert!(parse_script("p 2 0\ni 0 1 5\n").is_err(), "op before 'b'");
        assert!(
            parse_script("p 2 0\nb\ne 0 1 5\n").is_err(),
            "'e' after 'b'"
        );
        assert!(parse_script("p 2 0\nb\nd 0 9\n").is_err(), "out of range");
        assert!(parse_script("p 2 0\nz\n").is_err());
    }

    #[test]
    fn write_then_load_scripts() {
        let dir = std::env::temp_dir().join("ecl_fuzz_updates_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        let script = generate_script(1, 3);
        write_script(&dir, "b-second", &script, &[]).unwrap();
        write_script(&dir, "a-first", &script, &[]).unwrap();
        // A static .txt entry in the same dir must be ignored.
        std::fs::write(dir.join("static.txt"), "p 1 0\n").unwrap();
        let loaded = load_scripts(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].0.ends_with("a-first.ups"), "sorted by name");
        assert_eq!(loaded[0].1.initial_edges, script.initial_edges);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! ecl-fuzz — deterministic differential fuzzing across every backend.
//!
//! The paper's artifact verifies each run against serial Kruskal; this
//! crate industrializes that idea. A campaign generates adversarial graph
//! families ([`gen`]), runs *every* code in the workspace on each case
//! ([`backends`]), and demands the bit-identical unique MSF from two
//! independent oracles: the sort-free certificate [`ecl_mst::verify_msf`]
//! and a direct comparison with [`ecl_mst::serial_kruskal`]. Serialization
//! round-trips (binary, text, DIMACS) are fuzzed on every case, and a
//! sampled subset additionally runs under the SIMT sanitizer and the tracer
//! so their invariants are fuzzed too. Failures shrink ([`shrink`]) to minimal reproductions and land in
//! the checked-in corpus ([`corpus`]) that replays as plain `cargo test`.
//!
//! Entry points: `cargo xtask fuzz --cases N --seed S` (CLI) or
//! [`run_campaign`] (library).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod corpus;
pub mod gen;
pub mod shrink;
pub mod updates;

pub use gen::RawCase;
pub use updates::UpdateScript;

use backends::{Backend, Coverage};
use ecl_graph::stats::connected_components;
use ecl_graph::CsrGraph;
use ecl_mst::{serial_kruskal, verify_msf, MstError, MstResult, OptConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One observed divergence: which check failed and how.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The backend (or pseudo-backend like `io/binary`, `sanitizer`) that
    /// diverged.
    pub backend: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.backend, self.detail)
    }
}

pub(crate) fn fail(backend: impl Into<String>, detail: impl Into<String>) -> Failure {
    Failure {
        backend: backend.into(),
        detail: detail.into(),
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every registered backend on `g` and checks each answer.
///
/// MSF backends must return the unique forest, accepted by the
/// [`verify_msf`] certificate and equal to the [`serial_kruskal`] forest;
/// MST-only backends must accept single-component inputs with the same
/// forest and reject anything else with [`MstError::NotConnected`]. Panics
/// are caught and reported as failures of the panicking backend.
pub fn check_backends(g: &CsrGraph, registry: &[Backend]) -> Result<(), Failure> {
    let expected = serial_kruskal(g);
    let must_reject = g.num_vertices() > 1 && connected_components(g) != 1;
    for b in registry {
        let outcome = catch_unwind(AssertUnwindSafe(|| b.run(g)));
        match outcome {
            Err(payload) => {
                return Err(fail(
                    &b.name,
                    format!("panicked: {}", panic_message(payload)),
                ))
            }
            Ok(Err(MstError::NotConnected)) => {
                if b.coverage != Coverage::MstOnly || !must_reject {
                    return Err(fail(&b.name, "spurious NotConnected error"));
                }
            }
            Ok(Ok(r)) => {
                if b.coverage == Coverage::MstOnly && must_reject {
                    return Err(fail(&b.name, "accepted a disconnected input"));
                }
                check_msf(g, &r, &expected).map_err(|e| fail(&b.name, e))?;
            }
        }
    }
    Ok(())
}

/// Checks `r` against both oracles: the [`verify_msf`] certificate and
/// `expected`, the [`serial_kruskal`] forest of `g`. The message names the
/// oracle that rejected it.
pub(crate) fn check_msf(g: &CsrGraph, r: &MstResult, expected: &MstResult) -> Result<(), String> {
    verify_msf(g, r).map_err(|e| format!("certificate: {e}"))?;
    match r
        .in_mst
        .iter()
        .zip(&expected.in_mst)
        .position(|(a, b)| a != b)
    {
        None => Ok(()),
        Some(id) => Err(format!(
            "serial Kruskal: edge set differs (first difference at edge id {id})"
        )),
    }
}

/// Fuzzes the serialization layer: the graph must survive binary, text and
/// DIMACS round-trips bit-identically (builder output is canonical, so
/// exact equality is the contract).
pub fn check_io(g: &CsrGraph) -> Result<(), Failure> {
    use ecl_graph::{io, io_dimacs};
    let bytes = io::to_binary(g).map_err(|e| fail("io/binary", e.to_string()))?;
    let back = io::from_binary(&bytes).map_err(|e| fail("io/binary", e.to_string()))?;
    if back != *g {
        return Err(fail("io/binary", "binary round-trip changed the graph"));
    }
    let back = io::from_text(&io::to_text(g)).map_err(|e| fail("io/text", e))?;
    if back != *g {
        return Err(fail("io/text", "text round-trip changed the graph"));
    }
    let back =
        io_dimacs::from_dimacs(&io_dimacs::to_dimacs(g)).map_err(|e| fail("io/dimacs", e))?;
    if back != *g {
        return Err(fail("io/dimacs", "DIMACS round-trip changed the graph"));
    }
    Ok(())
}

/// Runs the fully optimized simulated-GPU code under the sanitizer and the
/// tracer, checking both instruments' invariants on this input.
pub fn check_instrumented(g: &CsrGraph) -> Result<(), Failure> {
    use ecl_gpu_sim::{with_sanitizer, GpuProfile};
    let expected = serial_kruskal(g);
    let (run, report) =
        with_sanitizer(|| ecl_mst::ecl_mst_gpu_with(g, &OptConfig::full(), GpuProfile::TITAN_V));
    if !report.is_clean() {
        return Err(fail(
            "sanitizer",
            format!(
                "{} violations (+{} suppressed) across {} launches",
                report.violations().len(),
                report.suppressed_violations,
                report.checked_launches
            ),
        ));
    }
    check_msf(g, &run.result, &expected).map_err(|e| fail("sanitizer", e))?;
    let (run, session) = ecl_trace::with_trace(|| {
        ecl_mst::ecl_mst_gpu_with(g, &OptConfig::full(), GpuProfile::TITAN_V)
    });
    check_msf(g, &run.result, &expected).map_err(|e| fail("tracer", e))?;
    if session.chrome_trace().is_empty() {
        return Err(fail("tracer", "empty chrome trace"));
    }
    let _profile = session.profile();
    Ok(())
}

/// Full per-case check: build, differential backends, IO round-trips, and
/// (when `instrumented`) the sanitizer/tracer pass.
pub fn run_case(raw: &RawCase, registry: &[Backend], instrumented: bool) -> Result<(), Failure> {
    let g = catch_unwind(AssertUnwindSafe(|| raw.build()))
        .map_err(|p| fail("builder", format!("panicked: {}", panic_message(p))))?;
    check_backends(&g, registry)?;
    check_io(&g)?;
    if instrumented {
        check_instrumented(&g)?;
    }
    Ok(())
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Master seed; `(seed, case_index)` fully determines each case.
    pub seed: u64,
    /// Run the sanitizer/tracer pass on every `sample_every`-th case
    /// (0 disables sampling).
    pub sample_every: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cases: 200,
            seed: 0,
            sample_every: 16,
        }
    }
}

/// One campaign failure, with its shrunken reproduction.
#[derive(Debug)]
pub struct CaseFailure {
    /// Index of the generated case.
    pub case_index: usize,
    /// The original (unshrunk) input.
    pub raw: RawCase,
    /// Minimal reproduction (same backend still failing).
    pub minimized: RawCase,
    /// The divergence observed on the original input.
    pub failure: Failure,
}

/// Campaign outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// Cases generated and checked.
    pub cases_run: usize,
    /// Number of backends in the registry used.
    pub backends: usize,
    /// Cases that ran the instrumented (sanitizer + tracer) pass.
    pub instrumented_cases: usize,
    /// All divergences, minimized.
    pub failures: Vec<CaseFailure>,
}

impl CampaignReport {
    /// True when no case diverged.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a full differential campaign. Failing cases are shrunk with the
/// *same backend still failing* as the preservation predicate, so the
/// minimized case reproduces the original divergence, not just any failure.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_with(cfg, |_, _| {})
}

/// [`run_campaign`] with a progress callback `(cases_done, failures_so_far)`
/// invoked after every case.
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(usize, usize),
) -> CampaignReport {
    let registry = backends::registry();
    let mut failures = Vec::new();
    let mut instrumented_cases = 0usize;
    for case_index in 0..cfg.cases {
        let raw = gen::generate(cfg.seed, case_index);
        let instrumented = cfg.sample_every != 0 && case_index % cfg.sample_every == 0;
        instrumented_cases += instrumented as usize;
        ecl_metrics::counter!(FUZZ_CASES);
        if let Err(failure) = run_case(&raw, &registry, instrumented) {
            ecl_metrics::counter!(FUZZ_DIVERGENCES);
            let culprit = failure.backend.clone();
            // Each candidate evaluation is one shrink step.
            let minimized = shrink::shrink(&raw, |cand| {
                ecl_metrics::counter!(FUZZ_SHRINK_STEPS);
                matches!(run_case(cand, &registry, false), Err(f) if f.backend == culprit)
            });
            failures.push(CaseFailure {
                case_index,
                raw,
                minimized,
                failure,
            });
        }
        progress(case_index + 1, failures.len());
    }
    CampaignReport {
        cases_run: cfg.cases,
        backends: registry.len(),
        instrumented_cases,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_family_cycle_is_clean() {
        // A full family cycle across all backends, with instrumentation
        // sampled: the whole pipeline end to end.
        let report = run_campaign(&CampaignConfig {
            cases: gen::NUM_FAMILIES,
            seed: 11,
            sample_every: 5,
        });
        assert_eq!(report.cases_run, gen::NUM_FAMILIES);
        assert!(report.instrumented_cases >= 2);
        if let Some(f) = report.failures.first() {
            panic!("case {} [{}]: {}", f.case_index, f.raw.family, f.failure);
        }
    }

    #[test]
    fn injected_divergence_is_caught_and_shrunk() {
        // A fake registry whose second entry ignores the heaviest edge
        // class: the differential check must catch it and the shrinker must
        // reduce the witness.
        let registry = vec![backends::registry().remove(0), bad_backend()];
        let raw = RawCase {
            family: "test",
            num_vertices: 6,
            edges: vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 900_000)],
        };
        let err = run_case(&raw, &registry, false).unwrap_err();
        assert_eq!(err.backend, "bad");
        let min = shrink::shrink(
            &raw,
            |cand| matches!(run_case(cand, &registry, false), Err(f) if f.backend == "bad"),
        );
        assert!(min.edges.len() < raw.edges.len());
        assert!(run_case(&min, &registry, false).is_err());
    }

    /// An intentionally wrong backend: drops any edge heavier than 500k
    /// from its forest.
    fn bad_backend() -> backends::Backend {
        backends::Backend::test_only("bad", |g| {
            let mut r = serial_kruskal(g);
            for e in g.edges() {
                if e.weight > 500_000 && r.in_mst[e.id as usize] {
                    r.in_mst[e.id as usize] = false;
                    r.num_edges -= 1;
                    r.total_weight -= e.weight as u64;
                }
            }
            r
        })
    }

    #[test]
    fn check_msf_names_the_rejecting_oracle() {
        // Family 5 is a clique: it has non-tree edges to flip.
        let g = gen::generate(3, 5).build();
        let good = serial_kruskal(&g);
        check_msf(&g, &good, &good).unwrap();
        let mut flipped = good.in_mst.clone();
        let extra = flipped.iter().position(|&b| !b).unwrap();
        flipped[extra] = true;
        let bad = MstResult::from_bitmap(&g, flipped);
        let err = check_msf(&g, &bad, &good).unwrap_err();
        assert!(err.starts_with("certificate: "), "{err}");
        // A stale reference is caught by the second oracle alone.
        let err = check_msf(&g, &good, &bad).unwrap_err();
        assert!(err.starts_with("serial Kruskal: "), "{err}");
    }

    #[test]
    fn io_check_accepts_every_family() {
        for case in 0..gen::NUM_FAMILIES {
            let g = gen::generate(5, case).build();
            check_io(&g).unwrap();
        }
    }
}

//! The MSF benchmark: build → solve → verify on static inputs, dynamic
//! churn, and the out-of-core pipeline, end to end and per layer.
//!
//! The benchmark drives the program only through the public functions of
//! `ecl-graph` and `ecl-mst` (with `ecl-baselines` and `ecl-gpu-sim` as
//! references) and times each layer from outside, by wrapping those
//! calls. Every workload is a closed loop: one process, one caller, and
//! the next operation is issued only after the previous one returns.
//!
//! * An untraced run (`--trace 0`) sets the inputs up several times,
//!   measures operations for the requested seconds, checks every output,
//!   and prints the end-to-end metrics ([`report::END_TO_END`]).
//! * A traced run (`--trace 1`) wraps every layer call in a span
//!   ([`spans::Recorder`]), runs the references, reruns the traced pass in
//!   a child process with `RAYON_NUM_THREADS=1` for the thread-scaling
//!   ratios, and prints the per-layer metrics ([`report::PER_LAYER`]).
//!   Tracing turns off the CPU backend's flat-label fast path, so the
//!   solve's internal spans come from a perturbed run;
//!   `bench.trace_overhead_ratio` shows by how much.

pub mod check;
pub mod churn;
pub mod outofcore;
pub mod pipeline;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;

use check::Tally;
use report::{Sheet, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::{median, percentile, ratio};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Size, Workload};

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Layers whose traced medians the one-thread child reports.
const SCALED_LAYERS: &[&str] = &["graph.builder", "core.cpu", "core.verify", "core.sharded"];

/// Directory (under the working directory) for result files and spills.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".msfbench")
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed; instance seeds derive from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Instance size.
    pub size: Size,
    /// Run only the traced pass and print its layer medians (the
    /// one-thread child of a traced run).
    pub scaling_child: bool,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--size full|tiny]`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut scaling_child = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--scaling-child" {
                scaling_child = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--size" => size = Size::parse(value).ok_or_else(bad)?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
            scaling_child,
        })
    }
}

/// End-to-end samples of one measured pass.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds per operation, in issue order.
    pub ops: Vec<f64>,
    /// Input edges (update ops on churn) the operations processed.
    pub work: f64,
    /// `VmHWM` over the pass, reset when it started.
    pub peak_rss_mib: f64,
    /// Output checks.
    pub tally: Tally,
}

impl EndToEnd {
    /// Resets the high-water mark and starts an empty pass.
    pub fn start() -> Self {
        probe::reset_peak_rss();
        Self::default()
    }

    /// Reads the pass's peak RSS.
    pub fn finish(mut self) -> Self {
        self.peak_rss_mib = probe::peak_rss_mib();
        self
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Static arc lists.
    Static(Vec<pipeline::Instance>),
    /// Churn graph, script and engine.
    Churn(Box<churn::Instance>),
    /// Out-of-core shard plan.
    Shards(outofcore::Instance),
}

impl Inputs {
    /// Generates `w`'s inputs and references from the workload seed.
    pub fn setup(w: Workload, size: Size, seed: u64) -> Self {
        match w {
            Workload::SparseMesh | Workload::SkewedDense => {
                Inputs::Static(pipeline::setup(w, size, seed))
            }
            Workload::DynamicChurn => Inputs::Churn(Box::new(churn::setup(size, seed))),
            Workload::OutOfCore => Inputs::Shards(outofcore::setup(size, seed)),
        }
    }

    /// Measures operations for `seconds`; with an enabled recorder, the
    /// static pipelines also run their references.
    pub fn measure(&mut self, seconds: f64, rec: &mut Recorder, references: bool) -> EndToEnd {
        match self {
            Inputs::Static(insts) => pipeline::measure(insts, seconds, rec, references),
            Inputs::Churn(c) => c.measure(seconds, rec),
            Inputs::Shards(s) => s.measure(seconds, rec),
        }
    }

    /// Reference runs outside the operation loop: simulated ECL-MST on the
    /// static inputs, the in-core monolith on the out-of-core one.
    pub fn extras(&self, rec: &mut Recorder, tally: &mut Tally) {
        match self {
            Inputs::Static(insts) => pipeline::gpu_sim(insts, rec, tally),
            Inputs::Churn(_) => {}
            Inputs::Shards(s) => s.monolith(rec),
        }
    }

    /// The host-record view of the inputs.
    pub fn info(&self) -> Vec<probe::InstanceInfo> {
        match self {
            Inputs::Static(insts) => pipeline::info(insts),
            Inputs::Churn(c) => churn::info(c),
            Inputs::Shards(s) => outofcore::info(s),
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Host and input record (JSON object).
    pub host: String,
    /// Output checks.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub sheet: Sheet,
    /// Span dump of a traced run.
    pub spans: Option<String>,
}

/// What an invocation prints.
#[derive(Debug)]
pub enum Report {
    /// A measured run.
    Run(Outcome),
    /// The one-thread child's layer medians, one `scaling <layer> <s>`
    /// line each.
    Scaling(String),
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Result<Report, String> {
    if opts.trace {
        traced(opts)
    } else {
        Ok(Report::Run(untraced(opts)))
    }
}

fn untraced(opts: &Options) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::setup(opts.workload, opts.size, opts.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("at least one set-up");
    let e = inputs.measure(opts.seconds, &mut Recorder::disabled(), false);
    let mut sheet = Sheet::new(END_TO_END);
    sheet.set("op_s_p50", median(&e.ops));
    sheet.set(
        "op_s_tail",
        percentile(&e.ops, opts.workload.tail_percentile()),
    );
    sheet.set(
        "throughput_medges_s",
        ratio(e.work, e.ops.iter().sum::<f64>()) / 1e6,
    );
    sheet.set("peak_rss_mib", e.peak_rss_mib);
    sheet.set("setup_s", median(&setup_times));
    Outcome {
        host: probe::host_record(opts.workload.name(), opts.seed, &inputs.info()),
        tally: e.tally,
        sheet,
        spans: None,
    }
}

fn traced(opts: &Options) -> Result<Report, String> {
    let mut inputs = Inputs::setup(opts.workload, opts.size, opts.seed);
    if opts.scaling_child {
        let mut rec = Recorder::new();
        let tally = inputs.measure(opts.seconds, &mut rec, false).tally;
        let mut lines = vec![format!("tally {} {}", tally.attempted, tally.failed)];
        for l in SCALED_LAYERS {
            lines.push(format!("scaling {l} {}", rec.median_seconds(l)));
        }
        return Ok(Report::Scaling(lines.join("\n")));
    }
    let plain = inputs.measure(opts.seconds / 2.0, &mut Recorder::disabled(), false);
    let mut rec = Recorder::new();
    let mut tally = inputs.measure(opts.seconds, &mut rec, true).tally;
    tally.merge(plain.tally);
    inputs.extras(&mut rec, &mut tally);
    let (one_thread, child_tally) = scaling_child(opts)?;
    tally.merge(child_tally);
    let sheet = layer_sheet(&rec, median(&plain.ops), &one_thread, &tally);
    Ok(Report::Run(Outcome {
        host: probe::host_record(opts.workload.name(), opts.seed, &inputs.info()),
        tally,
        sheet,
        spans: Some(rec.to_json()),
    }))
}

/// Reruns the traced pass in a child process pinned to one thread and
/// returns its per-layer medians and its output checks.
fn scaling_child(opts: &Options) -> Result<(HashMap<String, f64>, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            "1",
            "--size",
            opts.size.name(),
            "--scaling-child",
        ])
        .env("RAYON_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("one-thread child: {e}"))?;
    if !out.status.success() {
        return Err(format!("one-thread child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut medians = HashMap::new();
    let mut tally = None;
    for line in stdout.lines() {
        let mut parts = line.split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("scaling"), Some(layer), Some(v)) => {
                let v = v.parse().map_err(|_| format!("bad child line {line:?}"))?;
                medians.insert(layer.to_string(), v);
            }
            (Some("tally"), Some(a), Some(f)) => {
                let count = |x: &str| x.parse().map_err(|_| format!("bad child line {line:?}"));
                tally = Some(Tally {
                    attempted: count(a)?,
                    failed: count(f)?,
                });
            }
            _ => {}
        }
    }
    Ok((medians, tally.ok_or("one-thread child printed no tally")?))
}

/// Per-layer metrics from a traced pass. `plain_p50` is the same
/// process's untraced median operation time; `one_thread` holds the
/// one-thread child's layer medians.
pub fn layer_sheet(
    rec: &Recorder,
    plain_p50: f64,
    one_thread: &HashMap<String, f64>,
    tally: &Tally,
) -> Sheet {
    let mut s = Sheet::new(PER_LAYER);
    for (metric, span) in [
        ("graph.builder.build_s", "graph.builder"),
        ("core.cpu.solve_s", "core.cpu"),
        ("core.verify.verify_s", "core.verify"),
        ("core.serial.kruskal_s", "core.serial"),
        ("baselines.pbbs.serial_s", "baselines.pbbs"),
        ("core.dynamic.apply_batch_s", "core.dynamic"),
        ("core.sharded.wall_s", "core.sharded"),
        ("gpu_sim.wall_s", "gpu_sim"),
        ("bench.traced_op_s", "pipeline"),
        ("bench.check_s", "check"),
    ] {
        s.set(metric, rec.median_seconds(span));
    }
    for (metric, span, key) in [
        ("graph.builder.dedup_ratio", "graph.builder", "dedup_ratio"),
        ("core.cpu.iterations", "core.cpu", "iterations"),
        ("core.cpu.populate_s", "core.cpu", "populate_s"),
        ("core.cpu.phase1_s", "core.cpu", "phase1_s"),
        ("core.cpu.phase2_s", "core.cpu", "phase2_s"),
        ("core.filter.plan_s", "core.cpu", "plan_s"),
        ("core.sharded.solve_s", "core.sharded", "solve_s"),
        ("core.sharded.merge_s", "core.sharded", "merge_s"),
        (
            "core.sharded.survivor_ratio",
            "core.sharded",
            "survivor_ratio",
        ),
        ("core.sharded.merge_rounds", "core.sharded", "merge_rounds"),
        ("core.sharded.spill_mb", "core.sharded", "spill_mb"),
        ("gpu_sim.simulated_ms", "gpu_sim", "simulated_ms"),
        ("gpu_sim.launches", "gpu_sim", "launches"),
    ] {
        s.set(metric, rec.median_attr(span, key));
    }
    // Metric prefix and span name coincide for the scaled layers.
    for &layer in SCALED_LAYERS {
        s.set(&format!("{layer}.peak_rss_mib"), rec.max_rss(layer));
        let one = one_thread.get(layer).copied().unwrap_or(0.0);
        s.set(
            &format!("{layer}.speedup_vs_1t"),
            ratio(one, rec.median_seconds(layer)),
        );
        if layer != "core.verify" {
            s.set(&format!("{layer}.cpu_util"), rec.median_cpu_util(layer));
        }
    }

    let batches = rec.named("core.dynamic").count() as f64;
    let cuts = rec.sum_attr("core.dynamic", "cuts");
    for (metric, key, per) in [
        ("core.dynamic.cuts_per_batch", "cuts", batches),
        ("core.dynamic.swaps_per_batch", "swaps", batches),
        ("core.dynamic.links_per_batch", "links", batches),
        ("core.dynamic.tree_churn_per_batch", "tree_churn", batches),
        ("core.dynamic.replacement_ratio", "replacements", cuts),
        ("core.dynamic.candidates_per_cut", "candidates", cuts),
    ] {
        s.set(metric, ratio(rec.sum_attr("core.dynamic", key), per));
    }
    let solves = rec.named("core.cpu").count() as f64;
    s.set(
        "core.cpu.two_phase_share",
        ratio(rec.sum_attr("core.cpu", "two_phase"), solves),
    );
    s.set(
        "core.cpu.vs_serial_kruskal",
        paired_ratio(rec, "core.cpu", "core.serial"),
    );
    s.set(
        "core.dynamic.speedup_vs_rebuild",
        ratio(
            rec.median_seconds("rebuild"),
            rec.median_seconds("core.dynamic"),
        ),
    );
    s.set(
        "core.sharded.vs_monolith",
        ratio(
            rec.median_seconds("core.sharded"),
            rec.median_seconds("monolith"),
        ),
    );

    let own = rec.self_seconds();
    let (mut self_sum, mut total) = (0.0, 0.0);
    for span in rec.named("pipeline") {
        self_sum += own[span.id];
        total += span.seconds();
    }
    s.set("bench.overhead_share", ratio(self_sum, total));
    s.set(
        "bench.trace_overhead_ratio",
        ratio(rec.median_seconds("pipeline"), plain_p50),
    );
    s.set("fail_ratio", tally.fail_ratio());
    s
}

/// Median over operations of `num`'s seconds over `den`'s seconds, pairing
/// the two spans by operation id.
fn paired_ratio(rec: &Recorder, num: &str, den: &str) -> f64 {
    let dens: HashMap<u64, f64> = rec.named(den).map(|s| (s.op, s.seconds())).collect();
    let ratios: Vec<f64> = rec
        .named(num)
        .filter_map(|s| Some(ratio(s.seconds(), *dens.get(&s.op)?)))
        .collect();
    median(&ratios)
}

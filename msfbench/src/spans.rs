//! The benchmark's own span recorder.
//!
//! Spans are opened around each call into a layer from the benchmark's
//! code, never inside the program. Each carries a name, start, end, the
//! span that contains it, and the id of the operation it belongs to; the
//! spans of one operation share that id. Spans stay in memory and are
//! written out once, when the run ends. Per-call counters ride along as
//! named attributes, so ratios come from the same place the time does.

use crate::probe;
use crate::stats::median;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation this span belongs to.
    pub op: u64,
    /// Index of this span in the recorder.
    pub id: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start_s: f64,
    /// Seconds since the recorder started.
    pub end_s: f64,
    /// Process CPU seconds spent inside the span.
    pub cpu_s: f64,
    /// `VmHWM` after the call with the high-water mark reset before it,
    /// when the span asked for it.
    pub peak_rss_mib: Option<f64>,
    /// Per-call counters and program-internal span times.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Named attribute, 0 when absent.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// In-memory span recorder. A disabled recorder records nothing and adds
/// nothing to the calls it wraps, so one code path serves the untraced and
/// the traced run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    cpu_at_open: Vec<f64>,
    next_op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            cpu_at_open: Vec::new(),
            next_op: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Opens a span; close it with [`Recorder::close`]. Returns
    /// `usize::MAX`, which every other method ignores, when disabled.
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.cpu_at_open.push(probe::process_cpu_seconds());
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_s: now,
            end_s: now,
            cpu_s: 0.0,
            peak_rss_mib: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if id >= self.spans.len() {
            return;
        }
        let end = self.origin.elapsed().as_secs_f64();
        let cpu = probe::process_cpu_seconds() - self.cpu_at_open[id];
        let s = &mut self.spans[id];
        s.end_s = end;
        s.cpu_s = cpu;
    }

    /// Runs `f` inside a span. With `rss`, the high-water mark is reset
    /// just before the span opens and read just after it closes, so that
    /// work lands in the enclosing span, not in this one.
    pub fn call<R>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        rss: bool,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        if rss {
            probe::reset_peak_rss();
        }
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        if rss {
            self.spans[id].peak_rss_mib = Some(probe::peak_rss_mib());
        }
        (out, id)
    }

    /// Attaches a named value to span `id`.
    pub fn attr(&mut self, id: usize, key: &'static str, value: f64) {
        if let Some(s) = self.spans.get_mut(id) {
            s.attrs.push((key, value));
        }
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median wall seconds of the spans named `name` (0 if none).
    pub fn median_seconds(&self, name: &str) -> f64 {
        median(&self.named(name).map(Span::seconds).collect::<Vec<_>>())
    }

    /// Median of attribute `key` over the spans named `name`.
    pub fn median_attr(&self, name: &str, key: &str) -> f64 {
        median(&self.named(name).map(|s| s.attr(key)).collect::<Vec<_>>())
    }

    /// Sum of attribute `key` over the spans named `name`.
    pub fn sum_attr(&self, name: &str, key: &str) -> f64 {
        self.named(name).map(|s| s.attr(key)).sum()
    }

    /// Median over the spans named `name` of CPU seconds per wall second.
    pub fn median_cpu_util(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .map(|s| crate::stats::ratio(s.cpu_s, s.seconds()))
                .collect::<Vec<_>>(),
        )
    }

    /// Highest per-call peak RSS over the spans named `name`.
    pub fn max_rss(&self, name: &str) -> f64 {
        self.named(name)
            .filter_map(|s| s.peak_rss_mib)
            .fold(0.0, f64::max)
    }

    /// Self seconds of every span: its duration minus the time its child
    /// spans cover (children of one parent never overlap here, since the
    /// benchmark issues one call at a time).
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// All spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let own = self.self_seconds();
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let attrs: Vec<String> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
                    .collect();
                format!(
                    "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                     \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"cpu_s\": {}, \
                     \"peak_rss_mib\": {}, \"attrs\": {{{}}}}}",
                    s.op,
                    s.id,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.name,
                    num(s.start_s),
                    num(s.end_s),
                    num(own[s.id]),
                    num(s.cpu_s),
                    s.peak_rss_mib.map_or("null".into(), num),
                    attrs.join(", ")
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Total seconds of the program's wall spans named `name` in one
/// `ecl_trace` session's breakdown (0 when the span never ran).
pub fn wall_total(wall: &[ecl_trace::WallKernel], name: &str) -> f64 {
    wall.iter()
        .filter(|k| k.name == name)
        .map(|k| k.total_seconds)
        .sum()
}

/// A finite JSON number (non-finite values print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let op = r.next_op();
        let p = r.open(op, None, "pipeline");
        let (_, c) = r.call(op, Some(p), "child", false, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.close(p);
        let own = r.self_seconds();
        assert!(own[c] >= 0.004);
        assert!(own[p] >= 0.0 && own[p] < r.spans[p].seconds() - 0.004);
        assert_eq!(r.spans[c].op, r.spans[p].op);
    }
}

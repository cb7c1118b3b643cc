//! The dynamic-churn workload: one operation is one
//! `DynamicMsf::apply_batch` call on a resident RMAT graph.
//!
//! The update script is generated in set-up, together with the reference
//! digest of the forest after every checkpoint interval. A run replays the
//! script interval by interval and compares `DynamicMsf::tree_edges()` at
//! each checkpoint, outside the timed calls; a run always ends on a
//! checkpoint, so its final state is checked too. When a fast host
//! exhausts the script, the engine is seeded again and the script replays.

use crate::check::{forest_matches, reference_digest, reference_forest, Digest, Triple};
use crate::probe::InstanceInfo;
use crate::spans::Recorder;
use crate::workload::{instance_seed, Size, SplitMix, Workload};
use crate::EndToEnd;
use ecl_graph::generators::rmat;
use ecl_graph::CsrGraph;
use ecl_mst::{serial_kruskal, DynamicMsf, UpdateOp};
use std::collections::HashMap;
use std::time::Instant;

/// Ops per batch: every third op is a delete (about 2:1 inserts to
/// deletes), and every other delete aims at an edge of the initial forest
/// so the cut and replacement-search path runs.
pub const OPS_PER_BATCH: usize = 32;

/// The live edge set as a model: weight by canonical key, plus a dense key
/// list for uniform picks.
struct Live {
    slot: HashMap<(u32, u32), (u32, usize)>,
    keys: Vec<(u32, u32)>,
}

impl Live {
    fn new(edges: impl IntoIterator<Item = Triple>) -> Self {
        let mut live = Live {
            slot: HashMap::new(),
            keys: Vec::new(),
        };
        for (u, v, w) in edges {
            live.insert(u, v, w);
        }
        live
    }

    /// Builder and engine semantics: the lighter weight wins.
    fn insert(&mut self, u: u32, v: u32, w: u32) {
        let key = (u.min(v), u.max(v));
        match self.slot.get_mut(&key) {
            Some(s) => s.0 = s.0.min(w),
            None => {
                self.slot.insert(key, (w, self.keys.len()));
                self.keys.push(key);
            }
        }
    }

    fn delete(&mut self, key: (u32, u32)) -> bool {
        let Some((_, at)) = self.slot.remove(&key) else {
            return false;
        };
        self.keys.swap_remove(at);
        if let Some(&moved) = self.keys.get(at) {
            self.slot.get_mut(&moved).expect("listed keys are live").1 = at;
        }
        true
    }

    fn apply(&mut self, ops: &[UpdateOp]) {
        for op in ops {
            match *op {
                UpdateOp::Insert { u, v, w } => self.insert(u, v, w),
                UpdateOp::Delete { u, v } => {
                    self.delete((u.min(v), u.max(v)));
                }
            }
        }
    }

    fn triples(&self) -> Vec<Triple> {
        self.keys
            .iter()
            .map(|&(u, v)| (u, v, self.slot[&(u, v)].0))
            .collect()
    }
}

/// The churn input: graph, script, checkpoint references, and the engine.
pub struct Instance {
    /// The RMAT graph the engine starts from.
    pub graph: CsrGraph,
    /// Update batches, in order.
    pub batches: Vec<Vec<UpdateOp>>,
    /// Batches per checkpoint interval.
    pub every: usize,
    /// Reference digest after each interval.
    pub checkpoints: Vec<Digest>,
    /// The engine under test, seeded from `graph`.
    pub engine: DynamicMsf,
    /// Next batch to apply.
    next: usize,
}

/// Generates the graph and script, their checkpoint references, and seeds
/// the engine (`DynamicMsf::from_graph` is part of set-up).
pub fn setup(size: Size, seed: u64) -> Instance {
    let (scale, batches, every) = match size {
        Size::Full => (15, 2048, 64),
        Size::Tiny => (10, 32, 8),
    };
    let s = instance_seed(seed, Workload::DynamicChurn, 0);
    let graph = rmat(scale, 8, s);
    let (batches, checkpoints) = script(&graph, s, batches, every);
    let engine = DynamicMsf::from_graph(&graph);
    Instance {
        graph,
        batches,
        every,
        checkpoints,
        engine,
        next: 0,
    }
}

fn script(
    g: &CsrGraph,
    seed: u64,
    count: usize,
    every: usize,
) -> (Vec<Vec<UpdateOp>>, Vec<Digest>) {
    let n = g.num_vertices() as u64;
    let mut rng = SplitMix::new(seed ^ 0x5C21_D7E1);
    let edges = g.edge_list();
    let max_w = edges.iter().map(|e| e.2).max().unwrap_or(1).max(1);
    let mut targets: Vec<(u32, u32)> = reference_forest(g.num_vertices(), edges.iter().copied())
        .into_iter()
        .map(|(u, v, _)| (u, v))
        .collect();
    rng.shuffle(&mut targets);
    let mut live = Live::new(edges);
    let mut batches = Vec::with_capacity(count);
    let mut checkpoints = Vec::with_capacity(count / every);
    for b in 0..count {
        let mut ops = Vec::with_capacity(OPS_PER_BATCH);
        for k in 0..OPS_PER_BATCH {
            if k % 3 == 2 {
                let mut key = None;
                if (k / 3) % 2 == 0 {
                    while let Some(t) = targets.pop() {
                        if live.slot.contains_key(&t) {
                            key = Some(t);
                            break;
                        }
                    }
                }
                if key.is_none() && !live.keys.is_empty() {
                    key = Some(live.keys[rng.below(live.keys.len() as u64) as usize]);
                }
                if let Some((u, v)) = key {
                    live.delete((u, v));
                    ops.push(UpdateOp::Delete { u, v });
                    continue;
                }
            }
            let u = rng.below(n) as u32;
            let mut v = rng.below(n - 1) as u32;
            if v >= u {
                v += 1;
            }
            let w = 1 + rng.below(u64::from(max_w)) as u32;
            live.insert(u, v, w);
            ops.push(UpdateOp::Insert { u, v, w });
        }
        batches.push(ops);
        if (b + 1) % every == 0 {
            checkpoints.push(reference_digest(g.num_vertices(), live.triples()));
        }
    }
    (batches, checkpoints)
}

/// The host-record view of the instance: the graph the engine starts
/// from (the script is `OPS_PER_BATCH` ops per batch on top of it).
pub fn info(inst: &Instance) -> Vec<InstanceInfo> {
    vec![InstanceInfo {
        name: "rmat".into(),
        vertices: inst.graph.num_vertices() as u64,
        edges: inst.graph.num_edges() as u64,
    }]
}

impl Instance {
    /// Starts the script again on a freshly seeded engine. The old engine
    /// goes first, so a restart does not raise the peak RSS.
    pub fn restart(&mut self) {
        self.engine = DynamicMsf::new(0);
        self.engine = DynamicMsf::from_graph(&self.graph);
        self.next = 0;
    }

    /// Replays checkpoint intervals until `seconds` have passed (at least
    /// one interval). With an enabled recorder every batch gets a span with
    /// its counters, and each checkpoint also rebuilds the live graph with
    /// `GraphBuilder` + `serial_kruskal`, the cost the engine avoids.
    pub fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> EndToEnd {
        let mut shadow = rec.enabled().then(|| Live::new(self.graph.edge_list()));
        if shadow.is_some() && self.next != 0 {
            self.restart();
        }
        let mut e = EndToEnd::start();
        let start = Instant::now();
        loop {
            for _ in 0..self.every {
                let ops = &self.batches[self.next];
                let engine = &mut self.engine;
                let op = rec.next_op();
                let t0 = Instant::now();
                let p = rec.open(op, None, "pipeline");
                let (stats, d) = rec.call(op, Some(p), "core.dynamic", false, || {
                    engine.apply_batch(ops)
                });
                rec.close(p);
                e.ops.push(t0.elapsed().as_secs_f64());
                e.work += ops.len() as f64;
                for (key, v) in [
                    ("cuts", stats.cuts),
                    ("swaps", stats.swaps),
                    ("links", stats.links),
                    ("replacements", stats.replacements),
                    ("candidates", stats.candidates_scanned),
                    ("tree_churn", stats.tree_churn),
                ] {
                    rec.attr(d, key, v as f64);
                }
                if let Some(live) = &mut shadow {
                    live.apply(ops);
                }
                self.next += 1;
            }
            let expected = &self.checkpoints[self.next / self.every - 1];
            let engine = &self.engine;
            let op = rec.next_op();
            let (ok, _) = rec.call(op, None, "check", false, || {
                forest_matches(engine.tree_edges(), expected)
            });
            e.tally.record(self.every as u64, ok);
            if let Some(live) = &shadow {
                rebuild(self.graph.num_vertices(), live.triples(), op, rec);
            }
            if self.next == self.batches.len() {
                self.restart();
                if let Some(live) = &mut shadow {
                    *live = Live::new(self.graph.edge_list());
                }
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        e.finish()
    }
}

/// What a static pipeline would pay per checkpoint: CSR build of the live
/// edge set plus serial Kruskal.
fn rebuild(n: usize, triples: Vec<Triple>, op: u64, rec: &mut Recorder) {
    let r = rec.open(op, None, "rebuild");
    let g = crate::pipeline::build(rec, op, Some(r), n, &triples);
    let _ = rec.call(op, Some(r), "core.serial", false, || serial_kruskal(&g));
    rec.close(r);
}

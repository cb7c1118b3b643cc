//! The out-of-core workload: one operation is one spilling `sharded_msf`
//! call over `UniformRandomShards` at Large size, shard generation
//! included.

use crate::check::{forest_matches, reference_digest, Digest, Triple};
use crate::probe::InstanceInfo;
use crate::spans::{wall_total, Recorder};
use crate::workload::{instance_seed, Size, Workload};
use crate::EndToEnd;
use ecl_graph::generators::UniformRandomShards;
use ecl_graph::shard::EdgeShards;
use ecl_graph::SuiteScale;
use ecl_mst::{serial_kruskal, sharded_msf, ShardedConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Shard count K.
pub const SHARDS: usize = 8;

/// Average degree of the uniform random input (the `r4-2e23.sym` twin's).
const AVG_DEGREE: f64 = 8.0;

/// The out-of-core input: a shard plan and its reference.
pub struct Instance {
    /// Vertices.
    pub num_vertices: usize,
    /// Generator seed.
    pub seed: u64,
    /// Edges the source emits across all shards.
    pub emitted: usize,
    /// Reference forest digest of the whole emission.
    pub digest: Digest,
    /// Where survivor sets spill; removed when the instance drops.
    pub spill_dir: PathBuf,
}

impl Drop for Instance {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

/// Plans the input and computes its reference digest from every shard's
/// raw emission.
pub fn setup(size: Size, seed: u64) -> Instance {
    let scale = match size {
        Size::Full => SuiteScale::Large,
        Size::Tiny => SuiteScale::Tiny,
    };
    let num_vertices = scale.base();
    let seed = instance_seed(seed, Workload::OutOfCore, 0);
    let all = emission(num_vertices, seed);
    Instance {
        num_vertices,
        seed,
        emitted: all.len(),
        digest: reference_digest(num_vertices, all),
        spill_dir: crate::out_dir().join(format!("spill-{}", std::process::id())),
    }
}

fn emission(n: usize, seed: u64) -> Vec<Triple> {
    let src = UniformRandomShards::new(n, AVG_DEGREE, seed);
    (0..SHARDS).flat_map(|k| src.shard(k, SHARDS)).collect()
}

/// The host-record view of the instance.
pub fn info(inst: &Instance) -> Vec<InstanceInfo> {
    vec![InstanceInfo {
        name: "r4-2e23.sym".into(),
        vertices: inst.num_vertices as u64,
        edges: inst.emitted as u64,
    }]
}

impl Instance {
    /// Runs sharded solves until `seconds` have passed (at least one). With
    /// an enabled recorder, the program's `shard/solve` and `shard/merge`
    /// wall spans are read through `with_trace`.
    pub fn measure(&self, seconds: f64, rec: &mut Recorder) -> EndToEnd {
        let cfg = ShardedConfig::spilling(SHARDS, &self.spill_dir);
        let traced = rec.enabled();
        let mut e = EndToEnd::start();
        let start = Instant::now();
        loop {
            let op = rec.next_op();
            let t0 = Instant::now();
            let p = rec.open(op, None, "pipeline");
            let ((run, wall), s) = rec.call(op, Some(p), "core.sharded", true, || {
                let solve = || {
                    let src = UniformRandomShards::new(self.num_vertices, AVG_DEGREE, self.seed);
                    sharded_msf(&src, &cfg)
                };
                if traced {
                    let (run, session) = ecl_trace::with_trace(solve);
                    (run, session.wall_breakdown())
                } else {
                    (solve(), Vec::new())
                }
            });
            rec.close(p);
            e.ops.push(t0.elapsed().as_secs_f64());
            e.work += self.emitted as f64;

            rec.attr(s, "solve_s", wall_total(&wall, "shard/solve"));
            rec.attr(s, "merge_s", wall_total(&wall, "shard/merge"));
            rec.attr(
                s,
                "survivor_ratio",
                run.survivor_edges as f64 / self.emitted as f64,
            );
            rec.attr(s, "merge_rounds", f64::from(run.merge_rounds));
            rec.attr(s, "spill_mb", run.spill_bytes as f64 / 1e6);
            let (ok, _) = rec.call(op, None, "check", false, || {
                forest_matches(run.forest.edges.clone(), &self.digest)
            });
            e.tally.record(1, ok);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        e.finish()
    }

    /// The in-core monolith the sharded pipeline stands in for:
    /// `GraphBuilder::build` of the whole emission plus `serial_kruskal`.
    pub fn monolith(&self, rec: &mut Recorder) {
        let all = emission(self.num_vertices, self.seed);
        let op = rec.next_op();
        let m = rec.open(op, None, "monolith");
        let g = crate::pipeline::build(rec, op, Some(m), self.num_vertices, &all);
        let _ = rec.call(op, Some(m), "core.serial", false, || serial_kruskal(&g));
        rec.close(m);
    }
}

//! Self-tests of the benchmark itself.
//!
//! 1. Every workload, run at a tiny size, prints every metric that
//!    `BENCHMARK.json` names, with that metric's unit, in both modes.
//! 2. A forest with one tree edge swapped for a heavier crossing edge is
//!    counted as a failure, so `failed` and `fail_ratio` are not vacuous.

use msfbench::check::{forest_of, reference_digest, Tally, Triple};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut at = 0;
    let v = value(bytes, &mut at);
    skip_ws(bytes, &mut at);
    assert_eq!(at, bytes.len(), "trailing text after JSON value");
    v
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, at) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, at);
                assert_eq!(b[*at], b':');
                *at += 1;
                assert!(
                    m.insert(k.clone(), value(b, at)).is_none(),
                    "duplicate key {k}"
                );
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut v = Vec::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(v);
                }
                v.push(value(b, at));
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'"' => {
            *at += 1;
            let start = *at;
            while b[*at] != b'"' {
                assert_ne!(b[*at], b'\\', "escapes are not expected here");
                *at += 1;
            }
            *at += 1;
            Json::Str(String::from_utf8(b[start..*at - 1].to_vec()).expect("utf-8"))
        }
        b't' => {
            *at += 4;
            Json::Bool(true)
        }
        b'f' => {
            *at += 5;
            Json::Bool(false)
        }
        b'n' => {
            *at += 4;
            Json::Null
        }
        _ => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            let s = std::str::from_utf8(&b[start..*at]).expect("ascii");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
        }
    }
}

/// `(name → unit)` of one metric list in `BENCHMARK.json`.
fn catalog(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench = parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root"),
    );
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-runs");
    std::fs::create_dir_all(&work).expect("scratch dir");
    for w in bench.get("workloads").arr() {
        let name = w.get("name").str();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_msfbench"))
                .args(["--workload", name, "--seed", "3", "--seconds", "0.3"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(&work)
                .output()
                .expect("benchmark runs");
            assert!(
                out.status.success(),
                "{name} --trace {trace}: {:?}",
                out.status
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let result = parse(stdout.lines().last().expect("a result line"));
            let Json::Obj(top) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(*result.get("correct"), Json::Bool(true), "{name}");
            assert_eq!(*result.get("failed"), Json::Num(0.0), "{name}");
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));

            let want = catalog(&bench, list);
            let Json::Obj(got) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let got_names: Vec<&String> = got.keys().collect();
            let want_names: Vec<&String> = want.keys().collect();
            assert_eq!(got_names, want_names, "{name} --trace {trace}");
            for (metric, unit) in &want {
                let m = &got[metric];
                assert_eq!(m.get("unit").str(), unit, "{name}: {metric}");
                assert!(matches!(m.get("value"), Json::Num(v) if v.is_finite()));
            }
        }
    }
}

/// Replaces the heaviest tree edge on the tree path between the endpoints
/// of a non-tree edge with that (strictly heavier) non-tree edge: still a
/// spanning forest with the same edge count, but not the minimum one.
fn swap_one_edge(forest: &[Triple], all: &[Triple]) -> Vec<Triple> {
    let mut adj: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for &(u, v, w) in forest {
        adj.entry(u).or_default().push((v, w));
        adj.entry(v).or_default().push((u, w));
    }
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    let tree: HashSet<(u32, u32)> = forest.iter().map(|&(u, v, _)| key(u, v)).collect();
    for &(a, b, w) in all {
        if tree.contains(&key(a, b)) {
            continue;
        }
        // Tree path a → b by BFS, remembering each vertex's parent edge.
        let mut prev: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut queue = VecDeque::from([a]);
        prev.insert(a, (a, 0));
        while let Some(x) = queue.pop_front() {
            for &(y, wy) in adj.get(&x).map_or(&[][..], Vec::as_slice) {
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(y) {
                    e.insert((x, wy));
                    queue.push_back(y);
                }
            }
        }
        let Some(_) = prev.get(&b) else { continue };
        let (mut x, mut heaviest) = (b, (0u32, 0u32, 0u32));
        while x != a {
            let (p, wx) = prev[&x];
            if wx >= heaviest.2 {
                heaviest = (key(p, x).0, key(p, x).1, wx);
            }
            x = p;
        }
        if w <= heaviest.2 {
            continue;
        }
        let mut swapped: Vec<Triple> = forest
            .iter()
            .copied()
            .filter(|&(u, v, _)| key(u, v) != (heaviest.0, heaviest.1))
            .collect();
        swapped.push((a, b, w));
        return swapped;
    }
    panic!("no heavier crossing edge found");
}

#[test]
fn a_swapped_tree_edge_counts_as_a_failure() {
    let g = ecl_graph::generators::grid2d(12, 5);
    let all = g.edge_list();
    let expected = reference_digest(g.num_vertices(), all.iter().copied());
    let forest = forest_of(&g, &ecl_mst::ecl_mst_cpu(&g));

    let mut tally = Tally::default();
    assert!(
        tally.check_forest(forest.clone(), &expected),
        "the true forest passes"
    );
    assert_eq!(tally.fail_ratio(), 0.0);

    let swapped = swap_one_edge(&forest, &all);
    assert_eq!(swapped.len(), forest.len());
    let weight = |f: &[Triple]| f.iter().map(|e| u64::from(e.2)).sum::<u64>();
    assert!(weight(&swapped) > weight(&forest));
    assert!(
        !tally.check_forest(swapped, &expected),
        "the swapped forest fails"
    );
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.fail_ratio(), 0.5);
}

//! Criterion micro-benchmark of CSR construction throughput (edges/second):
//! [`GraphBuilder::build`] (the bucketed counting-sort build) against the
//! reference [`GraphBuilder::build_serial`], on the Small-scale
//! uniform-random input.
//! This is the cost the pipelined suite build fans out, so its throughput
//! bounds every experiment binary's prepare phase.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecl_graph::generators::uniform_random;
use ecl_graph::GraphBuilder;

fn bench_builder(c: &mut Criterion) {
    let g = uniform_random(1 << 15, 8.0, 42);
    // One direction per undirected edge, as the builder ingests them.
    let triples: Vec<(u32, u32, u32)> = g
        .edges()
        .filter(|e| e.src < e.dst)
        .map(|e| (e.src, e.dst, e.weight))
        .collect();
    let num_vertices = 1usize << 15;

    let filled = || {
        let mut b = GraphBuilder::with_capacity(num_vertices, triples.len());
        for &(u, v, w) in &triples {
            b.add_edge(u, v, w);
        }
        b
    };

    let mut group = c.benchmark_group("builder");
    group.throughput(Throughput::Elements(triples.len() as u64));
    group.bench_function("build_32k_d8", |b| {
        b.iter_batched(filled, |b| b.build(), BatchSize::LargeInput)
    });
    group.bench_function("build_serial_32k_d8", |b| {
        b.iter_batched(filled, |b| b.build_serial(), BatchSize::LargeInput)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_builder
}
criterion_main!(benches);

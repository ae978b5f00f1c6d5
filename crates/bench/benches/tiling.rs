//! Phase-1 scheduling benchmark (the Criterion counterpart of Table 9):
//! squared edge tiling vs whole-vertex tasks vs edge-balanced ranges.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lotus_algos::intersect::Bitmap;
use lotus_core::count::{count_hub_phase, count_single_tile};
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::tiling::{make_tiles, Tile};
use lotus_core::LotusConfig;
use lotus_gen::{Dataset, DatasetScale};
use lotus_graph::partition::edge_balanced;
use rayon::prelude::*;

fn bench_tiling(c: &mut Criterion) {
    let dataset = Dataset::by_name("Twtr10")
        .expect("known")
        .at_scale(DatasetScale::Tiny);
    let graph = dataset.generate();
    let config = LotusConfig::default();
    let lg = build_lotus_graph(&graph, &config);

    let tiles_set = make_tiles(&lg.he, 512, config.partitions_per_vertex);
    // No splitting: every vertex is one tile regardless of degree.
    let tiles_whole = make_tiles(&lg.he, u32::MAX, config.partitions_per_vertex);

    let mut group = c.benchmark_group("tiling");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    group.bench_function("squared_edge_tiling", |b| {
        b.iter(|| black_box(count_hub_phase(&lg, &tiles_set)));
    });
    group.bench_function("whole_vertex_tasks", |b| {
        b.iter(|| black_box(count_hub_phase(&lg, &tiles_whole)));
    });
    group.bench_function("edge_balanced_ranges", |b| {
        let ranges = edge_balanced(&lg.he, 256 * rayon::current_num_threads());
        b.iter(|| {
            let total: u64 = ranges
                .par_iter()
                .map(|r| {
                    let mut local = 0u64;
                    let mut marks = Bitmap::new(lg.hub_count as usize);
                    for v in r.iter() {
                        let he = lg.hub_neighbors(v);
                        let t = Tile {
                            v,
                            begin: 0,
                            end: he.len() as u32,
                        };
                        local += count_single_tile(&lg.h2h, &mut marks, he, &t);
                    }
                    local
                })
                .sum();
            black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_tiling);
criterion_main!(benches);

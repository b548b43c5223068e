//! Ablation benches for three design choices of the pipeline: similarity
//! policy, spanning-tree backbone, and probe/step counts.
//!
//! Beyond timing, each configuration's resulting edge count is printed once
//! (via `eprintln!`) so the quality dimension of the trade-off is visible
//! in the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sass_core::{sparsify, SimilarityPolicy, SparsifyConfig};
use sass_graph::generators::circuit_grid;
use sass_graph::spanning::TreeKind;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    let g = circuit_grid(48, 48, 0.12, 9);

    for (name, policy) in [
        ("sim_none", SimilarityPolicy::None),
        ("sim_endpoint", SimilarityPolicy::EndpointMark),
        (
            "sim_path",
            SimilarityPolicy::PathOverlap { max_overlap: 0.5 },
        ),
    ] {
        let cfg = SparsifyConfig::new(80.0)
            .with_similarity(policy)
            .with_seed(2);
        let sp = sparsify(&g, &cfg).unwrap();
        eprintln!(
            "[ablation] policy {name}: {} edges, {} rounds, cond {:.1}",
            sp.edge_count(),
            sp.rounds().len(),
            sp.condition_estimate()
        );
        group.bench_with_input(BenchmarkId::new("policy", name), &(), |b, ()| {
            b.iter(|| sparsify(&g, &cfg).unwrap())
        });
    }

    for (name, tree) in [
        ("tree_maxweight", TreeKind::MaxWeight),
        ("tree_akpw", TreeKind::Akpw),
        ("tree_bfs", TreeKind::Bfs),
        ("tree_random", TreeKind::Random(7)),
    ] {
        let cfg = SparsifyConfig::new(80.0).with_tree(tree).with_seed(2);
        let sp = sparsify(&g, &cfg).unwrap();
        eprintln!(
            "[ablation] {name}: {} edges, {} rounds, cond {:.1}",
            sp.edge_count(),
            sp.rounds().len(),
            sp.condition_estimate()
        );
        group.bench_with_input(BenchmarkId::new("tree", name), &(), |b, ()| {
            b.iter(|| sparsify(&g, &cfg).unwrap())
        });
    }

    for t in [1usize, 2, 4] {
        let cfg = SparsifyConfig::new(80.0).with_t_steps(t).with_seed(2);
        group.bench_with_input(BenchmarkId::new("t_steps", t), &(), |b, ()| {
            b.iter(|| sparsify(&g, &cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);

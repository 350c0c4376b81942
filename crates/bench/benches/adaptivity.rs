//! Adaptivity benchmarks: the cost of a membership change.
//!
//! Measures (a) strategy reconstruction after adding a bin and (b) the
//! end-to-end migration of a loaded storage cluster when a device joins —
//! the operation whose data volume Lemmas 3.2/3.5 bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rshare_core::{Bin, BinSet, RedundantShare};
use rshare_vds::{Redundancy, StorageCluster};
use std::hint::black_box;

fn heterogeneous(n: usize) -> BinSet {
    BinSet::from_capacities((0..n as u64).map(|i| 500_000 + i * 100_000)).expect("valid bins")
}

/// Rebuilding the strategy after membership changes (the control-plane
/// cost of adaptivity; the data-plane cost is the migration itself).
fn strategy_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_rebuild_k3");
    for n in [8usize, 64, 256] {
        let bins = heterogeneous(n);
        let grown = bins
            .with_bin(Bin::new(100_000u64, 2_000_000).unwrap())
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(RedundantShare::new(&grown, 3).unwrap()));
        });
    }
    group.finish();
}

/// End-to-end device addition on a loaded mirrored cluster.
fn cluster_scale_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_add_device");
    group.sample_size(10);
    for blocks in [2_000u64, 8_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                b.iter_batched(
                    || {
                        let mut cluster = StorageCluster::builder()
                            .block_size(16)
                            .redundancy(Redundancy::Mirror { copies: 2 })
                            .device(0, 200_000)
                            .device(1, 200_000)
                            .device(2, 200_000)
                            .device(3, 200_000)
                            .build()
                            .unwrap();
                        let payload = [7u8; 16];
                        for lba in 0..blocks {
                            cluster.write_block(lba, &payload).unwrap();
                        }
                        cluster
                    },
                    |mut cluster| {
                        black_box(cluster.add_device(9, 200_000).unwrap());
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// Lazy migration: the cost of the placement switch itself (instant) and
/// the amortised per-step migration, versus the eager all-at-once path.
fn lazy_vs_eager(c: &mut Criterion) {
    let mut group = c.benchmark_group("lazy_vs_eager_add_device");
    group.sample_size(10);
    let blocks = 4_000u64;
    let build = || {
        let mut cluster = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 200_000)
            .device(1, 200_000)
            .device(2, 200_000)
            .device(3, 200_000)
            .build()
            .unwrap();
        let payload = [7u8; 16];
        for lba in 0..blocks {
            cluster.write_block(lba, &payload).unwrap();
        }
        cluster
    };
    group.bench_function("eager", |b| {
        b.iter_batched(
            build,
            |mut cluster| {
                black_box(cluster.add_device(9, 200_000).unwrap());
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("lazy_switch_only", |b| {
        b.iter_batched(
            build,
            |mut cluster| {
                black_box(cluster.add_device_lazy(9, 200_000).unwrap());
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("lazy_batch_100_blocks", |b| {
        b.iter_batched(
            || {
                let mut cluster = build();
                cluster.add_device_lazy(9, 200_000).unwrap();
                cluster
            },
            |mut cluster| {
                black_box(cluster.migrate_batch(100).unwrap());
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = strategy_rebuild, cluster_scale_out, lazy_vs_eager
}
criterion_main!(benches);

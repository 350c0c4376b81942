//! Large-scale stress tests — run explicitly with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These push the strategies and the storage layer well past the paper's
//! experiment sizes (hundreds of bins, millions of placements) to catch
//! scaling cliffs and accumulation bugs the fast suite cannot see.

use redundant_share::placement::{BinSet, FastRedundantShare, PlacementStrategy, RedundantShare};
use redundant_share::storage::{Redundancy, StorageCluster};
use redundant_share::workload::measure_fairness;

fn big_bins(n: u64) -> BinSet {
    BinSet::from_capacities((0..n).map(|i| 1_000_000 + (i % 97) * 50_000)).unwrap()
}

#[test]
#[ignore = "stress: ~1M placements over 512 bins"]
fn fairness_at_512_bins() {
    let bins = big_bins(512);
    for k in [2usize, 4] {
        let strat = RedundantShare::new(&bins, k).unwrap();
        assert!(strat.calibration_residual() < 1e-6);
        let report = measure_fairness(&strat, 1_000_000);
        assert!(
            report.max_relative_deviation() < 0.08,
            "k={k}: deviation {}",
            report.max_relative_deviation()
        );
        assert!(report.gini() < 0.02, "k={k}: gini {}", report.gini());
    }
}

#[test]
#[ignore = "stress: O(k) variant at 1024 bins"]
fn fast_variant_at_1024_bins() {
    let bins = big_bins(1024);
    let strat = FastRedundantShare::new(&bins, 3).unwrap();
    // Construction is O(k·n²); queries must stay O(k).
    let mut out = Vec::new();
    for ball in 0..2_000_000u64 {
        strat.place_into(ball, &mut out);
        debug_assert_eq!(out.len(), 3);
    }
    // Per-bin expectation at 1M balls is ~2,900 copies; the max relative
    // deviation over 1,024 bins then concentrates below ~8 %.
    let report = measure_fairness(&strat, 1_000_000);
    assert!(
        report.max_relative_deviation() < 0.12,
        "deviation {}",
        report.max_relative_deviation()
    );
}

#[test]
#[ignore = "stress: repeated growth of a loaded cluster"]
fn cluster_grows_sixteen_times() {
    let mut cluster = StorageCluster::builder()
        .block_size(16)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 2_000_000)
        .device(1, 2_000_000)
        .device(2, 2_000_000)
        .build()
        .unwrap();
    let blocks = 100_000u64;
    let payload = [1u8; 16];
    for lba in 0..blocks {
        cluster.write_block(lba, &payload).unwrap();
    }
    for step in 0..16u64 {
        let report = cluster.add_device(100 + step, 2_000_000).unwrap();
        // Movement stays proportional to the newcomer's share.
        let n_after = 4.0 + step as f64;
        let xi = 1.0 / n_after;
        assert!(
            report.moved_fraction() < 4.0 * xi + 0.1,
            "step {step}: moved {}",
            report.moved_fraction()
        );
    }
    assert_eq!(cluster.scrub().unwrap(), 0);
    assert_eq!(cluster.block_count(), blocks);
}

#[test]
#[ignore = "stress: long lazy migration with interleaved writes"]
fn lazy_migration_under_write_pressure() {
    let mut cluster = StorageCluster::builder()
        .block_size(16)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 3_000_000)
        .device(1, 3_000_000)
        .device(2, 3_000_000)
        .device(3, 3_000_000)
        .build()
        .unwrap();
    let blocks = 200_000u64;
    for lba in 0..blocks {
        cluster.write_block(lba, &[lba as u8; 16]).unwrap();
    }
    cluster.add_device_lazy(9, 3_000_000).unwrap();
    let mut writes = 0u64;
    while cluster.pending_blocks() > 0 {
        cluster.migrate_batch(1_000).unwrap();
        // Interleave writes over the whole space.
        for i in 0..200u64 {
            let lba = (writes * 7_919 + i * 104_729) % blocks;
            cluster.write_block(lba, &[(lba ^ 1) as u8; 16]).unwrap();
        }
        writes += 1;
    }
    assert_eq!(cluster.scrub().unwrap(), 0);
    // Shard conservation: exactly 2 per block, nothing leaked anywhere.
    let total: u64 = cluster
        .device_ids()
        .iter()
        .map(|id| cluster.device(*id).unwrap().used_blocks())
        .sum();
    assert_eq!(total, blocks * 2);
}

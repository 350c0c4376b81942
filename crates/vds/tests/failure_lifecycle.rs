//! End-to-end failure lifecycle: `fail_device` → degraded reads →
//! `rebuild`, and shard loss → `repair`, with exact metric accounting.
//!
//! These tests pin the *semantics* of the observability series, not just
//! their existence: `degraded_reads_total` must advance by exactly the
//! number of reads whose preferred copy was lost, `repair_blocks_total`
//! by exactly the number of blocks repaired, and both must stay flat once
//! the cluster is healthy again. Data parity is asserted at every stage —
//! the metrics are only trustworthy if the answers they describe are.

use rshare_obs::Metric;
use rshare_vds::{Redundancy, StorageCluster};

const BLOCK_SIZE: usize = 64;

fn payload(lba: u64) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| (lba as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// Reads a counter's current value out of the cluster's registry.
fn counter(c: &StorageCluster, name: &str) -> u64 {
    match c
        .metrics_registry()
        .expect("metrics are on by default")
        .get(name)
    {
        Some(Metric::Counter(ctr)) => ctr.get(),
        other => panic!("expected counter '{name}', found {other:?}"),
    }
}

#[test]
fn mirror_failure_lifecycle_counts_degraded_reads_exactly() {
    const BLOCKS: u64 = 200;
    const FAILED: u64 = 2;

    let mut cluster = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 4_000)
        .device(1, 6_000)
        .device(FAILED, 5_000)
        .device(3, 5_000)
        .build()
        .unwrap();

    for lba in 0..BLOCKS {
        cluster.write_block(lba, &payload(lba)).unwrap();
    }
    assert_eq!(counter(&cluster, "writes_total"), BLOCKS);

    // Healthy reads: all data back, none degraded.
    for lba in 0..BLOCKS {
        assert_eq!(cluster.read_block(lba).unwrap(), payload(lba));
    }
    assert_eq!(counter(&cluster, "reads_total"), BLOCKS);
    assert_eq!(counter(&cluster, "degraded_reads_total"), 0);

    // A read is degraded exactly when the load-balanced *preferred* copy
    // sat on the failed device and the mirror path fell through to
    // another copy. The preferred choice is an internal hash, so pin the
    // exact per-read semantics instead: each read increments the counter
    // by at most one, and never for a block with no copy on the failed
    // device.
    cluster.fail_device(FAILED).unwrap();
    let mut observed_degraded = 0u64;
    for lba in 0..BLOCKS {
        let before = counter(&cluster, "degraded_reads_total");
        assert_eq!(cluster.read_block(lba).unwrap(), payload(lba));
        let delta = counter(&cluster, "degraded_reads_total") - before;
        assert!(delta <= 1, "one read advances the counter at most once");
        if !cluster.placement(lba).contains(&FAILED) {
            assert_eq!(delta, 0, "untouched block {lba} cannot read degraded");
        }
        observed_degraded += delta;
    }
    assert_eq!(counter(&cluster, "reads_total"), 2 * BLOCKS);
    assert!(
        observed_degraded > 0,
        "some preferred copies must have sat on device {FAILED}"
    );
    let expect_degraded = counter(&cluster, "degraded_reads_total");
    assert_eq!(expect_degraded, observed_degraded);

    // The health surface sees the failure and the redundancy debt.
    let ailing = cluster.health_snapshot();
    assert_eq!(ailing.devices_failed, 1);
    assert!(ailing.degraded_blocks > 0);

    // Rebuild re-protects every block; its reconstruction work lands in
    // the migration counters, one for one with the returned report.
    let moved_before = counter(&cluster, "migration_moves_executed_total");
    let recon_before = counter(&cluster, "shards_reconstructed_total");
    let report = cluster.rebuild().unwrap();
    assert!(report.shards_reconstructed > 0);
    assert_eq!(
        counter(&cluster, "migration_moves_executed_total") - moved_before,
        report.shards_moved
    );
    assert_eq!(
        counter(&cluster, "shards_reconstructed_total") - recon_before,
        report.shards_reconstructed
    );

    // Healthy again: parity holds and the degraded counter stays flat.
    for lba in 0..BLOCKS {
        assert_eq!(cluster.read_block(lba).unwrap(), payload(lba));
    }
    assert_eq!(counter(&cluster, "degraded_reads_total"), expect_degraded);
    let healthy = cluster.health_snapshot();
    assert_eq!(healthy.degraded_blocks, 0);
    assert_eq!(cluster.degraded_block_count(), 0);
}

#[test]
fn erasure_repair_counts_repaired_blocks_exactly() {
    const BLOCKS: u64 = 60;

    let mut cluster = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::ReedSolomon { data: 2, parity: 1 })
        .device(0, 4_000)
        .device(1, 4_000)
        .device(2, 6_000)
        .device(3, 5_000)
        .device(4, 5_000)
        .build()
        .unwrap();

    for lba in 0..BLOCKS {
        cluster.write_block(lba, &payload(lba)).unwrap();
    }

    // Knock out one data shard on a handful of blocks.
    let victims: &[u64] = &[3, 17, 29, 41, 58];
    for &lba in victims {
        assert!(cluster.inject_shard_loss(lba, 1));
    }
    assert_eq!(cluster.degraded_block_count(), victims.len() as u64);

    // Reading a damaged block reconstructs — and says so, once per read.
    // Each surviving shard is read exactly once, from its own device:
    // shard 0 by the fast path, which the reconstruction reuses, then
    // parity shard 2. The device that lost shard 1 serves nothing.
    let reads = |c: &StorageCluster| -> Vec<u64> {
        c.device_ids()
            .iter()
            .map(|&id| c.device(id).unwrap().stats().reads)
            .collect()
    };
    let before = reads(&cluster);
    assert_eq!(cluster.read_block(victims[0]).unwrap(), payload(victims[0]));
    let placement = cluster.placement(victims[0]);
    for (i, &id) in cluster.device_ids().iter().enumerate() {
        let want = u64::from(id == placement[0] || id == placement[2]);
        assert_eq!(reads(&cluster)[i] - before[i], want, "device {id}");
    }
    assert_eq!(counter(&cluster, "degraded_reads_total"), 1);

    // Repair re-stores the missing shards: the block counter advances by
    // exactly the number of damaged blocks, and each repaired block
    // reconstructed at least its one lost shard.
    let recon_before = counter(&cluster, "shards_reconstructed_total");
    let repaired = cluster.repair().unwrap();
    assert_eq!(repaired, victims.len() as u64);
    assert_eq!(counter(&cluster, "repair_blocks_total"), repaired);
    assert!(counter(&cluster, "shards_reconstructed_total") - recon_before >= victims.len() as u64);

    // Fully healthy: parity everywhere, no more degraded reads.
    assert_eq!(cluster.degraded_block_count(), 0);
    for lba in 0..BLOCKS {
        assert_eq!(cluster.read_block(lba).unwrap(), payload(lba));
    }
    assert_eq!(counter(&cluster, "degraded_reads_total"), 1);
    assert_eq!(cluster.health_snapshot().degraded_blocks, 0);
}

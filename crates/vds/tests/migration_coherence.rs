//! Property-based tests for the batched migration path.
//!
//! Mirrors `cache_coherence.rs`, but for the rebalance engine: after any
//! sequence of membership churn (eager adds/removals, failures with
//! rebuild, lazy adds drained by `migrate_batch`) followed by a final
//! `rebalance`, every block's served bytes are identical to what was
//! written, and every placement matches a freshly built cluster over the
//! same device set. A second property pins the paper's Lemma 3.2 bound:
//! the planned migration for a single-device add or remove moves at most
//! 4× the fair minimum. A third pins the bulk placement scans against the
//! per-block resolver: under random writes, shard losses and a partially
//! drained lazy add, every planned move starts where `placement` says the
//! shard lives, and `scrub`, `degraded_block_count` and `repair` agree on
//! how many blocks are damaged. A fourth pins `degraded_block_count`
//! against `scrub`'s full scan after every step of a random run of
//! writes, shard losses, device failures, failed writes, eager and lazy
//! membership changes, rebuilds and repairs.

use std::collections::HashMap;

use proptest::prelude::*;
use rshare_vds::{DeviceState, MigrationPlan, Redundancy, StorageCluster, VdsError};

const BLOCKS: u64 = 96;
const BLOCK_SIZE: usize = 64;

fn payload(lba: u64, salt: u8) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| (lba as u8).wrapping_add(i as u8).wrapping_add(salt))
        .collect()
}

fn base_cluster() -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 8_000)
        .device(1, 10_000)
        .device(2, 12_000)
        .device(3, 9_000)
        .build()
        .unwrap()
}

/// Applies one membership / I/O operation, updating the shadow `model` of
/// expected block contents.
fn apply_op(
    c: &mut StorageCluster,
    model: &mut HashMap<u64, Vec<u8>>,
    op: u8,
    next_id: &mut u64,
    seed: u64,
) -> Result<(), VdsError> {
    match op % 6 {
        0 => {
            c.add_device(*next_id, 7_000 + seed % 5_000)?;
            *next_id += 1;
        }
        1 => {
            let ids = c.device_ids();
            if ids.len() > 3 {
                c.remove_device(*ids.last().expect("non-empty"))?;
            }
        }
        2 => {
            let ids = c.device_ids();
            if ids.len() > 3 {
                c.fail_device(ids[0])?;
                c.rebuild()?;
            }
        }
        3 => {
            // Lazy add drained part-way by the batched executor, so later
            // operations see a cluster mid-migration.
            c.add_device_lazy(*next_id, 9_000)?;
            *next_id += 1;
            c.migrate_batch(BLOCKS / 3)?;
        }
        4 => {
            // Lazy add drained by two successive budgeted batches: they
            // must compose on the same pending set.
            c.add_device_lazy(*next_id, 8_000)?;
            *next_id += 1;
            c.migrate_batch(BLOCKS / 5)?;
            c.migrate_batch(BLOCKS / 5)?;
        }
        _ => {
            // I/O churn: overwrite a few blocks (tracked in the model).
            for i in 0..3u64 {
                let lba = (seed.wrapping_add(i * 31)) % BLOCKS;
                let data = payload(lba, 0xA5u8.wrapping_add(i as u8));
                c.write_block(lba, &data)?;
                model.insert(lba, data);
            }
        }
    }
    Ok(())
}

/// A three-way mirror, so losing copies 0 and 1 of a block still leaves
/// copy 2 to repair from.
fn mirror3_cluster() -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 3 })
        .device(0, 8_000)
        .device(1, 10_000)
        .device(2, 12_000)
        .device(3, 9_000)
        .device(4, 11_000)
        .build()
        .unwrap()
}

/// Every move of `plan` starts on the device the per-block resolver names
/// for that shard.
fn assert_moves_start_at_placement(
    c: &StorageCluster,
    plan: &MigrationPlan,
) -> Result<(), TestCaseError> {
    for m in &plan.moves {
        prop_assert_eq!(
            c.placement(m.lba)[m.copy],
            m.from,
            "move of lba {} copy {} planned from the wrong device",
            m.lba,
            m.copy
        );
    }
    Ok(())
}

/// Ids of the online devices, ascending.
fn online(c: &StorageCluster) -> Vec<u64> {
    c.device_ids()
        .into_iter()
        .filter(|&id| c.device(id).unwrap().state() == DeviceState::Online)
        .collect()
}

/// Applies one step of the damage run to a three-way mirror. Every step
/// stays within the redundancy's tolerance: losses hit copy 0 only and at
/// most one device is failed at a time, so each block keeps a copy. Steps
/// may still return an error (a write or a drain onto the failed device,
/// a repair that cannot store onto it); the run goes on regardless.
fn damage_step(c: &mut StorageCluster, op: u8, seed: u64, next_id: &mut u64) {
    let failed = c.device_ids().len() > online(c).len();
    // A few addresses past the written range: a failed write leaves
    // shards behind for a block that was never acknowledged.
    let lba = seed % (BLOCKS + 8);
    match op {
        0 => {
            let lbas = [lba, (lba + 17) % (BLOCKS + 8)];
            let data = [payload(lbas[0], seed as u8), payload(lbas[1], seed as u8)].concat();
            // Errors when a target device is failed.
            let _ = c.write_blocks(&lbas, &data);
        }
        1 => {
            c.inject_shard_loss(lba, 0);
        }
        2 => {
            if !failed && online(c).len() > 3 {
                let ids = online(c);
                c.fail_device(ids[(seed % ids.len() as u64) as usize])
                    .unwrap();
            }
        }
        3 => {
            c.rebuild().unwrap();
        }
        4 => {
            c.add_device(*next_id, 7_000 + seed % 5_000).unwrap();
            *next_id += 1;
        }
        5 => {
            let ids = online(c);
            if ids.len() > 3 {
                c.remove_device(ids[(seed % ids.len() as u64) as usize])
                    .unwrap();
            }
        }
        6 => {
            // Drains any migration still in flight first, which errors
            // when its targets include the failed device.
            if c.add_device_lazy(*next_id, 9_000).is_ok() {
                *next_id += 1;
            }
            let _ = c.migrate_batch(seed % BLOCKS);
        }
        _ => {
            // Cannot store onto a failed device.
            let _ = c.repair();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The bulk scans behind planning, `degraded_block_count` and `repair`
    /// resolve old and pending placements exactly as `placement` does,
    /// under random writes, shard losses and a partially drained lazy add.
    #[test]
    fn bulk_scans_match_per_block_resolver(
        ops in prop::collection::vec((0u8..3, any::<u64>()), 1..10),
        drain in 0u64..BLOCKS,
    ) {
        let mut c = mirror3_cluster();
        for lba in 0..BLOCKS {
            c.write_block(lba, &payload(lba, 0)).unwrap();
        }
        let mut next_id = 10u64;
        for &(op, seed) in &ops {
            let lba = seed % BLOCKS;
            match op {
                0 => c.write_block(lba, &payload(lba, seed as u8)).unwrap(),
                // Copies 0 and 1 only: copy 2 always survives to repair from.
                1 => {
                    c.inject_shard_loss(lba, (seed >> 32) as usize % 2);
                }
                _ => {
                    c.add_device_lazy(next_id, 7_000 + seed % 5_000).unwrap();
                    next_id += 1;
                }
            }
        }
        // Leave a lazy migration partially drained behind.
        if c.pending_blocks() == 0 {
            c.add_device_lazy(next_id, 9_000).unwrap();
            next_id += 1;
        }
        c.migrate_batch(drain).unwrap();
        prop_assume!(c.pending_blocks() > 0);

        let add = c.plan_add_device(next_id, 10_000).unwrap();
        prop_assert!(!add.moves.is_empty());
        assert_moves_start_at_placement(&c, &add)?;

        let degraded = c.degraded_block_count();
        prop_assert_eq!(c.scrub().unwrap(), degraded);
        let registry = c.metrics_registry().unwrap();
        let repairs = registry.counter("repair_blocks_total", "");
        let before = repairs.get();
        c.repair().unwrap();
        prop_assert_eq!(repairs.get() - before, degraded);
        prop_assert_eq!(c.degraded_block_count(), 0);

        let victim = c.device_ids()[(drain % 5) as usize];
        c.fail_device(victim).unwrap();
        let rebuild = c.plan_rebuild().unwrap();
        prop_assert!(rebuild.moves.iter().any(|m| m.from == victim));
        assert_moves_start_at_placement(&c, &rebuild)?;
    }

    /// After random membership churn and a final `rebalance`, served data
    /// is byte-identical to what was written and every placement matches
    /// a freshly built (strategy-only) cluster over the same devices.
    #[test]
    fn rebalance_preserves_data_and_matches_fresh_strategy(
        ops in prop::collection::vec(0u8..6, 1..8),
        seed in any::<u64>(),
    ) {
        let mut c = base_cluster();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for lba in 0..BLOCKS {
            let data = payload(lba, 0);
            c.write_block(lba, &data).unwrap();
            model.insert(lba, data);
        }
        let mut next_id = 10u64;
        for &op in &ops {
            apply_op(&mut c, &mut model, op, &mut next_id, seed).unwrap();
        }
        // Drain whatever lazy migration is still in flight.
        c.rebalance().unwrap();
        prop_assert_eq!(c.pending_blocks(), 0);
        // Byte-identical service for every block.
        let lbas: Vec<u64> = (0..BLOCKS).collect();
        for (got, &lba) in c.read_blocks(&lbas).unwrap().iter().zip(&lbas) {
            prop_assert_eq!(got, &model[&lba], "data diverged at lba {}", lba);
        }
        // Placements equal a fresh cluster's over the same device set.
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .placement_cache(false);
        for id in c.device_ids() {
            builder = builder.device(id, c.device(id).unwrap().capacity_blocks());
        }
        let fresh = builder.build().unwrap();
        for lba in 0..BLOCKS {
            prop_assert_eq!(
                c.placement(lba),
                fresh.placement(lba),
                "placement diverged from fresh strategy at lba {}",
                lba
            );
        }
        // Full redundancy everywhere: nothing latent left behind.
        prop_assert_eq!(c.scrub().unwrap(), 0);
    }

    /// Lemma 3.2: a single-device add or remove plans at most 4× the fair
    /// minimum movement (the paper measures ≈1.5 for adds, ≈2.5 for
    /// removals; 4 is the proven bound).
    #[test]
    fn single_device_churn_is_four_competitive(
        caps in prop::collection::vec(6_000u64..14_000, 4..8),
        new_cap in 6_000u64..14_000,
        seed in any::<u64>(),
    ) {
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for (id, &cap) in caps.iter().enumerate() {
            builder = builder.device(id as u64, cap);
        }
        let mut c = builder.build().unwrap();
        for lba in 0..1_500u64 {
            c.write_block(lba, &payload(lba, seed as u8)).unwrap();
        }
        let add = c.plan_add_device(99, new_cap).unwrap();
        prop_assert!(add.fair_min_shards > 0.0);
        let add_ratio = add.competitive_ratio();
        prop_assert!(
            add_ratio <= 4.0,
            "add ratio {} exceeds the Lemma 3.2 bound", add_ratio
        );
        // Moves are necessary at all: something flows onto the new device.
        prop_assert!(add.moves.iter().any(|m| m.to == 99));
        let victim = seed % caps.len() as u64;
        let remove = c.plan_remove_device(victim).unwrap();
        prop_assert!(remove.fair_min_shards > 0.0);
        let remove_ratio = remove.competitive_ratio();
        prop_assert!(
            (1.0..=4.0).contains(&remove_ratio),
            "remove ratio {} outside [1, 4]", remove_ratio
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `degraded_block_count` equals the count of `scrub`'s full scan
    /// after every step of a random damage run.
    #[test]
    fn degraded_count_matches_scrub_after_every_step(
        steps in prop::collection::vec((0u8..8, any::<u64>()), 1..24),
    ) {
        let mut c = mirror3_cluster();
        for lba in 0..BLOCKS {
            c.write_block(lba, &payload(lba, 0)).unwrap();
        }
        let mut next_id = 10u64;
        for (i, &(op, seed)) in steps.iter().enumerate() {
            damage_step(&mut c, op, seed, &mut next_id);
            let degraded = c.degraded_block_count();
            prop_assert_eq!(c.scrub(), Ok(degraded), "step {} (op {})", i, op);
        }
    }
}

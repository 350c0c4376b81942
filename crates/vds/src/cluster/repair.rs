//! Damage detection and repair: the damage ledger, the one missing-shard
//! check every scan shares, scrub, in-place repair, and the one
//! reconstruct path that degraded reads, repair and migration decode
//! through.

use std::collections::BTreeSet;

use super::placement::flat_placement;
use super::{StorageCluster, MIGRATION_CHUNK_BLOCKS};
use crate::error::VdsError;
use crate::redundancy::Redundancy;

impl StorageCluster {
    /// Whether device `dev` exists, is online and holds shard `copy` of
    /// block `lba`.
    pub(super) fn holds(&self, dev: u64, lba: u64, copy: usize) -> bool {
        self.devices.get(&dev).is_some_and(|d| d.has(&(lba, copy)))
    }

    /// Whether block `lba`, placed on `ids` in copy order, is missing a
    /// shard: a device is gone or failed, or lacks its copy.
    pub(super) fn missing_shard(&self, lba: u64, ids: &[u64]) -> bool {
        ids.iter()
            .enumerate()
            .any(|(copy, &id)| !self.holds(id, lba, copy))
    }

    /// Reads shard `copy` of `lba` from device `dev` into an owned,
    /// shard-sized buffer; `None` when the device is gone or failed or
    /// lacks the shard.
    pub(super) fn load_shard(&self, dev: u64, lba: u64, copy: usize) -> Option<Vec<u8>> {
        let device = self.devices.get(&dev)?;
        let mut shard = vec![0u8; self.shard_len()];
        device.load_into(&(lba, copy), &mut shard).then_some(shard)
    }

    /// Whether block `lba` may be missing a shard: the ledger lists it or
    /// is unknown.
    pub(super) fn may_be_damaged(&self, lba: u64) -> bool {
        self.damage.as_ref().is_none_or(|d| d.contains(&lba))
    }

    /// The blocks of `candidates` missing at least one shard from their
    /// effective placement, ascending: the damage check behind `scrub`
    /// and `degraded_block_count`. Placements come from
    /// [`flat_placement`], not the per-block cache, so scrape-time
    /// accounting does not distort the cache hit/miss series.
    fn degraded_lbas(&self, candidates: &BTreeSet<u64>) -> Vec<u64> {
        let mut ids = Vec::new();
        candidates
            .iter()
            .copied()
            .filter(|lba| {
                let one = std::slice::from_ref(lba);
                flat_placement(self.strategy(), self.pending.as_ref(), one, &mut ids);
                self.missing_shard(*lba, &ids)
            })
            .collect()
    }

    /// Number of blocks currently missing at least one shard from its
    /// computed location.
    ///
    /// While the damage ledger is known this checks only the blocks it
    /// lists — O(suspects), none on a healthy cluster. After a device
    /// failure or a failed write, migration, membership change or repair
    /// the ledger is unknown and every block is checked, O(blocks), until
    /// the next successful [`StorageCluster::repair`], membership change,
    /// [`StorageCluster::rebuild`] or [`StorageCluster::scrub`].
    #[must_use]
    pub fn degraded_block_count(&self) -> u64 {
        let suspects = self.damage.as_ref().unwrap_or(&self.blocks);
        self.degraded_lbas(suspects).len() as u64
    }

    /// Verifies that every block is readable; returns the number of blocks
    /// currently degraded (readable only through reconstruction).
    ///
    /// Always a full scan, O(blocks) whether or not the damage ledger is
    /// known, plus one read per degraded block: this is the ground truth
    /// the ledger is audited against (a debug assertion) and then set to.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] on the first unrecoverable block.
    pub fn scrub(&mut self) -> Result<u64, VdsError> {
        let degraded = self.degraded_lbas(&self.blocks);
        if let Some(ledger) = &self.damage {
            debug_assert!(
                degraded.iter().all(|lba| ledger.contains(lba)),
                "the damage ledger missed a degraded block"
            );
        }
        self.damage = Some(degraded.iter().copied().collect());
        for &lba in &degraded {
            // Force the read path to prove recoverability.
            self.read_block(lba)?;
        }
        Ok(degraded.len() as u64)
    }

    /// Repairs degraded blocks in place: any shard missing from its
    /// computed location (e.g. lost to a transient device error) is
    /// reconstructed from the group's redundancy and re-stored, without
    /// changing any placement. Returns the number of shards repaired.
    ///
    /// Contrast with [`StorageCluster::rebuild`], which removes failed
    /// devices and relocates data; `repair` restores redundancy when the
    /// device set is unchanged.
    ///
    /// Reconstruction is fused per chunk: degraded stripes are gathered,
    /// decoded and re-stored through the batched block-op executor, and
    /// the decode itself streams through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]) via `mul_acc_many` in
    /// cache-sized tiles.
    ///
    /// Cost: while the damage ledger is known, only the blocks it lists
    /// are checked — their placements resolved and shards probed — and
    /// every other block costs one set lookup; while it is unknown (after
    /// a device failure or a failed mutation) every block is checked. A
    /// repair that returns `Ok` leaves the ledger known and empty.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if a block lost more shards than the
    /// redundancy tolerates; device I/O errors on the re-stores.
    pub fn repair(&mut self) -> Result<u64, VdsError> {
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let k = self.redundancy.total_shards();
        let mut repaired = 0u64;
        let mut flat: Vec<u64> = Vec::new();
        let mut suspects: Vec<u64> = Vec::new();
        let result = lbas.chunks(MIGRATION_CHUNK_BLOCKS).try_for_each(|chunk| {
            // Only the ledger's blocks are checked, but chunks are cut over
            // all blocks: an error then stops the repair at the same chunk,
            // with the same blocks repaired, as a check of every block.
            suspects.clear();
            suspects.extend(
                chunk
                    .iter()
                    .copied()
                    .filter(|&lba| self.may_be_damaged(lba)),
            );
            let chunk = suspects.as_slice();
            // Placements are unchanged during a repair, so the flat run is
            // built from per-block effective placements — served by the
            // epoch cache — rather than `flat_placement`'s bulk strategy
            // run, which suits migrations that just bumped the epoch and
            // would miss the cache on every block anyway.
            flat.clear();
            for &lba in chunk {
                flat.extend_from_slice(&self.effective_placement(lba));
            }
            let work: Vec<usize> = (0..chunk.len())
                .filter(|&j| self.missing_shard(chunk[j], &flat[j * k..(j + 1) * k]))
                .collect();
            if work.is_empty() {
                return Ok(());
            }
            // Pipelined through the migration executor with old == new:
            // each degraded stripe is gathered and decoded exactly once
            // and the stores land only in the missing slots.
            // A repair re-stores exactly the shards it reconstructed.
            repaired += self
                .execute_block_ops(chunk, &work, &flat, &flat)?
                .shards_reconstructed;
            if let Some(m) = &self.metrics {
                m.repair_blocks_total.add(work.len() as u64);
            }
            Ok(())
        });
        // Every suspect was checked and, if damaged, repaired.
        self.damage = result.is_ok().then(BTreeSet::new);
        result.map(|()| repaired)
    }

    /// Fills the `None` entries of a shard vector using the redundancy —
    /// the one reconstruct path of degraded reads, repair and migration.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if more shards are missing than the scheme
    /// tolerates.
    pub(super) fn reconstruct_group(
        &self,
        shards: &mut [Option<Vec<u8>>],
        lba: u64,
    ) -> Result<(), VdsError> {
        if let Redundancy::Mirror { .. } = self.redundancy {
            // One clone per *missing* slot only (each re-stored copy must
            // own its bytes); the surviving source itself is borrowed,
            // never cloned.
            let src = shards
                .iter()
                .position(Option::is_some)
                .ok_or(VdsError::DataLoss { lba })?;
            for i in 0..shards.len() {
                if shards[i].is_none() {
                    shards[i] = shards[src].clone();
                }
            }
            return Ok(());
        }
        self.codec()?.reconstruct(shards).map_err(|e| match e {
            rshare_erasure::ErasureError::TooManyErasures { .. } => VdsError::DataLoss { lba },
            other => VdsError::Erasure(other),
        })
    }

    /// Deletes one shard from its device — fault injection for tests and
    /// chaos experiments (a latent sector error, in disk terms). Returns
    /// `true` if the shard existed. The block becomes degraded until
    /// [`StorageCluster::repair`] or [`StorageCluster::rebuild`] runs.
    pub fn inject_shard_loss(&mut self, lba: u64, copy: usize) -> bool {
        if copy >= self.redundancy.total_shards() {
            return false;
        }
        let placement = self.effective_placement(lba);
        let removed = self
            .devices
            .get_mut(&placement[copy])
            .and_then(|d| d.remove(&(lba, copy)))
            .is_some();
        // A shard of an unacknowledged write is not a block's.
        if removed && self.blocks.contains(&lba) {
            if let Some(d) = &mut self.damage {
                d.insert(lba);
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::tests::{block, mirror_cluster};
    use crate::cluster::StorageCluster;
    use crate::error::VdsError;

    /// The mirror test cluster with blocks `0..n` written.
    fn written(n: u64) -> StorageCluster {
        let mut c = mirror_cluster();
        for lba in 0..n {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c
    }

    /// The lowest block whose placement adding device `id` leaves as is.
    fn unmoved_by_add(c: &StorageCluster, id: u64) -> u64 {
        let plan = c.plan_add_device(id, 10_000).unwrap();
        (0..c.block_count())
            .find(|&lba| plan.moves.iter().all(|m| m.lba != lba))
            .expect("some block keeps its placement")
    }

    /// Blocks with a copy on device `id`.
    fn placed_on(c: &StorageCluster, id: u64) -> u64 {
        (0..c.block_count())
            .filter(|&lba| c.placement(lba).contains(&id))
            .count() as u64
    }

    #[test]
    fn ledger_counts_an_injected_loss() {
        let mut c = written(400);
        assert_eq!(c.degraded_block_count(), 0);
        assert!(c.inject_shard_loss(123, 1));
        assert_eq!(c.degraded_block_count(), 1);
        // A second loss in the same block is still one degraded block.
        assert!(c.inject_shard_loss(123, 0));
        assert_eq!(c.degraded_block_count(), 1);
    }

    #[test]
    fn ledger_counts_every_block_of_a_failed_device() {
        let mut c = written(400);
        let expected = placed_on(&c, 2);
        assert!(expected > 0);
        c.fail_device(2).unwrap();
        assert_eq!(c.degraded_block_count(), expected);
        assert_eq!(c.scrub().unwrap(), expected);
    }

    #[test]
    fn ledger_counts_exactly_after_a_failed_write() {
        let mut c = written(400);
        c.fail_device(3).unwrap();
        let expected = placed_on(&c, 3);
        // Audited and exact again before the write.
        assert_eq!(c.scrub().unwrap(), expected);
        let lba = (0..400u64)
            .find(|&lba| c.placement(lba)[1] == 3)
            .expect("some block keeps copy 1 on device 3");
        assert_eq!(
            c.write_block(lba, &block(9, 64)),
            Err(VdsError::DeviceFailed { id: 3 })
        );
        assert_eq!(c.degraded_block_count(), expected);
        assert_eq!(c.scrub().unwrap(), expected);
    }

    #[test]
    fn ledger_keeps_a_damaged_block_a_drain_leaves_in_place() {
        let mut c = written(1_000);
        let lba = unmoved_by_add(&c, 9);
        assert!(c.inject_shard_loss(lba, 0));
        c.add_device_lazy(9, 10_000).unwrap();
        let report = c.migrate_batch(u64::MAX).unwrap();
        assert!(report.shards_moved > 0);
        assert_eq!(c.pending_blocks(), 0);
        // The drain does not touch an unmoved block, so it stays damaged.
        assert_eq!(c.degraded_block_count(), 1);
        assert_eq!(c.scrub().unwrap(), 1);
    }

    #[test]
    fn eager_add_repairs_a_listed_loss_in_place() {
        let mut c = written(1_000);
        let lba = unmoved_by_add(&c, 9);
        let home = c.placement(lba)[0];
        assert!(c.inject_shard_loss(lba, 0));
        let report = c.add_device(9, 10_000).unwrap();
        assert_eq!(report.shards_reconstructed, 1);
        assert_eq!(c.degraded_block_count(), 0);
        assert_eq!(c.placement(lba)[0], home);
        assert!(c.device(home).unwrap().has(&(lba, 0)), "shard re-stored");
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn repair_empties_the_ledger() {
        let mut c = written(400);
        for lba in (0..400u64).step_by(50) {
            assert!(c.inject_shard_loss(lba, 1));
        }
        assert_eq!(c.degraded_block_count(), 8);
        assert_eq!(c.repair().unwrap(), 8);
        assert_eq!(c.degraded_block_count(), 0);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn repair_restores_injected_losses() {
        let mut c = mirror_cluster();
        for lba in 0..400u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Latent errors on every 7th block's primary copy.
        let mut injected = 0u64;
        for lba in (0..400u64).step_by(7) {
            assert!(c.inject_shard_loss(lba, 0));
            injected += 1;
        }
        assert!(!c.inject_shard_loss(0, 99), "bad copy index rejected");
        assert_eq!(c.scrub().unwrap(), injected, "scrub counts degraded blocks");
        let repaired = c.repair().unwrap();
        assert_eq!(repaired, injected);
        assert_eq!(c.scrub().unwrap(), 0, "fully repaired");
        assert_eq!(c.repair().unwrap(), 0, "repair is idempotent");
        for lba in 0..400u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn repair_fails_on_unrecoverable_block() {
        let mut c = mirror_cluster();
        c.write_block(0, &block(1, 64)).unwrap();
        assert!(c.inject_shard_loss(0, 0));
        assert!(c.inject_shard_loss(0, 1));
        assert!(matches!(c.repair(), Err(VdsError::DataLoss { lba: 0 })));
    }
}

//! Damage detection and repair: the one missing-shard check every scan
//! shares, scrub, in-place repair, and the one reconstruct path that
//! degraded reads, repair and migration decode through.

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

    /// Every block missing at least one shard from its effective
    /// placement, ascending: the damage scan behind `scrub` and
    /// `degraded_block_count`. Placements come from [`flat_placement`],
    /// not the per-block cache, so scrape-time accounting does not distort
    /// the cache hit/miss series.
    fn degraded_lbas(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        self.blocks
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
    #[must_use]
    pub fn degraded_block_count(&self) -> u64 {
        self.degraded_lbas().len() as u64
    }

    /// Verifies that every block is readable; returns the number of blocks
    /// currently degraded (readable only through reconstruction).
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] on the first unrecoverable block.
    pub fn scrub(&mut self) -> Result<u64, VdsError> {
        let degraded = self.degraded_lbas();
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
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if a block lost more shards than the
    /// redundancy tolerates; device I/O errors on the re-stores.
    pub fn repair(&mut self) -> Result<u64, VdsError> {
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let k = self.redundancy.total_shards();
        let mut repaired = 0u64;
        let mut flat: Vec<u64> = Vec::new();
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
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
                continue;
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
        }
        Ok(repaired)
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
        self.devices
            .get_mut(&placement[copy])
            .and_then(|d| d.remove(&(lba, copy)))
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::tests::{block, mirror_cluster};
    use crate::error::VdsError;

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

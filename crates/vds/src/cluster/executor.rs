//! The migration executor: every data move — lazy drains, eager
//! membership changes and in-place repair — runs through one two-pass,
//! all-or-nothing block-op executor.

use std::collections::BTreeMap;

use super::placement::{flat_placement, ClusterStrategy};
use super::{StorageCluster, MIGRATION_CHUNK_BLOCKS};
use crate::device::DeviceState;
use crate::error::VdsError;
use crate::migration::{BlockOps, MigrationReport, ShardMove};

impl StorageCluster {
    /// Migrates up to `max_blocks` pending blocks (in ascending address
    /// order) to their target placement, returning what moved. Old and new
    /// placements are resolved in bulk, unchanged blocks are skipped
    /// without any device I/O, and each moving shard of a complete group
    /// is taken from its source and handed to its target without a copy.
    /// The bounded budget keeps lazy migration incremental; with no
    /// migration in flight this is a no-op reporting zeros.
    ///
    /// # Errors
    ///
    /// Device I/O errors and [`VdsError::DataLoss`] if a pending block
    /// became unrecoverable — e.g. [`VdsError::DeviceFailed`] when a
    /// target device failed mid-migration. A failed chunk moves nothing:
    /// its blocks stay pending with every shard where it was, so reads
    /// keep working; run [`StorageCluster::rebuild`], which absorbs the
    /// remaining migration.
    pub fn migrate_batch(&mut self, max_blocks: u64) -> Result<MigrationReport, VdsError> {
        let mut report = MigrationReport::default();
        let Some(mut pending) = self.pending.take() else {
            return Ok(report);
        };
        let take = max_blocks.min(pending.remaining.len() as u64) as usize;
        let lbas: Vec<u64> = pending.remaining.iter().copied().take(take).collect();
        let mut old_flat: Vec<u64> = Vec::new();
        let result = lbas.chunks(MIGRATION_CHUNK_BLOCKS).try_for_each(|chunk| {
            flat_placement(&pending.old_strategy, None, chunk, &mut old_flat);
            report.merge(self.rebalance_chunk(chunk, &old_flat, false)?);
            // The chunk is an ascending prefix of the pending set, so one
            // O(log n) split drops it instead of a per-block remove.
            let bound = chunk.last().expect("chunks are non-empty") + 1;
            pending.remaining = pending.remaining.split_off(&bound);
            Ok(())
        });
        if !pending.remaining.is_empty() {
            self.pending = Some(pending);
        }
        result.map(|()| report)
    }

    /// Drains the entire in-flight lazy migration
    /// ([`StorageCluster::migrate_batch`] without a budget). With no
    /// migration in flight this is a no-op.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::migrate_batch`].
    pub fn rebalance(&mut self) -> Result<MigrationReport, VdsError> {
        self.migrate_batch(u64::MAX)
    }

    /// Completes any in-flight lazy migration synchronously.
    pub(super) fn drain_pending(&mut self) -> Result<(), VdsError> {
        while self.pending.is_some() {
            self.migrate_batch(u64::MAX)?;
        }
        Ok(())
    }

    /// Swaps in a new placement strategy and migrates every shard whose
    /// computed location changed, a chunk at a time through the serial
    /// two-pass executor. Shards whose old location is gone are
    /// reconstructed from the group's redundancy (each degraded stripe is
    /// decoded exactly once, however many of its shards need rebuilding).
    pub(super) fn replace_strategy(
        &mut self,
        new_strategy: ClusterStrategy,
    ) -> Result<MigrationReport, VdsError> {
        let old_strategy = self
            .strategy
            .replace(new_strategy)
            .expect("strategy always present");
        // One epoch bump per plan invalidates every cached placement of
        // the old strategy; nothing per block touches the cache.
        self.bump_epoch();
        // Any in-flight lazy migration is absorbed: blocks it had not yet
        // moved are gathered from their true (pre-lazy-change) locations.
        let absorbed = self.pending.take();
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let mut report = MigrationReport::default();
        let mut old_flat: Vec<u64> = Vec::new();
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            flat_placement(&old_strategy, absorbed.as_ref(), chunk, &mut old_flat);
            report.merge(self.rebalance_chunk(chunk, &old_flat, true)?);
        }
        Ok(report)
    }

    /// Migrates one chunk of blocks from their `old_flat` placements (flat
    /// stride-k device ids, parallel to `lbas`) to the current target
    /// strategy. Blocks whose placement is unchanged are skipped without
    /// touching any device — unless `repair_unchanged` is set, in which
    /// case blocks missing a shard at an unchanged location are re-stored
    /// (the membership-change path repairs latent losses in passing).
    fn rebalance_chunk(
        &mut self,
        lbas: &[u64],
        old_flat: &[u64],
        repair_unchanged: bool,
    ) -> Result<MigrationReport, VdsError> {
        let k = self.redundancy.total_shards();
        let mut report = MigrationReport {
            blocks: lbas.len() as u64,
            shards_total: (lbas.len() * k) as u64,
            ..MigrationReport::default()
        };
        let mut new_flat: Vec<u64> = Vec::new();
        flat_placement(self.strategy(), None, lbas, &mut new_flat);
        let work: Vec<usize> = (0..lbas.len())
            .filter(|&j| {
                let new = &new_flat[j * k..(j + 1) * k];
                old_flat[j * k..(j + 1) * k] != *new
                    || (repair_unchanged && self.missing_shard(lbas[j], new))
            })
            .collect();
        if work.is_empty() {
            return Ok(report);
        }
        report.merge(self.execute_block_ops(lbas, &work, old_flat, &new_flat)?);
        Ok(report)
    }

    /// The single-threaded, two-pass migration executor over the blocks
    /// in `work` (indices into `lbas`): [`StorageCluster::plan_block_ops`]
    /// reads and validates the whole chunk, then
    /// [`StorageCluster::apply_block_ops`] mutates the devices. A chunk
    /// either moves completely or, on error, leaves every shard where it
    /// was. Returns the shards moved and reconstructed.
    pub(super) fn execute_block_ops(
        &mut self,
        lbas: &[u64],
        work: &[usize],
        old_flat: &[u64],
        new_flat: &[u64],
    ) -> Result<MigrationReport, VdsError> {
        let ops = self.plan_block_ops(lbas, work, old_flat, new_flat)?;
        // Every shard whose device changed is either a move of a complete
        // group or a remove of an incomplete one.
        let outcome = MigrationReport {
            shards_moved: (ops.moves.len() + ops.removes.len()) as u64,
            shards_reconstructed: ops.reconstructed,
            ..MigrationReport::default()
        };
        self.apply_block_ops(ops)?;
        if let Some(m) = &self.metrics {
            m.migration_moves_executed_total.add(outcome.shards_moved);
            m.shards_reconstructed_total
                .add(outcome.shards_reconstructed);
        }
        Ok(outcome)
    }

    /// First, read-only pass: expands every block in `work` into device
    /// operations against `new_flat`. A group complete at its `old_flat`
    /// locations becomes a list of shard moves — nothing is read yet, and
    /// shards that stay put are never touched. A group missing a shard is
    /// gathered and reconstructed (once per stripe) into owned stores.
    /// Finally every store target must exist, be online and have room
    /// once the chunk's removes are done; any error here precedes every
    /// device mutation.
    fn plan_block_ops(
        &self,
        lbas: &[u64],
        work: &[usize],
        old_flat: &[u64],
        new_flat: &[u64],
    ) -> Result<BlockOps, VdsError> {
        let k = self.redundancy.total_shards();
        let mut ops = BlockOps::default();
        // Per device: (shards this chunk frees, shards it lands).
        let mut room: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(k);
        for &j in work {
            let lba = lbas[j];
            let old = &old_flat[j * k..(j + 1) * k];
            let new = &new_flat[j * k..(j + 1) * k];
            if !self.missing_shard(lba, old) {
                for (copy, (&from, &to)) in old.iter().zip(new).enumerate() {
                    if from != to {
                        room.entry(from).or_default().0 += 1;
                        if !self.holds(to, lba, copy) {
                            room.entry(to).or_default().1 += 1;
                        }
                        ops.moves.push(ShardMove {
                            lba,
                            copy,
                            from,
                            to,
                        });
                    }
                }
                continue;
            }
            shards.clear();
            shards.extend(
                old.iter()
                    .enumerate()
                    .map(|(i, &id)| self.load_shard(id, lba, i)),
            );
            ops.reconstructed += shards.iter().filter(|s| s.is_none()).count() as u64;
            self.reconstruct_group(&mut shards, lba)?;
            for (copy, slot) in shards.iter_mut().enumerate() {
                let (from, to) = (old[copy], new[copy]);
                if from != to {
                    if self.holds(from, lba, copy) {
                        room.entry(from).or_default().0 += 1;
                    }
                    ops.removes.push((from, lba, copy));
                }
                if !self.holds(to, lba, copy) {
                    room.entry(to).or_default().1 += 1;
                } else if from == to {
                    continue;
                }
                // `reconstruct_group` either fills every `None` slot or
                // errors out above; a hole here is unreachable.
                let shard = slot.take().expect("complete after reconstruction");
                ops.stores.push((to, lba, copy, shard));
            }
        }
        for (&id, &(freed, landing)) in &room {
            if landing == 0 {
                continue;
            }
            let dev = self
                .devices
                .get(&id)
                .ok_or(VdsError::UnknownDevice { id })?;
            if dev.state() == DeviceState::Failed {
                return Err(VdsError::DeviceFailed { id });
            }
            if dev.used_blocks() + landing > dev.capacity_blocks() + freed {
                return Err(VdsError::OutOfSpace { id });
            }
        }
        Ok(ops)
    }

    /// Second pass: carries out `ops` as [`StorageCluster::plan_block_ops`]
    /// validated them. Every take and remove runs before the first store,
    /// so the room the first pass counted on is free when the stores
    /// land; a moved shard's payload goes from source to target as the
    /// same allocation.
    ///
    /// # Errors
    ///
    /// [`VdsError::Internal`] or the store's error only if the first
    /// pass's checks were broken — never for a validated chunk.
    fn apply_block_ops(&mut self, ops: BlockOps) -> Result<(), VdsError> {
        let BlockOps {
            moves,
            removes,
            mut stores,
            ..
        } = ops;
        stores.reserve(moves.len());
        for mv in moves {
            let payload = self
                .devices
                .get_mut(&mv.from)
                .and_then(|d| d.take(&(mv.lba, mv.copy)))
                .ok_or(VdsError::Internal {
                    reason: "migration source lost a shard between the two passes",
                })?;
            stores.push((mv.to, mv.lba, mv.copy, payload));
        }
        for (dev, lba, copy) in removes {
            if let Some(d) = self.devices.get_mut(&dev) {
                d.remove(&(lba, copy));
            }
        }
        for (dev, lba, copy, payload) in stores {
            self.devices
                .get_mut(&dev)
                .ok_or(VdsError::UnknownDevice { id: dev })?
                .store((lba, copy), payload)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::tests::{block, mirror_cluster};
    use crate::cluster::StorageCluster;
    use crate::error::VdsError;
    use crate::migration::MigrationReport;

    #[test]
    fn migrate_batch_honours_budget_and_drains_cleanly() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let occupancy = |c: &StorageCluster| -> Vec<u64> {
            c.device_ids()
                .iter()
                .map(|&id| c.device(id).unwrap().used_blocks())
                .collect()
        };
        c.add_device_lazy(9, 10_000).unwrap();
        let mut report = MigrationReport::default();
        while c.pending_blocks() > 0 {
            let before = c.pending_blocks();
            let step = c.migrate_batch(117).unwrap();
            // The budget is honoured: at most 117 blocks per call.
            assert!(before - c.pending_blocks() <= 117);
            assert_eq!(step.blocks, before - c.pending_blocks());
            report.merge(step);
        }
        assert_eq!(report.blocks, 1_000);
        assert_eq!(report.shards_total, 2_000);
        assert!(report.shards_moved > 0);
        assert_eq!(report.shards_reconstructed, 0);
        // Every block reads back its bytes, from the target placement.
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        // Per-device occupancy equals an eager add over the same blocks.
        let mut eager = mirror_cluster();
        for lba in 0..1_000u64 {
            eager.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        assert_eq!(eager.add_device(9, 10_000).unwrap(), report);
        assert_eq!(occupancy(&c), occupancy(&eager));
        assert_eq!(c.scrub().unwrap(), 0);
        // Idempotent when drained.
        assert_eq!(c.migrate_batch(10).unwrap(), MigrationReport::default());
    }

    #[test]
    fn failed_migration_chunk_leaves_every_shard_in_place() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        c.fail_device(9).unwrap();
        let pending = c.pending_blocks();
        assert_eq!(
            c.migrate_batch(u64::MAX),
            Err(VdsError::DeviceFailed { id: 9 })
        );
        // All-or-nothing: nothing was taken from the old locations.
        assert_eq!(c.pending_blocks(), pending);
        assert_eq!(c.degraded_block_count(), 0);
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        c.rebuild().unwrap();
        assert_eq!(c.pending_blocks(), 0);
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn drain_reconstructs_moving_groups_missing_a_shard() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let before: Vec<Vec<u64>> = (0..1_000u64).map(|lba| c.placement(lba)).collect();
        c.add_device_lazy(9, 10_000).unwrap();
        // Latent losses on pending blocks, whether or not they move.
        let lost: Vec<u64> = (0..1_000u64).step_by(25).collect();
        for &lba in &lost {
            assert!(c.inject_shard_loss(lba, 1));
        }
        let report = c.rebalance().unwrap();
        // A moving group is reconstructed once and lands complete; an
        // unmoved one is left for `repair` (the drain does not touch it).
        let moving = lost
            .iter()
            .filter(|&&lba| c.placement(lba) != before[lba as usize])
            .count() as u64;
        assert!(moving > 0 && moving < lost.len() as u64);
        assert_eq!(report.shards_reconstructed, moving);
        assert_eq!(c.scrub().unwrap(), lost.len() as u64 - moving);
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        assert_eq!(c.repair().unwrap(), lost.len() as u64 - moving);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn drain_reads_and_writes_only_moved_shards() {
        let mut c = mirror_cluster();
        for lba in 0..1_500u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        c.reset_stats();
        let report = c.rebalance().unwrap();
        assert!(report.shards_moved > 0);
        let (reads, writes) = c
            .device_ids()
            .iter()
            .map(|&id| c.device(id).unwrap().stats())
            .fold((0, 0), |(r, w), s| (r + s.reads, w + s.writes));
        // One read and one write per moved shard; shards that stay put
        // and the group's unmoved copies are never touched.
        assert_eq!(reads, report.shards_moved);
        assert_eq!(writes, report.shards_moved);
    }

    #[test]
    fn rebalance_drains_everything_at_once() {
        let mut c = mirror_cluster();
        for lba in 0..600u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // No-op without a pending migration.
        assert_eq!(c.rebalance().unwrap(), MigrationReport::default());
        c.add_device_lazy(9, 10_000).unwrap();
        let report = c.rebalance().unwrap();
        assert_eq!(report.blocks, 600);
        assert_eq!(c.pending_blocks(), 0);
        assert!(report.shards_moved > 0);
        assert!(c.device(9).unwrap().used_blocks() > 0);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn migration_metrics_follow_the_reports() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let reg = c.metrics_registry().unwrap();
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert_eq!(
            reg.counter("migration_moves_planned_total", "").get(),
            plan.moves.len() as u64
        );
        let report = c.add_device(9, 10_000).unwrap();
        assert_eq!(
            reg.counter("migration_moves_executed_total", "").get(),
            report.shards_moved
        );
        // In-place repair after injected shard loss.
        let mut injected = 0u64;
        for lba in (0..1_000u64).step_by(97) {
            if c.inject_shard_loss(lba, 0) {
                injected += 1;
            }
        }
        assert!(injected > 0);
        c.repair().unwrap();
        assert_eq!(reg.counter("repair_blocks_total", "").get(), injected);
    }
}

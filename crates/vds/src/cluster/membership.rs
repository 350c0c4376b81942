//! Membership changes — adding, removing and failing devices, eagerly or
//! lazily — and their dry-run migration plans.

use std::collections::BTreeSet;

use rshare_core::BinSet;

use super::placement::flat_placement;
use super::{PendingMigration, StorageCluster, MIGRATION_CHUNK_BLOCKS};
use crate::device::{Device, DeviceState};
use crate::error::VdsError;
use crate::migration::{MigrationPlan, MigrationReport, ShardMove};
use crate::profile::DeviceProfile;

impl StorageCluster {
    /// Adds a device and migrates the shards whose computed placement
    /// changed.
    ///
    /// # Errors
    ///
    /// [`VdsError::InvalidConfig`] for a duplicate id; placement and I/O
    /// errors from the migration.
    pub fn add_device(
        &mut self,
        id: u64,
        capacity_blocks: u64,
    ) -> Result<MigrationReport, VdsError> {
        self.add_device_with_profile(id, capacity_blocks, DeviceProfile::default())
    }

    /// Adds a device with an explicit performance profile and migrates the
    /// shards whose computed placement changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::add_device`].
    pub fn add_device_with_profile(
        &mut self,
        id: u64,
        capacity_blocks: u64,
        profile: DeviceProfile,
    ) -> Result<MigrationReport, VdsError> {
        self.check_new_id(id)?;
        self.devices
            .insert(id, Device::with_profile(id, capacity_blocks, profile));
        let new_strategy = self.strategy_over(&self.online_bins(None, None)?)?;
        self.replace_strategy(new_strategy)
    }

    /// Adds a device *lazily*: the placement switches immediately, but no
    /// data moves — blocks keep resolving to their old locations until
    /// they are migrated by [`StorageCluster::migrate_batch`] (or rewritten,
    /// which completes their migration for free). Returns the number of
    /// blocks awaiting migration.
    ///
    /// Only computed placement makes this cheap: both the old and the new
    /// mapping are pure functions, so serving from either side needs no
    /// per-block forwarding table.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::add_device`]. Any migration
    /// already in flight is drained first.
    pub fn add_device_lazy(&mut self, id: u64, capacity_blocks: u64) -> Result<u64, VdsError> {
        self.check_new_id(id)?;
        self.drain_pending()?;
        self.devices.insert(
            id,
            Device::with_profile(id, capacity_blocks, DeviceProfile::default()),
        );
        let new_strategy = self.strategy_over(&self.online_bins(None, None)?)?;
        let old_strategy = self
            .strategy
            .replace(new_strategy)
            .expect("strategy always present");
        // The target mapping changed, so cached placements are stale even
        // though no data has moved yet; pending blocks additionally bypass
        // the cache until migrated (see `effective_placement`).
        self.bump_epoch();
        let remaining: BTreeSet<u64> = self.blocks.iter().copied().collect();
        let count = remaining.len() as u64;
        self.pending = Some(PendingMigration {
            old_strategy,
            remaining,
        });
        Ok(count)
    }

    /// Rejects `id` if a device (online or failed) already carries it.
    fn check_new_id(&self, id: u64) -> Result<(), VdsError> {
        if self.devices.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        Ok(())
    }

    /// Blocks still awaiting lazy migration.
    #[must_use]
    pub fn pending_blocks(&self) -> u64 {
        self.pending
            .as_ref()
            .map_or(0, |p| p.remaining.len() as u64)
    }

    /// Gracefully removes a device, migrating its shards away first.
    ///
    /// # Errors
    ///
    /// * [`VdsError::UnknownDevice`] if no such device exists.
    /// * Placement errors if too few devices would remain.
    pub fn remove_device(&mut self, id: u64) -> Result<MigrationReport, VdsError> {
        if !self.devices.contains_key(&id) {
            return Err(VdsError::UnknownDevice { id });
        }
        // Build the post-removal strategy first so a placement failure
        // (too few devices) leaves the cluster untouched; the leaving
        // device stays in the pool during the migration so its shards are
        // read (drained) rather than reconstructed.
        let new_strategy = self.strategy_over(&self.online_bins(Some(id), None)?)?;
        let report = self.replace_strategy(new_strategy)?;
        // Presence was checked at entry and `&mut self` rules out any
        // interleaving removal, so the entry is still there.
        let drained = self.devices.remove(&id).expect("checked above");
        debug_assert_eq!(
            drained.used_blocks(),
            0,
            "graceful removal must drain the device"
        );
        Ok(report)
    }

    /// Marks a device as crashed; its contents are lost and reads degrade
    /// until [`StorageCluster::rebuild`] runs.
    ///
    /// # Errors
    ///
    /// [`VdsError::UnknownDevice`] if no such device exists.
    pub fn fail_device(&mut self, id: u64) -> Result<(), VdsError> {
        let dev = self
            .devices
            .get_mut(&id)
            .ok_or(VdsError::UnknownDevice { id })?;
        dev.fail();
        Ok(())
    }

    /// Re-protects all data after failures: drops failed devices, rebuilds
    /// the placement over the survivors, reconstructs lost shards from
    /// redundancy and migrates shards to their new locations.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if any block lost more shards than the
    /// redundancy tolerates; placement errors if too few devices survive.
    pub fn rebuild(&mut self) -> Result<MigrationReport, VdsError> {
        self.devices.retain(|_, d| d.state() == DeviceState::Online);
        let new_strategy = self.strategy_over(&self.online_bins(None, None)?)?;
        self.replace_strategy(new_strategy)
    }

    /// Dry-runs adding a device: returns the migration plan without
    /// moving any data or changing the cluster.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::add_device`].
    pub fn plan_add_device(
        &self,
        id: u64,
        capacity_blocks: u64,
    ) -> Result<MigrationPlan, VdsError> {
        self.check_new_id(id)?;
        let bins = self.online_bins(None, Some((id, capacity_blocks)))?;
        // Fair minimum (Lemma 3.2): any strategy must move the new
        // device's capacity share of all shards onto it.
        let shards_total = self.blocks.len() as f64 * self.redundancy.total_shards() as f64;
        let fair_min = shards_total * capacity_blocks as f64 / bins.total_capacity() as f64;
        self.plan_against(&bins, fair_min)
    }

    /// Dry-runs removing a device: returns the migration plan without
    /// moving any data or changing the cluster.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::remove_device`].
    pub fn plan_remove_device(&self, id: u64) -> Result<MigrationPlan, VdsError> {
        let leaving = self
            .devices
            .get(&id)
            .ok_or(VdsError::UnknownDevice { id })?;
        // Fair minimum (Lemma 3.2): the shards resident on the leaving
        // device must move, whatever the strategy.
        let fair_min = leaving.used_blocks() as f64;
        self.plan_against(&self.online_bins(Some(id), None)?, fair_min)
    }

    /// Dry-runs [`StorageCluster::rebuild`]: the migration plan for
    /// dropping every failed device, without touching any data. With no
    /// failed devices the bin set is unchanged and the plan is empty.
    ///
    /// # Errors
    ///
    /// Placement errors if too few devices survive.
    pub fn plan_rebuild(&self) -> Result<MigrationPlan, VdsError> {
        let mut plan = self.plan_against(&self.online_bins(None, None)?, 0.0)?;
        // Fair minimum: every shard placed on a failed device must move,
        // and the candidate excludes failed devices, so those shards are
        // exactly the moves leaving them.
        plan.fair_min_shards = plan
            .moves
            .iter()
            .filter(|m| {
                self.devices
                    .get(&m.from)
                    .is_some_and(|d| d.state() == DeviceState::Failed)
            })
            .count() as f64;
        Ok(plan)
    }

    /// Diffs the current placement against a hypothetical bin set, in
    /// bulk: old (effective) and candidate placements are resolved a chunk
    /// at a time by [`flat_placement`] and compared slice-against-slice,
    /// so unchanged blocks — the common case under 2–4-competitive churn —
    /// cost two lookups and one memcmp. The moves are sorted so every
    /// (source → target) device queue is contiguous
    /// ([`MigrationPlan::device_queues`]).
    fn plan_against(&self, bins: &BinSet, fair_min_shards: f64) -> Result<MigrationPlan, VdsError> {
        let k = self.redundancy.total_shards();
        let candidate = self.strategy_over(bins)?;
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let mut plan = MigrationPlan {
            shards_total: (lbas.len() * k) as u64,
            blocks_total: lbas.len() as u64,
            fair_min_shards,
            ..MigrationPlan::default()
        };
        let (mut old_flat, mut new_flat) = (Vec::new(), Vec::new());
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            flat_placement(self.strategy(), self.pending.as_ref(), chunk, &mut old_flat);
            flat_placement(&candidate, None, chunk, &mut new_flat);
            let groups = old_flat.chunks_exact(k).zip(new_flat.chunks_exact(k));
            for (&lba, (old, new)) in chunk.iter().zip(groups) {
                let before = plan.moves.len();
                for (copy, (&from, &to)) in old.iter().zip(new).enumerate() {
                    if from != to {
                        plan.moves.push(ShardMove {
                            lba,
                            copy,
                            from,
                            to,
                        });
                    }
                }
                if plan.moves.len() > before {
                    plan.blocks_planned += 1;
                }
            }
        }
        plan.moves
            .sort_unstable_by_key(|m| (m.from, m.to, m.lba, m.copy));
        if let Some(m) = &self.metrics {
            m.migration_moves_planned_total.add(plan.moves.len() as u64);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::tests::{block, mirror_cluster};
    use crate::error::VdsError;

    #[test]
    fn add_device_migrates_proportionally() {
        let mut c = mirror_cluster();
        for lba in 0..2_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.add_device(9, 10_000).unwrap();
        // New device owns 1/5 of the capacity; with k = 2 the paper's bound
        // allows up to ~4ξ movement.
        let frac = report.moved_fraction();
        assert!(frac > 0.10 && frac < 0.65, "moved fraction {frac}");
        // Everything still readable, fully replicated.
        assert_eq!(c.scrub().unwrap(), 0);
        let new_used = c.device(9).unwrap().used_blocks();
        assert!(new_used > 0);
    }

    #[test]
    fn remove_device_drains_it() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.remove_device(3).unwrap();
        assert!(report.shards_moved > 0);
        assert_eq!(c.device_ids(), vec![0, 1, 2]);
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn rebuild_restores_full_redundancy() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(1).unwrap();
        let report = c.rebuild().unwrap();
        assert!(report.shards_reconstructed > 0);
        assert_eq!(c.device_ids(), vec![0, 2, 3]);
        // After rebuild every block is fully replicated again.
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in 0..300u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn double_failure_under_mirroring_loses_data() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(7, 64)).unwrap();
        }
        c.fail_device(0).unwrap();
        c.fail_device(1).unwrap();
        // Some block surely had both copies on devices 0 and 1.
        let result = c.rebuild();
        assert!(matches!(result, Err(VdsError::DataLoss { .. })));
    }

    #[test]
    fn plan_matches_actual_migration() {
        let mut c = mirror_cluster();
        for lba in 0..1_500u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert!(plan.moved_fraction() > 0.0);
        // Every planned inflow move targets a real device of the new set.
        for (dev, count) in plan.inflow_per_device() {
            assert!(dev == 9 || c.device(dev).is_some());
            assert!(count > 0);
        }
        let report = c.add_device(9, 10_000).unwrap();
        assert_eq!(
            plan.moves.len() as u64,
            report.shards_moved,
            "dry run must predict the real migration exactly"
        );
        // Planning is validated like the real operation.
        assert!(c.plan_add_device(9, 1).is_err());
        assert!(c.plan_remove_device(999).is_err());
        let removal_plan = c.plan_remove_device(9).unwrap();
        // Everything on device 9 must flow out.
        let outflow = removal_plan.moves.iter().filter(|m| m.from == 9).count() as u64;
        assert_eq!(outflow, c.device(9).unwrap().used_blocks());
    }

    #[test]
    fn lazy_migration_serves_reads_throughout() {
        let mut c = mirror_cluster();
        for lba in 0..1_200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let pending = c.add_device_lazy(9, 10_000).unwrap();
        assert_eq!(pending, 1_200);
        assert_eq!(c.pending_blocks(), 1_200);
        // Nothing has moved yet; everything still reads correctly.
        assert_eq!(c.device(9).unwrap().used_blocks(), 0);
        for lba in (0..1_200u64).step_by(37) {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        // Migrate in small steps, reading in between.
        let mut total_moved = 0;
        while c.pending_blocks() > 0 {
            let report = c.migrate_batch(100).unwrap();
            total_moved += report.shards_moved;
            let probe = (c.pending_blocks() * 7) % 1_200;
            assert_eq!(c.read_block(probe).unwrap(), block(probe as u8, 64));
        }
        assert!(total_moved > 0);
        assert!(c.device(9).unwrap().used_blocks() > 0);
        assert_eq!(c.scrub().unwrap(), 0);
        // Idempotent when drained.
        let report = c.migrate_batch(10).unwrap();
        assert_eq!(report.blocks, 0);
    }

    #[test]
    fn eager_operations_drain_lazy_migration_first() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        assert!(c.pending_blocks() > 0);
        // An eager removal forces the pending migration to finish first.
        c.remove_device(0).unwrap();
        assert_eq!(c.pending_blocks(), 0);
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in (0..300u64).step_by(11) {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn plan_rebuild_is_empty_without_failures() {
        let mut c = mirror_cluster();
        for lba in 0..400u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Satellite: a no-op membership "change" must plan zero moves …
        let plan = c.plan_rebuild().unwrap();
        assert!(plan.moves.is_empty());
        assert_eq!(plan.blocks_planned, 0);
        assert_eq!(plan.blocks_total, 400);
        assert_eq!(plan.competitive_ratio(), 0.0);
        // … and the executed no-op rebuild moves zero shards.
        let report = c.rebuild().unwrap();
        assert_eq!(report.shards_moved, 0);
        assert_eq!(report.shards_reconstructed, 0);
        // With a failure, the plan predicts the rebuild exactly.
        c.fail_device(1).unwrap();
        let plan = c.plan_rebuild().unwrap();
        assert!(plan.fair_min_shards > 0.0);
        assert!(plan.competitive_ratio() >= 1.0);
        let report = c.rebuild().unwrap();
        assert_eq!(plan.moves.len() as u64, report.shards_moved);
    }

    #[test]
    fn plan_accounting_and_device_queues() {
        let mut c = mirror_cluster();
        for lba in 0..2_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert_eq!(plan.blocks_total, 2_000);
        assert_eq!(plan.shards_total, 4_000);
        assert!(plan.blocks_planned > 0);
        assert!(plan.blocks_planned < plan.blocks_total, "skip-unchanged");
        assert!(plan.fair_min_shards > 0.0);
        // Lemma 3.2: the measured competitive ratio stays within 4.
        let ratio = plan.competitive_ratio();
        assert!(ratio > 0.0 && ratio <= 4.0, "ratio {ratio}");
        // Moves are sorted so device queues are contiguous and exhaustive.
        let queues = plan.device_queues();
        let mut seen = std::collections::BTreeSet::new();
        let mut covered = 0usize;
        for (from, to, moves) in queues {
            assert!(seen.insert((from, to)), "queue ({from},{to}) repeated");
            assert!(moves.iter().all(|m| m.from == from && m.to == to));
            covered += moves.len();
        }
        assert_eq!(covered, plan.moves.len());
    }
}

//! Placement resolution: which device holds shard `i` of block `lba`.
//!
//! A block's location is a pure function of the device set, the block
//! address and the copy index (§3 of the paper). The cluster resolves it
//! in two ways: per block through the epoch-versioned cache on the
//! I/O paths ([`StorageCluster::placement`]), and in bulk through
//! [`flat_placement`] on the scans of migration, planning and health.
//! Both send a block a lazy migration has not moved yet to the old
//! strategy and every other block to the target strategy.

use std::sync::atomic::Ordering;

use rshare_core::{
    Bin, BinId, BinSet, FastRedundantShare, PlacementError, PlacementStrategy, RedundantShare,
    MAX_INLINE_K,
};

use super::{PendingMigration, StorageCluster};
use crate::cache::{CacheStats, InlinePlacement, MAX_CACHED_SHARDS};
use crate::device::DeviceState;
use crate::error::VdsError;

/// The placement engine a cluster routes queries through, chosen by
/// cluster size (see [`crate::ClusterBuilder::fast_strategy_threshold`]).
///
/// Both variants implement the paper's Redundant Share and are equally
/// fair, but their per-ball placements differ (the fast variant draws its
/// randomness from precomputed inverse-CDF tables), so switching variants is a
/// strategy change like any other: the migration machinery diffs old and
/// new placements and moves what changed.
pub(super) enum ClusterStrategy {
    /// Algorithm 4: O(n) per query, no precomputation.
    Scan(RedundantShare),
    /// Section 3.3: O(k) per query from precomputed Markov-chain tables.
    Fast(FastRedundantShare),
}

impl ClusterStrategy {
    /// Builds the right variant for `set`'s size: the precomputed engine
    /// once the set reaches `fast_min` bins, the scan below it.
    fn build(set: &BinSet, shards: usize, fast_min: usize) -> Result<Self, PlacementError> {
        if set.len() >= fast_min {
            Ok(Self::Fast(FastRedundantShare::new(set, shards)?))
        } else {
            Ok(Self::Scan(RedundantShare::new(set, shards)?))
        }
    }

    /// The engine behind either variant.
    fn engine(&self) -> &dyn PlacementStrategy {
        match self {
            Self::Scan(s) => s,
            Self::Fast(s) => s,
        }
    }

    /// Places `ball`, handing its raw device ids to `emit` in copy order.
    /// Groups of up to [`MAX_INLINE_K`] shards go through the inline
    /// strategy path and never touch the heap.
    pub(super) fn place_each(&self, ball: u64, mut emit: impl FnMut(u64)) {
        let engine = self.engine();
        if engine.replication() <= MAX_INLINE_K {
            let mut arr = [BinId(0); MAX_INLINE_K];
            let n = engine.place_into_inline(ball, &mut arr);
            arr[..n].iter().for_each(|id| emit(id.raw()));
        } else {
            engine.place(ball).into_iter().for_each(|id| emit(id.raw()));
        }
    }
}

/// Resolves every `lbas[j]` into `out` (cleared first) as one flat
/// stride-k run of raw device ids: the copies of `lbas[j]` occupy
/// `out[j * k..(j + 1) * k]`. Blocks `pending` has not migrated yet
/// resolve through its old strategy, all others through `strategy`.
///
/// This is the bulk resolver every scan shares — migration, planning,
/// the damage scan — so it bypasses the per-block cache and does not
/// count towards [`StorageCluster::placements_computed`].
pub(super) fn flat_placement(
    strategy: &ClusterStrategy,
    pending: Option<&PendingMigration>,
    lbas: &[u64],
    out: &mut Vec<u64>,
) {
    out.clear();
    out.reserve(lbas.len() * strategy.engine().replication());
    for &lba in lbas {
        let resolver = match pending {
            Some(p) if p.remaining.contains(&lba) => &p.old_strategy,
            _ => strategy,
        };
        resolver.place_each(lba, |id| out.push(id));
    }
}

/// An owned placement: inline (no heap) for groups that fit
/// [`MAX_CACHED_SHARDS`] ids, heap-backed beyond that. Dereferences to the
/// raw device-id slice, so call sites index and iterate it like a `Vec`.
pub(super) enum PlacementIds {
    Inline(InlinePlacement),
    Heap(Vec<u64>),
}

impl std::ops::Deref for PlacementIds {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Self::Inline(p) => p.as_slice(),
            Self::Heap(v) => v,
        }
    }
}

impl StorageCluster {
    pub(super) fn strategy(&self) -> &ClusterStrategy {
        // Invariant: `build()` installs a strategy before the cluster is
        // handed out, and every membership change replaces it atomically
        // (`Option::replace`), so the slot is never observably empty.
        self.strategy.as_ref().expect("strategy always present")
    }

    /// The bins of every online device except `leaving`, plus `joining`
    /// as `(id, capacity)`: the device set a placement strategy is built
    /// over, now or after a planned membership change.
    pub(super) fn online_bins(
        &self,
        leaving: Option<u64>,
        joining: Option<(u64, u64)>,
    ) -> Result<BinSet, VdsError> {
        let mut bins = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online && Some(d.id()) != leaving)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some((id, capacity)) = joining {
            bins.push(Bin::new(id, capacity)?);
        }
        Ok(BinSet::new(bins)?)
    }

    /// Builds the placement engine over `bins`, weighted by capacity.
    pub(super) fn strategy_over(&self, bins: &BinSet) -> Result<ClusterStrategy, VdsError> {
        Ok(ClusterStrategy::build(
            bins,
            self.redundancy.total_shards(),
            self.fast_threshold,
        )?)
    }

    /// The device ids shard 0, 1, … of `lba` are placed on.
    ///
    /// During a lazy migration this is the *effective* placement: blocks
    /// not yet migrated still resolve to their pre-change locations.
    #[must_use]
    pub fn placement(&self, lba: u64) -> Vec<u64> {
        self.effective_placement(lba).to_vec()
    }

    /// Like [`StorageCluster::placement`], but writes the device ids into a
    /// caller-provided buffer (cleared first) — the zero-allocation variant
    /// for callers issuing many lookups.
    pub fn placement_into(&self, lba: u64, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.effective_placement(lba));
    }

    /// The effective placement of `lba`: the old strategy for blocks still
    /// awaiting lazy migration, the cached target placement otherwise.
    pub(super) fn effective_placement(&self, lba: u64) -> PlacementIds {
        if let Some(p) = &self.pending {
            if p.remaining.contains(&lba) {
                // Old-strategy placements are never cached: they die with
                // the migration and would otherwise need their own epoch.
                return self.compute_placement(&p.old_strategy, lba);
            }
        }
        self.target_placement(lba)
    }

    /// The placement under the *target* (post-migration) configuration.
    /// Scan-engine placements are served from the epoch-versioned cache
    /// when enabled: there a hit costs about as much as the O(n) scan or
    /// less. The O(k) fast engine is cheaper than a cache lookup, so its
    /// placements are always computed.
    pub(super) fn target_placement(&self, lba: u64) -> PlacementIds {
        if self.uses_cache() {
            if let Some(hit) = self.cache.get(lba, self.placement_epoch) {
                return PlacementIds::Inline(hit);
            }
            let computed = self.compute_placement(self.strategy(), lba);
            if let PlacementIds::Inline(p) = &computed {
                self.cache.put(lba, self.placement_epoch, *p);
            }
            computed
        } else {
            self.compute_placement(self.strategy(), lba)
        }
    }

    /// Whether target placements go through the cache: it is enabled, the
    /// group fits an entry, and the cluster places with the scan engine.
    fn uses_cache(&self) -> bool {
        self.cache_enabled
            && self.redundancy.total_shards() <= MAX_CACHED_SHARDS
            && matches!(self.strategy(), ClusterStrategy::Scan(_))
    }

    /// Invalidates every cached placement after a strategy change. When
    /// the new strategy no longer uses the cache, its entries are freed
    /// too, as no lookup would ever evict them.
    pub(super) fn bump_epoch(&mut self) {
        self.placement_epoch += 1;
        if !self.uses_cache() {
            self.cache.clear();
        }
    }

    /// Runs a strategy placement (the slow path a cache hit skips),
    /// returning the group inline whenever it fits.
    fn compute_placement(&self, strategy: &ClusterStrategy, lba: u64) -> PlacementIds {
        self.placements_computed.fetch_add(1, Ordering::Relaxed);
        let k = strategy.engine().replication();
        if k <= MAX_CACHED_SHARDS {
            let mut p = InlinePlacement::empty();
            strategy.place_each(lba, |id| p.push(id));
            PlacementIds::Inline(p)
        } else {
            let mut ids = Vec::with_capacity(k);
            strategy.place_each(lba, |id| ids.push(id));
            PlacementIds::Heap(ids)
        }
    }

    /// Hit/miss/occupancy counters of the placement cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The current placement epoch (bumped by every strategy change).
    #[must_use]
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch
    }

    /// Total placements computed by a strategy since construction; lookups
    /// served from the cache do not increment this.
    #[must_use]
    pub fn placements_computed(&self) -> u64 {
        self.placements_computed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{block, mirror_cluster};
    use crate::cluster::FAST_PLACEMENT_MIN_DEVICES;
    use crate::Redundancy;

    /// True iff all device ids are pairwise distinct, sorting in `scratch`
    /// instead of cloning the placement per check.
    fn all_distinct(ids: &[u64], scratch: &mut Vec<u64>) -> bool {
        scratch.clear();
        scratch.extend_from_slice(ids);
        scratch.sort_unstable();
        scratch.windows(2).all(|w| w[0] != w[1])
    }

    #[test]
    fn large_cluster_routes_through_fast_placement() {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..FAST_PLACEMENT_MIN_DEVICES as u64 {
            b = b.device(id, 5_000 + id * 13);
        }
        let mut c = b.placement_cache(true).build().unwrap();
        assert!(
            matches!(c.strategy(), ClusterStrategy::Fast(_)),
            "64-device cluster must use the O(k) strategy"
        );
        let mut placement = Vec::new();
        let mut scratch = Vec::new();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
            let computed = c.placements_computed();
            c.placement_into(lba, &mut placement);
            assert_eq!(c.placements_computed(), computed + 1, "placement_into");
            assert!(all_distinct(&placement, &mut scratch), "distinct devices");
        }
        // The fast engine bypasses the cache: every lookup, repeated or
        // not, computes the placement once.
        for pass in 0..2 {
            for lba in 0..300u64 {
                let computed = c.placements_computed();
                assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
                assert_eq!(c.placements_computed(), computed + 1, "pass {pass}");
            }
        }
        let lbas: Vec<u64> = (0..300u64).collect();
        for (got, &lba) in c.read_blocks(&lbas).unwrap().iter().zip(&lbas) {
            assert_eq!(got, &block(lba as u8, 64));
        }
        let stats = c.cache_stats();
        assert_eq!((stats.hits, stats.entries), (0, 0));
        // A small cluster keeps the scan strategy.
        assert!(matches!(
            mirror_cluster().strategy(),
            ClusterStrategy::Scan(_)
        ));
    }

    #[test]
    fn copies_land_on_distinct_devices() {
        let mut c = mirror_cluster();
        let mut placement = Vec::new();
        let mut scratch = Vec::new();
        for lba in 0..500u64 {
            c.write_block(lba, &block(1, 64)).unwrap();
            c.placement_into(lba, &mut placement);
            assert!(all_distinct(&placement, &mut scratch));
        }
    }

    #[test]
    fn heterogeneous_utilization_tracks_capacity() {
        let mut c = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 5_000)
            .device(1, 10_000)
            .device(2, 15_000)
            .device(3, 20_000)
            .build()
            .unwrap();
        for lba in 0..8_000u64 {
            c.write_block(lba, &block(lba as u8, 16)).unwrap();
        }
        let util = c.utilization();
        let fractions: Vec<f64> = util
            .iter()
            .map(|(_, used, cap)| *used as f64 / *cap as f64)
            .collect();
        // Fairness: all devices should be roughly equally full.
        let avg: f64 = fractions.iter().sum::<f64>() / fractions.len() as f64;
        for (i, f) in fractions.iter().enumerate() {
            assert!(
                (f - avg).abs() / avg < 0.06,
                "device {i} utilisation {f:.4} vs avg {avg:.4}"
            );
        }
    }

    #[test]
    fn cache_hit_performs_no_placement_computation() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // The writes populated the cache; warm one block explicitly anyway.
        let first = c.read_block(7).unwrap();
        let computed = c.placements_computed();
        let hits = c.cache_stats().hits;
        // Repeated reads must be pure cache hits: the strategy runs zero
        // additional placements.
        for _ in 0..10 {
            assert_eq!(c.read_block(7).unwrap(), first);
        }
        assert_eq!(
            c.placements_computed(),
            computed,
            "cache hits must not recompute placements"
        );
        assert_eq!(c.cache_stats().hits, hits + 10);
    }

    #[test]
    fn membership_change_invalidates_cache_via_epoch() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let epoch_before = c.placement_epoch();
        // Warm the cache for every block.
        for lba in 0..300u64 {
            c.read_block(lba).unwrap();
        }
        c.add_device(9, 10_000).unwrap();
        assert!(c.placement_epoch() > epoch_before, "epoch must bump");
        // Placements after the change match a freshly built identical
        // cluster (i.e. no stale cache entry leaks through).
        let fresh = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .placement_cache(false)
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(9, 10_000)
            .build()
            .unwrap();
        for lba in 0..300u64 {
            assert_eq!(c.placement(lba), fresh.placement(lba), "lba {lba}");
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn lazy_migration_bypasses_cache_for_pending_blocks() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Snapshot effective placements, then switch the mapping lazily.
        let old: Vec<Vec<u64>> = (0..200u64).map(|lba| c.placement(lba)).collect();
        c.add_device_lazy(9, 10_000).unwrap();
        // Pending blocks still resolve to their old locations even though
        // the cache holds (stale-epoch) entries from before the change.
        for lba in 0..200u64 {
            assert_eq!(c.placement(lba), old[lba as usize], "pending lba {lba}");
        }
        // Migrate everything; placements now come from the new strategy and
        // are cacheable — repeated lookups are hits, and still correct.
        while c.pending_blocks() > 0 {
            c.migrate_batch(50).unwrap();
        }
        let first: Vec<Vec<u64>> = (0..200u64).map(|lba| c.placement(lba)).collect();
        let computed = c.placements_computed();
        for lba in 0..200u64 {
            assert_eq!(c.placement(lba), first[lba as usize]);
        }
        assert_eq!(c.placements_computed(), computed);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn disabled_cache_recomputes_every_lookup() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .placement_cache(false)
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .build()
            .unwrap();
        c.write_block(3, &block(3, 64)).unwrap();
        let computed = c.placements_computed();
        c.read_block(3).unwrap();
        c.read_block(3).unwrap();
        assert_eq!(
            c.placements_computed(),
            computed + 2,
            "uncached lookups recompute"
        );
        assert_eq!(c.cache_stats().entries, 0);
    }

    #[test]
    fn fast_strategy_threshold_knob_selects_engine() {
        // Threshold at (or below) the device count forces the fast engine
        // on a small cluster; usize::MAX pins the scan on a large one.
        let forced_fast = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .fast_strategy_threshold(4)
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .build()
            .unwrap();
        assert!(matches!(forced_fast.strategy(), ClusterStrategy::Fast(_)));
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .fast_strategy_threshold(usize::MAX);
        for id in 0..FAST_PLACEMENT_MIN_DEVICES as u64 {
            b = b.device(id, 5_000);
        }
        let pinned_scan = b.build().unwrap();
        assert!(matches!(pinned_scan.strategy(), ClusterStrategy::Scan(_)));
        // The threshold survives membership changes.
        let mut c = forced_fast;
        c.add_device(9, 10_000).unwrap();
        assert!(matches!(c.strategy(), ClusterStrategy::Fast(_)));
        c.remove_device(9).unwrap();
        assert!(matches!(c.strategy(), ClusterStrategy::Fast(_)));
    }
}

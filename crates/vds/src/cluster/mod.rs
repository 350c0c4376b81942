//! The virtualized storage cluster: placement-driven block storage with
//! migration, failure and rebuild.
//!
//! This is the "randomized block-level storage virtualization" of the
//! paper's abstract: a pool of heterogeneous devices presented as a single
//! block store. Every logical block is expanded into a redundancy group
//! (mirror copies or erasure shards) and shard `i` is stored on the i-th
//! device returned by the Redundant Share placement strategy — no
//! allocation tables, so the mapping is recomputable by anyone who knows
//! the device list.
//!
//! Membership changes rebuild the strategy and migrate exactly the shards
//! whose computed location changed; the adaptivity results of the paper
//! (Lemmas 3.2–3.5) bound that migration volume, and
//! [`MigrationReport`](crate::MigrationReport) measures it.
//!
//! The implementation is split by responsibility over the one
//! [`StorageCluster`] type: `placement` (the engine and the placement
//! resolver), `io` (write pipeline and reads), `membership` (device
//! changes and dry-run plans), `executor` (the two-pass migration
//! executor), `repair` (damage ledger and check, scrub, repair,
//! reconstruction) and `export` (health and the Prometheus exposition).

mod executor;
mod export;
mod io;
mod membership;
mod placement;
mod repair;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use rshare_erasure::ErasureCode;
use rshare_obs::Registry;

use crate::cache::PlacementCache;
use crate::device::Device;
use crate::error::VdsError;
use crate::health::ClusterMetrics;
use crate::profile::DeviceProfile;
use crate::redundancy::Redundancy;

use placement::ClusterStrategy;

/// Default for [`ClusterBuilder::fast_strategy_threshold`]: clusters with
/// at least this many online devices route placement through the
/// precomputed O(k)-per-query [`rshare_core::FastRedundantShare`]; smaller
/// clusters keep the table-free O(n) scan, whose query cost is negligible
/// at small `n` and which avoids the O(k·n²) table build on every
/// membership change.
const FAST_PLACEMENT_MIN_DEVICES: usize = 64;

/// Blocks per chunk of the migration, planning and repair scans: the unit the
/// executor validates and applies all-or-nothing. Bounds the transient
/// memory of a rebalance — only the reconstructed groups of one chunk are
/// held between its two passes.
const MIGRATION_CHUNK_BLOCKS: usize = 4096;

/// Builder for a [`StorageCluster`].
///
/// # Example
///
/// ```
/// use rshare_vds::{Redundancy, StorageCluster};
///
/// let cluster = StorageCluster::builder()
///     .block_size(64)
///     .redundancy(Redundancy::Mirror { copies: 2 })
///     .device(0, 1_000)
///     .device(1, 2_000)
///     .build()
///     .unwrap();
/// assert_eq!(cluster.device_ids(), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    block_size: usize,
    redundancy: Redundancy,
    devices: Vec<(u64, u64, DeviceProfile)>,
    placement_cache: bool,
    fast_strategy_threshold: usize,
    metrics: bool,
    metrics_registry: Option<Arc<Registry>>,
}

impl ClusterBuilder {
    /// Sets the logical block size in bytes (default 4096).
    #[must_use]
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes;
        self
    }

    /// Sets the redundancy scheme (default 2-way mirroring).
    #[must_use]
    pub fn redundancy(mut self, redundancy: Redundancy) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Enables or disables the placement cache (default enabled). With the
    /// cache off every lookup recomputes the placement — the configuration
    /// benchmarks use as the uncached baseline. The cache only fronts the
    /// O(n) scan engine, so on clusters large enough for the fast engine
    /// ([`ClusterBuilder::fast_strategy_threshold`], 64 devices by
    /// default) this setting has no effect.
    #[must_use]
    pub fn placement_cache(mut self, enabled: bool) -> Self {
        self.placement_cache = enabled;
        self
    }

    /// Sets the minimum online-device count at which placement routes
    /// through the precomputed O(k)-per-query fast engine instead of the
    /// table-free O(n) scan (default 64). Lower it to force the fast
    /// engine on small clusters, or pass `usize::MAX` to pin the scan —
    /// the knob the migration benchmark sweeps.
    #[must_use]
    pub fn fast_strategy_threshold(mut self, min_devices: usize) -> Self {
        self.fast_strategy_threshold = min_devices;
        self
    }

    /// Enables or disables metrics recording (default enabled). Disabled,
    /// the hot paths skip every metric touch — the configuration the
    /// observability benchmark uses as its baseline.
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Publishes the cluster's series into a caller-owned registry
    /// (implies [`ClusterBuilder::metrics`]`(true)`) instead of a private
    /// one — e.g. to merge several clusters into one scrape surface.
    #[must_use]
    pub fn metrics_registry(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = true;
        self.metrics_registry = Some(registry);
        self
    }

    /// Adds a device with the given id and capacity in shard blocks,
    /// using the default ([`DeviceProfile::SSD`]) performance profile.
    #[must_use]
    pub fn device(self, id: u64, capacity_blocks: u64) -> Self {
        self.device_with_profile(id, capacity_blocks, DeviceProfile::default())
    }

    /// Adds a device with an explicit performance profile for simulated
    /// I/O timing.
    #[must_use]
    pub fn device_with_profile(
        mut self,
        id: u64,
        capacity_blocks: u64,
        profile: DeviceProfile,
    ) -> Self {
        self.devices.push((id, capacity_blocks, profile));
        self
    }

    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// * [`VdsError::InvalidConfig`] for a zero block size, a block size
    ///   incompatible with the erasure geometry, or duplicate device ids.
    /// * [`VdsError::Placement`] if fewer devices than shards exist.
    pub fn build(self) -> Result<StorageCluster, VdsError> {
        if self.block_size == 0 {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be positive",
            });
        }
        let codec = self.redundancy.codec()?;
        let multiple = codec
            .as_deref()
            .map_or(1, |c| c.data_shards() * c.shard_multiple());
        if !self.block_size.is_multiple_of(multiple) {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be divisible by the erasure geometry (data shards × symbol rows)",
            });
        }
        let mut devices = BTreeMap::new();
        for (id, cap, profile) in &self.devices {
            if devices
                .insert(*id, Device::with_profile(*id, *cap, *profile))
                .is_some()
            {
                return Err(VdsError::InvalidConfig {
                    reason: "duplicate device id",
                });
            }
        }
        let metrics = self.metrics.then(|| {
            ClusterMetrics::new(
                self.metrics_registry
                    .unwrap_or_else(|| Arc::new(Registry::new())),
            )
        });
        let mut cluster = StorageCluster {
            devices,
            redundancy: self.redundancy,
            codec,
            strategy: None,
            block_size: self.block_size,
            blocks: BTreeSet::new(),
            damage: Some(BTreeSet::new()),
            pending: None,
            cache: PlacementCache::new(),
            cache_enabled: self.placement_cache,
            placement_epoch: 0,
            placements_computed: AtomicU64::new(0),
            fast_threshold: self.fast_strategy_threshold,
            metrics,
        };
        cluster.strategy = Some(cluster.strategy_over(&cluster.online_bins(None, None)?)?);
        Ok(cluster)
    }
}

/// A pool of storage devices virtualized into one redundant block store.
pub struct StorageCluster {
    devices: BTreeMap<u64, Device>,
    redundancy: Redundancy,
    codec: Option<Box<dyn ErasureCode>>,
    strategy: Option<ClusterStrategy>,
    block_size: usize,
    /// Logical block addresses that have been written.
    blocks: BTreeSet<u64>,
    /// The damage ledger: written blocks that may be missing a shard at
    /// their effective placement, or `None` while unknown. When known it
    /// holds every block that is missing one, so damage checks visit only
    /// its blocks (DESIGN.md §6 lists the transitions).
    damage: Option<BTreeSet<u64>>,
    /// In-flight lazy migration, if any.
    pending: Option<PendingMigration>,
    /// Cache of target-strategy placements, keyed by block address and
    /// validated against [`StorageCluster::placement_epoch`].
    cache: PlacementCache,
    /// Whether lookups consult (and populate) the placement cache.
    cache_enabled: bool,
    /// Bumped on every strategy change (add/remove/rebuild/lazy add), which
    /// invalidates all cached placements in O(1).
    placement_epoch: u64,
    /// Number of placements actually computed by a strategy (cache hits
    /// don't count — the cache-coherence tests pin this).
    placements_computed: AtomicU64,
    /// Minimum online-device count for the fast placement engine
    /// ([`ClusterBuilder::fast_strategy_threshold`]).
    fast_threshold: usize,
    /// Metric handles, when recording is enabled. `None` means every hot
    /// path skips instrumentation entirely.
    metrics: Option<ClusterMetrics>,
}

/// State of an in-flight lazy migration.
struct PendingMigration {
    /// The placement in force for blocks not yet migrated.
    old_strategy: ClusterStrategy,
    /// Blocks whose shards still live at their old locations.
    remaining: BTreeSet<u64>,
}

impl std::fmt::Debug for StorageCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCluster")
            .field("devices", &self.devices.len())
            .field("redundancy", &self.redundancy)
            .field("block_size", &self.block_size)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl StorageCluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            block_size: 4096,
            redundancy: Redundancy::Mirror { copies: 2 },
            devices: Vec::new(),
            placement_cache: true,
            fast_strategy_threshold: FAST_PLACEMENT_MIN_DEVICES,
            metrics: true,
            metrics_registry: None,
        }
    }

    /// The configured logical block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configured redundancy scheme.
    #[must_use]
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Ids of all devices (online and failed), ascending.
    #[must_use]
    pub fn device_ids(&self) -> Vec<u64> {
        self.devices.keys().copied().collect()
    }

    /// Read access to a device (for statistics and inspection).
    #[must_use]
    pub fn device(&self, id: u64) -> Option<&Device> {
        self.devices.get(&id)
    }

    /// Number of logical blocks stored.
    #[must_use]
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Bytes per shard: the whole block for mirror copies, one stripe
    /// segment for erasure shards.
    fn shard_len(&self) -> usize {
        self.block_size / self.codec.as_deref().map_or(1, ErasureCode::data_shards)
    }

    /// The erasure codec. `build()` creates one for every erasure scheme;
    /// a missing one is a bug, surfaced as a typed error rather than a
    /// panic on the public read, repair and migration paths.
    fn codec(&self) -> Result<&dyn ErasureCode, VdsError> {
        self.codec.as_deref().ok_or(VdsError::Internal {
            reason: "erasure redundancy configured without a codec",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn block(seed: u8, size: usize) -> Vec<u8> {
        (0..size).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    pub(super) fn mirror_cluster() -> StorageCluster {
        StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            StorageCluster::builder().block_size(0).device(0, 1).build(),
            Err(VdsError::InvalidConfig { .. })
        ));
        // Block size 10 is not divisible by RS(4, 2)'s 4 data shards.
        assert!(matches!(
            StorageCluster::builder()
                .block_size(10)
                .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
                .device(0, 1)
                .device(1, 1)
                .device(2, 1)
                .device(3, 1)
                .device(4, 1)
                .device(5, 1)
                .build(),
            Err(VdsError::InvalidConfig { .. })
        ));
        // Too few devices for the shard count.
        assert!(StorageCluster::builder()
            .redundancy(Redundancy::Mirror { copies: 3 })
            .device(0, 1)
            .device(1, 1)
            .build()
            .is_err());
        // Duplicate device id.
        assert!(matches!(
            StorageCluster::builder().device(0, 1).device(0, 2).build(),
            Err(VdsError::InvalidConfig { .. })
        ));
    }
}

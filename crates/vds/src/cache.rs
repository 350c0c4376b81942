//! A sharded, epoch-versioned cache of computed placements.
//!
//! Redundant Share is deterministic per ball for a fixed bin set (Section 3
//! of the paper), so between membership changes the mapping
//! `lba -> [device; k]` is perfectly cacheable. Every membership change
//! ([`crate::StorageCluster::add_device`] / `remove_device` / `rebuild` /
//! `add_device_lazy`) bumps a *placement epoch*; cache entries carry the
//! epoch they were computed under and a lookup rejects a stale entry with
//! one integer comparison — no flush, no tombstones, O(1).
//!
//! Entries store the device ids inline in a fixed array
//! ([`MAX_CACHED_SHARDS`] slots, smallvec-style), so a cached placement
//! costs no heap allocation per entry and a hit copies at most 128 bytes.
//! The map is sharded by a hash of the block address and each shard is
//! guarded by its own mutex, so concurrent readers sharing a cluster do
//! not serialise on one lock. Within a shard, entries are hashed with the
//! keyed [`SplitMixState`] rather than SipHash.
//!
//! The cluster consults the cache only while it places through the O(n)
//! scan engine. There a hit costs about as much as the scan or less; a
//! lookup in front of the O(k) fast engine (≥ 64 devices) cost ~10× the
//! computation it saved, so fast-engine placements are never cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rshare_hash::SplitMixState;

/// Widest redundancy group a cache entry can hold inline. Wider groups
/// (e.g. large LRCs) simply bypass the cache rather than spilling to the
/// heap — placement stays correct, just uncached.
pub const MAX_CACHED_SHARDS: usize = 16;

/// Number of independently locked map shards (power of two).
const CACHE_SHARDS: usize = 16;

/// Default bound on entries per map shard; at the bound the shard is
/// cleared wholesale (placements are recomputable, so bulk eviction is
/// cheaper than tracking recency).
const DEFAULT_PER_SHARD_CAPACITY: usize = 65_536;

/// Domain separator for the shard-selection hash.
const SHARD_DOMAIN: u64 = 0x504c_4143_4543_4148; // "PLACECAH"

/// A placement held in a fixed inline array — the zero-allocation carrier
/// for `lba -> [device; k]` lookups on the read/write path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlinePlacement {
    len: u8,
    ids: [u64; MAX_CACHED_SHARDS],
}

impl InlinePlacement {
    /// Builds from a slice of at most [`MAX_CACHED_SHARDS`] device ids.
    pub(crate) fn from_slice(src: &[u64]) -> Self {
        debug_assert!(src.len() <= MAX_CACHED_SHARDS);
        let mut ids = [0u64; MAX_CACHED_SHARDS];
        ids[..src.len()].copy_from_slice(src);
        Self {
            len: src.len() as u8,
            ids,
        }
    }

    /// Starts an empty placement to be filled by a strategy emit loop.
    pub(crate) fn empty() -> Self {
        Self {
            len: 0,
            ids: [0u64; MAX_CACHED_SHARDS],
        }
    }

    /// Appends one device id (up to the inline capacity).
    pub(crate) fn push(&mut self, id: u64) {
        self.ids[self.len as usize] = id;
        self.len += 1;
    }

    /// The device ids in copy order.
    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.ids[..self.len as usize]
    }
}

/// Counters describing cache effectiveness (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a current-epoch entry.
    pub hits: u64,
    /// Lookups that missed (absent entry or stale epoch).
    pub misses: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

/// One epoch-stamped cached placement.
#[derive(Debug, Clone, Copy)]
struct Entry {
    epoch: u64,
    placement: InlinePlacement,
}

/// One lock shard's entries.
type EntryMap = HashMap<u64, Entry, SplitMixState>;

/// The sharded placement cache. All methods take `&self`; interior
/// mutability is per-shard, so concurrent readers on different shards
/// never contend.
#[derive(Debug)]
pub(crate) struct PlacementCache {
    shards: Vec<Mutex<EntryMap>>,
    hits: AtomicU64,
    misses: AtomicU64,
    per_shard_capacity: usize,
}

impl PlacementCache {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(EntryMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            per_shard_capacity: DEFAULT_PER_SHARD_CAPACITY,
        }
    }

    fn shard(&self, lba: u64) -> &Mutex<EntryMap> {
        let ix = rshare_hash::stable_hash2(lba, SHARD_DOMAIN) as usize & (CACHE_SHARDS - 1);
        &self.shards[ix]
    }

    /// Looks up `lba`; only an entry stamped with exactly `epoch` counts.
    /// An entry from an *older* epoch is removed on sight — epochs only
    /// grow, so it can never become valid again.
    pub(crate) fn get(&self, lba: u64, epoch: u64) -> Option<InlinePlacement> {
        let mut map = self.shard(lba).lock().expect("cache shard poisoned");
        match map.get(&lba) {
            Some(e) if e.epoch == epoch => {
                let placement = e.placement;
                drop(map);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(placement)
            }
            Some(e) => {
                if e.epoch < epoch {
                    map.remove(&lba);
                }
                drop(map);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(map);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the placement of `lba` under `epoch`. A shard at capacity is
    /// cleared wholesale before the insert.
    pub(crate) fn put(&self, lba: u64, epoch: u64, placement: InlinePlacement) {
        let mut map = self.shard(lba).lock().expect("cache shard poisoned");
        if map.len() >= self.per_shard_capacity && !map.contains_key(&lba) {
            map.clear();
        }
        map.insert(lba, Entry { epoch, placement });
    }

    /// Drops every entry and frees the shards' tables (used when the
    /// cache is disabled or stops being consulted).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().expect("cache shard poisoned") = EntryMap::default();
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_only_on_matching_epoch() {
        let cache = PlacementCache::new();
        cache.put(7, 1, InlinePlacement::from_slice(&[10, 20]));
        assert!(cache.get(7, 0).is_none(), "older epoch must not hit");
        assert_eq!(cache.get(7, 1).unwrap().as_slice(), &[10, 20]);
        // Epoch bump: the entry is stale, rejected, and evicted.
        assert!(cache.get(7, 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0, "stale entry evicted on sight");
    }

    #[test]
    fn inline_placement_round_trips() {
        let ids: Vec<u64> = (0..MAX_CACHED_SHARDS as u64).collect();
        let p = InlinePlacement::from_slice(&ids);
        assert_eq!(p.as_slice(), ids.as_slice());
        let mut q = InlinePlacement::empty();
        for &id in &ids[..5] {
            q.push(id);
        }
        assert_eq!(q.as_slice(), &ids[..5]);
    }

    #[test]
    fn capacity_reset_keeps_cache_usable() {
        let mut cache = PlacementCache::new();
        cache.per_shard_capacity = 4;
        for lba in 0..1_000u64 {
            cache.put(lba, 3, InlinePlacement::from_slice(&[lba, lba + 1]));
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4 * CACHE_SHARDS as u64);
        // The most recent insert of some shard is still retrievable.
        cache.put(5_000, 3, InlinePlacement::from_slice(&[1, 2]));
        assert_eq!(cache.get(5_000, 3).unwrap().as_slice(), &[1, 2]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = PlacementCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let lba = t * 1_000 + i;
                        cache.put(lba, 1, InlinePlacement::from_slice(&[lba]));
                        assert_eq!(cache.get(lba, 1).unwrap().as_slice(), &[lba]);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 2_000);
    }
}

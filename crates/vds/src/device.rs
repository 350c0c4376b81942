//! Simulated block storage devices.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rshare_hash::SplitMixState;

use crate::error::VdsError;
use crate::profile::DeviceProfile;

/// Identifies one shard of one redundancy group on a device.
pub(crate) type ShardKey = (u64, usize); // (logical block address, shard index)

/// Operational state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Serving reads and writes.
    Online,
    /// Crashed: contents are gone, I/O is rejected.
    Failed,
}

/// Per-device I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of shard reads served.
    pub reads: u64,
    /// Number of shard writes absorbed.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Simulated time spent serving I/O, in microseconds (see
    /// [`DeviceProfile`]).
    pub busy_us: u64,
}

/// Relaxed-ordering atomic I/O counters, so serving a read needs only
/// `&self` — the counters are independent tallies, not synchronisation.
#[derive(Debug, Default)]
struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    busy_us: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_us: self.busy_us.load(Ordering::Relaxed),
        }
    }
}

/// A simulated storage device holding shards of redundancy groups.
///
/// The device enforces its block capacity, tracks I/O statistics and can be
/// failed (losing all contents) to drive rebuild experiments. Reads take
/// `&self`: shard contents are immutable between writes and the I/O
/// counters are atomic, so concurrent readers need no exclusive access.
#[derive(Debug)]
pub struct Device {
    id: u64,
    capacity_blocks: u64,
    state: DeviceState,
    shards: HashMap<ShardKey, Vec<u8>, SplitMixState>,
    stats: AtomicIoStats,
    profile: DeviceProfile,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        let s = self.stats.snapshot();
        Self {
            id: self.id,
            capacity_blocks: self.capacity_blocks,
            state: self.state,
            shards: self.shards.clone(),
            stats: AtomicIoStats {
                reads: AtomicU64::new(s.reads),
                writes: AtomicU64::new(s.writes),
                bytes_read: AtomicU64::new(s.bytes_read),
                bytes_written: AtomicU64::new(s.bytes_written),
                busy_us: AtomicU64::new(s.busy_us),
            },
            profile: self.profile,
        }
    }
}

impl Device {
    /// Creates an online device able to hold `capacity_blocks` shards.
    #[cfg(test)]
    pub(crate) fn new(id: u64, capacity_blocks: u64) -> Self {
        Self::with_profile(id, capacity_blocks, DeviceProfile::default())
    }

    /// Creates an online device with an explicit performance profile.
    pub(crate) fn with_profile(id: u64, capacity_blocks: u64, profile: DeviceProfile) -> Self {
        Self {
            id,
            capacity_blocks,
            state: DeviceState::Online,
            shards: HashMap::default(),
            stats: AtomicIoStats::default(),
            profile,
        }
    }

    /// The device's performance profile.
    #[must_use]
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// The device identifier (also its placement name).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Capacity in shard blocks.
    #[must_use]
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of shards currently stored.
    #[must_use]
    pub fn used_blocks(&self) -> u64 {
        self.shards.len() as u64
    }

    /// Utilisation in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.used_blocks() as f64 / self.capacity_blocks as f64
    }

    /// Current operational state.
    #[must_use]
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// A consistent-enough snapshot of the I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Marks the device failed and drops its contents.
    pub(crate) fn fail(&mut self) {
        self.state = DeviceState::Failed;
        self.shards.clear();
    }

    /// Stores a shard, taking ownership of `data`. As in
    /// [`Device::store_from`], one hash probe serves both the capacity
    /// check and the insert.
    pub(crate) fn store(&mut self, key: ShardKey, data: Vec<u8>) -> Result<(), VdsError> {
        if self.state == DeviceState::Failed {
            return Err(VdsError::DeviceFailed { id: self.id });
        }
        let len = data.len();
        let used = self.shards.len() as u64;
        match self.shards.entry(key) {
            Entry::Occupied(e) => *e.into_mut() = data,
            Entry::Vacant(e) => {
                if used >= self.capacity_blocks {
                    return Err(VdsError::OutOfSpace { id: self.id });
                }
                e.insert(data);
            }
        }
        self.count_write(len);
        Ok(())
    }

    /// Stores a shard by copying from a borrowed slice, reusing the
    /// existing allocation on overwrite. Semantically identical to
    /// [`Device::store`] (same capacity/failure checks, same counters) but
    /// allocation-free in the steady state of the fused write pipeline,
    /// where every block of a batch overwrites an existing shard.
    pub(crate) fn store_from(&mut self, key: ShardKey, data: &[u8]) -> Result<(), VdsError> {
        if self.state == DeviceState::Failed {
            return Err(VdsError::DeviceFailed { id: self.id });
        }
        // One hash probe for check + write: the occupancy for the capacity
        // check is read before the entry, which then serves both the
        // existence test and the slot.
        let used = self.shards.len() as u64;
        match self.shards.entry(key) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                slot.clear();
                slot.extend_from_slice(data);
            }
            Entry::Vacant(e) => {
                if used >= self.capacity_blocks {
                    return Err(VdsError::OutOfSpace { id: self.id });
                }
                e.insert(data.to_vec());
            }
        }
        self.count_write(data.len());
        Ok(())
    }

    /// Tallies one absorbed shard write of `len` bytes.
    fn count_write(&self, len: usize) {
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats
            .busy_us
            .fetch_add(self.profile.service_us(len), Ordering::Relaxed);
    }

    pub(crate) fn load(&self, key: &ShardKey) -> Option<Vec<u8>> {
        if self.state == DeviceState::Failed {
            return None;
        }
        let data = self.shards.get(key).cloned();
        if let Some(d) = &data {
            self.count_read(d.len());
        }
        data
    }

    /// Removes a shard and hands back its stored allocation — the read
    /// half of a zero-copy move. Counts one read exactly as
    /// [`Device::load`] does; returns `None` (counting nothing) when the
    /// device is failed or the shard is absent.
    pub(crate) fn take(&mut self, key: &ShardKey) -> Option<Vec<u8>> {
        if self.state == DeviceState::Failed {
            return None;
        }
        let data = self.shards.remove(key)?;
        self.count_read(data.len());
        Some(data)
    }

    /// Tallies one served shard read of `len` bytes.
    fn count_read(&self, len: usize) {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats
            .busy_us
            .fetch_add(self.profile.service_us(len), Ordering::Relaxed);
    }

    /// Copies a shard into a caller-provided buffer, avoiding the `Vec`
    /// clone of [`Device::load`]. Returns `false` (without touching `out`
    /// or the counters) when the device is failed, the shard is absent, or
    /// the stored shard's length does not match `out` — the same cases in
    /// which `load` would return `None` or the caller could not use the
    /// data anyway.
    pub(crate) fn load_into(&self, key: &ShardKey, out: &mut [u8]) -> bool {
        if self.state == DeviceState::Failed {
            return false;
        }
        let Some(data) = self.shards.get(key) else {
            return false;
        };
        if data.len() != out.len() {
            debug_assert_eq!(data.len(), out.len(), "shard length mismatch");
            return false;
        }
        out.copy_from_slice(data);
        self.count_read(data.len());
        true
    }

    /// Clears the I/O counters (e.g. between workload phases).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = AtomicIoStats::default();
    }

    pub(crate) fn remove(&mut self, key: &ShardKey) -> Option<Vec<u8>> {
        self.shards.remove(key)
    }

    pub(crate) fn has(&self, key: &ShardKey) -> bool {
        self.state == DeviceState::Online && self.shards.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut d = Device::new(1, 2);
        d.store((0, 0), vec![1]).unwrap();
        d.store((1, 0), vec![2]).unwrap();
        assert_eq!(
            d.store((2, 0), vec![3]),
            Err(VdsError::OutOfSpace { id: 1 })
        );
        // Overwrites of existing shards are always allowed.
        d.store((1, 0), vec![9]).unwrap();
        assert_eq!(d.load(&(1, 0)), Some(vec![9]));
    }

    #[test]
    fn failure_drops_contents_and_rejects_io() {
        let mut d = Device::new(7, 4);
        d.store((0, 0), vec![1, 2, 3]).unwrap();
        d.fail();
        assert_eq!(d.state(), DeviceState::Failed);
        assert_eq!(d.load(&(0, 0)), None);
        assert!(!d.has(&(0, 0)));
        assert_eq!(
            d.store((1, 0), vec![4]),
            Err(VdsError::DeviceFailed { id: 7 })
        );
    }

    #[test]
    fn store_from_matches_store_semantics() {
        let mut d = Device::new(1, 2);
        d.store_from((0, 0), &[1]).unwrap();
        d.store_from((1, 0), &[2]).unwrap();
        assert_eq!(
            d.store_from((2, 0), &[3]),
            Err(VdsError::OutOfSpace { id: 1 })
        );
        // Overwrites reuse the existing slot and are always allowed.
        d.store_from((1, 0), &[9, 9]).unwrap();
        assert_eq!(d.load(&(1, 0)), Some(vec![9, 9]));
        d.fail();
        assert_eq!(
            d.store_from((0, 0), &[4]),
            Err(VdsError::DeviceFailed { id: 1 })
        );
    }

    #[test]
    fn load_into_matches_load() {
        let mut d = Device::new(3, 4);
        d.store((5, 1), vec![7, 8, 9]).unwrap();
        let mut buf = [0u8; 3];
        assert!(d.load_into(&(5, 1), &mut buf));
        assert_eq!(buf, [7, 8, 9]);
        // Missing shard: untouched buffer, no read counted.
        let before = d.stats();
        let mut other = [1u8; 3];
        assert!(!d.load_into(&(6, 0), &mut other));
        assert_eq!(other, [1u8; 3]);
        assert_eq!(d.stats().reads, before.reads);
        // Counters match what load would have recorded.
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes_read, 3);
    }

    #[test]
    fn take_moves_the_stored_allocation() {
        let mut d = Device::new(4, 4);
        let payload = vec![5u8; 32];
        let ptr = payload.as_ptr();
        d.store((2, 1), payload).unwrap();
        let busy_before = d.stats().busy_us;
        let taken = d.take(&(2, 1)).expect("present");
        // The very allocation that was stored comes back: no copy.
        assert_eq!(taken.as_ptr(), ptr);
        assert_eq!(taken, vec![5u8; 32]);
        assert_eq!(d.used_blocks(), 0);
        // Counted exactly like one `load` of the shard.
        let s = d.stats();
        assert_eq!((s.reads, s.bytes_read), (1, 32));
        assert_eq!(s.busy_us - busy_before, d.profile().service_us(32));
        // Absent key: nothing returned, nothing counted.
        assert_eq!(d.take(&(2, 1)), None);
        assert_eq!(d.stats().reads, 1);
        // Failed device: nothing returned, nothing counted.
        d.store((3, 0), vec![1]).unwrap();
        d.fail();
        assert_eq!(d.take(&(3, 0)), None);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn stats_track_io() {
        let mut d = Device::new(2, 10);
        d.store((0, 0), vec![0; 16]).unwrap();
        d.store((1, 1), vec![0; 16]).unwrap();
        let _ = d.load(&(0, 0));
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 16);
        assert!((d.utilization() - 0.2).abs() < 1e-12);
    }
}

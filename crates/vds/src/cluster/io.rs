//! Block I/O: the fused encode → place → store write pipeline and the
//! read paths, with degraded reads falling back to reconstruction.

use rshare_erasure::ErasureCode;
use rshare_obs::SpanTimer;

use super::StorageCluster;
use crate::error::VdsError;
use crate::redundancy::Redundancy;

/// Domain separator for the per-block read-copy rotation.
const READ_BALANCE_DOMAIN: u64 = 0x5245_4144; // "READ"

/// One successful read in this many is timed into the `read_latency_ns`
/// histogram. The read *counters* stay exact; only latency is sampled.
const LATENCY_SAMPLE: u64 = 64;

impl StorageCluster {
    /// Writes one logical block: a one-block [`StorageCluster::write_blocks`]
    /// batch.
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `data` is not exactly one block.
    /// * [`VdsError::OutOfSpace`] / [`VdsError::DeviceFailed`] from the
    ///   target devices.
    pub fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), VdsError> {
        self.write_blocks(std::slice::from_ref(&lba), data)
    }

    /// Writes many logical blocks through the fused stripe pipeline:
    /// encode → place → shard-store per block. Data shards are stored
    /// straight from `data` (never copied into owned shards —
    /// [`rshare_erasure::ErasureCode::encode_parity`]), parity scratch is
    /// hoisted out of the loop, and device-side overwrites recycle the
    /// stored `Vec`, so the steady state allocates nothing per block.
    /// `data` is the concatenation of the blocks, in `lbas` order.
    ///
    /// Cluster state, placements, metrics and per-device I/O counters are
    /// identical to writing the blocks one per batch (proptest-pinned).
    /// Encode parities stream through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]).
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `data` is not exactly
    ///   `lbas.len()` blocks.
    /// * [`VdsError::OutOfSpace`] / [`VdsError::DeviceFailed`] from the
    ///   target devices; blocks before the failing one remain written,
    ///   exactly as with a per-block loop. A failing block that awaits
    ///   lazy migration stays pending, so it keeps reading from its old
    ///   copies.
    pub fn write_blocks(&mut self, lbas: &[u64], data: &[u8]) -> Result<(), VdsError> {
        let result = self.store_blocks(lbas, data);
        if result.is_err() {
            // A failed write may leave a block part-stored; the damage
            // ledger no longer vouches for it.
            self.damage = None;
        }
        result
    }

    /// The body of [`StorageCluster::write_blocks`].
    fn store_blocks(&mut self, lbas: &[u64], data: &[u8]) -> Result<(), VdsError> {
        let expected = lbas.len() * self.block_size;
        if data.len() != expected {
            return Err(VdsError::WrongBlockSize {
                expected,
                got: data.len(),
            });
        }
        if lbas.is_empty() {
            return Ok(());
        }
        // Data shards are borrowed straight out of `data`; only parity is
        // materialized, into scratch that lives across the whole batch
        // (`encode_parity` resizes it in place each iteration).
        let mut parity: Vec<Vec<u8>> =
            vec![Vec::new(); self.codec.as_deref().map_or(0, ErasureCode::parity_shards)];
        let mut refs: Vec<&[u8]> = Vec::new();
        let mut old_ids: Vec<u64> = Vec::new();
        let shard_len = self.shard_len();
        for (&lba, block) in lbas.iter().zip(data.chunks_exact(self.block_size)) {
            refs.clear();
            if let Some(codec) = self.codec.as_deref() {
                refs.extend(block.chunks_exact(shard_len));
                codec.encode_parity(&refs, &mut parity)?;
            } else {
                // Mirroring: every copy is the block itself.
                refs.extend(std::iter::repeat_n(block, self.redundancy.total_shards()));
            }
            // Writes always land at the target placement.
            let placement = self.target_placement(lba);
            let total = refs.len() + parity.len();
            for (i, &dev_id) in placement.iter().enumerate().take(total) {
                let shard: &[u8] = if i < refs.len() {
                    refs[i]
                } else {
                    &parity[i - refs.len()]
                };
                let device = self
                    .devices
                    .get_mut(&dev_id)
                    .ok_or(VdsError::UnknownDevice { id: dev_id })?;
                device.store_from((lba, i), shard)?;
            }
            // Once every shard is stored, a block that was awaiting lazy
            // migration has completed it for free: it leaves the pending
            // set and its old copies go.
            if let Some(p) = &mut self.pending {
                if p.remaining.remove(&lba) {
                    old_ids.clear();
                    p.old_strategy.place_each(lba, |id| old_ids.push(id));
                    for (i, (&old, &new)) in old_ids.iter().zip(placement.iter()).enumerate() {
                        if old != new {
                            if let Some(d) = self.devices.get_mut(&old) {
                                d.remove(&(lba, i));
                            }
                        }
                    }
                }
            }
            self.blocks.insert(lba);
            if let Some(m) = &self.metrics {
                m.writes_total.inc();
            }
        }
        Ok(())
    }

    /// Reads one logical block, touching as few devices as possible:
    /// mirrored blocks read a single copy (rotated over the copies so read
    /// load follows capacity — the paper's "x% of the requests" fairness),
    /// erasure-coded blocks read only the data shards. Missing shards
    /// degrade transparently to reconstruction.
    ///
    /// # Errors
    ///
    /// * [`VdsError::BlockNotFound`] if the block was never written.
    /// * [`VdsError::DataLoss`] if too many shards are gone.
    pub fn read_block(&self, lba: u64) -> Result<Vec<u8>, VdsError> {
        let mut block = vec![0u8; self.block_size];
        self.read_block_into(lba, &mut block)?;
        Ok(block)
    }

    /// Reads one logical block into a caller-provided buffer — the
    /// zero-allocation variant of [`StorageCluster::read_block`]: the
    /// common path copies shards straight into `buf` with no per-read
    /// `Vec` allocation. Semantics, metrics and device counters are
    /// identical to `read_block` (which delegates here).
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `buf` is not exactly one block.
    /// * Otherwise the same conditions as [`StorageCluster::read_block`].
    pub fn read_block_into(&self, lba: u64, buf: &mut [u8]) -> Result<(), VdsError> {
        if buf.len() != self.block_size {
            return Err(VdsError::WrongBlockSize {
                expected: self.block_size,
                got: buf.len(),
            });
        }
        let Some(m) = &self.metrics else {
            return self.read_into_inner(lba, buf).map(|_| ());
        };
        // Counters are exact; the latency histogram samples one read in
        // [`LATENCY_SAMPLE`] — timing every read would spend two
        // monotonic-clock reads on a cached path that otherwise costs a
        // few atomic increments. The span records when it drops at the
        // end of the success path; failed reads cancel it.
        let span = (m.reads_total.get() % LATENCY_SAMPLE == 0)
            .then(|| SpanTimer::new(&*m.read_latency_ns));
        match self.read_into_inner(lba, buf) {
            Ok(degraded) => {
                m.reads_total.inc();
                if degraded {
                    m.degraded_reads_total.inc();
                }
                Ok(())
            }
            Err(e) => {
                if let Some(span) = span {
                    span.cancel();
                }
                Err(e)
            }
        }
    }

    /// The uninstrumented read path. The boolean is `true` when the read
    /// was *degraded*: served from a non-preferred mirror copy or via
    /// erasure reconstruction.
    fn read_into_inner(&self, lba: u64, buf: &mut [u8]) -> Result<bool, VdsError> {
        if !self.blocks.contains(&lba) {
            return Err(VdsError::BlockNotFound { lba });
        }
        // Cached (and, on miss, inline-computed) placement: the lookup
        // itself allocates nothing for groups that fit the inline array.
        let placement = self.effective_placement(lba);
        let k = placement.len();
        if let Redundancy::Mirror { .. } = self.redundancy {
            // Deterministic per-block copy preference: each block pins a
            // copy index, so over many blocks every bin serves reads in
            // proportion to the copies it holds (∝ capacity).
            let preferred =
                (rshare_hash::stable_hash2(lba, READ_BALANCE_DOMAIN) % k as u64) as usize;
            for step in 0..k {
                let i = (preferred + step) % k;
                if self
                    .devices
                    .get(&placement[i])
                    .is_some_and(|d| d.load_into(&(lba, i), buf))
                {
                    return Ok(step > 0);
                }
            }
            return Err(VdsError::DataLoss { lba });
        }
        let d = self.codec()?.data_shards();
        let shard_len = self.shard_len();
        // Fast path: copy each data shard straight into its stripe segment
        // of `buf` — no per-shard `Vec`.
        let mut loaded = 0;
        for seg in buf.chunks_exact_mut(shard_len) {
            if !self
                .devices
                .get(&placement[loaded])
                .is_some_and(|dev| dev.load_into(&(lba, loaded), seg))
            {
                break;
            }
            loaded += 1;
        }
        if loaded == d {
            return Ok(false);
        }
        // Degraded read: keep what the fast path already pulled, gather the
        // remaining data and parity shards, reconstruct. Every surviving
        // shard is read once: the prefix is not re-read.
        let mut shards: Vec<Option<Vec<u8>>> = buf[..loaded * shard_len]
            .chunks_exact(shard_len)
            .map(|s| Some(s.to_vec()))
            .collect();
        shards.extend((loaded..k).map(|i| self.load_shard(placement[i], lba, i)));
        self.reconstruct_group(&mut shards, lba)?;
        for (seg, shard) in buf.chunks_exact_mut(shard_len).zip(&shards) {
            seg.copy_from_slice(shard.as_deref().ok_or(VdsError::Internal {
                reason: "reconstruction left a data shard missing",
            })?);
        }
        Ok(true)
    }

    /// Reads many logical blocks in `lbas` order, returning them in that
    /// order. Each read is served through
    /// [`StorageCluster::read_block_into`], so the only per-block
    /// allocation is the returned block itself.
    ///
    /// The reads run serially on the calling thread: a scoped-thread
    /// fan-out measured slower than this loop on two cores. Reading stops
    /// at the first error, so blocks after a failing one are never read
    /// and their devices count no I/O.
    ///
    /// # Errors
    ///
    /// The first error in `lbas` order, under the same conditions as
    /// [`StorageCluster::read_block`].
    pub fn read_blocks(&self, lbas: &[u64]) -> Result<Vec<Vec<u8>>, VdsError> {
        lbas.iter().map(|&lba| self.read_block(lba)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{block, mirror_cluster};

    #[test]
    fn write_read_roundtrip() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..200u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        assert_eq!(c.block_count(), 200);
        assert!(matches!(
            c.read_block(10_000),
            Err(VdsError::BlockNotFound { lba: 10_000 })
        ));
        assert!(matches!(
            c.write_block(0, &[0u8; 7]),
            Err(VdsError::WrongBlockSize {
                expected: 64,
                got: 7
            })
        ));
    }

    #[test]
    fn write_blocks_matches_write_block_loop() {
        let rs = || {
            StorageCluster::builder()
                .block_size(64)
                .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
                .device(0, 10_000)
                .device(1, 10_000)
                .device(2, 10_000)
                .device(3, 10_000)
                .device(4, 10_000)
                .device(5, 10_000)
                .device(6, 10_000)
                .build()
                .unwrap()
        };
        let (mut fused, mut looped) = (rs(), rs());
        let lbas: Vec<u64> = (0..300u64).collect();
        let mut data = Vec::new();
        for &lba in &lbas {
            data.extend_from_slice(&block(lba as u8, 64));
        }
        fused.write_blocks(&lbas, &data).unwrap();
        for (&lba, chunk) in lbas.iter().zip(data.chunks_exact(64)) {
            looped.write_block(lba, chunk).unwrap();
        }
        assert_eq!(fused.block_count(), looped.block_count());
        for id in fused.device_ids() {
            let (f, l) = (fused.device(id).unwrap(), looped.device(id).unwrap());
            assert_eq!(f.used_blocks(), l.used_blocks(), "device {id}");
            assert_eq!(f.stats(), l.stats(), "device {id} I/O counters");
        }
        for &lba in &lbas {
            assert_eq!(fused.read_block(lba).unwrap(), block(lba as u8, 64));
            assert_eq!(fused.placement(lba), looped.placement(lba));
        }
        // Batch size validation.
        assert!(matches!(
            fused.write_blocks(&[0, 1], &[0u8; 64]),
            Err(VdsError::WrongBlockSize {
                expected: 128,
                got: 64
            })
        ));
        // Empty batch is a no-op.
        fused.write_blocks(&[], &[]).unwrap();
    }

    #[test]
    fn read_block_into_matches_read_block() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for lba in 0..50u64 {
            c.read_block_into(lba, &mut buf).unwrap();
            assert_eq!(buf, block(lba as u8, 64));
        }
        assert!(matches!(
            c.read_block_into(0, &mut [0u8; 7]),
            Err(VdsError::WrongBlockSize {
                expected: 64,
                got: 7
            })
        ));
        assert!(matches!(
            c.read_block_into(9_999, &mut buf),
            Err(VdsError::BlockNotFound { lba: 9_999 })
        ));
    }

    #[test]
    fn read_blocks_matches_sequential_reads() {
        let mut c = mirror_cluster();
        for lba in 0..700u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Reverse order, so result ordering is actually exercised.
        let lbas: Vec<u64> = (0..700u64).rev().collect();
        let blocks = c.read_blocks(&lbas).unwrap();
        assert_eq!(blocks.len(), lbas.len());
        for (got, &lba) in blocks.iter().zip(&lbas) {
            assert_eq!(got, &block(lba as u8, 64), "lba {lba}");
        }
        // Each mirrored read touched exactly one device.
        let total_reads: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        assert_eq!(total_reads, lbas.len() as u64);
        // Errors propagate.
        assert!(matches!(
            c.read_blocks(&[0, 10_000]),
            Err(VdsError::BlockNotFound { lba: 10_000 })
        ));
        // Empty batch is fine.
        assert_eq!(c.read_blocks(&[]).unwrap().len(), 0);
    }

    #[test]
    fn read_blocks_stops_at_first_error() {
        let mut c = mirror_cluster();
        for lba in (0..256u64).filter(|&lba| lba != 100) {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let reads = |c: &StorageCluster| -> u64 {
            c.device_ids()
                .iter()
                .map(|id| c.device(*id).unwrap().stats().reads)
                .sum()
        };
        let before = reads(&c);
        let lbas: Vec<u64> = (0..256u64).collect();
        assert!(matches!(
            c.read_blocks(&lbas),
            Err(VdsError::BlockNotFound { lba: 100 })
        ));
        // Blocks 0..100 were read (one mirror copy each); none after 100.
        assert_eq!(reads(&c) - before, 100);
    }

    #[test]
    fn degraded_read_after_failure() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(2).unwrap();
        for lba in 0..300u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn erasure_coded_cluster_survives_double_failure() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Rdp { p: 5 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(4, 10_000)
            .device(5, 10_000)
            .device(6, 10_000)
            .device(7, 10_000)
            .build()
            .unwrap();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(0).unwrap();
        c.fail_device(4).unwrap();
        for lba in 0..200u64 {
            assert_eq!(
                c.read_block(lba).unwrap(),
                block(lba as u8, 64),
                "lba {lba}"
            );
        }
        let report = c.rebuild().unwrap();
        assert!(report.shards_reconstructed > 0);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn mirror_reads_touch_one_device_and_follow_capacity() {
        let mut c = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 20_000)
            .device(2, 30_000)
            .device(3, 40_000)
            .build()
            .unwrap();
        let blocks = 6_000u64;
        for lba in 0..blocks {
            c.write_block(lba, &block(lba as u8, 16)).unwrap();
        }
        for lba in 0..blocks {
            c.read_block(lba).unwrap();
        }
        let total_reads: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        // One shard read per block read.
        assert_eq!(total_reads, blocks);
        // Read load follows capacity share ("x% of the requests").
        let total_cap = 100_000u64;
        for id in c.device_ids() {
            let dev = c.device(id).unwrap();
            let got = dev.stats().reads as f64 / total_reads as f64;
            let want = dev.capacity_blocks() as f64 / total_cap as f64;
            assert!(
                (got - want).abs() / want < 0.08,
                "device {id}: read share {got:.4} vs capacity share {want:.4}"
            );
        }
    }

    #[test]
    fn erasure_fast_path_skips_parity_reads() {
        let mut c = StorageCluster::builder()
            .block_size(32)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .device(2, 1_000)
            .device(3, 1_000)
            .device(4, 1_000)
            .device(5, 1_000)
            .build()
            .unwrap();
        c.write_block(0, &block(3, 32)).unwrap();
        let writes: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        assert_eq!(writes, 0);
        c.read_block(0).unwrap();
        let reads: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        // Healthy read touches exactly the 4 data shards.
        assert_eq!(reads, 4);
    }

    #[test]
    fn failed_write_keeps_pending_block_at_its_old_placement() {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..8 {
            b = b.device(id, 10_000);
        }
        let mut c = b.build().unwrap();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 20_000).unwrap();
        c.fail_device(9).unwrap();
        // Blocks whose target placement includes the failed device fail
        // to write; they must stay pending and readable at their old,
        // intact copies.
        let failed = (0..1_000u64)
            .filter(|&lba| c.write_block(lba, &block(!(lba as u8), 64)).is_err())
            .count();
        assert!(failed > 0, "some target placements include device 9");
        let readable = |c: &StorageCluster| {
            for lba in 0..1_000u64 {
                let got = c.read_block(lba).unwrap();
                assert!(
                    got == block(lba as u8, 64) || got == block(!(lba as u8), 64),
                    "lba {lba} reads neither the old nor the new bytes"
                );
            }
        };
        readable(&c);
        assert_eq!(c.pending_blocks(), failed as u64);
        c.rebuild().unwrap();
        assert_eq!(c.pending_blocks(), 0);
        readable(&c);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn lazy_migration_write_finalizes_block() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        let before = c.pending_blocks();
        // Overwriting a pending block completes its migration.
        c.write_block(5, &block(0xEE, 64)).unwrap();
        assert_eq!(c.pending_blocks(), before - 1);
        assert_eq!(c.read_block(5).unwrap(), block(0xEE, 64));
        // No stale shards linger anywhere: total shards = 2 per block.
        let total: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().used_blocks())
            .sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn metrics_count_reads_writes_and_latency() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..50u64 {
            c.read_block(lba).unwrap();
        }
        assert!(c.read_block(10_000).is_err()); // failed reads record nothing
        let reg = c.metrics_registry().expect("metrics on by default");
        assert_eq!(reg.counter("writes_total", "").get(), 50);
        assert_eq!(reg.counter("reads_total", "").get(), 50);
        assert_eq!(reg.counter("degraded_reads_total", "").get(), 0);
        // Latency is sampled one read in `LATENCY_SAMPLE`: 50 reads
        // sample exactly once (at reads_total == 0).
        let lat = reg.histogram("read_latency_ns", "").snapshot();
        assert_eq!(lat.count, 1, "latency histogram samples 1/{LATENCY_SAMPLE}");
        assert!(lat.sum > 0);
    }

    #[test]
    fn degraded_reads_are_counted_exactly() {
        let mut c = mirror_cluster();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(2).unwrap();
        for lba in 0..100u64 {
            c.read_block(lba).unwrap();
        }
        let reg = c.metrics_registry().unwrap();
        // Exactly the blocks whose preferred copy lived on device 2 fell
        // back to another copy.
        let expected: u64 = (0..100u64)
            .filter(|&lba| {
                let placement = c.placement(lba);
                let preferred = (rshare_hash::stable_hash2(lba, READ_BALANCE_DOMAIN)
                    % placement.len() as u64) as usize;
                placement[preferred] == 2
            })
            .count() as u64;
        assert!(expected > 0, "some preferred copies must be on device 2");
        assert_eq!(reg.counter("degraded_reads_total", "").get(), expected);
        assert_eq!(reg.counter("reads_total", "").get(), 100);
    }
}

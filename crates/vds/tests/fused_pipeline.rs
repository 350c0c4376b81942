//! Property-based parity tests for the fused stripe pipeline.
//!
//! `write_blocks` is an allocation optimisation, not a semantic change:
//! after any prelude of membership churn (including a half-finished lazy
//! migration, so batch writes complete pending moves), a batch write must
//! leave the cluster bit-identical — blocks, placements, per-device
//! contents *and I/O counters* — to calling `write_block` once per block.
//! Likewise `read_block_into` must agree with `read_block` on healthy and
//! degraded clusters.

use proptest::prelude::*;
use rshare_vds::{Redundancy, StorageCluster};

const BLOCK_SIZE: usize = 64;

fn payload(lba: u64, salt: u8) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| {
            (lba as u8)
                .wrapping_add(i as u8)
                .wrapping_mul(31)
                .wrapping_add(salt)
        })
        .collect()
}

fn build(redundancy: Redundancy) -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(redundancy)
        .device(0, 8_000)
        .device(1, 10_000)
        .device(2, 12_000)
        .device(3, 9_000)
        .device(4, 11_000)
        .device(5, 10_500)
        .device(6, 9_500)
        .build()
        .unwrap()
}

fn redundancy_for(kind: u8) -> Redundancy {
    match kind % 3 {
        0 => Redundancy::Mirror { copies: 2 },
        1 => Redundancy::ReedSolomon { data: 4, parity: 2 },
        _ => Redundancy::XorParity { data: 4 },
    }
}

/// Asserts the two clusters are observably identical.
fn assert_same_state(fused: &StorageCluster, looped: &StorageCluster, lbas: &[u64]) {
    assert_eq!(fused.block_count(), looped.block_count());
    assert_eq!(fused.pending_blocks(), looped.pending_blocks());
    assert_eq!(fused.device_ids(), looped.device_ids());
    for id in fused.device_ids() {
        let (f, l) = (
            fused.device(id).expect("device"),
            looped.device(id).expect("device"),
        );
        assert_eq!(f.used_blocks(), l.used_blocks(), "device {id} occupancy");
        assert_eq!(f.stats(), l.stats(), "device {id} I/O counters");
    }
    for &lba in lbas {
        assert_eq!(fused.placement(lba), looped.placement(lba), "lba {lba}");
        assert_eq!(
            fused.read_block(lba).expect("read"),
            looped.read_block(lba).expect("read"),
            "lba {lba}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `write_blocks` == repeated `write_block`, including batches that
    /// overwrite existing blocks and complete lazy migrations.
    #[test]
    fn write_blocks_equals_write_block_loop(
        kind in any::<u8>(),
        count in 1usize..=80,
        salt in any::<u8>(),
        lazy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let redundancy = redundancy_for(kind);
        let mut fused = build(redundancy);
        let mut looped = build(redundancy);
        // Shared prelude on both clusters: seed some blocks, optionally
        // leave a lazy migration half-finished so the batch write has
        // pending moves to complete.
        let prelude: Vec<u64> = (0..40u64).collect();
        for c in [&mut fused, &mut looped] {
            for &lba in &prelude {
                c.write_block(lba, &payload(lba, 0)).unwrap();
            }
            if lazy {
                c.add_device_lazy(100, 9_000).unwrap();
                c.migrate_batch(10).unwrap();
            }
        }
        // The batch overlaps the prelude (overwrites + fresh blocks) and
        // may repeat an lba within the batch.
        let lbas: Vec<u64> = (0..count as u64)
            .map(|i| (seed.rotate_left(i as u32) % 60).wrapping_add(i % 3))
            .collect();
        let mut data = Vec::with_capacity(lbas.len() * BLOCK_SIZE);
        for (i, &lba) in lbas.iter().enumerate() {
            data.extend_from_slice(&payload(lba, salt.wrapping_add(i as u8)));
        }
        fused.write_blocks(&lbas, &data).unwrap();
        for (&lba, chunk) in lbas.iter().zip(data.chunks_exact(BLOCK_SIZE)) {
            looped.write_block(lba, chunk).unwrap();
        }
        let mut all: Vec<u64> = prelude.iter().chain(&lbas).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_same_state(&fused, &looped, &all);
    }

    /// `read_block_into` returns exactly what `read_block` returns, on
    /// healthy clusters and degraded ones (mirror copy loss / erasure
    /// reconstruction), without touching bytes beyond the block.
    #[test]
    fn read_block_into_equals_read_block(
        kind in any::<u8>(),
        degrade in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let redundancy = redundancy_for(kind);
        let mut c = build(redundancy);
        let lbas: Vec<u64> = (0..50u64).collect();
        for &lba in &lbas {
            c.write_block(lba, &payload(lba, 7)).unwrap();
        }
        if degrade {
            // Fail one device (within every scheme's tolerance) so some
            // reads go through the degraded path.
            let ids = c.device_ids();
            c.fail_device(ids[(seed % ids.len() as u64) as usize]).unwrap();
        }
        let mut buf = vec![0xEEu8; BLOCK_SIZE];
        for &lba in &lbas {
            let want = c.read_block(lba).expect("read_block");
            c.read_block_into(lba, &mut buf).expect("read_block_into");
            prop_assert_eq!(&buf, &want, "lba {}", lba);
        }
    }
}

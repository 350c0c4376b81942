//! Layer replays for the traced run: each times one layer's public entry
//! point in isolation, on the workload's own addresses and blocks and on
//! the cluster's current device set.

use std::hint::black_box;
use std::time::Instant;

use rshare_core::{BinId, PlacementStrategy};
use rshare_erasure::{ErasureCode, ReedSolomon};
use rshare_vds::StorageCluster;

use crate::oracle;
use crate::spec::{Op, Spec, BLOCK_SIZE};
use crate::stats::median;

/// Repetitions of each replay; the median is reported.
const REPS: usize = 5;

/// Up to `n` addresses in the order the workload touches them.
pub fn workload_lbas(spec: &Spec, n: usize) -> Vec<u64> {
    spec.ops
        .iter()
        .filter_map(|op| match *op {
            Op::Read(lba) | Op::Scan(lba) | Op::Write { lba, .. } => Some(lba),
            Op::Event(_) => None,
        })
        .take(n)
        .collect()
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&mut v)
}

/// ns per `place_into` over `lbas`.
pub fn place_ns(strategy: &dyn PlacementStrategy, lbas: &[u64]) -> f64 {
    let mut out: Vec<BinId> = Vec::with_capacity(strategy.replication());
    median_of(|| {
        let t = Instant::now();
        for &lba in lbas {
            strategy.place_into(black_box(lba), &mut out);
            black_box(&out);
        }
        t.elapsed().as_nanos() as f64 / lbas.len() as f64
    })
}

/// ns per block of `place_batch_into` over `lbas` in 4096-block batches.
pub fn place_batch_ns(strategy: &dyn PlacementStrategy, lbas: &[u64]) -> f64 {
    let mut out: Vec<BinId> = Vec::new();
    median_of(|| {
        let t = Instant::now();
        for chunk in lbas.chunks(4096) {
            strategy.place_batch_into(black_box(chunk), &mut out);
            black_box(&out);
        }
        t.elapsed().as_nanos() as f64 / lbas.len() as f64
    })
}

/// RS(4+2) codewords of version 1 of `lbas` (the erasure workloads' code;
/// on the mirror workloads the replay prices the same blocks erasure-coded).
fn stripes(lbas: &[u64]) -> (ReedSolomon, Vec<Vec<Vec<u8>>>) {
    let rs = ReedSolomon::new(4, 2).expect("valid RS geometry");
    let shard = BLOCK_SIZE / rs.data_shards();
    let mut block = vec![0u8; BLOCK_SIZE];
    let words = lbas
        .iter()
        .map(|&lba| {
            oracle::fill(&mut block, lba, 1);
            let mut cw: Vec<Vec<u8>> = block.chunks_exact(shard).map(<[u8]>::to_vec).collect();
            cw.extend((0..rs.parity_shards()).map(|_| vec![0u8; shard]));
            rs.encode(&mut cw).expect("well-formed codeword");
            cw
        })
        .collect();
    (rs, words)
}

/// ns per KiB of user data of `encode_parity` over the stripes of `lbas`.
pub fn encode_ns_per_kib(lbas: &[u64]) -> f64 {
    let (rs, words) = stripes(lbas);
    let mut parity = vec![Vec::new(); rs.parity_shards()];
    let kib = (lbas.len() * BLOCK_SIZE) as f64 / 1024.0;
    median_of(|| {
        let t = Instant::now();
        for cw in &words {
            let data: Vec<&[u8]> = cw[..rs.data_shards()].iter().map(Vec::as_slice).collect();
            rs.encode_parity(&data, &mut parity)
                .expect("well-formed stripe");
            black_box(&parity);
        }
        t.elapsed().as_nanos() as f64 / kib
    })
}

/// ns per KiB of user data of `reconstruct` with data shard 0 (the
/// failed device's) absent. Only the `reconstruct` call is timed.
pub fn reconstruct_ns_per_kib(lbas: &[u64]) -> f64 {
    let (rs, words) = stripes(lbas);
    let kib = (lbas.len() * BLOCK_SIZE) as f64 / 1024.0;
    median_of(|| {
        let mut ns = 0u128;
        for cw in &words {
            let mut shards: Vec<Option<Vec<u8>>> = cw.iter().cloned().map(Some).collect();
            shards[0] = None;
            let t = Instant::now();
            rs.reconstruct(&mut shards)
                .expect("one erasure is within tolerance");
            ns += t.elapsed().as_nanos();
            debug_assert_eq!(shards[0].as_deref(), Some(cw[0].as_slice()));
            black_box(&shards);
        }
        ns as f64 / kib
    })
}

/// ms per `plan_add_device` dry run of a device the size of the median one.
pub fn plan_ms(cluster: &StorageCluster) -> f64 {
    let mut caps: Vec<u64> = cluster.utilization().iter().map(|u| u.2).collect();
    caps.sort_unstable();
    let cap = caps[caps.len() / 2];
    let id = cluster.device_ids().last().copied().unwrap_or(0) + 1_000;
    median_of(|| {
        let t = Instant::now();
        black_box(cluster.plan_add_device(id, cap).expect("a new id is valid"));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// ms per `export_prometheus` scrape.
pub fn scrape_ms(cluster: &StorageCluster) -> f64 {
    median_of(|| {
        let t = Instant::now();
        black_box(cluster.export_prometheus().len());
        t.elapsed().as_secs_f64() * 1e3
    })
}

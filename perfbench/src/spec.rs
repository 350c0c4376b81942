//! Workload definitions. Everything a run feeds the cluster — device set,
//! operation stream, membership-change schedule, failure cycle and
//! shard-loss victims — is generated here from the seed, before any
//! timing starts.

use rshare_vds::Redundancy;
use rshare_workload::generator::ZipfRequests;
use rshare_workload::trace::{TraceConfig, TraceGenerator};

/// Logical block size of every workload.
pub const BLOCK_SIZE: usize = 4096;
/// Blocks per `read_blocks` range scan: past the cluster's fan-out cutoff
/// of 64 reads per thread, so the threaded path runs on two cores.
pub const SCAN_LEN: u64 = 256;
/// Blocks per `migrate_batch` slice after a lazy add.
pub const MIGRATE_SLICE: u64 = 2048;
/// User ops between two `migrate_batch` slices.
pub const SLICE_EVERY: u64 = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mirror{3} on 48 devices, 95 % reads, range scans, no change.
    MirrorRead,
    /// RS(4+2) on 24 devices, 50 % writes, shard loss then `repair()`.
    EcRepair,
    /// RS(4+2) on 24 devices, 50 % writes, device failure, `rebuild()`,
    /// replacement, shard loss and `repair()`.
    EcDegraded,
    /// Mirror{2} on 64–65 devices, 70 % reads, membership churn.
    MirrorChurn,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::MirrorRead,
        Workload::EcRepair,
        Workload::EcDegraded,
        Workload::MirrorChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MirrorRead => "mirror-read",
            Workload::EcRepair => "ec-repair",
            Workload::EcDegraded => "ec-degraded",
            Workload::MirrorChurn => "mirror-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// User ops per second of `--seconds` the workload is sized for: the
    /// rate of the code it was calibrated on, so that one run measures
    /// about `--seconds` seconds of fixed, seed-determined work.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::MirrorRead => 80_000.0,
            Workload::EcRepair => 28_000.0,
            Workload::EcDegraded => 20_000.0,
            Workload::MirrorChurn => 47_000.0,
        }
    }
}

/// A membership, failure or observability event in the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `fail_device` on the online device at `pick % online`.
    FailDevice { pick: u64 },
    /// `rebuild()` after a failure.
    Rebuild,
    /// `add_device` of a replacement device.
    AddReplacement,
    /// `inject_shard_loss` on the victims of `Spec::losses[set]`.
    ShardLoss { set: usize },
    /// `repair()` after shard loss.
    Repair,
    /// `add_device` of a device larger than any initial one.
    AddLarger,
    /// `remove_device` of the smallest online device.
    RemoveSmallest,
    /// `add_device_lazy`, then `migrate_batch` slices between user ops
    /// until nothing is pending.
    AddLazy,
    /// One `export_prometheus()` scrape.
    Scrape,
}

/// One step of the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read_block_into` of one block.
    Read(u64),
    /// `read_blocks` of `SCAN_LEN` contiguous blocks from this address.
    Scan(u64),
    /// `write_blocks` of `len` contiguous blocks from `lba`.
    Write { lba: u64, len: u32 },
    /// A non-user event.
    Event(Event),
}

/// A fully generated workload instance.
pub struct Spec {
    pub workload: Workload,
    pub redundancy: Redundancy,
    /// Initial `(id, capacity in shards)` devices.
    pub devices: Vec<(u64, u64)>,
    /// Working set: blocks `0..blocks`, all written during set-up.
    pub blocks: u64,
    /// The measured phase.
    pub ops: Vec<Op>,
    /// Equal slices of the user ops the phase is measured in; each is one
    /// period of the event schedule.
    pub windows: u64,
    /// Shard-loss victims `(lba, shard)`, one set per `ShardLoss` event.
    pub losses: Vec<Vec<(u64, usize)>>,
    /// Capacity of devices added by events.
    pub added_capacity: u64,
    /// Capacity of devices added lazily.
    pub lazy_capacity: u64,
}

/// SplitMix64: the benchmark's own seeded generator for choices the
/// workload crate has no sampler for.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` devices with capacities `base × {1, 2, 3, 4}` in rotation: a fixed,
/// heterogeneous pool, so placement fairness does not depend on the seed.
fn pool(n: u64, base: u64) -> Vec<(u64, u64)> {
    (0..n).map(|id| (id, base * (1 + id % 4))).collect()
}

/// Inserts `events` (sorted by user-op position) into the user-op stream.
fn merge(user: Vec<Op>, mut events: Vec<(u64, Event)>) -> Vec<Op> {
    events.sort_by_key(|&(pos, _)| pos);
    let mut out = Vec::with_capacity(user.len() + events.len());
    let mut next = events.into_iter().peekable();
    for (i, op) in user.into_iter().enumerate() {
        while let Some(&(pos, ev)) = next.peek() {
            if pos > i as u64 {
                break;
            }
            out.push(Op::Event(ev));
            next.next();
        }
        out.push(op);
    }
    out.extend(next.map(|(_, ev)| Op::Event(ev)));
    out
}

/// `pos` moved by up to ±`spread` user ops, seeded.
fn jitter(rng: &mut Rng, pos: u64, spread: u64) -> u64 {
    pos + rng.below(2 * spread + 1) - spread
}

/// Start of a run of `len` blocks at `lba`, clamped into the working set.
fn clamp(lba: u64, len: u64, blocks: u64) -> u64 {
    lba.min(blocks - len)
}

impl Spec {
    /// Generates the workload for `seed`, sized for `seconds` of work.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Spec {
        let user_ops = (workload.ops_per_second() * seconds.max(1) as f64) as u64;
        let mut rng = Rng::new(seed);
        match workload {
            Workload::MirrorRead => mirror_read(seed, user_ops, &mut rng),
            Workload::EcRepair | Workload::EcDegraded => {
                erasure(workload, seed, user_ops, &mut rng)
            }
            Workload::MirrorChurn => mirror_churn(seed, user_ops, &mut rng),
        }
    }

    /// Number of user ops (reads, scans, writes) in the measured phase.
    pub fn user_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| !matches!(op, Op::Event(_)))
            .count() as u64
    }
}

/// Mirror{3}, 48 devices, 64 Ki blocks: 95 % point reads, 5 % single-block
/// writes, 1 % 256-block scans, 80/20 hot-set skew, no membership change.
fn mirror_read(seed: u64, user_ops: u64, rng: &mut Rng) -> Spec {
    let blocks = 65_536;
    let mut trace = TraceGenerator::new(
        TraceConfig {
            address_space: blocks,
            read_fraction: 0.95,
            mean_run_length: 1,
            hot_fraction: 0.8,
            hot_set_fraction: 0.2,
        },
        seed,
    );
    let ops = (0..user_ops)
        .map(|_| {
            let t = trace.next_op();
            if rng.unit() < 0.01 {
                Op::Scan(clamp(t.lba(), SCAN_LEN, blocks))
            } else if t.is_read() {
                Op::Read(t.lba())
            } else {
                Op::Write {
                    lba: t.lba(),
                    len: 1,
                }
            }
        })
        .collect();
    Spec {
        workload: Workload::MirrorRead,
        redundancy: Redundancy::Mirror { copies: 3 },
        devices: pool(48, 4096),
        blocks,
        ops,
        windows: 40,
        losses: Vec::new(),
        added_capacity: 0,
        lazy_capacity: 0,
    }
}

/// RS(4+2), 24 devices, 32 Ki blocks: 50 % writes (`write_blocks` of one
/// block, and of 16 blocks for a third of them, so the write median and
/// 99th percentile each sit inside one mode), 50 % point reads, 0.5 %
/// scans, and a repeating cycle of faults. `ec-degraded` fails a device,
/// rebuilds, adds a replacement, then loses shards and repairs;
/// `ec-repair` only loses shards, serves degraded I/O, and repairs.
fn erasure(workload: Workload, seed: u64, user_ops: u64, rng: &mut Rng) -> Spec {
    let blocks = 32_768;
    let k = 6;
    let mut trace = TraceGenerator::new(
        TraceConfig {
            address_space: blocks,
            read_fraction: 0.5,
            mean_run_length: 1,
            hot_fraction: 0.8,
            hot_set_fraction: 0.2,
        },
        seed,
    );
    let user: Vec<Op> = (0..user_ops)
        .map(|_| {
            let t = trace.next_op();
            if rng.unit() < 0.005 {
                Op::Scan(clamp(t.lba(), SCAN_LEN, blocks))
            } else if t.is_read() {
                Op::Read(t.lba())
            } else {
                let len = if rng.unit() < 1.0 / 3.0 { 16 } else { 1 };
                Op::Write {
                    lba: clamp(t.lba(), len, blocks),
                    len: len as u32,
                }
            }
        })
        .collect();
    // One fault cycle per window. A device rebuild moves a 24th of the
    // data, so `ec-degraded` runs fewer, longer cycles.
    let cycles = if workload == Workload::EcDegraded {
        8
    } else {
        40
    };
    let cycle = user_ops / cycles;
    let spread = cycle / 40;
    let mut events = Vec::new();
    let mut losses = Vec::new();
    for c in 0..cycles {
        let at = |frac: f64| c * cycle + (cycle as f64 * frac) as u64;
        let set = losses.len();
        // 2 % of the blocks, distinct, lose one shard each: within the
        // code's tolerance, so `repair()` can restore every one.
        let mut victims = std::collections::BTreeSet::new();
        while victims.len() < (blocks / 50) as usize {
            victims.insert(rng.below(blocks));
        }
        losses.push(
            victims
                .into_iter()
                .map(|lba| (lba, rng.below(k) as usize))
                .collect(),
        );
        if workload == Workload::EcDegraded {
            let fail = jitter(rng, at(0.2), spread);
            let rebuild = jitter(rng, at(0.45), spread);
            let loss = jitter(rng, at(0.75), spread);
            events.push((
                fail,
                Event::FailDevice {
                    pick: rng.next_u64(),
                },
            ));
            events.push((rebuild, Event::Rebuild));
            events.push((rebuild, Event::AddReplacement));
            events.push((loss, Event::ShardLoss { set }));
            events.push((loss, Event::Repair));
        } else {
            events.push((jitter(rng, at(0.4), spread), Event::ShardLoss { set }));
            events.push((jitter(rng, at(0.65), spread), Event::Repair));
        }
    }
    Spec {
        workload,
        redundancy: Redundancy::ReedSolomon { data: 4, parity: 2 },
        devices: pool(24, 8192),
        blocks,
        ops: merge(user, events),
        windows: cycles,
        losses,
        added_capacity: 3 * 8192,
        lazy_capacity: 0,
    }
}

/// Mirror{2} (the paper's LinMirror case), 64 devices, 64 Ki blocks: 70 %
/// point reads, 30 % single-block writes, 0.2 % scans over Zipf(0.9)
/// popularity; 40 membership changes cycling add-larger, remove-smallest,
/// lazy add, remove-smallest; 40 Prometheus scrapes.
fn mirror_churn(seed: u64, user_ops: u64, rng: &mut Rng) -> Spec {
    let blocks = 65_536;
    let base = 2048;
    let mut zipf = ZipfRequests::new(blocks, 0.9, seed);
    let user: Vec<Op> = (0..user_ops)
        .map(|_| {
            let lba = zipf.sample();
            let u = rng.unit();
            if u < 0.002 {
                Op::Scan(clamp(lba, SCAN_LEN, blocks))
            } else if u < 0.7 {
                Op::Read(lba)
            } else {
                Op::Write { lba, len: 1 }
            }
        })
        .collect();
    // Each window holds one cycle of four changes, each in the middle of
    // its interval, and a scrape a quarter into every interval.
    let windows = 10;
    let changes = 4 * windows;
    let interval = user_ops / changes;
    let mut events = Vec::new();
    for c in 0..changes {
        let ev = match c % 4 {
            0 => Event::AddLarger,
            2 => Event::AddLazy,
            _ => Event::RemoveSmallest,
        };
        events.push((jitter(rng, c * interval + interval / 2, interval / 10), ev));
        events.push((c * interval + interval / 4, Event::Scrape));
    }
    Spec {
        workload: Workload::MirrorChurn,
        redundancy: Redundancy::Mirror { copies: 2 },
        devices: pool(64, base),
        blocks,
        ops: merge(user, events),
        windows,
        losses: Vec::new(),
        added_capacity: 6 * base,
        lazy_capacity: 5 * base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-independent part of a workload: the event sequence (with
    /// seed-dependent payloads blanked) and the shard-loss set sizes.
    fn schedule(spec: &Spec) -> (Vec<Event>, Vec<usize>) {
        let events = spec
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::Event(Event::FailDevice { .. }) => Some(Event::FailDevice { pick: 0 }),
                Op::Event(ev) => Some(ev),
                _ => None,
            })
            .collect();
        (events, spec.losses.iter().map(Vec::len).collect())
    }

    /// Each event's position as a share of the user-op stream.
    fn positions(spec: &Spec) -> Vec<f64> {
        let user = spec.user_ops() as f64;
        let mut seen = 0u64;
        let mut out = Vec::new();
        for op in &spec.ops {
            match op {
                Op::Event(_) => out.push(seen as f64 / user),
                _ => seen += 1,
            }
        }
        out
    }

    /// Shares of user ops that are reads, writes and scans, and the share
    /// of writes that are 16-block batches. Also checks every address.
    fn mix(spec: &Spec) -> [f64; 4] {
        let (mut reads, mut writes, mut scans, mut batch16) = (0u64, 0u64, 0u64, 0u64);
        for op in &spec.ops {
            match *op {
                Op::Read(lba) => {
                    assert!(lba < spec.blocks);
                    reads += 1;
                }
                Op::Scan(lba) => {
                    assert!(lba + SCAN_LEN <= spec.blocks);
                    scans += 1;
                }
                Op::Write { lba, len } => {
                    assert!(lba + u64::from(len) <= spec.blocks);
                    writes += 1;
                    batch16 += u64::from(len == 16);
                }
                Op::Event(_) => {}
            }
        }
        let user = spec.user_ops() as f64;
        [
            reads as f64 / user,
            writes as f64 / user,
            scans as f64 / user,
            batch16 as f64 / writes.max(1) as f64,
        ]
    }

    fn assert_close(a: [f64; 4], b: [f64; 4], tolerance: f64, what: &str) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tolerance, "{what}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = Spec::generate(w, 11, 1);
            let b = Spec::generate(w, 11, 1);
            assert_eq!(a.ops, b.ops, "{}", w.name());
            assert_eq!(a.losses, b.losses, "{}", w.name());
            assert_eq!(a.devices, b.devices, "{}", w.name());
        }
    }

    #[test]
    fn held_out_seed_gives_the_same_shape() {
        // Seed 1 is the one the workloads were tuned on; 2_718_281 was
        // never used while writing them.
        for w in Workload::ALL {
            let tuned = Spec::generate(w, 1, 2);
            let held_out = Spec::generate(w, 2_718_281, 2);
            let name = w.name();
            assert_ne!(tuned.ops, held_out.ops, "{name}: seed must matter");
            assert_eq!(tuned.devices, held_out.devices, "{name}");
            assert_eq!(tuned.user_ops(), held_out.user_ops(), "{name}");
            assert_eq!(tuned.windows, held_out.windows, "{name}");
            assert_eq!(schedule(&tuned), schedule(&held_out), "{name}");
            assert_close(mix(&tuned), mix(&held_out), 0.005, name);
            for (a, b) in positions(&tuned).iter().zip(positions(&held_out)) {
                assert!((a - b).abs() < 0.02, "{name}: event moved {a} -> {b}");
            }
        }
    }

    #[test]
    fn workload_mixes_match_their_definitions() {
        let spec = Spec::generate(Workload::MirrorRead, 3, 2);
        assert_close(
            mix(&spec),
            [0.9405, 0.0495, 0.01, 0.0],
            0.003,
            "mirror-read",
        );
        assert!(schedule(&spec).0.is_empty());

        let spec = Spec::generate(Workload::EcDegraded, 3, 2);
        assert_close(
            mix(&spec),
            [0.4975, 0.4975, 0.005, 1.0 / 3.0],
            0.01,
            "ec-degraded",
        );
        let (events, losses) = schedule(&spec);
        assert_eq!(
            events[..5],
            [
                Event::FailDevice { pick: 0 },
                Event::Rebuild,
                Event::AddReplacement,
                Event::ShardLoss { set: 0 },
                Event::Repair
            ]
        );
        assert_eq!(events.len(), 5 * spec.windows as usize);
        assert!(losses.iter().all(|&n| n as u64 == spec.blocks / 50));

        let spec = Spec::generate(Workload::EcRepair, 3, 2);
        let (events, _) = schedule(&spec);
        assert_eq!(events[..2], [Event::ShardLoss { set: 0 }, Event::Repair]);
        assert_eq!(events.len(), 2 * spec.windows as usize);

        let spec = Spec::generate(Workload::MirrorChurn, 3, 2);
        assert_close(
            mix(&spec),
            [0.6986, 0.2994, 0.002, 0.0],
            0.005,
            "mirror-churn",
        );
        let (events, _) = schedule(&spec);
        let changes: Vec<Event> = events.into_iter().filter(|&e| e != Event::Scrape).collect();
        assert_eq!(changes.len() as u64, 4 * spec.windows);
        assert_eq!(
            changes[..4],
            [
                Event::AddLarger,
                Event::RemoveSmallest,
                Event::AddLazy,
                Event::RemoveSmallest
            ]
        );
    }
}

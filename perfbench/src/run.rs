//! Drives a `StorageCluster` through one workload from a single
//! closed-loop client thread, timing every public call and checking every
//! read against the oracle.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rshare_core::{BinSet, FastRedundantShare, PlacementStrategy, RedundantShare};
use rshare_erasure::gf256;
use rshare_vds::{DeviceState, IoStats, MigrationReport, StorageCluster, VdsError};

use crate::oracle::{self, Model};
use crate::spec::{Event, Op, Spec, BLOCK_SIZE, MIGRATE_SLICE, SCAN_LEN, SLICE_EVERY};
use crate::stats::favourable_decile;
use crate::trace::{Name, Tracer};

/// Online device count from which the cluster's default configuration
/// places through `FastRedundantShare` instead of the O(n) scan.
pub const FAST_STRATEGY_MIN_DEVICES: usize = 64;

/// Builds the workload's cluster with the default builder and writes
/// version 1 of every block of the working set.
pub fn build(spec: &Spec) -> (StorageCluster, Model) {
    let mut builder = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(spec.redundancy);
    for &(id, capacity) in &spec.devices {
        builder = builder.device(id, capacity);
    }
    let mut cluster = builder.build().expect("workload device set is valid");
    const CHUNK: u64 = 256;
    let mut data = vec![0u8; CHUNK as usize * BLOCK_SIZE];
    let mut lbas = Vec::with_capacity(CHUNK as usize);
    for start in (0..spec.blocks).step_by(CHUNK as usize) {
        lbas.clear();
        lbas.extend(start..(start + CHUNK).min(spec.blocks));
        for (block, &lba) in data.chunks_exact_mut(BLOCK_SIZE).zip(&lbas) {
            oracle::fill(block, lba, 1);
        }
        cluster
            .write_blocks(&lbas, &data[..lbas.len() * BLOCK_SIZE])
            .expect("set-up writes land on a healthy cluster");
    }
    (cluster, Model::new(spec.blocks, 1))
}

/// The online devices' bin set, as the cluster's strategy sees it.
pub fn online_bins(cluster: &StorageCluster) -> BinSet {
    let bins = cluster
        .device_ids()
        .into_iter()
        .filter_map(|id| cluster.device(id))
        .filter(|d| d.state() == DeviceState::Online)
        .map(|d| rshare_core::Bin::new(d.id(), d.capacity_blocks()).expect("positive capacity"));
    BinSet::new(bins).expect("online devices form a bin set")
}

/// The strategy the cluster's default configuration uses for `set`.
pub fn strategy(set: &BinSet, k: usize) -> Box<dyn PlacementStrategy> {
    if set.len() >= FAST_STRATEGY_MIN_DEVICES {
        Box::new(FastRedundantShare::new(set, k).expect("enough devices for k"))
    } else {
        Box::new(RedundantShare::new(set, k).expect("enough devices for k"))
    }
}

/// Milliseconds to build the strategy for `set`: `FastRedundantShare`
/// rebuilt from `shadow` (the previous set's tables) at or above the
/// threshold, a fresh `RedundantShare` below it.
pub fn time_build(set: &BinSet, k: usize, shadow: &mut Option<FastRedundantShare>) -> f64 {
    let t = Instant::now();
    if set.len() >= FAST_STRATEGY_MIN_DEVICES {
        match shadow {
            Some(fast) => {
                black_box(fast.rebuild(set).expect("enough devices for k"));
            }
            None => *shadow = Some(FastRedundantShare::new(set, k).expect("enough devices for k")),
        }
    } else {
        black_box(RedundantShare::new(set, k).expect("enough devices for k"));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Sum of the I/O counters of every device, keyed by id.
fn device_stats(cluster: &StorageCluster) -> BTreeMap<u64, IoStats> {
    cluster
        .device_ids()
        .into_iter()
        .filter_map(|id| cluster.device(id).map(|d| (id, d.stats())))
        .collect()
}

/// One window of the measured phase: one period of the workload's event
/// schedule, so that every window does the same kind of work and the
/// end-to-end figures can be taken over windows.
#[derive(Default)]
pub struct Window {
    /// User ops that completed with correct results.
    pub ok_ops: u64,
    /// Wall time, minus the benchmark's own probes.
    pub secs: f64,
    pub read_ns: Vec<u64>,
    pub degraded_read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
}

/// Everything one measured phase produced.
#[derive(Default)]
pub struct Outcome {
    pub user_ops: u64,
    pub events: u64,
    /// User ops that returned `Err`.
    pub op_errors: u64,
    /// User ops that returned `Ok` with wrong bytes.
    pub op_corrupt: u64,
    /// Events (membership, failure, repair, scrape) that returned `Err`.
    pub event_errors: u64,
    /// Blocks read by point reads and scans.
    pub reads: u64,
    /// Blocks read back with wrong bytes.
    pub corrupt_reads: u64,
    pub windows: Vec<Window>,
    pub rebuild_s: f64,
    pub repair_s: f64,
    pub rebalance_s: f64,
    pub changes: u64,
    pub shards_moved: u64,
    pub fair_min_shards: f64,
    pub shards_reconstructed: u64,
    pub shards_repaired: u64,
    pub pending_max: u64,
    /// Wall time of the measured phase minus the dry-run probes (plans and
    /// strategy builds) the benchmark makes for its own accounting.
    pub phase_s: f64,
    /// Full wall time of the measured phase.
    pub wall_s: f64,
    pub plan_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub fairness_max_dev: f64,
    pub audit_errors: u64,
    pub audit_corrupt: u64,
    // Layer counters, as deltas over the measured phase.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub placements_computed: u64,
    pub device_reads: u64,
    pub device_bytes_written: u64,
    pub busy_us: Vec<u64>,
    pub kernel_bytes: u64,
    pub user_bytes_written: u64,
}

impl Outcome {
    /// Correct user ops per second, favourable decile over windows.
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ok_ops as f64 / w.secs)
            .collect();
        favourable_decile(&mut rates, false)
    }

    /// A latency statistic (lower is better), favourable decile over the
    /// windows where it is defined; `None` if it is defined nowhere.
    pub fn window_latency(&mut self, stat: impl Fn(&mut Window) -> Option<f64>) -> Option<f64> {
        let mut v: Vec<f64> = self.windows.iter_mut().filter_map(stat).collect();
        (!v.is_empty()).then(|| favourable_decile(&mut v, true))
    }

    pub fn failed(&self) -> u64 {
        self.op_errors + self.op_corrupt + self.event_errors
    }

    pub fn correct(&self) -> bool {
        self.corrupt_reads == 0 && self.audit_corrupt == 0 && self.audit_errors == 0
    }
}

struct Runner<'a> {
    spec: &'a Spec,
    cluster: &'a mut StorageCluster,
    model: &'a mut Model,
    tr: &'a mut Tracer,
    out: Outcome,
    /// Time spent in the benchmark's own dry-run probes, excluded from
    /// the phase time.
    probe_s: f64,
    /// The open window, when it opened, and `probe_s` at that moment.
    win: usize,
    win_start: Instant,
    win_probe_s: f64,
    next_id: u64,
    device_failed: bool,
    shards_lost: bool,
    migrating: bool,
    shadow: Option<FastRedundantShare>,
    buf: Vec<u8>,
    wbuf: Vec<u8>,
    lbas: Vec<u64>,
    versions: Vec<u32>,
    placement: Vec<u64>,
}

/// Runs `spec`'s measured phase against `cluster`, then audits every
/// block once (untimed).
pub fn run_phase(
    spec: &Spec,
    cluster: &mut StorageCluster,
    model: &mut Model,
    tr: &mut Tracer,
) -> Outcome {
    let next_id = spec.devices.iter().map(|d| d.0).max().unwrap_or(0) + 1;
    let mut r = Runner {
        spec,
        cluster,
        model,
        tr,
        out: Outcome::default(),
        probe_s: 0.0,
        win: 0,
        win_start: Instant::now(),
        win_probe_s: 0.0,
        next_id,
        device_failed: false,
        shards_lost: false,
        migrating: false,
        shadow: None,
        buf: vec![0u8; BLOCK_SIZE],
        wbuf: vec![0u8; 16 * BLOCK_SIZE],
        lbas: Vec::with_capacity(SCAN_LEN as usize),
        versions: Vec::with_capacity(16),
        placement: Vec::with_capacity(8),
    };
    let cache0 = r.cluster.cache_stats();
    let computed0 = r.cluster.placements_computed();
    let devices0 = device_stats(r.cluster);
    let kernel0 = gf256::kernel_stats();

    let total = spec.user_ops();
    r.out.windows = (0..spec.windows).map(|_| Window::default()).collect();
    let start = Instant::now();
    r.win_start = start;
    for (i, &op) in spec.ops.iter().enumerate() {
        let id = i as u32;
        if let Op::Event(ev) = op {
            r.event(ev, id);
            continue;
        }
        let w = (r.out.user_ops * spec.windows / total) as usize;
        if w != r.win {
            r.close_window();
            r.win = w;
        }
        if r.migrating && r.out.user_ops.is_multiple_of(SLICE_EVERY) {
            r.migrate_slice(id);
        }
        r.out.user_ops += 1;
        match op {
            Op::Read(lba) => r.read(lba, id),
            Op::Scan(lba) => r.scan(lba, id),
            Op::Write { lba, len } => r.write(lba, len, id),
            Op::Event(_) => unreachable!("handled above"),
        }
    }
    r.close_window();
    r.out.wall_s = start.elapsed().as_secs_f64();
    r.out.phase_s = r.out.wall_s - r.probe_s;

    let cache1 = r.cluster.cache_stats();
    r.out.cache_hits = cache1.hits - cache0.hits;
    r.out.cache_misses = cache1.misses - cache0.misses;
    r.out.placements_computed = r.cluster.placements_computed() - computed0;
    let kernel1 = gf256::kernel_stats();
    r.out.kernel_bytes = (kernel1.xor_bytes + kernel1.mul_bytes)
        .saturating_sub(kernel0.xor_bytes + kernel0.mul_bytes);
    for (id, s) in device_stats(r.cluster) {
        let before = devices0.get(&id).copied().unwrap_or_default();
        r.out.device_reads += s.reads - before.reads;
        r.out.device_bytes_written += s.bytes_written - before.bytes_written;
        if r.cluster
            .device(id)
            .is_some_and(|d| d.state() == DeviceState::Online)
        {
            r.out.busy_us.push(s.busy_us - before.busy_us);
        }
    }
    r.out.fairness_max_dev = r.cluster.fairness_report().max_deviation;
    r.audit();
    r.out
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Runner<'_> {
    fn close_window(&mut self) {
        let w = &mut self.out.windows[self.win];
        w.secs = secs(self.win_start) - (self.probe_s - self.win_probe_s);
        self.win_start = Instant::now();
        self.win_probe_s = self.probe_s;
    }

    fn window(&mut self) -> &mut Window {
        &mut self.out.windows[self.win]
    }

    fn degraded(&self) -> bool {
        self.device_failed || self.shards_lost
    }

    fn read(&mut self, lba: u64, id: u32) {
        let root = self.tr.begin(Name::READ, id);
        if self.tr.enabled() {
            let s = self.tr.begin(Name::LOOKUP, id);
            self.cluster.placement_into(lba, &mut self.placement);
            self.tr.end(s);
        }
        let s = self.tr.begin(Name::READ_BLOCK, id);
        let t = Instant::now();
        let result = self.cluster.read_block_into(lba, &mut self.buf);
        let ns = t.elapsed().as_nanos() as u64;
        self.tr.end(s);
        self.out.reads += 1;
        match result {
            Ok(()) if self.model.verify(lba, &self.buf) => {
                let degraded = self.degraded();
                let w = self.window();
                w.ok_ops += 1;
                if degraded {
                    w.degraded_read_ns.push(ns);
                } else {
                    w.read_ns.push(ns);
                }
            }
            Ok(()) => {
                self.out.corrupt_reads += 1;
                self.out.op_corrupt += 1;
            }
            Err(_) => self.out.op_errors += 1,
        }
        self.tr.end(root);
    }

    fn scan(&mut self, start: u64, id: u32) {
        let root = self.tr.begin(Name::SCAN, id);
        self.lbas.clear();
        self.lbas.extend(start..start + SCAN_LEN);
        let s = self.tr.begin(Name::READ_BLOCKS, id);
        let t = Instant::now();
        let result = self.cluster.read_blocks(&self.lbas);
        let ns = t.elapsed().as_nanos() as u64;
        self.tr.end(s);
        self.out.reads += SCAN_LEN;
        match result {
            Ok(blocks) => {
                let bad = blocks
                    .iter()
                    .zip(&self.lbas)
                    .filter(|(b, &lba)| !self.model.verify(lba, b))
                    .count() as u64;
                if bad == 0 {
                    let w = self.window();
                    w.ok_ops += 1;
                    w.scan_ns.push(ns);
                } else {
                    self.out.corrupt_reads += bad;
                    self.out.op_corrupt += 1;
                }
            }
            Err(_) => self.out.op_errors += 1,
        }
        self.tr.end(root);
    }

    fn write(&mut self, lba: u64, len: u32, id: u32) {
        let root = self.tr.begin(Name::WRITE, id);
        let len = len as usize;
        self.lbas.clear();
        self.lbas.extend(lba..lba + len as u64);
        self.versions.clear();
        for (block, &l) in self.wbuf.chunks_exact_mut(BLOCK_SIZE).zip(&self.lbas) {
            let v = self.model.begin_write(l);
            self.versions.push(v);
            oracle::fill(block, l, v);
        }
        let s = self.tr.begin(Name::WRITE_BLOCKS, id);
        let t = Instant::now();
        let result = self
            .cluster
            .write_blocks(&self.lbas, &self.wbuf[..len * BLOCK_SIZE]);
        let ns = t.elapsed().as_nanos() as u64;
        self.tr.end(s);
        self.out.user_bytes_written += (len * BLOCK_SIZE) as u64;
        match result {
            Ok(()) => {
                for (&l, &v) in self.lbas.iter().zip(&self.versions) {
                    self.model.ack(l, v);
                }
                let w = self.window();
                w.ok_ops += 1;
                w.write_ns.push(ns);
            }
            Err(_) => self.out.op_errors += 1,
        }
        self.tr.end(root);
    }

    /// Folds a maintenance call's result into the outcome.
    fn migration(&mut self, result: Result<MigrationReport, VdsError>) {
        match result {
            Ok(rep) => {
                self.out.shards_moved += rep.shards_moved;
                self.out.shards_reconstructed += rep.shards_reconstructed;
            }
            Err(_) => self.out.event_errors += 1,
        }
    }

    /// Dry-runs the change through `plan` for its fair minimum; the time
    /// is a probe, not part of the phase.
    fn plan(
        &mut self,
        id: u32,
        plan: impl FnOnce(&StorageCluster) -> Result<rshare_vds::MigrationPlan, VdsError>,
    ) {
        let s = self.tr.begin(Name::PLAN, id);
        let t = Instant::now();
        let result = plan(self.cluster);
        let took = secs(t);
        self.tr.end(s);
        self.probe_s += took;
        self.out.plan_ms.push(took * 1e3);
        match result {
            Ok(p) => self.out.fair_min_shards += p.fair_min_shards,
            Err(_) => self.out.event_errors += 1,
        }
    }

    /// In traced runs, times a build of the strategy the cluster just
    /// switched to (a probe, not part of the phase).
    fn probe_build(&mut self) {
        if !self.tr.enabled() {
            return;
        }
        let t = Instant::now();
        let set = online_bins(self.cluster);
        let k = self.spec.redundancy.total_shards();
        let ms = time_build(&set, k, &mut self.shadow);
        self.probe_s += secs(t);
        self.out.build_ms.push(ms);
    }

    fn migrate_slice(&mut self, id: u32) {
        let root = self.tr.begin(Name::EVENT, id);
        let s = self.tr.begin(Name::MIGRATE, id);
        let t = Instant::now();
        let result = self.cluster.migrate_batch(MIGRATE_SLICE);
        self.out.rebalance_s += secs(t);
        self.tr.end(s);
        self.tr.end(root);
        if result.is_err() {
            self.migrating = false;
        }
        self.migration(result);
        if self.cluster.pending_blocks() == 0 {
            self.migrating = false;
        }
    }

    fn event(&mut self, ev: Event, id: u32) {
        self.out.events += 1;
        let root = self.tr.begin(Name::EVENT, id);
        match ev {
            Event::FailDevice { pick } => {
                let online: Vec<u64> = self
                    .cluster
                    .device_ids()
                    .into_iter()
                    .filter(|&d| {
                        self.cluster
                            .device(d)
                            .is_some_and(|d| d.state() == DeviceState::Online)
                    })
                    .collect();
                let victim = online[(pick % online.len() as u64) as usize];
                let s = self.tr.begin(Name::FAULT, id);
                let result = self.cluster.fail_device(victim);
                self.tr.end(s);
                if result.is_err() {
                    self.out.event_errors += 1;
                }
                self.device_failed = true;
            }
            Event::Rebuild => {
                self.plan(id, StorageCluster::plan_rebuild);
                let s = self.tr.begin(Name::REBUILD, id);
                let t = Instant::now();
                let result = self.cluster.rebuild();
                self.out.rebuild_s += secs(t);
                self.tr.end(s);
                self.migration(result);
                self.device_failed = false;
                self.out.changes += 1;
                self.probe_build();
            }
            Event::AddReplacement | Event::AddLarger => {
                let (dev, cap) = (self.next_id, self.spec.added_capacity);
                self.next_id += 1;
                self.plan(id, |c| c.plan_add_device(dev, cap));
                let s = self.tr.begin(Name::CHANGE, id);
                let t = Instant::now();
                let result = self.cluster.add_device(dev, cap);
                self.out.rebalance_s += secs(t);
                self.tr.end(s);
                self.migration(result);
                self.out.changes += 1;
                self.probe_build();
            }
            Event::RemoveSmallest => {
                let smallest = self
                    .cluster
                    .device_ids()
                    .into_iter()
                    .filter_map(|d| self.cluster.device(d))
                    .filter(|d| d.state() == DeviceState::Online)
                    .min_by_key(|d| (d.capacity_blocks(), d.id()))
                    .map(|d| d.id())
                    .expect("the cluster has online devices");
                self.plan(id, |c| c.plan_remove_device(smallest));
                let s = self.tr.begin(Name::CHANGE, id);
                let t = Instant::now();
                let result = self.cluster.remove_device(smallest);
                self.out.rebalance_s += secs(t);
                self.tr.end(s);
                self.migration(result);
                self.out.changes += 1;
                self.probe_build();
            }
            Event::AddLazy => {
                let (dev, cap) = (self.next_id, self.spec.lazy_capacity);
                self.next_id += 1;
                self.plan(id, |c| c.plan_add_device(dev, cap));
                let s = self.tr.begin(Name::CHANGE, id);
                let t = Instant::now();
                let result = self.cluster.add_device_lazy(dev, cap);
                self.out.rebalance_s += secs(t);
                self.tr.end(s);
                match result {
                    Ok(pending) => {
                        self.out.pending_max = self.out.pending_max.max(pending);
                        self.migrating = pending > 0;
                    }
                    Err(_) => self.out.event_errors += 1,
                }
                self.out.changes += 1;
                self.probe_build();
            }
            Event::ShardLoss { set } => {
                let s = self.tr.begin(Name::FAULT, id);
                for &(lba, shard) in &self.spec.losses[set] {
                    self.cluster.inject_shard_loss(lba, shard);
                }
                self.tr.end(s);
                self.shards_lost = true;
            }
            Event::Repair => {
                let s = self.tr.begin(Name::REPAIR, id);
                let t = Instant::now();
                let result = self.cluster.repair();
                self.out.repair_s += secs(t);
                self.tr.end(s);
                match result {
                    Ok(n) => self.out.shards_repaired += n,
                    Err(_) => self.out.event_errors += 1,
                }
                self.shards_lost = false;
            }
            Event::Scrape => {
                let s = self.tr.begin(Name::SCRAPE, id);
                let t = Instant::now();
                black_box(self.cluster.export_prometheus().len());
                self.out.scrape_ms.push(secs(t) * 1e3);
                self.tr.end(s);
            }
        }
        self.tr.end(root);
    }

    /// Reads every block of the working set once and checks it.
    fn audit(&mut self) {
        for lba in 0..self.spec.blocks {
            match self.cluster.read_block_into(lba, &mut self.buf) {
                Ok(()) if self.model.verify(lba, &self.buf) => {}
                Ok(()) => self.out.audit_corrupt += 1,
                Err(_) => self.out.audit_errors += 1,
            }
        }
    }
}

//! Adaptivity fast-path report: migration drain throughput and measured
//! competitive ratios.
//!
//! Three measurements on the rebalance engine:
//!
//! 1. **Migration drain** — blocks/s to drain a lazy single-device add
//!    through `migrate_batch` ("planned": batched diffing,
//!    skip-unchanged, zero-copy moves of the changed shards).
//! 2. **Planner engine sweep** — `plan_add_device` throughput with the
//!    `fast_strategy_threshold` knob forcing the O(k) fast engine vs the
//!    O(n) scan, on the same cluster.
//! 3. **Competitive ratios** — planned moves over the fair minimum for
//!    adding/removing the largest and smallest device, against the
//!    paper's proven 2–4 bound (measured ≈1.5 for adds, ≈2.5 for
//!    removals in the paper's experiments).
//!
//! Prints tables and writes the raw numbers to `BENCH_migration.json`
//! (CI smoke-checks that the file parses). Pass `--smoke` (or `--quick`)
//! to shrink the workload for CI; the report shape is identical.

use std::hint::black_box;
use std::time::Instant;

use rshare_bench::{f, print_table, records_json, section, Record};
use rshare_vds::{MigrationPlan, Redundancy, StorageCluster};

/// Timing repetitions per cell; the best (minimum) time is reported.
const REPS: usize = 3;

/// Devices in the drain cluster — above the fast-placement threshold, so
/// placement queries go through the O(k) engine.
const DEVICES: u64 = 96;

/// Blocks drained per `migrate_batch` call: the incremental-call cadence
/// of a lazy migration.
const BUDGET: u64 = 2_048;

const BLOCK_SIZE: usize = 64;

struct Cell {
    bench: &'static str,
    mode: &'static str,
    items: u64,
    unit: &'static str,
    elapsed_ns: u128,
}

impl Cell {
    fn per_s(&self) -> f64 {
        self.items as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// A measured competitive-ratio row.
struct Ratio {
    change: &'static str,
    ratio: f64,
    moved_fraction: f64,
    fair_min_shards: f64,
    moves: usize,
    blocks_planned: u64,
    blocks_total: u64,
}

fn drain_cluster(blocks: u64) -> StorageCluster {
    let mut b = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for id in 0..DEVICES {
        b = b.device(id, 40_000 + id * 500);
    }
    let mut c = b.build().expect("valid cluster");
    let data = vec![0x5Au8; BLOCK_SIZE];
    for lba in 0..blocks {
        c.write_block(lba, &data).expect("write");
    }
    c
}

/// Capacity of the lazily added device in the drain benchmark. Small on
/// purpose — incremental expansion — so most pending blocks are
/// *unchanged* and the drain mostly measures how cheaply the planner's
/// bulk diff can verify and skip a block.
const DRAIN_ADD_CAPACITY: u64 = 4_000;

/// Blocks/s to drain a lazy small-device add through `migrate_batch`.
fn bench_drain(blocks: u64, cells: &mut Vec<Cell>) {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        // Setup outside the timed region: the drain itself is timed.
        let mut c = drain_cluster(blocks);
        let pending = c
            .add_device_lazy(DEVICES, DRAIN_ADD_CAPACITY)
            .expect("lazy add");
        assert_eq!(pending, blocks);
        let start = Instant::now();
        while c.pending_blocks() > 0 {
            black_box(c.migrate_batch(BUDGET).expect("migrate_batch"));
        }
        best = best.min(start.elapsed().as_nanos());
    }
    cells.push(Cell {
        bench: "migration_drain",
        mode: "planned",
        items: blocks,
        unit: "blocks",
        elapsed_ns: best,
    });
}

/// `plan_add_device` throughput with the placement engine pinned either
/// way by the `fast_strategy_threshold` builder knob.
fn bench_plan_sweep(blocks: u64, cells: &mut Vec<Cell>) {
    let sweeps: [(&'static str, usize); 2] = [
        ("fast_engine", 1),          // always the precomputed O(k) engine
        ("scan_engine", usize::MAX), // always the O(n) scan
    ];
    for (mode, threshold) in sweeps {
        let mut b = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .fast_strategy_threshold(threshold);
        for id in 0..DEVICES {
            b = b.device(id, 40_000 + id * 500);
        }
        let mut c = b.build().expect("valid cluster");
        let data = vec![0xC3u8; BLOCK_SIZE];
        for lba in 0..blocks {
            c.write_block(lba, &data).expect("write");
        }
        let mut best = u128::MAX;
        for _ in 0..REPS {
            let start = Instant::now();
            black_box(c.plan_add_device(DEVICES, 60_000).expect("plan"));
            best = best.min(start.elapsed().as_nanos());
        }
        cells.push(Cell {
            bench: "plan_add",
            mode,
            items: blocks,
            unit: "blocks",
            elapsed_ns: best,
        });
    }
}

/// Measured competitive ratios for single-device churn on a heterogeneous
/// cluster: add/remove of the largest and smallest device.
fn bench_competitive(blocks: u64) -> Vec<Ratio> {
    let caps: [u64; 8] = [5_000, 7_000, 8_000, 9_000, 11_000, 13_000, 16_000, 19_000];
    let mut b = StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 });
    for (id, &cap) in caps.iter().enumerate() {
        b = b.device(id as u64, cap * 4);
    }
    let mut c = b.build().expect("valid cluster");
    let data = vec![0x96u8; BLOCK_SIZE];
    for lba in 0..blocks {
        c.write_block(lba, &data).expect("write");
    }
    let largest_cap = caps.iter().max().copied().expect("non-empty") * 4;
    let smallest_cap = caps.iter().min().copied().expect("non-empty") * 4;
    let largest_id = (caps.len() - 1) as u64; // caps ascend with id
    let smallest_id = 0u64;
    let row = |change: &'static str, plan: MigrationPlan| Ratio {
        change,
        ratio: plan.competitive_ratio(),
        moved_fraction: plan.moved_fraction(),
        fair_min_shards: plan.fair_min_shards,
        moves: plan.moves.len(),
        blocks_planned: plan.blocks_planned,
        blocks_total: plan.blocks_total,
    };
    vec![
        row(
            "add_largest",
            c.plan_add_device(99, largest_cap).expect("plan"),
        ),
        row(
            "add_smallest",
            c.plan_add_device(99, smallest_cap).expect("plan"),
        ),
        row(
            "remove_largest",
            c.plan_remove_device(largest_id).expect("plan"),
        ),
        row(
            "remove_smallest",
            c.plan_remove_device(smallest_id).expect("plan"),
        ),
    ]
}

fn speedup(cells: &[Cell], bench: &str, fast: &str, slow: &str) -> f64 {
    let rate = |mode: &str| {
        cells
            .iter()
            .find(|c| c.bench == bench && c.mode == mode)
            .expect("cell present")
            .per_s()
    };
    rate(fast) / rate(slow)
}

/// Hand-rolled JSON (no serde in the dependency set).
fn to_json(cells: &[Cell], ratios: &[Ratio], smoke: bool, blocks: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"smoke\": {smoke}, \"reps\": {REPS}, \"devices\": {DEVICES}, \"blocks\": {blocks}, \"budget\": {BUDGET}}},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"mode\": \"{}\", \"items\": {}, \"unit\": \"{}\", \"elapsed_ns\": {}, \"per_s\": {:.1}}}{}\n",
            c.bench,
            c.mode,
            c.items,
            c.unit,
            c.elapsed_ns,
            c.per_s(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"competitive\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"change\": \"{}\", \"ratio\": {:.3}, \"moved_fraction\": {:.5}, \"fair_min_shards\": {:.1}, \"moves\": {}, \"blocks_planned\": {}, \"blocks_total\": {}}}{}\n",
            r.change,
            r.ratio,
            r.moved_fraction,
            r.fair_min_shards,
            r.moves,
            r.blocks_planned,
            r.blocks_total,
            if i + 1 == ratios.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&records_json(&records(cells, ratios)));
    s.push_str(",\n");
    let max_ratio = ratios.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
    s.push_str(&format!(
        "  \"summary\": {{\"fast_vs_scan_plan_speedup\": {:.2}, \"max_competitive_ratio\": {:.3}, \"paper_bound\": 4.0}}\n",
        speedup(cells, "plan_add", "fast_engine", "scan_engine"),
        max_ratio,
    ));
    s.push('}');
    s.push('\n');
    s
}

/// The unified cross-binary records: one throughput entry per cell (the
/// engine sweep with the scan engine as the baseline), plus one ratio entry
/// per membership change measured against the paper's proven bound of 4.
fn records(cells: &[Cell], ratios: &[Ratio]) -> Vec<Record> {
    let mut out: Vec<Record> = cells
        .iter()
        .map(|c| {
            let name = format!("{}_{}", c.bench, c.mode);
            let unit: &'static str = match c.unit {
                "blocks" => "blocks_per_s",
                _ => "plans_per_s",
            };
            let slow = match (c.bench, c.mode) {
                ("plan_add", "fast_engine") => Some("scan_engine"),
                _ => None,
            };
            match slow {
                Some(slow_mode) => {
                    let base = cells
                        .iter()
                        .find(|s| s.bench == c.bench && s.mode == slow_mode)
                        .expect("baseline cell present");
                    Record::with_baseline(name, unit, c.per_s(), base.per_s())
                }
                None => Record::new(name, unit, c.per_s()),
            }
        })
        .collect();
    out.extend(ratios.iter().map(|r| {
        Record::with_baseline(
            format!("competitive_ratio_{}", r.change),
            "ratio",
            r.ratio,
            4.0,
        )
    }));
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let blocks: u64 = if smoke { 12_000 } else { 120_000 };
    section(&format!(
        "Adaptivity fast path — batched migration + competitive ratios{}",
        if smoke { " (smoke mode)" } else { "" }
    ));

    let mut cells = Vec::new();
    bench_drain(blocks, &mut cells);
    bench_plan_sweep(blocks, &mut cells);
    let ratios = bench_competitive(blocks.min(24_000));

    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            c.bench.to_string(),
            c.mode.to_string(),
            c.items.to_string(),
            format!("{:.3} M{}/s", c.per_s() / 1e6, &c.unit[..c.unit.len() - 1]),
        ]);
    }
    print_table(&["bench", "mode", "items", "rate"], &rows);

    println!();
    let mut rows = Vec::new();
    for r in &ratios {
        rows.push(vec![
            r.change.to_string(),
            f(r.ratio),
            f(r.moved_fraction),
            format!("{}/{}", r.blocks_planned, r.blocks_total),
        ]);
    }
    print_table(
        &[
            "change",
            "competitive ratio",
            "moved fraction",
            "blocks planned",
        ],
        &rows,
    );

    println!(
        "\nfast vs scan planning {}x; max ratio {} (paper bound 4.0)",
        f(speedup(&cells, "plan_add", "fast_engine", "scan_engine")),
        f(ratios.iter().map(|r| r.ratio).fold(0.0f64, f64::max)),
    );

    let json = to_json(&cells, &ratios, smoke, blocks);
    std::fs::write("BENCH_migration.json", &json).expect("write BENCH_migration.json");
    println!(
        "wrote BENCH_migration.json ({} result rows, {} ratio rows)",
        cells.len(),
        ratios.len()
    );
}

//! Placement throughput report: scalar vs batch queries, and the build
//! time of the O(k) strategy.
//!
//! Measures placement throughput (placements per second) of the two query
//! paths over [`RedundantShare`] — per-ball `place_into` and flat
//! `place_batch_into` — for k ∈ {2, 3, 4} and n ∈ {16, 256, 4096}. It also
//! times [`FastRedundantShare::new`] at n ∈ {64, 256, 1024}, k = 2: the
//! table build a cluster on the O(k) strategy runs on every membership
//! change. Every cell is the median of its reps, recorded with its min and
//! max. Prints the tables and writes the raw numbers to
//! `BENCH_throughput.json` for machine consumption (CI smoke-checks that
//! the file parses).
//!
//! Pass `--quick` to shrink the query workload ~8× (CI smoke mode); the
//! numbers get noisier but the report shape is identical.

use std::hint::black_box;

use rshare_bench::{f, min_median_max, print_table, records_json, section, time_each, Record};
use rshare_core::{BinId, BinSet, FastRedundantShare, PlacementStrategy, RedundantShare};

/// Timing repetitions per query cell.
const REPS: usize = 5;

/// Timing repetitions per strategy-build cell.
const BUILD_REPS: usize = 21;

/// Device counts the strategy build is timed at.
const BUILD_SIZES: [usize; 3] = [64, 256, 1024];

/// One query path at one `(n, k)`: the wall-clock time of every rep.
struct Cell {
    n: usize,
    k: usize,
    mode: &'static str,
    balls: usize,
    elapsed_ns: Vec<u128>,
}

impl Cell {
    /// Placements per second of every rep.
    fn rates(&self) -> Vec<f64> {
        self.elapsed_ns
            .iter()
            .map(|&ns| self.balls as f64 / (ns as f64 / 1e9))
            .collect()
    }

    fn median_rate(&self) -> f64 {
        min_median_max(&self.rates()).1
    }
}

/// Build times of `FastRedundantShare::new` at `n` devices, in ms.
struct Build {
    n: usize,
    k: usize,
    ms: Vec<f64>,
}

fn heterogeneous(n: usize) -> BinSet {
    BinSet::from_capacities((0..n as u64).map(|i| 500_000 + i * 100_000)).expect("valid bins")
}

/// Workload size per configuration: the O(n) scan means fewer balls at
/// large n keep the total runtime bounded while each cell still runs for
/// tens of milliseconds.
fn balls_for(n: usize, quick: bool) -> usize {
    let full = match n {
        0..=31 => 400_000,
        32..=1023 => 100_000,
        _ => 24_576,
    };
    if quick {
        (full / 8).max(4_096)
    } else {
        full
    }
}

fn measure(n: usize, k: usize, quick: bool) -> [Cell; 2] {
    let strat = RedundantShare::new(&heterogeneous(n), k).expect("valid strategy");
    let count = balls_for(n, quick);
    let balls: Vec<u64> = (0..count as u64).map(|b| b.wrapping_mul(0x9E37)).collect();
    let mut out: Vec<BinId> = Vec::with_capacity(count * k);
    let cell = |mode, elapsed_ns| Cell {
        n,
        k,
        mode,
        balls: count,
        elapsed_ns,
    };

    let scalar = time_each(REPS, || {
        let mut group = Vec::with_capacity(k);
        for &ball in &balls {
            strat.place_into(black_box(ball), &mut group);
            black_box(&group);
        }
    });
    let batch = time_each(REPS, || {
        strat.place_batch_into(black_box(&balls), &mut out);
        black_box(&out);
    });
    [cell("scalar", scalar), cell("batch", batch)]
}

fn measure_build(n: usize, k: usize) -> Build {
    let set = heterogeneous(n);
    let ms = time_each(BUILD_REPS, || {
        black_box(FastRedundantShare::new(black_box(&set), k).expect("valid strategy"));
    })
    .into_iter()
    .map(|ns| ns as f64 / 1e6)
    .collect();
    Build { n, k, ms }
}

/// Hand-rolled JSON (no serde in the dependency set): the report is flat
/// enough that string assembly stays readable.
fn to_json(cells: &[Cell], builds: &[Build], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"reps\": {REPS}, \"build_reps\": {BUILD_REPS}}},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let elapsed: Vec<f64> = c.elapsed_ns.iter().map(|&ns| ns as f64).collect();
        s.push_str(&format!(
            "    {{\"n\": {}, \"k\": {}, \"mode\": \"{}\", \"balls\": {}, \"elapsed_ns\": {:.0}, \"placements_per_s\": {:.1}}}{}\n",
            c.n,
            c.k,
            c.mode,
            c.balls,
            min_median_max(&elapsed).1,
            c.median_rate(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&records_json(&records(cells, builds)));
    s.push_str("\n}\n");
    s
}

/// The unified cross-binary records: one throughput entry per cell (the
/// scalar path of the same `(n, k)` as the batch path's baseline) and one
/// build-time entry per device count, each a median with its spread.
fn records(cells: &[Cell], builds: &[Build]) -> Vec<Record> {
    let mut records: Vec<Record> = cells
        .iter()
        .map(|c| {
            let record = Record::with_spread(
                format!("placements_{}_n{}_k{}", c.mode, c.n, c.k),
                "placements_per_s",
                &c.rates(),
            );
            if c.mode == "scalar" {
                return record;
            }
            let scalar = cells
                .iter()
                .find(|s| s.n == c.n && s.k == c.k && s.mode == "scalar")
                .expect("scalar cell present");
            Record {
                baseline: Some(scalar.median_rate()),
                ..record
            }
        })
        .collect();
    records.extend(
        builds.iter().map(|b| {
            Record::with_spread(format!("strategy_build_ms_n{}_k{}", b.n, b.k), "ms", &b.ms)
        }),
    );
    records
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    section(&format!(
        "Placement throughput — scalar vs batch, median of {REPS}{}",
        if quick { " (quick mode)" } else { "" }
    ));

    let mut cells = Vec::new();
    for k in [2usize, 3, 4] {
        for n in [16usize, 256, 4096] {
            cells.extend(measure(n, k, quick));
        }
    }

    let spread = |c: &Cell| {
        let (min, median, max) = min_median_max(&c.rates());
        format!("{:.3} ({:.3}–{:.3})", median / 1e6, min / 1e6, max / 1e6)
    };
    let rows: Vec<Vec<String>> = cells
        .chunks(2)
        .map(|pair| {
            let (scalar, batch) = (&pair[0], &pair[1]);
            vec![
                scalar.n.to_string(),
                scalar.k.to_string(),
                spread(scalar),
                spread(batch),
                f(batch.median_rate() / scalar.median_rate()),
            ]
        })
        .collect();
    print_table(&["n", "k", "scalar M/s", "batch M/s", "batch x"], &rows);

    section(&format!(
        "FastRedundantShare::new — median of {BUILD_REPS} builds"
    ));
    let builds: Vec<Build> = BUILD_SIZES.iter().map(|&n| measure_build(n, 2)).collect();
    let rows: Vec<Vec<String>> = builds
        .iter()
        .map(|b| {
            let (min, median, max) = min_median_max(&b.ms);
            vec![
                b.n.to_string(),
                b.k.to_string(),
                format!("{median:.3}"),
                format!("{min:.3}"),
                format!("{max:.3}"),
            ]
        })
        .collect();
    print_table(&["n", "k", "median ms", "min ms", "max ms"], &rows);

    let json = to_json(&cells, &builds, quick);
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!(
        "\nwrote BENCH_throughput.json ({} result rows, {} builds)",
        cells.len(),
        builds.len()
    );
}

//! Shared helpers for the experiment binaries that regenerate the paper's
//! figures and tables.
//!
//! Every binary in `src/bin/` reproduces one evaluation artifact of the
//! ICDCS 2007 paper (see `DESIGN.md`'s experiment index) and prints a
//! plain-text table to stdout; `EXPERIMENTS.md` records paper-claim versus
//! measured values. Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Prints a section header for an experiment report.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints an aligned text table: a header row followed by data rows.
///
/// Column widths are derived from the widest cell per column.
///
/// # Example
///
/// ```
/// rshare_bench::print_table(
///     &["bin", "share"],
///     &[vec!["0".into(), "0.50".into()], vec!["1".into(), "0.25".into()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut out = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = w));
        }
        println!("{out}");
    };
    line(headers.to_vec());
    let seps: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(seps.iter().map(String::as_str).collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// One observation in the unified cross-binary record schema.
///
/// Every `bench_*` binary emits a `"records"` array of these alongside
/// its binary-specific tables, so downstream tooling can diff runs
/// without knowing each report's shape: a named scalar, its unit, and —
/// when the binary also measured a reference configuration (serial,
/// uncached, metrics-off, …) — that baseline value for the same quantity.
/// A record measured over repetitions carries their spread: the value is
/// then the median, rendered with the `"min"` and `"max"` beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Series name, `snake_case`, unique within one report.
    pub name: String,
    /// Unit of `value` (e.g. `blocks_per_s`, `percent`, `ratio`).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// The same quantity in the reference configuration, if one exists.
    pub baseline: Option<f64>,
    /// `(min, max)` over the repetitions `value` is the median of, if any.
    pub spread: Option<(f64, f64)>,
}

impl Record {
    /// A record with no reference configuration.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            baseline: None,
            spread: None,
        }
    }

    /// A record of repeated measurements: the median of `samples`, with
    /// their min and max as its spread.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn with_spread(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (min, median, max) = min_median_max(samples);
        Self {
            spread: Some((min, max)),
            ..Self::new(name, unit, median)
        }
    }

    /// A record measured against a reference configuration.
    #[must_use]
    pub fn with_baseline(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        baseline: f64,
    ) -> Self {
        Self {
            baseline: Some(baseline),
            ..Self::new(name, unit, value)
        }
    }
}

/// The minimum, median and maximum of `samples`; the median of an even
/// count is the mean of the middle two.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn min_median_max(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
    (sorted[0], median, sorted[n - 1])
}

/// Renders the unified `"records": [...]` JSON fragment (hand-rolled —
/// no serde in the dependency set), indented for the two-space report
/// layout the `bench_*` binaries share. The fragment carries no trailing
/// comma or newline; callers splice it between other top-level keys.
#[must_use]
pub fn records_json(records: &[Record]) -> String {
    let mut s = String::from("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {:.4}",
            r.name, r.unit, r.value
        ));
        if let Some(b) = r.baseline {
            s.push_str(&format!(", \"baseline\": {b:.4}"));
        }
        if let Some((min, max)) = r.spread {
            s.push_str(&format!(", \"min\": {min:.4}, \"max\": {max:.4}"));
        }
        s.push('}');
        if i + 1 != records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]");
    s
}

/// Wall-clock time of each of `reps` runs of `run`, in nanoseconds.
pub fn time_each<F: FnMut()>(reps: usize, mut run: F) -> Vec<u128> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos()
        })
        .collect()
}

/// Best-of-`reps` wall-clock time of `run`, in nanoseconds.
pub fn time_best<F: FnMut()>(reps: usize, run: F) -> u128 {
    time_each(reps, run).into_iter().min().unwrap_or(u128::MAX)
}

/// Best-of-`reps` for two bodies measured as an interleaved pair, in
/// nanoseconds: each rep times `a` then `b` back to back, so a
/// machine-load phase slower than one rep hits both sides equally instead
/// of skewing whichever side's measurement window it landed in. Each
/// timed run is preceded by an untimed run of the same body — the
/// comparison is steady-state, and the alternation would otherwise let
/// each side evict the other's working set between reps.
pub fn time_best_pair<A: FnMut(), B: FnMut()>(reps: usize, mut a: A, mut b: B) -> (u128, u128) {
    let (mut best_a, mut best_b) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        a();
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed().as_nanos());
        b();
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed().as_nanos());
    }
    (best_a, best_b)
}

/// One timed cell of a rate benchmark: `items` of `unit` processed by
/// mode `mode` of benchmark `bench` in `elapsed_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Benchmark name.
    pub bench: &'static str,
    /// Configuration measured (e.g. `cached`, `fused`).
    pub mode: &'static str,
    /// Work items processed per timed run.
    pub items: u64,
    /// Unit of `items` (e.g. `blocks`, `bytes`).
    pub unit: &'static str,
    /// Best wall-clock time of one run, in nanoseconds.
    pub elapsed_ns: u128,
}

impl Cell {
    /// Items processed per second.
    #[must_use]
    pub fn per_s(&self) -> f64 {
        self.items as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// The rate of mode `fast` over mode `slow` of benchmark `bench`.
///
/// # Panics
///
/// Panics if `cells` lacks either cell.
#[must_use]
pub fn speedup(cells: &[Cell], bench: &str, fast: &str, slow: &str) -> f64 {
    let rate = |mode: &str| {
        cells
            .iter()
            .find(|c| c.bench == bench && c.mode == mode)
            .expect("cell present")
            .per_s()
    };
    rate(fast) / rate(slow)
}

/// Formats a float with 4 decimal places (the precision used throughout
/// the experiment reports).
#[must_use]
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a percentage with 2 decimal places.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(pct(0.5), "50.00%");
    }

    #[test]
    fn records_render_the_unified_schema() {
        let records = [
            Record::with_baseline("cached_reads", "blocks_per_s", 2.0, 1.0),
            Record::new("overhead", "percent", 3.25),
        ];
        let json = records_json(&records);
        assert!(json.starts_with("  \"records\": [\n"));
        assert!(json.ends_with("  ]"));
        assert!(json.contains(
            "{\"name\": \"cached_reads\", \"unit\": \"blocks_per_s\", \
             \"value\": 2.0000, \"baseline\": 1.0000},"
        ));
        assert!(
            json.contains("{\"name\": \"overhead\", \"unit\": \"percent\", \"value\": 3.2500}\n")
        );
        assert_eq!(records_json(&[]), "  \"records\": [\n  ]");
    }

    #[test]
    fn spread_records_render_min_and_max() {
        let r = Record::with_spread("scrape", "ms", &[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((r.value, r.spread), (2.5, Some((1.0, 10.0))));
        assert_eq!(min_median_max(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert_eq!(
            records_json(&[r]),
            "  \"records\": [\n    {\"name\": \"scrape\", \"unit\": \"ms\", \
             \"value\": 2.5000, \"min\": 1.0000, \"max\": 10.0000}\n  ]"
        );
    }

    #[test]
    fn time_each_times_every_rep() {
        let mut runs = 0;
        assert_eq!(time_each(4, || runs += 1).len(), 4);
        assert_eq!(runs, 4);
    }

    #[test]
    fn time_best_pair_warms_and_times_both_sides_per_rep() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = time_best_pair(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        // One untimed and one timed run per side per rep, `a` first.
        assert_eq!(
            order.into_inner().iter().collect::<String>(),
            "aabbaabbaabb"
        );
        assert!(a < u128::MAX && b < u128::MAX);
    }

    #[test]
    fn time_best_runs_every_rep() {
        let mut runs = 0;
        let best = time_best(3, || runs += 1);
        assert_eq!(runs, 3);
        assert!(best < u128::MAX);
    }

    #[test]
    fn speedup_divides_the_two_rates() {
        let cell = |mode, elapsed_ns| Cell {
            bench: "read",
            mode,
            items: 1_000,
            unit: "blocks",
            elapsed_ns,
        };
        let cells = [cell("fast", 1_000_000), cell("slow", 4_000_000)];
        assert_eq!(cells[0].per_s(), 1e6);
        assert_eq!(speedup(&cells, "read", "fast", "slow"), 4.0);
    }

    #[test]
    fn table_does_not_panic() {
        print_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}

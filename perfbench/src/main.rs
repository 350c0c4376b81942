//! End-to-end and per-layer benchmark of the Redundant Share block store.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mirror-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop client thread drives `rshare_vds::StorageCluster`, in
//! its default configuration, through a seed-generated workload. Every
//! read is checked against an oracle. Human-readable lines go to standard
//! output; the last line is one JSON object with the end-to-end metrics
//! (`--trace 0`) or, from a separate traced run, the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod oracle;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

use run::Outcome;
use spec::{Spec, Workload};
use stats::{median, percentile};
use trace::{Name, Tracer};

/// Cluster set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Addresses replayed by the placement probes.
const PROBE_LBAS: usize = 100_000;
/// Blocks replayed by the erasure probes.
const PROBE_STRIPES: usize = 256;
/// Where the traced run writes its spans, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";
/// The span dump keeps every event and every `DUMP_SAMPLE`-th user op.
const DUMP_SAMPLE: u32 = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn us(samples: &mut [u64], p: f64) -> Option<f64> {
    percentile(samples, p).map(|ns| ns / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints `name value unit` lines, `-` for metrics the workload does not
/// exercise.
fn print_table(title: &str, rows: &[(&str, Option<f64>, &str)]) {
    println!("{title}");
    for (name, value, unit) in rows {
        match value {
            Some(v) => println!("  {name:<36} {v:>16.6} {unit}"),
            None => println!("  {name:<36} {:>16} (not exercised)", "-"),
        }
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn summary(out: &Outcome) {
    println!(
        "  user ops {} (errors {}, wrong bytes {}), events {} (errors {}), changes {}, shards repaired {}, audit: {} errors, {} wrong blocks",
        out.user_ops,
        out.op_errors,
        out.op_corrupt,
        out.events,
        out.event_errors,
        out.changes,
        out.shards_repaired,
        out.audit_errors,
        out.audit_corrupt
    );
    let rates: Vec<String> = out
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.ok_ops as f64 / w.secs))
        .collect();
    println!("  ops/s by window: {}", rates.join(" "));
}

/// `--trace 0`: set up `SETUPS` times, run the measured phase untraced,
/// report the end-to-end metrics.
fn end_to_end(spec: &Spec, seed: u64) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(run::build(spec));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut cluster, mut model) = built.expect("at least one set-up");
    let mut out = run::run_phase(spec, &mut cluster, &mut model, &mut Tracer::new(false, 0));
    drop(cluster);

    let setup = median(&mut setup_s);
    let read_p50 = out.window_latency(|w| us(&mut w.read_ns, 50.0));
    let read_p99 = out.window_latency(|w| us(&mut w.read_ns, 99.0));
    let scan_p50 = out.window_latency(|w| us(&mut w.scan_ns, 50.0));
    let write_p50 = out.window_latency(|w| us(&mut w.write_ns, 50.0));
    let write_p99 = out.window_latency(|w| us(&mut w.write_ns, 99.0));
    let degraded_p50 = out.window_latency(|w| us(&mut w.degraded_read_ns, 50.0));
    let rss = stats::peak_rss_mib();
    let attempted = out.user_ops + out.events;
    let failed_ratio = ratio((out.op_errors + out.op_corrupt) as f64, out.user_ops as f64);
    let corrupt_ratio = ratio(out.corrupt_reads as f64, out.reads as f64);
    let changes = out.changes > 0;
    let repairs = !spec.losses.is_empty();
    println!(
        "workload {} seed {seed}: {} user ops in {:.3} s",
        spec.workload.name(),
        out.user_ops,
        out.phase_s
    );
    summary(&out);
    print_table(
        "end-to-end",
        &[
            ("setup_s", Some(setup), "s"),
            ("ops_per_s", Some(out.ops_per_s()), "ops/s"),
            ("read_p50_us", read_p50, "us"),
            ("read_p99_us", read_p99, "us"),
            ("scan_p50_us", scan_p50, "us"),
            ("write_p50_us", write_p50, "us"),
            ("write_p99_us", write_p99, "us"),
            ("degraded_read_p50_us", degraded_p50, "us"),
            (
                "rebuild_s",
                (out.rebuild_s > 0.0).then_some(out.rebuild_s),
                "s",
            ),
            ("repair_s", repairs.then_some(out.repair_s), "s"),
            (
                "rebalance_s",
                (out.rebalance_s > 0.0).then_some(out.rebalance_s),
                "s",
            ),
            (
                "moved_ratio",
                changes.then(|| ratio(out.shards_moved as f64, out.fair_min_shards)),
                "ratio",
            ),
            ("fairness_max_dev", Some(out.fairness_max_dev), "ratio"),
            ("failed_op_ratio", Some(failed_ratio), "ratio"),
            ("corrupt_read_ratio", Some(corrupt_ratio), "ratio"),
            ("peak_rss_mb", Some(rss), "MiB"),
        ],
    );
    let gated = |v: Option<f64>, name: &str| {
        v.unwrap_or_else(|| panic!("{name}: the workload completed no such op"))
    };
    print_result(
        out.correct(),
        attempted,
        out.failed(),
        &[
            metric("setup_s", setup, "s"),
            metric("ops_per_s", out.ops_per_s(), "ops/s"),
            metric("read_p50_us", gated(read_p50, "read_p50_us"), "us"),
            metric("read_p99_us", gated(read_p99, "read_p99_us"), "us"),
            metric("scan_p50_us", gated(scan_p50, "scan_p50_us"), "us"),
            metric("write_p50_us", gated(write_p50, "write_p50_us"), "us"),
            metric("write_p99_us", gated(write_p99, "write_p99_us"), "us"),
            metric("fairness_max_dev", out.fairness_max_dev, "ratio"),
            metric("peak_rss_mb", rss, "MiB"),
        ],
    );
}

/// `--trace 1`: an untraced pass for the layer counters and the
/// reference throughput, a traced pass for spans, then layer replays on
/// the traced pass's final cluster.
fn per_layer(spec: &Spec) -> std::io::Result<()> {
    let (mut cluster, mut model) = run::build(spec);
    let plain = run::run_phase(spec, &mut cluster, &mut model, &mut Tracer::new(false, 0));
    drop(cluster);
    let (mut cluster, mut model) = run::build(spec);
    let mut tr = Tracer::new(true, spec.ops.len() * 3 + 1024);
    let mut traced = run::run_phase(spec, &mut cluster, &mut model, &mut tr);

    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/spans-{}.tsv", spec.workload.name());
    tr.write_tsv(&mut BufWriter::new(File::create(&path)?), DUMP_SAMPLE)?;

    let spans = tr.spans();
    let k = spec.redundancy.total_shards();
    let lbas = probes::workload_lbas(spec, PROBE_LBAS);
    let set = run::online_bins(&cluster);
    let strategy = run::strategy(&set, k);
    let place = probes::place_ns(strategy.as_ref(), &lbas);
    let place_batch = probes::place_batch_ns(strategy.as_ref(), &lbas);
    let build_ms = if traced.build_ms.is_empty() {
        let mut v: Vec<f64> = (0..5)
            .map(|_| run::time_build(&set, k, &mut None))
            .collect();
        median(&mut v)
    } else {
        median(&mut traced.build_ms)
    };
    let lookup = trace::central_ns(spans, Name::LOOKUP).expect("traced reads");
    let read = trace::central_ns(spans, Name::READ_BLOCK).expect("traced reads");
    let stripes = &lbas[..PROBE_STRIPES.min(lbas.len())];
    let encode = probes::encode_ns_per_kib(stripes);
    let reconstruct = probes::reconstruct_ns_per_kib(stripes);
    let plan_ms = if traced.plan_ms.is_empty() {
        probes::plan_ms(&cluster)
    } else {
        median(&mut traced.plan_ms)
    };
    let scrape_ms = if traced.scrape_ms.is_empty() {
        probes::scrape_ms(&cluster)
    } else {
        median(&mut traced.scrape_ms)
    };
    let busy_max = plain.busy_us.iter().copied().max().unwrap_or(0) as f64;
    let busy_mean = ratio(
        plain.busy_us.iter().sum::<u64>() as f64,
        plain.busy_us.len() as f64,
    );
    let self_t = trace::self_times(spans);
    let wall_ns = traced.wall_s * 1e9;
    let pct = |ns: u64| ns as f64 / wall_ns * 100.0;
    let residual_pct = (wall_ns - self_t.root_ns as f64) / wall_ns * 100.0;
    let overhead = plain.ops_per_s() - traced.ops_per_s();

    println!(
        "workload {} traced run: {} spans written to {path}",
        spec.workload.name(),
        spans.len()
    );
    summary(&plain);
    summary(&traced);
    println!(
        "  ops_per_s untraced {:.1}, traced {:.1}",
        plain.ops_per_s(),
        traced.ops_per_s()
    );
    let metrics = [
        metric("core.place_ns", place, "ns"),
        metric("core.place_batch_ns_per_block", place_batch, "ns"),
        metric("core.strategy_build_ms", build_ms, "ms"),
        metric("cache.lookup_ns", lookup, "ns"),
        metric(
            "cache.hit_ratio",
            ratio(
                plain.cache_hits as f64,
                (plain.cache_hits + plain.cache_misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "cache.computed_per_op",
            ratio(plain.placements_computed as f64, plain.user_ops as f64),
            "ratio",
        ),
        metric("cluster.read_residual_ns", read - lookup, "ns"),
        metric(
            "device.shard_reads_per_read",
            ratio(plain.device_reads as f64, plain.reads as f64),
            "ratio",
        ),
        metric(
            "device.bytes_written_per_user_byte",
            ratio(
                plain.device_bytes_written as f64,
                plain.user_bytes_written as f64,
            ),
            "ratio",
        ),
        metric(
            "device.busy_max_over_mean",
            ratio(busy_max, busy_mean),
            "ratio",
        ),
        metric("erasure.encode_parity_ns_per_kib", encode, "ns/KiB"),
        metric(
            "erasure.kernel_bytes_per_user_byte",
            ratio(plain.kernel_bytes as f64, plain.user_bytes_written as f64),
            "ratio",
        ),
        metric("erasure.reconstruct_ns_per_kib", reconstruct, "ns/KiB"),
        metric("migration.plan_ms", plan_ms, "ms"),
        metric("migration.shards_moved", plain.shards_moved as f64, "count"),
        metric(
            "migration.shards_reconstructed",
            plain.shards_reconstructed as f64,
            "count",
        ),
        metric("migration.pending_max", plain.pending_max as f64, "count"),
        metric("obs.scrape_ms", scrape_ms, "ms"),
        metric("self.bench_pct", pct(self_t.get("bench")), "%"),
        metric("self.cache_pct", pct(self_t.get("cache")), "%"),
        metric("self.cluster_pct", pct(self_t.get("cluster")), "%"),
        metric("self.migration_pct", pct(self_t.get("migration")), "%"),
        metric("self.obs_pct", pct(self_t.get("obs")), "%"),
        metric("trace.residual_pct", residual_pct, "%"),
        metric("trace.overhead_ops_per_s", overhead, "ops/s"),
    ];
    let rows: Vec<(&str, Option<f64>, &str)> = metrics
        .iter()
        .map(|m| (m.name, Some(m.value), m.unit))
        .collect();
    print_table("per-layer", &rows);
    print_result(
        plain.correct() && traced.correct(),
        plain.user_ops + plain.events + traced.user_ops + traced.events,
        plain.failed() + traced.failed(),
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::generate(args.workload, args.seed, args.seconds);
    if args.trace {
        if let Err(e) = per_layer(&spec) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        end_to_end(&spec, args.seed);
    }
    ExitCode::SUCCESS
}

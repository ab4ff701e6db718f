//! End-to-end and per-layer benchmark of the TicTac reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics, untraced; with
//! `--trace 1` it runs untraced and traced passes side by side and reports
//! the per-layer metrics. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A human-readable
//! summary goes to stderr. Scratch stores live under `.bench_out/` in the
//! working directory and are removed at exit; the traced run's spans are
//! written there once, at the end.

mod calib;
mod check;
mod heap;
mod replay;
mod run;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tictac_core::{DeployCache, Payload, RunReport, SchedulerKind};

use calib::{Calibration, Sample};
use run::{Bench, Samples, StoreBase, Tally};
use workload::{Inputs, Point, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("sim_iters_per_s", "1/s"),
    ("host_ns_per_op", "ns"),
    ("iter_host_ms.p50", "ms"),
    ("record_ms.p50", "ms"),
    ("query_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("sim_samples_per_s", "samples/s"),
    ("tac_speedup", "ratio"),
    ("sched_efficiency", "ratio"),
];

/// The layers, named after the workspace crates they time.
pub const LAYERS: [&str; 10] = [
    "scenario", "models", "cluster", "core", "sched", "faults", "sim", "trace", "obs", "store",
];

/// Per-layer metrics other than `<layer>.self_ms`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("scenario.parse_ms", "ms"),
    ("models.build_ms", "ms"),
    ("models.ops", "count"),
    ("cluster.deploy_ms", "ms"),
    ("cluster.ops", "count"),
    ("cluster.transfers", "count"),
    ("cluster.bytes_per_iter", "bytes"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("sched.profile_ms", "ms"),
    ("sched.tic_ms", "ms"),
    ("sched.tac_ms", "ms"),
    ("sched.efficiency_ms", "ms"),
    ("sim.seq.ms", "ms"),
    ("sim.seq.iters", "count"),
    ("sim.seq.ns_per_op", "ns"),
    ("sim.par.ms", "ms"),
    ("sim.par.iters", "count"),
    ("sim.par.ns_per_op", "ns"),
    ("faults.plan_ms", "ms"),
    ("faults.retransmits", "count"),
    ("faults.retransmit_ratio", "ratio"),
    ("trace.analyze_ms", "ms"),
    ("trace.straggler_pct", "%"),
    ("obs.inversions_ms", "ms"),
    ("obs.inversions", "count"),
    ("obs.comm_overlap_frac", "ratio"),
    ("store.append_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.regress_ms", "ms"),
    ("store.records", "count"),
    ("trace_overhead_pct", "%"),
    ("trace_coverage_pct", "%"),
];

/// Cold set-ups per untraced run: at least this many, and more until
/// `SETUP_MIN_TIME` has passed; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Set-up time after which no further set-up is started.
const SETUP_MIN_TIME: Duration = Duration::from_secs(4);
/// Calibration kernel runs before each set-up and after the last, so that
/// every set-up has kernel runs near it.
const SETUP_KERNELS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value.as_str());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = Workload::from_name(get("workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = get("seconds")?
        .parse()
        .ok()
        .filter(|&s| s > 0)
        .ok_or("--seconds must be a positive integer")?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out").join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let inputs = workload::inputs(args.workload, args.seed);
    let window = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let metrics = if args.trace {
        traced(&args, &inputs, &dir, window, &mut tally)
    } else {
        untraced(&inputs, &dir, window, &mut tally)
    };
    let _ = fs::remove_dir_all(&dir);
    for e in &tally.errors {
        eprintln!("FAILED: {e}");
    }
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let complete = expected.iter().all(|(n, _)| metrics.contains_key(n));
    if !complete {
        tally.check("every metric measured", false);
    }
    let mut out = String::new();
    for (name, unit) in &expected {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    eprintln!(
        "  attempted {} failed {} fail_ratio {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{out}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    ExitCode::SUCCESS
}

/// Every per-layer metric name with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    names.extend(LAYERS.iter().map(|l| (format!("{l}.self_ms"), "ms")));
    names
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The simulated results of the points' own runs: mean TAC throughput,
/// mean TAC/baseline throughput ratio over (model, seed) pairs and mean
/// TAC efficiency.
struct Simulated {
    samples_per_s: f64,
    tac_speedup: f64,
    efficiency: f64,
}

fn simulated(points: &[Point], reports: &[RunReport]) -> Option<Simulated> {
    let key = |p: &Point| (p.model, p.settings.config.seed, p.settings.cluster.clone());
    let tac: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].settings.scheduler == SchedulerKind::Tac)
        .collect();
    let mut ratios = Vec::new();
    for &i in &tac {
        let base = (0..points.len()).find(|&j| {
            points[j].settings.scheduler == SchedulerKind::Baseline
                && key(&points[j]) == key(&points[i])
        })?;
        ratios.push(reports[i].mean_throughput() / reports[base].mean_throughput());
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    (!tac.is_empty()).then(|| Simulated {
        samples_per_s: mean(tac.iter().map(|&i| reports[i].mean_throughput()).collect()),
        tac_speedup: mean(ratios),
        efficiency: mean(tac.iter().map(|&i| reports[i].mean_efficiency()).collect()),
    })
}

/// A set-up after its own runs, with the store state they left.
struct Prepared {
    bench: Bench,
    own: Vec<RunReport>,
    base: StoreBase,
}

/// Runs the points' own runs on a set-up `bench` and checks their
/// records: every TAC iteration must show zero priority inversions.
fn own_runs(bench: Bench, inputs: &Inputs, check: bool, tally: &mut Tally) -> Option<Prepared> {
    bench.sink.keep(true);
    let own: Option<Vec<RunReport>> = run::own_runs(&bench, check, tally).into_iter().collect();
    let records = bench.sink.take_kept();
    bench.sink.keep(false);
    bench.sink.take_append_ms();
    let own = own?;
    tally.check("every own run recorded", records.len() == own.len());
    // Enforced TAC on in-order channels cannot invert priorities. With a
    // modelled gRPC reorder error (envG) hand-offs may run out of order,
    // so inversions there are expected behaviour, not a failure.
    let in_order_tac_inversions: u64 = records
        .iter()
        .zip(&bench.points)
        .filter(|(_, p)| {
            p.settings.scheduler == SchedulerKind::Tac && p.settings.config.reorder_error == 0.0
        })
        .filter_map(|(r, _)| match &r.payload {
            Payload::Session(s) => Some(s.iterations.iter().map(|i| i.inversions).sum::<u64>()),
            _ => None,
        })
        .sum();
    tally.check(
        "in-order TAC runs show no priority inversions",
        in_order_tac_inversions == 0,
    );
    let base = StoreBase::after_own_runs(inputs, &records, &bench.store_path);
    Some(Prepared { bench, own, base })
}

/// The untraced run: median cold set-up, own runs, then measurement
/// cycles until `window` has passed.
fn untraced(
    inputs: &Inputs,
    dir: &Path,
    window: Duration,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let store_path = dir.join("runs.jsonl");
    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut bench = None;
    let setting_up = Instant::now();
    while setups.len() < SETUP_REPEATS || setting_up.elapsed() < SETUP_MIN_TIME {
        drop(bench.take());
        (0..SETUP_KERNELS).for_each(|_| cal.tick_now());
        let Some((b, secs)) = run::set_up(inputs, &store_path, tally) else {
            return m;
        };
        setups.push(secs);
        bench = Some(b);
    }
    (0..SETUP_KERNELS).for_each(|_| cal.tick_now());
    let Some(prep) = bench.and_then(|b| own_runs(b, inputs, true, tally)) else {
        return m;
    };
    let mut samples = Samples::default();
    let mut next_offset = vec![0; prep.bench.sessions.len()];
    let started = Instant::now();
    while samples.query_s.is_empty() || started.elapsed() < window {
        run::cycle(
            &prep.bench,
            &prep.base,
            &mut next_offset,
            false,
            Some(&mut cal),
            &mut samples,
            tally,
        );
        if samples.step_ms.is_empty() {
            break;
        }
    }
    cal.tick();
    let appends = prep.bench.sink.take_append_ms();
    tally.check("every append succeeded", prep.bench.sink.failures() == 0);

    let (kernels, kernel_ms) = cal.mean_ms();
    eprintln!("  calibration: {kernels} kernel runs, mean {kernel_ms:.3} ms");
    // Each sample scaled to reference speed by the kernel runs near it.
    let step_ms = cal.scaled(&samples.step_ms);
    let append_ms = cal.scaled(&appends);
    let step_ms_total: f64 = step_ms.iter().sum();
    let mut scaled: Vec<(&str, &[Sample], Option<f64>)> = vec![
        ("setup_s", &setups, stats::median(&cal.scaled(&setups))),
        ("iter_host_ms.p50", &samples.step_ms, stats::median(&step_ms)),
        ("record_ms.p50", &appends, stats::median(&append_ms)),
        (
            "query_s",
            &samples.query_s,
            stats::median(&cal.scaled(&samples.query_s)),
        ),
    ];
    if !step_ms.is_empty() {
        scaled.push((
            "host_ns_per_op",
            &[],
            Some(step_ms_total * 1e6 / samples.step_ops as f64),
        ));
        scaled.push((
            "sim_iters_per_s",
            &[],
            Some(step_ms.len() as f64 / (step_ms_total / 1e3)),
        ));
    }
    for (name, raw, value) in scaled {
        let Some(v) = value else { continue };
        let raw: Vec<f64> = raw.iter().map(|s| s.value).collect();
        match stats::median(&raw) {
            Some(r) => eprintln!("  {name} = {v} ({r} raw)"),
            None => eprintln!("  {name} = {v}"),
        }
        m.insert(name.to_string(), v);
    }
    m.insert(
        "peak_heap_mib".into(),
        heap::peak_mib() - cal.bytes() as f64 / (1024.0 * 1024.0),
    );
    if let Some(sim) = simulated(&prep.bench.points, &prep.own) {
        m.insert("sim_samples_per_s".into(), sim.samples_per_s);
        m.insert("tac_speedup".into(), sim.tac_speedup);
        m.insert("sched_efficiency".into(), sim.efficiency);
    }
    for (name, samples) in [("iter_host_ms", &step_ms), ("record_ms", &append_ms)] {
        match stats::tail(samples, 0.99) {
            Some(v) => eprintln!(
                "  {name}.p99 = {v:.6} ms over {} samples",
                samples.len()
            ),
            None => eprintln!(
                "  {name}.p99 not reported: {} samples, {} needed",
                samples.len(),
                stats::min_samples_for_tail(0.99)
            ),
        }
    }
    eprintln!(
        "  {} points, {} set-ups, {} recorded runs, {} queries",
        prep.bench.points.len(),
        setups.len(),
        samples.step_ms.len(),
        samples.query_s.len()
    );
    m
}

/// The traced run: pairs of (untraced pass, traced replay) until `window`
/// has passed; each per-layer metric is the median over pairs.
fn traced(
    args: &Args,
    inputs: &Inputs,
    dir: &Path,
    window: Duration,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    let started = Instant::now();
    let mut pairs: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_spans = String::new();
    while pairs.is_empty() || started.elapsed() < window {
        let Some((metrics, spans)) = traced_pair(inputs, dir, tally) else {
            break;
        };
        pairs.push(metrics);
        last_spans = spans;
    }
    let out = PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = fs::write(&out, last_spans) {
        eprintln!("warning: cannot write {}: {e}", out.display());
    }
    let mut m = BTreeMap::new();
    for (name, _) in per_layer_names() {
        let values: Vec<f64> = pairs.iter().filter_map(|p| p.get(&name).copied()).collect();
        if let Some(v) = stats::median(&values) {
            m.insert(name, v);
        }
    }
    eprintln!(
        "  {} traced pair(s); spans in {}",
        pairs.len(),
        out.display()
    );
    m
}

/// One untraced pass (cold set-up, own runs, one cycle) and its traced
/// replay; returns the per-layer metrics and the replay's spans.
fn traced_pair(
    inputs: &Inputs,
    dir: &Path,
    tally: &mut Tally,
) -> Option<(BTreeMap<String, f64>, String)> {
    let started = Instant::now();
    let before = DeployCache::global().stats();
    let (bench, _) = run::set_up(inputs, &dir.join("runs.jsonl"), tally)?;
    let (hits, misses) = run::cache_delta(before, DeployCache::global().stats());
    bench.sink.keep(true);
    let own: Vec<RunReport> = run::own_runs(&bench, false, tally)
        .into_iter()
        .collect::<Option<_>>()?;
    let own_records = bench.sink.take_kept();
    let base = StoreBase::after_own_runs(inputs, &own_records, &bench.store_path);
    let mut samples = Samples::default();
    let mut next_offset = vec![0; bench.sessions.len()];
    run::cycle(
        &bench,
        &base,
        &mut next_offset,
        true,
        None,
        &mut samples,
        tally,
    );
    let untraced_s = started.elapsed().as_secs_f64();
    let mut records = own_records;
    records.extend(bench.sink.take_kept());
    bench.sink.keep(false);

    let untraced = replay::Untraced {
        points: &bench.points,
        own: &own,
        steps: &samples.steps,
        records: &records,
    };
    let r = replay::replay(inputs, &untraced, &dir.join("replay.jsonl"), tally)?;
    eprintln!(
        "  pair: untraced {untraced_s:.3} s, traced {:.3} s",
        r.wall_s
    );
    Some((
        layer_metrics(&r, untraced_s, hits, misses),
        r.tracer.to_jsonl(),
    ))
}

/// Folds a replay's spans and counts into the per-layer metrics.
fn layer_metrics(
    r: &replay::Replay,
    untraced_s: f64,
    hits: u64,
    misses: u64,
) -> BTreeMap<String, f64> {
    let spans = r.tracer.spans();
    let selfs = spans::self_times(spans);
    let mut total_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    let mut work: BTreeMap<&str, u64> = BTreeMap::new();
    let mut self_ms: BTreeMap<&str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (s, own) in spans.iter().zip(&selfs) {
        *total_ms.entry(s.name).or_default() += s.duration_ns() as f64 / 1e6;
        *calls.entry(s.name).or_default() += 1;
        *work.entry(s.name).or_default() += s.work;
        *self_ms.entry(s.layer()).or_default() += *own as f64 / 1e6;
    }
    let ms = |name: &str| total_ms.get(name).copied().unwrap_or(0.0);
    let n = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;
    let per_op = |name: &str| match work.get(name).copied().unwrap_or(0) {
        0 => 0.0,
        w => ms(name) * 1e6 / w as f64,
    };
    let c = &r.counts;
    let covered_ms: f64 = self_ms.values().sum();
    let wall_ms = r.wall_s * 1e3;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("scenario.parse_ms", ms("scenario.parse"));
    put("models.build_ms", ms("models.build"));
    put("models.ops", c.model_ops as f64);
    put("cluster.deploy_ms", ms("cluster.deploy"));
    put("cluster.ops", c.deployed_ops as f64);
    put("cluster.transfers", c.transfers as f64);
    put("cluster.bytes_per_iter", c.bytes_per_iter as f64);
    put("core.cache.hits", hits as f64);
    put("core.cache.misses", misses as f64);
    put(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    put("sched.profile_ms", ms("sched.profile"));
    put("sched.tic_ms", ms("sched.tic"));
    put("sched.tac_ms", ms("sched.tac"));
    put("sched.efficiency_ms", ms("sched.efficiency"));
    for engine in ["seq", "par"] {
        let span = format!("sim.{engine}");
        put(&format!("{span}.ms"), ms(&span));
        put(&format!("{span}.iters"), n(&span));
        put(&format!("{span}.ns_per_op"), per_op(&span));
    }
    put("faults.plan_ms", ms("faults.plan"));
    put("faults.retransmits", c.retransmits as f64);
    put(
        "faults.retransmit_ratio",
        c.retransmits as f64 / c.transfers_run.max(1) as f64,
    );
    put("trace.analyze_ms", ms("trace.analyze"));
    put("trace.straggler_pct", c.tac_straggler_max);
    put("obs.inversions_ms", ms("obs.inversions"));
    put("obs.inversions", c.inversions as f64);
    put(
        "obs.comm_overlap_frac",
        c.overlap.iter().sum::<f64>() / c.overlap.len().max(1) as f64,
    );
    put("store.append_ms", ms("store.append"));
    put("store.load_ms", ms("store.load"));
    put("store.regress_ms", ms("store.regress"));
    put("store.records", c.records as f64);
    for (layer, v) in &self_ms {
        put(&format!("{layer}.self_ms"), *v);
    }
    // The overlap report is extra analysis the untraced pass does not do.
    let comparable_ms = wall_ms - ms("obs.overlap");
    put(
        "trace_overhead_pct",
        100.0 * (comparable_ms / 1e3 - untraced_s) / untraced_s,
    );
    put("trace_coverage_pct", 100.0 * covered_ms / wall_ms);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_allowed_characters() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
        assert!(!valid_name("sim seq"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("ms/op"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = tictac_obs::json::parse_json(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|e| {
                    let field =
                        |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}

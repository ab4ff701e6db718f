//! The untraced measurement: cold set-up, each point's own run, then
//! timed cycles of recorded single-iteration runs and store queries.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tictac_core::{
    analyze, group_key, regress, CacheStats, DeployCache, Payload, RegressPolicy, RunOptions,
    RunRecord, RunReport, RunSink, RunStore, Scenario, Session,
};

use crate::calib::{Calibration, Sample};
use crate::check::check_trace;
use crate::workload::{Inputs, Point};

/// Iteration-index offset of the timed single-iteration runs, far from the
/// indices of each point's own run.
const STEP_OFFSET: u64 = 1 << 20;
/// Host time after which a cycle's queries stop; at least one runs.
const QUERY_MIN_TIME: Duration = Duration::from_millis(200);

/// Counts attempted and failed operations; a failure is an error return
/// or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns its value when it succeeded.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// A run store that times every append. Sessions record into it through
/// `SessionBuilder::record_to`, so the append is timed on its own inside
/// the recorded run.
#[derive(Debug)]
pub struct TimedSink {
    store: RunStore,
    append_ms: Mutex<Vec<Sample>>,
    kept: Mutex<Vec<RunRecord>>,
    keep: AtomicBool,
    failures: AtomicU64,
}

impl TimedSink {
    fn new(path: &Path) -> Self {
        Self {
            store: RunStore::at(path),
            append_ms: Mutex::new(Vec::new()),
            kept: Mutex::new(Vec::new()),
            keep: AtomicBool::new(false),
            failures: AtomicU64::new(0),
        }
    }

    /// Whether to keep a copy of each record for a later replay.
    pub fn keep(&self, on: bool) {
        self.keep.store(on, Ordering::Relaxed);
    }

    /// Takes the kept records.
    pub fn take_kept(&self) -> Vec<RunRecord> {
        std::mem::take(&mut *self.kept.lock().expect("sink lock"))
    }

    /// Takes the append timings, in ms.
    pub fn take_append_ms(&self) -> Vec<Sample> {
        std::mem::take(&mut *self.append_ms.lock().expect("sink lock"))
    }

    /// Appends that returned an error so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

impl RunSink for TimedSink {
    fn record(&self, record: RunRecord) {
        if self.keep.load(Ordering::Relaxed) {
            self.kept.lock().expect("sink lock").push(record.clone());
        }
        let started = Instant::now();
        let result = self.store.append(record);
        let ms = Sample::since(started, 1e3);
        self.append_ms.lock().expect("sink lock").push(ms);
        if result.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Writes `records` as a JSONL store in one write, the way a history
/// accumulated over many earlier runs would sit on disk.
pub fn write_corpus(path: &Path, records: &[RunRecord]) -> Result<(), String> {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.encode());
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| e.to_string())
}

/// Everything set-up produced.
#[derive(Debug)]
pub struct Bench {
    /// The grid points, in session order.
    pub points: Vec<Point>,
    /// One session per point.
    pub sessions: Vec<Session>,
    /// The store every session records into.
    pub sink: Arc<TimedSink>,
    /// The store's file.
    pub store_path: PathBuf,
    /// Recorded single-iteration runs per cycle.
    pub cycle_steps: usize,
}

/// Cold set-up: clears `DeployCache::global()`, writes the history
/// corpus, parses the scenarios and builds every session (deploy and
/// schedule, TAC profiling included). Returns the set-up and its host
/// seconds.
pub fn set_up(inputs: &Inputs, store_path: &Path, tally: &mut Tally) -> Option<(Bench, Sample)> {
    DeployCache::global().clear();
    let _ = fs::remove_file(store_path);
    let started = Instant::now();
    if !inputs.corpus.is_empty() {
        tally.op("write corpus", write_corpus(store_path, &inputs.corpus))?;
    }
    let mut points = Vec::new();
    for grid in &inputs.grids {
        let parsed = tally.op(
            "parse scenario",
            Scenario::parse_grid(grid).map_err(|e| e.to_string()),
        )?;
        points.extend(parsed.iter().map(Point::from_scenario));
    }
    points.extend(inputs.direct.iter().cloned());
    let sink = Arc::new(TimedSink::new(store_path));
    let mut sessions = Vec::with_capacity(points.len());
    for p in &points {
        let built = Session::builder(p.model.build_with_batch(p.mode, p.batch))
            .settings(p.settings.clone())
            .record_to(sink.clone())
            .build()
            .map_err(|e| e.to_string());
        sessions.push(tally.op("build session", built)?);
    }
    let secs = Sample::since(started, 1.0);
    let points_len = points.len();
    let bench = Bench {
        points,
        sessions,
        sink,
        store_path: store_path.to_path_buf(),
        cycle_steps: match inputs.cycle_steps {
            0 => points_len,
            n => n,
        },
    };
    Some((bench, secs))
}

/// Sums the deploy- and schedule-level counters of a cache delta.
pub fn cache_delta(before: CacheStats, after: CacheStats) -> (u64, u64) {
    (
        after.deploy_hits + after.schedule_hits - before.deploy_hits - before.schedule_hits,
        after.deploy_misses + after.schedule_misses - before.deploy_misses - before.schedule_misses,
    )
}

/// Runs every point's own run (`Session::try_run`). With `check`, each
/// point's first measured iteration is executed again and its trace
/// checked against the deployed graph and the reported makespan.
pub fn own_runs(bench: &Bench, check: bool, tally: &mut Tally) -> Vec<Option<RunReport>> {
    bench
        .sessions
        .iter()
        .zip(&bench.points)
        .map(|(session, point)| {
            let what = format!("run {}", point.label());
            let report = tally.op(&what, session.try_run().map_err(|e| e.to_string()))?;
            tally.check(
                &format!("{what}: iteration count"),
                report.iterations.len() == point.settings.iterations,
            );
            if check && !report.iterations.is_empty() {
                let first = &report.iterations[0];
                let index = point.settings.warmup as u64;
                let traced = session.trace_iteration(index).map_err(|e| e.to_string());
                if let Some(trace) = tally.op(&what, traced) {
                    let graph = session.deployed().graph();
                    let verdict = check_trace(graph, &trace, first.goodput_pct);
                    tally.op(&format!("{what}: trace"), verdict);
                    let makespan = analyze(graph, session.deployed().workers(), &trace).makespan;
                    tally.check(&format!("{what}: makespan"), makespan == first.makespan);
                }
            }
            Some(report)
        })
        .collect()
}

/// What the store must hold after the own runs, for the query checks.
#[derive(Debug, Clone)]
pub struct StoreBase {
    /// File length to truncate back to after each cycle.
    pub len: u64,
    /// Records in the store after the own runs.
    pub records: usize,
    /// Distinct regression groups among them.
    pub groups: usize,
}

impl StoreBase {
    /// Reads the store state after the own runs; `own` are their records.
    pub fn after_own_runs(inputs: &Inputs, own: &[RunRecord], path: &Path) -> StoreBase {
        let groups: HashSet<String> = inputs.corpus.iter().chain(own).map(group_key).collect();
        StoreBase {
            len: fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            records: inputs.corpus.len() + own.len(),
            groups: groups.len(),
        }
    }
}

/// Host-time samples of the timed cycles.
#[derive(Debug, Default)]
pub struct Samples {
    /// ms per recorded single-iteration run.
    pub step_ms: Vec<Sample>,
    /// Deployed ops simulated by the steps.
    pub step_ops: u64,
    /// s per load + regress.
    pub query_s: Vec<Sample>,
    /// `(point, offset, report)` of each step, kept for a replay.
    pub steps: Vec<(usize, u64, RunReport)>,
}

/// One cycle: `steps` recorded single-iteration runs round-robin over the
/// points (each at a fresh iteration index), then `RunStore::load` +
/// `regress` over the store until `QUERY_MIN_TIME` has passed (at least
/// once), then the store is cut back to `base`. `cal`,
/// when given, gets a chance to run its kernel before each run.
pub fn cycle(
    bench: &Bench,
    base: &StoreBase,
    next_offset: &mut [u64],
    keep_steps: bool,
    mut cal: Option<&mut Calibration>,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let n = bench.sessions.len();
    let steps = bench.cycle_steps;
    let mut last = None;
    for k in 0..steps {
        let p = k % n;
        let offset = STEP_OFFSET + next_offset[p];
        next_offset[p] += 1;
        let session = &bench.sessions[p];
        if let Some(cal) = cal.as_deref_mut() {
            cal.tick();
        }
        let started = Instant::now();
        let run = session.try_run_with(RunOptions::new().offset(offset).iterations(1));
        let ms = Sample::since(started, 1e3);
        let what = format!("step {} @{offset}", bench.points[p].label());
        let Some(report) = tally.op(&what, run.map_err(|e| e.to_string())) else {
            continue;
        };
        tally.check(
            &format!("{what}: one measured iteration"),
            report.iterations.len() == 1 && !report.iterations[0].makespan.is_zero(),
        );
        samples.step_ms.push(ms);
        samples.step_ops += session.deployed().graph().len() as u64;
        last = report.iterations.first().map(|r| r.makespan.as_nanos());
        if keep_steps {
            samples.steps.push((p, offset, report));
        }
    }
    // A query over a 1,000-record store takes tens of milliseconds and a
    // cycle of a scale workload several seconds; repeating the query
    // gives its median many samples.
    let querying = Instant::now();
    while query(
        bench,
        base.records + steps,
        base.groups,
        last,
        samples,
        tally,
    ) && querying.elapsed() < QUERY_MIN_TIME
    {}
    let cut = fs::OpenOptions::new()
        .write(true)
        .open(&bench.store_path)
        .and_then(|f| f.set_len(base.len));
    tally.op("reset store", cut.map_err(|e| e.to_string()));
}

/// Loads the store and runs the regression gate over it, checking that
/// every record came back and the last one is the last step's. Returns
/// whether the store loaded.
fn query(
    bench: &Bench,
    expect_records: usize,
    expect_groups: usize,
    last_makespan_ns: Option<u64>,
    samples: &mut Samples,
    tally: &mut Tally,
) -> bool {
    let store = RunStore::at(&bench.store_path);
    let started = Instant::now();
    let loaded = store.load().map_err(|e| e.to_string());
    let report = loaded
        .as_ref()
        .map(|records| regress(records, &RegressPolicy::default()))
        .ok();
    let secs = Sample::since(started, 1.0);
    let Some(records) = tally.op("load store", loaded) else {
        return false;
    };
    samples.query_s.push(secs);
    tally.check(
        "store holds every appended record",
        records.len() == expect_records,
    );
    let last = records.last().and_then(|r| match &r.payload {
        Payload::Session(s) => s.iterations.first().map(|i| i.makespan_ns),
        _ => None,
    });
    tally.check(
        "last stored record is the last run",
        last == last_makespan_ns,
    );
    if let Some(report) = report {
        tally.check(
            "regress judges every group",
            report.groups.len() == expect_groups,
        );
    }
    true
}

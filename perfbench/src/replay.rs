//! The traced run: each session's pipeline replayed call by call through
//! the library's public functions, with a span around every call.
//!
//! The replay performs the same work as an untraced pass (cold set-up,
//! every point's own run, one measurement cycle, one query) and must
//! reproduce that pass's makespans bit for bit.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use tictac_core::{
    analyze, deploy, efficiency, estimate_profile, no_ordering, overlap_report,
    priority_inversions, regress, selected_engine, simulate, simulate_with_plan, Baseline,
    DeployCache, DeployedModel, EngineChoice, FaultPlan, FaultSpec, GeneralOracle, OpId, Registry,
    RegressPolicy, RunRecord, RunReport, RunStore, Scenario, Schedule, Scheduler, SchedulerKind,
    SimConfig, SimDuration, SimTime, TacScheduler, TicScheduler, TimeOracle,
};

use crate::check::check_trace;
use crate::run::{write_corpus, Tally};
use crate::spans::Tracer;
use crate::workload::{Inputs, Point};

/// Iteration-index base of TAC's profiling runs; must equal the one
/// `Session` uses (a mismatch fails the schedule check below).
const PROFILE_ITERATION_BASE: u64 = 1 << 40;
/// Unordered runs TAC profiles (the paper's min-of-5 estimate).
const PROFILE_RUNS: u64 = 5;

/// What the untraced pass did, for the replay to repeat and compare.
#[derive(Debug)]
pub struct Untraced<'a> {
    /// Points in session order.
    pub points: &'a [Point],
    /// Each point's own run.
    pub own: &'a [RunReport],
    /// The timed cycle's steps: `(point, offset, report)`.
    pub steps: &'a [(usize, u64, RunReport)],
    /// Records the pass appended, own runs first, then steps.
    pub records: &'a [RunRecord],
}

/// Work counts observed by the replay.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Model-graph ops built.
    pub model_ops: u64,
    /// Ops of the distinct deployed graphs.
    pub deployed_ops: u64,
    /// Transfers (recv ops) of one step, summed over distinct deployments.
    pub transfers: u64,
    /// Bytes of one step, summed over distinct deployments.
    pub bytes_per_iter: u64,
    /// Transfers executed over all measured iterations.
    pub transfers_run: u64,
    /// Retransmitted attempts over all measured iterations.
    pub retransmits: u64,
    /// Priority inversions over all measured iterations.
    pub inversions: u64,
    /// Comm/compute overlap of each point's first measured iteration.
    pub overlap: Vec<f64>,
    /// Maximum straggler percentage of any TAC iteration.
    pub tac_straggler_max: f64,
    /// Records the store held at the query.
    pub records: u64,
}

/// The replay's result.
#[derive(Debug)]
pub struct Replay {
    /// Every span.
    pub tracer: Tracer,
    /// Replay wall time, s, excluding the output checks.
    pub wall_s: f64,
    /// Work counts.
    pub counts: Counts,
}

struct Prepared {
    deploy: usize,
    schedule: usize,
}

/// Replays `untraced` into a fresh store at `store_path`.
pub fn replay(
    inputs: &Inputs,
    untraced: &Untraced,
    store_path: &Path,
    tally: &mut Tally,
) -> Option<Replay> {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let mut check_s = 0.0;
    let started = Instant::now();
    let _ = fs::remove_file(store_path);

    if !inputs.corpus.is_empty() {
        let written = t.span("store.encode", None, |_| {
            write_corpus(store_path, &inputs.corpus)
        });
        tally.op("write corpus", written)?;
    }
    let mut points: Vec<Point> = Vec::new();
    for grid in &inputs.grids {
        let parsed = t.span("scenario.parse", None, |_| {
            Scenario::parse_grid(grid)
                .map(|g| g.iter().map(Point::from_scenario).collect::<Vec<_>>())
        });
        points.extend(tally.op("parse scenario", parsed.map_err(|e| e.to_string()))?);
    }
    points.extend(inputs.direct.iter().cloned());
    tally.check(
        "replay parses the same points",
        points.len() == untraced.points.len()
            && points
                .iter()
                .zip(untraced.points)
                .all(|(a, b)| a.settings.scenario_fp == b.settings.scenario_fp),
    );

    // Set-up: build, deploy and schedule each point. Deployments and
    // schedules are shared between points exactly where the session path
    // shares them: where `DeployCache` hands back the same `Arc`.
    let mut deploys: Vec<DeployedModel> = Vec::new();
    let mut transfers: Vec<u64> = Vec::new();
    let mut schedules: Vec<Schedule> = Vec::new();
    let mut deploy_of: HashMap<*const DeployedModel, usize> = HashMap::new();
    let mut schedule_of: HashMap<*const Schedule, usize> = HashMap::new();
    let mut prepared = Vec::with_capacity(points.len());
    for (p, point) in points.iter().enumerate() {
        let s = &point.settings;
        let model = t.span("models.build", Some(p), |_| {
            point.model.build_with_batch(point.mode, point.batch)
        });
        counts.model_ops += model.ops().len() as u64;
        let cached = t.span("core.cache", Some(p), |_| {
            DeployCache::global().schedule(
                &model,
                &s.cluster,
                s.scheduler,
                &s.config,
                &Registry::disabled(),
            )
        });
        let (cached_deploy, cached_schedule) =
            tally.op("cache lookup", cached.map_err(|e| e.to_string()))?;
        let d = match deploy_of.get(&std::sync::Arc::as_ptr(&cached_deploy)) {
            Some(&d) => d,
            None => {
                let deployed = t.span("cluster.deploy", Some(p), |_| deploy(&model, &s.cluster));
                let deployed = tally.op("deploy", deployed.map_err(|e| e.to_string()))?;
                let graph = deployed.graph();
                counts.deployed_ops += graph.len() as u64;
                let recvs: Vec<_> = graph.ops().filter(|(_, op)| op.is_recv()).collect();
                counts.transfers += recvs.len() as u64;
                counts.bytes_per_iter += recvs.iter().map(|(_, op)| op.cost().bytes).sum::<u64>();
                transfers.push(recvs.len() as u64);
                deploys.push(deployed);
                deploy_of.insert(std::sync::Arc::as_ptr(&cached_deploy), deploys.len() - 1);
                deploys.len() - 1
            }
        };
        let deployed = &deploys[d];
        tally.check(
            "replayed deployment matches the session's",
            deployed.graph().len() == cached_deploy.graph().len(),
        );
        let sc = match schedule_of.get(&std::sync::Arc::as_ptr(&cached_schedule)) {
            Some(&sc) => sc,
            None => {
                let schedule = derive_schedule(&mut t, p, deployed, s.scheduler, &s.config);
                let schedule = tally.op("schedule", schedule)?;
                tally.check(
                    "replayed schedule matches the session's",
                    schedule == *cached_schedule,
                );
                schedules.push(schedule);
                schedule_of.insert(
                    std::sync::Arc::as_ptr(&cached_schedule),
                    schedules.len() - 1,
                );
                schedules.len() - 1
            }
        };
        prepared.push(Prepared {
            deploy: d,
            schedule: sc,
        });
    }

    let store = RunStore::at(store_path);
    let append =
        |t: &mut Tracer, p: Option<usize>, record: Option<&RunRecord>, tally: &mut Tally| {
            if let Some(record) = record {
                let r = t.span("store.append", p, |_| store.append(record.clone()));
                tally.op("append", r.map_err(|e| e.to_string()));
            }
        };

    // Each point's own run, then its record.
    let mut records = untraced.records.iter();
    for (p, (point, prep)) in points.iter().zip(&prepared).enumerate() {
        let run = Run {
            point,
            deployed: &deploys[prep.deploy],
            schedule: &schedules[prep.schedule],
            transfers: transfers[prep.deploy],
            p,
        };
        let iterations = point.settings.iterations;
        let makespans = run.iterations(
            &mut t,
            0,
            iterations,
            true,
            &mut counts,
            &mut check_s,
            tally,
        );
        let expected: Vec<SimDuration> = untraced.own[p]
            .iterations
            .iter()
            .map(|r| r.makespan)
            .collect();
        tally.check(
            "replay reproduces the session makespans",
            makespans == expected,
        );
        append(&mut t, Some(p), records.next(), tally);
    }

    // One measurement cycle.
    for (p, offset, report) in untraced.steps {
        let prep = &prepared[*p];
        let run = Run {
            point: &points[*p],
            deployed: &deploys[prep.deploy],
            schedule: &schedules[prep.schedule],
            transfers: transfers[prep.deploy],
            p: *p,
        };
        let makespans = run.iterations(&mut t, *offset, 1, false, &mut counts, &mut check_s, tally);
        tally.check(
            "replay reproduces the step makespan",
            makespans.first() == report.iterations.first().map(|r| &r.makespan),
        );
        append(&mut t, Some(*p), records.next(), tally);
    }

    // The query.
    let loaded = t.span("store.load", None, |_| store.load());
    let loaded = tally.op("load store", loaded.map_err(|e| e.to_string()))?;
    counts.records = loaded.len() as u64;
    let report = t.span("store.regress", None, |_| {
        regress(&loaded, &RegressPolicy::default())
    });
    tally.check("regress judged the store", !report.groups.is_empty());

    let wall_s = started.elapsed().as_secs_f64() - check_s;
    Some(Replay {
        tracer: t,
        wall_s,
        counts,
    })
}

/// The name of the engine span for a run of `graph` under `config` with
/// `plan`: the engine the simulator selects.
fn engine_span(graph: &tictac_core::Graph, config: &SimConfig, plan_quiet: bool) -> &'static str {
    if plan_quiet && selected_engine(graph, config) == EngineChoice::Parallel {
        "sim.par"
    } else {
        "sim.seq"
    }
}

/// Derives `scheduler`'s schedule on the reference worker and replicates
/// it, as `Session` does: TAC first profiles five unordered, fault-free
/// runs and keeps each op's minimum duration.
fn derive_schedule(
    t: &mut Tracer,
    p: usize,
    deployed: &DeployedModel,
    scheduler: SchedulerKind,
    config: &SimConfig,
) -> Result<Schedule, String> {
    let graph = deployed.graph();
    let reference = deployed.workers()[0];
    let ops = graph.len() as u64;
    let assigned = match scheduler {
        SchedulerKind::Baseline => t.span("sched.baseline", Some(p), |_| {
            Baseline.assign(graph, reference, &GeneralOracle, None)
        }),
        SchedulerKind::Tic => t.span("sched.tic", Some(p), |_| {
            TicScheduler.assign(graph, reference, &GeneralOracle, None)
        }),
        SchedulerKind::Tac => {
            let profile = t.span("sched.profile", Some(p), |t| {
                let quiet = config.clone().with_faults(FaultSpec::none());
                let unordered = no_ordering(graph);
                let engine = engine_span(graph, &quiet, true);
                let traces: Vec<_> = (0..PROFILE_RUNS)
                    .map(|i| {
                        t.span_work(engine, Some(p), ops, |_| {
                            simulate(graph, &unordered, &quiet, PROFILE_ITERATION_BASE + i)
                        })
                    })
                    .collect();
                estimate_profile(&traces)
            });
            let oracle: &dyn TimeOracle = &profile;
            t.span("sched.tac", Some(p), |_| {
                TacScheduler.assign(graph, reference, oracle, None)
            })
        }
        SchedulerKind::Random => return Err("the benchmark runs no random schedules".into()),
    };
    Ok(t.span("cluster.replicate", Some(p), |_| {
        deployed.replicate_schedule(&assigned)
    }))
}

/// One point's deployed model and schedule, ready to run iterations.
struct Run<'a> {
    point: &'a Point,
    deployed: &'a DeployedModel,
    schedule: &'a Schedule,
    /// Transfers (recv ops) per iteration.
    transfers: u64,
    p: usize,
}

impl Run<'_> {
    /// Runs warm-up plus `measured` iterations from `offset` the way
    /// `Session::try_run_with` does for a recorded session, returning the
    /// measured makespans. `overlap` adds the comm/compute overlap report
    /// of the first measured iteration.
    #[allow(clippy::too_many_arguments)]
    fn iterations(
        &self,
        t: &mut Tracer,
        offset: u64,
        measured: usize,
        overlap: bool,
        counts: &mut Counts,
        check_s: &mut f64,
        tally: &mut Tally,
    ) -> Vec<SimDuration> {
        let (p, graph) = (Some(self.p), self.deployed.graph());
        let config = &self.point.settings.config;
        let workers = self.deployed.workers();
        let ops = graph.len() as u64;
        let worker_ops: Vec<Vec<OpId>> = t.span("sched.efficiency", p, |_| {
            workers.iter().map(|&w| graph.ops_on(w).collect()).collect()
        });
        let warmup = self.point.settings.warmup;
        let mut makespans = Vec::with_capacity(measured);
        for i in 0..(warmup + measured) as u64 {
            let iteration = offset + i;
            let plan = t.span("faults.plan", p, |_| {
                FaultPlan::sample(&config.faults, graph, config.seed, iteration)
            });
            let engine = engine_span(graph, config, plan.is_quiet());
            let trace = t.span_work(engine, p, ops, |_| {
                simulate_with_plan(graph, self.schedule, config, iteration, &plan)
            });
            let Some(trace) = tally.op("simulate", trace.map_err(|e| e.to_string())) else {
                continue;
            };
            if (i as usize) < warmup {
                continue;
            }
            let inversions = t.span("obs.inversions", p, |_| {
                priority_inversions(graph, &trace, |op| self.schedule.priority(op)).count()
            });
            let metrics = t.span("trace.analyze", p, |_| analyze(graph, workers, &trace));
            t.span("sched.efficiency", p, |_| {
                let mut min_e = 1.0_f64;
                for (&w, ops) in workers.iter().zip(&worker_ops) {
                    let finish = trace
                        .device_finish(graph, w)
                        .map(|t| t.duration_since(SimTime::ZERO))
                        .unwrap_or(SimDuration::ZERO);
                    let report = efficiency::evaluate(graph, ops, |op| trace.duration(op), finish);
                    min_e = min_e.min(report.efficiency_clamped());
                }
                std::hint::black_box(min_e)
            });
            if overlap && makespans.is_empty() {
                let frac = t.span("obs.overlap", p, |_| {
                    overlap_report(graph, &trace).overlap_frac()
                });
                counts.overlap.push(frac);
            }
            counts.transfers_run += self.transfers;
            counts.retransmits += metrics.faults.retransmits;
            counts.inversions += inversions as u64;
            if self.point.settings.scheduler == SchedulerKind::Tac {
                counts.tac_straggler_max = counts.tac_straggler_max.max(metrics.straggler_pct);
            }
            let checked = Instant::now();
            tally.op(
                "replayed trace",
                check_trace(graph, &trace, metrics.goodput_pct),
            );
            *check_s += checked.elapsed().as_secs_f64();
            makespans.push(metrics.makespan);
        }
        makespans
    }
}

//! The four workloads and the seeded inputs each one runs.
//!
//! Every input is generated from the workload seed: scenario texts (whose
//! `seed:` values are drawn from it), the quiet-cluster configuration, and
//! the synthetic run-store corpus. The program receives only these
//! generated inputs.

use tictac_core::{
    store::{IterationEvidence, SessionEvidence},
    ClusterSpec, FaultCounters, Mode, Model, Payload, Platform, RunRecord, Scenario, SchedulerKind,
    SessionConfig, SimConfig, Snapshot,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's setting (§6): every zoo model × {baseline, tic, tac} ×
    /// 2 seeds on 8 workers / 2 PS, envG with noise.
    PaperSweep,
    /// ResNet-50 v1 on 256 workers / 8 PS, envG noise and mild faults:
    /// sequential engine at scale.
    ScaleNoisy,
    /// The same shape, deterministic and quiet: the partitioned engine,
    /// so post-run analysis dominates.
    ScaleQuiet,
    /// A 10k-record run history, a few hundred appended session records
    /// per cycle, then load + regress.
    StoreHistory,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::ScaleNoisy,
        Workload::ScaleQuiet,
        Workload::StoreHistory,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::ScaleNoisy => "scale_noisy",
            Workload::ScaleQuiet => "scale_quiet",
            Workload::StoreHistory => "store_history",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
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

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A scenario seed: small enough to read, large enough not to repeat.
    fn scenario_seed(&mut self) -> u64 {
        1 + self.below(1 << 31)
    }
}

/// One grid point, ready to become a `Session`.
#[derive(Debug, Clone)]
pub struct Point {
    /// Zoo model.
    pub model: Model,
    /// Training or inference.
    pub mode: Mode,
    /// Per-worker batch.
    pub batch: usize,
    /// Everything else the session is configured with.
    pub settings: SessionConfig,
}

impl Point {
    /// The point a parsed scenario describes, with the same fields
    /// `Session::from_scenario` fills.
    pub fn from_scenario(s: &Scenario) -> Point {
        Point {
            model: s.model,
            mode: s.mode,
            batch: s.batch,
            settings: SessionConfig {
                cluster: s.cluster.clone(),
                config: s.sim_config(),
                scheduler: s.scheduler,
                warmup: s.warmup,
                iterations: s.iterations,
                scenario_fp: s.fingerprint(),
            },
        }
    }

    /// Short label for logs: `model/scheduler/seed`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.model.name(),
            self.settings.scheduler,
            self.settings.config.seed
        )
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Scenario documents, each parsed with `Scenario::parse_grid`.
    pub grids: Vec<String>,
    /// Points assembled directly (configurations the DSL cannot express).
    pub direct: Vec<Point>,
    /// Synthetic history records the store holds before the run.
    pub corpus: Vec<RunRecord>,
    /// Recorded single-iteration runs per measurement cycle; 0 means one
    /// per point.
    pub cycle_steps: usize,
}

/// Measured iterations of each scenario's own run.
const PAPER_ITERATIONS: usize = 10;
/// Measured iterations of the 256-worker runs, which take ~1 s each.
const SCALE_ITERATIONS: usize = 2;
/// History records the store workload starts from.
const CORPUS_RECORDS: usize = 10_000;
/// History records the simulation workloads' stores start from: enough
/// that a query decodes for tens of milliseconds instead of timing a file
/// open, little enough that the store stays a small share of the work.
const HISTORY_RECORDS: usize = 1_000;
/// Iterations per synthetic history record: the committed corpus's
/// session records carry four.
const CORPUS_ITERATIONS: usize = 4;
/// Appended session records per store-workload cycle. Each cycle ends in
/// a query, so a short cycle gives `query_s` many samples per run.
const STORE_CYCLE_STEPS: usize = 20;

/// Generates the inputs of `workload` from `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0x7C7A_C0DE);
    match workload {
        Workload::PaperSweep => {
            let grids = Model::ALL
                .iter()
                .map(|m| {
                    let (a, b) = (rng.scenario_seed(), rng.scenario_seed());
                    format!(
                        "name: paper_{model}\nmodel: {model}\ncluster:\n  workers: 8\n  \
                         parameter_servers: 2\nenv: g\nscheduler: [baseline, tic, tac]\n\
                         seed: [{a}, {b}]\niterations: {PAPER_ITERATIONS}\nwarmup: 0\n",
                        model = m.name()
                    )
                })
                .collect();
            Inputs {
                grids,
                direct: Vec::new(),
                corpus: corpus(&mut rng, HISTORY_RECORDS),
                cycle_steps: 0,
            }
        }
        Workload::ScaleNoisy => {
            let grid = format!(
                "name: scale_noisy\nmodel: resnet_v1_50\ncluster:\n  workers: 256\n  \
                 parameter_servers: 8\nenv: g\nscheduler: [baseline, tac]\nseed: {}\n\
                 iterations: {SCALE_ITERATIONS}\nwarmup: 0\nfaults:\n  drop_prob: 0.001\n  \
                 straggler_prob: 0.05\n",
                rng.scenario_seed()
            );
            Inputs {
                grids: vec![grid],
                direct: Vec::new(),
                corpus: corpus(&mut rng, HISTORY_RECORDS),
                cycle_steps: 0,
            }
        }
        Workload::ScaleQuiet => {
            // The DSL has no deterministic preset, so these points are
            // assembled directly: no noise, no reorder error, disorder
            // window 1 and quiet faults make the run eligible for the
            // partitioned engine.
            let config = SimConfig::deterministic(Platform::cloud_gpu())
                .with_disorder_window(Some(1))
                .with_seed(rng.scenario_seed());
            let direct = [SchedulerKind::Baseline, SchedulerKind::Tac]
                .into_iter()
                .map(|scheduler| Point {
                    model: Model::ResNet50V1,
                    mode: Mode::Training,
                    batch: Model::ResNet50V1.default_batch(),
                    settings: SessionConfig {
                        cluster: ClusterSpec::new(256, 8),
                        config: config.clone(),
                        scheduler,
                        warmup: 0,
                        iterations: SCALE_ITERATIONS,
                        scenario_fp: 0,
                    },
                })
                .collect();
            Inputs {
                grids: Vec::new(),
                direct,
                corpus: corpus(&mut rng, HISTORY_RECORDS),
                cycle_steps: 0,
            }
        }
        Workload::StoreHistory => {
            let (a, b) = (rng.scenario_seed(), rng.scenario_seed());
            Inputs {
                grids: vec![format!(
                    "name: store_history\nmodel: alexnet_v2\ncluster:\n  workers: 2\n  \
                     parameter_servers: 1\nenv: g\nscheduler: [baseline, tac]\nseed: [{a}, {b}]\n\
                     iterations: 2\nwarmup: 0\n"
                )],
                direct: Vec::new(),
                corpus: corpus(&mut rng, CORPUS_RECORDS),
                cycle_steps: STORE_CYCLE_STEPS,
            }
        }
    }
}

/// A synthetic session history: `n` records spread over model × shape ×
/// scheduler × seed groups, each with `CORPUS_ITERATIONS` plausible
/// iterations.
pub fn corpus(rng: &mut SplitMix, n: usize) -> Vec<RunRecord> {
    const SHAPES: [(u32, u32); 4] = [(2, 1), (4, 1), (8, 2), (16, 4)];
    const SCHEDULERS: [&str; 3] = ["baseline", "tic", "tac"];
    (0..n)
        .map(|i| {
            let model = Model::ALL[rng.below(Model::ALL.len() as u64) as usize];
            let (workers, ps) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
            let scheduler = SCHEDULERS[rng.below(SCHEDULERS.len() as u64) as usize];
            let base_ns = 50_000_000 + rng.below(1_000_000_000);
            let global_batch = (model.default_batch() as u64 * workers as u64) as f64;
            let iterations = (0..CORPUS_ITERATIONS)
                .map(|_| {
                    let makespan_ns = base_ns + rng.below(base_ns / 20 + 1);
                    IterationEvidence {
                        makespan_ns,
                        throughput: global_batch / (makespan_ns as f64 * 1e-9),
                        straggler_pct: 10.0 * rng.unit(),
                        efficiency: 0.9 + 0.1 * rng.unit(),
                        speedup_potential: rng.unit(),
                        goodput_pct: 100.0,
                        inversions: if scheduler == "tac" { 0 } else { rng.below(50) },
                    }
                })
                .collect();
            RunRecord {
                id: format!("r{i:06}"),
                time_ms: 1_700_000_000_000 + i as u64 * 1_000,
                source: "session".into(),
                workload: model.name().into(),
                model_fp: rng.next_u64() >> 11,
                workers,
                ps,
                scheduler: scheduler.into(),
                backend: "sim".into(),
                seed: 1 + rng.below(8),
                fault_fp: 0,
                scenario_fp: 0,
                comm_fp: 0,
                provenance: String::new(),
                payload: Payload::Session(SessionEvidence {
                    iterations,
                    faults: FaultCounters::default(),
                    snapshot: Snapshot::default(),
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let (a, b) = (inputs(w, 7), inputs(w, 7));
            assert_eq!(a.grids, b.grids);
            assert_eq!(a.corpus, b.corpus);
            assert_ne!(inputs(w, 8).grids.len() + inputs(w, 8).direct.len(), 0);
        }
        assert_ne!(
            inputs(Workload::PaperSweep, 7).grids,
            inputs(Workload::PaperSweep, 8).grids
        );
    }

    #[test]
    fn generated_scenarios_parse_into_the_intended_grids() {
        let expect = [
            (Workload::PaperSweep, 60),
            (Workload::ScaleNoisy, 2),
            (Workload::StoreHistory, 4),
        ];
        for (w, points) in expect {
            let n: usize = inputs(w, 1)
                .grids
                .iter()
                .map(|g| {
                    Scenario::parse_grid(g)
                        .expect("generated text parses")
                        .len()
                })
                .sum();
            assert_eq!(n, points, "{}", w.name());
        }
        assert_eq!(inputs(Workload::ScaleQuiet, 1).direct.len(), 2);
    }

    #[test]
    fn corpus_records_round_trip_through_the_store_encoding() {
        let records = corpus(&mut SplitMix::new(3), 50);
        for r in records {
            assert_eq!(RunRecord::decode(&r.encode()).unwrap(), r);
        }
    }
}

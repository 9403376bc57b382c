//! One simulatable workload and the fluent builder that materializes it
//! from any of the paper's workload sources.

use std::fmt;

use dfrs_core::ids::NodeId;
use dfrs_core::{ClusterSpec, CoreError, JobSpec};
use dfrs_sched::{SchedulerRegistry, SchedulerSpec, SpecError};
use dfrs_sim::{
    simulate, FailurePolicy, MigrationMode, NodeEvent, Scheduler, SimConfig, SimOutcome,
    SliceSource,
};
use dfrs_workload::{Annotator, DowneyModel, Hpc2nLikeGenerator, LublinModel, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed salt separating failure-trace randomness from workload
/// generation: the same builder seed yields the same jobs whether or
/// not a failure model is attached.
const FAILURE_SEED_SALT: u64 = 0xFA11_0E5B_94D0_49BB;

/// Seed salt separating GPU-demand annotation from workload generation
/// and failure-trace randomness: attaching a GPU fraction never changes
/// which jobs are generated or when nodes fail.
const GPU_SEED_SALT: u64 = 0x6B0_D3A1_57E2_C4F7;

/// How the platform misbehaves: the scenario-level description that
/// materializes into the engine's [`NodeEvent`] availability trace.
///
/// Deterministic: the events are a pure function of
/// `(model, cluster, jobs, seed)` — two builds with equal state yield
/// byte-identical traces, independent of the workload source's own
/// randomness.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FailureModel {
    /// The paper's static cluster: nodes are eternal.
    #[default]
    None,
    /// Independent per-node exponential failure/repair churn: each node
    /// alternates an up-time drawn from `Exp(mean = mtbf_secs)` with a
    /// down-time drawn from `Exp(mean = mttr_secs)`. Failures are
    /// generated up to `horizon_secs` (default: 1.5 × the trace's last
    /// submission + its longest runtime, so churn covers the whole
    /// plausible execution); every failure's repair is emitted even
    /// past the horizon — an outage is never permanent.
    Exp {
        /// Mean time between failures per node (seconds).
        mtbf_secs: f64,
        /// Mean time to repair per node (seconds).
        mttr_secs: f64,
        /// Explicit churn horizon override (seconds).
        horizon_secs: Option<f64>,
    },
    /// An explicit availability trace, verbatim (replays of recorded
    /// outages, crafted tests). Every outage must end: a trace whose
    /// last event for some node is a failure is rejected at build time,
    /// because a permanently shrunken cluster can hang a simulation (a
    /// job wider than the survivors retries forever). Append a far-
    /// future repair to model an outage that outlives the workload.
    Trace {
        /// The events, in any order; the engine orders them by time.
        events: Vec<NodeEvent>,
    },
}

impl FailureModel {
    /// Convenience constructor for the exponential model with the
    /// default horizon.
    pub fn exp(mtbf_secs: f64, mttr_secs: f64) -> Self {
        FailureModel::Exp {
            mtbf_secs,
            mttr_secs,
            horizon_secs: None,
        }
    }

    /// Materialize the model into an engine availability trace for
    /// `cluster` and `jobs`, deterministically from `seed`.
    fn events(
        &self,
        cluster: &ClusterSpec,
        jobs: &[JobSpec],
        seed: u64,
    ) -> Result<Vec<NodeEvent>, ScenarioError> {
        match self {
            FailureModel::None => Ok(Vec::new()),
            FailureModel::Trace { events } => {
                for ev in events {
                    if ev.node.index() >= cluster.nodes as usize {
                        return Err(ScenarioError::InvalidFailureModel(format!(
                            "availability trace references {} but the cluster has {} nodes",
                            ev.node, cluster.nodes
                        )));
                    }
                    if !(ev.time.is_finite() && ev.time >= 0.0) {
                        return Err(ScenarioError::InvalidFailureModel(format!(
                            "availability trace has invalid event time {}",
                            ev.time
                        )));
                    }
                }
                let mut sorted = events.clone();
                sorted.sort_by(|a, b| a.time.total_cmp(&b.time));
                // Reject permanent outages: the last transition of
                // every touched node must be a repair, else a job wider
                // than the survivors would retry (or deadlock) forever.
                let mut last_up: std::collections::BTreeMap<u32, bool> =
                    std::collections::BTreeMap::new();
                for ev in &sorted {
                    last_up.insert(ev.node.0, ev.up);
                }
                if let Some((node, _)) = last_up.iter().find(|(_, &up)| !up) {
                    return Err(ScenarioError::InvalidFailureModel(format!(
                        "availability trace leaves node {node} down forever (its last event \
                         is a failure); append a repair — outages must end"
                    )));
                }
                Ok(sorted)
            }
            FailureModel::Exp {
                mtbf_secs,
                mttr_secs,
                horizon_secs,
            } => {
                for (what, v) in [("mtbf_secs", *mtbf_secs), ("mttr_secs", *mttr_secs)] {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(ScenarioError::InvalidFailureModel(format!(
                            "{what} must be positive and finite, got {v}"
                        )));
                    }
                }
                let horizon = match horizon_secs {
                    Some(h) if !(h.is_finite() && *h > 0.0) => {
                        return Err(ScenarioError::InvalidFailureModel(format!(
                            "horizon_secs must be positive and finite, got {h}"
                        )));
                    }
                    Some(h) => *h,
                    None => default_horizon(jobs),
                };
                let mut rng = SmallRng::seed_from_u64(seed ^ FAILURE_SEED_SALT);
                let exp_draw = |rng: &mut SmallRng, mean: f64| -> f64 {
                    // Inverse-CDF sampling; `1 - u` keeps ln's argument
                    // in (0, 1].
                    let u: f64 = rng.gen_range(0.0..1.0);
                    -mean * (1.0 - u).ln()
                };
                let mut events = Vec::new();
                for node in 0..cluster.nodes {
                    // One sequential stream: per-node draws are a fixed
                    // prefix of the stream given the node order, so the
                    // trace is deterministic in (seed, cluster size).
                    let mut t = exp_draw(&mut rng, *mtbf_secs);
                    while t < horizon {
                        events.push(NodeEvent {
                            time: t,
                            node: NodeId(node),
                            up: false,
                        });
                        t += exp_draw(&mut rng, *mttr_secs);
                        // The matching repair is always emitted, even
                        // past the horizon: outages end.
                        events.push(NodeEvent {
                            time: t,
                            node: NodeId(node),
                            up: true,
                        });
                        t += exp_draw(&mut rng, *mtbf_secs);
                    }
                }
                events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.node.0.cmp(&b.node.0)));
                Ok(events)
            }
        }
    }
}

/// Default churn horizon: generous cover of the execution window
/// implied by the jobs themselves (1.5 × last submission + longest
/// dedicated runtime). Zero when there are no jobs.
fn default_horizon(jobs: &[JobSpec]) -> f64 {
    let last_submit = jobs.iter().map(|j| j.submit_time).fold(0.0, f64::max);
    let longest = jobs.iter().map(|j| j.oracle_runtime()).fold(0.0, f64::max);
    1.5 * (last_submit + longest)
}

/// Where a scenario's jobs come from.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// The Lublin-Feitelson model (the paper's synthetic family).
    Lublin {
        /// Jobs to generate.
        jobs: usize,
    },
    /// The Downey model (cross-model robustness checks).
    Downey {
        /// Jobs to generate.
        jobs: usize,
    },
    /// The synthetic HPC2N-like generator, one trace per week.
    Hpc2nLike {
        /// Weeks to synthesize.
        weeks: u32,
        /// Weekly job volume (the real trace averages ≈ 1,100).
        jobs_per_week: f64,
    },
    /// SWF text processed by the paper's HPC2N rules, one trace per
    /// week.
    SwfText {
        /// Raw Standard-Workload-Format content.
        text: String,
    },
    /// An explicit job list (crafted tests, replays).
    Jobs {
        /// Jobs, sorted by submission with dense ids.
        jobs: Vec<JobSpec>,
    },
}

/// Why a [`ScenarioBuilder`] could not produce a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// No workload source was set.
    MissingSource,
    /// The source yielded no traces at all (e.g. zero HPC2N weeks, an
    /// SWF file with no schedulable jobs).
    NoTraces,
    /// [`ScenarioBuilder::build`] on a source that yields several
    /// traces (use [`ScenarioBuilder::build_all`]).
    MultipleTraces {
        /// Traces the source produced.
        count: usize,
    },
    /// Target offered load must be positive and finite.
    InvalidLoad(f64),
    /// GPU-annotated job fraction must lie in `[0, 1]`.
    InvalidGpuFraction(f64),
    /// The failure model is malformed (non-positive MTBF/MTTR, a trace
    /// referencing nodes outside the cluster, …).
    InvalidFailureModel(String),
    /// Workload generation, annotation, or SWF parsing failed.
    Workload(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingSource => {
                write!(
                    f,
                    "no workload source set (lublin/downey/hpc2n_like/swf_text/jobs)"
                )
            }
            ScenarioError::NoTraces => write!(f, "workload source produced no traces"),
            ScenarioError::MultipleTraces { count } => write!(
                f,
                "source produced {count} traces; use build_all() for multi-trace sources"
            ),
            ScenarioError::InvalidLoad(l) => write!(f, "invalid offered load {l}"),
            ScenarioError::InvalidGpuFraction(g) => {
                write!(f, "invalid GPU job fraction {g} (must be in [0, 1])")
            }
            ScenarioError::InvalidFailureModel(e) => write!(f, "invalid failure model: {e}"),
            ScenarioError::Workload(e) => write!(f, "workload construction failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<CoreError> for ScenarioError {
    fn from(e: CoreError) -> Self {
        ScenarioError::Workload(e.to_string())
    }
}

/// One simulatable workload: cluster, jobs, and engine config, plus the
/// identity metadata the experiment tables use.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable identity, e.g. `scaled-s3-load0.5`.
    pub label: String,
    /// Target offered load, when the workload was load-scaled.
    pub load: Option<f64>,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Jobs, sorted by submission with dense ids.
    pub jobs: Vec<JobSpec>,
    /// Engine configuration for runs of this scenario.
    pub config: SimConfig,
}

impl Scenario {
    /// Run one scheduler spec (parsed against the built-in registry)
    /// over this scenario.
    ///
    /// ```
    /// use dfrs_scenario::ScenarioBuilder;
    ///
    /// let out = ScenarioBuilder::new()
    ///     .lublin(30)
    ///     .load(0.5)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap()
    ///     .run("greedy-pmtn")
    ///     .unwrap();
    /// assert_eq!(out.records.len(), 30);
    /// ```
    pub fn run(&self, spec: &str) -> Result<SimOutcome, SpecError> {
        let registry = SchedulerRegistry::builtin();
        let spec = registry.parse(spec)?;
        self.run_spec(&registry, &spec)
    }

    /// Run a parsed spec built through an explicit registry (use this
    /// for user-registered schedulers).
    pub fn run_spec(
        &self,
        registry: &SchedulerRegistry,
        spec: &SchedulerSpec,
    ) -> Result<SimOutcome, SpecError> {
        let mut sched = registry.build(spec)?;
        Ok(self.run_scheduler(sched.as_mut()))
    }

    /// Run an already-constructed scheduler.
    pub fn run_scheduler(&self, scheduler: &mut dyn Scheduler) -> SimOutcome {
        simulate(self.cluster, &self.jobs, scheduler, &self.config)
    }

    /// The scenario's workload as a pull-based submission feed — the
    /// adapter campaign cells and the serve daemon's replay mode borrow
    /// instead of cloning the job vector. Each pull clones one
    /// [`JobSpec`]; the vector itself is never copied.
    pub fn stream(&self) -> SliceSource<'_> {
        SliceSource::new(&self.jobs)
    }

    /// This scenario with a different engine config.
    pub fn with_config(&self, config: SimConfig) -> Scenario {
        Scenario {
            config,
            ..self.clone()
        }
    }

    /// This scenario with its arrival gaps rescaled to `load` (the
    /// paper's scaled family). Cheaper than rebuilding from the source
    /// when fanning one base trace out over a load grid; the job mix is
    /// untouched, only the spacing changes.
    pub fn scaled_to(&self, load: f64) -> Result<Scenario, ScenarioError> {
        if !(load > 0.0 && load.is_finite()) {
            return Err(ScenarioError::InvalidLoad(load));
        }
        let scaled = self.trace().scale_to_load(load)?;
        Ok(Scenario {
            label: self.label.clone(),
            load: Some(load),
            cluster: self.cluster,
            jobs: scaled.jobs().to_vec(),
            config: self.config.clone(),
        })
    }

    /// The jobs as a [`Trace`] (workload characterization helpers).
    pub fn trace(&self) -> Trace {
        Trace::new(self.cluster, self.jobs.clone()).expect("scenario jobs form a valid trace")
    }
}

/// Fluent construction of [`Scenario`]s: pick a workload source, then
/// optionally a cluster, a target load, a seed, and engine knobs.
///
/// `build()` materializes the workload deterministically from the seed;
/// the same builder state always yields byte-identical scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    label: Option<String>,
    cluster: Option<ClusterSpec>,
    source: Option<WorkloadSource>,
    load: Option<f64>,
    seed: u64,
    config: SimConfig,
    failures: FailureModel,
    gpu_frac: Option<f64>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder with no source, seed 1, and the default [`SimConfig`]
    /// (no penalty).
    pub fn new() -> Self {
        ScenarioBuilder {
            label: None,
            cluster: None,
            source: None,
            load: None,
            seed: 1,
            config: SimConfig::default(),
            failures: FailureModel::None,
            gpu_frac: None,
        }
    }

    /// Human-readable label (defaults to a description of the source).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The cluster to simulate on. Defaults to the source's natural
    /// cluster: [`ClusterSpec::synthetic`] for the models,
    /// [`ClusterSpec::hpc2n`] for the HPC2N sources.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Source: `jobs` Lublin-model jobs.
    pub fn lublin(mut self, jobs: usize) -> Self {
        self.source = Some(WorkloadSource::Lublin { jobs });
        self
    }

    /// Source: `jobs` Downey-model jobs.
    pub fn downey(mut self, jobs: usize) -> Self {
        self.source = Some(WorkloadSource::Downey { jobs });
        self
    }

    /// Source: `weeks` HPC2N-like one-week traces (multi-trace; use
    /// [`build_all`](Self::build_all)).
    pub fn hpc2n_like(mut self, weeks: u32, jobs_per_week: f64) -> Self {
        self.source = Some(WorkloadSource::Hpc2nLike {
            weeks,
            jobs_per_week,
        });
        self
    }

    /// Source: SWF text through the paper's HPC2N preprocessing, split
    /// into one-week traces (multi-trace; use
    /// [`build_all`](Self::build_all)).
    pub fn swf_text(mut self, text: impl Into<String>) -> Self {
        self.source = Some(WorkloadSource::SwfText { text: text.into() });
        self
    }

    /// Source: an explicit job list.
    pub fn jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.source = Some(WorkloadSource::Jobs { jobs });
        self
    }

    /// Any [`WorkloadSource`] value directly.
    pub fn source(mut self, source: WorkloadSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Rescale arrival gaps to this offered load (the paper's scaled
    /// family). Applies to every trace the source yields.
    pub fn load(mut self, load: f64) -> Self {
        self.load = Some(load);
        self
    }

    /// RNG seed for workload generation (default 1). The seed fully
    /// determines the jobs; two builds with equal state are identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Full engine configuration (replaces previous config calls).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Rescheduling penalty in seconds (Section IV-A; the paper uses
    /// 0 or 300).
    pub fn penalty(mut self, penalty: f64) -> Self {
        self.config.penalty = penalty;
        self
    }

    /// Migration mechanism for running jobs (the paper's pessimistic
    /// stop-and-copy, or live migration for what-if studies). Previously
    /// reachable only by constructing a raw [`SimConfig`].
    pub fn migration(mut self, mode: MigrationMode) -> Self {
        self.config.migration_mode = mode;
        self
    }

    /// Platform failure/repair dynamics (default: none — the paper's
    /// static cluster). The model materializes deterministically at
    /// [`build`](Self::build) time into the engine's availability
    /// trace, seeded independently of workload generation: attaching a
    /// failure model never changes the jobs.
    pub fn failures(mut self, model: FailureModel) -> Self {
        self.failures = model;
        self
    }

    /// What a node failure does to the jobs it strikes (default:
    /// [`FailurePolicy::Restart`], the paper-pessimistic choice).
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.config.failure_policy = policy;
        self
    }

    /// Annotate this fraction of jobs (in `[0, 1]`) with a GPU demand
    /// drawn uniformly from `[0.05, 1]` per task, deterministically
    /// from the seed (salted independently of workload generation and
    /// failure churn — the jobs, their CPU/memory demands, and the
    /// availability trace are byte-identical with or without this
    /// call). The default (and `0.0`) leaves every job GPU-free, which
    /// is the paper's two-resource workload exactly.
    pub fn gpu_frac(mut self, frac: f64) -> Self {
        self.gpu_frac = Some(frac);
        self
    }

    /// Run full invariant validation after every plan (tests).
    pub fn validate(mut self, validate: bool) -> Self {
        self.config.validate = validate;
        self
    }

    /// Materialize a single scenario. Errors if no source was set, if
    /// the source yields more than one trace (HPC2N weeks, SWF files —
    /// use [`build_all`](Self::build_all)), or if generation fails.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let mut all = self.build_all()?;
        match all.len() {
            0 => Err(ScenarioError::NoTraces),
            1 => Ok(all.pop().expect("len checked")),
            count => Err(ScenarioError::MultipleTraces { count }),
        }
    }

    /// Materialize every scenario the source yields (single-trace
    /// sources yield exactly one; week-split sources yield one per
    /// week, labeled `{label}-week{i}`).
    pub fn build_all(self) -> Result<Vec<Scenario>, ScenarioError> {
        if let Some(load) = self.load {
            if !(load > 0.0 && load.is_finite()) {
                return Err(ScenarioError::InvalidLoad(load));
            }
        }
        if let Some(frac) = self.gpu_frac {
            if !((0.0..=1.0).contains(&frac) && frac.is_finite()) {
                return Err(ScenarioError::InvalidGpuFraction(frac));
            }
        }
        let source = self.source.as_ref().ok_or(ScenarioError::MissingSource)?;
        let (traces, base_label) = self.materialize(source)?;
        let multi = traces.len() > 1;
        let mut out = Vec::with_capacity(traces.len());
        for (i, trace) in traces.into_iter().enumerate() {
            let trace = match self.load {
                Some(load) => trace.scale_to_load(load)?,
                None => trace,
            };
            let label = match (&self.label, multi) {
                (Some(l), false) => l.clone(),
                (Some(l), true) => format!("{l}-week{i}"),
                (None, false) => base_label.clone(),
                (None, true) => format!("{base_label}-week{i}"),
            };
            let mut config = self.config.clone();
            // Materialized against the *scaled* jobs: the default
            // horizon tracks the actual submission window. Per-week
            // traces draw distinct churn via the week-offset seed.
            config.node_events = self.failures.events(
                &trace.cluster,
                trace.jobs(),
                self.seed.wrapping_add(i as u64),
            )?;
            let mut jobs = trace.jobs().to_vec();
            if let Some(frac) = self.gpu_frac {
                if frac > 0.0 {
                    let mut rng =
                        SmallRng::seed_from_u64(self.seed.wrapping_add(i as u64) ^ GPU_SEED_SALT);
                    for j in jobs.iter_mut() {
                        if rng.gen_range(0.0..1.0) < frac {
                            let g = rng.gen_range(0.05..=1.0);
                            *j = j.with_gpu(g).expect("drawn GPU demand is in (0, 1]");
                        }
                    }
                }
            }
            out.push(Scenario {
                label,
                load: self.load,
                cluster: trace.cluster,
                jobs,
                config,
            });
        }
        Ok(out)
    }

    fn materialize(&self, source: &WorkloadSource) -> Result<(Vec<Trace>, String), ScenarioError> {
        Ok(match source {
            WorkloadSource::Lublin { jobs } => {
                let cluster = self.cluster.unwrap_or_else(ClusterSpec::synthetic);
                let model = LublinModel::for_cluster(&cluster);
                let mut rng = SmallRng::seed_from_u64(self.seed);
                let raws = model.generate(*jobs, &mut rng);
                let specs = Annotator::new(cluster).annotate(&raws, &mut rng)?;
                (
                    vec![Trace::new(cluster, specs)?],
                    format!("lublin-s{}", self.seed),
                )
            }
            WorkloadSource::Downey { jobs } => {
                let cluster = self.cluster.unwrap_or_else(ClusterSpec::synthetic);
                let model = DowneyModel::for_cluster(&cluster);
                let mut rng = SmallRng::seed_from_u64(self.seed);
                let raws = model.generate(*jobs, &mut rng);
                let specs = Annotator::new(cluster).annotate(&raws, &mut rng)?;
                (
                    vec![Trace::new(cluster, specs)?],
                    format!("downey-s{}", self.seed),
                )
            }
            WorkloadSource::Hpc2nLike {
                weeks,
                jobs_per_week,
            } => {
                let mut rng = SmallRng::seed_from_u64(self.seed);
                let gen = Hpc2nLikeGenerator {
                    jobs_per_week: *jobs_per_week,
                    ..Hpc2nLikeGenerator::default()
                };
                (gen.generate_weeks(*weeks, &mut rng), "hpc2n".to_string())
            }
            WorkloadSource::SwfText { text } => {
                let (_, records) = dfrs_workload::parse_swf(text)?;
                let cluster = self.cluster.unwrap_or_else(ClusterSpec::hpc2n);
                let trace = dfrs_workload::hpc2n_preprocess(&records, cluster);
                (trace.split_weeks(), "hpc2n-swf".to_string())
            }
            WorkloadSource::Jobs { jobs } => {
                let cluster = self.cluster.unwrap_or_else(ClusterSpec::synthetic);
                (vec![Trace::new(cluster, jobs.clone())?], "jobs".to_string())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::ids::JobId;

    #[test]
    fn lublin_build_is_deterministic() {
        let mk = || {
            ScenarioBuilder::new()
                .lublin(40)
                .load(0.6)
                .seed(9)
                .build()
                .unwrap()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.label, "lublin-s9");
        assert_eq!(a.load, Some(0.6));
        let measured = a.trace().offered_load();
        assert!((measured - 0.6).abs() < 1e-6, "{measured}");
    }

    #[test]
    fn multi_trace_sources_require_build_all() {
        let b = ScenarioBuilder::new().hpc2n_like(3, 120.0).seed(4);
        assert!(matches!(
            b.clone().build(),
            Err(ScenarioError::MultipleTraces { count: 3 })
        ));
        let all = b.build_all().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].label, "hpc2n-week0");
        assert_eq!(all[0].cluster.nodes, 120);
    }

    #[test]
    fn crafted_jobs_and_run() {
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let jobs = vec![
            JobSpec::new(JobId(0), 0.0, 2, 0.25, 0.1, 600.0).unwrap(),
            JobSpec::new(JobId(1), 0.0, 2, 0.25, 0.1, 600.0).unwrap(),
        ];
        let s = ScenarioBuilder::new()
            .label("crafted")
            .cluster(cluster)
            .jobs(jobs)
            .build()
            .unwrap();
        let out = s.run("greedy-pmtn").unwrap();
        assert_eq!(out.max_stretch, 1.0);
        assert!(s.run("no-such-sched").is_err());
    }

    #[test]
    fn builder_errors() {
        assert!(matches!(
            ScenarioBuilder::new().build(),
            Err(ScenarioError::MissingSource)
        ));
        assert!(matches!(
            ScenarioBuilder::new().lublin(10).load(-1.0).build(),
            Err(ScenarioError::InvalidLoad(_))
        ));
    }

    #[test]
    fn penalty_flows_into_config() {
        let s = ScenarioBuilder::new()
            .lublin(10)
            .penalty(300.0)
            .validate(true)
            .build()
            .unwrap();
        assert_eq!(s.config.penalty, 300.0);
        assert!(s.config.validate);
    }

    #[test]
    fn failure_model_is_deterministic_and_leaves_jobs_alone() {
        let mk = |failures: FailureModel| {
            ScenarioBuilder::new()
                .lublin(30)
                .load(0.5)
                .seed(9)
                .failures(failures)
                .build()
                .unwrap()
        };
        let plain = mk(FailureModel::None);
        let churn_a = mk(FailureModel::exp(50_000.0, 4_000.0));
        let churn_b = mk(FailureModel::exp(50_000.0, 4_000.0));
        assert_eq!(plain.jobs, churn_a.jobs, "failures never change the jobs");
        assert!(plain.config.node_events.is_empty());
        assert!(!churn_a.config.node_events.is_empty());
        assert_eq!(churn_a.config.node_events, churn_b.config.node_events);
        // Events are time-ordered and every failure has a repair.
        let evs = &churn_a.config.node_events;
        assert!(evs.windows(2).all(|w| w[0].time <= w[1].time));
        let downs = evs.iter().filter(|e| !e.up).count();
        let ups = evs.iter().filter(|e| e.up).count();
        assert_eq!(downs, ups, "outages always end");
    }

    #[test]
    fn explicit_availability_traces_are_validated() {
        let jobs = vec![JobSpec::new(JobId(0), 0.0, 1, 0.25, 0.1, 100.0).unwrap()];
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let bad_node = ScenarioBuilder::new()
            .cluster(cluster)
            .jobs(jobs.clone())
            .failures(FailureModel::Trace {
                events: vec![dfrs_sim::NodeEvent {
                    time: 1.0,
                    node: dfrs_core::ids::NodeId(7),
                    up: false,
                }],
            })
            .build();
        assert!(matches!(
            bad_node,
            Err(ScenarioError::InvalidFailureModel(_))
        ));
        assert!(matches!(
            ScenarioBuilder::new()
                .lublin(5)
                .failures(FailureModel::exp(-1.0, 10.0))
                .build(),
            Err(ScenarioError::InvalidFailureModel(_))
        ));
        // Permanent outages are rejected: the last event for node 0 is
        // a failure, which could hang a too-wide workload forever.
        let permanent = ScenarioBuilder::new()
            .cluster(cluster)
            .jobs(jobs)
            .failures(FailureModel::Trace {
                events: vec![
                    dfrs_sim::NodeEvent {
                        time: 1.0,
                        node: dfrs_core::ids::NodeId(0),
                        up: false,
                    },
                    dfrs_sim::NodeEvent {
                        time: 2.0,
                        node: dfrs_core::ids::NodeId(0),
                        up: true,
                    },
                    dfrs_sim::NodeEvent {
                        time: 3.0,
                        node: dfrs_core::ids::NodeId(0),
                        up: false,
                    },
                ],
            })
            .build();
        match permanent {
            Err(ScenarioError::InvalidFailureModel(msg)) => {
                assert!(msg.contains("down forever"), "{msg}")
            }
            other => panic!("expected permanent-outage rejection, got {other:?}"),
        }
    }

    #[test]
    fn failure_policy_and_migration_flow_into_config() {
        let s = ScenarioBuilder::new()
            .lublin(10)
            .failure_policy(dfrs_sim::FailurePolicy::PausePreserve)
            .migration(dfrs_sim::MigrationMode::Live { freeze_secs: 60.0 })
            .build()
            .unwrap();
        assert_eq!(
            s.config.failure_policy,
            dfrs_sim::FailurePolicy::PausePreserve
        );
        assert_eq!(
            s.config.migration_mode,
            dfrs_sim::MigrationMode::Live { freeze_secs: 60.0 }
        );
    }

    #[test]
    fn churn_scenario_runs_end_to_end() {
        let out = ScenarioBuilder::new()
            .lublin(25)
            .load(0.6)
            .seed(4)
            .failures(FailureModel::exp(30_000.0, 2_000.0))
            .validate(true)
            .build()
            .unwrap()
            .run("greedy-pmtn")
            .unwrap();
        assert_eq!(out.records.len(), 25);
        assert!(out.down_node_seconds > 0.0, "churn actually happened");
    }

    #[test]
    fn gpu_frac_is_deterministic_and_leaves_cpu_mem_alone() {
        let mk = |frac: Option<f64>| {
            let b = ScenarioBuilder::new().lublin(40).load(0.5).seed(9);
            match frac {
                Some(f) => b.gpu_frac(f),
                None => b,
            }
            .build()
            .unwrap()
        };
        let plain = mk(None);
        let zero = mk(Some(0.0));
        let gpu_a = mk(Some(0.5));
        let gpu_b = mk(Some(0.5));
        assert_eq!(plain.jobs, zero.jobs, "frac 0 is the identity");
        assert_eq!(gpu_a.jobs, gpu_b.jobs, "annotation is deterministic");
        let annotated = gpu_a.jobs.iter().filter(|j| j.gpu_need > 0.0).count();
        assert!(
            annotated > 0 && annotated < gpu_a.jobs.len(),
            "a strict subset carries GPU demand, got {annotated}/40"
        );
        for (p, g) in plain.jobs.iter().zip(gpu_a.jobs.iter()) {
            assert_eq!(p.id, g.id);
            assert_eq!(p.submit_time, g.submit_time);
            assert_eq!(p.cpu_need, g.cpu_need);
            assert_eq!(p.mem_req, g.mem_req);
            assert!(g.gpu_need >= 0.0 && g.gpu_need <= 1.0);
        }
        assert!(matches!(
            ScenarioBuilder::new().lublin(5).gpu_frac(1.5).build(),
            Err(ScenarioError::InvalidGpuFraction(_))
        ));
    }

    #[test]
    fn gpu_scenario_runs_under_drf() {
        let out = ScenarioBuilder::new()
            .lublin(20)
            .load(0.6)
            .seed(3)
            .gpu_frac(0.4)
            .validate(true)
            .build()
            .unwrap()
            .run("dynmcb8-drf")
            .unwrap();
        assert_eq!(out.records.len(), 20);
    }

    #[test]
    fn swf_text_round_trip() {
        let swf = "1 0 0 3600 4 -1 209715 4 -1 -1 1 1 1 -1 1 -1 -1 -1\n\
                   2 700000 0 60 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n";
        let all = ScenarioBuilder::new().swf_text(swf).build_all().unwrap();
        assert_eq!(all.len(), 2, "two weeks, one job each");
        assert_eq!(all[1].label, "hpc2n-swf-week1");
    }
}

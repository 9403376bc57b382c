//! The generic parallel runner over `scenarios × scheduler specs`,
//! replacing the former `run_matrix`/`run_matrix_with` pair.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dfrs_core::stretch::degradation_factor;
use dfrs_core::OnlineStats;
use dfrs_sched::{SchedulerRegistry, SchedulerSpec, SpecError};
use dfrs_sim::{SimConfig, SimOutcome};

use crate::scenario::Scenario;

/// Compact result of one `(scenario, spec)` cell (drops per-job records
/// so 900-instance matrices stay cheap). The merger of the former
/// `RunSummary` and `CustomRun` structs.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The spec that produced this.
    pub spec: SchedulerSpec,
    /// The scheduler's display name (e.g. `DynMCB8-per 600`).
    pub name: String,
    /// Maximum bounded stretch.
    pub max_stretch: f64,
    /// Mean bounded stretch.
    pub mean_stretch: f64,
    /// Last completion time.
    pub makespan: f64,
    /// Pause occurrences.
    pub preemption_count: u64,
    /// Move occurrences.
    pub migration_count: u64,
    /// GB moved by pauses/resumes.
    pub preemption_gb: f64,
    /// GB moved by migrations.
    pub migration_gb: f64,
    /// Failure-induced job kills (restart policy).
    pub restart_count: u64,
    /// Virtual time discarded by those kills (seconds).
    pub lost_virtual_seconds: f64,
    /// Integral of out-of-service nodes (node-seconds); zero on a
    /// static cluster.
    pub down_node_seconds: f64,
    /// Jobs simulated.
    pub n_jobs: usize,
    /// Total scheduler wall-clock seconds (non-deterministic).
    pub sched_wall_total: f64,
    /// Worst single scheduler invocation in seconds (non-deterministic).
    pub sched_wall_max: f64,
    /// Wall-clock seconds this cell's simulation took end to end
    /// (non-deterministic; excluded from fingerprints like the other
    /// wall-clock fields). Zero when the cell was built from an outcome
    /// outside a campaign run.
    pub wall_secs: f64,
}

impl CellResult {
    /// Reduce a full outcome to a cell.
    pub fn from_outcome(spec: SchedulerSpec, o: &SimOutcome) -> Self {
        CellResult {
            spec,
            name: o.algorithm.clone(),
            max_stretch: o.max_stretch,
            mean_stretch: o.mean_stretch,
            makespan: o.makespan,
            preemption_count: o.preemption_count,
            migration_count: o.migration_count,
            preemption_gb: o.preemption_gb,
            migration_gb: o.migration_gb,
            restart_count: o.restart_count,
            lost_virtual_seconds: o.lost_virtual_seconds,
            down_node_seconds: o.down_node_seconds,
            // Streamed outcomes carry no records; the online counter is
            // the same number on the materialized path.
            n_jobs: o.jobs_completed as usize,
            sched_wall_total: o.sched_wall_total,
            sched_wall_max: o.sched_wall_max,
            wall_secs: 0.0,
        }
    }

    /// Total GB through storage (pauses + migrations).
    pub fn moved_gb(&self) -> f64 {
        self.preemption_gb + self.migration_gb
    }

    /// GB/s through storage due to preemptions (Table II).
    pub fn preemption_bandwidth_gbs(&self) -> f64 {
        if self.makespan > 0.0 {
            self.preemption_gb / self.makespan
        } else {
            0.0
        }
    }

    /// GB/s through storage due to migrations (Table II).
    pub fn migration_bandwidth_gbs(&self) -> f64 {
        if self.makespan > 0.0 {
            self.migration_gb / self.makespan
        } else {
            0.0
        }
    }

    /// Preemptions per simulated hour (Table II).
    pub fn preemptions_per_hour(&self) -> f64 {
        if self.makespan > 0.0 {
            self.preemption_count as f64 * 3600.0 / self.makespan
        } else {
            0.0
        }
    }

    /// Migrations per simulated hour (Table II).
    pub fn migrations_per_hour(&self) -> f64 {
        if self.makespan > 0.0 {
            self.migration_count as f64 * 3600.0 / self.makespan
        } else {
            0.0
        }
    }

    /// Preemptions per job (Table II).
    pub fn preemptions_per_job(&self) -> f64 {
        if self.n_jobs > 0 {
            self.preemption_count as f64 / self.n_jobs as f64
        } else {
            0.0
        }
    }

    /// Migrations per job (Table II).
    pub fn migrations_per_job(&self) -> f64 {
        if self.n_jobs > 0 {
            self.migration_count as f64 / self.n_jobs as f64
        } else {
            0.0
        }
    }

    /// Every deterministic field rendered to bytes (floats via
    /// `to_bits`); the wall-clock fields are excluded because they
    /// measure real compute time. Two runs of the same campaign —
    /// whatever the thread count — must produce equal fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}|max={:016x} mean={:016x} mk={:016x} pre={} migr={} pre_gb={:016x} \
             migr_gb={:016x} rst={} lost={:016x} down={:016x} jobs={}",
            self.spec,
            self.name,
            self.max_stretch.to_bits(),
            self.mean_stretch.to_bits(),
            self.makespan.to_bits(),
            self.preemption_count,
            self.migration_count,
            self.preemption_gb.to_bits(),
            self.migration_gb.to_bits(),
            self.restart_count,
            self.lost_virtual_seconds.to_bits(),
            self.down_node_seconds.to_bits(),
            self.n_jobs,
        )
    }

    /// Mean fraction of the cluster out of service over the makespan
    /// (0 on a static cluster) — the cell-level analogue of
    /// [`dfrs_sim::SimOutcome::mean_unavailability`].
    pub fn mean_unavailability(&self, nodes: u32) -> f64 {
        if self.makespan > 0.0 && nodes > 0 {
            self.down_node_seconds / (self.makespan * nodes as f64)
        } else {
            0.0
        }
    }
}

/// Streamed to the campaign observer as each cell completes.
#[derive(Debug, Clone, Copy)]
pub struct CellUpdate<'c> {
    /// Scenario index (row).
    pub scenario: usize,
    /// Spec index (column).
    pub spec: usize,
    /// Cells completed so far, this one included.
    pub done: usize,
    /// Total cells in the campaign.
    pub total: usize,
    /// The completed cell.
    pub result: &'c CellResult,
}

/// The full matrix: `cells[scenario][spec]`, aligned with the input
/// orders whatever the thread count.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Specs (columns), in input order.
    pub specs: Vec<SchedulerSpec>,
    /// `cells[scenario][spec]`.
    pub cells: Vec<Vec<CellResult>>,
}

impl CampaignResult {
    /// Per-algorithm degradation statistics over all scenarios.
    pub fn degradation_stats(&self) -> Vec<OnlineStats> {
        degradation_stats(&self.cells, self.specs.len())
    }

    /// The column labels: each spec's scheduler name, as the cells
    /// carry it. `None` when no scenario ran.
    pub fn names(&self) -> Option<Vec<String>> {
        let row = self.cells.first()?;
        Some(row.iter().map(|c| c.name.clone()).collect())
    }

    /// Deterministic bytes for the whole matrix (see
    /// [`CellResult::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for row in &self.cells {
            for cell in row {
                s.push_str(&cell.fingerprint());
                s.push('\n');
            }
        }
        s
    }
}

type Observer<'a> = Box<dyn Fn(CellUpdate<'_>) + Sync + 'a>;

/// One generic parallel runner over `scenarios × specs`.
///
/// Results are deterministic: the matrix a campaign returns is
/// byte-identical (modulo wall-clock bookkeeping) whether it ran on one
/// thread or many, because each cell simulates independently and lands
/// at its `(scenario, spec)` index.
///
/// ```
/// use dfrs_scenario::{Campaign, ScenarioBuilder};
///
/// let scenarios = vec![ScenarioBuilder::new()
///     .lublin(25)
///     .load(0.5)
///     .seed(3)
///     .build()
///     .unwrap()];
/// let result = Campaign::new(&scenarios, ["fcfs", "greedy-pmtn"])
///     .unwrap()
///     .penalty(300.0)
///     .run();
/// assert_eq!(result.cells[0][0].name, "FCFS");
/// ```
pub struct Campaign<'a> {
    scenarios: &'a [Scenario],
    specs: Vec<SchedulerSpec>,
    registry: SchedulerRegistry,
    threads: usize,
    penalty: Option<f64>,
    failure_policy: Option<dfrs_sim::FailurePolicy>,
    migration: Option<dfrs_sim::MigrationMode>,
    config: Option<SimConfig>,
    observer: Option<Observer<'a>>,
}

impl<'a> Campaign<'a> {
    /// A campaign over spec strings, parsed against the built-in
    /// registry.
    pub fn new<I>(scenarios: &'a [Scenario], specs: I) -> Result<Self, SpecError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        Self::with_registry(scenarios, SchedulerRegistry::builtin(), specs)
    }

    /// A campaign over spec strings parsed against — and built through —
    /// an explicit (possibly user-extended) registry.
    pub fn with_registry<I>(
        scenarios: &'a [Scenario],
        registry: SchedulerRegistry,
        specs: I,
    ) -> Result<Self, SpecError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let specs = specs
            .into_iter()
            .map(|s| registry.parse(s.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_parts(scenarios, registry, specs))
    }

    /// A campaign over already-parsed specs (built-in registry).
    pub fn from_specs(scenarios: &'a [Scenario], specs: Vec<SchedulerSpec>) -> Self {
        Self::from_parts(scenarios, SchedulerRegistry::builtin(), specs)
    }

    fn from_parts(
        scenarios: &'a [Scenario],
        registry: SchedulerRegistry,
        specs: Vec<SchedulerSpec>,
    ) -> Self {
        Campaign {
            scenarios,
            specs,
            registry,
            threads: 1,
            penalty: None,
            failure_policy: None,
            migration: None,
            config: None,
            observer: None,
        }
    }

    /// Worker threads (default 1; values are clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override every scenario's rescheduling penalty for this campaign
    /// (the former `run_matrix` penalty argument).
    pub fn penalty(mut self, penalty: f64) -> Self {
        self.penalty = Some(penalty);
        self
    }

    /// Override every scenario's failure policy for this campaign (the
    /// scenarios' availability traces are untouched — only what a
    /// failure does to its victims changes).
    pub fn failure_policy(mut self, policy: dfrs_sim::FailurePolicy) -> Self {
        self.failure_policy = Some(policy);
        self
    }

    /// Override every scenario's migration mechanism for this campaign.
    pub fn migration(mut self, mode: dfrs_sim::MigrationMode) -> Self {
        self.migration = Some(mode);
        self
    }

    /// [`migration`](Self::migration) taking an optional mode — CLI
    /// plumbing where `None` means "keep each scenario's config".
    pub fn migration_opt(mut self, mode: Option<dfrs_sim::MigrationMode>) -> Self {
        self.migration = mode.or(self.migration);
        self
    }

    /// Override every scenario's engine config wholesale. Applied
    /// before [`penalty`](Self::penalty).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Observe each completed cell (progress reporting, early CSV
    /// export). Called serially — never concurrently — but in
    /// completion order, which under threads is nondeterministic; the
    /// returned matrix is index-aligned regardless.
    pub fn on_cell(mut self, observer: impl Fn(CellUpdate<'_>) + Sync + 'a) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The specs (columns) this campaign will run.
    pub fn specs(&self) -> &[SchedulerSpec] {
        &self.specs
    }

    /// Run the full matrix.
    ///
    /// # Panics
    ///
    /// Panics if a spec fails to build — constructors validate specs,
    /// so a failure here means the registry changed between parse and
    /// run (e.g. [`from_specs`](Self::from_specs) with a spec the
    /// built-in registry does not know).
    pub fn run(&self) -> CampaignResult {
        let n_scen = self.scenarios.len();
        let n_spec = self.specs.len();
        let n_units = n_scen * n_spec;
        let order = self.unit_order();
        // Resolve each scenario's effective config once, up front. A
        // cell used to clone the whole SimConfig — availability trace
        // included — per (scenario, spec) pair; now the `n_spec` cells
        // of a row share one borrowed copy.
        let configs: Vec<SimConfig> = self
            .scenarios
            .iter()
            .map(|s| self.effective_config(s))
            .collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let results: Mutex<Vec<Vec<Option<CellResult>>>> =
            Mutex::new(vec![vec![None; n_spec]; n_scen]);
        let observer_lock: Mutex<()> = Mutex::new(());

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n_units.max(1)) {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= n_units {
                        break;
                    }
                    let unit = order[slot];
                    let (i, a) = (unit / n_spec, unit % n_spec);
                    let cell = self.run_cell(&self.scenarios[i], &self.specs[a], &configs[i]);
                    // Keep the results mutex free of user code: clone
                    // for the observer, store, then notify under the
                    // observer's own lock so a slow callback (file
                    // I/O, printing) never stalls the other workers.
                    let observed = self.observer.as_ref().map(|_| cell.clone());
                    results.lock().expect("no poisoned runs")[i][a] = Some(cell);
                    if let (Some(observer), Some(result)) = (&self.observer, observed) {
                        let _serial = observer_lock.lock().expect("no poisoned observers");
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        observer(CellUpdate {
                            scenario: i,
                            spec: a,
                            done: finished,
                            total: n_units,
                            result: &result,
                        });
                    }
                });
            }
        });

        CampaignResult {
            specs: self.specs.clone(),
            cells: results
                .into_inner()
                .expect("scope joined")
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|c| c.expect("all units executed"))
                        .collect()
                })
                .collect(),
        }
    }

    /// Cost-aware dispatch order over unit indices: most expensive
    /// estimated cells first (spec cost hint × scenario size), ties by
    /// unit index. Purely a scheduling decision — every cell still
    /// lands at its `(scenario, spec)` slot, so the result matrix (and
    /// its fingerprint) is unchanged by the order. Running the likely
    /// stragglers first keeps the parallel tail short: a `DynMCB8`
    /// cell dispatched last would otherwise hold the whole campaign
    /// open while every other worker idles.
    fn unit_order(&self) -> Vec<usize> {
        let n_spec = self.specs.len();
        let mut order: Vec<usize> = (0..self.scenarios.len() * n_spec).collect();
        let cost = |unit: usize| {
            let scenario = &self.scenarios[unit / n_spec];
            let spec = &self.specs[unit % n_spec];
            spec.cost_hint() as u64 * scenario.jobs.len().max(1) as u64
        };
        order.sort_by_key(|&u| (std::cmp::Reverse(cost(u)), u));
        order
    }

    /// The config a given scenario's cells run under: the campaign-wide
    /// override (or the scenario's own config), with the per-knob
    /// overrides applied on top.
    fn effective_config(&self, scenario: &Scenario) -> SimConfig {
        let mut config = self
            .config
            .clone()
            .unwrap_or_else(|| scenario.config.clone());
        if let Some(p) = self.penalty {
            config.penalty = p;
        }
        if let Some(fp) = self.failure_policy {
            config.failure_policy = fp;
        }
        if let Some(m) = self.migration {
            config.migration_mode = m;
        }
        config
    }

    fn run_cell(
        &self,
        scenario: &Scenario,
        spec: &SchedulerSpec,
        config: &SimConfig,
    ) -> CellResult {
        let started = std::time::Instant::now();
        let mut scheduler = self
            .registry
            .build(spec)
            .unwrap_or_else(|e| panic!("spec {spec} failed to build: {e}"));
        // Cells borrow the jobs through the source adapter and drop
        // records at the sink: a campaign only keeps aggregates, so the
        // per-job vector was allocated just to be thrown away.
        let outcome = dfrs_sim::simulate_stream(
            scenario.cluster,
            &mut scenario.stream(),
            &mut dfrs_sim::DiscardRecords,
            scheduler.as_mut(),
            config,
        )
        .unwrap_or_else(|e| panic!("cell {spec} on {} failed: {e}", scenario.label));
        let mut cell = CellResult::from_outcome(spec.clone(), &outcome);
        cell.wall_secs = started.elapsed().as_secs_f64();
        cell
    }
}

/// Per-scenario degradation factors: each spec's max stretch over the
/// best max stretch on that scenario (Section V).
pub fn degradation_row(row: &[CellResult]) -> Vec<f64> {
    let best = row
        .iter()
        .map(|s| s.max_stretch)
        .fold(f64::INFINITY, f64::min);
    row.iter()
        .map(|s| degradation_factor(s.max_stretch, best))
        .collect()
}

/// Aggregate degradation statistics per spec over a result matrix.
pub fn degradation_stats(results: &[Vec<CellResult>], n_specs: usize) -> Vec<OnlineStats> {
    let mut stats = vec![OnlineStats::new(); n_specs];
    for row in results {
        debug_assert_eq!(row.len(), n_specs);
        for (a, d) in degradation_row(row).into_iter().enumerate() {
            stats[a].push(d);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use std::sync::atomic::AtomicUsize;

    fn scenarios(seeds: u64, jobs: usize, load: f64, seed0: u64) -> Vec<Scenario> {
        (0..seeds)
            .map(|s| {
                ScenarioBuilder::new()
                    .lublin(jobs)
                    .load(load)
                    .seed(seed0 + s)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn matrix_shape_and_alignment() {
        let scens = scenarios(2, 25, 0.5, 11);
        let specs = ["fcfs", "easy", "greedy-pmtn"];
        let result = Campaign::new(&scens, specs).unwrap().threads(4).run();
        assert_eq!(result.cells.len(), 2);
        for row in &result.cells {
            assert_eq!(row.len(), 3);
            for ((cell, spec), name) in row.iter().zip(specs).zip(["FCFS", "EASY", "Greedy-pmtn"]) {
                assert_eq!(cell.name, name);
                assert_eq!(cell.spec, SchedulerSpec::new(spec));
                assert_eq!(cell.n_jobs, 25);
            }
        }
    }

    #[test]
    fn degradation_row_has_a_unit_entry() {
        let scens = scenarios(2, 25, 0.5, 11);
        let result = Campaign::new(&scens, &dfrs_sched::PAPER_SPECS[..3])
            .unwrap()
            .threads(2)
            .run();
        for row in &result.cells {
            let degs = degradation_row(row);
            assert!(degs.iter().any(|&d| (d - 1.0).abs() < 1e-12), "{degs:?}");
            assert!(degs.iter().all(|&d| d >= 1.0));
        }
    }

    #[test]
    fn observer_streams_every_cell() {
        let scens = scenarios(1, 20, 0.4, 5);
        let seen = AtomicUsize::new(0);
        let result = Campaign::new(&scens, ["fcfs", "greedy-pmtn", "dynmcb8-per:t=300"])
            .unwrap()
            .threads(3)
            .on_cell(|u| {
                assert!(u.done <= u.total);
                assert_eq!(u.total, 3);
                assert!(u.result.max_stretch >= 1.0);
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .run();
        assert_eq!(seen.load(Ordering::Relaxed), 3);
        assert_eq!(result.cells[0].len(), 3);
        assert_eq!(result.cells[0][2].name, "DynMCB8-per 300");
    }

    #[test]
    fn penalty_override_applies() {
        let scens = scenarios(1, 25, 0.8, 7);
        let free = Campaign::new(&scens, ["dynmcb8"]).unwrap().run();
        let taxed = Campaign::new(&scens, ["dynmcb8"])
            .unwrap()
            .penalty(300.0)
            .run();
        assert!(
            taxed.cells[0][0].max_stretch >= free.cells[0][0].max_stretch,
            "penalty cannot help DynMCB8"
        );
    }

    #[test]
    fn custom_registry_specs_run() {
        let mut reg = SchedulerRegistry::builtin();
        reg.register_fn("never-heard-of-it", "custom", &[], |_| {
            SchedulerRegistry::builtin().build_str("greedy-pmtn")
        });
        let scens = scenarios(1, 15, 0.4, 3);
        let result = Campaign::with_registry(&scens, reg, ["never-heard-of-it"])
            .unwrap()
            .run();
        assert_eq!(result.cells[0][0].name, "Greedy-pmtn");
    }

    #[test]
    fn unknown_spec_fails_at_construction() {
        let scens = scenarios(1, 10, 0.4, 3);
        assert!(Campaign::new(&scens, ["not-a-scheduler"]).is_err());
    }

    #[test]
    fn cost_aware_order_dispatches_expensive_cells_first() {
        let scens = scenarios(1, 15, 0.4, 3);
        // fcfs (cheapest) listed first; dynmcb8 (most expensive) last.
        let campaign = Campaign::new(&scens, ["fcfs", "greedy-pmtn", "dynmcb8"]).unwrap();
        let order = campaign.unit_order();
        assert_eq!(order, vec![2, 1, 0], "descending cost, ties by index");
        // A single worker therefore *completes* cells in cost order.
        let completion_order = Mutex::new(Vec::new());
        campaign
            .on_cell(|u| completion_order.lock().unwrap().push(u.spec))
            .run();
        assert_eq!(*completion_order.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn cost_aware_order_preserves_matrix_alignment_and_fingerprint() {
        let scens = scenarios(2, 20, 0.5, 9);
        let specs = ["dynmcb8-per:t=300", "fcfs", "greedy-pmtn"];
        let serial = Campaign::new(&scens, specs).unwrap().threads(1).run();
        let parallel = Campaign::new(&scens, specs).unwrap().threads(4).run();
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        for row in &serial.cells {
            assert_eq!(row[1].name, "FCFS", "cells stay index-aligned");
        }
    }

    #[test]
    fn cells_record_wall_times() {
        let scens = scenarios(1, 15, 0.4, 3);
        let result = Campaign::new(&scens, ["greedy-pmtn"]).unwrap().run();
        assert!(result.cells[0][0].wall_secs > 0.0);
        // Wall time never leaks into the deterministic fingerprint.
        assert!(!result.cells[0][0]
            .fingerprint()
            .contains(&format!("{:016x}", result.cells[0][0].wall_secs.to_bits())));
    }
}

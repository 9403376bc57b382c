//! Count guards on heap allocations: per engine event under
//! `sharded:dynmcb8:shards=2`, which must not grow with the number of
//! jobs a decision places, and per `fcfs` and `dynmcb8` scheduler call,
//! the host-independent guards on the batch and repacking hot paths.
//!
//! A decision used to copy every job's nodes into a `Vec` of its own
//! three times on the way from the packer's `bin_of` to `apply_plan`
//! (per-job bins, per-job nodes, the coordinator's net entry), so an
//! event cost ≈ 2.5 allocations per job in the shard it touched. This
//! test's figures on the commit before the flat buffer (PR 22), same
//! workloads: 47.9 allocations per event at 16 jobs per shard, 167.0 at
//! 64 (ISSUE 23 measured the same 167 per scheduler call at ~62 jobs
//! per shard on the benchmark's `huge-sharded`). With the flat buffer:
//! 10.0 and 13.0 — a handful of per-event buffers (the plan's two
//! `Vec`s, the search result, the coordinator's touched list) and
//! their doublings.
//!
//! Its own test binary: the counting `#[global_allocator]` is
//! process-wide, the counter thread-local, so the harness's other
//! threads do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dfrs_core::ids::JobId;
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sched::SchedulerRegistry;
use dfrs_sim::{
    simulate, simulate_stream, DiscardRecords, IterSource, Plan, SchedEvent, Scheduler, SimConfig,
    SimState,
};
use dfrs_workload::{Annotator, LublinModel, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell` with no destructor, so touching
// it allocates nothing and is valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Reads the counter at the scheduler calls that open and close the
/// measured window, so the window covers whole engine events: the
/// scheduler call, `apply_plan`, and the event loop around them.
/// `inside` sums only what the scheduler calls in the window allocate.
struct Window {
    inner: Box<dyn Scheduler>,
    calls: u64,
    from: u64,
    to: u64,
    at_from: u64,
    at_to: u64,
    inside: u64,
}

impl Scheduler for Window {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        let now = ALLOCS.with(Cell::get);
        if self.calls == self.from {
            self.at_from = now;
        }
        if self.calls == self.to {
            self.at_to = now;
        }
        let in_window = (self.from..self.to).contains(&self.calls);
        self.calls += 1;
        let plan = self.inner.on_event(ev, state);
        if in_window {
            self.inside += ALLOCS.with(Cell::get) - now;
        }
        plan
    }
}

/// Steady-state allocations per engine event with `per_shard` jobs in
/// each of the two shards: single-task jobs arriving once a second and
/// running `2 × per_shard` seconds on a cluster where they all fit at
/// yield 1 (the benchmark's `huge-sharded` regime).
fn allocations_per_event(per_shard: u32) -> f64 {
    let live = 2 * per_shard;
    let jobs: Vec<JobSpec> = (0..6 * live)
        .map(|i| JobSpec::new(JobId(i), i as f64, 1, 0.5, 0.1, live as f64).unwrap())
        .collect();
    let inner = SchedulerRegistry::builtin()
        .build_str("sharded:dynmcb8:shards=2")
        .unwrap();
    // Measured: `4 × live` scheduler calls, arrivals and completions
    // alternating, starting well after the system filled (`live` jobs
    // in it from t = `live`) and every buffer saw its steady size.
    let (from, to) = (4 * u64::from(live), 8 * u64::from(live));
    let mut window = Window {
        inner,
        calls: 0,
        from,
        to,
        at_from: 0,
        at_to: 0,
        inside: 0,
    };
    let cluster = ClusterSpec::new(2 * live, 4, 8.0).unwrap();
    let out = simulate(cluster, &jobs, &mut window, &SimConfig::default());
    assert_eq!(out.records.len(), jobs.len());
    assert_eq!(out.max_stretch, 1.0, "every job runs at yield 1");
    assert!(window.calls > to, "the run outlasts the window");
    (window.at_to - window.at_from) as f64 / (to - from) as f64
}

#[test]
fn allocations_per_event_do_not_grow_with_the_jobs_placed() {
    let small = allocations_per_event(16);
    let large = allocations_per_event(64);
    println!("allocations per event: {small:.1} at 16 jobs per shard, {large:.1} at 64");
    assert!(large <= 48.0, "{large:.1} allocations per event at 64 jobs");
    assert!(
        large <= small + 16.0,
        "four times the jobs: {small:.1} -> {large:.1} allocations per event"
    );
}

/// Allocations per `fcfs` scheduler call (the call alone, not the
/// engine around it) on a streamed single-task trace: one arrival every
/// 4 s, runtimes cycling over 60..600 s, on the 128-node synthetic
/// cluster, so ≈ 80 nodes are busy and the queue stays short (the
/// benchmark's `stream-fcfs` regime). Measured 6.0 while every call
/// collected the whole-node free list (its doublings, then the plan's
/// buffers). Reading free nodes through the cursor straight into the
/// plan, and returning at once on an empty queue, leaves 1.0: a call
/// that starts a job allocates the plan's two buffers, one that starts
/// nothing allocates nothing, and arrivals are half the calls.
fn allocations_per_fcfs_call() -> f64 {
    let jobs = (0..4_000u32).map(|i| {
        let runtime = 60.0 + f64::from(i * 37 % 541);
        JobSpec::new(JobId(i), 4.0 * f64::from(i), 1, 1.0, 0.5, runtime).unwrap()
    });
    let inner = SchedulerRegistry::builtin().build_str("fcfs").unwrap();
    let (from, to) = (2_000, 6_000);
    let mut window = Window {
        inner,
        calls: 0,
        from,
        to,
        at_from: 0,
        at_to: 0,
        inside: 0,
    };
    let out = simulate_stream(
        ClusterSpec::synthetic(),
        &mut IterSource::new(jobs),
        &mut DiscardRecords,
        &mut window,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(out.jobs_completed, 4_000);
    assert!(window.calls > to, "the run outlasts the window");
    window.inside as f64 / (to - from) as f64
}

#[test]
fn allocations_per_fcfs_call_stay_at_the_batch_hot_path_figure() {
    let per_call = allocations_per_fcfs_call();
    println!("allocations per fcfs call: {per_call:.4}");
    assert!(per_call <= 1.0, "{per_call:.4} allocations per fcfs call");
}

/// Allocations per `dynmcb8` scheduler call (the call alone) on an
/// overloaded Lublin trace: 300 jobs on the paper's 128 nodes at load
/// 0.8, seed 5, measured over calls 100..500, where the queue builds
/// and the front evicts. Measured 11.67 on the commit before the
/// improvement pass became incremental: a fresh `AllocSet` per
/// decision (its two arenas and their doublings) and the pass's four
/// vectors (yields, per-node allocation, frozen flags, the answer).
fn allocations_per_dynmcb8_call() -> f64 {
    let cluster = ClusterSpec::synthetic();
    let mut rng = SmallRng::seed_from_u64(5);
    let raws = LublinModel::for_cluster(&cluster).generate(300, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    let trace = Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(0.8)
        .unwrap();
    let inner = SchedulerRegistry::builtin().build_str("dynmcb8").unwrap();
    let (from, to) = (100, 500);
    let mut window = Window {
        inner,
        calls: 0,
        from,
        to,
        at_from: 0,
        at_to: 0,
        inside: 0,
    };
    let out = simulate(
        trace.cluster,
        trace.jobs(),
        &mut window,
        &SimConfig::default(),
    );
    assert_eq!(out.records.len(), 300);
    assert!(out.preemption_count > 0, "the trace overloads the cluster");
    assert!(window.calls > to, "the run outlasts the window");
    window.inside as f64 / (to - from) as f64
}

#[test]
fn allocations_per_dynmcb8_call_stay_at_half_the_copying_pass() {
    let per_call = allocations_per_dynmcb8_call();
    println!("allocations per dynmcb8 call: {per_call:.4}");
    assert!(
        per_call <= 11.67 / 2.0,
        "{per_call:.4} allocations per dynmcb8 call"
    );
}

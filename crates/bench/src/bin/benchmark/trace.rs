//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer (in-program timers are a later
//! issue and will be checked against these numbers).
//!
//! A [`Tracer`] keeps per-name aggregates (count, total, child time, a
//! log histogram) plus a bounded sample of raw spans in memory and
//! writes them out when the run ends. A span's *self* time is its
//! duration minus the part its child spans cover.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dfrs_core::histogram::LogHistogram;
use dfrs_core::json::{obj, Value};
use dfrs_packing::DrfJob;
use dfrs_sim::{Plan, RepackStats, SchedEvent, Scheduler, SimState};

/// Raw spans kept per run (`stream-fcfs` alone makes millions).
const RAW_SPAN_CAP: usize = 100_000;

/// Job sets the packing replay keeps per run.
const JOB_SET_CAP: usize = 256;

/// A job set is offered to the sampler every this many decisions.
const CAPTURE_EVERY: u64 = 64;

/// Keeps at most `cap` of the items offered, evenly strided over the
/// whole sequence: when full it drops every other kept item and doubles
/// the stride, so early and late items are represented alike.
pub struct Strided<T> {
    cap: usize,
    stride: u64,
    seen: u64,
    pub items: Vec<T>,
}

impl<T> Strided<T> {
    pub fn new(cap: usize) -> Self {
        Strided {
            cap,
            stride: 1,
            seen: 0,
            items: Vec::new(),
        }
    }

    /// Offer the next item of the sequence; `make` runs only if kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.items.len() == self.cap {
            let mut keep = false;
            self.items.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.items.push(make());
    }
}

/// Aggregate of every span recorded under one name.
pub struct SpanStats {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
    pub max_ns: u64,
    /// Durations in µs.
    pub hist: LogHistogram,
}

impl SpanStats {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

struct OpenSpan {
    id: u64,
    name: usize,
    start_ns: u64,
    child_ns: u64,
}

struct RawSpan {
    id: u64,
    parent: Option<u64>,
    name: usize,
    pass: u32,
    start_ns: u64,
    end_ns: u64,
}

struct TraceBuf {
    epoch: Instant,
    pass: u32,
    stats: Vec<SpanStats>,
    stack: Vec<OpenSpan>,
    next_id: u64,
    raw: Strided<RawSpan>,
}

/// Shared handle to one run's span buffer. Every span of a run is
/// opened and closed on the load-generating thread (the sharded
/// workload's inners run on a one-worker pool, i.e. inline), so the
/// open-span stack is a plain stack; the mutex only makes the handle
/// `Send` for the `Scheduler` bound and is never contended.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<TraceBuf>>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Arc::new(Mutex::new(TraceBuf {
            epoch: Instant::now(),
            pass: 0,
            stats: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            raw: Strided::new(RAW_SPAN_CAP),
        })))
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        self.0.lock().expect("no span is recorded while panicking")
    }

    /// Register (or look up) a span name; the index is what the hot
    /// path passes to [`Tracer::begin`].
    pub fn name(&self, name: &'static str) -> usize {
        let mut b = self.buf();
        if let Some(i) = b.stats.iter().position(|s| s.name == name) {
            return i;
        }
        b.stats.push(SpanStats {
            name,
            count: 0,
            total_ns: 0,
            child_ns: 0,
            max_ns: 0,
            // 0.05 µs … ~16 s at 4 % resolution.
            hist: LogHistogram::new(0.05, 1.04, 500),
        });
        b.stats.len() - 1
    }

    /// Spans opened from now on carry this pass id.
    pub fn set_pass(&self, pass: u32) {
        self.buf().pass = pass;
    }

    pub fn begin(&self, name: usize) {
        let mut b = self.buf();
        let id = b.next_id;
        b.next_id += 1;
        let start_ns = b.epoch.elapsed().as_nanos() as u64;
        b.stack.push(OpenSpan {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    pub fn end(&self) {
        let mut b = self.buf();
        let end_ns = b.epoch.elapsed().as_nanos() as u64;
        let open = b.stack.pop().expect("end() pairs with a begin()");
        let dur = end_ns - open.start_ns;
        let parent = b.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let s = &mut b.stats[open.name];
        s.count += 1;
        s.total_ns += dur;
        s.child_ns += open.child_ns;
        s.max_ns = s.max_ns.max(dur);
        s.hist.push(dur as f64 * 1e-3);
        let pass = b.pass;
        b.raw.offer(|| RawSpan {
            id: open.id,
            parent,
            name: open.name,
            pass,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: usize, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Read one name's aggregate (`None` if nothing was recorded).
    pub fn with_stats<R>(&self, name: &str, f: impl FnOnce(&SpanStats) -> R) -> Option<R> {
        let b = self.buf();
        b.stats
            .iter()
            .find(|s| s.name == name && s.count > 0)
            .map(f)
    }

    /// Aggregates of every name starting with `prefix`, in registration
    /// order, as `(count, total seconds)`.
    pub fn totals_with_prefix(&self, prefix: &str) -> Vec<(u64, f64)> {
        self.buf()
            .stats
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| (s.count, s.total_s()))
            .collect()
    }

    pub fn spans_recorded(&self) -> u64 {
        self.buf().stats.iter().map(|s| s.count).sum()
    }

    /// The whole buffer as a JSON document: per-name aggregates and the
    /// sampled raw spans (`[id, parent, name index, pass, start_ns, end_ns]`).
    pub fn to_json(&self) -> Value {
        let b = self.buf();
        let names = b
            .stats
            .iter()
            .map(|s| {
                obj([
                    ("name".into(), Value::Str(s.name.into())),
                    ("count".into(), Value::Num(s.count as f64)),
                    ("total_s".into(), Value::Num(s.total_s())),
                    ("self_s".into(), Value::Num(s.self_s())),
                    ("p50_us".into(), Value::Num(s.hist.quantile(0.5))),
                    ("p99_us".into(), Value::Num(s.hist.quantile(0.99))),
                    ("max_us".into(), Value::Num(s.max_ns as f64 * 1e-3)),
                ])
            })
            .collect();
        let spans = b
            .raw
            .items
            .iter()
            .map(|r| {
                Value::Arr(vec![
                    Value::Num(r.id as f64),
                    r.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    Value::Num(r.name as f64),
                    Value::Num(r.pass as f64),
                    Value::Num(r.start_ns as f64),
                    Value::Num(r.end_ns as f64),
                ])
            })
            .collect();
        obj([
            ("names".into(), Value::Arr(names)),
            ("span_stride".into(), Value::Num(b.raw.stride as f64)),
            ("spans".into(), Value::Arr(spans)),
        ])
    }
}

/// Which allocation search the wrapped scheduler runs, i.e. how a
/// captured job set is to be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packs {
    /// No packing at all (`fcfs`): no job set is captured.
    Nothing,
    /// `dynmcb8`: yield search, evicting the lowest priority key first.
    Yield,
    /// `dynmcb8-drf`: dominant-share search, evicting the largest total
    /// dominant demand first (ties to the lower priority key).
    DominantShare,
}

/// One captured packing instance: the jobs in the system at a decision,
/// the node count they were packed onto, and the order in which the
/// scheduler's eviction loop would drop them while no packing exists.
pub struct JobSet {
    pub nodes: usize,
    pub jobs: Vec<DrfJob>,
    /// Indices into `jobs`, first victim first.
    pub evict_order: Vec<u32>,
}

impl JobSet {
    fn capture(state: &SimState, packs: Packs) -> JobSet {
        let live: Vec<&dfrs_sim::JobState> = state.jobs_in_system().collect();
        let mut evict_order: Vec<u32> = (0..live.len() as u32).collect();
        let key = |i: &u32| live[*i as usize].priority_key(state.now);
        match packs {
            Packs::DominantShare => {
                let demand = |i: &u32| {
                    let s = &live[*i as usize].spec;
                    s.dominant_fluid_need() * s.tasks as f64
                };
                evict_order.sort_by(|a, b| {
                    demand(b)
                        .total_cmp(&demand(a))
                        .then_with(|| key(a).cmp(&key(b)))
                });
            }
            _ => evict_order.sort_by_key(key),
        }
        JobSet {
            nodes: state.cluster.up_nodes() as usize,
            jobs: live
                .iter()
                .map(|j| DrfJob {
                    job: j.spec.id,
                    tasks: j.spec.tasks,
                    cpu_need: j.spec.cpu_need,
                    mem_req: j.spec.mem_req,
                    gpu_need: j.spec.gpu_need,
                })
                .collect(),
            evict_order,
        }
    }
}

/// What the [`Timed`] wrappers of one traced pass observe besides
/// spans: sampled job sets for the packing replay and the distribution
/// of jobs in the system at decision time.
pub struct Probe {
    packs: Packs,
    decisions: u64,
    pub sets: Strided<JobSet>,
    /// `in_system[n]` = decisions taken with `n` jobs in the system
    /// (the last slot collects everything at or above its index).
    in_system: Vec<u64>,
}

impl Probe {
    pub fn new(packs: Packs) -> Arc<Mutex<Probe>> {
        Arc::new(Mutex::new(Probe {
            packs,
            decisions: 0,
            sets: Strided::new(JOB_SET_CAP),
            in_system: vec![0; 4096],
        }))
    }

    pub fn jobs_in_system_p50(&self) -> f64 {
        let total: u64 = self.in_system.iter().sum();
        let mut cum = 0;
        for (n, &c) in self.in_system.iter().enumerate() {
            cum += c;
            if cum * 2 >= total.max(1) {
                return n as f64;
            }
        }
        0.0
    }
}

/// A transparent `Scheduler` wrapper that records one span per
/// `on_event` and, when given a [`Probe`], samples the job sets the
/// inner scheduler is about to pack.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    tracer: Tracer,
    span: usize,
    capture_span: usize,
    probe: Option<Arc<Mutex<Probe>>>,
}

impl Timed {
    pub fn new(
        inner: Box<dyn Scheduler>,
        tracer: &Tracer,
        span: &'static str,
        probe: Option<Arc<Mutex<Probe>>>,
    ) -> Self {
        Timed {
            inner,
            tracer: tracer.clone(),
            span: tracer.name(span),
            capture_span: tracer.name("trace.capture"),
            probe,
        }
    }

    fn observe(&self, state: &SimState) {
        let Some(probe) = &self.probe else { return };
        let mut p = probe.lock().expect("probe is only locked here");
        let live = state.jobs_in_system().size_hint().0;
        let slot = live.min(p.in_system.len() - 1);
        p.in_system[slot] += 1;
        p.decisions += 1;
        if p.packs != Packs::Nothing && p.decisions % CAPTURE_EVERY == 0 {
            let packs = p.packs;
            p.sets.offer(|| JobSet::capture(state, packs));
        }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn period(&self) -> Option<f64> {
        self.inner.period()
    }

    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        if self.probe.is_some() {
            // Its own span, so sampling is not booked as engine time.
            self.tracer.span(self.capture_span, || self.observe(state));
        }
        self.tracer.begin(self.span);
        let plan = self.inner.on_event(ev, state);
        self.tracer.end();
        plan
    }

    fn repack_stats(&self) -> Option<RepackStats> {
        self.inner.repack_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_keeps_an_even_sample_within_cap() {
        let mut s = Strided::new(8);
        for i in 0..1000u32 {
            s.offer(|| i);
        }
        assert!(s.items.len() <= 8 && s.items.len() >= 4);
        assert!(s.items.iter().all(|i| u64::from(*i) % s.stride == 0));
        assert_eq!(s.items[0], 0);
        assert!(*s.items.last().unwrap() >= 500, "late items are kept too");
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        t.span(outer, || {
            t.span(inner, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let inner_total = t.with_stats("inner", |s| s.total_ns).unwrap();
        t.with_stats("outer", |s| {
            assert_eq!(s.child_ns, inner_total);
            assert!(s.total_ns >= inner_total);
        })
        .unwrap();
        assert_eq!(t.spans_recorded(), 2);
    }
}

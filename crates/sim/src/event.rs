//! External-event queue with versioned entries.
//!
//! Only *external* events live in the queue: per-job timers (scheduler
//! backoff), periodic ticks, and platform events (node failures and
//! repairs, known from the scenario's availability trace). Submissions
//! are pulled from a [`crate::SubmissionSource`] or arrive as session
//! commands, and reach the engine as the caller's external instant of
//! `EngineCore::step`, never as queue entries. Job completions are
//! **derived** — between decisions yields are constant, so the engine
//! computes the earliest completion analytically and merges it with the
//! queue head (see DESIGN.md §"Engine internals" for why they must stay
//! derived; §9 for why failures are external). A monotonically
//! increasing sequence number makes same-instant ordering deterministic
//! (FIFO).
//!
//! ## Versioned entries
//!
//! Per-job timer entries carry the job's timer *version* at push time;
//! [`EventQueue::cancel_timers`] bumps the version in O(1), instantly
//! invalidating every outstanding timer of that job without scanning
//! the heap (rescheduling is a cancel + push, O(log n) total).
//! Invalidated entries still pop at their original time — the engine
//! must observe the same event instants whether or not a timer is
//! stale, because advancing the clock in different increments changes
//! the floating-point integrals — but they pop marked stale, so the
//! engine drops them without a scheduler round.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use dfrs_core::ids::{JobId, NodeId};

/// What an external event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scheduler-requested wake-up for a postponed job (GREEDY's
    /// bounded exponential backoff).
    Timer(JobId),
    /// Periodic scheduling event (the `-PER` algorithms).
    Tick,
    /// A node fails and leaves service (platform event from the
    /// scenario's availability trace).
    NodeDown(NodeId),
    /// A failed node is repaired and returns to service.
    NodeUp(NodeId),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    kind: EventKind,
    /// Timer version at push time (0 for non-timer events).
    ver: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One serialized queue entry: `(time, seq, kind, ver)` — the snapshot
/// row format produced by [`EventQueue::snapshot_parts`] and consumed
/// by [`EventQueue::restore_parts`].
pub(crate) type QueueEntryRow = (f64, u64, EventKind, u32);

/// Min-heap of timestamped external events with FIFO tie-breaking and
/// O(1) timer cancellation (see module docs).
///
/// Timer versions live in a *windowed* table aligned with the
/// [`crate::state::JobStore`] eviction window: versions of evicted
/// (completed) jobs are retired, and any heap entry referencing an id
/// below the window base pops stale — a completed job's timers were
/// dropped without a scheduler round before, so behavior is identical
/// while memory stays bounded on endless feeds.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
    /// Ids below this have retired timer versions (always stale).
    timer_base: usize,
    /// Current timer version for job `timer_base + k`; heap entries
    /// with an older version are stale. Grown on demand.
    timer_ver: VecDeque<u32>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current version of `job`'s timers; `None` once retired.
    #[inline]
    fn ver_of(&self, job: JobId) -> Option<u32> {
        job.index()
            .checked_sub(self.timer_base)
            .and_then(|k| self.timer_ver.get(k).copied().or(Some(0)))
    }

    /// Schedule `kind` at absolute time `time`. Timer entries capture
    /// the job's current version (0 for a retired job — it pops stale).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let ver = match kind {
            EventKind::Timer(job) => self.ver_of(job).unwrap_or(0),
            _ => 0,
        };
        self.push_raw(Entry {
            time,
            seq: self.seq,
            kind,
            ver,
        });
        self.seq += 1;
    }

    fn push_raw(&mut self, e: Entry) {
        self.heap.push(e);
    }

    /// Invalidate every outstanding timer of `job` in O(1). Stale
    /// entries still pop at their scheduled time (the engine's clock
    /// advances identically either way) but pop as invalid. No-op for
    /// an evicted job — its entries are stale already.
    pub fn cancel_timers(&mut self, job: JobId) {
        let Some(k) = job.index().checked_sub(self.timer_base) else {
            return;
        };
        if k >= self.timer_ver.len() {
            self.timer_ver.resize(k + 1, 0);
        }
        self.timer_ver[k] += 1;
    }

    /// Retire timer versions of every job below `base` (evicted by the
    /// job store); their outstanding entries pop stale.
    pub(crate) fn retire_below(&mut self, base: usize) {
        while self.timer_base < base {
            self.timer_ver.pop_front();
            self.timer_base += 1;
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event; the flag is false for a stale (cancelled
    /// or retired) timer, which the caller drops without a scheduler
    /// round.
    pub fn pop(&mut self) -> Option<(f64, EventKind, bool)> {
        self.heap.pop().map(|e| {
            let valid = match e.kind {
                EventKind::Timer(job) => self.ver_of(job) == Some(e.ver),
                _ => true,
            };
            (e.time, e.kind, valid)
        })
    }

    /// Number of pending events (stale entries included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Rebuild a queue from [`EventQueue::snapshot_parts`] output.
    pub(crate) fn restore_parts(entries: &[QueueEntryRow], seq: u64, timer_base: usize) -> Self {
        let mut q = EventQueue {
            heap: BinaryHeap::with_capacity(entries.len()),
            seq,
            timer_base,
            timer_ver: VecDeque::new(),
        };
        for &(time, eseq, kind, ver) in entries {
            q.push_raw(Entry {
                time,
                seq: eseq,
                kind,
                ver,
            });
        }
        q
    }

    /// Snapshot support: every pending entry as `(time, seq, kind, ver)`
    /// in deterministic `(time, seq)` order, plus the sequence counter
    /// and the timer-version window base. Only meaningful at quiescence
    /// (no live jobs), when every outstanding timer is necessarily
    /// stale and the version window is empty.
    pub(crate) fn snapshot_parts(&self) -> (Vec<QueueEntryRow>, u64, usize) {
        let mut entries: Vec<QueueEntryRow> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, e.kind, e.ver))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        (entries, self.seq, self.timer_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30.0, EventKind::Tick);
        q.push(10.0, EventKind::Timer(JobId(0)));
        q.push(20.0, EventKind::Timer(JobId(1)));
        assert_eq!(q.pop().unwrap(), (10.0, EventKind::Timer(JobId(0)), true));
        assert_eq!(q.pop().unwrap(), (20.0, EventKind::Timer(JobId(1)), true));
        assert_eq!(q.pop().unwrap(), (30.0, EventKind::Tick, true));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Timer(JobId(1)));
        q.push(5.0, EventKind::Timer(JobId(2)));
        q.push(5.0, EventKind::Tick);
        assert_eq!(q.pop().unwrap().1, EventKind::Timer(JobId(1)));
        assert_eq!(q.pop().unwrap().1, EventKind::Timer(JobId(2)));
        assert_eq!(q.pop().unwrap().1, EventKind::Tick);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(7.5, EventKind::Tick);
        assert_eq!(q.peek_time(), Some(7.5));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10.0, EventKind::Tick);
        q.push(1.0, EventKind::Tick);
        assert_eq!(q.pop().unwrap().0, 1.0);
        q.push(5.0, EventKind::Tick);
        q.push(0.5, EventKind::Tick);
        assert_eq!(q.pop().unwrap().0, 0.5);
        assert_eq!(q.pop().unwrap().0, 5.0);
        assert_eq!(q.pop().unwrap().0, 10.0);
    }

    #[test]
    fn cancelled_timers_pop_stale_at_their_time() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Timer(JobId(2)));
        q.push(9.0, EventKind::Timer(JobId(2)));
        q.push(7.0, EventKind::Timer(JobId(1)));
        q.cancel_timers(JobId(2));
        // Entries still fire at their times — the clock must advance
        // identically — but are flagged stale.
        assert_eq!(q.pop().unwrap(), (5.0, EventKind::Timer(JobId(2)), false));
        assert_eq!(q.pop().unwrap(), (7.0, EventKind::Timer(JobId(1)), true));
        assert_eq!(q.pop().unwrap(), (9.0, EventKind::Timer(JobId(2)), false));
    }

    #[test]
    fn timers_pushed_after_cancel_are_valid() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Timer(JobId(0)));
        q.cancel_timers(JobId(0));
        q.push(2.0, EventKind::Timer(JobId(0)));
        assert_eq!(q.pop().unwrap(), (1.0, EventKind::Timer(JobId(0)), false));
        assert_eq!(q.pop().unwrap(), (2.0, EventKind::Timer(JobId(0)), true));
    }

    #[test]
    fn cancel_is_per_job() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Timer(JobId(0)));
        q.push(2.0, EventKind::Timer(JobId(1)));
        q.cancel_timers(JobId(0));
        assert!(!q.pop().unwrap().2);
        assert!(q.pop().unwrap().2);
    }
}

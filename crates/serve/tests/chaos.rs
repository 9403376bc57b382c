//! The crash-safety contract, tested at every seeded crash point:
//! kill the daemon anywhere in the write-ahead path — before an
//! append, after it, mid-record (torn bytes), or mid-snapshot — and
//! recovery from the journal produces a daemon whose remaining output
//! is byte-identical to one that never crashed. Every point is driven
//! both one line at a time and as one batch of the whole script.
//!
//! The client protocol for resuming is the standard WAL one: re-send
//! every command that was never acknowledged. A `post-append` crash is
//! the only point where a command is durable but unacknowledged; its
//! events are legitimately lost (the client never got an ack), the
//! state change is not.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dfrs_core::json::Value;
use dfrs_core::ClusterSpec;
use dfrs_serve::journal::{self, FsyncPolicy, JournalError};
use dfrs_serve::{Daemon, Flow, ServeError};
use dfrs_sim::SimConfig;
use proptest::prelude::*;

/// A script exercising every journaled command plus two snapshot
/// rotations, on a periodic rescheduler (tick chains live in the
/// snapshots, the hard case for replay).
const SCRIPT: &[&str] = &[
    r#"{"cmd":"submit","time":0,"tasks":2,"cpu":0.5,"mem":0.25,"runtime":600}"#,
    r#"{"cmd":"submit","time":10,"cpu":1.0,"mem":0.5,"runtime":300}"#,
    r#"{"cmd":"node-down","time":60,"node":1}"#,
    r#"{"cmd":"advance","time":200}"#,
    r#"{"cmd":"node-up","time":250,"node":1}"#,
    r#"{"cmd":"drain"}"#,
    r#"{"cmd":"snapshot"}"#,
    r#"{"cmd":"submit","time":2000,"cpu":0.5,"mem":0.25,"runtime":120}"#,
    r#"{"cmd":"submit","time":2030,"tasks":3,"cpu":0.75,"mem":0.3,"runtime":400}"#,
    r#"{"cmd":"drain"}"#,
    r#"{"cmd":"snapshot"}"#,
    r#"{"cmd":"stats"}"#,
];

const SPEC: &str = "dynmcb8-per:t=300";

fn journaled(line: &str) -> bool {
    ["submit", "node-down", "node-up", "advance", "drain"]
        .iter()
        .any(|c| line.contains(&format!("\"cmd\":\"{c}\"")))
}

fn mutating_count() -> u64 {
    SCRIPT.iter().filter(|l| journaled(l)).count() as u64
}

fn is_snapshot(line: &str) -> bool {
    line.contains("\"cmd\":\"snapshot\"")
}

fn snapshot_count() -> u64 {
    SCRIPT.iter().filter(|l| is_snapshot(l)).count() as u64
}

/// Index into [`SCRIPT`] of the line `plan` crashes on: its `at`-th
/// snapshot for `mid-snapshot`, its `at`-th journaled command otherwise.
fn crash_line(plan: &str) -> usize {
    let mut parts = plan.split(':');
    let point = parts.next().unwrap();
    let at: usize = parts.next().unwrap().parse().unwrap();
    let hit = if point == "mid-snapshot" {
        is_snapshot
    } else {
        journaled
    };
    (0..SCRIPT.len())
        .filter(|&i| hit(SCRIPT[i]))
        .nth(at - 1)
        .unwrap_or_else(|| panic!("{plan}: no such line in {SCRIPT:?}"))
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

// Test-side unwraps assume a writable temp dir — an environment
// invariant, not a code path under test.
fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dfrs-chaos-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn daemon_with_journal(dir: &Path) -> Daemon {
    let mut d = Daemon::new(
        ClusterSpec::new(4, 4, 8.0).unwrap(),
        SPEC,
        SimConfig::default(),
    )
    .unwrap();
    d.attach_journal(dir, FsyncPolicy::Always).unwrap();
    d
}

fn compacts(events: &[Value]) -> Vec<String> {
    events.iter().map(Value::compact).collect()
}

/// Feed `lines` as one `handle_batch`, or one `handle_line` at a time
/// up to the first line whose flow is not `Continue`.
fn feed(d: &mut Daemon, lines: &[&str], batched: bool) -> Vec<(Vec<Value>, Flow)> {
    if batched {
        return d.handle_batch(lines);
    }
    let mut out = Vec::new();
    for line in lines {
        let (ev, flow) = d.handle_line(line);
        out.push((ev, flow));
        if flow != Flow::Continue {
            break;
        }
    }
    out
}

/// Run the whole script without chaos: per-command event lines.
fn run_reference(dir: &Path) -> Vec<Vec<String>> {
    let mut d = daemon_with_journal(dir);
    SCRIPT
        .iter()
        .map(|c| {
            let (ev, flow) = d.handle_line(c);
            assert_ne!(flow, Flow::Crashed, "no chaos armed");
            compacts(&ev)
        })
        .collect()
}

/// Run with `plan` armed until the seeded crash fires, recover from the
/// journal, and finish the script — line by line, or (`batched`) each
/// half as one `handle_batch`, where the commands staged before the
/// crash must still be applied and acknowledged. Returns the 0-based
/// index of the crashed command, the per-command events delivered before
/// the crash, and the per-command events delivered after recovery
/// (starting at `crash_index + consumed`).
fn run_with_crash(
    dir: &Path,
    plan: &str,
    consumed: bool,
    batched: bool,
) -> (usize, Vec<Vec<String>>, Vec<Vec<String>>) {
    let mut d = daemon_with_journal(dir);
    d.set_chaos(plan.parse().unwrap_or_else(|e| panic!("{plan}: {e}")));
    let out = feed(&mut d, SCRIPT, batched);
    let (ev, flow) = out.last().unwrap();
    assert_eq!(*flow, Flow::Crashed, "{plan}: never fired over {SCRIPT:?}");
    assert!(ev.is_empty(), "{plan}: a crash must not acknowledge");
    let i = out.len() - 1;
    assert_eq!(i, crash_line(plan), "{plan}: answered the wrong lines");
    let pre = out[..i].iter().map(|(ev, _)| compacts(ev)).collect();
    // The binary would abort() here; in-process, dropping the daemon is
    // the kill — nothing below the journal's own syncs survives it.
    drop(d);

    let (mut d, _recovery) =
        Daemon::recover(dir, FsyncPolicy::Always).unwrap_or_else(|e| panic!("{plan}: {e}"));
    let resume = i + usize::from(consumed);
    let post = feed(&mut d, &SCRIPT[resume..], batched)
        .into_iter()
        .map(|(ev, flow)| {
            assert_ne!(flow, Flow::Crashed, "{plan}: chaos must not re-fire");
            compacts(&ev)
        })
        .collect();
    (i, pre, post)
}

fn check_plan_recovers(
    reference: &[Vec<String>],
    dir: &Path,
    plan: &str,
    consumed: bool,
    batched: bool,
) {
    let (i, pre, post) = run_with_crash(dir, plan, consumed, batched);
    assert_eq!(
        pre,
        &reference[..i],
        "{plan} (batched: {batched}): pre-crash events diverged from the uninterrupted run"
    );
    let resume = i + usize::from(consumed);
    assert_eq!(
        post,
        &reference[resume..],
        "{plan} (batched: {batched}): post-recovery events diverged from the uninterrupted run"
    );
}

/// The full deterministic crash matrix: every append crashed before,
/// after, and torn (several tear widths), and every snapshot crashed
/// mid-write — each fed line by line and as one batch. Byte-identical
/// convergence at each point.
#[test]
fn every_crash_point_recovers_byte_identically() {
    let refdir = tmpdir("ref");
    let reference = run_reference(&refdir);

    for batched in [false, true] {
        let check = |tag: &str, plan: String, consumed: bool| {
            let dir = tmpdir(tag);
            check_plan_recovers(&reference, &dir, &plan, consumed, batched);
            let _ = std::fs::remove_dir_all(&dir);
        };
        for at in 1..=mutating_count() {
            check("pre", format!("pre-append:{at}"), false);
            check("post", format!("post-append:{at}"), true);
            for keep in [1usize, 7, 40] {
                check("torn", format!("torn:{at}:{keep}"), false);
            }
        }
        for at in 1..=snapshot_count() {
            for keep in [0usize, 100] {
                check("midsnap", format!("mid-snapshot:{at}:{keep}"), false);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&refdir);
}

/// Recovery reports what it did: a torn append at the tail shows up as
/// dropped bytes, and replay counts match the journal suffix.
#[test]
fn recovery_reports_the_torn_tail() {
    let dir = tmpdir("report");
    let mut d = daemon_with_journal(&dir);
    d.set_chaos("torn:3:9".parse().unwrap());
    let mut fired = false;
    for c in SCRIPT {
        if d.handle_line(c).1 == Flow::Crashed {
            fired = true;
            break;
        }
    }
    assert!(fired);
    drop(d);
    let (_d, recovery) = Daemon::recover(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(recovery.covered, 0);
    assert_eq!(recovery.replayed, 2, "two whole records before the tear");
    assert_eq!(recovery.last_seq, 2);
    let torn = recovery.torn.clone().expect("torn tail reported");
    assert!(torn.dropped > 0);
    // The banner carries the same numbers.
    let banner = Daemon::recovered_event(&recovery).compact();
    assert!(banner.contains(r#""event":"recovered""#), "{banner}");
    assert!(banner.contains(r#""replayed":2"#), "{banner}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage a torn tail cannot explain is a hard, typed error — recovery
/// refuses to guess.
#[test]
fn corruption_fails_recovery_with_typed_errors() {
    let dir = tmpdir("corrupt");
    let mut d = daemon_with_journal(&dir);
    for c in &SCRIPT[..4] {
        d.handle_line(c);
    }
    drop(d);
    // Flip a byte in the middle of the first segment (line 2 of 5).
    let seg = dir.join("segment-0000000001.ndjson");
    let mut data = std::fs::read(&seg).unwrap();
    let first_nl = data.iter().position(|&b| b == b'\n').unwrap();
    data[first_nl + 10] ^= 0x20;
    std::fs::write(&seg, &data).unwrap();
    match Daemon::recover(&dir, FsyncPolicy::Always).map(|_| ()) {
        Err(ServeError::Journal(JournalError::Corrupt { line, .. })) => assert_eq!(line, 2),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // An empty directory is typed too.
    let empty = tmpdir("empty");
    match Daemon::recover(&empty, FsyncPolicy::Always).map(|_| ()) {
        Err(ServeError::Journal(JournalError::NoJournal { .. })) => {}
        other => panic!("expected NoJournal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// A crash-free journaled run leaves a journal that replays to the
/// same state: scan it, recover, and the stats line must match.
#[test]
fn crash_free_journal_replays_to_the_same_state() {
    let dir = tmpdir("replay");
    let mut d = daemon_with_journal(&dir);
    let mut last_stats = String::new();
    for c in SCRIPT {
        let (ev, _) = d.handle_line(c);
        if c.contains("\"cmd\":\"stats\"") {
            last_stats = ev[0].compact();
        }
    }
    drop(d);
    let rec = journal::scan(&dir).unwrap();
    assert_eq!(rec.torn, None);
    assert_eq!(rec.covered, mutating_count(), "final snapshot covers all");
    let (mut d, recovery) = Daemon::recover(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(recovery.replayed, 0, "nothing after the last snapshot");
    let (ev, _) = d.handle_line(r#"{"cmd":"stats"}"#);
    assert_eq!(ev[0].compact(), last_stats);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batching must be invisible in the output: any chunking of the script
/// through `handle_batch` emits the same event bytes as feeding it one
/// `handle_line` at a time, and leaves the same journal behind.
#[test]
fn batched_path_matches_sequential_bytes_and_journal() {
    let seq_dir = tmpdir("seq");
    let mut seq_events = Vec::new();
    {
        let mut d = daemon_with_journal(&seq_dir);
        for c in SCRIPT {
            let (ev, flow) = d.handle_line(c);
            assert_ne!(flow, Flow::Crashed);
            seq_events.extend(compacts(&ev));
        }
    }
    let seq_journal = journal::scan(&seq_dir).unwrap();

    for chunk in [1usize, 2, 3, 5, SCRIPT.len()] {
        let dir = tmpdir("batch");
        let mut events = Vec::new();
        {
            let mut d = daemon_with_journal(&dir);
            for lines in SCRIPT.chunks(chunk) {
                for (ev, flow) in d.handle_batch(lines) {
                    assert_ne!(flow, Flow::Crashed);
                    events.extend(compacts(&ev));
                }
            }
        }
        assert_eq!(events, seq_events, "chunk size {chunk}");
        let rec = journal::scan(&dir).unwrap();
        assert_eq!(rec.lines, seq_journal.lines, "chunk size {chunk}");
        assert_eq!(rec.last_seq, seq_journal.last_seq, "chunk size {chunk}");
        assert_eq!(rec.covered, seq_journal.covered, "chunk size {chunk}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&seq_dir);
}

/// The crash window only the batched path has: commands staged after a
/// group-commit append but never acknowledged or applied. How the
/// daemon dies decides whether the staged run is durable: dropping it
/// in-process commits the run, which recovery then replays exactly
/// once; an aborted process (emulated by leaking the daemon, so no
/// destructor runs) loses the run, and recovery ends at the last
/// acknowledged command. Either way, re-sending the script from the
/// first command the journal lacks converges on the reference state
/// for every staged position.
#[test]
fn batch_crash_between_append_and_ack_recovers() {
    // Reference: the final stats of an undisturbed batched run.
    let refdir = tmpdir("bref");
    let want_stats = {
        let mut d = daemon_with_journal(&refdir);
        let out = d.handle_batch(SCRIPT);
        compacts(&out.last().unwrap().0)
    };

    for at in 1..=mutating_count() {
        for abort in [false, true] {
            let plan = format!("batch-crash:{at} (abort: {abort})");
            let dir = tmpdir("bcrash");
            let mut d = daemon_with_journal(&dir);
            d.set_chaos(format!("batch-crash:{at}").parse().unwrap());
            // The whole script in ONE batch: every journaled command
            // since the last boundary is staged (appended, uncommitted)
            // and none of them applied when the crash fires.
            let out = d.handle_batch(SCRIPT);
            let (ev, flow) = out.last().unwrap();
            assert_eq!(*flow, Flow::Crashed, "{plan} must fire");
            assert!(ev.is_empty(), "a crash must not acknowledge");
            // Lines answered before the crash: everything up to the
            // last boundary; the staged run follows them.
            let answered = out.len() - 1;
            let acked = SCRIPT[..answered].iter().filter(|l| journaled(l)).count() as u64;
            let (want_seq, resume) = if abort {
                std::mem::forget(d);
                (acked, answered)
            } else {
                drop(d);
                (at, crash_line(&format!("batch-crash:{at}")) + 1)
            };

            let (mut d, recovery) = Daemon::recover(&dir, FsyncPolicy::Always)
                .unwrap_or_else(|e| panic!("{plan}: {e}"));
            assert_eq!(recovery.last_seq, want_seq, "{plan}: journal end");
            assert_eq!(
                recovery.replayed,
                want_seq - recovery.covered,
                "{plan}: the whole suffix replays exactly once"
            );
            // Standard WAL client protocol: re-send from the first
            // command the journal does not hold.
            let out = d.handle_batch(&SCRIPT[resume..]);
            let got = compacts(&out.last().unwrap().0);
            assert_eq!(got, want_stats, "{plan}: state diverged");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&refdir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the matrix: any crash point, any tear width —
    /// recovery converges to the reference bytes.
    #[test]
    fn any_seeded_crash_converges(
        at in 1u64..=9,
        keep in 1usize..300,
        kind in prop::sample::select(vec!["pre-append", "post-append", "torn"]),
    ) {
        prop_assume!(at <= mutating_count());
        let refdir = tmpdir("prop-ref");
        let reference = run_reference(&refdir);
        let plan = match kind {
            "torn" => format!("torn:{at}:{keep}"),
            k => format!("{k}:{at}"),
        };
        let dir = tmpdir("prop");
        check_plan_recovers(&reference, &dir, &plan, kind == "post-append", false);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&refdir);
    }
}

//! Malformed-input fuzzing for the daemon's NDJSON command parser and
//! the journal scanner: arbitrary byte mutations, truncations, and
//! oversized lines must produce a single typed `error` event (leaving
//! the session bit-for-bit unchanged) or — when the mutation happens to
//! still be a valid command — a normal response. The daemon must keep
//! serving either way; the scanner must return a typed error or a
//! tolerated torn tail, never panic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dfrs_core::json::Value;
use dfrs_core::ClusterSpec;
use dfrs_serve::journal::{self, FsyncPolicy, Journal, JournalError};
use dfrs_serve::{Daemon, Flow, MAX_LINE_DEFAULT};
use dfrs_sim::SimConfig;
use proptest::prelude::*;

fn daemon() -> Daemon {
    Daemon::new(
        ClusterSpec::new(4, 4, 8.0).unwrap(),
        "greedy-pmtn",
        SimConfig::default(),
    )
    .unwrap()
}

/// Seed the daemon with real state so "unchanged" is a meaningful claim.
fn seeded() -> Daemon {
    let mut d = daemon();
    for c in [
        r#"{"cmd":"submit","time":0,"tasks":2,"cpu":0.5,"mem":0.25,"runtime":100}"#,
        r#"{"cmd":"submit","time":5,"cpu":1.0,"mem":0.5,"runtime":50}"#,
        r#"{"cmd":"advance","time":20}"#,
    ] {
        let (ev, _) = d.handle_line(c);
        assert!(!ev[0].compact().contains("error"), "seed failed: {ev:?}");
    }
    d
}

fn stats(d: &mut Daemon) -> String {
    d.handle_line(r#"{"cmd":"stats"}"#).0[0].compact()
}

/// Valid command lines the mutations start from.
const BASES: &[&str] = &[
    r#"{"cmd":"submit","time":30,"cpu":0.5,"mem":0.25,"runtime":40}"#,
    r#"{"cmd":"node-down","time":30,"node":1}"#,
    r#"{"cmd":"advance","time":60}"#,
    r#"{"cmd":"drain"}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"snapshot"}"#,
];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

// Test-side unwraps assume a writable temp dir — an environment
// invariant, not a code path under test.
fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dfrs-fuzz-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A group commit of one: enqueue, then wait until durable.
fn append(j: &mut Journal, raw: &str) -> u64 {
    let seq = j.append_async(raw).unwrap();
    j.wait_durable(seq).unwrap();
    seq
}

/// Feed one (possibly garbage) line; check the error/unchanged
/// contract; prove the daemon still serves.
fn check_line(d: &mut Daemon, line: &str) {
    let before = stats(d);
    let (events, flow) = d.handle_line(line);
    assert_ne!(flow, Flow::Crashed, "no chaos armed: {line:?}");
    let errored =
        events.len() == 1 && events[0].get("event").and_then(Value::as_str) == Some("error");
    if errored {
        assert_eq!(stats(d), before, "error must not mutate state: {line:?}");
    }
    // Still serving, whatever happened.
    let (ev, flow) = d.handle_line(r#"{"cmd":"stats"}"#);
    assert_eq!(flow, Flow::Continue);
    assert_eq!(ev[0].get("event").and_then(Value::as_str), Some("stats"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-byte mutations of valid commands: typed error + unchanged
    /// state, or a valid response — never a wedged or dead daemon.
    #[test]
    fn mutated_commands_never_poison_the_daemon(
        which in 0usize..BASES.len(),
        pos in 0usize..64,
        byte in 0u8..=255,
    ) {
        let mut bytes = BASES[which].as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        let line = String::from_utf8_lossy(&bytes).into_owned();
        check_line(&mut seeded(), &line);
    }

    /// Truncations of valid commands (torn client writes).
    #[test]
    fn truncated_commands_never_poison_the_daemon(
        which in 0usize..BASES.len(),
        keep in 0usize..64,
    ) {
        let base = BASES[which];
        let line = &base[..keep.min(base.len())];
        check_line(&mut seeded(), line);
    }

    /// Arbitrary byte soup.
    #[test]
    fn garbage_lines_never_poison_the_daemon(
        bytes in proptest::collection::vec(0u8..=255, 0..80),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        check_line(&mut seeded(), &line);
    }

    /// Random single-byte flips anywhere in a journal segment: the
    /// scanner returns a typed error or tolerates a torn tail — it
    /// never panics, and it never silently accepts altered bytes as a
    /// *different* command list longer than the original.
    #[test]
    fn journal_scan_survives_arbitrary_byte_flips(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let dir = tmpdir("flip");
        let mut j = Journal::create(&dir, FsyncPolicy::Never, "{}").unwrap();
        for c in BASES.iter().take(4) {
            append(&mut j, c);
        }
        drop(j);
        let seg = dir.join("segment-0000000001.ndjson");
        let mut data = std::fs::read(&seg).unwrap();
        let pos = pos % data.len();
        data[pos] ^= flip;
        std::fs::write(&seg, &data).unwrap();
        match journal::scan(&dir) {
            Ok(rec) => prop_assert!(rec.lines.len() <= 4),
            Err(
                JournalError::Corrupt { .. }
                | JournalError::SeqGap { .. }
                | JournalError::Io { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Oversized lines are rejected with a typed `oversize` error before
/// any parsing, and the session is untouched.
#[test]
fn oversized_lines_get_a_typed_error() {
    let mut d = seeded();
    let before = stats(&mut d);
    let big = format!(
        r#"{{"cmd":"submit","time":30,"cpu":0.5,"mem":0.25,"runtime":40,"pad":"{}"}}"#,
        "x".repeat(MAX_LINE_DEFAULT)
    );
    let (events, flow) = d.handle_line(&big);
    assert_eq!(flow, Flow::Continue);
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0].get("kind").and_then(Value::as_str),
        Some("oversize")
    );
    assert_eq!(stats(&mut d), before);

    // The cap is configurable; a tiny cap rejects ordinary commands.
    d.set_max_line(8);
    let (events, _) = d.handle_line(r#"{"cmd":"stats"}"#);
    assert_eq!(
        events[0].get("kind").and_then(Value::as_str),
        Some("oversize")
    );
}

/// A submit whose completion instant the clock cannot represent is a
/// typed error that leaves the session untouched, not a spin to the
/// event cap (`1e17 + 1 == 1e17`) or a deadlock (`1e308 + 1e308` is
/// infinite); the daemon then drains at once.
#[test]
fn unrepresentable_completion_is_a_typed_error() {
    for (advance, submit) in [
        (
            Some(r#"{"cmd":"advance","time":1e17}"#),
            r#"{"cmd":"submit","cpu":0.5,"mem":0.2,"runtime":1}"#,
        ),
        (
            Some(r#"{"cmd":"advance","time":1.7976931348623157e308}"#),
            r#"{"cmd":"submit","cpu":0.5,"mem":0.2,"runtime":10}"#,
        ),
        (
            None,
            r#"{"cmd":"submit","time":1e308,"cpu":0.5,"mem":0.2,"runtime":1e308}"#,
        ),
    ] {
        let mut d = seeded();
        if let Some(line) = advance {
            let (ev, _) = d.handle_line(line);
            assert!(!ev[0].compact().contains("error"), "{line}: {ev:?}");
        }
        let before = stats(&mut d);
        let (ev, flow) = d.handle_line(submit);
        assert_eq!(flow, Flow::Continue);
        assert_eq!(ev.len(), 1, "{submit}: {ev:?}");
        let text = ev[0].compact();
        assert!(
            text.contains("error") && text.contains("cannot complete"),
            "{text}"
        );
        assert_eq!(stats(&mut d), before, "{submit}");
        let (ev, _) = d.handle_line(r#"{"cmd":"drain"}"#);
        assert!(!ev.iter().any(|e| e.compact().contains("error")), "{ev:?}");
    }
}

/// A duplicated record (valid seal, repeated seq) is a typed SeqGap.
#[test]
fn duplicate_seq_is_a_typed_error() {
    let dir = tmpdir("dup");
    let mut j = Journal::create(&dir, FsyncPolicy::Never, "{}").unwrap();
    append(&mut j, "a");
    append(&mut j, "b");
    drop(j);
    let seg = dir.join("segment-0000000001.ndjson");
    let text = std::fs::read_to_string(&seg).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // header, seq1, seq1 again, seq2: the duplicate is line 3.
    std::fs::write(
        &seg,
        format!("{}\n{}\n{}\n{}\n", lines[0], lines[1], lines[1], lines[2]),
    )
    .unwrap();
    match journal::scan(&dir) {
        Err(JournalError::SeqGap { expected, got, .. }) => assert_eq!((expected, got), (2, 1)),
        other => panic!("expected SeqGap, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Swapped records (valid seals, out-of-order seqs) are a typed SeqGap.
#[test]
fn out_of_order_seq_is_a_typed_error() {
    let dir = tmpdir("swap");
    let mut j = Journal::create(&dir, FsyncPolicy::Never, "{}").unwrap();
    append(&mut j, "a");
    append(&mut j, "b");
    drop(j);
    let seg = dir.join("segment-0000000001.ndjson");
    let text = std::fs::read_to_string(&seg).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&seg, format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1])).unwrap();
    match journal::scan(&dir) {
        Err(JournalError::SeqGap { expected, got, .. }) => assert_eq!((expected, got), (1, 2)),
        other => panic!("expected SeqGap, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

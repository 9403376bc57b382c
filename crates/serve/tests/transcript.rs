//! End-to-end golden-transcript tests of the `dfrs-serve` binary: the
//! checked-in command scripts under `tests/golden/` are piped through
//! the real binary and stdout must match the checked-in transcripts
//! byte for byte — the same diff the CI `serve-smoke` job performs
//! with a shell pipeline. Regenerate after an intentional protocol
//! change with:
//!
//! ```text
//! DFRS_GOLDEN_REGEN=1 cargo test -p dfrs_serve --test transcript
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The fixed invocation the smoke transcript is pinned against (CI
/// uses the same flags).
const SMOKE_ARGS: &[&str] = &[
    "--spec",
    "dynmcb8-per:t=300",
    "--nodes",
    "4",
    "--cores",
    "4",
    "--mem",
    "8",
    "--penalty",
    "300",
];

/// Where the smoke script tells the daemon to write its snapshot (a
/// fixed path so the transcript bytes are reproducible everywhere).
const SNAPSHOT_PATH: &str = "/tmp/dfrs-serve-smoke.snapshot.json";

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Run the binary with `args`, piping `input` through stdin; returns
/// stdout. The daemon must exit cleanly (the scripts end in shutdown).
fn run(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dfrs-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dfrs-serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write commands");
    let out = child.wait_with_output().expect("dfrs-serve runs");
    assert!(
        out.status.success(),
        "dfrs-serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 transcript")
}

/// Compare `current` to the pinned transcript (or pin it under
/// `DFRS_GOLDEN_REGEN`), with a first-divergence line diff on drift.
fn check_or_regen(name: &str, current: &str) {
    let path = golden(name);
    if std::env::var_os("DFRS_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, current).expect("write transcript");
        eprintln!("transcript pinned at {}", path.display());
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun `DFRS_GOLDEN_REGEN=1 cargo test -p dfrs_serve \
             --test transcript` to create it",
            path.display()
        )
    });
    if pinned != current {
        let divergence = pinned
            .lines()
            .zip(current.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first divergence at line {}:\n  golden:  {}\n  current: {}",
                    i + 1,
                    pinned.lines().nth(i).unwrap_or(""),
                    current.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "one transcript is a prefix of the other ({} vs {} lines)",
                    pinned.lines().count(),
                    current.lines().count()
                )
            });
        panic!(
            "transcript drift against {name}; {divergence}\n\
             if intentional, regenerate with DFRS_GOLDEN_REGEN=1 \
             cargo test -p dfrs_serve --test transcript"
        );
    }
}

#[test]
fn smoke_and_resume_transcripts_match_golden() {
    // Part 1: fresh daemon; writes the snapshot the resume half needs,
    // so both halves run inside this one test (order-independent).
    let commands = std::fs::read_to_string(golden("smoke.commands")).expect("smoke.commands");
    let transcript = run(SMOKE_ARGS, &commands);
    check_or_regen("smoke.transcript", &transcript);
    assert!(
        std::fs::metadata(SNAPSHOT_PATH).is_ok(),
        "smoke script should have written {SNAPSHOT_PATH}"
    );

    // Part 2: resume from that snapshot and replay the second script.
    let commands = std::fs::read_to_string(golden("resume.commands")).expect("resume.commands");
    let transcript = run(&["--restore", SNAPSHOT_PATH], &commands);
    check_or_regen("resume.transcript", &transcript);
}

#[test]
fn a_parent_format_snapshot_resumes_byte_identically() {
    // `smoke-v1-parent.snapshot.json` is the smoke script's snapshot as
    // written while `dfrs-snapshot-v1` still carried the per-node
    // `cluster.node_epoch` array. Today's reader ignores that field.
    // The document's quiescent state is no longer the one the smoke
    // script reaches: it was written while a repack still migrated job
    // 0 at t = 600 (`now` 1200; today 900), so its replay has its own
    // pinned transcript.
    let snapshot = golden("smoke-v1-parent.snapshot.json");
    let doc = std::fs::read_to_string(&snapshot).expect("parent snapshot");
    assert!(
        doc.contains("\"node_epoch\""),
        "the pin carries the old field"
    );
    let commands = std::fs::read_to_string(golden("resume.commands")).expect("resume.commands");
    let transcript = run(&["--restore", snapshot.to_str().unwrap()], &commands);
    check_or_regen("resume-parent.transcript", &transcript);
}

/// Where the journal smoke scripts keep their write-ahead log and
/// snapshot (fixed paths: the `ready` event echoes the journal dir, so
/// it is part of the pinned bytes).
const JOURNAL_DIR: &str = "/tmp/dfrs-serve-journal-golden";
const JOURNAL_SNAPSHOT: &str = "/tmp/dfrs-serve-journal.snapshot.json";

/// Like [`run`], but the daemon must die on a seeded chaos abort.
fn run_aborts(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dfrs-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dfrs-serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write commands");
    let out = child.wait_with_output().expect("dfrs-serve runs");
    assert!(
        !out.status.success(),
        "the seeded crash point should have aborted the daemon"
    );
    String::from_utf8(out.stdout).expect("utf-8 transcript")
}

#[test]
fn journaled_crash_and_recovery_transcripts_match_golden() {
    // Part 1: journaled daemon with a seeded post-append crash — the
    // 6th journaled command is made durable, then the process aborts
    // (kill -9 semantics) before applying or acknowledging it.
    let _ = std::fs::remove_dir_all(JOURNAL_DIR);
    let commands = std::fs::read_to_string(golden("journal.commands")).expect("journal.commands");
    let args: Vec<&str> = SMOKE_ARGS
        .iter()
        .copied()
        .chain([
            "--journal",
            JOURNAL_DIR,
            "--fsync",
            "interval:2",
            "--chaos",
            "post-append:6",
        ])
        .collect();
    let transcript = run_aborts(&args, &commands);
    check_or_regen("journal.transcript", &transcript);
    assert!(
        std::fs::metadata(JOURNAL_SNAPSHOT).is_ok(),
        "journal script should have written {JOURNAL_SNAPSHOT}"
    );

    // Part 2: recover from the journal (newest snapshot + replay of the
    // unacknowledged suffix) and finish the workload.
    let commands = std::fs::read_to_string(golden("journal-resume.commands"))
        .expect("journal-resume.commands");
    let transcript = run(&["--restore", "--journal", JOURNAL_DIR], &commands);
    check_or_regen("journal-resume.transcript", &transcript);
}

#[test]
fn transcripts_are_run_to_run_deterministic() {
    let commands = std::fs::read_to_string(golden("smoke.commands")).expect("smoke.commands");
    let a = run(SMOKE_ARGS, &commands);
    let b = run(SMOKE_ARGS, &commands);
    assert_eq!(a, b, "same commands, same bytes");
}

#[test]
fn bad_flags_fail_fast_with_usage_hint() {
    let out = Command::new(env!("CARGO_BIN_EXE_dfrs-serve"))
        .arg("--warp-factor")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--help"));

    let out = Command::new(env!("CARGO_BIN_EXE_dfrs-serve"))
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "--spec or --restore is required");
}

#[test]
fn non_finite_or_negative_penalty_is_rejected() {
    for bad in ["inf", "-inf", "nan", "-300"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dfrs-serve"))
            .args(["--spec", "dynmcb8-per:t=300", "--penalty", bad])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--penalty {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--penalty must be finite"),
            "{bad}: {stderr}"
        );
    }
}

//! Write-ahead command journal for the `dfrs-serve` daemon.
//!
//! Every state-mutating command line (`submit`, `node-down`, `node-up`,
//! `advance`, `drain`) is appended here — sealed with a monotonic
//! sequence number and a CRC-32 — *before* it is applied to the
//! session, so a crash at any point loses at most commands the client
//! was never acknowledged for. Because the simulation runs on sim time,
//! replaying the journaled lines through the ordinary command loop
//! reproduces the pre-crash state bit for bit; there is no wall-clock
//! smear to approximate.
//!
//! ## On-disk layout
//!
//! A journal is a directory:
//!
//! ```text
//! snapshot-0000000000.json     # state covering seq ≤ 0 (the initial state)
//! segment-0000000001.ndjson    # commands seq 1..=c1
//! snapshot-0000000042.json     # state covering seq ≤ 42 (= c1)
//! segment-0000000043.ndjson    # commands seq 43..
//! ```
//!
//! Segments rotate at snapshots: a `snapshot` command writes the
//! quiescent `dfrs-snapshot-v1` document (atomically: temp file, fsync,
//! rename) named by the last sequence number it covers, then starts a
//! fresh segment. Recovery loads the newest snapshot and replays only
//! the segments after it; older segments and snapshots are dead weight
//! an operator may archive or delete.
//!
//! Each segment line is a sealed JSON object: the record without its
//! `crc` field is serialized compactly (keys sorted — the canonical
//! form), CRC-32'd, and the checksum stored alongside. Line 1 is a
//! header (`{"base":…,"v":"dfrs-journal-v1"}` sealed); every further
//! line is `{"line":"<raw command>","seq":N}` sealed. A final record
//! that fails verification — a *torn* append cut short by a crash — is
//! dropped and truncated on recovery; a bad record anywhere else is
//! corruption and a hard, typed error.
//!
//! ## fsync policy
//!
//! Records are always flushed to the OS before they are acknowledged (a
//! killed *process* loses nothing acknowledged); [`FsyncPolicy`]
//! controls how often `fdatasync` is issued for power-loss durability:
//! `always` (every acknowledged record, the default), `interval:N`
//! (every N records), or `never` (leave it to the OS).
//!
//! ## Group commit
//!
//! Appends are physically written by a dedicated writer thread. Callers
//! enqueue sealed records with [`Journal::append_async`] (which assigns
//! the sequence number immediately) and block on
//! [`Journal::wait_durable`]; the writer drains whatever has queued
//! since its last pass and commits the whole run with **one**
//! `write_all` and at most one `fdatasync`. Under a batching client
//! (see `Daemon::handle_batch`) an `always` journal therefore pays one
//! sync per *batch* instead of one per command, while the durability
//! contract is unchanged: a command is applied and acknowledged only
//! after its record — and, since the writer preserves append order,
//! every earlier record — is on disk. A lone command is simply a batch
//! of one.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use dfrs_core::checksum::crc32_hex;
use dfrs_core::json::{self, obj, Value};

/// Journal format identifier carried in every segment header.
pub const JOURNAL_SCHEMA: &str = "dfrs-journal-v1";

/// How often appended records are `fdatasync`'d.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record: a crash (even power loss) loses nothing
    /// that was acknowledged. The default.
    #[default]
    Always,
    /// Sync every N records: bounded loss window, amortized cost.
    Interval(u64),
    /// Never sync explicitly; flush to the OS only. Survives process
    /// death, not power loss.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match s.strip_prefix("interval:").map(str::parse::<u64>) {
                Some(Ok(n)) if n > 0 => Ok(FsyncPolicy::Interval(n)),
                _ => Err(format!(
                    "bad fsync policy {s:?} (expected always, never, or interval:N)"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Why a journal operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// The operation ("append", "rotate", "scan", …).
        op: String,
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// A record failed checksum or structural verification somewhere a
    /// torn tail cannot explain.
    Corrupt {
        /// The offending file.
        path: String,
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        detail: String,
    },
    /// Sequence numbers were not dense and monotonic (duplicate,
    /// out-of-order, or skipped).
    SeqGap {
        /// The offending file.
        path: String,
        /// The expected next sequence number.
        expected: u64,
        /// The sequence number found.
        got: u64,
    },
    /// The directory holds no journal (nothing to recover).
    NoJournal {
        /// The directory scanned.
        dir: String,
    },
    /// The directory already holds a journal (refusing to overwrite).
    NotEmpty {
        /// The directory.
        dir: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, detail } => {
                write!(f, "journal {op} on {path}: {detail}")
            }
            JournalError::Corrupt { path, line, detail } => {
                write!(f, "journal corrupt at {path}:{line}: {detail}")
            }
            JournalError::SeqGap {
                path,
                expected,
                got,
            } => {
                write!(
                    f,
                    "journal sequence gap in {path}: expected seq {expected}, found {got}"
                )
            }
            JournalError::NoJournal { dir } => {
                write!(f, "no journal found in {dir}")
            }
            JournalError::NotEmpty { dir } => {
                write!(
                    f,
                    "journal directory {dir} is not empty; pass --restore to recover from it"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Seal `pairs` into a record: CRC-32 the canonical (compact,
/// key-sorted) form of the object without its `crc` field, then attach
/// the checksum.
fn seal(pairs: Vec<(String, Value)>) -> Value {
    let body = obj(pairs.clone()).compact();
    let mut sealed = pairs;
    sealed.push(("crc".into(), Value::Str(crc32_hex(body.as_bytes()))));
    obj(sealed)
}

/// Verify a sealed record line; returns the object minus its `crc`.
fn verify(line: &str) -> Result<Value, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable record: {e}"))?;
    let Value::Obj(mut m) = v else {
        return Err("record is not an object".into());
    };
    let Some(Value::Str(crc)) = m.remove("crc") else {
        return Err("record has no crc".into());
    };
    let body = Value::Obj(m).compact();
    let want = crc32_hex(body.as_bytes());
    if crc != want {
        return Err(format!(
            "checksum mismatch (recorded {crc}, computed {want})"
        ));
    }
    json::parse(&body).map_err(|e| format!("reparse: {e}"))
}

fn seg_name(base: u64) -> String {
    format!("segment-{base:010}.ndjson")
}

fn snap_name(covered: u64) -> String {
    format!("snapshot-{covered:010}.json")
}

/// Parse `"prefix-NNNNNNNNNN.suffix"` back to N.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> JournalError {
    JournalError::Io {
        op: op.into(),
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Write `text` to `path` atomically: temp file, fsync, rename. A crash
/// mid-write leaves only a `.tmp` file, which scans ignore.
fn write_atomic(path: &Path, text: &str) -> Result<(), JournalError> {
    let tmp = path.with_extension("json.tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(text.as_bytes())
        .map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))?;
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok(())
}

/// Best-effort directory fsync so renames and creations are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A torn final record found (and truncated away) during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// The segment holding the torn bytes.
    pub path: String,
    /// Byte offset the file is truncated to.
    pub keep_bytes: u64,
    /// The dropped byte count.
    pub dropped: u64,
}

/// Everything a [`scan`] recovers from a journal directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// Text of the newest valid snapshot.
    pub snapshot: String,
    /// The sequence number that snapshot covers through.
    pub covered: u64,
    /// Raw command lines after the snapshot, in sequence order.
    pub lines: Vec<String>,
    /// The last sequence number present (`covered` when no suffix).
    pub last_seq: u64,
    /// The torn final record, when one was found.
    pub torn: Option<TornTail>,
}

/// Read a journal directory: find the newest snapshot, verify and
/// collect the command suffix after it, and tolerate (exactly) a torn
/// final record. Pure read — call [`Journal::resume`] afterwards to
/// truncate the torn tail and reopen for appends.
///
/// # Errors
/// [`JournalError::NoJournal`] when the directory holds no journal;
/// [`JournalError::Corrupt`] / [`JournalError::SeqGap`] on damage a
/// torn tail cannot explain; [`JournalError::Io`] on filesystem
/// failures.
pub fn scan(dir: &Path) -> Result<Recovered, JournalError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("scan", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("scan", dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(base) = parse_numbered(&name, "segment-", ".ndjson") {
            segments.push((base, entry.path()));
        } else if let Some(covered) = parse_numbered(&name, "snapshot-", ".json") {
            snapshots.push((covered, entry.path()));
        }
        // Anything else — .tmp leftovers of interrupted atomic writes,
        // stray files — is ignored.
    }
    if snapshots.is_empty() && segments.is_empty() {
        return Err(JournalError::NoJournal {
            dir: dir.display().to_string(),
        });
    }
    let (covered, snap_path) = snapshots
        .into_iter()
        .max_by_key(|(c, _)| *c)
        .ok_or_else(|| JournalError::Corrupt {
            path: dir.display().to_string(),
            line: 0,
            detail: "segments present but no snapshot (journals always start with one)".into(),
        })?;
    let snapshot = fs::read_to_string(&snap_path).map_err(|e| io_err("read", &snap_path, e))?;

    segments.sort_unstable();
    segments.retain(|(base, _)| *base > covered);
    let mut lines = Vec::new();
    let mut expected = covered + 1;
    let mut torn = None;
    let n_segs = segments.len();
    for (si, (base, path)) in segments.into_iter().enumerate() {
        if base != expected {
            return Err(JournalError::SeqGap {
                path: path.display().to_string(),
                expected,
                got: base,
            });
        }
        let last_segment = si + 1 == n_segs;
        let data = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let mut offset = 0usize;
        let mut line_no = 0u64;
        while offset < data.len() {
            let nl = data[offset..].iter().position(|&b| b == b'\n');
            let (end, complete) = match nl {
                Some(p) => (offset + p, true),
                None => (data.len(), false),
            };
            line_no += 1;
            let line_bytes = &data[offset..end];
            // A record is torn when it is the final line of the final
            // segment AND is either newline-less or fails verification.
            let fail = |detail: String| -> Result<Option<TornTail>, JournalError> {
                let at_tail = last_segment && (end >= data.len() || end + 1 >= data.len());
                if at_tail {
                    Ok(Some(TornTail {
                        path: path.display().to_string(),
                        keep_bytes: offset as u64,
                        dropped: (data.len() - offset) as u64,
                    }))
                } else {
                    Err(JournalError::Corrupt {
                        path: path.display().to_string(),
                        line: line_no,
                        detail,
                    })
                }
            };
            let text = match std::str::from_utf8(line_bytes) {
                Ok(t) => t,
                Err(_) => {
                    torn = fail("record is not UTF-8".into())?;
                    break;
                }
            };
            if !complete {
                torn = fail("record has no trailing newline".into())?;
                break;
            }
            let body = match verify(text) {
                Ok(b) => b,
                Err(detail) => {
                    torn = fail(detail)?;
                    break;
                }
            };
            if line_no == 1 {
                // Segment header: schema + base must match.
                let v = body.get("v").and_then(Value::as_str);
                let hb = body.get("base").and_then(Value::as_f64);
                if v != Some(JOURNAL_SCHEMA) || hb != Some(base as f64) {
                    return Err(JournalError::Corrupt {
                        path: path.display().to_string(),
                        line: 1,
                        detail: format!("bad segment header (schema {v:?}, base {hb:?})"),
                    });
                }
            } else {
                let seq = body.get("seq").and_then(Value::as_f64).map(|n| n as u64);
                let raw = body.get("line").and_then(Value::as_str);
                match (seq, raw) {
                    (Some(seq), Some(raw)) => {
                        if seq != expected {
                            return Err(JournalError::SeqGap {
                                path: path.display().to_string(),
                                expected,
                                got: seq,
                            });
                        }
                        expected += 1;
                        lines.push(raw.to_string());
                    }
                    _ => {
                        torn = fail("record lacks seq/line fields".into())?;
                        break;
                    }
                }
            }
            offset = end + 1;
        }
        if torn.is_some() {
            break;
        }
    }
    Ok(Recovered {
        snapshot,
        covered,
        last_seq: expected - 1,
        lines,
        torn,
    })
}

/// State shared between a [`Journal`] handle and its writer thread.
struct WriterShared {
    state: Mutex<WriterState>,
    /// Signaled when records queue up or a stop is requested.
    work: Condvar,
    /// Signaled when the ack watermark advances or an error lands.
    done: Condvar,
}

struct WriterState {
    /// Sealed record bytes (trailing newline included), append order.
    queue: Vec<(u64, Vec<u8>)>,
    /// Highest sequence number written (and synced per policy).
    acked: u64,
    /// Records written since the last `fdatasync` (`Interval` policy);
    /// owned by the writer while it runs, read back across restarts.
    unsynced: u64,
    /// The first write failure. Sticky: the journal is dead afterwards
    /// and every queued or future command fails with this error.
    error: Option<JournalError>,
    stop: bool,
}

fn lock(m: &Mutex<WriterState>) -> std::sync::MutexGuard<'_, WriterState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The group-commit loop: drain everything queued since the last pass,
/// commit it with one `write_all` (and at most one `fdatasync`), move
/// the ack watermark, repeat. Returns the segment file on shutdown so
/// rotation and torn-append injection can reuse it.
fn run_writer(
    mut file: File,
    seg_path: PathBuf,
    policy: FsyncPolicy,
    shared: Arc<WriterShared>,
) -> File {
    let mut unsynced = lock(&shared.state).unsynced;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let batch = {
            let mut st = lock(&shared.state);
            while st.queue.is_empty() && !st.stop {
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.queue.is_empty() {
                st.unsynced = unsynced;
                return file;
            }
            if st.error.is_some() {
                // The journal is already dead; the queued commands will
                // never be applied. Drop them and wake their waiters.
                st.queue.clear();
                shared.done.notify_all();
                continue;
            }
            std::mem::take(&mut st.queue)
        };
        let last = batch.last().expect("drained batch is non-empty").0;
        buf.clear();
        for (_, rec) in &batch {
            buf.extend_from_slice(rec);
        }
        let mut res = file
            .write_all(&buf)
            .map_err(|e| io_err("append", &seg_path, e));
        if res.is_ok() {
            res = match policy {
                FsyncPolicy::Always => file.sync_data().map_err(|e| io_err("sync", &seg_path, e)),
                FsyncPolicy::Interval(n) => {
                    unsynced += batch.len() as u64;
                    if unsynced >= n {
                        unsynced = 0;
                        file.sync_data().map_err(|e| io_err("sync", &seg_path, e))
                    } else {
                        Ok(())
                    }
                }
                FsyncPolicy::Never => Ok(()),
            };
        }
        let mut st = lock(&shared.state);
        match res {
            Ok(()) => st.acked = last,
            Err(e) => st.error = Some(e),
        }
        shared.done.notify_all();
    }
}

/// An open, appendable journal.
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// The writer thread owning the live segment file. `None` only
    /// after a failed stop (the journal is then dead; see `fail`).
    writer: Option<(Arc<WriterShared>, JoinHandle<File>)>,
    seg_path: PathBuf,
    seg_base: u64,
    next_seq: u64,
    /// `Interval` carry between writer restarts.
    unsynced: u64,
    /// The sticky first failure; everything after it returns this.
    fail: Option<JournalError>,
}

impl Journal {
    /// Create a fresh journal in `dir` (created if missing), anchored
    /// at `initial_snapshot` — the daemon's state before any journaled
    /// command, written as `snapshot-0000000000.json`. Refuses a
    /// directory that already holds journal files.
    ///
    /// # Errors
    /// [`JournalError::NotEmpty`] when `dir` already holds a journal;
    /// [`JournalError::Io`] on filesystem failures.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        initial_snapshot: &str,
    ) -> Result<Journal, JournalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
        match scan(dir) {
            Err(JournalError::NoJournal { .. }) => {}
            _ => {
                return Err(JournalError::NotEmpty {
                    dir: dir.display().to_string(),
                })
            }
        }
        write_atomic(&dir.join(snap_name(0)), initial_snapshot)?;
        let (file, seg_path) = Self::open_segment(dir, 1)?;
        let mut j = Journal {
            dir: dir.to_path_buf(),
            policy,
            writer: None,
            seg_path,
            seg_base: 1,
            next_seq: 1,
            unsynced: 0,
            fail: None,
        };
        j.start_writer(file)?;
        Ok(j)
    }

    /// Reopen the journal `scan` described, truncating the torn tail
    /// (if any) and positioning appends after the last valid record.
    ///
    /// # Errors
    /// [`JournalError::Io`] on filesystem failures.
    pub fn resume(
        dir: &Path,
        policy: FsyncPolicy,
        recovered: &Recovered,
    ) -> Result<Journal, JournalError> {
        if let Some(torn) = &recovered.torn {
            let path = Path::new(&torn.path);
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("truncate", path, e))?;
            f.set_len(torn.keep_bytes)
                .map_err(|e| io_err("truncate", path, e))?;
            f.sync_all().map_err(|e| io_err("sync", path, e))?;
        }
        let next_seq = recovered.last_seq + 1;
        // The live segment is the one after the newest snapshot —
        // unless the crash hit between snapshot rename and segment
        // creation, in which case it does not exist yet and is created
        // here, completing the interrupted rotation.
        let seg_base = recovered.covered + 1;
        let seg_path = dir.join(seg_name(seg_base));
        let (file, seg_path) = if seg_path.exists() {
            let mut f = OpenOptions::new()
                .append(true)
                .open(&seg_path)
                .map_err(|e| io_err("append", &seg_path, e))?;
            let len = f
                .metadata()
                .map_err(|e| io_err("append", &seg_path, e))?
                .len();
            if len == 0 {
                // The crash tore the segment header itself (truncated
                // to nothing above): rewrite it.
                let header = seal(vec![
                    ("base".into(), Value::Num(seg_base as f64)),
                    ("v".into(), Value::Str(JOURNAL_SCHEMA.into())),
                ]);
                writeln!(f, "{}", header.compact()).map_err(|e| io_err("write", &seg_path, e))?;
                f.sync_all().map_err(|e| io_err("sync", &seg_path, e))?;
            }
            (f, seg_path)
        } else {
            Self::open_segment(dir, seg_base)?
        };
        let mut j = Journal {
            dir: dir.to_path_buf(),
            policy,
            writer: None,
            seg_path,
            seg_base,
            next_seq,
            unsynced: 0,
            fail: None,
        };
        j.start_writer(file)?;
        Ok(j)
    }

    /// Create `segment-{base}` with its sealed header, synced.
    fn open_segment(dir: &Path, base: u64) -> Result<(File, PathBuf), JournalError> {
        let path = dir.join(seg_name(base));
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        let header = seal(vec![
            ("base".into(), Value::Num(base as f64)),
            ("v".into(), Value::Str(JOURNAL_SCHEMA.into())),
        ]);
        writeln!(f, "{}", header.compact()).map_err(|e| io_err("write", &path, e))?;
        f.sync_all().map_err(|e| io_err("sync", &path, e))?;
        sync_dir(dir);
        Ok((f, path))
    }

    /// The last sequence number appended (0 before the first append).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Spawn the group-commit writer thread around `file`.
    fn start_writer(&mut self, file: File) -> Result<(), JournalError> {
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                queue: Vec::new(),
                // Everything enqueued so far was drained by the stop
                // that preceded this start (or nothing was, at open).
                acked: self.next_seq - 1,
                unsynced: self.unsynced,
                error: None,
                stop: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let seg_path = self.seg_path.clone();
        let policy = self.policy;
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dfrs-journal-writer".into())
            .spawn(move || run_writer(file, seg_path, policy, thread_shared))
            .map_err(|e| io_err("spawn", &self.seg_path, e))?;
        self.writer = Some((shared, handle));
        Ok(())
    }

    /// Drain the queue, join the writer, and take back the segment
    /// file. Any write failure the writer hit becomes the sticky
    /// journal error.
    fn stop_writer(&mut self) -> Result<File, JournalError> {
        if let Some(e) = &self.fail {
            return Err(e.clone());
        }
        let (shared, handle) = self.writer.take().expect("journal has a live writer");
        {
            let mut st = lock(&shared.state);
            st.stop = true;
            shared.work.notify_all();
        }
        let file = handle.join().map_err(|_| JournalError::Io {
            op: "writer".into(),
            path: self.seg_path.display().to_string(),
            detail: "journal writer thread panicked".into(),
        })?;
        let st = lock(&shared.state);
        self.unsynced = st.unsynced;
        if let Some(e) = &st.error {
            self.fail = Some(e.clone());
            return Err(e.clone());
        }
        Ok(file)
    }

    /// Enqueue one raw command line for the group-commit writer and
    /// return the sequence number it was sealed with. The record is
    /// **not** yet durable — pair with [`Journal::wait_durable`] before
    /// applying or acknowledging the command.
    ///
    /// # Errors
    /// The sticky journal error, once any write has failed; nothing is
    /// enqueued and no sequence number is consumed.
    pub fn append_async(&mut self, raw: &str) -> Result<u64, JournalError> {
        if let Some(e) = &self.fail {
            return Err(e.clone());
        }
        let seq = self.next_seq;
        let rec = seal(vec![
            ("line".into(), Value::Str(raw.into())),
            ("seq".into(), Value::Num(seq as f64)),
        ]);
        let mut bytes = rec.compact().into_bytes();
        bytes.push(b'\n');
        let (shared, _) = self.writer.as_ref().expect("journal has a live writer");
        {
            let mut st = lock(&shared.state);
            if let Some(e) = &st.error {
                let e = e.clone();
                self.fail = Some(e.clone());
                return Err(e);
            }
            st.queue.push((seq, bytes));
            shared.work.notify_one();
        }
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Block until the record carrying `seq` (and, by append order,
    /// every earlier record) is written and synced per the
    /// [`FsyncPolicy`].
    ///
    /// # Errors
    /// The write failure, when the writer could not commit the record —
    /// the command must then NOT be applied (write-ahead discipline).
    pub fn wait_durable(&mut self, seq: u64) -> Result<(), JournalError> {
        if let Some(e) = &self.fail {
            return Err(e.clone());
        }
        let (shared, _) = self.writer.as_ref().expect("journal has a live writer");
        let mut st = lock(&shared.state);
        while st.acked < seq && st.error.is_none() {
            st = shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(e) = &st.error {
            let e = e.clone();
            drop(st);
            self.fail = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Chaos hook: write only the first `keep` bytes of what
    /// [`Journal::append_async`] would have enqueued (newline included in the
    /// count), synced — a torn append, as a crash mid-write leaves it.
    /// The sequence number is *not* consumed; the process is expected
    /// to die immediately after.
    pub fn append_torn(&mut self, raw: &str, keep: usize) -> Result<(), JournalError> {
        let mut file = self.stop_writer()?;
        let res = (|| {
            let rec = seal(vec![
                ("line".into(), Value::Str(raw.into())),
                ("seq".into(), Value::Num(self.next_seq as f64)),
            ]);
            let mut bytes = rec.compact().into_bytes();
            bytes.push(b'\n');
            let keep = keep.min(bytes.len().saturating_sub(1)).max(1);
            file.write_all(&bytes[..keep])
                .map_err(|e| io_err("append", &self.seg_path, e))?;
            file.sync_data()
                .map_err(|e| io_err("sync", &self.seg_path, e))
        })();
        self.start_writer(file)?;
        res
    }

    /// Record a snapshot covering every appended command and rotate to
    /// a fresh segment. Returns the covered sequence number. When
    /// nothing was appended since the last rotation the snapshot file
    /// is rewritten in place and the segment is kept.
    ///
    /// # Errors
    /// [`JournalError::Io`] on filesystem failures.
    pub fn mark_snapshot(&mut self, snapshot_text: &str) -> Result<u64, JournalError> {
        let covered = self.last_seq();
        // Stopping the writer drains every queued append, so the
        // snapshot really does cover `covered`.
        let mut file = self.stop_writer()?;
        let res = (|| {
            write_atomic(&self.dir.join(snap_name(covered)), snapshot_text)?;
            if self.next_seq > self.seg_base {
                file.sync_data()
                    .map_err(|e| io_err("sync", &self.seg_path, e))?;
                let (rotated, seg_path) = Self::open_segment(&self.dir, self.next_seq)?;
                file = rotated;
                self.seg_path = seg_path;
                self.seg_base = self.next_seq;
                self.unsynced = 0;
            }
            Ok(())
        })();
        self.start_writer(file)?;
        res.map(|()| covered)
    }

    /// Chaos hook: leave a half-written snapshot temp file (never
    /// renamed into place), as a crash mid-snapshot would. Recovery
    /// must ignore it.
    pub fn torn_snapshot(&self, snapshot_text: &str, keep: usize) -> Result<(), JournalError> {
        let tmp = self
            .dir
            .join(snap_name(self.last_seq()))
            .with_extension("json.tmp");
        let keep = keep.min(snapshot_text.len());
        fs::write(&tmp, &snapshot_text.as_bytes()[..keep]).map_err(|e| io_err("write", &tmp, e))
    }
}

impl Drop for Journal {
    /// Drain and join the writer so a cleanly dropped journal leaves
    /// every enqueued record on disk (an aborted *process* still loses
    /// only unacknowledged commands — that is the contract).
    fn drop(&mut self) {
        if self.writer.is_some() {
            let _ = self.stop_writer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-side unwraps assume a writable temp dir — an environment
    // invariant, not a code path under test.
    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dfrs-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A group commit of one: enqueue, then wait until durable.
    fn append(j: &mut Journal, raw: &str) -> u64 {
        let seq = j.append_async(raw).unwrap();
        j.wait_durable(seq).unwrap();
        seq
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse(), Ok(FsyncPolicy::Never));
        assert_eq!("interval:8".parse(), Ok(FsyncPolicy::Interval(8)));
        for bad in ["", "sometimes", "interval:0", "interval:x", "interval:"] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "{bad:?}");
        }
        assert_eq!(FsyncPolicy::Interval(8).to_string(), "interval:8");
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut j = Journal::create(&dir, FsyncPolicy::Always, "{\"fake\":1}").unwrap();
        assert_eq!(append(&mut j, r#"{"cmd":"drain"}"#), 1);
        assert_eq!(append(&mut j, r#"{"cmd":"advance","time":5}"#), 2);
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.covered, 0);
        assert_eq!(rec.last_seq, 2);
        assert_eq!(rec.snapshot, "{\"fake\":1}");
        assert_eq!(
            rec.lines,
            vec![
                r#"{"cmd":"drain"}"#.to_string(),
                r#"{"cmd":"advance","time":5}"#.to_string()
            ]
        );
        assert_eq!(rec.torn, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotates_and_scan_replays_only_the_suffix() {
        let dir = tmpdir("rotate");
        let mut j = Journal::create(&dir, FsyncPolicy::Interval(4), "s0").unwrap();
        append(&mut j, "a");
        append(&mut j, "b");
        assert_eq!(j.mark_snapshot("s2").unwrap(), 2);
        append(&mut j, "c");
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.covered, 2);
        assert_eq!(rec.snapshot, "s2");
        assert_eq!(rec.lines, vec!["c".to_string()]);
        assert_eq!(rec.last_seq, 3);
        // Files on disk: two snapshots, two segments.
        assert!(dir.join("snapshot-0000000000.json").exists());
        assert!(dir.join("snapshot-0000000002.json").exists());
        assert!(dir.join("segment-0000000001.ndjson").exists());
        assert!(dir.join("segment-0000000003.ndjson").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = tmpdir("torn");
        let mut j = Journal::create(&dir, FsyncPolicy::Always, "s0").unwrap();
        append(&mut j, "a");
        j.append_torn("b", 9).unwrap();
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.lines, vec!["a".to_string()]);
        assert_eq!(rec.last_seq, 1);
        let torn = rec.torn.clone().expect("torn tail detected");
        assert!(torn.dropped > 0);
        // Resume truncates; a second scan is clean and appends go on.
        let mut j = Journal::resume(&dir, FsyncPolicy::Always, &rec).unwrap();
        assert_eq!(append(&mut j, "b2"), 2);
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.torn, None);
        assert_eq!(rec.lines, vec!["a".to_string(), "b2".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_the_tail_is_a_hard_error() {
        let dir = tmpdir("corrupt");
        let mut j = Journal::create(&dir, FsyncPolicy::Always, "s0").unwrap();
        append(&mut j, "a");
        append(&mut j, "b");
        let seg = dir.join(seg_name(1));
        let mut data = fs::read(&seg).unwrap();
        // Flip a byte in the middle record (line 2 of 3).
        let first_nl = data.iter().position(|&b| b == b'\n').unwrap();
        data[first_nl + 10] ^= 0x20;
        fs::write(&seg, &data).unwrap();
        match scan(&dir) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gaps_are_typed_errors() {
        let dir = tmpdir("seqgap");
        let mut j = Journal::create(&dir, FsyncPolicy::Always, "s0").unwrap();
        append(&mut j, "a");
        append(&mut j, "b");
        append(&mut j, "c");
        let seg = dir.join(seg_name(1));
        let text = fs::read_to_string(&seg).unwrap();
        // Drop the middle record: a validly-sealed but skipped seq.
        let lines: Vec<&str> = text.lines().collect();
        fs::write(&seg, format!("{}\n{}\n{}\n", lines[0], lines[1], lines[3])).unwrap();
        match scan(&dir) {
            Err(JournalError::SeqGap { expected, got, .. }) => {
                assert_eq!((expected, got), (2, 3));
            }
            other => panic!("expected SeqGap, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_files_are_ignored_and_create_refuses_nonempty() {
        let dir = tmpdir("tmpfiles");
        let mut j = Journal::create(&dir, FsyncPolicy::Never, "s0").unwrap();
        append(&mut j, "a");
        j.torn_snapshot("half a snapsh", 7).unwrap();
        let rec = scan(&dir).unwrap();
        assert_eq!(rec.covered, 0, "torn snapshot tmp must not be chosen");
        assert_eq!(rec.lines, vec!["a".to_string()]);
        assert!(matches!(
            Journal::create(&dir, FsyncPolicy::Never, "s0"),
            Err(JournalError::NotEmpty { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_scans_as_no_journal() {
        let dir = tmpdir("empty");
        assert!(matches!(scan(&dir), Err(JournalError::NoJournal { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}

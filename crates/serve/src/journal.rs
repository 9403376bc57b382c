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
//! [`Journal::append_async`] seals a record straight into an in-memory
//! pending buffer and assigns its sequence number; it makes no syscall.
//! [`Journal::wait_durable`] commits everything pending on the caller's
//! thread with **one** `write_all` and at most one `fdatasync`. Under a
//! batching client (see `Daemon::handle_batch`), which appends a run of
//! commands and then waits once, an `always` journal pays one sync per
//! *batch* instead of one per command, while the durability contract is
//! unchanged: a command is applied and acknowledged only after its
//! record — and, since the buffer keeps append order, every earlier
//! record — is on disk. Dropping a journal commits what is pending; a
//! killed process loses it, and with it only commands it never
//! acknowledged. A lone command is simply a batch of one.

use std::fmt;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

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
/// the checksum. Used for segment headers; command records take the
/// byte path, [`seal_record`].
fn seal(pairs: Vec<(String, Value)>) -> Value {
    let body = obj(pairs.clone()).compact();
    let mut sealed = pairs;
    sealed.push(("crc".into(), Value::Str(crc32_hex(body.as_bytes()))));
    obj(sealed)
}

/// The sealed header line (newline included) that opens segment `base`.
fn segment_header(base: u64) -> String {
    let header = seal(vec![
        ("base".into(), Value::Num(base as f64)),
        ("v".into(), Value::Str(JOURNAL_SCHEMA.into())),
    ]);
    header.compact() + "\n"
}

/// Append the sealed record line for command `raw` at `seq` to `out`,
/// newline included: the bytes `seal` would render for
/// `{"line":raw,"seq":seq}`, without building a `Value`. The canonical
/// body is written first, CRC'd in place, and the `crc` field (the
/// first key in sorted order) is spliced in after its opening brace.
/// Byte-identical to the `Value` path for every `seq` below 2^53.
fn seal_record(out: &mut String, raw: &str, seq: u64) {
    let start = out.len();
    out.push_str("{\"line\":");
    json::write_string(out, raw);
    let _ = write!(out, ",\"seq\":{seq}}}");
    let crc = crc32_hex(&out.as_bytes()[start..]);
    out.insert_str(start + 1, "\"crc\":\"\",");
    // After `{"crc":"`, between the two quotes.
    out.insert_str(start + 8, &crc);
    out.push('\n');
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
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), JournalError> {
    let tmp = path.with_extension("json.tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(text.as_bytes())
        .map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))?;
    sync_dir(parent_dir(path));
    Ok(())
}

/// The directory holding `path`: a bare file name's parent is the
/// empty path, which names no directory, so it maps to `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
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

/// An open, appendable journal. Appends and commits run on the
/// caller's thread.
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// The live segment, open for appends.
    file: File,
    seg_path: PathBuf,
    seg_base: u64,
    next_seq: u64,
    /// Sealed records appended since the last commit, in append order,
    /// newlines included.
    pending: String,
    /// Highest sequence number written (and synced per policy).
    acked: u64,
    /// Records written since the last `fdatasync` (`Interval` policy).
    unsynced: u64,
    /// The first write failure. Sticky: the journal is dead afterwards
    /// and every append, commit and wait returns this error.
    fail: Option<JournalError>,
    /// `(write_all, fdatasync)` calls made by commits.
    #[cfg(test)]
    commit_syscalls: (u64, u64),
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
        Ok(Self::open(dir, policy, file, seg_path, 1, 0))
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
                f.write_all(segment_header(seg_base).as_bytes())
                    .map_err(|e| io_err("write", &seg_path, e))?;
                f.sync_all().map_err(|e| io_err("sync", &seg_path, e))?;
            }
            (f, seg_path)
        } else {
            Self::open_segment(dir, seg_base)?
        };
        Ok(Self::open(
            dir,
            policy,
            file,
            seg_path,
            seg_base,
            recovered.last_seq,
        ))
    }

    /// The journal appending to `file` (segment `seg_path`, based at
    /// `seg_base`) after `last_seq`, with nothing pending.
    fn open(
        dir: &Path,
        policy: FsyncPolicy,
        file: File,
        seg_path: PathBuf,
        seg_base: u64,
        last_seq: u64,
    ) -> Journal {
        Journal {
            dir: dir.to_path_buf(),
            policy,
            file,
            seg_path,
            seg_base,
            next_seq: last_seq + 1,
            pending: String::new(),
            acked: last_seq,
            unsynced: 0,
            fail: None,
            #[cfg(test)]
            commit_syscalls: (0, 0),
        }
    }

    /// Create `segment-{base}` with its sealed header, synced.
    fn open_segment(dir: &Path, base: u64) -> Result<(File, PathBuf), JournalError> {
        let path = dir.join(seg_name(base));
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        f.write_all(segment_header(base).as_bytes())
            .map_err(|e| io_err("write", &path, e))?;
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

    /// Seal one raw command line into the pending buffer and return the
    /// sequence number it was sealed with. No syscall: the record is
    /// **not** yet durable — pair with [`Journal::wait_durable`] before
    /// applying or acknowledging the command.
    ///
    /// # Errors
    /// The sticky journal error, once any write has failed; nothing is
    /// appended and no sequence number is consumed.
    pub fn append_async(&mut self, raw: &str) -> Result<u64, JournalError> {
        if let Some(e) = &self.fail {
            return Err(e.clone());
        }
        let seq = self.next_seq;
        seal_record(&mut self.pending, raw, seq);
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Make the record carrying `seq` (and, by append order, every
    /// earlier record) written and synced per the [`FsyncPolicy`]:
    /// commit everything pending, if anything is.
    ///
    /// # Errors
    /// [`JournalError::SeqGap`] when `seq` was never appended (the
    /// journal stays usable). Otherwise the sticky write failure, when
    /// the record could not be committed — the command must then NOT be
    /// applied (write-ahead discipline).
    pub fn wait_durable(&mut self, seq: u64) -> Result<(), JournalError> {
        if seq > self.last_seq() {
            return Err(JournalError::SeqGap {
                path: self.seg_path.display().to_string(),
                expected: self.last_seq() + 1,
                got: seq,
            });
        }
        self.commit()
    }

    /// The group commit: write every pending record with one
    /// `write_all`, sync per policy, and move the ack watermark. A no-op
    /// when nothing is pending; the first failure becomes sticky.
    fn commit(&mut self) -> Result<(), JournalError> {
        if let Some(e) = &self.fail {
            return Err(e.clone());
        }
        let last = self.last_seq();
        if self.acked == last {
            return Ok(());
        }
        let res = self.write_pending(last - self.acked);
        match &res {
            Ok(()) => {
                self.pending.clear();
                self.acked = last;
            }
            Err(e) => self.fail = Some(e.clone()),
        }
        res
    }

    /// The syscalls of one commit of `records` pending records.
    fn write_pending(&mut self, records: u64) -> Result<(), JournalError> {
        #[cfg(test)]
        {
            self.commit_syscalls.0 += 1;
        }
        self.file
            .write_all(self.pending.as_bytes())
            .map_err(|e| io_err("append", &self.seg_path, e))?;
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => {
                self.unsynced += records;
                self.unsynced >= n
            }
            FsyncPolicy::Never => false,
        };
        if sync {
            #[cfg(test)]
            {
                self.commit_syscalls.1 += 1;
            }
            self.unsynced = 0;
            self.file
                .sync_data()
                .map_err(|e| io_err("sync", &self.seg_path, e))?;
        }
        Ok(())
    }

    /// `(write_all, fdatasync)` calls made by commits so far.
    #[cfg(test)]
    pub(crate) fn commit_syscalls(&self) -> (u64, u64) {
        self.commit_syscalls
    }

    /// Chaos hook: commit what is pending, then write only the first
    /// `keep` bytes of the record [`Journal::append_async`] would seal
    /// next (newline included in the count), synced — a torn append, as
    /// a crash mid-write leaves it. The sequence number is *not*
    /// consumed; the process is expected to die immediately after.
    pub fn append_torn(&mut self, raw: &str, keep: usize) -> Result<(), JournalError> {
        self.commit()?;
        let mut rec = String::new();
        seal_record(&mut rec, raw, self.next_seq);
        let keep = keep.min(rec.len() - 1).max(1);
        self.file
            .write_all(&rec.as_bytes()[..keep])
            .map_err(|e| io_err("append", &self.seg_path, e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.seg_path, e))
    }

    /// Record a snapshot covering every appended command and rotate to
    /// a fresh segment. Returns the covered sequence number. When
    /// nothing was appended since the last rotation the snapshot file
    /// is rewritten in place and the segment is kept.
    ///
    /// # Errors
    /// [`JournalError::Io`] on filesystem failures.
    pub fn mark_snapshot(&mut self, snapshot_text: &str) -> Result<u64, JournalError> {
        // Committing first makes the snapshot really cover `covered`.
        self.commit()?;
        let covered = self.last_seq();
        write_atomic(&self.dir.join(snap_name(covered)), snapshot_text)?;
        if self.next_seq > self.seg_base {
            self.file
                .sync_data()
                .map_err(|e| io_err("sync", &self.seg_path, e))?;
            let (file, seg_path) = Self::open_segment(&self.dir, self.next_seq)?;
            self.file = file;
            self.seg_path = seg_path;
            self.seg_base = self.next_seq;
            self.unsynced = 0;
        }
        Ok(covered)
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
    /// Commit what is pending, so a cleanly dropped journal leaves every
    /// appended record on disk (an aborted *process* loses the pending
    /// run, which holds only unacknowledged commands — that is the
    /// contract). A failure is already sticky; there is no caller left
    /// to report it to.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn parent_dir_of_a_bare_file_name_is_the_current_directory() {
        assert_eq!(parent_dir(Path::new("snap.json")), Path::new("."));
        assert_eq!(parent_dir(Path::new("out/snap.json")), Path::new("out"));
        assert_eq!(parent_dir(Path::new("/snap.json")), Path::new("/"));
        assert!(File::open(parent_dir(Path::new("snap.json"))).is_ok());
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

    #[test]
    fn waiting_on_a_never_appended_seq_is_a_typed_error() {
        let dir = tmpdir("nowait");
        let mut j = Journal::create(&dir, FsyncPolicy::Always, "s0").unwrap();
        match j.wait_durable(1) {
            Err(JournalError::SeqGap { expected, got, .. }) => assert_eq!((expected, got), (1, 1)),
            other => panic!("expected SeqGap, got {other:?}"),
        }
        append(&mut j, "a");
        assert!(matches!(
            j.wait_durable(5),
            Err(JournalError::SeqGap {
                expected: 2,
                got: 5,
                ..
            })
        ));
        // Not sticky: the journal keeps working.
        assert_eq!(append(&mut j, "b"), 2);
        assert_eq!(scan(&dir).unwrap().lines, vec!["a", "b"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The group commit's syscall count: one `write_all` and at most one
    /// `fdatasync` per wait that finds pending records, none otherwise.
    #[test]
    fn one_write_and_at_most_one_sync_per_commit() {
        for (policy, tag) in [
            (FsyncPolicy::Always, "always"),
            (FsyncPolicy::Interval(5), "interval"),
            (FsyncPolicy::Never, "never"),
        ] {
            let dir = tmpdir(&format!("count-{tag}"));
            let mut j = Journal::create(&dir, policy, "s0").unwrap();
            let mut syncs = 0;
            for batch in 1..=6u64 {
                let mut last = 0;
                for i in 0..batch {
                    last = j.append_async(&format!("cmd {batch}.{i}")).unwrap();
                }
                assert_eq!(
                    j.commit_syscalls(),
                    (batch - 1, syncs),
                    "{policy}: appends alone"
                );
                j.wait_durable(last).unwrap();
                let (writes, now_syncs) = j.commit_syscalls();
                assert_eq!(writes, batch, "{policy}: one write per commit");
                assert!(now_syncs - syncs <= 1, "{policy}: at most one sync");
                syncs = now_syncs;
                // Nothing pending: no syscall at all.
                j.wait_durable(last).unwrap();
                assert_eq!(j.commit_syscalls(), (batch, syncs), "{policy}: idle wait");
            }
            // 21 records in batches of 1..=6: every batch syncs under
            // `always`; `interval:5` syncs once the carry reaches 5
            // (after batches 3, 5 and 6); `never` never does.
            let want = match policy {
                FsyncPolicy::Always => 6,
                FsyncPolicy::Interval(_) => 3,
                FsyncPolicy::Never => 0,
            };
            assert_eq!(syncs, want, "{policy}");
            assert_eq!(scan(&dir).unwrap().last_seq, 21);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Raw lines with what sealing must escape: quotes, backslashes,
    /// control chars and multibyte chars.
    fn raw_line() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..40).prop_map(|cs| {
            cs.into_iter()
                .map(|(kind, code)| match kind {
                    0 => ['"', '\\', '{', ':'][code as usize % 4],
                    1 => char::from_u32(code % 0x20).expect("control char"),
                    2 => char::from_u32(0x20 + code % 0x5f).expect("printable ASCII"),
                    _ => char::from_u32(code).unwrap_or('µ'),
                })
                .collect()
        })
    }

    /// The `Value` path `seal_record` replaced for command records.
    fn value_sealed(raw: &str, seq: u64) -> String {
        let rec = seal(vec![
            ("line".into(), Value::Str(raw.into())),
            ("seq".into(), Value::Num(seq as f64)),
        ]);
        rec.compact() + "\n"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn byte_sealed_records_equal_value_sealed(
            raw in raw_line(),
            seq in 0u64..(1 << 53),
            small in 0u64..1000,
        ) {
            for seq in [seq, small] {
                let mut out = String::from("prefix\n");
                seal_record(&mut out, &raw, seq);
                prop_assert_eq!(&out["prefix\n".len()..], value_sealed(&raw, seq));
            }
        }
    }

    /// A segment written through the byte path is what the `Value` path
    /// would have written, and scans back to the raw lines.
    #[test]
    fn written_segment_matches_value_sealing_and_scans_back() {
        let dir = tmpdir("bytes");
        let raws = [
            r#"{"cmd":"submit","time":0,"cpu":0.5,"mem":0.25,"runtime":600}"#,
            "tab\there \"quoted\" back\\slash\nnewline \u{1} µ 漢 🦀",
            "",
        ];
        let mut j = Journal::create(&dir, FsyncPolicy::Never, "s0").unwrap();
        for raw in raws {
            j.append_async(raw).unwrap();
        }
        j.wait_durable(3).unwrap();
        let mut want = segment_header(1);
        for (i, raw) in raws.iter().enumerate() {
            want += &value_sealed(raw, i as u64 + 1);
        }
        assert_eq!(fs::read_to_string(dir.join(seg_name(1))).unwrap(), want);
        assert_eq!(scan(&dir).unwrap().lines, raws);
        let _ = fs::remove_dir_all(&dir);
    }
}

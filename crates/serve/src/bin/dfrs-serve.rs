//! `dfrs-serve` — the DFRS scheduler as a long-lived daemon.
//!
//! Reads NDJSON commands from stdin (default) or a Unix socket and
//! writes NDJSON events; see the crate docs of `dfrs_serve` for the
//! command set. Examples:
//!
//! ```text
//! printf '%s\n' \
//!   '{"cmd":"submit","time":0,"cpu":0.5,"mem":0.25,"runtime":600}' \
//!   '{"cmd":"drain"}' '{"cmd":"shutdown"}' \
//!   | dfrs-serve --spec dynmcb8-per:t=300 --nodes 4
//!
//! dfrs-serve --spec dynmcb8-drf --socket /tmp/dfrs.sock
//! dfrs-serve --restore /tmp/checkpoint.json
//!
//! # Crash-safe: journal every command, then recover after a kill -9.
//! dfrs-serve --spec fcfs --nodes 4 --journal /var/lib/dfrs/wal
//! dfrs-serve --restore --journal /var/lib/dfrs/wal
//! ```

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::exit;

use dfrs_core::json::Value;
use dfrs_core::ClusterSpec;
use dfrs_serve::chaos::ChaosPlan;
use dfrs_serve::journal::FsyncPolicy;
use dfrs_serve::{Daemon, Flow};
use dfrs_sim::SimConfig;

const USAGE: &str = "\
dfrs-serve: streaming DFRS scheduler daemon (NDJSON in, NDJSON out)

USAGE:
  dfrs-serve --spec SPEC [OPTIONS]
  dfrs-serve --restore PATH [OPTIONS]
  dfrs-serve --restore --journal DIR [OPTIONS]

OPTIONS:
  --spec SPEC       scheduler registry spec (e.g. fcfs, greedy-pmtn,
                    dynmcb8-per:t=300, dynmcb8-drf)
  --restore [PATH]  resume from a dfrs-snapshot-v1 file written by the
                    snapshot command (the spec is read from the file);
                    with no PATH, recover from the --journal directory
                    (newest snapshot + command replay)
  --journal DIR     write-ahead journal: append every mutating command
                    to DIR before applying it (DIR must be empty unless
                    recovering with --restore)
  --fsync POLICY    journal durability: always, interval:N, or never
                    [default: always]
  --nodes N         cluster nodes            [default: 128]
  --cores N         cores per node           [default: 4]
  --mem GB          memory per node in GB    [default: 8]
  --penalty SECS    rescheduling penalty     [default: 0]
  --shards N        partition the cluster and run one scheduler
                    instance per shard (wraps SPEC in
                    sharded:SPEC:shards=N; 1 leaves SPEC unchanged)
  --validate        check every plan and engine invariant
  --socket PATH     serve on a Unix socket instead of stdin/stdout
  --idle-timeout S  close a socket connection idle for S seconds
                    (the daemon keeps accepting; 0 disables) [default: 0]
  --max-line BYTES  reject command lines longer than BYTES with a typed
                    error event [default: 65536]
  --chaos SPEC      seeded crash point for fault-injection testing
                    (pre-append:N, post-append:N, torn:N:K,
                    mid-snapshot:N:K, batch-crash:N; needs --journal);
                    firing emulates kill -9 via abort()
  --help            this text
";

struct Args {
    spec: Option<String>,
    /// `Some(Some(path))` restores a snapshot file; `Some(None)` (bare
    /// `--restore`) recovers from the journal directory.
    restore: Option<Option<String>>,
    journal: Option<String>,
    fsync: FsyncPolicy,
    chaos: Option<ChaosPlan>,
    nodes: u32,
    cores: u32,
    mem: f64,
    penalty: f64,
    shards: u32,
    validate: bool,
    socket: Option<String>,
    idle_timeout: f64,
    max_line: usize,
}

fn parse_args() -> Result<Args, String> {
    let synthetic = ClusterSpec::synthetic();
    let mut args = Args {
        spec: None,
        restore: None,
        journal: None,
        fsync: FsyncPolicy::default(),
        chaos: None,
        nodes: synthetic.nodes,
        cores: synthetic.cores_per_node,
        mem: synthetic.node_memory_gb,
        penalty: 0.0,
        shards: 1,
        validate: false,
        socket: None,
        idle_timeout: 0.0,
        max_line: dfrs_serve::MAX_LINE_DEFAULT,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        // `--restore` takes an optional value: anything that does not
        // look like a flag.
        if flag == "--restore" {
            let path = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next(),
                _ => None,
            };
            args.restore = Some(path);
            continue;
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value (see --help)"))
        };
        match flag.as_str() {
            "--spec" => args.spec = Some(value()?),
            "--journal" => args.journal = Some(value()?),
            "--fsync" => args.fsync = value()?.parse()?,
            "--chaos" => args.chaos = Some(value()?.parse()?),
            "--nodes" => args.nodes = num(&value()?)? as u32,
            "--cores" => args.cores = num(&value()?)? as u32,
            "--mem" => args.mem = num(&value()?)?,
            "--penalty" => args.penalty = secs(&flag, &value()?)?,
            "--shards" => {
                args.shards = num(&value()?)? as u32;
                if args.shards == 0 {
                    return Err("--shards needs at least 1".into());
                }
            }
            "--validate" => args.validate = true,
            "--socket" => args.socket = Some(value()?),
            "--idle-timeout" => args.idle_timeout = secs(&flag, &value()?)?,
            "--max-line" => args.max_line = num(&value()?)? as usize,
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    if args.chaos.is_some() && args.journal.is_none() {
        return Err("--chaos needs --journal (it seeds crashes in the write-ahead path)".into());
    }
    if matches!(args.restore, Some(None)) && args.journal.is_none() {
        return Err("bare --restore needs --journal DIR to recover from (see --help)".into());
    }
    Ok(args)
}

fn num(s: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|_| format!("bad number {s:?}"))
}

/// A duration flag's value in seconds: finite and ≥ 0.
fn secs(flag: &str, s: &str) -> Result<f64, String> {
    Some(num(s)?)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{flag} must be finite and >= 0, got {s}"))
}

/// Build the daemon the flags describe. The second value is the
/// `recovered` banner to emit before `ready` when journal recovery ran.
fn build_daemon(args: &Args) -> Result<(Daemon, Option<Value>), String> {
    let mut banner = None;
    let mut daemon = match &args.restore {
        Some(None) => {
            // Recover: snapshot + journal replay, journal stays attached.
            let dir = args.journal.as_deref().expect("checked in parse_args");
            let (daemon, recovery) =
                Daemon::recover(Path::new(dir), args.fsync).map_err(|e| e.to_string())?;
            banner = Some(Daemon::recovered_event(&recovery));
            daemon
        }
        Some(Some(path)) => {
            if args.shards != 1 {
                return Err("--shards cannot be combined with --restore (the spec — sharded or not — is read from the snapshot)".into());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let mut daemon = Daemon::restore(&text).map_err(|e| e.to_string())?;
            if let Some(dir) = &args.journal {
                daemon
                    .attach_journal(Path::new(dir), args.fsync)
                    .map_err(|e| e.to_string())?;
            }
            daemon
        }
        None => {
            let spec = args
                .spec
                .as_deref()
                .ok_or("either --spec or --restore is required (see --help)")?;
            let spec = if args.shards > 1 {
                format!("sharded:{spec}:shards={}", args.shards)
            } else {
                spec.to_string()
            };
            let cluster =
                ClusterSpec::new(args.nodes, args.cores, args.mem).map_err(|e| e.to_string())?;
            let config = SimConfig {
                penalty: args.penalty,
                validate: args.validate,
                ..SimConfig::default()
            };
            let mut daemon = Daemon::new(cluster, &spec, config).map_err(|e| e.to_string())?;
            if let Some(dir) = &args.journal {
                daemon
                    .attach_journal(Path::new(dir), args.fsync)
                    .map_err(|e| e.to_string())?;
            }
            daemon
        }
    };
    if let Some(plan) = args.chaos {
        daemon.set_chaos(plan);
    }
    daemon.set_max_line(args.max_line);
    Ok((daemon, banner))
}

/// Most lines a batch will group under a saturating client; an idle
/// client's lines arrive as batches of one.
const BATCH_MAX: usize = 256;

/// Feed `input` lines to the daemon, writing events to `output` with a
/// flush after every command (clients block on responses). `banner`
/// lines (the `recovered` event) are emitted once, before `ready`.
///
/// Lines arrive through a reader thread and a channel so the loop can
/// hand everything already waiting to [`Daemon::handle_batch`] in one
/// go — under a journaled daemon that is one group-committed write
/// (and at most one fsync) for the whole run of commands. How lines
/// happen to be grouped never changes the emitted bytes, only the
/// journal's write pattern.
fn serve(
    daemon: &mut Daemon,
    banner: &mut Option<Value>,
    input: impl BufRead + Send + 'static,
    mut output: impl Write,
) -> std::io::Result<Flow> {
    if let Some(b) = banner.take() {
        writeln!(output, "{}", b.compact())?;
    }
    writeln!(output, "{}", daemon.ready_event().compact())?;
    output.flush()?;
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<String>>();
    std::thread::spawn(move || {
        for line in input.lines() {
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    let mut batch: Vec<String> = Vec::new();
    while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first?);
        while batch.len() < BATCH_MAX {
            match rx.try_recv() {
                Ok(line) => batch.push(line?),
                Err(_) => break,
            }
        }
        for (events, flow) in daemon.handle_batch(&batch) {
            if flow == Flow::Crashed {
                // A seeded chaos point: die like kill -9 — no flush, no
                // cleanup, no acknowledgement.
                std::process::abort();
            }
            for e in &events {
                writeln!(output, "{}", e.compact())?;
            }
            output.flush()?;
            if flow == Flow::Shutdown {
                return Ok(Flow::Shutdown);
            }
        }
    }
    Ok(Flow::Continue)
}

fn serve_socket(
    daemon: &mut Daemon,
    banner: &mut Option<Value>,
    path: &str,
    idle_timeout: f64,
) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener =
        std::os::unix::net::UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
    // Connections are served one at a time against the same session;
    // a client hanging up just ends its connection, not the daemon.
    loop {
        let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        if idle_timeout > 0.0 {
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs_f64(idle_timeout)))
                .map_err(|e| format!("timeout: {e}"))?;
        }
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        match serve(daemon, banner, reader, stream) {
            Ok(Flow::Shutdown) => {
                let _ = std::fs::remove_file(path);
                return Ok(());
            }
            Ok(Flow::Continue | Flow::Crashed) => {}
            // A dropped connection mid-write is the client's problem;
            // an idle connection is closed and the daemon keeps
            // accepting.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("socket i/o: {e}")),
        }
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        let (mut daemon, mut banner) = build_daemon(&args)?;
        match &args.socket {
            Some(path) => serve_socket(&mut daemon, &mut banner, path, args.idle_timeout),
            None => serve(
                &mut daemon,
                &mut banner,
                BufReader::new(std::io::stdin()),
                std::io::stdout().lock(),
            )
            .map(|_| ())
            .map_err(|e| format!("stdio: {e}")),
        }
    });
    if let Err(e) = result {
        eprintln!("dfrs-serve: {e}");
        exit(2);
    }
}

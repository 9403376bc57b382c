//! Per-layer measurements of the traced run that spans cannot give:
//! replays of captured packing instances through `dfrs_packing`'s
//! public entry points, and direct timings of the pool, the JSON codec,
//! the journal-less daemon and the journal.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dfrs_core::constants::{MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_core::json::{self, Value};
use dfrs_packing::{
    max_min_dominant_share, max_min_yield_warm, max_min_yield_with, DrfJob, DrfSearchScratch,
    JobLoad, Mcb8, McbVec, PackItem, PackScratch, RepackMemo, SearchScratch, VecItem,
    VecPackScratch, VectorPacker,
};
use dfrs_serve::journal::{FsyncPolicy, Journal};

use crate::measure::{prepare, Subject};
use crate::stats::{median, percentile_sorted};
use crate::trace::{JobSet, Packs};
use crate::workloads::Workload;

/// `(metric name, value)` pairs one measurement contributes.
pub type Rows = Vec<(&'static str, f64)>;

/// Times each captured set is replayed per kernel.
const REPLAY_ROUNDS: usize = 5;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (
        percentile_sorted(samples, 0.5),
        percentile_sorted(samples, 0.99),
    )
}

/// Replay the job sets a traced pass captured through the packing
/// layer's public searches and packers, the way the scheduler uses them.
///
/// `packing.alloc_*` times one whole allocation: the search, and while
/// it finds no packing, dropping the next victim and searching again
/// (`packed_allocation` / `drf_repack_all`; most of a loaded decision's
/// searches are these quick infeasible verdicts). On the set that
/// finally packs, `Packs::Yield` then times one cold yield search
/// (`Mcb8`), one memo-warm search and one `Mcb8::pack_into` at the yield
/// found; `Packs::DominantShare` one dominant-share search and one
/// `McbVec::<3>::pack_runs_into` at the yields found.
pub fn packing_replay(sets: &[JobSet], packs: Packs) -> Rows {
    if sets.is_empty() || packs == Packs::Nothing {
        return Vec::new();
    }
    let mut sizes: Vec<f64> = sets.iter().map(|s| s.jobs.len() as f64).collect();
    let (mut alloc_us, mut searches) = (Vec::new(), 0u64);
    let (mut search_us, mut warm_us, mut pack_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = SearchScratch::new();
    let mut drf_scratch = DrfSearchScratch::new();
    let mut pack_scratch = PackScratch::new();
    let mut vec_scratch = VecPackScratch::<3>::new();
    let yield_search = |loads: &[JobLoad], nodes: usize, scratch: &mut SearchScratch| {
        max_min_yield_with(
            loads,
            nodes,
            &Mcb8,
            YIELD_SEARCH_ACCURACY,
            MIN_STRETCH_PER_YIELD,
            scratch,
        )
    };
    let share_search = |jobs: &[DrfJob], nodes: usize, scratch: &mut DrfSearchScratch| {
        max_min_dominant_share(
            jobs,
            nodes,
            YIELD_SEARCH_ACCURACY,
            MIN_STRETCH_PER_YIELD,
            scratch,
        )
    };
    for _ in 0..REPLAY_ROUNDS {
        // A fresh memo per round: within a round the captured sequence
        // is searched in decision order, as the scheduler would.
        let mut memo = RepackMemo::new();
        for set in sets {
            // The allocation as the scheduler runs it. `kept` ends as
            // the set that packs.
            let mut kept = vec![true; set.jobs.len()];
            let mut victims = set.evict_order.iter();
            let start = Instant::now();
            let (jobs, loads) = loop {
                let jobs: Vec<DrfJob> = set
                    .jobs
                    .iter()
                    .zip(&kept)
                    .filter_map(|(j, k)| k.then_some(*j))
                    .collect();
                let loads: Vec<JobLoad> = jobs.iter().map(load_of).collect();
                searches += 1;
                let found = match packs {
                    Packs::DominantShare => {
                        share_search(&jobs, set.nodes, &mut drf_scratch).is_some()
                    }
                    _ => yield_search(&loads, set.nodes, &mut scratch).is_some(),
                };
                match (found, victims.next()) {
                    (false, Some(&victim)) => kept[victim as usize] = false,
                    _ => break (jobs, loads),
                }
            };
            alloc_us.push(us(start));

            if packs == Packs::DominantShare {
                let start = Instant::now();
                let alloc = share_search(&jobs, set.nodes, &mut drf_scratch);
                search_us.push(us(start));
                let Some(alloc) = black_box(alloc) else {
                    continue;
                };
                let mut id = 0;
                let runs: Vec<(VecItem<3>, u32)> = jobs
                    .iter()
                    .zip(&alloc.allocations)
                    .map(|(j, (_, y, _))| {
                        let req = [
                            (j.cpu_need * y).min(1.0),
                            j.mem_req,
                            (j.gpu_need * y).min(1.0),
                        ];
                        let item = VecItem { id, req };
                        id += j.tasks;
                        (item, j.tasks)
                    })
                    .collect();
                let caps = vec![[1.0; 3]; set.nodes];
                let start = Instant::now();
                black_box(McbVec::<3>.pack_runs_into(&runs, &caps, &mut vec_scratch));
                pack_us.push(us(start));
                continue;
            }
            let start = Instant::now();
            let alloc = yield_search(&loads, set.nodes, &mut scratch);
            search_us.push(us(start));
            let start = Instant::now();
            black_box(max_min_yield_warm(
                &loads,
                set.nodes,
                &Mcb8,
                YIELD_SEARCH_ACCURACY,
                MIN_STRETCH_PER_YIELD,
                &mut scratch,
                &mut memo,
            ));
            warm_us.push(us(start));
            let Some(alloc) = black_box(alloc) else {
                continue;
            };
            let mut items = Vec::new();
            for j in &loads {
                for _ in 0..j.tasks {
                    items.push(PackItem {
                        id: items.len() as u32,
                        cpu: (j.cpu_need * alloc.yield_).min(1.0),
                        mem: j.mem_req,
                    });
                }
            }
            let start = Instant::now();
            black_box(Mcb8.pack_into(&items, set.nodes, &mut pack_scratch));
            pack_us.push(us(start));
        }
    }
    let (alloc_p50, alloc_p99) = p50_p99(&mut alloc_us);
    let (search_p50, search_p99) = p50_p99(&mut search_us);
    let mut rows: Rows = vec![
        ("packing.replay_sets", sets.len() as f64),
        ("packing.replay_jobs_p50", p50_p99(&mut sizes).0),
        ("packing.alloc_p50_us", alloc_p50),
        ("packing.alloc_p99_us", alloc_p99),
        (
            "packing.searches_per_alloc",
            searches as f64 / (sets.len() * REPLAY_ROUNDS) as f64,
        ),
    ];
    if packs == Packs::DominantShare {
        rows.extend([
            ("packing.drf_search_p50_us", search_p50),
            ("packing.drf_search_p99_us", search_p99),
            ("packing.vecpack3_p50_us", p50_p99(&mut pack_us).0),
        ]);
    } else {
        rows.extend([
            ("packing.search_p50_us", search_p50),
            ("packing.search_p99_us", search_p99),
            ("packing.search_warm_p50_us", p50_p99(&mut warm_us).0),
            ("packing.pack_p50_us", p50_p99(&mut pack_us).0),
        ]);
    }
    rows
}

fn load_of(j: &DrfJob) -> JobLoad {
    JobLoad {
        job: j.job,
        tasks: j.tasks,
        cpu_need: j.cpu_need,
        mem_req: j.mem_req,
    }
}

/// Round trip of an empty two-task `scope` on the machine-sized pool
/// (what a speculative search probe pays before any packing).
pub fn pool_roundtrip() -> Rows {
    let pool = dfrs_core::pool::global();
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let start = Instant::now();
        pool.scope(|s| {
            s.execute(|| {});
            s.execute(|| {});
        });
        samples.push(us(start));
    }
    vec![("pool.scope_roundtrip_us", median(&samples))]
}

/// The serve-side layers, each driven directly over the workload's own
/// script: the JSON codec, a journal-less daemon (parse + apply +
/// events), `stats` and `snapshot`, and the journal's group commit at
/// `never` and `always`. `pass_wall_s` is the traced pass's wall, for
/// `journal.fsync_share`.
pub fn serve_layers(script: &[String], batch: usize, pass_wall_s: f64, scratch: &Path) -> Rows {
    let mut rows: Rows = Vec::new();
    let lines = script.len() as f64;

    let start = Instant::now();
    for line in script {
        black_box(json::parse(line).expect("script lines are JSON"));
    }
    rows.push(("json.parse_us_per_line", us(start) / lines));

    // Journal-less daemon over the whole script, responses unrendered.
    let Subject::Serve(mut daemon) = prepare(Workload::ServeJournal, None, None) else {
        unreachable!("serve workload prepares a daemon")
    };
    // Responses of a prefix are kept for the render timing; keeping all
    // of them would dominate the process's memory.
    let mut kept: Vec<Value> = Vec::new();
    let start = Instant::now();
    for chunk in script.chunks(batch) {
        let out = daemon.handle_batch(chunk);
        if kept.len() < 100_000 {
            kept.extend(out.into_iter().flat_map(|(events, _)| events));
        }
    }
    rows.push(("serve.apply_us_per_cmd", us(start) / lines));

    let start = Instant::now();
    for event in &kept {
        black_box(event.compact());
    }
    rows.push((
        "json.render_us_per_event",
        us(start) / kept.len().max(1) as f64,
    ));
    drop(kept);

    let start = Instant::now();
    for _ in 0..2000 {
        black_box(daemon.handle_line(r#"{"cmd":"stats"}"#));
    }
    rows.push(("serve.stats_us", us(start) / 2000.0));

    // The script ends in a drain, so the daemon is quiescent here.
    let mut snapshot_ms = Vec::new();
    let mut snapshot_bytes = 0.0;
    for _ in 0..5 {
        let start = Instant::now();
        let (events, _) = daemon.handle_line(r#"{"cmd":"snapshot"}"#);
        snapshot_ms.push(us(start) * 1e-3);
        snapshot_bytes = events[0].compact().len() as f64;
    }
    rows.push(("serve.snapshot_ms", median(&snapshot_ms)));
    rows.push(("serve.snapshot_bytes", snapshot_bytes));
    drop(daemon);

    rows.extend(journal_layers(script, batch, pass_wall_s, scratch));
    rows
}

/// `Journal` driven directly, the way `Daemon::handle_batch` drives it:
/// `batch` × `append_async`, then one `wait_durable`.
fn journal_layers(script: &[String], batch: usize, pass_wall_s: f64, scratch: &Path) -> Rows {
    const BATCHES: usize = 400;
    let submits: Vec<&String> = script
        .iter()
        .filter(|l| l.contains(r#""submit""#))
        .take(BATCHES * batch)
        .collect();
    let commit = |policy: FsyncPolicy, tag: &str| {
        let dir = scratch.join(format!("layer-journal-{tag}"));
        let mut journal = Journal::create(&dir, policy, "{}").expect("fresh journal directory");
        let (mut enqueue_us, mut commit_us) = (Vec::new(), Vec::new());
        for chunk in submits.chunks(batch) {
            let start = Instant::now();
            let mut last = 0;
            for line in chunk {
                last = journal.append_async(line).expect("journal accepts appends");
            }
            enqueue_us.push(us(start) / chunk.len() as f64);
            journal.wait_durable(last).expect("journal commits");
            commit_us.push(us(start));
        }
        drop(journal);
        let bytes: u64 = std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&dir);
        (median(&enqueue_us), median(&commit_us), bytes)
    };
    let (enqueue, never, bytes) = commit(FsyncPolicy::Never, "never");
    let (_, always, _) = commit(FsyncPolicy::Always, "always");
    let batches_per_pass = script.len() as f64 / batch as f64;
    vec![
        ("journal.enqueue_us_per_cmd", enqueue),
        ("journal.commit_never_us_per_batch", never),
        ("journal.commit_always_us_per_batch", always),
        (
            "journal.fsync_share",
            (always - never).max(0.0) * 1e-6 * batches_per_pass / pass_wall_s,
        ),
        (
            "journal.bytes_per_cmd",
            bytes as f64 / submits.len().max(1) as f64,
        ),
    ]
}

//! `DYNMCB8-STRETCH-PER` (Section III-B): the periodic variant that
//! minimizes the **estimated maximum stretch** instead of maximizing the
//! minimum yield.
//!
//! At each tick, each job's estimated stretch is its flow time over its
//! virtual time; assuming yields hold for the next period `T`, a binary
//! search finds the smallest achievable bound on the next tick's
//! estimates (clamping computed yields into `[0.01, 1]`), with MCB8
//! deciding feasibility. Instead of the average-yield heuristic, leftover
//! CPU goes to the jobs whose estimated stretch improves the most per
//! unit of CPU consumed — the paper names (but does not detail) an
//! average-estimated-stretch improvement pass; this marginal-benefit
//! greedy is our reading (DESIGN.md "Stretch objective").

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_packing::{min_max_estimated_stretch_with, Mcb8, SearchScratch, StretchJob};
use dfrs_sim::{Plan, RepackStats, SimState};

use crate::dynmcb8::Objective;
use crate::evict::{EvictionFront, VictimOrder};

/// The stretch objective over the next `period` seconds, which the
/// registry sets to the trigger's period.
#[derive(Debug)]
pub(crate) struct MinMaxStretch {
    period: f64,
    // Buffers reused across events (never observable in results). The
    // search runs cold: its inputs include flow and virtual times, which
    // drift every tick, so whole searches never recur.
    search: SearchScratch,
    /// Searches run (for [`RepackStats`]; every one is cold).
    searches: u64,
    sjobs: Vec<StretchJob>,
}

impl MinMaxStretch {
    pub(crate) fn new(period: f64) -> Self {
        MinMaxStretch {
            period,
            search: SearchScratch::new(),
            searches: 0,
            sjobs: Vec::new(),
        }
    }
}

impl Objective for MinMaxStretch {
    /// Estimated stretches read flow and virtual times.
    const TIME_FREE: bool = false;

    fn name_parts(&self) -> (&'static str, &'static str) {
        ("-stretch", "")
    }

    fn repack(&mut self, front: &mut EvictionFront, state: &SimState) -> Plan {
        let MinMaxStretch {
            period,
            search,
            searches,
            sjobs,
        } = self;
        let alloc = front.pack(state, VictimOrder::Priority, |candidates, nodes| {
            sjobs.clear();
            sjobs.extend(candidates.iter().map(|&id| {
                let j = state.job(id);
                StretchJob {
                    job: id,
                    tasks: j.spec.tasks,
                    cpu_need: j.spec.cpu_need,
                    mem_req: j.spec.mem_req,
                    flow_time: (state.now - j.spec.submit_time).max(0.0),
                    virtual_time: j.virtual_time,
                }
            }));
            *searches += 1;
            min_max_estimated_stretch_with(sjobs, nodes, *period, &Mcb8, 0.01, search)
        });
        let mut plan = front.plan(state, &alloc.bins, |i| alloc.assignments[i].1);
        let nodes = state.cluster.nodes().len();
        improve_average_stretch(*period, state, &mut plan, nodes);
        // Stretch optimization is GPU-oblivious like the yield
        // family's; clamp GPU consumers to capacity (guarded no-op on
        // GPU-free workloads).
        crate::common::gpu_clamp_assignments(nodes, |id| state.job(id).spec.gpu_need, &mut plan);
        plan
    }

    fn stats(&self) -> RepackStats {
        RepackStats {
            searches: self.searches,
            search_hits: 0,
            packs: self.search.packs,
            packs_saved: 0,
        }
    }
}

/// Spend leftover CPU on the running jobs of `plan` with the best
/// marginal reduction of estimated stretch per unit of CPU.
fn improve_average_stretch(period: f64, state: &SimState, plan: &mut Plan, nodes: usize) {
    let t = period;
    let mut assignments: Vec<(JobId, &[NodeId], &mut f64)> = plan.runs_mut().collect();
    let mut alloc = vec![0.0; nodes];
    for (id, placement, yld) in assignments.iter() {
        let need = state.job(*id).spec.cpu_need;
        for n in placement.iter() {
            alloc[n.index()] += need * **yld;
        }
    }
    let mut frozen = vec![false; assignments.len()];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, (id, placement, yld)) in assignments.iter().enumerate() {
            let yld = **yld;
            if frozen[i] || yld >= 1.0 - approx::EPS {
                continue;
            }
            let j = state.job(*id);
            if !placement
                .iter()
                .all(|&n| approx::pos(1.0 - alloc[n.index()]))
            {
                continue;
            }
            let flow = (state.now - j.spec.submit_time).max(0.0);
            let denom = j.virtual_time + yld * t;
            // −dŜ/dy per unit of total CPU consumed.
            let benefit =
                ((flow + t) * t / (denom * denom)) / (j.spec.cpu_need * j.spec.tasks as f64);
            if best.is_none_or(|(_, b)| benefit > b) {
                best = Some((i, benefit));
            }
        }
        let Some((i, _)) = best else { break };
        let (id, placement, yld) = &mut assignments[i];
        let need = state.job(*id).spec.cpu_need;
        // Unique hosting nodes by scanning (placements are short); the
        // running minimum is order-independent.
        let mut delta = 1.0 - **yld;
        for (k, &n) in placement.iter().enumerate() {
            if placement[..k].contains(&n) {
                continue; // already counted
            }
            let count = placement[k..].iter().filter(|&&m| m == n).count() as u32;
            delta = delta.min((1.0 - alloc[n.index()]) / (need * count as f64));
        }
        if delta <= approx::EPS {
            frozen[i] = true;
            continue;
        }
        for n in placement.iter() {
            alloc[n.index()] += need * delta;
        }
        **yld = (**yld + delta).min(1.0);
    }
}

#[cfg(test)]
mod tests {
    use crate::dynmcb8::build;
    use dfrs_core::ids::JobId;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig {
            validate: true,
            ..SimConfig::default()
        }
    }

    fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).unwrap()
    }

    #[test]
    fn starts_jobs_at_ticks() {
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let jobs = vec![job(0, 10.0, 1, 0.5, 0.2, 50.0)];
        let out = simulate(
            cluster,
            &jobs,
            build("dynmcb8-stretch-per:t=600").as_mut(),
            &cfg(),
        );
        assert!((out.records[0].first_start.unwrap() - 600.0).abs() < 1e-9);
        assert!((out.records[0].completion - 650.0).abs() < 1e-6);
    }

    #[test]
    fn favors_the_job_with_worse_estimated_stretch() {
        // One node, two CPU-bound jobs. Job 0 submitted much earlier (big
        // flow time, no progress) — at the first tick it must get a
        // higher yield than the fresh job 1.
        let cluster = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 300.0),
            job(1, 590.0, 1, 1.0, 0.3, 300.0),
        ];
        let out = simulate(
            cluster,
            &jobs,
            build("dynmcb8-stretch-per:t=600").as_mut(),
            &cfg(),
        );
        // Both in system at tick 600. Job 0 flow=600, job 1 flow=10; both
        // vt=0. Estimated stretch at next tick: (flow+T)/(yT). To equalize,
        // y0/y1 = (600+600)/(10+600) ≈ 1.97 → job 0 gets ~2/3 of the CPU
        // → it should finish first despite equal runtimes.
        assert!(
            out.records[0].completion < out.records[1].completion,
            "job 0 {} vs job 1 {}",
            out.records[0].completion,
            out.records[1].completion
        );
    }

    #[test]
    fn improvement_pass_uses_leftover_cpu() {
        // One job alone on a 2-node cluster: whatever the search picks,
        // the improvement pass must push it to yield 1 → completes in
        // runtime seconds after its tick start.
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let jobs = vec![job(0, 0.0, 2, 1.0, 0.5, 100.0)];
        let out = simulate(
            cluster,
            &jobs,
            build("dynmcb8-stretch-per:t=600").as_mut(),
            &cfg(),
        );
        assert!((out.records[0].completion - 700.0).abs() < 1e-6);
    }

    #[test]
    fn name_includes_period() {
        assert_eq!(
            build("dynmcb8-stretch-per").name(),
            "DynMCB8-stretch-per 600"
        );
    }
}

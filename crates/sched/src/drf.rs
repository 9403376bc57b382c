//! Multi-resource DFRS with DRF fairness: `DYNMCB8-DRF` and
//! `DYNMCB8-DRF-PER-T`.
//!
//! The paper's DYNMCB8 family maximizes the minimum **yield** — the
//! right objective when CPU is the only fluid resource. With a second
//! fluid dimension (GPU) a uniform yield over-rewards jobs whose
//! dominant demand is small: a job needing `(cpu 0.1, gpu 0.9)` and one
//! needing `(cpu 0.9, gpu 0.1)` at the same yield consume very
//! different fractions of their bottleneck resource. These schedulers
//! instead maximize the minimum **dominant share** `d_i · y_i`
//! (Ghodsi et al.'s Dominant Resource Fairness, NSDI 2011), where
//! `d_i = max(cpu_i, gpu_i)` is job *i*'s dominant fluid demand — so
//! each job's yield is set by a common share target rather than being
//! the target itself. Memory stays rigid, exactly as in the paper.
//!
//! The search ([`dfrs_packing::max_min_dominant_share`]) bisects the
//! share target over the dimension-generic MCB packer; with every
//! `gpu_need` at zero the dominant share *is* the CPU fraction and the
//! objective degenerates to the paper's max-min yield.
//!
//! When not even the yield-floor profile packs (memory or rigid
//! over-subscription), candidates are evicted under the **DRF
//! preemption ordering**: the job with the largest total dominant-share
//! demand `d_i · tasks_i` goes first (ties to the lower paper priority
//! key) — the biggest bottleneck consumer yields capacity, mirroring
//! how DRF charges each job by its dominant resource.
//!
//! The objective runs under two triggers: `dynmcb8-drf` repacks at
//! every submission, completion, and platform event (the `DYNMCB8`
//! cadence); `dynmcb8-drf-per` every `T` seconds (the `DYNMCB8-PER`
//! cadence; arrivals and failure victims wait for the next tick).

use dfrs_core::constants::{MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_packing::{max_min_dominant_share, DrfJob, DrfSearchScratch};
use dfrs_sim::{Plan, RepackStats, SimState};

use crate::dynmcb8::Objective;
use crate::evict::{EvictionFront, VictimOrder};

/// The DRF objective: eviction front (DRF preemption ordering) and
/// dominant-share bisection, then a plan with **per-job** yields (no
/// uniform-yield improvement pass — the search already assigns each job
/// the yield its dominant demand warrants, and a CPU-only improvement
/// step would skew the GPU shares it just balanced). The search runs
/// cold: its per-job yields make result replay a different, larger
/// state than the uniform-yield memo covers.
#[derive(Debug, Default)]
pub(crate) struct DominantShare {
    search: DrfSearchScratch,
    djobs: Vec<DrfJob>,
    /// Searches run (for [`RepackStats`]; every one is cold).
    searches: u64,
}

impl Objective for DominantShare {
    const TIME_FREE: bool = true;

    fn name_parts(&self) -> (&'static str, &'static str) {
        ("-drf", "")
    }

    fn repack(&mut self, front: &mut EvictionFront, state: &SimState) -> Plan {
        let DominantShare {
            search,
            djobs,
            searches,
        } = self;
        let alloc = front.pack(state, VictimOrder::DominantDemand, |candidates, nodes| {
            djobs.clear();
            djobs.extend(candidates.iter().map(|&id| {
                let s = &state.job(id).spec;
                DrfJob {
                    job: id,
                    tasks: s.tasks,
                    cpu_need: s.cpu_need,
                    mem_req: s.mem_req,
                    gpu_need: s.gpu_need,
                }
            }));
            *searches += 1;
            max_min_dominant_share(
                djobs,
                nodes,
                YIELD_SEARCH_ACCURACY,
                MIN_STRETCH_PER_YIELD,
                search,
            )
        });
        front.plan(state, &alloc.bins, |i| alloc.allocations[i].1)
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

#[cfg(test)]
mod tests {
    use crate::dynmcb8::build;
    use dfrs_core::ids::{JobId, NodeId};
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, SimConfig};

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(2, 4, 8.0).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            validate: true,
            ..SimConfig::default()
        }
    }

    fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).unwrap()
    }

    fn gpu_job(id: u32, submit: f64, cpu: f64, mem: f64, gpu: f64, rt: f64) -> JobSpec {
        job(id, submit, 1, cpu, mem, rt).with_gpu(gpu).unwrap()
    }

    #[test]
    fn runs_everything_when_feasible() {
        let jobs = vec![
            job(0, 0.0, 2, 0.5, 0.4, 100.0),
            job(1, 10.0, 1, 0.5, 0.4, 50.0),
        ];
        let out = simulate(cluster(), &jobs, build("dynmcb8-drf").as_mut(), &cfg());
        assert_eq!(out.max_stretch, 1.0, "underloaded cluster → no slowdown");
    }

    #[test]
    fn cpu_only_overload_degenerates_to_equal_yields() {
        // Four 1-task CPU-bound jobs, 2 nodes: with no GPU demand the
        // dominant share is the CPU fraction → uniform yield ~0.5,
        // exactly the classic DYNMCB8 outcome.
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0.0, 1, 1.0, 0.3, 100.0)).collect();
        let out = simulate(cluster(), &jobs, build("dynmcb8-drf").as_mut(), &cfg());
        for r in &out.records {
            assert!(
                (r.completion - 200.0).abs() < 5.0,
                "completion {} (share accuracy band)",
                r.completion
            );
        }
    }

    #[test]
    fn gpu_contention_is_shared_by_dominant_demand() {
        // Two GPU-saturating jobs forced onto one node by memory: each
        // has dominant demand 1.0 (GPU), so the equalized share gives
        // each yield ~0.5 even though CPU alone would fit both.
        let one_node = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            gpu_job(0, 0.0, 0.2, 0.3, 1.0, 100.0),
            gpu_job(1, 0.0, 0.2, 0.3, 1.0, 100.0),
        ];
        let out = simulate(one_node, &jobs, build("dynmcb8-drf").as_mut(), &cfg());
        for r in &out.records {
            assert!(
                (r.completion - 200.0).abs() < 5.0,
                "GPU-bound pair should each progress at ~0.5, completion {}",
                r.completion
            );
        }
    }

    #[test]
    fn mixed_dominance_beats_uniform_yield() {
        // A GPU-heavy and a CPU-heavy job on one node: their dominant
        // dimensions differ, so both can run near full speed — DRF
        // finds yields ≳0.9 where a uniform-yield search would stop at
        // the first dimension hitting 1.0 combined.
        let one_node = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            gpu_job(0, 0.0, 0.1, 0.3, 0.9, 90.0),
            gpu_job(1, 0.0, 0.9, 0.3, 0.1, 90.0),
        ];
        let out = simulate(one_node, &jobs, build("dynmcb8-drf").as_mut(), &cfg());
        for r in &out.records {
            assert!(
                r.completion < 105.0,
                "complementary jobs should barely slow down, completion {}",
                r.completion
            );
        }
    }

    #[test]
    fn evicts_largest_dominant_consumer_on_memory_pressure() {
        // Job 0 fills both nodes' memory; job 1 arrives and memory no
        // longer packs. Job 0 has the larger total dominant demand
        // (2 tasks × 0.25 vs 1 × 0.25) → it is evicted, job 1 runs.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 10.0, 1, 0.25, 0.5, 20.0),
        ];
        let out = simulate(cluster(), &jobs, build("dynmcb8-drf").as_mut(), &cfg());
        assert!((out.records[1].first_start.unwrap() - 10.0).abs() < 1e-9);
        assert!(out.preemption_count >= 1);
        assert!((out.records[0].completion - 120.0).abs() < 1.0);
    }

    #[test]
    fn per_variant_waits_for_ticks() {
        let jobs = vec![job(0, 10.0, 1, 0.5, 0.2, 50.0)];
        let out = simulate(
            cluster(),
            &jobs,
            build("dynmcb8-drf-per:t=600").as_mut(),
            &cfg(),
        );
        assert!((out.records[0].first_start.unwrap() - 600.0).abs() < 1e-9);
        assert!((out.records[0].completion - 650.0).abs() < 1e-6);
    }

    #[test]
    fn survives_node_failure_and_repacks() {
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 100.0),
            job(1, 0.0, 1, 1.0, 0.3, 100.0),
        ];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 10.0,
                node: NodeId(1),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(cluster(), &jobs, build("dynmcb8-drf").as_mut(), &cfg);
        assert_eq!(out.restart_count, 1, "exactly one job was on node 1");
        assert_eq!(out.records.len(), 2);
        assert!(out.records.iter().all(|r| r.completion > 100.0 - 1e-9));
    }

    #[test]
    fn names_include_period() {
        assert_eq!(build("dynmcb8-drf").name(), "DynMCB8-drf");
        assert_eq!(build("dynmcb8-drf-per").name(), "DynMCB8-drf-per 600");
    }
}

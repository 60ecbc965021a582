//! Seeded disruption-trace synthesis: cancellations, walltime overruns
//! and capacity drains layered on top of any job set.
//!
//! Production schedulers live with three disturbances the base trace
//! never shows:
//!
//! * **cancellations** — users withdraw queued or running jobs,
//! * **overruns** — true runtime exceeds the walltime request; the RJMS
//!   kills the job at `start + estimate`,
//! * **drains** — nodes (or power budget) go offline for maintenance or
//!   capping and later return.
//!
//! [`DisruptionConfig::synthesize`] turns a clean job list into a
//! [`DisruptionTrace`]: a (possibly modified) job list plus the
//! [`InjectedEvent`]s to feed `Simulator::inject_all`. Everything is
//! seeded and deterministic. SWF traces carry their own disruption
//! record in the status column; [`swf_relative_cancels`] maps the
//! archive's `cancelled` status through to cancels anchored at each
//! job's simulated start, so real logs replay with their real
//! cancellations.

use crate::theta::{SwfStatus, TraceJob};
use mrsim::event::{EventKind, InjectedEvent};
use mrsim::job::Job;
use mrsim::resources::SystemConfig;
use mrsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One capacity drain-and-return episode.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DrainSpec {
    /// Index of the resource pool to drain.
    pub resource: usize,
    /// Fraction of the pool's capacity to take offline, in `(0, 1]`.
    pub fraction: f64,
    /// When the drain begins.
    pub at: SimTime,
    /// How long until the capacity returns. `0` means it never returns.
    pub duration: SimTime,
}

impl DrainSpec {
    /// Units taken offline for a pool of `capacity` units (at least 1).
    pub fn units(&self, capacity: u64) -> u64 {
        ((capacity as f64 * self.fraction).round() as u64).clamp(1, capacity)
    }
}

/// Parameters of a synthetic disruption trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DisruptionConfig {
    /// Fraction of jobs cancelled at a uniform point in
    /// `[submit, submit + estimate]` (hitting them queued or running,
    /// whichever the schedule dictates).
    pub cancel_fraction: f64,
    /// Fraction of jobs whose true runtime overruns their estimate
    /// (disjoint from the cancelled set).
    pub overrun_fraction: f64,
    /// Runtime multiplier applied to an overrunner's *estimate*:
    /// `runtime = ceil(estimate * overrun_factor)`, `> 1`.
    pub overrun_factor: f64,
    /// Capacity drain/return episodes.
    pub drains: Vec<DrainSpec>,
}

impl Default for DisruptionConfig {
    fn default() -> Self {
        Self {
            cancel_fraction: 0.0,
            overrun_fraction: 0.0,
            overrun_factor: 1.5,
            drains: Vec::new(),
        }
    }
}

/// A job list plus the injected events that disrupt it.
#[derive(Clone, Debug, PartialEq)]
pub struct DisruptionTrace {
    /// The job list, with overrunners' runtimes inflated past their
    /// estimates. Feed to `Simulator::new` with `enforce_walltime` on.
    pub jobs: Vec<Job>,
    /// Events to pass to `Simulator::inject_all` before running.
    pub events: Vec<InjectedEvent>,
}

impl DisruptionConfig {
    /// A single node-drain episode (resource 0): `fraction` of the nodes
    /// go offline at `at` and return after `duration`.
    pub fn node_drain(fraction: f64, at: SimTime, duration: SimTime) -> Self {
        Self {
            drains: vec![DrainSpec { resource: 0, fraction, at, duration }],
            ..Self::default()
        }
    }

    /// Synthesize a disruption trace over `jobs` for `system`,
    /// deterministically from `seed`.
    pub fn synthesize(&self, jobs: &[Job], system: &SystemConfig, seed: u64) -> DisruptionTrace {
        assert!((0.0..=1.0).contains(&self.cancel_fraction), "cancel_fraction in [0,1]");
        assert!((0.0..=1.0).contains(&self.overrun_fraction), "overrun_fraction in [0,1]");
        assert!(self.overrun_factor > 1.0, "overrun_factor must exceed 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut jobs = jobs.to_vec();
        let mut events = Vec::new();
        for job in &mut jobs {
            let roll: f64 = rng.gen();
            if roll < self.cancel_fraction {
                let offset = rng.gen_range(0..job.estimate.max(1) + 1);
                events.push(InjectedEvent::new(
                    job.submit + offset,
                    EventKind::Cancel(job.id),
                ));
            } else if roll < self.cancel_fraction + self.overrun_fraction {
                // Overrun: true runtime exceeds the estimate; the
                // walltime enforcer will kill the job at start+estimate.
                job.runtime = (job.estimate as f64 * self.overrun_factor).ceil() as SimTime;
            }
        }
        for d in &self.drains {
            assert!(d.resource < system.num_resources(), "drain resource out of range");
            assert!(d.fraction > 0.0 && d.fraction <= 1.0, "drain fraction in (0,1]");
            let units = d.units(system.resources[d.resource].capacity) as i64;
            events.push(InjectedEvent::new(
                d.at,
                EventKind::CapacityChange { resource: d.resource, delta: -units },
            ));
            if d.duration > 0 {
                events.push(InjectedEvent::new(
                    d.at + d.duration,
                    EventKind::CapacityChange { resource: d.resource, delta: units },
                ));
            }
        }
        DisruptionTrace { jobs, events }
    }
}

/// Map SWF `cancelled` statuses to *wait-time-aware* relative cancels:
/// `(job id, recorded lifetime)` pairs for
/// `Simulator::schedule_cancel_after_start`, so each replayed cancel
/// fires at `start + runtime` of the **simulated** run.
///
/// This is the faithful mapping whenever the simulated schedule diverges
/// from the original (different policy, disruptions, backfilling): the
/// archive's runtime column records how long the cancelled job actually
/// ran, and that lifetime is anchored to the job's start — not its
/// submission. Killed jobs need no entry: the SWF convention leaves
/// their runtime at/above the request, so the walltime enforcer handles
/// them.
///
/// The delay comes from the *trace's* runtime column, not the job
/// list's — a synthetic overrun layer may have inflated a job's
/// `runtime` past the recorded lifetime, but the user's observed
/// cancel point is the recorded one.
pub fn swf_relative_cancels(jobs: &[Job], trace: &[TraceJob]) -> Vec<(usize, SimTime)> {
    jobs.iter()
        .zip(trace)
        .filter(|(_, t)| t.status == SwfStatus::Cancelled)
        .map(|(j, t)| (j.id, t.runtime))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(i, (i as SimTime) * 50, 300, 600, vec![1 + (i as u64 % 4), 0]))
            .collect()
    }

    fn system() -> SystemConfig {
        SystemConfig::two_resource(16, 8)
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DisruptionConfig {
            cancel_fraction: 0.2,
            overrun_fraction: 0.2,
            overrun_factor: 1.5,
            drains: vec![DrainSpec { resource: 0, fraction: 0.25, at: 100, duration: 500 }],
        };
        let a = cfg.synthesize(&jobs(200), &system(), 7);
        let b = cfg.synthesize(&jobs(200), &system(), 7);
        assert_eq!(a, b);
        let c = cfg.synthesize(&jobs(200), &system(), 8);
        assert_ne!(a, c, "different seeds pick different victims");
    }

    #[test]
    fn fractions_approximately_held_and_disjoint() {
        let cfg = DisruptionConfig {
            cancel_fraction: 0.25,
            overrun_fraction: 0.25,
            overrun_factor: 2.0,
            drains: vec![],
        };
        let base = jobs(2000);
        let t = cfg.synthesize(&base, &system(), 3);
        let cancels = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Cancel(_)))
            .count() as f64
            / base.len() as f64;
        let overruns = t.jobs.iter().filter(|j| j.runtime > j.estimate).count() as f64
            / base.len() as f64;
        assert!((cancels - 0.25).abs() < 0.04, "cancel fraction {cancels}");
        assert!((overruns - 0.25).abs() < 0.04, "overrun fraction {overruns}");
        // Disjoint: no cancelled job also overruns.
        for e in &t.events {
            if let EventKind::Cancel(id) = e.kind {
                assert!(t.jobs[id].runtime <= t.jobs[id].estimate);
            }
        }
    }

    #[test]
    fn cancel_times_fall_within_job_lifetime() {
        let cfg = DisruptionConfig { cancel_fraction: 1.0, ..Default::default() };
        let base = jobs(100);
        let t = cfg.synthesize(&base, &system(), 5);
        assert_eq!(t.events.len(), 100);
        for e in &t.events {
            if let EventKind::Cancel(id) = e.kind {
                let j = &base[id];
                assert!(e.time >= j.submit && e.time <= j.submit + j.estimate);
            }
        }
    }

    #[test]
    fn overruns_inflate_runtime_past_estimate() {
        let cfg = DisruptionConfig {
            overrun_fraction: 1.0,
            overrun_factor: 1.5,
            ..Default::default()
        };
        let t = cfg.synthesize(&jobs(50), &system(), 1);
        for j in &t.jobs {
            assert_eq!(j.runtime, (j.estimate as f64 * 1.5).ceil() as SimTime);
            assert!(j.runtime > j.estimate);
        }
    }

    #[test]
    fn node_drain_emits_paired_capacity_changes() {
        let cfg = DisruptionConfig::node_drain(0.25, 1000, 2000);
        let t = cfg.synthesize(&jobs(10), &system(), 1);
        assert_eq!(t.events.len(), 2);
        assert_eq!(
            t.events[0],
            InjectedEvent::new(1000, EventKind::CapacityChange { resource: 0, delta: -4 })
        );
        assert_eq!(
            t.events[1],
            InjectedEvent::new(3000, EventKind::CapacityChange { resource: 0, delta: 4 })
        );
    }

    #[test]
    fn permanent_drain_has_no_return() {
        let cfg = DisruptionConfig::node_drain(0.5, 100, 0);
        let t = cfg.synthesize(&jobs(10), &system(), 1);
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn swf_cancelled_statuses_become_cancel_events() {
        let base = jobs(4);
        let statuses = [
            SwfStatus::Completed,
            SwfStatus::Cancelled,
            SwfStatus::Failed,
            SwfStatus::Cancelled,
        ];
        let trace: Vec<TraceJob> = base
            .iter()
            .zip(statuses)
            .map(|(j, status)| TraceJob {
                submit: j.submit,
                runtime: j.runtime,
                estimate: j.estimate,
                nodes: j.demands[0],
                status,
            })
            .collect();
        // Only the cancelled jobs become cancels, each anchored to its
        // simulated start by the recorded lifetime.
        let relative = swf_relative_cancels(&base, &trace);
        assert_eq!(relative, vec![(1, base[1].runtime), (3, base[3].runtime)]);
    }

    #[test]
    fn relative_cancels_use_recorded_lifetime_not_inflated_runtime() {
        // A synthetic overrun layer inflates a job's runtime past its
        // estimate; the replayed cancel must still fire at the trace's
        // *recorded* lifetime.
        let base = jobs(2);
        let trace: Vec<TraceJob> = base
            .iter()
            .map(|j| TraceJob {
                submit: j.submit,
                runtime: j.runtime,
                estimate: j.estimate,
                nodes: j.demands[0],
                status: SwfStatus::Cancelled,
            })
            .collect();
        let cfg = DisruptionConfig {
            overrun_fraction: 1.0,
            overrun_factor: 2.0,
            ..Default::default()
        };
        let inflated = cfg.synthesize(&base, &system(), 1);
        assert!(inflated.jobs.iter().all(|j| j.runtime > j.estimate));
        let relative = swf_relative_cancels(&inflated.jobs, &trace);
        for (id, delay) in relative {
            assert_eq!(delay, trace[id].runtime, "delay anchors to the recorded lifetime");
        }
    }

    #[test]
    fn relative_cancels_replay_through_the_simulator() {
        use mrsim::policy::HeadOfQueue;
        use mrsim::simulator::{SimParams, Simulator};
        // Two machine-filling jobs: J1 starts only at J0's end (t=300),
        // while the proxy would cancel it at submit+runtime = 250 — as a
        // *queued* removal. The wait-aware replay cancels it mid-run at
        // 300 + 200 = 500 instead.
        let system = SystemConfig::two_resource(4, 8);
        let jobs = vec![
            Job::new(0, 0, 300, 400, vec![4, 0]),
            Job::new(1, 50, 200, 400, vec![4, 0]),
        ];
        let trace: Vec<TraceJob> = jobs
            .iter()
            .zip([SwfStatus::Completed, SwfStatus::Cancelled])
            .map(|(j, status)| TraceJob {
                submit: j.submit,
                runtime: j.runtime,
                estimate: j.estimate,
                nodes: j.demands[0],
                status,
            })
            .collect();
        let mut sim =
            Simulator::new(system, jobs.clone(), SimParams::new(5, true)).unwrap();
        for (id, delay) in swf_relative_cancels(&jobs, &trace) {
            sim.schedule_cancel_after_start(id, delay).unwrap();
        }
        let report = sim.run(&mut HeadOfQueue);
        let rec1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(rec1.start, 300);
        assert_eq!(rec1.end, 500, "cancel fires at simulated start + lifetime");
        assert_eq!(report.jobs_cancelled, 1);
        assert!(report.all_jobs_accounted(2));
    }
}

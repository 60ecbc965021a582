//! `fcfs-drain-resume`: `HeadOfQueue` with EASY backfill on a disrupted
//! stress trace (cancels, walltime overruns and kills, a tick chain, a
//! quarter of the nodes drained over the second quarter of the trace).
//! Each iteration runs to the middle of the drain, checkpoints with
//! `Simulator::snapshot`, continues from `Simulator::restore`, and runs
//! to the end. No DFP call happens here, so encoder and network changes
//! must leave this workload unchanged.

use crate::common::{
    check, digest, measure_same, peak_rss_mb, queue_len_mean, run_stepped, timed_setup, walls,
    Outcome, RunOpts, Samples, Spans, Timed,
};
use mrsch_workload::disruption::{DisruptionConfig, DrainSpec};
use mrsch_workload::scenario::mix_seed;
use mrsch_workload::StressConfig;
use mrsim::policy::{HeadOfQueue, Policy};
use mrsim::{InjectedEvent, Job, SimParams, SimReport, SimTime, Simulator, SystemConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: u64 = 256;
const BB: u64 = 32;
/// Jobs per trace (about two events each): under a second per iteration
/// and a snapshot of about 22 MB, so a run holds enough iterations for
/// their median to outvote a passing slowdown of the host.
const JOBS: usize = 250_000;

/// The disrupted trace and the checkpoint time, built from the seed.
pub struct Inputs {
    system: SystemConfig,
    params: SimParams,
    jobs: Vec<Job>,
    events: Vec<InjectedEvent>,
    /// Middle of the drain: the iteration checkpoints at the first
    /// event boundary at or past it.
    mid: SimTime,
}

/// What one resumed iteration produced.
#[derive(PartialEq)]
pub struct Resumed {
    pub report: SimReport,
    pub snapshot_bytes: usize,
    /// Node capacity was drained when the checkpoint was taken.
    pub drained_at_snapshot: bool,
}

impl Inputs {
    pub fn new(jobs_count: usize, seed: u64) -> Self {
        let system = SystemConfig::two_resource(NODES, BB);
        let clean =
            StressConfig::engine(jobs_count, vec![NODES, BB]).generate(mix_seed(seed, 0x2f));
        let span = clean.last().expect("nonempty trace").submit;
        let disruption = DisruptionConfig {
            cancel_fraction: 0.05,
            overrun_fraction: 0.05,
            overrun_factor: 1.5,
            drains: vec![DrainSpec {
                resource: 0,
                fraction: 0.25,
                at: span / 4,
                duration: span / 4,
            }],
        };
        let trace = disruption.synthesize(&clean, &system, mix_seed(seed, 0xd15));
        let params = SimParams {
            enforce_walltime: true,
            tick: Some(900),
            ..SimParams::new(10, true)
        };
        Self {
            system,
            params,
            jobs: trace.jobs,
            events: trace.events,
            mid: span / 4 + span / 8,
        }
    }

    fn simulator(&self) -> Simulator {
        let mut sim = Simulator::new(self.system.clone(), self.jobs.clone(), self.params)
            .expect("stress jobs fit the system");
        sim.inject_all(&self.events)
            .expect("synthesized events are valid");
        sim
    }

    /// The uninterrupted run the resumed one must reproduce.
    pub fn run_straight(&self) -> SimReport {
        self.simulator().run(&mut HeadOfQueue)
    }

    /// Run to the checkpoint, snapshot, restore, run to the end; a clock
    /// pair around every step, the snapshot and the restore.
    pub fn run_resumed(
        &self,
        policy: &mut dyn Policy,
        steps: &mut Samples,
        spans: &mut Spans,
    ) -> Resumed {
        let mut sim = spans.time("mrsim.build", || self.simulator());
        let run_start = Instant::now();
        while sim.now() < self.mid {
            let t0 = Instant::now();
            if !sim.step(policy) {
                break;
            }
            steps.record(t0.elapsed());
        }
        spans.add("mrsim.run", run_start.elapsed());
        let pools = sim.pools();
        let drained_at_snapshot = pools.capacity(0) < pools.base_capacity(0);
        let bytes = spans.time("snapshot.encode", || sim.snapshot());
        spans.time("mrsim.build", || drop(sim));
        let mut sim: Simulator = spans
            .time("snapshot.restore", || Simulator::restore(&bytes))
            .expect("a fresh snapshot restores");
        let report = spans.time("mrsim.run", || run_stepped(&mut sim, policy, steps));
        spans.time("mrsim.build", || drop(sim));
        Resumed {
            report,
            snapshot_bytes: bytes.len(),
            drained_at_snapshot,
        }
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let (inputs, setup_s) = timed_setup(5, || Inputs::new(JOBS, opts.seed));
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut steps = Samples::default();
    let mut spans = Spans::default();
    let (iter_walls, first, same) = measure_same(budget, 3, || {
        let resumed = inputs.run_resumed(&mut HeadOfQueue, &mut steps, &mut spans);
        steps.end_iteration();
        resumed
    });
    let straight = inputs.run_straight();
    let mut correct = check(
        first.report == straight,
        "fcfs-drain-resume: resumed report equals the uninterrupted one",
    ) & check(
        first.drained_at_snapshot,
        "fcfs-drain-resume: nodes are drained at the checkpoint",
    ) & check(
        straight.jobs_unfinished == 0,
        "fcfs-drain-resume: every job reaches a terminal state",
    ) & check(same, "fcfs-drain-resume: iterations agree");
    eprintln!(
        "fcfs-drain-resume: {} jobs, {} events, {} backfilled, snapshot {} bytes, report digest {:016x}",
        inputs.jobs.len(),
        straight.event_counts.total(),
        straight.backfilled_jobs,
        first.snapshot_bytes,
        digest(format!("{straight:?}").as_bytes())
    );
    eprintln!("{}", steps.describe("fcfs-drain-resume step"));
    let (wall_s, _) = walls("fcfs-drain-resume", &iter_walls);
    let events = straight.event_counts.total() as f64;
    let mut metrics = BTreeMap::new();
    if !opts.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("wall_s", wall_s);
        metrics.insert("events_per_s", events / wall_s);
        metrics.insert("op_p75_us", steps.percentile_us(75.0));
        metrics.insert("peak_rss_mb", peak_rss_mb());
    } else {
        let mut traced_steps = Samples::default();
        let mut spans = Spans::default();
        let mut selects = Samples::default();
        let (traced_walls, traced, same) = measure_same(budget, 2, || {
            let mut policy = HeadOfQueue;
            let mut timed = Timed {
                inner: &mut policy,
                samples: &mut selects,
            };
            let resumed = inputs.run_resumed(&mut timed, &mut traced_steps, &mut spans);
            traced_steps.end_iteration();
            selects.end_iteration();
            resumed
        });
        correct &= check(
            same && traced == first,
            "fcfs-drain-resume: traced run equals the untraced one",
        );
        let n = traced_walls.len() as f64;
        let (traced_wall, mean_wall) = walls("fcfs-drain-resume traced", &traced_walls);
        let run_s = spans.secs("mrsim.run") / n;
        let select_s = selects.total_s() / n;
        let encode_s = spans.secs("snapshot.encode") / n;
        let restore_s = spans.secs("snapshot.restore") / n;
        let build_s = spans.secs("mrsim.build") / n;
        metrics.extend([
            ("op_p50_us", steps.percentile_us(50.0)),
            ("op_p90_us", steps.percentile_us(90.0)),
            ("op_p99_us", steps.percentile_us(99.0)),
            ("mrsim.self_s", run_s - select_s),
            ("mrsim.select_s", select_s),
            ("mrsim.build_s", build_s),
            ("mrsim.step_us_p50", traced_steps.percentile_us(50.0)),
            ("mrsim.step_us_p99", traced_steps.percentile_us(99.0)),
            ("mrsim.events", events),
            ("mrsim.decisions", straight.decisions as f64),
            ("mrsim.instances", straight.instances as f64),
            ("mrsim.backfilled_jobs", straight.backfilled_jobs as f64),
            ("mrsim.queue_len_mean", queue_len_mean(&straight)),
            ("snapshot.encode_s", encode_s),
            ("snapshot.restore_s", restore_s),
            ("snapshot.bytes", first.snapshot_bytes as f64),
            ("resume_s", encode_s + restore_s),
            ("trace_overhead_frac", traced_wall / wall_s - 1.0),
            (
                "coverage_frac",
                (build_s + run_s + encode_s + restore_s) / mean_wall,
            ),
        ]);
    }
    Outcome {
        correct,
        attempted: inputs.jobs.len() as u64,
        failed: straight.jobs_unfinished as u64,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_run_matches_the_uninterrupted_one() {
        let inputs = Inputs::new(3_000, 4);
        let resumed = inputs.run_resumed(
            &mut HeadOfQueue,
            &mut Samples::default(),
            &mut Spans::default(),
        );
        assert!(resumed.drained_at_snapshot);
        assert!(resumed.snapshot_bytes > 0);
        assert_eq!(resumed.report, inputs.run_straight());
    }
}

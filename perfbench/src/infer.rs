//! `infer-loop`: an untrained, seeded MRSch schedules a clean stress
//! trace, one `Simulator::run` per iteration. This is the paper's
//! scheduler deciding inside the simulation loop; a DFP forward pass
//! sits behind every decision.

use crate::common::{
    check, digest, measure_same, peak_rss_mb, queue_len_mean, run_stepped, timed_setup, walls,
    Outcome, RunOpts, Samples, Spans, Timed,
};
use crate::flops::forward_flops;
use mrsch::{GoalMode, MrschBuilder, StateEncoder, TrainedMrschPolicy};
use mrsch_dfp::PolicySnapshot;
use mrsch_workload::scenario::mix_seed;
use mrsch_workload::StressConfig;
use mrsim::policy::{Policy, SchedulerView};
use mrsim::{Job, SimParams, SimReport, SimTime, Simulator, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: u64 = 256;
const BB: u64 = 32;
const WINDOW: usize = 10;
/// Jobs per trace: about 18k decisions and well under a second per
/// iteration, so a run holds enough iterations for their median to
/// outvote a passing slowdown of the host.
const JOBS: usize = 10_000;
/// The agent's weights stay fixed across workload seeds. A forward pass
/// costs the same for any weights, but each set of untrained weights
/// schedules differently, and with the weights following the seed the
/// decision-latency tail moved far more between seeds than between
/// runs of one seed.
const AGENT_SEED: u64 = 1;

/// Everything an iteration needs, built from the seed alone.
pub struct Inputs {
    pub system: SystemConfig,
    pub params: SimParams,
    pub jobs: Vec<Job>,
    pub policy: TrainedMrschPolicy,
}

impl Inputs {
    pub fn new(system: SystemConfig, jobs: Vec<Job>, seed: u64) -> Self {
        let params = SimParams::new(WINDOW, true);
        let policy = MrschBuilder::new(system.clone(), params)
            .seed(seed)
            .build()
            .into_eval_policy();
        Self {
            system,
            params,
            jobs,
            policy,
        }
    }

    /// The workload's inputs: the trace follows the seed.
    fn generate(seed: u64) -> Self {
        let jobs = StressConfig::engine(JOBS, vec![NODES, BB]).generate(mix_seed(seed, 0x1f));
        Self::new(SystemConfig::two_resource(NODES, BB), jobs, AGENT_SEED)
    }

    fn simulator(&self) -> Simulator {
        Simulator::new(self.system.clone(), self.jobs.clone(), self.params)
            .expect("stress jobs fit the system")
    }

    /// One untraced run of the library policy; each `select` call is a
    /// latency sample.
    pub fn run_library(&mut self, decisions: &mut Samples) -> SimReport {
        let mut sim = self.simulator();
        self.policy.reset();
        sim.run(&mut Timed {
            inner: &mut self.policy,
            samples: decisions,
        })
    }

    /// One traced run of [`TracedMrsch`] over the same frozen weights.
    pub fn run_traced(&self, spans: &mut Spans, steps: &mut Samples) -> SimReport {
        let mut sim = self.simulator();
        let snap = self.policy.agent().snapshot();
        let encoder = StateEncoder::with_hour_scale(self.system.clone(), self.params.window);
        let mut policy = TracedMrsch::new(&snap, &encoder, &GoalMode::Dynamic, spans);
        let t0 = Instant::now();
        let report = run_stepped(&mut sim, &mut policy, steps);
        spans.add("mrsim.run", t0.elapsed());
        report
    }
}

/// The body of `TrainedMrschPolicy::select` rebuilt from the same public
/// calls, with a span around each call into a layer.
pub struct TracedMrsch<'a> {
    snap: &'a PolicySnapshot,
    encoder: &'a StateEncoder,
    goal_mode: &'a GoalMode,
    /// Never read: kept so the replica does the library's per-decision
    /// work.
    goal_log: Vec<(SimTime, Vec<f32>)>,
    /// Unused by greedy acting; the snapshot's API takes one.
    rng: StdRng,
    spans: &'a mut Spans,
}

impl<'a> TracedMrsch<'a> {
    pub fn new(
        snap: &'a PolicySnapshot,
        encoder: &'a StateEncoder,
        goal_mode: &'a GoalMode,
        spans: &'a mut Spans,
    ) -> Self {
        Self {
            snap,
            encoder,
            goal_mode,
            goal_log: Vec::new(),
            rng: StdRng::seed_from_u64(0),
            spans,
        }
    }
}

impl Policy for TracedMrsch<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        let t0 = Instant::now();
        let state = self.spans.time("core.encode", || self.encoder.encode(view));
        let meas: Vec<f32> = self.spans.time("core.inputs", || {
            view.measurement().iter().map(|&x| x as f32).collect()
        });
        let goal = self
            .spans
            .time("core.goal", || self.goal_mode.goal_for(view));
        let valid = self
            .spans
            .time("core.inputs", || self.encoder.valid_actions(view));
        self.goal_log.push((view.now, goal.clone()));
        let (snap, rng) = (self.snap, &mut self.rng);
        let action = self.spans.time("dfp.act", || {
            snap.act(&state, &meas, &goal, &valid, false, rng)
        });
        self.spans.add("select", t0.elapsed());
        action
    }

    fn name(&self) -> &'static str {
        "mrsch-traced"
    }
}

fn report_digest(r: &SimReport) -> u64 {
    digest(format!("{r:?}").as_bytes())
}

pub fn run(opts: &RunOpts) -> Outcome {
    let (mut inputs, setup_s) = timed_setup(5, || Inputs::generate(opts.seed));
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut decisions = Samples::default();
    let (iter_walls, reference, same) = measure_same(budget, 3, || {
        let report = inputs.run_library(&mut decisions);
        decisions.end_iteration();
        report
    });
    let mut correct = check(
        reference.jobs_unfinished == 0,
        "infer-loop: every job finishes",
    ) & check(
        reference.all_jobs_accounted(inputs.jobs.len()),
        "infer-loop: every job accounted",
    ) & check(same, "infer-loop: iterations agree");
    eprintln!(
        "infer-loop: {} jobs, {} decisions, {} events, report digest {:016x}",
        inputs.jobs.len(),
        reference.decisions,
        reference.event_counts.total(),
        report_digest(&reference)
    );
    eprintln!("{}", decisions.describe("infer-loop select"));
    let (wall_s, _) = walls("infer-loop", &iter_walls);
    let events = reference.event_counts.total() as f64;
    let mut metrics = BTreeMap::new();
    if !opts.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("wall_s", wall_s);
        metrics.insert("events_per_s", events / wall_s);
        metrics.insert("op_p75_us", decisions.percentile_us(75.0));
        metrics.insert("peak_rss_mb", peak_rss_mb());
    } else {
        let mut spans = Spans::default();
        let mut steps = Samples::default();
        let (traced_walls, traced, same) = measure_same(budget, 2, || {
            let report = inputs.run_traced(&mut spans, &mut steps);
            steps.end_iteration();
            report
        });
        correct &= check(
            same && traced == reference,
            "infer-loop: traced report equals the library report",
        );
        eprintln!("{}", steps.describe("infer-loop step"));
        let n = traced_walls.len() as f64;
        let (traced_wall, mean_wall) = walls("infer-loop traced", &traced_walls);
        let per_iter = |name: &str| spans.secs(name) / n;
        let self_s = per_iter("mrsim.run") - per_iter("select");
        let covered = self_s
            + per_iter("core.encode")
            + per_iter("core.inputs")
            + per_iter("core.goal")
            + per_iter("dfp.act");
        let flops = forward_flops(inputs.policy.agent().config(), 1) as f64;
        metrics.extend([
            ("op_p50_us", decisions.percentile_us(50.0)),
            ("op_p90_us", decisions.percentile_us(90.0)),
            ("op_p99_us", decisions.percentile_us(99.0)),
            ("dfp.act_s", per_iter("dfp.act")),
            ("dfp.act_us", spans.mean_us("dfp.act")),
            (
                "dfp.act_gflops_computed",
                flops * spans.calls("dfp.act") as f64 / spans.secs("dfp.act") / 1e9,
            ),
            ("core.encode_s", per_iter("core.encode")),
            ("core.encode_us", spans.mean_us("core.encode")),
            ("core.goal_s", per_iter("core.goal")),
            ("core.inputs_s", per_iter("core.inputs")),
            ("mrsim.self_s", self_s),
            ("mrsim.step_us_p50", steps.percentile_us(50.0)),
            ("mrsim.step_us_p99", steps.percentile_us(99.0)),
            ("mrsim.events", events),
            ("mrsim.decisions", reference.decisions as f64),
            ("mrsim.instances", reference.instances as f64),
            ("mrsim.backfilled_jobs", reference.backfilled_jobs as f64),
            ("mrsim.queue_len_mean", queue_len_mean(&reference)),
            ("trace_overhead_frac", traced_wall / wall_s - 1.0),
            ("coverage_frac", covered / mean_wall),
        ]);
    }
    Outcome {
        correct,
        attempted: inputs.jobs.len() as u64,
        failed: reference.jobs_unfinished as u64,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replica_matches_the_library_policy() {
        let system = SystemConfig::two_resource(32, 8);
        let jobs = StressConfig::engine(300, vec![32, 8]).generate(5);
        let mut inputs = Inputs::new(system, jobs, 11);
        let library = inputs.run_library(&mut Samples::default());
        let mut spans = Spans::default();
        let traced = inputs.run_traced(&mut spans, &mut Samples::default());
        assert!(library.decisions > 0);
        assert_eq!(library, traced);
        assert!(
            spans.calls("dfp.act") > 0,
            "the replica acted through the snapshot"
        );
    }
}

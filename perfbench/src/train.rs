//! `train-curriculum`: `Mrsch::train_with_curriculum` on the default
//! barrier trainer over a disruption-hardening curriculum (clean, then
//! cancel/overrun-heavy, then drain-heavy). The learner dominates, at
//! batch 32 where `infer-loop` runs the same linear algebra at batch 1.
//!
//! The traced run replays the engine's barrier round loop from public
//! calls, with a span around each; its checkpoint must be byte-identical
//! to the engine's, which is what catches the replica drifting.

use crate::common::{
    check, digest, measure_same, peak_rss_mb, timed_setup, walls, Outcome, RunOpts, Samples, Spans,
};
use crate::flops::train_step_flops;
use mrsch::{GoalMode, MrschBuilder, StateEncoder};
use mrsch_dfp::{EpisodeRecorder, PolicySnapshot};
use mrsch_workload::disruption::DisruptionConfig;
use mrsch_workload::scenario::{mix_seed, Curriculum, JobSource, Scenario};
use mrsch_workload::suite::WorkloadSpec;
use mrsch_workload::theta::ThetaConfig;
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::{SimParams, SimReport, Simulator, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: u64 = 64;
const BB: u64 = 16;
const WINDOW: usize = 10;
/// Jobs per episode and episodes per phase: 12 episodes and 384
/// gradient steps per iteration.
const JOBS: usize = 100;
const EPISODES_PER_PHASE: usize = 4;
/// The engine's salt for per-episode rollout seeds.
const ROLLOUT_SALT: u64 = 0x5ce7_a710;

/// Seeded agent recipe and curriculum.
pub struct Inputs {
    builder: MrschBuilder,
    system: SystemConfig,
    curriculum: Curriculum,
    seed: u64,
}

/// What a training run leaves behind, compared across runs and paths.
#[derive(Debug, PartialEq)]
pub struct Trained {
    pub checkpoint: Vec<u8>,
    pub episodes: usize,
    pub grad_steps: u64,
    pub decisions: u64,
    pub events: u64,
    pub instances: u64,
    pub backfilled: usize,
    pub unfinished: usize,
}

impl Trained {
    fn new<'r>(mrsch: &mut mrsch::Mrsch, reports: impl Iterator<Item = &'r SimReport>) -> Self {
        let mut t = Trained {
            checkpoint: mrsch.agent_mut().network_mut().save_checkpoint().to_vec(),
            episodes: 0,
            grad_steps: mrsch.agent().train_steps(),
            decisions: 0,
            events: 0,
            instances: 0,
            backfilled: 0,
            unfinished: 0,
        };
        for r in reports {
            t.episodes += 1;
            t.decisions += r.decisions;
            t.events += r.event_counts.total();
            t.instances += r.instances;
            t.backfilled += r.backfilled_jobs;
            t.unfinished += r.jobs_unfinished;
        }
        t
    }
}

impl Inputs {
    pub fn new(nodes: u64, bb: u64, jobs: usize, per_phase: usize, seed: u64) -> Self {
        let system = SystemConfig::two_resource(nodes, bb);
        let params = SimParams::new(WINDOW, true);
        let theta = ThetaConfig {
            machine_nodes: nodes,
            ..ThetaConfig::scaled(jobs)
        };
        let span = (theta.mean_interarrival * jobs as f64) as u64;
        let clean = Scenario::new("clean", JobSource::Theta(theta), WorkloadSpec::s1(), params)
            .with_seed(seed);
        let cancel_heavy = DisruptionConfig {
            cancel_fraction: 0.2,
            overrun_fraction: 0.1,
            overrun_factor: 1.5,
            drains: Vec::new(),
        };
        let drain_heavy = DisruptionConfig::node_drain(0.25, span / 3, 3600);
        let curriculum =
            Curriculum::disruption_hardening(clean, cancel_heavy, drain_heavy, per_phase);
        let builder = MrschBuilder::new(system.clone(), params).seed(seed);
        Self {
            builder,
            system,
            curriculum,
            seed,
        }
    }

    /// The library engine, one `train_with_curriculum` call per phase
    /// (the engine carries all state in the agent, so this equals one
    /// call over the whole curriculum); each call is a latency sample.
    pub fn train_library(&self, phases: &mut Samples) -> Trained {
        let mut mrsch = self.builder.clone().build();
        let mut reports = Vec::new();
        for phase in self.curriculum.phases() {
            let one = Curriculum::new().phase(phase.clone());
            let t0 = Instant::now();
            let out = mrsch.train_with_curriculum(&one);
            phases.record(t0.elapsed());
            reports.extend(out.reports().cloned());
        }
        Trained::new(&mut mrsch, reports.iter())
    }

    /// The engine's barrier round loop rebuilt from public calls, with a
    /// span around each call into a layer.
    pub fn train_replica(&self, spans: &mut Spans) -> Trained {
        let mut mrsch = self.builder.clone().build();
        let trainer = mrsch.trainer().clone();
        let params = mrsch.params();
        let encoder = StateEncoder::with_hour_scale(self.system.clone(), params.window);
        let master = mix_seed(self.seed, ROLLOUT_SALT);
        let mut reports = Vec::new();
        for phase in self.curriculum.phases() {
            let phase_goal = match &phase.goal {
                Some(s) => GoalMode::Fixed(s.goal_at(0, phase.episodes)),
                None => GoalMode::Dynamic,
            };
            let mut losses = Vec::new();
            let mut done = 0;
            while done < phase.episodes {
                let count = trainer.round_size.max(1).min(phase.episodes - done);
                let agent = mrsch.agent_mut();
                let base = agent.episodes();
                let cfg = agent.config().clone();
                let snap = spans.time("dfp.snapshot", || agent.snapshot());
                // The engine reuses one simulator across a round.
                let mut sim: Option<Simulator> = None;
                let mut results = Vec::with_capacity(count);
                for k in 0..count {
                    let spec = spans.time("workload.materialize", || {
                        phase.scenario.materialize(&self.system, (done + k) as u64)
                    });
                    let annealed = match &phase.goal {
                        Some(s) if !s.is_fixed() => {
                            Some(GoalMode::Fixed(s.goal_at(done + k, phase.episodes)))
                        }
                        _ => None,
                    };
                    let episode = base + k as u64;
                    let mut policy = Rollout {
                        snap: &snap,
                        epsilon: cfg.epsilon_at(episode),
                        encoder: &encoder,
                        goal_mode: annealed.as_ref().unwrap_or(&phase_goal),
                        recorder: EpisodeRecorder::new(),
                        rng: StdRng::seed_from_u64(mix_seed(master, episode)),
                        awaiting: false,
                        spans: &mut *spans,
                    };
                    let t0 = Instant::now();
                    match &mut sim {
                        Some(s) => spec.install(s).expect("scenario jobs fit the system"),
                        None => {
                            sim = Some(
                                spec.simulator(self.system.clone())
                                    .expect("scenario jobs fit the system"),
                            )
                        }
                    }
                    let report = sim.as_mut().expect("just built").run(&mut policy);
                    let Rollout {
                        mut recorder,
                        spans: s,
                        ..
                    } = policy;
                    s.add("rollout.sim", t0.elapsed());
                    let exps = s.time("rollout.record", || {
                        recorder.finish(&cfg.offsets, cfg.measurement_dim)
                    });
                    results.push((exps, report));
                }
                let agent = mrsch.agent_mut();
                for (exps, report) in results {
                    spans.time("dfp.absorb", || agent.absorb_episode(exps));
                    reports.push(report);
                }
                for _ in 0..count * trainer.batches_per_episode {
                    spans.time("dfp.train_batch", || agent.train_batch());
                }
                let loss = spans.time("dfp.eval_loss", || agent.eval_loss(256));
                losses.push(loss.unwrap_or(f32::NAN));
                done += count;
                if phase.plateau_reached(&losses) {
                    break;
                }
            }
        }
        Trained::new(&mut mrsch, reports.iter())
    }
}

/// The engine's rollout policy: ε-greedy through a frozen snapshot with
/// a per-episode RNG, recording the episode for the learner.
struct Rollout<'a> {
    snap: &'a PolicySnapshot,
    epsilon: f32,
    encoder: &'a StateEncoder,
    goal_mode: &'a GoalMode,
    recorder: EpisodeRecorder,
    rng: StdRng,
    awaiting: bool,
    spans: &'a mut Spans,
}

impl Policy for Rollout<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        if view.window.is_empty() {
            return None;
        }
        let t0 = Instant::now();
        let (state, meas, goal, valid) = self.spans.time("rollout.encode", || {
            let meas: Vec<f32> = view.measurement().iter().map(|&x| x as f32).collect();
            (
                self.encoder.encode(view),
                meas,
                self.goal_mode.goal_for(view),
                self.encoder.valid_actions(view),
            )
        });
        let (snap, epsilon, rng) = (self.snap, self.epsilon, &mut self.rng);
        let action = self.spans.time("rollout.act", || {
            snap.act_with_epsilon(epsilon, &state, &meas, &goal, &valid, true, rng)
        });
        if let Some(a) = action {
            self.spans.time("rollout.record", || {
                self.recorder.record_step(&state, &meas, &goal, a)
            });
            self.awaiting = true;
        }
        self.spans.add("rollout.policy", t0.elapsed());
        action
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        if std::mem::take(&mut self.awaiting) {
            let t0 = Instant::now();
            let meas_after: Vec<f32> = fb.measurement.iter().map(|&x| x as f32).collect();
            self.recorder.record_outcome(&meas_after);
            let d = t0.elapsed();
            self.spans.add("rollout.record", d);
            self.spans.add("rollout.policy", d);
        }
    }

    fn name(&self) -> &'static str {
        "mrsch-rollout-traced"
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    // Set-up is what a user pays before training starts: the curriculum
    // and a freshly initialized agent (each iteration trains its own).
    let (inputs, setup_s) = timed_setup(5, || {
        let inputs = Inputs::new(NODES, BB, JOBS, EPISODES_PER_PHASE, opts.seed);
        std::hint::black_box(inputs.builder.clone().build());
        inputs
    });
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut phases = Samples::default();
    let (iter_walls, first, same) = measure_same(budget, 3, || {
        let trained = inputs.train_library(&mut phases);
        phases.end_iteration();
        trained
    });
    let batches = mrsch::TrainerConfig::default().batches_per_episode as u64;
    let mut correct = check(
        first.unfinished == 0,
        "train-curriculum: every rollout job finishes",
    ) & check(
        first.episodes == 3 * EPISODES_PER_PHASE,
        "train-curriculum: every episode ran",
    ) & check(
        first.grad_steps > 0 && first.grad_steps <= first.episodes as u64 * batches,
        "train-curriculum: gradient steps within the episode budget",
    ) & check(same, "train-curriculum: iterations agree");
    eprintln!(
        "train-curriculum: {} episodes, {} gradient steps, {} decisions, checkpoint digest {:016x}",
        first.episodes,
        first.grad_steps,
        first.decisions,
        digest(&first.checkpoint)
    );
    eprintln!("{}", phases.describe("train-curriculum phase"));
    let (wall_s, _) = walls("train-curriculum", &iter_walls);
    let mut metrics = BTreeMap::new();
    if !opts.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("wall_s", wall_s);
        metrics.insert("events_per_s", first.events as f64 / wall_s);
        metrics.insert("op_p75_us", phases.percentile_us(75.0));
        metrics.insert("peak_rss_mb", peak_rss_mb());
    } else {
        let mut spans = Spans::default();
        let (traced_walls, traced, same) =
            measure_same(budget, 2, || inputs.train_replica(&mut spans));
        correct &= check(
            same && traced == first,
            "train-curriculum: replica checkpoint is byte-identical to the engine's",
        );
        let n = traced_walls.len() as f64;
        let (traced_wall, mean_wall) = walls("train-curriculum traced", &traced_walls);
        let per_iter = |name: &str| spans.secs(name) / n;
        let self_s = per_iter("rollout.sim") - per_iter("rollout.policy");
        let learner = [
            "dfp.train_batch",
            "dfp.eval_loss",
            "dfp.absorb",
            "dfp.snapshot",
        ];
        let rollout = [
            "rollout.encode",
            "rollout.act",
            "rollout.record",
            "workload.materialize",
        ];
        let covered = self_s
            + learner
                .iter()
                .chain(&rollout)
                .map(|s| per_iter(s))
                .sum::<f64>();
        let flops = train_step_flops(inputs.builder.clone().build().agent().config()) as f64;
        let steps = first.grad_steps as f64;
        metrics.extend([
            ("op_p50_us", phases.percentile_us(50.0)),
            ("op_p90_us", phases.percentile_us(90.0)),
            ("op_p99_us", phases.percentile_us(99.0)),
            ("dfp.train_batch_s", per_iter("dfp.train_batch")),
            (
                "dfp.train_batch_ms",
                per_iter("dfp.train_batch") / steps * 1e3,
            ),
            (
                "dfp.train_batch_gflops_computed",
                flops * steps / per_iter("dfp.train_batch") / 1e9,
            ),
            ("dfp.eval_loss_s", per_iter("dfp.eval_loss")),
            ("dfp.absorb_s", per_iter("dfp.absorb")),
            ("dfp.snapshot_s", per_iter("dfp.snapshot")),
            ("rollout.sim_s", per_iter("rollout.sim")),
            ("rollout.encode_s", per_iter("rollout.encode")),
            ("rollout.act_s", per_iter("rollout.act")),
            ("rollout.record_s", per_iter("rollout.record")),
            ("workload.materialize_s", per_iter("workload.materialize")),
            ("mrsim.self_s", self_s),
            ("mrsim.events", first.events as f64),
            ("mrsim.decisions", first.decisions as f64),
            ("mrsim.instances", first.instances as f64),
            ("mrsim.backfilled_jobs", first.backfilled as f64),
            ("train.episodes", first.episodes as f64),
            ("train.grad_steps", steps),
            ("train.decisions", first.decisions as f64),
            ("trace_overhead_frac", traced_wall / wall_s - 1.0),
            ("coverage_frac", covered / mean_wall),
        ]);
    }
    Outcome {
        correct,
        attempted: first.episodes as u64,
        failed: (3 * EPISODES_PER_PHASE).saturating_sub(first.episodes) as u64,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_checkpoint_matches_the_engine() {
        let inputs = Inputs::new(16, 8, 20, 2, 9);
        let library = inputs.train_library(&mut Samples::default());
        let mut spans = Spans::default();
        let replica = inputs.train_replica(&mut spans);
        assert_eq!(library.episodes, 6);
        assert!(library.grad_steps > 0);
        assert_eq!(library, replica);
        assert!(spans.calls("rollout.act") > 0);
    }
}

//! The scenario-driven training engine: curriculum phases rolled out by
//! parallel workers, merged deterministically into one learner.
//!
//! # Architecture
//!
//! Training proceeds in **rounds** of at most
//! [`TrainerConfig::round_size`] episodes, materialized from the active
//! curriculum phase's scenario. Rollout workers claim global episode
//! indices and roll each one out against a frozen
//! [`mrsch_dfp::PolicySnapshot`] on a private `Simulator` (reused across
//! episodes via `Simulator::load`), with a private RNG seeded from the
//! master seed and the episode index. The learner
//! ([`mrsch_dfp::DfpAgent`]) runs beside them on the caller's thread: it
//! absorbs each round's results **in episode order**, takes
//! `round_size × batches_per_episode` gradient steps, and publishes the
//! next snapshot. A single worker at `max_staleness = 0` could never
//! overlap the learner, so then no thread is spawned and the learner
//! rolls the episodes out itself.
//!
//! # Staleness and determinism
//!
//! A round-`r` episode waits until a snapshot version
//! `>= r - max_staleness` is published and then rolls out against
//! version `min(published, r)`. At the default `max_staleness = 0` that
//! is exactly version `r`, a round barrier: an episode's experience
//! stream is a pure function of `(snapshot, scenario, episode index,
//! master seed)`, so `workers = 1` and `workers = N` give
//! **bit-identical** network parameters and per-episode `SimReport`s
//! (`tests/training_determinism.rs` pins it). Worker count is a
//! wall-clock knob, not a semantics knob. `max_staleness > 0` lets
//! workers run ahead of the learner; which snapshot a rollout sees then
//! depends on timing, and so do the trained weights.

use crate::agent::DecisionInputs;
use crate::encoder::StateEncoder;
use crate::goal::GoalMode;
use crate::training::Mrsch;
use mrsch_dfp::rollout::EpisodeRecorder;
use mrsch_dfp::{Experience, PolicySnapshot};
use mrsch_workload::scenario::{mix_seed, Curriculum, CurriculumPhase, EpisodeSpec};
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::resources::SystemConfig;
use mrsim::simulator::Simulator;
use mrsim::SimReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Training-loop knobs, split out of `MrschBuilder` so the same agent
/// definition can be trained serially, in parallel, or under different
/// synchronization granularities.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Rollout worker threads. At `max_staleness = 0` more workers never
    /// change the result, only the wall-clock.
    pub workers: usize,
    /// Episodes rolled out under one frozen policy snapshot. This *does*
    /// affect results (it is the learner's synchronization granularity),
    /// so it is a config value — never derived from the worker count.
    pub round_size: usize,
    /// Gradient steps per absorbed episode.
    pub batches_per_episode: usize,
    /// How many snapshot versions a rollout may lag behind its round.
    /// `0` is the deterministic round barrier; `k > 0` overlaps rollout
    /// with learning, and the trained weights then depend on timing.
    pub max_staleness: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self { workers: 1, round_size: 4, batches_per_episode: 32, max_staleness: 0 }
    }
}

impl TrainerConfig {
    /// Set the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Set the frozen-snapshot round size.
    pub fn round_size(mut self, n: usize) -> Self {
        self.round_size = n.max(1);
        self
    }

    /// Set the gradient steps per episode.
    pub fn batches_per_episode(mut self, n: usize) -> Self {
        self.batches_per_episode = n;
        self
    }

    /// Set the staleness bound (`0` keeps the round barrier).
    pub fn max_staleness(mut self, k: usize) -> Self {
        self.max_staleness = k;
        self
    }
}

/// Result of training one curriculum phase.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// The phase's scenario name.
    pub name: String,
    /// Episodes trained in this phase.
    pub episodes: usize,
    /// Replay eval loss after each round (NaN until replay holds data).
    pub round_losses: Vec<f32>,
    /// Per-episode rollout reports, in episode order — disruption
    /// counters included, so a phase's cancel/kill/drain exposure is
    /// auditable.
    pub reports: Vec<SimReport>,
}

/// Result of a whole curriculum run.
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// One outcome per curriculum phase, in training order.
    pub phases: Vec<PhaseOutcome>,
}

impl EngineOutcome {
    /// Total episodes trained.
    pub fn total_episodes(&self) -> usize {
        self.phases.iter().map(|p| p.episodes).sum()
    }

    /// All per-episode reports in training order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.phases.iter().flat_map(|p| p.reports.iter())
    }

    /// The last finite round loss, if any.
    pub fn final_loss(&self) -> Option<f32> {
        self.phases
            .iter()
            .flat_map(|p| p.round_losses.iter())
            .rev()
            .find(|l| l.is_finite())
            .copied()
    }
}

/// Train `mrsch` over `curriculum` with its own [`TrainerConfig`], phase
/// by phase (the body of `Mrsch::train_with_curriculum`).
pub(crate) fn train(mrsch: &mut Mrsch, curriculum: &Curriculum) -> EngineOutcome {
    let cfg = mrsch.trainer().clone();
    let system = mrsch.system().clone();
    let encoder = mrsch.encoder_ref().clone();
    let master = mix_seed(mrsch.master_seed(), 0x5ce7a710);
    let mut outcome = EngineOutcome::default();
    for phase in curriculum.phases() {
        // The phase-level mode covers fixed schedules exactly; an
        // annealed schedule additionally stamps a per-episode goal onto
        // each rollout task below.
        let goal_mode = match &phase.goal {
            Some(s) => GoalMode::Fixed(s.goal_at(0, phase.episodes)),
            None => mrsch.goal_mode_ref().clone(),
        };
        outcome
            .phases
            .push(train_phase(mrsch, &cfg, phase, &goal_mode, &system, &encoder, master));
    }
    outcome
}

/// Train one phase: workers claim global episode indices and roll them
/// out against the freshest *published* snapshot within the staleness
/// window, pushing results into a bounded in-order channel; the learner
/// absorbs each round in episode order, trains, and publishes the next
/// snapshot without ever stopping the workers.
///
/// Round-`r` episodes wait until a snapshot version `>= r -
/// max_staleness` is published and then use `min(published, r)` — at
/// staleness 0 that is *exactly* version `r`, and since the learner
/// cannot finish round `r` before every round-`r` episode is absorbed,
/// `published` can never exceed `r` while one is pending: the round
/// barrier, whatever the worker count.
fn train_phase(
    mrsch: &mut Mrsch,
    cfg: &TrainerConfig,
    phase: &CurriculumPhase,
    goal_mode: &GoalMode,
    system: &SystemConfig,
    encoder: &StateEncoder,
    master: u64,
) -> PhaseOutcome {
    let total = phase.episodes;
    let mut phase_out = PhaseOutcome {
        name: phase.scenario.name.clone(),
        episodes: total,
        round_losses: Vec::new(),
        reports: Vec::new(),
    };
    if total == 0 {
        return phase_out;
    }
    let round_size = cfg.round_size.max(1);
    let workers = cfg.workers.max(1);
    let staleness = cfg.max_staleness;
    let num_rounds = total.div_ceil(round_size);
    // Global episode bookkeeping is captured once up front: the
    // learner's episode counter only ever advances by the absorbed
    // episode count, so `eps0 + k` is episode `k`'s global index.
    let eps0 = mrsch.agent().episodes();
    let dfp_cfg = mrsch.agent().config().clone();

    // slots[v] holds snapshot version v: slot 0 is the pre-phase
    // snapshot, slot v the weights after training rounds 0..v. Write
    // once (learner), read many (workers) — no lock on the read path.
    let slots: Vec<OnceLock<PolicySnapshot>> = (0..num_rounds).map(|_| OnceLock::new()).collect();
    slots[0]
        .set(mrsch.agent().snapshot())
        .unwrap_or_else(|_| unreachable!("slot 0 set exactly once"));

    // Claims are gated on the staleness window, so at most
    // (staleness + 2) rounds of results are ever in flight — the
    // channel bound below can only stall a worker that is already
    // outside the window.
    let cap = (staleness + 2) * round_size;
    let shared = Mutex::new(PipeShared { published: 0, stop: false, buf: BTreeMap::new() });
    let cv = Condvar::new();
    let next_episode = AtomicUsize::new(0);

    // Roll out episode `k` against snapshot `version`, on whichever
    // thread calls it.
    let roll_out = |k: usize, version: usize, sim: &mut Option<Simulator>| {
        let snap = slots[version].get().expect("published snapshot is set");
        let task = RolloutTask {
            spec: phase.scenario.materialize(system, k as u64),
            epsilon: dfp_cfg.epsilon_at(eps0 + k as u64),
            seed: mix_seed(master, eps0 + k as u64),
            goal: episode_goal(phase, k),
        };
        rollout_episode(snap, encoder, goal_mode, system, sim, &task)
    };
    // A lone worker at staleness 0 could only ever run while the learner
    // waits for it, so the learner rolls its episodes out itself instead:
    // the same episodes against the same snapshots, with no thread
    // hand-off on the critical path.
    let threads = if workers == 1 && staleness == 0 { 0 } else { workers };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let shared = &shared;
            let cv = &cv;
            let next_episode = &next_episode;
            let roll_out = &roll_out;
            scope.spawn(move || {
                let mut sim: Option<Simulator> = None;
                loop {
                    let k = next_episode.fetch_add(1, Ordering::SeqCst);
                    if k >= total {
                        break;
                    }
                    let round = k / round_size;
                    let need = round.saturating_sub(staleness);
                    let version = {
                        let mut st = shared.lock().expect("pipeline lock");
                        while st.published < need && !st.stop {
                            st = cv.wait(st).expect("pipeline lock");
                        }
                        if st.stop {
                            break;
                        }
                        st.published.min(round)
                    };
                    let result = roll_out(k, version, &mut sim);
                    let mut st = shared.lock().expect("pipeline lock");
                    while st.buf.len() >= cap && !st.stop {
                        st = cv.wait(st).expect("pipeline lock");
                    }
                    if st.stop {
                        // The learner is done with this phase; the
                        // in-flight result is never absorbed.
                        break;
                    }
                    st.buf.insert(k, result);
                    cv.notify_all();
                }
            });
        }

        // The learner runs on the scope's own thread: absorb each
        // round in episode order, train, publish the next snapshot.
        let mut inline_sim: Option<Simulator> = None;
        let mut done = 0;
        for round in 0..num_rounds {
            let count = round_size.min(total - done);
            for i in 0..count {
                let idx = done + i;
                let (exps, report) = if threads == 0 {
                    roll_out(idx, round, &mut inline_sim)
                } else {
                    let mut st = shared.lock().expect("pipeline lock");
                    loop {
                        if let Some(r) = st.buf.remove(&idx) {
                            cv.notify_all();
                            break r;
                        }
                        st = cv.wait(st).expect("pipeline lock");
                    }
                };
                mrsch.agent_mut().absorb_episode(exps);
                phase_out.reports.push(report);
            }
            for _ in 0..count * cfg.batches_per_episode {
                mrsch.agent_mut().train_batch();
            }
            phase_out
                .round_losses
                .push(mrsch.agent_mut().eval_loss(256).unwrap_or(f32::NAN));
            done += count;
            if done >= total || phase.plateau_reached(&phase_out.round_losses) {
                let mut st = shared.lock().expect("pipeline lock");
                st.stop = true;
                cv.notify_all();
                break;
            }
            let version = round + 1;
            slots[version]
                .set(mrsch.agent().snapshot())
                .unwrap_or_else(|_| unreachable!("each snapshot published exactly once"));
            let mut st = shared.lock().expect("pipeline lock");
            st.published = version;
            cv.notify_all();
        }
        phase_out.episodes = done;
    });
    phase_out
}

/// Shared learner/worker state for the round loop. One mutex (the
/// critical sections are microseconds against millisecond episodes) and
/// one condvar: waiters re-check their own predicate on every change.
struct PipeShared {
    /// Highest published snapshot version; `slots[0..=published]` are set.
    published: usize,
    /// Set when the phase is over (budget or plateau): workers drain out.
    stop: bool,
    /// Completed episodes keyed by global index — the bounded in-order
    /// channel between workers and learner.
    buf: BTreeMap<usize, (Vec<Experience>, SimReport)>,
}

/// One episode's inputs: everything a worker needs, nothing shared.
pub(crate) struct RolloutTask {
    pub(crate) spec: EpisodeSpec,
    pub(crate) epsilon: f32,
    pub(crate) seed: u64,
    /// Per-episode goal override (annealed schedules); `None` uses the
    /// phase-level mode.
    pub(crate) goal: Option<GoalMode>,
}

/// The per-episode goal for an annealed schedule; `None` when the
/// phase-level mode already covers it (no schedule, or a fixed one).
fn episode_goal(
    phase: &CurriculumPhase,
    episode_in_phase: usize,
) -> Option<GoalMode> {
    match &phase.goal {
        Some(s) if !s.is_fixed() => {
            Some(GoalMode::Fixed(s.goal_at(episode_in_phase, phase.episodes)))
        }
        _ => None,
    }
}

/// Roll out one episode under a shared frozen snapshot, reusing the
/// worker's simulator when one exists. Pure in `(snapshot weights, task)`.
pub(crate) fn rollout_episode(
    snap: &PolicySnapshot,
    encoder: &StateEncoder,
    goal_mode: &GoalMode,
    system: &SystemConfig,
    sim: &mut Option<Simulator>,
    task: &RolloutTask,
) -> (Vec<Experience>, SimReport) {
    match sim {
        Some(s) => task.spec.install(s).expect("scenario jobs must fit the system"),
        None => {
            *sim = Some(
                task.spec
                    .simulator(system.clone())
                    .expect("scenario jobs must fit the system"),
            )
        }
    }
    let s = sim.as_mut().expect("just ensured");
    let mut policy = RolloutPolicy {
        snap,
        epsilon: task.epsilon,
        encoder,
        goal_mode: task.goal.as_ref().unwrap_or(goal_mode),
        recorder: EpisodeRecorder::new(),
        rng: StdRng::seed_from_u64(task.seed),
        awaiting: false,
    };
    let report = s.run(&mut policy);
    let RolloutPolicy { snap, mut recorder, .. } = policy;
    let cfg = snap.config();
    let exps = recorder.finish(&cfg.offsets, cfg.measurement_dim);
    (exps, report)
}

/// The worker-side policy: acts ε-greedily through a *shared* frozen
/// snapshot with a private RNG and per-episode ε, and records the
/// episode for later absorption — the exploring sibling of
/// `MrschPolicy`, built on the same [`DecisionInputs`].
struct RolloutPolicy<'a> {
    snap: &'a PolicySnapshot,
    epsilon: f32,
    encoder: &'a StateEncoder,
    goal_mode: &'a GoalMode,
    recorder: EpisodeRecorder,
    rng: StdRng,
    awaiting: bool,
}

impl Policy for RolloutPolicy<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        let d = DecisionInputs::at(self.encoder, self.goal_mode, view)?;
        let action = self.snap.act_with_epsilon(
            self.epsilon,
            &d.state,
            &d.meas,
            &d.goal,
            &d.valid,
            true,
            &mut self.rng,
        )?;
        self.recorder.record_step(&d.state, &d.meas, &d.goal, action);
        self.awaiting = true;
        Some(action)
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        if std::mem::take(&mut self.awaiting) {
            let meas_after: Vec<f32> = fb.measurement.iter().map(|&x| x as f32).collect();
            self.recorder.record_outcome(&meas_after);
        }
    }

    fn name(&self) -> &'static str {
        "mrsch-rollout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::MrschBuilder;
    use mrsch_dfp::DfpConfig;
    use mrsch_workload::scenario::{CurriculumPhase, JobSource, Scenario};
    use mrsch_workload::{DisruptionConfig, ThetaConfig, WorkloadSpec};
    use mrsim::simulator::SimParams;

    fn tiny_system() -> SystemConfig {
        SystemConfig::two_resource(16, 8)
    }

    fn tiny_scenario(n: usize, seed: u64) -> Scenario {
        Scenario::new(
            "clean",
            JobSource::Theta(ThetaConfig {
                machine_nodes: 16,
                mean_interarrival: 120.0,
                ..ThetaConfig::scaled(n)
            }),
            WorkloadSpec::s1(),
            SimParams::new(4, true),
        )
        .with_seed(seed)
    }

    fn tiny_mrsch(seed: u64, trainer: TrainerConfig) -> crate::training::Mrsch {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(seed)
            .trainer(trainer)
            .dfp_config(cfg)
            .build()
    }

    fn tiny_curriculum(per_phase: usize) -> Curriculum {
        Curriculum::disruption_hardening(
            tiny_scenario(20, 5),
            DisruptionConfig { cancel_fraction: 0.3, ..Default::default() },
            DisruptionConfig::node_drain(0.25, 600, 2400),
            per_phase,
        )
    }

    /// FNV-1a over a checkpoint: a short, stable name for its bytes.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn engine_trains_through_all_phases() {
        let trainer = TrainerConfig::default().round_size(2).batches_per_episode(4);
        let mut mrsch = tiny_mrsch(3, trainer);
        let outcome = mrsch.train_with_curriculum(&tiny_curriculum(2));
        assert_eq!(outcome.phases.len(), 3);
        assert_eq!(outcome.total_episodes(), 6);
        assert_eq!(mrsch.agent().episodes(), 6);
        assert!(mrsch.agent().train_steps() > 0);
        assert!(outcome.final_loss().is_some());
        // Phase names follow the hardening order.
        let names: Vec<&str> = outcome.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["clean", "cancel_heavy", "drain_heavy"]);
        // Disrupted phases actually saw disruptions.
        let cancels: u64 = outcome.phases[1].reports.iter().map(|r| r.jobs_cancelled as u64).sum();
        assert!(cancels > 0, "cancel-heavy phase must cancel jobs");
        let lost: f64 = outcome.phases[2]
            .reports
            .iter()
            .map(|r| r.capacity_lost_unit_seconds[0])
            .sum();
        assert!(lost > 0.0, "drain-heavy phase must lose node-seconds");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The pinned digest was recorded from a round-barrier loop that
        // rolled each round out, absorbed it and trained before the next
        // snapshot — an implementation that shares no code with the one
        // round loop. Staleness 0 must reproduce it at every worker count.
        const ROUND_BARRIER_DIGEST: u64 = 0x6e41_c0df_5d55_d1e3;
        let curriculum = tiny_curriculum(2);
        let run = |workers: usize| {
            let trainer = TrainerConfig::default()
                .workers(workers)
                .round_size(2)
                .batches_per_episode(4);
            let mut mrsch = tiny_mrsch(9, trainer);
            let outcome = mrsch.train_with_curriculum(&curriculum);
            let ckpt = mrsch.agent_mut().network_mut().save_checkpoint();
            (outcome, ckpt)
        };
        let (o1, c1) = run(1);
        assert_eq!(
            digest(&c1),
            ROUND_BARRIER_DIGEST,
            "staleness-0 weights must match the round-barrier reference"
        );
        for workers in [2, 4] {
            let (o, c) = run(workers);
            assert_eq!(c1, c, "trained weights must be bit-identical ({workers} workers)");
            assert_eq!(o1.total_episodes(), o.total_episodes());
            for (a, b) in o1.reports().zip(o.reports()) {
                assert_eq!(a, b, "per-episode reports must match ({workers} workers)");
            }
            assert_eq!(
                o1.phases.iter().map(|p| &p.round_losses).collect::<Vec<_>>(),
                o.phases.iter().map(|p| &p.round_losses).collect::<Vec<_>>(),
                "round losses must match ({workers} workers)"
            );
        }
    }

    #[test]
    fn pipelined_bounded_staleness_trains_the_full_budget() {
        // Staleness > 0 is timing-dependent in *which* snapshot a rollout
        // sees, but never in how much work runs: every budgeted episode
        // is absorbed, in order, with the full gradient-step cadence.
        let trainer = TrainerConfig::default()
            .workers(2)
            .round_size(2)
            .batches_per_episode(4)
            .max_staleness(2);
        let mut mrsch = tiny_mrsch(13, trainer);
        let outcome = mrsch.train_with_curriculum(&tiny_curriculum(4));
        assert_eq!(outcome.total_episodes(), 12);
        assert_eq!(mrsch.agent().episodes(), 12);
        assert_eq!(outcome.reports().count(), 12);
        assert!(mrsch.agent().train_steps() > 0);
        assert!(outcome.final_loss().is_some());
    }

    #[test]
    fn pipelined_lockstep_respects_plateau_rule() {
        // An early stop with several workers, some parked on the next
        // snapshot, must drain them out and report only absorbed work.
        let trainer = TrainerConfig::default().workers(2).round_size(1).batches_per_episode(4);
        let budget = 6;
        let phase = CurriculumPhase::new(tiny_scenario(12, 5), budget)
            .advance_on_plateau(2, f32::INFINITY);
        let curriculum = Curriculum::new().phase(phase);
        let mut mrsch = tiny_mrsch(7, trainer);
        let outcome = mrsch.train_with_curriculum(&curriculum);
        assert!(
            outcome.phases[0].episodes < budget,
            "phase must end early on plateau, ran {}",
            outcome.phases[0].episodes
        );
        assert_eq!(outcome.phases[0].reports.len(), outcome.phases[0].episodes);
        assert_eq!(mrsch.agent().episodes() as usize, outcome.phases[0].episodes);
    }

    #[test]
    fn plateau_rule_can_end_a_phase_early() {
        // An enormous tolerance turns "plateau" into "first moment the
        // window is full of finite losses", so the phase must stop at
        // exactly `round_size * window` episodes instead of its budget.
        let trainer = TrainerConfig::default().round_size(1).batches_per_episode(4);
        let budget = 6;
        let phase = CurriculumPhase::new(tiny_scenario(12, 5), budget)
            .advance_on_plateau(2, f32::INFINITY);
        let curriculum = Curriculum::new().phase(phase.clone());
        let mut mrsch = tiny_mrsch(7, trainer.clone());
        let outcome = mrsch.train_with_curriculum(&curriculum);
        assert!(
            outcome.phases[0].episodes < budget,
            "phase must end early, ran {}",
            outcome.phases[0].episodes
        );
        assert_eq!(outcome.phases[0].reports.len(), outcome.phases[0].episodes);
        assert_eq!(mrsch.agent().episodes() as usize, outcome.phases[0].episodes);
        // Without the rule the same setup runs the full budget.
        let full = Curriculum::new().phase(CurriculumPhase::new(tiny_scenario(12, 5), budget));
        let mut mrsch2 = tiny_mrsch(7, trainer);
        let out2 = mrsch2.train_with_curriculum(&full);
        assert_eq!(out2.phases[0].episodes, budget);
    }

    #[test]
    fn goal_override_forces_fixed_goal() {
        // A fixed-goal phase must run (goal_for asserts the length), and
        // the run must stay deterministic.
        let scenario = tiny_scenario(12, 8);
        let curriculum = Curriculum::new()
            .phase(CurriculumPhase::new(scenario, 2).with_goal(vec![0.5, 0.5]));
        let trainer = TrainerConfig::default().round_size(2).batches_per_episode(2);
        let mut mrsch = tiny_mrsch(4, trainer);
        let outcome = mrsch.train_with_curriculum(&curriculum);
        assert_eq!(outcome.total_episodes(), 2);
        assert_eq!(mrsch.agent().episodes(), 2);
    }
}

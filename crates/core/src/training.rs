//! Building and training MRSch agents: the three-phase curriculum of
//! §III-D.
//!
//! [`MrschBuilder`] wires together the system configuration, the state
//! encoder, and a [`DfpConfig`] sized for that encoder, producing an
//! [`Mrsch`] handle that can train over job sets and evaluate on held-out
//! workloads.

use crate::agent::MrschPolicy;
use crate::encoder::StateEncoder;
use crate::engine::{EngineOutcome, RolloutTask, TrainerConfig};
use crate::goal::GoalMode;
use mrsch_dfp::{DfpAgent, DfpConfig, StateModuleKind};
use mrsch_workload::jobset::JobSetKind;
use mrsch_workload::scenario::{mix_seed, Curriculum};
use mrsch_workload::suite::WorkloadSpec;
use mrsch_workload::theta::TraceJob;
use mrsim::job::Job;
use mrsim::resources::SystemConfig;
use mrsim::simulator::{SimParams, Simulator};
use mrsim::{SimReport, SimTime};

/// Builder for an [`Mrsch`] scheduling agent.
#[derive(Clone, Debug)]
pub struct MrschBuilder {
    system: SystemConfig,
    params: SimParams,
    seed: u64,
    state_module: StateModuleKind,
    goal_mode: GoalMode,
    trainer: TrainerConfig,
    config_override: Option<DfpConfig>,
}

impl MrschBuilder {
    /// Start building an agent for a system under given simulator
    /// parameters (the window size is taken from `params`).
    pub fn new(system: SystemConfig, params: SimParams) -> Self {
        Self {
            system,
            params,
            seed: 0,
            state_module: StateModuleKind::Mlp,
            goal_mode: GoalMode::Dynamic,
            trainer: TrainerConfig::default(),
            config_override: None,
        }
    }

    /// Set the RNG seed (network init + exploration).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Choose the state-module architecture (Fig. 3 ablation).
    pub fn state_module(mut self, kind: StateModuleKind) -> Self {
        self.state_module = kind;
        self
    }

    /// Choose how goals are produced (dynamic Eq. 1 vs fixed weights).
    pub fn goal_mode(mut self, mode: GoalMode) -> Self {
        self.goal_mode = mode;
        self
    }

    /// Gradient steps per training episode (sugar for the corresponding
    /// [`TrainerConfig`] field).
    pub fn batches_per_episode(mut self, n: usize) -> Self {
        self.trainer.batches_per_episode = n;
        self
    }

    /// Replace the whole training-loop configuration (workers, round
    /// size, gradient steps).
    pub fn trainer(mut self, cfg: TrainerConfig) -> Self {
        self.trainer = cfg;
        self
    }

    /// Replace the auto-sized [`DfpConfig`] entirely (dimension fields are
    /// still overwritten to match the encoder).
    pub fn dfp_config(mut self, cfg: DfpConfig) -> Self {
        self.config_override = Some(cfg);
        self
    }

    /// Build the agent.
    pub fn build(self) -> Mrsch {
        let encoder = StateEncoder::with_hour_scale(self.system.clone(), self.params.window);
        let m = self.system.num_resources();
        let mut cfg = self
            .config_override
            .unwrap_or_else(|| DfpConfig::scaled(encoder.state_dim(), m, self.params.window));
        cfg.state_dim = encoder.state_dim();
        cfg.measurement_dim = m;
        cfg.num_actions = self.params.window;
        cfg.state_module = self.state_module;
        let agent = DfpAgent::new(cfg, self.seed);
        Mrsch {
            agent,
            encoder,
            system: self.system,
            params: self.params,
            goal_mode: self.goal_mode,
            trainer: self.trainer,
            seed: self.seed,
        }
    }
}

/// Result of training over a sequence of job sets.
#[derive(Clone, Debug, Default)]
pub struct TrainOutcome {
    /// Evaluation loss after each episode (the Fig. 4 convergence curve).
    pub episode_losses: Vec<f32>,
    /// Kind of the job set that produced each episode.
    pub episode_kinds: Vec<JobSetKind>,
}

/// Result of validated training ([`Mrsch::train_curriculum_validated`]).
///
/// The paper's §IV-A holds out a two-week validation slice; this trainer
/// uses it for model selection: after every episode the agent is scored
/// on the validation workload and the best-scoring parameters are
/// restored at the end.
#[derive(Clone, Debug, Default)]
pub struct ValidatedOutcome {
    /// Replay loss after each episode.
    pub episode_losses: Vec<f32>,
    /// Validation score after each episode (average slowdown — lower is
    /// better).
    pub val_scores: Vec<f64>,
    /// Episode index whose parameters were kept.
    pub best_episode: usize,
}

/// A ready-to-use MRSch agent bound to one system configuration.
pub struct Mrsch {
    agent: DfpAgent,
    encoder: StateEncoder,
    system: SystemConfig,
    params: SimParams,
    goal_mode: GoalMode,
    trainer: TrainerConfig,
    seed: u64,
}

impl Mrsch {
    /// The wrapped DFP agent.
    pub fn agent(&self) -> &DfpAgent {
        &self.agent
    }

    /// Mutable access to the DFP agent (checkpointing).
    pub fn agent_mut(&mut self) -> &mut DfpAgent {
        &mut self.agent
    }

    /// The system this agent was built for.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Simulator parameters (window, backfill).
    pub fn params(&self) -> SimParams {
        self.params
    }

    /// The training-loop configuration.
    pub fn trainer(&self) -> &TrainerConfig {
        &self.trainer
    }

    /// The state encoder (engine internals).
    pub(crate) fn encoder_ref(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The goal mode (engine internals).
    pub(crate) fn goal_mode_ref(&self) -> &GoalMode {
        &self.goal_mode
    }

    /// The builder seed, from which rollout seeds derive.
    pub(crate) fn master_seed(&self) -> u64 {
        self.seed
    }

    /// Train one episode on a concrete job list. Returns the post-episode
    /// evaluation loss (None until replay holds a batch).
    ///
    /// This is the engine's rollout path at `workers = 1`: the episode
    /// runs under a frozen snapshot with a per-episode RNG derived from
    /// the builder seed and the episode counter, then is absorbed and
    /// trained on — so inline and engine-driven episodes are
    /// interchangeable.
    pub fn train_episode(&mut self, jobs: &[Job]) -> Option<f32> {
        let episode = self.agent.episodes();
        let task = RolloutTask {
            spec: mrsch_workload::scenario::EpisodeSpec {
                jobs: jobs.to_vec(),
                events: Vec::new(),
                params: self.params,
                deps: Vec::new(),
            },
            epsilon: self.agent.epsilon(),
            seed: mix_seed(mix_seed(self.seed, 0x5ce7a710), episode),
            goal: None,
        };
        let snap = self.agent.snapshot();
        let (exps, _report) = crate::engine::rollout_episode(
            &snap,
            &self.encoder,
            &self.goal_mode,
            &self.system,
            &mut None,
            &task,
        );
        self.agent.absorb_episode(exps);
        for _ in 0..self.trainer.batches_per_episode {
            self.agent.train_batch();
        }
        self.agent.eval_loss(256)
    }

    /// Train over a scenario [`Curriculum`] with this agent's
    /// [`TrainerConfig`] (rollout workers, round size, staleness) — the
    /// full engine: clean-first phases, disruption hardening, parallel
    /// rollouts, deterministic merge.
    pub fn train_with_curriculum(&mut self, curriculum: &Curriculum) -> EngineOutcome {
        crate::engine::train(self, curriculum)
    }

    /// Train over a curriculum of job sets materialized through a
    /// workload spec (each trace job set gets the spec's extended
    /// resources before simulation).
    pub fn train_curriculum(
        &mut self,
        sets: &[(JobSetKind, Vec<TraceJob>)],
        spec: &WorkloadSpec,
        seed: u64,
    ) -> TrainOutcome {
        let mut outcome = TrainOutcome::default();
        for (i, (kind, set)) in sets.iter().enumerate() {
            let jobs = spec.build(set, &self.system, seed.wrapping_add(i as u64));
            let loss = self.train_episode(&jobs);
            outcome.episode_losses.push(loss.unwrap_or(f32::NAN));
            outcome.episode_kinds.push(*kind);
        }
        outcome
    }

    /// Train over a curriculum with validation-based model selection:
    /// after every episode the agent is scored (greedy, no learning) on
    /// `val_jobs`; the parameters of the best-scoring episode are
    /// restored before returning. Scoring metric: average slowdown.
    pub fn train_curriculum_validated(
        &mut self,
        sets: &[(JobSetKind, Vec<TraceJob>)],
        spec: &WorkloadSpec,
        val_jobs: &[Job],
        seed: u64,
    ) -> ValidatedOutcome {
        assert!(!val_jobs.is_empty(), "validated training needs validation jobs");
        let mut outcome = ValidatedOutcome::default();
        let mut best: Option<(f64, bytes::Bytes)> = None;
        for (i, (_, set)) in sets.iter().enumerate() {
            let jobs = spec.build(set, &self.system, seed.wrapping_add(i as u64));
            let loss = self.train_episode(&jobs);
            outcome.episode_losses.push(loss.unwrap_or(f32::NAN));
            let score = self.evaluate(val_jobs).avg_slowdown;
            outcome.val_scores.push(score);
            let improved = best.as_ref().map(|(s, _)| score < *s).unwrap_or(true);
            if improved {
                best = Some((score, self.agent.network_mut().save_checkpoint()));
                outcome.best_episode = i;
            }
        }
        if let Some((_, ckpt)) = best {
            self.agent
                .network_mut()
                .load_checkpoint(&ckpt)
                .expect("own checkpoint must load");
        }
        outcome
    }

    /// Consume the handle into an owned, evaluation-only
    /// [`crate::agent::TrainedMrschPolicy`] — the boxed-`Policy` form
    /// used by the `mrsch_eval` registry. The policy acts exactly like
    /// [`Mrsch::evaluate`] does (greedy, same encoder and goal mode) but
    /// is self-contained and reusable across episodes via
    /// [`mrsim::Policy::reset`].
    pub fn into_eval_policy(self) -> crate::agent::TrainedMrschPolicy {
        crate::agent::TrainedMrschPolicy::new(self.agent, self.encoder, self.goal_mode)
    }

    /// Evaluate greedily on a job list, returning the simulator report.
    pub fn evaluate(&mut self, jobs: &[Job]) -> SimReport {
        self.run_eval(jobs, &[], &[], false).expect("no disruptions: injection cannot fail").0
    }

    /// Evaluate greedily under a disruption trace (cancellations,
    /// walltime kills, capacity drains/returns) injected before the run.
    /// Errors when an event references a job or resource outside this
    /// job set (e.g. a trace synthesized for a different workload).
    pub fn evaluate_disrupted(
        &mut self,
        jobs: &[Job],
        disruptions: &[mrsim::InjectedEvent],
    ) -> Result<SimReport, mrsim::simulator::SimError> {
        Ok(self.run_eval(jobs, disruptions, &[], false)?.0)
    }

    /// [`Mrsch::evaluate_disrupted`] plus wait-time-aware cancel replay:
    /// each `(job, delay)` pair cancels the job at `start + delay` of
    /// the *simulated* run (the faithful SWF cancel mapping — see
    /// `mrsim::Simulator::schedule_cancel_after_start`).
    pub fn evaluate_disrupted_replay(
        &mut self,
        jobs: &[Job],
        disruptions: &[mrsim::InjectedEvent],
        relative_cancels: &[(usize, SimTime)],
    ) -> Result<SimReport, mrsim::simulator::SimError> {
        Ok(self.run_eval(jobs, disruptions, relative_cancels, false)?.0)
    }

    /// Evaluate and also return the per-decision goal log (Figs. 8–9).
    pub fn evaluate_with_goal_log(
        &mut self,
        jobs: &[Job],
    ) -> (SimReport, Vec<(SimTime, Vec<f32>)>) {
        self.run_eval(jobs, &[], &[], true).expect("no disruptions: injection cannot fail")
    }

    /// The greedy evaluation run behind every `evaluate*` method; only
    /// [`Mrsch::evaluate_with_goal_log`] keeps the goal log.
    #[allow(clippy::type_complexity)]
    fn run_eval(
        &mut self,
        jobs: &[Job],
        disruptions: &[mrsim::InjectedEvent],
        relative_cancels: &[(usize, SimTime)],
        log_goals: bool,
    ) -> Result<(SimReport, Vec<(SimTime, Vec<f32>)>), mrsim::simulator::SimError> {
        let policy =
            MrschPolicy::new(&mut self.agent, self.encoder.clone(), self.goal_mode.clone());
        let mut policy = if log_goals { policy.with_goal_log() } else { policy };
        let mut sim = Simulator::new(self.system.clone(), jobs.to_vec(), self.params)
            .expect("jobs must be valid for the system");
        sim.inject_all(disruptions)?;
        for &(id, delay) in relative_cancels {
            sim.schedule_cancel_after_start(id, delay)?;
        }
        let report = sim.run(&mut policy);
        let log = policy.goal_log().to_vec();
        Ok((report, log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_workload::theta::ThetaConfig;

    fn tiny_system() -> SystemConfig {
        SystemConfig::two_resource(16, 8)
    }

    fn tiny_trace(n: usize, seed: u64) -> Vec<TraceJob> {
        ThetaConfig {
            machine_nodes: 16,
            mean_interarrival: 120.0,
            ..ThetaConfig::scaled(n)
        }
        .generate(seed)
    }

    fn tiny_builder() -> MrschBuilder {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(3)
            .batches_per_episode(8)
            .dfp_config(cfg)
    }

    #[test]
    fn builder_sizes_config_from_encoder() {
        let mrsch = tiny_builder().build();
        let enc = StateEncoder::with_hour_scale(tiny_system(), 4);
        assert_eq!(mrsch.agent().config().state_dim, enc.state_dim());
        assert_eq!(mrsch.agent().config().num_actions, 4);
        assert_eq!(mrsch.agent().config().measurement_dim, 2);
    }

    #[test]
    fn train_then_evaluate_roundtrip() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s1();
        let trace = tiny_trace(40, 5);
        let jobs = spec.build(&trace, &tiny_system(), 6);
        let _ = mrsch.train_episode(&jobs);
        assert_eq!(mrsch.agent().episodes(), 1);
        let report = mrsch.evaluate(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
    }

    #[test]
    fn curriculum_training_produces_losses() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s1();
        let sets = vec![
            (JobSetKind::Sampled, tiny_trace(25, 7)),
            (JobSetKind::Real, tiny_trace(25, 8)),
            (JobSetKind::Synthetic, tiny_trace(25, 9)),
        ];
        let outcome = mrsch.train_curriculum(&sets, &spec, 10);
        assert_eq!(outcome.episode_losses.len(), 3);
        assert_eq!(outcome.episode_kinds[0], JobSetKind::Sampled);
        // After three episodes replay certainly holds a batch, so at
        // least the later losses are finite.
        assert!(outcome.episode_losses.last().unwrap().is_finite());
    }

    #[test]
    fn goal_log_returned_during_evaluation() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s4();
        let jobs = spec.build(&tiny_trace(30, 11), &tiny_system(), 12);
        let (report, log) = mrsch.evaluate_with_goal_log(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
        assert!(!log.is_empty());
        for (_, g) in &log {
            assert_eq!(g.len(), 2);
        }
    }

    #[test]
    fn validated_training_restores_best_parameters() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s2();
        let sets = vec![
            (JobSetKind::Sampled, tiny_trace(20, 17)),
            (JobSetKind::Real, tiny_trace(20, 18)),
            (JobSetKind::Synthetic, tiny_trace(20, 19)),
        ];
        let val_jobs = spec.build(&tiny_trace(20, 20), &tiny_system(), 21);
        let outcome = mrsch.train_curriculum_validated(&sets, &spec, &val_jobs, 22);
        assert_eq!(outcome.val_scores.len(), 3);
        assert!(outcome.best_episode < 3);
        // The restored model must reproduce the best validation score.
        let restored_score = mrsch.evaluate(&val_jobs).avg_slowdown;
        let best_seen = outcome
            .val_scores
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (restored_score - best_seen).abs() < 1e-9,
            "restored {restored_score} vs best {best_seen}"
        );
    }

    #[test]
    #[should_panic(expected = "needs validation jobs")]
    fn validated_training_requires_val_jobs() {
        let mut mrsch = tiny_builder().build();
        let spec = WorkloadSpec::s1();
        let _ = mrsch.train_curriculum_validated(&[], &spec, &[], 1);
    }

    #[test]
    fn cnn_variant_builds_and_runs() {
        let mut cfg = DfpConfig::scaled(1, 2, 4);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        let mut mrsch = MrschBuilder::new(tiny_system(), SimParams::new(4, true))
            .seed(4)
            .state_module(StateModuleKind::Cnn)
            .dfp_config(cfg)
            .build();
        let spec = WorkloadSpec::s1();
        let jobs = spec.build(&tiny_trace(15, 13), &tiny_system(), 14);
        let report = mrsch.evaluate(&jobs);
        assert_eq!(report.jobs_completed, jobs.len());
    }
}

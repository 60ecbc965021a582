//! The MRSch policies that put the DFP agent in the scheduler's seat
//! (Fig. 2 of the paper), and the one place their decision inputs are
//! built.
//!
//! [`MrschPolicy`] acts greedily through a borrowed agent and, when asked
//! ([`MrschPolicy::with_goal_log`]), logs the goal vector at every
//! decision — the `rBB` time series plotted in Figs. 8 and 9.
//! [`TrainedMrschPolicy`] is the same greedy policy owning its agent, the
//! boxed form the evaluation registry uses. Training never runs through
//! either: the engine (`mrsch::engine`) rolls out frozen snapshots with
//! per-episode seeded RNGs and records experiences with
//! `mrsch_dfp::EpisodeRecorder`. Every MRSch decision path — both
//! policies here, the engine's rollout policy and
//! [`crate::explain::Explainer`] — builds its network inputs through
//! [`DecisionInputs`], so they cannot drift apart.

use crate::encoder::StateEncoder;
use crate::goal::GoalMode;
use mrsch_dfp::DfpAgent;
use mrsim::policy::{Policy, SchedulerView};
use mrsim::SimTime;

/// The four network inputs of one scheduling decision, in the order the
/// DFP agent takes them.
pub(crate) struct DecisionInputs {
    /// The encoded scheduler state.
    pub(crate) state: Vec<f32>,
    /// Per-resource utilizations (the DFP measurement).
    pub(crate) meas: Vec<f32>,
    /// The goal vector in force.
    pub(crate) goal: Vec<f32>,
    /// Which window slots hold a job.
    pub(crate) valid: Vec<bool>,
}

impl DecisionInputs {
    /// Build the inputs for `view`.
    pub(crate) fn new(
        encoder: &StateEncoder,
        goal_mode: &GoalMode,
        view: &SchedulerView<'_>,
    ) -> Self {
        Self {
            state: encoder.encode(view),
            meas: view.measurement().iter().map(|&x| x as f32).collect(),
            goal: goal_mode.goal_for(view),
            valid: encoder.valid_actions(view),
        }
    }

    /// The inputs of a decision at `view`; `None` when the window is
    /// empty and there is nothing to decide.
    pub(crate) fn at(
        encoder: &StateEncoder,
        goal_mode: &GoalMode,
        view: &SchedulerView<'_>,
    ) -> Option<Self> {
        (!view.window.is_empty()).then(|| Self::new(encoder, goal_mode, view))
    }

    /// The agent's greedy choice for these inputs.
    fn greedy(&self, agent: &mut DfpAgent) -> Option<usize> {
        agent.act(&self.state, &self.meas, &self.goal, &self.valid, false)
    }
}

/// Panic unless `encoder` produces the inputs `agent` was built for.
pub(crate) fn check_dimensions(agent: &DfpAgent, encoder: &StateEncoder) {
    assert_eq!(
        agent.config().state_dim,
        encoder.state_dim(),
        "agent and encoder disagree on state dimension"
    );
    assert_eq!(
        agent.config().num_actions,
        encoder.window(),
        "agent and encoder disagree on window size"
    );
}

/// The MRSch scheduling policy over a borrowed agent: greedy, with no
/// learning side effects.
pub struct MrschPolicy<'a> {
    agent: &'a mut DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
    /// Per-decision goal log `(time, goal)`, kept only when asked for.
    goal_log: Option<Vec<(SimTime, Vec<f32>)>>,
}

impl<'a> MrschPolicy<'a> {
    /// Wrap a DFP agent for one simulation run.
    pub fn new(agent: &'a mut DfpAgent, encoder: StateEncoder, goal_mode: GoalMode) -> Self {
        check_dimensions(agent, &encoder);
        Self { agent, encoder, goal_mode, goal_log: None }
    }

    /// Also log the goal vector at every decision. The log grows with
    /// the run, so only callers that read it should ask for it.
    pub fn with_goal_log(mut self) -> Self {
        self.goal_log = Some(Vec::new());
        self
    }

    /// The goal vectors logged at each decision (Figs. 8–9's `rBB` is
    /// element 1 of each entry in a two-resource system). Empty unless
    /// the policy was built [`MrschPolicy::with_goal_log`].
    pub fn goal_log(&self) -> &[(SimTime, Vec<f32>)] {
        self.goal_log.as_deref().unwrap_or_default()
    }
}

impl Policy for MrschPolicy<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        let d = DecisionInputs::at(&self.encoder, &self.goal_mode, view)?;
        let action = d.greedy(self.agent);
        if let Some(log) = &mut self.goal_log {
            log.push((view.now, d.goal));
        }
        action
    }

    fn name(&self) -> &'static str {
        "mrsch"
    }
}

/// Owned, evaluation-only MRSch policy: a trained agent plus its
/// encoder and goal mode, packaged as a self-contained boxed
/// [`mrsim::Policy`] (built via `Mrsch::into_eval_policy`). This is the
/// form the `mrsch_eval` registry hands to the evaluation harness: it
/// acts greedily and keeps no per-decision state, so one instance can
/// be reused across episodes.
pub struct TrainedMrschPolicy {
    agent: DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
}

impl TrainedMrschPolicy {
    pub(crate) fn new(agent: DfpAgent, encoder: StateEncoder, goal_mode: GoalMode) -> Self {
        Self { agent, encoder, goal_mode }
    }

    /// The wrapped agent (checkpointing, inspection).
    pub fn agent(&self) -> &DfpAgent {
        &self.agent
    }
}

impl Policy for TrainedMrschPolicy {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        DecisionInputs::at(&self.encoder, &self.goal_mode, view)?.greedy(&mut self.agent)
    }

    fn name(&self) -> &'static str {
        "mrsch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_dfp::DfpConfig;
    use mrsim::job::Job;
    use mrsim::resources::SystemConfig;
    use mrsim::simulator::{SimParams, Simulator};

    fn small_setup() -> (SystemConfig, StateEncoder, DfpAgent) {
        let system = SystemConfig::two_resource(8, 4);
        let window = 4;
        let encoder = StateEncoder::with_hour_scale(system.clone(), window);
        let mut cfg = DfpConfig::scaled(encoder.state_dim(), 2, window);
        cfg.state_hidden = vec![32];
        cfg.state_embed = 16;
        cfg.io_hidden = 16;
        cfg.io_embed = 8;
        cfg.stream_hidden = 32;
        cfg.batch_size = 8;
        let agent = DfpAgent::new(cfg, 42);
        (system, encoder, agent)
    }

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    i,
                    (i as u64) * 30,
                    120 + (i as u64 % 5) * 60,
                    600,
                    vec![1 + (i as u64 % 4), (i as u64) % 3],
                )
            })
            .collect()
    }

    #[test]
    fn training_run_completes_and_records() {
        // Training runs through the engine's rollout path: an exploring
        // episode under a frozen snapshot, recorded and then absorbed.
        let (system, encoder, mut agent) = small_setup();
        let task = crate::engine::RolloutTask {
            spec: mrsch_workload::scenario::EpisodeSpec {
                jobs: jobs(30),
                events: Vec::new(),
                params: SimParams::new(4, true),
                deps: Vec::new(),
            },
            epsilon: agent.epsilon(),
            seed: 5,
            goal: None,
        };
        let (exps, report) = crate::engine::rollout_episode(
            &agent.snapshot(),
            &encoder,
            &GoalMode::Dynamic,
            &system,
            &mut None,
            &task,
        );
        assert_eq!(report.jobs_completed, 30);
        assert_eq!(exps.len() as u64, report.decisions, "one experience per decision");
        agent.absorb_episode(exps);
        assert_eq!(agent.episodes(), 1);
        assert!(agent.replay_len() > 0, "experiences recorded");
    }

    #[test]
    fn evaluation_mode_has_no_learning_side_effects() {
        let (system, encoder, mut agent) = small_setup();
        let mut policy = MrschPolicy::new(&mut agent, encoder, GoalMode::Dynamic);
        let mut sim = Simulator::new(system, jobs(20), SimParams::new(4, true))
            .unwrap();
        let report = sim.run(&mut policy);
        assert_eq!(report.jobs_completed, 20);
        assert!(policy.goal_log().is_empty(), "no goal log unless asked for");
        drop(policy);
        assert_eq!(agent.episodes(), 0);
        assert_eq!(agent.replay_len(), 0);
        assert_eq!(agent.train_steps(), 0);
    }

    #[test]
    fn goal_log_entries_normalize() {
        let (system, encoder, mut agent) = small_setup();
        let mut policy =
            MrschPolicy::new(&mut agent, encoder, GoalMode::Dynamic).with_goal_log();
        let mut sim = Simulator::new(system, jobs(15), SimParams::new(4, true))
            .unwrap();
        let report = sim.run(&mut policy);
        assert_eq!(policy.goal_log().len() as u64, report.decisions, "one entry per decision");
        for (_, g) in policy.goal_log() {
            let sum: f32 = g.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "goal weights sum to 1: {g:?}");
        }
    }

    #[test]
    fn logging_goals_does_not_change_decisions() {
        let (system, encoder, mut agent) = small_setup();
        let mut run = |log: bool| {
            let policy = MrschPolicy::new(&mut agent, encoder.clone(), GoalMode::Dynamic);
            let mut policy = if log { policy.with_goal_log() } else { policy };
            Simulator::new(system.clone(), jobs(25), SimParams::new(4, true))
                .unwrap()
                .run(&mut policy)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn mismatched_encoder_rejected() {
        let (system, _, mut agent) = small_setup();
        let bad = StateEncoder::with_hour_scale(system, 3); // wrong window/dim
        let _ = MrschPolicy::new(&mut agent, bad, GoalMode::Dynamic);
    }
}

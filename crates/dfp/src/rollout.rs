//! Detached rollout machinery: a frozen policy snapshot and an episode
//! recorder that together let experiences be generated *away* from the
//! live [`crate::DfpAgent`] — on worker threads, with per-episode RNGs —
//! and merged back deterministically afterwards.
//!
//! The split mirrors how distributed RL systems separate *actors* from
//! the *learner*: a [`PolicySnapshot`] is an immutable-weights copy of
//! the agent taken at a synchronization point, an [`EpisodeRecorder`]
//! accumulates the `(state, measurement, goal, action)` stream of one
//! episode and converts it into masked future-difference
//! [`Experience`]s, and `DfpAgent::absorb_episode` feeds a finished
//! episode back into the learner's replay (advancing the episode count
//! and decaying ε). Because every piece is seeded explicitly, a
//! rollout's result depends only on `(snapshot, episode spec, seed, ε)`
//! — never on which thread ran it.

use crate::config::DfpConfig;
use crate::network::DfpNetwork;
use crate::replay::Experience;
use rand::Rng;

/// One in-flight decision awaiting its future measurements.
#[derive(Clone, Debug)]
struct PendingStep {
    state: Vec<f32>,
    meas: Vec<f32>,
    goal: Vec<f32>,
    action: usize,
}

/// Records one episode's decision stream and converts it into training
/// experiences (the future-target construction of DFP).
///
/// The measurement timeline interleaves decision-time and post-action
/// values; DFP's offsets index decisions, so the recorder keeps the
/// *latest observed* measurement per step ([`EpisodeRecorder::record_outcome`]
/// overwrites the provisional decision-time entry) and masks offsets
/// that run past the episode end.
#[derive(Clone, Debug, Default)]
pub struct EpisodeRecorder {
    pending: Vec<PendingStep>,
    meas_log: Vec<Vec<f32>>,
}

impl EpisodeRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded (still-pending) steps.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Record a decision so it can become a training experience once its
    /// future measurements are observed.
    pub fn record_step(&mut self, state: &[f32], meas: &[f32], goal: &[f32], action: usize) {
        self.pending.push(PendingStep {
            state: state.to_vec(),
            meas: meas.to_vec(),
            goal: goal.to_vec(),
            action,
        });
        self.meas_log.push(meas.to_vec());
    }

    /// Record the post-action measurement (the environment's feedback for
    /// the most recent step), overwriting the provisional decision-time
    /// entry.
    pub fn record_outcome(&mut self, meas_after: &[f32]) {
        if let Some(last) = self.meas_log.last_mut() {
            *last = meas_after.to_vec();
        }
    }

    /// Close the episode: convert every pending step into an experience,
    /// masking offsets that overrun the episode, and reset the recorder.
    ///
    /// `offsets` and `measurement_dim` come from the agent's
    /// [`DfpConfig`]; targets are laid out offset-major (`τ·M + m`).
    pub fn finish(&mut self, offsets: &[usize], measurement_dim: usize) -> Vec<Experience> {
        let m = measurement_dim;
        let t_count = offsets.len();
        let steps = self.pending.len();
        let mut out = Vec::with_capacity(steps);
        for (t, step) in self.pending.drain(..).enumerate() {
            let mut targets = vec![0.0f32; m * t_count];
            let mut mask = vec![0.0f32; m * t_count];
            for (oi, &off) in offsets.iter().enumerate() {
                let future = t + off;
                if future < steps {
                    for mi in 0..m {
                        targets[oi * m + mi] = self.meas_log[future][mi] - step.meas[mi];
                        mask[oi * m + mi] = 1.0;
                    }
                }
            }
            out.push(Experience {
                state: step.state,
                meas: step.meas,
                goal: step.goal,
                action: step.action,
                targets,
                mask,
            });
        }
        self.meas_log.clear();
        out
    }
}

/// A frozen copy of an agent's acting parts: network weights, config,
/// and the exploration rate at snapshot time.
///
/// Acting goes through the cache-free inference forward pass and an
/// *external* RNG, so a **single** snapshot can be shared (`&self` /
/// `Arc`) by every rollout worker of a round — no per-worker network
/// clone, no contention — and an episode's action stream stays a pure
/// function of `(snapshot, inputs, rng seed, ε)`. Per-episode ε
/// schedules pass the rate per call ([`PolicySnapshot::act_with_epsilon`])
/// instead of mutating the shared snapshot.
#[derive(Clone, Debug)]
pub struct PolicySnapshot {
    cfg: DfpConfig,
    net: DfpNetwork,
    epsilon: f32,
}

impl PolicySnapshot {
    /// Build a snapshot from a network copy and the exploration rate to
    /// freeze (use [`crate::DfpAgent::snapshot`] in normal flow).
    pub fn new(net: DfpNetwork, epsilon: f32) -> Self {
        Self { cfg: net.config().clone(), net, epsilon }
    }

    /// The frozen exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Override the exploration rate (per-episode ε schedules: episode
    /// `k` of a round rolls out at the rate the agent *will* have after
    /// absorbing the preceding `k` episodes).
    pub fn set_epsilon(&mut self, epsilon: f32) {
        self.epsilon = epsilon;
    }

    /// The snapshot's configuration.
    pub fn config(&self) -> &DfpConfig {
        &self.cfg
    }

    /// The frozen network, for callers that batch their own scoring
    /// (e.g. the serving engine coalesces concurrent requests into one
    /// [`DfpNetwork::action_scores_batched`] pass and then applies the
    /// same greedy rule via [`greedy_from_scores`]).
    pub fn network(&self) -> &DfpNetwork {
        &self.net
    }

    /// Choose an action ε-greedily with an external RNG — the same
    /// decision rule as `DfpAgent::act` (both delegate to
    /// [`act_epsilon_greedy`]). Pass `explore = false` for greedy
    /// evaluation. Returns `None` when no action is valid.
    pub fn act<R: Rng + ?Sized>(
        &self,
        state: &[f32],
        meas: &[f32],
        goal: &[f32],
        valid: &[bool],
        explore: bool,
        rng: &mut R,
    ) -> Option<usize> {
        self.act_with_epsilon(self.epsilon, state, meas, goal, valid, explore, rng)
    }

    /// [`PolicySnapshot::act`] with an explicit exploration rate,
    /// leaving the (possibly shared) snapshot untouched: episode `k` of
    /// a round rolls out at the rate the agent *will* have after
    /// absorbing the preceding `k` episodes, while every worker reads
    /// the same frozen weights.
    #[allow(clippy::too_many_arguments)]
    pub fn act_with_epsilon<R: Rng + ?Sized>(
        &self,
        epsilon: f32,
        state: &[f32],
        meas: &[f32],
        goal: &[f32],
        valid: &[bool],
        explore: bool,
        rng: &mut R,
    ) -> Option<usize> {
        act_epsilon_greedy(&self.net, epsilon, state, meas, goal, valid, explore, rng)
    }
}

/// The DFP decision rule, shared by the live agent and frozen
/// snapshots so the two can never drift: under the ε coin (`explore`
/// only) a uniformly random valid action, otherwise the greedy argmax
/// of `goal · predicted-changes` with a deterministic lowest-index
/// tie-break. Returns `None` when no action is valid. Takes the network
/// by shared reference (cache-free inference forward), so callers can
/// act through an `Arc`-shared frozen network.
#[allow(clippy::too_many_arguments)]
pub fn act_epsilon_greedy<R: Rng + ?Sized>(
    net: &DfpNetwork,
    epsilon: f32,
    state: &[f32],
    meas: &[f32],
    goal: &[f32],
    valid: &[bool],
    explore: bool,
    rng: &mut R,
) -> Option<usize> {
    assert_eq!(valid.len(), net.config().num_actions, "valid mask length");
    if !valid.iter().any(|&v| v) {
        return None;
    }
    if explore && rng.gen::<f32>() < epsilon {
        let count = valid.iter().filter(|&&v| v).count();
        let nth = rng.gen_range(0..count);
        return valid.iter().enumerate().filter(|(_, &v)| v).map(|(i, _)| i).nth(nth);
    }
    let scores = net.action_scores_shared(state, meas, goal);
    greedy_from_scores(&scores, valid)
}

/// The pure greedy tail of [`act_epsilon_greedy`]: argmax of the
/// goal-weighted scores over valid actions with the deterministic
/// lowest-index tie-break. Factored out so batched scoring paths (the
/// serving engine scores `B` requests in one packed forward pass) decide
/// *exactly* like the per-sample rule. Returns `None` when no action is
/// valid.
pub fn greedy_from_scores(scores: &[f32], valid: &[bool]) -> Option<usize> {
    valid
        .iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(i, _)| i)
        .max_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a)) // deterministic tie-break: lowest index
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::DfpAgent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> DfpConfig {
        let mut c = DfpConfig::scaled(12, 2, 3);
        c.offsets = vec![1, 2];
        c.offset_weights = vec![0.5, 1.0];
        c.state_hidden = vec![16];
        c.state_embed = 8;
        c.io_hidden = 8;
        c.io_embed = 4;
        c.stream_hidden = 16;
        c.batch_size = 8;
        c.replay_capacity = 512;
        c
    }

    #[test]
    fn recorder_builds_masked_future_differences() {
        let mut rec = EpisodeRecorder::new();
        // Deterministic ramp: meas[0] = 0.1 * t over 4 steps.
        for t in 0..4 {
            rec.record_step(&[0.0; 12], &[0.1 * t as f32, 0.0], &[1.0, 0.0], 0);
        }
        let exps = rec.finish(&[1, 2], 2);
        assert_eq!(exps.len(), 4);
        assert!(rec.is_empty(), "finish resets the recorder");
        // Step 0: offset-1 target = 0.1, offset-2 target = 0.2.
        assert!((exps[0].targets[0] - 0.1).abs() < 1e-6);
        assert!((exps[0].targets[2] - 0.2).abs() < 1e-6);
        assert_eq!(exps[0].mask, vec![1.0, 1.0, 1.0, 1.0]);
        // Step 3: both offsets overrun -> fully masked, zero targets.
        assert_eq!(exps[3].mask, vec![0.0; 4]);
        assert_eq!(exps[3].targets, vec![0.0; 4]);
        // Step 2: offset 1 valid, offset 2 masked.
        assert_eq!(exps[2].mask, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn recorder_outcome_overwrites_provisional_measurement() {
        let mut rec = EpisodeRecorder::new();
        rec.record_step(&[0.0; 12], &[0.0, 0.0], &[1.0, 0.0], 0);
        rec.record_outcome(&[0.9, 0.9]);
        rec.record_step(&[0.0; 12], &[0.9, 0.9], &[1.0, 0.0], 0);
        let exps = rec.finish(&[1], 2);
        // offset-1 target of step 0 = outcome(0) - meas(0) = 0.9.
        assert!((exps[0].targets[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn snapshot_greedy_matches_agent_greedy() {
        let mut agent = DfpAgent::new(tiny_cfg(), 9);
        let snap = agent.snapshot();
        let mut rng = StdRng::seed_from_u64(1);
        let state = vec![0.3; 12];
        let meas = vec![0.4, 0.6];
        let goal = vec![0.7, 0.3];
        let valid = vec![true, true, true];
        let from_agent = agent.act(&state, &meas, &goal, &valid, false);
        let from_snap = snap.act(&state, &meas, &goal, &valid, false, &mut rng);
        assert_eq!(from_agent, from_snap, "greedy actions agree");
    }

    #[test]
    fn snapshot_act_is_deterministic_per_seed() {
        let agent = DfpAgent::new(tiny_cfg(), 10);
        let mut a = agent.snapshot();
        let mut b = agent.snapshot();
        a.set_epsilon(0.5);
        b.set_epsilon(0.5);
        let mut ra = StdRng::seed_from_u64(42);
        let mut rb = StdRng::seed_from_u64(42);
        for t in 0..50 {
            let state = vec![t as f32 * 0.01; 12];
            let meas = vec![0.5, 0.5];
            let goal = vec![0.5, 0.5];
            let valid = vec![true, true, false];
            assert_eq!(
                a.act(&state, &meas, &goal, &valid, true, &mut ra),
                b.act(&state, &meas, &goal, &valid, true, &mut rb),
            );
        }
    }

    #[test]
    fn snapshot_respects_validity_mask() {
        let agent = DfpAgent::new(tiny_cfg(), 11);
        let mut snap = agent.snapshot();
        snap.set_epsilon(1.0); // always explore: random picks must stay valid
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = snap.act(&[0.0; 12], &[0.5; 2], &[0.5; 2], &[false, true, false], true, &mut rng);
            assert_eq!(a, Some(1));
        }
        assert_eq!(
            snap.act(&[0.0; 12], &[0.5; 2], &[0.5; 2], &[false, false, false], true, &mut rng),
            None
        );
    }
}

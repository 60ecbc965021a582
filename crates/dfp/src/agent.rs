//! The DFP agent: ε-greedy acting, replay, and minibatch training.
//!
//! Episodes are recorded away from the agent by an
//! [`EpisodeRecorder`](crate::rollout::EpisodeRecorder)
//! (the future-target construction: each step's regression targets are
//! the *observed* measurement changes `m_{t+τ} − m_t` at every configured
//! offset τ, masked past the episode end) and fed back with
//! [`DfpAgent::absorb_episode`].

use crate::config::DfpConfig;
use crate::network::DfpNetwork;
use crate::replay::{Experience, ReplayBuffer};
use crate::rollout::PolicySnapshot;
use mrsch_linalg::Matrix;
use mrsch_nn::loss::masked_mse;
use mrsch_nn::opt::{Adam, ExpDecay, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DFP agent.
#[derive(Debug)]
pub struct DfpAgent {
    cfg: DfpConfig,
    net: DfpNetwork,
    opt: Adam,
    replay: ReplayBuffer,
    rng: StdRng,
    epsilon: f32,
    episodes: u64,
    train_steps: u64,
}

impl DfpAgent {
    /// Build an agent with freshly initialized networks.
    pub fn new(cfg: DfpConfig, seed: u64) -> Self {
        cfg.validate().expect("DfpConfig invalid");
        let mut rng = StdRng::seed_from_u64(seed);
        let net = DfpNetwork::new(cfg.clone(), &mut rng);
        let opt = Adam::new(cfg.learning_rate);
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let epsilon = cfg.epsilon_start;
        Self {
            cfg,
            net,
            opt,
            replay,
            rng,
            epsilon,
            episodes: 0,
            train_steps: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DfpConfig {
        &self.cfg
    }

    /// Mutable access to the underlying network (checkpointing, tests).
    pub fn network_mut(&mut self) -> &mut DfpNetwork {
        &mut self.net
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Episodes finished so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Gradient steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Experiences currently stored in replay.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Sample stored experiences with an external RNG (diagnostics and
    /// tests; training uses the agent's own RNG).
    pub fn sample_experiences<'a, R: rand::Rng + ?Sized>(
        &'a self,
        rng: &mut R,
        n: usize,
    ) -> Vec<&'a Experience> {
        self.replay.sample(rng, n)
    }

    /// Choose an action for the given inputs.
    ///
    /// `valid` marks selectable window slots (shorter windows leave the
    /// tail invalid). With `explore`, an ε-greedy coin decides between a
    /// uniformly random valid action and the greedy argmax of
    /// `goal · predicted-changes`; without, the choice is always greedy.
    /// Returns `None` when no action is valid.
    pub fn act(
        &mut self,
        state: &[f32],
        meas: &[f32],
        goal: &[f32],
        valid: &[bool],
        explore: bool,
    ) -> Option<usize> {
        crate::rollout::act_epsilon_greedy(
            &self.net,
            self.epsilon,
            state,
            meas,
            goal,
            valid,
            explore,
            &mut self.rng,
        )
    }

    /// Freeze the acting parts of this agent into a [`PolicySnapshot`]
    /// that rollout workers share (one `Arc`, no per-worker clone) and
    /// drive with their own RNGs.
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot::new(self.net.clone(), self.epsilon)
    }

    /// Feed one finished episode's experiences into replay — the learner
    /// half of the snapshot/rollout split. The episode counter advances
    /// and ε decays once.
    pub fn absorb_episode(&mut self, experiences: Vec<Experience>) {
        for e in experiences {
            debug_assert_eq!(e.state.len(), self.cfg.state_dim);
            debug_assert_eq!(e.targets.len(), self.cfg.pred_width());
            self.replay.push(e);
        }
        self.episodes += 1;
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
    }

    /// Sample `n` replay indices and fill the five batch matrices
    /// directly from the buffer — no per-experience clones. Returns
    /// `(states, measurements, goals, targets, mask)` with `targets` and
    /// `mask` scattered into each row's action block.
    fn materialize_batch(
        replay: &ReplayBuffer,
        cfg: &DfpConfig,
        rng: &mut StdRng,
        n: usize,
    ) -> (Matrix, Matrix, Matrix, Matrix, Matrix) {
        let mt = cfg.pred_width();
        let a_total = cfg.num_actions * mt;
        let indices = replay.sample_indices(rng, n);
        let n = indices.len();
        let mut s = Matrix::zeros(n, cfg.state_dim);
        let mut me = Matrix::zeros(n, cfg.measurement_dim);
        let mut g = Matrix::zeros(n, cfg.measurement_dim);
        let mut target = Matrix::zeros(n, a_total);
        let mut mask = Matrix::zeros(n, a_total);
        for (i, &idx) in indices.iter().enumerate() {
            let e = replay.get(idx);
            s.row_mut(i).copy_from_slice(&e.state);
            me.row_mut(i).copy_from_slice(&e.meas);
            g.row_mut(i).copy_from_slice(&e.goal);
            let base = e.action * mt;
            target.row_mut(i)[base..base + mt].copy_from_slice(&e.targets);
            mask.row_mut(i)[base..base + mt].copy_from_slice(&e.mask);
        }
        (s, me, g, target, mask)
    }

    /// One minibatch gradient step. Returns the masked-MSE loss, or
    /// `None` when replay holds fewer than one batch.
    pub fn train_batch(&mut self) -> Option<f32> {
        if self.replay.len() < self.cfg.batch_size {
            return None;
        }
        let (s, me, g, target, mask) =
            Self::materialize_batch(&self.replay, &self.cfg, &mut self.rng, self.cfg.batch_size);
        let pred = self.net.forward(&s, &me, &g);
        let (loss, grad) = masked_mse(&pred, &target, &mask);
        self.net.zero_grad();
        self.net.backward(&grad);
        self.net.clip_grad_norm(self.cfg.grad_clip);
        // Per-step exponential learning-rate decay: damps Adam's
        // constant-magnitude tail steps (see DfpConfig::lr_decay).
        let schedule = ExpDecay::new(self.cfg.learning_rate, self.cfg.lr_decay, self.cfg.lr_min);
        self.opt.set_learning_rate(schedule.at(self.train_steps));
        // Adam over all five subnets via a thin adapter.
        step_adam(&mut self.opt, &mut self.net);
        self.train_steps += 1;
        Some(loss)
    }

    /// Evaluate the current masked-MSE loss on a fresh sample without
    /// updating parameters (used for the Fig. 4 convergence curves).
    pub fn eval_loss(&mut self, samples: usize) -> Option<f32> {
        if self.replay.is_empty() {
            return None;
        }
        let (s, me, g, target, mask) =
            Self::materialize_batch(&self.replay, &self.cfg, &mut self.rng, samples);
        let pred = self.net.forward(&s, &me, &g);
        let (loss, _) = masked_mse(&pred, &target, &mask);
        Some(loss)
    }
}

/// Adam step over all five DFP subnets via the shared parameter visitor.
fn step_adam(opt: &mut Adam, net: &mut DfpNetwork) {
    opt.step_visitor(|f| net.visit_params(&mut |p, g| f(p, g)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::EpisodeRecorder;
    use rand::Rng;

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

    /// Close a recorded episode into the agent's replay.
    fn absorb(agent: &mut DfpAgent, rec: &mut EpisodeRecorder) {
        let exps = rec.finish(&agent.config().offsets, agent.config().measurement_dim);
        agent.absorb_episode(exps);
    }

    fn record_episode(agent: &mut DfpAgent, steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rec = EpisodeRecorder::new();
        for t in 0..steps {
            let state: Vec<f32> = (0..12).map(|_| rng.gen::<f32>()).collect();
            let meas = vec![t as f32 * 0.01, 0.5];
            let goal = vec![0.6, 0.4];
            let valid = vec![true, true, false];
            let a = agent.act(&state, &meas, &goal, &valid, true).unwrap();
            assert!(a < 2, "invalid action chosen");
            rec.record_step(&state, &meas, &goal, a);
        }
        absorb(agent, &mut rec);
    }

    #[test]
    fn act_respects_validity_mask() {
        let mut agent = DfpAgent::new(tiny_cfg(), 1);
        let state = vec![0.0; 12];
        let meas = vec![0.5, 0.5];
        let goal = vec![0.5, 0.5];
        for _ in 0..50 {
            let a = agent.act(&state, &meas, &goal, &[false, true, false], true);
            assert_eq!(a, Some(1));
        }
        assert_eq!(
            agent.act(&state, &meas, &goal, &[false, false, false], true),
            None
        );
    }

    #[test]
    fn greedy_act_is_deterministic() {
        let mut agent = DfpAgent::new(tiny_cfg(), 2);
        let state = vec![0.1; 12];
        let meas = vec![0.4, 0.6];
        let goal = vec![0.7, 0.3];
        let a1 = agent.act(&state, &meas, &goal, &[true, true, true], false);
        let a2 = agent.act(&state, &meas, &goal, &[true, true, true], false);
        assert_eq!(a1, a2);
    }

    #[test]
    fn finish_episode_builds_masked_targets() {
        let mut agent = DfpAgent::new(tiny_cfg(), 3);
        record_episode(&mut agent, 5, 100);
        // 5 steps, offsets {1,2}: step 4 has no valid offsets, step 3 has
        // only offset 1.
        assert_eq!(agent.replay_len(), 5);
        assert_eq!(agent.episodes(), 1);
        // ε decayed once.
        assert!((agent.epsilon() - 0.995).abs() < 1e-6);
    }

    #[test]
    fn targets_are_future_differences() {
        let mut agent = DfpAgent::new(tiny_cfg(), 4);
        let mut rec = EpisodeRecorder::new();
        // Deterministic measurement ramp: meas[0] = 0.1 * t.
        for t in 0..4 {
            let state = vec![0.0; 12];
            let meas = vec![0.1 * t as f32, 0.0];
            rec.record_step(&state, &meas, &[1.0, 0.0], 0);
        }
        absorb(&mut agent, &mut rec);
        // Inspect replay contents through sampling.
        let mut rng = StdRng::seed_from_u64(0);
        for e in agent.replay.sample(&mut rng, 64) {
            let t = (e.meas[0] / 0.1).round() as usize;
            // offset 1 target for measurement 0 = 0.1 when valid.
            if e.mask[0] > 0.0 {
                assert!(
                    (e.targets[0] - 0.1).abs() < 1e-5,
                    "step {t}: offset-1 change {}",
                    e.targets[0]
                );
            }
            // Masked entries are zeroed.
            for (tgt, m) in e.targets.iter().zip(&e.mask) {
                if *m == 0.0 {
                    assert_eq!(*tgt, 0.0);
                }
            }
        }
    }

    #[test]
    fn train_batch_requires_enough_replay() {
        let mut agent = DfpAgent::new(tiny_cfg(), 5);
        assert_eq!(agent.train_batch(), None);
        record_episode(&mut agent, 12, 200);
        let loss = agent.train_batch().expect("enough replay now");
        assert!(loss.is_finite() && loss >= 0.0);
        assert_eq!(agent.train_steps(), 1);
    }

    #[test]
    fn learning_rate_decays_per_train_step() {
        let mut cfg = tiny_cfg();
        cfg.lr_decay = 0.5;
        cfg.lr_min = 1e-5;
        let lr0 = cfg.learning_rate;
        let mut agent = DfpAgent::new(cfg, 5);
        record_episode(&mut agent, 12, 200);
        agent.train_batch().unwrap();
        // Step 0 trained at lr0; the optimizer now holds schedule.at(0).
        assert_eq!(agent.opt.learning_rate(), lr0);
        agent.train_batch().unwrap();
        assert!((agent.opt.learning_rate() - lr0 * 0.5).abs() < 1e-9);
        for _ in 0..30 {
            agent.train_batch().unwrap();
        }
        assert_eq!(agent.opt.learning_rate(), 1e-5, "floor respected");
    }

    #[test]
    fn training_reduces_loss_on_fixed_data() {
        let mut agent = DfpAgent::new(tiny_cfg(), 6);
        for ep in 0..4 {
            record_episode(&mut agent, 20, 300 + ep);
        }
        let initial = agent.eval_loss(256).unwrap();
        for _ in 0..200 {
            agent.train_batch();
        }
        let trained = agent.eval_loss(256).unwrap();
        assert!(
            trained < initial,
            "loss should decrease: {initial} -> {trained}"
        );
    }

    #[test]
    fn epsilon_floor_respected() {
        let mut cfg = tiny_cfg();
        cfg.epsilon_min = 0.5;
        cfg.epsilon_decay = 0.1;
        let mut agent = DfpAgent::new(cfg, 7);
        for ep in 0..10 {
            record_episode(&mut agent, 3, 400 + ep);
        }
        assert_eq!(agent.epsilon(), 0.5);
    }

    #[test]
    fn record_outcome_overwrites_provisional_measurement() {
        let mut agent = DfpAgent::new(tiny_cfg(), 8);
        let mut rec = EpisodeRecorder::new();
        let state = vec![0.0; 12];
        rec.record_step(&state, &[0.0, 0.0], &[1.0, 0.0], 0);
        rec.record_outcome(&[0.9, 0.9]);
        rec.record_step(&state, &[0.9, 0.9], &[1.0, 0.0], 0);
        absorb(&mut agent, &mut rec);
        let mut rng = StdRng::seed_from_u64(0);
        let first = agent
            .replay
            .sample(&mut rng, 32)
            .into_iter()
            .find(|e| e.meas[0] == 0.0)
            .expect("first step present");
        // offset-1 target = meas_log[1] - meas[0] = 0.9 - 0.0.
        assert!((first.targets[0] - 0.9).abs() < 1e-6);
    }
}

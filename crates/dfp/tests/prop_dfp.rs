//! Property-based tests of the DFP agent's episode bookkeeping: for any
//! episode length and measurement trajectory, the generated experiences
//! have correctly masked, correctly differenced targets.

use mrsch_dfp::{DfpAgent, DfpConfig, EpisodeRecorder};
use proptest::prelude::*;

fn tiny_cfg() -> DfpConfig {
    let mut c = DfpConfig::scaled(6, 2, 3);
    c.offsets = vec![1, 3];
    c.offset_weights = vec![0.5, 1.0];
    c.state_hidden = vec![8];
    c.state_embed = 4;
    c.io_hidden = 4;
    c.io_embed = 4;
    c.stream_hidden = 8;
    c.batch_size = 4;
    c.replay_capacity = 4096;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_targets_are_exact_future_differences(
        meas_a in prop::collection::vec(0.0f32..1.0, 2..40),
        meas_b in prop::collection::vec(0.0f32..1.0, 2..40),
    ) {
        let len = meas_a.len().min(meas_b.len());
        let cfg = tiny_cfg();
        let mut agent = DfpAgent::new(cfg.clone(), 0);
        let mut rec = EpisodeRecorder::new();
        // Encode the step index into the state so experiences are
        // attributable afterwards.
        for t in 0..len {
            let mut state = vec![0.0f32; 6];
            state[0] = t as f32;
            let meas = vec![meas_a[t], meas_b[t]];
            rec.record_step(&state, &meas, &[0.5, 0.5], t % 3);
        }
        agent.absorb_episode(rec.finish(&cfg.offsets, cfg.measurement_dim));
        prop_assert_eq!(agent.replay_len(), len);
        // Drain all experiences by sampling many times and indexing by the
        // encoded step. (Uniform sampling with replacement: sample enough.)
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let samples = agent.sample_experiences(&mut rng, len * 30);
        for e in samples {
            let t = e.state[0] as usize;
            for (oi, &off) in cfg.offsets.iter().enumerate() {
                let future = t + off;
                for m in 0..2 {
                    let idx = oi * 2 + m;
                    if future < len {
                        prop_assert_eq!(e.mask[idx], 1.0);
                        let series = if m == 0 { &meas_a } else { &meas_b };
                        let expect = series[future] - series[t];
                        prop_assert!(
                            (e.targets[idx] - expect).abs() < 1e-6,
                            "t={t} off={off} m={m}: {} vs {}",
                            e.targets[idx],
                            expect
                        );
                    } else {
                        prop_assert_eq!(e.mask[idx], 0.0);
                        prop_assert_eq!(e.targets[idx], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn act_always_returns_valid_action(
        valid_bits in prop::collection::vec(prop::bool::ANY, 3),
        seed in 0u64..500,
    ) {
        let cfg = tiny_cfg();
        let mut agent = DfpAgent::new(cfg, seed);
        let state = vec![0.1; 6];
        let meas = vec![0.5, 0.5];
        let goal = vec![0.5, 0.5];
        for explore in [true, false] {
            match agent.act(&state, &meas, &goal, &valid_bits, explore) {
                Some(a) => prop_assert!(valid_bits[a], "chose invalid action {a}"),
                None => prop_assert!(valid_bits.iter().all(|&v| !v)),
            }
        }
    }

    #[test]
    fn epsilon_decays_monotonically(episodes in 1usize..60) {
        let cfg = tiny_cfg();
        let mut agent = DfpAgent::new(cfg.clone(), 3);
        let mut prev = agent.epsilon();
        for _ in 0..episodes {
            let mut rec = EpisodeRecorder::new();
            rec.record_step(&[0.0; 6], &[0.1, 0.1], &[0.5, 0.5], 0);
            agent.absorb_episode(rec.finish(&cfg.offsets, cfg.measurement_dim));
            let eps = agent.epsilon();
            prop_assert!(eps <= prev);
            prop_assert!(eps >= cfg.epsilon_min);
            prev = eps;
        }
    }
}

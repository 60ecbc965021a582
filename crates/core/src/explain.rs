//! Decision explanations — the paper's §VI future-work direction.
//!
//! The paper closes by noting that RL schedulers are "incomprehensible to
//! debug, deploy, and adjust in practice" and names interpretability as
//! future work. This module implements a first practical cut: for any
//! decision the agent makes, produce an [`Explanation`] containing
//!
//! * the **goal vector** in force (which resource the agent was told to
//!   care about, and how much),
//! * per window slot: the job, its **goal-weighted score**, and the
//!   **predicted utilization changes** at every horizon — i.e. *what the
//!   agent believes each choice would do*,
//! * an **input-saliency** breakdown of the chosen action's score over
//!   the state vector, re-aggregated into human units (per window slot
//!   and per resource pool) via the encoder layout.
//!
//! Everything derives from two network passes (forward + one backward),
//! so explanations are cheap enough to log on every decision.

use crate::agent::DecisionInputs;
use crate::encoder::StateEncoder;
use crate::goal::GoalMode;
use mrsch_dfp::DfpAgent;
use mrsim::job::JobId;
use mrsim::policy::SchedulerView;

/// Explanation of one window slot's appeal to the agent.
#[derive(Clone, Debug)]
pub struct SlotExplanation {
    /// Window index.
    pub slot: usize,
    /// The job occupying the slot.
    pub job: JobId,
    /// Goal-weighted score (the quantity the greedy policy maximizes).
    pub score: f32,
    /// Predicted measurement changes, `[offset][measurement]`.
    pub predicted_changes: Vec<Vec<f32>>,
    /// Whether the job currently fits in free resources.
    pub fits: bool,
}

/// Saliency mass of the chosen action, re-aggregated into human units.
#[derive(Clone, Debug)]
pub struct SaliencyBreakdown {
    /// Total |gradient| mass attributed to each window slot's job
    /// features.
    pub per_window_slot: Vec<f32>,
    /// Total |gradient| mass attributed to each resource pool's unit
    /// availability features.
    pub per_resource_pool: Vec<f32>,
}

/// A full decision explanation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Decision time.
    pub now: mrsim::SimTime,
    /// The goal vector in force (one weight per resource).
    pub goal: Vec<f32>,
    /// The action the agent would take greedily.
    pub chosen_slot: Option<usize>,
    /// Per-slot detail, one entry per occupied window slot.
    pub slots: Vec<SlotExplanation>,
    /// Saliency of the chosen action over the state inputs.
    pub saliency: Option<SaliencyBreakdown>,
}

impl Explanation {
    /// Render a compact multi-line human-readable report.
    pub fn to_pretty_string(&self, resource_names: &[String]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "decision at t={}s", self.now);
        let goals: Vec<String> = self
            .goal
            .iter()
            .zip(resource_names)
            .map(|(g, n)| format!("{n}={g:.3}"))
            .collect();
        let _ = writeln!(out, "  goal: {}", goals.join(", "));
        for s in &self.slots {
            let marker = if Some(s.slot) == self.chosen_slot { "->" } else { "  " };
            let _ = writeln!(
                out,
                "{marker} slot {} (job {}): score {:+.4} {}",
                s.slot,
                s.job,
                s.score,
                if s.fits { "[fits]" } else { "[would reserve]" }
            );
        }
        if let Some(sal) = &self.saliency {
            let total: f32 = sal.per_window_slot.iter().sum::<f32>()
                + sal.per_resource_pool.iter().sum::<f32>();
            if total > 0.0 {
                let _ = writeln!(
                    out,
                    "  saliency: {:.0}% queue features, {:.0}% resource-state features",
                    100.0 * sal.per_window_slot.iter().sum::<f32>() / total,
                    100.0 * sal.per_resource_pool.iter().sum::<f32>() / total
                );
            }
        }
        out
    }
}

/// Explainer: wraps an agent + encoder and produces [`Explanation`]s for
/// scheduler views.
pub struct Explainer<'a> {
    agent: &'a mut DfpAgent,
    encoder: StateEncoder,
    goal_mode: GoalMode,
}

impl<'a> Explainer<'a> {
    /// Build an explainer over an agent. The encoder must match the
    /// agent's dimensions (same check as [`crate::MrschPolicy`]).
    pub fn new(agent: &'a mut DfpAgent, encoder: StateEncoder, goal_mode: GoalMode) -> Self {
        crate::agent::check_dimensions(agent, &encoder);
        Self { agent, encoder, goal_mode }
    }

    /// Explain the greedy decision at a scheduler view.
    pub fn explain(&mut self, view: &SchedulerView<'_>) -> Explanation {
        let DecisionInputs { state, meas, goal, valid } =
            DecisionInputs::new(&self.encoder, &self.goal_mode, view);

        let (scores, changes) = {
            let net = self.agent.network_mut();
            (
                net.action_scores(&state, &meas, &goal),
                net.predicted_changes(&state, &meas, &goal),
            )
        };

        let slots: Vec<SlotExplanation> = view
            .window
            .iter()
            .enumerate()
            .map(|(slot, jv)| SlotExplanation {
                slot,
                job: jv.job.id,
                score: scores[slot],
                predicted_changes: changes[slot].clone(),
                fits: view.pools.fits(&jv.job.demands),
            })
            .collect();

        let chosen_slot = slots
            .iter()
            .filter(|s| valid[s.slot])
            .max_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.slot.cmp(&a.slot))
            })
            .map(|s| s.slot);

        let saliency = chosen_slot.map(|a| {
            let raw = {
                let net = self.agent.network_mut();
                let raw = net.state_saliency(&state, &meas, &goal, a);
                net.zero_grad(); // saliency must not leak into training
                raw
            };
            self.aggregate_saliency(&raw, view)
        });

        Explanation { now: view.now, goal, chosen_slot, slots, saliency }
    }

    /// Fold the per-feature saliency back onto the encoder layout:
    /// `W` slots of `R+2` job features, then per-unit pairs per pool.
    fn aggregate_saliency(
        &self,
        raw: &[f32],
        view: &SchedulerView<'_>,
    ) -> SaliencyBreakdown {
        let r = view.config.num_resources();
        let w = self.encoder.window();
        let slot_width = r + 2;
        let mut per_window_slot = vec![0.0f32; w];
        for (slot, mass) in per_window_slot.iter_mut().enumerate() {
            let start = slot * slot_width;
            *mass = raw[start..start + slot_width].iter().sum();
        }
        let mut per_resource_pool = vec![0.0f32; r];
        let mut offset = w * slot_width;
        for (res, mass) in per_resource_pool.iter_mut().enumerate() {
            let units = view.config.capacities()[res] as usize;
            *mass = raw[offset..offset + 2 * units].iter().sum();
            offset += 2 * units;
        }
        SaliencyBreakdown { per_window_slot, per_resource_pool }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_dfp::DfpConfig;
    use mrsim::job::Job;
    use mrsim::policy::Policy;
    use mrsim::resources::SystemConfig;
    use mrsim::simulator::{SimParams, Simulator};

    fn setup() -> (SystemConfig, StateEncoder, DfpAgent) {
        let system = SystemConfig::two_resource(8, 4);
        let encoder = StateEncoder::with_hour_scale(system.clone(), 3);
        let mut cfg = DfpConfig::scaled(encoder.state_dim(), 2, 3);
        cfg.state_hidden = vec![16];
        cfg.state_embed = 8;
        cfg.io_hidden = 8;
        cfg.io_embed = 4;
        cfg.stream_hidden = 16;
        (system, encoder, DfpAgent::new(cfg, 5))
    }

    /// Capture one explanation through a probe policy.
    fn first_explanation(
        system: SystemConfig,
        encoder: StateEncoder,
        agent: &mut DfpAgent,
        jobs: Vec<Job>,
    ) -> Explanation {
        struct Probe<'a, 'b> {
            explainer: Explainer<'a>,
            out: &'b mut Option<Explanation>,
        }
        impl Policy for Probe<'_, '_> {
            fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
                if self.out.is_none() && !view.window.is_empty() {
                    *self.out = Some(self.explainer.explain(view));
                }
                (!view.window.is_empty()).then_some(0)
            }
        }
        let mut out = None;
        {
            let explainer = Explainer::new(agent, encoder, GoalMode::Dynamic);
            let mut probe = Probe { explainer, out: &mut out };
            let mut sim = Simulator::new(system, jobs, SimParams::default()).unwrap();
            sim.run(&mut probe);
        }
        out.expect("no decision happened")
    }

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0, 0, 600, 1200, vec![4, 2]),
            Job::new(1, 0, 600, 1200, vec![8, 0]),
        ]
    }

    #[test]
    fn explanation_covers_every_window_slot() {
        let (system, encoder, mut agent) = setup();
        let e = first_explanation(system, encoder, &mut agent, jobs());
        assert_eq!(e.slots.len(), 2);
        assert!(e.chosen_slot.is_some());
        assert_eq!(e.goal.len(), 2);
        for s in &e.slots {
            assert_eq!(s.predicted_changes.len(), agent.config().offsets.len());
            assert_eq!(s.predicted_changes[0].len(), 2);
            assert!(s.score.is_finite());
        }
    }

    #[test]
    fn chosen_slot_has_max_score() {
        let (system, encoder, mut agent) = setup();
        let e = first_explanation(system, encoder, &mut agent, jobs());
        let chosen = e.chosen_slot.unwrap();
        let best = e
            .slots
            .iter()
            .map(|s| s.score)
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(e.slots[chosen].score, best);
    }

    #[test]
    fn saliency_masses_are_nonnegative_and_cover_layout() {
        let (system, encoder, mut agent) = setup();
        let e = first_explanation(system.clone(), encoder, &mut agent, jobs());
        let sal = e.saliency.expect("saliency present when a slot is chosen");
        assert_eq!(sal.per_window_slot.len(), 3);
        assert_eq!(sal.per_resource_pool.len(), 2);
        assert!(sal.per_window_slot.iter().all(|&x| x >= 0.0));
        assert!(sal.per_resource_pool.iter().all(|&x| x >= 0.0));
        let total: f32 = sal.per_window_slot.iter().sum::<f32>()
            + sal.per_resource_pool.iter().sum::<f32>();
        assert!(total > 0.0, "a live network must have nonzero saliency");
    }

    #[test]
    fn saliency_does_not_leak_into_training_gradients() {
        let (system, encoder, mut agent) = setup();
        let _ = first_explanation(system, encoder, &mut agent, jobs());
        let mut norm = 0.0f32;
        agent.network_mut().visit_params(&mut |_, g| norm += g.norm_sq());
        assert_eq!(norm, 0.0, "explainer must zero its gradients");
    }

    #[test]
    fn pretty_string_mentions_goal_and_choice() {
        let (system, encoder, mut agent) = setup();
        let e = first_explanation(system, encoder, &mut agent, jobs());
        let names = vec!["nodes".to_string(), "burst_buffer_tb".to_string()];
        let text = e.to_pretty_string(&names);
        assert!(text.contains("goal: nodes="));
        assert!(text.contains("->"), "chosen slot marked");
        assert!(text.contains("saliency:"));
    }
}

//! Ablations of MRSch's design choices (beyond the paper's own MLP-vs-CNN
//! study):
//!
//! * **Dynamic vs fixed goal** (§III-B) — the paper's central claim is
//!   that dynamic resource prioritizing beats a static 50/50 weighting;
//!   here the *same* DFP agent runs with `GoalMode::Dynamic` and
//!   `GoalMode::Fixed`, isolating the goal mechanism from everything else.
//! * **Starvation guards on/off** (§III-C) — disabling reservation +
//!   EASY backfilling reproduces the "directly applying DFP … results in
//!   severe job starvation" observation via the max-wait metric.
//! * **Window size** (§III-A "Action") — sweeps `W` to expose the
//!   trade-off between action-space size and scheduling flexibility.

use crate::comparison::train_mrsch;
use crate::csv;
use crate::scale::ExpScale;
use mrsch::agent::MrschPolicy;
use mrsch::prelude::*;
use mrsch_workload::split::paper_split;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Node utilization.
    pub node_util: f64,
    /// Burst-buffer utilization.
    pub bb_util: f64,
    /// Average wait (hours).
    pub avg_wait_h: f64,
    /// Maximum wait (hours) — the starvation indicator.
    pub max_wait_h: f64,
    /// Average slowdown.
    pub avg_slowdown: f64,
}

fn row(config: String, r: &SimReport) -> AblationRow {
    AblationRow {
        config,
        node_util: r.resource_utilization[0],
        bb_util: r.resource_utilization[1],
        avg_wait_h: r.avg_wait_hours(),
        max_wait_h: r.max_wait as f64 / 3600.0,
        avg_slowdown: r.avg_slowdown,
    }
}

fn eval_jobs(spec: &WorkloadSpec, scale: &ExpScale, seed: u64) -> (SystemConfig, Vec<Job>) {
    let system = spec.system_for(&scale.base_system());
    let trace = scale.base_trace(seed);
    let split = paper_split(&trace);
    let mut test = split.test;
    test.truncate(scale.eval_jobs);
    let jobs = spec.build(&test, &system, seed ^ 0xEA1);
    (system, jobs)
}

/// Ablation 1: dynamic (Eq. 1) vs fixed uniform goal, same trained agent.
pub fn goal_mode(scale: &ExpScale, seed: u64) -> Vec<AblationRow> {
    let spec = WorkloadSpec::s5(); // most unbalanced contention
    let (system, jobs) = eval_jobs(&spec, scale, seed);
    let mut agent = train_mrsch(&spec, scale, seed, StateModuleKind::Mlp);
    let mut rows = Vec::new();
    for (label, mode) in [
        ("dynamic_goal(eq1)", GoalMode::Dynamic),
        ("fixed_goal(0.5/0.5)", GoalMode::uniform(2)),
    ] {
        let encoder = StateEncoder::with_hour_scale(system.clone(), scale.window);
        let mut policy = MrschPolicy::new(agent.agent_mut(), encoder, mode);
        let report = Simulator::new(system.clone(), jobs.clone(), scale.sim_params())
            .expect("valid jobs")
            .run(&mut policy);
        rows.push(row(label.to_string(), &report));
    }
    rows
}

/// Ablation 2: starvation guards (reservation + EASY backfilling) on/off.
pub fn starvation_guards(scale: &ExpScale, seed: u64) -> Vec<AblationRow> {
    let spec = WorkloadSpec::s4();
    let (system, jobs) = eval_jobs(&spec, scale, seed);
    let mut agent = train_mrsch(&spec, scale, seed, StateModuleKind::Mlp);
    let mut rows = Vec::new();
    for (label, backfill) in [("guards_on", true), ("guards_off", false)] {
        let encoder = StateEncoder::with_hour_scale(system.clone(), scale.window);
        let mut policy = MrschPolicy::new(agent.agent_mut(), encoder, GoalMode::Dynamic);
        let params = SimParams::new(scale.window, backfill);
        let report = Simulator::new(system.clone(), jobs.clone(), params)
            .expect("valid jobs")
            .run(&mut policy);
        rows.push(row(label.to_string(), &report));
    }
    rows
}

/// Ablation 3: window-size sweep under FCFS-identical training budgets.
pub fn window_size(scale: &ExpScale, seed: u64, windows: &[usize]) -> Vec<AblationRow> {
    let spec = WorkloadSpec::s4();
    let mut rows = Vec::new();
    for &w in windows {
        let mut s = *scale;
        s.window = w;
        let (_, jobs) = eval_jobs(&spec, &s, seed);
        let mut agent = train_mrsch(&spec, &s, seed, StateModuleKind::Mlp);
        let report = agent.evaluate(&jobs);
        rows.push(row(format!("window_{w}"), &report));
    }
    rows
}

/// Print ablation rows.
pub fn print(title: &str, rows: &[AblationRow]) {
    println!("Ablation — {title}");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "config", "node util", "bb util", "wait(h)", "max wait", "slowdown"
    );
    for r in rows {
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            r.config, r.node_util, r.bb_util, r.avg_wait_h, r.max_wait_h, r.avg_slowdown
        );
    }
}

/// CSV rows.
pub fn csv_rows(rows: &[AblationRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let header =
        vec!["config", "node_util", "bb_util", "avg_wait_h", "max_wait_h", "avg_slowdown"];
    let data = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                csv::f(r.node_util),
                csv::f(r.bb_util),
                csv::f(r.avg_wait_h),
                csv::f(r.max_wait_h),
                csv::f(r.avg_slowdown),
            ]
        })
        .collect();
    (header, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExpScale {
        let mut s = ExpScale::quick();
        s.eval_jobs = 25;
        s.jobs_per_set = 15;
        s.batches_per_episode = 2;
        s
    }

    #[test]
    fn goal_mode_ablation_produces_both_rows() {
        let rows = goal_mode(&tiny_scale(), 61);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].config.contains("dynamic"));
        assert!(rows[1].config.contains("fixed"));
        for r in &rows {
            assert!(r.node_util > 0.0);
        }
    }

    #[test]
    fn starvation_guard_rows_complete() {
        let rows = starvation_guards(&tiny_scale(), 62);
        assert_eq!(rows.len(), 2);
        // Both runs must finish all jobs (the guard affects waits, not
        // completion, on finite traces).
        for r in &rows {
            assert!(r.max_wait_h >= 0.0);
        }
    }

    #[test]
    fn window_sweep_covers_requested_sizes() {
        let rows = window_size(&tiny_scale(), 63, &[1, 4]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "window_1");
        assert_eq!(rows[1].config, "window_4");
    }
}

//! End-to-end benchmark of the MRSch workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed (several times, reporting
//! the median set-up time), measures it for the given seconds, checks
//! its outputs, and prints one JSON line last on stdout: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. Progress, digests and check failures go to
//! stderr. The metric names, the reason for each workload and which
//! metric each layer should move are recorded in `DESIGN.json`.

mod common;
mod drain;
mod flops;
mod infer;
mod serve;
mod train;

use common::{Outcome, RunOpts};

/// One workload: set up, measure, check.
type Workload = fn(&RunOpts) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("infer-loop", infer::run),
    ("fcfs-drain-resume", drain::run),
    ("train-curriculum", train::run),
    ("serve-open", serve::run),
];

/// Metrics printed without tracing, every one on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("op_p75_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of the traced run. A layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("op_p99_us", "us"),
    ("dfp.act_s", "s"),
    ("dfp.act_us", "us"),
    ("dfp.act_gflops_computed", "GFLOP/s"),
    ("core.encode_s", "s"),
    ("core.encode_us", "us"),
    ("core.goal_s", "s"),
    ("core.inputs_s", "s"),
    ("mrsim.self_s", "s"),
    ("mrsim.select_s", "s"),
    ("mrsim.build_s", "s"),
    ("mrsim.step_us_p50", "us"),
    ("mrsim.step_us_p99", "us"),
    ("mrsim.events", "count"),
    ("mrsim.decisions", "count"),
    ("mrsim.instances", "count"),
    ("mrsim.backfilled_jobs", "count"),
    ("mrsim.queue_len_mean", "jobs"),
    ("snapshot.encode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("resume_s", "s"),
    ("dfp.train_batch_s", "s"),
    ("dfp.train_batch_ms", "ms"),
    ("dfp.train_batch_gflops_computed", "GFLOP/s"),
    ("dfp.eval_loss_s", "s"),
    ("dfp.absorb_s", "s"),
    ("dfp.snapshot_s", "s"),
    ("rollout.sim_s", "s"),
    ("rollout.encode_s", "s"),
    ("rollout.act_s", "s"),
    ("rollout.record_s", "s"),
    ("workload.materialize_s", "s"),
    ("train.episodes", "count"),
    ("train.grad_steps", "count"),
    ("train.decisions", "count"),
    ("serve.parse_us", "us"),
    ("serve.format_us", "us"),
    ("serve.decide_batch_us.b1", "us"),
    ("serve.decide_batch_us.b8", "us"),
    ("serve.in_batcher_us_p50", "us"),
    ("serve.in_batcher_us_p99", "us"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.gen_late_us_p99", "us"),
    ("trace_overhead_frac", "ratio"),
    ("coverage_frac", "ratio"),
    ("peak_rss_traced_mb", "MiB"),
];

const USAGE: &str =
    "usage: perfbench --workload <infer-loop|fcfs-drain-resume|train-curriculum|serve-open> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag}: expected 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// The result line: the requested metric list in its fixed order.
fn result_json(out: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = match out.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("error: unknown workload '{name}'\n{USAGE}");
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: workload {name}, seed {}, {} s, trace {}, {} core(s)",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = run(&opts);
    if opts.trace {
        out.metrics
            .insert("peak_rss_traced_mb", common::peak_rss_mb());
    }
    println!("{}", result_json(&out, opts.trace));
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, o) = parse_args(&args(
            "--workload serve-open --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds, o.trace),
            ("serve-open", 7, 2.5, true)
        );
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    /// The metric lists here, `BENCHMARK.json` and `DESIGN.json` name
    /// the same metrics and workloads.
    #[test]
    fn declared_metrics_match_the_benchmark_files() {
        let bench = include_str!("../../BENCHMARK.json");
        let design = include_str!("../DESIGN.json");
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            for &(name, unit) in list {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
                assert!(
                    bench.contains(&entry),
                    "{name} ({unit}) missing from BENCHMARK.json"
                );
                assert!(
                    design.contains(&format!("\"{name}\"")),
                    "{name} missing from DESIGN.json"
                );
            }
        }
        assert_eq!(
            bench.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, _) in WORKLOADS {
            assert!(
                bench.contains(&format!("\"name\": \"{name}\""))
                    && design.contains(&format!("\"{name}\""))
            );
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Default::default(),
        };
        for (name, _) in END_TO_END {
            out.metrics.insert(name, 1.5);
        }
        let line = result_json(&out, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        out.metrics.clear();
        assert!(result_json(&out, true).contains("\"dfp.act_s\": {\"value\": 0.0"));
    }
}

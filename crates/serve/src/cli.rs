//! The `mrsch_cli serve` subcommand.
//!
//! Hand-rolled flag parsing (no clap — the workspace vendors its
//! dependencies and keeps the CLI surface tiny). The policy to serve is
//! addressed through the PR 4 registry string (`--policy mrsch`,
//! `--policy mrsch:cnn`), so the serving stack and the evaluation
//! harness agree on what a policy *is*.

use crate::batcher::BatcherConfig;
use crate::engine::{build_engine, EngineSpec};
use crate::loadgen::LoadgenConfig;
use crate::server;
use mrsch_eval::PolicySpec;

const USAGE: &str = "\
mrsch_cli serve [--mode stdin|tcp|loadtest] [options]

Serving:
  --mode MODE          stdin (default): protocol lines on stdin/stdout
                       tcp: accept connections on --addr
                       loadtest: seeded open-arrival self-test
  --addr HOST:PORT     TCP listen address       [127.0.0.1:7077]
  --policy SPEC        registry policy to serve (mrsch, mrsch:cnn) [mrsch]

Micro-batching (a free worker decides what is queued at once):
  --batch N            most requests per batch  [8]
  --queue-capacity N   bound before shedding    [1024]
  --workers N          batch worker threads     [1]

Engine (registry build):
  --window W           actions / scheduling window [10]
  --nodes N            compute nodes            [256]
  --bb N               burst-buffer units       [75]
  --seed S             init/training seed       [1]
  --train-episodes E   curriculum episodes (0 = untrained) [0]

Load test:
  --requests N         requests to issue        [200]
  --qps Q              mean open-arrival rate   [500]";

/// Parse flags and run the requested serving mode. Returns the summary
/// line to print, or a usage/parse error.
pub fn serve_main(args: &[String]) -> Result<String, String> {
    let mut mode = "stdin".to_string();
    let mut addr = "127.0.0.1:7077".to_string();
    let mut policy = "mrsch".to_string();
    let mut batcher = BatcherConfig::default();
    let mut spec = EngineSpec::default();
    let mut load = LoadgenConfig::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--mode" => mode = value("--mode")?,
            "--addr" => addr = value("--addr")?,
            "--policy" => policy = value("--policy")?,
            "--batch" => batcher.max_batch = parse(&value("--batch")?, "--batch")?,
            "--queue-capacity" => {
                batcher.queue_capacity = parse(&value("--queue-capacity")?, "--queue-capacity")?
            }
            "--workers" => batcher.workers = parse(&value("--workers")?, "--workers")?,
            "--window" => spec.window = parse(&value("--window")?, "--window")?,
            "--nodes" => spec.nodes = parse(&value("--nodes")?, "--nodes")?,
            "--bb" => spec.bb = parse(&value("--bb")?, "--bb")?,
            "--seed" => {
                spec.seed = parse(&value("--seed")?, "--seed")?;
                load.seed = spec.seed;
            }
            "--train-episodes" => {
                spec.train_episodes = parse(&value("--train-episodes")?, "--train-episodes")?
            }
            "--requests" => load.requests = parse(&value("--requests")?, "--requests")?,
            "--qps" => load.target_qps = parse(&value("--qps")?, "--qps")?,
            "--help" | "-h" => return Ok(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }

    // Resolve the policy through the registry so `serve` and `evaluate`
    // can never disagree about a spec string.
    match PolicySpec::parse(&policy)? {
        PolicySpec::Mrsch(m) => spec.state_module = m.state_module,
        other => {
            return Err(format!(
                "policy '{}' is not a servable network (serve a DFP policy: mrsch, mrsch:cnn)",
                other.name()
            ))
        }
    }

    if !matches!(mode.as_str(), "stdin" | "tcp" | "loadtest") {
        return Err(format!("unknown mode '{mode}'\n\n{USAGE}"));
    }
    for (flag, value) in [
        ("--batch", batcher.max_batch),
        ("--queue-capacity", batcher.queue_capacity),
        ("--workers", batcher.workers),
        ("--window", spec.window),
    ] {
        if value == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    if !(load.target_qps.is_finite() && load.target_qps > 0.0) {
        return Err(format!("--qps must be a positive number, got {}", load.target_qps));
    }
    let engine = build_engine(&spec);
    match mode.as_str() {
        "stdin" => server::run_stdin(engine, batcher),
        "tcp" => server::run_tcp(engine, batcher, &addr),
        "loadtest" => {
            let report = server::run_loadtest(engine, batcher, &load);
            Ok(format!(
                "loadtest: {} requests at {:.0} qps target -> {} answered, {} dropped | \
                 latency p50={}us p95={}us p99={}us mean={}us max={}us | \
                 achieved {:.0} qps, mean batch {:.2}",
                load.requests,
                load.target_qps,
                report.total,
                report.dropped,
                report.p50_ns / 1_000,
                report.p95_ns / 1_000,
                report.p99_ns / 1_000,
                report.mean_ns / 1_000,
                report.max_ns / 1_000,
                report.qps,
                report.mean_batch,
            ))
        }
        _ => unreachable!("mode validated above"),
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn loadtest_mode_end_to_end() {
        let out = serve_main(&argv(
            "--mode loadtest --window 4 --nodes 16 --bb 8 --requests 32 --qps 2000 \
             --batch 4",
        ))
        .expect("loadtest runs");
        assert!(out.contains("32 answered, 0 dropped"), "report: {out}");
        assert!(out.contains("p99="), "report: {out}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(serve_main(&argv("--mode warp")).unwrap_err().contains("unknown mode"));
        assert!(serve_main(&argv("--frobnicate 3")).unwrap_err().contains("unknown flag"));
        assert!(serve_main(&argv("--batch")).unwrap_err().contains("needs a value"));
        assert!(serve_main(&argv("--policy fcfs")).unwrap_err().contains("not a servable"));
        assert!(serve_main(&argv("--help")).unwrap().contains("mrsch_cli serve"));
        assert!(serve_main(&argv("--delay-us 2000")).unwrap_err().contains("unknown flag '--delay-us'"));
    }

    #[test]
    fn degenerate_values_are_rejected_by_flag() {
        for (args, flag) in [
            ("--batch 0", "--batch"),
            ("--workers 0", "--workers"),
            ("--window 0", "--window"),
            ("--queue-capacity 0", "--queue-capacity"),
            ("--mode loadtest --qps 0", "--qps"),
            ("--mode loadtest --qps NaN", "--qps"),
            ("--mode loadtest --qps -5", "--qps"),
            ("--mode loadtest --qps inf", "--qps"),
        ] {
            let err = serve_main(&argv(args)).expect_err(args);
            assert!(err.starts_with(flag), "{args}: {err}");
        }
    }
}

//! Substrate bench: the decision-serving hot path.
//!
//! Four families of cells, written to `results/BENCH_serve.json`
//! (schema `mrsch-bench/v2`) and gated against the committed baseline:
//!
//! * **gemv vs packed GEMM** on the Theta hidden shape (1×4000 by
//!   4000×1000) — the batch-1 forward-pass matmul the §V-F decision
//!   overhead is made of. The gemv cell carries the **in-run** speedup
//!   over the packed-GEMM probe on the same operands (host-speed
//!   independent; the gated metric).
//! * **decision latency** — p50/p99 of a full single-request decision
//!   (encoder-shaped request through a [`DecisionEngine`]), measured
//!   with the serve crate's own HDR histogram.
//! * **batched vs serial decisions** — eight coalesced requests through
//!   one `decide_batch` pass vs eight `decide_one` passes, on a
//!   **Theta-scale engine** (weight matrices far beyond cache). Both run
//!   every row through the same gemv kernel, so the batched cell's
//!   in-run per-decision ratio (gated) sits at parity: micro-batching's
//!   value is queue smoothing under load, not raw throughput, and the
//!   gate exists to catch either path regressing relative to the
//!   other.
//! * **open-arrival load test** — the full micro-batching service under
//!   a seeded Poisson schedule; **zero shed requests is asserted**, so
//!   a batcher that starts dropping under CI quick-mode load fails the
//!   bench outright.
//!
//! Env knobs: `MRSCH_BENCH_QUICK=1` shrinks the measurement budget for
//! CI; `MRSCH_BENCH_JSON=path` redirects the report (default
//! `results/BENCH_serve.json`).

use criterion::Criterion;
use mrsch_bench::report::{BenchRecord, BenchReport, SCHEMA};
use mrsch_linalg::{gemm, gemv, kernel_isa, Epilogue, Matrix, ParallelPolicy};
use mrsch_serve::{
    build_engine, run_loadtest, synth_requests, BatcherConfig, EngineSpec, LatencyHistogram,
    LoadgenConfig, Request,
};
use std::time::{Duration, Instant};

const SEED: u64 = 20_220_517;
/// Theta hidden-layer shape: 4000-wide activations into 1000 units.
const THETA_K: usize = 4000;
const THETA_N: usize = 1000;

/// Deterministic matrix fill (no RNG dependency in the hot loop).
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for v in m.as_mut_slice() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    m
}

fn main() {
    let quick = std::env::var_os("MRSCH_BENCH_QUICK").is_some();
    let mut criterion = Criterion::default().configure_from_args();
    criterion = if quick {
        criterion.sample_size(3).measurement_time(Duration::from_millis(300))
    } else {
        criterion.sample_size(10).measurement_time(Duration::from_secs(3))
    };

    // --- gemv vs packed GEMM on the Theta shape ------------------------
    let x = lcg_matrix(1, THETA_K, SEED);
    let w = lcg_matrix(THETA_K, THETA_N, SEED ^ 0xA5A5);
    // Sanity: both timed paths are bit-identical on these operands.
    {
        let via_gemv = gemv::gemv(&x, &w, Epilogue::None);
        let via_packed = gemm::matmul_packed_with(&x, &w, ParallelPolicy::Serial);
        assert!(
            via_gemv
                .as_slice()
                .iter()
                .zip(via_packed.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "gemv and packed GEMM disagree on the Theta shape"
        );
    }
    criterion.bench_function("serve/gemv/theta_1x4000x1000", |b| {
        b.iter(|| gemv::gemv(&x, &w, Epilogue::None))
    });
    criterion.bench_function("serve/packed/theta_1x4000x1000", |b| {
        b.iter(|| gemm::matmul_packed_with(&x, &w, ParallelPolicy::Serial))
    });

    // --- engine decision cells ----------------------------------------
    // Laptop-scale engine: the latency/loadtest deployment profile.
    let spec = EngineSpec::default(); // window 10, two-resource 256/75
    let engine = build_engine(&spec);
    let reqs: Vec<Request> = synth_requests(engine.config(), 8, SEED);

    // Decision latency distribution via the serve histogram (criterion
    // reports means; serving cares about tails).
    let decision_iters = if quick { 500 } else { 5_000 };
    let mut hist = LatencyHistogram::new();
    for i in 0..decision_iters {
        let req = &reqs[i % reqs.len()];
        let t0 = Instant::now();
        let action = engine.decide_one(req);
        hist.record(t0.elapsed().as_nanos() as u64);
        assert!(action.is_some(), "synth requests always have a valid action");
    }

    // Theta-scale engine (4392-node encoder, untrained weights — timing
    // is weight-value independent): the DRAM-bound batching regime.
    let theta_engine =
        build_engine(&EngineSpec { nodes: 4_392, bb: 75, ..EngineSpec::default() });
    let theta_reqs: Vec<Request> = synth_requests(theta_engine.config(), 8, SEED ^ 0x7E7A);
    let theta_batch: Vec<&Request> = theta_reqs.iter().collect();
    assert_eq!(
        theta_engine.decide_batch(&theta_batch),
        theta_batch.iter().map(|r| theta_engine.decide_one(r)).collect::<Vec<_>>(),
        "batched and serial decisions must be bit-identical"
    );

    criterion.bench_function("serve/serial8/theta_2res", |b| {
        b.iter(|| theta_batch.iter().map(|r| theta_engine.decide_one(r)).collect::<Vec<_>>())
    });
    criterion.bench_function("serve/batched8/theta_2res", |b| {
        b.iter(|| theta_engine.decide_batch(&theta_batch))
    });

    // --- open-arrival load test (zero-shed asserted) -------------------
    let load = LoadgenConfig {
        requests: if quick { 256 } else { 2_048 },
        target_qps: if quick { 2_000.0 } else { 5_000.0 },
        seed: SEED,
    };
    let report = run_loadtest(engine, BatcherConfig::default(), &load);
    assert_eq!(
        report.dropped, 0,
        "micro-batcher shed {} of {} requests under the CI load profile",
        report.dropped, load.requests
    );
    assert_eq!(report.total as usize, load.requests, "every request answered");

    let mean_of = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .expect("bench cell measured")
    };
    let gemv_ns = mean_of("serve/gemv/theta_1x4000x1000");
    let packed_ns = mean_of("serve/packed/theta_1x4000x1000");
    let serial8_ns = mean_of("serve/serial8/theta_2res");
    let batched8_ns = mean_of("serve/batched8/theta_2res");

    let shape_tags = |path: &str| {
        vec![
            ("op".to_string(), "gemm_1row".to_string()),
            ("path".to_string(), path.to_string()),
            ("shape".to_string(), format!("1x{THETA_K}x{THETA_N}")),
        ]
    };
    let results = vec![
        // The headline gated ratio: fused gemv speedup over the packed
        // micro-kernel GEMM on the same batch-1 operands, same process.
        BenchRecord {
            bench: "serve/gemv/theta_1x4000x1000".to_string(),
            group: "serve".to_string(),
            unit: "ns_per_iter".to_string(),
            value: gemv_ns,
            ratio: Some(packed_ns / gemv_ns),
            ratio_kind: "speedup_vs_packed".to_string(),
            extras: vec![("gflops".to_string(), (2 * THETA_K * THETA_N) as f64 / gemv_ns)],
            tags: shape_tags("gemv"),
        },
        BenchRecord {
            bench: "serve/packed/theta_1x4000x1000".to_string(),
            group: "serve".to_string(),
            unit: "ns_per_iter".to_string(),
            value: packed_ns,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![("gflops".to_string(), (2 * THETA_K * THETA_N) as f64 / packed_ns)],
            tags: shape_tags("packed"),
        },
        BenchRecord {
            bench: "serve/decision/window10".to_string(),
            group: "serve".to_string(),
            unit: "ns_per_decision".to_string(),
            value: hist.percentile(50.0) as f64,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![
                ("p50_ns".to_string(), hist.percentile(50.0) as f64),
                ("p99_ns".to_string(), hist.percentile(99.0) as f64),
                ("mean_ns".to_string(), hist.mean() as f64),
                ("max_ns".to_string(), hist.max() as f64),
                ("iters".to_string(), decision_iters as f64),
            ],
            tags: vec![("engine".to_string(), "window10_2res".to_string())],
        },
        // Gated: per-decision speedup of one 8-row batched pass over
        // eight single-request passes on the Theta-scale engine, same
        // requests, same process.
        BenchRecord {
            bench: "serve/batched8/theta_2res".to_string(),
            group: "serve".to_string(),
            unit: "ns_per_iter".to_string(),
            value: batched8_ns,
            ratio: Some(serial8_ns / batched8_ns),
            ratio_kind: "speedup_vs_serial".to_string(),
            extras: vec![
                ("batch".to_string(), 8.0),
                ("ns_per_decision".to_string(), batched8_ns / 8.0),
            ],
            tags: vec![("engine".to_string(), "theta_2res".to_string())],
        },
        BenchRecord {
            bench: "serve/serial8/theta_2res".to_string(),
            group: "serve".to_string(),
            unit: "ns_per_iter".to_string(),
            value: serial8_ns,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![("ns_per_decision".to_string(), serial8_ns / 8.0)],
            tags: vec![("engine".to_string(), "theta_2res".to_string())],
        },
        BenchRecord {
            bench: "serve/loadtest/open_arrival".to_string(),
            group: "serve".to_string(),
            unit: "qps".to_string(),
            value: report.qps,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![
                ("requests".to_string(), report.total as f64),
                ("dropped".to_string(), report.dropped as f64),
                ("p50_ns".to_string(), report.p50_ns as f64),
                ("p99_ns".to_string(), report.p99_ns as f64),
                ("mean_batch".to_string(), report.mean_batch),
            ],
            tags: vec![("arrivals".to_string(), "poisson_open".to_string())],
        },
    ];

    println!(
        "serve/gemv theta 1x{THETA_K}x{THETA_N}: {:.0} ns ({:.2}x vs packed GEMM)",
        gemv_ns,
        packed_ns / gemv_ns
    );
    println!(
        "serve/decision: p50 {} ns, p99 {} ns | batched8 {:.2}x vs serial",
        hist.percentile(50.0),
        hist.percentile(99.0),
        serial8_ns / batched8_ns
    );
    println!(
        "serve/loadtest: {:.0} qps achieved, p99 {} us, mean batch {:.2}, 0 dropped",
        report.qps,
        report.p99_ns / 1_000,
        report.mean_batch
    );

    let out = BenchReport { quick, host: kernel_isa().to_string(), results };
    let path = std::env::var("MRSCH_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../results/BENCH_serve.json", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, out.to_json()) {
        Ok(()) => println!("serve report ({SCHEMA}): {path} ({} records)", out.results.len()),
        Err(e) => eprintln!("serve report: failed to write {path}: {e}"),
    }
}

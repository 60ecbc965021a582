//! Shared measurement helpers: run options, latency samples, layer
//! spans, set-up timing, the measured iteration loop, peak memory and
//! output digests.

use mrsch_serve::LatencyHistogram;
use mrsim::policy::{Policy, SchedulerView, StepFeedback};
use mrsim::{SimReport, Simulator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to the runner: the checks' verdict, the
/// failure count, and the metrics of the requested kind (end-to-end
/// without tracing, per-layer with it) by name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Latency samples in nanoseconds. Percentiles come from the sorted raw
/// samples, so a reported value keeps all its digits; the shared
/// [`LatencyHistogram`] is filled alongside and its bucketed reading is
/// printed next to the exact one, with the sample count. Closing an
/// iteration with [`Samples::end_iteration`] folds its samples into
/// per-iteration percentiles; a reported percentile is then the median
/// over iterations, which a single disturbed iteration cannot move.
#[derive(Default)]
pub struct Samples {
    raw: Vec<u64>,
    hist: LatencyHistogram,
    total_ns: u128,
    /// `FOLDED` percentiles in microseconds of each closed iteration.
    iters: Vec<[f64; 4]>,
}

const FOLDED: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

impl Samples {
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.raw.push(ns);
        self.hist.record(ns);
        self.total_ns += ns as u128;
    }

    /// Samples recorded over all iterations.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// Close the current iteration (no-op when it recorded nothing).
    pub fn end_iteration(&mut self) {
        if !self.raw.is_empty() {
            let folded = FOLDED.map(|p| self.raw_percentile_us(p));
            self.iters.push(folded);
            self.raw.clear();
        }
    }

    /// Nearest-rank `p`-th percentile of the open iteration's samples in
    /// microseconds (0 when empty).
    fn raw_percentile_us(&mut self, p: f64) -> f64 {
        if self.raw.is_empty() {
            return 0.0;
        }
        self.raw.sort_unstable();
        let rank = ((p / 100.0) * self.raw.len() as f64).ceil().max(1.0) as usize;
        self.raw[rank.min(self.raw.len()) - 1] as f64 / 1e3
    }

    /// The `p`-th percentile in microseconds: the median over closed
    /// iterations when any were closed (`p` must then be one of
    /// `FOLDED`), else over all samples.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        if self.iters.is_empty() {
            return self.raw_percentile_us(p);
        }
        let k = FOLDED
            .iter()
            .position(|&f| f == p)
            .expect("percentile folded per iteration");
        median(&self.iters.iter().map(|it| it[k]).collect::<Vec<_>>())
    }

    /// Sum of all samples in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.total_ns as f64 / n as f64 / 1e3,
        }
    }

    /// One human-readable line: exact and histogram p50/p75/p90/p99
    /// with the sample count.
    pub fn describe(&mut self, what: &str) -> String {
        let cells: Vec<String> = FOLDED
            .iter()
            .map(|&p| {
                let hist = self.hist.percentile(p) as f64 / 1e3;
                format!("p{p} {:.3} us (hist {hist:.3})", self.percentile_us(p))
            })
            .collect();
        format!("{what}: {}, n = {}", cells.join(", "), self.count())
    }
}

/// Accumulated time and call count per named span.
#[derive(Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Run `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed());
        out
    }

    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.totals.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Total seconds spent in `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |e| e.0.as_secs_f64())
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |e| e.1)
    }

    /// Mean microseconds per call of `name` (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.secs(name) * 1e6 / n as f64,
        }
    }
}

/// A library policy behind a bare clock pair: each `select` call is one
/// latency sample; everything else is forwarded untouched.
pub struct Timed<'a> {
    pub inner: &'a mut dyn Policy,
    pub samples: &'a mut Samples,
}

impl Policy for Timed<'_> {
    fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
        let t0 = Instant::now();
        let action = self.inner.select(view);
        self.samples.record(t0.elapsed());
        action
    }

    fn feedback(&mut self, fb: &StepFeedback) {
        self.inner.feedback(fb);
    }

    fn episode_end(&mut self, report: &SimReport) {
        self.inner.episode_end(report);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `Simulator::run` as its documented `step` loop, with a clock pair
/// around every step that processed an event batch.
pub fn run_stepped(sim: &mut Simulator, policy: &mut dyn Policy, steps: &mut Samples) -> SimReport {
    loop {
        let t0 = Instant::now();
        if !sim.step(policy) {
            break;
        }
        steps.record(t0.elapsed());
    }
    let report = sim.final_report();
    policy.episode_end(&report);
    report
}

/// Mean number of waiting jobs by Little's law: total wait over the
/// makespan.
pub fn queue_len_mean(report: &SimReport) -> f64 {
    let wait: u64 = report.records.iter().map(|r| r.wait()).sum();
    wait as f64 / report.makespan.max(1) as f64
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Build the workload's inputs `reps` times and return the last result
/// with the median build time in seconds.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Run `iterate` until `seconds` have passed and at least `min_iters`
/// iterations are done; returns each iteration's wall seconds and
/// result.
pub fn measure<R>(seconds: f64, min_iters: usize, mut iterate: impl FnMut() -> R) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = iterate();
        out.push((t0.elapsed().as_secs_f64(), r));
    }
    out
}

/// [`measure`] for iterations that must all give the same result: keeps
/// the first and compares each later one with it, so memory stays flat
/// however many iterations run. Returns the wall seconds, the first
/// result, and whether every later one equalled it.
pub fn measure_same<R: PartialEq>(
    seconds: f64,
    min_iters: usize,
    mut iterate: impl FnMut() -> R,
) -> (Vec<f64>, R, bool) {
    let mut first = None;
    let mut same = true;
    let walls = measure(seconds, min_iters, || {
        let r = iterate();
        match &first {
            None => first = Some(r),
            Some(f) => same &= r == *f,
        }
    });
    (
        walls.into_iter().map(|(w, ())| w).collect(),
        first.expect("at least one iteration"),
        same,
    )
}

/// Median and mean of iteration wall seconds; prints them all under
/// `what`.
pub fn walls(what: &str, w: &[f64]) -> (f64, f64) {
    eprintln!("{what} iteration walls (s): {w:.3?}");
    (median(w), w.iter().sum::<f64>() / w.len() as f64)
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit digest, printed so runs can be compared by eye.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Record one failed check on stderr; returns `ok` so checks chain.
pub fn check(ok: bool, what: &str) -> bool {
    if !ok {
        eprintln!("CHECK FAILED: {what}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_over_raw_samples() {
        let mut s = Samples::default();
        for us in 1..=100u64 {
            s.record(Duration::from_micros(us));
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.percentile_us(50.0), 50.0);
        assert_eq!(s.percentile_us(99.0), 99.0);
        assert_eq!(s.percentile_us(100.0), 100.0);
        assert!((s.mean_us() - 50.5).abs() < 1e-9);
        assert_eq!(Samples::default().percentile_us(50.0), 0.0);
    }

    #[test]
    fn closed_iterations_report_the_median_of_their_percentiles() {
        let mut s = Samples::default();
        for scale in [1, 3, 2] {
            for us in 1..=100u64 {
                s.record(Duration::from_micros(us * scale));
            }
            s.end_iteration();
        }
        s.end_iteration();
        assert_eq!(s.count(), 300);
        assert_eq!(s.percentile_us(50.0), 100.0);
        assert_eq!(s.percentile_us(75.0), 150.0);
        assert_eq!(s.percentile_us(99.0), 198.0);
        assert!((s.total_s() - 0.0303).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spans_accumulate_time_and_calls() {
        let mut s = Spans::default();
        s.add("a", Duration::from_millis(2));
        s.add("a", Duration::from_millis(4));
        assert_eq!(s.calls("a"), 2);
        assert!((s.secs("a") - 0.006).abs() < 1e-12);
        assert!((s.mean_us("a") - 3000.0).abs() < 1e-6);
        assert_eq!(s.mean_us("missing"), 0.0);
    }
}

//! `serve-open`: an open loop feeding the decision server. One generator
//! thread writes protocol lines into an in-process stream on a seeded
//! Poisson schedule at a fixed rate below saturation; `serve_stream`
//! parses them, micro-batches them with the CLI defaults, and writes
//! response lines. Each request is timed from when it was due, so a
//! stall also charges the requests queued behind it.

use crate::common::{check, median, peak_rss_mb, timed_setup, Outcome, RunOpts, Samples};
use mrsch_serve::protocol::format_request;
use mrsch_serve::server::serve_stream;
use mrsch_serve::{
    arrival_offsets, build_engine, format_response, parse_request, parse_response, synth_requests,
    BatcherConfig, DecisionEngine, EngineSpec, MicroBatcher, Reply, Request,
};
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mean arrival rate. Well below saturation: at 2000/s on a shared
/// 2-vCPU virtual machine the host's slower moments pushed the batcher
/// into queueing and the median latency moved by half between runs.
const QPS: f64 = 1000.0;
/// Requests per burst (one measured iteration, about a second).
const REQUESTS: usize = 1000;

/// The served engine and the seeded request stream.
pub struct Inputs {
    engine: DecisionEngine,
    requests: Vec<Request>,
    lines: Vec<String>,
    offsets: Vec<Duration>,
}

/// One response line as it reached the client.
struct Response {
    id: u64,
    action: Option<usize>,
    at: Instant,
}

/// What one burst produced.
pub struct Burst {
    responses: Vec<Response>,
    start: Instant,
    /// Generator lateness per request (sent − due).
    late: Vec<Duration>,
    /// Response lines that did not parse.
    garbled: usize,
}

/// The read end of the in-process stream: one protocol line per message.
struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The client's side of the response stream: stamps each complete line
/// on arrival.
#[derive(Clone, Default)]
struct ResponseSink {
    pending: Vec<u8>,
    seen: Arc<Mutex<(Vec<Response>, usize)>>,
}

impl Write for ResponseSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let at = Instant::now();
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let parsed = std::str::from_utf8(&line)
                .map_err(|e| e.to_string())
                .and_then(parse_response);
            let mut seen = self.seen.lock().expect("response sink poisoned");
            match parsed {
                Ok((id, action)) => seen.0.push(Response { id, action, at }),
                Err(_) => seen.1 += 1,
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Inputs {
    pub fn new(engine: DecisionEngine, count: usize, qps: f64, seed: u64) -> Self {
        let requests = synth_requests(engine.config(), count, seed);
        let offsets = arrival_offsets(count, qps, seed);
        let lines = requests.iter().map(|r| format_request(r) + "\n").collect();
        Self {
            engine,
            requests,
            lines,
            offsets,
        }
    }

    /// Send every line at its due time through `send`; returns the
    /// lateness of each send. The generator yields instead of sleeping:
    /// a sleeping thread on a virtual machine can wake milliseconds
    /// late, which would charge the generator's lateness to the server.
    fn generate(&self, start: Instant, send: impl Fn(&str)) -> Vec<Duration> {
        let mut late = Vec::with_capacity(self.lines.len());
        for (line, offset) in self.lines.iter().zip(&self.offsets) {
            let due = start + *offset;
            while Instant::now() < due {
                std::thread::yield_now();
            }
            late.push(Instant::now().saturating_duration_since(due));
            send(line);
        }
        late
    }

    /// One untraced burst through `serve_stream`.
    pub fn burst(&self) -> Burst {
        let (tx, rx) = mpsc::channel::<String>();
        let sink = ResponseSink::default();
        let seen = Arc::clone(&sink.seen);
        let start = Instant::now() + Duration::from_millis(1);
        let late = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let late = self.generate(start, |line| {
                    tx.send(line.to_string())
                        .expect("server reads until the stream ends")
                });
                drop(tx);
                late
            });
            let reader = BufReader::new(LineReader {
                rx,
                buf: Vec::new(),
                pos: 0,
            });
            let summary = serve_stream(self.engine.clone(), BatcherConfig::default(), reader, sink);
            eprintln!("serve-open burst: {summary}");
            generator.join().expect("generator thread")
        });
        let (responses, garbled) =
            std::mem::take(&mut *seen.lock().expect("response sink poisoned"));
        Burst {
            responses,
            start,
            late,
            garbled,
        }
    }

    /// Checks one burst against `decide_one` on every request. Returns
    /// `(correct, failed)`: shed or refused replies (`none`; every
    /// request has a valid action) and missing replies are failures, a
    /// wrong decision or a garbled line is incorrect.
    fn check_burst(&self, burst: &Burst, expected: &[Option<usize>]) -> (bool, u64) {
        let mut answered = vec![0u32; self.requests.len()];
        let mut correct = burst.garbled == 0;
        let mut refused = 0u64;
        for r in &burst.responses {
            let Some(slot) = answered.get_mut(r.id as usize) else {
                correct = false;
                continue;
            };
            *slot += 1;
            match r.action {
                None => refused += 1,
                a => correct &= a == expected[r.id as usize],
            }
        }
        correct &= answered.iter().all(|&n| n <= 1);
        let missing = answered.iter().filter(|&&n| n == 0).count() as u64;
        (correct, refused + missing)
    }

    /// Latency of every answered request, from due time to response.
    fn latencies(&self, burst: &Burst, into: &mut Samples) {
        for r in burst.responses.iter().filter(|r| r.action.is_some()) {
            let due = burst.start + self.offsets[r.id as usize];
            into.record(r.at.saturating_duration_since(due));
        }
    }

    /// One traced burst: the benchmark drives `MicroBatcher` itself and
    /// does the parse and format, timing each.
    fn traced_burst(&self, layers: &mut ServeLayers) -> Burst {
        let batcher = MicroBatcher::start(self.engine.clone(), BatcherConfig::default());
        let (line_tx, line_rx) = mpsc::channel::<String>();
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let start = Instant::now() + Duration::from_millis(1);
        let (late, responses) = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let late = self.generate(start, |line| {
                    line_tx
                        .send(line.to_string())
                        .expect("pump reads until the stream ends")
                });
                drop(line_tx);
                late
            });
            let (format, in_batcher, batch_sum) = (
                &mut layers.format,
                &mut layers.in_batcher,
                &mut layers.batch_sum,
            );
            let writer = scope.spawn(move || {
                let mut out = Vec::new();
                let mut sink = Vec::new();
                for reply in reply_rx {
                    if reply.batch_size > 0 {
                        in_batcher.record(reply.completed.duration_since(reply.submitted));
                        *batch_sum += reply.batch_size as u64;
                    }
                    let t0 = Instant::now();
                    let line = format_response(reply.id, reply.action);
                    format.record(t0.elapsed());
                    sink.clear();
                    writeln!(sink, "{line}").expect("write to memory");
                    out.push(Response {
                        id: reply.id,
                        action: reply.action,
                        at: Instant::now(),
                    });
                }
                out
            });
            let (parse, shed) = (&mut layers.parse, &mut layers.shed);
            for line in line_rx {
                let t0 = Instant::now();
                let req = parse_request(&line).expect("generated lines parse");
                parse.record(t0.elapsed());
                let id = req.id;
                if !batcher.submit(req, reply_tx.clone()) {
                    *shed += 1;
                    let now = Instant::now();
                    let refused = Reply {
                        id,
                        action: None,
                        submitted: now,
                        completed: now,
                        batch_size: 0,
                    };
                    reply_tx
                        .send(refused)
                        .expect("writer runs until replies end");
                }
            }
            drop(reply_tx);
            let late = generator.join().expect("generator thread");
            (late, writer.join().expect("writer thread"))
        });
        batcher.shutdown();
        Burst {
            responses,
            start,
            late,
            garbled: 0,
        }
    }
}

/// Per-layer readings of the traced bursts.
#[derive(Default)]
struct ServeLayers {
    parse: Samples,
    format: Samples,
    in_batcher: Samples,
    batch_sum: u64,
    shed: u64,
}

/// Mean microseconds of one `decide_batch` call over `chunk`-sized
/// slices of the workload's requests.
fn decide_batch_us(
    engine: &DecisionEngine,
    requests: &[Request],
    chunk: usize,
    calls: usize,
) -> f64 {
    let batches: Vec<Vec<&Request>> = requests
        .chunks(chunk)
        .take(calls)
        .map(|c| c.iter().collect())
        .collect();
    let t0 = Instant::now();
    for b in &batches {
        std::hint::black_box(engine.decide_batch(b));
    }
    t0.elapsed().as_secs_f64() * 1e6 / batches.len() as f64
}

fn late_p99_us(bursts: &[Burst]) -> f64 {
    let mut late = Samples::default();
    bursts
        .iter()
        .flat_map(|b| &b.late)
        .for_each(|d| late.record(*d));
    eprintln!("{}", late.describe("serve-open generator lateness"));
    late.percentile_us(99.0)
}

pub fn run(opts: &RunOpts) -> Outcome {
    let (inputs, setup_s) = timed_setup(5, || {
        Inputs::new(
            build_engine(&EngineSpec::default()),
            REQUESTS,
            QPS,
            opts.seed,
        )
    });
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let bursts = crate::common::measure(budget, 3, || inputs.burst());
    let expected: Vec<Option<usize>> = inputs
        .requests
        .iter()
        .map(|r| inputs.engine.decide_one(r))
        .collect();
    let mut correct = true;
    let mut failed = 0;
    let mut latency = Samples::default();
    let mut walls = Vec::new();
    for (_, b) in &bursts {
        let (ok, f) = inputs.check_burst(b, &expected);
        correct &= check(
            ok,
            "serve-open: every reply parses and equals decide_one on its request",
        );
        failed += f;
        inputs.latencies(b, &mut latency);
        latency.end_iteration();
        let last = b.responses.iter().map(|r| r.at).max().unwrap_or(b.start);
        walls.push((
            last.saturating_duration_since(b.start).as_secs_f64(),
            b.responses.len() - f as usize,
        ));
    }
    let attempted = (bursts.len() * inputs.requests.len()) as u64;
    eprintln!(
        "{}",
        latency.describe("serve-open latency (due to response)")
    );
    let untraced: Vec<Burst> = bursts.into_iter().map(|(_, b)| b).collect();
    late_p99_us(&untraced);
    let wall_s = median(&walls.iter().map(|w| w.0).collect::<Vec<_>>());
    let mut metrics = BTreeMap::new();
    if !opts.trace {
        metrics.insert("setup_s", setup_s);
        metrics.insert("wall_s", wall_s);
        metrics.insert(
            "events_per_s",
            median(&walls.iter().map(|(w, n)| *n as f64 / w).collect::<Vec<_>>()),
        );
        metrics.insert("op_p75_us", latency.percentile_us(75.0));
        metrics.insert("peak_rss_mb", peak_rss_mb());
    } else {
        let mut layers = ServeLayers::default();
        let traced = crate::common::measure(budget, 2, || inputs.traced_burst(&mut layers));
        let mut traced_latency = Samples::default();
        let mut covered = 0.0;
        for (_, b) in &traced {
            let (ok, f) = inputs.check_burst(b, &expected);
            correct &= check(ok, "serve-open: traced replies equal decide_one");
            failed += f;
            inputs.latencies(b, &mut traced_latency);
            traced_latency.end_iteration();
            covered += b.late.iter().map(Duration::as_secs_f64).sum::<f64>();
        }
        covered += layers.parse.total_s() + layers.in_batcher.total_s() + layers.format.total_s();
        let traced_bursts: Vec<Burst> = traced.into_iter().map(|(_, b)| b).collect();
        let answered = layers.in_batcher.count().max(1) as f64;
        metrics.extend([
            ("op_p50_us", latency.percentile_us(50.0)),
            ("op_p90_us", latency.percentile_us(90.0)),
            ("op_p99_us", latency.percentile_us(99.0)),
            ("serve.parse_us", layers.parse.mean_us()),
            ("serve.format_us", layers.format.mean_us()),
            (
                "serve.decide_batch_us.b1",
                decide_batch_us(&inputs.engine, &inputs.requests, 1, 400),
            ),
            (
                "serve.decide_batch_us.b8",
                decide_batch_us(&inputs.engine, &inputs.requests, 8, 100),
            ),
            (
                "serve.in_batcher_us_p50",
                layers.in_batcher.percentile_us(50.0),
            ),
            (
                "serve.in_batcher_us_p99",
                layers.in_batcher.percentile_us(99.0),
            ),
            ("serve.batch_mean", layers.batch_sum as f64 / answered),
            ("serve.shed", layers.shed as f64),
            ("serve.gen_late_us_p99", late_p99_us(&traced_bursts)),
            (
                "trace_overhead_frac",
                traced_latency.mean_us() / latency.mean_us() - 1.0,
            ),
            (
                "coverage_frac",
                covered / (traced_latency.total_s()).max(1e-12),
            ),
        ]);
        eprintln!("{}", layers.in_batcher.describe("serve-open in batcher"));
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Inputs {
        let spec = EngineSpec {
            window: 4,
            nodes: 16,
            bb: 8,
            ..EngineSpec::default()
        };
        Inputs::new(build_engine(&spec), 64, 4000.0, 3)
    }

    #[test]
    fn open_loop_bursts_answer_every_request_correctly() {
        let inputs = small();
        let expected: Vec<_> = inputs
            .requests
            .iter()
            .map(|r| inputs.engine.decide_one(r))
            .collect();
        let burst = inputs.burst();
        assert_eq!(inputs.check_burst(&burst, &expected), (true, 0));
        let mut layers = ServeLayers::default();
        let traced = inputs.traced_burst(&mut layers);
        assert_eq!(inputs.check_burst(&traced, &expected), (true, 0));
        assert_eq!(layers.parse.count(), 64);
    }

    #[test]
    fn wrong_or_missing_replies_are_caught() {
        let inputs = small();
        let expected: Vec<_> = inputs
            .requests
            .iter()
            .map(|r| inputs.engine.decide_one(r))
            .collect();
        let mut burst = inputs.burst();
        burst.responses.pop();
        burst.responses[0].action = burst.responses[0].action.map(|a| a + 1);
        let (ok, failed) = inputs.check_burst(&burst, &expected);
        assert!(!ok);
        assert_eq!(failed, 1);
    }
}

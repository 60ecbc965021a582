//! Serving loops: stdin/stdout, TCP, and the in-process load test.
//!
//! All transports share one pump: read protocol lines, shape-check,
//! submit to the [`MicroBatcher`], and stream responses back as replies
//! arrive (a dedicated writer thread per stream, so slow clients never
//! stall the batch queue). The TCP listener multiplexes any number of
//! connections onto **one** shared batcher — concurrent clients are
//! exactly what gives the micro-batcher batches to coalesce.
//!
//! [`run_loadtest`] closes the loop for CI: a seeded open-arrival
//! request schedule ([`crate::loadgen`]) is pushed through a batcher
//! and the reply stream is folded into a [`LatencyHistogram`], yielding
//! p50/p95/p99/QPS for the bench suite and the README numbers.

use crate::batcher::{BatcherConfig, MicroBatcher, Reply};
use crate::engine::DecisionEngine;
use crate::histogram::LatencyHistogram;
use crate::loadgen::{arrival_offsets, synth_requests, LoadgenConfig};
use crate::protocol::{format_response, max_request_len, parse_request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// What one pump (stream) saw.
struct PumpStats {
    submitted: u64,
    malformed: u64,
    shed: u64,
    hist: LatencyHistogram,
}

/// What [`read_line_capped`] found.
#[derive(Debug, PartialEq)]
enum LineRead {
    /// A line (without its `\n`) is in the buffer.
    Line,
    /// A line longer than the cap was skipped through its `\n`.
    TooLong,
    /// End of input.
    Eof,
}

/// Read the next line of `input` into `buf`, holding at most `cap`
/// bytes. A longer line is consumed through its newline without being
/// buffered, so a stream that never sends `\n` costs no memory.
fn read_line_capped<R: BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let n = input.by_ref().take(cap as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        return Ok(LineRead::Line);
    }
    if n <= cap {
        return Ok(LineRead::Line); // the last line, without a newline
    }
    buf.clear();
    input.skip_until(b'\n')?;
    Ok(LineRead::TooLong)
}

/// Read lines from `input`, submit to `batcher`, stream responses to
/// `output` as they complete. Returns once `input` hits EOF and every
/// accepted request has been answered.
fn pump<R: BufRead, W: Write + Send + 'static>(
    batcher: &MicroBatcher,
    mut input: R,
    mut output: W,
) -> PumpStats {
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer = std::thread::spawn(move || {
        let mut hist = LatencyHistogram::new();
        for reply in rx {
            // batch_size == 0 marks synthetic replies (shape errors,
            // shed requests) — answered, but not a measured decision.
            if reply.batch_size > 0 {
                let ns = reply.completed.duration_since(reply.submitted).as_nanos() as u64;
                hist.record(ns);
            }
            let _ = writeln!(output, "{}", format_response(reply.id, reply.action));
            let _ = output.flush();
        }
        hist
    });

    let mut stats = PumpStats { submitted: 0, malformed: 0, shed: 0, hist: LatencyHistogram::new() };
    let refuse = |id: u64, tx: &mpsc::Sender<Reply>| {
        let now = Instant::now();
        let _ = tx.send(Reply { id, action: None, submitted: now, completed: now, batch_size: 0 });
    };
    let cap = max_request_len(batcher.engine().config());
    let mut buf = Vec::new();
    loop {
        match read_line_capped(&mut input, &mut buf, cap) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                stats.malformed += 1;
                eprintln!("mrsch-serve: malformed request: line longer than {cap} bytes");
                continue;
            }
            Ok(LineRead::Eof) | Err(_) => break,
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            stats.malformed += 1;
            eprintln!("mrsch-serve: malformed request: not UTF-8");
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(err) => {
                stats.malformed += 1;
                eprintln!("mrsch-serve: malformed request: {err}");
                continue;
            }
        };
        if let Err(err) = batcher.engine().check_request(&req) {
            stats.malformed += 1;
            eprintln!("mrsch-serve: request {}: {err}", req.id);
            refuse(req.id, &tx);
            continue;
        }
        let id = req.id;
        if batcher.submit(req, tx.clone()) {
            stats.submitted += 1;
        } else {
            stats.shed += 1;
            refuse(id, &tx);
        }
    }
    // Close our sender; in-flight requests still hold clones, so the
    // writer drains exactly until the last accepted reply.
    drop(tx);
    stats.hist = writer.join().expect("response writer");
    stats
}

fn summary(stats: &PumpStats) -> String {
    let h = &stats.hist;
    format!(
        "served {} decisions ({} malformed, {} shed) \
         latency p50={}us p95={}us p99={}us max={}us",
        stats.submitted,
        stats.malformed,
        stats.shed,
        h.percentile(50.0) / 1_000,
        h.percentile(95.0) / 1_000,
        h.percentile(99.0) / 1_000,
        h.max() / 1_000,
    )
}

/// Serve one byte stream (the transport-agnostic core; stdin and TCP
/// both land here). Returns a human-readable summary line.
pub fn serve_stream<R: BufRead, W: Write + Send + 'static>(
    engine: DecisionEngine,
    cfg: BatcherConfig,
    input: R,
    output: W,
) -> String {
    let batcher = MicroBatcher::start(engine, cfg);
    let stats = pump(&batcher, input, output);
    batcher.shutdown();
    summary(&stats)
}

/// Serve requests from stdin, responses to stdout, until EOF. The
/// summary goes to stderr so piped output stays machine-parseable;
/// nothing is left for the caller to print.
pub fn run_stdin(engine: DecisionEngine, cfg: BatcherConfig) -> Result<String, String> {
    let line = serve_stream(engine, cfg, std::io::stdin().lock(), std::io::stdout());
    eprintln!("{line}");
    Ok(String::new())
}

/// Accept connections on `listener`, multiplexing all of them onto one
/// shared batcher. `max_conns` bounds the accept loop (for tests and
/// drills); `None` serves forever.
pub fn serve_listener(
    listener: TcpListener,
    engine: DecisionEngine,
    cfg: BatcherConfig,
    max_conns: Option<usize>,
) -> Result<String, String> {
    let batcher = Arc::new(MicroBatcher::start(engine, cfg));
    let mut handles = Vec::new();
    let mut served = 0usize;
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept: {e}"))?;
        let write_half = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let batcher = Arc::clone(&batcher);
        handles.push(std::thread::spawn(move || {
            let stats = pump(&batcher, BufReader::new(stream), write_half);
            (stats.submitted, stats.malformed, stats.shed)
        }));
        served += 1;
        if max_conns.is_some_and(|m| served >= m) {
            break;
        }
    }
    let mut totals = (0u64, 0u64, 0u64);
    for h in handles {
        let (s, m, d) = h.join().expect("connection pump");
        totals = (totals.0 + s, totals.1 + m, totals.2 + d);
    }
    match Arc::try_unwrap(batcher) {
        Ok(b) => b.shutdown(),
        Err(_) => unreachable!("all connection threads joined"),
    }
    Ok(format!(
        "served {} connections: {} decisions ({} malformed, {} shed)",
        served, totals.0, totals.1, totals.2
    ))
}

/// Bind `addr` and serve TCP connections until interrupted.
pub fn run_tcp(engine: DecisionEngine, cfg: BatcherConfig, addr: &str) -> Result<String, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("mrsch-serve: listening on {local}");
    serve_listener(listener, engine, cfg, None)
}

/// The outcome of a seeded open-arrival load test.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Requests answered by the engine.
    pub total: u64,
    /// Requests shed at the queue (must be 0 for a passing CI run).
    pub dropped: u64,
    /// Median end-to-end latency (submit → decision), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
    /// Achieved throughput over the whole run.
    pub qps: f64,
    /// Mean flush depth — how much coalescing the arrival rate induced.
    pub mean_batch: f64,
}

/// Push a seeded open-arrival schedule through a micro-batcher and
/// fold the replies into a latency report.
pub fn run_loadtest(
    engine: DecisionEngine,
    cfg: BatcherConfig,
    lg: &LoadgenConfig,
) -> LoadReport {
    let reqs = synth_requests(engine.config(), lg.requests, lg.seed);
    let offsets = arrival_offsets(lg.requests, lg.target_qps, lg.seed);
    let batcher = MicroBatcher::start(engine, cfg);

    let (tx, rx) = mpsc::channel::<Reply>();
    let collector = std::thread::spawn(move || {
        let mut hist = LatencyHistogram::new();
        let mut batch_sum = 0u64;
        for reply in rx {
            hist.record(reply.completed.duration_since(reply.submitted).as_nanos() as u64);
            batch_sum += reply.batch_size as u64;
        }
        (hist, batch_sum)
    });

    let start = Instant::now();
    for (req, offset) in reqs.into_iter().zip(offsets) {
        let elapsed = start.elapsed();
        if elapsed < offset {
            std::thread::sleep(offset - elapsed);
        }
        // A shed request sends no reply; the drop counter records it.
        let _ = batcher.submit(req, tx.clone());
    }
    drop(tx);
    let dropped = batcher.dropped();
    batcher.shutdown();
    let wall = start.elapsed();
    let (hist, batch_sum) = collector.join().expect("reply collector");

    let total = hist.count();
    LoadReport {
        total,
        dropped,
        p50_ns: hist.percentile(50.0),
        p95_ns: hist.percentile(95.0),
        p99_ns: hist.percentile(99.0),
        mean_ns: hist.mean(),
        max_ns: hist.max(),
        qps: total as f64 / wall.as_secs_f64().max(1e-9),
        mean_batch: if total == 0 { 0.0 } else { batch_sum as f64 / total as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::protocol::{format_request, parse_response, Request};
    use std::io::Cursor;
    use std::net::TcpStream;
    use std::sync::Mutex;

    fn test_engine() -> DecisionEngine {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() })
    }

    /// A Write sink tests can read back after the writer thread exits.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn responses(buf: &SharedBuf) -> Vec<(u64, Option<usize>)> {
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| parse_response(l).unwrap())
            .collect()
    }

    #[test]
    fn stream_serving_answers_every_request() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 12, 21);
        let expected: Vec<(u64, Option<usize>)> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        let input: String =
            reqs.iter().map(|r| format_request(r) + "\n").collect();
        let out = SharedBuf::default();
        let line = serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        assert!(line.contains("served 12 decisions"), "summary: {line}");
        let mut got = responses(&out);
        got.sort_unstable();
        assert_eq!(got, expected, "every request answered with the serial decision");
    }

    #[test]
    fn malformed_and_misshapen_lines_do_not_kill_the_stream() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 2, 33);
        let input = format!(
            "not-a-request\n{}\n7;1.0;1.0;1.0;1\n{}\n",
            format_request(&reqs[0]),
            format_request(&reqs[1]),
        );
        let out = SharedBuf::default();
        let line = serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        assert!(line.contains("served 2 decisions (2 malformed"), "summary: {line}");
        let got = responses(&out);
        // The misshapen-but-parseable request is refused with `none`.
        assert!(got.contains(&(7, None)), "shape-checked refusal: {got:?}");
        assert_eq!(got.len(), 3, "two decisions + one refusal");
    }

    #[test]
    fn over_long_line_is_skipped_and_the_stream_goes_on() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 1, 44);
        let expected = (reqs[0].id, engine.decide_one(&reqs[0]));
        // 4 MiB with no newline, then a valid request.
        let input = format!("{}\n{}\n", "1".repeat(4 << 20), format_request(&reqs[0]));
        let out = SharedBuf::default();
        let line = serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        assert!(line.contains("served 1 decisions (1 malformed"), "summary: {line}");
        assert_eq!(responses(&out), [expected]);
    }

    #[test]
    fn over_long_line_is_not_buffered() {
        let cap = 1_000;
        let input = format!("{}\nok\n{}", "x".repeat(4 << 20), "y".repeat(cap));
        let mut input = Cursor::new(input);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        loop {
            let got = read_line_capped(&mut input, &mut buf, cap).unwrap();
            assert!(buf.capacity() <= 2 * cap + 64, "buffered {} bytes", buf.capacity());
            if got == LineRead::Eof {
                break;
            }
            seen.push((got, buf.len()));
        }
        assert_eq!(seen, [(LineRead::TooLong, 0), (LineRead::Line, 2), (LineRead::Line, cap)]);
    }

    #[test]
    fn longest_request_line_for_the_served_shapes_is_accepted() {
        let engine = test_engine();
        let cfg = engine.config().clone();
        // The widest f32 renderings: the smallest normal and the largest
        // subnormal print as ~48-byte decimals, f32::MAX as 40 bytes.
        let widest = [f32::MIN, -f32::MIN_POSITIVE, f32::from_bits(0x807f_ffff), -f32::from_bits(1)]
            .into_iter()
            .max_by_key(|v| v.to_string().len())
            .unwrap();
        let req = Request {
            id: u64::MAX,
            state: vec![widest; cfg.state_dim],
            meas: vec![widest; cfg.measurement_dim],
            goal: vec![widest; cfg.measurement_dim],
            valid: vec![true; cfg.num_actions],
        };
        let line = format_request(&req);
        assert!(line.len() <= max_request_len(&cfg));
        let out = SharedBuf::default();
        let summary =
            serve_stream(engine, BatcherConfig::default(), Cursor::new(line + "\n"), out.clone());
        assert!(summary.contains("served 1 decisions (0 malformed"), "summary: {summary}");
        assert_eq!(responses(&out).len(), 1);
    }

    #[test]
    fn tcp_round_trip_matches_serial_decisions() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 8, 55);
        let expected: Vec<(u64, Option<usize>)> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_listener(listener, engine, BatcherConfig::default(), Some(1))
        });

        let mut conn = TcpStream::connect(addr).expect("connect");
        for r in &reqs {
            writeln!(conn, "{}", format_request(r)).unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got: Vec<(u64, Option<usize>)> = BufReader::new(conn)
            .lines()
            .map(|l| parse_response(&l.unwrap()).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);

        let summary = server.join().unwrap().expect("server ok");
        assert!(summary.contains("served 1 connections"), "summary: {summary}");
    }

    #[test]
    fn loadtest_answers_all_requests_with_zero_drops() {
        let engine = test_engine();
        let report = run_loadtest(
            engine,
            BatcherConfig::default(),
            &LoadgenConfig { requests: 64, target_qps: 2_000.0, seed: 9 },
        );
        assert_eq!(report.total, 64);
        assert_eq!(report.dropped, 0);
        assert!(report.p50_ns > 0 && report.p99_ns >= report.p50_ns);
        assert!(report.max_ns >= report.p99_ns);
        assert!(report.qps > 0.0);
        assert!(report.mean_batch >= 1.0);
    }
}

//! Bounded micro-batching queue with a worker pool.
//!
//! Requests land in a bounded queue; a worker flushes a batch when
//! either the queue depth reaches `max_batch` **or** the oldest queued
//! request has waited `max_delay` (the classic depth-`B`-or-deadline-τ
//! micro-batching policy). Each flush is one
//! [`DecisionEngine::decide_batch`] call — one forward pass over the
//! whole batch, row by row through the gemv kernel.
//!
//! Because batched and single decisions are bit-identical (see
//! [`crate::engine`]), the *decisions* served are a pure function of
//! the requests: flush depth, deadline timing, and worker count only
//! move latency/throughput, never outputs. The
//! `flush_depth_never_changes_decisions` test locks this.
//!
//! Backpressure is explicit: [`MicroBatcher::submit`] returns `false`
//! (and counts a drop) instead of blocking when the queue is full, so
//! an overloaded server degrades by shedding load, not by stalling its
//! accept loop.

use crate::engine::DecisionEngine;
use crate::protocol::Request;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Flush as soon as this many requests are queued.
    pub max_batch: usize,
    /// ... or as soon as the oldest queued request is this old.
    pub max_delay: Duration,
    /// Queue bound; submits beyond it are dropped (shed, not blocked).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 1,
        }
    }
}

/// One answered request, with the timing the histogram needs.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Echoed request id.
    pub id: u64,
    /// The decision (`None` when no action was valid).
    pub action: Option<usize>,
    /// When the request entered the queue.
    pub submitted: Instant,
    /// When the decision was made.
    pub completed: Instant,
    /// Size of the flush this request rode in (observability).
    pub batch_size: usize,
}

struct Pending {
    req: Request,
    submitted: Instant,
    tx: Sender<Reply>,
}

struct Inner {
    engine: DecisionEngine,
    cfg: BatcherConfig,
    queue: Mutex<VecDeque<Pending>>,
    notify: Condvar,
    shutdown: AtomicBool,
    dropped: AtomicU64,
}

/// The micro-batching front end around a [`DecisionEngine`].
pub struct MicroBatcher {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawn the worker pool.
    pub fn start(engine: DecisionEngine, cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(cfg.workers >= 1, "workers must be >= 1");
        let inner = Arc::new(Inner {
            engine,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mrsch-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn batcher worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Enqueue a request; its [`Reply`] arrives on `reply_tx`. Returns
    /// `false` (and counts a drop) when the queue is at capacity.
    pub fn submit(&self, req: Request, reply_tx: Sender<Reply>) -> bool {
        let mut queue = self.inner.queue.lock().unwrap();
        if queue.len() >= self.inner.cfg.queue_capacity {
            drop(queue);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        queue.push_back(Pending { req, submitted: Instant::now(), tx: reply_tx });
        drop(queue);
        self.inner.notify.notify_one();
        true
    }

    /// Requests shed because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The engine behind the queue (shape checks happen before submit).
    pub fn engine(&self) -> &DecisionEngine {
        &self.inner.engine
    }

    /// Drain the queue, stop the workers, and join them.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut queue = inner.queue.lock().unwrap();
    loop {
        // Wait for work (or shutdown with an empty queue).
        while queue.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            queue = inner.notify.wait(queue).unwrap();
        }
        // Work is queued: wait for depth B or the oldest request's
        // deadline. Both the deadline and emptiness must be re-checked
        // after every wake-up — another worker may have drained the
        // queue while we slept.
        loop {
            if queue.len() >= inner.cfg.max_batch || inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Some(front) = queue.front() else { break };
            let deadline = front.submitted + inner.cfg.max_delay;
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (q, _timeout) = inner.notify.wait_timeout(queue, deadline - now).unwrap();
            queue = q;
            if queue.is_empty() {
                break;
            }
        }
        if queue.is_empty() {
            continue;
        }
        let take = queue.len().min(inner.cfg.max_batch);
        let batch: Vec<Pending> = queue.drain(..take).collect();
        drop(queue);

        let reqs: Vec<&Request> = batch.iter().map(|p| &p.req).collect();
        let actions = inner.engine.decide_batch(&reqs);
        let completed = Instant::now();
        for (pending, action) in batch.into_iter().zip(actions) {
            // A closed receiver just means the client went away.
            let _ = pending.tx.send(Reply {
                id: pending.req.id,
                action,
                submitted: pending.submitted,
                completed,
                batch_size: take,
            });
        }
        queue = inner.queue.lock().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::loadgen::synth_requests;
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    fn collect_decisions(
        engine: &DecisionEngine,
        reqs: &[Request],
        cfg: BatcherConfig,
    ) -> BTreeMap<u64, Option<usize>> {
        let batcher = MicroBatcher::start(engine.clone(), cfg);
        let (tx, rx) = mpsc::channel();
        for req in reqs {
            assert!(batcher.submit(req.clone(), tx.clone()), "queue should not shed");
        }
        let mut out = BTreeMap::new();
        for _ in 0..reqs.len() {
            let reply = rx.recv().expect("reply");
            out.insert(reply.id, reply.action);
        }
        batcher.shutdown();
        out
    }

    #[test]
    fn flush_depth_never_changes_decisions() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 24, 99);
        let serial: BTreeMap<u64, Option<usize>> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        for max_batch in [1usize, 4, 8] {
            let got = collect_decisions(
                &engine,
                &reqs,
                BatcherConfig { max_batch, max_delay: Duration::from_millis(1), ..Default::default() },
            );
            assert_eq!(got, serial, "flush depth {max_batch} changed a decision");
        }
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 3, 5);
        // Depth 64 can never fill from 3 requests: only τ can flush.
        let cfg = BatcherConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            ..Default::default()
        };
        let batcher = MicroBatcher::start(engine.clone(), cfg);
        let (tx, rx) = mpsc::channel();
        for req in &reqs {
            assert!(batcher.submit(req.clone(), tx.clone()));
        }
        for _ in 0..reqs.len() {
            let reply = rx.recv_timeout(Duration::from_secs(5)).expect("deadline flush");
            assert!(reply.batch_size <= reqs.len());
        }
        assert_eq!(batcher.dropped(), 0);
        batcher.shutdown();
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let engine = build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() });
        let reqs = synth_requests(engine.config(), 4, 1);
        let cfg = BatcherConfig { queue_capacity: 2, max_delay: Duration::from_secs(5), ..Default::default() };
        let batcher = MicroBatcher::start(engine, cfg);
        // Stuff the queue faster than the (deadline-gated) worker drains.
        let (tx, _rx) = mpsc::channel();
        let mut accepted = 0;
        for req in &reqs {
            if batcher.submit(req.clone(), tx.clone()) {
                accepted += 1;
            }
        }
        assert!(accepted >= 2, "capacity-2 queue must accept at least 2");
        assert_eq!(batcher.dropped() + accepted, reqs.len() as u64);
        batcher.shutdown();
    }
}

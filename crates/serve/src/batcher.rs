//! Bounded, work-conserving micro-batching queue with a worker pool.
//!
//! Requests land in a bounded queue. A free worker takes whatever is
//! queued — up to `max_batch` requests — at once and decides it with one
//! [`DecisionEngine::decide_batch`] call (one forward pass over the
//! whole batch, row by row through the gemv kernel). Nothing waits for
//! a batch to fill: a row costs the same alone as in a batch, so holding
//! a partial batch back would add latency and save no compute. Under
//! backlog, requests queue up while the workers are busy and batches
//! fill to `max_batch` on their own.
//!
//! Because batched and single decisions are bit-identical (see
//! [`crate::engine`]), the *decisions* served are a pure function of
//! the requests: flush depth and worker count only move
//! latency/throughput, never outputs. The
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
use std::time::Instant;

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Most requests one worker decides in one pass.
    pub max_batch: usize,
    /// Queue bound; submits beyond it are dropped (shed, not blocked).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { max_batch: 8, queue_capacity: 1024, workers: 1 }
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
        assert!(cfg.workers >= 1, "workers must be >= 1");
        let mut batcher = Self::without_workers(engine, cfg);
        batcher.workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&batcher.inner);
                std::thread::Builder::new()
                    .name(format!("mrsch-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn batcher worker")
            })
            .collect();
        batcher
    }

    /// The queue alone; nothing drains it until workers are spawned.
    fn without_workers(engine: DecisionEngine, cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let inner = Arc::new(Inner {
            engine,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        });
        Self { inner, workers: Vec::new() }
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

/// Block until work is queued, then take up to `max_batch` of it at
/// once. `None` once shut down with the queue drained.
fn next_batch(inner: &Inner) -> Option<Vec<Pending>> {
    let mut queue = inner.queue.lock().unwrap();
    while queue.is_empty() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        queue = inner.notify.wait(queue).unwrap();
    }
    let take = queue.len().min(inner.cfg.max_batch);
    Some(queue.drain(..take).collect())
}

fn worker_loop(inner: &Inner) {
    while let Some(batch) = next_batch(inner) {
        let reqs: Vec<&Request> = batch.iter().map(|p| &p.req).collect();
        let actions = inner.engine.decide_batch(&reqs);
        let completed = Instant::now();
        let batch_size = batch.len();
        for (pending, action) in batch.into_iter().zip(actions) {
            // A closed receiver just means the client went away.
            let _ = pending.tx.send(Reply {
                id: pending.req.id,
                action,
                submitted: pending.submitted,
                completed,
                batch_size,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::loadgen::synth_requests;
    use std::collections::BTreeMap;
    use std::sync::mpsc;
    use std::time::Duration;

    fn test_engine() -> DecisionEngine {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..Default::default() })
    }

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
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 24, 99);
        let serial: BTreeMap<u64, Option<usize>> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        for max_batch in [1usize, 4, 8] {
            let got = collect_decisions(
                &engine,
                &reqs,
                BatcherConfig { max_batch, ..Default::default() },
            );
            assert_eq!(got, serial, "flush depth {max_batch} changed a decision");
        }
    }

    #[test]
    fn idle_worker_answers_a_partial_batch() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 3, 5);
        // Depth 64 can never fill from 3 requests: a free worker must
        // take what is there.
        let cfg = BatcherConfig { max_batch: 64, ..Default::default() };
        let batcher = MicroBatcher::start(engine.clone(), cfg);
        let (tx, rx) = mpsc::channel();
        for req in &reqs {
            assert!(batcher.submit(req.clone(), tx.clone()));
        }
        for _ in 0..reqs.len() {
            let reply = rx.recv_timeout(Duration::from_secs(5)).expect("partial batch answered");
            assert!(reply.batch_size <= reqs.len());
        }
        assert_eq!(batcher.dropped(), 0);
        batcher.shutdown();
    }

    #[test]
    fn a_free_worker_takes_what_is_queued_up_to_max_batch() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 5, 8);
        let batcher = MicroBatcher::without_workers(
            engine,
            BatcherConfig { max_batch: 2, ..Default::default() },
        );
        let (tx, _rx) = mpsc::channel();
        for req in &reqs {
            assert!(batcher.submit(req.clone(), tx.clone()));
        }
        let sizes: Vec<usize> =
            (0..3).map(|_| next_batch(&batcher.inner).expect("work queued").len()).collect();
        assert_eq!(sizes, [2, 2, 1], "batches fill to max_batch, the rest goes at once");
        assert!(batcher.inner.queue.lock().unwrap().is_empty());
        batcher.inner.shutdown.store(true, Ordering::SeqCst);
        assert!(next_batch(&batcher.inner).is_none(), "shut down with an empty queue");
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 5, 1);
        // No workers: nothing drains the queue, so it fills exactly.
        let cfg = BatcherConfig { queue_capacity: 2, ..Default::default() };
        let batcher = MicroBatcher::without_workers(engine, cfg);
        let (tx, _rx) = mpsc::channel();
        let accepted: Vec<bool> =
            reqs.iter().map(|req| batcher.submit(req.clone(), tx.clone())).collect();
        assert_eq!(accepted, [true, true, false, false, false], "sheds from capacity on");
        assert_eq!(batcher.dropped(), 3);
        assert_eq!(batcher.inner.queue.lock().unwrap().len(), 2);
        batcher.shutdown();
    }
}

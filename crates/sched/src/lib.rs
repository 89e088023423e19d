//! Work-stealing DAG executor for device-bound pipelines.
//!
//! An [`OpGraph`] holds a set of opaque operations plus their dependency
//! edges; [`run`] executes it on a pool of worker threads. Readiness is
//! tracked with one atomic indegree per op: when an op finishes, it
//! decrements each dependent's indegree, and the decrement that reaches
//! zero — and only that one, by the atomicity of `fetch_sub` — pushes the
//! dependent onto a ready queue. There are no phase barriers anywhere:
//! every op runs the instant its inputs exist and a worker (and, for a
//! device-bound op, its device) is free, so every device stays busy while
//! it has ready work.
//!
//! Ops may carry a *device affinity*. Each device gets its own ready
//! queue; a worker prefers its home queue and **steals** from the others
//! when it runs dry, which drains hot spots with idle workers. Device-bound
//! ops are dispatched **exclusively**: each device queue has one in-flight
//! slot, a worker claims it before popping and releases it when the op is
//! finalized, and queues whose slot is taken are skipped. A device (one
//! spindle) therefore never has two of the graph's ops inside it, so no
//! worker ever sleeps in a device's queue while other devices' ready ops
//! wait for a free worker. Device-less ops (the trailing shared queue) are
//! uncapped.
//!
//! Failure is a first-class edge of the graph, not an exception: an op
//! whose callback returns [`OpStatus::Failed`] *poisons* its dependents,
//! which are then finalized as cancelled (transitively) without running.
//! The caller gets the cancelled set back and can re-root those subgraphs
//! — re-plan just the affected items — instead of re-running everything.
//!
//! Scheduler observability is built in: [`SchedMetrics`] carries live
//! [`Gauge`]/[`Counter`] handles (ready-queue depth, in-flight ops,
//! steals) that can be attached to a [`telemetry::Registry`], and every
//! run returns a [`SchedStats`] snapshot with the peaks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use telemetry::{Counter, Gauge, Registry};

/// Identifies one op inside an [`OpGraph`] (dense, starting at 0).
pub type OpId = usize;

/// What an op's callback reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// The op succeeded; dependents may run.
    Done,
    /// The op failed; dependents (transitively) are cancelled and returned
    /// in [`ExecReport::cancelled`] for the caller to re-plan.
    Failed,
}

/// A dependency graph of opaque operations, built up-front and executed
/// once by [`run`]. `T` is the caller's per-op payload (an instruction the
/// execution callback interprets).
#[derive(Debug)]
pub struct OpGraph<T> {
    payloads: Vec<T>,
    device: Vec<Option<usize>>,
    dependents: Vec<Vec<OpId>>,
    indeg: Vec<u32>,
    trace: Vec<u64>,
}

impl<T> Default for OpGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OpGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            payloads: Vec::new(),
            device: Vec::new(),
            dependents: Vec::new(),
            indeg: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Adds an op with no edges yet. `device` is the ready-queue affinity
    /// (ops bound to a device land on its queue; `None` = shared queue).
    ///
    /// The builder thread's ambient trace id is captured into the node, so
    /// when a worker later executes it (on a different thread) the op runs
    /// under the trace of the request that planned it.
    pub fn add_node(&mut self, payload: T, device: Option<usize>) -> OpId {
        self.payloads.push(payload);
        self.device.push(device);
        self.dependents.push(Vec::new());
        self.indeg.push(0);
        self.trace.push(telemetry::current_trace());
        self.payloads.len() - 1
    }

    /// Adds the edge `dep → dependent`: `dependent` cannot start until
    /// `dep` finished. Parallel edges are allowed (each counts one
    /// indegree and one decrement, so the arithmetic stays balanced).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or a self-edge (the caller is building
    /// the graph from a plan it controls; a bad edge is a logic error).
    pub fn add_edge(&mut self, dep: OpId, dependent: OpId) {
        assert!(dep < self.payloads.len() && dependent < self.payloads.len());
        assert_ne!(dep, dependent, "self-edge would deadlock");
        self.dependents[dep].push(dependent);
        self.indeg[dependent] += 1;
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The payload of `op`.
    pub fn payload(&self, op: OpId) -> &T {
        &self.payloads[op]
    }
}

/// Live scheduler gauges, updated while a [`run`] is in flight. Clone the
/// struct to keep handles; attach them to a registry with
/// [`SchedMetrics::export`]. The gauges read 0 when no run is active.
#[derive(Debug, Clone, Default)]
pub struct SchedMetrics {
    /// Ops currently sitting in ready queues (pushed, not yet popped).
    pub ready_queue_depth: Gauge,
    /// Ops currently executing their callback.
    pub inflight_ops: Gauge,
    /// Ready-queue pops served from a queue other than the worker's home
    /// queue.
    pub steals: Counter,
}

impl SchedMetrics {
    /// Registers the three scheduler series with a metric registry (live
    /// handles — exports track later runs too).
    pub fn export(&self, reg: &Registry) {
        reg.register_gauge(
            "oi_sched_ready_queue_depth",
            "Ops sitting in scheduler ready queues right now",
            &[],
            self.ready_queue_depth.clone(),
        );
        reg.register_gauge(
            "oi_sched_inflight_ops",
            "Ops currently executing on scheduler workers",
            &[],
            self.inflight_ops.clone(),
        );
        reg.register_counter(
            "oi_sched_steals_total",
            "Ready-queue pops served from a non-home queue",
            &[],
            self.steals.clone(),
        );
    }
}

/// Aggregate statistics of one [`run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Ops whose callback ran (whether it returned `Done` or `Failed`).
    pub executed: u64,
    /// Ops finalized as cancelled without running (poisoned by a failed
    /// ancestor).
    pub cancelled: u64,
    /// Pops served from a non-home queue.
    pub steals: u64,
    /// Peak number of ops sitting in ready queues at once.
    pub max_ready_depth: u64,
    /// Peak number of callbacks executing concurrently.
    pub max_inflight: u64,
}

impl SchedStats {
    /// Folds another run's stats into this one: counters add, peaks take
    /// the max. For summing stats across successive [`run`] calls.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.executed += other.executed;
        self.cancelled += other.cancelled;
        self.steals += other.steals;
        self.max_ready_depth = self.max_ready_depth.max(other.max_ready_depth);
        self.max_inflight = self.max_inflight.max(other.max_inflight);
    }
}

/// What one [`run`] did.
#[derive(Debug)]
pub struct ExecReport {
    /// Aggregate counters and peaks.
    pub stats: SchedStats,
    /// Time each worker spent inside op callbacks, in worker order.
    pub worker_busy: Vec<Duration>,
    /// Ops that never ran because an ancestor failed, in finalization
    /// order. Empty for a fault-free run.
    pub cancelled: Vec<OpId>,
}

struct Shared<'g, T> {
    graph: &'g OpGraph<T>,
    indeg: Vec<AtomicU32>,
    poisoned: Vec<AtomicBool>,
    /// One ready queue per device plus a trailing shared queue for
    /// device-less ops.
    queues: Vec<Mutex<VecDeque<OpId>>>,
    /// In-flight slot per device queue (the shared queue has none): set
    /// while one of that queue's ops is between pop and finalization.
    busy: Vec<AtomicBool>,
    /// Ops not yet finalized (executed or cancelled). The run is over when
    /// this reaches zero.
    remaining: AtomicUsize,
    idle: Mutex<()>,
    wake: Condvar,
    metrics: SchedMetrics,
    depth: AtomicI64,
    max_depth: AtomicI64,
    max_inflight: AtomicI64,
    inflight: AtomicI64,
    executed: AtomicU64,
    cancelled_count: AtomicU64,
    steals: AtomicU64,
    cancelled: Mutex<Vec<OpId>>,
}

impl<'g, T> Shared<'g, T> {
    fn queue_of(&self, op: OpId) -> usize {
        match self.graph.device[op] {
            Some(d) => d % (self.queues.len() - 1).max(1),
            None => self.queues.len() - 1,
        }
    }

    fn push(&self, op: OpId) {
        self.queues[self.queue_of(op)]
            .lock()
            .expect("queue lock")
            .push_back(op);
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(d, Ordering::Relaxed);
        self.metrics.ready_queue_depth.add(1);
        self.wake.notify_one();
    }

    /// Pops from the home queue, else steals round-robin from the others.
    /// A device queue is served only if its in-flight slot can be claimed
    /// (under the queue lock, so a claimed slot always has an op to run).
    fn pop(&self, home: usize) -> Option<OpId> {
        let nq = self.queues.len();
        for i in 0..nq {
            let q = (home + i) % nq;
            let slot = self.busy.get(q);
            if slot.is_some_and(|s| s.load(Ordering::Acquire)) {
                continue;
            }
            let mut queue = self.queues[q].lock().expect("queue lock");
            if queue.is_empty() || slot.is_some_and(|s| s.swap(true, Ordering::AcqRel)) {
                continue;
            }
            let op = queue.pop_front().expect("queue is non-empty");
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.metrics.ready_queue_depth.add(-1);
            if i != 0 {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.metrics.steals.inc();
            }
            return Some(op);
        }
        None
    }

    /// Releases `op`'s device slot (executed and cancelled ops alike), then
    /// decrements every dependent's indegree; the decrement that lands on
    /// zero — exactly one, by `fetch_sub` atomicity — enqueues it. A
    /// failed/cancelled op poisons the dependent first, so the poison is
    /// visible before the dependent can possibly run.
    fn finish(&self, op: OpId, ok: bool) {
        if let Some(slot) = self.busy.get(self.queue_of(op)) {
            slot.store(false, Ordering::Release);
            // The device's next ready op may be waiting for this slot.
            self.wake.notify_one();
        }
        for &dep in &self.graph.dependents[op] {
            if !ok {
                self.poisoned[dep].store(true, Ordering::Release);
            }
            if self.indeg[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.push(dep);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last op: wake everyone so idle workers can exit.
            let _g = self.idle.lock().expect("idle lock");
            self.wake.notify_all();
        }
    }
}

/// Executes `graph` on `workers` threads over `devices` per-device ready
/// queues, calling `f(worker, op, payload)` for each runnable op. Returns
/// once every op is executed or cancelled.
///
/// At most one op per device queue runs at a time (device `d` maps to
/// queue `d % devices`), so more than `devices + 1` workers only idle.
///
/// The callback decides success: [`OpStatus::Failed`] cancels the op's
/// transitive dependents (they are reported, not run). `metrics` gauges
/// tick live while the run is in flight.
pub fn run<T, F>(
    workers: usize,
    devices: usize,
    metrics: &SchedMetrics,
    graph: &OpGraph<T>,
    f: F,
) -> ExecReport
where
    T: Sync,
    F: Fn(usize, OpId, &T) -> OpStatus + Sync,
{
    let workers = workers.max(1);
    if graph.is_empty() {
        return ExecReport {
            stats: SchedStats::default(),
            worker_busy: vec![Duration::ZERO; workers],
            cancelled: Vec::new(),
        };
    }
    let shared = Shared {
        indeg: graph.indeg.iter().map(|&d| AtomicU32::new(d)).collect(),
        poisoned: (0..graph.len()).map(|_| AtomicBool::new(false)).collect(),
        queues: (0..devices + 1)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        busy: (0..devices).map(|_| AtomicBool::new(false)).collect(),
        remaining: AtomicUsize::new(graph.len()),
        idle: Mutex::new(()),
        wake: Condvar::new(),
        metrics: metrics.clone(),
        depth: AtomicI64::new(0),
        max_depth: AtomicI64::new(0),
        max_inflight: AtomicI64::new(0),
        inflight: AtomicI64::new(0),
        executed: AtomicU64::new(0),
        cancelled_count: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        cancelled: Mutex::new(Vec::new()),
        graph,
    };
    for op in 0..graph.len() {
        if graph.indeg[op] == 0 {
            shared.push(op);
        }
    }
    let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let shared = &shared;
    let busy_ref = &busy;
    let f = &f;
    std::thread::scope(|s| {
        for (w, busy) in busy_ref.iter().enumerate() {
            s.spawn(move || {
                let home = w % shared.queues.len();
                loop {
                    let Some(op) = shared.pop(home) else {
                        if shared.remaining.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        // Nothing ready yet: park until a push or the final
                        // finalization wakes us (timeout guards the race
                        // between the emptiness check and the wait).
                        let g = shared.idle.lock().expect("idle lock");
                        let _ = shared
                            .wake
                            .wait_timeout(g, Duration::from_millis(1))
                            .expect("idle wait");
                        continue;
                    };
                    if shared.poisoned[op].load(Ordering::Acquire) {
                        shared.cancelled_count.fetch_add(1, Ordering::Relaxed);
                        shared.cancelled.lock().expect("cancel lock").push(op);
                        shared.finish(op, false);
                        continue;
                    }
                    let d = shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    shared.max_inflight.fetch_max(d, Ordering::Relaxed);
                    shared.metrics.inflight_ops.add(1);
                    // Re-enter the planning request's trace on this worker
                    // thread, with a SchedOp node so device I/O inside the
                    // callback hangs under this specific DAG node.
                    let parent = shared.graph.trace[op];
                    let _trace_guard = if parent != 0 {
                        let node = telemetry::alloc_trace_id();
                        telemetry::trace_event(
                            telemetry::EventKind::SchedOp,
                            node,
                            parent,
                            op as u64,
                            shared.graph.device[op].map_or(u64::MAX, |d| d as u64),
                        );
                        Some(telemetry::enter_trace(node))
                    } else {
                        None
                    };
                    let began = Instant::now();
                    let status = f(w, op, shared.graph.payload(op));
                    drop(_trace_guard);
                    busy.fetch_add(
                        began.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        Ordering::Relaxed,
                    );
                    shared.metrics.inflight_ops.add(-1);
                    shared.inflight.fetch_sub(1, Ordering::Relaxed);
                    shared.executed.fetch_add(1, Ordering::Relaxed);
                    shared.finish(op, status == OpStatus::Done);
                }
            });
        }
    });
    debug_assert_eq!(shared.depth.load(Ordering::Relaxed), 0, "queues drained");
    let cancelled = std::mem::take(&mut *shared.cancelled.lock().expect("cancel lock"));
    ExecReport {
        stats: SchedStats {
            executed: shared.executed.load(Ordering::Relaxed),
            cancelled: shared.cancelled_count.load(Ordering::Relaxed),
            steals: shared.steals.load(Ordering::Relaxed),
            max_ready_depth: shared.max_depth.load(Ordering::Relaxed).max(0) as u64,
            max_inflight: shared.max_inflight.load(Ordering::Relaxed).max(0) as u64,
        },
        worker_busy: busy
            .iter()
            .map(|b| Duration::from_nanos(b.load(Ordering::Relaxed)))
            .collect(),
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32 as Count;

    fn statuses(n: usize) -> Vec<AtomicBool> {
        (0..n).map(|_| AtomicBool::new(false)).collect()
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g: OpGraph<()> = OpGraph::new();
        let r = run(4, 2, &SchedMetrics::default(), &g, |_, _, _| OpStatus::Done);
        assert_eq!(r.stats, SchedStats::default());
        assert!(r.cancelled.is_empty());
    }

    #[test]
    fn chain_respects_dependency_order() {
        let mut g = OpGraph::new();
        let n = 64;
        for i in 0..n {
            g.add_node(i, Some(i % 3));
            if i > 0 {
                g.add_edge(i - 1, i);
            }
        }
        let done = statuses(n);
        let r = run(8, 3, &SchedMetrics::default(), &g, |_, op, _| {
            if op > 0 {
                assert!(done[op - 1].load(Ordering::Acquire), "dep ran first");
            }
            done[op].store(true, Ordering::Release);
            OpStatus::Done
        });
        assert_eq!(r.stats.executed, n as u64);
        assert_eq!(r.stats.cancelled, 0);
        // A strict chain can never have two ops in flight.
        assert_eq!(r.stats.max_inflight, 1);
    }

    #[test]
    fn failure_cancels_transitive_dependents_only() {
        // a -> b -> c, plus independent d. a fails: b and c cancelled.
        let mut g = OpGraph::new();
        let a = g.add_node("a", None);
        let b = g.add_node("b", None);
        let c = g.add_node("c", None);
        let d = g.add_node("d", None);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let ran = statuses(4);
        let r = run(4, 0, &SchedMetrics::default(), &g, |_, op, _| {
            ran[op].store(true, Ordering::Release);
            if op == a {
                OpStatus::Failed
            } else {
                OpStatus::Done
            }
        });
        assert_eq!(r.stats.executed, 2, "a and d ran");
        assert_eq!(r.stats.cancelled, 2);
        let mut cancelled = r.cancelled.clone();
        cancelled.sort_unstable();
        assert_eq!(cancelled, vec![b, c]);
        assert!(ran[d].load(Ordering::Acquire));
        assert!(!ran[b].load(Ordering::Acquire) && !ran[c].load(Ordering::Acquire));
    }

    #[test]
    fn metrics_tick_live_and_export_cleanly() {
        telemetry::set_enabled(true);
        let m = SchedMetrics::default();
        let reg = Registry::new();
        m.export(&reg);
        let mut g = OpGraph::new();
        for i in 0..40 {
            g.add_node(i, Some(i % 4));
        }
        let r = run(4, 4, &m, &g, |_, _, _| OpStatus::Done);
        assert_eq!(r.stats.executed, 40);
        assert!(r.stats.max_ready_depth > 0);
        // Idle again after the run.
        assert_eq!(m.ready_queue_depth.get(), 0);
        assert_eq!(m.inflight_ops.get(), 0);
        let text = reg.prometheus();
        for name in [
            "oi_sched_ready_queue_depth",
            "oi_sched_steals_total",
            "oi_sched_inflight_ops",
        ] {
            assert!(text.contains(name), "{name} exported");
        }
        telemetry::lint_prometheus(&text).expect("clean exposition");
    }

    /// The single-fire invariant under heavy contention: a layered random
    /// DAG, an oversubscribed pool, and a counter per op. If an indegree
    /// decrement ever double-fired, some op would execute twice (or a
    /// queue would see a duplicate push) and a count would exceed 1.
    #[test]
    fn stress_indegree_decrement_never_double_fires() {
        let iters: usize = if std::env::var("OI_SCHED_STRESS").is_ok() {
            200
        } else {
            40
        };
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for iter in 0..iters {
            let layers = 4 + (next() % 4) as usize;
            let width = 8 + (next() % 24) as usize;
            let mut g = OpGraph::new();
            let mut prev: Vec<OpId> = Vec::new();
            for l in 0..layers {
                let mut cur = Vec::new();
                for i in 0..width {
                    let dev = (l * width + i) % 7;
                    let op = g.add_node((l, i), Some(dev));
                    // Each op depends on 0..=3 random ops of the previous
                    // layer (duplicates allowed: parallel edges must stay
                    // balanced too).
                    if !prev.is_empty() {
                        for _ in 0..(next() % 4) {
                            g.add_edge(prev[(next() as usize) % prev.len()], op);
                        }
                    }
                    cur.push(op);
                }
                prev = cur;
            }
            let fired: Vec<Count> = (0..g.len()).map(|_| Count::new(0)).collect();
            let done = statuses(g.len());
            let deps: Vec<Vec<OpId>> = {
                let mut deps = vec![Vec::new(); g.len()];
                for (op, outs) in g.dependents.iter().enumerate() {
                    for &d in outs {
                        deps[d].push(op);
                    }
                }
                deps
            };
            let r = run(32, 7, &SchedMetrics::default(), &g, |_, op, _| {
                for &d in &deps[op] {
                    assert!(done[d].load(Ordering::Acquire), "iter {iter}: dep order");
                }
                done[op].store(true, Ordering::Release);
                fired[op].fetch_add(1, Ordering::AcqRel);
                OpStatus::Done
            });
            assert_eq!(r.stats.executed, g.len() as u64, "iter {iter}");
            assert_eq!(r.stats.cancelled, 0, "iter {iter}");
            for (op, c) in fired.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Acquire),
                    1,
                    "iter {iter}: op {op} fired more than once"
                );
            }
        }
    }

    /// Device exclusivity under contention: random layered graphs over 2-4
    /// devices plus device-less ops, an oversubscribed pool, and a live
    /// per-device counter inside the callback that must never exceed 1.
    /// Shared-queue ops keep running beside device ops, every op fires at
    /// most once, and executed + cancelled covers the graph. Every other
    /// iteration fails some device ops: their cancelled dependents claim
    /// and release device slots too, so a leaked slot would hang the run.
    #[test]
    fn stress_device_ops_run_exclusively() {
        let iters: usize = if std::env::var("OI_SCHED_STRESS").is_ok() {
            200
        } else {
            40
        };
        let mut seed = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut overlapped, mut cancelled) = (0usize, 0u64);
        for iter in 0..iters {
            let devices = 2 + (next() % 3) as usize;
            let mut g = OpGraph::new();
            let mut prev: Vec<OpId> = Vec::new();
            for l in 0..4 + (next() % 4) as usize {
                let mut cur = Vec::new();
                for i in 0..6 + (next() % 14) as usize {
                    let dev = match next() % 4 {
                        0 => None,
                        r => Some((r as usize + i) % devices),
                    };
                    let op = g.add_node((l, i), dev);
                    if !prev.is_empty() {
                        for _ in 0..(next() % 4) {
                            g.add_edge(prev[(next() as usize) % prev.len()], op);
                        }
                    }
                    cur.push(op);
                }
                prev = cur;
            }
            let failing = iter % 2 == 1;
            let fail_mask: Vec<bool> = (0..g.len())
                .map(|op| failing && g.device[op].is_some() && next() % 6 == 0)
                .collect();
            let fired: Vec<Count> = (0..g.len()).map(|_| Count::new(0)).collect();
            let inside: Vec<Count> = (0..devices).map(|_| Count::new(0)).collect();
            let peak = Count::new(0);
            let overlap = AtomicBool::new(false);
            let r = run(24, devices, &SchedMetrics::default(), &g, |_, op, _| {
                fired[op].fetch_add(1, Ordering::AcqRel);
                match g.device[op] {
                    Some(d) => {
                        let now = inside[d].fetch_add(1, Ordering::AcqRel) + 1;
                        peak.fetch_max(now, Ordering::AcqRel);
                        std::thread::sleep(Duration::from_micros(50));
                        inside[d].fetch_sub(1, Ordering::AcqRel);
                    }
                    None => {
                        if inside.iter().any(|c| c.load(Ordering::Acquire) > 0) {
                            overlap.store(true, Ordering::Relaxed);
                        }
                    }
                }
                if fail_mask[op] {
                    OpStatus::Failed
                } else {
                    OpStatus::Done
                }
            });
            assert_eq!(
                peak.load(Ordering::Acquire),
                1,
                "iter {iter}: two ops inside one device"
            );
            assert_eq!(
                r.stats.executed + r.stats.cancelled,
                g.len() as u64,
                "iter {iter}: every op finalized exactly once"
            );
            assert!(
                fired.iter().all(|c| c.load(Ordering::Acquire) <= 1),
                "iter {iter}: an op fired twice"
            );
            for &op in &r.cancelled {
                assert_eq!(fired[op].load(Ordering::Acquire), 0, "iter {iter}");
            }
            cancelled += r.stats.cancelled;
            overlapped += usize::from(overlap.load(Ordering::Relaxed));
        }
        assert!(
            overlapped > 0,
            "shared-queue ops never ran beside a device op"
        );
        assert!(cancelled > 0, "no failure ever cancelled a dependent");
    }

    /// Same stress shape but with random failures: executed + cancelled
    /// must account for every op exactly once, and no cancelled op may
    /// have run.
    #[test]
    fn stress_failures_partition_the_graph() {
        let mut seed = 0xA24BAED4963EE407u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for iter in 0..30 {
            let mut g = OpGraph::new();
            let mut prev: Vec<OpId> = Vec::new();
            for l in 0..5 {
                let mut cur = Vec::new();
                for i in 0..16 {
                    let op = g.add_node((l, i), Some(i % 5));
                    if !prev.is_empty() {
                        for _ in 0..(1 + next() % 2) {
                            g.add_edge(prev[(next() as usize) % prev.len()], op);
                        }
                    }
                    cur.push(op);
                }
                prev = cur;
            }
            let fail_mask: Vec<bool> = (0..g.len()).map(|_| next() % 8 == 0).collect();
            let fired: Vec<Count> = (0..g.len()).map(|_| Count::new(0)).collect();
            let r = run(16, 5, &SchedMetrics::default(), &g, |_, op, _| {
                fired[op].fetch_add(1, Ordering::AcqRel);
                if fail_mask[op] {
                    OpStatus::Failed
                } else {
                    OpStatus::Done
                }
            });
            assert_eq!(
                r.stats.executed + r.stats.cancelled,
                g.len() as u64,
                "iter {iter}: every op finalized exactly once"
            );
            for &op in &r.cancelled {
                assert_eq!(fired[op].load(Ordering::Acquire), 0, "iter {iter}");
            }
        }
    }
}

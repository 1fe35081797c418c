//! Outside-in tracing: timing wrappers around each layer's public interface.
//!
//! Nothing inside the program is instrumented. Each wrapper implements the
//! layer's own trait (or iterator protocol), forwards every call to the
//! wrapped value unchanged, and charges the call's self time to a [`Clock`].
//! The wrapped value never learns it is wrapped: [`TimedSink`] forwards
//! `as_any`/`into_any` to the inner sink, so `Simulation::take_sink::<T>`
//! still recovers the concrete aggregator or doctor.

use cluster::{Node, NodeId};
use mapreduce::JobSpec;
use obs::{ArgValue, TelemetrySink};
use scheduler::{ClusterLoads, JobPlacement, Placement, PlacementDecision};
use simcore::{NetResourceId, SimTime};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use storage::{DfsModel, FileId, IoPlan, StorageError};

thread_local! {
    /// Wall nanoseconds spent inside [`Clock::time`] calls on this thread,
    /// so an enclosing call can tell its own time from its children's.
    static TIMED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Accumulated self time and call count of one layer boundary.
#[derive(Debug, Default)]
pub struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Clock {
    /// Run `f`, charging one call and its self time to this clock: its wall
    /// time minus the time of any timed calls made inside it, which their
    /// own clocks are charged with.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let before = TIMED_NS.get();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_nanos() as u64;
        let children = TIMED_NS.get() - before;
        TIMED_NS.set(before + wall);
        self.ns.set(self.ns.get() + wall.saturating_sub(children));
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Self nanoseconds charged.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls charged.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.ns() as f64 / self.calls() as f64
        }
    }
}

/// A [`JobPlacement`] that times every decision of the policy it wraps.
pub struct TimedPlacement<'a> {
    pub inner: &'a dyn JobPlacement,
    pub clock: &'a Clock,
}

impl JobPlacement for TimedPlacement<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&self, job: &JobSpec, loads: &ClusterLoads) -> Placement {
        self.clock.time(|| self.inner.place(job, loads))
    }

    fn explain(&self, job: &JobSpec, loads: &ClusterLoads) -> PlacementDecision {
        self.clock.time(|| self.inner.explain(job, loads))
    }
}

/// An iterator that times every `next` of the generator it wraps.
pub struct TimedIter<'a, I> {
    pub inner: I,
    pub clock: &'a Clock,
}

impl<I: Iterator> Iterator for TimedIter<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Clocks of the storage layer, one per kind of call the engine makes.
#[derive(Debug, Default)]
pub struct DfsClocks {
    /// `plan_read`.
    pub read: Clock,
    /// `plan_write`.
    pub write: Clock,
    /// `block_hosts` (data-local placement lookups).
    pub hosts: Clock,
    /// `on_node_down` — the repair planning of a crash.
    pub node_down: Clock,
    /// `on_node_down` calls that returned a repair plan.
    pub repair_plans: Cell<u64>,
    /// Every other call (create, delete, sizes, rejoin, ...).
    pub other: Clock,
}

impl DfsClocks {
    /// Total storage self time, every call kind included.
    pub fn total_ns(&self) -> u64 {
        self.read.ns() + self.write.ns() + self.hosts.ns() + self.node_down.ns() + self.other.ns()
    }
}

/// A [`DfsModel`] that times every call into the backend it wraps.
pub struct TimedDfs {
    pub inner: Box<dyn DfsModel>,
    pub clocks: Rc<DfsClocks>,
}

impl DfsModel for TimedDfs {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn block_size(&self) -> u64 {
        self.clocks.other.time(|| self.inner.block_size())
    }

    fn create_file(&mut self, id: FileId, size: u64) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.clocks.other.time(|| inner.create_file(id, size))
    }

    fn delete_file(&mut self, id: FileId) -> bool {
        let inner = &mut self.inner;
        self.clocks.other.time(|| inner.delete_file(id))
    }

    fn file_size(&self, id: FileId) -> Option<u64> {
        self.clocks.other.time(|| self.inner.file_size(id))
    }

    fn num_blocks(&self, id: FileId) -> u32 {
        self.clocks.other.time(|| self.inner.num_blocks(id))
    }

    fn block_hosts(&self, id: FileId, block: u32) -> Vec<NodeId> {
        self.clocks.hosts.time(|| self.inner.block_hosts(id, block))
    }

    fn plan_read(&self, id: FileId, block: u32, reader: &Node) -> IoPlan {
        self.clocks
            .read
            .time(|| self.inner.plan_read(id, block, reader))
    }

    fn plan_write(
        &mut self,
        id: FileId,
        bytes: u64,
        writer: &Node,
        pressure: u64,
    ) -> Result<IoPlan, StorageError> {
        let inner = &mut self.inner;
        self.clocks
            .write
            .time(|| inner.plan_write(id, bytes, writer, pressure))
    }

    fn used_bytes(&self) -> u64 {
        self.clocks.other.time(|| self.inner.used_bytes())
    }

    fn on_node_down(&mut self, node: NodeId) -> Option<IoPlan> {
        let inner = &mut self.inner;
        let plan = self.clocks.node_down.time(|| inner.on_node_down(node));
        if plan.is_some() {
            let n = &self.clocks.repair_plans;
            n.set(n.get() + 1);
        }
        plan
    }

    fn on_node_up(&mut self, node: NodeId) {
        let inner = &mut self.inner;
        self.clocks.other.time(|| inner.on_node_up(node))
    }

    fn server_resources(&self) -> Vec<NetResourceId> {
        self.clocks.other.time(|| self.inner.server_resources())
    }
}

/// A [`TelemetrySink`] that times every call into the sink it wraps.
pub struct TimedSink<S> {
    pub inner: S,
    pub clock: Rc<Clock>,
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn span(
        &mut self,
        cat: &'static str,
        name: &str,
        pid: u32,
        tid: u32,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, ArgValue)],
    ) {
        let inner = &mut self.inner;
        self.clock
            .time(|| inner.span(cat, name, pid, tid, start, end, args))
    }

    fn instant(
        &mut self,
        cat: &'static str,
        name: &str,
        pid: u32,
        tid: u32,
        ts: SimTime,
        args: &[(&'static str, ArgValue)],
    ) {
        let inner = &mut self.inner;
        self.clock
            .time(|| inner.instant(cat, name, pid, tid, ts, args))
    }

    fn counter(
        &mut self,
        cat: &'static str,
        name: &'static str,
        pid: u32,
        ts: SimTime,
        value: f64,
    ) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.counter(cat, name, pid, ts, value))
    }

    fn name_process(&mut self, pid: u32, name: &str) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.name_process(pid, name))
    }

    fn wants_flows(&self) -> bool {
        self.inner.wants_flows()
    }

    fn wants_tasks(&self) -> bool {
        self.inner.wants_tasks()
    }

    fn finish(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.finish(now))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        Box::new(self.inner).into_any()
    }
}

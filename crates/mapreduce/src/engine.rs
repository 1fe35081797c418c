//! The MapReduce execution engine: a discrete-event simulation of Hadoop
//! 1.x job execution over one or more sub-clusters.
//!
//! ## Execution model
//!
//! A job's life (paper §II-A):
//!
//! 1. **Arrival** — the input dataset is placed in the DFS (pre-loaded, no
//!    I/O cost, but capacity-checked: this is where up-HDFS rejects >80 GB
//!    inputs) and job setup latency is paid.
//! 2. **Map phase** — one map task per block. Tasks queue FIFO per cluster
//!    and run in *waves* over the map slots (slots = cores, §II-D). Each
//!    task: fixed overhead (CPU-speed scaled), block read via the DFS's
//!    [`IoPlan`], map CPU work, map-output write to the node's shuffle store
//!    (RAM disk on scale-up, local disk on scale-out).
//! 3. **Shuffle phase** — reducers launch when all maps are done and fetch
//!    their partition from every source node's shuffle store across the
//!    fabric; partitions overflowing the heap's shuffle buffer spill to the
//!    shuffle store and are re-read (the scale-out HDD penalty that gives
//!    shuffle-heavy jobs their scale-up advantage).
//! 4. **Reduce phase** — merge/sort CPU, reduce CPU, output write via the
//!    DFS (replicated on HDFS, striped on OFS).
//!
//! Phase durations are recorded with the paper's exact definitions (§III).
//!
//! ## Scheduling
//!
//! FIFO with data-locality preference, like the era's default JobTracker:
//! when slots free up, the head-of-queue task goes to a node hosting its
//! block if possible. Multi-job slot competition — the effect that hurts
//! THadoop in the paper's Figure 10 — emerges from the shared queues.

use crate::config::EngineConfig;
use crate::job::{JobId, JobResult, JobSpec};
use crate::queue::TaskQueue;
use cluster::BuiltCluster;
use obs::{ArgValue, Recorder, TelemetrySink};
use simcore::fault::{FaultPlan, NodeFaultKind, ServerFaultKind};
use simcore::rng::DetRng;
use simcore::{EventQueue, FlowId, FlowNetwork, NetResourceId, QueuedEvent, SimDuration, SimTime};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use storage::plan::Transfer;
use storage::{DfsModel, FileId, IoKind, IoPlan};

/// FNV-1a with a fixed offset basis. The engine's hot maps are keyed by
/// small integer ids (flow ids, node ids); FNV hashes those in a handful of
/// cycles where SipHash pays its per-key setup, and the fixed basis removes
/// the per-process random seed — the only map iteration in the engine
/// ([`Simulation::kill_attempt`]) sorts its result, so order was never load
/// bearing, but a keyed hasher bought nothing here.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
type FnvSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// Map or reduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

/// What a set of in-flight transfers represents — purely an observability
/// label carried alongside flow steps so traces can distinguish a DFS read
/// from a shuffle fetch. Never consulted by the execution model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// DFS input read.
    Read,
    /// DFS output write.
    Write,
    /// Map-output write to the node's shuffle store.
    ShuffleWrite,
    /// Reducer fetching its partition from the map-side stores.
    ShuffleFetch,
    /// Reduce-side heap-overflow spill and re-read.
    ShuffleSpill,
    /// HDFS re-replication after node loss (background traffic).
    ReReplication,
    /// DFS input read served while the block's redundancy is lost (a
    /// replica host down, or an EC read reconstructing from parity).
    DegradedRead,
    /// Erasure-coded reconstruction after node loss: k surviving stripes
    /// read + the rebuilt block written (background traffic).
    Reconstruction,
}

impl FlowKind {
    /// Stable lowercase label used as the flow span's name.
    pub fn label(self) -> &'static str {
        match self {
            FlowKind::Read => "read",
            FlowKind::Write => "write",
            FlowKind::ShuffleWrite => "shuffle-write",
            FlowKind::ShuffleFetch => "shuffle-fetch",
            FlowKind::ShuffleSpill => "shuffle-spill",
            FlowKind::ReReplication => "re-replication",
            FlowKind::DegradedRead => "degraded-read",
            FlowKind::Reconstruction => "reconstruction",
        }
    }

    fn from_io(kind: IoKind) -> Self {
        match kind {
            IoKind::Read => FlowKind::Read,
            IoKind::Write => FlowKind::Write,
            IoKind::ReReplication => FlowKind::ReReplication,
            IoKind::Reconstruction => FlowKind::Reconstruction,
        }
    }
}

/// One unit of task progress.
#[derive(Debug, Clone)]
enum Step {
    /// Burn CPU on the task's core.
    Cpu { cycles: f64 },
    /// Wait a fixed latency.
    Latency(SimDuration),
    /// Run transfers in parallel; the step ends when all complete.
    Flows {
        transfers: Vec<Transfer>,
        kind: FlowKind,
    },
    /// Park until every map of the task's job has finished (the gated part
    /// of an overlapped shuffle copy).
    WaitMaps,
    /// Injected fault: the attempt dies here and the task re-enqueues.
    Fail,
    /// Bookkeeping: the task's shuffle fetch is complete.
    MarkFetchDone,
}

/// One completed task, for timeline analysis (recorded when
/// [`Simulation::record_tasks`] is on).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// The owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within the job and kind.
    pub idx: u32,
    /// Cluster index the task ran on.
    pub cluster: usize,
    /// Node index within that cluster.
    pub node: usize,
    /// Dispatch time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
}

#[derive(Debug)]
struct Task {
    node: usize,
    steps: VecDeque<Step>,
    outstanding: u32,
    started: SimTime,
    attempt: u32,
    /// This attempt passed its `MarkFetchDone` step (reduces only) — if the
    /// attempt dies anyway, the job's fetch count must be given back.
    fetch_done: bool,
    /// When the attempt's current flow step started, while one is in flight.
    flow_started: Option<SimTime>,
    /// Accumulated time this attempt spent blocked on flow steps.
    io_wait: SimDuration,
    /// The in-flight flow step is a degraded DFS read (redundancy lost);
    /// its wait is accounted to `FaultStats::degraded_read_secs`.
    degraded_flow: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Waiting,
    Running,
    Finished,
}

#[derive(Debug)]
struct JobState {
    spec: JobSpec,
    cluster: usize,
    /// Input dataset: a collection of files of at most
    /// `max_input_file_size` bytes each (the paper stores ≤1 GB files).
    input_files: Vec<FileId>,
    /// Output part-files, one per writing task, created as tasks run.
    output_files: Vec<FileId>,
    /// Blocks per full input file.
    blocks_per_file: u32,
    maps_total: u32,
    maps_done: u32,
    reduces_total: u32,
    reduces_done: u32,
    shuffle_total: u64,
    output_total: u64,
    first_map_start: Option<SimTime>,
    last_map_end: SimTime,
    last_fetch_done: SimTime,
    /// Total IO-wait across this job's completed task attempts, surfaced on
    /// the job span so streaming sinks can attribute blocked time per job.
    io_wait_total: SimDuration,
    map_start_times: Vec<SimTime>,
    maps_by_node: Vec<u32>,
    map_tasks: Vec<Option<Task>>,
    reduce_tasks: Vec<Option<Task>>,
    map_attempts: Vec<u32>,
    reduce_attempts: Vec<u32>,
    /// Failed (not killed) attempts per task — the Hadoop attempt budget.
    map_failed: Vec<u32>,
    reduce_failed: Vec<u32>,
    /// Tasks already given their one speculative re-launch.
    map_speculated: Vec<bool>,
    reduce_speculated: Vec<bool>,
    /// Node whose shuffle store holds each completed map's output (None
    /// until completed, reset when a crash loses the output).
    map_done_node: Vec<Option<usize>>,
    /// Reducers whose shuffle fetch has completed.
    fetches_done: u32,
    /// Completed-task duration sums, for the speculation threshold.
    map_dur_sum: f64,
    map_dur_n: u32,
    reduce_dur_sum: f64,
    reduce_dur_n: u32,
    data_local_maps: u32,
    reduces_enqueued: bool,
    parked_reduces: Vec<u32>,
    phase: JobPhase,
    failure: Option<String>,
    /// Cluster is a placeholder until the arrival event asks the attached
    /// [`OnlineRouter`] (jobs submitted via [`Simulation::submit_routed`]).
    routed: bool,
}

struct ClusterState {
    built: BuiltCluster,
    cfg: EngineConfig,
    free_map: Vec<u32>,
    free_reduce: Vec<u32>,
    /// `NodeId` → index into `built.nodes`, so block-host lookups during map
    /// placement are O(1) instead of a scan over the cluster.
    host_index: FnvMap<cluster::NodeId, usize>,
    /// Crashed nodes (fault injection): zero slots until recovery.
    node_down: Vec<bool>,
    map_queue: TaskQueue,
    reduce_queue: TaskQueue,
    /// Attempts currently running, for the observability counters.
    running_maps: u32,
    running_reduces: u32,
}

#[derive(Debug, Clone)]
enum Ev {
    Arrive(usize),
    SetupDone(usize),
    /// `attempt` stamps which attempt armed the timer: events left over from
    /// a killed attempt are stale and ignored.
    StepDone {
        job: usize,
        kind: TaskKind,
        idx: u32,
        attempt: u32,
    },
    NetPoll {
        gen: u64,
    },
    /// Index into the fault plan's node event list.
    NodeFault(usize),
    /// Index into the fault plan's server event list.
    ServerFault(usize),
}

/// How [`Simulation::run`] drives the event loop.
///
/// `Windowed` is the conservative parallel replay mode: the executor drains
/// a window of consecutive step-completion timers, classifies them in
/// parallel (the only part that fans out across threads), and commits the
/// provably order-safe prefix through the exact sequential code path — so
/// results are bitwise identical to `Sequential` at any thread count. See
/// DESIGN.md §14 for the safety argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplayParallelism {
    /// The classic one-event-at-a-time loop (default).
    #[default]
    Sequential,
    /// Windowed speculative execution.
    Windowed {
        /// Worker threads for window classification (clamped to ≥ 1; 1 keeps
        /// the windowed commit protocol but classifies inline).
        threads: usize,
        /// Maximum events drained per window (clamped to ≥ 2).
        window: usize,
    },
}

impl ReplayParallelism {
    /// Windowed mode with the default window size (256 events).
    pub fn windowed(threads: usize) -> Self {
        ReplayParallelism::Windowed {
            threads: threads.max(1),
            window: 256,
        }
    }

    /// The worker-thread count this mode uses (1 for sequential).
    pub fn threads(&self) -> usize {
        match *self {
            ReplayParallelism::Sequential => 1,
            ReplayParallelism::Windowed { threads, .. } => threads.max(1),
        }
    }
}

/// Counters describing what the windowed executor actually did — the
/// equivalence tests assert `batched_events > 0` so the parallel path is
/// known to have genuinely run, and the window/batch ratio is a useful
/// lookahead diagnostic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Windows drained (each classified as one batch).
    pub windows: u64,
    /// Events committed through a window's safe prefix.
    pub batched_events: u64,
    /// Events dispatched one at a time (non-timer events, impure heads).
    pub sequential_events: u64,
}

/// What the classifier decided about one drained step-completion timer.
/// `Pure` means committing it runs a closed-form path that pushes exactly
/// one new timer at `push_at` and touches only its own task's state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Pure { push_at: SimTime },
    Stale,
    Impure,
}

/// Predict how committing one drained timer at time `at` would behave,
/// without mutating anything. Mirrors `Simulation::on_step_done` plus the
/// closed-form branches of `advance_task`:
///
/// - a missing task or attempt mismatch is a stale timer (no-op commit);
/// - otherwise the step walk skips exactly what `advance_task` skips
///   (empty flow sets, a passed map barrier, fetch bookkeeping) and the
///   first `Cpu`/`Latency` step pins the commit to "push one timer at
///   `push_at`" — the `Pure` verdict;
/// - anything else (real flows, an injected failure, a blocking map
///   barrier, task completion) can touch shared state, so it is `Impure`
///   and ends the window's safe prefix.
///
/// Soundness leans on two engine invariants: fault injection draws
/// randomness only when attempts *start* (never on the timer path), and
/// `maps_done` / task slots / attempt counters only change inside impure
/// handlers — so a verdict computed at drain time still holds after any
/// prefix of pure commits from the same window.
fn classify(jobs: &[JobState], clusters: &[ClusterState], ev: &Ev, at: SimTime) -> Verdict {
    let Ev::StepDone {
        job,
        kind,
        idx,
        attempt,
    } = *ev
    else {
        return Verdict::Impure;
    };
    let state = &jobs[job];
    let slot = match kind {
        TaskKind::Map => &state.map_tasks[idx as usize],
        TaskKind::Reduce => &state.reduce_tasks[idx as usize],
    };
    let Some(task) = slot else {
        return Verdict::Stale;
    };
    if task.attempt != attempt {
        return Verdict::Stale;
    }
    for step in &task.steps {
        match step {
            Step::Cpu { cycles } => {
                let speed = clusters[state.cluster].built.nodes[task.node]
                    .spec
                    .core_speed();
                return Verdict::Pure {
                    push_at: at + SimDuration::from_secs_f64(cycles / speed),
                };
            }
            Step::Latency(d) => return Verdict::Pure { push_at: at + *d },
            Step::Flows { transfers, .. } if transfers.is_empty() => continue,
            Step::WaitMaps if state.maps_done == state.maps_total => continue,
            Step::MarkFetchDone => continue,
            _ => return Verdict::Impure,
        }
    }
    Verdict::Impure // end of steps: committing would complete the task
}

/// Counters describing what the fault-injection layer actually did during a
/// run — the ground truth the recovery tests assert against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Node crash events applied.
    pub node_crashes: u64,
    /// Node recovery events applied.
    pub node_recoveries: u64,
    /// Running attempts killed by node crashes or speculation.
    pub tasks_killed: u64,
    /// Completed map outputs invalidated by a node crash and re-executed.
    pub map_outputs_lost: u64,
    /// Attempts slowed by an injected straggler factor.
    pub straggler_attempts: u64,
    /// Straggler attempts killed and re-launched speculatively.
    pub speculative_restarts: u64,
    /// Bytes of HDFS re-replication traffic triggered by node loss.
    pub rereplicated_bytes: f64,
    /// Storage-server degradation events applied.
    pub server_degradations: u64,
    /// Block reads served while redundancy was lost (replica host down, or
    /// an EC read reconstructing from surviving stripes).
    pub degraded_reads: u64,
    /// Wall-clock seconds tasks spent inside degraded read flows.
    pub degraded_read_secs: f64,
    /// Bytes of EC reconstruction traffic (k-stripe fan-in + rebuild
    /// writes) triggered by node loss.
    pub reconstructed_bytes: f64,
    /// Simulation time of the first node crash, if any — the start of the
    /// recovery clock.
    pub first_crash_s: Option<f64>,
    /// Simulation time when the last background repair flow drained, if
    /// any repair ran — `repair_done_s - first_crash_s` is the sweep
    /// table's recovery time.
    pub repair_done_s: Option<f64>,
}

/// A telemetry annotation a router attaches to a decision or a completion:
/// `(category, name, args)`, emitted as an instant on the jobs lane when a
/// sink is attached.
pub type RouterAnnotation = (&'static str, &'static str, Vec<(&'static str, ArgValue)>);

/// The cluster choice an [`OnlineRouter`] makes for one arriving job.
#[derive(Debug)]
pub struct RouteDecision {
    /// Target cluster, an index into the simulation's cluster list.
    pub cluster: usize,
    /// Optional decision audit, emitted at the arrival time. Routers should
    /// only build it when asked to (the `annotate` argument of
    /// [`OnlineRouter::route`]).
    pub annotation: Option<RouterAnnotation>,
}

/// A closed-loop placement policy living *inside* the event loop.
///
/// Jobs submitted with [`Simulation::submit_routed`] carry no cluster; when
/// their arrival event fires the attached router picks one, and every
/// completed job is fed back through [`OnlineRouter::on_complete`] — so the
/// router observes exactly what a live JobTracker would (decisions made
/// with only the past visible, completions in simulation order).
///
/// Routers are deterministic state machines: they may keep their own seeded
/// RNG but have no access to the engine's, and their only influence on the
/// simulation is the returned cluster index. Telemetry stays passive — the
/// annotations a router returns are broadcast by the engine and never read
/// back.
pub trait OnlineRouter {
    /// Choose a cluster for an arriving job. `annotate` is true when a
    /// telemetry sink is attached and an audit annotation is wanted.
    fn route(&mut self, spec: &JobSpec, now: SimTime, annotate: bool) -> RouteDecision;

    /// Route a batch of pending jobs that share one decision instant (a
    /// service loop draining its queue). The contract is strict: decisions
    /// must be bitwise-identical to calling [`OnlineRouter::route`] once
    /// per spec in order, including any internal RNG stream positions —
    /// implementations may only use the batch shape to amortize work (load
    /// thresholds once, skip repeated lookups), never to change outcomes.
    /// The default simply loops.
    fn route_batch(
        &mut self,
        specs: &[&JobSpec],
        now: SimTime,
        annotate: bool,
    ) -> Vec<RouteDecision> {
        specs
            .iter()
            .map(|spec| self.route(spec, now, annotate))
            .collect()
    }

    /// Observe one completed (or failed) job, returning any audit
    /// annotations to broadcast at the completion time (empty when the
    /// completion needs no audit). Multiple annotations let layered routers
    /// attach both their own audit and the inner policy's (e.g. a tenant
    /// attribution riding on a threshold recalibration).
    fn on_complete(&mut self, result: &JobResult) -> Vec<RouterAnnotation>;

    /// Recover the concrete router for post-run inspection (mirrors
    /// [`TelemetrySink::into_any`]).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The simulator: clusters + a DFS + the event loop.
pub struct Simulation {
    queue: EventQueue<Ev>,
    net: FlowNetwork,
    dfs: Box<dyn DfsModel>,
    clusters: Vec<ClusterState>,
    jobs: Vec<JobState>,
    flows: FnvMap<FlowId, (usize, TaskKind, u32)>,
    next_flow: u64,
    next_file: u64,
    results: Vec<JobResult>,
    /// Delete a job's input/output files when it completes (keeps trace
    /// replays within disk capacity, like rolling dataset retention).
    pub delete_files_on_completion: bool,
    /// Record a [`TaskRecord`] per completed task (off by default; large
    /// traces produce millions of tasks).
    pub record_tasks: bool,
    records: Vec<TaskRecord>,
    rng: DetRng,
    fault_plan: FaultPlan,
    faults_scheduled: bool,
    /// Flows owned by the storage layer (re-replication), not by any task.
    background_flows: FnvSet<FlowId>,
    /// `(resource, rated capacity)` per storage server, captured when fault
    /// scheduling begins — degradation scales from the rated value.
    server_resources: Vec<(NetResourceId, f64)>,
    stats: FaultStats,
    /// Attached telemetry sinks (see [`Simulation::attach_sink`]). Empty
    /// means every instrumentation site is a single skipped branch and the
    /// simulation allocates nothing for telemetry.
    sinks: Vec<Box<dyn TelemetrySink>>,
    /// Cached `sinks.iter().any(wants_flows)` — whether per-flow labels and
    /// network flow logging are maintained.
    log_flows: bool,
    /// Cached `sinks.iter().any(wants_tasks)` — per-task-attempt spans are
    /// the hottest emission site, so the name formatting is skipped when no
    /// sink consumes them.
    log_tasks: bool,
    /// Flow labels for in-flight flows, populated only while a flow-hungry
    /// sink is attached: `(kind, owning job id)` — `None` for background
    /// traffic.
    flow_meta: FnvMap<FlowId, (FlowKind, Option<u32>)>,
    /// Closed-loop placement policy for jobs submitted via
    /// [`Simulation::submit_routed`] (see [`OnlineRouter`]).
    router: Option<Box<dyn OnlineRouter>>,
    /// How [`Simulation::run`] drives the event loop.
    replay: ReplayParallelism,
    /// What the windowed executor did, for diagnostics and the equivalence
    /// tests (all zero after a sequential run).
    par_stats: ParallelStats,
    /// Recycled step buffers: task attempts churn through short
    /// `VecDeque<Step>`s at a rate of several per job, and reusing their
    /// allocations keeps the replay hot loop off the allocator.
    step_pool: Vec<VecDeque<Step>>,
}

impl Simulation {
    /// A simulation over `clusters` (each with its own runtime config)
    /// sharing one flow network and one DFS.
    ///
    /// # Panics
    /// Panics when no clusters are given.
    pub fn new(
        net: FlowNetwork,
        dfs: Box<dyn DfsModel>,
        clusters: Vec<(BuiltCluster, EngineConfig)>,
    ) -> Self {
        assert!(!clusters.is_empty(), "need at least one cluster");
        let clusters = clusters
            .into_iter()
            .map(|(built, cfg)| {
                let free_map = built.nodes.iter().map(|n| n.spec.map_slots()).collect();
                let free_reduce = built.nodes.iter().map(|n| n.spec.reduce_slots()).collect();
                let node_down = vec![false; built.nodes.len()];
                let host_index = built
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(pos, n)| (n.id, pos))
                    .collect();
                let map_queue = TaskQueue::new(cfg.task_sched);
                let reduce_queue = TaskQueue::new(cfg.task_sched);
                ClusterState {
                    built,
                    cfg,
                    free_map,
                    free_reduce,
                    host_index,
                    node_down,
                    map_queue,
                    reduce_queue,
                    running_maps: 0,
                    running_reduces: 0,
                }
            })
            .collect();
        Simulation {
            queue: EventQueue::new(),
            net,
            dfs,
            clusters,
            jobs: Vec::new(),
            flows: FnvMap::default(),
            next_flow: 0,
            next_file: 0,
            results: Vec::new(),
            delete_files_on_completion: true,
            record_tasks: false,
            records: Vec::new(),
            rng: simcore::rng::substream(0x5EED, 0),
            fault_plan: FaultPlan::empty(),
            faults_scheduled: false,
            background_flows: FnvSet::default(),
            server_resources: Vec::new(),
            stats: FaultStats::default(),
            sinks: Vec::new(),
            log_flows: false,
            log_tasks: false,
            flow_meta: FnvMap::default(),
            router: None,
            replay: ReplayParallelism::default(),
            par_stats: ParallelStats::default(),
            step_pool: Vec::new(),
        }
    }

    /// Attach a telemetry sink: from now on every job/phase/task span, flow
    /// span, fault marker, and scheduler counter the engine emits is
    /// broadcast to it (alongside any sinks already attached). The new sink
    /// is immediately told the cluster lane names.
    ///
    /// Sinks are strictly passive — they draw no randomness, push no events
    /// and never feed back into scheduling — so results are bitwise
    /// identical with any combination of sinks attached.
    pub fn attach_sink(&mut self, mut sink: Box<dyn TelemetrySink>) {
        for (i, c) in self.clusters.iter().enumerate() {
            sink.name_process(i as u32, &format!("cluster/{}", c.built.name));
        }
        sink.name_process(obs::lanes::JOBS, "jobs");
        sink.name_process(obs::lanes::FLOWS, "flows");
        sink.name_process(obs::lanes::STORAGE, "storage-servers");
        self.sinks.push(sink);
        self.refresh_flow_logging();
    }

    /// Whether any sink is attached (the emission-site fast-path check).
    pub fn telemetry_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Turn on structured tracing into a buffering [`obs::Recorder`]
    /// (attached as one [`TelemetrySink`]; no-op if one is already there).
    pub fn enable_observability(&mut self) {
        if self.observability().is_some() {
            return;
        }
        self.attach_sink(Box::new(Recorder::new()));
    }

    /// The recorder, if one is attached.
    pub fn observability(&self) -> Option<&Recorder> {
        self.sinks
            .iter()
            .find_map(|s| s.as_any().downcast_ref::<Recorder>())
    }

    /// Mutable access to the recorder, if one is attached.
    pub fn observability_mut(&mut self) -> Option<&mut Recorder> {
        self.sinks
            .iter_mut()
            .find_map(|s| s.as_any_mut().downcast_mut::<Recorder>())
    }

    /// Detach and return the recorder sink, if one is attached.
    pub fn take_observability(&mut self) -> Option<Box<Recorder>> {
        self.take_sink::<Recorder>()
    }

    /// Detach and return the first attached sink of concrete type `T`.
    pub fn take_sink<T: TelemetrySink>(&mut self) -> Option<Box<T>> {
        let pos = self.sinks.iter().position(|s| s.as_any().is::<T>())?;
        let sink = self.sinks.remove(pos);
        let sink = sink
            .into_any()
            .downcast::<T>()
            .expect("position found by type check");
        self.refresh_flow_logging();
        Some(sink)
    }

    fn refresh_flow_logging(&mut self) {
        self.log_flows = self.sinks.iter().any(|s| s.wants_flows());
        self.log_tasks = self.sinks.iter().any(|s| s.wants_tasks());
        self.net.set_flow_logging(self.log_flows);
    }

    /// Broadcast one span to every sink.
    #[allow(clippy::too_many_arguments)]
    fn emit_span(
        &mut self,
        cat: &'static str,
        name: &str,
        pid: u32,
        tid: u32,
        start: SimTime,
        end: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        for s in &mut self.sinks {
            s.span(cat, name, pid, tid, start, end, &args);
        }
    }

    /// Broadcast one instant marker to every sink.
    fn emit_instant(
        &mut self,
        cat: &'static str,
        name: &str,
        pid: u32,
        tid: u32,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        for s in &mut self.sinks {
            s.instant(cat, name, pid, tid, ts, &args);
        }
    }

    /// Broadcast one instant marker to every sink (public for replay-level
    /// annotations such as placement decisions).
    pub fn annotate_instant(
        &mut self,
        cat: &'static str,
        name: &str,
        pid: u32,
        tid: u32,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.emit_instant(cat, name, pid, tid, ts, args);
    }

    /// Reseed the failure-injection RNG (the default seed is fixed, so two
    /// simulations with identical inputs are identical; change the seed to
    /// sample different failure patterns).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.rng = simcore::rng::substream(seed, 0);
    }

    /// Install a pre-drawn machine/storage fault schedule. The default
    /// [`FaultPlan::empty`] injects nothing and leaves every result bitwise
    /// identical to a run without fault injection.
    ///
    /// # Panics
    /// Panics when called after `run` has started executing the plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.faults_scheduled,
            "fault plan must be set before run()"
        );
        self.fault_plan = plan;
    }

    /// What the fault layer actually did during the run.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Task timeline records (empty unless [`Simulation::record_tasks`]).
    pub fn task_records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Submit a job to run on cluster `cluster` (index into the cluster list
    /// given at construction). The placement decision itself is the
    /// scheduler crate's business.
    ///
    /// # Panics
    /// Panics on an out-of-range cluster index or a submission earlier than
    /// the current simulation time.
    pub fn submit(&mut self, spec: JobSpec, cluster: usize) {
        assert!(cluster < self.clusters.len(), "no such cluster: {cluster}");
        self.submit_inner(spec, cluster, false);
    }

    /// Submit a job whose cluster is chosen by the attached [`OnlineRouter`]
    /// when the arrival event fires — i.e. with everything the router has
    /// learned from completions *before* that instant, not at submission
    /// time. Arrival ordering (and therefore event tie-breaking) is
    /// identical to [`Simulation::submit`].
    ///
    /// # Panics
    /// Panics when no router is attached (see [`Simulation::set_router`]).
    pub fn submit_routed(&mut self, spec: JobSpec) {
        assert!(
            self.router.is_some(),
            "submit_routed requires a router (Simulation::set_router)"
        );
        self.submit_inner(spec, 0, true);
    }

    /// Attach the closed-loop placement policy used by
    /// [`Simulation::submit_routed`], replacing any previous one.
    pub fn set_router(&mut self, router: Box<dyn OnlineRouter>) {
        self.router = Some(router);
    }

    /// Detach and return the router, e.g. to inspect its adapted state
    /// after a run (downcast via [`OnlineRouter::into_any`]).
    pub fn take_router(&mut self) -> Option<Box<dyn OnlineRouter>> {
        self.router.take()
    }

    fn submit_inner(&mut self, spec: JobSpec, cluster: usize, routed: bool) {
        let j = self.jobs.len();
        let submit = spec.submit;
        // Routed jobs size `maps_by_node` at arrival, once a cluster exists.
        let nodes = if routed {
            0
        } else {
            self.clusters[cluster].built.nodes.len()
        };
        self.jobs.push(JobState {
            input_files: Vec::new(),
            output_files: Vec::new(),
            blocks_per_file: 1,
            cluster,
            maps_total: 0,
            maps_done: 0,
            reduces_total: 0,
            reduces_done: 0,
            shuffle_total: spec.profile.shuffle_bytes(spec.input_size),
            output_total: spec.profile.output_bytes(spec.input_size),
            first_map_start: None,
            last_map_end: SimTime::ZERO,
            last_fetch_done: SimTime::ZERO,
            io_wait_total: SimDuration::ZERO,
            map_start_times: Vec::new(),
            maps_by_node: vec![0; nodes],
            map_tasks: Vec::new(),
            reduce_tasks: Vec::new(),
            map_attempts: Vec::new(),
            reduce_attempts: Vec::new(),
            map_failed: Vec::new(),
            reduce_failed: Vec::new(),
            map_speculated: Vec::new(),
            reduce_speculated: Vec::new(),
            map_done_node: Vec::new(),
            fetches_done: 0,
            map_dur_sum: 0.0,
            map_dur_n: 0,
            reduce_dur_sum: 0.0,
            reduce_dur_n: 0,
            data_local_maps: 0,
            reduces_enqueued: false,
            parked_reduces: Vec::new(),
            phase: JobPhase::Waiting,
            failure: None,
            routed,
            spec,
        });
        self.queue.push(submit, Ev::Arrive(j));
    }

    /// Run to completion and return the per-job results in completion order.
    ///
    /// The produced results, telemetry, and event accounting are bitwise
    /// identical under every [`ReplayParallelism`] setting — the windowed
    /// executor only changes how fast the same total order is walked.
    pub fn run(&mut self) -> &[JobResult] {
        self.schedule_faults();
        match self.replay {
            ReplayParallelism::Sequential => {
                while let Some((_, ev)) = self.queue.pop() {
                    self.dispatch(ev);
                }
            }
            ReplayParallelism::Windowed { threads, window } => {
                self.run_windowed(threads.max(1), window.max(2));
            }
        }
        // O(jobs) once per run, so it holds in release builds too: a lost
        // event would otherwise return partial results silently.
        if let Some(job) = self.jobs.iter().find(|job| job.phase != JobPhase::Finished) {
            panic!(
                "event queue drained with unfinished jobs: first is {:?} ({:?})",
                job.spec.id, job.phase
            );
        }
        self.obs_resource_summary();
        let end = self.queue.now();
        for s in &mut self.sinks {
            s.finish(end);
        }
        &self.results
    }

    /// Select how [`Simulation::run`] drives the event loop. Must be called
    /// before `run`; the default is [`ReplayParallelism::Sequential`].
    pub fn set_replay_parallelism(&mut self, replay: ReplayParallelism) {
        self.replay = replay;
    }

    /// What the windowed executor did (all zeros after a sequential run).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.par_stats
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive(j) => self.on_arrive(j),
            Ev::SetupDone(j) => self.on_setup_done(j),
            Ev::StepDone {
                job,
                kind,
                idx,
                attempt,
            } => self.on_step_done(job, kind, idx, attempt),
            Ev::NetPoll { gen } => self.on_net_poll(gen),
            Ev::NodeFault(i) => self.on_node_fault(i),
            Ev::ServerFault(i) => self.on_server_fault(i),
        }
    }

    /// The conservative windowed event loop (see DESIGN.md §14).
    ///
    /// Each iteration drains up to `window` *consecutive* step-completion
    /// timers from the head of the queue without disturbing the clock,
    /// classifies them (in parallel when the batch is worth it), commits the
    /// longest prefix whose timer pushes provably cannot reorder ahead of a
    /// later prefix entry, and returns the rest untouched. Commits go
    /// through [`Self::on_step_done`] — the exact sequential handler — so
    /// the classifier influences only scheduling, never state, and the
    /// event stream stays bitwise identical to sequential replay.
    fn run_windowed(&mut self, threads: usize, window: usize) {
        let mut batch: Vec<QueuedEvent<Ev>> = Vec::with_capacity(window);
        // Conservative lookahead in this engine is often short — storage
        // and scheduler coupling make many timers impure — so draining the
        // full window only to unpop the tail is the dominant cost at small
        // batch sizes. The drain cap follows the observed safe-prefix
        // length: it doubles whenever a window commits everything it
        // drained and falls back to twice the committed prefix otherwise,
        // keeping heap churn proportional to committed work while long
        // pure runs still grow batches to the full window.
        let mut cap = 2usize.clamp(2, window);
        'outer: loop {
            // Drain a run of StepDone timers at the queue head.
            // A non-timer head with an empty batch IS the queue head, so it
            // dispatches inline at sequential cost (no unpop/re-pop churn)
            // — this is the common case whenever flow completions dominate.
            while batch.len() < cap {
                let Some(entry) = self.queue.pop_entry() else {
                    if batch.is_empty() {
                        break 'outer; // drained: the run is complete
                    }
                    break;
                };
                if matches!(entry.payload, Ev::StepDone { .. }) {
                    batch.push(entry);
                } else if batch.is_empty() {
                    self.queue.commit_entry(&entry);
                    self.par_stats.sequential_events += 1;
                    self.dispatch(entry.payload);
                } else {
                    self.queue.unpop(entry);
                    break;
                }
            }
            if let [only] = batch.as_slice() {
                // A lone timer is the queue head; committing it is plain
                // sequential order — skip classification entirely.
                self.queue.commit_entry(only);
                self.par_stats.sequential_events += 1;
                let entry = batch.pop().expect("slice-matched one entry");
                self.dispatch(entry.payload);
                continue;
            }
            self.par_stats.windows += 1;
            let verdicts = self.classify_batch(&batch, threads);

            // Longest safe prefix: entry i may join only if no timer pushed
            // by an earlier prefix entry lands strictly before t_i —
            // otherwise sequential replay would have interleaved that timer
            // first. Ties are safe: a freshly pushed timer always carries a
            // larger sequence number than anything already queued.
            let mut m = 0;
            let mut min_push: Option<SimTime> = None;
            for (entry, verdict) in batch.iter().zip(&verdicts) {
                if min_push.is_some_and(|p| p < entry.time) {
                    break;
                }
                match *verdict {
                    Verdict::Impure => break,
                    Verdict::Stale => m += 1,
                    Verdict::Pure { push_at } => {
                        m += 1;
                        if min_push.is_none_or(|p| push_at < p) {
                            min_push = Some(push_at);
                        }
                    }
                }
            }

            if m == 0 {
                // The head itself is impure. It is still the true queue
                // head, so dispatching it alone is plain sequential order.
                let tail = batch.drain(1..).collect::<Vec<_>>();
                for entry in tail {
                    self.queue.unpop(entry);
                }
                let head = batch.pop().expect("nonempty batch has a head");
                self.queue.commit_entry(&head);
                self.par_stats.sequential_events += 1;
                self.dispatch(head.payload);
                cap = 2;
                continue;
            }

            // Return the unproven tail first, then commit the safe prefix
            // in drain order through the sequential handler.
            let drained = batch.len();
            for entry in batch.drain(m..) {
                self.queue.unpop(entry);
            }
            cap = if m == drained {
                (cap * 2).min(window)
            } else {
                (m * 2).clamp(2, window)
            };
            for entry in batch.drain(..) {
                self.queue.commit_entry(&entry);
                self.par_stats.batched_events += 1;
                let Ev::StepDone {
                    job,
                    kind,
                    idx,
                    attempt,
                } = entry.payload
                else {
                    unreachable!("batch only drains StepDone entries");
                };
                self.on_step_done(job, kind, idx, attempt);
            }
        }
    }

    /// Classify every drained timer, fanning out across scoped threads when
    /// the batch is large enough to amortize thread startup. Classification
    /// is a pure read of simulation state, so chunk boundaries and thread
    /// scheduling cannot affect the verdicts.
    fn classify_batch(&self, batch: &[QueuedEvent<Ev>], threads: usize) -> Vec<Verdict> {
        /// Below this batch size the scoped-thread fan-out costs more than
        /// the classification it parallelizes.
        const PAR_CLASSIFY_MIN: usize = 16;
        let jobs = &self.jobs;
        let clusters = &self.clusters;
        if threads <= 1 || batch.len() < PAR_CLASSIFY_MIN {
            return batch
                .iter()
                .map(|e| classify(jobs, clusters, &e.payload, e.time))
                .collect();
        }
        let chunk = batch.len().div_ceil(threads);
        let mut verdicts = Vec::with_capacity(batch.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|e| classify(jobs, clusters, &e.payload, e.time))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                verdicts.extend(h.join().expect("classifier thread panicked"));
            }
        });
        verdicts
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    /// Number of events processed (diagnostics / benches). A network poll
    /// superseded by a newer generation leaves the queue without popping,
    /// so it is not counted; a poll that still pops stale is.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Read access to the flow network (device utilization metrics).
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }

    /// Read access to the DFS model.
    pub fn dfs(&self) -> &dyn DfsModel {
        self.dfs.as_ref()
    }

    fn alloc_file(&mut self) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        id
    }

    /// A step buffer for a new attempt, reusing a retired one when possible.
    fn fresh_steps(&mut self) -> VecDeque<Step> {
        self.step_pool.pop().unwrap_or_default()
    }

    /// Retire a finished attempt's step buffer into the pool. The pool is
    /// capped: concurrent attempts are bounded by total slots, so anything
    /// beyond a small stash would never be reused.
    fn recycle_steps(&mut self, mut steps: VecDeque<Step>) {
        const POOL_CAP: usize = 64;
        if self.step_pool.len() < POOL_CAP {
            steps.clear();
            self.step_pool.push(steps);
        }
    }

    /// Translate a job-global map index into (input file, block within it).
    fn input_block(&self, j: usize, idx: u32) -> (FileId, u32) {
        let job = &self.jobs[j];
        let bpf = job.blocks_per_file.max(1);
        let file = (idx / bpf) as usize;
        (
            job.input_files[file.min(job.input_files.len().saturating_sub(1))],
            idx % bpf,
        )
    }

    /// The transfers realizing a shuffle-store write or read on `node`:
    /// one flow on the node's shuffle store (RAM disk on scale-up, the
    /// cache-assisted local-disk channel on scale-out), plus any fabric hop.
    fn shuffle_transfers(
        node: &cluster::Node,
        bytes: f64,
        extra_hop: &[simcore::NetResourceId],
    ) -> Vec<Transfer> {
        let mut path = vec![node.shuffle_store()];
        path.extend(extra_hop);
        vec![Transfer {
            path,
            bytes,
            rate_cap: None,
        }]
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, j: usize) {
        let now = self.queue.now();
        if self.jobs[j].routed {
            self.resolve_route(j, now);
        }
        let block = self.dfs.block_size();
        let input = self.jobs[j].spec.input_size;
        let file_size = self.clusters[self.jobs[j].cluster]
            .cfg
            .max_input_file_size
            .max(block);
        self.jobs[j].blocks_per_file = (file_size / block.max(1)).max(1) as u32;
        // Pre-load the input dataset as ≤file_size files (capacity-checked
        // placement, no I/O — datasets exist before measurement).
        if self.jobs[j].spec.profile.maps_read_input && input > 0 {
            let n_files = input.div_ceil(file_size);
            let mut created = Vec::with_capacity(n_files as usize);
            let mut failure = None;
            for f in 0..n_files {
                let sz = (input - f * file_size).min(file_size);
                let id = self.alloc_file();
                match self.dfs.create_file(id, sz) {
                    Ok(()) => created.push(id),
                    Err(e) => {
                        failure = Some(format!("input placement failed: {e}"));
                        break;
                    }
                }
            }
            if let Some(msg) = failure {
                for id in created {
                    self.dfs.delete_file(id);
                }
                self.fail_job(j, msg);
                return;
            }
            self.jobs[j].input_files = created;
        }
        let job = &mut self.jobs[j];
        job.maps_total = (input.div_ceil(block.max(1)) as u32).max(1);
        let cluster = &self.clusters[job.cluster];
        let reduce_slots = cluster.built.total_reduce_slots().max(1);
        job.reduces_total = match job.spec.profile.fixed_reduces {
            Some(r) => r.max(1),
            None => {
                let by_data = job
                    .shuffle_total
                    .div_ceil(cluster.cfg.shuffle_bytes_per_reducer.max(1));
                (by_data as u32).clamp(1, reduce_slots)
            }
        };
        job.map_tasks = (0..job.maps_total).map(|_| None).collect();
        job.reduce_tasks = (0..job.reduces_total).map(|_| None).collect();
        job.map_attempts = vec![0; job.maps_total as usize];
        job.reduce_attempts = vec![0; job.reduces_total as usize];
        job.map_failed = vec![0; job.maps_total as usize];
        job.reduce_failed = vec![0; job.reduces_total as usize];
        job.map_speculated = vec![false; job.maps_total as usize];
        job.reduce_speculated = vec![false; job.reduces_total as usize];
        job.map_done_node = vec![None; job.maps_total as usize];
        job.phase = JobPhase::Running;
        let setup = cluster.cfg.job_setup;
        self.queue.push(now + setup, Ev::SetupDone(j));
    }

    /// Ask the attached router for a deferred job's cluster, right before
    /// the rest of arrival handling reads it. The router is temporarily
    /// taken out of `self` so it can borrow the job spec.
    fn resolve_route(&mut self, j: usize, now: SimTime) {
        let mut router = self
            .router
            .take()
            .expect("routed job arrived without an attached router");
        let decision = router.route(&self.jobs[j].spec, now, !self.sinks.is_empty());
        self.router = Some(router);
        assert!(
            decision.cluster < self.clusters.len(),
            "router chose cluster {} of {}",
            decision.cluster,
            self.clusters.len()
        );
        let nodes = self.clusters[decision.cluster].built.nodes.len();
        let job = &mut self.jobs[j];
        job.cluster = decision.cluster;
        job.maps_by_node = vec![0; nodes];
        job.routed = false;
        if let Some((cat, name, args)) = decision.annotation {
            if self.telemetry_active() {
                let id = self.jobs[j].spec.id.0;
                self.emit_instant(cat, name, obs::lanes::JOBS, id, now, args);
            }
        }
    }

    /// Feed the result just pushed onto `self.results` back to the router,
    /// broadcasting any audit annotation it returns (e.g. a threshold
    /// recalibration) at the completion time.
    fn router_feedback(&mut self) {
        let Some(mut router) = self.router.take() else {
            return;
        };
        let result = self.results.last().expect("feedback follows a result");
        let (id, end) = (result.id.0, result.end);
        let annotations = router.on_complete(result);
        self.router = Some(router);
        if self.telemetry_active() {
            for (cat, name, args) in annotations {
                self.emit_instant(cat, name, obs::lanes::JOBS, id, end, args);
            }
        }
    }

    fn on_setup_done(&mut self, j: usize) {
        let (cluster, maps) = (self.jobs[j].cluster, self.jobs[j].maps_total);
        for m in 0..maps {
            self.clusters[cluster].map_queue.push(j, m);
        }
        self.try_schedule(cluster);
    }

    fn on_net_poll(&mut self, gen: u64) {
        if gen != self.net.generation().0 {
            return; // stale: membership changed since this poll was scheduled
        }
        let now = self.queue.now();
        let done = self.net.poll_completions(now);
        for fid in done {
            if self.background_flows.remove(&fid) {
                // Storage-internal traffic; no task to advance. Stamp the
                // recovery clock when the last repair flow drains (a later
                // crash can restart it).
                if self.background_flows.is_empty() {
                    self.stats.repair_done_s = Some(now.as_secs_f64());
                }
                continue;
            }
            let Some((job, kind, idx)) = self.flows.remove(&fid) else {
                // The owner was killed earlier in this same batch: a prior
                // completion finished a task, which triggered a speculative
                // (or crash) kill that already disowned this flow.
                continue;
            };
            let task = self.task_mut(job, kind, idx);
            task.outstanding -= 1;
            if task.outstanding == 0 {
                self.advance_task(job, kind, idx);
            }
        }
        self.drain_flow_spans();
        self.schedule_net_poll();
    }

    /// A step timer fired. Advance the task only if the attempt that armed
    /// the timer is still the one running — timers of killed attempts are
    /// stale and must be dropped.
    fn on_step_done(&mut self, job: usize, kind: TaskKind, idx: u32, attempt: u32) {
        let slot = match kind {
            TaskKind::Map => &self.jobs[job].map_tasks[idx as usize],
            TaskKind::Reduce => &self.jobs[job].reduce_tasks[idx as usize],
        };
        match slot {
            Some(t) if t.attempt == attempt => self.advance_task(job, kind, idx),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (machine crashes, storage brown-outs, speculation)
    // ------------------------------------------------------------------

    /// Push every in-range fault event from the plan onto the event queue.
    /// Idempotent; called once at the start of `run`. An empty plan pushes
    /// nothing, so the event stream — and therefore every result — is
    /// bitwise identical to a run without fault injection.
    fn schedule_faults(&mut self) {
        if self.faults_scheduled {
            return;
        }
        self.faults_scheduled = true;
        if self.fault_plan.is_empty() {
            return;
        }
        self.server_resources = self
            .dfs
            .server_resources()
            .into_iter()
            .map(|r| (r, self.net.resource_capacity(r)))
            .collect();
        for (i, ev) in self.fault_plan.node_events.iter().enumerate() {
            let in_range = self
                .clusters
                .get(ev.cluster)
                .is_some_and(|c| ev.node < c.built.nodes.len());
            if in_range {
                self.queue.push(ev.at, Ev::NodeFault(i));
            }
        }
        for (i, ev) in self.fault_plan.server_events.iter().enumerate() {
            if ev.server < self.server_resources.len() {
                self.queue.push(ev.at, Ev::ServerFault(i));
            }
        }
    }

    fn on_node_fault(&mut self, i: usize) {
        let ev = self.fault_plan.node_events[i];
        match ev.kind {
            NodeFaultKind::Crash => self.crash_node(ev.cluster, ev.node),
            NodeFaultKind::Recover => self.recover_node(ev.cluster, ev.node),
        }
    }

    /// A machine dies: every attempt running on it is killed and re-queued,
    /// completed map outputs stored on it are invalidated for jobs that
    /// still need their shuffle data (Hadoop re-executes those maps), its
    /// slots leave the pool, and the DFS loses whatever it stored there.
    fn crash_node(&mut self, cluster: usize, node: usize) {
        if self.clusters[cluster].node_down[node] {
            return;
        }
        self.stats.node_crashes += 1;
        if self.stats.first_crash_s.is_none() {
            self.stats.first_crash_s = Some(self.queue.now().as_secs_f64());
        }
        let mut to_kill: Vec<(usize, TaskKind, u32)> = Vec::new();
        let mut to_rerun: Vec<(usize, u32)> = Vec::new();
        for (j, job) in self.jobs.iter().enumerate() {
            if job.cluster != cluster || job.phase != JobPhase::Running {
                continue;
            }
            for (idx, t) in job.map_tasks.iter().enumerate() {
                if t.as_ref().is_some_and(|t| t.node == node) {
                    to_kill.push((j, TaskKind::Map, idx as u32));
                }
            }
            for (idx, t) in job.reduce_tasks.iter().enumerate() {
                if t.as_ref().is_some_and(|t| t.node == node) {
                    to_kill.push((j, TaskKind::Reduce, idx as u32));
                }
            }
            // Shuffle data on the dead node's store is gone. Maps must
            // re-run only while some reducer still has fetching ahead of it;
            // fetches already in flight are not restarted (the model copies
            // a partition as one aggregate flow).
            if job.shuffle_total > 0 && job.fetches_done < job.reduces_total {
                for (idx, &done_on) in job.map_done_node.iter().enumerate() {
                    if done_on == Some(node) {
                        to_rerun.push((j, idx as u32));
                    }
                }
            }
        }
        for (j, kind, idx) in to_kill {
            self.kill_attempt(j, kind, idx);
            match kind {
                TaskKind::Map => self.clusters[cluster].map_queue.push(j, idx),
                TaskKind::Reduce => self.clusters[cluster].reduce_queue.push(j, idx),
            }
        }
        for (j, idx) in to_rerun {
            self.jobs[j].map_done_node[idx as usize] = None;
            self.jobs[j].maps_done -= 1;
            self.jobs[j].maps_by_node[node] -= 1;
            self.stats.map_outputs_lost += 1;
            self.clusters[cluster].map_queue.push(j, idx);
        }
        self.clusters[cluster].node_down[node] = true;
        self.clusters[cluster].free_map[node] = 0;
        self.clusters[cluster].free_reduce[node] = 0;
        if self.telemetry_active() {
            let now = self.queue.now();
            self.emit_instant(
                "fault",
                "node_crash",
                cluster as u32,
                node as u32,
                now,
                vec![("node", ArgValue::U64(node as u64))],
            );
        }
        let node_id = self.clusters[cluster].built.nodes[node].id;
        if let Some(plan) = self.dfs.on_node_down(node_id) {
            self.launch_background(plan);
        }
        self.try_schedule(cluster);
    }

    /// The machine rejoins with its full slot complement (and an empty
    /// local store — the DFS readmits it as a placement target).
    fn recover_node(&mut self, cluster: usize, node: usize) {
        if !self.clusters[cluster].node_down[node] {
            return;
        }
        self.stats.node_recoveries += 1;
        self.clusters[cluster].node_down[node] = false;
        let (map_slots, reduce_slots) = {
            let spec = &self.clusters[cluster].built.nodes[node].spec;
            (spec.map_slots(), spec.reduce_slots())
        };
        self.clusters[cluster].free_map[node] = map_slots;
        self.clusters[cluster].free_reduce[node] = reduce_slots;
        if self.telemetry_active() {
            let now = self.queue.now();
            self.emit_instant(
                "fault",
                "node_recover",
                cluster as u32,
                node as u32,
                now,
                vec![("node", ArgValue::U64(node as u64))],
            );
        }
        let node_id = self.clusters[cluster].built.nodes[node].id;
        self.dfs.on_node_up(node_id);
        self.try_schedule(cluster);
    }

    /// A storage server's bandwidth drops to `factor` of rated capacity (or
    /// returns to it); in-flight flows re-share the new rate immediately.
    fn on_server_fault(&mut self, i: usize) {
        let now = self.queue.now();
        let ev = self.fault_plan.server_events[i];
        let (res, rated) = self.server_resources[ev.server];
        match ev.kind {
            ServerFaultKind::Degrade { factor } => {
                self.stats.server_degradations += 1;
                self.net
                    .set_resource_capacity(now, res, (rated * factor).max(1.0));
                if self.telemetry_active() {
                    self.emit_instant(
                        "fault",
                        "server_degrade",
                        obs::lanes::STORAGE,
                        ev.server as u32,
                        now,
                        vec![("factor", ArgValue::F64(factor))],
                    );
                }
            }
            ServerFaultKind::Restore => {
                self.net.set_resource_capacity(now, res, rated);
                if self.telemetry_active() {
                    self.emit_instant(
                        "fault",
                        "server_restore",
                        obs::lanes::STORAGE,
                        ev.server as u32,
                        now,
                        vec![],
                    );
                }
            }
        }
        self.schedule_net_poll();
    }

    /// Kill a running attempt (node crash or speculative restart): cancel
    /// its in-flight flows, free its slot, and forget the attempt. The
    /// caller decides whether and where the task re-runs; the stale-attempt
    /// check in [`Self::on_step_done`] swallows any timer it left behind.
    fn kill_attempt(&mut self, j: usize, kind: TaskKind, idx: u32) {
        let now = self.queue.now();
        let cluster = self.jobs[j].cluster;
        let mut owned: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, &(oj, ok, oi))| oj == j && ok == kind && oi == idx)
            .map(|(&fid, _)| fid)
            .collect();
        owned.sort_unstable(); // HashMap order is not deterministic
        for fid in owned {
            self.net.cancel_flow(now, fid);
            self.flows.remove(&fid);
        }
        let task = match kind {
            TaskKind::Map => self.jobs[j].map_tasks[idx as usize].take(),
            TaskKind::Reduce => self.jobs[j].reduce_tasks[idx as usize].take(),
        }
        .expect("killed attempt is not running");
        match kind {
            TaskKind::Map => {
                self.clusters[cluster].free_map[task.node] += 1;
                self.clusters[cluster].map_queue.task_finished(j);
                self.jobs[j].maps_by_node[task.node] -= 1;
            }
            TaskKind::Reduce => {
                self.clusters[cluster].free_reduce[task.node] += 1;
                self.clusters[cluster].reduce_queue.task_finished(j);
                self.jobs[j].parked_reduces.retain(|&r| r != idx);
                if task.fetch_done {
                    self.jobs[j].fetches_done -= 1; // the restart re-fetches
                }
            }
        }
        match kind {
            TaskKind::Map => self.clusters[cluster].running_maps -= 1,
            TaskKind::Reduce => self.clusters[cluster].running_reduces -= 1,
        }
        self.obs_task_span(j, kind, idx, cluster, &task, now, "killed");
        self.obs_sched_counters(cluster);
        self.recycle_steps(task.steps);
        self.stats.tasks_killed += 1;
        self.drain_flow_spans();
        self.schedule_net_poll();
    }

    /// Run a storage-internal recovery plan (HDFS re-replication or EC
    /// reconstruction) as background flows that contend with foreground
    /// traffic but belong to no task. Stage latencies are ignored — bytes
    /// are what contend. Per-transfer rate caps (the repair-bandwidth
    /// throttle) are honoured by the flow network.
    fn launch_background(&mut self, plan: IoPlan) {
        let now = self.queue.now();
        let kind = FlowKind::from_io(plan.kind);
        let reconstruction = kind == FlowKind::Reconstruction;
        let mut plan_bytes = 0.0;
        for stage in plan.stages {
            for t in stage.transfers {
                if reconstruction {
                    self.stats.reconstructed_bytes += t.bytes;
                } else {
                    self.stats.rereplicated_bytes += t.bytes;
                }
                plan_bytes += t.bytes;
                let fid = FlowId(self.next_flow);
                self.next_flow += 1;
                self.net.add_flow(now, fid, t.bytes, &t.path, t.rate_cap);
                self.background_flows.insert(fid);
                if self.log_flows {
                    self.flow_meta.insert(fid, (kind, None));
                }
            }
        }
        if self.telemetry_active() {
            self.emit_instant(
                "fault",
                if reconstruction {
                    "reconstruct"
                } else {
                    "re_replicate"
                },
                obs::lanes::STORAGE,
                0,
                now,
                vec![("bytes", ArgValue::F64(plan_bytes))],
            );
        }
        self.schedule_net_poll();
    }

    /// Hadoop speculative execution, job-local: when a running attempt has
    /// taken over `speculative_slowdown`× the completed-task average of its
    /// kind, kill it and re-queue the task (at most one speculative restart
    /// per task), provided a free slot exists to take the backup. Reducers
    /// parked on the map barrier are waiting, not slow, and are skipped.
    fn maybe_speculate(&mut self, j: usize) {
        let cluster = self.jobs[j].cluster;
        if !self.clusters[cluster].cfg.speculative_execution
            || self.jobs[j].phase != JobPhase::Running
        {
            return;
        }
        let slowdown = self.clusters[cluster].cfg.speculative_slowdown.max(1.0);
        let now = self.queue.now();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let job = &self.jobs[j];
            let (sum, n, tasks, speculated) = match kind {
                TaskKind::Map => (
                    job.map_dur_sum,
                    job.map_dur_n,
                    &job.map_tasks,
                    &job.map_speculated,
                ),
                TaskKind::Reduce => (
                    job.reduce_dur_sum,
                    job.reduce_dur_n,
                    &job.reduce_tasks,
                    &job.reduce_speculated,
                ),
            };
            if n == 0 {
                continue;
            }
            let threshold = slowdown * sum / n as f64;
            let mut victims: Vec<u32> = Vec::new();
            for (idx, t) in tasks.iter().enumerate() {
                let Some(t) = t else { continue };
                if speculated[idx]
                    || (kind == TaskKind::Reduce && job.parked_reduces.contains(&(idx as u32)))
                {
                    continue;
                }
                if now.since(t.started).as_secs_f64() > threshold {
                    victims.push(idx as u32);
                }
            }
            for idx in victims {
                let free: u32 = match kind {
                    TaskKind::Map => self.clusters[cluster].free_map.iter().sum(),
                    TaskKind::Reduce => self.clusters[cluster].free_reduce.iter().sum(),
                };
                if free == 0 {
                    break; // no slot for a backup; killing would only lose work
                }
                match kind {
                    TaskKind::Map => self.jobs[j].map_speculated[idx as usize] = true,
                    TaskKind::Reduce => self.jobs[j].reduce_speculated[idx as usize] = true,
                }
                self.stats.speculative_restarts += 1;
                if self.telemetry_active() {
                    let job_id = self.jobs[j].spec.id.0;
                    self.emit_instant(
                        "fault",
                        "speculative_kill",
                        obs::lanes::JOBS,
                        job_id,
                        now,
                        vec![
                            (
                                "kind",
                                ArgValue::Str(
                                    match kind {
                                        TaskKind::Map => "map",
                                        TaskKind::Reduce => "reduce",
                                    }
                                    .to_string(),
                                ),
                            ),
                            ("idx", ArgValue::U64(idx as u64)),
                        ],
                    );
                }
                self.kill_attempt(j, kind, idx);
                match kind {
                    TaskKind::Map => self.clusters[cluster].map_queue.push(j, idx),
                    TaskKind::Reduce => self.clusters[cluster].reduce_queue.push(j, idx),
                }
            }
        }
        self.try_schedule(cluster);
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Assign queued tasks to free slots until one side runs dry.
    fn try_schedule(&mut self, cluster: usize) {
        // Maps: next per the sharing policy, preferring a node that hosts
        // the task's block.
        while let Some((j, idx)) = peek_live(&mut self.clusters[cluster].map_queue, &self.jobs) {
            let c = &self.clusters[cluster];
            if !c.free_map.iter().any(|&f| f > 0) {
                break;
            }
            let node = self.pick_map_node(cluster, j, idx);
            self.clusters[cluster].map_queue.pop();
            self.start_map(j, idx, node);
        }
        // Reduces: next task to the node with most free reduce slots.
        while let Some((j, idx)) = peek_live(&mut self.clusters[cluster].reduce_queue, &self.jobs) {
            let c = &self.clusters[cluster];
            let Some(node) = max_index(&c.free_reduce) else {
                break;
            };
            self.clusters[cluster].reduce_queue.pop();
            let _ = (j, idx);
            self.start_reduce(j, idx, node);
        }
    }

    /// The node for map task `idx` of job `j`: a block host with a free
    /// slot when possible (data locality), otherwise the freest node.
    fn pick_map_node(&self, cluster: usize, j: usize, idx: u32) -> usize {
        let c = &self.clusters[cluster];
        let job = &self.jobs[j];
        if job.spec.profile.maps_read_input && !job.input_files.is_empty() {
            let (file, blk) = self.input_block(j, idx);
            let hosts = self.dfs.block_hosts(file, blk);
            for host in hosts {
                if let Some(&pos) = c.host_index.get(&host) {
                    if c.free_map[pos] > 0 {
                        return pos;
                    }
                }
            }
        }
        max_index(&c.free_map).expect("caller checked for a free map slot")
    }

    fn start_map(&mut self, j: usize, idx: u32, node: usize) {
        let now = self.queue.now();
        let cluster = self.jobs[j].cluster;
        self.clusters[cluster].free_map[node] -= 1;
        self.jobs[j].maps_by_node[node] += 1;
        if self.jobs[j].spec.profile.maps_read_input
            && !self.jobs[j].input_files.is_empty()
            // Only the first attempt counts toward the locality metric.
            && self.jobs[j].map_attempts[idx as usize] == 0
        {
            let (file, blk) = self.input_block(j, idx);
            let node_id = self.clusters[cluster].built.nodes[node].id;
            if self.dfs.block_hosts(file, blk).contains(&node_id) {
                self.jobs[j].data_local_maps += 1;
            }
        }
        if self.jobs[j].first_map_start.is_none() {
            self.jobs[j].first_map_start = Some(now);
        }
        self.jobs[j].map_start_times.push(now);
        let mut steps = self.build_map_steps(j, idx, node);
        self.jobs[j].map_attempts[idx as usize] += 1;
        let attempt = self.jobs[j].map_attempts[idx as usize];
        self.apply_straggler(j, TaskKind::Map, idx, attempt, &mut steps);
        self.maybe_inject_failure(j, &mut steps);
        self.jobs[j].map_tasks[idx as usize] = Some(Task {
            node,
            steps,
            outstanding: 0,
            started: now,
            attempt,
            fetch_done: false,
            flow_started: None,
            io_wait: SimDuration::ZERO,
            degraded_flow: false,
        });
        self.clusters[cluster].running_maps += 1;
        self.obs_sched_counters(cluster);
        self.advance_task(j, TaskKind::Map, idx);
    }

    fn start_reduce(&mut self, j: usize, idx: u32, node: usize) {
        let now = self.queue.now();
        let cluster = self.jobs[j].cluster;
        self.clusters[cluster].free_reduce[node] -= 1;
        let mut steps = self.build_reduce_steps(j, idx, node);
        self.jobs[j].reduce_attempts[idx as usize] += 1;
        let attempt = self.jobs[j].reduce_attempts[idx as usize];
        self.apply_straggler(j, TaskKind::Reduce, idx, attempt, &mut steps);
        self.maybe_inject_failure(j, &mut steps);
        self.jobs[j].reduce_tasks[idx as usize] = Some(Task {
            node,
            steps,
            outstanding: 0,
            started: now,
            attempt,
            fetch_done: false,
            flow_started: None,
            io_wait: SimDuration::ZERO,
            degraded_flow: false,
        });
        self.clusters[cluster].running_reduces += 1;
        self.obs_sched_counters(cluster);
        self.advance_task(j, TaskKind::Reduce, idx);
    }

    // ------------------------------------------------------------------
    // Step construction
    // ------------------------------------------------------------------

    fn push_plan(steps: &mut VecDeque<Step>, plan: IoPlan) {
        let kind = if plan.degraded && plan.kind == IoKind::Read {
            FlowKind::DegradedRead
        } else {
            FlowKind::from_io(plan.kind)
        };
        for stage in plan.stages {
            if !stage.latency.is_zero() {
                steps.push_back(Step::Latency(stage.latency));
            }
            if !stage.transfers.is_empty() {
                steps.push_back(Step::Flows {
                    transfers: stage.transfers,
                    kind,
                });
            }
        }
    }

    fn build_map_steps(&mut self, j: usize, idx: u32, node: usize) -> VecDeque<Step> {
        let recycled = self.fresh_steps();
        let job = &self.jobs[j];
        let cluster = &self.clusters[job.cluster];
        let profile = job.spec.profile.clone();
        let maps = job.maps_total as u64;
        let block = self.dfs.block_size();
        let block_bytes = if job.spec.input_size == 0 {
            0
        } else {
            storage::dfs::block_len(job.spec.input_size, block, idx)
        };
        let mut steps = recycled;
        steps.push_back(Step::Cpu {
            cycles: cluster.cfg.task_overhead_cycles,
        });
        if profile.maps_read_input && block_bytes > 0 {
            let (file, blk) = self.input_block(j, idx);
            let node_ref = &self.clusters[self.jobs[j].cluster].built.nodes[node];
            let plan = self.dfs.plan_read(file, blk, node_ref);
            Self::push_plan(&mut steps, plan);
        }
        steps.push_back(Step::Cpu {
            cycles: block_bytes as f64 * profile.map_cycles_per_byte,
        });
        if profile.maps_write_output {
            // TestDFSIO-style: the mapper writes its own output file
            // directly to the DFS.
            let chunk = self.jobs[j].output_total / maps;
            if chunk > 0 {
                let file = self.alloc_file();
                self.jobs[j].output_files.push(file);
                let pressure = self.jobs[j].output_total;
                let node_ref = self.clusters[self.jobs[j].cluster].built.nodes[node].clone();
                match self.dfs.plan_write(file, chunk, &node_ref, pressure) {
                    Ok(plan) => Self::push_plan(&mut steps, plan),
                    Err(e) => self.note_failure(j, format!("map output write failed: {e}")),
                }
            }
        }
        // Map-output (shuffle) write to the node's shuffle store.
        let job = &self.jobs[j];
        let shuffle_chunk = job.shuffle_total / maps;
        if shuffle_chunk > 0 {
            let node_ref = &self.clusters[job.cluster].built.nodes[node];
            steps.push_back(Step::Flows {
                transfers: Self::shuffle_transfers(node_ref, shuffle_chunk as f64, &[]),
                kind: FlowKind::ShuffleWrite,
            });
        }
        steps
    }

    fn build_reduce_steps(&mut self, j: usize, idx: u32, node: usize) -> VecDeque<Step> {
        let recycled = self.fresh_steps();
        let job = &self.jobs[j];
        let cluster = &self.clusters[job.cluster];
        let dst = &cluster.built.nodes[node];
        let profile = job.spec.profile.clone();
        let reduces = job.reduces_total as u64;
        // Partition: even split with the remainder on reducer 0.
        let base = job.shuffle_total / reduces;
        let partition = if idx == 0 {
            base + job.shuffle_total % reduces
        } else {
            base
        };
        let mut steps = recycled;
        steps.push_back(Step::Cpu {
            cycles: cluster.cfg.task_overhead_cycles,
        });
        // Fetch the partition from every node that ran maps, proportionally.
        // With slowstart, the share of the partition already produced is
        // copied concurrently with the map phase; the rest waits for the
        // last map (approximating Hadoop's pipelined copy).
        if partition > 0 && job.maps_total > 0 {
            let available_frac = if cluster.cfg.reduce_slowstart.is_some() {
                (job.maps_done as f64 / job.maps_total as f64).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let total_maps: u32 = job.maps_by_node.iter().sum();
            let build_fetch = |frac: f64| -> Vec<Transfer> {
                let mut transfers = Vec::new();
                for (src_idx, &count) in job.maps_by_node.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let src = &cluster.built.nodes[src_idx];
                    let bytes = frac * partition as f64 * count as f64 / total_maps.max(1) as f64;
                    if bytes <= 0.0 {
                        continue;
                    }
                    if src_idx == node {
                        transfers.extend(Self::shuffle_transfers(src, bytes, &[]));
                    } else {
                        transfers.extend(Self::shuffle_transfers(src, bytes, &[src.nic, dst.nic]));
                    }
                }
                transfers
            };
            steps.push_back(Step::Latency(cluster.built.fabric.node_to_node));
            if available_frac > 0.0 {
                steps.push_back(Step::Flows {
                    transfers: build_fetch(available_frac),
                    kind: FlowKind::ShuffleFetch,
                });
            }
            steps.push_back(Step::WaitMaps);
            if available_frac < 1.0 {
                steps.push_back(Step::Flows {
                    transfers: build_fetch(1.0 - available_frac),
                    kind: FlowKind::ShuffleFetch,
                });
            }
            // Heap overflow: spill the excess to the shuffle store and read
            // it back for the merge (2× the excess bytes of store traffic).
            let buffer = cluster.cfg.shuffle_buffer(profile.shuffle_input_ratio);
            if partition > buffer {
                let excess = (partition - buffer) as f64;
                steps.push_back(Step::Flows {
                    transfers: Self::shuffle_transfers(dst, 2.0 * excess, &[]),
                    kind: FlowKind::ShuffleSpill,
                });
            }
        }
        steps.push_back(Step::MarkFetchDone);
        steps.push_back(Step::Cpu {
            cycles: partition as f64 * cluster.cfg.sort_cycles_per_byte,
        });
        steps.push_back(Step::Cpu {
            cycles: partition as f64 * profile.reduce_cycles_per_byte,
        });
        if !profile.maps_write_output {
            let chunk = self.jobs[j].output_total / reduces;
            if chunk > 0 {
                let file = self.alloc_file();
                self.jobs[j].output_files.push(file);
                let pressure = self.jobs[j].output_total;
                let dst = self.clusters[self.jobs[j].cluster].built.nodes[node].clone();
                match self.dfs.plan_write(file, chunk, &dst, pressure) {
                    Ok(plan) => Self::push_plan(&mut steps, plan),
                    Err(e) => self.note_failure(j, format!("reduce output write failed: {e}")),
                }
            }
        }
        steps
    }

    // ------------------------------------------------------------------
    // Task progress
    // ------------------------------------------------------------------

    fn task_mut(&mut self, job: usize, kind: TaskKind, idx: u32) -> &mut Task {
        let slot = match kind {
            TaskKind::Map => &mut self.jobs[job].map_tasks[idx as usize],
            TaskKind::Reduce => &mut self.jobs[job].reduce_tasks[idx as usize],
        };
        slot.as_mut().expect("no such running task")
    }

    fn advance_task(&mut self, job: usize, kind: TaskKind, idx: u32) {
        let now = self.queue.now();
        let mut degraded_window = None;
        {
            // If we are resuming after a flow step, close its io-wait window.
            let task = self.task_mut(job, kind, idx);
            if let Some(t0) = task.flow_started.take() {
                let waited = now.since(t0);
                task.io_wait += waited;
                if std::mem::take(&mut task.degraded_flow) {
                    degraded_window = Some(waited);
                }
            }
        }
        if let Some(waited) = degraded_window {
            self.stats.degraded_reads += 1;
            self.stats.degraded_read_secs += waited.as_secs_f64();
            if self.telemetry_active() {
                self.emit_instant(
                    "fault",
                    "degraded_read",
                    obs::lanes::STORAGE,
                    0,
                    now,
                    vec![("secs", ArgValue::F64(waited.as_secs_f64()))],
                );
            }
        }
        loop {
            let cluster = self.jobs[job].cluster;
            let task = self.task_mut(job, kind, idx);
            let attempt = task.attempt;
            let Some(step) = task.steps.pop_front() else {
                self.task_complete(job, kind, idx);
                return;
            };
            match step {
                Step::Cpu { cycles } => {
                    let node = task.node;
                    let speed = self.clusters[cluster].built.nodes[node].spec.core_speed();
                    let dur = SimDuration::from_secs_f64(cycles / speed);
                    self.queue.push(
                        now + dur,
                        Ev::StepDone {
                            job,
                            kind,
                            idx,
                            attempt,
                        },
                    );
                    return;
                }
                Step::Latency(d) => {
                    self.queue.push(
                        now + d,
                        Ev::StepDone {
                            job,
                            kind,
                            idx,
                            attempt,
                        },
                    );
                    return;
                }
                Step::Flows {
                    transfers,
                    kind: flow_kind,
                } => {
                    if transfers.is_empty() {
                        continue;
                    }
                    let n = transfers.len() as u32;
                    let task = self.task_mut(job, kind, idx);
                    task.outstanding = n;
                    task.flow_started = Some(now);
                    task.degraded_flow = flow_kind == FlowKind::DegradedRead;
                    let job_id = self.jobs[job].spec.id.0;
                    for t in transfers {
                        let fid = FlowId(self.next_flow);
                        self.next_flow += 1;
                        self.net.add_flow(now, fid, t.bytes, &t.path, t.rate_cap);
                        self.flows.insert(fid, (job, kind, idx));
                        if self.log_flows {
                            self.flow_meta.insert(fid, (flow_kind, Some(job_id)));
                        }
                    }
                    self.schedule_net_poll();
                    return;
                }
                Step::Fail => {
                    self.task_failed(job, kind, idx);
                    return;
                }
                Step::WaitMaps => {
                    if self.jobs[job].maps_done == self.jobs[job].maps_total {
                        continue;
                    }
                    self.jobs[job].parked_reduces.push(idx);
                    return;
                }
                Step::MarkFetchDone => {
                    self.jobs[job].last_fetch_done = now;
                    self.jobs[job].fetches_done += 1;
                    self.task_mut(job, kind, idx).fetch_done = true;
                    continue;
                }
            }
        }
    }

    /// Slow this attempt's CPU steps down by the plan's straggler factor
    /// for `(job, kind, idx, attempt)`, if it drew one. Pure hash draw: no
    /// stream state is consumed, so an empty plan perturbs nothing.
    fn apply_straggler(
        &mut self,
        j: usize,
        kind: TaskKind,
        idx: u32,
        attempt: u32,
        steps: &mut VecDeque<Step>,
    ) {
        let kind_tag = match kind {
            TaskKind::Map => 0,
            TaskKind::Reduce => 1,
        };
        let factor = self.fault_plan.straggler_factor(
            self.jobs[j].spec.id.0 as u64,
            kind_tag,
            idx as u64,
            attempt as u64,
        );
        if factor > 1.0 {
            self.stats.straggler_attempts += 1;
            for s in steps.iter_mut() {
                if let Step::Cpu { cycles } = s {
                    *cycles *= factor;
                }
            }
        }
    }

    /// With probability `task_failure_prob`, cut the attempt's step list at
    /// a deterministic random point and append a [`Step::Fail`] marker.
    fn maybe_inject_failure(&mut self, j: usize, steps: &mut VecDeque<Step>) {
        let p = self.clusters[self.jobs[j].cluster].cfg.task_failure_prob;
        if p <= 0.0 || steps.is_empty() || self.rng.f64() >= p {
            return;
        }
        let cut = self.rng.range_usize(0, steps.len());
        steps.truncate(cut);
        steps.push_back(Step::Fail);
    }

    /// Queue the network's next completion, superseding every poll queued
    /// under an older generation (those could only pop as stale no-ops).
    fn schedule_net_poll(&mut self) {
        let now = self.queue.now();
        if let Some(t) = self.net.next_completion_time(now) {
            let gen = self.net.generation().0;
            self.queue.push_timer(t, gen, Ev::NetPoll { gen });
        }
    }

    // ------------------------------------------------------------------
    // Observability emission (all sites are no-ops while `sinks` is empty)
    // ------------------------------------------------------------------

    /// Sample the running-attempt counters for `cluster`.
    fn obs_sched_counters(&mut self, cluster: usize) {
        if !self.telemetry_active() {
            return;
        }
        let now = self.queue.now();
        let (rm, rr) = (
            self.clusters[cluster].running_maps,
            self.clusters[cluster].running_reduces,
        );
        for s in &mut self.sinks {
            s.counter("sched", "running_maps", cluster as u32, now, rm as f64);
            s.counter("sched", "running_reduces", cluster as u32, now, rr as f64);
        }
    }

    /// Emit the span of a finished attempt (`outcome`: "ok" / "failed" /
    /// "killed") on its node's lane.
    #[allow(clippy::too_many_arguments)]
    fn obs_task_span(
        &mut self,
        j: usize,
        kind: TaskKind,
        idx: u32,
        cluster: usize,
        task: &Task,
        now: SimTime,
        outcome: &'static str,
    ) {
        if !self.telemetry_active() {
            return;
        }
        // An attempt killed mid-transfer still owes its open io-wait window.
        let mut io_wait = task.io_wait;
        if let Some(t0) = task.flow_started {
            io_wait += now.since(t0);
        }
        // Clean completions also roll into the job-level io-wait total the
        // job span reports (matching the breakdown exporter's convention).
        if outcome == "ok" {
            self.jobs[j].io_wait_total += io_wait;
        }
        if !self.log_tasks {
            return;
        }
        let name = match kind {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        };
        let args = vec![
            ("job", ArgValue::U64(self.jobs[j].spec.id.0 as u64)),
            ("kind", ArgValue::Str(name.to_string())),
            ("idx", ArgValue::U64(idx as u64)),
            ("attempt", ArgValue::U64(task.attempt as u64)),
            ("outcome", ArgValue::Str(outcome.to_string())),
            ("io_wait", ArgValue::U64(io_wait.0)),
        ];
        self.emit_span(
            "task",
            name,
            cluster as u32,
            task.node as u32,
            task.started,
            now,
            args,
        );
    }

    /// Turn drained flow-log entries into flow spans, joining each id with
    /// the label recorded when the flow launched.
    fn drain_flow_spans(&mut self) {
        if !self.log_flows {
            return;
        }
        let entries = self.net.drain_flow_log();
        for e in entries {
            let (kind, job) = self
                .flow_meta
                .remove(&e.id)
                .map(|(k, j)| (k.label(), j))
                .unwrap_or(("flow", None));
            let mut args = vec![("bytes", ArgValue::F64(e.bytes))];
            if let Some(j) = job {
                args.push(("job", ArgValue::U64(j as u64)));
            }
            if e.cancelled {
                args.push(("cancelled", ArgValue::Bool(true)));
            }
            self.emit_span(
                "flow",
                kind,
                obs::lanes::FLOWS,
                e.id.0 as u32,
                e.started,
                e.ended,
                args,
            );
        }
    }

    fn task_complete(&mut self, j: usize, kind: TaskKind, idx: u32) {
        let now = self.queue.now();
        let cluster = self.jobs[j].cluster;
        match kind {
            TaskKind::Map => {
                let task = self.jobs[j].map_tasks[idx as usize]
                    .take()
                    .expect("map finished twice");
                self.record(j, kind, idx, cluster, &task, now);
                self.clusters[cluster].running_maps -= 1;
                self.obs_task_span(j, kind, idx, cluster, &task, now, "ok");
                self.obs_sched_counters(cluster);
                self.clusters[cluster].free_map[task.node] += 1;
                self.clusters[cluster].map_queue.task_finished(j);
                self.jobs[j].map_done_node[idx as usize] = Some(task.node);
                self.jobs[j].map_dur_sum += now.since(task.started).as_secs_f64();
                self.jobs[j].map_dur_n += 1;
                self.jobs[j].maps_done += 1;
                self.jobs[j].last_map_end = now;
                self.recycle_steps(task.steps);
                self.maybe_enqueue_reduces(j);
                if self.jobs[j].maps_done == self.jobs[j].maps_total {
                    // Resume reducers parked on the map barrier.
                    let parked = std::mem::take(&mut self.jobs[j].parked_reduces);
                    for r in parked {
                        self.advance_task(j, TaskKind::Reduce, r);
                    }
                }
            }
            TaskKind::Reduce => {
                let task = self.jobs[j].reduce_tasks[idx as usize]
                    .take()
                    .expect("reduce finished twice");
                self.record(j, kind, idx, cluster, &task, now);
                self.clusters[cluster].running_reduces -= 1;
                self.obs_task_span(j, kind, idx, cluster, &task, now, "ok");
                self.obs_sched_counters(cluster);
                self.clusters[cluster].free_reduce[task.node] += 1;
                self.clusters[cluster].reduce_queue.task_finished(j);
                self.jobs[j].reduce_dur_sum += now.since(task.started).as_secs_f64();
                self.jobs[j].reduce_dur_n += 1;
                self.jobs[j].reduces_done += 1;
                self.recycle_steps(task.steps);
                if self.jobs[j].reduces_done == self.jobs[j].reduces_total {
                    self.job_complete(j);
                }
            }
        }
        self.try_schedule(cluster);
        self.maybe_speculate(j);
    }

    /// An attempt died: release its slot and either re-enqueue the task
    /// (Hadoop retries on another attempt) or flag the job failed once the
    /// attempt budget is exhausted. Only *failed* attempts count against
    /// the budget; attempts killed by crashes or speculation do not.
    fn task_failed(&mut self, j: usize, kind: TaskKind, idx: u32) {
        let now = self.queue.now();
        let cluster = self.jobs[j].cluster;
        let max_attempts = self.clusters[cluster].cfg.task_max_attempts.max(1);
        match kind {
            TaskKind::Map => {
                let task = self.jobs[j].map_tasks[idx as usize]
                    .take()
                    .expect("failed map missing");
                self.clusters[cluster].running_maps -= 1;
                self.obs_task_span(j, kind, idx, cluster, &task, now, "failed");
                self.obs_sched_counters(cluster);
                self.clusters[cluster].free_map[task.node] += 1;
                self.clusters[cluster].map_queue.task_finished(j);
                self.jobs[j].maps_by_node[task.node] -= 1;
                self.recycle_steps(task.steps);
                self.jobs[j].map_failed[idx as usize] += 1;
                if self.jobs[j].map_failed[idx as usize] >= max_attempts {
                    self.note_failure(j, format!("map {idx} exceeded {max_attempts} attempts"));
                    // Count it done so the job can drain and report failure.
                    self.jobs[j].maps_done += 1;
                    self.jobs[j].last_map_end = self.queue.now();
                    self.maybe_enqueue_reduces(j);
                    if self.jobs[j].maps_done == self.jobs[j].maps_total {
                        // Reducers parked on the map barrier must not hang
                        // on a job whose last map failed permanently.
                        let parked = std::mem::take(&mut self.jobs[j].parked_reduces);
                        for r in parked {
                            self.advance_task(j, TaskKind::Reduce, r);
                        }
                    }
                } else {
                    self.clusters[cluster].map_queue.push(j, idx);
                }
            }
            TaskKind::Reduce => {
                let task = self.jobs[j].reduce_tasks[idx as usize]
                    .take()
                    .expect("failed reduce missing");
                self.clusters[cluster].running_reduces -= 1;
                self.obs_task_span(j, kind, idx, cluster, &task, now, "failed");
                self.obs_sched_counters(cluster);
                self.clusters[cluster].free_reduce[task.node] += 1;
                self.clusters[cluster].reduce_queue.task_finished(j);
                if task.fetch_done {
                    self.jobs[j].fetches_done -= 1; // the retry re-fetches
                }
                self.recycle_steps(task.steps);
                self.jobs[j].reduce_failed[idx as usize] += 1;
                if self.jobs[j].reduce_failed[idx as usize] >= max_attempts {
                    self.note_failure(j, format!("reduce {idx} exceeded {max_attempts} attempts"));
                    self.jobs[j].reduces_done += 1;
                    if self.jobs[j].reduces_done == self.jobs[j].reduces_total {
                        self.job_complete(j);
                    }
                } else {
                    self.clusters[cluster].reduce_queue.push(j, idx);
                }
            }
        }
        self.try_schedule(cluster);
    }

    fn record(
        &mut self,
        j: usize,
        kind: TaskKind,
        idx: u32,
        cluster: usize,
        task: &Task,
        now: SimTime,
    ) {
        if self.record_tasks {
            self.records.push(TaskRecord {
                job: self.jobs[j].spec.id,
                kind,
                idx,
                cluster,
                node: task.node,
                start: task.started,
                end: now,
            });
        }
    }

    /// Enqueue the job's reducers once the slowstart threshold (or map
    /// completion) is reached.
    fn maybe_enqueue_reduces(&mut self, j: usize) {
        if self.jobs[j].reduces_enqueued {
            return;
        }
        let cluster = self.jobs[j].cluster;
        let threshold = match self.clusters[cluster].cfg.reduce_slowstart {
            Some(f) => ((self.jobs[j].maps_total as f64 * f).ceil() as u32).max(1),
            None => self.jobs[j].maps_total,
        };
        if self.jobs[j].maps_done >= threshold {
            self.jobs[j].reduces_enqueued = true;
            for r in 0..self.jobs[j].reduces_total {
                self.clusters[cluster].reduce_queue.push(j, r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Job completion / failure
    // ------------------------------------------------------------------

    /// At end of run, emit one instant per network resource summarizing its
    /// lifetime utilization (bytes served, busy time).
    fn obs_resource_summary(&mut self) {
        if !self.telemetry_active() {
            return;
        }
        let now = self.queue.now();
        for i in 0..self.net.num_resources() {
            let r = NetResourceId(i as u32);
            let name = self.net.resource_name(r).to_string();
            let bytes = self.net.resource_bytes_served(r);
            let busy = self.net.resource_busy_time(r);
            self.emit_instant(
                "resource",
                &name,
                obs::lanes::RESOURCES,
                i as u32,
                now,
                vec![
                    ("bytes_served", ArgValue::F64(bytes)),
                    ("busy", ArgValue::U64(busy.0)),
                ],
            );
        }
    }

    /// Emit the job span and its four contiguous phase spans. Boundaries
    /// are monotonically clamped — `b0 ≤ b1 ≤ b2 ≤ b3 ≤ end` — so that
    /// `setup + map + shuffle + reduce` sums to the job's execution
    /// *exactly*, in integer ticks, even for zero-shuffle jobs where the
    /// raw `last_fetch_done` precedes `last_map_end`.
    fn obs_job_spans(&mut self, j: usize, end: SimTime) {
        if !self.telemetry_active() {
            return;
        }
        let job = &self.jobs[j];
        let id = job.spec.id.0;
        let b0 = job.spec.submit;
        let b1 = b0.max(job.first_map_start.unwrap_or(end)).min(end);
        let b2 = b1.max(job.last_map_end).min(end);
        let b3 = b2.max(job.last_fetch_done).min(end);
        let name = format!("{}#{}", job.spec.profile.name, id);
        // Shuffle/input ratio and accumulated io-wait ride on the job span
        // so streaming sinks can band and blame a job without tracking its
        // task spans (the engine already holds this state per job).
        let ratio = if job.spec.input_size > 0 {
            job.shuffle_total as f64 / job.spec.input_size as f64
        } else {
            0.0
        };
        let mut args = vec![
            ("app", ArgValue::Str(job.spec.profile.name.clone())),
            (
                "cluster",
                ArgValue::Str(self.clusters[job.cluster].built.name.clone()),
            ),
            ("maps", ArgValue::U64(job.maps_total as u64)),
            ("reduces", ArgValue::U64(job.reduces_total as u64)),
            ("input_bytes", ArgValue::U64(job.spec.input_size)),
            ("ratio", ArgValue::F64(ratio)),
            ("io_wait", ArgValue::U64(job.io_wait_total.0)),
        ];
        if let Some(msg) = job.failure.clone() {
            args.push(("failed", ArgValue::Str(msg)));
        }
        self.emit_span("job", &name, obs::lanes::JOBS, id, b0, end, args);
        let phases = [
            ("setup", b0, b1),
            ("map", b1, b2),
            ("shuffle", b2, b3),
            ("reduce", b3, end),
        ];
        for (nm, s, e) in phases {
            self.emit_span("phase", nm, obs::lanes::JOBS, id, s, e, vec![]);
        }
    }

    fn note_failure(&mut self, j: usize, msg: String) {
        let job = &mut self.jobs[j];
        if job.failure.is_none() {
            job.failure = Some(msg);
        }
    }

    fn fail_job(&mut self, j: usize, msg: String) {
        let now = self.queue.now();
        self.note_failure(j, msg);
        let job = &mut self.jobs[j];
        job.phase = JobPhase::Finished;
        let result = JobResult {
            id: job.spec.id,
            app: job.spec.profile.name.clone(),
            input_size: job.spec.input_size,
            cluster: job.cluster,
            cluster_name: self.clusters[job.cluster].built.name.clone(),
            submit: job.spec.submit,
            end: now,
            execution: now.since(job.spec.submit),
            map_phase: SimDuration::ZERO,
            shuffle_phase: SimDuration::ZERO,
            reduce_phase: SimDuration::ZERO,
            maps: 0,
            reduces: 0,
            map_waves: 0,
            data_local_maps: 0,
            failed: job.failure.clone(),
        };
        self.results.push(result);
        self.obs_job_spans(j, now);
        self.router_feedback();
    }

    fn job_complete(&mut self, j: usize) {
        let now = self.queue.now();
        let job = &mut self.jobs[j];
        job.phase = JobPhase::Finished;
        let first_map = job.first_map_start.unwrap_or(now);
        let mut starts = job.map_start_times.clone();
        starts.sort_unstable();
        starts.dedup();
        let result = JobResult {
            id: job.spec.id,
            app: job.spec.profile.name.clone(),
            input_size: job.spec.input_size,
            cluster: job.cluster,
            cluster_name: self.clusters[job.cluster].built.name.clone(),
            submit: job.spec.submit,
            end: now,
            execution: now.since(job.spec.submit),
            map_phase: job.last_map_end.since(first_map),
            shuffle_phase: job.last_fetch_done.since(job.last_map_end),
            reduce_phase: now.since(job.last_fetch_done),
            maps: job.maps_total,
            reduces: job.reduces_total,
            map_waves: starts.len() as u32,
            data_local_maps: job.data_local_maps,
            failed: job.failure.clone(),
        };
        if self.delete_files_on_completion {
            let files: Vec<FileId> = job
                .input_files
                .iter()
                .chain(job.output_files.iter())
                .copied()
                .collect();
            for f in files {
                self.dfs.delete_file(f);
            }
        }
        self.results.push(result);
        self.obs_job_spans(j, now);
        self.router_feedback();
    }
}

/// The next task of `queue` whose job is still running. A crash re-queues
/// the lost map outputs of a job whose in-flight fetches can still finish
/// it; such stale tasks are popped here (with `task_finished`, so the
/// queue's running counts stay balanced) instead of being started against
/// the finished job's deleted input.
fn peek_live(queue: &mut TaskQueue, jobs: &[JobState]) -> Option<(usize, u32)> {
    while let Some((j, idx)) = queue.peek() {
        if jobs[j].phase != JobPhase::Finished {
            return Some((j, idx));
        }
        queue.pop();
        queue.task_finished(j);
    }
    None
}

/// Index of the maximum element (first on ties) if it is positive.
fn max_index(v: &[u32]) -> Option<usize> {
    let (mut best, mut best_val) = (None, 0u32);
    for (i, &x) in v.iter().enumerate() {
        if x > best_val {
            best = Some(i);
            best_val = x;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::JobProfile;
    use cluster::{presets, ClusterSpec, FabricSpec, GB, MB};
    use storage::{HdfsConfig, HdfsModel, OfsConfig, OfsModel};

    fn out_sim(nodes: u32) -> Simulation {
        let mut net = FlowNetwork::new();
        let built =
            ClusterSpec::homogeneous("out", presets::scale_out_machine(), nodes).build(&mut net, 0);
        let dfs = HdfsModel::new(HdfsConfig::default(), &built.nodes, FabricSpec::myrinet());
        Simulation::new(net, Box::new(dfs), vec![(built, EngineConfig::scale_out())])
    }

    fn up_ofs_sim() -> Simulation {
        let mut net = FlowNetwork::new();
        let built =
            ClusterSpec::homogeneous("up", presets::scale_up_machine(), 2).build(&mut net, 0);
        let dfs = OfsModel::new(OfsConfig::default(), &mut net);
        Simulation::new(net, Box::new(dfs), vec![(built, EngineConfig::scale_up())])
    }

    fn wordcount() -> JobProfile {
        JobProfile::basic("wordcount", 1.6, 0.2)
    }

    #[test]
    fn single_small_job_completes() {
        let mut sim = out_sim(4);
        sim.submit(JobSpec::at_zero(0, wordcount(), GB), 0);
        let results = sim.run().to_vec();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.succeeded(), "failure: {:?}", r.failed);
        assert_eq!(r.maps, 8); // 1 GB / 128 MB
        assert!(r.execution.as_secs_f64() > 0.0);
        assert!(r.map_phase.as_secs_f64() > 0.0);
        assert!(r.shuffle_phase.as_secs_f64() > 0.0);
        assert!(r.reduce_phase.as_secs_f64() > 0.0);
    }

    #[test]
    fn phases_are_consistent_with_execution() {
        let mut sim = out_sim(4);
        sim.submit(JobSpec::at_zero(0, wordcount(), 2 * GB), 0);
        let r = sim.run()[0].clone();
        let phases = r.map_phase.as_secs_f64()
            + r.shuffle_phase.as_secs_f64()
            + r.reduce_phase.as_secs_f64();
        // Execution additionally includes job setup and first-map wait.
        assert!(r.execution.as_secs_f64() >= phases);
        assert!(r.execution.as_secs_f64() < phases + 10.0);
    }

    #[test]
    fn waves_emerge_from_slot_limits() {
        // 4 scale-out nodes → 24 map slots; 64 maps → ≥3 waves.
        let mut sim = out_sim(4);
        sim.submit(JobSpec::at_zero(0, wordcount(), 8 * GB), 0);
        let r = sim.run()[0].clone();
        assert_eq!(r.maps, 64);
        assert!(r.map_waves >= 3, "waves={}", r.map_waves);
    }

    #[test]
    fn small_job_runs_in_one_wave() {
        let mut sim = out_sim(12);
        sim.submit(JobSpec::at_zero(0, wordcount(), GB), 0);
        let r = sim.run()[0].clone();
        assert_eq!(r.maps, 8);
        assert_eq!(r.map_waves, 1, "8 maps fit the 72 slots in one wave");
    }

    #[test]
    fn larger_input_takes_longer() {
        let mut t = Vec::new();
        for size in [GB, 4 * GB, 16 * GB] {
            let mut sim = out_sim(12);
            sim.submit(JobSpec::at_zero(0, wordcount(), size), 0);
            t.push(sim.run()[0].execution.as_secs_f64());
        }
        assert!(t[0] < t[1] && t[1] < t[2], "{t:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = out_sim(6);
            sim.submit(JobSpec::at_zero(0, wordcount(), 3 * GB), 0);
            sim.submit(
                JobSpec {
                    id: JobId(1),
                    profile: JobProfile::basic("grep", 0.4, 0.05),
                    input_size: 2 * GB,
                    submit: SimTime::from_secs(5),
                },
                0,
            );
            sim.run().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn hdfs_capacity_failure_is_reported() {
        let mut net = FlowNetwork::new();
        let built =
            ClusterSpec::homogeneous("up", presets::scale_up_machine(), 2).build(&mut net, 0);
        let dfs = HdfsModel::new(HdfsConfig::default(), &built.nodes, FabricSpec::myrinet());
        let mut sim = Simulation::new(net, Box::new(dfs), vec![(built, EngineConfig::scale_up())]);
        sim.submit(JobSpec::at_zero(0, wordcount(), 200 * GB), 0);
        let r = sim.run()[0].clone();
        assert!(!r.succeeded());
        assert!(r.failed.as_deref().unwrap().contains("capacity"));
    }

    #[test]
    fn up_cluster_with_ofs_runs_any_size() {
        let mut sim = up_ofs_sim();
        sim.submit(JobSpec::at_zero(0, wordcount(), 16 * GB), 0);
        let r = sim.run()[0].clone();
        assert!(r.succeeded(), "failure: {:?}", r.failed);
        assert_eq!(r.maps, 128);
    }

    #[test]
    fn testdfsio_write_profile_works() {
        let profile = JobProfile {
            name: "testdfsio-write".into(),
            map_cycles_per_byte: 2.0,
            reduce_cycles_per_byte: 0.0,
            shuffle_input_ratio: 0.0,
            output_input_ratio: 1.0,
            maps_read_input: false,
            maps_write_output: true,
            fixed_reduces: Some(1),
        };
        let mut sim = up_ofs_sim();
        sim.submit(JobSpec::at_zero(0, profile, 4 * GB), 0);
        let r = sim.run()[0].clone();
        assert!(r.succeeded());
        assert_eq!(r.reduces, 1);
        // Map-intensive: the map phase dominates; the shuffle phase is just
        // the lone reducer's startup (the paper's Fig. 9c shows <8 s).
        assert!(r.map_phase > r.shuffle_phase);
        assert!(r.shuffle_phase.as_secs_f64() < 8.0);
    }

    #[test]
    fn fifo_contention_delays_second_job() {
        // A large job hogging all slots delays a small one behind it.
        let small_alone = {
            let mut sim = out_sim(2);
            sim.submit(JobSpec::at_zero(0, wordcount(), GB), 0);
            sim.run()[0].execution.as_secs_f64()
        };
        let mut sim = out_sim(2);
        sim.submit(JobSpec::at_zero(0, wordcount(), 16 * GB), 0);
        sim.submit(
            JobSpec {
                id: JobId(1),
                profile: wordcount(),
                input_size: GB,
                submit: SimTime::from_secs(1),
            },
            0,
        );
        let results = sim.run().to_vec();
        let small = results.iter().find(|r| r.id == JobId(1)).unwrap();
        assert!(
            small.execution.as_secs_f64() > 2.0 * small_alone,
            "contended {} vs alone {}",
            small.execution.as_secs_f64(),
            small_alone
        );
    }

    #[test]
    fn files_are_cleaned_up_after_completion() {
        let mut sim = out_sim(4);
        sim.submit(JobSpec::at_zero(0, wordcount(), GB), 0);
        sim.run();
        assert_eq!(sim.dfs().used_bytes(), 0, "input and output deleted");
    }

    #[test]
    fn hdfs_jobs_achieve_high_data_locality() {
        let mut sim = out_sim(4);
        sim.submit(JobSpec::at_zero(0, wordcount(), 4 * GB), 0);
        let r = sim.run()[0].clone();
        // With locality-preferring dispatch over replication-2 placement,
        // the vast majority of maps read locally.
        assert!(
            r.data_local_maps * 10 >= r.maps * 7,
            "only {}/{} maps were data-local",
            r.data_local_maps,
            r.maps
        );
    }

    #[test]
    fn remote_storage_has_no_locality() {
        let mut sim = up_ofs_sim();
        sim.submit(JobSpec::at_zero(0, wordcount(), 4 * GB), 0);
        let r = sim.run()[0].clone();
        assert_eq!(r.data_local_maps, 0, "OFS blocks are never node-local");
    }

    #[test]
    fn zero_input_job_still_completes() {
        let mut sim = out_sim(2);
        sim.submit(JobSpec::at_zero(0, wordcount(), 0), 0);
        let r = sim.run()[0].clone();
        assert!(r.succeeded());
        assert_eq!(r.maps, 1);
    }

    #[test]
    fn multi_cluster_routing_respects_assignment() {
        let mut net = FlowNetwork::new();
        let up = ClusterSpec::homogeneous("up", presets::scale_up_machine(), 2).build(&mut net, 0);
        let out =
            ClusterSpec::homogeneous("out", presets::scale_out_machine(), 12).build(&mut net, 2);
        let dfs = OfsModel::new(OfsConfig::default(), &mut net);
        let mut sim = Simulation::new(
            net,
            Box::new(dfs),
            vec![
                (up, EngineConfig::scale_up()),
                (out, EngineConfig::scale_out()),
            ],
        );
        sim.submit(JobSpec::at_zero(0, wordcount(), GB), 0);
        sim.submit(JobSpec::at_zero(1, wordcount(), GB), 1);
        let results = sim.run().to_vec();
        assert_eq!(
            results
                .iter()
                .find(|r| r.id == JobId(0))
                .unwrap()
                .cluster_name,
            "up"
        );
        assert_eq!(
            results
                .iter()
                .find(|r| r.id == JobId(1))
                .unwrap()
                .cluster_name,
            "out"
        );
    }

    #[test]
    fn more_map_slots_never_slow_a_job_down() {
        let mut small = out_sim(2);
        small.submit(JobSpec::at_zero(0, wordcount(), 8 * GB), 0);
        let t_small = small.run()[0].execution.as_secs_f64();
        let mut big = out_sim(12);
        big.submit(JobSpec::at_zero(0, wordcount(), 8 * GB), 0);
        let t_big = big.run()[0].execution.as_secs_f64();
        assert!(
            t_big <= t_small * 1.01,
            "12 nodes {t_big} vs 2 nodes {t_small}"
        );
    }

    #[test]
    fn observability_is_bitwise_neutral_and_phases_sum_exactly() {
        let run = |observe: bool| {
            let mut sim = out_sim(4);
            if observe {
                sim.enable_observability();
            }
            sim.submit(JobSpec::at_zero(0, wordcount(), 2 * GB), 0);
            let results = sim.run().to_vec();
            let rec = sim.take_observability();
            (results, rec)
        };
        let (plain, no_rec) = run(false);
        assert!(no_rec.is_none());
        let (observed, rec) = run(true);
        assert_eq!(plain, observed, "tracing must not perturb the simulation");
        let rec = rec.unwrap();
        // The four phase spans tile the job span exactly, in integer ticks.
        let job_span = rec.by_category("job").next().expect("job span");
        let phase_sum: u64 = rec.by_category("phase").map(|e| e.dur.0).sum();
        assert_eq!(phase_sum, job_span.dur.0);
        assert_eq!(job_span.dur.0, observed[0].execution.0);
        // One task span per successful attempt, all on the cluster's lanes.
        let tasks: Vec<_> = rec.by_category("task").collect();
        assert_eq!(tasks.len() as u32, observed[0].maps + observed[0].reduces);
        assert!(tasks.iter().all(|t| t.arg_str("outcome") == Some("ok")));
        // Flow spans cover reads, shuffle writes, fetches, and DFS writes.
        let flows: Vec<_> = rec.by_category("flow").collect();
        assert!(!flows.is_empty());
        for label in ["read", "shuffle-write", "shuffle-fetch", "write"] {
            assert!(
                flows.iter().any(|f| f.name == label),
                "missing {label} flow"
            );
        }
        // Byte-identical export across two identical runs.
        let (_, rec2) = run(true);
        assert_eq!(rec.chrome_trace(), rec2.unwrap().chrome_trace());
    }

    #[test]
    fn spill_penalty_applies_when_partition_exceeds_buffer() {
        // Same job, but a tiny heap forces reduce-side spills → slower.
        let run_with_heap = |heap: u64| {
            let mut net = FlowNetwork::new();
            let built =
                ClusterSpec::homogeneous("out", presets::scale_out_machine(), 4).build(&mut net, 0);
            let dfs = HdfsModel::new(HdfsConfig::default(), &built.nodes, FabricSpec::myrinet());
            let cfg = EngineConfig {
                heap_shuffle_intensive: heap,
                ..EngineConfig::scale_out()
            };
            let mut sim = Simulation::new(net, Box::new(dfs), vec![(built, cfg)]);
            sim.submit(JobSpec::at_zero(0, wordcount(), 4 * GB), 0);
            sim.run()[0].clone()
        };
        let big_heap = run_with_heap(64 * (GB / 8)); // 8 GB
        let tiny_heap = run_with_heap(64 * MB);
        assert!(
            tiny_heap.shuffle_phase > big_heap.shuffle_phase,
            "tiny {:?} vs big {:?}",
            tiny_heap.shuffle_phase,
            big_heap.shuffle_phase
        );
    }
}

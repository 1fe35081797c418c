//! The two trace-replay workloads: `replay_hybrid` and `replay_storm`.
//!
//! Both replay a seeded FB-2009 synthesis from `workload::facebook::stream`
//! at the paper's 4.8 s mean arrival gap with the sequential event loop.
//! One replay is three passes that must agree on the result digest:
//!
//! - **untraced** — `Deployment::build_with`, the library's own preload
//!   loop (reproduced here so set-up and run can be timed apart), then
//!   `Simulation::run`. The end-to-end metrics come from these passes.
//! - **traced** — the same deployment assembled from its parts, so the
//!   storage backend and the sinks can sit inside timing wrappers, with
//!   the generator and the placement policy wrapped as well.
//! - **counting** — the untraced pass plus a flow- and task-hungry sink,
//!   for the flow and task-attempt counts. It turns on flow logging, so it
//!   is never timed.

use crate::report::{self, Fnv, Report};
use crate::timing::{Clock, DfsClocks, TimedDfs, TimedIter, TimedPlacement, TimedSink};
use cluster::{FabricSpec, Node};
use hybrid_core::{Architecture, Deployment, DeploymentTuning};
use mapreduce::{EngineConfig, FaultStats, JobResult, JobSpec, Simulation};
use obs::{ArgValue, Doctor, OnlineAggregator, TelemetrySink};
use scheduler::{ClusterLoads, CrossPointScheduler, JobPlacement, Placement};
use simcore::fault::{FaultPlan, FaultRates};
use simcore::{FlowNetwork, SimDuration, SimTime};
use std::any::Any;
use std::rc::Rc;
use std::time::{Duration, Instant};
use storage::{DfsModel, DurabilityConfig, DurableModel, HdfsModel, OfsModel};
use workload::FacebookTraceConfig;

/// Jobs per `replay_hybrid` replay.
pub const HYBRID_JOBS: usize = 15_000;
/// Jobs per `replay_storm` replay.
pub const STORM_JOBS: usize = 6_000;
/// Distinct traces per run of `replay_hybrid`, each drawn from its own
/// substream of the run seed. Every run replays each at least once; the
/// simulated metrics pool them, so a tail quantile does not rest on one
/// trace's largest jobs.
pub const HYBRID_PARTS: u64 = 4;
/// Distinct traces per run of `replay_storm` (stragglers widen its tail).
pub const STORM_PARTS: u64 = 6;
/// The paper's replay: 6000 jobs over 8 hours.
const ARRIVAL_GAP_S: f64 = 4.8;
/// Racks of the storm deployment's 24 scale-out nodes.
const STORM_RACKS: u32 = 4;
/// Fault intensity of the storm plan (`FaultRates::scaled`): 1.0 is the
/// fault sweep's "bad week", where ~5 % of task attempts straggle 2-6x.
const STORM_INTENSITY: f64 = 1.0;
/// Jobs of the per-run check that this file's preload loop is the
/// library's.
const EQUIVALENCE_JOBS: usize = 400;
/// Set-up samples per run, at least (extra set-ups run without replaying).
const MIN_SETUPS: usize = 15;

/// Which replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Case {
    /// The paper's replay on the hybrid architecture.
    Hybrid,
    /// The THadoop baseline on rack-aware durable storage under a
    /// straggler storm, with speculative execution and both sinks.
    Storm,
}

/// One replay's inputs: everything is a pure function of these fields.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    pub case: Case,
    pub jobs: usize,
    pub seed: u64,
}

impl ReplaySpec {
    /// The full-size replays of `case` for run seed `seed`, one per part.
    pub fn parts(case: Case, seed: u64) -> Vec<Self> {
        let (jobs, parts) = match case {
            Case::Hybrid => (HYBRID_JOBS, HYBRID_PARTS),
            Case::Storm => (STORM_JOBS, STORM_PARTS),
        };
        (0..parts)
            .map(|part| ReplaySpec {
                case,
                jobs,
                seed: simcore::rng::derive_seed(seed, part),
            })
            .collect()
    }

    pub fn arch(&self) -> Architecture {
        match self.case {
            Case::Hybrid => Architecture::Hybrid,
            Case::Storm => Architecture::THadoop,
        }
    }

    /// The FB-2009 synthesis as Poisson arrivals at the paper's mean gap.
    /// The synthesis's optional burst model is off: with it, the arrival
    /// span of the same job count varies by ±20 % between seeds, and the
    /// makespan and tails follow that rather than the system.
    pub fn trace(&self) -> FacebookTraceConfig {
        FacebookTraceConfig {
            jobs: self.jobs,
            seed: self.seed,
            window: SimDuration::from_secs_f64(ARRIVAL_GAP_S * self.jobs as f64),
            bursts: None,
            ..Default::default()
        }
    }

    /// The deployment tuning: the paper's defaults for `Hybrid`; for
    /// `Storm`, 3x rack-aware replication over 4 racks, a seeded straggler
    /// plan, speculative execution, and both sinks.
    pub fn tuning(&self) -> DeploymentTuning {
        match self.case {
            Case::Hybrid => DeploymentTuning::default(),
            Case::Storm => {
                let mut tuning = DeploymentTuning {
                    fault: self.fault_plan(),
                    durability: Some(DurabilityConfig::default()),
                    racks: STORM_RACKS,
                    telemetry: Some(obs::TelemetryConfig::default()),
                    doctor: Some(obs::DoctorConfig::default()),
                    ..Default::default()
                };
                tuning.engine_out.speculative_execution = true;
                tuning
            }
        }
    }

    /// The storm's fault plan, drawn from the run seed: stragglers at the
    /// "bad week" rate, with node crashes (and so rack storms) withheld —
    /// the engine can start a re-queued map task after its job has
    /// completed and its input is deleted, which panics the durable
    /// backend's `plan_read` (see `METRICS.md`).
    pub fn fault_plan(&self) -> FaultPlan {
        let horizon = SimDuration::from_secs_f64(ARRIVAL_GAP_S * self.jobs as f64);
        let rates = FaultRates {
            node_crash_per_hour: 0.0,
            ..FaultRates::scaled(STORM_INTENSITY)
        };
        let n = self.arch().cluster_specs()[0].len();
        let seed = simcore::rng::derive_seed(self.seed, 0x5707);
        FaultPlan::generate(seed, &rates, horizon, &[n], 0)
    }

    /// Every input byte the program receives: the job stream and the
    /// fault plan.
    pub fn input_bytes(&self) -> Vec<u8> {
        let jobs: Vec<JobSpec> = workload::facebook::stream(&self.trace()).collect();
        let mut out = workload::facebook::to_json(&jobs).into_bytes();
        out.extend(format!("{:?}", self.tuning().fault).into_bytes());
        out
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Digest of per-job results (completion order, exec, end, failure)
    /// and the fault accounting.
    pub digest: u64,
    pub results: usize,
    pub failed: usize,
    /// Every job id of the trace has exactly one result.
    pub ids_complete: bool,
    pub makespan_s: f64,
    pub exec_s: Vec<f64>,
    pub events: u64,
    pub net_generation: u64,
    pub stats: FaultStats,
    /// The aggregator's and doctor's Prometheus text plus the doctor's
    /// incident document (storm only).
    pub exposition: Option<String>,
    pub build_s: f64,
    pub setup_s: f64,
    pub run_s: f64,
}

/// What the timing wrappers saw during one traced pass.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub wall_s: f64,
    pub gen: (u64, u64),
    pub place: (u64, u64),
    pub core_ns: u64,
    pub storage: Rc<DfsClocks>,
    pub aggregator: (u64, u64),
    pub doctor: (u64, u64),
    /// Storage and sink nanoseconds spent inside `Simulation::run`.
    pub storage_in_run_ns: u64,
    pub sinks_in_run_ns: u64,
}

/// A virtual backlog estimate for load-aware policies, as the library's
/// replay keeps it.
fn est_cost_secs(spec: &JobSpec) -> f64 {
    3.0 + spec.input_size as f64 / 500.0e6
}

/// Backlog drain rates of the scale-up and scale-out sides, proportional
/// to their slot counts.
fn drain_rates(arch: Architecture, tuning: &DeploymentTuning) -> (f64, f64) {
    let (mut up, mut out) = (0.0, 0.0);
    for spec in arch.cluster_specs_with(&tuning.up_machine, &tuning.out_machine) {
        let slots = (spec.total_map_slots() + spec.total_reduce_slots()) as f64;
        if spec.name.starts_with("scale-up") {
            up += slots;
        } else {
            out += slots;
        }
    }
    (up.max(1.0), out.max(1.0))
}

/// Annotate the sinks with one placement decision, as the library's
/// replay does whenever a sink is attached.
fn record_placement(
    dep: &mut Deployment,
    policy: &dyn JobPlacement,
    spec: &JobSpec,
    loads: &ClusterLoads,
) {
    let d = policy.explain(spec, loads);
    let mut args: Vec<(&'static str, ArgValue)> = vec![
        ("job", ArgValue::from(spec.id.0)),
        ("policy", ArgValue::from(policy.name())),
        ("band", ArgValue::from(d.band)),
        ("input_bytes", ArgValue::from(spec.input_size)),
        ("up_backlog_s", ArgValue::from(loads.up_outstanding)),
        ("out_backlog_s", ArgValue::from(loads.out_outstanding)),
        ("est_cost_s", ArgValue::from(est_cost_secs(spec))),
    ];
    if let Some(t) = d.threshold {
        args.push(("cross_point_bytes", ArgValue::from(t)));
    }
    if let Some(note) = d.note {
        args.push(("note", ArgValue::from(note)));
    }
    let name = match d.placement {
        Placement::ScaleUp => "place:scale-up",
        Placement::ScaleOut => "place:scale-out",
    };
    dep.sim.annotate_instant(
        "placement",
        name,
        obs::lanes::JOBS,
        spec.id.0,
        spec.submit,
        args,
    );
}

/// Route and submit every job before the first event, exactly as
/// `hybrid_core::run_trace_streaming_with` does. `core` times the
/// `Deployment::submit_placed` calls.
fn preload(
    dep: &mut Deployment,
    jobs: impl Iterator<Item = JobSpec>,
    policy: &dyn JobPlacement,
    drains: (f64, f64),
    core: Option<&Clock>,
) {
    let mut loads = ClusterLoads::default();
    let mut t_prev = 0.0f64;
    for spec in jobs {
        let t = spec.submit.as_secs_f64();
        let dt = (t - t_prev).max(0.0);
        t_prev = t;
        loads.up_outstanding = (loads.up_outstanding - dt * drains.0).max(0.0);
        loads.out_outstanding = (loads.out_outstanding - dt * drains.1).max(0.0);
        let placement = policy.place(&spec, &loads);
        if dep.sim.telemetry_active() {
            record_placement(dep, policy, &spec, &loads);
        }
        match placement {
            Placement::ScaleUp => loads.up_outstanding += est_cost_secs(&spec),
            Placement::ScaleOut => loads.out_outstanding += est_cost_secs(&spec),
        }
        match core {
            Some(clock) => clock.time(|| dep.submit_placed(spec, placement)),
            None => dep.submit_placed(spec, placement),
        }
    }
}

/// Fold the results of a finished simulation into a [`PassOut`].
fn collect(jobs: usize, sim: &mut Simulation) -> PassOut {
    let results: &[JobResult] = sim.results();
    let stats = sim.fault_stats().clone();
    let mut seen = vec![false; jobs];
    let mut ids_complete = results.len() == jobs;
    for r in results {
        match seen.get_mut(r.id.0 as usize) {
            Some(s) if !*s => *s = true,
            _ => ids_complete = false,
        }
    }
    let makespan = results.iter().map(|r| r.end.since(SimTime::ZERO)).max();
    let mut exec_s: Vec<f64> = results
        .iter()
        .filter(|r| r.succeeded())
        .map(|r| r.execution.as_secs_f64())
        .collect();
    exec_s.sort_by(f64::total_cmp);
    let mut out = PassOut {
        digest: digest_of(results, &stats),
        results: results.len(),
        failed: results.iter().filter(|r| !r.succeeded()).count(),
        ids_complete,
        makespan_s: makespan.unwrap_or(SimDuration::ZERO).as_secs_f64(),
        exec_s,
        events: sim.events_processed(),
        net_generation: sim.network().generation().0,
        stats,
        ..Default::default()
    };
    let agg = sim.take_sink::<OnlineAggregator>();
    let doctor = sim.take_sink::<Doctor>();
    if let (Some(agg), Some(doctor)) = (agg, doctor) {
        out.exposition = Some(exposition(&agg, &doctor));
    }
    out
}

/// The untraced pass: the library's `Deployment::build_with`, the preload
/// loop, then the run, each timed as a whole. With `run = false` it stops
/// after set-up (a set-up sample).
pub fn untraced(spec: &ReplaySpec, run: bool) -> PassOut {
    let tuning = spec.tuning();
    let policy = CrossPointScheduler::default();
    let drains = drain_rates(spec.arch(), &tuning);
    let t0 = Instant::now();
    let mut dep = Deployment::build_with(spec.arch(), &tuning);
    let build_s = t0.elapsed().as_secs_f64();
    preload(
        &mut dep,
        workload::facebook::stream(&spec.trace()),
        &policy,
        drains,
        None,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    if !run {
        return PassOut {
            build_s,
            setup_s,
            ..Default::default()
        };
    }
    let t1 = Instant::now();
    dep.sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    PassOut {
        build_s,
        setup_s,
        run_s,
        ..collect(spec.jobs, &mut dep.sim)
    }
}

/// Assemble `arch` from its parts as `Deployment::build_with` does, with
/// the storage backend and every sink inside timing wrappers.
fn build_wrapped(
    arch: Architecture,
    tuning: &DeploymentTuning,
    storage: Rc<DfsClocks>,
    aggregator: Rc<Clock>,
    doctor: Rc<Clock>,
) -> Deployment {
    let mut net = FlowNetwork::new();
    let mut specs = arch.cluster_specs_with(&tuning.up_machine, &tuning.out_machine);
    if tuning.racks > 1 {
        for s in &mut specs {
            s.racks = tuning.racks;
        }
    }
    let mut built = Vec::new();
    let mut first_id = 0u32;
    for s in &specs {
        let b = s.build(&mut net, first_id);
        first_id += b.nodes.len() as u32;
        built.push(b);
    }
    let all_nodes: Vec<Node> = built.iter().flat_map(|b| b.nodes.iter().cloned()).collect();
    let dfs: Box<dyn DfsModel> = match &tuning.durability {
        Some(cfg) => Box::new(DurableModel::new(
            cfg.clone(),
            &all_nodes,
            FabricSpec::myrinet(),
        )),
        None if arch.storage_name() == "hdfs" => Box::new(HdfsModel::new(
            tuning.hdfs.clone(),
            &all_nodes,
            FabricSpec::myrinet(),
        )),
        None => Box::new(OfsModel::new(tuning.ofs.clone(), &mut net)),
    };
    let clusters: Vec<(cluster::BuiltCluster, EngineConfig)> = built
        .into_iter()
        .map(|b| {
            let cfg = if b.name == "scale-up" {
                tuning.engine_up.clone()
            } else {
                tuning.engine_out.clone()
            };
            (b, cfg)
        })
        .collect();
    let (up_cluster, out_cluster) = match arch {
        Architecture::Hybrid => (Some(0), Some(1)),
        Architecture::UpOfs | Architecture::UpHdfs => (Some(0), None),
        _ => (None, Some(0)),
    };
    let dfs = Box::new(TimedDfs {
        inner: dfs,
        clocks: storage,
    });
    let mut sim = Simulation::new(net, dfs, clusters);
    if tuning.retain_files {
        sim.delete_files_on_completion = false;
    }
    if !tuning.fault.is_empty() {
        sim.set_fault_plan(tuning.fault.clone());
    }
    if let Some(cfg) = &tuning.telemetry {
        sim.attach_sink(Box::new(TimedSink {
            inner: OnlineAggregator::new(cfg.clone()),
            clock: aggregator,
        }));
    }
    if let Some(cfg) = &tuning.doctor {
        sim.attach_sink(Box::new(TimedSink {
            inner: Doctor::new(cfg.clone()),
            clock: doctor,
        }));
    }
    Deployment {
        sim,
        arch,
        up_cluster,
        out_cluster,
    }
}

/// The traced pass: every layer boundary inside a timing wrapper.
pub fn traced(spec: &ReplaySpec) -> (PassOut, LayerTimes) {
    let tuning = spec.tuning();
    let policy = CrossPointScheduler::default();
    let drains = drain_rates(spec.arch(), &tuning);
    let (gen, place, core) = (Clock::default(), Clock::default(), Clock::default());
    let storage = Rc::new(DfsClocks::default());
    let aggregator = Rc::new(Clock::default());
    let doctor = Rc::new(Clock::default());
    let sinks_ns = || aggregator.ns() + doctor.ns();

    let t0 = Instant::now();
    let mut dep = core.time(|| {
        build_wrapped(
            spec.arch(),
            &tuning,
            storage.clone(),
            aggregator.clone(),
            doctor.clone(),
        )
    });
    let jobs = TimedIter {
        inner: workload::facebook::stream(&spec.trace()),
        clock: &gen,
    };
    let timed_policy = TimedPlacement {
        inner: &policy,
        clock: &place,
    };
    preload(&mut dep, jobs, &timed_policy, drains, Some(&core));
    let setup_s = t0.elapsed().as_secs_f64();
    let (storage0, sinks0) = (storage.total_ns(), sinks_ns());
    let t1 = Instant::now();
    dep.sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let times = LayerTimes {
        wall_s,
        gen: (gen.ns(), gen.calls()),
        place: (place.ns(), place.calls()),
        core_ns: core.ns(),
        storage_in_run_ns: storage.total_ns() - storage0,
        sinks_in_run_ns: sinks_ns() - sinks0,
        aggregator: (aggregator.ns(), aggregator.calls()),
        doctor: (doctor.ns(), doctor.calls()),
        storage,
    };
    let out = PassOut {
        setup_s,
        run_s,
        ..collect(spec.jobs, &mut dep.sim)
    };
    (out, times)
}

/// Counts that need flow and task spans; collected by [`counting`].
#[derive(Debug, Default)]
pub struct FlowCounts {
    pub task_attempts: u64,
    pub flows: u64,
    /// Mean, over flow arrivals, of the live flows right after the arrival.
    pub live_mean: f64,
    pub live_max: u64,
}

/// A sink that wants every flow and task span and counts them.
#[derive(Default)]
struct CountingSink {
    tasks: u64,
    starts: Vec<u64>,
    ends: Vec<u64>,
}

impl TelemetrySink for CountingSink {
    fn span(
        &mut self,
        cat: &'static str,
        _name: &str,
        _pid: u32,
        _tid: u32,
        start: SimTime,
        end: SimTime,
        _args: &[(&'static str, ArgValue)],
    ) {
        match cat {
            "task" => self.tasks += 1,
            "flow" => {
                self.starts.push(start.0);
                self.ends.push(end.0);
            }
            _ => {}
        }
    }

    fn instant(
        &mut self,
        _: &'static str,
        _: &str,
        _: u32,
        _: u32,
        _: SimTime,
        _: &[(&'static str, ArgValue)],
    ) {
    }

    fn counter(&mut self, _: &'static str, _: &'static str, _: u32, _: SimTime, _: f64) {}

    fn name_process(&mut self, _: u32, _: &str) {}

    fn wants_flows(&self) -> bool {
        true
    }

    fn wants_tasks(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl CountingSink {
    fn counts(mut self) -> FlowCounts {
        self.starts.sort_unstable();
        self.ends.sort_unstable();
        let (mut ended, mut sum, mut max) = (0usize, 0u64, 0u64);
        for (i, &s) in self.starts.iter().enumerate() {
            while ended < self.ends.len() && self.ends[ended] < s {
                ended += 1;
            }
            let live = (i + 1 - ended.min(i + 1)) as u64;
            sum += live;
            max = max.max(live);
        }
        let flows = self.starts.len() as u64;
        FlowCounts {
            task_attempts: self.tasks,
            flows,
            live_mean: if flows == 0 {
                0.0
            } else {
                sum as f64 / flows as f64
            },
            live_max: max,
        }
    }
}

/// The counting pass: the untraced deployment with [`CountingSink`]
/// attached.
pub fn counting(spec: &ReplaySpec) -> (PassOut, FlowCounts) {
    let tuning = spec.tuning();
    let mut dep = Deployment::build_with(spec.arch(), &tuning);
    dep.sim.attach_sink(Box::new(CountingSink::default()));
    let drains = drain_rates(spec.arch(), &tuning);
    preload(
        &mut dep,
        workload::facebook::stream(&spec.trace()),
        &CrossPointScheduler::default(),
        drains,
        None,
    );
    dep.sim.run();
    let sink = dep
        .sim
        .take_sink::<CountingSink>()
        .expect("the counting sink was attached");
    // Its flow spans reached the other sinks too, so only the results are
    // comparable with the other passes.
    let out = collect(spec.jobs, &mut dep.sim);
    (
        PassOut {
            exposition: None,
            ..out
        },
        sink.counts(),
    )
}

/// The result digest and expositions of the library's own replay of
/// `spec` (`hybrid_core::run_trace_streaming_with`), in [`collect`]'s terms.
pub fn library_replay(spec: &ReplaySpec) -> (u64, Option<String>) {
    let outcome = hybrid_core::run_trace_streaming_with(
        spec.arch(),
        &CrossPointScheduler::default(),
        workload::facebook::stream(&spec.trace()),
        &spec.tuning(),
    );
    let exposition = match (&outcome.telemetry, &outcome.doctor) {
        (Some(agg), Some(doctor)) => Some(exposition(agg, doctor)),
        _ => None,
    };
    (
        digest_of(&outcome.results, &outcome.fault_stats),
        exposition,
    )
}

/// The storm's observable output: both sinks' Prometheus text and the
/// doctor's incident document.
fn exposition(agg: &OnlineAggregator, doctor: &Doctor) -> String {
    agg.render_prometheus() + &doctor.render_prometheus() + &doctor.render_incidents_json()
}

/// Digest of per-job results (completion order, id, side, exec, end,
/// failure), the makespan and the fault accounting.
fn digest_of(results: &[JobResult], stats: &FaultStats) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        h.u64(r.id.0 as u64);
        h.u64(r.execution.0);
        h.u64(r.end.0);
        h.u64(r.cluster as u64);
        h.bytes(r.failed.as_deref().unwrap_or("").as_bytes());
    }
    for x in [
        stats.node_crashes,
        stats.node_recoveries,
        stats.tasks_killed,
        stats.map_outputs_lost,
        stats.straggler_attempts,
        stats.speculative_restarts,
        stats.degraded_reads,
        stats.rereplicated_bytes.to_bits(),
        stats.reconstructed_bytes.to_bits(),
    ] {
        h.u64(x);
    }
    let makespan = results.iter().map(|r| r.end.0).max().unwrap_or(0);
    h.u64(makespan);
    h.finish()
}

/// Run one replay workload for `seconds` and fill `report`.
///
/// Untraced runs cycle the untraced pass through the traces of every part
/// until the time is up (each at least once) and report the end-to-end
/// metrics. Traced runs alternate untraced and traced passes the same way,
/// then make one counting pass (and, on `replay_hybrid`, the flow-network
/// probe), and report the per-layer metrics.
pub fn run(case: Case, seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let parts = ReplaySpec::parts(case, seed);

    // This file's preload loop must be the library's replay, byte for byte.
    let small = ReplaySpec {
        jobs: EQUIVALENCE_JOBS,
        ..parts[0].clone()
    };
    let (lib_digest, lib_expo) = library_replay(&small);
    let ours = untraced(&small, true);
    report.check(
        ours.digest == lib_digest && ours.exposition == lib_expo,
        "the benchmark's replay loop differs from hybrid_core::run_trace_streaming_with",
    );

    let deadline = Instant::now() + Duration::from_secs(seconds);
    // `plain[i]` and `timed[i]` replay part `i % parts.len()`.
    let mut plain: Vec<PassOut> = Vec::new();
    let mut timed: Vec<(PassOut, LayerTimes)> = Vec::new();
    while plain.len() < parts.len() || Instant::now() < deadline {
        let spec = &parts[plain.len() % parts.len()];
        plain.push(untraced(spec, true));
        if trace {
            timed.push(traced(spec));
        }
    }
    let mut setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    let mut builds: Vec<f64> = plain.iter().map(|p| p.build_s).collect();
    while setups.len() < MIN_SETUPS {
        let p = untraced(&parts[setups.len() % parts.len()], false);
        setups.push(p.setup_s);
        builds.push(p.build_s);
    }
    let peak_rss = report::peak_rss_mb("self").unwrap_or(0.0);

    let jobs = parts[0].jobs;
    let all = || plain.iter().chain(timed.iter().map(|(p, _)| p));
    report.attempted += all().count() as u64 * jobs as u64;
    report.failed += all().map(|p| p.failed as u64).sum::<u64>();
    let firsts = &plain[..parts.len()];
    for (i, p) in plain.iter().enumerate() {
        let reference = &firsts[i % parts.len()];
        report.check(p.ids_complete, "a submitted job has no result, or two");
        report.check(
            p.digest == reference.digest,
            "a pass gave a different result digest",
        );
        report.check(
            p.exposition == reference.exposition,
            "the expositions differ between passes",
        );
    }
    for (i, (p, _)) in timed.iter().enumerate() {
        let reference = &firsts[i % parts.len()];
        report.check(
            p.digest == reference.digest,
            "the traced pass gave a different result digest",
        );
        report.check(
            p.exposition == reference.exposition,
            "the traced pass changed the expositions (timing wrappers must pass through)",
        );
    }

    let jobs_per_s: Vec<f64> = plain.iter().map(|p| jobs as f64 / p.run_s).collect();
    let exec: Vec<f64> = firsts
        .iter()
        .flat_map(|p| p.exec_s.iter().copied())
        .collect();
    let makespans: Vec<f64> = firsts.iter().map(|p| p.makespan_s).collect();
    report.set("jobs_per_s", report::median(&jobs_per_s));
    report.set("setup_s", report::median(&setups));
    report.set("peak_rss_mb", peak_rss);
    report.set(
        "sim_makespan_s",
        makespans.iter().sum::<f64>() / makespans.len() as f64,
    );
    report.set("sim_exec_p50_s", report::quantile(&exec, 0.5));
    report.set("sim_exec_p99_s", report::quantile(&exec, 0.99));
    let failed: Vec<String> = firsts.iter().map(|p| p.failed.to_string()).collect();
    println!(
        "# {} traces of {jobs} jobs; {} untraced replays; {} set-up samples; failed jobs per trace: {}",
        parts.len(),
        plain.len(),
        setups.len(),
        failed.join(" ")
    );
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.run_s)).collect();
    println!("# untraced run walls (s): {}", walls.join(" "));
    if case == Case::Storm {
        let s = &firsts[0].stats;
        println!(
            "# faults in trace 0: {} stragglers, {} tasks killed, {} speculative restarts",
            s.straggler_attempts, s.tasks_killed, s.speculative_restarts,
        );
    }
    if !trace {
        return;
    }

    let (counted, counts) = counting(&parts[0]);
    report.check(
        counted.digest == firsts[0].digest,
        "the counting pass gave a different result digest",
    );
    report.attempted += jobs as u64;
    report.failed += counted.failed as u64;
    layer_metrics(&firsts[0], &timed, &counts, &builds, &jobs_per_s, report);
    if case == Case::Hybrid {
        let template = Deployment::build(Architecture::Hybrid);
        let net = template.sim.network();
        let mean = counts.live_mean.round().max(1.0) as usize;
        let max = (counts.live_max as usize).max(mean);
        report.set(
            "simcore.flownet_ns_per_op_mean_live",
            crate::probe::flownet_ns_per_op(net, mean, seed),
        );
        report.set(
            "simcore.flownet_ns_per_op_max_live",
            crate::probe::flownet_ns_per_op(net, max, seed),
        );
    }
}

/// Per-layer metrics from the traced passes: walls and per-call times
/// are medians across them; counts are exact and come from trace 0.
fn layer_metrics(
    first: &PassOut,
    timed: &[(PassOut, LayerTimes)],
    counts: &FlowCounts,
    builds: &[f64],
    jobs_per_s: &[f64],
    report: &mut Report,
) {
    let med = |f: &dyn Fn(&PassOut, &LayerTimes) -> f64| -> f64 {
        report::median(&timed.iter().map(|(p, t)| f(p, t)).collect::<Vec<_>>())
    };
    let ns = 1e-9;
    let jobs = first.results as f64;
    let run_self = |p: &PassOut, t: &LayerTimes| {
        p.run_s - (t.storage_in_run_ns + t.sinks_in_run_ns) as f64 * ns
    };
    let sinks_ns = |t: &LayerTimes| (t.aggregator.0 + t.doctor.0) as f64;
    let self_sum = |p: &PassOut, t: &LayerTimes| {
        (t.gen.0 + t.place.0 + t.core_ns + t.storage.total_ns()) as f64 * ns
            + sinks_ns(t) * ns
            + run_self(p, t)
    };
    let per_call = |(n, calls): (u64, u64)| {
        if calls == 0 {
            0.0
        } else {
            n as f64 / calls as f64
        }
    };

    report.set(
        "workload.gen_ns_per_job",
        med(&|_, t| t.gen.0 as f64 / jobs),
    );
    report.set("workload.self_s", med(&|_, t| t.gen.0 as f64 * ns));
    report.set(
        "scheduler.place_ns_per_job",
        med(&|_, t| t.place.0 as f64 / jobs),
    );
    report.set("scheduler.self_s", med(&|_, t| t.place.0 as f64 * ns));
    report.set("core.build_ms", report::median(builds) * 1e3);
    report.set("core.self_s", med(&|_, t| t.core_ns as f64 * ns));
    report.set("mapreduce.run_self_s", med(&run_self));
    report.set("mapreduce.events", first.events as f64);
    report.set(
        "mapreduce.ns_per_event",
        med(&|p, t| run_self(p, t) / ns / p.events.max(1) as f64),
    );
    report.set("mapreduce.task_attempts", counts.task_attempts as f64);
    report.set(
        "mapreduce.speculative_restarts",
        first.stats.speculative_restarts as f64,
    );
    report.set("mapreduce.tasks_killed", first.stats.tasks_killed as f64);
    report.set("simcore.flows", counts.flows as f64);
    report.set("simcore.live_flows_mean", counts.live_mean);
    report.set("simcore.live_flows_max", counts.live_max as f64);
    report.set("simcore.net_generations", first.net_generation as f64);
    let st = |t: &LayerTimes| t.storage.clone();
    let t0 = &timed[0].1;
    report.set("storage.plan_read_calls", st(t0).read.calls() as f64);
    report.set(
        "storage.plan_read_ns",
        med(&|_, t| st(t).read.ns_per_call()),
    );
    report.set("storage.plan_write_calls", st(t0).write.calls() as f64);
    report.set(
        "storage.plan_write_ns",
        med(&|_, t| st(t).write.ns_per_call()),
    );
    report.set(
        "storage.block_hosts_ns",
        med(&|_, t| st(t).hosts.ns_per_call()),
    );
    report.set("storage.repair_plans", st(t0).repair_plans.get() as f64);
    report.set(
        "storage.repair_plan_ns",
        med(&|_, t| st(t).node_down.ns_per_call()),
    );
    report.set("storage.self_s", med(&|_, t| st(t).total_ns() as f64 * ns));
    report.set("storage.degraded_reads", first.stats.degraded_reads as f64);
    report.set(
        "storage.repair_gb",
        (first.stats.rereplicated_bytes + first.stats.reconstructed_bytes) / 1e9,
    );
    report.set("obs.sink_calls", (t0.aggregator.1 + t0.doctor.1) as f64);
    report.set(
        "obs.aggregator_ns_per_call",
        med(&|_, t| per_call(t.aggregator)),
    );
    report.set("obs.doctor_ns_per_call", med(&|_, t| per_call(t.doctor)));
    report.set("obs.self_s", med(&|_, t| sinks_ns(t) * ns));
    report.set(
        "obs.sink_share",
        med(&|p, t| t.sinks_in_run_ns as f64 * ns / p.run_s),
    );
    report.set("trace.wall_s", med(&|_, t| t.wall_s));
    report.set(
        "trace.residual_share",
        med(&|p, t| (t.wall_s - self_sum(p, t)) / t.wall_s),
    );
    let traced_jobs_per_s: Vec<f64> = timed.iter().map(|(p, _)| jobs / p.run_s).collect();
    report.set(
        "trace.overhead",
        report::median(&traced_jobs_per_s) / report::median(jobs_per_s),
    );
}

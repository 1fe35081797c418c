//! Emit the self-profiling reports consumed by the perf-regression gate.
//!
//! Times a fixed set of simulator workloads and writes one
//! `hybrid-hadoop-bench/v1` JSON report per suite (`BENCH_engine.json`,
//! `BENCH_sweep.json`, `BENCH_trace.json`) for `bench_diff` to compare
//! against the baselines committed under `crates/bench/baselines/`.
//!
//! Each suite mixes wall-clock timings (unit `"s"`, machine-dependent) with
//! simulated metrics (units `"sim_s"` / `"events"`) that are exact on any
//! machine — so even a loose cross-machine threshold catches behavioral
//! slowdowns. Quick mode (`--quick` or `BENCH_QUICK=1`) shrinks inputs for
//! CI; reports are only comparable within the same mode (the suite name
//! records it).
//!
//! Every wall is the median of its samples (at least five in quick mode),
//! and every overhead ratio divides the medians of an interleaved A/B pair
//! (A B A B …), so both sides see the same host drift.

use bench::profile::{BenchReport, Better};
use hybrid_hadoop::hybrid_core::{run_trace_streaming_with, run_trace_with};
use hybrid_hadoop::mapreduce::TaskSchedPolicy;
use hybrid_hadoop::prelude::*;

fn observed_batch(sizes: &[u64]) -> TraceOutcome {
    let trace: Vec<JobSpec> = sizes
        .iter()
        .enumerate()
        .map(|(i, &sz)| {
            let mut spec = JobSpec::at_zero(i as u32, apps::wordcount(), sz);
            spec.submit = SimTime::ZERO + SimDuration::from_secs(20 * i as u64);
            spec
        })
        .collect();
    let tuning = DeploymentTuning {
        observe: true,
        ..Default::default()
    };
    run_trace_with(
        Architecture::Hybrid,
        &CrossPointScheduler::default(),
        &trace,
        &tuning,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());
    let mode = if quick { "quick" } else { "full" };
    let iters = 5;
    const GB: u64 = 1 << 30;

    // --- engine suite: single-job runs and the observability layer -------
    let mut engine = BenchReport::new(format!("engine-{mode}"));

    let size = if quick { GB } else { 4 * GB };
    let wall = bench::bench("engine/out_hdfs_wordcount", iters, || {
        run_job(Architecture::OutHdfs, &apps::wordcount(), size)
    });
    engine.push("engine/out_hdfs_wordcount_wall", wall, "s", Better::Lower);
    let r = run_job(Architecture::OutHdfs, &apps::wordcount(), size);
    engine.push(
        "engine/out_hdfs_wordcount_sim",
        r.execution.as_secs_f64(),
        "sim_s",
        Better::Lower,
    );

    let wall = bench::bench("engine/hybrid_grep", iters, || {
        run_job(Architecture::Hybrid, &apps::grep(), size)
    });
    engine.push("engine/hybrid_grep_wall", wall, "s", Better::Lower);

    let batch: Vec<u64> = if quick {
        vec![GB / 2, GB, 2 * GB]
    } else {
        vec![GB / 2, 2 * GB, 8 * GB, 16 * GB, 32 * GB]
    };
    let wall = bench::bench("engine/observed_batch", iters, || observed_batch(&batch));
    let outcome = observed_batch(&batch);
    let recorder = outcome
        .recorder
        .as_deref()
        .expect("observed run records a trace");
    engine.push("engine/observed_batch_wall", wall, "s", Better::Lower);
    engine.push(
        "engine/observed_batch_makespan",
        outcome.makespan.as_secs_f64(),
        "sim_s",
        Better::Lower,
    );
    engine.push(
        "engine/observed_batch_events",
        recorder.len() as f64,
        "events",
        Better::Lower,
    );

    // Queue-policy decision throughput: a saturated backlog pushed through
    // the capacity policy's pick/enqueue path with one-slot bottlenecks —
    // every release is a policy decision over a deep queue, the regime
    // where a linear-scan policy would go quadratic in backlog depth.
    let decisions = if quick { 5_000u32 } else { 50_000 };
    let policy_jobs: Vec<hybrid_hadoop::scheduler::TenantJob> = (0..decisions)
        .map(|i| hybrid_hadoop::scheduler::TenantJob {
            spec: JobSpec::at_zero(i, apps::wordcount(), GB / 2),
            tenant: TenantId(i % 16),
        })
        .collect();
    let policy_table = {
        let model = TenantModelConfig {
            tenants: 16,
            ..Default::default()
        };
        tenant_table(&model)
    };
    let policy_cfg = TenantSchedConfig {
        slots_up: 1,
        slots_out: 1,
        ..Default::default()
    };
    let wall = bench::bench("sched/policy_decision", iters, || {
        let d = hybrid_hadoop::scheduler::TenantDispatcher::new(
            policy_table.clone(),
            policy_cfg.clone(),
            PolicyKind::Capacity.build(&policy_table),
        );
        d.run(policy_jobs.iter().cloned())
    });
    engine.push("sched/policy_decision_wall", wall, "s", Better::Lower);
    engine.push(
        "sched/policy_decisions_per_s",
        decisions as f64 / wall,
        "jobs/s",
        Better::Higher,
    );

    // Serving-path probes: the route_serve hot path. `route_decision_p99`
    // is the p99 per-decision wall over 256-job `route_batch` calls — the
    // CI gate pins it sub-microsecond (`--max sched/route_decision_p99=1e-6`),
    // so a regression that makes the serving path allocate or rescan shows
    // up as a hard failure, not a relative drift.
    let route_jobs = if quick { 20_000usize } else { 200_000 };
    const ROUTE_BATCH: usize = 256;
    let route_specs: Vec<JobSpec> = (0..route_jobs)
        .map(|i| {
            let ratio = [0.1, 0.7, 1.6][i % 3];
            let size = 1u64 << (20 + (i % 16));
            JobSpec::at_zero(i as u32, JobProfile::basic("route-bench", ratio, 1.0), size)
        })
        .collect();
    let mut router = AdaptiveScheduler::default();
    let mut per_decision: Vec<f64> = Vec::with_capacity(route_jobs / ROUTE_BATCH + 1);
    let route_t0 = std::time::Instant::now();
    for chunk in route_specs.chunks(ROUTE_BATCH) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(router.route_batch(chunk.iter()));
        per_decision.push(t0.elapsed().as_secs_f64() / chunk.len() as f64);
    }
    let route_wall = route_t0.elapsed().as_secs_f64();
    per_decision.sort_by(|a, b| a.total_cmp(b));
    let p99 = per_decision[((per_decision.len() - 1) as f64 * 0.99) as usize];
    engine.push("sched/route_decision_p99", p99, "s", Better::Lower);
    engine.push(
        "sched/route_decisions_per_s",
        route_jobs as f64 / route_wall,
        "jobs/s",
        Better::Higher,
    );

    // Repair-plan throughput: a rack storm against the durable storage
    // model in isolation — preload a dataset under 3x rack-aware
    // replication, then crash all six nodes of rack 1 and time the
    // namenode-side planning of every re-replication copy. The gated
    // ratio is bytes of repair traffic planned per wall second; the byte
    // count itself is deterministic, so it doubles as a semantic gate on
    // the placement/repair rules.
    let repair_files = if quick { 48u32 } else { 192 };
    let storm_repair = || {
        use hybrid_hadoop::cluster::{presets, ClusterSpec, FabricSpec};
        use hybrid_hadoop::simcore::FlowNetwork;
        use hybrid_hadoop::storage::{
            DfsModel, DurabilityConfig, DurableModel, FileId, RedundancyScheme,
        };
        let mut net = FlowNetwork::new();
        let built = ClusterSpec::homogeneous("out", presets::scale_out_machine(), 24)
            .with_racks(4)
            .build(&mut net, 0);
        let mut fs = DurableModel::new(
            DurabilityConfig {
                scheme: RedundancyScheme::Replicated { factor: 3 },
                ..Default::default()
            },
            &built.nodes,
            FabricSpec::myrinet(),
        );
        for i in 0..repair_files {
            fs.create_file(FileId(i as u64), GB).expect("dataset fits");
        }
        let mut bytes = 0.0f64;
        for node in built.nodes.iter().filter(|n| n.rack == 1) {
            if let Some(plan) = fs.on_node_down(node.id) {
                bytes += plan
                    .stages
                    .iter()
                    .flat_map(|s| s.transfers.iter())
                    .map(|t| t.bytes)
                    .sum::<f64>();
            }
        }
        bytes
    };
    let wall = bench::bench("storage/repair_plan", iters, storm_repair);
    let repair_bytes = storm_repair();
    engine.push("storage/repair_plan_wall", wall, "s", Better::Lower);
    engine.push(
        "storage/repair_throughput",
        repair_bytes / wall,
        "B/s",
        Better::Higher,
    );
    engine.push(
        "storage/repair_plan_bytes",
        repair_bytes,
        "bytes",
        Better::Lower,
    );

    // Snapshot round-trip with full windows (the worst-case document):
    // every band at its 512-observation cap plus a recalibration history.
    let mut warm = AdaptiveScheduler::default();
    for i in 0..(3 * 512usize) {
        let ratio = [0.1, 0.7, 1.6][i % 3];
        let size = 1u64 << (24 + (i % 10));
        warm.observe(size, ratio, i % 2 == 0, 10.0 + (i % 97) as f64);
    }
    let wall = bench::bench("sched/snapshot_roundtrip", iters, || {
        let doc = hybrid_hadoop::scheduler::snapshot::save(&warm);
        hybrid_hadoop::scheduler::snapshot::restore(&doc).expect("a saved snapshot restores")
    });
    engine.push("sched/snapshot_roundtrip_wall", wall, "s", Better::Lower);

    // --- sweep suite: parallel grids and trace replay ---------------------
    let mut sweep_report = BenchReport::new(format!("sweep-{mode}"));

    let grid: Vec<u64> = if quick {
        vec![GB, 4 * GB]
    } else {
        vec![GB, 4 * GB, 16 * GB, 64 * GB]
    };
    let wall = bench::bench("sweep/cross_point_grid", iters, || {
        cross_point_sweep(&apps::grep(), &grid)
    });
    sweep_report.push("sweep/cross_point_grid_wall", wall, "s", Better::Lower);

    let jobs = if quick { 30 } else { 120 };
    let cfg = FacebookTraceConfig {
        jobs,
        window: SimDuration::from_secs(jobs as u64 * 12),
        ..Default::default()
    };
    let trace = generate_facebook_trace(&cfg);
    let policy = CrossPointScheduler::default();
    let wall = bench::bench("sweep/fb_replay", iters, || {
        run_trace(Architecture::Hybrid, &policy, &trace)
    });
    let outcome = run_trace(Architecture::Hybrid, &policy, &trace);
    sweep_report.push("sweep/fb_replay_wall", wall, "s", Better::Lower);
    sweep_report.push(
        "sweep/fb_replay_makespan",
        outcome.makespan.as_secs_f64(),
        "sim_s",
        Better::Lower,
    );

    // --- trace suite: replay throughput under sustained backlog -----------
    let mut trace_report = BenchReport::new(format!("trace-{mode}"));

    // An arrival window of jobs/2 seconds overloads both sub-clusters for
    // the whole replay, and Fair scheduling keeps every queued job in the
    // dispatch path — the regime where per-dispatch scans used to make the
    // replay quadratic in trace length.
    let jobs = if quick { 3000 } else { 100_000 };
    let cfg = FacebookTraceConfig {
        jobs,
        window: SimDuration::from_secs(jobs as u64 / 2),
        ..Default::default()
    };
    let mut fair = DeploymentTuning::default();
    fair.engine_up.task_sched = TaskSchedPolicy::Fair;
    fair.engine_out.task_sched = TaskSchedPolicy::Fair;
    let policy = CrossPointScheduler::default();
    let trace = generate_facebook_trace(&cfg);
    let replay_iters = if quick { 5 } else { 1 };
    let replay = || run_trace_with(Architecture::Hybrid, &policy, &trace, &fair);

    // Telemetry overhead probe: the same replay with the bounded-memory
    // OnlineAggregator attached, interleaved with the plain replay. The
    // gated entry is the on/off ratio of median walls — stable across
    // machines, so the regression threshold bites on the aggregator's
    // overhead, not the host's speed.
    let mut with_metrics = fair.clone();
    with_metrics.telemetry = Some(hybrid_hadoop::obs::TelemetryConfig::default());
    let last = std::cell::RefCell::new(None);
    let (wall, metrics_wall) = bench::bench_pair(
        ["trace/replay", "trace/replay_metrics_on"],
        replay_iters,
        replay,
        || {
            *last.borrow_mut() = Some(run_trace_with(
                Architecture::Hybrid,
                &policy,
                &trace,
                &with_metrics,
            ));
        },
    );
    trace_report.push("trace/replay_wall", wall, "s", Better::Lower);
    trace_report.push(
        "trace/replay_jobs_per_s",
        jobs as f64 / wall,
        "jobs/s",
        Better::Higher,
    );

    // Streamed replay: the generator feeds the replay loop through a
    // bounded window, so the peak count of materialized `JobSpec`s — the
    // memory proxy — stays at the window size however long the trace is.
    const WINDOW: usize = 1024;
    let peak = std::cell::Cell::new(0usize);
    let mut stream = hybrid_hadoop::workload::facebook::stream(&cfg);
    let mut buf = std::collections::VecDeque::new();
    let outcome = run_trace_streaming_with(
        Architecture::Hybrid,
        &policy,
        std::iter::from_fn(|| {
            if buf.is_empty() {
                buf.extend(stream.next_chunk(WINDOW));
                peak.set(peak.get().max(buf.len()));
            }
            buf.pop_front()
        }),
        &fair,
    );
    trace_report.push(
        "trace/stream_peak_specs",
        peak.get() as f64,
        "specs",
        Better::Lower,
    );
    trace_report.push(
        "trace/replay_makespan",
        outcome.makespan.as_secs_f64(),
        "sim_s",
        Better::Lower,
    );
    trace_report.push(
        "trace/replay_completed",
        outcome.results.len() as f64,
        "jobs",
        Better::Higher,
    );

    let observed = last.into_inner().expect("bench ran at least once");
    let agg = observed
        .telemetry
        .as_deref()
        .expect("telemetry was requested");
    trace_report.push(
        "trace/replay_metrics_wall",
        metrics_wall,
        "s",
        Better::Lower,
    );
    trace_report.push(
        "trace/metrics_overhead",
        metrics_wall / wall,
        "x",
        Better::Lower,
    );
    trace_report.push(
        "trace/telemetry_events",
        agg.events_seen() as f64,
        "events",
        Better::Lower,
    );

    // Doctor overhead probe: the same observed replay with the anomaly
    // detectors folded in on top of the aggregator, interleaved with the
    // aggregator alone. The gated entry is the (doctor+metrics)/(metrics)
    // ratio of median walls — the doctor rides the same event stream the
    // aggregator already walks, so the ceiling pins its incremental cost
    // (per-key log-histograms, burn-rate windows, the flight-recorder
    // ring) rather than the cost of observing at all.
    let mut with_doctor = with_metrics.clone();
    with_doctor.doctor = Some(hybrid_hadoop::obs::DoctorConfig::default());
    let last = std::cell::RefCell::new(None);
    let (metrics_base, doctor_wall) = bench::bench_pair(
        ["trace/replay_metrics_on", "trace/replay_doctor_on"],
        replay_iters,
        || run_trace_with(Architecture::Hybrid, &policy, &trace, &with_metrics),
        || {
            *last.borrow_mut() = Some(run_trace_with(
                Architecture::Hybrid,
                &policy,
                &trace,
                &with_doctor,
            ));
        },
    );
    let doctored = last.into_inner().expect("bench ran at least once");
    let doc = doctored.doctor.as_deref().expect("doctor was requested");
    trace_report.push("trace/replay_doctor_wall", doctor_wall, "s", Better::Lower);
    trace_report.push(
        "obs/doctor_overhead",
        doctor_wall / metrics_base,
        "x",
        Better::Lower,
    );
    trace_report.push(
        "obs/doctor_events",
        doc.events() as f64,
        "events",
        Better::Lower,
    );

    // Closed-loop overhead probe: the same replay routed through the
    // adaptive scheduler (sliding-window estimators + periodic
    // recalibration) instead of the frozen thresholds, interleaved with the
    // static replay. Gated as the adaptive/static ratio of median walls for
    // the same cross-machine stability as the telemetry probe; the loop's
    // bookkeeping must stay cheap.
    let (static_wall, adaptive_wall) = bench::bench_pair(
        ["trace/replay", "trace/replay_adaptive"],
        replay_iters,
        replay,
        || {
            hybrid_hadoop::hybrid_core::run_trace_adaptive_with(
                Architecture::Hybrid,
                AdaptiveScheduler::default(),
                &trace,
                &fair,
            )
        },
    );
    trace_report.push(
        "trace/replay_adaptive_wall",
        adaptive_wall,
        "s",
        Better::Lower,
    );
    trace_report.push(
        "trace/adaptive_overhead",
        adaptive_wall / static_wall,
        "x",
        Better::Lower,
    );

    // Windowed parallel-replay probe: the same overloaded replay through
    // the conservative time-window executor, interleaved with the
    // sequential loop. The gated entry is the windowed/sequential ratio of
    // median walls — cross-machine-stable, so the
    // threshold bites on the executor's bookkeeping (drain, classify,
    // safe-prefix scan), not the host's core count: on a 1-core runner the
    // ratio records pure overhead (> 1), on many cores the classification
    // fan-out pulls it down. The batched-event count is exact on any
    // machine at any thread count — it regresses only if the classifier or
    // the safe-prefix rule loses batching opportunities.
    let windowed_threads = hybrid_hadoop::parsweep::default_threads().max(2);
    let mut windowed = fair.clone();
    windowed.replay = ReplayParallelism::windowed(windowed_threads);
    let last = std::cell::RefCell::new(None);
    let (sequential_wall, windowed_wall) = bench::bench_pair(
        ["trace/replay", "trace/replay_windowed"],
        replay_iters,
        replay,
        || {
            *last.borrow_mut() = Some(run_trace_with(
                Architecture::Hybrid,
                &policy,
                &trace,
                &windowed,
            ));
        },
    );
    let out = last.into_inner().expect("windowed replay ran");
    assert_eq!(
        out.makespan, outcome.makespan,
        "windowed replay must reproduce the sequential makespan"
    );
    trace_report.push(
        "trace/replay_windowed_wall",
        windowed_wall,
        "s",
        Better::Lower,
    );
    trace_report.push(
        "trace/replay_windowed_jobs_per_s",
        jobs as f64 / windowed_wall,
        "jobs/s",
        Better::Higher,
    );
    trace_report.push(
        "trace/windowed_overhead",
        windowed_wall / sequential_wall,
        "x",
        Better::Lower,
    );
    trace_report.push(
        "trace/windowed_batched_events",
        out.parallel.batched_events as f64,
        "events",
        Better::Higher,
    );

    // Multi-tenant dispatch + replay probe: the Zipf × diurnal × MMPP
    // tenant model pushed through the capacity-queue dispatcher (tight
    // slots, preemption live) and then replayed through the adaptive
    // router — the tenant_sweep cell shape. The preemption count is exact
    // on any machine, so it gates the dispatcher's semantics, not just
    // its speed.
    let tenant_jobs = if quick { 2_000 } else { 20_000 };
    let tenant_model = TenantModelConfig {
        jobs: tenant_jobs,
        window: SimDuration::from_secs(tenant_jobs as u64 * 3),
        ..Default::default()
    };
    let tenant_sched = TenantSchedConfig {
        slots_up: 3,
        slots_out: 3,
        ..Default::default()
    };
    let last = std::cell::RefCell::new(None);
    let tenant_wall = bench::bench("trace/tenant_replay", replay_iters, || {
        *last.borrow_mut() = Some(hybrid_hadoop::hybrid_core::run_trace_tenants_with(
            Architecture::Hybrid,
            tenant_table(&tenant_model),
            tenant_sched.clone(),
            PolicyKind::Capacity,
            AdaptiveScheduler::default(),
            stream_tenant_trace(&tenant_model),
            &DeploymentTuning::default(),
        ));
    });
    let tenant_out = last.into_inner().expect("tenant replay ran");
    trace_report.push("trace/tenant_replay_wall", tenant_wall, "s", Better::Lower);
    trace_report.push(
        "trace/tenant_replay_jobs_per_s",
        tenant_jobs as f64 / tenant_wall,
        "jobs/s",
        Better::Higher,
    );
    trace_report.push(
        "trace/tenant_preemptions",
        tenant_out.dispatch.stats.preemptions as f64,
        "events",
        Better::Lower,
    );

    // Erasure-coding overhead probe: the same THadoop slice replayed on
    // the default HDFS model and on the durable EC(6+3) backend (racked,
    // inputs retained, no faults), interleaved. The gated entry is the
    // EC/plain ratio of median walls — machine-stable like the other on/off
    // ratios — pinning the
    // cost of group placement, parity write fan-out, and the degraded-read
    // machinery sitting idle on the healthy path.
    let ec_jobs = if quick { 300 } else { 2_000 };
    let ec_cfg = FacebookTraceConfig {
        jobs: ec_jobs,
        window: SimDuration::from_secs(ec_jobs as u64 * 6),
        shrink_factor: 4.0,
        ..Default::default()
    };
    let ec_trace = generate_facebook_trace(&ec_cfg);
    let ec_tuning = DeploymentTuning {
        durability: Some(hybrid_hadoop::storage::DurabilityConfig {
            scheme: hybrid_hadoop::storage::RedundancyScheme::ErasureCoded { k: 6, m: 3 },
            ..Default::default()
        }),
        racks: 4,
        retain_files: true,
        ..Default::default()
    };
    let (plain_wall, ec_wall) = bench::bench_pair(
        ["trace/thadoop_plain_replay", "trace/thadoop_ec_replay"],
        replay_iters,
        || {
            run_trace_with(
                Architecture::THadoop,
                &AlwaysOut,
                &ec_trace,
                &DeploymentTuning::default(),
            )
        },
        || run_trace_with(Architecture::THadoop, &AlwaysOut, &ec_trace, &ec_tuning),
    );
    trace_report.push("trace/ec_replay_wall", ec_wall, "s", Better::Lower);
    trace_report.push(
        "trace/ec_overhead",
        ec_wall / plain_wall,
        "x",
        Better::Lower,
    );

    // Million-job scale spec (full mode only — ~4 min of wall on one
    // core): the streaming generator feeds the windowed executor end to
    // end, the regime the CI scale-smoke caps.
    if !quick {
        let cfg_1m = FacebookTraceConfig {
            jobs: 1_000_000,
            window: SimDuration::from_secs_f64(4.8 * 1_000_000.0),
            ..Default::default()
        };
        let tuning_1m = DeploymentTuning {
            replay: ReplayParallelism::windowed(windowed_threads),
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let out = run_trace_streaming_with(
            Architecture::Hybrid,
            &policy,
            hybrid_hadoop::workload::facebook::stream(&cfg_1m),
            &tuning_1m,
        );
        let wall_1m = start.elapsed().as_secs_f64();
        assert_eq!(out.results.len(), 1_000_000, "million-job replay completes");
        trace_report.push("trace/windowed_1m_wall", wall_1m, "s", Better::Lower);
        trace_report.push(
            "trace/windowed_1m_jobs_per_s",
            1_000_000.0 / wall_1m,
            "jobs/s",
            Better::Higher,
        );
    }

    for (file, report) in [
        ("BENCH_engine.json", &engine),
        ("BENCH_sweep.json", &sweep_report),
        ("BENCH_trace.json", &trace_report),
    ] {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "wrote {path} ({} entries, {mode} mode)",
            report.entries.len()
        );
    }
}

//! Full-stack properties of the fault-injection subsystem: determinism,
//! termination under arbitrary fault schedules, bitwise neutrality of the
//! empty plan, and the durability layer's rack-storm goldens (pinned
//! across sequential and windowed replay).

use hybrid_hadoop::prelude::*;
use scheduler::JobPlacement;
use simcore::fault::{FaultPlan, FaultRates};
use simcore::{SimDuration, SimTime};
use storage::{DurabilityConfig, RedundancyScheme};

fn small_trace(jobs: usize) -> Vec<JobSpec> {
    let cfg = FacebookTraceConfig {
        jobs,
        window: SimDuration::from_secs(jobs as u64 * 12),
        ..Default::default()
    };
    generate_facebook_trace(&cfg)
}

fn plan_for(arch: Architecture, seed: u64, intensity: f64) -> FaultPlan {
    let nodes: Vec<usize> = arch.cluster_specs().iter().map(|s| s.len()).collect();
    let n_servers = match arch.storage_name() {
        "ofs" => storage::OfsConfig::default().num_servers as usize,
        _ => 0,
    };
    FaultPlan::generate(
        seed,
        &FaultRates::scaled(intensity),
        SimDuration::from_secs(2 * 3600),
        &nodes,
        n_servers,
    )
}

fn replay(arch: Architecture, trace: &[JobSpec], tuning: &DeploymentTuning) -> TraceOutcome {
    let crosspoint = CrossPointScheduler::default();
    let always_out = AlwaysOut;
    let policy: &dyn JobPlacement = match arch {
        Architecture::Hybrid => &crosspoint,
        _ => &always_out,
    };
    hybrid_core::run_trace_with(arch, policy, trace, tuning)
}

/// Same seed, same plan ⇒ identical job results and identical fault
/// accounting, bit for bit.
#[test]
fn same_plan_is_bitwise_reproducible() {
    let trace = small_trace(40);
    for arch in Architecture::TRACE_CONTENDERS {
        let tuning = DeploymentTuning {
            fault: plan_for(arch, 7, 20.0),
            ..Default::default()
        };
        let a = replay(arch, &trace, &tuning);
        let b = replay(arch, &trace, &tuning);
        assert_eq!(a.results, b.results, "{}", arch.name());
        assert_eq!(a.fault_stats, b.fault_stats, "{}", arch.name());
        assert_eq!(a.makespan, b.makespan, "{}", arch.name());
    }
}

/// Different fault seeds draw different schedules (the subsystem is not
/// degenerately constant).
#[test]
fn different_seeds_draw_different_schedules() {
    let a = plan_for(Architecture::THadoop, 1, 20.0);
    let b = plan_for(Architecture::THadoop, 2, 20.0);
    assert!(!a.node_events.is_empty());
    assert_ne!(a.node_events, b.node_events);
}

/// Every job terminates — as a success or an accounted failure — under any
/// fault schedule, across seeds and intensities. `run()` itself
/// debug-asserts full drainage; here we check the ledger adds up.
#[test]
fn every_job_terminates_under_any_fault_schedule() {
    let trace = small_trace(30);
    for seed in [0u64, 1, 2] {
        for intensity in [5.0, 40.0, 150.0] {
            for arch in Architecture::TRACE_CONTENDERS {
                let mut tuning = DeploymentTuning {
                    fault: plan_for(arch, seed, intensity),
                    ..Default::default()
                };
                tuning.engine_up.speculative_execution = true;
                tuning.engine_out.speculative_execution = true;
                let out = replay(arch, &trace, &tuning);
                assert_eq!(
                    out.results.len(),
                    trace.len(),
                    "{} seed {seed} intensity {intensity}: every submitted job must report",
                    arch.name()
                );
                let succeeded = out.results.iter().filter(|r| r.succeeded()).count();
                assert_eq!(
                    succeeded + out.failures(),
                    trace.len(),
                    "succeeded + failed must cover the trace"
                );
                // Crash/recovery accounting is consistent: recoveries never
                // exceed crashes, and nothing is counted without a schedule.
                let s = &out.fault_stats;
                assert!(s.node_recoveries <= s.node_crashes);
                if tuning.fault.node_events.is_empty() {
                    assert_eq!(s.node_crashes, 0);
                }
            }
        }
    }
}

/// An explicitly-set empty plan is bitwise identical to never touching the
/// fault API at all — fault injection is pay-for-what-you-use.
#[test]
fn empty_plan_is_bitwise_identical_to_no_fault_api() {
    let trace = small_trace(40);
    for arch in Architecture::TRACE_CONTENDERS {
        let untouched = replay(arch, &trace, &DeploymentTuning::default());
        let empty = replay(
            arch,
            &trace,
            &DeploymentTuning {
                fault: FaultPlan::empty(),
                ..Default::default()
            },
        );
        assert_eq!(untouched.results, empty.results, "{}", arch.name());
        assert_eq!(untouched.fault_stats, empty.fault_stats);
        assert_eq!(untouched.fault_stats, mapreduce::FaultStats::default());
    }
}

/// Node crashes actually cost time: a faulted replay never beats the
/// fault-free one on makespan, and the hybrid's OFS storage never pays the
/// HDFS re-replication bill.
#[test]
fn faults_cost_time_and_storage_asymmetry_holds() {
    let trace = small_trace(40);
    for arch in Architecture::TRACE_CONTENDERS {
        let clean = replay(arch, &trace, &DeploymentTuning::default());
        let tuning = DeploymentTuning {
            fault: plan_for(arch, 3, 60.0),
            ..Default::default()
        };
        let faulted = replay(arch, &trace, &tuning);
        assert!(faulted.fault_stats.node_crashes > 0, "{}", arch.name());
        assert!(
            faulted.makespan >= clean.makespan,
            "{}: faulted {:?} vs clean {:?}",
            arch.name(),
            faulted.makespan,
            clean.makespan
        );
        if arch.storage_name() == "ofs" {
            assert_eq!(
                faulted.fault_stats.rereplicated_bytes, 0.0,
                "OFS survives compute-node loss without data movement"
            );
        }
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// FNV-1a over every observable field of an outcome, including the full
/// fault/durability ledger — the same shape as `golden_replay_scale.rs`
/// plus the repair accounting the durability grid reads.
fn fingerprint(out: &TraceOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_u64(&mut h, out.results.len() as u64);
    for r in &out.results {
        fnv_u64(&mut h, r.id.0 as u64);
        fnv(&mut h, r.app.as_bytes());
        fnv_u64(&mut h, r.input_size);
        fnv_u64(&mut h, r.cluster as u64);
        fnv_u64(&mut h, r.submit.since(SimTime::ZERO).0);
        fnv_u64(&mut h, r.end.since(SimTime::ZERO).0);
        fnv_u64(&mut h, r.execution.0);
        fnv_u64(&mut h, r.map_phase.0);
        fnv_u64(&mut h, r.shuffle_phase.0);
        fnv_u64(&mut h, r.reduce_phase.0);
        fnv_u64(&mut h, r.maps as u64);
        fnv_u64(&mut h, r.data_local_maps as u64);
        fnv_u64(&mut h, u64::from(r.failed.is_some()));
    }
    fnv_u64(&mut h, out.makespan.0);
    let s = &out.fault_stats;
    fnv_u64(&mut h, s.node_crashes);
    fnv_u64(&mut h, s.node_recoveries);
    fnv_u64(&mut h, s.tasks_killed);
    fnv_u64(&mut h, s.degraded_reads);
    fnv_u64(&mut h, s.degraded_read_secs.to_bits());
    fnv_u64(&mut h, s.rereplicated_bytes.to_bits());
    fnv_u64(&mut h, s.reconstructed_bytes.to_bits());
    fnv_u64(&mut h, s.first_crash_s.unwrap_or(-1.0).to_bits());
    fnv_u64(&mut h, s.repair_done_s.unwrap_or(-1.0).to_bits());
    h
}

/// One rack-storm cell of the durability grid: EC(6+3) on the racked
/// THadoop baseline, all of rack 1 out from 300 s for 900 s, inputs
/// retained so the storm hits a resident dataset.
fn rack_storm_outcome(threads: Option<usize>) -> TraceOutcome {
    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs: 40,
        window: SimDuration::from_secs(600),
        shrink_factor: 4.0,
        ..Default::default()
    });
    let racks = 4u32;
    let n = Architecture::THadoop.cluster_specs()[0].len();
    let rack_one: Vec<(usize, usize)> = (0..n)
        .filter(|&i| i * racks as usize / n == 1)
        .map(|i| (0usize, i))
        .collect();
    let mut tuning = DeploymentTuning {
        fault: FaultPlan::empty().with_outage(
            SimTime::from_secs(300),
            SimDuration::from_secs(900),
            &rack_one,
        ),
        durability: Some(DurabilityConfig {
            scheme: RedundancyScheme::ErasureCoded { k: 6, m: 3 },
            ..Default::default()
        }),
        racks,
        retain_files: true,
        replay: threads.map(ReplayParallelism::windowed).unwrap_or_default(),
        ..Default::default()
    };
    tuning.engine_out.speculative_execution = true;
    hybrid_core::run_trace_with(Architecture::THadoop, &AlwaysOut, &trace, &tuning)
}

/// The rack-storm golden: the full durability ledger — degraded reads,
/// reconstruction bytes, recovery stamps, per-job results — fingerprints
/// to one pinned constant under the sequential executor and under
/// windowed replay at 1, 2, and 8 threads. Regenerate deliberately with
/// `--nocapture` on a change you can explain.
#[test]
fn rack_storm_golden_is_pinned_across_thread_counts() {
    let seq = rack_storm_outcome(None);
    let s = &seq.fault_stats;
    assert_eq!(s.node_crashes, 6, "all of rack 1 crashes");
    assert_eq!(s.node_recoveries, 6);
    assert!(s.degraded_reads > 0, "storm must degrade reads");
    assert!(s.reconstructed_bytes > 0.0, "EC repair must run");
    assert_eq!(s.rereplicated_bytes, 0.0, "no replication traffic under EC");
    assert!(s.first_crash_s.is_some() && s.repair_done_s.is_some());

    let golden = fingerprint(&seq);
    println!("rack-storm golden: {golden:#018x}");
    assert_eq!(golden, RACK_STORM_GOLDEN);
    for threads in [1usize, 2, 8] {
        let par = rack_storm_outcome(Some(threads));
        assert_eq!(
            fingerprint(&par),
            RACK_STORM_GOLDEN,
            "@{threads} threads: rack-storm replay diverged from sequential"
        );
    }
}

const RACK_STORM_GOLDEN: u64 = 0xfca9_c7f4_1e20_f794;

/// Fingerprint in the exact shape `golden_replay_scale.rs` pins (with an
/// empty Chrome export), so a constant can be compared across the files.
fn fingerprint_plain(out: &TraceOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_u64(&mut h, out.results.len() as u64);
    for r in &out.results {
        fnv_u64(&mut h, r.id.0 as u64);
        fnv(&mut h, r.app.as_bytes());
        fnv_u64(&mut h, r.input_size);
        fnv_u64(&mut h, r.cluster as u64);
        fnv(&mut h, r.cluster_name.as_bytes());
        fnv_u64(&mut h, r.submit.since(SimTime::ZERO).0);
        fnv_u64(&mut h, r.end.since(SimTime::ZERO).0);
        fnv_u64(&mut h, r.execution.0);
        fnv_u64(&mut h, r.map_phase.0);
        fnv_u64(&mut h, r.shuffle_phase.0);
        fnv_u64(&mut h, r.reduce_phase.0);
        fnv_u64(&mut h, r.maps as u64);
        fnv_u64(&mut h, r.reduces as u64);
        fnv_u64(&mut h, r.map_waves as u64);
        fnv_u64(&mut h, r.data_local_maps as u64);
        match &r.failed {
            None => fnv_u64(&mut h, 0),
            Some(msg) => {
                fnv_u64(&mut h, 1);
                fnv(&mut h, msg.as_bytes());
            }
        }
    }
    for v in &out.up_class_exec {
        fnv_u64(&mut h, v.to_bits());
    }
    for v in &out.out_class_exec {
        fnv_u64(&mut h, v.to_bits());
    }
    fnv_u64(&mut h, out.makespan.0);
    h
}

/// The pass-through invariant: with the durability subsystem compiled in
/// but *not enabled* — `durability: None`, default single-rack topology,
/// inputs deleted on completion, empty fault plan — a 10k-job hybrid
/// replay still produces the exact constant `golden_replay_scale.rs` pins
/// for the plain engine. The new storage layer, the rack plumbing, and the
/// retained-files knob are all pay-for-what-you-use down to the bit.
#[test]
fn no_fault_run_with_durability_plumbing_matches_the_plain_10k_golden() {
    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs: 10_000,
        window: SimDuration::from_secs(10_000 * 12),
        ..Default::default()
    });
    let tuning = DeploymentTuning {
        fault: FaultPlan::empty(),
        durability: None,
        retain_files: false,
        ..Default::default()
    };
    let out = hybrid_core::run_trace_with(
        Architecture::Hybrid,
        &CrossPointScheduler::default(),
        &trace,
        &tuning,
    );
    assert_eq!(out.results.len(), 10_000);
    assert_eq!(fingerprint_plain(&out), 0x1e9c_66c1_7625_167b);
    assert_eq!(out.fault_stats, mapreduce::FaultStats::default());
}

/// Straggler injection slows tasks without killing jobs: with straggler-only
/// rates every job still succeeds and the straggler counter advances.
#[test]
fn stragglers_slow_but_do_not_fail() {
    let trace = small_trace(30);
    let rates = FaultRates {
        straggler_prob: 0.3,
        ..FaultRates::none()
    };
    let plan = FaultPlan::generate(11, &rates, SimDuration::from_secs(3600), &[24], 0);
    let tuning = DeploymentTuning {
        fault: plan,
        ..Default::default()
    };
    let out = replay(Architecture::RHadoop, &trace, &tuning);
    assert_eq!(out.failures(), 0);
    assert!(out.fault_stats.straggler_attempts > 0);
    assert_eq!(out.fault_stats.node_crashes, 0);
}

/// A crash re-queues the lost maps of a job whose reducer fetches are
/// already in flight; those fetches can still finish the job and delete its
/// input. The stale maps must be dropped at dispatch instead of starting
/// and reading a deleted file (the durable backend panicked with
/// `unknown file` here). The case: an 8000-job FB-2009 stream (seed 4) on
/// racked THadoop with 3x rack-aware durable replication and a seeded crash
/// plan, whose first such crash comes about 3100 simulated seconds in; its
/// first 1200 jobs cover it. The replay runs to completion, every job
/// reports exactly once, and map outputs were really lost along the way.
#[test]
fn maps_requeued_by_a_crash_are_dropped_once_their_job_finishes() {
    let jobs = 1200;
    let window = SimDuration::from_secs(38_400);
    let cfg = FacebookTraceConfig {
        jobs: 8000,
        seed: 4,
        window,
        ..Default::default()
    };
    let tuning = DeploymentTuning {
        durability: Some(DurabilityConfig::default()),
        racks: 4,
        fault: FaultPlan::generate(
            simcore::rng::derive_seed(4, 0x5707),
            &FaultRates::scaled(1.0),
            window,
            &[24],
            0,
        ),
        ..Default::default()
    };
    let out = hybrid_core::run_trace_streaming_with(
        Architecture::THadoop,
        &CrossPointScheduler::default(),
        workload::facebook::stream(&cfg).take(jobs),
        &tuning,
    );
    assert_eq!(out.results.len(), jobs, "every job reports");
    let mut ids: Vec<u32> = out.results.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), jobs, "no job reports twice");
    assert!(out.fault_stats.node_crashes > 0);
    assert!(out.fault_stats.map_outputs_lost > 0, "the crash path ran");
}

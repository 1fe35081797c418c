//! Golden fingerprints for at-scale trace replay.
//!
//! The indexed dispatch structures (`TaskQueue`, `FlowNetwork`,
//! `PsResource`) and the streaming trace generator promise *byte-identical*
//! replays, not merely statistically similar ones. These tests pin an
//! FNV-1a fingerprint of everything an outcome exposes — per-job results,
//! class execution times at full f64 precision, the makespan, and (for the
//! observed run) the Chrome trace export — so any optimization that
//! perturbs event order, f64 accumulation order, or tie-breaking shows up
//! as a changed constant, not as a silent drift.
//!
//! If a fingerprint changes *intentionally* (a semantic change to the
//! engine), regenerate the constants with the replay below and say why in
//! the commit message.

use hybrid_hadoop::hybrid_core::{
    run_trace, run_trace_adaptive_roundtrip_streaming_with, run_trace_adaptive_with, run_trace_with,
};
use hybrid_hadoop::prelude::*;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// Fingerprint every observable field of an outcome plus an optional
/// Chrome-trace export.
fn fingerprint(out: &TraceOutcome, chrome: &str) -> u64 {
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
    fnv(&mut h, chrome.as_bytes());
    h
}

fn replay_cfg(jobs: usize) -> FacebookTraceConfig {
    FacebookTraceConfig {
        jobs,
        window: SimDuration::from_secs(jobs as u64 * 12),
        ..Default::default()
    }
}

/// The headline guarantee of the indexed hot paths: a fixed-seed 10k-job
/// hybrid replay is byte-identical to the pre-optimization engine (this
/// constant was recorded against the linear-scan implementation).
#[test]
fn fixed_seed_10k_replay_is_byte_identical() {
    let trace = generate_facebook_trace(&replay_cfg(10_000));
    let out = run_trace(
        Architecture::Hybrid,
        &CrossPointScheduler::default(),
        &trace,
    );
    assert_eq!(out.results.len(), 10_000);
    assert_eq!(fingerprint(&out, ""), 0x1e9c_66c1_7625_167b);
}

/// The closed-loop scheduler with exploration disabled must be *bitwise*
/// the static policy: same constant as the plain 10k replay above, not
/// merely the same statistics. Deferred routing resolves placements at
/// arrival without reordering the event stream, and with no probes the
/// paired-bucket estimator can never produce a cross-point update.
#[test]
fn adaptive_without_exploration_matches_the_static_10k_fingerprint() {
    let trace = generate_facebook_trace(&replay_cfg(10_000));
    let adaptive = AdaptiveScheduler::new(AdaptiveConfig {
        exploration: 0.0,
        ..Default::default()
    });
    let out = run_trace_adaptive_with(
        Architecture::Hybrid,
        adaptive,
        &trace,
        &DeploymentTuning::default(),
    );
    assert_eq!(out.results.len(), 10_000);
    assert_eq!(fingerprint(&out, ""), 0x1e9c_66c1_7625_167b);
    let sched = out
        .adaptive
        .as_deref()
        .expect("adaptive replay returns the scheduler");
    assert!(sched.recalibrations().is_empty(), "no probes ⇒ no updates");
    assert_eq!(sched.completions(), 10_000);
}

/// Pin the *exploring* adaptive replay too: probes draw from a dedicated
/// RNG substream, so the closed loop is as reproducible as the static path.
#[test]
fn fixed_seed_10k_exploring_adaptive_replay_is_byte_identical() {
    let trace = generate_facebook_trace(&replay_cfg(10_000));
    let out = run_trace_adaptive_with(
        Architecture::Hybrid,
        AdaptiveScheduler::default(),
        &trace,
        &DeploymentTuning::default(),
    );
    assert_eq!(out.results.len(), 10_000);
    assert_eq!(fingerprint(&out, ""), 0x97ad_b577_2c02_d699);
}

/// The service-mode restart guarantee at full replay scale: tearing the
/// scheduler down to its snapshot JSON and rebuilding it every 64
/// completions must leave the exploring replay byte-identical — same
/// constant as the uninterrupted run above. This is the strongest form of
/// the `scheduler::snapshot` contract: windows, live thresholds, RNG stream
/// position, and audit trail all survive arbitrarily many restarts.
#[test]
fn exploring_adaptive_replay_survives_snapshot_restarts_bitwise() {
    let trace = generate_facebook_trace(&replay_cfg(10_000));
    let out = run_trace_adaptive_roundtrip_streaming_with(
        Architecture::Hybrid,
        AdaptiveScheduler::default(),
        trace.iter().cloned(),
        &DeploymentTuning::default(),
        Some(64),
    );
    assert_eq!(out.results.len(), 10_000);
    assert_eq!(fingerprint(&out, ""), 0x97ad_b577_2c02_d699);
}

/// Pin a drifting replay: the scale-up-slowdown scenario (one of the two
/// fat nodes crashes mid-trace, no recovery) under the adaptive policy.
/// Fault injection and recalibration both ride the deterministic machinery,
/// so the drifting run is exactly as reproducible as the stationary one.
#[test]
fn fixed_seed_drift_scenario_replay_is_byte_identical() {
    let scenario = DriftScenario::scale_up_slowdown(SimDuration::from_secs(2000 * 6));
    let trace = generate_facebook_trace(&scenario.trace_config(&replay_cfg(2000)));
    let tuning = DeploymentTuning {
        fault: scenario.fault_plan(),
        ..Default::default()
    };
    let out = run_trace_adaptive_with(
        Architecture::Hybrid,
        AdaptiveScheduler::default(),
        &trace,
        &tuning,
    );
    assert_eq!(out.results.len(), 2000);
    assert_eq!(fingerprint(&out, ""), 0x1bd8_fc3f_a655_4cdd);
}

/// The tenant dispatcher's pass-through guarantee: a single-tenant FIFO
/// dispatch with unlimited slots and an exploration-0 adaptive router must
/// forward every spec bit-for-bit at its original submit time — same
/// fingerprint as the plain static 10k replay, straight through two extra
/// layers (queue policy + closed-loop router).
#[test]
fn single_tenant_fifo_passthrough_matches_the_static_10k_fingerprint() {
    let jobs = generate_facebook_trace(&replay_cfg(10_000))
        .into_iter()
        .map(|spec| TenantJob {
            spec,
            tenant: TenantId(0),
        });
    let out = run_trace_tenants_with(
        Architecture::Hybrid,
        TenantTable::single(),
        TenantSchedConfig::unlimited(),
        PolicyKind::Fifo,
        AdaptiveScheduler::new(AdaptiveConfig {
            exploration: 0.0,
            ..Default::default()
        }),
        jobs,
        &DeploymentTuning::default(),
    );
    assert_eq!(out.trace.results.len(), 10_000);
    assert_eq!(fingerprint(&out.trace, ""), 0x1e9c_66c1_7625_167b);
    assert_eq!(out.dispatch.stats.preemptions, 0);
    assert_eq!(out.dispatch.stats.rejections, 0);
    assert_eq!(out.dispatch.stats.delay_fallbacks, 0);
}

/// Pin a full multi-tenant 10k replay: Zipf tenant population, diurnal ×
/// MMPP arrivals, capacity queues with preemption, adaptive routing. Queue
/// dispatch, share accounting, and the replay all ride the deterministic
/// machinery, so the whole stack gets one byte-identity constant.
#[test]
fn fixed_seed_10k_multi_tenant_replay_is_byte_identical() {
    let cfg = TenantModelConfig {
        jobs: 10_000,
        window: SimDuration::from_secs(10_000 * 12),
        ..Default::default()
    };
    let out = run_trace_tenants_with(
        Architecture::Hybrid,
        tenant_table(&cfg),
        TenantSchedConfig::default(),
        PolicyKind::Capacity,
        AdaptiveScheduler::default(),
        stream_tenant_trace(&cfg),
        &DeploymentTuning::default(),
    );
    assert_eq!(
        out.trace.results.len() as u64 + out.dispatch.stats.rejections,
        10_000
    );
    assert_eq!(fingerprint(&out.trace, ""), 0xff57_9aef_d240_ec64);
}

/// Same pin for an observed 1k-job replay, including the full Chrome
/// `trace_event` export: observability must neither perturb the simulation
/// nor emit different bytes.
#[test]
fn fixed_seed_1k_observed_replay_is_byte_identical() {
    let trace = generate_facebook_trace(&replay_cfg(1000));
    let policy = CrossPointScheduler::default();
    let plain = run_trace(Architecture::Hybrid, &policy, &trace);
    assert_eq!(fingerprint(&plain, ""), 0xa57b_9d38_8dad_12ee);

    let tuning = DeploymentTuning {
        observe: true,
        ..Default::default()
    };
    let observed = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
    assert_eq!(observed.results, plain.results);
    let chrome = observed
        .recorder
        .as_deref()
        .expect("observed run records a trace")
        .chrome_trace();
    assert_eq!(fingerprint(&observed, &chrome), 0x4274_c42e_f7d0_dcf3);
}

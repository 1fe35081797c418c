//! The benchmark's own tests: seeded inputs, and timing wrappers that pass
//! everything through.

use crate::replay::{self, Case, ReplaySpec};
use crate::serve::{self, ServeInputs};
use crate::timing::{Clock, TimedIter, TimedPlacement};
use scheduler::{ClusterLoads, CrossPointScheduler, JobPlacement};

/// `case`'s traces for `seed`, shrunk to a few hundred jobs.
fn small(case: Case, seed: u64) -> Vec<ReplaySpec> {
    ReplaySpec::parts(case, seed)
        .into_iter()
        .map(|s| ReplaySpec { jobs: 300, ..s })
        .collect()
}

fn replay_inputs(case: Case, seed: u64) -> Vec<Vec<u8>> {
    small(case, seed)
        .iter()
        .map(ReplaySpec::input_bytes)
        .collect()
}

#[test]
fn replay_inputs_are_a_function_of_the_seed() {
    for case in [Case::Hybrid, Case::Storm] {
        let a = replay_inputs(case, 7);
        assert_eq!(a, replay_inputs(case, 7), "{case:?}: same seed, same bytes");
        assert_ne!(
            a,
            replay_inputs(case, 8),
            "{case:?}: another seed, other bytes"
        );
        for (i, x) in a.iter().enumerate() {
            for y in &a[i + 1..] {
                assert_ne!(x, y, "{case:?}: the parts of one run are distinct traces");
            }
        }
    }
}

#[test]
fn serve_inputs_are_a_function_of_the_seed() {
    let a = ServeInputs::new(7).input_bytes();
    assert_eq!(a, ServeInputs::new(7).input_bytes());
    assert_ne!(a, ServeInputs::new(8).input_bytes());
}

#[test]
fn timed_iterator_passes_every_job_through() {
    let spec = &small(Case::Hybrid, 3)[0];
    let clock = Clock::default();
    let plain: Vec<_> = workload::facebook::stream(&spec.trace()).collect();
    let timed: Vec<_> = TimedIter {
        inner: workload::facebook::stream(&spec.trace()),
        clock: &clock,
    }
    .collect();
    assert_eq!(plain, timed);
    assert_eq!(
        clock.calls(),
        plain.len() as u64 + 1,
        "every next, the last None too"
    );
}

#[test]
fn timed_placement_passes_every_decision_through() {
    let spec = &small(Case::Hybrid, 3)[0];
    let policy = CrossPointScheduler::default();
    let clock = Clock::default();
    let timed = TimedPlacement {
        inner: &policy,
        clock: &clock,
    };
    let loads = ClusterLoads::default();
    for job in workload::facebook::stream(&spec.trace()) {
        assert_eq!(policy.place(&job, &loads), timed.place(&job, &loads));
        assert_eq!(policy.explain(&job, &loads), timed.explain(&job, &loads));
    }
    assert_eq!(timed.name(), policy.name());
    assert_eq!(clock.calls(), 2 * spec.jobs as u64);
}

/// The storage and sink wrappers change nothing: the traced pass gives the
/// untraced pass's results and expositions, and both equal the library's
/// own replay.
#[test]
fn timed_storage_and_sinks_pass_everything_through() {
    for case in [Case::Hybrid, Case::Storm] {
        let spec = &small(case, 5)[0];
        let plain = replay::untraced(spec, true);
        let (traced, times) = replay::traced(spec);
        let (counted, counts) = replay::counting(spec);
        let (lib_digest, lib_expo) = replay::library_replay(spec);
        assert_eq!(plain.results, spec.jobs, "{case:?}");
        assert!(plain.ids_complete, "{case:?}");
        assert_eq!(plain.digest, lib_digest, "{case:?}: untraced vs library");
        assert_eq!(plain.exposition, lib_expo, "{case:?}");
        assert_eq!(traced.digest, plain.digest, "{case:?}: traced vs untraced");
        assert_eq!(traced.exposition, plain.exposition, "{case:?}");
        assert_eq!(traced.events, plain.events, "{case:?}");
        assert_eq!(
            counted.digest, plain.digest,
            "{case:?}: counting vs untraced"
        );
        assert!(
            times.storage.read.calls() > 0,
            "{case:?}: storage calls were timed"
        );
        assert!(counts.flows > 0 && counts.task_attempts > 0, "{case:?}");
        assert!(counts.live_max as f64 >= counts.live_mean, "{case:?}");
        match case {
            Case::Hybrid => assert!(plain.exposition.is_none()),
            Case::Storm => {
                assert!(plain.exposition.is_some());
                assert!(
                    times.aggregator.1 > 0 && times.doctor.1 > 0,
                    "sink calls were timed"
                );
            }
        }
    }
}

#[test]
fn reply_parsers_read_route_serve_lines() {
    let reply = "{\"op\":\"batch\",\"decisions\":[\
        {\"id\":4,\"placement\":\"scale-up\",\"band\":\"S/I>1\",\"threshold_bytes\":34359738368,\"probe\":false,\"note\":\"rejected scale-out: input 1.00 GiB below cross point 32.00 GiB\"},\
        {\"id\":5,\"placement\":\"scale-out\",\"band\":\"S/I<0.4\",\"threshold_bytes\":10737418240,\"probe\":true,\"note\":\"exploration probe\"}]}";
    let d = serve::parse_decisions(reply).expect("a batch reply");
    assert_eq!(d.len(), 2);
    assert_eq!(
        (d[0].id, d[0].up, d[0].band.as_str(), d[0].probe),
        (4, true, "S/I>1", false)
    );
    assert_eq!(
        (d[1].id, d[1].up, d[1].threshold, d[1].probe),
        (5, false, 10737418240, true)
    );
    assert!(serve::parse_decisions("{\"op\":\"error\",\"message\":\"x\"}").is_none());
    let doc = "{\n\"schema\": \"a\\\\b\",\t\"x\": [1]\n}";
    let line = format!(
        "{{\"op\":\"snapshot\",\"doc\":\"{}\"}}",
        doc.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\t', "\\t")
    );
    assert_eq!(serve::parse_snapshot(&line).as_deref(), Some(doc));
}

#[test]
fn flownet_probe_makes_its_operations_deterministically() {
    let template = hybrid_core::Deployment::build(hybrid_core::Architecture::Hybrid);
    let net = template.sim.network();
    let (ops, _) = crate::probe::drive(net, 16, 1, 5_000);
    assert!(ops >= 5_000);
    assert_eq!(ops, crate::probe::drive(net, 16, 1, 5_000).0);
}

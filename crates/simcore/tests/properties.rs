//! Property-style tests for the simulation kernel.
//!
//! Each test runs many randomized cases drawn from a fixed [`substream`]
//! seed, so the cases are reproducible (and shrinkable by printing the case
//! index) without an external property-testing framework.

use simcore::dist::PiecewiseLogCdf;
use simcore::rng::{substream, DetRng};
use simcore::{EventQueue, FlowId, FlowNetwork, PsResource, SimTime};

const CASES: usize = 64;

fn vec_of<T>(
    rng: &mut DetRng,
    min: usize,
    max: usize,
    mut f: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    let n = rng.range_usize(min, max);
    (0..n).map(|_| f(rng)).collect()
}

/// Events always pop in non-decreasing time order, regardless of how they
/// were pushed, and equal-time events preserve push order.
#[test]
fn event_queue_is_time_ordered() {
    let mut rng = substream(0xE0, 0);
    for case in 0..CASES {
        let times = vec_of(&mut rng, 1, 200, |r| r.range_usize(0, 1_000_000) as u64);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        while let Some((t, idx)) = q.pop() {
            assert!(t >= last.0, "case {case}: time went backwards");
            if t == last.0 && last.1 != 0 {
                // FIFO among ties: indexes at the same timestamp ascend.
                assert!(times[idx] != times[last.1] || idx > last.1, "case {case}");
            }
            assert_eq!(t, SimTime(times[idx]), "case {case}");
            last = (t, idx);
        }
        assert!(q.is_empty());
    }
}

/// Work conservation: however flows arrive, a PS resource eventually serves
/// exactly the bytes injected, and with simultaneous arrivals it finishes
/// exactly at the capacity bound.
#[test]
fn ps_resource_conserves_work() {
    let mut rng = substream(0xE0, 1);
    for case in 0..CASES {
        let sizes = vec_of(&mut rng, 1, 40, |r| r.range_f64(1.0, 1e8));
        let capacity = 1e6; // 1 MB/s
        let mut r = PsResource::new("disk", capacity);
        for (i, &s) in sizes.iter().enumerate() {
            r.add_flow(SimTime::ZERO, FlowId(i as u64), s);
        }
        let mut now = SimTime::ZERO;
        let mut completed = 0usize;
        let mut guard = 0;
        while let Some(t) = r.next_completion_time(now) {
            now = t;
            completed += r.poll_completions(now).len();
            guard += 1;
            assert!(
                guard < 10_000,
                "case {case}: completion loop did not converge"
            );
        }
        assert_eq!(completed, sizes.len(), "case {case}");
        let total: f64 = sizes.iter().sum();
        // Served everything (within per-completion sub-byte rounding).
        assert!(
            (r.bytes_served() - total).abs() < sizes.len() as f64 + 1.0,
            "case {case}"
        );
        // Finished no earlier than the capacity bound allows, and PS with
        // simultaneous arrivals finishes exactly at the bound.
        let lower = total / capacity;
        assert!(now.as_secs_f64() + 1e-3 >= lower, "case {case}");
        assert!(
            (now.as_secs_f64() - lower).abs() < 0.01 * lower + 1e-2,
            "case {case}"
        );
    }
}

/// Staggered arrivals keep the accounting exact too.
#[test]
fn ps_staggered_arrivals_respect_capacity() {
    let mut rng = substream(0xE0, 2);
    for case in 0..CASES {
        let flows = vec_of(&mut rng, 1, 30, |r| {
            (r.range_usize(0, 10_000_000) as u64, r.range_f64(1.0, 1e7))
        });
        let capacity = 5e5;
        let mut r = PsResource::new("nic", capacity);
        let mut arrivals: Vec<(SimTime, f64)> =
            flows.iter().map(|&(t, b)| (SimTime(t), b)).collect();
        arrivals.sort_by_key(|&(t, _)| t);
        let mut now = SimTime::ZERO;
        let mut next_flow = 0usize;
        let mut done = 0usize;
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 20_000, "case {case}");
            let next_completion = r.next_completion_time(now);
            let next_arrival = arrivals.get(next_flow).map(|&(t, _)| t.max(now));
            match (next_completion, next_arrival) {
                (None, None) => break,
                (Some(tc), None) => {
                    now = tc;
                    done += r.poll_completions(now).len();
                }
                (ca, Some(ta)) => match ca {
                    Some(tc) if ta > tc => {
                        now = tc;
                        done += r.poll_completions(now).len();
                    }
                    _ => {
                        now = ta;
                        let (_, bytes) = arrivals[next_flow];
                        r.add_flow(now, FlowId(next_flow as u64), bytes);
                        next_flow += 1;
                    }
                },
            }
        }
        assert_eq!(done, arrivals.len(), "case {case}");
        let total: f64 = arrivals.iter().map(|&(_, b)| b).sum();
        assert!(
            (r.bytes_served() - total).abs() < arrivals.len() as f64 + 1.0,
            "case {case}"
        );
    }
}

/// The empirical CDF is monotone and quantile() is its right inverse.
#[test]
fn piecewise_cdf_monotone() {
    let mut rng = substream(0xE0, 3);
    let mut ran = 0;
    for case in 0..CASES {
        let points = vec_of(&mut rng, 2, 8, |r| r.range_f64(1.0, 1e12));
        let mut vals = points;
        vals.sort_by(f64::total_cmp);
        vals.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        if vals.len() < 2 {
            continue;
        }
        ran += 1;
        let n = vals.len();
        let anchors: Vec<(f64, f64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as f64 / (n - 1) as f64))
            .collect();
        let d = PiecewiseLogCdf::new(anchors);
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = d.quantile(i as f64 / 100.0);
            let p = d.cdf(x);
            assert!(p + 1e-9 >= prev, "case {case}: cdf must be monotone");
            prev = p;
        }
    }
    assert!(
        ran > CASES / 2,
        "most cases should produce valid anchor sets"
    );
}

/// Multi-hop flows conserve work on every resource they touch, and no
/// resource ever serves faster than its capacity allows. A flow's bytes are
/// attributed when it leaves, so served and injected bytes differ only by
/// summation rounding (1e-9 relative).
#[test]
fn flow_network_conserves_work_per_hop() {
    let mut rng = substream(0xE0, 4);
    for case in 0..CASES {
        let flows = vec_of(&mut rng, 1, 30, |r| {
            (
                r.range_f64(1.0, 1e7),
                r.range_usize(0, 3),
                r.range_usize(0, 3),
            )
        });
        let mut net = FlowNetwork::new();
        let resources: Vec<_> = (0..3)
            .map(|i| net.add_resource(format!("r{i}"), 1e6))
            .collect();
        let mut expected = [0.0f64; 3];
        for (i, &(bytes, a, b)) in flows.iter().enumerate() {
            let mut path = vec![resources[a]];
            if b != a {
                path.push(resources[b]);
            }
            for &r in &path {
                let idx = resources.iter().position(|&x| x == r).unwrap();
                expected[idx] += bytes;
            }
            net.add_flow(SimTime::ZERO, FlowId(i as u64), bytes, &path, None);
        }
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            net.poll_completions(now);
            guard += 1;
            assert!(guard < 10_000, "case {case}");
        }
        assert_eq!(net.active_flows(), 0, "case {case}");
        for (i, &want) in expected.iter().enumerate() {
            let got = net.resource_bytes_served(resources[i]);
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "case {case} resource {i}: served {got} expected {want}"
            );
            // Capacity bound: served bytes ≤ capacity × busy time (+rounding).
            let busy = net.resource_busy_time(resources[i]).as_secs_f64();
            assert!(
                got <= 1e6 * busy + flows.len() as f64 + 1.0,
                "case {case} resource {i} exceeded capacity: {got} in {busy}s"
            );
        }
    }
}

/// Cancelling flows mid-stream keeps the accounting consistent: the bytes
/// served plus the bytes returned by cancellation equal the bytes injected,
/// up to summation rounding.
#[test]
fn flow_network_cancellation_accounts_exactly() {
    let mut rng = substream(0xE0, 5);
    for case in 0..CASES {
        let sizes = vec_of(&mut rng, 2, 20, |r| r.range_f64(1.0, 1e6));
        let cancel_at = rng.range_f64(0.1, 0.9);
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 1e5);
        let total: f64 = sizes.iter().sum();
        for (i, &b) in sizes.iter().enumerate() {
            net.add_flow(SimTime::ZERO, FlowId(i as u64), b, &[r], None);
        }
        // Run until roughly `cancel_at` of the total would be served, then
        // cancel everything still active.
        let t_cancel = SimTime::from_secs_f64(cancel_at * total / 1e5);
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            if t > t_cancel {
                break;
            }
            now = t;
            net.poll_completions(now);
            guard += 1;
            assert!(guard < 10_000, "case {case}");
        }
        let mut returned = 0.0;
        for i in 0..sizes.len() {
            if let Some(left) = net.cancel_flow(t_cancel.max(now), FlowId(i as u64)) {
                returned += left;
            }
        }
        assert_eq!(net.active_flows(), 0, "case {case}");
        let served = net.resource_bytes_served(r);
        assert!(
            (served + returned - total).abs() <= 1e-9 * total,
            "case {case}: served {served} + returned {returned} != {total}"
        );
    }
}

/// Degrading and restoring a resource's capacity mid-run preserves work
/// conservation and slows completions while degraded.
#[test]
fn flow_network_capacity_change_conserves_work() {
    let mut rng = substream(0xE0, 6);
    for case in 0..CASES {
        let bytes = rng.range_f64(1e5, 1e6);
        let factor = rng.range_f64(0.1, 0.9);
        let mut net = FlowNetwork::new();
        let r = net.add_resource("server", 1e5);
        net.add_flow(SimTime::ZERO, FlowId(1), bytes, &[r], None);
        // Degrade halfway through the undegraded service time.
        let t_half = SimTime::from_secs_f64(0.5 * bytes / 1e5);
        net.set_resource_capacity(t_half, r, 1e5 * factor);
        let done = net.next_completion_time(t_half).expect("flow still active");
        net.poll_completions(done);
        assert_eq!(net.active_flows(), 0, "case {case}");
        // First half at full rate, second half at factor × rate.
        let want = 0.5 * bytes / 1e5 + 0.5 * bytes / (1e5 * factor);
        assert!(
            (done.as_secs_f64() - want).abs() < 1e-2 * want + 1e-3,
            "case {case}: finished at {} want {want}",
            done.as_secs_f64()
        );
        let served = net.resource_bytes_served(r);
        assert!(
            (served - bytes).abs() <= 1e-9 * bytes,
            "case {case}: served {served} of {bytes}"
        );
    }
}

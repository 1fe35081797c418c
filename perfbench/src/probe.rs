//! The `simcore` flow-network probe.
//!
//! Drives `FlowNetwork::add_flow`, `next_completion_time`,
//! `poll_completions` and `cancel_flow` directly, on a copy of the hybrid
//! topology's resources, holding the number of live flows at a target.
//! Every membership change costs O(live flows) today, so the nanoseconds
//! per operation at the replay's mean and peak live-flow counts are the
//! layer number an incremental flow network must move.

use simcore::{rng::substream, FlowId, FlowNetwork, NetResourceId, SimTime};
use std::collections::HashMap;
use std::time::Instant;

/// Network operations timed per probe.
pub const PROBE_OPS: u64 = 200_000;
/// Every this many completions one live flow is cancelled instead.
const CANCEL_EVERY: u64 = 8;

/// Mean nanoseconds per flow-network operation with `live` flows held
/// live on a copy of `template` (which must have no flows). The flow
/// paths and sizes are drawn from `seed`; the operation count is fixed.
pub fn flownet_ns_per_op(template: &FlowNetwork, live: usize, seed: u64) -> f64 {
    let (ops, wall_ns) = drive(template, live, seed, PROBE_OPS);
    wall_ns as f64 / ops as f64
}

/// Run `ops` operations; returns the operations made and their wall time.
pub fn drive(template: &FlowNetwork, live: usize, seed: u64, ops: u64) -> (u64, u64) {
    assert_eq!(
        template.active_flows(),
        0,
        "the probe starts from an idle network"
    );
    let mut net = template.clone();
    let resources = net.num_resources() as u32;
    let mut rng = substream(seed, 0xF10E);
    let path = move |rng: &mut simcore::DetRng| -> Vec<NetResourceId> {
        let len = rng.range_usize(1, 4);
        let mut p: Vec<NetResourceId> = (0..len)
            .map(|_| NetResourceId(rng.range_usize(0, resources as usize) as u32))
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    // Block-sized transfers: 4 MB to 128 MB.
    let bytes = |rng: &mut simcore::DetRng| rng.range_f64(4.0e6, 128.0e6);
    let mut ids: Vec<FlowId> = Vec::with_capacity(live);
    let mut pos: HashMap<FlowId, usize> = HashMap::with_capacity(live);
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    let mut made = 0u64;

    let t = Instant::now();
    let mut add = |net: &mut FlowNetwork,
                   rng: &mut simcore::DetRng,
                   now,
                   ids: &mut Vec<FlowId>,
                   pos: &mut HashMap<FlowId, usize>| {
        let id = FlowId(next_id);
        next_id += 1;
        let p = path(rng);
        net.add_flow(now, id, bytes(rng), &p, None);
        pos.insert(id, ids.len());
        ids.push(id);
    };
    let remove = |id: FlowId, ids: &mut Vec<FlowId>, pos: &mut HashMap<FlowId, usize>| {
        let i = pos.remove(&id).expect("a live flow");
        ids.swap_remove(i);
        if let Some(&moved) = ids.get(i) {
            pos.insert(moved, i);
        }
    };
    for _ in 0..live {
        add(&mut net, &mut rng, now, &mut ids, &mut pos);
        made += 1;
    }
    let mut completions = 0u64;
    while made < ops {
        let Some(at) = net.next_completion_time(now) else {
            break;
        };
        now = at;
        let done = net.poll_completions(now);
        made += 2;
        for id in done {
            remove(id, &mut ids, &mut pos);
            completions += 1;
            if completions.is_multiple_of(CANCEL_EVERY) && !ids.is_empty() {
                let victim = ids[rng.range_usize(0, ids.len())];
                net.cancel_flow(now, victim);
                remove(victim, &mut ids, &mut pos);
                add(&mut net, &mut rng, now, &mut ids, &mut pos);
                made += 2;
            }
            add(&mut net, &mut rng, now, &mut ids, &mut pos);
            made += 1;
        }
    }
    (made, t.elapsed().as_nanos() as u64)
}

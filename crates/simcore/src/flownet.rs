//! Multi-resource fluid flows.
//!
//! [`crate::ps::PsResource`] models one device in isolation. Real transfers
//! cross several devices at once — an HDFS remote read occupies the source
//! disk, the source NIC and the destination NIC simultaneously — and its
//! rate is governed by the tightest of those shares. [`FlowNetwork`] models
//! this directly:
//!
//! > rate(f) = min over resources r on f's path of ( capacity(r) / n(r) ),
//! > optionally capped per flow, where n(r) is the number of flows touching r.
//!
//! This is max-min fairness *without slack redistribution*: when a flow is
//! bottlenecked elsewhere, its unused share on other resources is not handed
//! to competitors. The approximation is conservative (never optimistic about
//! bandwidth), deterministic, and cheap — the properties that matter for
//! reproducing the paper's orderings.
//!
//! # Engine contract
//!
//! Same generation-stamped scheme as `PsResource`, but network-wide: any
//! membership change bumps one global generation. The engine queues its
//! completion poll with [`crate::EventQueue::push_timer`], using the
//! generation as the timer epoch, so only the current generation's polls
//! sit in the queue: a reschedule drops every older one. A poll can still
//! pop stale when the generation moved without a reschedule, so the
//! engine keeps checking the stamp. Between consecutive events no
//! membership changes occur, so all rates are constant and linear
//! advancement is exact.
//!
//! [`FlowNetwork::next_completion_time`] returns `now` plus the least
//! `ceil(residual / rate)` in ticks over the live flows, and
//! [`FlowNetwork::poll_completions`] removes exactly the flows whose
//! residual at `now` is at most `DONE_EPS_BYTES`, in `FlowId` order. Rates,
//! residuals, completion ticks and busy time are bit-equal to a full
//! recomputation: every residual is still credited `min(rate * dt,
//! residual)` on each advance. Bytes served are attributed when a flow
//! leaves (its size minus its residual), and a read adds the progress of
//! the flows still on the resource; they equal the per-advance sums up to
//! summation rounding.
//!
//! # Cost of a change
//!
//! Live flows are packed into two `f64` columns, residuals and rates, so
//! the passes every event still makes over all of them (the credit of an
//! advance, the minimum search, the finished-flow scan of a poll) are
//! tight loops over contiguous memory; no pass walks a path, touches a
//! resource or chases a pointer. Adding, cancelling or completing a flow,
//! or changing a capacity, marks the resources whose flow count or
//! capacity moved, and the next re-rate pass (in an advance, or in
//! [`FlowNetwork::next_completion_time`]) re-rates just the flows each
//! marked resource lists, from the same `capacity / n` quotient as always:
//! a share that fell is folded in with one `min`, and a share that rose
//! sends only the flows whose rate it may have capped back to their whole
//! path. Busy time is accrued when a resource's flow count moves between 0
//! and 1.

use crate::ps::{FlowId, Generation};
use crate::time::{SimDuration, SimTime, TICKS_PER_SEC};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a resource within a [`FlowNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetResourceId(pub u32);

/// Residual bytes below this threshold count as finished (see `ps` docs).
const DONE_EPS_BYTES: f64 = 1e-3;

#[derive(Debug, Clone)]
struct NetResource {
    name: String,
    capacity: f64,
    active: u32,
    /// `capacity / active` as of the last re-rate pass; valid while
    /// `active > 0` and the resource is not marked.
    share: f64,
    /// The share before the last re-rate pass, when that pass raised it.
    raised_from: Option<f64>,
    /// Set when `active` or `capacity` changed since the last re-rate pass
    /// (the resource is then listed in [`FlowNetwork::marked`]).
    marked: bool,
    /// Bytes served by the flows that have left this resource.
    settled: f64,
    /// Positions of the live flows crossing this resource, once per path
    /// entry.
    flows: Vec<u32>,
    /// Busy time of the closed busy periods.
    busy: SimDuration,
    /// Start of the open busy period; meaningful while `active > 0`.
    busy_since: SimTime,
}

/// The cold part of a live flow; the hot part lives in
/// [`FlowNetwork::remaining`] and [`FlowNetwork::rates`].
#[derive(Debug, Clone)]
struct NetFlow {
    id: FlowId,
    bytes_total: f64,
    started: SimTime,
    path: Vec<NetResourceId>,
    rate_cap: Option<f64>,
}

/// One finished (or aborted) flow, as recorded by the opt-in flow log.
///
/// The log exists for observability: [`FlowNetwork::poll_completions`]
/// removes flows before returning their ids, so a caller that wants start
/// times and sizes after the fact enables logging and drains entries
/// instead of re-deriving them. Flow identity is all the network knows —
/// callers attach their own semantics (shuffle vs. HDFS read vs.
/// re-replication) by joining on [`FlowId`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLogEntry {
    /// The flow's id.
    pub id: FlowId,
    /// Total bytes the flow was created with.
    pub bytes: f64,
    /// When the flow entered the network.
    pub started: SimTime,
    /// When it completed or was cancelled.
    pub ended: SimTime,
    /// True if the flow was aborted rather than run to completion.
    pub cancelled: bool,
}

/// A set of shared resources and the composite flows crossing them.
///
/// Live flows are packed densely: position `i` holds the flow's residual in
/// `remaining[i]`, its rate in `rates[i]` and the rest in `flows[i]`, so the
/// per-event passes sweep two contiguous `f64` columns. A removal moves the
/// last flow into the freed position. `index` maps each live [`FlowId`] to
/// its position, and each resource lists the positions of the flows
/// crossing it.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    resources: Vec<NetResource>,
    remaining: Vec<f64>,
    /// Rate under the current membership, unless a resource on the path is
    /// marked (then the next re-rate pass re-rates it first).
    rates: Vec<f64>,
    flows: Vec<NetFlow>,
    /// Position of every live flow.
    index: HashMap<FlowId, u32, BuildHasherDefault<IdHasher>>,
    last_update: SimTime,
    generation: u64,
    /// Resources whose `marked` flag is set, each listed once.
    marked: Vec<NetResourceId>,
    /// Emptied path buffers of removed flows, reused by new ones.
    spare_paths: Vec<Vec<NetResourceId>>,
    /// Finished flows found by a poll, as `(id, position)`; kept to reuse
    /// its allocation.
    finished: Vec<(FlowId, u32)>,
    log_flows: bool,
    flow_log: Vec<FlowLogEntry>,
}

/// Hashes a [`FlowId`] with one multiply. The map is only looked up,
/// never iterated, so no result depends on the hash, and its keys are the
/// simulator's own flow counters, not outside input that could be chosen
/// to collide.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `min(rate_cap, share(r) for r on path)`, or `f64::MAX` for a pathless,
/// uncapped flow. Every cached and reported rate comes from this fold.
fn path_rate(
    rate_cap: Option<f64>,
    path: &[NetResourceId],
    share: impl Fn(NetResourceId) -> f64,
) -> f64 {
    let mut rate = rate_cap.unwrap_or(f64::INFINITY);
    for &r in path {
        rate = rate.min(share(r));
    }
    if rate.is_finite() {
        rate
    } else {
        // Pathless, uncapped flow: completes instantly (latency-only).
        f64::MAX
    }
}

fn mark(resources: &mut [NetResource], marked: &mut Vec<NetResourceId>, r: NetResourceId) {
    let res = &mut resources[r.0 as usize];
    if !res.marked {
        res.marked = true;
        marked.push(r);
    }
}

/// One more flow crosses `r` from `now` on.
fn acquire(
    resources: &mut [NetResource],
    marked: &mut Vec<NetResourceId>,
    r: NetResourceId,
    now: SimTime,
) {
    let res = &mut resources[r.0 as usize];
    if res.active == 0 {
        res.busy_since = now;
    }
    res.active += 1;
    mark(resources, marked, r);
}

/// One flow leaves `r` at `now`.
///
/// # Panics
/// Panics, in release builds too, if `r` carries no flow: the flow counts
/// would otherwise wrap and corrupt every later rate.
fn release(
    resources: &mut [NetResource],
    marked: &mut Vec<NetResourceId>,
    r: NetResourceId,
    now: SimTime,
) {
    let res = &mut resources[r.0 as usize];
    res.active = res.active.checked_sub(1).unwrap_or_else(|| {
        panic!(
            "flow network: resource `{}` released with no active flow",
            res.name
        )
    });
    if res.active == 0 {
        res.busy += now.since(res.busy_since);
    }
    mark(resources, marked, r);
}

impl FlowNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource with aggregate `capacity` bytes/s.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite capacity.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> NetResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let id = NetResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(NetResource {
            name: name.into(),
            capacity,
            active: 0,
            share: 0.0,
            raised_from: None,
            marked: false,
            settled: 0.0,
            flows: Vec::new(),
            busy: SimDuration::ZERO,
            busy_since: SimTime::ZERO,
        });
        id
    }

    /// Name of resource `r`.
    pub fn resource_name(&self, r: NetResourceId) -> &str {
        &self.resources[r.0 as usize].name
    }

    /// Capacity of resource `r` in bytes/s.
    pub fn resource_capacity(&self, r: NetResourceId) -> f64 {
        self.resources[r.0 as usize].capacity
    }

    /// Change the capacity of resource `r` at time `now` (fault injection: a
    /// degraded storage server serves at a fraction of its rated bandwidth).
    ///
    /// Service already rendered stays at the old rate; the flows crossing
    /// `r` are re-rated from `now` on, and the generation is bumped so the
    /// engine reschedules its pending completion event against the new
    /// rates.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite capacity.
    pub fn set_resource_capacity(
        &mut self,
        now: SimTime,
        r: NetResourceId,
        capacity: f64,
    ) -> Generation {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        self.advance(now);
        self.resources[r.0 as usize].capacity = capacity;
        mark(&mut self.resources, &mut self.marked, r);
        self.generation += 1;
        Generation(self.generation)
    }

    /// Bytes served by resource `r` up to the last update: the bytes of the
    /// flows that have left it, plus the progress of the flows still on it.
    pub fn resource_bytes_served(&self, r: NetResourceId) -> f64 {
        let res = &self.resources[r.0 as usize];
        res.flows.iter().fold(res.settled, |sum, &i| {
            sum + (self.flows[i as usize].bytes_total - self.remaining[i as usize])
        })
    }

    /// Time resource `r` has spent with ≥1 active flow, up to the last update.
    pub fn resource_busy_time(&self, r: NetResourceId) -> SimDuration {
        let res = &self.resources[r.0 as usize];
        if res.active > 0 {
            res.busy + self.last_update.since(res.busy_since)
        } else {
            res.busy
        }
    }

    /// Number of flows currently touching resource `r`.
    pub fn resource_active_flows(&self, r: NetResourceId) -> u32 {
        self.resources[r.0 as usize].active
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.index.len()
    }

    /// Current membership epoch.
    pub fn generation(&self) -> Generation {
        Generation(self.generation)
    }

    /// Enable or disable the flow log. Off by default; when off, nothing is
    /// recorded and the network's behavior is identical byte for byte —
    /// logging only ever appends to a side vector after the fluid state has
    /// already been advanced.
    pub fn set_flow_logging(&mut self, on: bool) {
        self.log_flows = on;
    }

    /// Take all accumulated [`FlowLogEntry`] records, in completion order
    /// (within one poll, ordered by `FlowId` like the returned ids).
    pub fn drain_flow_log(&mut self) -> Vec<FlowLogEntry> {
        std::mem::take(&mut self.flow_log)
    }

    /// Current rate of flow `f` in bytes/s, or `None` if not active.
    pub fn flow_rate(&self, f: FlowId) -> Option<f64> {
        let fl = &self.flows[*self.index.get(&f)? as usize];
        Some(path_rate(fl.rate_cap, &fl.path, |r| {
            let res = &self.resources[r.0 as usize];
            debug_assert!(res.active > 0);
            res.capacity / res.active as f64
        }))
    }

    /// Re-rate the flows crossing a marked resource, from the shares of
    /// the current membership; every other flow's rate is unchanged.
    ///
    /// Each rate ends up bit-equal to a fresh [`path_rate`] fold, without
    /// walking most paths. `min` is exact, so a share that did not rise
    /// is folded in as `rate.min(share)`. A risen share can only matter to
    /// a flow whose rate is not below the old share (its bottleneck may
    /// have been there); that flow is re-rated from its whole path, and
    /// every other one keeps its rate, which was attained elsewhere and is
    /// below every risen share on its path. A new flow starts at its cap
    /// (or `f64::MAX`), so it takes every share on its path.
    fn rerate(&mut self) {
        for &r in &self.marked {
            let res = &mut self.resources[r.0 as usize];
            if res.active > 0 {
                let old = res.share;
                res.share = res.capacity / res.active as f64;
                res.raised_from = (res.share > old).then_some(old);
            }
        }
        let resources = &self.resources;
        for &r in &self.marked {
            let res = &resources[r.0 as usize];
            for &i in &res.flows {
                let rate = &mut self.rates[i as usize];
                match res.raised_from {
                    None => *rate = rate.min(res.share),
                    Some(old) if *rate >= old => {
                        let fl = &self.flows[i as usize];
                        *rate = path_rate(fl.rate_cap, &fl.path, |q| resources[q.0 as usize].share);
                    }
                    Some(_) => {}
                }
            }
        }
        for r in self.marked.drain(..) {
            self.resources[r.0 as usize].marked = false;
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "flow network time went backwards");
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 && !self.remaining.is_empty() {
            // Rates are constant over (last_update, now]: membership changes
            // always advance first, and completions are event boundaries.
            self.rerate();
            // `min(rate * dt, left)` as a select: the same value for these
            // non-NaN operands, in a loop the compiler can vectorize.
            for (left, &rate) in self.remaining.iter_mut().zip(&self.rates) {
                let credit = rate * dt;
                *left -= if credit < *left { credit } else { *left };
            }
        }
        self.last_update = now;
    }

    /// Start a flow of `bytes` across `path` at time `now`. An empty path
    /// with no cap completes on the next poll (pure-latency transfers).
    ///
    /// Returns the new generation for completion-event stamping.
    ///
    /// # Panics
    /// Panics if `id` is already active or `bytes` is negative/non-finite.
    pub fn add_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        bytes: f64,
        path: &[NetResourceId],
        rate_cap: Option<f64>,
    ) -> Generation {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be non-negative"
        );
        self.advance(now);
        let i = u32::try_from(self.flows.len()).expect("too many flows");
        if self.index.insert(id, i).is_some() {
            panic!("flow {id:?} already active");
        }
        for &r in path {
            acquire(&mut self.resources, &mut self.marked, r, now);
            self.resources[r.0 as usize].flows.push(i);
        }
        // A pathless, uncapped flow has infinite rate: it is a pure-latency
        // transfer whose bytes are already "delivered".
        self.remaining
            .push(if path.is_empty() && rate_cap.is_none() {
                0.0
            } else {
                bytes
            });
        // A flow with a path crosses resources `acquire` just marked, so the
        // next pass rates it; a pathless rate never changes.
        self.rates
            .push(path_rate(rate_cap, &[], |_| unreachable!()));
        let mut kept = self.spare_paths.pop().unwrap_or_default();
        kept.extend_from_slice(path);
        self.flows.push(NetFlow {
            id,
            bytes_total: bytes,
            started: now,
            path: kept,
            rate_cap,
        });
        self.generation += 1;
        Generation(self.generation)
    }

    /// Abort a flow, returning its unserved bytes (`None` if not active).
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let i = *self.index.get(&id)?;
        let left = self.settle(i, now, true);
        self.remove(i);
        self.generation += 1;
        Some(left)
    }

    /// The flow at position `i` leaves at `now`: release its resources,
    /// settle its bytes on them and log it if the flow log is on. Returns
    /// its residual.
    fn settle(&mut self, i: u32, now: SimTime, cancelled: bool) -> f64 {
        let fl = &self.flows[i as usize];
        let left = self.remaining[i as usize];
        let served = fl.bytes_total - left;
        for &r in fl.path.iter() {
            release(&mut self.resources, &mut self.marked, r, now);
            self.resources[r.0 as usize].settled += served;
        }
        if self.log_flows {
            self.flow_log.push(FlowLogEntry {
                id: fl.id,
                bytes: fl.bytes_total,
                started: fl.started,
                ended: now,
                cancelled,
            });
        }
        left
    }

    /// Remove the settled flow at position `i`; the last flow moves into
    /// its place.
    fn remove(&mut self, i: u32) {
        let fl = self.flows.swap_remove(i as usize);
        self.remaining.swap_remove(i as usize);
        self.rates.swap_remove(i as usize);
        for &r in fl.path.iter() {
            let list = &mut self.resources[r.0 as usize].flows;
            let at = list.iter().position(|&p| p == i);
            list.swap_remove(at.expect("a live flow is listed on its path"));
        }
        self.index.remove(&fl.id);
        let mut kept = fl.path;
        kept.clear();
        self.spare_paths.push(kept);
        let last = self.flows.len() as u32;
        if i == last {
            return;
        }
        // The flow that was last now sits at `i`.
        let moved = &self.flows[i as usize];
        for &r in moved.path.iter() {
            for p in &mut self.resources[r.0 as usize].flows {
                if *p == last {
                    *p = i;
                }
            }
        }
        self.index.insert(moved.id, i);
    }

    /// Advance to `now` and remove+return all finished flows in FlowId order.
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done = std::mem::take(&mut self.finished);
        for (i, &left) in self.remaining.iter().enumerate() {
            if left <= DONE_EPS_BYTES {
                done.push((self.flows[i].id, i as u32));
            }
        }
        if done.is_empty() {
            self.finished = done;
            return Vec::new();
        }
        // Settle in FlowId order (the flow log's order), then remove from
        // the highest position down: a removal moves the last flow, which
        // is never a finished one still to be removed.
        done.sort_unstable();
        let ids = done.iter().map(|&(id, _)| id).collect();
        for &(_, i) in &done {
            self.settle(i, now, false);
        }
        done.sort_unstable_by_key(|&(_, i)| std::cmp::Reverse(i));
        for &(_, i) in &done {
            self.remove(i);
        }
        done.clear();
        self.finished = done;
        self.generation += 1;
        ids
    }

    /// Absolute time of the next completion assuming no membership changes,
    /// rounded up to a whole tick.
    pub fn next_completion_time(&mut self, now: SimTime) -> Option<SimTime> {
        if self.remaining.is_empty() {
            return None;
        }
        self.rerate();
        let since = now.since(self.last_update).as_secs_f64();
        // Selects stand in for `min`/`max`: the same values for these
        // non-NaN operands, in fewer instructions. At `since == 0` the
        // residual is `left` itself (`left - rate * 0.0` is `left`).
        let mut min_secs = f64::INFINITY;
        for (&left, &rate) in self.remaining.iter().zip(&self.rates) {
            if rate > 0.0 {
                let left = if since > 0.0 {
                    let rest = left - rate * since;
                    if rest > 0.0 {
                        rest
                    } else {
                        0.0
                    }
                } else {
                    left
                };
                let secs = left / rate;
                if secs < min_secs {
                    min_secs = secs;
                }
            }
        }
        if !min_secs.is_finite() {
            return None;
        }
        let ticks = (min_secs * TICKS_PER_SEC as f64).ceil() as u64;
        Some(now + SimDuration(ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut FlowNetwork, mut now: SimTime) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            for id in net.poll_completions(now) {
                out.push((now, id));
            }
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        out
    }

    #[test]
    fn single_resource_behaves_like_ps() {
        let mut net = FlowNetwork::new();
        let disk = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[disk], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 500.0, &[disk], None);
        let done = drain(&mut net, SimTime::ZERO);
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn min_share_across_path_governs() {
        let mut net = FlowNetwork::new();
        let disk = net.add_resource("disk", 100.0);
        let nic = net.add_resource("nic", 1000.0);
        // Lone flow across disk+nic: disk is the bottleneck.
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[disk, nic], None);
        assert!((net.flow_rate(FlowId(1)).unwrap() - 100.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 5.0).abs() < 1e-3);
    }

    #[test]
    fn contention_on_shared_hop_slows_both() {
        let mut net = FlowNetwork::new();
        let d1 = net.add_resource("disk1", 1000.0);
        let d2 = net.add_resource("disk2", 1000.0);
        let nic = net.add_resource("nic", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[d1, nic], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 500.0, &[d2, nic], None);
        // Both bottlenecked by the shared NIC at 50 B/s each.
        assert!((net.flow_rate(FlowId(1)).unwrap() - 50.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn no_slack_redistribution_is_conservative() {
        let mut net = FlowNetwork::new();
        let slow = net.add_resource("slow", 10.0);
        let shared = net.add_resource("shared", 100.0);
        // Flow 1 bottlenecked at 10 B/s by `slow`; flow 2 only on `shared`.
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[slow, shared], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 100.0, &[shared], None);
        // Flow 2 gets its fair share (50), not the slack (90).
        assert!((net.flow_rate(FlowId(2)).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rate_cap_applies() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("server", 1000.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], Some(10.0));
        assert!((net.flow_rate(FlowId(1)).unwrap() - 10.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn empty_path_completes_immediately() {
        let mut net = FlowNetwork::new();
        net.add_flow(SimTime::from_secs(2), FlowId(9), 42.0, &[], None);
        let t = net.next_completion_time(SimTime::from_secs(2)).unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(net.poll_completions(t), vec![FlowId(9)]);
    }

    #[test]
    fn departure_releases_shares() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 1000.0, &[r], None);
        let t1 = net.next_completion_time(SimTime::ZERO).unwrap();
        assert_eq!(net.poll_completions(t1), vec![FlowId(1)]);
        assert_eq!(net.resource_active_flows(r), 1);
        assert!((net.flow_rate(FlowId(2)).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_restores_counts_and_returns_residual() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[r], None);
        let left = net.cancel_flow(SimTime::from_secs(2), FlowId(1)).unwrap();
        assert!((left - 300.0).abs() < 1e-6);
        assert_eq!(net.resource_active_flows(r), 0);
        assert_eq!(net.cancel_flow(SimTime::from_secs(2), FlowId(1)), None);
    }

    #[test]
    fn flow_log_records_lifetimes_when_enabled() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        // Logging off: nothing recorded.
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        net.poll_completions(t);
        assert!(net.drain_flow_log().is_empty());
        // Logging on: completion and cancellation both land in the log.
        net.set_flow_logging(true);
        net.add_flow(t, FlowId(2), 200.0, &[r], None);
        net.add_flow(t, FlowId(3), 1000.0, &[r], None);
        let t2 = net.next_completion_time(t).unwrap();
        net.poll_completions(t2);
        net.cancel_flow(t2, FlowId(3)).unwrap();
        let log = net.drain_flow_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, FlowId(2));
        assert_eq!(
            (log[0].started, log[0].ended, log[0].cancelled),
            (t, t2, false)
        );
        assert!((log[0].bytes - 200.0).abs() < 1e-9);
        assert_eq!((log[1].id, log[1].cancelled), (FlowId(3), true));
        // Drain empties the log.
        assert!(net.drain_flow_log().is_empty());
    }

    #[test]
    fn accounting_charges_every_hop() {
        let mut net = FlowNetwork::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 200.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[a, b], None);
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        net.poll_completions(t);
        assert!((net.resource_bytes_served(a) - 100.0).abs() < 1e-3);
        assert!((net.resource_bytes_served(b) - 100.0).abs() < 1e-3);
        assert!((net.resource_busy_time(a).as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn busy_time_counts_only_busy_periods() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        assert_eq!(net.poll_completions(t), vec![FlowId(1)]);
        assert_eq!(net.resource_busy_time(r), SimDuration::from_secs(1));
        // Idle from 1 s to 3 s, then busy again: an open period counts up
        // to the last update.
        net.add_flow(SimTime::from_secs(3), FlowId(2), 200.0, &[r], None);
        net.poll_completions(SimTime::from_secs(4));
        assert_eq!(net.resource_busy_time(r), SimDuration::from_secs(2));
        let t = net.next_completion_time(SimTime::from_secs(4)).unwrap();
        net.poll_completions(t);
        assert_eq!(net.resource_busy_time(r), SimDuration::from_secs(3));
    }

    #[test]
    fn out_of_order_ids_complete_in_id_order() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        for id in [5, 2, 9, 1] {
            net.add_flow(SimTime::ZERO, FlowId(id), 100.0, &[r], None);
        }
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        let ids: Vec<FlowId> = [1, 2, 5, 9].map(FlowId).to_vec();
        assert_eq!(net.poll_completions(t), ids);
    }

    #[test]
    fn an_id_reused_after_cancel_completes_once() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        // Flow 1 finishes, is cancelled before the poll, and its id returns:
        // first for a pathless flow that is done at once, then for a real
        // transfer that must not be reported until it has run.
        net.add_flow(SimTime::ZERO, FlowId(1), 0.0, &[r], None);
        net.cancel_flow(SimTime::ZERO, FlowId(1)).unwrap();
        net.add_flow(SimTime::ZERO, FlowId(1), 5.0, &[], None);
        assert_eq!(net.poll_completions(SimTime::ZERO), vec![FlowId(1)]);
        net.add_flow(SimTime::ZERO, FlowId(2), 0.0, &[r], None);
        net.cancel_flow(SimTime::ZERO, FlowId(2)).unwrap();
        net.add_flow(SimTime::ZERO, FlowId(2), 100.0, &[r], None);
        assert!(net.poll_completions(SimTime::ZERO).is_empty());
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(net.poll_completions(t), vec![FlowId(2)]);
    }

    /// Every resource lists exactly the positions of the flows crossing it
    /// (once per path entry), and the index maps each id to its position.
    fn assert_consistent(net: &FlowNetwork) {
        let n = net.flows.len();
        assert_eq!(
            (net.remaining.len(), net.rates.len(), net.index.len()),
            (n, n, n)
        );
        for (i, fl) in net.flows.iter().enumerate() {
            assert_eq!(net.index[&fl.id], i as u32, "{:?}", fl.id);
        }
        for (r, res) in net.resources.iter().enumerate() {
            let mut listed = res.flows.clone();
            listed.sort_unstable();
            let crossing: Vec<u32> = (0..n as u32)
                .flat_map(|i| {
                    let path = &net.flows[i as usize].path;
                    path.iter().filter(|q| q.0 as usize == r).map(move |_| i)
                })
                .collect();
            assert_eq!(listed, crossing, "flows listed on resource {r}");
            assert_eq!(res.active as usize, crossing.len());
        }
    }

    #[test]
    fn positions_stay_consistent_under_churn_on_a_hot_resource() {
        let mut net = FlowNetwork::new();
        let hot = net.add_resource("hot", 1000.0);
        let cold: Vec<_> = (0..4)
            .map(|i| net.add_resource(format!("cold{i}"), 50.0 + 10.0 * i as f64))
            .collect();
        let mut now = SimTime::ZERO;
        let mut live = Vec::new();
        let (mut next, mut completed, mut cancelled, mut peak) = (0u64, 0, 0, 0);
        for op in 0..5_000u64 {
            match op % 7 {
                // Every flow crosses the hot resource, some of them twice, so
                // each change re-rates all of them and each removal moves
                // the last flow's entries on it.
                0..=3 => {
                    let c = cold[(op % 4) as usize];
                    let path = if op % 5 == 0 {
                        vec![hot, c, hot]
                    } else {
                        vec![hot, c]
                    };
                    let bytes = 10.0 + (op * 37 % 500) as f64;
                    net.add_flow(now, FlowId(next), bytes, &path, None);
                    live.push(FlowId(next));
                    next += 1;
                }
                4 if !live.is_empty() => {
                    let id = live.swap_remove((op as usize * 13) % live.len());
                    assert!(net.cancel_flow(now, id).is_some());
                    cancelled += 1;
                }
                _ => {
                    if let Some(t) = net.next_completion_time(now) {
                        now = t;
                    }
                    let done = net.poll_completions(now);
                    live.retain(|id| !done.contains(id));
                    completed += done.len();
                }
            }
            assert_eq!(net.active_flows(), live.len());
            assert_consistent(&net);
            peak = peak.max(live.len());
        }
        assert_eq!(completed + cancelled + live.len(), next as usize);
        assert!(
            completed > 500 && peak > 20,
            "{completed} done, peak {peak}"
        );
    }

    #[test]
    #[should_panic(expected = "resource `nic` released with no active flow")]
    fn releasing_an_idle_resource_panics_with_its_name() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("nic", 100.0);
        release(&mut net.resources, &mut net.marked, r, SimTime::ZERO);
    }
}

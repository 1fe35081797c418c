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
//! A change costs work in proportion to what it touches. Adding, cancelling
//! or completing a flow, or changing a capacity, only marks the resources
//! whose flow count or capacity moved; the next pass over the flows (the
//! credit loop of an advance, or [`FlowNetwork::next_completion_time`],
//! which re-rates and finds the minimum completion in one scan) re-rates
//! just the flows that cross a marked resource, from the same
//! `capacity / n` quotient as always, so every rate is bit-equal to a full
//! recomputation. Each flow carries a 64-bit mask with bit `r mod 64` set
//! for every resource on its path; a pass ORs the bits of the marked
//! resources and walks only the paths whose mask intersects, so most
//! untouched flows cost one AND. Busy time is accrued when a resource's
//! flow count moves between 0 and 1, not on every advance.

use crate::ps::{FlowId, Generation};
use crate::time::{SimDuration, SimTime, TICKS_PER_SEC};

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
    /// Set when `active` or `capacity` changed since the last re-rate pass
    /// (the resource is then listed in [`FlowNetwork::marked`]).
    marked: bool,
    bytes_served: f64,
    /// Busy time of the closed busy periods.
    busy: SimDuration,
    /// Start of the open busy period; meaningful while `active > 0`.
    busy_since: SimTime,
}

#[derive(Debug, Clone)]
struct NetFlow {
    id: FlowId,
    remaining: f64,
    bytes_total: f64,
    started: SimTime,
    path: Box<[NetResourceId]>,
    rate_cap: Option<f64>,
    /// Bit `r mod 64` set for every resource `r` on the path: a cheap
    /// pre-filter for "does the path cross a marked resource".
    mask: u64,
    /// Rate under the current membership, unless a resource on the path is
    /// marked (then the next pass over the flows re-rates it first).
    rate: f64,
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
/// Flows live in a `Vec` sorted by [`FlowId`]: the fluid credit loop must
/// accumulate `bytes_served` in FlowId order for byte-reproducible traces,
/// and sorted storage makes that the natural iteration order. New flows are
/// placed by binary search; the engine's increasing ids land at the end, so
/// inserting moves nothing. Per-flow rates are cached and re-rated only for flows
/// crossing a resource marked by a membership or capacity change, and
/// flows that cross the completion threshold are recorded in `done_buf` as
/// they cross, so polling does not rescan the whole network.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    resources: Vec<NetResource>,
    flows: Vec<NetFlow>,
    last_update: SimTime,
    generation: u64,
    /// Resources whose `marked` flag is set, each listed once.
    marked: Vec<NetResourceId>,
    /// Flows whose `remaining` has crossed [`DONE_EPS_BYTES`] and which have
    /// not yet been returned by [`Self::poll_completions`] (may contain ids
    /// cancelled since they crossed).
    done_buf: Vec<FlowId>,
    log_flows: bool,
    flow_log: Vec<FlowLogEntry>,
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

/// The [`NetFlow::mask`] bit of resource `r`.
fn mask_bit(r: NetResourceId) -> u64 {
    1 << (r.0 % 64)
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

/// Re-rate `fl` if a resource on its path is marked (shares of marked
/// resources must already be current). `marked_mask` ORs the mask bits of
/// the marked resources; a flow sharing none of them is skipped without
/// walking its path, and a shared bit only means the exact check runs.
#[inline]
fn rerate_if_marked(fl: &mut NetFlow, resources: &[NetResource], marked_mask: u64) {
    let path = &fl.path;
    if fl.mask & marked_mask != 0 && path.iter().any(|r| resources[r.0 as usize].marked) {
        fl.rate = path_rate(fl.rate_cap, path, |r| resources[r.0 as usize].share);
    }
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
            marked: false,
            bytes_served: 0.0,
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
    /// Advances the fluid state first so service already rendered is credited
    /// at the old rate, then bumps the generation so the engine reschedules
    /// its pending completion event against the new rates.
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

    /// Bytes served by resource `r` so far (advanced state only).
    pub fn resource_bytes_served(&self, r: NetResourceId) -> f64 {
        self.resources[r.0 as usize].bytes_served
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
        self.flows.len()
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
        let fl = &self.flows[self.position(f).ok()?];
        Some(path_rate(fl.rate_cap, &fl.path, |r| {
            let res = &self.resources[r.0 as usize];
            debug_assert!(res.active > 0);
            res.capacity / res.active as f64
        }))
    }

    /// Index of flow `id` in `flows`, or where it would be inserted.
    fn position(&self, id: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&id, |fl| fl.id)
    }

    /// Bring the shares of marked resources up to date. Returns the OR of
    /// their mask bits: nonzero when any resource is marked, i.e. when the
    /// caller's pass over the flows must re-rate (and then call
    /// [`Self::clear_marks`]).
    fn refresh_shares(&mut self) -> u64 {
        let mut mask = 0;
        for &r in &self.marked {
            let res = &mut self.resources[r.0 as usize];
            if res.active > 0 {
                res.share = res.capacity / res.active as f64;
            }
            mask |= mask_bit(r);
        }
        mask
    }

    fn clear_marks(&mut self) {
        for r in self.marked.drain(..) {
            self.resources[r.0 as usize].marked = false;
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "flow network time went backwards");
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            // Rates are constant over (last_update, now]: membership changes
            // always advance first, and completions are event boundaries.
            let marked_mask = self.refresh_shares();
            // Accumulate in FlowId order: `bytes_served` sums floats across
            // flows, so unordered iteration would leak per-process ULP noise
            // into otherwise byte-reproducible traces. The sorted `Vec`
            // iterates in exactly that order.
            let resources = &mut self.resources;
            let done_buf = &mut self.done_buf;
            for fl in &mut self.flows {
                if marked_mask != 0 {
                    rerate_if_marked(fl, resources, marked_mask);
                }
                let was_done = fl.remaining <= DONE_EPS_BYTES;
                let credit = (fl.rate * dt).min(fl.remaining);
                fl.remaining -= credit;
                // A composite flow moves its bytes through each device on the
                // path, so each device serves the full credit.
                for &r in &fl.path {
                    resources[r.0 as usize].bytes_served += credit;
                }
                if !was_done && fl.remaining <= DONE_EPS_BYTES {
                    done_buf.push(fl.id);
                }
            }
            if marked_mask != 0 {
                self.clear_marks();
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
        let Err(at) = self.position(id) else {
            panic!("flow {id:?} already active");
        };
        for &r in path {
            acquire(&mut self.resources, &mut self.marked, r, now);
        }
        // A pathless, uncapped flow has infinite rate: it is a pure-latency
        // transfer whose bytes are already "delivered".
        let remaining = if path.is_empty() && rate_cap.is_none() {
            0.0
        } else {
            bytes
        };
        if remaining <= DONE_EPS_BYTES {
            self.done_buf.push(id);
        }
        self.flows.insert(
            at,
            NetFlow {
                id,
                remaining,
                bytes_total: bytes,
                started: now,
                path: path.into(),
                rate_cap,
                mask: path.iter().fold(0, |m, &r| m | mask_bit(r)),
                // A flow with a path crosses resources `acquire` just marked,
                // so the next pass rates it; a pathless rate never changes.
                rate: path_rate(rate_cap, &[], |_| unreachable!()),
            },
        );
        self.generation += 1;
        Generation(self.generation)
    }

    /// Abort a flow, returning its unserved bytes (`None` if not active).
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let flow = self.remove_at(self.position(id).ok()?, now, true);
        self.generation += 1;
        Some(flow.remaining)
    }

    /// Remove the flow at index `i` of `flows` at `now`: release its
    /// resources and log it if the flow log is on.
    fn remove_at(&mut self, i: usize, now: SimTime, cancelled: bool) -> NetFlow {
        let flow = self.flows.remove(i);
        for &r in &flow.path {
            release(&mut self.resources, &mut self.marked, r, now);
        }
        if self.log_flows {
            self.flow_log.push(FlowLogEntry {
                id: flow.id,
                bytes: flow.bytes_total,
                started: flow.started,
                ended: now,
                cancelled,
            });
        }
        flow
    }

    /// Advance to `now` and remove+return all finished flows in FlowId order.
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        if self.done_buf.is_empty() {
            return Vec::new();
        }
        // `done_buf` holds every flow that has crossed the completion
        // threshold since the previous poll; cancelled flows are filtered out
        // (a flow's `remaining` never grows, so anything still present under
        // the same id and below the threshold is still finished).
        let mut done = std::mem::take(&mut self.done_buf);
        done.sort_unstable();
        done.dedup();
        done.retain(|&id| {
            self.position(id)
                .is_ok_and(|i| self.flows[i].remaining <= DONE_EPS_BYTES)
        });
        debug_assert!(
            done.len()
                == self
                    .flows
                    .iter()
                    .filter(|fl| fl.remaining <= DONE_EPS_BYTES)
                    .count(),
            "done buffer out of sync with flow residuals"
        );
        if !done.is_empty() {
            for &id in &done {
                let i = self.position(id).expect("finished flows are present");
                self.remove_at(i, now, false);
            }
            self.generation += 1;
        }
        done
    }

    /// Absolute time of the next completion assuming no membership changes,
    /// rounded up to a whole tick.
    pub fn next_completion_time(&mut self, now: SimTime) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let since = now.since(self.last_update).as_secs_f64();
        // One pass: re-rate the flows a change touched, then take the
        // minimum time to completion.
        let marked_mask = self.refresh_shares();
        let resources = &self.resources;
        let mut min_secs = f64::INFINITY;
        for fl in &mut self.flows {
            if marked_mask != 0 {
                rerate_if_marked(fl, resources, marked_mask);
            }
            let rate = fl.rate;
            if rate <= 0.0 {
                continue;
            }
            let remaining = (fl.remaining - rate * since).max(0.0);
            min_secs = min_secs.min(remaining / rate);
        }
        if marked_mask != 0 {
            self.clear_marks();
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

    #[test]
    #[should_panic(expected = "resource `nic` released with no active flow")]
    fn releasing_an_idle_resource_panics_with_its_name() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("nic", 100.0);
        release(&mut net.resources, &mut net.marked, r, SimTime::ZERO);
    }
}

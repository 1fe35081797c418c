//! Differential test of the packed [`FlowNetwork`] against the eager,
//! full-recompute network it descends from.
//!
//! `oracle` is that eager implementation, kept verbatim except for its
//! imports (it shares `NetResourceId`, `FlowLogEntry` and the time types
//! with the crate): flows in a `BTreeMap`, every rate recomputed after any
//! membership change, every flow scanned for the next completion, busy time
//! accrued over all resources on every advance, and bytes served credited
//! to every resource on every advance. Both networks are driven through the
//! same seeded operation sequences, and after every operation each returned
//! value and every observable piece of state must agree.
//!
//! Everything is compared bit for bit — rates, residuals returned by a
//! cancel, completion ticks, completed-id lists, flow counts, capacities,
//! names, the generation, busy time and the flow log — except
//! [`FlowNetwork::resource_bytes_served`]. The packed network attributes a
//! flow's bytes when it leaves instead of summing a credit per advance, so
//! the two totals differ by summation rounding and are compared within
//! [`close`]'s tolerance.

use simcore::rng::{substream, DetRng};
use simcore::{FlowId, FlowNetwork, NetResourceId, SimDuration, SimTime};
use std::collections::BTreeSet;

mod oracle {
    use simcore::time::{SimDuration, SimTime, TICKS_PER_SEC};
    use simcore::{FlowId, FlowLogEntry, Generation, NetResourceId};
    use std::collections::BTreeMap;

    /// Residual bytes below this threshold count as finished (see `ps` docs).
    const DONE_EPS_BYTES: f64 = 1e-3;

    #[derive(Debug, Clone)]
    struct NetResource {
        name: String,
        capacity: f64,
        active: u32,
        bytes_served: f64,
        busy: SimDuration,
    }

    #[derive(Debug, Clone)]
    struct NetFlow {
        remaining: f64,
        bytes_total: f64,
        started: SimTime,
        path: Vec<NetResourceId>,
        rate_cap: Option<f64>,
        /// Rate as of the current membership epoch; only meaningful while
        /// [`FlowNetwork::rates_fresh`] is set.
        rate: f64,
    }

    /// A set of shared resources and the composite flows crossing them.
    ///
    /// Flows live in a `BTreeMap` keyed by [`FlowId`]: the fluid credit loop
    /// must accumulate `bytes_served` in FlowId order for byte-reproducible
    /// traces, and ordered storage makes that the natural iteration order
    /// instead of a per-advance collect-and-sort. Per-flow rates are cached per
    /// membership epoch (`rates_fresh`), and flows that cross the completion
    /// threshold are recorded in `done_buf` as they cross, so polling does not
    /// rescan the whole network.
    #[derive(Debug, Clone, Default)]
    pub struct FlowNetwork {
        resources: Vec<NetResource>,
        flows: BTreeMap<FlowId, NetFlow>,
        last_update: SimTime,
        generation: u64,
        /// True while every `NetFlow::rate` reflects the current membership.
        /// Cleared by any membership or capacity change.
        rates_fresh: bool,
        /// Flows whose `remaining` has crossed [`DONE_EPS_BYTES`] and which have
        /// not yet been returned by [`Self::poll_completions`] (may contain ids
        /// cancelled since they crossed).
        done_buf: Vec<FlowId>,
        log_flows: bool,
        flow_log: Vec<FlowLogEntry>,
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
            let id =
                NetResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
            self.resources.push(NetResource {
                name: name.into(),
                capacity,
                active: 0,
                bytes_served: 0.0,
                busy: SimDuration::ZERO,
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
            self.rates_fresh = false;
            self.generation += 1;
            Generation(self.generation)
        }

        /// Bytes served by resource `r` so far (advanced state only).
        pub fn resource_bytes_served(&self, r: NetResourceId) -> f64 {
            self.resources[r.0 as usize].bytes_served
        }

        /// Time resource `r` has spent with ≥1 active flow, up to the last update.
        pub fn resource_busy_time(&self, r: NetResourceId) -> SimDuration {
            self.resources[r.0 as usize].busy
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
            self.flows.get(&f).map(|fl| self.rate_of(fl))
        }

        fn rate_of(&self, flow: &NetFlow) -> f64 {
            let mut rate = flow.rate_cap.unwrap_or(f64::INFINITY);
            for &r in &flow.path {
                let res = &self.resources[r.0 as usize];
                debug_assert!(res.active > 0);
                rate = rate.min(res.capacity / res.active as f64);
            }
            if rate.is_finite() {
                rate
            } else {
                // Pathless, uncapped flow: completes instantly (latency-only).
                f64::MAX
            }
        }

        /// Recompute every flow's cached rate for the current membership. Called
        /// lazily: at most once per membership epoch, by whichever of `advance`
        /// or [`Self::next_completion_time`] needs rates first.
        fn refresh_rates(&mut self) {
            let resources = &self.resources;
            for fl in self.flows.values_mut() {
                let mut rate = fl.rate_cap.unwrap_or(f64::INFINITY);
                for &r in &fl.path {
                    let res = &resources[r.0 as usize];
                    debug_assert!(res.active > 0);
                    rate = rate.min(res.capacity / res.active as f64);
                }
                fl.rate = if rate.is_finite() {
                    rate
                } else {
                    // Pathless, uncapped flow: completes instantly (latency-only).
                    f64::MAX
                };
            }
            self.rates_fresh = true;
        }

        fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.last_update, "flow network time went backwards");
            let dt = now.since(self.last_update).as_secs_f64();
            if dt > 0.0 && !self.flows.is_empty() {
                // Rates are constant over (last_update, now]: membership changes
                // always advance first, and completions are event boundaries.
                if !self.rates_fresh {
                    self.refresh_rates();
                }
                // Accumulate in FlowId order: `bytes_served` sums floats across
                // flows, so unordered iteration would leak per-process ULP noise
                // into otherwise byte-reproducible traces. The BTreeMap iterates
                // in exactly that order.
                let resources = &mut self.resources;
                let done_buf = &mut self.done_buf;
                for (&id, fl) in self.flows.iter_mut() {
                    let was_done = fl.remaining <= DONE_EPS_BYTES;
                    let credit = (fl.rate * dt).min(fl.remaining);
                    fl.remaining -= credit;
                    // A composite flow moves its bytes through each device on the
                    // path, so each device serves the full credit.
                    for &r in &fl.path {
                        resources[r.0 as usize].bytes_served += credit;
                    }
                    if !was_done && fl.remaining <= DONE_EPS_BYTES {
                        done_buf.push(id);
                    }
                }
                let busy_dt = now.since(self.last_update);
                for res in &mut self.resources {
                    if res.active > 0 {
                        res.busy += busy_dt;
                    }
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
            assert!(!self.flows.contains_key(&id), "flow {id:?} already active");
            for &r in path {
                self.resources[r.0 as usize].active += 1;
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
                id,
                NetFlow {
                    remaining,
                    bytes_total: bytes,
                    started: now,
                    path: path.to_vec(),
                    rate_cap,
                    rate: 0.0,
                },
            );
            self.rates_fresh = false;
            self.generation += 1;
            Generation(self.generation)
        }

        /// Abort a flow, returning its unserved bytes (`None` if not active).
        pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
            self.advance(now);
            let flow = self.flows.remove(&id)?;
            for &r in &flow.path {
                self.resources[r.0 as usize].active -= 1;
            }
            self.rates_fresh = false;
            self.generation += 1;
            if self.log_flows {
                self.flow_log.push(FlowLogEntry {
                    id,
                    bytes: flow.bytes_total,
                    started: flow.started,
                    ended: now,
                    cancelled: true,
                });
            }
            Some(flow.remaining)
        }

        /// Advance to `now` and remove+return all finished flows in FlowId order.
        pub fn poll_completions(&mut self, now: SimTime) -> Vec<FlowId> {
            self.advance(now);
            if self.done_buf.is_empty() {
                return Vec::new();
            }
            // `done_buf` holds every flow that has crossed the completion
            // threshold since the previous poll; cancelled flows are filtered out
            // (a flow's `remaining` never grows, so anything still present is
            // still finished).
            let mut done: Vec<FlowId> = std::mem::take(&mut self.done_buf)
                .into_iter()
                .filter(|id| self.flows.contains_key(id))
                .collect();
            debug_assert!(
                done.len()
                    == self
                        .flows
                        .values()
                        .filter(|fl| fl.remaining <= DONE_EPS_BYTES)
                        .count(),
                "done buffer out of sync with flow residuals"
            );
            if !done.is_empty() {
                done.sort_unstable();
                for id in &done {
                    let flow = self.flows.remove(id).expect("completion of unknown flow");
                    for &r in &flow.path {
                        self.resources[r.0 as usize].active -= 1;
                    }
                    if self.log_flows {
                        self.flow_log.push(FlowLogEntry {
                            id: *id,
                            bytes: flow.bytes_total,
                            started: flow.started,
                            ended: now,
                            cancelled: false,
                        });
                    }
                }
                self.rates_fresh = false;
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
            if !self.rates_fresh {
                self.refresh_rates();
            }
            let since = now.since(self.last_update).as_secs_f64();
            let mut min_secs = f64::INFINITY;
            for fl in self.flows.values() {
                let rate = fl.rate;
                if rate <= 0.0 {
                    continue;
                }
                let remaining = (fl.remaining - rate * since).max(0.0);
                min_secs = min_secs.min(remaining / rate);
            }
            if !min_secs.is_finite() {
                return None;
            }
            let ticks = (min_secs * TICKS_PER_SEC as f64).ceil() as u64;
            Some(now + SimDuration(ticks))
        }
    }
}

/// Seeded operation sequences per test, and operations per sequence.
const CASES: u64 = 24;
const OPS: usize = 500;

/// Operation counts across all cases, so the test can insist that every
/// kind of operation actually ran.
#[derive(Default)]
struct Coverage {
    adds: usize,
    out_of_order_adds: usize,
    long_paths: usize,
    cancels: usize,
    completions: usize,
    capacity_changes: usize,
    later_queries: usize,
}

struct Pair {
    new: FlowNetwork,
    old: oracle::FlowNetwork,
    resources: Vec<NetResourceId>,
    live: Vec<FlowId>,
    used: BTreeSet<u64>,
    next_id: u64,
    now: SimTime,
    cov: Coverage,
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Bytes-served totals agree to 1e-9 relative plus 1e-6 bytes.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-6
}

impl Pair {
    fn new(rng: &mut DetRng, logging: bool) -> Self {
        let n = rng.range_usize(1, 10);
        Self::with_resources(rng, logging, n)
    }

    fn with_resources(rng: &mut DetRng, logging: bool, n: usize) -> Self {
        let mut new = FlowNetwork::new();
        let mut old = oracle::FlowNetwork::new();
        new.set_flow_logging(logging);
        old.set_flow_logging(logging);
        let resources = (0..n)
            .map(|i| {
                let cap = rng.range_f64(10.0, 1.0e4);
                let a = new.add_resource(format!("r{i}"), cap);
                let b = old.add_resource(format!("r{i}"), cap);
                assert_eq!(a, b);
                a
            })
            .collect();
        Pair {
            new,
            old,
            resources,
            live: Vec::new(),
            used: BTreeSet::new(),
            next_id: 0,
            now: SimTime::ZERO,
            cov: Coverage::default(),
        }
    }

    /// Every observable piece of state, compared bit for bit.
    fn check(&mut self, ctx: &str) {
        let (new, old) = (&mut self.new, &mut self.old);
        assert_eq!(new.generation(), old.generation(), "{ctx}: generation");
        assert_eq!(new.active_flows(), old.active_flows(), "{ctx}: flows");
        assert_eq!(new.num_resources(), old.num_resources(), "{ctx}");
        for &r in &self.resources {
            assert_eq!(new.resource_name(r), old.resource_name(r), "{ctx}");
            assert_eq!(
                new.resource_capacity(r).to_bits(),
                old.resource_capacity(r).to_bits(),
                "{ctx}: capacity of {r:?}"
            );
            let (a, b) = (new.resource_bytes_served(r), old.resource_bytes_served(r));
            assert!(close(a, b), "{ctx}: bytes served by {r:?}: {a} vs {b}");
            assert_eq!(
                new.resource_busy_time(r),
                old.resource_busy_time(r),
                "{ctx}: busy time of {r:?}"
            );
            assert_eq!(
                new.resource_active_flows(r),
                old.resource_active_flows(r),
                "{ctx}: flows on {r:?}"
            );
        }
        let (a, b) = (new.drain_flow_log(), old.drain_flow_log());
        assert_eq!(a.len(), b.len(), "{ctx}: flow log length");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.id, x.bytes.to_bits(), x.started, x.ended, x.cancelled),
                (y.id, y.bytes.to_bits(), y.started, y.ended, y.cancelled),
                "{ctx}: flow log entry"
            );
        }
    }

    /// A fresh id: usually the next even number (the engine's increasing
    /// ids), sometimes an unused odd id below it (out-of-order insert).
    fn fresh_id(&mut self, rng: &mut DetRng) -> FlowId {
        if self.next_id > 2 && rng.chance(0.15) {
            let odd = rng.range_usize(0, (self.next_id / 2) as usize) as u64 * 2 + 1;
            if self.used.insert(odd) {
                self.cov.out_of_order_adds += 1;
                return FlowId(odd);
            }
        }
        let id = self.next_id;
        self.next_id += 2;
        self.used.insert(id);
        FlowId(id)
    }

    fn add(&mut self, rng: &mut DetRng) {
        let id = self.fresh_id(rng);
        let len = match rng.range_usize(0, 20) {
            0..=1 => 0,
            2 => rng.range_usize(6, 9),
            _ => rng.range_usize(1, 5),
        };
        if len > 5 {
            self.cov.long_paths += 1;
        }
        // Drawn with replacement: a path may cross a resource twice.
        let path: Vec<NetResourceId> = (0..len)
            .map(|_| self.resources[rng.range_usize(0, self.resources.len())])
            .collect();
        let bytes = match rng.range_usize(0, 20) {
            0 => 0.0,
            1 => 1.0e-4,
            _ => rng.range_f64(1.0, 1.0e6),
        };
        let cap = match rng.range_usize(0, 50) {
            0 => Some(0.0),
            1..=14 => Some(rng.range_f64(1.0, 1.0e5)),
            _ => None,
        };
        let g = self.new.add_flow(self.now, id, bytes, &path, cap);
        assert_eq!(g, self.old.add_flow(self.now, id, bytes, &path, cap));
        self.live.push(id);
        self.cov.adds += 1;
    }

    fn poll(&mut self) {
        let done = self.new.poll_completions(self.now);
        assert_eq!(done, self.old.poll_completions(self.now), "completions");
        self.live.retain(|id| !done.contains(id));
        self.cov.completions += done.len();
    }

    fn step(&mut self, rng: &mut DetRng) {
        match rng.range_usize(0, 100) {
            0..=29 => self.add(rng),
            30..=37 => {
                let id = if !self.live.is_empty() && rng.chance(0.9) {
                    self.live[rng.range_usize(0, self.live.len())]
                } else {
                    FlowId(self.next_id + 1)
                };
                let left = self.new.cancel_flow(self.now, id);
                assert_eq!(bits(left), bits(self.old.cancel_flow(self.now, id)));
                if left.is_some() {
                    self.live.retain(|&f| f != id);
                    self.cov.cancels += 1;
                }
            }
            38..=40 => {
                let r = self.resources[rng.range_usize(0, self.resources.len())];
                let cap = rng.range_f64(1.0, 1.0e4);
                let g = self.new.set_resource_capacity(self.now, r, cap);
                assert_eq!(g, self.old.set_resource_capacity(self.now, r, cap));
                self.cov.capacity_changes += 1;
            }
            // The engine's loop: jump to the next completion and poll it.
            41..=60 => {
                let t = self.new.next_completion_time(self.now);
                assert_eq!(t, self.old.next_completion_time(self.now));
                if let Some(t) = t {
                    self.now = t;
                }
                self.poll();
            }
            61..=70 => {
                self.now += SimDuration(rng.range_usize(0, 3_000_000) as u64);
                self.poll();
            }
            // A completion query from later than the last update.
            71..=80 => {
                let later = self.now + SimDuration(rng.range_usize(1, 2_000_000) as u64);
                let t = self.new.next_completion_time(later);
                assert_eq!(t, self.old.next_completion_time(later));
                self.cov.later_queries += 1;
            }
            81..=90 => {
                let id = if !self.live.is_empty() && rng.chance(0.8) {
                    self.live[rng.range_usize(0, self.live.len())]
                } else {
                    FlowId(self.next_id + 1)
                };
                assert_eq!(bits(self.new.flow_rate(id)), bits(self.old.flow_rate(id)));
            }
            _ => self.poll(),
        }
    }
}

fn run_cases(stream: u64, logging: bool) -> Coverage {
    let mut total = Coverage::default();
    for case in 0..CASES {
        let mut rng = substream(stream, case);
        let mut pair = Pair::new(&mut rng, logging);
        for op in 0..OPS {
            pair.step(&mut rng);
            pair.check(&format!("case {case} op {op}"));
        }
        // Drain: both networks run every remaining flow to completion (or
        // find none that can complete) at the same instants.
        for op in 0..10_000 {
            let t = pair.new.next_completion_time(pair.now);
            assert_eq!(t, pair.old.next_completion_time(pair.now));
            let Some(t) = t else { break };
            pair.now = t;
            pair.poll();
            pair.check(&format!("case {case} drain {op}"));
        }
        let c = pair.cov;
        total.adds += c.adds;
        total.out_of_order_adds += c.out_of_order_adds;
        total.long_paths += c.long_paths;
        total.cancels += c.cancels;
        total.completions += c.completions;
        total.capacity_changes += c.capacity_changes;
        total.later_queries += c.later_queries;
    }
    total
}

fn assert_covered(c: &Coverage) {
    for (what, n) in [
        ("adds", c.adds),
        ("out-of-order adds", c.out_of_order_adds),
        ("long paths", c.long_paths),
        ("cancels", c.cancels),
        ("completions", c.completions),
        ("capacity changes", c.capacity_changes),
        ("later queries", c.later_queries),
    ] {
        assert!(n >= 20, "only {n} {what} across all cases");
    }
}

/// Same operations, same answers: every returned value, every resource's
/// bytes, busy time and flow count, and the generation, bit for bit.
#[test]
fn incremental_network_matches_full_recompute_oracle() {
    assert_covered(&run_cases(0xF10E_0001, false));
}

/// The flow log records the same entries in the same order.
#[test]
fn flow_logs_match_the_oracle() {
    assert_covered(&run_cases(0xF10E_0002, true));
}

/// Many concurrent flows over few resources: most operations re-rate only
/// part of the network, which is where a missed mark would show.
#[test]
fn crowded_network_matches_the_oracle() {
    for case in 0..8 {
        let mut rng = substream(0xF10E_0003, case);
        let mut pair = Pair::new(&mut rng, false);
        for op in 0..2_000 {
            // Grow to a crowd first, then keep churning.
            if op < 300 {
                pair.add(&mut rng);
            } else {
                pair.step(&mut rng);
            }
            pair.check(&format!("case {case} op {op}"));
        }
        assert!(pair.cov.completions > 0);
    }
}

/// A wide network of 140 resources whose paths cross `r`, `r + 64` and
/// `r + 128`, alone and together: a change to one resource must re-rate
/// exactly the flows crossing it, and a removal must move the last flow's
/// entries on every resource it crosses.
#[test]
fn wide_network_matches_the_oracle() {
    const RESOURCES: usize = 140;
    let mut multi_hop = 0;
    for case in 0..8 {
        let mut rng = substream(0xF10E_0004, case);
        let mut pair = Pair::with_resources(&mut rng, false, RESOURCES);
        for op in 0..1_500 {
            if rng.chance(0.3) {
                // A few low indices, so flows keep meeting on them.
                let r = rng.range_usize(0, 6);
                let path: Vec<NetResourceId> = [r, r + 64, r + 128]
                    .into_iter()
                    .filter(|_| rng.chance(0.6))
                    .map(|i| pair.resources[i])
                    .collect();
                multi_hop += usize::from(path.len() > 1);
                let id = pair.fresh_id(&mut rng);
                let cap = rng.chance(0.2).then(|| rng.range_f64(1.0, 1.0e5));
                let bytes = rng.range_f64(1.0, 1.0e6);
                let g = pair.new.add_flow(pair.now, id, bytes, &path, cap);
                assert_eq!(g, pair.old.add_flow(pair.now, id, bytes, &path, cap));
                pair.live.push(id);
            } else if rng.chance(0.1) {
                // A capacity change on one of those resources.
                let r = pair.resources[rng.range_usize(0, 6) + 64 * rng.range_usize(0, 3)];
                let cap = rng.range_f64(1.0, 1.0e4);
                let g = pair.new.set_resource_capacity(pair.now, r, cap);
                assert_eq!(g, pair.old.set_resource_capacity(pair.now, r, cap));
            } else {
                pair.step(&mut rng);
            }
            pair.check(&format!("case {case} op {op}"));
        }
        assert!(pair.cov.completions > 0);
    }
    assert!(
        multi_hop >= 100,
        "only {multi_hop} paths with several resources"
    );
}

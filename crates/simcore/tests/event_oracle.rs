//! Differential test of the event calendar against the heap-only queue it
//! replaced.
//!
//! `oracle` is the previous implementation, kept verbatim except for its
//! imports: one binary heap holding every event, superseded network polls
//! included, each of which popped and was then ignored by its stale
//! generation stamp. Here a timer goes onto the oracle's heap as a plain
//! event tagged with its epoch, and the driver skips a timer whose epoch is
//! no longer the latest, as the engine's poll handler does. Both queues are
//! driven through the same seeded operation sequences; they must yield the
//! same acted-on `(time, payload)` sequence, the same clock after every pop
//! or commit, and the same clock once drained.

use simcore::rng::{substream, DetRng};
use simcore::{EventQueue, QueuedEvent, SimDuration, SimTime};

#[allow(dead_code)]
mod oracle {
    use simcore::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A time-ordered event queue with deterministic FIFO tie-breaking.
    ///
    /// `E` is the simulation-specific event payload; the engine that owns the
    /// queue pops `(time, payload)` pairs and dispatches on the payload.
    #[derive(Debug)]
    pub struct EventQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
        now: SimTime,
        popped: u64,
    }

    #[derive(Debug)]
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        payload: E,
    }

    /// An event drained via [`EventQueue::pop_entry`], carrying its position in
    /// the queue's `(time, seq)` total order so it can be restored unperturbed.
    #[derive(Debug)]
    pub struct QueuedEvent<E> {
        /// Scheduled timestamp.
        pub time: SimTime,
        /// Push-order sequence number (the FIFO tie-break key). Private so a
        /// caller cannot forge an order position; [`EventQueue::unpop`] restores
        /// the original.
        seq: u64,
        /// The event payload.
        pub payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.seq).cmp(&(other.time, other.seq))
        }
    }

    impl<E> Default for EventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> EventQueue<E> {
        /// An empty queue with the clock at zero.
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                popped: 0,
            }
        }

        /// The current simulation time: the timestamp of the last popped event
        /// (zero before the first pop).
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of events popped so far (a cheap progress/debug counter).
        pub fn events_processed(&self) -> u64 {
            self.popped
        }

        /// Schedule `payload` at absolute time `at`.
        ///
        /// # Panics
        /// Panics if `at` is in the past; scheduling into the past would silently
        /// corrupt causality, so it is a programming error.
        pub fn push(&mut self, at: SimTime, payload: E) {
            assert!(
                at >= self.now,
                "event scheduled in the past: at={at:?} now={:?}",
                self.now
            );
            let entry = Entry {
                time: at,
                seq: self.seq,
                payload,
            };
            self.seq += 1;
            self.heap.push(Reverse(entry));
        }

        /// Pop the next event, advancing the clock to its timestamp.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(entry) = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "heap yielded an out-of-order event");
            self.now = entry.time;
            self.popped += 1;
            Some((entry.time, entry.payload))
        }

        /// Timestamp of the next event without popping it.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(e)| e.time)
        }

        /// Remove the next event *without* advancing the clock or the popped
        /// counter, exposing its position in the queue's total order.
        ///
        /// This is the speculative half of the windowed-replay protocol: a
        /// conservative parallel executor drains a window of entries, decides
        /// which prefix it can safely process, then either [`commit_entry`]s an
        /// entry (observing it exactly as [`pop`] would have) or [`unpop`]s it
        /// back untouched. Draining via `pop_entry` alone leaves the queue's
        /// observable state (`now`, `events_processed`) unchanged.
        ///
        /// [`commit_entry`]: EventQueue::commit_entry
        /// [`unpop`]: EventQueue::unpop
        /// [`pop`]: EventQueue::pop
        pub fn pop_entry(&mut self) -> Option<QueuedEvent<E>> {
            let Reverse(entry) = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "heap yielded an out-of-order event");
            Some(QueuedEvent {
                time: entry.time,
                seq: entry.seq,
                payload: entry.payload,
            })
        }

        /// Account a drained entry as processed: advances the clock and the
        /// popped counter exactly as if [`EventQueue::pop`] had returned it.
        /// Entries must be committed in the order `pop_entry` yielded them.
        ///
        /// # Panics
        /// Panics if the entry's timestamp is before the current clock — that
        /// would mean entries are being committed out of drain order.
        pub fn commit_entry(&mut self, entry: &QueuedEvent<E>) {
            assert!(
                entry.time >= self.now,
                "window entry committed out of order: at={:?} now={:?}",
                entry.time,
                self.now
            );
            self.now = entry.time;
            self.popped += 1;
        }

        /// Return a drained entry to the queue in its original total-order
        /// position (the sequence number captured at [`EventQueue::pop_entry`]
        /// is preserved, so FIFO tie-breaking is unaffected).
        pub fn unpop(&mut self, entry: QueuedEvent<E>) {
            self.heap.push(Reverse(Entry {
                time: entry.time,
                seq: entry.seq,
                payload: entry.payload,
            }));
        }

        /// True when no events remain.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Test-only inspection of the copied queue: the entries that would be
    /// acted on, i.e. everything but timers of an epoch other than `epoch`.
    impl EventQueue<super::Tagged> {
        fn live(&self, epoch: u64) -> impl Iterator<Item = (SimTime, u64)> + '_ {
            self.heap
                .iter()
                .filter(move |Reverse(e)| e.payload.epoch.is_none_or(|x| x == epoch))
                .map(|Reverse(e)| (e.time, e.seq))
        }

        /// Earliest live timestamp.
        pub fn live_peek_time(&self, epoch: u64) -> Option<SimTime> {
            self.live(epoch).min().map(|(t, _)| t)
        }

        /// Number of live entries.
        pub fn live_len(&self, epoch: u64) -> usize {
            self.live(epoch).count()
        }
    }
}

/// An oracle payload: the event id, and the epoch for a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged {
    id: u64,
    epoch: Option<u64>,
}

/// How often each interesting path ran, so a silent generator change
/// cannot leave one unexercised.
#[derive(Default, Debug)]
struct Coverage {
    monotone_pushes: usize,
    random_pushes: usize,
    equal_pushes: usize,
    new_epochs: usize,
    repeated_epochs: usize,
    stale_skipped: usize,
    pops: usize,
    commits: usize,
    unpops: usize,
    drains: usize,
    drained_clock_moves: usize,
}

struct Pair {
    new: EventQueue<u64>,
    old: oracle::EventQueue<Tagged>,
    /// The latest timer epoch pushed (the engine's current generation).
    epoch: u64,
    next_id: u64,
    /// Latest plain push time, for monotone (arrival-like) pushes.
    last_push: SimTime,
    /// No push lands before this: set, during a window, to the last entry
    /// about to be committed, so that committing never passes a push.
    floor: SimTime,
    acted: u64,
    cov: Coverage,
}

impl Pair {
    fn new() -> Self {
        Pair {
            new: EventQueue::new(),
            old: oracle::EventQueue::new(),
            epoch: 0,
            next_id: 0,
            last_push: SimTime::ZERO,
            floor: SimTime::ZERO,
            acted: 0,
            cov: Coverage::default(),
        }
    }

    fn stale(&self, p: &Tagged) -> bool {
        p.epoch.is_some_and(|e| e != self.epoch)
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Events are only ever pushed by a handler of an acted-on event, so
    /// never before either queue's clock (the oracle's clock can run ahead
    /// after committing a stale timer).
    fn base(&self) -> SimTime {
        self.new.now().max(self.old.now()).max(self.floor)
    }

    fn push(&mut self, rng: &mut DetRng) {
        let base = self.base();
        let at = match rng.range_usize(0, 3) {
            0 => {
                self.cov.monotone_pushes += 1;
                self.last_push.max(base) + SimDuration(rng.range_usize(0, 3) as u64)
            }
            1 => {
                self.cov.random_pushes += 1;
                base + SimDuration(rng.range_usize(0, 60) as u64)
            }
            _ => {
                self.cov.equal_pushes += 1;
                base
            }
        };
        self.last_push = self.last_push.max(at);
        let id = self.id();
        self.new.push(at, id);
        self.old.push(at, Tagged { id, epoch: None });
    }

    fn push_timer(&mut self, rng: &mut DetRng) {
        if self.epoch == 0 || rng.chance(0.7) {
            self.epoch += rng.range_usize(1, 3) as u64;
            self.cov.new_epochs += 1;
        } else {
            self.cov.repeated_epochs += 1;
        }
        let at = self.base() + SimDuration(rng.range_usize(0, 40) as u64);
        let id = self.id();
        self.new.push_timer(at, self.epoch, id);
        let tagged = Tagged {
            id,
            epoch: Some(self.epoch),
        };
        self.old.push(at, tagged);
    }

    /// The oracle's next acted-on event: stale timers pop and are ignored.
    fn old_pop(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let (t, p) = self.old.pop()?;
            if self.stale(&p) {
                self.cov.stale_skipped += 1;
                continue;
            }
            return Some((t, p.id));
        }
    }

    fn pop(&mut self, ctx: &str) {
        let got = self.new.pop();
        assert_eq!(got, self.old_pop(), "{ctx}: popped event");
        match got {
            Some(_) => {
                self.acted += 1;
                self.cov.pops += 1;
            }
            None => self.cov.drains += 1,
        }
        self.check_clock(ctx);
    }

    fn check_clock(&mut self, ctx: &str) {
        assert_eq!(self.new.now(), self.old.now(), "{ctx}: clock");
    }

    /// The windowed executor's protocol: drain up to `k` entries, commit a
    /// prefix in drain order and return the rest. The oracle handles a
    /// stale timer as the engine's loop does: committed (and ignored) at
    /// the head of an empty window, otherwise returned and the draining
    /// stops. The new queue holds no stale timer there, so it drains one
    /// entry further (and returns it at once), possibly finding the queue
    /// empty while entries are out.
    fn window(&mut self, rng: &mut DetRng, ctx: &str) {
        let k = rng.range_usize(1, 7);
        let mut old_batch: Vec<oracle::QueuedEvent<Tagged>> = Vec::new();
        let mut hit_end = false;
        let mut hit_stale = false;
        while old_batch.len() < k {
            let Some(e) = self.old.pop_entry() else {
                hit_end = true;
                break;
            };
            if !self.stale(&e.payload) {
                old_batch.push(e);
            } else if old_batch.is_empty() {
                self.old.commit_entry(&e);
                self.cov.stale_skipped += 1;
            } else {
                self.old.unpop(e);
                hit_stale = true;
                break;
            }
        }
        let mut new_batch: Vec<QueuedEvent<u64>> = Vec::new();
        for e in &old_batch {
            let n = self.new.pop_entry().expect("oracle drained a live entry");
            assert_eq!(
                (n.time, n.payload),
                (e.time, e.payload.id),
                "{ctx}: drained"
            );
            new_batch.push(n);
        }
        if hit_end {
            assert!(
                self.new.pop_entry().is_none(),
                "{ctx}: drained past the end"
            );
            if old_batch.is_empty() {
                self.cov.drains += 1;
                self.check_clock(ctx);
            }
        } else if hit_stale {
            if let Some(n) = self.new.pop_entry() {
                self.new.unpop(n);
            }
        }
        let m = rng.range_usize(0, old_batch.len() + 1);
        // A push may land while entries are out (not in the engine, but
        // the protocol allows it), superseding an outstanding timer. It
        // must not precede the prefix about to be committed.
        if rng.chance(0.2) {
            self.floor = new_batch[..m].last().map_or(SimTime::ZERO, |e| e.time);
            if rng.chance(0.5) {
                self.push_timer(rng);
            } else {
                self.push(rng);
            }
            self.floor = SimTime::ZERO;
        }
        let mut old_tail = old_batch.split_off(m);
        let mut new_tail = new_batch.split_off(m);
        for (n, o) in new_batch.iter().zip(&old_batch) {
            self.new.commit_entry(n);
            self.old.commit_entry(o);
            self.acted += 1;
            self.cov.commits += 1;
            self.check_clock(ctx);
        }
        // Return the tail in a random order: position comes from the seq.
        while !new_tail.is_empty() {
            let i = rng.range_usize(0, new_tail.len());
            self.new.unpop(new_tail.swap_remove(i));
            self.old.unpop(old_tail.swap_remove(i));
            self.cov.unpops += 1;
        }
    }

    fn check(&mut self, ctx: &str) {
        assert_eq!(
            self.new.peek_time(),
            self.old.live_peek_time(self.epoch),
            "{ctx}: peek"
        );
        let live = self.old.live_len(self.epoch);
        assert_eq!(self.new.len(), live, "{ctx}: len");
        assert_eq!(self.new.is_empty(), live == 0, "{ctx}: is_empty");
        assert_eq!(self.new.events_processed(), self.acted, "{ctx}: acted on");
    }

    fn step(&mut self, rng: &mut DetRng, mix: Mix, ctx: &str) {
        match (mix, rng.range_usize(0, 100)) {
            (Mix::Timers, 0..=29) => self.push_timer(rng),
            // Short bursts drained by one window: windows often run the
            // queue empty with entries still out.
            (Mix::Bursts, n) => {
                for _ in 0..n % 4 + 1 {
                    if rng.chance(0.5) {
                        self.push_timer(rng);
                    } else {
                        self.push(rng);
                    }
                }
                self.window(rng, ctx);
            }
            (_, 0..=34) => self.push(rng),
            (_, 35..=54) => self.push_timer(rng),
            (_, 55..=79) => self.pop(ctx),
            _ => self.window(rng, ctx),
        }
    }

    /// Pop everything left; both clocks must then agree, dropped timers
    /// included.
    fn drain(&mut self, ctx: &str) {
        let before = self.new.now();
        while self.new.peek_time().is_some() {
            self.pop(ctx);
        }
        self.pop(ctx);
        assert!(self.new.is_empty() && self.old.is_empty(), "{ctx}: drained");
        if self.new.now() > before {
            self.cov.drained_clock_moves += 1;
        }
    }
}

/// The operation mix of a test.
#[derive(Clone, Copy)]
enum Mix {
    Uniform,
    Timers,
    Bursts,
}

const CASES: u64 = 64;
const OPS: usize = 400;

fn run_cases(stream: u64, mix: Mix) -> Coverage {
    let mut total = Coverage::default();
    for case in 0..CASES {
        let mut rng = substream(stream, case);
        let mut pair = Pair::new();
        for op in 0..OPS {
            let ctx = format!("case {case} op {op}");
            pair.step(&mut rng, mix, &ctx);
            pair.check(&ctx);
        }
        pair.drain(&format!("case {case} drain"));
        let c = pair.cov;
        total.monotone_pushes += c.monotone_pushes;
        total.random_pushes += c.random_pushes;
        total.equal_pushes += c.equal_pushes;
        total.new_epochs += c.new_epochs;
        total.repeated_epochs += c.repeated_epochs;
        total.stale_skipped += c.stale_skipped;
        total.pops += c.pops;
        total.commits += c.commits;
        total.unpops += c.unpops;
        total.drains += c.drains;
        total.drained_clock_moves += c.drained_clock_moves;
    }
    total
}

fn assert_covered(c: &Coverage) {
    for (what, n) in [
        ("monotone pushes", c.monotone_pushes),
        ("random pushes", c.random_pushes),
        ("equal pushes", c.equal_pushes),
        ("new epochs", c.new_epochs),
        ("repeated epochs", c.repeated_epochs),
        ("stale timers skipped", c.stale_skipped),
        ("pops", c.pops),
        ("commits", c.commits),
        ("unpops", c.unpops),
        ("drains", c.drains),
        ("drained clock moves", c.drained_clock_moves),
    ] {
        assert!(n >= 20, "only {n} {what} across all cases");
    }
}

/// Same operations, same acted-on events in the same order, same clock.
#[test]
fn calendar_matches_the_heap_only_oracle() {
    assert_covered(&run_cases(0xE7E7_0001, Mix::Uniform));
}

/// Timer-heavy sequences (the network-poll churn of a replay): most timers
/// are superseded before they are due, so the drained clock often rests on
/// a dropped one.
#[test]
fn timer_churn_matches_the_heap_only_oracle() {
    assert_covered(&run_cases(0xE7E7_0002, Mix::Timers));
}

/// Bursts of pushes, each drained by one window: the queue runs empty
/// while entries are still out, where the drained clock must wait for
/// them, and supersedes outstanding timers.
#[test]
fn drained_windows_match_the_heap_only_oracle() {
    assert_covered(&run_cases(0xE7E7_0003, Mix::Bursts));
}

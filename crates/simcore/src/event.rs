//! The event calendar: a time-ordered queue of simulation events.
//!
//! Two properties matter for reproducibility:
//!
//! 1. **Total order.** Events are keyed by `(SimTime, sequence)` where the
//!    sequence number is assigned at push time, so ties at the same instant
//!    pop in insertion order (FIFO). A simulation run is then a pure function
//!    of its inputs.
//! 2. **Superseding timers.** Processor-sharing resources reschedule their
//!    completion events every time a flow joins or leaves. Such events are
//!    pushed with [`EventQueue::push_timer`] and stamped with an *epoch* (the
//!    flow network's generation); a push with a newer epoch drops every
//!    timer of an older one. Epochs only grow, so a dropped timer could only
//!    have popped as a stale no-op. A timer can still go stale without a
//!    newer push (the epoch moved but nothing was rescheduled), so callers
//!    keep checking the stamp they get back (see [`crate::ps`]).
//!
//! Pending events live in three containers, and every pop takes the
//! smallest `(time, seq)` of their heads:
//!
//! - the *lane*, a FIFO holding each push whose time is at or after the
//!   lane's last entry. Sequence numbers are global, so the lane is sorted
//!   by `(time, seq)`; pre-submitted arrivals land here and never enter the
//!   heap;
//! - the timers of the current epoch, in a short sorted `Vec`;
//! - a binary heap for everything else.
//!
//! **Drained clock.** A dropped timer never pops, yet its timestamp used to
//! become the clock when it popped as a no-op. Once the queue runs empty
//! (with no entry drained by [`EventQueue::pop_entry`] still outstanding),
//! the clock therefore moves to the latest dropped timer if that lies ahead:
//! it ends at the latest time ever scheduled, as if every stale timer had
//! popped.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// `E` is the simulation-specific event payload; the engine that owns the
/// queue pops `(time, payload)` pairs and dispatches on the payload.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Pushes in non-decreasing time order, sorted by `(time, seq)`.
    lane: VecDeque<Entry<E>>,
    /// Timers of epoch `epoch`, sorted by descending `(time, seq)` so the
    /// next one is last.
    timers: Vec<Entry<E>>,
    epoch: u64,
    /// Latest timestamp of a dropped timer (the drained clock).
    dropped_until: SimTime,
    /// Entries handed out by `pop_entry` and not yet committed or unpopped.
    outstanding: usize,
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
    /// The timer epoch, for an entry pushed by [`EventQueue::push_timer`].
    epoch: Option<u64>,
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

/// Which container holds the next event.
enum Head {
    Heap,
    Lane,
    Timer,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            timers: Vec::new(),
            epoch: 0,
            dropped_until: SimTime::ZERO,
            outstanding: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (zero before the first pop), or the drained clock once the queue has
    /// run empty.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (a cheap progress/debug counter).
    /// Dropped timers never pop, so they are not counted.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    fn entry(&mut self, at: SimTime, payload: E) -> Entry<E> {
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
        entry
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past; scheduling into the past would silently
    /// corrupt causality, so it is a programming error.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        if self.lane.back().is_none_or(|last| last.time <= at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Schedule a timer `payload` at `at`, stamped with `epoch`. A newer
    /// epoch than the queue's current one drops every pending timer of the
    /// older epoch first; timers of the current epoch stay, each in its
    /// original order position.
    ///
    /// # Panics
    /// Panics if `at` is in the past or `epoch` is older than the current
    /// timer epoch (epochs must never decrease).
    pub fn push_timer(&mut self, at: SimTime, epoch: u64, payload: E) {
        assert!(
            epoch >= self.epoch,
            "timer epoch went backwards: {epoch} < {}",
            self.epoch
        );
        if epoch > self.epoch {
            self.epoch = epoch;
            self.drop_timers();
        }
        let entry = self.entry(at, payload);
        self.insert_timer(entry);
    }

    fn drop_timers(&mut self) {
        // Sorted descending: the first timer is the latest.
        if let Some(latest) = self.timers.first() {
            self.dropped_until = self.dropped_until.max(latest.time);
        }
        self.timers.clear();
    }

    fn insert_timer(&mut self, entry: Entry<E>) {
        let at = self.timers.partition_point(|t| *t > entry);
        self.timers.insert(at, entry);
    }

    /// The smallest `(time, seq)` entry and its container, if any.
    fn head(&self) -> Option<(&Entry<E>, Head)> {
        let mut best = self.heap.peek().map(|Reverse(e)| (e, Head::Heap));
        for (cand, which) in [
            (self.lane.front(), Head::Lane),
            (self.timers.last(), Head::Timer),
        ] {
            if let Some(c) = cand {
                if best.as_ref().is_none_or(|(b, _)| c < *b) {
                    best = Some((c, which));
                }
            }
        }
        best
    }

    /// Remove the next entry, with its timer epoch; on an empty queue with
    /// nothing outstanding, apply the drained clock.
    fn take(&mut self) -> Option<(Entry<E>, Option<u64>)> {
        let taken = match self.head().map(|(_, which)| which) {
            Some(Head::Heap) => self.heap.pop().map(|Reverse(e)| (e, None)),
            Some(Head::Lane) => self.lane.pop_front().map(|e| (e, None)),
            Some(Head::Timer) => self.timers.pop().map(|e| (e, Some(self.epoch))),
            None => {
                if self.outstanding == 0 {
                    self.now = self.now.max(self.dropped_until);
                }
                None
            }
        };
        debug_assert!(
            taken.as_ref().is_none_or(|(e, _)| e.time >= self.now),
            "queue yielded an out-of-order event"
        );
        taken
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (entry, _) = self.take()?;
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(e, _)| e.time)
    }

    /// Remove the next event *without* advancing the clock or the popped
    /// counter, exposing its position in the queue's total order.
    ///
    /// This is the speculative half of the windowed-replay protocol: a
    /// conservative parallel executor drains a window of entries, decides
    /// which prefix it can safely process, then either [`commit_entry`]s an
    /// entry (observing it exactly as [`pop`] would have) or [`unpop`]s it
    /// back untouched. Draining via `pop_entry` alone leaves the queue's
    /// observable state (`now`, `events_processed`) unchanged, except that
    /// an empty queue with nothing outstanding applies the drained clock.
    ///
    /// [`commit_entry`]: EventQueue::commit_entry
    /// [`unpop`]: EventQueue::unpop
    /// [`pop`]: EventQueue::pop
    pub fn pop_entry(&mut self) -> Option<QueuedEvent<E>> {
        let (entry, epoch) = self.take()?;
        self.outstanding += 1;
        Some(QueuedEvent {
            time: entry.time,
            seq: entry.seq,
            epoch,
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
        self.outstanding -= 1;
        self.now = entry.time;
        self.popped += 1;
    }

    /// Return a drained entry to the queue in its original total-order
    /// position (the sequence number captured at [`EventQueue::pop_entry`]
    /// is preserved, so FIFO tie-breaking is unaffected). A timer goes back
    /// among the timers, or is dropped if a newer epoch arrived meanwhile.
    pub fn unpop(&mut self, entry: QueuedEvent<E>) {
        self.outstanding -= 1;
        let QueuedEvent {
            time,
            seq,
            epoch,
            payload,
        } = entry;
        let entry = Entry { time, seq, payload };
        match epoch {
            None => self.heap.push(Reverse(entry)),
            Some(e) if e == self.epoch => self.insert_timer(entry),
            Some(_) => self.dropped_until = self.dropped_until.max(time),
        }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events (dropped timers excluded).
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(9), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.pop();
        q.push(q.now(), 2);
        q.push(q.now() + SimDuration::ZERO, 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
    }

    #[test]
    fn pop_entry_unpop_preserves_order_and_clock() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.push(t, i);
        }
        // Drain a window speculatively, then put everything back.
        let drained: Vec<_> = (0..4).map(|_| q.pop_entry().unwrap()).collect();
        assert_eq!(
            q.now(),
            SimTime::ZERO,
            "draining must not advance the clock"
        );
        assert_eq!(q.events_processed(), 0);
        for e in drained.into_iter().rev() {
            q.unpop(e);
        }
        // FIFO tie-break order is intact after the round trip.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn commit_entry_matches_pop_accounting() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let e = q.pop_entry().unwrap();
        assert_eq!(e.payload, "a");
        q.commit_entry(&e);
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.events_processed(), 1);
        // A normal pop continues from where the committed entry left off.
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "committed out of order")]
    fn commit_entry_rejects_time_regression() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        let first = q.pop_entry().unwrap();
        let second = q.pop_entry().unwrap();
        q.commit_entry(&second);
        q.commit_entry(&first);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn a_newer_epoch_drops_older_timers_and_keeps_its_own() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime::from_secs(4), 1, "old");
        q.push_timer(SimTime::from_secs(2), 2, "a");
        q.push(SimTime::from_secs(3), "plain");
        // A same-epoch duplicate keeps its own order position.
        q.push_timer(SimTime::from_secs(2), 2, "b");
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "plain"]);
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn drained_clock_reaches_the_latest_dropped_timer() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime::from_secs(9), 1, ());
        q.push_timer(SimTime::from_secs(5), 2, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_secs(9));
    }

    #[test]
    fn drained_clock_waits_for_outstanding_entries() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime::from_secs(9), 1, 0);
        q.push_timer(SimTime::from_secs(1), 2, 1);
        q.push(SimTime::from_secs(2), 2);
        let a = q.pop_entry().unwrap();
        let b = q.pop_entry().unwrap();
        // Empty, but two entries are still out: the clock must not jump
        // past them.
        assert!(q.pop_entry().is_none());
        assert_eq!(q.now(), SimTime::ZERO);
        q.commit_entry(&a);
        q.unpop(b);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop_entry().is_none());
        assert_eq!(q.now(), SimTime::from_secs(9));
    }

    #[test]
    fn unpopped_timers_stay_timers() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime::from_secs(1), 1, "t1");
        q.push_timer(SimTime::from_secs(2), 1, "t2");
        let t1 = q.pop_entry().unwrap();
        let t2 = q.pop_entry().unwrap();
        q.unpop(t1);
        // A newer epoch supersedes both the queued and the outstanding timer.
        q.push_timer(SimTime::from_secs(3), 2, "t3");
        q.unpop(t2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "t3")));
    }

    #[test]
    fn lane_and_heap_merge_in_total_order() {
        let mut q = EventQueue::new();
        // Monotone pushes fill the lane; the earlier ones go to the heap.
        for (t, e) in [(1, 0), (3, 1), (3, 2), (2, 3), (5, 4), (3, 5), (1, 6)] {
            q.push(SimTime::from_secs(t), e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 6, 3, 1, 2, 5, 4]);
    }

    #[test]
    #[should_panic(expected = "timer epoch went backwards")]
    fn rejects_older_timer_epochs() {
        let mut q = EventQueue::new();
        q.push_timer(SimTime::from_secs(1), 2, ());
        q.push_timer(SimTime::from_secs(1), 1, ());
    }
}

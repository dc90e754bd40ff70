//! A deterministic, cancellable event queue.
//!
//! Events fire in time order; ties are broken by insertion order, so a
//! simulation run is a pure function of its inputs. Every pending event
//! carries the key `(ticks, seq)`: its instant, then the sequence number
//! [`EventQueue::schedule`] (or [`EventQueue::alloc_seq`]) issued it.
//! Sequence numbers only grow, so keys are unique and the pop order is
//! total.
//!
//! The queue is an **indexed 4-ary min-heap** on that key, the same
//! shape as the EDF ready queue (`task::queue::EdfQueue`):
//!
//! * heap nodes are bare 16-byte `(ticks, seq, slot)` triples, four
//!   children to a node, so one sift step compares a cache line's worth
//!   of siblings and the tree is half as deep as a binary heap's;
//! * payloads (`Copy`) live out of line in a **slab** with a free list,
//!   and each slot records its node's heap position, so
//!   [`cancel`](EventQueue::cancel) removes the exact node in
//!   `O(log n)` — no tombstones left behind to skip on pop — and
//!   [`peek_time`](EventQueue::peek_time) reads the root in `O(1)`;
//! * both sifts move a hole and write the travelling node once.
//!
//! A heap suits the simulator because it never holds many events: after
//! the release tape elides periodic arrivals, a trial keeps a few dozen
//! pending, so a push or pop is two or three sift levels within a few
//! cache lines, with no structure to maintain beyond them (DESIGN.md
//! §8.1 has the measured depths and costs).
//!
//! An [`EventId`] carries `(slot, seq)`: the slot addresses the slab
//! and the sequence number acts as a generation check, so handles to
//! events that already fired, were cancelled, or whose slot was
//! recycled are rejected in O(1).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Handle to a scheduled event, usable to cancel it.
///
/// A handle is invalidated once its event fires or is cancelled;
/// [`EventQueue::cancel`] on a stale handle returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    slot: u32,
    seq: u32,
}

/// Sentinel for "no slot" at the end of the free-slot chain.
const NIL: u32 = u32::MAX;

/// Children per heap node.
const ARITY: usize = 4;

/// `seq` value marking a freed slot: [`EventQueue::schedule`] refuses
/// to issue it (after 2^32 - 1 events on one queue), so a dead slot
/// fails every handle's generation check.
const SEQ_DEAD: u32 = u32::MAX;

/// Outlined panic for scheduling into the past, keeping the format
/// machinery off the hot path. Only reachable after at least one pop,
/// so `last` is always `Some`.
#[cold]
#[inline(never)]
fn past_panic(time: SimTime, last: Option<SimTime>) -> ! {
    let last = last.expect("a floor implies a popped event");
    panic!("cannot schedule an event at {time} before the current time {last}");
}

/// One pending event as the heap sees it: the `(ticks, seq)` key and
/// the slab slot backing its handle and payload. Plain 16 bytes,
/// independent of the payload type.
#[derive(Debug, Clone, Copy)]
struct Node {
    ticks: i64,
    seq: u32,
    slot: u32,
}

impl Node {
    #[inline]
    fn key(self) -> (i64, u32) {
        (self.ticks, self.seq)
    }
}

/// Cancellation bookkeeping and payload storage for one live event.
#[derive(Debug)]
struct Slot<E> {
    /// Sequence number of the occupying event — the generation check
    /// for stale handles — or [`SEQ_DEAD`] while the slot sits on the
    /// free list.
    seq: u32,
    /// The node's heap index while live; the next free slot while free.
    pos: u32,
    payload: E,
}

/// Lifetime operation counts of an [`EventQueue`], for observability.
///
/// Only events that entered the queue count: sequence numbers claimed
/// through [`EventQueue::alloc_seq`] for events kept outside it do not.
/// Gathering these costs the hot paths nothing: `scheduled` is the
/// sequence counter the queue already maintains less the claims,
/// `popped` is derived (`scheduled - cancelled - cleared - pending`),
/// and `cancelled` / `cleared` live on cold paths — except
/// `max_pending`, one predictable compare per schedule, and the claim
/// count, one add per claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events removed by [`EventQueue::pop`].
    pub popped: u64,
    /// Events removed by [`EventQueue::cancel`].
    pub cancelled: u64,
    /// Events dropped by [`EventQueue::clear`].
    pub cleared: u64,
    /// Events pending right now.
    pub pending: u64,
    /// Current slab capacity in slots — how much pending-event storage
    /// the queue retains across [`EventQueue::clear`] /
    /// [`EventQueue::reset`]. Pooled sweeps read this as the pool's
    /// high-water mark.
    pub slab_capacity: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
}

/// A time-ordered queue of simulation events with stable tie-breaking:
/// `O(log n)` scheduling, popping and true cancellation, `O(1)` peeking.
///
/// Payloads must be `Copy`: they are stored out-of-line in the slab
/// and copied out when the event fires.
///
/// # Examples
///
/// ```
/// use harvest_sim::event::EventQueue;
/// use harvest_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_whole_units(5), "later");
/// q.schedule(SimTime::from_whole_units(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_whole_units(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events as a 4-ary min-heap on `(ticks, seq)`.
    heap: Vec<Node>,
    /// Cancellation and payload slab; freed slots are chained through
    /// `pos`.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot chain.
    free_head: u32,
    next_seq: u32,
    last_popped: Option<SimTime>,
    /// Ticks of the last popped event (`i64::MIN` before any pop):
    /// scheduling below it is scheduling into the past.
    floor: i64,
    /// High-water mark of the heap length.
    max_len: usize,
    /// Events removed by [`cancel`](Self::cancel).
    cancelled: u64,
    /// Events dropped by [`clear`](Self::clear).
    cleared: u64,
    /// Sequence numbers claimed by [`alloc_seq`](Self::alloc_seq) for
    /// events kept outside the queue.
    claimed: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            last_popped: None,
            floor: i64::MIN,
            max_len: 0,
            cancelled: 0,
            cleared: 0,
            claimed: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the heap or the slab reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.heap.reserve(capacity);
        q.slots.reserve(capacity);
        q
    }

    /// Schedules `payload` to fire at `time`, returning a cancellation
    /// handle. Events scheduled for the same instant fire in scheduling
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies before the last popped event — the past is
    /// immutable in a discrete-event simulation.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let ticks = time.as_ticks();
        if ticks < self.floor {
            past_panic(time, self.last_popped);
        }
        let seq = self.take_seq();
        let pos = self.heap.len() as u32;
        let s = Slot { seq, pos, payload };
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.slots[slot as usize].pos;
            self.slots[slot as usize] = s;
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "event queue slot index space exhausted");
            self.slots.push(s);
            slot
        };
        let node = Node { ticks, seq, slot };
        self.heap.push(node);
        self.sift_up(pos as usize, node);
        if self.heap.len() > self.max_len {
            self.max_len = self.heap.len();
        }
        EventId { slot, seq }
    }

    /// Cancels a previously scheduled event, removing it immediately.
    /// Returns `true` if the event was still pending; handles to events
    /// that already fired, were already cancelled, or were dropped by
    /// [`clear`](Self::clear) return `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let i = match self.slots.get(id.slot as usize) {
            Some(s) if s.seq == id.seq => s.pos as usize,
            _ => return false,
        };
        let last = self.heap.pop().expect("a live handle has a node");
        if i < self.heap.len() {
            // The filler came from the bottom, but after an interior
            // removal it may belong either above or below `i`.
            if self.sift_up(i, last) == i {
                self.sift_down(i, last);
            }
        }
        self.free_slot(id.slot);
        self.cancelled += 1;
        true
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        let time = SimTime::from_ticks(top.ticks);
        self.floor = top.ticks;
        self.last_popped = Some(time);
        let payload = self.slots[top.slot as usize].payload;
        self.free_slot(top.slot);
        Some((time, payload))
    }

    /// Time of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|n| SimTime::from_ticks(n.ticks))
    }

    /// `(time, seq)` of the earliest pending event without removing it.
    ///
    /// Sequence numbers order same-instant events in scheduling order,
    /// so this key totally orders the queue's head against events held
    /// outside the queue whose sequence numbers came from
    /// [`alloc_seq`](Self::alloc_seq).
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u32)> {
        self.heap
            .first()
            .map(|n| (SimTime::from_ticks(n.ticks), n.seq))
    }

    /// Claims the next sequence number without scheduling anything.
    ///
    /// A caller that keeps some events *outside* the queue (e.g. a
    /// precomputed [`ReleaseTape`] consumed by a cursor) allocates their
    /// sequence numbers here, at the exact points the heap-driven run
    /// would have scheduled them. Merging by `(time, seq)` against
    /// [`peek_key`](Self::peek_key) then reproduces the heap-driven
    /// dispatch order bit for bit, because every event — queued or
    /// elided — carries the same key it would have carried in the queue.
    ///
    /// Claimed numbers are counted apart, so [`QueueStats`] reports
    /// only the events that entered the queue.
    ///
    /// # Panics
    ///
    /// Panics if the sequence space is exhausted.
    #[inline]
    pub fn alloc_seq(&mut self) -> u32 {
        self.claimed += 1;
        self.take_seq()
    }

    #[inline]
    fn take_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        assert!(seq != SEQ_DEAD, "event queue sequence space exhausted");
        self.next_seq += 1;
        seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the most recently popped event, i.e. "now" from the
    /// queue's perspective.
    pub fn current_time(&self) -> Option<SimTime> {
        self.last_popped
    }

    /// Lifetime operation counts; see [`QueueStats`].
    pub fn stats(&self) -> QueueStats {
        let scheduled = self.next_seq as u64 - self.claimed;
        let pending = self.heap.len() as u64;
        QueueStats {
            scheduled,
            popped: scheduled - self.cancelled - self.cleared - pending,
            cancelled: self.cancelled,
            cleared: self.cleared,
            pending,
            slab_capacity: self.slots.capacity() as u64,
            max_pending: self.max_len as u64,
        }
    }

    /// Number of slab slots the queue can hold without reallocating.
    /// Capacity survives [`clear`](Self::clear) and
    /// [`reset`](Self::reset), which is what makes pooled reuse
    /// allocation-free.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Restores the queue to its as-new logical state — empty, sequence
    /// counter at zero, no time floor, statistics zeroed — while keeping
    /// both allocations. A run executed on a reset queue is
    /// bit-identical to one executed on a fresh queue: scheduling order,
    /// sequence tie-breaking, and [`stats`](Self::stats) all replay
    /// exactly.
    ///
    /// This is the pooling primitive: [`clear`](Self::clear) only drops
    /// pending events (the time floor stays, so a cleared queue still
    /// rejects scheduling before the last popped instant), while `reset`
    /// rewinds the clock for the next independent run.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free_head = NIL;
        self.next_seq = 0;
        self.last_popped = None;
        self.floor = i64::MIN;
        self.max_len = 0;
        self.cancelled = 0;
        self.cleared = 0;
        self.claimed = 0;
    }

    /// Drops every pending event. Outstanding handles become stale.
    pub fn clear(&mut self) {
        self.cleared += self.heap.len() as u64;
        self.heap.clear();
        self.slots.clear();
        self.free_head = NIL;
    }

    /// Chains the slot onto the free list; its old handles go stale.
    #[inline]
    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.seq = SEQ_DEAD;
        s.pos = self.free_head;
        self.free_head = slot;
    }

    /// Moves a hole at `i` toward the root until `node` fits, writes
    /// `node` there, and returns its final index. Every node the hole
    /// passes moves down one level and has its slab position updated.
    #[inline]
    fn sift_up(&mut self, mut i: usize, node: Node) -> usize {
        let key = node.key();
        while i > 0 {
            let p = (i - 1) / ARITY;
            let parent = self.heap[p];
            if parent.key() <= key {
                break;
            }
            self.heap[i] = parent;
            self.slots[parent.slot as usize].pos = i as u32;
            i = p;
        }
        self.heap[i] = node;
        self.slots[node.slot as usize].pos = i as u32;
        i
    }

    /// Moves a hole at `i` toward the leaves until `node` fits, pulling
    /// the smallest child up at each step, and writes `node` there.
    #[inline]
    fn sift_down(&mut self, mut i: usize, node: Node) {
        let n = self.heap.len();
        let key = node.key();
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let end = (first + ARITY).min(n);
            let mut m = first;
            let mut m_key = self.heap[first].key();
            for c in first + 1..end {
                let c_key = self.heap[c].key();
                if c_key < m_key {
                    m = c;
                    m_key = c_key;
                }
            }
            if key <= m_key {
                break;
            }
            let child = self.heap[m];
            self.heap[i] = child;
            self.slots[child.slot as usize].pos = i as u32;
            i = m;
        }
        self.heap[i] = node;
        self.slots[node.slot as usize].pos = i as u32;
    }
}

/// One elided release: task `task`'s `job_seq`-th arrival, at `ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleaseEntry {
    /// Arrival instant in ticks.
    pub ticks: i64,
    /// Index of the releasing task in its task set.
    pub task: u32,
    /// Zero-based arrival count of this task (0 for the phase release).
    pub job_seq: u32,
}

/// A precomputed, shareable release timeline: every periodic arrival
/// inside a horizon, in the exact order a heap-driven simulation would
/// pop them.
///
/// Task releases are closed-form — seed-, policy-, and state-independent
/// — so a simulator can elide them from its [`EventQueue`] entirely: the
/// tape is built once per scenario, shared read-only (`Arc`) across
/// every trial and worker shard, and consumed by a monotone
/// cursor. The queue then only carries the state-dependent traffic
/// (policy re-evaluations, samples, fault edges); `harvest-core` keeps
/// the deadline checks beside it too, in per-task FIFOs.
///
/// **Ordering.** Entries are *not* sorted by `(ticks, task)`: they are
/// emitted in the order the heap-driven run pops arrivals, which is
/// `(ticks, seq)` order under the queue's scheduling discipline (seed
/// all phase arrivals in task order, then each handled arrival schedules
/// its successor). A consumer that allocates one [`EventQueue::alloc_seq`]
/// sequence number per entry at those same points reproduces the
/// heap-driven keys — and therefore the dispatch order — exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleaseTape {
    /// Arrivals in heap pop order; see the type docs for why this is not
    /// plain `(ticks, task)` order.
    entries: Vec<ReleaseEntry>,
    /// Horizon (exclusive, in ticks) the tape was built for. Arrivals at
    /// or past the horizon are clipped.
    horizon_ticks: i64,
    /// Number of tasks in the task set the tape was built from.
    task_count: u32,
}

impl ReleaseTape {
    /// Builds a tape from pre-ordered entries. `entries` must be in heap
    /// pop order and clipped to `horizon_ticks` (see
    /// `TaskSet::release_tape`, which is how tapes are normally made).
    pub fn from_entries(entries: Vec<ReleaseEntry>, horizon_ticks: i64, task_count: u32) -> Self {
        debug_assert!(entries.iter().all(|e| e.ticks < horizon_ticks));
        debug_assert!(entries.windows(2).all(|w| w[0].ticks <= w[1].ticks));
        ReleaseTape {
            entries,
            horizon_ticks,
            task_count,
        }
    }

    /// The arrivals, in heap pop order.
    pub fn entries(&self) -> &[ReleaseEntry] {
        &self.entries
    }

    /// Number of arrivals on the tape.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the horizon holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Horizon (exclusive, in ticks) the tape was built for.
    pub fn horizon_ticks(&self) -> i64 {
        self.horizon_ticks
    }

    /// Number of tasks in the originating task set.
    pub fn task_count(&self) -> usize {
        self.task_count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: i64) -> SimTime {
        SimTime::from_whole_units(u)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.schedule(t(5), 2);
        q.schedule(t(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(1), "dead");
        q.schedule(t(2), "alive");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("alive"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_pop_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
        assert!(!q.cancel(id), "fired events cannot be cancelled");
    }

    #[test]
    fn cancel_after_clear_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(1), ());
        q.clear();
        assert!(!q.cancel(id));
    }

    #[test]
    fn stale_handle_to_recycled_slot_is_false() {
        let mut q = EventQueue::new();
        let old = q.schedule(t(1), 'a');
        q.pop();
        // The freed slot is recycled for the next event; the old handle
        // must not cancel the new occupant.
        let new = q.schedule(t(2), 'b');
        assert!(!q.cancel(old));
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert!(!q.cancel(new));
    }

    #[test]
    fn len_accounts_for_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(7), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(7)));
    }

    #[test]
    fn cancel_interior_preserves_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..32).map(|i| q.schedule(t(31 - i), 31 - i)).collect();
        // Cancel every third event (values 31, 28, 25, ...).
        for id in ids.iter().step_by(3) {
            assert!(q.cancel(*id));
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i64> = (0..32).filter(|v| (31 - v) % 3 != 0).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn cancel_the_minimum_promotes_the_next() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert!(q.cancel(a), "cancelling the cached minimum");
        assert_eq!(q.peek_time(), Some(t(2)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..8 {
                q.schedule(t(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        // 80 events passed through, but only 8 slots were ever live.
        assert_eq!(q.slots.len(), 8);
    }

    #[test]
    fn current_time_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(4), ());
        assert_eq!(q.current_time(), None);
        q.pop();
        assert_eq!(q.current_time(), Some(t(4)));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn same_instant_as_current_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { slot: 99, seq: 99 }));
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..64 {
            q.schedule(t(i), i);
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.peek_time(), Some(t(0)));
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        assert_eq!(q.stats().max_pending, 3);
        q.cancel(a);
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 1);
        assert_eq!(s.pending, 1);
        assert_eq!(s.cleared, 0);
        q.clear();
        let s = q.stats();
        assert_eq!(s.cleared, 1);
        assert_eq!(s.pending, 0);
        assert_eq!(s.popped, 1, "clear does not count as popping");
    }

    #[test]
    fn claimed_sequence_numbers_are_not_counted_as_queue_traffic() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.pop();
        let before = q.stats();
        let claims: Vec<u32> = (0..5).map(|_| q.alloc_seq()).collect();
        assert_eq!(
            claims,
            vec![1, 2, 3, 4, 5],
            "claims draw on the shared counter"
        );
        assert_eq!(q.stats(), before, "claims schedule and pop nothing");
        q.schedule(t(2), 2);
        q.pop();
        let s = q.stats();
        assert_eq!((s.scheduled, s.popped), (2, 2));
        q.reset();
        assert_eq!(q.alloc_seq(), 0);
        assert_eq!(q.stats().scheduled, 0, "reset forgets the claims");
    }

    /// Drives a queue through a deterministic schedule/cancel/pop
    /// workload and returns the full pop order.
    fn exercise(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let ids: Vec<_> = (0..200u64)
            .map(|i| q.schedule(t(((i * 2_654_435_761) % 977) as i64), i))
            .collect();
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        for _ in 0..50 {
            out.extend(q.pop());
        }
        for i in 0..64u64 {
            q.schedule(t(2000 + ((i * 37) % 61) as i64), 1000 + i);
        }
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn reset_replays_bit_identically_to_fresh() {
        let mut fresh = EventQueue::new();
        let baseline = exercise(&mut fresh);
        let baseline_stats = fresh.stats();

        let mut pooled = EventQueue::new();
        let _ = exercise(&mut pooled);
        let warm_capacity = pooled.capacity();
        pooled.reset();
        assert!(pooled.is_empty());
        assert_eq!(pooled.current_time(), None, "reset rewinds the clock");
        assert_eq!(
            pooled.capacity(),
            warm_capacity,
            "reset must keep the slab allocation"
        );
        // Scheduling at t=0 after a reset must work (clear alone keeps
        // the advanced time bound and would panic here).
        pooled.schedule(t(0), 7);
        assert_eq!(pooled.pop(), Some((t(0), 7)));
        pooled.reset();
        let replay = exercise(&mut pooled);
        assert_eq!(replay, baseline, "pop order must replay exactly");
        let mut replay_stats = pooled.stats();
        // Capacity is the one stat allowed to differ (the pool keeps it).
        replay_stats.slab_capacity = baseline_stats.slab_capacity;
        assert_eq!(replay_stats, baseline_stats, "stats must replay exactly");
    }

    #[test]
    fn capacity_tracks_the_slab() {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.schedule(t(i as i64), i);
        }
        while q.pop().is_some() {}
        assert!(q.capacity() >= 1024);
        assert_eq!(q.stats().slab_capacity, q.capacity() as u64);
    }
}

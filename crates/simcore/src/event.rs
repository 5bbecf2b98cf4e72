//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue keyed on `(fire_time, sequence_number)`.
//! The sequence number is assigned at scheduling time, so two events
//! scheduled for the same instant always fire in the order they were
//! scheduled. This *stable tie-breaking* is the load-bearing property for
//! reproducibility: a priority queue over time alone would pop equal-time
//! events in an order that depends on internal layout, and a simulation
//! seeded identically could diverge.
//!
//! The implementation is a hierarchical timing wheel: five levels of 64
//! slots each, 8.192 µs per level-0 tick, with a `BTreeMap` overflow stage
//! for events beyond the ~2.4 h wheel horizon. Scheduling is O(1); popping
//! amortises the per-tick slot drain over the events in it.
//!
//! Every event filed in a bucket lives in one node store: a `Vec` of nodes,
//! a parallel `Vec` of `u32` links that strings them into one list per
//! bucket and a free list through the vacant ones, and one list head per
//! bucket. A cascade re-links nodes without moving their payloads; a
//! level-0 drain moves the payloads into the ready stage and frees the
//! nodes. The store grows only when no node is vacant, so it never holds
//! more nodes than the queue's peak pending count
//! ([`EventQueue::high_watermark`]), however bursts spread over buckets,
//! and the steady-state schedule/pop cycle performs no heap allocation.
//!
//! The contract it must meet is the `(time, seq)` binary-heap model kept in
//! `tests/queue_differential.rs`, which drives the wheel and the model in
//! lockstep (proptests, a 100k-op soak and a bursty soak); the unit tests
//! below pin the ordering cases with literal expectations.
//!
//! See `DESIGN.md` §5h for the bucket geometry and the determinism
//! argument.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// An event that has been scheduled on an [`EventQueue`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling order, unique per queue; earlier-scheduled events with the
    /// same `time` fire first.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

/// Slots per wheel level; must be a power of two for the mask arithmetic.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `L` slots span `64^L` ticks each.
const LEVELS: usize = 5;
/// Nanoseconds per level-0 tick, as a shift: 2^13 ns = 8.192 µs. Chosen so
/// a level-0 lap (64 ticks ≈ 524 µs) comfortably covers link serialisation
/// delays while the full wheel (64^5 ticks ≈ 2.4 h) covers every in-sim
/// timer short of day-scale campaign bookkeeping, which overflows.
const TICK_SHIFT: u32 = 13;
/// Ticks covered by the top-level window. Events outside the cursor's
/// current top-level window wait in the overflow stage.
const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

/// Level at which `tick` is filed relative to `cursor`: the level of the
/// highest bit where the two differ. At that level `tick` shares the
/// cursor's window and sits at a slot index strictly after the cursor's
/// position, so a slot's absolute range is always unambiguous (no laps).
/// `None` means the tick crosses the current level-top window boundary and
/// must wait in the overflow stage.
#[inline]
fn wheel_level(cursor: u64, tick: u64) -> Option<usize> {
    debug_assert!(tick >= cursor);
    let xor = cursor ^ tick;
    if xor == 0 {
        return Some(0);
    }
    let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
    (level < LEVELS).then_some(level)
}

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slot of the wheel's node store: a pending event linked into a
/// bucket, or (payload `None`) a vacant node on the free list.
struct Node<E> {
    time: SimTime,
    seq: u64,
    payload: Option<E>,
}

/// The hierarchical timing wheel behind [`EventQueue`].
///
/// Invariants (see DESIGN.md §5h):
/// * every event in a bucket or `overflow` has `tick >= cursor`;
/// * every event in `ready` has `tick < cursor`, and `ready` is sorted
///   descending by `(time, seq)` so the global minimum is at the back;
/// * every node is either in exactly one bucket list (payload `Some`) or
///   on the free list (payload `None`), so `nodes.len()` never exceeds
///   the peak number of events pending at once; `next.len() == nodes.len()`;
/// * `len` counts all pending events across the three stages.
struct Wheel<E> {
    /// Every event filed in a bucket, and the vacant nodes between them.
    nodes: Vec<Node<E>>,
    /// `next[i]`: the node after node `i` in its bucket or in the free
    /// list. Kept apart from `nodes` so a list walk chases 4-byte links
    /// through a compact array and the node loads it issues overlap.
    next: Vec<u32>,
    /// Head of the free list threaded through the vacant nodes.
    free: u32,
    /// `LEVELS * SLOTS` bucket list heads, flattened; bucket
    /// `level * SLOTS + slot`.
    heads: [u32; LEVELS * SLOTS],
    /// Per-level occupancy bitmap: bit `s` set iff bucket `s` is non-empty.
    occupied: [u64; LEVELS],
    /// The wheel's notion of "now", in ticks.
    cursor: u64,
    /// Drained-and-sorted events, popped from the back.
    ready: Vec<(SimTime, u64, E)>,
    /// Events beyond the wheel horizon, keyed by exact `(time_ns, seq)`.
    overflow: BTreeMap<(u64, u64), E>,
    len: usize,
}

/// Where `refill` found the earliest candidate tick.
enum Source {
    Level(usize, usize),
    Overflow,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            nodes: Vec::new(),
            next: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            cursor: 0,
            ready: Vec::new(),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    fn insert(&mut self, time: SimTime, seq: u64, payload: E) {
        self.len += 1;
        let tick = tick_of(time);
        if tick < self.cursor {
            // Fires "in the past" relative to the wheel cursor — legal,
            // the queue owns no clock. Keep it ordered in the ready stage.
            let key = (time, seq);
            let pos = self.ready.partition_point(|e| (e.0, e.1) > key);
            self.ready.insert(pos, (time, seq, payload));
            return;
        }
        self.place_in_wheel(time, seq, payload);
    }

    /// Absolute start tick of `slot` at `level`. Exact by construction:
    /// every filed event shares the cursor's window at its level.
    fn slot_start_tick(&self, level: usize, slot: usize) -> u64 {
        let span = 1u64 << (SLOT_BITS * level as u32);
        let window = span << SLOT_BITS;
        (self.cursor & !(window - 1)) + slot as u64 * span
    }

    /// First occupied slot of `level` at or after the cursor's position,
    /// with the earliest tick any of its events could fire at.
    fn first_occupied(&self, level: usize) -> Option<(usize, u64)> {
        let occ = self.occupied[level];
        if occ == 0 {
            return None;
        }
        let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
        // The window invariant keeps every occupied slot at or after the
        // cursor's position, so a plain shift scan finds the earliest.
        debug_assert_eq!(
            occ & ((1u64 << pos) - 1),
            0,
            "slot behind cursor at level {level}"
        );
        let slot = (pos + (occ >> pos).trailing_zeros()) as usize;
        Some((slot, self.slot_start_tick(level, slot).max(self.cursor)))
    }

    /// Advances the wheel until the earliest pending tick's events sit
    /// sorted in `ready`. Returns `None` when nothing is pending.
    fn refill(&mut self) -> Option<()> {
        debug_assert!(self.ready.is_empty());
        loop {
            // Earliest candidate across levels; ties prefer the *higher*
            // level so same-tick events cascade down and sort together.
            let mut best: Option<(u64, Source)> = None;
            for level in 0..LEVELS {
                if let Some((slot, start)) = self.first_occupied(level) {
                    if best.as_ref().is_none_or(|&(t, _)| start <= t) {
                        best = Some((start, Source::Level(level, slot)));
                    }
                }
            }
            // Overflow ties with a wheel candidate also migrate first, so
            // equal-tick events end up in the same level-0 drain.
            if let Some((&(t_ns, _), _)) = self.overflow.first_key_value() {
                let tick = t_ns >> TICK_SHIFT;
                if best.as_ref().is_none_or(|&(t, _)| tick <= t) {
                    best = Some((tick, Source::Overflow));
                }
            }
            match best? {
                (tick, Source::Overflow) => {
                    // Safe: `tick` is the minimum candidate, so no wheel
                    // event fires before it. Migrate everything inside the
                    // cursor's new top-level window back into the wheel.
                    self.cursor = self.cursor.max(tick);
                    let window_end = (self.cursor | (HORIZON_TICKS - 1)) + 1;
                    while let Some((&(t_ns, _), _)) = self.overflow.first_key_value() {
                        if t_ns >> TICK_SHIFT >= window_end {
                            break;
                        }
                        let ((t_ns, seq), payload) = self.overflow.pop_first().unwrap();
                        self.place_in_wheel(SimTime::from_nanos(t_ns), seq, payload);
                    }
                }
                (start, Source::Level(level, slot)) if level > 0 => {
                    // Cascade: once the cursor reaches the slot, its
                    // events share the cursor's level-`level` slot index,
                    // so each node re-links strictly below `level`. No
                    // payload moves.
                    self.cursor = self.cursor.max(start);
                    let mut idx = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
                    self.occupied[level] &= !(1 << slot);
                    while idx != NIL {
                        let next = self.next[idx as usize];
                        let tick = tick_of(self.nodes[idx as usize].time);
                        let lower = wheel_level(self.cursor, tick)
                            .filter(|&l| l < level)
                            .expect("a cascade re-files strictly below its level");
                        self.link(idx, lower, tick);
                        idx = next;
                    }
                }
                (start, Source::Level(_, slot)) => {
                    // A level-0 slot spans exactly one tick: move its
                    // payloads into `ready`, free its nodes, sort by the
                    // unique (time, seq) key, and open it for pops.
                    self.cursor = start + 1;
                    let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                    self.occupied[0] &= !(1 << slot);
                    while idx != NIL {
                        let node = &mut self.nodes[idx as usize];
                        let payload = node.payload.take().expect("a filed node holds a payload");
                        self.ready.push((node.time, node.seq, payload));
                        let next = std::mem::replace(&mut self.next[idx as usize], self.free);
                        self.free = idx;
                        idx = next;
                    }
                    self.ready
                        .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                    return Some(());
                }
            }
        }
    }

    fn place_in_wheel(&mut self, time: SimTime, seq: u64, payload: E) {
        let tick = tick_of(time);
        debug_assert!(tick >= self.cursor);
        let Some(level) = wheel_level(self.cursor, tick) else {
            // Beyond the top-level window boundary (far future, or a near
            // tick on the other side of a boundary the cursor has not
            // crossed yet): parked in the overflow stage, migrated once
            // the cursor's window reaches it.
            self.overflow.insert((time.as_nanos(), seq), payload);
            return;
        };
        let node = Node {
            time,
            seq,
            payload: Some(payload),
        };
        // Reuse a vacant node; the store grows only when every node holds
        // a pending event.
        let idx = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "node store full");
            self.nodes.push(node);
            self.next.push(NIL);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.next[idx as usize];
            self.nodes[idx as usize] = node;
            idx
        };
        self.link(idx, level, tick);
    }

    /// Pushes node `idx`, firing at `tick`, onto the front of its bucket
    /// at `level`. Order within a bucket is free: a level-0 drain sorts.
    fn link(&mut self, idx: u32, level: usize, tick: u64) {
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = &mut self.heads[level * SLOTS + slot];
        self.next[idx as usize] = *head;
        *head = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// The nodes of bucket `level * SLOTS + slot`, front to back.
    fn bucket(&self, level: usize, slot: usize) -> impl Iterator<Item = &Node<E>> {
        let mut idx = self.heads[level * SLOTS + slot];
        std::iter::from_fn(move || {
            let node = (idx != NIL).then(|| &self.nodes[idx as usize])?;
            idx = self.next[idx as usize];
            Some(node)
        })
    }

    /// The earliest pending event, advancing the wheel if needed. The
    /// advance is unobservable: events only move between internal stages.
    fn peek_next(&mut self) -> Option<&(SimTime, u64, E)> {
        if self.ready.is_empty() {
            self.refill()?;
        }
        self.ready.last()
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.ready.is_empty() {
            self.refill()?;
        }
        let e = self.ready.pop();
        debug_assert!(e.is_some());
        self.len -= e.is_some() as usize;
        e
    }

    /// Non-mutating earliest fire time: minimum over the ready stage, each
    /// level's first occupied slot, and the overflow's first key.
    fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<(u64, u64)> = None;
        let mut consider = |key: (u64, u64)| {
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        };
        if let Some((time, seq, _)) = self.ready.last() {
            consider((time.as_nanos(), *seq));
        }
        for level in 0..LEVELS {
            if let Some((slot, _)) = self.first_occupied(level) {
                for node in self.bucket(level, slot) {
                    consider((node.time.as_nanos(), node.seq));
                }
            }
        }
        if let Some((&key, _)) = self.overflow.first_key_value() {
            consider(key);
        }
        best.map(|(t_ns, _)| SimTime::from_nanos(t_ns))
    }

    fn clear(&mut self) {
        // Dropping every node drops every filed payload once; the store
        // keeps its capacity for the events that follow.
        self.nodes.clear();
        self.next.clear();
        self.free = NIL;
        self.heads = [NIL; LEVELS * SLOTS];
        self.occupied = [0; LEVELS];
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
impl<E> Wheel<E> {
    /// The node store's length and capacity.
    fn node_store(&self) -> (usize, usize) {
        (self.nodes.len(), self.nodes.capacity())
    }

    /// Pending events per stage: ready, each wheel level, overflow.
    fn stages(&self) -> (usize, [usize; LEVELS], usize) {
        let mut levels = [0; LEVELS];
        for (level, count) in levels.iter_mut().enumerate() {
            *count = (0..SLOTS)
                .map(|slot| self.bucket(level, slot).count())
                .sum();
        }
        (self.ready.len(), levels, self.overflow.len())
    }
}

/// A deterministic discrete-event queue.
///
/// The queue does not own a clock; callers track "now" themselves (usually
/// as the `time` of the last popped event). This keeps the queue reusable
/// across the network simulator, the constellation stepper and the
/// browsing-session generator, each of which drives its own loop.
///
/// ```
/// use starlink_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(3), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(1), "b"); // same instant as "a"
///
/// let fired: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(fired, vec!["a", "b", "c"]); // time order, then schedule order
/// ```
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    next_seq: u64,
    high_watermark: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            high_watermark: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Returns the sequence number
    /// assigned to the event (useful for logging or as a weak handle).
    pub fn schedule(&mut self, time: SimTime, payload: E) -> u64 {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, payload);
        seq
    }

    /// Takes the next sequence number without scheduling anything. An
    /// event later filed under it with [`EventQueue::schedule_reserved`]
    /// fires exactly where one scheduled now would have: after every
    /// same-instant event scheduled before this call, before every one
    /// scheduled after it.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time` under `seq`, a number from
    /// [`EventQueue::reserve_seq`]. Each reserved number may be filed at
    /// most once, so `(time, seq)` keys stay unique.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, payload: E) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.wheel.insert(time, seq, payload);
        starlink_obsv::counter_add("simcore.events_scheduled", 1);
        let len = self.len();
        if len > self.high_watermark {
            self.high_watermark = len;
            starlink_obsv::gauge_max("simcore.queue_high_watermark", len as i64);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, seq, payload) = self.wheel.pop()?;
        starlink_obsv::counter_add("simcore.events_popped", 1);
        Some(ScheduledEvent { time, seq, payload })
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        if self.wheel.peek_next()?.0 <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// The fire time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events (the sequence counter keeps advancing, so
    /// determinism is preserved across a clear).
    pub fn clear(&mut self) {
        self.wheel.clear();
    }

    /// The largest number of events ever simultaneously pending.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3u32);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reserved_seqs_fire_where_they_were_reserved() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule(t, "a");
        let b = q.reserve_seq();
        let late = q.reserve_seq();
        q.schedule(t, "c");
        q.schedule(SimTime::from_millis(2), "e");
        q.schedule_reserved(t, b, "b");
        assert_eq!(q.pop().map(|e| e.payload), Some("a"));
        // Filed behind the cursor, at the instant being popped, under a
        // seq older than "c"'s: still ahead of it.
        q.schedule_reserved(t, late, "b2");
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.payload))).collect();
        assert_eq!(got, vec![(b, "b"), (late, "b2"), (3, "c"), (4, "e")]);
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "early");
        q.schedule(SimTime::from_millis(30), "late");
        assert_eq!(
            q.pop_before(SimTime::from_millis(20)).map(|e| e.payload),
            Some("early")
        );
        assert!(q.pop_before(SimTime::from_millis(20)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_preserves_sequence_monotonicity() {
        let mut q = EventQueue::new();
        let s1 = q.schedule(SimTime::ZERO, ());
        q.clear();
        let s2 = q.schedule(SimTime::ZERO, ());
        assert!(s2 > s1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        q.schedule(now + SimDuration::from_millis(1), 1u32);
        q.schedule(now + SimDuration::from_millis(5), 5);
        let e = q.pop().unwrap();
        now = e.time;
        assert_eq!(e.payload, 1);
        // Schedule something between now and the pending event.
        q.schedule(now + SimDuration::from_millis(2), 3);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec![3, 5]);
    }

    #[test]
    fn schedule_in_the_past_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "future");
        // Advance the queue's internal horizon past t=10s...
        assert_eq!(q.pop().map(|e| e.payload), Some("future"));
        // ...then schedule before it: must still fire, earliest first.
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(11), "c");
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec!["a", "b", "c"]);
    }

    #[test]
    fn long_horizon_timers_cross_the_overflow_stage() {
        let mut q = EventQueue::new();
        // Beyond the wheel horizon (~2.4 h): days-scale timers.
        q.schedule(SimTime::from_secs(2 * 86_400), "day2");
        q.schedule(SimTime::from_secs(5 * 3_600), "h5");
        q.schedule(SimTime::from_millis(1), "now-ish");
        q.schedule(SimTime::from_secs(2 * 86_400), "day2-later");
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec!["now-ish", "h5", "day2", "day2-later"]);
    }

    #[test]
    fn peek_time_sees_every_stage() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3 * 86_400), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3 * 86_400)));
        q.schedule(SimTime::from_secs(7 * 60), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7 * 60)));
        q.schedule(SimTime::from_micros(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn high_watermark_tracks_peak_len() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        q.schedule(SimTime::from_secs(1), 99);
        assert_eq!(q.high_watermark(), 10);
    }

    #[test]
    fn watermark_gauge_keeps_the_peak_across_queues() {
        // A run that builds several networks reports the largest queue's
        // peak, not the last queue's.
        starlink_obsv::metrics_begin();
        for peak in [5u64, 2] {
            let mut q = EventQueue::new();
            for i in 0..peak {
                q.schedule(SimTime::from_millis(i), i);
            }
        }
        let reg = starlink_obsv::metrics_take().expect("registry was installed");
        assert_eq!(reg.gauge("simcore.queue_high_watermark"), Some(5));
    }

    /// A payload that counts its own drops in a shared tally.
    struct Tracked {
        id: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    /// Fills a fresh queue with tracked payloads in every stage: the ready
    /// stage (a part-popped tick and a past-cursor insert), all five wheel
    /// levels and the overflow. Returns the tally.
    fn fill_every_stage(q: &mut EventQueue<Tracked>) -> Rc<RefCell<Vec<u32>>> {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let schedule = |q: &mut EventQueue<Tracked>, ns: u64| {
            let id = drops.borrow().len();
            drops.borrow_mut().push(0);
            let drops = Rc::clone(&drops);
            q.schedule(SimTime::from_nanos(ns), Tracked { id, drops });
        };
        let tick = 1u64 << TICK_SHIFT;
        for _ in 0..3 {
            schedule(q, 0);
        }
        // Popping tick 0 leaves two of its events in `ready`, cursor 1.
        drop(q.pop());
        schedule(q, 5); // behind the cursor: a past-cursor insert
        for ns in [
            2 * tick,                   // level 0
            3 * tick,                   // level 0
            1_000_000,                  // level 1 (122 ticks)
            100_000_000,                // level 2
            10_000_000_000,             // level 3
            3_600_000_000_000,          // level 4
            3_700_000_000_000,          // level 4
            86_400_000_000_000,         // overflow
            30 * 86_400_000_000_000u64, // overflow
        ] {
            schedule(q, ns);
        }
        assert_eq!(q.wheel.stages(), (3, [2, 1, 1, 1, 2], 2));
        drops
    }

    fn assert_each_dropped_once(drops: &Rc<RefCell<Vec<u32>>>) {
        let drops = drops.borrow();
        assert!(drops.iter().all(|&n| n == 1), "drop counts {drops:?}");
    }

    #[test]
    fn every_payload_is_dropped_exactly_once() {
        // Popped: every cascade and level-0 drain hands ownership on, and
        // the freed nodes are reused by the events filed in between.
        let mut q = EventQueue::new();
        let drops = fill_every_stage(&mut q);
        let mut popped = 0;
        while let Some(e) = q.pop() {
            popped += 1;
            if popped % 3 == 0 {
                // A filed-then-popped payload riding the recycled nodes.
                let id = drops.borrow().len();
                drops.borrow_mut().push(0);
                let tracked = Tracked {
                    id,
                    drops: Rc::clone(&drops),
                };
                q.schedule(e.time + SimDuration::from_millis(7), tracked);
            }
        }
        assert_each_dropped_once(&drops);

        // Removed by `clear`, after some pops moved events between stages.
        let mut q = EventQueue::new();
        let drops = fill_every_stage(&mut q);
        drop(q.pop());
        q.clear();
        assert_each_dropped_once(&drops);

        // Left in a queue that is dropped.
        let mut q = EventQueue::new();
        let drops = fill_every_stage(&mut q);
        drop(q);
        assert_each_dropped_once(&drops);
    }

    #[test]
    fn node_store_stays_within_the_peak_pending_count() {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from(0xB0B5_7ACC);
        // A 100k-event burst across every stage, dense ticks included.
        for i in 0..100_000u64 {
            let ns = match i % 6 {
                0 => rng.below(4) << TICK_SHIFT,   // level 0, a few dense ticks
                1 => rng.below(30_000_000),        // level 1
                2 => rng.below(2_000_000_000),     // level 2
                3 => rng.below(130_000_000_000),   // level 3
                4 => rng.below(8_000_000_000_000), // level 4
                _ => 9_000_000_000_000 + rng.below(1 << 50), // overflow
            };
            q.schedule(SimTime::from_nanos(ns), i);
        }
        let (_, levels, overflow) = q.wheel.stages();
        assert!(
            levels.iter().all(|&n| n > 0) && overflow > 0,
            "{levels:?} {overflow}"
        );
        assert!(q.wheel.node_store().0 <= q.high_watermark());
        let mut now = SimTime::ZERO;
        while let Some(e) = q.pop() {
            now = e.time;
            assert!(q.wheel.node_store().0 <= q.high_watermark());
        }
        let capacity = q.wheel.node_store().1;
        let ready_capacity = q.wheel.ready.capacity();

        // Timer-like churn: pop one, re-arm it.
        for i in 0..1_000u64 {
            q.schedule(now + SimDuration::from_micros(i), i);
        }
        for _ in 0..1_000_000 {
            let e = q.pop().expect("churn keeps 1 000 pending");
            let delta = match rng.below(100) {
                0..=79 => rng.below(2_000_000),
                80..=94 => rng.below(200_000_000),
                _ => rng.below(30_000_000_000),
            };
            q.schedule(e.time + SimDuration::from_nanos(delta), e.payload);
            assert!(q.wheel.node_store().0 <= q.high_watermark());
        }
        assert_eq!(q.wheel.node_store().1, capacity, "node store grew");
        assert_eq!(q.wheel.ready.capacity(), ready_capacity, "ready grew");
    }
}

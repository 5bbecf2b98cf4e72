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
//! amortises the per-tick slot drain over the events in it. Slot vectors
//! are drained, never freed, so the steady-state schedule/pop cycle
//! performs no heap allocation.
//!
//! The contract it must meet is the `(time, seq)` binary-heap model kept in
//! `tests/queue_differential.rs`, which drives the wheel and the model in
//! lockstep (proptests plus a 100k-op soak); the unit tests below pin the
//! ordering cases with literal expectations.
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

/// The hierarchical timing wheel behind [`EventQueue`].
///
/// Invariants (see DESIGN.md §5h):
/// * every event in `slots` or `overflow` has `tick >= cursor`;
/// * every event in `ready` has `tick < cursor`, and `ready` is sorted
///   descending by `(time, seq)` so the global minimum is at the back;
/// * `len` counts all pending events across the three stages.
struct Wheel<E> {
    /// `LEVELS * SLOTS` buckets, flattened; bucket `level * SLOTS + slot`.
    slots: Vec<Vec<(SimTime, u64, E)>>,
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
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
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
                    // so each re-files strictly below `level`.
                    self.cursor = self.cursor.max(start);
                    let idx = level * SLOTS + slot;
                    let mut entries = std::mem::take(&mut self.slots[idx]);
                    self.occupied[level] &= !(1 << slot);
                    for (time, seq, payload) in entries.drain(..) {
                        self.place_in_wheel(time, seq, payload);
                    }
                    // Hand the capacity back to the bucket.
                    self.slots[idx] = entries;
                }
                (start, Source::Level(_, slot)) => {
                    // A level-0 slot spans exactly one tick: drain it, sort
                    // by the unique (time, seq) key, and open it for pops.
                    self.cursor = start + 1;
                    let mut entries = std::mem::take(&mut self.slots[slot]);
                    self.occupied[0] &= !(1 << slot);
                    self.ready.append(&mut entries);
                    self.slots[slot] = entries;
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
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push((time, seq, payload));
        self.occupied[level] |= 1 << slot;
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
                for (time, seq, _) in &self.slots[level * SLOTS + slot] {
                    consider((time.as_nanos(), *seq));
                }
            }
        }
        if let Some((&key, _)) = self.overflow.first_key_value() {
            consider(key);
        }
        best.map(|(t_ns, _)| SimTime::from_nanos(t_ns))
    }

    fn clear(&mut self) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(time, seq, payload);
        starlink_obsv::counter_add("simcore.events_scheduled", 1);
        let len = self.len();
        if len > self.high_watermark {
            self.high_watermark = len;
            starlink_obsv::gauge_set("simcore.queue_high_watermark", len as i64);
        }
        seq
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
    use super::*;
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
}

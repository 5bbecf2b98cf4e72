//! Differential oracle for the timing-wheel event queue.
//!
//! Every property drives [`EventQueue`] and the `(time, seq)` binary-heap
//! reference model below through an identical operation sequence and
//! asserts the two produce the same observable behaviour: pop sequences
//! (time, seq and payload), `pop_before` outcomes, `peek_time` answers, and
//! lengths. The model is the queue's contract written the obvious way —
//! the pre-wheel implementation — so agreement here is what licenses
//! running the whole simulator on the wheel. Sequence numbers reserved
//! now and filed later (`reserve_seq`/`schedule_reserved`) are held to the
//! same model, wherever in the wheel they land.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use starlink_simcore::{EventQueue, ScheduledEvent, SimRng, SimTime};

/// The reference model: a min-heap on `(time, seq)` with `seq` assigned at
/// scheduling time. `seq` is unique, so the payload never decides order.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
}

impl HeapModel {
    fn schedule(&mut self, time: SimTime, payload: usize) -> u64 {
        let seq = self.reserve_seq();
        self.schedule_reserved(time, seq, payload);
        seq
    }

    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn schedule_reserved(&mut self, time: SimTime, seq: u64, payload: usize) {
        self.heap.push(Reverse((time, seq, payload)));
    }

    fn pop(&mut self) -> Option<ScheduledEvent<usize>> {
        let Reverse((time, seq, payload)) = self.heap.pop()?;
        Some(ScheduledEvent { time, seq, payload })
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<usize>> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

/// One queue operation, drawn by the strategies below.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    Pop,
    PopBefore(u64),
    Peek,
    Clear,
    /// Take a sequence number now, to be filed by a later `File`.
    Reserve,
    /// File the `.0`-th outstanding reservation (modulo their count) at
    /// the given time.
    File(usize, FileAt),
}

/// Where a reserved sequence number is filed.
#[derive(Debug, Clone)]
enum FileAt {
    /// At the time of the last popped event: behind the wheel cursor,
    /// into the ready stage.
    LastPop,
    /// This many nanoseconds before the last popped event.
    BeforeLastPop(u64),
    /// At an absolute time, overflow stage included.
    Time(u64),
}

fn same_event(a: &ScheduledEvent<usize>, b: &ScheduledEvent<usize>) -> bool {
    a.time == b.time && a.seq == b.seq && a.payload == b.payload
}

/// Applies `ops` to the queue and the model in lockstep, asserting
/// identical observable behaviour after every single step.
fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut wheel = EventQueue::new();
    let mut heap = HeapModel::default();
    let mut payload = 0usize;
    let mut last_pop = 0u64;
    let mut reserved: Vec<u64> = Vec::new();
    for op in ops {
        match *op {
            Op::Schedule(t) => {
                let t = SimTime::from_nanos(t);
                let sw = wheel.schedule(t, payload);
                let sh = heap.schedule(t, payload);
                prop_assert_eq!(sw, sh, "sequence numbers diverged");
                payload += 1;
            }
            Op::Pop => {
                let (w, h) = (wheel.pop(), heap.pop());
                last_pop = w.as_ref().map_or(last_pop, |e| e.time.as_nanos());
                match (&w, &h) {
                    (None, None) => {}
                    (Some(a), Some(b)) if same_event(a, b) => {}
                    _ => prop_assert!(false, "pop diverged: wheel={w:?} heap={h:?}"),
                }
            }
            Op::PopBefore(deadline) => {
                let d = SimTime::from_nanos(deadline);
                let (w, h) = (wheel.pop_before(d), heap.pop_before(d));
                last_pop = w.as_ref().map_or(last_pop, |e| e.time.as_nanos());
                match (&w, &h) {
                    (None, None) => {}
                    (Some(a), Some(b)) if same_event(a, b) => {}
                    _ => prop_assert!(false, "pop_before diverged: wheel={w:?} heap={h:?}"),
                }
            }
            Op::Peek => {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek_time diverged");
            }
            Op::Clear => {
                // The sequence counter survives a clear on both sides.
                wheel.clear();
                heap.heap.clear();
            }
            Op::Reserve => {
                let sw = wheel.reserve_seq();
                prop_assert_eq!(sw, heap.reserve_seq(), "reserved sequence numbers diverged");
                reserved.push(sw);
            }
            Op::File(which, ref at) => {
                if reserved.is_empty() {
                    continue;
                }
                let seq = reserved.swap_remove(which % reserved.len());
                let t = SimTime::from_nanos(match *at {
                    FileAt::LastPop => last_pop,
                    FileAt::BeforeLastPop(d) => last_pop.saturating_sub(d),
                    FileAt::Time(t) => t,
                });
                wheel.schedule_reserved(t, seq, payload);
                heap.schedule_reserved(t, seq, payload);
                payload += 1;
            }
        }
        prop_assert_eq!(wheel.len(), heap.heap.len(), "len diverged");
        prop_assert_eq!(wheel.is_empty(), heap.heap.is_empty());
    }
    // Drain whatever is left: the full residual order must agree too.
    loop {
        match (wheel.pop(), heap.pop()) {
            (None, None) => break,
            (Some(a), Some(b)) if same_event(&a, &b) => {}
            (w, h) => prop_assert!(false, "drain diverged: wheel={w:?} heap={h:?}"),
        }
    }
    Ok(())
}

/// Times spanning every wheel stage: sub-tick ties, level-0/1/2 horizons,
/// and the BTreeMap overflow beyond ~2.4 simulated hours.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4_096,                  // dense: many events share a tick
        0u64..600_000,                // sub-millisecond, level 0
        0u64..50_000_000,             // tens of ms, levels 1-2
        0u64..10_000_000_000,         // seconds, upper levels
        0u64..20_000_000_000_000_000, // months: deep overflow
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform; repeat alternatives for weight.
    prop_oneof![
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        Just(Op::Pop),
        Just(Op::Pop),
        time_strategy().prop_map(Op::PopBefore),
        Just(Op::Peek),
        Just(Op::Clear),
    ]
}

fn file_at_strategy() -> impl Strategy<Value = FileAt> {
    prop_oneof![
        Just(FileAt::LastPop),
        (0u64..50_000).prop_map(FileAt::BeforeLastPop),
        time_strategy().prop_map(FileAt::Time),
    ]
}

/// Every plain operation plus reservations filed later: behind the
/// cursor, at the instant just popped, and far out in the overflow stage
/// — the pattern of the network's packet arrivals and timer slots.
fn reserving_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        Just(Op::Reserve),
        (any::<usize>(), file_at_strategy()).prop_map(|(i, at)| Op::File(i, at)),
    ]
}

proptest! {
    /// Random interleavings of every queue operation behave identically on
    /// the wheel and the model.
    #[test]
    fn wheel_matches_heap_on_random_ops(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Reserved sequence numbers filed later, anywhere — including behind
    /// the cursor and into the overflow stage — pop exactly where the
    /// model puts them.
    #[test]
    fn wheel_matches_heap_with_reserved_seqs(
        ops in proptest::collection::vec(reserving_op_strategy(), 1..400),
    ) {
        run_differential(&ops)?;
    }

    /// Reservations filed at the instant being popped: many same-tick
    /// events, with old seqs slotting in ahead of newer ones.
    #[test]
    fn wheel_matches_heap_on_reserved_ties(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u64..4).prop_map(|t| Op::Schedule(t * 1_000)),
                Just(Op::Pop),
                Just(Op::Reserve),
                Just(Op::Reserve),
                any::<usize>().prop_map(|i| Op::File(i, FileAt::LastPop)),
                any::<usize>().prop_map(|i| Op::File(i, FileAt::LastPop)),
            ],
            1..300,
        ),
    ) {
        run_differential(&ops)?;
    }

    /// Dense same-instant bursts: the stable FIFO tie-break is the
    /// load-bearing property, so hammer it with few distinct times.
    #[test]
    fn wheel_matches_heap_on_dense_ties(
        times in proptest::collection::vec(0u64..16, 1..300),
        pops in 0usize..300,
    ) {
        let mut ops: Vec<Op> = times
            .iter()
            .map(|&t| Op::Schedule(t * 1_000_000))
            .collect();
        ops.extend(std::iter::repeat_n(Op::Pop, pops));
        run_differential(&ops)?;
    }

    /// Schedule-everything-then-drain, the batch pattern the harness
    /// sweep and the campaign day loop use.
    #[test]
    fn wheel_matches_heap_on_batch_drain(
        times in proptest::collection::vec(time_strategy(), 1..300),
    ) {
        let ops: Vec<Op> = times.iter().map(|&t| Op::Schedule(t)).collect();
        run_differential(&ops)?; // run_differential drains at the end
    }

    /// `pop_before` with deadlines woven between the scheduled times —
    /// the netsim `run_until` access pattern.
    #[test]
    fn wheel_matches_heap_on_deadline_sweeps(
        times in proptest::collection::vec(0u64..1_000_000, 1..150),
        deadlines in proptest::collection::vec(0u64..1_200_000, 1..150),
    ) {
        let mut ops: Vec<Op> = times.iter().map(|&t| Op::Schedule(t)).collect();
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        ops.extend(sorted.into_iter().map(Op::PopBefore));
        run_differential(&ops)?;
    }
}

/// A long seeded soak well past proptest case sizes: a pop-and-reschedule
/// "hold" workload shaped like the simulator steady state (most deltas
/// short-horizon, a tail of long timers), interleaved with deadline pops,
/// peeks and occasional clears.
#[test]
fn wheel_matches_heap_soak() {
    let mut rng = SimRng::seed_from(0x5EED_CAFE);
    let mut ops = Vec::new();
    let mut t = 0u64;
    for i in 0..100_000u64 {
        match rng.below(16) {
            0..=7 => {
                // Mostly near-future work, like link deliveries.
                let delta = match rng.below(100) {
                    0..=79 => rng.below(2_000_000),    // < 2 ms
                    80..=94 => rng.below(200_000_000), // < 200 ms
                    _ => rng.below(30_000_000_000),    // < 30 s
                };
                ops.push(Op::Schedule(t + delta));
            }
            8..=11 => ops.push(Op::Pop),
            12..=13 => ops.push(Op::PopBefore(t + rng.below(5_000_000))),
            14 => ops.push(Op::Peek),
            _ => {
                // Rare clears, and advance the virtual clock so later
                // schedules land "after" cleared horizons.
                if rng.below(100) == 0 {
                    ops.push(Op::Clear);
                }
                t += rng.below(1_000_000_000);
            }
        }
        if i % 10_000 == 0 {
            t += 50_000_000; // drift forward like a real run
        }
    }
    run_differential(&ops).unwrap();
}

/// A bursty seeded soak: each phase packs tens of thousands of events
/// into a few buckets, drains them completely, then runs sparse
/// second-scale timers, with reservations filed behind the cursor, at the
/// instant just popped and far ahead, and a clear now and then. Bursts
/// fill the wheel's node store and the sparse stretch reuses it through
/// the free list, while long timers cascade down through every level.
#[test]
fn wheel_matches_heap_bursty_soak() {
    let mut rng = SimRng::seed_from(0xB0B5_7EA5);
    let mut ops = Vec::new();
    let mut t = 0u64;
    for phase in 0..6u64 {
        // The burst: a few buckets, level 0 up to level 3 wide.
        let width = [4_096u64, 500_000, 30_000_000, 2_000_000_000][phase as usize % 4];
        let bases: Vec<u64> = (0..3).map(|_| t + rng.below(5_000_000_000)).collect();
        let burst = 20_000 + rng.below(20_000) as usize;
        for i in 0..burst {
            let base = bases[i % bases.len()];
            ops.push(Op::Schedule(base + rng.below(width)));
            if rng.below(50) == 0 {
                ops.push(Op::Reserve);
            }
            if rng.below(80) == 0 {
                ops.push(Op::File(rng.below(8) as usize, FileAt::Time(base)));
            }
        }
        // The full drain, peeks and late filings woven in.
        for i in 0..burst + 1_000 {
            ops.push(Op::Pop);
            match rng.below(200) {
                0 => ops.push(Op::Peek),
                1 => ops.push(Op::File(rng.below(8) as usize, FileAt::LastPop)),
                2 => ops.push(Op::File(
                    rng.below(8) as usize,
                    FileAt::BeforeLastPop(rng.below(20_000)),
                )),
                _ => {}
            }
            if i % 5_000 == 0 {
                ops.push(Op::Reserve);
            }
        }
        t = bases.iter().max().unwrap() + width;
        // The sparse stretch: a handful of second-scale timers re-armed
        // as they fire, a few of them hours out.
        for _ in 0..5_000 {
            let delta = match rng.below(100) {
                0..=89 => 1_000_000_000 + rng.below(4_000_000_000),
                _ => rng.below(20_000_000_000_000),
            };
            ops.push(Op::Schedule(t + delta));
            ops.push(Op::PopBefore(t + rng.below(3_000_000_000)));
            match rng.below(40) {
                0 => ops.push(Op::Reserve),
                1 => ops.push(Op::File(rng.below(8) as usize, FileAt::LastPop)),
                2 => ops.push(Op::File(
                    rng.below(8) as usize,
                    FileAt::Time(t + rng.below(10_000_000_000)),
                )),
                3 => ops.push(Op::Peek),
                _ => {}
            }
            t += rng.below(2_000_000_000);
        }
        if phase % 2 == 1 {
            ops.push(Op::Clear);
        }
    }
    run_differential(&ops).unwrap();
}

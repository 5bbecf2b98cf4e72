//! Differential oracle for the timing-wheel event queue.
//!
//! Every property drives [`EventQueue`] and the `(time, seq)` binary-heap
//! reference model below through an identical operation sequence and
//! asserts the two produce the same observable behaviour: pop sequences
//! (time, seq and payload), `pop_before` outcomes, `peek_time` answers, and
//! lengths. The model is the queue's contract written the obvious way —
//! the pre-wheel implementation — so agreement here is what licenses
//! running the whole simulator on the wheel.

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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, payload)));
        seq
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
                match (&w, &h) {
                    (None, None) => {}
                    (Some(a), Some(b)) if same_event(a, b) => {}
                    _ => prop_assert!(false, "pop diverged: wheel={w:?} heap={h:?}"),
                }
            }
            Op::PopBefore(deadline) => {
                let d = SimTime::from_nanos(deadline);
                let (w, h) = (wheel.pop_before(d), heap.pop_before(d));
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

proptest! {
    /// Random interleavings of every queue operation behave identically on
    /// the wheel and the model.
    #[test]
    fn wheel_matches_heap_on_random_ops(
        ops in proptest::collection::vec(op_strategy(), 1..400),
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

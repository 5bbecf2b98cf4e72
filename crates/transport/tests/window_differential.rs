//! Differential reference for the shared window core.
//!
//! `reference_reno`, `reference_cubic`, `reference_veno` and
//! `reference_vegas` are the four loss-based controllers as they stood
//! when each kept its own copy of the window mechanics (slow-start clamp,
//! once-per-window count, floored β-cut, RTO collapse, backlog estimate),
//! reproduced verbatim apart from the `name` methods the trait no longer
//! has. The proptest drives `CcAlgorithm::{Reno, Cubic, Veno, Vegas}
//! .build(mss)` and the matching reference in lockstep over random ACK
//! streams — with and without an RTT sample — interleaved with loss, RTO,
//! recovery-exit and path-change calls, and requires every observable —
//! `cwnd`, `ssthresh`, the `pacing_rate` bits and `probe_phase` — to agree
//! after every call.

use proptest::prelude::*;
use starlink_simcore::{DataRate, SimDuration, SimTime};
use starlink_transport::{AckSample, CcAlgorithm, CongestionControl};

/// Initial window: 10 segments (RFC 6928), as the product defines it.
fn initial_cwnd(mss: u64) -> u64 {
    10 * mss
}

/// Window floor: 2 segments, as the product defines it.
fn min_cwnd(mss: u64) -> u64 {
    2 * mss
}

mod reference_reno {
    //! NewReno-style AIMD congestion control.
    //!
    //! Slow start doubles the window per RTT until `ssthresh`; congestion
    //! avoidance adds one segment per RTT; a loss event multiplicatively
    //! halves. On a link with regular non-congestive loss bursts (Starlink
    //! handovers) the halvings dominate and the window never stays near the
    //! BDP — the behaviour Fig. 8 measures.

    use super::{initial_cwnd, min_cwnd, AckSample, CongestionControl};
    use starlink_simcore::{DataRate, SimTime};

    /// NewReno AIMD state.
    #[derive(Debug, Clone)]
    pub struct Reno {
        mss: u64,
        cwnd: u64,
        ssthresh: u64,
        /// Fractional-segment accumulator for congestion avoidance.
        acked_accum: u64,
    }

    impl Reno {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Reno {
                mss,
                cwnd: initial_cwnd(mss),
                ssthresh: u64::MAX,
                acked_accum: 0,
            }
        }

        /// Whether the sender is still in slow start.
        fn in_slow_start(&self) -> bool {
            self.cwnd < self.ssthresh
        }
    }

    impl CongestionControl for Reno {
        fn on_ack(&mut self, sample: &AckSample) {
            if self.in_slow_start() {
                // Exponential: grow by the acked bytes.
                self.cwnd += sample.acked_bytes;
                if self.cwnd > self.ssthresh {
                    self.cwnd = self.ssthresh;
                }
            } else {
                // Additive: one MSS per cwnd's worth of ACKed bytes.
                self.acked_accum += sample.acked_bytes;
                if self.acked_accum >= self.cwnd {
                    self.acked_accum -= self.cwnd;
                    self.cwnd += self.mss;
                }
            }
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.ssthresh;
            self.acked_accum = 0;
        }

        fn on_rto(&mut self, _now: SimTime) {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.mss;
            self.acked_accum = 0;
        }

        fn cwnd(&self) -> u64 {
            self.cwnd
        }

        fn ssthresh(&self) -> Option<u64> {
            Some(self.ssthresh)
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            None
        }
    }
}

mod reference_cubic {
    //! CUBIC congestion control (RFC 8312, simplified).
    //!
    //! The window grows as a cubic function of time since the last loss,
    //! plateauing near the window where loss last occurred (`w_max`) and then
    //! probing beyond it. Multiplicative decrease uses β = 0.7 instead of
    //! Reno's 0.5. A TCP-friendly region keeps CUBIC at least as aggressive
    //! as Reno on short-RTT paths.
    //!
    //! On Starlink's loss bursts CUBIC fares a little better than Reno (its
    //! shallower decrease and fast w_max re-approach), but every handover
    //! still resets the epoch — consistent with Fig. 8's near-Reno showing.

    use super::{initial_cwnd, min_cwnd, AckSample, CongestionControl};
    use starlink_simcore::{DataRate, SimTime};

    /// RFC 8312 constant `C`, in segments/sec³.
    const C: f64 = 0.4;
    /// Multiplicative decrease factor β.
    const BETA: f64 = 0.7;

    /// CUBIC state.
    #[derive(Debug, Clone)]
    pub struct Cubic {
        mss: u64,
        cwnd: u64,
        ssthresh: u64,
        /// Window before the last reduction, segments.
        w_max: f64,
        /// Epoch start (set at the first ACK after a reduction).
        epoch_start: Option<SimTime>,
        /// Time offset at which the cubic reaches w_max, seconds.
        k: f64,
        /// Reno-equivalent window for the TCP-friendly region, segments.
        w_est: f64,
        /// Accumulator for the friendly-region additive growth.
        acked_accum: u64,
    }

    impl Cubic {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Cubic {
                mss,
                cwnd: initial_cwnd(mss),
                ssthresh: u64::MAX,
                w_max: 0.0,
                epoch_start: None,
                k: 0.0,
                w_est: 0.0,
                acked_accum: 0,
            }
        }

        fn segments(&self, bytes: u64) -> f64 {
            bytes as f64 / self.mss as f64
        }
    }

    impl CongestionControl for Cubic {
        fn on_ack(&mut self, sample: &AckSample) {
            if self.cwnd < self.ssthresh {
                self.cwnd += sample.acked_bytes;
                if self.cwnd > self.ssthresh {
                    self.cwnd = self.ssthresh;
                }
                return;
            }

            // Congestion avoidance: evaluate the cubic at t since epoch.
            let now = sample.now;
            let epoch = match self.epoch_start {
                Some(e) => e,
                None => {
                    // New epoch: anchor the cubic at the current window.
                    let w = self.segments(self.cwnd);
                    if w < self.w_max {
                        self.k = ((self.w_max - w) / C).cbrt();
                    } else {
                        self.k = 0.0;
                        self.w_max = w;
                    }
                    self.w_est = w;
                    self.epoch_start = Some(now);
                    now
                }
            };
            let t = now.saturating_since(epoch).as_secs_f64();
            let target = C * (t - self.k).powi(3) + self.w_max; // segments

            // TCP-friendly region: emulate Reno's 1 segment per RTT.
            self.acked_accum += sample.acked_bytes;
            if self.acked_accum >= self.cwnd.max(1) {
                self.acked_accum -= self.cwnd.max(1);
                self.w_est += 1.0;
            }

            let target = target.max(self.w_est);
            let current = self.segments(self.cwnd);
            if target > current {
                // Approach the target over roughly one RTT: grow by the
                // shortfall fraction per ACK.
                let growth = ((target - current) / current.max(1.0)) * sample.acked_bytes as f64;
                self.cwnd += growth.max(0.0) as u64;
            }
            // Clamp growth to at most doubling per ACK burst (safety).
            let cap = 2 * (self.cwnd.max(initial_cwnd(self.mss)));
            self.cwnd = self.cwnd.min(cap);
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            self.w_max = self.segments(self.cwnd);
            let reduced = (self.cwnd as f64 * BETA) as u64;
            self.cwnd = reduced.max(min_cwnd(self.mss));
            self.ssthresh = self.cwnd;
            self.epoch_start = None;
            self.acked_accum = 0;
        }

        fn on_rto(&mut self, _now: SimTime) {
            self.w_max = self.segments(self.cwnd);
            self.ssthresh = ((self.cwnd as f64 * BETA) as u64).max(min_cwnd(self.mss));
            self.cwnd = self.mss;
            self.epoch_start = None;
            self.acked_accum = 0;
        }

        fn cwnd(&self) -> u64 {
            self.cwnd
        }

        fn ssthresh(&self) -> Option<u64> {
            Some(self.ssthresh)
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            None
        }
    }
}

mod reference_veno {
    //! TCP Veno: Reno with Vegas-informed loss discrimination.
    //!
    //! Veno maintains Vegas's queue-occupancy estimate `N` and uses it to
    //! classify each loss: if `N < β` the network looked uncongested, so the
    //! loss is presumed *random* (wireless) and the window is only cut to
    //! 4/5; otherwise it halves like Reno. In congestion avoidance it also
    //! slows its additive increase when the queue estimate is high.
    //!
    //! Designed exactly for random-loss wireless paths, Veno does beat plain
    //! Reno on Starlink — but the paper's Fig. 8 shows it still far behind
    //! BBR, because a 20 % cut per handover burst (with several bursts per
    //! minute) still starves the window.

    use super::{initial_cwnd, min_cwnd, AckSample, CongestionControl};
    use starlink_simcore::{DataRate, SimDuration, SimTime};

    /// Queue-occupancy threshold (segments) below which loss is presumed
    /// random rather than congestive.
    const BETA: f64 = 3.0;
    /// Multiplicative decrease for random loss (vs 0.5 for congestive).
    const RANDOM_LOSS_FACTOR: f64 = 0.8;

    /// Veno state.
    #[derive(Debug, Clone)]
    pub struct Veno {
        mss: u64,
        cwnd: u64,
        ssthresh: u64,
        base_rtt: Option<SimDuration>,
        last_rtt: Option<SimDuration>,
        acked_accum: u64,
        /// In the high-queue regime additive increase runs at half speed;
        /// this flag alternates windows.
        skip_toggle: bool,
    }

    impl Veno {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Veno {
                mss,
                cwnd: initial_cwnd(mss),
                ssthresh: u64::MAX,
                base_rtt: None,
                last_rtt: None,
                acked_accum: 0,
                skip_toggle: false,
            }
        }

        /// Vegas-style backlog estimate `N`, segments.
        fn backlog_estimate(&self) -> Option<f64> {
            let base = self.base_rtt?.as_secs_f64();
            let rtt = self.last_rtt?.as_secs_f64();
            if base <= 0.0 || rtt <= 0.0 {
                return None;
            }
            let cwnd_seg = self.cwnd as f64 / self.mss as f64;
            Some(cwnd_seg * (rtt - base) / rtt)
        }

        fn presumed_random_loss(&self) -> bool {
            matches!(self.backlog_estimate(), Some(n) if n < BETA)
        }
    }

    impl CongestionControl for Veno {
        fn on_ack(&mut self, sample: &AckSample) {
            if let Some(rtt) = sample.rtt {
                self.base_rtt = Some(match self.base_rtt {
                    Some(b) => b.min(rtt),
                    None => rtt,
                });
                self.last_rtt = Some(rtt);
            }

            if self.cwnd < self.ssthresh {
                self.cwnd += sample.acked_bytes;
                if self.cwnd > self.ssthresh {
                    self.cwnd = self.ssthresh;
                }
                return;
            }

            // Congestion avoidance, modulated by the backlog estimate: with a
            // full queue (N >= beta) Veno increases every *other* window.
            self.acked_accum += sample.acked_bytes;
            if self.acked_accum >= self.cwnd.max(1) {
                self.acked_accum -= self.cwnd.max(1);
                let congested = matches!(self.backlog_estimate(), Some(n) if n >= BETA);
                if congested {
                    self.skip_toggle = !self.skip_toggle;
                    if self.skip_toggle {
                        return;
                    }
                }
                self.cwnd += self.mss;
            }
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            let factor = if self.presumed_random_loss() {
                RANDOM_LOSS_FACTOR
            } else {
                0.5
            };
            self.ssthresh = ((self.cwnd as f64 * factor) as u64).max(min_cwnd(self.mss));
            self.cwnd = self.ssthresh;
            self.acked_accum = 0;
        }

        fn on_rto(&mut self, _now: SimTime) {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.mss;
            self.acked_accum = 0;
        }

        fn cwnd(&self) -> u64 {
            self.cwnd
        }

        fn ssthresh(&self) -> Option<u64> {
            Some(self.ssthresh)
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            None
        }
    }
}

mod reference_vegas {
    //! TCP Vegas: delay-based congestion avoidance.
    //!
    //! Vegas compares the expected throughput (`cwnd / base_rtt`) with the
    //! actual (`cwnd / rtt`) and keeps the difference — the number of packets
    //! queued in the network — between α and β segments, nudging the window by
    //! one segment per RTT. On Starlink this backfires twice: bent-pipe
    //! queueing jitter inflates RTT samples (Vegas backs off without any real
    //! congestion), and handover loss bursts still trigger Reno-style
    //! halvings. Fig. 8 finds Vegas at the bottom of the pack.

    use super::{initial_cwnd, min_cwnd, AckSample, CongestionControl};
    use starlink_simcore::{DataRate, SimDuration, SimTime};

    /// Lower queue-occupancy target, segments.
    const ALPHA: f64 = 2.0;
    /// Upper queue-occupancy target, segments.
    const BETA: f64 = 4.0;

    /// Vegas state.
    #[derive(Debug, Clone)]
    pub struct Vegas {
        mss: u64,
        cwnd: u64,
        ssthresh: u64,
        /// Smallest RTT ever observed (propagation estimate).
        base_rtt: Option<SimDuration>,
        /// Smallest RTT within the current adjustment round.
        round_min_rtt: Option<SimDuration>,
        /// End of the current once-per-RTT adjustment round.
        round_ends: SimTime,
    }

    impl Vegas {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Vegas {
                mss,
                cwnd: initial_cwnd(mss),
                ssthresh: u64::MAX,
                base_rtt: None,
                round_min_rtt: None,
                round_ends: SimTime::ZERO,
            }
        }

        /// The current estimate of packets queued in the network, in segments
        /// (the Vegas `diff`), if enough RTT data exists.
        fn queue_estimate(&self) -> Option<f64> {
            let base = self.base_rtt?.as_secs_f64();
            let rtt = self.round_min_rtt?.as_secs_f64();
            if base <= 0.0 || rtt <= 0.0 {
                return None;
            }
            let cwnd_seg = self.cwnd as f64 / self.mss as f64;
            Some(cwnd_seg * (rtt - base) / rtt)
        }
    }

    impl CongestionControl for Vegas {
        fn on_ack(&mut self, sample: &AckSample) {
            let Some(rtt) = sample.rtt else {
                return;
            };
            self.base_rtt = Some(match self.base_rtt {
                Some(b) => b.min(rtt),
                None => rtt,
            });
            self.round_min_rtt = Some(match self.round_min_rtt {
                Some(m) => m.min(rtt),
                None => rtt,
            });

            if self.cwnd < self.ssthresh {
                // Vegas slow start: grow every other RTT in real Vegas; keep
                // standard doubling but leave slow start early when the queue
                // estimate exceeds alpha.
                self.cwnd += sample.acked_bytes;
                if let Some(diff) = self.queue_estimate() {
                    if diff > ALPHA {
                        self.ssthresh = self.cwnd;
                    }
                }
            }

            // Once-per-RTT adjustment.
            if sample.now < self.round_ends {
                return;
            }
            self.round_ends = sample.now + rtt;
            if self.cwnd >= self.ssthresh {
                if let Some(diff) = self.queue_estimate() {
                    if diff < ALPHA {
                        self.cwnd += self.mss;
                    } else if diff > BETA {
                        self.cwnd = self.cwnd.saturating_sub(self.mss).max(min_cwnd(self.mss));
                    }
                }
            }
            self.round_min_rtt = None;
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.ssthresh;
        }

        fn on_rto(&mut self, _now: SimTime) {
            self.ssthresh = (self.cwnd / 2).max(min_cwnd(self.mss));
            self.cwnd = self.mss;
        }

        fn on_path_change(&mut self, _now: SimTime) {
            // The propagation-delay anchor belongs to the *old* path. A
            // min-filter never forgets, so after a handover onto a longer
            // path every honest RTT sample reads as queueing (`rtt - base`
            // inflated by the propagation delta) and Vegas parks at its
            // window floor forever. Expire the anchor and let the next
            // samples re-establish it on the new path.
            self.base_rtt = None;
            self.round_min_rtt = None;
        }

        fn cwnd(&self) -> u64 {
            self.cwnd
        }

        fn ssthresh(&self) -> Option<u64> {
            Some(self.ssthresh)
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            None
        }
    }
}

/// One call on a controller.
#[derive(Debug, Clone)]
enum Op {
    Ack {
        /// Sim time since the previous call, µs (zero-elapsed ACKs included).
        dt_us: u64,
        acked_bytes: u64,
        rtt_us: Option<u64>,
    },
    Loss,
    Rto,
    RecoveryExit,
    PathChange,
}

fn ack_strategy() -> impl Strategy<Value = Op> {
    (
        // One ACK in six arrives with no sim time elapsed, one jumps ahead
        // (CUBIC's epoch clock, Vegas's round boundary).
        (0u32..6, 0u64..60_000, 60_000u64..5_000_000).prop_map(|(k, small, large)| match k {
            0 => 0,
            1 => large,
            _ => small,
        }),
        // Mostly a few segments; one in eight a whole burst, one in eight
        // nothing new.
        (0u32..8, 0u64..6_000, 6_000u64..400_000).prop_map(|(k, small, large)| match k {
            0 => 0,
            1 => large,
            _ => small,
        }),
        // No RTT sample on one ACK in five; otherwise a floor-hugging or an
        // inflated sample, so the backlog estimate crosses Veno's and
        // Vegas's thresholds both ways.
        (0u32..5, 10_000u64..12_000, 12_000u64..400_000).prop_map(|(k, floor, inflated)| match k {
            0 => None,
            1 | 2 => Some(floor),
            _ => Some(inflated),
        }),
    )
        .prop_map(|(dt_us, acked_bytes, rtt_us)| Op::Ack {
            dt_us,
            acked_bytes,
            rtt_us,
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..40, ack_strategy()).prop_map(|(k, ack)| match k {
        0 | 1 => Op::Loss,
        2 => Op::Rto,
        3 | 4 => Op::RecoveryExit,
        5 => Op::PathChange,
        _ => ack,
    })
}

/// Applies `op` at `now` (already advanced for an ACK).
fn apply(cc: &mut dyn CongestionControl, op: &Op, now: SimTime, mss: u64) {
    match *op {
        Op::Ack {
            acked_bytes,
            rtt_us,
            ..
        } => cc.on_ack(&AckSample {
            now,
            acked_bytes,
            rtt: rtt_us.map(SimDuration::from_micros),
            in_flight: 0,
            lost_bytes: 0,
            mss,
            delivery_rate: None,
        }),
        Op::Loss => cc.on_loss_event(now),
        Op::Rto => cc.on_rto(now),
        Op::RecoveryExit => cc.on_recovery_exit(now),
        Op::PathChange => cc.on_path_change(now),
    }
}

fn assert_same(
    got: &dyn CongestionControl,
    want: &dyn CongestionControl,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.cwnd(), want.cwnd(), "cwnd after step {}", step);
    prop_assert_eq!(
        got.ssthresh(),
        want.ssthresh(),
        "ssthresh after step {}",
        step
    );
    prop_assert_eq!(
        got.pacing_rate().map(DataRate::bits_per_sec),
        want.pacing_rate().map(DataRate::bits_per_sec),
        "pacing_rate after step {}",
        step
    );
    prop_assert_eq!(
        got.probe_phase(),
        want.probe_phase(),
        "probe_phase after step {}",
        step
    );
    Ok(())
}

/// Drives `got` and `want` in lockstep through `ops`.
fn lockstep(
    mut got: Box<dyn CongestionControl>,
    mut want: Box<dyn CongestionControl>,
    mss: u64,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    assert_same(&*got, &*want, 0)?;
    let mut now_us = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if let Op::Ack { dt_us, .. } = *op {
            now_us += dt_us;
        }
        let now = SimTime::from_micros(now_us);
        apply(&mut *got, op, now, mss);
        apply(&mut *want, op, now, mss);
        assert_same(&*got, &*want, i + 1)?;
    }
    Ok(())
}

fn mss_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(536u64), Just(1_200u64), Just(1_460u64), Just(9_000u64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn reno_matches_the_reference(
        mss in mss_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        lockstep(
            CcAlgorithm::Reno.build(mss),
            Box::new(reference_reno::Reno::new(mss)),
            mss,
            &ops,
        )?;
    }

    #[test]
    fn cubic_matches_the_reference(
        mss in mss_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        lockstep(
            CcAlgorithm::Cubic.build(mss),
            Box::new(reference_cubic::Cubic::new(mss)),
            mss,
            &ops,
        )?;
    }

    #[test]
    fn veno_matches_the_reference(
        mss in mss_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        lockstep(
            CcAlgorithm::Veno.build(mss),
            Box::new(reference_veno::Veno::new(mss)),
            mss,
            &ops,
        )?;
    }

    #[test]
    fn vegas_matches_the_reference(
        mss in mss_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        lockstep(
            CcAlgorithm::Vegas.build(mss),
            Box::new(reference_vegas::Vegas::new(mss)),
            mss,
            &ops,
        )?;
    }
}

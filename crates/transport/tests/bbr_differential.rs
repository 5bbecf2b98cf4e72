//! Differential reference for the shared BBR core.
//!
//! `reference_v1` and `reference_v2` are the two BBR implementations as
//! they stood when each version carried its own copy of the path model,
//! round clock, ProbeRTT dwell and RTO conservation, reproduced verbatim
//! apart from the `min_rtt()` accessors nothing here calls and the `name`
//! methods the trait no longer has.
//! The proptest drives `CcAlgorithm::{Bbr, Bbr2}.build(mss)` and the
//! matching reference in lockstep over random ACK streams interleaved
//! with loss, RTO, recovery-exit, path-change and planted-bug calls, and
//! requires every observable — `cwnd`, `ssthresh`, the `pacing_rate`
//! bits and `probe_phase` — to agree after every call.

use proptest::prelude::*;
use starlink_simcore::{DataRate, SimDuration, SimTime};
use starlink_transport::{AckSample, CcAlgorithm, CongestionControl};
use std::ops::Range;

/// Initial window: 10 segments (RFC 6928), as the product defines it.
fn initial_cwnd(mss: u64) -> u64 {
    10 * mss
}

mod reference_v1 {
    //! BBR v1 (Bottleneck Bandwidth and RTT), simplified.
    //!
    //! BBR builds an explicit model of the path — the bottleneck bandwidth
    //! (windowed-max of delivery-rate samples) and the round-trip propagation
    //! delay (windowed-min of RTT samples) — and paces at `gain × btl_bw`
    //! instead of reacting to loss. That is exactly why the paper finds it the
    //! only algorithm that stays productive through Starlink's handover loss
    //! bursts (Fig. 8): a 1–2 s burst of 30 % loss barely moves a max-filter
    //! over 10 s of bandwidth samples, where it would halve Reno four times.
    //!
    //! The implementation follows the v1 state machine: **Startup** (gain
    //! 2/ln 2 ≈ 2.885, doubling per round until the bandwidth plateaus) →
    //! **Drain** (inverse gain until in-flight ≤ BDP) → **ProbeBW** (the
    //! 8-phase gain cycle `[1.25, 0.75, 1 × 6]`), with **ProbeRTT** (cwnd =
    //! 4 MSS for 200 ms) whenever the min-RTT sample goes 10 s stale.

    use super::{initial_cwnd, AckSample, CongestionControl};
    use starlink_obsv::CcPhase;
    use starlink_simcore::{DataRate, SimDuration, SimTime};
    use std::collections::VecDeque;

    /// Startup/drain gain: 2/ln2.
    const STARTUP_GAIN: f64 = 2.885;
    /// ProbeBW gain cycle.
    const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    /// Window over which bandwidth samples are max-filtered.
    const BW_WINDOW: SimDuration = SimDuration::from_secs(10);
    /// Staleness bound on the min-RTT estimate.
    const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
    /// Time spent sitting at 4 MSS in ProbeRTT.
    const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
    /// Rounds of non-growth that declare the pipe full in Startup.
    const FULL_BW_ROUNDS: u32 = 3;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Startup,
        Drain,
        ProbeBw,
        ProbeRtt,
    }

    /// BBR v1 state.
    #[derive(Debug, Clone)]
    pub struct Bbr {
        mss: u64,
        state: State,
        /// Bandwidth samples as a monotonic deque (times ascending, values
        /// strictly descending): the front is the windowed max in O(1), and
        /// each sample is pushed/popped at most once. A plain max-scan list
        /// turns quadratic at LEO ACK rates (hundreds of thousands of samples
        /// per window, consulted on every send).
        bw_samples: VecDeque<(SimTime, u64)>,
        min_rtt: Option<SimDuration>,
        min_rtt_stamp: SimTime,
        /// Round accounting (a "round" is one min-RTT of wall time here).
        next_round_at: SimTime,
        /// Full-pipe detection.
        full_bw: u64,
        full_bw_rounds: u32,
        full_bw_reached: bool,
        /// ProbeBW cycle phase.
        cycle_phase: usize,
        /// ProbeRTT bookkeeping.
        probe_rtt_done_at: SimTime,
        probe_rtt_min: Option<SimDuration>,
        state_before_probe_rtt: State,
        /// Latest in-flight figure from ACK processing.
        last_in_flight: u64,
        pacing_gain: f64,
        cwnd_gain: f64,
        /// Packet-conservation window, bytes. After an RTO the model window
        /// is suspended and the connection restarts from here, growing by the
        /// ACKed bytes (slow-start-like) until it re-reaches the model — the
        /// BBR behaviour that stops a timeout from re-blasting a multi-MB
        /// window into a drained queue.
        conservation_cwnd: Option<u64>,
    }

    impl Bbr {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Bbr {
                mss,
                state: State::Startup,
                bw_samples: VecDeque::new(),
                min_rtt: None,
                min_rtt_stamp: SimTime::ZERO,
                next_round_at: SimTime::ZERO,
                full_bw: 0,
                full_bw_rounds: 0,
                full_bw_reached: false,
                cycle_phase: 0,
                probe_rtt_done_at: SimTime::ZERO,
                probe_rtt_min: None,
                state_before_probe_rtt: State::Startup,
                last_in_flight: 0,
                pacing_gain: STARTUP_GAIN,
                cwnd_gain: STARTUP_GAIN,
                conservation_cwnd: None,
            }
        }

        /// The current bottleneck-bandwidth estimate (front of the monotonic
        /// deque).
        pub(crate) fn btl_bw(&self) -> Option<DataRate> {
            self.bw_samples
                .front()
                .map(|&(_, bw)| DataRate::from_bps(bw))
        }

        /// Bandwidth-delay product estimate, bytes.
        fn bdp(&self) -> Option<u64> {
            let bw = self.btl_bw()?;
            let rtt = self.min_rtt?;
            Some((bw.bits_per_sec() as f64 * rtt.as_secs_f64() / 8.0) as u64)
        }

        fn record_bw(&mut self, now: SimTime, rate: DataRate) {
            let bw = rate.bits_per_sec();
            // Keep values strictly descending front-to-back.
            while self.bw_samples.back().is_some_and(|&(_, b)| b <= bw) {
                self.bw_samples.pop_back();
            }
            self.bw_samples.push_back((now, bw));
            // Age out the front beyond the window.
            let horizon = now
                .saturating_since(SimTime::ZERO)
                .saturating_sub(BW_WINDOW);
            while self
                .bw_samples
                .front()
                .is_some_and(|&(t, _)| t.since(SimTime::ZERO) < horizon)
            {
                self.bw_samples.pop_front();
            }
        }

        fn on_round(&mut self, now: SimTime) {
            let bw = self.bw_samples.front().map(|&(_, b)| b).unwrap_or(0);
            match self.state {
                State::Startup => {
                    // Did bandwidth grow >= 25% this round?
                    if bw as f64 >= self.full_bw as f64 * 1.25 {
                        self.full_bw = bw;
                        self.full_bw_rounds = 0;
                    } else {
                        self.full_bw_rounds += 1;
                        if self.full_bw_rounds >= FULL_BW_ROUNDS {
                            self.full_bw_reached = true;
                            self.state = State::Drain;
                            self.pacing_gain = 1.0 / STARTUP_GAIN;
                            self.cwnd_gain = STARTUP_GAIN;
                        }
                    }
                }
                State::Drain => {
                    if let Some(bdp) = self.bdp() {
                        if self.last_in_flight <= bdp {
                            self.enter_probe_bw(now);
                        }
                    }
                }
                State::ProbeBw => {
                    self.cycle_phase = (self.cycle_phase + 1) % CYCLE.len();
                    self.pacing_gain = CYCLE[self.cycle_phase];
                }
                State::ProbeRtt => {}
            }
        }

        fn enter_probe_bw(&mut self, _now: SimTime) {
            self.state = State::ProbeBw;
            self.cycle_phase = 0;
            self.pacing_gain = CYCLE[0];
            self.cwnd_gain = 2.0;
        }

        fn maybe_enter_probe_rtt(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt {
                return;
            }
            if self.min_rtt.is_some() && now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW {
                self.state_before_probe_rtt = if self.full_bw_reached {
                    State::ProbeBw
                } else {
                    State::Startup
                };
                self.state = State::ProbeRtt;
                self.probe_rtt_done_at = now + PROBE_RTT_DURATION;
                self.probe_rtt_min = None;
                self.pacing_gain = 1.0;
            }
        }

        fn maybe_exit_probe_rtt(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt
                && now >= self.probe_rtt_done_at
                && self.last_in_flight <= 4 * self.mss
            {
                // Adopt the freshest floor observed while drained.
                if let Some(m) = self.probe_rtt_min {
                    self.min_rtt = Some(m);
                }
                self.min_rtt_stamp = now;
                if self.state_before_probe_rtt == State::ProbeBw {
                    self.enter_probe_bw(now);
                } else {
                    self.state = State::Startup;
                    self.pacing_gain = STARTUP_GAIN;
                    self.cwnd_gain = STARTUP_GAIN;
                }
            }
        }
    }

    impl CongestionControl for Bbr {
        fn on_ack(&mut self, sample: &AckSample) {
            let now = sample.now;
            self.last_in_flight = sample.in_flight;

            // Packet conservation after an RTO: grow with the ACKed bytes and
            // rejoin the model once caught up.
            if let Some(c) = self.conservation_cwnd {
                let grown = c + sample.acked_bytes;
                let model = match self.bdp() {
                    Some(bdp) => ((bdp as f64 * self.cwnd_gain) as u64).max(4 * self.mss),
                    None => initial_cwnd(self.mss),
                };
                if grown >= model {
                    self.conservation_cwnd = None;
                } else {
                    self.conservation_cwnd = Some(grown);
                }
            }

            if let Some(rtt) = sample.rtt {
                if self.state == State::ProbeRtt {
                    self.probe_rtt_min = Some(self.probe_rtt_min.map_or(rtt, |m| m.min(rtt)));
                }
                // The floor only moves down here; staleness is resolved by a
                // ProbeRTT episode, never by silently adopting a larger sample.
                if self.min_rtt.is_none_or(|m| rtt <= m) {
                    self.min_rtt = Some(rtt);
                    self.min_rtt_stamp = now;
                }
            }
            if let Some(rate) = sample.delivery_rate {
                self.record_bw(now, rate);
            }

            // Round boundary: one min-RTT of wall clock.
            if now >= self.next_round_at {
                let rtt = self.min_rtt.unwrap_or(SimDuration::from_millis(100));
                self.next_round_at = now + rtt;
                self.on_round(now);
            }

            self.maybe_enter_probe_rtt(now);
            self.maybe_exit_probe_rtt(now);
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            // BBR v1 does not reduce its model on ordinary loss — this is the
            // defining behaviour for the Fig. 8 outcome.
        }

        fn on_rto(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt {
                // An RTO can fire mid-dwell with no RTT sample collected. This
                // exit path must still refresh the staleness stamp (and adopt
                // whatever floor the dwell did observe), otherwise the very
                // next ACK finds `min_rtt_stamp` still > 10 s old and drops
                // the connection straight back into ProbeRTT — a 4-MSS window
                // every 200 ms, for as long as RTOs keep landing in dwells.
                if let Some(m) = self.probe_rtt_min {
                    self.min_rtt = Some(m);
                }
                self.min_rtt_stamp = now;
            }
            // Conservative restart: forget full-pipe status, keep the model,
            // and clamp the window to packet conservation.
            self.conservation_cwnd = Some(4 * self.mss);
            self.state = State::Startup;
            self.pacing_gain = STARTUP_GAIN;
            self.cwnd_gain = STARTUP_GAIN;
            self.full_bw = 0;
            self.full_bw_rounds = 0;
            self.full_bw_reached = false;
            self.next_round_at = now;
        }

        fn cwnd(&self) -> u64 {
            if self.state == State::ProbeRtt {
                return 4 * self.mss;
            }
            let model = match self.bdp() {
                Some(bdp) => ((bdp as f64 * self.cwnd_gain) as u64).max(4 * self.mss),
                None => initial_cwnd(self.mss),
            };
            match self.conservation_cwnd {
                Some(c) => c.min(model),
                None => model,
            }
        }

        fn on_recovery_exit(&mut self, _now: SimTime) {
            self.conservation_cwnd = None;
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            let gain = if self.conservation_cwnd.is_some() {
                1.0
            } else {
                self.pacing_gain
            };
            match self.btl_bw() {
                Some(bw) => Some(bw.scale(gain)),
                // Before any sample: pace the initial window over an assumed
                // 10 ms RTT (aggressive but immediately corrected).
                None => Some(DataRate::from_bps(initial_cwnd(self.mss) * 8 * 100)),
            }
        }

        fn probe_phase(&self) -> Option<CcPhase> {
            // v1 has no explicit ProbeUp/Down/Cruise states; map the ProbeBW
            // gain cycle onto them so traces read uniformly across versions.
            Some(match self.state {
                State::Startup => CcPhase::Startup,
                State::Drain => CcPhase::Drain,
                State::ProbeBw => match self.cycle_phase {
                    0 => CcPhase::ProbeUp,
                    1 => CcPhase::ProbeDown,
                    _ => CcPhase::ProbeCruise,
                },
                State::ProbeRtt => CcPhase::ProbeRtt,
            })
        }
    }
}

mod reference_v2 {
    //! BBRv2-class congestion control: the BBRv1 model core bounded by
    //! explicit inflight limits and a loss-rate ceiling.
    //!
    //! "Unveiling TCP BBR Dominance in Starlink" attributes BBRv1's Fig. 8
    //! lead to model-based probing — and documents the cost: v1 ignores loss
    //! entirely, so at a shared bottleneck it starves loss-based flows that
    //! halve on every drop v1's probing causes. BBRv2 keeps the model
    //! (windowed-max bandwidth, windowed-min RTT, pacing) but adds the three
    //! mechanisms that restore coexistence:
    //!
    //! * **inflight_hi / inflight_lo** — long- and short-term upper bounds on
    //!   the congestion window, learned from loss. `inflight_hi` is long-term
    //!   evidence and is only adjusted while the sender is deliberately
    //!   probing above the model (Startup / ProbeUp) — the one time loss is
    //!   attributable to its own probing rather than path noise. A breach
    //!   there clamps it to [`BETA`] × the current inflight; clean ProbeUp
    //!   rounds grow it back with doubling increments
    //!   ([`HI_GROWTH_CAP_MSS`]), so a spurious clamp from a random-loss
    //!   burst heals in a handful of probe cycles instead of hundreds.
    //!   Breaches outside probing latch only the short-term `inflight_lo`,
    //!   released by the next clean probe.
    //! * **a ~2 % loss-rate ceiling** ([`LOSS_CEILING_PERMILLE`]) — rounds
    //!   whose presumed-lost fraction exceeds it back the cruise gain off to
    //!   [`CRUISE_BACKOFF_GAIN`] until a probe completes cleanly.
    //! * **reduced ProbeBW overshoot** — after Startup the pacing gain never
    //!   exceeds the 1.25× ProbeUp pulse; there is no sustained 2/ln 2-style
    //!   gain anywhere in steady state.
    //!
    //! The probing state machine is explicit — **ProbeUp → ProbeDown →
    //! ProbeCruise** (with **ProbeRTT** overriding whenever the min-RTT
    //! estimate goes stale) — and surfaces through
    //! [`CongestionControl::probe_phase`] as `cc_phase` trace events.

    use super::{initial_cwnd, AckSample, CongestionControl};
    use starlink_obsv::CcPhase;
    use starlink_simcore::{DataRate, SimDuration, SimTime};
    use std::collections::VecDeque;

    /// Startup gain: 2/ln2, same exponential search as v1.
    const STARTUP_GAIN: f64 = 2.885;
    /// ProbeUp pacing gain — the only above-1 gain after Startup.
    const PROBE_UP_GAIN: f64 = 1.25;
    /// ProbeDown pacing gain, draining the probe's queue.
    const PROBE_DOWN_GAIN: f64 = 0.75;
    /// Cruise pacing gain while the loss ceiling holds.
    const CRUISE_GAIN: f64 = 1.0;
    /// Cruise pacing gain after a loss-ceiling breach, until a probe
    /// completes cleanly.
    const CRUISE_BACKOFF_GAIN: f64 = 0.9;
    /// Loss-rate ceiling, parts per thousand (~2 %, the BBRv2 default).
    const LOSS_CEILING_PERMILLE: u64 = 20;
    /// Multiplicative clamp applied to `inflight_hi` on a ceiling breach.
    const BETA: f64 = 0.85;
    /// Cruise rounds between ProbeUp pulses (mirrors v1's six 1.0× phases).
    const CRUISE_ROUNDS: u32 = 6;
    /// Window over which bandwidth samples are max-filtered.
    const BW_WINDOW: SimDuration = SimDuration::from_secs(10);
    /// Staleness bound on the min-RTT estimate.
    const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
    /// Time spent sitting at 4 MSS in ProbeRTT.
    const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
    /// Rounds of non-growth that declare the pipe full in Startup.
    const FULL_BW_ROUNDS: u32 = 3;
    /// Cap on the per-probe `inflight_hi` growth increment, MSS units. The
    /// increment doubles on every clean ProbeUp round and resets to one MSS
    /// whenever a probe finds real loss, mirroring Linux BBRv2's accelerating
    /// `bw_probe_up_cnt` growth.
    const HI_GROWTH_CAP_MSS: u64 = 64;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Startup,
        Drain,
        ProbeUp,
        ProbeDown,
        ProbeCruise,
        ProbeRtt,
    }

    /// BBRv2-class state.
    #[derive(Debug, Clone)]
    pub struct Bbr2 {
        mss: u64,
        state: State,
        /// Bandwidth samples as a monotonic deque (same structure as v1:
        /// front is the windowed max in O(1)).
        bw_samples: VecDeque<(SimTime, u64)>,
        min_rtt: Option<SimDuration>,
        min_rtt_stamp: SimTime,
        /// Round accounting (a "round" is one min-RTT of wall time).
        next_round_at: SimTime,
        /// Full-pipe detection (Startup exit).
        full_bw: u64,
        full_bw_rounds: u32,
        full_bw_reached: bool,
        /// Cruise rounds since the last ProbeUp pulse.
        cruise_rounds: u32,
        /// Long-term inflight upper bound, bytes. Clamped on loss-ceiling
        /// breaches while probing, regrown with doubling increments on clean
        /// ProbeUp rounds.
        inflight_hi: Option<u64>,
        /// Current `inflight_hi` growth increment, MSS units; doubles per
        /// clean probe up to [`HI_GROWTH_CAP_MSS`], resets on a probe breach.
        hi_growth_mss: u64,
        /// Short-term inflight bound set by the current loss episode;
        /// cleared when a probe completes cleanly.
        inflight_lo: Option<u64>,
        /// Cruise gain in force: [`CRUISE_GAIN`] or [`CRUISE_BACKOFF_GAIN`].
        cruise_gain: f64,
        /// Loss accounting over the current round.
        round_delivered: u64,
        round_lost_peak: u64,
        /// ProbeRTT bookkeeping.
        probe_rtt_done_at: SimTime,
        probe_rtt_min: Option<SimDuration>,
        resume_probing_after_rtt: bool,
        /// Latest in-flight figure from ACK processing.
        last_in_flight: u64,
        pacing_gain: f64,
        cwnd_gain: f64,
        /// Packet-conservation window after an RTO, exactly as in v1.
        conservation_cwnd: Option<u64>,
        /// Planted-bug hook: ignore the loss ceiling entirely (the unfair
        /// flow the swarm's fairness oracle must catch). Never set outside
        /// `--inject-unfair-bug` runs.
        ignore_loss_ceiling: bool,
    }

    impl Bbr2 {
        /// A fresh connection.
        pub fn new(mss: u64) -> Self {
            Bbr2 {
                mss,
                state: State::Startup,
                bw_samples: VecDeque::new(),
                min_rtt: None,
                min_rtt_stamp: SimTime::ZERO,
                next_round_at: SimTime::ZERO,
                full_bw: 0,
                full_bw_rounds: 0,
                full_bw_reached: false,
                cruise_rounds: 0,
                inflight_hi: None,
                hi_growth_mss: 1,
                inflight_lo: None,
                cruise_gain: CRUISE_GAIN,
                round_delivered: 0,
                round_lost_peak: 0,
                probe_rtt_done_at: SimTime::ZERO,
                probe_rtt_min: None,
                resume_probing_after_rtt: false,
                last_in_flight: 0,
                pacing_gain: STARTUP_GAIN,
                cwnd_gain: STARTUP_GAIN,
                conservation_cwnd: None,
                ignore_loss_ceiling: false,
            }
        }

        /// The current bottleneck-bandwidth estimate.
        pub(crate) fn btl_bw(&self) -> Option<DataRate> {
            self.bw_samples
                .front()
                .map(|&(_, bw)| DataRate::from_bps(bw))
        }

        /// Bandwidth-delay product estimate, bytes.
        fn bdp(&self) -> Option<u64> {
            let bw = self.btl_bw()?;
            let rtt = self.min_rtt?;
            Some((bw.bits_per_sec() as f64 * rtt.as_secs_f64() / 8.0) as u64)
        }

        fn record_bw(&mut self, now: SimTime, rate: DataRate) {
            let bw = rate.bits_per_sec();
            while self.bw_samples.back().is_some_and(|&(_, b)| b <= bw) {
                self.bw_samples.pop_back();
            }
            self.bw_samples.push_back((now, bw));
            let horizon = now
                .saturating_since(SimTime::ZERO)
                .saturating_sub(BW_WINDOW);
            while self
                .bw_samples
                .front()
                .is_some_and(|&(t, _)| t.since(SimTime::ZERO) < horizon)
            {
                self.bw_samples.pop_front();
            }
        }

        /// The round's loss fraction in parts per thousand.
        fn round_loss_permille(&self) -> u64 {
            let total = self.round_delivered + self.round_lost_peak;
            if total == 0 {
                return 0;
            }
            self.round_lost_peak * 1_000 / total
        }

        /// Reacts to a loss-ceiling breach: latch the short-term bound, back
        /// the cruise gain off, and — only if the breach happened while the
        /// sender was itself probing above the model — clamp the long-term
        /// `inflight_hi`. Loss observed while cruising at the model rate is
        /// not evidence about the path's inflight ceiling (the sender was not
        /// pushing it); treating it as such lets random corruption bursts
        /// ratchet `inflight_hi` to the floor and collapse goodput under
        /// non-congestive loss — exactly the failure BBRv1 never had.
        fn on_ceiling_breach(&mut self) {
            if self.ignore_loss_ceiling {
                return;
            }
            let clamp = ((self.last_in_flight as f64 * BETA) as u64).max(4 * self.mss);
            // Latch the short-term bound once per loss episode. Re-clamping
            // on every breach round compounds (0.85^rounds) across a
            // multi-round burst and melts the window to the floor; one
            // episode is one backoff, released by the next clean probe.
            if self.inflight_lo.is_none() {
                self.inflight_lo = Some(clamp);
            }
            self.cruise_gain = CRUISE_BACKOFF_GAIN;
            if matches!(self.state, State::Startup | State::ProbeUp) {
                self.inflight_hi = Some(self.inflight_hi.map_or(clamp, |hi| hi.min(clamp)));
                self.hi_growth_mss = 1;
            }
        }

        fn enter_cruise(&mut self) {
            self.state = State::ProbeCruise;
            self.cruise_rounds = 0;
            self.pacing_gain = self.cruise_gain;
            self.cwnd_gain = 2.0;
        }

        fn on_round(&mut self, _now: SimTime) {
            let breached =
                !self.ignore_loss_ceiling && self.round_loss_permille() > LOSS_CEILING_PERMILLE;
            if breached {
                self.on_ceiling_breach();
            }
            let bw = self.bw_samples.front().map(|&(_, b)| b).unwrap_or(0);
            match self.state {
                State::Startup => {
                    if bw as f64 >= self.full_bw as f64 * 1.25 {
                        self.full_bw = bw;
                        self.full_bw_rounds = 0;
                    } else {
                        self.full_bw_rounds += 1;
                        if self.full_bw_rounds >= FULL_BW_ROUNDS {
                            self.full_bw_reached = true;
                            self.state = State::Drain;
                            self.pacing_gain = 1.0 / STARTUP_GAIN;
                            self.cwnd_gain = STARTUP_GAIN;
                        }
                    }
                    // A breach ends Startup early: the pipe is already past
                    // its loss ceiling, so stop overshooting immediately.
                    if breached && self.state == State::Startup {
                        self.full_bw_reached = true;
                        self.state = State::Drain;
                        self.pacing_gain = 1.0 / STARTUP_GAIN;
                        self.cwnd_gain = STARTUP_GAIN;
                    }
                }
                State::Drain => {
                    if let Some(bdp) = self.bdp() {
                        if self.last_in_flight <= bdp {
                            self.enter_cruise();
                        }
                    }
                }
                State::ProbeUp => {
                    if breached {
                        // The probe found the ceiling; drain what it queued.
                        self.state = State::ProbeDown;
                        self.pacing_gain = PROBE_DOWN_GAIN;
                    } else {
                        // A clean probe round: grow the long-term bound with
                        // an accelerating increment, release the short-term
                        // one, restore full cruise.
                        if let Some(hi) = self.inflight_hi {
                            self.inflight_hi = Some(hi + self.hi_growth_mss * self.mss);
                            self.hi_growth_mss = (self.hi_growth_mss * 2).min(HI_GROWTH_CAP_MSS);
                        }
                        self.inflight_lo = None;
                        self.cruise_gain = CRUISE_GAIN;
                        self.state = State::ProbeDown;
                        self.pacing_gain = PROBE_DOWN_GAIN;
                    }
                }
                State::ProbeDown => self.enter_cruise(),
                State::ProbeCruise => {
                    self.cruise_rounds += 1;
                    self.pacing_gain = self.cruise_gain;
                    if self.cruise_rounds >= CRUISE_ROUNDS {
                        self.state = State::ProbeUp;
                        self.pacing_gain = PROBE_UP_GAIN;
                    }
                }
                State::ProbeRtt => {}
            }
            self.round_delivered = 0;
            self.round_lost_peak = 0;
        }

        fn maybe_enter_probe_rtt(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt {
                return;
            }
            if self.min_rtt.is_some() && now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW {
                self.resume_probing_after_rtt = self.full_bw_reached;
                self.state = State::ProbeRtt;
                self.probe_rtt_done_at = now + PROBE_RTT_DURATION;
                self.probe_rtt_min = None;
                self.pacing_gain = 1.0;
            }
        }

        fn maybe_exit_probe_rtt(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt
                && now >= self.probe_rtt_done_at
                && self.last_in_flight <= 4 * self.mss
            {
                if let Some(m) = self.probe_rtt_min {
                    self.min_rtt = Some(m);
                }
                // The stamp refreshes on *every* exit path — sampled or not —
                // so a sample-free dwell cannot re-fire ProbeRTT immediately
                // (the v1 bug this implementation postdates).
                self.min_rtt_stamp = now;
                if self.resume_probing_after_rtt {
                    self.enter_cruise();
                } else {
                    self.state = State::Startup;
                    self.pacing_gain = STARTUP_GAIN;
                    self.cwnd_gain = STARTUP_GAIN;
                }
            }
        }
    }

    impl CongestionControl for Bbr2 {
        fn on_ack(&mut self, sample: &AckSample) {
            let now = sample.now;
            self.last_in_flight = sample.in_flight;
            self.round_delivered += sample.acked_bytes;
            self.round_lost_peak = self.round_lost_peak.max(sample.lost_bytes);

            // Packet conservation after an RTO, exactly as in v1.
            if let Some(c) = self.conservation_cwnd {
                let grown = c + sample.acked_bytes;
                let model = match self.bdp() {
                    Some(bdp) => ((bdp as f64 * self.cwnd_gain) as u64).max(4 * self.mss),
                    None => initial_cwnd(self.mss),
                };
                if grown >= model {
                    self.conservation_cwnd = None;
                } else {
                    self.conservation_cwnd = Some(grown);
                }
            }

            if let Some(rtt) = sample.rtt {
                if self.state == State::ProbeRtt {
                    self.probe_rtt_min = Some(self.probe_rtt_min.map_or(rtt, |m| m.min(rtt)));
                }
                if self.min_rtt.is_none_or(|m| rtt <= m) {
                    self.min_rtt = Some(rtt);
                    self.min_rtt_stamp = now;
                }
            }
            if let Some(rate) = sample.delivery_rate {
                self.record_bw(now, rate);
            }

            if now >= self.next_round_at {
                let rtt = self.min_rtt.unwrap_or(SimDuration::from_millis(100));
                self.next_round_at = now + rtt;
                self.on_round(now);
            }

            self.maybe_enter_probe_rtt(now);
            self.maybe_exit_probe_rtt(now);
        }

        fn on_loss_event(&mut self, _now: SimTime) {
            // Unlike v1, a fast-retransmit episode is not ignored outright:
            // the per-round ceiling decides whether it was congestion. The
            // event itself does not shrink the model — that stays v1-like,
            // which is what keeps BBRv2 productive through handover bursts.
        }

        fn on_rto(&mut self, now: SimTime) {
            if self.state == State::ProbeRtt {
                // Leaving ProbeRTT through the timeout path must still
                // refresh the staleness stamp, or the next ACK re-enters
                // ProbeRTT immediately (the v1 on_rto bug).
                self.min_rtt_stamp = now;
                if let Some(m) = self.probe_rtt_min {
                    self.min_rtt = Some(m);
                }
            }
            self.conservation_cwnd = Some(4 * self.mss);
            self.state = State::Startup;
            self.pacing_gain = STARTUP_GAIN;
            self.cwnd_gain = STARTUP_GAIN;
            self.full_bw = 0;
            self.full_bw_rounds = 0;
            self.full_bw_reached = false;
            self.next_round_at = now;
        }

        fn on_recovery_exit(&mut self, _now: SimTime) {
            self.conservation_cwnd = None;
        }

        fn cwnd(&self) -> u64 {
            if self.state == State::ProbeRtt {
                return 4 * self.mss;
            }
            let mut w = match self.bdp() {
                Some(bdp) => ((bdp as f64 * self.cwnd_gain) as u64).max(4 * self.mss),
                None => initial_cwnd(self.mss),
            };
            if !self.ignore_loss_ceiling {
                if let Some(hi) = self.inflight_hi {
                    w = w.min(hi);
                }
                if let Some(lo) = self.inflight_lo {
                    w = w.min(lo);
                }
            }
            w = w.max(4 * self.mss);
            match self.conservation_cwnd {
                Some(c) => c.min(w),
                None => w,
            }
        }

        fn pacing_rate(&self) -> Option<DataRate> {
            let gain = if self.conservation_cwnd.is_some() {
                1.0
            } else {
                self.pacing_gain
            };
            match self.btl_bw() {
                Some(bw) => Some(bw.scale(gain)),
                None => Some(DataRate::from_bps(initial_cwnd(self.mss) * 8 * 100)),
            }
        }

        // Disables the loss ceiling and inflight clamps — the "one CC
        // ignoring its loss ceiling" planted bug behind the swarm's
        // `--inject-unfair-bug` flag. The fairness oracle must catch the
        // resulting retransmit-rate blowout; this hook exists to prove it
        // can.
        fn debug_ignore_loss_ceiling(&mut self) {
            self.ignore_loss_ceiling = true;
        }

        fn probe_phase(&self) -> Option<CcPhase> {
            Some(match self.state {
                State::Startup => CcPhase::Startup,
                State::Drain => CcPhase::Drain,
                State::ProbeUp => CcPhase::ProbeUp,
                State::ProbeDown => CcPhase::ProbeDown,
                State::ProbeCruise => CcPhase::ProbeCruise,
                State::ProbeRtt => CcPhase::ProbeRtt,
            })
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
        in_flight: u64,
        lost_bytes: u64,
        rate_bps: Option<u64>,
    },
    Loss,
    Rto,
    RecoveryExit,
    PathChange,
}

/// `Some(v)` on four draws in five.
fn mostly_some(values: Range<u64>) -> impl Strategy<Value = Option<u64>> {
    (0u32..5, values).prop_map(|(k, v)| (k > 0).then_some(v))
}

fn ack_strategy() -> impl Strategy<Value = Op> {
    (
        // One ACK in six arrives with no sim time elapsed, one jumps ahead.
        (0u32..6, 0u64..120_000, 120_000u64..3_000_000).prop_map(|(k, small, large)| match k {
            0 => 0,
            1 => large,
            _ => small,
        }),
        (0u32..5, 0u64..40_000).prop_map(|(k, v)| if k == 0 { 0 } else { v }),
        mostly_some(5_000..300_000),
        // Two in five drained to a few MSS (ProbeRTT's exit test).
        (0u32..5, 0u64..8_000, 0u64..3_000_000).prop_map(
            |(k, small, large)| {
                if k < 2 {
                    small
                } else {
                    large
                }
            },
        ),
        // Presumed-lost spikes on one ACK in seven.
        (0u32..7, 0u64..600_000).prop_map(|(k, v)| if k == 0 { v } else { 0 }),
        mostly_some(100_000..1_000_000_000),
    )
        .prop_map(
            |(dt_us, acked_bytes, rtt_us, in_flight, lost_bytes, rate_bps)| Op::Ack {
                dt_us,
                acked_bytes,
                rtt_us,
                in_flight,
                lost_bytes,
                rate_bps,
            },
        )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..46, ack_strategy()).prop_map(|(k, ack)| match k {
        0 | 1 => Op::Loss,
        2 => Op::Rto,
        3 | 4 => Op::RecoveryExit,
        5 => Op::PathChange,
        _ => ack,
    })
}

/// The step before which the loss-ceiling bug is planted, on three cases
/// in ten.
fn ignore_at_strategy() -> impl Strategy<Value = Option<usize>> {
    (0u32..10, 0usize..400).prop_map(|(k, i)| (k < 3).then_some(i))
}

/// Applies `op` at `now` (already advanced for an ACK).
fn apply(cc: &mut dyn CongestionControl, op: &Op, now: SimTime, mss: u64) {
    match *op {
        Op::Ack {
            acked_bytes,
            rtt_us,
            in_flight,
            lost_bytes,
            rate_bps,
            ..
        } => cc.on_ack(&AckSample {
            now,
            acked_bytes,
            rtt: rtt_us.map(SimDuration::from_micros),
            in_flight,
            lost_bytes,
            mss,
            delivery_rate: rate_bps.map(DataRate::from_bps),
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

/// Drives `got` and `want` in lockstep through `ops`, planting the
/// loss-ceiling bug in both just before step `ignore_at`.
fn lockstep(
    mut got: Box<dyn CongestionControl>,
    mut want: Box<dyn CongestionControl>,
    mss: u64,
    ops: &[Op],
    ignore_at: Option<usize>,
) -> Result<(), TestCaseError> {
    assert_same(&*got, &*want, 0)?;
    let mut now_us = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if ignore_at == Some(i) {
            got.debug_ignore_loss_ceiling();
            want.debug_ignore_loss_ceiling();
            assert_same(&*got, &*want, i)?;
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn bbr_v1_matches_the_reference(
        mss in prop_oneof![Just(536u64), Just(1_200u64), Just(1_460u64)],
        ops in proptest::collection::vec(op_strategy(), 1..400),
        ignore_at in ignore_at_strategy(),
    ) {
        lockstep(
            CcAlgorithm::Bbr.build(mss),
            Box::new(reference_v1::Bbr::new(mss)),
            mss,
            &ops,
            ignore_at,
        )?;
    }

    #[test]
    fn bbr_v2_matches_the_reference(
        mss in prop_oneof![Just(536u64), Just(1_200u64), Just(1_460u64)],
        ops in proptest::collection::vec(op_strategy(), 1..400),
        ignore_at in ignore_at_strategy(),
    ) {
        lockstep(
            CcAlgorithm::Bbr2.build(mss),
            Box::new(reference_v2::Bbr2::new(mss)),
            mss,
            &ops,
            ignore_at,
        )?;
    }
}

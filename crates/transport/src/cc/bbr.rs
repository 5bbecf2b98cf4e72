//! BBR (Bottleneck Bandwidth and RTT), simplified: one path model, two
//! ProbeBW policies (v1 and the BBRv2 class).
//!
//! BBR builds an explicit model of the path — the bottleneck bandwidth
//! (windowed-max of delivery-rate samples) and the round-trip propagation
//! delay (windowed-min of RTT samples) — and paces at `gain × btl_bw`
//! instead of reacting to loss. That is exactly why the paper finds it the
//! only algorithm that stays productive through Starlink's handover loss
//! bursts (Fig. 8): a 1–2 s burst of 30 % loss barely moves a max-filter
//! over 10 s of bandwidth samples, where it would halve Reno four times.
//!
//! Both versions run the same model and state machine: **Startup** (gain
//! 2/ln 2 ≈ 2.885, doubling per round until the bandwidth plateaus) →
//! **Drain** (inverse gain until in-flight ≤ BDP) → **ProbeBW**, with
//! **ProbeRTT** (cwnd = 4 MSS for 200 ms) whenever the min-RTT sample goes
//! 10 s stale, a round clock of one min-RTT of sim time, and a
//! packet-conservation restart after an RTO. They differ only in ProbeBW:
//!
//! * **v1** ([`Bbr::v1`]) cycles the 8-phase gain cycle
//!   `[1.25, 0.75, 1 × 6]` and never looks at loss.
//! * **v2** ([`Bbr::v2`]) bounds the model with inflight limits and a
//!   loss-rate ceiling and probes Up → Down → Cruise; see [`v2`].

use super::{initial_cwnd, AckSample, CongestionControl};
use starlink_obsv::CcPhase;
use starlink_simcore::{DataRate, SimDuration, SimTime};
use std::collections::VecDeque;

mod v2;

/// Startup/drain gain: 2/ln2.
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW pacing gain while probing above the model.
const PROBE_UP_GAIN: f64 = 1.25;
/// ProbeBW pacing gain draining what the probe queued.
const PROBE_DOWN_GAIN: f64 = 0.75;
/// v1's ProbeBW gain cycle.
const CYCLE: [f64; 8] = [PROBE_UP_GAIN, PROBE_DOWN_GAIN, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
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

/// What a version does in ProbeBW — the only place v1 and v2 differ.
#[derive(Debug, Clone)]
enum ProbeBw {
    /// v1: the current index into [`CYCLE`].
    Cycle(usize),
    /// v2: inflight bounds, loss ceiling and probe phase, boxed so a v1
    /// connection does not carry them.
    Bounded(Box<v2::Bounds>),
}

/// BBR state: the shared path model plus one version's ProbeBW policy.
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
    /// ProbeRTT bookkeeping.
    probe_rtt_done_at: SimTime,
    probe_rtt_min: Option<SimDuration>,
    /// `full_bw_reached` at ProbeRTT entry: the exit resumes ProbeBW if
    /// set, Startup otherwise.
    resume_probe_bw: bool,
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
    probe_bw: ProbeBw,
}

impl Bbr {
    /// A fresh BBRv1 connection.
    pub(crate) fn v1(mss: u64) -> Self {
        Self::new(mss, ProbeBw::Cycle(0))
    }

    /// A fresh BBRv2-class connection.
    pub(crate) fn v2(mss: u64) -> Self {
        Self::new(mss, ProbeBw::Bounded(Box::new(v2::Bounds::new())))
    }

    fn new(mss: u64, probe_bw: ProbeBw) -> Self {
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
            probe_rtt_done_at: SimTime::ZERO,
            probe_rtt_min: None,
            resume_probe_bw: false,
            last_in_flight: 0,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            conservation_cwnd: None,
            probe_bw,
        }
    }

    /// The current bottleneck-bandwidth estimate (front of the monotonic
    /// deque).
    fn btl_bw(&self) -> Option<DataRate> {
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

    /// The model's window: `bdp × cwnd_gain` floored at 4 MSS, or the
    /// initial window before any sample.
    fn model_cwnd(&self) -> u64 {
        match self.bdp() {
            Some(bdp) => ((bdp as f64 * self.cwnd_gain) as u64).max(4 * self.mss),
            None => initial_cwnd(self.mss),
        }
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

    fn on_round(&mut self) {
        // v2 judges the round's loss before the state step.
        let breached = match &mut self.probe_bw {
            ProbeBw::Cycle(_) => false,
            ProbeBw::Bounded(bounds) => {
                bounds.close_round(self.state, self.last_in_flight, self.mss)
            }
        };
        let bw = self.bw_samples.front().map(|&(_, b)| b).unwrap_or(0);
        match self.state {
            State::Startup => {
                // Did bandwidth grow >= 25% this round?
                if bw as f64 >= self.full_bw as f64 * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                }
                // A loss-ceiling breach ends Startup early too: the pipe is
                // already past its ceiling, so stop overshooting.
                if self.full_bw_rounds >= FULL_BW_ROUNDS || breached {
                    self.full_bw_reached = true;
                    self.state = State::Drain;
                    self.pacing_gain = 1.0 / STARTUP_GAIN;
                    self.cwnd_gain = STARTUP_GAIN;
                }
            }
            State::Drain => {
                if self.bdp().is_some_and(|bdp| self.last_in_flight <= bdp) {
                    self.enter_probe_bw();
                }
            }
            State::ProbeBw => {
                self.pacing_gain = match &mut self.probe_bw {
                    ProbeBw::Cycle(phase) => {
                        *phase = (*phase + 1) % CYCLE.len();
                        CYCLE[*phase]
                    }
                    ProbeBw::Bounded(bounds) => bounds.on_probe_bw_round(breached, self.mss),
                };
            }
            State::ProbeRtt => {}
        }
    }

    fn enter_probe_bw(&mut self) {
        self.state = State::ProbeBw;
        self.cwnd_gain = 2.0;
        self.pacing_gain = match &mut self.probe_bw {
            ProbeBw::Cycle(phase) => {
                *phase = 0;
                CYCLE[0]
            }
            ProbeBw::Bounded(bounds) => bounds.enter_cruise(),
        };
    }

    fn maybe_enter_probe_rtt(&mut self, now: SimTime) {
        if self.state == State::ProbeRtt {
            return;
        }
        if self.min_rtt.is_some() && now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW {
            self.resume_probe_bw = self.full_bw_reached;
            self.state = State::ProbeRtt;
            self.probe_rtt_done_at = now + PROBE_RTT_DURATION;
            self.probe_rtt_min = None;
            self.pacing_gain = 1.0;
        }
    }

    /// Adopts the freshest floor the ProbeRTT dwell observed and restarts
    /// the staleness clock. Every way out of ProbeRTT runs this, sampled
    /// or not, or the next ACK would find the stamp still > 10 s old and
    /// drop straight back into the 4-MSS dwell.
    fn refresh_min_rtt(&mut self, now: SimTime) {
        if let Some(m) = self.probe_rtt_min {
            self.min_rtt = Some(m);
        }
        self.min_rtt_stamp = now;
    }

    fn maybe_exit_probe_rtt(&mut self, now: SimTime) {
        if self.state == State::ProbeRtt
            && now >= self.probe_rtt_done_at
            && self.last_in_flight <= 4 * self.mss
        {
            self.refresh_min_rtt(now);
            if self.resume_probe_bw {
                self.enter_probe_bw();
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
        if let ProbeBw::Bounded(bounds) = &mut self.probe_bw {
            bounds.on_ack(sample);
        }

        // Packet conservation after an RTO: grow with the ACKed bytes and
        // rejoin the model (never a v2-clamped window) once caught up.
        if let Some(c) = self.conservation_cwnd {
            let grown = c + sample.acked_bytes;
            self.conservation_cwnd = (grown < self.model_cwnd()).then_some(grown);
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
            self.on_round();
        }

        self.maybe_enter_probe_rtt(now);
        self.maybe_exit_probe_rtt(now);
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        // Neither version shrinks its model on ordinary loss — the defining
        // behaviour for the Fig. 8 outcome. v2 judges loss per round, by
        // its ceiling, instead.
    }

    fn on_rto(&mut self, now: SimTime) {
        // An RTO can fire mid-dwell with no RTT sample collected; leaving
        // ProbeRTT this way must still refresh the staleness stamp.
        if self.state == State::ProbeRtt {
            self.refresh_min_rtt(now);
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
        let w = match &self.probe_bw {
            ProbeBw::Cycle(_) => self.model_cwnd(),
            ProbeBw::Bounded(bounds) => bounds.clamp(self.model_cwnd(), self.mss),
        };
        match self.conservation_cwnd {
            Some(c) => c.min(w),
            None => w,
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

    fn debug_ignore_loss_ceiling(&mut self) {
        if let ProbeBw::Bounded(bounds) = &mut self.probe_bw {
            bounds.ignore_loss_ceiling();
        }
    }

    fn probe_phase(&self) -> Option<CcPhase> {
        Some(match self.state {
            State::Startup => CcPhase::Startup,
            State::Drain => CcPhase::Drain,
            State::ProbeRtt => CcPhase::ProbeRtt,
            // v1 has no explicit ProbeUp/Down/Cruise states; map its gain
            // cycle onto them so traces read uniformly across versions.
            State::ProbeBw => match &self.probe_bw {
                ProbeBw::Cycle(0) => CcPhase::ProbeUp,
                ProbeBw::Cycle(1) => CcPhase::ProbeDown,
                ProbeBw::Cycle(_) => CcPhase::ProbeCruise,
                ProbeBw::Bounded(bounds) => bounds.phase(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn ack(
        now_ms: u64,
        rtt_ms: u64,
        rate_mbps: u64,
        in_flight: u64,
        mss: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(now_ms),
            acked_bytes: mss,
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            in_flight,
            lost_bytes: 0,
            mss,
            delivery_rate: Some(DataRate::from_mbps(rate_mbps)),
        }
    }

    /// One fresh connection of each version.
    fn both(mss: u64) -> [Bbr; 2] {
        [Bbr::v1(mss), Bbr::v2(mss)]
    }

    /// Rides 10 s of ACKs above a 50 ms floor so the min-RTT goes stale.
    fn into_probe_rtt(cc: &mut Bbr, mss: u64) -> u64 {
        cc.on_ack(&ack(0, 50, 100, 10_000, mss));
        let mut t = 200;
        while t < 11_000 {
            cc.on_ack(&ack(t, 80, 100, 10_000, mss));
            t += 500;
        }
        assert_eq!(cc.state, State::ProbeRtt, "{:?}", cc.probe_bw);
        t
    }

    #[test]
    fn startup_exits_when_bandwidth_plateaus() {
        let mss = 1_460;
        for mut cc in both(mss) {
            // Feed a growing then flat bandwidth signal over many rounds.
            let mut t = 0;
            for rate in [10, 20, 40, 80, 100, 100, 100, 100, 100, 100] {
                cc.on_ack(&ack(t, 50, rate, 50_000, mss));
                t += 60; // > min_rtt, so each ack is a round
            }
            assert!(
                cc.full_bw_reached,
                "{:?}: pipe should be declared full",
                cc.probe_bw
            );
            assert!(matches!(cc.state, State::Drain | State::ProbeBw));
        }
    }

    #[test]
    fn model_tracks_bandwidth_and_rtt() {
        let mss = 1_460;
        let mut cc = Bbr::v1(mss);
        cc.on_ack(&ack(0, 80, 50, 10_000, mss));
        cc.on_ack(&ack(10, 40, 90, 10_000, mss));
        cc.on_ack(&ack(20, 60, 70, 10_000, mss));
        assert_eq!(cc.min_rtt, Some(SimDuration::from_millis(40)));
        assert_eq!(cc.btl_bw(), Some(DataRate::from_mbps(90)));
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let mss = 1_460;
        let mut cc = Bbr::v1(mss);
        cc.on_ack(&ack(0, 100, 80, 10_000, mss));
        // BDP = 80 Mbps * 100 ms = 1 MB; cwnd = gain * BDP.
        let bdp = 1_000_000u64;
        let expect = (bdp as f64 * cc.cwnd_gain) as u64;
        let got = cc.cwnd();
        assert!(
            (got as f64 - expect as f64).abs() / (expect as f64) < 0.01,
            "cwnd {got} vs {expect}"
        );
    }

    #[test]
    fn loss_does_not_shrink_the_model() {
        let mss = 1_460;
        let mut cc = Bbr::v1(mss);
        cc.on_ack(&ack(0, 50, 100, 10_000, mss));
        let w = cc.cwnd();
        for _ in 0..10 {
            cc.on_loss_event(SimTime::from_millis(10));
        }
        assert_eq!(cc.cwnd(), w, "BBR ignores ordinary loss");
    }

    #[test]
    fn probe_rtt_clamps_cwnd_and_exits_with_fresh_stamp() {
        let mss = 1_460;
        for mut cc in both(mss) {
            let t = into_probe_rtt(&mut cc, mss);
            assert_eq!(cc.cwnd(), 4 * mss);
            // Exits once in-flight drained and the dwell elapsed.
            cc.on_ack(&ack(t + 300, 50, 100, 2 * mss, mss));
            assert_ne!(cc.state, State::ProbeRtt, "{:?}", cc.probe_bw);
            // The stamp was refreshed on exit: the very next ACK must not
            // bounce straight back into ProbeRTT.
            cc.on_ack(&ack(t + 400, 80, 100, 10_000, mss));
            assert_ne!(cc.state, State::ProbeRtt, "{:?}", cc.probe_bw);
        }
    }

    #[test]
    fn probe_bw_cycles_gains() {
        let mss = 1_460;
        let mut cc = Bbr::v1(mss);
        let mut t = 0;
        // Reach ProbeBW.
        for rate in [10, 20, 40, 80, 100, 100, 100, 100, 100, 100, 100] {
            cc.on_ack(&ack(t, 50, rate, 1_000, mss));
            t += 60;
        }
        assert_eq!(cc.state, State::ProbeBw);
        // Collect pacing gains over the next rounds: must include the
        // 1.25 probe and the 0.75 drain phases.
        let mut seen = Vec::new();
        for _ in 0..10 {
            cc.on_ack(&ack(t, 50, 100, 1_000, mss));
            seen.push(cc.pacing_gain);
            t += 60;
        }
        assert!(seen.iter().any(|&g| (g - 1.25).abs() < 1e-9), "{seen:?}");
        assert!(seen.iter().any(|&g| (g - 0.75).abs() < 1e-9), "{seen:?}");
    }

    #[test]
    fn bw_window_forgets_old_samples() {
        let mss = 1_460;
        let mut cc = Bbr::v1(mss);
        cc.on_ack(&ack(0, 50, 200, 1_000, mss));
        // 11 s later, feed lower samples; the 200 Mbps one must age out.
        cc.on_ack(&ack(11_000, 50, 50, 1_000, mss));
        assert_eq!(cc.btl_bw(), Some(DataRate::from_mbps(50)));
    }

    #[test]
    fn rto_during_probe_rtt_refreshes_the_stamp() {
        let mss = 1_460;
        for mut cc in both(mss) {
            let t = into_probe_rtt(&mut cc, mss);
            // An RTO fires mid-dwell, before any RTT sample was collected.
            cc.on_rto(SimTime::from_millis(t));
            assert_eq!(cc.state, State::Startup);
            // Regression: the exit must refresh the staleness stamp, or this
            // ACK (still > 10 s after the last floor sample) would bounce the
            // connection straight back into ProbeRTT's 4-MSS clamp.
            cc.on_ack(&ack(t + 50, 80, 100, 10_000, mss));
            assert_ne!(cc.state, State::ProbeRtt, "{:?}", cc.probe_bw);
            assert!(cc.cwnd() > 4 * mss || cc.conservation_cwnd.is_some());
        }
    }

    #[test]
    fn rto_restarts_startup_but_keeps_model() {
        let mss = 1_460;
        for mut cc in both(mss) {
            cc.on_ack(&ack(0, 50, 100, 1_000, mss));
            cc.on_rto(SimTime::from_millis(100));
            assert_eq!(cc.state, State::Startup);
            assert_eq!(cc.btl_bw(), Some(DataRate::from_mbps(100)));
            assert!((cc.pacing_gain - STARTUP_GAIN).abs() < 1e-9);
            assert_eq!(cc.cwnd(), 4 * mss, "packet conservation after RTO");
        }
    }
}

//! The window core of the four loss-based controllers: Reno, CUBIC, Veno
//! and Vegas.
//!
//! [`Window`] holds what all four share — slow start clamped at
//! `ssthresh`, "a window's worth was ACKed", the multiplicative cut and
//! the RTO collapse (`ssthresh = max(⌊cwnd·β⌋, 2 MSS)`), and the backlog
//! estimate. A [`Policy`] holds only what makes each algorithm itself:
//!
//! * **Reno** (NewReno AIMD): one segment per window, β = 0.5.
//! * **CUBIC** (RFC 8312, simplified): the window follows a cubic in the
//!   time since the last loss, plateauing near the window where loss last
//!   occurred (`w_max`) and then probing beyond it; β = 0.7.
//! * **Veno**: a loss with a backlog under 3 segments looks random
//!   (wireless) and cuts only to 4/5; with a full queue the additive
//!   increase runs every other window.
//! * **Vegas** (delay-based): once per RTT it keeps the backlog between
//!   α = 2 and β = 4 segments, nudging the window by one segment.
//!
//! On Starlink every handover burst still cuts all four: Reno halves, CUBIC
//! restarts its epoch, Veno's 20 % cuts add up over several bursts a minute,
//! and Vegas also reads bent-pipe queueing jitter as congestion — Fig. 8.

use super::{initial_cwnd, min_cwnd, AckSample, CongestionControl};
use starlink_simcore::{SimDuration, SimTime};

/// Reno's decrease; also Veno's for congestive loss and every RTO but
/// CUBIC's.
const HALVE: f64 = 0.5;
/// CUBIC: RFC 8312 constant `C`, in segments/sec³.
const CUBIC_C: f64 = 0.4;
/// CUBIC's decrease, on loss and RTO alike.
const CUBIC_BETA: f64 = 0.7;
/// Veno: backlog (segments) below which a loss is presumed random rather
/// than congestive.
const VENO_RANDOM_BACKLOG: f64 = 3.0;
/// Veno's decrease for a presumed-random loss.
const VENO_RANDOM_BETA: f64 = 0.8;
/// Vegas: lower backlog target, segments.
const VEGAS_ALPHA: f64 = 2.0;
/// Vegas: upper backlog target, segments.
const VEGAS_BETA: f64 = 4.0;

/// The window mechanics the four controllers share. All arithmetic is in
/// bytes; segments appear only where a published form counts them.
#[derive(Debug, Clone)]
struct Window {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Bytes ACKed towards the next whole window in congestion avoidance.
    acked_accum: u64,
}

impl Window {
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Slow start, clamped at `ssthresh`: grows by `acked` and returns
    /// true while below it; does nothing and returns false in congestion
    /// avoidance.
    fn slow_start(&mut self, acked: u64) -> bool {
        if !self.in_slow_start() {
            return false;
        }
        self.cwnd = (self.cwnd + acked).min(self.ssthresh);
        true
    }

    /// Counts `acked` towards the current window; true once a whole
    /// window's worth has been ACKed (and that much is consumed).
    fn window_acked(&mut self, acked: u64) -> bool {
        self.acked_accum += acked;
        let window = self.cwnd.max(1);
        if self.acked_accum < window {
            return false;
        }
        self.acked_accum -= window;
        true
    }

    /// `bytes`, floored at two segments so the connection can always clock.
    fn floored(&self, bytes: u64) -> u64 {
        bytes.max(min_cwnd(self.mss))
    }

    /// The multiplicative decrease both reactions share:
    /// `ssthresh = max(⌊cwnd·β⌋, 2 MSS)`. For every window below 2⁵³
    /// bytes `⌊cwnd·0.5⌋` is exactly `cwnd / 2`.
    fn reduce(&mut self, beta: f64) {
        self.ssthresh = self.floored((self.cwnd as f64 * beta) as u64);
        self.acked_accum = 0;
    }

    /// A fast-retransmit loss: the window drops to the new `ssthresh`.
    fn cut(&mut self, beta: f64) {
        self.reduce(beta);
        self.cwnd = self.ssthresh;
    }

    /// A retransmission timeout: the window collapses to one segment.
    fn collapse(&mut self, beta: f64) {
        self.reduce(beta);
        self.cwnd = self.mss;
    }

    fn segments(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mss as f64
    }

    /// The Vegas backlog estimate `N = cwnd·(rtt − base)/rtt` (Vegas's
    /// `diff`): segments queued in the network, if both RTTs are known.
    fn backlog(&self, base: Option<SimDuration>, rtt: Option<SimDuration>) -> Option<f64> {
        let base = base?.as_secs_f64();
        let rtt = rtt?.as_secs_f64();
        if base <= 0.0 || rtt <= 0.0 {
            return None;
        }
        Some(self.segments(self.cwnd) * (rtt - base) / rtt)
    }
}

/// Folds `rtt` into a min-filter.
fn fold_min(slot: &mut Option<SimDuration>, rtt: SimDuration) {
    *slot = Some(slot.map_or(rtt, |m| m.min(rtt)));
}

/// What an algorithm adds to the shared window — the only place the four
/// differ.
#[derive(Debug, Clone)]
enum Policy {
    Reno,
    Cubic(Cubic),
    Veno(Veno),
    Vegas(Vegas),
}

/// CUBIC's epoch state.
#[derive(Debug, Clone, Default)]
struct Cubic {
    /// Window before the last reduction, segments.
    w_max: f64,
    /// Epoch start (set at the first ACK after a reduction).
    epoch_start: Option<SimTime>,
    /// Time offset at which the cubic reaches `w_max`, seconds.
    k: f64,
    /// Reno-equivalent window for the TCP-friendly region, segments.
    w_est: f64,
}

impl Cubic {
    /// Congestion avoidance: approach the cubic (or the Reno-friendly
    /// `w_est`, whichever is larger) evaluated at the time since the epoch.
    fn avoid(&mut self, w: &mut Window, sample: &AckSample) {
        let now = sample.now;
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // New epoch: anchor the cubic at the current window.
                let cw = w.segments(w.cwnd);
                if cw < self.w_max {
                    self.k = ((self.w_max - cw) / CUBIC_C).cbrt();
                } else {
                    self.k = 0.0;
                    self.w_max = cw;
                }
                self.w_est = cw;
                self.epoch_start = Some(now);
                now
            }
        };
        let t = now.saturating_since(epoch).as_secs_f64();
        let target = CUBIC_C * (t - self.k).powi(3) + self.w_max; // segments

        // TCP-friendly region: emulate Reno's 1 segment per RTT.
        if w.window_acked(sample.acked_bytes) {
            self.w_est += 1.0;
        }

        let target = target.max(self.w_est);
        let current = w.segments(w.cwnd);
        if target > current {
            // Approach the target over roughly one RTT: grow by the
            // shortfall fraction per ACK.
            let growth = ((target - current) / current.max(1.0)) * sample.acked_bytes as f64;
            w.cwnd += growth.max(0.0) as u64;
        }
    }

    /// A reduction (loss or RTO) ends the epoch and remembers where it
    /// happened; returns CUBIC's β.
    fn end_epoch(&mut self, w: &Window) -> f64 {
        self.w_max = w.segments(w.cwnd);
        self.epoch_start = None;
        CUBIC_BETA
    }
}

/// Veno's RTT samples and increase toggle.
#[derive(Debug, Clone, Default)]
struct Veno {
    base_rtt: Option<SimDuration>,
    last_rtt: Option<SimDuration>,
    /// With a full queue additive increase runs at half speed; this flag
    /// alternates windows.
    skip_toggle: bool,
}

impl Veno {
    fn sample(&mut self, rtt: Option<SimDuration>) {
        if let Some(rtt) = rtt {
            fold_min(&mut self.base_rtt, rtt);
            self.last_rtt = Some(rtt);
        }
    }

    /// Congestion avoidance: one segment per window, every other window
    /// once the backlog reaches the random-loss threshold.
    fn avoid(&mut self, w: &mut Window, acked: u64) {
        if !w.window_acked(acked) {
            return;
        }
        if matches!(w.backlog(self.base_rtt, self.last_rtt), Some(n) if n >= VENO_RANDOM_BACKLOG) {
            self.skip_toggle = !self.skip_toggle;
            if self.skip_toggle {
                return;
            }
        }
        w.cwnd += w.mss;
    }

    /// The cut for a loss event: shallow if the queue looked empty.
    fn loss_beta(&self, w: &Window) -> f64 {
        match w.backlog(self.base_rtt, self.last_rtt) {
            Some(n) if n < VENO_RANDOM_BACKLOG => VENO_RANDOM_BETA,
            _ => HALVE,
        }
    }
}

/// Vegas's RTT anchor and once-per-RTT round.
#[derive(Debug, Clone, Default)]
struct Vegas {
    /// Smallest RTT observed on this path (propagation estimate).
    base_rtt: Option<SimDuration>,
    /// Smallest RTT within the current adjustment round.
    round_min_rtt: Option<SimDuration>,
    /// End of the current once-per-RTT adjustment round.
    round_ends: SimTime,
}

impl Vegas {
    fn on_ack(&mut self, w: &mut Window, sample: &AckSample) {
        let Some(rtt) = sample.rtt else {
            return;
        };
        fold_min(&mut self.base_rtt, rtt);
        fold_min(&mut self.round_min_rtt, rtt);

        if w.in_slow_start() {
            // Vegas slow start: grow every other RTT in real Vegas; keep
            // standard doubling (unclamped) but leave slow start early
            // when the queue estimate exceeds alpha.
            w.cwnd += sample.acked_bytes;
            let diff = w.backlog(self.base_rtt, self.round_min_rtt);
            if matches!(diff, Some(diff) if diff > VEGAS_ALPHA) {
                w.ssthresh = w.cwnd;
            }
        }

        // Once-per-RTT adjustment.
        if sample.now < self.round_ends {
            return;
        }
        self.round_ends = sample.now + rtt;
        if !w.in_slow_start() {
            match w.backlog(self.base_rtt, self.round_min_rtt) {
                Some(diff) if diff < VEGAS_ALPHA => w.cwnd += w.mss,
                Some(diff) if diff > VEGAS_BETA => w.cwnd = w.floored(w.cwnd.saturating_sub(w.mss)),
                _ => {}
            }
        }
        self.round_min_rtt = None;
    }
}

/// A loss-based controller: the shared window plus one algorithm's policy.
#[derive(Debug, Clone)]
pub(crate) struct WindowCc {
    window: Window,
    policy: Policy,
}

impl WindowCc {
    /// A fresh NewReno connection.
    pub(crate) fn reno(mss: u64) -> Self {
        Self::new(mss, Policy::Reno)
    }

    /// A fresh CUBIC connection.
    pub(crate) fn cubic(mss: u64) -> Self {
        Self::new(mss, Policy::Cubic(Cubic::default()))
    }

    /// A fresh Veno connection.
    pub(crate) fn veno(mss: u64) -> Self {
        Self::new(mss, Policy::Veno(Veno::default()))
    }

    /// A fresh Vegas connection.
    pub(crate) fn vegas(mss: u64) -> Self {
        Self::new(mss, Policy::Vegas(Vegas::default()))
    }

    fn new(mss: u64, policy: Policy) -> Self {
        WindowCc {
            window: Window {
                mss,
                cwnd: initial_cwnd(mss),
                ssthresh: u64::MAX,
                acked_accum: 0,
            },
            policy,
        }
    }
}

impl CongestionControl for WindowCc {
    fn on_ack(&mut self, sample: &AckSample) {
        let w = &mut self.window;
        let acked = sample.acked_bytes;
        match &mut self.policy {
            Policy::Reno => {
                if !w.slow_start(acked) && w.window_acked(acked) {
                    w.cwnd += w.mss;
                }
            }
            Policy::Cubic(c) => {
                if !w.slow_start(acked) {
                    c.avoid(w, sample);
                }
            }
            Policy::Veno(v) => {
                v.sample(sample.rtt);
                if !w.slow_start(acked) {
                    v.avoid(w, acked);
                }
            }
            Policy::Vegas(v) => v.on_ack(w, sample),
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        let beta = match &mut self.policy {
            Policy::Reno | Policy::Vegas(_) => HALVE,
            Policy::Cubic(c) => c.end_epoch(&self.window),
            Policy::Veno(v) => v.loss_beta(&self.window),
        };
        self.window.cut(beta);
    }

    fn on_rto(&mut self, _now: SimTime) {
        let beta = match &mut self.policy {
            Policy::Cubic(c) => c.end_epoch(&self.window),
            _ => HALVE,
        };
        self.window.collapse(beta);
    }

    fn on_path_change(&mut self, _now: SimTime) {
        // The propagation-delay anchor belongs to the *old* path. A
        // min-filter never forgets, so after a handover onto a longer
        // path every honest RTT sample reads as queueing (`rtt - base`
        // inflated by the propagation delta) and Vegas parks at its
        // window floor forever. Expire the anchor and let the next
        // samples re-establish it on the new path.
        if let Policy::Vegas(v) = &mut self.policy {
            v.base_rtt = None;
            v.round_min_rtt = None;
        }
    }

    fn cwnd(&self) -> u64 {
        self.window.cwnd
    }

    fn ssthresh(&self) -> Option<u64> {
        Some(self.window.ssthresh)
    }
}

/// What the unit tests in `cc` read beyond the trait.
#[cfg(test)]
impl WindowCc {
    pub(super) fn in_slow_start(&self) -> bool {
        self.window.in_slow_start()
    }

    /// Veno's backlog estimate, or the Vegas `diff`.
    pub(super) fn backlog_estimate(&self) -> Option<f64> {
        match &self.policy {
            Policy::Veno(v) => self.window.backlog(v.base_rtt, v.last_rtt),
            Policy::Vegas(v) => self.window.backlog(v.base_rtt, v.round_min_rtt),
            Policy::Reno | Policy::Cubic(_) => None,
        }
    }

    /// The Vegas propagation anchor.
    pub(super) fn base_rtt(&self) -> Option<SimDuration> {
        match &self.policy {
            Policy::Vegas(v) => v.base_rtt,
            _ => None,
        }
    }
}

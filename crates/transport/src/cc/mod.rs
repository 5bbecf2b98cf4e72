//! Congestion control: the trait, the five algorithms of Fig. 8, and the
//! BBRv2-class extension used by the fairness experiments.
//!
//! The paper runs BBR, CUBIC, Reno, Veno and Vegas over the same Starlink
//! link and finds BBR clearly ahead — yet still only reaching about half
//! the UDP-burst capacity — while on low-loss campus Wi-Fi every algorithm
//! clears 80–90 %. The mechanism: the loss-based algorithms (Reno, CUBIC,
//! and to a lesser degree Veno) interpret every handover loss burst as
//! congestion and halve; Vegas additionally misreads bent-pipe queueing
//! jitter as congestion; BBR's model-based rate keeps sending through
//! losses but still pays for them in delivered goodput and ProbeRTT dips.
//! BBRv2 keeps the model-based core but bounds it with explicit inflight
//! limits and a loss-rate ceiling, trading a little of BBRv1's
//! loss-resilience for fairness against loss-based flows at a shared
//! bottleneck.
//!
//! The six run on two cores, each written once: **model-based**
//! `bbr::Bbr` (BBR v1/v2 share the path model, round clock, Startup/Drain,
//! ProbeRTT dwell and RTO conservation; only ProbeBW differs) and
//! **window-based** `window::WindowCc` (Reno/CUBIC/Veno/Vegas share the
//! clamped slow start, once-per-window count, floored β-cut, RTO collapse
//! and backlog estimate; each algorithm is a policy holding only its own
//! state). `CcAlgorithm::label` is the one name table.
//!
//! All window arithmetic is in **bytes** (MSS-granular internally where an
//! algorithm's published form counts segments).

mod bbr;
mod window;

use starlink_obsv::CcPhase;
use starlink_simcore::{DataRate, SimDuration, SimTime};

/// Everything an algorithm may want to know about an arriving ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Bytes newly acknowledged (cumulative + SACK progress).
    pub acked_bytes: u64,
    /// RTT sample from the echoed timestamp, if present.
    pub rtt: Option<SimDuration>,
    /// Bytes in flight *after* this ACK was processed.
    pub in_flight: u64,
    /// Bytes currently presumed lost (unSACKed, below the sender's SACK
    /// evidence frontier). Loss-ceiling controllers (BBRv2) fold this
    /// into a per-round loss-rate estimate; everyone else ignores it.
    pub lost_bytes: u64,
    /// Sender maximum segment size.
    pub mss: u64,
    /// Delivery-rate sample (delivered bytes / elapsed) for rate-based
    /// controllers, if computable.
    pub delivery_rate: Option<DataRate>,
}

/// A pluggable congestion-control algorithm.
pub trait CongestionControl {
    /// Process an acknowledgement.
    fn on_ack(&mut self, sample: &AckSample);
    /// A loss event was detected by fast retransmit (at most once per
    /// recovery episode).
    fn on_loss_event(&mut self, now: SimTime);
    /// The retransmission timer expired.
    fn on_rto(&mut self, now: SimTime);
    /// Loss recovery (fast or RTO) completed; algorithms that clamp
    /// their window during recovery may restore it. Default: nothing.
    fn on_recovery_exit(&mut self, _now: SimTime) {}
    /// The network path changed underneath the connection (a scheduled
    /// handover edge). Algorithms whose model anchors on a path property
    /// (Vegas baseRTT) should expire and re-sample it. Default: nothing.
    fn on_path_change(&mut self, _now: SimTime) {}
    /// Current congestion window, bytes.
    fn cwnd(&self) -> u64;
    /// Current slow-start threshold, bytes, for algorithms that keep one
    /// (`u64::MAX` until the first reduction). Model-based algorithms
    /// (BBR) return `None`. Exposed so correctness oracles can check the
    /// window-bound invariants from outside the connection.
    fn ssthresh(&self) -> Option<u64> {
        None
    }
    /// Pacing rate, for algorithms that pace (BBR). Default: `None` —
    /// window-only algorithms rely on ACK clocking.
    fn pacing_rate(&self) -> Option<DataRate> {
        None
    }
    /// The model-based probing phase, for algorithms with an explicit
    /// probe state machine (BBR, BBRv2); window-only algorithms return
    /// `None`. Transitions surface as `cc_phase` trace events.
    fn probe_phase(&self) -> Option<CcPhase> {
        None
    }
    /// Test-only planted-bug hook: controllers with a loss-rate ceiling
    /// (BBRv2) stop honouring it, turning the flow into the bully the
    /// swarm's fairness oracle exists to catch. Default: nothing — most
    /// algorithms have no ceiling to ignore.
    fn debug_ignore_loss_ceiling(&mut self) {}
}

/// The five algorithms available on the paper's Raspberry Pi image, plus
/// the BBRv2-class extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// BBR v1 (model-based).
    Bbr,
    /// BBRv2-class (model-based, loss-ceiling bounded).
    Bbr2,
    /// CUBIC (the Linux default).
    Cubic,
    /// NewReno-style AIMD.
    Reno,
    /// Veno (Reno with Vegas-informed loss discrimination).
    Veno,
    /// Vegas (delay-based).
    Vegas,
}

impl CcAlgorithm {
    /// Every algorithm, in the paper's Fig. 8 x-axis order (BBRv2 slots
    /// in beside BBRv1). Code that needs "the whole set" must iterate
    /// this — never a hand-written list — so new algorithms are picked
    /// up everywhere at once.
    pub const ALL: [CcAlgorithm; 6] = [
        CcAlgorithm::Bbr,
        CcAlgorithm::Bbr2,
        CcAlgorithm::Cubic,
        CcAlgorithm::Reno,
        CcAlgorithm::Veno,
        CcAlgorithm::Vegas,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Bbr => "BBR",
            CcAlgorithm::Bbr2 => "BBR2",
            CcAlgorithm::Cubic => "CUBIC",
            CcAlgorithm::Reno => "RENO",
            CcAlgorithm::Veno => "VENO",
            CcAlgorithm::Vegas => "VEGAS",
        }
    }

    /// Whether the algorithm paces (model-based rate control) rather
    /// than relying on pure ACK clocking. The single source of truth for
    /// "is this a BBR-family algorithm" — tests and experiment shape
    /// checks key off this instead of naming variants, so the set stays
    /// extension-safe.
    pub fn paces(self) -> bool {
        matches!(self, CcAlgorithm::Bbr | CcAlgorithm::Bbr2)
    }

    /// Instantiates the algorithm for a connection with the given MSS.
    pub fn build(self, mss: u64) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Bbr => Box::new(bbr::Bbr::v1(mss)),
            CcAlgorithm::Bbr2 => Box::new(bbr::Bbr::v2(mss)),
            CcAlgorithm::Cubic => Box::new(window::WindowCc::cubic(mss)),
            CcAlgorithm::Reno => Box::new(window::WindowCc::reno(mss)),
            CcAlgorithm::Veno => Box::new(window::WindowCc::veno(mss)),
            CcAlgorithm::Vegas => Box::new(window::WindowCc::vegas(mss)),
        }
    }
}

/// Initial window: 10 segments (RFC 6928).
pub(crate) fn initial_cwnd(mss: u64) -> u64 {
    10 * mss
}

/// Floor any window at 2 segments so the connection can always clock.
pub(crate) fn min_cwnd(mss: u64) -> u64 {
    2 * mss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_build_and_report_names() {
        // `label` is the one name table: every algorithm builds, and the
        // labels read as the Fig. 8 axis.
        let labels: Vec<&str> = CcAlgorithm::ALL
            .iter()
            .map(|a| {
                a.build(1_460);
                a.label()
            })
            .collect();
        assert_eq!(
            labels,
            vec!["BBR", "BBR2", "CUBIC", "RENO", "VENO", "VEGAS"]
        );
        // Labels are unique: the scenario JSON round-trip keys off them.
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len(), "duplicate labels");
    }

    #[test]
    fn initial_windows_are_rfc6928() {
        for algo in CcAlgorithm::ALL {
            let cc = algo.build(1_460);
            assert_eq!(cc.cwnd(), 10 * 1_460, "{}", algo.label());
        }
    }

    #[test]
    fn pacing_matches_the_declared_predicate() {
        // Extension-safe form of the old `only_bbr_paces`: every
        // algorithm's runtime behaviour must agree with its `paces()`
        // declaration, whatever the set contains.
        for algo in CcAlgorithm::ALL {
            let cc = algo.build(1_460);
            assert_eq!(
                cc.pacing_rate().is_some(),
                algo.paces(),
                "{} disagrees with paces()",
                algo.label()
            );
        }
    }

    #[test]
    fn probe_phase_matches_the_pacing_predicate() {
        // Model-based algorithms expose their probe state machine; the
        // window-only ones have none to expose.
        for algo in CcAlgorithm::ALL {
            let cc = algo.build(1_460);
            assert_eq!(
                cc.probe_phase().is_some(),
                algo.paces(),
                "{} probe phase",
                algo.label()
            );
        }
    }
}

// Unit tests of the window policies, one module per algorithm
// (`cc::reno::tests`, …) so each test keeps a stable name.
#[cfg(test)]
mod reno {
    mod tests {
        use crate::cc::window::WindowCc;
        use crate::cc::{AckSample, CongestionControl};
        use starlink_simcore::{SimDuration, SimTime};

        fn ack(acked: u64, mss: u64) -> AckSample {
            AckSample {
                now: SimTime::ZERO,
                acked_bytes: acked,
                rtt: Some(SimDuration::from_millis(50)),
                in_flight: 0,
                lost_bytes: 0,
                mss,
                delivery_rate: None,
            }
        }

        #[test]
        fn slow_start_doubles_per_window() {
            let mss = 1_000;
            let mut cc = WindowCc::reno(mss);
            let w0 = cc.cwnd();
            // ACK an entire window's worth of data.
            cc.on_ack(&ack(w0, mss));
            assert_eq!(cc.cwnd(), 2 * w0);
            assert!(cc.in_slow_start());
        }

        #[test]
        fn congestion_avoidance_adds_one_mss_per_window() {
            let mss = 1_000;
            let mut cc = WindowCc::reno(mss);
            cc.on_loss_event(SimTime::ZERO); // leaves slow start at 5 segs
            let w = cc.cwnd();
            assert!(!cc.in_slow_start());
            // ACK one full window in pieces: +1 MSS total.
            for _ in 0..5 {
                cc.on_ack(&ack(w / 5, mss));
            }
            assert_eq!(cc.cwnd(), w + mss);
        }

        #[test]
        fn loss_halves_and_rto_collapses() {
            let mss = 1_000;
            let mut cc = WindowCc::reno(mss);
            cc.on_ack(&ack(40_000, mss)); // grow in slow start
            let w = cc.cwnd();
            cc.on_loss_event(SimTime::ZERO);
            assert_eq!(cc.cwnd(), w / 2);
            cc.on_rto(SimTime::ZERO);
            assert_eq!(cc.cwnd(), mss);
        }

        #[test]
        fn floors_at_two_segments() {
            let mss = 1_000;
            let mut cc = WindowCc::reno(mss);
            for _ in 0..20 {
                cc.on_loss_event(SimTime::ZERO);
            }
            assert_eq!(cc.cwnd(), 2 * mss);
        }
    }
}

#[cfg(test)]
mod cubic {
    mod tests {
        use crate::cc::window::WindowCc;
        use crate::cc::{AckSample, CongestionControl};
        use starlink_simcore::{SimDuration, SimTime};

        fn ack_at(now: SimTime, acked: u64, mss: u64) -> AckSample {
            AckSample {
                now,
                acked_bytes: acked,
                rtt: Some(SimDuration::from_millis(50)),
                in_flight: 0,
                lost_bytes: 0,
                mss,
                delivery_rate: None,
            }
        }

        #[test]
        fn beta_is_point_seven() {
            let mss = 1_000;
            let mut cc = WindowCc::cubic(mss);
            cc.on_ack(&ack_at(SimTime::ZERO, 100_000, mss));
            let w = cc.cwnd();
            cc.on_loss_event(SimTime::ZERO);
            let ratio = cc.cwnd() as f64 / w as f64;
            assert!((ratio - 0.7).abs() < 0.01, "{ratio}");
        }

        #[test]
        fn grows_back_toward_w_max_after_loss() {
            let mss = 1_000;
            let mut cc = WindowCc::cubic(mss);
            // Grow to ~100 segments in slow start, then lose.
            cc.on_ack(&ack_at(SimTime::ZERO, 90_000, mss));
            let w_before_loss = cc.cwnd();
            cc.on_loss_event(SimTime::from_millis(100));
            // Feed ACKs over simulated seconds: the cubic must re-approach
            // w_max.
            let mut t = SimTime::from_millis(200);
            for _ in 0..400 {
                cc.on_ack(&ack_at(t, 10_000, mss));
                t += SimDuration::from_millis(50);
            }
            assert!(
                cc.cwnd() as f64 >= 0.9 * w_before_loss as f64,
                "cwnd {} should re-approach w_max {}",
                cc.cwnd(),
                w_before_loss
            );
        }

        #[test]
        fn concave_then_convex_growth() {
            let mss = 1_000;
            let mut cc = WindowCc::cubic(mss);
            cc.on_ack(&ack_at(SimTime::ZERO, 90_000, mss));
            cc.on_loss_event(SimTime::from_millis(100));
            // Sample growth increments at fixed ack cadence: early increments
            // (approaching w_max) should shrink, later ones (past w_max) grow.
            let mut t = SimTime::from_millis(200);
            let mut windows = Vec::new();
            for _ in 0..600 {
                cc.on_ack(&ack_at(t, 5_000, mss));
                windows.push(cc.cwnd());
                t += SimDuration::from_millis(20);
            }
            let early_growth = windows[50] as i64 - windows[0] as i64;
            let mid_growth = windows[300] as i64 - windows[250] as i64;
            let late_growth = *windows.last().unwrap() as i64 - windows[550] as i64;
            assert!(early_growth > 0);
            // Plateau near w_max: mid growth smaller than early.
            assert!(
                mid_growth <= early_growth,
                "mid {mid_growth} vs early {early_growth}"
            );
            // Convex probe beyond: late growth picks up again.
            assert!(
                late_growth >= mid_growth,
                "late {late_growth} vs mid {mid_growth}"
            );
        }

        #[test]
        fn rto_collapses_to_one_segment() {
            let mss = 1_000;
            let mut cc = WindowCc::cubic(mss);
            cc.on_ack(&ack_at(SimTime::ZERO, 50_000, mss));
            cc.on_rto(SimTime::from_millis(10));
            assert_eq!(cc.cwnd(), mss);
        }
    }
}

#[cfg(test)]
mod veno {
    mod tests {
        use crate::cc::window::WindowCc;
        use crate::cc::{AckSample, CongestionControl};
        use starlink_simcore::{SimDuration, SimTime};

        fn ack(acked: u64, rtt_ms: u64, mss: u64) -> AckSample {
            AckSample {
                now: SimTime::ZERO,
                acked_bytes: acked,
                rtt: Some(SimDuration::from_millis(rtt_ms)),
                in_flight: 0,
                lost_bytes: 0,
                mss,
                delivery_rate: None,
            }
        }

        #[test]
        fn random_loss_cuts_one_fifth() {
            let mss = 1_000;
            let mut cc = WindowCc::veno(mss);
            // RTT equals base RTT: backlog ~ 0 => random-loss regime.
            cc.on_ack(&ack(50_000, 50, mss));
            let w = cc.cwnd();
            cc.on_loss_event(SimTime::ZERO);
            let ratio = cc.cwnd() as f64 / w as f64;
            assert!((ratio - 0.8).abs() < 0.01, "{ratio}");
        }

        #[test]
        fn congestive_loss_halves() {
            let mss = 1_000;
            let mut cc = WindowCc::veno(mss);
            cc.on_ack(&ack(50_000, 50, mss)); // base 50
            cc.on_ack(&ack(1_000, 300, mss)); // inflated: large backlog
            let w = cc.cwnd();
            cc.on_loss_event(SimTime::ZERO);
            let ratio = cc.cwnd() as f64 / w as f64;
            assert!((ratio - 0.5).abs() < 0.01, "{ratio}");
        }

        #[test]
        fn veno_outruns_reno_under_random_loss() {
            // Identical loss pattern, low-queue path: Veno keeps more window.
            let mss = 1_000;
            let mut veno = WindowCc::veno(mss);
            let mut reno = WindowCc::reno(mss);
            let grow = ack(50_000, 50, mss);
            veno.on_ack(&grow);
            reno.on_ack(&AckSample { ..grow });
            for _ in 0..5 {
                veno.on_loss_event(SimTime::ZERO);
                reno.on_loss_event(SimTime::ZERO);
            }
            assert!(
                veno.cwnd() > reno.cwnd(),
                "veno {} vs reno {}",
                veno.cwnd(),
                reno.cwnd()
            );
        }

        #[test]
        fn backlog_estimate_none_without_samples() {
            let cc = WindowCc::veno(1_000);
            assert!(cc.backlog_estimate().is_none());
        }
    }
}

#[cfg(test)]
mod vegas {
    mod tests {
        use crate::cc::window::WindowCc;
        use crate::cc::{AckSample, CongestionControl};
        use starlink_simcore::{SimDuration, SimTime};

        fn ack(now_ms: u64, acked: u64, rtt_ms: u64, mss: u64) -> AckSample {
            AckSample {
                now: SimTime::from_millis(now_ms),
                acked_bytes: acked,
                rtt: Some(SimDuration::from_millis(rtt_ms)),
                in_flight: 0,
                lost_bytes: 0,
                mss,
                delivery_rate: None,
            }
        }

        #[test]
        fn grows_when_path_is_empty() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            cc.on_loss_event(SimTime::ZERO); // exit slow start
            let w = cc.cwnd();
            // RTT equals base RTT: no queue, diff = 0 < alpha, +1 MSS per round.
            let mut t = 0;
            for _ in 0..5 {
                cc.on_ack(&ack(t, mss, 50, mss));
                t += 60;
            }
            assert!(cc.cwnd() > w, "{} vs {w}", cc.cwnd());
        }

        #[test]
        fn backs_off_when_rtt_inflates() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            // Establish base RTT at 50 ms.
            cc.on_ack(&ack(0, mss, 50, mss));
            cc.on_loss_event(SimTime::ZERO);
            let w = cc.cwnd();
            // RTTs inflate to 250 ms: diff = 5.5 * (200/250) = 4.4 > beta.
            let mut t = 100;
            for _ in 0..5 {
                cc.on_ack(&ack(t, mss, 250, mss));
                t += 300;
            }
            assert!(cc.cwnd() < w, "{} vs {w}", cc.cwnd());
        }

        #[test]
        fn holds_inside_the_band() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            cc.on_ack(&ack(0, mss, 50, mss));
            cc.on_loss_event(SimTime::ZERO);
            let w = cc.cwnd(); // 5 segments
                               // Pick an RTT putting diff between alpha and beta:
                               // diff = 5 * (rtt-50)/rtt in [2,4] => rtt in [83.3, 250].
            let mut t = 100;
            for _ in 0..5 {
                cc.on_ack(&ack(t, mss, 100, mss));
                t += 150;
            }
            assert_eq!(cc.cwnd(), w);
        }

        #[test]
        fn queue_estimate_matches_formula() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            cc.on_ack(&ack(0, mss, 50, mss));
            cc.on_ack(&ack(10, mss, 100, mss));
            // After the two acks base=50, round_min<=100. cwnd = 12 segments.
            let diff = cc.backlog_estimate().unwrap();
            let cwnd_seg = cc.cwnd() as f64 / mss as f64;
            assert!(diff <= cwnd_seg);
            assert!(diff >= 0.0);
        }

        #[test]
        fn path_change_resamples_base_rtt() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            // Anchor base RTT at 10 ms on the pre-handover path.
            cc.on_ack(&ack(0, mss, 10, mss));
            cc.on_loss_event(SimTime::ZERO);
            let w = cc.cwnd();
            // Handover onto a path whose true propagation delay is 90 ms.
            // Without re-sampling, diff = cwnd * 80/90 segments — far above
            // beta on every ACK — and the window ratchets down to the floor.
            cc.on_path_change(SimTime::from_millis(100));
            assert_eq!(cc.base_rtt(), None, "anchor must expire on a path change");
            let mut t = 200;
            for _ in 0..10 {
                cc.on_ack(&ack(t, mss, 90, mss));
                t += 120;
            }
            // The 90 ms samples re-anchored base: no phantom queue, so the
            // window grew (diff = 0 < alpha) instead of collapsing.
            assert_eq!(cc.base_rtt(), Some(SimDuration::from_millis(90)));
            assert!(cc.cwnd() > w, "{} vs {w}", cc.cwnd());
        }

        #[test]
        fn stale_base_rtt_collapses_without_path_change() {
            // The counterfactual for `path_change_resamples_base_rtt`: same
            // handover, no hint — the stale 10 ms anchor reads the new path's
            // propagation delay as a standing queue and Vegas backs off to
            // its floor. This is the bug the hint exists to fix.
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            cc.on_ack(&ack(0, mss, 10, mss));
            cc.on_loss_event(SimTime::ZERO);
            let w = cc.cwnd();
            let mut t = 200;
            for _ in 0..10 {
                cc.on_ack(&ack(t, mss, 90, mss));
                t += 120;
            }
            assert!(cc.cwnd() < w, "{} vs {w}", cc.cwnd());
        }

        #[test]
        fn loss_still_halves() {
            let mss = 1_000;
            let mut cc = WindowCc::vegas(mss);
            cc.on_ack(&ack(0, 50_000, 50, mss));
            let w = cc.cwnd();
            cc.on_loss_event(SimTime::ZERO);
            assert_eq!(cc.cwnd(), w / 2);
        }
    }
}

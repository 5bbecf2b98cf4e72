//! Dynamic link models: where the channel physics meets the packet
//! simulator.
//!
//! [`StarlinkLinkDynamics`] implements [`starlink_netsim::LinkDynamics`]
//! for the dish↔PoP hop. Per packet it combines:
//!
//! * **propagation** — the bent-pipe path length through the *current
//!   serving satellite* (precomputed per second from the serving
//!   schedule);
//! * **queueing** — cross-traffic queueing in the shared cell, sampled as
//!   a smoothed (EMA over 100 ms epochs) draw from the node profile's
//!   load-scaled span, so delay jitter is realistic but FIFO ordering is
//!   approximately preserved;
//! * **rate** — the cell capacity: ceiling × diurnal × weather × jitter,
//!   resampled every second;
//! * **loss** — the handover-driven loss model (outages ≈ total loss,
//!   per-handover burst severities, Gilbert–Elliott background) plus the
//!   weather's extra-loss floor.

use starlink_channel::{HandoverLossModel, NodeProfile, WeatherCondition, WeatherTimeline};
use starlink_constellation::{BentPipe, ServingSchedule};
use starlink_netsim::LinkDynamics;
use starlink_simcore::{DataRate, SimDuration, SimRng, SimTime};
use std::rc::Rc;

/// Which direction of the access link this instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// PoP → dish (the heavy direction).
    Down,
    /// Dish → PoP.
    Up,
}

/// The live Starlink access link.
pub struct StarlinkLinkDynamics {
    profile: NodeProfile,
    weather: WeatherTimeline,
    loss: HandoverLossModel,
    direction: Direction,
    /// Bent-pipe one-way propagation delay per second of the window
    /// (see `pipe_delay_track`), shared by every link built on the same
    /// schedule, pipe and window.
    pipe_delay_by_sec: Rc<[SimDuration]>,
    window_start: SimTime,
    /// Smoothed queueing state.
    queue_epoch: SimTime,
    queue_ms: f64,
    /// Rate cache (resampled per second).
    rate_at: SimTime,
    rate: DataRate,
    /// Condition seen by the previous weather lookup, for edge-detected
    /// [`starlink_obsv::TraceEvent::WeatherChange`] events.
    last_weather: Option<WeatherCondition>,
    rng: SimRng,
}

/// The bent-pipe one-way propagation delay over `[window_start,
/// window_start + window)`, one value per second: index = seconds since
/// window start. Seconds with no serving satellite reuse the last known
/// delay (packets die to loss anyway). `schedule`/`pipe` must cover the
/// window. Both directions of a link, and every link on the same schedule,
/// pipe and window, share one track.
pub(crate) fn pipe_delay_track(
    schedule: &ServingSchedule,
    pipe: &BentPipe<'_>,
    window_start: SimTime,
    window: SimDuration,
) -> Rc<[SimDuration]> {
    // ~4 ms is the geometric center of the bent pipe's delay range.
    let mut last = SimDuration::from_micros(4_000);
    (0..window.as_secs().max(1))
        .map(|s| {
            if let Some(d) = pipe.delay_at(schedule, window_start + SimDuration::from_secs(s)) {
                last = d;
            }
            last
        })
        .collect()
}

impl StarlinkLinkDynamics {
    /// Builds the link model for one direction.
    ///
    /// `schedule`/`pipe` must cover `[window_start, window_start +
    /// window)`; the bent-pipe delay track is computed at 1 s resolution
    /// by `pipe_delay_track`. A world that builds several links on one
    /// schedule computes the track once and hands it to each link's
    /// `with_pipe_delays`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: NodeProfile,
        weather: WeatherTimeline,
        schedule: &ServingSchedule,
        pipe: &BentPipe<'_>,
        window_start: SimTime,
        window: SimDuration,
        direction: Direction,
        rng: SimRng,
        loss_rng: SimRng,
    ) -> Self {
        Self::with_pipe_delays(
            profile,
            weather,
            schedule,
            pipe_delay_track(schedule, pipe, window_start, window),
            window_start,
            direction,
            rng,
            loss_rng,
        )
    }

    /// Builds the link model for one direction on a delay track from
    /// [`pipe_delay_track`] over the same `schedule` from `window_start`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_pipe_delays(
        profile: NodeProfile,
        weather: WeatherTimeline,
        schedule: &ServingSchedule,
        pipe_delay_by_sec: Rc<[SimDuration]>,
        window_start: SimTime,
        direction: Direction,
        rng: SimRng,
        loss_rng: SimRng,
    ) -> Self {
        let loss = HandoverLossModel::new(
            schedule,
            starlink_channel::loss::HandoverLossParams::default(),
            loss_rng,
        );
        StarlinkLinkDynamics {
            profile,
            weather,
            loss,
            direction,
            pipe_delay_by_sec,
            window_start,
            queue_epoch: SimTime::ZERO,
            queue_ms: 0.0,
            rate_at: SimTime::MAX,
            rate: DataRate::ZERO,
            last_weather: None,
            rng,
        }
    }

    /// The weather condition at `now`, emitting a
    /// [`starlink_obsv::TraceEvent::WeatherChange`] on the first lookup
    /// that sees a different condition than the previous one.
    fn weather_at(&mut self, now: SimTime) -> WeatherCondition {
        let condition = self.weather.condition_at(now);
        if self.last_weather != Some(condition) {
            if let Some(prev) = self.last_weather {
                starlink_obsv::emit(|| starlink_obsv::TraceEvent::WeatherChange {
                    t_ns: now.as_nanos(),
                    from: prev.code() as u64,
                    to: condition.code() as u64,
                });
                starlink_obsv::counter_add("channel.weather_transitions", 1);
            }
            self.last_weather = Some(condition);
        }
        condition
    }

    fn pipe_delay(&self, now: SimTime) -> SimDuration {
        let idx = now.saturating_since(self.window_start).as_secs() as usize;
        let idx = idx.min(self.pipe_delay_by_sec.len().saturating_sub(1));
        self.pipe_delay_by_sec[idx]
    }

    /// Advances the smoothed queue-delay process to `now`.
    fn queue_delay_ms(&mut self, now: SimTime) -> f64 {
        const EPOCH: SimDuration = SimDuration::from_millis(100);
        // The uplink shares the cell but carries far less traffic.
        let dir_scale = match self.direction {
            Direction::Down => 1.0,
            Direction::Up => 0.25,
        };
        while self.queue_epoch + EPOCH <= now {
            self.queue_epoch += EPOCH;
            let target = self
                .profile
                .sample_wireless_queue_ms(self.queue_epoch, &mut self.rng)
                * dir_scale;
            // Light EMA smoothing: enough to keep delay drift gradual,
            // little enough that repeated probes still see most of the
            // underlying spread (the Table 2 estimator depends on it; the
            // link's FIFO arrival clamp handles ordering).
            self.queue_ms += 0.6 * (target - self.queue_ms);
        }
        self.queue_ms.max(0.0)
    }
}

impl LinkDynamics for StarlinkLinkDynamics {
    fn prop_delay(&mut self, now: SimTime) -> SimDuration {
        let queue = SimDuration::from_millis_f64(self.queue_delay_ms(now));
        self.pipe_delay(now) + queue
    }

    fn rate(&mut self, now: SimTime) -> DataRate {
        if self.rate_at > now || now.saturating_since(self.rate_at) >= SimDuration::from_secs(1) {
            let weather = self.weather_at(now);
            self.rate = match self.direction {
                Direction::Down => self.profile.sample_iperf_dl(now, weather, &mut self.rng),
                Direction::Up => self.profile.sample_iperf_ul(now, weather, &mut self.rng),
            }
            .max(DataRate::from_kbps(500));
            self.rate_at = now;
        }
        self.rate
    }

    fn loss_prob(&mut self, now: SimTime) -> f64 {
        let weather_extra = self.weather_at(now).extra_loss();
        (self.loss.loss_prob_at(now) + weather_extra).min(1.0)
    }
}

/// Terrestrial-segment queueing: a static fibre delay plus the node
/// profile's load-scaled terrestrial queueing, smoothed like the access
/// link's.
pub(crate) struct TerrestrialQueueDynamics {
    profile: NodeProfile,
    base_delay: SimDuration,
    rate: DataRate,
    queue_epoch: SimTime,
    queue_ms: f64,
    rng: SimRng,
}

impl TerrestrialQueueDynamics {
    /// A terrestrial hop with `base_delay` propagation at `rate`.
    pub fn new(profile: NodeProfile, base_delay: SimDuration, rate: DataRate, rng: SimRng) -> Self {
        TerrestrialQueueDynamics {
            profile,
            base_delay,
            rate,
            queue_epoch: SimTime::ZERO,
            queue_ms: 0.0,
            rng,
        }
    }
}

impl LinkDynamics for TerrestrialQueueDynamics {
    fn prop_delay(&mut self, now: SimTime) -> SimDuration {
        const EPOCH: SimDuration = SimDuration::from_millis(100);
        while self.queue_epoch + EPOCH <= now {
            self.queue_epoch += EPOCH;
            let target = self
                .profile
                .sample_terrestrial_queue_ms(self.queue_epoch, &mut self.rng);
            self.queue_ms += 0.6 * (target - self.queue_ms);
        }
        self.base_delay + SimDuration::from_millis_f64(self.queue_ms.max(0.0))
    }

    fn rate(&mut self, _now: SimTime) -> DataRate {
        self.rate
    }

    fn loss_prob(&mut self, _now: SimTime) -> f64 {
        0.0001
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_channel::WeatherCondition;
    use starlink_constellation::{compute_schedule, Constellation, SelectionPolicy};
    use starlink_geo::{City, Geodetic};

    fn build_dynamics(direction: Direction) -> StarlinkLinkDynamics {
        let constellation = Constellation::starlink_shell1(0.3);
        let profile = NodeProfile::for_node(City::Wiltshire);
        let user = City::Wiltshire.position();
        let gateway = Geodetic::on_surface(50.05, -5.18);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(15);
        let schedule = compute_schedule(&constellation, user, SimTime::ZERO, window, &policy);
        let pipe = BentPipe::new(&constellation, user, gateway);
        let weather =
            WeatherTimeline::constant(WeatherCondition::ClearSky, SimDuration::from_hours(1));
        StarlinkLinkDynamics::new(
            profile,
            weather,
            &schedule,
            &pipe,
            SimTime::ZERO,
            window,
            direction,
            SimRng::seed_from(1),
            SimRng::seed_from(2),
        )
    }

    #[test]
    fn propagation_plus_queueing_in_realistic_band() {
        let mut dyn_dl = build_dynamics(Direction::Down);
        for sec in (0..800).step_by(20) {
            let d = dyn_dl.prop_delay(SimTime::from_secs(sec));
            let ms = d.as_millis_f64();
            // >= bent-pipe floor (~3.7 ms), <= floor + max queueing.
            assert!((3.0..140.0).contains(&ms), "t={sec}s: {ms} ms");
        }
    }

    #[test]
    fn uplink_queues_less_than_downlink() {
        let mut dl = build_dynamics(Direction::Down);
        let mut ul = build_dynamics(Direction::Up);
        let mut dl_acc = 0.0;
        let mut ul_acc = 0.0;
        for sec in 1..300 {
            let t = SimTime::from_secs(sec);
            dl_acc += dl.prop_delay(t).as_millis_f64();
            ul_acc += ul.prop_delay(t).as_millis_f64();
        }
        assert!(
            ul_acc < dl_acc,
            "uplink queueing {ul_acc} should undercut downlink {dl_acc}"
        );
    }

    #[test]
    fn rates_match_direction_profiles() {
        let mut dl = build_dynamics(Direction::Down);
        let mut ul = build_dynamics(Direction::Up);
        let rd = dl.rate(SimTime::from_secs(10)).as_mbps();
        let ru = ul.rate(SimTime::from_secs(10)).as_mbps();
        assert!(rd > 50.0, "downlink {rd}");
        assert!(ru < 20.0, "uplink {ru}");
    }

    #[test]
    fn loss_spikes_at_handovers() {
        let constellation = Constellation::starlink_shell1(0.3);
        let user = City::Wiltshire.position();
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(2),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(15);
        let schedule = compute_schedule(&constellation, user, SimTime::ZERO, window, &policy);
        assert!(!schedule.handovers.is_empty());
        let mut dynamics = build_dynamics(Direction::Down);
        // At a handover instant (not the initial acquisition), loss is in
        // the burst range.
        if let Some(&h) = schedule.handovers.iter().find(|&&h| h > SimTime::ZERO) {
            let p = dynamics.loss_prob(h + SimDuration::from_millis(100));
            assert!(p >= 0.08, "handover loss {p}");
        }
    }

    #[test]
    fn weather_transitions_emit_edge_events() {
        use starlink_obsv::TraceEvent;
        let mut dynamics = build_dynamics(Direction::Down);
        let mut rng = SimRng::seed_from(11);
        dynamics.weather = WeatherTimeline::generate(&mut rng, SimDuration::from_hours(24), 0.1);
        let conditions: Vec<WeatherCondition> = dynamics.weather.iter().collect();
        let expected = conditions.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(expected > 0, "timeline must change for this test");

        let (sink, shared) = starlink_obsv::CollectorSink::pair();
        assert!(starlink_obsv::install_trace(Box::new(sink)).is_none());
        for hour in 0..conditions.len() as u64 {
            let t = SimTime::ZERO + SimDuration::from_hours(hour) + SimDuration::from_secs(1);
            let _ = dynamics.weather_at(t);
        }
        starlink_obsv::take_trace();
        let events = shared.borrow();
        let changes: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::WeatherChange { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        // One event per hour boundary where the condition differs; the
        // initial lookup (None -> first condition) is not a transition.
        assert_eq!(changes.len(), expected, "events {changes:?}");
        for &(from, to) in &changes {
            assert_ne!(from, to, "self-transition traced");
        }
    }

    #[test]
    fn terrestrial_dynamics_add_queue_over_base() {
        let profile = NodeProfile::for_node(City::NorthCarolina);
        let mut dynamics = TerrestrialQueueDynamics::new(
            profile,
            SimDuration::from_millis(8),
            DataRate::from_gbps(10),
            SimRng::seed_from(5),
        );
        let mut max_ms: f64 = 0.0;
        for sec in 1..600 {
            let d = dynamics.prop_delay(SimTime::from_secs(sec)).as_millis_f64();
            assert!(d >= 8.0, "below base delay: {d}");
            max_ms = max_ms.max(d);
        }
        assert!(max_ms > 12.0, "queueing never appeared: max {max_ms}");
        assert!(dynamics.loss_prob(SimTime::from_secs(1)) < 0.001);
    }
}

//! Serving-satellite selection and the handover schedule.
//!
//! The observed Starlink behaviour the paper leans on (Fig. 7) is:
//!
//! 1. the terminal tracks one serving satellite at a time;
//! 2. re-selection happens on fixed *reconfiguration epochs* (15 s
//!    boundaries in deployed Starlink);
//! 3. when the serving satellite drops below the elevation mask mid-epoch,
//!    packets are lost until the next reconfiguration picks a replacement —
//!    this is the mechanism behind the loss clumps.
//!
//! [`compute_schedule`] samples the constellation on a fine grid, applies
//! that policy, and reports serving intervals, handover instants and outage
//! windows. All whole-constellation queries go through a
//! [`SnapshotCache`]: multi-observer sweeps ([`compute_schedules`]) advance
//! every observer in lockstep over the shared time grid, so each epoch
//! boundary is propagated **once** no matter how many users sweep it.

use crate::snapshot::SnapshotCache;
use crate::view::Constellation;
use starlink_geo::{Geodetic, ObserverFrame};
use starlink_simcore::{SimDuration, SimTime};

/// Parameters of the terminal's selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionPolicy {
    /// Minimum usable elevation, degrees.
    pub mask_deg: f64,
    /// Reconfiguration epoch: candidate changes only land on these
    /// boundaries.
    pub epoch: SimDuration,
    /// Sampling step for detecting the serving satellite leaving the mask.
    pub sample_step: SimDuration,
    /// Proactive-switch margin, degrees: at an epoch boundary, if the
    /// serving satellite will be within this margin of the mask by the
    /// *next* boundary, the terminal switches now instead of riding the
    /// pass into the ground (a real terminal plans its reconfigurations).
    pub proactive_margin_deg: f64,
    /// Scheduling imperfection: every `miss_every`-th planned proactive
    /// switch is missed, and the pass ends in a mid-epoch outage — the
    /// severe loss events behind the ≥25 % per-test tail of Fig. 6(c).
    /// `0` disables misses entirely.
    pub miss_every: usize,
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        SelectionPolicy {
            mask_deg: crate::view::SHELL1_MIN_ELEVATION_DEG,
            epoch: SimDuration::from_secs(15),
            sample_step: SimDuration::from_secs(1),
            proactive_margin_deg: 1.0,
            miss_every: 4,
        }
    }
}

/// A maximal interval during which one satellite serves the terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingInterval {
    /// Satellite index in the constellation.
    pub sat: usize,
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
}

impl ServingInterval {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The full serving history over an analysis window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingSchedule {
    /// Consecutive serving intervals (gaps between them are outages).
    pub intervals: Vec<ServingInterval>,
    /// Instants where the serving satellite changed (start of the new
    /// interval).
    pub handovers: Vec<SimTime>,
    /// Windows with no serving satellite: from the previous satellite
    /// leaving the mask until the next selection succeeded.
    pub outages: Vec<(SimTime, SimTime)>,
}

impl ServingSchedule {
    /// The serving satellite at `t`, if any. Binary-searches the
    /// (start-ordered) interval list, so day-scale schedules stay cheap
    /// to query per-second.
    pub fn serving_at(&self, t: SimTime) -> Option<usize> {
        let i = self.intervals.partition_point(|iv| iv.start <= t);
        if i == 0 {
            return None;
        }
        let iv = &self.intervals[i - 1];
        (t < iv.end).then_some(iv.sat)
    }

    /// Whether `t` falls inside an outage window.
    pub fn in_outage(&self, t: SimTime) -> bool {
        self.outages.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// Total outage time across the window.
    pub fn total_outage(&self) -> SimDuration {
        self.outages
            .iter()
            .fold(SimDuration::ZERO, |acc, &(s, e)| acc + e.since(s))
    }

    /// Number of distinct satellites used.
    pub fn distinct_satellites(&self) -> usize {
        let mut sats: Vec<usize> = self.intervals.iter().map(|iv| iv.sat).collect();
        sats.sort_unstable();
        sats.dedup();
        sats.len()
    }
}

/// Tracks epoch-boundary crossings along a monotone sample walk.
///
/// The terminal plans reconfigurations at the first *visited* sample at or
/// after each epoch boundary. The previous implementation tested
/// `t % epoch < sample_step`, which fires spuriously before the first
/// boundary when the window start is not epoch-aligned, and evaluates its
/// look-ahead at `t + epoch` — an instant that drifts off the epoch grid
/// whenever the sample step does not divide the epoch. The tracker arms
/// one boundary at a time, so each boundary fires exactly once (or not at
/// all if the walk jumps past it), and always reports the grid-aligned
/// boundary instant.
#[derive(Debug, Clone, Copy)]
struct BoundaryTracker {
    next: SimTime,
    epoch: SimDuration,
}

impl BoundaryTracker {
    /// Arms the first boundary at or after `start`.
    fn new(start: SimTime, epoch: SimDuration) -> Self {
        let epoch = epoch.max(SimDuration::from_nanos(1));
        BoundaryTracker {
            next: next_epoch_boundary(start, epoch),
            epoch,
        }
    }

    /// If sample `t` is the first visited sample at or after the armed
    /// boundary, returns that boundary (grid-aligned) and arms the next.
    fn crossed(&mut self, t: SimTime) -> Option<SimTime> {
        if t < self.next {
            return None;
        }
        let boundary = epoch_boundary_at_or_before(t, self.epoch);
        self.next = boundary + self.epoch;
        Some(boundary)
    }

    /// Marks `boundary` as consumed (reacquisition selects at a boundary
    /// directly, so planning must not re-fire on it).
    fn consume(&mut self, boundary: SimTime) {
        self.next = boundary + self.epoch;
    }

    /// The next boundary strictly after the currently armed state — the
    /// planning horizon a proactive decision at `boundary` looks ahead to.
    fn horizon_of(&self, boundary: SimTime) -> SimTime {
        boundary + self.epoch
    }
}

/// One observer's schedule state machine, advanced sample by sample.
/// Splitting the loop out of [`compute_schedule`] lets
/// [`compute_schedules`] interleave many observers over a shared
/// [`SnapshotCache`] without re-propagating the constellation per user.
struct ScheduleBuilder {
    observer: Geodetic,
    /// `observer`'s frame, for the per-sample looks at the serving
    /// satellite.
    frame: ObserverFrame,
    policy: SelectionPolicy,
    end: SimTime,
    step: SimDuration,
    t: SimTime,
    boundaries: BoundaryTracker,
    serving: Option<usize>,
    interval_start: SimTime,
    outage_start: Option<SimTime>,
    planned_switches: usize,
    schedule: ServingSchedule,
}

impl ScheduleBuilder {
    fn new(
        observer: Geodetic,
        start: SimTime,
        window: SimDuration,
        policy: &SelectionPolicy,
    ) -> Self {
        let step = policy.sample_step.max(SimDuration::from_millis(100));
        ScheduleBuilder {
            observer,
            frame: ObserverFrame::new(observer),
            policy: *policy,
            end: start + window,
            step,
            t: start,
            boundaries: BoundaryTracker::new(start, policy.epoch),
            serving: None,
            interval_start: start,
            outage_start: None,
            planned_switches: 0,
            schedule: ServingSchedule::default(),
        }
    }

    /// Advances sampling until the next sample falls at or beyond `until`
    /// (clamped to the window end).
    fn advance_until(&mut self, until: SimTime, cache: &SnapshotCache<'_>) {
        let constellation = cache.constellation();
        let stop = self.end.min(until);
        while self.t < stop {
            let t = self.t;
            let offset = t.since(SimTime::ZERO);
            let serving_visible = self.serving.is_some_and(|sat| {
                self.frame
                    .look(constellation.position(sat, offset))
                    .visible_above(self.policy.mask_deg)
            });

            if serving_visible {
                // Proactive planning at epoch boundaries: if the pass will
                // end before the next boundary (elevation sinking into the
                // mask margin), switch now rather than dropping mid-epoch.
                if let Some(boundary) = self.boundaries.crossed(t) {
                    if let (true, Some(sat)) =
                        (self.policy.proactive_margin_deg > 0.0, self.serving)
                    {
                        let horizon = self.boundaries.horizon_of(boundary);
                        let at_next = self
                            .frame
                            .look(constellation.position(sat, horizon.since(SimTime::ZERO)));
                        if at_next.elevation_deg
                            < self.policy.mask_deg + self.policy.proactive_margin_deg
                        {
                            self.planned_switches += 1;
                            let missed = self.policy.miss_every > 0
                                && self.planned_switches.is_multiple_of(self.policy.miss_every);
                            if !missed {
                                if let Some(view) = cache.at(offset).best_visible(
                                    self.observer,
                                    self.policy.mask_deg + self.policy.proactive_margin_deg,
                                ) {
                                    if view.index != sat {
                                        self.schedule.intervals.push(ServingInterval {
                                            sat,
                                            start: self.interval_start,
                                            end: t,
                                        });
                                        self.serving = Some(view.index);
                                        self.interval_start = t;
                                        self.schedule.handovers.push(t);
                                    }
                                }
                            }
                        }
                    }
                }
                self.t += self.step;
                continue;
            }

            // Serving satellite (if any) is gone: close its interval.
            if let Some(sat) = self.serving.take() {
                self.schedule.intervals.push(ServingInterval {
                    sat,
                    start: self.interval_start,
                    end: t,
                });
                self.outage_start = Some(t);
            } else if self.outage_start.is_none() {
                self.outage_start = Some(t);
            }

            // A replacement can only be acquired at the next epoch boundary
            // at or after t (boundaries are aligned to the epoch grid from
            // t=0).
            let boundary = next_epoch_boundary(t, self.policy.epoch);
            self.boundaries.consume(boundary);
            let clamped = boundary.min(self.end);
            if clamped >= self.end {
                // Window exhausted before the next boundary: stay in outage.
                self.t = clamped + self.step;
                break;
            }
            // Try to select at the boundary.
            let pick = cache
                .at(clamped.since(SimTime::ZERO))
                .best_visible(self.observer, self.policy.mask_deg);
            match pick {
                Some(view) => {
                    if let Some(os) = self.outage_start.take() {
                        if clamped > os {
                            self.schedule.outages.push((os, clamped));
                        }
                    }
                    self.serving = Some(view.index);
                    self.interval_start = clamped;
                    self.schedule.handovers.push(clamped);
                    self.t = clamped + self.step;
                }
                None => {
                    // Nothing visible at the boundary: stay in outage and
                    // try the next one.
                    self.t = clamped + self.step;
                }
            }
        }
    }

    /// Closes trailing state and returns the finished schedule.
    fn finish(mut self) -> ServingSchedule {
        if let Some(sat) = self.serving {
            self.schedule.intervals.push(ServingInterval {
                sat,
                start: self.interval_start,
                end: self.end,
            });
        }
        if let Some(os) = self.outage_start {
            if self.serving.is_none() && os < self.end {
                self.schedule.outages.push((os, self.end));
            }
        }
        self.schedule
    }
}

/// Computes the serving schedule for `observer` over
/// `[start, start + window)`.
///
/// The policy is *sticky*: the serving satellite is kept while it stays
/// above the mask, even if a higher one appears (matching the terminal's
/// avoidance of gratuitous handovers within a satellite pass). Selection
/// of a replacement happens only at epoch boundaries — a satellite lost
/// mid-epoch leaves an outage window until the next boundary.
pub fn compute_schedule(
    constellation: &Constellation,
    observer: Geodetic,
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
) -> ServingSchedule {
    compute_schedule_cached(
        &SnapshotCache::new(constellation),
        observer,
        start,
        window,
        policy,
    )
}

/// [`compute_schedule`] over an existing [`SnapshotCache`], sharing
/// position snapshots with any other queries made through the same cache.
pub fn compute_schedule_cached(
    cache: &SnapshotCache<'_>,
    observer: Geodetic,
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
) -> ServingSchedule {
    let mut builder = ScheduleBuilder::new(observer, start, window, policy);
    builder.advance_until(start + window, cache);
    builder.finish()
}

/// Computes the schedules of many observers over one shared window,
/// advancing all of them **in lockstep, one epoch at a time**, so every
/// whole-constellation propagation at an epoch boundary is shared across
/// the whole user population instead of being redone per user. Results
/// are identical to calling [`compute_schedule`] per observer.
pub fn compute_schedules(
    constellation: &Constellation,
    observers: &[Geodetic],
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
) -> Vec<ServingSchedule> {
    let cache = SnapshotCache::new(constellation);
    let end = start + window;
    let stride = policy.epoch.max(SimDuration::from_nanos(1));
    let mut builders: Vec<ScheduleBuilder> = observers
        .iter()
        .map(|&observer| ScheduleBuilder::new(observer, start, window, policy))
        .collect();

    let mut upto = next_epoch_boundary(start, policy.epoch) + stride;
    loop {
        let target = upto.min(end);
        for builder in &mut builders {
            builder.advance_until(target, &cache);
        }
        if target >= end {
            break;
        }
        upto = upto.saturating_add(stride);
    }
    builders.into_iter().map(ScheduleBuilder::finish).collect()
}

/// Computes a schedule under a **greedy** policy: at *every* epoch
/// boundary the terminal switches to the highest-elevation satellite,
/// even while the current one is still fine.
///
/// This is the ablation counterpart of [`compute_schedule`]'s sticky
/// policy: greedy maximises elevation margin but multiplies handovers —
/// and since each handover costs a loss burst (§5 of the paper), a
/// deployed terminal avoiding gratuitous switches is the behaviour the
/// measurements support. The `ablation_policy` bench quantifies the gap.
pub fn compute_schedule_greedy(
    constellation: &Constellation,
    observer: Geodetic,
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
) -> ServingSchedule {
    compute_schedule_greedy_cached(
        &SnapshotCache::new(constellation),
        observer,
        start,
        window,
        policy,
    )
}

/// [`compute_schedule_greedy`] over an existing [`SnapshotCache`].
pub fn compute_schedule_greedy_cached(
    cache: &SnapshotCache<'_>,
    observer: Geodetic,
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
) -> ServingSchedule {
    let mut schedule = ServingSchedule::default();
    let end = start + window;
    let mut serving: Option<usize> = None;
    let mut interval_start = start;
    let mut outage_start: Option<SimTime> = None;

    let mut boundary = next_epoch_boundary(start, policy.epoch);
    while boundary < end {
        let best = cache
            .at(boundary.since(SimTime::ZERO))
            .best_visible(observer, policy.mask_deg);
        match (serving, best) {
            (Some(current), Some(view)) if view.index != current => {
                schedule.intervals.push(ServingInterval {
                    sat: current,
                    start: interval_start,
                    end: boundary,
                });
                serving = Some(view.index);
                interval_start = boundary;
                schedule.handovers.push(boundary);
            }
            (None, Some(view)) => {
                if let Some(os) = outage_start.take() {
                    if boundary > os {
                        schedule.outages.push((os, boundary));
                    }
                }
                serving = Some(view.index);
                interval_start = boundary;
                schedule.handovers.push(boundary);
            }
            (Some(current), None) => {
                schedule.intervals.push(ServingInterval {
                    sat: current,
                    start: interval_start,
                    end: boundary,
                });
                serving = None;
                outage_start = Some(boundary);
            }
            _ => {}
        }
        boundary += policy.epoch;
    }
    if let Some(current) = serving {
        schedule.intervals.push(ServingInterval {
            sat: current,
            start: interval_start,
            end,
        });
    }
    if let Some(os) = outage_start {
        if os < end {
            schedule.outages.push((os, end));
        }
    }
    schedule
}

/// The first epoch boundary at or after `t` (boundaries at multiples of
/// `epoch` from the simulation origin).
fn next_epoch_boundary(t: SimTime, epoch: SimDuration) -> SimTime {
    let e = epoch.as_nanos().max(1);
    let nanos = t.since(SimTime::ZERO).as_nanos();
    let rem = nanos % e;
    if rem == 0 {
        t
    } else {
        SimTime::from_nanos(nanos - rem + e)
    }
}

/// The last epoch boundary at or before `t`.
fn epoch_boundary_at_or_before(t: SimTime, epoch: SimDuration) -> SimTime {
    let e = epoch.as_nanos().max(1);
    let nanos = t.since(SimTime::ZERO).as_nanos();
    SimTime::from_nanos(nanos - nanos % e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_tle::ShellConfig;

    fn shell(planes: u32, per_plane: u32) -> Constellation {
        Constellation::from_tles(
            &ShellConfig {
                planes,
                sats_per_plane: per_plane,
                ..ShellConfig::starlink_shell1()
            }
            .generate(),
            0.0,
        )
    }

    fn london() -> Geodetic {
        Geodetic::on_surface(51.5074, -0.1278)
    }

    #[test]
    fn epoch_boundary_alignment() {
        let e = SimDuration::from_secs(15);
        assert_eq!(
            next_epoch_boundary(SimTime::from_secs(0), e),
            SimTime::from_secs(0)
        );
        assert_eq!(
            next_epoch_boundary(SimTime::from_secs(1), e),
            SimTime::from_secs(15)
        );
        assert_eq!(
            next_epoch_boundary(SimTime::from_secs(15), e),
            SimTime::from_secs(15)
        );
        assert_eq!(
            next_epoch_boundary(SimTime::from_millis(15_001), e),
            SimTime::from_secs(30)
        );
        assert_eq!(
            epoch_boundary_at_or_before(SimTime::from_secs(16), e),
            SimTime::from_secs(15)
        );
        assert_eq!(
            epoch_boundary_at_or_before(SimTime::from_secs(15), e),
            SimTime::from_secs(15)
        );
    }

    #[test]
    fn boundary_tracker_ignores_pre_window_boundary_on_unaligned_start() {
        // Regression: the old `t % epoch < step` test fired at t=2s
        // (2 % 15 < 4) even though no boundary lies in [2s, 15s).
        let e = SimDuration::from_secs(15);
        let mut tracker = BoundaryTracker::new(SimTime::from_secs(2), e);
        assert_eq!(tracker.crossed(SimTime::from_secs(2)), None);
        assert_eq!(tracker.crossed(SimTime::from_secs(6)), None);
        assert_eq!(tracker.crossed(SimTime::from_secs(10)), None);
        assert_eq!(tracker.crossed(SimTime::from_secs(14)), None);
        // First sample at/after the 15 s boundary fires, reporting the
        // grid-aligned boundary instant.
        assert_eq!(
            tracker.crossed(SimTime::from_secs(18)),
            Some(SimTime::from_secs(15))
        );
        // Once per boundary, never twice.
        assert_eq!(tracker.crossed(SimTime::from_secs(22)), None);
        assert_eq!(tracker.crossed(SimTime::from_secs(26)), None);
        assert_eq!(
            tracker.crossed(SimTime::from_secs(30)),
            Some(SimTime::from_secs(30))
        );
        // A non-divisible step drifts the sample phase; the reported
        // boundary stays on the grid.
        assert_eq!(
            tracker.crossed(SimTime::from_secs(46)),
            Some(SimTime::from_secs(45))
        );
    }

    #[test]
    fn boundary_tracker_handles_steps_longer_than_the_epoch() {
        // Regression: with step > epoch the old modular test
        // (`t % epoch < step`) was true for *every* sample, double-firing
        // planning on samples that had already been planned.
        let e = SimDuration::from_secs(5);
        let mut tracker = BoundaryTracker::new(SimTime::ZERO, e);
        assert_eq!(tracker.crossed(SimTime::from_secs(0)), Some(SimTime::ZERO));
        assert_eq!(
            tracker.crossed(SimTime::from_secs(7)),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(
            tracker.crossed(SimTime::from_secs(14)),
            Some(SimTime::from_secs(10))
        );
        // Re-visiting the same instant never fires twice.
        assert_eq!(tracker.crossed(SimTime::from_secs(14)), None);
    }

    #[test]
    fn boundary_tracker_consume_suppresses_reacquisition_boundary() {
        let e = SimDuration::from_secs(15);
        let mut tracker = BoundaryTracker::new(SimTime::ZERO, e);
        // Reacquisition selected at the 30 s boundary directly.
        tracker.consume(SimTime::from_secs(30));
        assert_eq!(tracker.crossed(SimTime::from_secs(31)), None);
        assert_eq!(
            tracker.crossed(SimTime::from_secs(45)),
            Some(SimTime::from_secs(45))
        );
    }

    #[test]
    fn non_divisible_step_fires_once_per_epoch_window() {
        // Schedule-level regression for the boundary fix: with a 4 s step
        // against a 15 s epoch, sticky selection must still change the
        // serving satellite at most once per epoch window.
        let c = Constellation::starlink_shell1(0.0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(4),
            proactive_margin_deg: 8.0,
            miss_every: 0,
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(30);
        let schedule = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);
        assert!(
            schedule.handovers.len() >= 2,
            "expected handovers: {:?}",
            schedule.handovers
        );
        let e = policy.epoch.as_nanos();
        for pair in schedule.handovers.windows(2) {
            assert!(pair[0] < pair[1], "handovers must be increasing");
            assert!(
                pair[0].since(SimTime::ZERO).as_nanos() / e
                    < pair[1].since(SimTime::ZERO).as_nanos() / e,
                "two handovers inside one epoch window: {:?}",
                pair
            );
        }
    }

    #[test]
    fn unaligned_start_defers_first_proactive_plan_to_a_real_boundary() {
        // Start 16 s into the timeline: the first epoch boundary inside
        // the window is 30 s, so no proactive handover may precede it
        // (reacquisition handovers land exactly on the grid).
        let c = Constellation::starlink_shell1(0.0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(2),
            proactive_margin_deg: 10.0,
            miss_every: 0,
            ..SelectionPolicy::default()
        };
        let start = SimTime::from_secs(16);
        let schedule = compute_schedule(&c, london(), start, SimDuration::from_mins(12), &policy);
        for &h in &schedule.handovers {
            assert!(
                h >= SimTime::from_secs(30),
                "handover {h} before the first epoch boundary"
            );
            assert_eq!(
                h.since(SimTime::ZERO).as_nanos() % SimDuration::from_secs(2).as_nanos(),
                0,
                "handover {h} off the sweep grid"
            );
        }
    }

    #[test]
    fn lockstep_multi_observer_matches_per_observer() {
        let c = shell(24, 12);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(20);
        let observers = [
            london(),
            Geodetic::on_surface(41.38, 2.17),
            Geodetic::on_surface(35.77, -78.63),
        ];
        let shared = compute_schedules(&c, &observers, SimTime::ZERO, window, &policy);
        for (i, &obs) in observers.iter().enumerate() {
            let direct = compute_schedule(&c, obs, SimTime::ZERO, window, &policy);
            assert_eq!(shared[i], direct, "observer {i} diverged");
        }
    }

    #[test]
    fn lockstep_sweep_shares_boundary_snapshots() {
        let c = shell(24, 12);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let observers: Vec<Geodetic> = (0..8)
            .map(|i| Geodetic::on_surface(30.0 + 3.0 * i as f64, -10.0 + 4.0 * i as f64))
            .collect();
        // The sweep's cache lives inside `compute_schedules`; observe it
        // through the obsv metrics registry instead of process statics.
        let prev = starlink_obsv::metrics_begin();
        assert!(prev.is_none(), "no registry should be active in this test");
        let _ = compute_schedules(
            &c,
            &observers,
            SimTime::ZERO,
            SimDuration::from_mins(10),
            &policy,
        );
        let reg = starlink_obsv::metrics_take().expect("registry installed above");
        let hits = reg.counter("constellation.snapshot_cache.hits");
        let misses = reg.counter("constellation.snapshot_cache.misses");
        assert!(
            hits > misses,
            "lockstep sweep should mostly hit the cache: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn full_shell_schedule_covers_window_with_handovers() {
        let c = Constellation::starlink_shell1(0.0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        // The paper's Fig. 7 window: 12 minutes.
        let window = SimDuration::from_mins(12);
        let schedule = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);

        assert!(!schedule.intervals.is_empty());
        // A 550 km satellite crosses the visible cone in a few minutes, so a
        // 12-minute window sees at least one handover.
        assert!(
            schedule.handovers.len() >= 2,
            "expected multiple handovers, got {:?}",
            schedule.handovers
        );
        // Intervals are disjoint and ordered.
        for pair in schedule.intervals.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        // Outage time exists but is a small fraction of the window (dense
        // shell): the mechanism behind the paper's loss clumps.
        let outage = schedule.total_outage();
        assert!(outage < window.mul_f64(0.3), "outage {outage}");
    }

    #[test]
    fn serving_at_and_in_outage_are_consistent() {
        let c = shell(24, 12);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(30);
        let schedule = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);
        for sec in (0..window.as_secs()).step_by(10) {
            let t = SimTime::from_secs(sec);
            let serving = schedule.serving_at(t);
            let outage = schedule.in_outage(t);
            assert!(
                !(serving.is_some() && outage),
                "t={sec}s: both serving and in outage"
            );
        }
    }

    #[test]
    fn sparse_shell_produces_outages() {
        // A deliberately sparse shell leaves the observer uncovered part of
        // the time; the schedule must report that as outage, not panic.
        let c = shell(4, 4);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(60);
        let schedule = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);
        let covered: SimDuration = schedule
            .intervals
            .iter()
            .fold(SimDuration::ZERO, |acc, iv| acc + iv.duration());
        let outage = schedule.total_outage();
        // Coverage + outage cannot exceed the window (no overlap).
        assert!(covered + outage <= window + SimDuration::from_secs(20));
        assert!(
            outage > SimDuration::ZERO,
            "a 16-satellite shell cannot cover London continuously"
        );
    }

    #[test]
    fn sticky_policy_avoids_gratuitous_handovers() {
        let c = Constellation::starlink_shell1(0.0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(12);
        let schedule = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);
        // With ~20+ satellites above the mask at this density, a
        // highest-elevation-always policy would switch every epoch
        // (~48 times in 12 min). Sticky selection keeps it near the
        // pass-duration rate.
        assert!(
            schedule.handovers.len() < 20,
            "too many handovers: {}",
            schedule.handovers.len()
        );
        assert_eq!(schedule.handovers.len(), schedule.intervals.len());
    }

    #[test]
    fn greedy_switches_far_more_than_sticky() {
        let c = Constellation::starlink_shell1(0.0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(5),
            ..SelectionPolicy::default()
        };
        let window = SimDuration::from_mins(12);
        let sticky = compute_schedule(&c, london(), SimTime::ZERO, window, &policy);
        let greedy = compute_schedule_greedy(&c, london(), SimTime::ZERO, window, &policy);
        assert!(
            greedy.handovers.len() >= 2 * sticky.handovers.len().max(1),
            "greedy {} vs sticky {}",
            greedy.handovers.len(),
            sticky.handovers.len()
        );
        // Both keep the terminal served nearly all the time.
        assert!(greedy.total_outage() <= window.mul_f64(0.2));
    }

    #[test]
    fn distinct_satellites_counts() {
        let mut schedule = ServingSchedule::default();
        schedule.intervals.push(ServingInterval {
            sat: 3,
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
        });
        schedule.intervals.push(ServingInterval {
            sat: 5,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(20),
        });
        schedule.intervals.push(ServingInterval {
            sat: 3,
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(30),
        });
        assert_eq!(schedule.distinct_satellites(), 2);
        assert_eq!(schedule.serving_at(SimTime::from_secs(12)), Some(5));
        assert_eq!(schedule.serving_at(SimTime::from_secs(31)), None);
    }
}

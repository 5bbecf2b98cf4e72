//! The serving schedule against the walk it replaced, which looked at the
//! serving satellite on every sample. The parent's `ScheduleBuilder`,
//! `compute_schedule` and `compute_schedules` are kept below, verbatim, as
//! `reference`, over a copy of its snapshot cache whose counts go to
//! `reference.*` counters. Every case must give equal schedules, and the
//! product must ask its cache for the same instants in the same order: equal
//! hit and miss counts, one observer at a time and in lockstep.
//!
//! The cases cover shell-1, the 16 236-satellite Gen2-like set and hostile
//! catalogues (eccentricities up to 0.3, polar and retrograde planes, a
//! satellite that does not move), observers from the ground to above the
//! shell, masks 0°–75°, steps of 0.1–3 s against epochs they do not all
//! divide, proactive margins 0° and 1°, `miss_every` 0, 1 and 4, and
//! windows that start and end off the epoch grid.

use starlink_constellation::{
    compute_schedule, compute_schedules, Constellation, SelectionPolicy, ServingSchedule,
};
use starlink_geo::Geodetic;
use starlink_obsv::MetricsRegistry;
use starlink_simcore::{SimDuration, SimTime};
use starlink_tle::{OrbitalElements, ShellConfig, Tle};
use std::collections::BTreeSet;

/// The schedule walk before it skipped samples, verbatim.
mod reference {
    use starlink_constellation::{
        Constellation, PositionSnapshot, SelectionPolicy, ServingInterval, ServingSchedule,
    };
    use starlink_geo::{Geodetic, ObserverFrame};
    use starlink_simcore::{SimDuration, SimTime};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// A small, bounded, most-recently-used cache of [`PositionSnapshot`]s for
    /// one constellation.
    ///
    /// Sweeps that advance many observers in lockstep over a common time grid
    /// (see [`crate::selection::compute_schedules`]) request the same handful
    /// of instants over and over; the cache keeps the most recent
    /// [`SnapshotCache::CAPACITY`] of them alive so each step is propagated
    /// once regardless of how many observers query it. The bound keeps memory
    /// flat on day-scale windows (a shell-1 snapshot holds 73 sine-cosine
    /// pairs, about 1 KB).
    pub struct SnapshotCache<'a> {
        constellation: &'a Constellation,
        /// Most-recently-used first.
        entries: RefCell<Vec<(u64, Rc<PositionSnapshot<'a>>)>>,
        /// Lookups served from a live entry. Per-instance (not process-wide):
        /// concurrent caches on other threads — parallel repro workers, the
        /// test harness — never pollute each other's numbers. Mirrored into
        /// the `starlink_obsv` metrics registry when one is installed.
        hits: Cell<u64>,
        /// Lookups that had to propagate a fresh snapshot.
        misses: Cell<u64>,
    }

    impl<'a> SnapshotCache<'a> {
        /// Maximum number of live snapshots.
        pub const CAPACITY: usize = 8;

        /// An empty cache over `constellation`.
        pub fn new(constellation: &'a Constellation) -> Self {
            SnapshotCache {
                constellation,
                entries: RefCell::new(Vec::with_capacity(Self::CAPACITY)),
                hits: Cell::new(0),
                misses: Cell::new(0),
            }
        }

        /// The constellation the cache propagates.
        pub fn constellation(&self) -> &'a Constellation {
            self.constellation
        }

        /// The snapshot at `t`, propagating it on first request and sharing it
        /// on every later one.
        pub fn at(&self, t: SimDuration) -> Rc<PositionSnapshot<'a>> {
            let key = t.as_nanos();
            let mut entries = self.entries.borrow_mut();
            if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
                self.hits.set(self.hits.get() + 1);
                starlink_obsv::counter_add("reference.snapshot_cache.hits", 1);
                let entry = entries.remove(i);
                let snap = Rc::clone(&entry.1);
                entries.insert(0, entry);
                return snap;
            }
            self.misses.set(self.misses.get() + 1);
            starlink_obsv::counter_add("reference.snapshot_cache.misses", 1);
            let snap = Rc::new(PositionSnapshot::capture(self.constellation, t));
            entries.insert(0, (key, Rc::clone(&snap)));
            entries.truncate(Self::CAPACITY);
            snap
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
}

/// A splitmix64 stream for the catalogue and case draws.
struct Draw(u64);

impl Draw {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }
}

/// The six Gen1 + Gen2 shells at full size: 16 236 satellites.
fn gen2() -> Vec<Tle> {
    let shell = |inclination_deg, altitude_km: f64, planes, sats_per_plane, first| {
        ShellConfig {
            inclination_deg,
            altitude_m: altitude_km * 1_000.0,
            planes,
            sats_per_plane,
            phasing: 1,
            first_catalog_number: first,
            name_prefix: "GEN2",
        }
        .generate()
    };
    [
        shell(53.0, 550.0, 72, 22, 100_000),
        shell(53.2, 540.0, 72, 22, 110_000),
        shell(70.0, 570.0, 36, 20, 120_000),
        shell(97.6, 560.0, 6, 58, 130_000),
        shell(43.0, 530.0, 48, 110, 140_000),
        shell(33.0, 525.0, 56, 120, 150_000),
    ]
    .concat()
}

/// Hand-built planes (equatorial, polar, retrograde or any inclination;
/// eccentricities up to 0.3, half of them within 0.1; 11–16.5 revolutions
/// a day) over a thinned shell-1, shuffled, with a satellite of zero mean
/// motion appended.
fn hostile(d: &mut Draw) -> Vec<Tle> {
    let template = ShellConfig::starlink_shell1().generate().remove(0);
    let mut tles = ShellConfig {
        planes: 12,
        sats_per_plane: 10,
        ..ShellConfig::starlink_shell1()
    }
    .generate();
    for _ in 0..8 {
        let inclination_deg = match d.below(4) {
            0 => 0.0,
            1 => 90.0,
            2 => d.f64(90.0, 180.0),
            _ => d.f64(0.0, 180.0),
        };
        let eccentricity = if d.below(2) == 0 {
            d.f64(0.0, 0.1)
        } else {
            d.f64(0.1, 0.3)
        };
        let plane = OrbitalElements {
            inclination_deg,
            raan_deg: d.f64(0.0, 360.0),
            eccentricity,
            arg_perigee_deg: d.f64(0.0, 360.0),
            mean_motion_rev_per_day: d.f64(11.0, 16.5),
            ..template.elements.clone()
        };
        for _ in 0..4 + d.below(6) {
            let n = tles.len() as u32;
            tles.push(Tle {
                name: format!("HAND-{n}"),
                elements: OrbitalElements {
                    catalog_number: 200_000 + n,
                    mean_anomaly_deg: d.f64(0.0, 360.0),
                    ..plane.clone()
                },
            });
        }
    }
    for i in (1..tles.len()).rev() {
        tles.swap(i, d.below(i + 1));
    }
    let mut still = tles[d.below(tles.len())].clone();
    still.elements.mean_motion_rev_per_day = 0.0;
    tles.push(still);
    tles
}

/// Observers on the ground, in the air, just under shell-1 and above it.
fn observers() -> Vec<Geodetic> {
    [
        (51.5074, -0.1278, 0.0),
        (0.0, 100.0, 0.0),
        (-35.3, 149.1, 10_000.0),
        (60.2, 24.9, 300_000.0),
        (40.4, -100.0, 540_000.0),
        (10.0, 10.0, 1_000_000.0),
    ]
    .into_iter()
    .map(|(lat_deg, lon_deg, alt_m)| Geodetic {
        lat_deg,
        lon_deg,
        alt_m,
    })
    .collect()
}

const MASKS_DEG: [f64; 6] = [0.0, 10.0, 25.0, 40.0, 60.0, 75.0];
const STEPS_MS: [u64; 4] = [100, 700, 1_000, 3_000];
/// 15 s is the deployed epoch; 0.7 s and 3 s divide neither 10 s nor 15 s,
/// and 7.3 s is divided by none of the steps but 0.1 s.
const EPOCHS_MS: [u64; 3] = [15_000, 10_000, 7_300];
const MARGINS_DEG: [f64; 2] = [0.0, 1.0];
const MISS_EVERY: [usize; 3] = [0, 1, 4];

/// What one run gives: the schedules and the cache's hit and miss counts.
type Run = (Vec<ServingSchedule>, u64, u64);

/// Runs `f` under a fresh metrics registry and returns what it counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, MetricsRegistry) {
    assert!(starlink_obsv::metrics_begin().is_none());
    let out = f();
    (
        out,
        starlink_obsv::metrics_take().expect("registry installed"),
    )
}

/// Where the walk skipped, summed over every case.
#[derive(Default)]
struct Tally {
    looks: u64,
    walked: u64,
    handovers: usize,
    outages: usize,
}

/// Both walks over one case, one observer at a time and in lockstep:
/// their schedules and cache counts must be equal.
fn check_case(
    c: &Constellation,
    observers: &[Geodetic],
    start: SimTime,
    window: SimDuration,
    policy: &SelectionPolicy,
    label: &str,
    tally: &mut Tally,
) {
    let product = |lockstep: bool| -> (Run, u64, u64) {
        let (schedules, reg) = counted(|| {
            if lockstep {
                compute_schedules(c, observers, start, window, policy)
            } else {
                observers
                    .iter()
                    .map(|&o| compute_schedule(c, o, start, window, policy))
                    .collect()
            }
        });
        (
            (
                schedules,
                reg.counter("constellation.snapshot_cache.hits"),
                reg.counter("constellation.snapshot_cache.misses"),
            ),
            reg.counter("constellation.schedule.serving_looks"),
            reg.counter("constellation.schedule.samples_walked"),
        )
    };
    let reference = |lockstep: bool| -> Run {
        let (schedules, reg) = counted(|| {
            if lockstep {
                reference::compute_schedules(c, observers, start, window, policy)
            } else {
                observers
                    .iter()
                    .map(|&o| reference::compute_schedule(c, o, start, window, policy))
                    .collect()
            }
        });
        (
            schedules,
            reg.counter("reference.snapshot_cache.hits"),
            reg.counter("reference.snapshot_cache.misses"),
        )
    };
    let mut walks = Vec::new();
    for lockstep in [false, true] {
        let mode = if lockstep { "lockstep" } else { "single" };
        let (got, looks, walked) = product(lockstep);
        let want = reference(lockstep);
        for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
            assert_eq!(g, w, "{label} {mode}: observer {i} diverged");
        }
        assert_eq!(got.0.len(), want.0.len());
        assert_eq!(
            (got.1, got.2),
            (want.1, want.2),
            "{label} {mode}: cache hits/misses"
        );
        assert!(
            looks <= walked,
            "{label} {mode}: {looks} looks, {walked} walked"
        );
        walks.push((looks, walked));
        if !lockstep {
            tally.looks += looks;
            tally.walked += walked;
            tally.handovers += got.0.iter().map(|s| s.handovers.len()).sum::<usize>();
            tally.outages += got.0.iter().map(|s| s.outages.len()).sum::<usize>();
        }
    }
    // The walk lands where the proofs send it, not where a call stops.
    assert_eq!(walks[0], walks[1], "{label}: single vs lockstep walk");
}

/// Every mask against every step on one catalogue, the other policy
/// fields, the start and the window drawn per case; returns the values
/// each drawn field took.
fn sweep(
    name: &str,
    c: &Constellation,
    window_s: (f64, f64),
    d: &mut Draw,
    tally: &mut Tally,
) -> BTreeSet<String> {
    let observers = observers();
    let mut seen = BTreeSet::new();
    for &mask_deg in &MASKS_DEG {
        for &step_ms in &STEPS_MS {
            let epoch_ms = EPOCHS_MS[d.below(EPOCHS_MS.len())];
            let policy = SelectionPolicy {
                mask_deg,
                epoch: SimDuration::from_millis(epoch_ms),
                sample_step: SimDuration::from_millis(step_ms),
                proactive_margin_deg: MARGINS_DEG[d.below(2)],
                miss_every: MISS_EVERY[d.below(3)],
            };
            // Off the epoch grid at both ends.
            let start = SimTime::from_millis(d.below(86_400_000) as u64 + 1);
            let window = SimDuration::from_millis((d.f64(window_s.0, window_s.1) * 1e3) as u64);
            seen.insert(format!("epoch {epoch_ms}"));
            seen.insert(format!("margin {}", policy.proactive_margin_deg));
            seen.insert(format!("miss {}", policy.miss_every));
            let label = format!("{name} {policy:?} start {start} window {window}");
            check_case(c, &observers, start, window, &policy, &label, tally);
        }
    }
    seen
}

fn every_drawn_value_appears(seen: &BTreeSet<String>) {
    for epoch_ms in EPOCHS_MS {
        assert!(seen.contains(&format!("epoch {epoch_ms}")), "{seen:?}");
    }
    for margin in MARGINS_DEG {
        assert!(seen.contains(&format!("margin {margin}")), "{seen:?}");
    }
    for miss in MISS_EVERY {
        assert!(seen.contains(&format!("miss {miss}")), "{seen:?}");
    }
}

#[test]
fn shell1_schedules_match_the_per_sample_walk() {
    let c = Constellation::starlink_shell1(0.7);
    let mut d = Draw(1);
    let mut tally = Tally::default();
    let seen = sweep("shell-1", &c, (600.0, 1_500.0), &mut d, &mut tally);
    every_drawn_value_appears(&seen);
    assert!(
        tally.handovers > 100 && tally.outages > 10,
        "{}/{}",
        tally.handovers,
        tally.outages
    );
    // The point of the change: most samples are proven, not looked at.
    assert!(
        tally.looks * 3 < tally.walked,
        "{} looks over {} samples",
        tally.looks,
        tally.walked
    );
}

#[test]
fn gen2_schedules_match_the_per_sample_walk() {
    let c = Constellation::from_tles(&gen2(), 2.1);
    assert_eq!(c.len(), 16_236);
    let mut d = Draw(2);
    let mut tally = Tally::default();
    let seen = sweep("gen2", &c, (240.0, 420.0), &mut d, &mut tally);
    every_drawn_value_appears(&seen);
    assert!(tally.handovers > 100, "{}", tally.handovers);
}

#[test]
fn hostile_schedules_match_the_per_sample_walk() {
    let mut seen = BTreeSet::new();
    let mut tally = Tally::default();
    for seed in [3, 4, 5] {
        let mut d = Draw(seed);
        let c = Constellation::from_tles(&hostile(&mut d), d.f64(0.0, std::f64::consts::TAU));
        seen.extend(sweep("hostile", &c, (900.0, 2_400.0), &mut d, &mut tally));
    }
    every_drawn_value_appears(&seen);
    assert!(
        tally.handovers > 50 && tally.outages > 50,
        "{}/{}",
        tally.handovers,
        tally.outages
    );
}

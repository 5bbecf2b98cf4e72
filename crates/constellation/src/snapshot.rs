//! Shared per-time-step constellation position snapshots.
//!
//! Every visibility query ultimately needs the ECEF position of every
//! satellite at one instant. Before this layer existed, each
//! `visible_from`/`best_visible` call re-propagated all satellites for
//! each (observer, time) pair — O(users × steps × sats) with zero reuse
//! across observers sweeping the same time grid. A [`PositionSnapshot`]
//! propagates the whole constellation **once** per time step; a
//! [`SnapshotCache`] shares that snapshot across every observer and query
//! at that step.
//!
//! On top of the shared positions the snapshot applies a **coarse range
//! prune**: a satellite whose straight-line ECEF distance to the observer
//! exceeds the maximum slant range implied by the elevation mask (~1089 km
//! at 25° per the paper; ~1123 km with this repo's constants, see
//! [`starlink_geo::max_slant_range`]) cannot be above the mask, so the
//! full look-angle trigonometry is skipped for the vast majority of the
//! constellation. The prune is conservative — the mask is relaxed by
//! [`PRUNE_MARGIN_DEG`] to absorb the geodetic-normal vs geocentric-radial
//! difference, and a flat [`PRUNE_SLACK_M`] is added — so snapshot-backed
//! queries return **byte-identical** results to the direct scan.

use crate::view::{Constellation, SatView};
use starlink_geo::{look_angles, Ecef, EcefColumns, Geodetic, LookAngles, ObserverFrame};
use starlink_simcore::SimDuration;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Degrees subtracted from the elevation mask before deriving the prune
/// range. The closed-form slant-range bound is exact for an elevation
/// measured against the geocentric radial direction; the geodetic normal
/// the look-angle code uses deviates from it by at most ~0.2°, so half a
/// degree of relaxation keeps the prune strictly conservative.
const PRUNE_MARGIN_DEG: f64 = 0.5;

/// Flat slack added to the prune range, metres.
const PRUNE_SLACK_M: f64 = 10_000.0;

/// All satellite ECEF positions at one instant, propagated once and shared
/// across every observer/query at that time step.
#[derive(Debug, Clone)]
pub struct PositionSnapshot {
    t: SimDuration,
    positions: EcefColumns,
    /// Largest finite geocentric radius in the snapshot, metres (bounds
    /// the feasible slant range for the prune). A satellite whose position
    /// is not finite is never visible, so it must not widen the bound for
    /// the others.
    max_radius_m: f64,
}

impl PositionSnapshot {
    /// Propagates every satellite of `constellation` to `t`.
    pub fn capture(constellation: &Constellation, t: SimDuration) -> Self {
        let positions = constellation.positions(t);
        // The square root is monotone, so the largest radius is the root
        // of the largest squared radius.
        let max_radius_m = positions
            .iter()
            .map(|p| p.x * p.x + p.y * p.y + p.z * p.z)
            .filter(|r2| r2.is_finite())
            .fold(0.0, f64::max)
            .sqrt();
        PositionSnapshot {
            t,
            positions,
            max_radius_m,
        }
    }

    /// The instant this snapshot was propagated to.
    pub fn time(&self) -> SimDuration {
        self.t
    }

    /// Number of satellites in the snapshot.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The cached ECEF position of satellite `index`.
    pub fn position(&self, index: usize) -> Ecef {
        self.positions.get(index)
    }

    /// The look angles from `observer` to satellite `index`.
    pub fn look(&self, index: usize, observer: Geodetic) -> LookAngles {
        look_angles(observer, self.positions.get(index))
    }

    /// Conservative squared upper bound on the observer→satellite distance
    /// for a satellite at or above `mask_deg`, or `None` when the prune
    /// cannot be applied safely (observer at or above the shell).
    ///
    /// From the geocentric triangle with observer radius `R`, satellite
    /// radius `Rs` and radial elevation `E`:
    /// `d = sqrt(R² sin²E + Rs² − R²) − R sin E`, which is decreasing in
    /// `E` — so relaxing the mask only ever widens the bound.
    fn prune_range_sq_m2(&self, observer_ecef: Ecef, mask_deg: f64) -> Option<f64> {
        let r = observer_ecef.magnitude();
        let h2 = self.max_radius_m * self.max_radius_m - r * r;
        if h2 <= 0.0 {
            return None;
        }
        let sin_e = (mask_deg - PRUNE_MARGIN_DEG).to_radians().sin();
        let d = (r * r * sin_e * sin_e + h2).sqrt() - r * sin_e + PRUNE_SLACK_M;
        Some(d * d)
    }

    /// The satellites the range prune cannot rule out for an observer at
    /// `obs` under `mask_deg`, in index order.
    fn candidates(&self, obs: Ecef, mask_deg: f64) -> impl Iterator<Item = (usize, Ecef)> + '_ {
        // No bound, no prune: nothing is farther than infinity.
        let limit = self
            .prune_range_sq_m2(obs, mask_deg)
            .unwrap_or(f64::INFINITY);
        self.positions.iter().enumerate().filter(move |(_, pos)| {
            let dx = pos.x - obs.x;
            let dy = pos.y - obs.y;
            let dz = pos.z - obs.z;
            // A NaN distance is not beyond the limit: it goes on to the
            // look angles, which find it above no mask.
            let pruned = dx * dx + dy * dy + dz * dz > limit;
            !pruned
        })
    }

    /// All satellites at or above `mask_deg` elevation for `observer`,
    /// sorted by descending elevation then ascending index — exactly the
    /// ordering of the pre-snapshot direct scan.
    pub fn visible_from(&self, observer: Geodetic, mask_deg: f64) -> Vec<SatView> {
        let frame = ObserverFrame::new(observer);
        let mut views: Vec<SatView> = self
            .candidates(frame.ecef(), mask_deg)
            .filter_map(|(index, pos)| {
                let look = frame.look(pos);
                look.visible_above(mask_deg)
                    .then_some(SatView { index, look })
            })
            .collect();
        views.sort_by(|a, b| {
            b.look
                .elevation_deg
                .total_cmp(&a.look.elevation_deg)
                .then(a.index.cmp(&b.index))
        });
        views
    }

    /// The highest-elevation visible satellite, if any. Ties keep the
    /// lowest index, matching the direct scan's first-wins comparison.
    pub fn best_visible(&self, observer: Geodetic, mask_deg: f64) -> Option<SatView> {
        let frame = ObserverFrame::new(observer);
        let mut best: Option<SatView> = None;
        for (index, pos) in self.candidates(frame.ecef(), mask_deg) {
            let look = frame.look(pos);
            if !look.visible_above(mask_deg) {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => look.elevation_deg > b.look.elevation_deg,
            };
            if better {
                best = Some(SatView { index, look });
            }
        }
        best
    }
}

/// A small, bounded, most-recently-used cache of [`PositionSnapshot`]s for
/// one constellation.
///
/// Sweeps that advance many observers in lockstep over a common time grid
/// (see [`crate::selection::compute_schedules`]) request the same handful
/// of instants over and over; the cache keeps the most recent
/// [`SnapshotCache::CAPACITY`] of them alive so each step is propagated
/// once regardless of how many observers query it. The bound keeps memory
/// flat on day-scale windows (a full-shell snapshot is ~40 KB).
pub struct SnapshotCache<'a> {
    constellation: &'a Constellation,
    /// Most-recently-used first.
    entries: RefCell<Vec<(u64, Rc<PositionSnapshot>)>>,
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

    /// This cache's `(hits, misses)` counters. A hit means a
    /// whole-constellation propagation was skipped by reusing a shared
    /// snapshot.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Zeroes this cache's counters (benchmark harnesses call this
    /// between measured phases).
    pub fn reset_stats(&self) {
        self.hits.set(0);
        self.misses.set(0);
    }

    /// The constellation the cache propagates.
    pub fn constellation(&self) -> &'a Constellation {
        self.constellation
    }

    /// The snapshot at `t`, propagating it on first request and sharing it
    /// on every later one.
    pub fn at(&self, t: SimDuration) -> Rc<PositionSnapshot> {
        let key = t.as_nanos();
        let mut entries = self.entries.borrow_mut();
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            self.hits.set(self.hits.get() + 1);
            starlink_obsv::counter_add("constellation.snapshot_cache.hits", 1);
            let entry = entries.remove(i);
            let snap = Rc::clone(&entry.1);
            entries.insert(0, entry);
            return snap;
        }
        self.misses.set(self.misses.get() + 1);
        starlink_obsv::counter_add("constellation.snapshot_cache.misses", 1);
        let snap = Rc::new(PositionSnapshot::capture(self.constellation, t));
        entries.insert(0, (key, Rc::clone(&snap)));
        entries.truncate(Self::CAPACITY);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_geo::look::max_slant_range;
    use starlink_simcore::Meters;
    use starlink_tle::ShellConfig;

    fn small_shell() -> Constellation {
        Constellation::from_tles(
            &ShellConfig {
                planes: 12,
                sats_per_plane: 8,
                ..ShellConfig::starlink_shell1()
            }
            .generate(),
            0.0,
        )
    }

    /// The pre-snapshot direct scan, kept verbatim as the reference.
    fn direct_visible_from(
        c: &Constellation,
        observer: Geodetic,
        t: SimDuration,
        mask_deg: f64,
    ) -> Vec<SatView> {
        let mut views: Vec<SatView> = (0..c.len())
            .filter_map(|index| {
                let look = look_angles(observer, c.position(index, t));
                look.visible_above(mask_deg)
                    .then_some(SatView { index, look })
            })
            .collect();
        views.sort_by(|a, b| {
            b.look
                .elevation_deg
                .total_cmp(&a.look.elevation_deg)
                .then(a.index.cmp(&b.index))
        });
        views
    }

    #[test]
    fn snapshot_matches_direct_scan_exactly() {
        let c = small_shell();
        for (lat, lon) in [(51.5, -0.12), (0.0, 100.0), (-35.0, 151.0), (52.9, 0.0)] {
            let obs = Geodetic::on_surface(lat, lon);
            for minute in [0u64, 7, 31, 95] {
                let t = SimDuration::from_mins(minute);
                let snap = PositionSnapshot::capture(&c, t);
                for mask in [0.0, 10.0, 25.0, 40.0] {
                    assert_eq!(
                        snap.visible_from(obs, mask),
                        direct_visible_from(&c, obs, t, mask),
                        "({lat},{lon}) minute {minute} mask {mask}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_best_matches_head_of_sorted() {
        let c = small_shell();
        let obs = Geodetic::on_surface(51.5, -0.12);
        for minute in 0..30 {
            let t = SimDuration::from_mins(minute);
            let snap = PositionSnapshot::capture(&c, t);
            let views = snap.visible_from(obs, 10.0);
            let best = snap.best_visible(obs, 10.0);
            assert_eq!(views.first().map(|v| v.index), best.map(|v| v.index));
        }
    }

    #[test]
    fn prune_bound_exceeds_analytic_slant_range() {
        // The conservative prune range must dominate the exact closed-form
        // maximum slant range for the shell altitude.
        let c = small_shell();
        let snap = PositionSnapshot::capture(&c, SimDuration::from_secs(0));
        let obs = Geodetic::on_surface(51.5, -0.12).to_ecef();
        let analytic = max_slant_range(Meters::from_km(550.0), 25.0).as_f64();
        let bound = snap.prune_range_sq_m2(obs, 25.0).unwrap().sqrt();
        assert!(bound > analytic, "bound {bound} vs analytic {analytic}");
    }

    #[test]
    fn non_finite_position_does_not_widen_the_prune() {
        // A satellite that does not move (mean motion 0, which only
        // hand-built elements can carry past `Tle::parse`) has an infinite
        // semi-major axis and a non-finite position. It is never visible,
        // and it must not cost the others their prune.
        let mut tles = ShellConfig {
            planes: 12,
            sats_per_plane: 8,
            ..ShellConfig::starlink_shell1()
        }
        .generate();
        let healthy = Constellation::from_tles(&tles, 0.0);
        let mut rogue = tles[0].clone();
        rogue.elements.mean_motion_rev_per_day = 0.0;
        tles.push(rogue);
        let with_rogue = Constellation::from_tles(&tles, 0.0);

        let observer = Geodetic::on_surface(51.5, -0.12);
        for minute in [0u64, 7, 31] {
            let t = SimDuration::from_mins(minute);
            let snap = with_rogue.snapshot(t);
            let rogue_pos = snap.position(tles.len() - 1);
            assert!(!rogue_pos.magnitude().is_finite(), "{rogue_pos:?}");
            let bound = snap.prune_range_sq_m2(observer.to_ecef(), 25.0);
            assert!(bound.is_some_and(f64::is_finite), "{bound:?}");
            assert_eq!(
                bound,
                healthy
                    .snapshot(t)
                    .prune_range_sq_m2(observer.to_ecef(), 25.0)
            );
            assert_eq!(
                snap.visible_from(observer, 25.0),
                healthy.visible_from(observer, t, 25.0)
            );
            assert_eq!(
                snap.visible_from(observer, 25.0),
                direct_visible_from(&with_rogue, observer, t, 25.0)
            );
        }
    }

    #[test]
    fn cache_shares_and_counts() {
        let c = small_shell();
        let cache = SnapshotCache::new(&c);
        let a = cache.at(SimDuration::from_secs(15));
        let b = cache.at(SimDuration::from_secs(15));
        assert!(Rc::ptr_eq(&a, &b));
        // Per-instance counters are exact — no other cache (or thread)
        // can leak into them, unlike the old process-wide atomics.
        assert_eq!(cache.stats(), (1, 1));
        cache.reset_stats();
        assert_eq!(cache.stats(), (0, 0));

        // A multi-observer handover sweep: 8 observers over 40 shared
        // epoch boundaries propagate once per boundary — exactly 40
        // misses and 280 hits — and pick what the direct scan picks.
        let cache = SnapshotCache::new(&c);
        let observers: Vec<Geodetic> = (0..8)
            .map(|i| Geodetic::on_surface(25.0 + 4.0 * i as f64, -120.0 + 30.0 * i as f64))
            .collect();
        let mask = crate::view::SHELL1_MIN_ELEVATION_DEG;
        for k in 0..40u64 {
            let t = SimDuration::from_secs(15 * k);
            for &obs in &observers {
                assert_eq!(
                    cache.at(t).best_visible(obs, mask).map(|v| v.index),
                    direct_visible_from(&c, obs, t, mask)
                        .first()
                        .map(|v| v.index),
                    "boundary {k}"
                );
            }
        }
        assert_eq!(cache.stats(), (280, 40));
    }

    #[test]
    fn cache_is_bounded() {
        let c = small_shell();
        let cache = SnapshotCache::new(&c);
        for s in 0..(SnapshotCache::CAPACITY as u64 + 10) {
            let _ = cache.at(SimDuration::from_secs(s));
        }
        assert!(cache.entries.borrow().len() <= SnapshotCache::CAPACITY);
        // The most recent entries survive.
        let (hits_before, misses) = cache.stats();
        let _ = cache.at(SimDuration::from_secs(SnapshotCache::CAPACITY as u64 + 9));
        let (hits_after, misses_after) = cache.stats();
        assert_eq!(
            hits_after,
            hits_before + 1,
            "most recent step must be a hit"
        );
        assert_eq!(misses_after, misses, "no extra propagation");
    }

    #[test]
    fn cache_stats_surface_through_the_metrics_registry() {
        let c = small_shell();
        starlink_obsv::metrics_begin();
        let cache = SnapshotCache::new(&c);
        let _ = cache.at(SimDuration::from_secs(1));
        let _ = cache.at(SimDuration::from_secs(1));
        let _ = cache.at(SimDuration::from_secs(2));
        let reg = starlink_obsv::metrics_take().expect("registry installed");
        assert_eq!(reg.counter("constellation.snapshot_cache.hits"), 1);
        assert_eq!(reg.counter("constellation.snapshot_cache.misses"), 2);
        assert_eq!(cache.stats(), (1, 2));
    }
}

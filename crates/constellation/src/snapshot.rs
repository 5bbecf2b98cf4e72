//! Shared per-instant constellation state and the visibility queries on it.
//!
//! A visibility query needs the ECEF positions of the satellites an
//! observer could see, and about 1 % of a shell is within reach of any one
//! ground observer. A [`PositionSnapshot`] therefore holds no positions at
//! all: it holds what every observer at one instant shares — the Earth
//! rotation and each orbit plane's drifted node, a sine and cosine each —
//! and a query propagates, with the one kernel
//! ([`BatchPropagator::position_in`](starlink_tle::BatchPropagator::position_in)),
//! only the satellites that two coarse geometric bounds cannot rule out:
//!
//! 1. **Plane.** Every satellite of a plane stays in the plane, at a radius
//!    between its plane's lowest `a(1 − |e|)` and highest `a(1 + |e|)`. The
//!    angle between the observer and the plane bounds the distance to all
//!    of them from below; a plane beyond reach is skipped whole.
//! 2. **Phase.** Within a plane that survives, a satellite's argument of
//!    latitude `u` is within a provable slack of its mean argument of
//!    latitude `ω + M` (see `phase_slack`), so its angle from the
//!    observer's in-plane direction — and with it its distance — is
//!    bounded from below without solving Kepler's equation.
//!
//! Both bounds skip only satellites that are provably farther than the
//! **range prune**'s limit, which is unchanged: a satellite whose
//! straight-line distance to the observer exceeds the maximum slant range
//! implied by the elevation mask (~1089 km at 25° per the paper; ~1123 km
//! with this repo's constants, see
//! [`starlink_geo::look::max_slant_range`]) cannot be above the mask. That
//! prune relaxes the mask by `PRUNE_MARGIN_DEG` to absorb the
//! geodetic-normal vs geocentric-radial difference and adds a flat
//! `PRUNE_SLACK_M`; the coarse bounds add `COARSE_MARGIN_M` on top for
//! rounding. Queries therefore return **byte-identical** results to the
//! direct scan over every satellite. A `SnapshotCache` shares one
//! snapshot across every observer and query at its instant.

use crate::view::{Constellation, SatView};
use starlink_geo::{look_angles, Ecef, Geodetic, LookAngles, ObserverFrame};
use starlink_simcore::SimDuration;
use starlink_tle::BatchPropagator;
use std::cell::{Cell, RefCell};
use std::f64::consts::TAU;
use std::fmt;
use std::rc::Rc;

/// Degrees subtracted from the elevation mask before deriving the prune
/// range. The closed-form slant-range bound is exact for an elevation
/// measured against the geocentric radial direction; the geodetic normal
/// the look-angle code uses deviates from it by at most ~0.2°, so half a
/// degree of relaxation keeps the prune strictly conservative.
const PRUNE_MARGIN_DEG: f64 = 0.5;

/// Flat slack added to the prune range, metres.
const PRUNE_SLACK_M: f64 = 10_000.0;

/// Distance added to the prune range before the plane and phase bounds
/// test against it, metres. The bounds are exact for the mathematical
/// orbit; the kernel's rounding moves a position by well under a
/// millimetre, so a kilometre keeps them conservative with room to spare.
const COARSE_MARGIN_M: f64 = 1_000.0;

/// Largest eccentricity the phase bound is applied to. A plane with a
/// bounded member beyond it gets the plane bound only.
const PHASE_MAX_ECCENTRICITY: f64 = 0.1;

/// Angle added to every phase slack, radians: covers the rounding of the
/// mean argument of latitude and the Newton residual of Kepler's equation
/// (see [`phase_slack`]), and is about 7 m along a 550 km orbit.
const PHASE_MARGIN_RAD: f64 = 1e-6;

/// An upper bound on how far, in radians, the kernel's argument of
/// latitude `u = ω + ν` can be from the mean argument of latitude `ω + M`
/// for a satellite with `|e| ≤ e_max`, or infinity when no bound is
/// claimed.
///
/// `u − (ω + M) = ν − M = (ν − E) + (E − M)`, with `E` the eccentric
/// anomaly:
///
/// - Kepler's equation gives `E − M = e sin E`, so `|E − M| ≤ |e|`.
/// - With `β = e / (1 + √(1 − e²))`, the true anomaly is
///   `ν = E + 2 arg(1 − β e^{−iE})`. The point `1 − β e^{−iE}` lies on the
///   circle of radius `|β| < 1` about 1, whose largest argument is
///   `asin |β|`; so `|ν − E| ≤ 2 asin |β|` (modulo 2π).
///
/// Both terms grow with `|e|`, so the bound at `e_max` covers every
/// smaller eccentricity. The kernel solves Kepler's equation by Newton
/// from `E₀ = M`, so `|E₀ − E| ≤ |e|`, and each step maps an error `ε` to
/// at most `|e| ε² / (2(1 − |e|))` (`|f″| ≤ |e|`, `f′ ≥ 1 − |e|`). For
/// `|e| ≤` [`PHASE_MAX_ECCENTRICITY`] that is below `0.06 ε²`: `1e-17`
/// after four of its eight steps, far inside [`PHASE_MARGIN_RAD`]. Its
/// `ν` is then the true anomaly of the `E` it found, and the radius
/// `a(1 − e cos E)` stays within the plane bound whatever `E` is.
fn phase_slack(e_max: f64) -> f64 {
    if !(0.0..=PHASE_MAX_ECCENTRICITY).contains(&e_max) {
        return f64::INFINITY;
    }
    let beta = e_max / (1.0 + (1.0 - e_max * e_max).sqrt());
    e_max + 2.0 * beta.asin() + PHASE_MARGIN_RAD
}

/// The angle between two directions given as unreduced angles, radians:
/// in `[0, π]`. A difference too large for the integer conversion, or a
/// NaN, comes out negative or NaN, and neither is beyond any width.
#[inline]
fn angle_apart(a: f64, b: f64) -> f64 {
    let turns = (a - b) * (1.0 / TAU);
    let frac = (turns - turns as i64 as f64).abs();
    frac.min(1.0 - frac) * TAU
}

/// One orbit plane as the coarse bounds see it.
#[derive(Debug, Clone)]
struct PlaneBound {
    sin_i: f64,
    cos_i: f64,
    /// Lowest perigee radius `a(1 − |e|)` of the bounded members, metres.
    r_lo: f64,
    /// Highest apogee radius `a(1 + |e|)` of the bounded members, metres.
    r_hi: f64,
    /// The [`phase_slack`] of its bounded members, radians.
    slack: f64,
    /// The bounded members: `PlaneTable::members[start..end]`.
    start: u32,
    end: u32,
}

/// The constants the plane and phase bounds read, fixed when the
/// constellation is built.
#[derive(Debug, Clone)]
pub(crate) struct PlaneTable {
    /// Indexed by the propagator's plane.
    planes: Vec<PlaneBound>,
    /// Satellite indices, grouped by plane, in index order within one.
    members: Vec<u32>,
    /// Satellites the bounds never skip: their radius bounds are not
    /// finite and positive (the zero-mean-motion rogue, `|e| ≥ 1`, …).
    unbounded: Vec<u32>,
    /// Largest finite apogee radius in the catalogue, metres: bounds the
    /// feasible slant range for the range prune. A satellite whose radius
    /// bound is not finite has no finite position and is never visible,
    /// so it must not widen the bound for the others.
    max_radius_m: f64,
}

impl PlaneTable {
    /// The table of `propagators`' planes.
    pub(crate) fn new(propagators: &BatchPropagator) -> Self {
        let mut planes = vec![
            PlaneBound {
                sin_i: 0.0,
                cos_i: 1.0,
                r_lo: f64::INFINITY,
                r_hi: 0.0,
                slack: 0.0,
                start: 0,
                end: 0,
            };
            propagators.planes()
        ];
        let mut e_max = vec![0.0_f64; planes.len()];
        let mut members = Vec::with_capacity(propagators.len());
        let mut unbounded = Vec::new();
        let mut max_radius_m = 0.0_f64;
        for index in 0..propagators.len() {
            let sat = propagators.satellite(index);
            let (lo, hi) = sat.radius_bounds_m();
            if hi.is_finite() {
                max_radius_m = max_radius_m.max(hi);
            }
            if !(lo > 0.0 && hi.is_finite()) {
                unbounded.push(index as u32);
                continue;
            }
            members.push(index as u32);
            let p = propagators.plane_of(index);
            let plane = &mut planes[p];
            plane.r_lo = plane.r_lo.min(lo);
            plane.r_hi = plane.r_hi.max(hi);
            (plane.sin_i, plane.cos_i) = sat.inclination_sin_cos();
            e_max[p] = e_max[p].max(sat.eccentricity().abs());
        }
        for (plane, e_max) in planes.iter_mut().zip(e_max) {
            plane.slack = phase_slack(e_max);
        }
        // Stable, so index order holds within a plane; a catalogue that
        // lists its planes one after another is sorted already.
        members.sort_by_key(|&index| propagators.plane_of(index as usize));
        for (slot, &index) in members.iter().enumerate() {
            let plane = &mut planes[propagators.plane_of(index as usize)];
            if plane.end == 0 {
                plane.start = slot as u32;
            }
            plane.end = slot as u32 + 1;
        }
        PlaneTable {
            planes,
            members,
            unbounded,
            max_radius_m,
        }
    }
}

/// What every observer shares at one instant: the Earth rotation and each
/// plane's drifted node. Positions are propagated per query, for the
/// satellites the coarse bounds keep.
#[derive(Clone)]
pub struct PositionSnapshot<'a> {
    constellation: &'a Constellation,
    t: SimDuration,
    /// `t` in seconds, the kernel's time operand.
    t_secs: f64,
    earth: (f64, f64),
    /// Indexed by plane.
    nodes: Vec<(f64, f64)>,
}

impl fmt::Debug for PositionSnapshot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PositionSnapshot")
            .field("t", &self.t)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<'a> PositionSnapshot<'a> {
    /// The shared state of `constellation` at `t`.
    pub fn capture(constellation: &'a Constellation, t: SimDuration) -> Self {
        let t_secs = t.as_secs_f64();
        let propagators = &constellation.propagators;
        PositionSnapshot {
            constellation,
            t,
            t_secs,
            earth: propagators.earth_rotation(t_secs),
            nodes: propagators.nodes_at(t_secs),
        }
    }

    /// The instant this snapshot was taken at.
    pub fn time(&self) -> SimDuration {
        self.t
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.constellation.len()
    }

    /// Whether the constellation is empty.
    pub fn is_empty(&self) -> bool {
        self.constellation.is_empty()
    }

    /// The ECEF position of satellite `index`, propagated on demand: the
    /// bits of [`Constellation::position`] at this instant.
    pub fn position(&self, index: usize) -> Ecef {
        self.constellation
            .propagators
            .position_in(index, self.t_secs, &self.nodes, self.earth)
    }

    /// The look angles from `observer` to satellite `index`.
    pub fn look(&self, index: usize, observer: Geodetic) -> LookAngles {
        look_angles(observer, self.position(index))
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
        let max_radius_m = self.constellation.planes.max_radius_m;
        let h2 = max_radius_m * max_radius_m - r * r;
        if h2 <= 0.0 {
            return None;
        }
        let sin_e = (mask_deg - PRUNE_MARGIN_DEG).to_radians().sin();
        let d = (r * r * sin_e * sin_e + h2).sqrt() - r * sin_e + PRUNE_SLACK_M;
        Some(d * d)
    }

    /// Calls `visit` with the index and position of every satellite the
    /// coarse bounds and the range prune cannot rule out for an observer
    /// at `obs` under `mask_deg`: plane by plane, then the unbounded ones.
    fn for_each_candidate(&self, obs: Ecef, mask_deg: f64, mut visit: impl FnMut(usize, Ecef)) {
        let Some(limit_sq) = self.prune_range_sq_m2(obs, mask_deg) else {
            // No bound, no prune: nothing is farther than infinity.
            for index in 0..self.len() {
                visit(index, self.position(index));
            }
            return;
        };
        let mut near = |index: u32| {
            let pos = self.position(index as usize);
            let dx = pos.x - obs.x;
            let dy = pos.y - obs.y;
            let dz = pos.z - obs.z;
            // A NaN distance is not beyond the limit: it goes on to the
            // look angles, which find it above no mask.
            let pruned = dx * dx + dy * dy + dz * dz > limit_sq;
            if !pruned {
                visit(index as usize, pos);
            }
        };

        let table = &self.constellation.planes;
        let propagators = &self.constellation.propagators;
        // The observer in the inertial frame the planes are expressed in.
        let (sin_t, cos_t) = self.earth;
        let (ox, oy, oz) = (
            cos_t * obs.x - sin_t * obs.y,
            sin_t * obs.x + cos_t * obs.y,
            obs.z,
        );
        let rho2 = obs.x * obs.x + obs.y * obs.y + obs.z * obs.z;
        let reach = limit_sq.sqrt() + COARSE_MARGIN_M;
        let k = rho2 - reach * reach;
        // The orbit radius at which a given angle from the observer comes
        // nearest to the reach, before clamping to a plane's radii.
        let r_star = k.max(0.0).sqrt();
        for (plane, &(sin_o, cos_o)) in table.planes.iter().zip(&self.nodes) {
            if plane.start == plane.end {
                continue;
            }
            // The observer on the plane's axes: toward the ascending node
            // (`op`), 90° ahead of it along the motion (`oq`); a satellite
            // at argument of latitude `u` and radius `r` is at
            // `r (cos u, sin u)` on them, off-plane distance zero.
            let op = ox * cos_o + oy * sin_o;
            let oq = (oy * cos_o - ox * sin_o) * plane.cos_i + oz * plane.sin_i;
            let in_plane = (op * op + oq * oq).sqrt();
            // d² = ρ² + r² − 2 r · in_plane · cos(u − φ) exceeds the reach
            // for every r in the plane's radii exactly when
            // in_plane · cos(u − φ) < min_r (ρ² + r² − reach²) / 2r, and
            // the minimum of r + k/r over [r_lo, r_hi] is at √k clamped.
            let r = r_star.clamp(plane.r_lo, plane.r_hi);
            let cutoff = (k + r * r) / (2.0 * r);
            if in_plane < cutoff {
                continue;
            }
            // The widest |u − φ| still within reach, widened by the
            // phase slack; NaN keeps everyone.
            let width = (cutoff / in_plane).clamp(-1.0, 1.0).acos() + plane.slack;
            let toward = oq.atan2(op);
            for &index in &table.members[plane.start as usize..plane.end as usize] {
                let (at_epoch, rate) = propagators.mean_argument_of_latitude(index as usize);
                let beyond = angle_apart(at_epoch + rate * self.t_secs, toward) > width;
                if !beyond {
                    near(index);
                }
            }
        }
        for &index in &table.unbounded {
            near(index);
        }
    }

    /// All satellites at or above `mask_deg` elevation for `observer`,
    /// sorted by descending elevation then ascending index — exactly the
    /// ordering of the direct scan over every satellite.
    pub fn visible_from(&self, observer: Geodetic, mask_deg: f64) -> Vec<SatView> {
        let frame = ObserverFrame::new(observer);
        let mut views = Vec::new();
        self.for_each_candidate(frame.ecef(), mask_deg, |index, pos| {
            let look = frame.look(pos);
            if look.visible_above(mask_deg) {
                views.push(SatView { index, look });
            }
        });
        views.sort_by(|a, b| {
            b.look
                .elevation_deg
                .total_cmp(&a.look.elevation_deg)
                .then(a.index.cmp(&b.index))
        });
        views
    }

    /// The highest-elevation visible satellite, if any. Ties keep the
    /// lowest index, matching the direct scan's first-wins comparison
    /// whatever order the candidates come in.
    pub fn best_visible(&self, observer: Geodetic, mask_deg: f64) -> Option<SatView> {
        let frame = ObserverFrame::new(observer);
        let mut best: Option<SatView> = None;
        self.for_each_candidate(frame.ecef(), mask_deg, |index, pos| {
            let look = frame.look(pos);
            if !look.visible_above(mask_deg) {
                return;
            }
            let better = best.as_ref().is_none_or(|b| {
                look.elevation_deg > b.look.elevation_deg
                    || (look.elevation_deg == b.look.elevation_deg && index < b.index)
            });
            if better {
                best = Some(SatView { index, look });
            }
        });
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
/// flat on day-scale windows (a shell-1 snapshot holds 73 sine-cosine
/// pairs, about 1 KB).
pub(crate) struct SnapshotCache<'a> {
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

    /// The cache's `(hits, misses)` counters. A hit means a
    /// whole-constellation propagation was skipped by reusing a shared
    /// snapshot.
    fn stats(cache: &SnapshotCache<'_>) -> (u64, u64) {
        (cache.hits.get(), cache.misses.get())
    }

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
        assert_eq!(stats(&cache), (1, 1));

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
        assert_eq!(stats(&cache), (280, 40));
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
        let (hits_before, misses) = stats(&cache);
        let _ = cache.at(SimDuration::from_secs(SnapshotCache::CAPACITY as u64 + 9));
        let (hits_after, misses_after) = stats(&cache);
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
        assert_eq!(stats(&cache), (1, 2));
    }
}

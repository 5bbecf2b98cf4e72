//! Orbit propagation: Keplerian two-body motion with secular J2 drift.
//!
//! Full SGP4 models atmospheric drag and a dozen periodic perturbation
//! terms; over the minutes-to-hours windows the paper's experiments span
//! (Fig. 7 is a 12-minute window), those terms move a 550 km satellite by a
//! few kilometres at most. What *does* matter for visibility dynamics is
//! captured here:
//!
//! * mean motion (sets the ~95-minute period and ground speed),
//! * inclination and RAAN (set the ground-track geometry),
//! * secular J2 regression of the node and rotation of perigee,
//! * Earth rotation (turns the inertial orbit into a moving ground track).
//!
//! The propagator solves Kepler's equation by Newton iteration each step
//! and returns Earth-fixed (ECEF) coordinates directly, which is what the
//! visibility and slant-range computations consume.

use crate::elements::{OrbitalElements, J2, MU_EARTH, OMEGA_EARTH, RE_EARTH};
use starlink_geo::{Ecef, EcefColumns};
use starlink_simcore::SimDuration;

/// A satellite propagator built from one TLE's mean elements.
///
/// The propagator treats the TLE epoch as simulation time zero, and takes
/// a configurable Greenwich sidereal angle at that epoch (`gmst0_rad`) so a
/// scenario can position the constellation relative to the ground stations
/// reproducibly.
///
/// Everything that is constant for the satellite — including the
/// inclination's sine and cosine and `√(1 − e²)` — is evaluated here, once;
/// a position costs only what depends on the instant.
#[derive(Debug, Clone)]
pub struct Propagator {
    /// Semi-major axis, m.
    a: f64,
    /// Eccentricity.
    e: f64,
    /// `√(1 − e²)`.
    sqrt_1me2: f64,
    /// Sine of the inclination.
    sin_i: f64,
    /// Cosine of the inclination.
    cos_i: f64,
    /// RAAN at epoch, rad.
    raan0: f64,
    /// Argument of perigee at epoch, rad.
    argp0: f64,
    /// Mean anomaly at epoch, rad.
    m0: f64,
    /// Mean motion, rad/s (J2-corrected).
    n: f64,
    /// Secular RAAN rate, rad/s.
    raan_dot: f64,
    /// Secular argument-of-perigee rate, rad/s.
    argp_dot: f64,
    /// Greenwich mean sidereal angle at epoch, rad.
    gmst0: f64,
}

/// Sine and cosine of one angle.
type SinCos = (f64, f64);

/// The Earth-rotation angle `t` seconds after an epoch at `gmst0`: the
/// same for every satellite propagated to that instant.
fn earth_rotation(gmst0: f64, t: f64) -> SinCos {
    (gmst0 + OMEGA_EARTH * t).sin_cos()
}

impl Propagator {
    /// Builds a propagator from mean elements, with the Greenwich sidereal
    /// angle at epoch fixed to `gmst0_rad`.
    pub fn new(elements: &OrbitalElements, gmst0_rad: f64) -> Self {
        let n0 = elements.mean_motion_rad_per_sec();
        let a = (MU_EARTH / (n0 * n0)).cbrt();
        let e = elements.eccentricity;
        let (sin_i, cos_i) = elements.inclination_deg.to_radians().sin_cos();
        let sqrt_1me2 = (1.0 - e * e).sqrt();
        let p = a * (1.0 - e * e);
        let factor = 1.5 * J2 * (RE_EARTH / p).powi(2) * n0;

        // Secular J2 rates (standard first-order theory).
        let raan_dot = -factor * cos_i;
        let argp_dot = factor * (2.0 - 2.5 * sin_i.powi(2));
        // J2 correction to the mean motion (keeps the draconitic period
        // honest; small at 53°).
        let n = n0
            * (1.0 + 1.5 * J2 * (RE_EARTH / p).powi(2) * sqrt_1me2 * (1.0 - 1.5 * sin_i.powi(2)));

        Propagator {
            a,
            e,
            sqrt_1me2,
            sin_i,
            cos_i,
            raan0: elements.raan_deg.to_radians(),
            argp0: elements.arg_perigee_deg.to_radians(),
            m0: elements.mean_anomaly_deg.to_radians(),
            n,
            raan_dot,
            argp_dot,
            gmst0: gmst0_rad,
        }
    }

    /// Orbital period, seconds.
    pub fn period_secs(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.n
    }

    /// Semi-major axis, metres.
    pub fn semi_major_axis_m(&self) -> f64 {
        self.a
    }

    /// Earth-fixed position `dt` after the TLE epoch.
    pub fn position_at(&self, dt: SimDuration) -> Ecef {
        self.position_at_secs(dt.as_secs_f64())
    }

    /// Earth-fixed position `t` seconds after the TLE epoch (negative `t`
    /// rewinds, useful for windowed analyses).
    pub fn position_at_secs(&self, t: f64) -> Ecef {
        self.position_in(t, self.node_at(t), earth_rotation(self.gmst0, t))
    }

    /// The drifted ascending node at `t`: shared by every satellite of the
    /// same orbital plane.
    fn node_at(&self, t: f64) -> SinCos {
        (self.raan0 + self.raan_dot * t).sin_cos()
    }

    /// The propagation kernel: this satellite's position at `t`, given the
    /// two rotations that do not depend on it — its plane's `node` at `t`
    /// and the `earth` rotation at `t`.
    #[inline]
    fn position_in(&self, t: f64, (sin_raan, cos_raan): SinCos, (sin_t, cos_t): SinCos) -> Ecef {
        // Mean anomaly and drifted perigee at t.
        let m = self.m0 + self.n * t;
        let argp = self.argp0 + self.argp_dot * t;

        // Kepler's equation: E - e sin E = M, Newton iteration. A step
        // that returns its own input has reached the fixed point: every
        // later step would return it again, so leaving early changes no
        // bit of the result — and the sine and cosine just taken are those
        // of the final E. A near-circular orbit gets there in two or
        // three steps; one that has not by the eighth stops where the
        // eight-step loop always did.
        let mut big_e = if self.e < 0.8 {
            m
        } else {
            std::f64::consts::PI
        };
        let mut fixed_point = None;
        for _ in 0..8 {
            let (sin_e, cos_e) = big_e.sin_cos();
            let f = big_e - self.e * sin_e - m;
            let fp = 1.0 - self.e * cos_e;
            let next = big_e - f / fp;
            if next.to_bits() == big_e.to_bits() {
                fixed_point = Some((sin_e, cos_e));
                break;
            }
            big_e = next;
        }

        // True anomaly and radius.
        let (sin_e, cos_e) = fixed_point.unwrap_or_else(|| big_e.sin_cos());
        let nu = (self.sqrt_1me2 * sin_e).atan2(cos_e - self.e);
        let r = self.a * (1.0 - self.e * cos_e);

        // Perifocal -> inertial (ECI) via the 3-1-3 rotation.
        let u = argp + nu; // argument of latitude
        let (sin_u, cos_u) = u.sin_cos();

        let x_eci = r * (cos_raan * cos_u - sin_raan * sin_u * self.cos_i);
        let y_eci = r * (sin_raan * cos_u + cos_raan * sin_u * self.cos_i);
        let z_eci = r * (sin_u * self.sin_i);

        // ECI -> ECEF: rotate by the Greenwich sidereal angle.
        Ecef {
            x: cos_t * x_eci + sin_t * y_eci,
            y: -sin_t * x_eci + cos_t * y_eci,
            z: z_eci,
        }
    }
}

/// The propagators of a whole constellation, one column per constant, all
/// at one Greenwich angle.
///
/// [`BatchPropagator::positions_at_secs`] is how a constellation is
/// propagated: the Earth rotation is evaluated once per call and the node
/// rotation once per run of satellites in the same plane, instead of once
/// per satellite. Each position is the one [`Propagator::position_at_secs`]
/// returns for that satellite, bit for bit — both are the same kernel.
#[derive(Debug, Clone)]
pub struct BatchPropagator {
    a: Vec<f64>,
    e: Vec<f64>,
    sqrt_1me2: Vec<f64>,
    sin_i: Vec<f64>,
    cos_i: Vec<f64>,
    raan0: Vec<f64>,
    argp0: Vec<f64>,
    m0: Vec<f64>,
    n: Vec<f64>,
    raan_dot: Vec<f64>,
    argp_dot: Vec<f64>,
    gmst0: f64,
}

impl BatchPropagator {
    /// Builds the columns from mean elements, in iteration order, with the
    /// Greenwich sidereal angle at the common epoch fixed to `gmst0_rad`.
    pub fn new<'a>(
        elements: impl IntoIterator<Item = &'a OrbitalElements>,
        gmst0_rad: f64,
    ) -> Self {
        let elements = elements.into_iter();
        let column = || Vec::with_capacity(elements.size_hint().0);
        let mut batch = BatchPropagator {
            a: column(),
            e: column(),
            sqrt_1me2: column(),
            sin_i: column(),
            cos_i: column(),
            raan0: column(),
            argp0: column(),
            m0: column(),
            n: column(),
            raan_dot: column(),
            argp_dot: column(),
            gmst0: gmst0_rad,
        };
        for elements in elements {
            let p = Propagator::new(elements, gmst0_rad);
            batch.a.push(p.a);
            batch.e.push(p.e);
            batch.sqrt_1me2.push(p.sqrt_1me2);
            batch.sin_i.push(p.sin_i);
            batch.cos_i.push(p.cos_i);
            batch.raan0.push(p.raan0);
            batch.argp0.push(p.argp0);
            batch.m0.push(p.m0);
            batch.n.push(p.n);
            batch.raan_dot.push(p.raan_dot);
            batch.argp_dot.push(p.argp_dot);
        }
        batch
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Satellite `index` gathered back out of the columns.
    #[inline]
    fn satellite(&self, index: usize) -> Propagator {
        Propagator {
            a: self.a[index],
            e: self.e[index],
            sqrt_1me2: self.sqrt_1me2[index],
            sin_i: self.sin_i[index],
            cos_i: self.cos_i[index],
            raan0: self.raan0[index],
            argp0: self.argp0[index],
            m0: self.m0[index],
            n: self.n[index],
            raan_dot: self.raan_dot[index],
            argp_dot: self.argp_dot[index],
            gmst0: self.gmst0,
        }
    }

    /// Earth-fixed position of satellite `index`, `t` seconds after epoch.
    pub fn position_at_secs(&self, index: usize, t: f64) -> Ecef {
        self.satellite(index).position_at_secs(t)
    }

    /// Earth-fixed position of every satellite `t` seconds after epoch, in
    /// index order.
    pub fn positions_at_secs(&self, t: f64) -> EcefColumns {
        let earth = earth_rotation(self.gmst0, t);
        let mut positions = EcefColumns::with_capacity(self.len());
        // The last node evaluated and the plane it belongs to. Only the
        // cost depends on same-plane satellites being adjacent: a plane
        // that comes back later is evaluated again, to the same bits.
        let mut plane = None;
        for index in 0..self.len() {
            let sat = self.satellite(index);
            let key = (sat.raan0.to_bits(), sat.raan_dot.to_bits());
            let node = match plane {
                Some((k, node)) if k == key => node,
                _ => {
                    let node = sat.node_at(t);
                    plane = Some((key, node));
                    node
                }
            };
            positions.push(sat.position_in(t, node, earth));
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::OrbitalElements;

    fn shell1_elements(raan_deg: f64, ma_deg: f64) -> OrbitalElements {
        OrbitalElements {
            catalog_number: 1,
            classification: 'U',
            intl_designator: "22001A".into(),
            epoch_year: 2022,
            epoch_day: 1.0,
            mean_motion_dot: 0.0,
            mean_motion_ddot: 0.0,
            bstar: 0.0,
            element_set: 1,
            inclination_deg: 53.0,
            raan_deg,
            eccentricity: 0.0001,
            arg_perigee_deg: 0.0,
            mean_anomaly_deg: ma_deg,
            mean_motion_rev_per_day: 15.06,
            rev_number: 1,
        }
    }

    #[test]
    fn altitude_stays_near_shell() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        for step in 0..200 {
            let pos = p.position_at_secs(step as f64 * 60.0);
            let alt_km = (pos.magnitude() - RE_EARTH) / 1_000.0;
            assert!(
                (520.0..600.0).contains(&alt_km),
                "step {step}: altitude {alt_km} km"
            );
        }
    }

    #[test]
    fn period_matches_mean_motion() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        let period_min = p.period_secs() / 60.0;
        assert!((94.0..97.0).contains(&period_min), "{period_min}");
    }

    #[test]
    fn latitude_bounded_by_inclination() {
        let p = Propagator::new(&shell1_elements(40.0, 10.0), 0.3);
        for step in 0..500 {
            let g = p.position_at_secs(step as f64 * 30.0).to_geodetic();
            assert!(
                g.lat_deg.abs() <= 53.5,
                "step {step}: latitude {} exceeds inclination",
                g.lat_deg
            );
        }
    }

    #[test]
    fn reaches_latitudes_near_inclination() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        let max_lat = (0..200)
            .map(|s| p.position_at_secs(s as f64 * 30.0).to_geodetic().lat_deg)
            .fold(f64::MIN, f64::max);
        assert!(
            max_lat > 50.0,
            "max latitude {max_lat} too small for 53° orbit"
        );
    }

    #[test]
    fn ground_track_moves() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        let a = p.position_at_secs(0.0);
        let b = p.position_at_secs(60.0);
        // ~7.6 km/s orbital speed: a minute moves the satellite >400 km.
        let d = a.distance(b).as_km();
        assert!(d > 400.0, "{d} km in one minute");
    }

    #[test]
    fn orbit_roughly_closes_after_period() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        let period = p.period_secs();
        let start = p.position_at_secs(0.0).to_geodetic();
        let later = p.position_at_secs(period).to_geodetic();
        // Same latitude phase after one draconitic period; longitude will
        // have shifted by Earth rotation (~24°) plus nodal drift.
        assert!((start.lat_deg - later.lat_deg).abs() < 1.5);
    }

    #[test]
    fn raan_drift_is_westward_for_prograde() {
        // J2 regresses the node westward for inclination < 90°; verify the
        // sign through the propagator internals.
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        assert!(p.raan_dot < 0.0);
        // Magnitude should be a few degrees per day for shell-1.
        let deg_per_day = p.raan_dot.to_degrees() * 86_400.0;
        assert!((-6.0..-2.0).contains(&deg_per_day), "{deg_per_day}");
    }

    #[test]
    fn negative_time_rewinds() {
        let p = Propagator::new(&shell1_elements(0.0, 0.0), 0.0);
        let fwd = p.position_at_secs(120.0);
        let back = p.position_at_secs(-120.0);
        let now = p.position_at_secs(0.0);
        assert!(now.distance(fwd).as_f64() > 0.0);
        assert!(now.distance(back).as_f64() > 0.0);
        assert!(fwd.distance(back).as_f64() > now.distance(fwd).as_f64());
    }

    #[test]
    fn gmst_rotates_ground_track() {
        let e = shell1_elements(0.0, 0.0);
        let p0 = Propagator::new(&e, 0.0);
        let p1 = Propagator::new(&e, 1.0); // one radian of Earth phase
        let g0 = p0.position_at_secs(0.0).to_geodetic();
        let g1 = p1.position_at_secs(0.0).to_geodetic();
        assert!((g0.lat_deg - g1.lat_deg).abs() < 1e-6);
        let dlon = (g0.lon_deg - g1.lon_deg).rem_euclid(360.0);
        assert!((dlon - 57.2958).abs() < 0.01, "dlon {dlon}");
    }
}

//! The propagation kernel against the formula it replaced.
//!
//! [`Reference`] is the per-satellite propagator as it stood before the
//! batch kernel: constants derived per satellite, inclination and Earth
//! rotation trigonometry redone per position, eight Newton steps always.
//! The kernel hoists, shares and leaves the loop early, and must still
//! return the same `f64` bits for every coordinate — scalar or batch,
//! whatever order the satellites come in.

use proptest::prelude::*;
use starlink_geo::Ecef;
use starlink_simcore::SimRng;
use starlink_tle::elements::{OrbitalElements, J2, MU_EARTH, OMEGA_EARTH, RE_EARTH};
use starlink_tle::{BatchPropagator, Propagator, ShellConfig, Tle};

/// The pre-kernel `Propagator`, `new` and `position_at_secs` verbatim.
struct Reference {
    a: f64,
    e: f64,
    inc: f64,
    raan0: f64,
    argp0: f64,
    m0: f64,
    n: f64,
    raan_dot: f64,
    argp_dot: f64,
    gmst0: f64,
}

impl Reference {
    fn new(elements: &OrbitalElements, gmst0_rad: f64) -> Self {
        let n0 = elements.mean_motion_rad_per_sec();
        let a = (MU_EARTH / (n0 * n0)).cbrt();
        let e = elements.eccentricity;
        let inc = elements.inclination_deg.to_radians();
        let p = a * (1.0 - e * e);
        let factor = 1.5 * J2 * (RE_EARTH / p).powi(2) * n0;
        let cos_i = inc.cos();

        // Secular J2 rates (standard first-order theory).
        let raan_dot = -factor * cos_i;
        let argp_dot = factor * (2.0 - 2.5 * inc.sin().powi(2));
        // J2 correction to the mean motion (keeps the draconitic period
        // honest; small at 53°).
        let n = n0
            * (1.0
                + 1.5
                    * J2
                    * (RE_EARTH / p).powi(2)
                    * (1.0 - e * e).sqrt()
                    * (1.0 - 1.5 * inc.sin().powi(2)));

        Reference {
            a,
            e,
            inc,
            raan0: elements.raan_deg.to_radians(),
            argp0: elements.arg_perigee_deg.to_radians(),
            m0: elements.mean_anomaly_deg.to_radians(),
            n,
            raan_dot,
            argp_dot,
            gmst0: gmst0_rad,
        }
    }

    fn position_at_secs(&self, t: f64) -> Ecef {
        // Mean anomaly and drifted angles at t.
        let m = self.m0 + self.n * t;
        let raan = self.raan0 + self.raan_dot * t;
        let argp = self.argp0 + self.argp_dot * t;

        // Kepler's equation: E - e sin E = M, Newton iteration.
        let mut big_e = if self.e < 0.8 {
            m
        } else {
            std::f64::consts::PI
        };
        for _ in 0..8 {
            let f = big_e - self.e * big_e.sin() - m;
            let fp = 1.0 - self.e * big_e.cos();
            big_e -= f / fp;
        }

        // True anomaly and radius.
        let (sin_e, cos_e) = big_e.sin_cos();
        let sqrt_1me2 = (1.0 - self.e * self.e).sqrt();
        let nu = (sqrt_1me2 * sin_e).atan2(cos_e - self.e);
        let r = self.a * (1.0 - self.e * cos_e);

        // Perifocal -> inertial (ECI) via the 3-1-3 rotation.
        let u = argp + nu; // argument of latitude
        let (sin_u, cos_u) = u.sin_cos();
        let (sin_raan, cos_raan) = raan.sin_cos();
        let (sin_i, cos_i) = self.inc.sin_cos();

        let x_eci = r * (cos_raan * cos_u - sin_raan * sin_u * cos_i);
        let y_eci = r * (sin_raan * cos_u + cos_raan * sin_u * cos_i);
        let z_eci = r * (sin_u * sin_i);

        // ECI -> ECEF: rotate by the Greenwich sidereal angle.
        let theta = self.gmst0 + OMEGA_EARTH * t;
        let (sin_t, cos_t) = theta.sin_cos();
        Ecef {
            x: cos_t * x_eci + sin_t * y_eci,
            y: -sin_t * x_eci + cos_t * y_eci,
            z: z_eci,
        }
    }
}

const GMST0: f64 = 4.321;
const TIMES: [f64; 6] = [-86_400.0, -0.5, 0.0, 1.0, 7_200.25, 2.6e6];

fn bits(p: Ecef) -> [u64; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

/// Reference ≡ scalar kernel ≡ batch kernel, at every index and time.
fn assert_bit_identical(elements: &[OrbitalElements], what: &str) {
    let batch = BatchPropagator::new(elements, GMST0);
    assert_eq!(batch.len(), elements.len());
    for t in TIMES {
        let (nodes, earth) = (batch.nodes_at(t), batch.earth_rotation(t));
        for (i, el) in elements.iter().enumerate() {
            let want = bits(Reference::new(el, GMST0).position_at_secs(t));
            let scalar = Propagator::new(el, GMST0).position_at_secs(t);
            assert_eq!(bits(scalar), want, "{what}: scalar, satellite {i}, t {t}");
            assert_eq!(
                bits(batch.position_in(i, t, &nodes, earth)),
                want,
                "{what}: batch, satellite {i}, t {t}"
            );
            assert_eq!(
                bits(batch.position_at_secs(i, t)),
                want,
                "{what}: batch entry, satellite {i}, t {t}"
            );
        }
    }
}

/// Catalogue order, reversed, and shuffled: the plane terms are reused
/// along runs of equal planes, and no order may change a bit.
fn assert_bit_identical_in_any_order(tles: &[Tle], what: &str) {
    let mut elements: Vec<OrbitalElements> = tles.iter().map(|t| t.elements.clone()).collect();
    assert_bit_identical(&elements, what);
    elements.reverse();
    assert_bit_identical(&elements, &format!("{what}, reversed"));
    SimRng::seed_from(0x5eed).shuffle(&mut elements);
    assert_bit_identical(&elements, &format!("{what}, shuffled"));
}

#[test]
fn shell1_is_bit_identical() {
    assert_bit_identical_in_any_order(&ShellConfig::starlink_shell1().generate(), "shell-1");
}

/// The six shells `slbench`'s `constellation_sweep` propagates, full size.
#[test]
fn gen2_like_shells_are_bit_identical() {
    let shell = |inclination_deg, altitude_km: f64, planes, sats_per_plane, first| ShellConfig {
        inclination_deg,
        altitude_m: altitude_km * 1_000.0,
        planes,
        sats_per_plane,
        phasing: 1,
        first_catalog_number: first,
        name_prefix: "GEN2",
    };
    let tles: Vec<Tle> = [
        shell(53.0, 550.0, 72, 22, 100_000),
        shell(53.2, 540.0, 72, 22, 110_000),
        shell(70.0, 570.0, 36, 20, 120_000),
        shell(97.6, 560.0, 6, 58, 130_000),
        shell(43.0, 530.0, 48, 110, 140_000),
        shell(33.0, 525.0, 56, 120, 150_000),
    ]
    .iter()
    .flat_map(ShellConfig::generate)
    .collect();
    assert_eq!(tles.len(), 16_236);
    assert_bit_identical_in_any_order(&tles, "gen2");
}

/// The ISS TLE of `parse.rs`, as parsed and across the eccentricities
/// that cover both Newton starting points and slow convergence.
#[test]
fn iss_and_eccentric_orbits_are_bit_identical() {
    let iss = Tle::parse(
        "ISS (ZARYA)",
        "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
        "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537",
    )
    .expect("the reference TLE parses");
    let mut tles = vec![iss.clone()];
    for (k, e) in [0.0, 1e-4, 0.1, 0.79, 0.8, 0.95].into_iter().enumerate() {
        // Several phases per eccentricity, two of them in the ISS plane
        // so a plane run spans different orbits.
        for phase in 0..8 {
            let mut tle = iss.clone();
            tle.elements.eccentricity = e;
            tle.elements.mean_anomaly_deg = 45.0 * f64::from(phase) + k as f64;
            if phase >= 2 {
                tle.elements.raan_deg = 30.0 * f64::from(phase);
                tle.elements.mean_motion_rev_per_day = 2.0 + 1.7 * f64::from(phase);
            }
            tles.push(tle);
        }
    }
    assert_bit_identical_in_any_order(&tles, "iss");
}

fn arb_elements() -> impl Strategy<Value = OrbitalElements> {
    (
        0.0f64..180.0,
        0.0f64..360.0,
        0.0f64..0.97,
        0.0f64..360.0,
        0.0f64..360.0,
        1.0f64..17.0,
    )
        .prop_map(|(inc, raan, ecc, argp, ma, mm)| OrbitalElements {
            catalog_number: 1,
            classification: 'U',
            intl_designator: "22001A".into(),
            epoch_year: 2022,
            epoch_day: 1.0,
            mean_motion_dot: 0.0,
            mean_motion_ddot: 0.0,
            bstar: 0.0,
            element_set: 1,
            inclination_deg: inc,
            raan_deg: raan,
            eccentricity: ecc,
            arg_perigee_deg: argp,
            mean_anomaly_deg: ma,
            mean_motion_rev_per_day: mm,
            rev_number: 1,
        })
}

proptest! {
    /// Random orbits, Greenwich angles and instants: a satellite alone,
    /// and the same satellite between a plane-mate and a stranger.
    #[test]
    fn random_orbits_are_bit_identical(
        el in arb_elements(),
        other in arb_elements(),
        gmst0 in 0.0f64..6.3,
        t in -3.0e6f64..3.0e6,
    ) {
        let want = bits(Reference::new(&el, gmst0).position_at_secs(t));
        prop_assert_eq!(bits(Propagator::new(&el, gmst0).position_at_secs(t)), want);

        let mut mate = other.clone();
        mate.inclination_deg = el.inclination_deg;
        mate.raan_deg = el.raan_deg;
        mate.eccentricity = el.eccentricity;
        mate.mean_motion_rev_per_day = el.mean_motion_rev_per_day;
        let all = [mate, el.clone(), other, el];
        let batch = BatchPropagator::new(&all, gmst0);
        let (nodes, earth) = (batch.nodes_at(t), batch.earth_rotation(t));
        for (i, el) in all.iter().enumerate() {
            prop_assert_eq!(
                bits(batch.position_in(i, t, &nodes, earth)),
                bits(Reference::new(el, gmst0).position_at_secs(t)),
                "batch index {}", i
            );
        }
    }
}

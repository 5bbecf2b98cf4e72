//! Property tests: TLE emit→parse round-trips over randomized element sets,
//! checksum self-consistency, and propagator energy conservation.

use proptest::prelude::*;
use starlink_tle::elements::{OrbitalElements, RE_EARTH};
use starlink_tle::parse::checksum;
use starlink_tle::{Propagator, Tle};

fn arb_elements() -> impl Strategy<Value = OrbitalElements> {
    (
        1u32..=99_999,
        0.0f64..360.0,
        0.0f64..0.01,
        0.0f64..360.0,
        0.0f64..360.0,
        11.0f64..16.5, // LEO-ish mean motions
        1.0f64..366.0,
    )
        .prop_map(
            |(cat, raan, ecc, argp, ma, mm, epoch_day)| OrbitalElements {
                catalog_number: cat,
                classification: 'U',
                intl_designator: "22001A".into(),
                epoch_year: 2022,
                epoch_day,
                mean_motion_dot: 0.000_01,
                mean_motion_ddot: 0.0,
                bstar: 0.000_12,
                element_set: 999,
                inclination_deg: 53.0,
                raan_deg: raan,
                eccentricity: ecc,
                arg_perigee_deg: argp,
                mean_anomaly_deg: ma,
                mean_motion_rev_per_day: mm,
                rev_number: 1,
            },
        )
}

proptest! {
    /// Any element set we emit must parse back to (approximately) itself,
    /// including a valid checksum.
    #[test]
    fn emit_parse_round_trip(elements in arb_elements()) {
        let tle = Tle { name: "PROP-TEST".into(), elements };
        let (name, l1, l2) = tle.to_lines();
        prop_assert_eq!(l1.len(), 69);
        prop_assert_eq!(l2.len(), 69);
        // Stated checksum equals computed checksum by construction.
        prop_assert_eq!(l1.as_bytes()[68] - b'0', checksum(&l1));
        prop_assert_eq!(l2.as_bytes()[68] - b'0', checksum(&l2));

        let back = Tle::parse(&name, &l1, &l2).expect("round trip parses");
        let a = &tle.elements;
        let b = &back.elements;
        prop_assert_eq!(a.catalog_number, b.catalog_number);
        prop_assert!((a.raan_deg - b.raan_deg).abs() < 1e-3);
        prop_assert!((a.eccentricity - b.eccentricity).abs() < 1e-6);
        prop_assert!((a.arg_perigee_deg - b.arg_perigee_deg).abs() < 1e-3);
        prop_assert!((a.mean_anomaly_deg - b.mean_anomaly_deg).abs() < 1e-3);
        prop_assert!((a.mean_motion_rev_per_day - b.mean_motion_rev_per_day).abs() < 1e-7);
        prop_assert!((a.epoch_day - b.epoch_day).abs() < 1e-7);
    }

    /// Corrupting any single digit of an emitted line is caught by the
    /// checksum (unless the corruption hits the checksum column itself and
    /// happens to restate the same digit — excluded by construction).
    #[test]
    fn checksum_catches_single_digit_corruption(
        elements in arb_elements(),
        pos in 2usize..68,
        bump in 1u8..9,
    ) {
        let tle = Tle { name: "X".into(), elements };
        let (_, l1, _) = tle.to_lines();
        let mut corrupted = l1.clone().into_bytes();
        if corrupted[pos].is_ascii_digit() {
            let d = corrupted[pos] - b'0';
            corrupted[pos] = b'0' + ((d + bump) % 10);
            let corrupted = String::from_utf8(corrupted).unwrap();
            prop_assert_ne!(checksum(&corrupted), checksum(&l1));
        }
    }

    /// The propagated orbit conserves its radius for near-circular
    /// elements: |r| stays within a tight band around the semi-major axis.
    #[test]
    fn propagation_conserves_radius(elements in arb_elements(), minutes in 0u32..600) {
        let prop = Propagator::new(&elements, 0.0);
        let a = prop.semi_major_axis_m();
        let pos = prop.position_at_secs(f64::from(minutes) * 60.0);
        let r = pos.magnitude();
        // e <= 0.01 bounds radial excursion to ~1% of a.
        prop_assert!((r - a).abs() / a < 0.011, "r {} vs a {}", r, a);
        // And it is a sane LEO radius.
        prop_assert!(r > RE_EARTH + 100_000.0);
        prop_assert!(r < RE_EARTH + 3_000_000.0);
    }

    /// Propagation is deterministic: same elements, same time, same
    /// position.
    #[test]
    fn propagation_deterministic(elements in arb_elements(), secs in 0.0f64..100_000.0) {
        let p1 = Propagator::new(&elements, 0.25);
        let p2 = Propagator::new(&elements, 0.25);
        let a = p1.position_at_secs(secs);
        let b = p2.position_at_secs(secs);
        prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
        prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
        prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
}

/// Elements with `|e| ≤ 0.1` at shell-1 (~550 km), Gen2 (340–570 km) and
/// ISS-like (~420 km) altitudes, any inclination.
fn arb_bounded_orbit() -> impl Strategy<Value = OrbitalElements> {
    (
        prop_oneof![15.0f64..15.12, 15.0f64..16.3, 15.45f64..15.55],
        0.0f64..180.0,
        0.0f64..360.0,
        -0.1f64..=0.1,
        0.0f64..360.0,
        0.0f64..360.0,
    )
        .prop_map(|(mm, inclination, raan, ecc, argp, ma)| OrbitalElements {
            catalog_number: 1,
            classification: 'U',
            intl_designator: "22001A".into(),
            epoch_year: 2022,
            epoch_day: 1.0,
            mean_motion_dot: 0.0,
            mean_motion_ddot: 0.0,
            bstar: 0.0,
            element_set: 1,
            inclination_deg: inclination,
            raan_deg: raan,
            eccentricity: ecc,
            arg_perigee_deg: argp,
            mean_anomaly_deg: ma,
            mean_motion_rev_per_day: mm,
            rev_number: 1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The Earth-fixed speed of `position_at_secs`, as a central
    /// difference over 2 ms, never exceeds `speed_bound_m_per_s`. A chord
    /// is no longer than the arc, so the difference is at most the largest
    /// speed along it; the tolerance covers the rounding of two positions.
    #[test]
    fn ecef_speed_stays_within_the_bound(
        elements in arb_bounded_orbit(),
        gmst0 in 0.0f64..std::f64::consts::TAU,
        t in 0.0f64..1_000_000.0,
    ) {
        let p = Propagator::new(&elements, gmst0);
        let bound = p.speed_bound_m_per_s();
        prop_assert!(bound.is_finite() && bound > 0.0, "{}", bound);
        let (t0, t1) = (t - 1e-3, t + 1e-3);
        let speed = p.position_at_secs(t1).distance(p.position_at_secs(t0)).as_f64() / (t1 - t0);
        prop_assert!(speed <= bound * (1.0 + 1e-9), "{} m/s against {}", speed, bound);
        // Not vacuous: at most the eccentric and rotation terms apart.
        prop_assert!(speed > 0.6 * bound, "{} m/s against {}", speed, bound);
    }
}

#[test]
fn no_speed_bound_is_claimed_for_an_open_or_frozen_orbit() {
    let mut elements = OrbitalElements {
        catalog_number: 25_544,
        classification: 'U',
        intl_designator: "98067A".into(),
        epoch_year: 2022,
        epoch_day: 1.0,
        mean_motion_dot: 0.0,
        mean_motion_ddot: 0.0,
        bstar: 0.0,
        element_set: 1,
        inclination_deg: 51.64,
        raan_deg: 100.0,
        eccentricity: 0.0001,
        arg_perigee_deg: 90.0,
        mean_anomaly_deg: 270.0,
        mean_motion_rev_per_day: 15.5,
        rev_number: 1,
    };
    assert!(Propagator::new(&elements, 0.0)
        .speed_bound_m_per_s()
        .is_finite());
    elements.eccentricity = 1.0;
    assert_eq!(
        Propagator::new(&elements, 0.0).speed_bound_m_per_s(),
        f64::INFINITY
    );
    elements.eccentricity = 0.0;
    elements.mean_motion_rev_per_day = 0.0;
    assert_eq!(
        Propagator::new(&elements, 0.0).speed_bound_m_per_s(),
        f64::INFINITY
    );
}

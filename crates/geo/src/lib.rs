//! # starlink-geo
//!
//! WGS-84 geodesy for the *starlink-browser-view* reproduction.
//!
//! The constellation model needs three geometric primitives, all provided
//! here:
//!
//! * coordinate conversion between geodetic (latitude/longitude/altitude)
//!   and Earth-centred Earth-fixed (ECEF) Cartesian frames
//!   ([`Geodetic`], [`Ecef`]);
//! * look angles — the elevation and azimuth of a satellite as seen from a
//!   ground station ([`LookAngles`], [`look::look_angles`], or
//!   [`ObserverFrame`] when one observer looks at many targets) — which decide
//!   visibility against Starlink's 25° minimum-elevation rule;
//! * surface and slant-range distances ([`coords::haversine_distance`],
//!   [`Ecef::distance`]) which, combined with
//!   [`starlink_simcore::Meters::radio_delay`], give propagation delays.
//!
//! The [`cities`] module carries the coordinates of every location the
//! paper's deployment touches (extension cities, volunteer nodes, cloud
//! regions).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cities;
pub mod coords;
pub mod look;

pub use cities::{City, CityInfo};
pub use coords::{haversine_distance, Ecef, EcefColumns, Geodetic};
pub use look::{look_angles, LookAngles, ObserverFrame};

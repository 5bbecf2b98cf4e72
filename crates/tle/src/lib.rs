//! # starlink-tle
//!
//! Two-Line Element (TLE) handling and orbit propagation for the
//! *starlink-browser-view* reproduction.
//!
//! The paper (Fig. 7) tracks the distance between a UK Starlink receiver
//! and the satellites overhead by propagating the public CelesTrak TLE
//! catalogue. This crate provides the same capability, offline:
//!
//! * [`Tle`] — a parsed two-line element set, with strict column-layout
//!   parsing, mod-10 checksum validation, and emission back to the exact
//!   text format ([`Tle::parse`], [`Tle::to_lines`]);
//! * [`propagate::Propagator`] — a Keplerian propagator with secular J2
//!   corrections (RAAN/argument-of-perigee drift), solving Kepler's
//!   equation per step and rotating into the Earth-fixed frame;
//!   [`propagate::BatchPropagator`] runs the same kernel over a whole
//!   constellation, sharing what the instant and the plane fix. For
//!   near-circular 550 km orbits over the minutes-to-hours horizons the
//!   experiments need, this tracks full SGP4 to within a few kilometres —
//!   far below the ~1100 km visibility threshold that drives handover
//!   dynamics;
//! * [`synthetic`] — a Walker-delta generator for Starlink shell-1
//!   (72 planes × 22 satellites, 53°, 550 km per the FCC filings the paper
//!   cites), used because live CelesTrak data is network-gated
//!   (substitution documented in DESIGN.md §4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elements;
pub mod parse;
pub mod propagate;
pub mod synthetic;

pub use elements::{OrbitalElements, Tle};
pub use parse::TleError;
pub use propagate::{BatchPropagator, Propagator};
pub use synthetic::{starlink_shell1, ShellConfig};

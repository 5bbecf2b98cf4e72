//! # starlink-core
//!
//! The primary library of the *starlink-browser-view* reproduction of
//! “A Browser-side View of Starlink Connectivity” (IMC ’22): it wires the
//! substrate crates — constellation, channel, packet network, transport,
//! web/telemetry pipeline, measurement tools — into the paper's two
//! measurement settings, and exposes **one module per table and figure**
//! under [`experiments`].
//!
//! ## The two measurement settings
//!
//! * [`world::NodeWorld`] — a volunteer measurement node (§3.2): a host
//!   behind a Starlink dish whose access link is driven by the live
//!   constellation (bent-pipe propagation from the serving satellite,
//!   handover loss bursts, diurnal cell load, weather) with a path to its
//!   closest cloud region. Used by Table 2, Figs. 6–8.
//! * `world::Fig5World` — the three-access-technology comparison
//!   vantage in London (Starlink / broadband / cellular) tracerouting to
//!   an N. Virginia VM. Used by Fig. 5.
//! * [`starlink_telemetry::Campaign`] — the browser-extension deployment
//!   (§3.1). Used by Table 1, Table 3, Figs. 1, 3, 4.
//!
//! ## Quick start
//!
//! ```no_run
//! use starlink_core::experiments::table1;
//!
//! let result = table1::run(&table1::Config::default());
//! println!("{}", result.render());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dishy;
pub mod dynamics;
pub mod experiments;
pub mod world;

pub use dishy::DishyStatus;
pub use dynamics::StarlinkLinkDynamics;
pub use world::{NodeWorld, NodeWorldConfig};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use starlink_analysis as analysis;
pub use starlink_channel as channel;
pub use starlink_constellation as constellation;
pub use starlink_faults as faults;
pub use starlink_geo as geo;
pub use starlink_netsim as netsim;
pub use starlink_obsv as obsv;
pub use starlink_simcore as simcore;
pub use starlink_telemetry as telemetry;
pub use starlink_tle as tle;
pub use starlink_tools as tools;
pub use starlink_transport as transport;
pub use starlink_web as web;

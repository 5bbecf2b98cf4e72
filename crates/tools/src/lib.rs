//! # starlink-tools
//!
//! The measurement toolbox the paper deploys on its volunteer Raspberry
//! Pis (§3.2), re-implemented against the packet simulator:
//!
//! * [`traceroute`](mod@traceroute) — per-TTL probing with ICMP Time-Exceeded semantics,
//!   the instrument behind Fig. 5's hop-by-hop RTT comparison;
//! * [`mtr`](mod@mtr) — repeated traceroute rounds with per-hop aggregation;
//! * `maxmin` — the Chan et al. max–min queueing-delay estimator the
//!   paper adapts for Table 2 ("taking the difference between the maximum
//!   and minimum observed latencies … eliminates the propagation delay");
//! * [`iperf`] — TCP and UDP throughput tests with per-interval loss
//!   reporting (Figs. 6 and 8);
//! * [`ping`](mod@ping) — fixed-interval echo RTTs (the Dishy's "pop ping" stat);
//! * [`speedtest`](mod@speedtest) — the Libretest-style DL/UL pair run from the nodes;
//! * [`cron`] — the 5-minute / 30-minute schedules the RPis ran on.
//!
//! Every tool is hardened for hostile conditions: probing tools take a
//! bounded retry budget with exponential backoff in *virtual* time, every
//! run finishes within its options' `virtual_time_budget()`, and every
//! report carries a [`ToolOutcome`] saying whether the numbers are clean
//! (`Complete`), partial (`Degraded`) or unusable (`Failed`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cron;
pub mod iperf;
mod maxmin;
pub mod mtr;
pub mod outcome;
pub mod ping;
pub mod speedtest;
pub mod traceroute;

pub use cron::Cron;
pub use iperf::{iperf_tcp, iperf_udp, IperfTcpReport, IperfUdpReport};
pub use maxmin::QueueingEstimate;
pub use mtr::{mtr, MtrReport};
pub use outcome::ToolOutcome;
pub use ping::{ping, PingOptions, PingReport};
pub use speedtest::{speedtest, SpeedtestResult};
pub use traceroute::{traceroute, HopResult, TracerouteOptions, TracerouteResult};

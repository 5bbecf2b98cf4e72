//! # starlink-simcore
//!
//! Deterministic discrete-event simulation core for the
//! *starlink-browser-view* reproduction of “A Browser-side View of Starlink
//! Connectivity” (IMC ’22).
//!
//! Everything above this crate — the constellation, the channel model, the
//! packet-level network, the browser-telemetry pipeline — is driven by the
//! primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock.
//!   The simulation never consults the wall clock; all timestamps are
//!   simulated.
//! * [`EventQueue`] — a hierarchical timing-wheel event queue with **stable
//!   tie-breaking** (events scheduled for the same instant fire in
//!   scheduling order), which is what makes runs reproducible. Its
//!   `(time, seq)` binary-heap reference model lives in
//!   `tests/queue_differential.rs`, which drives the two in lockstep.
//! * [`SimRng`] — a seedable, splittable pseudo-random generator
//!   (xoshiro256++) with labelled sub-streams so that adding randomness to
//!   one component never perturbs another.
//! * [`dist::Dist`] — the distribution toolbox (uniform, normal, lognormal,
//!   exponential, Pareto, …) used by the workload and channel models.
//! * [`units`] — newtypes for bytes, data rates and distances that make
//!   unit bugs (bits vs. bytes, ms vs. ns) type errors instead of silent
//!   corruption.
//! * [`StreamingDigest`] — a stable 64-bit streaming hash that folds an
//!   event history into a fingerprint, so twin runs can be compared for
//!   byte-identical behaviour without storing the trace.
//!
//! ## Design notes
//!
//! The engine is intentionally single-threaded and synchronous, in the
//! spirit of event-driven stacks such as smoltcp: a simulator gains nothing
//! from an async runtime, and determinism is the property every experiment
//! in the paper reproduction depends on. The same seed must always produce
//! byte-identical results.
//!
//! ## Quick example
//!
//! ```
//! use starlink_simcore::{EventQueue, SimDuration, SimTime, SimRng};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "first");
//!
//! let mut order = Vec::new();
//! while let Some(ev) = queue.pop() {
//!     order.push(ev.payload);
//! }
//! assert_eq!(order, vec!["first", "second"]);
//!
//! let mut rng = SimRng::seed_from(42);
//! let a = rng.next_u64();
//! let b = SimRng::seed_from(42).next_u64();
//! assert_eq!(a, b); // fully deterministic
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod digest;
pub mod dist;
pub mod event;
pub mod rng;
pub mod time;
pub mod units;

pub use digest::StreamingDigest;
pub use dist::Dist;
pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, DataRate, Meters};

//! Deterministic observability: sim-time trace events + a metrics registry.
//!
//! This crate is the one instrumentation layer shared by the simulation
//! substrate (simcore event loop, netsim links, transport TCP, channel
//! models) and the measurement stack (tools, telemetry, the repro
//! harness). It replaces the ad-hoc debug paths that accumulated per
//! crate — a raw `eprintln!` RTO dump, process-wide atomic cache stats, a
//! bespoke netsim event trace — with two facilities:
//!
//! * **Tracing** — structured [`TraceEvent`]s delivered to a per-thread
//!   [`TraceSink`]. Emission sites call [`emit`] with a *closure*, so when
//!   tracing is off the cost is a single thread-local boolean check and
//!   the event is never constructed ("zero-cost-when-disabled").
//! * **Metrics** — a per-thread [`MetricsRegistry`] of counters, gauges,
//!   and log-bucketed histograms, updated through [`counter_add`],
//!   [`gauge_set`]/[`gauge_max`], and [`histogram_record`] with the same one-branch
//!   fast path.
//!
//! # Determinism rules
//!
//! 1. Every timestamp is **simulation time** (`SimTime::as_nanos()`),
//!    never wall clock. This crate deliberately has no dependency that
//!    could smuggle in a clock.
//! 2. Trace paths must not consume randomness: emitting an event may not
//!    advance any RNG, or enabling tracing would change the simulation.
//! 3. Sinks and registries are **thread-local**. Parallel harness workers
//!    each observe exactly the artefacts they ran, so `--jobs N` output
//!    reassembled in artefact order is byte-identical to `--jobs 1`.
//! 4. Rendering is integer-only with fixed key order (see
//!    `TraceEvent::write_json` and [`MetricsRegistry::to_json`]).
//!
//! The crate is dependency-free so every other crate — including
//! `starlink-simcore` itself — can emit through it without cycles.

#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;

pub use event::{CcPhase, DropReason, ShedReason, StorageShedReason, TcpPhase, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{CollectorSink, RingSink, TraceSink};

use std::cell::{Cell, RefCell};

thread_local! {
    /// Fast-path flag: checked before anything else on every emission site.
    static TRACE_ON: Cell<bool> = const { Cell::new(false) };
    static TRACE_SINK: RefCell<Option<Box<dyn TraceSink>>> = const { RefCell::new(None) };
    static METRICS_ON: Cell<bool> = const { Cell::new(false) };
    static METRICS: RefCell<Option<MetricsRegistry>> = const { RefCell::new(None) };
}

/// Whether a trace sink is installed on this thread.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.with(|c| c.get())
}

/// Installs `sink` as this thread's trace sink, replacing (and returning)
/// any previous one. Tracing is enabled until [`take_trace`].
pub fn install_trace(sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
    let prev = TRACE_SINK.with(|s| s.borrow_mut().replace(sink));
    TRACE_ON.with(|c| c.set(true));
    prev
}

/// Removes and returns this thread's trace sink, disabling tracing.
pub fn take_trace() -> Option<Box<dyn TraceSink>> {
    TRACE_ON.with(|c| c.set(false));
    TRACE_SINK.with(|s| s.borrow_mut().take())
}

/// Records an already-constructed event into the installed sink, if any.
///
/// Prefer [`emit`] at instrumentation sites — it defers construction.
/// `record` exists for dispatchers (like netsim's `Network`) that build
/// the event once and feed several consumers.
#[inline]
pub fn record(event: &TraceEvent) {
    if !trace_enabled() {
        return;
    }
    TRACE_SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.record(event);
        }
    });
}

/// Emits a trace event, constructing it only if tracing is enabled.
///
/// ```
/// starlink_obsv::emit(|| starlink_obsv::TraceEvent::ChannelClear { t_ns: 0 });
/// ```
#[inline]
pub fn emit(make: impl FnOnce() -> TraceEvent) {
    if !trace_enabled() {
        return;
    }
    record(&make());
}

/// Whether a metrics registry is installed on this thread.
#[inline]
fn metrics_enabled() -> bool {
    METRICS_ON.with(|c| c.get())
}

/// Installs a fresh, empty registry on this thread, replacing (and
/// returning) any previous one. Metrics are collected until
/// [`metrics_take`].
pub fn metrics_begin() -> Option<MetricsRegistry> {
    let prev = METRICS.with(|m| m.borrow_mut().replace(MetricsRegistry::new()));
    METRICS_ON.with(|c| c.set(true));
    prev
}

/// Removes and returns this thread's registry, disabling metrics.
pub fn metrics_take() -> Option<MetricsRegistry> {
    METRICS_ON.with(|c| c.set(false));
    METRICS.with(|m| m.borrow_mut().take())
}

/// Adds `delta` to a counter in the installed registry, if any.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow_mut().as_mut() {
            reg.counter_add(name, delta);
        }
    });
}

/// Sets a gauge in the installed registry, if any.
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    if !metrics_enabled() {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow_mut().as_mut() {
            reg.gauge_set(name, value);
        }
    });
}

/// Raises a gauge in the installed registry to `value` if that is higher
/// than what it holds (or it is unset): a high-watermark that several
/// instances of one structure report into keeps the run's peak, not the
/// last instance's.
#[inline]
pub fn gauge_max(name: &str, value: i64) {
    if !metrics_enabled() {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow_mut().as_mut() {
            if reg.gauge(name).is_none_or(|g| g < value) {
                reg.gauge_set(name, value);
            }
        }
    });
}

/// Records a histogram sample in the installed registry, if any.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow_mut().as_mut() {
            reg.histogram_record(name, value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_is_inert_without_a_sink() {
        assert!(!trace_enabled());
        let mut constructed = false;
        emit(|| {
            constructed = true;
            TraceEvent::ChannelClear { t_ns: 0 }
        });
        assert!(!constructed, "closure must not run when tracing is off");
    }

    #[test]
    fn install_capture_take_round_trip() {
        let (sink, shared) = CollectorSink::pair();
        assert!(install_trace(Box::new(sink)).is_none());
        assert!(trace_enabled());
        emit(|| TraceEvent::ChannelClear { t_ns: 42 });
        let mut taken = take_trace().expect("sink was installed");
        assert!(!trace_enabled());
        emit(|| TraceEvent::ChannelClear { t_ns: 43 }); // goes nowhere
        assert_eq!(shared.borrow().len(), 1);
        assert_eq!(shared.borrow()[0].digest_parts().1, 42);
        let jsonl = taken.drain_jsonl().unwrap();
        assert_eq!(jsonl, "{\"t\":42,\"ev\":\"channel_clear\"}\n");
    }

    #[test]
    fn metrics_round_trip_and_isolation() {
        assert!(!metrics_enabled());
        counter_add("ignored", 1); // no registry: dropped
        metrics_begin();
        counter_add("kept", 2);
        histogram_record("h", 5);
        gauge_set("g", -1);
        let reg = metrics_take().expect("registry was installed");
        assert!(!metrics_enabled());
        assert_eq!(reg.counter("kept"), 2);
        assert_eq!(reg.counter("ignored"), 0);
        assert_eq!(reg.histogram("h").unwrap().count(), 1);
        assert_eq!(reg.gauge("g"), Some(-1));
        assert!(metrics_take().is_none());
    }

    #[test]
    fn gauge_max_keeps_the_peak() {
        metrics_begin();
        gauge_max("peak", 5);
        gauge_max("peak", 2);
        gauge_max("low", -3);
        let reg = metrics_take().expect("registry was installed");
        assert_eq!(reg.gauge("peak"), Some(5));
        assert_eq!(reg.gauge("low"), Some(-3), "an unset gauge takes any value");
    }

    #[test]
    fn sinks_are_thread_local() {
        let (sink, shared) = CollectorSink::pair();
        install_trace(Box::new(sink));
        let handle = std::thread::spawn(|| {
            // The spawned thread has no sink: emission is inert there.
            assert!(!trace_enabled());
            emit(|| TraceEvent::ChannelClear { t_ns: 99 });
        });
        handle.join().unwrap();
        emit(|| TraceEvent::ChannelClear { t_ns: 1 });
        take_trace();
        let events = shared.borrow();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].digest_parts().1, 1);
    }
}

//! End-to-end determinism of the observability layer.
//!
//! Two properties anchor the `--trace` / `--metrics` harness artefacts:
//!
//! 1. **Byte identity** — running the same seeded scenario twice with a
//!    trace sink installed produces byte-identical JSONL and metrics
//!    JSON (every timestamp is sim-time; nothing consults the host).
//! 2. **Conservation** — the per-link event counts in the trace agree
//!    with netsim's own `LinkStats` conservation counters: enqueues
//!    match accepted packets, deliveries match arrivals, drops match
//!    the sum of the loss/overflow/fault/corruption counters, and at
//!    quiescence every enqueued packet was delivered.
//!
//! Tracing must also be *invisible*: the traced run's digest equals an
//! untraced run's digest, proving emission consumes no randomness.

use starlink_core::obsv::{self, MetricsRegistry, TraceEvent};
use starlink_core::telemetry::{
    AdmissionConfig, CampaignConfig, CampaignLedger, Collection, IngestOptions, ResilientCampaign,
    ScaleConfig, ScaledCampaign,
};
use starlink_simtest::{gen, run, RunOptions, RunReport};
use std::collections::BTreeMap;

/// Runs one generated scenario with a JSONL ring sink and a metrics
/// registry installed; telemetry is disabled to keep the run on the
/// packet network the invariants below reason about.
fn run_traced_jsonl(seed: u64) -> (String, MetricsRegistry, RunReport) {
    let mut scenario = gen::generate(seed);
    scenario.telemetry = None;
    assert!(
        obsv::install_trace(Box::new(obsv::RingSink::new(1 << 20))).is_none(),
        "a previous test leaked a sink"
    );
    assert!(obsv::metrics_begin().is_none());
    let report = run(&scenario, &RunOptions::default());
    let mut sink = obsv::take_trace().expect("installed above");
    let registry = obsv::metrics_take().expect("installed above");
    assert_eq!(sink.dropped_events(), 0, "ring too small for the scenario");
    let jsonl = sink.drain_jsonl().unwrap_or_default();
    (jsonl, registry, report)
}

#[test]
fn twin_traced_runs_are_byte_identical() {
    let (trace_a, reg_a, report_a) = run_traced_jsonl(23);
    let (trace_b, reg_b, report_b) = run_traced_jsonl(23);
    assert!(!trace_a.is_empty(), "scenario produced no events");
    assert_eq!(trace_a, trace_b, "trace JSONL diverged between twin runs");
    assert_eq!(
        reg_a.to_json(0),
        reg_b.to_json(0),
        "metrics diverged between twin runs"
    );
    assert_eq!(report_a, report_b);

    // The event-queue counters are part of the twin-identical registry:
    // every pop is counted, and the high-watermark gauge saw a real peak.
    // These pin the scheduler's behaviour, not just the packet layer's —
    // a queue backend that popped a different number of events (or held a
    // different backlog) would diverge here before anything else.
    assert!(
        reg_a.counter("simcore.events_popped") > 0,
        "no events popped?"
    );
    assert_eq!(
        reg_a.counter("simcore.events_popped"),
        reg_b.counter("simcore.events_popped"),
        "pop counts diverged between twin runs"
    );
    assert_eq!(
        reg_a.counter("simcore.events_scheduled"),
        reg_b.counter("simcore.events_scheduled"),
        "schedule counts diverged between twin runs"
    );
    let watermark_a = reg_a
        .gauge("simcore.queue_high_watermark")
        .expect("high-watermark gauge missing");
    assert!(watermark_a > 0, "queue never held an event?");
    assert_eq!(
        Some(watermark_a),
        reg_b.gauge("simcore.queue_high_watermark"),
        "queue high-watermark diverged between twin runs"
    );

    // Tracing is an observer: the digest of an untraced run matches.
    let mut scenario = gen::generate(23);
    scenario.telemetry = None;
    let untraced = run(&scenario, &RunOptions::default());
    assert_eq!(
        untraced.digest, report_a.digest,
        "enabling tracing changed the simulation"
    );
}

/// Runs an overloaded-admission ingestion campaign with a JSONL ring
/// sink and metrics installed, returning the artefacts and the result.
fn run_traced_service_campaign() -> (String, MetricsRegistry, Collection) {
    assert!(
        obsv::install_trace(Box::new(obsv::RingSink::new(1 << 21))).is_none(),
        "a previous test leaked a sink"
    );
    assert!(obsv::metrics_begin().is_none());
    let collection = service_campaign().run_to_end();
    let mut sink = obsv::take_trace().expect("installed above");
    let registry = obsv::metrics_take().expect("installed above");
    assert_eq!(sink.dropped_events(), 0, "ring too small for the campaign");
    (sink.drain_jsonl().unwrap_or_default(), registry, collection)
}

fn service_campaign() -> ResilientCampaign {
    let config = CampaignConfig {
        seed: 61,
        days: 10,
        ..CampaignConfig::default()
    };
    let mut options = IngestOptions::fault_storm(28, 10);
    options.admission = AdmissionConfig::overloaded();
    ResilientCampaign::new(config, options)
}

#[test]
fn twin_traced_service_campaigns_are_byte_identical() {
    let (trace_a, reg_a, coll_a) = run_traced_service_campaign();
    let (trace_b, reg_b, coll_b) = run_traced_service_campaign();
    assert!(!trace_a.is_empty(), "campaign produced no events");
    assert_eq!(trace_a, trace_b, "trace JSONL diverged between twin runs");
    assert_eq!(
        reg_a.to_json(0),
        reg_b.to_json(0),
        "metrics diverged between twin runs"
    );
    assert_eq!(coll_a.dataset.digest(), coll_b.dataset.digest());

    // The admission layer showed up in the trace: accepts, typed sheds,
    // and queue-depth samples all present.
    for needle in [
        "\"ev\":\"admission_accept\"",
        "\"ev\":\"admission_shed\"",
        "\"ev\":\"server_queue\"",
    ] {
        assert!(trace_a.contains(needle), "trace is missing {needle}");
    }
    // And the shed metrics agree with the campaign's own ledger.
    let shed_metric: u64 = starlink_core::obsv::ShedReason::ALL
        .iter()
        .map(|r| reg_a.counter(r.metric()))
        .sum();
    assert!(shed_metric > 0, "overloaded campaign never shed");

    // Tracing is an observer: an untraced run collects the same bytes.
    let untraced = service_campaign().run_to_end();
    assert_eq!(
        untraced.dataset.digest(),
        coll_a.dataset.digest(),
        "enabling tracing changed the campaign"
    );
    assert_eq!(untraced.coverage.total(), coll_a.coverage.total());
}

/// Runs the population-scale sharded campaign at `jobs` workers with a
/// JSONL ring sink and metrics installed, returning the artefacts plus
/// the merged ledger and dataset digest.
fn run_traced_scaled_campaign(jobs: usize) -> (String, MetricsRegistry, CampaignLedger, u64) {
    assert!(
        obsv::install_trace(Box::new(obsv::RingSink::new(1 << 20))).is_none(),
        "a previous test leaked a sink"
    );
    assert!(obsv::metrics_begin().is_none());
    let mut campaign = ScaledCampaign::new(ScaleConfig {
        seed: 91,
        users: 5_000,
        cities: 40,
        days: 2,
        pages_per_day_milli: 8_000,
    });
    campaign.run_to_end(jobs);
    let mut sink = obsv::take_trace().expect("installed above");
    let registry = obsv::metrics_take().expect("installed above");
    assert_eq!(sink.dropped_events(), 0, "ring too small for the campaign");
    (
        sink.drain_jsonl().unwrap_or_default(),
        registry,
        campaign.ledger().clone(),
        campaign.dataset_digest(),
    )
}

#[test]
fn sharded_campaign_artefacts_are_byte_identical_across_worker_counts() {
    // The tentpole determinism claim, end to end through the obsv layer:
    // a 1-worker and a 4-worker run of the same scaled campaign produce
    // byte-identical trace JSONL and metrics JSON — all shard-level
    // observability is emitted post-merge from jobs-invariant totals —
    // and the merged ledgers and digests are equal too.
    let (trace_1, reg_1, ledger_1, digest_1) = run_traced_scaled_campaign(1);
    let (trace_4, reg_4, ledger_4, digest_4) = run_traced_scaled_campaign(4);
    assert!(!trace_1.is_empty(), "campaign produced no events");
    assert_eq!(trace_1, trace_4, "trace JSONL diverged across --jobs");
    assert_eq!(
        reg_1.to_json(0),
        reg_4.to_json(0),
        "metrics diverged across --jobs"
    );
    assert_eq!(ledger_1, ledger_4, "merged ledgers diverged across --jobs");
    assert_eq!(digest_1, digest_4, "dataset digests diverged across --jobs");
    assert!(ledger_1.sums_hold(), "coverage invariant broke");

    // The merge shows up in the trace and the counters: one merged-day
    // event per day, and the shard counters carry the merged totals.
    assert!(
        trace_1.contains("\"ev\":\"campaign_day\""),
        "trace is missing the merged-day event"
    );
    assert_eq!(reg_1.counter("campaign.shard.days"), 2);
    assert_eq!(
        reg_1.counter("campaign.shard.generated"),
        ledger_1.totals().generated
    );
    assert!(reg_1.counter("campaign.shard.generated") > 0);
}

#[test]
fn per_link_trace_counts_match_conservation_counters() {
    let mut scenario = gen::generate(7);
    scenario.telemetry = None;
    // The flow-mix fairness sub-run builds its own network whose link ids
    // collide with the main scenario's; this test accounts the main
    // network's links only, so drop the dimension like telemetry above.
    scenario.flow_mix = None;
    let (sink, shared) = obsv::CollectorSink::pair();
    assert!(obsv::install_trace(Box::new(sink)).is_none());
    assert!(obsv::metrics_begin().is_none());
    let report = run(&scenario, &RunOptions::default());
    obsv::take_trace();
    let registry = obsv::metrics_take().expect("installed above");

    let mut enq: BTreeMap<u64, u64> = BTreeMap::new();
    let mut del: BTreeMap<u64, u64> = BTreeMap::new();
    let mut dropped: BTreeMap<u64, u64> = BTreeMap::new();
    for event in shared.borrow().iter() {
        match *event {
            TraceEvent::LinkEnqueue { link, .. } => *enq.entry(link).or_default() += 1,
            TraceEvent::LinkDeliver { link, .. } => *del.entry(link).or_default() += 1,
            TraceEvent::LinkDrop { link, .. } => *dropped.entry(link).or_default() += 1,
            _ => {}
        }
    }

    assert!(report.queue_drained);
    for (i, link) in report.links.iter().enumerate() {
        let i = i as u64;
        let enq = enq.get(&i).copied().unwrap_or(0);
        let del = del.get(&i).copied().unwrap_or(0);
        let dropped = dropped.get(&i).copied().unwrap_or(0);
        assert_eq!(enq, link.transmitted, "link {i}: enqueue events");
        assert_eq!(del, link.delivered, "link {i}: deliver events");
        assert_eq!(
            dropped,
            link.lost + link.overflowed + link.faulted + link.corrupted,
            "link {i}: drop events"
        );
        // Drops happen at offer time, before a packet is enqueued, so at
        // quiescence every enqueued packet must have been delivered.
        assert_eq!(enq, del, "link {i}: enqueued == delivered at quiescence");
    }

    // The aggregate metrics counters tell the same story.
    let transmitted: u64 = report.links.iter().map(|l| l.transmitted).sum();
    let delivered: u64 = report.links.iter().map(|l| l.delivered).sum();
    let drops: u64 = report
        .links
        .iter()
        .map(|l| l.lost + l.overflowed + l.faulted + l.corrupted)
        .sum();
    assert_eq!(registry.counter("netsim.link.enqueued"), transmitted);
    assert_eq!(registry.counter("netsim.link.delivered"), delivered);
    let metric_drops: u64 = ["fault", "corrupt", "loss", "overflow", "zero_rate"]
        .iter()
        .map(|r| registry.counter(&format!("netsim.link.dropped.{r}")))
        .sum();
    assert_eq!(metric_drops, drops);
}

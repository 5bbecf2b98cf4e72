//! The scenario runner: builds the network a [`Scenario`] describes,
//! attaches workloads, applies the fault script, runs to the horizon,
//! drains to quiescence, and returns a [`RunReport`] snapshot for the
//! oracles.
//!
//! Determinism contract: everything the runner does is a pure function of
//! the scenario (plus [`RunOptions`]) — node and link indices follow the
//! construction order below, timers and connection ids are derived from
//! client indices, and no wall-clock or host state is consulted. Running
//! the same scenario twice must produce byte-identical [`RunReport`]s;
//! the twin-run oracle enforces exactly that.

use crate::fairness::{run_fairness, FairnessReport};
use crate::scenario::{
    FaultSpec, PopulationSpec, Scenario, StorageFaultSpec, TelemetrySpec, Workload,
};
use starlink_channel::WeatherCondition;
use starlink_faults::{FaultPlan, LinkRef};
use starlink_netsim::{
    Ctx, Handler, LinkConfig, LinkStats, Network, NetworkStats, NodeId, NodeKind, NodeStats,
    Packet, Payload,
};
use starlink_simcore::{Bytes, DataRate, SimDuration, SimTime};
use starlink_telemetry::{
    CampaignConfig, CheckpointStore, Collection, FaultyDisk, IngestOptions, ResilientCampaign,
    ScaledCampaign, SimDisk, StorageError,
};
use starlink_transport::tcp::TcpConfig;
use starlink_transport::{CcAlgorithm, TcpReceiver, TcpSender, UdpBlaster, UdpSink};
use std::cell::RefCell;
use std::rc::Rc;

/// Runner knobs that are not part of the scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Test-only conservation-bug injection: when non-zero, every N-th
    /// link arrival skips its `delivered` increment (see
    /// `Network::debug_skip_link_delivered_every`). The oracles must
    /// catch this; it exists to prove they can.
    pub inject_bug_every: u64,
    /// Test-only shed-accounting-bug injection for telemetry
    /// sub-campaigns: every N-th shed-terminal batch skips its coverage
    /// increment (see
    /// `ResilientCampaign::debug_skip_shed_accounting_every`). The
    /// coverage oracle must catch this; it exists to prove it can.
    pub inject_shed_miscount_every: u64,
    /// Test-only manifest-miscount injection for storage-mode telemetry
    /// sub-campaigns: every N-th manifest seal silently undercounts the
    /// chain's `written` counter (see
    /// `CheckpointStore::debug_manifest_miscount_every`). The storage
    /// conservation oracle must catch this; it exists to prove it can
    /// (`swarm --inject-manifest-bug`).
    pub inject_manifest_miscount_every: u64,
    /// Test-only shard-bug injection for population-scale sub-campaigns:
    /// every N-th local user of shard 1 has its batches dropped after
    /// generation (see `ScaledCampaign::debug_drop_user_in_shard_every`).
    /// Invisible unsharded, it breaks both merged-ledger conservation and
    /// the sharded-vs-reference digest; the sharding oracles must catch
    /// it (`swarm --inject-shard-bug`).
    pub inject_shard_bug_every: u64,
    /// Test-only unfair-flow injection for fairness sub-runs: every N-th
    /// BBRv2 flow in the mix stops honouring its loss-rate ceiling (see
    /// `CongestionControl::debug_ignore_loss_ceiling`), becoming the
    /// bully the retransmit-rate fairness oracle must catch
    /// (`swarm --inject-unfair-bug`).
    pub inject_unfair_bug_every: u64,
}

/// Ground truth for one TCP flow, snapshotted after quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowReport {
    /// The client the flow belongs to.
    pub client: usize,
    /// Congestion-control algorithm.
    pub algo: CcAlgorithm,
    /// Segment size, bytes.
    pub mss: u64,
    /// Bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Smallest congestion window ever observed.
    pub min_cwnd_seen: Option<u64>,
    /// Final slow-start threshold (`None` for BBR).
    pub last_ssthresh: Option<u64>,
    /// RTT samples taken.
    pub rtt_samples: u64,
    /// Non-positive RTT samples (must stay zero).
    pub zero_rtt_samples: u64,
    /// RTO episodes.
    pub rto_count: u64,
}

/// Ground truth for the checkpoint chain a storage-mode sub-campaign
/// drove through injected disk faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Generations durably sealed (per the final manifest counters).
    pub written: u64,
    /// Generations live on disk at the end.
    pub live: u64,
    /// Generations removed by retention pruning.
    pub pruned: u64,
    /// Generations quarantined by recovery walks.
    pub quarantined: u64,
    /// Checkpoint attempts shed without killing the campaign.
    pub shed: u64,
    /// Injected power losses survived (store or recovery).
    pub crashes: u64,
    /// Restarts that recovered and resumed from a generation.
    pub recoveries: u64,
    /// `written == live + pruned + quarantined` held after every seal
    /// and at the end.
    pub conservation_held: bool,
    /// Every blob recovery adopted was byte-identical to a checkpoint
    /// the campaign actually produced.
    pub recovered_in_ledger: bool,
    /// The crashed-and-recovered run's final dataset digest equals the
    /// uninterrupted reference run's.
    pub digest_matches: bool,
}

/// Ground truth for the population-scale sharded sub-campaign: the
/// sharded run's merged ledger, compared against an unsharded reference
/// run of the same configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationReport {
    /// `delivered + quarantined + shed + lost == generated` held per
    /// user over the merged struct-of-arrays ledger.
    pub sums_hold: bool,
    /// The sharded run's dataset digest equals the unsharded reference.
    pub digest_matches: bool,
    /// Unsharded reference digest.
    pub reference_digest: u64,
    /// Merged sharded-run digest.
    pub sharded_digest: u64,
    /// Records generated by the sharded run.
    pub generated: u64,
    /// delivered + quarantined + shed + lost in the merged ledger.
    pub accounted: u64,
    /// Worker count the sharded run used.
    pub shards: u64,
}

/// Ground truth for the telemetry sub-campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryReport {
    /// `delivered + quarantined + shed + lost == generated` per user.
    pub sums_hold: bool,
    /// Records generated.
    pub generated: u64,
    /// Records delivered.
    pub delivered: u64,
    /// Records quarantined.
    pub quarantined: u64,
    /// Records shed by collector-service admission control.
    pub shed: u64,
    /// Records lost.
    pub lost: u64,
    /// Checkpoint-chain accounting, when the spec persists to disk.
    pub storage: Option<StorageReport>,
    /// Sharded population-scale accounting, when the spec scales out.
    pub population: Option<PopulationReport>,
}

/// Everything the oracles inspect about one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Streaming digest over the full event trace.
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
    /// Virtual-clock regressions observed by the trace (must be zero).
    pub clock_regressions: u64,
    /// Same-link arrival-order violations (must be zero).
    pub fifo_violations: u64,
    /// Whether the event queue fully drained after handler detach.
    pub queue_drained: bool,
    /// Per-link counters, in construction order.
    pub links: Vec<LinkStats>,
    /// Per-node arrival accounting, in construction order.
    pub nodes: Vec<NodeStats>,
    /// Network-wide counters.
    pub network: NetworkStats,
    /// Per-TCP-flow ground truth.
    pub flows: Vec<FlowReport>,
    /// Echo replies received across all ping workloads.
    pub ping_replies: u64,
    /// Telemetry sub-campaign accounting, when the scenario has one.
    pub telemetry: Option<TelemetryReport>,
    /// Mixed-CC coexistence accounting, when the scenario carries a
    /// [`crate::fairness::FlowMixSpec`].
    pub fairness: Option<FairnessReport>,
}

/// Node/link indices of the topology the runner builds, in construction
/// order. Exposed so faults (and tests) can address links symbolically.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Backbone routers, chained r0 — r1 — … .
    pub routers: Vec<NodeId>,
    /// Client hosts, one per [`Scenario::clients`] entry.
    pub clients: Vec<NodeId>,
    /// Server hosts, one per client, behind the last router.
    pub servers: Vec<NodeId>,
    /// Backbone hop links as `(forward, reverse)` indices.
    pub backbone: Vec<(usize, usize)>,
    /// Client → r0 access links.
    pub access_up: Vec<usize>,
    /// r0 → client access links.
    pub access_down: Vec<usize>,
}

/// Builds the network and topology for `scenario` (no workloads yet).
pub fn build_topology(scenario: &Scenario, net: &mut Network) -> Topology {
    let routers: Vec<NodeId> = (0..scenario.routers)
        .map(|i| net.add_node(&format!("r{i}"), NodeKind::Router))
        .collect();
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for i in 0..scenario.clients.len() {
        clients.push(net.add_node(&format!("c{i}"), NodeKind::Host));
        servers.push(net.add_node(&format!("s{i}"), NodeKind::Host));
    }

    // Backbone: generous fixed links between adjacent routers.
    let backbone_link =
        || LinkConfig::fixed(SimDuration::from_millis(2), DataRate::from_gbps(1), 0.0);
    let backbone: Vec<(usize, usize)> = routers
        .windows(2)
        .map(|pair| {
            let fwd = net.connect(pair[0], pair[1], backbone_link());
            let rev = net.connect(pair[1], pair[0], backbone_link());
            (fwd, rev)
        })
        .collect();

    let first = routers[0];
    let last = *routers.last().expect("validated: at least one router");
    let mut access_up = Vec::new();
    let mut access_down = Vec::new();
    for (i, spec) in scenario.clients.iter().enumerate() {
        access_up.push(net.connect(clients[i], first, spec.up.config()));
        access_down.push(net.connect(first, clients[i], spec.down.config()));
        net.connect(last, servers[i], LinkConfig::ethernet());
        net.connect(servers[i], last, LinkConfig::ethernet());

        let mut path = vec![clients[i]];
        path.extend(&routers);
        path.push(servers[i]);
        net.route_linear(&path);
    }

    Topology {
        routers,
        clients,
        servers,
        backbone,
        access_up,
        access_down,
    }
}

/// Compiles the scenario's fault script against the built topology.
pub fn fault_plan(scenario: &Scenario, topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for fault in &scenario.faults {
        match *fault {
            FaultSpec::AccessFlap {
                client,
                up,
                start_ms,
                end_ms,
                period_ms,
                down_ppm,
            } => {
                let link = if up {
                    topo.access_up[client]
                } else {
                    topo.access_down[client]
                };
                plan.link_flap(
                    LinkRef::Index(link),
                    SimTime::from_millis(start_ms),
                    SimTime::from_millis(end_ms),
                    SimDuration::from_millis(period_ms.max(1)),
                    down_ppm as f64 / 1e6,
                );
            }
            FaultSpec::AccessCorruption {
                client,
                up,
                start_ms,
                duration_ms,
                prob_ppm,
            } => {
                let link = if up {
                    topo.access_up[client]
                } else {
                    topo.access_down[client]
                };
                plan.burst_corruption(
                    LinkRef::Index(link),
                    SimTime::from_millis(start_ms),
                    SimDuration::from_millis(duration_ms),
                    prob_ppm as f64 / 1e6,
                );
            }
            FaultSpec::AccessFade {
                client,
                start_ms,
                duration_ms,
                condition_code,
            } => {
                let condition = WeatherCondition::from_code(condition_code)
                    .expect("validated: known weather code");
                plan.weather_fade(
                    LinkRef::Index(topo.access_down[client]),
                    SimTime::from_millis(start_ms),
                    SimDuration::from_millis(duration_ms),
                    condition,
                );
            }
            FaultSpec::BackboneOutage {
                hop,
                start_ms,
                duration_ms,
            } => {
                let (fwd, rev) = topo.backbone[hop];
                plan.satellite_outage(
                    vec![LinkRef::Index(fwd), LinkRef::Index(rev)],
                    SimTime::from_millis(start_ms),
                    SimDuration::from_millis(duration_ms),
                );
            }
            FaultSpec::RouterBlackout {
                router,
                start_ms,
                duration_ms,
            } => {
                plan.gateway_blackout(
                    topo.routers[router],
                    SimTime::from_millis(start_ms),
                    SimDuration::from_millis(duration_ms),
                );
            }
        }
    }
    plan
}

/// The handover edges a scenario's access-link flaps imply for `client`:
/// one path-change hint per period boundary inside each flap window,
/// strictly after `start_ms` (a hint before the connection starts has
/// nothing to act on). This is the schedule-driven stand-in for a real
/// stack's link-layer handover notifications — the congestion controller
/// hears about reconfigurations from the scenario, never from tracing,
/// so runs stay identical whether or not observability is attached.
pub fn path_change_schedule(scenario: &Scenario, client: usize, start_ms: u64) -> Vec<SimTime> {
    let mut edges_ms: Vec<u64> = Vec::new();
    for fault in &scenario.faults {
        if let FaultSpec::AccessFlap {
            client: c,
            start_ms: flap_start,
            end_ms,
            period_ms,
            ..
        } = *fault
        {
            if c != client {
                continue;
            }
            let period = period_ms.max(1);
            let mut t = flap_start;
            while t < end_ms && edges_ms.len() < 256 {
                if t > start_ms {
                    edges_ms.push(t);
                }
                t += period;
            }
        }
    }
    edges_ms.sort_unstable();
    edges_ms.dedup();
    edges_ms.into_iter().map(SimTime::from_millis).collect()
}

/// Per-run counter shared between ping handlers and the report.
#[derive(Debug, Default)]
struct PingStats {
    replies: u64,
}

/// A minimal ICMP-echo workload handler: sends `count` probes, one per
/// `interval`, and counts the auto-generated replies.
struct Pinger {
    peer: NodeId,
    count: u64,
    sent: u64,
    interval: SimDuration,
    size: Bytes,
    stats: Rc<RefCell<PingStats>>,
}

impl Pinger {
    const TOKEN: u64 = 0x5049_4E47; // "PING"
}

impl Handler for Pinger {
    fn on_packet(&mut self, _ctx: &mut Ctx, packet: &Packet) {
        if matches!(packet.payload, Payload::EchoReply { .. }) {
            self.stats.borrow_mut().replies += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != Self::TOKEN || self.sent >= self.count {
            return;
        }
        self.sent += 1;
        ctx.send(
            self.peer,
            self.size,
            Payload::EchoRequest { probe: self.sent },
        );
        if self.sent < self.count {
            ctx.set_timer(ctx.now + self.interval, Self::TOKEN);
        }
    }
}

/// Runs `scenario` once and snapshots the result.
pub fn run(scenario: &Scenario, opts: &RunOptions) -> RunReport {
    let mut net = Network::new(scenario.seed);
    net.enable_trace();
    if opts.inject_bug_every > 0 {
        net.debug_skip_link_delivered_every(opts.inject_bug_every);
    }

    let topo = build_topology(scenario, &mut net);
    fault_plan(scenario, &topo)
        .apply(&mut net)
        .expect("validated scenario produces a resolvable plan");

    // Attach workloads. Connection/flow ids are the client index + 1 so
    // repeated runs can never collide or depend on anything external.
    let mut tcp_stats = Vec::new();
    let ping_stats = Rc::new(RefCell::new(PingStats::default()));
    for (i, spec) in scenario.clients.iter().enumerate() {
        let (client, server) = (topo.clients[i], topo.servers[i]);
        let conn = i as u64 + 1;
        match spec.workload {
            // TCP transfers run in the download direction — the server
            // transmits toward the client's access link, like the
            // paper's browser-side measurements — so access-link faults
            // hit the data path, not just the ACK stream.
            Workload::TcpBulk {
                algo,
                total_bytes,
                start_ms,
            } => {
                let config = TcpConfig::bulk(conn, algo, total_bytes)
                    .with_path_changes(path_change_schedule(scenario, i, start_ms));
                let (sender, stats) = TcpSender::new(client, config);
                let (receiver, _rstats) = TcpReceiver::new(conn, SimDuration::from_secs(1));
                net.attach_handler(server, Box::new(sender));
                net.attach_handler(client, Box::new(receiver));
                net.arm_timer(
                    server,
                    SimTime::from_millis(start_ms),
                    TcpSender::start_token(),
                );
                tcp_stats.push((i, algo, stats));
            }
            Workload::TcpStream {
                algo,
                start_ms,
                stop_ms,
            } => {
                let config = TcpConfig::stream_until(conn, algo, SimTime::from_millis(stop_ms))
                    .with_path_changes(path_change_schedule(scenario, i, start_ms));
                let (sender, stats) = TcpSender::new(client, config);
                let (receiver, _rstats) = TcpReceiver::new(conn, SimDuration::from_secs(1));
                net.attach_handler(server, Box::new(sender));
                net.attach_handler(client, Box::new(receiver));
                net.arm_timer(
                    server,
                    SimTime::from_millis(start_ms),
                    TcpSender::start_token(),
                );
                tcp_stats.push((i, algo, stats));
            }
            Workload::UdpBlast {
                rate_kbps,
                payload,
                stop_ms,
            } => {
                let blaster = UdpBlaster::new(
                    server,
                    conn,
                    payload,
                    starlink_simcore::DataRate::from_kbps(rate_kbps.max(1)),
                    SimTime::from_millis(stop_ms),
                );
                let (sink, _sstats) = UdpSink::new(conn, SimDuration::from_secs(1));
                net.attach_handler(client, Box::new(blaster));
                net.attach_handler(server, Box::new(sink));
                net.arm_timer(client, SimTime::ZERO, UdpBlaster::start_token());
            }
            Workload::Ping {
                count,
                interval_ms,
                size,
            } => {
                let pinger = Pinger {
                    peer: server,
                    count,
                    sent: 0,
                    interval: SimDuration::from_millis(interval_ms.max(1)),
                    size: Bytes::new(size),
                    stats: Rc::clone(&ping_stats),
                };
                net.attach_handler(client, Box::new(pinger));
                net.arm_timer(client, SimTime::ZERO, Pinger::TOKEN);
            }
        }
    }

    // Run to the horizon, then detach every handler (silencing timer
    // re-arming) and drain: whatever is still in flight lands, and the
    // queue must empty — the drain oracle checks it did.
    net.run_until(SimTime::from_millis(scenario.horizon_ms));
    for n in 0..net.node_count() {
        net.detach_handler(NodeId(n));
    }
    net.run_to_idle();

    let trace = net.trace().expect("trace enabled above");
    let flows = tcp_stats
        .iter()
        .map(|(client, algo, stats)| {
            let s = stats.borrow();
            FlowReport {
                client: *client,
                algo: *algo,
                mss: 1_460,
                bytes_acked: s.bytes_acked,
                min_cwnd_seen: s.min_cwnd_seen,
                last_ssthresh: s.last_ssthresh,
                rtt_samples: s.rtt_samples,
                zero_rtt_samples: s.zero_rtt_samples,
                rto_count: s.rto_count,
            }
        })
        .collect();

    let ping_replies = ping_stats.borrow().replies;
    RunReport {
        digest: trace.digest(),
        events: trace.events(),
        clock_regressions: trace.clock_regressions(),
        fifo_violations: trace.fifo_violations(),
        queue_drained: !net.has_pending_events(),
        links: (0..net.link_count()).map(|l| net.link_stats(l)).collect(),
        nodes: (0..net.node_count())
            .map(|n| net.node_stats(NodeId(n)))
            .collect(),
        network: net.stats(),
        flows,
        ping_replies,
        telemetry: scenario
            .telemetry
            .as_ref()
            .map(|spec| run_telemetry(spec, opts)),
        fairness: scenario
            .flow_mix
            .as_ref()
            .map(|spec| run_fairness(spec, opts)),
    }
}

/// Runs the telemetry sub-campaign and folds its coverage accounting.
fn run_telemetry(spec: &TelemetrySpec, opts: &RunOptions) -> TelemetryReport {
    let config = CampaignConfig {
        seed: spec.seed,
        days: spec.days,
        pages_per_day: spec.pages_per_day_milli as f64 / 1_000.0,
        ..CampaignConfig::default()
    };
    let mut options = if spec.fault_storm {
        // 28 matches the resilient campaign's fixed user population (the
        // same figure the repo's ingestion tests use).
        IngestOptions::fault_storm(28, spec.days)
    } else {
        IngestOptions::perfect()
    };
    if let Some(collector) = spec.collector {
        options.admission = collector.config();
    }

    let new_campaign = |config: &CampaignConfig, options: &IngestOptions| {
        let mut campaign = ResilientCampaign::new(config.clone(), options.clone());
        if opts.inject_shed_miscount_every > 0 {
            campaign.debug_skip_shed_accounting_every(opts.inject_shed_miscount_every);
        }
        campaign
    };

    let (collection, storage) = match &spec.storage {
        Some(storage) => {
            // Uninterrupted reference first: the recovery oracle compares
            // the faulted, restarted run's final dataset against it.
            let reference = new_campaign(&config, &options).run_to_end();
            let (collection, report) =
                run_telemetry_storage(storage, &config, &options, opts, &new_campaign);
            let digest_matches = collection.dataset.digest() == reference.dataset.digest();
            (
                collection,
                Some(StorageReport {
                    digest_matches,
                    ..report
                }),
            )
        }
        None => (new_campaign(&config, &options).run_to_end(), None),
    };

    let totals = collection.coverage.total();
    TelemetryReport {
        sums_hold: collection.coverage.sums_hold(),
        generated: totals.generated,
        delivered: totals.delivered,
        quarantined: totals.quarantined,
        shed: totals.shed,
        lost: totals.lost,
        storage,
        population: spec.population.map(|p| run_population(&p, opts)),
    }
}

/// Runs the population-scale sharded campaign twice — once unsharded as
/// the reference, once at the spec's worker count (with any planted
/// shard bug applied to the sharded run only) — and folds the pair into
/// the report the sharding oracles check.
fn run_population(spec: &PopulationSpec, opts: &RunOptions) -> PopulationReport {
    let config = spec.config();
    let mut reference = ScaledCampaign::new(config);
    reference.run_to_end(1);

    let mut sharded = ScaledCampaign::new(config);
    if opts.inject_shard_bug_every > 0 {
        sharded.debug_drop_user_in_shard_every(opts.inject_shard_bug_every);
    }
    sharded.run_to_end(spec.shards.max(1) as usize);

    let totals = sharded.ledger().totals();
    PopulationReport {
        sums_hold: sharded.ledger().sums_hold(),
        digest_matches: sharded.dataset_digest() == reference.dataset_digest(),
        reference_digest: reference.dataset_digest(),
        sharded_digest: sharded.dataset_digest(),
        generated: totals.generated,
        accounted: totals.delivered + totals.quarantined + totals.shed + totals.lost,
        shards: spec.shards,
    }
}

/// Drives the campaign day by day, sealing every day-boundary checkpoint
/// into a [`CheckpointStore`] over a seeded faulty [`SimDisk`]. Every
/// injected power loss restarts the disk and re-opens the store: recovery
/// walks back to the newest valid generation and the campaign resumes
/// from its blob, re-running the lost days. Faults are one-shot, so the
/// crash/restart loop always terminates. Returns the finished collection
/// plus the chain's accounting (`digest_matches` is filled in by the
/// caller, which owns the reference run).
fn run_telemetry_storage(
    storage: &StorageFaultSpec,
    config: &CampaignConfig,
    options: &IngestOptions,
    opts: &RunOptions,
    new_campaign: &dyn Fn(&CampaignConfig, &IngestOptions) -> ResilientCampaign,
) -> (Collection, StorageReport) {
    // The ledger of every checkpoint blob the campaign handed to the
    // store. Recovery may only ever adopt one of these: a torn or rotted
    // write differs from its ledger entry, but then the CRC inside the
    // blob fails validation and the walk quarantines it instead.
    let mut sealed: Vec<Vec<u8>> = Vec::new();
    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    let mut conservation_held = true;
    let mut recovered_in_ledger = true;

    let vconfig = config.clone();
    let voptions = options.clone();
    let mut validate = move |blob: &[u8]| {
        ResilientCampaign::resume(vconfig.clone(), voptions.clone(), blob).is_ok()
    };

    let mut disk = Some(FaultyDisk::new(Box::new(SimDisk::new()), storage.plan()));
    loop {
        let this_disk = disk.take().expect("every path re-stows the disk");
        let (mut store, recovered) = match CheckpointStore::open(
            this_disk,
            storage.retain.max(1),
            &mut validate,
            SimTime::ZERO,
        ) {
            Ok(opened) => opened,
            Err(mut failure) => {
                // A fault fired during recovery itself. Crashes need a
                // disk restart; anything else (ENOSPC on the manifest
                // seal) just retries — either way the one-shot fault is
                // consumed, so this loop terminates.
                if failure.error == StorageError::Crashed {
                    crashes += 1;
                    failure.disk.restart();
                }
                disk = Some(failure.disk);
                continue;
            }
        };
        if opts.inject_manifest_miscount_every > 0 {
            store.debug_manifest_miscount_every(opts.inject_manifest_miscount_every);
        }

        let mut campaign = match &recovered {
            Some(r) => {
                recoveries += 1;
                recovered_in_ledger &= sealed.iter().any(|blob| blob == &r.blob);
                ResilientCampaign::resume(config.clone(), options.clone(), &r.blob)
                    .expect("recovery validated this blob")
            }
            None => new_campaign(config, options),
        };
        if opts.inject_shed_miscount_every > 0 {
            campaign.debug_skip_shed_accounting_every(opts.inject_shed_miscount_every);
        }

        let mut store = Some(store);
        while campaign.run_day() {
            let day = campaign.next_day();
            let blob = campaign.checkpoint();
            sealed.push(blob.clone());
            let open_store = store.as_mut().expect("present until a crash");
            match open_store.store(&blob, SimTime::from_secs(day * 86_400)) {
                Ok(_) => {}
                Err(StorageError::Crashed) => {
                    crashes += 1;
                    let mut d = store.take().expect("present until a crash").into_disk();
                    d.restart();
                    disk = Some(d);
                    break;
                }
                // Shed (ENOSPC or plain I/O): the campaign keeps running
                // without this generation.
                Err(_) => {}
            }
            conservation_held &= store
                .as_ref()
                .expect("no crash")
                .stats()
                .conservation_holds();
        }
        let Some(store) = store else {
            // Crashed mid-run: the restarted disk goes back around.
            continue;
        };

        let stats = store.stats();
        conservation_held &= stats.conservation_holds();
        let report = StorageReport {
            written: stats.written,
            live: stats.live,
            pruned: stats.pruned,
            quarantined: stats.quarantined,
            shed: stats.shed,
            crashes,
            recoveries,
            conservation_held,
            recovered_in_ledger,
            digest_matches: true, // caller compares against the reference
        };
        return (campaign.finish(), report);
    }
}

/// Runs `scenario` twice; the pair feeds the twin-run determinism oracle.
pub fn run_twin(scenario: &Scenario, opts: &RunOptions) -> (RunReport, RunReport) {
    (run(scenario, opts), run(scenario, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn twin_runs_are_identical() {
        for seed in [3, 17, 99] {
            let scenario = gen::generate(seed);
            let (a, b) = run_twin(&scenario, &RunOptions::default());
            assert_eq!(a, b, "seed {seed} diverged");
        }
    }

    #[test]
    fn queue_drains_and_conserves_without_faults() {
        let scenario = gen::generate(7);
        let report = run(&scenario, &RunOptions::default());
        assert!(report.queue_drained);
        assert!(report.events > 0);
        for (i, link) in report.links.iter().enumerate() {
            // `transmitted` counts only accepted packets, so at
            // quiescence every one of them must have arrived.
            assert_eq!(link.transmitted, link.delivered, "link {i} leaks packets");
        }
        for (i, node) in report.nodes.iter().enumerate() {
            assert!(node.conserved(), "node {i}: {node:?}");
        }
    }

    #[test]
    fn injected_bug_breaks_link_conservation() {
        let scenario = gen::generate(11);
        let clean = run(&scenario, &RunOptions::default());
        let buggy = run(
            &scenario,
            &RunOptions {
                inject_bug_every: 10,
                ..RunOptions::default()
            },
        );
        let leaks = |r: &RunReport| {
            r.links
                .iter()
                .map(|l| l.transmitted - l.delivered)
                .sum::<u64>()
        };
        assert_eq!(leaks(&clean), 0);
        assert!(leaks(&buggy) > 0, "bug hook had no effect");
    }
}

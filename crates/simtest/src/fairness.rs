//! The many-flow coexistence experiment: mixed congestion-control
//! populations contending for one shared per-gateway bottleneck.
//!
//! The paper's Fig. 8 measures each algorithm *alone* on the Starlink
//! path; the open question it leaves — and the reason BBRv2-class
//! control exists at all — is what happens when the algorithms meet at
//! a shared bottleneck. [`run_fairness`] answers it deterministically:
//! every flow in a [`FlowMixSpec`] gets its own server and client host,
//! all data crosses a single droptail bottleneck between two gateway
//! routers, and the report carries per-flow goodput, retransmit
//! accounting, per-algorithm aggregates and Jain's fairness index.
//!
//! Two properties make the experiment honest:
//!
//! - **No random loss anywhere.** Every link is clean, so every
//!   retransmission is a congestion drop at the shared bottleneck —
//!   retransmit rate *is* the flow's congestion footprint.
//! - **Identical per-flow paths.** Same access delay, same bottleneck,
//!   same start cadence modulo a small deterministic stagger; goodput
//!   differences are attributable to the algorithm alone.
//!
//! The swarm fuzzes this dimension from day one: [`crate::gen`] draws a
//! `FlowMixSpec` for a quarter of all seeds, and the fairness oracle
//! bounds every BBRv2 flow's retransmit fraction — the planted
//! `--inject-unfair-bug` flow (a BBRv2 that stops honouring its loss
//! ceiling) must blow through that bound.

use crate::json::Json;
use crate::run::RunOptions;
use crate::scenario::{field, field_u64, parse_algo, ScenarioError};
use starlink_netsim::{LinkConfig, Network, NodeId, NodeKind};
use starlink_simcore::{Bytes, DataRate, SimDuration, SimTime};
use starlink_transport::tcp::TcpConfig;
use starlink_transport::{CcAlgorithm, TcpReceiver, TcpSender};

/// One mixed-CC contention experiment: `mix.len()` concurrent flows
/// through a shared bottleneck. All-integer for an exact JSON
/// round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMixSpec {
    /// Network seed for the fairness sub-run.
    pub seed: u64,
    /// One congestion-control algorithm per concurrent flow.
    pub mix: Vec<CcAlgorithm>,
    /// Shared-bottleneck serialisation rate, kbit/s.
    pub bottleneck_kbps: u64,
    /// Shared-bottleneck droptail queue, bytes.
    pub queue_bytes: u64,
    /// Per-flow access-link one-way delay, microseconds.
    pub access_delay_us: u64,
    /// How long the flows contend, milliseconds.
    pub duration_ms: u64,
}

impl FlowMixSpec {
    /// Structural sanity: at least one flow, a usable bottleneck.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.mix.is_empty() {
            return Err(ScenarioError::Field("flow mix must not be empty"));
        }
        if self.bottleneck_kbps == 0 {
            return Err(ScenarioError::Field("bottleneck rate must be > 0"));
        }
        if self.queue_bytes < 4_000 {
            return Err(ScenarioError::Field(
                "bottleneck queue must be >= 4000 bytes",
            ));
        }
        if self.duration_ms == 0 {
            return Err(ScenarioError::Field("fairness duration must be > 0"));
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::u64(self.seed)),
            (
                "mix".into(),
                Json::Arr(self.mix.iter().map(|a| Json::str(a.label())).collect()),
            ),
            ("bottleneck_kbps".into(), Json::u64(self.bottleneck_kbps)),
            ("queue_bytes".into(), Json::u64(self.queue_bytes)),
            ("access_delay_us".into(), Json::u64(self.access_delay_us)),
            ("duration_ms".into(), Json::u64(self.duration_ms)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let mix = field(v, "mix")?
            .as_arr()
            .ok_or(ScenarioError::Field("mix must be an array"))?
            .iter()
            .map(|a| {
                parse_algo(
                    a.as_str()
                        .ok_or(ScenarioError::Field("mix entries must be labels"))?,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FlowMixSpec {
            seed: field_u64(v, "seed")?,
            mix,
            bottleneck_kbps: field_u64(v, "bottleneck_kbps")?,
            queue_bytes: field_u64(v, "queue_bytes")?,
            access_delay_us: field_u64(v, "access_delay_us")?,
            duration_ms: field_u64(v, "duration_ms")?,
        })
    }
}

/// One flow's outcome at the shared bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowShare {
    /// Flow index (position in [`FlowMixSpec::mix`]).
    pub flow: usize,
    /// The flow's congestion control.
    pub algo: CcAlgorithm,
    /// Bytes cumulatively acknowledged — the goodput numerator.
    pub bytes_acked: u64,
    /// Data segments sent, including retransmissions.
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Retransmission-timeout episodes.
    pub rto_count: u64,
}

impl FlowShare {
    /// Retransmitted fraction of all data segments, parts per thousand —
    /// the flow's congestion footprint (no link in the fairness topology
    /// has random loss).
    pub fn retransmit_permille(&self) -> u64 {
        if self.segments_sent == 0 {
            return 0;
        }
        self.retransmissions * 1_000 / self.segments_sent
    }
}

/// Per-algorithm aggregate over every flow running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoShare {
    /// The algorithm.
    pub algo: CcAlgorithm,
    /// Flows in the mix running it.
    pub flows: u64,
    /// Total bytes acknowledged across those flows.
    pub bytes_acked: u64,
    /// Total data segments sent across those flows.
    pub segments_sent: u64,
    /// Total retransmitted segments across those flows.
    pub retransmissions: u64,
}

/// The finished coexistence experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessReport {
    /// Per-flow outcomes, in mix order.
    pub flows: Vec<FlowShare>,
    /// Per-algorithm aggregates, in [`CcAlgorithm::ALL`] order, only for
    /// algorithms present in the mix.
    pub algos: Vec<AlgoShare>,
    /// Jain's fairness index over per-flow `bytes_acked`, thousandths.
    pub jain_milli: u64,
    /// Total bytes acknowledged across all flows.
    pub total_bytes: u64,
}

/// Jain's fairness index over `shares`, in thousandths:
/// `(Σx)² · 1000 / (n · Σx²)`. An empty or all-zero population is
/// perfectly fair by convention (1000). Integer throughout so every
/// platform computes the identical value.
pub fn jain_milli(shares: &[u64]) -> u64 {
    let n = shares.len() as u128;
    let sum: u128 = shares.iter().map(|&x| x as u128).sum();
    let sumsq: u128 = shares.iter().map(|&x| (x as u128) * (x as u128)).sum();
    if sumsq == 0 {
        return 1_000;
    }
    (sum * sum * 1_000 / (n * sumsq)) as u64
}

/// Runs the coexistence experiment `spec` describes and reports it.
///
/// Topology, per flow `i`: `s_i → g2 —(shared bottleneck)→ g1 → c_i`,
/// with the transfer in the download direction (sender on `s_i`) so the
/// contended queue sits in front of the data, not the ACKs. The reverse
/// path is uncontended. Flow starts stagger by a deterministic few
/// milliseconds to avoid phase-locking every slow start.
///
/// `opts.inject_unfair_bug_every` plants the unfair-flow bug: every N-th
/// BBRv2 flow in mix order stops honouring its loss ceiling.
pub fn run_fairness(spec: &FlowMixSpec, opts: &RunOptions) -> FairnessReport {
    let mut net = Network::new(spec.seed);

    let g1 = net.add_node("g1", NodeKind::Router);
    let g2 = net.add_node("g2", NodeKind::Router);
    // The one contended resource: a clean droptail bottleneck g2 → g1.
    net.connect(
        g2,
        g1,
        LinkConfig::fixed(
            SimDuration::from_millis(10),
            DataRate::from_kbps(spec.bottleneck_kbps),
            0.0,
        )
        .with_queue(Bytes::new(spec.queue_bytes)),
    );
    // Uncontended reverse path for the ACK stream.
    net.connect(
        g1,
        g2,
        LinkConfig::fixed(
            SimDuration::from_millis(10),
            DataRate::from_mbps(1_000),
            0.0,
        ),
    );

    let access = || {
        LinkConfig::fixed(
            SimDuration::from_micros(spec.access_delay_us),
            DataRate::from_mbps(200),
            0.0,
        )
        .with_queue(Bytes::new(256_000))
    };

    let mut stats = Vec::new();
    let mut bbr2_seen = 0u64;
    for (i, &algo) in spec.mix.iter().enumerate() {
        let client = net.add_node(&format!("fc{i}"), NodeKind::Host);
        let server = net.add_node(&format!("fs{i}"), NodeKind::Host);
        net.connect(g1, client, access());
        net.connect(client, g1, access());
        net.connect(server, g2, LinkConfig::ethernet());
        net.connect(g2, server, LinkConfig::ethernet());
        net.route_linear(&[client, g1, g2, server]);

        let mut config =
            TcpConfig::stream_until(i as u64 + 1, algo, SimTime::from_millis(spec.duration_ms));
        if algo == CcAlgorithm::Bbr2 {
            bbr2_seen += 1;
            if opts.inject_unfair_bug_every > 0
                && bbr2_seen.is_multiple_of(opts.inject_unfair_bug_every)
            {
                config = config.with_unfair_cc_bug();
            }
        }
        let (sender, s) = TcpSender::new(client, config);
        let (receiver, _rstats) = TcpReceiver::new(i as u64 + 1, SimDuration::from_secs(1));
        net.attach_handler(server, Box::new(sender));
        net.attach_handler(client, Box::new(receiver));
        // Deterministic stagger: flows join over the first ~40 ms so the
        // initial slow starts don't phase-lock.
        net.arm_timer(
            server,
            SimTime::from_millis((i as u64 % 8) * 5),
            TcpSender::start_token(),
        );
        stats.push((i, algo, s));
    }

    net.run_until(SimTime::from_millis(spec.duration_ms));
    for n in 0..net.node_count() {
        net.detach_handler(NodeId(n));
    }
    net.run_to_idle();

    let flows: Vec<FlowShare> = stats
        .iter()
        .map(|(i, algo, s)| {
            let s = s.borrow();
            FlowShare {
                flow: *i,
                algo: *algo,
                bytes_acked: s.bytes_acked,
                segments_sent: s.segments_sent,
                retransmissions: s.retransmissions,
                rto_count: s.rto_count,
            }
        })
        .collect();

    let algos = CcAlgorithm::ALL
        .into_iter()
        .filter_map(|algo| {
            let members: Vec<&FlowShare> = flows.iter().filter(|f| f.algo == algo).collect();
            if members.is_empty() {
                return None;
            }
            Some(AlgoShare {
                algo,
                flows: members.len() as u64,
                bytes_acked: members.iter().map(|f| f.bytes_acked).sum(),
                segments_sent: members.iter().map(|f| f.segments_sent).sum(),
                retransmissions: members.iter().map(|f| f.retransmissions).sum(),
            })
        })
        .collect();

    let shares: Vec<u64> = flows.iter().map(|f| f.bytes_acked).collect();
    FairnessReport {
        jain_milli: jain_milli(&shares),
        total_bytes: shares.iter().sum(),
        flows,
        algos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mix: Vec<CcAlgorithm>) -> FlowMixSpec {
        FlowMixSpec {
            seed: 0xFA1E_0001,
            mix,
            bottleneck_kbps: 8_000,
            queue_bytes: 32_000,
            access_delay_us: 10_000,
            duration_ms: 5_000,
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_milli(&[]), 1_000);
        assert_eq!(jain_milli(&[0, 0, 0]), 1_000);
        assert_eq!(jain_milli(&[7, 7, 7, 7]), 1_000);
        // One flow hogging everything: J = 1/n.
        assert_eq!(jain_milli(&[100, 0, 0, 0]), 250);
        // Known value: (1+2+3)² / (3 · (1+4+9)) = 36/42.
        assert_eq!(jain_milli(&[1, 2, 3]), 857);
    }

    #[test]
    fn spec_json_round_trips() {
        let s = spec(vec![
            CcAlgorithm::Bbr2,
            CcAlgorithm::Cubic,
            CcAlgorithm::Reno,
        ]);
        let back = FlowMixSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validation_rejects_empty_mix() {
        let mut s = spec(vec![CcAlgorithm::Cubic]);
        s.mix.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn twin_fairness_runs_are_identical() {
        let s = spec(vec![
            CcAlgorithm::Bbr2,
            CcAlgorithm::Cubic,
            CcAlgorithm::Reno,
            CcAlgorithm::Bbr,
        ]);
        let opts = RunOptions::default();
        assert_eq!(run_fairness(&s, &opts), run_fairness(&s, &opts));
    }

    #[test]
    fn homogeneous_population_shares_fairly() {
        // Four identical CUBIC flows over a clean shared bottleneck is
        // the easiest fairness case there is; Jain must be near-perfect.
        let s = spec(vec![CcAlgorithm::Cubic; 4]);
        let report = run_fairness(&s, &RunOptions::default());
        assert!(report.total_bytes > 0, "{report:?}");
        assert!(
            report.jain_milli >= 900,
            "homogeneous CUBIC mix scored {} milli: {report:?}",
            report.jain_milli
        );
    }

    #[test]
    fn every_flow_and_algo_is_accounted() {
        let s = spec(vec![
            CcAlgorithm::Bbr2,
            CcAlgorithm::Cubic,
            CcAlgorithm::Cubic,
            CcAlgorithm::Vegas,
        ]);
        let report = run_fairness(&s, &RunOptions::default());
        assert_eq!(report.flows.len(), 4);
        assert_eq!(report.algos.len(), 3, "{:?}", report.algos);
        let cubic = report
            .algos
            .iter()
            .find(|a| a.algo == CcAlgorithm::Cubic)
            .unwrap();
        assert_eq!(cubic.flows, 2);
        let agg: u64 = report.algos.iter().map(|a| a.bytes_acked).sum();
        assert_eq!(agg, report.total_bytes);
    }

    #[test]
    fn planted_unfair_bug_blows_up_the_retransmit_rate() {
        let s = spec(vec![
            CcAlgorithm::Bbr2,
            CcAlgorithm::Cubic,
            CcAlgorithm::Cubic,
        ]);
        let healthy = run_fairness(&s, &RunOptions::default());
        let bugged = run_fairness(
            &s,
            &RunOptions {
                inject_unfair_bug_every: 1,
                ..RunOptions::default()
            },
        );
        let permille = |r: &FairnessReport| r.flows[0].retransmit_permille();
        assert!(
            permille(&bugged) > permille(&healthy),
            "bug must increase the BBRv2 flow's congestion footprint: \
             healthy {} vs bugged {}",
            permille(&healthy),
            permille(&bugged)
        );
    }
}

//! The scenario model: a small, fully serialisable description of one
//! randomised simulation run.
//!
//! A [`Scenario`] is everything the runner needs to rebuild a network
//! byte-for-byte: topology shape, per-client channel profiles, workloads,
//! a fault script, and an optional telemetry-ingestion sub-campaign. All
//! fields are integers (microseconds, kbps, ppm, …) so the JSON
//! round-trip is exact — a replayed failing seed reconstructs the
//! *identical* run.

use crate::fairness::FlowMixSpec;
use crate::json::{parse, Json, JsonError};
use starlink_channel::WeatherCondition;
use starlink_netsim::LinkConfig;
use starlink_simcore::{Bytes, DataRate, SimDuration};
use starlink_transport::CcAlgorithm;
use std::fmt;

/// One direction of an access link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation delay, microseconds.
    pub delay_us: u64,
    /// Serialisation rate, kbit/s.
    pub rate_kbps: u64,
    /// Random loss, parts per million.
    pub loss_ppm: u64,
    /// Droptail queue capacity, bytes.
    pub queue_bytes: u64,
}

impl LinkSpec {
    /// The netsim link configuration this spec describes.
    pub fn config(&self) -> LinkConfig {
        LinkConfig::fixed(
            SimDuration::from_micros(self.delay_us),
            DataRate::from_kbps(self.rate_kbps),
            self.loss_ppm as f64 / 1e6,
        )
        .with_queue(Bytes::new(self.queue_bytes))
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("delay_us".into(), Json::u64(self.delay_us)),
            ("rate_kbps".into(), Json::u64(self.rate_kbps)),
            ("loss_ppm".into(), Json::u64(self.loss_ppm)),
            ("queue_bytes".into(), Json::u64(self.queue_bytes)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        Ok(LinkSpec {
            delay_us: field_u64(v, "delay_us")?,
            rate_kbps: field_u64(v, "rate_kbps")?,
            loss_ppm: field_u64(v, "loss_ppm")?,
            queue_bytes: field_u64(v, "queue_bytes")?,
        })
    }
}

/// What one client does during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// A finite TCP bulk transfer starting at `start_ms`.
    TcpBulk {
        /// Congestion control to use.
        algo: CcAlgorithm,
        /// Application bytes to transfer.
        total_bytes: u64,
        /// Connection start, milliseconds into the run.
        start_ms: u64,
    },
    /// An open-ended TCP stream that stops offering data at `stop_ms`.
    TcpStream {
        /// Congestion control to use.
        algo: CcAlgorithm,
        /// Connection start, milliseconds into the run.
        start_ms: u64,
        /// Stop offering new data at this time, milliseconds.
        stop_ms: u64,
    },
    /// A constant-rate UDP blast into a sink.
    UdpBlast {
        /// Send rate, kbit/s (always ≥ 1).
        rate_kbps: u64,
        /// Datagram payload size, bytes.
        payload: u64,
        /// Stop sending at this time, milliseconds.
        stop_ms: u64,
    },
    /// Periodic ICMP echo probes answered by the far host's auto-reply.
    Ping {
        /// Number of probes.
        count: u64,
        /// Probe interval, milliseconds.
        interval_ms: u64,
        /// On-wire probe size, bytes.
        size: u64,
    },
}

impl Workload {
    fn to_json(&self) -> Json {
        match *self {
            Workload::TcpBulk {
                algo,
                total_bytes,
                start_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("tcp_bulk")),
                ("algo".into(), Json::str(algo.label())),
                ("total_bytes".into(), Json::u64(total_bytes)),
                ("start_ms".into(), Json::u64(start_ms)),
            ]),
            Workload::TcpStream {
                algo,
                start_ms,
                stop_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("tcp_stream")),
                ("algo".into(), Json::str(algo.label())),
                ("start_ms".into(), Json::u64(start_ms)),
                ("stop_ms".into(), Json::u64(stop_ms)),
            ]),
            Workload::UdpBlast {
                rate_kbps,
                payload,
                stop_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("udp_blast")),
                ("rate_kbps".into(), Json::u64(rate_kbps)),
                ("payload".into(), Json::u64(payload)),
                ("stop_ms".into(), Json::u64(stop_ms)),
            ]),
            Workload::Ping {
                count,
                interval_ms,
                size,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("ping")),
                ("count".into(), Json::u64(count)),
                ("interval_ms".into(), Json::u64(interval_ms)),
                ("size".into(), Json::u64(size)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let kind = field_str(v, "kind")?;
        match kind {
            "tcp_bulk" => Ok(Workload::TcpBulk {
                algo: parse_algo(field_str(v, "algo")?)?,
                total_bytes: field_u64(v, "total_bytes")?,
                start_ms: field_u64(v, "start_ms")?,
            }),
            "tcp_stream" => Ok(Workload::TcpStream {
                algo: parse_algo(field_str(v, "algo")?)?,
                start_ms: field_u64(v, "start_ms")?,
                stop_ms: field_u64(v, "stop_ms")?,
            }),
            "udp_blast" => Ok(Workload::UdpBlast {
                rate_kbps: field_u64(v, "rate_kbps")?,
                payload: field_u64(v, "payload")?,
                stop_ms: field_u64(v, "stop_ms")?,
            }),
            "ping" => Ok(Workload::Ping {
                count: field_u64(v, "count")?,
                interval_ms: field_u64(v, "interval_ms")?,
                size: field_u64(v, "size")?,
            }),
            _ => Err(ScenarioError::Field("unknown workload kind")),
        }
    }
}

/// One client: its access-link channel profile and workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Client → first-router direction.
    pub up: LinkSpec,
    /// First-router → client direction.
    pub down: LinkSpec,
    /// What the client does.
    pub workload: Workload,
}

impl ClientSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("up".into(), self.up.to_json()),
            ("down".into(), self.down.to_json()),
            ("workload".into(), self.workload.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        Ok(ClientSpec {
            up: LinkSpec::from_json(field(v, "up")?)?,
            down: LinkSpec::from_json(field(v, "down")?)?,
            workload: Workload::from_json(field(v, "workload")?)?,
        })
    }
}

/// A scripted fault, in scenario coordinates (client/router indices, not
/// raw link indices — the runner resolves them against the topology it
/// builds).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The client's access link flaps down/up periodically (the 15 s
    /// reconfiguration pattern). `up` picks the direction.
    AccessFlap {
        /// Which client's access link.
        client: usize,
        /// `true` = client→router direction, else router→client.
        up: bool,
        /// Flapping window start, milliseconds.
        start_ms: u64,
        /// Flapping window end, milliseconds.
        end_ms: u64,
        /// Full up+down cycle, milliseconds.
        period_ms: u64,
        /// Fraction of each period spent down, parts per million.
        down_ppm: u64,
    },
    /// Burst corruption on the client's access link.
    AccessCorruption {
        /// Which client's access link.
        client: usize,
        /// `true` = client→router direction, else router→client.
        up: bool,
        /// Burst start, milliseconds.
        start_ms: u64,
        /// Burst length, milliseconds.
        duration_ms: u64,
        /// Per-packet corruption probability, parts per million.
        prob_ppm: u64,
    },
    /// A weather fade on the client's down link.
    AccessFade {
        /// Which client's access link.
        client: usize,
        /// Fade start, milliseconds.
        start_ms: u64,
        /// Fade length, milliseconds.
        duration_ms: u64,
        /// Weather wire code ([`WeatherCondition::code`]).
        condition_code: u8,
    },
    /// Both directions of one backbone hop go down.
    BackboneOutage {
        /// Hop index (router `hop` ↔ router `hop + 1`).
        hop: usize,
        /// Outage start, milliseconds.
        start_ms: u64,
        /// Outage length, milliseconds.
        duration_ms: u64,
    },
    /// A backbone router blacks out entirely.
    RouterBlackout {
        /// Router index.
        router: usize,
        /// Blackout start, milliseconds.
        start_ms: u64,
        /// Blackout length, milliseconds.
        duration_ms: u64,
    },
}

impl FaultSpec {
    /// The client index this fault references, if any (used by the
    /// shrinker to re-index faults when clients are removed).
    pub fn client(&self) -> Option<usize> {
        match *self {
            FaultSpec::AccessFlap { client, .. }
            | FaultSpec::AccessCorruption { client, .. }
            | FaultSpec::AccessFade { client, .. } => Some(client),
            _ => None,
        }
    }

    /// Mutable access to the referenced client index, if any.
    pub fn client_mut(&mut self) -> Option<&mut usize> {
        match self {
            FaultSpec::AccessFlap { client, .. }
            | FaultSpec::AccessCorruption { client, .. }
            | FaultSpec::AccessFade { client, .. } => Some(client),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            FaultSpec::AccessFlap {
                client,
                up,
                start_ms,
                end_ms,
                period_ms,
                down_ppm,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("access_flap")),
                ("client".into(), Json::u64(client as u64)),
                ("up".into(), Json::Bool(up)),
                ("start_ms".into(), Json::u64(start_ms)),
                ("end_ms".into(), Json::u64(end_ms)),
                ("period_ms".into(), Json::u64(period_ms)),
                ("down_ppm".into(), Json::u64(down_ppm)),
            ]),
            FaultSpec::AccessCorruption {
                client,
                up,
                start_ms,
                duration_ms,
                prob_ppm,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("access_corruption")),
                ("client".into(), Json::u64(client as u64)),
                ("up".into(), Json::Bool(up)),
                ("start_ms".into(), Json::u64(start_ms)),
                ("duration_ms".into(), Json::u64(duration_ms)),
                ("prob_ppm".into(), Json::u64(prob_ppm)),
            ]),
            FaultSpec::AccessFade {
                client,
                start_ms,
                duration_ms,
                condition_code,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("access_fade")),
                ("client".into(), Json::u64(client as u64)),
                ("start_ms".into(), Json::u64(start_ms)),
                ("duration_ms".into(), Json::u64(duration_ms)),
                ("condition_code".into(), Json::u64(condition_code as u64)),
            ]),
            FaultSpec::BackboneOutage {
                hop,
                start_ms,
                duration_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("backbone_outage")),
                ("hop".into(), Json::u64(hop as u64)),
                ("start_ms".into(), Json::u64(start_ms)),
                ("duration_ms".into(), Json::u64(duration_ms)),
            ]),
            FaultSpec::RouterBlackout {
                router,
                start_ms,
                duration_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("router_blackout")),
                ("router".into(), Json::u64(router as u64)),
                ("start_ms".into(), Json::u64(start_ms)),
                ("duration_ms".into(), Json::u64(duration_ms)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        match field_str(v, "kind")? {
            "access_flap" => Ok(FaultSpec::AccessFlap {
                client: field_usize(v, "client")?,
                up: field_bool(v, "up")?,
                start_ms: field_u64(v, "start_ms")?,
                end_ms: field_u64(v, "end_ms")?,
                period_ms: field_u64(v, "period_ms")?,
                down_ppm: field_u64(v, "down_ppm")?,
            }),
            "access_corruption" => Ok(FaultSpec::AccessCorruption {
                client: field_usize(v, "client")?,
                up: field_bool(v, "up")?,
                start_ms: field_u64(v, "start_ms")?,
                duration_ms: field_u64(v, "duration_ms")?,
                prob_ppm: field_u64(v, "prob_ppm")?,
            }),
            "access_fade" => Ok(FaultSpec::AccessFade {
                client: field_usize(v, "client")?,
                start_ms: field_u64(v, "start_ms")?,
                duration_ms: field_u64(v, "duration_ms")?,
                condition_code: field_u64(v, "condition_code")? as u8,
            }),
            "backbone_outage" => Ok(FaultSpec::BackboneOutage {
                hop: field_usize(v, "hop")?,
                start_ms: field_u64(v, "start_ms")?,
                duration_ms: field_u64(v, "duration_ms")?,
            }),
            "router_blackout" => Ok(FaultSpec::RouterBlackout {
                router: field_usize(v, "router")?,
                start_ms: field_u64(v, "start_ms")?,
                duration_ms: field_u64(v, "duration_ms")?,
            }),
            _ => Err(ScenarioError::Field("unknown fault kind")),
        }
    }
}

/// An admission-control budget for the collector service the telemetry
/// sub-campaign uploads into. Fields mirror
/// [`starlink_telemetry::AdmissionConfig`], kept integral for an exact
/// JSON round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorSpec {
    /// Per-session token refill, milli-batches per virtual second.
    pub session_rate_milli: u64,
    /// Per-session bucket capacity, whole batches.
    pub session_burst: u64,
    /// Ingest-queue depth bound, batches.
    pub queue_batches: u64,
    /// Global in-flight byte budget.
    pub global_bytes: u64,
    /// Ingest-queue drain rate, bytes per virtual second.
    pub drain_bytes_per_sec: u64,
}

impl CollectorSpec {
    /// The admission configuration this spec describes.
    pub fn config(&self) -> starlink_telemetry::AdmissionConfig {
        starlink_telemetry::AdmissionConfig {
            session_rate_milli: self.session_rate_milli,
            session_burst: self.session_burst,
            queue_batches: self.queue_batches,
            global_bytes: self.global_bytes,
            drain_bytes_per_sec: self.drain_bytes_per_sec,
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            (
                "session_rate_milli".into(),
                Json::u64(self.session_rate_milli),
            ),
            ("session_burst".into(), Json::u64(self.session_burst)),
            ("queue_batches".into(), Json::u64(self.queue_batches)),
            ("global_bytes".into(), Json::u64(self.global_bytes)),
            (
                "drain_bytes_per_sec".into(),
                Json::u64(self.drain_bytes_per_sec),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        Ok(CollectorSpec {
            session_rate_milli: field_u64(v, "session_rate_milli")?,
            session_burst: field_u64(v, "session_burst")?,
            queue_batches: field_u64(v, "queue_batches")?,
            global_bytes: field_u64(v, "global_bytes")?,
            drain_bytes_per_sec: field_u64(v, "drain_bytes_per_sec")?,
        })
    }
}

/// Disk-fault injection for the sub-campaign's checkpoint chain. When
/// present, the runner drives the campaign day by day, sealing every
/// day-boundary checkpoint into a
/// [`starlink_telemetry::CheckpointStore`] over a seeded faulty disk,
/// and restarts + recovers after every injected power loss — the
/// recovery oracle then checks the chain's conservation counters, that
/// every adopted generation was a real sealed state, and that the final
/// dataset matches an uninterrupted run. All-integer for an exact JSON
/// round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultSpec {
    /// Seed the [`starlink_telemetry::StorageFaultPlan`] is drawn from.
    pub seed: u64,
    /// Torn writes to inject.
    pub torn_writes: u64,
    /// Silent single-bit flips to inject.
    pub bit_rots: u64,
    /// Out-of-space write failures to inject.
    pub enospc: u64,
    /// Crash-around-rename faults to inject.
    pub crashes: u64,
    /// Verified generations the chain retains on disk.
    pub retain: u64,
}

impl StorageFaultSpec {
    /// Compiles the spec into its deterministic fault plan.
    pub fn plan(&self) -> starlink_telemetry::StorageFaultPlan {
        starlink_telemetry::StorageFaultPlan::from_seed(
            self.seed,
            self.torn_writes,
            self.bit_rots,
            self.enospc,
            self.crashes,
        )
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::u64(self.seed)),
            ("torn_writes".into(), Json::u64(self.torn_writes)),
            ("bit_rots".into(), Json::u64(self.bit_rots)),
            ("enospc".into(), Json::u64(self.enospc)),
            ("crashes".into(), Json::u64(self.crashes)),
            ("retain".into(), Json::u64(self.retain)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        Ok(StorageFaultSpec {
            seed: field_u64(v, "seed")?,
            torn_writes: field_u64(v, "torn_writes")?,
            bit_rots: field_u64(v, "bit_rots")?,
            enospc: field_u64(v, "enospc")?,
            crashes: field_u64(v, "crashes")?,
            retain: field_u64(v, "retain")?,
        })
    }
}

/// A population-scale sharded campaign run alongside the paper-faithful
/// sub-campaign: a struct-of-arrays subscriber population partitioned
/// across `shards` deterministic workers, checked by the sharding
/// oracles (merged-ledger conservation, and byte-identity of the merged
/// dataset against an unsharded reference run). All-integer for an
/// exact JSON round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationSpec {
    /// Campaign seed for the scaled engine.
    pub seed: u64,
    /// Simulated subscribers.
    pub users: u64,
    /// City-catalogue size.
    pub cities: u64,
    /// Campaign length, days.
    pub days: u64,
    /// Worker count for the sharded run (the reference run is always
    /// unsharded).
    pub shards: u64,
    /// Mean pages per user-day, thousandths.
    pub pages_per_day_milli: u64,
}

impl PopulationSpec {
    /// The scaled-campaign configuration this spec describes.
    pub fn config(&self) -> starlink_telemetry::ScaleConfig {
        starlink_telemetry::ScaleConfig {
            seed: self.seed,
            users: self.users,
            cities: self.cities as u32,
            days: self.days,
            pages_per_day_milli: self.pages_per_day_milli,
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::u64(self.seed)),
            ("users".into(), Json::u64(self.users)),
            ("cities".into(), Json::u64(self.cities)),
            ("days".into(), Json::u64(self.days)),
            ("shards".into(), Json::u64(self.shards)),
            (
                "pages_per_day_milli".into(),
                Json::u64(self.pages_per_day_milli),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        Ok(PopulationSpec {
            seed: field_u64(v, "seed")?,
            users: field_u64(v, "users")?,
            cities: field_u64(v, "cities")?,
            days: field_u64(v, "days")?,
            shards: field_u64(v, "shards")?,
            pages_per_day_milli: field_u64(v, "pages_per_day_milli")?,
        })
    }
}

/// An optional telemetry-ingestion sub-campaign run alongside the packet
/// simulation, checked by the coverage oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Campaign seed.
    pub seed: u64,
    /// Campaign length, days.
    pub days: u64,
    /// Mean pages per day, thousandths (integer for exact round-trip).
    pub pages_per_day_milli: u64,
    /// Run the deterministic fault storm instead of a perfect uplink.
    pub fault_storm: bool,
    /// The admission budget of the collector service every upload
    /// travels through; `None` means
    /// [`starlink_telemetry::AdmissionConfig::generous`], the default
    /// that never sheds.
    pub collector: Option<CollectorSpec>,
    /// Checkpoint the campaign through a faultable on-disk chain;
    /// `None` skips persistence entirely.
    pub storage: Option<StorageFaultSpec>,
    /// Run a population-scale sharded campaign alongside and check its
    /// sharding oracles; `None` skips the scaled dimension.
    pub population: Option<PopulationSpec>,
}

impl TelemetrySpec {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::u64(self.seed)),
            ("days".into(), Json::u64(self.days)),
            (
                "pages_per_day_milli".into(),
                Json::u64(self.pages_per_day_milli),
            ),
            ("fault_storm".into(), Json::Bool(self.fault_storm)),
            (
                "collector".into(),
                match self.collector {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "storage".into(),
                match self.storage {
                    Some(s) => s.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "population".into(),
                match self.population {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        // Tolerate a missing key so artifacts saved before the collector
        // dimension existed still replay (under the generous budget).
        let collector = match v.get("collector") {
            None | Some(Json::Null) => None,
            Some(c) => Some(CollectorSpec::from_json(c)?),
        };
        // Same tolerance for the storage dimension (PR 7): pre-storage
        // artifacts replay as non-persistent campaigns.
        let storage = match v.get("storage") {
            None | Some(Json::Null) => None,
            Some(s) => Some(StorageFaultSpec::from_json(s)?),
        };
        // And for the population dimension (PR 9): pre-population
        // artifacts replay without the scaled sub-campaign.
        let population = match v.get("population") {
            None | Some(Json::Null) => None,
            Some(p) => Some(PopulationSpec::from_json(p)?),
        };
        Ok(TelemetrySpec {
            seed: field_u64(v, "seed")?,
            days: field_u64(v, "days")?,
            pages_per_day_milli: field_u64(v, "pages_per_day_milli")?,
            fault_storm: field_bool(v, "fault_storm")?,
            collector,
            storage,
            population,
        })
    }
}

/// A complete generated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Network seed (drives link loss processes and fault jitter).
    pub seed: u64,
    /// Simulated horizon, milliseconds.
    pub horizon_ms: u64,
    /// Backbone routers in the chain (≥ 1).
    pub routers: usize,
    /// Clients, each with its own server behind the last router.
    pub clients: Vec<ClientSpec>,
    /// Scripted faults.
    pub faults: Vec<FaultSpec>,
    /// Optional telemetry sub-campaign.
    pub telemetry: Option<TelemetrySpec>,
    /// Optional mixed-CC coexistence experiment run alongside the packet
    /// simulation, checked by the fairness oracle.
    pub flow_mix: Option<FlowMixSpec>,
}

/// Why a scenario document failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document was not valid JSON.
    Json(JsonError),
    /// A required field was missing or had the wrong type/value.
    Field(&'static str),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "{e}"),
            ScenarioError::Field(m) => write!(f, "scenario field error: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Serialises to a compact JSON document.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("version".into(), Json::u64(1)),
            ("seed".into(), Json::u64(self.seed)),
            ("horizon_ms".into(), Json::u64(self.horizon_ms)),
            ("routers".into(), Json::u64(self.routers as u64)),
            (
                "clients".into(),
                Json::Arr(self.clients.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(|f| f.to_json()).collect()),
            ),
        ];
        match self.telemetry {
            Some(t) => fields.push(("telemetry".into(), t.to_json())),
            None => fields.push(("telemetry".into(), Json::Null)),
        }
        match &self.flow_mix {
            Some(m) => fields.push(("flow_mix".into(), m.to_json())),
            None => fields.push(("flow_mix".into(), Json::Null)),
        }
        Json::Obj(fields).render()
    }

    /// Loads a scenario from its JSON document.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse(text).map_err(ScenarioError::Json)?;
        if field_u64(&doc, "version")? != 1 {
            return Err(ScenarioError::Field("unsupported version"));
        }
        let clients = field(&doc, "clients")?
            .as_arr()
            .ok_or(ScenarioError::Field("clients must be an array"))?
            .iter()
            .map(ClientSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let faults = field(&doc, "faults")?
            .as_arr()
            .ok_or(ScenarioError::Field("faults must be an array"))?
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let telemetry = match field(&doc, "telemetry")? {
            Json::Null => None,
            v => Some(TelemetrySpec::from_json(v)?),
        };
        // Tolerate a missing key so artifacts saved before the fairness
        // dimension existed still replay (without the coexistence run).
        let flow_mix = match doc.get("flow_mix") {
            None | Some(Json::Null) => None,
            Some(m) => Some(FlowMixSpec::from_json(m)?),
        };
        let scenario = Scenario {
            seed: field_u64(&doc, "seed")?,
            horizon_ms: field_u64(&doc, "horizon_ms")?,
            routers: field_usize(&doc, "routers")?,
            clients,
            faults,
            telemetry,
            flow_mix,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Structural sanity: indices in range, at least one router.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.routers == 0 {
            return Err(ScenarioError::Field("routers must be >= 1"));
        }
        if self.clients.is_empty() {
            return Err(ScenarioError::Field("at least one client required"));
        }
        for fault in &self.faults {
            if let Some(c) = fault.client() {
                if c >= self.clients.len() {
                    return Err(ScenarioError::Field("fault references missing client"));
                }
            }
            match *fault {
                FaultSpec::BackboneOutage { hop, .. } if hop + 1 >= self.routers => {
                    return Err(ScenarioError::Field("fault references missing hop"));
                }
                FaultSpec::RouterBlackout { router, .. } if router >= self.routers => {
                    return Err(ScenarioError::Field("fault references missing router"));
                }
                FaultSpec::AccessFade { condition_code, .. }
                    if WeatherCondition::from_code(condition_code).is_none() =>
                {
                    return Err(ScenarioError::Field("unknown weather code"));
                }
                _ => {}
            }
        }
        if let Some(m) = &self.flow_mix {
            m.validate()?;
        }
        Ok(())
    }
}

/// Parses a congestion-control label (as produced by
/// [`CcAlgorithm::label`]).
pub fn parse_algo(label: &str) -> Result<CcAlgorithm, ScenarioError> {
    CcAlgorithm::ALL
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .ok_or(ScenarioError::Field("unknown congestion-control label"))
}

pub(crate) fn field<'a>(v: &'a Json, key: &'static str) -> Result<&'a Json, ScenarioError> {
    v.get(key).ok_or(ScenarioError::Field(key))
}

pub(crate) fn field_u64(v: &Json, key: &'static str) -> Result<u64, ScenarioError> {
    field(v, key)?.as_u64().ok_or(ScenarioError::Field(key))
}

pub(crate) fn field_usize(v: &Json, key: &'static str) -> Result<usize, ScenarioError> {
    field(v, key)?.as_usize().ok_or(ScenarioError::Field(key))
}

pub(crate) fn field_bool(v: &Json, key: &'static str) -> Result<bool, ScenarioError> {
    field(v, key)?.as_bool().ok_or(ScenarioError::Field(key))
}

pub(crate) fn field_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, ScenarioError> {
    field(v, key)?.as_str().ok_or(ScenarioError::Field(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: u64::MAX - 7,
            horizon_ms: 12_000,
            routers: 2,
            clients: vec![
                ClientSpec {
                    up: LinkSpec {
                        delay_us: 20_000,
                        rate_kbps: 10_000,
                        loss_ppm: 1_500,
                        queue_bytes: 128_000,
                    },
                    down: LinkSpec {
                        delay_us: 22_000,
                        rate_kbps: 40_000,
                        loss_ppm: 900,
                        queue_bytes: 256_000,
                    },
                    workload: Workload::TcpStream {
                        algo: CcAlgorithm::Bbr,
                        start_ms: 100,
                        stop_ms: 10_000,
                    },
                },
                ClientSpec {
                    up: LinkSpec {
                        delay_us: 5_000,
                        rate_kbps: 2_000,
                        loss_ppm: 0,
                        queue_bytes: 64_000,
                    },
                    down: LinkSpec {
                        delay_us: 5_000,
                        rate_kbps: 2_000,
                        loss_ppm: 0,
                        queue_bytes: 64_000,
                    },
                    workload: Workload::Ping {
                        count: 20,
                        interval_ms: 250,
                        size: 64,
                    },
                },
            ],
            faults: vec![
                FaultSpec::AccessFlap {
                    client: 0,
                    up: false,
                    start_ms: 1_000,
                    end_ms: 9_000,
                    period_ms: 1_500,
                    down_ppm: 30_000,
                },
                FaultSpec::RouterBlackout {
                    router: 1,
                    start_ms: 4_000,
                    duration_ms: 500,
                },
            ],
            telemetry: Some(TelemetrySpec {
                seed: 99,
                days: 2,
                pages_per_day_milli: 8_500,
                fault_storm: true,
                collector: Some(CollectorSpec {
                    session_rate_milli: 750,
                    session_burst: 2,
                    queue_batches: 4,
                    global_bytes: 16_000,
                    drain_bytes_per_sec: 2_000,
                }),
                storage: Some(StorageFaultSpec {
                    seed: 4_242,
                    torn_writes: 1,
                    bit_rots: 1,
                    enospc: 0,
                    crashes: 2,
                    retain: 2,
                }),
                population: Some(PopulationSpec {
                    seed: 31_337,
                    users: 250,
                    cities: 12,
                    days: 2,
                    shards: 3,
                    pages_per_day_milli: 6_500,
                }),
            }),
            flow_mix: Some(FlowMixSpec {
                seed: 0xFA1E55,
                mix: vec![
                    CcAlgorithm::Bbr2,
                    CcAlgorithm::Cubic,
                    CcAlgorithm::Bbr,
                    CcAlgorithm::Reno,
                ],
                bottleneck_kbps: 10_000,
                queue_bytes: 24_000,
                access_delay_us: 15_000,
                duration_ms: 4_000,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let text = s.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, s);
        // And the re-rendered document is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validation_rejects_dangling_references() {
        let mut s = sample();
        s.faults.push(FaultSpec::AccessFade {
            client: 9,
            start_ms: 0,
            duration_ms: 1,
            condition_code: 0,
        });
        assert!(Scenario::from_json(&s.to_json()).is_err());
    }

    #[test]
    fn pre_collector_artifacts_still_load() {
        // Saved failing-seed artifacts predating the collector dimension
        // have no "collector" key; they must replay under the default
        // (generous) budget.
        let mut s = sample();
        s.telemetry.as_mut().unwrap().collector = None;
        let text = s
            .to_json()
            .replace(",\"collector\":null", "")
            .replace("\"collector\":null,", "");
        assert!(!text.contains("collector"));
        assert_eq!(Scenario::from_json(&text).unwrap(), s);
    }

    #[test]
    fn pre_storage_artifacts_still_load() {
        // Same tolerance one dimension later: artifacts predating the
        // storage dimension have no "storage" key and must replay as
        // non-persistent campaigns.
        let mut s = sample();
        s.telemetry.as_mut().unwrap().storage = None;
        let text = s
            .to_json()
            .replace(",\"storage\":null", "")
            .replace("\"storage\":null,", "");
        assert!(!text.contains("\"storage\""));
        assert_eq!(Scenario::from_json(&text).unwrap(), s);
    }

    #[test]
    fn pre_population_artifacts_still_load() {
        // And one dimension later again: artifacts predating the
        // population dimension have no "population" key and must replay
        // without the scaled sub-campaign.
        let mut s = sample();
        s.telemetry.as_mut().unwrap().population = None;
        let text = s
            .to_json()
            .replace(",\"population\":null", "")
            .replace("\"population\":null,", "");
        assert!(!text.contains("\"population\""));
        assert_eq!(Scenario::from_json(&text).unwrap(), s);
    }

    #[test]
    fn pre_flowmix_artifacts_still_load() {
        // Artifacts predating the fairness dimension have no "flow_mix"
        // key and must replay without the coexistence experiment.
        let mut s = sample();
        s.flow_mix = None;
        let text = s
            .to_json()
            .replace(",\"flow_mix\":null", "")
            .replace("\"flow_mix\":null,", "");
        assert!(!text.contains("flow_mix"));
        assert_eq!(Scenario::from_json(&text).unwrap(), s);
    }

    #[test]
    fn invalid_flow_mix_is_rejected() {
        let mut s = sample();
        s.flow_mix.as_mut().unwrap().queue_bytes = 100;
        assert!(Scenario::from_json(&s.to_json()).is_err());
    }

    #[test]
    fn algo_labels_round_trip() {
        for algo in CcAlgorithm::ALL {
            assert_eq!(parse_algo(algo.label()).unwrap(), algo);
        }
        assert!(parse_algo("quic").is_err());
    }
}

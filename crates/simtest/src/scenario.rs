//! The scenario model: a small, fully serialisable description of one
//! randomised simulation run.
//!
//! A [`Scenario`] is everything the runner needs to rebuild a network
//! byte-for-byte: topology shape, per-client channel profiles, workloads,
//! a fault script, and an optional telemetry-ingestion sub-campaign. All
//! fields are integers (microseconds, kbps, ppm, …) so the JSON
//! round-trip is exact — a replayed failing seed reconstructs the
//! *identical* run.
//!
//! Each type's JSON form is one field table: `fields!` for a struct,
//! `tagged!` for the `kind`-tagged enums. A table lists the type's fields
//! once, in declaration order, which is also the key order; the writer
//! and the reader both come from it, and the reader builds a struct
//! literal, so a field left out of the table does not compile. A missing
//! key is refused unless its field is an `Option`, which reads as absent:
//! that is how artefacts saved before a dimension existed still load. An
//! integer that does not fit its field (a `condition_code` of 259) is
//! refused, never truncated.

use crate::fairness::FlowMixSpec;
use crate::json::{parse, Json, JsonError};
use starlink_channel::WeatherCondition;
use starlink_netsim::LinkConfig;
use starlink_simcore::{Bytes, DataRate, SimDuration};
use starlink_transport::CcAlgorithm;
use std::fmt;

/// A value a scenario document stores under one key.
pub(crate) trait Field: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Reads the value stored under `key`. A value of the wrong shape, or
    /// an integer outside its type's range, is refused as
    /// `ScenarioError::Field(key)`.
    fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError>;

    /// What a missing `key` reads as: refused, except for an `Option`.
    fn missing(key: &'static str) -> Result<Self, ScenarioError> {
        Err(ScenarioError::Field(key))
    }

    /// Reads `key` of the object `doc`.
    fn get(doc: &Json, key: &'static str) -> Result<Self, ScenarioError> {
        match doc.get(key) {
            Some(v) => Self::read(v, key),
            None => Self::missing(key),
        }
    }

    /// Reads a whole document of a table type.
    fn from_json(doc: &Json) -> Result<Self, ScenarioError> {
        Self::read(doc, "document")
    }
}

/// An integer writes as its decimal token and reads through a checked
/// conversion from `u64`, so a value its type cannot hold is refused.
macro_rules! integer_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }

            fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
                v.as_u64()
                    .and_then(|n| Self::try_from(n).ok())
                    .ok_or(ScenarioError::Field(key))
            }
        }
    )*};
}

integer_field!(u64, u32, u8, usize);

impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
        v.as_bool().ok_or(ScenarioError::Field(key))
    }
}

impl Field for CcAlgorithm {
    fn to_json(&self) -> Json {
        Json::str(self.label())
    }

    fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
        parse_algo(v.as_str().ok_or(ScenarioError::Field(key))?)
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }

    fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
        let items = v.as_arr().ok_or(ScenarioError::Field(key))?;
        items.iter().map(|item| T::read(item, key)).collect()
    }
}

impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }

    fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, key).map(Some),
        }
    }

    fn missing(_key: &'static str) -> Result<Self, ScenarioError> {
        Ok(None)
    }
}

/// The field table of a struct: `fields!(Type { a, b })` writes the
/// object `{"a":…,"b":…}` and reads it back into `Type { a, b }`.
/// Expands where `Field`, `Json` and `ScenarioError` are in scope.
macro_rules! fields {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl Field for $ty {
            fn to_json(&self) -> Json {
                Json::Obj(vec![$((stringify!($f).into(), Field::to_json(&self.$f))),*])
            }

            fn read(v: &Json, _key: &'static str) -> Result<Self, ScenarioError> {
                Ok($ty { $($f: Field::get(v, stringify!($f))?),* })
            }
        }
    };
}
pub(crate) use fields;

/// The tag key of a `tagged!` enum's objects.
const KIND: &str = "kind";

/// The field table of a `kind`-tagged enum: `tagged!(Type { Variant =
/// "tag" { a, b }, … })` writes `{"kind":"tag","a":…,"b":…}` and reads it
/// back into `Type::Variant { a, b }`; an unknown tag is refused.
macro_rules! tagged {
    ($ty:ident { $($var:ident = $tag:literal { $($f:ident),* $(,)? }),* $(,)? }) => {
        impl Field for $ty {
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$var { $($f),* } => Json::Obj(vec![
                        (KIND.into(), Json::str($tag)),
                        $((stringify!($f).into(), Field::to_json($f))),*
                    ]),)*
                }
            }

            fn read(v: &Json, key: &'static str) -> Result<Self, ScenarioError> {
                match v.get(KIND).and_then(Json::as_str) {
                    $(Some($tag) => Ok($ty::$var { $($f: Field::get(v, stringify!($f))?),* }),)*
                    _ => Err(ScenarioError::Field(key)),
                }
            }
        }
    };
}

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

fields!(LinkSpec {
    delay_us,
    rate_kbps,
    loss_ppm,
    queue_bytes
});

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

tagged!(Workload {
    TcpBulk = "tcp_bulk" { algo, total_bytes, start_ms },
    TcpStream = "tcp_stream" { algo, start_ms, stop_ms },
    UdpBlast = "udp_blast" { rate_kbps, payload, stop_ms },
    Ping = "ping" { count, interval_ms, size },
});

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

fields!(ClientSpec { up, down, workload });

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

tagged!(FaultSpec {
    AccessFlap = "access_flap" { client, up, start_ms, end_ms, period_ms, down_ppm },
    AccessCorruption = "access_corruption" { client, up, start_ms, duration_ms, prob_ppm },
    AccessFade = "access_fade" { client, start_ms, duration_ms, condition_code },
    BackboneOutage = "backbone_outage" { hop, start_ms, duration_ms },
    RouterBlackout = "router_blackout" { router, start_ms, duration_ms },
});

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
    pub(crate) fn client_mut(&mut self) -> Option<&mut usize> {
        match self {
            FaultSpec::AccessFlap { client, .. }
            | FaultSpec::AccessCorruption { client, .. }
            | FaultSpec::AccessFade { client, .. } => Some(client),
            _ => None,
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

fields!(CollectorSpec {
    session_rate_milli,
    session_burst,
    queue_batches,
    global_bytes,
    drain_bytes_per_sec
});

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

fields!(StorageFaultSpec {
    seed,
    torn_writes,
    bit_rots,
    enospc,
    crashes,
    retain
});

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
    pub cities: u32,
    /// Campaign length, days.
    pub days: u64,
    /// Worker count for the sharded run (the reference run is always
    /// unsharded).
    pub shards: u64,
    /// Mean pages per user-day, thousandths.
    pub pages_per_day_milli: u64,
}

fields!(PopulationSpec {
    seed,
    users,
    cities,
    days,
    shards,
    pages_per_day_milli
});

impl PopulationSpec {
    /// The scaled-campaign configuration this spec describes.
    pub fn config(&self) -> starlink_telemetry::ScaleConfig {
        starlink_telemetry::ScaleConfig {
            seed: self.seed,
            users: self.users,
            cities: self.cities,
            days: self.days,
            pages_per_day_milli: self.pages_per_day_milli,
        }
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

fields!(TelemetrySpec {
    seed,
    days,
    pages_per_day_milli,
    fault_storm,
    collector,
    storage,
    population
});

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

fields!(Scenario {
    seed,
    horizon_ms,
    routers,
    clients,
    faults,
    telemetry,
    flow_mix
});

/// The key of a scenario document's format version, its first key.
const VERSION: &str = "version";

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
        let mut doc = vec![(VERSION.into(), Json::u64(1))];
        if let Json::Obj(fields) = Field::to_json(self) {
            doc.extend(fields);
        }
        Json::Obj(doc).render()
    }

    /// Loads a scenario from its JSON document.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse(text).map_err(ScenarioError::Json)?;
        if u64::get(&doc, VERSION)? != 1 {
            return Err(ScenarioError::Field("unsupported version"));
        }
        let scenario = <Self as Field>::from_json(&doc)?;
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
pub(crate) fn parse_algo(label: &str) -> Result<CcAlgorithm, ScenarioError> {
    CcAlgorithm::ALL
        .into_iter()
        .find(|a| a.label().eq_ignore_ascii_case(label))
        .ok_or(ScenarioError::Field("unknown congestion-control label"))
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

    /// Two documents that between them hold every workload kind, every
    /// fault kind, each telemetry sub-spec present and absent, and a flow
    /// mix present and absent.
    fn every_variant() -> [Scenario; 2] {
        let link = |delay_us, rate_kbps| LinkSpec {
            delay_us,
            rate_kbps,
            loss_ppm: 250,
            queue_bytes: 48_000,
        };
        let client = |workload| ClientSpec {
            up: link(7_000, 3_000),
            down: link(9_000, 20_000),
            workload,
        };
        let first = Scenario {
            seed: 0x5EED_0036,
            horizon_ms: 9_000,
            routers: 3,
            clients: vec![
                client(Workload::TcpBulk {
                    algo: CcAlgorithm::Vegas,
                    total_bytes: 400_000,
                    start_ms: 50,
                }),
                client(Workload::TcpStream {
                    algo: CcAlgorithm::Bbr2,
                    start_ms: 10,
                    stop_ms: 8_000,
                }),
                client(Workload::UdpBlast {
                    rate_kbps: 1_200,
                    payload: 1_000,
                    stop_ms: 6_000,
                }),
                client(Workload::Ping {
                    count: 12,
                    interval_ms: 500,
                    size: 84,
                }),
            ],
            faults: vec![
                FaultSpec::AccessFlap {
                    client: 0,
                    up: true,
                    start_ms: 500,
                    end_ms: 4_500,
                    period_ms: 1_000,
                    down_ppm: 20_000,
                },
                FaultSpec::AccessCorruption {
                    client: 1,
                    up: false,
                    start_ms: 1_000,
                    duration_ms: 300,
                    prob_ppm: 50_000,
                },
                FaultSpec::AccessFade {
                    client: 3,
                    start_ms: 2_000,
                    duration_ms: 1_500,
                    condition_code: 6,
                },
                FaultSpec::BackboneOutage {
                    hop: 1,
                    start_ms: 3_000,
                    duration_ms: 200,
                },
                FaultSpec::RouterBlackout {
                    router: 2,
                    start_ms: 5_000,
                    duration_ms: 100,
                },
            ],
            telemetry: Some(TelemetrySpec {
                seed: 7,
                days: 3,
                pages_per_day_milli: 4_250,
                fault_storm: false,
                collector: Some(CollectorSpec {
                    session_rate_milli: 1_500,
                    session_burst: 3,
                    queue_batches: 8,
                    global_bytes: 64_000,
                    drain_bytes_per_sec: 9_000,
                }),
                storage: None,
                population: Some(PopulationSpec {
                    seed: 11,
                    users: 120,
                    cities: 30,
                    days: 1,
                    shards: 2,
                    pages_per_day_milli: 3_000,
                }),
            }),
            flow_mix: Some(FlowMixSpec {
                seed: 0xFA1E_0036,
                mix: vec![CcAlgorithm::Veno, CcAlgorithm::Cubic],
                bottleneck_kbps: 6_000,
                queue_bytes: 16_000,
                access_delay_us: 12_000,
                duration_ms: 2_000,
            }),
        };
        let mut second = first.clone();
        second.telemetry = Some(TelemetrySpec {
            fault_storm: true,
            collector: None,
            storage: Some(StorageFaultSpec {
                seed: 5,
                torn_writes: 1,
                bit_rots: 0,
                enospc: 1,
                crashes: 2,
                retain: 3,
            }),
            population: None,
            ..first.telemetry.unwrap()
        });
        second.flow_mix = None;
        [first, second]
    }

    /// The bytes [`every_variant`] renders, frozen: saved artefacts
    /// depend on every key, on the key order and on each value's form.
    const EVERY_VARIANT_BYTES: [&str; 2] = [
        r#"{"version":1,"seed":1592590390,"horizon_ms":9000,"routers":3,"clients":[{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"tcp_bulk","algo":"VEGAS","total_bytes":400000,"start_ms":50}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"tcp_stream","algo":"BBR2","start_ms":10,"stop_ms":8000}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"udp_blast","rate_kbps":1200,"payload":1000,"stop_ms":6000}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"ping","count":12,"interval_ms":500,"size":84}}],"faults":[{"kind":"access_flap","client":0,"up":true,"start_ms":500,"end_ms":4500,"period_ms":1000,"down_ppm":20000},{"kind":"access_corruption","client":1,"up":false,"start_ms":1000,"duration_ms":300,"prob_ppm":50000},{"kind":"access_fade","client":3,"start_ms":2000,"duration_ms":1500,"condition_code":6},{"kind":"backbone_outage","hop":1,"start_ms":3000,"duration_ms":200},{"kind":"router_blackout","router":2,"start_ms":5000,"duration_ms":100}],"telemetry":{"seed":7,"days":3,"pages_per_day_milli":4250,"fault_storm":false,"collector":{"session_rate_milli":1500,"session_burst":3,"queue_batches":8,"global_bytes":64000,"drain_bytes_per_sec":9000},"storage":null,"population":{"seed":11,"users":120,"cities":30,"days":1,"shards":2,"pages_per_day_milli":3000}},"flow_mix":{"seed":4196270134,"mix":["VENO","CUBIC"],"bottleneck_kbps":6000,"queue_bytes":16000,"access_delay_us":12000,"duration_ms":2000}}"#,
        r#"{"version":1,"seed":1592590390,"horizon_ms":9000,"routers":3,"clients":[{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"tcp_bulk","algo":"VEGAS","total_bytes":400000,"start_ms":50}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"tcp_stream","algo":"BBR2","start_ms":10,"stop_ms":8000}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"udp_blast","rate_kbps":1200,"payload":1000,"stop_ms":6000}},{"up":{"delay_us":7000,"rate_kbps":3000,"loss_ppm":250,"queue_bytes":48000},"down":{"delay_us":9000,"rate_kbps":20000,"loss_ppm":250,"queue_bytes":48000},"workload":{"kind":"ping","count":12,"interval_ms":500,"size":84}}],"faults":[{"kind":"access_flap","client":0,"up":true,"start_ms":500,"end_ms":4500,"period_ms":1000,"down_ppm":20000},{"kind":"access_corruption","client":1,"up":false,"start_ms":1000,"duration_ms":300,"prob_ppm":50000},{"kind":"access_fade","client":3,"start_ms":2000,"duration_ms":1500,"condition_code":6},{"kind":"backbone_outage","hop":1,"start_ms":3000,"duration_ms":200},{"kind":"router_blackout","router":2,"start_ms":5000,"duration_ms":100}],"telemetry":{"seed":7,"days":3,"pages_per_day_milli":4250,"fault_storm":true,"collector":null,"storage":{"seed":5,"torn_writes":1,"bit_rots":0,"enospc":1,"crashes":2,"retain":3},"population":null},"flow_mix":null}"#,
    ];

    #[test]
    fn every_variant_renders_the_parent_bytes() {
        for (s, bytes) in every_variant().into_iter().zip(EVERY_VARIANT_BYTES) {
            assert_eq!(s.to_json(), bytes);
            assert_eq!(Scenario::from_json(bytes).unwrap(), s);
        }
    }

    #[test]
    fn out_of_range_integers_are_refused() {
        // 259 would truncate to 3, a valid weather code, and replay a
        // different fade; 2^32 + 30 would truncate to 30 cities.
        let [first, _] = every_variant();
        let text = first.to_json();
        for (from, to, key) in [
            (
                "\"condition_code\":6",
                "\"condition_code\":259",
                "condition_code",
            ),
            ("\"cities\":30", "\"cities\":4294967326", "cities"),
        ] {
            assert!(text.contains(from));
            assert_eq!(
                Scenario::from_json(&text.replace(from, to)),
                Err(ScenarioError::Field(key))
            );
        }
    }
}

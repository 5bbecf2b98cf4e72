//! # starlink-telemetry
//!
//! The browser-extension measurement pipeline — §3.1 of the paper,
//! end to end:
//!
//! * [`population`] — the 28-user deployment (18 Starlink users across
//!   10 cities in the UK, EU, USA and Australia, plus the non-Starlink
//!   comparison users), with the paper's anonymisation rules baked in:
//!   users are random identifiers, never IPs;
//! * [`aschange`] — the exit-AS timeline: Starlink traffic initially
//!   egressed from Google's AS36492 and moved to SpaceX's AS14593 between
//!   16–24 Feb 2022 in London and 1–2 Apr 2022 in Sydney (Seattle was on
//!   AS14593 throughout) — the natural experiment behind Fig. 3;
//! * [`records`] — the anonymised page-load and speedtest records the
//!   extension uploads, and the [`records::Dataset`] store with the
//!   city-wise aggregations of Table 1;
//! * [`pipeline`] — the six-month campaign driver: browsing sessions,
//!   weather exposure, occasional user-triggered speedtests;
//! * [`wire`] — the versioned, checksummed format record batches travel
//!   in, with typed decode errors for truncation and corruption;
//! * [`ingest`] — the resilient upload path: per-user buffering, SLCS
//!   sessions into the collector service, bounded retries with
//!   virtual-time backoff, offline spooling under churn, and a
//!   validating, de-duplicating, quarantining [`ingest::Collector`]
//!   with ground-truth coverage accounting;
//! * [`retry`] — the shared capped, jittered, virtual-time exponential
//!   backoff policy every session client uses;
//! * [`slcs`] — SLCS v1, the framed session protocol
//!   (HELLO/BATCH/ACK/REJECT/DRAIN) every batch travels inside;
//! * [`server`] — the collector-as-a-service admission layer: per-session
//!   token buckets, a bounded drain queue, a global byte budget, and
//!   typed load shedding;
//! * [`client`] — the extension side of a session, plus the
//!   deterministic synthetic batches the load generator uploads;
//! * [`checkpoint`] — checkpoint/resume for the day-major campaign
//!   driver and the standalone collector server: a killed run resumes
//!   byte-identically;
//! * [`scale`] — the population-scale model: a 100+-city catalogue
//!   anchored on the paper's real locations, a struct-of-arrays
//!   subscriber population (~10⁶ users) with per-city weights, and the
//!   shared diurnal browse curve with longitude-derived time zones;
//! * [`shard`] — the deterministic sharded campaign engine: contiguous
//!   user shards claimed by workers, per-shard ledgers merged in shard
//!   order, so coverage, digests and traces are byte-identical at any
//!   worker count;
//! * [`storage`] — crash-consistent checkpoint storage: a journaled
//!   last-good chain of generation files behind a CRC-sealed MANIFEST,
//!   over a faultable [`storage::DiskEnv`] that injects torn writes,
//!   bit rot, `ENOSPC`, and crash-around-rename at seeded indices;
//! * [`loader`] — the load generator's reconnect logic: after a server
//!   restart that recovered an older checkpoint generation, re-verify
//!   the ACK frontier and resend the gap instead of assuming it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aschange;
pub mod checkpoint;
pub mod client;
pub mod ingest;
pub mod loader;
pub mod pipeline;
pub mod population;
pub mod records;
pub mod retry;
pub mod scale;
pub mod server;
pub mod shard;
pub mod slcs;
pub mod storage;
pub mod wire;

pub use aschange::{ExitAs, AS_GOOGLE, AS_SPACEX};
pub use checkpoint::{
    decode_server_checkpoint, encode_server_checkpoint, CheckpointError, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
pub use client::{synthetic_batch, ServerReply, SessionClient};
pub use ingest::{
    Collection, Collector, CoverageColumns, CoverageReport, CoverageTotals, IngestOptions,
    Ingested, QuarantinedBatch, ResilientCampaign, UserCoverage,
};
pub use loader::{LoaderUser, ReconnectOutcome};
pub use pipeline::{Campaign, CampaignConfig, UserDay};
pub use population::{IspClass, Population, PopulationColumns, User};
pub use records::{Dataset, PageRecord, SpeedtestRecord};
pub use retry::RetryPolicy;
pub use scale::{CityCatalog, DiurnalCurve, ScaleConfig, ScaledPopulation};
pub use server::{AdmissionConfig, CollectorServer, ServerStats};
pub use shard::{CampaignLedger, CityCoverage, ScaledCampaign, ShardPlan};
pub use slcs::{AckStatus, Frame, ShedReason, SLCS_HEADER_LEN, SLCS_MAGIC, SLCS_VERSION};
pub use storage::{
    decode_manifest, encode_manifest, generation_name, parse_generation_name, CheckpointStore,
    DiskEnv, FaultyDisk, Manifest, OpenFailure, RealDisk, RecoveredCheckpoint, SimDisk,
    StorageError, StorageFault, StorageFaultPlan, StoreStats, DEFAULT_RETAIN, MANIFEST_MAGIC,
    MANIFEST_NAME, MANIFEST_VERSION, QUARANTINE_DIR,
};
pub use wire::{RecordBatch, WireError};

//! Resilient telemetry ingestion: lossy uploads, quarantine, churn.
//!
//! The paper's dataset was collected by a browser extension POSTing
//! buffered measurements over the very Starlink links being measured —
//! an upload path that suffers the same outages, loss bouts and
//! corruption as the payload describes. This module closes that loop
//! for the reproduction:
//!
//! * each simulated user buffers one [`crate::pipeline::UserDay`] of
//!   records and uploads it as a checksummed [`crate::wire`] batch;
//! * the uplink is a star network ([`ResilientCampaign`] topology
//!   conventions below) whose faults come from a PR-1 [`FaultPlan`] —
//!   outages force bounded retries with exponential backoff in *virtual*
//!   time, churned (offline) users spool batches for later days;
//! * the [`Collector`] validates every upload, de-duplicates re-sends
//!   (lost ACKs make uploads idempotent, not exactly-once), and
//!   quarantines malformed batches with machine-readable reasons;
//! * the collector fronts as a [`crate::server::CollectorServer`]: every
//!   upload is an SLCS session (HELLO → BATCH → ACK/REJECT, built and
//!   parsed by [`crate::client::SessionClient`]) through admission
//!   control under [`IngestOptions::admission`], and overload sheds
//!   batches with typed REJECTs the client answers with backoff and
//!   spooling;
//! * ground-truth accounting guarantees that, per user,
//!   `delivered + quarantined + shed + lost = generated` — the
//!   dataset's coverage is *known*, never silently eroded, even when
//!   the server is drowning. Those five columns are the
//!   [`CoverageLedger`], the one ledger this driver and the
//!   population-scale [`crate::shard::ScaledCampaign`] both keep; the
//!   [`CoverageReport`] wraps it with each user's city and the two
//!   columns only this driver has (deduplicated re-sends and retries).
//!
//! Determinism contract: the same `(CampaignConfig, IngestOptions)`
//! yields a byte-identical final [`Dataset`] whether the campaign runs
//! straight through or is checkpointed, killed and resumed any number of
//! times (see [`crate::checkpoint`]).

use crate::client::{ServerReply, SessionClient};
use crate::pipeline::{Campaign, CampaignConfig};
use crate::records::{Dataset, PageRecord, SpeedtestRecord};
use crate::retry::RetryPolicy;
use crate::server::{AdmissionConfig, CollectorServer};
use crate::slcs::AckStatus;
use crate::wire::{decode_batch, encode_batch, peek_header, RecordBatch, WireError};
use starlink_faults::{CompiledPlan, FaultPlan, LinkRef};
use starlink_netsim::{FaultEffect, LinkConfig, Network, NodeId, NodeKind};
use starlink_simcore::{SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// UTC second-of-day at which uploads begin (20:00 — the extension
/// flushed in the evening, when its users were browsing anyway).
const UPLOAD_SECS_OF_DAY: u64 = 72_000;
/// Per-user stagger between upload start times, seconds.
const UPLOAD_STAGGER_SECS: u64 = 97;

/// Knobs of the resilient upload path.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Faults applied to the uplink star network (see the topology
    /// conventions on [`ResilientCampaign`]).
    pub plan: FaultPlan,
    /// Upload attempts beyond the first before a batch is spooled.
    pub max_retries: u32,
    /// First retry backoff; attempt `k` waits `base_backoff * 2^k`
    /// (virtual time, with deterministic jitter).
    pub base_backoff: SimDuration,
    /// Days a spooled batch survives before it is declared lost.
    pub spool_days: u64,
    /// Probability that a successful upload's ACK is lost, causing an
    /// idempotent re-upload the next day.
    pub ack_loss: f64,
    /// Admission budgets of the [`CollectorServer`] every upload
    /// travels through as SLCS frames.
    pub admission: AdmissionConfig,
}

impl IngestOptions {
    /// A perfect uplink: no faults, no ACK loss. With these options the
    /// collected dataset equals [`Campaign::run`]'s, canonically sorted.
    pub fn perfect() -> Self {
        IngestOptions {
            plan: FaultPlan::new(),
            max_retries: 6,
            base_backoff: SimDuration::from_secs(30),
            spool_days: 3,
            ack_loss: 0.0,
            admission: AdmissionConfig::generous(),
        }
    }

    /// A deterministic fault storm for `users` users over `days` days:
    /// evening collector blackouts (retry pressure), burst corruption on
    /// a quarter of the uplinks (quarantines), link flaps on another
    /// quarter (loss + retries), multi-day user churn (spooling), and
    /// lossy ACKs (duplicate re-uploads). The plan is pure arithmetic —
    /// no randomness — so two storms over the same shape are identical.
    pub fn fault_storm(users: usize, days: u64) -> Self {
        let mut plan = FaultPlan::new();
        let day = |d: u64| d * 86_400;
        for d in 0..days {
            // Collector PoP blackout 20:05–20:35 every fifth day.
            if d % 5 == 2 {
                plan.gateway_blackout(
                    ResilientCampaign::COLLECTOR,
                    SimTime::from_secs(day(d) + UPLOAD_SECS_OF_DAY + 300),
                    SimDuration::from_mins(30),
                );
            }
            for i in 0..users {
                match i % 4 {
                    // Burst corruption across the whole upload window.
                    1 => {
                        plan.burst_corruption(
                            ResilientCampaign::uplink(i),
                            SimTime::from_secs(day(d) + UPLOAD_SECS_OF_DAY - 3_600),
                            SimDuration::from_hours(4),
                            0.35,
                        );
                    }
                    // Evening link flaps: 2 min period, 40% down.
                    2 => {
                        plan.link_flap(
                            ResilientCampaign::uplink(i),
                            SimTime::from_secs(day(d) + UPLOAD_SECS_OF_DAY),
                            SimTime::from_secs(day(d) + UPLOAD_SECS_OF_DAY + 7_200),
                            SimDuration::from_mins(2),
                            0.4,
                        );
                    }
                    _ => {}
                }
            }
        }
        // User churn: every fifth user disappears for two days each week
        // (holiday, power cut, dish packed away) and uploads catch up
        // from the spool afterwards.
        for i in (0..users).filter(|i| i % 5 == 3) {
            let mut d = 2 + (i as u64 % 3);
            while d < days {
                plan.node_dropout(
                    ResilientCampaign::user_node(i),
                    SimTime::from_secs(day(d)),
                    SimDuration::from_days(2),
                );
                d += 7;
            }
        }
        IngestOptions {
            plan,
            max_retries: 6,
            base_backoff: SimDuration::from_secs(30),
            spool_days: 3,
            ack_loss: 0.05,
            admission: AdmissionConfig::generous(),
        }
    }

    /// The retry policy this configuration implies, carried by every
    /// session the campaign opens.
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(self.max_retries, self.base_backoff)
    }
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

/// What the collector did with one upload.
#[derive(Debug, Clone, PartialEq)]
pub enum Ingested {
    /// The batch validated and was new: its records are in the dataset.
    Accepted {
        /// Page records ingested.
        pages: u64,
        /// Speedtest records ingested.
        speedtests: u64,
    },
    /// A batch with this `(user, seq)` was already accepted; nothing was
    /// ingested (idempotent re-upload).
    Duplicate,
    /// The batch failed validation and was quarantined.
    Quarantined {
        /// Why it failed to decode.
        reason: WireError,
    },
}

/// The ACK status a session reports for an ingested batch.
impl From<&Ingested> for AckStatus {
    fn from(ingested: &Ingested) -> Self {
        match ingested {
            Ingested::Accepted { .. } => AckStatus::Accepted,
            Ingested::Duplicate => AckStatus::Duplicate,
            Ingested::Quarantined { .. } => AckStatus::Quarantined,
        }
    }
}

/// One quarantined upload: never silently dropped, always explained.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedBatch {
    /// Stable machine-readable reason ([`WireError::code`]).
    pub reason_code: &'static str,
    /// Human-readable detail (the [`WireError`] rendering).
    pub detail: String,
    /// The uploader, if the header survived the damage.
    pub user: Option<u64>,
    /// The upload sequence number, if readable.
    pub seq: Option<u64>,
    /// Records the (untrusted) header claimed to carry.
    pub claimed_records: Option<u64>,
    /// Size of the received upload, bytes.
    pub wire_len: u64,
    /// When the upload arrived.
    pub at: SimTime,
}

/// The ingestion endpoint: validates, de-duplicates and quarantines.
///
/// `submit` is idempotent in `(user, seq)`: a re-upload of an
/// already-accepted batch is reported (and counted) as a duplicate, not
/// ingested twice. Malformed uploads are never silently dropped — each
/// one becomes a [`QuarantinedBatch`] carrying the typed decode error.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    pub(crate) seen: BTreeSet<(u64, u64)>,
    pub(crate) pages: Vec<PageRecord>,
    pub(crate) speedtests: Vec<SpeedtestRecord>,
    pub(crate) duplicates: u64,
    pub(crate) quarantine: Vec<QuarantinedBatch>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Ingests one upload, returning what happened to it.
    pub fn submit(&mut self, bytes: &[u8], at: SimTime) -> Ingested {
        match decode_batch(bytes) {
            Ok(batch) => {
                if !self.seen.insert((batch.user, batch.seq)) {
                    self.duplicates += batch.len() as u64;
                    starlink_obsv::counter_add("telemetry.ingest.duplicates", 1);
                    return Ingested::Duplicate;
                }
                let (p, s) = (batch.pages.len() as u64, batch.speedtests.len() as u64);
                self.pages.extend(batch.pages);
                self.speedtests.extend(batch.speedtests);
                starlink_obsv::counter_add("telemetry.ingest.accepted", 1);
                starlink_obsv::counter_add("telemetry.ingest.records", p + s);
                Ingested::Accepted {
                    pages: p,
                    speedtests: s,
                }
            }
            Err(reason) => {
                starlink_obsv::counter_add("telemetry.ingest.quarantined", 1);
                let peek = peek_header(bytes);
                self.quarantine.push(QuarantinedBatch {
                    reason_code: reason.code(),
                    detail: reason.to_string(),
                    user: peek.user,
                    seq: peek.seq,
                    claimed_records: peek.claimed_records,
                    wire_len: bytes.len() as u64,
                    at,
                });
                Ingested::Quarantined { reason }
            }
        }
    }

    /// Batches accepted so far.
    pub fn accepted_batches(&self) -> usize {
        self.seen.len()
    }

    /// Records rejected as duplicates so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The quarantined uploads, in arrival order.
    pub fn quarantine(&self) -> &[QuarantinedBatch] {
        &self.quarantine
    }

    /// The accepted records as a canonically-sorted [`Dataset`].
    pub fn dataset(&self) -> Dataset {
        let mut ds = Dataset {
            pages: self.pages.clone(),
            speedtests: self.speedtests.clone(),
        };
        ds.sort_canonical();
        ds
    }
}

// ---------------------------------------------------------------------
// Coverage accounting
// ---------------------------------------------------------------------

/// Aggregated coverage numbers (whole campaign, one city, or one shard's
/// day).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageTotals {
    /// Total records generated.
    pub generated: u64,
    /// Total records delivered.
    pub delivered: u64,
    /// Total records quarantined.
    pub quarantined: u64,
    /// Total records shed by admission control.
    pub shed: u64,
    /// Total records lost.
    pub lost: u64,
    /// Total duplicate records deduplicated.
    pub duplicates: u64,
    /// Total retries.
    pub retries: u64,
}

impl CoverageTotals {
    /// Totals of the five ledger columns, in [`CoverageLedger`] order.
    fn of_ledger([generated, delivered, quarantined, shed, lost]: [u64; 5]) -> Self {
        CoverageTotals {
            generated,
            delivered,
            quarantined,
            shed,
            lost,
            ..CoverageTotals::default()
        }
    }

    /// Fraction delivered (1.0 when nothing was generated).
    pub fn delivered_fraction(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }
}

impl std::ops::AddAssign for CoverageTotals {
    fn add_assign(&mut self, o: CoverageTotals) {
        self.generated += o.generated;
        self.delivered += o.delivered;
        self.quarantined += o.quarantined;
        self.shed += o.shed;
        self.lost += o.lost;
        self.duplicates += o.duplicates;
        self.retries += o.retries;
    }
}

/// Ground-truth ingestion accounting, one entry per user (population
/// order) in each of the five columns the sum invariant relates — the
/// one ledger both campaign engines keep.
///
/// Invariant (checked by [`CoverageLedger::sums_hold`]):
/// `delivered + quarantined + shed + lost = generated` once a campaign
/// finishes (in-flight spooled records are declared lost at the end;
/// records whose final chain was refused by admission control are
/// declared shed).
///
/// The hot path of a campaign day increments exactly one counter per
/// batch outcome; keeping each counter in its own flat column means
/// those updates touch one cache line per column instead of striding
/// across whole rows, and a shard's ledger slice merges column-wise into
/// the global one ([`crate::shard`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageLedger {
    /// Records the user's extension generated.
    pub generated: Vec<u64>,
    /// Records accepted by the collector (first delivery only).
    pub delivered: Vec<u64>,
    /// Records in batches quarantined after in-flight corruption.
    pub quarantined: Vec<u64>,
    /// Records shed by server admission control: the batch's last upload
    /// chain ended in a typed REJECT and the spool gave up on it.
    pub shed: Vec<u64>,
    /// Records lost outright (spool expiry or campaign end).
    pub lost: Vec<u64>,
}

impl CoverageLedger {
    /// A zeroed ledger for `users` users.
    pub(crate) fn new(users: usize) -> Self {
        CoverageLedger {
            generated: vec![0; users],
            delivered: vec![0; users],
            quarantined: vec![0; users],
            shed: vec![0; users],
            lost: vec![0; users],
        }
    }

    /// Number of users the ledger tracks.
    pub fn len(&self) -> usize {
        self.generated.len()
    }

    /// Whether the ledger tracks no users.
    pub fn is_empty(&self) -> bool {
        self.generated.is_empty()
    }

    /// The five columns in checkpoint order.
    pub(crate) fn columns(&self) -> [&Vec<u64>; 5] {
        [
            &self.generated,
            &self.delivered,
            &self.quarantined,
            &self.shed,
            &self.lost,
        ]
    }

    /// The five columns in checkpoint order, for restoring them.
    pub(crate) fn columns_mut(&mut self) -> [&mut Vec<u64>; 5] {
        [
            &mut self.generated,
            &mut self.delivered,
            &mut self.quarantined,
            &mut self.shed,
            &mut self.lost,
        ]
    }

    /// Campaign-wide totals (`duplicates` and `retries` are 0: they live
    /// outside the ledger).
    pub fn totals(&self) -> CoverageTotals {
        CoverageTotals::of_ledger(self.columns().map(|c| c.iter().sum()))
    }

    /// Whether `delivered + quarantined + shed + lost == generated` holds
    /// for **every** user.
    pub fn sums_hold(&self) -> bool {
        (0..self.len()).all(|i| {
            self.delivered[i] + self.quarantined[i] + self.shed[i] + self.lost[i]
                == self.generated[i]
        })
    }

    /// Adds `delta` (users `start..start + delta.len()`, range-relative)
    /// into the ledger and returns the delta's totals.
    pub(crate) fn absorb_at(&mut self, start: usize, delta: &CoverageLedger) -> CoverageTotals {
        let mut sums = [0u64; 5];
        for ((column, part), sum) in self
            .columns_mut()
            .into_iter()
            .zip(delta.columns())
            .zip(&mut sums)
        {
            for (v, &d) in column[start..start + part.len()].iter_mut().zip(part) {
                *v += d;
                *sum += d;
            }
        }
        CoverageTotals::of_ledger(sums)
    }

    /// Folds the users into `groups` groups: entry `g` of each vector
    /// holds how many users `group_of` maps to `g`, and their totals.
    /// (One vector of pairs instead measured one 8 MB column more peak
    /// RSS in most `population_campaign` runs: glibc heap layout, not
    /// more live data.)
    pub(crate) fn per_group(
        &self,
        groups: usize,
        group_of: impl Fn(usize) -> usize,
    ) -> (Vec<u64>, Vec<CoverageTotals>) {
        let mut users = vec![0u64; groups];
        let mut out = vec![CoverageTotals::default(); groups];
        for u in 0..self.len() {
            let g = group_of(u);
            users[g] += 1;
            let t = &mut out[g];
            t.generated += self.generated[u];
            t.delivered += self.delivered[u];
            t.quarantined += self.quarantined[u];
            t.shed += self.shed[u];
            t.lost += self.lost[u];
        }
        (users, out)
    }
}

/// Per-user and per-city ingestion coverage of a resilient campaign:
/// the [`CoverageLedger`] plus what only the 28-user engine tracks.
#[derive(Debug, Clone, Default)]
pub struct CoverageReport {
    /// The sum-invariant columns, population order.
    pub ledger: CoverageLedger,
    /// Each user's city, parallel to the ledger.
    pub city: Vec<starlink_geo::City>,
    /// Records re-delivered and deduplicated (lost ACKs), per user;
    /// informational, outside the sum invariant.
    pub duplicates: Vec<u64>,
    /// Upload attempts beyond the first, summed over all the user's
    /// batches.
    pub retries: Vec<u64>,
}

impl CoverageReport {
    /// A zeroed report for users homed in `city`, population order.
    fn new(city: Vec<starlink_geo::City>) -> Self {
        let n = city.len();
        CoverageReport {
            ledger: CoverageLedger::new(n),
            city,
            duplicates: vec![0; n],
            retries: vec![0; n],
        }
    }

    /// Campaign-wide totals.
    pub fn total(&self) -> CoverageTotals {
        CoverageTotals {
            duplicates: self.duplicates.iter().sum(),
            retries: self.retries.iter().sum(),
            ..self.ledger.totals()
        }
    }

    /// Per-city totals, in [`starlink_geo::City::ALL`] order, cities with
    /// no users omitted.
    pub fn per_city(&self) -> Vec<(starlink_geo::City, CoverageTotals)> {
        let group_of = |u: usize| usize::from(self.city[u].code());
        let (users, mut groups) = self
            .ledger
            .per_group(starlink_geo::City::ALL.len(), group_of);
        for u in 0..self.city.len() {
            let t = &mut groups[group_of(u)];
            t.duplicates += self.duplicates[u];
            t.retries += self.retries[u];
        }
        starlink_geo::City::ALL
            .into_iter()
            .zip(users.into_iter().zip(groups))
            .filter(|(_, (users, _))| *users > 0)
            .map(|(city, (_, totals))| (city, totals))
            .collect()
    }

    /// Whether `delivered + quarantined + shed + lost = generated` holds
    /// for every user.
    pub fn sums_hold(&self) -> bool {
        self.ledger.sums_hold()
    }

    /// Campaign-wide delivered fraction.
    pub fn delivered_fraction(&self) -> f64 {
        self.total().delivered_fraction()
    }

    /// A fixed-width per-city table plus a totals line, for harness
    /// output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>11} {:>6} {:>7} {:>6} {:>8} {:>9}\n",
            "city",
            "generated",
            "delivered",
            "quarantined",
            "shed",
            "lost",
            "dup",
            "retries",
            "coverage"
        ));
        let mut row = |label: &str, t: &CoverageTotals| {
            out.push_str(&format!(
                "{:<12} {:>9} {:>9} {:>11} {:>6} {:>7} {:>6} {:>8} {:>8.1}%\n",
                label,
                t.generated,
                t.delivered,
                t.quarantined,
                t.shed,
                t.lost,
                t.duplicates,
                t.retries,
                100.0 * t.delivered_fraction()
            ));
        };
        for (city, totals) in self.per_city() {
            row(city.name(), &totals);
        }
        row("TOTAL", &self.total());
        out
    }
}

// ---------------------------------------------------------------------
// The resilient campaign driver
// ---------------------------------------------------------------------

/// A batch waiting in a user's offline spool for a later upload day.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpooledBatch {
    pub(crate) user_idx: usize,
    pub(crate) seq: u64,
    pub(crate) created_day: u64,
    pub(crate) pages: u32,
    pub(crate) speedtests: u32,
    /// Whether the records already reached the collector (the ACK was
    /// lost): the re-upload exists only to clear the client buffer, so
    /// no terminal outcome may count these records a second time.
    pub(crate) delivered: bool,
    /// Whether the most recent upload chain ended in a typed server
    /// REJECT: if the spool gives up on this batch it is accounted
    /// *shed* (admission control refused it), not *lost* (the network
    /// ate it).
    pub(crate) rejected: bool,
    pub(crate) bytes: Vec<u8>,
}

impl SpooledBatch {
    fn records(&self) -> u64 {
        u64::from(self.pages) + u64::from(self.speedtests)
    }
}

/// Everything a finished resilient campaign produced.
#[derive(Debug, Clone)]
pub struct Collection {
    /// The canonically-sorted collected dataset.
    pub dataset: Dataset,
    /// Per-user/per-city ground-truth coverage.
    pub coverage: CoverageReport,
    /// Every quarantined upload, with machine-readable reasons.
    pub quarantine: Vec<QuarantinedBatch>,
    /// Records rejected as duplicates (lost-ACK re-uploads).
    pub duplicates: u64,
}

/// What happened to one batch's upload chain on one day.
enum UploadOutcome {
    /// Accepted and ACKed: clear the batch.
    Accepted { retries: u64 },
    /// Accepted but the ACK was lost: records counted delivered, batch
    /// respooled and will be deduplicated on re-upload.
    AcceptedAckLost { retries: u64 },
    /// Re-upload of an already-accepted batch: clear it.
    DuplicateCleared { retries: u64 },
    /// Damaged in flight and quarantined by the collector: terminal (the
    /// transport ACKed receipt, so the extension cleared its buffer).
    Quarantined { retries: u64 },
    /// Every attempt failed: spool for the next day. `rejected` records
    /// whether the chain's failures included a typed server REJECT.
    Exhausted { retries: u64, rejected: bool },
    /// The user's node is down: no attempt possible, spool.
    Offline,
}

/// The day-major campaign driver with a resilient upload path.
///
/// Topology conventions (fixed, so [`FaultPlan`]s can be written without
/// a network in hand): node 0 is the collector, node `i + 1` is user
/// `i`, link `2 i` is user `i`'s uplink and link `2 i + 1` its downlink.
/// `ResilientCampaign::COLLECTOR`, `ResilientCampaign::user_node` and
/// [`ResilientCampaign::uplink`] encode these.
///
/// Unlike [`Campaign::run`] (user-major, kept byte-identical to the
/// seed corpus), this driver iterates day-major so a run can stop at any
/// day boundary, be checkpointed ([`ResilientCampaign::checkpoint`]) and
/// resumed ([`ResilientCampaign::resume`]) with a byte-identical final
/// dataset. Both orders consume identical per-user RNG streams.
pub struct ResilientCampaign {
    pub(crate) campaign: Campaign,
    pub(crate) options: IngestOptions,
    pub(crate) compiled: CompiledPlan,
    pub(crate) rngs: Vec<SimRng>,
    pub(crate) next_day: u64,
    pub(crate) spool: Vec<SpooledBatch>,
    pub(crate) collector: Collector,
    pub(crate) coverage: CoverageReport,
    /// The admission front-end enforcing `options.admission`. Not
    /// checkpointed: its transient state is reset at every day boundary
    /// ([`CollectorServer::end_of_day`]), so a resumed run rebuilds an
    /// equivalent server from the options.
    pub(crate) server: CollectorServer,
    /// Planted-bug hook (see
    /// [`ResilientCampaign::debug_skip_shed_accounting_every`]).
    debug_shed_miscount_every: u64,
    /// Shed-terminal batches seen so far, driving the hook's cadence.
    shed_events: u64,
}

impl std::fmt::Debug for ResilientCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientCampaign")
            .field("seed", &self.campaign.config().seed)
            .field("next_day", &self.next_day)
            .field("days", &self.campaign.config().days)
            .field("spooled", &self.spool.len())
            .field("accepted_batches", &self.collector.accepted_batches())
            .field("quarantined", &self.collector.quarantine.len())
            .finish_non_exhaustive()
    }
}

impl ResilientCampaign {
    /// The collector's node id (topology convention).
    const COLLECTOR: NodeId = NodeId(0);

    /// User `i`'s node id (topology convention).
    fn user_node(i: usize) -> NodeId {
        NodeId(i + 1)
    }

    /// User `i`'s uplink (topology convention).
    pub fn uplink(i: usize) -> LinkRef {
        LinkRef::Index(2 * i)
    }

    /// Builds the campaign, the star uplink network, and compiles the
    /// fault plan against it.
    ///
    /// # Panics
    /// Panics if `options.plan` references links or nodes outside the
    /// star topology — a scenario-construction bug, not a runtime fault.
    pub fn new(config: CampaignConfig, options: IngestOptions) -> Self {
        let campaign = Campaign::new(config);
        let users = campaign.population().users.len();

        let mut net = Network::new(campaign.config().seed ^ 0x0126_9E57);
        let collector = net.add_node("collector", NodeKind::Host);
        debug_assert_eq!(collector, Self::COLLECTOR);
        for i in 0..users {
            let node = net.add_node(&format!("user{i}"), NodeKind::Host);
            net.connect_duplex(
                node,
                collector,
                LinkConfig::ethernet(),
                LinkConfig::ethernet(),
            );
        }
        let compiled = options
            .plan
            .compile(&net)
            .expect("fault plan must fit the star uplink topology");

        let root = SimRng::seed_from(campaign.config().seed);
        let rngs = (0..users)
            .map(|i| root.stream("campaign.user").substream(i as u64))
            .collect();
        let coverage =
            CoverageReport::new(campaign.population().users.iter().map(|u| u.city).collect());

        let server = CollectorServer::new(options.admission);
        ResilientCampaign {
            campaign,
            options,
            compiled,
            rngs,
            next_day: 0,
            spool: Vec::new(),
            collector: Collector::new(),
            coverage,
            server,
            debug_shed_miscount_every: 0,
            shed_events: 0,
        }
    }

    /// The wrapped generative campaign.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// The ingestion options in force.
    pub fn options(&self) -> &IngestOptions {
        &self.options
    }

    /// The next day to simulate.
    pub fn next_day(&self) -> u64 {
        self.next_day
    }

    /// Whether every campaign day has been run.
    pub fn is_finished(&self) -> bool {
        self.next_day >= self.campaign.config().days
    }

    /// The coverage accounting so far (in-flight spool not yet counted).
    pub fn coverage(&self) -> CoverageReport {
        self.coverage.clone()
    }

    /// Batches currently waiting in offline spools.
    pub fn spooled(&self) -> usize {
        self.spool.len()
    }

    /// The admission front-end every upload travels through.
    pub fn server(&self) -> &CollectorServer {
        &self.server
    }

    /// Planted-bug hook mirroring netsim's
    /// `debug_skip_link_delivered_every`: every `every`-th batch that
    /// terminates as *shed* is silently dropped from the coverage
    /// ledger, breaking `delivered + quarantined + shed + lost ==
    /// generated`. Exists so the simtest swarm can prove its oracles
    /// catch shed miscounting; `0` (the default) disables it.
    pub fn debug_skip_shed_accounting_every(&mut self, every: u64) {
        self.debug_shed_miscount_every = every;
    }

    /// Applies the terminal outcome for a batch the spool is giving up
    /// on: already-delivered batches cost nothing, rejected batches are
    /// shed, the rest are lost.
    fn account_terminal(&mut self, b: &SpooledBatch) {
        if b.delivered {
            return;
        }
        if b.rejected {
            self.shed_events += 1;
            let every = self.debug_shed_miscount_every;
            if every > 0 && self.shed_events.is_multiple_of(every) {
                return; // planted bug: the records vanish from the ledger
            }
            self.coverage.ledger.shed[b.user_idx] += b.records();
        } else {
            self.coverage.ledger.lost[b.user_idx] += b.records();
        }
    }

    /// Runs the next day: spool catch-up, then generation and upload for
    /// every user. Returns `false` if the campaign was already finished.
    pub fn run_day(&mut self) -> bool {
        if self.is_finished() {
            return false;
        }
        let day = self.next_day;

        // Expire spooled batches that outlived the spool horizon.
        let spool_days = self.options.spool_days;
        let mut expired: Vec<SpooledBatch> = Vec::new();
        self.spool.retain(|b| {
            if day.saturating_sub(b.created_day) > spool_days {
                expired.push(b.clone());
                false
            } else {
                true
            }
        });
        for b in expired {
            self.account_terminal(&b);
        }

        // Catch up the spool, then generate and upload today's batches,
        // user-index order — a deterministic schedule.
        let carried = std::mem::take(&mut self.spool);
        for b in carried {
            self.drive_batch(b, day);
        }
        for i in 0..self.rngs.len() {
            let user = self.campaign.population().users[i].clone();
            let mut rng = std::mem::replace(&mut self.rngs[i], SimRng::seed_from(0));
            let generated = self.campaign.user_day(&user, day, &mut rng);
            self.rngs[i] = rng;

            let batch = RecordBatch {
                user: user.id,
                seq: day,
                pages: generated.pages,
                speedtests: generated.speedtests,
            };
            self.coverage.ledger.generated[i] += batch.len() as u64;
            let spooled = SpooledBatch {
                user_idx: i,
                seq: day,
                created_day: day,
                pages: batch.pages.len() as u32,
                speedtests: batch.speedtests.len() as u32,
                delivered: false,
                rejected: false,
                bytes: encode_batch(&batch),
            };
            self.drive_batch(spooled, day);
        }
        // Day boundary: reset transient admission state so a
        // checkpointed-and-resumed run (fresh server, re-HELLO) admits
        // identically to a straight-through one.
        self.server
            .end_of_day(SimTime::from_secs((day + 1) * 86_400));
        self.next_day += 1;
        true
    }

    /// Runs every remaining day and finishes.
    pub fn run_to_end(mut self) -> Collection {
        while self.run_day() {}
        self.finish()
    }

    /// Declares the campaign over: anything still spooled is accounted
    /// terminally (shed if admission refused it, lost otherwise), the
    /// server drains, and the collected dataset, coverage and quarantine
    /// are returned.
    pub fn finish(mut self) -> Collection {
        for b in std::mem::take(&mut self.spool) {
            self.account_terminal(&b);
        }
        let t = SimTime::from_secs(self.campaign.config().days * 86_400);
        let drain = SessionClient::new(0, 0, self.options.retry_policy()).drain();
        let _ = self.server.handle_frame(&mut self.collector, &drain, t);
        Collection {
            dataset: self.collector.dataset(),
            coverage: self.coverage,
            quarantine: self.collector.quarantine,
            duplicates: self.collector.duplicates,
        }
    }

    /// Drives one batch's upload chain for `day` and applies the outcome
    /// to coverage, collector and spool.
    fn drive_batch(&mut self, batch: SpooledBatch, day: u64) {
        let records = batch.records();
        let user_idx = batch.user_idx;
        match self.upload(&batch, day) {
            UploadOutcome::Accepted { retries } => {
                if !batch.delivered {
                    self.coverage.ledger.delivered[user_idx] += records;
                }
                self.coverage.retries[user_idx] += retries;
            }
            UploadOutcome::AcceptedAckLost { retries } => {
                if !batch.delivered {
                    self.coverage.ledger.delivered[user_idx] += records;
                }
                self.coverage.retries[user_idx] += retries;
                self.spool.push(SpooledBatch {
                    delivered: true,
                    ..batch
                });
            }
            UploadOutcome::DuplicateCleared { retries } => {
                self.coverage.duplicates[user_idx] += records;
                self.coverage.retries[user_idx] += retries;
            }
            UploadOutcome::Quarantined { retries } => {
                // A quarantined re-upload of an already-delivered batch
                // costs nothing: the records are safely in the dataset.
                if !batch.delivered {
                    self.coverage.ledger.quarantined[user_idx] += records;
                }
                self.coverage.retries[user_idx] += retries;
            }
            UploadOutcome::Exhausted { retries, rejected } => {
                self.coverage.retries[user_idx] += retries;
                // The latest chain's verdict supersedes older ones; a
                // chain with no attempts (Offline) preserves the flag.
                self.spool.push(SpooledBatch { rejected, ..batch });
            }
            UploadOutcome::Offline => {
                self.spool.push(batch);
            }
        }
    }

    /// The per-(user, seq, day) upload RNG: stateless derivation, so an
    /// interrupted run replays identical draws after resume.
    fn upload_rng(&self, user_idx: usize, seq: u64, day: u64) -> SimRng {
        SimRng::seed_from(self.campaign.config().seed)
            .stream("ingest.upload")
            .substream(user_idx as u64)
            .substream(seq)
            .substream(day)
    }

    fn link_effect(&self, link: usize, t: SimTime) -> FaultEffect {
        self.compiled
            .links
            .get(&link)
            .map(|s| s.effect_at(t))
            .unwrap_or(FaultEffect::NONE)
    }

    fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        self.compiled
            .nodes
            .get(&node)
            .map(|s| s.is_down_at(t))
            .unwrap_or(false)
    }

    /// Attempts to upload one batch with bounded retries and exponential
    /// backoff, entirely in virtual time. Every contact is one SLCS
    /// session exchange — HELLO, then BATCH — through the admission
    /// server; a typed REJECT extends the backoff chain by the server's
    /// hint instead of ending it. The order of the RNG draws (corrupt,
    /// damage, loss, ACK loss, backoff jitter) is frozen: the paper
    /// artefacts' datasets depend on it byte for byte.
    fn upload(&mut self, batch: &SpooledBatch, day: u64) -> UploadOutcome {
        let i = batch.user_idx;
        let user = self.campaign.population().users[i].id;
        let client = SessionClient::new(i as u64 + 1, user, self.options.retry_policy());
        let mut rng = self.upload_rng(i, batch.seq, day);
        let mut t =
            SimTime::from_secs(day * 86_400 + UPLOAD_SECS_OF_DAY + i as u64 * UPLOAD_STAGGER_SECS);
        if self.node_down(Self::user_node(i), t) {
            return UploadOutcome::Offline;
        }
        let mut rejected = false;
        for attempt in 0..client.policy().attempts() {
            let retries = attempt;
            if self.node_down(Self::user_node(i), t) {
                // Went offline mid-chain: spool what's left.
                return UploadOutcome::Exhausted { retries, rejected };
            }
            let effect = self.link_effect(2 * i, t);
            let reachable = !effect.down && !self.node_down(Self::COLLECTOR, t);
            // Server hint from a REJECT this attempt; stretches backoff.
            let mut retry_after = SimDuration::ZERO;
            if reachable {
                // Transport-level corruption damages the SLTB payload
                // *inside* a sound SLCS frame: framing survives (the
                // session layer has its own integrity), admission runs
                // normally, and the collector quarantines the payload.
                let corrupt = rng.bernoulli(effect.corrupt);
                let payload = if corrupt {
                    damage(&batch.bytes, &mut rng)
                } else {
                    batch.bytes.clone()
                };
                if corrupt || !rng.bernoulli(effect.extra_loss) {
                    // Open/refresh the session, then submit the batch.
                    let _ = self
                        .server
                        .handle_frame(&mut self.collector, &client.hello(), t);
                    let frame = client.batch(batch.seq, payload);
                    let reply = self.server.handle_frame(&mut self.collector, &frame, t);
                    match client
                        .parse_reply(&reply)
                        .expect("server replies are well-formed")
                    {
                        ServerReply::Ack { status, .. } => {
                            return match status {
                                AckStatus::Accepted => {
                                    if rng.bernoulli(self.options.ack_loss) {
                                        UploadOutcome::AcceptedAckLost { retries }
                                    } else {
                                        UploadOutcome::Accepted { retries }
                                    }
                                }
                                AckStatus::Duplicate => UploadOutcome::DuplicateCleared { retries },
                                AckStatus::Quarantined => UploadOutcome::Quarantined { retries },
                            };
                        }
                        ServerReply::Reject { retry_after_ns, .. } => {
                            rejected = true;
                            retry_after = SimDuration::from_nanos(retry_after_ns);
                            // Fall through to backoff and retry.
                        }
                    }
                }
                // else: lost in flight, fall through to backoff.
            }
            let backoff = client.policy().backoff(attempt, &mut rng);
            t = t.saturating_add(backoff.max(retry_after));
        }
        UploadOutcome::Exhausted {
            retries: u64::from(self.options.max_retries),
            rejected,
        }
    }
}

/// Damages `bytes` the way a corrupting channel does: either truncation
/// (connection died mid-transfer) or a handful of flipped bytes.
fn damage(bytes: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    if rng.bernoulli(0.35) {
        // Truncate somewhere strictly inside the frame.
        let keep = rng.below(out.len() as u64) as usize;
        out.truncate(keep);
    } else {
        let flips = 1 + rng.below(8);
        for _ in 0..flips {
            let at = rng.below(out.len() as u64) as usize;
            out[at] ^= (1 + rng.below(255)) as u8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireError;

    fn small_config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            days: 10,
            pages_per_day: 8.0,
            tranco_size: 50_000,
        }
    }

    #[test]
    fn perfect_ingest_reproduces_the_straight_run() {
        let config = small_config(21);
        let mut direct = Campaign::new(config.clone()).run();
        direct.sort_canonical();

        let collection = ResilientCampaign::new(config, IngestOptions::perfect()).run_to_end();
        assert_eq!(
            collection.dataset.digest(),
            direct.digest(),
            "a healthy collector service must be invisible to the dataset"
        );
        assert!(collection.quarantine.is_empty());
        assert_eq!(collection.duplicates, 0);
        let total = collection.coverage.total();
        assert_eq!(total.delivered, total.generated);
        assert_eq!(total.shed + total.lost + total.quarantined, 0);
        assert!(collection.coverage.sums_hold());
    }

    #[test]
    fn collector_deduplicates_re_uploads() {
        let batch = RecordBatch {
            user: 5,
            seq: 3,
            pages: vec![],
            speedtests: vec![],
        };
        let bytes = encode_batch(&batch);
        let mut collector = Collector::new();
        assert!(matches!(
            collector.submit(&bytes, SimTime::ZERO),
            Ingested::Accepted { .. }
        ));
        assert!(matches!(
            collector.submit(&bytes, SimTime::from_secs(1)),
            Ingested::Duplicate
        ));
        assert_eq!(collector.accepted_batches(), 1);
    }

    #[test]
    fn collector_quarantines_with_typed_reasons() {
        let bytes = encode_batch(&RecordBatch {
            user: 9,
            seq: 1,
            pages: vec![],
            speedtests: vec![],
        });
        let mut collector = Collector::new();
        let out = collector.submit(&bytes[..bytes.len() - 2], SimTime::ZERO);
        assert!(matches!(
            out,
            Ingested::Quarantined {
                reason: WireError::Truncated { .. }
            }
        ));
        let q = &collector.quarantine()[0];
        assert_eq!(q.reason_code, "truncated");
        assert_eq!(q.user, Some(9));
        assert_eq!(q.seq, Some(1));
    }

    #[test]
    fn fault_storm_coverage_sums_to_generated() {
        let config = small_config(33);
        let options = IngestOptions::fault_storm(28, config.days);
        let collection = ResilientCampaign::new(config, options).run_to_end();
        assert!(collection.coverage.sums_hold(), "coverage must sum to 100%");
        let total = collection.coverage.total();
        assert!(total.generated > 500, "{} generated", total.generated);
        // The storm must actually bite: quarantines, retries, and churn.
        assert!(!collection.quarantine.is_empty(), "no quarantines");
        assert!(total.retries > 0, "no retries");
        assert!(total.quarantined > 0, "no quarantined records");
        // But most data still arrives (it's a measurement campaign, not
        // a total blackout).
        assert!(
            collection.coverage.delivered_fraction() > 0.5,
            "only {:.0}% delivered",
            100.0 * collection.coverage.delivered_fraction()
        );
    }

    #[test]
    fn fault_storm_is_deterministic() {
        let run = |seed| {
            let config = small_config(seed);
            let options = IngestOptions::fault_storm(28, config.days);
            ResilientCampaign::new(config, options).run_to_end()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.dataset.digest(), b.dataset.digest());
        assert_eq!(a.coverage.total(), b.coverage.total());
        assert_eq!(a.quarantine.len(), b.quarantine.len());
        let c = run(8);
        assert_ne!(a.dataset.digest(), c.dataset.digest());
    }

    #[test]
    fn churned_users_catch_up_from_the_spool() {
        let config = small_config(11);
        let mut options = IngestOptions::perfect();
        // User 3 offline for days 2–3 (node 4 in the star topology).
        options.plan.node_dropout(
            ResilientCampaign::user_node(3),
            SimTime::from_secs(2 * 86_400),
            SimDuration::from_days(2),
        );
        let mut rc = ResilientCampaign::new(config, options);
        for _ in 0..4 {
            rc.run_day();
        }
        assert!(rc.spooled() >= 2, "offline days must spool");
        let collection = rc.run_to_end();
        // Spool horizon (3 days) covers the 2-day outage: nothing lost.
        let total = collection.coverage.total();
        assert_eq!(total.lost, 0, "spool must catch up after churn");
        assert_eq!(total.delivered, total.generated);
    }

    #[test]
    fn generous_admission_never_sheds_under_the_fault_storm() {
        // The assumption that makes routing every upload through the
        // admission server dataset-neutral: the default budget is never
        // the reason a batch is refused, even while the storm bites.
        let config = CampaignConfig {
            days: 30,
            ..small_config(33)
        };
        let options = IngestOptions::fault_storm(28, config.days);
        assert_eq!(options.admission, AdmissionConfig::generous());
        let mut rc = ResilientCampaign::new(config, options);
        assert_eq!(rc.campaign().population().users.len(), 28);
        while rc.run_day() {}
        assert_eq!(rc.server().stats().shed_total(), 0);
        assert!(rc.server().stats().accepted > 0);
        let collection = rc.finish();
        let total = collection.coverage.total();
        assert_eq!(total.shed, 0);
        assert!(total.retries > 0, "the storm must still bite");
        assert!(collection.coverage.sums_hold());
    }

    #[test]
    fn overloaded_service_sheds_but_conserves_exactly() {
        let config = small_config(33);
        let mut options = IngestOptions::fault_storm(28, config.days);
        options.admission = AdmissionConfig::overloaded();
        let mut rc = ResilientCampaign::new(config, options);
        while rc.run_day() {}
        assert!(
            rc.server().stats().shed_total() > 0,
            "overload must produce typed rejects"
        );
        let collection = rc.finish();
        let total = collection.coverage.total();
        assert!(total.shed > 0, "no records were terminally shed");
        assert!(total.delivered > 0, "server starved every user");
        // The headline invariant: overload degrades coverage, never the
        // ledger. Every generated record is accounted exactly once.
        assert!(collection.coverage.sums_hold());
        assert_eq!(
            total.delivered + total.quarantined + total.shed + total.lost,
            total.generated
        );
    }

    #[test]
    fn overloaded_service_is_deterministic() {
        let run = || {
            let config = small_config(9);
            let mut options = IngestOptions::fault_storm(28, config.days);
            options.admission = AdmissionConfig::overloaded();
            ResilientCampaign::new(config, options).run_to_end()
        };
        let a = run();
        let b = run();
        assert_eq!(a.dataset.digest(), b.dataset.digest());
        assert_eq!(a.coverage.total(), b.coverage.total());
    }

    #[test]
    fn planted_shed_miscount_breaks_the_ledger() {
        let config = small_config(33);
        let mut options = IngestOptions::fault_storm(28, config.days);
        options.admission = AdmissionConfig::overloaded();
        let mut rc = ResilientCampaign::new(config, options);
        rc.debug_skip_shed_accounting_every(1);
        while rc.run_day() {}
        let collection = rc.finish();
        assert!(
            !collection.coverage.sums_hold(),
            "the planted bug must be visible to the conservation check"
        );
    }

    #[test]
    fn coverage_report_renders_cities_and_totals() {
        let config = small_config(3);
        let collection = ResilientCampaign::new(config, IngestOptions::perfect()).run_to_end();
        let rendered = collection.coverage.render();
        assert!(rendered.contains("TOTAL"));
        assert!(rendered.contains("London"));
        assert!(rendered.contains("100.0%"));
        assert!(!collection.coverage.per_city().is_empty());
    }
}

//! Checkpoint/resume for the resilient campaign driver.
//!
//! A six-month measurement campaign must survive its own machine dying.
//! [`ResilientCampaign::checkpoint`] serialises the complete driver
//! state at a day boundary — per-user RNG states, coverage counters,
//! offline spools and the collector (accepted records, dedup set,
//! quarantine) — into a versioned, CRC-protected binary blob, and
//! [`ResilientCampaign::resume`] rebuilds the driver from it.
//!
//! Guarantees:
//!
//! * **byte-identity** — a run checkpointed, killed and resumed at any
//!   day boundary (any number of times) finishes with a dataset whose
//!   [`crate::records::Dataset::digest`] equals the straight-through
//!   run's;
//! * **scenario safety** — resuming under a different seed, campaign
//!   shape, or fault plan is refused with a typed
//!   [`CheckpointError::Mismatch`], because mixing states from two
//!   scenarios would silently fabricate a dataset no single scenario
//!   produced;
//! * **corruption safety** — a damaged checkpoint is refused, like any
//!   other damaged upload in this crate: the blob opens through the one
//!   sealed envelope of [`crate::wire`] (magic, version, the kind byte,
//!   then the CRC over the whole blob), so a truncated or bit-flipped
//!   blob fails its CRC unless its preamble already failed.

use crate::ingest::{Collector, IngestOptions, QuarantinedBatch, ResilientCampaign, SpooledBatch};
use crate::pipeline::CampaignConfig;
use crate::server::AdmissionConfig;
use crate::wire::{
    take_pages, take_speedtests, WireError, WireReader, WireWriter, PAGE_RECORD_LEN,
    SPEEDTEST_RECORD_LEN,
};
use starlink_simcore::{SimRng, SimTime};
use std::fmt;

/// The four magic bytes every checkpoint starts with.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"SLCP";
/// The current checkpoint format version. Version 2 added the blob-kind
/// byte, the admission budgets, per-user shed counters, and the spool
/// `rejected` flag.
pub(crate) const CHECKPOINT_VERSION: u16 = 2;
/// Bytes of the magic/version/kind preamble every checkpoint starts with.
const PREAMBLE_LEN: usize = 4 + 2 + 1;

/// Blob-kind byte: a full resilient-campaign driver state.
const KIND_CAMPAIGN: u8 = 1;
/// Blob-kind byte: a standalone collector-server dataset state (what the
/// `collector-serve` binary persists between kills).
const KIND_SERVER: u8 = 2;
/// Blob-kind byte: a population-scale sharded-campaign ledger
/// ([`crate::shard::ScaledCampaign`]).
pub(crate) const KIND_SCALED: u8 = 3;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob is structurally damaged (bad magic, truncation, CRC
    /// failure, …).
    Wire(WireError),
    /// The blob is intact but belongs to a different scenario: the named
    /// field differs between the checkpoint and the provided
    /// configuration/options.
    Mismatch {
        /// Which field disagreed.
        field: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Wire(e) => write!(f, "damaged checkpoint: {e}"),
            CheckpointError::Mismatch { field } => {
                write!(
                    f,
                    "checkpoint belongs to a different scenario ({field} differs)"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Wire(e)
    }
}

fn put_opt_u64(w: &mut WireWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.u64(x);
        }
        None => w.u8(0),
    }
}

fn get_opt_u64(r: &mut WireReader<'_>) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err(WireError::BadField { field: "option" }),
    }
}

/// Maps a decoded reason-code string back to the `'static` table the
/// quarantine API exposes, [`WireError::code`]'s own. Codes outside it
/// mean a corrupted (yet CRC-colliding) or future-format checkpoint.
fn intern_reason(code: &str) -> Result<&'static str, WireError> {
    WireError::CODES
        .into_iter()
        .find(|&k| k == code)
        .ok_or(WireError::BadField {
            field: "reason-code",
        })
}

/// Serialises the collector's complete state (dedup set, records,
/// quarantine) — shared by the campaign blob and the standalone server
/// blob so the two formats cannot drift. The collector keeps its records
/// in wire form, so each record region is written as one slice.
fn put_collector(w: &mut WireWriter, c: &Collector) {
    w.u32(c.seen.len() as u32);
    for &(user, seq) in &c.seen {
        w.u64(user);
        w.u64(seq);
    }
    w.u64(c.duplicates);
    w.u32((c.pages.len() / PAGE_RECORD_LEN) as u32);
    w.bytes(&c.pages);
    w.u32((c.speedtests.len() / SPEEDTEST_RECORD_LEN) as u32);
    w.bytes(&c.speedtests);
    w.u32(c.quarantine.len() as u32);
    for q in &c.quarantine {
        w.str(q.reason_code);
        w.str(&q.detail);
        put_opt_u64(w, q.user);
        put_opt_u64(w, q.seq);
        put_opt_u64(w, q.claimed_records);
        w.u64(q.wire_len);
        w.u64(q.at.as_nanos());
    }
}

/// The exact number of bytes [`put_collector`] writes for `c`, so a
/// blob of tens of megabytes is sealed in one allocation rather than
/// grown by doubling.
fn collector_len(c: &Collector) -> usize {
    let opt = |v: Option<u64>| if v.is_some() { 1 + 8 } else { 1 };
    let quarantine: usize = c
        .quarantine
        .iter()
        .map(|q| {
            4 + q.reason_code.len()
                + 4
                + q.detail.len()
                + opt(q.user)
                + opt(q.seq)
                + opt(q.claimed_records)
                + 8
                + 8
        })
        .sum();
    4 + c.seen.len() * 16 + 8 + 4 + c.pages.len() + 4 + c.speedtests.len() + 4 + quarantine
}

/// Takes `count` records of `len` bytes through `take` into one vector,
/// a block at a time, so that each block is still in cache when it is
/// copied.
fn copy_records(
    r: &mut WireReader<'_>,
    count: usize,
    len: usize,
    take: for<'a> fn(&mut WireReader<'a>, usize) -> Result<&'a [u8], WireError>,
) -> Result<Vec<u8>, WireError> {
    const BLOCK: usize = 512;
    let mut out = Vec::with_capacity(count.min(r.remaining() / len) * len);
    let mut left = count;
    while left > 0 {
        let n = left.min(BLOCK);
        out.extend_from_slice(take(r, n)?);
        left -= n;
    }
    Ok(out)
}

/// Inverse of [`put_collector`]. Each record region is checked a record
/// at a time, in order, and copied a block of checked records at a time;
/// a count is only trusted as far as the bytes left could hold it.
fn get_collector(r: &mut WireReader<'_>) -> Result<Collector, CheckpointError> {
    let mut c = Collector::new();
    let seen = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(seen.min(r.remaining() / 16));
    for _ in 0..seen {
        let user = r.u64()?;
        let seq = r.u64()?;
        pairs.push((user, seq));
    }
    // The pairs were written in order, so the set is built in one pass
    // rather than by an insert per pair.
    c.seen = pairs.into_iter().collect();
    c.duplicates = r.u64()?;
    let pages = r.u32()? as usize;
    c.pages = copy_records(r, pages, PAGE_RECORD_LEN, take_pages)?;
    let speedtests = r.u32()? as usize;
    c.speedtests = copy_records(r, speedtests, SPEEDTEST_RECORD_LEN, take_speedtests)?;
    let quarantined = r.u32()? as usize;
    for _ in 0..quarantined {
        let code = r.str()?;
        let detail = r.str()?;
        let user = get_opt_u64(r)?;
        let seq = get_opt_u64(r)?;
        let claimed_records = get_opt_u64(r)?;
        let wire_len = r.u64()?;
        let at = SimTime::from_nanos(r.u64()?);
        c.quarantine.push(QuarantinedBatch {
            reason_code: intern_reason(&code)?,
            detail,
            user,
            seq,
            claimed_records,
            wire_len,
            at,
        });
    }
    Ok(c)
}

/// Starts a checkpoint blob of `kind`: a writer holding the
/// magic/version/kind preamble, with room for `body` more bytes and the
/// CRC [`WireWriter::seal`] appends.
pub(crate) fn begin_blob(kind: u8, body: usize) -> WireWriter {
    let mut w = WireWriter::sealed(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        PREAMBLE_LEN + body + 4,
    );
    w.u8(kind);
    w
}

/// Refuses a blob that belongs to another scenario: `Err` naming `field`
/// when `differs`.
pub(crate) fn mismatch(differs: bool, field: &'static str) -> Result<(), CheckpointError> {
    if differs {
        Err(CheckpointError::Mismatch { field })
    } else {
        Ok(())
    }
}

/// Ends a blob's decode: every byte before the CRC must have been read.
pub(crate) fn close_blob(r: WireReader<'_>) -> Result<(), CheckpointError> {
    match r.remaining() {
        0 => Ok(()),
        extra => Err(WireError::TrailingBytes { extra }.into()),
    }
}

/// Opens a blob of `kind` through the sealed envelope — magic, version,
/// the kind byte, then the CRC — and returns a reader at the blob body
/// that ends where the CRC begins.
pub(crate) fn open_blob<'a>(bytes: &'a [u8], kind: u8) -> Result<WireReader<'a>, CheckpointError> {
    let mut r = WireReader::open(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    if r.u8()? != kind {
        return Err(WireError::BadField {
            field: "checkpoint-kind",
        }
        .into());
    }
    // A blob states no length: it runs to the end of the buffer, which
    // must hold at least the preamble and the CRC.
    r.check_seal(bytes.len().max(PREAMBLE_LEN + 4))?;
    Ok(r)
}

/// Serialises a standalone collector's dataset state — the
/// `collector-serve` binary's crash-recovery blob (SLCP v2, kind 2).
pub fn encode_server_checkpoint(collector: &Collector) -> Vec<u8> {
    let mut w = begin_blob(KIND_SERVER, collector_len(collector));
    put_collector(&mut w, collector);
    w.seal()
}

/// Rebuilds a collector from a server checkpoint blob, verifying its
/// envelope first like every other artefact in this crate.
pub fn decode_server_checkpoint(bytes: &[u8]) -> Result<Collector, CheckpointError> {
    let mut r = open_blob(bytes, KIND_SERVER)?;
    let collector = get_collector(&mut r)?;
    close_blob(r)?;
    Ok(collector)
}

/// The five admission budgets in their checkpoint order. Every campaign
/// blob carries them, so a run can only resume under the budget it
/// started with.
fn admission_budgets(a: &AdmissionConfig) -> [u64; 5] {
    [
        a.session_rate_milli,
        a.session_burst,
        a.queue_batches,
        a.global_bytes,
        a.drain_bytes_per_sec,
    ]
}

impl ResilientCampaign {
    /// Serialises the complete driver state (valid at day boundaries —
    /// i.e. between [`ResilientCampaign::run_day`] calls) into a
    /// versioned, CRC-protected blob.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = begin_blob(KIND_CAMPAIGN, 0);

        let cfg = self.campaign.config();
        w.u64(cfg.seed);
        w.u64(cfg.days);
        w.f64(cfg.pages_per_day);
        w.u64(cfg.tranco_size);

        w.u64(self.options.plan.fingerprint());
        w.u32(self.options.max_retries);
        w.u64(self.options.base_backoff.as_nanos());
        w.u64(self.options.spool_days);
        w.f64(self.options.ack_loss);
        for budget in admission_budgets(&self.options.admission) {
            w.u64(budget);
        }

        w.u64(self.next_day);

        w.u32(self.rngs.len() as u32);
        let users = &self.campaign.population().users;
        let cov = &self.coverage;
        for (i, (rng, user)) in self.rngs.iter().zip(users).enumerate() {
            for part in rng.state() {
                w.u64(part);
            }
            w.u64(user.id);
            w.u8(user.city.code());
            for column in cov.ledger.columns() {
                w.u64(column[i]);
            }
            w.u64(cov.duplicates[i]);
            w.u64(cov.retries[i]);
        }

        w.u32(self.spool.len() as u32);
        for b in &self.spool {
            w.u32(b.user_idx as u32);
            w.u64(b.seq);
            w.u64(b.created_day);
            w.u32(b.pages);
            w.u32(b.speedtests);
            w.u8(b.delivered as u8);
            w.u8(b.rejected as u8);
            w.u32(b.bytes.len() as u32);
            w.bytes(&b.bytes);
        }

        put_collector(&mut w, &self.collector);

        w.seal()
    }

    /// Rebuilds a driver from a checkpoint, verifying both the blob's
    /// integrity (CRC) and that it belongs to *this* scenario (same
    /// seed, campaign shape, fault-plan fingerprint, and admission
    /// budgets).
    pub fn resume(
        config: CampaignConfig,
        options: IngestOptions,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut r = open_blob(bytes, KIND_CAMPAIGN)?;
        mismatch(r.u64()? != config.seed, "seed")?;
        mismatch(r.u64()? != config.days, "days")?;
        mismatch(
            r.f64()?.to_bits() != config.pages_per_day.to_bits(),
            "pages_per_day",
        )?;
        mismatch(r.u64()? != config.tranco_size, "tranco_size")?;
        mismatch(r.u64()? != options.plan.fingerprint(), "fault plan")?;
        mismatch(r.u32()? != options.max_retries, "max_retries")?;
        mismatch(r.u64()? != options.base_backoff.as_nanos(), "base_backoff")?;
        mismatch(r.u64()? != options.spool_days, "spool_days")?;
        mismatch(r.f64()?.to_bits() != options.ack_loss.to_bits(), "ack_loss")?;
        for budget in admission_budgets(&options.admission) {
            mismatch(r.u64()? != budget, "admission")?;
        }

        let next_day = r.u64()?;
        if next_day > config.days {
            return Err(WireError::BadField { field: "next_day" }.into());
        }

        let mut fresh = ResilientCampaign::new(config, options);
        let users = r.u32()? as usize;
        mismatch(users != fresh.rngs.len(), "population")?;
        let population = &fresh.campaign.population().users;
        let cov = &mut fresh.coverage;
        for (i, (rng, user)) in fresh.rngs.iter_mut().zip(population).enumerate() {
            *rng = SimRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
            let (id, city_code) = (r.u64()?, r.u8()?);
            mismatch(id != user.id || city_code != user.city.code(), "population")?;
            for column in cov.ledger.columns_mut() {
                column[i] = r.u64()?;
            }
            cov.duplicates[i] = r.u64()?;
            cov.retries[i] = r.u64()?;
        }

        let spooled = r.u32()? as usize;
        let mut spool = Vec::new();
        for _ in 0..spooled {
            let user_idx = r.u32()? as usize;
            if user_idx >= users {
                return Err(WireError::BadField {
                    field: "spool user",
                }
                .into());
            }
            let seq = r.u64()?;
            let created_day = r.u64()?;
            let pages = r.u32()?;
            let speedtests = r.u32()?;
            let flag = |b: u8| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(WireError::BadField {
                    field: "spool flag",
                }),
            };
            let delivered = flag(r.u8()?)?;
            let rejected = flag(r.u8()?)?;
            let len = r.u32()? as usize;
            let bytes = r.bytes(len)?.to_vec();
            spool.push(SpooledBatch {
                user_idx,
                seq,
                created_day,
                pages,
                speedtests,
                delivered,
                rejected,
                bytes,
            });
        }
        fresh.spool = spool;

        fresh.collector = get_collector(&mut r)?;
        close_blob(r)?;

        fresh.next_day = next_day;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Dataset;
    use crate::wire::crc32;

    fn config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            days: 8,
            pages_per_day: 8.0,
            tranco_size: 50_000,
        }
    }

    fn straight_through(seed: u64, options: &IngestOptions) -> Dataset {
        ResilientCampaign::new(config(seed), options.clone())
            .run_to_end()
            .dataset
    }

    #[test]
    fn resume_reproduces_the_straight_run_byte_for_byte() {
        let options = IngestOptions::fault_storm(28, 8);
        let reference = straight_through(13, &options);

        // Interrupt after every single day.
        let mut rc = ResilientCampaign::new(config(13), options.clone());
        while !rc.is_finished() {
            rc.run_day();
            let blob = rc.checkpoint();
            rc = ResilientCampaign::resume(config(13), options.clone(), &blob)
                .expect("own checkpoint must restore");
        }
        let resumed = rc.finish().dataset;
        assert_eq!(resumed.digest(), reference.digest());
        assert_eq!(resumed.pages.len(), reference.pages.len());
    }

    #[test]
    fn resume_restores_mid_campaign_state() {
        let options = IngestOptions::fault_storm(28, 8);
        let mut rc = ResilientCampaign::new(config(5), options.clone());
        for _ in 0..4 {
            rc.run_day();
        }
        let blob = rc.checkpoint();
        let restored = ResilientCampaign::resume(config(5), options, &blob).unwrap();
        assert_eq!(restored.next_day(), 4);
        assert_eq!(restored.spooled(), rc.spooled());
        assert_eq!(
            restored.coverage().total(),
            rc.coverage().total(),
            "coverage counters must survive the round trip"
        );
    }

    #[test]
    fn corrupted_checkpoints_are_refused() {
        let rc = ResilientCampaign::new(config(1), IngestOptions::perfect());
        let blob = rc.checkpoint();
        for cut in [0, blob.len() / 2, blob.len() - 1] {
            assert!(matches!(
                ResilientCampaign::resume(config(1), IngestOptions::perfect(), &blob[..cut]),
                Err(CheckpointError::Wire(_))
            ));
        }
        let mut bad = blob.clone();
        bad[10] ^= 0x55;
        assert!(matches!(
            ResilientCampaign::resume(config(1), IngestOptions::perfect(), &bad),
            Err(CheckpointError::Wire(WireError::ChecksumMismatch { .. }))
        ));

        // A correctly sealed blob that claims a day past the campaign's
        // end is malformed, exactly as for the scaled campaign.
        let mut past_end = ResilientCampaign::new(config(1), IngestOptions::perfect());
        past_end.next_day = config(1).days + 1;
        assert_eq!(
            ResilientCampaign::resume(config(1), IngestOptions::perfect(), &past_end.checkpoint())
                .expect_err("next_day beyond the campaign must be refused"),
            CheckpointError::Wire(WireError::BadField { field: "next_day" })
        );
    }

    #[test]
    fn scenario_mismatches_are_refused_with_the_field_named() {
        let mut rc = ResilientCampaign::new(config(1), IngestOptions::perfect());
        rc.run_day();
        let blob = rc.checkpoint();

        let err = ResilientCampaign::resume(config(2), IngestOptions::perfect(), &blob)
            .expect_err("wrong seed must be refused");
        assert_eq!(err, CheckpointError::Mismatch { field: "seed" });

        let storm = IngestOptions::fault_storm(28, 8);
        let err = ResilientCampaign::resume(config(1), storm, &blob)
            .expect_err("wrong plan must be refused");
        assert_eq!(
            err,
            CheckpointError::Mismatch {
                field: "fault plan"
            }
        );

        let mut other = config(1);
        other.days = 99;
        let err = ResilientCampaign::resume(other, IngestOptions::perfect(), &blob)
            .expect_err("wrong shape must be refused");
        assert_eq!(err, CheckpointError::Mismatch { field: "days" });
    }

    #[test]
    fn overloaded_resume_is_byte_identical() {
        let mut options = IngestOptions::fault_storm(28, 8);
        options.admission = AdmissionConfig::overloaded();
        let reference = ResilientCampaign::new(config(13), options.clone()).run_to_end();

        // Interrupt after every single day.
        let mut rc = ResilientCampaign::new(config(13), options.clone());
        while !rc.is_finished() {
            rc.run_day();
            let blob = rc.checkpoint();
            rc = ResilientCampaign::resume(config(13), options.clone(), &blob)
                .expect("own checkpoint must restore");
        }
        let resumed = rc.finish();
        assert_eq!(resumed.dataset.digest(), reference.dataset.digest());
        assert_eq!(
            resumed.coverage.total(),
            reference.coverage.total(),
            "shed accounting must survive kill/resume"
        );
    }

    #[test]
    fn a_different_admission_budget_is_refused_by_name() {
        let options = IngestOptions::perfect();
        let mut rc = ResilientCampaign::new(config(1), options.clone());
        rc.run_day();
        let blob = rc.checkpoint();

        let mut other = options.clone();
        other.admission = AdmissionConfig::overloaded();
        let err = ResilientCampaign::resume(config(1), other, &blob)
            .expect_err("different budgets must be refused");
        assert_eq!(err, CheckpointError::Mismatch { field: "admission" });

        // Each of the five budgets is bound, not just the first.
        let mut other = options.clone();
        other.admission.drain_bytes_per_sec += 1;
        let err = ResilientCampaign::resume(config(1), other, &blob)
            .expect_err("a one-field difference must be refused");
        assert_eq!(err, CheckpointError::Mismatch { field: "admission" });

        // A blob sealed without the budgets (a presence tag of 0 where
        // they now always sit) is refused the same way, never read as
        // some default budget.
        const BUDGETS_AT: usize = 4 + 2 + 1 + 4 * 8 + 8 + 4 + 3 * 8;
        let mut bare = blob[..BUDGETS_AT].to_vec();
        bare.push(0);
        bare.extend_from_slice(&blob[BUDGETS_AT + 5 * 8..blob.len() - 4]);
        let crc = crc32(&bare);
        bare.extend_from_slice(&crc.to_le_bytes());
        let err = ResilientCampaign::resume(config(1), options.clone(), &bare)
            .expect_err("a budget-less blob must be refused");
        assert_eq!(err, CheckpointError::Mismatch { field: "admission" });

        assert!(ResilientCampaign::resume(config(1), options, &blob).is_ok());
    }

    #[test]
    fn server_checkpoint_round_trips_the_collector() {
        let mut c = Collector::new();
        c.submit(&crate::client::synthetic_batch(7, 0, 4), SimTime::ZERO);
        c.submit(
            &crate::client::synthetic_batch(7, 0, 4),
            SimTime::from_secs(1),
        );
        c.submit(&[1, 2, 3], SimTime::from_secs(5));
        let blob = encode_server_checkpoint(&c);
        let back = decode_server_checkpoint(&blob).expect("own blob must restore");
        assert_eq!(back.dataset().digest(), c.dataset().digest());
        assert_eq!(back.accepted_batches(), 1);
        assert_eq!(back.duplicates(), c.duplicates());
        assert_eq!(back.quarantine().len(), 1);
        assert_eq!(encode_server_checkpoint(&back), blob);

        let mut bad = blob.clone();
        bad[8] ^= 1;
        assert!(matches!(
            decode_server_checkpoint(&bad),
            Err(CheckpointError::Wire(WireError::ChecksumMismatch { .. }))
        ));

        // A campaign blob is not a server blob, and vice versa.
        let rc = ResilientCampaign::new(config(1), IngestOptions::perfect());
        assert!(matches!(
            decode_server_checkpoint(&rc.checkpoint()),
            Err(CheckpointError::Wire(WireError::BadField {
                field: "checkpoint-kind"
            }))
        ));
        assert!(matches!(
            ResilientCampaign::resume(config(1), IngestOptions::perfect(), &blob),
            Err(CheckpointError::Wire(WireError::BadField {
                field: "checkpoint-kind"
            }))
        ));
    }

    #[test]
    fn server_checkpoint_is_sealed_into_its_computed_size() {
        let mut c = Collector::new();
        for seq in 0..3 {
            c.submit(&crate::client::synthetic_batch(9, seq, 5), SimTime::ZERO);
        }
        c.submit(&crate::client::synthetic_batch(9, 1, 5), SimTime::ZERO);
        c.submit(b"not a batch", SimTime::from_secs(2));
        let mut damaged = crate::client::synthetic_batch(4, 0, 2);
        damaged[40] ^= 1;
        c.submit(&damaged, SimTime::from_secs(3));
        assert!(c.quarantine().iter().any(|q| q.user.is_some()));
        assert!(c.quarantine().iter().any(|q| q.user.is_none()));

        let blob = encode_server_checkpoint(&c);
        assert_eq!(blob.len(), PREAMBLE_LEN + collector_len(&c) + 4);
        // One exact allocation: the writer never had to grow.
        assert_eq!(blob.capacity(), blob.len());
        assert_eq!(
            encode_server_checkpoint(&Collector::new()).len(),
            PREAMBLE_LEN + 4 + 8 + 4 + 4 + 4 + 4
        );
    }

    #[test]
    fn every_wire_error_code_interns() {
        for err in [
            WireError::BadMagic { found: [0; 4] },
            WireError::UnsupportedVersion { got: 9 },
            WireError::Truncated { needed: 1, got: 0 },
            WireError::TrailingBytes { extra: 1 },
            WireError::ChecksumMismatch {
                computed: 0,
                stated: 1,
            },
            WireError::BadField { field: "x" },
        ] {
            assert_eq!(intern_reason(err.code()), Ok(err.code()), "{err}");
        }
        assert!(intern_reason("no-such-code").is_err());
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let make = || {
            let options = IngestOptions::fault_storm(28, 8);
            let mut rc = ResilientCampaign::new(config(3), options);
            rc.run_day();
            rc.run_day();
            rc.checkpoint()
        };
        assert_eq!(make(), make());
    }
}

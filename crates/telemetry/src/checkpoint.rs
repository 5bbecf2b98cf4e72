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
//! * **corruption safety** — a truncated or bit-flipped checkpoint
//!   fails its CRC and is refused, like any other damaged upload in
//!   this crate.

use crate::ingest::{Collector, IngestOptions, QuarantinedBatch, ResilientCampaign, SpooledBatch};
use crate::pipeline::CampaignConfig;
use crate::server::AdmissionConfig;
use crate::wire::{
    crc32, decode_page, decode_speedtest, encode_page, encode_speedtest, WireError, WireReader,
    WireWriter,
};
use starlink_simcore::{SimRng, SimTime};
use std::fmt;

/// The four magic bytes every checkpoint starts with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SLCP";
/// The current checkpoint format version. Version 2 added the blob-kind
/// byte, the admission budgets, per-user shed counters, and the spool
/// `rejected` flag.
pub const CHECKPOINT_VERSION: u16 = 2;

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
/// quarantine API exposes. Codes outside the known set mean a corrupted
/// (yet CRC-colliding) or future-format checkpoint.
fn intern_reason(code: &str) -> Result<&'static str, WireError> {
    const KNOWN: [&str; 6] = [
        "bad-magic",
        "unsupported-version",
        "truncated",
        "trailing-bytes",
        "checksum-mismatch",
        "bad-field",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == code)
        .copied()
        .ok_or(WireError::BadField {
            field: "reason-code",
        })
}

/// Serialises the collector's complete state (dedup set, records,
/// quarantine) — shared by the campaign blob and the standalone server
/// blob so the two formats cannot drift.
fn put_collector(w: &mut WireWriter, c: &Collector) {
    w.u32(c.seen.len() as u32);
    for &(user, seq) in &c.seen {
        w.u64(user);
        w.u64(seq);
    }
    w.u64(c.duplicates);
    w.u32(c.pages.len() as u32);
    for p in &c.pages {
        encode_page(w, p);
    }
    w.u32(c.speedtests.len() as u32);
    for s in &c.speedtests {
        encode_speedtest(w, s);
    }
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

/// Inverse of [`put_collector`].
fn get_collector(r: &mut WireReader<'_>) -> Result<Collector, CheckpointError> {
    let mut c = Collector::new();
    let seen = r.u32()? as usize;
    for _ in 0..seen {
        let user = r.u64()?;
        let seq = r.u64()?;
        c.seen.insert((user, seq));
    }
    c.duplicates = r.u64()?;
    let pages = r.u32()? as usize;
    for _ in 0..pages {
        c.pages.push(decode_page(r)?);
    }
    let speedtests = r.u32()? as usize;
    for _ in 0..speedtests {
        c.speedtests.push(decode_speedtest(r)?);
    }
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

/// Verifies the trailing CRC and the magic/version/kind preamble, then
/// returns a reader positioned at the blob body.
pub(crate) fn open_blob<'a>(bytes: &'a [u8], kind: u8) -> Result<WireReader<'a>, CheckpointError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: bytes.len(),
        }
        .into());
    }
    let body = &bytes[..bytes.len() - 4];
    let stated = u32::from_le_bytes([
        bytes[bytes.len() - 4],
        bytes[bytes.len() - 3],
        bytes[bytes.len() - 2],
        bytes[bytes.len() - 1],
    ]);
    let computed = crc32(body);
    if stated != computed {
        return Err(WireError::ChecksumMismatch { computed, stated }.into());
    }

    let mut r = WireReader::new(body);
    let magic = r.bytes(4)?;
    if magic != CHECKPOINT_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(WireError::BadMagic { found }.into());
    }
    let version = r.u16()?;
    if version != CHECKPOINT_VERSION {
        return Err(WireError::UnsupportedVersion { got: version }.into());
    }
    if r.u8()? != kind {
        return Err(WireError::BadField {
            field: "checkpoint-kind",
        }
        .into());
    }
    Ok(r)
}

/// Serialises a standalone collector's dataset state — the
/// `collector-serve` binary's crash-recovery blob (SLCP v2, kind 2).
pub fn encode_server_checkpoint(collector: &Collector) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.bytes(&CHECKPOINT_MAGIC);
    w.u16(CHECKPOINT_VERSION);
    w.u8(KIND_SERVER);
    put_collector(&mut w, collector);
    w.seal()
}

/// Rebuilds a collector from a server checkpoint blob, verifying the
/// CRC first like every other artefact in this crate.
pub fn decode_server_checkpoint(bytes: &[u8]) -> Result<Collector, CheckpointError> {
    let mut r = open_blob(bytes, KIND_SERVER)?;
    let collector = get_collector(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: r.remaining(),
        }
        .into());
    }
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
        let mut w = WireWriter::new();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        w.u8(KIND_CAMPAIGN);

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
        for (i, rng) in self.rngs.iter().enumerate() {
            let cov = self.coverage.row(i);
            for part in rng.state() {
                w.u64(part);
            }
            w.u64(cov.user);
            w.u8(cov.city_code);
            w.u64(cov.generated);
            w.u64(cov.delivered);
            w.u64(cov.quarantined);
            w.u64(cov.shed);
            w.u64(cov.lost);
            w.u64(cov.duplicates);
            w.u64(cov.retries);
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

        let mismatch = |cond: bool, field: &'static str| {
            if cond {
                Err(CheckpointError::Mismatch { field })
            } else {
                Ok(())
            }
        };
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
        if users != fresh.rngs.len() {
            return Err(CheckpointError::Mismatch {
                field: "population",
            });
        }
        for i in 0..users {
            let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            fresh.rngs[i] = SimRng::from_state(state);
            let user = r.u64()?;
            let city_code = r.u8()?;
            let cov = &mut fresh.coverage;
            if user != cov.user[i] || city_code != cov.city_code[i] {
                return Err(CheckpointError::Mismatch {
                    field: "population",
                });
            }
            cov.generated[i] = r.u64()?;
            cov.delivered[i] = r.u64()?;
            cov.quarantined[i] = r.u64()?;
            cov.shed[i] = r.u64()?;
            cov.lost[i] = r.u64()?;
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
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            }
            .into());
        }

        fresh.next_day = next_day;
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Dataset;

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

//! Differential reference for the collector's wire-form record store.
//!
//! `reference` holds the record decoders, `decode_batch`,
//! `Collector::submit` and the server checkpoint's collector codec as they
//! stood when the collector decoded every accepted batch into
//! `PageRecord`/`SpeedtestRecord` structs and coded each record a field at
//! a time for every checkpoint. They are reproduced verbatim, apart from
//! what a test crate cannot reach: the bounds-checked reader and writer,
//! the blob envelope and `collector_len` are copied in with them, the
//! collector is a local `RefCollector` with the product's field names,
//! `WireError::CODES` is the local `CODES`, and `Dataset::sort_canonical`
//! is inlined into `RefCollector::dataset`.
//!
//! The tests feed both sides seeded SLTB batches and SLCP server blobs
//! that are damaged in record fields, counts and length and then
//! re-sealed, so the CRC passes and the domain checks run. They require
//! the same `Ingested` verdict per upload, the same quarantine entries,
//! duplicate count and dataset digest, the same checkpoint bytes, and the
//! same checkpoint decode result or error.

use starlink_channel::WeatherCondition;
use starlink_geo::City;
use starlink_simcore::{SimRng, SimTime};
use starlink_telemetry::wire::{crc32, decode_batch, encode_batch, RecordBatch, WireError};
use starlink_telemetry::{
    decode_server_checkpoint, encode_server_checkpoint, CheckpointError, Collector, ExitAs,
    Ingested, IspClass, PageRecord, QuarantinedBatch, SpeedtestRecord,
};
use starlink_web::PttBreakdown;
use std::collections::BTreeSet;

mod reference {
    use starlink_channel::{AccessTech, WeatherCondition};
    use starlink_geo::City;
    use starlink_simcore::SimTime;
    use starlink_telemetry::wire::{crc32, peek_header, RecordBatch, WireError};
    use starlink_telemetry::{
        CheckpointError, Dataset, ExitAs, Ingested, IspClass, PageRecord, QuarantinedBatch,
        SpeedtestRecord,
    };
    use starlink_web::PttBreakdown;
    use std::collections::BTreeSet;

    /// The four magic bytes every batch starts with.
    const MAGIC: [u8; 4] = *b"SLTB";
    /// The current wire-format version.
    const VERSION: u16 = 1;

    /// Size of the fixed batch header (magic through record counts).
    const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 4 + 4;
    /// Encoded size of one [`PageRecord`].
    pub(crate) const PAGE_RECORD_LEN: usize = 8 + 1 + 1 + 8 + 8 + 6 * 8 + 8 + 1 + 1;
    /// Encoded size of one [`SpeedtestRecord`].
    pub(crate) const SPEEDTEST_RECORD_LEN: usize = 8 + 1 + 1 + 8 + 8 + 8;

    /// The four magic bytes every checkpoint starts with.
    pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"SLCP";
    /// The current checkpoint format version. Version 2 added the blob-kind
    /// byte, the admission budgets, per-user shed counters, and the spool
    /// `rejected` flag.
    pub(crate) const CHECKPOINT_VERSION: u16 = 2;
    /// Bytes of the magic/version/kind preamble every checkpoint starts with.
    pub(crate) const PREAMBLE_LEN: usize = 4 + 2 + 1;
    /// Blob-kind byte: a standalone collector-server dataset state (what the
    /// `collector-serve` binary persists between kills).
    const KIND_SERVER: u8 = 2;

    /// `WireError::CODES`: every variant's code, in declaration order.
    const CODES: [&str; 6] = [
        "bad-magic",
        "unsupported-version",
        "truncated",
        "trailing-bytes",
        "checksum-mismatch",
        "bad-field",
    ];

    /// Append-only encoder over a byte vector.
    #[derive(Debug)]
    pub(crate) struct WireWriter {
        buf: Vec<u8>,
    }

    impl WireWriter {
        /// A sealed format's writer, `len` bytes long once sealed (CRC
        /// included), holding the envelope's `magic` and `version` preamble;
        /// [`WireWriter::seal`] writes the other half.
        pub fn sealed(magic: [u8; 4], version: u16, len: usize) -> Self {
            let mut w = WireWriter {
                buf: Vec::with_capacity(len),
            };
            w.bytes(&magic);
            w.u16(version);
            w
        }

        /// Writes raw bytes.
        pub fn bytes(&mut self, b: &[u8]) {
            self.buf.extend_from_slice(b);
        }

        /// Writes one byte.
        pub fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        /// Writes a little-endian u16.
        pub fn u16(&mut self, v: u16) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Writes a little-endian u32.
        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Writes a little-endian u64.
        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Writes an f64 as its IEEE-754 bit pattern (byte-exact round trip).
        pub fn f64(&mut self, v: f64) {
            self.u64(v.to_bits());
        }

        /// Writes a length-prefixed UTF-8 string (u32 length).
        pub fn str(&mut self, s: &str) {
            self.u32(s.len() as u32);
            self.bytes(s.as_bytes());
        }

        /// Appends the CRC-32 of everything written so far.
        pub fn seal(mut self) -> Vec<u8> {
            let crc = crc32(&self.buf);
            self.u32(crc);
            self.buf
        }
    }

    /// Bounds-checked decoder over a byte slice.
    #[derive(Debug)]
    pub(crate) struct WireReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> WireReader<'a> {
        /// A reader over `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            WireReader { buf, pos: 0 }
        }

        /// The first half of a sealed format's envelope: a reader over `buf`
        /// past its `magic` and `version`, refusing anything else.
        pub fn open(buf: &'a [u8], magic: [u8; 4], version: u16) -> Result<Self, WireError> {
            let mut r = WireReader::new(buf);
            let found = r.bytes(4)?;
            if found != magic {
                let found = found.try_into().expect("four bytes were read");
                return Err(WireError::BadMagic { found });
            }
            let got = r.u16()?;
            if got != version {
                return Err(WireError::UnsupportedVersion { got });
            }
            Ok(r)
        }

        /// The second half of the envelope, once the header is read: the
        /// buffer must be exactly `total` bytes, which the header states, and
        /// its last four the CRC-32 of the rest. The reader then ends where
        /// the CRC begins. `total` covers at least the bytes read so far and
        /// the CRC.
        pub fn check_seal(&mut self, total: usize) -> Result<(), WireError> {
            debug_assert!(total >= self.pos + 4, "the stated length covers the header");
            let got = self.buf.len();
            if got < total {
                return Err(WireError::Truncated { needed: total, got });
            }
            if got > total {
                return Err(WireError::TrailingBytes { extra: got - total });
            }
            let (body, trailer) = self.buf.split_at(total - 4);
            let stated = u32::from_le_bytes(trailer.try_into().expect("four bytes remain"));
            let computed = crc32(body);
            if stated != computed {
                return Err(WireError::ChecksumMismatch { computed, stated });
            }
            self.buf = body;
            Ok(())
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            if self.remaining() < n {
                return Err(WireError::Truncated {
                    needed: self.pos + n,
                    got: self.buf.len(),
                });
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads `n` raw bytes.
        pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            self.take(n)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian u16.
        pub fn u16(&mut self) -> Result<u16, WireError> {
            let b = self.take(2)?;
            Ok(u16::from_le_bytes([b[0], b[1]]))
        }

        /// Reads a little-endian u32.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Reads a little-endian u64.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            let b = self.take(8)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        }

        /// Reads an f64 from its bit pattern.
        pub fn f64(&mut self) -> Result<f64, WireError> {
            Ok(f64::from_bits(self.u64()?))
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, WireError> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadField { field: "utf8" })
        }
    }

    fn isp_code(isp: IspClass) -> u8 {
        match isp {
            IspClass::Starlink => 0,
            // AccessTech codes are 0-based; shift past the Starlink marker.
            IspClass::NonStarlink(tech) => 1 + tech.code(),
        }
    }

    fn isp_from_code(code: u8) -> Option<IspClass> {
        match code {
            0 => Some(IspClass::Starlink),
            n => AccessTech::from_code(n - 1).map(IspClass::NonStarlink),
        }
    }

    fn exit_as_code(exit: Option<ExitAs>) -> u8 {
        match exit {
            None => 0,
            Some(ExitAs::Google) => 1,
            Some(ExitAs::SpaceX) => 2,
        }
    }

    fn exit_as_from_code(code: u8) -> Result<Option<ExitAs>, WireError> {
        match code {
            0 => Ok(None),
            1 => Ok(Some(ExitAs::Google)),
            2 => Ok(Some(ExitAs::SpaceX)),
            _ => Err(WireError::BadField { field: "exit_as" }),
        }
    }

    /// Encodes one page record (fixed [`PAGE_RECORD_LEN`] bytes).
    pub fn encode_page(w: &mut WireWriter, r: &PageRecord) {
        w.u64(r.user);
        w.u8(r.city.code());
        w.u8(isp_code(r.isp));
        w.u64(r.at.as_nanos());
        w.u64(r.rank);
        w.f64(r.ptt.redirect_ms);
        w.f64(r.ptt.dns_ms);
        w.f64(r.ptt.connect_ms);
        w.f64(r.ptt.tls_ms);
        w.f64(r.ptt.request_ms);
        w.f64(r.ptt.response_ms);
        w.f64(r.plt_ms);
        w.u8(exit_as_code(r.exit_as));
        w.u8(r.weather.code());
    }

    /// Decodes one page record.
    pub fn decode_page(r: &mut WireReader<'_>) -> Result<PageRecord, WireError> {
        let user = r.u64()?;
        let city = City::from_code(r.u8()?).ok_or(WireError::BadField { field: "city" })?;
        let isp = isp_from_code(r.u8()?).ok_or(WireError::BadField { field: "isp" })?;
        let at = SimTime::from_nanos(r.u64()?);
        let rank = r.u64()?;
        let ptt = PttBreakdown {
            redirect_ms: r.f64()?,
            dns_ms: r.f64()?,
            connect_ms: r.f64()?,
            tls_ms: r.f64()?,
            request_ms: r.f64()?,
            response_ms: r.f64()?,
        };
        let plt_ms = r.f64()?;
        let exit_as = exit_as_from_code(r.u8()?)?;
        let weather =
            WeatherCondition::from_code(r.u8()?).ok_or(WireError::BadField { field: "weather" })?;
        Ok(PageRecord {
            user,
            city,
            isp,
            at,
            rank,
            ptt,
            plt_ms,
            exit_as,
            weather,
        })
    }

    /// Encodes one speedtest record (fixed [`SPEEDTEST_RECORD_LEN`] bytes).
    pub fn encode_speedtest(w: &mut WireWriter, r: &SpeedtestRecord) {
        w.u64(r.user);
        w.u8(r.city.code());
        w.u8(u8::from(r.starlink));
        w.u64(r.at_secs);
        w.f64(r.downlink_mbps);
        w.f64(r.uplink_mbps);
    }

    /// Decodes one speedtest record.
    pub fn decode_speedtest(r: &mut WireReader<'_>) -> Result<SpeedtestRecord, WireError> {
        let user = r.u64()?;
        let city = City::from_code(r.u8()?).ok_or(WireError::BadField { field: "city" })?;
        let starlink = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadField { field: "starlink" }),
        };
        Ok(SpeedtestRecord {
            user,
            city,
            starlink,
            at_secs: r.u64()?,
            downlink_mbps: r.f64()?,
            uplink_mbps: r.f64()?,
        })
    }

    /// Decodes and validates a framed batch.
    ///
    /// Checks run in the trust order every sealed format of this crate
    /// keeps: magic, version, the header's own fields (record counts with
    /// overflow checks), exact length (truncation and trailing garbage),
    /// checksum, then field domains. Never panics.
    pub fn decode_batch(bytes: &[u8]) -> Result<RecordBatch, WireError> {
        let mut r = WireReader::open(bytes, MAGIC, VERSION)?;
        let _flags = r.u16()?;
        let user = r.u64()?;
        let seq = r.u64()?;
        let page_count = r.u32()? as usize;
        let speedtest_count = r.u32()? as usize;

        let body = page_count
            .checked_mul(PAGE_RECORD_LEN)
            .and_then(|p| {
                speedtest_count
                    .checked_mul(SPEEDTEST_RECORD_LEN)
                    .and_then(|s| p.checked_add(s))
            })
            .ok_or(WireError::BadField {
                field: "record counts",
            })?;
        r.check_seal(HEADER_LEN + body + 4)?;

        let mut pages = Vec::with_capacity(page_count);
        for _ in 0..page_count {
            pages.push(decode_page(&mut r)?);
        }
        let mut speedtests = Vec::with_capacity(speedtest_count);
        for _ in 0..speedtest_count {
            speedtests.push(decode_speedtest(&mut r)?);
        }
        Ok(RecordBatch {
            user,
            seq,
            pages,
            speedtests,
        })
    }

    /// The ingestion endpoint: validates, de-duplicates and quarantines.
    ///
    /// `submit` is idempotent in `(user, seq)`: a re-upload of an
    /// already-accepted batch is reported (and counted) as a duplicate, not
    /// ingested twice. Malformed uploads are never silently dropped — each
    /// one becomes a [`QuarantinedBatch`] carrying the typed decode error.
    #[derive(Debug, Clone, Default)]
    pub struct RefCollector {
        pub(crate) seen: BTreeSet<(u64, u64)>,
        pub(crate) pages: Vec<PageRecord>,
        pub(crate) speedtests: Vec<SpeedtestRecord>,
        pub(crate) duplicates: u64,
        pub(crate) quarantine: Vec<QuarantinedBatch>,
    }

    impl RefCollector {
        /// An empty collector.
        pub fn new() -> Self {
            RefCollector::default()
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

        /// The accepted records as a canonically-sorted [`Dataset`].
        pub fn dataset(&self) -> Dataset {
            let mut ds = Dataset {
                pages: self.pages.clone(),
                speedtests: self.speedtests.clone(),
            };
            ds.pages.sort_by(|a, b| {
                (
                    a.user,
                    a.at,
                    a.rank,
                    a.plt_ms.to_bits(),
                    a.ptt.request_ms.to_bits(),
                )
                    .cmp(&(
                        b.user,
                        b.at,
                        b.rank,
                        b.plt_ms.to_bits(),
                        b.ptt.request_ms.to_bits(),
                    ))
            });
            ds.speedtests.sort_by(|a, b| {
                (a.user, a.at_secs, a.downlink_mbps.to_bits()).cmp(&(
                    b.user,
                    b.at_secs,
                    b.downlink_mbps.to_bits(),
                ))
            });
            ds
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
        CODES
            .into_iter()
            .find(|&k| k == code)
            .ok_or(WireError::BadField {
                field: "reason-code",
            })
    }

    /// Serialises the collector's complete state (dedup set, records,
    /// quarantine) — shared by the campaign blob and the standalone server
    /// blob so the two formats cannot drift.
    fn put_collector(w: &mut WireWriter, c: &RefCollector) {
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

    /// The exact number of bytes [`put_collector`] writes for `c`, so a
    /// blob of tens of megabytes is sealed in one allocation rather than
    /// grown by doubling.
    fn collector_len(c: &RefCollector) -> usize {
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
        4 + c.seen.len() * 16
            + 8
            + 4
            + c.pages.len() * PAGE_RECORD_LEN
            + 4
            + c.speedtests.len() * SPEEDTEST_RECORD_LEN
            + 4
            + quarantine
    }

    /// Inverse of [`put_collector`].
    fn get_collector(r: &mut WireReader<'_>) -> Result<RefCollector, CheckpointError> {
        let mut c = RefCollector::new();
        let seen = r.u32()? as usize;
        for _ in 0..seen {
            let user = r.u64()?;
            let seq = r.u64()?;
            c.seen.insert((user, seq));
        }
        c.duplicates = r.u64()?;
        // A count is only trusted as far as the bytes left could hold it.
        let pages = r.u32()? as usize;
        c.pages.reserve(pages.min(r.remaining() / PAGE_RECORD_LEN));
        for _ in 0..pages {
            c.pages.push(decode_page(r)?);
        }
        let speedtests = r.u32()? as usize;
        c.speedtests
            .reserve(speedtests.min(r.remaining() / SPEEDTEST_RECORD_LEN));
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

    /// Starts a checkpoint blob of `kind`: a writer holding the
    /// magic/version/kind preamble, with room for `body` more bytes and the
    /// CRC [`WireWriter::seal`] appends.
    pub fn begin_blob(kind: u8, body: usize) -> WireWriter {
        let mut w = WireWriter::sealed(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            PREAMBLE_LEN + body + 4,
        );
        w.u8(kind);
        w
    }

    /// Ends a blob's decode: every byte before the CRC must have been read.
    pub fn close_blob(r: WireReader<'_>) -> Result<(), CheckpointError> {
        match r.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }.into()),
        }
    }

    /// Opens a blob of `kind` through the sealed envelope — magic, version,
    /// the kind byte, then the CRC — and returns a reader at the blob body
    /// that ends where the CRC begins.
    pub fn open_blob<'a>(bytes: &'a [u8], kind: u8) -> Result<WireReader<'a>, CheckpointError> {
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
    pub fn encode_server_checkpoint(collector: &RefCollector) -> Vec<u8> {
        let mut w = begin_blob(KIND_SERVER, collector_len(collector));
        put_collector(&mut w, collector);
        w.seal()
    }

    /// Rebuilds a collector from a server checkpoint blob, verifying its
    /// envelope first like every other artefact in this crate.
    pub fn decode_server_checkpoint(bytes: &[u8]) -> Result<RefCollector, CheckpointError> {
        let mut r = open_blob(bytes, KIND_SERVER)?;
        let collector = get_collector(&mut r)?;
        close_blob(r)?;
        Ok(collector)
    }
}

use reference::{PAGE_RECORD_LEN, PREAMBLE_LEN, SPEEDTEST_RECORD_LEN};

/// Where an SLTB batch states its page and speedtest counts.
const PAGE_COUNT_AT: usize = 24;
const SPEEDTEST_COUNT_AT: usize = 28;
/// Where an SLTB batch's records begin.
const SLTB_RECORDS_AT: usize = 32;
/// The domain bytes of a page record (city, ISP, exit AS, weather) and
/// of a speedtest record (city, Starlink flag), as offsets in the record.
const PAGE_DOMAINS: [usize; 4] = [8, 9, 82, 83];
const SPEEDTEST_DOMAINS: [usize; 2] = [8, 9];

/// One arbitrary (but valid) page record, covering every enum arm the
/// wire format encodes.
fn random_page(user: u64, rng: &mut SimRng) -> PageRecord {
    let ptt = PttBreakdown {
        redirect_ms: rng.range_f64(0.0, 50.0),
        dns_ms: rng.range_f64(0.0, 80.0),
        connect_ms: rng.range_f64(0.0, 120.0),
        tls_ms: rng.range_f64(0.0, 150.0),
        request_ms: rng.range_f64(0.0, 400.0),
        response_ms: rng.range_f64(0.0, 900.0),
    };
    PageRecord {
        user,
        city: *rng.choose(&City::ALL),
        isp: if rng.bernoulli(0.6) {
            IspClass::Starlink
        } else {
            IspClass::NonStarlink(*rng.choose(&starlink_channel::AccessTech::ALL))
        },
        at: SimTime::from_secs(rng.below(200 * 86_400)),
        rank: 1 + rng.below(1_000_000),
        plt_ms: ptt.total_ms() + rng.range_f64(0.0, 2_000.0),
        ptt,
        exit_as: match rng.below(3) {
            0 => None,
            1 => Some(ExitAs::Google),
            _ => Some(ExitAs::SpaceX),
        },
        weather: *rng.choose(&WeatherCondition::ALL),
    }
}

/// A valid batch of zero to five pages and zero to two speedtests.
fn random_batch(rng: &mut SimRng, user: u64, seq: u64) -> RecordBatch {
    let (pages, speedtests) = (rng.below(6), rng.below(3));
    RecordBatch {
        user,
        seq,
        pages: (0..pages).map(|_| random_page(user, rng)).collect(),
        speedtests: (0..speedtests)
            .map(|_| SpeedtestRecord {
                user,
                city: *rng.choose(&City::ALL),
                starlink: rng.bernoulli(0.5),
                at_secs: rng.below(200 * 86_400),
                downlink_mbps: rng.range_f64(0.1, 300.0),
                uplink_mbps: rng.range_f64(0.1, 40.0),
            })
            .collect(),
    }
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn set_u32(bytes: &mut [u8], at: usize, v: usize) {
    bytes[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
}

/// Seals `bytes` again over what it now holds: the last four bytes
/// become the CRC-32 of the rest, as in every sealed format.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 4;
    let crc = crc32(&bytes[..n]);
    bytes[n..].copy_from_slice(&crc.to_le_bytes());
}

/// A value for a domain byte: mostly near the edges of the valid codes.
fn domain_value(rng: &mut SimRng) -> u8 {
    if rng.bernoulli(0.8) {
        rng.below(24) as u8
    } else {
        rng.next_u32() as u8
    }
}

/// Sets one to three domain bytes of random records in the regions at
/// `pages_at` (`pages` records) and `tests_at` (`tests` records).
fn damage_domains(
    b: &mut [u8],
    rng: &mut SimRng,
    (pages_at, pages): (usize, usize),
    (tests_at, tests): (usize, usize),
) {
    if pages + tests == 0 {
        return;
    }
    for _ in 0..1 + rng.below(3) {
        let k = rng.index(pages + tests);
        let at = if k < pages {
            pages_at + k * PAGE_RECORD_LEN + *rng.choose(&PAGE_DOMAINS)
        } else {
            tests_at + (k - pages) * SPEEDTEST_RECORD_LEN + *rng.choose(&SPEEDTEST_DOMAINS)
        };
        b[at] = domain_value(rng);
    }
}

/// A count near `count`: one less or more, two more, or far beyond.
fn moved_count(count: usize, rng: &mut SimRng) -> usize {
    match rng.below(4) {
        0 => count.wrapping_sub(1) & 0xFFFF_FFFF,
        1 => count + 1,
        2 => count + 2,
        _ => 0xFFFF_FFFF,
    }
}

/// The sealed batch `clean`, damaged in one of the ways this file covers:
/// most are re-sealed, so the CRC passes and the checks behind it run.
fn damaged_batch(clean: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut b = clean.to_vec();
    let pages = u32_at(&b, PAGE_COUNT_AT);
    let tests = u32_at(&b, SPEEDTEST_COUNT_AT);
    let tests_at = SLTB_RECORDS_AT + pages * PAGE_RECORD_LEN;
    let records = SLTB_RECORDS_AT..b.len() - 4;
    match rng.below(9) {
        0 => damage_domains(&mut b, rng, (SLTB_RECORDS_AT, pages), (tests_at, tests)),
        1 if !records.is_empty() => {
            let at = records.start + rng.index(records.len());
            b[at] = rng.next_u32() as u8;
        }
        2 => set_u32(&mut b, PAGE_COUNT_AT, moved_count(pages, rng)),
        3 => set_u32(&mut b, SPEEDTEST_COUNT_AT, moved_count(tests, rng)),
        // Counts and length moved together: a page record's worth of
        // bytes leaves or joins at any offset, so later records shift.
        4 if pages > 0 => {
            let at = records.start + rng.index(records.len() - PAGE_RECORD_LEN + 1);
            b.drain(at..at + PAGE_RECORD_LEN);
            set_u32(&mut b, PAGE_COUNT_AT, pages - 1);
        }
        5 => {
            let at = records.start + rng.index(records.len() + 1);
            let fill: Vec<u8> = (0..PAGE_RECORD_LEN).map(|_| domain_value(rng)).collect();
            b.splice(at..at, fill);
            set_u32(&mut b, PAGE_COUNT_AT, pages + 1);
        }
        6 => {
            if rng.bernoulli(0.5) {
                b.truncate(4 + rng.index(b.len() - 4));
            } else {
                b.extend((0..1 + rng.below(8)).map(|_| rng.next_u32() as u8));
            }
        }
        // Damage the seal does not cover up: one flipped bit.
        7 => {
            let bit = rng.index(b.len() * 8);
            b[bit / 8] ^= 1 << (bit % 8);
            return b;
        }
        _ => return b,
    }
    reseal(&mut b);
    b
}

/// Asserts that the live collector and the reference hold the same
/// state, as everything the collector's public surface shows.
fn assert_same(live: &Collector, old: &reference::RefCollector, what: &str) {
    assert_eq!(live.duplicates(), old.duplicates, "{what}: duplicates");
    assert_eq!(live.quarantine(), &old.quarantine[..], "{what}: quarantine");
    assert_eq!(live.accepted_batches(), old.seen.len(), "{what}: batches");
    assert_eq!(
        live.dataset().digest(),
        old.dataset().digest(),
        "{what}: dataset digest"
    );
    assert_eq!(
        encode_server_checkpoint(live),
        reference::encode_server_checkpoint(old),
        "{what}: checkpoint bytes"
    );
}

/// A short name for what became of an upload or a blob, to show which
/// paths a test took.
fn outcome_of_error(e: &WireError) -> String {
    match e {
        WireError::BadField { field } => format!("bad-field {field}"),
        e => e.code().to_string(),
    }
}

/// Feeds both collectors the same uploads: fresh batches from six users
/// (so `(user, seq)` pairs meet again in other batches), damaged or not,
/// and re-uploads of earlier ones. Returns the outcomes seen.
fn feed(
    rng: &mut SimRng,
    uploads: u64,
    live: &mut Collector,
    old: &mut reference::RefCollector,
    what: &str,
) -> BTreeSet<String> {
    let mut outcomes = BTreeSet::new();
    let mut sent: Vec<Vec<u8>> = Vec::new();
    for i in 0..uploads {
        let upload = if !sent.is_empty() && rng.bernoulli(0.15) {
            sent[rng.index(sent.len())].clone()
        } else {
            let (user, seq) = (rng.below(6), rng.below(12));
            damaged_batch(&encode_batch(&random_batch(rng, user, seq)), rng)
        };
        let at = SimTime::from_secs(i);
        let verdict = live.submit(&upload, at);
        assert_eq!(verdict, old.submit(&upload, at), "{what}: upload {i}");
        outcomes.insert(match verdict {
            Ingested::Accepted { .. } => "accepted".to_string(),
            Ingested::Duplicate => "duplicate".to_string(),
            Ingested::Quarantined { reason } => outcome_of_error(&reason),
        });
        assert_eq!(
            decode_batch(&upload).map(|b| encode_batch(&b)),
            reference::decode_batch(&upload).map(|b| encode_batch(&b)),
            "{what}: decode_batch of upload {i}"
        );
        sent.push(upload);
    }
    outcomes
}

#[test]
fn submit_keeps_every_verdict_quarantine_digest_and_checkpoint_byte() {
    let mut outcomes = BTreeSet::new();
    for seed in 0..32 {
        let mut rng = SimRng::seed_from(seed).stream("collector.differential.submit");
        let mut live = Collector::new();
        let mut old = reference::RefCollector::new();
        let what = format!("seed {seed}");
        outcomes.append(&mut feed(&mut rng, 150, &mut live, &mut old, &what));
        assert_same(&live, &old, &what);
    }
    for want in [
        "accepted",
        "duplicate",
        "truncated",
        "trailing-bytes",
        "checksum-mismatch",
        "bad-field city",
        "bad-field isp",
        "bad-field exit_as",
        "bad-field weather",
        "bad-field starlink",
    ] {
        assert!(
            outcomes.contains(want),
            "no upload was {want}: {outcomes:?}"
        );
    }
}

/// What a decoded server checkpoint shows: its duplicate count,
/// quarantine, batch count, dataset digest and re-encoded bytes.
type Restored = (u64, Vec<QuarantinedBatch>, usize, u64, Vec<u8>);

fn restore_live(blob: &[u8]) -> Result<Restored, CheckpointError> {
    decode_server_checkpoint(blob).map(|c| {
        (
            c.duplicates(),
            c.quarantine().to_vec(),
            c.accepted_batches(),
            c.dataset().digest(),
            encode_server_checkpoint(&c),
        )
    })
}

fn restore_old(blob: &[u8]) -> Result<Restored, CheckpointError> {
    reference::decode_server_checkpoint(blob).map(|c| {
        (
            c.duplicates,
            c.quarantine.clone(),
            c.seen.len(),
            c.dataset().digest(),
            reference::encode_server_checkpoint(&c),
        )
    })
}

/// Where a server blob keeps its record counts and regions.
struct BlobLayout {
    page_count_at: usize,
    pages: usize,
    test_count_at: usize,
    tests: usize,
}

impl BlobLayout {
    fn of(blob: &[u8]) -> Self {
        let page_count_at = PREAMBLE_LEN + 4 + 16 * u32_at(blob, PREAMBLE_LEN) + 8;
        let pages = u32_at(blob, page_count_at);
        let test_count_at = page_count_at + 4 + pages * PAGE_RECORD_LEN;
        let tests = u32_at(blob, test_count_at);
        BlobLayout {
            page_count_at,
            pages,
            test_count_at,
            tests,
        }
    }

    fn pages_at(&self) -> usize {
        self.page_count_at + 4
    }

    fn tests_at(&self) -> usize {
        self.test_count_at + 4
    }

    fn quarantine_at(&self) -> usize {
        self.tests_at() + self.tests * SPEEDTEST_RECORD_LEN
    }
}

/// A collector state both sides agree on, and its server blob.
fn collector_blob(rng: &mut SimRng, uploads: u64) -> Vec<u8> {
    let mut live = Collector::new();
    let mut old = reference::RefCollector::new();
    feed(rng, uploads, &mut live, &mut old, "blob state");
    assert_same(&live, &old, "blob state");
    encode_server_checkpoint(&live)
}

/// The server blob `clean`, damaged in one of the ways this file covers
/// and re-sealed.
fn damaged_blob(clean: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut b = clean.to_vec();
    let l = BlobLayout::of(&b);
    let pages = (l.pages_at(), l.pages);
    let tests = (l.tests_at(), l.tests);
    match rng.below(8) {
        0 => damage_domains(&mut b, rng, pages, tests),
        // A page count that overruns the body, sometimes after an
        // earlier bad record.
        1 => {
            if rng.bernoulli(0.5) {
                damage_domains(&mut b, rng, pages, (0, 0));
            }
            set_u32(
                &mut b,
                l.page_count_at,
                l.pages + 1 + rng.index(3 + l.pages),
            );
        }
        2 => set_u32(&mut b, l.page_count_at, moved_count(l.pages, rng)),
        3 => {
            if rng.bernoulli(0.5) {
                damage_domains(&mut b, rng, (0, 0), tests);
            }
            set_u32(&mut b, l.test_count_at, moved_count(l.tests, rng));
        }
        // The body cut inside a record region, with or without damage
        // before the cut.
        4 => {
            if rng.bernoulli(0.5) {
                damage_domains(&mut b, rng, pages, tests);
            }
            let cut = l.pages_at() + rng.index(l.quarantine_at() - l.pages_at() + 1);
            b.truncate(cut);
            b.extend([0; 4]);
        }
        5 => {
            let at = PREAMBLE_LEN + rng.index(b.len() - PREAMBLE_LEN - 4);
            b[at] = rng.next_u32() as u8;
        }
        6 => {
            let at = b.len() - 4;
            let extra: Vec<u8> = (0..1 + rng.below(90))
                .map(|_| rng.next_u32() as u8)
                .collect();
            b.splice(at..at, extra);
        }
        _ => {
            let seen = u32_at(&b, PREAMBLE_LEN);
            set_u32(&mut b, PREAMBLE_LEN, moved_count(seen, rng));
        }
    }
    reseal(&mut b);
    b
}

#[test]
fn a_restored_checkpoint_keeps_every_result_and_wire_error() {
    let mut outcomes = BTreeSet::new();
    for seed in 0..24 {
        let mut rng = SimRng::seed_from(seed).stream("collector.differential.blob");
        let clean = collector_blob(&mut rng, 40);
        assert_eq!(
            restore_live(&clean),
            restore_old(&clean),
            "seed {seed}: clean"
        );
        assert_eq!(restore_live(&clean).unwrap().4, clean);
        for i in 0..200 {
            let blob = damaged_blob(&clean, &mut rng);
            let live = restore_live(&blob);
            assert_eq!(live, restore_old(&blob), "seed {seed}: damage {i}");
            outcomes.insert(match live {
                Ok(_) => "restored".to_string(),
                Err(CheckpointError::Wire(e)) => outcome_of_error(&e),
                Err(e) => e.to_string(),
            });
        }
    }
    for want in [
        "restored",
        "truncated",
        "trailing-bytes",
        "bad-field city",
        "bad-field isp",
        "bad-field exit_as",
        "bad-field weather",
        "bad-field starlink",
        "bad-field reason-code",
    ] {
        assert!(outcomes.contains(want), "no blob was {want}: {outcomes:?}");
    }
}

/// A blob cut at every byte of its record regions and re-sealed, with
/// each domain byte of the record the cut lands in spoiled where the cut
/// spares it: the error is the field-at-a-time read's — the spoiled
/// field, or truncation at the end of the first field the bytes left do
/// not finish.
#[test]
fn a_record_cut_short_fails_as_a_field_at_a_time_read() {
    let mut rng = SimRng::seed_from(7).stream("collector.differential.cut");
    let clean = collector_blob(&mut rng, 12);
    let l = BlobLayout::of(&clean);
    assert!(
        l.pages >= 2 && l.tests >= 2,
        "{} pages, {} tests",
        l.pages,
        l.tests
    );
    let regions = [
        (
            l.pages_at(),
            l.test_count_at,
            PAGE_RECORD_LEN,
            &PAGE_DOMAINS[..],
        ),
        (
            l.tests_at(),
            l.quarantine_at(),
            SPEEDTEST_RECORD_LEN,
            &SPEEDTEST_DOMAINS[..],
        ),
    ];
    let mut checked = 0;
    for (start, end, len, domains) in regions {
        for cut in start..end {
            let have = (cut - start) % len;
            let spoil =
                std::iter::once(None).chain(domains.iter().filter(|&&d| d < have).map(Some));
            for domain in spoil {
                let mut blob = clean[..cut].to_vec();
                if let Some(d) = domain {
                    blob[cut - have + d] = 0xFF;
                }
                blob.extend([0; 4]);
                reseal(&mut blob);
                let live = restore_live(&blob);
                assert!(live.is_err(), "cut at {cut}");
                assert_eq!(live, restore_old(&blob), "cut at {cut}, spoiled {domain:?}");
                checked += 1;
            }
        }
    }
    assert!(checked > 2 * (l.pages * PAGE_RECORD_LEN + l.tests * SPEEDTEST_RECORD_LEN));
}

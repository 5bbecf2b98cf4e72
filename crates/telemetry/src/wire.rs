//! The versioned, checksummed wire format the extension uploads.
//!
//! A real browser extension posts its buffered records over a flaky
//! Starlink uplink; the collector must detect truncation (a connection
//! that died mid-POST) and corruption (damaged bytes that survived
//! transport checksums) instead of silently ingesting garbage. This
//! module defines that contract:
//!
//! ```text
//! +----------+---------+-------+--------+--------+----------+----------+---------+-------+
//! | magic    | version | flags | user   | seq    | #pages   | #tests   | payload | crc32 |
//! | "SLTB" 4 | u16     | u16   | u64    | u64    | u32      | u32      | ...     | u32   |
//! +----------+---------+-------+--------+--------+----------+----------+---------+-------+
//! ```
//!
//! All integers are little-endian; floats travel as their IEEE-754 bit
//! patterns so encode → decode is *byte-exact* (a reproducibility
//! requirement: checkpointed and straight-through runs must produce
//! identical datasets). The CRC-32 covers everything before it.
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`WireError`], which doubles as the collector's machine-readable
//! quarantine reason.

use crate::aschange::ExitAs;
use crate::population::IspClass;
use crate::records::{PageRecord, SpeedtestRecord};
use starlink_channel::{AccessTech, WeatherCondition};
use starlink_geo::City;
use starlink_simcore::SimTime;
use starlink_web::PttBreakdown;
use std::fmt;

/// The four magic bytes every batch starts with.
pub const MAGIC: [u8; 4] = *b"SLTB";
/// The current wire-format version.
pub const VERSION: u16 = 1;

/// Size of the fixed batch header (magic through record counts).
pub const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 4 + 4;
/// Encoded size of one [`PageRecord`].
pub const PAGE_RECORD_LEN: usize = 8 + 1 + 1 + 8 + 8 + 6 * 8 + 8 + 1 + 1;
/// Encoded size of one [`SpeedtestRecord`].
pub const SPEEDTEST_RECORD_LEN: usize = 8 + 1 + 1 + 8 + 8 + 8;

/// Why a batch failed to decode. Every variant is a machine-readable
/// quarantine reason; [`WireError::code`] gives the stable short name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The version field names a format this decoder does not speak.
    UnsupportedVersion {
        /// The version stated in the header.
        got: u16,
    },
    /// The buffer ends before the encoded length says it should — the
    /// upload died mid-transfer.
    Truncated {
        /// Bytes the header implies.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Bytes follow the checksum — two uploads were concatenated or the
    /// length field was damaged.
    TrailingBytes {
        /// How many extra bytes.
        extra: usize,
    },
    /// The CRC-32 over the batch does not match the stated one.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum stated in the trailer.
        stated: u32,
    },
    /// A field decoded to a value outside its domain (unknown city code,
    /// weather code, …) even though the checksum passed.
    BadField {
        /// Which field.
        field: &'static str,
    },
}

impl WireError {
    /// Stable machine-readable short code for quarantine records.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad-magic",
            WireError::UnsupportedVersion { .. } => "unsupported-version",
            WireError::Truncated { .. } => "truncated",
            WireError::TrailingBytes { .. } => "trailing-bytes",
            WireError::ChecksumMismatch { .. } => "checksum-mismatch",
            WireError::BadField { .. } => "bad-field",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => write!(f, "bad magic bytes {found:02x?}"),
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got} (speak {VERSION})")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated batch ({got} of {needed} bytes)")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the checksum")
            }
            WireError::ChecksumMismatch { computed, stated } => write!(
                f,
                "checksum mismatch (computed {computed:08x}, stated {stated:08x})"
            ),
            WireError::BadField { field } => write!(f, "malformed field '{field}'"),
        }
    }
}

impl std::error::Error for WireError {}

/// One upload: a user's buffered records for (usually) one campaign day.
///
/// The `(user, seq)` pair is the idempotency key: a collector that has
/// already accepted a batch with the same pair treats a re-upload as the
/// duplicate it is.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    /// The uploading user's random identifier.
    pub user: u64,
    /// Monotonic per-user upload sequence number.
    pub seq: u64,
    /// Buffered page-load records.
    pub pages: Vec<PageRecord>,
    /// Buffered speedtest records.
    pub speedtests: Vec<SpeedtestRecord>,
}

impl RecordBatch {
    /// Total records carried.
    pub fn len(&self) -> usize {
        self.pages.len() + self.speedtests.len()
    }

    /// Whether the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.speedtests.is_empty()
    }
}

/// Bytes [`crc32`] folds into its state per step (slicing-by-16).
const CRC_SLICES: usize = 16;

/// The slicing lookup tables for [`crc32`], built at compile time (16 KB).
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table of the reflected
/// IEEE polynomial; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, which is what lets sixteen input bytes
/// fold into the state with sixteen independent lookups.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut b = 0u32;
    while b < 256 {
        let mut crc = b;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][b as usize] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum algorithm
/// every real HTTP/zip stack uses. Dependency-free slicing-by-16:
/// sixteen bytes per step through the `const`-built [`CRC_TABLES`], then
/// the tail a byte at a time through the first table. The bit-at-a-time
/// definition it must equal is the reference model in
/// `tests/crc_differential.rs`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(CRC_SLICES);
    for block in &mut blocks {
        // The running state folds into the block's first four bytes;
        // byte `i` then has `CRC_SLICES - 1 - i` bytes after it.
        let state = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ state[i] } else { b };
            crc ^= t[CRC_SLICES - 1 - i][usize::from(b)];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive writers/readers (little-endian, bounds-checked)
// ---------------------------------------------------------------------

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// A fresh writer with room for `capacity` bytes, for encoders that
    /// know their output size up front.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
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

// ---------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// Batch encoding
// ---------------------------------------------------------------------

/// Encodes a batch into its framed, checksummed wire form.
pub fn encode_batch(batch: &RecordBatch) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.bytes(&MAGIC);
    w.u16(VERSION);
    w.u16(0); // flags, reserved
    w.u64(batch.user);
    w.u64(batch.seq);
    w.u32(batch.pages.len() as u32);
    w.u32(batch.speedtests.len() as u32);
    for p in &batch.pages {
        encode_page(&mut w, p);
    }
    for s in &batch.speedtests {
        encode_speedtest(&mut w, s);
    }
    w.seal()
}

/// The best-effort view of a batch header, read *without* validating the
/// checksum. The collector uses it to attribute quarantined uploads to a
/// user when the damage spared the header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeekedHeader {
    /// The stated uploader, if the header bytes were present.
    pub user: Option<u64>,
    /// The stated sequence number.
    pub seq: Option<u64>,
    /// Total records the header claims (pages + speedtests).
    pub claimed_records: Option<u64>,
}

/// Reads what it can of the header without trusting it.
pub fn peek_header(bytes: &[u8]) -> PeekedHeader {
    let mut r = WireReader::new(bytes);
    let mut peek = PeekedHeader::default();
    if r.bytes(4).map(|m| m != MAGIC).unwrap_or(true) {
        return peek;
    }
    if r.u16().is_err() || r.u16().is_err() {
        return peek;
    }
    peek.user = r.u64().ok();
    peek.seq = r.u64().ok();
    if let (Ok(pages), Ok(tests)) = (r.u32(), r.u32()) {
        peek.claimed_records = Some(u64::from(pages) + u64::from(tests));
    }
    peek
}

/// Decodes and validates a framed batch.
///
/// Checks run in trust order: magic, version, framing length (truncation
/// and trailing garbage), checksum, then field domains. Never panics.
pub fn decode_batch(bytes: &[u8]) -> Result<RecordBatch, WireError> {
    let mut r = WireReader::new(bytes);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(WireError::BadMagic { found });
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
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
    let total = HEADER_LEN + body + 4;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let stated = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    let computed = crc32(&bytes[..total - 4]);
    if stated != computed {
        return Err(WireError::ChecksumMismatch { computed, stated });
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> RecordBatch {
        let page = PageRecord {
            user: 0xDEAD_BEEF,
            city: City::London,
            isp: IspClass::Starlink,
            at: SimTime::from_secs(1234),
            rank: 42,
            ptt: PttBreakdown {
                redirect_ms: 1.5,
                dns_ms: 20.25,
                connect_ms: 30.0,
                tls_ms: 40.0,
                request_ms: 100.125,
                response_ms: 60.5,
            },
            plt_ms: 352.375,
            exit_as: Some(ExitAs::Google),
            weather: WeatherCondition::ModerateRain,
        };
        let test = SpeedtestRecord {
            user: 0xDEAD_BEEF,
            city: City::London,
            starlink: true,
            at_secs: 5678,
            downlink_mbps: 123.25,
            uplink_mbps: 11.5,
        };
        RecordBatch {
            user: 0xDEAD_BEEF,
            seq: 7,
            pages: vec![page.clone(), page],
            speedtests: vec![test],
        }
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        let back = decode_batch(&bytes).expect("clean bytes decode");
        assert_eq!(batch, back);
        // Re-encoding the decoded batch reproduces the same bytes.
        assert_eq!(encode_batch(&back), bytes);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = RecordBatch {
            user: 1,
            seq: 0,
            pages: vec![],
            speedtests: vec![],
        };
        let bytes = encode_batch(&batch);
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert_eq!(decode_batch(&bytes).expect("empty decodes"), batch);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode_batch(&sample_batch());
        for cut in 0..bytes.len() {
            let err = decode_batch(&bytes[..cut]).expect_err("prefix must not decode");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn single_byte_corruption_is_detected() {
        let bytes = encode_batch(&sample_batch());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            let result = decode_batch(&bad);
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_batch(&sample_batch());
        bytes.push(0);
        assert_eq!(
            decode_batch(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_batch(&sample_batch());
        bytes[4] = 9; // version LE low byte
        assert_eq!(
            decode_batch(&bytes),
            Err(WireError::UnsupportedVersion { got: 9 })
        );
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = encode_batch(&sample_batch());
        bytes[0] = b'X';
        assert!(matches!(
            decode_batch(&bytes),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn peek_header_survives_checksum_damage() {
        let batch = sample_batch();
        let mut bytes = encode_batch(&batch);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the checksum only
        assert!(decode_batch(&bytes).is_err());
        let peek = peek_header(&bytes);
        assert_eq!(peek.user, Some(batch.user));
        assert_eq!(peek.seq, Some(batch.seq));
        assert_eq!(peek.claimed_records, Some(3));
    }

    #[test]
    fn peek_header_handles_garbage() {
        assert_eq!(peek_header(&[]), PeekedHeader::default());
        assert_eq!(peek_header(b"garbage"), PeekedHeader::default());
        let peek = peek_header(&encode_batch(&sample_batch())[..HEADER_LEN - 2]);
        assert!(peek.user.is_some());
        assert!(peek.claimed_records.is_none());
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(
            WireError::Truncated { needed: 1, got: 0 }.code(),
            "truncated"
        );
        assert_eq!(
            WireError::ChecksumMismatch {
                computed: 0,
                stated: 1
            }
            .code(),
            "checksum-mismatch"
        );
        assert_eq!(WireError::BadMagic { found: [0; 4] }.code(), "bad-magic");
    }

    #[test]
    fn isp_codes_cover_every_class() {
        for tech in AccessTech::ALL {
            let isp = IspClass::NonStarlink(tech);
            assert_eq!(isp_from_code(isp_code(isp)), Some(isp));
        }
        assert_eq!(isp_from_code(0), Some(IspClass::Starlink));
        assert_eq!(isp_from_code(99), None);
    }
}

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
//! SLTB is one of four CRC-sealed formats, with SLCS frames
//! ([`crate::slcs`]), SLCP checkpoints ([`crate::checkpoint`]) and the
//! storage `MANIFEST` ([`crate::storage`]). All four seal their envelope
//! through this module's writer and open it through its reader, so they
//! share one trust order: magic, then version, then the header's own
//! fields, then exact length, then CRC-32, then body fields. A format
//! whose header states no length (SLCP) runs to the end of the buffer.
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
const MAGIC: [u8; 4] = *b"SLTB";
/// The current wire-format version.
const VERSION: u16 = 1;

/// Size of the fixed batch header (magic through record counts).
const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 4 + 4;
/// Encoded size of one [`PageRecord`].
pub(crate) const PAGE_RECORD_LEN: usize = page_at::LEN;
/// Encoded size of one [`SpeedtestRecord`].
pub(crate) const SPEEDTEST_RECORD_LEN: usize = speedtest_at::LEN;

/// Why a batch failed to decode. Every variant is a machine-readable
/// quarantine reason; [`WireError::code`] gives the stable short name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not `MAGIC`.
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
    /// Every variant's [`WireError::code`], in declaration order. The
    /// codes are persisted inside checkpoints, which read them back
    /// against this one table.
    pub(crate) const CODES: [&'static str; 6] = [
        "bad-magic",
        "unsupported-version",
        "truncated",
        "trailing-bytes",
        "checksum-mismatch",
        "bad-field",
    ];

    /// Stable machine-readable short code for quarantine records.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => Self::CODES[0],
            WireError::UnsupportedVersion { .. } => Self::CODES[1],
            WireError::Truncated { .. } => Self::CODES[2],
            WireError::TrailingBytes { .. } => Self::CODES[3],
            WireError::ChecksumMismatch { .. } => Self::CODES[4],
            WireError::BadField { .. } => Self::CODES[5],
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

/// The reflected IEEE 802.3 generator polynomial, `P(x)` with `x^0` in
/// bit 31 and the `x^32` term implied.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Multiplies a bit-reflected residue by `x`, modulo [`CRC_POLY`].
const fn mul_x(r: u32) -> u32 {
    (r >> 1) ^ (CRC_POLY & (r & 1).wrapping_neg())
}

/// Bytes [`update`] folds into its state per step (slicing-by-16).
const CRC_SLICES: usize = 16;

/// The slicing lookup tables for [`update`], built at compile time (16 KB).
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
            crc = mul_x(crc);
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
/// every real HTTP/zip stack uses, and the only CRC entry point of this
/// crate. On x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs of at least
/// 128 bytes are folded sixty-four bytes at a time by carry-less
/// multiplication and only the last partial 16-byte block goes through
/// the table kernel; shorter inputs, and every input on other CPUs, take
/// the table kernel alone (slicing-by-16 over the `const`-built
/// `CRC_TABLES`). Both give the same value; the bit-at-a-time
/// definition they must equal is the reference model in
/// `tests/crc_differential.rs`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `clmul::fold` is compiled for PCLMULQDQ and SSE4.1, and
        // both were detected on this CPU by the condition just above.
        #[allow(unsafe_code)]
        let state = unsafe { clmul::fold(!0, blocks) };
        return !update(state, tail);
    }
    !update(!0, bytes)
}

/// The table kernel: advances the raw (un-inverted) CRC register `crc`
/// over `bytes`, sixteen bytes per step through [`CRC_TABLES`], then the
/// tail a byte at a time through the first table.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// The carry-less-multiply fold of Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
/// for the reflected polynomial [`CRC_POLY`].
///
/// A 128-bit lane holding message bits `M` stands for `M·x^32 mod P`.
/// Folding a lane forward over `n` bits multiplies its two halves by
/// `x^(n+32)` and `x^(n-32)` modulo `P` (the keys) and XORs the products
/// into the lane `n` bits further on, so the message shrinks by a lane
/// per fold without a division. Four lanes fold in parallel over 512
/// bits, then into one lane, then one lane over 128 bits at a time; a
/// Barrett reduction turns the last lane into the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{mul_x, CRC_POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`super::crc32`] folds: eight blocks, so the
    /// four-lane loop runs at least once. Shorter inputs (HELLOs,
    /// ACK/REJECT replies, storage manifests) stay on the table kernel;
    /// folding them would save a few tens of nanoseconds each.
    pub(super) const MIN_LEN: usize = 128;

    /// `x^n mod P(x)`, bit-reflected like the CRC register.
    const fn x_pow_mod_p(n: u32) -> u32 {
        let mut r = 1 << 31;
        let mut i = 0;
        while i < n {
            r = mul_x(r);
            i += 1;
        }
        r
    }

    /// A fold key: the reflected residue `x^n mod P` one place up, since
    /// the carry-less product of two reflected operands lands one bit low.
    const fn key(n: u32) -> i64 {
        (x_pow_mod_p(n) as i64) << 1
    }

    /// The 33-bit `P(x)`, bit-reflected (`P'` in the paper).
    const P_PRIME: i64 = ((CRC_POLY as i64) << 1) | 1;

    /// `μ = floor(x^64 / P(x))`, bit-reflected over its 33 bits.
    const MU: i64 = {
        let p = (CRC_POLY.reverse_bits() as u128) | 1 << 32;
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        let mut bit = 64;
        while bit >= 32 {
            if rem >> bit & 1 == 1 {
                rem ^= p << (bit - 32);
                q |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    };

    /// Four lanes forward over four lanes (512 bits).
    const K1: i64 = key(4 * 128 + 32);
    const K2: i64 = key(4 * 128 - 32);
    /// One lane forward over one lane (128 bits).
    const K3: i64 = key(128 + 32);
    const K4: i64 = key(128 - 32);
    /// The last 96 bits down to 64.
    const K5: i64 = key(64);

    /// One 16-byte block as a lane, least significant byte first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let word = |half: &[u8]| {
            u64::from_le_bytes(half.try_into().expect("a 16-byte block has two halves")) as i64
        };
        _mm_set_epi64x(word(hi), word(lo))
    }

    /// `lane` folded forward onto `next` under the key pair `keys`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC register `state` over `blocks`, which must
    /// number at least four.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_onto(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_onto(x, lane, k3k4);
        }
        for block in singles {
            x = fold_onto(x, load(block), k3k4);
        }

        // 128 → 96 bits: the low half forward over 64 bits.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits forward over 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: the quotient estimate T1 = (R mod x^32)·μ, then
        // T2 = (T1 mod x^32)·P; the register is the upper half of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The derived constants are the ones the paper and every
        /// published implementation of this fold print.
        #[test]
        fn fold_constants_are_the_published_ones() {
            assert_eq!(K1, 0x1_5444_2BD4);
            assert_eq!(K2, 0x1_C6E4_1596);
            assert_eq!(K3, 0x1_7519_97D0);
            assert_eq!(K4, 0x0_CCAA_009E);
            assert_eq!(K5, 0x1_63CD_6124);
            assert_eq!(P_PRIME, 0x1_DB71_0641);
            assert_eq!(MU, 0x1_F701_1641);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive writers/readers (little-endian, bounds-checked)
// ---------------------------------------------------------------------

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

/// Where each page-record field starts in the record's
/// [`PAGE_RECORD_LEN`]-byte wire form: the one layout that encode, decode
/// and check share. A field runs to the next one's offset.
mod page_at {
    pub const USER: usize = 0;
    pub const CITY: usize = USER + 8;
    pub const ISP: usize = CITY + 1;
    pub const AT: usize = ISP + 1;
    pub const RANK: usize = AT + 8;
    /// The six PTT components, eight bytes each, in `PttBreakdown` order.
    pub const PTT: usize = RANK + 8;
    pub const PLT: usize = PTT + 6 * 8;
    pub const EXIT_AS: usize = PLT + 8;
    pub const WEATHER: usize = EXIT_AS + 1;
    pub const LEN: usize = WEATHER + 1;
    /// Where each field ends, in wire order.
    pub const ENDS: [usize; 14] = [
        CITY,
        ISP,
        AT,
        RANK,
        PTT,
        PTT + 8,
        PTT + 16,
        PTT + 24,
        PTT + 32,
        PTT + 40,
        PLT,
        EXIT_AS,
        WEATHER,
        LEN,
    ];
}

/// The speedtest record's layout, as [`page_at`] is the page record's.
mod speedtest_at {
    pub const USER: usize = 0;
    pub const CITY: usize = USER + 8;
    pub const STARLINK: usize = CITY + 1;
    pub const AT_SECS: usize = STARLINK + 1;
    pub const DOWNLINK: usize = AT_SECS + 8;
    pub const UPLINK: usize = DOWNLINK + 8;
    pub const LEN: usize = UPLINK + 8;
    /// Where each field ends, in wire order.
    pub const ENDS: [usize; 6] = [CITY, STARLINK, AT_SECS, DOWNLINK, UPLINK, LEN];
}

fn put_u64(rec: &mut [u8], at: usize, v: u64) {
    rec[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(rec: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(rec[at..at + 8].try_into().expect("a field of eight bytes"))
}

fn get_f64(rec: &[u8], at: usize) -> f64 {
    f64::from_bits(get_u64(rec, at))
}

/// One page record's wire form.
pub(crate) fn encode_page(r: &PageRecord) -> [u8; PAGE_RECORD_LEN] {
    use page_at::*;
    let mut rec = [0; PAGE_RECORD_LEN];
    put_u64(&mut rec, USER, r.user);
    rec[CITY] = r.city.code();
    rec[ISP] = isp_code(r.isp);
    put_u64(&mut rec, AT, r.at.as_nanos());
    put_u64(&mut rec, RANK, r.rank);
    let p = &r.ptt;
    let ptt = [
        p.redirect_ms,
        p.dns_ms,
        p.connect_ms,
        p.tls_ms,
        p.request_ms,
        p.response_ms,
    ];
    for (i, v) in ptt.into_iter().enumerate() {
        put_u64(&mut rec, PTT + 8 * i, v.to_bits());
    }
    put_u64(&mut rec, PLT, r.plt_ms.to_bits());
    rec[EXIT_AS] = exit_as_code(r.exit_as);
    rec[WEATHER] = r.weather.code();
    rec
}

/// A page record's four domain bytes, decoded in wire order — city, ISP,
/// exit AS, weather. This is the one place they are checked; checking a
/// record without decoding it is this call, its result dropped.
fn page_domains(
    rec: &[u8; PAGE_RECORD_LEN],
) -> Result<(City, IspClass, Option<ExitAs>, WeatherCondition), WireError> {
    use page_at::*;
    let city = City::from_code(rec[CITY]).ok_or(WireError::BadField { field: "city" })?;
    let isp = isp_from_code(rec[ISP]).ok_or(WireError::BadField { field: "isp" })?;
    let exit_as = exit_as_from_code(rec[EXIT_AS])?;
    let weather = WeatherCondition::from_code(rec[WEATHER])
        .ok_or(WireError::BadField { field: "weather" })?;
    Ok((city, isp, exit_as, weather))
}

/// Decodes one page record.
fn decode_page(rec: &[u8; PAGE_RECORD_LEN]) -> Result<PageRecord, WireError> {
    use page_at::*;
    let (city, isp, exit_as, weather) = page_domains(rec)?;
    Ok(PageRecord {
        user: get_u64(rec, USER),
        city,
        isp,
        at: SimTime::from_nanos(get_u64(rec, AT)),
        rank: get_u64(rec, RANK),
        ptt: PttBreakdown {
            redirect_ms: get_f64(rec, PTT),
            dns_ms: get_f64(rec, PTT + 8),
            connect_ms: get_f64(rec, PTT + 16),
            tls_ms: get_f64(rec, PTT + 24),
            request_ms: get_f64(rec, PTT + 32),
            response_ms: get_f64(rec, PTT + 40),
        },
        plt_ms: get_f64(rec, PLT),
        exit_as,
        weather,
    })
}

/// One speedtest record's wire form.
pub(crate) fn encode_speedtest(r: &SpeedtestRecord) -> [u8; SPEEDTEST_RECORD_LEN] {
    use speedtest_at::*;
    let mut rec = [0; SPEEDTEST_RECORD_LEN];
    put_u64(&mut rec, USER, r.user);
    rec[CITY] = r.city.code();
    rec[STARLINK] = u8::from(r.starlink);
    put_u64(&mut rec, AT_SECS, r.at_secs);
    put_u64(&mut rec, DOWNLINK, r.downlink_mbps.to_bits());
    put_u64(&mut rec, UPLINK, r.uplink_mbps.to_bits());
    rec
}

/// A speedtest record's two domain bytes, decoded in wire order — city,
/// then the Starlink flag. This is the one place they are checked, as
/// [`page_domains`] is for page records.
fn speedtest_domains(rec: &[u8; SPEEDTEST_RECORD_LEN]) -> Result<(City, bool), WireError> {
    use speedtest_at::*;
    let city = City::from_code(rec[CITY]).ok_or(WireError::BadField { field: "city" })?;
    let starlink = match rec[STARLINK] {
        0 => false,
        1 => true,
        _ => return Err(WireError::BadField { field: "starlink" }),
    };
    Ok((city, starlink))
}

/// Decodes one speedtest record.
fn decode_speedtest(rec: &[u8; SPEEDTEST_RECORD_LEN]) -> Result<SpeedtestRecord, WireError> {
    use speedtest_at::*;
    let (city, starlink) = speedtest_domains(rec)?;
    Ok(SpeedtestRecord {
        user: get_u64(rec, USER),
        city,
        starlink,
        at_secs: get_u64(rec, AT_SECS),
        downlink_mbps: get_f64(rec, DOWNLINK),
        uplink_mbps: get_f64(rec, UPLINK),
    })
}

/// Takes `count` records of `N` bytes from `r` as one slice, once
/// `check` has passed each of them in order (what it decodes is dropped).
///
/// When the reader runs out inside a record, the error is the one
/// reading that record a field at a time gives (fields ending at
/// `ends`): a bad domain byte among the bytes present, else truncation
/// at the end of the first field they do not finish. The missing bytes
/// stand in as zeros for `check`, which every domain accepts.
fn take_checked<'a, T, const N: usize>(
    r: &mut WireReader<'a>,
    count: usize,
    ends: &[usize],
    check: fn(&[u8; N]) -> Result<T, WireError>,
) -> Result<&'a [u8], WireError> {
    let whole = count.min(r.remaining() / N);
    let region = r.bytes(whole * N)?;
    for rec in region.as_chunks::<N>().0 {
        check(rec)?;
    }
    if whole < count {
        // The reader runs out inside record number `whole`.
        let have = r.remaining();
        let mut short = [0; N];
        short[..have].copy_from_slice(&r.buf[r.pos..]);
        check(&short)?;
        let end = ends.iter().copied().find(|&end| end > have).unwrap_or(N);
        return Err(WireError::Truncated {
            needed: r.pos + end,
            got: r.buf.len(),
        });
    }
    Ok(region)
}

/// Takes `count` checked page records from `r` (see [`take_checked`]).
pub(crate) fn take_pages<'a>(r: &mut WireReader<'a>, count: usize) -> Result<&'a [u8], WireError> {
    take_checked(r, count, &page_at::ENDS, page_domains)
}

/// Takes `count` checked speedtest records from `r` (see
/// [`take_checked`]).
pub(crate) fn take_speedtests<'a>(
    r: &mut WireReader<'a>,
    count: usize,
) -> Result<&'a [u8], WireError> {
    take_checked(r, count, &speedtest_at::ENDS, speedtest_domains)
}

/// Decodes every record of a region [`take_checked`] returned, into a
/// vector sized once (collecting into a `Result` would grow it by
/// doubling).
fn decode_all<T, const N: usize>(
    region: &[u8],
    decode: fn(&[u8; N]) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let recs = region.as_chunks::<N>().0;
    let mut out = Vec::with_capacity(recs.len());
    for rec in recs {
        out.push(decode(rec)?);
    }
    Ok(out)
}

/// Decodes a region of page records that [`take_pages`] returned.
pub(crate) fn decode_pages(region: &[u8]) -> Result<Vec<PageRecord>, WireError> {
    decode_all(region, decode_page)
}

/// Decodes a region of speedtest records that [`take_speedtests`]
/// returned.
pub(crate) fn decode_speedtests(region: &[u8]) -> Result<Vec<SpeedtestRecord>, WireError> {
    decode_all(region, decode_speedtest)
}

// ---------------------------------------------------------------------
// Batch encoding
// ---------------------------------------------------------------------

/// Encodes a batch into its framed, checksummed wire form.
pub fn encode_batch(batch: &RecordBatch) -> Vec<u8> {
    let len = HEADER_LEN
        + batch.pages.len() * PAGE_RECORD_LEN
        + batch.speedtests.len() * SPEEDTEST_RECORD_LEN
        + 4;
    let mut w = WireWriter::sealed(MAGIC, VERSION, len);
    w.u16(0); // flags, reserved
    w.u64(batch.user);
    w.u64(batch.seq);
    w.u32(batch.pages.len() as u32);
    w.u32(batch.speedtests.len() as u32);
    for p in &batch.pages {
        w.bytes(&encode_page(p));
    }
    for s in &batch.speedtests {
        w.bytes(&encode_speedtest(s));
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

/// A batch that has passed every check but is not decoded: its records
/// stay in their wire form, as slices of the received bytes.
#[derive(Debug)]
pub(crate) struct BatchView<'a> {
    /// The uploading user.
    pub user: u64,
    /// The upload's sequence number.
    pub seq: u64,
    /// The page records, [`PAGE_RECORD_LEN`] bytes each.
    pub pages: &'a [u8],
    /// The speedtest records, [`SPEEDTEST_RECORD_LEN`] bytes each.
    pub speedtests: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Opens and checks a framed batch.
    ///
    /// Checks run in the trust order every sealed format of this crate
    /// keeps: magic, version, the header's own fields (record counts with
    /// overflow checks), exact length (truncation and trailing garbage),
    /// checksum, then each record's domain bytes, pages before
    /// speedtests. Never panics.
    pub fn open(bytes: &'a [u8]) -> Result<Self, WireError> {
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
        Ok(BatchView {
            user,
            seq,
            pages: take_pages(&mut r, page_count)?,
            speedtests: take_speedtests(&mut r, speedtest_count)?,
        })
    }

    /// Page records carried.
    pub fn page_count(&self) -> usize {
        self.pages.len() / PAGE_RECORD_LEN
    }

    /// Speedtest records carried.
    pub fn speedtest_count(&self) -> usize {
        self.speedtests.len() / SPEEDTEST_RECORD_LEN
    }
}

/// Decodes and validates a framed batch: the checks of the crate's
/// batch view, in their trust order (magic, version, record counts,
/// exact length, checksum, each record's domain bytes), then the checked
/// records decoded. Never panics.
pub fn decode_batch(bytes: &[u8]) -> Result<RecordBatch, WireError> {
    let view = BatchView::open(bytes)?;
    Ok(RecordBatch {
        user: view.user,
        seq: view.seq,
        pages: decode_pages(view.pages)?,
        speedtests: decode_speedtests(view.speedtests)?,
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

    /// The table kernel alone on inputs at and past the fold's 128-byte
    /// cut, which `crc32` never hands it on a CPU with PCLMULQDQ: this is
    /// the whole CRC on every other CPU, so it is checked here against a
    /// bit-at-a-time model whatever CPU runs the test.
    #[test]
    fn table_kernel_alone_matches_the_bitwise_model_past_the_fold_cut() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = mul_x(crc);
                }
            }
            !crc
        }
        let mut rng = starlink_simcore::SimRng::seed_from(0x7AB1E).stream("crc.table");
        let buf: Vec<u8> = (0..16 + 1024).map(|_| rng.next_u32() as u8).collect();
        for offset in [0, 1, 7, 15] {
            for len in (120..=320).chain([511, 512, 1024]) {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    !update(!0, slice),
                    bitwise(slice),
                    "offset {offset} len {len}"
                );
                assert_eq!(crc32(slice), bitwise(slice), "offset {offset} len {len}");
            }
        }
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

    /// A record cut short is checked with zeros in place of its missing
    /// bytes, so zero must be a valid code in every domain.
    #[test]
    fn an_all_zero_record_is_in_every_domain() {
        assert!(page_domains(&[0; PAGE_RECORD_LEN]).is_ok());
        assert!(speedtest_domains(&[0; SPEEDTEST_RECORD_LEN]).is_ok());
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

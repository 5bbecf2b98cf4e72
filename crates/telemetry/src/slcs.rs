//! SLCS v1 — the framed session protocol between extension and collector.
//!
//! SLTB batches (see [`crate::wire`]) describe *what* a user uploads; SLCS
//! describes *how* the conversation goes. Every exchange is a sequence of
//! CRC-sealed frames over one session:
//!
//! ```text
//! +----------+---------+------+---------+-------+--------+---------+-------+
//! | magic    | version | type | session | seq   | paylen | payload | crc32 |
//! | "SLCS" 4 | u16     | u8   | u64     | u64   | u32    | ...     | u32   |
//! +----------+---------+------+---------+-------+--------+---------+-------+
//! ```
//!
//! Frame types:
//!
//! | code | frame  | payload                                   |
//! |------|--------|-------------------------------------------|
//! | 1    | HELLO  | user id (u64)                             |
//! | 2    | BATCH  | one sealed SLTB batch                     |
//! | 3    | ACK    | status byte ([`AckStatus`])               |
//! | 4    | REJECT | reason tag (u16) + retry-after nanos (u64)|
//! | 5    | DRAIN  | empty                                     |
//!
//! All integers are little-endian; the trailing CRC-32 covers everything
//! before it. The envelope is the one [`crate::wire`] defines for every
//! sealed format, trust order included; the header is read once per
//! frame. Decoding never panics and never over-reads: a hostile `paylen`
//! is bounds-checked before any allocation, and every malformed input
//! maps to a typed [`WireError`] — the same quarantine vocabulary the
//! batch decoder speaks.
//!
//! Two checksums guard a BATCH, and neither stands in for the other.
//! The frame CRC, checked here by [`parse_frame`], guards the hop: bytes
//! damaged in transit are shed as [`ShedReason::BadFrame`] before
//! admission spends a token on them. The SLTB CRC inside the payload is
//! checked, with each record's domain bytes, by the crate's batch view
//! (`wire::BatchView::open`) once the batch is admitted, and is what
//! quarantines a payload that was already damaged when the client sealed
//! a sound frame around it. [`parse_frame`] hands the payload on as a
//! slice of the received buffer, so the second check reads the bytes
//! where the first left them — no copy in between. The collector keeps
//! the records it accepts in that same wire form, and decodes them only
//! when [`crate::ingest::Collector::dataset`] is asked for.
//!
//! REJECT reasons are [`ShedReason`]s; the wire code is the reason's
//! trace-digest tag, so the admission log and the protocol can never
//! disagree about what a reject meant.

use crate::wire::{WireError, WireReader, WireWriter};
pub use starlink_obsv::ShedReason;

/// The four magic bytes every SLCS frame starts with.
const SLCS_MAGIC: [u8; 4] = *b"SLCS";
/// The current session-protocol version.
const SLCS_VERSION: u16 = 1;
/// Size of the fixed frame header (magic through payload length).
pub const SLCS_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 8 + 4;
/// Largest payload a frame may declare; anything bigger is hostile.
pub const SLCS_MAX_PAYLOAD: usize = 16 << 20;

/// How the collector disposed of an accepted BATCH frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// New `(user, seq)` pair; records ingested.
    Accepted,
    /// Already-seen `(user, seq)` pair; batch discarded as a re-upload.
    Duplicate,
    /// Batch was admitted but failed to decode; quarantined with a typed
    /// reason on the server side.
    Quarantined,
}

impl AckStatus {
    /// Stable one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            AckStatus::Accepted => 1,
            AckStatus::Duplicate => 2,
            AckStatus::Quarantined => 3,
        }
    }

    /// Inverse of [`AckStatus::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(AckStatus::Accepted),
            2 => Some(AckStatus::Duplicate),
            3 => Some(AckStatus::Quarantined),
            _ => None,
        }
    }
}

/// One SLCS frame, either direction.
///
/// `P` is how a BATCH carries its sealed SLTB bytes: owned (`Vec<u8>`,
/// the default — what [`decode_frame`] returns and [`encode_frame`]
/// takes) or borrowed from the received buffer (`&[u8]`, what
/// [`parse_frame`] returns so the server can ingest without a copy).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<P = Vec<u8>> {
    /// Client opens (or refreshes) a session for `user`.
    Hello {
        /// Session identifier chosen by the client.
        session: u64,
        /// The uploading user's random identifier.
        user: u64,
    },
    /// Client submits one sealed SLTB batch.
    Batch {
        /// The session the batch rides on.
        session: u64,
        /// The client's per-session frame sequence number.
        seq: u64,
        /// The sealed SLTB bytes, carried opaquely.
        payload: P,
    },
    /// Server accepted the referenced frame.
    Ack {
        /// Echoed session.
        session: u64,
        /// Echoed sequence number.
        seq: u64,
        /// What the collector did with the batch.
        status: AckStatus,
    },
    /// Server shed the referenced frame.
    Reject {
        /// Echoed session (0 when the offending frame was undecodable).
        session: u64,
        /// Echoed sequence number (0 when undecodable).
        seq: u64,
        /// Why the frame was shed.
        reason: ShedReason,
        /// Server's hint: nanoseconds to wait before retrying.
        retry_after_ns: u64,
    },
    /// Client asks the server to flush, checkpoint, and close the session.
    Drain {
        /// The session to drain.
        session: u64,
    },
}

impl<P> Frame<P> {
    /// The session this frame belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            Frame::Hello { session, .. }
            | Frame::Batch { session, .. }
            | Frame::Ack { session, .. }
            | Frame::Reject { session, .. }
            | Frame::Drain { session } => session,
        }
    }

    fn type_code(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Batch { .. } => 2,
            Frame::Ack { .. } => 3,
            Frame::Reject { .. } => 4,
            Frame::Drain { .. } => 5,
        }
    }
}

impl Frame<&[u8]> {
    /// The owned frame: a BATCH payload is copied out of the buffer it
    /// was parsed from, every other frame is already self-contained.
    pub fn into_owned(self) -> Frame {
        match self {
            Frame::Hello { session, user } => Frame::Hello { session, user },
            Frame::Batch {
                session,
                seq,
                payload,
            } => Frame::Batch {
                session,
                seq,
                payload: payload.to_vec(),
            },
            Frame::Ack {
                session,
                seq,
                status,
            } => Frame::Ack {
                session,
                seq,
                status,
            },
            Frame::Reject {
                session,
                seq,
                reason,
                retry_after_ns,
            } => Frame::Reject {
                session,
                seq,
                reason,
                retry_after_ns,
            },
            Frame::Drain { session } => Frame::Drain { session },
        }
    }
}

/// Payload sizes of the fixed-shape frames.
const HELLO_PAYLOAD_LEN: usize = 8;
const ACK_PAYLOAD_LEN: usize = 1;
const REJECT_PAYLOAD_LEN: usize = 2 + 8;

/// Encodes a frame into its sealed wire form: header, payload and CRC
/// written once into one exactly-sized buffer (32 bytes for an ACK, 41
/// for a REJECT; a BATCH payload is copied straight from the frame).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (seq, paylen) = match frame {
        Frame::Hello { .. } => (0, HELLO_PAYLOAD_LEN),
        Frame::Batch { seq, payload, .. } => (*seq, payload.len()),
        Frame::Ack { seq, .. } => (*seq, ACK_PAYLOAD_LEN),
        Frame::Reject { seq, .. } => (*seq, REJECT_PAYLOAD_LEN),
        Frame::Drain { .. } => (0, 0),
    };
    let mut w = WireWriter::sealed(SLCS_MAGIC, SLCS_VERSION, SLCS_HEADER_LEN + paylen + 4);
    w.u8(frame.type_code());
    w.u64(frame.session());
    w.u64(seq);
    w.u32(paylen as u32);
    match frame {
        Frame::Hello { user, .. } => w.u64(*user),
        Frame::Batch { payload, .. } => w.bytes(payload),
        Frame::Ack { status, .. } => w.u8(status.code()),
        Frame::Reject {
            reason,
            retry_after_ns,
            ..
        } => {
            w.u16(reason.tag() as u16);
            w.u64(*retry_after_ns);
        }
        Frame::Drain { .. } => {}
    }
    w.seal()
}

/// A frame header past its magic and version.
struct FrameHeader {
    frame_type: u8,
    session: u64,
    seq: u64,
    paylen: usize,
}

impl FrameHeader {
    /// The whole frame's encoded length, CRC included.
    fn frame_len(&self) -> usize {
        SLCS_HEADER_LEN + self.paylen + 4
    }
}

/// Opens a frame's envelope and reads its header, refusing a payload
/// length beyond [`SLCS_MAX_PAYLOAD`]; the reader is left at the payload.
fn open_frame(bytes: &[u8]) -> Result<(WireReader<'_>, FrameHeader), WireError> {
    let mut r = WireReader::open(bytes, SLCS_MAGIC, SLCS_VERSION)?;
    let header = FrameHeader {
        frame_type: r.u8()?,
        session: r.u64()?,
        seq: r.u64()?,
        paylen: r.u32()? as usize,
    };
    if header.paylen > SLCS_MAX_PAYLOAD {
        return Err(WireError::BadField { field: "paylen" });
    }
    Ok((r, header))
}

/// Reads the total encoded length of the frame starting at `bytes[0]`,
/// validating only magic, version, and the declared payload length.
///
/// This is the stream-framing primitive: a TCP reader calls it on the
/// first [`SLCS_HEADER_LEN`] bytes to learn how many more to read before
/// handing the whole frame to [`decode_frame`]. Hostile lengths are
/// refused here, before any buffer is sized from them.
pub fn peek_frame_len(bytes: &[u8]) -> Result<usize, WireError> {
    open_frame(bytes).map(|(_, header)| header.frame_len())
}

/// Reads one frame off a byte stream: the fixed header first, then
/// exactly the length the (validated) header claims — a hostile length
/// never triggers a large allocation because [`peek_frame_len`] enforces
/// the payload cap before the buffer is sized. The bytes are returned
/// undecoded; [`decode_frame`] still judges them.
pub fn read_frame(stream: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; SLCS_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let total = peek_frame_len(&header)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut frame = vec![0u8; total];
    frame[..SLCS_HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[SLCS_HEADER_LEN..])?;
    Ok(frame)
}

/// Decodes and validates one complete sealed frame into its owned form:
/// [`parse_frame`], then the BATCH payload copied out of `bytes`.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    parse_frame(bytes).map(Frame::into_owned)
}

/// Validates one complete sealed frame and returns it with a BATCH
/// payload still borrowed from `bytes` — the whole of the frame's
/// validation, and no copy.
///
/// Checks run in the sealed-format trust order: magic, version, header
/// (the payload cap), declared length (truncation and trailing garbage),
/// checksum, then frame type and payload domains. Never panics, never
/// reads past `bytes`.
pub fn parse_frame(bytes: &[u8]) -> Result<Frame<&[u8]>, WireError> {
    let (mut r, header) = open_frame(bytes)?;
    r.check_seal(header.frame_len())?;
    let FrameHeader {
        frame_type,
        session,
        seq,
        paylen,
    } = header;
    let payload = r.bytes(paylen)?;

    match frame_type {
        1 => {
            let mut p = WireReader::new(payload);
            let user = p.u64()?;
            if p.remaining() != 0 {
                return Err(WireError::BadField { field: "hello" });
            }
            Ok(Frame::Hello { session, user })
        }
        2 => Ok(Frame::Batch {
            session,
            seq,
            payload,
        }),
        3 => {
            let mut p = WireReader::new(payload);
            let status = AckStatus::from_code(p.u8()?).ok_or(WireError::BadField {
                field: "ack-status",
            })?;
            if p.remaining() != 0 {
                return Err(WireError::BadField { field: "ack" });
            }
            Ok(Frame::Ack {
                session,
                seq,
                status,
            })
        }
        4 => {
            let mut p = WireReader::new(payload);
            let reason = ShedReason::from_tag(u64::from(p.u16()?)).ok_or(WireError::BadField {
                field: "reject-reason",
            })?;
            let retry_after_ns = p.u64()?;
            if p.remaining() != 0 {
                return Err(WireError::BadField { field: "reject" });
            }
            Ok(Frame::Reject {
                session,
                seq,
                reason,
                retry_after_ns,
            })
        }
        5 => {
            if !payload.is_empty() {
                return Err(WireError::BadField { field: "drain" });
            }
            Ok(Frame::Drain { session })
        }
        _ => Err(WireError::BadField {
            field: "frame-type",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_frame() -> Vec<Frame> {
        vec![
            Frame::Hello {
                session: 7,
                user: 0xDEAD_BEEF,
            },
            Frame::Batch {
                session: 7,
                seq: 3,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::Ack {
                session: 7,
                seq: 3,
                status: AckStatus::Accepted,
            },
            Frame::Reject {
                session: 7,
                seq: 4,
                reason: ShedReason::QueueFull,
                retry_after_ns: 1_500_000_000,
            },
            Frame::Drain { session: 7 },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in every_frame() {
            let bytes = encode_frame(&frame);
            assert_eq!(peek_frame_len(&bytes), Ok(bytes.len()), "{frame:?}");
            assert_eq!(decode_frame(&bytes).as_ref(), Ok(&frame));
        }
    }

    #[test]
    fn ack_statuses_round_trip() {
        for status in [
            AckStatus::Accepted,
            AckStatus::Duplicate,
            AckStatus::Quarantined,
        ] {
            assert_eq!(AckStatus::from_code(status.code()), Some(status));
        }
        assert_eq!(AckStatus::from_code(0), None);
        assert_eq!(AckStatus::from_code(9), None);
    }

    #[test]
    fn every_shed_reason_survives_the_wire() {
        for reason in ShedReason::ALL {
            let frame = Frame::Reject {
                session: 1,
                seq: 2,
                reason,
                retry_after_ns: 9,
            };
            assert_eq!(decode_frame(&encode_frame(&frame)), Ok(frame));
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for frame in every_frame() {
            let bytes = encode_frame(&frame);
            for cut in SLCS_HEADER_LEN..bytes.len() {
                let err = decode_frame(&bytes[..cut]).expect_err("prefix decoded");
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "{frame:?} cut at {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn hostile_paylen_is_refused_before_allocation() {
        let mut bytes = encode_frame(&Frame::Drain { session: 1 });
        let at = SLCS_HEADER_LEN - 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            peek_frame_len(&bytes),
            Err(WireError::BadField { field: "paylen" })
        );
    }

    #[test]
    fn read_frame_splits_a_stream_and_refuses_hostile_headers() {
        let frames = every_frame();
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut cursor = &stream[..];
        for frame in &frames {
            let bytes = read_frame(&mut cursor).expect("whole frame available");
            assert_eq!(decode_frame(&bytes).as_ref(), Ok(frame));
        }
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );

        let mut hostile = encode_frame(&Frame::Drain { session: 1 });
        let at = SLCS_HEADER_LEN - 4;
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut &hostile[..]).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(&Frame::Drain { session: 1 });
        bytes.push(0);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let good = encode_frame(&Frame::Drain { session: 1 });
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            peek_frame_len(&bad),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad = good;
        bad[4] = 9;
        assert_eq!(
            peek_frame_len(&bad),
            Err(WireError::UnsupportedVersion { got: 9 })
        );
    }

    #[test]
    fn single_byte_corruption_never_forges_a_frame() {
        let bytes = encode_frame(&Frame::Batch {
            session: 5,
            seq: 1,
            payload: vec![0xAA; 16],
        });
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(decode_frame(&bad).is_err(), "flip at byte {i} undetected");
        }
    }
}

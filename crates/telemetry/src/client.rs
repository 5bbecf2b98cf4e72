//! The extension side of an SLCS session: frame building, reply
//! interpretation, and a deterministic batch source for load tests.
//!
//! [`SessionClient`] is transport-agnostic — it produces and consumes
//! byte frames, leaving delivery to its caller (the in-sim campaign,
//! [`crate::ingest::ResilientCampaign`], hands them straight to the
//! server; the `collector-load` binary writes them down a TCP socket).
//! Retry pacing belongs to [`crate::retry::RetryPolicy`], which the
//! client carries so the campaign's sessions and the load generator's
//! cannot drift apart.

use crate::aschange::ExitAs;
use crate::population::IspClass;
use crate::records::{PageRecord, SpeedtestRecord};
use crate::retry::RetryPolicy;
use crate::slcs::{encode_frame, parse_frame, AckStatus, Frame, ShedReason};
use crate::wire::{encode_batch, RecordBatch, WireError};
use starlink_channel::WeatherCondition;
use starlink_geo::City;
use starlink_simcore::SimTime;
use starlink_web::PttBreakdown;

/// A server reply, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerReply {
    /// The referenced frame was accepted.
    Ack {
        /// Echoed sequence number.
        seq: u64,
        /// What the collector did with the batch.
        status: AckStatus,
    },
    /// The referenced frame was shed; retry after the hint.
    Reject {
        /// Echoed sequence number.
        seq: u64,
        /// Why the server shed the frame.
        reason: ShedReason,
        /// Server's backoff hint, nanoseconds.
        retry_after_ns: u64,
    },
}

/// One client session: builds outbound frames and interprets replies.
#[derive(Debug, Clone)]
pub struct SessionClient {
    session: u64,
    user: u64,
    policy: RetryPolicy,
}

impl SessionClient {
    /// A client for `user` on session id `session` retrying per `policy`.
    pub fn new(session: u64, user: u64, policy: RetryPolicy) -> Self {
        SessionClient {
            session,
            user,
            policy,
        }
    }

    /// The session identifier.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The user this session uploads for.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The HELLO frame that opens (or refreshes) the session.
    pub fn hello(&self) -> Vec<u8> {
        encode_frame(&Frame::Hello {
            session: self.session,
            user: self.user,
        })
    }

    /// A BATCH frame carrying sealed SLTB bytes.
    pub fn batch(&self, seq: u64, payload: Vec<u8>) -> Vec<u8> {
        encode_frame(&Frame::Batch {
            session: self.session,
            seq,
            payload,
        })
    }

    /// The DRAIN frame that asks the server to flush and close.
    pub fn drain(&self) -> Vec<u8> {
        encode_frame(&Frame::Drain {
            session: self.session,
        })
    }

    /// Decodes a server reply. Frames that are well-formed but not a
    /// reply (a stray HELLO or BATCH) are a `bad-field` error: a correct
    /// server never sends them.
    pub fn parse_reply(&self, bytes: &[u8]) -> Result<ServerReply, WireError> {
        match parse_frame(bytes)? {
            Frame::Ack { seq, status, .. } => Ok(ServerReply::Ack { seq, status }),
            Frame::Reject {
                seq,
                reason,
                retry_after_ns,
                ..
            } => Ok(ServerReply::Reject {
                seq,
                reason,
                retry_after_ns,
            }),
            _ => Err(WireError::BadField { field: "reply" }),
        }
    }
}

/// A deterministic sealed SLTB batch for load generation: pure
/// arithmetic in `(user, seq)`, so every run of the load generator — and
/// every restart after a kill — produces byte-identical uploads.
pub fn synthetic_batch(user: u64, seq: u64, pages: u32) -> Vec<u8> {
    let city = City::ALL[(user as usize) % City::ALL.len()];
    let mut out = RecordBatch {
        user,
        seq,
        pages: Vec::with_capacity(pages as usize),
        speedtests: Vec::new(),
    };
    for i in 0..u64::from(pages) {
        let at = SimTime::from_secs(seq * 86_400 + 72_000 + i);
        out.pages.push(PageRecord {
            user,
            city,
            isp: IspClass::Starlink,
            at,
            rank: 1 + (user.wrapping_mul(31).wrapping_add(seq * 7 + i)) % 50_000,
            ptt: PttBreakdown {
                redirect_ms: 0.0,
                dns_ms: 20.0 + (i % 10) as f64,
                connect_ms: 35.0 + (seq % 5) as f64,
                tls_ms: 40.0,
                request_ms: 55.0 + (i % 7) as f64,
                response_ms: 60.0,
            },
            plt_ms: 900.0 + ((user + seq + i) % 400) as f64,
            exit_as: if (user + seq).is_multiple_of(2) {
                Some(ExitAs::Google)
            } else {
                None
            },
            weather: WeatherCondition::ClearSky,
        });
    }
    out.speedtests.push(SpeedtestRecord {
        user,
        city,
        starlink: true,
        at_secs: seq * 86_400 + 71_000,
        downlink_mbps: 100.0 + (user % 120) as f64,
        uplink_mbps: 10.0 + (user % 9) as f64,
    });
    encode_batch(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slcs::decode_frame;
    use crate::wire::decode_batch;
    use starlink_simcore::SimDuration;

    fn client() -> SessionClient {
        SessionClient::new(7, 42, RetryPolicy::new(3, SimDuration::from_secs(1)))
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let c = client();
        assert_eq!(
            decode_frame(&c.hello()),
            Ok(Frame::Hello {
                session: 7,
                user: 42
            })
        );
        assert_eq!(
            decode_frame(&c.batch(3, vec![1, 2, 3])),
            Ok(Frame::Batch {
                session: 7,
                seq: 3,
                payload: vec![1, 2, 3]
            })
        );
        assert_eq!(decode_frame(&c.drain()), Ok(Frame::Drain { session: 7 }));
    }

    #[test]
    fn replies_parse_and_non_replies_are_refused() {
        let c = client();
        let ack = encode_frame(&Frame::Ack {
            session: 7,
            seq: 2,
            status: AckStatus::Duplicate,
        });
        assert_eq!(
            c.parse_reply(&ack),
            Ok(ServerReply::Ack {
                seq: 2,
                status: AckStatus::Duplicate
            })
        );
        let reject = encode_frame(&Frame::Reject {
            session: 7,
            seq: 2,
            reason: ShedReason::Throttled,
            retry_after_ns: 5,
        });
        assert_eq!(
            c.parse_reply(&reject),
            Ok(ServerReply::Reject {
                seq: 2,
                reason: ShedReason::Throttled,
                retry_after_ns: 5
            })
        );
        assert_eq!(
            c.parse_reply(&c.hello()),
            Err(WireError::BadField { field: "reply" })
        );
        assert!(c.parse_reply(b"junk").is_err());
    }

    #[test]
    fn synthetic_batches_are_deterministic_and_decode() {
        let a = synthetic_batch(11, 2, 8);
        let b = synthetic_batch(11, 2, 8);
        assert_eq!(a, b);
        let batch = decode_batch(&a).expect("synthetic batches are sound");
        assert_eq!(batch.user, 11);
        assert_eq!(batch.seq, 2);
        assert_eq!(batch.pages.len(), 8);
        assert_eq!(batch.speedtests.len(), 1);
        assert_ne!(synthetic_batch(11, 3, 8), a);
        assert_ne!(synthetic_batch(12, 2, 8), a);
    }
}

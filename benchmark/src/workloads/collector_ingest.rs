//! `collector_ingest` — the SLCS protocol and admission core on one
//! thread: sessions HELLO, then rounds of pre-encoded BATCH frames go
//! through `CollectorServer::handle_frame` under per-session token
//! buckets, and the resulting dataset is checkpointed and restored.
//!
//! Frames never leave the process: no socket, no loopback, no real link.
//! Admission runs on virtual time (one round per virtual second), so the
//! accepted/shed mix is the same on any host.

use super::{input_rng, probe_ns_per_op, Checked, Digest, Layers, Tally, Workload};
use crate::stats;
use crate::trace::{Trace, Tracer};
use starlink_core::obsv::MetricsRegistry;
use starlink_core::simcore::{SimDuration, SimRng, SimTime};
use starlink_core::telemetry::slcs::{decode_frame, encode_frame};
use starlink_core::telemetry::wire::{crc32, decode_batch, encode_batch};
use starlink_core::telemetry::{
    decode_server_checkpoint, encode_server_checkpoint, synthetic_batch, AckStatus,
    AdmissionConfig, CheckpointStore, Collector, CollectorServer, Frame, RetryPolicy, ServerReply,
    ServerStats, SessionClient, ShedReason, SimDisk,
};
use std::hint::black_box;
use std::time::Instant;

/// Input sizes.
pub struct CollectorIngest {
    /// Concurrent sessions, one user each.
    pub sessions: u64,
    /// Upload rounds, one per virtual second.
    pub rounds: u64,
    /// Page records per batch (plus one speedtest record).
    pub pages: u32,
}

impl CollectorIngest {
    /// The benchmark size: about 34 k frames of about 1.9 kB.
    pub fn full() -> Self {
        CollectorIngest {
            sessions: 1_000,
            rounds: 30,
            pages: 22,
        }
    }

    /// A smoke-test size.
    #[cfg(test)]
    pub fn tiny() -> Self {
        CollectorIngest {
            sessions: 40,
            rounds: 8,
            pages: 4,
        }
    }
}

/// One batch per virtual second with a burst of two: the first frame of
/// a round always finds a token, a second one only while the burst
/// token is unspent. Queue and byte budgets are out of reach so that
/// throttling is the only admission shed.
const ADMISSION: AdmissionConfig = AdmissionConfig {
    session_rate_milli: 1_000,
    session_burst: 2,
    queue_batches: 1 << 20,
    global_bytes: 1 << 40,
    drain_bytes_per_sec: 1 << 30,
};

/// What a session does in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundDraw {
    /// Uploads its next batch.
    Fresh,
    /// Uploads the batch of its previous plain round again.
    Reupload,
    /// Uploads its next two batches in the same virtual second.
    Double,
    /// Uploads its next batch with one bit flipped in transit.
    Flipped,
}

/// The seeded 70 / 15 / 10 / 5 traffic mix.
pub fn draw_round(rng: &mut SimRng) -> RoundDraw {
    match rng.below(100) {
        0..=69 => RoundDraw::Fresh,
        70..=84 => RoundDraw::Reupload,
        85..=94 => RoundDraw::Double,
        _ => RoundDraw::Flipped,
    }
}

/// What a frame is, which fixes the replies it may get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Session open.
    Hello,
    /// A new batch, first frame of its session's round.
    Fresh,
    /// A batch the server has already accepted.
    Reupload,
    /// A new batch sent on the heels of another in the same second.
    Extra,
    /// A frame damaged in transit.
    Flipped,
}

/// What the server did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// HELLO honoured.
    Hello,
    /// Batch ingested.
    Accepted,
    /// Batch deduplicated.
    Duplicate,
    /// Shed by the session's token bucket.
    Throttled,
    /// Shed as undecodable.
    BadFrame,
}

/// One frame on the (virtual) wire.
pub struct OfferedFrame {
    kind: FrameKind,
    /// The sequence number its reply must echo (0 for HELLO).
    seq: u64,
    at: SimTime,
    bytes: Vec<u8>,
}

/// The class of `reply` if it is one a frame of `kind` carrying `seq`
/// may get. A damaged frame's header is not trusted, so its REJECT
/// echoes no sequence number.
pub fn classify(kind: FrameKind, seq: u64, reply: &ServerReply) -> Option<ReplyClass> {
    use FrameKind::*;
    let (ServerReply::Ack { seq: echoed, .. } | ServerReply::Reject { seq: echoed, .. }) = *reply;
    if kind != Flipped && echoed != seq {
        return None;
    }
    match (kind, reply) {
        (
            Hello,
            ServerReply::Ack {
                status: AckStatus::Accepted,
                ..
            },
        ) => Some(ReplyClass::Hello),
        (
            Fresh | Extra,
            ServerReply::Ack {
                status: AckStatus::Accepted,
                ..
            },
        ) => Some(ReplyClass::Accepted),
        (
            Reupload,
            ServerReply::Ack {
                status: AckStatus::Duplicate,
                ..
            },
        ) => Some(ReplyClass::Duplicate),
        (
            Fresh | Extra | Reupload,
            ServerReply::Reject {
                reason: ShedReason::Throttled,
                ..
            },
        ) => Some(ReplyClass::Throttled),
        (
            Flipped,
            ServerReply::Reject {
                reason: ShedReason::BadFrame,
                ..
            },
        ) => Some(ReplyClass::BadFrame),
        _ => None,
    }
}

/// One repeat's result.
pub struct Output {
    /// Kind and sequence number of every offered frame.
    kinds: Vec<(FrameKind, u64)>,
    replies: Vec<Vec<u8>>,
    stats: ServerStats,
    accepted_batches: usize,
    restored_batches: usize,
    checkpoint: Vec<u8>,
}

/// Exact facts for the per-layer report.
pub struct Facts {
    /// Reply class per frame, in offered order (`None`: not allowed).
    classes: Vec<Option<ReplyClass>>,
    stats: ServerStats,
    checkpoint_bytes: usize,
}

fn parser() -> SessionClient {
    SessionClient::new(0, 0, RetryPolicy::new(0, SimDuration::from_secs(1)))
}

impl Workload for CollectorIngest {
    type Inputs = Vec<OfferedFrame>;
    type Output = Output;
    type Facts = Facts;

    fn name(&self) -> &'static str {
        "collector_ingest"
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Vec<OfferedFrame> {
        let mut rng = input_rng(seed, self.name());
        let policy = RetryPolicy::new(3, SimDuration::from_secs(1));
        let user_base = rng.below(1 << 32);
        let clients: Vec<SessionClient> = (0..self.sessions)
            .map(|s| SessionClient::new(s + 1, user_base + s, policy))
            .collect();
        let mut frames = Vec::with_capacity((self.sessions * (self.rounds + 2)) as usize);
        let mut order: Vec<usize> = (0..clients.len()).collect();
        rng.shuffle(&mut order);
        for &s in &order {
            frames.push(OfferedFrame {
                kind: FrameKind::Hello,
                seq: 0,
                at: SimTime::ZERO,
                bytes: clients[s].hello(),
            });
        }

        let mut next_seq = vec![0u64; clients.len()];
        // Index of each session's latest plain `Fresh` frame: the first
        // frame of a round always clears admission, so it was accepted.
        let mut accepted_frame: Vec<Option<usize>> = vec![None; clients.len()];
        for round in 1..=self.rounds {
            let at = SimTime::from_secs(round);
            rng.shuffle(&mut order);
            for &s in &order {
                let mut next_batch = || {
                    let seq = next_seq[s];
                    next_seq[s] += 1;
                    let payload = tr.span("telemetry.wire", "synthetic_batch", || {
                        synthetic_batch(clients[s].user(), seq, self.pages)
                    });
                    let frame = tr.span("telemetry.slcs", "SessionClient::batch", || {
                        clients[s].batch(seq, payload)
                    });
                    (seq, frame)
                };
                match (draw_round(&mut rng), accepted_frame[s]) {
                    (RoundDraw::Reupload, Some(earlier)) => {
                        let (seq, bytes) = (frames[earlier].seq, frames[earlier].bytes.clone());
                        frames.push(OfferedFrame {
                            kind: FrameKind::Reupload,
                            seq,
                            at,
                            bytes,
                        });
                    }
                    (RoundDraw::Flipped, _) => {
                        let (seq, mut bytes) = next_batch();
                        let bit = rng.below(bytes.len() as u64 * 8) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        frames.push(OfferedFrame {
                            kind: FrameKind::Flipped,
                            seq,
                            at,
                            bytes,
                        });
                    }
                    (draw, _) => {
                        accepted_frame[s] = Some(frames.len());
                        let kinds = [FrameKind::Fresh, FrameKind::Extra];
                        let sent = if draw == RoundDraw::Double { 2 } else { 1 };
                        for kind in kinds.into_iter().take(sent) {
                            let (seq, bytes) = next_batch();
                            frames.push(OfferedFrame {
                                kind,
                                seq,
                                at,
                                bytes,
                            });
                        }
                    }
                }
            }
        }
        frames
    }

    fn run(&self, frames: Vec<OfferedFrame>, tr: &mut Tracer) -> Output {
        let mut server = CollectorServer::new(ADMISSION);
        let mut collector = Collector::new();
        let mut replies = Vec::with_capacity(frames.len());
        for frame in &frames {
            replies.push(tr.span("telemetry.server", "handle_frame", || {
                server.handle_frame(&mut collector, &frame.bytes, frame.at)
            }));
        }
        let checkpoint = tr.span("telemetry.checkpoint", "encode_server_checkpoint", || {
            encode_server_checkpoint(&collector)
        });
        let restored = tr.span("telemetry.checkpoint", "decode_server_checkpoint", || {
            decode_server_checkpoint(&checkpoint).expect("a checkpoint just written")
        });
        Output {
            kinds: frames.iter().map(|f| (f.kind, f.seq)).collect(),
            replies,
            stats: *server.stats(),
            accepted_batches: collector.accepted_batches(),
            restored_batches: restored.accepted_batches(),
            checkpoint,
        }
    }

    fn check(&self, _seed: u64, output: Output) -> (Checked, Facts) {
        let mut tally = Tally::default();
        let mut digest = Digest::default();
        let parser = parser();
        let classes: Vec<Option<ReplyClass>> = output
            .kinds
            .iter()
            .zip(&output.replies)
            .enumerate()
            .map(|(i, (&(kind, seq), reply))| {
                digest.bytes(reply);
                let class = parser
                    .parse_reply(reply)
                    .ok()
                    .and_then(|r| classify(kind, seq, &r));
                tally.expect(class.is_some(), || {
                    format!("frame {i} ({kind:?}) got a reply its kind does not allow")
                });
                class
            })
            .collect();

        let stats = output.stats;
        let offered = output.replies.len() as u64;
        let answered = stats.hellos
            + stats.accepted
            + stats.duplicates
            + stats.quarantined
            + stats.shed_total();
        tally.expect(answered == offered, || {
            format!("server accounts for {answered} of {offered} frames")
        });
        tally.expect(
            output.restored_batches == output.accepted_batches
                && output.accepted_batches as u64 == stats.accepted,
            || {
                format!(
                    "restored collector holds {} batches, live one {}, server accepted {}",
                    output.restored_batches, output.accepted_batches, stats.accepted
                )
            },
        );
        digest
            .word(stats.accepted)
            .word(stats.duplicates)
            .word(stats.shed_total())
            .word(u64::from(crc32(&output.checkpoint)));
        let checked = Checked {
            units: offered as f64,
            digest: digest.value(),
            attempted: tally.attempted,
            failed: tally.failed,
        };
        let facts = Facts {
            classes,
            stats,
            checkpoint_bytes: output.checkpoint.len(),
        };
        (checked, facts)
    }

    fn layers(&self, trace: &Trace, _counters: &MetricsRegistry, facts: &Facts) -> Layers {
        let mut out = Layers::new();
        let handle_ns = trace.durations_ns("handle_frame");
        let median_of = |class: ReplyClass| {
            let ns: Vec<f64> = handle_ns
                .iter()
                .zip(&facts.classes)
                .filter(|(_, c)| **c == Some(class))
                .map(|(ns, _)| *ns)
                .collect();
            stats::median(&ns)
        };
        out.insert(
            "telemetry.server.accept_ns",
            median_of(ReplyClass::Accepted),
        );
        out.insert(
            "telemetry.server.duplicate_ns",
            median_of(ReplyClass::Duplicate),
        );
        out.insert(
            "telemetry.server.throttled_ns",
            median_of(ReplyClass::Throttled),
        );
        out.insert(
            "telemetry.server.badframe_ns",
            median_of(ReplyClass::BadFrame),
        );
        out.insert("telemetry.server.hello_ns", median_of(ReplyClass::Hello));
        // Pooled over every reply class; falls back to p90 / p50 when
        // fewer than ten samples lie beyond p99 (see `stats::tail`).
        out.insert(
            "telemetry.server.handle_p99_us",
            stats::tail(&handle_ns).map_or(0.0, |t| t.value / 1e3),
        );
        let s = &facts.stats;
        out.insert("telemetry.server.accepted", s.accepted as f64);
        out.insert("telemetry.server.duplicates", s.duplicates as f64);
        out.insert(
            "telemetry.server.shed_throttled",
            s.shed_by(ShedReason::Throttled) as f64,
        );
        out.insert(
            "telemetry.server.shed_badframe",
            s.shed_by(ShedReason::BadFrame) as f64,
        );
        out.insert(
            "telemetry.server.useful_share",
            s.accepted as f64 / facts.classes.len().max(1) as f64,
        );
        out.insert(
            "telemetry.checkpoint.encode_ms",
            trace.median_ms("encode_server_checkpoint"),
        );
        out.insert(
            "telemetry.checkpoint.decode_ms",
            trace.median_ms("decode_server_checkpoint"),
        );
        out.insert(
            "telemetry.checkpoint.mb",
            facts.checkpoint_bytes as f64 / 1e6,
        );
        out
    }

    fn probes(&self, seed: u64, layers: &mut Layers) {
        let user = input_rng(seed, "collector_ingest.probe").below(1 << 32);
        let payloads: Vec<Vec<u8>> = (0..2_000)
            .map(|seq| synthetic_batch(user, seq, self.pages))
            .collect();
        let n = payloads.len() as u64;
        let batches: Vec<_> = payloads
            .iter()
            .map(|p| decode_batch(p).expect("a batch just encoded"))
            .collect();
        let records = batches[0].len() as f64;
        layers.insert(
            "telemetry.wire.encode_ns_per_record",
            probe_ns_per_op(n, |i| {
                black_box(encode_batch(&batches[i as usize]));
            }) / records,
        );
        layers.insert(
            "telemetry.wire.decode_ns_per_record",
            probe_ns_per_op(n, |i| {
                black_box(decode_batch(&payloads[i as usize]).is_ok());
            }) / records,
        );
        let block = vec![0xA5u8; 64 << 10];
        layers.insert(
            "telemetry.wire.crc32_ns_per_kb",
            probe_ns_per_op(64, |_| {
                black_box(crc32(black_box(&block)));
            }) / 64.0,
        );

        let frames: Vec<Frame> = payloads
            .iter()
            .enumerate()
            .map(|(seq, payload)| Frame::Batch {
                session: 1,
                seq: seq as u64,
                payload: payload.clone(),
            })
            .collect();
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        layers.insert(
            "telemetry.slcs.encode_ns_per_frame",
            probe_ns_per_op(n, |i| {
                black_box(encode_frame(&frames[i as usize]));
            }),
        );
        layers.insert(
            "telemetry.slcs.decode_ns_per_frame",
            probe_ns_per_op(n, |i| {
                black_box(decode_frame(&encoded[i as usize]).is_ok());
            }),
        );

        // The dataset core with the server bypassed; a fresh collector
        // per batch of calls so every submit is a first upload.
        let mut collector = Collector::new();
        layers.insert(
            "telemetry.ingest.submit_ns_per_batch",
            probe_ns_per_op(n, |i| {
                if i == 0 {
                    collector = Collector::new();
                }
                black_box(collector.submit(&payloads[i as usize], SimTime::from_secs(i)));
            }),
        );

        // Generation-chained checkpoint storage over the in-memory disk:
        // eight stores of the collector above, then a cold re-open.
        let blob = encode_server_checkpoint(&collector);
        let mut validate = |b: &[u8]| decode_server_checkpoint(b).is_ok();
        let (mut store, _) =
            CheckpointStore::open_default(SimDisk::new(), &mut validate, SimTime::ZERO)
                .expect("an empty in-memory disk opens");
        let stores = 8u64;
        let start = Instant::now();
        for i in 0..stores {
            store
                .store(&blob, SimTime::from_secs(i))
                .expect("the in-memory disk has room");
        }
        layers.insert(
            "telemetry.storage.store_us_per_blob",
            start.elapsed().as_secs_f64() * 1e6 / stores as f64,
        );
        let disk = store.into_disk();
        let start = Instant::now();
        let (_, recovered) =
            CheckpointStore::open_default(disk, &mut validate, SimTime::from_secs(stores))
                .expect("a chain just written re-opens");
        layers.insert(
            "telemetry.storage.recover_us",
            start.elapsed().as_secs_f64() * 1e6,
        );
        assert!(recovered.is_some(), "the newest generation is recovered");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_hits_its_split_within_one_percent_at_36k_draws() {
        let mut rng = input_rng(9, "mix-test");
        let mut counts = [0u32; 4];
        let draws = 36_000;
        for _ in 0..draws {
            counts[match draw_round(&mut rng) {
                RoundDraw::Fresh => 0,
                RoundDraw::Reupload => 1,
                RoundDraw::Double => 2,
                RoundDraw::Flipped => 3,
            }] += 1;
        }
        for (count, want) in counts.iter().zip([0.70, 0.15, 0.10, 0.05]) {
            let share = f64::from(*count) / f64::from(draws);
            assert!((share - want).abs() < 0.01, "{share} vs {want}");
        }
    }

    fn output(w: &CollectorIngest, seed: u64) -> Output {
        let mut tr = Tracer::off();
        w.run(w.setup(seed, &mut tr), &mut tr)
    }

    #[test]
    fn tiny_run_passes_its_checks_and_the_seed_changes_the_digest() {
        let w = CollectorIngest::tiny();
        let (a, facts) = w.check(1, output(&w, 1));
        assert_eq!(a.failed, 0);
        assert_eq!(a.attempted, a.units as u64 + 2);
        // Every kind of traffic is present and the first frame of a
        // round is never throttled.
        for class in [
            ReplyClass::Hello,
            ReplyClass::Accepted,
            ReplyClass::Duplicate,
            ReplyClass::Throttled,
            ReplyClass::BadFrame,
        ] {
            assert!(facts.classes.contains(&Some(class)), "{class:?}");
        }
        assert_eq!(w.check(1, output(&w, 1)).0, a, "same seed, same output");
        assert_ne!(w.check(2, output(&w, 2)).0.digest, a.digest);
    }

    #[test]
    fn a_corrupted_or_misdirected_reply_counts_as_failed() {
        let w = CollectorIngest::tiny();
        let mut out = output(&w, 3);
        // A bad-frame REJECT where a fresh batch's ACK belongs, an ACK for
        // another batch's sequence number, and a reply that no longer
        // parses.
        let at = |kind| out.kinds.iter().position(|k| k.0 == kind).unwrap();
        let (fresh, flipped, extra) = (
            at(FrameKind::Fresh),
            at(FrameKind::Flipped),
            at(FrameKind::Extra),
        );
        out.replies[fresh] = out.replies[flipped].clone();
        out.replies[extra] = out.replies[extra - 1].clone();
        out.replies[1].truncate(5);
        let (checked, _) = w.check(3, out);
        assert_eq!(checked.failed, 3);
        assert!(checked.failed as f64 / checked.attempted as f64 > 0.0);
    }
}

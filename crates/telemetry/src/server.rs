//! The collector as a service: sessions, admission control, backpressure.
//!
//! [`CollectorServer`] wraps a [`Collector`] with the SLCS v1 session
//! protocol and an admission-control state machine. Every inbound frame
//! passes through, in order:
//!
//! 1. **decode** — malformed bytes are shed with
//!    [`ShedReason::BadFrame`] (never a panic, never an over-read);
//! 2. **drain gate** — a draining server sheds new work with
//!    [`ShedReason::Draining`];
//! 3. **session check** — a BATCH on an unopened session is shed with
//!    [`ShedReason::UnknownSession`];
//! 4. **token bucket** — each session refills at
//!    `session_rate_milli / 1000` batches per virtual second up to
//!    `session_burst`; an empty bucket sheds with
//!    [`ShedReason::Throttled`] and a computed retry-after hint;
//! 5. **queue bound** — at most `queue_batches` admitted batches may sit
//!    in the ingest queue, which drains at `drain_bytes_per_sec`;
//!    overflow sheds with [`ShedReason::QueueFull`];
//! 6. **byte budget** — the queued backlog may not exceed
//!    `global_bytes`; overflow sheds with [`ShedReason::Overloaded`].
//!
//! Only a batch that clears every gate reaches [`Collector::submit`], so
//! an accepted batch is *never* silently dropped afterwards — the shed
//! accounting invariant (`delivered + quarantined + shed + lost ==
//! generated`) rests on that ordering.
//!
//! All state advances in **virtual time** from the `now` passed to
//! [`CollectorServer::handle_frame`]; the server never consults a clock
//! or an RNG, so traced twin runs are byte-identical and the server
//! cannot perturb the simulation.

use crate::ingest::Collector;
use crate::slcs::{encode_frame, parse_frame, AckStatus, Frame, ShedReason};
use starlink_simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};

const NANOS_PER_SEC: u128 = 1_000_000_000;
/// Milli-tokens one batch admission costs.
const BATCH_COST_MILLI: u64 = 1_000;

/// Admission-control budgets for a [`CollectorServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Per-session token refill rate, in milli-batches per virtual
    /// second (1000 = one batch per second).
    pub session_rate_milli: u64,
    /// Per-session bucket capacity, in whole batches.
    pub session_burst: u64,
    /// Most admitted batches the ingest queue may hold.
    pub queue_batches: u64,
    /// Global in-flight byte budget across the whole queue.
    pub global_bytes: u64,
    /// Rate at which the ingest queue drains, bytes per virtual second.
    pub drain_bytes_per_sec: u64,
}

impl AdmissionConfig {
    /// Budgets sized so a healthy campaign never sheds: generous
    /// per-session rates and a queue that drains faster than the
    /// population can fill it.
    pub fn generous() -> Self {
        AdmissionConfig {
            session_rate_milli: 2_000,
            session_burst: 8,
            queue_batches: 256,
            global_bytes: 8 << 20,
            drain_bytes_per_sec: 1 << 20,
        }
    }

    /// Budgets roughly 10× too small for the reference 28-user storm:
    /// a one-batch burst, a two-deep queue draining at a trickle, and a
    /// tight byte budget. Most upload chains meet typed REJECTs and the
    /// campaign exercises backoff, spooling, and terminal shed
    /// accounting.
    pub fn overloaded() -> Self {
        AdmissionConfig {
            session_rate_milli: 200,
            session_burst: 1,
            queue_batches: 2,
            global_bytes: 2_048,
            drain_bytes_per_sec: 16,
        }
    }

    /// A full session bucket, in milli-tokens. Saturating: `--burst`
    /// comes straight off a command line, and a hostile value must mean
    /// "never throttle", not a wrapped near-empty bucket.
    fn bucket_cap(&self) -> u64 {
        self.session_burst.saturating_mul(BATCH_COST_MILLI)
    }
}

/// Per-session admission state.
#[derive(Debug, Clone)]
struct Session {
    user: u64,
    /// Milli-batches available; admission costs [`BATCH_COST_MILLI`].
    tokens_milli: u64,
    /// Sub-milli-token accumulator, in milli-token-nanoseconds.
    acc: u128,
    /// Virtual time of the last refill.
    last: SimTime,
}

/// Process-local service counters (observability, not checkpointed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// HELLO frames honoured (sessions opened or refreshed).
    pub hellos: u64,
    /// Batches admitted and newly ingested.
    pub accepted: u64,
    /// Batches admitted but deduplicated as re-uploads.
    pub duplicates: u64,
    /// Batches admitted but quarantined by the collector.
    pub quarantined: u64,
    /// DRAIN frames honoured.
    pub drains: u64,
    /// Sheds per [`ShedReason`], indexed by `tag() - 1`.
    pub shed: [u64; 6],
}

impl ServerStats {
    /// Total frames shed, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Sheds for one reason.
    pub fn shed_by(&self, reason: ShedReason) -> u64 {
        self.shed[(reason.tag() - 1) as usize]
    }
}

/// A session-based collector service with admission control.
///
/// The server owns *admission* state only; the [`Collector`] (the
/// dataset) is passed into [`CollectorServer::handle_frame`] by its
/// owner — the resilient campaign in the sim harness, the serve binary's
/// core in the real one — so checkpointing the dataset stays the owner's
/// concern.
#[derive(Debug, Clone)]
pub struct CollectorServer {
    config: AdmissionConfig,
    sessions: BTreeMap<u64, Session>,
    /// Admitted-batch sizes awaiting ingest drain, arrival order.
    queue: VecDeque<u64>,
    backlog_bytes: u64,
    /// Drain accumulator, in byte-nanoseconds.
    drain_acc: u128,
    last_drain: SimTime,
    draining: bool,
    stats: ServerStats,
}

impl CollectorServer {
    /// A fresh server enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        CollectorServer {
            config,
            sessions: BTreeMap::new(),
            queue: VecDeque::new(),
            backlog_bytes: 0,
            drain_acc: 0,
            last_drain: SimTime::ZERO,
            draining: false,
            stats: ServerStats::default(),
        }
    }

    /// The budgets in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The service counters so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Admitted batches currently awaiting ingest drain.
    pub fn queue_depth(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Bytes currently queued.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Whether a DRAIN has been honoured and new work is refused.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Handles one inbound frame at virtual time `now` and returns the
    /// encoded response frame (always exactly one: ACK or REJECT).
    pub fn handle_frame(
        &mut self,
        collector: &mut Collector,
        bytes: &[u8],
        now: SimTime,
    ) -> Vec<u8> {
        self.advance(now);
        // Borrowed parse: a BATCH payload goes from the receive buffer
        // to `Collector::submit` without being copied.
        let frame = match parse_frame(bytes) {
            Ok(frame) => frame,
            Err(_) => return self.shed(0, 0, ShedReason::BadFrame, 0, now),
        };
        match frame {
            Frame::Hello { session, user } => {
                if self.draining {
                    return self.shed(session, 0, ShedReason::Draining, 0, now);
                }
                self.stats.hellos += 1;
                // A refresh keeps the bucket as-is: repeating HELLO must
                // not launder an empty bucket back to full.
                self.sessions.entry(session).or_insert(Session {
                    user,
                    tokens_milli: self.config.bucket_cap(),
                    acc: 0,
                    last: now,
                });
                encode_frame(&Frame::Ack {
                    session,
                    seq: 0,
                    status: AckStatus::Accepted,
                })
            }
            Frame::Batch {
                session,
                seq,
                payload,
            } => self.handle_batch(collector, session, seq, payload, now),
            Frame::Drain { session } => {
                self.draining = true;
                self.stats.drains += 1;
                // Everything queued was already ingested at admission;
                // draining just retires the backpressure backlog.
                self.queue.clear();
                self.backlog_bytes = 0;
                self.drain_acc = 0;
                self.emit_queue(now);
                encode_frame(&Frame::Ack {
                    session,
                    seq: 0,
                    status: AckStatus::Accepted,
                })
            }
            // A server never legitimately receives its own reply frames.
            Frame::Ack { session, seq, .. } | Frame::Reject { session, seq, .. } => {
                self.shed(session, seq, ShedReason::BadFrame, 0, now)
            }
        }
    }

    fn handle_batch(
        &mut self,
        collector: &mut Collector,
        session: u64,
        seq: u64,
        payload: &[u8],
        now: SimTime,
    ) -> Vec<u8> {
        if self.draining {
            return self.shed(session, seq, ShedReason::Draining, 0, now);
        }
        let config = self.config;
        let Some(state) = self.sessions.get_mut(&session) else {
            return self.shed(session, seq, ShedReason::UnknownSession, 0, now);
        };
        refill(state, now, &config);
        if state.tokens_milli < BATCH_COST_MILLI {
            let missing = BATCH_COST_MILLI - state.tokens_milli;
            let retry_after = if config.session_rate_milli == 0 {
                u64::MAX
            } else {
                // `missing` and the rate are both in milli-tokens, so
                // the wait is missing / rate seconds.
                ((u128::from(missing) * NANOS_PER_SEC / u128::from(config.session_rate_milli))
                    .min(u128::from(u64::MAX))) as u64
            };
            return self.shed(session, seq, ShedReason::Throttled, retry_after, now);
        }
        if self.queue.len() as u64 >= config.queue_batches {
            let retry_after = self.front_drain_ns();
            return self.shed(session, seq, ShedReason::QueueFull, retry_after, now);
        }
        let len = payload.len() as u64;
        if self.backlog_bytes.saturating_add(len) > config.global_bytes {
            let retry_after = self.front_drain_ns();
            return self.shed(session, seq, ShedReason::Overloaded, retry_after, now);
        }

        // Every gate cleared: spend, enqueue, ingest. From here the
        // batch can only be delivered, deduplicated, or quarantined —
        // never dropped.
        let state = self.sessions.get_mut(&session).expect("checked above");
        state.tokens_milli -= BATCH_COST_MILLI;
        self.queue.push_back(len);
        self.backlog_bytes += len;
        let depth = self.queue.len() as u64;
        let status = AckStatus::from(&collector.submit(payload, now));
        match status {
            AckStatus::Accepted => self.stats.accepted += 1,
            AckStatus::Duplicate => self.stats.duplicates += 1,
            AckStatus::Quarantined => self.stats.quarantined += 1,
        }
        starlink_obsv::counter_add("telemetry.admission.accepted", 1);
        starlink_obsv::gauge_set("telemetry.server.queue_depth", depth as i64);
        starlink_obsv::emit(|| starlink_obsv::TraceEvent::AdmissionAccept {
            t_ns: now.as_nanos(),
            session,
            seq,
            bytes: len,
            queue_depth: depth,
        });
        encode_frame(&Frame::Ack {
            session,
            seq,
            status,
        })
    }

    /// Sheds one frame: counts it, traces it, and encodes the REJECT.
    fn shed(
        &mut self,
        session: u64,
        seq: u64,
        reason: ShedReason,
        retry_after_ns: u64,
        now: SimTime,
    ) -> Vec<u8> {
        self.stats.shed[(reason.tag() - 1) as usize] += 1;
        starlink_obsv::counter_add(reason.metric(), 1);
        starlink_obsv::emit(|| starlink_obsv::TraceEvent::AdmissionShed {
            t_ns: now.as_nanos(),
            session,
            seq,
            reason,
        });
        encode_frame(&Frame::Reject {
            session,
            seq,
            reason,
            retry_after_ns,
        })
    }

    /// Nanoseconds until the batch at the queue front finishes draining
    /// — the retry-after hint for queue and byte-budget sheds.
    fn front_drain_ns(&self) -> u64 {
        let Some(&front) = self.queue.front() else {
            return 0;
        };
        if self.config.drain_bytes_per_sec == 0 {
            return u64::MAX;
        }
        let need = u128::from(front) * NANOS_PER_SEC;
        let done = self.drain_acc.min(need);
        (((need - done) / u128::from(self.config.drain_bytes_per_sec)).min(u128::from(u64::MAX)))
            as u64
    }

    /// Advances the drain clock to `now`, retiring queued batches the
    /// ingest pipeline has had time to process. Time that appears to run
    /// backwards (interleaved per-user chains) contributes nothing.
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.as_nanos().saturating_sub(self.last_drain.as_nanos());
        if now.as_nanos() > self.last_drain.as_nanos() {
            self.last_drain = now;
        }
        if self.queue.is_empty() {
            self.drain_acc = 0;
            return;
        }
        self.drain_acc += u128::from(elapsed) * u128::from(self.config.drain_bytes_per_sec);
        let mut popped = false;
        while let Some(&front) = self.queue.front() {
            let need = u128::from(front) * NANOS_PER_SEC;
            if self.drain_acc < need {
                break;
            }
            self.drain_acc -= need;
            self.queue.pop_front();
            self.backlog_bytes -= front;
            popped = true;
        }
        if self.queue.is_empty() {
            self.drain_acc = 0;
        }
        if popped {
            self.emit_queue(now);
        }
    }

    fn emit_queue(&self, now: SimTime) {
        let depth = self.queue.len() as u64;
        starlink_obsv::gauge_set("telemetry.server.queue_depth", depth as i64);
        starlink_obsv::emit(|| starlink_obsv::TraceEvent::ServerQueue {
            t_ns: now.as_nanos(),
            depth,
            backlog_bytes: self.backlog_bytes,
        });
    }

    /// Resets transient day-scoped state at a campaign day boundary:
    /// the queue empties, every bucket refills, and drain bookkeeping
    /// clears.
    ///
    /// This is the checkpoint-equivalence anchor: a campaign resumed at
    /// a day boundary builds a *fresh* server whose sessions reopen with
    /// full buckets, and `end_of_day` puts a carried server in exactly
    /// that state — so straight-through and kill/resume runs admit
    /// identically.
    pub fn end_of_day(&mut self, now: SimTime) {
        self.queue.clear();
        self.backlog_bytes = 0;
        self.drain_acc = 0;
        self.last_drain = now;
        let cap = self.config.bucket_cap();
        for s in self.sessions.values_mut() {
            s.tokens_milli = cap;
            s.acc = 0;
            s.last = now;
        }
    }

    /// The user a session was opened for, if it exists.
    pub fn session_user(&self, session: u64) -> Option<u64> {
        self.sessions.get(&session).map(|s| s.user)
    }
}

/// Refills a session's token bucket for the elapsed virtual time.
/// Integer-only: the sub-token remainder is carried in `acc`, and both
/// saturate at a full bucket so an idle day cannot bank future burst.
fn refill(state: &mut Session, now: SimTime, config: &AdmissionConfig) {
    let elapsed = now.as_nanos().saturating_sub(state.last.as_nanos());
    if now.as_nanos() > state.last.as_nanos() {
        state.last = now;
    }
    let cap = config.bucket_cap();
    state.acc += u128::from(elapsed) * u128::from(config.session_rate_milli);
    let gain = (state.acc / NANOS_PER_SEC).min(u128::from(u64::MAX)) as u64;
    state.acc %= NANOS_PER_SEC;
    state.tokens_milli = state.tokens_milli.saturating_add(gain).min(cap);
    if state.tokens_milli == cap {
        state.acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slcs::{decode_frame, Frame as F};
    use crate::wire::{encode_batch, RecordBatch};

    fn batch_bytes(user: u64, seq: u64) -> Vec<u8> {
        encode_batch(&RecordBatch {
            user,
            seq,
            pages: vec![],
            speedtests: vec![],
        })
    }

    fn reply(bytes: &[u8]) -> Frame {
        decode_frame(bytes).expect("server replies are well-formed")
    }

    fn hello(server: &mut CollectorServer, collector: &mut Collector, session: u64, user: u64) {
        let r = server.handle_frame(
            collector,
            &encode_frame(&F::Hello { session, user }),
            SimTime::ZERO,
        );
        assert!(matches!(reply(&r), F::Ack { .. }));
    }

    fn send_batch(
        server: &mut CollectorServer,
        collector: &mut Collector,
        session: u64,
        seq: u64,
        at: SimTime,
    ) -> Frame {
        let frame = F::Batch {
            session,
            seq,
            payload: batch_bytes(session, seq),
        };
        reply(&server.handle_frame(collector, &encode_frame(&frame), at))
    }

    #[test]
    fn happy_path_hello_batch_ack() {
        let mut server = CollectorServer::new(AdmissionConfig::generous());
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        let r = send_batch(&mut server, &mut collector, 1, 0, SimTime::from_secs(1));
        assert!(matches!(
            r,
            F::Ack {
                session: 1,
                seq: 0,
                status: AckStatus::Accepted
            }
        ));
        assert_eq!(collector.accepted_batches(), 1);
        assert_eq!(server.stats().accepted, 1);
    }

    #[test]
    fn unknown_session_is_shed() {
        let mut server = CollectorServer::new(AdmissionConfig::generous());
        let mut collector = Collector::new();
        let r = send_batch(&mut server, &mut collector, 9, 0, SimTime::ZERO);
        assert!(matches!(
            r,
            F::Reject {
                reason: ShedReason::UnknownSession,
                ..
            }
        ));
        assert_eq!(collector.accepted_batches(), 0);
        assert_eq!(server.stats().shed_by(ShedReason::UnknownSession), 1);
    }

    #[test]
    fn empty_bucket_throttles_with_a_retry_hint() {
        let config = AdmissionConfig {
            session_rate_milli: 1_000, // 1 batch/sec
            session_burst: 1,
            ..AdmissionConfig::generous()
        };
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        let t = SimTime::from_secs(10);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 0, t),
            F::Ack { .. }
        ));
        let F::Reject {
            reason,
            retry_after_ns,
            ..
        } = send_batch(&mut server, &mut collector, 1, 1, t)
        else {
            panic!("second batch in the same instant must throttle");
        };
        assert_eq!(reason, ShedReason::Throttled);
        assert_eq!(retry_after_ns, 1_000_000_000, "refill one token = 1s");
        // After the hinted wait the bucket has refilled.
        let t2 = t.saturating_add(starlink_simcore::SimDuration::from_nanos(retry_after_ns));
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 1, t2),
            F::Ack { .. }
        ));
    }

    #[test]
    fn repeated_hello_does_not_refill_the_bucket() {
        let config = AdmissionConfig {
            session_rate_milli: 1,
            session_burst: 1,
            ..AdmissionConfig::generous()
        };
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 0, SimTime::ZERO),
            F::Ack { .. }
        ));
        hello(&mut server, &mut collector, 1, 42); // refresh, not refill
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 1, SimTime::ZERO),
            F::Reject {
                reason: ShedReason::Throttled,
                ..
            }
        ));
    }

    #[test]
    fn full_queue_sheds_and_drains_at_the_configured_rate() {
        let config = AdmissionConfig {
            session_rate_milli: 1_000_000,
            session_burst: 100,
            queue_batches: 2,
            global_bytes: 1 << 20,
            drain_bytes_per_sec: 32, // one empty batch (32 B) per second
        };
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        let t = SimTime::from_secs(100);
        for seq in 0..2 {
            assert!(matches!(
                send_batch(&mut server, &mut collector, 1, seq, t),
                F::Ack { .. }
            ));
        }
        assert_eq!(server.queue_depth(), 2);
        let F::Reject {
            reason,
            retry_after_ns,
            ..
        } = send_batch(&mut server, &mut collector, 1, 2, t)
        else {
            panic!("third batch must hit the queue bound");
        };
        assert_eq!(reason, ShedReason::QueueFull);
        assert!(retry_after_ns > 0);
        // One drained batch later there is room again.
        let t2 = t.saturating_add(starlink_simcore::SimDuration::from_nanos(retry_after_ns));
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 2, t2),
            F::Ack { .. }
        ));
        assert!(server.queue_depth() <= 2);
    }

    #[test]
    fn byte_budget_sheds_as_overloaded() {
        let config = AdmissionConfig {
            session_rate_milli: 1_000_000,
            session_burst: 100,
            queue_batches: 100,
            global_bytes: 40, // one empty batch fits, two do not
            drain_bytes_per_sec: 1,
        };
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 0, SimTime::ZERO),
            F::Ack { .. }
        ));
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 1, SimTime::ZERO),
            F::Reject {
                reason: ShedReason::Overloaded,
                ..
            }
        ));
    }

    #[test]
    fn garbage_and_reply_frames_are_shed_as_bad_frames() {
        let mut server = CollectorServer::new(AdmissionConfig::generous());
        let mut collector = Collector::new();
        let r = reply(&server.handle_frame(&mut collector, b"not a frame", SimTime::ZERO));
        assert!(matches!(
            r,
            F::Reject {
                session: 0,
                seq: 0,
                reason: ShedReason::BadFrame,
                ..
            }
        ));
        let ack = encode_frame(&F::Ack {
            session: 3,
            seq: 9,
            status: AckStatus::Accepted,
        });
        let r = reply(&server.handle_frame(&mut collector, &ack, SimTime::ZERO));
        assert!(matches!(
            r,
            F::Reject {
                session: 3,
                seq: 9,
                reason: ShedReason::BadFrame,
                ..
            }
        ));
        assert_eq!(server.stats().shed_by(ShedReason::BadFrame), 2);
    }

    #[test]
    fn admitted_damaged_batch_is_quarantined_not_dropped() {
        let mut server = CollectorServer::new(AdmissionConfig::generous());
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        let mut damaged = batch_bytes(42, 0);
        let last = damaged.len() - 1;
        damaged[last] ^= 0xFF;
        let frame = F::Batch {
            session: 1,
            seq: 0,
            payload: damaged,
        };
        let r = reply(&server.handle_frame(&mut collector, &encode_frame(&frame), SimTime::ZERO));
        assert!(matches!(
            r,
            F::Ack {
                status: AckStatus::Quarantined,
                ..
            }
        ));
        assert_eq!(collector.quarantine().len(), 1);
        assert_eq!(server.stats().quarantined, 1);
    }

    #[test]
    fn drain_flushes_and_refuses_new_work() {
        let mut server = CollectorServer::new(AdmissionConfig::generous());
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 0, SimTime::ZERO),
            F::Ack { .. }
        ));
        let r = reply(&server.handle_frame(
            &mut collector,
            &encode_frame(&F::Drain { session: 1 }),
            SimTime::ZERO,
        ));
        assert!(matches!(r, F::Ack { .. }));
        assert!(server.is_draining());
        assert_eq!(server.queue_depth(), 0);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 1, SimTime::ZERO),
            F::Reject {
                reason: ShedReason::Draining,
                ..
            }
        ));
        // The accepted batch survived the drain.
        assert_eq!(collector.accepted_batches(), 1);
    }

    #[test]
    fn a_hostile_burst_saturates_to_a_full_bucket() {
        // `--burst` reaches `session_burst` unvetted; u64::MAX × 1000
        // used to wrap in release and panic in debug.
        let config = AdmissionConfig {
            session_rate_milli: 1,
            session_burst: u64::MAX,
            ..AdmissionConfig::generous()
        };
        let one_spent = u64::MAX - BATCH_COST_MILLI;
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut server, &mut collector, 1, 42);
        assert!(matches!(
            send_batch(&mut server, &mut collector, 1, 0, SimTime::from_secs(1)),
            F::Ack {
                status: AckStatus::Accepted,
                ..
            }
        ));
        assert_eq!(server.sessions[&1].tokens_milli, one_spent);
        server.end_of_day(SimTime::from_secs(86_400));
        assert_eq!(server.sessions[&1].tokens_milli, u64::MAX);
        assert!(matches!(
            send_batch(
                &mut server,
                &mut collector,
                1,
                1,
                SimTime::from_secs(86_400)
            ),
            F::Ack { .. }
        ));
    }

    #[test]
    fn end_of_day_restores_the_fresh_server_admission_state() {
        let config = AdmissionConfig {
            session_rate_milli: 1,
            session_burst: 1,
            ..AdmissionConfig::generous()
        };
        let mut carried = CollectorServer::new(config);
        let mut collector = Collector::new();
        hello(&mut carried, &mut collector, 1, 42);
        assert!(matches!(
            send_batch(&mut carried, &mut collector, 1, 0, SimTime::ZERO),
            F::Ack { .. }
        ));
        let day2 = SimTime::from_secs(86_400);
        carried.end_of_day(day2);

        let mut fresh = CollectorServer::new(config);
        let mut fresh_collector = collector.clone();
        hello(&mut fresh, &mut fresh_collector, 1, 42);

        // Both servers now admit the same next-day traffic.
        let a = send_batch(&mut carried, &mut collector, 1, 1, day2);
        let b = send_batch(&mut fresh, &mut fresh_collector, 1, 1, day2);
        assert_eq!(a, b);
    }
}

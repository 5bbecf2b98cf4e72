//! Directed links: loss, queueing, serialisation and propagation.
//!
//! A packet traversing a link experiences, in order:
//!
//! 1. **loss** — an independent drop with the link's current loss
//!    probability (the hook burst-loss models plug into);
//! 2. **queueing** — a droptail FIFO bounded in bytes; arriving packets
//!    that would overflow the buffer are dropped (this is where
//!    congestion-control dynamics come from);
//! 3. **serialisation** — `size / rate` transmission time;
//! 4. **propagation** — the link's current one-way delay.
//!
//! [`LinkDynamics`] lets all three parameters vary with time; the default
//! `StaticDynamics` keeps them fixed.

use crate::fault::FaultSchedule;
use crate::wire::Packet;
use starlink_obsv::DropReason;
use starlink_simcore::{Bytes, DataRate, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Time-varying link behaviour.
///
/// Implementations must be deterministic functions of `(their own state,
/// now)` — the network calls them in event order, never concurrently.
pub trait LinkDynamics {
    /// One-way propagation delay for a packet entering the wire at `now`.
    fn prop_delay(&mut self, now: SimTime) -> SimDuration;
    /// Serialisation rate at `now`.
    fn rate(&mut self, now: SimTime) -> DataRate;
    /// Probability that a packet entering at `now` is lost.
    fn loss_prob(&mut self, now: SimTime) -> f64;
}

/// Fixed-parameter link behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StaticDynamics {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Serialisation rate.
    pub rate: DataRate,
    /// Per-packet loss probability.
    pub loss: f64,
}

impl LinkDynamics for StaticDynamics {
    fn prop_delay(&mut self, _now: SimTime) -> SimDuration {
        self.delay
    }
    fn rate(&mut self, _now: SimTime) -> DataRate {
        self.rate
    }
    fn loss_prob(&mut self, _now: SimTime) -> f64 {
        self.loss
    }
}

/// Construction parameters for a link.
pub struct LinkConfig {
    /// The link's (possibly dynamic) behaviour.
    pub dynamics: Box<dyn LinkDynamics>,
    /// Queue capacity in bytes (droptail).
    pub queue_capacity: Bytes,
}

impl LinkConfig {
    /// A static link.
    pub fn fixed(delay: SimDuration, rate: DataRate, loss: f64) -> Self {
        LinkConfig {
            dynamics: Box::new(StaticDynamics { delay, rate, loss }),
            queue_capacity: Bytes::from_kb(256),
        }
    }

    /// A LAN-class link: 1 Gbps, 0.1 ms, lossless.
    pub fn ethernet() -> Self {
        Self::fixed(SimDuration::from_micros(100), DataRate::from_gbps(1), 0.0)
    }

    /// A link with custom dynamics.
    pub fn dynamic(dynamics: Box<dyn LinkDynamics>) -> Self {
        LinkConfig {
            dynamics,
            queue_capacity: Bytes::from_kb(256),
        }
    }

    /// Overrides the queue capacity.
    pub fn with_queue(mut self, capacity: Bytes) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted onto the link.
    pub transmitted: u64,
    /// Packets that reached the far end (the network increments this
    /// when the arrival event fires). `transmitted - delivered` is the
    /// link's in-flight count: non-negative always, zero at quiescence —
    /// the per-link packet-conservation invariant the simulation-test
    /// oracles check.
    pub delivered: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Packets dropped by queue overflow.
    pub overflowed: u64,
    /// Bytes accepted onto the link.
    pub bytes: u64,
    /// Packets dropped by an injected fault (down window or extra loss).
    pub faulted: u64,
    /// Packets dropped as corrupted during a burst-corruption window.
    pub corrupted: u64,
}

/// The outcome of offering a packet to a link.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LinkVerdict {
    /// The packet will arrive at the far node at the given time.
    Deliver {
        /// Arrival instant at the far end.
        at: SimTime,
        /// The packet (returned so the caller can schedule it).
        packet: Packet,
    },
    /// The packet was dropped; counters updated and the reason recorded
    /// (the network turns this into a `link_drop` trace event).
    Dropped {
        /// Why the link refused the packet.
        reason: DropReason,
    },
}

impl LinkVerdict {
    fn dropped(reason: DropReason) -> Self {
        LinkVerdict::Dropped { reason }
    }
}

/// A directed link between two nodes.
pub(crate) struct Link {
    pub to: crate::node::NodeId,
    dynamics: Box<dyn LinkDynamics>,
    queue_capacity: Bytes,
    /// Bytes queued or in serialisation as of the last drain: the sum of
    /// `in_service` sizes.
    backlog: Bytes,
    /// Accepted packets not yet released from `backlog`, in offer order:
    /// `(tx_done, mark, size)`, where `mark` is the sequence number of the
    /// packet's `Arrive` event. `tx_done` and `mark` both only grow, so
    /// the entries due for release are always a prefix.
    in_service: VecDeque<(SimTime, u64, Bytes)>,
    /// When the transmitter frees up.
    busy_until: SimTime,
    /// Arrival time of the last delivered packet: links are FIFO, so a
    /// later packet can never arrive earlier even when the dynamic delay
    /// model samples a smaller value (otherwise cross-traffic jitter
    /// would manufacture reordering and TCP would see phantom loss).
    last_arrival: SimTime,
    /// Injected fault timeline (empty by default: no behaviour change and
    /// no extra RNG draws).
    fault: FaultSchedule,
    pub stats: LinkStats,
    rng: SimRng,
}

impl Link {
    pub fn new(to: crate::node::NodeId, config: LinkConfig, rng: SimRng) -> Self {
        Link {
            to,
            dynamics: config.dynamics,
            queue_capacity: config.queue_capacity,
            backlog: Bytes::ZERO,
            in_service: VecDeque::new(),
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            fault: FaultSchedule::default(),
            stats: LinkStats::default(),
            rng,
        }
    }

    /// Installs (or replaces) the link's fault schedule.
    pub(crate) fn set_fault(&mut self, schedule: FaultSchedule) {
        self.fault = schedule;
    }

    /// Offers `packet` to the link at `now`, while the event with sequence
    /// number `cur_seq` is being dispatched (`u64::MAX` outside the event
    /// loop). `mark` is the sequence number the packet's `Arrive` event
    /// will carry if the link accepts it.
    pub(crate) fn offer(
        &mut self,
        now: SimTime,
        cur_seq: u64,
        mark: u64,
        packet: Packet,
    ) -> LinkVerdict {
        let fault = self.fault.effect_at(now);
        if fault.down {
            self.stats.faulted += 1;
            return LinkVerdict::dropped(DropReason::Fault);
        }
        if fault.corrupt > 0.0 && self.rng.bernoulli(fault.corrupt) {
            self.stats.corrupted += 1;
            return LinkVerdict::dropped(DropReason::Corrupt);
        }
        if fault.extra_loss > 0.0 && self.rng.bernoulli(fault.extra_loss) {
            self.stats.faulted += 1;
            return LinkVerdict::dropped(DropReason::Fault);
        }

        let loss_p = self.dynamics.loss_prob(now);
        if loss_p > 0.0 && self.rng.bernoulli(loss_p) {
            self.stats.lost += 1;
            return LinkVerdict::dropped(DropReason::Loss);
        }
        self.drain_served(now, cur_seq);
        if (self.backlog + packet.size) > self.queue_capacity {
            self.stats.overflowed += 1;
            return LinkVerdict::dropped(DropReason::Overflow);
        }

        let rate = self.dynamics.rate(now);
        let ser = packet.size.serialization_time(rate);
        if ser == SimDuration::MAX {
            // Link is down: counted as loss, traced as zero-rate.
            self.stats.lost += 1;
            return LinkVerdict::dropped(DropReason::ZeroRate);
        }
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let tx_done = start + ser;
        self.busy_until = tx_done;
        self.backlog += packet.size;
        self.in_service.push_back((tx_done, mark, packet.size));

        let prop = self.dynamics.prop_delay(now);
        let arrival = (tx_done + prop).max(self.last_arrival + SimDuration::from_nanos(1));
        self.last_arrival = arrival;

        self.stats.transmitted += 1;
        self.stats.bytes += packet.size.as_u64();

        LinkVerdict::Deliver {
            at: arrival,
            packet,
        }
    }

    /// Releases every packet whose serialisation is over as seen from the
    /// event `(now, cur_seq)`: finished before `now`, or at `now` and
    /// ordered before the event. A packet's serialisation ends at
    /// `tx_done`, ordered just ahead of its own `Arrive` (`mark`) — where
    /// a release event filed right before that `Arrive` would sort — so
    /// at `now == tx_done` it is over iff `cur_seq >= mark` (DESIGN §5h).
    fn drain_served(&mut self, now: SimTime, cur_seq: u64) {
        while let Some(&(tx_done, mark, size)) = self.in_service.front() {
            if tx_done > now || (tx_done == now && cur_seq < mark) {
                break;
            }
            self.in_service.pop_front();
            self.backlog -= size;
        }
    }

    /// Bytes queued or in serialisation as of the last drain: read right
    /// after an accepted offer, the backlog that packet joined, itself
    /// included.
    pub fn backlog(&self) -> Bytes {
        self.backlog
    }

    /// Bytes still queued or in serialisation at `now`, read from outside
    /// the event loop: everything due by `now` has been served.
    pub fn backlog_at(&self, now: SimTime) -> Bytes {
        let served: Bytes = self
            .in_service
            .iter()
            .take_while(|&&(tx_done, _, _)| tx_done <= now)
            .map(|&(_, _, size)| size)
            .sum();
        self.backlog - served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::wire::Payload;

    fn pkt(id: u64, size: u64) -> Packet {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            size: Bytes::new(size),
            ttl: 64,
            sent_at: SimTime::ZERO,
            payload: Payload::Raw(0),
        }
    }

    fn test_link(rate_mbps: u64, delay_ms: u64, loss: f64) -> Link {
        Link::new(
            NodeId(1),
            LinkConfig::fixed(
                SimDuration::from_millis(delay_ms),
                DataRate::from_mbps(rate_mbps),
                loss,
            ),
            SimRng::seed_from(7),
        )
    }

    /// Offers a `size`-byte packet from outside the event loop, with the
    /// packet id standing in for its arrival's sequence number.
    fn offer(link: &mut Link, now: SimTime, id: u64, size: u64) -> LinkVerdict {
        link.offer(now, u64::MAX, id, pkt(id, size))
    }

    fn arrival(verdict: LinkVerdict) -> SimTime {
        match verdict {
            LinkVerdict::Deliver { at, .. } => at,
            LinkVerdict::Dropped { reason } => panic!("dropped: {reason:?}"),
        }
    }

    #[test]
    fn serialization_plus_propagation() {
        let mut link = test_link(12, 10, 0.0);
        // 1500 B at 12 Mbps = 1 ms serialisation; +10 ms propagation.
        let at = arrival(offer(&mut link, SimTime::ZERO, 1, 1_500));
        assert_eq!(at, SimTime::from_millis(11));
        let done = SimTime::from_millis(1);
        assert_eq!(
            link.backlog_at(done - SimDuration::from_nanos(1)),
            Bytes::new(1_500)
        );
        assert_eq!(link.backlog_at(done), Bytes::ZERO);
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = test_link(12, 0, 0.0);
        let _ = offer(&mut link, SimTime::ZERO, 1, 1_500);
        let at = arrival(offer(&mut link, SimTime::ZERO, 2, 1_500));
        assert_eq!(at, SimTime::from_millis(2));
        assert_eq!(link.backlog_at(SimTime::ZERO), Bytes::new(3_000));
        assert_eq!(link.backlog_at(SimTime::from_millis(1)), Bytes::new(1_500));
        assert_eq!(link.backlog_at(SimTime::from_millis(2)), Bytes::ZERO);
    }

    #[test]
    fn droptail_overflow() {
        let mut link = Link::new(
            NodeId(1),
            LinkConfig::fixed(SimDuration::ZERO, DataRate::from_kbps(8), 0.0)
                .with_queue(Bytes::new(3_000)),
            SimRng::seed_from(1),
        );
        // Two 1500 B packets fill the 3000 B buffer; the third drops.
        let _ = arrival(offer(&mut link, SimTime::ZERO, 1, 1_500));
        let _ = arrival(offer(&mut link, SimTime::ZERO, 2, 1_500));
        assert!(matches!(
            offer(&mut link, SimTime::ZERO, 3, 1_500),
            LinkVerdict::Dropped { .. }
        ));
        assert_eq!(link.stats.overflowed, 1);
        // The first finishes serialising at 1.5 s, which frees room again.
        let _ = arrival(offer(&mut link, SimTime::from_millis(1_500), 4, 1_500));
    }

    #[test]
    fn a_packet_is_served_at_its_tx_done_only_from_its_own_arrival_on() {
        // 1500 B at 8 kbps: the first packet's serialisation ends at 1.5 s,
        // and its arrival (zero propagation) carries sequence number 10.
        let cfg = || {
            LinkConfig::fixed(SimDuration::ZERO, DataRate::from_kbps(8), 0.0)
                .with_queue(Bytes::new(3_000))
        };
        let done = SimTime::from_millis(1_500);
        for (cur_seq, accepted) in [(9, false), (10, true), (11, true)] {
            let mut link = Link::new(NodeId(1), cfg(), SimRng::seed_from(1));
            let _ = link.offer(SimTime::ZERO, u64::MAX, 10, pkt(1, 1_500));
            let _ = link.offer(SimTime::ZERO, u64::MAX, 11, pkt(2, 1_500));
            let verdict = link.offer(done, cur_seq, 20, pkt(3, 1_500));
            assert_eq!(
                matches!(verdict, LinkVerdict::Deliver { .. }),
                accepted,
                "offer at tx_done from the event with seq {cur_seq}"
            );
        }
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut link = test_link(1_000, 1, 0.3);
        let mut dropped = 0;
        let n = 10_000;
        for i in 0..n {
            if let LinkVerdict::Dropped { .. } =
                offer(&mut link, SimTime::from_micros(i * 20), i, 100)
            {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
        assert_eq!(link.stats.lost, dropped);
    }

    #[test]
    fn zero_rate_link_drops() {
        let mut link = Link::new(
            NodeId(1),
            LinkConfig::fixed(SimDuration::ZERO, DataRate::ZERO, 0.0),
            SimRng::seed_from(2),
        );
        assert!(matches!(
            offer(&mut link, SimTime::ZERO, 1, 100),
            LinkVerdict::Dropped { .. }
        ));
    }

    #[test]
    fn fault_down_window_drops_only_inside_window() {
        use crate::fault::FaultSchedule;
        let mut link = test_link(1_000, 1, 0.0);
        link.set_fault(FaultSchedule::down(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        ));
        let _ = arrival(offer(&mut link, SimTime::from_millis(5), 1, 100));
        assert!(matches!(
            offer(&mut link, SimTime::from_millis(15), 2, 100),
            LinkVerdict::Dropped { .. }
        ));
        let _ = arrival(offer(&mut link, SimTime::from_millis(25), 3, 100));
        assert_eq!(link.stats.faulted, 1);
        assert_eq!(link.stats.transmitted, 2);
    }

    #[test]
    fn corruption_window_drops_about_the_right_fraction() {
        use crate::fault::{FaultMode, FaultSchedule, FaultWindow};
        let mut link = test_link(1_000, 0, 0.0);
        link.set_fault(FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
            mode: FaultMode::Corrupt(0.4),
        }]));
        let n = 10_000u64;
        for i in 0..n {
            let _ = offer(&mut link, SimTime::from_micros(i * 20), i, 100);
        }
        let rate = link.stats.corrupted as f64 / n as f64;
        assert!((rate - 0.4).abs() < 0.02, "corruption rate {rate}");
        assert_eq!(link.stats.lost, 0);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut link = test_link(12, 0, 0.0);
        let _ = offer(&mut link, SimTime::ZERO, 1, 1_500);
        // Much later, the transmitter is idle: no residual queueing delay.
        let at = arrival(offer(&mut link, SimTime::from_secs(1), 2, 1_500));
        assert_eq!(at, SimTime::from_secs(1) + SimDuration::from_millis(1));
        assert_eq!(link.backlog(), Bytes::new(1_500), "the first was served");
    }
}

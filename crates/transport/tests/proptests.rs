//! Property tests for the transport layer: reliability (every byte
//! arrives exactly once, in order) must hold for every congestion
//! controller under arbitrary loss, delay and rate combinations.

use proptest::prelude::*;
use starlink_netsim::{LinkConfig, Network, NodeKind};
use starlink_simcore::{Bytes, DataRate, SimDuration, SimTime};
use starlink_transport::tcp::{TcpConfig, TcpReceiver, TcpSender};
use starlink_transport::CcAlgorithm;

/// Every algorithm, drawn from `CcAlgorithm::ALL` so none is left out.
fn algo_strategy() -> impl Strategy<Value = CcAlgorithm> {
    (0..CcAlgorithm::ALL.len()).prop_map(|i| CcAlgorithm::ALL[i])
}

proptest! {
    // Each case simulates a full transfer; keep the population small.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reliability: the receiver's in-order byte count equals the
    /// configured transfer size, for every CCA, across loss rates up to
    /// 30% and a spread of delays/rates.
    #[test]
    fn every_byte_arrives_exactly_once(
        algo in algo_strategy(),
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        delay_ms in 1u64..60,
        rate_mbps in 2u64..60,
        kb in 20u64..300,
    ) {
        let total = kb * 1_000;
        let mut net = Network::new(seed);
        let a = net.add_node("tx", NodeKind::Host);
        let b = net.add_node("rx", NodeKind::Host);
        net.connect_duplex(
            a,
            b,
            LinkConfig::fixed(
                SimDuration::from_millis(delay_ms),
                DataRate::from_mbps(rate_mbps),
                loss,
            ).with_queue(Bytes::from_kb(96)),
            LinkConfig::fixed(
                SimDuration::from_millis(delay_ms),
                DataRate::from_mbps(100),
                loss / 4.0, // ack path cleaner but not clean
            ),
        );
        net.route_linear(&[a, b]);
        let (tx, stats) = TcpSender::new(b, TcpConfig::bulk(1, algo, total));
        let (rx, rstats) = TcpReceiver::new(1, SimDuration::from_secs(1));
        net.attach_handler(a, Box::new(tx));
        net.attach_handler(b, Box::new(rx));
        net.arm_timer(a, SimTime::ZERO, TcpSender::start_token());
        // Generous horizon: RTO backoff under heavy loss is slow.
        net.run_until(SimTime::from_secs(900));

        let r = rstats.borrow();
        prop_assert_eq!(
            r.bytes_in_order, total,
            "{:?}: {} of {} bytes arrived (loss {:.2})",
            algo, r.bytes_in_order, total, loss
        );
        let s = stats.borrow();
        prop_assert!(s.finished_at.is_some(), "{:?}: sender never finished", algo);
        prop_assert!(s.bytes_acked >= total);
    }

    /// The binned receiver counts always sum to the in-order total.
    #[test]
    fn receiver_bins_sum_to_total(
        seed in any::<u64>(),
        loss in 0.0f64..0.15,
        kb in 20u64..200,
    ) {
        let total = kb * 1_000;
        let mut net = Network::new(seed);
        let a = net.add_node("tx", NodeKind::Host);
        let b = net.add_node("rx", NodeKind::Host);
        net.connect_duplex(
            a,
            b,
            LinkConfig::fixed(SimDuration::from_millis(10), DataRate::from_mbps(20), loss),
            LinkConfig::fixed(SimDuration::from_millis(10), DataRate::from_mbps(20), 0.0),
        );
        net.route_linear(&[a, b]);
        let (tx, _) = TcpSender::new(b, TcpConfig::bulk(2, CcAlgorithm::Cubic, total));
        let (rx, rstats) = TcpReceiver::new(2, SimDuration::from_secs(1));
        net.attach_handler(a, Box::new(tx));
        net.attach_handler(b, Box::new(rx));
        net.arm_timer(a, SimTime::ZERO, TcpSender::start_token());
        net.run_until(SimTime::from_secs(600));
        let r = rstats.borrow();
        prop_assert_eq!(r.bins.iter().sum::<u64>(), r.bytes_in_order);
    }
}

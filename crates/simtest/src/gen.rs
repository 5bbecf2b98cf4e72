//! Seeded scenario generation.
//!
//! [`generate`] maps a 64-bit seed to one [`Scenario`] through labelled
//! [`SimRng`] streams: the same seed always yields the same scenario, and
//! nearby seeds are fully decorrelated. Ranges are chosen so a scenario
//! finishes in well under a second of wall clock while still exercising
//! slow links, deep queues, loss bursts, router blackouts and every
//! congestion-control algorithm.

use crate::fairness::FlowMixSpec;
use crate::scenario::{
    ClientSpec, CollectorSpec, FaultSpec, LinkSpec, PopulationSpec, Scenario, StorageFaultSpec,
    TelemetrySpec, Workload,
};
use starlink_channel::WeatherCondition;
use starlink_simcore::SimRng;
use starlink_transport::CcAlgorithm;

/// Generates the scenario for `seed`.
pub fn generate(seed: u64) -> Scenario {
    let root = SimRng::seed_from(seed);
    let mut shape = root.stream("shape");
    let horizon_ms = shape.range_u64(4_000, 16_000);
    let routers = shape.range_u64(1, 3) as usize;
    let n_clients = shape.range_u64(1, 4) as usize;

    let clients = (0..n_clients)
        .map(|i| {
            let mut rng = root.stream("client").substream(i as u64);
            ClientSpec {
                up: link(&mut rng),
                down: link(&mut rng),
                workload: workload(&mut rng, horizon_ms),
            }
        })
        .collect::<Vec<_>>();

    let mut frng = root.stream("faults");
    let n_faults = frng.below(5) as usize;
    let faults = (0..n_faults)
        .map(|_| fault(&mut frng, horizon_ms, routers, n_clients))
        .collect();

    let mut trng = root.stream("telemetry");
    let telemetry = trng.bernoulli(0.25).then(|| {
        // Draw order matters: the collector draws come after the four
        // campaign-shape draws so pre-collector seeds keep their
        // sub-campaigns. An undrawn collector runs the generous budget.
        let seed = trng.next_u64();
        let days = trng.range_u64(1, 3);
        let pages_per_day_milli = trng.range_u64(2_000, 20_000);
        let fault_storm = trng.bernoulli(0.5);
        let collector = trng.bernoulli(0.5).then(|| CollectorSpec {
            session_rate_milli: trng.range_u64(500, 5_000),
            session_burst: trng.range_u64(1, 4),
            queue_batches: trng.range_u64(2, 16),
            global_bytes: trng.range_u64(4_000, 64_000),
            drain_bytes_per_sec: trng.range_u64(200, 20_000),
        });
        // Storage draws come after the collector draws for the same
        // reason the collector's come after the campaign-shape ones:
        // pre-storage seeds keep their sub-campaigns bit-for-bit.
        let storage = trng.bernoulli(0.5).then(|| StorageFaultSpec {
            seed: trng.next_u64(),
            torn_writes: trng.below(2),
            bit_rots: trng.below(2),
            enospc: trng.below(2),
            crashes: trng.below(3),
            retain: trng.range_u64(1, 4),
        });
        // Population draws come last, after the storage draws, keeping
        // every earlier dimension's sub-campaign bit-for-bit on
        // pre-population seeds. Shards start at 2: a single-shard run
        // cannot exercise the merge path the oracles exist to check.
        let population = trng.bernoulli(0.5).then(|| PopulationSpec {
            seed: trng.next_u64(),
            users: trng.range_u64(50, 400),
            cities: trng.range_u64(3, 30) as u32,
            days: trng.range_u64(1, 3),
            shards: trng.range_u64(2, 5),
            pages_per_day_milli: trng.range_u64(2_000, 9_000),
        });
        TelemetrySpec {
            seed,
            days,
            pages_per_day_milli,
            fault_storm,
            collector,
            storage,
            population,
        }
    });

    // The fairness dimension draws from its own labelled stream, so
    // adding it left every pre-existing dimension's draws — and thus
    // every old seed's scenario shape — bit-for-bit unchanged.
    let mut mrng = root.stream("flowmix");
    let flow_mix = mrng.bernoulli(0.25).then(|| {
        let seed = mrng.next_u64();
        let flows = mrng.range_u64(2, 6) as usize;
        // Flow 0 is always BBRv2: the fairness oracle bounds BBRv2
        // retransmit rates, so every drawn mix must exercise it.
        let mix = (0..flows)
            .map(|i| {
                if i == 0 {
                    CcAlgorithm::Bbr2
                } else {
                    *mrng.choose(&CcAlgorithm::ALL)
                }
            })
            .collect();
        FlowMixSpec {
            seed,
            mix,
            bottleneck_kbps: mrng.range_u64(4_000, 16_000),
            queue_bytes: mrng.range_u64(16, 64) * 1_000,
            access_delay_us: mrng.range_u64(5_000, 30_000),
            duration_ms: mrng.range_u64(3_000, 8_000),
        }
    });

    Scenario {
        seed: root.stream("net").next_u64(),
        horizon_ms,
        routers,
        clients,
        faults,
        telemetry,
        flow_mix,
    }
}

fn link(rng: &mut SimRng) -> LinkSpec {
    LinkSpec {
        delay_us: rng.range_u64(2_000, 60_000),
        rate_kbps: rng.range_u64(1_000, 60_000),
        loss_ppm: if rng.bernoulli(0.4) {
            rng.range_u64(100, 20_000)
        } else {
            0
        },
        queue_bytes: rng.range_u64(16, 256) * 1_000,
    }
}

fn workload(rng: &mut SimRng, horizon_ms: u64) -> Workload {
    let algo = *rng.choose(&CcAlgorithm::ALL);
    let start_ms = rng.below(horizon_ms / 4);
    match rng.below(4) {
        0 => Workload::TcpBulk {
            algo,
            total_bytes: rng.range_u64(50, 2_000) * 1_000,
            start_ms,
        },
        1 => Workload::TcpStream {
            algo,
            start_ms,
            stop_ms: rng.range_u64(horizon_ms / 2, horizon_ms),
        },
        2 => Workload::UdpBlast {
            rate_kbps: rng.range_u64(500, 20_000),
            payload: rng.range_u64(100, 1_400),
            stop_ms: rng.range_u64(horizon_ms / 2, horizon_ms),
        },
        _ => Workload::Ping {
            count: rng.range_u64(5, 50),
            interval_ms: rng.range_u64(50, 500),
            size: rng.range_u64(64, 1_400),
        },
    }
}

fn fault(rng: &mut SimRng, horizon_ms: u64, routers: usize, n_clients: usize) -> FaultSpec {
    let client = rng.index(n_clients);
    let start_ms = rng.below(horizon_ms / 2);
    match rng.below(5) {
        0 => FaultSpec::AccessFlap {
            client,
            up: rng.bernoulli(0.5),
            start_ms,
            end_ms: start_ms + rng.range_u64(1_000, horizon_ms / 2),
            period_ms: rng.range_u64(200, 2_000),
            down_ppm: rng.range_u64(10_000, 300_000),
        },
        1 => FaultSpec::AccessCorruption {
            client,
            up: rng.bernoulli(0.5),
            start_ms,
            duration_ms: rng.range_u64(200, 3_000),
            prob_ppm: rng.range_u64(10_000, 500_000),
        },
        2 => FaultSpec::AccessFade {
            client,
            start_ms,
            duration_ms: rng.range_u64(500, 4_000),
            condition_code: WeatherCondition::ALL[rng.index(WeatherCondition::ALL.len())].code(),
        },
        3 if routers >= 2 => FaultSpec::BackboneOutage {
            hop: rng.index(routers - 1),
            start_ms,
            duration_ms: rng.range_u64(100, 1_500),
        },
        _ => FaultSpec::RouterBlackout {
            // Never black out router 0: every client's access terminates
            // there, and a first-hop blackout just silences the run.
            router: if routers >= 2 {
                1 + rng.index(routers - 1)
            } else {
                0
            },
            start_ms,
            duration_ms: rng.range_u64(100, 1_000),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_scenarios_validate() {
        for seed in 0..200 {
            let s = generate(seed);
            s.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // And survive the JSON round trip bit-exactly.
            assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn collector_dimension_appears_both_ways() {
        let (mut with, mut without) = (false, false);
        for seed in 0..400 {
            match generate(seed).telemetry {
                Some(t) if t.collector.is_some() => with = true,
                Some(_) => without = true,
                None => {}
            }
        }
        assert!(with, "no generated scenario draws an admission budget");
        assert!(without, "no generated scenario keeps the generous budget");
    }

    #[test]
    fn storage_dimension_appears_both_ways_and_with_faults() {
        let (mut with, mut without, mut faulted) = (false, false, false);
        for seed in 0..400 {
            match generate(seed).telemetry {
                Some(t) if t.storage.is_some() => {
                    with = true;
                    let s = t.storage.unwrap();
                    if s.torn_writes + s.bit_rots + s.enospc + s.crashes > 0 {
                        faulted = true;
                    }
                }
                Some(_) => without = true,
                None => {}
            }
        }
        assert!(with, "no generated scenario checkpoints to disk");
        assert!(without, "no generated scenario skips persistence");
        assert!(faulted, "no generated storage spec injects any fault");
    }

    #[test]
    fn population_dimension_appears_both_ways() {
        let (mut with, mut without) = (false, false);
        for seed in 0..400 {
            match generate(seed).telemetry {
                Some(t) if t.population.is_some() => {
                    with = true;
                    let p = t.population.unwrap();
                    assert!(p.shards >= 2, "seed {seed}: single-shard spec {p:?}");
                    assert!(p.users >= 50 && p.cities >= 3, "seed {seed}: {p:?}");
                }
                Some(_) => without = true,
                None => {}
            }
        }
        assert!(with, "no generated scenario runs the scaled campaign");
        assert!(without, "no generated scenario skips the scaled campaign");
    }

    #[test]
    fn flowmix_dimension_appears_both_ways() {
        let (mut with, mut without) = (false, false);
        for seed in 0..400 {
            match generate(seed).flow_mix {
                Some(m) => {
                    with = true;
                    assert_eq!(m.mix[0], CcAlgorithm::Bbr2, "seed {seed}: {m:?}");
                    assert!(m.mix.len() >= 2, "seed {seed}: single-flow mix {m:?}");
                    m.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                }
                None => without = true,
            }
        }
        assert!(with, "no generated scenario contends at a bottleneck");
        assert!(without, "no generated scenario skips the fairness run");
    }

    #[test]
    fn all_workload_kinds_and_fault_kinds_appear() {
        let mut workloads = [false; 4];
        let mut fault_kinds = [false; 5];
        for seed in 0..300 {
            let s = generate(seed);
            for c in &s.clients {
                match c.workload {
                    Workload::TcpBulk { .. } => workloads[0] = true,
                    Workload::TcpStream { .. } => workloads[1] = true,
                    Workload::UdpBlast { .. } => workloads[2] = true,
                    Workload::Ping { .. } => workloads[3] = true,
                }
            }
            for f in &s.faults {
                match f {
                    FaultSpec::AccessFlap { .. } => fault_kinds[0] = true,
                    FaultSpec::AccessCorruption { .. } => fault_kinds[1] = true,
                    FaultSpec::AccessFade { .. } => fault_kinds[2] = true,
                    FaultSpec::BackboneOutage { .. } => fault_kinds[3] = true,
                    FaultSpec::RouterBlackout { .. } => fault_kinds[4] = true,
                }
            }
        }
        assert!(workloads.iter().all(|&b| b), "{workloads:?}");
        assert!(fault_kinds.iter().all(|&b| b), "{fault_kinds:?}");
    }
}

//! Deterministic simulation testing for the starlink-browser-view
//! workspace — a VOPR-style scenario swarm.
//!
//! The pieces, in pipeline order:
//!
//! - [`gen`] maps a 64-bit seed to a random [`Scenario`]:
//!   topology shape, per-client channel profiles, workloads over every
//!   congestion-control algorithm, a fault script reusing the
//!   `starlink-faults` builders, an optional telemetry sub-campaign, and
//!   an optional mixed-CC coexistence experiment ([`fairness`]).
//! - [`run`](mod@run) rebuilds and executes the scenario deterministically,
//!   snapshotting a [`RunReport`] — per-link/per-node
//!   conservation counters, the event-trace digest, TCP introspection,
//!   telemetry coverage.
//! - `oracles` checks cross-cutting invariants over the report; every
//!   scenario the generator can produce must pass all of them.
//! - [`shrink`] trims a failing scenario to a smaller reproducer.
//! - The `swarm` binary fans seeds across workers (`swarm run`), records
//!   failing seeds as replayable JSON, and reproduces them exactly
//!   (`swarm replay`).
//!
//! Scenarios serialise to JSON ([`json`]) with exact `u64` fidelity, so a
//! failing seed's artifact replays the identical run on any machine.

pub mod fairness;
pub mod gen;
pub mod json;
mod oracles;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use fairness::{jain_milli, run_fairness, AlgoShare, FairnessReport, FlowMixSpec, FlowShare};
pub use oracles::{check, check_twin, Violation};
pub use run::{
    run, run_twin, PopulationReport, RunOptions, RunReport, StorageReport, TelemetryReport,
};
pub use scenario::{
    ClientSpec, CollectorSpec, FaultSpec, LinkSpec, PopulationSpec, Scenario, StorageFaultSpec,
    TelemetrySpec, Workload,
};

use starlink_simcore::SimRng;
use starlink_transport::CcAlgorithm;

/// Derives the scenario seed for swarm index `index` under `base`.
/// Labelled-stream derivation keeps neighbouring indices decorrelated.
fn scenario_seed(base: u64, index: u64) -> u64 {
    SimRng::seed_from(base)
        .stream("swarm")
        .substream(index)
        .next_u64()
}

/// The outcome of one swarm seed: the scenario, both runs' reports, and
/// any violated invariants.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The derived scenario seed.
    pub seed: u64,
    /// The generated scenario.
    pub scenario: Scenario,
    /// First run's event-trace digest.
    pub digest: u64,
    /// First run's dispatched-event count.
    pub events: u64,
    /// Violations from the single-run oracles plus the twin-run check.
    pub violations: Vec<Violation>,
}

/// Generates, twin-runs and oracle-checks one swarm seed.
pub fn run_seed(base: u64, index: u64, opts: &RunOptions) -> SeedOutcome {
    let seed = scenario_seed(base, index);
    let scenario = gen::generate(seed);
    let (first, second) = run_twin(&scenario, opts);
    let violations = check_twin(&first, &second);
    SeedOutcome {
        seed,
        scenario,
        digest: first.digest,
        events: first.events,
        violations,
    }
}

/// The canonical handover-burst-loss scenario used by the congestion-
/// control conformance matrix: one client streaming for 60 s through a
/// Starlink-like access link whose downlink flaps on a 15-second
/// reconfiguration period and takes periodic corruption bursts.
///
/// Every algorithm sees the *identical* network (same scenario seed, same
/// fault script) — only the congestion control differs, so goodput
/// differences are attributable to the algorithm alone.
pub fn handover_scenario(algo: CcAlgorithm) -> Scenario {
    let horizon_ms = 60_000;
    // Handover loss bursts every 5 seconds — the paper observes loss
    // bursts several times per minute as serving satellites change.
    // Random (non-congestive) loss is exactly what collapses the
    // loss-based algorithms while BBR's model sails through.
    let mut faults: Vec<FaultSpec> = (0..11)
        .map(|i| FaultSpec::AccessCorruption {
            client: 0,
            up: false,
            start_ms: 2_500 + i * 5_000,
            duration_ms: 700,
            prob_ppm: 120_000,
        })
        .collect();
    // Plus the 15-second reconfiguration pattern: a short full outage at
    // every period boundary, for the whole test.
    faults.push(FaultSpec::AccessFlap {
        client: 0,
        up: false,
        start_ms: 1_000,
        end_ms: horizon_ms,
        period_ms: 15_000,
        down_ppm: 20_000, // 300 ms down per 15 s period
    });
    Scenario {
        seed: 0x5EED_CAFE_F00D_0001,
        horizon_ms,
        routers: 2,
        clients: vec![ClientSpec {
            up: LinkSpec {
                delay_us: 20_000,
                rate_kbps: 12_000,
                loss_ppm: 100,
                queue_bytes: 512_000,
            },
            // Queue deeper than the ~525 KB BDP: the matrix measures the
            // loss response, not BBRv1's shallow-buffer overshoot.
            down: LinkSpec {
                delay_us: 20_000,
                rate_kbps: 50_000,
                loss_ppm: 100,
                queue_bytes: 1_000_000,
            },
            workload: Workload::TcpStream {
                algo,
                start_ms: 0,
                stop_ms: horizon_ms - 2_000,
            },
        }],
        faults,
        telemetry: None,
        flow_mix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seed_is_stable_and_spread() {
        assert_eq!(scenario_seed(42, 0), scenario_seed(42, 0));
        assert_ne!(scenario_seed(42, 0), scenario_seed(42, 1));
        assert_ne!(scenario_seed(42, 0), scenario_seed(43, 0));
    }

    #[test]
    fn run_seed_is_deterministic() {
        let opts = RunOptions::default();
        let a = run_seed(1, 5, &opts);
        let b = run_seed(1, 5, &opts);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn handover_scenario_is_valid_for_every_algorithm() {
        for algo in CcAlgorithm::ALL {
            handover_scenario(algo).validate().unwrap();
        }
    }
}

//! `many_flows` — hundreds of thin mixed-CC flows contending for one
//! shared droptail bottleneck per cell, as in `repro fairness`.

use super::bulk_flows::{packet_counters, packet_probes};
use super::{input_rng, Checked, Digest, Layers, Tally, Workload};
use crate::trace::{Trace, Tracer};
use starlink_core::obsv::MetricsRegistry;
use starlink_core::transport::CcAlgorithm;
use starlink_simtest::{run_fairness, FairnessReport, FlowMixSpec, RunOptions};

/// Input sizes.
pub struct ManyFlows {
    /// Concurrent flows per cell.
    pub cells: Vec<usize>,
    /// Simulated contention time per cell, milliseconds.
    pub duration_ms: u64,
}

impl ManyFlows {
    /// The benchmark size.
    pub fn full() -> Self {
        ManyFlows {
            cells: vec![256, 128, 64],
            duration_ms: 30_000,
        }
    }

    /// A smoke-test size.
    #[cfg(test)]
    pub fn tiny() -> Self {
        ManyFlows {
            cells: vec![12, 6],
            duration_ms: 2_000,
        }
    }
}

impl Workload for ManyFlows {
    type Inputs = Vec<FlowMixSpec>;
    type Output = Vec<FairnessReport>;
    type Facts = ();

    fn name(&self) -> &'static str {
        "many_flows"
    }

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> Vec<FlowMixSpec> {
        let root = input_rng(seed, self.name());
        self.cells
            .iter()
            .enumerate()
            .map(|(cell, &flows)| {
                // The deployed-population mix of `repro fairness`: mostly
                // BBRv2/CUBIC, BBRv1 and the legacy loss-based tail. The
                // shares are exact and the seed deals the flows their
                // places: a drawn mix moves the acknowledged payload per
                // event, and `units_per_s` with it, from seed to seed.
                let mut mix: Vec<CcAlgorithm> = (0..flows)
                    .map(|i| match i * 100 / flows {
                        0..=29 => CcAlgorithm::Bbr2,
                        30..=49 => CcAlgorithm::Bbr,
                        50..=79 => CcAlgorithm::Cubic,
                        80..=89 => CcAlgorithm::Reno,
                        90..=94 => CcAlgorithm::Veno,
                        _ => CcAlgorithm::Vegas,
                    })
                    .collect();
                root.stream("mix").substream(cell as u64).shuffle(&mut mix);
                // 1 Mbit/s per subscriber and two 40 ms BDPs of droptail
                // queue (kbps x 80 ms / 8 = x 10), whatever the cell size.
                let bottleneck_kbps = 1_024 * flows as u64;
                FlowMixSpec {
                    seed: root.stream("net").substream(cell as u64).next_u64(),
                    mix,
                    bottleneck_kbps,
                    queue_bytes: bottleneck_kbps * 10,
                    access_delay_us: 8_000 + 4_000 * cell as u64,
                    duration_ms: self.duration_ms,
                }
            })
            .collect()
    }

    fn run(&self, inputs: Vec<FlowMixSpec>, tr: &mut Tracer) -> Vec<FairnessReport> {
        let opts = RunOptions::default();
        inputs
            .iter()
            .map(|spec| tr.span("simtest", "run_fairness", || run_fairness(spec, &opts)))
            .collect()
    }

    fn check(&self, _seed: u64, output: Vec<FairnessReport>) -> (Checked, ()) {
        let mut tally = Tally::default();
        let mut digest = Digest::default();
        let mut bytes = 0u64;
        for (cell, report) in output.iter().enumerate() {
            let flow_sum: u64 = report.flows.iter().map(|f| f.bytes_acked).sum();
            tally.expect(flow_sum == report.total_bytes && flow_sum > 0, || {
                format!(
                    "cell {cell}: flows acknowledged {flow_sum} B, report says {}",
                    report.total_bytes
                )
            });
            tally.expect((1..=1_000).contains(&report.jain_milli), || {
                format!("cell {cell}: Jain index {} out of range", report.jain_milli)
            });
            bytes += report.total_bytes;
            digest.word(report.jain_milli);
            for f in &report.flows {
                digest
                    .word(f.bytes_acked)
                    .word(f.segments_sent)
                    .word(f.retransmissions)
                    .word(f.rto_count);
            }
        }
        let checked = Checked {
            units: bytes as f64 / 1e6,
            digest: digest.value(),
            attempted: tally.attempted,
            failed: tally.failed,
        };
        (checked, ())
    }

    fn layers(&self, trace: &Trace, counters: &MetricsRegistry, _facts: &()) -> Layers {
        let mut out = Layers::new();
        out.insert("simtest.fairness_cell_ms", trace.median_ms("run_fairness"));
        packet_counters(&mut out, counters, trace.total_s("run_fairness"));
        out
    }

    fn probes(&self, seed: u64, layers: &mut Layers) {
        packet_probes(seed, layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_passes_its_checks_and_the_seed_changes_the_digest() {
        let w = ManyFlows::tiny();
        let run = |seed| {
            let mut tr = Tracer::off();
            w.check(seed, w.run(w.setup(seed, &mut tr), &mut tr)).0
        };
        let a = run(1);
        assert_eq!((a.attempted, a.failed), (4, 0));
        assert!(a.units > 0.0);
        assert_eq!(run(1), a, "same seed, same output");
        assert_ne!(run(2).digest, a.digest);
    }

    #[test]
    fn a_report_whose_flows_do_not_add_up_fails_the_check() {
        let w = ManyFlows::tiny();
        let mut tr = Tracer::off();
        let mut output = w.run(w.setup(5, &mut tr), &mut tr);
        output[0].total_bytes += 1;
        output[1].jain_milli = 1_001;
        assert_eq!(w.check(5, output).0.failed, 2);
    }
}

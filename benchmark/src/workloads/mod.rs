//! The five workloads. Each one turns a seed into inputs (`setup`),
//! drives public product functions over them (`run`), and checks what
//! came back (`check`); the harness owns the clocks.

pub mod bulk_flows;
pub mod collector_ingest;
pub mod constellation_sweep;
pub mod many_flows;
pub mod population_campaign;

use crate::trace::{Trace, Tracer};
use starlink_core::obsv::MetricsRegistry;
use starlink_core::simcore::{SimRng, StreamingDigest};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The verdict on one repeat's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// Work completed, in the workload's unit.
    pub units: f64,
    /// FNV-1a over the simulated outputs; equal seeds give equal digests.
    pub digest: u64,
    /// Correctness checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// One workload at one input size.
pub trait Workload {
    /// What `setup` builds and `run` consumes.
    type Inputs;
    /// What `run` hands to `check`.
    type Output;
    /// Exact facts `check` reads off the output for `layers`.
    type Facts;

    /// The workload's name in [`crate::spec::WORKLOADS`].
    fn name(&self) -> &'static str;
    /// Builds one repeat's inputs from the seed (timed as `setup_s`).
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Inputs;
    /// The timed region: only calls into the product and bookkeeping.
    fn run(&self, inputs: Self::Inputs, tr: &mut Tracer) -> Self::Output;
    /// Checks an output (untimed).
    fn check(&self, seed: u64, output: Self::Output) -> (Checked, Self::Facts);
    /// Per-layer metrics from the span pass, the counter pass and the
    /// facts of one repeat.
    fn layers(&self, trace: &Trace, counters: &MetricsRegistry, facts: &Self::Facts) -> Layers;
    /// Short direct probes of layers the workload reaches only through
    /// another layer.
    fn probes(&self, seed: u64, layers: &mut Layers);
}

/// The workload's own RNG stream: seeds never collide across workloads.
pub fn input_rng(seed: u64, workload: &str) -> SimRng {
    SimRng::seed_from(seed).stream("slbench").stream(workload)
}

/// A digest builder over `u64` words.
#[derive(Default)]
pub struct Digest(StreamingDigest);

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.0.absorb_u64(v);
        self
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.absorb_bytes(b);
        self
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

/// Counts checks and failures.
#[derive(Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Tally {
    /// Records one check; a failure is reported on stderr with `what`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Host nanoseconds per operation of `op`, best of three batches of
/// `ops` calls each. `op` gets the call index so inputs can vary.
pub fn probe_ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..ops {
            op(i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

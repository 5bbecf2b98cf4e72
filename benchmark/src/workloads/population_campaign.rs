//! `population_campaign` — the million-user sharded campaign: day loop,
//! checkpoint, resume, day loop, per-city report.

use super::{input_rng, Checked, Digest, Layers, Tally, Workload};
use crate::trace::{Trace, Tracer};
use starlink_core::obsv::MetricsRegistry;
use starlink_core::telemetry::{CityCatalog, ScaleConfig, ScaledCampaign, ScaledPopulation};
use std::cell::OnceCell;
use std::hint::black_box;
use std::time::Instant;

/// Input sizes.
pub struct PopulationCampaign {
    /// Simulated subscribers.
    pub users: u64,
    /// Cities in the catalogue.
    pub cities: u32,
    /// Days simulated before the checkpoint, and again after the resume.
    pub days_per_half: u64,
    /// Dataset digest of an unbroken run of the seed this instance is
    /// driven with (one seed per instance), computed on first use.
    unbroken: OnceCell<u64>,
}

impl PopulationCampaign {
    /// The benchmark size: 4 M user-days. Two days a side keep a repeat
    /// near 1.3 s, so a 10 s run takes the best of seven or eight. This
    /// workload streams a 48 MB ledger from two threads and is the one a
    /// busy host slows most: with four days a side (2.2 s repeats, best
    /// of five) `units_per_s` moved by 12 % between runs in a noisy hour.
    pub fn full() -> Self {
        PopulationCampaign {
            users: 1_000_000,
            cities: 120,
            days_per_half: 2,
            unbroken: OnceCell::new(),
        }
    }

    /// A smoke-test size.
    #[cfg(test)]
    pub fn tiny() -> Self {
        PopulationCampaign {
            users: 5_000,
            cities: 24,
            days_per_half: 2,
            unbroken: OnceCell::new(),
        }
    }

    fn config(&self, seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed: input_rng(seed, "population_campaign").next_u64(),
            users: self.users,
            cities: self.cities,
            days: 2 * self.days_per_half,
            pages_per_day_milli: 22_000,
        }
    }

    /// Worker threads for the day loop: two, or one on a one-core host.
    /// The ledger is byte-identical at any count.
    pub fn jobs() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }
}

/// One repeat's result: the resumed campaign, run to its last day.
pub struct Output {
    campaign: ScaledCampaign,
    checkpoint_bytes: usize,
    cities_reported: usize,
    rendered_bytes: usize,
}

/// Exact facts for the per-layer report.
pub struct Facts {
    generated_records: u64,
    checkpoint_bytes: usize,
}

impl Workload for PopulationCampaign {
    type Inputs = ScaledCampaign;
    type Output = Output;
    type Facts = Facts;

    fn name(&self) -> &'static str {
        "population_campaign"
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> ScaledCampaign {
        let config = self.config(seed);
        tr.span("telemetry.shard", "ScaledCampaign::new", || {
            ScaledCampaign::new(config)
        })
    }

    fn run(&self, mut campaign: ScaledCampaign, tr: &mut Tracer) -> Output {
        let jobs = Self::jobs();
        let config = *campaign.config();
        for _ in 0..self.days_per_half {
            tr.span("telemetry.shard", "run_day", || campaign.run_day(jobs));
        }
        let blob = tr.span("telemetry.shard", "checkpoint", || campaign.checkpoint());
        // As after a kill: the first process and its ledger are gone.
        drop(campaign);
        let mut campaign = tr.span("telemetry.shard", "resume", || {
            ScaledCampaign::resume(config, &blob).expect("a fresh checkpoint of this scenario")
        });
        let checkpoint_bytes = blob.len();
        drop(blob);
        for _ in 0..self.days_per_half {
            tr.span("telemetry.shard", "run_day", || campaign.run_day(jobs));
        }
        let cities_reported = tr.span("telemetry.shard", "per_city", || campaign.per_city().len());
        let rendered_bytes = tr.span("telemetry.shard", "render", || campaign.render().len());
        Output {
            campaign,
            checkpoint_bytes,
            cities_reported,
            rendered_bytes,
        }
    }

    fn check(&self, seed: u64, output: Output) -> (Checked, Facts) {
        let mut tally = Tally::default();
        let Output {
            campaign,
            checkpoint_bytes,
            cities_reported,
            rendered_bytes,
        } = output;
        let digest = campaign.dataset_digest();
        let totals = campaign.ledger().totals();
        tally.expect(
            campaign.is_finished() && campaign.ledger().sums_hold(),
            || "ledger: delivered + quarantined + shed + lost != generated for some user".into(),
        );
        tally.expect(cities_reported > 0 && rendered_bytes > 0, || {
            "per-city report is empty".into()
        });
        drop(campaign);

        let config = self.config(seed);
        let unbroken = *self.unbroken.get_or_init(|| {
            let mut reference = ScaledCampaign::new(config);
            reference.run_to_end(Self::jobs());
            reference.dataset_digest()
        });
        tally.expect(digest == unbroken, || {
            format!(
                "digest after checkpoint -> resume {digest:016x} != unbroken run {unbroken:016x}"
            )
        });

        let mut d = Digest::default();
        d.word(digest)
            .word(totals.generated)
            .word(totals.delivered)
            .word(checkpoint_bytes as u64);
        let checked = Checked {
            units: (config.users * config.days) as f64,
            digest: d.value(),
            attempted: tally.attempted,
            failed: tally.failed,
        };
        let facts = Facts {
            generated_records: totals.generated,
            checkpoint_bytes,
        };
        (checked, facts)
    }

    fn layers(&self, trace: &Trace, _counters: &MetricsRegistry, facts: &Facts) -> Layers {
        let mut out = Layers::new();
        out.insert("telemetry.shard.run_day_ms", trace.median_ms("run_day"));
        let user_days = (self.users * 2 * self.days_per_half) as f64;
        out.insert(
            "telemetry.shard.ns_per_user_day",
            trace.total_s("run_day") * 1e9 / user_days,
        );
        out.insert(
            "telemetry.shard.generated_records",
            facts.generated_records as f64,
        );
        out.insert(
            "telemetry.shard.checkpoint_ms",
            trace.median_ms("checkpoint"),
        );
        out.insert("telemetry.shard.resume_ms", trace.median_ms("resume"));
        out.insert(
            "telemetry.shard.checkpoint_mb",
            facts.checkpoint_bytes as f64 / 1e6,
        );
        out.insert(
            "telemetry.shard.render_ms",
            trace.median_ms("per_city") + trace.median_ms("render"),
        );
        out
    }

    fn probes(&self, seed: u64, layers: &mut Layers) {
        let config = self.config(seed);
        let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let catalog = black_box(CityCatalog::generate(config.cities, config.seed));
        layers.insert("telemetry.scale.catalog_generate_ms", ms(start));
        let start = Instant::now();
        black_box(ScaledPopulation::generate(&config, &catalog));
        layers.insert("telemetry.scale.population_generate_ms", ms(start));

        // The day loop on one worker, for the efficiency of the second.
        let mut campaign = ScaledCampaign::new(config);
        let mut days = [0.0f64; 2];
        for day in &mut days {
            let start = Instant::now();
            campaign.run_day(1);
            *day = ms(start);
        }
        let jobs1_ms = days[0].min(days[1]);
        layers.insert("telemetry.shard.run_day_jobs1_ms", jobs1_ms);
        let jobs = Self::jobs() as f64;
        let run_day_ms = layers["telemetry.shard.run_day_ms"];
        layers.insert(
            "telemetry.shard.parallel_efficiency",
            jobs1_ms / (jobs * run_day_ms),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &PopulationCampaign, seed: u64) -> Checked {
        let mut tr = Tracer::off();
        w.check(seed, w.run(w.setup(seed, &mut tr), &mut tr)).0
    }

    #[test]
    fn tiny_run_passes_its_checks_and_the_seed_changes_the_digest() {
        let w = PopulationCampaign::tiny();
        let a = run(&w, 1);
        assert_eq!((a.attempted, a.failed), (3, 0));
        assert_eq!(a.units, 20_000.0);
        assert_eq!(run(&w, 1), a, "same seed, same output");
        assert_ne!(run(&PopulationCampaign::tiny(), 2).digest, a.digest);
    }

    #[test]
    fn a_resume_that_lands_on_another_dataset_fails_the_check() {
        // A wrong reference digest stands in for a resume that silently
        // diverged from the unbroken run.
        let w = PopulationCampaign::tiny();
        w.unbroken.set(0xBAD).unwrap();
        assert_eq!(run(&w, 6).failed, 1);
    }
}

//! `constellation_sweep` — serving schedules and visibility queries over
//! shell-1 and a Gen2-sized constellation; no packet moves.

use super::{input_rng, probe_ns_per_op, Checked, Digest, Layers, Tally, Workload};
use crate::trace::{Trace, Tracer};
use starlink_core::constellation::{
    compute_schedule, compute_schedules, Constellation, SelectionPolicy, ServingSchedule,
    SHELL1_MIN_ELEVATION_DEG,
};
use starlink_core::geo::{look_angles, City, Geodetic};
use starlink_core::obsv::MetricsRegistry;
use starlink_core::simcore::{SimDuration, SimTime};
use starlink_core::tle::{Propagator, ShellConfig};
use std::hint::black_box;

/// Input sizes.
pub struct ConstellationSweep {
    /// Ground observers, drawn from [`City::ALL`].
    pub observers: usize,
    /// Schedule window per observer.
    pub window: SimDuration,
    /// Visibility instants on shell-1.
    pub instants: u64,
    /// Visibility instants on the Gen2-sized constellation.
    pub gen2_instants: u64,
    /// Divides the Gen2 shells' plane counts (1 = the ~16 k benchmark size).
    pub gen2_thinning: u32,
}

impl ConstellationSweep {
    /// The benchmark size: 178 800 observer-instants.
    pub fn full() -> Self {
        ConstellationSweep {
            observers: 12,
            window: SimDuration::from_hours(2),
            instants: 400,
            gen2_instants: 100,
            gen2_thinning: 1,
        }
    }

    /// A smoke-test size.
    #[cfg(test)]
    pub fn tiny() -> Self {
        ConstellationSweep {
            observers: 3,
            window: SimDuration::from_mins(5),
            instants: 6,
            gen2_instants: 2,
            gen2_thinning: 4,
        }
    }

    /// Observer-instants one repeat answers (schedules sample at 1 s).
    pub fn observer_instants(&self) -> u64 {
        self.observers as u64 * (2 * self.window.as_secs() + self.instants + self.gen2_instants)
    }

    /// Six shells in the shape of the Gen1 + Gen2 filings: 16 236
    /// satellites across four inclinations at full size.
    fn gen2_shells(&self) -> [ShellConfig; 6] {
        let shell =
            |inclination_deg, altitude_km: f64, planes: u32, sats_per_plane, first| ShellConfig {
                inclination_deg,
                altitude_m: altitude_km * 1_000.0,
                planes: (planes / self.gen2_thinning).max(1),
                sats_per_plane,
                phasing: 1,
                first_catalog_number: first,
                name_prefix: "GEN2",
            };
        [
            shell(53.0, 550.0, 72, 22, 100_000),
            shell(53.2, 540.0, 72, 22, 110_000),
            shell(70.0, 570.0, 36, 20, 120_000),
            shell(97.6, 560.0, 6, 58, 130_000),
            shell(43.0, 530.0, 48, 110, 140_000),
            shell(33.0, 525.0, 56, 120, 150_000),
        ]
    }
}

/// One repeat's inputs.
pub struct Inputs {
    shell1: Constellation,
    gen2: Constellation,
    observers: Vec<Geodetic>,
    start: SimTime,
    instants: Vec<SimDuration>,
    gen2_instants: Vec<SimDuration>,
}

/// One repeat's answers.
pub struct Output {
    observers: Vec<Geodetic>,
    single: Vec<ServingSchedule>,
    lockstep: Vec<ServingSchedule>,
    /// Satellites above the mask, per (instant, observer), shell-1.
    visible: Vec<usize>,
    /// The same on the Gen2-sized constellation.
    visible_gen2: Vec<usize>,
}

/// Shell-1 at 53° keeps several satellites above a 25° mask between
/// these latitudes at all times; nearer the equator coverage thins.
fn mid_latitude(observer: &Geodetic) -> bool {
    (30.0..=56.0).contains(&observer.lat_deg.abs())
}

fn sweep(
    constellation: &Constellation,
    observers: &[Geodetic],
    instants: &[SimDuration],
    names: (&'static str, &'static str),
    tr: &mut Tracer,
) -> Vec<usize> {
    let mut counts = Vec::with_capacity(instants.len() * observers.len());
    for &t in instants {
        let snapshot = tr.span("constellation", names.0, || constellation.snapshot(t));
        for &observer in observers {
            let views = tr.span("constellation", names.1, || {
                snapshot.visible_from(observer, SHELL1_MIN_ELEVATION_DEG)
            });
            counts.push(views.len());
        }
    }
    counts
}

impl Workload for ConstellationSweep {
    type Inputs = Inputs;
    type Output = Output;
    /// Handovers across the single-observer schedules.
    type Facts = u64;

    fn name(&self) -> &'static str {
        "constellation_sweep"
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Inputs {
        let mut rng = input_rng(seed, self.name());
        let gmst0 = rng.range_f64(0.0, std::f64::consts::TAU);
        let mut cities = City::ALL;
        rng.shuffle(&mut cities);
        let observers = cities[..self.observers]
            .iter()
            .map(|c| c.position())
            .collect();
        let start = SimTime::from_secs(rng.below(86_400));
        let stride = rng.range_u64(5, 16);
        let instants = |n: u64| {
            (0..n)
                .map(|i| start.since(SimTime::ZERO) + SimDuration::from_secs(i * stride))
                .collect()
        };

        let shell1 = tr.span("constellation", "Constellation::starlink_shell1", || {
            Constellation::starlink_shell1(gmst0)
        });
        let mut tles = Vec::new();
        for shell in self.gen2_shells() {
            tles.extend(tr.span("tle", "ShellConfig::generate", || shell.generate()));
        }
        let gen2 = tr.span("constellation", "Constellation::from_tles", || {
            Constellation::from_tles(&tles, gmst0)
        });
        Inputs {
            shell1,
            gen2,
            observers,
            start,
            instants: instants(self.instants),
            gen2_instants: instants(self.gen2_instants),
        }
    }

    fn run(&self, inputs: Inputs, tr: &mut Tracer) -> Output {
        let Inputs {
            shell1,
            gen2,
            observers,
            start,
            instants,
            gen2_instants,
        } = inputs;
        let policy = SelectionPolicy::default();
        // One observer at a time: every instant is new to the snapshot
        // cache. Then all in lockstep: each instant is shared.
        let single = observers
            .iter()
            .map(|&observer| {
                tr.span("constellation", "compute_schedule", || {
                    compute_schedule(&shell1, observer, start, self.window, &policy)
                })
            })
            .collect();
        let lockstep = tr.span("constellation", "compute_schedules", || {
            compute_schedules(&shell1, &observers, start, self.window, &policy)
        });
        let visible = sweep(
            &shell1,
            &observers,
            &instants,
            ("snapshot.shell1", "visible_from.shell1"),
            tr,
        );
        let visible_gen2 = sweep(
            &gen2,
            &observers,
            &gen2_instants,
            ("snapshot.gen2", "visible_from.gen2"),
            tr,
        );
        Output {
            observers,
            single,
            lockstep,
            visible,
            visible_gen2,
        }
    }

    fn check(&self, _seed: u64, output: Output) -> (Checked, u64) {
        let mut tally = Tally::default();
        let mut digest = Digest::default();
        for (i, (single, lockstep)) in output.single.iter().zip(&output.lockstep).enumerate() {
            tally.expect(single == lockstep && !single.intervals.is_empty(), || {
                format!("observer {i}: lockstep schedule differs from its own schedule")
            });
            for iv in &single.intervals {
                digest
                    .word(iv.sat as u64)
                    .word(iv.start.as_nanos())
                    .word(iv.end.as_nanos());
            }
        }
        for counts in [&output.visible, &output.visible_gen2] {
            for (i, &count) in counts.iter().enumerate() {
                let observer = &output.observers[i % output.observers.len()];
                if mid_latitude(observer) {
                    tally.expect(count > 0, || {
                        format!("no satellite above the mask at {:.1}°", observer.lat_deg)
                    });
                }
                digest.word(count as u64);
            }
        }
        let handovers = output.single.iter().map(|s| s.handovers.len() as u64).sum();
        let checked = Checked {
            units: self.observer_instants() as f64,
            digest: digest.value(),
            attempted: tally.attempted,
            failed: tally.failed,
        };
        (checked, handovers)
    }

    fn layers(&self, trace: &Trace, counters: &MetricsRegistry, handovers: &u64) -> Layers {
        let mut out = Layers::new();
        let gen2_sats: u32 = self.gen2_shells().iter().map(ShellConfig::total).sum();
        out.insert(
            "tle.shell_generate_us_per_sat",
            trace.total_s("ShellConfig::generate") * 1e6 / f64::from(gen2_sats),
        );
        out.insert(
            "constellation.build_us",
            (trace.total_s("Constellation::starlink_shell1")
                + trace.total_s("Constellation::from_tles"))
                * 1e6,
        );
        let shell1_sats = f64::from(ShellConfig::starlink_shell1().total());
        let propagated =
            self.instants as f64 * shell1_sats + self.gen2_instants as f64 * f64::from(gen2_sats);
        out.insert(
            "constellation.snapshot_ns_per_sat",
            trace.total_s("snapshot") * 1e9 / propagated,
        );
        out.insert(
            "constellation.visible_from_us",
            trace.median_ms("visible_from.shell1") * 1e3,
        );
        out.insert(
            "constellation.visible_from_gen2_us",
            trace.median_ms("visible_from.gen2") * 1e3,
        );
        let observer_hours = self.observers as f64 * self.window.as_secs_f64() / 3_600.0;
        out.insert(
            "constellation.schedule_ms_per_obs_hour",
            trace.total_s("compute_schedule") * 1e3 / observer_hours,
        );
        out.insert(
            "constellation.lockstep_ms_per_obs_hour",
            trace.total_s("compute_schedules") * 1e3 / observer_hours,
        );
        let hits = counters.counter("constellation.snapshot_cache.hits");
        let misses = counters.counter("constellation.snapshot_cache.misses");
        out.insert("constellation.snapshot_cache_hits", hits as f64);
        out.insert("constellation.snapshot_cache_misses", misses as f64);
        out.insert(
            "constellation.snapshot_cache_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.insert("constellation.handovers", *handovers as f64);
        out
    }

    fn probes(&self, seed: u64, layers: &mut Layers) {
        let mut rng = input_rng(seed, "constellation_sweep.probe");
        let tles = ShellConfig::starlink_shell1().generate();
        let propagators: Vec<Propagator> = tles
            .iter()
            .map(|tle| Propagator::new(&tle.elements, 0.0))
            .collect();
        let t0 = rng.range_f64(0.0, 86_400.0);
        let n = propagators.len() as u64;
        layers.insert(
            "tle.propagate_ns_per_position",
            probe_ns_per_op(200 * n, |i| {
                let t = t0 + (i / n) as f64;
                black_box(propagators[(i % n) as usize].position_at_secs(t));
            }),
        );
        let targets: Vec<_> = propagators.iter().map(|p| p.position_at_secs(t0)).collect();
        let observer = City::Wiltshire.position();
        layers.insert(
            "geo.look_ns_per_call",
            probe_ns_per_op(200 * n, |i| {
                black_box(look_angles(observer, targets[(i % n) as usize]));
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_size_answers_the_advertised_observer_instants() {
        let w = ConstellationSweep::full();
        assert_eq!(w.observer_instants(), 178_800);
        let sats: u32 = w.gen2_shells().iter().map(ShellConfig::total).sum();
        assert_eq!(sats, 16_236);
    }

    #[test]
    fn tiny_run_passes_its_checks_and_the_seed_changes_the_digest() {
        let w = ConstellationSweep::tiny();
        let run = |seed| {
            let mut tr = Tracer::off();
            w.check(seed, w.run(w.setup(seed, &mut tr), &mut tr)).0
        };
        let a = run(1);
        assert_eq!(a.failed, 0);
        assert!(a.attempted >= 3);
        assert_eq!(a.units, 3.0 * 608.0);
        assert_eq!(run(1), a, "same seed, same output");
        assert_ne!(run(2).digest, a.digest);
    }

    #[test]
    fn a_lockstep_schedule_that_disagrees_fails_the_check() {
        let w = ConstellationSweep::tiny();
        let mut tr = Tracer::off();
        let mut output = w.run(w.setup(4, &mut tr), &mut tr);
        output.lockstep[1].intervals.pop();
        assert_eq!(w.check(4, output).0.failed, 1);
    }
}

//! What the propagated bits feed, frozen: one serving schedule and a set
//! of visibility answers, hashed down to literals that were captured on
//! the per-satellite propagator (before the batch kernel existed). A
//! kernel edit that moves one bit of one position shows up here as a
//! different elevation or range, long before it moves a handover.

use starlink_constellation::{compute_schedule, Constellation, SatView, SelectionPolicy};
use starlink_geo::{City, Geodetic};
use starlink_simcore::{SimDuration, SimTime};
use starlink_tle::{ShellConfig, Tle};

/// The Greenwich angle every literal below was captured at.
const GMST0: f64 = 1.234_567_890_123;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// The six Gen2-like shells of `slbench`'s `constellation_sweep`, plane
/// counts divided by eight: 2 034 satellites over four inclinations.
fn thinned_gen2() -> Vec<Tle> {
    let shell = |inclination_deg, altitude_km: f64, planes: u32, sats_per_plane, first| {
        ShellConfig {
            inclination_deg,
            altitude_m: altitude_km * 1_000.0,
            planes: (planes / 8).max(1),
            sats_per_plane,
            phasing: 1,
            first_catalog_number: first,
            name_prefix: "GEN2",
        }
        .generate()
    };
    [
        shell(53.0, 550.0, 72, 22, 100_000),
        shell(53.2, 540.0, 72, 22, 110_000),
        shell(70.0, 570.0, 36, 20, 120_000),
        shell(97.6, 560.0, 6, 58, 130_000),
        shell(43.0, 530.0, 48, 110, 140_000),
        shell(33.0, 525.0, 56, 120, 150_000),
    ]
    .concat()
}

fn visibility_hash(constellation: &Constellation, observers: &[Geodetic]) -> (usize, u64) {
    let mut hash = Fnv::new();
    let mut seen = 0;
    for t in [0, 3_700, 86_399].map(SimDuration::from_secs) {
        for &observer in observers {
            let views = constellation.visible_from(observer, t, 25.0);
            hash.word(views.len() as u64);
            for SatView { index, look } in &views {
                hash.word(*index as u64)
                    .word(look.elevation_deg.to_bits())
                    .word(look.range.as_f64().to_bits());
            }
            seen += views.len();
        }
    }
    (seen, hash.0)
}

#[test]
fn wiltshire_two_hour_schedule_is_frozen() {
    let shell1 = Constellation::starlink_shell1(GMST0);
    let schedule = compute_schedule(
        &shell1,
        City::Wiltshire.position(),
        SimTime::from_secs(1_000),
        SimDuration::from_hours(2),
        &SelectionPolicy::default(),
    );
    let mut hash = Fnv::new();
    for iv in &schedule.intervals {
        hash.word(iv.sat as u64)
            .word(iv.start.as_nanos())
            .word(iv.end.as_nanos());
    }
    for t in &schedule.handovers {
        hash.word(t.as_nanos());
    }
    for (from, to) in &schedule.outages {
        hash.word(from.as_nanos()).word(to.as_nanos());
    }
    assert_eq!(
        (
            schedule.intervals.len(),
            schedule.handovers.len(),
            schedule.outages.len()
        ),
        (55, 55, 12)
    );
    assert_eq!(hash.0, 0xb288_0f83_8616_7e4f);
}

#[test]
fn visible_from_elevation_and_range_bits_are_frozen() {
    let observers = [City::Wiltshire, City::Sydney, City::Seattle].map(|c| c.position());
    let shell1 = Constellation::starlink_shell1(GMST0);
    let (seen, hash) = visibility_hash(&shell1, &observers);
    assert_eq!((seen, hash), (154, 0xfe8b_5583_46a4_3c6f), "shell-1");

    let gen2 = Constellation::from_tles(&thinned_gen2(), GMST0);
    assert_eq!(gen2.len(), 2_034);
    let (seen, hash) = visibility_hash(&gen2, &observers);
    assert_eq!((seen, hash), (95, 0xf10a_e279_3e34_0ef2), "gen2");
}

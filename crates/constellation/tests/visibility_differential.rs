//! The visibility queries against the direct scan, on catalogues built to
//! break the plane and phase bounds in front of the kernel: thinned
//! Walker shells, hand-built eccentric, polar and retrograde orbits with
//! node drift, shuffled so planes interleave, and a satellite that does
//! not move. Every answer must match, bit for bit, what looking at every
//! satellite's [`Constellation::position`] gives.

use proptest::prelude::*;
use starlink_constellation::{Constellation, SatView};
use starlink_geo::{look_angles, Ecef, Geodetic};
use starlink_simcore::SimDuration;
use starlink_tle::{OrbitalElements, ShellConfig, Tle};

/// A splitmix64 stream for the catalogue and observer draws inside a case.
struct Draw(u64);

impl Draw {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }
}

/// Shell-1 with a random share of its planes and satellites.
fn thinned_shell1(d: &mut Draw) -> Vec<Tle> {
    ShellConfig {
        planes: 4 + d.below(20) as u32,
        sats_per_plane: 3 + d.below(20) as u32,
        ..ShellConfig::starlink_shell1()
    }
    .generate()
}

/// The six Gen1 + Gen2 shells, plane counts divided by eight or more.
fn thinned_gen2(d: &mut Draw) -> Vec<Tle> {
    let thin = 8 + d.below(8) as u32;
    let mut shell = |inclination_deg, altitude_km: f64, planes: u32, sats_per_plane, first| {
        ShellConfig {
            inclination_deg,
            altitude_m: altitude_km * 1_000.0,
            planes: (planes / thin).max(1),
            sats_per_plane,
            phasing: d.below(3) as u32,
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

/// Hand-built planes: any inclination from equatorial through polar to
/// retrograde, eccentricities in `e` (half of them at most 0.1, where
/// the phase bound applies), mean motions in `rev_per_day`, and a few
/// satellites per plane that share its node, inclination and shape but
/// not its phase.
fn hand_built(d: &mut Draw, e: (f64, f64), rev_per_day: (f64, f64)) -> Vec<Tle> {
    let template = ShellConfig::starlink_shell1().generate().remove(0);
    let mut tles = Vec::new();
    for _ in 0..2 + d.below(10) {
        let inclination_deg = match d.below(4) {
            0 => 0.0,
            1 => 90.0,
            2 => d.f64(90.0, 180.0),
            _ => d.f64(0.0, 180.0),
        };
        let eccentricity = if d.below(2) == 0 {
            d.f64(e.0, e.1.min(0.1))
        } else {
            d.f64(e.0, e.1)
        };
        let plane = OrbitalElements {
            inclination_deg,
            raan_deg: d.f64(0.0, 360.0),
            eccentricity,
            arg_perigee_deg: d.f64(0.0, 360.0),
            mean_motion_rev_per_day: d.f64(rev_per_day.0, rev_per_day.1),
            ..template.elements.clone()
        };
        for _ in 0..1 + d.below(8) {
            let n = tles.len() as u32;
            tles.push(Tle {
                name: format!("HAND-{n}"),
                elements: OrbitalElements {
                    catalog_number: 200_000 + n,
                    mean_anomaly_deg: d.f64(0.0, 360.0),
                    ..plane.clone()
                },
            });
        }
    }
    tles
}

/// One catalogue of the given family, maybe shuffled, maybe with a
/// satellite of zero mean motion appended (its position is not finite).
fn catalogue(family: u8, shuffle: bool, rogue: bool, d: &mut Draw) -> Vec<Tle> {
    let mut tles = match family {
        0 => thinned_shell1(d),
        1 => thinned_gen2(d),
        2 => hand_built(d, (0.0, 0.9), (11.0, 16.0)),
        // Low orbits just inside the phase bound's eccentricity: seen from
        // high elevation, a satellite near quadrature is kept by the
        // phase slack and by nothing else.
        3 => hand_built(d, (0.08, 0.1), (14.5, 16.5)),
        _ => [thinned_shell1(d), hand_built(d, (0.0, 0.9), (11.0, 16.0))].concat(),
    };
    if shuffle {
        for i in (1..tles.len()).rev() {
            tles.swap(i, d.below(i + 1));
        }
    }
    if rogue {
        let mut still = tles[d.below(tles.len())].clone();
        still.elements.mean_motion_rev_per_day = 0.0;
        tles.push(still);
    }
    tles
}

fn bits(p: Ecef) -> [u64; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

fn view_bits(v: &SatView) -> (usize, u64, u64, u64) {
    (
        v.index,
        v.look.elevation_deg.to_bits(),
        v.look.azimuth_deg.to_bits(),
        v.look.range.as_f64().to_bits(),
    )
}

/// The scan over every satellite the bounds replaced: look angles for
/// each, filtered on the mask, sorted by descending elevation then
/// ascending index.
fn direct_visible_from(
    c: &Constellation,
    observer: Geodetic,
    t: SimDuration,
    mask_deg: f64,
) -> Vec<SatView> {
    let mut views: Vec<SatView> = (0..c.len())
        .filter_map(|index| {
            let look = look_angles(observer, c.position(index, t));
            look.visible_above(mask_deg)
                .then_some(SatView { index, look })
        })
        .collect();
    views.sort_by(|a, b| {
        b.look
            .elevation_deg
            .total_cmp(&a.look.elevation_deg)
            .then(a.index.cmp(&b.index))
    });
    views
}

/// The direct scan's best: first visible satellite in index order that
/// no later one beats strictly.
fn direct_best_visible(
    c: &Constellation,
    observer: Geodetic,
    t: SimDuration,
    mask_deg: f64,
) -> Option<SatView> {
    let mut best: Option<SatView> = None;
    for index in 0..c.len() {
        let look = look_angles(observer, c.position(index, t));
        if look.visible_above(mask_deg)
            && best
                .as_ref()
                .is_none_or(|b| look.elevation_deg > b.look.elevation_deg)
        {
            best = Some(SatView { index, look });
        }
    }
    best
}

/// An observer anywhere, or near a random satellite's ground track (so
/// that something is in view, and returned with it), from the ground to
/// well above the shell.
fn observer(c: &Constellation, t: SimDuration, d: &mut Draw) -> (Geodetic, Option<usize>) {
    let (lat_deg, lon_deg, near) = match d.below(4) {
        0 => (d.f64(-90.0, 90.0), d.f64(-180.0, 180.0), None),
        1 => ([90.0, -90.0][d.below(2)], d.f64(-180.0, 180.0), None),
        _ => {
            let index = d.below(c.len());
            let under = c.position(index, t).to_geodetic();
            let w = [15.0, 3.0, 0.5][d.below(3)];
            let lat = (under.lat_deg + d.f64(-w, w)).clamp(-90.0, 90.0);
            (lat, under.lon_deg + d.f64(-w, w), Some(index))
        }
    };
    let alt_m = match d.below(3) {
        0 => 0.0,
        1 => d.f64(0.0, 600_000.0),
        _ => d.f64(0.0, 3_000_000.0),
    };
    let lat_deg = if lat_deg.is_finite() { lat_deg } else { 0.0 };
    let lon_deg = if lon_deg.is_finite() { lon_deg } else { 0.0 };
    (Geodetic::new(lat_deg, lon_deg, alt_m), near)
}

/// A mask from −5° to 89°: anywhere, or just below the elevation of the
/// satellite the observer is near (else of a random one), so that it is
/// at the edge of what the bounds may skip.
fn mask(
    c: &Constellation,
    (observer, near): (Geodetic, Option<usize>),
    t: SimDuration,
    d: &mut Draw,
) -> f64 {
    let index = near.unwrap_or_else(|| d.below(c.len()));
    let elevation = look_angles(observer, c.position(index, t)).elevation_deg;
    if d.below(4) != 0 && (-5.0..89.0).contains(&elevation) {
        elevation - d.f64(0.0, 0.01)
    } else {
        d.f64(-5.0, 89.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `visible_from`, `best_visible` and `position` on the snapshot equal
    /// the direct scan bit for bit, for every family of catalogue.
    #[test]
    fn snapshot_queries_equal_the_direct_scan(
        family in 0u8..5,
        shuffle in any::<bool>(),
        rogue in any::<bool>(),
        gmst0 in 0.0f64..std::f64::consts::TAU,
        seed in any::<u64>(),
    ) {
        let mut d = Draw(seed);
        let c = Constellation::from_tles(&catalogue(family, shuffle, rogue, &mut d), gmst0);
        for _ in 0..2 {
            // `SimDuration` is not negative: two days from the epoch.
            let t = SimDuration::from_millis(d.u64() % 172_800_000);
            let snap = c.snapshot(t);
            prop_assert_eq!(snap.len(), c.len());
            for index in 0..c.len() {
                prop_assert_eq!(
                    bits(snap.position(index)),
                    bits(c.position(index, t)),
                    "position {} at {:?}", index, t
                );
            }
            for _ in 0..4 {
                let drawn = observer(&c, t, &mut d);
                let mask = mask(&c, drawn, t, &mut d);
                let obs = drawn.0;
                let direct = direct_visible_from(&c, obs, t, mask);
                prop_assert_eq!(
                    snap.visible_from(obs, mask).iter().map(view_bits).collect::<Vec<_>>(),
                    direct.iter().map(view_bits).collect::<Vec<_>>(),
                    "visible_from {:?} mask {} at {:?}, family {}", obs, mask, t, family
                );
                prop_assert_eq!(
                    snap.best_visible(obs, mask).as_ref().map(view_bits),
                    direct_best_visible(&c, obs, t, mask).as_ref().map(view_bits),
                    "best_visible {:?} mask {} at {:?}, family {}", obs, mask, t, family
                );
            }
        }
    }
}

/// A satellite listed twice, at the first and the last index with other
/// planes between, is the same satellite: when it is the highest in the
/// sky, `best_visible` picks the first copy and `visible_from` lists the
/// first copy before the second, whichever order the planes are visited
/// in.
#[test]
fn elevation_ties_go_to_the_lowest_index_across_interleaved_planes() {
    let shell = ShellConfig {
        planes: 12,
        sats_per_plane: 8,
        ..ShellConfig::starlink_shell1()
    }
    .generate();
    let mut twin = shell[0].clone();
    twin.name = "TWIN".into();
    twin.elements.catalog_number = 99_999;
    let mut tles = shell.clone();
    tles.push(twin);
    let last = tles.len() - 1;
    let c = Constellation::from_tles(&tles, 0.4);

    for minutes in [0, 13, 47] {
        let t = SimDuration::from_mins(minutes);
        let under = c.position(0, t).to_geodetic();
        let observer = Geodetic::on_surface(under.lat_deg + 0.5, under.lon_deg);
        assert_eq!(c.position(0, t), c.position(last, t), "the copies coincide");

        let best = c
            .best_visible(observer, t, 25.0)
            .expect("a satellite overhead");
        assert_eq!(best.index, 0, "minute {minutes}");
        let views = c.visible_from(observer, t, 25.0);
        let order: Vec<usize> = views.iter().take(2).map(|v| v.index).collect();
        assert_eq!(order, [0, last], "minute {minutes}");
        assert_eq!(views[0].look, views[1].look);
    }
}

//! The constellation container and visibility queries.
//!
//! A [`Constellation`] holds the propagation kernel's columns and, fixed at
//! build, the orbit-plane table the visibility bounds read (see
//! [`crate::snapshot`]); its one-shot queries go through a
//! [`PositionSnapshot`], which propagates only what the observer could see.

use crate::snapshot::{PlaneTable, PositionSnapshot};
use starlink_geo::{look_angles, Ecef, Geodetic, LookAngles};
use starlink_simcore::SimDuration;
use starlink_tle::{BatchPropagator, Tle};

/// The default minimum elevation mask for Starlink shell-1 terminals,
/// degrees, per the SpaceX FCC filings cited by the paper.
pub const SHELL1_MIN_ELEVATION_DEG: f64 = 25.0;

/// One satellite's appearance in an observer's sky at a queried instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SatView {
    /// Index into the constellation's satellite list.
    pub index: usize,
    /// Look angles (elevation, azimuth, slant range).
    pub look: LookAngles,
}

/// A set of satellites that can be propagated and queried for visibility.
pub struct Constellation {
    /// Every satellite's name, back to back: one allocation, not one per
    /// satellite.
    names: String,
    /// Where each satellite's name ends in `names`.
    name_ends: Vec<u32>,
    catalog_numbers: Vec<u32>,
    pub(crate) propagators: BatchPropagator,
    pub(crate) planes: PlaneTable,
}

impl Constellation {
    /// Builds a constellation from TLEs, fixing the Greenwich sidereal
    /// angle at the common epoch to `gmst0_rad` (this parameter rotates
    /// the whole constellation relative to the ground, letting scenarios
    /// pin a reproducible geometry).
    pub fn from_tles(tles: &[Tle], gmst0_rad: f64) -> Self {
        let propagators = BatchPropagator::new(tles.iter().map(|tle| &tle.elements), gmst0_rad);
        let mut names = String::with_capacity(tles.iter().map(|tle| tle.name.len()).sum());
        let name_ends = tles
            .iter()
            .map(|tle| {
                names.push_str(&tle.name);
                names.len() as u32
            })
            .collect();
        Constellation {
            names,
            name_ends,
            catalog_numbers: tles.iter().map(|tle| tle.elements.catalog_number).collect(),
            planes: PlaneTable::new(&propagators),
            propagators,
        }
    }

    /// The synthetic Starlink shell-1 (1584 satellites) at a fixed phase.
    pub fn starlink_shell1(gmst0_rad: f64) -> Self {
        Self::from_tles(&starlink_tle::starlink_shell1(), gmst0_rad)
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.propagators.len()
    }

    /// Whether the constellation is empty.
    pub fn is_empty(&self) -> bool {
        self.propagators.is_empty()
    }

    /// The satellite's name (e.g. `STARLINK-217`).
    pub fn name(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |i| self.name_ends[i]);
        &self.names[start as usize..self.name_ends[index] as usize]
    }

    /// The satellite's NORAD catalogue number.
    pub fn catalog_number(&self, index: usize) -> u32 {
        self.catalog_numbers[index]
    }

    /// Earth-fixed position of satellite `index` at `t` after epoch.
    pub fn position(&self, index: usize, t: SimDuration) -> Ecef {
        self.position_at_secs(index, t.as_secs_f64())
    }

    /// Earth-fixed position at a (possibly negative) second offset.
    pub fn position_at_secs(&self, index: usize, t_secs: f64) -> Ecef {
        self.propagators.position_at_secs(index, t_secs)
    }

    /// The shared state of every satellite at `t`, to query from many
    /// observers.
    pub fn snapshot(&self, t: SimDuration) -> PositionSnapshot<'_> {
        PositionSnapshot::capture(self, t)
    }

    /// All satellites at or above `mask_deg` elevation for `observer` at
    /// `t`, sorted by descending elevation.
    ///
    /// One-shot convenience over the snapshot path; sweeps that revisit
    /// the same instant should share one [`Constellation::snapshot`]
    /// instead.
    pub fn visible_from(&self, observer: Geodetic, t: SimDuration, mask_deg: f64) -> Vec<SatView> {
        self.snapshot(t).visible_from(observer, mask_deg)
    }

    /// The highest-elevation visible satellite, if any.
    pub fn best_visible(
        &self,
        observer: Geodetic,
        t: SimDuration,
        mask_deg: f64,
    ) -> Option<SatView> {
        self.snapshot(t).best_visible(observer, mask_deg)
    }

    /// The look angles from `observer` to satellite `index` at `t`
    /// (regardless of visibility).
    pub fn look(&self, index: usize, observer: Geodetic, t: SimDuration) -> LookAngles {
        look_angles(observer, self.position(index, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_tle::ShellConfig;

    fn small_shell() -> Constellation {
        // 12 planes x 8 sats keeps tests fast while preserving coverage
        // statistics at mid-latitudes.
        Constellation::from_tles(
            &ShellConfig {
                planes: 12,
                sats_per_plane: 8,
                ..ShellConfig::starlink_shell1()
            }
            .generate(),
            0.0,
        )
    }

    #[test]
    fn construction_carries_names_and_catalog_numbers() {
        let c = small_shell();
        assert_eq!(c.len(), 96);
        assert!(!c.is_empty());
        assert_eq!(c.name(0), "STARLINK-1");
        assert_eq!(c.catalog_number(0), 44_000);
        assert_eq!(c.name(95), "STARLINK-96");
    }

    #[test]
    fn visible_sorted_by_elevation() {
        let c = Constellation::starlink_shell1(0.0);
        let obs = Geodetic::on_surface(51.5, -0.12);
        let views = c.visible_from(obs, SimDuration::from_secs(0), 25.0);
        assert!(!views.is_empty(), "full shell-1 should cover London");
        for pair in views.windows(2) {
            assert!(pair[0].look.elevation_deg >= pair[1].look.elevation_deg);
        }
        for v in &views {
            assert!(v.look.elevation_deg >= 25.0);
        }
    }

    #[test]
    fn best_visible_matches_sorted_head() {
        let c = small_shell();
        let obs = Geodetic::on_surface(51.5, -0.12);
        for minute in 0..30 {
            let t = SimDuration::from_mins(minute);
            let views = c.visible_from(obs, t, 10.0);
            let best = c.best_visible(obs, t, 10.0);
            match (views.first(), best) {
                (Some(head), Some(best)) => {
                    assert_eq!(head.index, best.index, "minute {minute}")
                }
                (None, None) => {}
                other => panic!("inconsistent visibility at minute {minute}: {other:?}"),
            }
        }
    }

    #[test]
    fn full_shell_keeps_london_covered() {
        // The paper's UK receiver always has a candidate satellite; verify
        // coverage over an hour at the full shell density.
        let c = Constellation::starlink_shell1(0.0);
        let obs = Geodetic::on_surface(51.5074, -0.1278);
        for minute in (0..60).step_by(5) {
            let t = SimDuration::from_mins(minute);
            assert!(
                c.best_visible(obs, t, SHELL1_MIN_ELEVATION_DEG).is_some(),
                "coverage gap at minute {minute}"
            );
        }
    }

    #[test]
    fn equatorial_observer_sees_fewer_high_elevation_passes() {
        // 53°-inclined shells concentrate coverage at mid-latitudes; the
        // equator is served at shallower angles on average.
        let c = Constellation::starlink_shell1(0.0);
        let london = Geodetic::on_surface(51.5, 0.0);
        let equator = Geodetic::on_surface(0.0, 0.0);
        let mut london_count = 0usize;
        let mut equator_count = 0usize;
        for minute in (0..90).step_by(3) {
            let t = SimDuration::from_mins(minute);
            london_count += c.visible_from(london, t, 40.0).len();
            equator_count += c.visible_from(equator, t, 40.0).len();
        }
        assert!(
            london_count > equator_count,
            "london {london_count} vs equator {equator_count}"
        );
    }

    #[test]
    fn look_range_within_leo_bounds_when_visible() {
        let c = small_shell();
        let obs = Geodetic::on_surface(51.5, -0.12);
        for v in c.visible_from(obs, SimDuration::from_secs(0), 25.0) {
            let km = v.look.range.as_km();
            assert!(
                (500.0..1_200.0).contains(&km),
                "visible satellite at {km} km slant range"
            );
        }
    }
}

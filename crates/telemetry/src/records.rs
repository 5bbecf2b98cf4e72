//! The anonymised records the extension uploads, and the dataset store.
//!
//! Records deliberately mirror the paper's data-management policy: a
//! random user id, the city and ISP class, the timing decomposition — and
//! nothing else. CSV export (see [`Dataset::speedtests_csv`]) matches the
//! paper's stated goal of providing datasets "that can be utilized to
//! equip LEO simulations with real-world data".

use crate::aschange::ExitAs;
use crate::population::IspClass;
use starlink_channel::WeatherCondition;
use starlink_geo::City;
use starlink_simcore::{SimTime, StreamingDigest};
use starlink_web::PttBreakdown;

/// One page-load record.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRecord {
    /// The uploader's random identifier.
    pub user: u64,
    /// City (the only location information retained).
    pub city: City,
    /// ISP class from the (discarded) IPinfo lookup.
    pub isp: IspClass,
    /// Campaign timestamp of the load.
    pub at: SimTime,
    /// Tranco-style rank of the visited site.
    pub rank: u64,
    /// The PTT decomposition, ms.
    pub ptt: PttBreakdown,
    /// Full page-load time, ms (PTT + compute share).
    pub plt_ms: f64,
    /// The exit AS in force (Starlink users only; `None` otherwise).
    pub exit_as: Option<ExitAs>,
    /// Weather at the user's site during the load.
    pub weather: WeatherCondition,
}

impl PageRecord {
    /// Total PTT, ms.
    pub fn ptt_ms(&self) -> f64 {
        self.ptt.total_ms()
    }

    /// Whether the site is "popular" under the paper's rank-200 split.
    pub fn is_popular(&self) -> bool {
        self.rank <= starlink_web::POPULAR_RANK_CUTOFF
    }
}

/// One in-extension (Libretest-style) speedtest record.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedtestRecord {
    /// The uploader's random identifier.
    pub user: u64,
    /// City name.
    pub city: City,
    /// Whether the user is a Starlink subscriber.
    pub starlink: bool,
    /// Campaign timestamp.
    pub at_secs: u64,
    /// Measured downlink, Mbps.
    pub downlink_mbps: f64,
    /// Measured uplink, Mbps.
    pub uplink_mbps: f64,
}

/// The collected dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Page-load records.
    pub pages: Vec<PageRecord>,
    /// Speedtest records.
    pub speedtests: Vec<SpeedtestRecord>,
}

/// A Table 1 row: one (city, ISP class) aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct CityAggregate {
    /// Number of page requests.
    pub requests: usize,
    /// Number of distinct domains.
    pub domains: usize,
    /// Median PTT, ms (0 if no records).
    pub median_ptt_ms: f64,
}

impl Dataset {
    /// Total records.
    pub fn len(&self) -> usize {
        self.pages.len() + self.speedtests.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.speedtests.is_empty()
    }

    /// The Table 1 aggregate for `(city, starlink?)`.
    pub fn city_aggregate(&self, city: City, starlink: bool) -> CityAggregate {
        let mut ptts: Vec<f64> = Vec::new();
        let mut ranks: Vec<u64> = Vec::new();
        for r in self
            .pages
            .iter()
            .filter(|r| r.city == city && r.isp.is_starlink() == starlink)
        {
            ptts.push(r.ptt_ms());
            ranks.push(r.rank);
        }
        ranks.sort_unstable();
        ranks.dedup();
        let median = median_of(&mut ptts);
        CityAggregate {
            requests: ptts.len(),
            domains: ranks.len(),
            median_ptt_ms: median,
        }
    }

    /// Median speedtest downlink/uplink (Mbps) for Starlink users in a
    /// city — a Table 3 cell pair.
    pub fn speedtest_medians(&self, city: City) -> (f64, f64) {
        let mut dl: Vec<f64> = Vec::new();
        let mut ul: Vec<f64> = Vec::new();
        for r in self
            .speedtests
            .iter()
            .filter(|r| r.city == city && r.starlink)
        {
            dl.push(r.downlink_mbps);
            ul.push(r.uplink_mbps);
        }
        (median_of(&mut dl), median_of(&mut ul))
    }

    /// PTT samples filtered for the Fig. 3 CDFs: Starlink users in `city`,
    /// split by popularity and exit AS.
    pub fn fig3_samples(&self, city: City, popular: bool, exit_as: ExitAs) -> Vec<f64> {
        self.pages
            .iter()
            .filter(|r| {
                r.city == city
                    && r.isp.is_starlink()
                    && r.is_popular() == popular
                    && r.exit_as == Some(exit_as)
            })
            .map(|r| r.ptt_ms())
            .collect()
    }

    /// PTT samples for the Fig. 4 weather boxes: Starlink users in `city`
    /// visiting popular (CDN-class, "google services"-like) sites under
    /// `weather`.
    pub fn fig4_samples(&self, city: City, weather: WeatherCondition) -> Vec<f64> {
        self.pages
            .iter()
            .filter(|r| {
                r.city == city && r.isp.is_starlink() && r.weather == weather && r.rank <= 500
            })
            .map(|r| r.ptt_ms())
            .collect()
    }

    /// Sorts both record vectors into the canonical order: by user, then
    /// timestamp, then the remaining fields as tie-breakers.
    ///
    /// A straight-through campaign run collects records user-major; an
    /// interrupted-and-resumed run collects them day-major. Canonical
    /// sorting erases that ordering difference, so "same seed ⇒ identical
    /// dataset" can be checked byte-for-byte with [`Dataset::digest`].
    pub(crate) fn sort_canonical(&mut self) {
        self.pages.sort_by(|a, b| {
            (
                a.user,
                a.at,
                a.rank,
                a.plt_ms.to_bits(),
                a.ptt.request_ms.to_bits(),
            )
                .cmp(&(
                    b.user,
                    b.at,
                    b.rank,
                    b.plt_ms.to_bits(),
                    b.ptt.request_ms.to_bits(),
                ))
        });
        self.speedtests.sort_by(|a, b| {
            (a.user, a.at_secs, a.downlink_mbps.to_bits()).cmp(&(
                b.user,
                b.at_secs,
                b.downlink_mbps.to_bits(),
            ))
        });
    }

    /// A 64-bit FNV-1a digest over the wire encoding of every record, in
    /// the dataset's current order. Two datasets with equal digests after
    /// `Dataset::sort_canonical` are byte-identical.
    pub fn digest(&self) -> u64 {
        let mut hash = StreamingDigest::new();
        for r in &self.pages {
            hash.absorb_bytes(&crate::wire::encode_page(r));
        }
        for r in &self.speedtests {
            hash.absorb_bytes(&crate::wire::encode_speedtest(r));
        }
        hash.absorb_u64(self.pages.len() as u64);
        hash.absorb_u64(self.speedtests.len() as u64);
        hash.value()
    }

    /// Exports the speedtest records as CSV.
    pub fn speedtests_csv(&self) -> String {
        let mut out = String::from("user,city,starlink,at_secs,downlink_mbps,uplink_mbps\n");
        for r in &self.speedtests {
            out.push_str(&format!(
                "{:016x},{},{},{},{:.1},{:.1}\n",
                r.user,
                r.city.name(),
                r.starlink,
                r.at_secs,
                r.downlink_mbps,
                r.uplink_mbps
            ));
        }
        out
    }
}

/// Median (sorts in place; 0 for empty input). Uses a total order so that
/// a stray NaN from an upstream model sorts last instead of panicking.
fn median_of(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_web::PttBreakdown;

    fn record(city: City, starlink: bool, rank: u64, ptt_ms: f64) -> PageRecord {
        let isp = if starlink {
            IspClass::Starlink
        } else {
            IspClass::NonStarlink(starlink_channel::AccessTech::Cellular)
        };
        PageRecord {
            user: 1,
            city,
            isp,
            at: SimTime::ZERO,
            rank,
            ptt: PttBreakdown {
                request_ms: ptt_ms,
                ..PttBreakdown::default()
            },
            plt_ms: ptt_ms + 100.0,
            exit_as: starlink.then_some(ExitAs::Google),
            weather: WeatherCondition::ClearSky,
        }
    }

    #[test]
    fn city_aggregate_counts_and_medians() {
        let mut ds = Dataset::default();
        for (rank, ptt) in [(1, 100.0), (2, 300.0), (1, 200.0)] {
            ds.pages.push(record(City::London, true, rank, ptt));
        }
        ds.pages.push(record(City::London, false, 9, 999.0));
        ds.pages.push(record(City::Seattle, true, 1, 50.0));

        let agg = ds.city_aggregate(City::London, true);
        assert_eq!(agg.requests, 3);
        assert_eq!(agg.domains, 2);
        assert_eq!(agg.median_ptt_ms, 200.0);

        let non = ds.city_aggregate(City::London, false);
        assert_eq!(non.requests, 1);
        assert_eq!(non.median_ptt_ms, 999.0);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let ds = Dataset::default();
        let agg = ds.city_aggregate(City::Warsaw, true);
        assert_eq!(agg.requests, 0);
        assert_eq!(agg.median_ptt_ms, 0.0);
        assert!(ds.is_empty());
    }

    #[test]
    fn fig3_filter_selects_correct_slice() {
        let mut ds = Dataset::default();
        ds.pages.push(record(City::Sydney, true, 100, 10.0)); // popular
        ds.pages.push(record(City::Sydney, true, 5_000, 20.0)); // unpopular
        ds.pages.push(record(City::Sydney, false, 100, 30.0)); // non-starlink
        let popular = ds.fig3_samples(City::Sydney, true, ExitAs::Google);
        assert_eq!(popular, vec![10.0]);
        let unpopular = ds.fig3_samples(City::Sydney, false, ExitAs::Google);
        assert_eq!(unpopular, vec![20.0]);
        assert!(ds
            .fig3_samples(City::Sydney, true, ExitAs::SpaceX)
            .is_empty());
    }

    #[test]
    fn speedtest_median_and_csv() {
        let mut ds = Dataset::default();
        for (dl, ul) in [(100.0, 10.0), (120.0, 12.0), (140.0, 11.0)] {
            ds.speedtests.push(SpeedtestRecord {
                user: 7,
                city: City::London,
                starlink: true,
                at_secs: 0,
                downlink_mbps: dl,
                uplink_mbps: ul,
            });
        }
        let (dl, ul) = ds.speedtest_medians(City::London);
        assert_eq!(dl, 120.0);
        assert_eq!(ul, 11.0);
        let csv = ds.speedtests_csv();
        assert!(csv.starts_with("user,city,"));
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("London"));
    }

    #[test]
    fn canonical_sort_and_digest_erase_collection_order() {
        let mut a = Dataset::default();
        let mut b = Dataset::default();
        let r1 = record(City::London, true, 1, 100.0);
        let mut r2 = record(City::Seattle, true, 2, 200.0);
        r2.user = 9;
        a.pages = vec![r1.clone(), r2.clone()];
        b.pages = vec![r2, r1];
        assert_ne!(a.digest(), b.digest(), "order must matter pre-sort");
        a.sort_canonical();
        b.sort_canonical();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.pages, b.pages);
    }

    /// The digest absorbs each record's encoding as it is made; FNV-1a is
    /// bytewise, so the value is the one hashing the whole dataset's
    /// encoding in one buffer gave (pinned from that code).
    #[test]
    fn digest_keeps_the_whole_buffer_value() {
        let mut ds = Dataset::default();
        for i in 0..5u64 {
            ds.pages.push(PageRecord {
                user: 0x5EED_0000 + i,
                city: City::ALL[i as usize % City::ALL.len()],
                isp: if i % 2 == 0 {
                    IspClass::Starlink
                } else {
                    IspClass::NonStarlink(starlink_channel::AccessTech::Cellular)
                },
                at: SimTime::from_secs(86_400 * i + 7),
                rank: 10 + i * 331,
                ptt: PttBreakdown {
                    redirect_ms: 0.5 * i as f64,
                    dns_ms: 20.25,
                    connect_ms: 31.0 + i as f64,
                    tls_ms: 40.0,
                    request_ms: 100.125,
                    response_ms: 60.5,
                },
                plt_ms: 900.0 + i as f64,
                exit_as: match i % 3 {
                    0 => None,
                    1 => Some(ExitAs::Google),
                    _ => Some(ExitAs::SpaceX),
                },
                weather: WeatherCondition::ALL[i as usize % WeatherCondition::ALL.len()],
            });
        }
        for i in 0..3u64 {
            ds.speedtests.push(SpeedtestRecord {
                user: 0x5EED_0000 + i,
                city: City::ALL[(i as usize * 3) % City::ALL.len()],
                starlink: i != 1,
                at_secs: 1_000 + i,
                downlink_mbps: 101.5 + i as f64,
                uplink_mbps: 11.25,
            });
        }
        assert_eq!(ds.digest(), 0xd413_7dae_d914_3888);
        assert_eq!(Dataset::default().digest(), 0x8820_1fb9_60ff_6465);
    }

    #[test]
    fn digest_distinguishes_datasets() {
        let mut a = Dataset::default();
        a.pages.push(record(City::London, true, 1, 100.0));
        let mut b = a.clone();
        b.pages[0].plt_ms += 0.000_001;
        assert_ne!(a.digest(), b.digest());
        assert_ne!(Dataset::default().digest(), a.digest());
    }
}

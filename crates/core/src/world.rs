//! World builders: the measurement topologies of the paper.

use crate::dynamics::{
    pipe_delay_track, Direction, StarlinkLinkDynamics, TerrestrialQueueDynamics,
};
use starlink_channel::{AccessTech, NodeProfile, WeatherCondition, WeatherTimeline};
use starlink_constellation::{
    compute_schedule, BentPipe, Constellation, SelectionPolicy, ServingSchedule,
};
use starlink_geo::{haversine_distance, City, Geodetic};
use starlink_netsim::{LinkConfig, Network, NodeId, NodeKind};
use starlink_simcore::{Bytes, DataRate, SimDuration, SimRng, SimTime};

/// Weather specification for a world.
#[derive(Debug, Clone, Copy)]
pub enum WeatherSpec {
    /// Pin one condition for the whole window (controlled experiments).
    Constant(WeatherCondition),
    /// Generate a Markov timeline with the given persistence.
    Generated {
        /// Hour-to-hour persistence probability.
        persistence: f64,
    },
}

/// Configuration for a volunteer-node world.
#[derive(Debug, Clone)]
pub struct NodeWorldConfig {
    /// Which volunteer node (North Carolina, Wiltshire or Barcelona).
    pub city: City,
    /// Master seed.
    pub seed: u64,
    /// Analysis window length (the world precomputes constellation state
    /// for this span).
    pub window: SimDuration,
    /// Weather handling.
    pub weather: WeatherSpec,
}

impl NodeWorldConfig {
    /// A sensible default: the Wiltshire node, one hour, generated
    /// weather.
    pub fn new(city: City, seed: u64) -> Self {
        NodeWorldConfig {
            city,
            seed,
            window: SimDuration::from_hours(1),
            weather: WeatherSpec::Generated { persistence: 0.85 },
        }
    }
}

/// A volunteer measurement node (§3.2): RPi host behind a Starlink dish,
/// bent pipe to the regional PoP, metro fibre to the closest Google Cloud
/// region hosting the test server.
///
/// Topology (hop numbers as traceroute sees them):
///
/// ```text
/// node ── dishy(1) ══ bent pipe ══ pop(2) ── metro(3) ── edge(4) ── server(5)
/// ```
pub struct NodeWorld {
    /// The packet network (borrow it mutably to run tools).
    pub net: Network,
    /// The RPi host.
    pub node: NodeId,
    /// The dish/router (hop 1).
    pub dishy: NodeId,
    /// The Starlink PoP across the bent pipe (hop 2).
    pub pop: NodeId,
    /// Metro transit (hop 3).
    pub metro: NodeId,
    /// Cloud edge (hop 4).
    pub edge: NodeId,
    /// The test server VM (hop 5).
    pub server: NodeId,
    /// The serving-satellite schedule over the window.
    pub schedule: ServingSchedule,
    /// The node's channel profile.
    pub profile: NodeProfile,
    /// The weather timeline in force.
    pub weather: WeatherTimeline,
    /// The constellation this world was built against (kept for
    /// dish-status queries and further analysis).
    pub constellation: Constellation,
    /// The terminal's position.
    pub position: starlink_geo::Geodetic,
    /// The gateway ground-station position.
    pub gateway: starlink_geo::Geodetic,
}

impl NodeWorld {
    /// Builds the world, precomputing constellation state over the
    /// configured window.
    pub fn build(config: &NodeWorldConfig) -> NodeWorld {
        let root = SimRng::seed_from(config.seed);
        let profile = NodeProfile::for_node(config.city);
        let position = config.city.position();

        // Rotate the constellation to a seed-specific phase so different
        // seeds see different pass geometries.
        let gmst0 = root.stream("gmst").f64_of();
        let constellation = Constellation::starlink_shell1(gmst0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(1),
            ..SelectionPolicy::default()
        };
        let schedule = compute_schedule(
            &constellation,
            position,
            SimTime::ZERO,
            config.window,
            &policy,
        );

        // The gateway sits a few hundred km from the user (the paper:
        // "down to a data centre location nearby").
        let gateway = gateway_near(position);
        let pipe = BentPipe::new(&constellation, position, gateway);

        let weather = match config.weather {
            WeatherSpec::Constant(c) => {
                WeatherTimeline::constant(c, config.window.max(SimDuration::from_hours(1)))
            }
            WeatherSpec::Generated { persistence } => WeatherTimeline::generate(
                &mut root.stream("weather"),
                config.window.max(SimDuration::from_hours(1)),
                persistence,
            ),
        };

        let mut net = Network::new(config.seed);
        let node = net.add_node("rpi", NodeKind::Host);
        let dishy = net.add_node("dishy", NodeKind::Router);
        let pop = net.add_node("starlink-pop", NodeKind::Router);
        let metro = net.add_node("metro-transit", NodeKind::Router);
        let edge = net.add_node("cloud-edge", NodeKind::Router);
        let server = net.add_node("test-server", NodeKind::Host);

        // LAN to the dish.
        net.connect_duplex(node, dishy, LinkConfig::ethernet(), LinkConfig::ethernet());

        // The bent pipe, direction-specific dynamics on one delay track.
        let delays = pipe_delay_track(&schedule, &pipe, SimTime::ZERO, config.window);
        let up = StarlinkLinkDynamics::with_pipe_delays(
            profile.clone(),
            weather.clone(),
            &schedule,
            delays.clone(),
            SimTime::ZERO,
            Direction::Up,
            root.stream("sl.up"),
            root.stream("sl.loss.up"),
        );
        let down = StarlinkLinkDynamics::with_pipe_delays(
            profile.clone(),
            weather.clone(),
            &schedule,
            delays,
            SimTime::ZERO,
            Direction::Down,
            root.stream("sl.down"),
            root.stream("sl.loss.down"),
        );
        // Queue sizes reflect Starlink's measured bufferbloat (hundreds of
        // milliseconds at full rate on the downlink).
        net.connect_duplex(
            dishy,
            pop,
            LinkConfig::dynamic(Box::new(up)).with_queue(Bytes::from_kb(512)),
            LinkConfig::dynamic(Box::new(down)).with_queue(Bytes::from_mb(3)),
        );

        // PoP -> metro: short fat fibre.
        net.connect_duplex(
            pop,
            metro,
            LinkConfig::fixed(SimDuration::from_millis(1), DataRate::from_gbps(10), 0.0),
            LinkConfig::fixed(SimDuration::from_millis(1), DataRate::from_gbps(10), 0.0),
        );

        // Metro -> cloud edge: distance-based fibre with terrestrial
        // queueing (the "whole path minus bent pipe" share of Table 2).
        let dc = config.city.closest_cloud();
        let fibre_delay = haversine_distance(position, dc.position())
            .fiber_delay()
            // Fibre routes are never great-circle straight.
            .mul_f64(1.4)
            .max(SimDuration::from_millis(2));
        let t1 = TerrestrialQueueDynamics::new(
            profile.clone(),
            fibre_delay,
            DataRate::from_gbps(10),
            root.stream("terrestrial.out"),
        );
        let t2 = TerrestrialQueueDynamics::new(
            profile.clone(),
            fibre_delay,
            DataRate::from_gbps(10),
            root.stream("terrestrial.back"),
        );
        net.connect_duplex(
            metro,
            edge,
            LinkConfig::dynamic(Box::new(t1)),
            LinkConfig::dynamic(Box::new(t2)),
        );

        // Edge -> server: in-DC hop.
        net.connect_duplex(
            edge,
            server,
            LinkConfig::fixed(SimDuration::from_micros(200), DataRate::from_gbps(10), 0.0),
            LinkConfig::fixed(SimDuration::from_micros(200), DataRate::from_gbps(10), 0.0),
        );

        net.route_linear(&[node, dishy, pop, metro, edge, server]);

        NodeWorld {
            net,
            node,
            dishy,
            pop,
            metro,
            edge,
            server,
            schedule,
            profile,
            weather,
            constellation,
            position,
            gateway,
        }
    }

    /// A text rendering of the topology (the reproduction's Fig. 2).
    pub fn topology_diagram(&self) -> String {
        let mut out = String::new();
        out.push_str("volunteer measurement node (paper Fig. 2):\n\n");
        out.push_str("  [rpi] --lan-- [dishy] ==bent pipe== [starlink-pop]\n");
        out.push_str("      --fibre-- [metro-transit] --fibre-- [cloud-edge] -- [test-server]\n\n");
        out.push_str(&format!(
            "  serving intervals: {}, handovers: {}, outage total: {}\n",
            self.schedule.intervals.len(),
            self.schedule.handovers.len(),
            self.schedule.total_outage(),
        ));
        out
    }
}

/// Places the gateway ground station ~300-500 km from the user, the
/// typical dish→gateway anchoring distance in 2022 deployments.
fn gateway_near(user: Geodetic) -> Geodetic {
    // Offset ~3.5 degrees west (≈ 300-400 km at mid-latitudes).
    Geodetic::on_surface(user.lat_deg - 1.2, user.lon_deg - 4.0)
}

/// The Fig. 5 comparison world: one London vantage with Starlink,
/// broadband and cellular access chains converging on the London IXP and
/// continuing over the Atlantic to an N. Virginia VM.
///
/// Hop numbering per access chain (matching the paper's x-axis, 9 hops):
///
/// ```text
/// client → home(1) → access(2) → metro(3) → LondonIEX(4) → transit(5)
///        → transatlantic(6) → us-edge(7) → dc(8) → vm(9)
/// ```
pub(crate) struct Fig5World {
    /// The packet network.
    pub net: Network,
    /// Per-technology client hosts, in [`Fig5World::TECHS`] order.
    pub clients: Vec<NodeId>,
    /// The destination VM.
    pub vm: NodeId,
}

impl Fig5World {
    /// The access technologies compared, in the paper's legend order.
    pub const TECHS: [AccessTech; 3] = [
        AccessTech::Starlink,
        AccessTech::CableBroadband,
        AccessTech::Cellular,
    ];

    /// Builds the comparison world.
    pub fn build(seed: u64, window: SimDuration) -> Fig5World {
        let root = SimRng::seed_from(seed);
        let london = City::London.position();
        let profile = NodeProfile::for_node(City::Wiltshire);

        let gmst0 = root.stream("gmst").f64_of();
        let constellation = Constellation::starlink_shell1(gmst0);
        let policy = SelectionPolicy {
            sample_step: SimDuration::from_secs(1),
            ..SelectionPolicy::default()
        };
        let schedule = compute_schedule(&constellation, london, SimTime::ZERO, window, &policy);
        let gateway = gateway_near(london);
        let pipe = BentPipe::new(&constellation, london, gateway);
        // Every Starlink access link shares one delay track.
        let delays = pipe_delay_track(&schedule, &pipe, SimTime::ZERO, window);
        let weather = WeatherTimeline::constant(
            WeatherCondition::FewClouds,
            window.max(SimDuration::from_hours(1)),
        );

        let mut net = Network::new(seed);

        // Shared long-haul spine: IXP -> transit -> transatlantic -> US.
        let iex = net.add_node("LondonIEX", NodeKind::Router);
        let transit = net.add_node("transit-london", NodeKind::Router);
        let atlantic = net.add_node("nyc-landing", NodeKind::Router);
        let us_edge = net.add_node("us-east-edge", NodeKind::Router);
        let dc = net.add_node("ashburn-dc", NodeKind::Router);
        let vm = net.add_node("nvirginia-vm", NodeKind::Host);

        let fat = |delay_ms: u64| {
            LinkConfig::fixed(
                SimDuration::from_millis(delay_ms),
                DataRate::from_gbps(10),
                0.0,
            )
        };
        net.connect_duplex(iex, transit, fat(1), fat(1));
        // London -> NYC subsea: ~5570 km of fibre => ~28 ms one way + slack.
        net.connect_duplex(transit, atlantic, fat(33), fat(33));
        net.connect_duplex(atlantic, us_edge, fat(4), fat(4));
        net.connect_duplex(us_edge, dc, fat(2), fat(2));
        net.connect_duplex(dc, vm, fat(1), fat(1));

        let mut clients = Vec::new();
        let mut chains: Vec<Vec<NodeId>> = Vec::new();

        for (i, tech) in Self::TECHS.iter().enumerate() {
            let label = tech.label().to_lowercase().replace(' ', "-");
            let client = net.add_node(&format!("{label}-client"), NodeKind::Host);
            let home = net.add_node(&format!("{label}-home"), NodeKind::Router);
            let access = net.add_node(
                &match tech {
                    AccessTech::Starlink => "starlink-pop".to_string(),
                    AccessTech::Cellular => "ran-core".to_string(),
                    _ => format!("{label}-isp"),
                },
                NodeKind::Router,
            );
            let metro = net.add_node(&format!("{label}-metro"), NodeKind::Router);

            // Client -> home router.
            net.connect_duplex(client, home, LinkConfig::ethernet(), LinkConfig::ethernet());

            // Home -> access: the technology-specific segment.
            match tech {
                AccessTech::Starlink => {
                    let up = StarlinkLinkDynamics::with_pipe_delays(
                        profile.clone(),
                        weather.clone(),
                        &schedule,
                        delays.clone(),
                        SimTime::ZERO,
                        Direction::Up,
                        root.stream("f5.up").substream(i as u64),
                        root.stream("f5.loss.up").substream(i as u64),
                    );
                    let down = StarlinkLinkDynamics::with_pipe_delays(
                        profile.clone(),
                        weather.clone(),
                        &schedule,
                        delays.clone(),
                        SimTime::ZERO,
                        Direction::Down,
                        root.stream("f5.down").substream(i as u64),
                        root.stream("f5.loss.down").substream(i as u64),
                    );
                    net.connect_duplex(
                        home,
                        access,
                        LinkConfig::dynamic(Box::new(up)),
                        LinkConfig::dynamic(Box::new(down)),
                    );
                }
                other => {
                    let p = other.profile();
                    // Median access one-way delay from the profile; jitter
                    // comes from serialisation and the simulator's queues.
                    let one_way = SimDuration::from_millis_f64(p.access_ms.mean().max(1.0) / 2.0);
                    let mk = |rate: DataRate| {
                        LinkConfig::fixed(one_way, rate, p.base_loss)
                            .with_queue(Bytes::from_kb(256))
                    };
                    net.connect_duplex(home, access, mk(p.uplink), mk(p.downlink));
                }
            }

            // Access -> metro -> IXP.
            net.connect_duplex(access, metro, fat(1), fat(1));
            net.connect_duplex(metro, iex, fat(1), fat(1));

            clients.push(client);
            chains.push(vec![client, home, access, metro]);
        }

        // Routes: each chain is linear into the shared spine.
        let spine = [iex, transit, atlantic, us_edge, dc, vm];
        for chain in &chains {
            let mut path: Vec<NodeId> = chain.clone();
            path.extend_from_slice(&spine);
            net.route_linear(&path);
        }

        Fig5World { net, clients, vm }
    }
}

/// Small extension trait: first `f64` of a fresh stream (used for GMST
/// phases).
trait F64Of {
    fn f64_of(self) -> f64;
}

impl F64Of for SimRng {
    fn f64_of(mut self) -> f64 {
        self.f64() * std::f64::consts::TAU
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_netsim::Payload;

    #[test]
    fn node_world_builds_and_pings() {
        let mut world = NodeWorld::build(&NodeWorldConfig {
            city: City::Wiltshire,
            seed: 3,
            window: SimDuration::from_mins(10),
            weather: WeatherSpec::Constant(WeatherCondition::ClearSky),
        });
        // Ping the server repeatedly; most should return with a sane RTT.
        let mut got = 0;
        for i in 0..20 {
            world.net.run_until(SimTime::from_secs(i * 5));
            world.net.send_packet(
                world.node,
                world.server,
                Bytes::new(64),
                64,
                Payload::EchoRequest { probe: i },
            );
        }
        world.net.run_until(SimTime::from_secs(120));
        for (at, pkt) in world.net.drain_mailbox(world.node) {
            if let Payload::EchoReply { .. } = pkt.payload {
                got += 1;
                let rtt = at.since(pkt.sent_at).as_millis_f64();
                // Hmm: sent_at is the reply's send time; skip RTT check
                // here — covered by the traceroute tests.
                let _ = rtt;
            }
        }
        assert!(got >= 15, "only {got}/20 pings returned");
    }

    #[test]
    fn node_world_rtt_in_starlink_band() {
        let mut world = NodeWorld::build(&NodeWorldConfig {
            city: City::Barcelona,
            seed: 4,
            window: SimDuration::from_mins(10),
            weather: WeatherSpec::Constant(WeatherCondition::ClearSky),
        });
        let opts = starlink_tools::TracerouteOptions {
            max_ttl: 8,
            probes_per_hop: 5,
            ..Default::default()
        };
        let result = starlink_tools::traceroute(&mut world.net, world.node, world.server, &opts);
        assert!(result.reached);
        assert_eq!(result.hop_count(), Some(5));
        // The PoP hop (2) carries the bent pipe: RTT well above the LAN
        // hop but below 150 ms for lightly-loaded Barcelona.
        let pop = result.hops[1].mean_rtt_ms().expect("pop answered");
        assert!((5.0..150.0).contains(&pop), "pop rtt {pop}");
        let server = result.hops[4].mean_rtt_ms().expect("server answered");
        assert!(server >= pop * 0.8, "path rtt {server} vs pop {pop}");
    }

    #[test]
    fn fig5_world_reaches_vm_via_nine_hops() {
        let mut world = Fig5World::build(5, SimDuration::from_mins(10));
        for (i, &client) in world.clients.clone().iter().enumerate() {
            let result = starlink_tools::traceroute(
                &mut world.net,
                client,
                world.vm,
                &starlink_tools::TracerouteOptions {
                    max_ttl: 12,
                    probes_per_hop: 3,
                    ..Default::default()
                },
            );
            assert!(result.reached, "tech {i} never reached the VM");
            assert_eq!(result.hop_count(), Some(9), "tech {i}");
        }
    }

    #[test]
    fn topology_diagram_mentions_the_parts() {
        let world = NodeWorld::build(&NodeWorldConfig {
            city: City::NorthCarolina,
            seed: 6,
            window: SimDuration::from_mins(5),
            weather: WeatherSpec::Constant(WeatherCondition::FewClouds),
        });
        let d = world.topology_diagram();
        assert!(d.contains("bent pipe"));
        assert!(d.contains("handovers"));
    }
}

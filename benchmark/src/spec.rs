//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric each one is expected to move. `BENCHMARK.json` at
//! the repo root is generated from these tables (`slbench manifest`).

use starlink_simtest::json::Json;

/// Seconds a run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// A run never reports from fewer timed repeats than this, whatever
/// `--seconds` says: best-of needs a few draws to shed one-sided noise.
pub const MIN_REPEATS: usize = 5;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload.
pub struct WorkloadSpec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// What `units_per_s` counts on this workload.
    pub unit: &'static str,
    /// Fixed input size of one repeat.
    pub size: &'static str,
    /// Why the workload exists (one line, at most 200 characters).
    pub why: &'static str,
}

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "bulk_flows",
        unit: "simulated payload MB delivered",
        size: "Starlink path (slot 10:00): UDP 3 s + 6 CCs x TCP 5 s; Wi-Fi path: UDP 3 s + 6 CCs x TCP 3 s",
        why: "Few fat flows (Fig. 8 in miniature): netsim per-packet path, transport per-ACK path, channel dynamics on every bent-pipe packet; constellation only in setup_s.",
    },
    WorkloadSpec {
        name: "many_flows",
        unit: "simulated payload MB acknowledged",
        size: "3 shared-droptail cells of 256/128/64 mixed-CC flows, 30 simulated s each",
        why: "Hundreds of thin flows on a contended queue: same simcore/netsim/transport code, large timer population and drops; no channel, no constellation.",
    },
    WorkloadSpec {
        name: "constellation_sweep",
        unit: "observer-instants answered",
        size: "shell-1: 12 observers x 2 h schedule, single then lockstep, + 12 x 400 visibility; 16k-sat Gen2: 12 x 100",
        why: "Only tle/geo/constellation work, cache-hostile and cache-friendly sweeps, no packet moves: orbit-math changes show here and nowhere else.",
    },
    WorkloadSpec {
        name: "population_campaign",
        unit: "user-days simulated",
        size: "1 M users, 120 cities, 4 days at 2 workers, checkpoint + resume after day 2",
        why: "North-star scale: telemetry scale/shard columns, the only multi-threaded path, with checkpoint write and resume read beside the day loop.",
    },
    WorkloadSpec {
        name: "collector_ingest",
        unit: "frames offered",
        size: "1000 sessions x 30 rounds of 22-page BATCH frames; 70/15/10/5 fresh/re-upload/double-send/bit-flip",
        why: "Protocol and admission core on one thread: wire/slcs/server/ingest/checkpoint with 30% of traffic leaving the accept path, virtual-time token buckets.",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Who cares.
    pub meaning: &'static str,
}

/// The gated end-to-end metrics; every workload reports all of them.
///
/// Failed operations and digest drift between repeats are not listed:
/// their bound is "exactly zero", which a share of a median cannot
/// express, so they travel as `failed` / `correct` in the result line
/// and fail the run outright.
pub const END_TO_END: [EndToEndSpec; 3] = [
    EndToEndSpec {
        name: "units_per_s",
        unit: "units/s",
        better: Better::Higher,
        bound: 0.15,
        meaning: "work completed per host second at the workload's fixed input size (best repeat)",
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        meaning: "building one repeat's inputs before its timed region (fastest set-up of the run)",
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        meaning: "memory high-water mark (VmHWM) of the process that ran the workload",
    },
];

/// One per-layer metric; the layer is the name's prefix.
pub struct LayerSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move (`-` for none).
    pub moves: &'static str,
    /// The workloads that report it; elsewhere it reads 0.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

const PACKET: &str = "bulk_flows many_flows";
const BULK: &str = "bulk_flows";
const MANY: &str = "many_flows";
const SWEEP: &str = "constellation_sweep";
const POP: &str = "population_campaign";
const INGEST: &str = "collector_ingest";
const RATE: &str = "units_per_s";
const SETUP: &str = "setup_s";

/// Every per-layer metric of the traced run.
pub const PER_LAYER: [LayerSpec; 72] = [
    layer("bench.trace_overhead_share", "share", Lower, "-", "all"),
    layer("bench.harness_self_s", "s", Lower, "-", "all"),
    layer("core.world_build_ms", "ms", Lower, SETUP, BULK),
    layer("tools.iperf_busy_s", "s", Lower, RATE, BULK),
    layer("simtest.fairness_cell_ms", "ms", Lower, RATE, MANY),
    layer("simcore.events_popped", "count", Lower, RATE, PACKET),
    layer("simcore.queue_high_watermark", "count", Lower, RATE, PACKET),
    layer("simcore.ns_per_event", "ns", Lower, RATE, PACKET),
    layer("simcore.queue_churn_ns_per_op", "ns", Lower, RATE, PACKET),
    layer("netsim.forward_ns_per_pkt_60B", "ns", Lower, RATE, PACKET),
    layer("netsim.forward_ns_per_pkt_1200B", "ns", Lower, RATE, PACKET),
    layer("netsim.link_enqueued", "count", Lower, RATE, PACKET),
    layer("netsim.link_dropped_loss", "count", Lower, RATE, PACKET),
    layer("netsim.link_dropped_queue", "count", Lower, RATE, PACKET),
    layer(
        "netsim.arena_high_watermark",
        "count",
        Lower,
        "peak_rss_mb",
        PACKET,
    ),
    layer("transport.segments_sent", "count", Lower, RATE, PACKET),
    layer("transport.retransmissions", "count", Lower, RATE, PACKET),
    layer("transport.rtos", "count", Lower, RATE, PACKET),
    layer("transport.retransmit_share", "share", Lower, RATE, PACKET),
    layer(
        "transport.cc.reno.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer(
        "transport.cc.cubic.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer(
        "transport.cc.bbr.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer(
        "transport.cc.bbr2.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer(
        "transport.cc.vegas.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer(
        "transport.cc.veno.host_ms_per_sim_s",
        "ms",
        Lower,
        RATE,
        BULK,
    ),
    layer("channel.dynamics_ns_per_query", "ns", Lower, RATE, BULK),
    layer("tle.shell_generate_us_per_sat", "us", Lower, SETUP, SWEEP),
    layer("tle.propagate_ns_per_position", "ns", Lower, RATE, SWEEP),
    layer("geo.look_ns_per_call", "ns", Lower, RATE, SWEEP),
    layer("constellation.build_us", "us", Lower, SETUP, SWEEP),
    layer(
        "constellation.snapshot_ns_per_sat",
        "ns",
        Lower,
        RATE,
        SWEEP,
    ),
    layer("constellation.visible_from_us", "us", Lower, RATE, SWEEP),
    layer(
        "constellation.visible_from_gen2_us",
        "us",
        Lower,
        RATE,
        SWEEP,
    ),
    layer(
        "constellation.schedule_ms_per_obs_hour",
        "ms",
        Lower,
        RATE,
        "constellation_sweep bulk_flows(setup_s)",
    ),
    layer(
        "constellation.lockstep_ms_per_obs_hour",
        "ms",
        Lower,
        RATE,
        SWEEP,
    ),
    layer(
        "constellation.snapshot_cache_hits",
        "count",
        Higher,
        RATE,
        SWEEP,
    ),
    layer(
        "constellation.snapshot_cache_misses",
        "count",
        Lower,
        RATE,
        SWEEP,
    ),
    layer(
        "constellation.snapshot_cache_hit_share",
        "share",
        Higher,
        RATE,
        SWEEP,
    ),
    layer("constellation.handovers", "count", Lower, "-", SWEEP),
    layer(
        "telemetry.scale.catalog_generate_ms",
        "ms",
        Lower,
        SETUP,
        POP,
    ),
    layer(
        "telemetry.scale.population_generate_ms",
        "ms",
        Lower,
        SETUP,
        POP,
    ),
    layer("telemetry.shard.run_day_ms", "ms", Lower, RATE, POP),
    layer("telemetry.shard.run_day_jobs1_ms", "ms", Lower, RATE, POP),
    layer(
        "telemetry.shard.parallel_efficiency",
        "share",
        Higher,
        RATE,
        POP,
    ),
    layer("telemetry.shard.ns_per_user_day", "ns", Lower, RATE, POP),
    layer(
        "telemetry.shard.generated_records",
        "count",
        Higher,
        "-",
        POP,
    ),
    layer("telemetry.shard.checkpoint_ms", "ms", Lower, RATE, POP),
    layer("telemetry.shard.resume_ms", "ms", Lower, RATE, POP),
    layer(
        "telemetry.shard.checkpoint_mb",
        "MB",
        Lower,
        "peak_rss_mb",
        POP,
    ),
    layer("telemetry.shard.render_ms", "ms", Lower, RATE, POP),
    layer(
        "telemetry.wire.encode_ns_per_record",
        "ns",
        Lower,
        SETUP,
        INGEST,
    ),
    layer(
        "telemetry.wire.decode_ns_per_record",
        "ns",
        Lower,
        RATE,
        INGEST,
    ),
    layer("telemetry.wire.crc32_ns_per_kb", "ns", Lower, RATE, INGEST),
    layer(
        "telemetry.slcs.encode_ns_per_frame",
        "ns",
        Lower,
        SETUP,
        INGEST,
    ),
    layer(
        "telemetry.slcs.decode_ns_per_frame",
        "ns",
        Lower,
        RATE,
        INGEST,
    ),
    layer(
        "telemetry.ingest.submit_ns_per_batch",
        "ns",
        Lower,
        RATE,
        INGEST,
    ),
    layer("telemetry.server.accept_ns", "ns", Lower, RATE, INGEST),
    layer("telemetry.server.duplicate_ns", "ns", Lower, RATE, INGEST),
    layer("telemetry.server.throttled_ns", "ns", Lower, RATE, INGEST),
    layer("telemetry.server.badframe_ns", "ns", Lower, RATE, INGEST),
    layer("telemetry.server.hello_ns", "ns", Lower, RATE, INGEST),
    layer("telemetry.server.handle_p99_us", "us", Lower, RATE, INGEST),
    layer("telemetry.server.accepted", "count", Higher, "-", INGEST),
    layer("telemetry.server.duplicates", "count", Lower, "-", INGEST),
    layer(
        "telemetry.server.shed_throttled",
        "count",
        Lower,
        "-",
        INGEST,
    ),
    layer(
        "telemetry.server.shed_badframe",
        "count",
        Lower,
        "-",
        INGEST,
    ),
    layer(
        "telemetry.server.useful_share",
        "share",
        Higher,
        "-",
        INGEST,
    ),
    layer("telemetry.checkpoint.encode_ms", "ms", Lower, RATE, INGEST),
    layer("telemetry.checkpoint.decode_ms", "ms", Lower, RATE, INGEST),
    layer(
        "telemetry.checkpoint.mb",
        "MB",
        Lower,
        "peak_rss_mb",
        INGEST,
    ),
    layer(
        "telemetry.storage.store_us_per_blob",
        "us",
        Lower,
        "-",
        INGEST,
    ),
    layer("telemetry.storage.recover_us", "us", Lower, "-", INGEST),
];

/// Whether `name` fits the contract: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let body_ok = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
    let head_ok = name
        .bytes()
        .next()
        .is_some_and(|b| b.is_ascii_alphanumeric());
    head_ok && body_ok && name.len() <= 64
}

/// Whether `unit` fits the contract: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = unit
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'));
    ok && (1..=16).contains(&unit.len())
}

/// A JSON number from a float, with all its digits.
pub fn num(v: f64) -> Json {
    assert!(v.is_finite(), "metric values must be finite");
    Json::Num(format!("{v}"))
}

/// The content of `BENCHMARK.json`, pretty-printed one entry per line.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect()).render();
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .render()
    };
    let block = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));

    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(&command),
        strs(&["benchmark"]),
        RUN_SECONDS,
        block(workloads),
        block(end_to_end),
        block(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_charsets() {
        for good in [
            "units_per_s",
            "netsim.forward_ns_per_pkt_60B",
            "p99-us",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/name",
            "pct%",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "1/s", "units/s", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "host seconds", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `slbench manifest`");
        let parsed = starlink_simtest::json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = match &parsed {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}

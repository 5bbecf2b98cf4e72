//! The clocks around a workload: untimed warm-up, timed repeats, the
//! traced run, and the reports both produce.

use crate::spec::{self, num, END_TO_END, MIN_REPEATS, PER_LAYER};
use crate::stats;
use crate::trace::{Trace, Tracer};
use crate::workloads::{Checked, Layers, Workload};
use starlink_core::obsv;
use starlink_simtest::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Repeats beyond which a run stops even if `--seconds` is not used up.
const MAX_REPEATS: usize = 64;
/// `max / min` of a run's `wall_s` above which the run is flagged noisy.
pub const NOISY_SPREAD: f64 = 1.25;
/// Room for the spans of the busiest workload (three per collector frame).
const SPAN_CAPACITY: usize = 1 << 17;

/// Where results and traces go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up time a repeat collects before it moves on: a set-up shorter
/// than this is done again, each one timed, so that a microsecond-scale
/// set-up is not reported from a handful of cold samples.
const SETUP_SAMPLE_S: f64 = 0.02;
/// Most set-ups one repeat times.
const MAX_SETUP_SAMPLES: usize = 4_096;

/// One repeat: inputs built, workload run, output checked.
struct Repeat {
    /// Every set-up this repeat timed; the last one's inputs were run.
    setups_s: Vec<f64>,
    wall_s: f64,
    checked: Checked,
}

fn repeat<W: Workload>(w: &W, seed: u64) -> Repeat {
    let mut tr = Tracer::off();
    let mut setups_s = Vec::new();
    let mut collected = 0.0;
    let inputs = loop {
        let t0 = Instant::now();
        let inputs = w.setup(seed, &mut tr);
        let took = t0.elapsed().as_secs_f64();
        setups_s.push(took);
        collected += took;
        if collected >= SETUP_SAMPLE_S || setups_s.len() == MAX_SETUP_SAMPLES {
            break inputs;
        }
    };
    let t0 = Instant::now();
    let output = w.run(inputs, &mut tr);
    let wall_s = t0.elapsed().as_secs_f64();
    Repeat {
        setups_s,
        wall_s,
        checked: w.check(seed, output).0,
    }
}

/// The process's memory high-water mark in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB");
    kib * 1_024.0 / 1e6
}

fn host_facts() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    vec![
        ("nproc".into(), Json::u64(nproc as u64)),
        ("loadavg".into(), Json::str(loadavg.trim())),
    ]
}

/// What a run reports: everything `all` and `check` need, of which the
/// contract's result line is a part.
pub struct Report {
    /// All facts of the run, as stored in `results.json`.
    pub info: Json,
    /// Whether every check passed and every repeat agreed.
    pub correct: bool,
}

impl Report {
    /// The result line the benchmark contract prescribes.
    pub fn result_line(&self) -> String {
        let get = |key: &str| self.info.get(key).cloned().expect("report field");
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), get("attempted")),
            ("failed".into(), get("failed")),
            ("metrics".into(), get("metrics")),
        ])
        .render()
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), num(value)),
        ("unit".into(), Json::str(unit)),
    ])
}

/// Warm-up, then timed repeats of the same fixed work until `seconds`
/// of measured time have passed (at least [`MIN_REPEATS`]). Every repeat
/// rebuilds its inputs, so set-up is timed at least as often as the run.
pub fn run_untraced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let warm_up = repeat(w, seed);
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut measured = 0.0;
    while repeats.len() < MIN_REPEATS || (measured < seconds && repeats.len() < MAX_REPEATS) {
        let r = repeat(w, seed);
        measured += r.setups_s.iter().sum::<f64>() + r.wall_s;
        repeats.push(r);
    }

    let all = || std::iter::once(&warm_up).chain(&repeats);
    let attempted: u64 = all().map(|r| r.checked.attempted).sum();
    let failed: u64 = all().map(|r| r.checked.failed).sum();
    let drift = all().any(|r| r.checked.digest != warm_up.checked.digest);
    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = repeats
        .iter()
        .flat_map(|r| r.setups_s.iter().copied())
        .collect();
    let rates: Vec<f64> = repeats.iter().map(|r| r.checked.units / r.wall_s).collect();
    let spread = stats::max(&walls) / stats::min(&walls);

    // Both times are the best sample: noise only ever adds time. (The
    // median of the set-ups was tried: in a noisy hour it moved by 19 %
    // and 29 % between runs on the two smallest set-ups, the minimum by
    // 6 % and 0.3 %.)
    let values = [stats::max(&rates), stats::min(&setups), peak_rss_mb()];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
        .collect();
    let trio = |xs: &[f64]| {
        Json::Obj(vec![
            ("best".into(), num(stats::min(xs))),
            ("median".into(), num(stats::median(xs))),
            ("worst".into(), num(stats::max(xs))),
        ])
    };
    let mut info = vec![
        ("workload".into(), Json::str(w.name())),
        ("seed".into(), Json::u64(seed)),
        ("trace".into(), Json::Bool(false)),
        ("repeats".into(), Json::u64(repeats.len() as u64)),
        ("metrics".into(), Json::Obj(metrics)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        (
            "failed_share".into(),
            num(failed as f64 / attempted.max(1) as f64),
        ),
        ("result_drift".into(), Json::u64(u64::from(drift))),
        (
            "result_digest".into(),
            Json::str(&format!("{:016x}", warm_up.checked.digest)),
        ),
        ("units".into(), num(warm_up.checked.units)),
        ("wall_s".into(), trio(&walls)),
        ("setup_s".into(), trio(&setups)),
        ("wall_spread".into(), num(spread)),
        ("noisy".into(), Json::Bool(spread > NOISY_SPREAD)),
    ];
    info.extend(host_facts());
    Report {
        info: Json::Obj(info),
        correct: failed == 0 && !drift,
    }
}

/// One repeat under a recording tracer: a root span, with the set-up
/// and the run as its children and the product calls below them.
/// Returns the run's host seconds with the verdict, trace and facts.
fn span_pass<W: Workload>(w: &W, seed: u64) -> (f64, Checked, Trace, W::Facts) {
    let mut tr = Tracer::on(SPAN_CAPACITY);
    let root = tr.enter("bench", "workload");
    let setup = tr.enter("bench", "setup");
    let inputs = w.setup(seed, &mut tr);
    tr.exit(setup);
    let run = tr.enter("bench", "run");
    let t0 = Instant::now();
    let output = w.run(inputs, &mut tr);
    let wall_s = t0.elapsed().as_secs_f64();
    tr.exit(run);
    tr.exit(root);
    let (checked, facts) = w.check(seed, output);
    (wall_s, checked, tr.finish(), facts)
}

/// The traced run: untraced and span-recording repeats in alternation
/// (best of two each, for the overhead share), one repeat with the
/// product's own counters switched on, then the workload's probes.
///
/// The counters get a pass of their own because they cost a map lookup
/// per simulated event: span timings taken with them on would measure
/// the registry, not the product.
pub fn run_traced<W: Workload>(w: &W, seed: u64) -> Report {
    let mut verdicts: Vec<Checked> = Vec::new();
    let (mut plain_wall, mut traced_wall) = (f64::INFINITY, f64::INFINITY);
    let mut kept = None;
    for _ in 0..2 {
        let plain = repeat(w, seed);
        plain_wall = plain_wall.min(plain.wall_s);
        let (wall_s, checked, trace, facts) = span_pass(w, seed);
        traced_wall = traced_wall.min(wall_s);
        verdicts.extend([plain.checked, checked]);
        kept = Some((trace, facts));
    }
    let (trace, facts) = kept.expect("two traced passes");

    obsv::metrics_begin();
    verdicts.push(repeat(w, seed).checked);
    let counters = obsv::metrics_take().expect("the registry installed above");

    let mut layers: Layers = w.layers(&trace, &counters, &facts);
    w.probes(seed, &mut layers);
    layers.insert("bench.trace_overhead_share", traced_wall / plain_wall - 1.0);
    let busy = trace.busy_by_layer();
    let busy_of = |layer: &str| busy.iter().find(|b| b.0 == layer).map_or(0.0, |b| b.1);
    layers.insert("bench.harness_self_s", busy_of("bench"));

    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    // A metric the workload does not report reads 0: its layer was not
    // reached, which is what the bypass predictions say should happen.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = layers.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), metric(v, m.unit))
        })
        .collect();

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let trace_file = dir.join(format!("trace-{}.jsonl", w.name()));
    std::fs::write(&trace_file, trace.to_jsonl()).expect("write the trace");

    let attempted: u64 = verdicts.iter().map(|c| c.attempted).sum();
    let failed: u64 = verdicts.iter().map(|c| c.failed).sum();
    let digest = verdicts[0].digest;
    let drift = verdicts.iter().any(|c| c.digest != digest);
    let mut info = vec![
        ("workload".into(), Json::str(w.name())),
        ("seed".into(), Json::u64(seed)),
        ("trace".into(), Json::Bool(true)),
        ("metrics".into(), Json::Obj(metrics)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("result_drift".into(), Json::u64(u64::from(drift))),
        ("result_digest".into(), Json::str(&format!("{digest:016x}"))),
        ("wall_s_untraced".into(), num(plain_wall)),
        ("wall_s_traced".into(), num(traced_wall)),
        ("spans".into(), Json::u64(trace.spans.len() as u64)),
        (
            "busy_s_by_layer".into(),
            Json::Obj(busy.iter().map(|(l, s)| (l.to_string(), num(*s))).collect()),
        ),
        (
            "trace_file".into(),
            Json::str(&trace_file.display().to_string()),
        ),
    ];
    info.extend(host_facts());
    Report {
        info: Json::Obj(info),
        correct: failed == 0 && !drift,
    }
}

/// Prints a report for a person: every metric by name with its unit.
pub fn print_report(report: &Report) {
    let info = &report.info;
    let text = |key: &str| match info.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "-".into(),
    };
    let workload = text("workload");
    let traced = info.get("trace").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "== {workload}  seed {}  {}  nproc {}  loadavg {}",
        text("seed"),
        if traced {
            "traced run".into()
        } else {
            format!("{} timed repeats + 1 warm-up", text("repeats"))
        },
        text("nproc"),
        text("loadavg"),
    );
    if let Some(Json::Obj(metrics)) = info.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").map_or("-".into(), Json::render);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<44} {value:>22} {unit}");
        }
    }
    if traced {
        println!(
            "  (end-to-end numbers come from the untraced run; wall_s untraced {} s, traced {} s, {} spans -> {})",
            text("wall_s_untraced"),
            text("wall_s_traced"),
            text("spans"),
            text("trace_file"),
        );
        println!("  busy_s_by_layer {}", text("busy_s_by_layer"));
    } else {
        let unit = spec::workload(&workload).map_or("", |w| w.unit);
        println!(
            "  {:<44} {:>22} failed/attempted checks",
            "failed_share",
            text("failed_share")
        );
        println!("  {:<44} {:>22} 0|1", "result_drift", text("result_drift"));
        println!(
            "  info: units {} ({unit}), wall_s {}, setup_s {}, wall_spread {}{}",
            text("units"),
            text("wall_s"),
            text("setup_s"),
            text("wall_spread"),
            if info.get("noisy").and_then(Json::as_bool) == Some(true) {
                "  ** noisy **"
            } else {
                ""
            },
        );
    }
    println!(
        "  result_digest {}  correct {}",
        text("result_digest"),
        report.correct
    );
}

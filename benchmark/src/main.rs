//! `slbench` — the one benchmark of the stack.
//!
//! ```text
//! slbench list                                     what is measured, with units
//! slbench run --workload W --seed N [--seconds S] [--trace [0|1]]
//!                                                  one workload in this process
//! slbench all --seed N [--seconds S] [--trace]     all five, one child process each
//! slbench check --seed N [--seconds S] [--trace]   `all` twice; sets must agree
//! slbench manifest                                 the content of BENCHMARK.json
//! ```
//!
//! `run` ends with one JSON line: `correct`, `attempted`, `failed` and
//! the metrics — end-to-end without `--trace`, per-layer with it.

mod harness;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{out_dir, print_report, run_traced, run_untraced, Report};
use spec::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use starlink_simtest::json::{self, Json};
use std::process::{Command, ExitCode};
use workloads::bulk_flows::BulkFlows;
use workloads::collector_ingest::CollectorIngest;
use workloads::constellation_sweep::ConstellationSweep;
use workloads::many_flows::ManyFlows;
use workloads::population_campaign::PopulationCampaign;
use workloads::Workload;

/// Parsed command-line options.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slbench list | manifest\n       \
         slbench run --workload W --seed N [--seconds S] [--trace [0|1]]\n       \
         slbench all|check --seed N [--seconds S] [--trace]"
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number".to_string())?;
            }
            // A bare `--trace` switches tracing on; `--trace 0|1` is the
            // spelling the benchmark driver uses.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn list() {
    println!("workloads (unit of units_per_s; input size of one repeat; why):");
    for w in &WORKLOADS {
        println!(
            "  {:<20} {} / host s\n  {:<20} {}\n  {:<20} {}",
            w.name, w.unit, "", w.size, "", w.why
        );
    }
    println!("\nend-to-end metrics (every workload reports all; may worsen by `bound` of the parent's median):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<8} {:<6} better, bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning
        );
    }
    println!("  {:<14} {:<8} lower  better, bound exactly 0  failed checks / attempted checks (the result line's `failed`)", "failed_share", "share");
    println!("  {:<14} {:<8} lower  better, bound exactly 0  1 if two repeats of a run disagree on result_digest (`correct`: false)", "result_drift", "0|1");
    println!("\nper-layer metrics (traced run; 0 on a workload that does not reach the layer):");
    println!(
        "  {:<44} {:<6} {:<7} {:<12} on",
        "name", "unit", "better", "should move"
    );
    for m in &PER_LAYER {
        println!(
            "  {:<44} {:<6} {:<7} {:<12} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves,
            m.on
        );
    }
}

/// Runs one workload at benchmark size in this process.
fn run_workload(name: &str, opts: &Options) -> Option<Report> {
    fn drive<W: Workload>(w: W, opts: &Options) -> Report {
        if opts.trace {
            run_traced(&w, opts.seed)
        } else {
            run_untraced(&w, opts.seed, opts.seconds)
        }
    }
    Some(match name {
        "bulk_flows" => drive(BulkFlows::full(), opts),
        "many_flows" => drive(ManyFlows::full(), opts),
        "constellation_sweep" => drive(ConstellationSweep::full(), opts),
        "population_campaign" => drive(PopulationCampaign::full(), opts),
        "collector_ingest" => drive(CollectorIngest::full(), opts),
        _ => return None,
    })
}

fn run(opts: &Options) -> ExitCode {
    let Some(name) = opts.workload.as_deref() else {
        eprintln!("run needs --workload; one of:");
        WORKLOADS.iter().for_each(|w| eprintln!("  {}", w.name));
        return ExitCode::from(2);
    };
    let Some(report) = run_workload(name, opts) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    print_report(&report);
    println!("info {}", report.info.render());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (so that
/// `peak_rss_mb` is per workload) and returns each child's `info`.
fn run_all(opts: &Options) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut infos = Vec::new();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let mut info = None;
        for line in stdout.lines() {
            match line.strip_prefix("info ") {
                Some(rest) => info = json::parse(rest).ok(),
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        if !out.status.success() {
            return Err(format!("{} failed ({})", w.name, out.status));
        }
        infos.push(info.ok_or(format!("{} printed no info line", w.name))?);
    }
    Ok(infos)
}

fn write_results(opts: &Options, infos: &[Json]) -> std::io::Result<()> {
    let rows: Vec<String> = infos
        .iter()
        .map(|i| format!("    {}", i.render()))
        .collect();
    let body = format!(
        "{{\n  \"schema\": \"slbench-results-v1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        opts.seed,
        opts.seconds,
        opts.trace,
        rows.join(",\n")
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(if opts.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    std::fs::write(&file, body)?;
    println!("wrote {}", file.display());
    Ok(())
}

fn all(opts: &Options) -> ExitCode {
    match run_all(opts) {
        Ok(infos) => match write_results(opts, &infos) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing results: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn metric_value(info: &Json, name: &str) -> Option<f64> {
    match info.get("metrics")?.get(name)?.get("value")? {
        Json::Num(token) => token.parse().ok(),
        _ => None,
    }
}

/// Share by which `now` is worse than `base`.
fn worse_by(better: Better, base: f64, now: f64) -> f64 {
    match better {
        Better::Higher => (base - now) / base,
        Better::Lower => (now - base) / base,
    }
}

/// Compares two sets of `all`; returns the disagreements.
fn disagreements(traced: bool, a: &[Json], b: &[Json]) -> Vec<String> {
    let mut out = Vec::new();
    for (x, y) in a.iter().zip(b) {
        let name = x.get("workload").and_then(Json::as_str).unwrap_or("?");
        if x.get("result_digest") != y.get("result_digest") {
            out.push(format!("{name}: result_digest differs between the sets"));
        }
        if traced {
            // Counts made by the program repeat exactly for a seed.
            for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
                let (va, vb) = (metric_value(x, m.name), metric_value(y, m.name));
                if va != vb {
                    out.push(format!("{name}: {} {va:?} vs {vb:?}", m.name));
                }
            }
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(x, m.name), metric_value(y, m.name)) else {
                out.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let gap = worse_by(m.better, va, vb).max(worse_by(m.better, vb, va));
            let verdict = if gap > m.bound { "EXCEEDS" } else { "within" };
            println!(
                "  {name:<20} {:<12} {va:>16.4} vs {vb:>16.4}  gap {:>5.2} % {verdict} bound {:.0} %",
                m.name,
                gap * 100.0,
                m.bound * 100.0
            );
            if gap > m.bound {
                out.push(format!(
                    "{name}: {} differs by {:.1} %",
                    m.name,
                    gap * 100.0
                ));
            }
        }
        for set in [x, y] {
            if set.get("noisy").and_then(Json::as_bool) == Some(true) {
                println!(
                    "  {name:<20} noisy: wall_s max / min = {} within one run",
                    set.get("wall_spread").map_or("?".into(), Json::render)
                );
            }
        }
    }
    out
}

fn check(opts: &Options) -> ExitCode {
    let sets: Result<Vec<_>, _> = (1..=2)
        .map(|set| {
            println!("---- set {set} of 2 ----");
            run_all(opts)
        })
        .collect();
    let sets = match sets {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("---- set 1 vs set 2 ----");
    let problems = disagreements(opts.trace, &sets[0], &sets[1]);
    if problems.is_empty() {
        println!("check passed: the two sets agree");
        ExitCode::SUCCESS
    } else {
        problems.iter().for_each(|p| eprintln!("check failed: {p}"));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let opts = match parse_options(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match command.as_str() {
        "list" => {
            list();
            ExitCode::SUCCESS
        }
        "manifest" => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        "run" => run(&opts),
        "all" => all(&opts),
        "check" => check(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::constellation_sweep::ConstellationSweep;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_spelling_and_the_bare_flag_both_parse() {
        let o = parse_options(&args(
            "--workload many_flows --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("many_flows"), 7, 10.0, false)
        );
        assert!(parse_options(&args("--trace 1 --seed 3")).unwrap().trace);
        let o = parse_options(&args("--seed 3 --trace")).unwrap();
        assert!(o.trace && o.seed == 3);
        assert!(parse_options(&args("--seed x")).is_err());
        assert!(parse_options(&args("--seconds 0")).is_err());
        assert!(parse_options(&args("--bogus")).is_err());
    }

    #[test]
    fn a_report_round_trips_through_json_and_yields_the_contract_line() {
        let report = run_untraced(&ConstellationSweep::tiny(), 5, 0.01);
        assert!(report.correct);
        let parsed = json::parse(&report.info.render()).expect("info is valid JSON");
        assert_eq!(parsed, report.info);
        assert_eq!(
            parsed.get("repeats").and_then(Json::as_u64),
            Some(spec::MIN_REPEATS as u64)
        );

        let line = json::parse(&report.result_line()).expect("result line is valid JSON");
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["units_per_s", "setup_s", "peak_rss_mb"]);
        for m in &END_TO_END {
            assert!(metric_value(&line, m.name).unwrap() > 0.0, "{}", m.name);
        }
    }

    #[test]
    fn sets_agree_within_bounds_or_are_reported() {
        let set = |rate: f64, digest: &str| {
            let metric = |v: f64| Json::Obj(vec![("value".into(), spec::num(v))]);
            vec![Json::Obj(vec![
                ("workload".into(), Json::str("many_flows")),
                ("result_digest".into(), Json::str(digest)),
                (
                    "metrics".into(),
                    Json::Obj(vec![
                        ("units_per_s".into(), metric(rate)),
                        ("setup_s".into(), metric(0.5)),
                        ("peak_rss_mb".into(), metric(40.0)),
                    ]),
                ),
            ])]
        };
        let bound = END_TO_END[0].bound;
        let (inside, outside) = (100.0 * (1.0 - bound / 2.0), 100.0 * (1.0 - 2.0 * bound));
        assert!(disagreements(false, &set(100.0, "aa"), &set(inside, "aa")).is_empty());
        let problems = disagreements(false, &set(100.0, "aa"), &set(outside, "bb"));
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 2.0, 2.5), 0.25);
    }
}

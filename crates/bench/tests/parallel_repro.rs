//! Tier-1 determinism tests for the parallel repro harness: `--jobs N`
//! must emit byte-identical stdout to `--jobs 1`, `--trace`/`--metrics`
//! must emit byte-identical observability artefacts across job counts
//! and repeated runs, and the removed `--bench` flag must be a usage
//! error (timing lives in `benchmark/`).

use std::process::Command;

/// A cheap artefact subset that still exercises the constellation hot
/// path (fig7 runs handover schedules over the full shell).
const SUBSET: [&str; 4] = ["fig1", "fig2", "fig5", "fig7"];

/// A storm-heavy subset for the observability tests: fig7 (handover loss
/// clumps) and fig8 (congestion shoot-out, where RTO storms live).
const STORM_SUBSET: [&str; 3] = ["fig2", "fig7", "fig8"];

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_with_jobs(jobs: &str) -> (String, bool) {
    let output = repro()
        .args(["--seed", "11", "--jobs", jobs])
        .args(SUBSET)
        .output()
        .expect("repro binary runs");
    (
        String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        output.status.success(),
    )
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let (sequential, seq_ok) = run_with_jobs("1");
    let (parallel, par_ok) = run_with_jobs("4");
    assert!(seq_ok, "sequential run failed");
    assert!(par_ok, "parallel run failed");
    assert!(
        sequential.contains("================ summary ================"),
        "missing summary:\n{sequential}"
    );
    for artefact in ["Fig. 1", "Fig. 2", "Fig. 5", "Fig. 7"] {
        assert!(
            sequential.contains(artefact),
            "missing {artefact} banner:\n{sequential}"
        );
    }
    assert_eq!(
        sequential, parallel,
        "--jobs 4 stdout diverged from --jobs 1"
    );
}

#[test]
fn trace_and_metrics_are_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("repro_obsv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |jobs: &str, tag: &str| -> (String, String) {
        let trace = dir.join(format!("trace_{tag}.jsonl"));
        let metrics = dir.join(format!("metrics_{tag}.json"));
        let output = repro()
            .args(["--seed", "11", "--jobs", jobs, "--trace"])
            .arg(&trace)
            .arg("--metrics")
            .arg(&metrics)
            .args(STORM_SUBSET)
            .output()
            .expect("repro binary runs");
        assert!(
            output.status.success(),
            "repro --trace/--metrics failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        (
            std::fs::read_to_string(&trace).expect("trace file written"),
            std::fs::read_to_string(&metrics).expect("metrics file written"),
        )
    };
    let (trace_seq, metrics_seq) = run("1", "j1");
    let (trace_par, metrics_par) = run("4", "j4");
    let (trace_rerun, metrics_rerun) = run("4", "j4-rerun");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        trace_seq.starts_with("{\"schema\":\"repro-trace-v1\",\"seed\":11}\n"),
        "trace header missing:\n{}",
        &trace_seq[..trace_seq.len().min(200)]
    );
    assert!(
        metrics_seq.contains("\"schema\": \"repro-metrics-v1\""),
        "metrics schema missing"
    );
    for artefact in STORM_SUBSET {
        assert!(
            trace_seq.contains(&format!("{{\"artefact\":\"{artefact}\",")),
            "no trace section for {artefact}"
        );
        assert!(
            metrics_seq.contains(&format!("\"{artefact}\": {{")),
            "no metrics section for {artefact}"
        );
    }
    // Every event line is sim-time-stamped JSONL.
    assert!(
        trace_seq.lines().skip(1).any(|l| l.starts_with("{\"t\":")),
        "no trace events captured"
    );

    assert_eq!(
        trace_seq, trace_par,
        "--jobs 4 trace diverged from --jobs 1"
    );
    assert_eq!(
        metrics_seq, metrics_par,
        "--jobs 4 metrics diverged from --jobs 1"
    );
    assert_eq!(trace_par, trace_rerun, "trace diverged across repeat runs");
    assert_eq!(
        metrics_par, metrics_rerun,
        "metrics diverged across repeat runs"
    );
}

#[test]
fn removed_bench_flag_is_a_usage_error() {
    let output = repro()
        .args(["--bench", "fig1"])
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag: --bench"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(output.stdout.is_empty(), "no artefact may run");
}

#[test]
fn removed_service_flag_is_a_usage_error() {
    // Every campaign upload is an SLCS session now; the switch that used
    // to select that path is gone (the strained budget is `--overloaded`).
    let output = repro()
        .args(["campaign", "--days", "1", "--service"])
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag: --service"), "{stderr}");
    assert!(stderr.contains("[--overloaded]"), "{stderr}");
    assert!(output.stdout.is_empty(), "no artefact may run");
}

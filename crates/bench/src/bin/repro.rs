//! `repro` — regenerate any (or every) table and figure of the paper.
//!
//! ```text
//! repro all                  # everything, in paper order
//! repro table1               # one artefact
//! repro fig6c fig7           # a selection
//! repro --seed 7 all         # a different universe
//! repro --keep-going fig5 fig8   # don't stop at the first failure
//! repro --jobs 4 all         # run artefacts on 4 worker threads
//! repro --trace t.jsonl --metrics m.json fig7   # observability artefacts
//! repro campaign [flags]     # the telemetry campaign, a command of its own
//! ```
//!
//! Output is the same rows/series the paper reports, with a `[shape]`
//! verdict against the paper's qualitative claims. Figure data is also
//! exported as gnuplot-ready `.dat` under `target/repro/`.
//!
//! Beside the paper's artefacts, `fairness` runs many-flow coexistence
//! at population scale and three ablations take a mechanism out:
//! `ablation_handover` (no handover loss windows), `ablation_policy`
//! (greedy instead of sticky satellite selection) and `ablation_buffer`
//! (bottleneck buffer from 1/8 to 2 BDP under CUBIC).
//!
//! ## Parallelism
//!
//! Artefacts are independent (each takes its own seed), so `--jobs N`
//! (default: available parallelism) runs them on the ordered worker pool
//! ([`pool::ordered`]), `--jobs 1` included. Every artefact's output is
//! buffered through the harness capture sink and printed in target order,
//! so `--jobs N` output is byte-identical to `--jobs 1`. Failure
//! semantics survive: panics stay isolated per artefact, and without
//! `--keep-going` the run still stops at the first failure *in target
//! order* (later artefacts may have executed, but they are neither
//! printed nor counted). `campaign` streams checkpoints as it runs, so it
//! is a command of its own: `repro campaign [flags]`, and naming another
//! artefact beside it is a usage error (exit 2).
//!
//! ## Observability
//!
//! `--trace PATH` installs a thread-local [`starlink_obsv`] ring sink
//! around every artefact and writes the captured events as JSONL: one
//! `{"artefact":...}` header line per artefact followed by its events,
//! artefacts in target order. `--metrics PATH` does the same with a
//! metrics registry and writes a `repro-metrics-v1` JSON document. Every
//! timestamp in both files is simulation time, and because sinks are
//! thread-local and fragments are reassembled in target order, both files
//! are byte-identical across `--jobs 1` and `--jobs N` and across
//! repeated runs with the same seed. `repro campaign` captures no events
//! into either file.
//!
//! ## Failure handling
//!
//! The harness is failure-tolerant: each artefact runs in isolation
//! (panics are caught, not propagated), failures are collected into an
//! end-of-run summary, and the exit code reflects hard failures only.
//! `--keep-going` (the default when running `all`) continues past
//! failures so one broken experiment cannot sink a whole campaign run.
//!
//! ## The `campaign` command
//!
//! `repro campaign` drives the telemetry deployment through the resilient
//! ingestion path under the standard fault storm and prints the per-user
//! coverage report. It checkpoints at day boundaries and can resume a
//! killed run byte-identically:
//!
//! ```text
//! repro campaign --days 60 --checkpoint-every 30 --kill-at-day 45
//! repro campaign --days 60 --checkpoint-every 30 --resume
//! ```
//!
//! `--checkpoint DIR` names a crash-consistent generation chain (a
//! `CheckpointStore` directory); `--resume` recovers from its newest
//! intact generation (damaged blobs are quarantined, never deleted) and
//! refuses a chain that belongs to a different scenario. With
//! `--storage-faults SEED` the disk underneath the chain injects a seeded
//! mix of torn writes, bit rot, ENOSPC, and crash-around-rename faults.
//! An injected power loss exits with code 13; rerun with `--resume`. The
//! recovered run's digest is byte-identical to an uninterrupted one.
//!
//! `--out DIR` (default `target/repro`) receives `campaign_digest.txt`
//! (the canonical dataset digest — diff it across kill/resume runs) and
//! `campaign_coverage.txt` (the full coverage report). Every upload
//! travels as SLCS session frames through the collector server; with
//! `--overloaded` the server runs its strained admission budget instead
//! of the generous default, so the report's shed column and typed REJECT
//! accounting are exercised too.
//!
//! ## Population scale (`--users`)
//!
//! `repro campaign --users 1000000 --cities 120 --jobs 8 --days 3` swaps
//! the 28-user deployment for the sharded [`ScaledCampaign`] engine: a
//! struct-of-arrays population across a 100+-city catalogue with
//! longitude-derived time zones, partitioned into contiguous user shards
//! that run on the same ordered pool (`--jobs` workers) and merge in
//! shard order. The digest, coverage report, traces and metrics are
//! byte-identical at any `--jobs` value, and checkpoints carry no worker
//! count, so `--resume` under a different `--jobs` is byte-identical
//! too; the chain and `--storage-faults` work exactly as above. Stdout
//! carries nothing that depends on the clock or the worker count.
//!
//! Wall-clock timing of the stack — user-days/sec and peak RSS of this
//! engine included (`population_campaign`) — is `slbench`'s job: see
//! `benchmark/README.md`.

use starlink_bench::{capture_begin, capture_end, export_dat, report};
use starlink_core::analysis::Ccdf;
use starlink_core::channel::loss::HandoverLossParams;
use starlink_core::channel::HandoverLossModel;
use starlink_core::constellation::{
    compute_schedule, compute_schedule_greedy, Constellation, SelectionPolicy, ServingSchedule,
};
use starlink_core::experiments::*;
use starlink_core::geo::City;
use starlink_core::simcore::{pool, SimDuration, SimRng, SimTime};
use starlink_core::telemetry::storage::{
    open_campaign_chain, CheckpointStore, FaultyDisk, RealDisk, StorageError, StorageFaultPlan,
    DEFAULT_RETAIN,
};
use starlink_core::telemetry::{
    AdmissionConfig, CampaignConfig, CheckpointError, IngestOptions, Population, ResilientCampaign,
    ScaleConfig, ScaledCampaign,
};
use starlink_core::tools::Cron;
use starlink_simtest::json::Json;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const ARTEFACTS: [&str; 17] = [
    "fig1",
    "fig2",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "table2",
    "table3",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "fairness",
    "ablation_handover",
    "ablation_policy",
    "ablation_buffer",
];

/// Capacity of the per-artefact trace ring: enough for every scenario the
/// harness runs today; overflow evicts oldest and is reported in the
/// artefact's trace header line as `"dropped"`.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// Which observability captures `--trace` / `--metrics` asked for.
#[derive(Clone, Copy, Default)]
struct ObsvSpec {
    trace: bool,
    metrics: bool,
}

/// Per-artefact observability capture, carried from the worker that ran
/// the artefact back to the main thread for in-target-order assembly.
struct ObsvOut {
    /// `(jsonl, events, dropped)`: rendered event lines, how many, and how
    /// many the ring evicted.
    trace: Option<(String, u64, u64)>,
    metrics: Option<starlink_obsv::MetricsRegistry>,
}

/// Runs one artefact with the requested thread-local captures installed.
/// The sink and registry live only for this call, so parallel workers
/// observe exactly the artefacts they ran.
fn run_observed(target: &str, seed: u64, spec: ObsvSpec) -> (Result<(), String>, ObsvOut) {
    if spec.trace {
        let _ = starlink_obsv::install_trace(Box::new(starlink_obsv::RingSink::new(
            TRACE_RING_CAPACITY,
        )));
    }
    if spec.metrics {
        let _ = starlink_obsv::metrics_begin();
    }
    let outcome = run_one(target, seed);
    let trace = if spec.trace {
        starlink_obsv::take_trace().map(|mut sink| {
            let dropped = sink.dropped_events();
            let jsonl = sink.drain_jsonl().unwrap_or_default();
            let events = jsonl.lines().count() as u64;
            (jsonl, events, dropped)
        })
    } else {
        None
    };
    let metrics = if spec.metrics {
        starlink_obsv::metrics_take()
    } else {
        None
    };
    (outcome, ObsvOut { trace, metrics })
}

/// Renders the `--trace` file: a schema header, then per artefact (in
/// target order) one header line and its captured event lines.
fn render_trace_jsonl(seed: u64, entries: &[(String, ObsvOut)]) -> String {
    let mut out = format!("{{\"schema\":\"repro-trace-v1\",\"seed\":{seed}}}\n");
    for (target, obsv) in entries {
        let Some((jsonl, events, dropped)) = &obsv.trace else {
            continue;
        };
        out.push_str(&format!(
            "{{\"artefact\":{},\"events\":{events},\"dropped\":{dropped}}}\n",
            Json::str(target).render()
        ));
        out.push_str(jsonl);
    }
    out
}

/// Renders the `--metrics` file: one registry snapshot per artefact, in
/// target order.
fn render_metrics_json(seed: u64, entries: &[(String, ObsvOut)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"repro-metrics-v1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"artefacts\": {");
    let mut first = true;
    for (target, obsv) in entries {
        let Some(reg) = &obsv.metrics else {
            continue;
        };
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    {}: ", Json::str(target).render()));
        out.push_str(&reg.to_json(4));
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

fn write_text(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Flags of the `campaign` artefact (ignored by the others).
struct CampaignOpts {
    days: u64,
    checkpoint_every: u64,
    /// Directory of the checkpoint chain ([`CheckpointStore`]).
    checkpoint: PathBuf,
    resume: bool,
    kill_at_day: Option<u64>,
    /// Run the collector server under the strained admission budget
    /// instead of the generous one, so the coverage report exercises the
    /// shed column.
    overloaded: bool,
    /// Seed for a mixed disk-fault plan (torn write, bit rot, ENOSPC,
    /// crash-around-rename) injected under the checkpoint chain.
    storage_faults: Option<u64>,
    /// Population-scale mode: `--users N` (N > 0) switches the campaign
    /// from the paper-faithful 28-user deployment to the sharded
    /// [`ScaledCampaign`] engine over N synthetic subscribers.
    users: u64,
    /// City-catalogue size for population-scale mode (the catalogue is
    /// anchored on the paper's real cities and padded with synthetic
    /// metros at seeded longitudes).
    cities: u32,
    /// Worker threads for population-scale mode, copied from the global
    /// `--jobs`. Output is byte-identical at any value.
    jobs: usize,
    out: PathBuf,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            days: 60,
            checkpoint_every: 0,
            checkpoint: PathBuf::from("target/repro/campaign.chain"),
            resume: false,
            kill_at_day: None,
            overloaded: false,
            storage_faults: None,
            users: 0,
            cities: 120,
            jobs: 1,
            out: PathBuf::from("target/repro"),
        }
    }
}

/// Exit code for an injected disk crash (power loss): the driver loop in
/// CI reruns with `--resume`, mirroring `collector-serve`.
const EXIT_INJECTED_CRASH: i32 = 13;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 42;
    let mut targets: Vec<String> = Vec::new();
    let mut keep_going = false;
    let mut jobs: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut campaign = CampaignOpts::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--jobs" | "-j" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--jobs needs a thread count >= 1"));
            }
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--trace needs a path")),
                );
            }
            "--metrics" => {
                metrics_path = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics needs a path")),
                );
            }
            "--days" => {
                campaign.days = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--days needs a number"));
            }
            "--checkpoint-every" => {
                campaign.checkpoint_every = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--checkpoint-every needs a day count"));
            }
            "--checkpoint" => {
                campaign.checkpoint = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--checkpoint needs a directory"));
            }
            "--resume" => campaign.resume = true,
            "--overloaded" => campaign.overloaded = true,
            "--storage-faults" => {
                campaign.storage_faults = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--storage-faults needs a seed")),
                );
            }
            "--kill-at-day" => {
                campaign.kill_at_day = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--kill-at-day needs a day number")),
                );
            }
            "--users" => {
                campaign.users = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--users needs a subscriber count"));
            }
            "--cities" => {
                campaign.cities = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--cities needs a city count >= 1"));
            }
            "--out" => {
                campaign.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a directory"));
            }
            "--keep-going" | "-k" => keep_going = true,
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag: {flag}")),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no artefact named");
    }
    if targets.len() > 1 && targets.iter().any(|t| t == "campaign") {
        usage("campaign runs alone: repro campaign [flags]");
    }
    if targets.iter().any(|t| t == "all") {
        targets = ARTEFACTS.iter().map(|s| s.to_string()).collect();
        // A full campaign run should always report everything it can.
        keep_going = true;
    }

    let spec = ObsvSpec {
        trace: trace_path.is_some(),
        metrics: metrics_path.is_some(),
    };
    let mut completed: Vec<String> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut observed: Vec<(String, ObsvOut)> = Vec::new();
    if targets[0] == "campaign" {
        // The campaign streams checkpoint progress as it runs; the
        // population-scale engine fans out over user shards on `--jobs`.
        campaign.jobs = jobs;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_campaign(seed, &campaign)))
            .map_err(|payload| format!("panicked: {}", panic_message(&payload)))
            .and_then(|r| r);
        record("campaign", outcome, &mut completed, &mut failures);
    } else {
        // Each worker captures its artefact's output; the pool hands the
        // buffers back in target order, so stdout, `--trace` and
        // `--metrics` are byte-identical at any `--jobs`. Without
        // `--keep-going` the run stops at the first failure in target
        // order: later artefacts may have executed, but they are neither
        // printed nor counted.
        pool::ordered(
            targets.len(),
            jobs,
            |i| {
                capture_begin();
                let (outcome, obsv) = run_observed(&targets[i], seed, spec);
                (capture_end(), outcome, obsv)
            },
            |i, (output, outcome, obsv)| {
                let target = &targets[i];
                print!("{output}");
                observed.push((target.clone(), obsv));
                if record(target, outcome, &mut completed, &mut failures) || keep_going {
                    return ControlFlow::Continue(());
                }
                eprintln!("stopping at first failure (use --keep-going to continue)");
                ControlFlow::Break(())
            },
        );
    }

    if let Some(path) = &trace_path {
        match write_text(path, &render_trace_jsonl(seed, &observed)) {
            Ok(()) => println!("[trace] wrote {}", path.display()),
            Err(err) => {
                eprintln!("[trace] {err}");
                failures.push(("--trace".to_string(), err));
            }
        }
    }
    if let Some(path) = &metrics_path {
        match write_text(path, &render_metrics_json(seed, &observed)) {
            Ok(()) => println!("[metrics] wrote {}", path.display()),
            Err(err) => {
                eprintln!("[metrics] {err}");
                failures.push(("--metrics".to_string(), err));
            }
        }
    }

    println!(
        "\n================ summary ================\n\n\
         {} artefact(s) OK, {} failed",
        completed.len(),
        failures.len()
    );
    for (target, err) in &failures {
        println!("  FAILED {target}: {err}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--seed N] [--jobs N] [--keep-going] \
         [--trace PATH] [--metrics PATH] <artefact>..."
    );
    eprintln!("       repro [--seed N] [--jobs N] campaign [campaign flags]");
    eprintln!("artefacts: all {}", ARTEFACTS.join(" "));
    eprintln!(
        "campaign flags: [--days N] [--checkpoint-every N] [--checkpoint DIR] \
         [--resume] [--kill-at-day D] [--overloaded] [--storage-faults SEED] [--out DIR]"
    );
    eprintln!(
        "campaign scale flags: [--users N] [--cities N] (with --jobs N for sharded \
         workers; output is byte-identical at any worker count)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Files one artefact's outcome under `completed` or `failures`;
/// returns whether it succeeded.
fn record(
    target: &str,
    outcome: Result<(), String>,
    completed: &mut Vec<String>,
    failures: &mut Vec<(String, String)>,
) -> bool {
    let Err(err) = outcome else {
        completed.push(target.to_string());
        return true;
    };
    eprintln!("[fail] {target}: {err}");
    failures.push((target.to_string(), err));
    false
}

/// Opens the campaign's checkpoint chain at `--checkpoint` when the run
/// checkpoints or resumes, and under `--resume` rebuilds the campaign from
/// the chain's newest intact generation with `resume` (the campaign's own
/// `resume`, configuration bound). A chain with no recoverable generation
/// restarts from day 0; one that belongs to another scenario is refused.
/// An injected crash during recovery exits with [`EXIT_INJECTED_CRASH`].
fn open_chain<C>(
    o: &CampaignOpts,
    resume: &dyn Fn(&[u8]) -> Result<C, CheckpointError>,
) -> Result<(Option<CheckpointStore<FaultyDisk>>, Option<C>), String> {
    if o.checkpoint_every == 0 && !o.resume {
        return Ok((None, None));
    }
    let dir = &o.checkpoint;
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
    // Faults are one-shot per campaign: a --resume run opens the (possibly
    // damaged) chain on a sound disk, because this process cannot know
    // which seeded faults already fired before the crash — re-arming them
    // would crash every recovery forever.
    let plan = match o.storage_faults {
        Some(fault_seed) if !o.resume => StorageFaultPlan::from_seed(fault_seed, 1, 1, 1, 2),
        _ => StorageFaultPlan::new(),
    };
    let disk = FaultyDisk::new(Box::new(RealDisk::new(dir)), plan);
    let (store, recovered) = open_campaign_chain(disk, DEFAULT_RETAIN, resume, &mut |e| {
        println!("[campaign] checkpoint store open shed ({e}); retrying")
    })
    .map_err(|f| {
        if f.error == StorageError::Crashed {
            println!("[campaign] injected disk crash during recovery; rerun with --resume");
            std::process::exit(EXIT_INJECTED_CRASH);
        }
        format!(
            "cannot open checkpoint store {}: {}",
            dir.display(),
            f.error
        )
    })?;
    let resumed = match recovered {
        _ if !o.resume => None,
        Some((_, outcome)) => {
            Some(outcome.map_err(|e| format!("refusing checkpoint {}: {e}", dir.display()))?)
        }
        // The crash landed before any generation sealed: the chain is
        // empty and the campaign restarts deterministically.
        None => {
            println!(
                "[campaign] no recoverable generation in {}; restarting from day 0",
                dir.display()
            );
            None
        }
    };
    Ok((Some(store), resumed))
}

/// Seals `blob` as the chain's next generation at the end of `day`. A
/// storage failure sheds the attempt and the campaign continues
/// un-poisoned — except an injected power loss, which ends the process
/// with [`EXIT_INJECTED_CRASH`] for a `--resume` rerun.
fn seal_checkpoint(
    store: &mut CheckpointStore<FaultyDisk>,
    o: &CampaignOpts,
    blob: &[u8],
    day: u64,
) {
    match store.store(blob, SimTime::from_secs(day * 86_400)) {
        Ok(generation) => println!(
            "[campaign] checkpoint generation {generation} at day {day} -> {}",
            o.checkpoint.display()
        ),
        Err(StorageError::Crashed) => {
            println!("[campaign] injected disk crash at day {day}; rerun with --resume");
            std::process::exit(EXIT_INJECTED_CRASH);
        }
        Err(e) => println!("[campaign] checkpoint shed at day {day}: {e}"),
    }
}

/// Drives the population-scale sharded campaign (`--users N`): a
/// struct-of-arrays subscriber population partitioned into contiguous
/// user shards, run on `--jobs` workers and merged in shard order so
/// every output file is byte-identical at any worker count.
fn run_scaled_campaign(seed: u64, o: &CampaignOpts) -> Result<(), String> {
    if o.overloaded {
        return Err("--overloaded applies to the paper-faithful campaign, not --users".to_string());
    }
    let config = ScaleConfig {
        seed,
        users: o.users,
        cities: o.cities,
        days: o.days,
        ..ScaleConfig::default()
    };

    let (mut store, resumed) = open_chain(o, &|blob| ScaledCampaign::resume(config, blob))?;
    let mut sc = match resumed {
        Some(sc) => {
            println!(
                "[campaign] resumed {} users / {} cities from {} at day {}",
                config.users,
                config.cities,
                o.checkpoint.display(),
                sc.next_day()
            );
            sc
        }
        None => {
            println!(
                "[campaign] population-scale mode: {} users, {} cities, {} days",
                config.users, config.cities, config.days
            );
            ScaledCampaign::new(config)
        }
    };

    while !sc.is_finished() {
        sc.run_day(o.jobs);
        let day = sc.next_day();
        let due = o.checkpoint_every > 0 && day % o.checkpoint_every == 0 && !sc.is_finished();
        if due {
            let store = store.as_mut().expect("--checkpoint-every opens the chain");
            seal_checkpoint(store, o, &sc.checkpoint(), day);
        }
        if let Some(kill) = o.kill_at_day {
            if day >= kill && !sc.is_finished() {
                println!("[campaign] simulated kill at day {day}; rerun with --resume to continue");
                return Ok(());
            }
        }
    }

    let coverage_exact = sc.ledger().sums_hold();
    let coverage = sc.render();
    let digest_line = format!("{:016x}\n", sc.dataset_digest());

    let shape = if coverage_exact {
        Ok(())
    } else {
        Err("coverage accounting does not sum to 100%".to_string())
    };
    let mut rendered = coverage.clone();
    rendered.push_str(&format!("\ncanonical dataset digest: {digest_line}"));
    report(
        "Campaign — sharded population-scale ingestion",
        &rendered,
        shape,
    );

    std::fs::create_dir_all(&o.out)
        .map_err(|e| format!("cannot create {}: {e}", o.out.display()))?;
    std::fs::write(o.out.join("campaign_digest.txt"), &digest_line)
        .map_err(|e| format!("cannot write digest: {e}"))?;
    std::fs::write(o.out.join("campaign_coverage.txt"), &coverage)
        .map_err(|e| format!("cannot write coverage: {e}"))?;
    println!(
        "[campaign] wrote campaign_digest.txt and campaign_coverage.txt under {}",
        o.out.display()
    );
    if !coverage_exact {
        return Err("coverage accounting does not sum to 100%".to_string());
    }
    Ok(())
}

/// Drives the fault-storm telemetry campaign through the resilient
/// ingestion path with optional day-boundary checkpointing, simulated
/// kills, seeded disk faults, and byte-identical resume. With
/// `--users N` the run switches to [`run_scaled_campaign`].
fn run_campaign(seed: u64, o: &CampaignOpts) -> Result<(), String> {
    if o.users > 0 {
        return run_scaled_campaign(seed, o);
    }
    let config = CampaignConfig {
        seed,
        days: o.days,
        ..CampaignConfig::default()
    };
    let users = Population::generate(seed).users.len();
    let mut options = IngestOptions::fault_storm(users, o.days);
    if o.overloaded {
        options.admission = AdmissionConfig::overloaded();
        println!("[campaign] SLCS sessions under the overloaded admission budget");
    }

    let (mut store, resumed) = open_chain(o, &|blob| {
        ResilientCampaign::resume(config.clone(), options.clone(), blob)
    })?;
    let mut rc = match resumed {
        Some(rc) => {
            println!(
                "[campaign] resumed from {} at day {}",
                o.checkpoint.display(),
                rc.next_day()
            );
            rc
        }
        None => ResilientCampaign::new(config, options),
    };

    while !rc.is_finished() {
        rc.run_day();
        let day = rc.next_day();
        let due = o.checkpoint_every > 0 && day % o.checkpoint_every == 0 && !rc.is_finished();
        if due {
            let store = store.as_mut().expect("--checkpoint-every opens the chain");
            seal_checkpoint(store, o, &rc.checkpoint(), day);
        }
        if let Some(kill) = o.kill_at_day {
            if day >= kill && !rc.is_finished() {
                println!(
                    "[campaign] simulated kill at day {day} ({} batches spooled); \
                     rerun with --resume to continue",
                    rc.spooled()
                );
                return Ok(());
            }
        }
    }

    let collection = rc.finish();
    let coverage = collection.coverage.render();
    let digest = format!("{:016x}\n", collection.dataset.digest());
    let shape = if collection.coverage.sums_hold() {
        Ok(())
    } else {
        Err("coverage accounting does not sum to 100%".to_string())
    };
    let mut rendered = coverage.clone();
    rendered.push_str(&format!(
        "\nquarantined uploads: {} ({} duplicate re-uploads deduped)\n\
         canonical dataset digest: {digest}",
        collection.quarantine.len(),
        collection.duplicates,
    ));
    report("Campaign — resilient telemetry ingestion", &rendered, shape);

    std::fs::create_dir_all(&o.out)
        .map_err(|e| format!("cannot create {}: {e}", o.out.display()))?;
    std::fs::write(o.out.join("campaign_digest.txt"), &digest)
        .map_err(|e| format!("cannot write digest: {e}"))?;
    std::fs::write(o.out.join("campaign_coverage.txt"), &coverage)
        .map_err(|e| format!("cannot write coverage: {e}"))?;
    println!(
        "[campaign] wrote {} and campaign_coverage.txt",
        o.out.join("campaign_digest.txt").display()
    );
    Ok(())
}

/// One cell of the population-scale coexistence experiment: a city from
/// the scaled-population catalogue, its population-weighted flow count,
/// and the finished fairness report.
struct FairnessCell {
    city: String,
    spec: starlink_simtest::FlowMixSpec,
    report: starlink_simtest::FairnessReport,
}

/// The `fairness` artefact: many-flow coexistence at population scale.
///
/// The scaled-population city catalogue supplies the cells — the three
/// heaviest metros — and each cell runs hundreds of concurrent flows
/// with a mixed congestion-control population through one shared
/// per-gateway droptail bottleneck ([`starlink_simtest::run_fairness`]).
/// Per-flow bandwidth is held at 1 Mbit/s so every cell contends at
/// the same per-subscriber intensity (enough capacity that the
/// aggregate minimum-window floor does not collapse the queue), with
/// two 40 ms BDPs of droptail buffer. Everything derives from `seed`
/// through labelled streams, so the artefact is byte-identical across
/// `--jobs` values and across machines.
fn run_fairness_cells(seed: u64) -> Vec<FairnessCell> {
    use starlink_core::transport::CcAlgorithm;
    use starlink_simtest::FlowMixSpec;

    let catalog = starlink_core::telemetry::CityCatalog::generate(12, seed);
    let root = SimRng::seed_from(seed);
    // Population-weighted flow counts: Zipf weights 1, 1/2, 1/3 over the
    // three heaviest metros, scaled so the largest cell runs 256 flows.
    (0..3usize)
        .map(|cell| {
            let flows = ((256.0 * catalog.weight(cell)).round() as usize).max(64);
            let mut mix_rng = root.stream("fairness.mix").substream(cell as u64);
            let mix: Vec<CcAlgorithm> = (0..flows)
                .map(|_| {
                    // The deployed-population mix: mostly BBRv2/CUBIC,
                    // with BBRv1 and the legacy loss-based tail.
                    match mix_rng.below(100) {
                        0..=29 => CcAlgorithm::Bbr2,
                        30..=49 => CcAlgorithm::Bbr,
                        50..=79 => CcAlgorithm::Cubic,
                        80..=89 => CcAlgorithm::Reno,
                        90..=94 => CcAlgorithm::Veno,
                        _ => CcAlgorithm::Vegas,
                    }
                })
                .collect();
            let bottleneck_kbps = 1_024 * flows as u64;
            let spec = FlowMixSpec {
                seed: root
                    .stream("fairness.net")
                    .substream(cell as u64)
                    .next_u64(),
                mix,
                bottleneck_kbps,
                // Two 40 ms BDPs of droptail queue: kbps × 80 ms / 8 = × 10.
                queue_bytes: bottleneck_kbps * 10,
                access_delay_us: 8_000 + 4_000 * cell as u64,
                duration_ms: 10_000,
            };
            let report = starlink_simtest::run_fairness(&spec, &Default::default());
            FairnessCell {
                city: catalog.name(cell).to_string(),
                spec,
                report,
            }
        })
        .collect()
}

/// Renders the fairness artefact's human-readable table.
fn render_fairness(cells: &[FairnessCell]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&format!(
            "{}: {} flows, {} kbit/s shared, Jain {}.{:03}\n",
            c.city,
            c.spec.mix.len(),
            c.spec.bottleneck_kbps,
            c.report.jain_milli / 1000,
            c.report.jain_milli % 1000,
        ));
        for a in &c.report.algos {
            let share_milli = (a.bytes_acked * 1_000)
                .checked_div(c.report.total_bytes)
                .unwrap_or(0);
            let permille = (a.retransmissions * 1_000)
                .checked_div(a.segments_sent)
                .unwrap_or(0);
            out.push_str(&format!(
                "  {:<5} {:>4} flows  {:>5.1}% of bytes  {:>4}‰ retransmitted\n",
                a.algo.label(),
                a.flows,
                share_milli as f64 / 10.0,
                permille,
            ));
        }
    }
    let all_shares: Vec<u64> = cells
        .iter()
        .flat_map(|c| c.report.flows.iter().map(|f| f.bytes_acked))
        .collect();
    let overall = starlink_simtest::jain_milli(&all_shares);
    out.push_str(&format!(
        "overall: {} flows across {} cells, Jain {}.{:03}\n",
        all_shares.len(),
        cells.len(),
        overall / 1000,
        overall % 1000,
    ));
    out
}

/// Mean loss probability of every scheduled iperf test in `window`: 100
/// samples 100 ms apart through the handover loss model that `schedule`
/// drives — the per-test loss the Fig. 6(c) CCDF is built from.
fn per_test_losses(schedule: &ServingSchedule, window: SimDuration, seed: u64) -> Vec<f64> {
    let mut model = HandoverLossModel::new(
        schedule,
        HandoverLossParams::default(),
        SimRng::seed_from(seed),
    );
    let cron = Cron::iperf_schedule(SimTime::ZERO, SimTime::ZERO + window);
    let tick = SimDuration::from_millis(100);
    cron.ticks()
        .map(|start| {
            let mut acc = 0.0;
            for i in 0..100u64 {
                acc += model.loss_prob_at(start + tick * i);
            }
            acc / 100.0
        })
        .collect()
}

/// **Ablation** — is the handover-loss mechanism load-bearing for the
/// Fig. 6(c) loss tail? The per-test loss campaign runs twice over the
/// same constellation window: with the full model (handover bursts,
/// outages, background fades) and with the schedule-driven windows
/// removed (background Gilbert–Elliott only). The paper's 12%-at-5% tail
/// should collapse without handovers: the clumps, not the background,
/// carry it.
fn ablation_handover(seed: u64) -> (String, Result<(), String>) {
    let days = 4;
    let window = SimDuration::from_days(days);
    let constellation = Constellation::starlink_shell1(1.1);
    let schedule = compute_schedule(
        &constellation,
        City::Wiltshire.position(),
        SimTime::ZERO,
        window,
        &SelectionPolicy::default(),
    );
    let with = per_test_losses(&schedule, window, seed);
    // No handovers, no outages.
    let without = per_test_losses(&ServingSchedule::default(), window, seed);
    let c_with = Ccdf::new(&with);
    let c_without = Ccdf::new(&without);

    let rendered = format!(
        "{} tests over {} days\n\
         \x20 P(loss >= 5%):  full model {:.3}   background-only {:.3}\n\
         \x20 P(loss >= 10%): full model {:.3}   background-only {:.3}\n\
         \x20 max loss:       full model {:.1}%  background-only {:.1}%\n",
        with.len(),
        days,
        c_with.at(0.05),
        c_without.at(0.05),
        c_with.at(0.10),
        c_without.at(0.10),
        with.iter().cloned().fold(0.0, f64::max) * 100.0,
        without.iter().cloned().fold(0.0, f64::max) * 100.0,
    );
    let shape = if c_with.at(0.05) > 2.0 * c_without.at(0.05) {
        Ok(())
    } else {
        Err(format!(
            "handover mechanism is not load-bearing: {:.3} vs {:.3}",
            c_with.at(0.05),
            c_without.at(0.05)
        ))
    };
    (rendered, shape)
}

/// **Ablation** — sticky vs greedy serving-satellite selection. The
/// sticky policy (keep the serving satellite until it leaves the mask)
/// is what the paper's loss observations imply; a greedy
/// highest-elevation-always policy hands over at nearly every 15 s
/// reconfiguration, and since every handover costs a loss burst, the
/// per-test loss tail explodes.
fn ablation_policy(seed: u64) -> (String, Result<(), String>) {
    let window = SimDuration::from_hours(24);
    let constellation = Constellation::starlink_shell1(0.4);
    let policy = SelectionPolicy::default();
    let position = City::Wiltshire.position();
    let sticky = compute_schedule(&constellation, position, SimTime::ZERO, window, &policy);
    let greedy = compute_schedule_greedy(&constellation, position, SimTime::ZERO, window, &policy);
    let tail =
        |schedule: &ServingSchedule| Ccdf::new(&per_test_losses(schedule, window, seed)).at(0.05);
    let (sticky_handovers, sticky_tail) = (sticky.handovers.len(), tail(&sticky));
    let (greedy_handovers, greedy_tail) = (greedy.handovers.len(), tail(&greedy));

    let rendered = format!(
        "24-hour window at the UK node\n\
         \x20 sticky policy: {} handovers, {} outage, P(test loss >= 5%) = {:.3}\n\
         \x20 greedy policy: {} handovers, {} outage, P(test loss >= 5%) = {:.3}\n",
        sticky_handovers,
        sticky.total_outage(),
        sticky_tail,
        greedy_handovers,
        greedy.total_outage(),
        greedy_tail,
    );
    let shape = if greedy_handovers >= 2 * sticky_handovers && greedy_tail > sticky_tail {
        Ok(())
    } else {
        Err(format!(
            "greedy should multiply handovers and the loss tail \
             ({greedy_handovers} vs {sticky_handovers}, {greedy_tail:.3} vs {sticky_tail:.3})"
        ))
    };
    (rendered, shape)
}

/// **Ablation** — bottleneck buffer size vs TCP goodput. The Fig. 8
/// outcomes ride on how much buffer the bent pipe's droptail queue gives
/// TCP: CUBIC over a fixed 100 Mbps / 40 ms-RTT path with the bottleneck
/// buffer from 1/8 BDP to 2 BDP — classic underbuffering starves
/// goodput; ~1 BDP recovers it.
fn ablation_buffer(seed: u64) -> (String, Result<(), String>) {
    use starlink_core::netsim::{LinkConfig, Network, NodeKind};
    use starlink_core::simcore::{Bytes, DataRate};
    use starlink_core::tools::iperf::iperf_tcp;
    use starlink_core::transport::CcAlgorithm;

    let goodput_mbps = |buffer: Bytes| {
        let mut net = Network::new(seed);
        let a = net.add_node("tx", NodeKind::Host);
        let b = net.add_node("rx", NodeKind::Host);
        net.connect_duplex(
            a,
            b,
            LinkConfig::fixed(SimDuration::from_millis(20), DataRate::from_mbps(100), 0.0)
                .with_queue(buffer),
            LinkConfig::fixed(SimDuration::from_millis(20), DataRate::from_mbps(100), 0.0),
        );
        net.route_linear(&[a, b]);
        iperf_tcp(
            &mut net,
            a,
            b,
            CcAlgorithm::Cubic,
            SimDuration::from_secs(20),
        )
        .goodput
        .as_mbps()
    };
    // BDP = 100 Mbps x 40 ms = 500 kB.
    let bdp = 500_000u64;
    let mut rows = String::new();
    let mut results = Vec::new();
    for f in [0.125, 0.25, 0.5, 1.0, 2.0] {
        let buffer = Bytes::new((bdp as f64 * f) as u64);
        let mbps = goodput_mbps(buffer);
        results.push(mbps);
        rows.push_str(&format!(
            "  buffer {:>7} ({:>5.3} BDP): {:>5.1} Mbps\n",
            buffer, f, mbps
        ));
    }
    let shape = if results[0] < results[3] && results[3] > 60.0 {
        Ok(())
    } else {
        Err(format!(
            "buffer sweep shape off: 1/8 BDP {:.1} Mbps vs 1 BDP {:.1} Mbps",
            results[0], results[3]
        ))
    };
    (rows, shape)
}

/// Runs one artefact in isolation: a panic anywhere inside an experiment
/// becomes an `Err` naming the artefact instead of aborting the process.
fn run_one(target: &str, seed: u64) -> Result<(), String> {
    if !ARTEFACTS.contains(&target) {
        return Err(format!(
            "unknown artefact (known: all {})",
            ARTEFACTS.join(" ")
        ));
    }
    catch_unwind(AssertUnwindSafe(|| run_artefact(target, seed)))
        .map_err(|payload| format!("panicked: {}", panic_message(&payload)))
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

fn run_artefact(target: &str, seed: u64) {
    match target {
        "fig1" => {
            let r = fig1::run(&fig1::Config { seed });
            report("Fig. 1 — user map", &r.render(), Ok(()));
        }
        "fig2" => {
            let r = fig2::run(&fig2::Config {
                seed,
                ..fig2::Config::default()
            });
            report("Fig. 2 — measurement-node setup", &r.render(), Ok(()));
        }
        "table1" => {
            let r = table1::run(&table1::Config { seed, days: 182 });
            report(
                "Table 1 — city-wise extension data",
                &r.render(),
                r.shape_holds(),
            );
        }
        "fig3" => {
            let r = fig3::run(&fig3::Config { seed, days: 182 });
            report(
                "Fig. 3 — PTT CDFs around the AS change",
                &r.render(),
                r.shape_holds(),
            );
            export_dat("fig3_cdfs", &r.to_dat());
        }
        "fig4" => {
            let r = fig4::run(&fig4::Config { seed, days: 182 });
            report("Fig. 4 — weather vs PTT", &r.render(), r.shape_holds());
        }
        "fig5" => {
            let r = fig5::run(&fig5::Config { seed, rounds: 20 });
            report(
                "Fig. 5 — hop-by-hop RTT comparison",
                &r.render(),
                r.shape_holds(),
            );
            export_dat("fig5_hops", &r.to_dat());
        }
        "table2" => {
            let r = table2::run(&table2::Config {
                seed,
                ..table2::Config::default()
            });
            report(
                "Table 2 — bent-pipe vs whole-path queueing",
                &r.render(),
                r.shape_holds(),
            );
        }
        "table3" => {
            let r = table3::run(&table3::Config { seed, days: 182 });
            report(
                "Table 3 — browser speedtest medians",
                &r.render(),
                r.shape_holds(),
            );
        }
        "fig6a" => {
            let r = fig6a::run(&fig6a::Config { seed, days: 14 });
            report("Fig. 6(a) — throughput CDFs", &r.render(), r.shape_holds());
            export_dat("fig6a_cdfs", &r.to_dat());
        }
        "fig6b" => {
            let r = fig6b::run(&fig6b::Config { seed, days: 2 });
            report(
                "Fig. 6(b) — diurnal throughput",
                &r.render(),
                r.shape_holds(),
            );
            export_dat("fig6b_diurnal", &r.to_dat());
        }
        "fig6c" => {
            let r = fig6c::run(&fig6c::Config {
                seed,
                ..fig6c::Config::default()
            });
            report("Fig. 6(c) — loss CCDF", &r.render(), r.shape_holds());
            export_dat("fig6c_ccdf", &r.to_dat());
        }
        "fig7" => {
            let r = fig7::run(&fig7::Config {
                seed,
                window: SimDuration::from_mins(12),
            });
            report(
                "Fig. 7 — handover loss clumps",
                &r.render(),
                r.shape_holds(),
            );
            export_dat("fig7_tracks", &r.to_dat());
        }
        "fig8" => {
            let r = fig8::run(&fig8::Config {
                seed,
                test_len: SimDuration::from_secs(60),
                ..fig8::Config::default()
            });
            report(
                "Fig. 8 — congestion-control shoot-out",
                &r.render(),
                r.shape_holds(),
            );
        }
        "fairness" => {
            let cells = run_fairness_cells(seed);
            report(
                "Fairness — many-flow coexistence at population scale",
                &render_fairness(&cells),
                Ok(()),
            );
        }
        "ablation_handover" => {
            let (rendered, shape) = ablation_handover(seed);
            report("Ablation: handover loss mechanism", &rendered, shape);
        }
        "ablation_policy" => {
            let (rendered, shape) = ablation_policy(seed);
            report("Ablation: selection policy", &rendered, shape);
        }
        "ablation_buffer" => {
            let (rendered, shape) = ablation_buffer(seed);
            report(
                "Ablation: bottleneck buffer vs CUBIC goodput (100 Mbps, 40 ms RTT)",
                &rendered,
                shape,
            );
        }
        // `run_one` vets targets against ARTEFACTS before dispatching.
        other => unreachable!("unvetted artefact '{other}'"),
    }
}

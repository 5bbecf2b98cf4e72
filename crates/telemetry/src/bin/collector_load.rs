//! `collector-load` — a threaded load generator for `collector-serve`.
//!
//! ```text
//! collector-load --connect 127.0.0.1:7878 --users N --batches M \
//!     [--pages P] [--pace-ms MS] [--seed S] [--out PATH]
//! ```
//!
//! One thread per user drives a full SLCS session: HELLO, then `M`
//! [`synthetic_batch`] uploads, honouring every REJECT's `retry_after`
//! hint combined with the shared [`RetryPolicy`] backoff (jitter drawn
//! from a per-user seeded [`SimRng`], so pacing is reproducible). A
//! dropped connection — including the server being SIGKILLed and
//! restarted mid-run — is answered by reconnect-with-retry plus a fresh
//! HELLO, never by giving up.
//!
//! ACKs are treated as **tentative** ([`LoaderUser`]): a reconnect means
//! the peer may be a restarted server that recovered an *older*
//! checkpoint generation, so the loader rewinds and re-offers its whole
//! acked frontier — batches the recovered generation kept come back
//! `Duplicate`, batches it lost are resent (the `gap_resent` counter) —
//! instead of assuming the pre-crash frontier survived.
//!
//! After the upload phase a **verify pass** — the same session loop over
//! a fresh [`LoaderUser`] — re-sends every batch once more and requires
//! an `Accepted` or `Duplicate` ack for each. Batches
//! the server acked but lost to a kill after its last checkpoint are
//! re-admitted here; batches it kept are deduplicated. The pass is what
//! makes a killed-and-restarted server's dataset byte-identical to an
//! uninterrupted one. Finally one session sends DRAIN (sealing the
//! server's digest) and the bench report lands in `--out` as
//! `collector-bench-v1` JSON: sustained batches/sec, shed rate, and p99
//! admission latency.

use starlink_simcore::{SimDuration, SimRng};
use starlink_telemetry::slcs::read_frame;
use starlink_telemetry::{
    synthetic_batch, AckStatus, LoaderUser, ReconnectOutcome, RetryPolicy, ServerReply,
    SessionClient,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Opts {
    connect: String,
    users: u64,
    batches: u64,
    pages: u32,
    pace_ms: u64,
    seed: u64,
    out: PathBuf,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: collector-load --connect ADDR --users N --batches M [--pages P]\n\
         \x20      [--pace-ms MS] [--seed S] [--out PATH]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        connect: String::new(),
        users: 4,
        batches: 32,
        pages: 6,
        pace_ms: 0,
        seed: 61,
        out: PathBuf::from("target/collector/BENCH_collector.json"),
    };
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>, name: &str| -> u64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{name} needs a number")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                opts.connect = it.next().unwrap_or_else(|| usage("--connect needs ADDR"))
            }
            "--users" => opts.users = num(&mut it, "--users"),
            "--batches" => opts.batches = num(&mut it, "--batches"),
            "--pages" => opts.pages = num(&mut it, "--pages") as u32,
            "--pace-ms" => opts.pace_ms = num(&mut it, "--pace-ms"),
            "--seed" => opts.seed = num(&mut it, "--seed"),
            "--out" => {
                opts.out = PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs PATH")))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag: {other}")),
        }
    }
    if opts.connect.is_empty() {
        usage("--connect is required");
    }
    if opts.users == 0 || opts.batches == 0 {
        usage("--users and --batches must be positive");
    }
    opts
}

/// Counters and the admission-latency ledger shared across the user
/// threads.
#[derive(Default)]
struct Tally {
    accepted: AtomicU64,
    duplicates: AtomicU64,
    rejects: AtomicU64,
    reconnects: AtomicU64,
    /// Batches resent during an in-flight frontier re-proof: acked, then
    /// `Accepted` (not `Duplicate`) again after a reconnect — the server
    /// restart had recovered a generation that predates them.
    gap_resent: AtomicU64,
    verify_resent: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

/// The longest a REJECT hint or backoff is honoured in real time; the
/// hints are virtual-time durations and an overload hint can be large.
const MAX_SLEEP: Duration = Duration::from_secs(2);
/// Give-up horizon for (re)connecting — covers the kill-to-restart
/// window in the CI smoke test with a wide margin.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);

fn connect_with_retry(addr: &str) -> TcpStream {
    let started = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("a fresh stream accepts a timeout");
                return stream;
            }
            Err(e) if started.elapsed() < CONNECT_DEADLINE => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => {
                eprintln!("[load] cannot reach {addr} after {CONNECT_DEADLINE:?}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// One request/reply exchange; any I/O failure bubbles up so the caller
/// can reconnect.
fn exchange(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<Vec<u8>> {
    stream.write_all(frame)?;
    read_frame(stream)
}

/// Opens (or reopens) a connection and completes the HELLO handshake.
fn open_session(addr: &str, client: &SessionClient) -> TcpStream {
    loop {
        let mut stream = connect_with_retry(addr);
        match exchange(&mut stream, &client.hello()) {
            Ok(reply) if client.parse_reply(&reply).is_ok() => return stream,
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
}

fn honour(hint_ns: u64) -> Duration {
    Duration::from_nanos(hint_ns).min(MAX_SLEEP)
}

/// One pass over a user's batches `1..=M`, each offered until the server
/// keeps it, with restart-aware frontier accounting: every reconnect
/// invalidates the ACK frontier and the whole tentative prefix is
/// re-offered before fresh uploads resume, so a server restart onto an
/// older checkpoint generation gets its gap resent immediately.
///
/// The upload phase and the verify pass are both this function. The
/// verify pass (`verify`) is the post-kill safety net: a fresh
/// [`LoaderUser`] re-offers every batch at full speed, and any ack other
/// than `Duplicate` means the upload-phase ack was lost to a kill after
/// the server's last checkpoint (`verify_resent`).
fn user_session(addr: &str, opts: &Opts, user: u64, verify: bool, tally: &Tally) {
    let policy = RetryPolicy::new(u32::MAX, SimDuration::from_millis(50));
    let client = SessionClient::new(user, user, policy);
    let label = if verify {
        "collector-verify"
    } else {
        "collector-load"
    };
    let mut rng = SimRng::seed_from(opts.seed ^ user).stream(label);
    let mut loader = LoaderUser::new(user, opts.batches);
    let mut stream = open_session(addr, &client);
    let mut attempt: u64 = 0;
    let reconnect = |stream: &mut TcpStream, loader: &mut LoaderUser| {
        tally.reconnects.fetch_add(1, Ordering::Relaxed);
        *stream = open_session(addr, &client);
        if let ReconnectOutcome::Reverify { first, last } = loader.on_reconnect() {
            eprintln!("[load] user {user}: re-proving batches {first}..={last} after reconnect");
        }
    };
    while let Some(seq) = loader.next_seq() {
        let payload = synthetic_batch(user, seq, opts.pages);
        let frame = client.batch(seq, payload);
        let sent = Instant::now();
        let reply = match exchange(&mut stream, &frame) {
            Ok(reply) => reply,
            Err(_) => {
                reconnect(&mut stream, &mut loader);
                continue;
            }
        };
        let latency_us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        match client.parse_reply(&reply) {
            Ok(ServerReply::Ack { status, .. }) => {
                tally
                    .latencies_us
                    .lock()
                    .expect("latency ledger is never poisoned")
                    .push(latency_us);
                let reproof = loader.is_reproof(seq);
                match status {
                    AckStatus::Duplicate => tally.duplicates.fetch_add(1, Ordering::Relaxed),
                    // Quarantined batches are kept (and accounted) too.
                    _ => tally.accepted.fetch_add(1, Ordering::Relaxed),
                };
                if status != AckStatus::Duplicate {
                    if verify {
                        tally.verify_resent.fetch_add(1, Ordering::Relaxed);
                    } else if reproof {
                        tally.gap_resent.fetch_add(1, Ordering::Relaxed);
                    }
                }
                loader.on_kept(seq, status);
                attempt = 0;
                // Re-proofs and the verify pass run at full speed; only
                // fresh uploads pace.
                if opts.pace_ms > 0 && !reproof && !verify {
                    std::thread::sleep(Duration::from_millis(opts.pace_ms));
                }
            }
            Ok(ServerReply::Reject { retry_after_ns, .. }) => {
                tally.rejects.fetch_add(1, Ordering::Relaxed);
                let backoff = client.policy().backoff(attempt, &mut rng);
                let wait = honour(retry_after_ns.max(backoff.as_nanos()));
                attempt += 1;
                std::thread::sleep(wait);
            }
            Err(_) => {
                // A reply that does not parse means the stream is skewed;
                // resynchronise by reconnecting (which also re-proves).
                reconnect(&mut stream, &mut loader);
            }
        }
    }
}

fn p99_us(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[((latencies.len() - 1) * 99) / 100]
}

fn render_bench_json(opts: &Opts, tally: &Tally, elapsed: Duration, p99: u64) -> String {
    let accepted = tally.accepted.load(Ordering::Relaxed);
    let duplicates = tally.duplicates.load(Ordering::Relaxed);
    let rejects = tally.rejects.load(Ordering::Relaxed);
    let attempts = accepted + duplicates + rejects;
    let shed_rate = if attempts > 0 {
        rejects as f64 / attempts as f64
    } else {
        0.0
    };
    let elapsed_ms = elapsed.as_millis().max(1) as u64;
    let delivered = opts.users * opts.batches;
    let batches_per_sec = delivered as f64 * 1_000.0 / elapsed_ms as f64;
    format!(
        "{{\n  \"schema\": \"collector-bench-v1\",\n  \
         \"users\": {},\n  \"batches_per_user\": {},\n  \"pages_per_batch\": {},\n  \
         \"delivered_batches\": {},\n  \"accepted\": {},\n  \"duplicates\": {},\n  \
         \"rejects\": {},\n  \"reconnects\": {},\n  \"gap_resent\": {},\n  \"verify_resent\": {},\n  \
         \"shed_rate\": {:.4},\n  \"elapsed_ms\": {},\n  \"batches_per_sec\": {:.2},\n  \
         \"p99_admission_latency_us\": {}\n}}\n",
        opts.users,
        opts.batches,
        opts.pages,
        delivered,
        accepted,
        duplicates,
        rejects,
        tally.reconnects.load(Ordering::Relaxed),
        tally.gap_resent.load(Ordering::Relaxed),
        tally.verify_resent.load(Ordering::Relaxed),
        shed_rate,
        elapsed_ms,
        batches_per_sec,
        p99,
    )
}

fn main() {
    let opts = Arc::new(parse_opts());
    let tally = Arc::new(Tally::default());
    let started = Instant::now();

    for phase in ["upload", "verify"] {
        let handles: Vec<_> = (1..=opts.users)
            .map(|user| {
                let (opts, tally) = (Arc::clone(&opts), Arc::clone(&tally));
                std::thread::spawn(move || {
                    user_session(&opts.connect, &opts, user, phase == "verify", &tally)
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("a load thread panicked");
        }
        eprintln!(
            "[load] {phase} phase done: accepted={} duplicates={} rejects={} reconnects={}",
            tally.accepted.load(Ordering::Relaxed),
            tally.duplicates.load(Ordering::Relaxed),
            tally.rejects.load(Ordering::Relaxed),
            tally.reconnects.load(Ordering::Relaxed),
        );
    }
    let elapsed = started.elapsed();

    // One session closes the service: DRAIN seals the server's digest.
    let drain_client = SessionClient::new(1, 1, RetryPolicy::new(4, SimDuration::from_millis(50)));
    let mut stream = open_session(&opts.connect, &drain_client);
    match exchange(&mut stream, &drain_client.drain()) {
        Ok(reply) => match drain_client.parse_reply(&reply) {
            Ok(r) => eprintln!("[load] drain acknowledged: {r:?}"),
            Err(e) => eprintln!("[load] drain reply malformed: {e}"),
        },
        Err(e) => eprintln!("[load] drain exchange failed: {e}"),
    }

    let p99 = p99_us(&mut tally.latencies_us.lock().expect("latency ledger").clone());
    let json = render_bench_json(&opts, &tally, elapsed, p99);
    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("bench output directory is creatable");
        }
    }
    std::fs::write(&opts.out, &json).expect("bench output is writable");
    println!("{json}");
    eprintln!("[load] wrote {}", opts.out.display());
}

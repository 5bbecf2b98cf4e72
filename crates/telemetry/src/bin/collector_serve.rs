//! `collector-serve` — the collector as a real TCP service.
//!
//! ```text
//! collector-serve --listen 127.0.0.1:7878 \
//!     [--checkpoint-dir DIR] [--checkpoint-every N] \
//!     [--retain K] [--digest PATH] [--exit-on-drain] \
//!     [--storage-faults SEED | --torn-write-at N | --bit-rot-at N \
//!      | --enospc-at N | --crash-before-rename-at N | --crash-after-rename-at N] \
//!     [--rate-milli R] [--burst B] [--queue Q] [--global-bytes G] [--drain-bps D]
//! ```
//!
//! Speaks SLCS v1 over TCP: thread-per-connection, one reply frame per
//! request frame, all admission state behind one lock so concurrent
//! sessions see a single consistent budget. Wall-clock time maps onto the
//! virtual clock as nanoseconds since process start; the admission layer
//! tolerates the non-monotonic interleavings real threads produce.
//!
//! Durability is `--checkpoint-dir DIR`, the journaled last-good chain
//! ([`CheckpointStore`]): generation-numbered `ckpt-<gen>.slcp` files
//! behind a CRC-sealed MANIFEST, `--retain K` generations kept, and
//! startup recovery that walks back to the newest generation
//! `decode_server_checkpoint` accepts, quarantining damaged blobs aside.
//! A storage failure during a checkpoint *sheds the attempt* (typed,
//! traced) and the service keeps admitting.
//!
//! Disk faults are injectable deterministically for the CI storage-smoke
//! matrix: `--storage-faults SEED` draws a mixed plan the same way the
//! simtest scenario generator does, and the `--…-at N` flags plant one
//! fault at an exact operation index. An injected power loss exits with
//! code 13 so a restart loop can tell "injected crash" from a real
//! failure; the next start recovers from the chain.
//!
//! A DRAIN frame seals a final checkpoint, writes the canonical dataset
//! digest to `--digest`, and — with `--exit-on-drain` — stops the
//! process once the reply is flushed.

use starlink_simcore::SimTime;
use starlink_telemetry::slcs::read_frame;
use starlink_telemetry::storage::{
    CheckpointStore, FaultyDisk, RealDisk, StorageError, StorageFault, StorageFaultPlan,
    DEFAULT_RETAIN,
};
use starlink_telemetry::{
    decode_server_checkpoint, encode_server_checkpoint, AdmissionConfig, Collector, CollectorServer,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exit code for an injected (simulated) power loss, distinct from real
/// failures so restart loops can keep the matrix going.
const EXIT_INJECTED_CRASH: i32 = 13;

struct Opts {
    listen: String,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    retain: u64,
    digest: Option<PathBuf>,
    exit_on_drain: bool,
    plan: StorageFaultPlan,
    config: AdmissionConfig,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: collector-serve --listen ADDR [--checkpoint-dir DIR] [--checkpoint-every N]\n\
         \x20      [--retain K] [--digest PATH] [--exit-on-drain]\n\
         \x20      [--storage-faults SEED] [--torn-write-at N] [--bit-rot-at N]\n\
         \x20      [--enospc-at N] [--crash-before-rename-at N] [--crash-after-rename-at N]\n\
         \x20      [--rate-milli R] [--burst B] [--queue Q] [--global-bytes G] [--drain-bps D]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        listen: String::new(),
        checkpoint_dir: None,
        checkpoint_every: 64,
        retain: DEFAULT_RETAIN,
        digest: None,
        exit_on_drain: false,
        plan: StorageFaultPlan::new(),
        config: AdmissionConfig::generous(),
    };
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>, name: &str| -> u64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{name} needs a number")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => opts.listen = it.next().unwrap_or_else(|| usage("--listen needs ADDR")),
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--checkpoint-dir needs DIR")),
                ))
            }
            "--checkpoint-every" => opts.checkpoint_every = num(&mut it, "--checkpoint-every"),
            "--retain" => opts.retain = num(&mut it, "--retain"),
            "--digest" => {
                opts.digest = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--digest needs PATH")),
                ))
            }
            "--exit-on-drain" => opts.exit_on_drain = true,
            "--storage-faults" => {
                // One of each write fault plus a crash pair, drawn like
                // the simtest scenario generator draws them.
                let seed = num(&mut it, "--storage-faults");
                opts.plan = StorageFaultPlan::from_seed(seed, 1, 1, 1, 2);
            }
            "--torn-write-at" => {
                opts.plan.push(StorageFault::TornWrite {
                    write: num(&mut it, "--torn-write-at"),
                    keep_ppm: 500_000,
                });
            }
            "--bit-rot-at" => {
                opts.plan.push(StorageFault::BitRot {
                    write: num(&mut it, "--bit-rot-at"),
                    bit_seed: 0x0b17_0b17_0b17_0b17,
                });
            }
            "--enospc-at" => {
                opts.plan.push(StorageFault::Enospc {
                    write: num(&mut it, "--enospc-at"),
                });
            }
            "--crash-before-rename-at" => {
                opts.plan.push(StorageFault::CrashBeforeRename {
                    rename: num(&mut it, "--crash-before-rename-at"),
                });
            }
            "--crash-after-rename-at" => {
                opts.plan.push(StorageFault::CrashAfterRename {
                    rename: num(&mut it, "--crash-after-rename-at"),
                });
            }
            "--rate-milli" => opts.config.session_rate_milli = num(&mut it, "--rate-milli"),
            "--burst" => opts.config.session_burst = num(&mut it, "--burst"),
            "--queue" => opts.config.queue_batches = num(&mut it, "--queue"),
            "--global-bytes" => opts.config.global_bytes = num(&mut it, "--global-bytes"),
            "--drain-bps" => opts.config.drain_bytes_per_sec = num(&mut it, "--drain-bps"),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag: {other}")),
        }
    }
    if opts.listen.is_empty() {
        usage("--listen is required");
    }
    if !opts.plan.is_empty() && opts.checkpoint_dir.is_none() {
        usage("storage faults need --checkpoint-dir (the store is the faultable surface)");
    }
    opts
}

/// Everything the connection threads share.
struct Core {
    server: CollectorServer,
    collector: Collector,
    /// The journaled chain, when `--checkpoint-dir` is in use.
    store: Option<CheckpointStore<FaultyDisk>>,
    /// Admitted batches (accepted + duplicate + quarantined) at the last
    /// checkpoint, for the every-N trigger.
    admitted_at_checkpoint: u64,
}

impl Core {
    fn admitted(&self) -> u64 {
        let s = self.server.stats();
        s.accepted + s.duplicates + s.quarantined
    }
}

fn write_digest(path: &Path, collector: &Collector) -> std::io::Result<()> {
    std::fs::write(path, format!("{:016x}\n", collector.dataset().digest()))
}

/// Seals a generation into the journaled chain. Storage failures shed
/// the attempt — the admission loop keeps serving — except an injected
/// power loss, which takes the process down with the dedicated exit code
/// (a restart recovers from the chain).
fn store_generation(store: &mut CheckpointStore<FaultyDisk>, collector: &Collector, now: SimTime) {
    let blob = encode_server_checkpoint(collector);
    match store.store(&blob, now) {
        Ok(generation) => {
            eprintln!("[serve] sealed checkpoint generation {generation}");
        }
        Err(StorageError::Crashed) => {
            eprintln!("[serve] injected power loss during checkpoint; dying for recovery");
            std::process::exit(EXIT_INJECTED_CRASH);
        }
        Err(e) => {
            eprintln!("[serve] checkpoint attempt shed ({e}); still serving");
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    core: &Mutex<Core>,
    opts: &Opts,
    epoch: Instant,
    drained: &AtomicBool,
) -> std::io::Result<()> {
    loop {
        let frame = read_frame(&mut stream)?;
        let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
        let (reply, is_drain) = {
            let mut core = core.lock().expect("no poisoned admission state");
            let Core {
                server, collector, ..
            } = &mut *core;
            // Whether this frame was a DRAIN is the server's verdict (it
            // validated the frame), never a guess from the raw bytes.
            let drains_before = server.stats().drains;
            let reply = server.handle_frame(collector, &frame, now);
            let is_drain = server.stats().drains > drains_before;
            let admitted = core.admitted();
            let due = opts.checkpoint_every > 0
                && admitted.saturating_sub(core.admitted_at_checkpoint) >= opts.checkpoint_every;
            if due || is_drain {
                let Core {
                    collector, store, ..
                } = &mut *core;
                if let Some(store) = store {
                    store_generation(store, collector, now);
                    core.admitted_at_checkpoint = admitted;
                }
            }
            if is_drain {
                if let Some(path) = &opts.digest {
                    write_digest(path, &core.collector)?;
                }
            }
            (reply, is_drain)
        };
        stream.write_all(&reply)?;
        if is_drain {
            stream.flush()?;
            drained.store(true, Ordering::SeqCst);
            return Ok(());
        }
    }
}

/// Opens the journaled chain under `dir` and recovers the newest
/// generation that decodes, if any. An injected crash *during recovery*
/// also exits 13: the faults are one-shot, so the restart gets further.
fn open_store(
    dir: &Path,
    retain: u64,
    plan: StorageFaultPlan,
) -> (CheckpointStore<FaultyDisk>, Option<Collector>) {
    let disk = FaultyDisk::new(Box::new(RealDisk::new(dir)), plan);
    let opened = CheckpointStore::open_retrying(
        disk,
        retain,
        &mut |blob| decode_server_checkpoint(blob).is_ok(),
        SimTime::ZERO,
        &mut |e| eprintln!("[serve] checkpoint store open shed ({e}); retrying"),
    );
    let (store, recovered) = opened.unwrap_or_else(|f| {
        if f.error == StorageError::Crashed {
            eprintln!("[serve] injected power loss during recovery; dying for restart");
            std::process::exit(EXIT_INJECTED_CRASH);
        }
        eprintln!(
            "[serve] cannot open checkpoint store {}: {}",
            dir.display(),
            f.error
        );
        std::process::exit(1);
    });
    let collector = recovered.map(|r| {
        eprintln!(
            "[serve] recovered checkpoint generation {} (walked back {})",
            r.generation, r.walked_back
        );
        decode_server_checkpoint(&r.blob).expect("recovery validated this blob")
    });
    if collector.is_none() {
        eprintln!(
            "[serve] no recoverable generation in {}, starting fresh",
            dir.display()
        );
    }
    (store, collector)
}

fn main() {
    let opts = parse_opts();
    let mut core = Core {
        server: CollectorServer::new(opts.config),
        collector: Collector::new(),
        store: None,
        admitted_at_checkpoint: 0,
    };
    if let Some(dir) = &opts.checkpoint_dir {
        let (store, recovered) = open_store(dir, opts.retain, opts.plan.clone());
        if let Some(collector) = recovered {
            eprintln!(
                "[serve] resumed {} batch(es) from the chain",
                collector.accepted_batches()
            );
            core.collector = collector;
        }
        core.store = Some(store);
    }

    let listener = TcpListener::bind(&opts.listen)
        .unwrap_or_else(|e| usage(&format!("cannot listen on {}: {e}", opts.listen)));
    eprintln!("[serve] listening on {}", opts.listen);

    let core = Arc::new(Mutex::new(core));
    let opts = Arc::new(opts);
    let drained = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[serve] accept failed: {e}");
                continue;
            }
        };
        let (core, opts, drained) = (Arc::clone(&core), Arc::clone(&opts), Arc::clone(&drained));
        std::thread::spawn(move || {
            let result = serve_connection(stream, &core, &opts, epoch, &drained);
            if let Err(e) = result {
                // Disconnects are routine (the loader reconnects after a
                // server kill test); only surface unexpected shapes.
                if e.kind() != std::io::ErrorKind::UnexpectedEof {
                    eprintln!("[serve] connection ended: {e}");
                }
            }
            if drained.load(Ordering::SeqCst) && opts.exit_on_drain {
                eprintln!("[serve] drained; exiting");
                std::process::exit(0);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_simcore::SimDuration;
    use starlink_telemetry::wire::crc32;
    use starlink_telemetry::{
        synthetic_batch, AckStatus, RetryPolicy, ServerReply, SessionClient, ShedReason,
    };

    /// A frame that *looks* like a DRAIN in its header but fails
    /// validation must be shed as a bad frame and nothing more: no
    /// sealed digest, no drained flag, and the service keeps admitting.
    #[test]
    fn corrupt_drain_frame_is_shed_and_the_service_keeps_serving() {
        let dir =
            std::env::temp_dir().join(format!("collector_serve_drain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let digest = dir.join("c.digest");
        let opts = Opts {
            listen: String::new(),
            checkpoint_dir: None,
            checkpoint_every: 0,
            retain: DEFAULT_RETAIN,
            digest: Some(digest.clone()),
            exit_on_drain: true,
            plan: StorageFaultPlan::new(),
            config: AdmissionConfig::generous(),
        };
        let opts = Arc::new(opts);
        let core = Arc::new(Mutex::new(Core {
            server: CollectorServer::new(opts.config),
            collector: Collector::new(),
            store: None,
            admitted_at_checkpoint: 0,
        }));
        let drained = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").expect("an ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        // Detached, not scoped: if an assertion below fails, the test
        // fails instead of waiting on a thread parked in `accept`.
        let serving = {
            let (core, opts, drained) =
                (Arc::clone(&core), Arc::clone(&opts), Arc::clone(&drained));
            std::thread::spawn(move || {
                let epoch = Instant::now();
                for _ in 0..2 {
                    let (stream, _) = listener.accept().expect("a test connection");
                    let _ = serve_connection(stream, &core, &opts, epoch, &drained);
                }
            })
        };

        let client = SessionClient::new(1, 1, RetryPolicy::new(0, SimDuration::from_millis(1)));
        // Sound header, type DRAIN, wrong checksum.
        let mut bad_crc = client.drain();
        *bad_crc.last_mut().expect("non-empty frame") ^= 0xFF;
        // Sound header and checksum, type DRAIN, but a payload. An empty
        // BATCH and a DRAIN differ first in their type byte.
        let drain = client.drain();
        let type_at = (client.batch(0, Vec::new()).iter().zip(&drain))
            .position(|(a, b)| a != b)
            .expect("frame types differ");
        let mut with_payload = client.batch(0, vec![7; 3]);
        with_payload[type_at] = drain[type_at];
        let body = with_payload.len() - 4;
        let crc = crc32(&with_payload[..body]);
        with_payload[body..].copy_from_slice(&crc.to_le_bytes());

        let bad_frame = Ok(ServerReply::Reject {
            seq: 0,
            reason: ShedReason::BadFrame,
            retry_after_ns: 0,
        });
        let exchange = |stream: &mut TcpStream, frame: &[u8]| {
            stream.write_all(frame).expect("request written");
            client.parse_reply(&read_frame(stream).expect("one reply per request"))
        };
        // A reply that never comes fails the test instead of hanging it.
        let connect = || {
            let stream = TcpStream::connect(addr).expect("server is listening");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("a fresh stream accepts a timeout");
            stream
        };
        let mut first = connect();
        assert_eq!(exchange(&mut first, &bad_crc), bad_frame);
        assert_eq!(exchange(&mut first, &with_payload), bad_frame);
        drop(first);
        assert!(!digest.exists(), "a shed frame must not seal a digest");

        let mut second = connect();
        assert!(matches!(
            exchange(&mut second, &client.hello()),
            Ok(ServerReply::Ack { .. })
        ));
        assert_eq!(
            exchange(&mut second, &client.batch(1, synthetic_batch(1, 1, 3))),
            Ok(ServerReply::Ack {
                seq: 1,
                status: AckStatus::Accepted
            })
        );
        drop(second);
        serving.join().expect("the serving thread ends cleanly");
        assert!(!drained.load(Ordering::SeqCst));
        assert!(!digest.exists());
        let core = core.lock().expect("no poisoned admission state");
        assert_eq!(core.server.stats().shed_by(ShedReason::BadFrame), 2);
        assert_eq!(core.collector.accepted_batches(), 1);
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

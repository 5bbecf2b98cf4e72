//! Seeded fuzz tests for the telemetry wire decoder.
//!
//! A deterministic swarm of adversarial inputs — truncations at every
//! boundary, seeded bit-flips, spliced frames, and raw garbage — driven
//! through [`decode_batch`] and [`peek_header`]. The contract under fuzz:
//! the decoder never panics, and every rejection is a typed
//! [`WireError`] with a stable quarantine code. An `Ok` from a mutated
//! buffer is only acceptable when the mutations cancelled out, i.e. the
//! decoded batch equals the original.
//!
//! The corpus is *generated*, not checked in: every case derives from a
//! [`SimRng`] stream seeded by the constants below, so the whole swarm is
//! reproducible from this file alone.

use starlink_channel::{AccessTech, WeatherCondition};
use starlink_geo::City;
use starlink_simcore::{SimRng, SimTime};
use starlink_telemetry::aschange::ExitAs;
use starlink_telemetry::wire::{decode_batch, encode_batch, peek_header, RecordBatch, WireError};
use starlink_telemetry::{IspClass, PageRecord, SpeedtestRecord};
use starlink_web::PttBreakdown;

/// Base seed for the fuzz streams. Changing it re-rolls the whole swarm.
const FUZZ_SEED: u64 = 0xF022_BA7C_4DEC_0DE5;

/// One valid page record drawn from `rng`, touching every enum arm the
/// format encodes.
fn fuzz_page(user: u64, rng: &mut SimRng) -> PageRecord {
    let ptt = PttBreakdown {
        redirect_ms: rng.range_f64(0.0, 60.0),
        dns_ms: rng.range_f64(0.0, 90.0),
        connect_ms: rng.range_f64(0.0, 140.0),
        tls_ms: rng.range_f64(0.0, 160.0),
        request_ms: rng.range_f64(0.0, 500.0),
        response_ms: rng.range_f64(0.0, 1_000.0),
    };
    PageRecord {
        user,
        city: City::ALL[rng.index(City::ALL.len())],
        isp: if rng.bernoulli(0.5) {
            IspClass::Starlink
        } else {
            IspClass::NonStarlink(AccessTech::ALL[rng.index(AccessTech::ALL.len())])
        },
        at: SimTime::from_secs(rng.below(182 * 86_400)),
        rank: 1 + rng.below(1_000_000),
        plt_ms: ptt.total_ms() + rng.range_f64(0.0, 3_000.0),
        ptt,
        exit_as: match rng.below(3) {
            0 => None,
            1 => Some(ExitAs::Google),
            _ => Some(ExitAs::SpaceX),
        },
        weather: WeatherCondition::ALL[rng.index(WeatherCondition::ALL.len())],
    }
}

/// A valid batch whose shape (record counts included) derives from `rng`.
fn fuzz_batch(rng: &mut SimRng) -> RecordBatch {
    let user = rng.next_u64();
    let pages = rng.below(8) as usize;
    let speedtests = rng.below(4) as usize;
    RecordBatch {
        user,
        seq: rng.below(365),
        pages: (0..pages).map(|_| fuzz_page(user, rng)).collect(),
        speedtests: (0..speedtests)
            .map(|_| SpeedtestRecord {
                user,
                city: City::ALL[rng.index(City::ALL.len())],
                starlink: rng.bernoulli(0.5),
                at_secs: rng.below(182 * 86_400),
                downlink_mbps: rng.range_f64(0.1, 400.0),
                uplink_mbps: rng.range_f64(0.1, 60.0),
            })
            .collect(),
    }
}

/// Decode must be total: whatever `bytes` holds, it returns a value. The
/// typed error doubles as the quarantine reason, so its code must be one
/// of the stable names.
fn assert_total(bytes: &[u8], original: &RecordBatch) {
    match decode_batch(bytes) {
        Ok(decoded) => assert_eq!(
            &decoded, original,
            "decoder accepted a mutation as a different batch"
        ),
        Err(e) => {
            let known = [
                "bad-magic",
                "unsupported-version",
                "truncated",
                "trailing-bytes",
                "checksum-mismatch",
                "bad-field",
            ];
            assert!(
                known.contains(&e.code()),
                "unknown error code {:?}",
                e.code()
            );
        }
    }
    // The header peek is best-effort but must also be total.
    let _ = peek_header(bytes);
}

#[test]
fn truncation_at_every_boundary_yields_typed_errors() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("truncate");
    for _ in 0..32 {
        let batch = fuzz_batch(&mut rng);
        let wire = encode_batch(&batch);
        assert_eq!(decode_batch(&wire).as_ref(), Ok(&batch), "round trip");
        for cut in 0..wire.len() {
            match decode_batch(&wire[..cut]) {
                Ok(_) => panic!("accepted a {cut}-byte prefix of {} bytes", wire.len()),
                Err(WireError::BadMagic { .. }) => assert!(cut < 4),
                Err(WireError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed <= wire.len(), "claimed need beyond the real frame");
                }
                Err(other) => panic!("truncation at {cut} produced {other:?}"),
            }
            let _ = peek_header(&wire[..cut]);
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_forge_a_batch() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("bitflip");
    for _ in 0..400 {
        let batch = fuzz_batch(&mut rng);
        let mut wire = encode_batch(&batch);
        let flips = 1 + rng.below(16) as usize;
        for _ in 0..flips {
            let at = rng.index(wire.len());
            wire[at] ^= 1 << rng.below(8);
        }
        assert_total(&wire, &batch);
    }
}

#[test]
fn spliced_and_extended_frames_are_rejected() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("splice");
    for _ in 0..64 {
        let batch = fuzz_batch(&mut rng);
        let wire = encode_batch(&batch);

        // Concatenated uploads: valid frame + any suffix => TrailingBytes.
        let mut doubled = wire.clone();
        let extra = 1 + rng.below(64) as usize;
        doubled.extend((0..extra).map(|_| rng.below(256) as u8));
        match decode_batch(&doubled) {
            Err(WireError::TrailingBytes { extra: got }) => assert_eq!(got, extra),
            other => panic!("frame + {extra} bytes decoded to {other:?}"),
        }

        // A tail spliced from a *different* valid frame keeps the framing
        // intact, so the checksum is the last line of defence.
        let other = encode_batch(&fuzz_batch(&mut rng));
        if other.len() == wire.len() && other != wire {
            let cut = rng.index(wire.len());
            let mut spliced = wire[..cut].to_vec();
            spliced.extend_from_slice(&other[cut..]);
            assert_total(&spliced, &batch);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("garbage");
    let empty = RecordBatch {
        user: 0,
        seq: 0,
        pages: Vec::new(),
        speedtests: Vec::new(),
    };
    for _ in 0..1_000 {
        let len = rng.below(512) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        // Random bytes forging a valid frame is astronomically unlikely;
        // if it ever happens the comparison against `empty` fails loudly
        // and the seed pinpoints the case.
        assert_total(&buf, &empty);
    }
}

// ---------------------------------------------------------------------
// SLCS session-frame layer
// ---------------------------------------------------------------------

use starlink_simcore::SimDuration;
use starlink_telemetry::slcs::{
    decode_frame, encode_frame, peek_frame_len, AckStatus, Frame, ShedReason, SLCS_HEADER_LEN,
    SLCS_MAX_PAYLOAD,
};
use starlink_telemetry::{AdmissionConfig, Collector, CollectorServer};

/// One valid session frame drawn from `rng`, covering every frame type.
fn fuzz_frame(rng: &mut SimRng) -> Frame {
    let session = rng.next_u64();
    match rng.below(5) {
        0 => Frame::Hello {
            session,
            user: rng.next_u64(),
        },
        1 => Frame::Batch {
            session,
            seq: rng.next_u64(),
            payload: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
        },
        2 => Frame::Ack {
            session,
            seq: rng.next_u64(),
            status: [
                AckStatus::Accepted,
                AckStatus::Duplicate,
                AckStatus::Quarantined,
            ][rng.index(3)],
        },
        3 => Frame::Reject {
            session,
            seq: rng.next_u64(),
            reason: ShedReason::ALL[rng.index(ShedReason::ALL.len())],
            retry_after_ns: rng.next_u64(),
        },
        _ => Frame::Drain { session },
    }
}

/// Frame decode must be total with stable codes, like the batch layer.
fn assert_frame_total(bytes: &[u8], original: &Frame) {
    match decode_frame(bytes) {
        Ok(decoded) => assert_eq!(
            &decoded, original,
            "frame decoder accepted a mutation as a different frame"
        ),
        Err(e) => {
            let known = [
                "bad-magic",
                "unsupported-version",
                "truncated",
                "trailing-bytes",
                "checksum-mismatch",
                "bad-field",
            ];
            assert!(
                known.contains(&e.code()),
                "unknown error code {:?}",
                e.code()
            );
        }
    }
    let _ = peek_frame_len(bytes);
}

#[test]
fn slcs_truncation_at_every_boundary_yields_typed_errors() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("slcs-truncate");
    for _ in 0..32 {
        let frame = fuzz_frame(&mut rng);
        let wire = encode_frame(&frame);
        assert_eq!(decode_frame(&wire).as_ref(), Ok(&frame), "round trip");
        for cut in 0..wire.len() {
            assert!(
                decode_frame(&wire[..cut]).is_err(),
                "accepted a {cut}-byte prefix of {} bytes",
                wire.len()
            );
            assert_frame_total(&wire[..cut], &frame);
            // The stream-framing peek must never claim more than the
            // real frame occupies, and must be total on any prefix.
            if let Ok(len) = peek_frame_len(&wire[..cut]) {
                assert_eq!(len, wire.len(), "peek disagrees with the encoder");
            }
        }
    }
}

#[test]
fn slcs_bit_flips_never_panic_and_never_forge_a_frame() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("slcs-bitflip");
    for _ in 0..400 {
        let frame = fuzz_frame(&mut rng);
        let mut wire = encode_frame(&frame);
        let flips = 1 + rng.below(16) as usize;
        for _ in 0..flips {
            let at = rng.index(wire.len());
            wire[at] ^= 1 << rng.below(8);
        }
        assert_frame_total(&wire, &frame);
    }
}

#[test]
fn slcs_hostile_lengths_are_refused_before_any_read() {
    // Forge the length field toward usize overflow: both the peek and
    // the decoder must reject typed, never allocate or over-read.
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("slcs-lengths");
    let paylen_at = SLCS_HEADER_LEN - 4;
    for _ in 0..128 {
        let frame = fuzz_frame(&mut rng);
        let mut wire = encode_frame(&frame);
        let hostile = match rng.below(3) {
            0 => u32::MAX - rng.below(1_024) as u32,
            1 => (SLCS_MAX_PAYLOAD as u32) + 1 + rng.below(1_024) as u32,
            _ => (SLCS_MAX_PAYLOAD as u32).saturating_sub(rng.below(1_024) as u32),
        };
        wire[paylen_at..paylen_at + 4].copy_from_slice(&hostile.to_le_bytes());
        match peek_frame_len(&wire) {
            Ok(len) => {
                // Within the cap the peek may believe the claim, but it
                // must account for header + payload + checksum exactly.
                assert!(hostile as usize <= SLCS_MAX_PAYLOAD);
                assert_eq!(len, SLCS_HEADER_LEN + hostile as usize + 4);
            }
            Err(e) => assert!(
                matches!(e.code(), "bad-field" | "truncated"),
                "peek produced {e:?}"
            ),
        }
        assert!(decode_frame(&wire).is_err(), "hostile length decoded");
        assert_frame_total(&wire, &frame);
    }
}

#[test]
fn slcs_garbage_never_panics() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("slcs-garbage");
    let sentinel = Frame::Drain { session: 0 };
    for _ in 0..1_000 {
        let len = rng.below(512) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        assert_frame_total(&buf, &sentinel);
    }
}

#[test]
fn hostile_streams_against_the_server_always_get_typed_replies() {
    // Duplicate ACKs, replayed server replies, reply frames arriving as
    // requests, garbage, and unknown sessions interleaved with real
    // batches: the server must answer every input with exactly one
    // well-formed ACK or REJECT and keep its queue bounded.
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("slcs-server");
    let config = AdmissionConfig::generous();
    for _ in 0..8 {
        let mut server = CollectorServer::new(config);
        let mut collector = Collector::new();
        let mut now = SimTime::ZERO;

        let hello = encode_frame(&Frame::Hello {
            session: 1,
            user: 7,
        });
        let opened = server.handle_frame(&mut collector, &hello, now);
        assert!(matches!(decode_frame(&opened), Ok(Frame::Ack { .. })));

        let mut last_reply = opened;
        let mut batch_seq = 0u64;
        for _ in 0..96 {
            now += SimDuration::from_millis(rng.below(2_000));
            let input = match rng.below(5) {
                // A legitimate upload on the open session.
                0 => {
                    batch_seq += 1;
                    encode_frame(&Frame::Batch {
                        session: 1,
                        seq: batch_seq,
                        payload: encode_batch(&fuzz_batch(&mut rng)),
                    })
                }
                // The server's own previous reply, replayed back at it.
                1 => last_reply.clone(),
                // A random well-formed frame (often a reply type or an
                // unknown session).
                2 => encode_frame(&fuzz_frame(&mut rng)),
                // A duplicate of an earlier batch seq.
                3 => encode_frame(&Frame::Batch {
                    session: 1,
                    seq: batch_seq,
                    payload: encode_batch(&fuzz_batch(&mut rng)),
                }),
                // Raw garbage.
                _ => (0..rng.below(128)).map(|_| rng.below(256) as u8).collect(),
            };
            let reply = server.handle_frame(&mut collector, &input, now);
            match decode_frame(&reply).expect("server replies must be well-formed") {
                Frame::Ack { .. } | Frame::Reject { .. } => {}
                other => panic!("server answered with a non-reply frame: {other:?}"),
            }
            last_reply = reply;
            assert!(
                server.queue_depth() <= config.queue_batches,
                "queue bound violated"
            );
        }
        // Reply-typed and garbage inputs all shed as bad frames.
        assert!(server.stats().shed_by(ShedReason::BadFrame) > 0);
    }
}

// ---------------------------------------------------------------------
// Checkpoint-storage layer: MANIFEST + generation files
// ---------------------------------------------------------------------

use starlink_telemetry::{
    decode_manifest, decode_server_checkpoint, encode_manifest, encode_server_checkpoint,
    generation_name, parse_generation_name, CheckpointStore, DiskEnv, Manifest, SimDisk,
    DEFAULT_RETAIN, MANIFEST_NAME,
};

/// A random (but plausible) manifest drawn from `rng`.
fn fuzz_manifest(rng: &mut SimRng) -> Manifest {
    Manifest {
        newest: rng.next_u64(),
        written: rng.next_u64(),
        pruned: rng.next_u64(),
        quarantined: rng.next_u64(),
    }
}

#[test]
fn manifest_bit_flips_never_panic_and_never_forge() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("manifest-bitflip");
    let known = [
        "bad-magic",
        "unsupported-version",
        "truncated",
        "trailing-bytes",
        "checksum-mismatch",
        "bad-field",
    ];
    for _ in 0..400 {
        let manifest = fuzz_manifest(&mut rng);
        let mut wire = encode_manifest(&manifest);
        let flips = 1 + rng.below(8) as usize;
        for _ in 0..flips {
            let at = rng.index(wire.len());
            wire[at] ^= 1 << rng.below(8);
        }
        match decode_manifest(&wire) {
            Ok(decoded) => assert_eq!(
                decoded, manifest,
                "decoder accepted a mutation as a different manifest"
            ),
            Err(e) => assert!(known.contains(&e.code()), "unknown code {:?}", e.code()),
        }
    }
}

#[test]
fn hostile_generation_names_never_panic_and_never_alias() {
    // Exact inverse on the whole u64 range, including the ceiling.
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("gen-names");
    for _ in 0..256 {
        let g = rng.next_u64();
        assert_eq!(parse_generation_name(&generation_name(g)), Some(g));
    }
    assert_eq!(
        parse_generation_name(&generation_name(u64::MAX)),
        Some(u64::MAX)
    );
    // Hostile names: wrong fix, empty digits, sign characters, hex,
    // unicode digits, and overflow must all parse to None, never panic.
    for hostile in [
        "",
        "ckpt-.slcp",
        "ckpt--1.slcp",
        "ckpt-+1.slcp",
        "ckpt-1x.slcp",
        "ckpt-0x10.slcp",
        "ckpt-1.slcp.tmp",
        "CKPT-1.SLCP",
        "ckpt-١٢٣.slcp",
        "ckpt-99999999999999999999999999.slcp",
        "ckpt-18446744073709551616.slcp", // u64::MAX + 1
        MANIFEST_NAME,
        "quarantine",
    ] {
        assert_eq!(parse_generation_name(hostile), None, "{hostile:?} parsed");
    }
    // Unpadded digits still parse (recovery tolerates foreign padding)…
    assert_eq!(parse_generation_name("ckpt-7.slcp"), Some(7));
    // …and random garbage is total.
    for _ in 0..512 {
        let len = rng.below(40) as usize;
        let name: String = (0..len)
            .map(|_| char::from(32 + rng.below(95) as u8))
            .collect();
        let _ = parse_generation_name(&name);
    }
}

/// Seals `count` real server checkpoints into a fresh store and returns
/// the disk (manifest + generation chain on it).
fn sealed_chain(count: u64, rng: &mut SimRng) -> SimDisk {
    let mut validate = |blob: &[u8]| decode_server_checkpoint(blob).is_ok();
    let (mut store, recovered) =
        CheckpointStore::open(SimDisk::new(), DEFAULT_RETAIN, &mut validate, SimTime::ZERO)
            .expect("fresh sim disk");
    assert!(recovered.is_none());
    let mut collector = Collector::new();
    for seq in 1..=count {
        let batch = fuzz_batch(rng);
        collector.submit(&encode_batch(&batch), SimTime::from_secs(seq));
        store
            .store(
                &encode_server_checkpoint(&collector),
                SimTime::from_secs(seq),
            )
            .expect("perfect disk");
    }
    store.into_disk()
}

#[test]
fn recovery_never_adopts_a_crc_failing_blob() {
    // Corrupt the chain every way the fuzzer can think of — bit flips in
    // any file, truncations, a forged manifest, duplicate and missing
    // generations — then recover. The contract: open never panics, any
    // adopted blob actually decodes, and conservation holds afterwards.
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("storage-recovery");
    for round in 0..64 {
        let mut disk = sealed_chain(1 + rng.below(4), &mut rng);
        let paths = disk.paths();
        for _ in 0..1 + rng.below(4) {
            let at = rng.index(paths.len());
            let path = paths[at].clone();
            match rng.below(4) {
                // Bit flip anywhere in the file.
                0 => {
                    if let Some(bytes) = disk.file_mut(&path) {
                        if !bytes.is_empty() {
                            let bit = rng.below(bytes.len() as u64 * 8);
                            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                        }
                    }
                }
                // Truncate to a random prefix (torn write).
                1 => {
                    if let Some(bytes) = disk.file_mut(&path) {
                        let keep = rng.index(bytes.len().max(1));
                        bytes.truncate(keep);
                    }
                }
                // Replace wholesale with garbage.
                2 => {
                    let len = rng.below(128) as usize;
                    let garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                    disk.write(&path, &garbage).expect("sim write");
                }
                // Duplicate under a hostile or future generation name.
                _ => {
                    let clone = disk.file(&path).expect("listed path").to_vec();
                    let name = generation_name(1_000 + rng.below(1_000));
                    disk.write(&name, &clone).expect("sim write");
                }
            }
        }
        let mut validate = |blob: &[u8]| decode_server_checkpoint(blob).is_ok();
        let (store, recovered) =
            CheckpointStore::open(disk, DEFAULT_RETAIN, &mut validate, SimTime::ZERO)
                .expect("sim disk never fails, so recovery must complete");
        if let Some(r) = recovered {
            assert!(
                decode_server_checkpoint(&r.blob).is_ok(),
                "round {round}: adopted a blob that does not decode"
            );
        }
        let stats = store.stats();
        assert!(stats.conservation_holds(), "round {round}: {stats:?}");
    }
}

#[test]
fn hostile_record_counts_cannot_overflow_framing() {
    // Forge headers whose record counts multiply past usize: the length
    // arithmetic must fail typed (bad-field), not wrap into a bogus frame.
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("counts");
    for _ in 0..64 {
        let batch = fuzz_batch(&mut rng);
        let mut wire = encode_batch(&batch);
        let counts_at = 4 + 2 + 2 + 8 + 8; // magic, version, flags, user, seq
        let huge = (u32::MAX - rng.below(1_024) as u32).to_le_bytes();
        wire[counts_at..counts_at + 4].copy_from_slice(&huge);
        wire[counts_at + 4..counts_at + 8].copy_from_slice(&huge);
        match decode_batch(&wire) {
            Err(WireError::BadField { .. }) | Err(WireError::Truncated { .. }) => {}
            other => panic!("hostile counts decoded to {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// One trust order over every sealed format
// ---------------------------------------------------------------------

use starlink_telemetry::{
    CampaignConfig, CheckpointError, IngestOptions, ResilientCampaign, ScaleConfig, ScaledCampaign,
};

/// A sealed format's decoder, reduced to its verdict.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), WireError>>;

/// One sealed sample and the decoder that judges it. `decode` also
/// asserts that whatever it accepts re-encodes to the bytes it was given.
struct Sealed {
    name: &'static str,
    bytes: Vec<u8>,
    /// Bytes of the header: magic, version and the format's own fields.
    header_len: usize,
    /// Whether the header states the whole length. An SLCP blob states
    /// none: it runs to the end of the buffer, so its CRC is what finds
    /// a cut past its envelope or an appended byte.
    states_length: bool,
    decode: Decode,
}

/// The shortest buffer an SLCP envelope can hold: magic, version, kind
/// and the CRC.
const SLCP_MIN_LEN: usize = 4 + 2 + 1 + 4;

/// A checkpoint decode's envelope verdict; a blob of another scenario
/// cannot come out of a damaged sample of this one.
fn envelope<T>(decoded: Result<T, CheckpointError>) -> Result<T, WireError> {
    decoded.map_err(|e| match e {
        CheckpointError::Wire(e) => e,
        other => panic!("damage surfaced as {other:?}"),
    })
}

/// An SLTB batch, each of the five SLCS frame types, the three SLCP
/// kinds and an SLMF manifest.
fn every_sealed_format() -> Vec<Sealed> {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("trust-order-samples");
    let batch = encode_batch(&fuzz_batch(&mut rng));
    let mut samples = vec![Sealed {
        name: "SLTB batch",
        bytes: batch.clone(),
        header_len: 4 + 2 + 2 + 8 + 8 + 4 + 4,
        states_length: true,
        decode: Box::new(|b| decode_batch(b).map(|got| assert_eq!(encode_batch(&got), b))),
    }];

    let (session, seq) = (rng.next_u64(), rng.next_u64());
    for (name, frame) in [
        ("SLCS HELLO", Frame::Hello { session, user: 7 }),
        (
            "SLCS BATCH",
            Frame::Batch {
                session,
                seq,
                payload: batch,
            },
        ),
        (
            "SLCS ACK",
            Frame::Ack {
                session,
                seq,
                status: AckStatus::Duplicate,
            },
        ),
        (
            "SLCS REJECT",
            Frame::Reject {
                session,
                seq,
                reason: ShedReason::QueueFull,
                retry_after_ns: 1_500_000_000,
            },
        ),
        ("SLCS DRAIN", Frame::Drain { session }),
    ] {
        samples.push(Sealed {
            name,
            bytes: encode_frame(&frame),
            header_len: SLCS_HEADER_LEN,
            states_length: true,
            decode: Box::new(|b| decode_frame(b).map(|got| assert_eq!(encode_frame(&got), b))),
        });
    }

    let config = CampaignConfig {
        seed: 3,
        days: 4,
        pages_per_day: 8.0,
        tranco_size: 50_000,
    };
    let mut campaign = ResilientCampaign::new(config.clone(), IngestOptions::fault_storm(28, 4));
    campaign.run_day();
    let mut collector = Collector::new();
    collector.submit(&encode_batch(&fuzz_batch(&mut rng)), SimTime::ZERO);
    collector.submit(b"not a batch", SimTime::from_secs(1));
    let scale = ScaleConfig {
        seed: 3,
        users: 64,
        cities: 20,
        days: 4,
        pages_per_day_milli: 22_000,
    };
    let mut scaled = ScaledCampaign::new(scale);
    scaled.run_day(1);
    samples.extend([
        Sealed {
            name: "SLCP campaign",
            bytes: campaign.checkpoint(),
            header_len: 4 + 2 + 1,
            states_length: false,
            decode: Box::new(move |b| {
                let options = IngestOptions::fault_storm(28, 4);
                envelope(ResilientCampaign::resume(config.clone(), options, b))
                    .map(|got| assert_eq!(got.checkpoint(), b))
            }),
        },
        Sealed {
            name: "SLCP server",
            bytes: encode_server_checkpoint(&collector),
            header_len: 4 + 2 + 1,
            states_length: false,
            decode: Box::new(|b| {
                envelope(decode_server_checkpoint(b))
                    .map(|got| assert_eq!(encode_server_checkpoint(&got), b))
            }),
        },
        Sealed {
            name: "SLCP scaled",
            bytes: scaled.checkpoint(),
            header_len: 4 + 2 + 1,
            states_length: false,
            decode: Box::new(move |b| {
                envelope(ScaledCampaign::resume(scale, b))
                    .map(|got| assert_eq!(got.checkpoint(), b))
            }),
        },
        Sealed {
            name: "SLMF manifest",
            bytes: encode_manifest(&fuzz_manifest(&mut rng)),
            header_len: 4 + 2,
            states_length: true,
            decode: Box::new(|b| {
                decode_manifest(b).map(|got| assert_eq!(encode_manifest(&got), b))
            }),
        },
    ]);
    samples
}

/// Every sealed format opens in one trust order — magic, version, the
/// header's own fields, exact length, CRC-32, then body fields — so one
/// kind of damage gets one answer whichever format it hits.
#[test]
fn every_sealed_format_refuses_damage_in_one_trust_order() {
    let mut rng = SimRng::seed_from(FUZZ_SEED).stream("trust-order-damage");
    for sample in every_sealed_format() {
        let Sealed {
            name,
            bytes,
            header_len,
            states_length,
            decode,
        } = sample;
        let len = bytes.len();
        assert_eq!(decode(&bytes), Ok(()), "{name}: the sample itself");

        for cut in 0..len {
            let got = decode(&bytes[..cut]);
            if states_length || cut < SLCP_MIN_LEN {
                assert!(
                    matches!(got, Err(WireError::Truncated { .. })),
                    "{name}: {cut}-byte prefix gave {got:?}"
                );
            } else {
                assert!(
                    matches!(got, Err(WireError::ChecksumMismatch { .. })),
                    "{name}: {cut}-byte prefix gave {got:?}"
                );
            }
        }

        let mut extended = bytes.clone();
        extended.push(rng.below(256) as u8);
        let got = decode(&extended);
        if states_length {
            assert_eq!(got, Err(WireError::TrailingBytes { extra: 1 }), "{name}");
        } else {
            assert!(
                matches!(got, Err(WireError::ChecksumMismatch { .. })),
                "{name}: an appended byte gave {got:?}"
            );
        }

        let mut flipped = |at: usize| {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << rng.below(8);
            decode(&bad)
        };
        for at in 0..4 {
            let got = flipped(at);
            assert!(
                matches!(got, Err(WireError::BadMagic { .. })),
                "{name}: magic byte {at} gave {got:?}"
            );
        }
        for at in 4..6 {
            let got = flipped(at);
            assert!(
                matches!(got, Err(WireError::UnsupportedVersion { .. })),
                "{name}: version byte {at} gave {got:?}"
            );
        }
        // Body and CRC: every byte of a short sample, a seeded draw plus
        // the whole CRC of a long one.
        let after_header: Vec<usize> = if len - header_len <= 512 {
            (header_len..len).collect()
        } else {
            let mut draw = SimRng::seed_from(FUZZ_SEED).stream(name);
            (0..256)
                .map(|_| header_len + draw.index(len - header_len))
                .chain(len - 4..len)
                .collect()
        };
        for at in after_header {
            let got = flipped(at);
            assert!(
                matches!(got, Err(WireError::ChecksumMismatch { .. })),
                "{name}: byte {at} of {len} gave {got:?}"
            );
        }
    }
}

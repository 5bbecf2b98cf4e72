//! The bytes on the wire and on disk are frozen: the literals below were
//! captured from the bit-at-a-time CRC and the copying frame codec, and
//! every later kernel or codec must reproduce them exactly.

use starlink_simcore::{SimDuration, SimTime};
use starlink_telemetry::slcs::{decode_frame, parse_frame};
use starlink_telemetry::wire::crc32;
use starlink_telemetry::{
    encode_server_checkpoint, synthetic_batch, AdmissionConfig, Collector, CollectorServer,
    RetryPolicy, SessionClient,
};

/// FNV-1a over the whole artefact: a digest that does not go through
/// the CRC kernel under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts a sealed artefact's length, digest, and that its trailer is
/// both the frozen CRC and the CRC of everything before it.
fn assert_sealed(name: &str, bytes: &[u8], len: usize, crc: u32, digest: u64) {
    assert_eq!(bytes.len(), len, "{name} length");
    let (body, trailer) = bytes.split_at(len - 4);
    assert_eq!(trailer, crc.to_le_bytes(), "{name} trailer");
    assert_eq!(crc32(body), crc, "{name} body CRC");
    assert_eq!(fnv1a(bytes), digest, "{name} digest");
}

fn client() -> SessionClient {
    SessionClient::new(1, 7, RetryPolicy::new(3, SimDuration::from_secs(1)))
}

#[test]
fn batch_frame_ack_and_checkpoint_bytes_are_frozen() {
    let payload = synthetic_batch(7, 3, 22);
    assert_sealed("SLTB", &payload, 1918, 0x373A_8365, 0x0DE6_03F4_82E4_6B89);
    let frame = client().batch(3, payload);
    assert_sealed("SLCS", &frame, 1949, 0x228B_7F35, 0x7168_096A_8379_E129);

    let mut server = CollectorServer::new(AdmissionConfig::generous());
    let mut collector = Collector::new();
    server.handle_frame(&mut collector, &client().hello(), SimTime::ZERO);
    let ack = server.handle_frame(&mut collector, &frame, SimTime::from_secs(1));
    assert_eq!(
        ack,
        [
            0x53, 0x4c, 0x43, 0x53, 0x01, 0x00, 0x03, // "SLCS", v1, ACK
            0x01, 0, 0, 0, 0, 0, 0, 0, // session 1
            0x03, 0, 0, 0, 0, 0, 0, 0, // seq 3
            0x01, 0, 0, 0, 0x01, // one payload byte: Accepted
            0x8a, 0x4e, 0x9e, 0xc5,
        ]
    );

    let blob = encode_server_checkpoint(&collector);
    assert_sealed("SLCP", &blob, 1933, 0x9260_BDAB, 0x8A73_64A3_C468_AEDB);
}

/// The borrowed parse is the whole of frame validation: on every
/// truncation and every single-bit flip it refuses exactly as the
/// owning decoder does.
#[test]
fn parse_and_decode_refuse_alike_on_every_truncation_and_bit_flip() {
    let frame = client().batch(3, synthetic_batch(7, 3, 22));
    let codes = |bytes: &[u8]| {
        (
            decode_frame(bytes).map(|_| ()).map_err(|e| e.code()),
            parse_frame(bytes).map(|_| ()).map_err(|e| e.code()),
        )
    };
    assert_eq!(codes(&frame), (Ok(()), Ok(())));
    for cut in 0..frame.len() {
        let (owned, borrowed) = codes(&frame[..cut]);
        assert_eq!(owned, Err("truncated"), "cut at {cut}");
        assert_eq!(borrowed, owned, "cut at {cut}");
    }
    let mut damaged = frame.clone();
    for bit in 0..frame.len() * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        let (owned, borrowed) = codes(&damaged);
        assert!(owned.is_err(), "flip of bit {bit} decoded");
        assert_eq!(borrowed, owned, "flip of bit {bit}");
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

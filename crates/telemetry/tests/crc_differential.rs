//! The shipped `wire::crc32` (a table kernel) against the bit-at-a-time
//! definition of CRC-32/IEEE. The ten-line reference lives only here:
//! it is the model, not a second product path.

use proptest::prelude::*;
use starlink_simcore::SimRng;
use starlink_telemetry::wire::crc32;

/// CRC-32 (IEEE 802.3, reflected), one bit at a time.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn seeded_bytes(label: &str, len: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from(0x5EED_C4C3).stream(label);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

#[test]
fn ieee_check_values() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

/// Every short length at every start offset: inputs too short to reach
/// the 16-byte block loop, its entry, and its exit into the byte tail
/// after one to four blocks.
#[test]
fn every_length_to_64_at_every_offset_to_16() {
    let buf = seeded_bytes("crc.short", 16 + 64);
    for offset in 0..16 {
        for len in 0..=64 {
            let slice = &buf[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "offset {offset} len {len}"
            );
        }
    }
}

/// `a` and `b` are each two whole blocks, so `a ‖ b` and `b ‖ a` hold
/// the same blocks in a different order: a kernel that dropped its
/// running state between blocks would give them the same CRC.
#[test]
fn the_running_state_crosses_block_boundaries() {
    let a = seeded_bytes("crc.a", 32);
    let b = seeded_bytes("crc.b", 32);
    let ab = [&a[..], &b[..]].concat();
    let ba = [&b[..], &a[..]].concat();
    assert_ne!(crc32(&ab), crc32(&ba));
    assert_eq!(crc32(&ab), crc32_bitwise(&ab));
    assert_eq!(crc32(&ba), crc32_bitwise(&ba));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_slices_up_to_64k_agree(seed in any::<u64>(), start in 0usize..16, len in 0usize..=(64 << 10)) {
        let mut rng = SimRng::seed_from(seed).stream("crc.slice");
        let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u32() as u8).collect();
        let slice = &buf[start..];
        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
    }
}

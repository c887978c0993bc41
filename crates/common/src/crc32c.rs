//! CRC32C (Castagnoli) with LevelDB's mask/unmask scheme.
//!
//! Log records and table footers are protected by CRC32C. LevelDB
//! additionally *masks* stored CRCs so that computing the CRC of a string
//! that itself contains embedded CRCs does not degrade the checksum; we
//! reproduce that behaviour bit-for-bit.

/// The Castagnoli polynomial, reflected.
const POLY: u32 = 0x82f6_3b78;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][i]` is `TABLES[0][i]` advanced over `k` more zero
/// bytes. One step then folds eight input bytes with eight independent
/// lookups instead of a chain of eight dependent ones.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Compute the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extend a running CRC32C with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Mask a CRC prior to storage (LevelDB trick).
pub fn mask(crc: u32) -> u32 {
    (crc.rotate_right(15)).wrapping_add(MASK_DELTA)
}

/// Undo [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113f_db5c);
    }

    #[test]
    fn standard_check_value() {
        // The canonical "123456789" check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"hello world, this is leveldb++";
        let whole = crc32c(data);
        let split = extend(crc32c(&data[..10]), &data[10..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        let crc = crc32c(b"foo");
        assert_ne!(mask(crc), crc);
        assert_eq!(unmask(mask(crc)), crc);
    }

    /// Byte-at-a-time reference with no tables: the definition of the
    /// reflected CRC, one bit per step.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    proptest! {
        #[test]
        fn prop_matches_reference_at_unaligned_offsets(
            buf in proptest::collection::vec(any::<u8>(), 72..73),
        ) {
            for off in 0..8 {
                for len in 0..=64 {
                    let data = &buf[off..off + len];
                    prop_assert_eq!(crc32c(data), reference(0, data));
                }
            }
        }

        #[test]
        fn prop_extend_matches_reference_at_every_split(
            data in proptest::collection::vec(any::<u8>(), 0..65),
            seed in any::<u32>(),
        ) {
            let whole = reference(seed, &data);
            prop_assert_eq!(extend(seed, &data), whole);
            for split in 0..=data.len() {
                let halves = extend(extend(seed, &data[..split]), &data[split..]);
                prop_assert_eq!(halves, whole);
            }
        }

        #[test]
        fn prop_mask_roundtrip(v in any::<u32>()) {
            prop_assert_eq!(unmask(mask(v)), v);
        }

        #[test]
        fn prop_extend_split(data in proptest::collection::vec(any::<u8>(), 0..256), split in 0usize..256) {
            let split = split.min(data.len());
            let whole = crc32c(&data);
            let halves = extend(crc32c(&data[..split]), &data[split..]);
            prop_assert_eq!(whole, halves);
        }
    }
}

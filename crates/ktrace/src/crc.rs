//! CRC-32 (IEEE 802.3 polynomial), the block integrity check.
//!
//! Table-driven, generated at compile time. The algorithm is pure
//! XOR/shift — no wrapping arithmetic — so it is klint-clean as written.

/// Reflected CRC-32 polynomial (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE, init `0xFFFF_FFFF`, final XOR).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xABu8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}

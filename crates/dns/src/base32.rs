//! Base32hex encoding without padding (RFC 4648 §7), as used for NSEC3
//! owner-name labels (RFC 5155 §1.3).

const ALPHABET: &[u8; 32] = b"0123456789ABCDEFGHIJKLMNOPQRSTUV";

/// Encodes bytes as base32hex without padding, uppercase.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(5) * 8);
    for chunk in data.chunks(5) {
        let mut buf = [0u8; 5];
        buf[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from(buf[0]) << 32
            | u64::from(buf[1]) << 24
            | u64::from(buf[2]) << 16
            | u64::from(buf[3]) << 8
            | u64::from(buf[4]);
        let out_chars = match chunk.len() {
            1 => 2,
            2 => 4,
            3 => 5,
            4 => 7,
            _ => 8,
        };
        for i in 0..out_chars {
            let shift = 35 - 5 * i;
            let idx = ((v >> shift) & 0x1f) as usize;
            out.push(ALPHABET[idx] as char);
        }
    }
    out
}

/// Decodes base32hex (case-insensitive, no padding). Returns `None` on
/// invalid characters or impossible lengths.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() * 5 / 8);
    let bytes = s.as_bytes();
    for chunk in bytes.chunks(8) {
        // Valid final-chunk lengths for unpadded base32: 2, 4, 5, 7, 8.
        let data_len = match chunk.len() {
            2 => 1,
            4 => 2,
            5 => 3,
            7 => 4,
            8 => 5,
            _ => return None,
        };
        let mut v: u64 = 0;
        for &c in chunk {
            let d = match c.to_ascii_uppercase() {
                b'0'..=b'9' => c - b'0',
                c @ b'A'..=b'V' => c - b'A' + 10,
                _ => return None,
            };
            v = (v << 5) | u64::from(d);
        }
        // Left-align the bits within the 40-bit group.
        v <<= 5 * (8 - chunk.len() as u64);
        let buf = [
            (v >> 32) as u8,
            (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ];
        out.extend_from_slice(&buf[..data_len]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_prop::{bytes, check};

    #[test]
    fn rfc4648_vectors() {
        // Test vectors from RFC 4648 §10 (base32hex, padding stripped).
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "CO");
        assert_eq!(encode(b"fo"), "CPNG");
        assert_eq!(encode(b"foo"), "CPNMU");
        assert_eq!(encode(b"foob"), "CPNMUOG");
        assert_eq!(encode(b"fooba"), "CPNMUOJ1");
        assert_eq!(encode(b"foobar"), "CPNMUOJ1E8");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("CO").unwrap(), b"f");
        assert_eq!(decode("cpnmuoj1e8").unwrap(), b"foobar");
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert!(decode("W").is_none()); // invalid length
        assert!(decode("C!").is_none()); // invalid char
        assert!(decode("CPZ").is_none()); // length 3 impossible
    }

    #[test]
    fn sha1_hash_width_is_32_chars() {
        // NSEC3 labels are base32hex of a 20-byte SHA-1 digest: 32 chars.
        assert_eq!(encode(&[0u8; 20]).len(), 32);
    }

    #[test]
    fn round_trip() {
        check("round_trip", 256, |rng| {
            let data = bytes(rng, 0..64);
            let enc = encode(&data);
            assert_eq!(decode(&enc).unwrap(), data);
        });
    }

    #[test]
    fn encoding_preserves_order() {
        check("encoding_preserves_order", 256, |rng| {
            let (a, b) = (bytes(rng, 20..21), bytes(rng, 20..21));
            // Base32hex preserves lexicographic ordering of equal-length
            // inputs — the property NSEC3 chains rely on.
            let (ea, eb) = (encode(&a), encode(&b));
            assert_eq!(a.cmp(&b), ea.cmp(&eb));
        });
    }
}

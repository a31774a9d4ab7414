//! The DNSSEC algorithm registry and DS digest types, with the
//! implementation-support metadata ZReplicator's algorithm-substitution
//! logic relies on (§5.5.1 of the paper).

use std::fmt;

use ddx_json::ToJson;

/// DNSSEC signing algorithms (IANA DNS Security Algorithm Numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub enum Algorithm {
    /// 3 — DSA/SHA1 (deprecated).
    Dsa,
    /// 5 — RSA/SHA-1 (deprecated by RFC 8624 but still seen).
    RsaSha1,
    /// 6 — DSA-NSEC3-SHA1 (deprecated, unsupported by modern BIND).
    DsaNsec3Sha1,
    /// 7 — RSASHA1-NSEC3-SHA1.
    RsaSha1Nsec3Sha1,
    /// 8 — RSA/SHA-256.
    RsaSha256,
    /// 10 — RSA/SHA-512.
    RsaSha512,
    /// 13 — ECDSA Curve P-256 with SHA-256.
    EcdsaP256Sha256,
    /// 14 — ECDSA Curve P-384 with SHA-384.
    EcdsaP384Sha384,
    /// 15 — Ed25519.
    Ed25519,
    /// 16 — Ed448.
    Ed448,
}

impl Algorithm {
    /// IANA algorithm number.
    pub fn code(self) -> u8 {
        match self {
            Algorithm::Dsa => 3,
            Algorithm::RsaSha1 => 5,
            Algorithm::DsaNsec3Sha1 => 6,
            Algorithm::RsaSha1Nsec3Sha1 => 7,
            Algorithm::RsaSha256 => 8,
            Algorithm::RsaSha512 => 10,
            Algorithm::EcdsaP256Sha256 => 13,
            Algorithm::EcdsaP384Sha384 => 14,
            Algorithm::Ed25519 => 15,
            Algorithm::Ed448 => 16,
        }
    }

    /// Maps an IANA number back; `None` for unmodeled codes.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            3 => Algorithm::Dsa,
            5 => Algorithm::RsaSha1,
            6 => Algorithm::DsaNsec3Sha1,
            7 => Algorithm::RsaSha1Nsec3Sha1,
            8 => Algorithm::RsaSha256,
            10 => Algorithm::RsaSha512,
            13 => Algorithm::EcdsaP256Sha256,
            14 => Algorithm::EcdsaP384Sha384,
            15 => Algorithm::Ed25519,
            16 => Algorithm::Ed448,
            _ => return None,
        })
    }

    /// BIND mnemonic, as passed to `dnssec-keygen -a`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Algorithm::Dsa => "DSA",
            Algorithm::RsaSha1 => "RSASHA1",
            Algorithm::DsaNsec3Sha1 => "DSA-NSEC3-SHA1",
            Algorithm::RsaSha1Nsec3Sha1 => "NSEC3RSASHA1",
            Algorithm::RsaSha256 => "RSASHA256",
            Algorithm::RsaSha512 => "RSASHA512",
            Algorithm::EcdsaP256Sha256 => "ECDSAP256SHA256",
            Algorithm::EcdsaP384Sha384 => "ECDSAP384SHA384",
            Algorithm::Ed25519 => "ED25519",
            Algorithm::Ed448 => "ED448",
        }
    }

    /// Whether a current BIND 9.18 can generate keys/signatures with this
    /// algorithm. DSA variants cannot — ZReplicator must substitute them
    /// (paper §5.5.1, "Algorithm-distribution constraints").
    pub fn supported_by_bind(self) -> bool {
        !matches!(self, Algorithm::Dsa | Algorithm::DsaNsec3Sha1)
    }

    /// True for RSA-family algorithms with operator-selectable key sizes.
    pub fn is_rsa(self) -> bool {
        matches!(
            self,
            Algorithm::RsaSha1
                | Algorithm::RsaSha1Nsec3Sha1
                | Algorithm::RsaSha256
                | Algorithm::RsaSha512
        )
    }

    /// Default key size in bits, mirroring `dnssec-keygen` defaults.
    pub fn default_key_bits(self) -> u16 {
        if self.is_rsa() {
            return 2048;
        }
        match self {
            Algorithm::Dsa | Algorithm::DsaNsec3Sha1 => 1024,
            Algorithm::EcdsaP256Sha256 => 256,
            Algorithm::EcdsaP384Sha384 => 384,
            Algorithm::Ed25519 => 256,
            Algorithm::Ed448 => 456,
            _ => unreachable!("RSA handled above"),
        }
    }

    /// Valid key sizes. Fixed-size algorithms accept exactly one value;
    /// RSA accepts a range (RFC 3110: 512–4096 in practice).
    pub fn key_bits_valid(self, bits: u16) -> bool {
        if self.is_rsa() {
            return (512..=4096).contains(&bits) && bits.is_multiple_of(8);
        }
        match self {
            Algorithm::Dsa | Algorithm::DsaNsec3Sha1 => {
                (512..=1024).contains(&bits) && bits.is_multiple_of(64)
            }
            other => bits == other.default_key_bits(),
        }
    }

    /// Signature length in octets produced by this algorithm (for a given
    /// key size). The simulation pads/derives signatures to this exact
    /// length so "Bad Signature Length" checks are meaningful.
    pub(crate) fn signature_len(self, key_bits: u16) -> usize {
        if self.is_rsa() {
            return usize::from(key_bits / 8);
        }
        match self {
            Algorithm::Dsa | Algorithm::DsaNsec3Sha1 => 41,
            Algorithm::EcdsaP256Sha256 => 64,
            Algorithm::EcdsaP384Sha384 => 96,
            Algorithm::Ed25519 => 64,
            Algorithm::Ed448 => 114,
            _ => unreachable!("RSA handled above"),
        }
    }

    /// Preferred substitutes when this algorithm cannot be generated
    /// locally, in the order the paper lists (RSASHA256, ECDSAP256SHA256).
    pub fn substitutes(self) -> &'static [Algorithm] {
        &[Algorithm::RsaSha256, Algorithm::EcdsaP256Sha256]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.mnemonic(), self.code())
    }
}

/// DS digest types (IANA Delegation Signer Digest Algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson)]
pub enum DigestType {
    /// 1 — SHA-1 (20-octet digest).
    Sha1,
    /// 2 — SHA-256 (32-octet digest).
    Sha256,
    /// 4 — SHA-384 (48-octet digest).
    Sha384,
}

impl DigestType {
    pub fn code(self) -> u8 {
        match self {
            DigestType::Sha1 => 1,
            DigestType::Sha256 => 2,
            DigestType::Sha384 => 4,
        }
    }

    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => DigestType::Sha1,
            2 => DigestType::Sha256,
            4 => DigestType::Sha384,
            _ => return None,
        })
    }

    /// `dnssec-dsfromkey` flag selecting this digest (`-1`, `-2`, `-a ...`).
    pub fn dsfromkey_flag(self) -> &'static str {
        match self {
            DigestType::Sha1 => "-1",
            DigestType::Sha256 => "-2",
            DigestType::Sha384 => "-a SHA-384",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        let modeled: Vec<Algorithm> = (0..=u8::MAX).filter_map(Algorithm::from_code).collect();
        assert_eq!(modeled.len(), 10);
        for alg in modeled {
            assert_eq!(Algorithm::from_code(alg.code()), Some(alg));
        }
        assert_eq!(Algorithm::from_code(0), None);
        assert_eq!(Algorithm::from_code(17), None);
    }

    #[test]
    fn dsa_unsupported_by_bind() {
        assert!(!Algorithm::Dsa.supported_by_bind());
        assert!(!Algorithm::DsaNsec3Sha1.supported_by_bind());
        assert!(Algorithm::RsaSha256.supported_by_bind());
        assert!(Algorithm::Ed25519.supported_by_bind());
    }

    #[test]
    fn key_size_validation() {
        assert!(Algorithm::RsaSha256.key_bits_valid(2048));
        assert!(Algorithm::RsaSha256.key_bits_valid(1024));
        assert!(!Algorithm::RsaSha256.key_bits_valid(100));
        assert!(!Algorithm::RsaSha256.key_bits_valid(8192));
        assert!(Algorithm::EcdsaP256Sha256.key_bits_valid(256));
        assert!(!Algorithm::EcdsaP256Sha256.key_bits_valid(384));
        assert!(Algorithm::Ed448.key_bits_valid(456));
    }

    #[test]
    fn signature_lengths() {
        assert_eq!(Algorithm::RsaSha256.signature_len(2048), 256);
        assert_eq!(Algorithm::EcdsaP256Sha256.signature_len(256), 64);
        assert_eq!(Algorithm::Ed25519.signature_len(256), 64);
        assert_eq!(Algorithm::Ed448.signature_len(456), 114);
    }

    #[test]
    fn digest_types() {
        for d in [DigestType::Sha1, DigestType::Sha256, DigestType::Sha384] {
            assert_eq!(DigestType::from_code(d.code()), Some(d));
        }
        assert_eq!(DigestType::from_code(3), None);
    }
}

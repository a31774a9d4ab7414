//! DS record construction and matching (RFC 4034 §5). Digests are computed
//! with the real SHA-1/SHA-256/SHA-384 over `canonical(owner) ‖ DNSKEY
//! RDATA`, so digest-mismatch errors behave exactly as in production.

use crate::sha::{Digest, Sha1, Sha256, Sha384};

use ddx_dns::{Dnskey, Ds, Name, RData};

use crate::algorithm::DigestType;

/// Computes the DS digest for `dnskey` owned by `owner`.
pub(crate) fn compute_digest(owner: &Name, dnskey: &Dnskey, digest_type: DigestType) -> Vec<u8> {
    let mut input = owner.canonical_wire();
    input.extend(RData::Dnskey(dnskey.clone()).to_wire());
    match digest_type {
        DigestType::Sha1 => Sha1::digest(&input).to_vec(),
        DigestType::Sha256 => Sha256::digest(&input).to_vec(),
        DigestType::Sha384 => Sha384::digest(&input).to_vec(),
    }
}

/// Builds the DS record for a DNSKEY (what `dnssec-dsfromkey` prints).
pub fn make_ds(owner: &Name, dnskey: &Dnskey, digest_type: DigestType) -> Ds {
    Ds {
        key_tag: dnskey.key_tag(),
        algorithm: dnskey.algorithm,
        digest_type: digest_type.code(),
        digest: compute_digest(owner, dnskey, digest_type),
    }
}

/// How a DS record relates to a candidate DNSKEY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsMatch {
    /// Tag, algorithm, and digest all check out.
    Match,
    /// Key tag differs: this DS does not reference this key.
    TagMismatch,
    /// Tag matches but the algorithm field disagrees with the key.
    AlgorithmMismatch,
    /// Tag and algorithm match but the digest does not verify.
    DigestMismatch,
    /// The digest type is unknown, so the DS cannot be validated.
    UnsupportedDigest,
}

/// Checks whether `ds` authenticates `dnskey` at `owner`.
pub fn check_ds(owner: &Name, ds: &Ds, dnskey: &Dnskey) -> DsMatch {
    if ds.key_tag != dnskey.key_tag() {
        return DsMatch::TagMismatch;
    }
    if ds.algorithm != dnskey.algorithm {
        return DsMatch::AlgorithmMismatch;
    }
    let Some(dt) = DigestType::from_code(ds.digest_type) else {
        return DsMatch::UnsupportedDigest;
    };
    if compute_digest(owner, dnskey, dt) == ds.digest {
        DsMatch::Match
    } else {
        DsMatch::DigestMismatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::keys::{KeyPair, KeyRole};
    use ddx_dns::name;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ksk() -> KeyPair {
        KeyPair::generate(
            &mut StdRng::seed_from_u64(10),
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Ksk,
            0,
        )
    }

    #[test]
    fn ds_round_trip_all_digests() {
        let k = ksk();
        for (dt, len) in [
            (DigestType::Sha1, 20),
            (DigestType::Sha256, 32),
            (DigestType::Sha384, 48),
        ] {
            let ds = make_ds(&name("example.com"), &k.dnskey, dt);
            assert_eq!(ds.digest.len(), len);
            assert_eq!(
                check_ds(&name("example.com"), &ds, &k.dnskey),
                DsMatch::Match
            );
        }
    }

    #[test]
    fn digest_depends_on_owner() {
        let k = ksk();
        let ds = make_ds(&name("example.com"), &k.dnskey, DigestType::Sha256);
        assert_eq!(
            check_ds(&name("other.com"), &ds, &k.dnskey),
            DsMatch::DigestMismatch
        );
    }

    #[test]
    fn owner_case_is_canonicalized() {
        let k = ksk();
        let ds = make_ds(&name("EXAMPLE.com"), &k.dnskey, DigestType::Sha256);
        assert_eq!(
            check_ds(&name("example.COM"), &ds, &k.dnskey),
            DsMatch::Match
        );
    }

    #[test]
    fn tag_mismatch_detected() {
        let k = ksk();
        let mut ds = make_ds(&name("example.com"), &k.dnskey, DigestType::Sha256);
        ds.key_tag = ds.key_tag.wrapping_add(1);
        assert_eq!(
            check_ds(&name("example.com"), &ds, &k.dnskey),
            DsMatch::TagMismatch
        );
    }

    #[test]
    fn algorithm_mismatch_detected() {
        let k = ksk();
        let mut ds = make_ds(&name("example.com"), &k.dnskey, DigestType::Sha256);
        ds.algorithm = 8;
        assert_eq!(
            check_ds(&name("example.com"), &ds, &k.dnskey),
            DsMatch::AlgorithmMismatch
        );
    }

    #[test]
    fn corrupted_digest_detected() {
        let k = ksk();
        let mut ds = make_ds(&name("example.com"), &k.dnskey, DigestType::Sha256);
        ds.digest[0] ^= 0xFF;
        assert_eq!(
            check_ds(&name("example.com"), &ds, &k.dnskey),
            DsMatch::DigestMismatch
        );
    }

    #[test]
    fn unsupported_digest_type() {
        let k = ksk();
        let mut ds = make_ds(&name("example.com"), &k.dnskey, DigestType::Sha256);
        ds.digest_type = 250;
        assert_eq!(
            check_ds(&name("example.com"), &ds, &k.dnskey),
            DsMatch::UnsupportedDigest
        );
    }
}

//! RRset signing and verification.
//!
//! Signatures are deterministic keyed hashes (see DESIGN.md §4): the
//! "signature" over an RRset is `SHA-256(tag ‖ DNSKEY RDATA ‖ signing
//! payload)` expanded to the algorithm's true signature length. A verifier
//! holding the DNSKEY recomputes and compares. All validation-failure modes
//! the paper measures are metadata-level and behave exactly as with real
//! asymmetric crypto.

use std::cell::RefCell;

use crate::sha::{Digest, Sha256};
use ddx_json::{FromJson, ToJson};

use ddx_dns::{CanonicalScratch, Dnskey, Name, RRset, RrType, Rrsig};

use crate::algorithm::Algorithm;
use crate::keys::KeyPair;

/// Domain-separation tag baked into every simulated signature.
const SIG_TAG: &[u8] = b"ddx-sim-rrsig-v1";

/// Why a signature failed to verify. The variants deliberately mirror the
/// distinctions DNSViz error codes draw. Serialized as part of the grok
/// report's typed `ErrorDetail` payloads (defined downstream in
/// `ddx-dnsviz`, which this crate cannot link to).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub enum VerifyError {
    /// `now` is past the expiration field.
    Expired { expiration: u32, now: u32 },
    /// `now` is before the inception field.
    NotYetValid { inception: u32, now: u32 },
    /// RRSIG key tag does not match the DNSKEY's tag.
    KeyTagMismatch { rrsig: u16, dnskey: u16 },
    /// RRSIG algorithm differs from the DNSKEY algorithm.
    AlgorithmMismatch { rrsig: u8, dnskey: u8 },
    /// Signer name is not the owner of the DNSKEY.
    SignerMismatch { signer: Name, zone: Name },
    /// The RRSIG Labels field exceeds the owner name's label count.
    BadLabelCount { labels: u8, owner_labels: u8 },
    /// Signature bytes have the wrong length for the algorithm.
    BadSignatureLength { expected: usize, actual: usize },
    /// The DNSKEY lacks the Zone Key flag (RFC 4034 §2.1.1).
    NotZoneKey,
    /// The DNSKEY carries the REVOKE bit (RFC 5011): unusable as trust.
    Revoked,
    /// The cryptographic check itself failed (content or key mismatch).
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Expired { expiration, now } => {
                write!(f, "signature expired at {expiration}, now {now}")
            }
            VerifyError::NotYetValid { inception, now } => {
                write!(f, "signature not valid before {inception}, now {now}")
            }
            VerifyError::KeyTagMismatch { rrsig, dnskey } => {
                write!(f, "key tag mismatch: rrsig {rrsig} vs dnskey {dnskey}")
            }
            VerifyError::AlgorithmMismatch { rrsig, dnskey } => {
                write!(f, "algorithm mismatch: rrsig {rrsig} vs dnskey {dnskey}")
            }
            VerifyError::SignerMismatch { signer, zone } => {
                write!(f, "signer {signer} is not zone {zone}")
            }
            VerifyError::BadLabelCount {
                labels,
                owner_labels,
            } => write!(f, "labels field {labels} > owner labels {owner_labels}"),
            VerifyError::BadSignatureLength { expected, actual } => {
                write!(f, "signature length {actual}, expected {expected}")
            }
            VerifyError::NotZoneKey => write!(f, "DNSKEY lacks zone-key flag"),
            VerifyError::Revoked => write!(f, "DNSKEY is revoked"),
            VerifyError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Computes the simulated signature bytes for a payload under a key
/// (passed as its DNSKEY RDATA wire form, encoded once by the caller),
/// expanded to the algorithm's natural signature length.
fn raw_signature(dnskey_wire: &[u8], payload: &[u8], sig_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(sig_len);
    let mut counter: u32 = 0;
    while out.len() < sig_len {
        let mut h = Sha256::new();
        h.update(SIG_TAG);
        h.update(counter.to_be_bytes());
        h.update(dnskey_wire);
        h.update(payload);
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(sig_len);
    out
}

thread_local! {
    /// Encoder buffers reused across the free-function sign/verify paths,
    /// so per-call allocation drops to zero after warm-up.
    static SCRATCH: RefCell<(CanonicalScratch, Vec<u8>, Vec<u8>)> = RefCell::new(Default::default());
}

/// Signature length for an algorithm code, with the historical fallback of
/// 32 bytes for unknown codes.
fn signature_len(algorithm: u8, key_bits: u16) -> usize {
    Algorithm::from_code(algorithm)
        .map(|a| a.signature_len(key_bits))
        .unwrap_or(32)
}

/// Options controlling RRSIG generation.
#[derive(Debug, Clone, Copy)]
pub struct SignOptions {
    /// Inception timestamp.
    pub inception: u32,
    /// Expiration timestamp.
    pub expiration: u32,
}

/// Builds the RRSIG with every field set except the signature bytes.
fn rrsig_template(rrset: &RRset, key: &KeyPair, opts: SignOptions) -> Rrsig {
    // RFC 4034 §3.1.3: the Labels field excludes the root label and any
    // leftmost `*` label, so wildcard-synthesized answers can be validated.
    let mut label_count = rrset.name.label_count() as u8;
    if rrset
        .name
        .labels()
        .first()
        .map(|l| l.as_bytes() == b"*")
        .unwrap_or(false)
    {
        label_count -= 1;
    }
    Rrsig {
        type_covered: rrset.rtype,
        algorithm: key.dnskey.algorithm,
        labels: label_count,
        original_ttl: rrset.ttl,
        expiration: opts.expiration,
        inception: opts.inception,
        key_tag: key.key_tag(),
        signer_name: key.zone.clone(),
        signature: Vec::new(),
    }
}

/// Signs an RRset with `key`, producing an RRSIG whose signer is the key's
/// zone. The RRSIG `labels` field is derived from the owner name.
pub fn sign_rrset(rrset: &RRset, key: &KeyPair, opts: SignOptions) -> Rrsig {
    let mut rrsig = rrsig_template(rrset, key, opts);
    let sig_len = signature_len(key.dnskey.algorithm, key.key_bits);
    rrsig.signature = SCRATCH.with(|s| {
        let (canon, payload, key_wire) = &mut *s.borrow_mut();
        rrset.signing_payload_with(&rrsig, canon, payload);
        key_wire.clear();
        key.dnskey.wire_into(key_wire);
        raw_signature(key_wire, payload, sig_len)
    });
    rrsig
}

/// Verifies an RRSIG over an RRset against a candidate DNSKEY owned by
/// `zone`, at validation time `now`.
///
/// Checks are ordered from metadata to cryptography so the caller learns the
/// most specific failure, mirroring how DNSViz distinguishes error codes.
pub fn verify_rrset(
    rrset: &RRset,
    rrsig: &Rrsig,
    dnskey: &Dnskey,
    zone: &Name,
    now: u32,
) -> Result<(), VerifyError> {
    // Ledger first: every *attempted* verification is one unit of logical
    // work, whichever check rejects it — KeyTrap-style zones do their
    // damage with signatures that fail early.
    crate::workload::record_sig_verification();
    if rrsig.key_tag != dnskey.key_tag() {
        return Err(VerifyError::KeyTagMismatch {
            rrsig: rrsig.key_tag,
            dnskey: dnskey.key_tag(),
        });
    }
    if rrsig.algorithm != dnskey.algorithm {
        return Err(VerifyError::AlgorithmMismatch {
            rrsig: rrsig.algorithm,
            dnskey: dnskey.algorithm,
        });
    }
    if &rrsig.signer_name != zone {
        return Err(VerifyError::SignerMismatch {
            signer: rrsig.signer_name.clone(),
            zone: zone.clone(),
        });
    }
    if !dnskey.is_zone_key() {
        return Err(VerifyError::NotZoneKey);
    }
    if dnskey.is_revoked() && rrsig.type_covered != RrType::Dnskey {
        // A revoked key may still self-sign the DNSKEY RRset (RFC 5011),
        // but must not authenticate anything else.
        return Err(VerifyError::Revoked);
    }
    let owner_labels = rrset.name.label_count() as u8;
    if rrsig.labels > owner_labels {
        return Err(VerifyError::BadLabelCount {
            labels: rrsig.labels,
            owner_labels,
        });
    }
    // RFC 4035 §5.3.2: fewer labels than the owner name means the answer
    // was synthesized from a wildcard; reconstruct `*.<suffix>` for the
    // canonical signing form.
    let effective = if rrsig.labels < owner_labels
        && !rrset
            .name
            .labels()
            .first()
            .map(|l| l.as_bytes() == b"*")
            .unwrap_or(false)
    {
        let keep = rrsig.labels as usize;
        let labels = rrset.name.labels();
        let suffix = Name::from_labels(labels[labels.len() - keep..].to_vec())
            .map_err(|_| VerifyError::BadSignature)?;
        let wildcard = suffix.child("*").map_err(|_| VerifyError::BadSignature)?;
        let mut clone = rrset.clone();
        clone.name = wildcard;
        Some(clone)
    } else {
        None
    };
    let rrset = effective.as_ref().unwrap_or(rrset);
    if rrsig.inception > now {
        return Err(VerifyError::NotYetValid {
            inception: rrsig.inception,
            now,
        });
    }
    if rrsig.expiration < now {
        return Err(VerifyError::Expired {
            expiration: rrsig.expiration,
            now,
        });
    }
    let expected_len = signature_len(dnskey.algorithm, (dnskey.public_key.len() * 8) as u16);
    if rrsig.signature.len() != expected_len {
        return Err(VerifyError::BadSignatureLength {
            expected: expected_len,
            actual: rrsig.signature.len(),
        });
    }
    let matches = SCRATCH.with(|s| {
        let (canon, payload, key_wire) = &mut *s.borrow_mut();
        rrset.signing_payload_with(rrsig, canon, payload);
        key_wire.clear();
        dnskey.wire_into(key_wire);
        raw_signature(key_wire, payload, expected_len) == rrsig.signature
    });
    if !matches {
        return Err(VerifyError::BadSignature);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyRole;
    use ddx_dns::{name, RData, Record};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn key(seed: u64) -> KeyPair {
        KeyPair::generate(
            &mut StdRng::seed_from_u64(seed),
            name("example.com"),
            Algorithm::RsaSha256,
            2048,
            KeyRole::Zsk,
            0,
        )
    }

    fn rrset() -> RRset {
        RRset::from_records(&[
            Record::new(
                name("www.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ),
            Record::new(
                name("www.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 2)),
            ),
        ])
        .unwrap()
    }

    const OPTS: SignOptions = SignOptions {
        inception: 1000,
        expiration: 100_000,
    };

    #[test]
    fn sign_verify_round_trip() {
        let k = key(1);
        let rs = rrset();
        let sig = sign_rrset(&rs, &k, OPTS);
        assert_eq!(sig.signature.len(), 256);
        assert_eq!(sig.labels, 3);
        verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000).unwrap();
    }

    #[test]
    fn verify_is_rdata_order_insensitive() {
        let k = key(1);
        let rs = rrset();
        let sig = sign_rrset(&rs, &k, OPTS);
        let mut shuffled = rs.clone();
        shuffled.rdatas.reverse();
        verify_rrset(&shuffled, &sig, &k.dnskey, &name("example.com"), 5000).unwrap();
    }

    #[test]
    fn expired_and_not_yet_valid() {
        let k = key(1);
        let rs = rrset();
        let sig = sign_rrset(&rs, &k, OPTS);
        assert!(matches!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 100_001),
            Err(VerifyError::Expired { .. })
        ));
        assert!(matches!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 999),
            Err(VerifyError::NotYetValid { .. })
        ));
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = key(1);
        let k2 = key(2);
        let rs = rrset();
        let sig = sign_rrset(&rs, &k1, OPTS);
        assert!(matches!(
            verify_rrset(&rs, &sig, &k2.dnskey, &name("example.com"), 5000),
            Err(VerifyError::KeyTagMismatch { .. })
        ));
    }

    #[test]
    fn tampered_content_fails() {
        let k = key(1);
        let rs = rrset();
        let sig = sign_rrset(&rs, &k, OPTS);
        let mut tampered = rs.clone();
        tampered.rdatas[0] = RData::A(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(
            verify_rrset(&tampered, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let k = key(1);
        let rs = rrset();
        let mut sig = sign_rrset(&rs, &k, OPTS);
        sig.signature[0] ^= 0xFF;
        assert_eq!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn wrong_signer_name() {
        let k = key(1);
        let rs = rrset();
        let mut sig = sign_rrset(&rs, &k, OPTS);
        sig.signer_name = name("evil.com");
        assert!(matches!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::SignerMismatch { .. })
        ));
    }

    #[test]
    fn bad_signature_length() {
        let k = key(1);
        let rs = rrset();
        let mut sig = sign_rrset(&rs, &k, OPTS);
        sig.signature.truncate(10);
        assert!(matches!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::BadSignatureLength {
                expected: 256,
                actual: 10
            })
        ));
    }

    #[test]
    fn bad_label_count() {
        let k = key(1);
        let rs = rrset();
        let mut sig = sign_rrset(&rs, &k, OPTS);
        sig.labels = 9;
        // Recompute signature so only the label check can fail... it will
        // fail before crypto anyway because labels is checked first.
        assert!(matches!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::BadLabelCount {
                labels: 9,
                owner_labels: 3
            })
        ));
    }

    #[test]
    fn revoked_key_cannot_sign_data() {
        let mut k = key(1);
        let rs = rrset();
        k.revoke();
        let sig = sign_rrset(&rs, &k, OPTS);
        assert_eq!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::Revoked)
        );
    }

    #[test]
    fn revoked_key_may_self_sign_dnskey_rrset() {
        let mut k = key(1);
        k.revoke();
        let dnskey_set =
            RRset::singleton(name("example.com"), 3600, RData::Dnskey(k.dnskey.clone()));
        let sig = sign_rrset(&dnskey_set, &k, OPTS);
        verify_rrset(&dnskey_set, &sig, &k.dnskey, &name("example.com"), 5000).unwrap();
    }

    #[test]
    fn non_zone_key_rejected() {
        let mut k = key(1);
        let rs = rrset();
        k.dnskey.flags &= !ddx_dns::DNSKEY_FLAG_ZONE;
        let sig = sign_rrset(&rs, &k, OPTS);
        assert_eq!(
            verify_rrset(&rs, &sig, &k.dnskey, &name("example.com"), 5000),
            Err(VerifyError::NotZoneKey)
        );
    }

    #[test]
    fn ecdsa_signature_length() {
        let k = KeyPair::generate(
            &mut StdRng::seed_from_u64(3),
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Zsk,
            0,
        );
        let sig = sign_rrset(&rrset(), &k, OPTS);
        assert_eq!(sig.signature.len(), 64);
        verify_rrset(&rrset(), &sig, &k.dnskey, &name("example.com"), 5000).unwrap();
    }
}

//! Error injectors: one per replicable [`ErrorCode`], each performing the
//! surgical zone-file tampering (paper §4.5 step 3) that makes the sandbox
//! exhibit exactly that misconfiguration — expired-but-cryptographically-
//! valid signatures, stale DS records, divergent server copies, broken
//! denial chains, and so on.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ddx_dns::{base32, Name, RData, Record, RrType};
use ddx_dnssec::{
    make_ds, nsec3_hash, resign_rrset, sigs_covering, Algorithm, DigestType, KeyPair, KeyRole,
    SignOptions, VerifyError, DNSKEY_TTL,
};
use ddx_dnsviz::{AlgorithmScope, DsProblem, ErrorCode, ErrorDetail};
use ddx_server::Sandbox;

/// Why an intended error could not be injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The code is one of the paper's unreplicable anomalies (§5.5.1).
    Unreplicable,
    /// The code needs an NSEC zone but the meta demanded NSEC3 (or vice
    /// versa).
    DenialModeMismatch,
    /// The sandbox lacks the key material the injection requires.
    MissingKeyMaterial,
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::Unreplicable => write!(f, "unreplicable in a local sandbox"),
            SkipReason::DenialModeMismatch => write!(f, "requires the other denial mechanism"),
            SkipReason::MissingKeyMaterial => write!(f, "sandbox lacks required key material"),
        }
    }
}

/// A stable ordering so that multi-error injections do not stomp each
/// other: key-set surgery first, then DS manipulation, then signature
/// tampering, then denial-chain tampering.
pub(crate) fn injection_phase(code: ErrorCode) -> u8 {
    use ErrorCode::*;
    match code {
        // Whole-zone re-signs (parameter changes) must come before any
        // surgical tampering they would otherwise erase.
        Nsec3IterationsNonzero => 0,
        // Key-set surgery (may re-sign the DNSKEY RRset).
        RevokedKeyInUse
        | DsReferencesRevokedKey
        | DnskeyRevokedNoOtherSep
        | KeyLengthTooShort
        | DnskeyAlgorithmWithoutRrsig
        | RrsigAlgorithmWithoutDnskey
        | DsAlgorithmWithoutRrsig => 1,
        // Parent-side DS manipulation.
        DsMissingKeyForAlgorithm
        | NoSepForDsAlgorithm
        | DnskeyMissingForDs
        | NoSecureEntryPoint
        | DsDigestInvalid
        | DsAlgorithmMismatch
        | DsUnknownDigestType => 2,
        // Per-server divergence.
        DnskeyMissingFromServers | DnskeyInconsistentRrset | RrsigMissingFromServers => 3,
        // Signature tampering.
        RrsigMissing
        | RrsigMissingForDnskey
        | RrsigExpired
        | RrsigInvalid
        | RrsigInvalidRdata
        | RrsigUnknownKeyTag
        | RrsigSignerMismatch
        | RrsigNotYetValid
        | RrsigLabelsExceedOwner
        | RrsigBadLength
        | OriginalTtlExceeded
        | TtlBeyondSignatureExpiry => 4,
        // Denial-chain tampering last.
        _ => 5,
    }
}

fn zsk(sb: &Sandbox, apex: &Name, now: u32) -> Option<KeyPair> {
    let ring = &sb.zone(apex)?.ring;
    ring.active(KeyRole::Zsk, now)
        .first()
        .or(ring.active(KeyRole::Ksk, now).first())
        .map(|k| (*k).clone())
}

fn ksk(sb: &Sandbox, apex: &Name, now: u32) -> Option<KeyPair> {
    let ring = &sb.zone(apex)?.ring;
    ring.active(KeyRole::Ksk, now)
        .first()
        .or(ring.active(KeyRole::Zsk, now).first())
        .map(|k| (*k).clone())
}

fn window(now: u32) -> SignOptions {
    SignOptions {
        inception: now.saturating_sub(3600),
        expiration: now + 30 * 86_400,
    }
}

/// Re-signs the DNSKEY RRset at the leaf apex after key-set surgery.
fn resign_dnskey(sb: &mut Sandbox, apex: &Name, now: u32) {
    let Some(signer) = ksk(sb, apex, now) else {
        return;
    };
    let opts = window(now);
    sb.testbed.mutate_zone_everywhere(apex, |zone| {
        resign_rrset(zone, apex, RrType::Dnskey, &signer, opts);
    });
}

/// An unpublished throwaway key of the given algorithm for this zone.
fn foreign_key(apex: &Name, algorithm: Algorithm, role: KeyRole, now: u32, seed: u64) -> KeyPair {
    KeyPair::generate(
        &mut StdRng::seed_from_u64(seed),
        apex.clone(),
        algorithm,
        algorithm.default_key_bits(),
        role,
        now,
    )
}

/// The algorithm of the leaf's primary KSK (used to pick a *different* one).
fn other_algorithm(sb: &Sandbox, apex: &Name, now: u32) -> Algorithm {
    let used: Vec<u8> = sb
        .zone(apex)
        .map(|z| z.ring.algorithms(now))
        .unwrap_or_default();
    [
        Algorithm::RsaSha256,
        Algorithm::EcdsaP256Sha256,
        Algorithm::RsaSha512,
        Algorithm::Ed25519,
    ]
    .into_iter()
    .find(|a| !used.contains(&a.code()))
    .unwrap_or(Algorithm::RsaSha512)
}

/// Whether the leaf zone currently runs NSEC3.
fn leaf_uses_nsec3(sb: &Sandbox, apex: &Name) -> bool {
    sb.zone(apex)
        .map(|z| z.spec.nsec3.is_some())
        .unwrap_or(false)
}

/// Injects `code` into the leaf zone of the sandbox.
///
/// On success the sandbox's servers exhibit the misconfiguration and the
/// returned [`ErrorDetail`] describes the *intended* finding — the typed
/// payload grok is expected to reproduce (or [`ErrorDetail::None`] when the
/// injection has no single natural payload). A subsequent probe+grok run
/// should list `code` among the leaf-zone errors (possibly alongside benign
/// companion errors, per the paper's footnote 4).
pub(crate) fn inject(
    sb: &mut Sandbox,
    code: ErrorCode,
    now: u32,
) -> Result<ErrorDetail, SkipReason> {
    use ErrorCode::*;
    if !code.replicable() {
        return Err(SkipReason::Unreplicable);
    }
    let apex = sb.leaf().apex.clone();
    let www = apex.child("www").expect("label fits");
    let detail = match code {
        // ----------------------------------------------------- delegation
        DsMissingKeyForAlgorithm => {
            // Extra DS referencing an algorithm absent from the zone (the
            // paper's footnote-4 construction).
            let alg = other_algorithm(sb, &apex, now);
            let ghost = foreign_key(&apex, alg, KeyRole::Ksk, now, 0xD5_01);
            let ds = make_ds(&apex, &ghost.dnskey, DigestType::Sha256);
            let detail = ErrorDetail::DsLink {
                key_tag: ds.key_tag,
                algorithm: ds.algorithm,
                digest_type: ds.digest_type,
                problem: DsProblem::AlgorithmUnmatched,
            };
            let mut ds_set = current_ds(sb, &apex);
            ds_set.push(ds);
            sb.set_ds(&apex, ds_set, now);
            detail
        }
        NoSepForDsAlgorithm => {
            // DS generated from the ZSK instead of the KSK.
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            if key.dnskey.is_sep() {
                return Err(SkipReason::MissingKeyMaterial);
            }
            let ds = make_ds(&apex, &key.dnskey, DigestType::Sha256);
            let detail = ErrorDetail::DsLink {
                key_tag: ds.key_tag,
                algorithm: ds.algorithm,
                digest_type: ds.digest_type,
                problem: DsProblem::MissingSepFlag,
            };
            sb.set_ds(&apex, vec![ds], now);
            detail
        }
        DnskeyMissingForDs => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.strip_type(RrType::Dnskey);
            });
            ErrorDetail::NoDnskeyForDs
        }
        NoSecureEntryPoint | DsDigestInvalid => {
            // Corrupt the digest of every DS: tag+algorithm still match, the
            // hash does not.
            let mut ds_set = current_ds(sb, &apex);
            if ds_set.is_empty() {
                return Err(SkipReason::MissingKeyMaterial);
            }
            for ds in &mut ds_set {
                if let Some(b) = ds.digest.first_mut() {
                    *b ^= 0xFF;
                }
            }
            let detail = ErrorDetail::DsLink {
                key_tag: ds_set[0].key_tag,
                algorithm: ds_set[0].algorithm,
                digest_type: ds_set[0].digest_type,
                problem: DsProblem::DigestMismatch,
            };
            sb.set_ds(&apex, ds_set, now);
            detail
        }
        DsAlgorithmMismatch => {
            let mut ds_set = current_ds(sb, &apex);
            if ds_set.is_empty() {
                return Err(SkipReason::MissingKeyMaterial);
            }
            // Flip the algorithm field only; key tag stays.
            for ds in &mut ds_set {
                ds.algorithm = if ds.algorithm == 8 { 13 } else { 8 };
            }
            let detail = ErrorDetail::DsLink {
                key_tag: ds_set[0].key_tag,
                algorithm: ds_set[0].algorithm,
                digest_type: ds_set[0].digest_type,
                problem: DsProblem::AlgorithmDisagrees,
            };
            sb.set_ds(&apex, ds_set, now);
            detail
        }
        DsUnknownDigestType => {
            let mut ds_set = current_ds(sb, &apex);
            if ds_set.is_empty() {
                return Err(SkipReason::MissingKeyMaterial);
            }
            for ds in &mut ds_set {
                ds.digest_type = 250;
            }
            let detail = ErrorDetail::DsLink {
                key_tag: ds_set[0].key_tag,
                algorithm: ds_set[0].algorithm,
                digest_type: 250,
                problem: DsProblem::UnsupportedDigest,
            };
            sb.set_ds(&apex, ds_set, now);
            detail
        }
        // ------------------------------------------------------------ key
        DnskeyMissingFromServers => {
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let server = sb
                .leaf()
                .servers
                .first()
                .cloned()
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let zone = sb
                .testbed
                .server_mut(&server)
                .and_then(|s| s.zone_mut(&apex))
                .ok_or(SkipReason::MissingKeyMaterial)?;
            zone.remove_rdata(&apex, &RData::Dnskey(key.dnskey.clone()));
            ErrorDetail::ServerKeySetDiffers {
                server,
                disjoint: false,
            }
        }
        DnskeyInconsistentRrset => {
            // Server 0 gets a completely different ZSK published (disjoint
            // key material) while keeping its signatures intact.
            let rogue = foreign_key(
                &apex,
                Algorithm::EcdsaP256Sha256,
                KeyRole::Zsk,
                now,
                0xD5_02,
            );
            let old = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let server = sb
                .leaf()
                .servers
                .first()
                .cloned()
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let zone = sb
                .testbed
                .server_mut(&server)
                .and_then(|s| s.zone_mut(&apex))
                .ok_or(SkipReason::MissingKeyMaterial)?;
            zone.remove_rdata(&apex, &RData::Dnskey(old.dnskey.clone()));
            zone.add(Record::new(
                apex.clone(),
                DNSKEY_TTL,
                RData::Dnskey(rogue.dnskey.clone()),
            ));
            // Also perturb the KSK on that server so neither set contains
            // the other.
            let ksk_key = ksk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let zone = sb
                .testbed
                .server_mut(&server)
                .and_then(|s| s.zone_mut(&apex))
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let _ = ksk_key;
            let rogue_ksk = foreign_key(
                &apex,
                Algorithm::EcdsaP256Sha256,
                KeyRole::Ksk,
                now,
                0xD5_03,
            );
            zone.add(Record::new(
                apex.clone(),
                DNSKEY_TTL,
                RData::Dnskey(rogue_ksk.dnskey.clone()),
            ));
            ErrorDetail::ServerKeySetDiffers {
                server,
                disjoint: true,
            }
        }
        RevokedKeyInUse => {
            // Publish a revoked variant of the ZSK and sign zone data with
            // it.
            let mut revoked = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let old_dnskey = revoked.dnskey.clone();
            revoked.revoke();
            let opts = window(now);
            let revoked_dnskey = revoked.dnskey.clone();
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.remove_rdata(&apex, &RData::Dnskey(old_dnskey.clone()));
                zone.add(Record::new(
                    apex.clone(),
                    DNSKEY_TTL,
                    RData::Dnskey(revoked_dnskey.clone()),
                ));
                resign_rrset(zone, &www, RrType::A, &revoked, opts);
            });
            resign_dnskey(sb, &apex, now);
            ErrorDetail::Note(format!(
                "revoked key_tag={} signs zone data",
                revoked_dnskey.key_tag()
            ))
        }
        DsReferencesRevokedKey | DnskeyRevokedNoOtherSep => {
            // Revoke the only KSK in place; the parent DS is rebuilt from
            // the revoked key so the reference survives the tag change.
            let tag = {
                let z = sb.zone_mut(&apex).ok_or(SkipReason::MissingKeyMaterial)?;
                let ksks = z.ring.active(KeyRole::Ksk, now);
                let tag = ksks
                    .first()
                    .map(|k| k.key_tag())
                    .ok_or(SkipReason::MissingKeyMaterial)?;
                z.ring.by_tag_mut(tag).unwrap().revoke();
                z.ring
                    .keys()
                    .iter()
                    .find(|k| k.is_revoked())
                    .unwrap()
                    .key_tag()
            };
            sb.resign_zone(&apex, now)
                .map_err(|_| SkipReason::MissingKeyMaterial)?;
            let revoked = sb
                .zone(&apex)
                .unwrap()
                .ring
                .keys()
                .iter()
                .find(|k| k.is_revoked())
                .cloned()
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let ds = make_ds(&apex, &revoked.dnskey, DigestType::Sha256);
            sb.set_ds(&apex, vec![ds], now);
            ErrorDetail::RevokedSoleSep { key_tag: tag }
        }
        KeyLengthTooShort => {
            // Publish an extra 384-bit RSA key (below any accepted minimum).
            let stub = KeyPair::generate(
                &mut StdRng::seed_from_u64(0xD5_04),
                apex.clone(),
                Algorithm::RsaSha256,
                384,
                KeyRole::Zsk,
                now,
            );
            let dnskey = stub.dnskey.clone();
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    apex.clone(),
                    DNSKEY_TTL,
                    RData::Dnskey(dnskey.clone()),
                ));
            });
            resign_dnskey(sb, &apex, now);
            ErrorDetail::KeyLength {
                key_tag: dnskey.key_tag(),
                bits: 384,
                algorithm: Algorithm::RsaSha256.code(),
            }
        }
        KeyLengthInvalidForAlgorithm => return Err(SkipReason::Unreplicable),
        // ------------------------------------------------------ algorithm
        DsAlgorithmWithoutRrsig => {
            // Second-algorithm KSK: published, DS uploaded, but nothing is
            // signed with it.
            let alg = other_algorithm(sb, &apex, now);
            let extra = foreign_key(&apex, alg, KeyRole::Ksk, now, 0xD5_05);
            let dnskey = extra.dnskey.clone();
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    apex.clone(),
                    DNSKEY_TTL,
                    RData::Dnskey(dnskey.clone()),
                ));
            });
            resign_dnskey(sb, &apex, now);
            let mut ds_set = current_ds(sb, &apex);
            ds_set.push(make_ds(&apex, &extra.dnskey, DigestType::Sha256));
            sb.set_ds(&apex, ds_set, now);
            ErrorDetail::AlgorithmUnused {
                algorithm: alg.code(),
                scope: AlgorithmScope::Ds,
            }
        }
        DnskeyAlgorithmWithoutRrsig => {
            let alg = other_algorithm(sb, &apex, now);
            let extra = foreign_key(&apex, alg, KeyRole::Zsk, now, 0xD5_06);
            let dnskey = extra.dnskey.clone();
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    apex.clone(),
                    DNSKEY_TTL,
                    RData::Dnskey(dnskey.clone()),
                ));
            });
            resign_dnskey(sb, &apex, now);
            ErrorDetail::AlgorithmUnused {
                algorithm: alg.code(),
                scope: AlgorithmScope::Dnskey,
            }
        }
        RrsigAlgorithmWithoutDnskey => {
            // Sign data with a key that is never published.
            let alg = other_algorithm(sb, &apex, now);
            let ghost = foreign_key(&apex, alg, KeyRole::Zsk, now, 0xD5_07);
            let opts = window(now);
            let zsk_key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                // Keep the valid signature and add the ghost one.
                resign_rrset(zone, &www, RrType::A, &zsk_key, opts);
                if let Some(set) = zone.get(&www, RrType::A).cloned() {
                    let sig = ddx_dnssec::sign_rrset(&set, &ghost, opts);
                    zone.add(Record::new(www.clone(), set.ttl, RData::Rrsig(sig)));
                }
            });
            ErrorDetail::AlgorithmUnused {
                algorithm: alg.code(),
                scope: AlgorithmScope::Rrsig,
            }
        }
        // ------------------------------------------------------ signature
        RrsigMissing => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                ddx_dnssec::remove_sigs_covering(zone, &www, RrType::A);
            });
            ErrorDetail::RrsetUnsigned {
                name: www.clone(),
                rtype: RrType::A,
            }
        }
        RrsigMissingFromServers => {
            let server = sb
                .leaf()
                .servers
                .first()
                .cloned()
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let zone = sb
                .testbed
                .server_mut(&server)
                .and_then(|s| s.zone_mut(&apex))
                .ok_or(SkipReason::MissingKeyMaterial)?;
            ddx_dnssec::remove_sigs_covering(zone, &www, RrType::A);
            ErrorDetail::RrsetUnsigned {
                name: www.clone(),
                rtype: RrType::A,
            }
        }
        RrsigMissingForDnskey => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                ddx_dnssec::remove_sigs_covering(zone, &apex, RrType::Dnskey);
            });
            ErrorDetail::RrsetUnsigned {
                name: apex.clone(),
                rtype: RrType::Dnskey,
            }
        }
        RrsigExpired => {
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = SignOptions {
                inception: now.saturating_sub(40 * 86_400),
                expiration: now.saturating_sub(86_400),
            };
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                resign_rrset(zone, &www, RrType::A, &key, opts);
            });
            ErrorDetail::SignatureFailure {
                name: www.clone(),
                rtype: RrType::A,
                error: VerifyError::Expired {
                    expiration: opts.expiration,
                    now,
                },
            }
        }
        RrsigNotYetValid => {
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = SignOptions {
                inception: now + 86_400,
                expiration: now + 40 * 86_400,
            };
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                resign_rrset(zone, &www, RrType::A, &key, opts);
            });
            ErrorDetail::SignatureFailure {
                name: www.clone(),
                rtype: RrType::A,
                error: VerifyError::NotYetValid {
                    inception: opts.inception,
                    now,
                },
            }
        }
        RrsigInvalid => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                tamper_sig(zone, &www, RrType::A, |sig| {
                    if let Some(b) = sig.signature.first_mut() {
                        *b ^= 0xFF;
                    }
                });
            });
            ErrorDetail::SignatureFailure {
                name: www.clone(),
                rtype: RrType::A,
                error: VerifyError::BadSignature,
            }
        }
        RrsigInvalidRdata => {
            // A published non-zone key signing data: verifiers reject the
            // RDATA combination outright.
            let mut nonzone = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            nonzone.dnskey.flags &= !ddx_dns::DNSKEY_FLAG_ZONE;
            let dnskey = nonzone.dnskey.clone();
            let opts = window(now);
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    apex.clone(),
                    DNSKEY_TTL,
                    RData::Dnskey(dnskey.clone()),
                ));
                resign_rrset(zone, &www, RrType::A, &nonzone, opts);
            });
            resign_dnskey(sb, &apex, now);
            ErrorDetail::SignatureFailure {
                name: www.clone(),
                rtype: RrType::A,
                error: VerifyError::NotZoneKey,
            }
        }
        RrsigUnknownKeyTag => {
            // Sign with an unpublished key of an algorithm the zone uses.
            let used_alg = sb
                .zone(&apex)
                .and_then(|z| z.ring.keys().first().and_then(|k| k.algorithm()))
                .ok_or(SkipReason::MissingKeyMaterial)?;
            let ghost = foreign_key(&apex, used_alg, KeyRole::Zsk, now, 0xD5_08);
            let opts = window(now);
            let detail = ErrorDetail::SigNoMatchingKey {
                name: www.clone(),
                rtype: RrType::A,
                key_tag: ghost.key_tag(),
                algorithm: used_alg.code(),
            };
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                resign_rrset(zone, &www, RrType::A, &ghost, opts);
            });
            detail
        }
        RrsigSignerMismatch => {
            let mut key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            key.zone = sb.zones[1].apex.clone(); // the parent zone's name
            let opts = window(now);
            let detail = ErrorDetail::SignatureFailure {
                name: www.clone(),
                rtype: RrType::A,
                error: VerifyError::SignerMismatch {
                    signer: key.zone.clone(),
                    zone: apex.clone(),
                },
            };
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                resign_rrset(zone, &www, RrType::A, &key, opts);
            });
            detail
        }
        RrsigLabelsExceedOwner => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                tamper_sig(zone, &www, RrType::A, |sig| {
                    sig.labels = sig.labels.saturating_add(3);
                });
            });
            ErrorDetail::None
        }
        RrsigBadLength => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                tamper_sig(zone, &www, RrType::A, |sig| {
                    sig.signature.truncate(sig.signature.len() / 2);
                });
            });
            ErrorDetail::None
        }
        // ------------------------------------------------------------ TTL
        OriginalTtlExceeded => {
            // Serve the RRset with a TTL larger than the signed original.
            let original_ttl = served_ttl(sb, &apex, &www, RrType::A).unwrap_or(300);
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                if let Some(set) = zone.get_mut(&www, RrType::A) {
                    set.ttl = set.ttl.saturating_mul(10);
                }
            });
            ErrorDetail::TtlExceedsOriginal {
                name: www.clone(),
                rtype: RrType::A,
                ttl: original_ttl.saturating_mul(10),
                original_ttl,
            }
        }
        TtlBeyondSignatureExpiry => {
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = SignOptions {
                inception: now.saturating_sub(3600),
                expiration: now + 60, // valid, but far shorter than the TTL
            };
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                resign_rrset(zone, &www, RrType::A, &key, opts);
            });
            ErrorDetail::TtlOutlivesSignature {
                name: www.clone(),
                rtype: RrType::A,
                ttl: served_ttl(sb, &apex, &www, RrType::A).unwrap_or(300),
            }
        }
        // -------------------------------------------------------- denial
        NsecProofMissing => {
            if leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.strip_type(RrType::Nsec);
            });
            ErrorDetail::NoProof { nsec3: false }
        }
        Nsec3ProofMissing => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.strip_type(RrType::Nsec3);
            });
            ErrorDetail::NoProof { nsec3: true }
        }
        NsecBitmapAssertsType => {
            if leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let probe_type = ddx_dnsviz::NODATA_PROBE_TYPE;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                let target = apex.clone();
                if let Some(set) = zone.get_mut(&target, RrType::Nsec) {
                    for rd in &mut set.rdatas {
                        if let RData::Nsec(n) = rd {
                            n.type_bitmap.insert(probe_type);
                        }
                    }
                }
                resign_rrset(zone, &target, RrType::Nsec, &key, opts);
            });
            ErrorDetail::BitmapAssertsType {
                qname: apex.clone(),
                rtype: probe_type,
                nsec3: false,
            }
        }
        Nsec3BitmapAssertsType => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let probe_type = ddx_dnsviz::NODATA_PROBE_TYPE;
            let owner = nsec3_owner_of(sb, &apex, &apex).ok_or(SkipReason::MissingKeyMaterial)?;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                if let Some(set) = zone.get_mut(&owner, RrType::Nsec3) {
                    for rd in &mut set.rdatas {
                        if let RData::Nsec3(n) = rd {
                            n.type_bitmap.insert(probe_type);
                        }
                    }
                }
                resign_rrset(zone, &owner, RrType::Nsec3, &key, opts);
            });
            ErrorDetail::BitmapAssertsType {
                qname: apex.clone(),
                rtype: probe_type,
                nsec3: true,
            }
        }
        NsecCoverageBroken => {
            if leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            // Shrink the apex NSEC span so the probe label is uncovered.
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let short = apex.child("aaaa").expect("label fits");
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                let target = apex.clone();
                if let Some(set) = zone.get_mut(&target, RrType::Nsec) {
                    for rd in &mut set.rdatas {
                        if let RData::Nsec(n) = rd {
                            n.next_name = short.clone();
                        }
                    }
                }
                resign_rrset(zone, &target, RrType::Nsec, &key, opts);
            });
            ErrorDetail::NotCovered {
                qname: apex.child(ddx_dnsviz::NX_PROBE_LABEL).expect("label fits"),
                nsec3: false,
            }
        }
        Nsec3CoverageBroken => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            // Remove the NSEC3 record covering the hash of the NX probe
            // label, without touching the closest-encloser match.
            let nx = apex.child(ddx_dnsviz::NX_PROBE_LABEL).expect("label fits");
            let cover = nsec3_cover_of(sb, &apex, &nx).ok_or(SkipReason::MissingKeyMaterial)?;
            let apex_match = nsec3_owner_of(sb, &apex, &apex);
            if Some(&cover) == apex_match.as_ref() {
                // The apex match doubles as the cover: shrink its span
                // instead of removing it.
                let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
                let opts = window(now);
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    if let Some(set) = zone.get_mut(&cover, RrType::Nsec3) {
                        for rd in &mut set.rdatas {
                            if let RData::Nsec3(n) = rd {
                                // Point next-hash right after the owner so
                                // nothing else is covered.
                                let own = owner_label_hash(&cover).unwrap_or(vec![0; 20]);
                                let mut next = own.clone();
                                if let Some(last) = next.last_mut() {
                                    *last = last.wrapping_add(1);
                                }
                                n.next_hashed_owner = next;
                            }
                        }
                    }
                    resign_rrset(zone, &cover, RrType::Nsec3, &key, opts);
                });
            } else {
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    zone.remove(&cover, RrType::Nsec3);
                    zone.remove(&cover, RrType::Rrsig);
                });
            }
            ErrorDetail::NotCovered {
                qname: nx,
                nsec3: true,
            }
        }
        NsecMissingWildcardProof => {
            if leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            // Insert an `aaaa` record so the NX probe is covered by its
            // NSEC, then cut the apex NSEC span to exactly the wildcard —
            // leaving `*.apex` unproven.
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let aaaa = apex.child("aaaa").expect("label fits");
            let wildcard = apex.child("*").expect("label fits");
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    aaaa.clone(),
                    300,
                    RData::A(std::net::Ipv4Addr::new(198, 51, 100, 44)),
                ));
                if let Some(set) = zone.get(&apex, RrType::Nsec).cloned() {
                    // apex NSEC now ends at the wildcard name.
                    let mut set = set;
                    for rd in &mut set.rdatas {
                        if let RData::Nsec(n) = rd {
                            n.next_name = wildcard.clone();
                        }
                    }
                    zone.put_rrset(set);
                }
                // aaaa gets an NSEC chaining onward past the probe label.
                let next_after = zone
                    .names()
                    .filter(|n| *n > &aaaa && zone.get(n, RrType::Nsec).is_some())
                    .min()
                    .cloned()
                    .unwrap_or_else(|| apex.clone());
                zone.add(Record::new(
                    aaaa.clone(),
                    300,
                    RData::Nsec(ddx_dns::Nsec {
                        next_name: next_after,
                        type_bitmap: ddx_dns::TypeBitmap::from_types([
                            RrType::A,
                            RrType::Rrsig,
                            RrType::Nsec,
                        ]),
                    }),
                ));
                resign_rrset(zone, &apex, RrType::Nsec, &key, opts);
                resign_rrset(zone, &aaaa, RrType::A, &key, opts);
                resign_rrset(zone, &aaaa, RrType::Nsec, &key, opts);
            });
            ErrorDetail::WildcardUnproven {
                qname: apex.child(ddx_dnsviz::NX_PROBE_LABEL).expect("label fits"),
            }
        }
        Nsec3MissingWildcardProof => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let wildcard = apex.child("*").expect("label fits");
            let nx = apex.child(ddx_dnsviz::NX_PROBE_LABEL).expect("label fits");
            let wc_cover =
                nsec3_cover_of(sb, &apex, &wildcard).ok_or(SkipReason::MissingKeyMaterial)?;
            let nx_cover = nsec3_cover_of(sb, &apex, &nx);
            let apex_match = nsec3_owner_of(sb, &apex, &apex);
            if Some(&wc_cover) == nx_cover.as_ref() || Some(&wc_cover) == apex_match.as_ref() {
                // Same record also needed for the rest of the proof: shrink
                // its span to stop just before the wildcard hash.
                let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
                let opts = window(now);
                let wc_hash =
                    leaf_hash(sb, &apex, &wildcard).ok_or(SkipReason::MissingKeyMaterial)?;
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    if let Some(set) = zone.get_mut(&wc_cover, RrType::Nsec3) {
                        for rd in &mut set.rdatas {
                            if let RData::Nsec3(n) = rd {
                                n.next_hashed_owner = wc_hash.clone();
                            }
                        }
                    }
                    resign_rrset(zone, &wc_cover, RrType::Nsec3, &key, opts);
                });
            } else {
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    zone.remove(&wc_cover, RrType::Nsec3);
                    zone.remove(&wc_cover, RrType::Rrsig);
                });
            }
            ErrorDetail::WildcardUnproven { qname: nx }
        }
        Nsec3ParamMismatch => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let (salt, iterations) =
                leaf_nsec3_params(sb, &apex).ok_or(SkipReason::MissingKeyMaterial)?;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                let target = apex.clone();
                if let Some(set) = zone.get_mut(&target, RrType::Nsec3Param) {
                    for rd in &mut set.rdatas {
                        if let RData::Nsec3Param(p) = rd {
                            p.iterations = p.iterations.saturating_add(5);
                        }
                    }
                }
                resign_rrset(zone, &target, RrType::Nsec3Param, &key, opts);
            });
            ErrorDetail::Nsec3ParamDisagrees {
                iterations: iterations.saturating_add(5),
                salt_len: salt.len(),
            }
        }
        LastNsecNotApex => {
            if leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let bogus_next = apex.child("aaaa").expect("label fits");
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                // Find the wrap-around NSEC (next == apex) and corrupt it.
                let last_owner = zone
                    .rrsets()
                    .filter(|s| s.rtype == RrType::Nsec)
                    .find_map(|s| {
                        s.rdatas.iter().find_map(|rd| match rd {
                            RData::Nsec(n) if n.next_name == apex => Some(s.name.clone()),
                            _ => None,
                        })
                    });
                if let Some(owner) = last_owner {
                    if let Some(set) = zone.get_mut(&owner, RrType::Nsec) {
                        for rd in &mut set.rdatas {
                            if let RData::Nsec(n) = rd {
                                if n.next_name == apex {
                                    n.next_name = bogus_next.clone();
                                }
                            }
                        }
                    }
                    resign_rrset(zone, &owner, RrType::Nsec, &key, opts);
                }
            });
            ErrorDetail::None
        }
        Nsec3IterationsNonzero => {
            // A build-time parameter, not a tamper: re-sign with nonzero
            // iterations if the zone is not already NZIC.
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let needs_resign = {
                let z = sb.zone(&apex).unwrap();
                matches!(
                    &z.spec.nsec3,
                    Some(cfg) if cfg.iterations == 0
                )
            };
            if needs_resign {
                {
                    let z = sb.zone_mut(&apex).unwrap();
                    if let Some(n3) = &mut z.spec.nsec3 {
                        n3.iterations = 10;
                    }
                    z.signer_config =
                        ddx_dnssec::SignerConfig::nsec3_at(now, z.spec.nsec3.clone().unwrap());
                }
                sb.resign_zone(&apex, now)
                    .map_err(|_| SkipReason::MissingKeyMaterial)?;
            }
            let iterations = sb
                .zone(&apex)
                .and_then(|z| z.spec.nsec3.as_ref())
                .map(|n3| n3.iterations)
                .unwrap_or(10);
            ErrorDetail::Nsec3Iterations { iterations }
        }
        Nsec3OptOutViolation => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            let owner = nsec3_owner_of(sb, &apex, &apex).ok_or(SkipReason::MissingKeyMaterial)?;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                if let Some(set) = zone.get_mut(&owner, RrType::Nsec3) {
                    for rd in &mut set.rdatas {
                        if let RData::Nsec3(n) = rd {
                            n.flags ^= ddx_dns::NSEC3_FLAG_OPT_OUT;
                        }
                    }
                }
                resign_rrset(zone, &owner, RrType::Nsec3, &key, opts);
            });
            ErrorDetail::OptOutInconsistent
        }
        Nsec3UnsupportedAlgorithm => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            let key = zsk(sb, &apex, now).ok_or(SkipReason::MissingKeyMaterial)?;
            let opts = window(now);
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                let owners: Vec<Name> = zone
                    .rrsets()
                    .filter(|s| s.rtype == RrType::Nsec3)
                    .map(|s| s.name.clone())
                    .collect();
                for owner in owners {
                    if let Some(set) = zone.get_mut(&owner, RrType::Nsec3) {
                        for rd in &mut set.rdatas {
                            if let RData::Nsec3(n) = rd {
                                n.hash_algorithm = 6;
                            }
                        }
                    }
                    resign_rrset(zone, &owner, RrType::Nsec3, &key, opts);
                }
            });
            ErrorDetail::Nsec3HashAlgorithm { algorithm: 6 }
        }
        Nsec3NoClosestEncloser => {
            if !leaf_uses_nsec3(sb, &apex) {
                return Err(SkipReason::DenialModeMismatch);
            }
            // Remove the NSEC3 record matching the apex: the closest
            // encloser of the NX probe can no longer be proven.
            let owner = nsec3_owner_of(sb, &apex, &apex).ok_or(SkipReason::MissingKeyMaterial)?;
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.remove(&owner, RrType::Nsec3);
                zone.remove(&owner, RrType::Rrsig);
            });
            ErrorDetail::NoClosestEncloser {
                qname: apex.child(ddx_dnsviz::NX_PROBE_LABEL).expect("label fits"),
            }
        }
        // Explicitly unreplicable (also caught by the guard above).
        Nsec3InconsistentAncestor | Nsec3HashInvalidLength | Nsec3OwnerNotBase32 => {
            return Err(SkipReason::Unreplicable)
        }
        // Extension code: a representative KeyTrap-class injection. The
        // full adversarial corpus (all four families) lives in
        // [`crate::attack`]; picking by denial mode keeps this arm valid
        // for both NSEC and NSEC3 metas.
        ValidationBudgetExceeded => {
            let family = if leaf_uses_nsec3(sb, &apex) {
                crate::attack::AttackFamily::Nsec3Iterations
            } else {
                crate::attack::AttackFamily::SigJam
            };
            let (_, detail) = crate::attack::inject_attack(sb, family, now)?;
            detail
        }
    };
    Ok(detail)
}

// --------------------------------------------------------------- utilities

/// The TTL the leaf zone's first server currently serves for an RRset.
fn served_ttl(sb: &Sandbox, apex: &Name, name: &Name, rtype: RrType) -> Option<u32> {
    let server = sb.zone(apex)?.servers.first()?;
    sb.testbed
        .server(server)?
        .zone(apex)?
        .get(name, rtype)
        .map(|set| set.ttl)
}

/// Current DS RRset for `child` as stored in its parent zone.
fn current_ds(sb: &Sandbox, child: &Name) -> Vec<ddx_dns::Ds> {
    let parent_apex = sb
        .zones
        .iter()
        .map(|z| z.apex.clone())
        .filter(|a| child.is_strict_subdomain_of(a))
        .max_by_key(|a| a.label_count());
    let Some(parent_apex) = parent_apex else {
        return Vec::new();
    };
    let Some(parent_zone) = sb.zone(&parent_apex) else {
        return Vec::new();
    };
    let Some(server) = parent_zone.servers.first() else {
        return Vec::new();
    };
    sb.testbed
        .server(server)
        .and_then(|s| s.zone(&parent_apex))
        .and_then(|z| z.get(child, RrType::Ds))
        .map(|set| {
            set.rdatas
                .iter()
                .filter_map(|rd| match rd {
                    RData::Ds(d) => Some(d.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Mutates the first RRSIG covering (`name`, `rtype`) in place.
fn tamper_sig<F: FnMut(&mut ddx_dns::Rrsig)>(
    zone: &mut ddx_dns::Zone,
    name: &Name,
    rtype: RrType,
    mut f: F,
) {
    let sigs = sigs_covering(zone, name, rtype);
    let Some(orig) = sigs.first() else {
        return;
    };
    let mut new_sig = orig.clone();
    f(&mut new_sig);
    let orig_rd = RData::Rrsig(orig.clone());
    zone.remove_rdata(name, &orig_rd);
    zone.add(Record::new(name.clone(), 300, RData::Rrsig(new_sig)));
}

/// Base32hex-decoded first label of an NSEC3 owner.
fn owner_label_hash(owner: &Name) -> Option<Vec<u8>> {
    let label = owner.labels().first()?;
    base32::decode(std::str::from_utf8(label.as_bytes()).ok()?)
}

/// The NSEC3 parameters the leaf zone actually uses right now.
fn leaf_nsec3_params(sb: &Sandbox, apex: &Name) -> Option<(Vec<u8>, u16)> {
    let z = sb.zone(apex)?;
    let server = z.servers.first()?;
    let zone = sb.testbed.server(server)?.zone(apex)?;
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .find_map(|s| match s.rdatas.first() {
            Some(RData::Nsec3(n)) => Some((n.salt.clone(), n.iterations)),
            _ => None,
        })
}

/// The NSEC3 hash of `target` under the leaf zone's parameters.
fn leaf_hash(sb: &Sandbox, apex: &Name, target: &Name) -> Option<Vec<u8>> {
    let (salt, iterations) = leaf_nsec3_params(sb, apex)?;
    Some(nsec3_hash(target, &salt, iterations))
}

/// The owner name of the NSEC3 record whose hash matches `target`.
fn nsec3_owner_of(sb: &Sandbox, apex: &Name, target: &Name) -> Option<Name> {
    let h = leaf_hash(sb, apex, target)?;
    let z = sb.zone(apex)?;
    let server = z.servers.first()?;
    let zone = sb.testbed.server(server)?.zone(apex)?;
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .find(|s| owner_label_hash(&s.name).as_deref() == Some(&h[..]))
        .map(|s| s.name.clone())
}

/// The owner name of the NSEC3 record covering (not matching) `target`.
fn nsec3_cover_of(sb: &Sandbox, apex: &Name, target: &Name) -> Option<Name> {
    let h = leaf_hash(sb, apex, target)?;
    let z = sb.zone(apex)?;
    let server = z.servers.first()?;
    let zone = sb.testbed.server(server)?.zone(apex)?;
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .find(|s| {
            let Some(oh) = owner_label_hash(&s.name) else {
                return false;
            };
            s.rdatas.iter().any(|rd| match rd {
                RData::Nsec3(n) => ddx_dnssec::hash_covered(&oh, &n.next_hashed_owner, &h),
                _ => false,
            })
        })
        .map(|s| s.name.clone())
}

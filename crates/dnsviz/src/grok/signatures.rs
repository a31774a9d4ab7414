//! Signature pass: RRSIG validation over every RRset each server returned,
//! plus cross-server missing-signature detection.

use std::collections::{BTreeMap, BTreeSet};

use ddx_dns::{Dnskey, Message, Name, RRset, RrType};
use ddx_dnssec::{verify_rrset, VerifyError};

use super::{sets_with_sigs, AnalysisPass, ErrorDetail, ZoneAnalysis};
use crate::codes::ErrorCode;
use crate::probe::ServerProbe;

pub(crate) fn map_verify_error(err: &VerifyError) -> ErrorCode {
    match err {
        VerifyError::Expired { .. } => ErrorCode::RrsigExpired,
        VerifyError::NotYetValid { .. } => ErrorCode::RrsigNotYetValid,
        VerifyError::BadSignature => ErrorCode::RrsigInvalid,
        VerifyError::SignerMismatch { .. } => ErrorCode::RrsigSignerMismatch,
        VerifyError::BadLabelCount { .. } => ErrorCode::RrsigLabelsExceedOwner,
        VerifyError::BadSignatureLength { .. } => ErrorCode::RrsigBadLength,
        VerifyError::Revoked => ErrorCode::RevokedKeyInUse,
        VerifyError::NotZoneKey => ErrorCode::RrsigInvalidRdata,
        VerifyError::KeyTagMismatch { .. } | VerifyError::AlgorithmMismatch { .. } => {
            ErrorCode::RrsigInvalidRdata
        }
    }
}

pub(crate) struct SignaturesPass;

impl AnalysisPass for SignaturesPass {
    fn name(&self) -> &'static str {
        "signatures"
    }

    fn run(&self, za: &mut ZoneAnalysis) {
        let zone = za.zp.zone.clone();
        // (name key, type code) → (owner, servers that served it signed /
        // unsigned). Keyed on the canonical name string so emission order
        // matches the pre-split implementation.
        let mut signed_on: BTreeMap<(String, u16), (Name, Vec<bool>)> = BTreeMap::new();
        // Deduplicate identical findings across servers.
        let mut seen: BTreeSet<(ErrorCode, String)> = BTreeSet::new();

        let server_probes: Vec<ServerProbe> = za
            .zp
            .servers
            .iter()
            .filter(|s| s.responsive)
            .cloned()
            .collect();
        // Cloned once so the fallback key list does not hold a borrow of
        // `za` across the `analyze_rrset(&mut za, ..)` calls below.
        let zone_keys: Vec<Dnskey> = za.dnskeys.clone();
        for sp in &server_probes {
            if za.budget_tripped() {
                break;
            }
            let own_keys: Vec<&Dnskey> = sp.dnskeys().collect();
            let keys: Vec<&Dnskey> = if own_keys.is_empty() {
                zone_keys.iter().collect()
            } else {
                own_keys
            };
            let mut messages: Vec<&Message> = Vec::new();
            for m in [
                &sp.soa,
                &sp.ns,
                &sp.dnskey,
                &sp.nxdomain,
                &sp.nxdomain_hi,
                &sp.nodata,
                &sp.nsec3param,
            ]
            .into_iter()
            .flatten()
            {
                messages.push(m);
            }
            for (_, m) in &sp.answers {
                if let Some(m) = m {
                    messages.push(m);
                }
            }
            let mut checked: BTreeSet<(String, u16)> = BTreeSet::new();
            for msg in messages {
                if za.budget_tripped() {
                    break;
                }
                for section in [&msg.answers, &msg.authorities] {
                    for (set, sigs) in sets_with_sigs(section) {
                        // Only this zone's data, and only signable sets.
                        if !set.name.is_subdomain_of(&zone) || set.rtype == RrType::Rrsig {
                            continue;
                        }
                        // A delegation NS set (authority section referral) is
                        // legitimately unsigned; skip NS sets not at the apex.
                        if set.rtype == RrType::Ns && set.name != zone {
                            continue;
                        }
                        let key = (set.name.key(), set.rtype.code());
                        if !checked.insert(key.clone()) {
                            continue;
                        }
                        signed_on
                            .entry(key)
                            .or_insert_with(|| (set.name.clone(), Vec::new()))
                            .1
                            .push(!sigs.is_empty());
                        analyze_rrset(za, &set, &sigs, &keys, &mut seen);
                    }
                }
            }
        }

        // Cross-server missing-signature detection. Skipped after a budget
        // trip: the signed/unsigned tallies are partial, and a "missing"
        // verdict from evidence we stopped collecting would be untrustworthy.
        if za.budget_tripped() {
            return;
        }
        for ((_, type_code), (name, flags)) in &signed_on {
            let missing = flags.iter().filter(|f| !**f).count();
            if missing == 0 {
                continue;
            }
            let rtype = RrType::from_code(*type_code);
            let everywhere = missing == flags.len();
            let code = if !everywhere {
                ErrorCode::RrsigMissingFromServers
            } else if rtype == RrType::Dnskey {
                ErrorCode::RrsigMissingForDnskey
            } else {
                ErrorCode::RrsigMissing
            };
            let detail = ErrorDetail::RrsetUnsigned {
                name: name.clone(),
                rtype,
            };
            if seen.insert((code, detail.to_string())) {
                za.push(code, Some(code.is_critical() && everywhere), detail);
            }
        }
    }
}

/// Validates one RRset's signatures against the zone's keys.
fn analyze_rrset(
    za: &mut ZoneAnalysis,
    set: &RRset,
    sigs: &[ddx_dns::Rrsig],
    keys: &[&Dnskey],
    seen: &mut BTreeSet<(ErrorCode, String)>,
) {
    let zone = za.zp.zone.clone();
    let now = za.now;
    if sigs.is_empty() {
        return; // handled by the cross-server pass
    }
    // One logical unit per RRSIG considered, charged for the whole RRset
    // before any is verified: SigJam and LockCram zones do their damage
    // with signatures that *fail*, so the meter cannot wait for
    // verify_rrset to run, and an RRset whose signatures alone would pass
    // the cap trips without a single verification.
    if !za.charge_sig_verifications(sigs.len() as u64) {
        return;
    }
    let mut any_valid = false;
    let mut failures: Vec<(ErrorCode, ErrorDetail)> = Vec::new();
    for sig in sigs {
        za.algorithms_in_sigs.insert(sig.algorithm);
        let key = keys.iter().find(|k| k.key_tag() == sig.key_tag);
        let Some(key) = key else {
            let key_algos: BTreeSet<u8> = keys.iter().map(|k| k.algorithm).collect();
            let code = if key_algos.contains(&sig.algorithm) {
                ErrorCode::RrsigUnknownKeyTag
            } else {
                ErrorCode::RrsigAlgorithmWithoutDnskey
            };
            failures.push((
                code,
                ErrorDetail::SigNoMatchingKey {
                    name: set.name.clone(),
                    rtype: set.rtype,
                    key_tag: sig.key_tag,
                    algorithm: sig.algorithm,
                },
            ));
            continue;
        };
        // The Original TTL comparison is independent of the cryptographic
        // outcome (a served TTL above the signed original is wrong either
        // way); a lower served TTL is fine (decremented caches).
        if set.ttl > sig.original_ttl {
            failures.push((
                ErrorCode::OriginalTtlExceeded,
                ErrorDetail::TtlExceedsOriginal {
                    name: set.name.clone(),
                    rtype: set.rtype,
                    ttl: set.ttl,
                    original_ttl: sig.original_ttl,
                },
            ));
        }
        match verify_rrset(set, sig, key, &zone, now) {
            Ok(()) => {
                any_valid = true;
                za.algorithms_seen_valid.insert(sig.algorithm);
                if now.saturating_add(set.ttl) > sig.expiration {
                    failures.push((
                        ErrorCode::TtlBeyondSignatureExpiry,
                        ErrorDetail::TtlOutlivesSignature {
                            name: set.name.clone(),
                            rtype: set.rtype,
                            ttl: set.ttl,
                        },
                    ));
                }
            }
            Err(err) => {
                let code = map_verify_error(&err);
                failures.push((
                    code,
                    ErrorDetail::SignatureFailure {
                        name: set.name.clone(),
                        rtype: set.rtype,
                        error: err,
                    },
                ));
            }
        }
    }
    for (code, detail) in failures {
        if seen.insert((code, detail.to_string())) {
            // If some other signature fully validated this RRset, the
            // failure does not break the authentication path.
            let critical = code.is_critical() && !any_valid;
            za.push(code, Some(critical), detail);
        }
    }
}

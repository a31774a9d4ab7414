//! The error dependency graph (paper §4.3 step 2): which error codes are
//! *cascades* of which root causes. Topologically ordering the codes present
//! in a report lets DResolver address causes before symptoms — the key
//! advantage over diagnostic-only tools and naive LLM suggestions.

use std::collections::BTreeSet;

use ddx_dnsviz::ErrorCode;

/// Directed edges `cause → effect`: when both codes appear in one report,
/// the effect is (very likely) a cascade of the cause and needs no separate
/// remediation.
pub(crate) fn cascades_of(cause: ErrorCode) -> &'static [ErrorCode] {
    use ErrorCode::*;
    match cause {
        // A DS referencing a revoked key breaks the entry point and often
        // coincides with the revoked-SEP condition.
        DsReferencesRevokedKey => &[NoSecureEntryPoint, DnskeyRevokedNoOtherSep, DsDigestInvalid],
        // A revoked sole SEP invalidates the delegation.
        DnskeyRevokedNoOtherSep => &[NoSecureEntryPoint],
        // Any broken DS ↔ DNSKEY linkage ends with no secure entry point.
        DsDigestInvalid | DsAlgorithmMismatch | DsUnknownDigestType => &[NoSecureEntryPoint],
        DsMissingKeyForAlgorithm => &[NoSecureEntryPoint, DsAlgorithmWithoutRrsig],
        // Missing DNSKEY RRset cascades into everything signature-shaped.
        DnskeyMissingForDs => &[
            NoSecureEntryPoint,
            RrsigMissing,
            RrsigMissingForDnskey,
            RrsigUnknownKeyTag,
        ],
        // A key absent from one server makes that server's RRSIGs orphans.
        DnskeyMissingFromServers => &[RrsigUnknownKeyTag, RrsigAlgorithmWithoutDnskey],
        DnskeyInconsistentRrset => &[
            RrsigUnknownKeyTag,
            RrsigAlgorithmWithoutDnskey,
            RrsigMissingFromServers,
        ],
        // A revoked key signing data shows up as unusable signatures.
        RevokedKeyInUse => &[RrsigInvalidRdata],
        // A stray short key also fails algorithm completeness.
        KeyLengthTooShort | KeyLengthInvalidForAlgorithm => &[DnskeyAlgorithmWithoutRrsig],
        // Expired signatures imply the TTL-vs-expiry warning.
        RrsigExpired => &[TtlBeyondSignatureExpiry],
        // Unsigned-algorithm gaps surface per-RRset too.
        DsAlgorithmWithoutRrsig => &[DnskeyAlgorithmWithoutRrsig],
        // A DNSKEY RRset covered by no RRSIG at all lacks one for every DS
        // algorithm, so the per-algorithm gap is a symptom, not a cause.
        RrsigMissingForDnskey => &[DsAlgorithmWithoutRrsig],
        // Broken NSEC3 coverage implies the more specific CE/wildcard codes.
        Nsec3NoClosestEncloser => &[Nsec3CoverageBroken],
        Nsec3CoverageBroken => &[Nsec3MissingWildcardProof],
        NsecCoverageBroken => &[NsecMissingWildcardProof],
        // A fully missing chain implies every coverage-level code.
        NsecProofMissing => &[
            NsecCoverageBroken,
            NsecMissingWildcardProof,
            LastNsecNotApex,
        ],
        Nsec3ProofMissing => &[
            Nsec3CoverageBroken,
            Nsec3MissingWildcardProof,
            Nsec3NoClosestEncloser,
        ],
        // A tripped validation budget truncates the analysis: the partial
        // signature/denial findings collected before the cut are symptoms of
        // the same KeyTrap-style material, not independent problems.
        ValidationBudgetExceeded => &[
            RrsigInvalid,
            RrsigUnknownKeyTag,
            RrsigAlgorithmWithoutDnskey,
            RrsigMissingFromServers,
            Nsec3IterationsNonzero,
        ],
        _ => &[],
    }
}

/// Returns the root causes among `present`: codes that are not a cascade of
/// any *other* present code, ordered so that deeper causes come first.
pub(crate) fn root_causes(present: &BTreeSet<ErrorCode>) -> Vec<ErrorCode> {
    let mut effects: BTreeSet<ErrorCode> = BTreeSet::new();
    for &code in present {
        for &effect in cascades_of(code) {
            if present.contains(&effect) && effect != code {
                effects.insert(effect);
            }
        }
    }
    // Topological-ish order: non-effects (roots) in canonical code order.
    present
        .iter()
        .copied()
        .filter(|c| !effects.contains(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(codes: &[ErrorCode]) -> BTreeSet<ErrorCode> {
        codes.iter().copied().collect()
    }

    #[test]
    fn cascade_collapses_to_root() {
        // The paper's Figure 8 scenario: revoked KSK linked to a DS.
        let present = set(&[
            ErrorCode::DsReferencesRevokedKey,
            ErrorCode::NoSecureEntryPoint,
            ErrorCode::DnskeyRevokedNoOtherSep,
        ]);
        let roots = root_causes(&present);
        assert_eq!(roots, vec![ErrorCode::DsReferencesRevokedKey]);
    }

    #[test]
    fn independent_errors_both_roots() {
        let present = set(&[
            ErrorCode::Nsec3IterationsNonzero,
            ErrorCode::DsMissingKeyForAlgorithm,
        ]);
        let roots = root_causes(&present);
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn missing_dnskey_masks_signature_errors() {
        let present = set(&[
            ErrorCode::DnskeyMissingForDs,
            ErrorCode::RrsigMissing,
            ErrorCode::RrsigUnknownKeyTag,
            ErrorCode::NoSecureEntryPoint,
        ]);
        let roots = root_causes(&present);
        assert_eq!(roots, vec![ErrorCode::DnskeyMissingForDs]);
    }

    #[test]
    fn unsigned_dnskey_masks_algorithm_gaps() {
        // A sig-stripped zone: the absence of every RRSIG is the cause, the
        // per-algorithm gaps it implies are not.
        let present = set(&[
            ErrorCode::RrsigMissing,
            ErrorCode::RrsigMissingForDnskey,
            ErrorCode::DsAlgorithmWithoutRrsig,
            ErrorCode::DnskeyAlgorithmWithoutRrsig,
        ]);
        let roots = root_causes(&present);
        assert_eq!(
            roots,
            vec![ErrorCode::RrsigMissing, ErrorCode::RrsigMissingForDnskey]
        );
    }

    #[test]
    fn graph_is_acyclic() {
        // DFS from every node must never revisit the start.
        fn reachable(from: ErrorCode, target: ErrorCode, depth: usize) -> bool {
            if depth > 64 {
                return true; // treat runaway depth as a cycle
            }
            cascades_of(from)
                .iter()
                .any(|&e| e == target || reachable(e, target, depth + 1))
        }
        for code in ErrorCode::ALL {
            assert!(!reachable(code, code, 0), "cycle through {code}");
        }
    }
}

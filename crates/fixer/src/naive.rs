//! The naive baseline planner — a deterministic stand-in for the paper's
//! GPT-4o experiments (Appendix A.2, and DESIGN.md §4). It reproduces the
//! observed failure modes of prompt-engineering-only remediation:
//!
//! 1. every error is mapped *independently* — no dependency graph, no
//!    root-cause grouping, no ordering;
//! 2. DS problems are answered with "upload/replace the DS record" — the
//!    extraneous or corrupted DS is never removed;
//! 3. missing prerequisites are ignored — it re-signs without generating
//!    absent keys;
//! 4. essential parameters are dropped — re-signs always use plain NSEC
//!    defaults, discarding the zone's NSEC3 configuration.

use std::collections::BTreeSet;

use ddx_dnsviz::{ErrorCode, GrokReport};

use crate::instructions::Instruction;

/// Produces the naive plan: one generic suggestion per error code present,
/// in arbitrary (code) order, deduplicated only by exact equality.
pub(crate) fn naive_plan(report: &GrokReport) -> Vec<Instruction> {
    use ErrorCode::*;
    let codes: BTreeSet<ErrorCode> = report.codes();
    let mut plan: Vec<Instruction> = Vec::new();
    let push = |i: Instruction, plan: &mut Vec<Instruction>| {
        if !plan.contains(&i) {
            plan.push(i);
        }
    };
    for code in codes {
        match code {
            // "Verify/replace your DS record" — uploads, never removes.
            DsMissingKeyForAlgorithm
            | DsDigestInvalid
            | DsAlgorithmMismatch
            | DsUnknownDigestType
            | NoSecureEntryPoint
            | NoSepForDsAlgorithm
            | DsReferencesRevokedKey
            | DsAlgorithmWithoutRrsig => push(
                Instruction::UploadDs {
                    digest_type: ddx_dnssec::DigestType::Sha256,
                },
                &mut plan,
            ),
            // Revoked keys: remove, but no replacement KSK, no DS cleanup.
            RevokedKeyInUse | DnskeyRevokedNoOtherSep => {
                for zone in &report.zones {
                    for e in &zone.errors {
                        if let Some(tag) = e.detail.key_tag() {
                            push(Instruction::RemoveRevokedKey { key_tag: tag }, &mut plan);
                        }
                    }
                }
            }
            // Everything else: "re-sign your zone" with default parameters
            // (plain NSEC — the zone's NSEC3 settings are forgotten).
            _ => push(Instruction::SignZone { nsec3: None }, &mut plan),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instructions::InstructionKind;
    use ddx_dns::name;
    use ddx_dnsviz::{ErrorDetail, ErrorInstance, GrokReport, SnapshotStatus, ZoneReport};

    fn report_with(codes: &[ErrorCode]) -> GrokReport {
        GrokReport {
            query_domain: name("t.example"),
            time: 0,
            status: SnapshotStatus::Sb,
            zones: vec![ZoneReport {
                zone: name("t.example"),
                signed: true,
                has_ds: true,
                is_anchor: false,
                errors: codes
                    .iter()
                    .map(|&code| ErrorInstance {
                        code,
                        zone: name("t.example"),
                        critical: code.is_critical(),
                        detail: ErrorDetail::RevokedSoleSep { key_tag: 42 },
                    })
                    .collect(),
                warnings: Vec::new(),
                observation_gaps: Vec::new(),
            }],
        }
    }

    #[test]
    fn ds_errors_map_to_upload_never_removal() {
        let plan = naive_plan(&report_with(&[
            ErrorCode::DsDigestInvalid,
            ErrorCode::DsMissingKeyForAlgorithm,
        ]));
        let kinds: Vec<InstructionKind> = plan.iter().map(|i| i.kind()).collect();
        assert!(kinds.contains(&InstructionKind::UploadDs));
        assert!(!kinds.contains(&InstructionKind::RemoveIncorrectDs));
    }

    #[test]
    fn signature_errors_map_to_plain_nsec_resign() {
        let plan = naive_plan(&report_with(&[ErrorCode::Nsec3CoverageBroken]));
        assert!(plan
            .iter()
            .any(|i| matches!(i, Instruction::SignZone { nsec3: None })));
    }

    #[test]
    fn revoked_errors_remove_key_but_nothing_else() {
        let plan = naive_plan(&report_with(&[ErrorCode::DnskeyRevokedNoOtherSep]));
        let kinds: Vec<InstructionKind> = plan.iter().map(|i| i.kind()).collect();
        assert!(kinds.contains(&InstructionKind::RemoveRevokedKey));
        // The fatal omissions: no replacement KSK, no DS cleanup.
        assert!(!kinds.contains(&InstructionKind::GenerateKsk));
        assert!(!kinds.contains(&InstructionKind::RemoveIncorrectDs));
    }

    #[test]
    fn duplicate_suggestions_deduplicated() {
        let plan = naive_plan(&report_with(&[
            ErrorCode::RrsigExpired,
            ErrorCode::RrsigMissing,
            ErrorCode::NsecProofMissing,
        ]));
        let signs = plan
            .iter()
            .filter(|i| matches!(i, Instruction::SignZone { .. }))
            .count();
        assert_eq!(signs, 1);
    }
}

//! DResolver consumes typed [`ErrorDetail`] payloads, not detail strings.
//!
//! Each test replicates one detail-carrying error code, greps the resulting
//! report for the typed payload grok attached, and asserts the plan DResolver
//! builds is derived from that payload — the grok↔DFixer contract that used
//! to travel through free-form strings.

use ddx_dnsviz::{grok, probe, DsProblem, ErrorCode, ErrorDetail, GrokReport};
use ddx_fixer::{
    run_fixer, run_naive, suggest, FixerOptions, Instruction, InstructionKind, Resolution,
    ServerFlavor,
};
use ddx_replicator::{replicate, Nsec3Meta, Replication, ReplicationRequest, ZoneMeta};

const NOW: u32 = 1_000_000;

/// Replicates `code` solo and returns the replication, the grok report, and
/// the first resolution DFixer would act on.
fn replicate_and_resolve(code: ErrorCode, nsec3: bool) -> (Replication, GrokReport, Resolution) {
    let mut meta = ZoneMeta::default();
    if nsec3 {
        meta.nsec3 = Some(Nsec3Meta {
            iterations: 0,
            salt_len: 0,
            opt_out: false,
        });
    }
    let req = ReplicationRequest {
        meta,
        intended: [code].into_iter().collect(),
    };
    let rep = replicate(&req, NOW, 0x7D7D).expect("replication builds");
    assert!(rep.skipped.is_empty(), "{code} skipped: {:?}", rep.skipped);
    let cfg = rep.probe.clone();
    let report = grok(&probe(&rep.sandbox.testbed, &cfg));
    assert!(
        report.codes().contains(&code),
        "{code} not generated: {:?}",
        report.codes()
    );
    let (_, resolution, _) = suggest(&rep.sandbox, &cfg, ServerFlavor::Bind);
    (rep, report, resolution)
}

/// The typed details attached to every instance of `code` in the report.
fn details_for(report: &GrokReport, code: ErrorCode) -> Vec<ErrorDetail> {
    report
        .errors()
        .filter(|e| e.code == code)
        .map(|e| e.detail.clone())
        .collect()
}

#[test]
fn ttl_details_drive_reduce_ttl_instructions() {
    let (_, _report, resolution) = replicate_and_resolve(ErrorCode::OriginalTtlExceeded, false);
    assert_eq!(resolution.addressed, Some(ErrorCode::OriginalTtlExceeded));
    let details = &resolution.addressed_details;
    assert!(!details.is_empty(), "no typed details captured");
    for d in details {
        let ErrorDetail::TtlExceedsOriginal {
            name,
            rtype,
            ttl,
            original_ttl,
        } = d
        else {
            panic!("expected TtlExceedsOriginal, got {d:?}");
        };
        assert!(ttl > original_ttl, "served TTL must exceed the signed one");
        // The plan lowers exactly this RRset back to the signed TTL — the
        // typed payload is the only place that value exists.
        assert!(
            resolution.plan.iter().any(|i| matches!(
                i,
                Instruction::ReduceTtl { name: n, rtype: t, ttl: v }
                    if n == name && t == rtype && v == original_ttl
            )),
            "no ReduceTtl for {name} {rtype} → {original_ttl}: {:?}",
            resolution.plan
        );
    }
    // The minimal fix: TTL reduction alone, no re-sign.
    assert!(
        !resolution
            .plan
            .iter()
            .any(|i| i.kind() == InstructionKind::SignZone),
        "TTL fix should not re-sign: {:?}",
        resolution.plan
    );
}

#[test]
fn revoked_ds_detail_key_tag_matches_removed_key() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::DsReferencesRevokedKey, false);
    let details = details_for(&report, ErrorCode::DsReferencesRevokedKey);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::DsLink {
            key_tag, problem, ..
        } = d
        else {
            panic!("expected DsLink, got {d:?}");
        };
        assert_eq!(*problem, DsProblem::ReferencesRevoked);
        // The key the DS names is the key the plan deletes.
        assert!(
            resolution.plan.iter().any(|i| matches!(
                i,
                Instruction::RemoveRevokedKey { key_tag: t } if t == key_tag
            )),
            "no RemoveRevokedKey for tag {key_tag}: {:?}",
            resolution.plan
        );
    }
}

#[test]
fn key_length_detail_matches_removed_key() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::KeyLengthTooShort, false);
    let details = details_for(&report, ErrorCode::KeyLengthTooShort);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::KeyLength { key_tag, bits, .. } = d else {
            panic!("expected KeyLength, got {d:?}");
        };
        assert!(*bits < 512, "replicated short key is {bits} bits");
        assert!(
            resolution.plan.iter().any(|i| matches!(
                i,
                Instruction::RemoveInvalidKey { key_tag: t } if t == key_tag
            )),
            "no RemoveInvalidKey for tag {key_tag}: {:?}",
            resolution.plan
        );
    }
}

#[test]
fn signature_failure_detail_carries_verify_error() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::RrsigExpired, false);
    let details = details_for(&report, ErrorCode::RrsigExpired);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::SignatureFailure { error, .. } = d else {
            panic!("expected SignatureFailure, got {d:?}");
        };
        assert!(
            matches!(error, ddx_dnssec::VerifyError::Expired { expiration, now }
                if expiration < now),
            "expected Expired window, got {error:?}"
        );
        assert!(d.rrset().is_some(), "failure names the affected RRset");
    }
    assert!(resolution
        .plan
        .iter()
        .any(|i| i.kind() == InstructionKind::SignZone));
}

#[test]
fn rrset_unsigned_detail_names_the_bare_rrset() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::RrsigMissing, false);
    let details = details_for(&report, ErrorCode::RrsigMissing);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::RrsetUnsigned { .. } = d else {
            panic!("expected RrsetUnsigned, got {d:?}");
        };
        assert!(d.rrset().is_some());
    }
    assert!(resolution
        .plan
        .iter()
        .any(|i| i.kind() == InstructionKind::SignZone));
}

#[test]
fn nsec3_iterations_detail_reports_nonzero_count() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::Nsec3IterationsNonzero, true);
    let details = details_for(&report, ErrorCode::Nsec3IterationsNonzero);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::Nsec3Iterations { iterations } = d else {
            panic!("expected Nsec3Iterations, got {d:?}");
        };
        assert!(*iterations > 0);
    }
    // The fix re-signs with RFC 9276-compliant parameters.
    assert!(
        resolution.plan.iter().any(|i| matches!(
            i,
            Instruction::SignZone { nsec3: Some(cfg) } if cfg.iterations == 0
        )),
        "no compliant re-sign: {:?}",
        resolution.plan
    );
}

#[test]
fn inconsistent_keyset_detail_flags_server_and_plan_syncs() {
    let (_, report, resolution) = replicate_and_resolve(ErrorCode::DnskeyInconsistentRrset, false);
    let details = details_for(&report, ErrorCode::DnskeyInconsistentRrset);
    assert!(!details.is_empty());
    for d in &details {
        let ErrorDetail::ServerKeySetDiffers { disjoint, .. } = d else {
            panic!("expected ServerKeySetDiffers, got {d:?}");
        };
        assert!(*disjoint, "injector replaces the whole keyset");
    }
    assert!(resolution
        .plan
        .iter()
        .any(|i| i.kind() == InstructionKind::SyncAuthServers));
}

#[test]
fn addressed_details_mirror_report_evidence() {
    for (code, nsec3) in [
        (ErrorCode::OriginalTtlExceeded, false),
        (ErrorCode::RrsigExpired, false),
        (ErrorCode::Nsec3IterationsNonzero, true),
    ] {
        let (_, report, resolution) = replicate_and_resolve(code, nsec3);
        let addressed = resolution.addressed.expect("one cause addressed");
        assert_eq!(
            resolution.addressed_details,
            details_for(&report, addressed),
            "{code}: Resolution must carry exactly the addressed code's details"
        );
    }
}

#[test]
fn replicator_records_intended_typed_detail() {
    let (rep, report, _) = replicate_and_resolve(ErrorCode::OriginalTtlExceeded, false);
    let (code, intended) = &rep.injected[0];
    assert_eq!(*code, ErrorCode::OriginalTtlExceeded);
    // The injector's intended payload and grok's observation agree on the
    // signed TTL it inflated.
    let ErrorDetail::TtlExceedsOriginal { original_ttl, .. } = intended else {
        panic!("expected TtlExceedsOriginal, got {intended:?}");
    };
    assert!(details_for(&report, *code).iter().any(|d| matches!(
        d,
        ErrorDetail::TtlExceedsOriginal { original_ttl: o, .. } if o == original_ttl
    )));
}

#[test]
fn iteration_logs_carry_typed_details_and_naive_does_not() {
    let req = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: [ErrorCode::RrsigExpired].into_iter().collect(),
    };
    let mut rep = replicate(&req, NOW, 0x10C5).expect("replication builds");
    let cfg = rep.probe.clone();
    let run = run_fixer(&mut rep.sandbox, &cfg, &FixerOptions::default());
    assert!(run.fixed);
    assert!(
        run.iterations
            .iter()
            .any(|it| !it.addressed_details.is_empty()),
        "fixer iterations must log the typed evidence they acted on"
    );

    let mut rep = replicate(&req, NOW, 0x10C5).expect("replication builds");
    let cfg = rep.probe.clone();
    let run = run_naive(&mut rep.sandbox, &cfg, &FixerOptions::default());
    assert!(
        run.iterations
            .iter()
            .all(|it| it.addressed_details.is_empty()),
        "the naive baseline never attributes causes"
    );
}

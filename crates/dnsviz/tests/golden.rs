//! Golden-file regression tests pinning the `GrokReport` JSON schema.
//!
//! Two deterministic erroneous sandboxes — one NSEC (expired leaf RRSIG)
//! and one NSEC3 (non-zero iteration count) — are probed and grokked, and
//! the pretty-printed report JSON is compared byte-for-byte against a
//! checked-in golden file. Any change to the serialized shape of
//! [`GrokReport`], [`ddx_dnsviz::ErrorInstance`], or the typed
//! `detail` payloads shows up as a diff here before it silently
//! breaks downstream consumers of the JSON.
//!
//! The goldens are self-bootstrapping: when a golden file is absent (or
//! `UPDATE_GOLDEN` is set in the environment) the test regenerates it from
//! the deterministic sandbox instead of failing, prints the path, and
//! passes. Commit the regenerated file to re-pin the schema.

use std::fs;
use std::path::PathBuf;

use ddx_dns::{name, RrType};
use ddx_dnssec::{resign_rrset, KeyRole, Nsec3Config, SignOptions};
use ddx_dnsviz::{
    grok, probe, BudgetCounter, ErrorCode, ErrorDetail, GrokReport, ProbeConfig, SnapshotStatus,
};
use ddx_replicator::{replicate_attack, AttackFamily};
use ddx_server::{build_sandbox, FaultNetwork, FaultPlan, Sandbox, ZoneSpec};

const NOW: u32 = 1_000_000;
const SEED: u64 = 0x601D;

fn probe_cfg(sb: &Sandbox) -> ProbeConfig {
    ProbeConfig {
        anchor_zone: sb.anchor().apex.clone(),
        anchor_servers: sb.anchor().servers.clone(),
        query_domain: name("www.chd.par.a.com"),
        target_types: vec![RrType::A],
        time: NOW,
        retry: ddx_dnsviz::RetryPolicy::default(),
        hints: sb
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    }
}

fn three_level(leaf_nsec3: Option<Nsec3Config>) -> Sandbox {
    let mut leaf = ZoneSpec::conventional(name("chd.par.a.com"));
    leaf.nsec3 = leaf_nsec3;
    build_sandbox(
        &[
            ZoneSpec::conventional(name("a.com")),
            ZoneSpec::conventional(name("par.a.com")),
            leaf,
        ],
        NOW,
        SEED,
    )
}

/// NSEC sandbox whose leaf `www` RRSIG expired five seconds ago.
fn expired_sig_sandbox() -> Sandbox {
    let mut sb = three_level(None);
    let apex = name("chd.par.a.com");
    let zsk = sb
        .zone(&apex)
        .expect("leaf zone exists")
        .ring
        .active(KeyRole::Zsk, NOW)[0]
        .clone();
    let www = name("www.chd.par.a.com");
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        resign_rrset(
            zone,
            &www,
            RrType::A,
            &zsk,
            SignOptions {
                inception: 0,
                expiration: NOW - 5,
            },
        );
    });
    sb
}

fn nsec_report() -> GrokReport {
    let sb = expired_sig_sandbox();
    let cfg = probe_cfg(&sb);
    grok(&probe(&sb.testbed, &cfg))
}

/// The expired-sig sandbox probed with one leaf server persistently dead:
/// the report carries both the real error and typed observation gaps, so
/// this golden pins the `observation_gaps` JSON shape.
fn gapped_report() -> GrokReport {
    let sb = expired_sig_sandbox();
    let dead = sb.leaf().servers[0].clone();
    let plan = FaultPlan {
        timeout_permille: 1000,
        only_server: Some(dead),
        ..FaultPlan::none(SEED)
    };
    let net = FaultNetwork::new(&sb.testbed, plan);
    let cfg = probe_cfg(&sb);
    grok(&probe(&net, &cfg))
}

/// NSEC3 sandbox whose leaf violates RFC 9276 (ten extra iterations).
fn nsec3_report() -> GrokReport {
    let sb = three_level(Some(Nsec3Config {
        iterations: 10,
        ..Nsec3Config::default()
    }));
    let cfg = probe_cfg(&sb);
    grok(&probe(&sb.testbed, &cfg))
}

/// One deterministic KeyTrap-class sandbox per attack family, groked under
/// the default validation budget — these goldens pin the truncated-report
/// shape, including the `ValidationBudgetExceeded` error and its typed
/// `BudgetExceeded` payload.
fn attack_report(family: AttackFamily) -> GrokReport {
    let rep = replicate_attack(family, NOW, SEED).expect("attack replicates");
    assert!(
        rep.skipped.is_empty(),
        "{family}: skipped {:?}",
        rep.skipped
    );
    grok(&probe(&rep.sandbox.testbed, &rep.probe))
}

fn golden_path(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{tag}.json"))
}

fn check_golden(tag: &str, report: &GrokReport, expect: ErrorCode) {
    // The sandbox must actually exhibit the intended error, or the golden
    // would pin a report of the wrong shape.
    assert!(
        report.codes().contains(&expect),
        "{tag}: expected {expect}, got {:?}",
        report.codes()
    );
    assert_ne!(report.status, SnapshotStatus::Sv, "{tag}: sandbox is valid");

    let json = report.to_json();
    // Independent of the golden: the JSON must parse back, and every error
    // must carry its typed `detail`.
    let value = ddx_json::parse(&json).expect("report JSON parses back into a Value");
    for zone in value["zones"].as_array().expect("zones is an array") {
        for err in zone["errors"].as_array().expect("errors is an array") {
            assert!(
                <ErrorDetail as ddx_json::FromJson>::from_json(&err["detail"]).is_ok(),
                "{tag}: typed detail missing"
            );
        }
    }
    let back = GrokReport::from_json(&json).expect("report JSON parses back into a GrokReport");
    assert_eq!(
        back.to_json(),
        json,
        "{tag}: report does not round-trip byte for byte"
    );

    let path = golden_path(tag);
    if std::env::var_os("UPDATE_GOLDEN").is_some() || !path.exists() {
        fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .expect("golden dir is creatable");
        fs::write(&path, &json).expect("golden file is writable");
        eprintln!("golden: (re)wrote {} — commit it to pin", path.display());
        return;
    }
    let golden = fs::read_to_string(&path).expect("golden file is readable");
    assert_eq!(
        json,
        golden,
        "{tag}: GrokReport JSON diverged from {}; \
         re-run with UPDATE_GOLDEN=1 and commit the result if intended",
        path.display()
    );
}

#[test]
fn nsec_erroneous_report_matches_golden() {
    check_golden(
        "nsec_rrsig_expired",
        &nsec_report(),
        ErrorCode::RrsigExpired,
    );
}

#[test]
fn nsec3_erroneous_report_matches_golden() {
    check_golden(
        "nsec3_iterations_nonzero",
        &nsec3_report(),
        ErrorCode::Nsec3IterationsNonzero,
    );
}

/// A report probed through a persistent fault must pin the
/// `observation_gaps` shape alongside the real error, and round-trip
/// through JSON with the gaps intact.
#[test]
fn observation_gap_report_matches_golden() {
    let report = gapped_report();
    assert!(
        !report.fully_observed(),
        "a dead leaf server must leave observation gaps"
    );
    let parsed = GrokReport::from_json(&report.to_json()).expect("gap report parses back");
    assert!(
        !parsed.fully_observed(),
        "observation gaps must survive the JSON round-trip"
    );
    check_golden("nsec_observation_gaps", &report, ErrorCode::RrsigExpired);
}

/// The probe→grok path is deterministic for a fixed seed and clock — the
/// precondition for golden comparison to be meaningful across machines.
#[test]
fn reports_are_deterministic() {
    assert_eq!(nsec_report().to_json(), nsec_report().to_json());
    assert_eq!(nsec3_report().to_json(), nsec3_report().to_json());
    assert_eq!(gapped_report().to_json(), gapped_report().to_json());
    for family in AttackFamily::ALL {
        assert_eq!(
            attack_report(family).to_json(),
            attack_report(family).to_json(),
            "{family}"
        );
    }
}

// --- KeyTrap-class attack corpus: one golden per family pins the shape of
// a budget-truncated report.

#[test]
fn sigjam_report_matches_golden() {
    check_golden(
        "attack_sigjam",
        &attack_report(AttackFamily::SigJam),
        ErrorCode::ValidationBudgetExceeded,
    );
}

#[test]
fn lockcram_report_matches_golden() {
    check_golden(
        "attack_lockcram",
        &attack_report(AttackFamily::LockCram),
        ErrorCode::ValidationBudgetExceeded,
    );
}

#[test]
fn nsec3_iterations_report_matches_golden() {
    check_golden(
        "attack_nsec3_iterations",
        &attack_report(AttackFamily::Nsec3Iterations),
        ErrorCode::ValidationBudgetExceeded,
    );
}

#[test]
fn oversized_rrset_report_matches_golden() {
    check_golden(
        "attack_oversized_rrset",
        &attack_report(AttackFamily::OversizedRrset),
        ErrorCode::ValidationBudgetExceeded,
    );
}

/// The typed `BudgetExceeded` payload survives the JSON round-trip intact:
/// counter, used, and cap all reconstruct, and the re-serialization is
/// byte-stable.
#[test]
fn budget_detail_round_trips() {
    let report = attack_report(AttackFamily::SigJam);
    let json = report.to_json();
    let parsed = GrokReport::from_json(&json).expect("attack report parses back");
    assert_eq!(parsed.to_json(), json, "round-trip is byte-stable");
    let detail = parsed
        .errors()
        .find(|e| e.code == ErrorCode::ValidationBudgetExceeded)
        .map(|e| e.detail.clone())
        .expect("typed budget finding survives the round-trip");
    match detail {
        ErrorDetail::BudgetExceeded { counter, used, cap } => {
            assert_eq!(counter, BudgetCounter::SigVerifications);
            assert!(used > cap, "used {used} <= cap {cap}");
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

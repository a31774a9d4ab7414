//! Tests for the report surface: per-zone error attribution, text
//! rendering, and the stable JSON schema (including the typed `detail` of
//! each error).

use super::*;
use crate::probe::{probe, ProbeConfig};
use ddx_dns::name;
use ddx_dnssec::{resign_rrset, KeyRole, SignOptions};
use ddx_server::{build_sandbox, Sandbox, ZoneSpec};

const NOW: u32 = 1_000_000;

fn three_level() -> Sandbox {
    build_sandbox(
        &[
            ZoneSpec::conventional(name("a.com")),
            ZoneSpec::conventional(name("par.a.com")),
            ZoneSpec::conventional(name("chd.par.a.com")),
        ],
        NOW,
        91,
    )
}

fn run_with_query(sb: &Sandbox, query: &str) -> GrokReport {
    let cfg = ProbeConfig {
        anchor_zone: sb.anchor().apex.clone(),
        anchor_servers: sb.anchor().servers.clone(),
        query_domain: name(query),
        target_types: vec![RrType::A],
        time: NOW,
        retry: crate::probe::RetryPolicy::default(),
        hints: sb
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    };
    grok(&probe(&sb.testbed, &cfg))
}

#[test]
fn parent_zone_errors_attributed_to_parent() {
    let mut sb = three_level();
    // Break the PARENT's apex SOA signature.
    let parent = name("par.a.com");
    let zsk = sb.zone(&parent).unwrap().ring.active(KeyRole::Zsk, NOW)[0].clone();
    sb.testbed.mutate_zone_everywhere(&parent, |zone| {
        resign_rrset(
            zone,
            &parent,
            RrType::Soa,
            &zsk,
            SignOptions {
                inception: 0,
                expiration: NOW - 5,
            },
        );
    });
    let report = run_with_query(&sb, "www.chd.par.a.com");
    assert_eq!(report.status, SnapshotStatus::Sb);
    // The expired-signature error belongs to par.a.com, not to the leaf.
    let offender = report
        .errors()
        .find(|e| e.code == ErrorCode::RrsigExpired)
        .expect("error found");
    assert_eq!(offender.zone, parent);
    // And the leaf-zone extraction (what ZReplicator would be fed) is
    // clean — the paper's replication is leaf-scoped (§5.5.1).
    let leaf = report.zones.last().expect("leaf zone analysed");
    assert!(
        leaf.errors
            .iter()
            .all(|e| e.code != ErrorCode::RrsigExpired),
        "{:?}",
        leaf.errors
    );
}

#[test]
fn anchor_zone_is_marked() {
    let sb = three_level();
    let report = run_with_query(&sb, "www.chd.par.a.com");
    assert!(report.zones[0].is_anchor);
    assert!(!report.zones[1].is_anchor);
    assert!(!report.zones[2].is_anchor);
    assert!(report.zones[1].has_ds);
    assert!(report.zones[2].has_ds);
}

#[test]
fn render_text_mentions_every_zone_and_error() {
    let sb = build_sandbox(
        &[
            ZoneSpec::conventional(name("a.com")),
            ZoneSpec::conventional(name("par.a.com")),
        ],
        NOW,
        95,
    );
    let report = run_with_query(&sb, "www.par.a.com");
    let text = report.render_text();
    assert!(text.contains("a.com. [trust anchor]"));
    assert!(text.contains("par.a.com. [signed, delegated]"));
    assert!(text.contains("status sv"));
    assert!(text.contains("ok"));
}

/// The JSON shape downstream consumers depend on (CLI --json, the
/// snapshot pipeline): spot-check stable field names.
#[test]
fn report_json_field_names_are_stable() {
    let sb = build_sandbox(
        &[
            ZoneSpec::conventional(name("a.com")),
            ZoneSpec::conventional(name("par.a.com")),
        ],
        NOW,
        97,
    );
    let report = run_with_query(&sb, "www.par.a.com");
    let v = ddx_json::parse(&report.to_json()).unwrap();
    assert!(v.get("query_domain").is_some());
    assert!(v.get("time").is_some());
    assert_eq!(v["status"], "Sv");
    let zones = v["zones"].as_array().unwrap();
    assert_eq!(zones.len(), 2);
    for z in zones {
        for field in [
            "zone",
            "signed",
            "has_ds",
            "is_anchor",
            "errors",
            "warnings",
        ] {
            assert!(z.get(field).is_some(), "missing field {field}");
        }
    }
}

/// Errors serialize their typed detail under `detail` and round-trip.
#[test]
fn error_instance_serde_shim() {
    let instance = ErrorInstance {
        code: ErrorCode::Nsec3IterationsNonzero,
        zone: name("par.a.com"),
        critical: false,
        detail: ErrorDetail::Nsec3Iterations { iterations: 10 },
    };
    let v = instance.to_json();
    assert_eq!(v["detail"], instance.detail.to_json());
    assert!(v.get("detail_data").is_none());
    let back = ErrorInstance::from_json(&v).unwrap();
    assert_eq!(back, instance);
}

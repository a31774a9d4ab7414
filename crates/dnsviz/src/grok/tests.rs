//! Behavioral tests for the grok analysis passes: healthy hierarchies,
//! injected violations, and status classification.

use super::*;
use crate::probe::{probe, ProbeConfig};
use ddx_dns::name;
use ddx_dnssec::{
    make_ds, resign_rrset, sigs_covering, DigestType, KeyRole, Nsec3Config, SignOptions,
};
use ddx_server::{build_sandbox, Sandbox, ServerBehavior, ZoneSpec};

const NOW: u32 = 1_000_000;

fn standard_sandbox(nsec3: Option<Nsec3Config>) -> Sandbox {
    let mut leaf = ZoneSpec::conventional(name("chd.par.a.com"));
    leaf.nsec3 = nsec3;
    build_sandbox(
        &[
            ZoneSpec::conventional(name("a.com")),
            ZoneSpec::conventional(name("par.a.com")),
            leaf,
        ],
        NOW,
        11,
    )
}

fn cfg_for(sb: &Sandbox) -> ProbeConfig {
    ProbeConfig {
        anchor_zone: sb.anchor().apex.clone(),
        anchor_servers: sb.anchor().servers.clone(),
        query_domain: sb.leaf().apex.child("www").unwrap(),
        target_types: vec![RrType::A],
        time: NOW,
        retry: crate::probe::RetryPolicy::default(),
        hints: sb
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    }
}

fn run(sb: &Sandbox) -> GrokReport {
    grok(&probe(&sb.testbed, &cfg_for(sb)))
}

#[test]
fn healthy_nsec_hierarchy_is_sv() {
    let sb = standard_sandbox(None);
    let report = run(&sb);
    assert!(report.clean(), "unexpected errors: {:#?}", report.codes());
    assert_eq!(report.status, SnapshotStatus::Sv);
    assert_eq!(report.zones.len(), 3);
    assert!(report.zones.iter().all(|z| z.signed));
}

#[test]
fn healthy_nsec3_hierarchy_is_sv() {
    let sb = standard_sandbox(Some(Nsec3Config::default()));
    let report = run(&sb);
    assert!(report.clean(), "unexpected errors: {:#?}", report.codes());
    assert_eq!(report.status, SnapshotStatus::Sv);
}

#[test]
fn nzic_yields_svm() {
    let sb = standard_sandbox(Some(Nsec3Config {
        iterations: 10,
        ..Default::default()
    }));
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Svm);
    assert!(report.codes().contains(&ErrorCode::Nsec3IterationsNonzero));
    let leaf = report.zones.last().expect("leaf zone analysed");
    assert!(leaf
        .errors
        .iter()
        .any(|e| e.code == ErrorCode::Nsec3IterationsNonzero));
    // The typed payload carries the iteration count directly.
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::Nsec3IterationsNonzero)
        .unwrap();
    assert_eq!(e.detail, ErrorDetail::Nsec3Iterations { iterations: 10 });
}

#[test]
fn expired_signature_is_sb() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let zsk = sb.zone(&apex).unwrap().ring.active(KeyRole::Zsk, NOW)[0].clone();
    let www = apex.child("www").unwrap();
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        resign_rrset(
            zone,
            &www,
            RrType::A,
            &zsk,
            SignOptions {
                inception: 0,
                expiration: NOW - 100,
            },
        );
    });
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Sb);
    assert!(report.codes().contains(&ErrorCode::RrsigExpired));
    // Typed detail names the affected RRset and the validity window.
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::RrsigExpired)
        .unwrap();
    match &e.detail {
        ErrorDetail::SignatureFailure { name, rtype, error } => {
            assert_eq!(name, &www);
            assert_eq!(*rtype, RrType::A);
            assert!(matches!(
                error,
                ddx_dnssec::VerifyError::Expired { expiration, .. } if *expiration == NOW - 100
            ));
        }
        other => panic!("expected SignatureFailure, got {other:?}"),
    }
}

#[test]
fn removed_ds_is_insecure() {
    let mut sb = standard_sandbox(None);
    sb.set_ds(&name("chd.par.a.com"), vec![], NOW);
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Is);
}

#[test]
fn corrupted_ds_digest_is_sb() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let ksk = sb.zone(&apex).unwrap().ring.active(KeyRole::Ksk, NOW)[0].clone();
    let mut ds = make_ds(&apex, &ksk.dnskey, DigestType::Sha256);
    ds.digest[0] ^= 0xFF;
    sb.set_ds(&apex, vec![ds], NOW);
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Sb);
    let codes = report.codes();
    assert!(codes.contains(&ErrorCode::DsDigestInvalid));
    assert!(codes.contains(&ErrorCode::NoSecureEntryPoint));
    // The DS-link detail identifies the failing key tag and problem class.
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::DsDigestInvalid)
        .unwrap();
    match &e.detail {
        ErrorDetail::DsLink {
            key_tag, problem, ..
        } => {
            assert_eq!(*key_tag, ksk.key_tag());
            assert_eq!(*problem, DsProblem::DigestMismatch);
        }
        other => panic!("expected DsLink, got {other:?}"),
    }
}

#[test]
fn ds_for_absent_algorithm() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let ksk = sb.zone(&apex).unwrap().ring.active(KeyRole::Ksk, NOW)[0].clone();
    let good = make_ds(&apex, &ksk.dnskey, DigestType::Sha256);
    // Extraneous DS referencing RSASHA512 (no such key in the zone).
    let bogus = ddx_dns::Ds {
        key_tag: 4242,
        algorithm: 10,
        digest_type: 2,
        digest: vec![0xAB; 32],
    };
    sb.set_ds(&apex, vec![good, bogus], NOW);
    let report = run(&sb);
    let codes = report.codes();
    assert!(codes.contains(&ErrorCode::DsMissingKeyForAlgorithm));
    // A good link still exists, so no NoSecureEntryPoint...
    assert!(!codes.contains(&ErrorCode::NoSecureEntryPoint));
    assert_eq!(report.status, SnapshotStatus::Sb);
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::DsMissingKeyForAlgorithm)
        .unwrap();
    assert_eq!(e.detail.key_tag(), Some(4242));
}

#[test]
fn dnskey_missing_for_ds() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        zone.strip_type(RrType::Dnskey);
    });
    let report = run(&sb);
    assert!(report.codes().contains(&ErrorCode::DnskeyMissingForDs));
    assert_eq!(report.status, SnapshotStatus::Sb);
}

#[test]
fn inconsistent_dnskey_between_servers() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let zsk = sb.zone(&apex).unwrap().ring.active(KeyRole::Zsk, NOW)[0].clone();
    // Remove the ZSK DNSKEY record from server #0 only.
    let id = sb.zone(&apex).unwrap().servers[0].clone();
    sb.testbed
        .server_mut(&id)
        .unwrap()
        .zone_mut(&apex)
        .unwrap()
        .remove_rdata(&apex, &RData::Dnskey(zsk.dnskey.clone()));
    let report = run(&sb);
    assert!(report
        .codes()
        .contains(&ErrorCode::DnskeyMissingFromServers));
    // The detail carries the offending server's identity.
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::DnskeyMissingFromServers)
        .unwrap();
    assert!(matches!(
        &e.detail,
        ErrorDetail::ServerKeySetDiffers {
            disjoint: false,
            ..
        }
    ));
}

#[test]
fn missing_rrsig_is_sb() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let www = apex.child("www").unwrap();
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        ddx_dnssec::remove_sigs_covering(zone, &www, RrType::A);
    });
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Sb);
    assert!(report.codes().contains(&ErrorCode::RrsigMissing));
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::RrsigMissing)
        .unwrap();
    assert_eq!(
        e.detail.rrset().map(|(n, t)| (n.clone(), t)),
        Some((www, RrType::A))
    );
}

#[test]
fn rrsig_missing_from_one_server_only() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let www = apex.child("www").unwrap();
    let id = sb.zone(&apex).unwrap().servers[0].clone();
    let zone = sb.testbed.server_mut(&id).unwrap().zone_mut(&apex).unwrap();
    ddx_dnssec::remove_sigs_covering(zone, &www, RrType::A);
    let report = run(&sb);
    assert!(report.codes().contains(&ErrorCode::RrsigMissingFromServers));
    // The other server still serves a valid path.
    assert_ne!(report.status, SnapshotStatus::Sv);
}

#[test]
fn stripped_nsec_chain_breaks_denial() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        zone.strip_type(RrType::Nsec);
    });
    let report = run(&sb);
    assert!(report.codes().contains(&ErrorCode::NsecProofMissing));
    assert_eq!(report.status, SnapshotStatus::Sb);
}

#[test]
fn revoked_sole_ksk() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    {
        let z = sb.zone_mut(&apex).unwrap();
        let tag = z.ring.active(KeyRole::Ksk, NOW)[0].key_tag();
        z.ring.by_tag_mut(tag).unwrap().revoke();
    }
    sb.resign_zone(&apex, NOW).unwrap();
    let report = run(&sb);
    let codes = report.codes();
    assert!(
        codes.contains(&ErrorCode::DnskeyRevokedNoOtherSep),
        "got {codes:?}"
    );
    // The old DS now points at a key whose tag changed → broken entry.
    assert_eq!(report.status, SnapshotStatus::Sb);
    // The typed detail exposes the revoked key's tag to DFixer's naive
    // baseline without string parsing.
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::DnskeyRevokedNoOtherSep)
        .unwrap();
    assert!(matches!(e.detail, ErrorDetail::RevokedSoleSep { .. }));
    assert!(e.detail.key_tag().is_some());
}

#[test]
fn lame_leaf_is_lm() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    for id in sb.zone(&apex).unwrap().servers.clone() {
        sb.testbed.server_mut(&id).unwrap().behavior = ServerBehavior::Unresponsive;
    }
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Lm);
}

#[test]
fn missing_delegation_is_ic() {
    let mut sb = standard_sandbox(None);
    let leaf = name("chd.par.a.com");
    let parent = name("par.a.com");
    sb.testbed.mutate_zone_everywhere(&parent, |zone| {
        zone.remove(&leaf, RrType::Ns);
        zone.remove(&leaf, RrType::Ds);
    });
    let report = run(&sb);
    assert_eq!(report.status, SnapshotStatus::Ic);
}

#[test]
fn report_json_round_trip() {
    let sb = standard_sandbox(None);
    let report = run(&sb);
    let json = report.to_json();
    let back = GrokReport::from_json(&json).unwrap();
    assert_eq!(back.status, report.status);
    assert_eq!(back.zones.len(), report.zones.len());
}

#[test]
fn incomplete_algorithm_setup_detected() {
    let mut sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    // Publish an extra RSASHA256 DNSKEY that signs nothing.
    let extra = ddx_dnssec::KeyPair::generate(
        &mut rand::rngs::StdRng::seed_from_u64(99),
        apex.clone(),
        ddx_dnssec::Algorithm::RsaSha256,
        2048,
        KeyRole::Zsk,
        NOW,
    );
    use rand::SeedableRng;
    let dnskey = extra.dnskey.clone();
    let zsk = sb.zone(&apex).unwrap().ring.active(KeyRole::Zsk, NOW)[0].clone();
    sb.testbed.mutate_zone_everywhere(&apex, |zone| {
        zone.add(ddx_dns::Record::new(
            apex.clone(),
            ddx_dnssec::DNSKEY_TTL,
            RData::Dnskey(dnskey.clone()),
        ));
        // Re-sign the DNSKEY RRset so it stays valid.
        resign_rrset(
            zone,
            &apex,
            RrType::Dnskey,
            &zsk,
            SignOptions {
                inception: NOW - 3600,
                expiration: NOW + 86_400,
            },
        );
    });
    let report = run(&sb);
    assert!(report
        .codes()
        .contains(&ErrorCode::DnskeyAlgorithmWithoutRrsig));
    // Should be tolerated (svm), not bogus.
    assert_eq!(report.status, SnapshotStatus::Svm);
    let e = report
        .errors()
        .find(|e| e.code == ErrorCode::DnskeyAlgorithmWithoutRrsig)
        .unwrap();
    assert_eq!(
        e.detail,
        ErrorDetail::AlgorithmUnused {
            algorithm: ddx_dnssec::Algorithm::RsaSha256.code(),
            scope: AlgorithmScope::Dnskey,
        }
    );
}

#[test]
fn sigs_survive_probe_encoding() {
    // Sanity: the signatures the sandbox produces verify through the
    // whole probe path (no canonicalization drift).
    let sb = standard_sandbox(None);
    let apex = name("chd.par.a.com");
    let server_zone = sb
        .testbed
        .server(&sb.zone(&apex).unwrap().servers[0])
        .unwrap()
        .zone(&apex)
        .unwrap();
    assert!(!sigs_covering(server_zone, &apex, RrType::Soa).is_empty());
}

mod warnings {
    use super::*;
    use crate::codes::WarningCode;
    use ddx_dnssec::Nsec3Config;
    use ddx_server::{build_sandbox, Sandbox, ZoneSpec};

    fn run(sb: &Sandbox) -> GrokReport {
        let cfg = ProbeConfig {
            anchor_zone: sb.anchor().apex.clone(),
            anchor_servers: sb.anchor().servers.clone(),
            query_domain: sb.leaf().apex.child("www").unwrap(),
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
    fn salted_nsec3_yields_warning_not_error() {
        let mut leaf = ZoneSpec::conventional(name("par.a.com"));
        leaf.nsec3 = Some(Nsec3Config {
            iterations: 0,
            salt: vec![0x8d, 0x45],
            ..Default::default()
        });
        let sb = build_sandbox(&[ZoneSpec::conventional(name("a.com")), leaf], NOW, 81);
        let report = run(&sb);
        assert_eq!(report.status, SnapshotStatus::Sv, "{:?}", report.codes());
        let leaf_report = report.zones.last().unwrap();
        assert!(leaf_report
            .warnings
            .contains(&WarningCode::Nsec3SaltPresent));
    }

    #[test]
    fn sha1_ds_yields_warning() {
        let mut leaf = ZoneSpec::conventional(name("par.a.com"));
        leaf.ds_digests = vec![ddx_dnssec::DigestType::Sha1];
        let sb = build_sandbox(&[ZoneSpec::conventional(name("a.com")), leaf], NOW, 82);
        let report = run(&sb);
        assert_eq!(report.status, SnapshotStatus::Sv, "{:?}", report.codes());
        assert!(report
            .zones
            .last()
            .unwrap()
            .warnings
            .contains(&WarningCode::Sha1DsDigest));
    }

    #[test]
    fn single_key_zone_warned() {
        let mut leaf = ZoneSpec::conventional(name("par.a.com"));
        leaf.keys = vec![(
            ddx_dnssec::KeyRole::Ksk,
            ddx_dnssec::Algorithm::EcdsaP256Sha256,
            256,
        )];
        let sb = build_sandbox(&[ZoneSpec::conventional(name("a.com")), leaf], NOW, 83);
        let report = run(&sb);
        assert_eq!(report.status, SnapshotStatus::Sv, "{:?}", report.codes());
        assert!(report
            .zones
            .last()
            .unwrap()
            .warnings
            .contains(&WarningCode::SingleKeyZone));
    }

    #[test]
    fn clean_conventional_zone_has_no_warnings() {
        let sb = build_sandbox(
            &[
                ZoneSpec::conventional(name("a.com")),
                ZoneSpec::conventional(name("par.a.com")),
            ],
            NOW,
            84,
        );
        let report = run(&sb);
        for z in &report.zones {
            assert!(z.warnings.is_empty(), "{:?}", z.warnings);
        }
    }
}

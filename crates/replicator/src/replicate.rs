//! The top-level ZReplicator API: take a snapshot's intended errors and
//! zone meta-parameters, build the sandbox hierarchy (`a.com` →
//! `par.a.com` → `inv-chd.par.a.com`), and inject each error (paper §4.5).

use std::collections::BTreeSet;

use ddx_dns::{name, Name, RrType};
use ddx_dnsviz::{ErrorCode, ErrorDetail, ProbeConfig};
use ddx_server::{build_sandbox, Sandbox, ZoneSpec};

use crate::inject::{inject, injection_phase, SkipReason};
use crate::meta::{plan_digests, plan_keys, MetaError, Substitution, ZoneMeta};

/// What to replicate: the errors a snapshot exhibited plus the zone's
/// observed parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationRequest {
    pub meta: ZoneMeta,
    pub intended: BTreeSet<ErrorCode>,
}

/// A live replication: the sandbox plus bookkeeping about what could and
/// could not be recreated.
pub struct Replication {
    pub sandbox: Sandbox,
    /// Errors whose injectors ran, each with the typed detail payload the
    /// injector intended grok to reproduce.
    pub injected: Vec<(ErrorCode, ErrorDetail)>,
    /// Errors that could not be recreated, with reasons.
    pub skipped: Vec<(ErrorCode, SkipReason)>,
    /// Algorithm substitutions applied (paper §5.5.1).
    pub substitutions: Vec<Substitution>,
    /// The probe configuration matching this sandbox.
    pub probe: ProbeConfig,
    pub now: u32,
}

impl Replication {}

/// The fixed sandbox layout from the paper.
pub fn anchor_apex() -> Name {
    name("a.com")
}

pub fn parent_apex() -> Name {
    name("par.a.com")
}

pub fn target_apex() -> Name {
    name("inv-chd.par.a.com")
}

/// Builds the probe configuration for a sandbox rooted at `a.com`.
pub(crate) fn probe_config_for(sandbox: &Sandbox, now: u32) -> ProbeConfig {
    ProbeConfig {
        anchor_zone: sandbox.anchor().apex.clone(),
        anchor_servers: sandbox.anchor().servers.clone(),
        query_domain: sandbox.leaf().apex.child("www").expect("label fits"),
        target_types: vec![RrType::A],
        time: now,
        retry: ddx_dnsviz::RetryPolicy::default(),
        hints: sandbox
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    }
}

/// Replicates a snapshot locally.
///
/// The sandbox starts fully valid (mirroring the meta parameters, with
/// algorithm substitution where needed) and then each intended error is
/// injected in a stable phase order so injections do not undo each other.
pub fn replicate(req: &ReplicationRequest, now: u32, seed: u64) -> Result<Replication, MetaError> {
    let plan = plan_keys(&req.meta)?;
    let mut leaf = ZoneSpec {
        apex: target_apex(),
        server_count: 2,
        keys: plan.keys.clone(),
        nsec3: req.meta.nsec3.as_ref().map(|m| m.to_config()),
        ds_digests: plan_digests(&req.meta),
        publish_ds: true,
        wildcard: false,
    };
    // NSEC3-only errors demand an NSEC3 zone even if the meta was silent
    // (dataset metas are normally consistent; this is a safety net).
    let wants_nsec3 = req
        .intended
        .iter()
        .any(|c| matches!(c.category(), ddx_dnsviz::Category::Nsec3Only));
    if wants_nsec3 && leaf.nsec3.is_none() {
        leaf.nsec3 = Some(ddx_dnssec::Nsec3Config::default());
    }

    let mut sandbox = build_sandbox(
        &[
            ZoneSpec::conventional(anchor_apex()),
            ZoneSpec::conventional(parent_apex()),
            leaf,
        ],
        now,
        seed,
    );

    let mut ordered: Vec<ErrorCode> = req.intended.iter().copied().collect();
    ordered.sort_by_key(|c| (injection_phase(*c), *c));

    let mut injected = Vec::new();
    let mut skipped = Vec::new();
    for code in ordered {
        match inject(&mut sandbox, code, now) {
            Ok(detail) => injected.push((code, detail)),
            Err(reason) => skipped.push((code, reason)),
        }
    }

    let probe = probe_config_for(&sandbox, now);
    Ok(Replication {
        sandbox,
        injected,
        skipped,
        substitutions: plan.substitutions,
        probe,
        now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Nsec3Meta;
    use ddx_dnsviz::{grok, probe, SnapshotStatus};

    const NOW: u32 = 1_000_000;

    fn request(codes: &[ErrorCode], nsec3: bool) -> ReplicationRequest {
        let mut meta = ZoneMeta::default();
        if nsec3 {
            meta.nsec3 = Some(Nsec3Meta {
                iterations: 0,
                salt_len: 0,
                opt_out: false,
            });
        }
        ReplicationRequest {
            meta,
            intended: codes.iter().copied().collect(),
        }
    }

    fn run(req: &ReplicationRequest) -> (Replication, ddx_dnsviz::GrokReport) {
        let rep = replicate(req, NOW, 0xBEEF).expect("replication builds");
        let report = grok(&probe(&rep.sandbox.testbed, &rep.probe));
        (rep, report)
    }

    /// Whether `code` needs an NSEC3 leaf to be injectable.
    fn needs_nsec3(code: ErrorCode) -> bool {
        use ErrorCode::*;
        matches!(
            code,
            Nsec3ProofMissing
                | Nsec3BitmapAssertsType
                | Nsec3CoverageBroken
                | Nsec3MissingWildcardProof
                | Nsec3ParamMismatch
                | Nsec3IterationsNonzero
                | Nsec3OptOutViolation
                | Nsec3UnsupportedAlgorithm
                | Nsec3NoClosestEncloser
        )
    }

    #[test]
    fn clean_replication_is_valid() {
        let (_, report) = run(&request(&[], false));
        assert_eq!(
            report.status,
            SnapshotStatus::Sv,
            "errors: {:?}",
            report.codes()
        );
        let (_, report) = run(&request(&[], true));
        assert_eq!(
            report.status,
            SnapshotStatus::Sv,
            "errors: {:?}",
            report.codes()
        );
    }

    #[test]
    fn every_replicable_code_is_reproduced_solo() {
        let mut failures = Vec::new();
        for code in ErrorCode::ALL {
            if !code.replicable() {
                continue;
            }
            let req = request(&[code], needs_nsec3(code));
            let (rep, report) = run(&req);
            if !rep.skipped.is_empty() {
                failures.push(format!("{code}: skipped {:?}", rep.skipped));
                continue;
            }
            let generated = report.codes();
            if !generated.contains(&code) {
                failures.push(format!(
                    "{code}: not generated; got {:?} (status {})",
                    generated, report.status
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "replication gaps:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn unreplicable_codes_are_skipped() {
        for code in ErrorCode::ALL.iter().filter(|c| !c.replicable()) {
            let req = request(&[*code], needs_nsec3(*code));
            let rep = replicate(&req, NOW, 1).unwrap();
            assert!(rep.injected.is_empty());
            assert_eq!(rep.skipped.len(), 1);
            assert_eq!(rep.skipped[0].1, crate::inject::SkipReason::Unreplicable);
        }
    }

    #[test]
    fn multi_error_combination_reproduces_all() {
        // NZIC + extraneous DS: the combination the paper uses to motivate
        // multi-iteration fixes (§5.4).
        let req = request(
            &[
                ErrorCode::Nsec3IterationsNonzero,
                ErrorCode::DsMissingKeyForAlgorithm,
            ],
            true,
        );
        let (rep, report) = run(&req);
        assert!(rep.skipped.is_empty());
        let generated = report.codes();
        for code in &req.intended {
            assert!(generated.contains(code), "missing {code}: {generated:?}");
        }
    }

    #[test]
    fn deprecated_algorithm_meta_substituted_and_valid() {
        let mut meta = ZoneMeta::default();
        for k in &mut meta.keys {
            k.algorithm = 6; // DSA-NSEC3-SHA1
            k.bits = 1024;
        }
        let req = ReplicationRequest {
            meta,
            intended: Default::default(),
        };
        let (rep, report) = run(&req);
        assert_eq!(rep.substitutions.len(), 1);
        assert_eq!(
            report.status,
            SnapshotStatus::Sv,
            "errors: {:?}",
            report.codes()
        );
    }

    #[test]
    fn nsec3_meta_parameters_mirrored() {
        let meta = ZoneMeta {
            nsec3: Some(Nsec3Meta {
                iterations: 15,
                salt_len: 4,
                opt_out: false,
            }),
            ..Default::default()
        };
        let req = ReplicationRequest {
            meta,
            intended: [ErrorCode::Nsec3IterationsNonzero].into_iter().collect(),
        };
        let (_, report) = run(&req);
        assert!(report.codes().contains(&ErrorCode::Nsec3IterationsNonzero));
        assert_eq!(report.status, SnapshotStatus::Svm);
    }
}

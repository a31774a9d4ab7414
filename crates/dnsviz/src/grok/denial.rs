//! Denial pass: negative-response (denial-of-existence) validation over
//! the NXDOMAIN and NODATA probes, plus chain-level NSEC/NSEC3 structural
//! findings.

use std::collections::BTreeSet;

use ddx_dns::{Name, Nsec, Nsec3, RData, Record, RrType};
use ddx_dnssec::{nsec3_hash, verify_nsec3_denial, verify_nsec_denial, DenialFailure, DenialKind};

use super::{nsec3_views, nsec_views, AnalysisPass, ErrorDetail, ZoneAnalysis};
use crate::codes::ErrorCode;
use crate::probe::{ServerProbe, NODATA_PROBE_TYPE, NX_PROBE_LABEL, NX_PROBE_LABEL_HI};

pub(crate) struct DenialPass;

impl AnalysisPass for DenialPass {
    fn name(&self) -> &'static str {
        "denial"
    }

    fn run(&self, za: &mut ZoneAnalysis) {
        if za.budget_tripped() {
            // The signature pass already blew the budget; denial proofs are
            // the other KeyTrap lever, so stop before hashing anything.
            return;
        }
        let zone = za.zp.zone.clone();
        let nx_name = zone
            .child(NX_PROBE_LABEL)
            .expect("NX_PROBE_LABEL is a fixed valid label; appending it cannot fail");
        let nx_name_hi = zone
            .child(NX_PROBE_LABEL_HI)
            .expect("NX_PROBE_LABEL_HI is a fixed valid label; appending it cannot fail");
        let mut seen: BTreeSet<(ErrorCode, String)> = BTreeSet::new();
        // Closest enclosers proven by each server, for consistency checking.
        let mut ancestors: BTreeSet<String> = BTreeSet::new();

        let servers: Vec<ServerProbe> = za
            .zp
            .servers
            .iter()
            .filter(|s| s.responsive)
            .cloned()
            .collect();
        let uses_nsec3 = servers.iter().any(|sp| {
            sp.nsec3param
                .as_ref()
                .map(|m| m.answers.iter().any(|r| r.rtype() == RrType::Nsec3Param))
                .unwrap_or(false)
                || sp
                    .nxdomain
                    .as_ref()
                    .map(|m| m.authorities.iter().any(|r| r.rtype() == RrType::Nsec3))
                    .unwrap_or(false)
                || sp
                    .nodata
                    .as_ref()
                    .map(|m| m.authorities.iter().any(|r| r.rtype() == RrType::Nsec3))
                    .unwrap_or(false)
        });

        for sp in &servers {
            if za.budget_tripped() {
                break;
            }
            // --- NXDOMAIN probes (low- and high-sorting labels) ---
            for (nx, msg) in [(&nx_name, &sp.nxdomain), (&nx_name_hi, &sp.nxdomain_hi)] {
                let Some(msg) = msg else { continue };
                if msg.answers.is_empty() {
                    check_one_denial(
                        za,
                        &zone,
                        nx,
                        RrType::A,
                        DenialKind::NxDomain,
                        &msg.authorities,
                        uses_nsec3,
                        &mut seen,
                    );
                    if let Some(ce) = proven_closest_encloser(za, nx, &msg.authorities) {
                        ancestors.insert(ce);
                    }
                }
            }
            // --- NODATA probe ---
            if let Some(msg) = &sp.nodata {
                if msg.answers.is_empty() && msg.rcode == ddx_dns::Rcode::NoError {
                    check_one_denial(
                        za,
                        &zone,
                        &zone.clone(),
                        NODATA_PROBE_TYPE,
                        DenialKind::NoData,
                        &msg.authorities,
                        uses_nsec3,
                        &mut seen,
                    );
                }
            }
            // --- chain-level NSEC/NSEC3 structural findings ---
            let mut all_denial_records: Vec<Record> = Vec::new();
            for m in [&sp.nxdomain, &sp.nxdomain_hi, &sp.nodata]
                .into_iter()
                .flatten()
            {
                all_denial_records.extend(m.authorities.iter().cloned());
            }
            for (owner, nsec) in nsec_views(&all_denial_records) {
                if owner.canonical_cmp(&nsec.next_name) == std::cmp::Ordering::Greater
                    && nsec.next_name != zone
                {
                    let detail = ErrorDetail::NsecChainEnd {
                        owner: owner.clone(),
                        next: nsec.next_name.clone(),
                    };
                    if seen.insert((ErrorCode::LastNsecNotApex, detail.to_string())) {
                        za.push(ErrorCode::LastNsecNotApex, None, detail);
                    }
                }
            }
            let n3s = nsec3_views(&all_denial_records);
            if !n3s.is_empty() {
                if n3s.iter().any(|(_, n)| n.iterations > 0) {
                    let iters = n3s.iter().map(|(_, n)| n.iterations).max().unwrap_or(0);
                    let detail = ErrorDetail::Nsec3Iterations { iterations: iters };
                    if seen.insert((ErrorCode::Nsec3IterationsNonzero, detail.to_string())) {
                        za.push(ErrorCode::Nsec3IterationsNonzero, None, detail);
                    }
                }
                let flags: BTreeSet<u8> = n3s.iter().map(|(_, n)| n.flags & 0x01).collect();
                if flags.len() > 1 {
                    let detail = ErrorDetail::OptOutInconsistent;
                    if seen.insert((ErrorCode::Nsec3OptOutViolation, detail.to_string())) {
                        za.push(ErrorCode::Nsec3OptOutViolation, None, detail);
                    }
                }
                // NSEC3PARAM agreement.
                if let Some(pmsg) = &sp.nsec3param {
                    for rec in &pmsg.answers {
                        if let RData::Nsec3Param(p) = &rec.rdata {
                            let mismatch = n3s
                                .iter()
                                .any(|(_, n)| n.iterations != p.iterations || n.salt != p.salt);
                            if mismatch {
                                let detail = ErrorDetail::Nsec3ParamDisagrees {
                                    iterations: p.iterations,
                                    salt_len: p.salt.len(),
                                };
                                if seen.insert((ErrorCode::Nsec3ParamMismatch, detail.to_string()))
                                {
                                    za.push(ErrorCode::Nsec3ParamMismatch, None, detail);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Cross-server ancestor agreement needs every server's evidence; a
        // tripped budget means the set is partial, so stay silent.
        if !za.budget_tripped() && ancestors.len() > 1 {
            za.push(
                ErrorCode::Nsec3InconsistentAncestor,
                None,
                ErrorDetail::InconsistentAncestors { ancestors },
            );
        }
    }
}

/// The closest encloser a response's NSEC3 records actually match for
/// `qname`, as a map key (None for NSEC zones / no match). Each candidate
/// hash is charged against the zone's NSEC3 budget; the walk stops (None)
/// once the budget trips.
fn proven_closest_encloser(
    za: &mut ZoneAnalysis,
    qname: &Name,
    records: &[Record],
) -> Option<String> {
    let n3s = nsec3_views(records);
    if n3s.is_empty() {
        return None;
    }
    let (salt, iterations) = {
        let n = &n3s[0].1;
        (n.salt.clone(), n.iterations)
    };
    let per_hash = 1 + iterations as u64;
    let mut candidate = Some(qname.clone());
    while let Some(c) = candidate {
        if !za.charge_nsec3_rounds(per_hash) {
            return None;
        }
        let h = nsec3_hash(&c, &salt, iterations);
        let matches = n3s.iter().any(|(owner, _)| {
            owner
                .labels()
                .first()
                .and_then(|l| std::str::from_utf8(l.as_bytes()).ok())
                .and_then(ddx_dns::base32::decode)
                .map(|oh| oh == h)
                .unwrap_or(false)
        });
        if matches {
            return Some(c.key());
        }
        candidate = c.parent();
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn check_one_denial(
    za: &mut ZoneAnalysis,
    zone: &Name,
    qname: &Name,
    qtype: RrType,
    kind: DenialKind,
    authorities: &[Record],
    uses_nsec3: bool,
    seen: &mut BTreeSet<(ErrorCode, String)>,
) {
    if za.budget_tripped() {
        return;
    }
    let nsecs = nsec_views(authorities);
    let n3s = nsec3_views(authorities);
    let mut emit = |za: &mut ZoneAnalysis, code: ErrorCode, detail: ErrorDetail| {
        if seen.insert((code, detail.to_string())) {
            za.push(code, None, detail);
        }
    };
    if nsecs.is_empty() && n3s.is_empty() {
        let code = if uses_nsec3 {
            ErrorCode::Nsec3ProofMissing
        } else {
            ErrorCode::NsecProofMissing
        };
        emit(
            za,
            code,
            ErrorDetail::DenialMissing {
                qname: qname.clone(),
                qtype,
                kind,
            },
        );
        return;
    }
    if !n3s.is_empty() {
        // Pre-flight the hash bill before verifying: the closest-encloser
        // search hashes every ancestor plus the next-closer and wildcard
        // candidates, so bound it by (labels + 3) names at (1 + iterations)
        // rounds each. A 3000-iteration KeyTrap chain trips here and costs
        // nothing.
        let iterations = n3s[0].1.iterations as u64;
        let estimate = (iterations + 1) * (qname.label_count() as u64 + 3);
        if za.nsec3_preflight_trips(estimate) {
            return;
        }
        let before = ddx_dnssec::work_snapshot();
        let refs: Vec<(&Name, &Nsec3)> = n3s.iter().map(|(o, n)| (o, n)).collect();
        let outcome = verify_nsec3_denial(qname, qtype, kind, &refs, zone);
        // Book the rounds the verifier actually requested (its logical
        // ledger is memo-independent, so this stays deterministic). They
        // are already spent, so a charge the cap refuses still trips the
        // budget and is then booked anyway: the ledger is work performed.
        let spent = ddx_dnssec::work_snapshot().since(&before).nsec3_hash_rounds;
        if !za.charge_nsec3_rounds(spent) {
            za.nsec3_work += spent;
        }
        if let Err(fail) = outcome {
            let (code, detail) = match fail {
                DenialFailure::MissingProof => (
                    ErrorCode::Nsec3ProofMissing,
                    ErrorDetail::NoProof { nsec3: true },
                ),
                DenialFailure::BadCoverage => (
                    ErrorCode::Nsec3CoverageBroken,
                    ErrorDetail::NotCovered {
                        qname: qname.clone(),
                        nsec3: true,
                    },
                ),
                DenialFailure::BitmapAssertsType(t) => (
                    ErrorCode::Nsec3BitmapAssertsType,
                    ErrorDetail::BitmapAssertsType {
                        qname: qname.clone(),
                        rtype: t,
                        nsec3: true,
                    },
                ),
                DenialFailure::MissingClosestEncloser => (
                    ErrorCode::Nsec3NoClosestEncloser,
                    ErrorDetail::NoClosestEncloser {
                        qname: qname.clone(),
                    },
                ),
                DenialFailure::MissingWildcardProof => (
                    ErrorCode::Nsec3MissingWildcardProof,
                    ErrorDetail::WildcardUnproven {
                        qname: qname.clone(),
                    },
                ),
                DenialFailure::InvalidOwnerName(n) => (
                    ErrorCode::Nsec3OwnerNotBase32,
                    ErrorDetail::InvalidNsec3Owner { owner: n },
                ),
                DenialFailure::InvalidHashLength(l) => (
                    ErrorCode::Nsec3HashInvalidLength,
                    ErrorDetail::Nsec3HashLength { length: l },
                ),
                DenialFailure::UnsupportedAlgorithm(a) => (
                    ErrorCode::Nsec3UnsupportedAlgorithm,
                    ErrorDetail::Nsec3HashAlgorithm { algorithm: a },
                ),
            };
            emit(za, code, detail);
        }
    }
    if !nsecs.is_empty() {
        let refs: Vec<(&Name, &Nsec)> = nsecs.iter().map(|(o, n)| (o, n)).collect();
        if let Err(fail) = verify_nsec_denial(qname, qtype, kind, &refs, zone) {
            let (code, detail) = match fail {
                DenialFailure::MissingProof => (
                    ErrorCode::NsecProofMissing,
                    ErrorDetail::NoProof { nsec3: false },
                ),
                DenialFailure::BadCoverage => (
                    ErrorCode::NsecCoverageBroken,
                    ErrorDetail::NotCovered {
                        qname: qname.clone(),
                        nsec3: false,
                    },
                ),
                DenialFailure::BitmapAssertsType(t) => (
                    ErrorCode::NsecBitmapAssertsType,
                    ErrorDetail::BitmapAssertsType {
                        qname: qname.clone(),
                        rtype: t,
                        nsec3: false,
                    },
                ),
                DenialFailure::MissingWildcardProof => (
                    ErrorCode::NsecMissingWildcardProof,
                    ErrorDetail::WildcardUnproven {
                        qname: qname.clone(),
                    },
                ),
                other => (
                    ErrorCode::NsecCoverageBroken,
                    ErrorDetail::Note(format!("unexpected NSEC failure {other:?} for {qname}")),
                ),
            };
            emit(za, code, detail);
        }
    }
}

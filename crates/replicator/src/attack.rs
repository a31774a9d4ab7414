//! KeyTrap-class adversarial zone generator: injectors that make the
//! sandbox *algorithmically expensive* to validate rather than merely
//! broken. Each family models one published attack shape (CVE-2023-50387
//! and friends): SigJam floods one RRset with colliding-tag signatures,
//! LockCram crams the DNSKEY RRset with a keys×sigs cross product,
//! high-iteration NSEC3 makes every denial proof cost thousands of hash
//! rounds, and oversized RRsets bloat both DNSKEY and RRSIG sets at once.
//!
//! Like the error injectors in [`crate::inject`](mod@crate::inject), every attack returns the
//! `(ErrorCode, ErrorDetail)` payload grok is expected to produce — always
//! [`ErrorCode::ValidationBudgetExceeded`] here, with the
//! [`ErrorDetail::BudgetExceeded`] counter naming the budget the family is
//! built to exhaust.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ddx_dns::{Name, RData, Record, RrType};
use ddx_dnssec::{sigs_covering, Algorithm, KeyPair, KeyRole, SignOptions, DNSKEY_TTL};
use ddx_dnsviz::{BudgetCounter, ErrorCode, ErrorDetail, ValidationBudget};
use ddx_server::Sandbox;

use crate::inject::SkipReason;
use crate::meta::{MetaError, Nsec3Meta, ZoneMeta};
use crate::replicate::{replicate, Replication, ReplicationRequest};

/// Colliding-tag signature copies SigJam plants on one RRset. Comfortably
/// above the default per-zone signature budget (512) so a single server's
/// material trips it.
pub(crate) const SIGJAM_SIG_COPIES: usize = 600;

/// Foreign keys LockCram publishes, each contributing one more DNSKEY
/// record *and* one more RRSIG over the (ever larger) DNSKEY RRset.
pub(crate) const LOCKCRAM_KEYS: usize = 560;

/// NSEC3 iteration count of the high-iteration family — far beyond the
/// RFC 9276 guidance of 0, and high enough that a single denial proof's
/// pre-flight estimate exceeds the default hash budget (16 384 rounds).
pub(crate) const NSEC3_ATTACK_ITERATIONS: u16 = 2_500;

/// Empty-non-terminal depth of the high-iteration family's decoy name:
/// each extra label is one more closest-encloser candidate to hash.
pub(crate) const NSEC3_ATTACK_ENT_DEPTH: usize = 8;

/// Foreign keys the oversized-RRset family adds to the DNSKEY RRset.
pub(crate) const OVERSIZED_KEYS: usize = 64;

/// Tampered signature copies the oversized-RRset family plants on the
/// apex SOA RRset.
pub(crate) const OVERSIZED_SIG_COPIES: usize = 560;

/// The four adversarial zone shapes of the attack corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackFamily {
    /// Many invalid RRSIGs with the real key's tag on one RRset: every
    /// copy forces a full verification attempt before rejection.
    SigJam,
    /// Many foreign DNSKEYs, each signing the bloated DNSKEY RRset — the
    /// keys×signatures cross product.
    LockCram,
    /// NSEC3 with thousands of iterations plus a deep empty-non-terminal
    /// chain: every denial proof costs `(iterations+1)` hash rounds per
    /// closest-encloser candidate.
    Nsec3Iterations,
    /// Oversized DNSKEY and RRSIG RRsets together: RRset bloat without a
    /// single colliding pair being load-bearing.
    OversizedRrset,
}

impl AttackFamily {
    pub const ALL: [AttackFamily; 4] = [
        AttackFamily::SigJam,
        AttackFamily::LockCram,
        AttackFamily::Nsec3Iterations,
        AttackFamily::OversizedRrset,
    ];

    /// Stable lowercase label (metric labels, CHAOS_VARIANT-style env
    /// selection in tests).
    pub fn label(&self) -> &'static str {
        match self {
            AttackFamily::SigJam => "sigjam",
            AttackFamily::LockCram => "lockcram",
            AttackFamily::Nsec3Iterations => "nsec3-iterations",
            AttackFamily::OversizedRrset => "oversized-rrset",
        }
    }

    /// Whether the family needs an NSEC3 leaf zone.
    pub(crate) fn wants_nsec3(&self) -> bool {
        matches!(self, AttackFamily::LockCram | AttackFamily::Nsec3Iterations)
    }

    /// The budget counter the family is built to exhaust.
    pub fn counter(&self) -> BudgetCounter {
        match self {
            AttackFamily::Nsec3Iterations => BudgetCounter::Nsec3Hashes,
            _ => BudgetCounter::SigVerifications,
        }
    }
}

impl std::fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn attack_window(now: u32) -> SignOptions {
    SignOptions {
        inception: now.saturating_sub(3600),
        expiration: now + 30 * 86_400,
    }
}

/// The intended grok finding for a family. `used` is zero: the actual
/// count depends on how much evidence grok collects before tripping, so
/// the contract is the code, the counter, and the (default) cap — tests
/// compare those, never the runtime tally.
fn intended(counter: BudgetCounter) -> (ErrorCode, ErrorDetail) {
    let budget = ValidationBudget::default();
    let cap = match counter {
        BudgetCounter::SigVerifications => budget.max_sig_verifications,
        BudgetCounter::Nsec3Hashes => budget.max_nsec3_hashes,
    };
    (
        ErrorCode::ValidationBudgetExceeded,
        ErrorDetail::BudgetExceeded {
            counter,
            used: 0,
            cap,
        },
    )
}

/// Plants `copies` distinct invalid duplicates of the first RRSIG covering
/// (`name`, `rtype`) — same key tag, same window, garbage signature bytes.
/// The first two signature bytes carry the copy index so every duplicate
/// has distinct RDATA and survives RRset deduplication.
fn flood_sigs(zone: &mut ddx_dns::Zone, name: &Name, rtype: RrType, copies: usize) {
    let sigs = sigs_covering(zone, name, rtype);
    let Some(orig) = sigs.first().cloned() else {
        return;
    };
    for i in 0..copies {
        let mut sig = orig.clone();
        if sig.signature.len() >= 2 {
            sig.signature[0] = i as u8;
            sig.signature[1] = (i >> 8) as u8;
        }
        zone.add(Record::new(name.clone(), 300, RData::Rrsig(sig)));
    }
}

/// Injects one attack family into the sandbox's leaf zone.
///
/// Deterministic: attack key material is generated from fixed seeds, so two
/// sandboxes built from the same seed stay byte-identical after the same
/// injection.
pub fn inject_attack(
    sb: &mut Sandbox,
    family: AttackFamily,
    now: u32,
) -> Result<(ErrorCode, ErrorDetail), SkipReason> {
    let apex = sb.leaf().apex.clone();
    let www = apex.child("www").expect("label fits");
    match family {
        AttackFamily::SigJam => {
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                flood_sigs(zone, &www, RrType::A, SIGJAM_SIG_COPIES);
            });
            Ok(intended(BudgetCounter::SigVerifications))
        }
        AttackFamily::LockCram => {
            let mut rng = StdRng::seed_from_u64(0xA7_AC_01);
            let keys: Vec<KeyPair> = (0..LOCKCRAM_KEYS)
                .map(|_| {
                    KeyPair::generate(
                        &mut rng,
                        apex.clone(),
                        Algorithm::EcdsaP256Sha256,
                        256,
                        KeyRole::Zsk,
                        now,
                    )
                })
                .collect();
            let opts = attack_window(now);
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                for k in &keys {
                    zone.add(Record::new(
                        apex.clone(),
                        DNSKEY_TTL,
                        RData::Dnskey(k.dnskey.clone()),
                    ));
                }
                // Every foreign key signs the final bloated RRset: each
                // signature actually verifies, so the zone is "valid" — it
                // just demands quadratic-shaped work to prove it.
                if let Some(set) = zone.get(&apex, RrType::Dnskey).cloned() {
                    for k in &keys {
                        let sig = ddx_dnssec::sign_rrset(&set, k, opts);
                        zone.add(Record::new(apex.clone(), set.ttl, RData::Rrsig(sig)));
                    }
                }
            });
            Ok(intended(BudgetCounter::SigVerifications))
        }
        AttackFamily::Nsec3Iterations => {
            {
                let z = sb.zone_mut(&apex).ok_or(SkipReason::MissingKeyMaterial)?;
                let Some(n3) = &mut z.spec.nsec3 else {
                    return Err(SkipReason::DenialModeMismatch);
                };
                n3.iterations = NSEC3_ATTACK_ITERATIONS;
                z.signer_config = ddx_dnssec::SignerConfig::nsec3_at(
                    now,
                    z.spec.nsec3.clone().expect("checked above"),
                );
            }
            // A deep empty-non-terminal chain: the decoy leaf hangs
            // NSEC3_ATTACK_ENT_DEPTH labels below the apex, so a
            // closest-encloser search has that many candidates to hash —
            // each at NSEC3_ATTACK_ITERATIONS+1 rounds.
            let mut deep = apex.clone();
            for i in 0..NSEC3_ATTACK_ENT_DEPTH {
                deep = deep.child(&format!("e{i}")).expect("label fits");
            }
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                zone.add(Record::new(
                    deep.clone(),
                    300,
                    RData::A(std::net::Ipv4Addr::new(198, 51, 100, 66)),
                ));
            });
            sb.resign_zone(&apex, now)
                .map_err(|_| SkipReason::MissingKeyMaterial)?;
            Ok(intended(BudgetCounter::Nsec3Hashes))
        }
        AttackFamily::OversizedRrset => {
            let mut rng = StdRng::seed_from_u64(0xA7_AC_02);
            let keys: Vec<KeyPair> = (0..OVERSIZED_KEYS)
                .map(|_| {
                    KeyPair::generate(
                        &mut rng,
                        apex.clone(),
                        Algorithm::EcdsaP256Sha256,
                        256,
                        KeyRole::Zsk,
                        now,
                    )
                })
                .collect();
            sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                for k in &keys {
                    zone.add(Record::new(
                        apex.clone(),
                        DNSKEY_TTL,
                        RData::Dnskey(k.dnskey.clone()),
                    ));
                }
                flood_sigs(zone, &apex, RrType::Soa, OVERSIZED_SIG_COPIES);
            });
            Ok(intended(BudgetCounter::SigVerifications))
        }
    }
}

/// Builds a fresh three-zone sandbox and injects one attack family into
/// its leaf — the attack-corpus analogue of [`replicate`]. The returned
/// [`Replication`] carries the intended `(code, detail)` in `injected`.
pub fn replicate_attack(
    family: AttackFamily,
    now: u32,
    seed: u64,
) -> Result<Replication, MetaError> {
    let mut meta = ZoneMeta::default();
    if family.wants_nsec3() {
        meta.nsec3 = Some(Nsec3Meta {
            iterations: 0,
            salt_len: 0,
            opt_out: false,
        });
    }
    let req = ReplicationRequest {
        meta,
        intended: Default::default(),
    };
    let mut rep = replicate(&req, now, seed)?;
    match inject_attack(&mut rep.sandbox, family, now) {
        Ok(pair) => rep.injected.push(pair),
        Err(reason) => rep
            .skipped
            .push((ErrorCode::ValidationBudgetExceeded, reason)),
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dnsviz::{grok, probe, SnapshotStatus};

    const NOW: u32 = 1_000_000;

    #[test]
    fn every_family_trips_the_default_budget() {
        for family in AttackFamily::ALL {
            let rep = replicate_attack(family, NOW, 0xA77C).expect("attack builds");
            assert!(
                rep.skipped.is_empty(),
                "{family}: skipped {:?}",
                rep.skipped
            );
            let report = grok(&probe(&rep.sandbox.testbed, &rep.probe));
            let codes = report.codes();
            assert!(
                codes.contains(&ErrorCode::ValidationBudgetExceeded),
                "{family}: no budget trip; got {codes:?} (status {})",
                report.status
            );
            assert_eq!(report.status, SnapshotStatus::Sb, "{family}");
            // The typed detail names the counter the family targets.
            let detail = report
                .errors()
                .find(|e| e.code == ErrorCode::ValidationBudgetExceeded)
                .map(|e| e.detail.clone())
                .expect("error carries detail");
            match detail {
                ErrorDetail::BudgetExceeded { counter, used, cap } => {
                    assert_eq!(counter, family.counter(), "{family}");
                    assert!(used > cap, "{family}: used {used} <= cap {cap}");
                }
                other => panic!("{family}: unexpected detail {other:?}"),
            }
        }
    }

    #[test]
    fn unlimited_budget_does_not_trip() {
        use ddx_dnsviz::grok_with_budget;
        let rep = replicate_attack(AttackFamily::SigJam, NOW, 0xA77C).expect("attack builds");
        let report = grok_with_budget(
            &probe(&rep.sandbox.testbed, &rep.probe),
            &ValidationBudget::unlimited(),
        );
        assert!(
            !report
                .codes()
                .contains(&ErrorCode::ValidationBudgetExceeded),
            "unlimited budget must never trip: {:?}",
            report.codes()
        );
    }

    #[test]
    fn attack_injection_is_deterministic() {
        let a = replicate_attack(AttackFamily::LockCram, NOW, 7).expect("attack builds");
        let b = replicate_attack(AttackFamily::LockCram, NOW, 7).expect("attack builds");
        let (a, b) = (&a.sandbox, &b.sandbox);
        assert_eq!(
            a.testbed.topology_fingerprint(),
            b.testbed.topology_fingerprint(),
            "same seed must build the same topology"
        );
        assert_eq!(a.zones.len(), b.zones.len());
        // `Zone` equality ignores generation stamps, so this compares content.
        for (za, zb) in a.zones.iter().zip(&b.zones) {
            assert_eq!(za.servers, zb.servers, "{}", za.apex);
            for id in &za.servers {
                let [copy_a, copy_b] = [a, b].map(|sb| {
                    sb.testbed
                        .server(id)
                        .and_then(|server| server.zone(&za.apex))
                        .expect("a zone's servers host it")
                });
                assert!(
                    copy_a == copy_b,
                    "same seed must build identical copies of {} on {}",
                    za.apex,
                    id.0
                );
            }
        }
    }
}

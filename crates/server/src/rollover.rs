//! Operator key-rollover workflows (RFC 6781 / RFC 7583): the multi-phase
//! procedures whose mishandling causes the paper's sv→sb negative
//! transitions (§3.4: key rollovers 45.2%, algorithm rollovers 30.3%).
//! A correctly executed rollover keeps the zone valid at *every* phase; the
//! botched variants reproduce the observed breakage.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ddx_dns::Name;
use ddx_dnssec::{make_ds, Algorithm, DigestType, KeyPair, KeyRole, DNSKEY_TTL};

use crate::sandbox::Sandbox;

/// The rollover strategies modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloverKind {
    /// Pre-publish ZSK rollover (RFC 6781 §4.1.1.1).
    ZskPrePublish,
    /// Double-DS KSK rollover (RFC 6781 §4.1.2).
    KskDoubleDs,
    /// Conservative algorithm rollover (RFC 6781 §4.1.4): new-algorithm
    /// keys and signatures first, DS swap afterwards.
    AlgorithmConservative,
}

/// One executed phase: what happened and how long to wait before the next.
#[derive(Debug, Clone)]
pub struct RolloverStep {
    pub phase: usize,
    pub description: String,
    /// Seconds the operator must wait before the next phase (cache expiry).
    pub wait_secs: u32,
}

/// A rollover in progress on the sandbox's zone `apex`.
pub struct Rollover {
    pub kind: RolloverKind,
    pub apex: Name,
    phase: usize,
    new_tags: Vec<u16>,
    old_tags: Vec<u16>,
    digest: DigestType,
    rng: StdRng,
    new_algorithm: Algorithm,
}

impl Rollover {
    /// Prepares a rollover. For [`RolloverKind::AlgorithmConservative`],
    /// `new_algorithm` is the target; otherwise the current algorithm is
    /// reused.
    pub fn start(
        sandbox: &Sandbox,
        apex: &Name,
        kind: RolloverKind,
        new_algorithm: Option<Algorithm>,
        seed: u64,
    ) -> Self {
        let zone = sandbox
            .zone(apex)
            .expect("Rollover::start precondition: apex names a zone in this sandbox");
        let current_alg = zone
            .ring
            .keys()
            .first()
            .and_then(|k| k.algorithm())
            .unwrap_or(Algorithm::EcdsaP256Sha256);
        let digest = zone
            .spec
            .ds_digests
            .first()
            .copied()
            .unwrap_or(DigestType::Sha256);
        Rollover {
            kind,
            apex: apex.clone(),
            phase: 0,
            new_tags: Vec::new(),
            old_tags: Vec::new(),
            digest,
            rng: StdRng::seed_from_u64(seed),
            new_algorithm: new_algorithm.unwrap_or(current_alg),
        }
    }

    /// True once every phase has run.
    pub(crate) fn is_complete(&self) -> bool {
        self.phase >= self.total_phases()
    }

    fn total_phases(&self) -> usize {
        match self.kind {
            RolloverKind::ZskPrePublish => 3,
            RolloverKind::KskDoubleDs => 3,
            RolloverKind::AlgorithmConservative => 4,
        }
    }

    /// Executes the next phase at time `now`; returns `None` when done.
    pub fn advance(&mut self, sandbox: &mut Sandbox, now: u32) -> Option<RolloverStep> {
        if self.is_complete() {
            return None;
        }
        let step = match self.kind {
            RolloverKind::ZskPrePublish => self.advance_zsk(sandbox, now),
            RolloverKind::KskDoubleDs => self.advance_ksk(sandbox, now),
            RolloverKind::AlgorithmConservative => self.advance_algorithm(sandbox, now),
        };
        self.phase += 1;
        Some(step)
    }

    fn advance_zsk(&mut self, sandbox: &mut Sandbox, now: u32) -> RolloverStep {
        let apex = self.apex.clone();
        match self.phase {
            0 => {
                // Publish the successor, inactive until caches hold it.
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                let alg = self.new_algorithm;
                let bits = alg.default_key_bits();
                let mut key =
                    KeyPair::generate(&mut self.rng, apex.clone(), alg, bits, KeyRole::Zsk, now);
                key.activate = now + DNSKEY_TTL;
                self.new_tags = vec![key.key_tag()];
                self.old_tags = zone
                    .ring
                    .active(KeyRole::Zsk, now)
                    .iter()
                    .map(|k| k.key_tag())
                    .collect();
                zone.ring.add(key);
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 1,
                    description: "publish successor ZSK (inactive)".into(),
                    wait_secs: DNSKEY_TTL,
                }
            }
            1 => {
                // New key is active by now; retire the old signer.
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                for tag in &self.old_tags {
                    if let Some(k) = zone.ring.by_tag_mut(*tag) {
                        k.schedule_retire(now);
                    }
                }
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 2,
                    description: "switch signing to the successor ZSK".into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            _ => {
                // Old signatures have expired from caches: drop the old key.
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                for tag in &self.old_tags {
                    if let Some(k) = zone.ring.by_tag_mut(*tag) {
                        k.schedule_delete(now);
                    }
                }
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 3,
                    description: "remove the predecessor ZSK".into(),
                    wait_secs: 0,
                }
            }
        }
    }

    fn advance_ksk(&mut self, sandbox: &mut Sandbox, now: u32) -> RolloverStep {
        let apex = self.apex.clone();
        match self.phase {
            0 => {
                // Publish successor KSK and the additional DS (double-DS).
                let alg = self.new_algorithm;
                let bits = alg.default_key_bits();
                let (new_ds, old_ds) = {
                    let zone = sandbox.zone_mut(&apex).expect(
                        "self.apex named a sandbox zone at start(); zones are never removed",
                    );
                    let key = KeyPair::generate(
                        &mut self.rng,
                        apex.clone(),
                        alg,
                        bits,
                        KeyRole::Ksk,
                        now,
                    );
                    self.new_tags = vec![key.key_tag()];
                    self.old_tags = zone
                        .ring
                        .active(KeyRole::Ksk, now)
                        .iter()
                        .map(|k| k.key_tag())
                        .collect();
                    let new_ds = make_ds(&apex, &key.dnskey, self.digest);
                    let old_ds: Vec<_> = zone
                        .ring
                        .keys()
                        .iter()
                        .filter(|k| self.old_tags.contains(&k.key_tag()))
                        .map(|k| make_ds(&apex, &k.dnskey, self.digest))
                        .collect();
                    zone.ring.add(key);
                    (new_ds, old_ds)
                };
                let _ = sandbox.resign_zone(&apex, now);
                let mut all_ds = old_ds;
                all_ds.push(new_ds);
                sandbox.set_ds(&apex, all_ds, now);
                RolloverStep {
                    phase: 1,
                    description: "publish successor KSK and add its DS alongside the old one"
                        .into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            1 => {
                // Caches have the new DS: retire the old KSK and its DS.
                let new_ds = {
                    let zone = sandbox.zone_mut(&apex).expect(
                        "self.apex named a sandbox zone at start(); zones are never removed",
                    );
                    for tag in self.old_tags.clone() {
                        if let Some(k) = zone.ring.by_tag_mut(tag) {
                            k.schedule_retire(now);
                        }
                    }
                    zone.ring
                        .keys()
                        .iter()
                        .filter(|k| self.new_tags.contains(&k.key_tag()))
                        .map(|k| make_ds(&apex, &k.dnskey, self.digest))
                        .collect::<Vec<_>>()
                };
                let _ = sandbox.resign_zone(&apex, now);
                sandbox.set_ds(&apex, new_ds, now);
                RolloverStep {
                    phase: 2,
                    description: "remove the old DS; retire the old KSK".into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            _ => {
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                for tag in self.old_tags.clone() {
                    if let Some(k) = zone.ring.by_tag_mut(tag) {
                        k.schedule_delete(now);
                    }
                }
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 3,
                    description: "delete the predecessor KSK".into(),
                    wait_secs: 0,
                }
            }
        }
    }

    fn advance_algorithm(&mut self, sandbox: &mut Sandbox, now: u32) -> RolloverStep {
        let apex = self.apex.clone();
        match self.phase {
            0 => {
                // Introduce new-algorithm KSK+ZSK: keys and signatures
                // appear together (every RRset gets dual-algorithm RRSIGs,
                // RFC 6840 §5.11 compliant at all times).
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                self.old_tags = zone.ring.keys().iter().map(|k| k.key_tag()).collect();
                let alg = self.new_algorithm;
                let bits = alg.default_key_bits();
                for role in [KeyRole::Ksk, KeyRole::Zsk] {
                    let key = KeyPair::generate(&mut self.rng, apex.clone(), alg, bits, role, now);
                    self.new_tags.push(key.key_tag());
                    zone.ring.add(key);
                }
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 1,
                    description: "publish new-algorithm keys and dual-algorithm signatures".into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            1 => {
                // Add the new-algorithm DS next to the old one.
                let new_ds = {
                    let zone = sandbox.zone(&apex).expect(
                        "self.apex named a sandbox zone at start(); zones are never removed",
                    );
                    zone.ring
                        .keys()
                        .iter()
                        .filter(|k| k.role == KeyRole::Ksk && k.is_active(now))
                        .map(|k| make_ds(&apex, &k.dnskey, self.digest))
                        .collect::<Vec<_>>()
                };
                sandbox.set_ds(&apex, new_ds, now);
                RolloverStep {
                    phase: 2,
                    description: "publish DS records for both algorithms".into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            2 => {
                // Drop the old-algorithm DS.
                let new_only = {
                    let zone = sandbox.zone(&apex).expect(
                        "self.apex named a sandbox zone at start(); zones are never removed",
                    );
                    zone.ring
                        .keys()
                        .iter()
                        .filter(|k| k.role == KeyRole::Ksk && self.new_tags.contains(&k.key_tag()))
                        .map(|k| make_ds(&apex, &k.dnskey, self.digest))
                        .collect::<Vec<_>>()
                };
                sandbox.set_ds(&apex, new_only, now);
                RolloverStep {
                    phase: 3,
                    description: "remove the old-algorithm DS".into(),
                    wait_secs: 2 * DNSKEY_TTL,
                }
            }
            _ => {
                // Retire and delete the old-algorithm keys.
                let zone = sandbox
                    .zone_mut(&apex)
                    .expect("self.apex named a sandbox zone at start(); zones are never removed");
                for tag in self.old_tags.clone() {
                    if let Some(k) = zone.ring.by_tag_mut(tag) {
                        k.schedule_retire(now);
                        k.schedule_delete(now);
                    }
                }
                let _ = sandbox.resign_zone(&apex, now);
                RolloverStep {
                    phase: 4,
                    description: "remove the old-algorithm keys and signatures".into(),
                    wait_secs: 0,
                }
            }
        }
    }
}

/// The classic botched KSK rollover behind many sv→sb transitions
/// (paper §3.4): the operator replaces the KSK and re-signs but **forgets
/// to update the DS at the registrar** — the delegation now references a
/// key that no longer exists.
pub fn botched_ksk_rollover(sandbox: &mut Sandbox, apex: &Name, now: u32, seed: u64) {
    let zone = sandbox
        .zone_mut(apex)
        .expect("self.apex named a sandbox zone at start(); zones are never removed");
    let old_tags: Vec<u16> = zone
        .ring
        .active(KeyRole::Ksk, now)
        .iter()
        .map(|k| k.key_tag())
        .collect();
    let alg = zone
        .ring
        .keys()
        .first()
        .and_then(|k| k.algorithm())
        .unwrap_or(Algorithm::EcdsaP256Sha256);
    let key = KeyPair::generate(
        &mut StdRng::seed_from_u64(seed),
        apex.clone(),
        alg,
        alg.default_key_bits(),
        KeyRole::Ksk,
        now,
    );
    zone.ring.add(key);
    for tag in old_tags {
        if let Some(k) = zone.ring.by_tag_mut(tag) {
            k.schedule_delete(now);
        }
    }
    let _ = sandbox.resign_zone(apex, now);
    // …and no set_ds() call: the registrar never hears about it.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sandbox::{build_sandbox, ZoneSpec};
    use ddx_dns::name;

    const NOW: u32 = 1_000_000;

    fn sandbox() -> Sandbox {
        build_sandbox(
            &[
                ZoneSpec::conventional(name("a.com")),
                ZoneSpec::conventional(name("par.a.com")),
            ],
            NOW,
            51,
        )
    }

    /// Drives a rollover to completion, returning the times each phase ran.
    fn run_rollover(sb: &mut Sandbox, kind: RolloverKind, alg: Option<Algorithm>) -> Vec<u32> {
        let apex = name("par.a.com");
        let mut rollover = Rollover::start(sb, &apex, kind, alg, 7);
        let mut now = NOW;
        let mut times = Vec::new();
        while let Some(step) = rollover.advance(sb, now) {
            times.push(now);
            now += step.wait_secs + 1;
        }
        assert!(rollover.is_complete());
        times
    }

    #[test]
    fn zsk_rollover_completes_and_replaces_key() {
        let mut sb = sandbox();
        let apex = name("par.a.com");
        let old_tag = sb.zone(&apex).unwrap().ring.active(KeyRole::Zsk, NOW)[0].key_tag();
        let times = run_rollover(&mut sb, RolloverKind::ZskPrePublish, None);
        assert_eq!(times.len(), 3);
        let end = *times.last().unwrap();
        let ring = &sb.zone(&apex).unwrap().ring;
        let active: Vec<u16> = ring
            .active(KeyRole::Zsk, end)
            .iter()
            .map(|k| k.key_tag())
            .collect();
        assert!(!active.contains(&old_tag), "old ZSK still signing");
        assert_eq!(active.len(), 1);
    }

    #[test]
    fn ksk_double_ds_rollover_updates_delegation() {
        let mut sb = sandbox();
        let apex = name("par.a.com");
        let old_tag = sb.zone(&apex).unwrap().ring.active(KeyRole::Ksk, NOW)[0].key_tag();
        run_rollover(&mut sb, RolloverKind::KskDoubleDs, None);
        // The parent's DS now references only the new KSK.
        let parent = name("a.com");
        let pzone = sb
            .testbed
            .server(&sb.zone(&parent).unwrap().servers[0])
            .unwrap()
            .zone(&parent)
            .unwrap();
        let ds_set = pzone.get(&apex, ddx_dns::RrType::Ds).unwrap();
        for rd in &ds_set.rdatas {
            if let ddx_dns::RData::Ds(ds) = rd {
                assert_ne!(ds.key_tag, old_tag, "old DS still delegated");
            }
        }
    }

    #[test]
    fn algorithm_rollover_switches_algorithms() {
        let mut sb = sandbox();
        let apex = name("par.a.com");
        let times = run_rollover(
            &mut sb,
            RolloverKind::AlgorithmConservative,
            Some(Algorithm::RsaSha256),
        );
        assert_eq!(times.len(), 4);
        let end = *times.last().unwrap();
        let algos = sb.zone(&apex).unwrap().ring.algorithms(end);
        assert_eq!(algos, vec![8], "only the new algorithm remains: {algos:?}");
    }

    #[test]
    fn botched_rollover_breaks_delegation() {
        let mut sb = sandbox();
        let apex = name("par.a.com");
        botched_ksk_rollover(&mut sb, &apex, NOW, 99);
        // The DS at the parent references the deleted key: every published
        // key now mismatches every DS.
        let parent = name("a.com");
        let pzone = sb
            .testbed
            .server(&sb.zone(&parent).unwrap().servers[0])
            .unwrap()
            .zone(&parent)
            .unwrap();
        let ds_tags: Vec<u16> = pzone
            .get(&apex, ddx_dns::RrType::Ds)
            .unwrap()
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                ddx_dns::RData::Ds(d) => Some(d.key_tag),
                _ => None,
            })
            .collect();
        let published: Vec<u16> = sb
            .zone(&apex)
            .unwrap()
            .ring
            .published(NOW)
            .iter()
            .map(|k| k.key_tag())
            .collect();
        assert!(ds_tags.iter().all(|t| !published.contains(t)));
    }
}

#[cfg(test)]
mod wildcard_tests {
    use crate::sandbox::{build_sandbox, ZoneSpec};
    use crate::testbed::Network;
    use ddx_dns::{name, Message, RData, RrType};

    const NOW: u32 = 1_000_000;

    #[test]
    fn wildcard_answer_synthesized_with_wildcard_rrsig() {
        let mut spec = ZoneSpec::conventional(name("wild.test"));
        spec.wildcard = true;
        let sb = build_sandbox(&[spec], NOW, 71);
        let sid = sb.zones[0].servers[0].clone();
        let q = Message::query(1, name("anything.wild.test"), RrType::A);
        let r = sb.testbed.query(&sid, &q).unwrap();
        // Positive answer at the queried name…
        let set = r
            .find_answer(&name("anything.wild.test"), RrType::A)
            .expect("wildcard expansion");
        assert_eq!(set.len(), 1);
        // …signed with the *wildcard's* RRSIG: labels < owner labels.
        let sig = r
            .answers
            .iter()
            .find_map(|rec| match &rec.rdata {
                RData::Rrsig(s) if s.type_covered == RrType::A => Some(s.clone()),
                _ => None,
            })
            .expect("wildcard RRSIG present");
        assert_eq!(sig.labels as usize, 2, "labels excludes the * label");
        // …and the exact-name denial comes along (RFC 4035 §3.1.3.3).
        assert!(r.authorities.iter().any(|rec| rec.rtype() == RrType::Nsec));
    }

    #[test]
    fn wildcard_expansion_verifies_cryptographically() {
        use ddx_dnssec::verify_rrset;
        let mut spec = ZoneSpec::conventional(name("wild.test"));
        spec.wildcard = true;
        let sb = build_sandbox(&[spec], NOW, 72);
        let sid = sb.zones[0].servers[0].clone();
        let q = Message::query(2, name("xyz.wild.test"), RrType::A);
        let r = sb.testbed.query(&sid, &q).unwrap();
        let set = r.find_answer(&name("xyz.wild.test"), RrType::A).unwrap();
        let sig = r
            .answers
            .iter()
            .find_map(|rec| match &rec.rdata {
                RData::Rrsig(s) if s.type_covered == RrType::A => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        let keys = sb
            .testbed
            .server(&sid)
            .unwrap()
            .zone(&name("wild.test"))
            .unwrap()
            .get(&name("wild.test"), RrType::Dnskey)
            .unwrap()
            .clone();
        let ok = keys.rdatas.iter().any(|rd| match rd {
            RData::Dnskey(k) => verify_rrset(&set, &sig, k, &name("wild.test"), NOW).is_ok(),
            _ => false,
        });
        assert!(ok, "RFC 4035 §5.3.2 wildcard reconstruction must verify");
    }

    #[test]
    fn existing_names_not_shadowed_by_wildcard() {
        let mut spec = ZoneSpec::conventional(name("wild.test"));
        spec.wildcard = true;
        let sb = build_sandbox(&[spec], NOW, 73);
        let sid = sb.zones[0].servers[0].clone();
        // www exists explicitly: the explicit record wins (RFC 1034 §4.3.3).
        let q = Message::query(3, name("www.wild.test"), RrType::A);
        let r = sb.testbed.query(&sid, &q).unwrap();
        let set = r.find_answer(&name("www.wild.test"), RrType::A).unwrap();
        match &set.rdatas[0] {
            RData::A(a) => assert_eq!(a.octets(), [198, 51, 100, 80]),
            other => panic!("unexpected {other:?}"),
        }
        // NODATA under the wildcard still works: * has no TXT.
        let q = Message::query(4, name("zzz.wild.test"), RrType::Txt);
        let r = sb.testbed.query(&sid, &q).unwrap();
        assert!(r.answers.is_empty());
    }
}

//! Whole-zone signing: the in-process model of `dnssec-signzone`.
//!
//! Given a zone's plain data and a [`KeyRing`], the signer publishes the
//! DNSKEY RRset, builds the configured denial-of-existence chain, and signs
//! every authoritative RRset with the appropriate keys per algorithm —
//! KSKs over the DNSKEY RRset, ZSKs over everything else, falling back
//! across roles the way BIND does. Delegation NS sets and glue are left
//! unsigned (RFC 4035 §2.2).

use ddx_dns::{Name, RData, RRset, Record, RrType, Rrsig, Zone, ZoneChanges};

use crate::cache::SigCache;
use crate::denial::{build_nsec3_chain, build_nsec_chain, DenialMode};
use crate::keys::{KeyPair, KeyRing, KeyRole};
use crate::sign::{sign_rrset, SignOptions};

/// TTL used for published DNSKEY RRsets.
pub const DNSKEY_TTL: u32 = 3600;

/// Configuration for one signing pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignerConfig {
    pub denial: DenialMode,
    pub inception: u32,
    pub expiration: u32,
}

impl SignerConfig {
    /// A conventional config: NSEC, 30-day window starting an hour ago.
    pub fn nsec_at(now: u32) -> Self {
        SignerConfig {
            denial: DenialMode::Nsec,
            inception: now.saturating_sub(3600),
            expiration: now + 30 * 86_400,
        }
    }

    /// NSEC3 variant of [`SignerConfig::nsec_at`].
    pub fn nsec3_at(now: u32, cfg: crate::nsec3::Nsec3Config) -> Self {
        SignerConfig {
            denial: DenialMode::Nsec3(cfg),
            inception: now.saturating_sub(3600),
            expiration: now + 30 * 86_400,
        }
    }

    fn options(&self) -> SignOptions {
        SignOptions {
            inception: self.inception,
            expiration: self.expiration,
        }
    }
}

/// Signing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignError {
    /// The key ring holds no keys publishable at the signing time.
    NoPublishableKeys,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::NoPublishableKeys => write!(f, "no publishable keys in key ring"),
        }
    }
}

impl std::error::Error for SignError {}

/// The keys one pass signs with, picked once per pass.
#[derive(Debug)]
pub(crate) struct Signers<'r> {
    /// Keys published in the DNSKEY RRset, in ring order.
    pub(crate) published: Vec<&'r KeyPair>,
    /// Per published algorithm, ascending (RFC 6840 §5.11 requires
    /// signatures for each): the signer of ordinary data and the signer of
    /// the DNSKEY RRset.
    pub(crate) algorithms: Vec<(u8, Option<&'r KeyPair>, Option<&'r KeyPair>)>,
}

impl<'r> Signers<'r> {
    pub(crate) fn new(ring: &'r KeyRing, now: u32) -> Self {
        let published = ring.published(now);
        let mut algs: Vec<u8> = published.iter().map(|k| k.dnskey.algorithm).collect();
        algs.sort_unstable();
        algs.dedup();
        let active = |role, alg| {
            ring.active(role, now)
                .into_iter()
                .find(|k| k.dnskey.algorithm == alg)
        };
        // Ordinary data takes the active ZSK if one exists, otherwise the
        // active KSK (BIND behaviour when a zone runs with a single key);
        // the DNSKEY RRset takes the KSK first.
        let algorithms = algs
            .into_iter()
            .map(|alg| {
                let zsk = active(KeyRole::Zsk, alg);
                let ksk = active(KeyRole::Ksk, alg);
                (alg, zsk.or(ksk), ksk.or(zsk))
            })
            .collect();
        Signers {
            published,
            algorithms,
        }
    }

    /// Appends the RRSIGs a pass gives `set`, in the order it adds them.
    fn sign(&self, set: &RRset, opts: SignOptions, out: &mut Vec<Rrsig>) {
        let dnskey = set.rtype == RrType::Dnskey;
        for &(_, data, key) in &self.algorithms {
            if let Some(signer) = if dnskey { key } else { data } {
                out.push(sign_rrset(set, signer, opts));
            }
        }
        // RFC 5011: a published revoked key self-signs the DNSKEY RRset to
        // prove the revocation is authentic.
        if dnskey {
            for key in self.published.iter().filter(|k| k.is_revoked()) {
                out.push(sign_rrset(set, key, opts));
            }
        }
    }
}

/// Signs (or re-signs) the whole zone in place.
///
/// Existing DNSSEC material is stripped first; the DNSKEY RRset is rebuilt
/// from the ring's published keys. This mirrors running
/// `dnssec-signzone -S -o <zone>` over the unsigned zone file.
pub fn sign_zone(
    zone: &mut Zone,
    ring: &KeyRing,
    cfg: &SignerConfig,
    now: u32,
) -> Result<(), SignError> {
    zone.take_changes();
    sign_fully(zone, &Signers::new(ring, now), cfg)
}

/// [`sign_zone`] that re-signs incrementally: when `zone` holds an output
/// of `cache`'s latest full pass over its apex, under the same inputs
/// (published keys, signer roles, revocations and `cfg`), bar the sets the
/// zone recorded as touched since, only those sets and the serial-bumped
/// SOA are re-signed. Their RRSIGs are replaced in place and every other
/// RRSIG, NSEC and NSEC3 record is kept. Output is byte-identical to
/// [`sign_zone`].
///
/// It signs the whole zone instead when the zone is not such an output, or
/// when a touched set appeared or vanished (the denial chain and the cut
/// structure would change), or when a touched set is the SOA (whose
/// minimum TTL the denial records take) or of a type the signer manages
/// (DNSKEY, RRSIG, NSEC, NSEC3, NSEC3PARAM).
pub fn sign_zone_cached(
    zone: &mut Zone,
    ring: &KeyRing,
    cfg: &SignerConfig,
    now: u32,
    cache: &mut SigCache,
) -> Result<(), SignError> {
    let signers = Signers::new(ring, now);
    let apex = zone.apex().clone();
    // The pass's own edits are not changes to its output.
    let changes = zone.take_changes();
    if let Some(changes) = changes.filter(|c| cache.holds_output(&apex, c, &signers, cfg)) {
        if let Some(computed) = sign_incrementally(zone, &changes, &signers, cfg.options()) {
            zone.restart_changes(changes);
            cache.incremental_pass(&apex, computed);
            return Ok(());
        }
    }
    sign_fully(zone, &signers, cfg)?;
    let signatures = zone
        .rrsets()
        .filter(|set| set.rtype == RrType::Rrsig)
        .map(|set| set.len() as u64)
        .sum();
    let mark = zone.mark_changes();
    cache.full_pass(&apex, mark, &signers, cfg, signatures);
    Ok(())
}

/// The full pass: strips the zone's DNSSEC material, then publishes the
/// DNSKEY RRset, builds the denial chain and signs every signable RRset.
fn sign_fully(zone: &mut Zone, signers: &Signers<'_>, cfg: &SignerConfig) -> Result<(), SignError> {
    zone.strip_dnssec();
    zone.strip_type(RrType::Dnskey);
    // Serial bump happens before signing so the SOA signature stays valid
    // (`dnssec-signzone -N INCREMENT`).
    zone.bump_serial();

    if signers.published.is_empty() {
        return Err(SignError::NoPublishableKeys);
    }
    let apex = zone.apex().clone();
    for key in &signers.published {
        zone.add(Record::new(
            apex.clone(),
            DNSKEY_TTL,
            RData::Dnskey(key.dnskey.clone()),
        ));
    }

    match &cfg.denial {
        DenialMode::Nsec => build_nsec_chain(zone),
        DenialMode::Nsec3(n3cfg) => build_nsec3_chain(zone, n3cfg),
    }

    let opts = cfg.options();
    // Signatures are collected over an immutable pass and added afterwards,
    // so no RRset is cloned; each RRSIG RRset lists its signatures by
    // covered type, then algorithm.
    let mut sigs: Vec<Record> = Vec::new();
    let mut one_set = Vec::new();
    for set in zone.rrsets().filter(|set| is_signable(zone, set)) {
        signers.sign(set, opts, &mut one_set);
        sigs.extend(
            one_set
                .drain(..)
                .map(|rrsig| Record::new(set.name.clone(), set.ttl, RData::Rrsig(rrsig))),
        );
    }
    for sig in sigs {
        zone.add(sig);
    }
    Ok(())
}

/// The incremental pass over a zone that held a full pass's output under
/// the same signers bar the sets `changes` names. Returns the number of
/// signatures computed, or `None`, having changed nothing, when the zone
/// needs a full pass.
fn sign_incrementally(
    zone: &mut Zone,
    changes: &ZoneChanges,
    signers: &Signers<'_>,
    opts: SignOptions,
) -> Option<u64> {
    let mut targets = vec![(zone.apex().clone(), RrType::Soa)];
    for (name, rtype, existed) in changes.sets() {
        let managed = matches!(
            rtype,
            RrType::Soa
                | RrType::Dnskey
                | RrType::Rrsig
                | RrType::Nsec
                | RrType::Nsec3
                | RrType::Nsec3Param
        );
        let set = zone.get(name, rtype);
        if managed || set.is_some() != existed {
            return None;
        }
        if set.is_some_and(|set| is_signable(zone, set)) {
            targets.push((name.clone(), rtype));
        }
    }
    // Each target's signatures must sit where a full pass put them: one
    // run per covered type, one signature per algorithm with a data signer.
    let per_set = signers.algorithms.iter().filter(|a| a.1.is_some()).count();
    let runs: Vec<(usize, usize)> = targets
        .iter()
        .map(|(name, rtype)| covering_run(zone, name, *rtype))
        .collect::<Option<_>>()?;
    if runs.iter().any(|&(_, len)| len != per_set) {
        return None;
    }

    zone.bump_serial();
    let mut computed = 0;
    let mut fresh = Vec::with_capacity(per_set);
    for ((name, rtype), (start, len)) in targets.iter().zip(runs) {
        if len == 0 {
            // No algorithm has a data signer: a full pass signs nothing.
            continue;
        }
        let set = zone.get(name, *rtype).expect("targets exist");
        signers.sign(set, opts, &mut fresh);
        computed += fresh.len() as u64;
        let sigset = zone.get_mut(name, RrType::Rrsig).expect("runs exist");
        sigset
            .rdatas
            .splice(start..start + len, fresh.drain(..).map(RData::Rrsig));
        // A full pass adds each signature with its set's TTL, so the RRSIG
        // RRset takes the least original TTL.
        sigset.ttl = sigset
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(sig) => Some(sig.original_ttl),
                _ => None,
            })
            .min()
            .unwrap_or(sigset.ttl);
    }
    Some(computed)
}

/// Where the RRSIGs at `name` covering `rtype` sit in its RRSIG RRset:
/// `(start, len)` of their one contiguous run, `None` if they are split.
fn covering_run(zone: &Zone, name: &Name, rtype: RrType) -> Option<(usize, usize)> {
    let covers = |rd: &RData| matches!(rd, RData::Rrsig(sig) if sig.type_covered == rtype);
    let Some(sigset) = zone.get(name, RrType::Rrsig) else {
        return Some((0, 0));
    };
    let start = sigset.rdatas.iter().position(covers).unwrap_or(0);
    let len = sigset.rdatas[start..]
        .iter()
        .take_while(|rd| covers(rd))
        .count();
    let total = sigset.rdatas.iter().filter(|rd| covers(rd)).count();
    (len == total).then_some((start, len))
}

/// True for RRsets that receive signatures: authoritative data that is not a
/// delegation NS set and not glue.
fn is_signable(zone: &Zone, set: &RRset) -> bool {
    if set.rtype == RrType::Rrsig {
        return false;
    }
    if zone.is_below_cut(&set.name) {
        return false;
    }
    let at_cut = set.name != *zone.apex() && zone.get(&set.name, RrType::Ns).is_some();
    if at_cut {
        // Only DS (and the denial record) is signed at a cut.
        return matches!(set.rtype, RrType::Ds | RrType::Nsec | RrType::Nsec3);
    }
    true
}

/// Replaces the signatures covering one RRset using a specific key and
/// window — the surgical tool ZReplicator uses to inject, e.g., expired
/// signatures that are otherwise cryptographically valid.
pub fn resign_rrset(zone: &mut Zone, name: &Name, rtype: RrType, key: &KeyPair, opts: SignOptions) {
    let Some(set) = zone.get(name, rtype).cloned() else {
        return;
    };
    remove_sigs_covering(zone, name, rtype);
    let rrsig = sign_rrset(&set, key, opts);
    zone.add(Record::new(name.clone(), set.ttl, RData::Rrsig(rrsig)));
}

/// Removes all RRSIGs at `name` covering `rtype`.
pub fn remove_sigs_covering(zone: &mut Zone, name: &Name, rtype: RrType) {
    if let Some(sigset) = zone.get_mut(name, RrType::Rrsig) {
        sigset
            .rdatas
            .retain(|rd| !matches!(rd, RData::Rrsig(s) if s.type_covered == rtype));
        if sigset.rdatas.is_empty() {
            zone.remove(name, RrType::Rrsig);
        }
    }
}

/// All RRSIGs at `name` covering `rtype`, cloned out of the zone.
pub fn sigs_covering(zone: &Zone, name: &Name, rtype: RrType) -> Vec<ddx_dns::Rrsig> {
    zone.get(name, RrType::Rrsig)
        .map(|set| {
            set.rdatas
                .iter()
                .filter_map(|rd| match rd {
                    RData::Rrsig(s) if s.type_covered == rtype => Some(s.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::nsec3::Nsec3Config;
    use crate::sign::verify_rrset;
    use ddx_dns::{name, Soa};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn base_zone() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        z.add(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z.add(Record::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        // A delegation with glue.
        z.add(Record::new(
            name("sub.example.com"),
            3600,
            RData::Ns(name("ns1.sub.example.com")),
        ));
        z.add(Record::new(
            name("ns1.sub.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        z
    }

    fn ring(now: u32) -> KeyRing {
        let mut r = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        r.add(KeyPair::generate(
            &mut rng,
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Ksk,
            now,
        ));
        r.add(KeyPair::generate(
            &mut rng,
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Zsk,
            now,
        ));
        r
    }

    const NOW: u32 = 1_000_000;

    #[test]
    fn signed_zone_verifies() {
        let mut zone = base_zone();
        let ring = ring(NOW);
        sign_zone(&mut zone, &ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();

        // DNSKEY set published.
        let dnskeys = zone.get(&name("example.com"), RrType::Dnskey).unwrap();
        assert_eq!(dnskeys.len(), 2);

        // Every signable RRset verifies with some published key.
        let zone_name = name("example.com");
        for set in zone.rrsets().filter(|s| s.rtype != RrType::Rrsig) {
            let sigs = sigs_covering(&zone, &set.name, set.rtype);
            if !is_signable(&zone, set) {
                assert!(
                    sigs.is_empty(),
                    "{} {} must be unsigned",
                    set.name,
                    set.rtype
                );
                continue;
            }
            assert!(!sigs.is_empty(), "{} {} missing RRSIG", set.name, set.rtype);
            for sig in &sigs {
                let key = dnskeys
                    .rdatas
                    .iter()
                    .find_map(|rd| match rd {
                        RData::Dnskey(k) if k.key_tag() == sig.key_tag => Some(k),
                        _ => None,
                    })
                    .expect("signer key is published");
                verify_rrset(set, sig, key, &zone_name, NOW).unwrap();
            }
        }
    }

    #[test]
    fn dnskey_signed_by_ksk_data_by_zsk() {
        let mut zone = base_zone();
        let ring = ring(NOW);
        sign_zone(&mut zone, &ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let ksk_tag = ring.active(KeyRole::Ksk, NOW)[0].key_tag();
        let zsk_tag = ring.active(KeyRole::Zsk, NOW)[0].key_tag();
        let dnskey_sigs = sigs_covering(&zone, &name("example.com"), RrType::Dnskey);
        assert_eq!(dnskey_sigs.len(), 1);
        assert_eq!(dnskey_sigs[0].key_tag, ksk_tag);
        let soa_sigs = sigs_covering(&zone, &name("example.com"), RrType::Soa);
        assert_eq!(soa_sigs[0].key_tag, zsk_tag);
    }

    #[test]
    fn delegation_ns_and_glue_unsigned() {
        let mut zone = base_zone();
        sign_zone(&mut zone, &ring(NOW), &SignerConfig::nsec_at(NOW), NOW).unwrap();
        assert!(sigs_covering(&zone, &name("sub.example.com"), RrType::Ns).is_empty());
        assert!(sigs_covering(&zone, &name("ns1.sub.example.com"), RrType::A).is_empty());
        // But the apex NS set *is* signed.
        assert!(!sigs_covering(&zone, &name("example.com"), RrType::Ns).is_empty());
    }

    #[test]
    fn nsec3_mode_emits_param_and_signs_chain() {
        let mut zone = base_zone();
        let cfg = SignerConfig::nsec3_at(NOW, Nsec3Config::default());
        sign_zone(&mut zone, &ring(NOW), &cfg, NOW).unwrap();
        assert!(zone.get(&name("example.com"), RrType::Nsec3Param).is_some());
        let n3_count = zone.rrsets().filter(|s| s.rtype == RrType::Nsec3).count();
        assert!(n3_count >= 4);
        for set in zone.rrsets().filter(|s| s.rtype == RrType::Nsec3) {
            assert!(
                !sigs_covering(&zone, &set.name, RrType::Nsec3).is_empty(),
                "NSEC3 at {} unsigned",
                set.name
            );
        }
    }

    #[test]
    fn multi_algorithm_zone_signs_with_all() {
        let mut zone = base_zone();
        let mut r = ring(NOW);
        let mut rng = StdRng::seed_from_u64(9);
        r.add(KeyPair::generate(
            &mut rng,
            name("example.com"),
            Algorithm::RsaSha256,
            2048,
            KeyRole::Zsk,
            NOW,
        ));
        r.add(KeyPair::generate(
            &mut rng,
            name("example.com"),
            Algorithm::RsaSha256,
            2048,
            KeyRole::Ksk,
            NOW,
        ));
        sign_zone(&mut zone, &r, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let soa_sigs = sigs_covering(&zone, &name("example.com"), RrType::Soa);
        let mut algs: Vec<u8> = soa_sigs.iter().map(|s| s.algorithm).collect();
        algs.sort_unstable();
        assert_eq!(algs, vec![8, 13]);
    }

    #[test]
    fn revoked_key_self_signs_dnskey() {
        let mut zone = base_zone();
        let mut r = ring(NOW);
        let tag = r.keys()[0].key_tag();
        r.by_tag_mut(tag).unwrap().revoke();
        // Revoked KSK plus good ZSK: ZSK signs DNSKEY (fallback), revoked key
        // also self-signs.
        sign_zone(&mut zone, &r, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let dnskey_sigs = sigs_covering(&zone, &name("example.com"), RrType::Dnskey);
        assert_eq!(dnskey_sigs.len(), 2);
        let revoked_tag = r.keys()[0].key_tag();
        assert!(dnskey_sigs.iter().any(|s| s.key_tag == revoked_tag));
    }

    #[test]
    fn empty_ring_fails() {
        let mut zone = base_zone();
        let ring = KeyRing::new();
        assert_eq!(
            sign_zone(&mut zone, &ring, &SignerConfig::nsec_at(NOW), NOW),
            Err(SignError::NoPublishableKeys)
        );
    }

    #[test]
    fn resign_rrset_replaces_sigs() {
        let mut zone = base_zone();
        let r = ring(NOW);
        sign_zone(&mut zone, &r, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let zsk_keys = r.active(KeyRole::Zsk, NOW);
        let expired = SignOptions {
            inception: 0,
            expiration: NOW - 1,
        };
        resign_rrset(
            &mut zone,
            &name("www.example.com"),
            RrType::A,
            zsk_keys[0],
            expired,
        );
        let sigs = sigs_covering(&zone, &name("www.example.com"), RrType::A);
        assert_eq!(sigs.len(), 1);
        assert!(!sigs[0].is_current(NOW));
        // Cryptographically still valid at a time inside the window.
        let set = zone.get(&name("www.example.com"), RrType::A).unwrap();
        verify_rrset(
            set,
            &sigs[0],
            &zsk_keys[0].dnskey,
            &name("example.com"),
            NOW - 10,
        )
        .unwrap();
    }

    #[test]
    fn cached_zone_signing_matches_uncached() {
        let r = ring(NOW);
        let cfg = SignerConfig::nsec_at(NOW);
        let mut cold = base_zone();
        sign_zone(&mut cold, &r, &cfg, NOW).unwrap();
        let mut cache = SigCache::new();
        let mut warm = base_zone();
        sign_zone_cached(&mut warm, &r, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(cold, warm, "a full cached pass must match uncached signing");

        // An edit re-signed incrementally matches a full pass.
        let www = name("www.example.com");
        for zone in [&mut cold, &mut warm] {
            zone.add(Record::new(
                www.clone(),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 81)),
            ));
        }
        sign_zone(&mut cold, &r, &cfg, NOW).unwrap();
        sign_zone_cached(&mut warm, &r, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(
            cold, warm,
            "an incremental pass must match uncached signing"
        );

        // Tamper with a signature the next pass would otherwise keep.
        let sigs = warm.get_mut(&www, RrType::Rrsig).unwrap();
        let Some(RData::Rrsig(sig)) = sigs.rdatas.first_mut() else {
            panic!("www is signed");
        };
        sig.signature.fill(0xEE);
        assert_ne!(cold, warm);
        sign_zone(&mut cold, &r, &cfg, NOW).unwrap();
        sign_zone_cached(&mut warm, &r, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(cold, warm, "a later pass must regenerate a tampered RRSIG");
    }

    #[test]
    fn resigning_is_idempotent_on_count() {
        let mut zone = base_zone();
        let r = ring(NOW);
        sign_zone(&mut zone, &r, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let count1 = zone.rrsets().filter(|s| s.rtype == RrType::Rrsig).count();
        sign_zone(&mut zone, &r, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let count2 = zone.rrsets().filter(|s| s.rtype == RrType::Rrsig).count();
        assert_eq!(count1, count2);
    }
}

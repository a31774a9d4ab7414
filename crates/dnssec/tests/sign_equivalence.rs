//! Property test pinning incremental re-signing's correctness contract:
//! after any sequence of edits to a signed zone, `sign_zone_cached` must
//! produce a zone byte-identical (canonical wire form, and RDATA order) to
//! `sign_zone` run on a clone — across NSEC and NSEC3 denial, multi-algorithm
//! rings, delegations with glue and DS, wildcards and empty non-terminals,
//! and the edits that force a full pass: owners and types added or removed,
//! tampered DNSSEC records, SOA edits, ring and window changes, replicas
//! signed through one shared cache, and passes by another cache.
//!
//! It also pins the work: a pass after a one-RRset edit of a zone that
//! holds the cache's latest output computes exactly (that set + SOA) ×
//! algorithms signatures. This binary holds one test, so the registry
//! deltas are its own.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use ddx_dns::{name, Name, RData, RRset, Record, RrType, Soa, Zone};
use ddx_dnssec::{
    make_ds, sign_zone, sign_zone_cached, Algorithm, DigestType, KeyPair, KeyRing, KeyRole,
    Nsec3Config, SigCache, SignerConfig,
};
use ddx_prop::{bytes, check, option, string, vec, Rng, SeedableRng, StdRng};

const NOW: u32 = 1_000_000;

/// Algorithms exercised by the ring generator (ECDSA, RSA, EdDSA families).
const ALGS: [(Algorithm, u16); 3] = [
    (Algorithm::EcdsaP256Sha256, 256),
    (Algorithm::RsaSha256, 2048),
    (Algorithm::Ed25519, 256),
];

fn build_ring(apex: &Name, algs: &[usize], seed: u64) -> KeyRing {
    let mut ring = KeyRing::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &i in algs {
        let (alg, bits) = ALGS[i];
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            ring.add(KeyPair::generate(
                &mut rng,
                apex.clone(),
                alg,
                bits,
                role,
                NOW,
            ));
        }
    }
    ring
}

fn a(i: usize) -> RData {
    RData::A(Ipv4Addr::new(198, 51, 100, (i % 250) as u8 + 1))
}

/// A zone with hosts, a delegation with glue (and DS when `ds`), a
/// wildcard and an empty non-terminal.
fn build_zone(apex: &Name, hosts: &[String], ds: bool) -> Zone {
    let child = |label: &str| apex.child(label).unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa(Soa {
            mname: child("ns1"),
            rname: child("hostmaster"),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    zone.add(Record::new(apex.clone(), 3600, RData::Ns(child("ns1"))));
    zone.add(Record::new(
        child("ns1"),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    let sub = child("sub");
    let glue = sub.child("ns1").unwrap();
    zone.add(Record::new(sub.clone(), 3600, RData::Ns(glue.clone())));
    zone.add(Record::new(
        glue,
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 53)),
    ));
    if ds {
        let key = build_ring(&sub, &[0], 99).keys()[0].dnskey.clone();
        zone.add(Record::new(
            sub.clone(),
            3600,
            RData::Ds(make_ds(&sub, &key, DigestType::Sha256)),
        ));
    }
    zone.add(Record::new(child("*"), 300, a(0)));
    zone.add(Record::new(
        child("ent").child("leaf").unwrap(),
        300,
        RData::Txt(vec!["below an empty non-terminal".into()]),
    ));
    for (i, host) in hosts.iter().enumerate() {
        zone.add(Record::new(child(host), 300, a(i + 1)));
    }
    zone
}

/// Canonical wire form of the whole zone: the byte-level equality the
/// acceptance criterion demands, stricter than `Zone: PartialEq` alone.
fn canonical_bytes(zone: &Zone) -> Vec<u8> {
    let mut out = Vec::new();
    for set in zone.rrsets() {
        out.extend_from_slice(&set.canonical_signing_form(set.ttl));
    }
    out
}

fn signer_config(nsec3: &Option<(u16, Vec<u8>)>) -> SignerConfig {
    match nsec3 {
        None => SignerConfig::nsec_at(NOW),
        Some((iterations, salt)) => SignerConfig::nsec3_at(
            NOW,
            Nsec3Config {
                iterations: *iterations,
                salt: salt.clone(),
                ..Default::default()
            },
        ),
    }
}

fn signatures(zone: &Zone) -> u64 {
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Rrsig)
        .map(|s| s.len() as u64)
        .sum()
}

/// One random edit. Returns how many signed RRsets it rewrote when it
/// left every owner and type in place and touched no DNSSEC record or SOA,
/// else `None`: the next pass must sign the whole zone.
fn edit(rng: &mut StdRng, zone: &mut Zone, step: usize) -> Option<u64> {
    let apex = zone.apex().clone();
    let hosts: Vec<Name> = zone
        .names()
        .filter(|n| zone.get(n, RrType::A).is_some() && !zone.is_below_cut(n))
        .cloned()
        .collect();
    let host = hosts[rng.gen_range(0..hosts.len())].clone();
    let with_type = |t: RrType| -> Vec<Name> {
        zone.names()
            .filter(|n| zone.get(n, t).is_some())
            .cloned()
            .collect()
    };
    match rng.gen_range(0..16) {
        // One set's content replaced.
        0 => zone.put_rrset(RRset::singleton(host, 300, a(step + 7))),
        // One RDATA added to a set.
        1 => zone.add(Record::new(host, 300, a(step + 100))),
        // One set's TTL changed.
        2 => {
            let mut set = zone.get(&host, RrType::A).unwrap().clone();
            set.ttl = rng.gen_range(60..7200);
            zone.put_rrset(set);
        }
        // Removed and put back with new content, as an operator's
        // one-record edit does.
        3 => {
            let ttl = zone.get(&host, RrType::A).unwrap().ttl;
            zone.remove(&host, RrType::A);
            zone.add(Record::new(host, ttl, a(step + 3)));
        }
        // The wildcard's content (a new owner once an edit removed it).
        4 => {
            let wildcard = apex.child("*").unwrap();
            let existed = zone.get(&wildcard, RrType::A).is_some();
            zone.put_rrset(RRset::singleton(wildcard, 300, a(step)));
            if !existed {
                return None;
            }
        }
        // The DS at the cut, when there is one.
        5 => {
            let sub = apex.child("sub").unwrap();
            let Some(mut set) = zone.get(&sub, RrType::Ds).cloned() else {
                return Some(0);
            };
            set.ttl += 1;
            zone.put_rrset(set);
        }
        // Unsigned data: delegation NS and glue.
        6 => {
            let glue = apex.child("sub").unwrap().child("ns1").unwrap();
            zone.put_rrset(RRset::singleton(glue, 3600, a(step)));
            return Some(0);
        }
        // A new owner.
        7 => {
            let label = format!("new{step}");
            zone.add(Record::new(apex.child(&label).unwrap(), 300, a(step)));
            return None;
        }
        // An owner removed.
        8 => {
            if hosts.len() == 1 {
                return Some(0);
            }
            zone.remove(&host, RrType::A);
            return None;
        }
        // A new type at an existing owner (or a TXT RDATA added).
        9 => {
            let new_type = zone.get(&host, RrType::Txt).is_none();
            zone.add(Record::new(host, 300, RData::Txt(vec![format!("{step}")])));
            if new_type {
                return None;
            }
        }
        // A tampered RRSIG.
        10 => {
            let owners = with_type(RrType::Rrsig);
            let owner = &owners[rng.gen_range(0..owners.len())];
            let sigs = zone.get_mut(owner, RrType::Rrsig).unwrap();
            if let Some(RData::Rrsig(sig)) = sigs.rdatas.last_mut() {
                sig.signature[0] ^= 0xFF;
            }
            return None;
        }
        // A tampered NSEC or NSEC3 record.
        11 => {
            let mut owners = with_type(RrType::Nsec);
            owners.extend(with_type(RrType::Nsec3));
            let owner = &owners[rng.gen_range(0..owners.len())];
            let t = if zone.get(owner, RrType::Nsec).is_some() {
                RrType::Nsec
            } else {
                RrType::Nsec3
            };
            zone.get_mut(owner, t).unwrap().ttl += 1;
            return None;
        }
        // An SOA edit (its minimum is the denial records' TTL).
        12 => {
            if let Some(RData::Soa(soa)) = zone
                .get_mut(&apex, RrType::Soa)
                .and_then(|set| set.rdatas.first_mut())
            {
                soa.minimum += 1;
            }
            return None;
        }
        // The apex NS, which is signed.
        13 => zone.put_rrset(RRset::singleton(
            apex.clone(),
            3600,
            RData::Ns(apex.child("ns1").unwrap()),
        )),
        // A set added and removed again: nothing changed.
        14 => {
            let gone = apex.child("transient").unwrap();
            zone.add(Record::new(gone.clone(), 60, a(step)));
            zone.remove(&gone, RrType::A);
            return Some(0);
        }
        // No edit.
        _ => return Some(0),
    }
    Some(1)
}

#[test]
fn cached_signing_is_byte_identical_to_cold() {
    check("cached_signing_is_byte_identical_to_cold", 24, |rng| {
        let hosts: BTreeSet<String> = ddx_prop::btree_set(rng, 1..10, |r| {
            string(r, "abcdefghijklmnopqrstuvwxyz", 1..13)
        });
        let hosts: Vec<String> = hosts.into_iter().collect();
        let algs = vec(rng, 1..3, |r| r.gen_range(0..ALGS.len()));
        let algorithms = algs.iter().collect::<BTreeSet<_>>().len() as u64;
        let nsec3 = option(rng, |r| (r.gen_range(0u16..30), bytes(r, 0..8)));
        let seed: u64 = rng.gen();
        let apex = name("example.com");
        let base_ring = build_ring(&apex, &algs, seed);
        // A rolled ring publishes one more key; a revoked one revokes the
        // first KSK.
        let mut rolled = base_ring.clone();
        rolled.add(KeyPair::generate(
            &mut StdRng::seed_from_u64(seed ^ 1),
            apex.clone(),
            ALGS[algs[0]].0,
            ALGS[algs[0]].1,
            KeyRole::Zsk,
            NOW,
        ));
        let mut revoked = base_ring.clone();
        let ksk = base_ring.keys()[0].key_tag();
        revoked.by_tag_mut(ksk).unwrap().revoke();
        let rings = [base_ring, rolled, revoked];
        let base_cfg = signer_config(&nsec3);
        let mut later = base_cfg.clone();
        later.expiration += 86_400;
        let cfgs = [base_cfg, later];

        let mut zone = build_zone(&apex, &hosts, rng.gen());
        let (mut ring, mut cfg) = (0, 0);
        let mut caches = [SigCache::new(), SigCache::new()];
        sign_zone_cached(&mut zone, &rings[ring], &cfgs[cfg], NOW, &mut caches[0]).unwrap();
        // Two replicas of one signed zone, re-signed mostly through one
        // shared cache and now and then through another. Each full pass
        // starts a lineage: `marks[r]` is the lineage whose output replica
        // `r` holds, `lineages[c]` cache `c`'s latest lineage with the
        // inputs it signed under.
        let mut replicas = [zone.clone(), zone];
        let mut marks = [0, 0];
        let mut lineages = [Some((0, ring, cfg)), None];
        let mut next_lineage = 1;
        let mut r = 0;
        for step in 0..12 {
            // Mostly the same replica, as a sandbox re-signs in a loop.
            if rng.gen_range(0..4) == 0 {
                r = 1 - r;
            }
            let edited = edit(rng, &mut replicas[r], step);
            if rng.gen_range(0..8) == 0 {
                if rng.gen() {
                    ring = rng.gen_range(0..rings.len());
                } else {
                    cfg = rng.gen_range(0..cfgs.len());
                }
            }
            let mut cold = replicas[r].clone();
            sign_zone(&mut cold, &rings[ring], &cfgs[cfg], NOW).unwrap();

            let c = usize::from(rng.gen_range(0..6) == 0);
            let before = ddx_obs::snapshot();
            sign_zone_cached(
                &mut replicas[r],
                &rings[ring],
                &cfgs[cfg],
                NOW,
                &mut caches[c],
            )
            .unwrap();
            let delta = ddx_obs::snapshot().diff(&before);
            let warm = &replicas[r];
            assert_eq!(&cold, warm, "step {step}: zones differ");
            assert_eq!(canonical_bytes(&cold), canonical_bytes(warm));

            let misses = delta.counter("dnssec.sig_cache.misses");
            let hits = delta.counter("dnssec.sig_cache.hits");
            let total = signatures(warm);
            let holds = lineages[c] == Some((marks[r], ring, cfg));
            match edited.filter(|_| holds) {
                Some(sets) => {
                    // The edited set (if signed) and the SOA.
                    let want = algorithms * (1 + sets);
                    assert_eq!(misses, want, "step {step}: signatures computed");
                    assert_eq!(hits, total - want, "step {step}: signatures kept");
                }
                None => {
                    // A full pass computes every signature.
                    assert_eq!((misses, hits), (total, 0), "step {step}");
                    marks[r] = next_lineage;
                    lineages[c] = Some((next_lineage, ring, cfg));
                    next_lineage += 1;
                }
            }
        }
    });
}

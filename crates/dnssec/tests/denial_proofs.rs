//! Property tests for authenticated denial of existence: NSEC/NSEC3 chains
//! built over randomized zones (wildcards, empty non-terminals, opt-out
//! insecure delegations) must always prove NXDOMAIN/NODATA; stripped chains
//! must fail closed; and the server's `ZoneIndex` fast paths must agree
//! with the linear fallback on arbitrary — including malformed — chains.

use std::net::Ipv4Addr;

use ddx_prop::{btree_set, bytes, check, string, vec, Rng, StdRng, LOWER_DIGITS};

use ddx_dns::{base32, name, Name, Nsec, Nsec3, RData, Record, RrType, Soa, TypeBitmap, Zone};
use ddx_dnssec::{
    build_nsec3_chain, build_nsec_chain, empty_non_terminals, hash_covered, nsec3_hash,
    nsec_covers, verify_nsec3_denial, verify_nsec_denial, DenialKind, Nsec3Config, Nsec3View,
    NsecView,
};
use ddx_server::ZoneIndex;

const APEX: &str = "denial.test";

/// A zone with a configurable host set, deep names (which create empty
/// non-terminals), and an optional apex wildcard. Generated host labels use
/// only `[a-m]`, so `nx…`-prefixed query names and the `zdeleg` delegation
/// never collide with zone content.
fn base_zone(hosts: &[String], deep: &[(String, String)], wildcard: bool) -> Zone {
    let mut z = Zone::new(name(APEX));
    z.add(Record::new(
        name(APEX),
        3600,
        RData::Soa(Soa {
            mname: name(&format!("ns1.{APEX}")),
            rname: name(&format!("hostmaster.{APEX}")),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    z.add(Record::new(
        name(APEX),
        3600,
        RData::Ns(name(&format!("ns1.{APEX}"))),
    ));
    z.add(Record::new(
        name(&format!("ns1.{APEX}")),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    for h in hosts {
        z.add(Record::new(
            name(&format!("{h}.{APEX}")),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
    }
    for (l1, l2) in deep {
        z.add(Record::new(
            name(&format!("{l1}.{l2}.{APEX}")),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 81)),
        ));
    }
    if wildcard {
        z.add(Record::new(
            name(&format!("*.{APEX}")),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 82)),
        ));
    }
    z
}

fn nsec_views(zone: &Zone) -> Vec<(Name, Nsec)> {
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec)
        .flat_map(|s| {
            s.rdatas.iter().filter_map(move |rd| match rd {
                RData::Nsec(n) => Some((s.name.clone(), n.clone())),
                _ => None,
            })
        })
        .collect()
}

fn nsec3_views(zone: &Zone) -> Vec<(Name, Nsec3)> {
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .flat_map(|s| {
            s.rdatas.iter().filter_map(move |rd| match rd {
                RData::Nsec3(n) => Some((s.name.clone(), n.clone())),
                _ => None,
            })
        })
        .collect()
}

const A_TO_M: &str = "abcdefghijklm";
const A_TO_Z: &str = "abcdefghijklmnopqrstuvwxyz";

fn arb_hosts(rng: &mut StdRng) -> Vec<String> {
    btree_set(rng, 1..6, |r| string(r, A_TO_M, 1..7))
        .into_iter()
        .collect()
}

fn arb_deep(rng: &mut StdRng) -> Vec<(String, String)> {
    vec(rng, 0..3, |r| {
        (string(r, A_TO_M, 1..6), string(r, A_TO_M, 1..6))
    })
}

/// An absent label: `nx[a-z0-9]{1,5}`.
fn arb_miss(rng: &mut StdRng) -> String {
    format!("nx{}", string(rng, LOWER_DIGITS, 1..6))
}

/// A complete NSEC chain proves NXDOMAIN for any absent name and NODATA
/// for any present name (including empty non-terminals), with or
/// without a wildcard.
#[test]
fn nsec_chain_proves_nxdomain_and_nodata() {
    check("nsec_chain_proves_nxdomain_and_nodata", 64, |rng| {
        let hosts = arb_hosts(rng);
        let deep = arb_deep(rng);
        let wildcard: bool = rng.gen();
        let miss = arb_miss(rng);
        let mut zone = base_zone(&hosts, &deep, wildcard);
        build_nsec_chain(&mut zone);
        let views = nsec_views(&zone);
        let refs: Vec<NsecView> = views.iter().map(|(o, n)| (o, n)).collect();
        let apex = name(APEX);

        let absent = name(&format!("{miss}.{APEX}"));
        assert_eq!(
            verify_nsec_denial(&absent, RrType::A, DenialKind::NxDomain, &refs, &apex),
            Ok(())
        );
        let host = name(&format!("{}.{APEX}", hosts[0]));
        assert_eq!(
            verify_nsec_denial(&host, RrType::Txt, DenialKind::NoData, &refs, &apex),
            Ok(())
        );
        if let Some(ent) = empty_non_terminals(&zone).first() {
            assert_eq!(
                verify_nsec_denial(ent, RrType::Txt, DenialKind::NoData, &refs, &apex),
                Ok(())
            );
        }
    });
}

/// Same guarantees for NSEC3, additionally sweeping opt-out, salt, and
/// iteration count, with an insecure delegation exercising the RFC 5155
/// §7.1 opt-out skip.
#[test]
fn nsec3_chain_proves_nxdomain_and_nodata() {
    check("nsec3_chain_proves_nxdomain_and_nodata", 64, |rng| {
        let hosts = arb_hosts(rng);
        let deep = arb_deep(rng);
        let wildcard: bool = rng.gen();
        let opt_out: bool = rng.gen();
        let salt = bytes(rng, 0..5);
        let iterations = rng.gen_range(0u16..3);
        let miss = arb_miss(rng);
        let mut zone = base_zone(&hosts, &deep, wildcard);
        // Insecure delegation: no DS, so opt-out chains omit its record.
        zone.add(Record::new(
            name(&format!("zdeleg.{APEX}")),
            300,
            RData::Ns(name("ns.elsewhere.test")),
        ));
        let cfg = Nsec3Config {
            opt_out,
            salt: salt.clone(),
            iterations,
            ..Default::default()
        };
        build_nsec3_chain(&mut zone, &cfg);
        let views = nsec3_views(&zone);
        let refs: Vec<Nsec3View> = views.iter().map(|(o, n)| (o, n)).collect();
        let apex = name(APEX);

        let absent = name(&format!("{miss}.{APEX}"));
        assert_eq!(
            verify_nsec3_denial(&absent, RrType::A, DenialKind::NxDomain, &refs, &apex),
            Ok(())
        );
        let host = name(&format!("{}.{APEX}", hosts[0]));
        assert_eq!(
            verify_nsec3_denial(&host, RrType::Txt, DenialKind::NoData, &refs, &apex),
            Ok(())
        );
        if let Some(ent) = empty_non_terminals(&zone).first() {
            assert_eq!(
                verify_nsec3_denial(ent, RrType::Txt, DenialKind::NoData, &refs, &apex),
                Ok(())
            );
        }
        if opt_out {
            // A name below the opted-out insecure delegation is still
            // denied: the covering arc spans the skipped record.
            let below = name(&format!("{miss}.zdeleg.{APEX}"));
            assert_eq!(
                verify_nsec3_denial(&below, RrType::A, DenialKind::NxDomain, &refs, &apex),
                Ok(())
            );
        }
    });
}

/// Closest-encloser search work on adversarial deep-ENT chains is
/// linear in the query's label count: the thread-local work ledger
/// must record at most `(labels + 3)` hashed names per proof — the
/// candidate ancestors plus next-closer and wildcard — each costing
/// `(iterations + 1)` rounds. A superlinear (or repeated-rehash)
/// implementation would blow this bound immediately at depth 8+.
#[test]
fn nsec3_closest_encloser_work_is_linear_in_labels() {
    check(
        "nsec3_closest_encloser_work_is_linear_in_labels",
        64,
        |rng| {
            let depth = rng.gen_range(1usize..10);
            let iterations = rng.gen_range(0u16..3);
            let salt = bytes(rng, 0..5);
            let miss = arb_miss(rng);
            // One leaf hanging `depth` labels below the apex creates a
            // depth-long empty-non-terminal chain — the adversarial shape that
            // maximizes closest-encloser candidates.
            let mut zone = base_zone(&[], &[], false);
            let mut deep = String::new();
            for i in 0..depth {
                deep.push_str(&format!("e{i}."));
            }
            deep.push_str(APEX);
            zone.add(Record::new(
                name(&deep),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 83)),
            ));
            let cfg = Nsec3Config {
                salt: salt.clone(),
                iterations,
                ..Default::default()
            };
            build_nsec3_chain(&mut zone, &cfg);
            let views = nsec3_views(&zone);
            let refs: Vec<Nsec3View> = views.iter().map(|(o, n)| (o, n)).collect();
            let apex = name(APEX);

            let absent = name(&format!("{miss}.{deep}"));
            let before = ddx_dnssec::work_snapshot();
            let outcome =
                verify_nsec3_denial(&absent, RrType::A, DenialKind::NxDomain, &refs, &apex);
            let rounds = ddx_dnssec::work_snapshot().since(&before).nsec3_hash_rounds;
            assert_eq!(outcome, Ok(()));

            let labels = absent.labels().len() as u64;
            let per_hash = iterations as u64 + 1;
            assert!(
                rounds <= (labels + 3) * per_hash,
                "depth {}: {} hash rounds exceeds the linear bound {} \
                 (labels={}, iterations={})",
                depth,
                rounds,
                (labels + 3) * per_hash,
                labels,
                iterations
            );
            assert!(
                rounds >= per_hash,
                "depth {}: the proof hashed nothing — the ledger is not wired",
                depth
            );
        },
    );
}

/// Fail-closed: stripping every NSEC record that covers or matches the
/// query leaves the proof unverifiable — it must error, never pass.
#[test]
fn stripped_nsec_chain_fails_closed() {
    check("stripped_nsec_chain_fails_closed", 64, |rng| {
        let hosts = arb_hosts(rng);
        let miss = arb_miss(rng);
        let mut zone = base_zone(&hosts, &[], false);
        build_nsec_chain(&mut zone);
        let apex = name(APEX);
        let absent = name(&format!("{miss}.{APEX}"));
        let views = nsec_views(&zone);
        let kept: Vec<(Name, Nsec)> = views
            .into_iter()
            .filter(|(o, n)| !nsec_covers(o, &n.next_name, &absent))
            .collect();
        let refs: Vec<NsecView> = kept.iter().map(|(o, n)| (o, n)).collect();
        assert!(
            verify_nsec_denial(&absent, RrType::A, DenialKind::NxDomain, &refs, &apex).is_err()
        );
    });
}

/// The ZoneIndex binary-search paths and its linear fallback are
/// observationally identical on well-formed chains built by the real
/// chain builders.
#[test]
fn zone_index_agrees_on_well_formed_chains() {
    check("zone_index_agrees_on_well_formed_chains", 64, |rng| {
        let hosts = arb_hosts(rng);
        let deep = arb_deep(rng);
        let nsec3: bool = rng.gen();
        let salt = bytes(rng, 0..5);
        let iterations = rng.gen_range(0u16..3);
        let probes = vec(rng, 1..5, |r| string(r, A_TO_Z, 1..7));
        let mut zone = base_zone(&hosts, &deep, false);
        let cfg = Nsec3Config {
            salt: salt.clone(),
            iterations,
            ..Default::default()
        };
        if nsec3 {
            build_nsec3_chain(&mut zone, &cfg);
        } else {
            build_nsec_chain(&mut zone);
        }
        let idx = ZoneIndex::build(&zone);
        assert_eq!(idx.uses_nsec3(), nsec3);
        for p in &probes {
            let target = name(&format!("{p}.{APEX}"));
            if nsec3 {
                let (s, i) = idx.nsec3_params().expect("params present");
                assert_eq!((s, i), (&salt[..], iterations));
                let h = nsec3_hash(&target, &salt, iterations);
                assert_eq!(
                    idx.find_nsec3_match(&h).map(|p| p.owner()),
                    naive_nsec3_match(&zone, &target, &salt, iterations).as_ref()
                );
                assert_eq!(
                    idx.find_nsec3_cover(&h).map(|p| p.owner()),
                    naive_nsec3_cover(&zone, &target, &salt, iterations).as_ref()
                );
            } else {
                for nxdomain in [false, true] {
                    assert_eq!(
                        idx.find_first_nsec(&target, nxdomain).map(|p| p.owner()),
                        naive_first_nsec(&zone, &target, nxdomain).as_ref()
                    );
                }
            }
        }
    });
}

/// On arbitrarily malformed NSEC chains (dangling nexts, duplicate
/// RDATAs, broken closure) the index must reproduce the naive
/// first-match scan exactly.
#[test]
fn zone_index_agrees_on_malformed_nsec_chains() {
    check("zone_index_agrees_on_malformed_nsec_chains", 64, |rng| {
        let links = vec(rng, 1..8, |r| {
            (string(r, A_TO_M, 1..5), string(r, A_TO_M, 1..5))
        });
        let probes = vec(rng, 1..5, |r| string(r, A_TO_Z, 1..6));
        let mut zone = Zone::new(name(APEX));
        for (owner, next) in &links {
            zone.add(Record::new(
                name(&format!("{owner}.{APEX}")),
                300,
                RData::Nsec(Nsec {
                    next_name: name(&format!("{next}.{APEX}")),
                    type_bitmap: TypeBitmap::from_types([RrType::A]),
                }),
            ));
        }
        let idx = ZoneIndex::build(&zone);
        for p in &probes {
            let target = name(&format!("{p}.{APEX}"));
            for nxdomain in [false, true] {
                assert_eq!(
                    idx.find_first_nsec(&target, nxdomain).map(|p| p.owner()),
                    naive_first_nsec(&zone, &target, nxdomain).as_ref(),
                    "target {} nxdomain {}",
                    target,
                    nxdomain
                );
            }
        }
    });
}

/// Same for NSEC3 rings with undecodable owners, colliding hashes, and
/// arbitrary next-hash fields.
#[test]
fn zone_index_agrees_on_malformed_nsec3_rings() {
    check("zone_index_agrees_on_malformed_nsec3_rings", 64, |rng| {
        let entries = vec(rng, 1..8, |r| {
            (string(r, A_TO_M, 1..5), bytes(r, 0..24), r.gen::<bool>())
        });
        let salt = bytes(rng, 0..4);
        let iterations = rng.gen_range(0u16..2);
        let probes = vec(rng, 1..5, |r| string(r, A_TO_Z, 1..6));
        let mut zone = Zone::new(name(APEX));
        for (label, next_hashed, corrupt_owner) in &entries {
            let owner = if *corrupt_owner {
                // '!' is not base32: the owner hash fails to decode and the
                // index must fall back to the linear scan.
                name(&format!("bad!{label}.{APEX}"))
            } else {
                let h = nsec3_hash(&name(&format!("{label}.{APEX}")), &salt, iterations);
                name(&format!("{}.{APEX}", base32::encode(&h)))
            };
            zone.add(Record::new(
                owner,
                300,
                RData::Nsec3(Nsec3 {
                    hash_algorithm: 1,
                    flags: 0,
                    iterations,
                    salt: salt.clone(),
                    next_hashed_owner: next_hashed.clone(),
                    type_bitmap: TypeBitmap::new(),
                }),
            ));
        }
        let idx = ZoneIndex::build(&zone);
        for p in &probes {
            let target = name(&format!("{p}.{APEX}"));
            let h = nsec3_hash(&target, &salt, iterations);
            assert_eq!(
                idx.find_nsec3_match(&h).map(|p| p.owner()),
                naive_nsec3_match(&zone, &target, &salt, iterations).as_ref()
            );
            assert_eq!(
                idx.find_nsec3_cover(&h).map(|p| p.owner()),
                naive_nsec3_cover(&zone, &target, &salt, iterations).as_ref()
            );
        }
    });
}

// ------------------------------------------------ naive reference scans
// Reimplementations of the server's pre-index linear scans, kept here as
// the independent oracle the fast paths are compared against.

fn naive_first_nsec(zone: &Zone, target: &Name, nxdomain: bool) -> Option<Name> {
    for set in zone.rrsets().filter(|s| s.rtype == RrType::Nsec) {
        let nexts: Vec<&Name> = set
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Nsec(n) => Some(&n.next_name),
                _ => None,
            })
            .collect();
        let matched = if nxdomain || set.name != *target {
            nexts
                .iter()
                .any(|&nx| nsec_covers(&set.name, nx, target) || set.name == *target)
        } else {
            true
        };
        if matched {
            return Some(set.name.clone());
        }
    }
    None
}

fn nsec3_entries(zone: &Zone) -> Vec<(Name, Option<Vec<u8>>, Vec<u8>)> {
    zone.rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .filter_map(|s| match s.rdatas.first() {
            Some(RData::Nsec3(n3)) => {
                let oh = s
                    .name
                    .labels()
                    .first()
                    .and_then(|l| std::str::from_utf8(l.as_bytes()).ok())
                    .and_then(base32::decode);
                Some((s.name.clone(), oh, n3.next_hashed_owner.clone()))
            }
            _ => None,
        })
        .collect()
}

fn naive_nsec3_match(zone: &Zone, target: &Name, salt: &[u8], iterations: u16) -> Option<Name> {
    let h = nsec3_hash(target, salt, iterations);
    nsec3_entries(zone)
        .into_iter()
        .find(|(_, oh, _)| oh.as_deref() == Some(&h[..]))
        .map(|(owner, _, _)| owner)
}

fn naive_nsec3_cover(zone: &Zone, target: &Name, salt: &[u8], iterations: u16) -> Option<Name> {
    let h = nsec3_hash(target, salt, iterations);
    nsec3_entries(zone)
        .into_iter()
        .find(|(_, oh, next)| {
            oh.as_ref()
                .map(|o| hash_covered(o, next, &h))
                .unwrap_or(false)
        })
        .map(|(owner, _, _)| owner)
}

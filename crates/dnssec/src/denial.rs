//! Authenticated denial of existence: building NSEC (RFC 4034 §4) and NSEC3
//! (RFC 5155) chains over a zone, and verifying NXDOMAIN/NODATA proofs the
//! way a validator (or DNSViz) does.

use std::collections::BTreeSet;

use ddx_json::{FromJson, ToJson};

use ddx_dns::{
    Name, Nsec, Nsec3, Nsec3Param, RData, Record, RrType, TypeBitmap, Zone, NSEC3_FLAG_OPT_OUT,
};

use crate::nsec3::{hash_covered, nsec3_hash, Nsec3Config};

/// Which denial mechanism a zone uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenialMode {
    Nsec,
    Nsec3(Nsec3Config),
}

/// What kind of negative answer a proof must establish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum DenialKind {
    /// The name does not exist at all.
    NxDomain,
    /// The name exists but has no records of the queried type.
    NoData,
}

/// Why a denial proof failed to verify. Variants map onto the paper's
/// NSEC(3) error subcategories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenialFailure {
    /// No NSEC/NSEC3 records relevant to the query at all
    /// ("Missing Non-existence Proof").
    MissingProof,
    /// Records were present but none covers/matches the name
    /// ("Bad Non-existence Proof" / "No NSEC3 RR matches the SNAME").
    BadCoverage,
    /// NODATA proof whose bitmap still asserts the queried type
    /// ("Incorrect Type Bitmap").
    BitmapAssertsType(RrType),
    /// NSEC3 NXDOMAIN proof lacking a closest-encloser match
    /// ("Incorrect Closest Encloser Proof").
    MissingClosestEncloser,
    /// No proof that the source-of-synthesis wildcard does not exist.
    MissingWildcardProof,
    /// An NSEC3 record's own owner-name label is not a valid hash label
    /// ("Invalid NSEC3 Owner Name").
    InvalidOwnerName(Name),
    /// An NSEC3 record's next-hash field has the wrong length
    /// ("Invalid NSEC3 Hash").
    InvalidHashLength(usize),
    /// NSEC3 uses a hash algorithm the validator does not support
    /// ("Unsupported NSEC3 Algorithm").
    UnsupportedAlgorithm(u8),
}

// ------------------------------------------------------------ chain build

/// Computes the set of empty non-terminals: names that exist only because a
/// descendant does (RFC 5155 §7.1 requires NSEC3 records for them).
pub fn empty_non_terminals(zone: &Zone) -> Vec<Name> {
    let mut ents = BTreeSet::new();
    let have: BTreeSet<Name> = zone.names().cloned().collect();
    for name in zone.authoritative_names() {
        let mut cur = name.parent();
        while let Some(p) = cur {
            if !p.is_strict_subdomain_of(zone.apex()) && &p != zone.apex() {
                break;
            }
            if !have.contains(&p) {
                ents.insert(p.clone());
            }
            cur = p.parent();
        }
    }
    ents.into_iter().collect()
}

/// The NSEC/NSEC3 type bitmap for an authoritative name: the types present
/// there plus RRSIG (all signed zones) — and NSEC itself for NSEC chains.
fn bitmap_for(zone: &Zone, name: &Name, include_nsec: bool) -> TypeBitmap {
    let mut types: Vec<RrType> = zone
        .types_at(name)
        .into_iter()
        .filter(|t| !matches!(t, RrType::Rrsig | RrType::Nsec | RrType::Nsec3))
        .collect();
    // At a delegation point only NS, DS (if present) and the chain types are
    // asserted; anything else at the cut is occluded.
    if name != zone.apex() && types.contains(&RrType::Ns) {
        types.retain(|t| matches!(t, RrType::Ns | RrType::Ds));
    }
    let mut bm = TypeBitmap::from_types(types);
    bm.insert(RrType::Rrsig);
    if include_nsec {
        bm.insert(RrType::Nsec);
    }
    bm
}

/// Adds a complete NSEC chain to the zone (TTL = SOA minimum, per RFC 4034
/// §4: "the NSEC RR SHOULD have the same TTL value as the SOA minimum").
pub fn build_nsec_chain(zone: &mut Zone) {
    let ttl = zone.soa().map(|s| s.minimum).unwrap_or(300);
    let names = zone.authoritative_names();
    if names.is_empty() {
        return;
    }
    for (i, name) in names.iter().enumerate() {
        let next = names[(i + 1) % names.len()].clone();
        let bitmap = bitmap_for(zone, name, true);
        zone.add(Record::new(
            name.clone(),
            ttl,
            RData::Nsec(Nsec {
                next_name: next,
                type_bitmap: bitmap,
            }),
        ));
    }
}

/// Adds a complete NSEC3 chain plus NSEC3PARAM to the zone.
pub fn build_nsec3_chain(zone: &mut Zone, cfg: &Nsec3Config) {
    let ttl = zone.soa().map(|s| s.minimum).unwrap_or(300);
    let apex = zone.apex().clone();
    zone.add(Record::new(
        apex.clone(),
        0,
        RData::Nsec3Param(Nsec3Param {
            hash_algorithm: cfg.hash_algorithm,
            flags: 0,
            iterations: cfg.iterations,
            salt: cfg.salt.clone(),
        }),
    ));

    // Names that need NSEC3 records: authoritative names + ENTs; insecure
    // delegations are skipped when opt-out is set (RFC 5155 §7.1).
    let mut names = zone.authoritative_names();
    names.extend(empty_non_terminals(zone));
    if cfg.opt_out {
        names.retain(|n| {
            let is_insecure_delegation = n != &apex
                && zone.get(n, RrType::Ns).is_some()
                && zone.get(n, RrType::Ds).is_none();
            !is_insecure_delegation
        });
    }

    // Hash everything, sort by hash to form the ring.
    let mut hashed: Vec<(Vec<u8>, Name)> = names
        .into_iter()
        .map(|n| (nsec3_hash(&n, &cfg.salt, cfg.iterations), n))
        .collect();
    hashed.sort();
    hashed.dedup_by(|a, b| a.0 == b.0);
    let flags = if cfg.opt_out { NSEC3_FLAG_OPT_OUT } else { 0 };
    let count = hashed.len();
    for i in 0..count {
        let (ref hash, ref name) = hashed[i];
        let next_hash = hashed[(i + 1) % count].0.clone();
        let bitmap = if zone.has_name(name) {
            bitmap_for(zone, name, false)
        } else {
            TypeBitmap::new() // empty non-terminal
        };
        // Derive the owner from the hash already computed for the ring
        // instead of rehashing the name.
        let owner = apex
            .child(&ddx_dns::base32::encode(hash))
            .expect("nsec3 label fits");
        zone.add(Record::new(
            owner,
            ttl,
            RData::Nsec3(Nsec3 {
                hash_algorithm: cfg.hash_algorithm,
                flags,
                iterations: cfg.iterations,
                salt: cfg.salt.clone(),
                next_hashed_owner: next_hash,
                type_bitmap: bitmap,
            }),
        ));
    }
}

// ----------------------------------------------------------- verification

/// An NSEC record with its owner, as extracted from a response.
pub type NsecView<'a> = (&'a Name, &'a Nsec);
/// An NSEC3 record with its owner, as extracted from a response.
pub type Nsec3View<'a> = (&'a Name, &'a Nsec3);

/// Canonical "covers" predicate for NSEC: owner < name < next, with the last
/// record (next = apex) covering everything after the owner.
pub fn nsec_covers(owner: &Name, next: &Name, name: &Name, apex: &Name) -> bool {
    use std::cmp::Ordering::*;
    match owner.canonical_cmp(next) {
        Less => owner.canonical_cmp(name) == Less && name.canonical_cmp(next) == Less,
        Greater | Equal => {
            // Wrap-around record (next should be the apex).
            let _ = apex;
            owner.canonical_cmp(name) == Less || name.canonical_cmp(next) == Less
        }
    }
}

/// Verifies an NSEC-based denial for `qname`/`qtype`.
pub fn verify_nsec_denial(
    qname: &Name,
    qtype: RrType,
    kind: DenialKind,
    records: &[NsecView<'_>],
    apex: &Name,
) -> Result<(), DenialFailure> {
    if records.is_empty() {
        return Err(DenialFailure::MissingProof);
    }
    match kind {
        DenialKind::NoData => {
            let Some((_, nsec)) = records.iter().find(|(o, _)| *o == qname) else {
                // An ENT NODATA may instead be proven by an NSEC whose next
                // name is a descendant of qname (RFC 4035 §3.1.3.2 practice).
                if records.iter().any(|(o, n)| {
                    nsec_covers(o, &n.next_name, qname, apex)
                        && n.next_name.is_strict_subdomain_of(qname)
                }) {
                    return Ok(());
                }
                return Err(DenialFailure::BadCoverage);
            };
            if nsec.type_bitmap.contains(qtype) {
                return Err(DenialFailure::BitmapAssertsType(qtype));
            }
            if nsec.type_bitmap.contains(RrType::Cname) {
                return Err(DenialFailure::BitmapAssertsType(RrType::Cname));
            }
            Ok(())
        }
        DenialKind::NxDomain => {
            let covering = records
                .iter()
                .find(|(o, n)| nsec_covers(o, &n.next_name, qname, apex));
            let Some((ce_owner, _)) = covering else {
                return Err(DenialFailure::BadCoverage);
            };
            // Closest encloser: longest common ancestor of qname and the
            // covering NSEC's owner; the wildcard child must also be denied.
            let ce = closest_common_ancestor(qname, ce_owner, apex);
            let wildcard = ce.child("*").expect("wildcard label fits");
            let wildcard_denied = records
                .iter()
                .any(|(o, n)| nsec_covers(o, &n.next_name, &wildcard, apex) || *o == &wildcard);
            if !wildcard_denied && &wildcard != qname {
                return Err(DenialFailure::MissingWildcardProof);
            }
            Ok(())
        }
    }
}

fn closest_common_ancestor(a: &Name, b: &Name, apex: &Name) -> Name {
    let mut candidate = a.clone();
    loop {
        if b.is_subdomain_of(&candidate) || candidate == *apex {
            return candidate;
        }
        match candidate.parent() {
            Some(p) => candidate = p,
            None => return Name::root(),
        }
    }
}

/// Structural sanity checks on a single NSEC3 record (owner label decodes to
/// a hash of the right length, hash field length, supported algorithm).
pub(crate) fn check_nsec3_structure(
    owner: &Name,
    nsec3: &Nsec3,
    apex: &Name,
) -> Result<(), DenialFailure> {
    if nsec3.hash_algorithm != crate::nsec3::NSEC3_HASH_SHA1 {
        return Err(DenialFailure::UnsupportedAlgorithm(nsec3.hash_algorithm));
    }
    if nsec3.next_hashed_owner.len() != 20 {
        return Err(DenialFailure::InvalidHashLength(
            nsec3.next_hashed_owner.len(),
        ));
    }
    let Some(label) = owner.labels().first() else {
        return Err(DenialFailure::InvalidOwnerName(owner.clone()));
    };
    let Ok(label_str) = std::str::from_utf8(label.as_bytes()) else {
        return Err(DenialFailure::InvalidOwnerName(owner.clone()));
    };
    match ddx_dns::base32::decode(label_str) {
        Some(h) if h.len() == 20 && owner.is_strict_subdomain_of(apex) => Ok(()),
        _ => Err(DenialFailure::InvalidOwnerName(owner.clone())),
    }
}

/// Extracts the owner-label hash of an NSEC3 record.
fn owner_hash(owner: &Name) -> Option<Vec<u8>> {
    let label = owner.labels().first()?;
    ddx_dns::base32::decode(std::str::from_utf8(label.as_bytes()).ok()?)
}

/// Verifies an NSEC3-based denial (RFC 5155 §8.4–8.7).
pub fn verify_nsec3_denial(
    qname: &Name,
    qtype: RrType,
    kind: DenialKind,
    records: &[Nsec3View<'_>],
    apex: &Name,
) -> Result<(), DenialFailure> {
    if records.is_empty() {
        return Err(DenialFailure::MissingProof);
    }
    for (owner, n3) in records {
        check_nsec3_structure(owner, n3, apex)?;
    }
    let (salt, iterations) = {
        let (_, n3) = records[0];
        (n3.salt.clone(), n3.iterations)
    };
    let hash_of = |n: &Name| nsec3_hash(n, &salt, iterations);
    let matches = |target: &Name| -> Option<&Nsec3View<'_>> {
        let th = hash_of(target);
        records
            .iter()
            .find(|(o, _)| owner_hash(o).as_deref() == Some(&th[..]))
    };
    let covers = |target: &Name| -> bool {
        let th = hash_of(target);
        records.iter().any(|(o, n3)| {
            owner_hash(o)
                .map(|oh| hash_covered(&oh, &n3.next_hashed_owner, &th))
                .unwrap_or(false)
        })
    };

    match kind {
        DenialKind::NoData => {
            let Some((_, n3)) = matches(qname) else {
                return Err(DenialFailure::BadCoverage);
            };
            if n3.type_bitmap.contains(qtype) {
                return Err(DenialFailure::BitmapAssertsType(qtype));
            }
            if n3.type_bitmap.contains(RrType::Cname) {
                return Err(DenialFailure::BitmapAssertsType(RrType::Cname));
            }
            Ok(())
        }
        DenialKind::NxDomain => {
            // Find the closest encloser: deepest ancestor of qname with a
            // matching NSEC3 record.
            let mut ce: Option<Name> = None;
            let mut candidate = qname.parent();
            while let Some(c) = candidate {
                if !c.is_subdomain_of(apex) {
                    break;
                }
                if matches(&c).is_some() {
                    ce = Some(c);
                    break;
                }
                candidate = c.parent();
            }
            let Some(ce) = ce else {
                return Err(DenialFailure::MissingClosestEncloser);
            };
            // Next-closer name must be covered (or opted out).
            let depth = ce.label_count() + 1;
            let labels = qname.labels();
            let next_closer = Name::from_labels(labels[labels.len() - depth..].to_vec())
                .expect("next closer fits");
            let next_closer_ok = covers(&next_closer)
                || records.iter().any(|(o, n3)| {
                    n3.opt_out()
                        && owner_hash(o)
                            .map(|oh| {
                                hash_covered(&oh, &n3.next_hashed_owner, &hash_of(&next_closer))
                            })
                            .unwrap_or(false)
                });
            if !next_closer_ok {
                return Err(DenialFailure::BadCoverage);
            }
            // Wildcard at the closest encloser must be denied.
            let wildcard = ce.child("*").expect("wildcard fits");
            if !covers(&wildcard) && matches(&wildcard).is_none() {
                return Err(DenialFailure::MissingWildcardProof);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsec3::nsec3_owner;
    use ddx_dns::{name, Soa};
    use std::net::Ipv4Addr;

    fn test_zone() -> Zone {
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
        z.add(Record::new(
            name("a.deep.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 81)),
        ));
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

    #[test]
    fn empty_non_terminals_found() {
        let zone = test_zone();
        assert_eq!(empty_non_terminals(&zone), vec![name("deep.example.com")]);
    }

    #[test]
    fn nsec_chain_wraps_to_apex() {
        let mut zone = test_zone();
        build_nsec_chain(&mut zone);
        let views = nsec_views(&zone);
        assert_eq!(views.len(), 4); // apex, a.deep, ns1, www
                                    // The record at the canonically-last name wraps to the apex.
        let last = views
            .iter()
            .find(|(_, n)| n.next_name == name("example.com"))
            .expect("wrap record");
        assert_eq!(last.0, name("www.example.com"));
    }

    #[test]
    fn nsec_nxdomain_proof_verifies() {
        let mut zone = test_zone();
        build_nsec_chain(&mut zone);
        let views = nsec_views(&zone);
        let refs: Vec<NsecView> = views.iter().map(|(o, n)| (o, n)).collect();
        verify_nsec_denial(
            &name("nope.example.com"),
            RrType::A,
            DenialKind::NxDomain,
            &refs,
            &name("example.com"),
        )
        .unwrap();
    }

    #[test]
    fn nsec_nodata_proof_verifies() {
        let mut zone = test_zone();
        build_nsec_chain(&mut zone);
        let views = nsec_views(&zone);
        let refs: Vec<NsecView> = views.iter().map(|(o, n)| (o, n)).collect();
        verify_nsec_denial(
            &name("www.example.com"),
            RrType::Aaaa,
            DenialKind::NoData,
            &refs,
            &name("example.com"),
        )
        .unwrap();
        // But a NODATA claim for a type that exists is caught.
        assert_eq!(
            verify_nsec_denial(
                &name("www.example.com"),
                RrType::A,
                DenialKind::NoData,
                &refs,
                &name("example.com"),
            ),
            Err(DenialFailure::BitmapAssertsType(RrType::A))
        );
    }

    #[test]
    fn nsec_missing_proof() {
        assert_eq!(
            verify_nsec_denial(
                &name("x.example.com"),
                RrType::A,
                DenialKind::NxDomain,
                &[],
                &name("example.com"),
            ),
            Err(DenialFailure::MissingProof)
        );
    }

    #[test]
    fn nsec_bad_coverage() {
        let mut zone = test_zone();
        build_nsec_chain(&mut zone);
        let views = nsec_views(&zone);
        // Keep only the apex NSEC; it cannot cover names past ns1.
        let refs: Vec<NsecView> = views
            .iter()
            .filter(|(o, _)| o == &name("example.com"))
            .map(|(o, n)| (o, n))
            .collect();
        assert_eq!(
            verify_nsec_denial(
                &name("zzz.example.com"),
                RrType::A,
                DenialKind::NxDomain,
                &refs,
                &name("example.com"),
            ),
            Err(DenialFailure::BadCoverage)
        );
    }

    #[test]
    fn nsec3_chain_and_nxdomain() {
        let mut zone = test_zone();
        let cfg = Nsec3Config::default();
        build_nsec3_chain(&mut zone, &cfg);
        let views = nsec3_views(&zone);
        // apex, ns1, www, deep (ENT), a.deep — 5 records.
        assert_eq!(views.len(), 5);
        let refs: Vec<Nsec3View> = views.iter().map(|(o, n)| (o, n)).collect();
        verify_nsec3_denial(
            &name("nope.example.com"),
            RrType::A,
            DenialKind::NxDomain,
            &refs,
            &name("example.com"),
        )
        .unwrap();
    }

    #[test]
    fn nsec3_nodata() {
        let mut zone = test_zone();
        build_nsec3_chain(&mut zone, &Nsec3Config::default());
        let views = nsec3_views(&zone);
        let refs: Vec<Nsec3View> = views.iter().map(|(o, n)| (o, n)).collect();
        verify_nsec3_denial(
            &name("www.example.com"),
            RrType::Txt,
            DenialKind::NoData,
            &refs,
            &name("example.com"),
        )
        .unwrap();
        assert_eq!(
            verify_nsec3_denial(
                &name("www.example.com"),
                RrType::A,
                DenialKind::NoData,
                &refs,
                &name("example.com"),
            ),
            Err(DenialFailure::BitmapAssertsType(RrType::A))
        );
    }

    #[test]
    fn nsec3_ent_has_empty_bitmap() {
        let mut zone = test_zone();
        build_nsec3_chain(&mut zone, &Nsec3Config::default());
        let ent_owner = nsec3_owner(&name("deep.example.com"), &name("example.com"), &[], 0);
        let set = zone.get(&ent_owner, RrType::Nsec3).expect("ENT NSEC3");
        match &set.rdatas[0] {
            RData::Nsec3(n3) => assert!(n3.type_bitmap.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn nsec3_structure_checks() {
        let apex = name("example.com");
        let good_owner = nsec3_owner(&name("x.example.com"), &apex, &[], 0);
        let mut n3 = Nsec3 {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed_owner: vec![0; 20],
            type_bitmap: TypeBitmap::new(),
        };
        check_nsec3_structure(&good_owner, &n3, &apex).unwrap();
        // Unsupported algorithm.
        n3.hash_algorithm = 6;
        assert_eq!(
            check_nsec3_structure(&good_owner, &n3, &apex),
            Err(DenialFailure::UnsupportedAlgorithm(6))
        );
        n3.hash_algorithm = 1;
        // Wrong hash length.
        n3.next_hashed_owner = vec![0; 10];
        assert_eq!(
            check_nsec3_structure(&good_owner, &n3, &apex),
            Err(DenialFailure::InvalidHashLength(10))
        );
        n3.next_hashed_owner = vec![0; 20];
        // Bad owner label.
        let bad_owner = name("not-base32!!.example.com");
        assert!(matches!(
            check_nsec3_structure(&bad_owner, &n3, &apex),
            Err(DenialFailure::InvalidOwnerName(_))
        ));
    }

    #[test]
    fn nsec3_optout_skips_insecure_delegation() {
        let mut zone = test_zone();
        zone.add(Record::new(
            name("child.example.com"),
            3600,
            RData::Ns(name("ns.child.example.com")),
        ));
        let cfg = Nsec3Config {
            opt_out: true,
            ..Default::default()
        };
        build_nsec3_chain(&mut zone, &cfg);
        let owner = nsec3_owner(&name("child.example.com"), &name("example.com"), &[], 0);
        assert!(
            zone.get(&owner, RrType::Nsec3).is_none(),
            "insecure delegation must be omitted under opt-out"
        );
        // And the NXDOMAIN-style coverage for it still verifies via opt-out.
        let views = nsec3_views(&zone);
        let refs: Vec<Nsec3View> = views.iter().map(|(o, n)| (o, n)).collect();
        verify_nsec3_denial(
            &name("x.child2.example.com"),
            RrType::A,
            DenialKind::NxDomain,
            &refs,
            &name("example.com"),
        )
        .unwrap();
    }
}

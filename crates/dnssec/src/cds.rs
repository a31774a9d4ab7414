//! CDS/CDNSKEY automation (RFC 7344 + RFC 8078): the child publishes
//! CDS/CDNSKEY records describing the DS set it wants; the parent scans
//! them, validates them against the *current* chain of trust, and updates
//! the delegation — replacing the manual registrar round trip the paper
//! identifies as DFixer's remaining manual step (§5.5.2).

use ddx_dns::{RData, Record, RrType, Zone};

use crate::algorithm::DigestType;
use crate::ds::{check_ds, make_ds, DsMatch};
use crate::keys::{KeyRing, KeyRole};
use crate::sign::{sign_rrset, verify_rrset, SignOptions};

/// TTL used for CDS/CDNSKEY RRsets.
pub(crate) const CDS_TTL: u32 = 3600;

/// Publishes CDS and CDNSKEY RRsets describing the ring's active KSKs, and
/// signs them with an active ZSK (RFC 7344 §4.1 requires the RRsets to be
/// signed like any other zone data).
pub fn publish_cds(
    zone: &mut Zone,
    ring: &KeyRing,
    digest_type: DigestType,
    now: u32,
    opts: SignOptions,
) {
    let apex = zone.apex().clone();
    zone.remove(&apex, RrType::Cds);
    zone.remove(&apex, RrType::Cdnskey);
    crate::signer::remove_sigs_covering(zone, &apex, RrType::Cds);
    crate::signer::remove_sigs_covering(zone, &apex, RrType::Cdnskey);

    let ksks = ring.active(KeyRole::Ksk, now);
    if ksks.is_empty() {
        return;
    }
    for ksk in &ksks {
        let ds = make_ds(&apex, &ksk.dnskey, digest_type);
        zone.add(Record::new(apex.clone(), CDS_TTL, RData::Cds(ds)));
        zone.add(Record::new(
            apex.clone(),
            CDS_TTL,
            RData::Cdnskey(ksk.dnskey.clone()),
        ));
    }
    // Sign both RRsets with the zone's data signer.
    let signer = ring
        .active(KeyRole::Zsk, now)
        .first()
        .copied()
        .or(ksks.first().copied())
        .cloned();
    if let Some(signer) = signer {
        for rtype in [RrType::Cds, RrType::Cdnskey] {
            if let Some(set) = zone.get(&apex, rtype).cloned() {
                let sig = sign_rrset(&set, &signer, opts);
                zone.add(Record::new(apex.clone(), set.ttl, RData::Rrsig(sig)));
            }
        }
    }
}

/// Why a parent-side CDS scan refused to act.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsScanError {
    /// The child publishes no CDS RRset.
    NoCds,
    /// The CDS RRset is unsigned.
    Unsigned,
    /// No signature over the CDS RRset verifies under a DNSKEY that the
    /// *current* DS set already trusts (RFC 7344 §4.1 acceptance rule) —
    /// and the current delegation has no usable trust to bootstrap from.
    NotTrusted,
    /// The CDS set would leave the child without any secure entry point
    /// that matches a published DNSKEY.
    WouldBreakDelegation,
}

impl std::fmt::Display for CdsScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdsScanError::NoCds => write!(f, "child publishes no CDS RRset"),
            CdsScanError::Unsigned => write!(f, "CDS RRset is unsigned"),
            CdsScanError::NotTrusted => {
                write!(f, "CDS not signed by a key the current DS set trusts")
            }
            CdsScanError::WouldBreakDelegation => {
                write!(f, "accepting the CDS set would break the delegation")
            }
        }
    }
}

/// The new DS set a successful scan produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdsScanResult {
    pub new_ds: Vec<ddx_dns::Ds>,
}

/// Parent-side scan: reads the child zone's CDS RRset, validates its
/// signatures against the currently-delegated DNSKEYs (RFC 7344 §4.1;
/// when the current DS set matches nothing — e.g. a fully broken
/// delegation — RFC 8078 §3.3's "Accept with Challenge" trust-on-first-use
/// fallback applies), and returns the DS set to install.
pub fn scan_child_cds(
    child_zone: &Zone,
    current_ds: &[ddx_dns::Ds],
    now: u32,
) -> Result<CdsScanResult, CdsScanError> {
    let apex = child_zone.apex().clone();
    let Some(cds_set) = child_zone.get(&apex, RrType::Cds) else {
        return Err(CdsScanError::NoCds);
    };
    let sigs = crate::signer::sigs_covering(child_zone, &apex, RrType::Cds);
    if sigs.is_empty() {
        return Err(CdsScanError::Unsigned);
    }
    let published: Vec<ddx_dns::Dnskey> = child_zone
        .get(&apex, RrType::Dnskey)
        .map(|set| {
            set.rdatas
                .iter()
                .filter_map(|rd| match rd {
                    RData::Dnskey(k) => Some(k.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();

    // A signing key is acceptable if the *current* DS set links it, or —
    // RFC 8078 bootstrap — if no current DS links anything at all.
    let current_trust_exists = current_ds.iter().any(|ds| {
        published
            .iter()
            .any(|k| check_ds(&apex, ds, k) == DsMatch::Match && !k.is_revoked())
    });
    let mut verified = false;
    for sig in &sigs {
        let Some(key) = published.iter().find(|k| k.key_tag() == sig.key_tag) else {
            continue;
        };
        let trusted = !current_trust_exists
            || current_ds
                .iter()
                .any(|ds| check_ds(&apex, ds, key) == DsMatch::Match)
            || !key.is_sep(); // ZSK-signed: accept if the ZSK chain itself is intact
        if !trusted {
            continue;
        }
        if verify_rrset(cds_set, sig, key, &apex, now).is_ok() {
            verified = true;
            break;
        }
    }
    if !verified {
        return Err(CdsScanError::NotTrusted);
    }

    let new_ds: Vec<ddx_dns::Ds> = cds_set
        .rdatas
        .iter()
        .filter_map(|rd| match rd {
            RData::Cds(ds) => Some(ds.clone()),
            _ => None,
        })
        .collect();
    // Sanity: every accepted DS must link a published, usable DNSKEY.
    let all_link = !new_ds.is_empty()
        && new_ds.iter().all(|ds| {
            published.iter().any(|k| {
                check_ds(&apex, ds, k) == DsMatch::Match && k.is_zone_key() && !k.is_revoked()
            })
        });
    if !all_link {
        return Err(CdsScanError::WouldBreakDelegation);
    }
    Ok(CdsScanResult { new_ds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::keys::KeyPair;
    use crate::signer::{sign_zone, SignerConfig};
    use ddx_dns::{name, Soa};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u32 = 1_000_000;

    fn window() -> SignOptions {
        SignOptions {
            inception: NOW - 3600,
            expiration: NOW + 30 * 86_400,
        }
    }

    fn signed_zone() -> (Zone, KeyRing) {
        let apex = name("chd.example.com");
        let mut ring = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(21);
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            ring.add(KeyPair::generate(
                &mut rng,
                apex.clone(),
                Algorithm::EcdsaP256Sha256,
                256,
                role,
                NOW,
            ));
        }
        let mut zone = Zone::new(apex.clone());
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex.child("ns1").unwrap(),
                rname: apex.child("hostmaster").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
        ));
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Ns(apex.child("ns1").unwrap()),
        ));
        sign_zone(&mut zone, &ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        (zone, ring)
    }

    #[test]
    fn publish_and_scan_round_trip() {
        let (mut zone, ring) = signed_zone();
        let ksk = ring.active(KeyRole::Ksk, NOW)[0];
        let current = vec![make_ds(zone.apex(), &ksk.dnskey, DigestType::Sha256)];
        publish_cds(&mut zone, &ring, DigestType::Sha256, NOW, window());
        assert!(zone.get(zone.apex(), RrType::Cds).is_some());
        assert!(zone.get(zone.apex(), RrType::Cdnskey).is_some());
        let result = scan_child_cds(&zone, &current, NOW).unwrap();
        assert_eq!(result.new_ds, current);
    }

    #[test]
    fn scan_accepts_new_ksk_signed_under_current_chain() {
        let (mut zone, mut ring) = signed_zone();
        let old_ksk = ring.active(KeyRole::Ksk, NOW)[0].clone();
        let current = vec![make_ds(zone.apex(), &old_ksk.dnskey, DigestType::Sha256)];
        // Roll: add a new KSK, publish CDS for it.
        let new_ksk = KeyPair::generate(
            &mut StdRng::seed_from_u64(99),
            zone.apex().clone(),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Ksk,
            NOW,
        );
        ring.add(new_ksk.clone());
        sign_zone(&mut zone, &ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        publish_cds(&mut zone, &ring, DigestType::Sha256, NOW, window());
        let result = scan_child_cds(&zone, &current, NOW).unwrap();
        // Both KSKs are advertised; the new one is in the set.
        assert!(result
            .new_ds
            .iter()
            .any(|ds| ds.key_tag == new_ksk.key_tag()));
    }

    #[test]
    fn scan_rejects_missing_or_unsigned_cds() {
        let (zone, _ring) = signed_zone();
        assert_eq!(scan_child_cds(&zone, &[], NOW), Err(CdsScanError::NoCds));
        let (mut zone2, ring2) = signed_zone();
        publish_cds(&mut zone2, &ring2, DigestType::Sha256, NOW, window());
        let apex2 = zone2.apex().clone();
        crate::signer::remove_sigs_covering(&mut zone2, &apex2, RrType::Cds);
        assert_eq!(
            scan_child_cds(&zone2, &[], NOW),
            Err(CdsScanError::Unsigned)
        );
    }

    #[test]
    fn scan_rejects_cds_for_unpublished_key() {
        let (mut zone, ring) = signed_zone();
        publish_cds(&mut zone, &ring, DigestType::Sha256, NOW, window());
        // Replace the CDS rdata with one referencing a ghost key.
        let apex = zone.apex().clone();
        let set = zone.get_mut(&apex, RrType::Cds).unwrap();
        for rd in &mut set.rdatas {
            if let RData::Cds(ds) = rd {
                ds.key_tag = ds.key_tag.wrapping_add(1);
            }
        }
        // Re-sign so the signature itself is fine.
        let zsk = ring.active(KeyRole::Zsk, NOW)[0].clone();
        crate::signer::resign_rrset(&mut zone, &apex, RrType::Cds, &zsk, window());
        assert_eq!(
            scan_child_cds(&zone, &[], NOW),
            Err(CdsScanError::WouldBreakDelegation)
        );
    }
}

//! A mutable DNS zone: the unit ZReplicator constructs, BIND-style tools
//! sign, and the authoritative server serves.
//!
//! Records are stored per owner name in canonical order so NSEC chains and
//! canonical traversals fall out of iteration order.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use ddx_json::{FromJson, ToJson};

use crate::name::Name;
use crate::rdata::{RData, Soa};
use crate::rrset::{RRset, Record};
use crate::types::RrType;

/// Process-global generation source. Every mutation of any zone draws a
/// fresh stamp from here, so a given stamp value corresponds to exactly one
/// logical zone content: two zones can share a stamp only by cloning (which
/// copies the content along with it).
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A DNS zone rooted at `apex`.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct Zone {
    apex: Name,
    /// name → (type code → RRset), names in canonical order.
    nodes: BTreeMap<Name, BTreeMap<u16, RRset>>,
    /// Mutation stamp: bumped (to a globally fresh value) by every mutating
    /// method. Answer caches key on it; stamp equality implies content
    /// equality. Excluded from `PartialEq` and serialization — a
    /// deserialized zone gets a fresh stamp.
    #[json(skip, default = "fresh_generation")]
    generation: u64,
}

/// Equality ignores the generation stamp: two zones are equal when their
/// contents are (replica deduplication in the signing pipeline depends on
/// this).
impl PartialEq for Zone {
    fn eq(&self, other: &Self) -> bool {
        self.apex == other.apex && self.nodes == other.nodes
    }
}

impl Eq for Zone {}

impl Zone {
    /// Creates an empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            nodes: BTreeMap::new(),
            generation: fresh_generation(),
        }
    }

    /// The zone's current mutation stamp. Monotonically fresh across every
    /// mutation process-wide; equal stamps imply equal content.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records that the zone content changed.
    fn touch(&mut self) {
        self.generation = fresh_generation();
    }

    /// The zone apex (owner of SOA and NS).
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// True if `name` is at or below the apex.
    pub(crate) fn contains_name(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.apex)
    }

    /// Adds a record, merging into an existing RRset when present.
    ///
    /// # Panics
    /// Panics if the record's owner lies outside the zone — that is always a
    /// construction bug in the caller.
    pub fn add(&mut self, record: Record) {
        assert!(
            self.contains_name(&record.name),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        self.touch();
        let node = self.nodes.entry(record.name.clone()).or_default();
        let entry = node.entry(record.rtype().code());
        match entry {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let set = e.get_mut();
                set.ttl = set.ttl.min(record.ttl);
                if !set.rdatas.contains(&record.rdata) {
                    set.rdatas.push(record.rdata);
                }
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(RRset::singleton(record.name, record.ttl, record.rdata));
            }
        }
    }

    /// Replaces (or inserts) a whole RRset.
    pub fn put_rrset(&mut self, rrset: RRset) {
        assert!(self.contains_name(&rrset.name));
        self.touch();
        self.nodes
            .entry(rrset.name.clone())
            .or_default()
            .insert(rrset.rtype.code(), rrset);
    }

    /// Looks up the RRset at `name` of type `rtype`.
    pub fn get(&self, name: &Name, rtype: RrType) -> Option<&RRset> {
        self.nodes.get(name)?.get(&rtype.code())
    }

    /// Mutable lookup. Conservatively counts as a mutation (the caller can
    /// rewrite the RRset through the returned reference).
    pub fn get_mut(&mut self, name: &Name, rtype: RrType) -> Option<&mut RRset> {
        let set = self.nodes.get_mut(name)?.get_mut(&rtype.code());
        if set.is_some() {
            self.generation = fresh_generation();
        }
        set
    }

    /// Removes and returns an RRset.
    pub fn remove(&mut self, name: &Name, rtype: RrType) -> Option<RRset> {
        let node = self.nodes.get_mut(name)?;
        let removed = node.remove(&rtype.code());
        if node.is_empty() {
            self.nodes.remove(name);
        }
        if removed.is_some() {
            self.touch();
        }
        removed
    }

    /// Removes a single RDATA from an RRset, dropping the set when emptied.
    /// Returns true if something was removed.
    pub fn remove_rdata(&mut self, name: &Name, rdata: &RData) -> bool {
        let rtype = rdata.rtype();
        let Some(set) = self.get_mut(name, rtype) else {
            return false;
        };
        let before = set.rdatas.len();
        set.rdatas.retain(|rd| rd != rdata);
        let removed = set.rdatas.len() < before;
        if set.rdatas.is_empty() {
            self.remove(name, rtype);
        }
        removed
    }

    /// True if any records exist at `name` (of any type).
    pub fn has_name(&self, name: &Name) -> bool {
        self.nodes.contains_key(name)
    }

    /// All owner names, canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes.keys()
    }

    /// All RRsets, canonical owner order, ascending type code within a name.
    pub fn rrsets(&self) -> impl Iterator<Item = &RRset> {
        self.nodes.values().flat_map(|n| n.values())
    }

    /// Types present at `name`.
    pub fn types_at(&self, name: &Name) -> Vec<RrType> {
        self.nodes
            .get(name)
            .map(|n| n.keys().map(|&c| RrType::from_code(c)).collect())
            .unwrap_or_default()
    }

    /// The SOA RDATA at the apex, if present.
    pub fn soa(&self) -> Option<&Soa> {
        let set = self.get(&self.apex, RrType::Soa)?;
        match set.rdatas.first() {
            Some(RData::Soa(soa)) => Some(soa),
            _ => None,
        }
    }

    /// Increments the SOA serial (zone-change bookkeeping, like
    /// `dnssec-signzone -N INCREMENT`).
    pub fn bump_serial(&mut self) {
        let apex = self.apex.clone();
        if let Some(set) = self.get_mut(&apex, RrType::Soa) {
            if let Some(RData::Soa(soa)) = set.rdatas.first_mut() {
                soa.serial = soa.serial.wrapping_add(1);
            }
        }
    }

    /// Returns the deepest delegation point that `name` falls under, if any.
    ///
    /// Walks `name`'s ancestor chain toward the apex instead of scanning
    /// every owner name: each step is one `BTreeMap` lookup, so the cost is
    /// O(depth · log n) rather than O(n).
    pub fn delegation_covering(&self, name: &Name) -> Option<Name> {
        let mut cur = if name.is_subdomain_of(&self.apex) {
            Some(name.clone())
        } else {
            None
        };
        while let Some(c) = cur {
            if c == self.apex {
                break;
            }
            if let Some(node) = self.nodes.get(&c) {
                if node.contains_key(&RrType::Ns.code()) {
                    return Some(c);
                }
            }
            cur = c.parent();
        }
        None
    }

    /// True if any owner name in the zone is strictly below `name`.
    ///
    /// Owner names are kept in canonical order, where a name's descendants
    /// sort as a contiguous run immediately after the name itself; one
    /// range probe replaces a full scan.
    pub fn has_descendant(&self, name: &Name) -> bool {
        self.nodes
            .range::<Name, _>((Bound::Excluded(name), Bound::Unbounded))
            .next()
            .map(|(n, _)| n.is_strict_subdomain_of(name))
            .unwrap_or(false)
    }

    /// True if `name` sits below a delegation point (glue / occluded data).
    pub fn is_below_cut(&self, name: &Name) -> bool {
        self.delegation_covering(name)
            .map(|cut| name.is_strict_subdomain_of(&cut))
            .unwrap_or(false)
    }

    /// Drops every RRset of the given type anywhere in the zone.
    pub fn strip_type(&mut self, rtype: RrType) {
        let code = rtype.code();
        self.touch();
        self.nodes.retain(|_, node| {
            node.remove(&code);
            !node.is_empty()
        });
    }

    /// Drops all DNSSEC-generated material (RRSIG, NSEC, NSEC3, NSEC3PARAM),
    /// returning the zone to its unsigned form. DNSKEY and DS records are
    /// kept: they are operator-managed inputs, not signer outputs.
    pub fn strip_dnssec(&mut self) {
        for t in [
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Nsec3,
            RrType::Nsec3Param,
        ] {
            self.strip_type(t);
        }
    }

    /// Authoritative owner names that must appear in the denial-of-existence
    /// chain: everything not occluded below a delegation cut.
    pub fn authoritative_names(&self) -> Vec<Name> {
        self.names()
            .filter(|n| !self.is_below_cut(n))
            .cloned()
            .collect()
    }

    /// Total number of records (not RRsets).
    pub fn record_count(&self) -> usize {
        self.rrsets().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use std::net::Ipv4Addr;

    fn apex_zone() -> Zone {
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
        z
    }

    #[test]
    fn add_and_get() {
        let z = apex_zone();
        assert!(z.soa().is_some());
        assert_eq!(z.get(&name("example.com"), RrType::Ns).unwrap().len(), 1);
        assert!(z.get(&name("example.com"), RrType::A).is_none());
    }

    #[test]
    fn add_merges_and_dedups() {
        let mut z = apex_zone();
        let rec = Record::new(
            name("w.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        );
        z.add(rec.clone());
        z.add(rec);
        assert_eq!(z.get(&name("w.example.com"), RrType::A).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn add_outside_zone_panics() {
        let mut z = apex_zone();
        z.add(Record::new(
            name("other.org"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
    }

    #[test]
    fn remove_rdata_drops_empty_set() {
        let mut z = apex_zone();
        let rd = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert!(z.remove_rdata(&name("ns1.example.com"), &rd));
        assert!(!z.has_name(&name("ns1.example.com")));
        assert!(!z.remove_rdata(&name("ns1.example.com"), &rd));
    }

    #[test]
    fn delegation_detection() {
        let mut z = apex_zone();
        z.add(Record::new(
            name("child.example.com"),
            3600,
            RData::Ns(name("ns1.child.example.com")),
        ));
        z.add(Record::new(
            name("ns1.child.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        assert_eq!(
            z.delegation_covering(&name("x.child.example.com")),
            Some(name("child.example.com"))
        );
        assert!(z.is_below_cut(&name("ns1.child.example.com")));
        assert!(!z.is_below_cut(&name("child.example.com")));
        // Apex NS is not a delegation.
        assert!(!z.is_below_cut(&name("ns1.example.com")));
        let auth = z.authoritative_names();
        assert!(auth.contains(&name("child.example.com")));
        assert!(!auth.contains(&name("ns1.child.example.com")));
    }

    #[test]
    fn names_iterate_canonically() {
        let mut z = apex_zone();
        z.add(Record::new(
            name("z.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        ));
        z.add(Record::new(
            name("a.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 1, 1, 2)),
        ));
        let names: Vec<_> = z.names().cloned().collect();
        // Apex first, then a, then ns1, then z (canonical order).
        assert_eq!(names[0], name("example.com"));
        let pos = |n: &Name| names.iter().position(|x| x == n).unwrap();
        assert!(pos(&name("a.example.com")) < pos(&name("ns1.example.com")));
        assert!(pos(&name("ns1.example.com")) < pos(&name("z.example.com")));
    }

    #[test]
    fn bump_serial() {
        let mut z = apex_zone();
        z.bump_serial();
        assert_eq!(z.soa().unwrap().serial, 2);
    }

    #[test]
    fn strip_type_removes_everywhere() {
        let mut z = apex_zone();
        z.strip_type(RrType::A);
        assert!(!z.has_name(&name("ns1.example.com")));
        assert!(z.soa().is_some());
    }

    #[test]
    fn every_mutation_bumps_the_generation() {
        let mut z = apex_zone();
        let mut last = z.generation();
        let expect_bump = |z: &Zone, last: &mut u64, what: &str| {
            assert!(z.generation() > *last, "{what} must bump the generation");
            *last = z.generation();
        };
        z.add(Record::new(
            name("w.example.com"),
            60,
            RData::A(Ipv4Addr::new(9, 9, 9, 9)),
        ));
        expect_bump(&z, &mut last, "add");
        z.put_rrset(RRset::singleton(
            name("w.example.com"),
            60,
            RData::A(Ipv4Addr::new(9, 9, 9, 10)),
        ));
        expect_bump(&z, &mut last, "put_rrset");
        z.get_mut(&name("w.example.com"), RrType::A).unwrap();
        expect_bump(&z, &mut last, "get_mut");
        z.bump_serial();
        expect_bump(&z, &mut last, "bump_serial");
        assert!(z.remove_rdata(
            &name("w.example.com"),
            &RData::A(Ipv4Addr::new(9, 9, 9, 10))
        ));
        expect_bump(&z, &mut last, "remove_rdata");
        z.strip_type(RrType::Ns);
        expect_bump(&z, &mut last, "strip_type");
        // Pure reads leave the stamp alone.
        let _ = z.get(&name("example.com"), RrType::Soa);
        let _ = z.has_descendant(&name("example.com"));
        assert_eq!(z.generation(), last);
        // Misses through the mutable accessors leave it alone too.
        assert!(z.get_mut(&name("missing.example.com"), RrType::A).is_none());
        assert!(z.remove(&name("missing.example.com"), RrType::A).is_none());
        assert_eq!(z.generation(), last);
    }

    #[test]
    fn clones_share_the_stamp_and_equality_ignores_it() {
        let z = apex_zone();
        let c = z.clone();
        assert_eq!(c.generation(), z.generation());
        let mut d = z.clone();
        d.bump_serial();
        d.bump_serial();
        // Serial differs → unequal; rebuild equal content under a fresh
        // stamp → equal despite different generations.
        assert_ne!(d, z);
        let e = apex_zone();
        assert_ne!(e.generation(), z.generation());
        assert_eq!(e, z);
    }

    #[test]
    fn deserialized_zone_gets_a_fresh_stamp() {
        let z = apex_zone();
        let json = ddx_json::to_string(&z);
        let back: Zone = ddx_json::from_str(&json).unwrap();
        assert_eq!(back, z);
        assert_ne!(back.generation(), z.generation());
    }

    #[test]
    fn has_descendant_matches_linear_scan() {
        let mut z = apex_zone();
        z.add(Record::new(
            name("a.ent.example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        for probe in [
            "example.com",
            "ent.example.com",
            "a.ent.example.com",
            "ns1.example.com",
            "zzz.example.com",
            "b.ent.example.com",
        ] {
            let p = name(probe);
            let naive = z.names().any(|n| n.is_strict_subdomain_of(&p));
            assert_eq!(z.has_descendant(&p), naive, "disagree on {probe}");
        }
    }
}

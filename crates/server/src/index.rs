//! Per-generation lookup indexes for the denial-of-existence scans in
//! [`Server::handle_arc`](crate::Server::handle_arc).
//!
//! The naive answer path finds NSEC/NSEC3 proof records by scanning every
//! RRset in the zone per query. This module precomputes, once per zone
//! generation, the compact structures those scans walk: the NSEC chain in
//! canonical owner order and the NSEC3 records with decoded owner hashes
//! plus a hash-sorted ring.
//!
//! Byte-identical equivalence with the naive path is non-negotiable (the
//! server must surface injected misconfigurations exactly as before), and
//! the naive scans have first-match semantics over *whatever* the zone
//! contains — including broken chains. So the O(log n) binary-search
//! shortcuts only engage when the build step proved the chain/ring
//! **well-formed** (one RDATA per set, closed, duplicate-free); in that
//! case the naive first match provably lies in a two-candidate set around
//! the search position, and the naive predicate itself picks among them.
//! Malformed chains fall back to a linear walk over the precomputed
//! entries, which evaluates the identical predicate in the identical
//! order — just without re-filtering the whole zone per query.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use ddx_dns::{base32, Name, RData, RrType, Zone};
use ddx_dnssec::hash_covered;
use ddx_dnssec::nsec3_hash;
use ddx_dnssec::nsec_covers;

/// One NSEC-typed RRset: owner plus the `next_name` of every NSEC RDATA it
/// holds (injected zones may hold zero or several).
#[derive(Debug, Clone)]
struct NsecEntry {
    owner: Name,
    nexts: Vec<Name>,
}

/// One NSEC3-typed RRset whose first RDATA is NSEC3 (the naive scan's
/// filter): owner, the base32-decoded first label, and the first RDATA's
/// next-hashed-owner.
#[derive(Debug, Clone)]
struct Nsec3Entry {
    owner: Name,
    owner_hash: Option<Vec<u8>>,
    next_hashed: Vec<u8>,
}

/// Immutable lookup structures for one zone at one generation.
#[derive(Debug)]
pub struct ZoneIndex {
    generation: u64,
    /// Any NSEC3 or NSEC3PARAM set present (selects the denial flavor).
    uses_nsec3: bool,
    /// `(salt, iterations)` exactly as the naive path derives them: from
    /// the first canonical NSEC3 set's first RDATA, else the apex
    /// NSEC3PARAM's first RDATA.
    nsec3_params: Option<(Vec<u8>, u16)>,
    /// NSEC-typed sets in canonical owner order (owners strictly
    /// ascending: one set per owner/type).
    nsec_chain: Vec<NsecEntry>,
    /// Every entry holds exactly one next name and the chain closes
    /// (`next[i] == owner[i+1]`, last wraps to first).
    nsec_well_formed: bool,
    /// NSEC3 entries in canonical set order (the naive scan order).
    nsec3_ring: Vec<Nsec3Entry>,
    /// Indexes into `nsec3_ring`, ascending by owner hash. Only meaningful
    /// when `nsec3_well_formed`.
    nsec3_sorted: Vec<usize>,
    /// Every owner hash decodes, hashes are unique, and the ring closes in
    /// hash order.
    nsec3_well_formed: bool,
    /// Global `server.zone_index.fast_path` / `.fallback` counters: each
    /// `find_*` lookup bumps one of them depending on whether it took the
    /// binary-search shortcut or the linear malformed-chain walk.
    obs_fast_path: ddx_obs::Counter,
    obs_fallback: ddx_obs::Counter,
}

impl ZoneIndex {
    /// Builds the index from one pass over the zone's RRsets.
    pub fn build(zone: &Zone) -> ZoneIndex {
        let mut uses_nsec3 = false;
        let mut nsec_chain: Vec<NsecEntry> = Vec::new();
        let mut nsec3_ring: Vec<Nsec3Entry> = Vec::new();
        let mut nsec_malformed = false;
        let mut ring_params: Option<(Vec<u8>, u16)> = None;
        for set in zone.rrsets() {
            match set.rtype {
                RrType::Nsec => {
                    let nexts: Vec<Name> = set
                        .rdatas
                        .iter()
                        .filter_map(|rd| match rd {
                            RData::Nsec(n) => Some(n.next_name.clone()),
                            _ => None,
                        })
                        .collect();
                    if nexts.len() != 1 {
                        nsec_malformed = true;
                    }
                    nsec_chain.push(NsecEntry {
                        owner: set.name.clone(),
                        nexts,
                    });
                }
                RrType::Nsec3 => {
                    uses_nsec3 = true;
                    if let Some(RData::Nsec3(n3)) = set.rdatas.first() {
                        // The naive path takes (salt, iterations) from the
                        // first canonical NSEC3 set's first RDATA.
                        if ring_params.is_none() {
                            ring_params = Some((n3.salt.clone(), n3.iterations));
                        }
                        let owner_hash = set
                            .name
                            .labels()
                            .first()
                            .and_then(|l| std::str::from_utf8(l.as_bytes()).ok())
                            .and_then(base32::decode);
                        nsec3_ring.push(Nsec3Entry {
                            owner: set.name.clone(),
                            owner_hash,
                            next_hashed: n3.next_hashed_owner.clone(),
                        });
                    }
                }
                RrType::Nsec3Param => uses_nsec3 = true,
                _ => {}
            }
        }

        let nsec_well_formed = !nsec_malformed
            && !nsec_chain.is_empty()
            && (0..nsec_chain.len())
                .all(|i| nsec_chain[i].nexts[0] == nsec_chain[(i + 1) % nsec_chain.len()].owner);

        let mut nsec3_sorted: Vec<usize> = (0..nsec3_ring.len()).collect();
        let mut nsec3_well_formed =
            !nsec3_ring.is_empty() && nsec3_ring.iter().all(|e| e.owner_hash.is_some());
        if nsec3_well_formed {
            nsec3_sorted.sort_by(|&a, &b| nsec3_ring[a].owner_hash.cmp(&nsec3_ring[b].owner_hash));
            nsec3_well_formed = nsec3_sorted
                .windows(2)
                .all(|w| nsec3_ring[w[0]].owner_hash != nsec3_ring[w[1]].owner_hash)
                && (0..nsec3_sorted.len()).all(|i| {
                    let next_entry = &nsec3_ring[nsec3_sorted[(i + 1) % nsec3_sorted.len()]];
                    nsec3_ring[nsec3_sorted[i]].next_hashed
                        == *next_entry.owner_hash.as_ref().expect("checked above")
                });
        }

        let nsec3_params = ring_params.or_else(|| {
            zone.get(zone.apex(), RrType::Nsec3Param)
                .and_then(|s| match s.rdatas.first() {
                    Some(RData::Nsec3Param(p)) => Some((p.salt.clone(), p.iterations)),
                    _ => None,
                })
        });

        ddx_obs::counter("server.zone_index.builds", &[]).inc();
        ZoneIndex {
            generation: zone.generation(),
            uses_nsec3,
            nsec3_params,
            nsec_chain,
            nsec_well_formed,
            nsec3_ring,
            nsec3_sorted,
            nsec3_well_formed,
            obs_fast_path: ddx_obs::counter("server.zone_index.fast_path", &[]),
            obs_fallback: ddx_obs::counter("server.zone_index.fallback", &[]),
        }
    }

    /// The zone generation this index was built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the zone carries NSEC3/NSEC3PARAM material.
    pub fn uses_nsec3(&self) -> bool {
        self.uses_nsec3
    }

    /// NSEC3 `(salt, iterations)`, derived as the naive path derives them.
    pub fn nsec3_params(&self) -> Option<(&[u8], u16)> {
        self.nsec3_params.as_ref().map(|(s, i)| (&s[..], *i))
    }

    /// The owner of the first NSEC set (canonical order) satisfying the
    /// naive denial predicate for `target`.
    pub fn find_first_nsec(&self, target: &Name, nxdomain: bool, apex: &Name) -> Option<&Name> {
        let matches = |e: &NsecEntry| {
            if nxdomain || e.owner != *target {
                e.nexts
                    .iter()
                    .any(|next| nsec_covers(&e.owner, next, target, apex) || e.owner == *target)
            } else {
                true
            }
        };
        if !self.nsec_well_formed {
            self.obs_fallback.inc();
            return self
                .nsec_chain
                .iter()
                .find(|e| matches(e))
                .map(|e| &e.owner);
        }
        self.obs_fast_path.inc();
        // Well-formed chain: the only sets that can satisfy the predicate
        // are the exact-owner set and the covering arc, which (owners being
        // strictly ascending and the chain closed) is the canonical
        // predecessor arc, wrapping at the ends.
        let n = self.nsec_chain.len();
        let pos = self.nsec_chain.partition_point(|e| e.owner < *target);
        let mut candidates = [usize::MAX; 2];
        if pos < n && self.nsec_chain[pos].owner == *target {
            candidates[0] = pos;
        }
        candidates[1] = if pos == 0 { n - 1 } else { pos - 1 };
        candidates.sort_unstable();
        candidates
            .into_iter()
            .filter(|&i| i < n)
            .find(|&i| matches(&self.nsec_chain[i]))
            .map(|i| &self.nsec_chain[i].owner)
    }

    /// The owner of the first NSEC3 set whose owner hash equals the hash of
    /// `target` under `(salt, iterations)`.
    pub fn find_nsec3_match(&self, target: &Name, salt: &[u8], iterations: u16) -> Option<&Name> {
        let h = nsec3_hash(target, salt, iterations);
        if !self.nsec3_well_formed {
            self.obs_fallback.inc();
            return self
                .nsec3_ring
                .iter()
                .find(|e| e.owner_hash.as_deref() == Some(&h[..]))
                .map(|e| &e.owner);
        }
        self.obs_fast_path.inc();
        self.nsec3_sorted
            .binary_search_by(|&i| self.nsec3_ring[i].owner_hash.as_deref().cmp(&Some(&h[..])))
            .ok()
            .map(|pos| &self.nsec3_ring[self.nsec3_sorted[pos]].owner)
    }

    /// The owner of the first NSEC3 set whose hash arc covers the hash of
    /// `target`.
    pub fn find_nsec3_cover(&self, target: &Name, salt: &[u8], iterations: u16) -> Option<&Name> {
        let h = nsec3_hash(target, salt, iterations);
        let covers = |e: &Nsec3Entry| {
            e.owner_hash
                .as_ref()
                .map(|oh| hash_covered(oh, &e.next_hashed, &h))
                .unwrap_or(false)
        };
        if !self.nsec3_well_formed {
            self.obs_fallback.inc();
            return self.nsec3_ring.iter().find(|e| covers(e)).map(|e| &e.owner);
        }
        self.obs_fast_path.inc();
        // Well-formed ring: hashes are unique and arcs close, so at most
        // one arc covers `h` — the hash-order predecessor, wrapping.
        let n = self.nsec3_sorted.len();
        let pos = self
            .nsec3_sorted
            .partition_point(|&i| self.nsec3_ring[i].owner_hash.as_deref() < Some(&h[..]));
        let pred = self.nsec3_sorted[if pos == 0 { n - 1 } else { pos - 1 }];
        let entry = &self.nsec3_ring[pred];
        covers(entry).then_some(&entry.owner)
    }
}

/// One zone's index slot: the generation it serves and the index, built
/// by whichever query reaches the slot first.
type IndexSlot = Arc<(u64, OnceLock<Arc<ZoneIndex>>)>;

/// A server's lazily built indexes, one slot per zone apex, replaced when
/// the zone's generation moves: a zone write costs one
/// [`ZoneIndex::build`], whichever memo, shard or worker asks first.
#[derive(Debug, Default)]
pub(crate) struct ZoneIndexes {
    slots: RwLock<HashMap<Name, IndexSlot>>,
}

impl ZoneIndexes {
    /// The index for `zone`, rebuilt if the cached one belongs to another
    /// generation. Lookups share a read lock; a rebuild runs outside the map
    /// lock, in the zone's slot, so queries against other zones never wait
    /// on it and concurrent queries against the new generation share one
    /// build.
    pub(crate) fn index_for(&self, zone: &Zone) -> Arc<ZoneIndex> {
        let generation = zone.generation();
        let current = self
            .slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(zone.apex())
            .filter(|slot| slot.0 == generation)
            .cloned();
        let slot = current.unwrap_or_else(|| {
            let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            let slot = slots
                .entry(zone.apex().clone())
                .or_insert_with(|| Arc::new((generation, OnceLock::new())));
            if slot.0 != generation {
                *slot = Arc::new((generation, OnceLock::new()));
            }
            Arc::clone(slot)
        });
        Arc::clone(slot.1.get_or_init(|| Arc::new(ZoneIndex::build(zone))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, Record};

    /// A hand-built malformed NSEC chain (dangling next names) must disable
    /// the fast path and still serve first-match semantics.
    #[test]
    fn malformed_chain_falls_back_to_linear_first_match() {
        let mut z = Zone::new(name("example.com"));
        for (owner, next) in [
            ("example.com", "b.example.com"),
            ("b.example.com", "nowhere.example.com"),
            ("d.example.com", "example.com"),
        ] {
            z.add(Record::new(
                name(owner),
                300,
                RData::Nsec(ddx_dns::Nsec {
                    next_name: name(next),
                    type_bitmap: ddx_dns::TypeBitmap::from_types([RrType::A]),
                }),
            ));
        }
        let idx = ZoneIndex::build(&z);
        assert!(!idx.nsec_well_formed);
        // c.example.com is covered both by b→nowhere? no — but d→example
        // wraps; the naive scan picks the first canonical set that covers.
        let naive = |target: &Name, nxdomain: bool| {
            idx.nsec_chain
                .iter()
                .find(|e| {
                    if nxdomain || e.owner != *target {
                        e.nexts.iter().any(|nx| {
                            nsec_covers(&e.owner, nx, target, &name("example.com"))
                                || e.owner == *target
                        })
                    } else {
                        true
                    }
                })
                .map(|e| e.owner.clone())
        };
        for probe in ["a.example.com", "c.example.com", "zz.example.com"] {
            for nx in [false, true] {
                let t = name(probe);
                assert_eq!(
                    idx.find_first_nsec(&t, nx, &name("example.com")).cloned(),
                    naive(&t, nx),
                    "{probe} nx={nx}"
                );
            }
        }
    }

    #[test]
    fn well_formed_chain_is_detected() {
        let mut z = Zone::new(name("example.com"));
        for (owner, next) in [
            ("example.com", "b.example.com"),
            ("b.example.com", "d.example.com"),
            ("d.example.com", "example.com"),
        ] {
            z.add(Record::new(
                name(owner),
                300,
                RData::Nsec(ddx_dns::Nsec {
                    next_name: name(next),
                    type_bitmap: ddx_dns::TypeBitmap::from_types([RrType::A]),
                }),
            ));
        }
        let idx = ZoneIndex::build(&z);
        assert!(idx.nsec_well_formed);
        // NXDOMAIN between b and d: the b arc covers.
        assert_eq!(
            idx.find_first_nsec(&name("c.example.com"), true, &name("example.com")),
            Some(&name("b.example.com"))
        );
        // Past the last owner: the wrap arc covers.
        assert_eq!(
            idx.find_first_nsec(&name("zz.example.com"), true, &name("example.com")),
            Some(&name("d.example.com"))
        );
        // NODATA at an existing owner: the exact set wins over the
        // predecessor arc (first-match order).
        assert_eq!(
            idx.find_first_nsec(&name("b.example.com"), false, &name("example.com")),
            Some(&name("b.example.com"))
        );
    }

    #[test]
    fn one_index_per_zone_generation() {
        let indexes = ZoneIndexes::default();
        let mut zone = Zone::new(name("example.com"));
        let first = indexes.index_for(&zone);
        assert!(Arc::ptr_eq(&first, &indexes.index_for(&zone)));
        zone.add(Record::new(
            name("a.example.com"),
            300,
            RData::A([192, 0, 2, 1].into()),
        ));
        let fresh = indexes.index_for(&zone);
        assert!(!Arc::ptr_eq(&first, &fresh), "a new generation rebuilds");
        assert!(Arc::ptr_eq(&fresh, &indexes.index_for(&zone)));
        // Workers racing on the next generation all get its one build.
        zone.add(Record::new(
            name("b.example.com"),
            300,
            RData::A([192, 0, 2, 2].into()),
        ));
        let raced: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| indexes.index_for(&zone)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(raced.iter().all(|idx| Arc::ptr_eq(idx, &raced[0])));
        assert!(!Arc::ptr_eq(&raced[0], &fresh));
    }
}

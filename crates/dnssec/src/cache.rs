//! RRSIG memo cache for the sign-once signing pipeline.
//!
//! Signatures in this workspace are deterministic functions of the DNSKEY
//! RDATA and the signing payload (see DESIGN.md §4), so a signature computed
//! once can be replayed for any later request over the same inputs. The
//! cache key is a SHA-256 digest over both, plus the algorithm's signature
//! length. Because the signing payload embeds the full RRSIG prefix —
//! type covered, algorithm, labels, original TTL, the inception/expiration
//! window, key tag, and signer name — as well as the canonical RRset bytes,
//! every component the ISSUE names (canonical RRset digest, key tag,
//! algorithm, validity window) is subsumed: two requests collide only if
//! they would produce byte-identical signatures anyway.
//!
//! Invalidation is therefore automatic: a key-ring change alters the DNSKEY
//! wire or key tag, a validity-window rollover alters the embedded
//! inception/expiration, and a serial bump alters the SOA RRset bytes —
//! each lands on a fresh key and recomputes. Stale entries are never
//! *wrong*, only unused, so eviction is by signing pass: each zone keeps the
//! signatures its latest pass used, and a pass frees whatever of the
//! zone's previous pass it did not reuse. The cache is as large as the
//! signatures the zones hold, however many times they are re-signed.

use std::collections::HashMap;
use std::mem;

use crate::sha::{Digest, Sha256};

use ddx_dns::{CanonicalScratch, Name};

/// Domain-separation tag for cache-key digests.
const CACHE_TAG: &[u8] = b"ddx-sig-cache-v1";

/// Cache key: digest of (DNSKEY wire ‖ signing payload) plus signature
/// length. See the module docs for why this is collision-sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SigKey {
    digest: [u8; 32],
    sig_len: usize,
}

type Sigs = HashMap<SigKey, Vec<u8>>;

/// Memo cache mapping signing inputs to raw signature bytes, with reusable
/// scratch buffers for the canonical-form encoder so a warm signing pass
/// performs no per-RRset allocation.
///
/// Every hit/miss is counted once, in the process-wide
/// `dnssec.sig_cache.*` metrics of the [`ddx_obs`] registry (monotonic,
/// aggregated across all instances and threads). The
/// `dnssec.sig_cache.entries` gauge tracks the size of the most recently
/// mutated instance.
#[derive(Debug, Clone)]
pub struct SigCache {
    /// Per zone apex, the signatures its latest signing pass used.
    zones: HashMap<Name, Sigs>,
    /// Signatures the pass in progress has used so far.
    used: Sigs,
    /// The previous pass over the zone being signed: what is left of it
    /// when the pass ends is stale.
    previous: Sigs,
    /// Scratch: signing payload under construction.
    pub(crate) payload: Vec<u8>,
    /// Scratch: DNSKEY RDATA wire form of the signing key.
    pub(crate) key_wire: Vec<u8>,
    /// Scratch: canonical-form encoder buffers.
    pub(crate) canon: CanonicalScratch,
    /// Global-registry handles; clones share the same cells.
    obs_hits: ddx_obs::Counter,
    obs_misses: ddx_obs::Counter,
    obs_entries: ddx_obs::Gauge,
}

impl Default for SigCache {
    fn default() -> Self {
        Self {
            zones: HashMap::new(),
            used: HashMap::new(),
            previous: HashMap::new(),
            payload: Vec::new(),
            key_wire: Vec::new(),
            canon: CanonicalScratch::default(),
            obs_hits: ddx_obs::counter("dnssec.sig_cache.hits", &[]),
            obs_misses: ddx_obs::counter("dnssec.sig_cache.misses", &[]),
            obs_entries: ddx_obs::gauge("dnssec.sig_cache.entries", &[]),
        }
    }
}

impl SigCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached signatures. Scratch buffers keep their capacity;
    /// the global `dnssec.sig_cache.*` counters are monotonic and
    /// unaffected.
    pub fn clear(&mut self) {
        self.zones.clear();
        self.used.clear();
        self.previous.clear();
        self.obs_entries.set(0);
    }

    pub(crate) fn key(key_wire: &[u8], payload: &[u8], sig_len: usize) -> SigKey {
        let mut h = Sha256::new();
        h.update(CACHE_TAG);
        // Length-prefix the variable-length key wire so (key ‖ payload)
        // splits cannot alias across the boundary.
        h.update((key_wire.len() as u32).to_be_bytes());
        h.update(key_wire);
        h.update(payload);
        SigKey {
            digest: h.finalize(),
            sig_len,
        }
    }

    /// Starts a signing pass over the zone at `apex`: the signatures of
    /// its previous pass become reusable.
    pub(crate) fn begin_pass(&mut self, apex: &Name) {
        if let Some(previous) = self.zones.remove(apex) {
            self.previous = previous;
        }
    }

    /// Ends the pass over the zone at `apex`: the zone keeps the signatures
    /// this pass used, and those of its previous pass that it did not reuse
    /// are freed. The freed table is kept for the next pass to fill.
    pub(crate) fn end_pass(&mut self, apex: Name) {
        self.previous.clear();
        let used = mem::replace(&mut self.used, mem::take(&mut self.previous));
        self.zones.insert(apex, used);
        self.obs_entries.set(self.len() as i64);
    }

    /// Signatures held, across every zone.
    pub(crate) fn len(&self) -> usize {
        self.zones.values().map(HashMap::len).sum::<usize>() + self.used.len()
    }

    pub(crate) fn get(&mut self, key: &SigKey) -> Option<Vec<u8>> {
        let sig = match self.used.get(key) {
            Some(sig) => Some(sig.clone()),
            None => self.previous.remove_entry(key).map(|(key, sig)| {
                self.used.insert(key, sig.clone());
                sig
            }),
        };
        match sig {
            Some(_) => self.obs_hits.inc(),
            None => self.obs_misses.inc(),
        }
        sig
    }

    pub(crate) fn insert(&mut self, key: SigKey, sig: Vec<u8>) {
        self.used.insert(key, sig);
    }

    /// Every cached signature, for tests that poison them.
    #[cfg(test)]
    pub(crate) fn signatures_mut(&mut self) -> impl Iterator<Item = &mut Vec<u8>> {
        self.zones
            .values_mut()
            .flat_map(HashMap::values_mut)
            .chain(self.used.values_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_distinct_keys() {
        let a = SigCache::key(b"key-a", b"payload", 64);
        let b = SigCache::key(b"key-b", b"payload", 64);
        let c = SigCache::key(b"key-a", b"payloae", 64);
        let d = SigCache::key(b"key-a", b"payload", 32);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn key_boundary_is_unambiguous() {
        // Without the length prefix these two would hash identically.
        let a = SigCache::key(b"ab", b"c", 64);
        let b = SigCache::key(b"a", b"bc", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn hits_and_misses_reach_global_registry() {
        let hits = ddx_obs::counter("dnssec.sig_cache.hits", &[]);
        let misses = ddx_obs::counter("dnssec.sig_cache.misses", &[]);
        let (h0, m0) = (hits.get(), misses.get());
        let mut cache = SigCache::new();
        let k = SigCache::key(b"key", b"payload", 64);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), vec![0xAB; 64]);
        assert!(cache.get(&k).is_some());
        // Other tests in this process may also bump the registry, so the
        // deltas are lower bounds.
        assert!(hits.get() - h0 >= 1);
        assert!(misses.get() - m0 >= 1);
    }

    #[test]
    fn a_pass_keeps_only_the_signatures_it_used() {
        let (a, b) = (ddx_dns::name("a.test"), ddx_dns::name("b.test"));
        let k = |payload: &[u8]| SigCache::key(b"key", payload, 64);
        let mut cache = SigCache::new();
        cache.begin_pass(&a);
        cache.insert(k(b"a soa 1"), vec![1; 64]);
        cache.insert(k(b"a ns"), vec![2; 64]);
        cache.end_pass(a.clone());
        cache.begin_pass(&b);
        cache.insert(k(b"b ns"), vec![3; 64]);
        cache.end_pass(b.clone());

        // Re-signing `a` after a serial bump reuses its NS signature and
        // frees the superseded SOA one; `b`'s signatures are untouched.
        cache.begin_pass(&a);
        assert!(cache.get(&k(b"a ns")).is_some());
        assert!(cache.get(&k(b"a soa 2")).is_none());
        cache.insert(k(b"a soa 2"), vec![4; 64]);
        cache.end_pass(a.clone());
        assert_eq!(cache.len(), 3);

        cache.begin_pass(&a);
        assert!(cache.get(&k(b"a soa 1")).is_none(), "a stale signature");
        assert!(cache.get(&k(b"a soa 2")).is_some());
        cache.end_pass(a);
        cache.begin_pass(&b);
        assert!(cache.get(&k(b"b ns")).is_some());
        cache.end_pass(b);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut cache = SigCache::new();
        let k = SigCache::key(b"key", b"payload", 64);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), vec![0xAB; 64]);
        assert_eq!(cache.get(&k).as_deref(), Some(&[0xAB; 64][..]));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&k).is_none(), "a cleared cache misses");
    }
}

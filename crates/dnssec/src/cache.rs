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
//! *wrong*, only unused, so eviction is a simple size cap.

use std::collections::HashMap;

use crate::sha::{Digest, Sha256};

use ddx_dns::CanonicalScratch;

/// Entry cap; a full cache resets rather than evicting piecemeal. 64Ki
/// signatures (~4 MiB at RSA-2048 lengths) comfortably covers the largest
/// sandbox zones while bounding a long-lived pipeline process.
const MAX_ENTRIES: usize = 1 << 16;

/// Domain-separation tag for cache-key digests.
const CACHE_TAG: &[u8] = b"ddx-sig-cache-v1";

/// Cache key: digest of (DNSKEY wire ‖ signing payload) plus signature
/// length. See the module docs for why this is collision-sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SigKey {
    digest: [u8; 32],
    sig_len: usize,
}

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
    pub(crate) map: HashMap<SigKey, Vec<u8>>,
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
            map: HashMap::new(),
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
        self.map.clear();
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

    pub(crate) fn get(&mut self, key: &SigKey) -> Option<Vec<u8>> {
        match self.map.get(key) {
            Some(sig) => {
                self.obs_hits.inc();
                Some(sig.clone())
            }
            None => {
                self.obs_misses.inc();
                None
            }
        }
    }

    pub(crate) fn insert(&mut self, key: SigKey, sig: Vec<u8>) {
        if self.map.len() >= MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(key, sig);
        self.obs_entries.set(self.map.len() as i64);
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
    fn hit_miss_accounting() {
        let mut cache = SigCache::new();
        let k = SigCache::key(b"key", b"payload", 64);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), vec![0xAB; 64]);
        assert_eq!(cache.get(&k).as_deref(), Some(&[0xAB; 64][..]));
        assert_eq!(cache.map.len(), 1);
        cache.clear();
        assert!(cache.map.is_empty());
        assert!(cache.get(&k).is_none(), "a cleared cache misses");
    }
}

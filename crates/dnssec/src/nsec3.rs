//! NSEC3 hashing (RFC 5155 §5) and parameter handling, including the
//! RFC 9276 guidance that iteration count SHOULD be 0 and salt empty —
//! the single most violated rule in the paper's dataset ("Nonzero
//! Iteration Count", 28.8% of snapshots).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::sha::{Digest, Sha1};
use ddx_json::ToJson;

use ddx_dns::Name;

/// The only NSEC3 hash algorithm defined (RFC 5155 §11): SHA-1.
pub const NSEC3_HASH_SHA1: u8 = 1;

/// NSEC3 chain parameters, mirroring the NSEC3PARAM RDATA.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Nsec3Config {
    pub hash_algorithm: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
    /// Set the Opt-Out flag on generated NSEC3 records.
    pub opt_out: bool,
}

impl Default for Nsec3Config {
    /// RFC 9276-compliant defaults: zero iterations, empty salt, no opt-out.
    fn default() -> Self {
        Nsec3Config {
            hash_algorithm: NSEC3_HASH_SHA1,
            iterations: 0,
            salt: Vec::new(),
            opt_out: false,
        }
    }
}

impl Nsec3Config {
    /// True if the parameters satisfy RFC 9276 §3.1 (iterations 0, salt
    /// empty). Violations are the paper's NZIC / salt warnings.
    pub fn rfc9276_compliant(&self) -> bool {
        self.iterations == 0 && self.salt.is_empty()
    }
}

/// Memo table entry cap before the table resets. High-iteration snapshots
/// (the paper's NZIC class) hash the same names over and over across chain
/// building, proof checking, and grok; 64Ki entries covers the largest
/// sandbox zones many times over while bounding long-lived processes.
const MEMO_MAX_ENTRIES: usize = 1 << 16;

/// Per-thread memo state. The map is thread-local, but every hit/miss bumps
/// the process-wide `dnssec.nsec3_memo.{hits,misses}` counters through the
/// cached global handles, live at the moment it happens. That is what makes
/// the totals of a parallel `ddx_campaign` evaluation (`run_campaign` or
/// `evaluate_corpus`) accurate: worker-thread traffic aggregates into the
/// global registry as it occurs instead of dying with the worker's
/// thread-locals.
struct Nsec3Memo {
    map: HashMap<(Vec<u8>, Vec<u8>, u16), Vec<u8>>,
    obs_hits: ddx_obs::Counter,
    obs_misses: ddx_obs::Counter,
}

impl Nsec3Memo {
    fn new() -> Self {
        Nsec3Memo {
            map: HashMap::new(),
            obs_hits: ddx_obs::counter("dnssec.nsec3_memo.hits", &[]),
            obs_misses: ddx_obs::counter("dnssec.nsec3_memo.misses", &[]),
        }
    }
}

thread_local! {
    /// (canonical name wire, salt, iterations) → hash.
    static NSEC3_MEMO: RefCell<Nsec3Memo> = RefCell::new(Nsec3Memo::new());
}

/// Computes the NSEC3 hash of `name` (RFC 5155 §5):
/// `IH(salt, x, 0) = H(x ‖ salt)`, `IH(salt, x, k) = H(IH(salt, x, k-1) ‖ salt)`,
/// over the canonical (lowercased) wire form of the name.
///
/// Hashes are memoized per thread: the rounds dominate chain-build and
/// proof-check cost, and the same names recur across every signing pass and
/// grok of a sandbox.
pub fn nsec3_hash(name: &Name, salt: &[u8], iterations: u16) -> Vec<u8> {
    // Logical-work ledger: `1 + iterations` SHA-1 rounds per hash request,
    // recorded before the memo lookup so cache temperature never shows.
    crate::workload::record_nsec3_rounds(1 + iterations as u64);
    NSEC3_MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        let key = (name.canonical_wire(), salt.to_vec(), iterations);
        if let Some(hash) = memo.map.get(&key) {
            memo.obs_hits.inc();
            return hash.clone();
        }
        memo.obs_misses.inc();
        let hash = nsec3_hash_uncached(name, salt, iterations);
        if memo.map.len() >= MEMO_MAX_ENTRIES {
            memo.map.clear();
        }
        memo.map.insert(key, hash.clone());
        hash
    })
}

/// The raw RFC 5155 §5 computation, always performed, never memoized.
fn nsec3_hash_uncached(name: &Name, salt: &[u8], iterations: u16) -> Vec<u8> {
    let mut h = Sha1::new();
    h.update(name.canonical_wire());
    h.update(salt);
    let mut digest = h.finalize_reset();
    for _ in 0..iterations {
        h.update(digest);
        h.update(salt);
        digest = h.finalize_reset();
    }
    digest.to_vec()
}

/// Empties this thread's NSEC3 memo table. The global
/// `dnssec.nsec3_memo.*` metrics are monotonic and unaffected.
pub fn nsec3_memo_clear() {
    NSEC3_MEMO.with(|memo| memo.borrow_mut().map.clear())
}

#[cfg(test)]
mod memo_metrics_tests {
    use super::*;
    use ddx_dns::name;

    #[test]
    fn worker_thread_memo_traffic_reaches_global_registry() {
        let hits = ddx_obs::counter("dnssec.nsec3_memo.hits", &[]);
        let misses = ddx_obs::counter("dnssec.nsec3_memo.misses", &[]);
        let (h0, m0) = (hits.get(), misses.get());
        std::thread::spawn(|| {
            let n = name("metrics-probe.example.com");
            let first = nsec3_hash(&n, b"ab", 5);
            let second = nsec3_hash(&n, b"ab", 5);
            assert_eq!(first, second);
        })
        .join()
        .unwrap();
        // The global registry retains the worker's traffic after it exits,
        // which a thread-local tally would lose.
        assert!(hits.get() - h0 >= 1);
        assert!(misses.get() - m0 >= 1);
    }
}

/// The full owner name of the NSEC3 record for `name` in `zone`.
#[cfg(test)]
pub(crate) fn nsec3_owner(name: &Name, zone: &Name, salt: &[u8], iterations: u16) -> Name {
    zone.child(&ddx_dns::base32::encode(&nsec3_hash(
        name, salt, iterations,
    )))
    .expect("nsec3 label fits")
}

/// True if `hash` falls strictly between `owner_hash` and `next_hash` on the
/// NSEC3 ring (handles wrap-around at the end of the chain).
pub fn hash_covered(owner_hash: &[u8], next_hash: &[u8], hash: &[u8]) -> bool {
    use std::cmp::Ordering::*;
    match owner_hash.cmp(next_hash) {
        Less => owner_hash < hash && hash < next_hash,
        // Last NSEC3 in the chain wraps to the first.
        Greater => hash > owner_hash || hash < next_hash,
        // Single-record chain covers everything except itself.
        Equal => hash != owner_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{base32, name};
    use ddx_prop::{check, string, Rng};

    #[test]
    fn rfc5155_appendix_a_vector() {
        // RFC 5155 Appendix A: H(example) with salt aabbccdd, 12 extra
        // iterations = 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.
        let hash = nsec3_hash(&name("example"), &[0xaa, 0xbb, 0xcc, 0xdd], 12);
        assert_eq!(
            base32::encode(&hash).to_ascii_lowercase(),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"
        );
    }

    #[test]
    fn rfc5155_a_example_vector() {
        // Same appendix: H(a.example) = 35mthgpgcu1qg68fab165klnsnk3dpvl.
        let hash = nsec3_hash(&name("a.example"), &[0xaa, 0xbb, 0xcc, 0xdd], 12);
        assert_eq!(
            base32::encode(&hash).to_ascii_lowercase(),
            "35mthgpgcu1qg68fab165klnsnk3dpvl"
        );
    }

    #[test]
    fn hash_is_case_insensitive() {
        assert_eq!(
            nsec3_hash(&name("Example.COM"), b"s", 3),
            nsec3_hash(&name("example.com"), b"s", 3)
        );
    }

    #[test]
    fn iterations_change_hash() {
        let n = name("example.com");
        assert_ne!(nsec3_hash(&n, b"", 0), nsec3_hash(&n, b"", 1));
        assert_ne!(nsec3_hash(&n, b"", 0), nsec3_hash(&n, b"x", 0));
    }

    #[test]
    fn memoized_hash_matches_uncached() {
        // Each test runs on its own thread, so the thread-local memo is
        // isolated here.
        nsec3_memo_clear();
        let memo_len = || NSEC3_MEMO.with(|memo| memo.borrow().map.len());
        let n = name("memo.example.com");
        for iterations in [25, 0] {
            let direct = nsec3_hash_uncached(&n, b"salt", iterations);
            assert_eq!(nsec3_hash(&n, b"salt", iterations), direct, "miss path");
            assert_eq!(nsec3_hash(&n, b"salt", iterations), direct, "hit path");
        }
        // One entry per (name, salt, iterations), zero iterations included.
        assert_eq!(memo_len(), 2);
    }

    #[test]
    fn owner_name_format() {
        let owner = nsec3_owner(&name("www.example.com"), &name("example.com"), &[], 0);
        assert_eq!(owner.label_count(), 3);
        assert!(owner.is_subdomain_of(&name("example.com")));
        // base32hex of SHA-1: 32 chars.
        assert_eq!(owner.labels()[0].len(), 32);
    }

    #[test]
    fn coverage_logic() {
        let a = [10u8; 20];
        let b = [20u8; 20];
        let mid = [15u8; 20];
        let out = [25u8; 20];
        assert!(hash_covered(&a, &b, &mid));
        assert!(!hash_covered(&a, &b, &out));
        assert!(!hash_covered(&a, &b, &a));
        assert!(!hash_covered(&a, &b, &b));
        // Wrap-around: last record covering the gap past the end.
        assert!(hash_covered(&b, &a, &out));
        assert!(hash_covered(&b, &a, &[5u8; 20]));
        assert!(!hash_covered(&b, &a, &mid));
        // Degenerate single-record chain.
        assert!(hash_covered(&a, &a, &mid));
        assert!(!hash_covered(&a, &a, &a));
    }

    #[test]
    fn rfc9276_compliance() {
        assert!(Nsec3Config::default().rfc9276_compliant());
        let bad = Nsec3Config {
            iterations: 10,
            ..Default::default()
        };
        assert!(!bad.rfc9276_compliant());
        let salty = Nsec3Config {
            salt: vec![1, 2],
            ..Default::default()
        };
        assert!(!salty.rfc9276_compliant());
    }

    #[test]
    fn hash_deterministic() {
        check("hash_deterministic", 256, |rng| {
            let label = string(rng, "abcdefghijklmnopqrstuvwxyz", 1..11);
            let iters = rng.gen_range(0u16..50);
            let n = name(&format!("{label}.example.com"));
            assert_eq!(
                nsec3_hash(&n, b"salt", iters),
                nsec3_hash(&n, b"salt", iters)
            );
        });
    }

    #[test]
    fn coverage_excludes_endpoints() {
        check("coverage_excludes_endpoints", 256, |rng| {
            let (mut h1, mut h2) = ([0u8; 20], [0u8; 20]);
            rng.fill(&mut h1);
            rng.fill(&mut h2);
            assert!(!hash_covered(&h1, &h2, &h1));
            assert!(!hash_covered(&h1, &h2, &h2) || h1 == h2);
        });
    }
}

//! Generation-stamped, qname-sharded answer memoization for
//! [`Server`](crate::Server).
//!
//! The probe→grok→fix loop re-issues the same ~7 queries per server per
//! zone on every DFixer iteration, and most iterations change nothing on
//! most servers. The memo keys each response on the serving zone's
//! [`generation`](ddx_dns::Zone::generation) stamp plus everything the
//! response bytes depend on (qname, qtype, qclass, the RD flag, and the
//! EDNS state carrying the DO bit), so an unchanged zone answers a repeated
//! query with an `Arc` pointer bump. Any zone mutation draws a fresh
//! generation, which makes every old entry unreachable — invalidation is
//! implicit in the key.
//!
//! # Sharding
//!
//! The memo is split into [`AnswerMemo::shard_count`] independent shards,
//! selected by an FNV-1a hash of the query name's lowercased label bytes.
//! Each shard owns its own entry map, so transport workers hammering one
//! server from many threads contend only when two in-flight queries hash to
//! the same shard. Entries for one qname always land in one shard (the hash
//! ignores qtype/DO), which makes the clear-at-cap eviction local: a hot
//! shard flushing does not dump the whole process's working set. The
//! per-generation [`ZoneIndex`] cache is one per memo, not per shard.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use ddx_dns::{Edns, Message, MessageView, Name, RrClass, RrType, Zone};

use crate::index::ZoneIndex;

/// Everything (besides the zone content and the server behavior, both
/// handled outside the memo) that the bytes of a response depend on —
/// except the message id, which the cache layer patches on mismatch.
///
/// Also the per-server key half of [`CachingNetwork`](crate::CachingNetwork),
/// so client- and server-side caches agree on what identifies a question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    pub qname: Name,
    pub qtype: RrType,
    pub qclass: RrClass,
    /// Recursion-desired flag (echoed into responses).
    pub rd: bool,
    /// EDNS state of the query (the DO bit selects DNSSEC records; the
    /// response echoes the whole pseudo-section).
    pub edns: Option<Edns>,
}

impl AnswerKey {
    /// Builds the key for a query message; `None` when the query has no
    /// question (such messages are answered FORMERR and never cached).
    pub fn for_query(query: &Message) -> Option<AnswerKey> {
        let q = query.question.as_ref()?;
        Some(AnswerKey {
            qname: q.qname.clone(),
            qtype: q.qtype,
            qclass: q.qclass,
            rd: query.flags.rd,
            edns: query.edns,
        })
    }

    /// Builds the key straight from a zero-copy wire view. The qname is the
    /// only allocation (the key must own it to live in the memo map); no
    /// owned `Message` is ever constructed. Produces a key equal to what
    /// [`AnswerKey::for_query`] would build for the decoded message.
    pub fn from_view(view: &MessageView<'_>) -> Option<AnswerKey> {
        let q = view.question()?;
        Some(AnswerKey {
            qname: q.qname().to_name(),
            qtype: q.qtype(),
            qclass: q.qclass(),
            rd: view.flags().rd,
            edns: view.edns(),
        })
    }
}

/// Default shard count: enough to keep 8 transport workers from serializing
/// on one mutex.
pub const DEFAULT_SHARDS: usize = 8;

/// Default per-shard entry cap. With [`DEFAULT_SHARDS`] shards this keeps
/// the historical 8,192-entry process total; reaching the cap clears that
/// shard only (stale generations dominate a full table, so wholesale
/// per-shard eviction is both simplest and correct).
pub const DEFAULT_SHARD_CAP: usize = 1_024;

/// Stable FNV-1a over the lowercased label bytes of `qname` (length-
/// prefixed, so `("ab","c")` and `("a","bc")` hash apart). Case-insensitive
/// to match DNS name equality: `WWW.example.com` and `www.example.com`
/// must land in the same shard.
fn qname_shard_hash(qname: &Name) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for label in qname.labels() {
        h ^= label.len() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        for &b in label.as_bytes() {
            h ^= b.to_ascii_lowercase() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One memo shard's slice of the entry space, keyed on
/// `(zone generation, key)`.
type Entries = HashMap<(u64, AnswerKey), Arc<Message>>;

/// An entry key as lookups see it: `(generation, &key)` borrows the
/// caller's key where an owned `(u64, AnswerKey)` would clone it (and
/// allocate every qname label) on each lookup. Hashes and compares exactly
/// like the owned tuple, as `Borrow` requires.
trait EntryKey {
    fn parts(&self) -> (u64, &AnswerKey);
}

impl EntryKey for (u64, AnswerKey) {
    fn parts(&self) -> (u64, &AnswerKey) {
        (self.0, &self.1)
    }
}

impl EntryKey for (u64, &AnswerKey) {
    fn parts(&self) -> (u64, &AnswerKey) {
        *self
    }
}

impl<'a> Borrow<dyn EntryKey + 'a> for (u64, AnswerKey) {
    fn borrow(&self) -> &(dyn EntryKey + 'a) {
        self
    }
}

impl Hash for dyn EntryKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn EntryKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn EntryKey + '_ {}

/// One zone's index slot: the generation it serves and the index, built
/// by whichever query reaches the slot first.
type IndexSlot = Arc<(u64, OnceLock<Arc<ZoneIndex>>)>;

/// Per-server answer memo, sharded by qname hash, plus the lazily built
/// per-generation zone indexes shared by every shard. Interior-mutable (the
/// server answers through `&self` from multiple transport threads).
///
/// Hits, misses and evictions are counted once, in the process-wide
/// `server.answer_memo.{lookups,hits,misses,evictions}` counters of the
/// [`ddx_obs`] registry. `lookups` counts every [`AnswerMemo::get`] call,
/// so `hits + misses == lookups` is an invariant a metrics snapshot can
/// check.
#[derive(Debug)]
pub struct AnswerMemo {
    shards: Vec<Mutex<Entries>>,
    /// Per-shard entry cap; a shard reaching it is cleared wholesale.
    shard_cap: usize,
    /// One index slot per zone apex, replaced when the zone's generation
    /// moves: a zone write costs one [`ZoneIndex::build`], whatever the
    /// shard or worker count.
    indexes: RwLock<HashMap<Name, IndexSlot>>,
    obs_lookups: ddx_obs::Counter,
    obs_hits: ddx_obs::Counter,
    obs_misses: ddx_obs::Counter,
    obs_evictions: ddx_obs::Counter,
}

impl Default for AnswerMemo {
    fn default() -> Self {
        AnswerMemo::with_config(DEFAULT_SHARDS, DEFAULT_SHARD_CAP)
    }
}

impl AnswerMemo {
    pub fn new() -> Self {
        AnswerMemo::default()
    }

    /// A memo with `shards` shards of at most `shard_cap` entries each.
    /// `shards` is clamped to at least 1.
    pub fn with_config(shards: usize, shard_cap: usize) -> Self {
        let shards = shards.max(1);
        AnswerMemo {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_cap: shard_cap.max(1),
            indexes: RwLock::default(),
            obs_lookups: ddx_obs::counter("server.answer_memo.lookups", &[]),
            obs_hits: ddx_obs::counter("server.answer_memo.hits", &[]),
            obs_misses: ddx_obs::counter("server.answer_memo.misses", &[]),
            obs_evictions: ddx_obs::counter("server.answer_memo.evictions", &[]),
        }
    }

    /// Number of shards this memo was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry cap this memo was built with.
    pub fn shard_cap(&self) -> usize {
        self.shard_cap
    }

    fn shard_index(&self, qname: &Name) -> usize {
        (qname_shard_hash(qname) % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, qname: &Name) -> MutexGuard<'_, Entries> {
        self.shards[self.shard_index(qname)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a cached response for `key` under zone generation
    /// `generation`, counting a hit or a miss.
    pub fn get(&self, generation: u64, key: &AnswerKey) -> Option<Arc<Message>> {
        self.obs_lookups.inc();
        let hit = self
            .shard_for(&key.qname)
            .get(&(generation, key) as &dyn EntryKey)
            .cloned();
        match &hit {
            Some(_) => self.obs_hits.inc(),
            None => self.obs_misses.inc(),
        }
        hit
    }

    /// Stores a freshly computed response in the qname's shard, flushing
    /// the shard first when it is at capacity (counted as evictions).
    pub fn insert(&self, generation: u64, key: AnswerKey, response: Arc<Message>) {
        let mut entries = self.shard_for(&key.qname);
        if entries.len() >= self.shard_cap {
            self.obs_evictions.add(entries.len() as u64);
            entries.clear();
        }
        entries.insert((generation, key), response);
    }

    /// The index for `zone`, rebuilt if the cached one belongs to another
    /// generation. Lookups share a read lock; a rebuild runs outside the map
    /// lock, in the zone's slot, so queries against other zones never wait
    /// on it and concurrent queries against the new generation share one
    /// build.
    pub fn index_for(&self, zone: &Zone) -> Arc<ZoneIndex> {
        let generation = zone.generation();
        let current = self
            .indexes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(zone.apex())
            .filter(|slot| slot.0 == generation)
            .cloned();
        let slot = current.unwrap_or_else(|| {
            let mut indexes = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
            let slot = indexes
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
    use ddx_dns::{name, RData, Record};

    fn key(qname: &str) -> AnswerKey {
        AnswerKey {
            qname: name(qname),
            qtype: RrType::A,
            qclass: RrClass::In,
            rd: false,
            edns: None,
        }
    }

    fn resp() -> Arc<Message> {
        Arc::new(Message::query(1, name("x.test"), RrType::A))
    }

    #[test]
    fn shard_hash_is_case_insensitive() {
        assert_eq!(
            qname_shard_hash(&name("WWW.Example.COM")),
            qname_shard_hash(&name("www.example.com"))
        );
        assert_ne!(
            qname_shard_hash(&name("a.example.com")),
            qname_shard_hash(&name("b.example.com"))
        );
    }

    #[test]
    fn miss_then_insert_then_hit_returns_the_stored_answer() {
        let memo = AnswerMemo::with_config(4, 64);
        for i in 0..32 {
            let k = key(&format!("q{i}.example.com"));
            assert!(memo.get(1, &k).is_none());
            let stored = resp();
            memo.insert(1, k.clone(), Arc::clone(&stored));
            let hit = memo.get(1, &k).expect("hit after insert");
            assert!(Arc::ptr_eq(&hit, &stored));
            // Another generation of the same zone never sees the entry.
            assert!(memo.get(2, &k).is_none());
        }
    }

    #[test]
    fn cap_flush_drops_the_full_shard_and_stays_local() {
        // One shard, cap 4: the fifth insert flushes the first four.
        let memo = AnswerMemo::with_config(1, 4);
        for i in 0..5 {
            memo.insert(1, key(&format!("q{i}.example.com")), resp());
        }
        // The freshly inserted fifth entry survived the flush.
        assert!(memo.get(1, &key("q4.example.com")).is_some());
        // Every pre-flush entry is gone (miss).
        for i in 0..4 {
            assert!(memo.get(1, &key(&format!("q{i}.example.com"))).is_none());
        }
    }

    #[test]
    fn one_index_per_zone_generation_across_shards() {
        let memo = AnswerMemo::with_config(8, 64);
        let (a, b) = (name("a.example.com"), name("b.example.com"));
        assert_ne!(memo.shard_index(&a), memo.shard_index(&b));
        let mut zone = Zone::new(name("example.com"));
        let for_a = memo.index_for(&zone);
        let for_b = memo.index_for(&zone);
        assert!(Arc::ptr_eq(&for_a, &for_b), "one build serves every shard");
        zone.add(Record::new(a, 300, RData::A([192, 0, 2, 1].into())));
        let fresh = memo.index_for(&zone);
        assert!(!Arc::ptr_eq(&for_a, &fresh), "a new generation rebuilds");
        assert!(Arc::ptr_eq(&fresh, &memo.index_for(&zone)));
        // Workers racing on the next generation all get its one build.
        zone.add(Record::new(b, 300, RData::A([192, 0, 2, 2].into())));
        let raced: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| memo.index_for(&zone))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(raced.iter().all(|idx| Arc::ptr_eq(idx, &raced[0])));
        assert!(!Arc::ptr_eq(&raced[0], &fresh));
    }

    #[test]
    fn same_qname_different_types_share_a_shard() {
        let memo = AnswerMemo::with_config(8, 64);
        let mut k1 = key("multi.example.com");
        let mut k2 = key("multi.example.com");
        k1.qtype = RrType::A;
        k2.qtype = RrType::Aaaa;
        memo.insert(1, k1, resp());
        memo.insert(1, k2, resp());
        let populated: Vec<_> = memo
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .collect();
        assert_eq!(populated.len(), 1, "one qname ⇒ one shard");
        assert_eq!(populated[0].lock().unwrap().len(), 2);
    }
}

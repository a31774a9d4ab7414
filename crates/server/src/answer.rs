//! Qname-sharded memo of encoded answers for
//! [`Server::respond_into`](crate::Server::respond_into), the entry point of
//! the UDP and TCP transports.
//!
//! The memo keys each encoded answer on everything the response bytes
//! depend on besides the zones (qname, qtype, qclass, the RD flag, and the
//! EDNS state carrying the DO bit), so an unchanged zone answers a repeated
//! query from the memo. Zones change only through
//! [`Server::zone_mut`](crate::Server::zone_mut) and
//! [`Server::load_zone`](crate::Server::load_zone), which take the server
//! mutably and empty the memo ([`AnswerMemo::clear`]): no transport reads
//! in between, and no answer of an earlier zone state outlives the write.
//!
//! A [`MemoKey`] is those fields laid out as bytes in a fixed-size stack
//! array, the qname lowercased, built straight from the query's wire view:
//! a lookup builds no name and allocates nothing. Answers are stored
//! encoded (`Arc<[u8]>`), so an eviction frees one buffer per entry. The
//! in-process query path keeps no answer memo: the DFixer loop's re-asked
//! questions are reused one layer up, per zone cut, by the probe/grok memo.
//!
//! # Admission
//!
//! A miss stores its answer only on the key's second sighting. A probe's
//! random sub-labels and absent types are asked once: storing them copies
//! the answer and boxes the key for an entry nobody reads, and fills the
//! shard until its cap flushes the answers that do repeat. So each shard
//! keeps a doorkeeper, a direct-mapped table of [`DOORKEEPER_SLOTS`]
//! fingerprints of whole keys (qname, type, class, flags and EDNS size,
//! so one name's many types do not admit each other). A miss whose slot
//! holds its fingerprint is admitted and stored; any other miss writes its
//! fingerprint into the slot and is answered without being stored. A
//! repeated question is stored on its second ask; a fresh one leaves only
//! a fingerprint, which the next key mapping to that slot overwrites.
//!
//! The table is small on purpose: it must forget a fresh name before the
//! name comes back, or a client cycling through more names than the memo
//! holds would be admitted on every second round. It lives under the
//! shard's mutex (the lookup and the admission take one lock), is
//! allocated on the shard's first miss (a server no transport queries
//! never pays for it), and outlives [`AnswerMemo::clear`]: after a zone
//! write, the first miss of a key seen before is stored again at once.
//!
//! # Sharding
//!
//! The memo is split into [`SHARDS`] independent shards, selected by
//! [`ddx_obs::fnv1a`] over the key's lowercased qname bytes. Each shard
//! owns its own entry map, so transport workers hammering one server from
//! many threads contend only when two in-flight queries hash to the same
//! shard. Entries for one qname always land in one shard (the hash ignores
//! qtype/DO), which makes the clear-at-cap eviction local: a hot shard
//! flushing does not dump the whole process's working set.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ddx_dns::MessageView;
use ddx_obs::{fnv1a, FNV_OFFSET};

/// Shard count: enough to keep 8 transport workers from serializing on one
/// mutex.
const SHARDS: usize = 8;

/// Per-shard entry cap. With [`SHARDS`] shards this keeps the historical
/// 8,192-entry process total; reaching the cap clears that shard only
/// (wholesale per-shard eviction is both simplest and correct).
const SHARD_CAP: usize = 1_024;

/// Doorkeeper fingerprints per shard, a power of two. Small enough that a
/// fresh key's slot is overwritten long before the key comes back: a shard
/// sees ~20,000 other fresh keys between repeats of a name in a
/// 2^18-datagram cycle of random names, which leaves a fingerprint a
/// survival chance of e^-19 at 1,024 slots.
const DOORKEEPER_SLOTS: usize = 1 << DOORKEEPER_BITS;
const DOORKEEPER_BITS: u32 = 10;

/// Longest wire name, terminator included (RFC 1035 §2.3.4).
const MAX_QNAME: usize = 255;

/// Key bytes before the qname: qtype (2), qclass (2), a flag byte (RD,
/// EDNS present, DO) and the EDNS payload size (2).
const HEADER: usize = 7;

/// Everything (besides the zone content and the server behavior, both
/// handled outside the memo) that the bytes of a response depend on —
/// except the message id and the qname's letter case, which
/// [`Server::respond_into`](crate::Server::respond_into) stamps into every
/// answer.
pub(crate) struct MemoKey {
    bytes: [u8; HEADER + MAX_QNAME],
    len: usize,
}

impl MemoKey {
    /// The key of a query view; `None` when the query has no question.
    pub(crate) fn new(view: &MessageView<'_>) -> Option<MemoKey> {
        let q = view.question()?;
        let edns = view.edns();
        let mut bytes = [0; HEADER + MAX_QNAME];
        bytes[..2].copy_from_slice(&q.qtype().code().to_be_bytes());
        bytes[2..4].copy_from_slice(&q.qclass().code().to_be_bytes());
        bytes[4] = u8::from(view.flags().rd)
            | u8::from(edns.is_some()) << 1
            | u8::from(edns.is_some_and(|e| e.dnssec_ok)) << 2;
        bytes[5..7].copy_from_slice(&edns.map_or(0, |e| e.udp_size).to_be_bytes());
        let mut len = HEADER;
        for label in q.qname().labels() {
            bytes[len] = label.len() as u8;
            for (dst, b) in bytes[len + 1..].iter_mut().zip(label) {
                *dst = b.to_ascii_lowercase();
            }
            len += 1 + label.len();
        }
        // The root terminator is the array's zero fill.
        Some(MemoKey {
            bytes,
            len: len + 1,
        })
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The lowercased wire qname, terminator included.
    fn qname(&self) -> &[u8] {
        &self.bytes[HEADER..self.len]
    }

    fn shard(&self) -> usize {
        (fnv1a(FNV_OFFSET, self.qname()) % SHARDS as u64) as usize
    }

    /// The doorkeeper's fingerprint of the whole key: never 0, the empty
    /// slot.
    fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.as_bytes()) | 1
    }
}

/// The doorkeeper slot of a fingerprint: its top bits after a Fibonacci
/// multiply, which spreads FNV-1a's weak low bits.
fn doorkeeper_slot(fingerprint: u64) -> usize {
    (fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DOORKEEPER_BITS)) as usize
}

/// One shard: encoded answers by [`MemoKey`] bytes, and the doorkeeper
/// that admits a key on its second miss.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Box<[u8]>, Arc<[u8]>>,
    /// Allocated on the shard's first miss.
    doorkeeper: Option<Box<[u64; DOORKEEPER_SLOTS]>>,
}

impl Shard {
    /// Records a miss of the key with `fingerprint`; whether its slot
    /// already held it (the key was seen before).
    fn seen_before(&mut self, fingerprint: u64) -> bool {
        let slots = self
            .doorkeeper
            .get_or_insert_with(|| Box::new([0; DOORKEEPER_SLOTS]));
        std::mem::replace(&mut slots[doorkeeper_slot(fingerprint)], fingerprint) == fingerprint
    }
}

/// What [`AnswerMemo::get`] found for a key.
#[derive(Debug)]
pub(crate) enum MemoLookup {
    /// The stored answer.
    Hit(Arc<[u8]>),
    /// No stored answer. `admit` says whether the key was seen before,
    /// so the answer the caller resolves should be stored.
    Miss { admit: bool },
}

/// Per-server memo of encoded answers, sharded by qname hash, admitting a
/// key on its second miss. Interior-mutable (the server answers through
/// `&self` from multiple transport threads).
///
/// Hits, misses and evictions are counted once, in the process-wide
/// `server.answer_memo.{lookups,hits,misses,evictions}` counters of the
/// [`ddx_obs`] registry, which every memo of the process shares. `lookups`
/// counts every [`AnswerMemo::get`] call, so `hits + misses == lookups` is
/// an invariant a metrics snapshot can check.
#[derive(Debug)]
pub(crate) struct AnswerMemo {
    shards: [Mutex<Shard>; SHARDS],
    obs_lookups: ddx_obs::Counter,
    obs_hits: ddx_obs::Counter,
    obs_misses: ddx_obs::Counter,
    obs_evictions: ddx_obs::Counter,
}

impl AnswerMemo {
    pub(crate) fn new() -> Self {
        AnswerMemo {
            shards: std::array::from_fn(|_| Mutex::default()),
            obs_lookups: ddx_obs::counter("server.answer_memo.lookups", &[]),
            obs_hits: ddx_obs::counter("server.answer_memo.hits", &[]),
            obs_misses: ddx_obs::counter("server.answer_memo.misses", &[]),
            obs_evictions: ddx_obs::counter("server.answer_memo.evictions", &[]),
        }
    }

    fn shard(&self, key: &MemoKey) -> MutexGuard<'_, Shard> {
        self.shards[key.shard()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores a freshly encoded answer in the qname's shard, flushing the
    /// shard first when it is at capacity (counted as evictions). Called
    /// for a miss that [`AnswerMemo::get`] admitted.
    pub(crate) fn insert(&self, key: &MemoKey, value: Arc<[u8]>) {
        let entries = &mut self.shard(key).entries;
        if entries.len() >= SHARD_CAP {
            self.obs_evictions.add(entries.len() as u64);
            entries.clear();
        }
        entries.insert(Box::from(key.as_bytes()), value);
    }

    /// Drops every entry (counted as evictions): the server's zones are
    /// about to change. The doorkeepers stay, so keys seen before are
    /// stored again on their next miss.
    pub(crate) fn clear(&mut self) {
        for shard in &mut self.shards {
            let entries = &mut shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .entries;
            self.obs_evictions.add(entries.len() as u64);
            entries.clear();
        }
    }

    /// Looks up the answer encoded for `key`, counting a hit or a miss;
    /// a miss is recorded in the shard's doorkeeper under the same lock.
    pub(crate) fn get(&self, key: &MemoKey) -> MemoLookup {
        self.obs_lookups.inc();
        let lookup = {
            let mut shard = self.shard(key);
            match shard.entries.get(key.as_bytes()) {
                Some(full) => MemoLookup::Hit(Arc::clone(full)),
                None => MemoLookup::Miss {
                    admit: shard.seen_before(key.fingerprint()),
                },
            }
        };
        match &lookup {
            MemoLookup::Hit(_) => self.obs_hits.inc(),
            MemoLookup::Miss { .. } => self.obs_misses.inc(),
        }
        lookup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, wire, Edns, Message, RrClass, RrType};

    /// The key of a plain-DNS `qname`/A query, edited by `edit` first.
    fn key_with(qname: &str, edit: impl FnOnce(&mut Message)) -> MemoKey {
        let mut q = Message::query(9, name(qname), RrType::A);
        q.edns = None;
        edit(&mut q);
        let bytes = wire::encode(&q);
        MemoKey::new(&MessageView::parse(&bytes).unwrap()).unwrap()
    }

    fn key(qname: &str) -> MemoKey {
        key_with(qname, |_| {})
    }

    fn answer(tag: &str) -> Arc<[u8]> {
        Arc::from(tag.as_bytes())
    }

    /// The stored answer for `k`, if any (a miss is recorded as a
    /// sighting).
    fn hit(memo: &AnswerMemo, k: &MemoKey) -> Option<Arc<[u8]>> {
        match memo.get(k) {
            MemoLookup::Hit(full) => Some(full),
            MemoLookup::Miss { .. } => None,
        }
    }

    /// Asks `k` as [`Server::respond_into`](crate::Server::respond_into)
    /// does, storing `tag` on an admitted miss: "hit", "stored" (an
    /// admitted miss) or "passed" (a miss that stores nothing).
    fn ask(memo: &AnswerMemo, k: &MemoKey, tag: &str) -> &'static str {
        match memo.get(k) {
            MemoLookup::Hit(_) => "hit",
            MemoLookup::Miss { admit: true } => {
                memo.insert(k, answer(tag));
                "stored"
            }
            MemoLookup::Miss { admit: false } => "passed",
        }
    }

    /// The number of entries stored in each shard.
    fn stored(memo: &AnswerMemo) -> Vec<usize> {
        let len = |s: &Mutex<Shard>| s.lock().unwrap().entries.len();
        memo.shards.iter().map(len).collect()
    }

    #[test]
    fn shard_hash_is_case_insensitive() {
        let hash = |qname| fnv1a(FNV_OFFSET, key(qname).qname());
        assert_eq!(hash("WWW.Example.COM"), hash("www.example.com"));
        assert_ne!(hash("a.example.com"), hash("b.example.com"));
    }

    #[test]
    fn keys_ignore_qname_case_and_nothing_else() {
        assert_eq!(
            key("WWW.Example.COM").as_bytes(),
            key("www.example.com").as_bytes()
        );
        let edns = |udp_size, dnssec_ok| {
            Some(Edns {
                udp_size,
                dnssec_ok,
            })
        };
        let keys = [
            key("www.example.com"),
            key("ww.example.com"),
            key_with("www.example.com", |q| {
                q.question.as_mut().unwrap().qtype = RrType::Aaaa
            }),
            key_with("www.example.com", |q| {
                q.question.as_mut().unwrap().qclass = RrClass::from_code(3)
            }),
            key_with("www.example.com", |q| q.flags.rd = !q.flags.rd),
            key_with("www.example.com", |q| q.edns = edns(512, false)),
            key_with("www.example.com", |q| q.edns = edns(512, true)),
            key_with("www.example.com", |q| q.edns = edns(1232, true)),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.as_bytes(), b.as_bytes());
            }
        }
    }

    #[test]
    fn miss_then_insert_then_hit_returns_the_stored_answer() {
        let memo = AnswerMemo::new();
        for i in 0..32 {
            let qname = format!("q{i}.example.com");
            let k = key(&qname);
            assert!(hit(&memo, &k).is_none());
            let stored = answer(&format!("a{i}"));
            memo.insert(&k, Arc::clone(&stored));
            let found = hit(&memo, &k).expect("hit after insert");
            assert!(Arc::ptr_eq(&found, &stored));
            // Another spelling of the same question hits the same entry.
            let shouted = hit(&memo, &key(&qname.to_uppercase())).expect("hit");
            assert!(Arc::ptr_eq(&shouted, &stored));
        }
    }

    #[test]
    fn clear_empties_every_shard_as_evictions() {
        let evictions = ddx_obs::counter("server.answer_memo.evictions", &[]);
        let mut memo = AnswerMemo::new();
        let keys: Vec<MemoKey> = (0..64).map(|i| key(&format!("q{i}.example.com"))).collect();
        for k in &keys {
            memo.insert(k, answer("a"));
        }
        let before = evictions.get();
        memo.clear();
        // Other tests in this process may also evict, so the delta is a
        // lower bound.
        assert!(evictions.get() - before >= keys.len() as u64);
        for k in &keys {
            assert!(hit(&memo, k).is_none());
        }
    }

    #[test]
    fn cap_flush_drops_the_full_shard_and_stays_local() {
        let memo = AnswerMemo::new();
        // An entry in another shard, which no flush of shard 0 may touch.
        let bystander = (0..)
            .map(|i| key(&format!("b{i}.example.com")))
            .find(|k| k.shard() != 0)
            .unwrap();
        memo.insert(&bystander, answer("bystander"));
        // SHARD_CAP + 1 names of shard 0: the last insert flushes the rest.
        let keys: Vec<MemoKey> = (0..)
            .map(|i| key(&format!("q{i}.example.com")))
            .filter(|k| k.shard() == 0)
            .take(SHARD_CAP + 1)
            .collect();
        for k in &keys {
            memo.insert(k, answer("full"));
        }
        // The freshly inserted last entry survived the flush.
        assert!(hit(&memo, &keys[SHARD_CAP]).is_some());
        // Every pre-flush entry is gone (miss).
        for k in &keys[..SHARD_CAP] {
            assert!(hit(&memo, k).is_none());
        }
        assert!(hit(&memo, &bystander).is_some(), "flush stays local");
    }

    #[test]
    fn same_qname_different_types_share_a_shard() {
        let memo = AnswerMemo::new();
        memo.insert(&key("multi.example.com"), answer("a"));
        memo.insert(
            &key_with("MULTI.example.com", |q| {
                q.question.as_mut().unwrap().qtype = RrType::Aaaa
            }),
            answer("aaaa"),
        );
        let populated: Vec<usize> = stored(&memo).into_iter().filter(|&n| n > 0).collect();
        assert_eq!(populated, [2], "one qname ⇒ one shard");
    }

    #[test]
    fn a_first_sighting_stores_nothing_and_the_second_stores() {
        let memo = AnswerMemo::new();
        let doorkeepers = |memo: &AnswerMemo| {
            let has = |s: &Mutex<Shard>| s.lock().unwrap().doorkeeper.is_some();
            memo.shards.iter().filter(|s| has(s)).count()
        };
        assert_eq!(doorkeepers(&memo), 0);
        let k = key("twice.example.com");
        assert_eq!(ask(&memo, &k, "a"), "passed");
        assert_eq!(stored(&memo), [0; SHARDS]);
        assert_eq!(doorkeepers(&memo), 1, "allocated on the shard's first miss");
        assert_eq!(ask(&memo, &k, "a"), "stored");
        assert_eq!(stored(&memo)[k.shard()], 1);
        assert_eq!(ask(&memo, &k, "a"), "hit");
        // Another type of the same name is a key of its own.
        let aaaa = key_with("twice.example.com", |q| {
            q.question.as_mut().unwrap().qtype = RrType::Aaaa
        });
        assert_eq!(ask(&memo, &aaaa, "aaaa"), "passed");
    }

    #[test]
    fn a_key_seen_before_is_admitted_on_its_first_miss_after_clear() {
        let mut memo = AnswerMemo::new();
        let k = key("kept.example.com");
        assert_eq!(ask(&memo, &k, "a"), "passed");
        assert_eq!(ask(&memo, &k, "a"), "stored");
        memo.clear();
        assert_eq!(ask(&memo, &k, "b"), "stored");
        assert_eq!(&*hit(&memo, &k).expect("stored again"), b"b");
    }

    #[test]
    fn keys_asked_once_store_nothing_and_evict_nothing() {
        let memo = AnswerMemo::new();
        for i in 0..100_000 {
            let k = key(&format!("x{i:x}.example.com"));
            assert_eq!(ask(&memo, &k, "a"), "passed", "key {i}");
        }
        // An eviction happens only when an insert meets a full shard (or on
        // `clear`), and the insert's own entry stays: empty shards mean no
        // insert, so no eviction.
        assert_eq!(stored(&memo), [0; SHARDS]);
    }

    #[test]
    fn a_key_whose_slot_another_key_took_is_not_stored_on_its_next_miss() {
        let memo = AnswerMemo::new();
        let first = key("first.example.com");
        let slot = |k: &MemoKey| (k.shard(), doorkeeper_slot(k.fingerprint()));
        let rival = (0..)
            .map(|i| key(&format!("r{i}.example.com")))
            .find(|k| slot(k) == slot(&first))
            .unwrap();
        assert_ne!(rival.fingerprint(), first.fingerprint());
        assert_eq!(ask(&memo, &first, "first"), "passed");
        assert_eq!(ask(&memo, &rival, "rival"), "passed");
        assert_eq!(ask(&memo, &first, "first"), "passed");
        assert_eq!(stored(&memo), [0; SHARDS]);
        // That miss took the slot back, so the next one is admitted.
        assert_eq!(ask(&memo, &first, "first"), "stored");
        assert_eq!(ask(&memo, &rival, "rival"), "passed");
    }
}

//! Generation-stamped, qname-sharded memo of encoded answers for
//! [`Server::respond_into`](crate::Server::respond_into), the entry point of
//! the UDP and TCP transports.
//!
//! The memo keys each encoded answer on the serving zone's
//! [`generation`](ddx_dns::Zone::generation) stamp plus everything the
//! response bytes depend on (qname, qtype, qclass, the RD flag, and the
//! EDNS state carrying the DO bit), so an unchanged zone answers a repeated
//! query from the memo. Any zone mutation draws a fresh generation, which
//! makes every old entry unreachable — invalidation is implicit in the key.
//!
//! Answers are stored encoded (`Arc<[u8]>`) and probed with a [`WireKey`]
//! borrowed from the query's wire view, so a hit builds no name and an
//! eviction frees one buffer per entry. The in-process query path keeps no
//! answer memo: the DFixer loop's re-asked questions are reused one layer
//! up, per zone cut, by the probe/grok memo.
//!
//! # Sharding
//!
//! The memo is split into [`SHARDS`] independent shards, selected by an
//! FNV-1a hash of the query name's lowercased label bytes. Each shard owns
//! its own entry map, so transport workers hammering one server from many
//! threads contend only when two in-flight queries hash to the same shard.
//! Entries for one qname always land in one shard (the hash ignores
//! qtype/DO), which makes the clear-at-cap eviction local: a hot shard
//! flushing does not dump the whole process's working set.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ddx_dns::{Edns, Message, MessageView, Name, NameRef, RrClass, RrType};

/// Everything (besides the zone content and the server behavior, both
/// handled outside the memo) that the bytes of a response depend on —
/// except the message id, which the transport stamps into every answer.
///
/// Also the per-server key half of [`CachingNetwork`](crate::CachingNetwork),
/// so client- and server-side caches agree on what identifies a question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct AnswerKey {
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
    pub(crate) fn for_query(query: &Message) -> Option<AnswerKey> {
        let q = query.question.as_ref()?;
        Some(AnswerKey {
            qname: q.qname.clone(),
            qtype: q.qtype,
            qclass: q.qclass,
            rd: query.flags.rd,
            edns: query.edns,
        })
    }
}

/// An [`AnswerKey`] whose qname stays in the query's wire bytes: built from
/// a [`MessageView`] without allocating, and the same memo key as the
/// `AnswerKey` that [`WireKey::to_key`] builds — which equals what
/// [`AnswerKey::for_query`] builds for the decoded message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireKey<'buf> {
    pub qname: NameRef<'buf>,
    pub qtype: RrType,
    pub qclass: RrClass,
    pub rd: bool,
    pub edns: Option<Edns>,
}

impl<'buf> WireKey<'buf> {
    /// The key of a query view; `None` when it has no question.
    pub(crate) fn from_view(view: &MessageView<'buf>) -> Option<WireKey<'buf>> {
        let q = view.question()?;
        Some(WireKey {
            qname: q.qname(),
            qtype: q.qtype(),
            qclass: q.qclass(),
            rd: view.flags().rd,
            edns: view.edns(),
        })
    }

    /// The owned key (allocates the qname).
    pub(crate) fn to_key(self) -> AnswerKey {
        AnswerKey {
            qname: self.qname.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
            rd: self.rd,
            edns: self.edns,
        }
    }
}

/// Shard count: enough to keep 8 transport workers from serializing on one
/// mutex.
const SHARDS: usize = 8;

/// Per-shard entry cap. With [`SHARDS`] shards this keeps the historical
/// 8,192-entry process total; reaching the cap clears that shard only
/// (stale generations dominate a full table, so wholesale per-shard
/// eviction is both simplest and correct).
const SHARD_CAP: usize = 1_024;

/// Stable FNV-1a over the lowercased label bytes of a qname (length-
/// prefixed, so `("ab","c")` and `("a","bc")` hash apart). Case-insensitive
/// to match DNS name equality: `WWW.example.com` and `www.example.com`
/// must land in the same shard.
fn qname_shard_hash<'a>(labels: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for label in labels {
        h ^= label.len() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        for &b in label {
            h ^= b.to_ascii_lowercase() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A key's qname: owned, or still in a query's wire bytes.
#[derive(Debug, Clone, Copy)]
enum Qname<'a> {
    Owned(&'a Name),
    Wire(NameRef<'a>),
}

impl Qname<'_> {
    fn shard_hash(self) -> u64 {
        match self {
            Qname::Owned(name) => qname_shard_hash(name.labels().iter().map(|l| l.as_bytes())),
            Qname::Wire(name) => qname_shard_hash(name.labels()),
        }
    }
}

impl PartialEq for Qname<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Qname::Owned(a), Qname::Owned(b)) => a == b,
            (Qname::Wire(a), Qname::Wire(b)) => a == b,
            (Qname::Owned(a), Qname::Wire(b)) | (Qname::Wire(b), Qname::Owned(a)) => b.eq_name(a),
        }
    }
}

impl Hash for Qname<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A `NameRef` hashes exactly like the `Name` it spells.
        match self {
            Qname::Owned(name) => name.hash(state),
            Qname::Wire(name) => name.hash(state),
        }
    }
}

/// What a memo entry is keyed on, borrowed: `(generation, key)` with the
/// qname either owned or on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
struct Parts<'a> {
    generation: u64,
    qname: Qname<'a>,
    qtype: RrType,
    qclass: RrClass,
    rd: bool,
    edns: Option<Edns>,
}

impl<'a> Parts<'a> {
    fn owned(generation: u64, key: &'a AnswerKey) -> Self {
        Parts {
            generation,
            qname: Qname::Owned(&key.qname),
            qtype: key.qtype,
            qclass: key.qclass,
            rd: key.rd,
            edns: key.edns,
        }
    }

    fn wire(generation: u64, key: &WireKey<'a>) -> Self {
        Parts {
            generation,
            qname: Qname::Wire(key.qname),
            qtype: key.qtype,
            qclass: key.qclass,
            rd: key.rd,
            edns: key.edns,
        }
    }
}

/// A memo key as the shard maps see it: the owned key an entry is stored
/// under, or the borrowed [`Parts`] a lookup probes with. Both hash and
/// compare through [`EntryKey::parts`], so they agree by construction, as
/// `Borrow` requires, and a probe clones nothing.
trait EntryKey {
    fn parts(&self) -> Parts<'_>;
}

impl EntryKey for Parts<'_> {
    fn parts(&self) -> Parts<'_> {
        *self
    }
}

/// The owned key of a stored entry.
#[derive(Debug)]
struct Stored {
    generation: u64,
    key: AnswerKey,
}

impl EntryKey for Stored {
    fn parts(&self) -> Parts<'_> {
        Parts::owned(self.generation, &self.key)
    }
}

impl<'a> Borrow<dyn EntryKey + 'a> for Stored {
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

impl Hash for Stored {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for Stored {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for Stored {}

/// Per-server memo of encoded answers, sharded by qname hash.
/// Interior-mutable (the server answers through `&self` from multiple
/// transport threads).
///
/// Hits, misses and evictions are counted once, in the process-wide
/// `server.answer_memo.{lookups,hits,misses,evictions}` counters of the
/// [`ddx_obs`] registry, which every memo of the process shares. `lookups`
/// counts every [`AnswerMemo::get_wire`] call, so `hits + misses ==
/// lookups` is an invariant a metrics snapshot can check.
#[derive(Debug)]
pub(crate) struct AnswerMemo {
    shards: [Mutex<HashMap<Stored, Arc<[u8]>>>; SHARDS],
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

    fn shard(&self, qname: Qname<'_>) -> MutexGuard<'_, HashMap<Stored, Arc<[u8]>>> {
        self.shards[(qname.shard_hash() % SHARDS as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores a freshly encoded answer in the qname's shard, flushing the
    /// shard first when it is at capacity (counted as evictions).
    pub(crate) fn insert(&self, generation: u64, key: AnswerKey, value: Arc<[u8]>) {
        let mut entries = self.shard(Qname::Owned(&key.qname));
        if entries.len() >= SHARD_CAP {
            self.obs_evictions.add(entries.len() as u64);
            entries.clear();
        }
        entries.insert(Stored { generation, key }, value);
    }

    /// Looks up the answer encoded for `key` under zone generation
    /// `generation`, counting a hit or a miss. The key stays in the query's
    /// wire bytes, so the probe allocates nothing.
    pub(crate) fn get_wire(&self, generation: u64, key: &WireKey<'_>) -> Option<Arc<[u8]>> {
        self.obs_lookups.inc();
        let parts = Parts::wire(generation, key);
        let hit = self
            .shard(parts.qname)
            .get(&parts as &dyn EntryKey)
            .cloned();
        match &hit {
            Some(_) => self.obs_hits.inc(),
            None => self.obs_misses.inc(),
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, wire};

    fn key(qname: &str) -> AnswerKey {
        AnswerKey {
            qname: name(qname),
            qtype: RrType::A,
            qclass: RrClass::In,
            rd: false,
            edns: None,
        }
    }

    fn answer(tag: &str) -> Arc<[u8]> {
        Arc::from(tag.as_bytes())
    }

    /// Looks `key` up the way the transports do: from a parsed query.
    fn probe(memo: &AnswerMemo, generation: u64, key: &AnswerKey) -> Option<Arc<[u8]>> {
        let mut q = Message::query(9, key.qname.clone(), key.qtype);
        q.flags.rd = key.rd;
        q.edns = key.edns;
        let bytes = wire::encode(&q);
        let view = MessageView::parse(&bytes).unwrap();
        memo.get_wire(generation, &WireKey::from_view(&view).unwrap())
    }

    fn shard_hash(qname: &str) -> u64 {
        Qname::Owned(&name(qname)).shard_hash()
    }

    fn shard_of(key: &AnswerKey) -> u64 {
        Qname::Owned(&key.qname).shard_hash() % SHARDS as u64
    }

    #[test]
    fn shard_hash_is_case_insensitive() {
        assert_eq!(shard_hash("WWW.Example.COM"), shard_hash("www.example.com"));
        assert_ne!(shard_hash("a.example.com"), shard_hash("b.example.com"));
    }

    #[test]
    fn miss_then_insert_then_hit_returns_the_stored_answer() {
        let memo = AnswerMemo::new();
        for i in 0..32 {
            let k = key(&format!("q{i}.example.com"));
            assert!(probe(&memo, 1, &k).is_none());
            let stored = answer(&format!("a{i}"));
            memo.insert(1, k.clone(), Arc::clone(&stored));
            let hit = probe(&memo, 1, &k).expect("hit after insert");
            assert!(Arc::ptr_eq(&hit, &stored));
            // Another generation of the same zone never sees the entry.
            assert!(probe(&memo, 2, &k).is_none());
        }
    }

    #[test]
    fn wire_key_probes_find_the_owned_entry() {
        let memo = AnswerMemo::new();
        let stored = answer("answer");
        memo.insert(3, key("www.example.com"), Arc::clone(&stored));
        for (qname, qtype, hit) in [
            ("WWW.Example.com", RrType::A, true),
            ("www.example.com", RrType::Aaaa, false),
            ("ww.example.com", RrType::A, false),
        ] {
            let mut q = Message::query(9, name(qname), qtype);
            q.edns = None;
            let bytes = wire::encode(&q);
            let view = MessageView::parse(&bytes).unwrap();
            let wire_key = WireKey::from_view(&view).unwrap();
            assert_eq!(wire_key.to_key(), AnswerKey::for_query(&q).unwrap());
            let got = memo.get_wire(3, &wire_key);
            assert_eq!(got.is_some(), hit, "{qname}/{qtype:?}");
            assert!(got.is_none_or(|v| Arc::ptr_eq(&v, &stored)));
            assert!(memo.get_wire(4, &wire_key).is_none(), "other generation");
        }
    }

    #[test]
    fn cap_flush_drops_the_full_shard_and_stays_local() {
        let memo = AnswerMemo::new();
        // An entry in another shard, which no flush of shard 0 may touch.
        let bystander = (0..)
            .map(|i| key(&format!("b{i}.example.com")))
            .find(|k| shard_of(k) != 0)
            .unwrap();
        memo.insert(1, bystander.clone(), answer("bystander"));
        // SHARD_CAP + 1 names of shard 0: the last insert flushes the rest.
        let names: Vec<AnswerKey> = (0..)
            .map(|i| key(&format!("q{i}.example.com")))
            .filter(|k| shard_of(k) == 0)
            .take(SHARD_CAP + 1)
            .collect();
        for k in &names {
            memo.insert(1, k.clone(), answer("full"));
        }
        // The freshly inserted last entry survived the flush.
        assert!(probe(&memo, 1, &names[SHARD_CAP]).is_some());
        // Every pre-flush entry is gone (miss).
        for k in &names[..SHARD_CAP] {
            assert!(probe(&memo, 1, k).is_none(), "{}", k.qname);
        }
        assert!(probe(&memo, 1, &bystander).is_some(), "flush stays local");
    }

    #[test]
    fn same_qname_different_types_share_a_shard() {
        let memo = AnswerMemo::new();
        let mut k1 = key("multi.example.com");
        let mut k2 = key("multi.example.com");
        k1.qtype = RrType::A;
        k2.qtype = RrType::Aaaa;
        memo.insert(1, k1, answer("a"));
        memo.insert(1, k2, answer("aaaa"));
        let populated: Vec<_> = memo
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .collect();
        assert_eq!(populated.len(), 1, "one qname ⇒ one shard");
        assert_eq!(populated[0].lock().unwrap().len(), 2);
    }
}

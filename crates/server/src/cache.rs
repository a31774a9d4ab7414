//! A TTL-respecting answer cache wrapped around any [`Network`] — the
//! client-side reality behind DFixer's *"wait at least one full TTL for the
//! removed DS record to expire from the cache of any validator"* step
//! (paper Fig 8 step 5): until cached delegation material expires,
//! validators keep judging the zone by its *old* state.
//!
//! Entries are keyed on the server asked, the question, RD and the EDNS
//! state, and hold the upstream's `Arc<Message>` answers; the server-side
//! memo of [`crate::answer`] keys encoded answers on wire bytes instead.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use ddx_dns::{Edns, Message, Name, RrClass, RrType};

use crate::server::ServerId;
use crate::testbed::Network;

/// Cache key: which server was asked what — the question plus the query
/// state the answer echoes (RD, and EDNS with the DO bit that selects
/// DNSSEC records).
#[derive(PartialEq, Eq, Hash)]
struct Key {
    server: ServerId,
    qname: Name,
    qtype: RrType,
    qclass: RrClass,
    rd: bool,
    edns: Option<Edns>,
}

impl Key {
    /// `None` for a question-less query, which is never cached.
    fn new(server: &ServerId, query: &Message) -> Option<Key> {
        let q = query.question.as_ref()?;
        Some(Key {
            server: server.clone(),
            qname: q.qname.clone(),
            qtype: q.qtype,
            qclass: q.qclass,
            rd: query.flags.rd,
            edns: query.edns,
        })
    }
}

struct Entry {
    expires_at: u32,
    response: Arc<Message>,
}

/// A caching view over an upstream network. The clock is external: set
/// [`CachingNetwork::set_now`] before issuing queries (probe timestamps and
/// cache expiry share the simulation clock).
pub struct CachingNetwork<'a> {
    upstream: &'a dyn Network,
    now: Cell<u32>,
    entries: RefCell<HashMap<Key, Entry>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> CachingNetwork<'a> {
    pub fn new(upstream: &'a dyn Network, now: u32) -> Self {
        CachingNetwork {
            upstream,
            now: Cell::new(now),
            entries: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Advances (or rewinds) the cache clock.
    pub fn set_now(&self, now: u32) {
        self.now.set(now);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Drops every cached entry (`rndc flush` for the client side).
    pub fn flush(&self) {
        self.entries.borrow_mut().clear();
    }

    /// The TTL a response is cacheable for: the minimum record TTL across
    /// sections, or the SOA minimum for empty (negative) answers
    /// (RFC 2308 §5), capped at one day.
    fn cache_ttl(response: &Message) -> u32 {
        let min_ttl = response
            .answers
            .iter()
            .chain(&response.authorities)
            .map(|r| r.ttl)
            .min();
        min_ttl.unwrap_or(60).clamp(1, 86_400)
    }
}

impl Network for CachingNetwork<'_> {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>> {
        let key = Key::new(server, query)?;
        let now = self.now.get();
        if let Some(entry) = self.entries.borrow().get(&key) {
            if now < entry.expires_at {
                self.hits.set(self.hits.get() + 1);
                // Echo the query id like a resolver would; when it already
                // matches, the hit is a pointer bump.
                if entry.response.id == query.id {
                    return Some(Arc::clone(&entry.response));
                }
                let mut resp = (*entry.response).clone();
                resp.id = query.id;
                return Some(Arc::new(resp));
            }
        }
        self.misses.set(self.misses.get() + 1);
        let response = self.upstream.query(server, query)?;
        let ttl = Self::cache_ttl(&response);
        self.entries.borrow_mut().insert(
            key,
            Entry {
                expires_at: now.saturating_add(ttl),
                response: Arc::clone(&response),
            },
        );
        Some(response)
    }

    fn resolve_ns(&self, host: &Name) -> Option<ServerId> {
        self.upstream.resolve_ns(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sandbox::{build_sandbox, ZoneSpec};
    use ddx_dns::{name, RrType};

    const NOW: u32 = 1_000_000;

    #[test]
    fn second_query_is_served_from_cache() {
        let sb = build_sandbox(&[ZoneSpec::conventional(name("c.test"))], NOW, 41);
        let cache = CachingNetwork::new(&sb.testbed, NOW);
        let sid = sb.zones[0].servers[0].clone();
        let q = Message::query(1, name("www.c.test"), RrType::A);
        let r1 = cache.query(&sid, &q).unwrap();
        let q2 = Message::query(2, name("www.c.test"), RrType::A);
        let r2 = cache.query(&sid, &q2).unwrap();
        assert_eq!(r2.id, 2, "cached responses echo the query id");
        assert_eq!(r1.answers, r2.answers);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn stale_entries_expire_with_the_clock() {
        let sb = build_sandbox(&[ZoneSpec::conventional(name("c.test"))], NOW, 42);
        let cache = CachingNetwork::new(&sb.testbed, NOW);
        let sid = sb.zones[0].servers[0].clone();
        let q = Message::query(1, name("www.c.test"), RrType::A);
        cache.query(&sid, &q).unwrap();
        // www TTL is 300: at +299 cached, at +301 refetched.
        cache.set_now(NOW + 299);
        cache.query(&sid, &q).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        cache.set_now(NOW + 301);
        cache.query(&sid, &q).unwrap();
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn flush_clears_everything() {
        let sb = build_sandbox(&[ZoneSpec::conventional(name("c.test"))], NOW, 43);
        let cache = CachingNetwork::new(&sb.testbed, NOW);
        let sid = sb.zones[0].servers[0].clone();
        let q = Message::query(1, name("www.c.test"), RrType::A);
        cache.query(&sid, &q).unwrap();
        cache.flush();
        cache.query(&sid, &q).unwrap();
        assert_eq!(cache.stats(), (0, 2));
    }
}

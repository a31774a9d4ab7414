//! The local testbed: a registry of authoritative servers plus the
//! NS-hostname → server mapping a prober needs to walk delegations, and the
//! [`Network`] abstraction over "send this server a query".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ddx_dns::{Message, Name};
use ddx_obs::{fnv1a, FNV_OFFSET};

use crate::server::{Server, ServerId};

/// Process-global stamp source for testbed *topology* changes (server set,
/// NS-host registrations) — the structural counterpart of the per-zone
/// content generations in `ddx_dns::Zone`. Monotonic, never reused.
static TOPOLOGY_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_topology_generation() -> u64 {
    TOPOLOGY_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Cheap change detection over the zones behind a [`Network`]: combined
/// generation fingerprints an incremental analyzer (`ddx_dnsviz`'s
/// `GrokMemo`) keys its cache on. Stamp equality implies "every observation
/// the prober could make is unchanged"; the reverse need not hold (a stamp
/// may change without an observable difference — that only costs a
/// recomputation, never a stale answer).
pub trait GenerationSource {
    /// Folds the content generation of **every** copy of the zone rooted at
    /// `apex` (divergent replicas carry distinct generations, so per-server
    /// inconsistency changes the fingerprint too). `None` when no server
    /// hosts the zone.
    fn zone_fingerprint(&self, apex: &Name) -> Option<u64>;

    /// Stamp of the server/NS-host topology: bumped whenever a server is
    /// added or an NS-host mapping changes, i.e. whenever `resolve_ns` or
    /// the hosting set may answer differently.
    fn topology_generation(&self) -> u64;
}

/// What one query attempt produced, distinguishing the failure modes a
/// real-world prober must treat differently: a timeout can be retried, a
/// malformed response means the server answered but the bytes were garbage
/// (retrying may still help, but the observation itself is evidence), and a
/// truncated answer is visible as `flags.tc` on the [`QueryOutcome::Answer`].
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The server answered; inspect `flags.tc` for truncation.
    Answer(Arc<Message>),
    /// No response arrived (dropped query, dropped response, dead server).
    Timeout,
    /// Bytes arrived but did not decode as a DNS message.
    Malformed,
}

impl QueryOutcome {
    /// Collapses to the legacy `Option` view (`Malformed` → `None`).
    pub fn into_answer(self) -> Option<Arc<Message>> {
        match self {
            QueryOutcome::Answer(m) => Some(m),
            QueryOutcome::Timeout | QueryOutcome::Malformed => None,
        }
    }
}

/// Anything that can deliver a query to a named server and return its
/// response. `None` models a timeout (unresponsive server / no route).
///
/// Responses are `Arc`-shared: the common implementations serve from the
/// generation-stamped answer memo, where a repeat query is a pointer bump
/// rather than a deep copy, and probers hold the same allocation.
pub trait Network {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>>;

    /// Like [`Network::query`], but with the failure mode preserved.
    ///
    /// The default maps `None` to [`QueryOutcome::Timeout`], which is
    /// correct for the in-process transports (they cannot produce
    /// undecodable bytes); fault-injecting and real-wire networks override
    /// this to surface [`QueryOutcome::Malformed`].
    fn query_outcome(&self, server: &ServerId, query: &Message) -> QueryOutcome {
        match self.query(server, query) {
            Some(m) => QueryOutcome::Answer(m),
            None => QueryOutcome::Timeout,
        }
    }

    /// Resolves an NS hostname to the server instance behind it — the
    /// testbed's substitute for glue/A-record resolution. `None` models an
    /// unresolvable nameserver (lame delegation).
    fn resolve_ns(&self, host: &Name) -> Option<ServerId>;
}

/// An in-process testbed holding every server of the sandbox hierarchy.
#[derive(Debug, Clone)]
pub struct Testbed {
    servers: HashMap<ServerId, Server>,
    /// NS hostname → hosting server (the testbed's substitute for glue
    /// resolution).
    ns_hosts: HashMap<Name, ServerId>,
    /// Topology stamp: advanced by every server/NS-mapping mutation. A
    /// clone keeps its stamp — content equality still holds.
    topology_generation: u64,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            servers: HashMap::new(),
            ns_hosts: HashMap::new(),
            topology_generation: fresh_topology_generation(),
        }
    }
}

impl Testbed {
    pub fn new() -> Self {
        Testbed::default()
    }

    /// Registers a server instance.
    pub fn add_server(&mut self, server: Server) {
        self.servers.insert(server.id.clone(), server);
        self.topology_generation = fresh_topology_generation();
    }

    /// Declares that the NS hostname `host` resolves to `server`.
    pub fn register_ns(&mut self, host: Name, server: ServerId) {
        self.ns_hosts.insert(host, server);
        self.topology_generation = fresh_topology_generation();
    }

    /// Removes an NS-host mapping, making that nameserver unresolvable
    /// (one way a delegation goes lame).
    pub fn unregister_ns(&mut self, host: &Name) -> Option<ServerId> {
        self.topology_generation = fresh_topology_generation();
        self.ns_hosts.remove(host)
    }

    /// Resolves an NS hostname to its server.
    pub fn server_for_host(&self, host: &Name) -> Option<&ServerId> {
        self.ns_hosts.get(host)
    }

    pub fn server(&self, id: &ServerId) -> Option<&Server> {
        self.servers.get(id)
    }

    pub fn server_mut(&mut self, id: &ServerId) -> Option<&mut Server> {
        self.servers.get_mut(id)
    }

    /// All registered server ids, sorted for determinism.
    pub fn server_ids(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.servers.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Servers that have a copy of the zone rooted at `apex`, sorted.
    pub fn servers_hosting(&self, apex: &Name) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self
            .servers
            .values()
            .filter(|s| s.zone(apex).is_some())
            .map(|s| s.id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// Applies a mutation to the zone copy of `apex` on every hosting
    /// server — the common "consistent change" path; per-server divergence
    /// goes through [`Testbed::server_mut`] instead.
    pub fn mutate_zone_everywhere<F: FnMut(&mut ddx_dns::Zone)>(&mut self, apex: &Name, mut f: F) {
        for server in self.servers.values_mut() {
            if let Some(zone) = server.zone_mut(apex) {
                f(zone);
            }
        }
    }
}

impl Network for Testbed {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>> {
        self.servers.get(server)?.handle_arc(query)
    }

    fn resolve_ns(&self, host: &Name) -> Option<ServerId> {
        self.ns_hosts.get(host).cloned()
    }
}

impl GenerationSource for Testbed {
    fn zone_fingerprint(&self, apex: &Name) -> Option<u64> {
        let mut acc = FNV_OFFSET;
        let mut hosted = false;
        for id in self.servers_hosting(apex) {
            let zone = self
                .server(&id)
                .and_then(|s| s.zone(apex))
                .expect("servers_hosting only returns hosting servers");
            acc = fnv1a(acc, id.0.as_bytes());
            acc = fnv1a(acc, &zone.generation().to_le_bytes());
            hosted = true;
        }
        hosted.then_some(acc)
    }

    fn topology_generation(&self) -> u64 {
        self.topology_generation
    }
}

/// A [`Network`] view of a testbed that bypasses the answer memo and the
/// zone indexes: every query runs the original linear-scan path. Exists for
/// equivalence testing and as the before-side of `bench_probe`.
#[derive(Debug, Clone, Copy)]
pub struct UncachedNetwork<'a>(pub &'a Testbed);

impl Network for UncachedNetwork<'_> {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>> {
        self.0.server(server)?.handle_uncached(query).map(Arc::new)
    }

    fn resolve_ns(&self, host: &Name) -> Option<ServerId> {
        self.0.resolve_ns(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, RData, Record, RrType, Soa, Zone};
    use std::net::Ipv4Addr;

    fn mini_zone(apex: &str) -> Zone {
        let apex = name(apex);
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex.child("ns1").unwrap(),
                rname: apex.child("hostmaster").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Ns(apex.child("ns1").unwrap()),
        ));
        z.add(Record::new(
            apex.child("ns1").unwrap(),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z
    }

    #[test]
    fn query_routing() {
        let mut tb = Testbed::new();
        let mut s = Server::new(ServerId("a#0".into()));
        s.load_zone(mini_zone("a.com"));
        tb.add_server(s);
        tb.register_ns(name("ns1.a.com"), ServerId("a#0".into()));

        let q = Message::query(1, name("a.com"), RrType::Soa);
        let r = tb.query(&ServerId("a#0".into()), &q).unwrap();
        assert!(r.flags.aa);
        assert!(tb.query(&ServerId("missing#9".into()), &q).is_none());
        assert_eq!(
            tb.server_for_host(&name("ns1.a.com")),
            Some(&ServerId("a#0".into()))
        );
    }

    #[test]
    fn hosting_and_mutation() {
        let mut tb = Testbed::new();
        for i in 0..2 {
            let mut s = Server::new(ServerId(format!("a#{i}")));
            s.load_zone(mini_zone("a.com"));
            tb.add_server(s);
        }
        assert_eq!(tb.servers_hosting(&name("a.com")).len(), 2);
        tb.mutate_zone_everywhere(&name("a.com"), |z| {
            z.add(Record::new(
                name("x.a.com"),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ));
        });
        for id in tb.servers_hosting(&name("a.com")) {
            assert!(tb
                .server(&id)
                .unwrap()
                .zone(&name("a.com"))
                .unwrap()
                .has_name(&name("x.a.com")));
        }
        // Divergent change on one server only.
        let id0 = ServerId("a#0".into());
        tb.server_mut(&id0)
            .unwrap()
            .zone_mut(&name("a.com"))
            .unwrap()
            .remove(&name("x.a.com"), RrType::A);
        assert!(!tb
            .server(&id0)
            .unwrap()
            .zone(&name("a.com"))
            .unwrap()
            .has_name(&name("x.a.com")));
        assert!(tb
            .server(&ServerId("a#1".into()))
            .unwrap()
            .zone(&name("a.com"))
            .unwrap()
            .has_name(&name("x.a.com")));
    }

    #[test]
    fn zone_fingerprint_tracks_content_and_divergence() {
        let mut tb = Testbed::new();
        for i in 0..2 {
            let mut s = Server::new(ServerId(format!("a#{i}")));
            s.load_zone(mini_zone("a.com"));
            tb.add_server(s);
        }
        let apex = name("a.com");
        let fp0 = tb.zone_fingerprint(&apex).expect("hosted");
        assert_eq!(tb.zone_fingerprint(&apex), Some(fp0), "stable when idle");
        assert_eq!(tb.zone_fingerprint(&name("other.com")), None);

        // Consistent mutation everywhere changes the fingerprint.
        tb.mutate_zone_everywhere(&apex, |z| {
            z.add(Record::new(
                name("x.a.com"),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ));
        });
        let fp1 = tb.zone_fingerprint(&apex).expect("hosted");
        assert_ne!(fp0, fp1);

        // Divergence on one replica also changes it.
        tb.server_mut(&ServerId("a#0".into()))
            .unwrap()
            .zone_mut(&apex)
            .unwrap()
            .remove(&name("x.a.com"), RrType::A);
        let fp2 = tb.zone_fingerprint(&apex).expect("hosted");
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn topology_generation_tracks_structural_mutations() {
        let mut tb = Testbed::new();
        let g0 = tb.topology_generation();
        let mut s = Server::new(ServerId("a#0".into()));
        s.load_zone(mini_zone("a.com"));
        tb.add_server(s);
        let g1 = tb.topology_generation();
        assert!(g1 > g0, "add_server must bump the topology stamp");
        tb.register_ns(name("ns1.a.com"), ServerId("a#0".into()));
        let g2 = tb.topology_generation();
        assert!(g2 > g1, "register_ns must bump the topology stamp");
        tb.unregister_ns(&name("ns1.a.com"));
        assert!(tb.topology_generation() > g2);
        // Pure queries leave it alone.
        let before = tb.topology_generation();
        let _ = tb.zone_fingerprint(&name("a.com"));
        let _ = tb.servers_hosting(&name("a.com"));
        assert_eq!(tb.topology_generation(), before);
    }

    #[test]
    fn unregister_ns_makes_host_unresolvable() {
        let mut tb = Testbed::new();
        tb.register_ns(name("ns1.a.com"), ServerId("a#0".into()));
        assert!(tb.unregister_ns(&name("ns1.a.com")).is_some());
        assert!(tb.server_for_host(&name("ns1.a.com")).is_none());
    }
}

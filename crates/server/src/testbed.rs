//! The local testbed: a registry of authoritative servers plus the
//! NS-hostname → server mapping a prober needs to walk delegations, and the
//! [`Network`] abstraction over "send this server a query".

use std::collections::HashMap;
use std::sync::Arc;

use ddx_dns::{Message, Name};
use ddx_obs::{fnv1a, FNV_OFFSET};

use crate::server::{Server, ServerId};

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
    /// Collapses to the [`Network::query`] view (`Malformed` → `None`).
    pub(crate) fn into_answer(self) -> Option<Arc<Message>> {
        match self {
            QueryOutcome::Answer(m) => Some(m),
            QueryOutcome::Timeout | QueryOutcome::Malformed => None,
        }
    }
}

/// Anything that can deliver a query to a named server and return its
/// response. `None` models a timeout (unresponsive server / no route).
///
/// Responses are `Arc`-shared, so a decorating network (fault injection)
/// and the prober hold one allocation instead of deep copies. The in-process [`Testbed`] resolves every query afresh through
/// the zone index; only the transports' [`Server::respond_into`] memoizes
/// answers.
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
#[derive(Debug, Clone, Default)]
pub struct Testbed {
    servers: HashMap<ServerId, Server>,
    /// NS hostname → hosting server (the testbed's substitute for glue
    /// resolution).
    ns_hosts: HashMap<Name, ServerId>,
}

impl Testbed {
    pub fn new() -> Self {
        Testbed::default()
    }

    /// Registers a server instance.
    pub fn add_server(&mut self, server: Server) {
        self.servers.insert(server.id.clone(), server);
    }

    /// Declares that the NS hostname `host` resolves to `server`.
    pub fn register_ns(&mut self, host: Name, server: ServerId) {
        self.ns_hosts.insert(host, server);
    }

    /// Removes an NS-host mapping, making that nameserver unresolvable
    /// (one way a delegation goes lame).
    pub fn unregister_ns(&mut self, host: &Name) -> Option<ServerId> {
        self.ns_hosts.remove(host)
    }

    pub fn server(&self, id: &ServerId) -> Option<&Server> {
        self.servers.get(id)
    }

    pub fn server_mut(&mut self, id: &ServerId) -> Option<&mut Server> {
        self.servers.get_mut(id)
    }

    /// Content hash of the server-level state a prober can observe: every
    /// server id with its behaviour and the apexes of the zones it hosts,
    /// and every NS-host mapping, in sorted order. Zone content is left to
    /// [`Testbed::zone_fingerprint`]. It sees changes made through
    /// [`Testbed::server_mut`] too, and a reverted change restores it.
    pub fn topology_fingerprint(&self) -> u64 {
        let mut servers: Vec<&Server> = self.servers.values().collect();
        servers.sort_by(|a, b| a.id.cmp(&b.id));
        let mut acc = FNV_OFFSET;
        for s in servers {
            acc = fnv1a(acc, s.id.0.as_bytes());
            acc = fnv1a(acc, &[s.behavior as u8]);
            let mut apexes: Vec<&Name> = s.zones().map(|z| z.apex()).collect();
            apexes.sort();
            for apex in apexes {
                acc = fnv1a(acc, &apex.canonical_wire());
            }
        }
        let mut hosts: Vec<(&Name, &ServerId)> = self.ns_hosts.iter().collect();
        hosts.sort();
        for (host, id) in hosts {
            acc = fnv1a(acc, &host.canonical_wire());
            acc = fnv1a(acc, id.0.as_bytes());
        }
        acc
    }

    /// Folds, for every server hosting the zone rooted at `apex`, the
    /// content generation of each zone that server answers names at or
    /// below `apex` from: the zone and any zone it hosts below it (a server
    /// answers from the deepest zone it hosts). Divergent replicas carry
    /// distinct generations, so divergence moves it too. `None` when no
    /// server hosts the zone.
    pub fn zone_fingerprint(&self, apex: &Name) -> Option<u64> {
        let mut acc = FNV_OFFSET;
        let mut hosted = false;
        for id in self.servers_hosting(apex) {
            let server = self
                .server(&id)
                .expect("servers_hosting only returns hosted servers");
            let mut generations: Vec<u64> = server
                .zones()
                .filter(|z| z.apex().is_subdomain_of(apex))
                .map(|z| z.generation())
                .collect();
            generations.sort_unstable();
            acc = fnv1a(acc, id.0.as_bytes());
            for generation in generations {
                acc = fnv1a(acc, &generation.to_le_bytes());
            }
            hosted = true;
        }
        hosted.then_some(acc)
    }

    /// Servers that have a copy of the zone rooted at `apex`, sorted.
    pub(crate) fn servers_hosting(&self, apex: &Name) -> Vec<ServerId> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerBehavior;
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
            tb.resolve_ns(&name("ns1.a.com")),
            Some(ServerId("a#0".into()))
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
    fn zone_fingerprint_folds_zones_hosted_below() {
        // A server answers names under b.a.com from its copy of b.a.com, so
        // an edit there moves a.com's fingerprint; an edit above does not.
        let mut tb = Testbed::new();
        let id = ServerId("a#0".into());
        let mut s = Server::new(id.clone());
        for apex in ["com", "a.com", "b.a.com"] {
            s.load_zone(mini_zone(apex));
        }
        tb.add_server(s);
        let fp0 = tb.zone_fingerprint(&name("a.com"));
        let mut bump = |apex: &str| {
            let zone = tb.server_mut(&id).unwrap().zone_mut(&name(apex));
            zone.unwrap().bump_serial();
            tb.zone_fingerprint(&name("a.com"))
        };
        assert_eq!(bump("com"), fp0, "a zone above is ignored");
        assert_ne!(bump("b.a.com"), fp0, "a zone below is folded");
    }

    #[test]
    fn topology_fingerprint_tracks_server_level_state() {
        let mut tb = Testbed::new();
        let id = ServerId("a#0".into());
        let mut seen = vec![tb.topology_fingerprint()];
        let mut s = Server::new(id.clone());
        s.load_zone(mini_zone("a.com"));
        tb.add_server(s);
        seen.push(tb.topology_fingerprint());
        tb.register_ns(name("ns1.a.com"), id.clone());
        seen.push(tb.topology_fingerprint());
        tb.server_mut(&id).unwrap().behavior = ServerBehavior::Unresponsive;
        seen.push(tb.topology_fingerprint());
        tb.server_mut(&id).unwrap().behavior = ServerBehavior::Normal;
        assert_eq!(tb.topology_fingerprint(), seen[2], "revert restores it");
        tb.server_mut(&id).unwrap().load_zone(mini_zone("b.a.com"));
        seen.push(tb.topology_fingerprint());
        tb.unregister_ns(&name("ns1.a.com"));
        seen.push(tb.topology_fingerprint());
        // add_server, register_ns, the flip, load_zone and unregister_ns
        // each moved it to a value not seen before.
        for (i, fp) in seen.iter().enumerate() {
            assert!(!seen[..i].contains(fp), "step {i} did not move it");
        }
        // Queries leave it alone.
        let q = Message::query(1, name("a.com"), RrType::Soa);
        assert!(tb.query(&id, &q).is_some());
        let _ = tb.zone_fingerprint(&name("a.com"));
        assert_eq!(tb.topology_fingerprint(), seen[5]);
    }

    #[test]
    fn unregister_ns_makes_host_unresolvable() {
        let mut tb = Testbed::new();
        tb.register_ns(name("ns1.a.com"), ServerId("a#0".into()));
        assert!(tb.unregister_ns(&name("ns1.a.com")).is_some());
        assert!(tb.resolve_ns(&name("ns1.a.com")).is_none());
    }
}

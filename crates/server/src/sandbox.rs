//! Sandbox construction: builds a linear hierarchy of signed zones — e.g.
//! `a.com` → `par.a.com` → `inv-chd.par.a.com` (the layout ZReplicator uses,
//! paper §4.5) — each hosted on N authoritative servers, with DS records
//! installed in the parent and NS hostnames registered in the testbed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

use ddx_dns::{Name, RData, Record, RrType, Soa, Zone};
use ddx_dnssec::{
    make_ds, sign_zone, sign_zone_cached, Algorithm, DenialMode, DigestType, KeyPair, KeyRing,
    KeyRole, Nsec3Config, SigCache, SignError, SignerConfig,
};

use crate::server::{Server, ServerId};
use crate::testbed::Testbed;

/// Specification for one zone in the hierarchy.
#[derive(Debug, Clone)]
pub struct ZoneSpec {
    pub apex: Name,
    /// Number of authoritative servers (the paper's testbed uses two).
    pub server_count: usize,
    /// Keys to generate: (role, algorithm, bits).
    pub keys: Vec<(KeyRole, Algorithm, u16)>,
    /// NSEC3 parameters; `None` → NSEC.
    pub nsec3: Option<Nsec3Config>,
    /// Digest type(s) for the DS uploaded to the parent.
    pub ds_digests: Vec<DigestType>,
    /// Whether the parent publishes DS records at all.
    pub publish_ds: bool,
    /// Add a `*.<apex>` wildcard A record (exercises RFC 4035 §3.1.3.3
    /// wildcard expansion).
    pub wildcard: bool,
}

impl ZoneSpec {
    /// A conventional spec: 2 servers, ECDSA P-256 KSK+ZSK, NSEC, SHA-256 DS.
    pub fn conventional(apex: Name) -> Self {
        ZoneSpec {
            apex,
            server_count: 2,
            keys: vec![
                (KeyRole::Ksk, Algorithm::EcdsaP256Sha256, 256),
                (KeyRole::Zsk, Algorithm::EcdsaP256Sha256, 256),
            ],
            nsec3: None,
            ds_digests: vec![DigestType::Sha256],
            publish_ds: true,
            wildcard: false,
        }
    }
}

/// One built zone with its operator-side state.
pub struct SandboxZone {
    pub apex: Name,
    pub ring: KeyRing,
    pub signer_config: SignerConfig,
    pub servers: Vec<ServerId>,
    pub ns_hosts: Vec<Name>,
    pub spec: ZoneSpec,
}

/// A fully wired sandbox hierarchy.
pub struct Sandbox {
    pub testbed: Testbed,
    /// Zones anchor-first.
    pub zones: Vec<SandboxZone>,
    pub now: u32,
    /// Signing lineages shared across every re-sign of every zone in this
    /// sandbox, so DFixer's per-iteration `SignZone` instructions re-sign
    /// only the RRsets they changed (see [`sign_zone_cached`]).
    pub sig_cache: SigCache,
}

impl Sandbox {
    /// The anchor zone (local root).
    pub fn anchor(&self) -> &SandboxZone {
        &self.zones[0]
    }

    /// The leaf (query) zone.
    pub fn leaf(&self) -> &SandboxZone {
        self.zones
            .last()
            .expect("build_sandbox asserts at least one ZoneSpec, so zones is never empty")
    }

    /// Zone lookup by apex.
    pub fn zone(&self, apex: &Name) -> Option<&SandboxZone> {
        self.zones.iter().find(|z| &z.apex == apex)
    }

    /// Mutable zone lookup by apex.
    pub fn zone_mut(&mut self, apex: &Name) -> Option<&mut SandboxZone> {
        self.zones.iter_mut().find(|z| &z.apex == apex)
    }

    /// Re-signs a zone on every server from its ring (the effect of running
    /// `dnssec-signzone` and reloading all secondaries).
    ///
    /// Sign-once fan-out: replicas whose pre-sign content is identical are
    /// signed once and receive clones of the signed result, instead of
    /// re-running the signer per server. Replicas that have diverged (e.g.
    /// ZReplicator injected an inconsistency on one server) are still signed
    /// independently so per-server differences survive the way they did
    /// under per-server signing — though each replica that still holds an
    /// output of the shared cache's latest full pass re-signs only what was
    /// changed on it.
    pub fn resign_zone(&mut self, apex: &Name, now: u32) -> Result<(), SignError> {
        let (ring, cfg) = {
            let z = self
                .zone(apex)
                .expect("resign_zone precondition: apex names a zone in this sandbox");
            (z.ring.clone(), z.signer_config.clone())
        };
        let ids = self.testbed.servers_hosting(apex);
        // (pre-sign content, signed content, sign result) per distinct replica.
        let mut signed: Vec<(Zone, Zone, Result<(), SignError>)> = Vec::new();
        let mut result = Ok(());
        for id in &ids {
            let (post, res) = {
                let Some(current) = self.testbed.server(id).and_then(|s| s.zone(apex)) else {
                    continue;
                };
                if let Some((_, post, res)) = signed.iter().find(|(pre, _, _)| pre == current) {
                    (post.clone(), res.clone())
                } else {
                    let pre = current.clone();
                    let mut zone = pre.clone();
                    let res = sign_zone_cached(&mut zone, &ring, &cfg, now, &mut self.sig_cache);
                    signed.push((pre, zone.clone(), res.clone()));
                    (zone, res)
                }
            };
            if let Some(zone) = self.testbed.server_mut(id).and_then(|s| s.zone_mut(apex)) {
                *zone = post;
            }
            if res.is_err() {
                result = res;
            }
        }
        result
    }

    /// Replaces the DS RRset for `child` inside the parent zone and
    /// re-signs the parent (modeling a registrar DS update).
    pub fn set_ds(&mut self, child: &Name, ds_records: Vec<ddx_dns::Ds>, now: u32) {
        let parent_apex = self
            .zones
            .iter()
            .map(|z| z.apex.clone())
            .filter(|a| child.is_strict_subdomain_of(a))
            .max_by_key(|a| a.label_count());
        let Some(parent_apex) = parent_apex else {
            return;
        };
        self.testbed.mutate_zone_everywhere(&parent_apex, |zone| {
            zone.remove(child, RrType::Ds);
            for ds in &ds_records {
                zone.add(Record::new(child.clone(), 3600, RData::Ds(ds.clone())));
            }
        });
        let _ = self.resign_zone(&parent_apex, now);
    }
}

/// Builds the hierarchy described by `specs` (anchor first, each subsequent
/// zone a strict subdomain of the previous). `seed` drives all key material.
pub fn build_sandbox(specs: &[ZoneSpec], now: u32, seed: u64) -> Sandbox {
    assert!(!specs.is_empty(), "sandbox needs at least one zone");
    let mut rng = StdRng::seed_from_u64(seed);

    // Generate rings and plain zones.
    let mut rings: Vec<KeyRing> = Vec::new();
    let mut plain: Vec<Zone> = Vec::new();
    let mut ns_hosts_all: Vec<Vec<Name>> = Vec::new();
    for spec in specs {
        let mut ring = KeyRing::new();
        for &(role, alg, bits) in &spec.keys {
            ring.add(KeyPair::generate(
                &mut rng,
                spec.apex.clone(),
                alg,
                bits,
                role,
                now,
            ));
        }
        rings.push(ring);

        let apex = spec.apex.clone();
        let mut zone = Zone::new(apex.clone());
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex
                    .child("ns1")
                    .expect("sandbox apexes are short fixed names"),
                rname: apex
                    .child("hostmaster")
                    .expect("sandbox apexes are short fixed names"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
        ));
        let mut hosts = Vec::new();
        for i in 0..spec.server_count.max(1) {
            let host = apex
                .child(&format!("ns{}", i + 1))
                .expect("sandbox apexes are short fixed names");
            zone.add(Record::new(apex.clone(), 3600, RData::Ns(host.clone())));
            zone.add(Record::new(
                host.clone(),
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, (10 + i) as u8)),
            ));
            hosts.push(host);
        }
        zone.add(Record::new(
            apex.child("www")
                .expect("sandbox apexes are short fixed names"),
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, 80)),
        ));
        zone.add(Record::new(
            apex.clone(),
            300,
            RData::Txt(vec!["ddx sandbox zone".into()]),
        ));
        if spec.wildcard {
            zone.add(Record::new(
                apex.child("*")
                    .expect("sandbox apexes are short fixed names"),
                300,
                RData::A(Ipv4Addr::new(198, 51, 100, 99)),
            ));
        }
        ns_hosts_all.push(hosts);
        plain.push(zone);
    }

    // Wire delegations parent → child (NS + glue).
    for i in 0..specs.len() - 1 {
        let child_apex = specs[i + 1].apex.clone();
        assert!(
            child_apex.is_strict_subdomain_of(&specs[i].apex),
            "{} must be under {}",
            child_apex,
            specs[i].apex
        );
        let child_hosts = ns_hosts_all[i + 1].clone();
        let parent = &mut plain[i];
        for (j, host) in child_hosts.iter().enumerate() {
            parent.add(Record::new(
                child_apex.clone(),
                3600,
                RData::Ns(host.clone()),
            ));
            parent.add(Record::new(
                host.clone(),
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, (50 + j) as u8)),
            ));
        }
    }

    // Sign leaf-first so DS records can flow upward.
    let mut signer_configs: Vec<SignerConfig> = specs
        .iter()
        .map(|s| match &s.nsec3 {
            Some(cfg) => SignerConfig::nsec3_at(now, cfg.clone()),
            None => SignerConfig::nsec_at(now),
        })
        .collect();
    for i in (0..specs.len()).rev() {
        // Install child DS before signing this zone.
        if i + 1 < specs.len() && specs[i + 1].publish_ds {
            let child_apex = specs[i + 1].apex.clone();
            let ksks = rings[i + 1].active(KeyRole::Ksk, now);
            let ds_source = ksks
                .first()
                .copied()
                .or_else(|| rings[i + 1].active(KeyRole::Zsk, now).first().copied());
            if let Some(key) = ds_source {
                for dt in &specs[i + 1].ds_digests {
                    let ds = make_ds(&child_apex, &key.dnskey, *dt);
                    plain[i].add(Record::new(child_apex.clone(), 3600, RData::Ds(ds)));
                }
            }
        }
        if rings[i].is_empty() {
            // Unsigned zone: leave as plain DNS.
            signer_configs[i].denial = DenialMode::Nsec;
            continue;
        }
        sign_zone(&mut plain[i], &rings[i], &signer_configs[i], now)
            .expect("freshly generated rings always contain a usable signing key");
    }

    // Deploy: one server per NS host, identical zone copies.
    let mut testbed = Testbed::new();
    let mut zones = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut server_ids = Vec::new();
        for (j, host) in ns_hosts_all[i].iter().enumerate() {
            let id = ServerId(format!("{}#{}", spec.apex, j));
            let mut server = Server::new(id.clone());
            server.load_zone(plain[i].clone());
            testbed.add_server(server);
            testbed.register_ns(host.clone(), id.clone());
            server_ids.push(id);
        }
        zones.push(SandboxZone {
            apex: spec.apex.clone(),
            ring: rings[i].clone(),
            signer_config: signer_configs[i].clone(),
            servers: server_ids,
            ns_hosts: ns_hosts_all[i].clone(),
            spec: spec.clone(),
        });
    }

    Sandbox {
        testbed,
        zones,
        now,
        sig_cache: SigCache::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Network;
    use ddx_dns::{name, Message};

    const NOW: u32 = 1_000_000;

    fn three_level() -> Sandbox {
        build_sandbox(
            &[
                ZoneSpec::conventional(name("a.com")),
                ZoneSpec::conventional(name("par.a.com")),
                ZoneSpec::conventional(name("chd.par.a.com")),
            ],
            NOW,
            7,
        )
    }

    #[test]
    fn builds_three_levels_with_ds_chain() {
        let sb = three_level();
        assert_eq!(sb.zones.len(), 3);
        // Parent zones hold DS for children.
        let anchor_server = &sb.zones[0].servers[0];
        let q = Message::query(1, name("par.a.com"), RrType::Ds);
        let r = sb.testbed.query(anchor_server, &q).unwrap();
        assert!(r.find_answer(&name("par.a.com"), RrType::Ds).is_some());
        let mid_server = &sb.zones[1].servers[0];
        let q = Message::query(2, name("chd.par.a.com"), RrType::Ds);
        let r = sb.testbed.query(mid_server, &q).unwrap();
        assert!(r.find_answer(&name("chd.par.a.com"), RrType::Ds).is_some());
    }

    #[test]
    fn two_servers_per_zone() {
        let sb = three_level();
        for z in &sb.zones {
            assert_eq!(z.servers.len(), 2);
            for s in &z.servers {
                assert!(sb.testbed.server(s).is_some());
            }
        }
        // NS hosts resolve.
        assert!(sb.testbed.resolve_ns(&name("ns1.par.a.com")).is_some());
        assert!(sb.testbed.resolve_ns(&name("ns2.chd.par.a.com")).is_some());
    }

    #[test]
    fn nsec3_spec_builds_nsec3_zone() {
        let mut spec = ZoneSpec::conventional(name("a.com"));
        spec.nsec3 = Some(Nsec3Config::default());
        let sb = build_sandbox(&[spec], NOW, 3);
        let server = &sb.zones[0].servers[0];
        let q = Message::query(1, name("a.com"), RrType::Nsec3Param);
        let r = sb.testbed.query(server, &q).unwrap();
        assert!(r.find_answer(&name("a.com"), RrType::Nsec3Param).is_some());
    }

    #[test]
    fn no_ds_when_publish_disabled() {
        let mut child = ZoneSpec::conventional(name("par.a.com"));
        child.publish_ds = false;
        let sb = build_sandbox(&[ZoneSpec::conventional(name("a.com")), child], NOW, 9);
        let anchor_server = &sb.zones[0].servers[0];
        let q = Message::query(1, name("par.a.com"), RrType::Ds);
        let r = sb.testbed.query(anchor_server, &q).unwrap();
        assert!(r.find_answer(&name("par.a.com"), RrType::Ds).is_none());
    }

    #[test]
    fn set_ds_replaces_and_resigns() {
        let mut sb = three_level();
        sb.set_ds(&name("par.a.com"), vec![], NOW);
        let anchor_server = sb.zones[0].servers[0].clone();
        let q = Message::query(1, name("par.a.com"), RrType::Ds);
        let r = sb.testbed.query(&anchor_server, &q).unwrap();
        assert!(r.find_answer(&name("par.a.com"), RrType::Ds).is_none());
        // And the parent SOA signature is still fresh/valid serial-wise.
        let q = Message::query(2, name("a.com"), RrType::Soa);
        let r = sb.testbed.query(&anchor_server, &q).unwrap();
        assert!(r.find_answer(&name("a.com"), RrType::Soa).is_some());
    }

    #[test]
    fn resign_zone_touches_all_servers() {
        let mut sb = three_level();
        let apex = name("chd.par.a.com");
        // Break one server copy, then resign everywhere.
        let id = sb.zones[2].servers[0].clone();
        sb.testbed
            .server_mut(&id)
            .unwrap()
            .zone_mut(&apex)
            .unwrap()
            .strip_type(RrType::Rrsig);
        sb.resign_zone(&apex, NOW + 10).unwrap();
        let copies: Vec<Zone> = sb
            .testbed
            .servers_hosting(&apex)
            .iter()
            .map(|sid| sb.testbed.server(sid).unwrap().zone(&apex).unwrap().clone())
            .collect();
        assert_eq!(copies.len(), 2);
        for z in &copies {
            assert!(z.rrsets().any(|s| s.rtype == RrType::Rrsig));
        }
        // Fan-out must leave every server with an identical signed copy:
        // both replicas held the same data modulo DNSSEC material, which a
        // full re-sign regenerates from scratch.
        assert_eq!(copies[0], copies[1], "server copies diverged after resign");
    }

    #[test]
    fn resign_preserves_per_server_divergence() {
        let mut sb = three_level();
        let apex = name("chd.par.a.com");
        // ZReplicator-style divergence: one server carries an extra record.
        let id = sb.zones[2].servers[0].clone();
        let extra = name("only-here.chd.par.a.com");
        sb.testbed
            .server_mut(&id)
            .unwrap()
            .zone_mut(&apex)
            .unwrap()
            .add(Record::new(
                extra.clone(),
                300,
                RData::A(Ipv4Addr::new(203, 0, 113, 1)),
            ));
        sb.resign_zone(&apex, NOW + 10).unwrap();
        let other = sb.zones[2].servers[1].clone();
        let z0 = sb.testbed.server(&id).unwrap().zone(&apex).unwrap();
        let z1 = sb.testbed.server(&other).unwrap().zone(&apex).unwrap();
        assert!(
            z0.get(&extra, RrType::A).is_some(),
            "divergent record survives resign"
        );
        assert!(
            z1.get(&extra, RrType::A).is_none(),
            "divergence must not fan out"
        );
        assert_ne!(z0, z1);
    }
}

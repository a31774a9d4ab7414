//! Shared zone-variant corpus for the integration tests in this crate:
//! the eight signed/broken/unsigned zones introduced with the query-path
//! equivalence suite, reused by the chaos harness.

#![allow(dead_code)]

use std::net::Ipv4Addr;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use ddx_dns::{name, Name, RData, Record, RrType, Soa, Zone};
use ddx_dnssec::{sign_zone, Algorithm, KeyPair, KeyRing, KeyRole, Nsec3Config, SignerConfig};
use ddx_server::{Server, ServerId, Testbed};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) const NOW: u32 = 1_000_000;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Serializes the tests of a binary that read exact deltas of the
/// process-global metrics registry: each such test holds the guard for its
/// whole run, so no sibling test bumps a counter between its snapshots.
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn base_zone(wildcard: bool) -> Zone {
    let mut z = Zone::new(name("example.com"));
    z.add(Record::new(
        name("example.com"),
        3600,
        RData::Soa(Soa {
            mname: name("ns1.example.com"),
            rname: name("hostmaster.example.com"),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    z.add(Record::new(
        name("example.com"),
        3600,
        RData::Ns(name("ns1.example.com")),
    ));
    z.add(Record::new(
        name("ns1.example.com"),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    z.add(Record::new(
        name("www.example.com"),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    z.add(Record::new(
        name("alias.example.com"),
        300,
        RData::Cname(name("www.example.com")),
    ));
    z.add(Record::new(
        name("sub.example.com"),
        3600,
        RData::Ns(name("ns1.sub.example.com")),
    ));
    z.add(Record::new(
        name("ns1.sub.example.com"),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 53)),
    ));
    // A second delegation whose NS host lives outside the zone: the closest
    // the single-server view gets to a lame delegation (no glue to return).
    z.add(Record::new(
        name("lame.example.com"),
        3600,
        RData::Ns(name("ns1.elsewhere.net")),
    ));
    if wildcard {
        z.add(Record::new(
            name("*.wild.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 42)),
        ));
    }
    z
}

pub(crate) fn sign(z: &mut Zone, nsec3: Option<Nsec3Config>) {
    let mut ring = KeyRing::new();
    let mut rng = StdRng::seed_from_u64(7);
    for role in [KeyRole::Ksk, KeyRole::Zsk] {
        ring.add(KeyPair::generate(
            &mut rng,
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            role,
            NOW,
        ));
    }
    let cfg = match nsec3 {
        Some(c) => SignerConfig::nsec3_at(NOW, c),
        None => SignerConfig::nsec_at(NOW),
    };
    sign_zone(z, &ring, &cfg, NOW).unwrap();
}

/// The eight zone variants: well-signed NSEC/NSEC3 (with and without
/// wildcards and opt-out), post-signing breakage, and unsigned.
pub(crate) fn variant_zones() -> Vec<(&'static str, Zone)> {
    let mut out: Vec<(&'static str, Zone)> = Vec::new();

    let mut z = base_zone(false);
    sign(&mut z, None);
    out.push(("nsec", z));

    let mut z = base_zone(true);
    sign(&mut z, None);
    out.push(("nsec-wildcard", z));

    let mut z = base_zone(false);
    sign(&mut z, Some(Nsec3Config::default()));
    out.push(("nsec3", z));

    let mut z = base_zone(true);
    sign(
        &mut z,
        Some(Nsec3Config {
            opt_out: true,
            ..Nsec3Config::default()
        }),
    );
    out.push(("nsec3-optout-wildcard", z));

    // Broken NSEC chain: one link removed after signing. The index must
    // detect the malformed chain and fall back to the same linear
    // first-match scan the naive path uses.
    let mut z = base_zone(false);
    sign(&mut z, None);
    z.remove(&name("www.example.com"), RrType::Nsec);
    out.push(("nsec-broken-chain", z));

    // Corrupted NSEC next pointer: the chain no longer closes.
    let mut z = base_zone(false);
    sign(&mut z, None);
    if let Some(set) = z.get_mut(&name("alias.example.com"), RrType::Nsec) {
        for rdata in &mut set.rdatas {
            if let RData::Nsec(n) = rdata {
                n.next_name = name("zzz.outside.test");
            }
        }
    }
    out.push(("nsec-corrupt-next", z));

    // Signatures stripped post-signing (NSEC3 ring survives unsigned).
    let mut z = base_zone(false);
    sign(&mut z, Some(Nsec3Config::default()));
    z.strip_type(RrType::Rrsig);
    out.push(("nsec3-stripped-sigs", z));

    // Entirely unsigned.
    out.push(("unsigned", base_zone(true)));

    out
}

/// The zone variants loaded into standalone servers. Built once; servers
/// are only ever read.
pub(crate) fn variants() -> &'static Vec<(&'static str, Server)> {
    static VARIANTS: OnceLock<Vec<(&'static str, Server)>> = OnceLock::new();
    VARIANTS.get_or_init(|| {
        variant_zones()
            .into_iter()
            .map(|(label, zone)| {
                let mut s = Server::new(ServerId(format!("eq-{label}")));
                s.load_zone(zone);
                (label, s)
            })
            .collect()
    })
}

/// The zone variants loaded into one-server testbeds (`ns1.example.com`
/// routes to the server), for tests that exercise the [`Network`] surface.
pub(crate) fn testbeds() -> &'static Vec<(&'static str, Testbed)> {
    static TESTBEDS: OnceLock<Vec<(&'static str, Testbed)>> = OnceLock::new();
    TESTBEDS.get_or_init(|| {
        variant_zones()
            .into_iter()
            .map(|(label, zone)| {
                let id = ServerId(format!("chaos-{label}#0"));
                let mut s = Server::new(id.clone());
                s.load_zone(zone);
                let mut tb = Testbed::new();
                tb.add_server(s);
                tb.register_ns(name("ns1.example.com"), id);
                (label, tb)
            })
            .collect()
    })
}

pub(crate) fn qnames() -> Vec<Name> {
    vec![
        name("example.com"),
        name("www.example.com"),
        name("alias.example.com"),
        name("ns1.example.com"),
        name("nope.example.com"),
        name("a.b.nope.example.com"),
        name("sub.example.com"),
        name("x.sub.example.com"),
        name("lame.example.com"),
        name("y.lame.example.com"),
        name("anything.wild.example.com"),
        name("deep.under.wild.example.com"),
        name("wild.example.com"),
        name("com"),
        name("unrelated.test"),
    ]
}

pub(crate) const QTYPES: &[RrType] = &[
    RrType::A,
    RrType::Aaaa,
    RrType::Ns,
    RrType::Soa,
    RrType::Cname,
    RrType::Dnskey,
    RrType::Ds,
    RrType::Txt,
    RrType::Nsec,
    RrType::Nsec3Param,
];

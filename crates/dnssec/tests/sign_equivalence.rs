//! Property test pinning the sign-once pipeline's correctness contract:
//! `sign_zone_cached` must produce a zone byte-identical (canonical wire
//! form) to a cold, cache-disabled `sign_zone` — across NSEC and NSEC3
//! denial modes, multi-algorithm key rings, and warm caches carried over
//! from earlier, different signing passes.

use ddx_prop::{bytes, check, option, string, vec, Rng};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

use ddx_dns::{name, Name, RData, Record, Soa, Zone};
use ddx_dnssec::{
    sign_zone, sign_zone_cached, Algorithm, KeyPair, KeyRing, KeyRole, Nsec3Config, SigCache,
    SignerConfig,
};

const NOW: u32 = 1_000_000;

/// Algorithms exercised by the ring generator (ECDSA, RSA, EdDSA families).
const ALGS: [(Algorithm, u16); 3] = [
    (Algorithm::EcdsaP256Sha256, 256),
    (Algorithm::RsaSha256, 2048),
    (Algorithm::Ed25519, 256),
];

fn build_ring(apex: &Name, algs: &[usize], seed: u64) -> KeyRing {
    let mut ring = KeyRing::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for &i in algs {
        let (alg, bits) = ALGS[i];
        ring.add(KeyPair::generate(
            &mut rng,
            apex.clone(),
            alg,
            bits,
            KeyRole::Ksk,
            NOW,
        ));
        ring.add(KeyPair::generate(
            &mut rng,
            apex.clone(),
            alg,
            bits,
            KeyRole::Zsk,
            NOW,
        ));
    }
    ring
}

fn build_zone(apex: &Name, hosts: &[String]) -> Zone {
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa(Soa {
            mname: apex.child("ns1").unwrap(),
            rname: apex.child("hostmaster").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Ns(apex.child("ns1").unwrap()),
    ));
    zone.add(Record::new(
        apex.child("ns1").unwrap(),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    for (i, host) in hosts.iter().enumerate() {
        zone.add(Record::new(
            apex.child(host).unwrap(),
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, (i % 250) as u8 + 1)),
        ));
    }
    zone
}

/// Canonical wire form of the whole zone: the byte-level equality the
/// acceptance criterion demands, stricter than `Zone: PartialEq` alone.
fn canonical_bytes(zone: &Zone) -> Vec<u8> {
    let mut out = Vec::new();
    for set in zone.rrsets() {
        out.extend_from_slice(&set.canonical_signing_form(set.ttl));
    }
    out
}

fn signer_config(nsec3: &Option<(u16, Vec<u8>)>) -> SignerConfig {
    match nsec3 {
        None => SignerConfig::nsec_at(NOW),
        Some((iterations, salt)) => SignerConfig::nsec3_at(
            NOW,
            Nsec3Config {
                iterations: *iterations,
                salt: salt.clone(),
                ..Default::default()
            },
        ),
    }
}

#[test]
fn cached_signing_is_byte_identical_to_cold() {
    check("cached_signing_is_byte_identical_to_cold", 24, |rng| {
        let hosts = vec(rng, 1..12, |r| {
            string(r, "abcdefghijklmnopqrstuvwxyz", 1..13)
        });
        let algs = vec(rng, 1..3, |r| r.gen_range(0..ALGS.len()));
        let nsec3 = option(rng, |r| (r.gen_range(0u16..30), bytes(r, 0..8)));
        let seed: u64 = rng.gen();
        let apex = name("example.com");
        let ring = build_ring(&apex, &algs, seed);
        let cfg = signer_config(&nsec3);

        let mut cold = build_zone(&apex, &hosts);
        sign_zone(&mut cold, &ring, &cfg, NOW).unwrap();

        // Cold cache pass.
        let mut cache = SigCache::new();
        let mut warm1 = build_zone(&apex, &hosts);
        sign_zone_cached(&mut warm1, &ring, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(&cold, &warm1);
        assert_eq!(canonical_bytes(&cold), canonical_bytes(&warm1));

        // Warm cache pass over a fresh copy of the same data. This binary
        // holds one test, so the registry delta is this pass's alone.
        let before = ddx_obs::snapshot();
        let mut warm2 = build_zone(&apex, &hosts);
        sign_zone_cached(&mut warm2, &ring, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(&cold, &warm2);
        assert_eq!(canonical_bytes(&cold), canonical_bytes(&warm2));
        let delta = ddx_obs::snapshot().diff(&before);
        let hits = delta.counter("dnssec.sig_cache.hits");
        assert!(hits > 0, "warm pass must hit: {hits}");

        // A cache warmed on different data must not contaminate this zone.
        let mut other = build_zone(&apex, &["unrelated".to_string()]);
        sign_zone_cached(&mut other, &ring, &cfg, NOW, &mut cache).unwrap();
        let mut warm3 = build_zone(&apex, &hosts);
        sign_zone_cached(&mut warm3, &ring, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(&cold, &warm3);
    });
}

//! Work pin for incremental re-signing: a one-record write to a signed zone,
//! re-signed through the cache that signed it, costs the same allocations
//! and computes the same signatures whatever the zone's size or denial
//! mode. Its own test binary: the counting allocator is process-wide (it
//! counts only on the thread that switched it on), and the signature counts
//! are deltas of the process-wide registry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use ddx_dns::{name, Name, RData, RRset, Record, Soa, Zone};
use ddx_dnssec::{
    sign_zone, sign_zone_cached, Algorithm, KeyPair, KeyRing, KeyRole, Nsec3Config, SigCache,
    SignerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NOW: u32 = 1_000_000;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is counting.
fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// An unsigned zone of `hosts` A records and an apex TXT record.
fn zone(apex: &Name, hosts: usize) -> Zone {
    let child = |label: &str| apex.child(label).unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa(Soa {
            mname: child("ns1"),
            rname: child("hostmaster"),
            serial: 1,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    zone.add(Record::new(apex.clone(), 3600, RData::Ns(child("ns1"))));
    zone.add(Record::new(apex.clone(), 300, txt(0)));
    for i in 0..hosts {
        let last = (i % 250) as u8 + 1;
        zone.add(Record::new(
            child(&format!("h{i}")),
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, last)),
        ));
    }
    zone
}

fn txt(revision: u32) -> RData {
    RData::Txt(vec![format!("revision {revision:04}")])
}

/// Signs a `hosts`-host zone through a fresh cache, then counts the
/// allocations and the signatures computed and kept of three one-record
/// writes (edit plus re-sign), checking each against a full pass.
fn writes(hosts: usize, cfg: &SignerConfig) -> Vec<(usize, u64, u64)> {
    let apex = name("example.com");
    let mut rng = StdRng::seed_from_u64(7);
    let mut ring = KeyRing::new();
    for role in [KeyRole::Ksk, KeyRole::Zsk] {
        ring.add(KeyPair::generate(
            &mut rng,
            apex.clone(),
            Algorithm::EcdsaP256Sha256,
            256,
            role,
            NOW,
        ));
    }
    let mut zone = zone(&apex, hosts);
    let mut cache = SigCache::new();
    sign_zone_cached(&mut zone, &ring, cfg, NOW, &mut cache).unwrap();
    let mut out = Vec::new();
    for revision in 1..=3 {
        let edit = |zone: &mut Zone| {
            zone.put_rrset(RRset::singleton(apex.clone(), 300, txt(revision)));
        };
        let mut cold = zone.clone();
        edit(&mut cold);
        sign_zone(&mut cold, &ring, cfg, NOW).unwrap();
        let before = ddx_obs::snapshot();
        let allocated = allocations(|| {
            edit(&mut zone);
            sign_zone_cached(&mut zone, &ring, cfg, NOW, &mut cache).unwrap();
        });
        let delta = ddx_obs::snapshot().diff(&before);
        assert_eq!(cold, zone, "{hosts} hosts, revision {revision}");
        out.push((
            allocated,
            delta.counter("dnssec.sig_cache.misses"),
            delta.counter("dnssec.sig_cache.hits"),
        ));
    }
    out
}

#[test]
fn a_one_record_write_costs_the_same_on_any_zone() {
    let small = writes(64, &SignerConfig::nsec_at(NOW));
    let nsec3 = Nsec3Config {
        iterations: 5,
        salt: vec![0xAB, 0xCD],
        ..Default::default()
    };
    let large = writes(2048, &SignerConfig::nsec3_at(NOW, nsec3));
    for (write, (s, l)) in small.iter().zip(&large).enumerate() {
        // One algorithm: the TXT set and the SOA.
        assert_eq!((s.1, l.1), (2, 2), "write {write}: signatures computed");
        assert!(l.2 > s.2, "write {write}: the larger zone keeps more");
        assert_eq!(s.0, l.0, "write {write}: allocations, 64 vs 2,048 hosts");
    }
}

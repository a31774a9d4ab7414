//! Allocation accounting for the name hot paths, pinned exactly. Its own
//! test binary with one test: the counting allocator is process-wide, and
//! it counts only on the thread that switched it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use ddx_dns::{
    name, wire, Edns, Message, Name, Nsec3, RData, Rcode, Record, RrType, Rrsig, Soa, TypeBitmap,
};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
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

fn rrsig(owner_labels: u8, covered: RrType, zone: &Name) -> RData {
    RData::Rrsig(Rrsig {
        type_covered: covered,
        algorithm: 13,
        labels: owner_labels,
        original_ttl: 3600,
        expiration: 2_000_000,
        inception: 1_000_000,
        key_tag: 4242,
        signer_name: zone.clone(),
        signature: vec![0x5A; 64],
    })
}

/// A signed NXDOMAIN answer shaped like the server's: SOA and its RRSIG,
/// then `nsec3s` NSEC3 records with their RRSIGs, then OPT.
fn nxdomain(nsec3s: usize) -> Message {
    let zone = name("Example.com");
    let mut msg = Message::query(7, name("nope.deep.example.COM"), RrType::A).response();
    msg.rcode = Rcode::NxDomain;
    msg.flags.aa = true;
    msg.edns = Some(Edns {
        udp_size: 1232,
        dnssec_ok: true,
    });
    msg.authorities.push(Record::new(
        zone.clone(),
        3600,
        RData::Soa(Soa {
            mname: name("ns1.example.com"),
            rname: name("hostmaster.example.com"),
            serial: 2024,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    msg.authorities.push(Record::new(
        zone.clone(),
        3600,
        rrsig(2, RrType::Soa, &zone),
    ));
    for i in 0..nsec3s {
        let owner = zone.child(&format!("{i:032x}")).unwrap();
        msg.authorities.push(Record::new(
            owner.clone(),
            300,
            RData::Nsec3(Nsec3 {
                hash_algorithm: 1,
                flags: 0,
                iterations: 10,
                salt: vec![0xAB, 0xCD],
                next_hashed_owner: vec![0x11; 20],
                type_bitmap: TypeBitmap::from_types([RrType::A, RrType::Rrsig]),
            }),
        ));
        msg.authorities
            .push(Record::new(owner, 300, rrsig(3, RrType::Nsec3, &zone)));
    }
    msg.additionals.push(Record::new(
        name("ns1.example.com"),
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    msg
}

#[test]
fn name_compare_and_encode_allocation_counts() {
    // One pair differs in the last label, one only in case (a full walk).
    for (a, b) in [
        (name("www.Example.com"), name("www.example.org")),
        (name("www.Example.com"), name("WWW.example.COM")),
    ] {
        assert_eq!(
            allocations(|| {
                std::hint::black_box(a.canonical_cmp(&b));
            }),
            0,
            "Name::canonical_cmp({a}, {b})"
        );
    }

    // Encoding into a warmed buffer allocates nothing, whatever the NSEC3
    // count: the compression table stays inline until a message writes
    // more than 32 distinct name suffixes, and RDATA is written in place.
    let mut buf = Vec::new();
    for nsec3s in [1, 3, 8] {
        let msg = nxdomain(nsec3s);
        wire::encode_into(&msg, &mut buf);
        let allocs = allocations(|| wire::encode_into(&msg, &mut buf));
        assert_eq!(allocs, 0, "encode_into with {nsec3s} NSEC3s");
        assert_eq!(buf, wire::encode(&msg));
    }
}

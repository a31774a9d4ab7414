//! Allocation accounting for the transport answer path, pinned exactly: a
//! memo hit, from parsing the datagram through [`Server::respond_into`],
//! allocates nothing, whether the stored answer fits or is rewritten into
//! its truncated form, and whether or not the hit spells the qname as the
//! query that filled the entry did; a fresh denial miss allocates nothing
//! on its first sighting and only what the memo keeps of it on its second.
//! Its own test binary: the counting allocator is process-wide, and it
//! counts only on the thread that switched it on.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::variants;
use ddx_dns::{name, wire, Edns, Message, MessageView, RrType};
use ddx_server::Server;

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

fn query(id: u16, qname: &str, qtype: RrType, udp_size: u16) -> Vec<u8> {
    let mut q = Message::query(id, name(qname), qtype);
    q.edns = Some(Edns {
        udp_size,
        dnssec_ok: true,
    });
    wire::encode(&q)
}

#[test]
fn transport_memo_hits_allocate_nothing() {
    let (_, server) = variants()
        .iter()
        .find(|(label, _)| *label == "nsec3")
        .expect("the nsec3 variant");
    // A positive answer that fits, and a signed NSEC3 NXDOMAIN (about
    // 500 bytes) held to a limit it does not fit, so it goes out truncated.
    // Each entry is filled under the first spelling and hit under both, so
    // the qname stamp is exercised too.
    for (spellings, limit, truncated) in [
        (["www.example.com", "WWW.Example.COM"], 1232, false),
        (["nope.example.com", "NoPe.EXAMPLE.com"], 256, true),
    ] {
        let (qtype, udp_size) = (RrType::A, 1232);
        let mut buf = Vec::new();
        // Two misses: the memo stores an answer on its key's second one.
        let miss = query(1, spellings[0], qtype, udp_size);
        for _ in 0..2 {
            assert!(server.respond_into(&MessageView::parse(&miss).unwrap(), limit, &mut buf));
        }
        for spelling in spellings {
            // The hit comes under another id, so the id stamp is exercised.
            let hit = query(0xBEEF, spelling, qtype, udp_size);
            let mut sent = false;
            let allocs = allocations(|| {
                let view = MessageView::parse(&hit).unwrap();
                sent = server.respond_into(&view, limit, &mut buf);
            });
            assert!(sent);
            assert_eq!(allocs, 0, "{spelling}/{qtype:?} hit at limit {limit}");
            assert_eq!(buf[..2], 0xBEEFu16.to_be_bytes());
            assert_eq!(buf[2] & 0x02 != 0, truncated, "{spelling}/{qtype:?} TC bit");
            assert!(buf.len() <= limit);
            // The question echoes this query's: its bytes after the header,
            // up to the 11-byte OPT record.
            let question = 12..hit.len() - 11;
            assert_eq!(buf[question.clone()], hit[question], "{spelling} echo");
        }
    }
}

/// A miss resolves straight into the send buffer: it builds no `Message`
/// and no `Name`, and the denial proofs are copied from the zone index.
/// The memo stores an answer on its key's second miss only, so what a miss
/// allocates depends on the sighting, however deep the name and however
/// many proof records go out:
/// - a first sighting allocates nothing once its shard has a doorkeeper,
///   and one allocation, the doorkeeper table, on a cold shard;
/// - a second sighting allocates what the memo keeps: the stored answer,
///   its key and, here, the shard's entry table on its first insert, 3.
///
/// The counts are the same when the answer goes out truncated: a miss's
/// answer is truncated in the send buffer. An out-of-zone REFUSED is not
/// memoized and allocates nothing.
#[test]
fn fresh_denial_misses_allocate_what_the_memo_keeps() {
    let server = |label: &str| -> &Server {
        &variants()
            .iter()
            .find(|(l, _)| *l == label)
            .expect("the variant")
            .1
    };
    // Per case: the cold first sighting, a first sighting on the same
    // shard (the same name under another EDNS size), the second sighting.
    for (label, warm, (qname, qtype), want) in [
        (
            "nsec3",
            "warm.example.com",
            ("fresh.example.com", RrType::A),
            [1, 0, 3],
        ),
        (
            "nsec3",
            "warm.www.example.com",
            ("a.b.c.fresh.www.example.com", RrType::A),
            [1, 0, 3],
        ),
        (
            "nsec3",
            "www.example.com",
            ("www.example.com", RrType::Txt),
            [1, 0, 3],
        ),
        (
            "nsec",
            "warm.example.com",
            ("fresh.example.com", RrType::A),
            [1, 0, 3],
        ),
        (
            "nsec",
            "www.example.com",
            ("www.example.com", RrType::Txt),
            [1, 0, 3],
        ),
        (
            "nsec3",
            "warm.nowhere.test",
            ("fresh.nowhere.test", RrType::A),
            [0, 0, 0],
        ),
    ] {
        for limit in [1232, 256] {
            // A cold memo and index; the index is built, and the closest
            // encloser's hashes kept, by a miss of the same class that does
            // not touch the memo.
            let server = server(label).clone();
            let warm = query(1, warm, RrType::Mx, 1232);
            server.handle_view(&MessageView::parse(&warm).unwrap());
            let first = query(2, qname, qtype, 1232);
            let other_size = query(3, qname, qtype, 4096);
            let mut buf = Vec::with_capacity(4096);
            for ((sighting, miss), want) in ["cold first", "first", "second"]
                .into_iter()
                .zip([&first, &other_size, &first])
                .zip(want)
            {
                let view = MessageView::parse(miss).unwrap();
                let mut sent = false;
                let allocs = allocations(|| sent = server.respond_into(&view, limit, &mut buf));
                assert!(sent);
                let case = format!("{label} {qname}/{qtype:?} limit {limit}");
                assert_eq!(allocs, want, "{case}: {sighting} sighting");
                assert!(buf.len() <= limit, "{case}: fits");
                let answer = wire::decode(&buf).unwrap();
                assert!(answer.answers.is_empty(), "{case}: denies");
            }
        }
    }
}

//! Property test pinning the tentpole invariant of the query-path overhaul:
//! the memoized, index-backed answer path ([`Server::handle_arc`]) is
//! byte-for-byte identical to the original linear-scan path
//! ([`Server::handle_uncached`]) — across NSEC and NSEC3 zones (with and
//! without opt-out), wildcards, broken/corrupted denial chains, stripped
//! signatures, and unsigned zones. Every query is asked twice so the second
//! round exercises the memo-hit path against the same oracle.

mod common;

use std::sync::Arc;

use common::{qnames, variants, QTYPES};
use ddx_dns::{name, wire, Message, RrType};
use ddx_prop::{check, Rng};

fn encode_opt(resp: Option<&Message>) -> Option<Vec<u8>> {
    resp.map(wire::encode)
}

/// For every (zone variant, qname, qtype, DO, RD) combination the
/// indexed+memoized path and the naive path agree on the wire — on the
/// first query (memo miss, fresh index) and on a repeat (memo hit).
#[test]
fn cached_path_is_byte_identical_to_naive() {
    check("cached_path_is_byte_identical_to_naive", 512, |rng| {
        let zone_idx = rng.gen_range(0usize..8);
        let qname_idx = rng.gen_range(0usize..15);
        let qtype_idx = rng.gen_range(0usize..10);
        let dnssec_ok: bool = rng.gen();
        let rd: bool = rng.gen();
        let (label, server) = &variants()[zone_idx];
        let qname = qnames()[qname_idx].clone();
        let qtype = QTYPES[qtype_idx];
        let mut q = Message::query(9, qname, qtype);
        q.flags.rd = rd;
        if !dnssec_ok {
            q.edns = None;
        }
        let naive = server.handle_uncached(&q);
        for round in 0..2 {
            let cached = server.handle_arc(&q);
            assert_eq!(
                encode_opt(cached.as_deref()),
                encode_opt(naive.as_ref()),
                "zone={} round={} q={:?}",
                label,
                round,
                q.question
            );
        }
    });
}

/// The memo must serve repeats while staying invisible to response bytes —
/// checked against the naive oracle above; this pins that a repeat is a
/// hit: the second answer is the first one's allocation.
#[test]
fn equivalence_run_populates_the_memo() {
    let (_, server) = &variants()[0];
    let q = Message::query(3, name("www.example.com"), RrType::A);
    let r1 = server.handle_arc(&q).unwrap();
    let r2 = server.handle_arc(&q).unwrap();
    assert!(Arc::ptr_eq(&r1, &r2), "repeat query must hit the memo");
}

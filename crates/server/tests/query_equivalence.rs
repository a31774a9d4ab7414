//! Property test pinning the tentpole invariant of the query-path overhaul:
//! the index-backed answer path ([`Server::handle_arc`]) is byte-for-byte
//! identical to the original linear-scan path ([`Server::handle_uncached`])
//! — across NSEC and NSEC3 zones (with and without opt-out), wildcards,
//! broken/corrupted denial chains, stripped signatures, and unsigned zones.

mod common;

use common::{qnames, variants, QTYPES};
use ddx_dns::{wire, Message};
use ddx_prop::{check, Rng};

fn encode_opt(resp: Option<&Message>) -> Option<Vec<u8>> {
    resp.map(wire::encode)
}

/// For every (zone variant, qname, qtype, DO, RD) combination the indexed
/// path and the naive path agree on the wire.
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
        assert_eq!(
            encode_opt(server.handle_arc(&q).as_deref()),
            encode_opt(server.handle_uncached(&q).as_ref()),
            "zone={} q={:?}",
            label,
            q.question
        );
    });
}

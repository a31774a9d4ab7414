//! The transport answer bytes, pinned: every answer [`Server::respond_into`]
//! writes over a fixed query grid, memo miss then hit, folded into one
//! FNV-1a digest and compared with a constant. The equivalence suites
//! compare the transport path with in-process answers that share its
//! resolution code; this digest catches a fault in that shared code, which
//! those comparisons cannot see.
//!
//! The grid: the eight zone variants under all three behaviors;
//! [`qnames`] × [`QTYPES`] plus AXFR; no EDNS, 512 and 1232 with DO, 4096
//! without DO; each at the query's UDP limit and at 65,535 bytes. Each
//! variant starts from a cold memo. Each query is asked once outside the
//! digest (the memo stores an answer on its key's second miss), then twice
//! under different ids at both limits, so the first folded ask is the miss
//! that stores the answer and the rest are hits.

mod common;

use common::{qnames, respond, udp_limit, variants, QTYPES};
use ddx_dns::{Edns, Message, RrType};
use ddx_obs::{fnv1a, FNV_OFFSET};
use ddx_server::ServerBehavior;

/// The digest of the grid, recorded from the transport path before its
/// resolution code was shared with the in-process entry points.
const DIGEST: u64 = 0x09f2_f018_7d16_a72b;

#[test]
fn transport_bytes_match_the_pinned_digest() {
    let edns_states = [
        None,
        Some(Edns {
            udp_size: 512,
            dnssec_ok: true,
        }),
        Some(Edns {
            udp_size: 1232,
            dnssec_ok: true,
        }),
        Some(Edns {
            udp_size: 4096,
            dnssec_ok: false,
        }),
    ];
    let qtypes: Vec<RrType> = QTYPES.iter().copied().chain([RrType::Axfr]).collect();
    let mut digest = FNV_OFFSET;
    let mut id = 0u16;
    for (_, base) in variants() {
        for behavior in [
            ServerBehavior::Normal,
            ServerBehavior::Refuses,
            ServerBehavior::Unresponsive,
        ] {
            // A clone starts with a cold memo.
            let mut server = base.clone();
            server.behavior = behavior;
            for qname in qnames() {
                for &qtype in &qtypes {
                    for edns in edns_states {
                        let mut q = Message::query(0, qname.clone(), qtype);
                        q.edns = edns;
                        // A first sighting, left out of the digest: the
                        // memo stores an answer on its key's second miss,
                        // so the rounds below are a storing miss and hits.
                        let _ = respond(&server, &q, udp_limit(&q));
                        for _round in 0..2 {
                            id = id.wrapping_add(0x0101);
                            q.id = id;
                            for limit in [udp_limit(&q), usize::from(u16::MAX)] {
                                match respond(&server, &q, limit) {
                                    Some(bytes) => {
                                        digest = fnv1a(digest, &(bytes.len() as u32).to_be_bytes());
                                        digest = fnv1a(digest, &bytes);
                                    }
                                    None => digest = fnv1a(digest, b"silent"),
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(digest, DIGEST, "transport digest {digest:#018x}");
}

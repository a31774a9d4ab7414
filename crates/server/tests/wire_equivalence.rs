//! Property tests pinning the transport answer path: the bytes
//! [`Server::respond_into`] writes for a query are exactly the bytes of the
//! reference answer ([`Server::handle_uncached`]) encoded, with the query's
//! id and qname spelling, and truncated by the UDP rule when they do not
//! fit — on memo misses and on a hit, for every zone variant, behavior and
//! EDNS state.

mod common;

use common::{qnames, respond, udp_bytes, udp_limit, variants, QTYPES};
use ddx_dns::{name, wire, Edns, Message, Name, RrType};
use ddx_prop::{check, Rng, StdRng};
use ddx_server::ServerBehavior;

/// A query under a random id for a listed name, a fresh name under the
/// zone, or no question at all; any type including AXFR; random RD and
/// EDNS state.
fn random_query(rng: &mut StdRng) -> Message {
    let qname = match rng.gen_range(0u32..4) {
        0 => name(&format!("r{:x}.example.com", rng.gen::<u32>())),
        _ => qnames()[rng.gen_range(0usize..15)].clone(),
    };
    let qtype = match rng.gen_range(0u32..12) {
        0 => RrType::Axfr,
        n => QTYPES[(n as usize - 1) % QTYPES.len()],
    };
    let mut q = Message::query(rng.gen(), qname, qtype);
    q.flags.rd = rng.gen();
    q.edns = match rng.gen_range(0u32..3) {
        0 => None,
        _ => Some(Edns {
            udp_size: [0, 512, 700, 1232, 4096][rng.gen_range(0usize..5)],
            dnssec_ok: rng.gen(),
        }),
    };
    if rng.gen_range(0u32..16) == 0 {
        q.question = None;
    }
    q
}

/// `qname` with the case of each ASCII letter drawn at random.
fn respell(rng: &mut StdRng, qname: &Name) -> Name {
    let spelled: String = qname
        .to_string()
        .chars()
        .map(|c| match rng.gen::<bool>() {
            true => c.to_ascii_uppercase(),
            false => c.to_ascii_lowercase(),
        })
        .collect();
    name(&spelled)
}

/// Every query, asked three times (two misses, the second of which stores
/// the answer, then a hit under another id and another qname spelling),
/// through UDP and TCP limits, writes the oracle's bytes.
#[test]
fn transport_bytes_equal_encoded_in_process_answers() {
    check(
        "transport_bytes_equal_encoded_in_process_answers",
        512,
        |rng| {
            let (label, base) = &variants()[rng.gen_range(0usize..8)];
            let mut server = base.clone();
            server.behavior = match rng.gen_range(0u32..8) {
                0 => ServerBehavior::Refuses,
                1 => ServerBehavior::Unresponsive,
                _ => ServerBehavior::Normal,
            };
            let query = random_query(rng);
            for round in 0..3u16 {
                let mut q = query.clone();
                q.id = query.id.wrapping_add(round * 0x1111);
                if let Some(question) = q.question.as_mut().filter(|_| round == 2) {
                    question.qname = respell(rng, &question.qname);
                }
                let oracle = server.handle_uncached(&q);
                for limit in [udp_limit(&q), usize::from(u16::MAX)] {
                    let want = oracle.as_ref().map(|m| udp_bytes(m, limit));
                    assert_eq!(
                        respond(&server, &q, limit),
                        want,
                        "zone={label} behavior={:?} round={round} limit={limit} q={:?}/{:?}",
                        server.behavior,
                        q.question,
                        q.edns
                    );
                }
            }
        },
    );
}

/// `truncate_into` on an encoded message writes that message encoded with
/// TC set and its record sections cleared, whatever its flags, sections
/// and EDNS state, and rejects any cut-short prefix of it; so does
/// `truncate_in_place` on the message's own buffer.
#[test]
fn truncate_into_equals_encoding_the_cleared_message() {
    check(
        "truncate_into_equals_encoding_the_cleared_message",
        512,
        |rng| {
            let (_, server) = &variants()[rng.gen_range(0usize..8)];
            let query = random_query(rng);
            let Some(answer) = server.handle_arc(&query) else {
                return;
            };
            let mut m = (*answer).clone();
            m.flags.aa = rng.gen();
            m.flags.tc = rng.gen();
            m.flags.ra = rng.gen();
            m.flags.ad = rng.gen();
            m.flags.cd = rng.gen();
            let full = wire::encode(&m);
            let cut = rng.gen_range(0..full.len());
            let mut out = vec![0xEE; 3];
            assert!(
                wire::truncate_into(&full[..cut], &mut out).is_err(),
                "cut at {cut}"
            );
            assert!(
                wire::truncate_in_place(&mut full[..cut].to_vec()).is_err(),
                "in place, cut at {cut}"
            );
            wire::truncate_into(&full, &mut out).expect("encoded message");
            let mut in_place = full.clone();
            wire::truncate_in_place(&mut in_place).expect("encoded message");
            m.flags.tc = true;
            m.answers.clear();
            m.authorities.clear();
            m.additionals.clear();
            assert_eq!(out, wire::encode(&m), "q={:?}", query.question);
            assert_eq!(in_place, out, "in place, q={:?}", query.question);
        },
    );
}

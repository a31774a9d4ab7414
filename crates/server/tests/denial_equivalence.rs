//! Property test pinning the transport's denial answers on zones and names
//! the shared variant corpus does not reach: a salted, 10-iteration NSEC3
//! zone (every corpus NSEC3 variant hashes with no salt and no extra
//! iterations) and an NSEC zone, each with empty non-terminals, a wildcard
//! and two delegations, asked for fresh names at every depth below them.
//! The bytes [`Server::respond_into`] writes, on both memo misses (the
//! second stores the answer) and on a hit,
//! are the reference answer ([`Server::handle_uncached`]) encoded and
//! truncated by the UDP rule.

mod common;

use std::net::Ipv4Addr;
use std::sync::OnceLock;

use common::{base_zone, respond, sign, udp_bytes};
use ddx_dns::{name, Edns, Message, Name, RData, Record, RrType};
use ddx_dnssec::Nsec3Config;
use ddx_prop::{check, string, Rng, StdRng};
use ddx_server::{Server, ServerId};

/// The two zones: the corpus's wildcard base zone plus owners that leave
/// `ent.example.com`, `deep.example.com` and `c.deep.example.com` empty
/// non-terminals, signed with NSEC3 (8-byte salt, 10 iterations) and with
/// NSEC.
fn servers() -> &'static [(&'static str, Server); 2] {
    static SERVERS: OnceLock<[(&'static str, Server); 2]> = OnceLock::new();
    SERVERS.get_or_init(|| {
        let zone = |nsec3: Option<Nsec3Config>| {
            let mut z = base_zone(true);
            for owner in ["a.ent.example.com", "b.c.deep.example.com"] {
                z.add(Record::new(
                    name(owner),
                    300,
                    RData::A(Ipv4Addr::new(192, 0, 2, 7)),
                ));
            }
            sign(&mut z, nsec3);
            let mut s = Server::new(ServerId("denial#0".into()));
            s.load_zone(z);
            s
        };
        let salted = Nsec3Config {
            iterations: 10,
            salt: vec![0xab, 0xcd, 0xef, 1, 2, 3, 4, 5],
            ..Nsec3Config::default()
        };
        [("nsec3-salted", zone(Some(salted))), ("nsec", zone(None))]
    })
}

/// Names the fresh ones go below (or are): owners, empty non-terminals,
/// the wildcard and its parent, both delegations and occluded glue.
const BASES: &[&str] = &[
    "www.example.com",
    "alias.example.com",
    "ns1.example.com",
    "a.ent.example.com",
    "b.c.deep.example.com",
    "ent.example.com",
    "deep.example.com",
    "c.deep.example.com",
    "wild.example.com",
    "*.wild.example.com",
    "sub.example.com",
    "ns1.sub.example.com",
    "lame.example.com",
    "example.com",
];

const QTYPES: &[RrType] = &[
    RrType::A,
    RrType::Aaaa,
    RrType::Txt,
    RrType::Mx,
    RrType::Ns,
    RrType::Ds,
    RrType::Cname,
    RrType::Soa,
];

/// `base` under zero to three fresh labels, each letter in random case.
fn fresh_name(rng: &mut StdRng) -> Name {
    let base = BASES[rng.gen_range(0..BASES.len())];
    let mut text = String::new();
    for _ in 0..rng.gen_range(0u32..4) {
        text.push_str(&string(rng, "abcxyz019-", 1..12));
        text.push('.');
    }
    text.push_str(base);
    let spelled: String = text
        .chars()
        .map(|c| match rng.gen::<bool>() {
            true => c.to_ascii_uppercase(),
            false => c,
        })
        .collect();
    name(&spelled)
}

#[test]
fn fresh_denials_equal_the_reference_answers() {
    check("fresh_denials_equal_the_reference_answers", 768, |rng| {
        let (label, base) = &servers()[rng.gen_range(0usize..2)];
        // A cold memo each case: the first two rounds miss (the second
        // stores the answer) and the last is a hit.
        let server = base.clone();
        let qname = fresh_name(rng);
        let qtype = QTYPES[rng.gen_range(0..QTYPES.len())];
        let dnssec_ok = rng.gen();
        let limit = [512, 1232, 65_535][rng.gen_range(0usize..3)];
        for round in 0..3u16 {
            let mut q = Message::query(rng.gen(), qname.clone(), qtype);
            q.edns = Some(Edns {
                udp_size: limit as u16,
                dnssec_ok,
            });
            if round == 2 {
                // The hit comes under another spelling.
                let respelled = qname.to_string().to_ascii_uppercase();
                q.question.as_mut().expect("asked").qname = name(&respelled);
            }
            let want = server.handle_uncached(&q).map(|m| udp_bytes(&m, limit));
            assert_eq!(
                respond(&server, &q, limit),
                want,
                "zone={label} round={round} limit={limit} do={dnssec_ok} q={qname}/{qtype:?}"
            );
        }
    });
}

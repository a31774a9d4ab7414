//! Shared property-test generators and deterministic substrates for the wire
//! codec test suites (`prop_roundtrip`, `view_owned_equivalence`).
//!
//! Not a test target itself: each integration test pulls this in with
//! `mod strategies;`.

#![allow(dead_code)]

use ddx_prop::{bytes, option, string, vec, Rng, StdRng, ALNUM, LOWER_DIGITS};

use ddx_dns::{
    Dnskey, Ds, Edns, Message, Name, Nsec, Nsec3, Nsec3Param, RData, Rcode, Record, RrType, Rrsig,
    Soa, TypeBitmap,
};

pub(crate) fn arb_label(rng: &mut StdRng) -> String {
    string(rng, LOWER_DIGITS, 1..13)
}

pub(crate) fn arb_name(rng: &mut StdRng) -> Name {
    let labels = vec(rng, 1..5, arb_label);
    labels.join(".").parse().expect("valid name")
}

pub(crate) fn arb_bitmap(rng: &mut StdRng) -> TypeBitmap {
    let codes = vec(rng, 0..8, |r| r.gen_range(0u16..300));
    TypeBitmap::from_types(codes.into_iter().map(RrType::from_code))
}

fn arb_ds(rng: &mut StdRng) -> Ds {
    Ds {
        key_tag: rng.gen(),
        algorithm: rng.gen(),
        digest_type: rng.gen(),
        digest: bytes(rng, 1..48),
    }
}

/// One of the rdata kinds, each equally likely.
pub(crate) fn arb_rdata(rng: &mut StdRng) -> RData {
    match rng.gen_range(0..14) {
        0 => {
            let mut o = [0u8; 4];
            rng.fill(&mut o);
            RData::A(o.into())
        }
        1 => {
            let mut o = [0u8; 16];
            rng.fill(&mut o);
            RData::Aaaa(o.into())
        }
        2 => RData::Ns(arb_name(rng)),
        3 => RData::Cname(arb_name(rng)),
        4 => RData::Soa(Soa {
            mname: arb_name(rng),
            rname: arb_name(rng),
            serial: rng.gen(),
            refresh: rng.gen(),
            retry: rng.gen(),
            expire: rng.gen(),
            minimum: rng.gen(),
        }),
        5 => RData::Mx {
            preference: rng.gen(),
            exchange: arb_name(rng),
        },
        6 => RData::Txt(vec(rng, 1..4, |r| string(r, &format!("{ALNUM} "), 0..41))),
        7 => RData::Dnskey(Dnskey {
            flags: rng.gen(),
            protocol: rng.gen(),
            algorithm: rng.gen(),
            public_key: bytes(rng, 1..64),
        }),
        8 => RData::Ds(arb_ds(rng)),
        9 => RData::Rrsig(Rrsig {
            type_covered: RrType::from_code(rng.gen_range(0u16..=300)),
            algorithm: rng.gen(),
            labels: rng.gen(),
            original_ttl: rng.gen(),
            expiration: rng.gen(),
            inception: rng.gen(),
            key_tag: rng.gen(),
            signer_name: arb_name(rng),
            signature: bytes(rng, 1..80),
        }),
        10 => RData::Nsec(Nsec {
            next_name: arb_name(rng),
            type_bitmap: arb_bitmap(rng),
        }),
        11 => RData::Nsec3(Nsec3 {
            hash_algorithm: rng.gen(),
            flags: rng.gen(),
            iterations: rng.gen(),
            salt: bytes(rng, 0..16),
            next_hashed_owner: bytes(rng, 1..33),
            type_bitmap: arb_bitmap(rng),
        }),
        12 => RData::Nsec3Param(Nsec3Param {
            hash_algorithm: rng.gen(),
            flags: rng.gen(),
            iterations: rng.gen(),
            salt: bytes(rng, 0..16),
        }),
        _ => RData::Cds(arb_ds(rng)),
    }
}

pub(crate) fn arb_record(rng: &mut StdRng) -> Record {
    let n = arb_name(rng);
    let ttl = rng.gen();
    Record::new(n, ttl, arb_rdata(rng))
}

pub(crate) fn arb_message(rng: &mut StdRng) -> Message {
    let id = rng.gen();
    let qname = arb_name(rng);
    let qtype = RrType::from_code(rng.gen_range(0u16..300));
    let mut r = Message::query(id, qname, qtype).response();
    r.answers = vec(rng, 0..5, arb_record);
    r.authorities = vec(rng, 0..4, arb_record);
    r.additionals = vec(rng, 0..3, arb_record);
    r.flags.aa = rng.gen();
    r.rcode = Rcode::from_code(rng.gen_range(0u8..6));
    r.edns = option(rng, |r| Edns {
        udp_size: r.gen_range(512u16..4096),
        dnssec_ok: r.gen(),
    });
    r.flags.ra = false;
    r
}

/// Byte flips `(position, xor mask)` to corrupt an encoding of `len > 0`
/// bytes with.
pub(crate) fn arb_flips(rng: &mut StdRng, len: usize) -> Vec<(usize, u8)> {
    vec(rng, 1..8, |r| (r.gen_range(0..len), r.gen()))
}

/// A richly-featured response exercising compression, DNSSEC rdata, and
/// EDNS, used as the substrate for the deterministic adversarial cases.
pub(crate) fn dense_response() -> Message {
    let mut r =
        Message::query(0x4242, "www.sub.example.com".parse().unwrap(), RrType::A).response();
    r.flags.aa = true;
    r.answers.push(Record::new(
        "www.sub.example.com".parse().unwrap(),
        300,
        RData::A([192, 0, 2, 7].into()),
    ));
    r.answers.push(Record::new(
        "www.sub.example.com".parse().unwrap(),
        300,
        RData::Rrsig(Rrsig {
            type_covered: RrType::A,
            algorithm: 13,
            labels: 4,
            original_ttl: 300,
            expiration: 5_000,
            inception: 1_000,
            key_tag: 4242,
            signer_name: "sub.example.com".parse().unwrap(),
            signature: vec![7; 64],
        }),
    ));
    r.authorities.push(Record::new(
        "sub.example.com".parse().unwrap(),
        300,
        RData::Nsec(Nsec {
            next_name: "zzz.sub.example.com".parse().unwrap(),
            type_bitmap: TypeBitmap::from_types([RrType::Soa, RrType::Ns, RrType::Dnskey]),
        }),
    ));
    r.additionals.push(Record::new(
        "ns1.example.com".parse().unwrap(),
        3600,
        RData::Aaaa([0x20, 0x01, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1].into()),
    ));
    r.edns = Some(Edns {
        udp_size: 1232,
        dnssec_ok: true,
    });
    r
}

/// Builds a 12-byte header with the given question/answer section counts.
pub(crate) fn header(qd: u16, an: u16) -> Vec<u8> {
    let mut buf = vec![0u8; 12];
    buf[4..6].copy_from_slice(&qd.to_be_bytes());
    buf[6..8].copy_from_slice(&an.to_be_bytes());
    buf
}

//! The zero-copy contract, property-tested: for every message the corpus
//! can produce, every [`MessageView`] accessor must report exactly what the
//! owned decoder materializes — and on bytes the owned decoder rejects, the
//! view parser must fail closed with the identical error.

mod strategies;

use ddx_prop::{bytes, check};

use ddx_dns::{wire, Message, MessageView, Question};
use strategies::{arb_flips, arb_message};

/// Compares every accessor of `view` against the owned decode `msg` of the
/// same bytes. This is the exhaustive bridge check: if it holds, a consumer
/// can switch any read from the owned message to the view without observing
/// a difference.
fn assert_view_matches(view: &MessageView<'_>, msg: &Message, bytes: &[u8]) {
    // Raw buffer access.
    assert_eq!(view.wire(), bytes);

    // Header.
    assert_eq!(view.id(), msg.id);
    let f = view.flags();
    assert_eq!(f.qr, msg.flags.qr);
    assert_eq!(f.aa, msg.flags.aa);
    assert_eq!(f.tc, msg.flags.tc);
    assert_eq!(f.rd, msg.flags.rd);
    assert_eq!(f.ra, msg.flags.ra);
    assert_eq!(f.ad, msg.flags.ad);
    assert_eq!(f.cd, msg.flags.cd);
    assert_eq!(view.rcode(), msg.rcode);

    // EDNS.
    assert_eq!(view.edns(), msg.edns);
    assert_eq!(view.dnssec_ok(), msg.dnssec_ok());

    // Question: full materialization of the borrowed qname.
    match (&view.question(), &msg.question) {
        (Some(qv), Some(q)) => {
            assert_eq!(qv.qname().to_name(), q.qname);
            assert_eq!(
                qv.qname().label_count(),
                q.qname.labels().len(),
                "label count"
            );
            assert_eq!(qv.qtype(), q.qtype);
            assert_eq!(qv.qclass(), q.qclass);
            let rebuilt: Question = qv.to_question();
            assert_eq!(&rebuilt, q);
        }
        (None, None) => {}
        (qv, q) => panic!("question presence disagrees: view={qv:?} owned={q:?}"),
    }

    // The owned bridge is byte-for-byte the owned decode.
    assert_eq!(&view.to_owned(), msg);
}

const CASES: u32 = 256;

/// Every corpus variant: parse both ways, compare every accessor.
#[test]
fn every_accessor_matches_owned_decode() {
    check("every_accessor_matches_owned_decode", CASES, |rng| {
        let msg = arb_message(rng);
        let bytes = wire::encode(&msg);
        let owned = wire::decode(&bytes).expect("owned decode");
        let view = MessageView::parse(&bytes).expect("view parse");
        assert_view_matches(&view, &owned, &bytes);
    });
}

/// Both paths on the same bytes: identical acceptance and rejection
/// (including the error value), and on acceptance every accessor agrees.
fn assert_paths_agree(bytes: &[u8]) {
    match (wire::decode(bytes), MessageView::parse(bytes)) {
        (Ok(owned), Ok(view)) => assert_view_matches(&view, &owned, bytes),
        (Err(a), Err(b)) => assert_eq!(a, b),
        (owned, viewed) => panic!("paths disagree: owned={owned:?} view={viewed:?}"),
    }
}

/// Arbitrary bytes: acceptance and rejection must be identical across the
/// two paths.
#[test]
fn arbitrary_bytes_agree() {
    check("arbitrary_bytes_agree", CASES, |rng| {
        assert_paths_agree(&bytes(rng, 0..512));
    });
}

/// Bit-flipped real encodings: a nastier error corpus than uniform
/// random bytes, since most of the structure stays intact.
#[test]
fn corrupted_encodings_agree() {
    check("corrupted_encodings_agree", CASES, |rng| {
        let mut bytes = wire::encode(&arb_message(rng));
        for (i, mask) in arb_flips(rng, bytes.len()) {
            bytes[i] ^= mask;
        }
        assert_paths_agree(&bytes);
    });
}

/// Every strict prefix of a valid encoding: both paths reject, with the
/// same error, at every cut point.
#[test]
fn truncations_fail_closed_identically() {
    check("truncations_fail_closed_identically", CASES, |rng| {
        let bytes = wire::encode(&arb_message(rng));
        for cut in 0..bytes.len() {
            let owned = wire::decode(&bytes[..cut]);
            let viewed = MessageView::parse(&bytes[..cut]).map(|v| v.to_owned());
            match (&owned, &viewed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("prefix {cut}: owned={owned:?} view={viewed:?}"),
            }
        }
    });
}

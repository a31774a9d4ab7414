//! Proof that the server's memo-hit path is zero-copy end to end: answering
//! a repeated query from a parsed [`MessageView`] constructs no owned
//! `Message` from the wire bytes (tracked by the `dns.view.to_owned`
//! counter) and returns the identical cached `Arc`.
//!
//! A single `#[test]` in its own binary: the counter is process-global, so
//! exact delta assertions cannot share a process with other tests.

use std::sync::Arc;

use ddx_dns::{name, wire, Message, MessageView, RrType};
use ddx_server::{build_sandbox, ZoneSpec};

#[test]
fn memo_hit_answers_without_materializing_the_query() {
    let apex = name("zerocopy.test");
    let sb = build_sandbox(&[ZoneSpec::conventional(apex.clone())], 1_000_000, 77);
    let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();

    let query = Message::query(0x7A7A, apex.clone(), RrType::Soa);
    let encoded = wire::encode(&query);
    let view = MessageView::parse(&encoded).expect("query parses");

    let to_owned = ddx_obs::counter("dns.view.to_owned", &[]);
    let baseline = to_owned.get();

    // Miss, then hit — both answered straight from the view.
    let first = server.handle_view(&view).expect("answer");
    let second = server.handle_view(&view).expect("answer");

    assert_eq!(
        to_owned.get(),
        baseline,
        "the view-driven request path must never bridge the query to an owned Message"
    );
    assert!(
        Arc::ptr_eq(&first, &second),
        "the repeat query must be served from the cached Arc"
    );

    // Byte equivalence with the owned request path: stamping the query id
    // into the encoded wire bytes (as the transports do) reproduces the
    // owned handler's response exactly.
    let owned = server.handle_arc(&query).expect("owned-path answer");
    let mut from_view = wire::encode(&second);
    from_view[0..2].copy_from_slice(&query.id.to_be_bytes());
    assert_eq!(from_view, wire::encode(&owned));
}

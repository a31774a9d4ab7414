//! Proof that the server's view-driven request paths are zero-copy:
//! answering a query from a parsed [`MessageView`] — in process through
//! [`Server::handle_view`], or for the transports through
//! [`Server::respond_into`] on memo misses and on a hit — constructs no
//! owned `Message` from the wire bytes (tracked by the `dns.view.to_owned`
//! counter), and the answers equal the owned request path's.
//!
//! A single `#[test]` in its own binary: the counter is process-global, so
//! exact delta assertions cannot share a process with other tests.

use ddx_dns::{name, wire, Message, MessageView, RrType};
use ddx_server::{build_sandbox, ZoneSpec};

#[test]
fn view_paths_answer_without_materializing_the_query() {
    let apex = name("zerocopy.test");
    let sb = build_sandbox(&[ZoneSpec::conventional(apex.clone())], 1_000_000, 77);
    let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();

    let query = Message::query(0x7A7A, apex.clone(), RrType::Soa);
    let encoded = wire::encode(&query);
    let view = MessageView::parse(&encoded).expect("query parses");

    let to_owned = ddx_obs::counter("dns.view.to_owned", &[]);
    let baseline = to_owned.get();

    let answer = server.handle_view(&view).expect("answer");
    let mut sent = Vec::new();
    // The memo stores an answer on its key's second miss.
    for round in ["first miss", "second miss", "hit"] {
        assert!(server.respond_into(&view, usize::from(u16::MAX), &mut sent));
        assert_eq!(sent, wire::encode(&answer), "respond_into {round}");
    }
    assert_eq!(
        to_owned.get(),
        baseline,
        "the view-driven request paths must never bridge the query to an owned Message"
    );

    // Byte equivalence with the owned request path.
    let owned = server.handle_arc(&query).expect("owned-path answer");
    assert_eq!(wire::encode(&answer), wire::encode(&owned));
}

//! Concurrency property tests for the sharded answer memo, driven through
//! [`Server::respond_into`] as the UDP workers drive it: many client
//! threads hammering one server must (a) never change a single response
//! byte relative to the naive uncached oracle, and (b) keep the
//! `server.answer_memo.*` registry accounting exact (`lookups == hits +
//! misses`).
//!
//! The registry is process-global. Every test holds [`serial`] for its
//! whole run, so no sibling test bumps the counters between a test's
//! snapshots and the deltas are exact.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use common::{qnames, respond, serial, udp_bytes, udp_limit, variants, QTYPES};
use ddx_dns::{name, Message, RrType};
use ddx_obs::MetricsSnapshot;
use ddx_prop::{check, Rng};
use ddx_server::Server;
use rand::SplitMix64;

/// The delta of the `server.answer_memo.<event>` counter since `since`.
fn memo_delta(since: &MetricsSnapshot, event: &str) -> u64 {
    ddx_obs::snapshot()
        .diff(since)
        .counter(&format!("server.answer_memo.{event}"))
}

/// Each thread draws its queries from its own SplitMix64 stream, so the
/// streams are deterministic in the case seed without sharing RNG state
/// across threads.
fn nth_query(stream: &mut SplitMix64, id: u16) -> Message {
    let qname = qnames()[(stream.next_u64() % 15) as usize].clone();
    let qtype = QTYPES[(stream.next_u64() % 10) as usize];
    let mut q = Message::query(id, qname, qtype);
    q.flags.rd = stream.next_u64().is_multiple_of(2);
    if stream.next_u64().is_multiple_of(2) {
        q.edns = None;
    }
    q
}

/// What the UDP transport sends for `q`.
fn udp_answer(server: &Server, q: &Message) -> Option<Vec<u8>> {
    respond(server, q, udp_limit(q))
}

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 64;

/// 8 threads × 64 seed-derived queries against every zone variant:
/// each answer from the shared sharded path is byte-identical to the
/// naive linear-scan oracle computed on the same thread, encoded under
/// the UDP truncation rule. Contention on the memo shards must never
/// surface as a different (or missing) response.
#[test]
fn concurrent_sharded_path_matches_naive_oracle() {
    let _serial = serial();
    check("concurrent_sharded_path_matches_naive_oracle", 12, |rng| {
        let seed: u64 = rng.gen();
        let (label, server) = &variants()[(seed % 8) as usize];
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    let mut stream =
                        SplitMix64::new(seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F));
                    for i in 0..QUERIES_PER_THREAD {
                        let q = nth_query(&mut stream, (t * QUERIES_PER_THREAD + i) as u16);
                        let naive = server.handle_uncached(&q);
                        assert_eq!(
                            udp_answer(server, &q),
                            naive.as_ref().map(|m| udp_bytes(m, udp_limit(&q))),
                            "zone={label} thread={t} q={:?}",
                            q.question
                        );
                    }
                });
            }
        });
    });
}

/// The memo accounting stays exact under contention: every lookup from
/// 8 threads is counted once, as a hit or a miss.
#[test]
fn shard_accounting_is_exact_under_contention() {
    let _serial = serial();
    let server: Server = variants()[0].1.clone();
    let before = ddx_obs::snapshot();
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            scope.spawn(move || {
                let mut stream = SplitMix64::new(0xC0FFEE ^ ((t as u64) << 17));
                for _ in 0..QUERIES_PER_THREAD {
                    let id = (NEXT.fetch_add(1, Ordering::Relaxed) % 0xFFFF) as u16;
                    let q = nth_query(&mut stream, id);
                    let _ = udp_answer(server, &q);
                }
            });
        }
    });
    let hits = memo_delta(&before, "hits");
    let misses = memo_delta(&before, "misses");
    assert_eq!(memo_delta(&before, "lookups"), hits + misses);
    // Memoizable traffic exists in the stream (AXFR and FormErr queries
    // bypass the memo, but plain lookups dominate).
    assert!(misses > 0, "the hammer must populate the memo");
    assert!(hits > 0, "repeated (qname,qtype) pairs must hit");
}

/// Names past the memo's total capacity (8 shards × 1,024 entries), each
/// asked twice so its second miss stores it, overfill at least one shard,
/// and its clear-at-cap flush surfaces on the registry eviction counter.
#[test]
fn cap_overflow_reports_evictions() {
    let _serial = serial();
    let server: Server = variants()[0].1.clone();
    let before = ddx_obs::snapshot();
    for i in 0..=8 * 1_024u32 {
        let q = Message::query(i as u16, name(&format!("e{i}.example.com")), RrType::A);
        for _ in 0..2 {
            assert!(udp_answer(&server, &q).is_some());
        }
    }
    assert_eq!(memo_delta(&before, "misses"), 2 * (8 * 1_024 + 1));
    assert!(
        memo_delta(&before, "evictions") > 0,
        "8,193 fresh names into 8×1,024 slots must evict"
    );
}

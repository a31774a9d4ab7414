//! Concurrency property tests for the sharded answer memo: many client
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

use common::{qnames, serial, variants, QTYPES};
use ddx_dns::{wire, Message};
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

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 64;

/// 8 threads × 64 seed-derived queries against every zone variant:
/// each answer from the shared sharded path is byte-identical to the
/// naive linear-scan oracle computed on the same thread. Contention on
/// the memo shards must never surface as a different (or missing)
/// response.
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
                        let cached = server.handle(&q);
                        assert_eq!(
                            cached.as_ref().map(wire::encode),
                            naive.as_ref().map(wire::encode),
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
    let mut server: Server = variants()[0].1.clone();
    server.configure_memo(8, 256);
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
                    let _ = server.handle(&q);
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

/// A tiny per-shard cap forces clear-at-cap flushes, and the dropped
/// entries surface on the registry eviction counter.
#[test]
fn cap_overflow_reports_evictions() {
    let _serial = serial();
    let mut server: Server = variants()[0].1.clone();
    server.configure_memo(2, 4);
    let before = ddx_obs::snapshot();
    let mut stream = SplitMix64::new(0xFEED);
    for id in 0..512u16 {
        let q = nth_query(&mut stream, id);
        let _ = server.handle(&q);
    }
    assert!(
        memo_delta(&before, "evictions") > 0,
        "512 varied queries into 2×4 slots must evict"
    );
}

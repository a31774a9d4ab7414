//! Chaos harness for the fault-injection decorator at the [`Network`]
//! surface: a zero-fault [`FaultNetwork`] must be byte-identical to the
//! network it wraps across the whole zone-variant corpus, equal seeds must
//! replay equal fault sequences, the `server.fault.*` registry counters
//! must account for every query, and transient plans must heal on retry.
//!
//! The registry is process-global. Every test holds [`serial`] for its
//! whole run, so no sibling test bumps the counters between a test's
//! snapshots and the deltas are exact.

mod common;

use std::collections::BTreeMap;

use common::{qnames, serial, testbeds, QTYPES};
use ddx_dns::{wire, Message, RrType};
use ddx_obs::MetricsSnapshot;
use ddx_prop::{check, Rng};
use ddx_server::{FaultNetwork, FaultPlan, FlapSchedule, Network, QueryOutcome, ServerId};

/// Every `server.fault.*` counter delta since `since`, by rendered key
/// (e.g. `server.fault.injected{kind=drop}`).
fn fault_delta(since: &MetricsSnapshot) -> BTreeMap<String, u64> {
    let mut d = ddx_obs::snapshot().diff(since).counters;
    d.retain(|k, _| k.starts_with("server.fault."));
    d
}

/// `(queries, passed, injected)` of a [`fault_delta`], the last summed
/// over every `kind` label.
fn fault_totals(d: &BTreeMap<String, u64>) -> (u64, u64, u64) {
    let c = |key: &str| d.get(key).copied().unwrap_or(0);
    let injected = d
        .iter()
        .filter(|(k, _)| k.starts_with("server.fault.injected{"))
        .map(|(_, v)| v)
        .sum();
    (
        c("server.fault.queries"),
        c("server.fault.passed"),
        injected,
    )
}

fn server_id(label: &str) -> ServerId {
    ServerId(format!("chaos-{label}#0"))
}

/// A comparable fingerprint of one query outcome: the failure mode plus the
/// exact response bytes when one was delivered.
fn outcome_sig(outcome: QueryOutcome) -> (u8, Option<Vec<u8>>) {
    match outcome {
        QueryOutcome::Answer(m) => (0, Some(wire::encode(&m))),
        QueryOutcome::Timeout => (1, None),
        QueryOutcome::Malformed => (2, None),
    }
}

/// Every (qname, qtype) probe of the corpus as a fresh query message.
fn corpus_queries() -> Vec<Message> {
    let mut out = Vec::new();
    for qname in qnames() {
        for &qtype in QTYPES {
            out.push(Message::query(9, qname.clone(), qtype));
        }
    }
    out
}

/// A passthrough plan — whatever its seed — must leave both `query` and
/// `query_outcome` byte-identical to the wrapped network, for every
/// zone variant and query in the corpus.
#[test]
fn zero_fault_network_is_byte_identical() {
    let _serial = serial();
    check("zero_fault_network_is_byte_identical", 256, |rng| {
        let zone_idx = rng.gen_range(0usize..8);
        let qname_idx = rng.gen_range(0usize..15);
        let qtype_idx = rng.gen_range(0usize..10);
        let seed: u64 = rng.gen();
        let (label, tb) = &testbeds()[zone_idx];
        let id = server_id(label);
        let q = Message::query(9, qnames()[qname_idx].clone(), QTYPES[qtype_idx]);

        let plan = FaultPlan::none(seed);
        assert!(plan.is_passthrough());
        let faulty = FaultNetwork::new(tb, plan);
        let before = ddx_obs::snapshot();

        let direct = tb.query(&id, &q).map(|m| wire::encode(&m));
        let wrapped = faulty.query(&id, &q).map(|m| wire::encode(&m));
        assert_eq!(wrapped, direct, "zone={} q={:?}", label, q.question);
        assert_eq!(
            outcome_sig(faulty.query_outcome(&id, &q)),
            outcome_sig(tb.query_outcome(&id, &q))
        );
        let (_, _, injected) = fault_totals(&fault_delta(&before));
        assert_eq!(injected, 0, "passthrough injected a fault");
        // resolve_ns must pass through untouched as well.
        assert_eq!(
            faulty.resolve_ns(&ddx_dns::name("ns1.example.com")),
            tb.resolve_ns(&ddx_dns::name("ns1.example.com"))
        );
    });
}

/// Sweeps the full corpus through a faulty network and returns the outcome
/// fingerprint sequence.
fn sweep(net: &FaultNetwork<'_>, id: &ServerId) -> Vec<(u8, Option<Vec<u8>>)> {
    corpus_queries()
        .iter()
        .map(|q| outcome_sig(net.query_outcome(id, q)))
        .collect()
}

/// The same seed must replay the exact same fault sequence — outcomes and
/// counters — on a fresh decorator; a different seed is allowed to differ
/// and here demonstrably does inject a different mix.
#[test]
fn equal_seeds_replay_equal_fault_sequences() {
    let _serial = serial();
    let (label, tb) = &testbeds()[0];
    let id = server_id(label);
    let runs: Vec<_> = [41u64, 41, 42]
        .iter()
        .map(|&seed| {
            let net = FaultNetwork::new(tb, FaultPlan::uniform(seed, 100));
            let before = ddx_obs::snapshot();
            let outcomes = sweep(&net, &id);
            (outcomes, fault_delta(&before))
        })
        .collect();
    assert_eq!(runs[0].0, runs[1].0, "same seed, different outcomes");
    assert_eq!(runs[0].1, runs[1].1, "same seed, different counters");
    let (_, _, injected) = fault_totals(&runs[0].1);
    assert!(
        injected > 0,
        "a 700-permille uniform mix over {} queries injected nothing",
        runs[0].0.len()
    );
    assert_ne!(
        runs[0].0, runs[2].0,
        "seeds 41 and 42 produced identical fault sequences"
    );
}

/// passed + Σ injected must account for every query exactly once, across
/// all zone variants.
#[test]
fn fault_counters_account_for_every_query() {
    let _serial = serial();
    for (label, tb) in testbeds() {
        let id = server_id(label);
        let net = FaultNetwork::new(tb, FaultPlan::uniform(9, 80));
        let before = ddx_obs::snapshot();
        let total = sweep(&net, &id).len() as u64;
        let (queries, passed, injected) = fault_totals(&fault_delta(&before));
        assert_eq!(queries, total, "zone={label}");
        assert_eq!(
            passed + injected,
            total,
            "zone={label}: {passed} passed + {injected} injected != {total} queries"
        );
    }
}

/// The [`fault_delta`] of asking one question `asks` times through a fresh
/// decorator running `plan` on the first corpus server.
fn ask_repeatedly(plan: FaultPlan, asks: u16) -> BTreeMap<String, u64> {
    let (label, tb) = &testbeds()[0];
    let id = server_id(label);
    let net = FaultNetwork::new(tb, plan);
    let before = ddx_obs::snapshot();
    for i in 0..asks {
        let q = Message::query(i, ddx_dns::name("www.example.com"), RrType::A);
        let _ = net.query_outcome(&id, &q);
    }
    fault_delta(&before)
}

fn injected(d: &BTreeMap<String, u64>, kind: &str) -> u64 {
    let key = format!("server.fault.injected{{kind={kind}}}");
    d.get(&key).copied().unwrap_or(0)
}

/// A plan that certainly fires one kind counts every query as that kind
/// and none as passed; a passthrough plan counts every query as passed.
#[test]
fn certain_plans_count_every_query_once() {
    let _serial = serial();
    let d = ask_repeatedly(FaultPlan::none(99), 1);
    assert_eq!(fault_totals(&d), (1, 1, 0), "passthrough: {d:?}");

    let corrupt = FaultPlan {
        corrupt_permille: 1000,
        ..FaultPlan::none(21)
    };
    let d = ask_repeatedly(corrupt, 64);
    assert_eq!(injected(&d, "corrupt"), 64, "{d:?}");
    assert_eq!(fault_totals(&d), (64, 0, 64), "{d:?}");

    let always_down = FaultPlan {
        flap: Some(FlapSchedule {
            period_ms: 100,
            down_ms: 100,
        }),
        ..FaultPlan::none(5)
    };
    let d = ask_repeatedly(always_down, 4);
    assert_eq!(injected(&d, "flap_down"), 4, "{d:?}");
    assert_eq!(fault_totals(&d), (4, 0, 4), "{d:?}");
}

/// ~98% fault rate over 200 asks of a uniform mix: the draw must pick every
/// kind at least once — drop included, although a drop and a timeout look
/// alike to the caller — and passed + Σ injected must add up.
#[test]
fn uniform_mix_draws_every_fault_kind() {
    let _serial = serial();
    let d = ask_repeatedly(FaultPlan::uniform(7, 140), 200);
    for kind in [
        "drop", "timeout", "slow", "truncate", "refused", "servfail", "corrupt",
    ] {
        assert!(injected(&d, kind) > 0, "{kind} never drawn: {d:?}");
    }
    let (queries, passed, injected) = fault_totals(&d);
    assert_eq!(queries, 200);
    assert_eq!(passed + injected, 200, "{d:?}");
}

/// With `max_faulty_attempts = 1` the first ask of a question may be
/// perturbed but the retry must be served clean — byte-identical to the
/// unwrapped network.
#[test]
fn transient_faults_heal_on_retry() {
    let _serial = serial();
    for (label, tb) in testbeds() {
        let id = server_id(label);
        let plan = FaultPlan {
            max_faulty_attempts: Some(1),
            ..FaultPlan::uniform(5, 120)
        };
        let net = FaultNetwork::new(tb, plan);
        for q in corpus_queries() {
            let _first = net.query_outcome(&id, &q);
            let retry = outcome_sig(net.query_outcome(&id, &q));
            let clean = outcome_sig(tb.query_outcome(&id, &q));
            assert_eq!(retry, clean, "zone={label} q={:?}", q.question);
        }
    }
}

/// Faults restricted to one server leave every other server untouched.
#[test]
fn only_server_scoping_spares_other_servers() {
    let _serial = serial();
    let (label, tb) = &testbeds()[0];
    let id = server_id(label);
    let plan = FaultPlan {
        only_server: Some(ServerId("someone-else#9".into())),
        ..FaultPlan::uniform(3, 1000 / 7)
    };
    let net = FaultNetwork::new(tb, plan);
    let before = ddx_obs::snapshot();
    for q in corpus_queries() {
        let wrapped = outcome_sig(net.query_outcome(&id, &q));
        let direct = outcome_sig(tb.query_outcome(&id, &q));
        assert_eq!(wrapped, direct, "zone={label} q={:?}", q.question);
    }
    assert_eq!(fault_totals(&fault_delta(&before)).2, 0);
}

/// The virtual clock advances as queries flow — no wall-clock sleeping —
/// and slow faults add their configured latency on top.
#[test]
fn virtual_clock_advances_without_sleeping() {
    let _serial = serial();
    let (label, tb) = &testbeds()[0];
    let id = server_id(label);
    let net = FaultNetwork::new(tb, FaultPlan::none(0));
    assert_eq!(net.virtual_ms(), 0);
    let q = Message::query(9, ddx_dns::name("www.example.com"), RrType::A);
    let _ = net.query_outcome(&id, &q);
    let after_one = net.virtual_ms();
    assert!(after_one > 0, "query did not advance the virtual clock");
    net.advance_ms(250);
    assert_eq!(net.virtual_ms(), after_one + 250);
}

/// Unknown servers keep timing out through the decorator (no spurious
/// answers invented for missing routes).
#[test]
fn unknown_server_still_times_out() {
    let _serial = serial();
    let (_, tb) = &testbeds()[0];
    let net = FaultNetwork::new(tb, FaultPlan::uniform(11, 100));
    let q = Message::query(9, ddx_dns::name("www.example.com"), RrType::A);
    let ghost = ServerId("nowhere#0".into());
    assert!(net.query(&ghost, &q).is_none());
}

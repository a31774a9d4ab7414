//! Cross-crate observability invariants: the global-registry deltas over a
//! full evaluation run must balance exactly — every answer-memo lookup is a
//! hit or a miss, every fault draw is passed or injected, every probe query
//! lands in exactly one outcome bucket — and the legacy per-instance
//! accessors must agree with the registry deltas they mirror.
//!
//! Everything lives in ONE `#[test]` function: the registry is
//! process-global, and a concurrently running sibling test in this binary
//! would bump counters between our before/after snapshots.

use ddx::prelude::*;
use ddx_server::{FaultNetwork, FaultPlan};

/// The per-snapshot seed base the evaluation tests have always used.
const SEED: u64 = 0xE7A1;

fn counter(m: &MetricsSnapshot, key: &str) -> u64 {
    m.counters.get(key).copied().unwrap_or(0)
}

/// Sums every counter in the labeled family `prefix` (rendered keys look
/// like `server.fault.injected{kind=drop}`).
fn counter_family(m: &MetricsSnapshot, prefix: &str) -> u64 {
    m.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Every probe query lands in exactly one outcome bucket.
fn assert_probe_outcomes_balance(m: &MetricsSnapshot) {
    let sent = counter(m, "probe.queries.sent");
    let outcomes = counter_family(m, "probe.queries{");
    assert!(sent > 0, "no probe queries sent");
    assert_eq!(outcomes, sent, "every probe query has exactly one outcome");
    assert!(counter(m, "probe.queries{outcome=ok}") <= sent);
}

/// Replicates the first `n` erroneous snapshots the way the evaluator
/// does, then runs the GE probe through a [`FaultNetwork`] seeded per
/// snapshot (`plan.seed ^ snapshot seed`) and groks it. Returns the
/// number of probe walks.
fn faulty_ge_walks(corpus: &Corpus, n: usize, plan: &FaultPlan) -> u64 {
    let mut walks = 0;
    for (i, snapshot) in corpus.erroneous_snapshots().take(n).enumerate() {
        let seed = ZoneDraw::from_snapshot(snapshot, SEED, i as u64).seed;
        let request = ReplicationRequest {
            meta: snapshot.meta.clone(),
            intended: snapshot.errors.clone(),
        };
        let Ok(rep) = replicate(&request, 1_000_000, seed) else {
            continue;
        };
        let mut plan = plan.clone();
        plan.seed ^= seed;
        let faulty = FaultNetwork::new(&rep.sandbox.testbed, plan);
        let _report = grok(&probe(&faulty, &rep.probe));
        walks += 1;
    }
    walks
}

#[test]
fn pipeline_metrics_balance_and_match_legacy_accessors() {
    let corpus = generate(&CorpusConfig {
        scale: 0.002,
        seed: 21,
    });

    // --- Evaluation run: replicate → probe → grok → DFixer per snapshot.
    let before = ddx_obs::snapshot();
    let summary = evaluate_corpus(&corpus, 16, SEED, 1);
    let m = &ddx_obs::snapshot().diff(&before);
    let zones = summary.zones;
    assert_eq!(zones, 16);
    assert_eq!(counter(m, "campaign.zones"), zones);
    // The synthetic corpus is algorithmically benign: grok meters real
    // validation work, but nothing in it trips the default budget.
    assert!(
        counter(m, "grok.budget.sig_verifications") > 0,
        "no signature work metered across a full pipeline run"
    );
    assert_eq!(
        counter(m, "grok.budget.exceeded"),
        0,
        "benign corpus tripped a validation budget"
    );
    // One probe walk per GE diagnosis plus one per fixer iteration.
    assert!(counter(m, "probe.walks") >= zones);
    assert_probe_outcomes_balance(m);

    // Answer memo: hits + misses == lookups.
    let lookups = counter(m, "server.answer_memo.lookups");
    assert!(lookups > 0, "no server traffic recorded");
    assert_eq!(
        counter(m, "server.answer_memo.hits") + counter(m, "server.answer_memo.misses"),
        lookups,
    );

    // Grok memo: every zone the incremental revalidator accounts for is
    // either spliced from cache or probed live, and the probe layer's
    // zones-skipped counter mirrors the hits exactly.
    let gm_lookups = counter(m, "grok.memo.lookups");
    assert!(gm_lookups > 0, "fixer ran no incremental revalidations");
    assert_eq!(
        counter(m, "grok.memo.hits") + counter(m, "grok.memo.misses"),
        gm_lookups,
    );
    assert_eq!(
        counter(m, "probe.zones_skipped"),
        counter(m, "grok.memo.hits")
    );

    // Stage timers cover every zone, under the split labels only: the
    // combined `probe_grok` label finished its one-release deprecation
    // window and must no longer be emitted. DFixer runs only on zones
    // whose intended errors replicated.
    let stage = |name: &str| {
        m.histograms
            .get(&format!("pipeline.stage_us{{stage={name}}}"))
            .unwrap_or_else(|| panic!("{name} stage not timed"))
            .count
    };
    assert_eq!(stage("replicate"), zones);
    assert_eq!(stage("probe"), zones);
    assert_eq!(stage("grok"), zones);
    let reached_fixer: u64 = summary.table6.iter().map(|row| row.replicated).sum();
    assert!(reached_fixer > 0, "no zone reached DFixer");
    assert_eq!(stage("fix"), reached_fixer);
    assert!(
        !m.histograms
            .contains_key("pipeline.stage_us{stage=probe_grok}"),
        "deprecated combined probe_grok stage label is still emitted"
    );

    // --- Chaos run: a uniform fault plan under the GE probe exercises the
    // injection counters.
    let before = ddx_obs::snapshot();
    let walks = faulty_ge_walks(&corpus, 16, &FaultPlan::uniform(7, 60));
    let m = &ddx_obs::snapshot().diff(&before);
    assert!(walks > 0, "no snapshot replicated");
    assert_eq!(counter(m, "probe.walks"), walks);
    assert_probe_outcomes_balance(m);

    // Fault accounting: passed + Σ injected == draws.
    let draws = counter(m, "server.fault.queries");
    assert!(draws > 0, "the fault plan saw no traffic");
    let injected = counter_family(m, "server.fault.injected{");
    assert!(injected > 0, "uniform 60‰ plan injected nothing");
    assert_eq!(counter(m, "server.fault.passed") + injected, draws);

    // --- Passthrough run: an all-zero fault plan must draw on every query
    // yet inject nothing.
    let before = ddx_obs::snapshot();
    let walks = faulty_ge_walks(&corpus, 8, &FaultPlan::none(7));
    let m = &ddx_obs::snapshot().diff(&before);
    assert!(walks > 0, "no snapshot replicated");
    let draws = counter(m, "server.fault.queries");
    assert!(draws > 0, "passthrough plan saw no traffic");
    assert_eq!(counter_family(m, "server.fault.injected{"), 0);
    assert_eq!(counter(m, "server.fault.passed"), draws);

    // --- Legacy accessor parity: with this test single-threaded and alone
    // in its binary, an instance's stats delta IS the registry delta.
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: std::collections::BTreeSet::from([ErrorCode::RrsigExpired]),
    };
    let rep = replicate(&request, 1_000_000, 0xB0B).expect("replicates");
    let net = FaultNetwork::new(&rep.sandbox.testbed, FaultPlan::uniform(3, 40));
    let (hits_before, misses_before) = rep.sandbox.testbed.answer_cache_stats();
    let before = ddx_obs::snapshot();
    let _report = grok(&probe(&net, &rep.probe));
    let delta = ddx_obs::snapshot().diff(&before);

    let stats = net.fault_stats();
    assert_eq!(
        counter(&delta, "server.fault.queries"),
        stats.passed + stats.injected(),
    );
    assert_eq!(counter(&delta, "server.fault.passed"), stats.passed);
    assert_eq!(
        counter_family(&delta, "server.fault.injected{"),
        stats.injected(),
    );
    let (hits_after, misses_after) = rep.sandbox.testbed.answer_cache_stats();
    assert_eq!(
        counter(&delta, "server.answer_memo.hits"),
        hits_after - hits_before,
    );
    assert_eq!(
        counter(&delta, "server.answer_memo.misses"),
        misses_after - misses_before,
    );

    // --- Grok-memo registry parity: two incremental revalidations of one
    // unchanged sandbox — the second is all hits, and the registry deltas
    // must mirror the memo's own stats exactly.
    let before = ddx_obs::snapshot();
    let mut memo = ddx_dnsviz::GrokMemo::new();
    let first = memo.probe_grok(&rep.sandbox.testbed, &rep.sandbox.testbed, &rep.probe);
    let second = memo.probe_grok(&rep.sandbox.testbed, &rep.sandbox.testbed, &rep.probe);
    assert_eq!(first.to_json(), second.to_json());
    let delta = ddx_obs::snapshot().diff(&before);
    let s = memo.stats();
    assert_eq!(s.lookups, s.hits + s.misses);
    assert!(s.hits > 0, "warm revalidation reused nothing");
    assert!(s.misses > 0, "cold revalidation missed nothing");
    assert_eq!(counter(&delta, "grok.memo.lookups"), s.lookups);
    assert_eq!(counter(&delta, "grok.memo.hits"), s.hits);
    assert_eq!(counter(&delta, "grok.memo.misses"), s.misses);
    assert_eq!(counter(&delta, "grok.memo.invalidations"), s.invalidations);
    assert_eq!(counter(&delta, "probe.zones_skipped"), s.hits);

    // --- Validation-budget ledger: building an adversarial sandbox meters
    // nothing; each truncated analysis trips at most once per zone the memo
    // actually re-analyzed; and the work counters are monotone across a
    // two-pass run (the tripped cut force-dirties, so the second pass does
    // fresh work instead of splicing the truncation from cache).
    let before = ddx_obs::snapshot();
    let atk = replicate_attack(AttackFamily::SigJam, 1_000_000, 0xBAD5).expect("attack replicates");
    let base = ddx_obs::snapshot();
    assert_eq!(
        counter(&base.diff(&before), "grok.budget.exceeded"),
        0,
        "replication alone performed grok work"
    );

    let mut memo = ddx_dnsviz::GrokMemo::new();
    let first = memo.probe_grok(&atk.sandbox.testbed, &atk.sandbox.testbed, &atk.probe);
    let d1 = ddx_obs::snapshot().diff(&base);
    assert!(
        first.codes().contains(&ErrorCode::ValidationBudgetExceeded),
        "SigJam did not trip: {:?}",
        first.codes()
    );
    assert!(counter(&d1, "grok.budget.sig_verifications") > 0);
    assert!(counter(&d1, "grok.budget.exceeded") >= 1);
    assert!(
        counter(&d1, "grok.budget.exceeded") <= counter(&d1, "grok.memo.lookups"),
        "more trips than zones accounted for"
    );

    let second = memo.probe_grok(&atk.sandbox.testbed, &atk.sandbox.testbed, &atk.probe);
    let d2 = ddx_obs::snapshot().diff(&base);
    assert_eq!(first.to_json(), second.to_json());
    assert!(
        counter(&d2, "grok.budget.sig_verifications")
            > counter(&d1, "grok.budget.sig_verifications"),
        "second pass over a tripped zone reused the truncated analysis"
    );
    assert!(counter(&d2, "grok.budget.exceeded") > counter(&d1, "grok.budget.exceeded"));
    assert!(counter(&d2, "grok.budget.exceeded") <= counter(&d2, "grok.memo.lookups"));
}

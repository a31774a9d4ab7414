//! Cross-crate observability invariants: the global-registry deltas over a
//! full evaluation run must balance exactly — every answer-memo lookup is a
//! hit or a miss, every fault draw is passed or injected, every probe query
//! lands in exactly one outcome bucket — and each layer counts its events
//! once: six grok pass timings per analysed zone, one `fixer.iterations`
//! bump per iteration log, signature-cache hits on a warm re-sign.
//!
//! Everything lives in ONE `#[test]` function: the registry is
//! process-global, and a concurrently running sibling test in this binary
//! would bump counters between our before/after snapshots.

use std::collections::{BTreeMap, BTreeSet};

use ddx::prelude::*;
use ddx_server::{build_sandbox, FaultNetwork, FaultPlan, ZoneSpec};

/// The per-snapshot seed base the evaluation tests have always used.
const SEED: u64 = 0xE7A1;

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
    let sent = m.counter("probe.queries.sent");
    let outcomes = counter_family(m, "probe.queries{");
    assert!(sent > 0, "no probe queries sent");
    assert_eq!(outcomes, sent, "every probe query has exactly one outcome");
    assert!(m.counter("probe.queries{outcome=ok}") <= sent);
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
fn pipeline_metrics_balance_and_count_each_event_once() {
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
    assert_eq!(m.counter("campaign.zones"), zones);
    // The synthetic corpus is algorithmically benign: grok meters real
    // validation work, but nothing in it trips the default budget.
    assert!(
        m.counter("grok.budget.sig_verifications") > 0,
        "no signature work metered across a full pipeline run"
    );
    assert_eq!(
        m.counter("grok.budget.exceeded"),
        0,
        "benign corpus tripped a validation budget"
    );
    // One probe walk per GE diagnosis plus one per fixer iteration.
    assert!(m.counter("probe.walks") >= zones);
    assert_probe_outcomes_balance(m);

    // In-process answers resolve through the zone index.
    assert!(
        m.counter("server.zone_index.builds") > 0,
        "no server traffic recorded"
    );
    // Answer memo: hits + misses == lookups.
    let lookups = m.counter("server.answer_memo.lookups");
    assert_eq!(
        m.counter("server.answer_memo.hits") + m.counter("server.answer_memo.misses"),
        lookups,
    );

    // Grok memo: every zone the incremental revalidator accounts for is
    // either spliced from cache or probed live, and the probe layer's
    // zones-skipped counter mirrors the hits exactly.
    let gm_lookups = m.counter("grok.memo.lookups");
    assert!(gm_lookups > 0, "fixer ran no incremental revalidations");
    assert_eq!(
        m.counter("grok.memo.hits") + m.counter("grok.memo.misses"),
        gm_lookups,
    );
    assert_eq!(
        m.counter("probe.zones_skipped"),
        m.counter("grok.memo.hits")
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
    assert_eq!(m.counter("probe.walks"), walks);
    assert_probe_outcomes_balance(m);

    // Fault accounting: passed + Σ injected == draws.
    let draws = m.counter("server.fault.queries");
    assert!(draws > 0, "the fault plan saw no traffic");
    let injected = counter_family(m, "server.fault.injected{");
    assert!(injected > 0, "uniform 60‰ plan injected nothing");
    assert_eq!(m.counter("server.fault.passed") + injected, draws);

    // --- Passthrough run: an all-zero fault plan must draw on every query
    // yet inject nothing.
    let before = ddx_obs::snapshot();
    let walks = faulty_ge_walks(&corpus, 8, &FaultPlan::none(7));
    let m = &ddx_obs::snapshot().diff(&before);
    assert!(walks > 0, "no snapshot replicated");
    let draws = m.counter("server.fault.queries");
    assert!(draws > 0, "passthrough plan saw no traffic");
    assert_eq!(counter_family(m, "server.fault.injected{"), 0);
    assert_eq!(m.counter("server.fault.passed"), draws);

    // --- Grok passes: a scratch grok of a fault-free replica times each
    // of the six analysis passes once per zone it analyses.
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: BTreeSet::from([ErrorCode::RrsigExpired]),
    };
    let rep = replicate(&request, 1_000_000, 0xB0B).expect("replicates");
    let before = ddx_obs::snapshot();
    let report = grok(&probe(&rep.sandbox.testbed, &rep.probe));
    let delta = ddx_obs::snapshot().diff(&before);
    let passes: BTreeMap<&str, u64> = delta
        .histograms
        .iter()
        .filter_map(|(k, h)| {
            let pass = k.strip_prefix("grok.pass_us{pass=")?.strip_suffix('}')?;
            Some((pass, h.count))
        })
        .collect();
    let zones = report.zones.len() as u64;
    assert!(zones > 0);
    assert_eq!(passes.len(), 6, "{passes:?}");
    assert!(passes.contains_key("denial"), "{passes:?}");
    assert_eq!(passes.values().sum::<u64>(), zones * 6, "{passes:?}");

    // --- Grok memo: two incremental revalidations of one unchanged
    // sandbox — the first probes every zone, the second splices every zone
    // from cache, and the probe layer's zones-skipped counter mirrors the
    // hits exactly.
    let before = ddx_obs::snapshot();
    let mut memo = ddx_dnsviz::GrokMemo::new();
    let first = memo.probe_grok(&rep.sandbox.testbed, &rep.sandbox.testbed, &rep.probe);
    let cold = ddx_obs::snapshot().diff(&before);
    let second = memo.probe_grok(&rep.sandbox.testbed, &rep.sandbox.testbed, &rep.probe);
    assert_eq!(first.to_json(), second.to_json());
    let delta = ddx_obs::snapshot().diff(&before);
    let hits = delta.counter("grok.memo.hits");
    let misses = delta.counter("grok.memo.misses");
    assert_eq!(delta.counter("grok.memo.lookups"), hits + misses);
    assert_eq!(
        cold.counter("grok.memo.hits"),
        0,
        "cold revalidation reused"
    );
    assert!(misses > 0, "cold revalidation missed nothing");
    assert_eq!(hits, misses, "warm revalidation must reuse every zone");
    assert_eq!(delta.counter("grok.memo.invalidations"), 0);
    assert_eq!(delta.counter("probe.zones_skipped"), hits);

    // --- DFixer: one `fixer.iterations` bump per iteration log.
    let mut rep = replicate(&request, 1_000_000, 0x7ACE).expect("replicates");
    let cfg = rep.probe.clone();
    let before = ddx_obs::snapshot();
    let run = run_fixer(&mut rep.sandbox, &cfg, &FixerOptions::default());
    let delta = ddx_obs::snapshot().diff(&before);
    assert!(run.fixed);
    assert_eq!(
        delta.counter("fixer.iterations"),
        run.iterations.len() as u64
    );

    // --- Signature cache: the first re-sign of a zone populates the
    // sandbox's cache, and a second re-sign in the same signer window
    // (unchanged data bar the serial bump) reuses most signatures.
    let mut sb = build_sandbox(
        &[
            ZoneSpec::conventional(ddx_dns::name("a.com")),
            ZoneSpec::conventional(ddx_dns::name("par.a.com")),
            ZoneSpec::conventional(ddx_dns::name("chd.par.a.com")),
        ],
        1_000_000,
        7,
    );
    let apex = ddx_dns::name("chd.par.a.com");
    let before = ddx_obs::snapshot();
    sb.resign_zone(&apex, 1_000_010).unwrap();
    let first = ddx_obs::snapshot().diff(&before);
    assert!(
        first.counter("dnssec.sig_cache.misses") > 0,
        "cold pass populates the cache"
    );
    let before = ddx_obs::snapshot();
    sb.resign_zone(&apex, 1_000_020).unwrap();
    let second = ddx_obs::snapshot().diff(&before);
    assert!(
        second.counter("dnssec.sig_cache.hits") > 0,
        "warm pass must hit the cache"
    );

    // --- Validation-budget ledger: building an adversarial sandbox meters
    // nothing; each truncated analysis trips at most once per zone the memo
    // actually re-analyzed; and the work counters are monotone across a
    // two-pass run (the tripped cut force-dirties, so the second pass does
    // fresh work instead of splicing the truncation from cache).
    let before = ddx_obs::snapshot();
    let atk = replicate_attack(AttackFamily::SigJam, 1_000_000, 0xBAD5).expect("attack replicates");
    let base = ddx_obs::snapshot();
    assert_eq!(
        base.diff(&before).counter("grok.budget.exceeded"),
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
    assert!(d1.counter("grok.budget.sig_verifications") > 0);
    assert!(d1.counter("grok.budget.exceeded") >= 1);
    assert!(
        d1.counter("grok.budget.exceeded") <= d1.counter("grok.memo.lookups"),
        "more trips than zones accounted for"
    );

    let second = memo.probe_grok(&atk.sandbox.testbed, &atk.sandbox.testbed, &atk.probe);
    let d2 = ddx_obs::snapshot().diff(&base);
    assert_eq!(first.to_json(), second.to_json());
    assert!(
        d2.counter("grok.budget.sig_verifications") > d1.counter("grok.budget.sig_verifications"),
        "second pass over a tripped zone reused the truncated analysis"
    );
    assert!(d2.counter("grok.budget.exceeded") > d1.counter("grok.budget.exceeded"));
    assert!(d2.counter("grok.budget.exceeded") <= d2.counter("grok.memo.lookups"));
}

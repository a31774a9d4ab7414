//! Equivalence harness for the incremental probe→grok layer: a
//! [`GrokMemo`]-driven revalidation must be **byte-for-byte identical**
//! (report JSON) to a from-scratch `grok(&probe(..))` of the same state,
//! across the shared zone-variant corpus, random mutation sequences, and
//! deterministic fault plans — while reusing every zone the mutations did
//! not touch.
//!
//! Reuse is read from the `grok.memo.*` counters of the process-global
//! registry. Every test holds [`serial`] for its whole run, so no sibling
//! test bumps them between a test's snapshots and the deltas are exact.

use std::net::Ipv4Addr;

use ddx_dns::{name, RData, Record, RrType};
use ddx_dnsviz::{grok, probe, ErrorCode, GrokMemo};
use ddx_obs::MetricsSnapshot;
use ddx_prop::{check, vec, Rng};
use ddx_replicator::{inject_attack, AttackFamily};
use ddx_server::{FaultNetwork, FaultPlan, Sandbox};

mod common;
use common::{
    build_variant, probe_cfg, serial, ANCHOR_APEX, LEAF_APEX, NOW, PAR_APEX, VARIANT_NAMES,
};

/// The `grok.memo.*` counter deltas since `since`, as `(hits, misses,
/// invalidations)`. Checks that every zone counted is a hit or a miss.
fn memo_delta(since: &MetricsSnapshot) -> (u64, u64, u64) {
    let d = ddx_obs::snapshot().diff(since);
    let c = |key: &str| d.counter(key);
    let (hits, misses) = (c("grok.memo.hits"), c("grok.memo.misses"));
    assert_eq!(c("grok.memo.lookups"), hits + misses);
    (hits, misses, c("grok.memo.invalidations"))
}

/// One deterministic sandbox mutation, selected by `op`. `round` feeds
/// fresh record names so repeated adds stay distinct.
fn apply_mutation(sb: &mut Sandbox, op: u8, round: usize) {
    let a = |last: u8| RData::A(Ipv4Addr::new(192, 0, 2, last));
    match op % 8 {
        0 => sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
            z.add(Record::new(
                name(&format!("extra{round}.{LEAF_APEX}")),
                300,
                a(100 + round as u8),
            ));
        }),
        1 => {
            let _ = sb.resign_zone(&name(LEAF_APEX), NOW);
        }
        2 => sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
            z.strip_type(RrType::Rrsig);
        }),
        3 => sb.set_ds(&name(LEAF_APEX), Vec::new(), NOW),
        4 => sb.testbed.mutate_zone_everywhere(&name(PAR_APEX), |z| {
            z.add(Record::new(
                name(&format!("extra{round}.{PAR_APEX}")),
                300,
                a(150 + round as u8),
            ));
        }),
        5 => sb.testbed.mutate_zone_everywhere(&name(ANCHOR_APEX), |z| {
            z.add(Record::new(
                name(&format!("extra{round}.{ANCHOR_APEX}")),
                300,
                a(200 + round as u8),
            ));
        }),
        6 => {
            let _ = sb.resign_zone(&name(PAR_APEX), NOW);
        }
        _ => sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
            z.strip_type(RrType::Nsec);
        }),
    }
}

/// The headline pin: across every corpus variant and a random sequence
/// of zone mutations, incremental revalidation through one long-lived
/// memo serializes byte-for-byte like a from-scratch run after every
/// step, and the memo's accounting stays balanced.
#[test]
fn incremental_report_equals_scratch() {
    let _serial = serial();
    check("incremental_report_equals_scratch", 32, |rng| {
        let start = ddx_obs::snapshot();
        let variant_idx = rng.gen_range(0usize..8);
        let ops = vec(rng, 1..6, |r| r.gen_range(0u8..8));
        let label = VARIANT_NAMES[variant_idx];
        let mut sb = build_variant(label);
        let cfg = probe_cfg(&sb);
        let mut memo = GrokMemo::new();
        let first = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
        assert_eq!(
            first.to_json(),
            grok(&probe(&sb.testbed, &cfg)).to_json(),
            "variant={} cold run diverged",
            label
        );
        for (round, op) in ops.iter().enumerate() {
            apply_mutation(&mut sb, *op, round);
            let inc = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
            let scratch = grok(&probe(&sb.testbed, &cfg));
            assert_eq!(
                inc.to_json(),
                scratch.to_json(),
                "variant={} op={} round={}",
                label,
                op,
                round
            );
        }
        memo_delta(&start);
    });
}

/// Chaos pin: under a deterministic fault plan (fresh [`FaultNetwork`]
/// per walk, same seed, no flap — flapping advances a per-instance
/// clock and is order-dependent by design), incremental and scratch
/// runs still agree after every mutation: clean cached observations
/// were taken under identical per-query draws, and any gapped zone is
/// forced dirty and re-probed live.
#[test]
fn incremental_equals_scratch_under_chaos() {
    let _serial = serial();
    check("incremental_equals_scratch_under_chaos", 32, |rng| {
        let start = ddx_obs::snapshot();
        let variant_idx = rng.gen_range(0usize..8);
        let seed = rng.gen_range(0u64..64);
        let ops = vec(rng, 1..4, |r| r.gen_range(0u8..8));
        let label = VARIANT_NAMES[variant_idx];
        let mut sb = build_variant(label);
        let cfg = probe_cfg(&sb);
        let permille = 40 + (seed % 7) as u16 * 20;
        let plan = FaultPlan {
            max_faulty_attempts: if seed % 2 == 0 { Some(2) } else { None },
            ..FaultPlan::uniform(seed, permille)
        };
        let mut memo = GrokMemo::new();
        for (round, op) in ops.iter().enumerate() {
            if round > 0 {
                apply_mutation(&mut sb, *op, round);
            }
            let inc_net = FaultNetwork::new(&sb.testbed, plan.clone());
            let inc = memo.probe_grok(&inc_net, &sb.testbed, &cfg);
            let scratch_net = FaultNetwork::new(&sb.testbed, plan.clone());
            let scratch = grok(&probe(&scratch_net, &cfg));
            assert_eq!(
                inc.to_json(),
                scratch.to_json(),
                "variant={} seed={} op={} round={}",
                label,
                seed,
                op,
                round
            );
        }
        memo_delta(&start);
    });
}

/// A warm memo over unchanged state reuses every zone without a query.
#[test]
fn warm_rerun_reuses_every_zone() {
    let _serial = serial();
    let sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    let first = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (h1, m1, _) = memo_delta(&start);
    assert_eq!((h1, m1), (0, 3), "cold run: all misses");
    let second = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (h2, m2, inv) = memo_delta(&start);
    assert_eq!((h2, m2), (3, 3), "warm run: all hits");
    assert_eq!(inv, 0);
    assert_eq!(first.to_json(), second.to_json());
}

/// A leaf-content change dirties exactly the leaf; the anchor and the
/// intermediate zone splice from cache.
#[test]
fn leaf_change_reprobes_only_the_leaf() {
    let _serial = serial();
    let mut sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    sb.testbed
        .mutate_zone_everywhere(&name(LEAF_APEX), |z| z.bump_serial());
    let report = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (hits, misses, invalidations) = memo_delta(&start);
    assert_eq!((hits, misses), (2, 4), "anchor+par reused, leaf re-probed");
    assert_eq!(invalidations, 1);
    assert_eq!(report.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

/// A parent-side change (DS update) dirties the parent **and** its child
/// through the parent edge of the memo key.
#[test]
fn parent_change_dirties_the_child_too() {
    let _serial = serial();
    let mut sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    sb.set_ds(&name(LEAF_APEX), Vec::new(), NOW);
    let report = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (hits, misses, _) = memo_delta(&start);
    assert_eq!((hits, misses), (1, 5), "only the anchor survives");
    assert_eq!(report.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

/// An anchor (trust-anchor zone) change flushes the whole chain.
#[test]
fn anchor_change_flushes_everything() {
    let _serial = serial();
    let mut sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    sb.testbed
        .mutate_zone_everywhere(&name(ANCHOR_APEX), |z| z.bump_serial());
    let report = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (hits, misses, _) = memo_delta(&start);
    assert_eq!((hits, misses), (0, 6), "nothing survives an anchor change");
    assert_eq!(report.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

/// A clock move keeps every cached probe (zero queries) but re-runs the
/// analysis: RRSIG validity windows read the clock.
#[test]
fn clock_move_reuses_probes_and_reruns_analysis() {
    let _serial = serial();
    let sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let mut later = cfg.clone();
    later.time = NOW + 500;
    let report = memo.probe_grok(&sb.testbed, &sb.testbed, &later);
    let (hits, misses, _) = memo_delta(&start);
    assert_eq!((hits, misses), (3, 3), "clock move alone re-probes nothing");
    assert_eq!(report.time, NOW + 500);
    assert_eq!(
        report.to_json(),
        grok(&probe(&sb.testbed, &later)).to_json()
    );
}

/// A topology change (NS registration) is an epoch change: even though no
/// zone content moved, the whole memo flushes and the next walk re-observes
/// everything under the new server map.
#[test]
fn topology_change_flushes_the_epoch() {
    let _serial = serial();
    let mut sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let target = sb.anchor().servers[0].clone();
    sb.testbed.register_ns(name("ns-spare.a.com"), target);
    let report = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (hits, misses, _) = memo_delta(&start);
    assert_eq!(
        (hits, misses),
        (0, 6),
        "epoch change leaves nothing to reuse"
    );
    assert_eq!(report.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

/// A budget trip (KeyTrap-class zone) forces its cut dirty on the next
/// round even though no generation moved — a truncated analysis is never
/// replayed from cache — and the incremental report still equals scratch
/// both while tripped and after the zone is repaired.
#[test]
fn budget_trip_forces_reprobe_until_repaired() {
    let _serial = serial();
    let mut sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);

    inject_attack(&mut sb, AttackFamily::SigJam, NOW).expect("attack injects");
    let tripped = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    assert!(
        tripped
            .codes()
            .contains(&ErrorCode::ValidationBudgetExceeded),
        "SigJam did not trip the budget: {:?}",
        tripped.codes()
    );
    assert_eq!(
        tripped.to_json(),
        grok(&probe(&sb.testbed, &cfg)).to_json(),
        "tripped incremental run diverged from scratch"
    );
    let (_, misses_after_trip, _) = memo_delta(&start);

    // Same state, same clock: the tripped cut must be re-probed anyway,
    // and deterministic truncation reproduces the same report.
    let again = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    assert!(
        memo_delta(&start).1 > misses_after_trip,
        "budget-tripped zone was spliced from cache instead of re-probed"
    );
    assert_eq!(again.to_json(), tripped.to_json());

    // Repair: re-signing strips the signature flood; the next round must
    // see the fix (not the cached truncation) and converge on the clean
    // scratch report.
    sb.resign_zone(&name(LEAF_APEX), NOW)
        .expect("leaf re-signs");
    let healed = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    assert!(
        !healed
            .codes()
            .contains(&ErrorCode::ValidationBudgetExceeded),
        "repaired zone still reports a budget trip"
    );
    assert_eq!(healed.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

/// An observation gap (dead server) forces its zone dirty on the next
/// round even though no generation moved — the probe must either re-observe
/// the fault or watch it heal; it may never reuse "couldn't see".
#[test]
fn observation_gap_forces_reprobe_until_healed() {
    let _serial = serial();
    let sb = build_variant("nsec");
    let cfg = probe_cfg(&sb);
    let start = ddx_obs::snapshot();
    let mut memo = GrokMemo::new();
    let dead = sb.leaf().servers[0].clone();
    let plan = FaultPlan {
        timeout_permille: 1000,
        only_server: Some(dead),
        ..FaultPlan::none(99)
    };
    let net = FaultNetwork::new(&sb.testbed, plan);
    let gapped = memo.probe_grok(&net, &sb.testbed, &cfg);
    assert!(!gapped.fully_observed(), "dead server must leave a gap");
    let (_, misses_after_gap, _) = memo_delta(&start);
    // Same state, same clock — but the gapped leaf must be re-probed, and
    // against the healthy network the gap heals.
    let healed = memo.probe_grok(&sb.testbed, &sb.testbed, &cfg);
    let (_, misses, _) = memo_delta(&start);
    assert!(healed.fully_observed(), "gap did not heal on re-probe");
    assert!(
        misses > misses_after_gap,
        "gapped zone was spliced from cache instead of re-probed"
    );
    assert_eq!(healed.to_json(), grok(&probe(&sb.testbed, &cfg)).to_json());
}

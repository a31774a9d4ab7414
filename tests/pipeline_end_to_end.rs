//! Full-pipeline integration test spanning every crate: corpus generation →
//! snapshot selection → ZReplicator → probe/grok → DFixer → re-verification,
//! with the Table 6 metrics computed over a real sample.

use ddx::prelude::*;
use ddx_campaign::{CampaignConfig, Outcome};

/// The per-snapshot seed base the evaluation tests have always used.
const SEED: u64 = 0xE7A1;

#[test]
fn table6_metrics_have_paper_shape() {
    let corpus = generate(&CorpusConfig {
        scale: 0.004,
        seed: 11,
    });
    let summary = evaluate_corpus(&corpus, 120, SEED, 2);
    let (s1, s2) = (&summary.table6[0], &summary.table6[1]);
    let total = summary.benign_total();
    assert!(total.zones >= 100, "sample too small: {}", total.zones);

    // Replication-rate shape: S1 near-perfect, S2 noticeably lower,
    // total in between (paper: 98.81% / 78.71% / 90.11%).
    assert!(s1.rr() > 0.93, "s1 rr {}", s1.rr());
    assert!(s2.rr() < s1.rr(), "s2 {} !< s1 {}", s2.rr(), s1.rr());
    assert!(s2.rr() > 0.5, "s2 rr collapsed: {}", s2.rr());
    let rr = total.rr();
    assert!((0.75..=1.0).contains(&rr), "total rr {rr}");

    // Fix-rate shape: everything replicated gets fixed (paper: 99.99%).
    assert!(total.fr() > 0.99, "fr {}", total.fr());

    // Convergence budget (paper: ≤4 iterations).
    assert!(total.max_iterations <= 4, "{}", total.max_iterations);
}

#[test]
fn single_snapshot_eval_exposes_ie_ge_ae() {
    let corpus = generate(&CorpusConfig {
        scale: 0.002,
        seed: 3,
    });
    let snapshot = corpus
        .erroneous_snapshots()
        .find(|s| s.is_nzic_only())
        .expect("an NZIC-only snapshot exists");
    let record = evaluate_zone(
        &ZoneDraw::from_snapshot(snapshot, SEED, 0),
        &CampaignConfig::default(),
    );
    assert_eq!(
        record.intended,
        std::collections::BTreeSet::from([ErrorCode::Nsec3IterationsNonzero])
    );
    assert_eq!(
        record.outcome,
        Outcome::Fixed,
        "generated {:?}, residual {:?}",
        record.generated,
        record.final_errors
    );
    assert!(record
        .generated
        .contains(&ErrorCode::Nsec3IterationsNonzero));
    assert!(record.final_errors.is_empty());
    assert!(record.iterations >= 1);
    // Fixing NZIC is a re-sign (paper §5.4).
    assert!(record
        .instructions
        .iter()
        .any(|(_, k)| *k == InstructionKind::SignZone));
}

#[test]
fn table7_histogram_dominated_by_signing_and_ds() {
    let corpus = generate(&CorpusConfig {
        scale: 0.004,
        seed: 21,
    });
    let summary = evaluate_corpus(&corpus, 150, SEED, 2);
    let hist = &summary.table7.instruction_histogram;
    assert!(!hist.is_empty());
    let count = |k: InstructionKind| {
        hist.iter()
            .find(|(kind, _)| *kind == k)
            .map(|(_, cols)| cols[0])
            .unwrap_or(0)
    };
    let sign = count(InstructionKind::SignZone);
    let ds_remove = count(InstructionKind::RemoveIncorrectDs);
    assert!(sign > 0, "no sign instructions");
    // Paper Table 7: signing and DS removal are the two dominant first-
    // iteration instructions.
    for (kind, cols) in hist {
        if !matches!(
            kind,
            InstructionKind::SignZone | InstructionKind::RemoveIncorrectDs
        ) {
            assert!(
                cols[0] <= sign.max(ds_remove),
                "{kind} unexpectedly dominates"
            );
        }
    }
}

#[test]
fn unreplicable_errors_depress_rr_not_fr() {
    // Snapshots containing unreplicable codes must count against RR while
    // leaving FR untouched (they never reach the fixer).
    let corpus = generate(&CorpusConfig {
        scale: 0.01,
        seed: 31,
    });
    let cfg = CampaignConfig::default();
    let mut checked = 0;
    for (i, s) in corpus.erroneous_snapshots().enumerate().take(400) {
        if s.errors.iter().any(|e| !e.replicable()) {
            let record = evaluate_zone(&ZoneDraw::from_snapshot(s, SEED, i as u64), &cfg);
            assert!(
                matches!(record.outcome, Outcome::MetaError | Outcome::Unreplicated),
                "unreplicable {:?} reached the fixer: {:?}",
                s.errors,
                record.outcome
            );
            assert_eq!(record.iterations, 0);
            checked += 1;
        }
    }
    assert!(checked > 0, "corpus produced no unreplicable snapshots");
}

#[test]
fn parent_broken_snapshots_resist_child_side_fixes() {
    // The parent-bogus condition (paper §5.4): the parent's DNSKEY RRset is
    // stripped, so DFixer — which only edits the child — leaves most such
    // zones unfixed. With the flag off, every replicated one gets fixed.
    let corpus = generate(&CorpusConfig {
        scale: 0.004,
        seed: 11,
    });
    let cfg = CampaignConfig::default();
    let outcomes = |parent_broken: bool| {
        let mut counts = [0u32; 3];
        for (i, s) in corpus.erroneous_snapshots().take(60).enumerate() {
            let mut s = s.clone();
            s.parent_broken = parent_broken;
            let record = evaluate_zone(&ZoneDraw::from_snapshot(&s, SEED, i as u64), &cfg);
            match record.outcome {
                Outcome::Fixed => counts[0] += 1,
                Outcome::Unfixed => counts[1] += 1,
                Outcome::Unreplicated | Outcome::MetaError => counts[2] += 1,
            }
        }
        counts
    };
    // [fixed, unfixed, unreplicated]
    assert_eq!(outcomes(true), [7, 45, 8]);
    assert_eq!(outcomes(false), [52, 0, 8]);
}

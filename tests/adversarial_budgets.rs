//! Seed-swept adversarial-budget harness: every KeyTrap-class attack
//! family ([`AttackFamily`]) is replicated under a sweep of sandbox seeds
//! and groked under the default [`ValidationBudget`]. The sweep must never
//! panic, every attack must trip the budget into the typed
//! `ValidationBudgetExceeded` finding, and — the headline bound — the
//! *work actually performed* (signature verifications + NSEC3 hash rounds,
//! read from the process-global obs registry) must stay within 10× the
//! median work of the benign 8-variant zone corpus. DFixer must then
//! repair each attack zone within the Table-7 iteration bound.
//!
//! Failing cases are reported as one-line repro commands, replayable via
//! the same environment protocol as `probe_resilience`:
//!
//! ```text
//! CHAOS_SEED=17 CHAOS_VARIANT=sigjam \
//!     cargo test -q -p ddx --test adversarial_budgets -- seed_sweep
//! ```
//!
//! `CHAOS_SEEDS=<n>` caps the sweep (CI smoke runs use a small fixed set).
//!
//! Everything lives in ONE `#[test]` function: the work counters are
//! process-global (see `metrics_invariants`), and a concurrently running
//! sibling test in this binary would bump them between our before/after
//! snapshots.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ddx::prelude::*;
use ddx_dnsviz::{ErrorDetail, ProbeConfig, RetryPolicy};
use ddx_replicator::{replicate_attack, AttackFamily};

const NOW: u32 = 1_000_000;
const SANDBOX_SEED: u64 = 0xC7A0;
const QUERY_DOMAIN: &str = "www.chd.par.a.com";
const LEAF_APEX: &str = "chd.par.a.com";
const PAR_APEX: &str = "par.a.com";
const ANCHOR_APEX: &str = "a.com";

/// The bound on adversarial grok work, as a multiple of the benign-corpus
/// median. The default budget caps are set a few multiples above benign
/// medians, so a tripped-and-truncated analysis lands well under this.
const WORK_BOUND_FACTOR: u64 = 10;

fn sweep_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed = s.parse().expect("CHAOS_SEED must be an integer seed");
        return vec![seed];
    }
    let n = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24u64);
    (0..n).collect()
}

fn repro_line(seed: u64, family: &str) -> String {
    format!(
        "CHAOS_SEED={seed} CHAOS_VARIANT={family} \
         cargo test -q -p ddx --test adversarial_budgets -- seed_sweep"
    )
}

/// The grok work one closure performed, read as registry deltas.
struct WorkDelta {
    sig: u64,
    nsec3: u64,
    exceeded: u64,
}

impl WorkDelta {
    fn total(&self) -> u64 {
        self.sig + self.nsec3
    }
}

fn measured<T>(f: impl FnOnce() -> T) -> (T, WorkDelta) {
    let before = ddx_obs::snapshot();
    let out = f();
    let delta = ddx_obs::snapshot().diff(&before);
    let c = |key: &str| delta.counter(key);
    (
        out,
        WorkDelta {
            sig: c("grok.budget.sig_verifications"),
            nsec3: c("grok.budget.nsec3_hashes"),
            exceeded: c("grok.budget.exceeded"),
        },
    )
}

// --- The benign corpus: the same 8 zone-shape variants as the dnsviz
// integration corpus (crates/dnsviz/tests/common), rebuilt here because
// per-crate test modules are not importable across crates.

fn benign_sandbox(tweak: impl FnOnce(&mut ZoneSpec), mutate: impl FnOnce(&mut Sandbox)) -> Sandbox {
    let mut leaf = ZoneSpec::conventional(name(LEAF_APEX));
    tweak(&mut leaf);
    let mut sb = build_sandbox(
        &[
            ZoneSpec::conventional(name(ANCHOR_APEX)),
            ZoneSpec::conventional(name(PAR_APEX)),
            leaf,
        ],
        NOW,
        SANDBOX_SEED,
    );
    mutate(&mut sb);
    sb
}

fn benign_variants() -> Vec<(&'static str, Sandbox)> {
    vec![
        ("nsec", benign_sandbox(|_| {}, |_| {})),
        (
            "nsec-wildcard",
            benign_sandbox(|s| s.wildcard = true, |_| {}),
        ),
        (
            "nsec3",
            benign_sandbox(|s| s.nsec3 = Some(Nsec3Config::default()), |_| {}),
        ),
        (
            "nsec3-optout-wildcard",
            benign_sandbox(
                |s| {
                    s.nsec3 = Some(Nsec3Config {
                        opt_out: true,
                        ..Nsec3Config::default()
                    });
                    s.wildcard = true;
                },
                |_| {},
            ),
        ),
        (
            "nsec-broken-chain",
            benign_sandbox(
                |_| {},
                |sb| {
                    sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                        z.remove(&name(QUERY_DOMAIN), RrType::Nsec);
                    });
                },
            ),
        ),
        (
            "nsec-corrupt-next",
            benign_sandbox(
                |_| {},
                |sb| {
                    sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                        if let Some(set) = z.get_mut(&name(LEAF_APEX), RrType::Nsec) {
                            for rdata in &mut set.rdatas {
                                if let RData::Nsec(n) = rdata {
                                    n.next_name = name("zzz.outside.test");
                                }
                            }
                        }
                    });
                },
            ),
        ),
        (
            "nsec3-stripped-sigs",
            benign_sandbox(
                |s| s.nsec3 = Some(Nsec3Config::default()),
                |sb| {
                    sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                        z.strip_type(RrType::Rrsig);
                    });
                },
            ),
        ),
        ("no-ds", benign_sandbox(|s| s.publish_ds = false, |_| {})),
    ]
}

fn benign_probe_cfg(sb: &Sandbox) -> ProbeConfig {
    ProbeConfig {
        anchor_zone: sb.anchor().apex.clone(),
        anchor_servers: sb.anchor().servers.clone(),
        query_domain: name(QUERY_DOMAIN),
        target_types: vec![RrType::A],
        time: NOW,
        retry: RetryPolicy::default(),
        hints: sb
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    }
}

/// Median grok work across the benign corpus. Broken-but-cheap variants
/// (stripped sigs, severed chains) belong in the profile: "benign" here
/// means *algorithmically* benign, not error-free.
fn benign_median_work() -> u64 {
    let mut works = Vec::new();
    for (label, sb) in benign_variants() {
        let cfg = benign_probe_cfg(&sb);
        let (report, work) = measured(|| grok(&probe(&sb.testbed, &cfg)));
        assert_eq!(
            work.exceeded, 0,
            "benign variant {label} tripped the default budget \
             (sig={} nsec3={}); the corpus no longer calibrates the bound",
            work.sig, work.nsec3
        );
        assert!(
            !report
                .codes()
                .contains(&ErrorCode::ValidationBudgetExceeded),
            "benign variant {label} reported a budget error without a trip"
        );
        works.push(work.total());
    }
    works.sort_unstable();
    let mid = works.len() / 2;
    let median = (works[mid - 1] + works[mid]) / 2;
    assert!(
        median > 0,
        "benign corpus performed no measurable grok work"
    );
    median
}

fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[test]
fn seed_sweep() {
    let variant_filter = std::env::var("CHAOS_VARIANT").ok();
    let median = benign_median_work();
    let bound = WORK_BOUND_FACTOR * median;
    let mut failing: Vec<String> = Vec::new();

    for seed in sweep_seeds() {
        for family in AttackFamily::ALL {
            if let Some(f) = &variant_filter {
                if f != family.label() {
                    continue;
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let rep = replicate_attack(family, NOW, seed).expect("attack replicates");
                assert!(rep.skipped.is_empty(), "attack skipped: {:?}", rep.skipped);
                let (report, work) = measured(|| grok(&probe(&rep.sandbox.testbed, &rep.probe)));
                // The default budget must trip, and the finding must be
                // the typed extension code — not a panic, not an OOM, not
                // an unbounded slow walk.
                assert!(
                    work.exceeded >= 1,
                    "no budget trip recorded (sig={} nsec3={})",
                    work.sig,
                    work.nsec3
                );
                assert!(
                    report
                        .codes()
                        .contains(&ErrorCode::ValidationBudgetExceeded),
                    "budget tripped but no typed finding; codes {:?}",
                    report.codes()
                );
                // The headline bound: work actually performed stays within
                // a small multiple of the benign median, however much work
                // the zone *demands*.
                assert!(
                    work.total() <= bound,
                    "adversarial grok work {} (sig={} nsec3={}) exceeds \
                     {WORK_BOUND_FACTOR}x benign median {median}",
                    work.total(),
                    work.sig,
                    work.nsec3
                );
                // Truncated reports still serialize and parse back.
                let json = report.to_json();
                GrokReport::from_json(&json).expect("adversarial report round-trips");
            }));
            if let Err(payload) = outcome {
                failing.push(format!(
                    "{}\n    # {}",
                    repro_line(seed, family.label()),
                    panic_note(payload.as_ref())
                ));
            }
        }
    }
    assert!(
        failing.is_empty(),
        "adversarial sweep failed; repro each with:\n{}",
        failing.join("\n")
    );

    // --- DFixer convergence: each attack family is repaired within the
    // Table-7 iteration bound, and the repaired zone is cheap to validate
    // again (the work bound holds without any budget trip).
    let opts = FixerOptions::default();
    for (i, family) in AttackFamily::ALL.into_iter().enumerate() {
        let mut rep = replicate_attack(family, NOW, 0xF1A7 + i as u64).expect("attack replicates");
        assert!(
            rep.skipped.is_empty(),
            "{family}: skipped {:?}",
            rep.skipped
        );
        let cfg = rep.probe.clone();
        let before = grok(&probe(&rep.sandbox.testbed, &cfg));
        assert!(
            before
                .codes()
                .contains(&ErrorCode::ValidationBudgetExceeded),
            "{family}: zone not adversarial before fixing: {:?}",
            before.codes()
        );
        // The typed detail names the counter the family was built to
        // exhaust — the contract the fixer plans against.
        let counter = before
            .errors()
            .find(|e| e.code == ErrorCode::ValidationBudgetExceeded)
            .map(|e| e.detail.clone());
        match counter {
            Some(ErrorDetail::BudgetExceeded { counter, used, cap }) => {
                assert_eq!(counter, family.counter(), "{family}");
                assert!(used > cap, "{family}: used {used} <= cap {cap}");
            }
            other => panic!("{family}: unexpected detail {other:?}"),
        }

        let run = run_fixer(&mut rep.sandbox, &cfg, &opts);
        assert!(run.fixed, "{family}: residual {:?}", run.final_errors);
        assert!(
            run.iterations.len() <= opts.max_iterations,
            "{family}: {} iterations exceeds the Table-7 bound {}",
            run.iterations.len(),
            opts.max_iterations
        );

        let (after, work) = measured(|| grok(&probe(&rep.sandbox.testbed, &cfg)));
        assert_eq!(work.exceeded, 0, "{family}: repaired zone still trips");
        assert!(
            after.codes().is_empty(),
            "{family}: repaired zone still broken: {:?}",
            after.codes()
        );
        assert_eq!(after.status, SnapshotStatus::Sv, "{family}");
        assert!(
            work.total() <= bound,
            "{family}: repaired zone still expensive: {} > {bound}",
            work.total()
        );
    }
}

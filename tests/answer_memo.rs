//! The generation-stamped answer memo under a real workload: a DFixer run
//! re-probes the sandbox every iteration, and every re-asked question whose
//! zone has not mutated since must be served from the per-server memo
//! (pointer bumps, not re-assembled responses). This pins the
//! `server.answer_memo.*` registry counters end-to-end.
//!
//! The registry is process-global. Every test holds [`serial`] for its
//! whole run, so no sibling test bumps the counters between a test's
//! snapshots and the deltas are exact.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ddx::prelude::*;

const NOW: u32 = 1_000_000;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Answer-memo `(hits, misses)` registry deltas since `since`.
fn memo_delta(since: &MetricsSnapshot) -> (u64, u64) {
    let d = ddx_obs::snapshot().diff(since);
    (
        d.counter("server.answer_memo.hits"),
        d.counter("server.answer_memo.misses"),
    )
}

#[test]
fn fixer_run_is_served_partly_from_the_answer_memo() {
    let _serial = serial();
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: BTreeSet::from([ErrorCode::RrsigExpired, ErrorCode::DsDigestInvalid]),
    };
    let mut rep = replicate(&request, NOW, 0xA11C).unwrap();
    let cfg = rep.probe.clone();

    let before = ddx_obs::snapshot();
    let run = run_fixer(&mut rep.sandbox, &cfg, &FixerOptions::default());
    assert!(run.fixed, "final errors: {:?}", run.final_errors);

    let (hits, misses) = memo_delta(&before);
    assert!(misses > 0, "probing must populate the memo");
    assert!(
        hits > 0,
        "repeat probes of unmutated zones must hit the memo (hits={hits}, misses={misses})"
    );

    // A verification probe over the fixed sandbox re-asks questions the
    // fixer's last iteration already asked: hits keep climbing, and the
    // memoized answers still grok clean.
    let report = grok(&probe(&rep.sandbox.testbed, &cfg));
    assert_eq!(report.status, SnapshotStatus::Sv);
    let (hits_after, _) = memo_delta(&before);
    assert!(hits_after > hits, "post-fix probe should be memo-served");
}

#[test]
fn mutations_between_iterations_invalidate_without_flushing_everything() {
    let _serial = serial();
    // An unbroken replica: the second probe of an untouched sandbox must be
    // answered almost entirely from the memo.
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: BTreeSet::new(),
    };
    let rep = replicate(&request, NOW, 0xA11D).unwrap();
    let cfg = rep.probe.clone();
    let first = grok(&probe(&rep.sandbox.testbed, &cfg));
    let between = ddx_obs::snapshot();
    let second = grok(&probe(&rep.sandbox.testbed, &cfg));
    let (h2, m2) = memo_delta(&between);
    assert_eq!(first.status, second.status);
    assert_eq!(m2, 0, "identical re-probe must add no memo misses");
    assert!(h2 > 0);
}

//! Thread-local ledger of *logical* DNSSEC validation work: one unit per
//! attempted signature verification, `1 + iterations` SHA-1 rounds per
//! NSEC3 hash computation.
//!
//! "Logical" is the load-bearing word: work is recorded at function entry,
//! before any memo lookup, so the ledger is a pure function of the calls
//! made — not of cache temperature. That is what lets grok charge
//! validation budgets from ledger deltas without breaking the
//! incremental==scratch byte-parity pin (a memo hit and a memo miss cost
//! the same logical work), and what the KeyTrap-style adversarial tests
//! cross-check their complexity bounds against.

use std::cell::Cell;

/// Cumulative logical work recorded on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Attempted RRSIG verifications (`verify_rrset` entries, counted
    /// before any metadata check can short-circuit).
    pub sig_verifications: u64,
    /// NSEC3 hash rounds: each `nsec3_hash(name, salt, iterations)` call
    /// records `1 + iterations` rounds, memoized or not.
    pub nsec3_hash_rounds: u64,
}

impl WorkSnapshot {
    /// Work recorded since `earlier` (snapshots from the same thread).
    pub fn since(&self, earlier: &WorkSnapshot) -> WorkSnapshot {
        WorkSnapshot {
            sig_verifications: self
                .sig_verifications
                .saturating_sub(earlier.sig_verifications),
            nsec3_hash_rounds: self
                .nsec3_hash_rounds
                .saturating_sub(earlier.nsec3_hash_rounds),
        }
    }
}

thread_local! {
    static LEDGER: Cell<WorkSnapshot> = const {
        Cell::new(WorkSnapshot {
            sig_verifications: 0,
            nsec3_hash_rounds: 0,
        })
    };
}

/// This thread's cumulative work ledger. Monotone within a thread; meter a
/// region with `WorkSnapshot::since` around it.
pub fn work_snapshot() -> WorkSnapshot {
    LEDGER.with(|c| c.get())
}

pub(crate) fn record_sig_verification() {
    LEDGER.with(|c| {
        let mut s = c.get();
        s.sig_verifications += 1;
        c.set(s);
    });
}

pub(crate) fn record_nsec3_rounds(rounds: u64) {
    LEDGER.with(|c| {
        let mut s = c.get();
        s.nsec3_hash_rounds = s.nsec3_hash_rounds.saturating_add(rounds);
        c.set(s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsec3::nsec3_hash;
    use ddx_dns::name;

    #[test]
    fn nsec3_rounds_are_memo_independent() {
        let n = name("ledger.example.com");
        let before = work_snapshot();
        nsec3_hash(&n, b"salt", 9); // cold: miss
        let cold = work_snapshot().since(&before);
        assert_eq!(cold.nsec3_hash_rounds, 10, "1 + iterations rounds");
        let mid = work_snapshot();
        nsec3_hash(&n, b"salt", 9); // warm: memo hit, same logical work
        let warm = work_snapshot().since(&mid);
        assert_eq!(warm, cold, "ledger must not see cache temperature");
    }

    #[test]
    fn zero_iteration_hash_records_one_round() {
        let before = work_snapshot();
        nsec3_hash(&name("flat.example.com"), b"", 0);
        assert_eq!(work_snapshot().since(&before).nsec3_hash_rounds, 1);
    }
}

//! Calibration constants for the synthetic DNSViz-log corpus, taken from
//! the paper's published tables (see DESIGN.md §4: the raw DNS-OARC logs
//! are access-restricted; we reproduce their marginal distributions and run
//! the identical analysis pipeline over the synthetic corpus).

use ddx_dnsviz::Subcategory;

/// Paper Table 1 — dataset composition (SLD+ rows; Root/TLD kept for the
/// overview table).
pub mod table1 {
    pub(crate) const ROOT_SNAPSHOTS: u64 = 6_234;
    pub(crate) const TLD_SNAPSHOTS: u64 = 356_136;
    pub const SLD_SNAPSHOTS: u64 = 747_455;
    pub(crate) const TLD_DOMAINS: u64 = 4_196;
    pub const SLD_DOMAINS: u64 = 319_277;
    pub(crate) const TLD_MULTI: u64 = 2_349;
    pub const SLD_MULTI: u64 = 84_962;
    pub const SLD_CD: u64 = 21_734;
    pub const SLD_SD: u64 = 63_228;
}

/// Observation window: 2020-03-11 → 2024-09-25 ≈ 39,744 hours.
pub(crate) const WINDOW_HOURS: f64 = 39_744.0;

/// Paper Table 3 — snapshot counts per subcategory (SLD+). The two cells
/// the published table leaves blank (Original TTL, Unsupported NSEC3
/// Algorithm) are estimated from their domain shares.
pub fn subcategory_snapshots(sub: Subcategory) -> u64 {
    use Subcategory::*;
    match sub {
        MissingKskForAlgorithm => 63_004,
        InvalidDigest => 1_103,
        InconsistentDnskey => 19_330,
        RevokedKey => 302,
        BadKeyLength => 108,
        IncompleteAlgorithmSetup => 6_859,
        MissingSignature => 38_662,
        ExpiredSignature => 11_670,
        InvalidSignature => 10_336,
        IncorrectSigner => 1_961,
        NotYetValidSignature => 663,
        IncorrectSignatureLabels => 99,
        BadSignatureLength => 42,
        OriginalTtlExceedsRrsetTtl => 4_485, // est. (0.6% of snapshots)
        TtlBeyondExpiration => 2_556,
        MissingNonexistenceProof => 65_378,
        IncorrectTypeBitmap => 18_218,
        BadNonexistenceProof => 9_678,
        IncorrectLastNsec => 405,
        NonzeroIterationCount => 215_036,
        InconsistentAncestorForNxdomain => 2_296,
        IncorrectClosestEncloserProof => 1_278,
        InvalidNsec3Hash => 456,
        InvalidNsec3OwnerName => 301,
        IncorrectOptOutFlag => 186,
        UnsupportedNsec3Algorithm => 24, // est. (11 domains)
        // Extension beyond Table 3 (validation budgets postdate the paper's
        // dataset); absent from `Subcategory::ALL`, so it never contributes
        // to the reproduced marginals.
        ExcessiveValidationWork => 0,
    }
}

/// Table 3 last row: snapshots with at least one DNSSEC error.
pub const ERROR_SNAPSHOTS: u64 = 296_813;
/// …and the NZIC-only subset S1 (paper Table 6).
pub const NZIC_ONLY_SNAPSHOTS: u64 = 168_482;

/// Paper Table 4 — transition counts between consecutive snapshots in the
/// CD set: `TRANSITIONS[from][to]`, order sv, svm, sb, is. Diagonals 0.
pub const TRANSITION_COUNTS: [[u64; 4]; 4] = [
    [0, 1_310, 4_064, 804],
    [3_132, 0, 5_573, 1_486],
    [8_052, 8_065, 0, 3_922],
    [2_150, 2_097, 2_001, 0],
];

/// Paper Table 4 — median transition times in hours, same indexing.
pub const TRANSITION_MEDIAN_HOURS: [[f64; 4]; 4] = [
    [0.0, 34.2, 133.7, 58.6],
    [73.4, 0.0, 104.2, 71.8],
    [0.7, 0.87, 0.0, 1.6],
    [2.7, 3.3, 1.8, 0.0],
];

/// Paper Table 2 — causes of sv→sb transitions.
pub(crate) mod table2 {
    pub(crate) const SV_SB_NS: f64 = 0.067;
    pub(crate) const SV_SB_KEY: f64 = 0.452;
    pub(crate) const SV_SB_ALGO: f64 = 0.303;
    pub(crate) const SV_IS_NS: f64 = 0.07;
    pub(crate) const SV_IS_KEY: f64 = 0.30;
    pub(crate) const SV_IS_ALGO: f64 = 0.18;
}

/// Paper Table 5 — never-resolved shares per state.
pub mod table5 {
    pub const SB_UNRESOLVED: f64 = 0.18;
    pub const SVM_UNRESOLVED: f64 = 0.619;
    pub const IS_UNRESOLVED: f64 = 0.365;
}

/// Share of metas using NSEC3 (vs NSEC); NSEC3 dominates the error set
/// because of NZIC.
pub(crate) const NSEC3_META_SHARE: f64 = 0.55;

/// Share of metas carrying a deprecated (substitutable) algorithm, and the
/// share of those that exhaust all substitutes (paper: "a small fraction").
pub(crate) const DEPRECATED_ALGO_SHARE: f64 = 0.03;
pub(crate) const ALGO_EXHAUSTED_SHARE: f64 = 0.002;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcategory_weights_sum_plausibly() {
        let total: u64 = Subcategory::ALL
            .iter()
            .map(|s| subcategory_snapshots(*s))
            .sum();
        // Error mentions exceed erroneous snapshots (multi-error snapshots),
        // as in the paper's Table 3.
        assert!(total > ERROR_SNAPSHOTS);
        assert!(total < 2 * ERROR_SNAPSHOTS);
    }

    #[test]
    fn nzic_dominates() {
        let nzic = subcategory_snapshots(Subcategory::NonzeroIterationCount);
        for s in Subcategory::ALL {
            assert!(subcategory_snapshots(s) <= nzic);
        }
        assert!(NZIC_ONLY_SNAPSHOTS < nzic);
    }

    #[test]
    fn transition_matrix_diagonal_empty() {
        for i in 0..4 {
            assert_eq!(TRANSITION_COUNTS[i][i], 0);
            assert_eq!(TRANSITION_MEDIAN_HOURS[i][i], 0.0);
        }
    }

    #[test]
    fn table1_consistency() {
        assert_eq!(table1::SLD_CD + table1::SLD_SD, table1::SLD_MULTI);
        // Constant relations checked at compile time.
        const _: () = assert!(table1::SLD_SNAPSHOTS > table1::SLD_DOMAINS);
    }
}

//! Figure 1's popularity analysis: coverage of Tranco-ranked domains in the
//! DNSViz dataset, overall / among ever-signed domains / misconfiguration
//! share, per 100K rank bin. The Tranco list itself is an external
//! artifact; we model a ranked universe with rank-dependent inclusion and
//! signing propensities matching the paper's reading of Fig 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One Tranco rank bin (100K domains at full scale).
#[derive(Debug, Clone)]
pub struct TrancoBin {
    /// Bin index: 0 = ranks 1-100K … 9 = ranks 900K-1M.
    pub bin: usize,
    pub domains: u64,
    /// Domains appearing in the DNSViz dataset.
    pub(crate) in_dataset: u64,
    /// Domains that were ever DNSSEC-signed.
    pub(crate) ever_signed: u64,
    /// Ever-signed domains appearing in the dataset.
    pub(crate) signed_in_dataset: u64,
    /// Dataset domains that were ever misconfigured (sb/svm).
    pub misconfigured: u64,
}

impl TrancoBin {
    /// Fig 1 bottom line: share of the bin present in DNSViz.
    pub fn dataset_share(&self) -> f64 {
        self.in_dataset as f64 / self.domains.max(1) as f64
    }

    /// Fig 1 middle line: share of ever-signed domains present in DNSViz.
    pub fn signed_dataset_share(&self) -> f64 {
        self.signed_in_dataset as f64 / self.ever_signed.max(1) as f64
    }

    /// Fig 1 top panel: misconfigured share among dataset domains.
    pub fn misconfigured_share(&self) -> f64 {
        self.misconfigured as f64 / self.in_dataset.max(1) as f64
    }
}

/// Generates the ten Fig 1 bins at `scale` (1.0 → 1M domains).
pub fn tranco_bins(scale: f64, seed: u64) -> Vec<TrancoBin> {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_bin = ((100_000.0 * scale).round() as u64).max(100);
    (0..10)
        .map(|bin| {
            let i = bin as f64;
            // Calibration to the paper's observations: ~20% of the top bin
            // is in the dataset, falling with rank; >30% of ever-signed
            // domains appear in every bin; misconfiguration is less common
            // among popular domains.
            let p_in = 0.20 - 0.0145 * i;
            let p_signed = 0.085 - 0.002 * i;
            let p_signed_in = 0.46 - 0.013 * i;
            let p_misconf = 0.22 + 0.022 * i;
            let mut in_dataset = 0;
            let mut ever_signed = 0;
            let mut signed_in_dataset = 0;
            let mut misconfigured = 0;
            for _ in 0..per_bin {
                let signed = rng.gen_bool(p_signed);
                if signed {
                    ever_signed += 1;
                }
                let included = if signed {
                    rng.gen_bool(p_signed_in)
                } else {
                    rng.gen_bool(p_in * 0.92)
                };
                if included {
                    in_dataset += 1;
                    if signed {
                        signed_in_dataset += 1;
                        if rng.gen_bool(p_misconf) {
                            misconfigured += 1;
                        }
                    }
                }
            }
            TrancoBin {
                bin,
                domains: per_bin,
                in_dataset,
                ever_signed,
                signed_in_dataset,
                misconfigured,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_bins_generated() {
        let bins = tranco_bins(0.05, 1);
        assert_eq!(bins.len(), 10);
        for b in &bins {
            assert_eq!(b.domains, 5_000);
            assert!(b.in_dataset <= b.domains);
            assert!(b.signed_in_dataset <= b.ever_signed);
            assert!(b.misconfigured <= b.in_dataset);
        }
    }

    #[test]
    fn top_bin_best_covered() {
        let bins = tranco_bins(0.1, 2);
        // ~20% in the top bin, decreasing with rank.
        assert!((0.15..0.25).contains(&bins[0].dataset_share()));
        assert!(bins[0].dataset_share() > bins[9].dataset_share());
    }

    #[test]
    fn signed_domains_visible_across_spectrum() {
        let bins = tranco_bins(0.1, 3);
        for b in &bins {
            assert!(
                b.signed_dataset_share() > 0.30,
                "bin {} signed share {}",
                b.bin,
                b.signed_dataset_share()
            );
        }
    }

    #[test]
    fn misconfiguration_rarer_among_popular() {
        let bins = tranco_bins(0.1, 4);
        assert!(bins[0].misconfigured_share() < bins[9].misconfigured_share());
    }

    #[test]
    fn deterministic() {
        let a = tranco_bins(0.05, 9);
        let b = tranco_bins(0.05, 9);
        assert_eq!(a[3].in_dataset, b[3].in_dataset);
    }
}

//! The longitudinal analysis pipeline (paper §3): every table and figure of
//! the measurement section, computed from corpus snapshots alone — the same
//! derivations the paper runs over the real DNSViz logs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ddx_dnsviz::{SnapshotStatus, Subcategory};

use crate::corpus::{Corpus, DomainRecord, Level};

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((values.len() as f64 - 1.0) * p).round() as usize;
    values[idx]
}

// ------------------------------------------------------------- Table 1

/// Dataset overview (paper Table 1).
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub level: &'static str,
    pub snapshots: u64,
    pub domains: u64,
    pub multi: u64,
    pub cd: u64,
    pub sd: u64,
}

pub fn table1(corpus: &Corpus) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (level, label) in [
        (Level::Root, "Root"),
        (Level::Tld, "TLD"),
        (Level::SldPlus, "SLD+"),
    ] {
        let domains: Vec<&DomainRecord> =
            corpus.domains.iter().filter(|d| d.level == level).collect();
        rows.push(Table1Row {
            level: label,
            snapshots: domains.iter().map(|d| d.snapshots.len() as u64).sum(),
            domains: domains.len() as u64,
            multi: domains.iter().filter(|d| d.snapshots.len() >= 2).count() as u64,
            cd: domains.iter().filter(|d| d.is_cd()).count() as u64,
            sd: domains.iter().filter(|d| d.is_sd()).count() as u64,
        });
    }
    rows
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} snapshots={:<9} domains={:<8} multi={:<7} CD={:<7} SD={}",
            self.level, self.snapshots, self.domains, self.multi, self.cd, self.sd
        )
    }
}

// ------------------------------------------------------------- Figure 2

/// First→last status transitions for CD domains (paper Fig 2).
#[derive(Debug, Clone, Default)]
pub struct FirstLast {
    /// (first, last) → count.
    pub counts: BTreeMap<(SnapshotStatus, SnapshotStatus), u64>,
}

impl FirstLast {
    pub(crate) fn total_from(&self, first: SnapshotStatus) -> u64 {
        self.counts
            .iter()
            .filter(|((f, _), _)| *f == first)
            .map(|(_, c)| c)
            .sum()
    }

    /// Share of sb-starting domains that ended valid (sv or svm) — the
    /// paper's "positive trajectory" (67%).
    pub fn sb_recovered_share(&self) -> f64 {
        let total = self.total_from(SnapshotStatus::Sb) as f64;
        let good = self
            .counts
            .get(&(SnapshotStatus::Sb, SnapshotStatus::Sv))
            .copied()
            .unwrap_or(0)
            + self
                .counts
                .get(&(SnapshotStatus::Sb, SnapshotStatus::Svm))
                .copied()
                .unwrap_or(0);
        good as f64 / total.max(1.0)
    }

    /// Share of is-starting domains that enabled DNSSEC (62% in the paper).
    pub fn newly_signed_share(&self) -> f64 {
        let total = self.total_from(SnapshotStatus::Is) as f64;
        let signed: u64 = [SnapshotStatus::Sv, SnapshotStatus::Svm, SnapshotStatus::Sb]
            .iter()
            .filter_map(|&last| self.counts.get(&(SnapshotStatus::Is, last)))
            .sum();
        signed as f64 / total.max(1.0)
    }
}

pub fn first_last(corpus: &Corpus) -> FirstLast {
    let mut out = FirstLast::default();
    for d in corpus.sld_domains().filter(|d| d.is_cd()) {
        let first = d.snapshots.first().expect("non-empty").status;
        let last = d.snapshots.last().expect("non-empty").status;
        *out.counts.entry((first, last)).or_default() += 1;
    }
    out
}

// ------------------------------------------------------------- Table 2

/// Causes of negative transitions (paper Table 2).
#[derive(Debug, Clone, Default)]
pub struct CauseBreakdown {
    pub total: u64,
    pub ns_update: u64,
    pub key_rollover: u64,
    pub algo_rollover: u64,
}

impl CauseBreakdown {}

#[derive(Debug, Clone, Default)]
pub struct NegativeTransitions {
    pub sv_to_sb: CauseBreakdown,
    pub sv_to_is: CauseBreakdown,
}

pub fn negative_transitions(corpus: &Corpus) -> NegativeTransitions {
    let mut out = NegativeTransitions::default();
    for d in corpus.sld_domains() {
        for w in d.snapshots.windows(2) {
            if w[0].status != SnapshotStatus::Sv {
                continue;
            }
            let breakdown = match w[1].status {
                SnapshotStatus::Sb => &mut out.sv_to_sb,
                SnapshotStatus::Is => &mut out.sv_to_is,
                _ => continue,
            };
            breakdown.total += 1;
            if w[1].ns_set != w[0].ns_set {
                breakdown.ns_update += 1;
            } else if w[1].algorithms != w[0].algorithms {
                breakdown.algo_rollover += 1;
            } else if w[1].key_set != w[0].key_set {
                breakdown.key_rollover += 1;
            }
        }
    }
    out
}

// ------------------------------------------------------------- Table 3

/// One prevalence row (paper Table 3).
#[derive(Debug, Clone)]
pub struct PrevalenceRow {
    pub subcategory: Subcategory,
    pub snapshots: u64,
    pub snapshot_pct: f64,
    pub domains: u64,
    pub domain_pct: f64,
}

#[derive(Debug, Clone)]
pub struct Prevalence {
    pub rows: Vec<PrevalenceRow>,
    pub total_snapshots: u64,
    pub total_domains: u64,
    pub erroneous_snapshots: u64,
    pub erroneous_domains: u64,
}

pub fn prevalence(corpus: &Corpus) -> Prevalence {
    let mut snap_counts: BTreeMap<Subcategory, u64> = BTreeMap::new();
    let mut dom_counts: BTreeMap<Subcategory, BTreeSet<u64>> = BTreeMap::new();
    let mut total_snapshots = 0u64;
    let mut erroneous_snapshots = 0u64;
    let mut erroneous_domains: BTreeSet<u64> = BTreeSet::new();
    let total_domains = corpus.sld_domains().count() as u64;
    for d in corpus.sld_domains() {
        for s in &d.snapshots {
            total_snapshots += 1;
            if !s.errors.is_empty() {
                erroneous_snapshots += 1;
                erroneous_domains.insert(d.id);
            }
            for sub in s.subcategories() {
                *snap_counts.entry(sub).or_default() += 1;
                dom_counts.entry(sub).or_default().insert(d.id);
            }
        }
    }
    let rows = Subcategory::ALL
        .iter()
        .map(|&sub| {
            let snapshots = snap_counts.get(&sub).copied().unwrap_or(0);
            let domains = dom_counts.get(&sub).map(|s| s.len() as u64).unwrap_or(0);
            PrevalenceRow {
                subcategory: sub,
                snapshots,
                snapshot_pct: 100.0 * snapshots as f64 / total_snapshots.max(1) as f64,
                domains,
                domain_pct: 100.0 * domains as f64 / total_domains.max(1) as f64,
            }
        })
        .collect();
    Prevalence {
        rows,
        total_snapshots,
        total_domains,
        erroneous_snapshots,
        erroneous_domains: erroneous_domains.len() as u64,
    }
}

/// Figure 3: share of snapshots per parent error category.
pub fn category_shares(prev: &Prevalence) -> Vec<(ddx_dnsviz::Category, f64)> {
    let mut by_cat: BTreeMap<ddx_dnsviz::Category, u64> = BTreeMap::new();
    for row in &prev.rows {
        *by_cat.entry(row.subcategory.category()).or_default() += row.snapshots;
    }
    ddx_dnsviz::Category::ALL
        .iter()
        .map(|&c| {
            (
                c,
                100.0 * by_cat.get(&c).copied().unwrap_or(0) as f64
                    / prev.total_snapshots.max(1) as f64,
            )
        })
        .collect()
}

// ------------------------------------------------------------- Table 4

/// Transition adjacency matrix with median times (paper Table 4).
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    /// Indexed sv, svm, sb, is.
    pub counts: [[u64; 4]; 4],
    pub median_hours: [[f64; 4]; 4],
}

pub(crate) const MATRIX_STATES: [SnapshotStatus; 4] = [
    SnapshotStatus::Sv,
    SnapshotStatus::Svm,
    SnapshotStatus::Sb,
    SnapshotStatus::Is,
];

pub fn transitions(corpus: &Corpus) -> TransitionMatrix {
    let mut counts = [[0u64; 4]; 4];
    let mut gaps: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 4]; 4];
    let idx = |s: SnapshotStatus| MATRIX_STATES.iter().position(|&x| x == s);
    for d in corpus.sld_domains().filter(|d| d.is_cd()) {
        for w in d.snapshots.windows(2) {
            let (Some(i), Some(j)) = (idx(w[0].status), idx(w[1].status)) else {
                continue;
            };
            if i == j {
                continue;
            }
            counts[i][j] += 1;
            gaps[i][j].push(w[1].t_hours - w[0].t_hours);
        }
    }
    let mut median_hours = [[0.0; 4]; 4];
    for (i, row) in gaps.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            median_hours[i][j] = median(cell);
        }
    }
    TransitionMatrix {
        counts,
        median_hours,
    }
}

// ------------------------------------------------------------- Figure 4

/// Resolution-time distribution for one marked subcategory.
#[derive(Debug, Clone)]
pub struct ResolutionRow {
    pub marker: u8,
    pub subcategory: Subcategory,
    /// True when instances started from sb (SERVFAIL-level).
    pub critical: bool,
    pub instances: u64,
    pub p20_hours: f64,
    pub p50_hours: f64,
    pub p80_hours: f64,
}

#[derive(Debug, Clone)]
pub struct ResolutionTimes {
    pub rows: Vec<ResolutionRow>,
    /// Median hours from first insecure snapshot to first signed snapshot
    /// (Fig 4's black "deploy DNSSEC" box).
    pub deploy_median_hours: f64,
    pub deploy_instances: u64,
}

pub fn resolution_times(corpus: &Corpus) -> ResolutionTimes {
    // Duration samples per (subcategory, critical).
    let mut samples: BTreeMap<(Subcategory, bool), Vec<f64>> = BTreeMap::new();
    let mut deploy: Vec<f64> = Vec::new();
    for d in corpus.sld_domains() {
        let mut open: BTreeMap<Subcategory, (f64, bool)> = BTreeMap::new();
        let mut insecure_since: Option<f64> = None;
        for s in &d.snapshots {
            let subs = s.subcategories();
            for &sub in subs.iter() {
                open.entry(sub)
                    .or_insert((s.t_hours, s.status == SnapshotStatus::Sb));
            }
            if s.status == SnapshotStatus::Sv {
                // Domain fully valid: every open error episode resolves.
                for (sub, (t1, critical)) in std::mem::take(&mut open) {
                    samples
                        .entry((sub, critical))
                        .or_default()
                        .push(s.t_hours - t1);
                }
            }
            match s.status {
                SnapshotStatus::Is => {
                    insecure_since.get_or_insert(s.t_hours);
                }
                SnapshotStatus::Sv | SnapshotStatus::Svm | SnapshotStatus::Sb => {
                    if let Some(t0) = insecure_since.take() {
                        deploy.push(s.t_hours - t0);
                    }
                }
                _ => {}
            }
        }
    }
    let mut rows = Vec::new();
    for sub in Subcategory::ALL {
        let Some(marker) = sub.marker() else { continue };
        for critical in [true, false] {
            if let Some(mut v) = samples.remove(&(sub, critical)) {
                if v.is_empty() {
                    continue;
                }
                rows.push(ResolutionRow {
                    marker,
                    subcategory: sub,
                    critical,
                    instances: v.len() as u64,
                    p20_hours: percentile(&mut v, 0.2),
                    p50_hours: percentile(&mut v, 0.5),
                    p80_hours: percentile(&mut v, 0.8),
                });
            }
        }
    }
    rows.sort_by_key(|r| (r.marker, !r.critical));
    ResolutionTimes {
        rows,
        deploy_median_hours: median(&mut deploy),
        deploy_instances: deploy.len() as u64,
    }
}

// ------------------------------------------------------------- Figure 5

/// CDF of per-domain median inter-snapshot gaps (paper Fig 5).
#[derive(Debug, Clone)]
pub struct GapCdf {
    /// Sorted per-domain median gaps, hours.
    pub medians: Vec<f64>,
    pub share_under_day: f64,
}

impl GapCdf {
    /// CDF evaluated at `hours`.
    pub fn cdf(&self, hours: f64) -> f64 {
        if self.medians.is_empty() {
            return 0.0;
        }
        let below = self.medians.iter().filter(|&&m| m <= hours).count();
        below as f64 / self.medians.len() as f64
    }
}

pub fn gap_cdf(corpus: &Corpus) -> GapCdf {
    let mut medians = Vec::new();
    for d in corpus.sld_domains().filter(|d| d.snapshots.len() >= 2) {
        let mut gaps: Vec<f64> = d
            .snapshots
            .windows(2)
            .map(|w| w[1].t_hours - w[0].t_hours)
            .collect();
        medians.push(median(&mut gaps));
    }
    medians.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let under = medians.iter().filter(|&&m| m < 24.0).count();
    let share_under_day = under as f64 / (medians.len() as f64).max(1.0);
    GapCdf {
        medians,
        share_under_day,
    }
}

// ------------------------------------------------------------- Table 5

/// Never-resolved shares per state (paper Table 5).
#[derive(Debug, Clone)]
pub struct UnresolvedRow {
    pub state: SnapshotStatus,
    pub domains: u64,
    pub unresolved: u64,
}

impl UnresolvedRow {
    pub fn share(&self) -> f64 {
        self.unresolved as f64 / (self.domains as f64).max(1.0)
    }
}

pub fn unresolved(corpus: &Corpus) -> Vec<UnresolvedRow> {
    let mut rows = Vec::new();
    for state in [SnapshotStatus::Sb, SnapshotStatus::Svm, SnapshotStatus::Is] {
        let mut domains = 0u64;
        let mut never = 0u64;
        // Resolution is only observable with at least two snapshots; the
        // paper's Table 5 universe is the multi-snapshot population.
        for d in corpus.sld_domains().filter(|d| d.snapshots.len() >= 2) {
            if d.snapshots.iter().any(|s| s.status == state) {
                domains += 1;
                let last = d.snapshots.last().expect("non-empty");
                if last.status == state {
                    never += 1;
                }
            }
        }
        rows.push(UnresolvedRow {
            state,
            domains,
            unresolved: never,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            scale: 0.02,
            seed: 99,
        })
    }

    #[test]
    fn table1_shape() {
        let c = corpus();
        let rows = table1(&c);
        assert_eq!(rows.len(), 3);
        let sld = &rows[2];
        assert_eq!(sld.level, "SLD+");
        assert_eq!(sld.cd + sld.sd, sld.multi);
        assert!(sld.snapshots > sld.domains);
        let cd_share = sld.cd as f64 / (sld.cd + sld.sd) as f64;
        assert!((0.15..0.40).contains(&cd_share), "{cd_share}");
    }

    #[test]
    fn fig2_positive_trajectory() {
        let c = corpus();
        let fl = first_last(&c);
        let sb = fl.sb_recovered_share();
        assert!((0.4..0.9).contains(&sb), "sb recovered {sb}");
        let is = fl.newly_signed_share();
        assert!((0.35..0.9).contains(&is), "newly signed {is}");
    }

    #[test]
    fn table2_causes_attributed() {
        let c = corpus();
        let nt = negative_transitions(&c);
        assert!(nt.sv_to_sb.total > 0);
        let b = &nt.sv_to_sb;
        let share = (b.ns_update + b.key_rollover + b.algo_rollover) as f64 / b.total as f64;
        assert!((0.55..0.98).contains(&share), "attributed {share}");
        assert!(nt.sv_to_sb.key_rollover >= nt.sv_to_sb.ns_update);
    }

    #[test]
    fn table3_nzic_top() {
        let c = corpus();
        let prev = prevalence(&c);
        let nzic = prev
            .rows
            .iter()
            .find(|r| r.subcategory == Subcategory::NonzeroIterationCount)
            .unwrap();
        for r in &prev.rows {
            assert!(r.snapshots <= nzic.snapshots, "{} > NZIC", r.subcategory);
        }
        assert!(
            (15.0..45.0).contains(&nzic.snapshot_pct),
            "{}",
            nzic.snapshot_pct
        );
        let share = prev.erroneous_snapshots as f64 / prev.total_snapshots as f64;
        assert!((0.28..0.52).contains(&share), "{share}");
    }

    #[test]
    fn fig3_nsec3_only_leads() {
        let c = corpus();
        let prev = prevalence(&c);
        let shares = category_shares(&prev);
        let n3 = shares
            .iter()
            .find(|(c, _)| *c == ddx_dnsviz::Category::Nsec3Only)
            .unwrap()
            .1;
        for (cat, s) in &shares {
            if *cat != ddx_dnsviz::Category::Nsec3Only {
                assert!(*s <= n3, "{cat} {s} > {n3}");
            }
        }
    }

    #[test]
    fn table4_sb_to_sv_fast() {
        let c = corpus();
        let tm = transitions(&c);
        let fix = tm.median_hours[2][0];
        let brk = tm.median_hours[0][2];
        assert!(fix.is_finite() && brk.is_finite());
        assert!(fix < brk, "fix {fix} !< break {brk}");
        assert!(tm.counts[2][0] > 0);
    }

    #[test]
    fn fig4_noncritical_slower() {
        let c = corpus();
        let rt = resolution_times(&c);
        assert!(!rt.rows.is_empty());
        let nzic = rt.rows.iter().find(|r| r.marker == 9 && !r.critical);
        let deleg = rt.rows.iter().find(|r| r.marker == 5 && r.critical);
        if let (Some(nzic), Some(deleg)) = (nzic, deleg) {
            assert!(
                nzic.p50_hours > deleg.p50_hours,
                "NZIC p50 {} !> delegation p50 {}",
                nzic.p50_hours,
                deleg.p50_hours
            );
        }
        assert!(rt.deploy_median_hours > 0.0);
        assert!(rt.deploy_instances > 0);
    }

    #[test]
    fn fig5_share_under_day() {
        let c = corpus();
        let cdf = gap_cdf(&c);
        assert!(
            (0.3..0.9).contains(&cdf.share_under_day),
            "{}",
            cdf.share_under_day
        );
        assert!(cdf.cdf(f64::MAX) > 0.99);
        assert!(cdf.cdf(0.0) <= cdf.cdf(1000.0));
    }

    #[test]
    fn table5_shapes() {
        let c = corpus();
        let rows = unresolved(&c);
        assert_eq!(rows.len(), 3);
        let sb = &rows[0];
        let svm = &rows[1];
        assert!(sb.domains > 0 && svm.domains > 0);
        assert!(
            svm.share() > sb.share(),
            "svm {} !> sb {}",
            svm.share(),
            sb.share()
        );
    }
}

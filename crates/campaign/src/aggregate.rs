//! Campaign aggregation: regenerates the paper's Table 3 (error-frequency
//! distribution) and Table 7 (instruction × iteration histogram) from the
//! NDJSON result shards, plus a Table 6-style replication/fix-rate view
//! split into S1 (NZIC-only), S2, and the hostile population.
//!
//! Aggregation is order-insensitive (sums and `BTreeMap`s only) and
//! timestamp-free, so the summary for a given shard set is byte-stable —
//! the CI resume check compares `summary.json` with `cmp`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ddx_json::ToJson;

use ddx_dataset::params;
use ddx_dnsviz::{ErrorCode, Subcategory};
use ddx_fixer::InstructionKind;

use crate::shard::{read_shard, Outcome, ZoneRecord};

/// One Table 3 row: how often a subcategory was drawn (intended) and how
/// often grok actually reproduced it, against the paper's share.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct Table3Row {
    pub subcategory: String,
    /// Benign zones whose intended error set touches this subcategory.
    pub drawn_zones: u64,
    /// `drawn_zones / benign zones`.
    pub drawn_share: f64,
    /// `params::subcategory_snapshots / ERROR_SNAPSHOTS` (Table 3).
    pub paper_share: f64,
    /// Benign zones where grok reported a code of this subcategory.
    pub generated_zones: u64,
}

/// Table 6 replication/fix rates for one population class.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson)]
pub struct Table6Row {
    pub class: String,
    /// Zones in the class (IE ≠ ∅).
    pub zones: u64,
    /// GE ≠ ∅: grok reported at least one error.
    pub generated: u64,
    /// IE ⊆ GE and IE ≠ ∅ (the fixer ran).
    pub replicated: u64,
    /// AE = ∅ among replicated.
    pub fixed: u64,
    /// Largest iteration count any fixed zone of the class needed.
    pub max_iterations: u64,
}

impl Table6Row {
    fn new(class: &str) -> Self {
        Table6Row {
            class: class.to_string(),
            ..Table6Row::default()
        }
    }

    fn add(&mut self, record: &ZoneRecord) {
        self.zones += 1;
        if !record.generated.is_empty() {
            self.generated += 1;
        }
        if matches!(record.outcome, Outcome::Fixed | Outcome::Unfixed) {
            self.replicated += 1;
        }
        if record.outcome == Outcome::Fixed {
            self.fixed += 1;
            self.max_iterations = self.max_iterations.max(record.iterations);
        }
    }

    /// Replication Rate (§5.2): replicated / zones.
    pub fn rr(&self) -> f64 {
        self.replicated as f64 / self.zones.max(1) as f64
    }

    /// Fix Rate (§5.2): fixed / replicated.
    pub fn fr(&self) -> f64 {
        self.fixed as f64 / self.replicated.max(1) as f64
    }
}

/// Table 7: DFixer instructions by kind × iteration, over the S2
/// population (NZIC-only zones are a one-instruction fix and would drown
/// the histogram, exactly as in the paper), plus how many iterations
/// fixed zones needed (the largest count is per class, in
/// [`Table6Row::max_iterations`]).
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Table7 {
    /// `(instruction kind, counts at iterations 1..=6)`, kind-sorted.
    /// Iterations past 6 are clamped into the last bucket.
    pub instruction_histogram: Vec<(InstructionKind, [u64; 6])>,
    /// Instructions issued at iteration > 6 (clamped above).
    pub histogram_overflow: u64,
    /// Fixed S2 zones by iterations-to-converge (1..=6, clamped).
    pub iterations_to_fix: [u64; 6],
    /// Fixed S2 zones that needed more than 6 iterations (clamped above).
    pub iterations_overflow: u64,
}

/// The full campaign roll-up, serialized as `summary.json`.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct CampaignSummary {
    pub campaign_seed: u64,
    pub shards: u64,
    pub zones: u64,
    pub benign_zones: u64,
    pub attack_zones: u64,
    pub outcomes: BTreeMap<String, u64>,
    pub attack_families: BTreeMap<String, u64>,
    /// Codes grok reported, across the whole campaign.
    pub generated_codes: BTreeMap<String, u64>,
    /// Codes still present after DFixer gave up (unfixed zones).
    pub residual_codes: BTreeMap<String, u64>,
    pub table3: Vec<Table3Row>,
    pub table6: Vec<Table6Row>,
    pub table7: Table7,
}

/// Streaming record accumulator; call [`Aggregator::add`] per record and
/// [`Aggregator::finish`] once.
#[derive(Default)]
pub struct Aggregator {
    campaign_seed: Option<u64>,
    shards: u64,
    zones: u64,
    benign_zones: u64,
    attack_zones: u64,
    outcomes: BTreeMap<String, u64>,
    attack_families: BTreeMap<String, u64>,
    generated_codes: BTreeMap<String, u64>,
    residual_codes: BTreeMap<String, u64>,
    drawn_subs: BTreeMap<Subcategory, u64>,
    generated_subs: BTreeMap<Subcategory, u64>,
    s1: Table6Row,
    s2: Table6Row,
    attack: Table6Row,
    histogram: BTreeMap<InstructionKind, [u64; 6]>,
    histogram_overflow: u64,
    iterations_to_fix: [u64; 6],
    iterations_overflow: u64,
}

fn is_s1(record: &ZoneRecord) -> bool {
    record.intended.len() == 1 && record.intended.contains(&ErrorCode::Nsec3IterationsNonzero)
}

fn subcategories(
    codes: impl Iterator<Item = ErrorCode>,
) -> std::collections::BTreeSet<Subcategory> {
    codes.map(|c| c.subcategory()).collect()
}

impl Aggregator {
    pub fn new() -> Self {
        Aggregator {
            s1: Table6Row::new("s1 (NZIC-only)"),
            s2: Table6Row::new("s2"),
            attack: Table6Row::new("attack"),
            ..Aggregator::default()
        }
    }

    /// Folds in one shard footer (seed consistency + shard count).
    pub fn add_shard(&mut self, campaign_seed: u64) -> io::Result<()> {
        match self.campaign_seed {
            None => self.campaign_seed = Some(campaign_seed),
            Some(seen) if seen != campaign_seed => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("mixed campaign seeds in shard set: {seen} vs {campaign_seed}"),
                ));
            }
            Some(_) => {}
        }
        self.shards += 1;
        Ok(())
    }

    pub fn add(&mut self, record: &ZoneRecord) {
        self.zones += 1;
        *self
            .outcomes
            .entry(record.outcome.label().to_string())
            .or_insert(0) += 1;
        for code in &record.generated {
            *self.generated_codes.entry(code.ident()).or_insert(0) += 1;
        }
        if record.outcome == Outcome::Unfixed {
            for code in &record.final_errors {
                *self.residual_codes.entry(code.ident()).or_insert(0) += 1;
            }
        }

        if let Some(family) = &record.attack {
            self.attack_zones += 1;
            *self.attack_families.entry(family.clone()).or_insert(0) += 1;
            self.attack.add(record);
            return;
        }

        self.benign_zones += 1;
        for sub in subcategories(record.intended.iter().copied()) {
            *self.drawn_subs.entry(sub).or_insert(0) += 1;
        }
        for sub in subcategories(record.generated.iter().copied()) {
            *self.generated_subs.entry(sub).or_insert(0) += 1;
        }

        if is_s1(record) {
            self.s1.add(record);
            return;
        }
        self.s2.add(record);
        // Table 7 is S2-only: NZIC one-liners excluded, iterations past 6
        // clamped into the last bucket with an explicit overflow count.
        for (iteration, kind) in &record.instructions {
            let bucket = (*iteration).min(6);
            if bucket >= 1 {
                self.histogram.entry(*kind).or_insert([0; 6])[(bucket - 1) as usize] += 1;
                if *iteration > 6 {
                    self.histogram_overflow += 1;
                }
            }
        }
        if record.outcome == Outcome::Fixed {
            let bucket = record.iterations.min(6);
            if bucket >= 1 {
                self.iterations_to_fix[(bucket - 1) as usize] += 1;
            }
            if record.iterations > 6 {
                self.iterations_overflow += 1;
            }
        }
    }

    pub fn finish(self) -> CampaignSummary {
        let benign = self.benign_zones.max(1) as f64;
        let table3 = Subcategory::ALL
            .iter()
            .map(|sub| {
                let drawn = self.drawn_subs.get(sub).copied().unwrap_or(0);
                Table3Row {
                    subcategory: format!("{sub:?}"),
                    drawn_zones: drawn,
                    drawn_share: drawn as f64 / benign,
                    paper_share: params::subcategory_snapshots(*sub) as f64
                        / params::ERROR_SNAPSHOTS as f64,
                    generated_zones: self.generated_subs.get(sub).copied().unwrap_or(0),
                }
            })
            .collect();
        CampaignSummary {
            campaign_seed: self.campaign_seed.unwrap_or(0),
            shards: self.shards,
            zones: self.zones,
            benign_zones: self.benign_zones,
            attack_zones: self.attack_zones,
            outcomes: self.outcomes,
            attack_families: self.attack_families,
            generated_codes: self.generated_codes,
            residual_codes: self.residual_codes,
            table3,
            table6: vec![self.s1, self.s2, self.attack],
            table7: Table7 {
                instruction_histogram: self.histogram.into_iter().collect(),
                histogram_overflow: self.histogram_overflow,
                iterations_to_fix: self.iterations_to_fix,
                iterations_overflow: self.iterations_overflow,
            },
        }
    }
}

/// Aggregates every `shard-*.ndjson` under `dir` (validating each), in
/// filename order.
pub fn aggregate_dir(dir: &Path) -> io::Result<CampaignSummary> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".ndjson"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no shard-*.ndjson files under {}", dir.display()),
        ));
    }
    let mut agg = Aggregator::new();
    for path in paths {
        let (records, footer) = read_shard(&path)?;
        agg.add_shard(footer.campaign_seed)?;
        for record in &records {
            agg.add(record);
        }
    }
    Ok(agg.finish())
}

impl CampaignSummary {
    /// Table 6's "Total" row: S1 and S2 together (the hostile population
    /// is not part of the paper's dataset).
    pub fn benign_total(&self) -> Table6Row {
        let (s1, s2) = (&self.table6[0], &self.table6[1]);
        Table6Row {
            class: "total".into(),
            zones: s1.zones + s2.zones,
            generated: s1.generated + s2.generated,
            replicated: s1.replicated + s2.replicated,
            fixed: s1.fixed + s2.fixed,
            max_iterations: s1.max_iterations.max(s2.max_iterations),
        }
    }

    /// Stable JSON for `summary.json` (byte-identical for identical shard
    /// sets — the resume check relies on it).
    pub fn to_json(&self) -> String {
        ddx_json::to_string_pretty(self)
    }

    /// Markdown tables (every row starts with `|`, so CI can lift them
    /// into the step summary with `grep '^|'`).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| Class | Zones | Generated | Replicated | Fixed | RR | FR |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for row in &self.table6 {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
                row.class,
                row.zones,
                row.generated,
                row.replicated,
                row.fixed,
                row.rr(),
                row.fr()
            ));
        }
        out.push('\n');
        out.push_str("| Subcategory (Table 3) | Drawn | Share | Paper | Generated |\n");
        out.push_str("|---|---|---|---|---|\n");
        for row in &self.table3 {
            if row.drawn_zones == 0 && row.paper_share < 0.01 {
                continue;
            }
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} | {} |\n",
                row.subcategory,
                row.drawn_zones,
                row.drawn_share,
                row.paper_share,
                row.generated_zones
            ));
        }
        out.push('\n');
        out.push_str("| Instruction (Table 7) | It1 | It2 | It3 | It4 | It5 | It6 |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for (kind, counts) in &self.table7.instruction_histogram {
            out.push_str(&format!(
                "| {:?} | {} | {} | {} | {} | {} | {} |\n",
                kind, counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]
            ));
        }
        let it = &self.table7.iterations_to_fix;
        out.push_str(&format!(
            "| Fixed zones by iterations | {} | {} | {} | {} | {} | {} |\n",
            it[0], it[1], it[2], it[3], it[4], it[5]
        ));
        out
    }

    /// Tolerance checks against the paper's distributions; returns the
    /// violations (empty = within tolerance). Checks are gated on sample
    /// size so smoke-scale runs cannot flake.
    pub fn check_tolerances(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let benign = self.benign_zones;
        if benign >= 500 {
            // S1 share of the benign population vs 168 482 / 296 813.
            let s1 = &self.table6[0];
            let share = s1.zones as f64 / benign as f64;
            let paper = params::NZIC_ONLY_SNAPSHOTS as f64 / params::ERROR_SNAPSHOTS as f64;
            if (share - paper).abs() > 0.08 {
                violations.push(format!(
                    "NZIC-only share {share:.3} deviates from the paper's {paper:.3} by > 0.08"
                ));
            }
            // Every ≥5%-of-snapshots subcategory must appear in the draw.
            for row in &self.table3 {
                if row.paper_share >= 0.05 && row.drawn_zones == 0 {
                    violations.push(format!(
                        "subcategory {} ({}% of paper snapshots) never drawn",
                        row.subcategory,
                        (row.paper_share * 100.0).round()
                    ));
                }
                if row.drawn_zones > 0 && row.paper_share == 0.0 {
                    violations.push(format!(
                        "subcategory {} drawn but has zero paper mass",
                        row.subcategory
                    ));
                }
            }
        }
        let fixed: u64 = self.table7.iterations_to_fix.iter().sum();
        if fixed >= 20 {
            // Table 7: convergence is front-loaded — the paper records no
            // resolution past iteration 4.
            let within4: u64 = self.table7.iterations_to_fix[..4].iter().sum();
            if (within4 as f64) < 0.90 * fixed as f64 {
                violations.push(format!(
                    "only {within4}/{fixed} fixed S2 zones converged within 4 iterations"
                ));
            }
            if self.table7.iterations_overflow > 0 {
                violations.push(format!(
                    "{} fixed zones needed more than 6 iterations",
                    self.table7.iterations_overflow
                ));
            }
            let early: u64 = self.table7.iterations_to_fix[..2].iter().sum();
            if (early as f64) < 0.50 * fixed as f64 {
                violations.push(format!(
                    "only {early}/{fixed} fixed S2 zones converged within 2 iterations"
                ));
            }
        }
        violations
    }
}

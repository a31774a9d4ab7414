//! The evaluation engine: a bounded worker pool streaming zones through
//! replicate → probe → grok → DFixer — a campaign one shard at a time
//! ([`run_campaign`]), or a corpus sample for Tables 6/7
//! ([`evaluate_corpus`]). [`evaluate_zone`] is the only per-zone path.
//!
//! Memory stays flat by construction: each worker holds exactly one zone
//! (sandbox + memo + record) at a time — a zone is drawn, evaluated,
//! serialized to its shard's `BufWriter`, and dropped. There is no
//! full-corpus materialization and no unbounded queue anywhere;
//! backpressure is the pool itself (a worker that is evaluating is not
//! claiming more work).

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use ddx_dataset::{Corpus, Snapshot};
use ddx_dnsviz::{GrokMemo, ValidationBudget};
use ddx_fixer::{run_fixer_with_memo, FixerOptions};
use ddx_replicator::{parent_apex, replicate, replicate_attack, ReplicationRequest};

use crate::aggregate::{Aggregator, CampaignSummary};
use crate::model::{PopulationModel, ZoneDraw, ZoneKind};
use crate::shard::{shard_path, validate_shard, Outcome, ShardWriter, ZoneRecord};

/// Everything that identifies a campaign. Shard content is a pure
/// function of `(seed, shard index, zones-per-shard, model, budget,
/// fixer knobs)` — the worker count and resume state never affect bytes.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub seed: u64,
    /// Total zones, distributed round-robin-evenly across shards.
    pub zones: u64,
    pub shards: u32,
    /// Worker threads claiming shards; clamped to ≥1.
    pub workers: usize,
    pub out_dir: PathBuf,
    /// Skip shards whose NDJSON is already complete and valid.
    pub resume: bool,
    pub model: PopulationModel,
    /// Per-zone validation work caps, threaded through the grok memo into
    /// every analysis (GE walk and each fixer revalidation).
    pub budget: ValidationBudget,
    /// DFixer iteration cap (Table 7 is defined over ≤ 6).
    pub max_iterations: usize,
    /// Virtual clock for replication and probing.
    pub now: u32,
    /// Per-shard progress lines on stdout.
    pub progress: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xDD5EC,
            zones: 1000,
            shards: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            out_dir: PathBuf::from("campaign-out"),
            resume: false,
            model: PopulationModel::default(),
            budget: ValidationBudget::default(),
            max_iterations: 6,
            now: 1_000_000,
            progress: false,
        }
    }
}

/// Zones in shard `shard` when `zones` are spread over `shards`: the
/// first `zones % shards` shards take one extra.
pub(crate) fn shard_zone_count(zones: u64, shards: u32, shard: u32) -> u64 {
    let shards = u64::from(shards.max(1));
    let base = zones / shards;
    let extra = u64::from(u64::from(shard) < zones % shards);
    base + extra
}

/// What one campaign run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Shards (re)generated by this run.
    pub shards_written: u32,
    /// Shards skipped as already complete and valid (`--resume`).
    pub shards_resumed: u32,
    /// Zones evaluated by this run (resumed shards contribute zero).
    pub zones_evaluated: u64,
}

/// Evaluates one drawn zone end to end: replicate (or build the attack
/// sandbox), probe + grok under the campaign budget, and run DFixer when
/// the error set replicated. Pure modulo global metrics: the returned
/// record depends only on the draw and the config. Each stage is timed
/// under `pipeline.stage_us{stage=replicate|probe|grok|fix}`.
pub fn evaluate_zone(draw: &ZoneDraw, cfg: &CampaignConfig) -> ZoneRecord {
    let timer = ddx_obs::histogram("campaign.zone_us", &[]).start_timer();
    let stage_timer = |stage| ddx_obs::histogram("pipeline.stage_us", &[("stage", stage)]);
    let mut record = ZoneRecord {
        shard: draw.shard,
        index: draw.index,
        seed: draw.seed,
        population: String::new(),
        attack: None,
        intended: BTreeSet::new(),
        skipped: Vec::new(),
        generated: BTreeSet::new(),
        outcome: Outcome::MetaError,
        meta_error: None,
        iterations: 0,
        instructions: Vec::new(),
        deferred: 0,
        final_errors: BTreeSet::new(),
    };

    let replicate_timer = stage_timer("replicate").start_timer();
    let replication = match &draw.kind {
        ZoneKind::Attack { family } => {
            record.population = "attack".into();
            record.attack = Some(family.label().to_string());
            replicate_attack(*family, cfg.now, draw.seed)
        }
        ZoneKind::Benign { intended, meta, .. } => {
            record.population = "benign".into();
            record.intended = intended.clone();
            let request = ReplicationRequest {
                meta: meta.clone(),
                intended: intended.clone(),
            };
            replicate(&request, cfg.now, draw.seed)
        }
    };
    drop(replicate_timer);
    let mut rep = match replication {
        Ok(rep) => rep,
        Err(e) => {
            record.meta_error = Some(e.to_string());
            return finish_record(record, timer);
        }
    };
    // An attack's intended payload is whatever the injector declared
    // (ValidationBudgetExceeded with the family's counter).
    if record.intended.is_empty() {
        record.intended = rep.injected.iter().map(|(code, _)| *code).collect();
    }
    record.skipped = rep
        .skipped
        .iter()
        .map(|(code, reason)| (code.ident(), reason.to_string()))
        .collect();

    // The parent-bogus condition (paper §5.4): the DS stays upstream but
    // the parent's DNSKEY RRset is gone, before the GE probe sees it.
    if let ZoneKind::Benign {
        parent_broken: true,
        ..
    } = draw.kind
    {
        rep.sandbox
            .testbed
            .mutate_zone_everywhere(&parent_apex(), |zone| {
                zone.strip_type(ddx_dns::RrType::Dnskey);
            });
    }

    // One memo follows the zone through GE and the fixer loop, carrying
    // the campaign's validation budget into every analysis: the GE walk
    // warms it, so the fixer's first iteration (same state, same clock)
    // revalidates without a single query.
    let mut memo = GrokMemo::new();
    memo.set_budget(cfg.budget.clone());
    let probe_timer = stage_timer("probe").start_timer();
    let probe_result =
        memo.probe_incremental(&rep.sandbox.testbed, &rep.sandbox.testbed, &rep.probe);
    drop(probe_timer);
    let grok_timer = stage_timer("grok").start_timer();
    let report = memo.grok_incremental(&probe_result);
    drop(grok_timer);
    record.generated = report.codes();
    let replicated = !record.intended.is_empty() && record.intended.is_subset(&record.generated);
    if !replicated || record.generated.is_empty() {
        record.outcome = Outcome::Unreplicated;
        return finish_record(record, timer);
    }

    let opts = FixerOptions {
        max_iterations: cfg.max_iterations,
        seed: draw.seed ^ 0xF1,
        ..FixerOptions::default()
    };
    let fix_timer = stage_timer("fix").start_timer();
    let run = run_fixer_with_memo(&mut rep.sandbox, &rep.probe, &opts, &mut memo);
    drop(fix_timer);
    record.outcome = if run.fixed {
        Outcome::Fixed
    } else {
        Outcome::Unfixed
    };
    record.iterations = run.iterations.len() as u64;
    record.instructions = run
        .instructions()
        .map(|(it, instr)| (it.iteration as u64, instr.kind()))
        .collect();
    record.deferred = run
        .iterations
        .iter()
        .map(|it| it.deferred.len() as u64)
        .sum();
    record.final_errors = run.final_errors;
    finish_record(record, timer)
}

/// There is no early-return sugar that also stops the timer and bumps the
/// tallies, so every exit path funnels through here.
fn finish_record(record: ZoneRecord, timer: ddx_obs::Timer) -> ZoneRecord {
    drop(timer);
    ddx_obs::counter("campaign.zones", &[]).inc();
    ddx_obs::counter("campaign.outcome", &[("outcome", record.outcome.label())]).inc();
    for code in &record.generated {
        ddx_obs::counter("campaign.generated", &[("code", code.ident().as_str())]).inc();
    }
    for code in &record.final_errors {
        ddx_obs::counter("campaign.residual", &[("code", code.ident().as_str())]).inc();
    }
    record
}

fn run_shard(cfg: &CampaignConfig, shard: u32, zones: u64) -> io::Result<u64> {
    let mut writer = ShardWriter::create(&cfg.out_dir, shard, cfg.seed)?;
    for index in 0..zones {
        let draw = cfg.model.draw(cfg.seed, shard, index);
        let record = evaluate_zone(&draw, cfg);
        writer.write(&record)?;
    }
    writer.finish()?;
    ddx_obs::counter("campaign.shards", &[]).inc();
    Ok(zones)
}

/// The one worker pool behind [`run_campaign`] and [`evaluate_corpus`]:
/// `workers` scoped threads claim job indices `0..jobs` from a shared
/// counter, so which worker runs a job never affects its result. The first
/// failing job stops the pool and its error is returned.
fn claim_pool<E: Send>(
    workers: usize,
    jobs: u64,
    job: impl Fn(u64) -> Result<(), E> + Sync,
) -> Result<(), E> {
    const POISONED: &str = "no job panics while holding the failure slot";
    let next = AtomicU64::new(0);
    let failure: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while failure.lock().expect(POISONED).is_none() {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    if let Err(e) = job(i) {
                        failure.lock().expect(POISONED).get_or_insert(e);
                    }
                }
            });
        }
    });
    failure.into_inner().expect(POISONED).map_or(Ok(()), Err)
}

/// Runs the whole campaign on a bounded worker pool. Workers claim shard
/// indices from a shared counter; each shard is generated, evaluated, and
/// written by exactly one worker, so shard bytes are independent of the
/// worker count. The first I/O error stops the pool and is returned.
pub fn run_campaign(cfg: &CampaignConfig) -> io::Result<CampaignOutcome> {
    fs::create_dir_all(&cfg.out_dir)?;
    let written = AtomicU32::new(0);
    let resumed = AtomicU32::new(0);
    let zones_evaluated = AtomicU64::new(0);

    claim_pool(cfg.workers, u64::from(cfg.shards), |shard| {
        let shard = u32::try_from(shard).expect("shard indices are below cfg.shards");
        let zones = shard_zone_count(cfg.zones, cfg.shards, shard);
        let path = shard_path(&cfg.out_dir, shard);
        if cfg.resume && validate_shard(&path, shard, cfg.seed, zones) {
            resumed.fetch_add(1, Ordering::Relaxed);
            ddx_obs::counter("campaign.resumed_shards", &[]).inc();
            if cfg.progress {
                println!("shard {shard:05}: resumed ({zones} zones, complete)");
            }
            return Ok(());
        }
        run_shard(cfg, shard, zones).map(|done| {
            written.fetch_add(1, Ordering::Relaxed);
            zones_evaluated.fetch_add(done, Ordering::Relaxed);
            if cfg.progress {
                println!("shard {shard:05}: {done} zones evaluated");
            }
        })
    })?;

    Ok(CampaignOutcome {
        shards_written: written.into_inner(),
        shards_resumed: resumed.into_inner(),
        zones_evaluated: zones_evaluated.into_inner(),
    })
}

/// Evaluates the first `sample` erroneous snapshots of `corpus` (paper
/// Fig 7 / §5: replicate → grok (GE) → DFixer → grok (AE)) on `workers`
/// threads and folds them into the Table 6 / Table 7 summary. Snapshot
/// `i` is evaluated as [`ZoneDraw::from_snapshot`]`(snapshot, seed, i)`
/// under the default campaign budget and iteration cap, and aggregation
/// is order-insensitive, so the summary is independent of `workers`.
pub fn evaluate_corpus(
    corpus: &Corpus,
    sample: usize,
    seed: u64,
    workers: usize,
) -> CampaignSummary {
    let snapshots: Vec<&Snapshot> = corpus.erroneous_snapshots().take(sample).collect();
    let cfg = CampaignConfig::default();
    let mut aggregator = Aggregator::new();
    aggregator
        .add_shard(seed)
        .expect("a fresh aggregator accepts any seed");
    let aggregator = Mutex::new(aggregator);
    let evaluated = claim_pool(workers, snapshots.len() as u64, |i| {
        let draw = ZoneDraw::from_snapshot(snapshots[i as usize], seed, i);
        let record = evaluate_zone(&draw, &cfg);
        aggregator
            .lock()
            .expect("Aggregator::add does not panic")
            .add(&record);
        Ok::<(), Infallible>(())
    });
    let Ok(()) = evaluated;
    aggregator
        .into_inner()
        .expect("Aggregator::add does not panic")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_zone_counts_sum_to_total() {
        for (zones, shards) in [(0u64, 4u32), (7, 4), (8, 4), (1000, 8), (5, 16)] {
            let sum: u64 = (0..shards)
                .map(|s| shard_zone_count(zones, shards, s))
                .sum();
            assert_eq!(sum, zones, "zones={zones} shards={shards}");
            // Even spread: counts differ by at most one.
            let counts: Vec<u64> = (0..shards)
                .map(|s| shard_zone_count(zones, shards, s))
                .collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(max - min <= 1);
        }
    }
}

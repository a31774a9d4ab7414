//! `dcampaign` — run a synthetic measurement campaign and regenerate the
//! paper's tables from its shards (DESIGN.md §16).
//!
//! ```text
//! dcampaign --zones 100000 --shards 64 --seed 20200311 --out campaign-out
//! dcampaign --out campaign-out --resume          # finish a killed run
//! dcampaign --out campaign-out --aggregate-only  # re-render the tables
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ddx_campaign::{aggregate_dir, run_campaign, CampaignConfig, PopulationModel};

struct Args {
    cfg: CampaignConfig,
    aggregate_only: bool,
    check: bool,
    metrics_out: Option<String>,
}

const USAGE: &str = "\
dcampaign — synthetic DNSSEC measurement campaign driver

USAGE:
    dcampaign --out DIR [options]

OPTIONS:
    --out DIR            output directory for NDJSON shards + summary.json (required)
    --zones N            total zones across all shards        [default: 1000]
    --shards N           shard count                          [default: 8]
    --seed N             campaign seed                        [default: 908780]
    --workers N          worker threads                       [default: #cores]
    --resume             skip shards whose NDJSON is already complete and valid
    --attack-permille N  hostile (KeyTrap-class) zones per 1000 [default: 10]
    --budget-sigs N      per-zone signature-verification cap  [default: 512]
    --budget-hashes N    per-zone NSEC3 hash-round cap        [default: 16384]
    --max-iterations N   DFixer iteration cap                 [default: 6]
    --aggregate-only     only aggregate existing shards in --out and print tables
    --check              exit non-zero if Table 3/7 tolerances are violated
    --metrics-out PATH   write the ddx-obs metrics snapshot as JSON
    -h, --help           print this help
";

fn parse_args() -> Result<Args, String> {
    let mut cfg = CampaignConfig::default();
    let mut aggregate_only = false;
    let mut check = false;
    let mut metrics_out = None;
    let mut out_set = false;
    cfg.progress = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => {
                cfg.out_dir = PathBuf::from(value("--out")?);
                out_set = true;
            }
            "--zones" => {
                cfg.zones = value("--zones")?
                    .parse()
                    .map_err(|e| format!("--zones: {e}"))?;
            }
            "--shards" => {
                cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if cfg.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--resume" => cfg.resume = true,
            "--attack-permille" => {
                let permille: u16 = value("--attack-permille")?
                    .parse()
                    .map_err(|e| format!("--attack-permille: {e}"))?;
                if permille > 1000 {
                    return Err("--attack-permille must be ≤ 1000".into());
                }
                cfg.model = PopulationModel {
                    attack_permille: permille,
                };
            }
            "--budget-sigs" => {
                cfg.budget.max_sig_verifications = value("--budget-sigs")?
                    .parse()
                    .map_err(|e| format!("--budget-sigs: {e}"))?;
            }
            "--budget-hashes" => {
                cfg.budget.max_nsec3_hashes = value("--budget-hashes")?
                    .parse()
                    .map_err(|e| format!("--budget-hashes: {e}"))?;
            }
            "--max-iterations" => {
                cfg.max_iterations = value("--max-iterations")?
                    .parse()
                    .map_err(|e| format!("--max-iterations: {e}"))?;
            }
            "--aggregate-only" => aggregate_only = true,
            "--check" => check = true,
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !out_set {
        return Err("--out is required".into());
    }
    Ok(Args {
        cfg,
        aggregate_only,
        check,
        metrics_out,
    })
}

fn dump_metrics(path: &str) {
    let snap = ddx_obs::snapshot();
    match std::fs::write(path, snap.to_json()) {
        Ok(()) => {
            println!("\n== metrics ({path}) ==");
            print!("{}", snap.render_report());
        }
        Err(e) => eprintln!("warning: could not write metrics to {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if !args.aggregate_only {
        match run_campaign(&args.cfg) {
            Ok(outcome) => println!(
                "campaign: zones={} shards={} written={} resumed={}",
                args.cfg.zones, args.cfg.shards, outcome.shards_written, outcome.shards_resumed
            ),
            Err(e) => {
                eprintln!("error: campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let summary = match aggregate_dir(&args.cfg.out_dir) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: aggregation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary_path = args.cfg.out_dir.join("summary.json");
    if let Err(e) = std::fs::write(&summary_path, summary.to_json()) {
        eprintln!("error: could not write {}: {e}", summary_path.display());
        return ExitCode::FAILURE;
    }
    println!();
    print!("{}", summary.render_markdown());

    if let Some(path) = &args.metrics_out {
        dump_metrics(path);
    }

    if args.check {
        let violations = summary.check_tolerances();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("tolerance violation: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("tolerances: ok");
    }
    ExitCode::SUCCESS
}

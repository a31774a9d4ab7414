//! `dfixer` — the DFixer command-line tool.
//!
//! Replicates a misconfiguration scenario in the local sandbox, diagnoses
//! it (probe + grok), and prints the root-cause remediation plan with
//! concrete commands — optionally auto-applying it and re-verifying, like
//! the paper's auto-apply mode (§4.3 step 4).
//!
//! ```text
//! dfixer --errors RrsigExpired,DsDigestInvalid [--nsec3] [--flavor bind|nsd|knot|pdns]
//!        [--auto] [--cds] [--json] [--seed N] [--metrics-out metrics.json]
//! dfixer --errors RrsigExpired --watch 10 [--auto]
//! dfixer --list-errors
//! ```
//!
//! `--watch N` enters a long-lived revalidation loop: up to `N` rounds of
//! *incremental* probe→grok through a generation-keyed memo, so each round
//! re-examines only the zones whose content changed since the previous one
//! (first round: full walk). With `--auto`, each round also applies one
//! DResolver plan, turning the loop into a delta-driven fixer; without it,
//! the loop just reports status and memo deltas per round.

use std::collections::BTreeSet;
use std::process::ExitCode;

use ddx::prelude::*;
use ddx_dnsviz::GrokMemo;
use ddx_fixer::{apply_plan, resolve, FixContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    errors: Vec<String>,
    nsec3: bool,
    flavor: ServerFlavor,
    auto: bool,
    cds: bool,
    json: bool,
    seed: u64,
    list: bool,
    metrics_out: Option<String>,
    /// Maximum incremental revalidation rounds (None = watch mode off).
    watch: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        errors: Vec::new(),
        nsec3: false,
        flavor: ServerFlavor::Bind,
        auto: false,
        cds: false,
        json: false,
        seed: 42,
        list: false,
        metrics_out: None,
        watch: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--errors" => {
                let v = it.next().ok_or("--errors needs a value")?;
                args.errors = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--nsec3" => args.nsec3 = true,
            "--flavor" => {
                let v = it.next().ok_or("--flavor needs a value")?;
                args.flavor = match v.to_ascii_lowercase().as_str() {
                    "bind" => ServerFlavor::Bind,
                    "nsd" => ServerFlavor::Nsd,
                    "knot" => ServerFlavor::Knot,
                    "pdns" | "powerdns" => ServerFlavor::PowerDns,
                    other => return Err(format!("unknown flavor {other}")),
                };
            }
            "--auto" => args.auto = true,
            "--cds" => args.cds = true,
            "--json" => args.json = true,
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--list-errors" => args.list = true,
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?);
            }
            "--watch" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--watch needs a round count")?;
                if n == 0 {
                    return Err("--watch needs at least 1 round".into());
                }
                args.watch = Some(n);
            }
            "-h" | "--help" => {
                println!(
                    "dfixer --errors <Code,...> [--nsec3] [--flavor bind|nsd|knot|pdns] [--auto] [--cds] [--json] [--seed N] [--watch N] [--metrics-out <path>]\n       dfixer --list-errors"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Dumps the global metrics snapshot as JSON to `path` and prints the
/// human-readable run report to stdout.
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

fn lookup_code(name: &str) -> Option<ErrorCode> {
    ErrorCode::ALL
        .iter()
        .copied()
        .find(|c| c.ident().eq_ignore_ascii_case(name))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for c in ErrorCode::ALL {
            println!(
                "{:<32} {:<36} {} {}",
                c.ident(),
                c.subcategory().label(),
                if c.is_critical() {
                    "critical"
                } else {
                    "tolerated"
                },
                if c.replicable() { "" } else { "(unreplicable)" }
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut intended = BTreeSet::new();
    for name in &args.errors {
        match lookup_code(name) {
            Some(c) => {
                intended.insert(c);
            }
            None => {
                eprintln!("error: unknown error code {name} (try --list-errors)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut meta = ZoneMeta::default();
    if args.nsec3 {
        meta.nsec3 = Some(Nsec3Meta {
            iterations: 0,
            salt_len: 0,
            opt_out: false,
        });
    }
    let request = ReplicationRequest {
        meta,
        intended: intended.clone(),
    };
    let mut rep = match replicate(&request, 1_000_000, args.seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: replication failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (code, reason) in &rep.skipped {
        eprintln!("warning: could not inject {code}: {reason}");
    }

    let report = grok(&probe(&rep.sandbox.testbed, &rep.probe));
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("== diagnosis ==");
        print!("{}", report.render_text());
    }

    let (_, resolution, commands) = suggest(&rep.sandbox, &rep.probe, args.flavor);
    if !args.json {
        println!("\n== plan (root cause: {:?}) ==", resolution.addressed);
        for (i, instr) in resolution.plan.iter().enumerate() {
            println!("  ({}) {}", i + 1, instr.describe());
        }
        println!("\n== commands ({:?}) ==", args.flavor);
        for c in &commands {
            println!("  {c}");
        }
    }

    let mut exit = ExitCode::SUCCESS;
    if let Some(rounds) = args.watch {
        // Long-lived incremental revalidation: one memo across all rounds;
        // after the first full walk, each round re-probes only what changed.
        let mut memo = GrokMemo::new();
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut now = rep.probe.time;
        let mut clean = false;
        println!("\n== watch ({rounds} round max) ==");
        for round in 1..=rounds {
            let mut pcfg = rep.probe.clone();
            pcfg.time = now;
            let before = ddx_obs::snapshot();
            let report = memo.probe_grok(&rep.sandbox.testbed, &rep.sandbox.testbed, &pcfg);
            let delta = ddx_obs::snapshot().diff(&before);
            let memo_delta = |event: &str| delta.counter(&format!("grok.memo.{event}"));
            println!(
                "round {round}: status={} errors={} [zones: {} reused, {} probed, {} invalidated]",
                report.status,
                report.codes().len(),
                memo_delta("hits"),
                memo_delta("misses"),
                memo_delta("invalidations"),
            );
            if report.clean() {
                clean = true;
                println!("watch: clean after {round} round(s)");
                break;
            }
            if !args.auto {
                continue;
            }
            // Apply one DResolver plan per round; the next round's
            // incremental walk picks up exactly the zones it touched.
            let mut ctx = FixContext::from_sandbox(&rep.sandbox, &report, now);
            ctx.use_cds = args.cds;
            let resolution = resolve(&report, &ctx);
            if resolution.plan.is_empty() {
                println!(
                    "watch: no applicable fix (root cause {:?}); stopping",
                    resolution.addressed
                );
                break;
            }
            for instr in &resolution.plan {
                println!("  apply: {}", instr.describe());
            }
            now = apply_plan(&mut rep.sandbox, &resolution.plan, now, &mut rng);
        }
        if args.auto && !clean {
            exit = ExitCode::FAILURE;
        }
    } else if args.auto {
        let cfg = rep.probe.clone();
        let opts = FixerOptions {
            flavor: args.flavor,
            use_cds: args.cds,
            seed: args.seed,
            ..Default::default()
        };
        let run = run_fixer(&mut rep.sandbox, &cfg, &opts);
        println!("\n== auto-apply ==");
        for it in &run.iterations {
            println!(
                "iteration {}: status={} errors={} addressed={:?}",
                it.iteration,
                it.status_before,
                it.errors_before.len(),
                it.addressed
            );
        }
        println!(
            "result: fixed={} final status={} residual={:?}",
            run.fixed, run.final_status, run.final_errors
        );
        if !run.fixed {
            exit = ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.metrics_out {
        dump_metrics(path);
    }
    exit
}

//! Regenerates every table and figure of the paper's evaluation from the
//! synthetic corpus and the live replicate→fix pipeline.
//!
//! ```text
//! tables [--scale S] [--sample N] [--seed K] [--only <table1|fig1|…|table7|fig8|ext|llm>] [--full]
//!        [--metrics-out metrics.json]
//! ```
//!
//! Defaults: scale 0.01 (1% of the paper's dataset), 1,500 pipeline
//! snapshots. Paper reference values are printed alongside for comparison.

use std::collections::BTreeSet;

use ddx::prelude::*;
use ddx_dataset::{analysis, params, tranco};

struct Args {
    scale: f64,
    sample: usize,
    seed: u64,
    only: Option<String>,
    export_snapshots: Option<(usize, String)>,
    csv_dir: Option<String>,
    workers: usize,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.01,
        sample: 1_500,
        seed: 20_200_311,
        only: None,
        export_snapshots: None,
        csv_dir: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.scale),
            "--sample" => {
                args.sample = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.sample)
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            "--only" => args.only = it.next(),
            "--csv" => args.csv_dir = it.next(),
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.workers)
            }
            "--metrics-out" => args.metrics_out = it.next(),
            "--export-snapshots" => {
                let n = it.next().and_then(|v| v.parse().ok()).unwrap_or(10);
                let dir = it.next().unwrap_or_else(|| "snapshots".into());
                args.export_snapshots = Some((n, dir));
            }
            "--full" => {
                args.scale = 1.0;
                args.sample = usize::MAX;
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    args
}

fn want(args: &Args, key: &str) -> bool {
    args.only.as_deref().map(|o| o == key).unwrap_or(true)
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn main() {
    let args = parse_args();
    println!(
        "# ddx tables — scale {} (paper = 1.0), pipeline sample {}, seed {}",
        args.scale,
        if args.sample == usize::MAX {
            "all".to_string()
        } else {
            args.sample.to_string()
        },
        args.seed
    );
    let corpus = generate(&CorpusConfig {
        scale: args.scale,
        seed: args.seed,
    });

    if let Some((n, dir)) = &args.export_snapshots {
        export_snapshots(&corpus, *n, dir);
        if args.only.is_none() {
            return;
        }
    }

    if want(&args, "table1") {
        table1(&corpus, args.scale);
    }
    if want(&args, "fig1") {
        fig1(args.scale, args.seed);
    }
    if want(&args, "fig2") {
        fig2(&corpus);
    }
    if want(&args, "table2") {
        table2(&corpus);
    }
    if want(&args, "table3") {
        table3(&corpus);
    }
    if want(&args, "fig3") {
        fig3(&corpus);
    }
    if want(&args, "table4") {
        table4(&corpus);
    }
    if want(&args, "fig4") {
        fig4(&corpus);
    }
    if want(&args, "fig5") {
        fig5(&corpus);
    }
    if want(&args, "table5") {
        table5(&corpus);
    }
    if want(&args, "table6") || want(&args, "table7") {
        let summary = run_pipeline(&corpus, &args);
        if want(&args, "table6") {
            table6(&summary);
        }
        if want(&args, "table7") {
            table7(&summary);
        }
    }
    if let Some(dir) = &args.csv_dir {
        export_csv(&corpus, dir, args.scale, args.seed);
    }
    if want(&args, "fig8") {
        fig8();
    }
    if want(&args, "ext") {
        extensibility();
    }
    if want(&args, "llm") {
        llm_baseline();
    }
    if let Some(path) = &args.metrics_out {
        let snap = ddx_obs::snapshot();
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => {
                heading(&format!("Run metrics (written to {path})"));
                print!("{}", snap.render_report());
            }
            Err(e) => eprintln!("warning: could not write metrics to {path}: {e}"),
        }
    }
}

/// Writes N erroneous snapshots as JSON files consumable by
/// `zreplicator --snapshot-file` (the Fig 7 interchange format).
fn export_snapshots(corpus: &Corpus, n: usize, dir: &str) {
    std::fs::create_dir_all(dir).expect("create export dir");
    for (i, snapshot) in corpus.erroneous_snapshots().take(n).enumerate() {
        let path = format!("{dir}/snapshot_{i:05}.json");
        std::fs::write(&path, ddx_json::to_string_pretty(snapshot)).expect("write snapshot");
        println!("wrote {path}");
    }
}

/// Writes the data series behind every figure as CSV, ready for plotting.
fn export_csv(corpus: &Corpus, dir: &str, scale: f64, seed: u64) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let write = |file: &str, content: String| {
        let path = format!("{dir}/{file}");
        std::fs::write(&path, content).expect("write csv");
        println!("wrote {path}");
    };
    // Fig 1.
    let mut out = String::from("bin,pct_in_dataset,pct_signed_in_dataset,pct_misconfigured\n");
    for b in tranco::tranco_bins(scale, seed) {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.3}\n",
            b.bin + 1,
            100.0 * b.dataset_share(),
            100.0 * b.signed_dataset_share(),
            100.0 * b.misconfigured_share()
        ));
    }
    write("fig1_tranco.csv", out);
    // Fig 3.
    let prev = analysis::prevalence(corpus);
    let mut out = String::from("category,pct_of_snapshots\n");
    for (cat, share) in analysis::category_shares(&prev) {
        out.push_str(&format!("{},{share:.4}\n", cat.label()));
    }
    write("fig3_categories.csv", out);
    // Fig 4.
    let rt = analysis::resolution_times(corpus);
    let mut out =
        String::from("marker,subcategory,severity,instances,p20_days,p50_days,p80_days\n");
    for r in &rt.rows {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.3},{:.3}\n",
            r.marker,
            r.subcategory.label().replace(',', ";"),
            if r.critical {
                "critical"
            } else {
                "non-critical"
            },
            r.instances,
            r.p20_hours / 24.0,
            r.p50_hours / 24.0,
            r.p80_hours / 24.0
        ));
    }
    write("fig4_resolution_times.csv", out);
    // Fig 5.
    let cdf = analysis::gap_cdf(corpus);
    let mut out = String::from("hours,cdf\n");
    for h in [
        0.5, 1.0, 2.0, 6.0, 12.0, 24.0, 48.0, 72.0, 168.0, 336.0, 720.0, 2160.0, 4320.0,
    ] {
        out.push_str(&format!("{h},{:.4}\n", cdf.cdf(h)));
    }
    write("fig5_gap_cdf.csv", out);
    // Fig 2 matrix.
    let fl = analysis::first_last(corpus);
    let mut out = String::from("first,last,count\n");
    for ((f, l), c) in &fl.counts {
        out.push_str(&format!("{},{},{c}\n", f.label(), l.label()));
    }
    write("fig2_first_last.csv", out);
}

fn table1(corpus: &Corpus, scale: f64) {
    heading("Table 1 — Overview of the dataset (paper values at scale 1.0)");
    let rows = analysis::table1(corpus);
    println!(
        "{:<6} {:>10} {:>9} {:>9} {:>8} {:>8}",
        "Level", "snapshots", "domains", "multi", "CD", "SD"
    );
    for r in &rows {
        println!(
            "{:<6} {:>10} {:>9} {:>9} {:>8} {:>8}",
            r.level, r.snapshots, r.domains, r.multi, r.cd, r.sd
        );
    }
    println!(
        "paper:  SLD+ snapshots={} domains={} multi={} CD={} SD={} (× scale {scale})",
        params::table1::SLD_SNAPSHOTS,
        params::table1::SLD_DOMAINS,
        params::table1::SLD_MULTI,
        params::table1::SLD_CD,
        params::table1::SLD_SD,
    );
}

fn fig1(scale: f64, seed: u64) {
    heading("Figure 1 — Tranco 1M coverage per 100K rank bin");
    let bins = tranco::tranco_bins(scale, seed);
    println!(
        "{:>4} {:>12} {:>14} {:>16}",
        "bin", "% in DNSViz", "% signed seen", "% misconfigured"
    );
    for b in &bins {
        println!(
            "{:>4} {:>11.1}% {:>13.1}% {:>15.1}%",
            b.bin + 1,
            100.0 * b.dataset_share(),
            100.0 * b.signed_dataset_share(),
            100.0 * b.misconfigured_share()
        );
    }
    println!("paper: top bin ≈20% covered; signed line >30% in every bin; misconfiguration rarer among popular domains");
}

fn fig2(corpus: &Corpus) {
    heading("Figure 2 — CD domains: first → last snapshot status");
    let fl = analysis::first_last(corpus);
    let states = [
        SnapshotStatus::Sv,
        SnapshotStatus::Svm,
        SnapshotStatus::Sb,
        SnapshotStatus::Is,
    ];
    print!("{:>6}", "f\\l");
    for s in states {
        print!("{:>8}", s.label());
    }
    println!();
    for f in states {
        print!("{:>6}", f.label());
        for l in states {
            print!("{:>8}", fl.counts.get(&(f, l)).copied().unwrap_or(0));
        }
        println!();
    }
    println!(
        "sb recovered (→sv/svm): {:.0}%   (paper: 67%)",
        100.0 * fl.sb_recovered_share()
    );
    println!(
        "is newly signed:        {:.0}%   (paper: 62%)",
        100.0 * fl.newly_signed_share()
    );
}

fn table2(corpus: &Corpus) {
    heading("Table 2 — Causes of negative transitions from sv");
    let nt = analysis::negative_transitions(corpus);
    for (label, b, paper) in [
        ("sv→sb", &nt.sv_to_sb, (6.7, 45.2, 30.3)),
        ("sv→is", &nt.sv_to_is, (7.0, 30.0, 18.0)),
    ] {
        println!(
            "{label}: total={}  NS {:.1}% (paper {:.1}%)  Key {:.1}% (paper {:.1}%)  Algo {:.1}% (paper {:.1}%)",
            b.total,
            100.0 * b.ns_update as f64 / b.total.max(1) as f64,
            paper.0,
            100.0 * b.key_rollover as f64 / b.total.max(1) as f64,
            paper.1,
            100.0 * b.algo_rollover as f64 / b.total.max(1) as f64,
            paper.2,
        );
    }
}

fn table3(corpus: &Corpus) {
    heading("Table 3 — Prevalence of DNSSEC error types (SLD+)");
    let prev = analysis::prevalence(corpus);
    println!(
        "{:<36} {:>10} {:>7} {:>9} {:>7}   paper snap%",
        "Subcategory", "snapshots", "%", "domains", "%"
    );
    for r in &prev.rows {
        let paper_pct = 100.0 * params::subcategory_snapshots(r.subcategory) as f64
            / params::table1::SLD_SNAPSHOTS as f64;
        println!(
            "{:<36} {:>10} {:>6.2}% {:>9} {:>6.2}%   {:>6.2}%",
            r.subcategory.label(),
            r.snapshots,
            r.snapshot_pct,
            r.domains,
            r.domain_pct,
            paper_pct
        );
    }
    println!(
        "w/ at least one error: {} snapshots ({:.1}%), {} domains ({:.1}%)   (paper: 39.7% / 25.6%)",
        prev.erroneous_snapshots,
        100.0 * prev.erroneous_snapshots as f64 / prev.total_snapshots as f64,
        prev.erroneous_domains,
        100.0 * prev.erroneous_domains as f64 / prev.total_domains as f64,
    );
}

fn fig3(corpus: &Corpus) {
    heading("Figure 3 — Error share per parent category (% of snapshots)");
    let prev = analysis::prevalence(corpus);
    for (cat, share) in analysis::category_shares(&prev) {
        let bar = "#".repeat((share * 1.5).round() as usize);
        println!("{:<12} {:>6.2}% {bar}", cat.label(), share);
    }
}

fn table4(corpus: &Corpus) {
    heading("Table 4 — Transition adjacency matrix (count / median hours)");
    let tm = analysis::transitions(corpus);
    let labels = ["sv", "svm", "sb", "is"];
    let print_matrix = |counts: &[[u64; 4]; 4], medians: &[[f64; 4]; 4]| {
        print!("{:>6}", "f\\t");
        for l in labels {
            print!("{:>16}", l);
        }
        println!();
        for i in 0..4 {
            print!("{:>6}", labels[i]);
            for j in 0..4 {
                if i == j {
                    print!("{:>16}", "-");
                } else {
                    print!("{:>9}/{:>5.1}h", counts[i][j], medians[i][j]);
                }
            }
            println!();
        }
    };
    print_matrix(&tm.counts, &tm.median_hours);
    println!("paper:");
    print_matrix(&params::TRANSITION_COUNTS, &params::TRANSITION_MEDIAN_HOURS);
}

fn fig4(corpus: &Corpus) {
    heading("Figure 4 — Resolution times for marked error categories");
    let rt = analysis::resolution_times(corpus);
    println!(
        "{:<4} {:<36} {:<9} {:>6} {:>9} {:>9} {:>9}",
        "idx", "subcategory", "severity", "n", "p20(d)", "p50(d)", "p80(d)"
    );
    for r in &rt.rows {
        println!(
            "{:<4} {:<36} {:<9} {:>6} {:>9.2} {:>9.2} {:>9.2}",
            r.marker,
            r.subcategory.label(),
            if r.critical { "critical" } else { "non-crit" },
            r.instances,
            r.p20_hours / 24.0,
            r.p50_hours / 24.0,
            r.p80_hours / 24.0
        );
    }
    println!(
        "time to deploy DNSSEC: median {:.1} days over {} instances (paper: >1 day)",
        rt.deploy_median_hours / 24.0,
        rt.deploy_instances
    );
}

fn fig5(corpus: &Corpus) {
    heading("Figure 5 — CDF of per-domain median inter-snapshot gap");
    let cdf = analysis::gap_cdf(corpus);
    for hours in [1.0, 6.0, 12.0, 24.0, 72.0, 168.0, 720.0, 4320.0] {
        println!("≤ {:>6.0}h: {:>5.1}%", hours, 100.0 * cdf.cdf(hours));
    }
    println!(
        "share under one day: {:.0}%   (paper: 65%)",
        100.0 * cdf.share_under_day
    );
}

fn table5(corpus: &Corpus) {
    heading("Table 5 — Domains never resolving per state");
    let rows = analysis::unresolved(corpus);
    let paper = [
        params::table5::SB_UNRESOLVED,
        params::table5::SVM_UNRESOLVED,
        params::table5::IS_UNRESOLVED,
    ];
    for (r, paper_share) in rows.iter().zip(paper) {
        println!(
            "{:<4} domains={:>7} unresolved={:>7} ({:>5.1}%)   paper {:>5.1}%",
            r.state.label(),
            r.domains,
            r.unresolved,
            100.0 * r.share(),
            100.0 * paper_share
        );
    }
}

fn run_pipeline(corpus: &Corpus, args: &Args) -> CampaignSummary {
    heading("Running replicate→fix pipeline (Tables 6 & 7)…");
    let start = std::time::Instant::now();
    let summary = evaluate_corpus(corpus, args.sample, args.seed, args.workers);
    println!(
        "evaluated {} snapshots in {:.1}s ({} workers)",
        summary.zones,
        start.elapsed().as_secs_f64(),
        args.workers
    );
    let overflow = summary.table7.histogram_overflow;
    if overflow > 0 {
        eprintln!(
            "pipeline: {overflow} instruction(s) issued past iteration 6 \
             clamped into the last Table 7 bucket"
        );
    }
    summary
}

fn table6(summary: &CampaignSummary) {
    heading("Table 6 — ZReplicator replication rate & DFixer fix rate");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "Dataset", "snapshots", "GE≠∅", "IE⊆GE&IE≠∅", "RR", "FR"
    );
    let total = summary.benign_total();
    for (label, row, paper_rr, paper_fr) in [
        ("NZIC Only (S1)", &summary.table6[0], 98.81, 100.0),
        ("Remaining (S2)", &summary.table6[1], 78.71, 99.99),
        ("Total", &total, 90.11, 99.99),
    ] {
        println!(
            "{:<16} {:>10} {:>10} {:>12} {:>7.2}% {:>7.2}%   (paper {paper_rr:.2}% / {paper_fr:.2}%)",
            label,
            row.zones,
            row.generated,
            row.replicated,
            100.0 * row.rr(),
            100.0 * row.fr()
        );
    }
    println!(
        "max DFixer iterations: {} (paper: ≤4)",
        total.max_iterations
    );
}

fn table7(summary: &CampaignSummary) {
    heading("Table 7 — DFixer instructions per iteration (S2 subset)");
    let histogram = &summary.table7.instruction_histogram;
    let mut col_totals = [0u64; 4];
    for (_, cols) in histogram {
        for (i, total) in col_totals.iter_mut().enumerate().take(4) {
            *total += cols[i];
        }
    }
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>14}",
        "Instruction", "1st iter", "2nd iter", "3rd iter", "4th iter"
    );
    let mut rows = histogram.clone();
    rows.sort_by_key(|(_, cols)| std::cmp::Reverse(cols[0]));
    for (kind, cols) in rows {
        print!("{:<44}", kind.label());
        for i in 0..4 {
            if cols[i] == 0 {
                print!(" {:>14}", "-");
            } else {
                print!(
                    " {:>6} ({:>4.1}%)",
                    cols[i],
                    100.0 * cols[i] as f64 / col_totals[i].max(1) as f64
                );
            }
        }
        println!();
    }
    println!(
        "paper: Sign-the-zone 41.7% of 1st-iteration instructions, Remove-incorrect-DS 30.9%, …"
    );
}

fn fig8() {
    heading("Figure 8 — Sample remediation workflow (revoked KSK + linked DS)");
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: BTreeSet::from([ErrorCode::DsReferencesRevokedKey]),
    };
    let rep = replicate(&request, 1_000_000, 0xF18).expect("replicates");
    let (report, resolution, commands) = suggest(&rep.sandbox, &rep.probe, ServerFlavor::Bind);
    println!(
        "status: {}; root cause: {:?}",
        report.status, resolution.addressed
    );
    for (i, instr) in resolution.plan.iter().enumerate() {
        println!("  ({}) {}", i + 1, instr.describe());
    }
    println!("-- BIND commands --");
    for c in &commands {
        println!("  {c}");
    }
}

fn extensibility() {
    heading("§5.6 — Extensibility: the same plan rendered per implementation");
    let request = ReplicationRequest {
        meta: ZoneMeta::default(),
        intended: BTreeSet::from([ErrorCode::RrsigExpired]),
    };
    let rep = replicate(&request, 1_000_000, 0x5E6).expect("replicates");
    for flavor in ServerFlavor::ALL {
        let (_, _, commands) = suggest(&rep.sandbox, &rep.probe, flavor);
        println!("\n[{flavor:?}]");
        for c in commands.iter().take(4) {
            println!("  {c}");
        }
    }
}

fn llm_baseline() {
    heading("Appendix A.2 — DFixer vs the naive per-error baseline");
    let scenarios: Vec<(&str, Vec<ErrorCode>, bool)> = vec![
        (
            "extraneous DS (A.2 test zone)",
            vec![ErrorCode::DsMissingKeyForAlgorithm],
            false,
        ),
        (
            "revoked sole KSK (Fig 8)",
            vec![ErrorCode::DsReferencesRevokedKey],
            false,
        ),
        ("expired RRSIG", vec![ErrorCode::RrsigExpired], false),
        (
            "NZIC + extraneous DS",
            vec![
                ErrorCode::Nsec3IterationsNonzero,
                ErrorCode::DsMissingKeyForAlgorithm,
            ],
            true,
        ),
        (
            "broken NSEC3 chain",
            vec![ErrorCode::Nsec3CoverageBroken],
            true,
        ),
    ];
    println!(
        "{:<32} {:>8} {:>8} {:>10} {:>10}",
        "scenario", "DFixer", "naive", "DFx iters", "nv iters"
    );
    for (label, codes, nsec3) in scenarios {
        let mut meta = ZoneMeta::default();
        if nsec3 {
            meta.nsec3 = Some(Nsec3Meta {
                iterations: 0,
                salt_len: 0,
                opt_out: false,
            });
        }
        let request = ReplicationRequest {
            meta,
            intended: codes.iter().copied().collect(),
        };
        let mut rep_a = replicate(&request, 1_000_000, 0x11A).expect("replicates");
        let cfg_a = rep_a.probe.clone();
        let run_a = run_fixer(&mut rep_a.sandbox, &cfg_a, &FixerOptions::default());
        let mut rep_b = replicate(&request, 1_000_000, 0x11A).expect("replicates");
        let cfg_b = rep_b.probe.clone();
        let run_b = run_naive(&mut rep_b.sandbox, &cfg_b, &FixerOptions::default());
        println!(
            "{:<32} {:>8} {:>8} {:>10} {:>10}",
            label,
            if run_a.fixed { "FIXED" } else { "FAIL" },
            if run_b.fixed { "fixed" } else { "FAIL" },
            run_a.iterations.len(),
            run_b.iterations.len()
        );
    }
}

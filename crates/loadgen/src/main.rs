//! `ddx-loadgen` — spawn a sandbox authoritative server on loopback and
//! drive it with probe-shaped / hostile query mixes.
//!
//! ```text
//! ddx-loadgen [--qps N] [--duration-ms MS] [--clients N] [--server-workers N]
//!             [--mix probe|hostile|mixed] [--seed K] [--batch N]
//!             [--rate-limit QPS:BURST] [--scan-workers 1,2,4,8]
//!             [--json] [--metrics-out metrics.json]
//! ```
//!
//! Defaults: 2000 qps aggregate, 1 s, 4 clients, 4 server workers, mixed
//! traffic. `--qps 0` saturates (closed-loop, no pacing). `--scan-workers`
//! repeats the run at each worker count and prints a scaling table — the
//! experiment behind EXPERIMENTS.md's shared-nothing scaling recipe.

use std::time::Duration;

use ddx_dns::name;
use ddx_loadgen::{run_load, LoadConfig, LoadReport, QueryMix};
use ddx_server::RateLimitConfig;
use ddx_server::{build_sandbox, ZoneSpec};
use ddx_server::{TransportConfig, UdpServerHandle};

struct Args {
    qps: u64,
    duration: Duration,
    clients: usize,
    server_workers: usize,
    batch: usize,
    mix: QueryMix,
    seed: u64,
    rate_limit: Option<RateLimitConfig>,
    scan_workers: Option<Vec<usize>>,
    json: bool,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        qps: 2_000,
        duration: Duration::from_millis(1_000),
        clients: 4,
        server_workers: 4,
        batch: ddx_server::DEFAULT_BATCH,
        mix: QueryMix::Mixed,
        seed: 0xDD5EC,
        rate_limit: None,
        scan_workers: None,
        json: false,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--qps" => args.qps = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.qps),
            "--duration-ms" => {
                let ms: u64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(1_000);
                args.duration = Duration::from_millis(ms);
            }
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.clients)
            }
            "--server-workers" => {
                args.server_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.server_workers)
            }
            "--batch" => args.batch = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.batch),
            "--mix" => {
                let v = it.next().unwrap_or_default();
                match QueryMix::parse(&v) {
                    Some(m) => args.mix = m,
                    None => eprintln!("unknown mix {v:?}; keeping {}", args.mix.label()),
                }
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            "--rate-limit" => {
                let v = it.next().unwrap_or_default();
                let mut parts = v.split(':');
                let qps = parts.next().and_then(|p| p.parse().ok());
                let burst = parts.next().and_then(|p| p.parse().ok());
                match (qps, burst) {
                    (Some(q), Some(b)) => args.rate_limit = Some(RateLimitConfig::new(q, b)),
                    _ => eprintln!("--rate-limit wants QPS:BURST, got {v:?}"),
                }
            }
            "--scan-workers" => {
                let v = it.next().unwrap_or_default();
                let ws: Vec<usize> = v.split(',').filter_map(|p| p.parse().ok()).collect();
                if ws.is_empty() {
                    eprintln!("--scan-workers wants a comma list like 1,2,4,8");
                } else {
                    args.scan_workers = Some(ws);
                }
            }
            "--json" => args.json = true,
            "--metrics-out" => args.metrics_out = it.next(),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    args
}

/// Spawns a fresh signed sandbox zone server with `workers` UDP workers.
fn spawn_server(args: &Args, workers: usize) -> (UdpServerHandle, ddx_dns::Name) {
    let apex = name("load.test");
    let sb = build_sandbox(
        &[ZoneSpec::conventional(apex.clone())],
        1_000_000,
        args.seed,
    );
    let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();
    let handle = UdpServerHandle::spawn_with(
        server,
        TransportConfig {
            workers,
            batch: args.batch,
            rate_limit: args.rate_limit,
        },
    )
    .expect("spawn loopback server");
    (handle, apex)
}

fn run_once(args: &Args, workers: usize) -> LoadReport {
    let (handle, apex) = spawn_server(args, workers);
    let cfg = LoadConfig {
        qps: args.qps,
        duration: args.duration,
        clients: args.clients,
        mix: args.mix,
        seed: args.seed,
        timeout: Duration::from_millis(500),
    };
    run_load(handle.addr, &apex, &cfg).expect("load run")
}

fn main() {
    let args = parse_args();
    if let Some(workers_list) = &args.scan_workers {
        // Scaling sweep: same offered load against 1..N worker transports.
        println!("| workers | achieved qps | p50 µs | p99 µs | p999 µs | timeouts |");
        println!("|---:|---:|---:|---:|---:|---:|");
        let mut baseline: Option<f64> = None;
        let mut last_ratio = 0.0;
        for &w in workers_list {
            let report = run_once(&args, w);
            let base = *baseline.get_or_insert(report.achieved_qps.max(1.0));
            last_ratio = report.achieved_qps / base;
            println!(
                "| {w} | {:.0} (×{:.2}) | {} | {} | {} | {} |",
                report.achieved_qps,
                last_ratio,
                report.p50_us,
                report.p99_us,
                report.p999_us,
                report.timeouts,
            );
        }
        println!();
        println!(
            "scaling {}→{} workers: ×{last_ratio:.2}",
            workers_list.first().unwrap_or(&1),
            workers_list.last().unwrap_or(&1),
        );
    } else {
        let report = run_once(&args, args.server_workers);
        if args.json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.summary());
        }
    }
    if let Some(path) = &args.metrics_out {
        let snap = ddx_obs::snapshot();
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => {
                eprintln!("metrics written to {path}");
                print!("{}", snap.render_report());
            }
            Err(e) => eprintln!("warning: could not write metrics to {path}: {e}"),
        }
    }
}

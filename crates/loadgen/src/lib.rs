//! # ddx-loadgen — closed-loop UDP load generation for the server transport
//!
//! Drives a spawned [`ddx_server::UdpServerHandle`] with deterministic
//! query streams at a target aggregate QPS and reports exact latency
//! percentiles. Two query shapes model the paper's traffic:
//!
//! * **probe** — the DNSViz-probe-shaped mix: apex SOA/NS/DNSKEY/TXT/DS
//!   and host A/AAAA lookups with EDNS+DO, the queries a measurement
//!   platform issues when walking a zone's DNSSEC state.
//! * **hostile** — cache-hostile and abusive traffic: random NXDOMAIN
//!   names (each a fresh denial proof), out-of-zone names (REFUSED),
//!   unknown RR types, and plain-DNS zone transfers that force truncation.
//!
//! `mixed` interleaves the two 50/50. Every client thread is closed-loop
//! (at most one query in flight) and paced so the fleet sums to the target
//! QPS; `qps = 0` means saturation — send as fast as answers return.
//!
//! Determinism: all randomness flows from one `u64` seed through
//! [`SplitMix64`], so a report is reproducible modulo scheduler timing.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use ddx_json::ToJson;

use ddx_dns::{wire, Message, MessageView, Name, Rcode, RrType};

/// The traffic-shaping generator: tiny, seedable, statistically fine.
pub use rand::SplitMix64;

/// Which traffic shape a client thread generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson)]
pub enum QueryMix {
    Probe,
    Hostile,
    Mixed,
}

impl QueryMix {
    pub fn parse(s: &str) -> Option<QueryMix> {
        match s {
            "probe" => Some(QueryMix::Probe),
            "hostile" => Some(QueryMix::Hostile),
            "mixed" => Some(QueryMix::Mixed),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            QueryMix::Probe => "probe",
            QueryMix::Hostile => "hostile",
            QueryMix::Mixed => "mixed",
        }
    }
}

/// Builds the next query of `mix` against the zone rooted at `apex`.
/// Deterministic in (`mix`, rng state, `id`).
pub fn synth_query(mix: QueryMix, rng: &mut SplitMix64, apex: &Name, id: u16) -> Message {
    let shape = match mix {
        QueryMix::Probe => 0,
        QueryMix::Hostile => 1,
        QueryMix::Mixed => (rng.next_u64() % 2) as usize,
    };
    if shape == 0 {
        probe_query(rng, apex, id)
    } else {
        hostile_query(rng, apex, id)
    }
}

fn child(apex: &Name, label: &str) -> Name {
    apex.child(label)
        .expect("loadgen labels are short and valid")
}

/// The queries a DNSViz-style probe issues when walking a zone.
fn probe_query(rng: &mut SplitMix64, apex: &Name, id: u16) -> Message {
    match rng.next_u64() % 8 {
        0 => Message::query(id, apex.clone(), RrType::Soa),
        1 => Message::query(id, apex.clone(), RrType::Ns),
        2 => Message::query(id, apex.clone(), RrType::Dnskey),
        3 => Message::query(id, apex.clone(), RrType::Txt),
        4 => Message::query(id, apex.clone(), RrType::Ds),
        5 => Message::query(id, child(apex, "www"), RrType::A),
        6 => Message::query(id, child(apex, "www"), RrType::Aaaa),
        _ => Message::query(id, child(apex, "ns1"), RrType::A),
    }
}

/// Abusive traffic: random denials, out-of-zone names, odd types, and
/// plain-DNS (no EDNS) zone transfers that force the truncation path.
fn hostile_query(rng: &mut SplitMix64, apex: &Name, id: u16) -> Message {
    match rng.next_u64() % 5 {
        0 | 1 => {
            // Fresh random NXDOMAIN: every one needs a denial proof, so
            // these never hit the memo's positive entries.
            let label = format!("x{:016x}", rng.next_u64());
            Message::query(id, child(apex, &label), RrType::A)
        }
        2 => {
            // Out-of-bailiwick: the server answers REFUSED.
            Message::query(id, ddx_dns::name("nowhere.invalid"), RrType::A)
        }
        3 => {
            // A type the server does not model.
            let code = 200 + (rng.next_u64() % 55) as u16;
            Message::query(id, apex.clone(), RrType::Unknown(code))
        }
        _ => {
            // A zone transfer over plain-DNS UDP: the SOA-bracketed zone
            // never fits 512 bytes, so the answer comes back with TC. (A
            // plain-DNS DNSKEY answer carries no RRSIGs and does fit.)
            let mut q = Message::query(id, apex.clone(), RrType::Axfr);
            q.edns = None;
            q
        }
    }
}

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Aggregate target queries/second across all clients; 0 = saturate.
    pub qps: u64,
    pub duration: Duration,
    /// Closed-loop client threads (each at most one query in flight).
    pub clients: usize,
    pub mix: QueryMix,
    pub seed: u64,
    /// Per-query receive timeout; expiry counts as a timeout, not a latency
    /// sample.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            qps: 2_000,
            duration: Duration::from_millis(1_000),
            clients: 4,
            mix: QueryMix::Mixed,
            seed: 0xDD5EC,
            timeout: Duration::from_millis(500),
        }
    }
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone, Default, ToJson)]
pub struct LoadReport {
    pub mix: String,
    pub clients: usize,
    pub target_qps: u64,
    pub sent: u64,
    pub received: u64,
    pub timeouts: u64,
    pub refused: u64,
    pub truncated: u64,
    pub elapsed_ms: u64,
    /// Answered queries per wall-clock second.
    pub achieved_qps: f64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
    pub max_us: u64,
}

impl LoadReport {
    pub fn to_json(&self) -> String {
        ddx_json::to_string_pretty(self)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "mix={} clients={} target={}qps achieved={:.0}qps sent={} recv={} timeout={} refused={} tc={} p50={}µs p90={}µs p99={}µs p999={}µs",
            self.mix,
            self.clients,
            self.target_qps,
            self.achieved_qps,
            self.sent,
            self.received,
            self.timeouts,
            self.refused,
            self.truncated,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.p999_us,
        )
    }
}

/// Exact percentile over raw samples (nearest-rank). `samples` need not be
/// sorted; returns 0 when empty.
pub fn percentile_us(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank.min(samples.len()) - 1]
}

#[derive(Default)]
struct ClientStats {
    sent: u64,
    received: u64,
    timeouts: u64,
    refused: u64,
    truncated: u64,
    samples: Vec<u64>,
}

/// Runs one load generation pass against `addr` and aggregates the fleet's
/// outcomes. Blocks for roughly `cfg.duration`.
pub fn run_load(addr: SocketAddr, apex: &Name, cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let clients = cfg.clients.max(1);
    // Pace each client at qps/clients so the fleet sums to the target.
    let interval = if cfg.qps == 0 {
        None
    } else {
        Some(Duration::from_secs_f64(
            clients as f64 / cfg.qps.max(1) as f64,
        ))
    };
    let started = Instant::now();
    let threads: Vec<std::thread::JoinHandle<std::io::Result<ClientStats>>> = (0..clients)
        .map(|c| {
            let apex = apex.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || client_loop(c, addr, &apex, &cfg, interval))
        })
        .collect();
    let mut stats = ClientStats::default();
    for t in threads {
        let s = t.join().expect("client thread panicked")?;
        stats.sent += s.sent;
        stats.received += s.received;
        stats.timeouts += s.timeouts;
        stats.refused += s.refused;
        stats.truncated += s.truncated;
        stats.samples.extend(s.samples);
    }
    let elapsed = started.elapsed();
    let mut samples = stats.samples;
    Ok(LoadReport {
        mix: cfg.mix.label().to_string(),
        clients,
        target_qps: cfg.qps,
        sent: stats.sent,
        received: stats.received,
        timeouts: stats.timeouts,
        refused: stats.refused,
        truncated: stats.truncated,
        elapsed_ms: elapsed.as_millis() as u64,
        achieved_qps: stats.received as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&mut samples, 0.50),
        p90_us: percentile_us(&mut samples, 0.90),
        p99_us: percentile_us(&mut samples, 0.99),
        p999_us: percentile_us(&mut samples, 0.999),
        max_us: samples.last().copied().unwrap_or(0),
    })
}

/// One closed-loop paced client. Reuses a single socket and encode buffer
/// for every query.
fn client_loop(
    client: usize,
    addr: SocketAddr,
    apex: &Name,
    cfg: &LoadConfig,
    interval: Option<Duration>,
) -> std::io::Result<ClientStats> {
    let obs_sent = ddx_obs::counter("loadgen.sent", &[]);
    let obs_recv = ddx_obs::counter("loadgen.received", &[]);
    let obs_timeout = ddx_obs::counter("loadgen.timeouts", &[]);
    let obs_lat = ddx_obs::histogram("loadgen.latency_us", &[]);
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_read_timeout(Some(cfg.timeout))?;
    // Independent per-client stream: offset the seed by the client index.
    let mut rng = SplitMix64::new(
        cfg.seed
            .wrapping_add(client as u64)
            .wrapping_mul(0x9E3779B1),
    );
    let mut stats = ClientStats::default();
    let mut out_buf: Vec<u8> = Vec::with_capacity(512);
    let mut in_buf = [0u8; 4096];
    let start = Instant::now();
    let mut next = start;
    let mut id: u16 = (client as u16).wrapping_mul(4099).wrapping_add(1);
    while start.elapsed() < cfg.duration {
        if let Some(iv) = interval {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            } else if now.duration_since(next) > Duration::from_secs(1) {
                // Far behind target rate: resync instead of bursting to
                // catch up (coordinated-omission guard).
                next = now;
            }
            next += iv;
        }
        id = id.wrapping_add(1).max(1);
        let query = synth_query(cfg.mix, &mut rng, apex, id);
        wire::encode_into(&query, &mut out_buf);
        let t0 = Instant::now();
        sock.send_to(&out_buf, addr)?;
        stats.sent += 1;
        obs_sent.inc();
        // Wait for a datagram attributable to this query; stale answers
        // from timed-out exchanges are skipped. Validation and tallying run
        // entirely on the borrowed MessageView — the loadgen never
        // materializes an owned response.
        let outcome = loop {
            match sock.recv_from(&mut in_buf) {
                Ok((len, peer)) if peer == addr => match MessageView::parse(&in_buf[..len]) {
                    Ok(view) => {
                        let question_matches = match (view.question(), &query.question) {
                            (Some(qv), Some(q)) => qv.matches(q),
                            (None, None) => true,
                            _ => false,
                        };
                        if view.id() == query.id && question_matches {
                            break Some((view.rcode(), view.flags().tc));
                        }
                        continue;
                    }
                    Err(_) => continue,
                },
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break None;
                }
                Err(e) => return Err(e),
            }
        };
        match outcome {
            Some((rcode, tc)) => {
                let us = t0.elapsed().as_micros() as u64;
                stats.received += 1;
                stats.samples.push(us);
                obs_recv.inc();
                obs_lat.record(us);
                if rcode == Rcode::Refused {
                    stats.refused += 1;
                }
                if tc {
                    stats.truncated += 1;
                }
            }
            None => {
                stats.timeouts += 1;
                obs_timeout.inc();
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::name;
    use ddx_server::sandbox::{build_sandbox, ZoneSpec};
    use ddx_server::udp::{TransportConfig, UdpServerHandle};
    use ddx_server::RateLimitConfig;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
    }

    #[test]
    fn query_streams_are_seed_reproducible() {
        let apex = name("load.test");
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for id in 1..200u16 {
            let qa = synth_query(QueryMix::Mixed, &mut a, &apex, id);
            let qb = synth_query(QueryMix::Mixed, &mut b, &apex, id);
            assert_eq!(wire::encode(&qa), wire::encode(&qb));
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_exact() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&mut s, 0.50), 50);
        assert_eq!(percentile_us(&mut s, 0.90), 90);
        assert_eq!(percentile_us(&mut s, 0.99), 99);
        assert_eq!(percentile_us(&mut s, 1.0), 100);
        assert_eq!(percentile_us(&mut [], 0.5), 0);
        assert_eq!(percentile_us(&mut [7], 0.999), 7);
    }

    /// End-to-end smoke: a sharded server on loopback answers a short
    /// mixed-load burst and the report holds together.
    #[test]
    fn loadgen_round_trip_against_sharded_server() {
        let apex = name("load.test");
        let sb = build_sandbox(&[ZoneSpec::conventional(apex.clone())], 1_000_000, 99);
        let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();
        let handle = UdpServerHandle::spawn_sharded(server, 2).unwrap();
        let cfg = LoadConfig {
            qps: 500,
            duration: Duration::from_millis(300),
            clients: 2,
            mix: QueryMix::Mixed,
            seed: 1,
            timeout: Duration::from_millis(300),
        };
        let report = run_load(handle.addr, &apex, &cfg).unwrap();
        assert!(report.sent > 0);
        assert!(report.received > 0, "{}", report.summary());
        assert!(report.p50_us > 0);
        assert!(report.p999_us >= report.p50_us);
        // The hostile half of the mix must exercise the truncation path.
        assert!(report.truncated > 0, "{}", report.summary());
    }

    /// The transport's per-client token bucket shows up as REFUSED answers
    /// in the report (answered fast, not dropped).
    #[test]
    fn rate_limited_run_reports_refused() {
        let apex = name("load.test");
        let sb = build_sandbox(&[ZoneSpec::conventional(apex.clone())], 1_000_000, 100);
        let server = sb.testbed.server(&sb.zones[0].servers[0]).unwrap().clone();
        let handle = UdpServerHandle::spawn_with(
            server,
            TransportConfig {
                rate_limit: Some(RateLimitConfig::new(20, 5)),
                ..TransportConfig::default()
            },
        )
        .unwrap();
        let cfg = LoadConfig {
            qps: 1_000,
            duration: Duration::from_millis(300),
            clients: 1,
            mix: QueryMix::Probe,
            seed: 2,
            timeout: Duration::from_millis(300),
        };
        let report = run_load(handle.addr, &apex, &cfg).unwrap();
        assert!(
            report.refused > 0,
            "over-rate probe traffic must be refused: {}",
            report.summary()
        );
    }
}

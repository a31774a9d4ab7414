//! The `dnsviz probe` analogue: starting from a local trust anchor, walk
//! the delegation chain toward the query domain, interrogating **every**
//! authoritative server of every zone cut for its DNSSEC material, negative
//! responses, and (at the query zone) the target RRsets.

use std::collections::BTreeMap;
use std::sync::Arc;

use ddx_dns::{Dnskey, Message, Name, RData, Rcode, RrType};
use ddx_server::{Network, QueryOutcome, ServerId};

/// The label probed to elicit an NXDOMAIN (DNSViz queries random
/// non-existent sub-labels; ours is fixed and reserved — nothing in the
/// testbed ever creates it).
pub const NX_PROBE_LABEL: &str = "dnsviz-nx-probe";

/// A second, high-sorting non-existent label, so the *wrap-around* denial
/// record (last NSEC → apex) is also exercised.
pub const NX_PROBE_LABEL_HI: &str = "zzz-dnsviz-nx-probe";

/// Private-use RR type queried to elicit a NODATA at an existing name.
pub const NODATA_PROBE_TYPE: RrType = RrType::Unknown(65280);

/// How hard the prober tries before declaring a query unobservable.
///
/// Backoff is expressed in *virtual* milliseconds — an accumulated counter
/// reported on the [`ProbeResult`], never a real sleep — so probing stays
/// deterministic and instant regardless of the fault mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per (server, query); clamped to at least 1.
    pub attempts: u32,
    /// Virtual backoff before retry `k` (1-based): `backoff_base_ms << (k-1)`.
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff_base_ms: 100,
        }
    }
}

/// Why a query ultimately failed after every retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Every attempt timed out.
    Timeout,
    /// Every attempt came back with the TC bit set.
    Truncated,
    /// Every attempt produced bytes that did not parse.
    Malformed,
    /// Every attempt was answered REFUSED or SERVFAIL (the response itself
    /// is still recorded as the observation, but it carries no zone data).
    Refused,
}

/// One query that exhausted its retries — the typed record of "could not
/// observe" that replaces the old silent `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFailure {
    pub qname: Name,
    pub qtype: RrType,
    pub kind: FailureKind,
    /// Attempts made before giving up.
    pub attempts: u32,
}

/// Per-server attempt counters accumulated over one probe walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerHealth {
    pub sent: u32,
    pub ok: u32,
    pub timeouts: u32,
    pub truncated: u32,
    pub malformed: u32,
    pub refused: u32,
}

/// What to probe.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Apex of the locally-trusted anchor zone (the sandbox "root").
    pub anchor_zone: Name,
    /// Servers authoritative for the anchor.
    pub anchor_servers: Vec<ServerId>,
    /// The domain under diagnosis (paper: Query Domain).
    pub query_domain: Name,
    /// RR types queried at the query domain.
    pub target_types: Vec<RrType>,
    /// Probe timestamp (simulation clock).
    pub time: u32,
    /// Known zone → servers hints (from the operator or a previous run).
    /// When the delegation walk cannot reach a hinted zone that should sit
    /// on the path, the prober contacts its servers directly — this is how
    /// an *incomplete delegation* (`ic`) becomes observable.
    pub hints: Vec<(Name, Vec<ServerId>)>,
    /// Retry/backoff policy applied to every query of the walk.
    pub retry: RetryPolicy,
}

/// Everything one authoritative server said about one zone.
#[derive(Debug, Clone)]
pub struct ServerProbe {
    pub server: ServerId,
    /// False when every query timed out.
    pub responsive: bool,
    pub soa: Option<Arc<Message>>,
    pub ns: Option<Arc<Message>>,
    pub dnskey: Option<Arc<Message>>,
    /// Response to the non-existent-label query.
    pub nxdomain: Option<Arc<Message>>,
    /// Response to the high-sorting non-existent-label query.
    pub nxdomain_hi: Option<Arc<Message>>,
    /// Response to the NODATA probe at the apex.
    pub nodata: Option<Arc<Message>>,
    /// NSEC3PARAM query at the apex (reveals the zone's declared NSEC3
    /// parameters, if any).
    pub nsec3param: Option<Arc<Message>>,
    /// Target answers; populated only at the query zone.
    pub answers: Vec<(RrType, Option<Arc<Message>>)>,
    /// Queries that exhausted their retries against this server — the
    /// typed record distinguishing "couldn't observe" from "nothing there".
    pub failures: Vec<QueryFailure>,
}

impl ServerProbe {
    /// The DNSKEY records this server returned, if any — borrowed from the
    /// (shared) DNSKEY response rather than deep-copied per call.
    pub fn dnskeys(&self) -> impl Iterator<Item = &Dnskey> + '_ {
        self.dnskey
            .iter()
            .flat_map(|m| m.answers.iter())
            .filter_map(|r| match &r.rdata {
                RData::Dnskey(k) => Some(k),
                _ => None,
            })
    }
}

/// Everything learned about one zone cut.
#[derive(Debug, Clone)]
pub struct ZoneProbe {
    pub zone: Name,
    pub parent: Option<Name>,
    /// NS names from the parent-side referral (empty at the anchor).
    pub delegation_ns: Vec<Name>,
    /// NS hostnames that did not resolve to any server.
    pub unresolved_ns: Vec<Name>,
    /// DS responses gathered from each parent-zone server.
    pub ds_responses: Vec<(ServerId, Option<Arc<Message>>)>,
    pub servers: Vec<ServerProbe>,
    /// True when the walk could not find this zone through the parent (no
    /// delegation NS) and it was only reachable via a hint — the paper's
    /// `ic` (incomplete) condition.
    pub orphaned: bool,
    /// Delegation-walk queries (referral lookups toward this zone's cut,
    /// DS queries at the parent) that exhausted their retries.
    pub lookup_failures: Vec<(ServerId, QueryFailure)>,
}

impl ZoneProbe {
    /// True if every known server failed to respond or the zone has no
    /// resolvable servers at all — the paper's `lm` (lame) condition.
    pub fn is_lame(&self) -> bool {
        self.servers.is_empty() || self.servers.iter().all(|s| !s.responsive)
    }
}

/// The complete probe output for one query domain.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    pub query_domain: Name,
    pub time: u32,
    /// Zone cuts, anchor first, query zone last.
    pub zones: Vec<ZoneProbe>,
    /// Per-server health counters, sorted by server id.
    pub health: Vec<(ServerId, ServerHealth)>,
    /// Virtual milliseconds the walk took (per-query cost plus backoff).
    pub virtual_ms: u64,
}

impl ProbeResult {
    /// The zone containing the query domain (deepest probed cut).
    pub fn query_zone(&self) -> Option<&ZoneProbe> {
        self.zones.last()
    }
}

/// Global-registry handles for the probe walk, looked up once per
/// [`Prober`]. The per-outcome counters mirror [`ServerHealth`], but
/// aggregated over every server and every walk in the process, so a
/// metrics snapshot can check `probe.queries.sent` against the sum of the
/// outcome counters and `probe.queries.sent >= probe.queries.ok`.
struct ProbeObs {
    sent: ddx_obs::Counter,
    ok: ddx_obs::Counter,
    timeouts: ddx_obs::Counter,
    truncated: ddx_obs::Counter,
    malformed: ddx_obs::Counter,
    refused: ddx_obs::Counter,
    /// Attempts beyond the first for any (server, query).
    retries: ddx_obs::Counter,
    /// Virtual milliseconds spent in retry backoff (a subset of the walk's
    /// total `virtual_ms`).
    backoff_virtual_ms: ddx_obs::Counter,
}

impl ProbeObs {
    fn new() -> Self {
        let q = |event| ddx_obs::counter("probe.queries", &[("outcome", event)]);
        ProbeObs {
            sent: ddx_obs::counter("probe.queries.sent", &[]),
            ok: q("ok"),
            timeouts: q("timeout"),
            truncated: q("truncated"),
            malformed: q("malformed"),
            refused: q("refused"),
            retries: ddx_obs::counter("probe.retries", &[]),
            backoff_virtual_ms: ddx_obs::counter("probe.backoff_virtual_ms", &[]),
        }
    }
}

/// The walk's query engine: wraps the network with the retry/backoff
/// policy, tracks per-server health, and accumulates virtual time.
/// `pub(crate)` so the incremental layer (`grok::memo`) can resume a walk
/// mid-chain with the same engine.
pub(crate) struct Prober<'a> {
    net: &'a dyn Network,
    retry: RetryPolicy,
    health: BTreeMap<ServerId, ServerHealth>,
    virtual_ms: u64,
    obs: ProbeObs,
}

/// Virtual cost of one query round-trip (ms).
const QUERY_COST_MS: u64 = 10;

impl<'a> Prober<'a> {
    pub(crate) fn new(net: &'a dyn Network, retry: RetryPolicy) -> Self {
        Prober {
            net,
            retry,
            health: BTreeMap::new(),
            virtual_ms: 0,
            obs: ProbeObs::new(),
        }
    }

    /// One question with retries. A retry fires on timeout, truncation,
    /// malformed bytes, and REFUSED/SERVFAIL (all of which a fault layer
    /// may make transient); a retry-exhausted query is recorded in
    /// `failures` instead of silently vanishing. For [`FailureKind::Refused`]
    /// the last response is still returned — it is a real observation, just
    /// one carrying no zone data.
    fn ask(
        &mut self,
        server: &ServerId,
        id: u16,
        qname: &Name,
        qtype: RrType,
        failures: &mut Vec<QueryFailure>,
    ) -> Option<Arc<Message>> {
        let attempts = self.retry.attempts.max(1);
        let mut last: Option<(FailureKind, Option<Arc<Message>>)> = None;
        // Build the query message once; every retry sends the same bytes.
        let query = Message::query(id, qname.clone(), qtype);
        for attempt in 0..attempts {
            if attempt > 0 {
                // Exponential backoff, in virtual time only.
                let backoff = self.retry.backoff_base_ms << (attempt - 1);
                self.virtual_ms += backoff;
                self.obs.retries.inc();
                self.obs.backoff_virtual_ms.add(backoff);
            }
            self.virtual_ms += QUERY_COST_MS;
            let outcome = self.net.query_outcome(server, &query);
            let health = self.health.entry(server.clone()).or_default();
            health.sent += 1;
            self.obs.sent.inc();
            match outcome {
                QueryOutcome::Answer(m) if m.flags.tc => {
                    health.truncated += 1;
                    self.obs.truncated.inc();
                    last = Some((FailureKind::Truncated, None));
                }
                QueryOutcome::Answer(m) if matches!(m.rcode, Rcode::Refused | Rcode::ServFail) => {
                    health.refused += 1;
                    self.obs.refused.inc();
                    last = Some((FailureKind::Refused, Some(m)));
                }
                QueryOutcome::Answer(m) => {
                    health.ok += 1;
                    self.obs.ok.inc();
                    return Some(m);
                }
                QueryOutcome::Timeout => {
                    health.timeouts += 1;
                    self.obs.timeouts.inc();
                    last = Some((FailureKind::Timeout, None));
                }
                QueryOutcome::Malformed => {
                    health.malformed += 1;
                    self.obs.malformed.inc();
                    last = Some((FailureKind::Malformed, None));
                }
            }
        }
        let (kind, result) = last.expect("attempts >= 1, so at least one outcome was recorded");
        failures.push(QueryFailure {
            qname: qname.clone(),
            qtype,
            kind,
            attempts,
        });
        result
    }

    /// Consumes the engine into the walk's result envelope.
    pub(crate) fn into_result(self, cfg: &ProbeConfig, zones: Vec<ZoneProbe>) -> ProbeResult {
        ProbeResult {
            query_domain: cfg.query_domain.clone(),
            time: cfg.time,
            zones,
            health: self.health.into_iter().collect(),
            virtual_ms: self.virtual_ms,
        }
    }

    /// Probes one server for one zone's material.
    fn probe_server(
        &mut self,
        server: &ServerId,
        zone: &Name,
        targets: Option<(&Name, &[RrType])>,
    ) -> ServerProbe {
        let mut failures = Vec::new();
        let soa = self.ask(server, 1, zone, RrType::Soa, &mut failures);
        let ns = self.ask(server, 2, zone, RrType::Ns, &mut failures);
        let dnskey = self.ask(server, 3, zone, RrType::Dnskey, &mut failures);
        // Zone names come off the wire (referrals), so one near the 255-octet
        // limit may not take another label; such zones just skip the denial
        // probes instead of panicking.
        let nxdomain = zone
            .child(NX_PROBE_LABEL)
            .ok()
            .and_then(|nx| self.ask(server, 4, &nx, RrType::A, &mut failures));
        let nxdomain_hi = zone
            .child(NX_PROBE_LABEL_HI)
            .ok()
            .and_then(|nx| self.ask(server, 9, &nx, RrType::A, &mut failures));
        let nodata = self.ask(server, 5, zone, NODATA_PROBE_TYPE, &mut failures);
        let nsec3param = self.ask(server, 8, zone, RrType::Nsec3Param, &mut failures);
        let mut answers = Vec::new();
        if let Some((qname, types)) = targets {
            for (i, t) in types.iter().enumerate() {
                answers.push((
                    *t,
                    self.ask(server, 10 + i as u16, qname, *t, &mut failures),
                ));
            }
        }
        let responsive = soa.is_some()
            || ns.is_some()
            || dnskey.is_some()
            || nxdomain.is_some()
            || nodata.is_some();
        ServerProbe {
            server: server.clone(),
            responsive,
            soa,
            ns,
            dnskey,
            nxdomain,
            nxdomain_hi,
            nodata,
            nsec3param,
            answers,
            failures,
        }
    }

    /// Finds the next delegation cut between `zone` and `qname` by asking
    /// the zone's servers for the query domain and reading the referral.
    /// Lookup failures land in `lookup_failures`, attributed per server.
    fn next_cut(
        &mut self,
        servers: &[ServerId],
        qname: &Name,
        zone: &Name,
        lookup_failures: &mut Vec<(ServerId, QueryFailure)>,
    ) -> Option<(Name, Vec<Name>)> {
        for server in servers {
            let mut failures = Vec::new();
            let resp = self.ask(server, 6, qname, RrType::A, &mut failures);
            for f in failures {
                lookup_failures.push((server.clone(), f));
            }
            let Some(resp) = resp else {
                continue;
            };
            // A referral: NS records in authority owned by a strict descendant
            // of the current zone (and ancestor-or-self of qname).
            let mut cut: Option<Name> = None;
            let mut ns_names = Vec::new();
            for rec in &resp.authorities {
                if let RData::Ns(host) = &rec.rdata {
                    if rec.name.is_strict_subdomain_of(zone) && qname.is_subdomain_of(&rec.name) {
                        cut = Some(rec.name.clone());
                        ns_names.push(host.clone());
                    }
                }
            }
            if let Some(cut) = cut {
                return Some((cut, ns_names));
            }
        }
        None
    }
}

/// Maximum delegation-walk depth (laps) from the anchor.
pub(crate) const MAX_WALK_DEPTH: usize = 16;

/// The loop-carried state at the entry of one walk lap. Capturing it per
/// lap is what lets the incremental layer resume a walk at the first dirty
/// zone instead of restarting from the anchor: everything a lap consumes
/// (referral NS names, parent-side DS responses, pending DS failures) was
/// produced by the *previous* lap, so a clean prefix implies a valid entry
/// state.
#[derive(Debug, Clone)]
pub(crate) struct WalkStart {
    pub(crate) zone: Name,
    pub(crate) servers: Vec<ServerId>,
    pub(crate) parent: Option<Name>,
    pub(crate) delegation_ns: Vec<Name>,
    pub(crate) unresolved_ns: Vec<Name>,
    pub(crate) ds_responses: Vec<(ServerId, Option<Arc<Message>>)>,
    /// Failures of the DS queries feeding `ds_responses`: gathered at the
    /// parent, recorded on the child's zone probe one lap later.
    pub(crate) ds_failures: Vec<(ServerId, QueryFailure)>,
    /// Remaining lap budget ([`MAX_WALK_DEPTH`] at the anchor).
    pub(crate) depth: usize,
}

impl WalkStart {
    pub(crate) fn anchor(cfg: &ProbeConfig) -> Self {
        WalkStart {
            zone: cfg.anchor_zone.clone(),
            servers: cfg.anchor_servers.clone(),
            parent: None,
            delegation_ns: Vec::new(),
            unresolved_ns: Vec::new(),
            ds_responses: Vec::new(),
            ds_failures: Vec::new(),
            depth: MAX_WALK_DEPTH,
        }
    }
}

/// Per-lap byproducts a [`ZoneProbe`] does not carry: the server list the
/// lap actually queried, and the incoming DS failures *before* they were
/// merged into `lookup_failures` (which also absorbs this lap's referral
/// failures). Together with the `ZoneProbe` they reconstruct the lap's
/// [`WalkStart`].
#[derive(Debug, Clone)]
pub(crate) struct LapMeta {
    pub(crate) servers: Vec<ServerId>,
    pub(crate) ds_failures: Vec<(ServerId, QueryFailure)>,
}

/// Runs the delegation walk from `start` until the query zone, a fully
/// lame cut, or the depth budget. Returns the probed zones with one
/// [`LapMeta`] each, in walk order.
pub(crate) fn walk_chain(
    prober: &mut Prober<'_>,
    cfg: &ProbeConfig,
    start: WalkStart,
) -> (Vec<ZoneProbe>, Vec<LapMeta>) {
    let net = prober.net;
    let mut zones = Vec::new();
    let mut metas = Vec::new();
    let mut zone = start.zone;
    let mut servers = start.servers;
    let mut parent = start.parent;
    let mut delegation_ns = start.delegation_ns;
    let mut unresolved = start.unresolved_ns;
    let mut ds_responses = start.ds_responses;
    let mut ds_failures = start.ds_failures;

    for _depth in 0..start.depth {
        metas.push(LapMeta {
            servers: servers.clone(),
            ds_failures: ds_failures.clone(),
        });
        // Is this the query zone (no further cut toward the target)?
        let mut lookup_failures = std::mem::take(&mut ds_failures);
        let cut = prober.next_cut(&servers, &cfg.query_domain, &zone, &mut lookup_failures);
        let is_query_zone = cut.is_none();
        let targets = if is_query_zone {
            Some((&cfg.query_domain, &cfg.target_types[..]))
        } else {
            None
        };
        let server_probes: Vec<ServerProbe> = servers
            .iter()
            .map(|s| prober.probe_server(s, &zone, targets))
            .collect();
        // Move the per-zone accumulators into the record instead of
        // cloning: each is rebuilt below before the next lap needs it.
        zones.push(ZoneProbe {
            zone: zone.clone(),
            parent: parent.take(),
            delegation_ns: std::mem::take(&mut delegation_ns),
            unresolved_ns: std::mem::take(&mut unresolved),
            ds_responses: std::mem::take(&mut ds_responses),
            servers: server_probes,
            orphaned: false,
            lookup_failures,
        });

        let Some((cut, ns_names)) = cut else {
            break;
        };
        // Gather DS for the child from every parent server.
        ds_responses = servers
            .iter()
            .map(|s| {
                let mut failures = Vec::new();
                let resp = prober.ask(s, 7, &cut, RrType::Ds, &mut failures);
                for f in failures {
                    ds_failures.push((s.clone(), f));
                }
                (s.clone(), resp)
            })
            .collect();
        // Resolve the child's nameservers.
        let mut next_servers = Vec::new();
        let mut next_unresolved = Vec::new();
        for host in &ns_names {
            match net.resolve_ns(host) {
                Some(id) if !next_servers.contains(&id) => next_servers.push(id),
                Some(_) => {}
                None => next_unresolved.push(host.clone()),
            }
        }
        parent = Some(zone);
        zone = cut;
        delegation_ns = ns_names;
        unresolved = next_unresolved;
        servers = next_servers;
        if servers.is_empty() {
            // Fully lame delegation: record the empty zone probe and stop.
            metas.push(LapMeta {
                servers: Vec::new(),
                ds_failures: ds_failures.clone(),
            });
            zones.push(ZoneProbe {
                zone,
                parent,
                delegation_ns,
                unresolved_ns: unresolved,
                ds_responses,
                servers: Vec::new(),
                orphaned: false,
                lookup_failures: std::mem::take(&mut ds_failures),
            });
            break;
        }
    }
    (zones, metas)
}

/// The hint pass: a hinted zone on the query path that the walk never
/// reached (its delegation is missing from the parent) gets probed directly
/// and appended as orphaned.
pub(crate) fn hint_pass(prober: &mut Prober<'_>, cfg: &ProbeConfig, zones: &mut Vec<ZoneProbe>) {
    let deepest = zones.last().map(|z| z.zone.clone());
    if let Some(deepest) = deepest {
        let mut missing: Vec<&(Name, Vec<ServerId>)> = cfg
            .hints
            .iter()
            .filter(|(z, _)| {
                cfg.query_domain.is_subdomain_of(z)
                    && z.is_strict_subdomain_of(&deepest)
                    && zones.iter().all(|zp| zp.zone != *z)
            })
            .collect();
        missing.sort_by_key(|a| a.0.label_count());
        for (z, hint_servers) in missing {
            let is_query_zone = zones
                .iter()
                .all(|zp| !cfg.query_domain.is_subdomain_of(&zp.zone))
                || z.label_count() >= deepest.label_count();
            let targets = if is_query_zone {
                Some((&cfg.query_domain, &cfg.target_types[..]))
            } else {
                None
            };
            let server_probes: Vec<ServerProbe> = hint_servers
                .iter()
                .map(|s| prober.probe_server(s, z, targets))
                .collect();
            zones.push(ZoneProbe {
                zone: z.clone(),
                parent: Some(deepest.clone()),
                delegation_ns: Vec::new(),
                unresolved_ns: Vec::new(),
                ds_responses: Vec::new(),
                servers: server_probes,
                orphaned: true,
                lookup_failures: Vec::new(),
            });
        }
    }
}

/// Runs the full probe walk.
pub fn probe(net: &dyn Network, cfg: &ProbeConfig) -> ProbeResult {
    ddx_obs::counter("probe.walks", &[]).inc();
    let _walk_timer = ddx_obs::histogram("probe.walk_us", &[]).start_timer();
    let mut prober = Prober::new(net, cfg.retry.clone());
    let (mut zones, _metas) = walk_chain(&mut prober, cfg, WalkStart::anchor(cfg));
    hint_pass(&mut prober, cfg, &mut zones);
    prober.into_result(cfg, zones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, Record, Soa, Zone};
    use ddx_dnssec::{
        make_ds, sign_zone, Algorithm, DigestType, KeyPair, KeyRing, KeyRole, SignerConfig,
    };
    use ddx_server::{Server, Testbed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_000_000;

    fn soa_rec(apex: &Name) -> Record {
        Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex.child("ns1").unwrap(),
                rname: apex.child("hostmaster").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        )
    }

    /// Builds a two-level signed hierarchy: anchor `a.com` delegating
    /// `par.a.com`, each on one server.
    fn build_testbed() -> (Testbed, ProbeConfig) {
        let mut rng = StdRng::seed_from_u64(42);
        let parent_apex = name("a.com");
        let child_apex = name("par.a.com");

        // Child zone + keys.
        let mut child_ring = KeyRing::new();
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            child_ring.add(KeyPair::generate(
                &mut rng,
                child_apex.clone(),
                Algorithm::EcdsaP256Sha256,
                256,
                role,
                NOW,
            ));
        }
        let mut child = Zone::new(child_apex.clone());
        child.add(soa_rec(&child_apex));
        child.add(Record::new(
            child_apex.clone(),
            3600,
            RData::Ns(name("ns1.par.a.com")),
        ));
        child.add(Record::new(
            name("ns1.par.a.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        ));
        child.add(Record::new(
            name("www.par.a.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 11)),
        ));
        sign_zone(&mut child, &child_ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();
        let ksk = child_ring.active(KeyRole::Ksk, NOW)[0];
        let ds = make_ds(&child_apex, &ksk.dnskey, DigestType::Sha256);

        // Parent zone + keys.
        let mut parent_ring = KeyRing::new();
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            parent_ring.add(KeyPair::generate(
                &mut rng,
                parent_apex.clone(),
                Algorithm::EcdsaP256Sha256,
                256,
                role,
                NOW,
            ));
        }
        let mut parent = Zone::new(parent_apex.clone());
        parent.add(soa_rec(&parent_apex));
        parent.add(Record::new(
            parent_apex.clone(),
            3600,
            RData::Ns(name("ns1.a.com")),
        ));
        parent.add(Record::new(
            name("ns1.a.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        parent.add(Record::new(
            child_apex.clone(),
            3600,
            RData::Ns(name("ns1.par.a.com")),
        ));
        parent.add(Record::new(
            name("ns1.par.a.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        ));
        parent.add(Record::new(child_apex.clone(), 3600, RData::Ds(ds)));
        sign_zone(&mut parent, &parent_ring, &SignerConfig::nsec_at(NOW), NOW).unwrap();

        let mut tb = Testbed::new();
        let mut ps = Server::new(ServerId("a.com#0".into()));
        ps.load_zone(parent);
        tb.add_server(ps);
        tb.register_ns(name("ns1.a.com"), ServerId("a.com#0".into()));
        let mut cs = Server::new(ServerId("par.a.com#0".into()));
        cs.load_zone(child);
        tb.add_server(cs);
        tb.register_ns(name("ns1.par.a.com"), ServerId("par.a.com#0".into()));

        let cfg = ProbeConfig {
            anchor_zone: name("a.com"),
            anchor_servers: vec![ServerId("a.com#0".into())],
            query_domain: name("www.par.a.com"),
            target_types: vec![RrType::A],
            time: NOW,
            hints: vec![(name("par.a.com"), vec![ServerId("par.a.com#0".into())])],
            retry: RetryPolicy::default(),
        };
        (tb, cfg)
    }

    #[test]
    fn walks_two_zone_cuts() {
        let (tb, cfg) = build_testbed();
        let result = probe(&tb, &cfg);
        assert_eq!(result.zones.len(), 2);
        assert_eq!(result.zones[0].zone, name("a.com"));
        assert_eq!(result.zones[1].zone, name("par.a.com"));
        assert_eq!(result.zones[1].parent, Some(name("a.com")));
        assert_eq!(result.zones[1].delegation_ns, vec![name("ns1.par.a.com")]);
    }

    #[test]
    fn collects_ds_from_parent() {
        let (tb, cfg) = build_testbed();
        let result = probe(&tb, &cfg);
        let qz = result.query_zone().unwrap();
        assert_eq!(qz.ds_responses.len(), 1);
        let ds_msg = qz.ds_responses[0].1.as_ref().unwrap();
        assert!(ds_msg.find_answer(&name("par.a.com"), RrType::Ds).is_some());
    }

    #[test]
    fn gathers_dnskey_and_negative_probes() {
        let (tb, cfg) = build_testbed();
        let result = probe(&tb, &cfg);
        let qz = result.query_zone().unwrap();
        let sp = &qz.servers[0];
        assert!(sp.responsive);
        assert_eq!(sp.dnskeys().count(), 2);
        let nx = sp.nxdomain.as_ref().unwrap();
        assert_eq!(nx.rcode, ddx_dns::Rcode::NxDomain);
        assert!(nx.authorities.iter().any(|r| r.rtype() == RrType::Nsec));
        // Target answer at the query zone only.
        assert_eq!(sp.answers.len(), 1);
        assert!(sp.answers[0].1.is_some());
        assert!(result.zones[0].servers[0].answers.is_empty());
    }

    #[test]
    fn lame_child_recorded() {
        let (mut tb, cfg) = build_testbed();
        tb.unregister_ns(&name("ns1.par.a.com"));
        let result = probe(&tb, &cfg);
        let qz = result.query_zone().unwrap();
        assert_eq!(qz.zone, name("par.a.com"));
        assert!(qz.is_lame());
        assert_eq!(qz.unresolved_ns, vec![name("ns1.par.a.com")]);
    }

    #[test]
    fn anchor_only_walk() {
        let (tb, mut cfg) = build_testbed();
        cfg.query_domain = name("a.com");
        let result = probe(&tb, &cfg);
        assert_eq!(result.zones.len(), 1);
        assert!(!result.zones[0].servers[0].answers.is_empty());
    }

    #[test]
    fn clean_walk_has_no_failures_and_healthy_servers() {
        let (tb, cfg) = build_testbed();
        let result = probe(&tb, &cfg);
        for zp in &result.zones {
            assert!(zp.lookup_failures.is_empty());
            for sp in &zp.servers {
                assert!(sp.failures.is_empty(), "{:?}", sp.failures);
            }
        }
        assert!(!result.health.is_empty());
        for (_, h) in &result.health {
            assert_eq!(h.sent, h.ok, "clean network: every attempt succeeds");
            assert_eq!(h.timeouts + h.truncated + h.malformed + h.refused, 0);
        }
    }

    #[test]
    fn retry_heals_transient_timeouts() {
        use ddx_server::{FaultNetwork, FaultPlan};
        let (tb, cfg) = build_testbed();
        // Every first attempt times out; the second is served clean. With
        // attempts=3 the walk must converge to the fault-free observation.
        let plan = FaultPlan {
            timeout_permille: 1000,
            max_faulty_attempts: Some(1),
            ..FaultPlan::none(0x7E57)
        };
        let net = FaultNetwork::new(&tb, plan);
        let faulty = probe(&net, &cfg);
        let clean = probe(&tb, &cfg);
        assert_eq!(faulty.zones.len(), clean.zones.len());
        for (fz, cz) in faulty.zones.iter().zip(&clean.zones) {
            assert_eq!(fz.zone, cz.zone);
            for (fs, cs) in fz.servers.iter().zip(&cz.servers) {
                assert!(fs.responsive);
                assert!(fs.failures.is_empty(), "healed: {:?}", fs.failures);
                assert_eq!(
                    fs.soa.as_deref().map(ddx_dns::wire::encode),
                    cs.soa.as_deref().map(ddx_dns::wire::encode)
                );
            }
        }
        // Health still remembers the transient trouble.
        assert!(faulty.health.iter().any(|(_, h)| h.timeouts > 0));
        assert!(faulty.virtual_ms > clean.virtual_ms, "backoff takes time");
    }

    #[test]
    fn persistent_timeout_recorded_as_typed_failure() {
        use ddx_server::{FaultNetwork, FaultPlan};
        let (tb, cfg) = build_testbed();
        let child = ServerId("par.a.com#0".into());
        let plan = FaultPlan {
            timeout_permille: 1000,
            only_server: Some(child.clone()),
            ..FaultPlan::none(1)
        };
        let net = FaultNetwork::new(&tb, plan);
        let result = probe(&net, &cfg);
        let qz = result.query_zone().unwrap();
        let sp = qz.servers.iter().find(|s| s.server == child).unwrap();
        assert!(!sp.responsive);
        assert!(!sp.failures.is_empty());
        assert!(sp
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::Timeout && f.attempts == cfg.retry.attempts));
        // The walk's referral lookups toward the child also failed and are
        // attributed, not dropped.
        assert!(result
            .zones
            .iter()
            .flat_map(|z| &z.lookup_failures)
            .any(|(sid, f)| *sid == child && f.kind == FailureKind::Timeout));
    }

    #[test]
    fn persistent_truncation_recorded_as_typed_failure() {
        use ddx_server::{FaultNetwork, FaultPlan};
        let (tb, cfg) = build_testbed();
        let plan = FaultPlan {
            truncate_permille: 1000,
            ..FaultPlan::none(2)
        };
        let net = FaultNetwork::new(&tb, plan);
        let result = probe(&net, &cfg);
        let failures: Vec<&QueryFailure> = result
            .zones
            .iter()
            .flat_map(|z| z.servers.iter().flat_map(|s| &s.failures))
            .collect();
        assert!(!failures.is_empty());
        assert!(failures.iter().all(|f| f.kind == FailureKind::Truncated));
    }
}

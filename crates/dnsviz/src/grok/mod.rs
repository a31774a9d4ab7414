//! The `dnsviz grok` analogue: interprets a [`ProbeResult`], attempts to
//! build the chain of trust from the local anchor down to the query domain,
//! and annotates every violation with one of the 47 [`ErrorCode`]s. Finally
//! classifies the snapshot into `sv/svm/sb/is/lm/ic` (paper §3.2.1).
//!
//! The analysis is organized as a sequence of `AnalysisPass`es (an internal
//! trait), one per paper-§3 check family, each operating on a shared
//! `ZoneAnalysis` context:
//!
//! | pass | module | concern |
//! |------|--------|---------|
//! | `key-consistency` | `keys` | DNSKEY RRset agreement across servers |
//! | `keys` | `keys` | per-key revocation and length sanity |
//! | `delegation` | `delegation` | DS ↔ DNSKEY linkage |
//! | `signatures` | `signatures` | RRSIG validation over every RRset |
//! | `denial` | `denial` | NSEC/NSEC3 denial-of-existence proofs |
//! | `algorithms` | `algorithms` | RFC 6840 §5.11 completeness |
//!
//! Every finding carries a typed [`ErrorDetail`] payload (see [`detail`]);
//! downstream consumers (DResolver, the resolver's NSEC3 policy) match on
//! the variants instead of parsing strings.

pub(crate) mod detail;
pub(crate) mod memo;

mod algorithms;
mod classify;
mod delegation;
mod denial;
mod keys;
mod signatures;

#[cfg(test)]
mod report_tests;
#[cfg(test)]
mod tests;

use std::collections::BTreeSet;

use ddx_json::{FromJson, ToJson};

use ddx_dns::{Dnskey, Ds, Message, Name, Nsec, Nsec3, RData, RRset, Record, RrType};

use crate::codes::{ErrorCode, WarningCode};
use crate::probe::{ProbeResult, ServerProbe, ZoneProbe};
use crate::status::SnapshotStatus;

pub use detail::{AlgorithmScope, BudgetCounter, DsProblem, ErrorDetail};

/// Per-zone caps on the *logical* validation work grok will spend before
/// degrading to [`ErrorCode::ValidationBudgetExceeded`] — the defense
/// against KeyTrap-class algorithmic-complexity attacks (SigJam, LockCram,
/// high-iteration NSEC3), where a hostile zone makes every signature fail
/// *expensively* instead of cheaply.
///
/// Work is metered in memo-independent units (one per attempted RRSIG
/// verification; `1 + iterations` per NSEC3 hash request), so analysis
/// stays a pure function of `(probe, now, budget)` and the incremental
/// layer's byte-parity pin survives cache temperature.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct ValidationBudget {
    /// Cap on attempted signature verifications per zone.
    pub max_sig_verifications: u64,
    /// Cap on NSEC3 hash rounds per zone.
    pub max_nsec3_hashes: u64,
}

impl Default for ValidationBudget {
    /// Defaults sized ~10× the worst benign corpus zone: the 8-variant
    /// corpus needs tens of verifications and (with the golden zones'
    /// iterations=10..15 chains) low thousands of hash rounds per zone.
    fn default() -> Self {
        ValidationBudget {
            max_sig_verifications: 512,
            max_nsec3_hashes: 16_384,
        }
    }
}

impl ValidationBudget {
    /// No caps: pre-budget behavior, for harnesses that meter work
    /// themselves.
    pub fn unlimited() -> Self {
        ValidationBudget {
            max_sig_verifications: u64::MAX,
            max_nsec3_hashes: u64::MAX,
        }
    }
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct ErrorInstance {
    pub code: ErrorCode,
    /// The zone the error is attributed to.
    pub zone: Name,
    /// Whether, in this context, the error breaks all authentication paths
    /// (drives `sb` vs `svm`). Starts from [`ErrorCode::is_critical`] but is
    /// downgraded when a fully valid path for the affected RRset exists.
    pub critical: bool,
    /// Typed specifics (key tags, names, algorithms, TTLs).
    pub detail: ErrorDetail,
}

/// Per-zone findings.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct ZoneReport {
    pub zone: Name,
    /// Whether the zone presents as signed (DNSKEY/DS/RRSIG material seen).
    pub signed: bool,
    /// Whether the parent served a DS RRset for this zone.
    pub has_ds: bool,
    /// True for the local trust anchor (no parent in the walk).
    pub is_anchor: bool,
    pub errors: Vec<ErrorInstance>,
    /// Advisory findings; never counted toward the snapshot status
    /// (paper §3.1 excludes SHOULD-level warnings).
    #[json(default)]
    pub warnings: Vec<WarningCode>,
    /// What the probe could *not* observe about this zone (unreachable
    /// servers, truncated or malformed answers). Gaps are not errors — a
    /// zone with gaps may be perfectly healthy — but any error whose
    /// evidence is the *absence* of data is untrustworthy while the zone
    /// has gaps, and DFixer defers such causes rather than prescribing
    /// changes from missing data.
    #[json(default, skip_serializing_if = "Vec::is_empty")]
    pub observation_gaps: Vec<ErrorDetail>,
}

/// The full grok output for one snapshot.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct GrokReport {
    pub query_domain: Name,
    pub time: u32,
    pub status: SnapshotStatus,
    pub zones: Vec<ZoneReport>,
}

impl GrokReport {
    /// All error instances, chain order.
    pub fn errors(&self) -> impl Iterator<Item = &ErrorInstance> {
        self.zones.iter().flat_map(|z| z.errors.iter())
    }

    /// Distinct codes across the whole chain.
    pub fn codes(&self) -> BTreeSet<ErrorCode> {
        self.errors().map(|e| e.code).collect()
    }

    /// True when no DNSSEC error was found anywhere.
    pub fn clean(&self) -> bool {
        self.zones.iter().all(|z| z.errors.is_empty())
    }

    /// All observation gaps, chain order, with the zone they belong to.
    pub fn observation_gaps(&self) -> impl Iterator<Item = (&Name, &ErrorDetail)> {
        self.zones
            .iter()
            .flat_map(|z| z.observation_gaps.iter().map(move |g| (&z.zone, g)))
    }

    /// True when every query of the walk produced a usable observation —
    /// the precondition for trusting absence-evidence error codes.
    pub fn fully_observed(&self) -> bool {
        self.zones.iter().all(|z| z.observation_gaps.is_empty())
    }

    /// Serialized report, like the JSON files the paper's pipeline parses.
    pub fn to_json(&self) -> String {
        ddx_json::to_string_pretty(self)
    }

    /// Parses a serialized report.
    pub fn from_json(s: &str) -> Result<Self, ddx_json::Error> {
        ddx_json::from_str(s)
    }

    /// Renders the report as the indented, per-zone text DNSViz-style
    /// output operators read (`dnsviz print` analogue).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} @{}: status {}",
            self.query_domain, self.time, self.status
        );
        for z in &self.zones {
            let role = if z.is_anchor {
                "trust anchor"
            } else if z.signed && z.has_ds {
                "signed, delegated"
            } else if z.signed {
                "signed, NO DS"
            } else {
                "unsigned"
            };
            let _ = writeln!(out, "  zone {} [{role}]", z.zone);
            for e in &z.errors {
                let _ = writeln!(
                    out,
                    "    E{} {}: {}",
                    if e.critical { "!" } else { " " },
                    e.code,
                    e.detail
                );
            }
            for w in &z.warnings {
                let _ = writeln!(out, "    W  {}: {}", w, w.message());
            }
            for g in &z.observation_gaps {
                let _ = writeln!(out, "    ?  unobserved: {g}");
            }
            if z.errors.is_empty() && z.warnings.is_empty() {
                let _ = writeln!(out, "    ok");
            }
        }
        out
    }
}

// ------------------------------------------------------------------ helpers

/// Extracts `(rrset, covering sigs)` pairs from a message section.
pub(crate) fn sets_with_sigs(records: &[Record]) -> Vec<(RRset, Vec<ddx_dns::Rrsig>)> {
    let sets = Message::rrsets_in(records);
    sets.iter()
        .filter(|s| s.rtype != RrType::Rrsig)
        .map(|s| {
            let sigs = records
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Rrsig(sig) if r.name == s.name && sig.type_covered == s.rtype => {
                        Some(sig.clone())
                    }
                    _ => None,
                })
                .collect();
            (s.clone(), sigs)
        })
        .collect()
}

pub(crate) fn nsec_views(records: &[Record]) -> Vec<(Name, Nsec)> {
    records
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Nsec(n) => Some((r.name.clone(), n.clone())),
            _ => None,
        })
        .collect()
}

pub(crate) fn nsec3_views(records: &[Record]) -> Vec<(Name, Nsec3)> {
    records
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Nsec3(n) => Some((r.name.clone(), n.clone())),
            _ => None,
        })
        .collect()
}

/// The working state shared by all analysis passes for one zone.
pub(crate) struct ZoneAnalysis<'a> {
    pub(crate) zp: &'a ZoneProbe,
    pub(crate) now: u32,
    pub(crate) errors: Vec<ErrorInstance>,
    /// Union of DNSKEYs over servers.
    pub(crate) dnskeys: Vec<Dnskey>,
    /// DS records the parent served (empty at the anchor).
    pub(crate) ds_set: Vec<Ds>,
    pub(crate) signed: bool,
    /// Algorithms covered by at least one *valid* RRSIG somewhere.
    pub(crate) algorithms_seen_valid: BTreeSet<u8>,
    /// Algorithms appearing in any RRSIG.
    pub(crate) algorithms_in_sigs: BTreeSet<u8>,
    /// The caps this zone's analysis works under.
    pub(crate) budget: &'a ValidationBudget,
    /// Attempted signature verifications charged so far.
    pub(crate) sig_work: u64,
    /// NSEC3 hash rounds charged so far.
    pub(crate) nsec3_work: u64,
    /// The first counter that blew its cap: `(counter, used, cap)`.
    pub(crate) tripped: Option<(BudgetCounter, u64, u64)>,
}

impl<'a> ZoneAnalysis<'a> {
    pub(crate) fn push(
        &mut self,
        code: ErrorCode,
        critical_override: Option<bool>,
        detail: ErrorDetail,
    ) {
        let critical = critical_override.unwrap_or_else(|| code.is_critical());
        self.errors.push(ErrorInstance {
            code,
            zone: self.zp.zone.clone(),
            critical,
            detail,
        });
    }

    pub(crate) fn has(&self, code: ErrorCode) -> bool {
        self.errors.iter().any(|e| e.code == code)
    }

    /// True once any budget counter has blown its cap; passes that meter
    /// work bail out instead of finishing on partial evidence.
    pub(crate) fn budget_tripped(&self) -> bool {
        self.tripped.is_some()
    }

    /// Charges `n` signature verifications *before* they are attempted.
    /// Refuses — returns `false`, charges nothing — once the budget has
    /// tripped, or when `n` more would pass the cap; the latter trips it
    /// with `used = work + n`. The ledger therefore only ever holds work
    /// the caller went on to do.
    pub(crate) fn charge_sig_verifications(&mut self, n: u64) -> bool {
        self.charge(BudgetCounter::SigVerifications, n)
    }

    /// Charges `n` NSEC3 hash rounds before they are hashed, under the same
    /// refuse-before-spending rule as [`Self::charge_sig_verifications`].
    pub(crate) fn charge_nsec3_rounds(&mut self, n: u64) -> bool {
        self.charge(BudgetCounter::Nsec3Hashes, n)
    }

    fn charge(&mut self, counter: BudgetCounter, n: u64) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        let (work, cap) = match counter {
            BudgetCounter::SigVerifications => {
                (&mut self.sig_work, self.budget.max_sig_verifications)
            }
            BudgetCounter::Nsec3Hashes => (&mut self.nsec3_work, self.budget.max_nsec3_hashes),
        };
        let used = work.saturating_add(n);
        if used > cap {
            self.tripped = Some((counter, used, cap));
            return false;
        }
        *work = used;
        true
    }

    /// Pre-flight check before an NSEC3 proof verification: if spending
    /// `estimate` more hash rounds would bust the cap, trips the budget
    /// *without* doing the work (that is the point — a 3000-iteration chain
    /// must cost nothing) and returns `true` so the caller skips the call.
    pub(crate) fn nsec3_preflight_trips(&mut self, estimate: u64) -> bool {
        if self.tripped.is_some() {
            return true;
        }
        if self.nsec3_work.saturating_add(estimate) > self.budget.max_nsec3_hashes {
            self.tripped = Some((
                BudgetCounter::Nsec3Hashes,
                self.nsec3_work.saturating_add(estimate),
                self.budget.max_nsec3_hashes,
            ));
            return true;
        }
        false
    }
}

/// One check family from paper §3. Passes run in a fixed order over the
/// shared [`ZoneAnalysis`]; later passes may consult earlier findings (e.g.
/// the algorithm pass suppresses codes the signature pass already raised).
pub(crate) trait AnalysisPass: Sync {
    /// Stable identifier: the `pass` label of `grok.pass_us`.
    fn name(&self) -> &'static str;
    fn run(&self, za: &mut ZoneAnalysis);
}

/// The fixed pass order. Signature analysis must precede the algorithm
/// completeness pass (it feeds `algorithms_in_sigs`).
static PASSES: [&dyn AnalysisPass; 6] = [
    &keys::KeyConsistencyPass,
    &keys::KeysPass,
    &delegation::DelegationPass,
    &signatures::SignaturesPass,
    &denial::DenialPass,
    &algorithms::AlgorithmCompletenessPass,
];

/// One wall-time histogram handle per pass, resolved once per grok call
/// (not per zone × pass) — `grok.pass_us{pass=…}` aggregates across runs.
pub(crate) fn pass_histograms() -> Vec<ddx_obs::Histogram> {
    PASSES
        .iter()
        .map(|p| ddx_obs::histogram("grok.pass_us", &[("pass", p.name())]))
        .collect()
}

/// Runs every analysis pass over one zone's observations and produces its
/// report. Pure in `(zp, now)` — the property the incremental layer
/// ([`memo`]) relies on to splice cached [`ZoneReport`]s into a fresh
/// [`GrokReport`] byte-for-byte.
pub(crate) fn analyze_zone(
    zp: &ZoneProbe,
    now: u32,
    pass_timings: &[ddx_obs::Histogram],
    budget: &ValidationBudget,
) -> ZoneReport {
    let mut za = ZoneAnalysis {
        zp,
        now,
        errors: Vec::new(),
        dnskeys: collect_dnskeys(zp),
        ds_set: collect_ds(zp),
        signed: false,
        algorithms_seen_valid: BTreeSet::new(),
        algorithms_in_sigs: BTreeSet::new(),
        budget,
        sig_work: 0,
        nsec3_work: 0,
        tripped: None,
    };
    za.signed =
        !za.dnskeys.is_empty() || !za.ds_set.is_empty() || zp.servers.iter().any(server_has_sigs);

    if za.signed && !zp.is_lame() {
        for (pass, timing) in PASSES.iter().zip(pass_timings) {
            let _timer = timing.start_timer();
            pass.run(&mut za);
        }
        // The budget error is pushed last: every finding the truncated
        // passes did emit keeps its position, and downstream consumers see
        // the trip alongside (not instead of) the partial evidence.
        if let Some((counter, used, cap)) = za.tripped {
            za.push(
                ErrorCode::ValidationBudgetExceeded,
                None,
                ErrorDetail::BudgetExceeded { counter, used, cap },
            );
        }
    }

    // Work accounting is global and monotone; memo-spliced zones (which
    // skip analyze_zone entirely) bump nothing.
    ddx_obs::counter("grok.budget.sig_verifications", &[]).add(za.sig_work);
    ddx_obs::counter("grok.budget.nsec3_hashes", &[]).add(za.nsec3_work);
    if za.tripped.is_some() {
        ddx_obs::counter("grok.budget.exceeded", &[]).inc();
    }

    let warnings = if za.signed && !zp.is_lame() {
        classify::collect_warnings(&za)
    } else {
        Vec::new()
    };
    ZoneReport {
        zone: zp.zone.clone(),
        signed: za.signed,
        has_ds: !za.ds_set.is_empty(),
        is_anchor: zp.parent.is_none(),
        errors: za.errors,
        warnings,
        observation_gaps: collect_observation_gaps(zp),
    }
}

/// Computes the chain-level `(any_lame, any_orphaned)` flags feeding the
/// snapshot classifier.
pub(crate) fn chain_flags(zones: &[ZoneProbe]) -> (bool, bool) {
    let any_lame = zones.iter().any(|zp| zp.is_lame());
    let any_orphaned = zones.iter().any(|zp| zp.orphaned && !zp.is_lame());
    (any_lame, any_orphaned)
}

/// Runs the full analysis under the default [`ValidationBudget`].
pub fn grok(probe: &ProbeResult) -> GrokReport {
    grok_with_budget(probe, &ValidationBudget::default())
}

/// Runs the full analysis with explicit per-zone validation caps.
pub fn grok_with_budget(probe: &ProbeResult, budget: &ValidationBudget) -> GrokReport {
    ddx_obs::counter("grok.runs", &[]).inc();
    let pass_timings = pass_histograms();
    let now = probe.time;
    let zone_reports: Vec<ZoneReport> = probe
        .zones
        .iter()
        .map(|zp| analyze_zone(zp, now, &pass_timings, budget))
        .collect();
    let (any_lame, any_orphaned) = chain_flags(&probe.zones);
    let status = classify::classify(&zone_reports, any_lame, any_orphaned);
    GrokReport {
        query_domain: probe.query_domain.clone(),
        time: now,
        status,
        zones: zone_reports,
    }
}

/// Translates the probe's retry-exhausted queries into typed gaps: one
/// [`ErrorDetail::ServerUnreachable`] per server that never answered
/// usably (timeouts / REFUSED), plus one entry per truncated or malformed
/// query. Deduplicated, probe order.
fn collect_observation_gaps(zp: &ZoneProbe) -> Vec<ErrorDetail> {
    use crate::probe::{FailureKind, QueryFailure};
    let mut gaps: Vec<ErrorDetail> = Vec::new();
    let push = |gaps: &mut Vec<ErrorDetail>, server: &ddx_server::ServerId, f: &QueryFailure| {
        let gap = match f.kind {
            FailureKind::Timeout | FailureKind::Refused => ErrorDetail::ServerUnreachable {
                server: server.clone(),
                attempts: f.attempts,
            },
            FailureKind::Truncated => ErrorDetail::ResponseTruncated {
                server: server.clone(),
                qname: f.qname.clone(),
                qtype: f.qtype,
            },
            FailureKind::Malformed => ErrorDetail::MalformedResponse {
                server: server.clone(),
                qname: f.qname.clone(),
                qtype: f.qtype,
            },
        };
        if !gaps.contains(&gap) {
            let kind = match gap {
                ErrorDetail::ServerUnreachable { .. } => "server_unreachable",
                ErrorDetail::ResponseTruncated { .. } => "response_truncated",
                _ => "malformed_response",
            };
            ddx_obs::counter("grok.observation_gaps", &[("kind", kind)]).inc();
            gaps.push(gap);
        }
    };
    for sp in &zp.servers {
        for f in &sp.failures {
            push(&mut gaps, &sp.server, f);
        }
    }
    for (server, f) in &zp.lookup_failures {
        push(&mut gaps, server, f);
    }
    gaps
}

fn collect_dnskeys(zp: &ZoneProbe) -> Vec<Dnskey> {
    let mut keys: Vec<Dnskey> = Vec::new();
    for sp in &zp.servers {
        for k in sp.dnskeys() {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
    }
    keys
}

fn collect_ds(zp: &ZoneProbe) -> Vec<Ds> {
    let mut out: Vec<Ds> = Vec::new();
    for (_, resp) in &zp.ds_responses {
        if let Some(msg) = resp {
            for rec in &msg.answers {
                if let RData::Ds(ds) = &rec.rdata {
                    if rec.name == zp.zone && !out.contains(ds) {
                        out.push(ds.clone());
                    }
                }
            }
        }
    }
    out
}

fn server_has_sigs(sp: &ServerProbe) -> bool {
    let msgs = [&sp.soa, &sp.ns, &sp.dnskey, &sp.nxdomain, &sp.nodata];
    msgs.iter().any(|m| {
        m.as_ref()
            .map(|m| {
                m.answers
                    .iter()
                    .chain(&m.authorities)
                    .any(|r| r.rtype() == RrType::Rrsig)
            })
            .unwrap_or(false)
    })
}

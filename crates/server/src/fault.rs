//! Deterministic fault injection: [`FaultNetwork`] wraps any [`Network`]
//! and perturbs its answers the way the open Internet perturbs a
//! measurement pipeline — timeouts, dropped packets, slow servers, TC-bit
//! truncation, flapping availability, REFUSED/SERVFAIL rewrites, and
//! corrupted datagrams.
//!
//! Corruption is a transport failure: a datagram whose bytes were damaged
//! in flight fails its checksum, so the asker sees
//! [`QueryOutcome::Malformed`], never a decoded message with altered
//! content. A retry can heal it like any other transient fault. (Decoder
//! robustness to arbitrary damaged bytes is the wire codec's own property,
//! tested there.)
//!
//! Every decision is a pure function of `(seed, server, qname, qtype,
//! attempt)`: a splitmix64 finalizer over an FNV-1a mix of those inputs.
//! There is no ambient entropy and no wall clock anywhere — latency is
//! *virtual* (an accumulated counter, never a sleep), so a failing run is
//! reproducible from its seed alone and independent of machine load or
//! query interleaving.
//!
//! Each decision is counted once, in the `server.fault.*` counters of the
//! [`ddx_obs`] registry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ddx_dns::{Message, Name, Rcode, RrType};
use ddx_obs::{fnv1a, FNV_OFFSET};

use crate::server::ServerId;
use crate::testbed::{Network, QueryOutcome};

/// splitmix64 finalizer: the full-avalanche mixing step of the splitmix64
/// generator, used here as a stateless hash → uniform-u64 map. The same
/// map as `rand::SplitMix64::mix`, which this crate cannot call: the
/// benchmark under `perfbench/` builds it against a `rand` stand-in that
/// exports only the published crate's API.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An up/down availability schedule in virtual time: the server is down for
/// the first `down_ms` of every `period_ms` window, with a per-server phase
/// offset so replicas do not flap in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlapSchedule {
    pub period_ms: u64,
    pub down_ms: u64,
}

/// The fault mix. All rates are per-mille (0..=1000) and drawn from a
/// single uniform draw per query, in declaration order — so the sum of the
/// rates is the total fault probability and must stay ≤ 1000 to leave room
/// for clean answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-query fault derivation.
    pub seed: u64,
    /// Query never reaches the server (counted apart from timeouts, but
    /// both surface as [`QueryOutcome::Timeout`]).
    pub drop_permille: u16,
    /// Response lost on the way back.
    pub timeout_permille: u16,
    /// Answer delivered after `slow_latency_ms` of virtual latency.
    pub slow_permille: u16,
    /// Answer rewritten to a TC-bit-only truncated response.
    pub truncate_permille: u16,
    /// Answer rewritten to REFUSED with empty sections.
    pub refused_permille: u16,
    /// Answer rewritten to SERVFAIL with empty sections.
    pub servfail_permille: u16,
    /// Answer damaged in flight: the outcome is
    /// [`QueryOutcome::Malformed`], as for a datagram that fails its
    /// checksum.
    pub corrupt_permille: u16,
    /// Virtual latency added by a slow response.
    pub slow_latency_ms: u64,
    /// Availability schedule; while down every query times out.
    pub flap: Option<FlapSchedule>,
    /// Faults only fire on attempts `< max_faulty_attempts`; later retries
    /// are served clean. This models *transient* trouble: a prober with
    /// enough retries converges to the fault-free observation.
    pub max_faulty_attempts: Option<u32>,
    /// Restrict injection to one server (others pass through untouched).
    pub only_server: Option<ServerId>,
}

impl FaultPlan {
    /// A plan that injects nothing: the wrapped network must be observably
    /// identical through it.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille: 0,
            timeout_permille: 0,
            slow_permille: 0,
            truncate_permille: 0,
            refused_permille: 0,
            servfail_permille: 0,
            corrupt_permille: 0,
            slow_latency_ms: 200,
            flap: None,
            max_faulty_attempts: None,
            only_server: None,
        }
    }

    /// A uniform mix: every fault kind at `permille` each.
    pub fn uniform(seed: u64, permille: u16) -> Self {
        FaultPlan {
            drop_permille: permille,
            timeout_permille: permille,
            slow_permille: permille,
            truncate_permille: permille,
            refused_permille: permille,
            servfail_permille: permille,
            corrupt_permille: permille,
            ..FaultPlan::none(seed)
        }
    }

    /// True when no query can be perturbed (short-circuits the whole
    /// decision path, so passthrough is exact).
    pub fn is_passthrough(&self) -> bool {
        self.drop_permille == 0
            && self.timeout_permille == 0
            && self.slow_permille == 0
            && self.truncate_permille == 0
            && self.refused_permille == 0
            && self.servfail_permille == 0
            && self.corrupt_permille == 0
            && self.flap.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

/// Which fault a draw selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Drop,
    Timeout,
    Slow,
    Truncate,
    Refused,
    ServFail,
    Corrupt,
}

/// Global-registry handles for the fault counters, created once per
/// decorator. `queries` counts every [`Network::query_outcome`] call through
/// the decorator and every other counter fires exactly once per call, so
/// `server.fault.passed + Σ server.fault.injected{kind=…} ==
/// server.fault.queries` is an invariant a metrics snapshot can check.
struct FaultObs {
    queries: ddx_obs::Counter,
    passed: ddx_obs::Counter,
    drops: ddx_obs::Counter,
    timeouts: ddx_obs::Counter,
    slow: ddx_obs::Counter,
    truncated: ddx_obs::Counter,
    refused: ddx_obs::Counter,
    servfail: ddx_obs::Counter,
    corrupted: ddx_obs::Counter,
    flap_drops: ddx_obs::Counter,
}

impl FaultObs {
    fn new() -> Self {
        let injected = |kind| ddx_obs::counter("server.fault.injected", &[("kind", kind)]);
        FaultObs {
            queries: ddx_obs::counter("server.fault.queries", &[]),
            passed: ddx_obs::counter("server.fault.passed", &[]),
            drops: injected("drop"),
            timeouts: injected("timeout"),
            slow: injected("slow"),
            truncated: injected("truncate"),
            refused: injected("refused"),
            servfail: injected("servfail"),
            corrupted: injected("corrupt"),
            flap_drops: injected("flap_down"),
        }
    }
}

#[derive(Default)]
struct FaultState {
    /// Attempt counter per (server, qname-key, qtype): how many times this
    /// exact question has been asked of this server.
    attempts: HashMap<(ServerId, String, u16), u32>,
    /// Virtual clock, advanced per query; drives the flap schedule.
    clock_ms: u64,
}

/// The fault-injecting [`Network`] decorator.
///
/// Wraps any network by reference; all interior state (attempt counters,
/// virtual clock) sits behind a mutex so the decorator is
/// usable wherever the wrapped network is.
pub struct FaultNetwork<'a> {
    inner: &'a dyn Network,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    obs: FaultObs,
}

/// Virtual cost of one query round-trip (ms). Only the *ratios* matter —
/// this just makes the flap schedule advance as queries flow.
const QUERY_COST_MS: u64 = 10;

impl<'a> FaultNetwork<'a> {
    pub fn new(inner: &'a dyn Network, plan: FaultPlan) -> Self {
        FaultNetwork {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
            obs: FaultObs::new(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn locked(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current virtual time (ms since construction).
    pub fn virtual_ms(&self) -> u64 {
        self.locked().clock_ms
    }

    /// Advances the virtual clock (the prober calls this when it backs off
    /// between retries, so flap windows pass in backoff time too).
    pub fn advance_ms(&self, ms: u64) {
        self.locked().clock_ms += ms;
    }

    /// The uniform draw for one query attempt: a pure function of the plan
    /// seed and the query coordinates — independent of query order.
    fn draw(&self, server: &ServerId, qname: &Name, qtype: RrType, attempt: u32) -> u64 {
        let mut acc = fnv1a(FNV_OFFSET, server.0.as_bytes());
        acc = fnv1a(acc, qname.key().as_bytes());
        acc = fnv1a(acc, &qtype.code().to_be_bytes());
        acc = fnv1a(acc, &attempt.to_be_bytes());
        splitmix64(self.plan.seed ^ acc)
    }

    /// Picks the fault (if any) for one attempt via a single per-mille draw
    /// against the cumulative rate thresholds.
    fn pick_fault(&self, roll: u64) -> Option<FaultKind> {
        let r = (roll % 1000) as u16;
        let mut threshold = 0u16;
        for (rate, kind) in [
            (self.plan.drop_permille, FaultKind::Drop),
            (self.plan.timeout_permille, FaultKind::Timeout),
            (self.plan.slow_permille, FaultKind::Slow),
            (self.plan.truncate_permille, FaultKind::Truncate),
            (self.plan.refused_permille, FaultKind::Refused),
            (self.plan.servfail_permille, FaultKind::ServFail),
            (self.plan.corrupt_permille, FaultKind::Corrupt),
        ] {
            threshold = threshold.saturating_add(rate);
            if r < threshold {
                return Some(kind);
            }
        }
        None
    }

    /// Is `server` inside a flap-down window at virtual time `now_ms`?
    fn flap_down(&self, server: &ServerId, now_ms: u64) -> bool {
        let Some(flap) = &self.plan.flap else {
            return false;
        };
        if flap.period_ms == 0 {
            return false;
        }
        // Per-server phase offset, derived like everything else.
        let phase = splitmix64(self.plan.seed ^ fnv1a(0x100, server.0.as_bytes())) % flap.period_ms;
        (now_ms + phase) % flap.period_ms < flap.down_ms
    }

    fn rewrite(&self, resp: &Message, rcode: Option<Rcode>, tc: bool) -> Arc<Message> {
        let mut m = resp.clone();
        if let Some(rc) = rcode {
            m.rcode = rc;
        }
        m.flags.tc = tc;
        m.answers.clear();
        m.authorities.clear();
        m.additionals.clear();
        Arc::new(m)
    }

    /// Forwards an unperturbed query, counting it as passed.
    fn pass(&self, server: &ServerId, query: &Message) -> QueryOutcome {
        self.obs.passed.inc();
        self.inner.query_outcome(server, query)
    }
}

impl Network for FaultNetwork<'_> {
    fn query(&self, server: &ServerId, query: &Message) -> Option<Arc<Message>> {
        self.query_outcome(server, query).into_answer()
    }

    fn query_outcome(&self, server: &ServerId, query: &Message) -> QueryOutcome {
        self.obs.queries.inc();
        // Exact passthrough: no draw and no counters beyond `passed`; only
        // the virtual clock advances, as it does for every query.
        if self.plan.is_passthrough() {
            self.locked().clock_ms += QUERY_COST_MS;
            return self.pass(server, query);
        }
        let Some(q) = &query.question else {
            return self.pass(server, query);
        };
        let (qname, qtype) = (q.qname.clone(), q.qtype);

        let (attempt, now_ms) = {
            let mut st = self.locked();
            st.clock_ms += QUERY_COST_MS;
            let counter = st
                .attempts
                .entry((server.clone(), qname.key(), qtype.code()))
                .or_insert(0);
            let attempt = *counter;
            *counter += 1;
            (attempt, st.clock_ms)
        };

        if self
            .plan
            .only_server
            .as_ref()
            .map(|s| s != server)
            .unwrap_or(false)
        {
            return self.pass(server, query);
        }

        // Transient-fault horizon: late retries are served clean.
        let healed = self
            .plan
            .max_faulty_attempts
            .map(|n| attempt >= n)
            .unwrap_or(false);

        if !healed && self.flap_down(server, now_ms) {
            self.obs.flap_drops.inc();
            return QueryOutcome::Timeout;
        }

        let roll = self.draw(server, &qname, qtype, attempt);
        let fault = if healed { None } else { self.pick_fault(roll) };
        let Some(fault) = fault else {
            return self.pass(server, query);
        };

        match fault {
            FaultKind::Drop => {
                self.obs.drops.inc();
                QueryOutcome::Timeout
            }
            FaultKind::Timeout => {
                self.obs.timeouts.inc();
                QueryOutcome::Timeout
            }
            _ => {
                // The remaining kinds perturb a real answer; if the wrapped
                // network itself timed out, that takes precedence.
                let inner = self.inner.query_outcome(server, query);
                let QueryOutcome::Answer(resp) = inner else {
                    self.obs.passed.inc();
                    return inner;
                };
                match fault {
                    FaultKind::Slow => {
                        self.locked().clock_ms += self.plan.slow_latency_ms;
                        self.obs.slow.inc();
                        QueryOutcome::Answer(resp)
                    }
                    FaultKind::Truncate => {
                        self.obs.truncated.inc();
                        QueryOutcome::Answer(self.rewrite(&resp, None, true))
                    }
                    FaultKind::Refused => {
                        self.obs.refused.inc();
                        QueryOutcome::Answer(self.rewrite(&resp, Some(Rcode::Refused), false))
                    }
                    FaultKind::ServFail => {
                        self.obs.servfail.inc();
                        QueryOutcome::Answer(self.rewrite(&resp, Some(Rcode::ServFail), false))
                    }
                    FaultKind::Corrupt => {
                        self.obs.corrupted.inc();
                        QueryOutcome::Malformed
                    }
                    FaultKind::Drop | FaultKind::Timeout => unreachable!("handled above"),
                }
            }
        }
    }

    fn resolve_ns(&self, host: &Name) -> Option<ServerId> {
        self.inner.resolve_ns(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::testbed::Testbed;
    use ddx_dns::{name, wire, RData, Record, Soa, Zone};
    use std::net::Ipv4Addr;

    fn testbed() -> Testbed {
        let apex = name("a.com");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.a.com"),
                rname: name("hostmaster.a.com"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Ns(name("ns1.a.com")),
        ));
        z.add(Record::new(
            name("ns1.a.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z.add(Record::new(
            name("www.a.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        let mut s = Server::new(ServerId("a#0".into()));
        s.load_zone(z);
        let mut tb = Testbed::new();
        tb.add_server(s);
        tb.register_ns(name("ns1.a.com"), ServerId("a#0".into()));
        tb
    }

    fn sid() -> ServerId {
        ServerId("a#0".into())
    }

    #[test]
    fn passthrough_is_identical() {
        let tb = testbed();
        let net = FaultNetwork::new(&tb, FaultPlan::none(99));
        let q = Message::query(1, name("www.a.com"), RrType::A);
        let direct = tb.query(&sid(), &q).unwrap();
        let through = net.query(&sid(), &q).unwrap();
        assert_eq!(wire::encode(&direct), wire::encode(&through));
    }

    #[test]
    fn same_seed_same_faults() {
        let tb = testbed();
        let plan = FaultPlan::uniform(0xDEAD, 120);
        let outcomes = |plan: &FaultPlan| {
            let net = FaultNetwork::new(&tb, plan.clone());
            (0..40)
                .map(|i| {
                    let q = Message::query(i, name("www.a.com"), RrType::A);
                    match net.query_outcome(&sid(), &q) {
                        QueryOutcome::Answer(m) => format!("A:{:?}:{}", m.rcode, m.flags.tc),
                        QueryOutcome::Timeout => "T".into(),
                        QueryOutcome::Malformed => "M".into(),
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(&plan), outcomes(&plan));
        let other = FaultPlan::uniform(0xBEEF, 120);
        assert_ne!(outcomes(&plan), outcomes(&other), "seed must matter");
    }

    #[test]
    fn uniform_mix_fires_every_fault_kind() {
        let tb = testbed();
        let plan = FaultPlan::uniform(7, 140);
        let net = FaultNetwork::new(&tb, plan.clone());
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200u16 {
            let q = Message::query(i, name("www.a.com"), RrType::A);
            let t0 = net.virtual_ms();
            let outcome = net.query_outcome(&sid(), &q);
            let took = net.virtual_ms() - t0;
            // Drop and timeout both surface as a timeout, by design.
            seen.insert(match outcome {
                QueryOutcome::Timeout => "timeout",
                QueryOutcome::Malformed => "corrupt",
                QueryOutcome::Answer(m) if m.flags.tc => "truncate",
                QueryOutcome::Answer(m) if m.rcode == Rcode::Refused => "refused",
                QueryOutcome::Answer(m) if m.rcode == Rcode::ServFail => "servfail",
                QueryOutcome::Answer(_) if took == QUERY_COST_MS + plan.slow_latency_ms => "slow",
                QueryOutcome::Answer(_) => "passed",
            });
        }
        // ~98% fault rate over 200 attempts of a uniform mix: every
        // observable kind must have fired at least once. The exact
        // per-kind counts, drop included, are checked in `tests/chaos.rs`.
        for kind in [
            "timeout", "slow", "truncate", "refused", "servfail", "corrupt",
        ] {
            assert!(seen.contains(kind), "{kind} never fired: {seen:?}");
        }
    }

    #[test]
    fn drop_surfaces_as_timeout() {
        let tb = testbed();
        let drops_only = FaultNetwork::new(
            &tb,
            FaultPlan {
                drop_permille: 1000,
                ..FaultPlan::none(7)
            },
        );
        let q = Message::query(1, name("www.a.com"), RrType::A);
        assert!(matches!(
            drops_only.query_outcome(&sid(), &q),
            QueryOutcome::Timeout
        ));
    }

    #[test]
    fn truncated_rewrite_sets_tc_and_clears_sections() {
        let tb = testbed();
        let plan = FaultPlan {
            truncate_permille: 1000,
            ..FaultPlan::none(3)
        };
        let net = FaultNetwork::new(&tb, plan);
        let q = Message::query(1, name("www.a.com"), RrType::A);
        let QueryOutcome::Answer(m) = net.query_outcome(&sid(), &q) else {
            panic!("expected truncated answer");
        };
        assert!(m.flags.tc);
        assert!(m.answers.is_empty() && m.authorities.is_empty());
    }

    #[test]
    fn refused_and_servfail_rewrite_rcode() {
        let tb = testbed();
        for (permille_field, want) in [(true, Rcode::Refused), (false, Rcode::ServFail)] {
            let plan = FaultPlan {
                refused_permille: if permille_field { 1000 } else { 0 },
                servfail_permille: if permille_field { 0 } else { 1000 },
                ..FaultPlan::none(4)
            };
            let net = FaultNetwork::new(&tb, plan);
            let q = Message::query(1, name("www.a.com"), RrType::A);
            let QueryOutcome::Answer(m) = net.query_outcome(&sid(), &q) else {
                panic!("expected rewritten answer");
            };
            assert_eq!(m.rcode, want);
            assert!(m.answers.is_empty());
        }
    }

    #[test]
    fn transient_horizon_heals_retries() {
        let tb = testbed();
        let plan = FaultPlan {
            timeout_permille: 1000,
            max_faulty_attempts: Some(2),
            ..FaultPlan::none(11)
        };
        let net = FaultNetwork::new(&tb, plan);
        let q = Message::query(1, name("www.a.com"), RrType::A);
        assert!(matches!(
            net.query_outcome(&sid(), &q),
            QueryOutcome::Timeout
        ));
        assert!(matches!(
            net.query_outcome(&sid(), &q),
            QueryOutcome::Timeout
        ));
        // Third attempt (attempt index 2) crosses the horizon: clean.
        assert!(matches!(
            net.query_outcome(&sid(), &q),
            QueryOutcome::Answer(_)
        ));
    }

    #[test]
    fn flap_schedule_times_out_in_down_windows() {
        let tb = testbed();
        let plan = FaultPlan {
            flap: Some(FlapSchedule {
                period_ms: 100,
                down_ms: 100, // always down
            }),
            ..FaultPlan::none(5)
        };
        let net = FaultNetwork::new(&tb, plan);
        let q = Message::query(1, name("www.a.com"), RrType::A);
        // No other fault is planned, so every timeout is a flap-down one.
        for _ in 0..4 {
            assert!(matches!(
                net.query_outcome(&sid(), &q),
                QueryOutcome::Timeout
            ));
        }
    }

    #[test]
    fn flap_schedule_heals_when_window_passes() {
        let tb = testbed();
        let plan = FaultPlan {
            flap: Some(FlapSchedule {
                period_ms: 1_000_000,
                down_ms: 500_000,
            }),
            ..FaultPlan::none(5)
        };
        let net = FaultNetwork::new(&tb, plan);
        let q = Message::query(1, name("www.a.com"), RrType::A);
        // Scan a full period in half-window steps: both states must occur.
        let mut saw_down = false;
        let mut saw_up = false;
        for _ in 0..4 {
            match net.query_outcome(&sid(), &q) {
                QueryOutcome::Timeout => saw_down = true,
                QueryOutcome::Answer(_) => saw_up = true,
                QueryOutcome::Malformed => {}
            }
            net.advance_ms(250_000);
        }
        assert!(saw_down && saw_up, "flap must toggle across the period");
    }

    #[test]
    fn corruption_is_always_malformed() {
        let tb = testbed();
        let plan = FaultPlan {
            corrupt_permille: 1000,
            ..FaultPlan::none(21)
        };
        let net = FaultNetwork::new(&tb, plan);
        for i in 0..64u16 {
            let q = Message::query(i, name("www.a.com"), RrType::A);
            // A damaged datagram fails its checksum: never an answer whose
            // content was altered in flight, never a timeout.
            assert!(matches!(
                net.query_outcome(&sid(), &q),
                QueryOutcome::Malformed
            ));
        }
    }

    #[test]
    fn only_server_scopes_injection() {
        let tb = testbed();
        let plan = FaultPlan {
            timeout_permille: 1000,
            only_server: Some(ServerId("other#1".into())),
            ..FaultPlan::none(6)
        };
        let net = FaultNetwork::new(&tb, plan);
        let q = Message::query(1, name("www.a.com"), RrType::A);
        assert!(matches!(
            net.query_outcome(&sid(), &q),
            QueryOutcome::Answer(_)
        ));
    }
}

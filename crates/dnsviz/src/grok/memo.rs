//! Incremental probe→grok: generation-keyed memoization across fixer
//! iterations (Janus-style).
//!
//! A [`GrokMemo`] caches, per zone cut of the last walk, the probe
//! observations ([`ZoneProbe`]) and the finished analysis ([`ZoneReport`]),
//! keyed on the *content fingerprints of the zone and its parent* — the
//! delegation and DS passes read parent-side material, so a zone's analysis
//! is a pure function of `(zone, parent, probe config)`. On the next
//! validation of the same configuration the memo:
//!
//! 1. recomputes the `(zone_fp, parent_fp)` key of every cached cut from
//!    the live [`GenerationSource`] stamps,
//! 2. reuses the *clean prefix* of the walk verbatim (zero queries),
//! 3. resumes the live delegation walk at the first dirty cut using the
//!    cached loop-carried state (`WalkStart`), and
//! 4. splices cached [`ZoneReport`]s into the fresh [`GrokReport`] so only
//!    re-probed zones re-run the analysis passes.
//!
//! Invalidation matrix:
//!
//! | change | effect |
//! |--------|--------|
//! | leaf zone content | leaf dirty (own fp) — parents reused |
//! | parent zone content (e.g. DS update) | parent dirty **and** every child dirty (parent edge of the key) |
//! | anchor / trust-anchor zone | everything flushed (the anchor is every chain's ancestor) |
//! | testbed topology (servers, NS hosts) | everything flushed (epoch) |
//! | probe config (anchor, query, targets, hints, retry) | everything flushed (epoch) |
//! | clock (`cfg.time`) | probes reused, every cached *report* re-analyzed (RRSIG windows read the clock) |
//! | observation gap recorded on a cut | that cut force-dirty next round (chaos semantics preserved) |
//! | validation budget tripped on a cut | that cut force-dirty next round (a truncated analysis is never reused; the fix must re-prove itself) |
//!
//! The dirty-prefix rule is what makes mid-chain resumption sound: the
//! loop-carried state entering lap *d* (referral NS names, parent-side DS
//! responses and their failures) was produced entirely by laps `< d`, so if
//! every cut before `d` is clean, the cached `WalkStart` for `d` is
//! exactly what a from-scratch walk would have computed.
//!
//! Chaos interaction: a cut whose cached observation contains any
//! retry-exhausted query is *never* reused — faults must re-manifest (or
//! heal) through live queries, so fault semantics are identical to a
//! from-scratch probe under the same deterministic fault plan. Note the
//! memo only guarantees byte-for-byte equality against stateless or
//! freshly-instantiated deterministic networks; a flapping fault plan
//! advances a per-instance virtual clock per query, making observations
//! order-dependent — use from-scratch probes there.

use ddx_obs::{fnv1a, FNV_OFFSET};
use ddx_server::{GenerationSource, Network};

use crate::probe::{
    hint_pass, walk_chain, LapMeta, ProbeConfig, ProbeResult, Prober, WalkStart, ZoneProbe,
    MAX_WALK_DEPTH,
};

use super::{
    analyze_zone, chain_flags, classify, pass_histograms, GrokReport, ValidationBudget, ZoneReport,
};
use crate::codes::ErrorCode;

/// Parent-fingerprint slot for the anchor (it has no parent in the walk).
const NO_PARENT_FP: u64 = 0x414E_4348_4F52_0000;

/// Global-registry handles, resolved once per memo. Every zone of every
/// produced [`ProbeResult`] is counted exactly once, as a hit (spliced from
/// cache, also `probe.zones_skipped`) or a miss (probed live), so
/// `grok.memo.lookups == grok.memo.hits + grok.memo.misses`.
struct MemoObs {
    lookups: ddx_obs::Counter,
    hits: ddx_obs::Counter,
    misses: ddx_obs::Counter,
    invalidations: ddx_obs::Counter,
    zones_skipped: ddx_obs::Counter,
}

impl MemoObs {
    fn new() -> Self {
        MemoObs {
            lookups: ddx_obs::counter("grok.memo.lookups", &[]),
            hits: ddx_obs::counter("grok.memo.hits", &[]),
            misses: ddx_obs::counter("grok.memo.misses", &[]),
            invalidations: ddx_obs::counter("grok.memo.invalidations", &[]),
            zones_skipped: ddx_obs::counter("probe.zones_skipped", &[]),
        }
    }
}

/// One cached zone cut.
struct MemoEntry {
    /// `(zone_fp, parent_fp)` at the time the observation was taken;
    /// `None` when the zone (or its parent) had no trackable fingerprint —
    /// such entries are always dirty.
    key: Option<(u64, u64)>,
    /// Walk byproducts needed to resume at this lap (chain entries only).
    meta: Option<LapMeta>,
    probe: ZoneProbe,
    /// Filled by [`GrokMemo::grok_incremental`]; entries survive with
    /// their report only while their key stays clean.
    report: Option<ZoneReport>,
    /// The clock the cached report was analyzed at. Probe observations are
    /// time-independent (servers answer from static zone content), but
    /// RRSIG validity is not — a clock move keeps the cached *probe* and
    /// re-runs only the *analysis*.
    report_time: u32,
    /// Any retry-exhausted query observed at this cut → force-dirty.
    gapped: bool,
    /// The cached report carries [`ErrorCode::ValidationBudgetExceeded`]
    /// → force-dirty: the analysis was cut short, so the next round must
    /// re-probe and re-analyze (and observe any remediation) instead of
    /// replaying the truncated verdict from cache.
    budget_tripped: bool,
}

fn is_gapped(zp: &ZoneProbe) -> bool {
    !zp.lookup_failures.is_empty() || zp.servers.iter().any(|s| !s.failures.is_empty())
}

fn entry_key(gens: &dyn GenerationSource, zp: &ZoneProbe) -> Option<(u64, u64)> {
    let own = gens.zone_fingerprint(&zp.zone)?;
    let parent = match &zp.parent {
        None => NO_PARENT_FP,
        Some(p) => gens.zone_fingerprint(p)?,
    };
    Some((own, parent))
}

/// Everything outside per-zone content that shapes the walk: the probe
/// configuration and the testbed topology. Any difference flushes the
/// whole memo. The clock (`cfg.time`) is deliberately *not* part of the
/// epoch — servers answer from static zone content, so probe observations
/// are time-independent; only cached reports are re-keyed on time (see
/// [`MemoEntry::report_time`]).
fn epoch_fingerprint(gens: &dyn GenerationSource, cfg: &ProbeConfig) -> u64 {
    let mut acc = fnv1a(FNV_OFFSET, &gens.topology_generation().to_le_bytes());
    acc = fnv1a(acc, cfg.anchor_zone.key().as_bytes());
    for s in &cfg.anchor_servers {
        acc = fnv1a(acc, s.0.as_bytes());
    }
    acc = fnv1a(acc, cfg.query_domain.key().as_bytes());
    for t in &cfg.target_types {
        acc = fnv1a(acc, &t.code().to_le_bytes());
    }
    acc = fnv1a(acc, &cfg.retry.attempts.to_le_bytes());
    acc = fnv1a(acc, &cfg.retry.backoff_base_ms.to_le_bytes());
    for (zone, servers) in &cfg.hints {
        acc = fnv1a(acc, zone.key().as_bytes());
        for s in servers {
            acc = fnv1a(acc, s.0.as_bytes());
        }
    }
    acc
}

/// The incremental probe→grok cache. One instance follows one query
/// domain across revalidations (a fixer run, a watch loop); see the module
/// docs for the keying and invalidation rules.
#[derive(Default)]
pub struct GrokMemo {
    epoch: Option<u64>,
    /// Walk-order chain entries (anchor first), then hint-pass orphans.
    chain: Vec<MemoEntry>,
    orphans: Vec<MemoEntry>,
    obs: Option<MemoObs>,
    /// Per-zone work caps applied to every analysis this memo runs
    /// ([`ValidationBudget::default`] unless overridden via
    /// [`GrokMemo::set_budget`]). The budget is not part of the epoch
    /// fingerprint: a tripped analysis already force-dirties its entry, so
    /// changing the budget mid-stream can only re-run analyses that were
    /// never cached as truncated.
    budget: ValidationBudget,
}

impl GrokMemo {
    pub fn new() -> Self {
        GrokMemo::default()
    }

    /// Overrides the per-zone [`ValidationBudget`] applied to every
    /// analysis this memo runs (campaign pools thread explicit caps
    /// through here). Takes effect on the next [`GrokMemo::grok_incremental`];
    /// already-cached clean reports stay valid — only truncated analyses
    /// are ever re-run, and those force-dirty themselves.
    pub fn set_budget(&mut self, budget: ValidationBudget) {
        self.budget = budget;
    }

    /// The budget applied to analyses run through this memo.
    pub fn budget(&self) -> &ValidationBudget {
        &self.budget
    }

    /// Drops every cached entry (counted as invalidations).
    pub fn invalidate_all(&mut self) {
        let dropped = (self.chain.len() + self.orphans.len()) as u64;
        self.invalidated(dropped);
        self.chain.clear();
        self.orphans.clear();
        self.epoch = None;
    }

    fn obs(&mut self) -> &MemoObs {
        self.obs.get_or_insert_with(MemoObs::new)
    }

    fn hit(&mut self, n: u64) {
        let obs = self.obs();
        obs.lookups.add(n);
        obs.hits.add(n);
        obs.zones_skipped.add(n);
    }

    fn miss(&mut self, n: u64) {
        let obs = self.obs();
        obs.lookups.add(n);
        obs.misses.add(n);
    }

    fn invalidated(&mut self, n: u64) {
        if n > 0 {
            self.obs().invalidations.add(n);
        }
    }

    /// Incremental [`crate::probe::probe`]: reuses every clean cached zone
    /// cut, resumes the live walk at the first dirty one, and returns a
    /// [`ProbeResult`] indistinguishable (zone-wise) from a from-scratch
    /// walk of the current state. `health`/`virtual_ms` cover only the
    /// queries actually issued.
    pub fn probe_incremental(
        &mut self,
        net: &dyn Network,
        gens: &dyn GenerationSource,
        cfg: &ProbeConfig,
    ) -> ProbeResult {
        ddx_obs::counter("probe.walks", &[]).inc();
        let _walk_timer = ddx_obs::histogram("probe.walk_us", &[]).start_timer();

        // Epoch gate: config/topology changes flush everything (the clock
        // is not part of the epoch — see `epoch_fingerprint`).
        let epoch = epoch_fingerprint(gens, cfg);
        if self.epoch != Some(epoch) {
            self.invalidate_all();
            self.epoch = Some(epoch);
        }

        // Evaluate cached keys against the live stamps.
        let chain_dirty: Vec<bool> = self
            .chain
            .iter()
            .map(|e| {
                e.gapped
                    || e.budget_tripped
                    || e.key.is_none()
                    || entry_key(gens, &e.probe) != e.key
            })
            .collect();
        let orphan_dirty: Vec<bool> = self
            .orphans
            .iter()
            .map(|e| {
                e.gapped
                    || e.budget_tripped
                    || e.key.is_none()
                    || entry_key(gens, &e.probe) != e.key
            })
            .collect();
        let first_dirty = chain_dirty.iter().position(|d| *d);

        match (self.chain.is_empty(), first_dirty) {
            // Whole chain clean.
            (false, None) => {
                if orphan_dirty.iter().any(|d| *d) {
                    // Orphan set may have shifted: reuse the chain, re-run
                    // the hint pass live for every orphan.
                    self.invalidated(orphan_dirty.iter().filter(|d| **d).count() as u64);
                    self.hit(self.chain.len() as u64);
                    let mut prober = Prober::new(net, cfg.retry.clone());
                    let mut zones: Vec<ZoneProbe> =
                        self.chain.iter().map(|e| e.probe.clone()).collect();
                    let n_chain = zones.len();
                    hint_pass(&mut prober, cfg, &mut zones);
                    self.miss((zones.len() - n_chain) as u64);
                    self.orphans = zones[n_chain..]
                        .iter()
                        .map(|zp| MemoEntry {
                            key: entry_key(gens, zp),
                            meta: None,
                            probe: zp.clone(),
                            report: None,
                            report_time: 0,
                            gapped: is_gapped(zp),
                            budget_tripped: false,
                        })
                        .collect();
                    prober.into_result(cfg, zones)
                } else {
                    // Everything clean: zero queries.
                    let total = (self.chain.len() + self.orphans.len()) as u64;
                    self.hit(total);
                    let zones: Vec<ZoneProbe> = self
                        .chain
                        .iter()
                        .chain(&self.orphans)
                        .map(|e| e.probe.clone())
                        .collect();
                    Prober::new(net, cfg.retry.clone()).into_result(cfg, zones)
                }
            }
            // Cold cache, or the anchor itself is dirty (trust-anchor
            // change): from-scratch walk.
            (true, _) | (_, Some(0)) => {
                self.invalidated(
                    (chain_dirty.iter().filter(|d| **d).count()
                        + orphan_dirty.iter().filter(|d| **d).count()) as u64,
                );
                self.chain.clear();
                self.orphans.clear();
                let mut prober = Prober::new(net, cfg.retry.clone());
                let (mut zones, metas) = walk_chain(&mut prober, cfg, WalkStart::anchor(cfg));
                let n_chain = zones.len();
                hint_pass(&mut prober, cfg, &mut zones);
                self.miss(zones.len() as u64);
                self.rebuild(gens, &zones, &metas, n_chain, 0);
                prober.into_result(cfg, zones)
            }
            // Clean prefix, dirty suffix: resume the walk at the first
            // dirty cut from its cached entry state.
            (false, Some(d)) => {
                self.invalidated(
                    (chain_dirty.iter().filter(|x| **x).count()
                        + orphan_dirty.iter().filter(|x| **x).count()) as u64,
                );
                self.hit(d as u64);
                let start = {
                    let e = &self.chain[d];
                    let meta = e
                        .meta
                        .as_ref()
                        .expect("chain entries always carry their lap meta");
                    WalkStart {
                        zone: e.probe.zone.clone(),
                        servers: meta.servers.clone(),
                        parent: e.probe.parent.clone(),
                        delegation_ns: e.probe.delegation_ns.clone(),
                        unresolved_ns: e.probe.unresolved_ns.clone(),
                        ds_responses: e.probe.ds_responses.clone(),
                        ds_failures: meta.ds_failures.clone(),
                        depth: MAX_WALK_DEPTH - d,
                    }
                };
                let mut prober = Prober::new(net, cfg.retry.clone());
                let (fresh, fresh_metas) = walk_chain(&mut prober, cfg, start);
                let mut zones: Vec<ZoneProbe> =
                    self.chain[..d].iter().map(|e| e.probe.clone()).collect();
                zones.extend(fresh);
                let n_chain = zones.len();
                hint_pass(&mut prober, cfg, &mut zones);
                self.miss((zones.len() - d) as u64);
                self.rebuild(gens, &zones, &fresh_metas, n_chain, d);
                prober.into_result(cfg, zones)
            }
        }
    }

    /// Recomputes the cached entry lists after a (partial) live walk:
    /// chain entries `< keep` survive with their reports, entries from
    /// `keep` onward are rebuilt from the fresh zones (`fresh_metas[i]`
    /// belongs to `zones[keep + i]`), and orphans are rebuilt from the
    /// hint-pass tail.
    fn rebuild(
        &mut self,
        gens: &dyn GenerationSource,
        zones: &[ZoneProbe],
        fresh_metas: &[LapMeta],
        n_chain: usize,
        keep: usize,
    ) {
        self.chain.truncate(keep);
        for (zp, meta) in zones[keep..n_chain].iter().zip(fresh_metas) {
            self.chain.push(MemoEntry {
                key: entry_key(gens, zp),
                meta: Some(meta.clone()),
                probe: zp.clone(),
                report: None,
                report_time: 0,
                gapped: is_gapped(zp),
                budget_tripped: false,
            });
        }
        self.orphans = zones[n_chain..]
            .iter()
            .map(|zp| MemoEntry {
                key: entry_key(gens, zp),
                meta: None,
                probe: zp.clone(),
                report: None,
                report_time: 0,
                gapped: is_gapped(zp),
                budget_tripped: false,
            })
            .collect();
    }

    /// Incremental [`super::grok`]: splices cached [`ZoneReport`]s for the
    /// zones [`GrokMemo::probe_incremental`] reused and runs the analysis
    /// passes only for the re-probed ones. Must be called with the
    /// [`ProbeResult`] of the immediately preceding `probe_incremental` on
    /// this memo; any other input falls back to a full (uncached)
    /// analysis.
    pub fn grok_incremental(&mut self, probe: &ProbeResult) -> GrokReport {
        ddx_obs::counter("grok.runs", &[]).inc();
        let pass_timings = pass_histograms();
        let now = probe.time;
        let budget = self.budget.clone();

        let aligned = probe.zones.len() == self.chain.len() + self.orphans.len()
            && self
                .entries()
                .zip(&probe.zones)
                .all(|(e, zp)| e.probe.zone == zp.zone);

        let zone_reports: Vec<ZoneReport> = if aligned {
            let reports: Vec<ZoneReport> = self
                .entries()
                .zip(&probe.zones)
                .map(|(e, zp)| match &e.report {
                    // A cached report is only valid at the clock it was
                    // analyzed at — RRSIG windows read `now`.
                    Some(r) if e.report_time == now => r.clone(),
                    _ => analyze_zone(zp, now, &pass_timings, &budget),
                })
                .collect();
            for (e, r) in self.entries_mut().zip(&reports) {
                if e.report.is_none() || e.report_time != now {
                    e.report = Some(r.clone());
                    e.report_time = now;
                }
                // A truncated analysis must never be replayed from cache:
                // mark the entry so the next probe round force-dirties it.
                e.budget_tripped = r
                    .errors
                    .iter()
                    .any(|err| err.code == ErrorCode::ValidationBudgetExceeded);
            }
            reports
        } else {
            // Foreign probe result: analyze everything, cache nothing.
            probe
                .zones
                .iter()
                .map(|zp| analyze_zone(zp, now, &pass_timings, &budget))
                .collect()
        };

        let (any_lame, any_orphaned) = chain_flags(&probe.zones);
        let status = classify::classify(&zone_reports, any_lame, any_orphaned);
        GrokReport {
            query_domain: probe.query_domain.clone(),
            time: now,
            status,
            zones: zone_reports,
        }
    }

    /// One-call incremental revalidation: probe then grok.
    pub fn probe_grok(
        &mut self,
        net: &dyn Network,
        gens: &dyn GenerationSource,
        cfg: &ProbeConfig,
    ) -> GrokReport {
        let probe = self.probe_incremental(net, gens, cfg);
        self.grok_incremental(&probe)
    }

    fn entries(&self) -> impl Iterator<Item = &MemoEntry> {
        self.chain.iter().chain(&self.orphans)
    }

    fn entries_mut(&mut self) -> impl Iterator<Item = &mut MemoEntry> {
        self.chain.iter_mut().chain(self.orphans.iter_mut())
    }
}

impl std::fmt::Debug for GrokMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrokMemo")
            .field("epoch", &self.epoch)
            .field("chain", &self.chain.len())
            .field("orphans", &self.orphans.len())
            .finish()
    }
}

//! The DFixer iterative engine (paper Fig 6): probe → grok → DResolver →
//! plan → (optionally) apply → re-verify, until no DNSSEC errors remain or
//! the iteration budget is exhausted. In the paper's evaluation no zone
//! needed more than four iterations; the default budget is six.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ddx_dns::RData;
use ddx_dnssec::{make_ds, KeyPair, KeyRole, SignerConfig};
use ddx_dnsviz::{
    grok, probe, ErrorCode, ErrorDetail, GrokMemo, GrokReport, ProbeConfig, SnapshotStatus,
};
use ddx_server::Sandbox;

use crate::commands::{render_plan, ServerFlavor, ShellCommand};
use crate::dresolver::{resolve, FixContext, Resolution};
use crate::instructions::{Instruction, ZoneContext};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct FixerOptions {
    /// Maximum probe→fix iterations.
    pub max_iterations: usize,
    /// Seed for key generation.
    pub seed: u64,
    /// Flavor used when rendering command lines for the log.
    pub flavor: ServerFlavor,
    /// Use CDS/CDNSKEY (RFC 7344/8078) for DS maintenance instead of manual
    /// registrar steps (paper §5.5.2 extension).
    pub use_cds: bool,
}

impl Default for FixerOptions {
    fn default() -> Self {
        FixerOptions {
            max_iterations: 6,
            seed: 0xF1F1,
            flavor: ServerFlavor::Bind,
            use_cds: false,
        }
    }
}

/// What happened in one iteration.
#[derive(Debug, Clone)]
pub struct IterationLog {
    pub iteration: usize,
    pub status_before: SnapshotStatus,
    pub errors_before: BTreeSet<ErrorCode>,
    pub root_causes: Vec<ErrorCode>,
    pub addressed: Option<ErrorCode>,
    /// Typed details of the errors behind the addressed cause (empty for
    /// the naive baseline, which never attributes causes).
    pub addressed_details: Vec<ErrorDetail>,
    /// Absence-evidence root causes skipped because the probe could not
    /// fully observe the zones they were reported in (empty for the naive
    /// baseline, which prescribes regardless).
    pub deferred: Vec<ErrorCode>,
    pub plan: Vec<Instruction>,
    pub commands: Vec<ShellCommand>,
}

/// The outcome of a fix run.
#[derive(Debug, Clone)]
pub struct FixRun {
    pub iterations: Vec<IterationLog>,
    /// True when the final re-verification found no DNSSEC errors.
    pub fixed: bool,
    pub final_status: SnapshotStatus,
    pub final_errors: BTreeSet<ErrorCode>,
}

impl FixRun {
    /// All instructions issued, flattened (for Table 7 style histograms).
    pub fn instructions(&self) -> impl Iterator<Item = (&IterationLog, &Instruction)> {
        self.iterations
            .iter()
            .flat_map(|it| it.plan.iter().map(move |i| (it, i)))
    }
}

/// Feeds one iteration's outcome into the global metrics registry:
/// `fixer.iterations`, one `fixer.details{kind=typed|note}` bump per
/// addressed-cause payload (typed = any structured variant, note = the
/// free-form [`ErrorDetail::Note`] escape hatch — a coverage measure for
/// the typed diagnostic model), one `fixer.deferred{code=…}` bump per
/// deferred root cause, and one `fixer.instructions{kind=…}` bump per
/// planned instruction. Shared by the DFixer and naive harnesses so their
/// runs are comparable in one snapshot.
fn record_iteration_metrics(log: &IterationLog) {
    ddx_obs::counter("fixer.iterations", &[]).inc();
    for detail in &log.addressed_details {
        let kind = if matches!(detail, ErrorDetail::Note(_)) {
            "note"
        } else {
            "typed"
        };
        ddx_obs::counter("fixer.details", &[("kind", kind)]).inc();
    }
    for code in &log.deferred {
        ddx_obs::counter("fixer.deferred", &[("code", code.ident().as_str())]).inc();
    }
    for instr in &log.plan {
        let kind = format!("{:?}", instr.kind());
        ddx_obs::counter("fixer.instructions", &[("kind", kind.as_str())]).inc();
    }
}

/// Feeds a completed run's outcome into the registry, labeled by harness.
fn record_run_metrics(mode: &str, run: &FixRun) {
    ddx_obs::counter("fixer.runs", &[("mode", mode)]).inc();
    if run.fixed {
        ddx_obs::counter("fixer.fixed_runs", &[("mode", mode)]).inc();
    }
}

/// Builds the command-rendering context, populating the key-file names the
/// way BIND's key directory would (Fig 8 prints real `K<zone>+alg+tag`
/// stems).
fn zone_context(sb: &Sandbox) -> ZoneContext {
    let leaf = sb.leaf();
    let mut zc = ZoneContext::new(leaf.apex.clone());
    zc.key_files = leaf
        .ring
        .keys()
        .iter()
        .map(|k| (k.key_tag(), k.file_stem()))
        .collect();
    zc
}

/// Produces a suggest-only plan for the current state: one probe, one
/// resolution, rendered commands — nothing applied.
pub fn suggest(
    sb: &Sandbox,
    cfg: &ProbeConfig,
    flavor: ServerFlavor,
) -> (GrokReport, Resolution, Vec<ShellCommand>) {
    let report = grok(&probe(&sb.testbed, cfg));
    let ctx = FixContext::from_sandbox(sb, &report, cfg.time);
    let resolution = resolve(&report, &ctx);
    let zc = zone_context(sb);
    let commands = render_plan(&resolution.plan, &zc, flavor);
    (report, resolution, commands)
}

/// Suggest-only mode against an arbitrary network — no sandbox, no key
/// ring: DFixer probes the zone like DNSViz would and derives the plan
/// entirely from what the servers publish (the paper's dry-run deployment).
pub fn suggest_remote(
    net: &dyn ddx_server::Network,
    cfg: &ProbeConfig,
    flavor: ServerFlavor,
) -> (GrokReport, Resolution, Vec<ShellCommand>) {
    let probe_result = probe(net, cfg);
    let report = grok(&probe_result);
    let ctx = FixContext::from_probe(&report, &probe_result);
    let resolution = resolve(&report, &ctx);
    let zc = ZoneContext::new(ctx.zone.clone());
    let commands = render_plan(&resolution.plan, &zc, flavor);
    (report, resolution, commands)
}

/// Runs DFixer in auto-apply mode against the sandbox until the zone
/// verifies clean or the iteration budget runs out.
pub fn run_fixer(sb: &mut Sandbox, cfg: &ProbeConfig, opts: &FixerOptions) -> FixRun {
    run_fixer_with_memo(sb, cfg, opts, &mut GrokMemo::new())
}

/// [`run_fixer`] with a caller-provided [`GrokMemo`], so revalidation state
/// can persist across runs (the campaign evaluator's GE diagnosis and the
/// `dfixer --watch` loop share one memo with the fixer).
pub fn run_fixer_with_memo(
    sb: &mut Sandbox,
    cfg: &ProbeConfig,
    opts: &FixerOptions,
    memo: &mut GrokMemo,
) -> FixRun {
    fix_loop(sb, cfg, opts, memo, Planner::DResolver)
}

/// Runs the naive baseline planner (paper Appendix A.2 stand-in) in the
/// same iterative harness, for head-to-head comparison with DFixer.
pub fn run_naive(sb: &mut Sandbox, cfg: &ProbeConfig, opts: &FixerOptions) -> FixRun {
    fix_loop(sb, cfg, opts, &mut GrokMemo::new(), Planner::Naive)
}

/// Which planner turns a report into the next iteration's instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planner {
    /// Root-cause analysis over the dependency graph (the paper's DFixer).
    DResolver,
    /// One generic suggestion per error code ([`crate::naive::naive_plan`]).
    Naive,
}

impl Planner {
    /// The `mode` label of the `fixer.runs` / `fixer.fixed_runs` counters.
    fn mode(self) -> &'static str {
        match self {
            Planner::DResolver => "dfixer",
            Planner::Naive => "naive",
        }
    }

    fn plan(self, sb: &Sandbox, report: &GrokReport, now: u32, opts: &FixerOptions) -> Resolution {
        match self {
            Planner::DResolver => {
                let mut ctx = FixContext::from_sandbox(sb, report, now);
                ctx.use_cds = opts.use_cds;
                resolve(report, &ctx)
            }
            // The naive baseline never attributes or defers causes.
            Planner::Naive => Resolution {
                plan: crate::naive::naive_plan(report),
                ..Resolution::default()
            },
        }
    }
}

/// The iteration loop shared by both planners: revalidate, plan, apply,
/// until the zone verifies clean, the plan is empty, or the budget runs
/// out. The naive planner also stops once it repeats its previous plan.
///
/// Every revalidation goes through `memo`, the final verdict after the
/// loop too: a state the loop already saw revalidates from cache with zero
/// queries. The fixer always probes the un-faulted testbed, so memoized
/// observations are byte-identical to what a fresh walk would see (pinned
/// against scratch probe→grok by `ddx-dnsviz`'s `incremental_equivalence`
/// tests).
fn fix_loop(
    sb: &mut Sandbox,
    cfg: &ProbeConfig,
    opts: &FixerOptions,
    memo: &mut GrokMemo,
    planner: Planner,
) -> FixRun {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut now = cfg.time;
    let mut iterations: Vec<IterationLog> = Vec::new();
    let mut final_report = None;
    let revalidate = |sb: &Sandbox, memo: &mut GrokMemo, now: u32| {
        let mut probe_cfg = cfg.clone();
        probe_cfg.time = now;
        memo.probe_grok(&sb.testbed, &sb.testbed, &probe_cfg)
    };

    for iteration in 1..=opts.max_iterations {
        let report = revalidate(sb, memo, now);
        let errors: BTreeSet<ErrorCode> = report.codes();
        if errors.is_empty() {
            final_report = Some(report);
            break;
        }
        let resolution = planner.plan(sb, &report, now, opts);
        let zc = zone_context(sb);
        let commands = render_plan(&resolution.plan, &zc, opts.flavor);
        let log = IterationLog {
            iteration,
            status_before: report.status,
            errors_before: errors,
            root_causes: resolution.root_causes,
            addressed: resolution.addressed,
            addressed_details: resolution.addressed_details,
            deferred: resolution.deferred,
            plan: resolution.plan,
            commands,
        };
        let stalled = planner == Planner::Naive
            && iterations.last().is_some_and(|prev| prev.plan == log.plan);
        let stop = log.plan.is_empty() || stalled;
        record_iteration_metrics(&log);
        now = apply_plan(sb, &log.plan, now, &mut rng);
        iterations.push(log);
        if stop {
            // Nothing (more) the planner can do — e.g. the breakage is in
            // a zone the operator does not control.
            final_report = Some(report);
            break;
        }
    }

    let final_report = final_report.unwrap_or_else(|| revalidate(sb, memo, now));
    let final_errors = final_report.codes();
    let run = FixRun {
        iterations,
        fixed: final_errors.is_empty(),
        final_status: final_report.status,
        final_errors,
    };
    record_run_metrics(planner.mode(), &run);
    run
}

/// Applies a plan to the sandbox; returns the (possibly advanced) clock.
pub fn apply_plan(sb: &mut Sandbox, plan: &[Instruction], mut now: u32, rng: &mut StdRng) -> u32 {
    let apex = sb.leaf().apex.clone();
    let mut signed = false;
    for instr in plan {
        match instr {
            Instruction::GenerateKsk { algorithm, bits } => {
                let key =
                    KeyPair::generate(rng, apex.clone(), *algorithm, *bits, KeyRole::Ksk, now);
                sb.zone_mut(&apex)
                    .expect("apex comes from sb.leaf() above; sandbox zones are never removed")
                    .ring
                    .add(key);
            }
            Instruction::GenerateZsk { algorithm, bits } => {
                let key =
                    KeyPair::generate(rng, apex.clone(), *algorithm, *bits, KeyRole::Zsk, now);
                sb.zone_mut(&apex)
                    .expect("apex comes from sb.leaf() above; sandbox zones are never removed")
                    .ring
                    .add(key);
            }
            Instruction::RemoveInvalidKey { key_tag }
            | Instruction::RemoveRevokedKey { key_tag } => {
                let tag = *key_tag;
                sb.zone_mut(&apex)
                    .expect("apex comes from sb.leaf() above; sandbox zones are never removed")
                    .ring
                    .retain(|k| k.key_tag() != tag);
                // Also drop the published record so a later sign is not
                // required just to purge it from responses.
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    let stray: Vec<RData> = zone
                        .get(&apex, ddx_dns::RrType::Dnskey)
                        .map(|set| {
                            set.rdatas
                                .iter()
                                .filter(|rd| matches!(rd, RData::Dnskey(k) if k.key_tag() == tag))
                                .cloned()
                                .collect()
                        })
                        .unwrap_or_default();
                    for rd in stray {
                        zone.remove_rdata(&apex, &rd);
                    }
                });
            }
            Instruction::UploadDs { digest_type } => {
                let mut ds_set = current_parent_ds(sb, &apex);
                let ksks: Vec<KeyPair> = sb
                    .zone(&apex)
                    .expect("apex comes from sb.leaf() above; sandbox zones are never removed")
                    .ring
                    .active(KeyRole::Ksk, now)
                    .into_iter()
                    .cloned()
                    .collect();
                for k in &ksks {
                    let ds = make_ds(&apex, &k.dnskey, *digest_type);
                    if !ds_set.contains(&ds) {
                        ds_set.push(ds);
                    }
                }
                sb.set_ds(&apex, ds_set, now);
            }
            Instruction::RemoveIncorrectDs { ds } => {
                let mut ds_set = current_parent_ds(sb, &apex);
                ds_set.retain(|d| d != ds);
                sb.set_ds(&apex, ds_set, now);
            }
            Instruction::WaitTtl { seconds } => {
                now = now.saturating_add(*seconds + 1);
            }
            Instruction::ReduceTtl { name, rtype, ttl } => {
                let (name, rtype, ttl) = (name.clone(), *rtype, *ttl);
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    if let Some(set) = zone.get_mut(&name, rtype) {
                        set.ttl = ttl;
                    }
                });
            }
            Instruction::SignZone { nsec3 } => {
                {
                    let leaf = sb
                        .zone_mut(&apex)
                        .expect("apex comes from sb.leaf() above; sandbox zones are never removed");
                    leaf.signer_config = match nsec3 {
                        Some(cfg) => SignerConfig::nsec3_at(now, cfg.clone()),
                        None => SignerConfig::nsec_at(now),
                    };
                    leaf.spec.nsec3 = nsec3.clone();
                }
                let _ = sb.resign_zone(&apex, now);
                signed = true;
            }
            Instruction::SyncAuthServers => {
                // Normalization: every server re-derives the same signed
                // zone from the operator's canonical key ring.
                if !signed {
                    let _ = sb.resign_zone(&apex, now);
                }
            }
            Instruction::PublishCds { digest_type } => {
                // Child side: publish signed CDS/CDNSKEY on every server.
                let ring = sb
                    .zone(&apex)
                    .expect("apex comes from sb.leaf() above; sandbox zones are never removed")
                    .ring
                    .clone();
                let opts_sign = ddx_dnssec::SignOptions {
                    inception: now.saturating_sub(3600),
                    expiration: now + 30 * 86_400,
                };
                let dt = *digest_type;
                sb.testbed.mutate_zone_everywhere(&apex, |zone| {
                    ddx_dnssec::publish_cds(zone, &ring, dt, now, opts_sign);
                });
                // Parent side: the scanner validates and installs the set.
                let current = current_parent_ds(sb, &apex);
                let child_zone = sb
                    .zone(&apex)
                    .and_then(|z| z.servers.first().cloned())
                    .and_then(|sid| sb.testbed.server(&sid).and_then(|s| s.zone(&apex)).cloned());
                if let Some(child_zone) = child_zone {
                    if let Ok(result) = ddx_dnssec::scan_child_cds(&child_zone, &current, now) {
                        sb.set_ds(&apex, result.new_ds, now);
                    }
                }
            }
        }
    }
    now
}

fn current_parent_ds(sb: &Sandbox, child: &ddx_dns::Name) -> Vec<ddx_dns::Ds> {
    if sb.zones.len() < 2 {
        return Vec::new();
    }
    let parent = &sb.zones[sb.zones.len() - 2];
    sb.testbed
        .server(&parent.servers[0])
        .and_then(|s| s.zone(&parent.apex))
        .and_then(|z| z.get(child, ddx_dns::RrType::Ds))
        .map(|set| {
            set.rdatas
                .iter()
                .filter_map(|rd| match rd {
                    RData::Ds(d) => Some(d.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

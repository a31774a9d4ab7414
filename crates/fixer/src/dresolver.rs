//! DResolver (paper §4.3 step 3): picks the highest-priority root cause
//! from a grok report, inspects the zone context (key ring, DS set,
//! published keys, denial parameters), and synthesizes the minimal ordered
//! remediation plan for that cause. One cause group is fixed per iteration,
//! exactly like the paper's incremental strategy (§5.4).

use std::collections::BTreeSet;

use ddx_dns::{Dnskey, Ds, Name, RrType};
use ddx_dnssec::{check_ds, Algorithm, DigestType, DsMatch, KeyRole, Nsec3Config};
use ddx_dnsviz::{Category, ErrorCode, ErrorDetail, GrokReport};

use crate::graph::root_causes;
use crate::instructions::Instruction;

/// Operational context about the zone being fixed, assembled from the
/// sandbox (auto-apply) or from probe data (suggest-only).
#[derive(Debug, Clone)]
pub struct FixContext {
    pub zone: Name,
    /// (tag, algorithm, bits) of active, non-revoked KSKs in the ring.
    pub active_ksk: Vec<(u16, Algorithm, u16)>,
    /// Same for ZSKs.
    pub active_zsk: Vec<(u16, Algorithm, u16)>,
    /// Tags of revoked keys still around (ring or zone).
    pub revoked_tags: Vec<u16>,
    /// DNSKEYs currently published by the zone's servers.
    pub published: Vec<Dnskey>,
    /// DS records currently served by the parent.
    pub ds_set: Vec<Ds>,
    /// Current denial mechanism (None → NSEC).
    pub nsec3: Option<Nsec3Config>,
    /// TTL of the DNSKEY RRset (drives WaitTtl).
    pub dnskey_ttl: u32,
    /// Preferred DS digest type.
    pub ds_digest: DigestType,
    /// When true, DS maintenance uses CDS/CDNSKEY publication instead of
    /// manual registrar steps.
    pub use_cds: bool,
}

impl FixContext {
    /// Builds the context from a live sandbox plus the latest report.
    pub fn from_sandbox(sb: &ddx_server::Sandbox, report: &GrokReport, now: u32) -> Self {
        let leaf = sb.leaf();
        let ring = &leaf.ring;
        let key_info = |k: &ddx_dnssec::KeyPair| {
            (
                k.key_tag(),
                k.algorithm().unwrap_or(Algorithm::EcdsaP256Sha256),
                k.key_bits,
            )
        };
        let active_ksk = ring
            .active(KeyRole::Ksk, now)
            .into_iter()
            .map(key_info)
            .collect();
        let active_zsk = ring
            .active(KeyRole::Zsk, now)
            .into_iter()
            .map(key_info)
            .collect();
        let revoked_tags = ring
            .keys()
            .iter()
            .filter(|k| k.is_revoked())
            .map(|k| k.key_tag())
            .collect();

        // Published keys and DS set come from the report's probe view: walk
        // the sandbox servers directly for fidelity.
        let mut published = Vec::new();
        for sid in &leaf.servers {
            if let Some(zone) = sb.testbed.server(sid).and_then(|s| s.zone(&leaf.apex)) {
                if let Some(set) = zone.get(&leaf.apex, RrType::Dnskey) {
                    for rd in &set.rdatas {
                        if let ddx_dns::RData::Dnskey(k) = rd {
                            if !published.contains(k) {
                                published.push(k.clone());
                            }
                        }
                    }
                }
            }
        }
        let mut ds_set = Vec::new();
        if sb.zones.len() >= 2 {
            let parent = &sb.zones[sb.zones.len() - 2];
            if let Some(zone) = sb
                .testbed
                .server(&parent.servers[0])
                .and_then(|s| s.zone(&parent.apex))
            {
                if let Some(set) = zone.get(&leaf.apex, RrType::Ds) {
                    for rd in &set.rdatas {
                        if let ddx_dns::RData::Ds(d) = rd {
                            ds_set.push(d.clone());
                        }
                    }
                }
            }
        }
        let nsec3 = match &leaf.signer_config.denial {
            ddx_dnssec::DenialMode::Nsec3(cfg) => Some(cfg.clone()),
            ddx_dnssec::DenialMode::Nsec => None,
        };
        let _ = report;
        FixContext {
            zone: leaf.apex.clone(),
            active_ksk,
            active_zsk,
            revoked_tags,
            published,
            ds_set,
            nsec3,
            dnskey_ttl: ddx_dnssec::DNSKEY_TTL,
            ds_digest: leaf
                .spec
                .ds_digests
                .first()
                .copied()
                .unwrap_or(DigestType::Sha256),
            use_cds: false,
        }
    }
}

impl FixContext {
    /// Builds the context from probe data alone — no operator-side key
    /// ring. This is the *remote* (suggest-only) mode: the paper's DFixer
    /// parses the grok JSON of a zone the operator owns but the tool does
    /// not; key roles and sizes are inferred from the published DNSKEY
    /// RRset (SEP flag → KSK), and DS state from the parent's responses.
    pub fn from_probe(report: &GrokReport, probe: &ddx_dnsviz::ProbeResult) -> Self {
        let leaf = probe.zones.last();
        let zone = leaf
            .map(|z| z.zone.clone())
            .unwrap_or_else(|| report.query_domain.clone());
        let mut published: Vec<Dnskey> = Vec::new();
        let mut ds_set: Vec<Ds> = Vec::new();
        let mut nsec3: Option<Nsec3Config> = None;
        if let Some(zp) = leaf {
            for sp in &zp.servers {
                for k in sp.dnskeys() {
                    if !published.contains(k) {
                        published.push(k.clone());
                    }
                }
                // NSEC3 parameters from the apex NSEC3PARAM answer.
                if let Some(msg) = &sp.nsec3param {
                    for rec in &msg.answers {
                        if let ddx_dns::RData::Nsec3Param(p) = &rec.rdata {
                            nsec3 = Some(Nsec3Config {
                                hash_algorithm: p.hash_algorithm,
                                iterations: p.iterations,
                                salt: p.salt.clone(),
                                opt_out: false,
                            });
                        }
                    }
                }
            }
            for (_, resp) in &zp.ds_responses {
                if let Some(msg) = resp {
                    for rec in &msg.answers {
                        if let ddx_dns::RData::Ds(d) = &rec.rdata {
                            if !ds_set.contains(d) {
                                ds_set.push(d.clone());
                            }
                        }
                    }
                }
            }
        }
        let key_info = |k: &Dnskey| {
            (
                k.key_tag(),
                Algorithm::from_code(k.algorithm).unwrap_or(Algorithm::EcdsaP256Sha256),
                (k.public_key.len() * 8) as u16,
            )
        };
        let usable = |k: &&Dnskey| k.is_zone_key() && !k.is_revoked();
        let active_ksk = published
            .iter()
            .filter(usable)
            .filter(|k| k.is_sep())
            .map(key_info)
            .collect();
        let active_zsk = published
            .iter()
            .filter(usable)
            .filter(|k| !k.is_sep())
            .map(key_info)
            .collect();
        let revoked_tags = published
            .iter()
            .filter(|k| k.is_revoked())
            .map(|k| k.key_tag())
            .collect();
        let ds_digest = ds_set
            .first()
            .and_then(|d| ddx_dnssec::DigestType::from_code(d.digest_type))
            .unwrap_or(DigestType::Sha256);
        FixContext {
            zone,
            active_ksk,
            active_zsk,
            revoked_tags,
            published,
            ds_set,
            nsec3,
            dnskey_ttl: ddx_dnssec::DNSKEY_TTL,
            ds_digest,
            use_cds: false,
        }
    }
}

/// One resolution step: the identified root causes and the plan for the
/// highest-priority one.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// All root causes identified this round, priority order.
    pub root_causes: Vec<ErrorCode>,
    /// The cause the plan addresses (first of `root_causes`).
    pub addressed: Option<ErrorCode>,
    /// The typed details of every report error carrying the addressed
    /// code — the structured evidence the plan was built from.
    pub addressed_details: Vec<ErrorDetail>,
    /// Root causes whose evidence is *absence* (missing RRSIG/DNSKEY/proof)
    /// in zones the probe could not fully observe — prescribing a fix from
    /// missing data risks "repairing" a record that exists but was never
    /// seen. These are skipped this round; they resolve themselves once the
    /// observation gaps heal.
    pub deferred: Vec<ErrorCode>,
    /// Ordered instructions.
    pub plan: Vec<Instruction>,
}

/// Priority of a root cause: delegation/key problems are addressed before
/// pure signing or denial hygiene (the paper's NZIC+DS example removes the
/// DS in iteration 1 and re-signs in iteration 2).
fn cause_priority(code: ErrorCode) -> u8 {
    match code.category() {
        Category::Delegation => 0,
        Category::Key => 1,
        Category::Algorithm => 2,
        Category::Signature => 3,
        Category::Ttl => 4,
        Category::Nsec3Shared | Category::NsecOnly | Category::Nsec3Only => 5,
    }
}

/// The target denial configuration for a re-sign: keep the zone's
/// mechanism, but force RFC 9276-compliant parameters when the chain itself
/// is the problem.
fn target_denial(ctx: &FixContext, force_compliant: bool) -> Option<Nsec3Config> {
    match &ctx.nsec3 {
        None => None,
        Some(cfg) if force_compliant => Some(Nsec3Config {
            opt_out: cfg.opt_out,
            ..Nsec3Config::default()
        }),
        Some(cfg) => Some(cfg.clone()),
    }
}

/// Runs DResolver over the report: identify root causes, build the plan for
/// the first.
pub fn resolve(report: &GrokReport, ctx: &FixContext) -> Resolution {
    let codes: BTreeSet<ErrorCode> = report.codes();
    let mut roots = root_causes(&codes);
    roots.sort_by_key(|c| (cause_priority(*c), *c));
    // Zones the probe could not fully observe: absence-evidence codes whose
    // every instance sits in such a zone are deferred, not fixed — the
    // "missing" record may exist behind the timeout/truncation.
    let gap_zones: BTreeSet<Name> = report
        .zones
        .iter()
        .filter(|z| !z.observation_gaps.is_empty())
        .map(|z| z.zone.clone())
        .collect();
    let is_deferred = |code: ErrorCode| {
        code.evidence_is_absence()
            && !gap_zones.is_empty()
            && report
                .errors()
                .filter(|e| e.code == code)
                .all(|e| gap_zones.contains(&e.zone))
    };
    let deferred: Vec<ErrorCode> = roots.iter().copied().filter(|&c| is_deferred(c)).collect();
    let Some(first) = roots.iter().copied().find(|&c| !is_deferred(c)) else {
        return Resolution {
            root_causes: roots,
            addressed: None,
            addressed_details: Vec::new(),
            deferred,
            plan: Vec::new(),
        };
    };
    let plan = plan_for_cause(first, report, ctx);
    let addressed_details = report
        .errors()
        .filter(|e| e.code == first)
        .map(|e| e.detail.clone())
        .collect();
    Resolution {
        root_causes: roots,
        addressed: Some(first),
        addressed_details,
        deferred,
        plan,
    }
}

/// Accumulator that keeps the canonical instruction order:
/// generate keys → remove invalid keys → DS upload → DS removals →
/// wait TTL → remove revoked keys → sign → sync (Fig 8's sequence).
#[derive(Default)]
struct PlanBuilder {
    /// Collapse DS uploads+removals into one CDS publication.
    use_cds: bool,
    gen_ksk: Option<(Algorithm, u16)>,
    gen_zsk: Option<(Algorithm, u16)>,
    remove_invalid: Vec<u16>,
    upload_ds: Option<DigestType>,
    remove_ds: Vec<Ds>,
    wait_ttl: Option<u32>,
    remove_revoked: Vec<u16>,
    sign: Option<Option<Nsec3Config>>,
    sync: bool,
    reduce_ttl: Vec<(Name, RrType, u32)>,
}

impl PlanBuilder {
    fn build(self) -> Vec<Instruction> {
        let mut out = Vec::new();
        if let Some((algorithm, bits)) = self.gen_ksk {
            out.push(Instruction::GenerateKsk { algorithm, bits });
        }
        if let Some((algorithm, bits)) = self.gen_zsk {
            out.push(Instruction::GenerateZsk { algorithm, bits });
        }
        for key_tag in self.remove_invalid {
            out.push(Instruction::RemoveInvalidKey { key_tag });
        }
        // CDS mode: one publication replaces the whole registrar round trip
        // (the parent installs the advertised set and drops the rest).
        let (upload_ds, remove_ds) =
            if self.use_cds && (self.upload_ds.is_some() || !self.remove_ds.is_empty()) {
                out.push(Instruction::PublishCds {
                    digest_type: self.upload_ds.unwrap_or(ddx_dnssec::DigestType::Sha256),
                });
                (None, Vec::new())
            } else {
                (self.upload_ds, self.remove_ds)
            };
        if let Some(digest_type) = upload_ds {
            out.push(Instruction::UploadDs { digest_type });
        }
        for ds in remove_ds {
            out.push(Instruction::RemoveIncorrectDs { ds });
        }
        if let Some(seconds) = self.wait_ttl {
            out.push(Instruction::WaitTtl { seconds });
        }
        for key_tag in self.remove_revoked {
            out.push(Instruction::RemoveRevokedKey { key_tag });
        }
        for (name, rtype, ttl) in self.reduce_ttl {
            out.push(Instruction::ReduceTtl { name, rtype, ttl });
        }
        if let Some(nsec3) = self.sign {
            out.push(Instruction::SignZone { nsec3 });
        }
        if self.sync {
            out.push(Instruction::SyncAuthServers);
        }
        out
    }
}

/// Default algorithm/size for newly generated keys: reuse the zone's
/// dominant algorithm, falling back to ECDSA P-256.
fn new_key_params(ctx: &FixContext) -> (Algorithm, u16) {
    ctx.active_ksk
        .first()
        .or(ctx.active_zsk.first())
        .map(|&(_, a, b)| (a, b))
        .unwrap_or((Algorithm::EcdsaP256Sha256, 256))
}

/// DS records that do not correctly link a usable, active KSK.
fn bad_ds_records(ctx: &FixContext) -> Vec<Ds> {
    let active_tags: Vec<u16> = ctx.active_ksk.iter().map(|&(t, _, _)| t).collect();
    ctx.ds_set
        .iter()
        .filter(|ds| {
            let linked = ctx.published.iter().find(|k| k.key_tag() == ds.key_tag);
            match linked {
                Some(key) => {
                    check_ds(&ctx.zone, ds, key) != DsMatch::Match
                        || key.is_revoked()
                        || !key.is_zone_key()
                        || !key.is_sep()
                        || !active_tags.contains(&ds.key_tag)
                }
                None => true,
            }
        })
        .cloned()
        .collect()
}

/// True if at least one DS correctly links an active KSK.
fn good_link_exists(ctx: &FixContext) -> bool {
    let active_tags: Vec<u16> = ctx.active_ksk.iter().map(|&(t, _, _)| t).collect();
    ctx.ds_set.iter().any(|ds| {
        ctx.published.iter().any(|k| {
            k.key_tag() == ds.key_tag
                && check_ds(&ctx.zone, ds, k) == DsMatch::Match
                && !k.is_revoked()
                && k.is_sep()
                && active_tags.contains(&ds.key_tag)
        })
    })
}

/// Stray published keys: not represented by an active ring key.
fn stray_published_tags(ctx: &FixContext) -> Vec<u16> {
    let ring_tags: Vec<u16> = ctx
        .active_ksk
        .iter()
        .chain(ctx.active_zsk.iter())
        .map(|&(t, _, _)| t)
        .collect();
    ctx.published
        .iter()
        .map(|k| k.key_tag())
        .filter(|t| !ring_tags.contains(t) && !ctx.revoked_tags.contains(t))
        .collect()
}

fn plan_for_cause(cause: ErrorCode, report: &GrokReport, ctx: &FixContext) -> Vec<Instruction> {
    use ErrorCode::*;
    let mut pb = PlanBuilder {
        use_cds: ctx.use_cds,
        ..Default::default()
    };
    let denial = target_denial(ctx, false);
    match cause {
        // ------------------------------------------------- delegation
        DsMissingKeyForAlgorithm
        | DsDigestInvalid
        | DsAlgorithmMismatch
        | DsUnknownDigestType
        | NoSecureEntryPoint
        | NoSepForDsAlgorithm => {
            pb.remove_ds = bad_ds_records(ctx);
            if !good_link_exists(ctx) {
                if ctx.active_ksk.is_empty() {
                    pb.gen_ksk = Some(new_key_params(ctx));
                    pb.sign = Some(denial.clone());
                }
                pb.upload_ds = Some(ctx.ds_digest);
            }
        }
        DnskeyMissingForDs => {
            if ctx.active_ksk.is_empty() && ctx.active_zsk.is_empty() {
                let params = new_key_params(ctx);
                pb.gen_ksk = Some(params);
                pb.gen_zsk = Some(params);
                pb.upload_ds = Some(ctx.ds_digest);
                pb.remove_ds = ctx.ds_set.clone();
            }
            // Re-signing republishes the DNSKEY RRset from the ring.
            pb.sign = Some(denial.clone());
        }
        DsReferencesRevokedKey | DnskeyRevokedNoOtherSep | RevokedKeyInUse => {
            // The Fig 8 workflow.
            let has_other_ksk = !ctx.active_ksk.is_empty();
            if !has_other_ksk && cause != RevokedKeyInUse {
                pb.gen_ksk = Some(new_key_params(ctx));
                pb.upload_ds = Some(ctx.ds_digest);
            }
            if cause == RevokedKeyInUse && ctx.active_zsk.is_empty() {
                pb.gen_zsk = Some(new_key_params(ctx));
            }
            // Remove any DS linked to a revoked key (or simply stale).
            pb.remove_ds = bad_ds_records(ctx);
            if !pb.remove_ds.is_empty() {
                pb.wait_ttl = Some(ctx.dnskey_ttl);
            }
            pb.remove_revoked = ctx.revoked_tags.clone();
            // Also purge published revoked keys that are not in the ring.
            for k in &ctx.published {
                if k.is_revoked() && !pb.remove_revoked.contains(&k.key_tag()) {
                    pb.remove_revoked.push(k.key_tag());
                }
            }
            pb.sign = Some(denial.clone());
        }
        // ------------------------------------------------------- key
        DnskeyMissingFromServers | DnskeyInconsistentRrset => {
            pb.sign = Some(denial.clone());
            pb.sync = true;
        }
        KeyLengthTooShort | KeyLengthInvalidForAlgorithm => {
            // Find the published keys with bad material.
            for k in &ctx.published {
                let bad = match Algorithm::from_code(k.algorithm) {
                    Some(a) => {
                        let bits = k.key_bits() as u16;
                        (a.is_rsa() && bits < 512) || !a.key_bits_valid(bits)
                    }
                    None => true,
                };
                if bad {
                    pb.remove_invalid.push(k.key_tag());
                }
            }
            if ctx.active_zsk.is_empty() {
                pb.gen_zsk = Some(new_key_params(ctx));
            }
            pb.sign = Some(denial.clone());
        }
        // ------------------------------------------------- algorithm
        DsAlgorithmWithoutRrsig | DnskeyAlgorithmWithoutRrsig | RrsigAlgorithmWithoutDnskey => {
            // Strays (published keys with no ring backing) are dropped by a
            // re-sign; DS records for algorithms that cannot sign must go.
            pb.remove_invalid = stray_published_tags(ctx);
            let ring_algos: Vec<u8> = ctx
                .active_ksk
                .iter()
                .chain(ctx.active_zsk.iter())
                .map(|&(_, a, _)| a.code())
                .collect();
            pb.remove_ds = ctx
                .ds_set
                .iter()
                .filter(|ds| {
                    !ring_algos.contains(&ds.algorithm) || bad_ds_records(ctx).contains(ds)
                })
                .cloned()
                .collect();
            pb.sign = Some(denial.clone());
        }
        // ------------------------------------------------- signature
        RrsigMissing
        | RrsigMissingFromServers
        | RrsigMissingForDnskey
        | RrsigExpired
        | RrsigInvalid
        | RrsigInvalidRdata
        | RrsigUnknownKeyTag
        | RrsigSignerMismatch
        | RrsigNotYetValid
        | RrsigLabelsExceedOwner
        | RrsigBadLength => {
            if ctx.active_zsk.is_empty() && ctx.active_ksk.is_empty() {
                pb.gen_zsk = Some(new_key_params(ctx));
            }
            pb.sign = Some(denial.clone());
            if cause == RrsigMissingFromServers {
                pb.sync = true;
            }
            // Strays that caused InvalidRdata (non-zone keys) get dropped.
            if cause == RrsigInvalidRdata {
                pb.remove_invalid = stray_published_tags(ctx);
            }
        }
        // ------------------------------------------------------- TTL
        OriginalTtlExceeded => {
            // The typed details name the affected RRsets directly; lowering
            // each TTL back to the signed original is the minimal fix — no
            // re-sign required.
            pb.reduce_ttl = ttl_reductions(report);
            if pb.reduce_ttl.is_empty() {
                pb.sign = Some(denial.clone());
            }
        }
        TtlBeyondSignatureExpiry => {
            pb.sign = Some(denial.clone());
        }
        // ---------------------------------------------------- denial
        Nsec3IterationsNonzero
        | Nsec3ParamMismatch
        | Nsec3UnsupportedAlgorithm
        | Nsec3OptOutViolation => {
            pb.sign = Some(target_denial(ctx, true));
        }
        NsecProofMissing
        | Nsec3ProofMissing
        | NsecBitmapAssertsType
        | Nsec3BitmapAssertsType
        | NsecCoverageBroken
        | Nsec3CoverageBroken
        | NsecMissingWildcardProof
        | Nsec3MissingWildcardProof
        | LastNsecNotApex
        | Nsec3NoClosestEncloser
        | Nsec3InconsistentAncestor
        | Nsec3HashInvalidLength
        | Nsec3OwnerNotBase32 => {
            pb.sign = Some(denial.clone());
        }
        // --------------------------------------------------- budgets
        ValidationBudgetExceeded => {
            // KeyTrap-class material. Purging stray published keys removes
            // the key side of any sig×key cross product; the re-sign drops
            // every stray RRSIG and rebuilds the denial chain with RFC
            // 9276-compliant parameters (killing high-iteration NSEC3 work).
            pb.remove_invalid = stray_published_tags(ctx);
            pb.sign = Some(target_denial(ctx, true));
        }
    }
    pb.build()
}

/// Collects `(name, type, original_ttl)` triples from the typed
/// [`ErrorDetail::TtlExceedsOriginal`] payloads of OriginalTtlExceeded
/// errors, one per affected RRset.
fn ttl_reductions(report: &GrokReport) -> Vec<(Name, RrType, u32)> {
    let mut out: Vec<(Name, RrType, u32)> = Vec::new();
    for e in report.errors() {
        if e.code != ErrorCode::OriginalTtlExceeded {
            continue;
        }
        let ErrorDetail::TtlExceedsOriginal {
            name,
            rtype,
            original_ttl,
            ..
        } = &e.detail
        else {
            continue;
        };
        if !out.iter().any(|(n, t, _)| n == name && t == rtype) {
            out.push((name.clone(), *rtype, *original_ttl));
        }
    }
    out
}

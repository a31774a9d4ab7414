//! The synthetic DNSViz-log corpus generator.
//!
//! Produces per-domain snapshot trajectories whose marginal statistics are
//! calibrated to the paper's published tables (see `params`); the analysis
//! pipeline (`analysis`) then *recomputes* every table and figure from the
//! generated snapshots alone, exactly as the paper's pipeline does over the
//! real DNS-OARC data.

use std::collections::BTreeSet;

use ddx_json::{FromJson, ToJson};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ddx_dnsviz::{ErrorCode, SnapshotStatus, Subcategory};
use ddx_replicator::{KeySpec, Nsec3Meta, ZoneMeta};

use crate::params;

/// Domain hierarchy level (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum Level {
    Root,
    Tld,
    SldPlus,
}

/// One diagnostic snapshot of one domain.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct Snapshot {
    /// Hours since the observation window opened (2020-03-11).
    pub(crate) t_hours: f64,
    pub status: SnapshotStatus,
    /// DNSSEC error codes present.
    pub errors: BTreeSet<ErrorCode>,
    /// Identity of the NS set (changes on nameserver migration).
    pub(crate) ns_set: u16,
    /// Identity of the DNSKEY set (changes on key rollover).
    pub(crate) key_set: u16,
    /// DNSKEY algorithms in use.
    pub algorithms: Vec<u8>,
    /// Zone meta-parameters for replication (paper §5.1 step 2).
    pub meta: ZoneMeta,
    /// Rare condition behind the paper's five unfixed S2 snapshots: the
    /// *parent* zone is bogus (DS present, DNSKEY missing), which a
    /// child-side fix cannot repair.
    #[json(default)]
    pub parent_broken: bool,
}

impl Snapshot {
    /// Subcategories of the errors present.
    pub fn subcategories(&self) -> BTreeSet<Subcategory> {
        self.errors.iter().map(|e| e.subcategory()).collect()
    }

    /// True when NZIC is the only error (paper's S1 subset).
    pub fn is_nzic_only(&self) -> bool {
        self.errors.len() == 1 && self.errors.contains(&ErrorCode::Nsec3IterationsNonzero)
    }
}

/// One domain with its snapshot history.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct DomainRecord {
    pub id: u64,
    pub level: Level,
    pub snapshots: Vec<Snapshot>,
}

impl DomainRecord {
    /// Changing Domain (paper §3.2.2): at least two snapshots differing in
    /// status or error codes.
    pub(crate) fn is_cd(&self) -> bool {
        self.snapshots.len() >= 2
            && self
                .snapshots
                .windows(2)
                .any(|w| w[0].status != w[1].status || w[0].errors != w[1].errors)
    }

    /// Stable Domain: multi-snapshot but never changing.
    pub(crate) fn is_sd(&self) -> bool {
        self.snapshots.len() >= 2 && !self.is_cd()
    }
}

/// The generated corpus.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct Corpus {
    pub domains: Vec<DomainRecord>,
    /// Scale factor relative to the paper's dataset.
    pub scale: f64,
    pub seed: u64,
}

impl Corpus {
    pub fn sld_domains(&self) -> impl Iterator<Item = &DomainRecord> {
        self.domains.iter().filter(|d| d.level == Level::SldPlus)
    }

    /// All erroneous SLD+ snapshots — the Table 6 evaluation population.
    pub fn erroneous_snapshots(&self) -> impl Iterator<Item = &Snapshot> {
        self.sld_domains()
            .flat_map(|d| d.snapshots.iter())
            .filter(|s| !s.errors.is_empty())
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// 1.0 reproduces the paper-scale dataset (319,277 SLD+ domains,
    /// 747,455 snapshots); the default 0.01 is laptop-friendly.
    pub scale: f64,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            scale: 0.01,
            seed: 20_200_311,
        }
    }
}

// ------------------------------------------------------------ error model

/// Table 3 subcategory weights for co-occurring errors (NZIC's weight here
/// is only its co-occurrence mass; NZIC-only snapshots are drawn first).
fn cooccur_weights() -> Vec<(Subcategory, u64)> {
    Subcategory::ALL
        .iter()
        .map(|&s| {
            let w = if s == Subcategory::NonzeroIterationCount {
                params::subcategory_snapshots(s) - params::NZIC_ONLY_SNAPSHOTS
            } else {
                params::subcategory_snapshots(s)
            };
            (s, w)
        })
        .collect()
}

/// Denial mechanism implied by the codes picked so far (zones use NSEC or
/// NSEC3, not both — the sampler keeps an error set self-consistent).
#[derive(Clone, Copy, PartialEq)]
enum DenialAffinity {
    Unknown,
    Nsec,
    Nsec3,
}

fn affinity_of(code: ErrorCode) -> DenialAffinity {
    use ErrorCode::*;
    match code {
        NsecProofMissing
        | NsecBitmapAssertsType
        | NsecCoverageBroken
        | NsecMissingWildcardProof
        | LastNsecNotApex => DenialAffinity::Nsec,
        Nsec3ProofMissing
        | Nsec3BitmapAssertsType
        | Nsec3CoverageBroken
        | Nsec3MissingWildcardProof
        | Nsec3ParamMismatch
        | Nsec3IterationsNonzero
        | Nsec3OptOutViolation
        | Nsec3UnsupportedAlgorithm
        | Nsec3NoClosestEncloser
        | Nsec3InconsistentAncestor
        | Nsec3HashInvalidLength
        | Nsec3OwnerNotBase32 => DenialAffinity::Nsec3,
        _ => DenialAffinity::Unknown,
    }
}

/// Concrete code for a subcategory, weighted toward the common (replicable)
/// representative; unreplicable variants keep their natural small share.
/// `mode` keeps NSEC- and NSEC3-specific picks consistent within one set.
fn code_for_subcategory(rng: &mut StdRng, sub: Subcategory, mode: DenialAffinity) -> ErrorCode {
    use ErrorCode::*;
    use Subcategory as S;
    match sub {
        S::MissingKskForAlgorithm => *pick(
            rng,
            &[
                (DsMissingKeyForAlgorithm, 70),
                (NoSecureEntryPoint, 15),
                (DnskeyMissingForDs, 10),
                (NoSepForDsAlgorithm, 5),
            ],
        ),
        S::InvalidDigest => *pick(
            rng,
            &[
                (DsDigestInvalid, 80),
                (DsAlgorithmMismatch, 15),
                (DsUnknownDigestType, 5),
            ],
        ),
        S::InconsistentDnskey => *pick(
            rng,
            &[
                (DnskeyMissingFromServers, 70),
                (DnskeyInconsistentRrset, 30),
            ],
        ),
        S::RevokedKey => *pick(
            rng,
            &[
                (DsReferencesRevokedKey, 45),
                (RevokedKeyInUse, 35),
                (DnskeyRevokedNoOtherSep, 20),
            ],
        ),
        S::BadKeyLength => *pick(
            rng,
            &[
                (KeyLengthTooShort, 55),
                (KeyLengthInvalidForAlgorithm, 45), // unreplicable variant
            ],
        ),
        S::IncompleteAlgorithmSetup => *pick(
            rng,
            &[
                (DsAlgorithmWithoutRrsig, 40),
                (DnskeyAlgorithmWithoutRrsig, 40),
                (RrsigAlgorithmWithoutDnskey, 20),
            ],
        ),
        S::MissingSignature => *pick(
            rng,
            &[
                (RrsigMissing, 70),
                (RrsigMissingFromServers, 20),
                (RrsigMissingForDnskey, 10),
            ],
        ),
        S::ExpiredSignature => RrsigExpired,
        S::InvalidSignature => *pick(
            rng,
            &[
                (RrsigInvalid, 70),
                (RrsigUnknownKeyTag, 20),
                (RrsigInvalidRdata, 10),
            ],
        ),
        S::IncorrectSigner => RrsigSignerMismatch,
        S::NotYetValidSignature => RrsigNotYetValid,
        S::IncorrectSignatureLabels => RrsigLabelsExceedOwner,
        S::BadSignatureLength => RrsigBadLength,
        S::OriginalTtlExceedsRrsetTtl => OriginalTtlExceeded,
        S::TtlBeyondExpiration => TtlBeyondSignatureExpiry,
        S::MissingNonexistenceProof => match mode {
            DenialAffinity::Nsec => NsecProofMissing,
            DenialAffinity::Nsec3 => Nsec3ProofMissing,
            DenialAffinity::Unknown => {
                *pick(rng, &[(NsecProofMissing, 45), (Nsec3ProofMissing, 55)])
            }
        },
        S::IncorrectTypeBitmap => match mode {
            DenialAffinity::Nsec => NsecBitmapAssertsType,
            DenialAffinity::Nsec3 => Nsec3BitmapAssertsType,
            DenialAffinity::Unknown => *pick(
                rng,
                &[(NsecBitmapAssertsType, 45), (Nsec3BitmapAssertsType, 55)],
            ),
        },
        S::BadNonexistenceProof => match mode {
            DenialAffinity::Nsec => *pick(
                rng,
                &[(NsecCoverageBroken, 60), (NsecMissingWildcardProof, 40)],
            ),
            DenialAffinity::Nsec3 => *pick(
                rng,
                &[
                    (Nsec3CoverageBroken, 50),
                    (Nsec3MissingWildcardProof, 30),
                    (Nsec3ParamMismatch, 20),
                ],
            ),
            DenialAffinity::Unknown => *pick(
                rng,
                &[
                    (NsecCoverageBroken, 30),
                    (Nsec3CoverageBroken, 30),
                    (NsecMissingWildcardProof, 15),
                    (Nsec3MissingWildcardProof, 15),
                    (Nsec3ParamMismatch, 10),
                ],
            ),
        },
        S::IncorrectLastNsec => LastNsecNotApex,
        S::NonzeroIterationCount => Nsec3IterationsNonzero,
        S::InconsistentAncestorForNxdomain => Nsec3InconsistentAncestor, // unreplicable
        S::IncorrectClosestEncloserProof => Nsec3NoClosestEncloser,
        S::InvalidNsec3Hash => Nsec3HashInvalidLength, // unreplicable
        S::InvalidNsec3OwnerName => Nsec3OwnerNotBase32, // unreplicable
        S::IncorrectOptOutFlag => Nsec3OptOutViolation,
        S::UnsupportedNsec3Algorithm => Nsec3UnsupportedAlgorithm,
        // Not one of the paper's 26 subcategories: the synthetic corpus
        // mirrors the dataset's Table 3 distribution, which predates the
        // validation-budget extension.
        S::ExcessiveValidationWork => ValidationBudgetExceeded,
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [(T, u32)]) -> &'a T {
    let dist = WeightedIndex::new(options.iter().map(|(_, w)| *w)).expect("weights");
    &options[dist.sample(rng)].0
}

/// Samples the error set of one erroneous snapshot. `force_critical`
/// biases toward SERVFAIL-level errors (used for sb-state snapshots).
pub fn sample_error_set(rng: &mut StdRng, force_critical: Option<bool>) -> BTreeSet<ErrorCode> {
    // NZIC-only snapshots make up 56.8% of all erroneous snapshots (S1);
    // conditioned on the snapshot being non-critical (svm), the share is
    // higher still.
    let nzic_only_share = match force_critical {
        Some(false) => 0.78,
        _ => params::NZIC_ONLY_SNAPSHOTS as f64 / params::ERROR_SNAPSHOTS as f64,
    };
    if force_critical != Some(true) && rng.gen_bool(nzic_only_share) {
        return [ErrorCode::Nsec3IterationsNonzero].into_iter().collect();
    }
    let weights = cooccur_weights();
    let dist = WeightedIndex::new(weights.iter().map(|(_, w)| *w)).expect("weights");
    let mut out = BTreeSet::new();
    let mut mode = DenialAffinity::Unknown;
    // NZIC co-occurs with most other errors (215K of 297K erroneous
    // snapshots carry it): bogus zones commonly kept their nonzero
    // iteration count while something else broke.
    if force_critical == Some(true) && rng.gen_bool(0.55) {
        out.insert(ErrorCode::Nsec3IterationsNonzero);
        mode = DenialAffinity::Nsec3;
    }
    let k = out.len() + 1 + rng.gen_range(0..3usize).min(rng.gen_range(0..3)); // +1-3, skewed to 1
    let mut guard = 0;
    while out.len() < k && guard < 64 {
        guard += 1;
        let sub = weights[dist.sample(rng)].0;
        let code = code_for_subcategory(rng, sub, mode);
        match force_critical {
            Some(true)
                if out.iter().all(|c: &ErrorCode| !c.is_critical())
                    && !code.is_critical()
                    && guard < 48 =>
            {
                continue
            }
            Some(false) if code.is_critical() => continue,
            _ => {}
        }
        let code_affinity = affinity_of(code);
        if mode != DenialAffinity::Unknown
            && code_affinity != DenialAffinity::Unknown
            && code_affinity != mode
        {
            continue; // structurally inconsistent with this zone
        }
        if mode == DenialAffinity::Unknown {
            mode = code_affinity;
        }
        out.insert(code);
    }
    if out.is_empty() {
        out.insert(if force_critical == Some(false) {
            ErrorCode::Nsec3IterationsNonzero
        } else {
            ErrorCode::RrsigExpired
        });
    }
    // An sb snapshot must contain at least one SERVFAIL-level error.
    if force_critical == Some(true) && out.iter().all(|c| !c.is_critical()) {
        out.insert(ErrorCode::RrsigExpired);
    }
    out
}

/// Builds the zone meta consistent with an error set (NSEC3 when the
/// errors demand it), with a small injected inconsistency rate modeling the
/// replication failures of §5.5.1.
pub fn sample_meta(rng: &mut StdRng, errors: &BTreeSet<ErrorCode>) -> ZoneMeta {
    let needs_nsec3 = errors.iter().any(|c| {
        matches!(
            c,
            ErrorCode::Nsec3ProofMissing
                | ErrorCode::Nsec3BitmapAssertsType
                | ErrorCode::Nsec3CoverageBroken
                | ErrorCode::Nsec3MissingWildcardProof
                | ErrorCode::Nsec3ParamMismatch
                | ErrorCode::Nsec3IterationsNonzero
                | ErrorCode::Nsec3OptOutViolation
                | ErrorCode::Nsec3UnsupportedAlgorithm
                | ErrorCode::Nsec3NoClosestEncloser
                | ErrorCode::Nsec3InconsistentAncestor
                | ErrorCode::Nsec3HashInvalidLength
                | ErrorCode::Nsec3OwnerNotBase32
        )
    });
    let needs_nsec = errors.iter().any(|c| {
        matches!(
            c,
            ErrorCode::NsecProofMissing
                | ErrorCode::NsecBitmapAssertsType
                | ErrorCode::NsecCoverageBroken
                | ErrorCode::NsecMissingWildcardProof
                | ErrorCode::LastNsecNotApex
        )
    });
    // Meta inconsistency: the observed parameters sometimes contradict the
    // denial mechanism the errors imply (stale scans, mid-rollover zones) —
    // one of the reasons real replication attempts fail.
    let mismatch = rng.gen_bool(0.10);
    let use_nsec3 = if mismatch {
        !(needs_nsec3 || (!needs_nsec && rng.gen_bool(params::NSEC3_META_SHARE)))
    } else if needs_nsec3 {
        true
    } else if needs_nsec {
        false
    } else {
        rng.gen_bool(params::NSEC3_META_SHARE)
    };

    let algorithm = if rng.gen_bool(params::DEPRECATED_ALGO_SHARE) {
        if rng.gen_bool(0.5) {
            6
        } else {
            3
        }
    } else {
        *pick(rng, &[(13u8, 50), (8, 35), (10, 5), (15, 8), (14, 2)])
    };
    let bits = match algorithm {
        8 | 10 => *pick(rng, &[(2048u16, 70), (1024, 25), (4096, 5)]),
        13 => 256,
        14 => 384,
        15 => 256,
        _ => 1024,
    };
    let mut keys = vec![
        KeySpec {
            role: ddx_dnssec::KeyRole::Ksk,
            algorithm,
            bits,
        },
        KeySpec {
            role: ddx_dnssec::KeyRole::Zsk,
            algorithm,
            bits,
        },
    ];
    // A few zones exhaust all substitutable algorithms (paper §5.5.1).
    if rng.gen_bool(params::ALGO_EXHAUSTED_SHARE) {
        keys = vec![
            KeySpec {
                role: ddx_dnssec::KeyRole::Ksk,
                algorithm: 8,
                bits: 2048,
            },
            KeySpec {
                role: ddx_dnssec::KeyRole::Ksk,
                algorithm: 13,
                bits: 256,
            },
            KeySpec {
                role: ddx_dnssec::KeyRole::Zsk,
                algorithm: 3,
                bits: 1024,
            },
        ];
    }
    ZoneMeta {
        keys,
        ds_digest_types: vec![*pick(rng, &[(2u8, 85), (1, 10), (4, 5)])],
        nsec3: use_nsec3.then(|| Nsec3Meta {
            iterations: if errors.contains(&ErrorCode::Nsec3IterationsNonzero) {
                *pick(rng, &[(1u16, 20), (5, 25), (10, 30), (16, 15), (150, 10)])
            } else {
                0
            },
            salt_len: *pick(rng, &[(0u8, 60), (4, 20), (8, 20)]),
            opt_out: rng.gen_bool(0.08),
        }),
    }
}

// ------------------------------------------------------- trajectory model

const STATES: [SnapshotStatus; 4] = [
    SnapshotStatus::Sv,
    SnapshotStatus::Svm,
    SnapshotStatus::Sb,
    SnapshotStatus::Is,
];

fn state_index(s: SnapshotStatus) -> Option<usize> {
    STATES.iter().position(|&x| x == s)
}

/// Log-normal sample with the given median (hours).
fn lognormal_hours(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    let z: f64 = {
        // Box-Muller.
        let u1: f64 = rng.gen_range(1e-9..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    (median.max(0.05)) * (sigma * z).exp()
}

struct DomainState {
    ns_set: u16,
    key_set: u16,
    algorithms: Vec<u8>,
}

/// The generator.
pub fn generate(cfg: &CorpusConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let scale = cfg.scale;
    let mut domains = Vec::new();
    let mut next_id = 0u64;

    let scaled = |v: u64| ((v as f64 * scale).round() as u64).max(1);

    // --- Root & TLD levels (Table 1 only) ---
    domains.push(DomainRecord {
        id: next_id,
        level: Level::Root,
        snapshots: (0..scaled(params::table1::ROOT_SNAPSHOTS))
            .map(|i| healthy_snapshot(i as f64 * 6.0))
            .collect(),
    });
    next_id += 1;
    let tld_domains = scaled(params::table1::TLD_DOMAINS);
    let tld_multi = scaled(params::table1::TLD_MULTI);
    let tld_snapshots = scaled(params::table1::TLD_SNAPSHOTS);
    let per_multi = ((tld_snapshots - (tld_domains - tld_multi)) / tld_multi.max(1)).max(2);
    for i in 0..tld_domains {
        let n = if i < tld_multi { per_multi } else { 1 };
        let base = rng.gen_range(0.0..params::WINDOW_HOURS * 0.5);
        domains.push(DomainRecord {
            id: next_id,
            level: Level::Tld,
            snapshots: (0..n)
                .map(|k| healthy_snapshot(base + k as f64 * 24.0))
                .collect(),
        });
        next_id += 1;
    }

    // --- SLD+ level: the analysis population ---
    let n_domains = scaled(params::table1::SLD_DOMAINS);
    let n_multi = scaled(params::table1::SLD_MULTI);
    let n_cd = scaled(params::table1::SLD_CD);
    let n_sd = n_multi.saturating_sub(n_cd);
    let n_single = n_domains.saturating_sub(n_multi);

    // Singles: one snapshot, status mix tuned to the corpus-wide error
    // share (Table 3 bottom row: 39.7% of snapshots carry an error).
    for _ in 0..n_single {
        let t = rng.gen_range(0.0..params::WINDOW_HOURS);
        let snapshot = single_snapshot(&mut rng, t);
        domains.push(DomainRecord {
            id: next_id,
            level: Level::SldPlus,
            snapshots: vec![snapshot],
        });
        next_id += 1;
    }

    // Stable multi-snapshot domains.
    for _ in 0..n_sd {
        let snaps = sd_trajectory(&mut rng);
        domains.push(DomainRecord {
            id: next_id,
            level: Level::SldPlus,
            snapshots: snaps,
        });
        next_id += 1;
    }

    // Changing domains: Markov trajectories over Table 4.
    for _ in 0..n_cd {
        let snaps = cd_trajectory(&mut rng);
        domains.push(DomainRecord {
            id: next_id,
            level: Level::SldPlus,
            snapshots: snaps,
        });
        next_id += 1;
    }

    Corpus {
        domains,
        scale,
        seed: cfg.seed,
    }
}

fn default_meta() -> ZoneMeta {
    ZoneMeta::default()
}

fn healthy_snapshot(t: f64) -> Snapshot {
    Snapshot {
        t_hours: t,
        status: SnapshotStatus::Sv,
        errors: BTreeSet::new(),
        ns_set: 0,
        key_set: 0,
        algorithms: vec![13],
        meta: default_meta(),
        parent_broken: false,
    }
}

/// Status mix for one-shot domains: calibrated so the corpus-wide share of
/// erroneous snapshots approaches Table 3's 39.7%.
fn single_snapshot(rng: &mut StdRng, t: f64) -> Snapshot {
    // Singles mix: calibrated so erroneous singles ≈ 24.6% (Table 5's
    // multi-domain universe accounts for the rest of the 81,805 erroneous
    // domains).
    let status = *pick(
        rng,
        &[
            (SnapshotStatus::Sv, 510u32),
            (SnapshotStatus::Svm, 190),
            (SnapshotStatus::Sb, 80),
            (SnapshotStatus::Is, 170),
            (SnapshotStatus::Lm, 25),
            (SnapshotStatus::Ic, 5),
        ],
    );
    make_snapshot(
        rng,
        t,
        status,
        &mut DomainState {
            ns_set: 0,
            key_set: 0,
            algorithms: vec![13],
        },
    )
}

fn make_snapshot(
    rng: &mut StdRng,
    t: f64,
    status: SnapshotStatus,
    st: &mut DomainState,
) -> Snapshot {
    let errors = match status {
        SnapshotStatus::Sb => sample_error_set(rng, Some(true)),
        SnapshotStatus::Svm => sample_error_set(rng, Some(false)),
        _ => BTreeSet::new(),
    };
    let meta = if errors.is_empty() {
        default_meta()
    } else {
        sample_meta(rng, &errors)
    };
    // The algorithm set tracks the domain's trajectory state (Table 2
    // attribution compares consecutive snapshots); the replication meta may
    // differ — it reflects what a scan recorded, not the rollover history.
    let algorithms = st.algorithms.clone();
    // The paper found ~5 in 100K erroneous snapshots whose parent zone was
    // itself bogus (§5.4) — the only DFixer failures.
    let parent_broken = !errors.is_empty() && rng.gen_bool(0.00005);
    Snapshot {
        t_hours: t,
        status,
        errors,
        ns_set: st.ns_set,
        key_set: st.key_set,
        algorithms,
        meta,
        parent_broken,
    }
}

/// Stable-domain trajectories: identical category (and errors) throughout.
fn sd_trajectory(rng: &mut StdRng) -> Vec<Snapshot> {
    // Stable-domain status mix: calibrated jointly with the CD dynamics so
    // the Table 5 never-resolved shares land near the paper's 18% (sb),
    // 62% (svm), 36.5% (is): stable sb/svm/is domains are, by definition,
    // never resolved.
    let status = *pick(
        rng,
        &[
            (SnapshotStatus::Sv, 736u32),
            (SnapshotStatus::Svm, 34),
            (SnapshotStatus::Sb, 20),
            (SnapshotStatus::Is, 25),
            (SnapshotStatus::Lm, 15),
            (SnapshotStatus::Ic, 5),
        ],
    );
    // Broken-but-tolerated zones (svm/NZIC) accumulate the longest scan
    // histories; hard-broken zones get fixed or abandoned sooner.
    let mean = match status {
        SnapshotStatus::Svm => 34.0,
        SnapshotStatus::Sb => 8.0,
        _ => 4.3,
    };
    let n = sample_snapshot_count(rng, mean);
    let mut st = DomainState {
        ns_set: 0,
        key_set: 0,
        algorithms: vec![13],
    };
    let mut t = rng.gen_range(0.0..params::WINDOW_HOURS * 0.6);
    let first = make_snapshot(rng, t, status, &mut st);
    let mut snaps = vec![first.clone()];
    for _ in 1..n {
        t += lognormal_hours(rng, 20.0, 1.5);
        let mut s = first.clone();
        s.t_hours = t;
        snaps.push(s);
    }
    snaps
}

/// Number of snapshots for a multi-snapshot domain: 2 + geometric with the
/// given mean. Broken domains are re-scanned far more often than healthy
/// ones (the dataset's user-initiated self-selection, §3.1): erroneous
/// trajectories run long, healthy ones short, jointly matching Table 1's
/// 747K snapshots and Table 3's 296K erroneous snapshots.
fn sample_snapshot_count(rng: &mut StdRng, mean: f64) -> usize {
    let extra = (mean - 2.0).max(0.5);
    let cont = extra / (extra + 1.0);
    let mut n = 2;
    while n < 80 && rng.gen_bool(cont) {
        n += 1;
    }
    n
}

/// Changing-domain trajectories: Markov walk over Table 4's transition
/// counts with transition-specific gap medians; sv→sb / sv→is transitions
/// carry causes (NS update / key rollover / algorithm rollover) expressed
/// as ns/key/algorithm set changes (Table 2).
fn cd_trajectory(rng: &mut StdRng) -> Vec<Snapshot> {
    // First-snapshot state mix from Fig 2's CD population.
    let start = *pick(
        rng,
        &[
            (SnapshotStatus::Sv, 4_633u32),
            (SnapshotStatus::Svm, 2_292),
            (SnapshotStatus::Sb, 10_668),
            (SnapshotStatus::Is, 3_907),
        ],
    );
    let n = sample_snapshot_count(rng, 9.0);
    let mut st = DomainState {
        ns_set: 0,
        key_set: 0,
        algorithms: vec![13],
    };
    let mut t = rng.gen_range(0.0..params::WINDOW_HOURS * 0.6);
    let mut status = start;
    let mut snaps = vec![make_snapshot(rng, t, status, &mut st)];
    for _ in 1..n {
        let from = state_index(status).unwrap_or(0);
        // Stay or move: sticky svm (overlooked non-blocking errors) vs
        // prompt sb reactions (§3.6).
        let stay_prob = match status {
            SnapshotStatus::Svm => 0.62,
            SnapshotStatus::Sb => 0.15,
            SnapshotStatus::Sv => 0.45,
            // Unsigned domains mostly stay unsigned between scans (Fig 2:
            // 62% of is-starting CD domains sign by their last snapshot).
            SnapshotStatus::Is => 0.60,
            _ => 0.35,
        };
        if rng.gen_bool(stay_prob) {
            let gap = match status {
                SnapshotStatus::Svm => lognormal_hours(rng, 400.0, 1.3),
                _ => lognormal_hours(rng, 13.0, 1.2),
            };
            t += gap;
            let mut s = snaps.last().expect("non-empty").clone();
            s.t_hours = t;
            snaps.push(s);
            continue;
        }
        let weights = params::TRANSITION_COUNTS[from];
        let dist = WeightedIndex::new(weights).expect("row weights");
        let to = dist.sample(rng);
        let new_status = STATES[to];
        let mut median = params::TRANSITION_MEDIAN_HOURS[from][to];
        // First-ever DNSSEC deployment takes longer than later state flips
        // (Fig 4's black box: median > 1 day).
        if status == SnapshotStatus::Is && snaps.len() == 1 {
            median = median.max(34.0);
        }
        t += lognormal_hours(rng, median, 1.4);

        // Attribute causes on negative transitions from sv (Table 2).
        if status == SnapshotStatus::Sv
            && matches!(new_status, SnapshotStatus::Sb | SnapshotStatus::Is)
        {
            let (ns_p, key_p, algo_p) = if new_status == SnapshotStatus::Sb {
                (
                    params::table2::SV_SB_NS,
                    params::table2::SV_SB_KEY,
                    params::table2::SV_SB_ALGO,
                )
            } else {
                (
                    params::table2::SV_IS_NS,
                    params::table2::SV_IS_KEY,
                    params::table2::SV_IS_ALGO,
                )
            };
            let roll: f64 = rng.gen();
            if roll < ns_p {
                st.ns_set += 1;
            } else if roll < ns_p + key_p {
                st.key_set += 1;
            } else if roll < ns_p + key_p + algo_p {
                st.key_set += 1;
                st.algorithms = vec![if st.algorithms == vec![13] { 8 } else { 13 }];
            }
        }
        status = new_status;
        snaps.push(make_snapshot(rng, t, status, &mut st));
    }
    // Ending calibration against Fig 2 / Table 5:
    let last_status = snaps.last().map(|s| s.status);
    let append =
        |rng: &mut StdRng, st: &mut DomainState, snaps: &mut Vec<Snapshot>, status, median| {
            let t =
                snaps.last().map(|s| s.t_hours).unwrap_or(0.0) + lognormal_hours(rng, median, 1.2);
            let snap = make_snapshot(rng, t, status, st);
            snaps.push(snap);
        };
    match last_status {
        // 38% of is-starting CD domains never (re-)enable DNSSEC (§3.4
        // "Switching to Insecure"): operators try signing and give up.
        Some(s) if start == SnapshotStatus::Is && s != SnapshotStatus::Is && rng.gen_bool(0.30) => {
            append(rng, &mut st, &mut snaps, SnapshotStatus::Is, 48.0);
        }
        // Admins react promptly to breakage (Table 4: sb→sv median 0.7h);
        // only 18% of sb-touching domains stay broken (Table 5).
        Some(SnapshotStatus::Sb) if rng.gen_bool(0.60) => {
            let to = if rng.gen_bool(0.5) {
                SnapshotStatus::Sv
            } else {
                SnapshotStatus::Svm
            };
            append(rng, &mut st, &mut snaps, to, 0.7);
        }
        // A share of is-ending transit domains eventually signs (Table 5:
        // 63.5% of is-touching domains re-enable DNSSEC).
        Some(SnapshotStatus::Is) if start != SnapshotStatus::Is && rng.gen_bool(0.35) => {
            append(rng, &mut st, &mut snaps, SnapshotStatus::Sv, 72.0);
        }
        // NZIC-style misconfigurations linger or return (61.9% of
        // svm-touching domains end svm).
        Some(SnapshotStatus::Sv)
            if snaps.iter().any(|s| s.status == SnapshotStatus::Svm) && rng.gen_bool(0.35) =>
        {
            append(rng, &mut st, &mut snaps, SnapshotStatus::Svm, 400.0);
        }
        _ => {}
    }
    snaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        generate(&CorpusConfig {
            scale: 0.01,
            seed: 42,
        })
    }

    fn sld_snapshots(c: &Corpus) -> usize {
        c.sld_domains().map(|d| d.snapshots.len()).sum()
    }

    #[test]
    fn deterministic() {
        let a = generate(&CorpusConfig {
            scale: 0.005,
            seed: 7,
        });
        let b = generate(&CorpusConfig {
            scale: 0.005,
            seed: 7,
        });
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(sld_snapshots(&a), sld_snapshots(&b));
    }

    #[test]
    fn scale_matches_table1_shape() {
        let c = small();
        let sld_domains = c.sld_domains().count() as f64;
        assert!(
            (sld_domains - 3_192.0).abs() / 3_192.0 < 0.02,
            "{sld_domains}"
        );
        let sld_snaps = sld_snapshots(&c) as f64;
        // 747,455 × 0.01 ≈ 7,475 within 25% (trajectory-length variance).
        assert!(
            (sld_snaps - 7_474.0).abs() / 7_474.0 < 0.25,
            "snapshots {sld_snaps}"
        );
        let multi = c.sld_domains().filter(|d| d.snapshots.len() >= 2).count() as f64;
        assert!((multi - 850.0).abs() / 850.0 < 0.05, "{multi}");
    }

    #[test]
    fn cd_sd_split_plausible() {
        let c = small();
        let cd = c.sld_domains().filter(|d| d.is_cd()).count() as f64;
        let sd = c.sld_domains().filter(|d| d.is_sd()).count() as f64;
        // Paper: 21,734 CD vs 63,228 SD (25.6% / 74.4%).
        let cd_share = cd / (cd + sd);
        assert!((0.15..0.40).contains(&cd_share), "cd share {cd_share}");
    }

    #[test]
    fn error_share_near_paper() {
        let c = small();
        let total = sld_snapshots(&c) as f64;
        let erroneous = c.erroneous_snapshots().count() as f64;
        let share = erroneous / total;
        // Paper: 39.7%.
        assert!((0.28..0.52).contains(&share), "error share {share}");
    }

    #[test]
    fn nzic_dominates_errors() {
        let c = small();
        let mut nzic = 0usize;
        let mut any = 0usize;
        for s in c.erroneous_snapshots() {
            any += 1;
            if s.errors.contains(&ErrorCode::Nsec3IterationsNonzero) {
                nzic += 1;
            }
        }
        let share = nzic as f64 / any as f64;
        // Paper: 215,036 / 296,813 ≈ 72%.
        assert!((0.5..0.9).contains(&share), "nzic share {share}");
    }

    #[test]
    fn s1_share_matches() {
        let c = small();
        let total = c.erroneous_snapshots().count() as f64;
        let s1 = c.erroneous_snapshots().filter(|s| s.is_nzic_only()).count() as f64;
        // Paper: 168,482 / 296,813 ≈ 56.8%.
        assert!(
            (0.42..0.68).contains(&(s1 / total)),
            "s1 share {}",
            s1 / total
        );
    }

    #[test]
    fn sb_snapshots_have_critical_errors() {
        let c = small();
        for d in c.sld_domains() {
            for s in &d.snapshots {
                match s.status {
                    SnapshotStatus::Sb => {
                        assert!(s.errors.iter().any(|e| e.is_critical()), "{:?}", s.errors)
                    }
                    SnapshotStatus::Svm => {
                        assert!(!s.errors.is_empty());
                        assert!(s.errors.iter().all(|e| !e.is_critical()), "{:?}", s.errors)
                    }
                    _ => assert!(s.errors.is_empty()),
                }
            }
        }
    }

    #[test]
    fn meta_consistency_mostly_holds() {
        let c = small();
        let mut consistent = 0usize;
        let mut total = 0usize;
        for s in c.erroneous_snapshots() {
            if s.errors.contains(&ErrorCode::Nsec3IterationsNonzero) {
                total += 1;
                if s.meta
                    .nsec3
                    .as_ref()
                    .map(|m| m.iterations > 0)
                    .unwrap_or(false)
                {
                    consistent += 1;
                }
            }
        }
        assert!(total > 0);
        let share = consistent as f64 / total as f64;
        assert!(share > 0.8, "consistency {share}");
    }

    #[test]
    fn timestamps_increase() {
        let c = small();
        for d in &c.domains {
            for w in d.snapshots.windows(2) {
                assert!(w[1].t_hours > w[0].t_hours);
            }
        }
    }
}

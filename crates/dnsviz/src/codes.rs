//! The DNSSEC error-code registry: 47 fine-grained codes (mirroring the
//! count in the paper's dataset, §3.5) grouped into the 26 subcategories and
//! 8 parent categories of Table 3. Every code carries a criticality flag
//! (does it break validation → SERVFAIL → `sb`, or is it a violation a
//! resolver may tolerate → `svm`) and a replicability flag (paper §5.5.1:
//! a small set of anomalies cannot be recreated in a local sandbox).

use std::fmt;

use ddx_json::{FromJson, ToJson};

/// Parent categories (Table 3, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub enum Category {
    Delegation,
    Key,
    Algorithm,
    Signature,
    Ttl,
    Nsec3Shared,
    NsecOnly,
    Nsec3Only,
}

impl Category {
    pub fn label(self) -> &'static str {
        match self {
            Category::Delegation => "Delegation",
            Category::Key => "Key",
            Category::Algorithm => "Algorithm",
            Category::Signature => "Signature",
            Category::Ttl => "TTL",
            Category::Nsec3Shared => "NSEC(3)",
            Category::NsecOnly => "NSEC(Only)",
            Category::Nsec3Only => "NSEC3(Only)",
        }
    }

    /// All categories, Table 3 order.
    pub const ALL: [Category; 8] = [
        Category::Delegation,
        Category::Key,
        Category::Algorithm,
        Category::Signature,
        Category::Ttl,
        Category::Nsec3Shared,
        Category::NsecOnly,
        Category::Nsec3Only,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The 26 subcategories of Table 3. The numbered markers ①–⑨ from the paper
/// appear in [`Subcategory::marker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub enum Subcategory {
    // Delegation
    MissingKskForAlgorithm,
    InvalidDigest,
    // Key
    InconsistentDnskey,
    RevokedKey,
    BadKeyLength,
    // Algorithm
    IncompleteAlgorithmSetup,
    // Signature
    MissingSignature,
    ExpiredSignature,
    InvalidSignature,
    IncorrectSigner,
    NotYetValidSignature,
    IncorrectSignatureLabels,
    BadSignatureLength,
    // TTL
    OriginalTtlExceedsRrsetTtl,
    TtlBeyondExpiration,
    // NSEC(3) shared
    MissingNonexistenceProof,
    IncorrectTypeBitmap,
    BadNonexistenceProof,
    // NSEC only
    IncorrectLastNsec,
    // NSEC3 only
    NonzeroIterationCount,
    InconsistentAncestorForNxdomain,
    IncorrectClosestEncloserProof,
    InvalidNsec3Hash,
    InvalidNsec3OwnerName,
    IncorrectOptOutFlag,
    UnsupportedNsec3Algorithm,
    /// Extension (not in Table 3, absent from [`Subcategory::ALL`]):
    /// KeyTrap-class validation-work blowups.
    ExcessiveValidationWork,
}

impl Subcategory {
    /// Table 3 order.
    pub const ALL: [Subcategory; 26] = [
        Subcategory::MissingKskForAlgorithm,
        Subcategory::InvalidDigest,
        Subcategory::InconsistentDnskey,
        Subcategory::RevokedKey,
        Subcategory::BadKeyLength,
        Subcategory::IncompleteAlgorithmSetup,
        Subcategory::MissingSignature,
        Subcategory::ExpiredSignature,
        Subcategory::InvalidSignature,
        Subcategory::IncorrectSigner,
        Subcategory::NotYetValidSignature,
        Subcategory::IncorrectSignatureLabels,
        Subcategory::BadSignatureLength,
        Subcategory::OriginalTtlExceedsRrsetTtl,
        Subcategory::TtlBeyondExpiration,
        Subcategory::MissingNonexistenceProof,
        Subcategory::IncorrectTypeBitmap,
        Subcategory::BadNonexistenceProof,
        Subcategory::IncorrectLastNsec,
        Subcategory::NonzeroIterationCount,
        Subcategory::InconsistentAncestorForNxdomain,
        Subcategory::IncorrectClosestEncloserProof,
        Subcategory::InvalidNsec3Hash,
        Subcategory::InvalidNsec3OwnerName,
        Subcategory::IncorrectOptOutFlag,
        Subcategory::UnsupportedNsec3Algorithm,
    ];

    pub fn category(self) -> Category {
        use Subcategory::*;
        match self {
            MissingKskForAlgorithm | InvalidDigest => Category::Delegation,
            InconsistentDnskey | RevokedKey | BadKeyLength => Category::Key,
            IncompleteAlgorithmSetup => Category::Algorithm,
            MissingSignature
            | ExpiredSignature
            | InvalidSignature
            | IncorrectSigner
            | NotYetValidSignature
            | IncorrectSignatureLabels
            | BadSignatureLength => Category::Signature,
            OriginalTtlExceedsRrsetTtl | TtlBeyondExpiration => Category::Ttl,
            MissingNonexistenceProof | IncorrectTypeBitmap | BadNonexistenceProof => {
                Category::Nsec3Shared
            }
            IncorrectLastNsec => Category::NsecOnly,
            NonzeroIterationCount
            | InconsistentAncestorForNxdomain
            | IncorrectClosestEncloserProof
            | InvalidNsec3Hash
            | InvalidNsec3OwnerName
            | IncorrectOptOutFlag
            | UnsupportedNsec3Algorithm => Category::Nsec3Only,
            // Budget trips are triggered by signature/NSEC3 workloads; the
            // Signature parent keeps DFixer's priority ordering sensible.
            ExcessiveValidationWork => Category::Signature,
        }
    }

    /// Human label matching Table 3.
    pub fn label(self) -> &'static str {
        use Subcategory::*;
        match self {
            MissingKskForAlgorithm => "Missing KSK for Algorithm",
            InvalidDigest => "Invalid Digest",
            InconsistentDnskey => "Inconsistent DNSKEY b/w Servers",
            RevokedKey => "Revoked Key",
            BadKeyLength => "Bad Key Length",
            IncompleteAlgorithmSetup => "Incomplete Algorithm Setup",
            MissingSignature => "Missing Signature",
            ExpiredSignature => "Expired Signature",
            InvalidSignature => "Invalid Signature",
            IncorrectSigner => "Incorrect Signer",
            NotYetValidSignature => "Not Yet Valid Signature",
            IncorrectSignatureLabels => "Incorrect Signature Labels",
            BadSignatureLength => "Bad Signature Length",
            OriginalTtlExceedsRrsetTtl => "Original TTL Exceeds RRSet TTL",
            TtlBeyondExpiration => "TTL Beyond Expiration",
            MissingNonexistenceProof => "Missing Non-existence Proof",
            IncorrectTypeBitmap => "Incorrect Type Bitmap",
            BadNonexistenceProof => "Bad Non-existence Proof",
            IncorrectLastNsec => "Incorrect Last NSEC",
            NonzeroIterationCount => "Nonzero Iteration Count (NZIC)",
            InconsistentAncestorForNxdomain => "Inconsistent Ancestor for NXDOMAIN",
            IncorrectClosestEncloserProof => "Incorrect Closest Encloser Proof",
            InvalidNsec3Hash => "Invalid NSEC3 Hash",
            InvalidNsec3OwnerName => "Invalid NSEC3 Owner Name",
            IncorrectOptOutFlag => "Incorrect Opt-out Flag",
            UnsupportedNsec3Algorithm => "Unsupported NSEC3 Algorithm",
            ExcessiveValidationWork => "Excessive Validation Work",
        }
    }

    /// The ①–⑨ markers from Table 3 / Figure 4 (highlighted subcategories).
    pub fn marker(self) -> Option<u8> {
        use Subcategory::*;
        Some(match self {
            InvalidDigest => 1,
            IncompleteAlgorithmSetup => 2,
            InconsistentDnskey => 3,
            ExpiredSignature => 4,
            MissingKskForAlgorithm => 5,
            InvalidSignature => 6,
            MissingNonexistenceProof => 7,
            OriginalTtlExceedsRrsetTtl => 8,
            NonzeroIterationCount => 9,
            _ => return None,
        })
    }
}

impl fmt::Display for Subcategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The 47 fine-grained error codes the grok engine emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub enum ErrorCode {
    // -- Delegation ------------------------------------------------------
    /// DS references an algorithm with no matching DNSKEY in the child.
    DsMissingKeyForAlgorithm,
    /// DS algorithm present in DNSKEY set, but no SEP-flagged key carries it.
    NoSepForDsAlgorithm,
    /// DS exists but the child publishes no DNSKEY RRset at all.
    DnskeyMissingForDs,
    /// No DS record authenticates any DNSKEY: chain of trust has no entry.
    NoSecureEntryPoint,
    /// DS digest does not match the referenced DNSKEY.
    DsDigestInvalid,
    /// DS algorithm field disagrees with the DNSKEY it tags.
    DsAlgorithmMismatch,
    /// DS uses a digest type the validator cannot process.
    DsUnknownDigestType,
    // -- Key ---------------------------------------------------------------
    /// A DNSKEY present on some authoritative servers is absent from others.
    DnskeyMissingFromServers,
    /// Authoritative servers publish entirely different DNSKEY RRsets.
    DnskeyInconsistentRrset,
    /// A revoked key is still used to authenticate zone data.
    RevokedKeyInUse,
    /// The parent DS references a key carrying the REVOKE flag.
    DsReferencesRevokedKey,
    /// The only SEP key is revoked, leaving no usable secure entry point.
    DnskeyRevokedNoOtherSep,
    /// Key material is shorter than the minimum for its algorithm.
    KeyLengthTooShort,
    /// Key length is not legal for the algorithm at all.
    KeyLengthInvalidForAlgorithm,
    // -- Algorithm ---------------------------------------------------------
    /// DS RRset includes an algorithm with no covering RRSIG in responses.
    DsAlgorithmWithoutRrsig,
    /// DNSKEY RRset includes an algorithm that signs nothing (RFC 6840 §5.11).
    DnskeyAlgorithmWithoutRrsig,
    /// RRSIGs exist for an algorithm with no corresponding DNSKEY.
    RrsigAlgorithmWithoutDnskey,
    // -- Signature ---------------------------------------------------------
    /// An authoritative RRset has no covering RRSIG.
    RrsigMissing,
    /// RRSIGs present on some servers, missing on others.
    RrsigMissingFromServers,
    /// The DNSKEY RRset itself is unsigned.
    RrsigMissingForDnskey,
    /// RRSIG expiration is in the past.
    RrsigExpired,
    /// Cryptographic verification failed.
    RrsigInvalid,
    /// RRSIG RDATA is malformed/self-inconsistent.
    RrsigInvalidRdata,
    /// RRSIG key tag matches no published DNSKEY.
    RrsigUnknownKeyTag,
    /// RRSIG signer name is not the owning zone.
    RrsigSignerMismatch,
    /// RRSIG inception is in the future.
    RrsigNotYetValid,
    /// RRSIG Labels field exceeds the owner-name label count.
    RrsigLabelsExceedOwner,
    /// Signature byte length is wrong for the algorithm.
    RrsigBadLength,
    // -- TTL ---------------------------------------------------------------
    /// RRSIG Original TTL exceeds the RRset TTL served.
    OriginalTtlExceeded,
    /// RRset TTL lets cached copies outlive the signature validity window.
    TtlBeyondSignatureExpiry,
    // -- NSEC(3) shared ------------------------------------------------------
    /// Negative response from a signed zone carried no NSEC proof.
    NsecProofMissing,
    /// Negative response from a signed zone carried no NSEC3 proof.
    Nsec3ProofMissing,
    /// NSEC bitmap asserts a type that the NODATA response denies.
    NsecBitmapAssertsType,
    /// NSEC3 bitmap asserts a type that the NODATA response denies.
    Nsec3BitmapAssertsType,
    /// NSEC records present but fail to cover the denied name.
    NsecCoverageBroken,
    /// NSEC3 records present but fail to cover the denied name.
    Nsec3CoverageBroken,
    /// No NSEC proof that the source-of-synthesis wildcard is absent.
    NsecMissingWildcardProof,
    /// No NSEC3 proof that the source-of-synthesis wildcard is absent.
    Nsec3MissingWildcardProof,
    /// NSEC3PARAM parameters disagree with the served NSEC3 records.
    Nsec3ParamMismatch,
    // -- NSEC only -----------------------------------------------------------
    /// The chain's last NSEC does not wrap back to the apex.
    LastNsecNotApex,
    // -- NSEC3 only ----------------------------------------------------------
    /// NSEC3 iteration count is nonzero (RFC 9276 violation).
    Nsec3IterationsNonzero,
    /// Different servers prove different closest enclosers for one NXDOMAIN.
    Nsec3InconsistentAncestor,
    /// NXDOMAIN proof lacks a closest-encloser match.
    Nsec3NoClosestEncloser,
    /// NSEC3 next-hash field has an impossible length.
    Nsec3HashInvalidLength,
    /// NSEC3 owner label is not valid base32hex of a hash.
    Nsec3OwnerNotBase32,
    /// Opt-out flags are used inconsistently within one chain.
    Nsec3OptOutViolation,
    /// NSEC3 hash algorithm is not SHA-1.
    Nsec3UnsupportedAlgorithm,
    // -- Extensions beyond the paper's Table 3 -------------------------------
    /// The zone demanded more validation work (signature verifications or
    /// NSEC3 hash rounds) than the per-zone budget allows — the signature
    /// of KeyTrap-class algorithmic-complexity attacks. Not one of the
    /// paper's 47 codes, so deliberately absent from [`ErrorCode::ALL`].
    ValidationBudgetExceeded,
}

impl ErrorCode {
    /// All 47 codes.
    pub const ALL: [ErrorCode; 47] = [
        ErrorCode::DsMissingKeyForAlgorithm,
        ErrorCode::NoSepForDsAlgorithm,
        ErrorCode::DnskeyMissingForDs,
        ErrorCode::NoSecureEntryPoint,
        ErrorCode::DsDigestInvalid,
        ErrorCode::DsAlgorithmMismatch,
        ErrorCode::DsUnknownDigestType,
        ErrorCode::DnskeyMissingFromServers,
        ErrorCode::DnskeyInconsistentRrset,
        ErrorCode::RevokedKeyInUse,
        ErrorCode::DsReferencesRevokedKey,
        ErrorCode::DnskeyRevokedNoOtherSep,
        ErrorCode::KeyLengthTooShort,
        ErrorCode::KeyLengthInvalidForAlgorithm,
        ErrorCode::DsAlgorithmWithoutRrsig,
        ErrorCode::DnskeyAlgorithmWithoutRrsig,
        ErrorCode::RrsigAlgorithmWithoutDnskey,
        ErrorCode::RrsigMissing,
        ErrorCode::RrsigMissingFromServers,
        ErrorCode::RrsigMissingForDnskey,
        ErrorCode::RrsigExpired,
        ErrorCode::RrsigInvalid,
        ErrorCode::RrsigInvalidRdata,
        ErrorCode::RrsigUnknownKeyTag,
        ErrorCode::RrsigSignerMismatch,
        ErrorCode::RrsigNotYetValid,
        ErrorCode::RrsigLabelsExceedOwner,
        ErrorCode::RrsigBadLength,
        ErrorCode::OriginalTtlExceeded,
        ErrorCode::TtlBeyondSignatureExpiry,
        ErrorCode::NsecProofMissing,
        ErrorCode::Nsec3ProofMissing,
        ErrorCode::NsecBitmapAssertsType,
        ErrorCode::Nsec3BitmapAssertsType,
        ErrorCode::NsecCoverageBroken,
        ErrorCode::Nsec3CoverageBroken,
        ErrorCode::NsecMissingWildcardProof,
        ErrorCode::Nsec3MissingWildcardProof,
        ErrorCode::Nsec3ParamMismatch,
        ErrorCode::LastNsecNotApex,
        ErrorCode::Nsec3IterationsNonzero,
        ErrorCode::Nsec3InconsistentAncestor,
        ErrorCode::Nsec3NoClosestEncloser,
        ErrorCode::Nsec3HashInvalidLength,
        ErrorCode::Nsec3OwnerNotBase32,
        ErrorCode::Nsec3OptOutViolation,
        ErrorCode::Nsec3UnsupportedAlgorithm,
    ];

    pub fn subcategory(self) -> Subcategory {
        use ErrorCode::*;
        match self {
            DsMissingKeyForAlgorithm
            | NoSepForDsAlgorithm
            | DnskeyMissingForDs
            | NoSecureEntryPoint => Subcategory::MissingKskForAlgorithm,
            DsDigestInvalid | DsAlgorithmMismatch | DsUnknownDigestType => {
                Subcategory::InvalidDigest
            }
            DnskeyMissingFromServers | DnskeyInconsistentRrset => Subcategory::InconsistentDnskey,
            RevokedKeyInUse | DsReferencesRevokedKey | DnskeyRevokedNoOtherSep => {
                Subcategory::RevokedKey
            }
            KeyLengthTooShort | KeyLengthInvalidForAlgorithm => Subcategory::BadKeyLength,
            DsAlgorithmWithoutRrsig | DnskeyAlgorithmWithoutRrsig | RrsigAlgorithmWithoutDnskey => {
                Subcategory::IncompleteAlgorithmSetup
            }
            RrsigMissing | RrsigMissingFromServers | RrsigMissingForDnskey => {
                Subcategory::MissingSignature
            }
            RrsigExpired => Subcategory::ExpiredSignature,
            RrsigInvalid | RrsigInvalidRdata | RrsigUnknownKeyTag => Subcategory::InvalidSignature,
            RrsigSignerMismatch => Subcategory::IncorrectSigner,
            RrsigNotYetValid => Subcategory::NotYetValidSignature,
            RrsigLabelsExceedOwner => Subcategory::IncorrectSignatureLabels,
            RrsigBadLength => Subcategory::BadSignatureLength,
            OriginalTtlExceeded => Subcategory::OriginalTtlExceedsRrsetTtl,
            TtlBeyondSignatureExpiry => Subcategory::TtlBeyondExpiration,
            NsecProofMissing | Nsec3ProofMissing => Subcategory::MissingNonexistenceProof,
            NsecBitmapAssertsType | Nsec3BitmapAssertsType => Subcategory::IncorrectTypeBitmap,
            NsecCoverageBroken
            | Nsec3CoverageBroken
            | NsecMissingWildcardProof
            | Nsec3MissingWildcardProof
            | Nsec3ParamMismatch => Subcategory::BadNonexistenceProof,
            LastNsecNotApex => Subcategory::IncorrectLastNsec,
            Nsec3IterationsNonzero => Subcategory::NonzeroIterationCount,
            Nsec3InconsistentAncestor => Subcategory::InconsistentAncestorForNxdomain,
            Nsec3NoClosestEncloser => Subcategory::IncorrectClosestEncloserProof,
            Nsec3HashInvalidLength => Subcategory::InvalidNsec3Hash,
            Nsec3OwnerNotBase32 => Subcategory::InvalidNsec3OwnerName,
            Nsec3OptOutViolation => Subcategory::IncorrectOptOutFlag,
            Nsec3UnsupportedAlgorithm => Subcategory::UnsupportedNsec3Algorithm,
            ValidationBudgetExceeded => Subcategory::ExcessiveValidationWork,
        }
    }

    pub fn category(self) -> Category {
        self.subcategory().category()
    }

    /// True when the error breaks validation outright (a validating resolver
    /// answers SERVFAIL → snapshot class `sb`). Non-critical codes are
    /// RFC violations most resolvers tolerate → `svm`.
    pub fn is_critical(self) -> bool {
        use ErrorCode::*;
        match self {
            // Chain-of-trust breakers.
            DsMissingKeyForAlgorithm
            | DnskeyMissingForDs
            | NoSecureEntryPoint
            | DsDigestInvalid
            | DsAlgorithmMismatch
            | DnskeyRevokedNoOtherSep => true,
            // Signature breakers.
            RrsigMissing
            | RrsigMissingForDnskey
            | RrsigExpired
            | RrsigInvalid
            | RrsigSignerMismatch
            | RrsigNotYetValid
            | RrsigBadLength
            | RrsigUnknownKeyTag
            | RrsigInvalidRdata
            | RevokedKeyInUse => true,
            // A zone that exhausts its validation budget is indistinguishable
            // from bogus: analysis was cut short, so validation cannot
            // succeed — and a defended resolver SERVFAILs it too.
            ValidationBudgetExceeded => true,
            // Denial breakers: a validator cannot prove the negative.
            NsecProofMissing
            | Nsec3ProofMissing
            | NsecCoverageBroken
            | Nsec3CoverageBroken
            | Nsec3NoClosestEncloser
            | Nsec3UnsupportedAlgorithm => true,
            // Key inconsistency causes intermittent SERVFAIL, counted sb.
            DnskeyInconsistentRrset => true,
            // Everything else is tolerated (implementation-dependent).
            NoSepForDsAlgorithm
            | DsUnknownDigestType
            | DnskeyMissingFromServers
            | DsReferencesRevokedKey
            | KeyLengthTooShort
            | KeyLengthInvalidForAlgorithm
            | DsAlgorithmWithoutRrsig
            | DnskeyAlgorithmWithoutRrsig
            | RrsigAlgorithmWithoutDnskey
            | RrsigMissingFromServers
            | RrsigLabelsExceedOwner
            | OriginalTtlExceeded
            | TtlBeyondSignatureExpiry
            | NsecBitmapAssertsType
            | Nsec3BitmapAssertsType
            | NsecMissingWildcardProof
            | Nsec3MissingWildcardProof
            | Nsec3ParamMismatch
            | LastNsecNotApex
            | Nsec3IterationsNonzero
            | Nsec3InconsistentAncestor
            | Nsec3HashInvalidLength
            | Nsec3OwnerNotBase32
            | Nsec3OptOutViolation => false,
        }
    }

    /// False for the anomalies ZReplicator cannot recreate locally (paper
    /// §5.5.1: buggy-nameserver artifacts and some negative-proof
    /// anomalies — BIND refuses to load blatantly invalid records).
    pub fn replicable(self) -> bool {
        use ErrorCode::*;
        !matches!(
            self,
            // A DNSKEY with an impossible bit length: the signer refuses it.
            KeyLengthInvalidForAlgorithm
                // Hash/owner corruption only buggy implementations emit.
                | Nsec3HashInvalidLength
                | Nsec3OwnerNotBase32
                // Divergent-ancestor NXDOMAIN needs pathological resolvers.
                | Nsec3InconsistentAncestor
        )
    }

    /// True when the code asserts that something was *absent* from the
    /// observed responses (a missing RRSIG, DNSKEY, or denial proof).
    /// Absence evidence is only trustworthy when every server answered: if
    /// the probe recorded observation gaps for the zone (timeouts,
    /// truncation, unparseable responses), the record may exist and simply
    /// never have been seen. DFixer defers these codes rather than
    /// prescribing a fix from missing data.
    pub fn evidence_is_absence(self) -> bool {
        use ErrorCode::*;
        matches!(
            self,
            RrsigMissing
                | RrsigMissingFromServers
                | RrsigMissingForDnskey
                | DnskeyMissingForDs
                | DnskeyMissingFromServers
                | DnskeyInconsistentRrset
                | NsecProofMissing
                | Nsec3ProofMissing
        )
    }

    /// DNSViz-style identifier string.
    pub fn ident(self) -> String {
        format!("{self:?}")
    }

    /// Human-readable message template (the kind DNSViz shows operators).
    pub fn message(self) -> &'static str {
        use ErrorCode::*;
        match self {
            DsMissingKeyForAlgorithm => {
                "The DS RRset for the zone included an algorithm for which no DNSKEY exists in the zone."
            }
            NoSepForDsAlgorithm => {
                "No SEP-flagged DNSKEY matches the algorithm referenced by the DS RRset."
            }
            DnskeyMissingForDs => "A DS RRset exists in the parent, but the zone returned no DNSKEY RRset.",
            NoSecureEntryPoint => "No DS record successfully authenticates any DNSKEY: there is no secure entry point to the zone.",
            DsDigestInvalid => "The digest in the DS RRset does not match the computed digest of the referenced DNSKEY.",
            DsAlgorithmMismatch => "The algorithm field of a DS record disagrees with the DNSKEY it references.",
            DsUnknownDigestType => "The DS RRset uses a digest type unknown to validators.",
            DnskeyMissingFromServers => "A DNSKEY was returned by some authoritative servers but not others.",
            DnskeyInconsistentRrset => "Authoritative servers return inconsistent DNSKEY RRsets.",
            RevokedKeyInUse => "A DNSKEY with the REVOKE flag set is still being used to authenticate zone data.",
            DsReferencesRevokedKey => "A DS record in the parent references a DNSKEY carrying the REVOKE flag.",
            DnskeyRevokedNoOtherSep => "The zone's only SEP key is revoked; no usable secure entry point remains.",
            KeyLengthTooShort => "The DNSKEY's key length is below the accepted minimum for its algorithm.",
            KeyLengthInvalidForAlgorithm => "The DNSKEY's key length is not valid for its algorithm.",
            DsAlgorithmWithoutRrsig => "The DS RRset included an algorithm, but no RRSIG with that algorithm covering the RRset was returned.",
            DnskeyAlgorithmWithoutRrsig => "The DNSKEY RRset includes an algorithm with which no returned RRset is signed.",
            RrsigAlgorithmWithoutDnskey => "RRSIGs use an algorithm for which the zone publishes no DNSKEY.",
            RrsigMissing => "No RRSIG covering the RRset was returned in the response.",
            RrsigMissingFromServers => "RRSIGs covering the RRset were returned by some servers but not others.",
            RrsigMissingForDnskey => "The DNSKEY RRset is not covered by any RRSIG.",
            RrsigExpired => "The RRSIG's expiration time has passed.",
            RrsigInvalid => "The cryptographic signature of the RRSIG does not verify.",
            RrsigInvalidRdata => "The RRSIG RDATA is malformed or self-inconsistent.",
            RrsigUnknownKeyTag => "The RRSIG's key tag matches no DNSKEY published by the zone.",
            RrsigSignerMismatch => "The RRSIG's signer name is not the zone that owns the RRset.",
            RrsigNotYetValid => "The RRSIG's inception time is in the future.",
            RrsigLabelsExceedOwner => "The RRSIG Labels field exceeds the number of labels in the owner name.",
            RrsigBadLength => "The signature length is not valid for the signing algorithm.",
            OriginalTtlExceeded => "The Original TTL field of the RRSIG exceeds the TTL of the RRset it covers.",
            TtlBeyondSignatureExpiry => "The RRset TTL allows cached data to outlive the signature validity period.",
            NsecProofMissing => "The negative response from the signed zone included no NSEC proof.",
            Nsec3ProofMissing => "The negative response from the signed zone included no NSEC3 proof.",
            NsecBitmapAssertsType => "The NSEC type bitmap asserts the existence of the denied type.",
            Nsec3BitmapAssertsType => "The NSEC3 type bitmap asserts the existence of the denied type.",
            NsecCoverageBroken => "No NSEC RR covers the non-existent name (SNAME).",
            Nsec3CoverageBroken => "No NSEC3 RR covers the hashed non-existent name.",
            NsecMissingWildcardProof => "No NSEC RR proves the absence of a source of synthesis (wildcard).",
            Nsec3MissingWildcardProof => "No NSEC3 RR proves the absence of a source of synthesis (wildcard).",
            Nsec3ParamMismatch => "The NSEC3PARAM record disagrees with the parameters of the served NSEC3 records.",
            LastNsecNotApex => "The last NSEC record in the chain does not point back to the zone apex.",
            Nsec3IterationsNonzero => "The NSEC3 iteration count is greater than zero, contrary to RFC 9276.",
            Nsec3InconsistentAncestor => "Authoritative servers prove inconsistent closest enclosers for the same NXDOMAIN.",
            Nsec3NoClosestEncloser => "No NSEC3 RR matches the closest encloser required for the proof.",
            Nsec3HashInvalidLength => "An NSEC3 record carries a next-hash field of invalid length.",
            Nsec3OwnerNotBase32 => "An NSEC3 owner name is not a valid base32hex-encoded hash.",
            Nsec3OptOutViolation => "Opt-out flags are set inconsistently across the NSEC3 chain.",
            Nsec3UnsupportedAlgorithm => "The NSEC3 records use a hash algorithm validators do not support.",
            ValidationBudgetExceeded => "Validating the zone's responses required more signature/NSEC3 work than the per-zone budget allows; analysis was cut short.",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ident())
    }
}

/// Advisory ("SHOULD"-level) findings. The paper's analysis *excludes*
/// these from the error set (§3.1: only MUST violations and
/// SERVFAIL-capable conditions count); grok still surfaces them the way
/// DNSViz prints warnings, and they never affect the snapshot status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub enum WarningCode {
    /// NSEC3 salt is non-empty (RFC 9276 §3.1 SHOULD).
    Nsec3SaltPresent,
    /// RRSIG validity window is shorter than two days: operationally risky.
    ShortSignatureLifetime,
    /// The DNSKEY RRset carries only one key: no KSK/ZSK separation.
    SingleKeyZone,
    /// DS published with the deprecated SHA-1 digest (RFC 8624 SHOULD NOT).
    Sha1DsDigest,
}

impl WarningCode {
    /// Human-readable message.
    pub fn message(self) -> &'static str {
        match self {
            WarningCode::Nsec3SaltPresent => {
                "The salt value for NSEC3 should be empty to conform with RFC 9276 §3.1."
            }
            WarningCode::ShortSignatureLifetime => {
                "The RRSIG validity window is very short; re-signing lapses will break validation quickly."
            }
            WarningCode::SingleKeyZone => {
                "The zone publishes a single DNSKEY; separating KSK and ZSK eases rollovers."
            }
            WarningCode::Sha1DsDigest => {
                "The DS record uses the SHA-1 digest, which RFC 8624 recommends against."
            }
        }
    }
}

impl fmt::Display for WarningCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn exactly_47_codes() {
        let set: BTreeSet<_> = ErrorCode::ALL.iter().collect();
        assert_eq!(set.len(), 47);
    }

    #[test]
    fn exactly_26_subcategories_all_used() {
        let used: BTreeSet<Subcategory> = ErrorCode::ALL.iter().map(|c| c.subcategory()).collect();
        assert_eq!(used.len(), 26);
        assert_eq!(Subcategory::ALL.len(), 26);
        for s in Subcategory::ALL {
            assert!(used.contains(&s), "subcategory {s} has no codes");
        }
    }

    #[test]
    fn eight_categories_all_used() {
        let used: BTreeSet<Category> = Subcategory::ALL.iter().map(|s| s.category()).collect();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn markers_match_table3() {
        assert_eq!(Subcategory::InvalidDigest.marker(), Some(1));
        assert_eq!(Subcategory::IncompleteAlgorithmSetup.marker(), Some(2));
        assert_eq!(Subcategory::InconsistentDnskey.marker(), Some(3));
        assert_eq!(Subcategory::ExpiredSignature.marker(), Some(4));
        assert_eq!(Subcategory::MissingKskForAlgorithm.marker(), Some(5));
        assert_eq!(Subcategory::InvalidSignature.marker(), Some(6));
        assert_eq!(Subcategory::MissingNonexistenceProof.marker(), Some(7));
        assert_eq!(Subcategory::OriginalTtlExceedsRrsetTtl.marker(), Some(8));
        assert_eq!(Subcategory::NonzeroIterationCount.marker(), Some(9));
        let markers: BTreeSet<u8> = Subcategory::ALL.iter().filter_map(|s| s.marker()).collect();
        assert_eq!(markers.len(), 9);
    }

    #[test]
    fn nzic_is_not_critical_expired_is() {
        assert!(!ErrorCode::Nsec3IterationsNonzero.is_critical());
        assert!(ErrorCode::RrsigExpired.is_critical());
        assert!(ErrorCode::NoSecureEntryPoint.is_critical());
        assert!(!ErrorCode::OriginalTtlExceeded.is_critical());
    }

    #[test]
    fn unreplicable_set_is_small() {
        let unrep: Vec<_> = ErrorCode::ALL.iter().filter(|c| !c.replicable()).collect();
        assert_eq!(unrep.len(), 4);
    }

    #[test]
    fn budget_extension_code_stays_outside_table3() {
        // The KeyTrap-defense code is an extension: the paper's registry
        // counts (47 codes, 26 subcategories) must not move.
        let c = ErrorCode::ValidationBudgetExceeded;
        assert!(!ErrorCode::ALL.contains(&c));
        assert!(!Subcategory::ALL.contains(&c.subcategory()));
        assert_eq!(c.subcategory(), Subcategory::ExcessiveValidationWork);
        assert_eq!(c.category(), Category::Signature);
        assert!(
            c.is_critical(),
            "a budget trip means validation cannot finish"
        );
        assert!(c.replicable(), "the attack corpus replicates it locally");
        assert!(!c.evidence_is_absence());
        assert_eq!(c.subcategory().marker(), None);
        assert!(!c.message().is_empty());
    }

    #[test]
    fn every_code_has_message_and_ident() {
        for c in ErrorCode::ALL {
            assert!(!c.message().is_empty());
            assert!(!c.ident().is_empty());
            // Category consistency.
            assert_eq!(c.subcategory().category(), c.category());
        }
    }
}

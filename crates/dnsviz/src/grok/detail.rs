//! The typed diagnostic payload attached to every
//! [`ErrorInstance`](super::ErrorInstance): instead of free-form strings
//! that downstream consumers (DResolver, the naive baseline, the resolver's
//! NSEC3 policy) re-parse, each family of error codes carries a structured
//! [`ErrorDetail`] variant with the key tags, algorithms, owner names, RR
//! types, TTLs and server identities the fix planner needs.
//!
//! [`Display`](std::fmt::Display) reproduces, byte for byte, the
//! human-readable detail strings grok used to emit, so `render_text()`
//! output and operator-facing logs are unchanged. In JSON an
//! [`ErrorInstance`](super::ErrorInstance) writes its typed detail under
//! `detail`.

use std::collections::BTreeSet;
use std::fmt;

use ddx_json::{FromJson, ToJson};

use ddx_dns::{Name, RrType};
use ddx_dnssec::{Algorithm, DenialKind, VerifyError};
use ddx_server::ServerId;

/// How a DS record fails (or qualifies) its DNSKEY linkage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum DsProblem {
    /// The DS tag matches no published key, but the algorithm is live.
    NoMatchingKey,
    /// The DS references an algorithm with no published DNSKEY at all.
    AlgorithmUnmatched,
    /// The linked key carries the REVOKE bit.
    ReferencesRevoked,
    /// The linked key lacks the Zone Key flag.
    NonZoneKey,
    /// The linked key lacks the SEP flag (advisory-level linkage defect).
    MissingSepFlag,
    /// Tag and algorithm match but the digest does not.
    DigestMismatch,
    /// The DS algorithm field disagrees with the linked DNSKEY's.
    AlgorithmDisagrees,
    /// The DS digest type is unknown to the validator.
    UnsupportedDigest,
}

/// Which validation-work counter tripped a per-zone `ValidationBudget`
/// (defined in `grok::mod`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum BudgetCounter {
    /// Attempted RRSIG verifications.
    SigVerifications,
    /// NSEC3 hash rounds (`1 + iterations` per hashed name).
    Nsec3Hashes,
}

impl fmt::Display for BudgetCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetCounter::SigVerifications => write!(f, "sig_verifications"),
            BudgetCounter::Nsec3Hashes => write!(f, "nsec3_hashes"),
        }
    }
}

/// Which RFC 6840 §5.11 completeness rule an algorithm violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum AlgorithmScope {
    /// A DNSKEY algorithm that signs no RRset.
    Dnskey,
    /// A DS algorithm with no covering RRSIG.
    Ds,
    /// An RRSIG algorithm with no DNSKEY.
    Rrsig,
}

/// Structured specifics of one detected violation. One variant per family
/// of the 47 error codes that carries payload, plus [`ErrorDetail::Note`]
/// as the free-form escape hatch.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson, FromJson)]
pub enum ErrorDetail {
    /// No specifics beyond the error code itself.
    #[default]
    None,
    /// Free-form text: the escape hatch for one-off findings.
    Note(String),

    // ------------------------------------------------------------- keys
    /// A server's DNSKEY RRset diverges from the reference set.
    ServerKeySetDiffers {
        server: ServerId,
        /// False: one set is a subset of the other (presence difference).
        /// True: neither contains the other (disjoint material).
        disjoint: bool,
    },
    /// A revoked SEP key is the only secure entry point left.
    RevokedSoleSep { key_tag: u16 },
    /// A published key's length is unacceptable for its algorithm.
    KeyLength {
        key_tag: u16,
        bits: u16,
        algorithm: u8,
    },

    // ------------------------------------------------------- delegation
    /// A DS record's linkage to the DNSKEY RRset is defective.
    DsLink {
        key_tag: u16,
        algorithm: u8,
        digest_type: u8,
        problem: DsProblem,
    },
    /// The parent serves DS but the child returned no DNSKEY RRset.
    NoDnskeyForDs,
    /// No DS record authenticates any usable DNSKEY.
    NoUsableSecureEntry,

    // ------------------------------------------------------ signatures
    /// An RRset lacks any covering RRSIG (on some or all servers).
    RrsetUnsigned { name: Name, rtype: RrType },
    /// An RRSIG whose key tag/algorithm matches no published DNSKEY.
    SigNoMatchingKey {
        name: Name,
        rtype: RrType,
        key_tag: u16,
        algorithm: u8,
    },
    /// Served TTL above the RRSIG Original TTL field.
    TtlExceedsOriginal {
        name: Name,
        rtype: RrType,
        ttl: u32,
        original_ttl: u32,
    },
    /// Served TTL outlives the signature validity window.
    TtlOutlivesSignature { name: Name, rtype: RrType, ttl: u32 },
    /// Cryptographic or metadata signature-verification failure.
    SignatureFailure {
        name: Name,
        rtype: RrType,
        error: VerifyError,
    },

    // ---------------------------------------------------------- denial
    /// A negative response carried no denial records at all.
    DenialMissing {
        qname: Name,
        qtype: RrType,
        kind: DenialKind,
    },
    /// The denial verifier found no proof records relevant to the query.
    NoProof { nsec3: bool },
    /// Records were present but none covers the name.
    NotCovered { qname: Name, nsec3: bool },
    /// A NODATA proof whose bitmap still asserts the queried type.
    BitmapAssertsType {
        qname: Name,
        rtype: RrType,
        nsec3: bool,
    },
    /// NSEC3 NXDOMAIN proof lacking a closest-encloser match.
    NoClosestEncloser { qname: Name },
    /// No proof that the source-of-synthesis wildcard does not exist.
    WildcardUnproven { qname: Name },
    /// An NSEC3 owner label that is not valid base32hex.
    InvalidNsec3Owner { owner: Name },
    /// An NSEC3 next-hash field of the wrong length.
    Nsec3HashLength { length: usize },
    /// An NSEC3 hash algorithm the validator does not support.
    Nsec3HashAlgorithm { algorithm: u8 },
    /// The wrap-around NSEC does not point back at the apex.
    NsecChainEnd { owner: Name, next: Name },
    /// Nonzero NSEC3 iteration count (NZIC) observed on the chain.
    Nsec3Iterations { iterations: u16 },
    /// Opt-out flag differs across the NSEC3 chain.
    OptOutInconsistent,
    /// NSEC3PARAM disagrees with the served chain.
    Nsec3ParamDisagrees { iterations: u16, salt_len: usize },
    /// Different servers prove different closest enclosers.
    InconsistentAncestors { ancestors: BTreeSet<String> },

    // ------------------------------------------------------ algorithms
    /// An algorithm present in one RRset family but unused by another
    /// (RFC 6840 §5.11 completeness).
    AlgorithmUnused {
        algorithm: u8,
        scope: AlgorithmScope,
    },

    // ---------------------------------------------------------- budgets
    /// The zone's analysis exhausted its validation budget: `counter`
    /// reached `used` units against a cap of `cap` and the remaining work
    /// was skipped (KeyTrap-class complexity defense).
    BudgetExceeded {
        counter: BudgetCounter,
        used: u64,
        cap: u64,
    },

    // --------------------------------------------------- observability
    // The three variants below describe *missing observations*, not
    // observed breakage: they populate `ZoneReport::observation_gaps`, and
    // DFixer refuses to plan around absence-evidence codes while a zone
    // carries any of them.
    /// A server produced no usable answer after every retry (timeouts or
    /// REFUSED/SERVFAIL throughout).
    ServerUnreachable { server: ServerId, attempts: u32 },
    /// Every retry of one query came back truncated (TC bit set).
    ResponseTruncated {
        server: ServerId,
        qname: Name,
        qtype: RrType,
    },
    /// The response bytes never parsed as a DNS message.
    MalformedResponse {
        server: ServerId,
        qname: Name,
        qtype: RrType,
    },
}

impl ErrorDetail {
    /// The key tag this detail implicates, if any. For [`ErrorDetail::Note`]
    /// the legacy `key_tag=N` convention is parsed for compatibility with
    /// pre-refactor reports.
    pub fn key_tag(&self) -> Option<u16> {
        match self {
            ErrorDetail::RevokedSoleSep { key_tag }
            | ErrorDetail::KeyLength { key_tag, .. }
            | ErrorDetail::DsLink { key_tag, .. }
            | ErrorDetail::SigNoMatchingKey { key_tag, .. } => Some(*key_tag),
            ErrorDetail::Note(text) => {
                let idx = text.find("key_tag=")?;
                let rest = &text[idx + "key_tag=".len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse().ok()
            }
            _ => None,
        }
    }

    /// The RRset this detail implicates, if any.
    pub fn rrset(&self) -> Option<(&Name, RrType)> {
        match self {
            ErrorDetail::RrsetUnsigned { name, rtype }
            | ErrorDetail::SigNoMatchingKey { name, rtype, .. }
            | ErrorDetail::TtlExceedsOriginal { name, rtype, .. }
            | ErrorDetail::TtlOutlivesSignature { name, rtype, .. }
            | ErrorDetail::SignatureFailure { name, rtype, .. } => Some((name, *rtype)),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ErrorDetail::*;
        match self {
            None => Ok(()),
            Note(text) => write!(f, "{text}"),
            ServerKeySetDiffers { server, disjoint } => {
                if *disjoint {
                    write!(f, "disjoint DNSKEY material on server {}", server.0)
                } else {
                    write!(f, "DNSKEY set differs by presence on server {}", server.0)
                }
            }
            RevokedSoleSep { key_tag } => write!(
                f,
                "revoked SEP key_tag={key_tag} is the only secure entry point"
            ),
            KeyLength {
                key_tag,
                bits,
                algorithm,
            } => {
                let alg = Algorithm::from_code(*algorithm);
                if alg.map(|a| a.is_rsa()).unwrap_or(false) && *bits < 512 {
                    write!(f, "key_tag={key_tag} has {bits}-bit RSA key")
                } else {
                    write!(f, "key_tag={key_tag} has {bits}-bit key for ")?;
                    match alg {
                        Some(a) => write!(f, "{a}"),
                        Option::None => write!(f, "{algorithm}"),
                    }
                }
            }
            DsLink {
                key_tag,
                algorithm,
                digest_type,
                problem,
            } => match problem {
                DsProblem::NoMatchingKey => {
                    write!(f, "DS key_tag={key_tag} matches no DNSKEY")
                }
                DsProblem::AlgorithmUnmatched => write!(
                    f,
                    "DS references algorithm {algorithm} with no DNSKEY (key_tag={key_tag})"
                ),
                DsProblem::ReferencesRevoked => {
                    write!(f, "DS key_tag={key_tag} references a revoked DNSKEY")
                }
                DsProblem::NonZoneKey => {
                    write!(f, "DS key_tag={key_tag} references a non-zone key")
                }
                DsProblem::MissingSepFlag => {
                    write!(f, "DS key_tag={key_tag} links a key without the SEP flag")
                }
                DsProblem::DigestMismatch => {
                    write!(f, "DS digest mismatch for key_tag={key_tag}")
                }
                DsProblem::AlgorithmDisagrees => write!(
                    f,
                    "DS algorithm {algorithm} disagrees with DNSKEY algorithm for key_tag={key_tag}"
                ),
                DsProblem::UnsupportedDigest => {
                    write!(f, "DS digest type {digest_type} unsupported")
                }
            },
            NoDnskeyForDs => write!(f, "parent serves DS but the zone returned no DNSKEY RRset"),
            NoUsableSecureEntry => write!(f, "no DS record authenticates any usable DNSKEY"),
            RrsetUnsigned { name, rtype } => {
                write!(f, "{} {rtype} lacks covering RRSIG", name.key())
            }
            SigNoMatchingKey {
                name,
                rtype,
                key_tag,
                algorithm,
            } => write!(
                f,
                "{name} {rtype} RRSIG key_tag={key_tag} alg={algorithm} matches no DNSKEY"
            ),
            TtlExceedsOriginal {
                name,
                rtype,
                ttl,
                original_ttl,
            } => write!(
                f,
                "{name} {rtype} TTL {ttl} exceeds RRSIG original TTL {original_ttl}"
            ),
            TtlOutlivesSignature { name, rtype, ttl } => {
                write!(f, "{name} {rtype} TTL {ttl} outlives signature expiration")
            }
            SignatureFailure { name, rtype, error } => {
                write!(f, "{name} {rtype}: {error}")
            }
            DenialMissing { qname, qtype, kind } => {
                write!(f, "no denial records for {qname} {qtype} ({kind:?})")
            }
            NoProof { nsec3 } => {
                write!(f, "no {} proof", if *nsec3 { "NSEC3" } else { "NSEC" })
            }
            NotCovered { qname, nsec3 } => write!(
                f,
                "no {} RR covers {qname}",
                if *nsec3 { "NSEC3" } else { "NSEC" }
            ),
            BitmapAssertsType {
                qname,
                rtype,
                nsec3,
            } => write!(
                f,
                "{} bitmap asserts {rtype} at {qname}",
                if *nsec3 { "NSEC3" } else { "NSEC" }
            ),
            NoClosestEncloser { qname } => {
                write!(f, "no closest-encloser match for {qname}")
            }
            WildcardUnproven { qname } => {
                write!(f, "wildcard absence unproven for {qname}")
            }
            InvalidNsec3Owner { owner } => write!(f, "invalid NSEC3 owner {owner}"),
            Nsec3HashLength { length } => write!(f, "NSEC3 hash length {length}"),
            Nsec3HashAlgorithm { algorithm } => {
                write!(f, "NSEC3 hash algorithm {algorithm}")
            }
            NsecChainEnd { owner, next } => {
                write!(f, "last NSEC at {owner} points to {next}")
            }
            Nsec3Iterations { iterations } => write!(f, "NSEC3 iterations={iterations}"),
            OptOutInconsistent => write!(f, "opt-out flag inconsistent across chain"),
            Nsec3ParamDisagrees {
                iterations,
                salt_len,
            } => write!(
                f,
                "NSEC3PARAM iterations={iterations} salt_len={salt_len} disagrees with chain"
            ),
            InconsistentAncestors { ancestors } => {
                write!(
                    f,
                    "servers prove different closest enclosers: {ancestors:?}"
                )
            }
            ServerUnreachable { server, attempts } => write!(
                f,
                "server {} gave no usable answer after {attempts} attempts",
                server.0
            ),
            ResponseTruncated {
                server,
                qname,
                qtype,
            } => write!(
                f,
                "server {} answer for {qname} {qtype} truncated on every retry",
                server.0
            ),
            MalformedResponse {
                server,
                qname,
                qtype,
            } => write!(
                f,
                "server {} answer for {qname} {qtype} did not parse",
                server.0
            ),
            AlgorithmUnused { algorithm, scope } => match scope {
                AlgorithmScope::Dnskey => {
                    write!(f, "DNSKEY algorithm {algorithm} signs no RRset")
                }
                AlgorithmScope::Ds => {
                    write!(f, "DS algorithm {algorithm} has no covering RRSIG")
                }
                AlgorithmScope::Rrsig => {
                    write!(f, "RRSIG algorithm {algorithm} has no DNSKEY")
                }
            },
            BudgetExceeded { counter, used, cap } => write!(
                f,
                "validation budget exceeded: {counter} used={used} cap={cap}"
            ),
        }
    }
}

#[cfg(test)]
#[path = "detail_tests.rs"]
mod tests;

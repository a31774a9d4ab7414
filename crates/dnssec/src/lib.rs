//! # ddx-dnssec — the DNSSEC substrate
//!
//! Everything cryptographic (or, per DESIGN.md §4, simulation-cryptographic)
//! sits in this crate: the algorithm registry, key material and lifecycles,
//! RRset signing/verification, DS construction and matching, NSEC3 hashing,
//! denial-of-existence chains and proof checking, and a whole-zone signer
//! modeling `dnssec-signzone`.

pub mod algorithm;
pub mod cache;
pub mod cds;
pub mod denial;
pub mod ds;
pub mod keys;
pub mod nsec3;
mod sha;
pub mod sign;
pub mod signer;
pub mod workload;

pub use algorithm::{Algorithm, DigestType, ALL_ALGORITHMS};
pub use cache::SigCache;
pub use cds::{publish_cds, scan_child_cds, withdraw_cds, CdsScanError, CdsScanResult, CDS_TTL};
pub use denial::{
    build_nsec3_chain, build_nsec_chain, empty_non_terminals, verify_nsec3_denial,
    verify_nsec_denial, DenialFailure, DenialKind, DenialMode,
};
pub use ds::{check_ds, compute_digest, make_ds, DsMatch};
pub use keys::{KeyPair, KeyRing, KeyRole};
pub use nsec3::{
    nsec3_hash, nsec3_label, nsec3_memo_clear, nsec3_owner, Nsec3Config, NSEC3_HASH_SHA1,
};
pub use sign::{sign_rrset, sign_rrset_cached, verify_rrset, SignOptions, VerifyError};
pub use signer::{
    remove_sigs_covering, resign_rrset, sign_zone, sign_zone_cached, sigs_covering, SignError,
    SignerConfig, DNSKEY_TTL,
};
pub use workload::{work_snapshot, WorkSnapshot};

//! # ddx-dnssec — the DNSSEC substrate
//!
//! Everything cryptographic (or, per DESIGN.md §4, simulation-cryptographic)
//! sits in this crate: the algorithm registry, key material and lifecycles,
//! RRset signing/verification, DS construction and matching, NSEC3 hashing,
//! denial-of-existence chains and proof checking, and a whole-zone signer
//! modeling `dnssec-signzone`.

mod algorithm;
mod cache;
mod cds;
mod denial;
mod ds;
mod keys;
mod nsec3;
mod sha;
mod sign;
mod signer;
mod workload;

pub use algorithm::{Algorithm, DigestType};
pub use cache::SigCache;
pub use cds::{publish_cds, scan_child_cds};
pub use denial::{
    build_nsec3_chain, build_nsec_chain, empty_non_terminals, nsec_covers, verify_nsec3_denial,
    verify_nsec_denial, DenialFailure, DenialKind, DenialMode, Nsec3View, NsecView,
};
pub use ds::{check_ds, make_ds, DsMatch};
pub use keys::{KeyPair, KeyRing, KeyRole};
pub use nsec3::{hash_covered, nsec3_hash, nsec3_memo_clear, Nsec3Config, NSEC3_HASH_SHA1};
pub use sign::{sign_rrset, verify_rrset, SignOptions, VerifyError};
pub use signer::{
    remove_sigs_covering, resign_rrset, sign_zone, sign_zone_cached, sigs_covering, SignError,
    SignerConfig, DNSKEY_TTL,
};
pub use workload::work_snapshot;

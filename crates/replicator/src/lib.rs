//! # ddx-replicator — ZReplicator
//!
//! Recreates real-world DNSSEC misconfigurations inside a local sandbox
//! (paper §4.5): a base zone `a.com`, a parent `par.a.com`, and the target
//! `inv-chd.par.a.com`, each on two authoritative servers. Zone
//! meta-parameters (key algorithms/sizes/flags, DS digest types, NSEC vs
//! NSEC3 and its parameters) are mirrored from the snapshot; deprecated
//! algorithms are substituted per §5.5.1; and each intended error code is
//! injected by surgical zone tampering.

mod attack;
mod inject;
mod meta;
mod replicate;

pub use attack::{inject_attack, replicate_attack, AttackFamily};
pub use meta::{KeySpec, Nsec3Meta, ZoneMeta};
pub use replicate::{
    anchor_apex, parent_apex, replicate, target_apex, Replication, ReplicationRequest,
};

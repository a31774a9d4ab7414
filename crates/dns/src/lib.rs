//! # ddx-dns — DNS data model and wire codec
//!
//! The foundation substrate for the DNSSEC-debugging workspace: domain names
//! with canonical ordering, typed RDATA for every record the diagnostics
//! reason about, RRsets with canonical signing forms, mutable zones, DNS
//! messages, and a complete RFC 1035 wire codec with name compression and
//! EDNS(0).
//!
//! Nothing in this crate knows about cryptography or servers; those layers
//! live in `ddx-dnssec` and `ddx-server`.

pub mod base32;
mod master;
mod message;
mod name;
mod rdata;
mod rrset;
mod types;
mod view;
pub mod wire;
mod zone;

pub use master::{parse_master, parse_record_line, record_to_line, zone_to_master};
pub use message::{Edns, Flags, Message, Question};
pub use name::{name, Name};
pub use rdata::{
    Dnskey, Ds, Nsec, Nsec3, Nsec3Param, RData, Rrsig, Soa, DNSKEY_FLAG_REVOKE, DNSKEY_FLAG_SEP,
    DNSKEY_FLAG_ZONE, NSEC3_FLAG_OPT_OUT,
};
pub use rrset::{CanonicalScratch, RRset, Record};
pub use types::{Rcode, RrClass, RrType, TypeBitmap};
pub use view::{MessageView, NameRef};
pub use zone::Zone;

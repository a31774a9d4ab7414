//! Resource records and RRsets.

use std::fmt;

use ddx_json::{FromJson, ToJson};

use crate::name::Name;
use crate::rdata::{RData, Rrsig};
use crate::types::{RrClass, RrType};

/// A single resource record.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Record {
    pub name: Name,
    pub class: RrClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for class IN.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Record type, derived from the RDATA.
    pub fn rtype(&self) -> RrType {
        self.rdata.rtype()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} IN {} {}",
            self.name,
            self.ttl,
            self.rtype(),
            self.rdata
        )
    }
}

/// A set of records sharing owner name, class, and type (RFC 2181 §5).
///
/// All members share a single TTL; mixed-TTL inputs are normalized to the
/// minimum on construction, mirroring resolver behaviour (RFC 2181 §5.2).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct RRset {
    pub name: Name,
    pub rtype: RrType,
    pub ttl: u32,
    pub rdatas: Vec<RData>,
}

impl RRset {
    /// Builds an RRset from one or more records of the same name/type.
    ///
    /// Returns `None` on an empty slice or mismatched names/types.
    pub fn from_records(records: &[Record]) -> Option<Self> {
        let first = records.first()?;
        let name = first.name.clone();
        let rtype = first.rtype();
        let mut ttl = first.ttl;
        let mut rdatas = Vec::with_capacity(records.len());
        for r in records {
            if r.name != name || r.rtype() != rtype {
                return None;
            }
            ttl = ttl.min(r.ttl);
            rdatas.push(r.rdata.clone());
        }
        Some(RRset {
            name,
            rtype,
            ttl,
            rdatas,
        })
    }

    /// Single-record RRset.
    pub fn singleton(name: Name, ttl: u32, rdata: RData) -> Self {
        RRset {
            name,
            rtype: rdata.rtype(),
            ttl,
            rdatas: vec![rdata],
        }
    }

    /// Number of RRs in the set.
    pub fn len(&self) -> usize {
        self.rdatas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }

    /// Expands back into individual records.
    pub fn to_records(&self) -> Vec<Record> {
        self.rdatas
            .iter()
            .map(|rd| Record::new(self.name.clone(), self.ttl, rd.clone()))
            .collect()
    }

    /// The canonical byte stream this RRset contributes to a signature:
    /// each RR as `owner | type | class | original_ttl | rdlength | rdata`,
    /// with RRs sorted by canonical RDATA (RFC 4034 §6.3 / §3.1.8.1).
    ///
    /// `original_ttl` comes from the RRSIG being built or checked.
    pub fn canonical_signing_form(&self, original_ttl: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.canonical_signing_form_with(original_ttl, &mut CanonicalScratch::default(), &mut out);
        out
    }

    /// Appends the canonical signing form to `out`, reusing `scratch` so a
    /// bulk signer encoding thousands of RRsets allocates nothing per record
    /// after warm-up (the per-RDATA `Vec` churn of the naive encoder).
    pub(crate) fn canonical_signing_form_with(
        &self,
        original_ttl: u32,
        scratch: &mut CanonicalScratch,
        out: &mut Vec<u8>,
    ) {
        let CanonicalScratch {
            owner,
            arena,
            ranges,
        } = scratch;
        owner.clear();
        self.name.canonical_wire_into(owner);
        // Encode every RDATA once into a shared arena and sort index ranges
        // by the encoded bytes (RFC 4034 §6.3 canonical RR ordering).
        arena.clear();
        ranges.clear();
        for rd in &self.rdatas {
            let start = arena.len() as u32;
            rd.canonical_wire_into(arena);
            ranges.push((start, arena.len() as u32));
        }
        ranges.sort_by(|a, b| {
            arena[a.0 as usize..a.1 as usize].cmp(&arena[b.0 as usize..b.1 as usize])
        });
        for &(start, end) in ranges.iter() {
            let rdata = &arena[start as usize..end as usize];
            out.extend_from_slice(owner);
            out.extend_from_slice(&self.rtype.code().to_be_bytes());
            out.extend_from_slice(&RrClass::In.code().to_be_bytes());
            out.extend_from_slice(&original_ttl.to_be_bytes());
            out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
            out.extend_from_slice(rdata);
        }
    }

    /// Clears `out` and fills it with the full signed message: the RRSIG
    /// RDATA prefix followed by the canonical RRset (RFC 4034 §3.1.8.1),
    /// reusing `scratch`.
    pub fn signing_payload_with(
        &self,
        rrsig: &Rrsig,
        scratch: &mut CanonicalScratch,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        rrsig.signed_prefix_into(out);
        self.canonical_signing_form_with(rrsig.original_ttl, scratch, out);
    }
}

/// Reusable buffers for canonical signing-form encoding. One instance,
/// carried across [`RRset::signing_payload_with`] calls, amortizes every intermediate
/// allocation of the encoder to zero.
#[derive(Debug, Default, Clone)]
pub struct CanonicalScratch {
    owner: Vec<u8>,
    arena: Vec<u8>,
    ranges: Vec<(u32, u32)>,
}

impl fmt::Display for RRset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rd in &self.rdatas {
            writeln!(f, "{} {} IN {} {}", self.name, self.ttl, self.rtype, rd)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use std::net::Ipv4Addr;

    fn a(s: &str, ttl: u32, ip: [u8; 4]) -> Record {
        Record::new(name(s), ttl, RData::A(Ipv4Addr::from(ip)))
    }

    #[test]
    fn from_records_groups_and_normalizes_ttl() {
        let rs = RRset::from_records(&[
            a("w.example.com", 300, [1, 2, 3, 4]),
            a("W.EXAMPLE.com", 60, [1, 2, 3, 5]),
        ])
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.ttl, 60, "mixed TTLs normalize to the minimum");
    }

    #[test]
    fn from_records_rejects_mixed_sets() {
        assert!(RRset::from_records(&[]).is_none());
        let mixed_names = [
            a("a.example.com", 60, [1, 1, 1, 1]),
            a("b.example.com", 60, [1, 1, 1, 2]),
        ];
        assert!(RRset::from_records(&mixed_names).is_none());
        let mixed_types = [
            a("a.example.com", 60, [1, 1, 1, 1]),
            Record::new(name("a.example.com"), 60, RData::Ns(name("ns.example.com"))),
        ];
        assert!(RRset::from_records(&mixed_types).is_none());
    }

    #[test]
    fn canonical_signing_form_sorts_rdata() {
        let rs1 = RRset::from_records(&[
            a("x.example.com", 60, [9, 9, 9, 9]),
            a("x.example.com", 60, [1, 1, 1, 1]),
        ])
        .unwrap();
        let rs2 = RRset::from_records(&[
            a("x.example.com", 60, [1, 1, 1, 1]),
            a("x.example.com", 60, [9, 9, 9, 9]),
        ])
        .unwrap();
        assert_eq!(
            rs1.canonical_signing_form(60),
            rs2.canonical_signing_form(60),
            "signing form is order-insensitive"
        );
    }

    #[test]
    fn canonical_signing_form_uses_original_ttl() {
        let rs = RRset::from_records(&[a("x.example.com", 60, [1, 1, 1, 1])]).unwrap();
        assert_ne!(
            rs.canonical_signing_form(60),
            rs.canonical_signing_form(300)
        );
    }

    #[test]
    fn round_trip_records() {
        let rs = RRset::from_records(&[
            a("x.example.com", 60, [1, 1, 1, 1]),
            a("x.example.com", 60, [2, 2, 2, 2]),
        ])
        .unwrap();
        let recs = rs.to_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(RRset::from_records(&recs).unwrap(), rs);
    }
}

//! DNS messages: header, question, and the three record sections
//! (RFC 1035 §4), plus EDNS(0) with the DO bit (RFC 6891, RFC 4035 §3).

use ddx_json::ToJson;

use crate::name::Name;
use crate::rdata::RData;
use crate::rrset::{RRset, Record};
use crate::types::{Rcode, RrClass, RrType};

/// Header flag bits (RFC 1035 §4.1.1 / RFC 4035 §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, ToJson)]
pub struct Flags {
    /// Query/response.
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authentic data (set by validating resolvers).
    pub ad: bool,
    /// Checking disabled.
    pub cd: bool,
}

/// The question section entry.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Question {
    pub qname: Name,
    pub qtype: RrType,
    pub qclass: RrClass,
}

impl Question {
    pub fn new(qname: Name, qtype: RrType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RrClass::In,
        }
    }
}

/// EDNS(0) pseudo-section state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson)]
pub struct Edns {
    /// Advertised UDP payload size.
    pub udp_size: u16,
    /// DNSSEC OK bit (RFC 4035 §3.2.1): request DNSSEC records.
    pub dnssec_ok: bool,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_size: 4096,
            dnssec_ok: true,
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Message {
    pub id: u16,
    pub flags: Flags,
    pub rcode: Rcode,
    pub question: Option<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
    pub edns: Option<Edns>,
}

impl Message {
    /// Builds a DNSSEC-aware query (DO bit set) for `qname`/`qtype`.
    pub fn query(id: u16, qname: Name, qtype: RrType) -> Self {
        Message {
            id,
            flags: Flags {
                rd: false,
                ..Flags::default()
            },
            rcode: Rcode::NoError,
            question: Some(Question::new(qname, qtype)),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: Some(Edns::default()),
        }
    }

    /// Starts a response to this query, copying id/question/EDNS.
    pub fn response(&self) -> Self {
        Message {
            id: self.id,
            flags: Flags {
                qr: true,
                rd: self.flags.rd,
                ..Flags::default()
            },
            rcode: Rcode::NoError,
            question: self.question.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: self.edns,
        }
    }

    /// True if the query asked for DNSSEC records.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// Groups a record section into RRsets, preserving first-seen order.
    pub fn rrsets_in(records: &[Record]) -> Vec<RRset> {
        let mut out: Vec<RRset> = Vec::new();
        for r in records {
            if let Some(set) = out
                .iter_mut()
                .find(|s| s.name == r.name && s.rtype == r.rtype())
            {
                set.ttl = set.ttl.min(r.ttl);
                set.rdatas.push(r.rdata.clone());
            } else {
                out.push(RRset::singleton(r.name.clone(), r.ttl, r.rdata.clone()));
            }
        }
        out
    }

    /// All answer RRsets.
    pub(crate) fn answer_rrsets(&self) -> Vec<RRset> {
        Self::rrsets_in(&self.answers)
    }

    /// Finds the answer RRset with the given name and type.
    pub fn find_answer(&self, name: &Name, rtype: RrType) -> Option<RRset> {
        self.answer_rrsets()
            .into_iter()
            .find(|s| &s.name == name && s.rtype == rtype)
    }

    /// RRSIG records in a section covering `rtype` at `name`.
    pub fn sigs_covering(records: &[Record], name: &Name, rtype: RrType) -> Vec<Record> {
        records
            .iter()
            .filter(|r| {
                &r.name == name && matches!(&r.rdata, RData::Rrsig(s) if s.type_covered == rtype)
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::rdata::Rrsig;
    use std::net::Ipv4Addr;

    #[test]
    fn query_sets_do_bit() {
        let q = Message::query(7, name("example.com"), RrType::A);
        assert!(q.dnssec_ok());
        assert_eq!(q.question.as_ref().unwrap().qtype, RrType::A);
        assert!(!q.flags.qr);
    }

    #[test]
    fn response_copies_identity() {
        let q = Message::query(99, name("example.com"), RrType::Soa);
        let r = q.response();
        assert_eq!(r.id, 99);
        assert!(r.flags.qr);
        assert_eq!(r.question, q.question);
        assert!(r.dnssec_ok());
    }

    #[test]
    fn rrset_grouping_preserves_order_and_merges() {
        let recs = vec![
            Record::new(name("a.example."), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))),
            Record::new(name("b.example."), 60, RData::A(Ipv4Addr::new(2, 2, 2, 2))),
            Record::new(name("a.example."), 30, RData::A(Ipv4Addr::new(1, 1, 1, 2))),
        ];
        let sets = Message::rrsets_in(&recs);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].name, name("a.example."));
        assert_eq!(sets[0].len(), 2);
        assert_eq!(sets[0].ttl, 30);
    }

    #[test]
    fn sigs_covering_filters_by_type() {
        let sig = |covered: RrType| {
            Record::new(
                name("a.example."),
                60,
                RData::Rrsig(Rrsig {
                    type_covered: covered,
                    algorithm: 8,
                    labels: 2,
                    original_ttl: 60,
                    expiration: 10,
                    inception: 0,
                    key_tag: 1,
                    signer_name: name("example."),
                    signature: vec![],
                }),
            )
        };
        let recs = vec![sig(RrType::A), sig(RrType::Ns)];
        let found = Message::sigs_covering(&recs, &name("a.example."), RrType::A);
        assert_eq!(found.len(), 1);
        let none = Message::sigs_covering(&recs, &name("b.example."), RrType::A);
        assert!(none.is_empty());
    }
}

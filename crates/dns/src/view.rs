//! Zero-copy message views: borrow-from-buffer decoding for the hot paths.
//!
//! [`MessageView::parse`] runs the message walk that [`wire::decode`] runs,
//! validating every record's RDATA instead of building it, so it accepts
//! and rejects the same bytes with the same errors and allocates nothing.
//! The view keeps the header, the question's offset and the EDNS state;
//! names compare straight off the wire through [`NameRef`]. The explicit
//! [`MessageView::to_owned`] bridge runs the building walk over the same
//! bytes and returns what `wire::decode` would have returned.
//!
//! The invariant the module leans on: a `MessageView` (and every view
//! handed out from it) only exists for a buffer that passed the walk, so
//! the lazy accessors can unwrap internally — any panic there is a parser
//! bug, not an input problem.

use crate::message::{Edns, Flags, Message, Question};
use crate::name::{Label, Name, NameLabels, WireName};
use crate::types::{Rcode, RrClass, RrType};
use crate::wire::{self, Head, WireError};

// ------------------------------------------------------------------ NameRef

/// A domain name borrowed from a validated message buffer.
///
/// Walks its labels directly on the wire bytes, following compression
/// pointers as it goes — no decompression, no allocation.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'buf> {
    buf: &'buf [u8],
    off: usize,
}

impl<'buf> NameRef<'buf> {
    /// Callers must guarantee a validated name starts at `off`; everything
    /// downstream unwraps on that basis.
    pub(crate) fn new(buf: &'buf [u8], off: usize) -> Self {
        NameRef { buf, off }
    }

    /// Labels, leftmost first, borrowed from the wire.
    pub fn labels(&self) -> WireLabels<'buf> {
        WireLabels {
            buf: self.buf,
            pos: self.off,
        }
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Materializes an owned [`Name`] (allocates; the only bridge off the
    /// wire).
    pub fn to_name(&self) -> Name {
        let labels = self
            .labels()
            .map(|l| Label::new(l).expect("validated label"))
            .collect();
        Name::from_labels(labels).expect("NameRef points at a validated name")
    }

    /// The name's canonical wire form, built without allocating.
    pub fn to_wire_name(&self) -> WireName {
        WireName::from_labels(self.labels())
    }

    /// True if this name equals `other` or is a descendant of it — what
    /// [`Name::is_subdomain_of`] answers for `self.to_name()`, without
    /// materializing anything.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let (mine, theirs) = (self.label_count(), other.label_count());
        mine >= theirs
            && self
                .labels()
                .skip(mine - theirs)
                .zip(other.labels())
                .all(|(a, b)| a.eq_ignore_ascii_case(b.as_bytes()))
    }
}

impl NameLabels for NameRef<'_> {
    fn label_count(&self) -> usize {
        NameRef::label_count(self)
    }

    /// Walks the wire from the first label: fine for the few labels of a
    /// query name.
    fn label(&self, i: usize) -> &[u8] {
        self.labels().nth(i).expect("label index within the name")
    }
}

/// Iterator over a wire name's labels, chasing compression pointers.
#[derive(Debug, Clone, Copy)]
pub struct WireLabels<'buf> {
    buf: &'buf [u8],
    pos: usize,
}

impl<'buf> Iterator for WireLabels<'buf> {
    type Item = &'buf [u8];

    fn next(&mut self) -> Option<&'buf [u8]> {
        loop {
            let len = self.buf[self.pos] as usize;
            if len & 0xC0 == 0xC0 {
                let b2 = self.buf[self.pos + 1] as usize;
                self.pos = ((len & 0x3F) << 8) | b2;
                continue;
            }
            if len == 0 {
                return None;
            }
            let start = self.pos + 1;
            self.pos = start + len;
            return Some(&self.buf[start..start + len]);
        }
    }
}

// ------------------------------------------------------------ message view

/// A decoded-but-not-materialized DNS message borrowing its wire buffer.
///
/// `parse` fully validates the buffer up front (through the walk
/// [`wire::decode`] runs); accessors afterwards are allocation-free except
/// where documented ([`NameRef::to_name`], [`MessageView::to_owned`]).
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'buf> {
    buf: &'buf [u8],
    head: Head,
}

impl<'buf> MessageView<'buf> {
    /// Validates `buf` and returns a view over it. Accepts exactly the
    /// buffers [`wire::decode`] accepts, and rejects with the same error.
    pub fn parse(buf: &'buf [u8]) -> Result<Self, WireError> {
        let head = wire::decode_obs::count(buf, wire::walk(buf, None))?;
        Ok(MessageView { buf, head })
    }

    /// The validated wire bytes this view borrows.
    pub fn wire(&self) -> &'buf [u8] {
        self.buf
    }

    pub fn id(&self) -> u16 {
        self.head.id
    }

    pub fn flags(&self) -> Flags {
        self.head.flags
    }

    pub fn rcode(&self) -> Rcode {
        self.head.rcode
    }

    pub fn edns(&self) -> Option<Edns> {
        self.head.edns
    }

    /// True if the message carried the EDNS DO bit.
    pub fn dnssec_ok(&self) -> bool {
        self.head.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    pub fn question(&self) -> Option<QuestionView<'buf>> {
        self.head.question.map(|(off, qtype, qclass)| QuestionView {
            qname: NameRef::new(self.buf, off),
            qtype,
            qclass,
        })
    }

    /// Materializes the full owned [`Message`] — what [`wire::decode`]
    /// returns for this buffer — by running the building walk over it. This
    /// is the only full owned bridge; it is counted (`dns.view.to_owned`) so
    /// hot paths can assert they never take it.
    pub fn to_owned(&self) -> Message {
        wire::decode_obs::counters().to_owned.inc();
        wire::decode_inner(self.buf).expect("buffer was validated by MessageView::parse")
    }
}

/// The question section, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'buf> {
    qname: NameRef<'buf>,
    qtype: RrType,
    qclass: RrClass,
}

impl<'buf> QuestionView<'buf> {
    pub fn qname(&self) -> NameRef<'buf> {
        self.qname
    }

    pub fn qtype(&self) -> RrType {
        self.qtype
    }

    pub fn qclass(&self) -> RrClass {
        self.qclass
    }

    /// Materializes an owned [`Question`] (allocates the qname).
    pub fn to_question(self) -> Question {
        Question {
            qname: self.qname.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::rdata::{Nsec, RData, Rrsig, Soa};
    use crate::rrset::Record;
    use crate::types::TypeBitmap;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let q = Message::query(0x1234, name("www.Example.COM"), RrType::A);
        let mut r = q.response();
        r.flags.aa = true;
        r.answers.push(Record::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        ));
        r.answers.push(Record::new(
            name("www.example.com"),
            300,
            RData::Rrsig(Rrsig {
                type_covered: RrType::A,
                algorithm: 13,
                labels: 3,
                original_ttl: 300,
                expiration: 5000,
                inception: 1000,
                key_tag: 4242,
                signer_name: name("example.com"),
                signature: vec![9; 32],
            }),
        ));
        r.authorities.push(Record::new(
            name("example.com"),
            300,
            RData::Nsec(Nsec {
                next_name: name("zzz.example.com"),
                type_bitmap: TypeBitmap::from_types([RrType::Soa, RrType::Ns]),
            }),
        ));
        r.additionals.push(Record::new(
            name("ns1.example.com"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 7,
                refresh: 1,
                retry: 2,
                expire: 3,
                minimum: 4,
            }),
        ));
        r
    }

    #[test]
    fn view_accessors_match_owned_decode() {
        let msg = sample_response();
        let bytes = wire::encode(&msg);
        let owned = wire::decode(&bytes).expect("owned");
        let view = MessageView::parse(&bytes).expect("view");

        assert_eq!(view.id(), owned.id);
        assert_eq!(view.flags(), owned.flags);
        assert_eq!(view.rcode(), owned.rcode);
        assert_eq!(view.edns(), owned.edns);
        assert_eq!(view.dnssec_ok(), owned.dnssec_ok());

        let q = view.question().expect("question");
        let oq = owned.question.as_ref().expect("owned question");
        assert_eq!(q.to_question(), *oq);

        assert_eq!(view.to_owned(), owned);
    }

    #[test]
    fn view_rejects_what_decode_rejects() {
        let bytes = wire::encode(&sample_response());
        for cut in 0..bytes.len() {
            let owned = wire::decode(&bytes[..cut]).expect_err("prefix must fail");
            let viewed = MessageView::parse(&bytes[..cut]).expect_err("prefix must fail");
            assert_eq!(owned, viewed, "divergent error at cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"junk");
        assert_eq!(
            MessageView::parse(&trailing).unwrap_err(),
            WireError::TrailingGarbage
        );
    }

    #[test]
    fn nameref_compares_and_hashes_like_name() {
        let msg = sample_response();
        let bytes = wire::encode(&msg);
        let view = MessageView::parse(&bytes).expect("view");
        let qref = view.question().unwrap().qname();

        for (apex, inside) in [
            ("www.example.com", true),
            ("EXAMPLE.com", true),
            (".", true),
            ("example.org", false),
            ("ww.example.com", false),
            ("a.www.example.com", false),
        ] {
            assert_eq!(qref.is_subdomain_of(&name(apex)), inside, "{apex}");
            assert_eq!(
                qref.to_name().is_subdomain_of(&name(apex)),
                inside,
                "{apex}"
            );
        }
        assert_eq!(qref.label_count(), 3);

        // What the answer memo hashes for a view's qname: its lowercased
        // wire form, the same as the owned name's in any case.
        let key = qref.to_wire_name();
        assert_eq!(key.wire(), WireName::from_name(&qref.to_name()).wire());
        assert_eq!(
            key.wire(),
            WireName::from_name(&name("WwW.eXaMpLe.CoM")).wire(),
            "the key must be case-insensitive"
        );
    }
}

//! Zero-copy message views: borrow-from-buffer decoding for the hot paths.
//!
//! [`MessageView::parse`] makes exactly one validation pass over the wire
//! bytes — the same checks, in the same order, with the same errors as
//! [`wire::decode`] — but allocates nothing and builds nothing. Every
//! accessor afterwards lazily re-walks the validated bytes: names compare
//! and hash straight off the wire through [`NameRef`], records surface as
//! [`RecordView`]s whose RDATA is only materialized on demand, and the
//! explicit [`MessageView::to_owned`] bridge produces a [`Message`]
//! byte-for-byte identical to what `wire::decode` would have returned.
//!
//! The invariant the whole module leans on: a `MessageView` (and every view
//! handed out from it) only exists for a buffer that passed the full
//! validation walk, so the lazy accessors can unwrap internally — any panic
//! there is a parser bug, not an input problem. The
//! `view_owned_equivalence` property suite pins the accept/reject sets of
//! the two paths together.

use std::hash::{Hash, Hasher};

use crate::message::{Edns, Flags, Message, Question};
use crate::name::{Label, Name};
use crate::rdata::RData;
use crate::rrset::Record;
use crate::types::{Rcode, RrClass, RrType};
use crate::wire::{self, Decoder, WireError};

// ------------------------------------------------------------------ NameRef

/// A domain name borrowed from a validated message buffer.
///
/// Compares and hashes case-insensitively directly on the wire bytes,
/// following compression pointers as it walks — no decompression, no
/// allocation. Equality and hashing agree with [`Name`]: `r == n` via
/// [`NameRef::eq_name`] iff `r.to_name() == n`, and `r` hashes identically
/// to `r.to_name()`.
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

    /// True iff this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels().next().is_none()
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

    /// Case-insensitive equality against an owned name, without
    /// materializing anything.
    pub fn eq_name(&self, other: &Name) -> bool {
        let mut theirs = other.labels().iter();
        for mine in self.labels() {
            match theirs.next() {
                Some(l) if mine.eq_ignore_ascii_case(l.as_bytes()) => {}
                _ => return false,
            }
        }
        theirs.next().is_none()
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

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        let mut a = self.labels();
        let mut b = other.labels();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
                _ => return false,
            }
        }
    }
}

impl Eq for NameRef<'_> {}

impl Hash for NameRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must replay `Name::hash` exactly: length prefix, then lowercased
        // bytes, per label.
        for label in self.labels() {
            state.write_usize(label.len());
            for &b in label {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl std::fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Display is not a hot path; reuse the owned formatter.
        write!(f, "{}", self.to_name())
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

#[derive(Debug, Clone, Copy)]
struct SectionSpan {
    /// Byte offset of the section's first record.
    start: usize,
    /// Raw record count from the header (OPT entries included; the iterator
    /// skips them, mirroring how `wire::decode` keeps OPT out of the record
    /// vectors).
    count: u16,
}

/// A decoded-but-not-materialized DNS message borrowing its wire buffer.
///
/// `parse` fully validates the buffer up front (identically to
/// [`wire::decode`]); accessors afterwards are allocation-free except where
/// documented ([`NameRef::to_name`], `RecordView::rdata`,
/// [`MessageView::to_owned`]).
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'buf> {
    buf: &'buf [u8],
    id: u16,
    flags: Flags,
    rcode: Rcode,
    /// Offset of the (last, per RFC-loose qdcount handling) question's
    /// qname, plus its decoded type and class.
    question: Option<(usize, RrType, RrClass)>,
    sections: [SectionSpan; 3],
    edns: Option<Edns>,
}

impl<'buf> MessageView<'buf> {
    /// Validates `buf` and returns a view over it. Accepts exactly the
    /// buffers [`wire::decode`] accepts, and rejects with the same error.
    pub fn parse(buf: &'buf [u8]) -> Result<Self, WireError> {
        let counters = wire::decode_obs::counters();
        match Self::parse_inner(buf) {
            Ok(view) => {
                counters.messages.inc();
                counters.bytes.add(buf.len() as u64);
                Ok(view)
            }
            Err(e) => {
                counters.rejects.inc();
                Err(e)
            }
        }
    }

    /// The validation walk: a skip-only replay of `wire::decode_inner`.
    /// Every check it makes, in the same order — keep the two in lockstep.
    fn parse_inner(buf: &'buf [u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let id = d.u16()?;
        let word = d.u16()?;
        let flags = Flags {
            qr: word & (1 << 15) != 0,
            aa: word & (1 << 10) != 0,
            tc: word & (1 << 9) != 0,
            rd: word & (1 << 8) != 0,
            ra: word & (1 << 7) != 0,
            ad: word & (1 << 5) != 0,
            cd: word & (1 << 4) != 0,
        };
        let rcode = Rcode::from_code((word & 0x0F) as u8);
        let qdcount = d.u16()?;
        let ancount = d.u16()?;
        let nscount = d.u16()?;
        let arcount = d.u16()?;

        let mut question = None;
        for _ in 0..qdcount {
            let qname_off = d.pos;
            d.skip_name()?;
            let qtype = RrType::from_code(d.u16()?);
            let qclass = RrClass::from_code(d.u16()?);
            question = Some((qname_off, qtype, qclass));
        }

        fn scan_section(d: &mut Decoder, n: u16) -> Result<(usize, Option<Edns>), WireError> {
            let start = d.pos;
            let mut edns = None;
            for _ in 0..n {
                d.skip_name()?;
                let rtype = RrType::from_code(d.u16()?);
                let class_code = d.u16()?;
                let ttl = d.u32()?;
                let rd_len = d.u16()? as usize;
                if rtype == RrType::Opt {
                    edns = Some(Edns {
                        udp_size: class_code,
                        dnssec_ok: ttl & 0x0000_8000 != 0,
                    });
                    d.take(rd_len)?;
                    continue;
                }
                wire::check_rdata(rtype, d.buf, d.pos, rd_len)?;
                d.take(rd_len)?;
            }
            Ok((start, edns))
        }

        let (an_start, _) = scan_section(&mut d, ancount)?;
        let (ns_start, _) = scan_section(&mut d, nscount)?;
        let (ar_start, edns) = scan_section(&mut d, arcount)?;
        if d.pos != buf.len() {
            return Err(WireError::TrailingGarbage);
        }

        Ok(MessageView {
            buf,
            id,
            flags,
            rcode,
            question,
            sections: [
                SectionSpan {
                    start: an_start,
                    count: ancount,
                },
                SectionSpan {
                    start: ns_start,
                    count: nscount,
                },
                SectionSpan {
                    start: ar_start,
                    count: arcount,
                },
            ],
            edns,
        })
    }

    /// The validated wire bytes this view borrows.
    pub fn wire(&self) -> &'buf [u8] {
        self.buf
    }

    pub fn id(&self) -> u16 {
        self.id
    }

    pub fn flags(&self) -> Flags {
        self.flags
    }

    pub fn rcode(&self) -> Rcode {
        self.rcode
    }

    pub fn edns(&self) -> Option<Edns> {
        self.edns
    }

    /// True if the message carried the EDNS DO bit.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    pub fn question(&self) -> Option<QuestionView<'buf>> {
        self.question.map(|(off, qtype, qclass)| QuestionView {
            qname: NameRef::new(self.buf, off),
            qtype,
            qclass,
        })
    }

    pub fn answers(&self) -> RecordIter<'buf> {
        self.section_iter(0)
    }

    pub fn authorities(&self) -> RecordIter<'buf> {
        self.section_iter(1)
    }

    pub fn additionals(&self) -> RecordIter<'buf> {
        self.section_iter(2)
    }

    fn section_iter(&self, idx: usize) -> RecordIter<'buf> {
        let span = self.sections[idx];
        RecordIter {
            buf: self.buf,
            pos: span.start,
            remaining: span.count,
        }
    }

    /// Materializes the full owned [`Message`] — byte-for-byte what
    /// [`wire::decode`] returns for this buffer. This is the only full
    /// owned bridge; it is counted (`dns.view.to_owned`) so hot paths can
    /// assert they never take it.
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

    /// Does this wire question match an owned one? (Case-insensitive on the
    /// name, exact on type and class.) Allocation-free.
    pub fn matches(&self, q: &Question) -> bool {
        self.qtype == q.qtype && self.qclass == q.qclass && self.qname.eq_name(&q.qname)
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

/// One resource record, borrowed. Header fields are pre-decoded; RDATA
/// stays on the wire until [`RecordView::rdata`] asks for it.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'buf> {
    buf: &'buf [u8],
    name_off: usize,
    rtype: RrType,
    class: RrClass,
    ttl: u32,
    rd_start: usize,
    rd_len: usize,
}

impl<'buf> RecordView<'buf> {
    pub fn name(&self) -> NameRef<'buf> {
        NameRef::new(self.buf, self.name_off)
    }

    pub fn rtype(&self) -> RrType {
        self.rtype
    }

    pub fn class(&self) -> RrClass {
        self.class
    }

    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Parses the RDATA for this record's type (allocates). Cannot fail:
    /// the window was validated by `MessageView::parse`.
    pub fn rdata(&self) -> RData {
        wire::decode_rdata(self.rtype, self.buf, self.rd_start, self.rd_len)
            .expect("rdata was validated by MessageView::parse")
    }

    /// Materializes an owned [`Record`] — identical to the corresponding
    /// entry `wire::decode` would produce.
    pub fn to_record(self) -> Record {
        Record {
            name: self.name().to_name(),
            class: self.class,
            ttl: self.ttl,
            rdata: self.rdata(),
        }
    }
}

/// Lazily walks a record section, skipping OPT pseudo-records exactly as
/// the owned decoder keeps them out of its record vectors.
#[derive(Debug, Clone)]
pub struct RecordIter<'buf> {
    buf: &'buf [u8],
    pos: usize,
    remaining: u16,
}

impl<'buf> Iterator for RecordIter<'buf> {
    type Item = RecordView<'buf>;

    fn next(&mut self) -> Option<RecordView<'buf>> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let name_off = self.pos;
            let mut d = Decoder {
                buf: self.buf,
                pos: self.pos,
            };
            d.skip_name().expect("record validated at parse");
            let rtype = RrType::from_code(d.u16().expect("validated"));
            let class_code = d.u16().expect("validated");
            let ttl = d.u32().expect("validated");
            let rd_len = d.u16().expect("validated") as usize;
            let rd_start = d.pos;
            self.pos = rd_start + rd_len;
            if rtype == RrType::Opt {
                continue;
            }
            return Some(RecordView {
                buf: self.buf,
                name_off,
                rtype,
                class: RrClass::from_code(class_code),
                ttl,
                rd_start,
                rd_len,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::rdata::{Nsec, Rrsig, Soa};
    use crate::types::TypeBitmap;
    use std::collections::hash_map::DefaultHasher;
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
        assert!(q.matches(oq));
        assert!(q.qname().eq_name(&oq.qname));

        for (iter, section) in [
            (view.answers(), &owned.answers),
            (view.authorities(), &owned.authorities),
            (view.additionals(), &owned.additionals),
        ] {
            let materialized: Vec<Record> = iter.map(|r| r.to_record()).collect();
            assert_eq!(&materialized, section);
        }

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

        // Equality is case-insensitive both against owned names and other refs.
        assert!(qref.eq_name(&name("WWW.EXAMPLE.COM")));
        assert!(qref.eq_name(&name("www.example.com")));
        assert!(!qref.eq_name(&name("example.com")));
        assert!(!qref.eq_name(&name("www.example.org")));
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
        let first_answer = view.answers().next().unwrap();
        assert_eq!(qref, first_answer.name());

        // Hashes must match the owned name's hash exactly.
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let owned = qref.to_name();
        assert_eq!(
            hash_of(&|s| qref.hash(s)),
            hash_of(&|s| owned.hash(s)),
            "NameRef and Name must hash identically"
        );
        assert_eq!(
            hash_of(&|s| qref.hash(s)),
            hash_of(&|s| name("WwW.eXaMpLe.CoM").hash(s)),
            "hash must be case-insensitive"
        );
    }

    #[test]
    fn record_iter_skips_opt_and_preserves_counts() {
        let msg = sample_response();
        let bytes = wire::encode(&msg);
        let view = MessageView::parse(&bytes).expect("view");
        // The OPT lives in additionals on the wire but not in the records.
        assert_eq!(view.answers().count(), 2);
        assert_eq!(view.authorities().count(), 1);
        assert_eq!(view.additionals().count(), 1);
        assert!(view.edns().is_some());
    }

    #[test]
    fn lazy_rdata_matches_owned_rdata() {
        let msg = sample_response();
        let bytes = wire::encode(&msg);
        let owned = wire::decode(&bytes).expect("owned");
        let view = MessageView::parse(&bytes).expect("view");
        for (rv, rec) in view.answers().zip(&owned.answers) {
            assert_eq!(rv.rtype(), rec.rtype());
            assert_eq!(rv.ttl(), rec.ttl);
            assert_eq!(rv.class(), rec.class);
            assert_eq!(rv.rdata(), rec.rdata);
            assert!(rv.name().eq_name(&rec.name));
        }
    }
}

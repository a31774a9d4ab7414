//! RFC 1035 wire-format codec for complete DNS messages: name compression,
//! EDNS(0) OPT handling, and defensive decoding (pointer-loop guards, bounds
//! checks, no allocation sized from a header count). Used by the loopback
//! UDP and TCP transports.
//!
//! Decoding is one walk over the message (`walk`). [`decode`] runs it
//! building every record; [`crate::MessageView::parse`] runs it only
//! validating each record's RDATA, so the two accept and reject the same
//! bytes, with the same errors, by construction.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::message::{Edns, Flags, Message, Question};
use crate::name::{Name, NameLabels};
use crate::rdata::{Dnskey, Ds, Nsec, Nsec3, Nsec3Param, RData, Rrsig, Soa};
use crate::rrset::Record;
use crate::types::{Rcode, RrClass, RrType, TypeBitmap};
use crate::view::NameRef;

/// Maximum number of compression-pointer hops followed while reading one
/// name. Pointers must also go strictly backwards, which already rules out
/// loops; the explicit budget bounds pathological (but acyclic) chains.
pub const MAX_POINTER_CHASES: usize = 64;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran off the end of the buffer.
    Truncated,
    /// A compression pointer loop or forward pointer.
    BadPointer,
    /// A label or name exceeded protocol limits.
    BadName,
    /// RDATA did not parse for its declared type.
    BadRdata(u16),
    /// Bytes remained after the last record promised by the header.
    TrailingGarbage,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadName => write!(f, "malformed name"),
            WireError::BadRdata(t) => write!(f, "malformed rdata for type {t}"),
            WireError::TrailingGarbage => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decode-path counters, shared by [`decode`] and the zero-copy
/// [`crate::view::MessageView`] parser. Cached in a `OnceLock` because the
/// registry lookup in `ddx_obs::counter` is a map probe — too slow to pay
/// per datagram.
pub(crate) mod decode_obs {
    use std::sync::OnceLock;

    pub(crate) struct DecodeCounters {
        /// Successfully decoded messages (owned or view path).
        pub messages: ddx_obs::Counter,
        /// Wire bytes of successfully decoded messages.
        pub bytes: ddx_obs::Counter,
        /// Buffers rejected by the decoder.
        pub rejects: ddx_obs::Counter,
        /// Full owned materializations bridged from a `MessageView`.
        pub to_owned: ddx_obs::Counter,
    }

    pub(crate) fn counters() -> &'static DecodeCounters {
        static CACHE: OnceLock<DecodeCounters> = OnceLock::new();
        CACHE.get_or_init(|| DecodeCounters {
            messages: ddx_obs::counter("dns.decode.messages", &[]),
            bytes: ddx_obs::counter("dns.decode.bytes", &[]),
            rejects: ddx_obs::counter("dns.decode.rejects", &[]),
            to_owned: ddx_obs::counter("dns.view.to_owned", &[]),
        })
    }

    /// Counts one decode of `buf` (owned or view) by its outcome.
    pub(crate) fn count<T, E>(buf: &[u8], outcome: Result<T, E>) -> Result<T, E> {
        let counters = counters();
        if outcome.is_ok() {
            counters.messages.inc();
            counters.bytes.add(buf.len() as u64);
        } else {
            counters.rejects.inc();
        }
        outcome
    }
}

// ---------------------------------------------------------------- encoding

/// Highest message offset a compression pointer can hold (14 bits).
const MAX_POINTER: usize = 0x3FFF;

/// Most labels a name can have: 255 octets of wire form, two per label
/// plus the root.
const MAX_LABELS: usize = 127;

/// Slots an encoder's compression table starts with, inline; a message
/// moves it to the heap only after writing more than half as many
/// distinct name suffixes.
const INLINE_SLOTS: usize = 64;

/// Where each name suffix of a message was first written, so later names
/// can point back at it (RFC 1035 §4.1.4).
trait Compressor {
    /// Writes `name` to `buf`, ending in a pointer at its longest suffix
    /// already recorded, and records every suffix it writes out in full
    /// that starts within pointer range.
    fn name<N: NameLabels + ?Sized>(&mut self, buf: &mut Vec<u8>, name: &N);
}

/// Writes every name in full: for RR tails that are copied into messages
/// later, whose RDATA names are never compressed.
struct Uncompressed;

impl Compressor for Uncompressed {
    fn name<N: NameLabels + ?Sized>(&mut self, buf: &mut Vec<u8>, name: &N) {
        for i in 0..name.label_count() {
            buf.push(name.label(i).len() as u8);
            buf.extend_from_slice(name.label(i));
        }
        buf.push(0);
    }
}

/// A compression-table slot: the hash of a lowercased name suffix and the
/// offset where that suffix was first written. Offset 0 marks an empty
/// slot (no name starts inside the header).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    hash: u32,
    offset: u16,
}

/// The encoder's compression table: open addressing with linear probing,
/// keyed by a hash of each lowercased suffix. A hash only nominates a
/// candidate; [`written_name_eq`] confirms it against the bytes already
/// written, so a collision cannot change the output.
#[derive(Debug)]
struct SuffixTable {
    inline: [Slot; INLINE_SLOTS],
    /// Replaces `inline` (at twice the size, and again on each doubling)
    /// once the live table is more than half full; empty until then.
    spill: Vec<Slot>,
    len: usize,
}

impl Default for SuffixTable {
    fn default() -> Self {
        SuffixTable {
            inline: [Slot::default(); INLINE_SLOTS],
            spill: Vec::new(),
            len: 0,
        }
    }
}

impl SuffixTable {
    fn slots(&self) -> &[Slot] {
        if self.spill.is_empty() {
            &self.inline
        } else {
            &self.spill
        }
    }

    /// The offset the labels of `name` from `from` on (hashing to `hash`)
    /// were first written at, or the empty slot that ends its probe
    /// sequence.
    fn find<N: NameLabels + ?Sized>(
        &self,
        buf: &[u8],
        hash: u32,
        name: &N,
        from: usize,
    ) -> Result<u16, usize> {
        let slots = self.slots();
        let mask = slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = slots[i];
            if slot.offset == 0 {
                return Err(i);
            }
            if slot.hash == hash && written_name_eq(buf, usize::from(slot.offset), name, from) {
                return Ok(slot.offset);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, empty: usize, hash: u32, offset: u16) {
        let slot = Slot { hash, offset };
        if self.spill.is_empty() {
            self.inline[empty] = slot;
        } else {
            self.spill[empty] = slot;
        }
        self.len += 1;
        if self.len * 2 > self.slots().len() {
            let mut bigger = vec![Slot::default(); self.slots().len() * 2];
            let mask = bigger.len() - 1;
            for slot in self.slots().iter().filter(|s| s.offset != 0) {
                let mut i = slot.hash as usize & mask;
                while bigger[i].offset != 0 {
                    i = (i + 1) & mask;
                }
                bigger[i] = *slot;
            }
            self.spill = bigger;
        }
    }
}

impl Compressor for SuffixTable {
    fn name<N: NameLabels + ?Sized>(&mut self, buf: &mut Vec<u8>, name: &N) {
        let count = name.label_count();
        // hashes[i] covers labels i.. of the name: FNV-1a over the
        // length-prefixed, lowercased labels, right to left, so each suffix
        // extends the hash of the one after it.
        let mut hashes = [0u32; MAX_LABELS];
        let mut acc = ddx_obs::FNV_OFFSET;
        for i in (0..count).rev() {
            let label = name.label(i);
            acc = ddx_obs::fnv1a(acc, &[label.len() as u8]);
            for &b in label {
                acc = ddx_obs::fnv1a(acc, &[b.to_ascii_lowercase()]);
            }
            hashes[i] = (acc ^ (acc >> 32)) as u32;
        }
        for (i, &hash) in hashes.iter().enumerate().take(count) {
            match self.find(buf, hash, name, i) {
                Ok(offset) => {
                    buf.extend_from_slice(&(0xC000 | offset).to_be_bytes());
                    return;
                }
                Err(empty) if buf.len() <= MAX_POINTER => {
                    self.insert(empty, hash, buf.len() as u16)
                }
                Err(_) => {}
            }
            let label = name.label(i);
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
        }
        buf.push(0);
    }
}

/// True if the name written at `pos` in `buf` (following compression
/// pointers) is `name` from label `from` on, ignoring ASCII case. Fails
/// closed on anything that is not a complete name: a forward pointer or
/// running off the end.
fn written_name_eq<N: NameLabels + ?Sized>(
    buf: &[u8],
    mut pos: usize,
    name: &N,
    from: usize,
) -> bool {
    let mut labels = (from..name.label_count()).map(|i| name.label(i));
    loop {
        let Some(&len) = buf.get(pos) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            let Some(&low) = buf.get(pos + 1) else {
                return false;
            };
            let target = (usize::from(len & 0x3F) << 8) | usize::from(low);
            if target >= pos {
                return false;
            }
            pos = target;
            continue;
        }
        let Some(label) = labels.next() else {
            return len == 0;
        };
        let end = pos + 1 + usize::from(len);
        match buf.get(pos + 1..end) {
            Some(written) if written.eq_ignore_ascii_case(label) => pos = end,
            _ => return false,
        }
    }
}

/// The record sections of a message, in the order they are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    Answer,
    Authority,
    Additional,
}

/// The one message encoder: a header, then the question, then records in
/// section order, then the OPT record. Counts go into the header at the
/// end, so nothing is known up front.
struct Encoder<'b, C> {
    buf: &'b mut Vec<u8>,
    names: C,
    /// QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT so far.
    counts: [u16; 4],
}

impl<'b, C: Compressor> Encoder<'b, C> {
    /// Starts a message in `buf` (cleared first): the id, and the rest of
    /// the header zeroed until [`Encoder::finish`].
    fn start(buf: &'b mut Vec<u8>, id: u16, names: C) -> Self {
        buf.clear();
        buf.extend_from_slice(&id.to_be_bytes());
        buf.extend_from_slice(&[0; 10]);
        Encoder {
            buf,
            names,
            counts: [0; 4],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Encodes a name with compression.
    fn name<N: NameLabels + ?Sized>(&mut self, name: &N) {
        self.names.name(self.buf, name);
    }

    fn question<N: NameLabels + ?Sized>(&mut self, qname: &N, qtype: RrType, qclass: RrClass) {
        self.name(qname);
        self.u16(qtype.code());
        self.u16(qclass.code());
        self.counts[0] += 1;
    }

    /// Counts one record into `section`, which may not precede the last
    /// section written.
    fn count(&mut self, section: Section) {
        let at = 1 + section as usize;
        debug_assert!(
            self.counts[at + 1..].iter().all(|&n| n == 0),
            "records are written in section order"
        );
        self.counts[at] += 1;
    }

    fn record<N: NameLabels + ?Sized>(
        &mut self,
        section: Section,
        owner: &N,
        class: RrClass,
        ttl: u32,
        rdata: &RData,
    ) {
        self.count(section);
        self.name(owner);
        self.rr_tail(class, ttl, rdata);
    }

    /// Everything of a record after its owner name.
    fn rr_tail(&mut self, class: RrClass, ttl: u32, rdata: &RData) {
        self.u16(rdata.rtype().code());
        self.u16(class.code());
        self.u32(ttl);
        // Length-prefixed rdata; compressible names (NS/CNAME/SOA/MX) are
        // encoded through the compressor, DNSSEC rdata names are not
        // (RFC 3597 §4).
        let len_pos = self.buf.len();
        self.u16(0);
        match rdata {
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Soa(soa) => {
                self.name(&soa.mname);
                self.name(&soa.rname);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    self.u32(v);
                }
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.u16(*preference);
                self.name(exchange);
            }
            RData::Rrsig(sig) => {
                // Not `RData::to_wire_into`: that writes the signer name
                // lowercased, as signing needs; the wire keeps its case.
                self.u16(sig.type_covered.code());
                self.u8(sig.algorithm);
                self.u8(sig.labels);
                self.u32(sig.original_ttl);
                self.u32(sig.expiration);
                self.u32(sig.inception);
                self.u16(sig.key_tag);
                for label in sig.signer_name.labels() {
                    self.u8(label.len() as u8);
                    self.bytes(label.as_bytes());
                }
                self.u8(0);
                self.bytes(&sig.signature);
            }
            other => other.to_wire_into(self.buf),
        }
        let rdlen = (self.buf.len() - len_pos - 2) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Records from `tails` (as [`rr_tail_into`] wrote them), each at
    /// `owner`.
    fn tails<N: NameLabels + ?Sized>(&mut self, section: Section, owner: &N, mut tails: &[u8]) {
        while !tails.is_empty() {
            let len = 10 + usize::from(u16::from_be_bytes([tails[8], tails[9]]));
            self.count(section);
            self.name(owner);
            self.bytes(&tails[..len]);
            tails = &tails[len..];
        }
    }

    /// Writes the OPT record for `edns` and fills in the header.
    fn finish(mut self, flags: Flags, rcode: Rcode, edns: Option<Edns>) {
        if let Some(edns) = edns {
            // OPT pseudo-record: root name, TYPE=41, CLASS=udp size,
            // TTL = ext-rcode/version/DO bit, empty RDATA.
            self.u8(0);
            self.u16(RrType::Opt.code());
            self.u16(edns.udp_size);
            let ttl: u32 = if edns.dnssec_ok { 0x0000_8000 } else { 0 };
            self.u32(ttl);
            self.u16(0);
            self.counts[3] += 1;
        }
        let mut word: u16 = 0;
        for (set, bit) in [
            (flags.qr, 15),
            (flags.aa, 10),
            (flags.tc, 9),
            (flags.rd, 8),
            (flags.ra, 7),
            (flags.ad, 5),
            (flags.cd, 4),
        ] {
            if set {
                word |= 1 << bit;
            }
        }
        word |= u16::from(rcode.code() & 0x0F);
        self.buf[2..4].copy_from_slice(&word.to_be_bytes());
        for (i, n) in self.counts.iter().enumerate() {
            self.buf[4 + 2 * i..6 + 2 * i].copy_from_slice(&n.to_be_bytes());
        }
    }
}

/// A message written straight into a send buffer from borrowed parts: a
/// header, the question, records from owner/TTL/RDATA or from pre-encoded
/// RR tails, in section order, and the OPT record. [`encode`] is this
/// writer run over a [`Message`]; both compress names the same way.
pub struct Writer<'b>(Encoder<'b, SuffixTable>);

impl<'b> Writer<'b> {
    /// Starts a message with id `id` in `buf` (cleared first, capacity
    /// kept).
    pub fn new(buf: &'b mut Vec<u8>, id: u16) -> Self {
        Writer(Encoder::start(buf, id, SuffixTable::default()))
    }

    /// Writes the question: at most once, before any record.
    pub fn question<N: NameLabels + ?Sized>(&mut self, qname: &N, qtype: RrType, qclass: RrClass) {
        self.0.question(qname, qtype, qclass);
    }

    /// Writes one record into `section`.
    pub fn record<N: NameLabels + ?Sized>(
        &mut self,
        section: Section,
        owner: &N,
        class: RrClass,
        ttl: u32,
        rdata: &RData,
    ) {
        self.0.record(section, owner, class, ttl, rdata);
    }

    /// Writes the records of `tails`, a run of [`rr_tail_into`] outputs,
    /// into `section`, each at `owner`.
    pub fn tails<N: NameLabels + ?Sized>(&mut self, section: Section, owner: &N, tails: &[u8]) {
        self.0.tails(section, owner, tails);
    }

    /// Writes the OPT record for `edns` and completes the header.
    pub fn finish(self, flags: Flags, rcode: Rcode, edns: Option<Edns>) {
        self.0.finish(flags, rcode, edns);
    }
}

/// Appends one class-IN record's tail — TYPE, CLASS, TTL, RDLENGTH, RDATA,
/// everything after the owner — to `out`, with every RDATA name in full.
/// For RDATA whose names a message never compresses (every DNSSEC type,
/// RFC 3597 §4), these are the bytes [`Writer::record`] writes after the
/// owner, wherever in a message it writes them.
pub fn rr_tail_into(ttl: u32, rdata: &RData, out: &mut Vec<u8>) {
    let mut e = Encoder {
        buf: out,
        names: Uncompressed,
        counts: [0; 4],
    };
    e.rr_tail(RrClass::In, ttl, rdata);
}

/// Serializes a message to wire format.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    encode_with(&mut buf, SuffixTable::default(), msg);
    buf
}

/// Serializes a message into `buf` (cleared first), reusing its capacity.
pub fn encode_into(msg: &Message, buf: &mut Vec<u8>) {
    encode_with(buf, SuffixTable::default(), msg);
}

/// Rewrites the encoded message `full` into `out` (cleared first) in the
/// RFC 1035 §4.2.1 truncated form a UDP responder sends when the answer
/// does not fit: the header with TC set, AN and NS counts 0 and AR counting
/// only the OPT RR, the question section as written, and the OPT RR if
/// `full` has one. Nothing is decoded; for any `msg`,
/// `truncate_into(&encode(&msg), out)` writes exactly `encode` of `msg`
/// with TC set and its three record sections cleared.
pub fn truncate_into(full: &[u8], out: &mut Vec<u8>) -> Result<(), WireError> {
    let header = full.get(..12).ok_or(WireError::Truncated)?;
    let count = |at: usize| u16::from_be_bytes([header[at], header[at + 1]]) as usize;
    let mut pos = 12;
    for _ in 0..count(4) {
        pos = skip_name_at(full, pos)? + 4;
    }
    let question_end = pos;
    if question_end > full.len() {
        return Err(WireError::Truncated);
    }
    // As in `decode`, the EDNS state is the last OPT RR of the additional
    // section.
    let first_additional = count(6) + count(8);
    let mut opt = None;
    for i in 0..first_additional + count(10) {
        let fixed = skip_name_at(full, pos)?;
        let fields = full.get(fixed..fixed + 10).ok_or(WireError::Truncated)?;
        let end = fixed + 10 + u16::from_be_bytes([fields[8], fields[9]]) as usize;
        if end > full.len() {
            return Err(WireError::Truncated);
        }
        let rtype = u16::from_be_bytes([fields[0], fields[1]]);
        if i >= first_additional && rtype == RrType::Opt.code() {
            opt = Some(fixed..end);
        }
        pos = end;
    }
    out.clear();
    out.extend_from_slice(&header[..6]);
    out[2] |= 0x02;
    out.extend_from_slice(&[0, 0, 0, 0, 0, u8::from(opt.is_some())]);
    out.extend_from_slice(&full[12..question_end]);
    if let Some(fields) = opt {
        // The OPT owner is the root (RFC 6891 §6.1.2), written uncompressed.
        out.push(0);
        out.extend_from_slice(&full[fields]);
    }
    Ok(())
}

/// Encodes `msg` into `buf` (cleared first) with compressor `names`.
fn encode_with<C: Compressor>(buf: &mut Vec<u8>, names: C, msg: &Message) {
    let mut e = Encoder::start(buf, msg.id, names);
    if let Some(q) = &msg.question {
        e.question(&q.qname, q.qtype, q.qclass);
    }
    for (section, records) in [
        (Section::Answer, &msg.answers),
        (Section::Authority, &msg.authorities),
        (Section::Additional, &msg.additionals),
    ] {
        for rec in records {
            e.record(section, &rec.name, rec.class, rec.ttl, &rec.rdata);
        }
    }
    e.finish(msg.flags, msg.rcode, msg.edns);
}

// ---------------------------------------------------------------- decoding

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a possibly-compressed name starting at the current position.
    fn name(&mut self) -> Result<Name, WireError> {
        let start = self.pos;
        self.skip_name()?;
        Ok(NameRef::new(self.buf, start).to_name())
    }

    /// Validates and skips a possibly-compressed name without building it.
    fn skip_name(&mut self) -> Result<(), WireError> {
        self.pos = skip_name_at(self.buf, self.pos)?;
        Ok(())
    }
}

/// Validates the possibly-compressed name at `start` without building it
/// and returns the position after its in-line bytes. The one name
/// validator: a name is materialized (through [`NameRef::to_name`]) only
/// after this accepted it.
fn skip_name_at(buf: &[u8], start: usize) -> Result<usize, WireError> {
    let mut labels = 0usize;
    // Wire length: per-label length octets plus the root terminator, as
    // `Name::wire_len` computes it.
    let mut wire_len = 1usize;
    let mut pos = start;
    let mut after: Option<usize> = None;
    let mut jumps = 0;
    loop {
        let len = *buf.get(pos).ok_or(WireError::Truncated)? as usize;
        if len & 0xC0 == 0xC0 {
            let b2 = *buf.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((len & 0x3F) << 8) | b2;
            if after.is_none() {
                after = Some(pos + 2);
            }
            if target >= pos {
                return Err(WireError::BadPointer);
            }
            jumps += 1;
            if jumps > MAX_POINTER_CHASES {
                return Err(WireError::BadPointer);
            }
            pos = target;
            continue;
        }
        if len & 0xC0 != 0 {
            return Err(WireError::BadName);
        }
        if len == 0 {
            pos += 1;
            break;
        }
        if buf.get(pos + 1..pos + 1 + len).is_none() {
            return Err(WireError::Truncated);
        }
        // `Label::new` cannot fail here: len has no 0xC0 bits, so len <= 63.
        labels += 1;
        wire_len += 1 + len;
        pos += 1 + len;
        if labels > 127 {
            return Err(WireError::BadName);
        }
    }
    if wire_len > crate::name::MAX_NAME_LEN {
        return Err(WireError::BadName);
    }
    Ok(after.unwrap_or(pos))
}

/// Allocation-free twin of [`decode_rdata`]: validates that the RDATA window
/// parses for its declared type without constructing the `RData`. Accepts
/// and rejects exactly the inputs `decode_rdata` does, with identical
/// errors; the view walk validates with this, so a view parses any message
/// without allocating.
fn check_rdata(rtype: RrType, buf: &[u8], rd_start: usize, rd_len: usize) -> Result<(), WireError> {
    let bad = || WireError::BadRdata(rtype.code());
    if buf.get(rd_start..rd_start + rd_len).is_none() {
        return Err(WireError::Truncated);
    }
    let mut d = Decoder { buf, pos: rd_start };
    let end = rd_start + rd_len;
    match rtype {
        RrType::A => {
            d.take(4)?;
        }
        RrType::Aaaa => {
            d.take(16)?;
        }
        RrType::Ns | RrType::Cname => d.skip_name()?,
        RrType::Soa => {
            d.skip_name()?;
            d.skip_name()?;
            d.take(20)?; // serial, refresh, retry, expire, minimum
        }
        RrType::Mx => {
            d.take(2)?;
            d.skip_name()?;
        }
        RrType::Txt => {
            while d.pos < end {
                let len = d.u8()? as usize;
                d.take(len)?;
            }
        }
        RrType::Dnskey | RrType::Cdnskey => {
            d.take(4)?; // flags, protocol, algorithm
            d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
        }
        RrType::Rrsig => {
            d.take(18)?; // covered, alg, labels, ttl, expiration, inception, tag
            d.skip_name()?;
            d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
        }
        RrType::Ds | RrType::Cds => {
            d.take(4)?; // key tag, algorithm, digest type
            d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
        }
        RrType::Nsec => {
            d.skip_name()?;
            let bm = buf.get(d.pos..end).ok_or(WireError::Truncated)?;
            if !TypeBitmap::validate_wire(bm) {
                return Err(bad());
            }
            d.pos = end;
        }
        RrType::Nsec3 => {
            d.take(4)?; // hash alg, flags, iterations
            let salt_len = d.u8()? as usize;
            d.take(salt_len)?;
            let hash_len = d.u8()? as usize;
            d.take(hash_len)?;
            let bm = buf.get(d.pos..end).ok_or(WireError::Truncated)?;
            if !TypeBitmap::validate_wire(bm) {
                return Err(bad());
            }
            d.pos = end;
        }
        RrType::Nsec3Param => {
            d.take(4)?;
            let salt_len = d.u8()? as usize;
            d.take(salt_len)?;
        }
        // Unknown types are a raw slice copy on the owned path; the window
        // bounds check at the top is the only constraint.
        _ => {}
    }
    if d.pos > end {
        return Err(bad());
    }
    Ok(())
}

fn decode_rdata(
    rtype: RrType,
    buf: &[u8],
    rd_start: usize,
    rd_len: usize,
) -> Result<RData, WireError> {
    let bad = || WireError::BadRdata(rtype.code());
    let slice = buf
        .get(rd_start..rd_start + rd_len)
        .ok_or(WireError::Truncated)?;
    let mut d = Decoder { buf, pos: rd_start };
    let end = rd_start + rd_len;
    let rd = match rtype {
        RrType::A => {
            let o = d.take(4)?;
            RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
        }
        RrType::Aaaa => {
            let o = d.take(16)?;
            let mut a = [0u8; 16];
            a.copy_from_slice(o);
            RData::Aaaa(Ipv6Addr::from(a))
        }
        RrType::Ns => RData::Ns(d.name()?),
        RrType::Cname => RData::Cname(d.name()?),
        RrType::Soa => {
            let mname = d.name()?;
            let rname = d.name()?;
            RData::Soa(Soa {
                mname,
                rname,
                serial: d.u32()?,
                refresh: d.u32()?,
                retry: d.u32()?,
                expire: d.u32()?,
                minimum: d.u32()?,
            })
        }
        RrType::Mx => RData::Mx {
            preference: d.u16()?,
            exchange: d.name()?,
        },
        RrType::Txt => {
            let mut strings = Vec::new();
            while d.pos < end {
                let len = d.u8()? as usize;
                let s = d.take(len)?;
                strings.push(String::from_utf8_lossy(s).into_owned());
            }
            RData::Txt(strings)
        }
        RrType::Dnskey | RrType::Cdnskey => {
            let flags = d.u16()?;
            let protocol = d.u8()?;
            let algorithm = d.u8()?;
            let key = d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
            let k = Dnskey {
                flags,
                protocol,
                algorithm,
                public_key: key.to_vec(),
            };
            if rtype == RrType::Cdnskey {
                RData::Cdnskey(k)
            } else {
                RData::Dnskey(k)
            }
        }
        RrType::Rrsig => {
            let type_covered = RrType::from_code(d.u16()?);
            let algorithm = d.u8()?;
            let labels = d.u8()?;
            let original_ttl = d.u32()?;
            let expiration = d.u32()?;
            let inception = d.u32()?;
            let key_tag = d.u16()?;
            let signer_name = d.name()?;
            let sig = d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
            RData::Rrsig(Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer_name,
                signature: sig.to_vec(),
            })
        }
        RrType::Ds | RrType::Cds => {
            let key_tag = d.u16()?;
            let algorithm = d.u8()?;
            let digest_type = d.u8()?;
            let digest = d.take(end.checked_sub(d.pos).ok_or_else(bad)?)?;
            let ds = Ds {
                key_tag,
                algorithm,
                digest_type,
                digest: digest.to_vec(),
            };
            if rtype == RrType::Cds {
                RData::Cds(ds)
            } else {
                RData::Ds(ds)
            }
        }
        RrType::Nsec => {
            let next_name = d.name()?;
            let bm = buf.get(d.pos..end).ok_or(WireError::Truncated)?;
            RData::Nsec(Nsec {
                next_name,
                type_bitmap: TypeBitmap::from_wire(bm).ok_or_else(bad)?,
            })
        }
        RrType::Nsec3 => {
            let hash_algorithm = d.u8()?;
            let flags = d.u8()?;
            let iterations = d.u16()?;
            let salt_len = d.u8()? as usize;
            let salt = d.take(salt_len)?.to_vec();
            let hash_len = d.u8()? as usize;
            let next = d.take(hash_len)?.to_vec();
            let bm = buf.get(d.pos..end).ok_or(WireError::Truncated)?;
            RData::Nsec3(Nsec3 {
                hash_algorithm,
                flags,
                iterations,
                salt,
                next_hashed_owner: next,
                type_bitmap: TypeBitmap::from_wire(bm).ok_or_else(bad)?,
            })
        }
        RrType::Nsec3Param => {
            let hash_algorithm = d.u8()?;
            let flags = d.u8()?;
            let iterations = d.u16()?;
            let salt_len = d.u8()? as usize;
            let salt = d.take(salt_len)?.to_vec();
            RData::Nsec3Param(Nsec3Param {
                hash_algorithm,
                flags,
                iterations,
                salt,
            })
        }
        other => RData::Unknown {
            rtype: other.code(),
            data: slice.to_vec(),
        },
    };
    // Every read above is bounds-checked against the message buffer, but a
    // lying RDLENGTH could still let a field run past the declared RDATA
    // window into the next record's bytes. Reject the overrun instead of
    // silently mis-parsing.
    if d.pos > end {
        return Err(bad());
    }
    Ok(rd)
}

/// Parses a wire-format message.
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    decode_obs::count(buf, decode_inner(buf))
}

/// The building walk, uncounted: [`decode`] counts it, and
/// `MessageView::to_owned` runs it on bytes its view already accepted.
pub(crate) fn decode_inner(buf: &[u8]) -> Result<Message, WireError> {
    let mut sections: [Vec<Record>; 3] = Default::default();
    let head = walk(buf, Some(&mut sections))?;
    let [answers, authorities, additionals] = sections;
    Ok(Message {
        id: head.id,
        flags: head.flags,
        rcode: head.rcode,
        question: head.question.map(|(qname, qtype, qclass)| Question {
            qname: NameRef::new(buf, qname).to_name(),
            qtype,
            qclass,
        }),
        answers,
        authorities,
        additionals,
        edns: head.edns,
    })
}

/// What a walk over a message keeps besides its records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    pub(crate) id: u16,
    pub(crate) flags: Flags,
    /// The header's four RCODE bits. Extended RCODE bits in the OPT TTL
    /// are not merged: the testbed uses only the low four.
    pub(crate) rcode: Rcode,
    /// The offset of the last question's qname (a message may hold more
    /// than one; the last wins), with its type and class.
    pub(crate) question: Option<(usize, RrType, RrClass)>,
    /// From the last OPT record of the additional section. An OPT record
    /// is never a `Record`, and one in another section is skipped.
    pub(crate) edns: Option<Edns>,
}

/// The one message walk, shared by [`decode`] and
/// [`crate::MessageView::parse`]. It validates the header, every question
/// and every record, owner names through [`skip_name_at`], and rejects
/// bytes after the last record. With `records`, each section's records are
/// built with [`decode_rdata`] into its vector; without, RDATA is only
/// validated by [`check_rdata`] and the walk allocates nothing. Either way
/// it accepts and rejects the same bytes with the same errors.
///
/// The vectors grow with the records actually read, never from a header
/// count: a 12-byte datagram that claims 65,535 answers costs no memory
/// before it is rejected as truncated.
///
/// Inlined into both of its callers, so each gets the walk specialized to
/// its mode and the checking walk carries no building branch: without it,
/// perfbench's `dns.view_parse_answer_ns` read ~96 ns against ~86 ns.
#[inline(always)]
pub(crate) fn walk(
    buf: &[u8],
    mut records: Option<&mut [Vec<Record>; 3]>,
) -> Result<Head, WireError> {
    let mut d = Decoder { buf, pos: 0 };
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
    let counts = [d.u16()?, d.u16()?, d.u16()?];

    let mut question = None;
    for _ in 0..qdcount {
        let qname = d.pos;
        d.skip_name()?;
        let qtype = RrType::from_code(d.u16()?);
        let qclass = RrClass::from_code(d.u16()?);
        question = Some((qname, qtype, qclass));
    }

    let mut edns = None;
    for (section, count) in counts.into_iter().enumerate() {
        for _ in 0..count {
            let owner = d.pos;
            d.skip_name()?;
            let rtype = RrType::from_code(d.u16()?);
            let class = d.u16()?;
            let ttl = d.u32()?;
            let rd_len = d.u16()? as usize;
            if rtype == RrType::Opt {
                if section == 2 {
                    edns = Some(Edns {
                        udp_size: class,
                        dnssec_ok: ttl & 0x0000_8000 != 0,
                    });
                }
            } else if let Some(records) = records.as_deref_mut() {
                let rdata = decode_rdata(rtype, buf, d.pos, rd_len)?;
                records[section].push(Record {
                    name: NameRef::new(buf, owner).to_name(),
                    class: RrClass::from_code(class),
                    ttl,
                    rdata,
                });
            } else {
                check_rdata(rtype, buf, d.pos, rd_len)?;
            }
            d.take(rd_len)?;
        }
    }
    // The header promised exactly this much content; anything after it is
    // either an attack or a framing bug upstream. Every transport in the
    // workspace hands the decoder an exact-length buffer.
    if d.pos != buf.len() {
        return Err(WireError::TrailingGarbage);
    }
    Ok(Head {
        id,
        flags,
        rcode,
        question,
        edns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{name, Label};
    use crate::rdata::DNSKEY_FLAG_ZONE;
    use ddx_prop::{Rng, StdRng};
    use std::collections::HashMap;

    /// The compressor the suffix table replaced, kept as its oracle:
    /// lowercased presentation name → offset of its first occurrence.
    #[derive(Default)]
    struct StringKeyed(HashMap<String, u16>);

    impl Compressor for StringKeyed {
        fn name<N: NameLabels + ?Sized>(&mut self, buf: &mut Vec<u8>, name: &N) {
            let labels: Vec<Label> = (0..name.label_count())
                .map(|i| Label::new(name.label(i)).expect("label fits"))
                .collect();
            for i in 0..labels.len() {
                let suffix = Name::from_labels(labels[i..].to_vec()).expect("suffix fits");
                let key = suffix.key();
                if let Some(&off) = self.0.get(&key) {
                    buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
                    return;
                }
                if buf.len() <= 0x3FFF {
                    self.0.insert(key, buf.len() as u16);
                }
                buf.push(labels[i].len() as u8);
                buf.extend_from_slice(labels[i].as_bytes());
            }
            buf.push(0);
        }
    }

    /// A label from a small pool with each letter's case drawn at random,
    /// so names share suffixes in differing case. The pool holds `.`, `\`,
    /// bytes ≥ 0x80 and the 0x5B–0x60 run between `Z` and `a`; one draw in
    /// eight is random bytes instead.
    fn arb_label(rng: &mut StdRng) -> Label {
        const POOL: [&[u8]; 8] = [
            b"com",
            b"example",
            b"www",
            b"a.b",
            b"back\\slash",
            b"\x80hi\xff",
            b"[_`]^",
            b"ns1",
        ];
        if rng.gen_range(0..8) == 0 {
            return Label::new(&ddx_prop::bytes(rng, 1..12)).unwrap();
        }
        let bytes: Vec<u8> = POOL[rng.gen_range(0..POOL.len())]
            .iter()
            .map(|&b| if rng.gen() { b.to_ascii_uppercase() } else { b })
            .collect();
        Label::new(&bytes).unwrap()
    }

    fn arb_name(rng: &mut StdRng) -> Name {
        Name::from_labels(ddx_prop::vec(rng, 0..5, arb_label)).unwrap()
    }

    fn arb_record(rng: &mut StdRng) -> Record {
        let rdata = match rng.gen_range(0..7) {
            0 => RData::Ns(arb_name(rng)),
            1 => RData::Cname(arb_name(rng)),
            2 => RData::Soa(Soa {
                mname: arb_name(rng),
                rname: arb_name(rng),
                serial: rng.gen(),
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
            3 => RData::Mx {
                preference: rng.gen(),
                exchange: arb_name(rng),
            },
            4 => RData::Rrsig(Rrsig {
                type_covered: RrType::A,
                algorithm: 13,
                labels: 2,
                original_ttl: 300,
                expiration: rng.gen(),
                inception: rng.gen(),
                key_tag: rng.gen(),
                signer_name: arb_name(rng),
                signature: ddx_prop::bytes(rng, 0..16),
            }),
            5 => RData::Nsec(Nsec {
                next_name: arb_name(rng),
                type_bitmap: TypeBitmap::from_types([RrType::A, RrType::Rrsig, RrType::Nsec]),
            }),
            _ => RData::A(Ipv4Addr::from(rng.gen::<u32>())),
        };
        Record::new(arb_name(rng), rng.gen(), rdata)
    }

    fn arb_message(rng: &mut StdRng, records: std::ops::Range<usize>) -> Message {
        let mut msg = Message::query(rng.gen(), arb_name(rng), RrType::A).response();
        msg.answers = ddx_prop::vec(rng, records.clone(), arb_record);
        msg.authorities = ddx_prop::vec(rng, records.clone(), arb_record);
        msg.additionals = ddx_prop::vec(rng, records, arb_record);
        if rng.gen() {
            msg.edns = None;
        }
        msg
    }

    fn encode_reference(msg: &Message) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_with(&mut buf, StringKeyed::default(), msg);
        buf
    }

    /// The suffix table compresses exactly like the string-keyed oracle:
    /// same pointers, same first occurrences, same offset limit.
    #[test]
    fn suffix_table_matches_string_keyed_compressor() {
        ddx_prop::check("suffix_table_matches_string_keyed", 256, |rng| {
            let msg = arb_message(rng, 0..12);
            assert_eq!(encode(&msg), encode_reference(&msg));
        });
        // Past the 0x3FFF pointer limit: late names may only point back
        // into the first 16 KiB, and the table spills to the heap.
        ddx_prop::check("suffix_table_matches_past_pointer_limit", 4, |rng| {
            let msg = arb_message(rng, 400..600);
            let wire = encode(&msg);
            assert!(wire.len() > 2 * MAX_POINTER, "{} bytes", wire.len());
            assert_eq!(wire, encode_reference(&msg));
            assert_eq!(decode(&wire).unwrap(), msg);
        });
    }

    /// The collision check reads names back through pointers, ignoring
    /// case, and rejects another name, a longer or shorter one, and a name
    /// whose bytes are not all written yet.
    #[test]
    fn written_name_eq_reads_back_through_pointers() {
        let eq = |wire: &[u8], pos: usize, s: &str| written_name_eq(wire, pos, &name(s), 0);
        let mut msg = Message::query(1, name("www.Example.com"), RrType::A).response();
        let owner = name("mail.example.COM");
        msg.answers
            .push(Record::new(owner, 0, RData::A(Ipv4Addr::LOCALHOST)));
        let wire = encode(&msg);
        // The question name sits at 12 (`Example` at 16); the answer owner
        // follows qtype/qclass at 33 as `mail` plus a pointer to 16.
        assert!(eq(&wire, 12, "WWW.example.com"));
        assert!(eq(&wire, 16, "example.com"));
        assert!(eq(&wire, 33, "MAIL.example.com"));
        assert!(!eq(&wire, 33, "mail.example.org"));
        assert!(!eq(&wire, 12, "www.example"));
        assert!(!eq(&wire, 16, "www.example.com"));
        assert!(!eq(&wire[..20], 12, "www.example.com"));
    }

    /// A suffix written at offset 0x3FFF is still a pointer target; one
    /// written a byte later is not.
    #[test]
    fn pointer_limit_is_inclusive() {
        for pad in [0, 1] {
            let mut msg = Message::query(1, name("q.example"), RrType::A).response();
            // Header 12, question 15, then the first answer's compressed
            // owner (2) and fixed fields (10): its RDATA starts at 39.
            let filler = RData::Unknown {
                rtype: 0xFF00,
                data: vec![0; MAX_POINTER - 39 + pad],
            };
            msg.answers.push(Record::new(name("q.example"), 0, filler));
            for _ in 0..2 {
                let late = RData::A(Ipv4Addr::LOCALHOST);
                msg.answers.push(Record::new(name("late.example"), 0, late));
            }
            let wire = encode(&msg);
            assert_eq!(wire, encode_reference(&msg));
            let first = MAX_POINTER + pad;
            assert_eq!(&wire[first..first + 5], b"\x04late");
            // `late` + pointer to `example`, fixed fields, A rdata.
            let second = first + 5 + 2 + 10 + 4;
            let points_back = wire[second..second + 2] == [0xFF, 0xFF];
            assert_eq!(points_back, pad == 0, "pad {pad}");
        }
    }

    fn round_trip(msg: &Message) -> Message {
        decode(&encode(msg)).expect("decode")
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let msg = sample_response();
        let fresh = encode(&msg);
        let mut buf = Vec::new();
        encode_into(&msg, &mut buf);
        assert_eq!(buf, fresh);
        // A second encode into the same (now dirty, larger) buffer must
        // clear it and produce identical bytes.
        let small = Message::query(1, name("a.example.com"), RrType::A);
        encode_into(&small, &mut buf);
        assert_eq!(buf, encode(&small));
    }

    fn sample_response() -> Message {
        let q = Message::query(0x1234, name("www.example.com"), RrType::A);
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
                algorithm: 8,
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
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        r.additionals.push(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        r
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(7, name("example.com"), RrType::Dnskey);
        let back = round_trip(&q);
        assert_eq!(back, q);
        assert!(back.dnssec_ok());
    }

    #[test]
    fn response_round_trip() {
        let r = sample_response();
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn compression_shrinks_message() {
        let r = sample_response();
        let wire = encode(&r);
        // Uncompressed "example.com" appears 4+ times; compression should
        // keep the message well under the naive size.
        let naive: usize =
            12 + r.answers.len() * 64 + r.authorities.len() * 64 + r.additionals.len() * 64 + 32;
        assert!(wire.len() < naive, "wire {} >= naive {}", wire.len(), naive);
        // And pointers must resolve on decode.
        assert_eq!(decode(&wire).unwrap(), r);
    }

    #[test]
    fn dnssec_records_round_trip() {
        let q = Message::query(1, name("example.com"), RrType::Dnskey);
        let mut r = q.response();
        r.answers.push(Record::new(
            name("example.com"),
            3600,
            RData::Dnskey(Dnskey {
                flags: DNSKEY_FLAG_ZONE,
                protocol: 3,
                algorithm: 13,
                public_key: vec![1, 2, 3, 4, 5, 6, 7, 8],
            }),
        ));
        r.answers.push(Record::new(
            name("example.com"),
            3600,
            RData::Ds(Ds {
                key_tag: 11,
                algorithm: 13,
                digest_type: 2,
                digest: vec![0xab; 32],
            }),
        ));
        r.authorities.push(Record::new(
            name("example.com"),
            300,
            RData::Nsec(Nsec {
                next_name: name("a.example.com"),
                type_bitmap: TypeBitmap::from_types([RrType::Soa, RrType::Ns, RrType::Dnskey]),
            }),
        ));
        r.authorities.push(Record::new(
            name("abcd1234.example.com"),
            300,
            RData::Nsec3(Nsec3 {
                hash_algorithm: 1,
                flags: 1,
                iterations: 10,
                salt: vec![0xaa, 0xbb],
                next_hashed_owner: vec![0x11; 20],
                type_bitmap: TypeBitmap::from_types([RrType::A]),
            }),
        ));
        r.authorities.push(Record::new(
            name("example.com"),
            0,
            RData::Nsec3Param(Nsec3Param {
                hash_algorithm: 1,
                flags: 0,
                iterations: 10,
                salt: vec![],
            }),
        ));
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn txt_soa_mx_round_trip() {
        let q = Message::query(2, name("example.com"), RrType::Soa);
        let mut r = q.response();
        r.answers.push(Record::new(
            name("example.com"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2024,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        r.answers.push(Record::new(
            name("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example.com"),
            },
        ));
        r.answers.push(Record::new(
            name("example.com"),
            3600,
            RData::Txt(vec!["v=spf1 -all".into(), "second".into()]),
        ));
        assert_eq!(round_trip(&r), r);
    }

    #[test]
    fn decode_rejects_truncation() {
        let wire = encode(&sample_response());
        for cut in [1, 5, 11, wire.len() - 1] {
            assert!(decode(&wire[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_rejects_pointer_loops() {
        // Header + a question whose name is a self-pointing pointer.
        let mut buf = vec![0u8; 12];
        buf[4] = 0;
        buf[5] = 1; // qdcount = 1
        buf.extend_from_slice(&[0xC0, 0x0C]); // pointer to itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&buf), Err(WireError::BadPointer));
    }

    #[test]
    fn edns_do_bit_round_trip() {
        let mut q = Message::query(3, name("example.com"), RrType::A);
        q.edns = Some(Edns {
            udp_size: 1232,
            dnssec_ok: false,
        });
        let back = round_trip(&q);
        assert_eq!(back.edns.unwrap().udp_size, 1232);
        assert!(!back.dnssec_ok());
    }

    #[test]
    fn nxdomain_rcode_round_trip() {
        let mut r = Message::query(4, name("nope.example.com"), RrType::A).response();
        r.rcode = Rcode::NxDomain;
        assert_eq!(round_trip(&r).rcode, Rcode::NxDomain);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut wire = encode(&sample_response());
        wire.push(0);
        assert_eq!(decode(&wire), Err(WireError::TrailingGarbage));
    }

    /// A chain of strictly-backwards pointers longer than the chase budget
    /// must be rejected, and a chain exactly at the budget must resolve.
    #[test]
    fn pointer_chase_budget_is_enforced() {
        let chain = |hops: usize| -> Vec<u8> {
            let mut buf = vec![0u8]; // root label at offset 0
            for i in 0..hops {
                let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
                buf.push(0xC0 | ((target >> 8) as u8));
                buf.push((target & 0xFF) as u8);
            }
            buf
        };

        let over = chain(MAX_POINTER_CHASES + 1);
        let start = over.len() - 2;
        assert_eq!(
            skip_name_at(&over, start).unwrap_err(),
            WireError::BadPointer
        );

        let at_limit = chain(MAX_POINTER_CHASES);
        let start = at_limit.len() - 2;
        assert_eq!(skip_name_at(&at_limit, start), Ok(start + 2));
        assert!(NameRef::new(&at_limit, start).to_name().is_root());
    }
}

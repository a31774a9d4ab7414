//! A single in-memory authoritative nameserver instance: zone storage plus
//! the RFC 1034 §4.3.2 / RFC 4035 §3.1 query-resolution algorithm, including
//! DNSSEC-aware positive answers, referrals, and NSEC/NSEC3 negative
//! responses assembled from whatever chain the zone actually contains (so
//! injected misconfigurations surface faithfully in responses).
//!
//! Every entry point answers through one resolution core,
//! `Server::resolve`, which holds the behavior switch, FORMERR, REFUSED and
//! AXFR once and writes the answer to a sink. [`Server::handle_arc`] and
//! [`Server::handle_view`] resolve through per-generation lookup indexes
//! (see [`crate::index`]) into an owned `Message`, while
//! [`Server::handle_uncached`] recomputes every answer with the original
//! linear scans. The two are byte-identical by construction (the indexes
//! fall back to the same first-match scans on malformed chains) and a
//! property test pins that equivalence. The UDP and TCP transports answer
//! through [`Server::respond_into`], which resolves a miss straight into
//! the send buffer and memoizes the bytes (see [`crate::answer`]); it is
//! the server's one answer cache.

use std::collections::HashMap;
use std::sync::Arc;

use ddx_json::{FromJson, ToJson};

use ddx_dns::wire::{self, Section, Writer};
use ddx_dns::{
    base32, Flags, Message, MessageView, Name, Nsec3, RData, RRset, Rcode, Record, RrClass, RrType,
    Suffix, WireName, Zone,
};
use ddx_dnssec::{nsec3_hash, nsec3_hash_wire};

use crate::answer::{AnswerMemo, MemoKey, MemoLookup};
use crate::index::{Proof, ZoneIndex, ZoneIndexes};

/// Identifies one server instance (e.g. `ns1.par.a.com.#0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub struct ServerId(pub String);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Failure modes a server can be put into, modeling the paper's `lm` (lame)
/// category and transport-level brokenness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, ToJson)]
pub enum ServerBehavior {
    /// Answers queries normally.
    #[default]
    Normal,
    /// Responds REFUSED to everything (lame delegation).
    Refuses,
    /// Never responds (transport returns nothing).
    Unresponsive,
}

/// One authoritative server: an id, its zone copies, and a behavior switch.
#[derive(Debug)]
pub struct Server {
    pub id: ServerId,
    pub behavior: ServerBehavior,
    zones: HashMap<Name, Zone>,
    /// Encoded answers for the UDP/TCP transports, emptied by every zone
    /// write.
    memo: AnswerMemo,
    /// Per-generation zone indexes, used by every indexed resolution.
    indexes: ZoneIndexes,
}

/// Cloning copies the zones (whose generation stamps come along, keeping
/// stamp⇒content soundness) but starts with a cold memo: the caches refill
/// on demand and two clones never share mutable state.
impl Clone for Server {
    fn clone(&self) -> Self {
        Server {
            id: self.id.clone(),
            behavior: self.behavior,
            zones: self.zones.clone(),
            memo: AnswerMemo::new(),
            indexes: ZoneIndexes::default(),
        }
    }
}

impl Server {
    pub fn new(id: ServerId) -> Self {
        Server {
            id,
            behavior: ServerBehavior::Normal,
            zones: HashMap::new(),
            memo: AnswerMemo::new(),
            indexes: ZoneIndexes::default(),
        }
    }

    /// Loads (or replaces) a zone on this server, emptying the answer memo.
    pub fn load_zone(&mut self, zone: Zone) {
        self.memo.clear();
        self.zones.insert(zone.apex().clone(), zone);
    }

    /// Immutable access to a loaded zone.
    pub fn zone(&self, apex: &Name) -> Option<&Zone> {
        self.zones.get(apex)
    }

    /// The zones loaded on this server, in no order.
    pub(crate) fn zones(&self) -> impl Iterator<Item = &Zone> {
        self.zones.values()
    }

    /// Mutable access — ZReplicator's error injection hooks in here. Empties
    /// this server's memoized answers: the caller may change the zone.
    pub fn zone_mut(&mut self, apex: &Name) -> Option<&mut Zone> {
        self.memo.clear();
        self.zones.get_mut(apex)
    }

    /// The deepest zone whose apex `in_zone` accepts: called with each apex,
    /// it answers whether the query name is that apex or below it.
    fn best_zone(&self, in_zone: impl Fn(&Name) -> bool) -> Option<&Zone> {
        self.zones
            .values()
            .filter(|z| in_zone(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Answers a query, resolved afresh through the zone's index. Returns
    /// `None` when the server is unresponsive (the transport layer turns
    /// that into a timeout).
    pub fn handle_arc(&self, query: &Message) -> Option<Arc<Message>> {
        self.answer_message(query.response(), true).map(Arc::new)
    }

    /// Answers a parsed wire view without ever materializing an owned query
    /// `Message`; the answer carries the view's id. The transports answer
    /// through [`Server::respond_into`] instead, which memoizes encoded
    /// answers.
    pub fn handle_view(&self, view: &MessageView<'_>) -> Option<Arc<Message>> {
        self.answer_message(response_skeleton(view), true)
            .map(Arc::new)
    }

    /// The original unindexed answer path: every lookup is a fresh linear
    /// scan. Kept as the semantic reference the indexed and memoized paths
    /// are property-tested against.
    pub fn handle_uncached(&self, query: &Message) -> Option<Message> {
        self.answer_message(query.response(), false)
    }

    /// Resolves into `resp`, the empty response to a query (its question
    /// and EDNS state echoed): the owned answer of the in-process entry
    /// points.
    fn answer_message(&self, resp: Message, indexed: bool) -> Option<Message> {
        let zone = resp
            .question
            .as_ref()
            .and_then(|q| self.best_zone(|apex| q.qname.is_subdomain_of(apex)));
        let question = resp
            .question
            .as_ref()
            .map(|q| (WireName::from_name(&q.qname), q.qtype));
        let dnssec = resp.edns.is_some_and(|e| e.dnssec_ok);
        let mut sink = MessageSink(resp);
        let question = question.as_ref().map(|(qname, qtype)| (qname, *qtype));
        self.resolve(question, zone, dnssec, indexed, &mut sink)
            .then_some(sink.0)
    }

    /// The one resolution core behind every entry point: writes the answer
    /// to `question` (its name and type), asked of `zone` (the deepest
    /// hosted zone holding the name), into `sink`, or returns false when
    /// the server is unresponsive. With `indexed`, lookups go through the
    /// zone's per-generation index; without, every lookup is the original
    /// linear scan.
    fn resolve<S: Sink>(
        &self,
        question: Option<(&WireName, RrType)>,
        zone: Option<&Zone>,
        dnssec: bool,
        indexed: bool,
        sink: &mut S,
    ) -> bool {
        match self.behavior {
            ServerBehavior::Unresponsive => return false,
            ServerBehavior::Refuses => {
                sink.rcode(Rcode::Refused);
                return true;
            }
            ServerBehavior::Normal => {}
        }
        let Some((qname, qtype)) = question else {
            sink.rcode(Rcode::FormErr);
            return true;
        };
        match zone {
            None => sink.rcode(Rcode::Refused),
            // AXFR (RFC 5936): the SOA-bracketed zone for an exact apex
            // match, REFUSED below it.
            Some(zone) if qtype == RrType::Axfr => {
                if qname.label_count() == zone.apex().label_count() {
                    sink.aa(true);
                    axfr(zone, sink);
                } else {
                    sink.rcode(Rcode::Refused);
                }
            }
            Some(zone) => {
                let index = indexed.then(|| self.indexes.index_for(zone));
                let lookup = match index.as_deref() {
                    Some(index) => Lookup::Indexed(zone, index),
                    None => Lookup::Naive(zone),
                };
                let q = Query {
                    name: qname,
                    qtype,
                    dnssec,
                };
                answer_from_zone(&lookup, &q, sink);
            }
        }
        true
    }

    /// Answers a parsed query view into `buf` (cleared first): the one
    /// entry point of the UDP and TCP transports. Returns whether `buf`
    /// holds a response to send; an unresponsive server sends nothing.
    ///
    /// An answer longer than `limit` bytes is rewritten into its RFC 1035
    /// §4.2.1 truncated form ([`wire::truncate_into`], or
    /// [`wire::truncate_in_place`] for a miss's answer) so the client
    /// retries over TCP. The bytes are those of [`Server::handle_view`]'s
    /// answer, encoded and truncated by that rule.
    ///
    /// A miss is resolved straight into `buf` through a [`wire::Writer`]:
    /// no `Message` is built. Answers to in-zone, non-AXFR questions are
    /// memoized encoded, keyed on the question bytes of the view (a zone
    /// write empties the memo), from the second time a key misses on: a
    /// question asked once stores nothing. A hit is a copy of the stored
    /// bytes with the query's id and qname spelling stamped into them, and
    /// allocates nothing.
    pub fn respond_into(&self, view: &MessageView<'_>, limit: usize, buf: &mut Vec<u8>) -> bool {
        const WELL_FORMED: &str = "the encoder writes well-formed messages";
        let question = view.question();
        // The zone is picked once: only in-zone answers are memoized.
        let zone = question
            .filter(|_| self.behavior == ServerBehavior::Normal)
            .and_then(|q| self.best_zone(|apex| q.qname().is_subdomain_of(apex)));
        // AXFR answers are rare and large, exactly what the memo should not
        // hold.
        let key = zone
            .filter(|_| question.is_some_and(|q| q.qtype() != RrType::Axfr))
            .and_then(|_| MemoKey::new(view));
        match key.as_ref().map(|key| self.memo.get(key)) {
            Some(MemoLookup::Hit(full)) if full.len() > limit => {
                wire::truncate_into(&full, buf).expect(WELL_FORMED)
            }
            Some(MemoLookup::Hit(full)) => {
                buf.clear();
                buf.extend_from_slice(&full);
            }
            miss => {
                // A miss lowercases the qname a second time, into the
                // `WireName` it walks: a hit, the common case, needs only
                // the key.
                let qname = question.map(|q| q.qname().to_wire_name());
                let mut sink = WireSink::new(buf, view, qname.as_ref());
                let question = qname.as_ref().zip(question.map(|q| q.qtype()));
                if !self.resolve(question, zone, view.dnssec_ok(), true, &mut sink) {
                    return false;
                }
                sink.finish();
                // Only a key seen before stores its answer: a question
                // asked once costs no copy and no key.
                if let (Some(key), Some(MemoLookup::Miss { admit: true })) = (key, miss) {
                    self.memo.insert(&key, Arc::from(buf.as_slice()));
                }
                // Truncated where it lies, so `buf` keeps its capacity.
                if buf.len() > limit {
                    wire::truncate_in_place(buf).expect(WELL_FORMED);
                }
            }
        }
        stamp_query(view, buf);
        true
    }
}

/// Writes the query's id and qname spelling into `answer`, the encoded
/// (possibly truncated) response to it. A memo hit carries those of the
/// query that filled the entry. The id takes no part in name compression,
/// and the compressor matches names case-insensitively, so the spelling
/// moves no pointer. The question is the answer's first name, written
/// whole at offset 12, with the label lengths of this query's qname (the
/// key matched them). The labels are read through the view because the
/// query's qname may be a compression pointer.
fn stamp_query(view: &MessageView<'_>, answer: &mut [u8]) {
    answer[0..2].copy_from_slice(&view.id().to_be_bytes());
    if let Some(q) = view.question() {
        let mut at = 12;
        for label in q.qname().labels() {
            answer[at + 1..at + 1 + label.len()].copy_from_slice(label);
            at += 1 + label.len();
        }
    }
}

/// Replicates `Message::response()` for a wire view, including the
/// question-less case (FORMERR/REFUSED replies to broken queries).
fn response_skeleton(view: &MessageView<'_>) -> Message {
    Message {
        id: view.id(),
        flags: response_flags(view),
        rcode: Rcode::NoError,
        question: view.question().map(|q| q.to_question()),
        answers: Vec::new(),
        authorities: Vec::new(),
        additionals: Vec::new(),
        edns: view.edns(),
    }
}

/// The flags of a response to `view` before resolution sets AA.
fn response_flags(view: &MessageView<'_>) -> Flags {
    Flags {
        qr: true,
        rd: view.flags().rd,
        ..Flags::default()
    }
}

/// Whose name a sink writes records under: the set's own owner, or the
/// query name (a wildcard expansion).
#[derive(Debug, Clone, Copy)]
enum Owner {
    Set,
    Query,
}

/// Where a resolution writes its answer, in section order: an owned
/// [`Message`] for the in-process entry points ([`MessageSink`]), the send
/// buffer for the transports ([`WireSink`]). Both receive the same calls,
/// so both hold the same answer.
trait Sink {
    fn aa(&mut self, aa: bool);
    fn rcode(&mut self, rcode: Rcode);
    /// The records of `set`.
    fn rrset(&mut self, section: Section, owner: Owner, set: &RRset);
    /// The RRSIGs in `sigset` that cover `covered`.
    fn sigs(&mut self, section: Section, owner: Owner, sigset: &RRset, covered: RrType);
    /// An indexed denial proof for the authority section: its set and
    /// that set's RRSIGs.
    fn proof(&mut self, zone: &Zone, proof: Proof<'_>);
}

/// Builds the owned answer: the records are cloned out of the zone.
struct MessageSink(Message);

impl MessageSink {
    fn section(&mut self, section: Section) -> &mut Vec<Record> {
        match section {
            Section::Answer => &mut self.0.answers,
            Section::Authority => &mut self.0.authorities,
            Section::Additional => &mut self.0.additionals,
        }
    }

    fn owner(&self, owner: Owner, set: &RRset) -> Name {
        match owner {
            Owner::Set => set.name.clone(),
            Owner::Query => self.0.question.as_ref().expect("asked").qname.clone(),
        }
    }
}

impl Sink for MessageSink {
    fn aa(&mut self, aa: bool) {
        self.0.flags.aa = aa;
    }

    fn rcode(&mut self, rcode: Rcode) {
        self.0.rcode = rcode;
    }

    fn rrset(&mut self, section: Section, owner: Owner, set: &RRset) {
        let owner = self.owner(owner, set);
        let records = set
            .rdatas
            .iter()
            .map(|rd| Record::new(owner.clone(), set.ttl, rd.clone()));
        self.section(section).extend(records);
    }

    fn sigs(&mut self, section: Section, owner: Owner, sigset: &RRset, covered: RrType) {
        let owner = self.owner(owner, sigset);
        let records = sigset
            .rdatas
            .iter()
            .filter(|rd| matches!(rd, RData::Rrsig(s) if s.type_covered == covered))
            .map(|rd| Record::new(owner.clone(), sigset.ttl, rd.clone()));
        self.section(section).extend(records);
    }

    fn proof(&mut self, zone: &Zone, proof: Proof<'_>) {
        if let Some(set) = zone.get(proof.owner(), proof.rtype()) {
            push_set(zone, set, true, Section::Authority, self);
        }
    }
}

/// Writes the answer into a send buffer as it is resolved: records are
/// encoded from the zone's RRsets, proofs copied from the index's RR tails.
struct WireSink<'b, 'q> {
    writer: Writer<'b>,
    view: &'q MessageView<'q>,
    qname: Option<&'q WireName>,
    aa: bool,
    rcode: Rcode,
}

impl<'b, 'q> WireSink<'b, 'q> {
    /// Starts the response to `view` in `buf`: header and echoed question.
    fn new(buf: &'b mut Vec<u8>, view: &'q MessageView<'q>, qname: Option<&'q WireName>) -> Self {
        let mut writer = Writer::new(buf, view.id());
        if let Some(q) = view.question() {
            writer.question(&q.qname(), q.qtype(), q.qclass());
        }
        WireSink {
            writer,
            view,
            qname,
            aa: false,
            rcode: Rcode::NoError,
        }
    }

    fn finish(self) {
        let flags = Flags {
            aa: self.aa,
            ..response_flags(self.view)
        };
        self.writer.finish(flags, self.rcode, self.view.edns());
    }

    fn record(&mut self, section: Section, owner: Owner, set_owner: &Name, ttl: u32, rd: &RData) {
        match owner {
            Owner::Set => self.writer.record(section, set_owner, RrClass::In, ttl, rd),
            Owner::Query => {
                let qname = self.qname.expect("asked").suffix(0);
                self.writer.record(section, &qname, RrClass::In, ttl, rd)
            }
        }
    }
}

impl Sink for WireSink<'_, '_> {
    fn aa(&mut self, aa: bool) {
        self.aa = aa;
    }

    fn rcode(&mut self, rcode: Rcode) {
        self.rcode = rcode;
    }

    fn rrset(&mut self, section: Section, owner: Owner, set: &RRset) {
        for rd in &set.rdatas {
            self.record(section, owner, &set.name, set.ttl, rd);
        }
    }

    fn sigs(&mut self, section: Section, owner: Owner, sigset: &RRset, covered: RrType) {
        for rd in &sigset.rdatas {
            if matches!(rd, RData::Rrsig(s) if s.type_covered == covered) {
                self.record(section, owner, &sigset.name, sigset.ttl, rd);
            }
        }
    }

    fn proof(&mut self, _: &Zone, proof: Proof<'_>) {
        self.writer
            .tails(Section::Authority, proof.owner(), proof.tails());
    }
}

/// A question as resolution sees it: the query name split once into its
/// canonical wire form, whose ancestors are suffixes of it.
struct Query<'q> {
    name: &'q WireName,
    qtype: RrType,
    dnssec: bool,
}

impl Query<'_> {
    /// The query name with its `k` leftmost labels dropped.
    fn up(&self, k: usize) -> Suffix<'_> {
        self.name.suffix(k)
    }
}

/// How a resolution finds names in its zone: through the per-generation
/// [`ZoneIndex`], or by the original linear scans (the reference path).
enum Lookup<'z> {
    Indexed(&'z Zone, &'z ZoneIndex),
    Naive(&'z Zone),
}

impl<'z> Lookup<'z> {
    fn zone(&self) -> &'z Zone {
        match self {
            Lookup::Indexed(zone, _) | Lookup::Naive(zone) => zone,
        }
    }

    /// True if `name` owns records or has a descendant that does (an
    /// empty non-terminal must not produce NXDOMAIN).
    fn exists(&self, name: Suffix<'_>) -> bool {
        match self {
            Lookup::Indexed(_, index) => index.exists(name.wire()),
            Lookup::Naive(zone) => {
                let name = name.to_name();
                zone.has_name(&name) || zone.names().any(|n| n.is_strict_subdomain_of(&name))
            }
        }
    }

    /// The RRset of `rtype` at `name`.
    fn get(&self, name: Suffix<'_>, rtype: RrType) -> Option<&'z RRset> {
        match self {
            Lookup::Indexed(zone, index) => index
                .has_type(name.wire(), rtype)
                .then(|| zone.get_labels(&name, rtype))
                .flatten(),
            Lookup::Naive(zone) => zone.get(&name.to_name(), rtype),
        }
    }

    /// The deepest delegation point at or above the query name (below the
    /// apex), as the number of labels it drops from the query name.
    fn cut(&self, q: &Query<'_>, apex_k: usize) -> Option<usize> {
        match self {
            Lookup::Indexed(_, index) => (0..apex_k).find(|&k| index.is_cut(q.up(k).wire())),
            Lookup::Naive(zone) => zone
                .delegation_covering(&q.up(0).to_name())
                .map(|cut| q.name.label_count() - cut.label_count()),
        }
    }
}

/// The AXFR record stream: SOA first, everything else, SOA again
/// (RFC 5936 §2.2).
fn axfr(zone: &Zone, sink: &mut impl Sink) {
    let soa = zone.get(zone.apex(), RrType::Soa);
    if let Some(soa) = soa {
        sink.rrset(Section::Answer, Owner::Set, soa);
    }
    for set in zone.rrsets() {
        if set.rtype == RrType::Soa && set.name == *zone.apex() {
            continue;
        }
        sink.rrset(Section::Answer, Owner::Set, set);
    }
    if let Some(soa) = soa {
        sink.rrset(Section::Answer, Owner::Set, soa);
    }
}

/// Writes an RRset (and, when `dnssec`, its covering RRSIGs) to a section.
fn push_set(zone: &Zone, set: &RRset, dnssec: bool, section: Section, sink: &mut impl Sink) {
    sink.rrset(section, Owner::Set, set);
    if dnssec {
        if let Some(sigset) = zone.get(&set.name, RrType::Rrsig) {
            sink.sigs(section, Owner::Set, sigset, set.rtype);
        }
    }
}

/// What a negative answer denies, named by suffixes of the query name.
#[derive(Debug, Clone, Copy)]
enum Denial {
    /// The query name does not exist; `ce` labels up is its closest
    /// encloser.
    NxDomain { ce: usize },
    /// The name `at` labels up exists but has no data of the type asked.
    NoData { at: usize },
}

/// The main resolution algorithm over one zone. Both lookups produce the
/// same answer.
fn answer_from_zone(lk: &Lookup<'_>, q: &Query<'_>, sink: &mut impl Sink) {
    let zone = lk.zone();
    // Labels between the query name and the apex.
    let apex_k = q.name.label_count() - zone.apex().label_count();
    sink.aa(true);

    // 1. Delegation? (only when qname is below the cut, or at the cut and
    //    the query is not for DS — the DS lives in the parent.)
    if let Some(cut) = lk.cut(q, apex_k) {
        if cut != 0 || q.qtype != RrType::Ds {
            referral(lk, q, cut, sink);
            return;
        }
    }

    if !lk.exists(q.up(0)) {
        // The closest encloser: the deepest existing ancestor, found once
        // for wildcard synthesis and the denial proof.
        let ce = (1..=apex_k).find(|&k| lk.exists(q.up(k)));
        // Wildcard synthesis (RFC 1034 §4.3.3 / RFC 4035 §3.1.3.3): if
        // `*.<closest encloser>` holds the type, expand it; the answer
        // carries the wildcard's RRSIG (fewer labels than the owner) plus
        // the proof that the exact name does not exist.
        let wildcard = ce
            .and_then(|ce| WireName::wildcard(q.up(ce)))
            .and_then(|wc| lk.get(wc.suffix(0), q.qtype));
        let denial = Denial::NxDomain {
            ce: ce.unwrap_or(apex_k),
        };
        match wildcard {
            Some(set) => {
                sink.rrset(Section::Answer, Owner::Query, set);
                if q.dnssec {
                    if let Some(sigset) = zone.get(&set.name, RrType::Rrsig) {
                        sink.sigs(Section::Answer, Owner::Query, sigset, q.qtype);
                    }
                    // Prove the exact qname does not exist.
                    attach_denial(lk, q, denial, sink);
                }
            }
            None => negative(lk, q, denial, sink),
        }
        return;
    }

    // 2. Exact data?
    if let Some(set) = lk.get(q.up(0), q.qtype) {
        push_set(zone, set, q.dnssec, Section::Answer, sink);
        return;
    }

    // 3. CNAME?
    if q.qtype != RrType::Cname {
        if let Some(cname) = lk.get(q.up(0), RrType::Cname) {
            push_set(zone, cname, q.dnssec, Section::Answer, sink);
            return;
        }
    }

    // 4. NODATA.
    negative(lk, q, Denial::NoData { at: 0 }, sink);
}

/// Writes a referral for the delegation `cut` labels up from the query
/// name.
fn referral(lk: &Lookup<'_>, q: &Query<'_>, cut: usize, sink: &mut impl Sink) {
    let zone = lk.zone();
    sink.aa(false);
    let ns = lk.get(q.up(cut), RrType::Ns);
    if let Some(ns) = ns {
        push_set(zone, ns, q.dnssec, Section::Authority, sink);
    }
    if q.dnssec {
        if let Some(ds) = lk.get(q.up(cut), RrType::Ds) {
            push_set(zone, ds, q.dnssec, Section::Authority, sink);
        } else {
            // Signed zone without DS at the cut: prove its absence.
            attach_denial(lk, q, Denial::NoData { at: cut }, sink);
        }
    }
    // Glue.
    if let Some(ns) = ns {
        for rd in &ns.rdatas {
            if let RData::Ns(host) = rd {
                if host.is_subdomain_of(&ns.name) {
                    for t in [RrType::A, RrType::Aaaa] {
                        if let Some(glue) = zone.get(host, t) {
                            sink.rrset(Section::Additional, Owner::Set, glue);
                        }
                    }
                }
            }
        }
    }
}

/// Writes an NXDOMAIN or NODATA answer with SOA and denial records.
fn negative(lk: &Lookup<'_>, q: &Query<'_>, denial: Denial, sink: &mut impl Sink) {
    let zone = lk.zone();
    if let Denial::NxDomain { .. } = denial {
        sink.rcode(Rcode::NxDomain);
    }
    if let Some(soa) = zone.get(zone.apex(), RrType::Soa) {
        push_set(zone, soa, q.dnssec, Section::Authority, sink);
    }
    if q.dnssec {
        attach_denial(lk, q, denial, sink);
    }
}

/// Attaches the NSEC or NSEC3 proof records the zone can actually supply.
fn attach_denial(lk: &Lookup<'_>, q: &Query<'_>, denial: Denial, sink: &mut impl Sink) {
    match *lk {
        Lookup::Indexed(zone, index) if index.uses_nsec3() => {
            indexed_nsec3_denial(zone, index, q, denial, sink)
        }
        Lookup::Indexed(zone, index) => indexed_nsec_denial(zone, index, q, denial, sink),
        Lookup::Naive(zone) => {
            if zone
                .rrsets()
                .any(|s| s.rtype == RrType::Nsec3 || s.rtype == RrType::Nsec3Param)
            {
                naive_nsec3_denial(zone, q, denial, sink);
            } else {
                naive_nsec_denial(zone, q, denial, sink);
            }
        }
    }
}

/// Writes each proof once, in order (a set may prove several targets).
fn write_proofs<'a>(
    zone: &Zone,
    proofs: impl IntoIterator<Item = Option<Proof<'a>>>,
    sink: &mut impl Sink,
) {
    let mut written: [Option<&Name>; 3] = [None; 3];
    for (i, proof) in proofs.into_iter().flatten().enumerate() {
        if !written
            .iter()
            .flatten()
            .any(|&owner| owner == proof.owner())
        {
            written[i] = Some(proof.owner());
            sink.proof(zone, proof);
        }
    }
}

fn indexed_nsec_denial(
    zone: &Zone,
    index: &ZoneIndex,
    q: &Query<'_>,
    denial: Denial,
    sink: &mut impl Sink,
) {
    match denial {
        Denial::NxDomain { ce } => {
            // The name itself, and the wildcard at its closest encloser.
            let wildcard = WireName::wildcard(q.up(ce));
            let proofs = [
                index.find_first_nsec(&q.up(0), true),
                wildcard.and_then(|w| index.find_first_nsec(&w.suffix(0), true)),
            ];
            write_proofs(zone, proofs, sink);
        }
        Denial::NoData { at } => {
            write_proofs(zone, [index.find_first_nsec(&q.up(at), false)], sink);
        }
    }
}

/// The closest-encloser proof (RFC 5155 §7.2.1): a match for the closest
/// encloser, a cover for the next closer name, and for the wildcard at the
/// closest encloser a cover, else a match. Each target is hashed once; the
/// closest encloser, its wildcard and a NODATA name come from the index's
/// per-generation hashes.
fn indexed_nsec3_denial(
    zone: &Zone,
    index: &ZoneIndex,
    q: &Query<'_>,
    denial: Denial,
    sink: &mut impl Sink,
) {
    let Some((salt, iterations)) = index.nsec3_params() else {
        return;
    };
    let find_match = |wire: &[u8]| {
        index
            .nsec3_hash(wire)
            .and_then(|h| index.find_nsec3_match(&h))
    };
    match denial {
        Denial::NxDomain { ce } => {
            let next_closer = ce
                .checked_sub(1)
                .map(|nc| nsec3_hash_wire(q.up(nc).wire(), salt, iterations));
            let wildcard = WireName::wildcard(q.up(ce)).and_then(|w| index.nsec3_hash(w.wire()));
            let proofs = [
                find_match(q.up(ce).wire()),
                next_closer.and_then(|h| index.find_nsec3_cover(&h)),
                wildcard.and_then(|h| {
                    index
                        .find_nsec3_cover(&h)
                        .or_else(|| index.find_nsec3_match(&h))
                }),
            ];
            write_proofs(zone, proofs, sink);
        }
        Denial::NoData { at } => {
            write_proofs(zone, [find_match(q.up(at).wire())], sink);
        }
    }
}

/// The NSEC proof by linear scan: the first NSEC set (canonical order)
/// proving each target.
fn naive_nsec_denial(zone: &Zone, q: &Query<'_>, denial: Denial, sink: &mut impl Sink) {
    let (nxdomain, wanted) = match denial {
        Denial::NxDomain { ce } => {
            let wildcard = q.up(ce).to_name().child("*").ok();
            (true, [Some(q.up(0).to_name()), wildcard])
        }
        Denial::NoData { at } => (false, [Some(q.up(at).to_name()), None]),
    };
    let mut added: Vec<Name> = Vec::new();
    for target in wanted.into_iter().flatten() {
        let found = zone.rrsets().filter(|s| s.rtype == RrType::Nsec).find(|s| {
            if nxdomain || s.name != target {
                s.rdatas.iter().any(|rd| match rd {
                    RData::Nsec(n) => {
                        ddx_dnssec::nsec_covers(&s.name, &n.next_name, &target) || s.name == target
                    }
                    _ => false,
                })
            } else {
                true
            }
        });
        if let Some(set) = found {
            if !added.contains(&set.name) {
                added.push(set.name.clone());
                push_set(zone, set, true, Section::Authority, sink);
            }
        }
    }
}

/// One NSEC3 record to hunt for: an exact hash match, a covering arc, or
/// (for the wildcard proof) cover-preferred-then-match.
enum Nsec3Target {
    Match(Name),
    Cover(Name),
    CoverOrMatch(Name),
}

/// The NSEC3 proof by linear scan over the zone's NSEC3 sets.
fn naive_nsec3_denial(zone: &Zone, q: &Query<'_>, denial: Denial, sink: &mut impl Sink) {
    let mut targets = Vec::new();
    match denial {
        Denial::NxDomain { ce } => {
            let ce_name = q.up(ce).to_name();
            targets.push(Nsec3Target::Match(ce_name.clone()));
            if ce >= 1 {
                targets.push(Nsec3Target::Cover(q.up(ce - 1).to_name()));
            }
            if let Ok(w) = ce_name.child("*") {
                targets.push(Nsec3Target::CoverOrMatch(w));
            }
        }
        Denial::NoData { at } => targets.push(Nsec3Target::Match(q.up(at).to_name())),
    }
    // Parameters from any NSEC3 record (fall back to NSEC3PARAM).
    let params = zone
        .rrsets()
        .find_map(|s| match s.rdatas.first() {
            Some(RData::Nsec3(n3)) if s.rtype == RrType::Nsec3 => {
                Some((n3.salt.clone(), n3.iterations))
            }
            _ => None,
        })
        .or_else(|| {
            zone.get(zone.apex(), RrType::Nsec3Param)
                .and_then(|s| match s.rdatas.first() {
                    Some(RData::Nsec3Param(p)) => Some((p.salt.clone(), p.iterations)),
                    _ => None,
                })
        });
    let Some((salt, iterations)) = params else {
        return;
    };

    let nsec3_sets: Vec<(&RRset, &Nsec3)> = zone
        .rrsets()
        .filter(|s| s.rtype == RrType::Nsec3)
        .filter_map(|s| match s.rdatas.first() {
            Some(RData::Nsec3(n3)) => Some((s, n3)),
            _ => None,
        })
        .collect();
    let owner_hash = |set: &RRset| -> Option<Vec<u8>> {
        let label = set.name.labels().first()?;
        base32::decode(std::str::from_utf8(label.as_bytes()).ok()?)
    };
    let find_match = |target: &Name| -> Option<&RRset> {
        let h = nsec3_hash(target, &salt, iterations);
        nsec3_sets
            .iter()
            .find(|(s, _)| owner_hash(s).as_deref() == Some(&h[..]))
            .map(|(s, _)| *s)
    };
    let find_cover = |target: &Name| -> Option<&RRset> {
        let h = nsec3_hash(target, &salt, iterations);
        nsec3_sets
            .iter()
            .find(|(s, n3)| {
                owner_hash(s)
                    .map(|oh| ddx_dnssec::hash_covered(&oh, &n3.next_hashed_owner, &h))
                    .unwrap_or(false)
            })
            .map(|(s, _)| *s)
    };
    let wanted: Vec<&RRset> = targets
        .iter()
        .filter_map(|t| match t {
            Nsec3Target::Match(n) => find_match(n),
            Nsec3Target::Cover(n) => find_cover(n),
            Nsec3Target::CoverOrMatch(n) => find_cover(n).or_else(|| find_match(n)),
        })
        .collect();
    let mut added: Vec<Name> = Vec::new();
    for set in wanted {
        if !added.contains(&set.name) {
            added.push(set.name.clone());
            push_set(zone, set, true, Section::Authority, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{name, Soa};
    use ddx_dnssec::{sign_zone, Algorithm, KeyPair, KeyRing, KeyRole, Nsec3Config, SignerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_000_000;

    fn plain_zone() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        z.add(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        z.add(Record::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        z.add(Record::new(
            name("alias.example.com"),
            300,
            RData::Cname(name("www.example.com")),
        ));
        z.add(Record::new(
            name("sub.example.com"),
            3600,
            RData::Ns(name("ns1.sub.example.com")),
        ));
        z.add(Record::new(
            name("ns1.sub.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        z
    }

    fn signed_zone(nsec3: bool) -> Zone {
        let mut z = plain_zone();
        let mut ring = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(5);
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            ring.add(KeyPair::generate(
                &mut rng,
                name("example.com"),
                Algorithm::EcdsaP256Sha256,
                256,
                role,
                NOW,
            ));
        }
        let cfg = if nsec3 {
            SignerConfig::nsec3_at(NOW, Nsec3Config::default())
        } else {
            SignerConfig::nsec_at(NOW)
        };
        sign_zone(&mut z, &ring, &cfg, NOW).unwrap();
        z
    }

    fn server(zone: Zone) -> Server {
        let mut s = Server::new(ServerId("test#0".into()));
        s.load_zone(zone);
        s
    }

    fn ask(s: &Server, qname: &str, qtype: RrType) -> Arc<Message> {
        s.handle_arc(&Message::query(1, name(qname), qtype))
            .unwrap()
    }

    #[test]
    fn positive_answer_with_sigs() {
        let s = server(signed_zone(false));
        let r = ask(&s, "www.example.com", RrType::A);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.flags.aa);
        assert!(r.find_answer(&name("www.example.com"), RrType::A).is_some());
        assert!(
            !Message::sigs_covering(&r.answers, &name("www.example.com"), RrType::A).is_empty()
        );
    }

    #[test]
    fn plain_query_omits_sigs() {
        let s = server(signed_zone(false));
        let mut q = Message::query(1, name("www.example.com"), RrType::A);
        q.edns = None;
        let r = s.handle_arc(&q).unwrap();
        assert!(Message::sigs_covering(&r.answers, &name("www.example.com"), RrType::A).is_empty());
    }

    #[test]
    fn cname_answered() {
        let s = server(signed_zone(false));
        let r = ask(&s, "alias.example.com", RrType::A);
        assert!(r
            .find_answer(&name("alias.example.com"), RrType::Cname)
            .is_some());
    }

    #[test]
    fn nxdomain_with_nsec_proof() {
        let s = server(signed_zone(false));
        let r = ask(&s, "nope.example.com", RrType::A);
        assert_eq!(r.rcode, Rcode::NxDomain);
        let nsecs: Vec<_> = r
            .authorities
            .iter()
            .filter(|rec| rec.rtype() == RrType::Nsec)
            .collect();
        assert!(!nsecs.is_empty(), "NXDOMAIN must carry NSEC proof");
        // SOA present too.
        assert!(r.authorities.iter().any(|rec| rec.rtype() == RrType::Soa));
    }

    #[test]
    fn nodata_with_nsec_proof() {
        let s = server(signed_zone(false));
        let r = ask(&s, "www.example.com", RrType::Aaaa);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert!(r
            .authorities
            .iter()
            .any(|rec| rec.rtype() == RrType::Nsec && rec.name == name("www.example.com")));
    }

    #[test]
    fn nxdomain_with_nsec3_proof() {
        let s = server(signed_zone(true));
        let r = ask(&s, "nope.example.com", RrType::A);
        assert_eq!(r.rcode, Rcode::NxDomain);
        let views: Vec<(Name, Nsec3)> = r
            .authorities
            .iter()
            .filter_map(|rec| match &rec.rdata {
                RData::Nsec3(n3) => Some((rec.name.clone(), n3.clone())),
                _ => None,
            })
            .collect();
        assert!(!views.is_empty());
        // The records the server chose must form a verifiable
        // closest-encloser proof.
        let refs: Vec<(&Name, &Nsec3)> = views.iter().map(|(o, n)| (o, n)).collect();
        ddx_dnssec::verify_nsec3_denial(
            &name("nope.example.com"),
            RrType::A,
            ddx_dnssec::DenialKind::NxDomain,
            &refs,
            &name("example.com"),
        )
        .unwrap();
    }

    #[test]
    fn referral_without_aa() {
        let s = server(signed_zone(false));
        let r = ask(&s, "x.sub.example.com", RrType::A);
        assert!(!r.flags.aa);
        assert!(r
            .authorities
            .iter()
            .any(|rec| rec.rtype() == RrType::Ns && rec.name == name("sub.example.com")));
        // Glue comes along.
        assert!(r
            .additionals
            .iter()
            .any(|rec| rec.name == name("ns1.sub.example.com")));
        // Unsigned delegation in a signed zone: NSEC proves no DS.
        assert!(r
            .authorities
            .iter()
            .any(|rec| rec.rtype() == RrType::Nsec && rec.name == name("sub.example.com")));
    }

    #[test]
    fn ds_at_cut_answered_from_parent() {
        let mut zone = signed_zone(false);
        // Pretend the child is signed: parent holds a DS.
        zone.add(Record::new(
            name("sub.example.com"),
            3600,
            RData::Ds(ddx_dns::Ds {
                key_tag: 1,
                algorithm: 13,
                digest_type: 2,
                digest: vec![0; 32],
            }),
        ));
        let s = server(zone);
        let r = ask(&s, "sub.example.com", RrType::Ds);
        assert!(r
            .find_answer(&name("sub.example.com"), RrType::Ds)
            .is_some());
    }

    #[test]
    fn ent_gives_nodata_not_nxdomain() {
        let mut zone = plain_zone();
        zone.add(Record::new(
            name("a.ent.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        ));
        let s = server(zone);
        let r = ask(&s, "ent.example.com", RrType::A);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn refused_outside_zones() {
        let s = server(plain_zone());
        let r = ask(&s, "other.org", RrType::A);
        assert_eq!(r.rcode, Rcode::Refused);
    }

    #[test]
    fn behaviors() {
        let mut s = server(plain_zone());
        s.behavior = ServerBehavior::Refuses;
        assert_eq!(ask(&s, "www.example.com", RrType::A).rcode, Rcode::Refused);
        s.behavior = ServerBehavior::Unresponsive;
        assert!(s
            .handle_arc(&Message::query(1, name("www.example.com"), RrType::A))
            .is_none());
    }

    #[test]
    fn best_zone_picks_deepest() {
        let mut s = Server::new(ServerId("multi#0".into()));
        s.load_zone(plain_zone());
        let mut child = Zone::new(name("sub.example.com"));
        child.add(Record::new(
            name("sub.example.com"),
            3600,
            RData::Soa(Soa {
                mname: name("ns1.sub.example.com"),
                rname: name("hostmaster.sub.example.com"),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        child.add(Record::new(
            name("w.sub.example.com"),
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 1)),
        ));
        s.load_zone(child);
        let r = ask(&s, "w.sub.example.com", RrType::A);
        assert!(r.flags.aa);
        assert!(r
            .find_answer(&name("w.sub.example.com"), RrType::A)
            .is_some());
    }

    /// The transport answer to `qname`/`qtype`, decoded.
    fn respond(s: &Server, qname: &str, qtype: RrType) -> Message {
        let bytes = ddx_dns::wire::encode(&Message::query(1, name(qname), qtype));
        let view = MessageView::parse(&bytes).unwrap();
        let mut buf = Vec::new();
        assert!(s.respond_into(&view, usize::from(u16::MAX), &mut buf));
        ddx_dns::wire::decode(&buf).unwrap()
    }

    #[test]
    fn truncated_miss_keeps_the_send_buffer() {
        let s = server(signed_zone(true));
        // A signed NSEC3 NXDOMAIN (stored on its second miss) and an AXFR
        // (never memoized), each a miss held to a limit it does not fit.
        for (qname, qtype) in [
            ("nope.example.com", RrType::A),
            ("example.com", RrType::Axfr),
        ] {
            let mut q = Message::query(1, name(qname), qtype);
            q.edns = Some(ddx_dns::Edns {
                udp_size: 1232,
                dnssec_ok: true,
            });
            let bytes = ddx_dns::wire::encode(&q);
            let view = MessageView::parse(&bytes).unwrap();
            for miss in ["first", "second"] {
                let mut buf = Vec::with_capacity(4096);
                assert!(s.respond_into(&view, 256, &mut buf));
                assert!(buf.len() <= 256 && buf[2] & 0x02 != 0, "{qname}: TC answer");
                assert!(
                    buf.capacity() >= 4096,
                    "{qname} {miss} miss: send buffer shrank"
                );
            }
        }
    }

    #[test]
    fn mutation_bumps_generation_and_evicts_stale_answers() {
        let mut s = server(signed_zone(false));
        let before = respond(&s, "www.example.com", RrType::A);
        assert!(before
            .find_answer(&name("www.example.com"), RrType::A)
            .is_some());
        // The second ask stores the answer; the third is a memo hit with the
        // same bytes.
        assert_eq!(respond(&s, "www.example.com", RrType::A), before);
        let hits = ddx_obs::counter("server.answer_memo.hits", &[]);
        let hits_before = hits.get();
        assert_eq!(respond(&s, "www.example.com", RrType::A), before);
        assert!(hits.get() > hits_before, "the repeat must hit the memo");

        let apex = name("example.com");
        let gen_before = s.zone(&apex).unwrap().generation();
        s.zone_mut(&apex)
            .unwrap()
            .remove(&name("www.example.com"), RrType::A);
        assert!(s.zone(&apex).unwrap().generation() > gen_before);

        // The stale memoized answer is unreachable under the new
        // generation: the same question now reflects the mutation.
        let after = respond(&s, "www.example.com", RrType::A);
        assert!(after
            .find_answer(&name("www.example.com"), RrType::A)
            .is_none());
    }

    #[test]
    fn view_path_matches_owned_path_modulo_id_stamp() {
        use ddx_dns::wire;
        for behavior in [ServerBehavior::Normal, ServerBehavior::Refuses] {
            let mut s = server(signed_zone(false));
            s.behavior = behavior;
            for (qname, qtype) in [
                ("www.example.com", RrType::A),
                ("nope.example.com", RrType::A),
                ("x.sub.example.com", RrType::A),
                ("example.com", RrType::Soa),
                ("example.com", RrType::Axfr),
                ("sub.example.com", RrType::Axfr),
                ("other.org", RrType::A),
            ] {
                let q = Message::query(0x55AA, name(qname), qtype);
                let bytes = wire::encode(&q);
                let view = MessageView::parse(&bytes).expect("query parses");
                let owned = s.handle_arc(&q).expect("answer");
                let viewed = s.handle_view(&view).expect("answer");
                assert_eq!(
                    wire::encode(&viewed),
                    wire::encode(&owned),
                    "{behavior:?} {qname}/{qtype:?}"
                );
            }
        }

        // Question-less queries: FORMERR from both paths.
        let s = server(signed_zone(false));
        let mut broken = Message::query(9, name("www.example.com"), RrType::A);
        broken.question = None;
        let bytes = wire::encode(&broken);
        let view = MessageView::parse(&bytes).expect("parses");
        assert_eq!(s.handle_view(&view), s.handle_arc(&broken));
        assert_eq!(s.handle_arc(&broken).unwrap().rcode, Rcode::FormErr);

        // Unresponsive servers answer neither path.
        let mut mute = server(plain_zone());
        mute.behavior = ServerBehavior::Unresponsive;
        assert!(mute.handle_view(&view).is_none());
    }

    #[test]
    fn cached_path_matches_uncached_path() {
        for nsec3 in [false, true] {
            let s = server(signed_zone(nsec3));
            for qname in [
                "www.example.com",
                "nope.example.com",
                "x.sub.example.com",
                "sub.example.com",
                "ent.example.com",
                "example.com",
            ] {
                for qtype in [RrType::A, RrType::Aaaa, RrType::Ds, RrType::Soa] {
                    let q = Message::query(9, name(qname), qtype);
                    assert_eq!(
                        s.handle_arc(&q).as_deref(),
                        s.handle_uncached(&q).as_ref(),
                        "{qname}/{qtype:?} nsec3={nsec3}"
                    );
                }
            }
        }
    }
}

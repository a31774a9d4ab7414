//! A single in-memory authoritative nameserver instance: zone storage plus
//! the RFC 1034 §4.3.2 / RFC 4035 §3.1 query-resolution algorithm, including
//! DNSSEC-aware positive answers, referrals, and NSEC/NSEC3 negative
//! responses assembled from whatever chain the zone actually contains (so
//! injected misconfigurations surface faithfully in responses).
//!
//! Every entry point answers through one resolution core,
//! `Server::resolve`, which holds the behavior switch, FORMERR, REFUSED and
//! AXFR once. [`Server::handle_arc`] and [`Server::handle_view`] resolve
//! through per-generation lookup indexes (see [`crate::index`]), while
//! [`Server::handle_uncached`] recomputes every answer with the original
//! linear scans. The two are byte-identical by construction (the indexes
//! fall back to the same first-match scans on malformed chains) and a
//! property test pins that equivalence. The UDP and TCP transports answer
//! through [`Server::respond_into`], which memoizes the same answers encoded
//! (see [`crate::answer`]); it is the server's one answer cache.

use std::collections::HashMap;
use std::sync::Arc;

use ddx_json::{FromJson, ToJson};

use ddx_dns::{
    base32, wire, Flags, Message, MessageView, Name, Nsec3, RData, RRset, Rcode, Record, RrType,
    Zone,
};
use ddx_dnssec::nsec3_hash;

use crate::answer::{AnswerMemo, MemoKey};
use crate::index::{ZoneIndex, ZoneIndexes};

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
    /// Generation-keyed encoded answers, for the UDP/TCP transports.
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

    /// Loads (or replaces) a zone on this server.
    pub fn load_zone(&mut self, zone: Zone) {
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

    /// Mutable access — ZReplicator's error injection hooks in here. Any
    /// mutation through the returned zone bumps its generation, which
    /// implicitly evicts this server's memoized answers for it.
    pub fn zone_mut(&mut self, apex: &Name) -> Option<&mut Zone> {
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
        self.resolve(query.response(), true).map(Arc::new)
    }

    /// Answers a parsed wire view without ever materializing an owned query
    /// `Message`; the answer carries the view's id. The transports answer
    /// through [`Server::respond_into`] instead, which memoizes encoded
    /// answers.
    pub fn handle_view(&self, view: &MessageView<'_>) -> Option<Arc<Message>> {
        self.resolve(response_skeleton(view), true).map(Arc::new)
    }

    /// The original unindexed answer path: every lookup is a fresh linear
    /// scan. Kept as the semantic reference the indexed and memoized paths
    /// are property-tested against.
    pub fn handle_uncached(&self, query: &Message) -> Option<Message> {
        self.resolve(query.response(), false)
    }

    /// The one resolution core behind every entry point: fills `resp`, the
    /// empty response to a query (its question and EDNS state echoed), or
    /// returns `None` when the server is unresponsive. With `indexed`,
    /// lookups go through the zone's per-generation index; without, every
    /// lookup is the original linear scan.
    fn resolve(&self, mut resp: Message, indexed: bool) -> Option<Message> {
        match self.behavior {
            ServerBehavior::Unresponsive => return None,
            ServerBehavior::Refuses => {
                resp.rcode = Rcode::Refused;
                return Some(resp);
            }
            ServerBehavior::Normal => {}
        }
        let Some(q) = resp.question.take() else {
            resp.rcode = Rcode::FormErr;
            return Some(resp);
        };
        match self.best_zone(|apex| q.qname.is_subdomain_of(apex)) {
            None => resp.rcode = Rcode::Refused,
            // AXFR (RFC 5936): the SOA-bracketed zone for an exact apex
            // match, REFUSED below it.
            Some(zone) if q.qtype == RrType::Axfr => {
                if &q.qname == zone.apex() {
                    resp.flags.aa = true;
                    resp.answers = axfr_records(zone);
                } else {
                    resp.rcode = Rcode::Refused;
                }
            }
            Some(zone) => {
                let dnssec = resp.edns.is_some_and(|e| e.dnssec_ok);
                let index = indexed.then(|| self.indexes.index_for(zone));
                answer_from_zone(zone, &q.qname, q.qtype, dnssec, &mut resp, index.as_deref());
            }
        }
        resp.question = Some(q);
        Some(resp)
    }

    /// Answers a parsed query view into `buf` (cleared first): the one
    /// entry point of the UDP and TCP transports. Returns whether `buf`
    /// holds a response to send; an unresponsive server sends nothing.
    ///
    /// An answer longer than `limit` bytes is rewritten into its RFC 1035
    /// §4.2.1 truncated form ([`wire::truncate_into`]) so the client
    /// retries over TCP. The bytes are those of [`Server::handle_view`]'s
    /// answer, encoded and truncated by that rule.
    ///
    /// Answers to in-zone, non-AXFR questions are memoized encoded, keyed on
    /// the zone generation and the question bytes of the view: a hit is a
    /// copy of the stored bytes with the query's id and qname spelling
    /// stamped into them, and allocates nothing.
    pub fn respond_into(&self, view: &MessageView<'_>, limit: usize, buf: &mut Vec<u8>) -> bool {
        let truncate = |full: &[u8], buf: &mut Vec<u8>| {
            wire::truncate_into(full, buf).expect("the encoder writes well-formed messages");
        };
        let key = self.memo_key(view);
        match key.as_ref().and_then(|key| self.memo.get(key)) {
            Some(full) if full.len() > limit => truncate(&full, buf),
            Some(full) => {
                buf.clear();
                buf.extend_from_slice(&full);
            }
            None => {
                let Some(resp) = self.resolve(response_skeleton(view), true) else {
                    return false;
                };
                wire::encode_into(&resp, buf);
                let stored = key.map(|key| {
                    let full: Arc<[u8]> = Arc::from(buf.as_slice());
                    self.memo.insert(&key, Arc::clone(&full));
                    full
                });
                // Truncate from the stored answer (or a copy of an
                // unmemoized one), so `buf` keeps its capacity.
                if buf.len() > limit {
                    let full = stored.unwrap_or_else(|| Arc::from(buf.as_slice()));
                    truncate(&full, buf);
                }
            }
        }
        stamp_query(view, buf);
        true
    }

    /// The memo key of `view`, for a question a normal server answers from
    /// one of its zones other than by transfer (AXFR answers are rare and
    /// large, exactly what the memo should not hold); `None` otherwise.
    fn memo_key(&self, view: &MessageView<'_>) -> Option<MemoKey> {
        let q = view
            .question()
            .filter(|q| self.behavior == ServerBehavior::Normal && q.qtype() != RrType::Axfr)?;
        let zone = self.best_zone(|apex| q.qname().is_subdomain_of(apex))?;
        MemoKey::new(zone.generation(), view)
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
        flags: Flags {
            qr: true,
            rd: view.flags().rd,
            ..Flags::default()
        },
        rcode: Rcode::NoError,
        question: view.question().map(|q| q.to_question()),
        answers: Vec::new(),
        authorities: Vec::new(),
        additionals: Vec::new(),
        edns: view.edns(),
    }
}

/// The AXFR record stream: SOA first, everything else, SOA again
/// (RFC 5936 §2.2).
fn axfr_records(zone: &Zone) -> Vec<Record> {
    let mut out = Vec::with_capacity(zone.record_count() + 2);
    let soa_rec = zone
        .get(zone.apex(), RrType::Soa)
        .map(|s| s.to_records())
        .unwrap_or_default();
    out.extend(soa_rec.iter().cloned());
    for set in zone.rrsets() {
        if set.rtype == RrType::Soa && set.name == *zone.apex() {
            continue;
        }
        out.extend(set.to_records());
    }
    out.extend(soa_rec);
    out
}

/// Adds an RRset (and, when `dnssec`, its covering RRSIGs) to a section.
fn push_set(zone: &Zone, set: &RRset, dnssec: bool, section: &mut Vec<Record>) {
    section.extend(set.to_records());
    if dnssec {
        if let Some(sigset) = zone.get(&set.name, RrType::Rrsig) {
            for rd in &sigset.rdatas {
                if matches!(rd, RData::Rrsig(s) if s.type_covered == set.rtype) {
                    section.push(Record::new(set.name.clone(), sigset.ttl, rd.clone()));
                }
            }
        }
    }
}

/// True if any owner name in the zone is strictly below `name` (so `name`
/// is an empty non-terminal and must not produce NXDOMAIN). The indexed
/// path uses the zone's canonical-order range probe; the naive path keeps
/// the original full scan.
fn has_descendant(zone: &Zone, name: &Name, index: Option<&ZoneIndex>) -> bool {
    if index.is_some() {
        zone.has_descendant(name)
    } else {
        zone.names().any(|n| n.is_strict_subdomain_of(name))
    }
}

/// The main resolution algorithm over one zone. With `index` present,
/// existence checks and denial-record selection go through the
/// per-generation [`ZoneIndex`]; with `None` every lookup is the original
/// linear scan. Both produce byte-identical responses.
fn answer_from_zone(
    zone: &Zone,
    qname: &Name,
    qtype: RrType,
    dnssec: bool,
    resp: &mut Message,
    index: Option<&ZoneIndex>,
) {
    resp.flags.aa = true;

    // 1. Delegation? (only when qname is below the cut, or at the cut and
    //    the query is not for DS — the DS lives in the parent.)
    if let Some(cut) = zone.delegation_covering(qname) {
        let at_cut = qname == &cut;
        if !at_cut || qtype != RrType::Ds {
            referral(zone, &cut, dnssec, resp, index);
            return;
        }
    }

    let exists = zone.has_name(qname) || has_descendant(zone, qname, index);
    if !exists {
        // Wildcard synthesis (RFC 1034 §4.3.3 / RFC 4035 §3.1.3.3): if
        // `*.<closest encloser>` holds the type, expand it; the answer
        // carries the wildcard's RRSIG (fewer labels than the owner) plus
        // the proof that the exact name does not exist.
        if let Some((wc_owner, set)) = wildcard_match(zone, qname, qtype, index) {
            let mut expanded = set.clone();
            expanded.name = qname.clone();
            resp.answers.extend(expanded.to_records());
            if dnssec {
                if let Some(sigset) = zone.get(&wc_owner, RrType::Rrsig) {
                    for rd in &sigset.rdatas {
                        if matches!(rd, RData::Rrsig(s) if s.type_covered == qtype) {
                            resp.answers
                                .push(Record::new(qname.clone(), sigset.ttl, rd.clone()));
                        }
                    }
                }
                // Prove the exact qname does not exist.
                attach_denial(zone, qname, dnssec, true, resp, index);
            }
            return;
        }
        negative(zone, qname, dnssec, true, resp, index);
        return;
    }

    // 2. Exact data?
    if let Some(set) = zone.get(qname, qtype) {
        push_set(zone, set, dnssec, &mut resp.answers);
        return;
    }

    // 3. CNAME?
    if qtype != RrType::Cname {
        if let Some(cname) = zone.get(qname, RrType::Cname) {
            push_set(zone, cname, dnssec, &mut resp.answers);
            return;
        }
    }

    // 4. NODATA.
    negative(zone, qname, dnssec, false, resp, index);
}

/// Finds a wildcard RRset covering `qname` at its closest encloser.
fn wildcard_match<'a>(
    zone: &'a Zone,
    qname: &Name,
    qtype: RrType,
    index: Option<&ZoneIndex>,
) -> Option<(Name, &'a RRset)> {
    let mut ce = qname.parent();
    while let Some(c) = ce {
        if !c.is_subdomain_of(zone.apex()) {
            break;
        }
        if zone.has_name(&c) || has_descendant(zone, &c, index) {
            let wc = c.child("*").ok()?;
            return zone.get(&wc, qtype).map(|set| (wc, set));
        }
        ce = c.parent();
    }
    None
}

/// Builds a referral response for a delegation at `cut`.
fn referral(zone: &Zone, cut: &Name, dnssec: bool, resp: &mut Message, index: Option<&ZoneIndex>) {
    resp.flags.aa = false;
    if let Some(ns) = zone.get(cut, RrType::Ns) {
        push_set(zone, ns, dnssec, &mut resp.authorities);
        // Glue.
        for rd in &ns.rdatas {
            if let RData::Ns(host) = rd {
                if host.is_subdomain_of(cut) {
                    for t in [RrType::A, RrType::Aaaa] {
                        if let Some(glue) = zone.get(host, t) {
                            resp.additionals.extend(glue.to_records());
                        }
                    }
                }
            }
        }
    }
    if dnssec {
        if let Some(ds) = zone.get(cut, RrType::Ds) {
            push_set(zone, ds, dnssec, &mut resp.authorities);
        } else {
            // Signed zone without DS at the cut: prove its absence.
            attach_denial(zone, cut, dnssec, false, resp, index);
        }
    }
}

/// Builds an NXDOMAIN or NODATA response with SOA and denial records.
fn negative(
    zone: &Zone,
    qname: &Name,
    dnssec: bool,
    nxdomain: bool,
    resp: &mut Message,
    index: Option<&ZoneIndex>,
) {
    if nxdomain {
        resp.rcode = Rcode::NxDomain;
    }
    if let Some(soa) = zone.get(zone.apex(), RrType::Soa) {
        push_set(zone, soa, dnssec, &mut resp.authorities);
    }
    if dnssec {
        attach_denial(zone, qname, dnssec, nxdomain, resp, index);
    }
}

/// Attaches the NSEC or NSEC3 proof records the zone can actually supply.
fn attach_denial(
    zone: &Zone,
    qname: &Name,
    dnssec: bool,
    nxdomain: bool,
    resp: &mut Message,
    index: Option<&ZoneIndex>,
) {
    let uses_nsec3 = match index {
        Some(idx) => idx.uses_nsec3(),
        None => zone
            .rrsets()
            .any(|s| s.rtype == RrType::Nsec3 || s.rtype == RrType::Nsec3Param),
    };
    if uses_nsec3 {
        attach_nsec3_denial(zone, qname, dnssec, nxdomain, resp, index);
    } else {
        attach_nsec_denial(zone, qname, dnssec, nxdomain, resp, index);
    }
}

fn attach_nsec_denial(
    zone: &Zone,
    qname: &Name,
    dnssec: bool,
    nxdomain: bool,
    resp: &mut Message,
    index: Option<&ZoneIndex>,
) {
    let mut wanted: Vec<Name> = Vec::new();
    if nxdomain {
        wanted.push(qname.clone());
        // Wildcard at the closest existing ancestor.
        let mut ce = qname.parent();
        while let Some(c) = &ce {
            if zone.has_name(c) || has_descendant(zone, c, index) || c == zone.apex() {
                break;
            }
            ce = c.parent();
        }
        if let Some(ce) = ce {
            if let Ok(w) = ce.child("*") {
                wanted.push(w);
            }
        }
    } else {
        wanted.push(qname.clone());
    }

    let mut added: Vec<Name> = Vec::new();
    for target in wanted {
        let found = match index {
            Some(idx) => idx
                .find_first_nsec(&target, nxdomain, zone.apex())
                .and_then(|owner| zone.get(owner, RrType::Nsec)),
            None => zone.rrsets().filter(|s| s.rtype == RrType::Nsec).find(|s| {
                if nxdomain || s.name != target {
                    s.rdatas.iter().any(|rd| match rd {
                        RData::Nsec(n) => {
                            ddx_dnssec::nsec_covers(&s.name, &n.next_name, &target, zone.apex())
                                || s.name == target
                        }
                        _ => false,
                    })
                } else {
                    true
                }
            }),
        };
        if let Some(set) = found {
            if !added.contains(&set.name) {
                added.push(set.name.clone());
                push_set(zone, set, dnssec, &mut resp.authorities);
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

/// Assembles the closest-encloser / next-closer / wildcard NSEC3 targets in
/// the naive path's selection order.
fn nsec3_targets(
    zone: &Zone,
    qname: &Name,
    nxdomain: bool,
    index: Option<&ZoneIndex>,
) -> Vec<Nsec3Target> {
    let mut targets = Vec::new();
    if nxdomain {
        // Closest encloser: deepest ancestor that exists (by data or ENT).
        let mut ce = qname.parent();
        while let Some(c) = &ce {
            if zone.has_name(c) || has_descendant(zone, c, index) || c == zone.apex() {
                break;
            }
            ce = c.parent();
        }
        let ce = ce.unwrap_or_else(|| zone.apex().clone());
        targets.push(Nsec3Target::Match(ce.clone()));
        let labels = qname.labels();
        let nc_len = ce.label_count() + 1;
        if labels.len() >= nc_len {
            if let Ok(nc) = Name::from_labels(labels[labels.len() - nc_len..].to_vec()) {
                targets.push(Nsec3Target::Cover(nc));
            }
        }
        if let Ok(w) = ce.child("*") {
            targets.push(Nsec3Target::CoverOrMatch(w));
        }
    } else {
        targets.push(Nsec3Target::Match(qname.clone()));
    }
    targets
}

fn attach_nsec3_denial(
    zone: &Zone,
    qname: &Name,
    dnssec: bool,
    nxdomain: bool,
    resp: &mut Message,
    index: Option<&ZoneIndex>,
) {
    let targets = nsec3_targets(zone, qname, nxdomain, index);
    let wanted: Vec<&RRset> = match index {
        Some(idx) => {
            let Some((salt, iterations)) = idx.nsec3_params() else {
                return;
            };
            let find_match = |t: &Name| {
                idx.find_nsec3_match(t, salt, iterations)
                    .and_then(|owner| zone.get(owner, RrType::Nsec3))
            };
            let find_cover = |t: &Name| {
                idx.find_nsec3_cover(t, salt, iterations)
                    .and_then(|owner| zone.get(owner, RrType::Nsec3))
            };
            targets
                .iter()
                .filter_map(|t| match t {
                    Nsec3Target::Match(n) => find_match(n),
                    Nsec3Target::Cover(n) => find_cover(n),
                    Nsec3Target::CoverOrMatch(n) => find_cover(n).or_else(|| find_match(n)),
                })
                .collect()
        }
        None => {
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
            targets
                .iter()
                .filter_map(|t| match t {
                    Nsec3Target::Match(n) => find_match(n),
                    Nsec3Target::Cover(n) => find_cover(n),
                    Nsec3Target::CoverOrMatch(n) => find_cover(n).or_else(|| find_match(n)),
                })
                .collect()
        }
    };

    let mut added: Vec<Name> = Vec::new();
    for set in wanted {
        if !added.contains(&set.name) {
            added.push(set.name.clone());
            push_set(zone, set, dnssec, &mut resp.authorities);
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
        // A signed NSEC3 NXDOMAIN (memoized) and an AXFR (not memoized),
        // each a miss held to a limit it does not fit.
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
            let mut buf = Vec::with_capacity(4096);
            assert!(s.respond_into(&view, 256, &mut buf));
            assert!(buf.len() <= 256 && buf[2] & 0x02 != 0, "{qname}: TC answer");
            assert!(buf.capacity() >= 4096, "{qname}: send buffer shrank");
        }
    }

    #[test]
    fn mutation_bumps_generation_and_evicts_stale_answers() {
        let mut s = server(signed_zone(false));
        let before = respond(&s, "www.example.com", RrType::A);
        assert!(before
            .find_answer(&name("www.example.com"), RrType::A)
            .is_some());
        // The repeat is a memo hit with the same bytes.
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

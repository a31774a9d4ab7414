//! Domain names (RFC 1035 §3.1) with DNSSEC canonical ordering (RFC 4034 §6.1).
//!
//! A [`Name`] is a sequence of labels stored in presentation order (leftmost
//! label first) **without** the terminating empty root label. The root name
//! is the empty label sequence and displays as `"."`.
//!
//! Comparisons are case-insensitive per RFC 1035 §2.3.3; the original case is
//! preserved for display. [`Name::canonical_cmp`] implements the canonical
//! DNS name order used by NSEC chains and RRset canonicalization.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use ddx_json::{FromJson, ToJson};

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full name in wire format, including length octets and
/// the root label (RFC 1035 §2.3.4).
pub(crate) const MAX_NAME_LEN: usize = 255;

/// Errors produced while parsing or constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// The whole name exceeded 255 octets in wire form.
    NameTooLong(usize),
    /// An empty (zero-length) label appeared in a non-root position.
    EmptyLabel,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            NameError::EmptyLabel => write!(f, "empty label inside name"),
        }
    }
}

impl std::error::Error for NameError {}

/// A single label: up to 63 arbitrary octets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, ToJson, FromJson)]
pub struct Label(Vec<u8>);

impl Label {
    /// Creates a label from raw octets, rejecting over-long labels.
    pub(crate) fn new(bytes: &[u8]) -> Result<Self, NameError> {
        if bytes.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(bytes.len()));
        }
        Ok(Label(bytes.to_vec()))
    }

    /// Raw octets of the label.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in octets.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the zero-length label.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Case-insensitive equality (RFC 1035 §2.3.3).
    pub(crate) fn eq_ignore_case(&self, other: &Label) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    /// Canonical (case-insensitive, octet-wise) ordering of two labels:
    /// lowercased octets compared in place, a shorter prefix sorting first.
    pub fn canonical_cmp(&self, other: &Label) -> Ordering {
        label_cmp(&self.0, &other.0)
    }
}

/// [`Label::canonical_cmp`] on raw label octets.
fn label_cmp(a: &[u8], b: &[u8]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        if x != y {
            match x.to_ascii_lowercase().cmp(&y.to_ascii_lowercase()) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
    }
    a.len().cmp(&b.len())
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            match b {
                b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                0x21..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\{:03}", b)?,
            }
        }
        Ok(())
    }
}

/// A fully-qualified domain name.
#[derive(Debug, Clone, Eq, ToJson, FromJson)]
pub struct Name {
    labels: Vec<Label>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Builds a name from labels, leftmost first.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, NameError> {
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Parses dotted presentation format. A trailing dot is optional; names
    /// are always treated as fully qualified.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            labels.push(Label::new(part.as_bytes())?);
        }
        Name::from_labels(labels)
    }

    /// Labels, leftmost first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True iff this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Wire-format length including per-label length octets and the root
    /// terminator.
    pub(crate) fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Prepends a label, producing a child name (e.g. `www` + `example.com`
    /// → `www.example.com`).
    pub fn child(&self, label: &str) -> Result<Self, NameError> {
        let mut labels = vec![Label::new(label.as_bytes())?];
        labels.extend(self.labels.iter().cloned());
        Name::from_labels(labels)
    }

    /// The name with the leftmost label removed; `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// True if `self` equals `other` or is a descendant of it.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..]
            .iter()
            .zip(other.labels.iter())
            .all(|(a, b)| a.eq_ignore_case(b))
    }

    /// Strict subdomain: a descendant, not the name itself.
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.label_count() > other.label_count() && self.is_subdomain_of(other)
    }

    /// Canonical DNS name ordering (RFC 4034 §6.1): compare label sequences
    /// right to left, case-insensitively, absent labels sorting first.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        canonical_cmp(self, other)
    }

    /// Canonical wire form: lowercased, uncompressed (RFC 4034 §6.2).
    pub fn canonical_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.canonical_wire_into(&mut out);
        out
    }

    /// Appends the canonical wire form to `out` without intermediate
    /// allocations — the hot path for bulk signing and NSEC3 hashing.
    pub(crate) fn canonical_wire_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        for label in &self.labels {
            out.push(label.len() as u8);
            out.extend(label.as_bytes().iter().map(|b| b.to_ascii_lowercase()));
        }
        out.push(0);
    }

    /// ASCII-lowercased presentation form, used as a case-insensitive map key.
    pub fn key(&self) -> String {
        self.to_string().to_ascii_lowercase()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| a.eq_ignore_case(b))
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Feed the hasher label-by-label with an explicit length prefix and
        // lowercased bytes, never through `Vec::hash` (whose internal prefix
        // encoding is unstable).
        for label in &self.labels {
            state.write_usize(label.len());
            for &b in label.as_bytes() {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for label in &self.labels {
            write!(f, "{label}.")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Label access for a name held in some other form than a [`Name`] (a
/// query's wire name, a suffix of one): enough to order it canonically
/// against names, and so to look it up in a zone without building a
/// `Name` (`Name` borrows as `dyn NameLabels`).
pub trait NameLabels {
    /// Number of labels (the root has zero).
    fn label_count(&self) -> usize;
    /// Label `i`, leftmost first.
    fn label(&self, i: usize) -> &[u8];
}

impl NameLabels for Name {
    fn label_count(&self) -> usize {
        self.labels.len()
    }

    fn label(&self, i: usize) -> &[u8] {
        self.labels[i].as_bytes()
    }
}

/// Canonical DNS name order (RFC 4034 §6.1): labels compared right to
/// left, case-insensitively, absent labels sorting first.
fn canonical_cmp<A, B>(a: &A, b: &B) -> Ordering
where
    A: NameLabels + ?Sized,
    B: NameLabels + ?Sized,
{
    let (m, n) = (a.label_count(), b.label_count());
    for i in 1..=m.min(n) {
        match label_cmp(a.label(m - i), b.label(n - i)) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    m.cmp(&n)
}

impl dyn NameLabels + '_ {
    /// [`Name::canonical_cmp`] between any two label sources.
    pub fn canonical_cmp(&self, other: &dyn NameLabels) -> Ordering {
        canonical_cmp(self, other)
    }
}

impl PartialEq for dyn NameLabels + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn NameLabels + '_ {}

impl PartialOrd for dyn NameLabels + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn NameLabels + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

/// Orders and compares exactly as `Name` does (canonically, ignoring case),
/// so a `BTreeMap<Name, _>` can be probed with any label source.
impl<'a> std::borrow::Borrow<dyn NameLabels + 'a> for Name {
    fn borrow(&self) -> &(dyn NameLabels + 'a) {
        self
    }
}

/// A name's canonical wire form (lowercased, uncompressed; RFC 4034 §6.2)
/// in a fixed buffer, with the offset of each label: a query name split
/// once, whose ancestors are then [`Suffix`]es of it rather than names of
/// their own. Building one allocates nothing.
#[derive(Clone)]
pub struct WireName {
    wire: [u8; MAX_NAME_LEN],
    /// Offset of each label's length octet, leftmost first.
    starts: [u8; MAX_NAME_LEN / 2 + 1],
    count: usize,
}

impl WireName {
    /// Lowercases `labels` (leftmost first) into a wire name. The labels
    /// must form a valid name, as those of a `Name` or a validated
    /// `NameRef` do.
    pub(crate) fn from_labels<'l>(labels: impl IntoIterator<Item = &'l [u8]>) -> WireName {
        let mut w = WireName {
            wire: [0; MAX_NAME_LEN],
            starts: [0; MAX_NAME_LEN / 2 + 1],
            count: 0,
        };
        let mut at = 0;
        for label in labels {
            w.starts[w.count] = at as u8;
            w.count += 1;
            w.wire[at] = label.len() as u8;
            for (dst, b) in w.wire[at + 1..].iter_mut().zip(label) {
                *dst = b.to_ascii_lowercase();
            }
            at += 1 + label.len();
        }
        // The root terminator is the buffer's zero fill.
        w.starts[w.count] = at as u8;
        w
    }

    /// The wire form of `name`.
    pub fn from_name(name: &Name) -> WireName {
        WireName::from_labels(name.labels.iter().map(Label::as_bytes))
    }

    /// `*.<suffix>`, the wildcard child of `suffix`; `None` if that is
    /// longer than a name can be.
    pub fn wildcard(suffix: Suffix<'_>) -> Option<WireName> {
        (suffix.wire().len() + 2 <= MAX_NAME_LEN)
            .then(|| WireName::from_labels(std::iter::once(&b"*"[..]).chain(suffix.iter())))
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.count
    }

    /// The name with its `k` leftmost labels dropped (`k` at most the
    /// label count): `suffix(0)` is the whole name.
    pub fn suffix(&self, k: usize) -> Suffix<'_> {
        assert!(k <= self.count, "suffix past the root");
        Suffix {
            name: self,
            first: k,
        }
    }

    /// The canonical wire bytes, root terminator included.
    pub fn wire(&self) -> &[u8] {
        self.suffix(0).wire()
    }

    fn label_at(&self, i: usize) -> &[u8] {
        let at = usize::from(self.starts[i]);
        &self.wire[at + 1..at + 1 + usize::from(self.wire[at])]
    }
}

/// An ancestor (or the whole) of a [`WireName`], borrowed from it.
#[derive(Clone, Copy)]
pub struct Suffix<'a> {
    name: &'a WireName,
    first: usize,
}

impl<'a> Suffix<'a> {
    /// The suffix's canonical wire bytes, root terminator included.
    pub fn wire(&self) -> &'a [u8] {
        let end = usize::from(self.name.starts[self.name.count]) + 1;
        &self.name.wire[usize::from(self.name.starts[self.first])..end]
    }

    /// Its labels, lowercased, leftmost first.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let name = self.name;
        (self.first..name.count).map(move |i| name.label_at(i))
    }

    /// Materializes an owned (lowercased) [`Name`].
    pub fn to_name(&self) -> Name {
        Name::from_labels(self.iter().map(|l| Label(l.to_vec())).collect())
            .expect("a suffix of a valid name is valid")
    }
}

impl NameLabels for Suffix<'_> {
    fn label_count(&self) -> usize {
        self.name.count - self.first
    }

    fn label(&self, i: usize) -> &[u8] {
        self.name.label_at(self.first + i)
    }
}

/// Convenience macro-free constructor used pervasively in tests.
///
/// # Panics
/// Panics on malformed input; intended for literals.
pub fn name(s: &str) -> Name {
    Name::parse(s).expect("valid name literal")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_round_trip() {
        let r = Name::root();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(Name::parse(".").unwrap(), r);
        assert_eq!(Name::parse("").unwrap(), r);
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn parse_and_display() {
        let n = name("www.Example.COM");
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "www.Example.COM.");
        assert_eq!(n, name("WWW.example.com."));
    }

    #[test]
    fn trailing_dot_optional() {
        assert_eq!(name("a.b.c"), name("a.b.c."));
    }

    #[test]
    fn rejects_empty_interior_label() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
    }

    #[test]
    fn rejects_long_label() {
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&long),
            Err(NameError::LabelTooLong(64))
        ));
    }

    #[test]
    fn rejects_long_name() {
        let label = "x".repeat(63);
        let long = [label.as_str(); 5].join(".");
        assert!(matches!(Name::parse(&long), Err(NameError::NameTooLong(_))));
    }

    #[test]
    fn parent_and_child() {
        let n = name("www.example.com");
        assert_eq!(n.parent().unwrap(), name("example.com"));
        assert_eq!(name("example.com").child("www").unwrap(), n);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn subdomain_relations() {
        let apex = name("example.com");
        let sub = name("a.b.example.com");
        assert!(sub.is_subdomain_of(&apex));
        assert!(sub.is_strict_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!apex.is_strict_subdomain_of(&apex));
        assert!(!apex.is_subdomain_of(&sub));
        assert!(sub.is_subdomain_of(&Name::root()));
        // Case-insensitive.
        assert!(name("A.EXAMPLE.com").is_subdomain_of(&name("example.COM")));
        // Not fooled by suffix matches within a label.
        assert!(!name("notexample.com").is_subdomain_of(&name("example.com")));
    }

    #[test]
    fn canonical_order_rfc4034_example() {
        // The canonical order example from RFC 4034 §6.1.
        let ordered = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            "\\001.z.example.",
            "*.z.example.",
        ];
        // We skip escaped forms not supported by the parser; emulate \001 and *
        // via raw labels.
        let mut names: Vec<Name> = vec![
            name("example"),
            name("a.example"),
            name("yljkjljk.a.example"),
            name("Z.a.example"),
            name("zABC.a.EXAMPLE"),
            name("z.example"),
            Name::from_labels(vec![
                Label::new(&[1]).unwrap(),
                Label::new(b"z").unwrap(),
                Label::new(b"example").unwrap(),
            ])
            .unwrap(),
            Name::from_labels(vec![
                Label::new(b"*").unwrap(),
                Label::new(b"z").unwrap(),
                Label::new(b"example").unwrap(),
            ])
            .unwrap(),
        ];
        let expect = names.clone();
        names.reverse();
        names.sort_by(|a, b| a.canonical_cmp(b));
        assert_eq!(names, expect, "order should match {ordered:?}");
    }

    /// In-place canonical compare equals "lowercase both, then compare"
    /// (RFC 4034 §6.1), for labels and for names. Labels are short draws
    /// from letters of both cases, the 0x5B–0x60 run between `Z` and `a`
    /// (where lowercasing flips the order) and bytes ≥ 0x80, so shared
    /// prefixes and case-only differences are common.
    #[test]
    fn canonical_cmp_matches_lowercase_then_compare() {
        use ddx_prop::Rng;

        const ALPHABET: &[u8] = b"aAbByYzZ[\\]^_`\x80\xc1\xff";
        let label = |rng: &mut ddx_prop::StdRng| {
            let bytes = ddx_prop::vec(rng, 0..5, |r| ALPHABET[r.gen_range(0..ALPHABET.len())]);
            Label::new(&bytes).unwrap()
        };
        let lower = |l: &Label| -> Vec<u8> { l.as_bytes().to_ascii_lowercase() };
        ddx_prop::check("canonical_cmp_oracle", 1024, |rng| {
            let (a, b) = (label(rng), label(rng));
            assert_eq!(a.canonical_cmp(&b), lower(&a).cmp(&lower(&b)), "{a} vs {b}");

            let x = Name::from_labels(ddx_prop::vec(rng, 0..4, label)).unwrap();
            let y = Name::from_labels(ddx_prop::vec(rng, 0..4, label)).unwrap();
            let key = |n: &Name| n.labels().iter().rev().map(lower).collect::<Vec<_>>();
            assert_eq!(x.canonical_cmp(&y), key(&x).cmp(&key(&y)), "{x} vs {y}");
        });
    }

    /// A `WireName` holds a name's canonical wire form, its suffixes are
    /// the name's ancestors, and any two label sources order as their
    /// names do.
    #[test]
    fn wire_names_encode_and_order_like_names() {
        use ddx_prop::Rng;

        let label = |rng: &mut ddx_prop::StdRng| {
            const ALPHABET: &[u8] = b"aAbBzZ_\\\xff";
            let bytes = ddx_prop::vec(rng, 1..5, |r| ALPHABET[r.gen_range(0..ALPHABET.len())]);
            Label::new(&bytes).unwrap()
        };
        ddx_prop::check("wire_names_like_names", 512, |rng| {
            let x = Name::from_labels(ddx_prop::vec(rng, 0..5, label)).unwrap();
            let y = Name::from_labels(ddx_prop::vec(rng, 0..5, label)).unwrap();
            let (wx, wy) = (WireName::from_name(&x), WireName::from_name(&y));
            assert_eq!(wx.wire(), &x.canonical_wire()[..], "{x}");
            let mut ancestor = Some(x.clone());
            for k in 0..=x.label_count() {
                let up = ancestor.take().expect("an ancestor per label");
                assert_eq!(wx.suffix(k).to_name(), up, "{x} up {k}");
                assert_eq!(wx.suffix(k).wire(), &up.canonical_wire()[..]);
                ancestor = up.parent();
            }
            let want = x.canonical_cmp(&y);
            let (dx, dy): (&dyn NameLabels, &dyn NameLabels) = (&x, &wy.suffix(0));
            assert_eq!(dx.canonical_cmp(dy), want, "{x} vs {y}");
            assert_eq!((&wx.suffix(0) as &dyn NameLabels).canonical_cmp(&y), want);
        });
    }

    #[test]
    fn canonical_wire_is_lowercase() {
        let n = name("WwW.ExAmPlE.CoM");
        let wire = n.canonical_wire();
        assert_eq!(
            wire,
            [&[3u8][..], b"www", &[7], b"example", &[3], b"com", &[0]].concat()
        );
    }

    #[test]
    fn hash_is_case_insensitive() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(name("Example.COM"));
        assert!(set.contains(&name("example.com")));
    }

    #[test]
    fn label_display_escapes() {
        let l = Label::new(&[b'a', b'.', 0x07]).unwrap();
        assert_eq!(l.to_string(), "a\\.\\007");
    }
}

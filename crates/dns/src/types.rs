//! Record types, classes, response codes, and the NSEC/NSEC3 type bitmap.

use std::fmt;

use ddx_json::{FromJson, ToJson};

/// DNS resource record types (the subset relevant to DNSSEC diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub enum RrType {
    A,
    Ns,
    Cname,
    Soa,
    Mx,
    Txt,
    Aaaa,
    Ds,
    Rrsig,
    Nsec,
    Dnskey,
    Nsec3,
    Nsec3Param,
    /// Child DS (RFC 7344): the child's signal of its desired DS RRset.
    Cds,
    /// Child DNSKEY (RFC 7344).
    Cdnskey,
    /// Full zone transfer (query-only meta type, RFC 5936).
    Axfr,
    Opt,
    /// Any type we do not model explicitly.
    Unknown(u16),
}

impl RrType {
    /// IANA type code.
    pub fn code(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Ds => 43,
            RrType::Rrsig => 46,
            RrType::Nsec => 47,
            RrType::Dnskey => 48,
            RrType::Nsec3 => 50,
            RrType::Nsec3Param => 51,
            RrType::Cds => 59,
            RrType::Cdnskey => 60,
            RrType::Axfr => 252,
            RrType::Unknown(c) => c,
        }
    }

    /// Maps an IANA code back to a type.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            43 => RrType::Ds,
            46 => RrType::Rrsig,
            47 => RrType::Nsec,
            48 => RrType::Dnskey,
            50 => RrType::Nsec3,
            51 => RrType::Nsec3Param,
            59 => RrType::Cds,
            60 => RrType::Cdnskey,
            252 => RrType::Axfr,
            c => RrType::Unknown(c),
        }
    }

    /// Mnemonic used in presentation format.
    pub fn mnemonic(self) -> String {
        match self {
            RrType::A => "A".into(),
            RrType::Ns => "NS".into(),
            RrType::Cname => "CNAME".into(),
            RrType::Soa => "SOA".into(),
            RrType::Mx => "MX".into(),
            RrType::Txt => "TXT".into(),
            RrType::Aaaa => "AAAA".into(),
            RrType::Opt => "OPT".into(),
            RrType::Ds => "DS".into(),
            RrType::Rrsig => "RRSIG".into(),
            RrType::Nsec => "NSEC".into(),
            RrType::Dnskey => "DNSKEY".into(),
            RrType::Nsec3 => "NSEC3".into(),
            RrType::Nsec3Param => "NSEC3PARAM".into(),
            RrType::Cds => "CDS".into(),
            RrType::Cdnskey => "CDNSKEY".into(),
            RrType::Axfr => "AXFR".into(),
            RrType::Unknown(c) => format!("TYPE{c}"),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// DNS classes. Only IN is used by the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson)]
pub enum RrClass {
    In,
    Unknown(u16),
}

impl RrClass {
    pub fn code(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Unknown(c) => c,
        }
    }

    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrClass::In,
            c => RrClass::Unknown(c),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1 plus DNSSEC practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Unknown(u8),
}

impl Rcode {
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(c) => c,
        }
    }

    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            c => Rcode::Unknown(c),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
            Rcode::Unknown(c) => return write!(f, "RCODE{c}"),
        };
        write!(f, "{s}")
    }
}

/// The type bitmap carried in NSEC and NSEC3 records (RFC 4034 §4.1.2).
///
/// Stored as a sorted, deduplicated list of type codes; wire encoding uses
/// the window-block format.
#[derive(Debug, Clone, PartialEq, Eq, Default, ToJson, FromJson)]
pub struct TypeBitmap {
    codes: Vec<u16>,
}

impl TypeBitmap {
    pub fn new() -> Self {
        TypeBitmap::default()
    }

    /// Builds a bitmap from an iterator of types.
    pub fn from_types<I: IntoIterator<Item = RrType>>(types: I) -> Self {
        let mut codes: Vec<u16> = types.into_iter().map(|t| t.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        TypeBitmap { codes }
    }

    /// Adds a type to the bitmap.
    pub fn insert(&mut self, t: RrType) {
        let code = t.code();
        if let Err(pos) = self.codes.binary_search(&code) {
            self.codes.insert(pos, code);
        }
    }

    /// Removes a type from the bitmap.
    pub fn remove(&mut self, t: RrType) {
        if let Ok(pos) = self.codes.binary_search(&t.code()) {
            self.codes.remove(pos);
        }
    }

    /// Membership test.
    pub fn contains(&self, t: RrType) -> bool {
        self.codes.binary_search(&t.code()).is_ok()
    }

    /// All types in the bitmap, ascending by code.
    pub fn types(&self) -> impl Iterator<Item = RrType> + '_ {
        self.codes.iter().map(|&c| RrType::from_code(c))
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Appends the RFC 4034 §4.1.2 window blocks to `out`.
    pub fn wire_into(&self, out: &mut Vec<u8>) {
        let mut window = 0u8;
        let mut bits = [0u8; 32];
        let mut max_octet = 0usize;
        let mut dirty = false;
        let flush =
            |out: &mut Vec<u8>, window: u8, bits: &[u8; 32], max_octet: usize, dirty: bool| {
                if dirty {
                    out.push(window);
                    out.push(max_octet as u8 + 1);
                    out.extend_from_slice(&bits[..=max_octet]);
                }
            };
        for &code in &self.codes {
            let w = (code >> 8) as u8;
            if w != window {
                flush(out, window, &bits, max_octet, dirty);
                window = w;
                bits = [0u8; 32];
                max_octet = 0;
            }
            let low = (code & 0xff) as usize;
            let octet = low / 8;
            let bit = 7 - (low % 8);
            bits[octet] |= 1 << bit;
            max_octet = max_octet.max(octet);
            dirty = true;
        }
        flush(out, window, &bits, max_octet, dirty);
    }

    /// Checks window-block framing without building the bitmap: returns
    /// `true` exactly when [`TypeBitmap::from_wire`] would return `Some`.
    /// Used by the zero-copy view parser, which must reject the same inputs
    /// as the owned decoder but cannot afford the allocation.
    pub(crate) fn validate_wire(mut data: &[u8]) -> bool {
        while !data.is_empty() {
            if data.len() < 2 {
                return false;
            }
            let len = data[1] as usize;
            if len == 0 || len > 32 || data.len() < 2 + len {
                return false;
            }
            data = &data[2 + len..];
        }
        true
    }

    /// Decodes window-block format; returns `None` on malformed input.
    pub(crate) fn from_wire(mut data: &[u8]) -> Option<Self> {
        let mut codes = Vec::new();
        while !data.is_empty() {
            if data.len() < 2 {
                return None;
            }
            let window = data[0] as u16;
            let len = data[1] as usize;
            if len == 0 || len > 32 || data.len() < 2 + len {
                return None;
            }
            for (octet, &byte) in data[2..2 + len].iter().enumerate() {
                for bit in 0..8u16 {
                    if byte & (0x80 >> bit) != 0 {
                        codes.push((window << 8) | (octet as u16 * 8 + bit));
                    }
                }
            }
            data = &data[2 + len..];
        }
        codes.sort_unstable();
        codes.dedup();
        Some(TypeBitmap { codes })
    }
}

impl fmt::Display for TypeBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in self.types() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(bm: &TypeBitmap) -> Vec<u8> {
        let mut out = Vec::new();
        bm.wire_into(&mut out);
        out
    }

    #[test]
    fn type_codes_round_trip() {
        for t in [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Soa,
            RrType::Mx,
            RrType::Txt,
            RrType::Aaaa,
            RrType::Opt,
            RrType::Ds,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Dnskey,
            RrType::Nsec3,
            RrType::Nsec3Param,
            RrType::Cds,
            RrType::Cdnskey,
            RrType::Axfr,
            RrType::Unknown(4242),
        ] {
            assert_eq!(RrType::from_code(t.code()), t);
        }
    }

    #[test]
    fn rcode_round_trip() {
        for c in 0..=10u8 {
            assert_eq!(Rcode::from_code(c).code(), c);
        }
    }

    #[test]
    fn bitmap_insert_contains_remove() {
        let mut bm = TypeBitmap::new();
        assert!(bm.is_empty());
        bm.insert(RrType::A);
        bm.insert(RrType::Rrsig);
        bm.insert(RrType::A); // duplicate
        assert_eq!(bm.len(), 2);
        assert!(bm.contains(RrType::A));
        assert!(!bm.contains(RrType::Ns));
        bm.remove(RrType::A);
        assert!(!bm.contains(RrType::A));
    }

    #[test]
    fn bitmap_wire_round_trip() {
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::Ns,
            RrType::Soa,
            RrType::Mx,
            RrType::Aaaa,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Dnskey,
            RrType::Unknown(1234), // exercises a second window
        ]);
        let wire = wire(&bm);
        let back = TypeBitmap::from_wire(&wire).unwrap();
        assert_eq!(bm, back);
    }

    #[test]
    fn bitmap_rfc_example_encoding() {
        // A/MX/RRSIG/NSEC + TYPE1234, the example from RFC 4034 §4.3.
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::Mx,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Unknown(1234),
        ]);
        let wire = wire(&bm);
        assert_eq!(
            wire,
            vec![
                0x00, 0x06, 0x40, 0x01, 0x00, 0x00, 0x00, 0x03, // window 0
                0x04, 0x1b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x20, // window 4, bit for 1234
            ]
        );
    }

    #[test]
    fn bitmap_from_wire_rejects_garbage() {
        assert!(TypeBitmap::from_wire(&[0x00]).is_none());
        assert!(TypeBitmap::from_wire(&[0x00, 0x00]).is_none()); // zero-length block
        assert!(TypeBitmap::from_wire(&[0x00, 0x21]).is_none()); // > 32
        assert!(TypeBitmap::from_wire(&[0x00, 0x02, 0x01]).is_none()); // truncated
    }

    #[test]
    fn validate_wire_agrees_with_from_wire() {
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x00],
            vec![0x00, 0x00],
            vec![0x00, 0x21],
            vec![0x00, 0x02, 0x01],
            vec![0x00, 0x01, 0x40],
            wire(&TypeBitmap::from_types([
                RrType::A,
                RrType::Rrsig,
                RrType::Unknown(1234),
            ])),
        ];
        // A valid block followed by a truncated one.
        let mut mixed = wire(&TypeBitmap::from_types([RrType::A]));
        mixed.extend_from_slice(&[0x04, 0x05, 0x01]);
        cases.push(mixed);
        for case in cases {
            assert_eq!(
                TypeBitmap::validate_wire(&case),
                TypeBitmap::from_wire(&case).is_some(),
                "disagree on {case:?}"
            );
        }
    }

    #[test]
    fn bitmap_display() {
        let bm = TypeBitmap::from_types([RrType::Ns, RrType::A]);
        assert_eq!(bm.to_string(), "A NS");
    }
}

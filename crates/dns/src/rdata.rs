//! Resource record data (RDATA) for every type the diagnostics model.
//!
//! Each variant carries a typed struct. [`RData::to_wire`] produces the wire
//! RDATA (names uncompressed, as required inside DNSSEC records), and
//! [`RData::canonical_wire`] the canonical form used for signing and key-tag
//! computation (RFC 4034 §6.2: embedded names lowercased).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use ddx_json::{FromJson, ToJson};

use crate::base32;
use crate::name::Name;
use crate::types::{RrType, TypeBitmap};

/// DNSKEY flag bit: Zone Key (RFC 4034 §2.1.1).
pub const DNSKEY_FLAG_ZONE: u16 = 0x0100;
/// DNSKEY flag bit: Secure Entry Point (RFC 4034 §2.1.1).
pub const DNSKEY_FLAG_SEP: u16 = 0x0001;
/// DNSKEY flag bit: Revoked (RFC 5011 §2.1).
pub const DNSKEY_FLAG_REVOKE: u16 = 0x0080;

/// SOA RDATA (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Soa {
    pub mname: Name,
    pub rname: Name,
    pub serial: u32,
    pub refresh: u32,
    pub retry: u32,
    pub expire: u32,
    pub minimum: u32,
}

/// DNSKEY RDATA (RFC 4034 §2).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Dnskey {
    pub flags: u16,
    pub protocol: u8,
    pub algorithm: u8,
    pub public_key: Vec<u8>,
}

impl Dnskey {
    /// True if the Zone Key flag is set; keys without it must not be used
    /// for validation (RFC 4034 §2.1.1).
    pub fn is_zone_key(&self) -> bool {
        self.flags & DNSKEY_FLAG_ZONE != 0
    }

    /// True if the Secure Entry Point flag is set (conventionally a KSK).
    pub fn is_sep(&self) -> bool {
        self.flags & DNSKEY_FLAG_SEP != 0
    }

    /// True if the key carries the RFC 5011 REVOKE bit.
    pub fn is_revoked(&self) -> bool {
        self.flags & DNSKEY_FLAG_REVOKE != 0
    }

    /// Appends the DNSKEY RDATA wire form (flags | protocol | algorithm |
    /// public key) to `out` without routing through an [`RData`] wrapper.
    pub fn wire_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.flags.to_be_bytes());
        out.push(self.protocol);
        out.push(self.algorithm);
        out.extend_from_slice(&self.public_key);
    }

    /// Key tag per RFC 4034 Appendix B: ones-complement-style checksum over
    /// the RDATA.
    pub fn key_tag(&self) -> u16 {
        let mut rdata = Vec::with_capacity(4 + self.public_key.len());
        self.wire_into(&mut rdata);
        let mut acc: u32 = 0;
        for (i, &b) in rdata.iter().enumerate() {
            if i % 2 == 0 {
                acc += u32::from(b) << 8;
            } else {
                acc += u32::from(b);
            }
        }
        acc += (acc >> 16) & 0xffff;
        (acc & 0xffff) as u16
    }

    /// Bit length of the stored key material.
    pub fn key_bits(&self) -> usize {
        self.public_key.len() * 8
    }
}

/// RRSIG RDATA (RFC 4034 §3).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Rrsig {
    pub type_covered: RrType,
    pub algorithm: u8,
    /// Number of labels in the *original* owner name, excluding root and any
    /// wildcard label (RFC 4034 §3.1.3).
    pub labels: u8,
    pub original_ttl: u32,
    /// Signature expiration, seconds since the simulation epoch.
    pub expiration: u32,
    /// Signature inception, seconds since the simulation epoch.
    pub inception: u32,
    pub key_tag: u16,
    pub signer_name: Name,
    pub signature: Vec<u8>,
}

impl Rrsig {
    /// Appends the RDATA prefix covered by the signature itself to `out`:
    /// everything up to and excluding the signature field (RFC 4034
    /// §3.1.8.1).
    pub(crate) fn signed_prefix_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.type_covered.code().to_be_bytes());
        out.push(self.algorithm);
        out.push(self.labels);
        out.extend_from_slice(&self.original_ttl.to_be_bytes());
        out.extend_from_slice(&self.expiration.to_be_bytes());
        out.extend_from_slice(&self.inception.to_be_bytes());
        out.extend_from_slice(&self.key_tag.to_be_bytes());
        self.signer_name.canonical_wire_into(out);
    }

    /// True if `now` falls inside the validity window, inclusive.
    pub fn is_current(&self, now: u32) -> bool {
        self.inception <= now && now <= self.expiration
    }
}

/// DS RDATA (RFC 4034 §5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, ToJson, FromJson)]
pub struct Ds {
    pub key_tag: u16,
    pub algorithm: u8,
    pub digest_type: u8,
    pub digest: Vec<u8>,
}

/// NSEC RDATA (RFC 4034 §4).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Nsec {
    pub next_name: Name,
    pub type_bitmap: TypeBitmap,
}

/// NSEC3 RDATA (RFC 5155 §3).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Nsec3 {
    pub hash_algorithm: u8,
    pub flags: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
    pub next_hashed_owner: Vec<u8>,
    pub type_bitmap: TypeBitmap,
}

/// NSEC3 flag bit: Opt-Out (RFC 5155 §3.1.2.1).
pub const NSEC3_FLAG_OPT_OUT: u8 = 0x01;

impl Nsec3 {
    /// True if the Opt-Out flag is set.
    pub fn opt_out(&self) -> bool {
        self.flags & NSEC3_FLAG_OPT_OUT != 0
    }
}

/// NSEC3PARAM RDATA (RFC 5155 §4).
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Nsec3Param {
    pub hash_algorithm: u8,
    pub flags: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
}

/// The RDATA payload of a record.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Ns(Name),
    Cname(Name),
    Soa(Soa),
    Mx {
        preference: u16,
        exchange: Name,
    },
    Txt(Vec<String>),
    Dnskey(Dnskey),
    Rrsig(Rrsig),
    Ds(Ds),
    Nsec(Nsec),
    Nsec3(Nsec3),
    Nsec3Param(Nsec3Param),
    /// Child DS (RFC 7344 §3.1): same RDATA layout as DS.
    Cds(Ds),
    /// Child DNSKEY (RFC 7344 §3.2): same RDATA layout as DNSKEY.
    Cdnskey(Dnskey),
    /// Opaque RDATA for types we do not model.
    Unknown {
        rtype: u16,
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type of this payload.
    pub fn rtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Soa(_) => RrType::Soa,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Dnskey(_) => RrType::Dnskey,
            RData::Rrsig(_) => RrType::Rrsig,
            RData::Ds(_) => RrType::Ds,
            RData::Nsec(_) => RrType::Nsec,
            RData::Nsec3(_) => RrType::Nsec3,
            RData::Nsec3Param(_) => RrType::Nsec3Param,
            RData::Cds(_) => RrType::Cds,
            RData::Cdnskey(_) => RrType::Cdnskey,
            RData::Unknown { rtype, .. } => RrType::from_code(*rtype),
        }
    }

    /// Wire RDATA with names in their stored case, uncompressed.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(false, &mut out);
        out
    }

    /// Canonical wire RDATA: embedded names lowercased (RFC 4034 §6.2).
    pub fn canonical_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(true, &mut out);
        out
    }

    /// Appends the wire RDATA (stored-case names) to `out`.
    pub(crate) fn to_wire_into(&self, out: &mut Vec<u8>) {
        self.encode_into(false, out);
    }

    /// Appends the canonical wire RDATA (lowercased names) to `out`.
    pub(crate) fn canonical_wire_into(&self, out: &mut Vec<u8>) {
        self.encode_into(true, out);
    }

    fn encode_into(&self, canonical: bool, out: &mut Vec<u8>) {
        fn name_wire(n: &Name, canonical: bool, out: &mut Vec<u8>) {
            if canonical {
                n.canonical_wire_into(out);
            } else {
                // Uncompressed, original case.
                out.reserve(n.wire_len());
                for label in n.labels() {
                    out.push(label.len() as u8);
                    out.extend_from_slice(label.as_bytes());
                }
                out.push(0);
            }
        }
        match self {
            RData::A(addr) => out.extend_from_slice(&addr.octets()),
            RData::Aaaa(addr) => out.extend_from_slice(&addr.octets()),
            RData::Ns(n) | RData::Cname(n) => name_wire(n, canonical, out),
            RData::Soa(soa) => {
                name_wire(&soa.mname, canonical, out);
                name_wire(&soa.rname, canonical, out);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                out.extend_from_slice(&preference.to_be_bytes());
                name_wire(exchange, canonical, out);
            }
            RData::Txt(strings) => {
                for s in strings {
                    let b = s.as_bytes();
                    let len = b.len().min(255);
                    out.push(len as u8);
                    out.extend_from_slice(&b[..len]);
                }
            }
            RData::Dnskey(k) | RData::Cdnskey(k) => k.wire_into(out),
            RData::Rrsig(sig) => {
                sig.signed_prefix_into(out);
                out.extend_from_slice(&sig.signature);
            }
            RData::Ds(ds) | RData::Cds(ds) => {
                out.extend_from_slice(&ds.key_tag.to_be_bytes());
                out.push(ds.algorithm);
                out.push(ds.digest_type);
                out.extend_from_slice(&ds.digest);
            }
            RData::Nsec(nsec) => {
                name_wire(&nsec.next_name, canonical, out);
                nsec.type_bitmap.wire_into(out);
            }
            RData::Nsec3(n3) => {
                out.push(n3.hash_algorithm);
                out.push(n3.flags);
                out.extend_from_slice(&n3.iterations.to_be_bytes());
                out.push(n3.salt.len() as u8);
                out.extend_from_slice(&n3.salt);
                out.push(n3.next_hashed_owner.len() as u8);
                out.extend_from_slice(&n3.next_hashed_owner);
                n3.type_bitmap.wire_into(out);
            }
            RData::Nsec3Param(p) => {
                out.push(p.hash_algorithm);
                out.push(p.flags);
                out.extend_from_slice(&p.iterations.to_be_bytes());
                out.push(p.salt.len() as u8);
                out.extend_from_slice(&p.salt);
            }
            RData::Unknown { data, .. } => out.extend_from_slice(data),
        }
    }
}

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02X}")).collect()
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                let quoted: Vec<String> = strings.iter().map(|s| format!("\"{s}\"")).collect();
                write!(f, "{}", quoted.join(" "))
            }
            RData::Dnskey(k) | RData::Cdnskey(k) => write!(
                f,
                "{} {} {} {} ; key_tag={}",
                k.flags,
                k.protocol,
                k.algorithm,
                hex(&k.public_key),
                k.key_tag()
            ),
            RData::Rrsig(s) => write!(
                f,
                "{} {} {} {} {} {} {} {} {}",
                s.type_covered,
                s.algorithm,
                s.labels,
                s.original_ttl,
                s.expiration,
                s.inception,
                s.key_tag,
                s.signer_name,
                hex(&s.signature)
            ),
            RData::Ds(d) | RData::Cds(d) => write!(
                f,
                "{} {} {} {}",
                d.key_tag,
                d.algorithm,
                d.digest_type,
                hex(&d.digest)
            ),
            RData::Nsec(n) => write!(f, "{} {}", n.next_name, n.type_bitmap),
            RData::Nsec3(n) => write!(
                f,
                "{} {} {} {} {} {}",
                n.hash_algorithm,
                n.flags,
                n.iterations,
                if n.salt.is_empty() {
                    "-".to_string()
                } else {
                    hex(&n.salt)
                },
                base32::encode(&n.next_hashed_owner),
                n.type_bitmap
            ),
            RData::Nsec3Param(p) => write!(
                f,
                "{} {} {} {}",
                p.hash_algorithm,
                p.flags,
                p.iterations,
                if p.salt.is_empty() {
                    "-".to_string()
                } else {
                    hex(&p.salt)
                }
            ),
            RData::Unknown { rtype, data } => write!(f, "\\# TYPE{} {}", rtype, hex(data)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    fn sample_key() -> Dnskey {
        Dnskey {
            flags: DNSKEY_FLAG_ZONE | DNSKEY_FLAG_SEP,
            protocol: 3,
            algorithm: 8,
            public_key: vec![0xAA; 32],
        }
    }

    #[test]
    fn dnskey_flags() {
        let mut k = sample_key();
        assert!(k.is_zone_key());
        assert!(k.is_sep());
        assert!(!k.is_revoked());
        k.flags |= DNSKEY_FLAG_REVOKE;
        assert!(k.is_revoked());
    }

    #[test]
    fn key_tag_is_deterministic_and_flag_sensitive() {
        let k = sample_key();
        let tag1 = k.key_tag();
        assert_eq!(tag1, sample_key().key_tag());
        let mut revoked = sample_key();
        revoked.flags |= DNSKEY_FLAG_REVOKE;
        assert_ne!(tag1, revoked.key_tag(), "revoking changes the key tag");
    }

    #[test]
    fn key_tag_known_vector() {
        // Deterministic regression vector for the RFC 4034 App. B checksum.
        let k = Dnskey {
            flags: 0x0101,
            protocol: 3,
            algorithm: 8,
            public_key: vec![1, 2, 3, 4],
        };
        // rdata = 01 01 03 08 01 02 03 04
        // sum = 0x0101 + 0x0308 + 0x0102 + 0x0304 = 0x080F; no carry.
        assert_eq!(k.key_tag(), 0x080F);
    }

    #[test]
    fn rrsig_window() {
        let sig = Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 300,
            expiration: 2000,
            inception: 1000,
            key_tag: 42,
            signer_name: name("example.com"),
            signature: vec![1, 2, 3],
        };
        assert!(!sig.is_current(999));
        assert!(sig.is_current(1000));
        assert!(sig.is_current(1500));
        assert!(sig.is_current(2000));
        assert!(!sig.is_current(2001));
    }

    #[test]
    fn rrsig_signed_prefix_excludes_signature() {
        let sig = Rrsig {
            type_covered: RrType::A,
            algorithm: 8,
            labels: 2,
            original_ttl: 300,
            expiration: 2000,
            inception: 1000,
            key_tag: 42,
            signer_name: name("example.com"),
            signature: vec![1, 2, 3],
        };
        let wire = RData::Rrsig(sig.clone()).to_wire();
        let mut prefix = Vec::new();
        sig.signed_prefix_into(&mut prefix);
        assert_eq!(&wire[..prefix.len()], &prefix[..]);
        assert_eq!(&wire[prefix.len()..], &[1, 2, 3]);
    }

    #[test]
    fn canonical_wire_lowercases_names() {
        let rd = RData::Ns(name("NS1.Example.COM"));
        let canon = rd.canonical_wire();
        let plain = rd.to_wire();
        assert_ne!(canon, plain);
        assert_eq!(canon, name("ns1.example.com").canonical_wire());
    }

    #[test]
    fn nsec3_optout_flag() {
        let mut n3 = Nsec3 {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed_owner: vec![0; 20],
            type_bitmap: TypeBitmap::new(),
        };
        assert!(!n3.opt_out());
        n3.flags |= NSEC3_FLAG_OPT_OUT;
        assert!(n3.opt_out());
    }

    #[test]
    fn soa_wire_layout() {
        let soa = Soa {
            mname: name("ns1.example."),
            rname: name("hostmaster.example."),
            serial: 1,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        };
        let wire = RData::Soa(soa).to_wire();
        // mname(13) + rname(20) + 5 * 4 bytes
        assert_eq!(wire.len(), 13 + 20 + 20);
        assert_eq!(&wire[wire.len() - 4..], &[0, 0, 0, 5]);
    }

    #[test]
    fn display_forms() {
        let ds = RData::Ds(Ds {
            key_tag: 12345,
            algorithm: 13,
            digest_type: 2,
            digest: vec![0xde, 0xad],
        });
        assert_eq!(ds.to_string(), "12345 13 2 DEAD");
        let n3p = RData::Nsec3Param(Nsec3Param {
            hash_algorithm: 1,
            flags: 0,
            iterations: 10,
            salt: vec![],
        });
        assert_eq!(n3p.to_string(), "1 0 10 -");
    }
}

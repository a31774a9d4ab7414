//! Master-file (zone file) parsing and serialization — RFC 1035 §5
//! presentation format, covering every record type the workspace models
//! (including DNSSEC types with base64/hex fields). This is the on-disk
//! interchange format `dnssec-signzone`-style tooling operates on.

use std::fmt::Write as _;

use crate::base32;
use crate::name::Name;
use crate::rdata::{Dnskey, Ds, Nsec, Nsec3, Nsec3Param, RData, Rrsig, Soa};
use crate::rrset::Record;
use crate::types::{RrType, TypeBitmap};
use crate::zone::Zone;

/// Parse errors with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

// ------------------------------------------------------------- base64

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding (RFC 4648 §4), as used for DNSKEY public
/// keys and RRSIG signatures in presentation format.
pub(crate) fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(B64[(v >> 18) as usize & 0x3f] as char);
        out.push(B64[(v >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            B64[(v >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[v as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (padding optional, whitespace rejected).
pub(crate) fn base64_decode(s: &str) -> Option<Vec<u8>> {
    let s = s.trim_end_matches('=');
    let mut out = Vec::with_capacity(s.len() * 3 / 4);
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for c in s.bytes() {
        let v = match c {
            b'A'..=b'Z' => c - b'A',
            b'a'..=b'z' => c - b'a' + 26,
            b'0'..=b'9' => c - b'0' + 52,
            b'+' => 62,
            b'/' => 63,
            _ => return None,
        };
        acc = (acc << 6) | u32::from(v);
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    Some(out)
}

fn hex_encode(data: &[u8]) -> String {
    data.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02X}");
        s
    })
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

// --------------------------------------------------------- serialization

/// Renders one record in presentation format.
pub fn record_to_line(rec: &Record) -> String {
    let rdata = rdata_to_text(&rec.rdata);
    format!(
        "{} {} IN {} {}",
        rec.name,
        rec.ttl,
        rec.rtype().mnemonic(),
        rdata
    )
}

fn rdata_to_text(rd: &RData) -> String {
    match rd {
        RData::A(a) => a.to_string(),
        RData::Aaaa(a) => a.to_string(),
        RData::Ns(n) | RData::Cname(n) => n.to_string(),
        RData::Soa(s) => format!(
            "{} {} {} {} {} {} {}",
            s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
        ),
        RData::Mx {
            preference,
            exchange,
        } => format!("{preference} {exchange}"),
        RData::Txt(strings) => strings
            .iter()
            .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(" "),
        RData::Dnskey(k) | RData::Cdnskey(k) => format!(
            "{} {} {} {}",
            k.flags,
            k.protocol,
            k.algorithm,
            base64_encode(&k.public_key)
        ),
        RData::Rrsig(s) => format!(
            "{} {} {} {} {} {} {} {} {}",
            s.type_covered.mnemonic(),
            s.algorithm,
            s.labels,
            s.original_ttl,
            s.expiration,
            s.inception,
            s.key_tag,
            s.signer_name,
            base64_encode(&s.signature)
        ),
        RData::Ds(d) | RData::Cds(d) => format!(
            "{} {} {} {}",
            d.key_tag,
            d.algorithm,
            d.digest_type,
            hex_encode(&d.digest)
        ),
        RData::Nsec(n) => {
            let mut out = n.next_name.to_string();
            for t in n.type_bitmap.types() {
                out.push(' ');
                out.push_str(&t.mnemonic());
            }
            out
        }
        RData::Nsec3(n) => {
            let mut out = format!(
                "{} {} {} {} {}",
                n.hash_algorithm,
                n.flags,
                n.iterations,
                if n.salt.is_empty() {
                    "-".to_string()
                } else {
                    hex_encode(&n.salt)
                },
                base32::encode(&n.next_hashed_owner)
            );
            for t in n.type_bitmap.types() {
                out.push(' ');
                out.push_str(&t.mnemonic());
            }
            out
        }
        RData::Nsec3Param(p) => format!(
            "{} {} {} {}",
            p.hash_algorithm,
            p.flags,
            p.iterations,
            if p.salt.is_empty() {
                "-".to_string()
            } else {
                hex_encode(&p.salt)
            }
        ),
        // RFC 3597 generic encoding.
        RData::Unknown { rtype: _, data } => {
            if data.is_empty() {
                "\\# 0".to_string()
            } else {
                format!("\\# {} {}", data.len(), hex_encode(data))
            }
        }
    }
}

/// Renders a whole zone in canonical order.
pub fn zone_to_master(zone: &Zone) -> String {
    let mut out = format!("$ORIGIN {}\n", zone.apex());
    for set in zone.rrsets() {
        for rd in &set.rdatas {
            out.push_str(&record_to_line(&Record::new(
                set.name.clone(),
                set.ttl,
                rd.clone(),
            )));
            out.push('\n');
        }
    }
    out
}

// --------------------------------------------------------------- parsing

struct Fields<'a> {
    parts: Vec<&'a str>,
    pos: usize,
    line: usize,
}

impl<'a> Fields<'a> {
    fn next(&mut self) -> Result<&'a str, ParseError> {
        let f = self
            .parts
            .get(self.pos)
            .ok_or_else(|| err(self.line, "unexpected end of record"))?;
        self.pos += 1;
        Ok(f)
    }

    fn rest(&mut self) -> Vec<&'a str> {
        let r = self.parts[self.pos..].to_vec();
        self.pos = self.parts.len();
        r
    }

    fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        let f = self.next()?;
        f.parse()
            .map_err(|_| err(self.line, format!("bad {what}: {f}")))
    }

    fn name(&mut self, what: &str) -> Result<Name, ParseError> {
        let f = self.next()?;
        f.parse()
            .map_err(|_| err(self.line, format!("bad {what}: {f}")))
    }
}

fn rtype_from_mnemonic(s: &str) -> Option<RrType> {
    Some(match s {
        "A" => RrType::A,
        "NS" => RrType::Ns,
        "CNAME" => RrType::Cname,
        "SOA" => RrType::Soa,
        "MX" => RrType::Mx,
        "TXT" => RrType::Txt,
        "AAAA" => RrType::Aaaa,
        "OPT" => RrType::Opt,
        "AXFR" => RrType::Axfr,
        "DS" => RrType::Ds,
        "CDS" => RrType::Cds,
        "CDNSKEY" => RrType::Cdnskey,
        "RRSIG" => RrType::Rrsig,
        "NSEC" => RrType::Nsec,
        "DNSKEY" => RrType::Dnskey,
        "NSEC3" => RrType::Nsec3,
        "NSEC3PARAM" => RrType::Nsec3Param,
        other => {
            let code = other.strip_prefix("TYPE")?.parse().ok()?;
            RrType::from_code(code)
        }
    })
}

/// Parses one presentation-format line into a record. `$ORIGIN`, comments,
/// and blank lines are handled by [`parse_master`].
pub fn parse_record_line(line_no: usize, line: &str) -> Result<Record, ParseError> {
    let parts: Vec<&str> = tokenize(line);
    if parts.len() < 4 {
        return Err(err(line_no, "record needs name, TTL, class, type"));
    }
    let mut f = Fields {
        parts,
        pos: 0,
        line: line_no,
    };
    let name: Name = f.name("owner name")?;
    let ttl: u32 = f.num("TTL")?;
    let class = f.next()?;
    if class != "IN" {
        return Err(err(line_no, format!("unsupported class {class}")));
    }
    let rtype_txt = f.next()?;
    let rtype = rtype_from_mnemonic(rtype_txt)
        .ok_or_else(|| err(line_no, format!("unknown type {rtype_txt}")))?;
    let rdata = parse_rdata(rtype, &mut f)?;
    Ok(Record::new(name, ttl, rdata))
}

/// Splits a line into fields, honoring quoted strings (for TXT).
fn tokenize(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] == b';' {
            break; // comment
        }
        let start = i;
        if bytes[i] == b'"' {
            i += 1;
            while i < bytes.len() && (bytes[i] != b'"' || bytes[i - 1] == b'\\') {
                i += 1;
            }
            i = (i + 1).min(bytes.len());
        } else {
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
        }
        out.push(&line[start..i]);
    }
    out
}

fn parse_rdata(rtype: RrType, f: &mut Fields) -> Result<RData, ParseError> {
    let line = f.line;
    Ok(match rtype {
        RrType::A => RData::A(
            f.next()?
                .parse()
                .map_err(|_| err(line, "bad IPv4 address"))?,
        ),
        RrType::Aaaa => RData::Aaaa(
            f.next()?
                .parse()
                .map_err(|_| err(line, "bad IPv6 address"))?,
        ),
        RrType::Ns => RData::Ns(f.name("NS target")?),
        RrType::Cname => RData::Cname(f.name("CNAME target")?),
        RrType::Soa => RData::Soa(Soa {
            mname: f.name("SOA mname")?,
            rname: f.name("SOA rname")?,
            serial: f.num("serial")?,
            refresh: f.num("refresh")?,
            retry: f.num("retry")?,
            expire: f.num("expire")?,
            minimum: f.num("minimum")?,
        }),
        RrType::Mx => RData::Mx {
            preference: f.num("MX preference")?,
            exchange: f.name("MX exchange")?,
        },
        RrType::Txt => {
            let mut strings = Vec::new();
            for raw in f.rest() {
                let s = raw
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .unwrap_or(raw);
                strings.push(s.replace("\\\"", "\"").replace("\\\\", "\\"));
            }
            if strings.is_empty() {
                return Err(err(line, "TXT needs at least one string"));
            }
            RData::Txt(strings)
        }
        RrType::Dnskey | RrType::Cdnskey => {
            let k = Dnskey {
                flags: f.num("DNSKEY flags")?,
                protocol: f.num("protocol")?,
                algorithm: f.num("algorithm")?,
                public_key: base64_decode(f.next()?)
                    .ok_or_else(|| err(line, "bad DNSKEY base64"))?,
            };
            if rtype == RrType::Cdnskey {
                RData::Cdnskey(k)
            } else {
                RData::Dnskey(k)
            }
        }
        RrType::Rrsig => {
            let covered = f.next()?;
            let type_covered = rtype_from_mnemonic(covered)
                .ok_or_else(|| err(line, format!("unknown covered type {covered}")))?;
            RData::Rrsig(Rrsig {
                type_covered,
                algorithm: f.num("algorithm")?,
                labels: f.num("labels")?,
                original_ttl: f.num("original TTL")?,
                expiration: f.num("expiration")?,
                inception: f.num("inception")?,
                key_tag: f.num("key tag")?,
                signer_name: f.name("signer name")?,
                signature: base64_decode(f.next()?).ok_or_else(|| err(line, "bad RRSIG base64"))?,
            })
        }
        RrType::Ds | RrType::Cds => {
            let ds = Ds {
                key_tag: f.num("key tag")?,
                algorithm: f.num("algorithm")?,
                digest_type: f.num("digest type")?,
                digest: hex_decode(f.next()?).ok_or_else(|| err(line, "bad DS digest hex"))?,
            };
            if rtype == RrType::Cds {
                RData::Cds(ds)
            } else {
                RData::Ds(ds)
            }
        }
        RrType::Nsec => {
            let next_name = f.name("NSEC next name")?;
            let mut bitmap = TypeBitmap::new();
            for t in f.rest() {
                bitmap.insert(
                    rtype_from_mnemonic(t)
                        .ok_or_else(|| err(line, format!("unknown bitmap type {t}")))?,
                );
            }
            RData::Nsec(Nsec {
                next_name,
                type_bitmap: bitmap,
            })
        }
        RrType::Nsec3 => {
            let hash_algorithm = f.num("hash algorithm")?;
            let flags = f.num("flags")?;
            let iterations = f.num("iterations")?;
            let salt = hex_decode(f.next()?).ok_or_else(|| err(line, "bad salt"))?;
            let next =
                base32::decode(f.next()?).ok_or_else(|| err(line, "bad next-hash base32"))?;
            let mut bitmap = TypeBitmap::new();
            for t in f.rest() {
                bitmap.insert(
                    rtype_from_mnemonic(t)
                        .ok_or_else(|| err(line, format!("unknown bitmap type {t}")))?,
                );
            }
            RData::Nsec3(Nsec3 {
                hash_algorithm,
                flags,
                iterations,
                salt,
                next_hashed_owner: next,
                type_bitmap: bitmap,
            })
        }
        RrType::Nsec3Param => RData::Nsec3Param(Nsec3Param {
            hash_algorithm: f.num("hash algorithm")?,
            flags: f.num("flags")?,
            iterations: f.num("iterations")?,
            salt: hex_decode(f.next()?).ok_or_else(|| err(line, "bad salt"))?,
        }),
        other => {
            return Err(err(
                line,
                format!("type {other} not supported in master files"),
            ))
        }
    })
}

/// Parses a whole master file into a zone. The apex comes from `$ORIGIN`
/// or, failing that, the SOA owner.
pub fn parse_master(text: &str) -> Result<Zone, ParseError> {
    let mut records: Vec<Record> = Vec::new();
    let mut origin: Option<Name> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("$ORIGIN") {
            let name = rest.trim().trim_end_matches(';').trim();
            origin = Some(
                name.parse()
                    .map_err(|_| err(line_no, format!("bad $ORIGIN {name}")))?,
            );
            continue;
        }
        if line.starts_with('$') {
            return Err(err(line_no, format!("unsupported directive {line}")));
        }
        records.push(parse_record_line(line_no, line)?);
    }
    let apex = origin
        .or_else(|| {
            records
                .iter()
                .find(|r| r.rtype() == RrType::Soa)
                .map(|r| r.name.clone())
        })
        .ok_or_else(|| err(0, "no $ORIGIN and no SOA record"))?;
    let mut zone = Zone::new(apex.clone());
    for rec in records {
        if !rec.name.is_subdomain_of(&apex) {
            return Err(err(0, format!("{} outside zone {apex}", rec.name)));
        }
        zone.add(rec);
    }
    Ok(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use ddx_prop::{bytes, check, Rng};

    #[test]
    fn base64_vectors() {
        // RFC 4648 §10.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert!(base64_decode("Z!").is_none());
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add(Record::new(
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
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        z.add(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example.com"),
            },
        ));
        z.add(Record::new(
            name("example.com"),
            300,
            RData::Txt(vec!["v=spf1 -all".into(), "quote \" here".into()]),
        ));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Dnskey(Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                public_key: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
            }),
        ));
        z.add(Record::new(
            name("example.com"),
            3600,
            RData::Ds(Ds {
                key_tag: 4711,
                algorithm: 13,
                digest_type: 2,
                digest: vec![0xAB; 32],
            }),
        ));
        z.add(Record::new(
            name("example.com"),
            300,
            RData::Nsec(Nsec {
                next_name: name("ns1.example.com"),
                type_bitmap: TypeBitmap::from_types([RrType::Soa, RrType::Ns, RrType::Mx]),
            }),
        ));
        z.add(Record::new(
            name("example.com"),
            0,
            RData::Nsec3Param(Nsec3Param {
                hash_algorithm: 1,
                flags: 0,
                iterations: 0,
                salt: vec![0xde, 0xad],
            }),
        ));
        z
    }

    #[test]
    fn zone_round_trip() {
        let zone = sample_zone();
        let text = zone_to_master(&zone);
        let back = parse_master(&text).unwrap();
        assert_eq!(back, zone);
    }

    #[test]
    fn signed_zone_round_trip() {
        // Built by hand (no dev-dependency on the signer crate).
        let mut zone = sample_zone();
        zone.add(Record::new(
            name("example.com"),
            3600,
            RData::Rrsig(Rrsig {
                type_covered: RrType::Soa,
                algorithm: 13,
                labels: 2,
                original_ttl: 3600,
                expiration: 2_000_000,
                inception: 1_000_000,
                key_tag: 4711,
                signer_name: name("example.com"),
                signature: vec![9; 64],
            }),
        ));
        zone.add(Record::new(
            name("abcdef0123456789abcdef0123456789.example.com"),
            300,
            RData::Nsec3(Nsec3 {
                hash_algorithm: 1,
                flags: 1,
                iterations: 5,
                salt: vec![],
                next_hashed_owner: vec![0x42; 20],
                type_bitmap: TypeBitmap::from_types([RrType::A]),
            }),
        ));
        let text = zone_to_master(&zone);
        let back = parse_master(&text).unwrap();
        assert_eq!(back, zone);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "\
$ORIGIN example.com.
; a comment
example.com. 3600 IN SOA ns1.example.com. hostmaster.example.com. 1 2 3 4 5

www.example.com. 300 IN A 192.0.2.80 ; trailing comment
";
        let zone = parse_master(text).unwrap();
        assert!(zone.soa().is_some());
        assert!(zone.get(&name("www.example.com"), RrType::A).is_some());
    }

    #[test]
    fn origin_from_soa_when_missing() {
        let text = "example.org. 3600 IN SOA ns1.example.org. h.example.org. 1 2 3 4 5\n";
        let zone = parse_master(text).unwrap();
        assert_eq!(zone.apex(), &name("example.org"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "$ORIGIN example.com.\nexample.com. 3600 IN SOA broken\n";
        let e = parse_master(text).unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_master("example.com. x IN A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("TTL"));
        let e = parse_master("example.com. 1 CH A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("class"));
        let e = parse_master("example.com. 1 IN WHAT 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("unknown type"));
    }

    #[test]
    fn out_of_zone_record_rejected() {
        let text = "\
$ORIGIN example.com.
example.com. 3600 IN SOA ns1.example.com. h.example.com. 1 2 3 4 5
other.org. 300 IN A 192.0.2.1
";
        assert!(parse_master(text).is_err());
    }

    #[test]
    fn txt_quoting_round_trips() {
        let rec = Record::new(
            name("t.example.com"),
            60,
            RData::Txt(vec!["with \"quotes\" and \\slashes\\".into()]),
        );
        let line = record_to_line(&rec);
        let back = parse_record_line(1, &line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn base64_round_trip() {
        check("base64_round_trip", 256, |rng| {
            let data = bytes(rng, 0..128);
            assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        });
    }

    #[test]
    fn ds_line_round_trip() {
        check("ds_line_round_trip", 256, |rng| {
            let ds = Ds {
                key_tag: rng.gen(),
                algorithm: rng.gen_range(1..20),
                digest_type: rng.gen_range(1..5),
                digest: bytes(rng, 20..48),
            };
            let rec = Record::new(name("x.example.com"), 300, RData::Ds(ds));
            let line = record_to_line(&rec);
            let back = parse_record_line(1, &line).unwrap();
            assert_eq!(back, rec);
        });
    }
}

//! NSEC3 hashing (RFC 5155 §5) and parameter handling, including the
//! RFC 9276 guidance that iteration count SHOULD be 0 and salt empty —
//! the single most violated rule in the paper's dataset ("Nonzero
//! Iteration Count", 28.8% of snapshots).

use crate::sha::{Digest, PaddedSha1, Sha1};
use ddx_json::ToJson;

use ddx_dns::{Name, WireName};

/// The only NSEC3 hash algorithm defined (RFC 5155 §11): SHA-1.
pub const NSEC3_HASH_SHA1: u8 = 1;

/// NSEC3 chain parameters, mirroring the NSEC3PARAM RDATA.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct Nsec3Config {
    pub hash_algorithm: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
    /// Set the Opt-Out flag on generated NSEC3 records.
    pub opt_out: bool,
}

impl Default for Nsec3Config {
    /// RFC 9276-compliant defaults: zero iterations, empty salt, no opt-out.
    fn default() -> Self {
        Nsec3Config {
            hash_algorithm: NSEC3_HASH_SHA1,
            iterations: 0,
            salt: Vec::new(),
            opt_out: false,
        }
    }
}

impl Nsec3Config {
    /// True if the parameters satisfy RFC 9276 §3.1 (iterations 0, salt
    /// empty). Violations are the paper's NZIC / salt warnings.
    pub fn rfc9276_compliant(&self) -> bool {
        self.iterations == 0 && self.salt.is_empty()
    }
}

/// Computes the NSEC3 hash of `name` (RFC 5155 §5):
/// `IH(salt, x, 0) = H(x ‖ salt)`, `IH(salt, x, k) = H(IH(salt, x, k-1) ‖ salt)`,
/// over the canonical (lowercased) wire form of the name.
///
/// Charges `1 + iterations` SHA-1 rounds to the thread's work ledger
/// ([`crate::work_snapshot`]), which is exactly the work done here.
pub fn nsec3_hash(name: &Name, salt: &[u8], iterations: u16) -> [u8; 20] {
    nsec3_hash_wire(WireName::from_name(name).wire(), salt, iterations)
}

/// [`nsec3_hash`] of the name whose canonical wire form is
/// `canonical_wire` (a [`WireName`] or a suffix of one): the one hash path,
/// which `nsec3_hash` wraps.
pub fn nsec3_hash_wire(canonical_wire: &[u8], salt: &[u8], iterations: u16) -> [u8; 20] {
    crate::workload::record_nsec3_rounds(1 + iterations as u64);
    let mut h = Sha1::new();
    h.update(canonical_wire);
    h.update(salt);
    let mut digest = h.finalize();
    // Every later round hashes `digest ‖ salt`, one length throughout: pad
    // that message once and rewrite only its digest bytes each round.
    let mut msg = PaddedSha1::new(digest.len() + salt.len());
    msg.message_mut()[digest.len()..].copy_from_slice(salt);
    for _ in 0..iterations {
        msg.message_mut()[..digest.len()].copy_from_slice(&digest);
        digest = msg.digest();
    }
    digest
}

/// The full owner name of the NSEC3 record for `name` in `zone`.
#[cfg(test)]
pub(crate) fn nsec3_owner(name: &Name, zone: &Name, salt: &[u8], iterations: u16) -> Name {
    zone.child(&ddx_dns::base32::encode(&nsec3_hash(
        name, salt, iterations,
    )))
    .expect("nsec3 label fits")
}

/// True if `hash` falls strictly between `owner_hash` and `next_hash` on the
/// NSEC3 ring (handles wrap-around at the end of the chain).
pub fn hash_covered(owner_hash: &[u8], next_hash: &[u8], hash: &[u8]) -> bool {
    use std::cmp::Ordering::*;
    match owner_hash.cmp(next_hash) {
        Less => owner_hash < hash && hash < next_hash,
        // Last NSEC3 in the chain wraps to the first.
        Greater => hash > owner_hash || hash < next_hash,
        // Single-record chain covers everything except itself.
        Equal => hash != owner_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::{base32, name};
    use ddx_prop::{check, string, Rng};

    #[test]
    fn rfc5155_appendix_a_vector() {
        // RFC 5155 Appendix A: H(example) with salt aabbccdd, 12 extra
        // iterations = 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.
        let hash = nsec3_hash(&name("example"), &[0xaa, 0xbb, 0xcc, 0xdd], 12);
        assert_eq!(
            base32::encode(&hash).to_ascii_lowercase(),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"
        );
    }

    #[test]
    fn rfc5155_a_example_vector() {
        // Same appendix: H(a.example) = 35mthgpgcu1qg68fab165klnsnk3dpvl.
        let hash = nsec3_hash(&name("a.example"), &[0xaa, 0xbb, 0xcc, 0xdd], 12);
        assert_eq!(
            base32::encode(&hash).to_ascii_lowercase(),
            "35mthgpgcu1qg68fab165klnsnk3dpvl"
        );
    }

    /// Known answers from an independent implementation: Python's
    /// `hashlib.sha1`, iterated per RFC 5155 §5 over the lowercased wire
    /// form of each name (`d = sha1(wire ‖ salt)`, then `iterations` times
    /// `d = sha1(d ‖ salt)`), printed with `base64.b32hexencode`. The same
    /// script reproduces the two RFC 5155 Appendix A vectors above.
    const KNOWN_ANSWERS: [(&str, &[u8], u16, &str); 7] = [
        ("example.com", &[], 0, "onib9mgub9h0rml3cdf5bgrj59dkjhvk"),
        (
            "Mixed.Case.Example.COM",
            &[],
            1,
            "nmq9n98h436msl82t1h876ffki2pjaj9",
        ),
        (
            "Mixed.Case.Example.COM",
            &[0xde, 0xad, 0xbe, 0xef],
            10,
            "aseatdmgpn36ul30ln8cind8sr7rilcg",
        ),
        (
            "*.wild.example.org",
            &[1, 2, 3, 4, 5, 6, 7, 8],
            150,
            "2auoq5hp4gc4ltg7h6knrunlh5ah1tb9",
        ),
        (
            "*.wild.example.org",
            &[],
            0,
            "0f20osu5kaa68apis5tas6vub2lipbqu",
        ),
        (
            "www.Example.NET",
            &[0xca, 0xfe, 0xf0, 0x0d],
            2500,
            "goas2heobdt85b4gsvo3430ltbkcca43",
        ),
        (
            "a.b.c.d.example",
            &[0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88],
            1,
            "kk6ne4if40rgoaka9u27ja5d9nsgcf17",
        ),
    ];

    #[test]
    fn independent_known_answers() {
        for (owner, salt, iterations, want) in KNOWN_ANSWERS {
            let hash = nsec3_hash(&name(owner), salt, iterations);
            assert_eq!(
                base32::encode(&hash).to_ascii_lowercase(),
                want,
                "{owner} salt={salt:02x?} iterations={iterations}"
            );
        }
    }

    #[test]
    fn hash_is_case_insensitive() {
        assert_eq!(
            nsec3_hash(&name("Example.COM"), b"s", 3),
            nsec3_hash(&name("example.com"), b"s", 3)
        );
    }

    #[test]
    fn iterations_change_hash() {
        let n = name("example.com");
        assert_ne!(nsec3_hash(&n, b"", 0), nsec3_hash(&n, b"", 1));
        assert_ne!(nsec3_hash(&n, b"", 0), nsec3_hash(&n, b"x", 0));
    }

    #[test]
    fn owner_name_format() {
        let owner = nsec3_owner(&name("www.example.com"), &name("example.com"), &[], 0);
        assert_eq!(owner.label_count(), 3);
        assert!(owner.is_subdomain_of(&name("example.com")));
        // base32hex of SHA-1: 32 chars.
        assert_eq!(owner.labels()[0].len(), 32);
    }

    #[test]
    fn coverage_logic() {
        let a = [10u8; 20];
        let b = [20u8; 20];
        let mid = [15u8; 20];
        let out = [25u8; 20];
        assert!(hash_covered(&a, &b, &mid));
        assert!(!hash_covered(&a, &b, &out));
        assert!(!hash_covered(&a, &b, &a));
        assert!(!hash_covered(&a, &b, &b));
        // Wrap-around: last record covering the gap past the end.
        assert!(hash_covered(&b, &a, &out));
        assert!(hash_covered(&b, &a, &[5u8; 20]));
        assert!(!hash_covered(&b, &a, &mid));
        // Degenerate single-record chain.
        assert!(hash_covered(&a, &a, &mid));
        assert!(!hash_covered(&a, &a, &a));
    }

    #[test]
    fn rfc9276_compliance() {
        assert!(Nsec3Config::default().rfc9276_compliant());
        let bad = Nsec3Config {
            iterations: 10,
            ..Default::default()
        };
        assert!(!bad.rfc9276_compliant());
        let salty = Nsec3Config {
            salt: vec![1, 2],
            ..Default::default()
        };
        assert!(!salty.rfc9276_compliant());
    }

    #[test]
    fn hash_deterministic() {
        check("hash_deterministic", 256, |rng| {
            let label = string(rng, "abcdefghijklmnopqrstuvwxyz", 1..11);
            let iters = rng.gen_range(0u16..50);
            let n = name(&format!("{label}.example.com"));
            assert_eq!(
                nsec3_hash(&n, b"salt", iters),
                nsec3_hash(&n, b"salt", iters)
            );
        });
    }

    #[test]
    fn coverage_excludes_endpoints() {
        check("coverage_excludes_endpoints", 256, |rng| {
            let (mut h1, mut h2) = ([0u8; 20], [0u8; 20]);
            rng.fill(&mut h1);
            rng.fill(&mut h2);
            assert!(!hash_covered(&h1, &h2, &h1));
            assert!(!hash_covered(&h1, &h2, &h2) || h1 == h2);
        });
    }
}

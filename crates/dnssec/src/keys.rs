//! Key material: generation, roles, lifecycle timers, and key-file naming
//! compatible with BIND's `K<zone>+<alg>+<tag>` convention.
//!
//! **Crypto substitution (see DESIGN.md §4):** key material is random bytes
//! of the algorithm-appropriate length; signatures are keyed hashes over the
//! canonical signing payload. Every misconfiguration class the paper studies
//! (windows, tags, flags, algorithms, lengths, signer names) is checked on
//! metadata and therefore behaves identically to real asymmetric crypto.

use ddx_json::{FromJson, ToJson};
use rand::Rng;

use ddx_dns::{Dnskey, Name, DNSKEY_FLAG_REVOKE, DNSKEY_FLAG_SEP, DNSKEY_FLAG_ZONE};

use crate::algorithm::Algorithm;

/// The role a key plays in the zone's signing setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum KeyRole {
    /// Key-signing key: SEP flag set, signs the DNSKEY RRset, referenced by
    /// the parent's DS.
    Ksk,
    /// Zone-signing key: signs everything else.
    Zsk,
}

impl KeyRole {
    /// DNSKEY flags value for a fresh key of this role.
    pub fn flags(self) -> u16 {
        match self {
            KeyRole::Ksk => DNSKEY_FLAG_ZONE | DNSKEY_FLAG_SEP,
            KeyRole::Zsk => DNSKEY_FLAG_ZONE,
        }
    }
}

/// A generated key pair with its lifecycle timers (`dnssec-settime` fields).
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct KeyPair {
    /// The zone this key belongs to.
    pub zone: Name,
    /// Public-facing DNSKEY RDATA.
    pub dnskey: Dnskey,
    /// Declared role (KSK/ZSK). The wire only carries flags; the role is
    /// operational metadata, like BIND's key files.
    pub role: KeyRole,
    /// Key size in bits as requested at generation time.
    pub key_bits: u16,
    /// Publication time (seconds since simulation epoch).
    pub publish: u32,
    /// Activation time.
    pub activate: u32,
    /// Retirement time (`dnssec-settime -I`): the key stays published but
    /// stops signing; `None` while the key signs.
    #[json(default)]
    pub(crate) retire_at: Option<u32>,
    /// Deletion time (`dnssec-settime -D`); `None` while the key lives.
    pub(crate) delete_at: Option<u32>,
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        zone: Name,
        algorithm: Algorithm,
        key_bits: u16,
        role: KeyRole,
        now: u32,
    ) -> Self {
        let material_len = match algorithm {
            Algorithm::EcdsaP256Sha256 => 32,
            Algorithm::EcdsaP384Sha384 => 48,
            Algorithm::Ed25519 => 32,
            Algorithm::Ed448 => 57,
            // RSA and DSA families carry keyBits/8 octets of material.
            _ => usize::from(key_bits / 8),
        };
        let mut public_key = vec![0u8; material_len];
        rng.fill(&mut public_key[..]);
        KeyPair {
            zone,
            dnskey: Dnskey {
                flags: role.flags(),
                protocol: 3,
                algorithm: algorithm.code(),
                public_key,
            },
            role,
            key_bits,
            publish: now,
            activate: now,
            retire_at: None,
            delete_at: None,
        }
    }

    /// The key's algorithm; `None` if the DNSKEY carries an unmodeled code
    /// (possible after deliberate error injection).
    pub fn algorithm(&self) -> Option<Algorithm> {
        Algorithm::from_code(self.dnskey.algorithm)
    }

    /// RFC 4034 Appendix B key tag.
    pub fn key_tag(&self) -> u16 {
        self.dnskey.key_tag()
    }

    /// Sets the RFC 5011 REVOKE bit. Note this changes the key tag.
    pub fn revoke(&mut self) {
        self.dnskey.flags |= DNSKEY_FLAG_REVOKE;
    }

    /// True once the REVOKE bit is set.
    pub fn is_revoked(&self) -> bool {
        self.dnskey.is_revoked()
    }

    /// Marks the key for deletion at `when` (`dnssec-settime -D`).
    pub fn schedule_delete(&mut self, when: u32) {
        self.delete_at = Some(when);
    }

    /// True if the key should be published in the zone at time `now`.
    pub(crate) fn is_published(&self, now: u32) -> bool {
        self.publish <= now && self.delete_at.map(|d| now < d).unwrap_or(true)
    }

    /// True if the key may produce signatures at time `now`.
    pub fn is_active(&self, now: u32) -> bool {
        self.activate <= now
            && self.retire_at.map(|r| now < r).unwrap_or(true)
            && self.delete_at.map(|d| now < d).unwrap_or(true)
    }

    /// Marks the key as retired at `when`: it keeps being published (so
    /// cached signatures still validate) but produces no new signatures
    /// (`dnssec-settime -I`).
    pub fn schedule_retire(&mut self, when: u32) {
        self.retire_at = Some(when);
    }

    /// BIND-style key file stem, e.g. `Kexample.com.+008+12345`.
    pub fn file_stem(&self) -> String {
        format!(
            "K{}+{:03}+{:05}",
            self.zone.to_string().to_ascii_lowercase(),
            self.dnskey.algorithm,
            self.key_tag()
        )
    }
}

/// A keyring: the set of keys an operator manages for one zone.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson)]
pub struct KeyRing {
    keys: Vec<KeyPair>,
}

impl KeyRing {
    pub fn new() -> Self {
        KeyRing::default()
    }

    pub fn add(&mut self, key: KeyPair) {
        self.keys.push(key);
    }

    pub fn keys(&self) -> &[KeyPair] {
        &self.keys
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Removes keys matching a predicate, returning how many were removed.
    pub fn retain<F: FnMut(&KeyPair) -> bool>(&mut self, f: F) -> usize {
        let before = self.keys.len();
        self.keys.retain(f);
        before - self.keys.len()
    }

    /// Published keys at `now`.
    pub fn published(&self, now: u32) -> Vec<&KeyPair> {
        self.keys.iter().filter(|k| k.is_published(now)).collect()
    }

    /// Active signing keys of a role at `now`, excluding revoked keys.
    pub fn active(&self, role: KeyRole, now: u32) -> Vec<&KeyPair> {
        self.keys
            .iter()
            .filter(|k| k.role == role && k.is_active(now) && !k.is_revoked())
            .collect()
    }

    /// Mutable lookup by tag.
    pub fn by_tag_mut(&mut self, tag: u16) -> Option<&mut KeyPair> {
        self.keys.iter_mut().find(|k| k.key_tag() == tag)
    }

    /// Distinct algorithms present among published, non-revoked zone keys.
    pub fn algorithms(&self, now: u32) -> Vec<u8> {
        let mut algos: Vec<u8> = self
            .keys
            .iter()
            .filter(|k| k.is_published(now) && !k.is_revoked())
            .map(|k| k.dnskey.algorithm)
            .collect();
        algos.sort_unstable();
        algos.dedup();
        algos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::name;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn gen(role: KeyRole) -> KeyPair {
        KeyPair::generate(
            &mut rng(),
            name("example.com"),
            Algorithm::RsaSha256,
            2048,
            role,
            100,
        )
    }

    #[test]
    fn roles_set_flags() {
        assert!(gen(KeyRole::Ksk).dnskey.is_sep());
        assert!(!gen(KeyRole::Zsk).dnskey.is_sep());
        assert!(gen(KeyRole::Zsk).dnskey.is_zone_key());
    }

    #[test]
    fn generation_is_seeded_deterministic() {
        assert_eq!(gen(KeyRole::Ksk).dnskey, gen(KeyRole::Ksk).dnskey);
    }

    #[test]
    fn rsa_key_material_matches_bits() {
        let k = KeyPair::generate(
            &mut rng(),
            name("example.com"),
            Algorithm::RsaSha256,
            1024,
            KeyRole::Zsk,
            0,
        );
        assert_eq!(k.dnskey.public_key.len(), 128);
        assert_eq!(k.dnskey.key_bits(), 1024);
    }

    #[test]
    fn revoke_changes_tag() {
        let mut k = gen(KeyRole::Ksk);
        let tag = k.key_tag();
        k.revoke();
        assert!(k.is_revoked());
        assert_ne!(k.key_tag(), tag);
    }

    #[test]
    fn lifecycle_windows() {
        let mut k = gen(KeyRole::Zsk);
        assert!(!k.is_published(99));
        assert!(k.is_published(100));
        assert!(k.is_active(100));
        k.schedule_delete(200);
        assert!(k.is_published(199));
        assert!(!k.is_published(200));
        assert!(!k.is_active(200));
    }

    #[test]
    fn file_stem_format() {
        let k = gen(KeyRole::Ksk);
        let stem = k.file_stem();
        assert!(stem.starts_with("Kexample.com.+008+"), "{stem}");
        assert_eq!(stem.len(), "Kexample.com.+008+".len() + 5);
    }

    #[test]
    fn keyring_queries() {
        let mut ring = KeyRing::new();
        let ksk = gen(KeyRole::Ksk);
        let mut zsk = KeyPair::generate(
            &mut StdRng::seed_from_u64(2),
            name("example.com"),
            Algorithm::EcdsaP256Sha256,
            256,
            KeyRole::Zsk,
            100,
        );
        let ksk_tag = ksk.key_tag();
        ring.add(ksk);
        ring.add(zsk.clone());
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.active(KeyRole::Ksk, 100).len(), 1);
        assert_eq!(ring.by_tag_mut(ksk_tag).unwrap().role, KeyRole::Ksk);
        assert_eq!(ring.algorithms(100), vec![8, 13]);
        // Revoked keys drop out of `active` but stay published.
        zsk.revoke();
        let tag = ring.keys()[1].key_tag();
        ring.by_tag_mut(tag).unwrap().revoke();
        assert!(ring.active(KeyRole::Zsk, 100).is_empty());
        assert_eq!(ring.published(100).len(), 2);
    }
}

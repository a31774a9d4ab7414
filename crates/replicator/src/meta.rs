//! Zone meta-parameters extracted from a snapshot (paper §5.1 step 2):
//! DNSKEY properties, delegation settings, and NSEC vs NSEC3 usage — plus
//! the algorithm-substitution logic of §5.5.1 for algorithms the local
//! signer cannot generate.

use ddx_json::{FromJson, ToJson};

use ddx_dnssec::{Algorithm, DigestType, KeyRole, Nsec3Config};

/// Key blueprint: role, algorithm code (as observed, possibly deprecated),
/// and size in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub struct KeySpec {
    pub role: KeyRole,
    pub algorithm: u8,
    pub bits: u16,
}

/// NSEC3 parameters observed in the wild.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct Nsec3Meta {
    pub iterations: u16,
    pub salt_len: u8,
    pub opt_out: bool,
}

impl Nsec3Meta {
    /// Concrete chain parameters (salt bytes derived deterministically).
    pub(crate) fn to_config(&self) -> Nsec3Config {
        Nsec3Config {
            hash_algorithm: ddx_dnssec::NSEC3_HASH_SHA1,
            iterations: self.iterations,
            salt: (0..self.salt_len).map(|i| 0xA0 ^ i).collect(),
            opt_out: self.opt_out,
        }
    }
}

/// Everything ZReplicator mirrors from the original zone.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub struct ZoneMeta {
    pub keys: Vec<KeySpec>,
    /// DS digest type codes at the parent.
    pub ds_digest_types: Vec<u8>,
    /// `None` → NSEC.
    pub nsec3: Option<Nsec3Meta>,
}

impl Default for ZoneMeta {
    /// The most common real-world profile: one KSK + one ZSK (ECDSA P-256),
    /// one SHA-256 DS, NSEC.
    fn default() -> Self {
        ZoneMeta {
            keys: vec![
                KeySpec {
                    role: KeyRole::Ksk,
                    algorithm: Algorithm::EcdsaP256Sha256.code(),
                    bits: 256,
                },
                KeySpec {
                    role: KeyRole::Zsk,
                    algorithm: Algorithm::EcdsaP256Sha256.code(),
                    bits: 256,
                },
            ],
            ds_digest_types: vec![DigestType::Sha256.code()],
            nsec3: None,
        }
    }
}

/// One algorithm substitution that was applied (observed → generated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson)]
pub struct Substitution {
    pub observed: u8,
    pub generated: u8,
}

/// Why the meta could not be realized locally.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub enum MetaError {
    /// An observed algorithm is unknown *and* every substitute is already
    /// used by the zone (paper: "a small fraction of zones exhaust all
    /// supported algorithms, making exact replication impossible").
    AlgorithmExhausted { observed: u8 },
    /// The meta declares no keys at all.
    NoKeys,
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::AlgorithmExhausted { observed } => {
                write!(f, "no substitute available for algorithm {observed}")
            }
            MetaError::NoKeys => write!(f, "zone meta has no keys"),
        }
    }
}

/// The realizable key plan after substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyPlan {
    pub keys: Vec<(KeyRole, Algorithm, u16)>,
    pub substitutions: Vec<Substitution>,
}

/// Maps observed key specs onto generatable ones, substituting deprecated
/// algorithms (e.g. DSA-NSEC3-SHA1 → RSASHA256) while never colliding with
/// an algorithm the zone already uses (§5.5.1).
pub(crate) fn plan_keys(meta: &ZoneMeta) -> Result<KeyPlan, MetaError> {
    if meta.keys.is_empty() {
        return Err(MetaError::NoKeys);
    }
    let mut in_use: Vec<u8> = meta
        .keys
        .iter()
        .filter_map(|k| Algorithm::from_code(k.algorithm).filter(|a| a.supported_by_bind()))
        .map(|a| a.code())
        .collect();
    let mut out = Vec::new();
    let mut substitutions = Vec::new();
    // Remember the substitute chosen per observed algorithm so a KSK/ZSK
    // pair of the same deprecated algorithm stays a pair.
    let mut chosen: Vec<(u8, Algorithm)> = Vec::new();
    for spec in &meta.keys {
        let alg = Algorithm::from_code(spec.algorithm).filter(|a| a.supported_by_bind());
        let (alg, bits) = match alg {
            Some(a) => {
                let bits = if a.key_bits_valid(spec.bits) {
                    spec.bits
                } else {
                    a.default_key_bits()
                };
                (a, bits)
            }
            None => {
                let existing = chosen.iter().find(|(o, _)| *o == spec.algorithm);
                let substitute = match existing {
                    Some((_, a)) => *a,
                    None => {
                        let Some(a) = Algorithm::RsaSha256
                            .substitutes()
                            .iter()
                            .copied()
                            .find(|a| !in_use.contains(&a.code()))
                        else {
                            return Err(MetaError::AlgorithmExhausted {
                                observed: spec.algorithm,
                            });
                        };
                        in_use.push(a.code());
                        chosen.push((spec.algorithm, a));
                        substitutions.push(Substitution {
                            observed: spec.algorithm,
                            generated: a.code(),
                        });
                        a
                    }
                };
                (substitute, substitute.default_key_bits())
            }
        };
        out.push((spec.role, alg, bits));
    }
    Ok(KeyPlan {
        keys: out,
        substitutions,
    })
}

/// DS digest types, defaulting unknown codes to SHA-256.
pub(crate) fn plan_digests(meta: &ZoneMeta) -> Vec<DigestType> {
    let mut out: Vec<DigestType> = meta
        .ds_digest_types
        .iter()
        .map(|&c| DigestType::from_code(c).unwrap_or(DigestType::Sha256))
        .collect();
    out.dedup();
    if out.is_empty() {
        out.push(DigestType::Sha256);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_meta_plans_cleanly() {
        let plan = plan_keys(&ZoneMeta::default()).unwrap();
        assert_eq!(plan.keys.len(), 2);
        assert!(plan.substitutions.is_empty());
    }

    #[test]
    fn deprecated_algorithm_substituted() {
        let meta = ZoneMeta {
            keys: vec![
                KeySpec {
                    role: KeyRole::Ksk,
                    algorithm: 6, // DSA-NSEC3-SHA1: unsupported
                    bits: 1024,
                },
                KeySpec {
                    role: KeyRole::Zsk,
                    algorithm: 6,
                    bits: 1024,
                },
            ],
            ds_digest_types: vec![2],
            nsec3: None,
        };
        let plan = plan_keys(&meta).unwrap();
        // Both keys land on the same substitute.
        assert_eq!(plan.keys[0].1, plan.keys[1].1);
        assert_eq!(plan.substitutions.len(), 1);
        assert_eq!(plan.substitutions[0].observed, 6);
        assert_eq!(plan.substitutions[0].generated, 8);
    }

    #[test]
    fn substitute_avoids_in_use_algorithm() {
        let meta = ZoneMeta {
            keys: vec![
                KeySpec {
                    role: KeyRole::Ksk,
                    algorithm: 8, // RSASHA256 already used
                    bits: 2048,
                },
                KeySpec {
                    role: KeyRole::Zsk,
                    algorithm: 3, // DSA → must not collide with 8
                    bits: 1024,
                },
            ],
            ds_digest_types: vec![2],
            nsec3: None,
        };
        let plan = plan_keys(&meta).unwrap();
        assert_eq!(plan.keys[1].1.code(), 13);
    }

    #[test]
    fn exhaustion_detected() {
        let meta = ZoneMeta {
            keys: vec![
                KeySpec {
                    role: KeyRole::Ksk,
                    algorithm: 8,
                    bits: 2048,
                },
                KeySpec {
                    role: KeyRole::Ksk,
                    algorithm: 13,
                    bits: 256,
                },
                KeySpec {
                    role: KeyRole::Zsk,
                    algorithm: 3,
                    bits: 1024,
                },
            ],
            ds_digest_types: vec![2],
            nsec3: None,
        };
        assert_eq!(
            plan_keys(&meta),
            Err(MetaError::AlgorithmExhausted { observed: 3 })
        );
    }

    #[test]
    fn invalid_bits_fall_back_to_default() {
        let meta = ZoneMeta {
            keys: vec![KeySpec {
                role: KeyRole::Ksk,
                algorithm: 8,
                bits: 100, // impossible
            }],
            ds_digest_types: vec![2],
            nsec3: None,
        };
        let plan = plan_keys(&meta).unwrap();
        assert_eq!(plan.keys[0].2, 2048);
    }

    #[test]
    fn digest_planning() {
        let meta = ZoneMeta {
            ds_digest_types: vec![1, 2, 99],
            ..Default::default()
        };
        let digests = plan_digests(&meta);
        assert_eq!(digests, vec![DigestType::Sha1, DigestType::Sha256]);
        assert_eq!(
            plan_digests(&ZoneMeta {
                ds_digest_types: vec![],
                ..Default::default()
            }),
            vec![DigestType::Sha256]
        );
    }

    #[test]
    fn nsec3_meta_to_config() {
        let m = Nsec3Meta {
            iterations: 10,
            salt_len: 8,
            opt_out: true,
        };
        let cfg = m.to_config();
        assert_eq!(cfg.iterations, 10);
        assert_eq!(cfg.salt.len(), 8);
        assert!(cfg.opt_out);
        assert!(!cfg.rfc9276_compliant());
    }

    #[test]
    fn no_keys_rejected() {
        let meta = ZoneMeta {
            keys: vec![],
            ds_digest_types: vec![2],
            nsec3: None,
        };
        assert_eq!(plan_keys(&meta), Err(MetaError::NoKeys));
    }
}

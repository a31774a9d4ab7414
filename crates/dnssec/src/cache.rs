//! Incremental re-signing: what [`sign_zone_cached`](crate::sign_zone_cached)
//! remembers between passes over a zone.
//!
//! A full pass strips a zone's DNSSEC material and rebuilds it: the DNSKEY
//! RRset, the NSEC or NSEC3 chain and every RRSIG. Most of that output
//! depends only on data a one-record write does not touch. So a full pass
//! marks its output ([`Zone::mark_changes`](ddx_dns::Zone::mark_changes)),
//! and the zone, and every clone of it, then records which `(owner, type)`
//! sets its mutators touch and whether each existed at the mark. The cache
//! keeps, per zone apex, the mark of its latest full pass, the inputs that
//! pass signed with and how many RRSIGs it output. It holds no copy of the
//! zone's data.
//!
//! A later pass over a zone carrying that mark, under the same inputs,
//! re-signs only the sets the record names (plus the serial-bumped SOA) and
//! keeps every other RRSIG, NSEC and NSEC3 record: the output is
//! byte-identical to a full pass. That output has the same sets and as many
//! signatures as the marked one, so it keeps the mark, and so do replicas
//! cloned from any output along the way. The signer falls back to a full
//! pass, under a fresh mark, whenever that argument does not hold (see
//! [`sign_zone_cached`](crate::sign_zone_cached)).

use std::collections::HashMap;

use ddx_dns::{Name, ZoneChanges};

use crate::keys::KeyPair;
use crate::signer::{SignerConfig, Signers};

/// What a pass's output depends on besides the zone data: the published
/// keys (revocations included), the keys each algorithm signs data and the
/// DNSKEY RRset with, and the signer configuration.
#[derive(Debug, Clone)]
struct Inputs {
    published: Vec<KeyPair>,
    algorithms: Vec<(u8, Option<KeyPair>, Option<KeyPair>)>,
    cfg: SignerConfig,
}

impl Inputs {
    fn new(signers: &Signers<'_>, cfg: &SignerConfig) -> Self {
        Inputs {
            published: signers.published.iter().map(|&k| k.clone()).collect(),
            algorithms: signers
                .algorithms
                .iter()
                .map(|&(alg, data, key)| (alg, data.cloned(), key.cloned()))
                .collect(),
            cfg: cfg.clone(),
        }
    }

    fn matches(&self, signers: &Signers<'_>, cfg: &SignerConfig) -> bool {
        self.cfg == *cfg
            && self.published.len() == signers.published.len()
            && self
                .published
                .iter()
                .zip(&signers.published)
                .all(|(a, &b)| a == b)
            && self.algorithms.len() == signers.algorithms.len()
            && self.algorithms.iter().zip(&signers.algorithms).all(
                |((alg, data, key), &(b_alg, b_data, b_key))| {
                    *alg == b_alg && data.as_ref() == b_data && key.as_ref() == b_key
                },
            )
    }
}

/// The latest full pass over one zone apex.
#[derive(Debug, Clone)]
struct Lineage {
    /// The stamp the pass marked its output with.
    mark: u64,
    inputs: Inputs,
    /// RRSIG records in the output, and in every incremental output since.
    signatures: u64,
}

/// Per zone apex, the lineage of the latest full
/// [`sign_zone_cached`](crate::sign_zone_cached) pass: enough to prove that
/// a zone holds an output of that lineage bar the sets it recorded as
/// touched.
///
/// Every pass counts, in the process-wide `dnssec.sig_cache.*` counters of
/// the [`ddx_obs`] registry, the signatures it computed (`misses`) and the
/// signatures of its input it kept (`hits`).
#[derive(Debug, Clone)]
pub struct SigCache {
    zones: HashMap<Name, Lineage>,
    /// Global-registry handles; clones share the same cells.
    obs_hits: ddx_obs::Counter,
    obs_misses: ddx_obs::Counter,
}

impl Default for SigCache {
    fn default() -> Self {
        Self {
            zones: HashMap::new(),
            obs_hits: ddx_obs::counter("dnssec.sig_cache.hits", &[]),
            obs_misses: ddx_obs::counter("dnssec.sig_cache.misses", &[]),
        }
    }
}

impl SigCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a zone at `apex` that recorded `changes` holds an output of
    /// this cache's latest full pass over `apex`, and `signers` and `cfg`
    /// are that pass's inputs.
    pub(crate) fn holds_output(
        &self,
        apex: &Name,
        changes: &ZoneChanges,
        signers: &Signers<'_>,
        cfg: &SignerConfig,
    ) -> bool {
        self.zones.get(apex).is_some_and(|lineage| {
            lineage.mark == changes.mark() && lineage.inputs.matches(signers, cfg)
        })
    }

    /// Records a full pass over `apex` that computed every one of its
    /// output's `signatures` and marked it with `mark`.
    pub(crate) fn full_pass(
        &mut self,
        apex: &Name,
        mark: u64,
        signers: &Signers<'_>,
        cfg: &SignerConfig,
        signatures: u64,
    ) {
        self.obs_misses.add(signatures);
        let lineage = Lineage {
            mark,
            inputs: Inputs::new(signers, cfg),
            signatures,
        };
        self.zones.insert(apex.clone(), lineage);
    }

    /// Records an incremental pass over `apex` (one
    /// [`SigCache::holds_output`] accepted) that replaced `computed` of its
    /// input's signatures.
    pub(crate) fn incremental_pass(&self, apex: &Name, computed: u64) {
        let signatures = self
            .zones
            .get(apex)
            .expect("an incremental pass follows a full pass over its apex")
            .signatures;
        self.obs_misses.add(computed);
        self.obs_hits.add(signatures - computed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::keys::{KeyRing, KeyRole};
    use crate::signer::{sign_zone, sign_zone_cached};
    use ddx_dns::{name, RData, Record, RrType, Soa, Zone};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_000_000;

    fn zone(apex: &str) -> Zone {
        let apex = name(apex);
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa(Soa {
                mname: apex.child("ns1").unwrap(),
                rname: apex.child("hostmaster").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Ns(apex.child("ns1").unwrap()),
        ));
        z.add(Record::new(
            apex.child("www").unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        z
    }

    fn ring(apex: &str) -> KeyRing {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ring = KeyRing::new();
        for role in [KeyRole::Ksk, KeyRole::Zsk] {
            ring.add(KeyPair::generate(
                &mut rng,
                name(apex),
                Algorithm::EcdsaP256Sha256,
                256,
                role,
                NOW,
            ));
        }
        ring
    }

    /// True if `cache` would re-sign `z` incrementally under `r` and `cfg`.
    fn holds(cache: &SigCache, z: &Zone, r: &KeyRing, cfg: &SignerConfig) -> bool {
        z.changes()
            .is_some_and(|c| cache.holds_output(z.apex(), c, &Signers::new(r, NOW), cfg))
    }

    #[test]
    fn hits_and_misses_reach_global_registry() {
        let hits = ddx_obs::counter("dnssec.sig_cache.hits", &[]);
        let misses = ddx_obs::counter("dnssec.sig_cache.misses", &[]);
        let (h0, m0) = (hits.get(), misses.get());
        let (mut z, r, cfg) = (zone("a.test"), ring("a.test"), SignerConfig::nsec_at(NOW));
        let mut cache = SigCache::new();
        sign_zone_cached(&mut z, &r, &cfg, NOW, &mut cache).unwrap();
        sign_zone_cached(&mut z, &r, &cfg, NOW, &mut cache).unwrap();
        // Other tests in this process may also bump the registry, so the
        // deltas are lower bounds: the full pass computed every signature,
        // the second kept all but the SOA's.
        assert!(misses.get() - m0 >= 1);
        assert!(hits.get() - h0 >= 1);
    }

    #[test]
    fn hit_miss_accounting() {
        // An incremental pass counts as hits its input's signatures less
        // those it computed, so the lineage's count must stay the RRSIG
        // count of every output along it.
        let rrsigs = |z: &Zone| -> u64 {
            z.rrsets()
                .filter(|s| s.rtype == RrType::Rrsig)
                .map(|s| s.len() as u64)
                .sum()
        };
        let (mut z, r, cfg) = (zone("a.test"), ring("a.test"), SignerConfig::nsec_at(NOW));
        let mut cache = SigCache::new();
        sign_zone_cached(&mut z, &r, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(cache.zones[z.apex()].signatures, rrsigs(&z));
        let www = z.apex().child("www").unwrap();
        z.add(Record::new(
            www,
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 81)),
        ));
        assert!(holds(&cache, &z, &r, &cfg));
        sign_zone_cached(&mut z, &r, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(cache.zones[z.apex()].signatures, rrsigs(&z));
    }

    #[test]
    fn a_lineage_needs_its_mark_and_its_inputs() {
        let (mut z, r, cfg) = (zone("a.test"), ring("a.test"), SignerConfig::nsec_at(NOW));
        let mut cache = SigCache::new();
        assert!(!holds(&cache, &z, &r, &cfg));
        sign_zone_cached(&mut z, &r, &cfg, NOW, &mut cache).unwrap();
        assert!(holds(&cache, &z, &r, &cfg));
        // Another window, another ring, an unmarked copy or an uncached
        // pass is not this cache's output.
        assert!(!holds(&cache, &z, &r, &SignerConfig::nsec_at(NOW + 1)));
        assert!(!holds(&cache, &z, &ring("b.test"), &cfg));
        let mut unmarked = z.clone();
        unmarked.take_changes();
        assert!(!holds(&cache, &unmarked, &r, &cfg));
        let mut uncached = z.clone();
        sign_zone(&mut uncached, &r, &cfg, NOW).unwrap();
        assert!(!holds(&cache, &uncached, &r, &cfg));
    }

    #[test]
    fn replicas_keep_the_mark_until_a_full_pass() {
        let cfg = SignerConfig::nsec_at(NOW);
        let (ra, rb) = (ring("a.test"), ring("b.test"));
        let mut cache = SigCache::new();
        let mut a = zone("a.test");
        sign_zone_cached(&mut a, &ra, &cfg, NOW, &mut cache).unwrap();
        let mut b = zone("b.test");
        sign_zone_cached(&mut b, &rb, &cfg, NOW, &mut cache).unwrap();
        // A pass over `b` leaves `a`'s lineage alone.
        assert!(holds(&cache, &a, &ra, &cfg));
        assert!(holds(&cache, &b, &rb, &cfg));

        // An incremental pass over one replica of `a` keeps the mark, so
        // both replicas still hold outputs of the lineage.
        let replica = a.clone();
        sign_zone_cached(&mut a, &ra, &cfg, NOW, &mut cache).unwrap();
        assert_eq!(
            a.changes().unwrap().mark(),
            replica.changes().unwrap().mark()
        );
        assert!(holds(&cache, &a, &ra, &cfg));
        assert!(holds(&cache, &replica, &ra, &cfg));

        // A full pass (here, under a later window) starts a new lineage.
        let later = SignerConfig::nsec_at(NOW + 1);
        sign_zone_cached(&mut a, &ra, &later, NOW, &mut cache).unwrap();
        assert!(holds(&cache, &a, &ra, &later));
        assert!(!holds(&cache, &replica, &ra, &later));
    }
}

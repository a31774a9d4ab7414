//! The generative misconfiguration model: what population does zone
//! `(shard, index)` of a campaign belong to, and what is wrong with it?
//!
//! Benign-but-broken zones reuse the calibrated Table 3 sampler from
//! `ddx-dataset` (`sample_error_set` / `sample_meta`): NZIC-only zones at
//! the paper's 168 482 / 296 813 share, co-occurring subcategories at
//! their published frequencies, zone meta-parameters (key algorithms, DS
//! digests, NSEC vs NSEC3) drawn to match. The hostile population draws
//! uniformly from the PR 9 KeyTrap-class [`AttackFamily`] corpus at a
//! configurable permille rate.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ddx_dataset::{sample_error_set, sample_meta, Snapshot};
use ddx_dnsviz::ErrorCode;
use ddx_replicator::{AttackFamily, ZoneMeta};

use crate::rng::{zone_seed, SplitMix64};

/// What a drawn zone is: a calibrated misconfiguration or an attack.
#[derive(Debug, Clone)]
pub enum ZoneKind {
    Benign {
        intended: BTreeSet<ErrorCode>,
        meta: ZoneMeta,
        /// The rare parent-bogus condition (paper §5.4): the parent keeps
        /// the DS but loses its DNSKEY RRset. Only corpus snapshots carry
        /// it; the campaign model never draws it.
        parent_broken: bool,
    },
    Attack {
        family: AttackFamily,
    },
}

/// One fully specified synthetic zone, reproducible from its `seed` alone.
#[derive(Debug, Clone)]
pub struct ZoneDraw {
    pub shard: u32,
    pub index: u64,
    pub seed: u64,
    pub kind: ZoneKind,
}

impl ZoneDraw {
    /// The draw for erroneous corpus snapshot `index` of an evaluation
    /// seeded with `seed` (Tables 6/7): a benign zone carrying the
    /// snapshot's errors, meta-parameters and parent-bogus flag, with
    /// per-snapshot seed `seed ^ index·0x9E37_79B9_7F4A_7C15`.
    pub fn from_snapshot(snapshot: &Snapshot, seed: u64, index: u64) -> ZoneDraw {
        ZoneDraw {
            shard: 0,
            index,
            seed: seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            kind: ZoneKind::Benign {
                intended: snapshot.errors.clone(),
                meta: snapshot.meta.clone(),
                parent_broken: snapshot.parent_broken,
            },
        }
    }
}

/// Population weights for a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationModel {
    /// Hostile (KeyTrap-class) zones per 1000 drawn. The remainder is the
    /// Table-3-calibrated benign-but-broken population.
    pub attack_permille: u16,
}

impl Default for PopulationModel {
    /// 1% hostile: enough to keep budgets exercised in every shard without
    /// distorting the Table 3 / Table 7 regeneration.
    fn default() -> Self {
        PopulationModel {
            attack_permille: 10,
        }
    }
}

impl PopulationModel {
    /// Draws zone `index` of `shard`. Pure: same `(campaign_seed, shard,
    /// index)` → same draw, on any worker, in any order.
    pub fn draw(&self, campaign_seed: u64, shard: u32, index: u64) -> ZoneDraw {
        let seed = zone_seed(campaign_seed, shard, index);
        let mut rng = SplitMix64::new(seed);
        let hostile = rng.next_u64() % 1000 < u64::from(self.attack_permille.min(1000));
        let kind = if hostile {
            let family =
                AttackFamily::ALL[(rng.next_u64() % AttackFamily::ALL.len() as u64) as usize];
            ZoneKind::Attack { family }
        } else {
            // Hand the calibrated sampler a cross-platform deterministic
            // StdRng seeded from this zone's stream.
            let mut std_rng = StdRng::seed_from_u64(rng.next_u64());
            let intended = sample_error_set(&mut std_rng, None);
            let meta = sample_meta(&mut std_rng, &intended);
            ZoneKind::Benign {
                intended,
                meta,
                parent_broken: false,
            }
        };
        ZoneDraw {
            shard,
            index,
            seed,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_reproducible() {
        let model = PopulationModel::default();
        for idx in 0..32 {
            let a = model.draw(0xC0FFEE, 2, idx);
            let b = model.draw(0xC0FFEE, 2, idx);
            assert_eq!(a.seed, b.seed);
            match (&a.kind, &b.kind) {
                (
                    ZoneKind::Benign {
                        intended: ia,
                        meta: ma,
                        ..
                    },
                    ZoneKind::Benign {
                        intended: ib,
                        meta: mb,
                        ..
                    },
                ) => {
                    assert_eq!(ia, ib);
                    assert_eq!(format!("{ma:?}"), format!("{mb:?}"));
                }
                (ZoneKind::Attack { family: fa }, ZoneKind::Attack { family: fb }) => {
                    assert_eq!(fa.label(), fb.label());
                }
                _ => panic!("population flipped between identical draws"),
            }
        }
    }

    #[test]
    fn attack_rate_tracks_the_permille_knob() {
        let always = PopulationModel {
            attack_permille: 1000,
        };
        let never = PopulationModel { attack_permille: 0 };
        for idx in 0..64 {
            assert!(matches!(
                always.draw(7, 0, idx).kind,
                ZoneKind::Attack { .. }
            ));
            assert!(matches!(
                never.draw(7, 0, idx).kind,
                ZoneKind::Benign { .. }
            ));
        }
    }

    #[test]
    fn benign_population_is_nzic_dominated() {
        // The calibrated sampler puts NZIC-only zones at ≈56.8% of the
        // erroneous population (168 482 / 296 813); a loose band catches
        // gross calibration regressions without flaking.
        let model = PopulationModel { attack_permille: 0 };
        let total = 600u64;
        let nzic_only = (0..total)
            .filter(|idx| match model.draw(99, 0, *idx).kind {
                ZoneKind::Benign { ref intended, .. } => {
                    intended.len() == 1 && intended.contains(&ErrorCode::Nsec3IterationsNonzero)
                }
                ZoneKind::Attack { .. } => false,
            })
            .count() as f64;
        let share = nzic_only / total as f64;
        assert!(
            (0.42..0.72).contains(&share),
            "NZIC-only share {share:.3} is far from the paper's 0.568"
        );
    }
}

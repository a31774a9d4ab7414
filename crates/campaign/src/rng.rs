//! Deterministic seeding for campaign draws.
//!
//! Every zone's seed is a pure function of `(campaign_seed, shard_index,
//! index_in_shard)` — no sequential stream state — so any shard (and any
//! single zone) is reproducible in isolation, regardless of worker count
//! or evaluation order. The mixer is the workspace's one SplitMix64
//! (Steele et al., *Fast Splittable Pseudorandom Number Generators*), from
//! the in-tree `rand`; [`SplitMix64`] also drives each zone's handful of
//! independent decisions.

pub(crate) use rand::SplitMix64;

/// The seed for zone `index_in_shard` of shard `shard`: reproducible from
/// `(campaign_seed, shard, index)` alone. Independent of the total zone
/// count and the worker count, so resharding a campaign never silently
/// changes the zones that shards it did not touch.
pub(crate) fn zone_seed(campaign_seed: u64, shard: u32, index_in_shard: u64) -> u64 {
    let gamma = SplitMix64::GAMMA;
    let shard_key =
        SplitMix64::mix(campaign_seed ^ SplitMix64::mix(u64::from(shard).wrapping_mul(gamma)));
    SplitMix64::mix(shard_key ^ index_in_shard.wrapping_mul(gamma))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answer() {
        // Reference vector from the SplitMix64 public-domain implementation
        // (Vigna): seed 0 → e220a8397b1dcdaf 6e789e6aa1b965f4 06c45d188009454f.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn zone_seed_is_pure_and_distinct() {
        assert_eq!(zone_seed(42, 3, 7), zone_seed(42, 3, 7));
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..8u32 {
            for idx in 0..64u64 {
                assert!(
                    seen.insert(zone_seed(42, shard, idx)),
                    "seed collision at shard {shard} index {idx}"
                );
            }
        }
        // Different campaign seeds diverge immediately.
        assert_ne!(zone_seed(42, 0, 0), zone_seed(43, 0, 0));
    }
}

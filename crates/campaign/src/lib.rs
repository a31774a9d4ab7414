//! # ddx-campaign — Internet-scale synthetic measurement campaigns
//!
//! The paper analyzes ~1M DNSViz-logged domains; this crate regenerates
//! that scale synthetically (DESIGN.md §16). A campaign is a seeded,
//! sharded population of broken zones:
//!
//! - **Model** ([`PopulationModel`]): each zone is drawn from the
//!   Table-3-calibrated `ddx-dataset` sampler (benign-but-broken, the 47
//!   error codes at their published frequencies) or the PR 9
//!   KeyTrap-class [`ddx_replicator::AttackFamily`] corpus, from a
//!   SplitMix64 seed that is a pure function of
//!   `(campaign_seed, shard, index)` — any shard reproduces in isolation.
//! - **Engine** ([`run_campaign`]): a bounded worker pool streams each
//!   zone through replicate → probe → grok (budgeted, memoized) → DFixer
//!   and drops it; memory stays flat at any campaign size.
//! - **Shards** ([`shard`]): NDJSON with a checksummed footer; `--resume`
//!   skips shards that validate, so a killed run finishes byte-identical
//!   to an uninterrupted one.
//! - **Aggregation** ([`aggregate_dir`]): regenerates Table 3 / Table 7 /
//!   Table 6 views from the shard set, with tolerance checks against the
//!   paper's distributions.

pub mod aggregate;
pub mod engine;
pub mod model;
pub mod rng;
pub mod shard;

pub use aggregate::{aggregate_dir, Aggregator, CampaignSummary, Table3Row, Table6Row, Table7};
pub use engine::{
    evaluate_corpus, evaluate_zone, run_campaign, shard_zone_count, CampaignConfig, CampaignOutcome,
};
pub use model::{PopulationModel, ZoneDraw, ZoneKind};
pub use rng::{zone_seed, SplitMix64};
pub use shard::{
    read_shard, shard_path, validate_shard, Outcome, ShardFooter, ShardWriter, ZoneRecord,
};

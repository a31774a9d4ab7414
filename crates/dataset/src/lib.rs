//! # ddx-dataset — calibrated synthetic corpus + longitudinal analysis
//!
//! The DNS-OARC DNSViz historical database is access-restricted, so this
//! crate substitutes a synthetic corpus whose marginal distributions come
//! from the paper's published tables (DESIGN.md §4) and re-implements the
//! paper's full analysis pipeline over it: snapshot categorization, CD/SD
//! splits, transition matrices, negative-transition attribution, error
//! prevalence, resolution times, and never-resolved shares (Tables 1-5,
//! Figures 1-5).

pub mod analysis;
mod corpus;
pub mod params;
pub mod tranco;

pub use corpus::{
    generate, sample_error_set, sample_meta, Corpus, CorpusConfig, DomainRecord, Level, Snapshot,
};

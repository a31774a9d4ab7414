//! # ddx-dnsviz — the diagnostic engine (DNSViz analogue)
//!
//! `probe` walks the delegation chain from a local trust anchor to the query
//! domain, interrogating every authoritative server; `grok` validates the
//! collected material against the DNSSEC RFCs and annotates violations with
//! one of 47 error codes grouped per the paper's Table 3, finally
//! classifying the snapshot into `sv/svm/sb/is/lm/ic`.

mod codes;
mod ede;
mod grok;
mod probe;
mod resolver;
mod status;

pub use codes::{Category, ErrorCode, Subcategory};
pub use grok::memo::GrokMemo;
pub use grok::{
    grok, grok_with_budget, AlgorithmScope, BudgetCounter, DsProblem, ErrorDetail, ErrorInstance,
    GrokReport, ValidationBudget, ZoneReport,
};
pub use probe::{probe, ProbeConfig, ProbeResult, RetryPolicy, NODATA_PROBE_TYPE, NX_PROBE_LABEL};
pub use resolver::{resolve_validating, Resolution, ResolverConfig, ValidationState};
pub use status::SnapshotStatus;

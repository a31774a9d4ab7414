//! # ddx-dnsviz — the diagnostic engine (DNSViz analogue)
//!
//! `probe` walks the delegation chain from a local trust anchor to the query
//! domain, interrogating every authoritative server; `grok` validates the
//! collected material against the DNSSEC RFCs and annotates violations with
//! one of 47 error codes grouped per the paper's Table 3, finally
//! classifying the snapshot into `sv/svm/sb/is/lm/ic`.

pub mod codes;
pub mod ede;
pub mod grok;
pub mod probe;
pub mod resolver;
pub mod status;

pub use codes::{Category, ErrorCode, Subcategory, WarningCode};
pub use ede::{ede_for, Ede};
pub use grok::memo::GrokMemo;
pub use grok::{
    grok, grok_with_budget, AlgorithmScope, BudgetCounter, DsProblem, ErrorDetail, ErrorInstance,
    GrokReport, ValidationBudget, ZoneReport,
};
pub use probe::{
    probe, FailureKind, ProbeConfig, ProbeResult, QueryFailure, RetryPolicy, ServerHealth,
    ServerProbe, ZoneProbe, NX_PROBE_LABEL,
};
pub use resolver::{
    resolve_validating, Nsec3IterationPolicy, Resolution, ResolverConfig, ValidationState,
};
pub use status::SnapshotStatus;

//! # ddx — DNSSEC debugging, replication, and automated repair
//!
//! The facade crate of the workspace reproducing *"Decoding DNSSEC Errors
//! at Scale"* (IMC '25): re-exports every subsystem, including the
//! end-to-end evaluator (paper Fig 7, [`evaluate_corpus`]) that drives
//! Tables 6 & 7.
//!
//! ## Quick start
//!
//! ```
//! use ddx::prelude::*;
//! use std::collections::BTreeSet;
//!
//! // Replicate a zone whose only KSK is revoked and referenced by a DS.
//! let request = ReplicationRequest {
//!     meta: ZoneMeta::default(),
//!     intended: BTreeSet::from([ErrorCode::DsReferencesRevokedKey]),
//! };
//! let mut rep = replicate(&request, 1_000_000, 42).unwrap();
//!
//! // Diagnose it the way DNSViz would…
//! let report = grok(&probe(&rep.sandbox.testbed, &rep.probe));
//! assert_eq!(report.status, SnapshotStatus::Sb);
//!
//! // …and let DFixer repair it.
//! let cfg = rep.probe.clone();
//! let run = run_fixer(&mut rep.sandbox, &cfg, &FixerOptions::default());
//! assert!(run.fixed);
//! ```

pub use ddx_campaign::{evaluate_corpus, evaluate_zone, CampaignSummary, Table6Row, ZoneDraw};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ddx_campaign::{evaluate_corpus, evaluate_zone, CampaignSummary, ZoneDraw};
    pub use ddx_dataset::{generate, Corpus, CorpusConfig, Level, Snapshot};
    pub use ddx_dns::{name, Name, RData, RRset, Record, RrType, Zone};
    pub use ddx_dnssec::{Algorithm, DigestType, KeyPair, KeyRing, KeyRole, Nsec3Config};
    pub use ddx_dnsviz::{
        grok, grok_with_budget, probe, ErrorCode, GrokReport, ProbeConfig, SnapshotStatus,
        Subcategory, ValidationBudget,
    };
    pub use ddx_fixer::{
        run_fixer, run_naive, suggest, FixRun, FixerOptions, Instruction, InstructionKind,
        ServerFlavor,
    };
    pub use ddx_obs::MetricsSnapshot;
    pub use ddx_replicator::{
        replicate, replicate_attack, AttackFamily, Nsec3Meta, Replication, ReplicationRequest,
        ZoneMeta,
    };
    pub use ddx_server::{build_sandbox, Sandbox, Server, ServerId, Testbed, ZoneSpec};
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dataset::{generate, CorpusConfig};

    /// The per-snapshot seed base the evaluation tests have always used.
    const SEED: u64 = 0xE7A1;

    #[test]
    fn pipeline_small_sample() {
        let corpus = generate(&CorpusConfig {
            scale: 0.002,
            seed: 5,
        });
        let before = ddx_obs::snapshot();
        let summary = evaluate_corpus(&corpus, 40, SEED, 2);
        let metrics = ddx_obs::snapshot().diff(&before);
        let total = summary.benign_total();
        assert!(total.zones > 0);
        assert!(total.zones <= 40);
        // The bulk replicates and everything replicated gets fixed.
        assert!(total.rr() > 0.7, "rr {}", total.rr());
        assert!(total.fr() > 0.99, "fr {}", total.fr());
        // S1 replicates essentially always.
        let s1 = &summary.table6[0];
        if s1.zones > 10 {
            assert!(s1.rr() > 0.9, "s1 rr {}", s1.rr());
        }
        assert!(total.max_iterations <= 4);
        // Every addressed cause came out of grok with a structured (typed)
        // payload — nothing fell back to the free-form Note escape hatch.
        let details = |kind| {
            metrics
                .counters
                .get(&format!("fixer.details{{kind={kind}}}"))
                .copied()
                .unwrap_or(0)
        };
        assert!(details("typed") > 0);
        assert_eq!(details("note"), 0);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let corpus = generate(&CorpusConfig {
            scale: 0.002,
            seed: 9,
        });
        let seq = evaluate_corpus(&corpus, 30, SEED, 1);
        let par = evaluate_corpus(&corpus, 30, SEED, 4);
        assert_eq!(seq.zones, 30);
        assert_eq!(seq, par);
    }
}

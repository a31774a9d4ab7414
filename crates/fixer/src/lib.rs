//! # ddx-fixer — DFixer
//!
//! The paper's primary contribution: a framework that correlates cascaded
//! DNSSEC error codes into root causes (dependency graph + topological
//! ordering), synthesizes a minimal ordered remediation plan per cause
//! (DResolver), renders it into concrete commands for BIND — with NSD,
//! Knot, and PowerDNS translation layers (§5.6) — and iteratively applies
//! and re-verifies until the zone is clean (Fig 6). A naive per-error
//! baseline models the paper's GPT-4o comparison (Appendix A.2).

mod commands;
mod dresolver;
mod engine;
mod graph;
mod instructions;
mod naive;

pub use commands::ServerFlavor;
pub use dresolver::{resolve, FixContext, Resolution};
pub use engine::{
    apply_plan, run_fixer, run_fixer_with_memo, run_naive, suggest, suggest_remote, FixRun,
    FixerOptions,
};
pub use instructions::{Instruction, InstructionKind};

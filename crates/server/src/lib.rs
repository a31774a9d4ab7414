//! # ddx-server — in-memory authoritative DNS server testbed
//!
//! Models the paper's evaluation substrate: per-zone authoritative servers
//! (two per zone, possibly with divergent copies), a query engine with
//! DNSSEC-aware positive, referral, and negative responses, an in-process
//! [`testbed::Network`], and a real loopback UDP transport speaking
//! RFC 1035 wire format.

mod answer;
mod batch;
mod cache;
mod fault;
mod index;
mod rollover;
mod sandbox;
mod server;
mod testbed;
mod udp;

pub use cache::CachingNetwork;
pub use fault::{FaultNetwork, FaultPlan, FlapSchedule};
pub use index::{Proof, ZoneIndex};
pub use rollover::{botched_ksk_rollover, Rollover, RolloverKind};
pub use sandbox::{build_sandbox, Sandbox, ZoneSpec};
pub use server::{Server, ServerBehavior, ServerId};
pub use testbed::{Network, QueryOutcome, Testbed};
pub use udp::{TransportConfig, UdpNetwork, UdpServerHandle};

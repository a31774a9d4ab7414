//! # ddx-server — in-memory authoritative DNS server testbed
//!
//! Models the paper's evaluation substrate: per-zone authoritative servers
//! (two per zone, possibly with divergent copies), a query engine with
//! DNSSEC-aware positive, referral, and negative responses, an in-process
//! [`testbed::Network`], and a real loopback UDP transport speaking
//! RFC 1035 wire format.

pub mod answer;
pub mod batch;
pub mod cache;
pub mod fault;
pub mod index;
pub mod ratelimit;
pub mod rollover;
pub mod sandbox;
pub mod server;
pub mod testbed;
pub mod udp;

pub use answer::{AnswerKey, AnswerMemo};
pub use batch::{
    bind_worker_socket, mmsg_supported, reuseport_supported, BatchMode, BatchSocket, RecvBatch,
    SendItem, SendQueue,
};
pub use cache::CachingNetwork;
pub use fault::{FaultNetwork, FaultPlan, FlapSchedule};
pub use index::ZoneIndex;
pub use ratelimit::{RateLimitConfig, RateLimiter};
pub use rollover::{botched_ksk_rollover, Rollover, RolloverKind, RolloverStep};
pub use sandbox::{build_sandbox, Sandbox, SandboxZone, ZoneSpec};
pub use server::{Server, ServerBehavior, ServerId};
pub use testbed::{GenerationSource, Network, QueryOutcome, Testbed, UncachedNetwork};
pub use udp::{TransportConfig, UdpNetwork, UdpServerHandle};

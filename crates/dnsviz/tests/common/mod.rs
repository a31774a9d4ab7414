//! Shared three-level sandbox corpus for the dnsviz integration tests:
//! the same 8 zone-shape variants drive the chaos sweep
//! (`probe_resilience`) and the incremental-equivalence harness
//! (`incremental_equivalence`).

#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use ddx_dns::{name, RData, RrType};
use ddx_dnssec::Nsec3Config;
use ddx_dnsviz::{ProbeConfig, RetryPolicy};
use ddx_server::{build_sandbox, Sandbox, ZoneSpec};

pub const NOW: u32 = 1_000_000;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Serializes the tests of a binary that read exact deltas of the
/// process-global metrics registry: each such test holds the guard for its
/// whole run, so no sibling test bumps a counter between its snapshots.
pub fn serial() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}
pub const SANDBOX_SEED: u64 = 0xC7A0;
pub const QUERY_DOMAIN: &str = "www.chd.par.a.com";
pub const LEAF_APEX: &str = "chd.par.a.com";
pub const PAR_APEX: &str = "par.a.com";
pub const ANCHOR_APEX: &str = "a.com";

/// Builds one three-level sandbox (anchor → par → leaf) with the given leaf
/// spec tweaks and post-build zone mutation.
pub fn sandbox(tweak: impl FnOnce(&mut ZoneSpec), mutate: impl FnOnce(&mut Sandbox)) -> Sandbox {
    let mut leaf = ZoneSpec::conventional(name(LEAF_APEX));
    tweak(&mut leaf);
    let mut sb = build_sandbox(
        &[
            ZoneSpec::conventional(name(ANCHOR_APEX)),
            ZoneSpec::conventional(name(PAR_APEX)),
            leaf,
        ],
        NOW,
        SANDBOX_SEED,
    );
    mutate(&mut sb);
    sb
}

/// The variant labels, in corpus order.
pub const VARIANT_NAMES: [&str; 8] = [
    "nsec",
    "nsec-wildcard",
    "nsec3",
    "nsec3-optout-wildcard",
    "nsec-broken-chain",
    "nsec-corrupt-next",
    "nsec3-stripped-sigs",
    "no-ds",
];

/// Builds one corpus variant from scratch — for tests that mutate the
/// sandbox and therefore cannot share the [`variants`] statics.
pub fn build_variant(label: &str) -> Sandbox {
    match label {
        "nsec" => sandbox(|_| {}, |_| {}),
        "nsec-wildcard" => sandbox(|s| s.wildcard = true, |_| {}),
        "nsec3" => sandbox(|s| s.nsec3 = Some(Nsec3Config::default()), |_| {}),
        "nsec3-optout-wildcard" => sandbox(
            |s| {
                s.nsec3 = Some(Nsec3Config {
                    opt_out: true,
                    ..Nsec3Config::default()
                });
                s.wildcard = true;
            },
            |_| {},
        ),
        "nsec-broken-chain" => sandbox(
            |_| {},
            |sb| {
                sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                    z.remove(&name(QUERY_DOMAIN), RrType::Nsec);
                });
            },
        ),
        "nsec-corrupt-next" => sandbox(
            |_| {},
            |sb| {
                sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                    if let Some(set) = z.get_mut(&name(LEAF_APEX), RrType::Nsec) {
                        for rdata in &mut set.rdatas {
                            if let RData::Nsec(n) = rdata {
                                n.next_name = name("zzz.outside.test");
                            }
                        }
                    }
                });
            },
        ),
        "nsec3-stripped-sigs" => sandbox(
            |s| s.nsec3 = Some(Nsec3Config::default()),
            |sb| {
                sb.testbed.mutate_zone_everywhere(&name(LEAF_APEX), |z| {
                    z.strip_type(RrType::Rrsig);
                });
            },
        ),
        "no-ds" => sandbox(|s| s.publish_ds = false, |_| {}),
        other => panic!("unknown corpus variant {other}"),
    }
}

/// The read-only zone-variant corpus, built once per test binary.
pub fn variants() -> &'static Vec<(&'static str, Sandbox)> {
    static VARIANTS: OnceLock<Vec<(&'static str, Sandbox)>> = OnceLock::new();
    VARIANTS.get_or_init(|| {
        VARIANT_NAMES
            .iter()
            .map(|label| (*label, build_variant(label)))
            .collect()
    })
}

/// The standard probe configuration for a corpus sandbox: every sandbox
/// zone is hinted, so incomplete delegations stay observable.
pub fn probe_cfg(sb: &Sandbox) -> ProbeConfig {
    ProbeConfig {
        anchor_zone: sb.anchor().apex.clone(),
        anchor_servers: sb.anchor().servers.clone(),
        query_domain: name(QUERY_DOMAIN),
        target_types: vec![RrType::A],
        time: NOW,
        retry: RetryPolicy::default(),
        hints: sb
            .zones
            .iter()
            .map(|z| (z.apex.clone(), z.servers.clone()))
            .collect(),
    }
}

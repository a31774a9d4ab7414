//! Per-client token-bucket rate limiting for the UDP transport workers.
//!
//! Each transport worker owns its own [`RateLimiter`] (shared-nothing, no
//! cross-worker locks). A client is its source IP address; every accepted
//! query costs one token, tokens refill continuously at `qps` per second up
//! to a `burst` ceiling. When a bucket is dry the worker answers REFUSED
//! (RFC 1035 rcode 5 — the conventional "go away" for policy rejections)
//! instead of spending zone-lookup work on the query.
//!
//! With `SO_REUSEPORT` the kernel pins a client socket to one worker by
//! 4-tuple hash, so one client's queries meet one bucket and the limit is
//! exact. On the `try_clone` fallback (no port sharing) a client's queries
//! can spread across workers, and the effective ceiling becomes up to
//! `workers × qps` — documented in DESIGN.md §12.
//!
//! The refill arithmetic runs on caller-supplied microsecond timestamps
//! ([`RateLimiter::allow_at`]), which makes the core deterministic and
//! directly testable; [`RateLimiter::allow`] feeds it wall-clock time.

use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

/// Configuration for one worker's limiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Sustained tokens per second granted to each client.
    pub qps: u32,
    /// Bucket ceiling: how many queries a client may burst after idling.
    pub burst: u32,
}

impl RateLimitConfig {
    pub fn new(qps: u32, burst: u32) -> Self {
        RateLimitConfig {
            qps: qps.max(1),
            burst: burst.max(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Microtokens (tokens × 1e6), avoiding float drift in long runs.
    micro_tokens: u64,
    last_refill_us: u64,
}

/// Keep the client table bounded: a hostile mix can cycle through spoofed
/// sources, and an unbounded map is itself a resource attack. Reaching the
/// cap drops the whole table (every client starts a fresh burst — brief
/// over-admission, never over-refusal).
const CLIENT_CAP: usize = 16_384;

/// A shared-nothing per-worker token-bucket table.
#[derive(Debug)]
pub struct RateLimiter {
    cfg: RateLimitConfig,
    buckets: HashMap<IpAddr, Bucket>,
    epoch: Instant,
    obs_allowed: ddx_obs::Counter,
    obs_refused: ddx_obs::Counter,
    obs_flushes: ddx_obs::Counter,
}

impl RateLimiter {
    pub fn new(cfg: RateLimitConfig) -> Self {
        RateLimiter {
            cfg,
            buckets: HashMap::new(),
            epoch: Instant::now(),
            obs_allowed: ddx_obs::counter("server.rate_limit.allowed", &[]),
            obs_refused: ddx_obs::counter("server.rate_limit.refused", &[]),
            obs_flushes: ddx_obs::counter("server.rate_limit.table_flushes", &[]),
        }
    }

    /// Charges one query to `client` at wall-clock now.
    pub fn allow(&mut self, client: IpAddr) -> bool {
        let now_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.allow_at(client, now_us)
    }

    /// Deterministic core: charges one query to `client` at `now_us`
    /// microseconds since this limiter's epoch. Timestamps must be
    /// monotone per limiter (a stale timestamp just grants no refill).
    pub fn allow_at(&mut self, client: IpAddr, now_us: u64) -> bool {
        if self.buckets.len() >= CLIENT_CAP && !self.buckets.contains_key(&client) {
            self.buckets.clear();
            self.obs_flushes.inc();
        }
        let full = u64::from(self.cfg.burst) * 1_000_000;
        let bucket = self.buckets.entry(client).or_insert(Bucket {
            micro_tokens: full,
            last_refill_us: now_us,
        });
        let elapsed = now_us.saturating_sub(bucket.last_refill_us);
        bucket.last_refill_us = now_us;
        bucket.micro_tokens = bucket
            .micro_tokens
            .saturating_add(elapsed.saturating_mul(u64::from(self.cfg.qps)))
            .min(full);
        if bucket.micro_tokens >= 1_000_000 {
            bucket.micro_tokens -= 1_000_000;
            self.obs_allowed.inc();
            true
        } else {
            self.obs_refused.inc();
            false
        }
    }

    /// Clients currently tracked.
    pub fn client_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, last))
    }

    #[test]
    fn burst_then_refused_then_refill() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(10, 3));
        // Burst of 3 at t=0, fourth refused.
        for _ in 0..3 {
            assert!(rl.allow_at(ip(1), 0));
        }
        assert!(!rl.allow_at(ip(1), 0));
        // 100ms at 10 qps = exactly one token back.
        assert!(rl.allow_at(ip(1), 100_000));
        assert!(!rl.allow_at(ip(1), 100_000));
    }

    #[test]
    fn clients_have_independent_buckets() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 1));
        assert!(rl.allow_at(ip(1), 0));
        assert!(!rl.allow_at(ip(1), 0));
        // A different source is untouched by client 1's drain.
        assert!(rl.allow_at(ip(2), 0));
        assert_eq!(rl.client_count(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(100, 2));
        assert!(rl.allow_at(ip(1), 0));
        // A long idle period must not bank more than `burst` tokens.
        for _ in 0..2 {
            assert!(rl.allow_at(ip(1), 60_000_000));
        }
        assert!(!rl.allow_at(ip(1), 60_000_000));
    }

    #[test]
    fn stale_timestamp_grants_no_refill() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 1));
        assert!(rl.allow_at(ip(1), 5_000_000));
        // Going backwards in time is treated as zero elapsed.
        assert!(!rl.allow_at(ip(1), 0));
    }

    #[test]
    fn wall_clock_entry_point_works() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1_000_000, 5));
        assert!(rl.allow(ip(9)));
    }
}

//! Frozen registry state: JSON-ready, diffable, renderable.

use std::collections::BTreeMap;

use ddx_json::{FromJson, ToJson};

/// A frozen histogram: bucket upper bounds, per-bucket counts (one extra
/// trailing overflow bucket), and total count/sum.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson, FromJson)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (µs under the default bounds); 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate from the bucketed counts: the upper bound of the
    /// bucket holding the q-th sample (`0.0 < q <= 1.0`). Samples in the
    /// overflow bucket report the last finite bound. Returns 0 when empty.
    /// An upper-bound estimate is coarse but monotone and never understates
    /// a tail — the right bias for latency SLO reporting.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let idx = i.min(self.bounds.len() - 1);
                return self.bounds[idx];
            }
        }
        *self.bounds.last().expect("bounds checked non-empty")
    }
}

/// Every registered metric at one instant, keyed by the rendered
/// `name{label=value,...}` form. `BTreeMap` keys make serialization
/// deterministic, so JSON round-trips are byte-for-byte stable.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson, FromJson)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of the counter rendered as `key` (e.g.
    /// `server.fault.injected{kind=drop}`), 0 when it is absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The change from `earlier` to `self`. Counters and histogram counts
    /// subtract saturating (a restarted process reads as zero, not a
    /// huge wraparound); gauges subtract signed. Metrics present only in
    /// `earlier` are dropped; metrics present only in `self` keep their
    /// full value. Unchanged metrics stay in the result with a zero delta,
    /// so a no-op interval diffs to an all-zero snapshot over the same keys.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (k, v) in &self.counters {
            out.counters
                .insert(k.clone(), v.saturating_sub(earlier.counter(k)));
        }
        for (k, v) in &self.gauges {
            let prev = earlier.gauges.get(k).copied().unwrap_or(0);
            out.gauges.insert(k.clone(), v.wrapping_sub(prev));
        }
        for (k, h) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(prev) if prev.bounds == h.bounds && prev.counts.len() == h.counts.len() => {
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        counts: h
                            .counts
                            .iter()
                            .zip(&prev.counts)
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                        count: h.count.saturating_sub(prev.count),
                        sum: h.sum.saturating_sub(prev.sum),
                    }
                }
                _ => h.clone(),
            };
            out.histograms.insert(k.clone(), d);
        }
        out
    }

    /// True when every counter and gauge is zero and every histogram is
    /// empty — what `now.diff(&now)` produces.
    pub fn is_zero(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.gauges.values().all(|&v| v == 0)
            && self.histograms.values().all(|h| h.count == 0 && h.sum == 0)
    }

    /// Pretty-printed JSON; deterministic for a given snapshot.
    pub fn to_json(&self) -> String {
        ddx_json::to_string_pretty(self)
    }

    pub fn from_json(s: &str) -> Result<MetricsSnapshot, ddx_json::Error> {
        ddx_json::from_str(s)
    }

    /// Render the snapshot as a markdown run report: a counter table, a
    /// gauge table, and a histogram table (count / total / mean). Markdown
    /// reads fine in a terminal and renders as real tables in CI job
    /// summaries.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("## Run metrics\n");
        if !self.counters.is_empty() {
            out.push_str("\n| counter | value |\n|---|---:|\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("| `{k}` | {v} |\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n| gauge | value |\n|---|---:|\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("| `{k}` | {v} |\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "\n| histogram | count | total (µs) | mean (µs) |\n|---|---:|---:|---:|\n",
            );
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "| `{k}` | {} | {} | {:.1} |\n",
                    h.count,
                    h.sum,
                    h.mean()
                ));
            }
        }
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("\n(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("a.hits", &[]).add(3);
        reg.counter("a.misses", &[("kind", "cold")]).add(1);
        reg.gauge("a.entries", &[]).set(7);
        let h = reg.histogram("a.lat_us", &[]);
        h.record(40);
        h.record(400);
        h.record(9_000_000);
        reg
    }

    #[test]
    fn serde_round_trips_byte_for_byte() {
        let reg = sample_registry();
        let before = reg.snapshot();
        reg.gauge("a.entries", &[]).set(2);
        // Populated, empty, and a diff with a negative gauge delta.
        for snap in [
            before.clone(),
            Registry::new().snapshot(),
            reg.snapshot().diff(&before),
        ] {
            let json = snap.to_json();
            let back = MetricsSnapshot::from_json(&json).unwrap();
            assert_eq!(back, snap);
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn noop_interval_diffs_to_all_zeros() {
        let reg = sample_registry();
        let before = reg.snapshot();
        let after = reg.snapshot();
        let d = after.diff(&before);
        assert!(d.is_zero(), "no-op diff must be all zeros: {}", d.to_json());
        // Same keys survive with zero values.
        assert_eq!(
            d.counters.keys().collect::<Vec<_>>(),
            before.counters.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn diff_reports_interval_deltas() {
        let reg = sample_registry();
        let before = reg.snapshot();
        reg.counter("a.hits", &[]).add(5);
        reg.gauge("a.entries", &[]).set(2);
        reg.histogram("a.lat_us", &[]).record(60);
        let d = reg.snapshot().diff(&before);
        assert_eq!(d.counters.get("a.hits"), Some(&5));
        assert_eq!(d.counters.get("a.misses{kind=cold}"), Some(&0));
        assert_eq!(d.counter("a.hits"), 5);
        assert_eq!(d.counter("a.absent"), 0);
        assert_eq!(d.gauges.get("a.entries"), Some(&-5));
        let h = d.histograms.get("a.lat_us").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 60);
    }

    #[test]
    fn quantile_reads_bucket_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("q.lat_us", &[], &[10, 100, 1_000]);
        for _ in 0..98 {
            h.record(5); // bucket ≤10
        }
        h.record(500); // bucket ≤1_000
        h.record(5_000); // overflow bucket
        let snap = reg.snapshot();
        let hs = snap.histograms.get("q.lat_us").unwrap();
        assert_eq!(hs.quantile(0.50), 10);
        assert_eq!(hs.quantile(0.98), 10);
        assert_eq!(hs.quantile(0.99), 1_000);
        // Overflow samples clamp to the last finite bound.
        assert_eq!(hs.quantile(1.0), 1_000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn report_renders_all_sections() {
        let report = sample_registry().snapshot().render_report();
        assert!(report.contains("| counter |"));
        assert!(report.contains("| `a.hits` | 3 |"));
        assert!(report.contains("| gauge |"));
        assert!(report.contains("| histogram |"));
        assert!(report.contains("| `a.lat_us` | 3 |"));
    }
}

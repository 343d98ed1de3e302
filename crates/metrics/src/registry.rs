//! The metrics registry: counters, gauges, and log₂-bucketed histograms
//! with two deterministic exposition formats.
//!
//! Everything in this module is plain single-threaded state: values are
//! integers (counters, histogram buckets) or `f64` (gauges), keys are
//! `(name, sorted label pairs)`, and both exposition formats iterate
//! `BTreeMap`s — so a given sequence of recordings always renders to
//! byte-identical output, the property the cross-PR `BENCH.json`
//! trajectory and the determinism tests rely on.

use crate::json::{Object, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric identity: a name plus a sorted list of label pairs.
///
/// Ordering (derived) sorts first by name, then by labels, which fixes the
/// exposition order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `batchzk_tasks_total`.
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id from a name and unsorted label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders the `{k="v",...}` label suffix (empty string if unlabeled).
    fn label_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_json()))
            .collect();
        format!("{{{}}}", inner.join(","))
    }

    /// The full `name{k="v"}` form used as a JSON key.
    pub fn render(&self) -> String {
        format!("{}{}", self.name, self.label_suffix())
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so bucket 64 holds `[2^63, 2^64)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` samples.
///
/// Quantiles are estimated as the upper bound of the bucket containing the
/// nearest-rank sample, clamped to the observed `[min, max]` — monotone in
/// the quantile by construction, and exact whenever a bucket holds a single
/// distinct value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Index of the bucket holding `value`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 if empty).
    #[cfg(test)]
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q ∈ [0, 1]`. See the type docs for the
    /// estimation rule. Edge cases are defined, not incidental:
    ///
    /// * an **empty** histogram returns 0 for every `q`;
    /// * `q = 1.0` (or anything that resolves to the top rank, including
    ///   `q > 1`) returns the **recorded maximum exactly** — never the
    ///   enclosing log₂ bucket's upper bound, which could overshoot the
    ///   true max by up to 2×;
    /// * `q ≤ 0` and non-finite `q` clamp to the lowest rank (a value in
    ///   the first non-empty bucket, at least [`Self::min`]).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The nearest-rank sample at the top rank is the recorded
            // maximum itself — return it exactly rather than the enclosing
            // bucket's upper bound (which can overshoot by up to 2x).
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order.
    fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

/// A deterministic, dependency-free metrics registry.
///
/// Counters are monotone `u64`s, gauges are last-write-wins `f64`s, and
/// histograms are [`Histogram`]s. All three families are keyed by
/// [`MetricId`]; exposition iterates in id order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    histograms: BTreeMap<MetricId, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self
            .counters
            .entry(MetricId::new(name, labels))
            .or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricId::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Sets the gauge `name{labels}`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(MetricId::new(name, labels), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricId::new(name, labels)).copied()
    }

    /// Records a sample into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.histograms
            .entry(MetricId::new(name, labels))
            .or_default()
            .observe(value);
    }

    /// The histogram `name{labels}`, if any samples were recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&MetricId::new(name, labels))
    }

    /// True if no metric of any family has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Counters and gauges render one `name{labels} value` line each (with a
    /// `# TYPE` header per metric name); histograms render cumulative
    /// `_bucket{le="..."}` lines over their non-empty log₂ buckets plus
    /// `_sum` and `_count`. Deterministic: same recordings → same bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (id, v) in &self.counters {
            type_line(&mut out, &id.name, "counter");
            let _ = writeln!(out, "{} {v}", id.render());
        }
        for (id, v) in &self.gauges {
            type_line(&mut out, &id.name, "gauge");
            let _ = writeln!(out, "{} {}", id.render(), v.to_json());
        }
        for (id, h) in &self.histograms {
            type_line(&mut out, &id.name, "histogram");
            let mut cumulative = 0u64;
            for (upper, count) in h.buckets() {
                cumulative += count;
                // `le` follows the sorted labels, as Prometheus writes it.
                let mut labels = id.labels.clone();
                labels.push(("le".to_string(), upper.to_string()));
                let name = format!("{}_bucket", id.name);
                let bucket = MetricId { name, labels };
                let _ = writeln!(out, "{} {cumulative}", bucket.render());
            }
            let suffix = id.label_suffix();
            let _ = writeln!(out, "{}_sum{suffix} {}", id.name, h.sum());
            let _ = writeln!(out, "{}_count{suffix} {}", id.name, h.count());
        }
        out
    }
}

/// Canonical JSON: three objects (`counters`, `gauges`, `histograms`)
/// keyed by the rendered metric id in id order. Deterministic: same
/// recordings → same bytes.
impl ToJson for Registry {
    fn write_json(&self, out: &mut String) {
        fn by_id<V: ToJson>(family: &BTreeMap<MetricId, V>) -> Object {
            family.iter().map(|(id, v)| (id.render(), v)).collect()
        }
        Object::new()
            .field("counters", by_id(&self.counters))
            .field("gauges", by_id(&self.gauges))
            .field("histograms", by_id(&self.histograms))
            .write_json(out);
    }
}

/// Exact `count`, `sum`, `min` and `max`, the p50 / p95 / p99 estimates,
/// and the non-empty buckets keyed by their inclusive upper bound.
impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        let buckets = self
            .buckets()
            .into_iter()
            .map(|(upper, count)| (upper.to_string(), count));
        Object::new()
            .field("count", self.count())
            .field("sum", self.sum())
            .field("min", self.min())
            .field("max", self.max())
            .field("p50", self.quantile(0.50))
            .field("p95", self.quantile(0.95))
            .field("p99", self.quantile(0.99))
            .field("buckets", buckets.collect::<Object>())
            .write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Array;

    /// SplitMix64; duplicated privately because this crate has no deps.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + ((self.next() as u128 * (hi - lo) as u128) >> 64) as u64
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bound brackets it.
        let mut rng = TestRng(1);
        for _ in 0..256 {
            let v = rng.next();
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn histogram_counts_are_exact() {
        // Property: count/sum/min/max are exact regardless of bucketing.
        let mut rng = TestRng(2);
        for _ in 0..16 {
            let n = rng.range(1, 400) as usize;
            let samples: Vec<u64> = (0..n).map(|_| rng.range(0, 1 << 40)).collect();
            let mut h = Histogram::default();
            for &s in &samples {
                h.observe(s);
            }
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.sum(), samples.iter().map(|&s| s as u128).sum::<u128>());
            assert_eq!(h.min(), *samples.iter().min().unwrap());
            assert_eq!(h.max(), *samples.iter().max().unwrap());
            let bucket_total: u64 = h.buckets().iter().map(|&(_, c)| c).sum();
            assert_eq!(bucket_total, n as u64, "buckets partition the samples");
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut rng = TestRng(3);
        for _ in 0..16 {
            let n = rng.range(1, 300) as usize;
            let mut h = Histogram::default();
            for _ in 0..n {
                h.observe(rng.range(0, 1 << 30));
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
            let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
            for w in values.windows(2) {
                assert!(w[0] <= w[1], "quantiles must be monotone: {values:?}");
            }
            assert!(values[0] >= h.min());
            assert_eq!(*values.last().unwrap(), h.max());
        }
    }

    #[test]
    fn histogram_quantile_brackets_nearest_rank() {
        // The estimate never falls below the true nearest-rank sample's
        // bucket lower bound and never exceeds its bucket upper bound.
        let mut rng = TestRng(4);
        for _ in 0..16 {
            let n = rng.range(1, 200) as usize;
            let mut samples: Vec<u64> = (0..n).map(|_| rng.range(0, 1 << 20)).collect();
            let mut h = Histogram::default();
            for &s in &samples {
                h.observe(s);
            }
            samples.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = samples[rank - 1];
                let est = h.quantile(q);
                assert!(
                    est >= exact && est <= bucket_upper(bucket_index(exact)),
                    "q={q}: exact {exact}, estimate {est}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.buckets().is_empty());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn identical_recordings_render_identical_json() {
        // The determinism guarantee: two registries fed the same samples in
        // the same order expose byte-identical JSON and Prometheus text.
        let record = |seed: u64| {
            let mut rng = TestRng(seed);
            let mut reg = Registry::new();
            for i in 0..200 {
                reg.counter_add("batchzk_tasks_total", &[("module", "merkle")], 1);
                reg.observe(
                    "batchzk_lifecycle_cycles",
                    &[("module", "merkle")],
                    rng.range(1, 1 << 34),
                );
                if i % 3 == 0 {
                    reg.gauge_set("batchzk_occupancy", &[("stage", "leaf")], i as f64 / 200.0);
                }
            }
            reg
        };
        let (a, b) = (record(7), record(7));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        // A different sample stream renders differently.
        assert_ne!(a.to_json(), record(8).to_json());
    }

    #[test]
    fn exposition_formats_render_expected_shapes() {
        let mut reg = Registry::new();
        reg.counter_add("requests_total", &[("module", "svc")], 3);
        reg.gauge_set("occupancy", &[], 0.5);
        reg.observe("latency_cycles", &[], 3);
        reg.observe("latency_cycles", &[], 900);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total{module=\"svc\"} 3"));
        assert!(text.contains("# TYPE occupancy gauge"));
        assert!(text.contains("occupancy 0.5"));
        assert!(text.contains("latency_cycles_bucket{le=\"3\"} 1"));
        assert!(text.contains("latency_cycles_bucket{le=\"1023\"} 2"));
        assert!(text.contains("latency_cycles_sum 903"));
        assert!(text.contains("latency_cycles_count 2"));
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"requests_total{module=\\\"svc\\\"}\":3"));
        assert!(json.contains("\"count\":2"));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counter_and_gauge_accessors() {
        let mut reg = Registry::new();
        assert_eq!(reg.counter("x", &[]), 0);
        reg.counter_add("x", &[], 2);
        reg.counter_add("x", &[], 5);
        assert_eq!(reg.counter("x", &[]), 7);
        assert!(reg.gauge("g", &[]).is_none());
        reg.gauge_set("g", &[], 1.25);
        assert_eq!(reg.gauge("g", &[]), Some(1.25));
        // Label order does not matter for identity.
        reg.counter_add("y", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(reg.counter("y", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn join_json_puts_commas_between_items_only() {
        // The writer's composites place every comma; none leads or trails.
        let join = |items: &[u64]| items.iter().collect::<Array>();
        assert_eq!(join(&[]).to_json(), "[]");
        assert_eq!(join(&[1]).to_json(), "[1]");
        assert_eq!(
            Object::new()
                .field("a", 1u64)
                .field("b", join(&[2, 3]))
                .to_json(),
            "{\"a\":1,\"b\":[2,3]}"
        );
    }

    #[test]
    fn format_f64_is_parseable_json() {
        assert_eq!(0.5.to_json(), "0.5");
        assert_eq!(2.0.to_json(), "2.0");
        assert_eq!(f64::NAN.to_json(), "0.0");
        assert_eq!(f64::INFINITY.to_json(), "0.0");
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        // Empty histogram: 0 for every q, including the extremes.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0, 2.0, -1.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }

        // q = 1.0 returns the recorded max exactly, not the bucket bound.
        // 1_000_000 lives in the [524288, 1048575] bucket: a bucket-bound
        // answer would overshoot by ~4.8%.
        let mut h = Histogram::default();
        for v in [3u64, 700_000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_ne!(bucket_upper(bucket_index(1_000_000)), 1_000_000);
        // q beyond 1 clamps to the same top rank.
        assert_eq!(h.quantile(1.5), 1_000_000);
        // The top rank is exact even when several samples share the top
        // bucket (the overshoot case the bound-walk alone would hit).
        let mut crowded = Histogram::default();
        crowded.observe(600_000);
        crowded.observe(1_000_000);
        assert_eq!(crowded.quantile(1.0), 1_000_000);

        // q <= 0 and non-finite q clamp to the lowest rank and stay within
        // the recorded range.
        for q in [0.0, -3.0, f64::NAN] {
            let v = h.quantile(q);
            assert!(v >= h.min() && v <= h.max(), "q={q} gave {v}");
        }

        // A single-sample histogram answers that sample for every q.
        let mut one = Histogram::default();
        one.observe(37);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile(q), 37);
        }
    }

    #[test]
    fn non_finite_values_render_stably_in_both_expositions() {
        // The writer's f64 format itself: every non-finite input collapses
        // to the same stable token — no `inf` / `-inf` / `NaN` / `Infinity`
        // drift.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            assert_eq!(v.to_json(), "0.0", "non-finite {v} must render as 0.0");
        }

        // Through the registry: a gauge poisoned with each non-finite value
        // renders identically (and parseably) in Prometheus and JSON.
        let expose = |v: f64| {
            let mut reg = Registry::new();
            reg.gauge_set("poisoned", &[("kind", "gauge")], v);
            (reg.to_prometheus(), reg.to_json())
        };
        let (prom_ref, json_ref) = expose(f64::NAN);
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let (prom, json) = expose(v);
            assert_eq!(prom, prom_ref, "Prometheus text drifts for {v}");
            assert_eq!(json, json_ref, "JSON drifts for {v}");
        }
        assert!(prom_ref.contains("poisoned{kind=\"gauge\"} 0.0"));
        assert!(json_ref.contains(":0.0"));
        for banned in ["inf", "Inf", "NaN", "nan"] {
            assert!(
                !prom_ref.contains(banned) && !json_ref.contains(banned),
                "exposition leaked `{banned}`"
            );
        }
    }
}

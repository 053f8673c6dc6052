//! Live metrics snapshots: point-in-time captures of every registered
//! metric, deltas between captures, and their JSON wire form.
//!
//! This is the payload of the server's STAT admin verb and of the
//! `--metrics-out` rollup time-series. A snapshot is taken without
//! pausing recorders — counters are summed across shards with relaxed
//! loads and histograms are read through their seqlock-free commit-point
//! protocol (see `metrics::Hist`), so `count == Σ buckets` holds on every
//! capture even mid-recording.
//!
//! JSON shape (one object, no external dependencies):
//!
//! ```json
//! {"t":"metrics","version":1,"kind":"full"|"delta","taken_ns":N,
//!  "metrics":[
//!    {"name":"...","kind":"counter","unit":"...","value":N},
//!    {"name":"...","kind":"gauge","unit":"...","value":N},
//!    {"name":"...","kind":"histogram","unit":"...","count":N,"sum":N,
//!     "min":N,"max":N,"mean":F,"p50":F,"p90":F,"p99":F,"p999":F}
//! ]}
//! ```

use crate::json;
use crate::jsonread::JsonValue;
use crate::metrics::{bucket_range, HistogramSnapshot, MetricSnapshot, MetricValue};
use crate::Recorder;

/// Schema version of the metrics-snapshot JSON object.
pub const METRICS_SNAPSHOT_VERSION: u64 = 1;

/// A point-in-time (or delta) capture of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the recorder's epoch when the capture was taken.
    pub taken_ns: u64,
    /// `true` when this snapshot is a delta between two captures.
    pub delta: bool,
    /// The captured metrics, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Recorder {
    /// Captures every registered metric without pausing recorders.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            taken_ns: self.now_ns(),
            delta: false,
            metrics: self.metric_snapshots(),
        }
    }
}

impl MetricsSnapshot {
    /// The captured entry for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The change since `prev`: counters and histograms subtract
    /// (saturating — a reset between captures yields zeros, not wraps);
    /// gauges keep their point-in-time value. Histogram deltas derive
    /// their count from the bucket-wise difference; `min`/`max` are
    /// approximated from the populated delta buckets' bounds since exact
    /// interval extrema are not recoverable from running extrema.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|cur| {
                let old = prev
                    .metrics
                    .iter()
                    .find(|p| p.name == cur.name && p.kind == cur.kind);
                let value = match (&cur.value, old.map(|o| &o.value)) {
                    (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                        MetricValue::Counter(c.saturating_sub(*p))
                    }
                    (MetricValue::Histogram(c), Some(MetricValue::Histogram(p))) => {
                        MetricValue::Histogram(histogram_delta(c, p))
                    }
                    // New metric, kind change, or a gauge: the current
                    // value stands.
                    (v, _) => v.clone(),
                };
                MetricSnapshot {
                    name: cur.name,
                    kind: cur.kind,
                    unit: cur.unit,
                    value,
                }
            })
            .collect();
        MetricsSnapshot {
            taken_ns: self.taken_ns,
            delta: true,
            metrics,
        }
    }

    /// Serializes the snapshot as one JSON object (see the module docs for
    /// the shape).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.metrics.len());
        out.push_str("{\"t\":\"metrics\",\"version\":");
        out.push_str(&METRICS_SNAPSHOT_VERSION.to_string());
        out.push_str(",\"kind\":");
        out.push_str(if self.delta { "\"delta\"" } else { "\"full\"" });
        out.push_str(",\"taken_ns\":");
        out.push_str(&self.taken_ns.to_string());
        out.push_str(",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_str(&mut out, m.name);
            out.push_str(",\"kind\":");
            json::push_str(&mut out, m.kind.as_str());
            out.push_str(",\"unit\":");
            json::push_str(&mut out, m.unit);
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(",\"value\":");
                    out.push_str(&v.to_string());
                }
                MetricValue::GaugeF64(v) => {
                    out.push_str(",\"value\":");
                    json::push_f64(&mut out, *v);
                }
                MetricValue::Histogram(h) => {
                    out.push_str(",\"count\":");
                    out.push_str(&h.count.to_string());
                    out.push_str(",\"sum\":");
                    out.push_str(&h.sum.to_string());
                    out.push_str(",\"min\":");
                    out.push_str(&h.min.to_string());
                    out.push_str(",\"max\":");
                    out.push_str(&h.max.to_string());
                    out.push_str(",\"mean\":");
                    json::push_f64(&mut out, h.mean());
                    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)]
                    {
                        out.push_str(",\"");
                        out.push_str(label);
                        out.push_str("\":");
                        json::push_f64(&mut out, h.percentile(p));
                    }
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Bucket-wise histogram difference. Count derives from the delta buckets
/// (so `count == Σ buckets` holds for deltas too); min/max come from the
/// bounds of the populated delta buckets, clamped to the current extrema.
fn histogram_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<u64> = cur
        .buckets
        .iter()
        .zip(prev.buckets.iter().chain(std::iter::repeat(&0)))
        .map(|(c, p)| c.saturating_sub(*p))
        .collect();
    let count: u64 = buckets.iter().sum();
    let (mut min, mut max) = (0u64, 0u64);
    if count > 0 {
        if let Some(first) = buckets.iter().position(|&b| b > 0) {
            min = bucket_range(first, cur.max).0.max(cur.min);
        }
        if let Some(last) = buckets.iter().rposition(|&b| b > 0) {
            max = bucket_range(last, cur.max).1.min(cur.max);
        }
        min = min.min(max);
    }
    HistogramSnapshot {
        count,
        sum: cur.sum.saturating_sub(prev.sum),
        min,
        max,
        buckets,
    }
}

/// Renders a parsed metrics-snapshot JSON object (what a STAT reply or a
/// `--metrics-out` line carries) as an aligned text table — the client
/// side of `felip stat`. Histogram nanosecond metrics are human-scaled.
pub fn render_metrics_table(doc: &JsonValue) -> Result<String, String> {
    if doc.get("t").and_then(|t| t.as_str()) != Some("metrics") {
        return Err("not a metrics snapshot (missing t=\"metrics\")".into());
    }
    let kind = doc
        .get("kind")
        .and_then(|k| k.as_str())
        .unwrap_or("full")
        .to_string();
    let taken_ns = doc.get("taken_ns").and_then(|v| v.as_u64()).unwrap_or(0);
    let Some(JsonValue::Array(metrics)) = doc.get("metrics") else {
        return Err("metrics snapshot has no \"metrics\" array".into());
    };
    let mut out = format!(
        "metrics ({kind} snapshot at +{})\n",
        crate::summary::fmt_ns(taken_ns)
    );
    out.push_str(&format!("  {:<40} {}\n", "metric", "value"));
    let mut rows = 0usize;
    for m in metrics {
        let name = m.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
        let is_ns = unit == "ns";
        let rendered = match m.get("kind").and_then(|k| k.as_str()) {
            Some("histogram") => {
                let count = m.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
                if count == 0 {
                    continue;
                }
                let q = |key: &str| m.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let scale = |v: f64| {
                    if is_ns {
                        crate::summary::fmt_ns(v as u64)
                    } else {
                        format!("{v:.0}")
                    }
                };
                format!(
                    "n={count} mean={} p50={} p99={} p999={} max={}",
                    scale(q("mean")),
                    scale(q("p50")),
                    scale(q("p99")),
                    scale(q("p999")),
                    scale(q("max")),
                )
            }
            _ => match m.get("value").and_then(JsonValue::as_f64) {
                Some(v) => {
                    if v == 0.0 {
                        continue;
                    }
                    if v.fract() == 0.0 && v.abs() < 9e15 {
                        format!("{}", v as i64)
                    } else {
                        format!("{v:.6}")
                    }
                }
                _ => continue,
            },
        };
        let unit_suffix = if unit.is_empty() || is_ns {
            String::new()
        } else {
            format!(" {unit}")
        };
        out.push_str(&format!("  {name:<40} {rendered}{unit_suffix}\n"));
        rows += 1;
    }
    // The per-worker queue gauges are sharded (`server.queue.depth.w0`…)
    // so no worker's write can mask another's; the fleet-wide view the
    // old single gauge used to give is derived here at render time.
    let depths: Vec<u64> = metrics
        .iter()
        .filter(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("server.queue.depth."))
        })
        .filter_map(|m| m.get("value").and_then(|v| v.as_u64()))
        .collect();
    if !depths.is_empty() {
        let sum: u64 = depths.iter().sum();
        let max = depths.iter().copied().max().unwrap_or(0);
        out.push_str(&format!(
            "  {:<40} {sum} batches\n",
            "server.queue.depth (sum)"
        ));
        out.push_str(&format!(
            "  {:<40} {max} batches\n",
            "server.queue.depth (max worker)"
        ));
        rows += 2;
    }
    if rows == 0 {
        out.push_str("  (no nonzero metrics)\n");
    }
    Ok(out)
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use crate::metrics::{CallsiteId, MetricKind};

    fn populated() -> Recorder {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static C: CallsiteId = CallsiteId::new("snap.frames", MetricKind::Counter, "frames");
        static G: CallsiteId = CallsiteId::new("snap.depth", MetricKind::Gauge, "batches");
        static H: CallsiteId = CallsiteId::new("snap.lat", MetricKind::Histogram, "ns");
        rec.counter_add(&C, 10);
        rec.gauge_set(&G, 3);
        for v in [100u64, 200, 400] {
            rec.hist_record(&H, v);
        }
        rec
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let rec = populated();
        let snap = rec.metrics_snapshot();
        assert!(!snap.delta);
        assert_eq!(
            snap.get("snap.frames").unwrap().value,
            MetricValue::Counter(10)
        );
        assert_eq!(snap.get("snap.depth").unwrap().value, MetricValue::Gauge(3));
        let MetricValue::Histogram(h) = &snap.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 700);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        static C: CallsiteId = CallsiteId::new("snap.frames", MetricKind::Counter, "frames");
        static G: CallsiteId = CallsiteId::new("snap.depth", MetricKind::Gauge, "batches");
        rec.counter_add(&C, 5);
        rec.gauge_set(&G, 7);
        let second = rec.metrics_snapshot();
        let delta = second.delta_since(&first);
        assert!(delta.delta);
        assert_eq!(
            delta.get("snap.frames").unwrap().value,
            MetricValue::Counter(5)
        );
        assert_eq!(
            delta.get("snap.depth").unwrap().value,
            MetricValue::Gauge(7),
            "gauges report point-in-time, not a difference"
        );
    }

    #[test]
    fn delta_histogram_count_matches_bucket_sum() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        static H: CallsiteId = CallsiteId::new("snap.lat", MetricKind::Histogram, "ns");
        for v in [800u64, 1600] {
            rec.hist_record(&H, v);
        }
        let delta = rec.metrics_snapshot().delta_since(&first);
        let MetricValue::Histogram(h) = &delta.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        assert_eq!(h.sum, 2400);
        // The two new observations landed in buckets [512,1024) and
        // [1024,2048): the approximated extrema must bracket them.
        assert!(h.min >= 512 && h.min <= 800, "min {}", h.min);
        assert!(h.max >= 1600 && h.max <= 2048, "max {}", h.max);
    }

    #[test]
    fn empty_delta_is_all_zero() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        let delta = rec.metrics_snapshot().delta_since(&first);
        let MetricValue::Histogram(h) = &delta.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!((h.count, h.sum, h.min, h.max), (0, 0, 0, 0));
    }

    #[test]
    fn json_parses_and_round_trips_through_jsonread() {
        let rec = populated();
        let json = rec.metrics_snapshot().to_json();
        let doc = crate::jsonread::parse(&json).expect("snapshot JSON parses");
        assert_eq!(doc.get("t").and_then(|t| t.as_str()), Some("metrics"));
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some("full"));
        let Some(JsonValue::Array(metrics)) = doc.get("metrics") else {
            panic!("no metrics array");
        };
        let hist = metrics
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("snap.lat"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(3));
        for key in ["p50", "p90", "p99", "p999", "mean"] {
            assert!(hist.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
        }
    }

    #[test]
    fn render_table_lists_nonzero_metrics() {
        let rec = populated();
        let json = rec.metrics_snapshot().to_json();
        let doc = crate::jsonread::parse(&json).unwrap();
        let table = render_metrics_table(&doc).unwrap();
        assert!(table.contains("snap.frames"), "{table}");
        assert!(table.contains("snap.lat"), "{table}");
        assert!(table.contains("p999="), "{table}");
        assert!(render_metrics_table(&JsonValue::Null).is_err());
    }

    #[test]
    fn render_table_derives_queue_depth_sum_and_max() {
        let rec = populated();
        static W0: CallsiteId =
            CallsiteId::new("server.queue.depth.w0", MetricKind::Gauge, "batches");
        static W1: CallsiteId =
            CallsiteId::new("server.queue.depth.w1", MetricKind::Gauge, "batches");
        rec.gauge_set(&W0, 4);
        rec.gauge_set(&W1, 9);
        let doc = crate::jsonread::parse(&rec.metrics_snapshot().to_json()).unwrap();
        let table = render_metrics_table(&doc).unwrap();
        assert!(
            table.contains("server.queue.depth (sum)") && table.contains("13 batches"),
            "{table}"
        );
        assert!(
            table.contains("server.queue.depth (max worker)") && table.contains("9 batches"),
            "{table}"
        );
    }
}

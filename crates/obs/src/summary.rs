//! Trace export (JSON lines) and the human-readable summary table.
//!
//! JSONL record shapes, one object per line, discriminated by `"t"`:
//!
//! * `{"t":"meta","version":1,"compiled_out":bool}` — first line.
//! * `{"t":"span","id":N,"parent":N|null,"name":"...","thread":"...",
//!   "start_ns":N,"dur_ns":N, ...fields}` — sorted by `start_ns`.
//! * `{"t":"event","name":"...","t_ns":N, ...fields}`
//! * `{"t":"metric","name":"...","kind":"counter|gauge|histogram",
//!   "unit":"...", value...}` where `value...` is `"value":N` for
//!   counters/gauges and `"count"/"sum"/"min"/"max"/"mean"/"p50"/"p90"/
//!   "p99"` for histograms.

use std::io::{self, Write};

use crate::json;
use crate::metrics::MetricValue;
use crate::Recorder;

/// JSONL schema version, bumped on incompatible shape changes.
const TRACE_VERSION: u64 = 1;

impl Recorder {
    /// Writes the full trace — meta line, spans (by start time), events,
    /// metric snapshots — as JSON lines.
    pub fn export_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let mut line = String::new();

        line.push_str("{\"t\":\"meta\",\"version\":");
        line.push_str(&TRACE_VERSION.to_string());
        line.push_str(",\"compiled_out\":");
        line.push_str(if crate::COMPILED_OUT { "true" } else { "false" });
        line.push_str("}\n");
        out.write_all(line.as_bytes())?;

        let mut spans = self.finished_spans();
        spans.sort_by_key(|s| s.start_ns);
        for s in &spans {
            line.clear();
            line.push_str("{\"t\":\"span\",\"id\":");
            line.push_str(&s.id.to_string());
            line.push_str(",\"parent\":");
            match s.parent {
                Some(p) => line.push_str(&p.to_string()),
                None => line.push_str("null"),
            }
            line.push_str(",\"name\":");
            json::push_str(&mut line, s.name);
            line.push_str(",\"thread\":");
            json::push_str(&mut line, &s.thread);
            line.push_str(",\"start_ns\":");
            line.push_str(&s.start_ns.to_string());
            line.push_str(",\"dur_ns\":");
            line.push_str(&s.dur_ns.to_string());
            json::push_fields(&mut line, &s.fields);
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }

        for e in &self.finished_events() {
            line.clear();
            line.push_str("{\"t\":\"event\",\"name\":");
            json::push_str(&mut line, e.name);
            line.push_str(",\"t_ns\":");
            line.push_str(&e.t_ns.to_string());
            json::push_fields(&mut line, &e.fields);
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }

        for m in &self.metric_snapshots() {
            line.clear();
            line.push_str("{\"t\":\"metric\",\"name\":");
            json::push_str(&mut line, m.name);
            line.push_str(",\"kind\":");
            json::push_str(&mut line, m.kind.as_str());
            line.push_str(",\"unit\":");
            json::push_str(&mut line, m.unit);
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    line.push_str(",\"value\":");
                    line.push_str(&v.to_string());
                }
                MetricValue::GaugeF64(v) => {
                    line.push_str(",\"value\":");
                    json::push_f64(&mut line, *v);
                }
                MetricValue::Histogram(h) => {
                    line.push_str(",\"count\":");
                    line.push_str(&h.count.to_string());
                    line.push_str(",\"sum\":");
                    line.push_str(&h.sum.to_string());
                    line.push_str(",\"min\":");
                    line.push_str(&h.min.to_string());
                    line.push_str(",\"max\":");
                    line.push_str(&h.max.to_string());
                    line.push_str(",\"mean\":");
                    json::push_f64(&mut line, h.mean());
                    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)]
                    {
                        line.push_str(",\"");
                        line.push_str(label);
                        line.push_str("\":");
                        json::push_f64(&mut line, h.percentile(p));
                    }
                }
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Renders stage timings and metric values as an aligned text table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let totals = self.span_totals();
        if !totals.is_empty() {
            out.push_str("stage timings\n");
            out.push_str(&format!(
                "  {:<24} {:>7} {:>12} {:>12}\n",
                "span", "count", "total", "max"
            ));
            for t in &totals {
                out.push_str(&format!(
                    "  {:<24} {:>7} {:>12} {:>12}\n",
                    t.name,
                    t.count,
                    fmt_ns(t.total_ns),
                    fmt_ns(t.max_ns)
                ));
            }
        }
        let metrics = self.metric_snapshots();
        let mut wrote_header = false;
        for m in &metrics {
            let rendered = match &m.value {
                MetricValue::Counter(0) | MetricValue::Gauge(0) => continue,
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v.to_string(),
                MetricValue::GaugeF64(v) if *v == 0.0 => continue,
                MetricValue::GaugeF64(v) => format!("{v:.6}"),
                MetricValue::Histogram(h) if h.count == 0 => continue,
                MetricValue::Histogram(h) => format!(
                    "n={} mean={:.1} p50={:.0} p99={:.0} p999={:.0} max={}",
                    h.count,
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(99.0),
                    h.percentile(99.9),
                    h.max
                ),
            };
            if !wrote_header {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str("metrics\n");
                wrote_header = true;
            }
            let unit = if m.unit.is_empty() {
                String::new()
            } else {
                format!(" {}", m.unit)
            };
            out.push_str(&format!("  {:<40} {}{}\n", m.name, rendered, unit));
        }
        if out.is_empty() {
            out.push_str("(no observability data recorded)\n");
        }
        out
    }
}

/// Per-span-name totals recovered from a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Span name.
    pub name: String,
    /// How many spans carried that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// The slowest single span.
    pub max_ns: u64,
}

/// What a JSONL trace contained, after tolerant line-by-line parsing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Schema version from the `meta` line, when one parsed.
    pub version: Option<u64>,
    /// Parsed `span` records.
    pub spans: u64,
    /// Parsed `event` records.
    pub events: u64,
    /// Parsed `metric` records.
    pub metrics: u64,
    /// Lines that were not valid JSONL records and were skipped.
    pub bad_lines: u64,
    /// Stage timings aggregated by span name, heaviest first.
    pub stages: Vec<StageTotal>,
}

impl TraceSummary {
    /// Renders the summary in the same shape as [`Recorder::summary_table`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} spans, {} events, {} metrics",
            self.spans, self.events, self.metrics
        ));
        if self.bad_lines > 0 {
            out.push_str(&format!(" ({} malformed lines skipped)", self.bad_lines));
        }
        out.push('\n');
        if !self.stages.is_empty() {
            out.push_str("stage timings\n");
            out.push_str(&format!(
                "  {:<24} {:>7} {:>12} {:>12}\n",
                "span", "count", "total", "max"
            ));
            for t in &self.stages {
                out.push_str(&format!(
                    "  {:<24} {:>7} {:>12} {:>12}\n",
                    t.name,
                    t.count,
                    fmt_ns(t.total_ns),
                    fmt_ns(t.max_ns)
                ));
            }
        }
        out
    }
}

/// How many skipped lines get an individual diagnostic before the rest are
/// folded into the final count (a truncated multi-megabyte trace should not
/// produce a megabyte of warnings).
const MAX_BAD_LINE_WARNINGS: u64 = 5;

/// Reads a JSONL trace tolerantly: every line that parses as a known record
/// contributes to the summary, and every line that does not — malformed
/// JSON, a non-object, an unknown record type, or the torn final line of a
/// trace whose process was killed mid-write — is skipped with a
/// [`crate::diag`] warning and counted in the `obs.summary.bad_lines`
/// counter, never a panic.
pub fn summarize_jsonl(text: &str) -> TraceSummary {
    let mut summary = TraceSummary::default();
    let mut stages: Vec<StageTotal> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match crate::jsonread::parse(line) {
            Ok(v) if v.get("t").and_then(|t| t.as_str()).is_some() => v,
            Ok(_) => {
                skip_line(&mut summary, lineno, "not a trace record (no \"t\" tag)");
                continue;
            }
            Err(e) => {
                skip_line(&mut summary, lineno, &e.to_string());
                continue;
            }
        };
        match record.get("t").and_then(|t| t.as_str()).expect("checked") {
            "meta" => {
                summary.version = record.get("version").and_then(|v| v.as_u64());
            }
            "span" => {
                summary.spans += 1;
                let name = record
                    .get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("(unnamed)");
                let dur = record.get("dur_ns").and_then(|d| d.as_u64()).unwrap_or(0);
                match stages.iter_mut().find(|s| s.name == name) {
                    Some(s) => {
                        s.count += 1;
                        s.total_ns += dur;
                        s.max_ns = s.max_ns.max(dur);
                    }
                    None => stages.push(StageTotal {
                        name: name.to_string(),
                        count: 1,
                        total_ns: dur,
                        max_ns: dur,
                    }),
                }
            }
            "event" => summary.events += 1,
            "metric" => summary.metrics += 1,
            other => {
                let reason = format!("unknown record type {other:?}");
                skip_line(&mut summary, lineno, &reason);
            }
        }
    }

    if summary.bad_lines > MAX_BAD_LINE_WARNINGS {
        crate::diag::line(&format!(
            "obs summary: skipped {} malformed lines in total",
            summary.bad_lines
        ));
    }
    stages.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
    summary.stages = stages;
    summary
}

fn skip_line(summary: &mut TraceSummary, lineno: usize, reason: &str) {
    summary.bad_lines += 1;
    crate::counter!("obs.summary.bad_lines", 1, "lines");
    if summary.bad_lines <= MAX_BAD_LINE_WARNINGS {
        crate::diag::line(&format!(
            "obs summary: skipping malformed line {}: {reason}",
            lineno + 1
        ));
    }
}

/// Nanoseconds as a human-scaled duration.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use crate::jsonread::{parse, JsonValue};
    use crate::metrics::{CallsiteId, MetricKind};
    use crate::Value;

    fn populated_recorder() -> Recorder {
        let rec = Recorder::new();
        rec.set_enabled(true);
        {
            let mut outer = rec.span("simulate");
            outer.field("grids", 4u64);
            let _inner = rec.span("collect");
            rec.event(
                "plan.grid",
                &[
                    ("grid", Value::Str("0x1".into())),
                    ("cells", Value::U64(64)),
                ],
            );
        }
        static C: CallsiteId = CallsiteId::new("export.reports", MetricKind::Counter, "reports");
        static G: CallsiteId = CallsiteId::new("export.residual", MetricKind::GaugeF64, "");
        static H: CallsiteId = CallsiteId::new("export.sweeps", MetricKind::Histogram, "sweeps");
        rec.counter_add(&C, 41);
        rec.gauge_set(&G, f64::to_bits(0.5));
        for v in [3u64, 4, 5] {
            rec.hist_record(&H, v);
        }
        rec
    }

    /// The exported lines of kind `t`, parsed back.
    fn exported(rec: &Recorder, t: &str) -> Vec<JsonValue> {
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .filter(|v| v.get("t").and_then(JsonValue::as_str) == Some(t))
            .collect()
    }

    /// The first exported line of kind `t` whose `name` is `name`.
    fn find(rec: &Recorder, t: &str, name: &str) -> JsonValue {
        exported(rec, t)
            .into_iter()
            .find(|v| v.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap()
    }

    #[test]
    fn jsonl_round_trips_through_jsonread() {
        let rec = populated_recorder();
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= 1 + 2 + 1 + 3,
            "unexpectedly few lines:\n{text}"
        );

        let mut kinds = Vec::new();
        for line in &lines {
            let v = parse(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
            assert!(matches!(v, JsonValue::Object(_)), "each line is an object");
            kinds.push(v.get("t").and_then(JsonValue::as_str).unwrap().to_string());
        }
        assert_eq!(kinds[0], "meta");
        assert!(kinds.iter().any(|k| k == "span"));
        assert!(kinds.iter().any(|k| k == "event"));
        assert!(kinds.iter().any(|k| k == "metric"));
    }

    #[test]
    fn jsonl_span_parenting_and_fields_survive() {
        let rec = populated_recorder();
        let outer = find(&rec, "span", "simulate");
        let inner = find(&rec, "span", "collect");
        let field = |v: &JsonValue, k: &str| v.get(k).unwrap().clone();
        assert_eq!(field(&outer, "parent"), JsonValue::Null);
        assert_eq!(field(&inner, "parent"), field(&outer, "id"));
        assert_eq!(field(&outer, "grids"), JsonValue::Int(4));
        // Spans are sorted by start time: outer starts first.
        let start = |v: &JsonValue| v.get("start_ns").and_then(JsonValue::as_u64).unwrap();
        assert!(start(&outer) <= start(&inner));
    }

    #[test]
    fn jsonl_metrics_carry_units_and_histogram_stats() {
        let rec = populated_recorder();
        let str_of =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap();
        let c = find(&rec, "metric", "export.reports");
        assert_eq!(str_of(&c, "kind"), "counter");
        assert_eq!(str_of(&c, "unit"), "reports");
        assert_eq!(c.get("value"), Some(&JsonValue::Int(41)));
        let h = find(&rec, "metric", "export.sweeps");
        for (k, want) in [("count", 3), ("sum", 12), ("min", 3), ("max", 5)] {
            assert_eq!(h.get(k), Some(&JsonValue::Int(want)), "{k}");
        }
        assert!(num(&h, "mean") > 3.9 && num(&h, "mean") < 4.1);
        assert!(num(&h, "p99") <= 5.0);
    }

    #[test]
    fn summary_table_lists_stages_and_metrics() {
        let rec = populated_recorder();
        let table = rec.summary_table();
        assert!(table.contains("simulate"), "{table}");
        assert!(table.contains("collect"), "{table}");
        assert!(table.contains("export.reports"), "{table}");
        assert!(table.contains("41"), "{table}");
    }

    #[test]
    fn empty_recorder_summary_says_so() {
        let rec = Recorder::new();
        assert!(rec.summary_table().contains("no observability data"));
    }

    #[test]
    fn summarize_round_trips_an_export() {
        let rec = populated_recorder();
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        let s = summarize_jsonl(&String::from_utf8(buf).unwrap());
        assert_eq!(s.version, Some(super::TRACE_VERSION));
        assert_eq!(s.spans, 2);
        assert_eq!(s.events, 1);
        // The metric registry is process-wide, so other tests' callsites
        // may also appear in the export.
        assert!(s.metrics >= 3, "{s:?}");
        assert_eq!(s.bad_lines, 0);
        assert!(s.stages.iter().any(|t| t.name == "simulate"));
        let rendered = s.render();
        assert!(rendered.contains("simulate"), "{rendered}");
        assert!(!rendered.contains("malformed"), "{rendered}");
    }

    #[test]
    fn summarize_skips_malformed_lines_without_panicking() {
        // A trace whose process was killed mid-write: valid lines, garbage,
        // a record with no tag, an unknown tag, and a torn final line.
        let rec = populated_recorder();
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        let torn = "{\"t\":\"span\",\"id\":99,\"name\":\"tor";
        text = format!(
            "not json at all\n{text}{}\n{}\n\n{torn}",
            "{\"value\":3}", "{\"t\":\"mystery\"}"
        );

        let s = summarize_jsonl(&text);
        assert_eq!(s.spans, 2, "valid records still counted");
        assert_eq!(s.events, 1);
        assert!(s.metrics >= 3, "{s:?}");
        assert_eq!(s.bad_lines, 4, "garbage + untagged + unknown + torn");
        assert!(s.render().contains("4 malformed lines skipped"));
    }

    #[test]
    fn summarize_counts_skipped_lines_in_the_bad_lines_metric() {
        let rec = crate::global();
        let was_enabled = rec.is_enabled();
        rec.set_enabled(true);
        let before = bad_lines_total(rec);
        let _ = summarize_jsonl("garbage one\ngarbage two\n");
        let after = bad_lines_total(rec);
        rec.set_enabled(was_enabled);
        assert_eq!(after - before, 2);
    }

    fn bad_lines_total(rec: &Recorder) -> u64 {
        rec.metric_snapshots()
            .iter()
            .find(|m| m.name == "obs.summary.bad_lines")
            .and_then(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}

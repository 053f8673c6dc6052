//! What every workload shares: arguments, the metric tables, the result
//! and provenance lines, and the plan/corpus helpers of the two serving
//! workloads.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use felip::client::UserReport;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Schema};
use felip_server::loadgen::user_report;
use felip_server::wire::encode_batch;
use felip_server::{Frame, FrameKind};

use crate::stats;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub budget: Duration,
    /// Recorder on, per-layer metrics out.
    pub trace: bool,
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order. A
/// workload whose path does not cross a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("plan.build_ms", "ms"),
    ("collect.ns_per_user", "ns"),
    ("estimate.ms", "ms"),
    ("response.build_ms", "ms"),
    ("answer.lambda2_us", "us"),
    ("answer.lambda3_us", "us"),
    ("answer.lambda4_us", "us"),
    ("offline.unaccounted_share", "ratio"),
    ("client.perturb_ns_per_report", "ns"),
    ("wire.encode_ns_per_report", "ns"),
    ("wire.decode_ns_per_report", "ns"),
    ("server.stage.decode_ns_per_report", "ns"),
    ("server.stage.ingest_ns_per_report", "ns"),
    ("server.stage.ack_ns_per_report", "ns"),
    ("server.stage.flush_ns_per_report", "ns"),
    ("server.retry_share", "ratio"),
    ("cluster.deltas_applied", "count"),
    ("cluster.delta_apply_p50_us", "us"),
    ("cluster.merge_tail_ms", "ms"),
    ("obs.overhead_share", "ratio"),
    ("query.refresh_ms", "ms"),
    ("query.matrix_ms", "ms"),
    ("query.answer_us", "us"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.staleness_max_epochs", "count"),
    ("query.unaccounted_ms", "ms"),
    ("ingest.backlog_max_frames", "count"),
    ("ingest.lag_p50_ms", "ms"),
    ("ingest.lag_p99_ms", "ms"),
];

/// One workload run's measurements.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, frames or queries, per workload).
    attempted: u64,
    /// Operations that failed.
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// `(what, sample count)` behind each reported percentile.
    samples: Vec<(&'static str, usize)>,
    /// Extra figures for the details line (not metrics).
    details: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Records one metric (end-to-end or per-layer) by its table name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in neither table"
        );
        self.metrics.insert(name, value);
    }

    /// Records the sample count behind the percentiles of `what`.
    pub fn samples(&mut self, what: &'static str, count: usize) {
        self.samples.push((what, count));
    }

    /// Records a figure printed on the details line.
    pub fn detail(&mut self, what: &'static str, value: impl ToString) {
        self.details.push((what, value.to_string()));
    }

    /// Puts the whole run's p90 and p99 of `pooled` on the samples line:
    /// on a shared host the tail moves by more than any useful regression
    /// bound from run to run, so it is shown, not bounded.
    pub fn latency_tails(&mut self, pooled: &[f64], what: &str) -> Result<(), String> {
        self.detail(
            "latency_p90_ms",
            stats::supported_percentile(pooled, 90.0, what)?,
        );
        self.detail(
            "latency_p99_ms",
            stats::supported_percentile(pooled, 99.0, what)?,
        );
        self.samples("latency", pooled.len());
        Ok(())
    }

    /// The line naming each percentile's sample count, the highest
    /// percentile it supports, and the details.
    pub fn samples_line(&self) -> String {
        let mut parts: Vec<String> = self
            .samples
            .iter()
            .map(|(what, n)| {
                let top = stats::highest_supported(*n)
                    .map_or("null".to_string(), |p| format!("\"p{p}\""));
                format!(r#""{what}": {{"samples": {n}, "highest_supported": {top}}}"#)
            })
            .collect();
        parts.extend(
            self.details
                .iter()
                .map(|(what, v)| format!(r#""{what}": "{v}""#)),
        );
        format!("samples: {{{}}}", parts.join(", "))
    }

    /// The final JSON line: the end-to-end table untraced, the per-layer
    /// table traced. An end-to-end metric must be present, finite and
    /// positive; a per-layer metric a workload never set reads 0.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() || (!trace && value <= 0.0) {
                return Err(format!("metric {name} measured as {value}"));
            }
            fields.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        Ok(format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance line: host, toolchain, revision and run parameters.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_revision\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.budget.as_secs(),
        u8::from(args.trace),
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// Reports per `ReportBatch` frame in both serving workloads.
pub const BATCH: usize = 500;

/// Builds a plan over `schema` sized for `population` users at ε = 1 (OHG,
/// the paper's defaults).
pub fn plan_for(schema: Schema, population: usize) -> Result<Arc<CollectionPlan>, String> {
    CollectionPlan::build(&schema, population, &FelipConfig::new(1.0), 23)
        .map(Arc::new)
        .map_err(|e| format!("plan: {e}"))
}

/// The 64 × 4 plan the serving loadgens have always used: perturbation is
/// cheap, so the server side dominates.
pub fn flood_plan(population: usize) -> Result<Arc<CollectionPlan>, String> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 64),
        Attribute::categorical("c", 4),
    ])
    .map_err(|e| e.to_string())?;
    plan_for(schema, population)
}

/// A pre-encoded report corpus: what users' devices would send.
pub struct Corpus {
    /// One frame stream per connection; frame `i` carries batch id `i + 1`,
    /// so each stream can be replayed under any fresh client id.
    pub streams: Vec<Vec<Vec<u8>>>,
    /// Reports in the whole corpus.
    pub reports: usize,
}

/// A corpus and what building it costs.
pub struct CorpusSetup {
    /// The last build.
    pub corpus: Corpus,
    /// Median wall time of one build, seconds.
    pub setup_s: f64,
    /// Median `loadgen::user_report` time per report, ns.
    pub perturb_ns: f64,
    /// Median `encode_batch` + `Frame::encode` time per report, ns.
    pub encode_ns: f64,
}

/// Perturbs users `0..users` under `seed` and encodes them into
/// `connections` frame streams (contiguous user ranges); also returns the
/// perturb and the encode wall times.
fn build_corpus(
    plan: &CollectionPlan,
    users: usize,
    connections: usize,
    seed: u64,
) -> Result<(Corpus, Duration, Duration), String> {
    let t = Instant::now();
    let reports: Vec<UserReport> = (0..users)
        .map(|u| user_report(plan, u, seed))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("loadgen report: {e}"))?;
    let perturb = t.elapsed();
    let t = Instant::now();
    let plan_hash = plan.schema_hash();
    let per_conn = users.div_ceil(connections);
    let streams = reports
        .chunks(per_conn)
        .map(|share| {
            share
                .chunks(BATCH)
                .enumerate()
                .map(|(i, chunk)| {
                    Ok(Frame {
                        kind: FrameKind::ReportBatch,
                        plan_hash,
                        payload: encode_batch(i as u64 + 1, chunk)
                            .map_err(|e| format!("encode batch: {e}"))?,
                    }
                    .encode())
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    let encode = t.elapsed();
    let corpus = Corpus {
        streams,
        reports: users,
    };
    Ok((corpus, perturb, encode))
}

/// Builds the corpus `repeats` times (the set-up a run pays) and checks
/// every build is byte-identical.
pub fn corpus_setup(
    plan: &CollectionPlan,
    users: usize,
    connections: usize,
    seed: u64,
    repeats: usize,
) -> Result<CorpusSetup, String> {
    let mut times = Vec::with_capacity(repeats);
    let (mut perturbs, mut encodes) = (Vec::new(), Vec::new());
    let mut last: Option<Corpus> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let (corpus, perturb, encode) = build_corpus(plan, users, connections, seed)?;
        times.push(t.elapsed().as_secs_f64());
        perturbs.push(perturb);
        encodes.push(encode);
        if let Some(prev) = &last {
            if prev.streams != corpus.streams {
                return Err("corpus differs between two builds with the same seed".into());
            }
        }
        last = Some(corpus);
    }
    let corpus = last.ok_or("corpus set-up ran zero times")?;
    Ok(CorpusSetup {
        setup_s: stats::median(&times),
        perturb_ns: ns_per(&perturbs, corpus.reports),
        encode_ns: ns_per(&encodes, corpus.reports),
        corpus,
    })
}

/// Median of durations, in nanoseconds per `per` items.
pub fn ns_per(durations: &[Duration], per: usize) -> f64 {
    let ns: Vec<f64> = durations.iter().map(|d| d.as_nanos() as f64).collect();
    stats::median(&ns) / per.max(1) as f64
}

/// The `felip_obs` histogram `name`, if it has observations.
pub fn histogram(name: &str) -> Option<felip_obs::HistogramSnapshot> {
    match felip_obs::global().metric(name).map(|m| m.value) {
        Some(felip_obs::MetricValue::Histogram(h)) if h.count > 0 => Some(h),
        _ => None,
    }
}

/// The `felip_obs` counter `name` (0 when never bumped).
pub fn counter(name: &str) -> u64 {
    felip_obs::global()
        .metric(name)
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0)
}

/// The reactor stages the serving workloads report, with their metric
/// names.
pub const STAGES: [(&str, &str); 4] = [
    ("decode", "server.stage.decode_ns_per_report"),
    ("ingest", "server.stage.ingest_ns_per_report"),
    ("ack", "server.stage.ack_ns_per_report"),
    ("flush", "server.stage.flush_ns_per_report"),
];

/// Sum of each reactor stage histogram `server.stage.<stage>`, in ns.
pub fn stage_totals() -> [u64; 4] {
    STAGES.map(|(stage, _)| histogram(&format!("server.stage.{stage}")).map_or(0, |h| h.sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(3, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.result_line(false).unwrap();
        let v = felip_obs::jsonread::parse(&line).unwrap();
        let felip_obs::jsonread::JsonValue::Object(members) = &v else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.5)
        );
        // Untraced, a missing end-to-end metric is an error; traced, an
        // unset per-layer metric reads 0.
        let empty = Outcome::default();
        assert!(empty.result_line(false).is_err());
        let traced = empty.result_line(true).unwrap();
        assert!(traced.contains(r#""plan.build_ms": {"value": 0, "unit": "ms"}"#));
    }

    #[test]
    fn nonpositive_end_to_end_values_are_refused() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.0);
        }
        o.set("latency_p50_ms", 0.0);
        assert!(o.result_line(false).is_err());
        o.set("latency_p50_ms", f64::NAN);
        assert!(o.result_line(false).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
    }
}

//! `perf_smoke --serve-loadgen`: loopback load generation against the
//! streaming ingestion server.
//!
//! Boots an in-process [`felip_server::Server`] on `127.0.0.1:0`, hammers
//! it with N pipelined client connections sending deterministic report
//! batches, and reports sustained reports/s plus p50/p99 frame round-trip
//! latency into `BENCH_serve.json`. Because the server is the real thing —
//! wire decode, admission validation, bounded queues, shard aggregators —
//! the number is an end-to-end ingestion throughput, not a kernel
//! microbenchmark.
//!
//! The timed section measures the *server*: every report is generated AND
//! encoded into its final wire frame (batching, CRC and all) before the
//! clock starts, and [`felip_server::PipelinedClient`] streams those
//! pre-encoded bytes with a bounded in-flight window, so client-side CPU
//! on the shared loopback core is a couple of syscalls per frame.
//!
//! `--serve-connections`, `--serve-workers`, and `--serve-users` accept
//! comma-separated lists; the cross product of the three runs as a sweep
//! (one server boot per case) and every case lands in the JSON document.
//! The top-level headline fields are the best case by throughput.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::rng::derive_seed;
use felip_common::{Attribute, Schema};
use felip_obs::json;
use felip_obs::json::JsonValue;
use felip_server::loadgen::user_report;
use felip_server::wire::encode_batch;
use felip_server::{Frame, FrameKind, PipelinedClient, RetryPolicy, Server, ServerConfig};

/// Options for the serve load generation run. The three `Vec` fields are
/// sweep axes — a single-element list is a single run.
#[derive(Debug, Clone)]
pub struct ServeLoadOptions {
    /// Concurrent client connections (sweep axis).
    pub connections: Vec<usize>,
    /// Total users (= reports) streamed across all connections (sweep
    /// axis).
    pub users: Vec<usize>,
    /// Reports per `ReportBatch` frame.
    pub batch: usize,
    /// Server ingest workers (sweep axis).
    pub workers: Vec<usize>,
    /// Per-worker queue capacity (batches) before RETRY backpressure.
    pub queue_capacity: usize,
    /// Pipeline window: unacked frames in flight per connection.
    pub window: usize,
    /// Loadgen seed (drives records and perturbation).
    pub seed: u64,
    /// Output JSON path.
    pub out: String,
}

impl Default for ServeLoadOptions {
    fn default() -> Self {
        ServeLoadOptions {
            connections: vec![8],
            users: vec![200_000],
            batch: 500,
            workers: vec![4],
            queue_capacity: 64,
            window: 16,
            seed: 0xBEEF,
            out: "BENCH_serve.json".to_string(),
        }
    }
}

/// One concrete (connections, workers, users) point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServeCase {
    /// Concurrent client connections.
    pub connections: usize,
    /// Server ingest workers.
    pub workers: usize,
    /// Total reports streamed.
    pub users: usize,
}

impl ServeLoadOptions {
    /// The cross product of the three sweep axes, in flag order.
    pub fn cases(&self) -> Vec<ServeCase> {
        let one = |v: &[usize], d: usize| if v.is_empty() { vec![d] } else { v.to_vec() };
        let mut cases = Vec::new();
        for &users in &one(&self.users, 200_000) {
            for &workers in &one(&self.workers, 4) {
                for &connections in &one(&self.connections, 8) {
                    cases.push(ServeCase {
                        connections: connections.max(1),
                        workers: workers.max(1),
                        users: users.max(1),
                    });
                }
            }
        }
        cases
    }
}

/// Wall-clock nanoseconds the reactor spent in one pipeline stage,
/// normalised per ingested report (absent off the epoll path).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBreakdown {
    /// Accept handling (syscall + registration) per report.
    pub accept_ns: f64,
    /// Socket reads + frame decode + CRC per report.
    pub decode_ns: f64,
    /// Session dispatch: validation, dedup, queue push per report.
    pub ingest_ns: f64,
    /// Reply encode per report.
    pub ack_ns: f64,
    /// Socket write flush per report.
    pub flush_ns: f64,
}

/// One run's measured results.
#[derive(Debug, Clone)]
pub struct ServeLoadResult {
    /// The case measured.
    pub case: ServeCase,
    /// Reports ingested by the server (must equal `case.users`).
    pub reports: usize,
    /// Wall-clock seconds from first to last frame.
    pub elapsed_s: f64,
    /// Sustained ingestion throughput.
    pub reports_per_sec: f64,
    /// Median frame round-trip (send → ACK) in microseconds.
    pub p50_us: f64,
    /// 99th-percentile frame round-trip in microseconds.
    pub p99_us: f64,
    /// Resyncs (RETRY backpressure or reconnects) across all connections.
    pub retries: u64,
    /// ACKed frames across all connections.
    pub frames: u64,
    /// Per-stage reactor time, when the epoll path served the run.
    pub stages: Option<StageBreakdown>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The synthetic two-attribute plan the loadgen measures against (64 × 4
/// cells keeps perturbation cheap so the server side dominates).
pub fn bench_plan(users: usize, seed: u64) -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 64),
        Attribute::categorical("c", 4),
    ])
    .expect("static schema");
    Arc::new(
        CollectionPlan::build(&schema, users.max(1), &FelipConfig::new(1.0), seed)
            .expect("bench plan"),
    )
}

/// Reads one reactor stage histogram's total (summed ns since the last
/// reset). The stages became histograms in PR 7 (quantiles for STAT), so
/// the per-report cost here is the histogram sum, not a counter value.
fn stage_total(name: &str) -> u64 {
    match felip_obs::global().metric(name).map(|m| m.value) {
        Some(felip_obs::MetricValue::Histogram(h)) => h.sum,
        Some(v) => v.as_u64().unwrap_or(0),
        None => 0,
    }
}

/// Runs one case of the loopback load generation and returns the
/// measurements.
pub fn run_serve_loadgen(opts: &ServeLoadOptions, case: ServeCase) -> ServeLoadResult {
    let plan = bench_plan(case.users, 23);
    let plan_hash = plan.schema_hash();
    let config = ServerConfig {
        workers: case.workers,
        queue_capacity: opts.queue_capacity,
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&plan), config).expect("bind loopback");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    // Pre-generate AND pre-encode every frame so the timed section
    // measures the server, not client-side perturbation or encoding.
    let connections = case.connections;
    let per_conn = case.users.div_ceil(connections);
    let streams: Vec<Vec<Vec<u8>>> = (0..connections)
        .map(|c| {
            let lo = c * per_conn;
            let hi = ((c + 1) * per_conn).min(case.users);
            let reports: Vec<_> = (lo..hi)
                .map(|u| user_report(&plan, u, opts.seed).expect("loadgen report"))
                .collect();
            reports
                .chunks(opts.batch.max(1))
                .enumerate()
                .map(|(i, chunk)| {
                    Frame {
                        kind: FrameKind::ReportBatch,
                        plan_hash,
                        payload: encode_batch(i as u64 + 1, chunk).expect("encode batch"),
                    }
                    .encode()
                })
                .collect()
        })
        .collect();

    // Stage counters accumulate in the global recorder; reset + enable so
    // this case's totals are exactly this case's work.
    let obs_was_enabled = felip_obs::global().is_enabled();
    felip_obs::global().reset();
    felip_obs::enable();

    let started = Instant::now();
    let per_conn_results: Vec<(Vec<f64>, u64, u64)> = thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, frames)| {
                let seed = opts.seed;
                let window = opts.window;
                s.spawn(move || {
                    // Pin the wire identity to (seed, connection): stable
                    // across reconnects, and the per-connection jitter seed
                    // declusters retry storms under backpressure.
                    let client_id = derive_seed(seed, conn as u64 + 1);
                    let policy = RetryPolicy {
                        jitter_seed: client_id,
                        ..RetryPolicy::default()
                    };
                    let mut client =
                        PipelinedClient::connect_with(addr, plan_hash, client_id, policy)
                            .expect("connect");
                    let stats = client.pump_encoded(frames, window).expect("pump");
                    let frames = frames.len() as u64;
                    (stats.frame_rtt_us, stats.resyncs as u64, frames)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let accept_ns = stage_total("server.stage.accept");
    let decode_ns = stage_total("server.stage.decode");
    let ingest_ns = stage_total("server.stage.ingest");
    let ack_ns = stage_total("server.stage.ack");
    let flush_ns = stage_total("server.stage.flush");
    if !obs_was_enabled {
        felip_obs::disable();
    }

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = server_thread.join().expect("server join");
    assert_eq!(
        run.aggregator.reports_ingested(),
        case.users,
        "loadgen must not lose reports"
    );

    let mut latencies: Vec<f64> = per_conn_results
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let retries = per_conn_results.iter().map(|(_, r, _)| r).sum();
    let frames = per_conn_results.iter().map(|(_, _, f)| f).sum();

    let stage_sum = accept_ns + decode_ns + ingest_ns + ack_ns + flush_ns;
    let stages = (stage_sum > 0).then(|| {
        let per = |ns: u64| ns as f64 / case.users as f64;
        StageBreakdown {
            accept_ns: per(accept_ns),
            decode_ns: per(decode_ns),
            ingest_ns: per(ingest_ns),
            ack_ns: per(ack_ns),
            flush_ns: per(flush_ns),
        }
    });

    ServeLoadResult {
        case,
        reports: case.users,
        elapsed_s: elapsed,
        reports_per_sec: case.users as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        retries,
        frames,
        stages,
    }
}

/// Builds the JSON object for one case.
fn case_json(r: &ServeLoadResult, opts: &ServeLoadOptions) -> JsonValue {
    let mut doc = json!({
        "connections": r.case.connections,
        "workers": r.case.workers,
        "queue_capacity": opts.queue_capacity,
        "batch": opts.batch,
        "window": opts.window,
        "reports": r.reports,
        "frames": r.frames,
        "retries": r.retries,
        "elapsed_s": r.elapsed_s,
        "reports_per_sec": r.reports_per_sec,
        "frame_p50_us": r.p50_us,
        "frame_p99_us": r.p99_us,
    });
    if let Some(stages) = &r.stages {
        doc.push(
            "stage_ns_per_report",
            json!({
                "accept": stages.accept_ns,
                "decode": stages.decode_ns,
                "ingest": stages.ingest_ns,
                "ack": stages.ack_ns,
                "flush": stages.flush_ns,
            }),
        );
    }
    doc
}

/// The std-path throughput measured at the mid-PR checkpoint: shim fix
/// (`#[inline(always)]` passthroughs) + slice-by-16 CRC + buffered-writer
/// removal, with the thread-per-connection accept loop still in place.
/// Measured on this repo's single-core CI box (best of three:
/// 7.28M / 7.02M / 6.00M rep/s) before the reactor landed; recorded here
/// because the reactor now always serves on linux-x86_64, so the pre-reactor
/// state is no longer reachable from a checkout of this commit.
const STD_PATH_CHECKPOINT_REPORTS_PER_SEC: f64 = 6_000_000.0;

/// Renders the sweep as the `BENCH_serve.json` document: headline fields
/// from the best case by throughput, plus every case under `"runs"` and
/// the fixed pre-reactor checkpoint under `"std_path_checkpoint"`.
pub fn to_json(results: &[ServeLoadResult], opts: &ServeLoadOptions) -> JsonValue {
    let best = results
        .iter()
        .max_by(|a, b| a.reports_per_sec.total_cmp(&b.reports_per_sec))
        .expect("at least one case");
    let mut doc = case_json(best, opts);
    doc.push("bench", "serve_loadgen");
    doc.push("transport", "tcp loopback");
    doc.push(
        "std_path_checkpoint",
        json!({
            "reports_per_sec": STD_PATH_CHECKPOINT_REPORTS_PER_SEC,
            "note": "thread-per-connection path after the shim/CRC fixes, \
                     measured mid-PR before the reactor replaced it",
        }),
    );
    let runs: Vec<JsonValue> = results.iter().map(|r| case_json(r, opts)).collect();
    doc.push("runs", runs);
    doc
}

/// Runs the sweep, prints one line per case, and writes the JSON
/// document.
pub fn serve_smoke(opts: &ServeLoadOptions) -> std::io::Result<()> {
    let cases = opts.cases();
    let mut results = Vec::with_capacity(cases.len());
    for case in cases {
        println!(
            "serve_loadgen: {} users, {} connections × batch {} (window {}), {} workers",
            case.users, case.connections, opts.batch, opts.window, case.workers
        );
        let r = run_serve_loadgen(opts, case);
        println!(
            "ingested {:>8} reports in {:>6.2}s  {:>10.0} rep/s  p50 {:>7.0}µs  p99 {:>7.0}µs  retries {}",
            r.reports, r.elapsed_s, r.reports_per_sec, r.p50_us, r.p99_us, r.retries
        );
        if let Some(s) = &r.stages {
            println!(
                "  stages (ns/report): accept {:>6.1}  decode {:>6.1}  ingest {:>6.1}  \
                 ack {:>6.1}  flush {:>6.1}",
                s.accept_ns, s.decode_ns, s.ingest_ns, s.ack_ns, s.flush_ns
            );
        }
        results.push(r);
    }
    let doc = to_json(&results, opts);
    std::fs::write(&opts.out, doc.to_pretty())?;
    println!("wrote {}", opts.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_loadgen_run_is_lossless() {
        let opts = ServeLoadOptions {
            connections: vec![2],
            users: vec![2_000],
            batch: 100,
            workers: vec![2],
            queue_capacity: 8,
            ..ServeLoadOptions::default()
        };
        let cases = opts.cases();
        assert_eq!(cases.len(), 1);
        let r = run_serve_loadgen(&opts, cases[0]);
        assert_eq!(r.reports, 2_000);
        assert_eq!(r.frames, 20);
        assert!(r.reports_per_sec > 0.0);
        assert!(r.p99_us >= r.p50_us);
    }

    #[test]
    fn sweep_is_the_cross_product_in_flag_order() {
        let opts = ServeLoadOptions {
            connections: vec![2, 4],
            users: vec![1_000],
            workers: vec![1, 2],
            ..ServeLoadOptions::default()
        };
        let cases = opts.cases();
        assert_eq!(cases.len(), 4);
        assert_eq!(
            cases
                .iter()
                .map(|c| (c.connections, c.workers))
                .collect::<Vec<_>>(),
            vec![(2, 1), (4, 1), (2, 2), (4, 2)]
        );
        assert!(cases.iter().all(|c| c.users == 1_000));
    }

    #[test]
    fn sweep_json_has_headline_and_runs() {
        let opts = ServeLoadOptions::default();
        let fake = |rate: f64| ServeLoadResult {
            case: ServeCase {
                connections: 2,
                workers: 1,
                users: 100,
            },
            reports: 100,
            elapsed_s: 1.0,
            reports_per_sec: rate,
            p50_us: 1.0,
            p99_us: 2.0,
            retries: 0,
            frames: 1,
            stages: Some(StageBreakdown::default()),
        };
        let doc = to_json(&[fake(5.0), fake(9.0), fake(7.0)], &opts);
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("serve_loadgen")
        );
        assert_eq!(
            doc.get("reports_per_sec").and_then(|v| v.as_f64()),
            Some(9.0)
        );
        assert_eq!(
            doc.get("runs").and_then(|v| v.as_array()).map(|r| r.len()),
            Some(3)
        );
        assert!(doc.get("stage_ns_per_report").is_some());
    }

    #[test]
    fn percentiles_on_sorted_data() {
        // Nearest-rank on 1..=100: index (99 · p).round().
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&data, 0.50), 51.0);
        assert_eq!(percentile(&data, 0.99), 99.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}

//! `perf_smoke --cluster-loadgen`: loopback load generation against the
//! two-tier cluster (DESIGN.md §16).
//!
//! Boots an in-process [`felip_cluster::AggregatorServer`] plus N ingest
//! [`felip_server::Server`]s whose consistent cuts stream upstream as
//! epoch-numbered deltas, splits the deterministic loadgen stream across
//! the nodes, and measures:
//!
//! * **aggregate throughput** — reports/s from the first frame on any
//!   node's wire to the last node's final flush being acked by the
//!   aggregator (i.e. until the merged view is complete, not merely until
//!   ingest nodes have the data);
//! * **delta-merge latency** — p50/p99 of `cluster.delta.apply`, the
//!   validate+merge cost of one delta on the aggregator;
//! * **catch-up time** — how long a node that joins late with a full
//!   share of pre-existing counts takes to be merged (the handshake +
//!   full-cumulative-resync rejoin path).
//!
//! The run is self-verifying: the merged counts must be bit-identical to
//! an offline single-node collection of the union stream, so the numbers
//! only ever describe a correct run.

use std::thread;
use std::time::{Duration, Instant};

use felip_cluster::{AggregatorConfig, AggregatorServer, StreamerConfig, UpstreamStreamer};
use felip_common::rng::derive_seed;
use felip_obs::json;
use felip_obs::json::JsonValue;
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::encode_batch;
use felip_server::{
    CutState, Frame, FrameKind, PipelinedClient, RetryPolicy, Server, ServerConfig,
};
use std::sync::Arc;

/// Options for the cluster load generation run.
#[derive(Debug, Clone)]
pub struct ClusterLoadOptions {
    /// Ingest nodes (each gets one pipelined connection).
    pub nodes: usize,
    /// Total users (= reports) split across the nodes.
    pub users: usize,
    /// Reports per `ReportBatch` frame.
    pub batch: usize,
    /// Pipeline window: unacked frames in flight per node connection.
    pub window: usize,
    /// Ingest-node consistent-cut (= delta shipping) cadence.
    pub delta_every: Duration,
    /// Loadgen seed (drives records and perturbation).
    pub seed: u64,
    /// Output JSON path.
    pub out: String,
}

impl Default for ClusterLoadOptions {
    fn default() -> Self {
        ClusterLoadOptions {
            nodes: 2,
            users: 200_000,
            batch: 500,
            window: 16,
            delta_every: Duration::from_millis(10),
            seed: 0xBEEF,
            out: "BENCH_cluster.json".to_string(),
        }
    }
}

/// One cluster run's measured results.
#[derive(Debug, Clone)]
pub struct ClusterLoadResult {
    /// Ingest nodes driven.
    pub nodes: usize,
    /// Reports merged by the aggregator during the timed load.
    pub reports: usize,
    /// Wall-clock seconds from first frame to the last flush ack.
    pub elapsed_s: f64,
    /// Sustained cluster-wide ingestion throughput.
    pub aggregate_reports_per_sec: f64,
    /// Median aggregator delta validate+apply time, microseconds.
    pub delta_merge_p50_us: f64,
    /// 99th-percentile aggregator delta validate+apply time.
    pub delta_merge_p99_us: f64,
    /// Deltas the aggregator merged (incremental + full).
    pub deltas_applied: u64,
    /// Full cumulative resyncs across every streamer.
    pub full_resyncs: u64,
    /// Reports carried by the late joiner's catch-up resync.
    pub catchup_reports: usize,
    /// Wall-clock ms for the late joiner to be merged.
    pub catchup_ms: f64,
}

/// Reads one metric's counter value from the global recorder.
fn counter_value(name: &str) -> u64 {
    felip_obs::global()
        .metric(name)
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0)
}

/// The aggregator's delta-apply histogram, if any deltas were applied.
fn apply_histogram() -> Option<felip_obs::HistogramSnapshot> {
    match felip_obs::global()
        .metric("cluster.delta.apply")
        .map(|m| m.value)
    {
        Some(felip_obs::MetricValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

/// Runs one cluster load generation and returns the measurements.
pub fn run_cluster_loadgen(opts: &ClusterLoadOptions) -> ClusterLoadResult {
    let nodes = opts.nodes.max(1);
    let users = opts.users.max(nodes);
    let plan = crate::serve::bench_plan(users, 23);
    let plan_hash = plan.schema_hash();

    let obs_was_enabled = felip_obs::global().is_enabled();
    felip_obs::global().reset();
    felip_obs::enable();

    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .expect("bind aggregator");
    let upstream = agg.local_addr();
    let agg_stop = agg.shutdown_handle();
    let agg_thread = thread::spawn(move || agg.run(None).expect("aggregator run"));

    // Pre-generate AND pre-encode every node's frames so the timed
    // section measures the cluster, not client-side perturbation.
    let per_node = users.div_ceil(nodes);
    let streams: Vec<Vec<Vec<u8>>> = (0..nodes)
        .map(|n| {
            let lo = n * per_node;
            let hi = ((n + 1) * per_node).min(users);
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

    // Timed: pump every node concurrently, drain each node's server, and
    // flush its final cut upstream — the clock stops only once the
    // aggregator has acked every node's complete share.
    let started = Instant::now();
    let full_resyncs: u64 = thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(n, frames)| {
                let plan = Arc::clone(&plan);
                let seed = opts.seed;
                let window = opts.window;
                s.spawn(move || {
                    let streamer = UpstreamStreamer::start(StreamerConfig {
                        upstream: upstream.to_string(),
                        node_id: n as u64 + 1,
                        plan_hash,
                        ..StreamerConfig::default()
                    });
                    let config = ServerConfig {
                        cut_hook: Some(streamer.hook()),
                        cut_every: opts.delta_every.max(Duration::from_millis(1)),
                        ..ServerConfig::default()
                    };
                    let server = Server::bind(Arc::clone(&plan), config).expect("bind node");
                    let addr = server.local_addr();
                    let stop = server.shutdown_handle();
                    let node_thread = thread::spawn(move || server.run(None).expect("node serve"));

                    let client_id = derive_seed(seed, n as u64 + 1);
                    let policy = RetryPolicy {
                        jitter_seed: client_id,
                        ..RetryPolicy::default()
                    };
                    let mut client =
                        PipelinedClient::connect_with(addr, plan_hash, client_id, policy)
                            .expect("connect");
                    client.pump_encoded(frames, window).expect("pump");
                    drop(client);

                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                    let run = node_thread.join().expect("node join");
                    let report = streamer
                        .finish(
                            CutState {
                                counts: run.aggregator.counts().to_vec(),
                                group_sizes: run.aggregator.group_sizes().to_vec(),
                                reports: run.aggregator.reports_ingested() as u64,
                            },
                            Duration::from_secs(60),
                        )
                        .expect("final flush");
                    report.full_resyncs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("node")).sum()
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Catch-up: a late joiner arrives with a full share of pre-existing
    // counts (think: rejoin after a crash, cursor lost) and is merged via
    // the handshake + full-cumulative-resync path.
    let catchup_reports = per_node;
    let late =
        offline_reference(&plan, users..users + catchup_reports, opts.seed).expect("late share");
    let late_cut = CutState {
        counts: late.counts().to_vec(),
        group_sizes: late.group_sizes().to_vec(),
        reports: late.reports_ingested() as u64,
    };
    let catchup_started = Instant::now();
    let joiner = UpstreamStreamer::start(StreamerConfig {
        upstream: upstream.to_string(),
        node_id: nodes as u64 + 1,
        plan_hash,
        ..StreamerConfig::default()
    });
    let catchup_report = joiner
        .finish(late_cut, Duration::from_secs(60))
        .expect("catch-up flush");
    let catchup_ms = catchup_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(catchup_report.flushed_reports as usize, catchup_reports);

    let hist = apply_histogram();
    let deltas_applied = counter_value("cluster.delta.applied");

    agg_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = agg_thread.join().expect("aggregator join");
    if !obs_was_enabled {
        felip_obs::disable();
    }

    // Self-verification: the merged counts must equal an offline
    // single-node collection of the union stream, bit for bit.
    let expected =
        offline_reference(&plan, 0..users + catchup_reports, opts.seed).expect("offline");
    assert_eq!(run.merged.reports_ingested(), users + catchup_reports);
    assert_eq!(
        run.merged.counts(),
        expected.counts(),
        "cluster loadgen drifted"
    );
    assert_eq!(run.merged.counts_digest(), expected.counts_digest());

    ClusterLoadResult {
        nodes,
        reports: users,
        elapsed_s: elapsed,
        aggregate_reports_per_sec: users as f64 / elapsed,
        delta_merge_p50_us: hist.as_ref().map_or(0.0, |h| h.percentile(50.0)),
        delta_merge_p99_us: hist.as_ref().map_or(0.0, |h| h.percentile(99.0)),
        deltas_applied,
        full_resyncs,
        catchup_reports,
        catchup_ms,
    }
}

/// Renders the run as the `BENCH_cluster.json` document.
pub fn to_json(r: &ClusterLoadResult, opts: &ClusterLoadOptions) -> JsonValue {
    json!({
        "bench": "cluster_loadgen",
        "transport": "tcp loopback",
        "nodes": r.nodes,
        "reports": r.reports,
        "batch": opts.batch,
        "window": opts.window,
        "delta_every_ms": opts.delta_every.as_millis() as u64,
        "elapsed_s": r.elapsed_s,
        "aggregate_reports_per_sec": r.aggregate_reports_per_sec,
        "delta_merge_p50_us": r.delta_merge_p50_us,
        "delta_merge_p99_us": r.delta_merge_p99_us,
        "deltas_applied": r.deltas_applied,
        "full_resyncs": r.full_resyncs,
        "catchup_reports": r.catchup_reports,
        "catchup_ms": r.catchup_ms,
    })
}

/// Runs the cluster loadgen, prints the summary line, and writes the JSON
/// document.
pub fn cluster_smoke(opts: &ClusterLoadOptions) -> std::io::Result<()> {
    println!(
        "cluster_loadgen: {} users over {} ingest nodes × batch {} (window {}), \
         deltas every {}ms",
        opts.users,
        opts.nodes,
        opts.batch,
        opts.window,
        opts.delta_every.as_millis()
    );
    let r = run_cluster_loadgen(opts);
    println!(
        "merged {:>8} reports in {:>6.2}s  {:>10.0} rep/s  delta apply p50 {:>6.0}µs  \
         p99 {:>6.0}µs  catch-up {:>6.1}ms ({} reports)",
        r.reports,
        r.elapsed_s,
        r.aggregate_reports_per_sec,
        r.delta_merge_p50_us,
        r.delta_merge_p99_us,
        r.catchup_ms,
        r.catchup_reports
    );
    let doc = to_json(&r, opts);
    std::fs::write(&opts.out, doc.to_pretty())?;
    println!("wrote {}", opts.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_run_is_lossless_and_shaped() {
        let opts = ClusterLoadOptions {
            nodes: 2,
            users: 2_000,
            batch: 100,
            delta_every: Duration::from_millis(5),
            ..ClusterLoadOptions::default()
        };
        let r = run_cluster_loadgen(&opts);
        assert_eq!(r.nodes, 2);
        assert_eq!(r.reports, 2_000);
        assert!(r.aggregate_reports_per_sec > 0.0);
        assert!(r.deltas_applied >= 3, "2 node flushes + 1 catch-up");
        assert!(r.full_resyncs + 1 >= 1);
        assert!(r.catchup_ms > 0.0);
        assert!(r.delta_merge_p99_us >= r.delta_merge_p50_us);

        let doc = to_json(&r, &opts);
        for key in [
            "bench",
            "nodes",
            "aggregate_reports_per_sec",
            "delta_merge_p50_us",
            "delta_merge_p99_us",
            "catchup_ms",
        ] {
            assert!(doc.get(key).is_some(), "missing headline key {key}");
        }
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("cluster_loadgen")
        );
    }
}

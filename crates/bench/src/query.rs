//! `perf_smoke --query-loadgen`: mixed ingest + query load against the
//! streaming server (DESIGN.md §17).
//!
//! Boots an in-process [`felip_server::Server`], streams the deterministic
//! loadgen report stream over one pipelined ingest connection, and — while
//! ingest is running — hammers the v5 `Query` verb from N concurrent query
//! connections. Measured:
//!
//! * **query latency** — p50/p99 wall-clock per answered query
//!   (nearest-rank over every query issued during ingest);
//! * **answer staleness** — `head_epoch - epoch` per reply: how many
//!   epochs the served answer trails the ingest head at answer time;
//! * **cache behaviour** — engine-level hit/miss/invalidation counters
//!   over the run;
//! * **ingest throughput** — reports/s sustained *while* queries ran,
//!   i.e. the interference-inclusive number.
//!
//! The run is self-verifying: after ingest drains, one `Fresh`-mode query
//! must be bit-identical to the offline batch estimate over the full
//! stream, so the numbers only ever describe a correct run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use felip_common::rng::derive_seed;
use felip_common::Predicate;
use felip_obs::json;
use felip_obs::json::JsonValue;
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::encode_batch;
use felip_server::{
    Client, Frame, FrameKind, PipelinedClient, QueryMode, RetryPolicy, Server, ServerConfig,
};

/// Options for the mixed ingest + query load generation run.
#[derive(Debug, Clone)]
pub struct QueryLoadOptions {
    /// Total users (= reports) streamed by the ingest connection.
    pub users: usize,
    /// Reports per `ReportBatch` frame.
    pub batch: usize,
    /// Concurrent query connections asking while ingest runs.
    pub clients: usize,
    /// Pipeline window for the ingest connection.
    pub window: usize,
    /// Loadgen seed (drives records and perturbation).
    pub seed: u64,
    /// Output JSON path.
    pub out: String,
}

impl Default for QueryLoadOptions {
    fn default() -> Self {
        QueryLoadOptions {
            users: 100_000,
            batch: 500,
            clients: 2,
            window: 16,
            seed: 0xBEEF,
            out: "BENCH_query.json".to_string(),
        }
    }
}

/// One mixed run's measured results.
#[derive(Debug, Clone)]
pub struct QueryLoadResult {
    /// Reports ingested during the timed run.
    pub reports: usize,
    /// Queries answered while ingest was running.
    pub queries: u64,
    /// Median query round trip, milliseconds.
    pub query_p50_ms: f64,
    /// 99th-percentile query round trip, milliseconds.
    pub query_p99_ms: f64,
    /// Worst answer staleness observed (epochs behind the ingest head).
    pub max_staleness_epochs: u64,
    /// Mean answer staleness over every query.
    pub mean_staleness_epochs: f64,
    /// Engine refreshes served warm (no grid changed).
    pub cache_hits: u64,
    /// Engine refreshes that re-ran the pipeline (some grid cold or
    /// invalidated).
    pub cache_misses: u64,
    /// Cached grids invalidated by changed counts.
    pub cache_invalidations: u64,
    /// Ingest throughput sustained while queries ran.
    pub ingest_reports_per_sec: f64,
    /// Wall-clock seconds for the ingest stream.
    pub elapsed_s: f64,
}

/// Reads one metric's counter value from the global recorder.
fn counter_value(name: &str) -> u64 {
    felip_obs::global()
        .metric(name)
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0)
}

/// Nearest-rank percentile over an unsorted sample (sorts a copy).
fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx] as f64 / 1e6
}

/// The fixed 2-D query every connection asks — a range on the numerical
/// attribute conjoined with a category set, the paper's λ=2 shape.
fn bench_predicates() -> Vec<Predicate> {
    vec![
        Predicate::between(0, 8, 40),
        Predicate::in_set(1, vec![1, 2]),
    ]
}

/// Runs one mixed ingest + query load generation and returns the
/// measurements.
pub fn run_query_loadgen(opts: &QueryLoadOptions) -> QueryLoadResult {
    let users = opts.users.max(opts.batch.max(1));
    let plan = crate::serve::bench_plan(users, 23);
    let plan_hash = plan.schema_hash();

    let obs_was_enabled = felip_obs::global().is_enabled();
    felip_obs::global().reset();
    felip_obs::enable();

    let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    // Pre-generate AND pre-encode the ingest stream so the timed section
    // measures the server under query interference, not perturbation.
    let reports: Vec<_> = (0..users)
        .map(|u| user_report(&plan, u, opts.seed).expect("loadgen report"))
        .collect();
    let frames: Vec<Vec<u8>> = reports
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
        .collect();

    let ingest_done = AtomicBool::new(false);
    let preds = bench_predicates();

    // Timed: one pipelined ingest connection pumps the full stream while
    // `clients` query connections ask in a closed loop.
    let started = Instant::now();
    // (answer-latency ns, staleness epochs) samples per query client.
    type ClientSamples = Vec<(Vec<u64>, Vec<u64>)>;
    let (elapsed, per_client): (f64, ClientSamples) = thread::scope(|s| {
        let ingest = s.spawn(|| {
            let client_id = derive_seed(opts.seed, 1);
            let policy = RetryPolicy {
                jitter_seed: client_id,
                ..RetryPolicy::default()
            };
            let mut client = PipelinedClient::connect_with(addr, plan_hash, client_id, policy)
                .expect("ingest connect");
            client.pump_encoded(&frames, opts.window).expect("pump");
            drop(client);
            let elapsed = started.elapsed().as_secs_f64();
            ingest_done.store(true, Ordering::SeqCst);
            elapsed
        });
        let askers: Vec<_> = (0..opts.clients.max(1))
            .map(|c| {
                let preds = preds.clone();
                let ingest_done = &ingest_done;
                s.spawn(move || {
                    let client_id = derive_seed(opts.seed, 100 + c as u64);
                    let mut client =
                        Client::connect_with(addr, plan_hash, client_id, RetryPolicy::default())
                            .expect("query connect");
                    let mut latencies_ns = Vec::new();
                    let mut staleness = Vec::new();
                    while !ingest_done.load(Ordering::SeqCst) {
                        let t0 = Instant::now();
                        match client.query(preds.clone(), QueryMode::Cached) {
                            Ok(ans) => {
                                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                                assert!(
                                    ans.epoch <= ans.head_epoch,
                                    "answer epoch ahead of the head"
                                );
                                staleness.push(ans.head_epoch - ans.epoch);
                            }
                            // Before the first batch lands the collection
                            // is empty — an expected Error reply.
                            Err(_) => thread::yield_now(),
                        }
                    }
                    (latencies_ns, staleness)
                })
            })
            .collect();
        (
            ingest.join().expect("ingest thread"),
            askers
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .collect(),
        )
    });

    // Self-verification: a Fresh query over the drained stream must be
    // bit-identical to the offline batch estimate on the same reports.
    let offline = offline_reference(&plan, 0..users, opts.seed).expect("offline reference");
    let query = felip_common::Query::new(plan.schema(), preds.clone()).expect("bench query");
    let expected = offline
        .estimate()
        .expect("offline estimate")
        .answer(&query)
        .expect("offline answer");
    let mut verifier = Client::connect_with(
        addr,
        plan_hash,
        derive_seed(opts.seed, 999),
        RetryPolicy::default(),
    )
    .expect("verify connect");
    let final_ans = verifier
        .query(preds, QueryMode::Fresh)
        .expect("final query");
    assert_eq!(
        final_ans.reports, users as u64,
        "query loadgen lost reports"
    );
    assert_eq!(
        final_ans.answer.to_bits(),
        expected.to_bits(),
        "online answer drifted from the offline batch estimate"
    );
    drop(verifier);

    let cache_hits = counter_value("query.cache.hit");
    let cache_misses = counter_value("query.cache.miss");
    let cache_invalidations = counter_value("query.cache.invalidations");

    shutdown.store(true, Ordering::SeqCst);
    server_thread.join().expect("server join");
    if !obs_was_enabled {
        felip_obs::disable();
    }

    let latencies: Vec<u64> = per_client
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let staleness: Vec<u64> = per_client
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    QueryLoadResult {
        reports: users,
        queries: latencies.len() as u64,
        query_p50_ms: percentile_ms(&latencies, 50.0),
        query_p99_ms: percentile_ms(&latencies, 99.0),
        max_staleness_epochs: staleness.iter().copied().max().unwrap_or(0),
        mean_staleness_epochs: if staleness.is_empty() {
            0.0
        } else {
            staleness.iter().sum::<u64>() as f64 / staleness.len() as f64
        },
        cache_hits,
        cache_misses,
        cache_invalidations,
        ingest_reports_per_sec: users as f64 / elapsed,
        elapsed_s: elapsed,
    }
}

/// Renders the run as the `BENCH_query.json` document.
pub fn to_json(r: &QueryLoadResult, opts: &QueryLoadOptions) -> JsonValue {
    json!({
        "bench": "query_loadgen",
        "transport": "tcp loopback",
        "reports": r.reports,
        "batch": opts.batch,
        "window": opts.window,
        "query_clients": opts.clients,
        "queries": r.queries,
        "query_p50_ms": r.query_p50_ms,
        "query_p99_ms": r.query_p99_ms,
        "max_staleness_epochs": r.max_staleness_epochs,
        "mean_staleness_epochs": r.mean_staleness_epochs,
        "cache_hits": r.cache_hits,
        "cache_misses": r.cache_misses,
        "cache_invalidations": r.cache_invalidations,
        "ingest_reports_per_sec": r.ingest_reports_per_sec,
        "elapsed_s": r.elapsed_s,
    })
}

/// Runs the query loadgen, prints the summary line, and writes the JSON
/// document.
pub fn query_smoke(opts: &QueryLoadOptions) -> std::io::Result<()> {
    println!(
        "query_loadgen: {} users × batch {} (window {}), {} query connections",
        opts.users, opts.batch, opts.window, opts.clients
    );
    let r = run_query_loadgen(opts);
    println!(
        "ingested {:>8} reports in {:>6.2}s  {:>10.0} rep/s  {:>6} queries  \
         p50 {:>7.2}ms  p99 {:>7.2}ms  staleness max {} mean {:.2}  \
         cache {}h/{}m/{}inv",
        r.reports,
        r.elapsed_s,
        r.ingest_reports_per_sec,
        r.queries,
        r.query_p50_ms,
        r.query_p99_ms,
        r.max_staleness_epochs,
        r.mean_staleness_epochs,
        r.cache_hits,
        r.cache_misses,
        r.cache_invalidations,
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
    fn small_mixed_run_is_bit_identical_and_shaped() {
        let opts = QueryLoadOptions {
            users: 3_000,
            batch: 100,
            clients: 2,
            ..QueryLoadOptions::default()
        };
        let r = run_query_loadgen(&opts);
        assert_eq!(r.reports, 3_000);
        assert!(r.ingest_reports_per_sec > 0.0);
        assert!(r.query_p99_ms >= r.query_p50_ms);
        // The final Fresh verification always runs the engine at least
        // once, so at least one refresh missed the cache.
        assert!(r.cache_misses > 0);

        let doc = to_json(&r, &opts);
        for key in [
            "bench",
            "queries",
            "query_p50_ms",
            "query_p99_ms",
            "max_staleness_epochs",
            "ingest_reports_per_sec",
        ] {
            assert!(doc.get(key).is_some(), "missing headline key {key}");
        }
        assert_eq!(
            doc.get("bench").and_then(|v| v.as_str()),
            Some("query_loadgen")
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ms: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert!((percentile_ms(&ms, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile_ms(&ms, 99.0) - 99.0).abs() <= 1.0);
        assert_eq!(percentile_ms(&[], 99.0), 0.0);
    }
}

//! `ingest_query`: online queries on one ingest node while writes arrive.
//!
//! The node serves a 4-attribute plan (two numerical attributes of domain
//! 64, two categorical of domain 8: eight OHG grids). One connection
//! ingests open-loop at the fixed rate [`RATE`], about a quarter of what a
//! flood reaches, replaying a pre-encoded corpus under fresh client ids;
//! each frame's lag is its ack time minus the time it was due. One
//! closed-loop connection asks a λ ∈ {2, 3, 4} query mix in `Cached`
//! mode. Every accepted batch moves the ingest head, so nearly every query
//! pays a consistent cut, a refresh, response-matrix builds and IPF.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use felip::aggregator::Aggregator;
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip_common::rng::derive_seed;
use felip_common::{Attribute, Query, Schema};
use felip_datasets::workload::{generate_queries, WorkloadOptions};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{decode_ack, encode_hello, read_frame, FrameView};
use felip_server::{Client, Frame, FrameKind, QueryMode, RetryPolicy, Server, ServerConfig};

use crate::common::{
    corpus_setup, counter, peak_rss_mb, plan_for, stage_totals, Args, Outcome, BATCH, STAGES,
};
use crate::stats;

/// Offered ingest rate, reports per second (one frame every 400 µs).
const RATE: usize = 1_250_000;
/// Users in the pre-encoded corpus.
const CORPUS_USERS: usize = 1_000_000;
/// Population the plan is sized for.
const PLAN_USERS: usize = 5_000_000;
/// Queries per λ in the mix.
const QUERIES_PER_LAMBDA: usize = 4;
/// Corpus builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Cut sizes the traced run rebuilds to time the estimation layers.
const REBUILT_CUTS: usize = 5;
/// Refreshed answers the run must time, so that its p99 has 10 samples
/// beyond it; ingest goes on past the time budget until they are in.
const MIN_QUERIES: usize = 1_000;
/// Ingest stops at this multiple of the time budget even when fewer than
/// [`MIN_QUERIES`] were answered (the run then fails).
const MAX_BUDGETS: u32 = 4;
/// Complete mix cycles (every query of the mix answered after a refresh,
/// in order) the run must time, so that their median is supported.
const MIN_CYCLES: usize = 20;
/// Read timeout while an ack is awaited and nothing more is due.
const IDLE_WAIT: Duration = Duration::from_millis(5);

fn schema() -> Result<Schema, String> {
    Schema::new(vec![
        Attribute::numerical("n0", 64),
        Attribute::numerical("n1", 64),
        Attribute::categorical("c0", 8),
        Attribute::categorical("c1", 8),
    ])
    .map_err(|e| e.to_string())
}

/// The fixed query mix: four queries each of λ = 2, 3, 4 at selectivity 0.5.
fn query_mix(schema: &Schema) -> Result<Vec<Query>, String> {
    let mut mix = Vec::new();
    for lambda in 2..=4 {
        let opts = WorkloadOptions {
            lambda,
            count: QUERIES_PER_LAMBDA,
            seed: 0x9E7 + lambda as u64,
            ..WorkloadOptions::paper_default()
        };
        mix.extend(generate_queries(schema, opts).map_err(|e| format!("queries: {e}"))?);
    }
    Ok(mix)
}

/// What the open-loop ingest connection observed.
#[derive(Default)]
struct IngestLog {
    /// Per frame: ack time minus due time, ms.
    lag_ms: Vec<f64>,
    /// Most frames due but not yet acknowledged at any one time.
    backlog_max: usize,
    /// Reconnect-and-resend cycles after RETRY, an error reply or EOF.
    resyncs: u64,
    /// Frames acknowledged.
    frames: u64,
}

/// Dials and handshakes as `client_id`; returns the stream and the
/// server's last accepted batch id for that client.
fn connect(addr: SocketAddr, plan_hash: u64, client_id: u64) -> Result<(TcpStream, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Frame {
        kind: FrameKind::Hello,
        plan_hash,
        payload: encode_hello(client_id),
    };
    stream
        .write_all(&hello.encode())
        .map_err(|e| format!("hello: {e}"))?;
    match read_frame(&mut stream) {
        Ok(Some(f)) if f.kind == FrameKind::Ack => {
            let (last, _) = decode_ack(&f.payload).map_err(|e| e.to_string())?;
            Ok((stream, last))
        }
        other => Err(format!("hello refused: {other:?}")),
    }
}

/// Sends every frame of `frames` as `client_id`, frame `i` due at
/// `first_due + i × interval` whatever the server's progress (open loop),
/// and reads acks in between. Any anomaly reconnects under the same id and resends from the
/// server's cursor, as `PipelinedClient` does.
fn ingest_replay(
    addr: SocketAddr,
    plan_hash: u64,
    client_id: u64,
    frames: &[Vec<u8>],
    first_due: Instant,
    interval: Duration,
    log: &mut IngestLog,
) -> Result<(), String> {
    let total = frames.len() as u64;
    let due = |i: usize| first_due + interval * i as u32;
    let (mut stream, mut acked) = connect(addr, plan_hash, client_id)?;
    let mut next = acked;
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut attempts = 0u32;
    let policy = RetryPolicy::default();
    while acked < total {
        let now = Instant::now();
        let mut anomaly = false;
        while next < total && due(next as usize) <= now {
            if stream.write_all(&frames[next as usize]).is_err() {
                anomaly = true;
                break;
            }
            next += 1;
        }
        let due_now = now.checked_duration_since(first_due).map_or(0, |d| {
            (d.as_nanos() / interval.as_nanos() + 1).min(u128::from(total)) as u64
        });
        log.backlog_max = log.backlog_max.max(due_now.saturating_sub(acked) as usize);
        if !anomaly {
            let wait = if next < total {
                due(next as usize).saturating_duration_since(Instant::now())
            } else {
                IDLE_WAIT
            };
            stream
                .set_read_timeout(Some(wait.max(Duration::from_micros(20))))
                .map_err(|e| e.to_string())?;
            match stream.read(&mut chunk) {
                Ok(0) => anomaly = true,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => anomaly = true,
            }
        }
        let arrived = Instant::now();
        let mut used = 0;
        while !anomaly {
            match FrameView::decode_prefix(&buf[used..]) {
                Ok(Some((view, n))) => {
                    used += n;
                    if view.kind != FrameKind::Ack {
                        anomaly = true;
                        break;
                    }
                    let (id, _) = decode_ack(view.payload).map_err(|e| e.to_string())?;
                    while acked < id.min(total) {
                        let lag = arrived.saturating_duration_since(due(acked as usize));
                        log.lag_ms.push(lag.as_secs_f64() * 1e3);
                        acked += 1;
                        log.frames += 1;
                        attempts = 0;
                    }
                }
                Ok(None) => break,
                Err(_) => anomaly = true,
            }
        }
        buf.drain(..used);
        if anomaly {
            attempts += 1;
            log.resyncs += 1;
            if attempts >= policy.max_attempts {
                return Err(format!("ingest gave up after {attempts} resyncs"));
            }
            thread::sleep(policy.backoff(attempts));
            let (s, server_acked) = connect(addr, plan_hash, client_id)?;
            stream = s;
            buf.clear();
            while acked < server_acked.min(total) {
                let lag = Instant::now().saturating_duration_since(due(acked as usize));
                log.lag_ms.push(lag.as_secs_f64() * 1e3);
                acked += 1;
                log.frames += 1;
            }
            next = acked;
        }
    }
    Ok(())
}

/// `reference` counted `times` times plus `prefix`, as one aggregator.
fn combined(
    reference: &Aggregator,
    times: u64,
    prefix: Option<&Aggregator>,
) -> Result<Aggregator, String> {
    let counts = reference
        .counts()
        .iter()
        .enumerate()
        .map(|(g, grid)| {
            grid.iter()
                .enumerate()
                .map(|(c, &n)| n * times + prefix.map_or(0, |p| p.counts()[g][c]))
                .collect()
        })
        .collect();
    let sizes = reference
        .group_sizes()
        .iter()
        .enumerate()
        .map(|(g, &n)| n * times as usize + prefix.map_or(0, |p| p.group_sizes()[g]))
        .collect();
    Aggregator::restore(reference.plan_handle(), reference.oracles(), counts, sizes)
        .map_err(|e| format!("restore: {e}"))
}

/// Times, on aggregators rebuilt to `cuts` report counts, the estimation
/// layers a query under writes pays: `(refresh ms, matrix ms per query,
/// answer µs per query)`, each the median over the cuts.
fn estimation_layers(
    plan: &Arc<CollectionPlan>,
    reference: &Aggregator,
    mix: &[Query],
    cuts: &[u64],
    seed: u64,
) -> Result<(f64, f64, f64), String> {
    let (mut refresh, mut matrix, mut answer) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = QueryEngine::new(Arc::clone(plan), reference.oracles());
    // Warm the engine so every timed refresh re-estimates changed counts,
    // as a refresh after a write does.
    engine.refresh_from(reference).map_err(|e| e.to_string())?;
    let k = plan.schema().len();
    for &cut in cuts {
        let users = cut as usize;
        let rem = users % CORPUS_USERS;
        let prefix = if rem > 0 {
            Some(offline_reference(plan, 0..rem, seed).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let agg = combined(reference, (users / CORPUS_USERS) as u64, prefix.as_ref())?;
        let t = Instant::now();
        let out = engine.refresh_from(&agg).map_err(|e| e.to_string())?;
        refresh.push(t.elapsed().as_secs_f64() * 1e3);
        let est = out.estimator;
        let mut pair_ms = vec![vec![0.0; k]; k];
        for (i, row) in pair_ms.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
                let t = Instant::now();
                est.response_matrix(i, j).map_err(|e| e.to_string())?;
                *slot = t.elapsed().as_secs_f64() * 1e3;
            }
        }
        let per_query: f64 = mix
            .iter()
            .map(|q| {
                let attrs = q.attrs();
                let mut ms = 0.0;
                for (s, &i) in attrs.iter().enumerate() {
                    for &j in &attrs[s + 1..] {
                        ms += pair_ms[i.min(j)][i.max(j)];
                    }
                }
                ms
            })
            .sum::<f64>()
            / mix.len() as f64;
        matrix.push(per_query);
        let t = Instant::now();
        for q in mix {
            std::hint::black_box(est.answer(q).map_err(|e| e.to_string())?);
        }
        answer.push(t.elapsed().as_secs_f64() * 1e6 / mix.len() as f64);
    }
    Ok((
        stats::median(&refresh),
        stats::median(&matrix),
        stats::median(&answer),
    ))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let schema = schema()?;
    let mix = query_mix(&schema)?;
    let plan = plan_for(schema, PLAN_USERS)?;
    let plan_hash = plan.schema_hash();
    let seed = args.seed;
    let setup = corpus_setup(&plan, CORPUS_USERS, 1, seed, SETUP_REPEATS)?;
    let corpus = &setup.corpus;
    let frames = &corpus.streams[0];
    let per_replay = frames.len();
    let interval = Duration::from_secs_f64(BATCH as f64 / RATE as f64);

    let server = Server::bind(Arc::clone(&plan), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None));

    felip_obs::global().reset();
    let ingesting = AtomicBool::new(true);
    let first_replay = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    let (ingest, asked) = thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut log = IngestLog::default();
            let start = Instant::now() + Duration::from_millis(5);
            // Whole replays, until the budget is spent and enough queries
            // were answered.
            let mut replays = 0usize;
            let result = loop {
                let spent = start.elapsed();
                if spent >= args.budget * MAX_BUDGETS
                    || (spent >= args.budget && answered.load(Ordering::SeqCst) >= MIN_QUERIES)
                {
                    break Ok(());
                }
                let first_due = start + interval * (replays * per_replay) as u32;
                let id = derive_seed(seed, replays as u64 + 1);
                let out = ingest_replay(addr, plan_hash, id, frames, first_due, interval, &mut log);
                first_replay.store(true, Ordering::SeqCst);
                if out.is_err() {
                    break out;
                }
                replays += 1;
            };
            ingesting.store(false, Ordering::SeqCst);
            result.map(|()| (log, replays, start.elapsed()))
        });
        let asked = s.spawn(|| {
            let id = derive_seed(seed, 0xA5C);
            let mut client = Client::connect_with(addr, plan_hash, id, RetryPolicy::default())
                .map_err(|e| format!("query connect: {e}"))?;
            // Queries start once the first replay is in; before the first
            // batch lands there is nothing to estimate from.
            while !first_replay.load(Ordering::SeqCst) && ingesting.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            // Per query asked: its round trip if it paid a refresh.
            let (mut timed, mut staleness, mut cuts, mut failed) =
                (Vec::new(), 0u64, Vec::new(), 0u64);
            let (mut epoch, mut cached) = (0u64, 0u64);
            let mut i = 0usize;
            while ingesting.load(Ordering::SeqCst) {
                let q = &mix[i % mix.len()];
                i += 1;
                let t = Instant::now();
                match client.query(q.predicates().to_vec(), QueryMode::Cached) {
                    // Only an answer at a new epoch paid a refresh; one at
                    // the previous epoch came from the cache during a pause
                    // in the writes (a reconnect between replays, a RETRY
                    // backoff) and is counted, not timed.
                    Ok(ans) if ans.epoch > epoch => {
                        timed.push(Some(t.elapsed().as_secs_f64() * 1e3));
                        answered.fetch_add(1, Ordering::SeqCst);
                        staleness = staleness.max(ans.head_epoch.saturating_sub(ans.epoch));
                        cuts.push(ans.reports);
                        epoch = ans.epoch;
                    }
                    Ok(_) => {
                        timed.push(None);
                        cached += 1;
                    }
                    Err(_) => {
                        timed.push(None);
                        failed += 1;
                    }
                }
            }
            Ok::<_, String>((timed, staleness, cuts, failed, cached))
        });
        (
            ingest
                .join()
                .unwrap_or_else(|_| Err("ingest thread panicked".into())),
            asked
                .join()
                .unwrap_or_else(|_| Err("query thread panicked".into())),
        )
    });
    let (log, replays, ingest_elapsed) = ingest?;
    let (timed, staleness_max, mut cuts, failed, cached) = asked?;
    let latency_ms: Vec<f64> = timed.iter().flatten().copied().collect();
    let stages = stage_totals();
    let (hits, misses) = (counter("query.cache.hit"), counter("query.cache.miss"));
    felip_obs::global().set_enabled(false);

    // Check: after the last ack, a Fresh answer to every query of the mix
    // is bit-identical to the offline estimate of the same reports.
    let reference = offline_reference(&plan, 0..CORPUS_USERS, seed)
        .map_err(|e| format!("offline reference: {e}"))?;
    let expected_agg = combined(&reference, replays as u64, None)?;
    let expected = expected_agg.estimate().map_err(|e| e.to_string())?;
    let mut verifier = Client::connect_with(
        addr,
        plan_hash,
        derive_seed(seed, 0x5EE),
        RetryPolicy::default(),
    )
    .map_err(|e| format!("verify connect: {e}"))?;
    for q in &mix {
        let ans = verifier
            .query(q.predicates().to_vec(), QueryMode::Fresh)
            .map_err(|e| format!("fresh query: {e}"))?;
        let want = expected.answer(q).map_err(|e| e.to_string())?;
        if ans.reports != (replays * CORPUS_USERS) as u64 || ans.answer.to_bits() != want.to_bits()
        {
            return Err(format!(
                "fresh answer {} over {} reports; offline estimate {want} over {}",
                ans.answer,
                ans.reports,
                replays * CORPUS_USERS
            ));
        }
    }
    drop(verifier);
    stop.store(true, Ordering::SeqCst);
    let served = server_thread
        .join()
        .map_err(|_| "server thread panicked")?
        .map_err(|e| format!("server run: {e}"))?;
    if served.aggregator.counts() != expected_agg.counts() {
        return Err("served counts differ from the offline reference".into());
    }
    if latency_ms.len() < MIN_QUERIES {
        return Err(format!(
            "answered {} queries; p99 needs at least {MIN_QUERIES}",
            latency_ms.len()
        ));
    }
    // A mix cycle: the queries asked `k × mix.len()` to `(k + 1) × mix.len()
    // − 1`, one of each, every one timed.
    let cycles_ms: Vec<f64> = timed
        .chunks_exact(mix.len())
        .filter_map(|cycle| cycle.iter().copied().sum::<Option<f64>>())
        .collect();
    if cycles_ms.len() < MIN_CYCLES {
        return Err(format!(
            "timed {} whole mix cycles; the median needs at least {MIN_CYCLES}",
            cycles_ms.len()
        ));
    }
    // The mix is heterogeneous: a λ = 2 answer takes a few ms, a λ = 4
    // answer several times that, so the run's overall median falls in the
    // gap between them and jumps from run to run. Each query of the mix
    // gets its own median, and throughput counts whole mix cycles.
    let per_query: Vec<Vec<f64>> = (0..mix.len())
        .map(|q| {
            timed
                .iter()
                .skip(q)
                .step_by(mix.len())
                .flatten()
                .copied()
                .collect()
        })
        .collect();
    let query_p50 = per_query.iter().map(|v| stats::median(v)).sum::<f64>() / mix.len() as f64;

    let mut out = Outcome::new(latency_ms.len() as u64 + cached + failed, failed);
    out.set("setup_s", setup.setup_s);
    out.set(
        "throughput_per_s",
        mix.len() as f64 * 1e3 / stats::median(&cycles_ms),
    );
    out.set("latency_p50_ms", query_p50);
    out.latency_tails(&latency_ms, "query latency")?;
    out.samples("mix_cycles", cycles_ms.len());
    out.samples(
        "query_latency_per_mix_query",
        per_query.iter().map(Vec::len).min().unwrap_or(0),
    );
    out.detail("cached_answers", cached);
    out.samples("ingest_lag", log.lag_ms.len());
    out.detail("offered_reports_per_s", RATE);
    out.detail(
        "achieved_reports_per_s",
        (log.frames as usize * BATCH) as f64 / ingest_elapsed.as_secs_f64(),
    );

    out.set("client.perturb_ns_per_report", setup.perturb_ns);
    out.set("wire.encode_ns_per_report", setup.encode_ns);
    let reports_ingested = (replays * CORPUS_USERS) as f64;
    for ((_, name), ns) in STAGES.into_iter().zip(stages) {
        out.set(name, ns as f64 / reports_ingested);
    }
    out.set("server.retry_share", log.resyncs as f64 / log.frames as f64);
    if hits + misses > 0 {
        out.set(
            "query.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    out.set("query.staleness_max_epochs", staleness_max as f64);
    out.set("ingest.backlog_max_frames", log.backlog_max as f64);
    out.set("ingest.lag_p50_ms", stats::median(&log.lag_ms));
    out.set(
        "ingest.lag_p99_ms",
        stats::supported_percentile(&log.lag_ms, 99.0, "ingest lag")?,
    );
    if args.trace {
        cuts.sort_unstable();
        let picks: Vec<u64> = (0..REBUILT_CUTS)
            .map(|i| cuts[(cuts.len() - 1) * (2 * i + 1) / (2 * REBUILT_CUTS)])
            .collect();
        let (refresh_ms, matrix_ms, answer_us) =
            estimation_layers(&plan, &reference, &mix, &picks, seed)?;
        out.set("query.refresh_ms", refresh_ms);
        out.set("query.matrix_ms", matrix_ms);
        out.set("query.answer_us", answer_us);
        out.set(
            "query.unaccounted_ms",
            query_p50 - refresh_ms - matrix_ms - answer_us / 1e3,
        );
    }
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

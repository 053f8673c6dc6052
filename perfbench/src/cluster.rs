//! `ingest_cluster`: two `felip_server::Server` ingest nodes ship
//! consistent-cut deltas every 10 ms to one
//! `felip_cluster::AggregatorServer`, under a closed-loop pipelined flood.
//!
//! The flood is one connection per node (batch 500, window 16) on the
//! 64 × 4 flood plan. Reports are perturbed and encoded during set-up, as
//! users' devices would; each round replays that corpus [`REPLAYS`] times
//! under fresh client ids, which keeps memory bounded while every replay
//! is new data to the servers. A round's throughput runs from its first
//! frame until the aggregator's merged view holds every report sent so
//! far. The run reports the median round: round rates wander by ±10%
//! from one second to the next with the host, and in stretches, so the
//! best round is an outlier that some runs catch and others do not.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use felip_cluster::{AggregatorConfig, AggregatorServer, StreamerConfig, UpstreamStreamer};
use felip_common::rng::derive_seed;
use felip_server::loadgen::offline_reference;
use felip_server::wire::decode_batch;
use felip_server::{CutState, Frame, PipelinedClient, RetryPolicy, Server, ServerConfig};

use crate::common::{
    corpus_setup, flood_plan, histogram, ns_per, peak_rss_mb, stage_totals, Args, Corpus, Outcome,
    STAGES,
};
use crate::stats;

/// Ingest nodes, one flood connection each.
const NODES: usize = 2;
/// Users in the pre-encoded corpus, split evenly over the nodes.
const CORPUS_USERS: usize = 1_000_000;
/// Corpus replays per round: 10M reports a round.
const REPLAYS: usize = 10;
/// Unacknowledged frames in flight per connection.
const WINDOW: usize = 16;
/// Ingest-node consistent-cut (delta shipping) cadence.
const DELTA_EVERY: Duration = Duration::from_millis(10);
/// Corpus builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Rounds per run at least, whatever the time budget.
const MIN_ROUNDS: usize = 4;
/// How long the merged view may lag the last ack before the run fails.
const MERGE_DEADLINE: Duration = Duration::from_secs(30);

/// One node's share of one round.
struct NodeRound {
    rtt_us: Vec<f64>,
    resyncs: u64,
    last_ack: Instant,
}

/// Pumps node `n`'s corpus stream [`REPLAYS`] times, each under a fresh
/// client id.
fn pump_node(
    addr: std::net::SocketAddr,
    plan_hash: u64,
    frames: &[Vec<u8>],
    ids: impl Iterator<Item = u64>,
) -> Result<NodeRound, String> {
    let mut round = NodeRound {
        rtt_us: Vec::with_capacity(frames.len() * REPLAYS),
        resyncs: 0,
        last_ack: Instant::now(),
    };
    for client_id in ids {
        let policy = RetryPolicy {
            jitter_seed: client_id,
            ..RetryPolicy::default()
        };
        let mut client = PipelinedClient::connect_with(addr, plan_hash, client_id, policy)
            .map_err(|e| format!("connect: {e}"))?;
        let pumped = client
            .pump_encoded(frames, WINDOW)
            .map_err(|e| format!("pump: {e}"))?;
        round.resyncs += u64::from(pumped.resyncs);
        round.rtt_us.extend(pumped.frame_rtt_us);
    }
    round.last_ack = Instant::now();
    Ok(round)
}

/// Decodes the whole corpus as the server would (`Frame::decode` +
/// `decode_batch`) and returns the wall time.
fn decode_corpus(corpus: &Corpus) -> Result<Duration, String> {
    let t = Instant::now();
    let mut reports = 0usize;
    for frame in corpus.streams.iter().flatten() {
        let f = Frame::decode(frame).map_err(|e| format!("decode frame: {e}"))?;
        let (_, batch) = decode_batch(&f.payload).map_err(|e| format!("decode batch: {e}"))?;
        reports += std::hint::black_box(batch).len();
    }
    let elapsed = t.elapsed();
    if reports != corpus.reports {
        return Err(format!("decoded {reports} of {} reports", corpus.reports));
    }
    Ok(elapsed)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = flood_plan(CORPUS_USERS * REPLAYS)?;
    let plan_hash = plan.schema_hash();
    let seed = args.seed;
    let setup = corpus_setup(&plan, CORPUS_USERS, NODES, seed, SETUP_REPEATS)?;
    let corpus = &setup.corpus;
    let frames_per_round: usize = corpus.streams.iter().map(Vec::len).sum::<usize>() * REPLAYS;

    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .map_err(|e| format!("bind aggregator: {e}"))?;
    let upstream = agg.local_addr().to_string();
    let state = agg.state();
    let agg_stop = agg.shutdown_handle();
    let agg_thread = thread::spawn(move || agg.run(None));

    let mut nodes = Vec::with_capacity(NODES);
    for n in 0..NODES {
        let streamer = UpstreamStreamer::start(StreamerConfig {
            upstream: upstream.clone(),
            node_id: n as u64 + 1,
            plan_hash,
            ..StreamerConfig::default()
        });
        let config = ServerConfig {
            cut_hook: Some(streamer.hook()),
            cut_every: DELTA_EVERY,
            ..ServerConfig::default()
        };
        let server =
            Server::bind(Arc::clone(&plan), config).map_err(|e| format!("bind node {n}: {e}"))?;
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let handle = thread::spawn(move || server.run(None));
        nodes.push((streamer, addr, stop, handle));
    }

    // Traced runs alternate recorder-off and recorder-on rounds, so the
    // recorder's cost on the serve path is measured like for like; stage
    // and delta histograms only fill in the recorder-on rounds.
    felip_obs::global().reset();
    let mut rates: Vec<f64> = Vec::new();
    let mut rates_traced: Vec<f64> = Vec::new();
    let mut tails_ms: Vec<f64> = Vec::new();
    let mut rtt_ms: Vec<Vec<f64>> = Vec::new();
    let mut resyncs = 0u64;
    let mut traced_reports = 0usize;
    let mut merged_reports = 0u64;
    let started = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || started.elapsed() < args.budget {
        let traced = args.trace && round % 2 == 1;
        felip_obs::global().set_enabled(traced);
        merged_reports += (corpus.reports * REPLAYS) as u64;
        let t0 = Instant::now();
        let shares: Vec<Result<NodeRound, String>> = thread::scope(|s| {
            let handles: Vec<_> = nodes
                .iter()
                .enumerate()
                .map(|(n, (_, addr, _, _))| {
                    let frames = &corpus.streams[n];
                    let ids = (0..REPLAYS).map(move |r| {
                        derive_seed(seed, ((round * REPLAYS + r) * NODES + n) as u64 + 1)
                    });
                    let addr = *addr;
                    s.spawn(move || pump_node(addr, plan_hash, frames, ids))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("pump thread panicked".into()))
                })
                .collect()
        });
        let shares = shares.into_iter().collect::<Result<Vec<_>, String>>()?;
        let last_ack = shares.iter().map(|s| s.last_ack).max().ok_or("no nodes")?;
        loop {
            let merged: u64 = state.node_rows().iter().map(|&(_, _, r)| r).sum();
            if merged == merged_reports {
                break;
            }
            if merged > merged_reports || last_ack.elapsed() > MERGE_DEADLINE {
                return Err(format!(
                    "merged view holds {merged} reports, expected {merged_reports}"
                ));
            }
            thread::sleep(Duration::from_micros(100));
        }
        let done = Instant::now();
        let rate = (corpus.reports * REPLAYS) as f64 / (done - t0).as_secs_f64();
        if traced {
            rates_traced.push(rate);
            traced_reports += corpus.reports * REPLAYS;
        } else {
            rates.push(rate);
        }
        tails_ms.push((done - last_ack).as_secs_f64() * 1e3);
        resyncs += shares.iter().map(|s| s.resyncs).sum::<u64>();
        rtt_ms.push(
            shares
                .iter()
                .flat_map(|s| s.rtt_us.iter().map(|us| us / 1e3))
                .collect(),
        );
        round += 1;
    }
    felip_obs::global().set_enabled(args.trace);
    let delta_apply = histogram("cluster.delta.apply");
    let stages = stage_totals();

    // Drain: stop every node, flush its final cut, stop the aggregator.
    for (streamer, _, stop, handle) in nodes {
        stop.store(true, Ordering::SeqCst);
        let node = handle
            .join()
            .map_err(|_| "node thread panicked")?
            .map_err(|e| format!("node run: {e}"))?;
        let agg = node.aggregator;
        streamer
            .finish(
                CutState {
                    counts: agg.counts().to_vec(),
                    group_sizes: agg.group_sizes().to_vec(),
                    reports: agg.reports_ingested() as u64,
                },
                MERGE_DEADLINE,
            )
            .map_err(|r| format!("final flush incomplete: {r:?}"))?;
    }
    agg_stop.store(true, Ordering::SeqCst);
    let merged_run = agg_thread
        .join()
        .map_err(|_| "aggregator thread panicked")?
        .map_err(|e| format!("aggregator run: {e}"))?;

    // Check: the merged counts are the corpus's offline reference counts,
    // once per replay, bit for bit.
    let replays = (round * REPLAYS) as u64;
    let reference = offline_reference(&plan, 0..CORPUS_USERS, seed)
        .map_err(|e| format!("offline reference: {e}"))?;
    let merged = &merged_run.merged;
    let counts_ok = merged.counts().len() == reference.counts().len()
        && merged
            .counts()
            .iter()
            .zip(reference.counts())
            .all(|(m, r)| m.len() == r.len() && m.iter().zip(r).all(|(&m, &r)| m == r * replays));
    let sizes_ok = merged
        .group_sizes()
        .iter()
        .zip(reference.group_sizes())
        .all(|(&m, &r)| m as u64 == r as u64 * replays);
    if !counts_ok || !sizes_ok || merged.reports_ingested() as u64 != merged_reports {
        return Err(format!(
            "merged counts are not the offline reference × {replays} \
             (counts {counts_ok}, group sizes {sizes_ok}, reports {} of {merged_reports})",
            merged.reports_ingested()
        ));
    }

    let frames_sent = (round * frames_per_round) as u64;
    let mut out = Outcome::new(frames_sent, 0);
    out.set("setup_s", setup.setup_s);
    out.set("throughput_per_s", stats::median(&rates));
    let round_p50: Vec<f64> = rtt_ms.iter().map(|r| stats::median(r)).collect();
    out.set("latency_p50_ms", stats::median(&round_p50));
    out.latency_tails(&rtt_ms.concat(), "frame round trip")?;
    out.samples(
        "frame_rtt_per_round",
        rtt_ms.iter().map(Vec::len).min().unwrap_or(0),
    );
    out.samples("rounds", rates.len());
    out.detail("reports_merged", merged_reports);
    out.detail("resyncs", resyncs);

    out.set("client.perturb_ns_per_report", setup.perturb_ns);
    out.set("wire.encode_ns_per_report", setup.encode_ns);
    let decodes = (0..SETUP_REPEATS)
        .map(|_| decode_corpus(corpus))
        .collect::<Result<Vec<_>, String>>()?;
    out.set(
        "wire.decode_ns_per_report",
        ns_per(&decodes, corpus.reports),
    );
    for ((_, name), ns) in STAGES.into_iter().zip(stages) {
        out.set(name, ns as f64 / traced_reports.max(1) as f64);
    }
    out.set("server.retry_share", resyncs as f64 / frames_sent as f64);
    out.set(
        "cluster.deltas_applied",
        merged_run.stats.deltas_applied as f64 / round as f64,
    );
    out.set(
        "cluster.delta_apply_p50_us",
        delta_apply.map_or(0.0, |h| h.percentile(50.0)),
    );
    out.set("cluster.merge_tail_ms", stats::median(&tails_ms));
    if !rates_traced.is_empty() {
        out.set(
            "obs.overhead_share",
            1.0 - stats::median(&rates_traced) / stats::median(&rates),
        );
    }
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

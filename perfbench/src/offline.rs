//! `offline_ipums`: the paper's batch path (§5) on the IPUMS-shaped
//! dataset at the size of the paper's extract.
//!
//! Each pass runs `CollectionPlan::build` → `simulate::collect` →
//! `Aggregator::estimate` → `Estimator::response_matrix` (every attribute
//! pair) → `Estimator::answer` over a fixed λ ∈ {2, 3, 4} query set, the
//! set repeated [`ANSWER_ROUNDS`] times as an analyst re-querying a warm
//! estimator would. Every pass uses the same seed, so every pass must
//! reproduce the first pass's counts digest and answer bits.
//!
//! A query's latency is the median of its repeats within a pass: a single
//! answer takes microseconds, so one interrupt would otherwise decide it.
//! With 1,200 distinct queries a pass supports its own p99, and the p99 is
//! an order statistic over many queries, not one query's IPF convergence.

use std::time::{Duration, Instant};

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip::simulate;
use felip_common::rng::derive_seed;
use felip_common::{Dataset, Query};
use felip_datasets::generators::{DatasetKind, GenOptions};
use felip_datasets::workload::{generate_queries, WorkloadOptions};

use crate::common::{peak_rss_mb, Args, Outcome};
use crate::stats;

/// Users: the size of the paper's IPUMS extract.
const USERS: usize = 10_000_000;
/// Queries per query dimension λ.
const QUERIES_PER_LAMBDA: usize = 400;
/// Leading queries per λ whose exact answers the error check uses.
const CHECKED_PER_LAMBDA: usize = 20;
/// Times each pass answers the whole query set.
const ANSWER_ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Passes per run at least, whatever the time budget.
const MIN_PASSES: usize = 4;
/// The largest mean absolute error a pass may show against the exact
/// answers. At n = 10⁷ and ε = 1 FELIP stays an order of magnitude below
/// it; a change that crosses it changed the estimates, not just the speed.
const MAE_LIMIT: f64 = 0.02;

/// The fixed query set: 400 queries each of λ = 2, 3, 4 at selectivity 0.5,
/// in λ order.
fn queries(schema: &felip_common::Schema) -> Result<Vec<Query>, String> {
    let mut all = Vec::new();
    for lambda in 2..=4 {
        let opts = WorkloadOptions {
            lambda,
            count: QUERIES_PER_LAMBDA,
            seed: 0xC0FFEE + lambda as u64,
            ..WorkloadOptions::paper_default()
        };
        all.extend(generate_queries(schema, opts).map_err(|e| format!("queries: {e}"))?);
    }
    Ok(all)
}

/// Exact answers of up to 64 queries, in one pass over the records.
///
/// For each attribute value, a bit set of the queries that accept it
/// (queries without a predicate on the attribute accept every value); a
/// record matches the queries in the AND of its attributes' sets.
fn exact_answers(data: &Dataset, queries: &[Query]) -> Vec<f64> {
    assert!(queries.len() <= 64, "one u64 bit set per value");
    let schema = data.schema();
    let accepts: Vec<Vec<u64>> = (0..schema.len())
        .map(|attr| {
            (0..schema.domain(attr))
                .map(|v| {
                    queries.iter().enumerate().fold(0u64, |set, (i, q)| {
                        let ok = q.predicate_on(attr).is_none_or(|p| p.target.matches(v));
                        set | (u64::from(ok) << i)
                    })
                })
                .collect()
        })
        .collect();
    let mut hits = vec![0u64; queries.len()];
    for row in data.rows() {
        let mut set = row
            .iter()
            .zip(&accepts)
            .fold(u64::MAX, |set, (&v, table)| set & table[v as usize]);
        while set != 0 {
            hits[set.trailing_zeros() as usize] += 1;
            set &= set - 1;
        }
    }
    hits.iter().map(|&h| h as f64 / data.len() as f64).collect()
}

/// One pass's timings and results.
struct Pass {
    total: Duration,
    plan: Duration,
    collect: Duration,
    estimate: Duration,
    response: Duration,
    /// Per query, in query-set order: the median of its repeats.
    answer_times: Vec<Duration>,
    /// Wall time of every answer call.
    answering: Duration,
    digest: u64,
    answers: Vec<u64>,
    estimates: Vec<f64>,
}

fn pass(data: &Dataset, queries: &[Query], seed: u64) -> Result<Pass, String> {
    let schema = data.schema();
    let start = Instant::now();
    let plan = CollectionPlan::build(schema, data.len(), &FelipConfig::new(1.0), seed)
        .map_err(|e| format!("plan: {e}"))?;
    let t_plan = Instant::now();
    let agg = simulate::collect(data, &plan, derive_seed(seed, 1))
        .map_err(|e| format!("collect: {e}"))?;
    let t_collect = Instant::now();
    let est = agg.estimate().map_err(|e| format!("estimate: {e}"))?;
    let t_estimate = Instant::now();
    for i in 0..schema.len() {
        for j in i + 1..schema.len() {
            est.response_matrix(i, j)
                .map_err(|e| format!("response matrix ({i}, {j}): {e}"))?;
        }
    }
    let t_response = Instant::now();
    let mut repeats = vec![Vec::with_capacity(ANSWER_ROUNDS); queries.len()];
    let mut estimates = Vec::with_capacity(queries.len());
    for round in 0..ANSWER_ROUNDS {
        for (q, times) in queries.iter().zip(&mut repeats) {
            let t = Instant::now();
            let a = est.answer(q).map_err(|e| format!("answer: {e}"))?;
            times.push(t.elapsed());
            if round == 0 {
                estimates.push(a);
            }
        }
    }
    let total = start.elapsed();
    let answering = repeats.iter().flatten().sum();
    let answer_times = repeats
        .into_iter()
        .map(|mut times| {
            times.sort_unstable();
            times[times.len() / 2]
        })
        .collect();
    Ok(Pass {
        total,
        plan: t_plan - start,
        collect: t_collect - t_plan,
        estimate: t_estimate - t_collect,
        response: t_response - t_estimate,
        answer_times,
        answering,
        digest: agg.counts_digest(),
        answers: estimates.iter().map(|a| a.to_bits()).collect(),
        estimates,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let opts = GenOptions {
        n: USERS,
        seed: derive_seed(args.seed, 0xDA7A),
        ..GenOptions::paper_default()
    };
    let schema = opts.schema();
    let queries = queries(&schema)?;
    let checked: Vec<Query> = queries
        .chunks(QUERIES_PER_LAMBDA)
        .flat_map(|block| block[..CHECKED_PER_LAMBDA].iter().cloned())
        .collect();
    let checked_estimate = |p: &Pass| -> Vec<f64> {
        p.estimates
            .chunks(QUERIES_PER_LAMBDA)
            .flat_map(|block| block[..CHECKED_PER_LAMBDA].iter().copied())
            .collect()
    };

    // Set-up: generate the records and their exact answers.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let t = Instant::now();
        let data = DatasetKind::IpumsLike.generate(opts);
        let truth = exact_answers(&data, &checked);
        setup_times.push(t.elapsed().as_secs_f64());
        prepared = Some((data, truth));
    }
    let (data, truth) = prepared.ok_or("set-up ran zero times")?;

    let seed = derive_seed(args.seed, 0x0FF);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < args.budget {
        let p = pass(&data, &queries, seed)?;
        if let Some(first) = passes.first() {
            if p.digest != first.digest {
                return Err(format!(
                    "pass {} counts digest {:#x} differs from the first pass's {:#x}",
                    passes.len(),
                    p.digest,
                    first.digest
                ));
            }
            if p.answers != first.answers {
                return Err(format!(
                    "pass {} answer bits differ from the first pass's",
                    passes.len()
                ));
            }
        }
        passes.push(p);
    }
    let first = &passes[0];
    let mae = checked_estimate(first)
        .iter()
        .zip(&truth)
        .map(|(e, t)| (e - t).abs())
        .sum::<f64>()
        / truth.len() as f64;
    if mae.is_nan() || mae > MAE_LIMIT {
        return Err(format!("mean absolute error {mae} exceeds {MAE_LIMIT}"));
    }

    let secs = |f: fn(&Pass) -> Duration| -> Vec<f64> {
        passes.iter().map(|p| f(p).as_secs_f64()).collect()
    };
    let total = secs(|p| p.total);

    let per_pass_ms: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.answer_times
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    let median_pass = stats::median(&total);
    let pass_p50: Vec<f64> = per_pass_ms.iter().map(|p| stats::median(p)).collect();

    let mut out = Outcome::new(passes.len() as u64, 0);
    out.set("setup_s", stats::median(&setup_times));
    out.set("throughput_per_s", USERS as f64 / median_pass);
    out.set("latency_p50_ms", stats::median(&pass_p50));
    out.latency_tails(&per_pass_ms.concat(), "answer latency")?;
    out.samples("answer_latency_per_pass", queries.len());
    out.samples("passes", passes.len());
    out.detail("offline_s_median", median_pass);
    out.detail("offline_mae", mae);
    out.detail("counts_digest", format!("{:#018x}", first.digest));

    // Per layer: medians over passes, answers split by λ.
    let ms = |v: Vec<f64>| stats::median(&v) * 1e3;
    out.set("plan.build_ms", ms(secs(|p| p.plan)));
    out.set(
        "collect.ns_per_user",
        ms(secs(|p| p.collect)) * 1e6 / USERS as f64,
    );
    out.set("estimate.ms", ms(secs(|p| p.estimate)));
    out.set("response.build_ms", ms(secs(|p| p.response)));
    for (lambda, name) in [
        (2, "answer.lambda2_us"),
        (3, "answer.lambda3_us"),
        (4, "answer.lambda4_us"),
    ] {
        let us: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.answer_times
                    .iter()
                    .zip(&queries)
                    .filter(|(_, q)| q.dim() == lambda)
                    .map(|(d, _)| d.as_secs_f64() * 1e6)
            })
            .collect();
        out.set(name, stats::median(&us));
    }
    // The accounting check is per pass: each pass's layers against that
    // pass's wall time; the reported share is the median pass's.
    let shares = passes
        .iter()
        .map(|p| {
            let layers: Vec<f64> = [p.plan, p.collect, p.estimate, p.response, p.answering]
                .iter()
                .map(Duration::as_secs_f64)
                .collect();
            stats::unaccounted_share(p.total.as_secs_f64(), &layers)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    out.set("offline.unaccounted_share", stats::median(&shares));
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_answers_match_the_per_query_scan() {
        let opts = GenOptions {
            n: 20_000,
            ..GenOptions::paper_default()
        };
        let data = DatasetKind::IpumsLike.generate(opts);
        let qs = &queries(data.schema()).unwrap()[..64];
        let fast = exact_answers(&data, qs);
        let slow: Vec<f64> = qs.iter().map(|q| q.true_answer(&data)).collect();
        assert_eq!(fast, slow);
        assert!(fast.iter().any(|&a| a > 0.0));
    }
}

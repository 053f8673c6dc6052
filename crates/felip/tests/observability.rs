//! Integration tests for the pipeline's observability instrumentation:
//! a full [`simulate`] run must emit the expected stage spans, correctly
//! nested and ordered, and recording must never perturb the estimates.
//!
//! All tests here toggle the process-global recorder, so they serialize on
//! one lock (the test binary runs them on concurrent threads otherwise).

use std::sync::{Arc, Mutex};

use felip::simulate::uniform_dataset;
use felip::{respond, simulate, Aggregator, CollectionPlan, FelipConfig, QueryEngine};
use felip_common::rng::seeded_rng;
use felip_common::{Attribute, Predicate, Query, Schema};
use felip_obs::SpanRecord;
use proptest::prelude::*;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the others.
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("x", 64),
        Attribute::numerical("y", 64),
        Attribute::categorical("c", 4),
    ])
    .unwrap()
}

fn find<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no `{name}` span recorded"))
}

fn end_ns(s: &SpanRecord) -> u64 {
    s.start_ns + s.dur_ns
}

#[test]
fn simulate_emits_stage_spans_in_order() {
    let _g = lock();
    felip_obs::global().reset();
    felip_obs::enable();

    let data = uniform_dataset(&schema(), 20_000, 1);
    let est = simulate(&data, &FelipConfig::new(1.0), 7).unwrap();
    // A λ=2 query: exercises the response-matrix path, not just a 1-D read.
    let q = Query::new(
        &schema(),
        vec![Predicate::between(0, 0, 31), Predicate::between(1, 0, 31)],
    )
    .unwrap();
    est.answer(&q).unwrap();
    felip_obs::disable();

    let spans = felip_obs::global().finished_spans();
    for name in [
        "simulate",
        "plan",
        "collect",
        "shard",
        "perturb",
        "ingest",
        "estimate",
        "postprocess",
        "answer",
        "response_matrix",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing `{name}` span; got {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    // Nesting: plan/collect/estimate under simulate; every shard under
    // collect; every perturb/ingest under a shard; postprocess under
    // estimate (same-thread stack nesting).
    let simulate_span = find(&spans, "simulate");
    let plan = find(&spans, "plan");
    let collect = find(&spans, "collect");
    let estimate = find(&spans, "estimate");
    let postprocess = find(&spans, "postprocess");
    assert_eq!(plan.parent, Some(simulate_span.id));
    assert_eq!(collect.parent, Some(simulate_span.id));
    assert_eq!(estimate.parent, Some(simulate_span.id));
    assert_eq!(postprocess.parent, Some(estimate.id));
    let shard_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "shard")
        .map(|s| {
            assert_eq!(s.parent, Some(collect.id), "shard not under collect");
            s.id
        })
        .collect();
    assert_eq!(shard_ids.len(), 2, "20k users / 16384 per shard = 2 shards");
    for s in spans
        .iter()
        .filter(|s| s.name == "perturb" || s.name == "ingest")
    {
        let p = s.parent.expect("perturb/ingest spans have a parent");
        assert!(shard_ids.contains(&p), "`{}` not under a shard", s.name);
    }

    // Ordering: the pipeline stages do not overlap.
    assert!(end_ns(plan) <= collect.start_ns, "plan before collect");
    assert!(
        end_ns(collect) <= estimate.start_ns,
        "collect before estimate"
    );
    let answer = find(&spans, "answer");
    assert!(
        end_ns(estimate) <= answer.start_ns,
        "estimate before answer"
    );
    // Within each shard, perturbation completes before ingestion starts.
    for &sid in &shard_ids {
        let pert = spans
            .iter()
            .find(|s| s.name == "perturb" && s.parent == Some(sid))
            .expect("each shard perturbs");
        let ing = spans
            .iter()
            .find(|s| s.name == "ingest" && s.parent == Some(sid))
            .expect("each shard ingests");
        assert!(end_ns(pert) <= ing.start_ns, "perturb before ingest");
    }
}

#[test]
fn simulate_records_afo_and_ingest_metrics() {
    let _g = lock();
    felip_obs::global().reset();
    felip_obs::enable();
    let data = uniform_dataset(&schema(), 20_000, 2);
    simulate(&data, &FelipConfig::new(1.0), 9).unwrap();
    felip_obs::disable();

    let rec = felip_obs::global();
    let afo_grr = rec
        .metric("fo.afo.chose_grr")
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0);
    let afo_olh = rec
        .metric("fo.afo.chose_olh")
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0);
    let grids = afo_grr + afo_olh;
    assert!(grids > 0, "AFO decisions recorded per grid");
    let ingested = rec
        .metric("felip.ingest.reports")
        .expect("ingest counter registered")
        .value
        .as_u64()
        .expect("counter is integral");
    assert_eq!(ingested, 20_000, "every report counted exactly once");
    // One plan.grid event per grid, each carrying the chosen oracle.
    let events = rec.finished_events();
    let plan_events = events.iter().filter(|e| e.name == "plan.grid").count();
    assert_eq!(plan_events as u64, grids);
}

/// `query.cache.hit` and `query.cache.miss` both count refreshes, so
/// hit / (hit + miss) is a share of refreshes however many grids a missed
/// refresh re-estimates; `query.cache.invalidations` counts grids.
#[test]
fn query_cache_hit_and_miss_count_refreshes() {
    let _g = lock();
    let data = uniform_dataset(&schema(), 2_000, 3);
    let plan =
        Arc::new(CollectionPlan::build(&schema(), data.len(), &FelipConfig::new(1.0), 5).unwrap());
    let mut agg = Aggregator::new(Arc::clone(&plan));
    let mut rng = seeded_rng(4);
    for (user, record) in data.rows().enumerate() {
        agg.ingest(&respond(&plan, user, record, &mut rng).unwrap())
            .unwrap();
    }
    let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
    let grids = plan.num_groups() as u64;
    assert!(grids > 1);

    felip_obs::global().reset();
    felip_obs::enable();
    engine.refresh_from(&agg).unwrap(); // cold: every grid de-biased
    engine.refresh_from(&agg).unwrap(); // warm
    let mut counts = agg.counts().to_vec();
    let mut sizes = agg.group_sizes().to_vec();
    counts[0][0] += 1;
    sizes[0] += 1;
    engine.refresh(&counts, &sizes).unwrap(); // one grid moved
    for (c, s) in counts.iter_mut().zip(&mut sizes) {
        c[0] += 1;
        *s += 1;
    }
    engine.refresh(&counts, &sizes).unwrap(); // every grid moved
    felip_obs::disable();

    let counter = |name: &str| {
        felip_obs::global()
            .metric(name)
            .and_then(|m| m.value.as_u64())
            .unwrap_or(0)
    };
    assert_eq!(counter("query.cache.hit"), 1);
    assert_eq!(counter("query.cache.miss"), 3);
    assert_eq!(counter("query.cache.invalidations"), 1 + grids);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Recording is observation only: enabling the recorder must not change
    /// any estimate bit-for-bit.
    #[test]
    fn enabling_recorder_preserves_estimates(seed in 0u64..256, eps in 0.5f64..3.0) {
        let _g = lock();
        let data = uniform_dataset(&schema(), 5_000, seed ^ 0xD5);
        let cfg = FelipConfig::new(eps);
        let queries: Vec<Query> = vec![
            Query::new(&schema(), vec![Predicate::between(0, 0, 31)]).unwrap(),
            Query::new(
                &schema(),
                vec![Predicate::between(0, 8, 47), Predicate::between(1, 16, 63)],
            )
            .unwrap(),
        ];

        felip_obs::disable();
        let quiet = simulate(&data, &cfg, seed).unwrap();
        felip_obs::global().reset();
        felip_obs::enable();
        let recorded = simulate(&data, &cfg, seed).unwrap();
        felip_obs::disable();

        for q in &queries {
            let a = quiet.answer(q).unwrap();
            let b = recorded.answer(q).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "estimate changed: {} vs {}", a, b);
        }
    }
}

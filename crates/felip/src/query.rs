//! Incremental estimation: serve λ-D frequency queries from streaming
//! counts without re-running the full batch pipeline per query.
//!
//! [`QueryEngine`] caches, per grid, the de-biased frequency vector
//! produced by [`FrequencyOracle::estimate_from_counts`] together with the
//! exact support counts it was computed from. On [`QueryEngine::refresh`]
//! with a new snapshot-consistent count read, only the grids whose counts
//! changed are re-estimated; the post-processing pass (norm-sub +
//! cross-grid consistency, DESIGN.md §17) is then re-run over the full
//! grid set, because consistency couples grids that share an attribute and
//! therefore does *not* commute with per-grid updates — whereas per-grid
//! de-biasing is a pure function of `(counts, group_size)` and does.
//!
//! The headline invariant: the [`Estimator`] produced by a refresh is
//! **bit-identical** to [`Aggregator::estimate`] run offline on the same
//! counts. This holds unconditionally (no hashing, no tolerance): cached
//! grids are keyed by the full count vector compared exactly, so a reused
//! de-biased vector is the very same `f64` sequence a fresh
//! `estimate_from_counts` call on identical inputs would produce, and the
//! global post-processing pass is shared with the batch path verbatim.
//!
//! Each refresh that observes changed counts advances the engine's
//! **epoch** — the cache key exposed on the wire (`QueryReply.epoch`) so
//! clients can reason about answer staleness relative to the ingest head.
//!
//! [`FrequencyOracle::estimate_from_counts`]: felip_fo::FrequencyOracle::estimate_from_counts

use std::sync::Arc;

use felip_common::{Error, Result};
use felip_grid::postprocess::post_process;
use felip_grid::EstimatedGrid;

use crate::aggregator::{Aggregator, OracleSet};
use crate::answer::Estimator;
use crate::plan::CollectionPlan;

/// One grid's cached de-biased estimate, keyed by the exact counts and
/// group size it was computed from.
struct GridCache {
    counts: Vec<u64>,
    size: usize,
    freqs: Vec<f64>,
}

/// What one [`QueryEngine::refresh`] did, plus the estimator to answer
/// queries from.
#[derive(Debug)]
pub struct RefreshOutcome {
    /// The post-processed estimator for the refreshed counts.
    pub estimator: Arc<Estimator>,
    /// Ingest epoch this estimator is keyed by.
    pub epoch: u64,
    /// Total reports behind the estimator (sum of group sizes).
    pub reports: u64,
    /// True when the refresh was a pure cache hit (no grid changed, no
    /// post-processing re-run).
    pub warm: bool,
    /// Grids whose de-biased estimates were recomputed this refresh.
    pub refreshed_grids: usize,
}

/// The incremental estimation engine (DESIGN.md §17).
///
/// Feed it snapshot-consistent count reads via [`refresh`]; it returns a
/// post-processed [`Estimator`] bit-identical to the offline batch path on
/// the same counts, reusing per-grid de-biasing work across refreshes.
///
/// [`refresh`]: QueryEngine::refresh
pub struct QueryEngine {
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    grids: Vec<Option<GridCache>>,
    estimator: Option<Arc<Estimator>>,
    epoch: u64,
    reports: u64,
}

impl QueryEngine {
    /// A cold engine for `plan`: epoch 0, nothing cached.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>) -> Self {
        let groups = plan.num_groups();
        QueryEngine {
            plan,
            oracles,
            grids: (0..groups).map(|_| None).collect(),
            estimator: None,
            epoch: 0,
            reports: 0,
        }
    }

    /// The engine's plan.
    pub fn plan(&self) -> &Arc<CollectionPlan> {
        &self.plan
    }

    /// Current cache epoch: 0 means nothing cached; advances by one on
    /// every refresh that observed changed counts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reports behind the currently cached estimator.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// The cached estimator, if any refresh has completed since the last
    /// [`reset`](QueryEngine::reset).
    pub fn estimator(&self) -> Option<Arc<Estimator>> {
        self.estimator.as_ref().map(Arc::clone)
    }

    /// Drops every cached grid and the cached estimator and rewinds the
    /// epoch to 0. Called after a state restore so a resumed server can
    /// never serve a pre-restore cached grid.
    pub fn reset(&mut self) {
        for slot in &mut self.grids {
            *slot = None;
        }
        self.estimator = None;
        self.epoch = 0;
        self.reports = 0;
    }

    /// Refreshes the engine from a snapshot-consistent count read.
    ///
    /// `counts` and `group_sizes` must have the plan's group shape (one
    /// count vector per grid, sized to the grid's cell count). Grids whose
    /// counts are unchanged since the cached epoch reuse their cached
    /// de-biased estimates; changed grids are re-estimated; the global
    /// post-processing pass re-runs whenever *any* grid changed. A refresh
    /// where nothing changed returns the cached estimator untouched
    /// (`warm == true`).
    pub fn refresh(
        &mut self,
        counts: &[Vec<u64>],
        group_sizes: &[usize],
    ) -> Result<RefreshOutcome> {
        let specs = self.plan.grids();
        if counts.len() != specs.len() || group_sizes.len() != specs.len() {
            return Err(Error::InvalidParameter(format!(
                "count shape {}x / sizes {} does not match plan with {} groups",
                counts.len(),
                group_sizes.len(),
                specs.len()
            )));
        }
        for (g, (spec, c)) in specs.iter().zip(counts).enumerate() {
            if c.len() != spec.num_cells() as usize {
                return Err(Error::InvalidParameter(format!(
                    "group {g} has {} counts, grid expects {}",
                    c.len(),
                    spec.num_cells()
                )));
            }
        }
        let total: u64 = group_sizes.iter().map(|&s| s as u64).sum();
        if total == 0 {
            // Mirror `Aggregator::estimate` exactly: an empty collection
            // has no estimate, warm cache or not.
            return Err(Error::InvalidParameter("no reports ingested".into()));
        }

        // Exact-key comparison: a grid is stale iff its counts or group
        // size differ from what the cache was computed from.
        let mut refreshed = 0usize;
        for (g, (c, &size)) in counts.iter().zip(group_sizes).enumerate() {
            let stale = match &self.grids[g] {
                Some(cache) => cache.size != size || cache.counts != *c,
                None => true,
            };
            if !stale {
                continue;
            }
            if self.grids[g].is_some() {
                felip_obs::counter!("query.cache.invalidations", 1);
            }
            let freqs = self.oracles.get(g).estimate_from_counts(c, size);
            self.grids[g] = Some(GridCache {
                counts: c.clone(),
                size,
                freqs,
            });
            refreshed += 1;
        }

        if refreshed == 0 {
            if let Some(est) = &self.estimator {
                felip_obs::counter!("query.cache.hit", 1);
                return Ok(RefreshOutcome {
                    estimator: Arc::clone(est),
                    epoch: self.epoch,
                    reports: self.reports,
                    warm: true,
                    refreshed_grids: 0,
                });
            }
        }
        // One miss per refresh that re-runs the pipeline, the same unit as
        // `query.cache.hit`, so hit / (hit + miss) is a share of refreshes.
        felip_obs::counter!("query.cache.miss", 1);

        // Post-processing couples grids (cross-grid consistency), so it
        // re-runs over the full set from the cached de-biased vectors —
        // the same inputs the batch path would feed it.
        let mut grids: Vec<EstimatedGrid> = specs
            .iter()
            .zip(&self.grids)
            .map(|(spec, cache)| {
                let cache = cache.as_ref().ok_or_else(|| {
                    Error::InvalidParameter("query engine grid cache unexpectedly empty".into())
                })?;
                Ok(EstimatedGrid::new(spec.clone(), cache.freqs.clone()))
            })
            .collect::<Result<_>>()?;
        let variances = self.plan.cell_variances();
        post_process(
            &mut grids,
            self.plan.schema().len(),
            &variances,
            self.plan.config().postprocess_rounds,
        )?;
        let estimator = Arc::new(Estimator::new(Arc::clone(&self.plan), grids));
        self.estimator = Some(Arc::clone(&estimator));
        self.epoch += 1;
        self.reports = total;
        Ok(RefreshOutcome {
            estimator,
            epoch: self.epoch,
            reports: total,
            warm: false,
            refreshed_grids: refreshed,
        })
    }

    /// Convenience: refresh straight from an aggregator's current state.
    pub fn refresh_from(&mut self, agg: &Aggregator) -> Result<RefreshOutcome> {
        self.refresh(agg.counts(), agg.group_sizes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::respond;
    use crate::config::{FelipConfig, Strategy};
    use felip_common::rng::{derive_seed, seeded_rng};
    use felip_common::{Attribute, Schema};

    fn plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("b", 4),
            Attribute::numerical("c", 16),
        ])
        .unwrap();
        let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
        Arc::new(CollectionPlan::build(&schema, 4_000, &config, 7).unwrap())
    }

    fn reports(plan: &Arc<CollectionPlan>, users: std::ops::Range<usize>, seed: u64) -> Aggregator {
        let mut agg = Aggregator::new(Arc::clone(plan));
        let schema = plan.schema();
        for user in users {
            let mut rng = seeded_rng(derive_seed(seed, user as u64));
            let record: Vec<u32> = (0..schema.len())
                .map(|a| (user as u32).wrapping_mul(a as u32 + 3) % schema.domain(a))
                .collect();
            let report = respond(plan, user, &record, &mut rng).unwrap();
            agg.ingest(&report).unwrap();
        }
        agg
    }

    #[test]
    fn cold_refresh_matches_batch_estimate_bit_identically() {
        let plan = plan();
        let agg = reports(&plan, 0..500, 11);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let out = engine.refresh_from(&agg).unwrap();
        let batch = agg.estimate().unwrap();
        assert!(!out.warm);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.refreshed_grids, plan.num_groups());
        for (inc, off) in out.estimator.grids().iter().zip(batch.grids()) {
            assert_eq!(inc.freqs(), off.freqs(), "grid freqs must be bit-identical");
        }
    }

    #[test]
    fn warm_refresh_is_a_cache_hit_and_same_estimator() {
        let plan = plan();
        let agg = reports(&plan, 0..400, 13);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let first = engine.refresh_from(&agg).unwrap();
        let second = engine.refresh_from(&agg).unwrap();
        assert!(second.warm);
        assert_eq!(second.epoch, first.epoch);
        assert!(Arc::ptr_eq(&first.estimator, &second.estimator));
        let _ = plan;
    }

    #[test]
    fn partial_update_refreshes_only_changed_grids() {
        let plan = plan();
        let agg = reports(&plan, 0..600, 17);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        engine.refresh_from(&agg).unwrap();

        // Mutate one group's counts by hand: only that grid re-estimates,
        // but the whole estimator still matches a batch run on the
        // mutated counts bit-for-bit.
        let mut counts: Vec<Vec<u64>> = agg.counts().to_vec();
        let mut sizes = agg.group_sizes().to_vec();
        counts[0][0] += 3;
        sizes[0] += 3;
        let out = engine.refresh(&counts, &sizes).unwrap();
        assert!(!out.warm);
        assert_eq!(out.refreshed_grids, 1);
        assert_eq!(out.epoch, 2);

        let offline = Aggregator::restore(
            agg.plan_handle(),
            agg.oracles(),
            counts.clone(),
            sizes.clone(),
        )
        .unwrap()
        .estimate()
        .unwrap();
        for (inc, off) in out.estimator.grids().iter().zip(offline.grids()) {
            assert_eq!(inc.freqs(), off.freqs());
        }
        let _ = plan;
    }

    #[test]
    fn empty_counts_are_rejected_like_batch() {
        let plan = plan();
        let agg = Aggregator::new(Arc::clone(&plan));
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let err = engine.refresh_from(&agg).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn reset_rewinds_epoch_and_drops_cache() {
        let plan = plan();
        let agg = reports(&plan, 0..300, 19);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        engine.refresh_from(&agg).unwrap();
        assert_eq!(engine.epoch(), 1);
        engine.reset();
        assert_eq!(engine.epoch(), 0);
        assert!(engine.estimator().is_none());
        // Post-reset refresh is cold again: every grid recomputes.
        let out = engine.refresh_from(&agg).unwrap();
        assert_eq!(out.refreshed_grids, plan.num_groups());
        assert_eq!(out.epoch, 1);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let plan = plan();
        let agg = reports(&plan, 0..100, 23);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let err = engine
            .refresh(&agg.counts()[..1], &agg.group_sizes()[..1])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        let mut bad = agg.counts().to_vec();
        bad[0].push(0);
        let err = engine.refresh(&bad, agg.group_sizes()).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }
}

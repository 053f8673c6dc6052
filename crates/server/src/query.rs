//! Online query serving (DESIGN.md §17): the one service behind the v5
//! `Query` wire verb on both tiers.
//!
//! A [`QueryService`] owns a [`QueryEngine`] guarded by one mutex and a
//! [`CutSource`] — where the tier's consistent cuts come from. Answering a
//! query:
//!
//! 1. Validate the predicates against the plan's schema.
//! 2. Under the engine lock, compare the source's **head token** (a cheap
//!    read that moves whenever the counts may have moved) against the
//!    token the cached epoch was built from. A `Cached`-mode query whose
//!    token matches is served straight from the cached estimator — no
//!    cut, no post-processing.
//! 3. Otherwise take a consistent cut and [`QueryEngine::refresh_from`]
//!    it — re-estimating only the grids whose counts moved — then answer
//!    from the refreshed estimator.
//!
//! The two sources differ only in their token and cut:
//!
//! * ingest tier ([`IngestCut`]): token = resume-base reports + reports
//!   accepted so far (one relaxed load); cut = [`consistent_cut`] (freeze
//!   admission on the dedup lock, wait for queue quiescence, merge base +
//!   shards);
//! * aggregator: token = the cluster state's change version; cut = its
//!   versioned merge, which reads counts and version under one guard.
//!
//! The engine lock is held across cut + refresh + token update, so a
//! query can never pair counts from epoch N with a cached grid from
//! epoch N−1 (the invariant the felip-sync model test explores
//! exhaustively). Replies carry the answer's epoch *and* the head epoch
//! at answer time, so clients can compute staleness as
//! `head_epoch - epoch`. A service is always built cold, so a restarted
//! server or aggregator can never answer from a pre-restore cached grid.

use felip_sync::{Arc, Mutex};

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip_common::Query;

use crate::queue::BoundedQueue;
use crate::server::{consistent_cut, AtomicStats};
use crate::session::SessionCtx;
use crate::wire::{QueryAnswer, QueryMode, QueryRequest, WireError};

/// Where a [`QueryService`] takes its consistent cuts from.
pub trait CutSource {
    /// What each answer lends the source beyond the handles it owns.
    type Live<'a>: Copy;

    /// A cheap token that changes whenever the counts may have changed.
    fn head_token(&self, live: Self::Live<'_>) -> u64;

    /// A consistent merged view of the counts plus the head token it
    /// corresponds to.
    fn cut(&self, live: Self::Live<'_>) -> Result<(Aggregator, u64), felip_common::Error>;
}

/// The engine plus the head token its cached epoch was built from,
/// guarded together so epoch and token can never tear apart.
struct EngineState {
    engine: QueryEngine,
    head_token: u64,
}

/// One incremental estimation engine over a tier's consistent cuts.
pub struct QueryService<S> {
    plan: Arc<CollectionPlan>,
    source: S,
    engine: Mutex<EngineState>,
}

impl<S: CutSource> QueryService<S> {
    /// A cold service answering from `source`'s cuts of `plan`.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>, source: S) -> QueryService<S> {
        let engine = QueryEngine::new(Arc::clone(&plan), oracles);
        QueryService {
            plan,
            source,
            engine: Mutex::new(EngineState {
                engine,
                head_token: 0,
            }),
        }
    }

    /// Answers one query, serving from the cached epoch when it is still
    /// the head and refreshing from a fresh consistent cut otherwise.
    /// Errors (invalid predicates, empty collection) are `Malformed` — the
    /// session answers them with an `Error` frame without closing the
    /// connection.
    pub fn answer(&self, live: S::Live<'_>, req: &QueryRequest) -> Result<QueryAnswer, WireError> {
        let query = Query::new(self.plan.schema(), req.predicates.clone())
            .map_err(|e| WireError::Malformed(format!("invalid query: {e}")))?;

        let mut st = self.engine.lock();
        if req.mode == QueryMode::Cached && st.head_token == self.source.head_token(live) {
            if let Some(est) = st.engine.estimator() {
                let answer = est
                    .answer(&query)
                    .map_err(|e| WireError::Malformed(format!("query failed: {e}")))?;
                let epoch = st.engine.epoch();
                return Ok(QueryAnswer {
                    query_id: req.query_id,
                    answer,
                    epoch,
                    head_epoch: epoch,
                    reports: st.engine.reports(),
                });
            }
        }

        // Stale cache (or Fresh mode): one consistent cut, then an
        // incremental refresh that re-estimates only the changed grids.
        let (merged, token) = self
            .source
            .cut(live)
            .map_err(|e| WireError::Malformed(format!("query failed: {e}")))?;
        let out = st
            .engine
            .refresh_from(&merged)
            .map_err(|e| WireError::Malformed(format!("query failed: {e}")))?;
        st.head_token = token;
        let answer = out
            .estimator
            .answer(&query)
            .map_err(|e| WireError::Malformed(format!("query failed: {e}")))?;
        // The head may have moved on while post-processing ran; surface
        // that as one epoch of staleness so the client can tell.
        let head_epoch = out.epoch + u64::from(self.source.head_token(live) != st.head_token);
        Ok(QueryAnswer {
            query_id: req.query_id,
            answer,
            epoch: out.epoch,
            head_epoch,
            reports: out.reports,
        })
    }
}

/// The ingest tier's cut source: handles to a serve run's live count
/// state (resume base + worker shards + their queues).
pub(crate) struct IngestCut {
    pub(crate) plan: Arc<CollectionPlan>,
    pub(crate) oracles: Arc<OracleSet>,
    pub(crate) base: Arc<Mutex<Aggregator>>,
    pub(crate) shards: Arc<Vec<Mutex<Aggregator>>>,
    pub(crate) queues: Vec<Arc<BoundedQueue<Vec<UserReport>>>>,
    /// Reports already inside the resume base at startup; accepted-report
    /// counters start at zero, so the head token is `base + accepted`.
    pub(crate) base_reports: u64,
}

impl CutSource for IngestCut {
    type Live<'a> = (&'a SessionCtx, &'a AtomicStats);

    fn head_token(&self, (_, stats): Self::Live<'_>) -> u64 {
        self.base_reports + stats.reports_accepted()
    }

    fn cut(&self, (ctx, _): Self::Live<'_>) -> Result<(Aggregator, u64), felip_common::Error> {
        let (merged, _cursors) = consistent_cut(
            ctx,
            &self.plan,
            &self.oracles,
            &self.base,
            &self.shards,
            &self.queues,
        )?;
        // At the cut instant, accepted == drained, so the merged report
        // count *is* the head token the refreshed epoch corresponds to.
        let token = merged.reports_ingested() as u64;
        Ok((merged, token))
    }
}

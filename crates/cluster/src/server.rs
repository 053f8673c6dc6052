//! The aggregator-tier server: applies ingest nodes' epoch-numbered
//! deltas to the shared [`ClusterState`], answers `STAT` with process-wide
//! telemetry and `Query` from the merged view, and periodically persists
//! both the FCLU per-node container and a plain merged FSNP snapshot.
//!
//! Connections run on the same engine as the ingest tier
//! ([`felip_server::serve`]): the epoll reactor on Linux/x86_64, the
//! portable thread-per-connection loop elsewhere, with the same deadline
//! sweeps, error replies and flight-recorder coverage. The aggregator
//! plugs in as a [`FrameHandler`] whose per-connection protocol state is a
//! transport-agnostic [`ClusterSession`]. Its reactor thread is not
//! pinned: core placement is an ingest-tier policy.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use felip_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use felip_sync::{thread, Arc};

use felip::aggregator::{Aggregator, OracleSet};
use felip::plan::CollectionPlan;
use felip_server::serve::{serve, serve_portable, Closed, Deadlines, FrameHandler, Stage};
use felip_server::stat::stat_reply;
use felip_server::wire::{
    decode_delta, decode_hello, decode_query, encode_ack, encode_delta_ack, encode_query_reply,
    DeltaStatus, Frame, FrameKind, FrameView, WireError,
};
use felip_server::{CutSource, FrameOutcome, QueryService};

use crate::state::ClusterState;

/// How an aggregator run is wired together.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Listen address (`:0` picks a free port).
    pub addr: String,
    /// Where to persist the merged FSNP snapshot; `None` disables it.
    pub snapshot_path: Option<PathBuf>,
    /// Where to persist the FCLU per-node container; `None` disables it.
    pub state_path: Option<PathBuf>,
    /// FCLU container to restore per-node states (and epochs) from.
    pub resume: Option<PathBuf>,
    /// Cadence of periodic persists (requires a path to write).
    pub persist_every: Duration,
    /// Deadline for finishing a frame once its first byte arrived.
    pub read_timeout: Duration,
    /// Deadline for writing a reply frame.
    pub write_timeout: Duration,
    /// Idle-connection reap window. Generous by default: an ingest node
    /// only speaks once per cut interval.
    pub idle_timeout: Duration,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            state_path: None,
            resume: None,
            persist_every: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Counters for a completed aggregator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Node connections accepted.
    pub connections: u64,
    /// Deltas applied (incremental + full).
    pub deltas_applied: u64,
    /// Duplicate deltas re-acked.
    pub deltas_duplicate: u64,
    /// Incremental gaps answered with resync-required.
    pub deltas_resync: u64,
    /// Frames rejected with an error reply.
    pub frames_rejected: u64,
}

#[derive(Default)]
struct AtomicAggStats {
    connections: AtomicU64,
    deltas_applied: AtomicU64,
    deltas_duplicate: AtomicU64,
    deltas_resync: AtomicU64,
    frames_rejected: AtomicU64,
}

impl AtomicAggStats {
    fn snapshot(&self) -> AggregatorStats {
        AggregatorStats {
            connections: self.connections.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            deltas_duplicate: self.deltas_duplicate.load(Ordering::Relaxed),
            deltas_resync: self.deltas_resync.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
        }
    }
}

/// The result of a completed (gracefully shut down) aggregator run.
pub struct AggregatorRun {
    /// The cluster-wide merged aggregator.
    pub merged: Aggregator,
    /// `(node_id, epoch, reports)` rows at shutdown.
    pub nodes: Vec<(u64, u64, u64)>,
    /// Run totals.
    pub stats: AggregatorStats,
}

/// Errors starting or running the aggregator.
#[derive(Debug)]
pub enum AggregatorError {
    /// Socket/filesystem failure.
    Io(io::Error),
    /// FCLU/FSNP state could not be read, validated, or restored.
    State(WireError),
}

impl std::fmt::Display for AggregatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregatorError::Io(e) => write!(f, "io error: {e}"),
            AggregatorError::State(e) => write!(f, "state error: {e}"),
        }
    }
}

impl std::error::Error for AggregatorError {}

impl From<io::Error> for AggregatorError {
    fn from(e: io::Error) -> Self {
        AggregatorError::Io(e)
    }
}

impl From<WireError> for AggregatorError {
    fn from(e: WireError) -> Self {
        AggregatorError::State(e)
    }
}

/// The aggregator's cut source: the cluster state's change version (bumped
/// under the nodes lock on every applied delta) is the head token, and its
/// versioned merge — counts and version read under one guard — is the
/// consistent cut.
struct ClusterCut(Arc<ClusterState>);

impl CutSource for ClusterCut {
    type Live<'a> = ();

    fn head_token(&self, (): ()) -> u64 {
        self.0.change_version()
    }

    fn cut(&self, (): ()) -> Result<(Aggregator, u64), felip_common::Error> {
        self.0.merged_versioned()
    }
}

/// A bound (listening, not yet serving) aggregator.
pub struct AggregatorServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ClusterState>,
    query: QueryService<ClusterCut>,
    config: AggregatorConfig,
    shutdown: Arc<AtomicBool>,
}

impl AggregatorServer {
    /// Binds the listen socket, restoring per-node state when configured.
    pub fn bind(
        plan: Arc<CollectionPlan>,
        config: AggregatorConfig,
    ) -> Result<AggregatorServer, AggregatorError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let oracles = Arc::new(OracleSet::build(&plan));
        let state = Arc::new(match &config.resume {
            Some(path) => {
                let restored = ClusterState::read(path, Arc::clone(&plan), Arc::clone(&oracles))?;
                felip_obs::counter!("cluster.state.restored", 1, "containers");
                restored
            }
            None => ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles)),
        });
        // The query engine is always built cold here — even (especially)
        // on the resume path, so a restarted aggregator can never answer
        // from a grid cached before the restore.
        let query = QueryService::new(plan, oracles, ClusterCut(Arc::clone(&state)));
        Ok(AggregatorServer {
            listener,
            local_addr,
            state,
            query,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the run when set.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared cluster state (tests peek at it mid-run).
    pub fn state(&self) -> Arc<ClusterState> {
        Arc::clone(&self.state)
    }

    /// Serves until the shutdown flag (or `external_shutdown`) is set,
    /// then persists the final state and returns the merged result.
    pub fn run(
        self,
        external_shutdown: Option<&AtomicBool>,
    ) -> Result<AggregatorRun, AggregatorError> {
        self.run_on(external_shutdown, false)
    }

    /// [`AggregatorServer::run`] on the platform's connection loop, or on
    /// the portable one when `portable` is set (tests drive the portable
    /// loop through this on every platform).
    pub(crate) fn run_on(
        self,
        external_shutdown: Option<&AtomicBool>,
        portable: bool,
    ) -> Result<AggregatorRun, AggregatorError> {
        let mut run_span = felip_obs::span!("cluster.run");
        let stop_persist = AtomicBool::new(false);
        let should_stop = || {
            self.shutdown.load(Ordering::SeqCst)
                || external_shutdown.is_some_and(|f| f.load(Ordering::SeqCst))
        };
        let handler = Aggregation {
            state: Arc::clone(&self.state),
            query: self.query,
            stats: AtomicAggStats::default(),
            connected: AtomicU64::new(0),
        };
        let deadlines = Deadlines {
            read: self.config.read_timeout,
            write: self.config.write_timeout,
            idle: self.config.idle_timeout,
        };

        thread::scope(|scope| -> Result<(), AggregatorError> {
            // Periodic persist: FCLU container + merged FSNP snapshot.
            if self.config.state_path.is_some() || self.config.snapshot_path.is_some() {
                let state = Arc::clone(&self.state);
                let state_path = self.config.state_path.clone();
                let snapshot_path = self.config.snapshot_path.clone();
                let every = self.config.persist_every;
                let stop = &stop_persist;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(25));
                        if last.elapsed() < every {
                            continue;
                        }
                        last = Instant::now();
                        if let Err(e) =
                            persist(&state, state_path.as_deref(), snapshot_path.as_deref())
                        {
                            felip_obs::diag::warn(&format!("cluster persist failed: {e}"));
                        }
                    }
                });
            }

            let served = if portable {
                serve_portable(&self.listener, &handler, &deadlines, &should_stop)
            } else {
                serve(&self.listener, &handler, &deadlines, &should_stop)
            };
            stop_persist.store(true, Ordering::SeqCst);
            served.map_err(AggregatorError::Io)
        })?;

        // Final persist after every connection drained.
        persist(
            &self.state,
            self.config.state_path.as_deref(),
            self.config.snapshot_path.as_deref(),
        )?;
        let merged = self
            .state
            .merged()
            .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?;
        run_span.field("reports", merged.reports_ingested());
        Ok(AggregatorRun {
            nodes: self.state.node_rows(),
            merged,
            stats: handler.stats.snapshot(),
        })
    }
}

/// Writes the FCLU container and/or the merged FSNP snapshot.
fn persist(
    state: &ClusterState,
    state_path: Option<&std::path::Path>,
    snapshot_path: Option<&std::path::Path>,
) -> Result<(), AggregatorError> {
    if let Some(path) = state_path {
        state.write_atomic(path)?;
        felip_obs::counter!("cluster.state.persisted", 1, "containers");
    }
    if let Some(path) = snapshot_path {
        state
            .capture_merged()
            .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?
            .write_verified(path, None)
            .map_err(AggregatorError::State)?;
    }
    Ok(())
}

/// The aggregator tier as the connection engine sees it: everything a
/// node connection's session shares with the rest of the run.
struct Aggregation {
    state: Arc<ClusterState>,
    query: QueryService<ClusterCut>,
    stats: AtomicAggStats,
    /// Node connections currently open.
    connected: AtomicU64,
}

impl Aggregation {
    /// Counts a rejected frame and decides to close after the error reply.
    fn reject_outcome(&self, e: WireError) -> FrameOutcome {
        FrameOutcome {
            reply: self.reject(&e),
            accepted: None,
            close: Some(e),
        }
    }

    /// A reply that keeps the connection open.
    fn reply(&self, kind: FrameKind, payload: Vec<u8>) -> FrameOutcome {
        FrameOutcome {
            reply: Frame {
                kind,
                plan_hash: self.state.plan_hash(),
                payload,
            },
            accepted: None,
            close: None,
        }
    }
}

impl FrameHandler for Aggregation {
    type Session = ClusterSession;
    const PIN_LOOP: bool = false;
    const CLOSE_LOG: &'static str = "cluster connection closed";

    fn open(&self) -> ClusterSession {
        felip_obs::counter!("cluster.accept", 1, "connections");
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        let open = self
            .connected
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        felip_obs::gauge!("cluster.node.connected", open as usize, "nodes");
        ClusterSession::default()
    }

    fn on_frame(&self, session: &mut ClusterSession, frame: FrameView<'_>) -> FrameOutcome {
        session.on_frame(frame, self)
    }

    fn peer_id(session: &ClusterSession) -> u64 {
        session.node_id.unwrap_or(0)
    }

    fn reject(&self, e: &WireError) -> Frame {
        self.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
        Frame::error(self.state.plan_hash(), &e.to_string())
    }

    /// Delta traffic is low-rate (one frame per node per cut interval)
    /// and the `server.stage.*` histograms describe the ingest hot path,
    /// so the aggregator records no stage latencies.
    fn stage(&self, _stage: Stage, _ns: u64) {}

    fn on_close(&self, _session: ClusterSession, closed: &Closed) {
        if matches!(closed, Closed::Reaped) {
            felip_obs::counter!("cluster.conn.reaped", 1, "connections");
        }
        let open = self
            .connected
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        felip_obs::gauge!("cluster.node.connected", open as usize, "nodes");
    }
}

/// One node connection's protocol state: Hello resyncs the epoch cursor,
/// Delta applies under the cluster lock, Stat answers before the plan
/// check like the ingest tier's admin plane, and Query — which needs no
/// handshake, a read-only client may connect just to ask — answers from
/// the merged cluster view. Transport-agnostic, like the ingest tier's
/// session: it sees decoded frames and returns a [`FrameOutcome`].
#[derive(Debug, Default)]
pub(crate) struct ClusterSession {
    /// The node id from the `Hello` handshake; deltas need one.
    node_id: Option<u64>,
}

impl ClusterSession {
    fn on_frame(&mut self, frame: FrameView<'_>, agg: &Aggregation) -> FrameOutcome {
        // STAT first: plan-agnostic, handshake-agnostic.
        if frame.kind == FrameKind::Stat {
            return match stat_reply(frame.payload, agg.state.plan_hash()) {
                Ok(reply) => {
                    felip_obs::counter!("cluster.frame.stat", 1, "frames");
                    FrameOutcome {
                        reply,
                        accepted: None,
                        close: None,
                    }
                }
                Err(e) => agg.reject_outcome(e),
            };
        }
        let plan_hash = agg.state.plan_hash();
        if frame.plan_hash != plan_hash {
            return agg.reject_outcome(WireError::PlanMismatch {
                ours: plan_hash,
                theirs: frame.plan_hash,
            });
        }
        match frame.kind {
            FrameKind::Hello => match decode_hello(frame.payload) {
                Ok(node_id) => {
                    self.node_id = Some(node_id);
                    let last = agg.state.last_epoch(node_id);
                    agg.reply(FrameKind::Ack, encode_ack(last, 0))
                }
                Err(e) => agg.reject_outcome(e),
            },
            FrameKind::Delta => {
                if self.node_id.is_none() {
                    return agg.reject_outcome(WireError::Malformed(
                        "delta before hello handshake".into(),
                    ));
                }
                let delta = match decode_delta(frame.payload) {
                    Ok(d) => d,
                    Err(e) => return agg.reject_outcome(e),
                };
                // `apply` takes and releases the cluster lock internally,
                // so no reply is ever written while it is held.
                let t0 = Instant::now();
                let result = match agg.state.apply(&delta) {
                    Ok(r) => r,
                    Err(e) => return agg.reject_outcome(e),
                };
                felip_obs::hist!("cluster.delta.apply", t0.elapsed().as_micros() as u64, "us");
                let counter = match result.status {
                    DeltaStatus::Applied => &agg.stats.deltas_applied,
                    DeltaStatus::Duplicate => &agg.stats.deltas_duplicate,
                    DeltaStatus::ResyncRequired => &agg.stats.deltas_resync,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                agg.reply(
                    FrameKind::DeltaAck,
                    encode_delta_ack(delta.epoch, result.last_applied, result.status),
                )
            }
            FrameKind::Query => {
                let req = match decode_query(frame.payload) {
                    Ok(r) => r,
                    Err(e) => return agg.reject_outcome(e),
                };
                match agg.query.answer((), &req) {
                    Ok(ans) => {
                        felip_obs::counter!("cluster.query.answered", 1, "queries");
                        agg.reply(FrameKind::QueryReply, encode_query_reply(&ans))
                    }
                    Err(e) => {
                        // Unanswerable (bad predicates, no reports yet):
                        // answer an Error frame but keep the connection —
                        // the client may retry.
                        felip_obs::counter!("cluster.query.errors", 1, "queries");
                        FrameOutcome {
                            reply: Frame::error(plan_hash, &e.to_string()),
                            accepted: None,
                            close: None,
                        }
                    }
                }
            }
            other => agg.reject_outcome(WireError::Malformed(format!("node sent {other:?} frame"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip::config::FelipConfig;
    use felip_common::Predicate;
    use felip_common::{Attribute, Schema};
    use felip_server::wire::{
        decode_stat, encode_delta, encode_hello as hello_payload, encode_query, encode_stat,
        CountDelta, DeltaFlavor, QueryMode, QueryRequest, StatMode,
    };
    use proptest::prelude::*;

    fn tiny_plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap())
    }

    #[test]
    fn aggregator_answers_hello_delta_and_shutdown() {
        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server = AggregatorServer::bind(
            Arc::clone(&plan),
            AggregatorConfig {
                idle_timeout: Duration::from_secs(5),
                ..AggregatorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let state = server.state();

        let agg = felip_server::loadgen::offline_reference(&plan, 0..15, 5).unwrap();
        let delta = CountDelta {
            node_id: 42,
            epoch: 1,
            flavor: DeltaFlavor::Full,
            total: agg.reports_ingested() as u64,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
        };

        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Hello,
                    plan_hash,
                    payload: hello_payload(42),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::Ack);
            assert_eq!(
                felip_server::wire::decode_ack(&reply.payload).unwrap(),
                (0, 0)
            );

            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&delta).unwrap(),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::DeltaAck);
            let (epoch, last, status) =
                felip_server::wire::decode_delta_ack(&reply.payload).unwrap();
            assert_eq!((epoch, last), (1, 1));
            assert_eq!(status, felip_server::wire::DeltaStatus::Applied);

            assert_eq!(state.last_epoch(42), 1);
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            let run = handle.join().unwrap();
            assert_eq!(run.merged.counts(), agg.counts());
            assert_eq!(run.stats.deltas_applied, 1);
        });
    }

    #[test]
    fn queries_answer_from_merged_view_bit_identically() {
        use felip_common::Predicate;
        use felip_server::wire::{decode_query_reply, encode_query, QueryMode, QueryRequest};

        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();

        let preds = vec![
            Predicate::between(0, 4, 20),
            Predicate::in_set(1, vec![1, 2]),
        ];
        let query = felip_common::Query::new(plan.schema(), preds.clone()).unwrap();

        let ask = |conn: &mut std::net::TcpStream, id: u64, mode: QueryMode| {
            felip_server::wire::write_frame(
                conn,
                &Frame {
                    kind: FrameKind::Query,
                    plan_hash,
                    payload: encode_query(&QueryRequest {
                        query_id: id,
                        mode,
                        predicates: preds.clone(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(conn).unwrap().unwrap()
        };

        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();

            // No deltas applied yet: the query answers an Error frame but
            // the connection stays usable.
            let reply = ask(&mut conn, 1, QueryMode::Cached);
            assert_eq!(reply.kind, FrameKind::Error);

            // Apply node 7's cumulative state (no hello needed for
            // queries, but deltas require one).
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Hello,
                    plan_hash,
                    payload: hello_payload(7),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            let agg = felip_server::loadgen::offline_reference(&plan, 0..15, 5).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&CountDelta {
                        node_id: 7,
                        epoch: 1,
                        flavor: DeltaFlavor::Full,
                        total: agg.reports_ingested() as u64,
                        counts: agg.counts().to_vec(),
                        group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();

            // Cold query: epoch 1, bit-identical to the offline batch
            // estimate on the same counts.
            let offline = agg.estimate().unwrap().answer(&query).unwrap();
            let reply = ask(&mut conn, 2, QueryMode::Cached);
            assert_eq!(reply.kind, FrameKind::QueryReply);
            let ans = decode_query_reply(&reply.payload).unwrap();
            assert_eq!(ans.query_id, 2);
            assert_eq!(ans.epoch, 1);
            assert_eq!(ans.head_epoch, 1);
            assert_eq!(ans.reports, 15);
            assert_eq!(ans.answer.to_bits(), offline.to_bits());

            // Warm query: same epoch, same bits, no re-estimation.
            let warm = decode_query_reply(&ask(&mut conn, 3, QueryMode::Cached).payload).unwrap();
            assert_eq!(warm.epoch, 1);
            assert_eq!(warm.answer.to_bits(), offline.to_bits());

            // Fresh mode with unchanged counts still does not invent a new
            // epoch: the engine sees identical grids.
            let fresh = decode_query_reply(&ask(&mut conn, 4, QueryMode::Fresh).payload).unwrap();
            assert_eq!(fresh.epoch, 1);
            assert_eq!(fresh.answer.to_bits(), offline.to_bits());

            // A second node's delta invalidates the cache: epoch 2,
            // bit-identical to the two-node merged offline estimate.
            let agg2 = felip_server::loadgen::offline_reference(&plan, 15..30, 5).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&CountDelta {
                        node_id: 8,
                        epoch: 1,
                        flavor: DeltaFlavor::Full,
                        total: agg2.reports_ingested() as u64,
                        counts: agg2.counts().to_vec(),
                        group_sizes: agg2.group_sizes().iter().map(|&s| s as u64).collect(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            let merged = felip_server::loadgen::offline_reference(&plan, 0..30, 5).unwrap();
            let offline2 = merged.estimate().unwrap().answer(&query).unwrap();
            let ans2 = decode_query_reply(&ask(&mut conn, 5, QueryMode::Cached).payload).unwrap();
            assert_eq!(ans2.epoch, 2);
            assert_eq!(ans2.reports, 30);
            assert_eq!(ans2.answer.to_bits(), offline2.to_bits());

            drop(conn);
            stop.store(true, Ordering::SeqCst);
            handle.join().unwrap();
        });
    }

    #[test]
    fn delta_before_hello_is_rejected() {
        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let delta = CountDelta {
                node_id: 1,
                epoch: 1,
                flavor: DeltaFlavor::Full,
                total: 0,
                counts: tiny_plan()
                    .grids()
                    .iter()
                    .map(|g| vec![0; g.num_cells() as usize])
                    .collect(),
                group_sizes: vec![0; tiny_plan().num_groups()],
            };
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&delta).unwrap(),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::Error);
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            let run = handle.join().unwrap();
            assert_eq!(run.stats.frames_rejected, 1);
            assert_eq!(run.merged.reports_ingested(), 0);
        });
    }

    /// Node 7's full cumulative state over users `0..15`.
    fn node_delta(plan: &Arc<CollectionPlan>) -> CountDelta {
        let agg = felip_server::loadgen::offline_reference(plan, 0..15, 5).unwrap();
        CountDelta {
            node_id: 7,
            epoch: 1,
            flavor: DeltaFlavor::Full,
            total: agg.reports_ingested() as u64,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
        }
    }

    fn probe_query(id: u64) -> QueryRequest {
        QueryRequest {
            query_id: id,
            mode: QueryMode::Cached,
            predicates: vec![
                Predicate::between(0, 4, 20),
                Predicate::in_set(1, vec![1, 2]),
            ],
        }
    }

    /// Hello, Delta and Query through one aggregator on the chosen loop;
    /// returns every reply frame.
    fn hello_delta_query(portable: bool) -> Vec<Frame> {
        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let requests = [
            (FrameKind::Hello, hello_payload(7)),
            (FrameKind::Delta, encode_delta(&node_delta(&plan)).unwrap()),
            (FrameKind::Query, encode_query(&probe_query(1)).unwrap()),
        ];
        thread::scope(|s| {
            let handle = s.spawn(|| server.run_on(None, portable).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let replies = requests
                .into_iter()
                .map(|(kind, payload)| {
                    let frame = Frame {
                        kind,
                        plan_hash,
                        payload,
                    };
                    felip_server::wire::write_frame(&mut conn, &frame).unwrap();
                    felip_server::wire::read_frame(&mut conn).unwrap().unwrap()
                })
                .collect();
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            let run = handle.join().unwrap();
            assert_eq!(run.stats.deltas_applied, 1);
            replies
        })
    }

    /// The portable loop compiles and serves the aggregator on every
    /// platform, and a Hello/Delta/Query round trip through it is
    /// byte-identical to the same round trip through the platform loop.
    #[test]
    fn portable_loop_matches_platform_loop() {
        let portable = hello_delta_query(true);
        assert_eq!(
            portable.iter().map(|f| f.kind).collect::<Vec<_>>(),
            [FrameKind::Ack, FrameKind::DeltaAck, FrameKind::QueryReply]
        );
        assert_eq!(portable, hello_delta_query(false));
    }

    /// Every frame kind, in discriminant order.
    const KINDS: [FrameKind; 11] = [
        FrameKind::Hello,
        FrameKind::ReportBatch,
        FrameKind::Ack,
        FrameKind::Retry,
        FrameKind::Error,
        FrameKind::Stat,
        FrameKind::StatReply,
        FrameKind::Delta,
        FrameKind::DeltaAck,
        FrameKind::Query,
        FrameKind::QueryReply,
    ];

    proptest! {
        /// Garbage in a CRC-valid frame of every kind, fed straight to the
        /// aggregator's handler with no socket: a kind nodes may not send,
        /// or a payload its kind's decoder rejects, is answered with a
        /// typed `Error` frame that closes the connection — never a panic
        /// — and no malformed delta reaches the merged state.
        #[test]
        fn crc_valid_garbage_gets_typed_error_replies(
            kind in 0usize..11,
            op in 0u8..5,
            pos in 0usize..64,
            byte in 1u8..=255,
            junk in proptest::collection::vec(0u8..=255u8, 0..48),
            handshake in 0u8..2,
        ) {
            let plan = tiny_plan();
            let plan_hash = plan.schema_hash();
            let oracles = Arc::new(OracleSet::build(&plan));
            let state = Arc::new(ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles)));
            let handler = Aggregation {
                query: QueryService::new(Arc::clone(&plan), oracles, ClusterCut(Arc::clone(&state))),
                state,
                stats: AtomicAggStats::default(),
                connected: AtomicU64::new(0),
            };

            let kind = KINDS[kind];
            let mut payload = match kind {
                FrameKind::Hello => hello_payload(7),
                FrameKind::Delta => encode_delta(&node_delta(&plan)).unwrap(),
                FrameKind::Query => encode_query(&probe_query(1)).unwrap(),
                FrameKind::Stat => encode_stat(StatMode::Full),
                _ => b"not a payload".to_vec(),
            };
            // Keep, truncate, flip one byte, extend, or replace.
            match op {
                1 => payload.truncate(pos % (payload.len() + 1)),
                2 if !payload.is_empty() => {
                    let at = pos % payload.len();
                    payload[at] ^= byte;
                }
                3 => payload.extend_from_slice(&junk),
                4 => payload = junk,
                _ => {}
            }
            let bytes = Frame { kind, plan_hash, payload }.encode();
            let (view, used) = FrameView::decode_prefix(&bytes).unwrap().unwrap();
            prop_assert_eq!(used, bytes.len());
            let well_formed = match kind {
                FrameKind::Hello => decode_hello(view.payload).is_ok(),
                FrameKind::Delta => decode_delta(view.payload).is_ok(),
                FrameKind::Stat => decode_stat(view.payload).is_ok(),
                FrameKind::Query => decode_query(view.payload).is_ok(),
                _ => false,
            };

            let mut session = handler.open();
            if handshake == 1 {
                let hello = Frame { kind: FrameKind::Hello, plan_hash, payload: hello_payload(7) };
                prop_assert!(handler.on_frame(&mut session, hello.view()).close.is_none());
            }
            let out = handler.on_frame(&mut session, view);
            prop_assert_eq!(out.reply.plan_hash, plan_hash);
            if !well_formed {
                prop_assert_eq!(out.reply.kind, FrameKind::Error);
                prop_assert!(out.close.is_some());
            }
            if out.reply.kind == FrameKind::Error {
                prop_assert!(!out.reply.payload.is_empty());
            }
            // Whatever was applied is plan-consistent: the merge succeeds.
            prop_assert!(handler.state.merged().is_ok());
            handler.on_close(session, &Closed::Clean);
        }
    }
}

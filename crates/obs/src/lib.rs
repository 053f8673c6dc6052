//! `felip-obs` — hand-rolled structured observability for the FELIP stack.
//!
//! Three primitives, all behind one [`Recorder`]:
//!
//! * **Spans** — RAII wall-clock timers ([`Recorder::span`], the [`span!`]
//!   macro) that nest via a thread-local stack and support explicit
//!   cross-thread parenting ([`Recorder::span_child`]) for work fanned out
//!   over rayon shards.
//! * **Metrics** — typed counters, gauges and histograms. Counters are
//!   sharded over cache-padded atomic cells and touched with one relaxed
//!   `fetch_add` on the hot path; registration (the only locking step)
//!   happens once per call site and is cached in a static [`CallsiteId`].
//! * **Export** — a JSON-lines trace ([`Recorder::export_jsonl`]) written
//!   with the crate's own serializer (no external dependencies, consistent
//!   with the workspace's vendored-shim policy) plus an in-process summary
//!   table ([`Recorder::summary_table`]) for humans.
//!
//! The recorder is **disabled by default**: every recording entry point is
//! gated on one relaxed atomic load, so an un-enabled binary pays a few
//! cycles per instrumentation site. Compiling with the `noop` feature
//! removes even that: all entry points become empty inline functions and
//! the guards are zero-sized, so instrumented code is bit-identical to
//! un-instrumented code.
//!
//! Most call sites use the process-global recorder through the macros:
//!
//! ```
//! felip_obs::enable();
//! {
//!     let _outer = felip_obs::span!("collect");
//!     felip_obs::counter!("reports.ingested", 128, "reports");
//!     let _inner = felip_obs::span!("ingest");
//! } // guards close the spans in reverse order
//! let mut out = Vec::new();
//! felip_obs::global().export_jsonl(&mut out).unwrap();
//! felip_obs::disable();
//! ```

#![forbid(unsafe_code)]

mod metrics;
mod snapshot;
mod span;
mod summary;

pub mod diag;
pub mod flight;
pub mod json;
pub mod jsonread;

pub use metrics::{CallsiteId, HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue, Value};
pub use snapshot::{render_metrics_table, MetricsSnapshot, METRICS_SNAPSHOT_VERSION};
pub use span::{EventRecord, SpanGuard, SpanRecord, SpanTotal};
pub use summary::{summarize_jsonl, StageTotal, TraceSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `true` when the crate was compiled with the `noop` feature: every
/// recording entry point constant-folds to nothing.
pub const COMPILED_OUT: bool = cfg!(feature = "noop");

/// The observability recorder: metric storage, span/event logs, and the
/// enabled switch. One process-global instance serves the macros; tests
/// construct private instances to stay isolated.
pub struct Recorder {
    enabled: AtomicBool,
    /// Epoch all span/event timestamps are relative to.
    epoch: Instant,
    pub(crate) metrics: metrics::MetricStore,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    pub(crate) events: Mutex<Vec<EventRecord>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, disabled recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            metrics: metrics::MetricStore::new(),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Off is the default; every recording call
    /// on a disabled recorder is one relaxed load and a branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether the recorder currently records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !COMPILED_OUT && self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clears recorded spans, events and metric *values* (metric
    /// registrations survive — call-site caches stay valid).
    pub fn reset(&self) {
        self.spans.lock().expect("span log poisoned").clear();
        self.events.lock().expect("event log poisoned").clear();
        self.metrics.reset_values();
        span::reset_thread_stack();
    }

    /// Completed spans, in completion order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Recorded point events, in recording order.
    pub fn finished_events(&self) -> Vec<EventRecord> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// A merged snapshot of every registered metric.
    pub fn metric_snapshots(&self) -> Vec<MetricSnapshot> {
        self.metrics.snapshots()
    }

    /// The snapshot of one metric by name, if registered.
    pub fn metric(&self, name: &str) -> Option<MetricSnapshot> {
        self.metric_snapshots().into_iter().find(|m| m.name == name)
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder the macros target.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enables the process-global recorder.
pub fn enable() {
    global().set_enabled(true);
}

/// Disables the process-global recorder.
pub fn disable() {
    global().set_enabled(false);
}

/// Opens a span on the global recorder. Expands through a static
/// [`CallsiteId`]-free path (spans are not hot enough to need one).
///
/// Bind the result — `let _span = span!("stage");` — so the guard lives to
/// the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
}

/// Adds to a named counter on the global recorder. The metric id is
/// resolved once per call site and cached in a static, so the steady-state
/// cost is one relaxed load, one shard pick and one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::counter!($name, $n, "")
    };
    ($name:expr, $n:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Counter, $unit);
        $crate::global().counter_add(&__CS, $n as u64);
    }};
}

/// Stores the latest value of a named gauge (last write wins).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Gauge, $unit);
        $crate::global().gauge_set(&__CS, $v as u64);
    }};
}

/// Stores the latest value of a named floating-point gauge.
#[macro_export]
macro_rules! gauge_f64 {
    ($name:expr, $v:expr) => {
        $crate::gauge_f64!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::GaugeF64, $unit);
        $crate::global().gauge_set(&__CS, f64::to_bits($v as f64));
    }};
}

/// Records one observation into a named histogram (power-of-two buckets;
/// tracks count/sum/min/max and serves percentile estimates).
#[macro_export]
macro_rules! hist {
    ($name:expr, $v:expr) => {
        $crate::hist!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Histogram, $unit);
        $crate::global().hist_record(&__CS, $v as u64);
    }};
}

/// Records a point event with fields on the global recorder.
///
/// Events are for low-frequency, high-cardinality facts (one per grid, not
/// one per report): each call allocates its field list.
pub fn event(name: &'static str, fields: &[(&'static str, Value)]) {
    global().event(name, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_starts_disabled() {
        // Do not enable here: other tests share the process global; the
        // lookup just must not panic (it may or may not find metrics other
        // tests recorded).
        let _ = global().metric("no.such.metric");
        assert!(!Recorder::new().is_enabled());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        {
            let _s = rec.span("quiet");
            rec.event("e", &[]);
        }
        assert!(rec.finished_spans().is_empty());
        assert!(rec.finished_events().is_empty());
    }

    #[test]
    #[cfg(feature = "noop")]
    fn noop_build_ignores_enable() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        assert!(!rec.is_enabled());
        drop(rec.span("s"));
        rec.event("e", &[]);
        assert!(rec.finished_spans().is_empty());
        assert!(rec.finished_events().is_empty());
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn reset_clears_logs_but_keeps_registrations() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("reset.counter", MetricKind::Counter, "");
        rec.counter_add(&CS, 3);
        drop(rec.span("s"));
        rec.reset();
        assert!(rec.finished_spans().is_empty());
        let m = rec.metric("reset.counter").expect("still registered");
        assert_eq!(m.value, MetricValue::Counter(0));
    }
}

//! Server-side payload builders for the `Stat` admin verb (DESIGN.md §11).
//!
//! A `Stat` frame asks the server for one of three live views:
//!
//! * **Full** — a [`felip_obs::MetricsSnapshot`] of every registered
//!   metric since process start, serialized as one JSON document.
//! * **Delta** — the change since the previous `Delta` request (the first
//!   delta request returns the full snapshot and arms the baseline). The
//!   baseline is process-global: concurrent delta pollers share one
//!   cursor, which matches the intended single-operator use.
//! * **Flight** — a JSONL dump of the in-memory flight-recorder ring
//!   (the last ~1k protocol events), for on-demand postmortems without
//!   killing the process.
//!
//! Payloads are built outside any connection lock: snapshot capture never
//! blocks recording threads (see `felip-obs`'s sharded metric cells), so a
//! `STAT` poll mid-loadgen costs the server only the serialization.

use felip_obs::MetricsSnapshot;
use felip_sync::Mutex;

use crate::wire::{decode_stat, Frame, FrameKind, StatMode, WireError};

/// Baseline for `StatMode::Delta`: the snapshot taken by the previous
/// delta request, or `None` before the first one.
static LAST_DELTA: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);

/// Answers one `Stat` request payload: the `StatReply` frame (stamped
/// with `plan_hash`), or the decode error to reject it with. Both tiers'
/// sessions answer STAT through this, before their plan check; the
/// metrics registry and flight recorder are process-global either way.
pub fn stat_reply(payload: &[u8], plan_hash: u64) -> Result<Frame, WireError> {
    Ok(Frame {
        kind: FrameKind::StatReply,
        plan_hash,
        payload: stat_payload(decode_stat(payload)?),
    })
}

/// Builds the `StatReply` payload for one decoded [`StatMode`].
fn stat_payload(mode: StatMode) -> Vec<u8> {
    match mode {
        StatMode::Full => felip_obs::global()
            .metrics_snapshot()
            .to_json()
            .into_bytes(),
        StatMode::Delta => {
            let cur = felip_obs::global().metrics_snapshot();
            let mut last = LAST_DELTA.lock();
            let json = match last.as_ref() {
                Some(prev) => cur.delta_since(prev).to_json(),
                None => cur.to_json(),
            };
            *last = Some(cur);
            json.into_bytes()
        }
        StatMode::Flight => {
            let mut buf = Vec::new();
            // Writing into a Vec cannot fail; a best-effort empty dump is
            // still a valid (header-only) reply.
            let _ = felip_obs::flight::flight().dump_jsonl(&mut buf, "stat");
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_payload_is_a_metrics_document() {
        let payload = stat_payload(StatMode::Full);
        let text = String::from_utf8(payload).expect("utf8 json");
        let doc = felip_obs::jsonread::parse(&text).expect("valid json");
        assert_eq!(
            doc.get("t").and_then(|v| v.as_str()),
            Some("metrics"),
            "payload must be a metrics document"
        );
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("full"));
    }

    #[test]
    fn second_delta_request_is_marked_delta() {
        // First call arms the baseline (kind may be full), second must be
        // a delta document.
        let _ = stat_payload(StatMode::Delta);
        let payload = stat_payload(StatMode::Delta);
        let text = String::from_utf8(payload).expect("utf8 json");
        let doc = felip_obs::jsonread::parse(&text).expect("valid json");
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("delta"));
    }

    #[test]
    fn flight_payload_starts_with_dump_header() {
        let payload = stat_payload(StatMode::Flight);
        let text = String::from_utf8(payload).expect("utf8 jsonl");
        let first = text.lines().next().expect("at least the header line");
        let doc = felip_obs::jsonread::parse(first).expect("valid json");
        assert_eq!(doc.get("t").and_then(|v| v.as_str()), Some("flight"));
        assert_eq!(doc.get("reason").and_then(|v| v.as_str()), Some("stat"));
    }
}

//! Property tests for the wire format and snapshot durability: arbitrary
//! batches round-trip exactly; corrupted or truncated bytes are always
//! rejected with a typed error, never a panic; and snapshot save → load →
//! estimate is bit-identical.

use std::sync::Arc;

use proptest::prelude::*;

use felip::client::UserReport;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Schema};
use felip_fo::Report;
use felip_server::loadgen::offline_reference;
use felip_server::wire::{
    decode_ack, decode_delta, decode_hello, decode_query, decode_query_reply, decode_reports,
    decode_stat, encode_reports,
};
use felip_server::{Frame, FrameKind, Snapshot};

/// One arbitrary report from the raw ingredients: tag choice, scalar
/// payloads, and an OUE word vector.
fn build_report(tag: u8, value: u32, seed: u64, words: Vec<u64>) -> Report {
    match tag % 3 {
        0 => Report::Grr(value),
        1 => Report::Olh { seed, value },
        _ => Report::Oue(words),
    }
}

proptest! {
    /// Encode → decode over arbitrary batches is the identity.
    #[test]
    fn report_batches_round_trip(
        raw in proptest::collection::vec(
            (0u8..3, 0u32..u32::MAX, 0u64..u64::MAX, 0usize..4000,
             proptest::collection::vec(0u64..u64::MAX, 0..20)),
            0..40,
        ),
    ) {
        let reports: Vec<UserReport> = raw
            .into_iter()
            .map(|(tag, value, seed, group, words)| UserReport {
                group,
                report: build_report(tag, value, seed, words),
            })
            .collect();
        let payload = encode_reports(&reports).unwrap();
        prop_assert_eq!(decode_reports(&payload).unwrap(), reports);
    }

    /// Full frames survive encode → decode, and every truncation of the
    /// byte stream is rejected without panicking.
    #[test]
    fn frames_round_trip_and_reject_truncation(
        plan_hash in 0u64..u64::MAX,
        kind in 0u8..5,
        payload in proptest::collection::vec(0u8..=255u8, 0..300),
        cut in 1usize..50,
    ) {
        let kind = match kind {
            0 => FrameKind::Hello,
            1 => FrameKind::ReportBatch,
            2 => FrameKind::Ack,
            3 => FrameKind::Retry,
            _ => FrameKind::Error,
        };
        let frame = Frame { kind, plan_hash, payload };
        let bytes = frame.encode();
        prop_assert_eq!(Frame::decode(&bytes).unwrap(), frame);

        let cut = cut.min(bytes.len());
        prop_assert!(Frame::decode(&bytes[..bytes.len() - cut]).is_err());
    }

    /// Any single bit flip anywhere in a frame is rejected (the CRC-32
    /// guarantee), never panicking and never yielding a frame.
    #[test]
    fn frames_reject_any_bit_flip(
        plan_hash in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255u8, 0..120),
        byte_pos in 0usize..1000,
        bit in 0u8..8,
    ) {
        let frame = Frame { kind: FrameKind::ReportBatch, plan_hash, payload };
        let mut bytes = frame.encode();
        let pos = byte_pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(Frame::decode(&bytes).is_err(), "flip at {} accepted", pos);
    }

    /// Arbitrary garbage never makes a decoder panic — every payload
    /// decoder either returns declared data or a typed error.
    #[test]
    fn garbage_payloads_never_panic(
        payload in proptest::collection::vec(0u8..=255u8, 0..200),
    ) {
        // Any outcome is fine; the property is "no panic, no huge alloc".
        let _ = decode_reports(&payload);
        let _ = Frame::decode(&payload);
        let _ = Snapshot::decode(&payload);
        let _ = decode_delta(&payload);
        let _ = decode_query(&payload);
        let _ = decode_query_reply(&payload);
        let _ = decode_hello(&payload);
        let _ = decode_ack(&payload);
        let _ = decode_stat(&payload);
    }

    /// Snapshot save → load → restore → estimate is bit-identical to the
    /// aggregator that never went through disk.
    #[test]
    fn snapshot_estimate_bit_identical(users in 1usize..300, seed in 0u64..1000) {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 3),
        ]).unwrap();
        let plan = Arc::new(
            CollectionPlan::build(&schema, 1_000, &FelipConfig::new(1.0), 3).unwrap(),
        );
        let original = offline_reference(&plan, 0..users, seed).unwrap();
        let snap = Snapshot::capture(&original, plan.schema_hash());
        let reloaded = Snapshot::decode(&snap.encode()).unwrap();
        let restored = reloaded
            .restore(Arc::clone(&plan), original.oracles())
            .unwrap();
        prop_assert_eq!(restored.counts(), original.counts());
        let a = restored.estimate().unwrap();
        let b = original.estimate().unwrap();
        for (ga, gb) in a.grids().iter().zip(b.grids()) {
            prop_assert_eq!(ga.freqs(), gb.freqs());
        }
    }
}

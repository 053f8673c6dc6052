//! `ClusterState::decode` against corruption that passes the CRC.
//!
//! A flipped or truncated byte is caught by the FCLU checksum, so the
//! structural checks behind it are only reached by input whose CRC was
//! recomputed after the damage. This property mutates a valid container
//! (truncation at any offset, an inflated `num_nodes` or `snap_len`, a
//! repeated node, trailing bytes), re-seals the CRC, and requires a typed
//! `WireError` — never a panic, and never an allocation sized by the
//! length fields the damage inflated.
//!
//! The binary holds this one test: the allocator below records the largest
//! single request process-wide, which only isolates the decode under test
//! while no other test runs alongside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use felip::aggregator::OracleSet;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_cluster::ClusterState;
use felip_common::{Attribute, Schema};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{crc32, CountDelta, DeltaFlavor};

/// Forwards to the system allocator, recording the largest request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only reads `layout.size()`.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: same contract as `System::alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, to which it forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// A valid three-node container and the state it was encoded from.
fn container() -> (Vec<u8>, Arc<CollectionPlan>, Arc<OracleSet>) {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .unwrap();
    let plan = Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap());
    let oracles = Arc::new(OracleSet::build(&plan));
    let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
    for node in 1..=3u64 {
        let lo = (node as usize - 1) * 10;
        let agg = offline_reference(&plan, lo..lo + 10, 11).unwrap();
        state
            .apply(&CountDelta {
                node_id: node,
                epoch: 1,
                flavor: DeltaFlavor::Full,
                total: agg.reports_ingested() as u64,
                counts: agg.counts().to_vec(),
                group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
            })
            .unwrap();
    }
    (state.encode(), plan, oracles)
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Byte ranges of each node record (`node_id | epoch | snap_len | FSNP`)
/// in a container body.
fn node_spans(body: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = 20;
    (0..le_u32(body, 16))
        .map(|_| {
            let end = pos + 20 + le_u32(body, pos + 16) as usize;
            let span = pos..end;
            pos = end;
            span
        })
        .collect()
}

/// Decodes `body` re-sealed with a fresh CRC; returns whether it was
/// rejected and the largest single allocation the decode made.
fn decode_resealed(
    body: &[u8],
    plan: &Arc<CollectionPlan>,
    oracles: &Arc<OracleSet>,
) -> (bool, usize) {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    let rejected = ClusterState::decode(&bytes, Arc::clone(plan), Arc::clone(oracles)).is_err();
    (rejected, LARGEST.load(Ordering::Relaxed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn crc_valid_corruption_gets_a_typed_error(
        kind in 0u8..5,
        at in any::<u64>(),
        amount in any::<u32>(),
        in_header in any::<bool>(),
    ) {
        let (bytes, plan, oracles) = container();
        let body = &bytes[..bytes.len() - 4];
        let spans = node_spans(body);
        let (accepted_valid, baseline) = {
            let (rejected, largest) = decode_resealed(body, &plan, &oracles);
            (!rejected, largest)
        };
        prop_assert!(accepted_valid);

        let mut bad = body.to_vec();
        let node = spans[at as usize % spans.len()].clone();
        match kind {
            // Truncate anywhere short of the full body, half the time
            // inside the fixed-size header fields.
            0 => {
                let span = if in_header { 44 } else { body.len() };
                bad.truncate(at as usize % span);
            }
            // Claim more nodes than the container holds.
            1 => {
                let n = le_u32(body, 16);
                let inflated = n + 1 + amount % (u32::MAX - n);
                bad[16..20].copy_from_slice(&inflated.to_le_bytes());
            }
            // Claim a longer embedded snapshot than the node carries.
            2 => {
                let len = le_u32(body, node.start + 16);
                let inflated = len + 1 + amount % (u32::MAX - len);
                bad[node.start + 16..node.start + 20].copy_from_slice(&inflated.to_le_bytes());
            }
            // Repeat a node record and count it.
            3 => {
                let copy = body[node.clone()].to_vec();
                bad.splice(node.end..node.end, copy);
                let n = le_u32(body, 16) + 1;
                bad[16..20].copy_from_slice(&n.to_le_bytes());
            }
            // Append trailing bytes.
            _ => bad.extend((0..1 + amount % 64).map(|i| (i as u8).wrapping_mul(37))),
        }
        let (rejected, largest) = decode_resealed(&bad, &plan, &oracles);
        prop_assert!(rejected, "mutation {} accepted", kind);
        prop_assert!(
            largest <= baseline.max(bad.len()),
            "mutation {} allocated {} bytes at once (valid decode: {})",
            kind,
            largest,
            baseline
        );
    }
}

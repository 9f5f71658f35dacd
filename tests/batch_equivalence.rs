//! The batched measurement path equals the per-event protocol.
//!
//! [`CombinedPredictor::resolve`] is the oracle: one event at a time, a
//! hinted branch takes its hint (shifting its outcome into the history under
//! [`ShiftPolicy::Shift`]) and every other branch runs the dynamic
//! predictor's `predict_update`. The simulator instead resolves whole chunks
//! through [`CombinedPredictor::resolve_batch`], which compacts or splits a
//! hinted chunk into batch calls. For every predictor kind and both shift
//! policies, with hint sets drawn as arbitrary subsets of the stream's
//! branch sites (including none and all of them), arbitrary chunk sizes and
//! arbitrary warm-up boundaries, the batched path must reproduce the oracle's
//! every resolution, its statistics and its collision count.

use proptest::prelude::*;
use sdbp::core::MeasurePass;
use sdbp::prelude::*;

/// Distinct branch sites per stream: few enough that hinted and dynamic
/// events interleave densely and the small tables alias.
const SITES: u64 = 48;

fn site_pc(site: u64) -> BranchAddr {
    BranchAddr(0x12_0000 + site * 4)
}

fn arb_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    proptest::collection::vec((0..SITES, any::<bool>(), 0u32..20), 1..600).prop_map(|v| {
        v.into_iter()
            .map(|(site, taken, gap)| BranchEvent::new(site_pc(site), taken, gap))
            .collect()
    })
}

/// A hint database over the stream's sites: none of them (`mode` 0), all
/// of them (`mode` 1), or the subset picked by `mask`; each hint's
/// direction is the matching bit of `directions`.
fn hint_set(events: &[BranchEvent], mode: u8, mask: u64, directions: u64) -> HintDatabase {
    events
        .iter()
        .map(|e| (e.pc.0 - site_pc(0).0) / 4)
        .filter(|&site| match mode {
            0 => false,
            1 => true,
            _ => mask >> site & 1 == 1,
        })
        .map(|site| (site_pc(site), directions >> site & 1 == 1))
        .collect()
}

/// The per-event reference: every resolution in order, and the statistics
/// of the events past the warm-up budget (the straddle rule of
/// `Simulator::with_warmup`).
fn oracle(
    events: &[BranchEvent],
    combined: &mut CombinedPredictor,
    warmup: u64,
) -> (Vec<BranchResolution>, Vec<BranchResolution>, SimStats) {
    let mut all = Vec::new();
    let mut measured = Vec::new();
    let mut stats = SimStats::default();
    let mut seen = 0;
    for event in events {
        let r = combined.resolve(event);
        all.push(r);
        seen += event.instructions();
        if seen <= warmup {
            continue;
        }
        measured.push(r);
        let correct = r.predicted_taken == event.taken;
        stats.instructions += event.instructions();
        stats.branches += 1;
        stats.mispredictions += u64::from(!correct);
        stats.static_predicted += u64::from(r.was_static);
        stats.static_mispredictions += u64::from(r.was_static && !correct);
        stats.collisions.record_if(r.collision, correct);
    }
    (all, measured, stats)
}

proptest! {
    #[test]
    fn batched_resolution_equals_per_event_oracle(
        events in arb_events(),
        hint_mode in 0u8..4,
        mask in any::<u64>(),
        directions in any::<u64>(),
        size_shift in 5u32..11,
        chunk in 1usize..70,
        warmup_events in 0usize..40,
    ) {
        let hints = hint_set(&events, hint_mode, mask, directions);
        // A warm-up boundary on an arbitrary event, possibly past the end.
        let warmup: u64 = events
            .iter()
            .take(warmup_events)
            .map(|e| e.instructions())
            .sum();
        for kind in PredictorKind::ALL {
            let config = PredictorConfig::new(kind, 1 << size_shift).expect("valid size");
            for policy in [ShiftPolicy::NoShift, ShiftPolicy::Shift] {
                let fresh = || CombinedPredictor::new(config.build_any(), hints.clone(), policy);
                let mut reference = fresh();
                let (all, measured, stats) = oracle(&events, &mut reference, warmup);

                // `resolve_batch` itself, chunk by chunk, warm-up included.
                let mut batched = fresh();
                let mut resolutions = Vec::new();
                for piece in events.chunks(chunk) {
                    batched.resolve_batch(piece, &mut resolutions);
                }
                prop_assert_eq!(&resolutions, &all, "{} {} resolve_batch", kind, policy);
                prop_assert_eq!(batched.total_collisions(), reference.total_collisions());

                // The measurement pass at an arbitrary chunk size.
                let mut combined = fresh();
                let mut seen = Vec::new();
                let mut pass = MeasurePass::with_observer(&mut combined, |_, r| seen.push(*r))
                    .with_warmup(warmup);
                PassRunner::new()
                    .with_chunk(chunk)
                    .run(SliceSource::new(&events), &mut [&mut pass]);
                let pass_stats = pass.into_stats();
                prop_assert_eq!(&seen, &measured, "{} {} MeasurePass", kind, policy);
                prop_assert_eq!(pass_stats, stats);
                prop_assert_eq!(combined.total_collisions(), reference.total_collisions());

                // The simulator, which resolves in its own full-size batches.
                let mut combined = fresh();
                let mut seen = Vec::new();
                let sim_stats = Simulator::new().with_warmup(warmup).run_with_observer(
                    SliceSource::new(&events),
                    &mut combined,
                    |_, r| seen.push(*r),
                );
                prop_assert_eq!(&seen, &measured, "{} {} Simulator", kind, policy);
                prop_assert_eq!(sim_stats, stats);
                prop_assert_eq!(combined.total_collisions(), reference.total_collisions());
            }
        }
    }
}

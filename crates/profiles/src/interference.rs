//! Static destructive-interference ranking.
//!
//! The paper's central quantity — destructive interference between branches
//! sharing a table entry — is normally measured by simulation. This module
//! *predicts* it from a bias profile alone: it evaluates the predictor's
//! index function (exposed through
//! [`DynamicPredictor::probe_indices`]) over every profiled branch under a
//! sample of global histories, accumulates per-entry taken/not-taken mass,
//! and scores each branch by how much opposing mass it shares entries
//! with. The ranking correlates with the simulator's measured
//! destructive-collision counts (a pinned test cross-checks this).
//!
//! Two consumers share this one implementation: `sdbp check --aliasing`
//! renders the ranking as SDBP040 diagnostics, and the `Static_Collide`
//! selection scheme ([`SelectionScheme::Collide`]) turns it into static
//! hints — the paper's §5 future-work idea of selecting by *interference*
//! rather than by bias or accuracy, closed into a real scheme.
//!
//! For *linear* predictors — those emitting a symbolic
//! [`DynamicPredictor::index_spec`] — the sampling is bypassed entirely:
//! `sdbp_index_analysis::exact_interference` computes the same ranking in
//! closed form from the index function's GF(2) coset structure, bitwise
//! identical on exhaustively enumerable histories (a pinned test) and
//! exact (rather than 256-sample approximate) beyond them.
//!
//! [`SelectionScheme::Collide`]: crate::SelectionScheme::Collide

use crate::bias::BiasProfile;
use sdbp_index_analysis::exact_interference;
use sdbp_predictors::{DynamicPredictor, PredictorConfig};
use sdbp_trace::BranchAddr;
use std::collections::HashMap;

/// Tuning knobs for [`rank_interference`].
#[derive(Debug, Clone, Copy)]
pub struct InterferenceOptions {
    /// Histories are enumerated exhaustively up to `2^exhaustive_bits`;
    /// longer histories are sampled.
    pub exhaustive_bits: u32,
    /// Number of sampled history values for long histories.
    pub history_samples: usize,
}

impl Default for InterferenceOptions {
    fn default() -> Self {
        Self {
            exhaustive_bits: 10,
            history_samples: 256,
        }
    }
}

/// One branch's predicted interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceHotspot {
    /// The branch.
    pub pc: BranchAddr,
    /// Predicted destructive-interference mass (executions expected to meet
    /// an entry trained the opposite way by *other* branches).
    pub score: f64,
    /// Profiled execution count.
    pub executed: u64,
}

/// The analyzer's output: branches ranked by predicted destruction.
#[derive(Debug, Clone)]
pub struct InterferenceRanking {
    /// Branches ranked by descending predicted destructive interference
    /// (ties broken by address). Zero-score branches are omitted.
    pub hotspots: Vec<InterferenceHotspot>,
    /// Sum of all hotspot scores.
    pub total_score: f64,
    /// Distinct `(bank, entry)` cells touched.
    pub cells_touched: usize,
    /// Profiled branches analyzed.
    pub branches: usize,
}

impl InterferenceRanking {
    /// The predicted destructive score of one branch; `0.0` when the branch
    /// scored zero (or was never profiled).
    pub fn score_of(&self, pc: BranchAddr) -> f64 {
        self.hotspots
            .iter()
            .find(|h| h.pc == pc)
            .map_or(0.0, |h| h.score)
    }
}

/// `splitmix64`, the standard 64-bit mix — deterministic history sampling
/// without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic history sample the analyzer evaluates each branch
/// under: exhaustive enumeration up to `options.exhaustive_bits`, a fixed
/// splitmix64 sample (sorted, deduplicated) beyond it.
pub fn history_samples(bits: u32, options: &InterferenceOptions) -> Vec<u64> {
    if bits == 0 {
        return vec![0];
    }
    if bits <= options.exhaustive_bits {
        return (0..(1u64 << bits)).collect();
    }
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut state = 0x5db9_d00d_2000_u64; // fixed seed: analysis is deterministic
    let mut samples: Vec<u64> = (0..options.history_samples)
        .map(|_| splitmix64(&mut state) & mask)
        .collect();
    samples.sort_unstable();
    samples.dedup();
    samples
}

/// Statically ranks destructive interference of `config` on the branches in
/// `profile`.
///
/// Returns `None` when the scheme does not expose its index function
/// ([`DynamicPredictor::probe_indices`] returns `false`).
///
/// The model: every profiled branch deposits its per-history share of
/// taken/not-taken mass into each `(bank, entry)` cell its index function
/// can reach; a branch's destructive score is its mass in a cell times the
/// fraction of that cell's mass trained the opposite way by *other*
/// branches. Self-interference (a mixed branch fighting itself) is
/// excluded — that is mispredictability, not aliasing.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{PredictorConfig, PredictorKind};
/// use sdbp_profiles::{rank_interference, BiasProfile, InterferenceOptions};
/// use sdbp_trace::{BranchAddr, SiteStats};
///
/// // Two opposing branches sharing one entry of a 256-entry bimodal table.
/// let mut profile = BiasProfile::new();
/// profile.insert(BranchAddr(0x1000), SiteStats { executed: 100, taken: 100 });
/// profile.insert(BranchAddr(0x1000 + 256 * 4), SiteStats { executed: 100, taken: 0 });
/// let config = PredictorConfig::new(PredictorKind::Bimodal, 64).unwrap();
/// let ranking = rank_interference(&profile, config, &InterferenceOptions::default()).unwrap();
/// assert_eq!(ranking.hotspots.len(), 2);
/// ```
pub fn rank_interference(
    profile: &BiasProfile,
    config: PredictorConfig,
    options: &InterferenceOptions,
) -> Option<InterferenceRanking> {
    let predictor = config.build();
    // Deterministic order: HashMap iteration must not leak into float sums.
    let mut branches: Vec<(BranchAddr, u64, u64)> = profile
        .iter()
        .filter(|(_, stats)| stats.executed > 0)
        .map(|(pc, stats)| (pc, stats.executed, stats.taken))
        .collect();
    branches.sort_unstable_by_key(|(pc, _, _)| *pc);
    if branches.is_empty() {
        return Some(InterferenceRanking {
            hotspots: Vec::new(),
            total_score: 0.0,
            cells_touched: 0,
            branches: 0,
        });
    }

    // Exact fast path: linear predictors prove the ranking from the index
    // function's coset structure — no history enumeration, no probing.
    // Bitwise identical to the sampled path on exhaustive histories (the
    // `exact_path_is_bitwise_identical_to_sampling` test); exact where
    // sampling would approximate beyond them.
    if let Some(spec) = predictor.index_spec() {
        let exact = exact_interference(&branches, &spec, options.exhaustive_bits);
        return Some(InterferenceRanking {
            hotspots: exact
                .hotspots
                .into_iter()
                .map(|h| InterferenceHotspot {
                    pc: h.pc,
                    score: h.score,
                    executed: h.executed,
                })
                .collect(),
            total_score: exact.total_score,
            cells_touched: exact.cells_touched,
            branches: exact.branches,
        });
    }

    rank_sampled(&*predictor, &branches, options)
}

/// The sampling fallback for non-linear (but probeable) predictors:
/// evaluates `probe_indices` over the deterministic history sample.
fn rank_sampled(
    predictor: &dyn DynamicPredictor,
    branches: &[(BranchAddr, u64, u64)],
    options: &InterferenceOptions,
) -> Option<InterferenceRanking> {
    let mut scratch = Vec::new();
    // Probe support check on the first branch.
    scratch.clear();
    if !predictor.probe_indices(branches[0].0, 0, &mut scratch) {
        return None;
    }
    let histories = history_samples(DynamicPredictor::history_bits(predictor), options);
    let per_history = 1.0 / histories.len() as f64;

    // Pass 1: accumulate (taken, not-taken) mass per cell.
    let mut cells: HashMap<(u32, u64), [f64; 2]> = HashMap::new();
    for &(pc, executed, taken) in branches {
        let taken_mass = taken as f64 * per_history;
        let nt_mass = (executed - taken) as f64 * per_history;
        for &history in &histories {
            scratch.clear();
            predictor.probe_indices(pc, history, &mut scratch);
            for &(bank, index) in &scratch {
                let cell = cells.entry((bank, index)).or_default();
                cell[0] += taken_mass;
                cell[1] += nt_mass;
            }
        }
    }

    // Pass 2: per-branch destructive mass against the other branches.
    let mut hotspots = Vec::with_capacity(branches.len());
    let mut total_score = 0.0;
    for &(pc, executed, taken) in branches {
        let own = [
            taken as f64 * per_history,
            (executed - taken) as f64 * per_history,
        ];
        let mut score = 0.0;
        for &history in &histories {
            scratch.clear();
            predictor.probe_indices(pc, history, &mut scratch);
            for &(bank, index) in &scratch {
                let cell = cells[&(bank, index)];
                let total = cell[0] + cell[1];
                if total <= 0.0 {
                    continue;
                }
                for dir in 0..2 {
                    let opposing = (cell[1 - dir] - own[1 - dir]).max(0.0);
                    score += own[dir] * opposing / total;
                }
            }
        }
        if score > 0.0 {
            total_score += score;
            hotspots.push(InterferenceHotspot {
                pc,
                score,
                executed,
            });
        }
    }
    hotspots.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });
    Some(InterferenceRanking {
        hotspots,
        total_score,
        cells_touched: cells.len(),
        branches: branches.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;
    use sdbp_trace::SiteStats;

    fn profile_of(sites: &[(u64, u64, u64)]) -> BiasProfile {
        let mut profile = BiasProfile::new();
        for &(pc, executed, taken) in sites {
            profile.insert(BranchAddr(pc), SiteStats { executed, taken });
        }
        profile
    }

    fn config(kind: PredictorKind, size: usize) -> PredictorConfig {
        PredictorConfig::new(kind, size).unwrap()
    }

    #[test]
    fn history_sampling_enumerates_short_and_samples_long() {
        let options = InterferenceOptions::default();
        assert_eq!(history_samples(0, &options), vec![0]);
        assert_eq!(history_samples(3, &options).len(), 8);
        let long = history_samples(20, &options);
        assert!(long.len() > 200 && long.len() <= 256, "{}", long.len());
        assert!(long.iter().all(|h| *h < (1 << 20)));
    }

    #[test]
    fn transparency_classification() {
        for (kind, transparent) in [
            (PredictorKind::Bimodal, true),
            (PredictorKind::Gshare, true),
            (PredictorKind::Gselect, true),
            (PredictorKind::EGskew, true),
            (PredictorKind::Perceptron, true),
            (PredictorKind::TageLite, true),
            (PredictorKind::BiMode, false),
            (PredictorKind::TwoBcGskew, false),
            (PredictorKind::Agree, false),
            (PredictorKind::Local, false),
        ] {
            assert_eq!(
                config(kind, 4096).index_capability().is_analyzable(),
                transparent,
                "{kind}"
            );
        }
    }

    #[test]
    fn score_of_reads_the_ranking() {
        let stride = 256u64 * 4;
        let profile = profile_of(&[(0x1000, 1000, 1000), (0x1000 + stride, 1000, 0)]);
        let ranking = rank_interference(
            &profile,
            config(PredictorKind::Bimodal, 64),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert!((ranking.score_of(BranchAddr(0x1000)) - 500.0).abs() < 1e-6);
        assert_eq!(ranking.score_of(BranchAddr(0x9999)), 0.0);
    }

    #[test]
    fn exact_path_is_bitwise_identical_to_sampling() {
        // Every linear predictor with an exhaustively enumerable history
        // (history_bits ≤ exhaustive_bits) must produce the *same floats*
        // through the exact GF(2) path as through live probing — not
        // approximately equal: bit for bit.
        let profile = profile_of(&[
            (0x1000, 1000, 1000),
            (0x1000 + 256 * 4, 1000, 0), // congruent with the first (64B tables)
            (0x1000 + 64 * 4, 750, 400), // mixed bias, nearby
            (0x2004, 333, 100),
            (0x2004 + 1024 * 4, 512, 512), // congruent at 256-entry tables
            (0x9e3c, 1, 1),
        ]);
        let options = InterferenceOptions::default();
        for (kind, size) in [
            (PredictorKind::Bimodal, 64),
            (PredictorKind::Ghist, 64),
            (PredictorKind::Gshare, 64),
            (PredictorKind::Gselect, 256),
            (PredictorKind::EGskew, 256),
        ] {
            let cfg = config(kind, size);
            let predictor = cfg.build();
            assert!(
                DynamicPredictor::history_bits(&*predictor) <= options.exhaustive_bits,
                "{kind}: test requires exhaustive enumeration"
            );
            let mut branches: Vec<(BranchAddr, u64, u64)> = profile
                .iter()
                .map(|(pc, stats)| (pc, stats.executed, stats.taken))
                .collect();
            branches.sort_unstable_by_key(|(pc, _, _)| *pc);
            let exact = rank_interference(&profile, cfg, &options).unwrap();
            let sampled = rank_sampled(&*predictor, &branches, &options).unwrap();
            assert!(!exact.hotspots.is_empty(), "{kind}: profile must interfere");
            assert_eq!(exact.hotspots, sampled.hotspots, "{kind}");
            assert_eq!(
                exact.total_score.to_bits(),
                sampled.total_score.to_bits(),
                "{kind}: total {} vs {}",
                exact.total_score,
                sampled.total_score
            );
            assert_eq!(exact.cells_touched, sampled.cells_touched, "{kind}");
            assert_eq!(exact.branches, sampled.branches, "{kind}");
        }
    }

    #[test]
    fn frontier_predictors_are_analyzable() {
        // The perceptron (history-free index) and TAGE-lite (four banks)
        // both expose their index functions; opposing congruent branches
        // must score in each.
        let profile = profile_of(&[(0x1000, 1000, 1000), (0x1000 + (1 << 20), 1000, 0)]);
        for kind in [PredictorKind::Perceptron, PredictorKind::TageLite] {
            let ranking =
                rank_interference(&profile, config(kind, 256), &InterferenceOptions::default())
                    .unwrap();
            assert_eq!(ranking.branches, 2, "{kind}");
            assert!(!ranking.hotspots.is_empty(), "{kind}");
        }
    }
}

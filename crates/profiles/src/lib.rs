//! Profile collection and static-hint selection.
//!
//! The paper's scheme runs in two phases (its §4): a **selection phase**
//! profiles the program (and optionally simulates the target dynamic
//! predictor) to decide which branches get static hints, and a **measurement
//! phase** simulates the combined static+dynamic predictor using those
//! hints. This crate implements phase one:
//!
//! * [`BiasProfile`] — per-branch execution/taken counts from a run,
//! * [`AccuracyProfile`] — per-branch accuracy of a given dynamic predictor,
//!   collected by simulation (the paper points at ProfileMe/Atom for this),
//! * [`SelectionScheme`] — the paper's `Static_95` (bias cutoff) and
//!   `Static_Acc` (bias > per-branch dynamic accuracy), plus the
//!   `Static_Fac` extension (Lindsay's factor scheme) and the two
//!   collision-driven schemes (`Static_Col` from measured collisions,
//!   `Static_Collide` from the static ranking in [`interference`]),
//! * [`HintDatabase`] — the selected hints, keyed by branch address — the
//!   software stand-in for the two IA-64-style hint bits,
//! * [`ProfileDatabase`] — a Spike-like multi-run store with profile
//!   merging and the >5%-bias-change filtering the paper proposes for
//!   robust cross-training (§5.1).
//!
//! # Examples
//!
//! ```
//! use sdbp_profiles::{BiasProfile, SelectionScheme};
//! use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
//!
//! let events = [
//!     BranchEvent::new(BranchAddr(0x10), true, 1),
//!     BranchEvent::new(BranchAddr(0x10), true, 1),
//!     BranchEvent::new(BranchAddr(0x10), true, 1),
//! ];
//! let profile = BiasProfile::from_source(SliceSource::new(&events));
//! let hints = SelectionScheme::Bias { cutoff: 0.95 }
//!     .select(&profile, None)
//!     .expect("bias scheme needs no accuracy profile");
//! assert_eq!(hints.get(BranchAddr(0x10)), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod bias;
pub mod codec;
pub mod database;
pub mod hints;
pub mod interference;
pub mod passes;
pub mod select;

pub use accuracy::AccuracyProfile;
pub use bias::BiasProfile;
pub use database::ProfileDatabase;
pub use hints::HintDatabase;
pub use interference::{
    history_samples, rank_interference, InterferenceHotspot, InterferenceOptions,
    InterferenceRanking,
};
pub use passes::{AccuracyPass, BiasPass};
pub use select::{SelectError, SelectionScheme};

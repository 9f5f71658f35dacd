//! Binary artifact codecs for the profile types.
//!
//! Implements [`Codec`] for [`BiasProfile`], [`AccuracyProfile`],
//! [`HintDatabase`] and [`ProfileDatabase`], making phase-one outputs
//! storable in the content-addressed artifact store and exchangeable
//! between runs.
//!
//! Encodings are **canonical**: site tables are sorted by branch address
//! before writing, so two structurally equal profiles always serialize to
//! identical bytes (and therefore identical content digests) regardless of
//! `HashMap` iteration order. Payloads validate their counting invariants
//! (`taken ≤ executed`, `correct ≤ executed`) on decode, so a logically
//! impossible profile is rejected as [`CodecError::Invalid`] rather than
//! silently accepted.
//!
//! # Examples
//!
//! ```
//! use sdbp_artifacts::Codec;
//! use sdbp_profiles::BiasProfile;
//! use sdbp_trace::{BranchAddr, SiteStats};
//!
//! let mut p = BiasProfile::new();
//! p.insert(BranchAddr(0x40), SiteStats { executed: 10, taken: 9 });
//! let bytes = p.to_bytes();
//! assert_eq!(BiasProfile::from_bytes(&bytes).unwrap(), p);
//! ```

use crate::accuracy::{AccuracyProfile, SiteAccuracy};
use crate::bias::BiasProfile;
use crate::database::ProfileDatabase;
use crate::hints::HintDatabase;
use sdbp_artifacts::{Codec, CodecError, Decoder, Encoder};
use sdbp_trace::{BranchAddr, SiteStats};

/// Writes a bias profile's payload (shared with [`ProfileDatabase`]'s
/// per-run encoding).
fn encode_bias_payload(profile: &BiasProfile, e: &mut Encoder) {
    let mut sites: Vec<(BranchAddr, &SiteStats)> = profile.iter().collect();
    sites.sort_unstable_by_key(|(pc, _)| *pc);
    e.u64(sites.len() as u64);
    for (pc, stats) in sites {
        e.u64(pc.0);
        e.u64(stats.executed);
        e.u64(stats.taken);
    }
}

fn decode_bias_payload(d: &mut Decoder<'_>) -> Result<BiasProfile, CodecError> {
    let count = d.u64("site count")?;
    let mut profile = BiasProfile::new();
    for _ in 0..count {
        let pc = BranchAddr(d.u64("site pc")?);
        let executed = d.u64("site executed")?;
        let taken = d.u64("site taken")?;
        if taken > executed {
            return Err(CodecError::Invalid {
                context: format!(
                    "site {:x}: taken count {taken} exceeds executed count {executed}",
                    pc.0
                ),
            });
        }
        profile.insert(pc, SiteStats { executed, taken });
    }
    Ok(profile)
}

impl Codec for BiasProfile {
    const SCHEMA: &'static str = "sdbp-bias-profile";
    const VERSION: u32 = 1;

    fn encode_payload(&self, e: &mut Encoder) {
        encode_bias_payload(self, e);
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        decode_bias_payload(d)
    }
}

impl Codec for AccuracyProfile {
    const SCHEMA: &'static str = "sdbp-accuracy-profile";
    const VERSION: u32 = 1;

    fn encode_payload(&self, e: &mut Encoder) {
        let mut sites: Vec<(BranchAddr, &SiteAccuracy)> = self.iter().collect();
        sites.sort_unstable_by_key(|(pc, _)| *pc);
        e.u64(sites.len() as u64);
        for (pc, s) in sites {
            e.u64(pc.0);
            e.u64(s.executed);
            e.u64(s.correct);
            e.u64(s.destructive_collisions);
        }
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let count = d.u64("site count")?;
        let mut profile = AccuracyProfile::new();
        for _ in 0..count {
            let pc = BranchAddr(d.u64("site pc")?);
            let executed = d.u64("site executed")?;
            let correct = d.u64("site correct")?;
            let destructive_collisions = d.u64("site destructive collisions")?;
            if correct > executed || destructive_collisions > executed {
                return Err(CodecError::Invalid {
                    context: format!("site {:x}: counters exceed executed count", pc.0),
                });
            }
            profile.insert(
                pc,
                SiteAccuracy {
                    executed,
                    correct,
                    destructive_collisions,
                },
            );
        }
        Ok(profile)
    }
}

impl Codec for HintDatabase {
    const SCHEMA: &'static str = "sdbp-hints";
    const VERSION: u32 = 1;

    fn encode_payload(&self, e: &mut Encoder) {
        let mut hints: Vec<(BranchAddr, bool)> = self.iter().collect();
        hints.sort_unstable_by_key(|(pc, _)| *pc);
        e.u64(hints.len() as u64);
        for (pc, taken) in hints {
            e.u64(pc.0);
            e.bool(taken);
        }
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let count = d.u64("hint count")?;
        let mut db = HintDatabase::new();
        for _ in 0..count {
            let pc = BranchAddr(d.u64("hint pc")?);
            let taken = d.bool("hint direction")?;
            db.insert(pc, taken);
        }
        Ok(db)
    }
}

impl Codec for ProfileDatabase {
    const SCHEMA: &'static str = "sdbp-profile-db";
    const VERSION: u32 = 1;

    fn encode_payload(&self, e: &mut Encoder) {
        e.str(self.program());
        e.u64(self.num_runs() as u64);
        for (label, profile) in self.iter() {
            e.str(label);
            encode_bias_payload(profile, e);
        }
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let program = d.str("program name")?;
        let runs = d.u64("run count")?;
        let mut db = ProfileDatabase::new(program);
        for _ in 0..runs {
            let label = d.str("run label")?;
            let profile = decode_bias_payload(d)?;
            db.add_run(label, profile);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bias_profile(entries: &[(u64, u64, u64)]) -> BiasProfile {
        let mut p = BiasProfile::new();
        for &(pc, executed, taken) in entries {
            p.insert(BranchAddr(pc), SiteStats { executed, taken });
        }
        p
    }

    #[test]
    fn bias_roundtrip_and_canonical_bytes() {
        let p = bias_profile(&[(0x40, 100, 97), (0x10, 3, 0), (0x9000, 1, 1)]);
        let back = BiasProfile::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        // Insertion order must not leak into the bytes.
        let reordered = bias_profile(&[(0x9000, 1, 1), (0x40, 100, 97), (0x10, 3, 0)]);
        assert_eq!(p.to_bytes(), reordered.to_bytes());
    }

    #[test]
    fn bias_decode_rejects_impossible_counts() {
        // A handmade envelope with taken > executed in the payload.
        struct Evil;
        impl Codec for Evil {
            const SCHEMA: &'static str = "sdbp-bias-profile";
            const VERSION: u32 = 1;
            fn encode_payload(&self, e: &mut Encoder) {
                e.u64(1);
                e.u64(0x40);
                e.u64(1); // executed
                e.u64(2); // taken > executed
            }
            fn decode_payload(_: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(Evil)
            }
        }
        let err = BiasProfile::from_bytes(&Evil.to_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::Invalid { .. }), "{err}");
    }

    #[test]
    fn accuracy_roundtrip() {
        let mut p = AccuracyProfile::new();
        p.insert(
            BranchAddr(0x100),
            SiteAccuracy {
                executed: 50,
                correct: 48,
                destructive_collisions: 3,
            },
        );
        p.insert(
            BranchAddr(0x10),
            SiteAccuracy {
                executed: 9,
                correct: 0,
                destructive_collisions: 9,
            },
        );
        assert_eq!(AccuracyProfile::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn hints_roundtrip_preserves_directions() {
        let db: HintDatabase = [
            (BranchAddr(0x30), false),
            (BranchAddr(0x10), true),
            (BranchAddr(0x20), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(HintDatabase::from_bytes(&db.to_bytes()).unwrap(), db);
        assert_eq!(
            HintDatabase::from_bytes(&HintDatabase::new().to_bytes()).unwrap(),
            HintDatabase::new()
        );
    }

    /// The hint map is keyed per database, so two databases holding the
    /// same hints iterate in different orders; nothing published may show it.
    #[test]
    fn hint_bytes_do_not_depend_on_insertion_order_or_hash_keys() {
        let hints: Vec<(BranchAddr, bool)> = (0..500u64)
            .map(|i| (BranchAddr(0x1_0000 + i * 0x34), i % 3 != 0))
            .collect();
        let forward: HintDatabase = hints.iter().copied().collect();
        let backward: HintDatabase = hints.iter().rev().copied().collect();
        assert_eq!(forward, backward);
        assert_eq!(forward.to_text(), backward.to_text());
        assert_eq!(forward.to_bytes(), backward.to_bytes());
        assert_eq!(
            HintDatabase::from_bytes(&forward.to_bytes()).unwrap(),
            backward
        );
    }

    #[test]
    fn profile_database_roundtrip_keeps_runs_in_order() {
        let mut db = ProfileDatabase::new("perl");
        db.add_run("train", bias_profile(&[(0x10, 100, 98)]));
        db.add_run("ref", bias_profile(&[(0x10, 100, 2), (0x20, 7, 7)]));
        let back = ProfileDatabase::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db);
        let labels: Vec<&str> = back.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["train", "ref"]);
    }

    #[test]
    fn schemas_are_distinct() {
        // A hint database must not decode as a bias profile.
        let db: HintDatabase = [(BranchAddr(0x10), true)].into_iter().collect();
        let err = BiasProfile::from_bytes(&db.to_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::SchemaMismatch { .. }), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn bias_profiles_roundtrip(sites in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>()), 0..32)) {
            let mut p = BiasProfile::new();
            for (pc, executed, taken) in sites {
                let executed = u64::from(executed);
                let taken = u64::from(taken).min(executed);
                p.insert(BranchAddr(u64::from(pc)), SiteStats { executed, taken });
            }
            prop_assert_eq!(BiasProfile::from_bytes(&p.to_bytes()).unwrap(), p);
        }

        #[test]
        fn accuracy_profiles_roundtrip(sites in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()), 0..32)) {
            let mut p = AccuracyProfile::new();
            for (pc, executed, correct, destructive) in sites {
                let executed = u64::from(executed);
                p.insert(BranchAddr(u64::from(pc)), SiteAccuracy {
                    executed,
                    correct: u64::from(correct).min(executed),
                    destructive_collisions: u64::from(destructive).min(executed),
                });
            }
            prop_assert_eq!(AccuracyProfile::from_bytes(&p.to_bytes()).unwrap(), p);
        }

        #[test]
        fn hint_databases_roundtrip(hints in proptest::collection::vec(
            (any::<u32>(), any::<bool>()), 0..48)) {
            let db: HintDatabase = hints
                .into_iter()
                .map(|(pc, taken)| (BranchAddr(u64::from(pc)), taken))
                .collect();
            prop_assert_eq!(HintDatabase::from_bytes(&db.to_bytes()).unwrap(), db);
        }

        #[test]
        fn truncated_profiles_error_not_panic(cut in any::<u32>()) {
            let p = bias_profile(&[(0x10, 5, 3), (0x20, 8, 8), (0x30, 2, 0)]);
            let bytes = p.to_bytes();
            let cut = cut as usize % bytes.len();
            prop_assert!(BiasProfile::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

//! Golden output of a small paper-style grid.
//!
//! Every claim the repo makes about its kernels ends in the same promise:
//! the published numbers do not move. This test pins a reduced-budget grid
//! — gcc and go × {gshare, bi-mode, 2bcgskew} × {2 KB, 16 KB} ×
//! {none, static_95, static_acc}, plus 2bcgskew with hinted history
//! shifting — byte for byte against `tests/golden/grid.txt`, so plain
//! `cargo test` catches an output drift from any later kernel change.
//!
//! Each line is the cell's rendered [`Report`] summary followed by the exact
//! counters behind it. On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/golden_grid.txt`; copy it over the checked-in file
//! only when a change of results is intended and explained.

use sdbp::core::{Report, ShiftPolicy, Sweep};
use sdbp::prelude::*;
use std::fmt::Write as _;

const BUDGET: u64 = 300_000;
const GOLDEN: &str = include_str!("golden/grid.txt");

fn grid() -> Vec<ExperimentSpec> {
    let kinds = [
        PredictorKind::Gshare,
        PredictorKind::BiMode,
        PredictorKind::TwoBcGskew,
    ];
    let schemes = [
        SelectionScheme::None,
        SelectionScheme::static_95(),
        SelectionScheme::static_acc(),
    ];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Gcc, Benchmark::Go] {
        for size in [2048usize, 16384] {
            for kind in kinds {
                for scheme in schemes {
                    let config = PredictorConfig::new(kind, size).expect("valid size");
                    specs.push(
                        ExperimentSpec::self_trained(benchmark, config, scheme)
                            .with_instructions(BUDGET),
                    );
                }
            }
            for scheme in schemes[1..].iter().copied() {
                let config = PredictorConfig::new(PredictorKind::TwoBcGskew, size).unwrap();
                specs.push(
                    ExperimentSpec::self_trained(benchmark, config, scheme)
                        .with_shift(ShiftPolicy::Shift)
                        .with_instructions(BUDGET),
                );
            }
        }
    }
    specs
}

fn render(reports: &[Report]) -> String {
    let mut out = String::new();
    for r in reports {
        let s = &r.stats;
        writeln!(
            out,
            "{} | br {} misp {} static {}/{} constr {} destr {}",
            r.summary(),
            s.branches,
            s.mispredictions,
            s.static_predicted,
            s.static_mispredictions,
            s.collisions.constructive,
            s.collisions.destructive,
        )
        .unwrap();
    }
    out
}

#[test]
fn small_grid_matches_golden_output() {
    let reports = Sweep::new(grid())
        .with_threads(2)
        .run()
        .into_reports()
        .expect("every cell runs");
    let actual = render(&reports);
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_grid.txt");
        std::fs::write(&path, &actual).expect("write actual rendering");
        let first_diff = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "grid output drifted from tests/golden/grid.txt at line {}; actual rendering written to {}",
            first_diff + 1,
            path.display()
        );
    }
}

//! Property tests for scheduler cancellation: a deliberately hard NIA
//! baseline lane racing a trivially-bounded STAUB lane must observe the
//! sibling `CancelFlag` *within its step budget* — it stops because it was
//! cancelled, not because it ran out of steps or wall-clock. Budgets are
//! deterministic steps (the deadline is far too large to trip), so the
//! test does not flake under CI load.

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::{generate, Benchmark, SuiteKind};
use staub::core::{
    portfolio, run_one_with, BatchConfig, BatchVerdict, LaneVerdict, RunOptions, Staub, StaubConfig,
};
use staub::solver::{Solver, SolverProfile};

/// Large enough that the interval-propagation baseline cannot exhaust it
/// in the time the bounded lane needs to win, so a baseline `Unknown` can
/// only mean cancellation.
const HARD_STEPS: u64 = 40_000_000;

/// The bounded lane must verify within this many steps for the instance to
/// count as "trivially sat" for STAUB.
const EASY_SCREEN_STEPS: u64 = 60_000;

/// The baseline must still be searching after this many steps for the
/// instance to count as "deliberately hard" — well over 3× the bounded
/// screen, so the race outcome is decided by steps, not scheduling jitter.
const HARD_SCREEN_STEPS: u64 = 200_000;

fn race_config() -> BatchConfig {
    BatchConfig {
        threads: 2,
        timeout: Duration::from_secs(120),
        steps: HARD_STEPS,
        escalations: Vec::new(),
        cancel_losers: true,
        retry: false,
        ..BatchConfig::default()
    }
}

/// A planted-sat NIA instance that is deliberately asymmetric, certified
/// by two deterministic step-budget screens: the bounded leg of
/// `portfolio::measure` (no planning, grouping or cancellation) verifies
/// a model within [`EASY_SCREEN_STEPS`] (trivially sat for STAUB), while the
/// baseline is still searching after [`HARD_SCREEN_STEPS`] (interval
/// search flounders — e.g. high-dimensional quadratic inequality systems
/// whose planted components sit outside the engine's enlarging bounds).
/// In the race the hard lane therefore *must* lose and be cancelled.
///
/// Roughly one suite draw in five contains such an instance, so the
/// search walks a window of seeds to keep the property test from going
/// vacuous.
fn hard_easy_instance(seed0: u64) -> Option<Benchmark> {
    let easy = Staub::new(StaubConfig {
        timeout: Duration::from_secs(120),
        steps: EASY_SCREEN_STEPS,
        ..Default::default()
    });
    let hard = Solver::new(SolverProfile::Zed)
        .with_timeout(Duration::from_secs(120))
        .with_steps(HARD_SCREEN_STEPS);
    (seed0..seed0 + 12).find_map(|seed| {
        generate(SuiteKind::QfNia, 24, seed)
            .into_iter()
            .filter(|b| b.expected == Some(true))
            .find(|b| {
                // `measure`'s own baseline leg runs the easy budget first:
                // an instance it decides is not hard, so the long screen
                // only runs on the survivors.
                let screen = portfolio::measure(&easy, &b.script);
                screen.verified
                    && screen.baseline_result.is_unknown()
                    && hard.solve(&b.script).result.is_unknown()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn hard_lane_observes_cancel_flag_within_step_budget(seed in 0u64..10_000) {
        let Some(bench) = hard_easy_instance(seed) else {
            // Some suite draws contain no certified hard/easy split; they
            // exercise nothing and are skipped.
            return Ok(());
        };
        let report = run_one_with(&bench.name, &bench.script, &race_config(), &RunOptions::default());

        // The trivially-bounded lane answers: a verified model.
        prop_assert!(
            matches!(report.verdict, BatchVerdict::Sat(_)),
            "{}: expected sat, got {}", bench.name, report.verdict.name()
        );
        let winner = report.winner_lane().expect("sat implies a winner");
        prop_assert!(
            winner.spec.is_staub(),
            "{}: the bounded lane must beat the floundering baseline", bench.name
        );

        // The hard lane stopped because it observed the flag, not because
        // its (huge) deterministic budget ran dry.
        let baseline = report.baseline_lane().expect("baseline lane planned");
        prop_assert_eq!(baseline.verdict, LaneVerdict::Cancelled);
        prop_assert!(
            baseline.steps_used < HARD_STEPS,
            "{}: baseline exhausted {} steps instead of observing the flag",
            bench.name, baseline.steps_used
        );
        prop_assert!(
            baseline.cancel_latency.is_some(),
            "{}: cancellation latency must be recorded", bench.name
        );
    }
}

/// Deterministic companion: the scheduler returns only after every lane
/// joined (scoped threads), so all outcomes are present and exactly the
/// losers carry a cancellation record.
#[test]
fn losers_are_cancelled_and_no_lane_outlives_the_batch() {
    // Seed 10 is a known-certified draw (nia/quadsys/0002).
    let bench = hard_easy_instance(10).expect("certified hard/easy instance exists");
    let config = BatchConfig {
        // Full fan-out: baseline + x1 + x2 + x4.
        escalations: vec![2, 4],
        ..race_config()
    };
    let report = run_one_with(&bench.name, &bench.script, &config, &RunOptions::default());
    assert!(matches!(report.verdict, BatchVerdict::Sat(_)));
    let winner_idx = report.winner.expect("winner");
    for (i, lane) in report.lanes.iter().enumerate() {
        if i == winner_idx {
            assert!(lane.verdict.is_sound());
            assert!(lane.cancel_latency.is_none());
        } else {
            // A loser either got cancelled (and says when) or had already
            // finished unsoundly before the winner landed; it never holds
            // the batch open past its own budget.
            assert!(!lane.verdict.is_sound() || lane.elapsed <= report.wall);
            if lane.verdict == LaneVerdict::Cancelled {
                assert!(lane.cancel_latency.is_some());
                assert!(lane.steps_used < HARD_STEPS);
            }
        }
    }
}

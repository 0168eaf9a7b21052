//! Differential battery for counterexample-guided per-variable width
//! refinement: on randomly generated instances, the refine lane, the
//! blind escalation ladder, and an independent sequential reference
//! ([`portfolio::measure`], which shares no scheduling code with the
//! lanes) must never contradict each other, must respect the
//! generator's ground truth, and every `sat` must ship a model that
//! exactly evaluates the *original* unbounded constraint to true.
//!
//! A second property pins the loop's shape: refinement terminates within
//! its depth cap, per-rung width demand grows strictly, per-variable
//! widths never exceed `max_bv_width`, and every widened name is a real
//! script variable.
//!
//! A third drives the same refinement through the incremental
//! [`Session`] surface, whose warm engine the refine lane borrows: push a
//! poisoning constraint, check, pop, and per-variable widening must still
//! land the same verdict as a session that never detoured.

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::{generate, generate_skewed, Benchmark, SuiteKind};
use staub::core::{
    portfolio, run_one_with, BatchConfig, BatchReport, BatchVerdict, LaneKind, RunOptions, Session,
    Staub, StaubConfig, WidthChoice,
};
use staub::smtlib::{evaluate, Value};

/// Modest deterministic budget: plenty for the planted instances, while
/// letting the hard tail resolve to `unknown` instead of hanging a case.
const STEPS: u64 = 300_000;

fn batch_config(refine: bool) -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(60),
        steps: STEPS,
        width_choice: WidthChoice::Fixed(9),
        escalations: if refine { Vec::new() } else { vec![2, 4] },
        include_baseline: false,
        cancel_losers: true,
        retry: false,
        refine,
        ..BatchConfig::default()
    }
}

/// A small mixed corpus per case: generated NIA/LIA draws plus the
/// skewed-width family the refinement loop targets.
fn corpus(seed: u64) -> Vec<Benchmark> {
    let mut items = Vec::new();
    items.extend(generate(SuiteKind::QfNia, 2, seed));
    items.extend(generate(SuiteKind::QfLia, 2, seed));
    items.extend(generate_skewed(2, seed));
    items
}

/// The verdict the sequential measurement implies: a verified bounded
/// model or a baseline `sat` is `sat`, a baseline `unsat` is `unsat`.
fn sequential_verdict(report: &portfolio::PortfolioReport) -> &'static str {
    if report.verified || report.baseline_result.is_sat() {
        "sat"
    } else if report.baseline_result.is_unsat() {
        "unsat"
    } else {
        "unknown"
    }
}

/// `sat` against `unsat` between two sound verdicts is the only possible
/// disagreement; everything involving `unknown` is mere incompleteness.
fn contradicts(a: &str, b: &str) -> bool {
    matches!((a, b), ("sat", "unsat") | ("unsat", "sat"))
}

fn check_model_exact(bench: &Benchmark, report: &BatchReport) -> Result<(), TestCaseError> {
    if let BatchVerdict::Sat(model) = &report.verdict {
        for &a in bench.script.assertions() {
            prop_assert_eq!(
                evaluate(bench.script.store(), a, model).expect("model is total"),
                Value::Bool(true),
                "{}: sat model must satisfy the original assertion",
                bench.name
            );
        }
    }
    Ok(())
}

fn check_ground_truth(bench: &Benchmark, verdict: &str, leg: &str) -> Result<(), TestCaseError> {
    if let Some(expected) = bench.expected {
        let lie = (expected && verdict == "unsat") || (!expected && verdict == "sat");
        prop_assert!(
            !lie,
            "{} ({leg}): verdict {verdict} contradicts planted ground truth",
            bench.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn refine_blind_and_reference_agree(seed in 0u64..10_000) {
        let mut sound_seen = 0usize;
        for bench in corpus(seed) {
            let refined =
                run_one_with(&bench.name, &bench.script, &batch_config(true), &RunOptions::default());
            let blind =
                run_one_with(&bench.name, &bench.script, &batch_config(false), &RunOptions::default());
            // Independent reference: one sequential bounded attempt under
            // its own (inferred) width strategy, then the original
            // constraint.
            let reference = sequential_verdict(&portfolio::measure(
                &Staub::new(StaubConfig {
                    timeout: Duration::from_secs(60),
                    steps: STEPS,
                    ..StaubConfig::default()
                }),
                &bench.script,
            ));

            let r = refined.verdict.name();
            let b = blind.verdict.name();
            prop_assert!(!contradicts(r, b), "{}: refine={r} blind={b}", bench.name);
            prop_assert!(!contradicts(r, reference), "{}: refine={r} ref={reference}", bench.name);
            prop_assert!(!contradicts(b, reference), "{}: blind={b} ref={reference}", bench.name);
            check_ground_truth(&bench, r, "refine")?;
            check_ground_truth(&bench, b, "blind")?;
            check_ground_truth(&bench, reference, "reference")?;
            check_model_exact(&bench, &refined)?;
            check_model_exact(&bench, &blind)?;
            if r != "unknown" {
                sound_seen += 1;
            }
        }
        // The battery must actually decide things, or agreement is vacuous.
        prop_assert!(sound_seen > 0, "no sound verdict in the whole corpus (seed {seed})");
    }

    #[test]
    fn refinement_terminates_with_strict_progress(seed in 0u64..10_000) {
        let config = batch_config(true);
        for bench in corpus(seed) {
            let report =
                run_one_with(&bench.name, &bench.script, &config, &RunOptions::default());
            let Some(lane) = report
                .lanes
                .iter()
                .find(|l| matches!(l.spec.kind, LaneKind::Refine { .. }))
            else {
                continue;
            };
            prop_assert!(
                lane.rungs.len() as u32 <= config.refine_depth + 1,
                "{}: {} rungs exceed depth cap {}",
                bench.name, lane.rungs.len(), config.refine_depth
            );
            let names: Vec<&str> = bench
                .script
                .store()
                .symbols()
                .map(|s| bench.script.store().symbol_name(s))
                .collect();
            for rung in &lane.rungs {
                prop_assert!(
                    rung.max_width <= config.limits.max_bv_width,
                    "{}: rung width {} over the cap", bench.name, rung.max_width
                );
                for widened in &rung.widened {
                    prop_assert!(
                        names.contains(&widened.as_str()),
                        "{}: widened unknown variable {widened}", bench.name
                    );
                }
            }
            for pair in lane.rungs.windows(2) {
                prop_assert!(
                    pair[1].total_bits > pair[0].total_bits,
                    "{}: non-monotone rungs {:?}", bench.name, lane.rungs
                );
            }
        }
    }

    #[test]
    fn session_pop_then_reassert_matches_fresh_refinement(seed in 0u64..10_000) {
        // A skewed sat instance: bounded-unsat at the 9-bit base (the
        // witness pair overflows its guards), decided after widening only
        // the hot pair.
        let Some(bench) = generate_skewed(4, seed)
            .into_iter()
            .find(|b| b.expected == Some(true))
        else {
            return Ok(());
        };
        // The refine lane alone (no baseline to answer for it), on one
        // worker, borrowing each session's warm engine.
        let config = BatchConfig {
            include_baseline: false,
            ..batch_config(true)
        };
        let src = bench.script.to_string();

        // Detoured session: poison a frame, check, pop it, then refine.
        let mut detour = Session::new(config.clone());
        detour.assert_text(&src).expect("generated script parses");
        detour.push();
        detour.assert_text("(assert (< y 0))").expect("poison parses");
        let poisoned = detour.check().map_or("unknown", |r| r.verdict.name());
        prop_assert!(
            poisoned != "sat",
            "{}: y < 0 contradicts y >= 0 but checked sat", bench.name
        );
        prop_assert!(detour.pop(), "poison frame pops");

        // Fresh session: straight to the same per-variable refinement.
        let mut fresh = Session::new(config);
        fresh.assert_text(&src).expect("generated script parses");

        let detour_report = detour.check().expect("non-empty stack");
        let fresh_report = fresh.check().expect("non-empty stack");
        prop_assert_eq!(
            detour_report.verdict.name(),
            fresh_report.verdict.name(),
            "{}: pop-then-re-assert diverges from a fresh session", bench.name
        );
        // Both checks ran the refine lane, and every widening it made
        // named a real script variable.
        let script = fresh.script().expect("non-empty stack").clone();
        for report in [&detour_report, &fresh_report] {
            let lane = report
                .lanes
                .iter()
                .find(|l| matches!(l.spec.kind, LaneKind::Refine { .. }))
                .expect("refine lane planned");
            prop_assert!(!lane.rungs.is_empty(), "{}: refine lane ran no rung", bench.name);
            for name in lane.rungs.iter().flat_map(|r| &r.widened) {
                prop_assert!(
                    script.store().symbol(name).is_some(),
                    "{}: widened unknown variable {name}", bench.name
                );
            }
        }
        // When the refined check decides sat, the model is exact on the
        // original assertions.
        if let BatchVerdict::Sat(model) = &fresh_report.verdict {
            for &a in script.assertions() {
                prop_assert_eq!(
                    evaluate(script.store(), a, model).expect("model is total"),
                    Value::Bool(true),
                    "{}: refined model must satisfy the original assertion",
                    bench.name
                );
            }
        }
    }
}

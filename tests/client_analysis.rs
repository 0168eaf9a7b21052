//! Integration tests of the termination-proving client (RQ3), spanning
//! `staub-termination`, `staub-core`, and `staub-solver`.

use std::time::Duration;

use staub::core::BatchConfig;
use staub::termination::{suite::suite_97, Program, TerminationProver, Verdict};

#[test]
fn suite_prover_is_sound_against_ground_truth() {
    let prover = TerminationProver::default();
    // A representative slice across families (every 7th program).
    for entry in suite_97().into_iter().step_by(7) {
        let outcome = prover.prove(&entry.program);
        if outcome.verdict == Verdict::Terminating {
            assert_ne!(
                entry.terminates,
                Some(false),
                "{}: proven terminating but ground truth diverges",
                entry.program.name
            );
            // Cross-check a few concrete executions.
            for start in [-1i64, 0, 5, 23] {
                let state = vec![start; entry.program.vars.len()];
                assert!(
                    entry.program.run(state, 200_000).is_some(),
                    "{}: proven terminating but loops from {start}",
                    entry.program.name
                );
            }
        }
    }
}

#[test]
fn staub_backend_matches_baseline_verdicts() {
    let baseline = TerminationProver::default();
    let with_staub = TerminationProver::with_staub(BatchConfig {
        timeout: Duration::from_millis(800),
        steps: 1_000_000,
        ..Default::default()
    });
    for entry in suite_97().into_iter().step_by(11) {
        let a = baseline.prove(&entry.program);
        let b = with_staub.prove(&entry.program);
        // STAUB may only improve: a Terminating verdict must never be lost
        // to unsoundness, and never gained on diverging programs.
        if entry.terminates == Some(false) {
            assert_ne!(a.verdict, Verdict::Terminating, "{}", entry.program.name);
            assert_ne!(b.verdict, Verdict::Terminating, "{}", entry.program.name);
        }
    }
}

#[test]
fn synthesized_rankings_hold_dynamically() {
    let prover = TerminationProver::default();
    for entry in suite_97().into_iter().take(30) {
        let outcome = prover.prove(&entry.program);
        if let Some(f) = &outcome.ranking {
            for start in [0i64, 3, 11, 40] {
                let state = vec![start; entry.program.vars.len()];
                assert!(
                    staub::termination::ranking::validate_on_trace(
                        &entry.program,
                        f,
                        state,
                        10_000
                    ),
                    "{}: ranking {f} violated from {start}",
                    entry.program.name
                );
            }
        }
    }
}

#[test]
fn parsed_and_built_programs_agree() {
    // The same program via the parser and via the builder must produce the
    // same proof outcome.
    let parsed = Program::parse("p", "vars x; while (x > 0) { x = x - 2; }").unwrap();
    use staub::termination::{Cmp, Cond, Expr};
    let built = Program::new(
        "p",
        vec!["x".to_string()],
        vec![Cond {
            lhs: Expr::Var(0),
            cmp: Cmp::Gt,
            rhs: Expr::Const(0),
        }],
        vec![Expr::Sub(Box::new(Expr::Var(0)), Box::new(Expr::Const(2)))],
    );
    assert_eq!(parsed, built);
    let prover = TerminationProver::default();
    assert_eq!(prover.prove(&parsed).verdict, prover.prove(&built).verdict);
}

#[test]
fn constraint_population_is_unsat_heavy() {
    // The paper calls this client "pessimistic": most emitted constraints
    // are unsat. Confirm the population shape on a slice of the suite.
    let prover = TerminationProver::default();
    let mut total = 0usize;
    let mut unsat = 0usize;
    for entry in suite_97().into_iter().step_by(5) {
        let outcome = prover.prove(&entry.program);
        for record in &outcome.constraints {
            total += 1;
            if record.result == "unsat" {
                unsat += 1;
            }
        }
    }
    assert!(total > 20, "enough constraints sampled");
    assert!(
        unsat * 5 >= total,
        "at least a fifth of client constraints are unsat ({unsat}/{total})"
    );
}

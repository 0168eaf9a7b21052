//! The termination prover: orchestrates unrolling and ranking queries,
//! optionally routing every constraint through STAUB.

use std::time::{Duration, Instant};

use staub_core::{BatchConfig, BatchVerdict, Session};
use staub_smtlib::Script;
use staub_solver::{SatResult, Solver, SolverProfile};

use crate::lang::Program;
use crate::ranking::{ranking_query, validation_query, RankingFunction};
use crate::unroll::unroll_query;

/// Verdict of a termination proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Termination proven (bounded unrolling refuted, or a linear ranking
    /// function was synthesized).
    Terminating,
    /// No proof found within the configured effort.
    Unknown,
}

/// One SMT query issued during a proof attempt (for RQ3 measurement).
#[derive(Debug, Clone)]
pub struct ConstraintRecord {
    /// What the constraint encodes.
    pub purpose: String,
    /// The constraint itself.
    pub script: Script,
    /// The result obtained.
    pub result: String,
    /// Time spent solving it.
    pub elapsed: Duration,
}

/// Outcome of proving one program.
#[derive(Debug, Clone)]
pub struct ProveOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Synthesized ranking function, if any.
    pub ranking: Option<RankingFunction>,
    /// Every constraint issued, in order.
    pub constraints: Vec<ConstraintRecord>,
    /// Total solving time across all constraints.
    pub total_solve_time: Duration,
}

/// How the prover discharges its SMT constraints.
#[derive(Debug, Clone)]
enum Backend {
    Baseline(Box<Solver>),
    Staub(Box<BatchConfig>),
}

/// The termination prover (the Ultimate Automizer stand-in).
///
/// # Examples
///
/// ```
/// use staub_termination::{Program, TerminationProver, Verdict};
///
/// let p = Program::parse("bounded", "\
/// vars i;
/// while (i > 0 && i < 8) { i = i + 1; }")?;
/// let outcome = TerminationProver::default().prove(&p);
/// assert_eq!(outcome.verdict, Verdict::Terminating);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TerminationProver {
    backend: Backend,
    unroll_depths: Vec<usize>,
}

impl Default for TerminationProver {
    fn default() -> TerminationProver {
        TerminationProver::baseline(
            Solver::new(SolverProfile::Zed)
                .with_timeout(Duration::from_millis(800))
                .with_steps(1_000_000),
        )
    }
}

impl TerminationProver {
    /// A prover that sends constraints directly to a solver.
    pub fn baseline(solver: Solver) -> TerminationProver {
        TerminationProver {
            backend: Backend::Baseline(Box::new(solver)),
            unroll_depths: vec![2, 4, 8],
        }
    }

    /// A prover that routes every constraint through the STAUB lane
    /// planner (the paper's RQ3 configuration), one warm [`Session`] per
    /// proof attempt.
    pub fn with_staub(config: BatchConfig) -> TerminationProver {
        TerminationProver {
            backend: Backend::Staub(Box::new(config)),
            unroll_depths: vec![2, 4, 8],
        }
    }

    /// Overrides the unrolling depths tried before ranking synthesis.
    #[must_use]
    pub fn with_unroll_depths(mut self, depths: Vec<usize>) -> TerminationProver {
        self.unroll_depths = depths;
        self
    }

    fn solve(
        &self,
        script: &Script,
        purpose: &str,
        records: &mut Vec<ConstraintRecord>,
        session: &mut Option<Session>,
    ) -> SatResult {
        let start = Instant::now();
        let result = match &self.backend {
            Backend::Baseline(solver) => solver.solve(script).result,
            Backend::Staub(config) => {
                // One warm session per proof attempt: the unrolling and
                // ranking queries of one program share loop structure, so
                // later queries reuse the earlier encodings.
                let session = session.get_or_insert_with(|| Session::new(config.as_ref().clone()));
                match session.run(script).map(|report| report.verdict) {
                    Ok(BatchVerdict::Sat(model)) => SatResult::Sat(model),
                    Ok(BatchVerdict::Unsat) => SatResult::Unsat,
                    Ok(BatchVerdict::Unknown) | Err(_) => {
                        SatResult::Unknown(staub_solver::UnknownReason::BudgetExhausted)
                    }
                }
            }
        };
        records.push(ConstraintRecord {
            purpose: purpose.to_string(),
            script: script.clone(),
            result: result.to_string(),
            elapsed: start.elapsed(),
        });
        result
    }

    /// Attempts to prove termination of `program`.
    pub fn prove(&self, program: &Program) -> ProveOutcome {
        let mut records = Vec::new();
        let mut verdict = Verdict::Unknown;
        let mut ranking = None;
        let mut session = None;

        // Phase 1: bounded unrolling — unsat proves global termination.
        for &k in &self.unroll_depths {
            let script = unroll_query(program, k);
            match self.solve(&script, &format!("unroll-{k}"), &mut records, &mut session) {
                SatResult::Unsat => {
                    verdict = Verdict::Terminating;
                    break;
                }
                SatResult::Sat(_) | SatResult::Unknown(_) => {}
            }
        }

        // Phase 2: ranking synthesis for linear programs, followed by
        // certificate validation (an `unsat` query confirming that no
        // guard-satisfying state violates the ranking conditions).
        if verdict == Verdict::Unknown {
            if let Some(query) = ranking_query(program) {
                if let SatResult::Sat(model) = self.solve(
                    &query.script,
                    "ranking-synthesis",
                    &mut records,
                    &mut session,
                ) {
                    ranking = query.decode(&model);
                    if let Some(f) = &ranking {
                        let validated = match validation_query(program, f) {
                            Some(vq) => self
                                .solve(&vq, "ranking-validation", &mut records, &mut session)
                                .is_unsat(),
                            None => false,
                        };
                        if validated {
                            verdict = Verdict::Terminating;
                        } else {
                            ranking = None;
                        }
                    }
                }
            }
        }

        let total_solve_time = records.iter().map(|r| r.elapsed).sum();
        ProveOutcome {
            verdict,
            ranking,
            constraints: records,
            total_solve_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prove(src: &str) -> ProveOutcome {
        let p = Program::parse("test", src).unwrap();
        TerminationProver::default().prove(&p)
    }

    #[test]
    fn countdown_terminates_via_ranking() {
        let outcome = prove("vars x; while (x > 0) { x = x - 1; }");
        assert_eq!(outcome.verdict, Verdict::Terminating);
        assert!(
            outcome.ranking.is_some(),
            "unbounded loop needs a ranking proof"
        );
    }

    #[test]
    fn bounded_loop_terminates_via_unrolling() {
        let outcome = prove("vars x; while (x > 2 && x < 6) { x = x + 1; }");
        assert_eq!(outcome.verdict, Verdict::Terminating);
        // Proven by refuting an unrolling (depth 4 suffices: x in 3..5).
        assert!(outcome
            .constraints
            .iter()
            .any(|r| r.purpose.starts_with("unroll")));
    }

    #[test]
    fn diverging_loop_is_unknown() {
        let outcome = prove("vars x; while (x > 0) { x = x + 1; }");
        assert_eq!(outcome.verdict, Verdict::Unknown);
        assert!(outcome.ranking.is_none());
        // The prover issued several constraints, mostly sat/unknown — the
        // paper's pessimistic population.
        assert!(outcome.constraints.len() >= 3);
    }

    #[test]
    fn nonlinear_bounded_program() {
        // x doubles each round under x < 16 with y == 2: terminates, and
        // only the (nonlinear) unrolling path can prove it.
        let outcome = prove("vars x, y; while (x < 16 && x > 1 && y == 2) { x = x * y; }");
        assert_eq!(outcome.verdict, Verdict::Terminating);
        assert!(outcome.ranking.is_none(), "Farkas does not apply to x*y");
    }

    #[test]
    fn staub_backend_agrees() {
        let p = Program::parse("agree", "vars x; while (x > 0) { x = x - 3; }").unwrap();
        let base = TerminationProver::default().prove(&p);
        let with_staub = TerminationProver::with_staub(BatchConfig {
            timeout: Duration::from_millis(800),
            steps: 1_000_000,
            ..Default::default()
        })
        .prove(&p);
        assert_eq!(base.verdict, with_staub.verdict);
        assert_eq!(base.verdict, Verdict::Terminating);
    }

    #[test]
    fn constraint_records_capture_everything() {
        let outcome = prove("vars x; while (x > 0) { x = x - 1; }");
        assert!(!outcome.constraints.is_empty());
        for r in &outcome.constraints {
            assert!(!r.script.assertions().is_empty(), "{}", r.purpose);
            assert!(r.elapsed > Duration::ZERO);
        }
        assert!(outcome.total_solve_time > Duration::ZERO);
    }
}

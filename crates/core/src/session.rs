//! Incremental solving sessions: the library entrypoint of the pipeline.
//!
//! A [`Session`] owns a planner configuration ([`BatchConfig`]), an
//! SMT-LIB assertion stack, *and* a persistent solver engine
//! ([`BvSession`]) that survives across checks. Every check runs the same
//! solve path as `staub batch` and serve `solve`: [`crate::sched::plan_lanes`]
//! plans the lanes (baseline, difference-logic, complete, STAUB ladder or
//! refine) and the scheduler behind [`crate::run_one_with`] races them, so
//! a session reports the same lanes, cost and trust as every other entry
//! point. The one difference is warmth: the session lends its engine to
//! the bounded lanes of the first profile, which carry forward
//!
//! * the bit-blaster's **variable map** (symbol name × bit → SAT variable)
//!   and **structural gate cache**, so re-encoding an unchanged or widened
//!   constraint reuses the existing circuit instead of rebuilding it;
//! * the SAT core's **learned clauses**, **saved phases**, and
//!   **variable activities** — all valid forever because the engine only
//!   accumulates satisfiable-standalone Tseitin definitions at level 0 and
//!   passes assertion roots as per-check *assumptions*.
//!
//! Widening a bitvector variable from `w` to `2w` bits reuses the low `w`
//! SAT variables (two's-complement low bits agree across widths for every
//! value representable at `w`), so the escalation ladder's wider rungs and
//! the refine lane's per-variable widenings pay only for the extension
//! bits, within one check and across checks alike.
//!
//! # Incremental scripting
//!
//! Sessions also expose SMT-LIB-style assertion levels:
//!
//! ```
//! use staub_core::Session;
//!
//! let mut session = Session::default();
//! session.assert_text("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 10))")?;
//! session.assert_text("(assert (= (* x x) 49))")?;
//! assert_eq!(session.check()?.verdict.name(), "sat");
//! session.push();
//! session.assert_text("(assert (>= x 8))")?;
//! assert_eq!(session.check()?.verdict.name(), "unsat");
//! session.pop();
//! assert_eq!(session.check()?.verdict.name(), "sat");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use staub_smtlib::{ParseError, Script};
use staub_solver::{BvSession, SolverProfile};

use crate::metrics::Metrics;
use crate::pipeline::StaubError;
use crate::sched::{run_one_in, BatchConfig, BatchReport, RunOptions};

/// An incremental solving session: planner configuration, assertion
/// stack, and a warm solver engine shared by every check.
///
/// This is the intended public entrypoint for solving.
pub struct Session {
    config: BatchConfig,
    options: RunOptions,
    engine: BvSession,
    /// Assertion frames; `frames[0]` is the base level and is never popped.
    /// Each frame holds SMT-LIB source fragments in assertion order.
    frames: Vec<Vec<String>>,
    /// Parse cache for the current combined source.
    cached: Option<(String, Script)>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(BatchConfig::default())
    }
}

impl Session {
    /// Creates a session that plans and schedules lanes under `config`.
    /// The warm engine is tuned for the first profile in
    /// [`BatchConfig::profiles`].
    pub fn new(config: BatchConfig) -> Session {
        let profile = config
            .profiles
            .first()
            .copied()
            .unwrap_or(SolverProfile::Zed);
        Session {
            engine: BvSession::new(profile.sat_config()),
            config,
            options: RunOptions::default(),
            frames: vec![Vec::new()],
            cached: None,
        }
    }

    /// Attaches a metrics registry: every check records the scheduler's
    /// `sched.*` events and per-lane `solver.<label>.*` counters.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Session {
        self.options.metrics = Some(metrics);
        self
    }

    /// The planner configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The persistent solver engine (checks performed, gate-cache hits —
    /// useful for warm-start diagnostics).
    pub fn engine(&self) -> &BvSession {
        &self.engine
    }

    // -- assertion stack ---------------------------------------------------

    /// Opens a new assertion level (SMT-LIB `(push 1)`).
    pub fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    /// Discards the top assertion level (SMT-LIB `(pop 1)`). Returns
    /// `false` when only the base level remains (nothing to pop).
    pub fn pop(&mut self) -> bool {
        if self.frames.len() == 1 {
            return false;
        }
        self.frames.pop();
        self.cached = None;
        true
    }

    /// The current assertion level (0 = base).
    pub fn assertion_level(&self) -> usize {
        self.frames.len() - 1
    }

    /// The parsed combination of the current assertion stack. Parses on
    /// demand (cached while the stack is unchanged); `None` when nothing
    /// has been asserted. Models returned by [`Session::check`] are keyed
    /// by this script's symbol store.
    pub fn script(&mut self) -> Option<&Script> {
        if self.frames.iter().all(Vec::is_empty) {
            return None;
        }
        self.ensure_parsed();
        self.cached.as_ref().map(|(_, script)| script)
    }

    /// Adds SMT-LIB source (declarations and/or assertions) to the current
    /// assertion level. The *combined* script is validated eagerly; on
    /// error the fragment is not retained.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the combined script.
    pub fn assert_text(&mut self, src: &str) -> Result<(), ParseError> {
        let frame = self.frames.last_mut().expect("base frame always exists");
        frame.push(src.to_string());
        let combined = combine(&self.frames);
        match Script::parse(&combined) {
            Ok(script) => {
                self.cached = Some((combined, script));
                Ok(())
            }
            Err(err) => {
                self.frames
                    .last_mut()
                    .expect("base frame always exists")
                    .pop();
                Err(err)
            }
        }
    }

    /// Parses the combined assertion stack (from cache when unchanged).
    fn ensure_parsed(&mut self) {
        let combined = combine(&self.frames);
        if self
            .cached
            .as_ref()
            .is_none_or(|(cached_src, _)| *cached_src != combined)
        {
            // Every fragment was validated on entry as part of a combined
            // parse, and popping frames only removes suffixes, so the
            // remaining source is a previously-validated state.
            let script = Script::parse(&combined).expect("validated assertion stack parses");
            self.cached = Some((combined, script));
        }
    }

    // -- checks ------------------------------------------------------------

    /// Checks the current assertion stack: plans its lanes and races them,
    /// warm-starting the bounded lanes from all previous checks. The
    /// report's models are keyed by [`Session::script`]'s symbol store.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] when no assertions are active.
    pub fn check(&mut self) -> Result<BatchReport, StaubError> {
        self.ensure_parsed();
        let (_, script) = self.cached.as_ref().expect("ensure_parsed populated cache");
        solve(&self.config, &self.options, &mut self.engine, script)
    }

    /// Plans and races the lanes of `script`, warm-starting the bounded
    /// lanes from previous calls. The session's assertion stack is not
    /// consulted.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] for scripts without assertions.
    pub fn run(&mut self, script: &Script) -> Result<BatchReport, StaubError> {
        solve(&self.config, &self.options, &mut self.engine, script)
    }
}

/// One check: the scheduler's single-constraint path with the session's
/// engine lent to the bounded lanes.
fn solve(
    config: &BatchConfig,
    options: &RunOptions,
    engine: &mut BvSession,
    script: &Script,
) -> Result<BatchReport, StaubError> {
    if script.assertions().is_empty() {
        return Err(StaubError::EmptyScript);
    }
    Ok(run_one_in("session", script, config, options, Some(engine)))
}

/// Concatenates the assertion frames into one SMT-LIB source.
fn combine(frames: &[Vec<String>]) -> String {
    let mut out = String::new();
    for frame in frames {
        for fragment in frame {
            out.push_str(fragment);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_one_with;
    use crate::sched::{plan_lanes, LaneKind, LaneSpec, LaneVerdict};
    use crate::WidthChoice;
    use std::time::Duration;

    fn config() -> BatchConfig {
        BatchConfig {
            threads: 2,
            timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn push_pop_and_reassert() {
        let mut session = Session::new(config());
        session
            .assert_text("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 10))")
            .unwrap();
        session.assert_text("(assert (= (* x x) 49))").unwrap();
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
        session.push();
        session.assert_text("(assert (>= x 8))").unwrap();
        assert_eq!(session.check().unwrap().verdict.name(), "unsat");
        assert!(session.pop());
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
        // Pop-then-re-assert: a *different* constraint on the same symbol.
        session.push();
        session.assert_text("(assert (= x 7))").unwrap();
        match session.check().unwrap().verdict {
            crate::BatchVerdict::Sat(model) => assert_eq!(model.len(), 1),
            other => panic!("expected sat, got {}", other.name()),
        }
    }

    #[test]
    fn pop_below_base_is_refused() {
        let mut session = Session::default();
        assert_eq!(session.assertion_level(), 0);
        assert!(!session.pop());
        session.push();
        assert_eq!(session.assertion_level(), 1);
        assert!(session.pop());
        assert!(!session.pop());
    }

    #[test]
    fn parse_error_does_not_corrupt_stack() {
        let mut session = Session::default();
        session.assert_text("(declare-fun x () Int)").unwrap();
        assert!(session.assert_text("(assert (= x").is_err());
        // The bad fragment was dropped: a valid follow-up still works.
        session.assert_text("(assert (= x 3))").unwrap();
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
    }

    #[test]
    fn empty_stack_check_is_error() {
        let mut session = Session::default();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
        session.assert_text("(declare-fun x () Int)").unwrap();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
    }

    #[test]
    fn warm_checks_agree_with_cold_scheduler() {
        // Every lane runs to completion, so lane verdicts are comparable
        // lane by lane between the warm session and cold scheduler runs.
        let config = BatchConfig {
            cancel_losers: false,
            ..config()
        };
        let sources = [
            "(declare-fun x () Int)(assert (= (* x x) 49))",
            "(declare-fun x () Int)(assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))",
            "(declare-fun x () Int)(assert (= (* x x) 121))",
        ];
        let mut session = Session::new(config.clone());
        for src in sources {
            let script = Script::parse(src).unwrap();
            let warm = session.run(&script).unwrap();
            let cold = run_one_with("cold", &script, &config, &RunOptions::default());
            assert_eq!(warm.verdict.name(), cold.verdict.name(), "{src}");
            let labels = |r: &BatchReport| -> Vec<String> {
                r.lanes.iter().map(|l| l.spec.label()).collect()
            };
            let planned: Vec<String> = plan_lanes(&script, &config)
                .iter()
                .map(LaneSpec::label)
                .collect();
            assert_eq!(labels(&warm), planned, "{src}");
            assert_eq!(labels(&cold), planned, "{src}");
            // The base bounded lane reaches the same conclusion warm as
            // cold: a verified model, or an (untrusted) bounded unsat.
            let base = |r: &BatchReport| {
                r.lanes
                    .iter()
                    .find(|l| matches!(l.spec.kind, LaneKind::Staub { escalation: 1, .. }))
                    .map(|l| l.verdict)
            };
            assert_eq!(base(&warm), base(&cold), "{src}");
        }
    }

    #[test]
    fn bounded_lanes_run_on_the_lent_engine() {
        // No baseline lane: the bounded ladder must answer, through the
        // session's engine, and the base rung verifies at 8 bits.
        let mut session = Session::new(BatchConfig {
            width_choice: WidthChoice::Fixed(8),
            include_baseline: false,
            ..config()
        });
        session
            .assert_text("(declare-fun x () Int)(assert (= (* x x) 49))")
            .unwrap();
        let report = session.check().unwrap();
        let winner = report.winner_lane().expect("the base rung answers");
        assert_eq!(winner.spec.label(), "staub/x1/zed");
        assert_eq!(winner.verdict, LaneVerdict::SatVerified);
        assert!(session.engine().checks() > 0, "the lent engine solved");
    }
}

//! The STAUB translation configuration (infer → transform) and the types
//! shared by every solve entry point. Solving itself — bounded lanes,
//! verification, the baseline fallback — runs through the lane planner in
//! [`crate::sched`].

use std::error::Error;
use std::fmt;
use std::time::Duration;

use staub_smtlib::Script;
use staub_solver::SolverProfile;

use crate::absint;
use crate::correspond::SortLimits;
use crate::transform::{transform, TransformError, Transformed};

/// How the translation width is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthChoice {
    /// Abstract-interpretation-based inference (§4.2) — the paper's STAUB
    /// configuration.
    Inferred,
    /// A constraint-independent fixed width — the paper's 8-/16-bit
    /// ablation baselines.
    Fixed(u32),
}

/// Which lane (and at which width) produced a verdict.
///
/// Derived from a [`crate::BatchReport`]'s winning lane, so batch JSONL,
/// serve replies and `staub stats` report the producing lane directly
/// instead of inferring it from log order. Labels follow the scheduler's
/// lane naming (`staub/x2/zed`, `baseline/cove`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Stable label of the producing lane.
    pub label: String,
    /// Width multiplier relative to the base width (`1` = base, doubled
    /// per escalation; `0` for lanes without a width — baseline and
    /// difference-logic).
    pub multiplier: u32,
    /// Deterministic solver steps consumed producing the verdict.
    pub steps: u64,
}

/// Configuration of the STAUB pipeline.
#[derive(Debug, Clone)]
pub struct StaubConfig {
    /// Width selection strategy.
    pub width_choice: WidthChoice,
    /// Target-sort limits (max widths, two-regime cap).
    pub limits: SortLimits,
    /// Solver profile used for both the bounded and the original constraint.
    pub profile: SolverProfile,
    /// Wall-clock timeout per solver call.
    pub timeout: Duration,
    /// Deterministic step budget per solver call.
    pub steps: u64,
}

impl Default for StaubConfig {
    fn default() -> StaubConfig {
        StaubConfig {
            width_choice: WidthChoice::Inferred,
            limits: SortLimits::default(),
            profile: SolverProfile::Zed,
            timeout: Duration::from_secs(1),
            steps: 4_000_000,
        }
    }
}

/// Error from a [`crate::Session`] check. Transformation failures are
/// *not* errors — the bounded lanes report them as `not-applicable` and
/// the other lanes answer; this type only covers misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaubError {
    /// The script contains no assertions.
    EmptyScript,
}

impl fmt::Display for StaubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaubError::EmptyScript => f.write_str("script has no assertions"),
        }
    }
}

impl Error for StaubError {}

/// The STAUB translation configuration: bound inference and the
/// transformation at a chosen width, plus the one-shot sequential
/// measurement ([`crate::portfolio::measure`]) the paper tables use.
/// Solving goes through the lane planner ([`crate::Session`],
/// [`crate::run_one_with`]).
///
/// ```
/// use staub_core::{Staub, StaubConfig, WidthChoice};
/// use staub_smtlib::Script;
///
/// let script = Script::parse("\
/// (declare-fun x () Int)
/// (assert (= (* x x) 49))")?;
/// let staub = Staub::new(StaubConfig {
///     width_choice: WidthChoice::Fixed(16),
///     ..StaubConfig::default()
/// });
/// assert_eq!(staub.transform(&script)?.bv_width, Some(16));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Staub {
    config: StaubConfig,
}

impl Staub {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: StaubConfig) -> Staub {
        Staub { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &StaubConfig {
        &self.config
    }

    /// Runs bound inference only.
    pub fn infer(&self, script: &Script) -> absint::InferredBounds {
        absint::infer(script)
    }

    /// Runs inference and transformation only (no solving).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] when no bounded counterpart exists within
    /// the configured limits.
    pub fn transform(&self, script: &Script) -> Result<Transformed, TransformError> {
        let bounds = absint::infer(script);
        transform(
            script,
            &bounds,
            self.config.width_choice,
            &self.config.limits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staub(width_choice: WidthChoice) -> Staub {
        Staub::new(StaubConfig {
            width_choice,
            ..Default::default()
        })
    }

    #[test]
    fn fixed_width_configuration() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let transformed = staub(WidthChoice::Fixed(16)).transform(&script).unwrap();
        assert_eq!(transformed.bv_width, Some(16));
    }

    #[test]
    fn insufficient_fixed_width_is_refused() {
        // Width 4 cannot represent 49: the transform refuses, so a bounded
        // lane at this width reports `not-applicable`.
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        assert!(staub(WidthChoice::Fixed(4)).transform(&script).is_err());
    }

    #[test]
    fn inference_picks_the_motivating_width() {
        let script = Script::parse(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= (+ (* x x x) (* y y y) (* z z z)) 855))",
        )
        .unwrap();
        let staub = staub(WidthChoice::Inferred);
        assert_eq!(staub.transform(&script).unwrap().bv_width, Some(12));
        assert!(staub.infer(&script).nodes_visited > 0);
    }
}

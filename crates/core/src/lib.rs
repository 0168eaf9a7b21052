//! STAUB — SMT Theory Arbitrage from Unbounded to Bounded constraints.
//!
//! This crate is the paper's primary contribution: it converts constraints
//! over the *unbounded* theories of integers and reals into constraints over
//! the *bounded* theories of bitvectors and floating point, solves the cheap
//! bounded constraint, and verifies the model against the original. The
//! pipeline (paper Fig. 3):
//!
//! 1. **Sort selection** ([`correspond`]) — Int ↦ bitvector kind,
//!    Real ↦ floating-point kind, with the function mapping ℳ.
//! 2. **Bound inference** ([`absint`]) — abstract interpretation whose
//!    abstract domain is bit widths (integers) or (magnitude, precision)
//!    pairs (reals); the Fig. 5 abstract semantics, evaluated as a single
//!    memoized DAG traversal (linear in constraint size, §6.1).
//! 3. **Translation** ([`transform`]) — syntax-directed rewrite inserting
//!    overflow guards (`bvsmulo` and friends, §4.3).
//! 4. **Verification** ([`verify`]) — a `sat` model of the bounded
//!    constraint is mapped back through φ⁻¹ and the original constraint is
//!    evaluated exactly; failures (overflow/rounding semantic differences)
//!    revert to the original constraint (§4.4).
//!
//! [`sched`] is the one solve path: it plans each constraint's lanes
//! (baseline, difference-logic, certified complete, and escalating or
//! refining STAUB widths) and races them on a work-stealing pool with
//! cooperative cancellation, so the first sound answer wins and no
//! constraint is ever slowed down (§5.1). [`portfolio`] measures the two
//! legs sequentially for the paper's tables. [`bvreduce`] implements the
//! paper's §6.4 suggestion of applying the same scheme to *already-bounded*
//! constraints (bitvector width reduction). [`check`] re-certifies each
//! bounded lane's stage outputs with the `staub-lint` checker in debug
//! builds. [`metrics`] threads scheduler events and solver counters
//! through all of it (`staub stats`, batch JSONL `stats` blocks).
//!
//! # Quickstart
//!
//! [`Session`] is the library entrypoint: each check runs the same lane
//! plan as `staub batch`, and the session carries warm solver state
//! (variable maps, learned clauses, phases, activities) across checks, so
//! related queries amortize each other's work.
//!
//! ```
//! use staub_core::{BatchVerdict, Session};
//! use staub_smtlib::Script;
//!
//! let script = Script::parse("\
//! (declare-fun x () Int)
//! (assert (= (* x x) 49))
//! (check-sat)")?;
//! let report = Session::default().run(&script)?;
//! assert!(matches!(report.verdict, BatchVerdict::Sat(_)));
//! println!("answered by {}", report.winner_lane().unwrap().spec.label());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod absint;
pub mod bvreduce;
pub mod check;
pub mod correspond;
pub mod metrics;
pub mod portfolio;
pub mod sched;
pub mod transform;
pub mod verify;

mod pipeline;
mod session;

pub use absint::{
    certify, classify_fragment, difference_logic, BoundCertificate, CoeffLedger, DlEdge, DlSystem,
    FragmentClass,
};
pub use metrics::{Metrics, MetricsSnapshot};
pub use pipeline::{Provenance, Staub, StaubConfig, StaubError, WidthChoice};
pub use portfolio::{PortfolioReport, Winner};
pub use sched::{
    run_batch_with, run_one_with, BatchConfig, BatchItem, BatchReport, BatchVerdict, LaneKind,
    LaneOutcome, LaneSpec, LaneVerdict, RefineRung, RunOptions,
};
pub use session::Session;
pub use transform::{TransformError, Transformed, WidthMap};
pub use verify::VerifyReport;

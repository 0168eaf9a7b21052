//! Quickstart: run the STAUB pipeline on an SMT-LIB constraint.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use staub::core::{BatchVerdict, Session, Staub};
use staub::smtlib::Script;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "\
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (= (+ (* x x) (* y y)) 6724))
(assert (> x 0))
(assert (> y x))
(check-sat)";
    println!("Input constraint:\n{src}\n");

    let script = Script::parse(src)?;
    let staub = Staub::default();

    // Inspect the inferred bounds and the transformed constraint.
    let bounds = staub.infer(&script);
    println!(
        "Inferred bounds: assumption width x = {}, root width [S] = {}",
        bounds.assumption_width, bounds.root_width
    );
    let transformed = staub.transform(&script)?;
    println!(
        "Translated to {}-bit bitvectors with {} overflow guards:\n{}",
        transformed.bv_width.expect("integer constraint"),
        transformed.guard_count,
        transformed.script
    );

    // Solve in a session: the lane planner races the baseline solver
    // against the bounded lanes, and repeated checks warm-start from this
    // one.
    let mut session = Session::default();
    let report = session.run(&script)?;
    println!("{}", report.verdict.name());
    for lane in &report.lanes {
        println!("  lane {}: {}", lane.spec.label(), lane.verdict.name());
    }
    if let BatchVerdict::Sat(model) = &report.verdict {
        let winner = report.winner_lane().expect("a sat verdict has a winner");
        println!(
            "model (lane {}):\n{}",
            winner.spec.label(),
            model.to_smtlib(script.store())
        );
    }
    Ok(())
}

//! The client analysis of the paper's RQ3: proving loop termination by
//! reduction to SMT, with constraints optionally routed through STAUB.
//!
//! ```text
//! cargo run --release --example termination_proving
//! ```

use staub::core::BatchConfig;
use staub::termination::{Program, TerminationProver, Verdict};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let programs = [
        ("countdown", "vars x; while (x > 0) { x = x - 1; }"),
        (
            "coupled",
            "vars x, y; while (x + y > 0) { x = x - 1; y = y - 2; }",
        ),
        (
            "bounded-window",
            "vars i; while (i > 0 && i < 10) { i = i + 1; }",
        ),
        (
            "nonlinear-double",
            "vars x, y; while (x < 64 && x > 1 && y == 2) { x = x * y; }",
        ),
        ("diverging", "vars x; while (x > 0) { x = x + 1; }"),
    ];

    let baseline = TerminationProver::default();
    let with_staub = TerminationProver::with_staub(BatchConfig {
        timeout: Duration::from_millis(800),
        steps: 1_000_000,
        ..Default::default()
    });

    for (name, src) in programs {
        let program = Program::parse(name, src)?;
        println!("== {name} ==\n{src}");
        let outcome = baseline.prove(&program);
        match outcome.verdict {
            Verdict::Terminating => match &outcome.ranking {
                Some(f) => println!("  TERMINATING — ranking function {f}"),
                None => println!("  TERMINATING — proven by bounded unrolling"),
            },
            Verdict::Unknown => println!("  UNKNOWN — no proof found"),
        }
        println!(
            "  {} constraints solved in {:?} (baseline backend)",
            outcome.constraints.len(),
            outcome.total_solve_time
        );
        let staub_outcome = with_staub.prove(&program);
        assert_eq!(outcome.verdict, staub_outcome.verdict, "backends agree");
        println!(
            "  {} constraints solved in {:?} (STAUB backend)\n",
            staub_outcome.constraints.len(),
            staub_outcome.total_solve_time
        );
    }
    Ok(())
}

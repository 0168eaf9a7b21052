//! The traced pass: one constraint taken through each layer's public entry
//! point in turn, each call wrapped in a span. It runs the lanes that
//! `staub_core::sched::plan_lanes` plans under the same `BatchConfig` (the
//! difference-logic lane, the bounded 1×/2×/4× ladder through one warm
//! `BvSession`, the certified complete width, and the baseline on the
//! original), but one after another and in full, so each layer's time is
//! its own.

use std::collections::HashMap;
use std::hint::black_box;

use staub_core::absint::{certify, difference_logic, infer, InferredBounds};
use staub_core::check::{check_certificate, check_dl_certificate, check_model, check_transformed};
use staub_core::sched::plan_lanes;
use staub_core::transform::transform;
use staub_core::verify::{lift_and_verify, verify_model};
use staub_core::{BatchConfig, BoundCertificate, DlSystem, LaneKind, WidthChoice};
use staub_smtlib::{canonicalize, Model, Script, Value};
use staub_solver::stn::ORIGIN;
use staub_solver::{
    is_bit_blastable, Budget, BvSession, DlWeight, SatResult, Solver, Stn, StnStatus,
};

use crate::trace::Tracer;

/// Root span of one traced constraint.
pub const ROOT: &str = "constraint";

/// Work counts of one traced constraint. Every field is deterministic for
/// a given constraint and step budget.
#[derive(Default, Clone)]
pub struct Counts {
    pub input_bytes: u64,
    pub transforms: u64,
    pub refused: u64,
    pub guards: u64,
    pub var_bits: u64,
    pub lint_findings: u64,
    pub bv_steps: u64,
    pub bv_clauses: u64,
    pub bv_propagations: u64,
    pub bv_conflicts: u64,
    pub arith_steps: u64,
    pub arith_contractions: u64,
    pub arith_pivots: u64,
    pub arith_bb_nodes: u64,
    pub stn_edges: u64,
    pub bounded_sat: u64,
    pub verified: u64,
    /// Wall time of the baseline alone (not a count; never compared).
    pub baseline: std::time::Duration,
}

impl Counts {
    /// The counts later changes may cite, as one comparable string.
    pub fn fingerprint(&self) -> String {
        format!(
            "bv_steps={} arith_steps={} clauses={} propagations={} guards={} stn_edges={}",
            self.bv_steps,
            self.arith_steps,
            self.bv_clauses,
            self.bv_propagations,
            self.guards,
            self.stn_edges
        )
    }

    pub fn add(&mut self, o: &Counts) {
        self.input_bytes += o.input_bytes;
        self.transforms += o.transforms;
        self.refused += o.refused;
        self.guards += o.guards;
        self.var_bits += o.var_bits;
        self.lint_findings += o.lint_findings;
        self.bv_steps += o.bv_steps;
        self.bv_clauses += o.bv_clauses;
        self.bv_propagations += o.bv_propagations;
        self.bv_conflicts += o.bv_conflicts;
        self.arith_steps += o.arith_steps;
        self.arith_contractions += o.arith_contractions;
        self.arith_pivots += o.arith_pivots;
        self.arith_bb_nodes += o.arith_bb_nodes;
        self.stn_edges += o.stn_edges;
        self.bounded_sat += o.bounded_sat;
        self.verified += o.verified;
    }
}

/// Runs the traced pass on one constraint text. The `solver.arith` span
/// is the baseline alone on the original, the numerator of the portfolio
/// speedup.
pub fn trace_constraint(
    tr: &mut Tracer,
    cid: u64,
    text: &str,
    config: &BatchConfig,
) -> Result<Counts, String> {
    let mut c = Counts {
        input_bytes: text.len() as u64,
        ..Counts::default()
    };
    tr.begin(ROOT, cid);
    let result = layers(tr, text, config, &mut c);
    tr.end();
    result.map(|()| c)
}

fn layers(tr: &mut Tracer, text: &str, config: &BatchConfig, c: &mut Counts) -> Result<(), String> {
    let script = tr
        .span("smtlib.parse", || Script::parse(text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.span("smtlib.canon", || black_box(canonicalize(&script)));
    let (bounds, cert, dl) = tr.span("core.absint", || {
        (infer(&script), certify(&script), difference_logic(&script))
    });
    let lanes = tr.span("core.sched.plan", || plan_lanes(&script, config));
    let profile = *config.profiles.first().ok_or("no solver profile")?;
    let budget = || Budget::new(config.timeout, config.steps);

    // The first profile's lanes in plan order, one after another, up to
    // the first sound answer. Bounded rungs share one warm `BvSession`,
    // created and dropped inside `solver.bv` spans: its set-up and
    // teardown are that layer's work.
    let mut engine: Option<BvSession> = None;
    for lane in lanes.iter().filter(|l| l.profile == profile) {
        let decided = match lane.kind {
            // Run last, alone: the speedup's numerator.
            LaneKind::Baseline => false,
            LaneKind::DiffLogic => {
                let sys = dl
                    .as_ref()
                    .ok_or("a dl lane was planned without a dl system")?;
                dl_lane(tr, &script, sys, &budget(), c)
            }
            LaneKind::Staub { width, .. } => {
                let rung = Rung {
                    width,
                    promote_at: None,
                };
                bounded_rung(tr, &script, &bounds, &cert, rung, config, &mut engine, c)
            }
            LaneKind::Complete { width } => {
                let rung = Rung {
                    width: WidthChoice::Fixed(width),
                    promote_at: Some(width),
                };
                bounded_rung(tr, &script, &bounds, &cert, rung, config, &mut engine, c)
            }
            LaneKind::Refine { .. } => return Err("refine lanes are not traced".into()),
        };
        if decided {
            break;
        }
    }
    tr.span("solver.bv", || drop(engine));

    // The baseline alone on the original, the speedup's numerator.
    let b = budget();
    let t = std::time::Instant::now();
    let outcome = tr.span("solver.arith", || {
        Solver::new(profile).solve_with_budget(&script, &b)
    });
    c.baseline = t.elapsed();
    c.arith_steps += b.steps_used();
    c.arith_contractions += outcome.stats.contractions;
    c.arith_pivots += outcome.stats.pivots;
    c.arith_bb_nodes += outcome.stats.bb_nodes;
    Ok(())
}

/// The difference-logic lane: the STN over the detector's edges, then the
/// exact check of its solution or the lint of its negative cycle. Returns
/// whether it decided the constraint.
fn dl_lane(tr: &mut Tracer, script: &Script, sys: &DlSystem, b: &Budget, c: &mut Counts) -> bool {
    let (status, stn, node_of) = tr.span("solver.stn", || {
        let mut stn = Stn::new();
        let node_of: HashMap<_, u32> = sys.vars.iter().map(|&s| (s, stn.add_node())).collect();
        let node = |end: &Option<_>| end.map_or(ORIGIN, |s| node_of[&s]);
        let mut status = StnStatus::Feasible;
        for e in &sys.edges {
            // `x - y <= c` is the STN edge `y -> x` weighted `c`.
            let w = DlWeight::new(e.bound.clone(), e.strict);
            status = stn.assert_edge(node(&e.y), node(&e.x), w, b);
            if status != StnStatus::Feasible {
                break;
            }
        }
        (status, stn, node_of)
    });
    c.stn_edges += stn.num_edges() as u64;
    match status {
        StnStatus::Feasible => tr.span("core.verify", || {
            let vals = stn.solution();
            let origin = &vals[ORIGIN as usize];
            let mut model = Model::new();
            for &sym in &sys.vars {
                let v = &vals[node_of[&sym] as usize] - origin;
                let value = match (sys.is_int, v.is_integer()) {
                    (true, true) => Value::Int(v.numer().clone()),
                    (true, false) => return false,
                    (false, _) => Value::Real(v),
                };
                model.insert(sym, value);
            }
            verify_model(script, &model)
        }),
        StnStatus::Infeasible => {
            let cycle: Vec<_> = stn
                .cycle()
                .iter()
                .map(|&i| sys.edges[i as usize].clone())
                .collect();
            let report = tr.span("lint", || check_dl_certificate(script, &cycle));
            c.lint_findings += report.findings.len() as u64;
            report.is_clean()
        }
        StnStatus::Exhausted => false,
    }
}

/// One bounded rung: the width it transforms at and, for the complete
/// lane, the certified width at which a bounded unsat may be promoted.
struct Rung {
    width: WidthChoice,
    promote_at: Option<u32>,
}

/// Transform, lint, bounded solve, and the check of its answer. Returns
/// whether the rung decided the constraint.
#[allow(clippy::too_many_arguments)]
fn bounded_rung(
    tr: &mut Tracer,
    script: &Script,
    bounds: &InferredBounds,
    cert: &BoundCertificate,
    rung: Rung,
    config: &BatchConfig,
    engine: &mut Option<BvSession>,
    c: &mut Counts,
) -> bool {
    let profile = config.profiles[0];
    c.transforms += 1;
    let tf = tr.span("core.transform", || {
        transform(script, bounds, rung.width, &config.limits)
    });
    let Ok(tf) = tf else {
        c.refused += 1;
        return false;
    };
    c.guards += tf.guard_count as u64;
    c.var_bits += tf
        .var_widths
        .iter()
        .map(|(_, w)| u64::from(*w))
        .sum::<u64>();
    let report = tr.span("lint", || check_transformed(script, &tf));
    c.lint_findings += report.findings.len() as u64;

    let b = Budget::new(config.timeout, config.steps);
    let (result, stats) = tr.span("solver.bv", || {
        if is_bit_blastable(&tf.script) {
            engine
                .get_or_insert_with(|| BvSession::new(profile.sat_config()))
                .check(&tf.script, &b)
        } else {
            let o = Solver::new(profile).solve_with_budget(&tf.script, &b);
            (o.result, o.stats)
        }
    });
    c.bv_steps += b.steps_used();
    c.bv_clauses += stats.clauses;
    c.bv_propagations += stats.propagations;
    c.bv_conflicts += stats.conflicts;
    let report = match (result, rung.promote_at) {
        (SatResult::Sat(m), _) => {
            c.bounded_sat += 1;
            let Some(model) = tr.span("core.verify", || lift_and_verify(script, &tf, &m)) else {
                return false;
            };
            c.verified += 1;
            tr.span("lint", || check_model(script, &model))
        }
        (SatResult::Unsat, Some(w)) => tr.span("lint", || check_certificate(script, cert, Some(w))),
        _ => return false,
    };
    c.lint_findings += report.findings.len() as u64;
    report.is_clean()
}

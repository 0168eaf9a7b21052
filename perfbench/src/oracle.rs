//! The correctness oracle. It shares no code with `staub-core`: a `sat`
//! model is re-evaluated exactly against a fresh parse of the original
//! text with `staub_smtlib`'s evaluator, and an `unsat` is checked against
//! the generator's ground truth where it is known.

use staub_smtlib::{evaluate, Model, Script, Value};

/// Checks one verdict. `model` is keyed by symbol name. Returns why the
/// verdict is wrong, or `None` when it holds.
pub fn check(
    text: &str,
    expected: Option<bool>,
    verdict: &str,
    model: Option<&[(String, Value)]>,
) -> Option<String> {
    match verdict {
        "sat" => {
            if expected == Some(false) {
                return Some("sat on a constraint known to be unsat".into());
            }
            let Some(bindings) = model else {
                return Some("sat without a model".into());
            };
            let script = match Script::parse(text) {
                Ok(s) => s,
                Err(e) => return Some(format!("original does not parse: {e}")),
            };
            let store = script.store();
            let mut m = Model::new();
            for (name, value) in bindings {
                if let Some(sym) = store.symbol(name) {
                    m.insert(sym, value.clone());
                }
            }
            for &a in script.assertions() {
                match evaluate(store, a, &m) {
                    Ok(Value::Bool(true)) => {}
                    Ok(other) => return Some(format!("model makes an assertion {other:?}")),
                    Err(e) => return Some(format!("model does not evaluate: {e}")),
                }
            }
            None
        }
        "unsat" if expected == Some(true) => Some("unsat on a constraint known to be sat".into()),
        "unsat" | "unknown" => None,
        other => Some(format!("not a verdict: {other}")),
    }
}

/// A model keyed by the solving script's symbols, re-keyed by name.
pub fn named(script: &Script, model: &Model) -> Vec<(String, Value)> {
    model
        .iter()
        .map(|(sym, v)| (script.store().symbol_name(sym).to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use staub_numeric::BigInt;

    const SQUARE: &str = "(declare-fun x () Int)(assert (= (* x x) 49))(check-sat)";

    #[test]
    fn models_are_evaluated_exactly() {
        let seven = [("x".to_string(), Value::Int(BigInt::from(7)))];
        let eight = [("x".to_string(), Value::Int(BigInt::from(8)))];
        assert_eq!(check(SQUARE, None, "sat", Some(&seven)), None);
        assert!(check(SQUARE, None, "sat", Some(&eight)).is_some());
        assert!(check(SQUARE, None, "sat", None).is_some());
    }

    #[test]
    fn unsat_is_checked_against_ground_truth() {
        assert!(check(SQUARE, Some(true), "unsat", None).is_some());
        assert_eq!(check(SQUARE, None, "unsat", None), None);
        assert_eq!(check(SQUARE, Some(true), "unknown", None), None);
    }
}

//! The determinism guard across runs: every run records, per request, the
//! decided verdict and (traced runs) the deterministic work counts, and
//! compares them with what an earlier run of the same code, workload and
//! seed recorded in the state directory. "The same code" is the hash of
//! the built sources: a change that legitimately moves a verdict or a
//! count starts a fresh record instead of failing against the old one.

use std::collections::BTreeMap;
use std::path::Path;

use crate::report::Outcome;

pub fn check_and_record(
    state_dir: &Path,
    source: &str,
    workload: &str,
    seed: u64,
    entries: &BTreeMap<String, String>,
    out: &mut Outcome,
) {
    let dir = state_dir.join("determinism");
    let path = dir.join(format!("{workload}-seed{seed}-{source}.tsv"));
    let mut merged: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                merged.insert(k.to_string(), v.to_string());
            }
        }
    }
    let mut compared = 0usize;
    let mut mismatches = Vec::new();
    for (k, v) in entries {
        if let Some(old) = merged.get(k) {
            compared += 1;
            if old != v {
                mismatches.push(format!("{k}: earlier run {old:?}, this run {v:?}"));
            }
        }
        merged.insert(k.clone(), v.clone());
    }
    out.samples("determinism.compared", compared);
    if !mismatches.is_empty() {
        out.problem(format!(
            "same seed, different outcome on {} of {compared} compared entries, first: {}",
            mismatches.len(),
            mismatches[0]
        ));
    }
    let text: String = merged.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        out.problem(format!("cannot write {}: {e}", path.display()));
    }
}

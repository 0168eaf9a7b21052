//! Workload inputs, generated from the benchmark seed. The program under
//! test only ever sees the SMT-LIB text built here.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use staub_benchgen::{generate, generate_dl, generate_linear, Benchmark, SuiteKind};

/// One constraint of a workload pool.
pub struct Item {
    pub name: String,
    pub text: String,
    /// Ground truth from the generator, when it knows it.
    pub expected: Option<bool>,
    /// Declared symbol names, for α-renaming.
    vars: Vec<String>,
}

impl Item {
    fn from_benchmark(b: &Benchmark) -> Item {
        let store = b.script.store();
        Item {
            name: b.name.clone(),
            text: b.script.to_string(),
            expected: b.expected,
            vars: store
                .symbols()
                .map(|s| store.symbol_name(s).to_string())
                .collect(),
        }
    }

    /// The same constraint with every declared symbol renamed by `tag`:
    /// equal up to α-renaming, so a canonicalizing cache sees a repeat but
    /// the text differs.
    pub fn renamed(&self, tag: u64) -> String {
        if tag == 0 {
            return self.text.clone();
        }
        self.rewrite(|_, name| format!("{name}_r{tag}"))
    }

    /// The text with each declared symbol named after its place in the
    /// declarations: constraints equal up to α-renaming share it.
    fn shape(&self) -> String {
        self.rewrite(|i, _| format!("_{i}"))
    }

    /// The text with each declared symbol `name`, declared `i`-th,
    /// written `rename(i, name)`.
    fn rewrite(&self, rename: impl Fn(usize, &str) -> String) -> String {
        let mut out = String::with_capacity(self.text.len() + 8 * self.vars.len());
        let mut token = String::new();
        let flush = |token: &mut String, out: &mut String| {
            if !token.is_empty() {
                match self.vars.iter().position(|v| v == token) {
                    Some(i) => out.push_str(&rename(i, token)),
                    None => out.push_str(token),
                }
                token.clear();
            }
        };
        for c in self.text.chars() {
            if c == '(' || c == ')' || c.is_whitespace() {
                flush(&mut token, &mut out);
                out.push(c);
            } else {
                token.push(c);
            }
        }
        flush(&mut token, &mut out);
        out
    }
}

/// The paper's Table 2/3 logic proportions (QF_NIA : QF_LIA : QF_NRA :
/// QF_LRA = 64 : 36 : 28 : 12).
const PAPER_MIX: [(SuiteKind, usize); 4] = [
    (SuiteKind::QfNia, 64),
    (SuiteKind::QfLia, 36),
    (SuiteKind::QfNra, 28),
    (SuiteKind::QfLra, 12),
];

/// Coefficient magnitude of the unsat-biased linear family.
const LINEAR_COEFF: i64 = 50;

/// `paper-suites`: `scale` copies of the paper mix, interleaved so that
/// any prefix of the pool keeps the 64:36:28:12 proportions.
pub fn paper_suites(seed: u64, scale: usize) -> Vec<Item> {
    let suites: Vec<Vec<Benchmark>> = PAPER_MIX
        .iter()
        .map(|&(kind, n)| generate(kind, n * scale, seed))
        .collect();
    interleave(suites)
        .iter()
        .map(Item::from_benchmark)
        .collect()
}

/// `linear-decide`: the difference-logic, unsat-biased linear, QF_LIA and
/// QF_LRA families in equal shares, `per_family` each. The large QF_LIA
/// instances (see [`is_large`]) come from a fixed seed and are spread
/// evenly through each chunk, so every seed has the same ones in about
/// the same places.
pub fn linear_decide(seed: u64, per_family: usize) -> Vec<Item> {
    chunked(seed, per_family, |n, s, c| {
        let (_, lia): (Vec<_>, Vec<_>) = generate(SuiteKind::QfLia, n, s)
            .into_iter()
            .partition(is_large);
        let (large, _): (Vec<_>, Vec<_>) =
            generate(SuiteKind::QfLia, n, LARGE_SEED.wrapping_add(c))
                .into_iter()
                .partition(is_large);
        let lia = interleave(vec![lia, large]);
        vec![
            generate_dl(n, s),
            generate_linear(n, s, LINEAR_COEFF),
            lia,
            generate(SuiteKind::QfLra, n, s),
        ]
    })
}

/// Seed of `linear-decide`'s large instances.
const LARGE_SEED: u64 = 0x004c_4152_4745;

/// The large QF_LIA instances: underdetermined planted systems over four
/// variables (at most three equations), about 1 in 25 QF_LIA instances.
/// About 1 in 50 of them ends `unknown` after blasting encodings that need
/// 15 to 40 MiB, the only instances of `linear-decide` that need more
/// than 2 MiB. A run meets about five. Drawn by the seed, their number
/// and size moved `peak_rss_mib` between 63 and 112 MiB over ten seeds;
/// drawn from a fixed seed, every run meets the same ones.
fn is_large(b: &Benchmark) -> bool {
    b.family == "system"
        && b.script.store().symbols().count() == 4
        && b.script.assertions().len() <= 3
}

/// `serve-mix` first-seen constraints: the small families that decide in
/// about a millisecond, so a miss measures the request path rather than a
/// long solve.
pub fn serve_fresh(seed: u64, per_family: usize) -> Vec<Item> {
    chunked(seed, per_family, |n, s, _| {
        vec![
            generate_dl(n, s),
            generate_linear(n, s, LINEAR_COEFF),
            generate(SuiteKind::QfLra, n, s),
        ]
    })
}

/// Constraints generated per family at a time. A generated constraint
/// holds its own term store, several times the size of its text, so a
/// large pool is built a chunk at a time.
const CHUNK: usize = 1_000;

/// `per_family` constraints of each family `make(n, seed, chunk)`
/// returns, made in chunks of [`CHUNK`] under seeds derived from `seed`. Each chunk is
/// interleaved, and its names carry the chunk number so they stay unique.
/// A constraint equal up to α-renaming to an earlier one is left out, so
/// no input of the pool repeats another.
fn chunked(
    seed: u64,
    per_family: usize,
    make: impl Fn(usize, u64, u64) -> Vec<Vec<Benchmark>>,
) -> Vec<Item> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for c in 0..per_family.div_ceil(CHUNK) {
        let n = CHUNK.min(per_family - c * CHUNK);
        let chunk_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(c as u64);
        for b in interleave(make(n, chunk_seed, c as u64)) {
            let mut item = Item::from_benchmark(&b);
            let mut h = DefaultHasher::new();
            item.shape().hash(&mut h);
            if seen.insert(h.finish()) {
                item.name = format!("{c}/{}", item.name);
                out.push(item);
            }
        }
    }
    out
}

/// Merges suites so that every prefix holds each suite in proportion to
/// its size (largest-remainder order), keeping each suite's own order.
fn interleave<T>(suites: Vec<Vec<T>>) -> Vec<T> {
    let sizes: Vec<usize> = suites.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let mut suites: Vec<_> = suites.into_iter().map(Vec::into_iter).collect();
    let mut taken = vec![0usize; sizes.len()];
    let mut out = Vec::with_capacity(total);
    for k in 1..=total {
        // Pick the suite furthest behind its proportional share of `k`.
        let (i, _) = sizes
            .iter()
            .enumerate()
            .filter(|&(i, &n)| taken[i] < n)
            .map(|(i, &n)| (i, (k * n) as f64 / total as f64 - taken[i] as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("k <= total leaves a suite with items");
        out.extend(suites[i].next());
        taken[i] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_structure_and_changes_names() {
        let pool = linear_decide(3, 2);
        for item in &pool {
            let renamed = item.renamed(7);
            assert_ne!(renamed, item.text);
            let a = staub_smtlib::Script::parse(&item.text).unwrap();
            let b = staub_smtlib::Script::parse(&renamed).unwrap();
            assert_eq!(
                staub_smtlib::canonicalize(&a).key,
                staub_smtlib::canonicalize(&b).key
            );
        }
    }

    #[test]
    fn large_instances_do_not_follow_the_seed() {
        let large = |seed| -> Vec<String> {
            linear_decide(seed, 1_000)
                .into_iter()
                .filter(|i| {
                    i.name.contains("lia/system")
                        && i.vars.len() == 4
                        && i.text.matches("(assert").count() <= 3
                })
                .map(|i| i.text)
                .collect()
        };
        let a = large(1);
        assert!(a.len() > 10);
        assert_eq!(a, large(2));
    }

    #[test]
    fn interleaving_keeps_proportions_in_prefixes() {
        let pool = paper_suites(1, 1);
        assert_eq!(pool.len(), 140);
        let nia = pool[..35]
            .iter()
            .filter(|i| i.name.starts_with("nia"))
            .count();
        assert_eq!(nia, 16);
    }
}

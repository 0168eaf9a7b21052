//! Lightweight thread-safe metrics registry for pipeline observability.
//!
//! The STAUB paper's argument is an *accounting* argument: theory arbitrage
//! wins because time spent in the bounded theory (bit-blasting + SAT) plus
//! verification is smaller than time spent in the unbounded theory
//! (simplex, branch-and-bound, ICP). This module makes that accounting
//! observable in-process: a [`Metrics`] registry holds named counters,
//! gauges, and log₂-bucketed duration histograms; the scheduler records
//! per-lane events ([`crate::sched::run_batch_with`]), and the solver
//! facade's [`SolverStats`] counters are folded in via
//! [`Metrics::record_solver`]. A [`MetricsSnapshot`] renders the whole
//! registry as human-readable text (`staub stats`) or machine-readable
//! JSON (bench artifacts).
//!
//! Overhead: every recording method checks the `enabled` flag before
//! touching the mutex, so a disabled registry costs one branch per call
//! site. An enabled registry costs one short mutex acquisition per event —
//! events are per-stage and per-lane (tens per constraint), never
//! per-solver-step, so overhead stays well under 5% of solve time.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use staub_solver::SolverStats;

/// Number of log₂ microsecond buckets in a duration histogram
/// (bucket 39 holds everything above ~2^38 µs ≈ 3 days).
const BUCKETS: usize = 40;

/// A duration histogram: count/sum/min/max plus log₂-of-microseconds
/// buckets, so tail latencies survive aggregation without storing samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_us: u64,
    /// Smallest observation, in microseconds.
    pub min_us: u64,
    /// Largest observation, in microseconds.
    pub max_us: u64,
    /// `buckets[i]` counts observations with `floor(log2(us)) == i`
    /// (bucket 0 additionally holds sub-microsecond observations).
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    fn observe_us(&mut self, us: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let bucket = if us <= 1 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of named counters, gauges, and duration
/// histograms.
///
/// Cheap to share behind an `Arc`; a registry created with
/// [`Metrics::disabled`] turns every recording call into a single branch,
/// which is what [`crate::Staub`] uses by default so un-instrumented runs
/// pay nothing.
///
/// # Examples
///
/// ```
/// use staub_core::metrics::Metrics;
///
/// let m = Metrics::new();
/// m.incr("pipeline.runs", 1);
/// let answer = m.time("stage.solve", || 42);
/// assert_eq!(answer, 42);
/// let snap = m.snapshot();
/// assert_eq!(snap.counters["pipeline.runs"], 1);
/// assert_eq!(snap.histograms["stage.solve"].count, 1);
/// ```
#[derive(Debug)]
pub struct Metrics {
    enabled: bool,
    inner: Mutex<Inner>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// An enabled registry.
    pub fn new() -> Metrics {
        Metrics {
            enabled: true,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A registry that records nothing (every call is one branch).
    pub fn disabled() -> Metrics {
        Metrics {
            enabled: false,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this registry records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn with_inner(&self, f: impl FnOnce(&mut Inner)) {
        if self.enabled {
            f(&mut self.inner.lock().expect("metrics lock"));
        }
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        self.with_inner(|inner| {
            *inner.counters.entry(name.to_string()).or_insert(0) += by;
        });
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.with_inner(|inner| {
            inner.gauges.insert(name.to_string(), value);
        });
    }

    /// Records one duration observation into the histogram `name`.
    pub fn observe(&self, name: &str, d: Duration) {
        self.with_inner(|inner| {
            inner
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe_us(d.as_micros().min(u64::MAX as u128) as u64);
        });
    }

    /// Runs `f`, recording its wall-clock duration into the histogram
    /// `name` when enabled. When disabled, `f` runs untimed.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        self.observe(name, start.elapsed());
        out
    }

    /// Folds every [`SolverStats`] counter into counters named
    /// `<prefix>.<field>` (e.g. `solver.bounded.decisions`).
    pub fn record_solver(&self, prefix: &str, stats: &SolverStats) {
        self.with_inner(|inner| {
            for (field, value) in stats.fields() {
                if value > 0 {
                    *inner
                        .counters
                        .entry(format!("{prefix}.{field}"))
                        .or_insert(0) += value;
                }
            }
        });
    }

    /// An immutable copy of the registry's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// Point-in-time copy of a [`Metrics`] registry, ready for rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Duration histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as one machine-readable JSON object:
    /// `{"counters":{...},"gauges":{...},"durations":{name:{"count":..,
    /// "total_us":..,"mean_us":..,"min_us":..,"max_us":..}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&value.to_string());
        }
        out.push_str("},\"durations\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&format!(
                "{{\"count\":{},\"total_us\":{},\"mean_us\":{},\"min_us\":{},\"max_us\":{}}}",
                h.count,
                h.sum_us,
                h.mean_us(),
                if h.count == 0 { 0 } else { h.min_us },
                h.max_us,
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Appends `"name":` with JSON string escaping.
fn push_json_key(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\":");
}

/// Renders `us` microseconds with an adaptive unit (µs/ms/s).
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Human-readable breakdown: histograms (the stage spans) first, then
    /// counters, then gauges — the order `staub stats` wants.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "{:<32} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "total", "mean", "min", "max"
            )?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "{:<32} {:>7} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    fmt_us(h.sum_us),
                    fmt_us(h.mean_us()),
                    fmt_us(if h.count == 0 { 0 } else { h.min_us }),
                    fmt_us(h.max_us),
                )?;
            }
        }
        if !self.counters.is_empty() {
            if !self.histograms.is_empty() {
                writeln!(f)?;
            }
            writeln!(f, "{:<48} {:>12}", "counter", "value")?;
            for (name, value) in &self.counters {
                writeln!(f, "{name:<48} {value:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f)?;
            writeln!(f, "{:<48} {:>12}", "gauge", "value")?;
            for (name, value) in &self.gauges {
                writeln!(f, "{name:<48} {value:>12}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.incr("a", 1);
        m.incr("a", 2);
        m.incr("b", 5);
        let snap = m.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.counters["b"], 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = Metrics::new();
        m.gauge_set("g", 7);
        m.gauge_set("g", -3);
        assert_eq!(m.snapshot().gauges["g"], -3);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        m.observe("h", Duration::from_micros(1));
        m.observe("h", Duration::from_micros(100));
        m.observe("h", Duration::from_millis(3));
        let h = &m.snapshot().histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min_us, 1);
        assert_eq!(h.max_us, 3000);
        assert_eq!(h.sum_us, 3101);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        // 100µs lands in bucket floor(log2(100)) = 6.
        assert_eq!(h.buckets[6], 1);
    }

    #[test]
    fn time_records_and_returns() {
        let m = Metrics::new();
        let v = m.time("t", || 5 + 5);
        assert_eq!(v, 10);
        assert_eq!(m.snapshot().histograms["t"].count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        m.incr("a", 1);
        m.gauge_set("g", 1);
        m.observe("h", Duration::from_secs(1));
        assert_eq!(m.time("t", || 3), 3);
        assert!(m.snapshot().is_empty());
        assert!(!m.is_enabled());
    }

    #[test]
    fn record_solver_prefixes_fields() {
        let m = Metrics::new();
        let stats = SolverStats {
            decisions: 4,
            conflicts: 2,
            subsumed: 3,
            strengthened: 5,
            ..Default::default()
        };
        m.record_solver("solver.bounded", &stats);
        m.record_solver("solver.bounded", &stats);
        let snap = m.snapshot();
        assert_eq!(snap.counters["solver.bounded.decisions"], 8);
        assert_eq!(snap.counters["solver.bounded.conflicts"], 4);
        // The inprocessing counters ride the same generic fields() path.
        assert_eq!(snap.counters["solver.bounded.subsumed"], 6);
        assert_eq!(snap.counters["solver.bounded.strengthened"], 10);
        // Zero-valued fields are elided.
        assert!(!snap.counters.contains_key("solver.bounded.pivots"));
    }

    #[test]
    fn snapshot_json_shape() {
        let m = Metrics::new();
        m.incr("runs", 2);
        m.observe("stage.solve", Duration::from_micros(50));
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"runs\":2"));
        assert!(json.contains("\"stage.solve\":{\"count\":1"));
        assert!(json.ends_with("}}"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.incr("races", 1);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counters["races"], 8000);
    }

    #[test]
    fn display_renders_sections() {
        let m = Metrics::new();
        m.incr("c", 1);
        m.observe("h", Duration::from_micros(10));
        let text = m.snapshot().to_string();
        assert!(text.contains("span"));
        assert!(text.contains("counter"));
        assert!(text.contains("10µs"));
    }
}

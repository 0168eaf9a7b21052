//! Run results: metric lists, percentiles, the run record, and the final
//! JSON result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (constraints solved or requests sent).
    pub attempted: u64,
    /// Operations that failed: wrong or unsound verdicts, malformed
    /// replies, transport errors, `overloaded` replies.
    pub failed: u64,
    /// Benchmark-level check failures (tally mismatches, determinism
    /// breaks, deadline-decided lanes). Any entry makes `correct` false.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample count behind each percentile metric, for the run record.
    pub samples: Vec<(String, usize)>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_string(), n));
    }

    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }

    /// The result object, printed as the last stdout line.
    pub fn result_json(&self) -> String {
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a ratio with an empty base is 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples, in
/// the samples' own unit; `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0.0` when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Windows a run's samples are split into, in completion order, each
/// holding an equal share. Timing metrics are the median over windows of
/// each window's figure, so a burst of machine noise or a stretch in
/// another scheduling regime moves one window, not the result.
pub const WINDOWS: usize = 5;

/// Samples of one class, each with its completion time since the
/// measured period began.
#[derive(Default)]
pub struct Series {
    samples: Vec<(f64, f64)>,
}

impl Series {
    pub fn push(&mut self, at: Duration, value: f64) {
        self.samples.push((at.as_secs_f64(), value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Equal-count windows in completion order, each with the completion
    /// time of its last sample.
    fn windows(&self) -> Vec<(f64, Vec<f64>)> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = sorted.len();
        (0..WINDOWS)
            .map(|w| {
                let chunk = &sorted[w * n / WINDOWS..(w + 1) * n / WINDOWS];
                (
                    chunk.last().map_or(0.0, |s| s.0),
                    chunk.iter().map(|s| s.1).collect(),
                )
            })
            .collect()
    }

    /// Percentile `p`: the median of the per-window percentiles when each
    /// window holds ten samples beyond `p`, else over all samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let need = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
        if self.len() / WINDOWS < need {
            let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
            return percentile(&all, p);
        }
        median(
            &self
                .windows()
                .iter()
                .map(|(_, w)| percentile(w, p))
                .collect::<Vec<_>>(),
        )
    }

    /// Samples per second: the median over windows.
    pub fn rate(&self) -> f64 {
        let mut from = 0.0;
        let rates: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|(to, w)| {
                let r = ratio(w.len() as f64, to - from);
                from = to;
                r
            })
            .collect();
        median(&rates)
    }
}

/// SplitMix64: request mixes reproducible from the seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A `/proc/<pid>/status` field in MiB (`VmHWM`, `VmRSS`).
fn status_mib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak RSS of a solving process while it is measured: `VmHWM`, reset
/// through `/proc/<pid>/clear_refs` when measuring starts. With
/// `less_base`, the RSS the process held at the start is taken off, so
/// the figure is what solving added to it (the batch workloads hold
/// their corpus in the solving process).
pub struct PeakRss {
    pid: String,
    base: Option<f64>,
    reset: bool,
}

impl PeakRss {
    pub fn start(pid: String, less_base: bool) -> PeakRss {
        let base = if less_base {
            status_mib(&pid, "VmRSS:")
        } else {
            Some(0.0)
        };
        let reset = reset_hwm(&pid);
        PeakRss { pid, base, reset }
    }

    /// The figure so far, in MiB; `None` when `/proc` could not be read
    /// or `VmHWM` not reset.
    pub fn read(&self) -> Option<f64> {
        let peak = status_mib(&self.pid, "VmHWM:")?;
        self.reset.then_some(peak - self.base?)
    }
}

/// Resets `VmHWM` to the current RSS.
fn reset_hwm(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

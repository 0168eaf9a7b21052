//! The batch workloads (`paper-suites`, `linear-decide`): each constraint
//! text goes through `staub_core::run_one_with`, timed around its own call.
//!
//! Requests take the pool in order, and the pool is sized so that a run
//! does not spend it: no input repeats, so nothing a cache could reuse.
//! Should a run spend it, the pool is replayed under new names. There is
//! no answer cache on this path, so every request is a miss; the `hit_*`
//! metrics are taken over the same samples as `miss_*`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use staub_core::{run_one_with, BatchConfig, BatchReport, BatchVerdict, LaneKind, RunOptions};
use staub_service::solve_request;
use staub_smtlib::Script;

use crate::corpus::Item;
use crate::layers::{self, Counts};
use crate::replay::{self, Line};
use crate::report::{median, ms, percentile, ratio, us, Outcome, PeakRss, Series};
use crate::trace::Tracer;
use crate::{Ctx, BATCH_SETUP_REPS, HARD_STOP};

/// Runs a batch workload. With `peak_requests`, `peak_rss_mib` is taken
/// over that many requests, the same work on every run, and an untraced
/// run goes on past `--seconds` until it has made them; without, it is
/// taken over the whole run.
pub fn run(ctx: &Ctx, make_pool: impl Fn() -> Vec<Item>, peak_requests: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    // One untimed generation first, so that every timed one starts from a
    // heap that has held a pool before, not the first from a fresh one.
    let mut pool = make_pool();
    for _ in 0..BATCH_SETUP_REPS {
        // The last pool is freed first, so the next one takes its place
        // rather than leaving a pool's worth of freed memory behind.
        drop(std::mem::take(&mut pool));
        let t = Instant::now();
        pool = make_pool();
        setups.push(t.elapsed().as_secs_f64());
    }
    let n = pool.len() as u64;
    let mut runner = Runner::new(ctx);
    let measure = Duration::from_secs_f64(ctx.seconds);
    // The corpus is held before measuring starts; the figure is what the
    // solver needs on top of it.
    let rss = PeakRss::start("self".into(), true);
    // Pass `k / n` over the pool renames by that tag; pass 0 is the text
    // as generated.
    let mut k = 0u64;
    let mut peak_rss = None;
    let min_requests = peak_requests.filter(|_| !ctx.trace).unwrap_or(0);
    loop {
        let elapsed = runner.start.elapsed();
        if (elapsed >= measure && k >= min_requests) || elapsed >= HARD_STOP {
            break;
        }
        runner.request(&mut out, k, &pool[(k % n) as usize], k / n);
        k += 1;
        if Some(k) == peak_requests {
            peak_rss = rss.read();
        }
    }
    // Read before the checks, which build the per-request records.
    let peak_rss = peak_rss.or_else(|| rss.read());
    out.samples(
        "peak_rss.requests",
        peak_requests.unwrap_or(k).min(k) as usize,
    );
    runner.check(&mut out);
    if k > n {
        eprintln!(
            "perfbench: the pool of {n} was spent; {} requests replayed it",
            k - n
        );
    }

    if !ctx.trace {
        let ttv = &runner.ttv;
        // No answer cache: every request is a miss, and the hit figures
        // are those of the same samples.
        let miss_p50 = ttv.percentile(50.0);
        let miss_p99 = ttv.percentile(99.0);
        out.push("ttv_p50_ms", miss_p50, "ms");
        out.push("ttv_p90_ms", ttv.percentile(90.0), "ms");
        out.push("constraints_per_s", ttv.rate(), "1/s");
        out.push(
            "decided_frac",
            ratio(runner.decided as f64, ttv.len() as f64),
            "frac",
        );
        out.push("hit_p50_us", miss_p50 * 1e3, "us");
        out.push("hit_p99_us", miss_p99 * 1e3, "us");
        out.push("miss_p50_ms", miss_p50, "ms");
        out.push("miss_p99_ms", miss_p99, "ms");
        out.push("req_per_s", ttv.rate(), "1/s");
        out.push("setup_s", median(&setups), "s");
        match peak_rss {
            Some(mib) => out.push("peak_rss_mib", mib, "MiB"),
            None => out.problem("cannot read the benchmark's own VmHWM".into()),
        }
        out.samples("ttv", ttv.len());
        out.samples("hit", 0);
        out.samples("miss", ttv.len());
        out.samples("setup", setups.len());
        return out;
    }

    runner.trace_metrics(&mut out);
    match replay::service_layers(&runner.lines, &ctx.state_dir.join("replay-store"), &mut out) {
        Ok((replay_hits, appends)) => {
            let lines = runner.lines.len() as f64;
            out.push(
                "service.cache.hit_frac",
                ratio(replay_hits as f64, lines),
                "frac",
            );
            out.push("service.persist.appended", appends as f64, "count");
            // No server runs on this workload, so nothing can be refused.
            out.push("service.overloaded_frac", 0.0, "frac");
        }
        Err(e) => out.problem(e),
    }
    out
}

/// Solves requests through `run_one_with` one at a time, checks each
/// verdict, and (traced runs) takes each through the traced pass.
pub struct Runner<'a> {
    ctx: &'a Ctx,
    config: BatchConfig,
    options: RunOptions,
    /// Start of the measured period; samples carry their time since.
    pub start: Instant,
    pub ttv: Series,
    pub decided: u64,
    sched: Sched,
    entries: BTreeMap<String, String>,
    tracer: Tracer,
    totals: Counts,
    traced: u64,
    speedups: Vec<f64>,
    pub lines: Vec<Line>,
    done: Vec<Done<'a>>,
}

/// One answered request. Requests are kept in this form until the run
/// ends: strings made per request during the measured period would stay
/// allocated among the solver's own allocations and inflate the peak RSS
/// figure with the benchmark's bookkeeping.
struct Done<'a> {
    k: u64,
    name: &'a str,
    tag: u64,
    verdict: &'static str,
    ms: f64,
}

impl<'a> Runner<'a> {
    pub fn new(ctx: &'a Ctx) -> Runner<'a> {
        Runner {
            ctx,
            config: crate::batch_config(),
            options: RunOptions::default(),
            start: Instant::now(),
            ttv: Series::default(),
            decided: 0,
            sched: Sched::default(),
            entries: BTreeMap::new(),
            tracer: Tracer::new(),
            totals: Counts::default(),
            traced: 0,
            speedups: Vec::new(),
            lines: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Request `k`: `item` under α-renaming `tag` (0: the text as
    /// generated).
    pub fn request(&mut self, out: &mut Outcome, k: u64, item: &'a Item, tag: u64) {
        let text = item.renamed(tag);
        let name = format!("{}#{tag}", item.name);

        let t0 = Instant::now();
        let solved = Script::parse(&text).map(|s| {
            let report = run_one_with(&name, &s, &self.config, &self.options);
            (s, report)
        });
        let took = t0.elapsed();
        out.attempted += 1;
        let (script, report) = match solved {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: {name}: does not parse: {e}");
                return;
            }
        };
        let verdict = report.verdict.name();
        let model = match &report.verdict {
            BatchVerdict::Sat(m) => Some(crate::oracle::named(&script, m)),
            _ => None,
        };
        if let Some(why) = crate::oracle::check(&text, item.expected, verdict, model.as_deref()) {
            out.failed += 1;
            eprintln!("perfbench: {name}: wrong {verdict}: {why}");
        }
        if verdict != "unknown" {
            self.decided += 1;
        }
        let at = self.start.elapsed();
        self.ttv.push(at, ms(took));
        self.done.push(Done {
            k,
            name: &item.name,
            tag,
            verdict,
            ms: ms(took),
        });
        self.sched.add(&report, took, self.config.timeout);
        if !self.ctx.trace {
            return;
        }

        match layers::trace_constraint(&mut self.tracer, k, &text, &self.config) {
            Ok(c) => {
                self.speedups
                    .push(ratio(c.baseline.as_secs_f64(), took.as_secs_f64()));
                self.entries.insert(format!("c{k:07}"), c.fingerprint());
                self.totals.add(&c);
                self.traced += 1;
            }
            Err(e) => out.problem(format!("{name}: traced pass failed: {e}")),
        }
        if self.lines.len() < replay::MAX_LINES {
            self.lines.push(Line {
                request: solve_request(&name, &text, None, None, false),
                constraint: text,
                answer: match verdict {
                    "sat" => Some(model),
                    "unsat" => Some(None),
                    _ => None,
                },
            });
        }
    }

    /// The deadline and determinism guards; writes the request log, one
    /// `name, verdict, ttv_ms` line per request.
    pub fn check(&mut self, out: &mut Outcome) {
        let log: Vec<String> = self
            .done
            .iter()
            .map(|d| format!("{}#{}\t{}\t{:.3}", d.name, d.tag, d.verdict, d.ms))
            .collect();
        crate::write_lines(self.ctx, "requests", &log, out);
        for d in &self.done {
            self.entries
                .insert(format!("v{:07}", d.k), d.verdict.to_string());
        }
        if self.sched.deadline_lanes > 0 {
            out.problem(format!(
                "{} lanes ended on the wall deadline instead of the step budget",
                self.sched.deadline_lanes
            ));
        }
        let ctx = self.ctx;
        crate::determinism::check_and_record(
            &ctx.state_dir,
            &ctx.source,
            &ctx.workload,
            ctx.seed,
            &self.entries,
            out,
        );
    }

    /// Layer, scheduler, portfolio and registry metrics of a traced run;
    /// writes the spans.
    pub fn trace_metrics(&self, out: &mut Outcome) {
        layer_metrics(&self.tracer, &self.totals, self.traced, out);
        self.sched.report(out);
        out.push(
            "core.portfolio.speedup_geomean",
            geomean(&self.speedups),
            "x",
        );
        out.push("core.metrics.incr_ns", replay::metrics_incr_ns(), "ns");
        crate::write_trace(self.ctx, &self.tracer, out);
    }
}

/// Per-layer metrics from the traced pass: mean self time per traced
/// constraint, and work counts per constraint (per transform for the
/// transform counts).
pub fn layer_metrics(tracer: &Tracer, t: &Counts, traced: u64, out: &mut Outcome) {
    let selfs = tracer.self_times();
    let n = traced as f64;
    let per = |name: &str| ratio(us(selfs.get(name).copied().unwrap_or_default()), n);
    out.push("smtlib.parse_us", per("smtlib.parse"), "us");
    out.push("smtlib.canon_us", per("smtlib.canon"), "us");
    out.push(
        "smtlib.input_bytes",
        ratio(t.input_bytes as f64, n),
        "bytes",
    );
    out.push("core.absint_us", per("core.absint"), "us");
    out.push("core.sched.plan_us", per("core.sched.plan"), "us");
    out.push("lint_us", per("lint"), "us");
    out.push("lint.findings", ratio(t.lint_findings as f64, n), "count");
    out.push("core.transform_us", per("core.transform"), "us");
    let kept = (t.transforms - t.refused) as f64;
    out.push(
        "core.transform.guards",
        ratio(t.guards as f64, kept),
        "count",
    );
    out.push(
        "core.transform.var_bits",
        ratio(t.var_bits as f64, kept),
        "bits",
    );
    out.push(
        "core.transform.refused_frac",
        ratio(t.refused as f64, t.transforms as f64),
        "frac",
    );
    out.push("solver.bv_us", per("solver.bv"), "us");
    out.push("solver.bv.steps", ratio(t.bv_steps as f64, n), "count");
    out.push("solver.bv.clauses", ratio(t.bv_clauses as f64, n), "count");
    out.push(
        "solver.bv.propagations",
        ratio(t.bv_propagations as f64, n),
        "count",
    );
    out.push(
        "solver.bv.conflicts",
        ratio(t.bv_conflicts as f64, n),
        "count",
    );
    let bv_s = selfs
        .get("solver.bv")
        .copied()
        .unwrap_or_default()
        .as_secs_f64();
    out.push(
        "solver.bv.props_per_s",
        ratio(t.bv_propagations as f64, bv_s),
        "1/s",
    );
    out.push("solver.arith_us", per("solver.arith"), "us");
    out.push(
        "solver.arith.steps",
        ratio(t.arith_steps as f64, n),
        "count",
    );
    out.push(
        "solver.arith.contractions",
        ratio(t.arith_contractions as f64, n),
        "count",
    );
    out.push(
        "solver.arith.pivots",
        ratio(t.arith_pivots as f64, n),
        "count",
    );
    out.push(
        "solver.arith.bb_nodes",
        ratio(t.arith_bb_nodes as f64, n),
        "count",
    );
    out.push("solver.stn_us", per("solver.stn"), "us");
    out.push("solver.stn.edges", ratio(t.stn_edges as f64, n), "count");
    out.push("core.verify_us", per("core.verify"), "us");
    out.push(
        "core.verify.verified_frac",
        ratio(t.verified as f64, t.bounded_sat as f64),
        "frac",
    );
    let root = tracer.root_time(layers::ROOT).as_secs_f64();
    let root_self = selfs
        .get(layers::ROOT)
        .copied()
        .unwrap_or_default()
        .as_secs_f64();
    let coverage = ratio(root - root_self, root);
    out.push("trace.coverage_frac", coverage, "frac");
    out.samples("traced", traced as usize);
    if traced > 0 && coverage < 0.9 {
        out.problem(format!(
            "layer spans cover only {coverage:.3} of traced wall time"
        ));
    }
}

fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    ratio(logs.iter().sum::<f64>(), logs.len() as f64).exp()
}

/// Scheduler figures read from the returned `BatchReport`s.
#[derive(Default)]
pub struct Sched {
    constraints: u64,
    lanes: u64,
    overhead: Vec<f64>,
    wasted_steps: u64,
    all_steps: u64,
    cancel_latency: Vec<f64>,
    wins: BTreeMap<&'static str, u64>,
    pub deadline_lanes: u64,
}

/// Every lane kind, so the per-layer metric set is the same on each run.
const KINDS: [&str; 6] = ["baseline", "staub", "complete", "dl", "refine", "none"];

impl Sched {
    pub fn add(&mut self, r: &BatchReport, ttv: Duration, deadline: Duration) {
        self.constraints += 1;
        self.lanes += r.lanes.len() as u64;
        for (i, lane) in r.lanes.iter().enumerate() {
            self.all_steps += lane.steps_used;
            if Some(i) != r.winner {
                self.wasted_steps += lane.steps_used;
            }
            if let Some(l) = lane.cancel_latency {
                self.cancel_latency.push(us(l));
            }
            if lane.elapsed >= deadline {
                self.deadline_lanes += 1;
            }
        }
        let kind = match r.winner_lane() {
            None => "none",
            Some(w) => {
                self.overhead.push(us(ttv.saturating_sub(w.elapsed)));
                match w.spec.kind {
                    LaneKind::Baseline => "baseline",
                    LaneKind::Staub { .. } => "staub",
                    LaneKind::Complete { .. } => "complete",
                    LaneKind::DiffLogic => "dl",
                    LaneKind::Refine { .. } => "refine",
                }
            }
        };
        *self.wins.entry(kind).or_insert(0) += 1;
    }

    pub fn report(&self, out: &mut Outcome) {
        let n = self.constraints as f64;
        out.push("core.sched.lanes", ratio(self.lanes as f64, n), "count");
        out.push("core.sched.overhead_us", median(&self.overhead), "us");
        out.push(
            "core.sched.wasted_steps_frac",
            ratio(self.wasted_steps as f64, self.all_steps as f64),
            "frac",
        );
        out.push(
            "core.sched.cancel_latency_p90_us",
            percentile(&self.cancel_latency, 90.0),
            "us",
        );
        out.push(
            "core.sched.deadline_lanes",
            self.deadline_lanes as f64,
            "count",
        );
        for kind in KINDS {
            let wins = self.wins.get(kind).copied().unwrap_or(0) as f64;
            out.push(format!("core.sched.wins.{kind}"), ratio(wins, n), "frac");
        }
        out.samples("sched.overhead", self.overhead.len());
        out.samples("sched.cancel_latency", self.cancel_latency.len());
    }
}

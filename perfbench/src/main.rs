//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric. Usage:
//!
//! ```text
//! perfbench --workload <paper-suites|linear-decide|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--staub PATH] [--state-dir DIR]
//!           [--commit ID] [--source HASH]
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run record (nproc, commit, source hash, build profile, seed, step
//! budget, sample counts), also appended to `<state-dir>/runs.jsonl`.

mod batch;
mod corpus;
mod determinism;
mod layers;
mod oracle;
mod replay;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use staub_core::BatchConfig;

use report::Outcome;

/// Step budget of every lane. The step budget, not the wall clock, ends
/// every lane that runs out, so verdicts and counts do not depend on load.
pub const STEPS: u64 = 5_000;

/// Wall deadline of every lane: far above any lane's run time at
/// [`STEPS`], so it never decides a verdict. A lane that reaches it is
/// reported as a benchmark failure.
pub const DEADLINE: Duration = Duration::from_secs(100);

/// A run stops measuring here even short of its minimum sample counts, so
/// it always ends within three minutes.
pub const HARD_STOP: Duration = Duration::from_secs(120);

/// Set-ups per run; `setup_s` is their median. A batch set-up generates
/// the corpus (about two seconds), a serve set-up spawns a server (about
/// two milliseconds), so serve-mix takes more of them.
pub const BATCH_SETUP_REPS: usize = 5;
pub const SERVE_SETUP_REPS: usize = 31;

/// Pool sizes, each more than one run gets through, so no input repeats
/// within a run. `paper-suites` holds eight copies of the 140-constraint
/// paper mix: its costs are heavy-tailed, and with fewer distinct
/// constraints the seed alone moves the percentiles. `linear-decide`
/// draws 60,000 constraints, of which about 46,000 are distinct up to
/// α-renaming; a 30-second run on two cores solves 20,000 to 25,000.
const PAPER_SCALE: usize = 8;
const LINEAR_PER_FAMILY: usize = 15_000;

/// `linear-decide`'s `peak_rss_mib` is taken over this many requests. The
/// RSS steps up with the work done (see `README.md`), so over a fixed
/// time a faster program would read as a larger one. A run on two cores
/// gets through 12,000 to 25,000, depending on the machine's load.
/// `paper-suites` gets through about 1,000 and takes the whole run.
const LINEAR_PEAK_REQUESTS: u64 = 12_000;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub staub: Option<PathBuf>,
    pub state_dir: PathBuf,
    pub commit: String,
    /// Hash of the built sources; determinism records are kept per hash.
    pub source: String,
}

/// `BatchConfig::default()` (baseline, warm 1×/2×/4× ladder, dl and
/// complete lanes, one worker per core) at the fixed step budget.
pub fn batch_config() -> BatchConfig {
    BatchConfig {
        steps: STEPS,
        timeout: DEADLINE,
        ..BatchConfig::default()
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        staub: None,
        state_dir: PathBuf::from(".bench_build/perfbench"),
        commit: "unknown".into(),
        source: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--staub" => ctx.staub = Some(value.into()),
            "--state-dir" => ctx.state_dir = value.into(),
            "--commit" => ctx.commit = value,
            "--source" => ctx.source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.state_dir.display());
        return ExitCode::from(2);
    }
    let seed = ctx.seed;
    let outcome = match ctx.workload.as_str() {
        "paper-suites" => batch::run(&ctx, || corpus::paper_suites(seed, PAPER_SCALE), None),
        "linear-decide" => batch::run(
            &ctx,
            || corpus::linear_decide(seed, LINEAR_PER_FAMILY),
            Some(LINEAR_PEAK_REQUESTS),
        ),
        "serve-mix" => match serve::run(&ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve-mix: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let record = run_record(&ctx, &outcome);
    println!("# run {record}");
    if let Err(e) = append_line(&ctx.state_dir.join("runs.jsonl"), &record) {
        eprintln!("perfbench: cannot append the run record: {e}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

fn run_record(ctx: &Ctx, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\":{n}"))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| format!("{p:?}")).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"commit\":{:?},\"source\":{:?},\"profile\":\"{}\",\"steps\":{STEPS},\"deadline_s\":{},\
         \"samples\":{{{}}},\"problems\":[{}]}}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace),
        ctx.seconds,
        ctx.commit,
        ctx.source,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        DEADLINE.as_secs(),
        samples.join(","),
        problems.join(",")
    )
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Writes a traced run's spans beside the run records.
pub fn write_trace(ctx: &Ctx, tracer: &trace::Tracer, out: &mut Outcome) {
    let path = ctx
        .state_dir
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        out.problem(format!("cannot write {}: {e}", path.display()));
    }
}

/// Writes per-request lines beside the run records, one file per kind,
/// workload, seed and trace mode.
pub fn write_lines(ctx: &Ctx, kind: &str, lines: &[String], out: &mut Outcome) {
    let path = ctx.state_dir.join(format!(
        "{kind}-{}-seed{}-trace{}.tsv",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let mut text = lines.join("\n");
    text.push('\n');
    if let Err(e) = std::fs::write(&path, text) {
        out.problem(format!("cannot write {}: {e}", path.display()));
    }
}

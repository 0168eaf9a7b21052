//! The `serve-mix` workload: a `staub serve --workers 2 --persist <fresh
//! dir>` child process driven as a closed loop over one connection.
//! About one request in ten is a first-seen constraint (a miss: schedule,
//! solve, cache insert, log append); the rest are α-renamed repeats of
//! recently decided constraints (a hit: canon, lookup, model rebinding,
//! exact re-verify).
//!
//! The first pass decides the request sequence as it goes; [`PASSES`]
//! − 1 more passes send the same sequence to fresh servers, which hit
//! and miss at the same places. Each request's latency is the least of
//! its passes, so a stall of the shared host in one pass is not read as
//! the program's latency, while a request that is slow in every pass is.
//! Replies are audited after the loops so the client spends little CPU
//! inside them.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

use staub_numeric::{BigInt, BigRational};
use staub_service::json::{self, Json};
use staub_service::{
    audit_reply, health_request, shutdown_request, solve_request, Connection, Endpoint,
};
use staub_smtlib::{Script, Sort, Value};

use crate::batch::Runner;
use crate::corpus::{self, Item};
use crate::replay::{self, Line};
use crate::report::{median, ms, ratio, us, Outcome, PeakRss, Series, SplitMix};
use crate::{Ctx, DEADLINE, HARD_STOP, SERVE_SETUP_REPS, STEPS};

/// Passes over one request sequence in an untraced run, each on a fresh
/// server and each an eighth of the measured time. The shared host's
/// speed drifts over tens of seconds; with more passes, each request is
/// more likely to meet a quiet stretch in one of them.
const PASSES: usize = 8;
/// Share of requests that are first-seen constraints.
const FRESH_SHARE: f64 = 0.1;
/// Repeats draw from this many most recently decided constraints, far
/// fewer than the server cache holds, so a repeat is never evicted.
const REPEAT_WINDOW: usize = 512;
/// Each percentile class needs this many samples in an untraced run.
const MIN_CLASS_SAMPLES: usize = 1_000;
/// First-seen constraints drawn per family (three families; about
/// 44,000 are distinct up to α-renaming): more than a first pass uses at
/// 8,000 requests per second, so the first-seen share never runs dry.
const FRESH_PER_FAMILY: usize = 20_000;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let staub = ctx
        .staub
        .as_deref()
        .ok_or("serve-mix needs --staub <binary>")?;
    let mut out = Outcome::default();
    let pool = corpus::serve_fresh(ctx.seed, FRESH_PER_FAMILY);
    let store = |i: usize| ctx.state_dir.join(format!("serve-store-{i}"));
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SERVE_SETUP_REPS {
        let t = Instant::now();
        let s = ServerProc::spawn(staub, &store(i))?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(mut old) = server.replace(s) {
            old.stop()?;
        }
    }
    let mut server = server.expect("at least one set-up");

    let passes = if ctx.trace { 1 } else { PASSES };
    let measure = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds / passes as f64
    });
    let min_samples = if ctx.trace { 0 } else { MIN_CLASS_SAMPLES };
    let hard_stop = HARD_STOP / passes as u32;
    let (sent, first) = first_pass(
        &mut server,
        &pool,
        ctx.seed,
        measure,
        hard_stop,
        min_samples,
    )?;
    let mut runs = vec![first];
    for p in 1..passes {
        let mut fresh = ServerProc::spawn(staub, &store(SERVE_SETUP_REPS + p))?;
        runs.push(send_all(&mut fresh, &pool, &sent)?);
    }

    // Audit every reply, tally what each server should have counted, and
    // check that every pass hit and missed where the first did.
    let mut hits = Series::default();
    let mut misses = Series::default();
    let mut ttv = Series::default();
    let mut busy = 0.0;
    let mut decided = 0u64;
    let mut lines = Vec::new();
    let mut log = Vec::new();
    let audits: Vec<Vec<Audited>> = runs
        .iter()
        .map(|r| audit_all(&pool, &sent, &r.replies, ctx.trace))
        .collect();
    for (p, (r, a)) in runs.iter().zip(&audits).enumerate() {
        let tally = Health::tally(a);
        for (what, server_side, client_side) in [
            ("cache hits", r.served.hits, tally.hits),
            ("cache misses", r.served.misses, tally.misses),
            ("cache insertions", r.served.insertions, tally.insertions),
            ("persist appends", r.served.appends, tally.appends),
        ] {
            if server_side != client_side {
                out.problem(format!(
                    "pass {p}: health counts {server_side} {what}, the client {client_side}"
                ));
            }
        }
        out.attempted += r.replies.len() as u64;
    }
    let mut mismatched = 0u64;
    for (i, s) in sent.iter().enumerate() {
        let first = &audits[0][i];
        let mut failed = false;
        for (p, a) in audits.iter().map(|a| &a[i]).enumerate() {
            if let Some(why) = &a.failure {
                out.failed += 1;
                failed = true;
                if out.failed <= 5 {
                    let reply = runs[p].replies[i].reply.as_deref().unwrap_or("");
                    eprintln!("perfbench: pass {p}: {}: {why}: {reply}", pool[s.item].name);
                }
            } else if a.cache != first.cache {
                mismatched += 1;
            }
        }
        let best = runs
            .iter()
            .map(|r| r.replies[i].latency)
            .min()
            .expect("one pass at least");
        let passes_ms: Vec<String> = runs
            .iter()
            .map(|r| format!("{:.3}", ms(r.replies[i].latency)))
            .collect();
        log.push(format!(
            "r{i}\t{}\t{}\t{}\t{:.3}\t{}",
            pool[s.item].name,
            first.cache,
            first.verdict,
            ms(best),
            passes_ms.join(",")
        ));
        if failed {
            continue;
        }
        let at = runs[0].replies[i].at;
        decided += u64::from(matches!(first.verdict.as_str(), "sat" | "unsat"));
        busy += best.as_secs_f64();
        ttv.push(at, ms(best));
        if first.cache == "hit" {
            hits.push(at, us(best));
        } else {
            misses.push(at, ms(best));
        }
        if ctx.trace && lines.len() < replay::MAX_LINES {
            let text = pool[s.item].renamed(s.tag);
            lines.push(Line {
                request: solve_request(&format!("r{i}"), &text, None, None, false),
                answer: match first.verdict.as_str() {
                    "sat" => Some(first.model.clone()),
                    "unsat" => Some(None),
                    _ => None,
                },
                constraint: text,
            });
        }
    }
    if mismatched > 0 {
        out.problem(format!(
            "{mismatched} replies of later passes differ from the first pass in hit or miss"
        ));
    }
    crate::write_lines(ctx, "replies", &log, &mut out);

    if !ctx.trace {
        let rss: Vec<f64> = runs.iter().filter_map(|r| r.peak_rss).collect();
        if rss.len() < runs.len() {
            return Err("cannot read the server's VmHWM".into());
        }
        // At one connection the loop's rate is the reciprocal of the mean
        // latency.
        let rate = ratio(ttv.len() as f64, busy);
        out.push("ttv_p50_ms", ttv.percentile(50.0), "ms");
        out.push("ttv_p90_ms", ttv.percentile(90.0), "ms");
        out.push("constraints_per_s", rate, "1/s");
        out.push(
            "decided_frac",
            ratio(decided as f64, ttv.len() as f64),
            "frac",
        );
        out.push("hit_p50_us", hits.percentile(50.0), "us");
        out.push("hit_p99_us", hits.percentile(99.0), "us");
        out.push("miss_p50_ms", misses.percentile(50.0), "ms");
        out.push("miss_p99_ms", misses.percentile(99.0), "ms");
        out.push("req_per_s", rate, "1/s");
        out.push("setup_s", median(&setups), "s");
        out.push("peak_rss_mib", median(&rss), "MiB");
        out.samples("ttv", ttv.len());
        out.samples("hit", hits.len());
        out.samples("miss", misses.len());
        out.samples("setup", setups.len());
        out.samples("passes", runs.len());
        return Ok(out);
    }

    // A traced run makes one pass.
    let served = runs[0].served;
    out.push(
        "service.cache.hit_frac",
        ratio(served.hits as f64, (served.hits + served.misses) as f64),
        "frac",
    );
    out.push("service.persist.appended", served.appends as f64, "count");
    out.push(
        "service.overloaded_frac",
        ratio(served.overloaded as f64, served.requests as f64),
        "frac",
    );
    replay::service_layers(&lines, &ctx.state_dir.join("replay-store"), &mut out)?;

    // The solver layers, traced in process over the first-seen constraints
    // in pool order for the rest of the run.
    let mut runner = Runner::new(ctx);
    let start = Instant::now();
    for (k, item) in pool.iter().enumerate() {
        if start.elapsed() >= measure {
            break;
        }
        runner.request(&mut out, k as u64, item, 0);
    }
    runner.check(&mut out);
    runner.trace_metrics(&mut out);
    Ok(out)
}

/// One request of the sequence: which constraint, under which renaming.
/// The `i`-th request of a pass has id `r<i>`.
#[derive(Clone, Copy)]
struct Sent {
    item: usize,
    /// α-renaming tag of the text sent (0 = the original text).
    tag: u64,
}

/// One reply, audited later.
struct Reply {
    /// `None` on a transport error.
    reply: Option<String>,
    latency: Duration,
    /// Reply time since the pass began.
    at: Duration,
}

/// One pass of the sequence over one server, which it stops.
struct Pass {
    replies: Vec<Reply>,
    /// The server's peak RSS over the pass (see `PeakRss`).
    peak_rss: Option<f64>,
    /// The server's `health` counters over the pass.
    served: Health,
}

/// Drives `server` until `measure` has passed and each class has
/// `min_samples` replies (or until `hard_stop`), choosing each
/// request as it goes: a first-seen constraint [`FRESH_SHARE`] of the
/// time, else a fresh renaming of one of the [`REPEAT_WINDOW`] most
/// recently decided.
fn first_pass(
    server: &mut ServerProc,
    pool: &[Item],
    seed: u64,
    measure: Duration,
    hard_stop: Duration,
    min_samples: usize,
) -> Result<(Vec<Sent>, Pass), String> {
    let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut window: VecDeque<usize> = VecDeque::new();
    let (mut next_fresh, mut next_tag) = (0usize, 1u64);
    let (mut fresh_done, mut repeats_done) = (0usize, 0usize);
    let mut sent: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let pass = drive(server, pool, |last| {
        if let (Some(s), Some(reply)) = (sent.last(), last) {
            if s.tag != 0 {
                repeats_done += 1;
            } else {
                fresh_done += 1;
                if reply.contains("\"verdict\":\"sat\"") || reply.contains("\"verdict\":\"unsat\"")
                {
                    window.push_back(s.item);
                    if window.len() > REPEAT_WINDOW {
                        window.pop_front();
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        let full = fresh_done >= min_samples && repeats_done >= min_samples;
        if (elapsed >= measure && full) || elapsed >= hard_stop {
            return None;
        }
        let fresh = (window.is_empty() || rng.unit() < FRESH_SHARE)
            .then_some(next_fresh)
            .filter(|&i| i < pool.len());
        let (item, tag) = match fresh {
            Some(i) => {
                next_fresh += 1;
                (i, 0)
            }
            // Once the first-seen pool is spent, every request repeats.
            None if !window.is_empty() => {
                next_tag += 1;
                (window[rng.below(window.len())], next_tag - 1)
            }
            None => return None,
        };
        sent.push(Sent { item, tag });
        Some(Sent { item, tag })
    })?;
    Ok((sent, pass))
}

/// Sends `sent` in order to `server`.
fn send_all(server: &mut ServerProc, pool: &[Item], sent: &[Sent]) -> Result<Pass, String> {
    let mut next = sent.iter().copied();
    drive(server, pool, |_| next.next())
}

/// Drives `server` over one connection with the requests `next` gives,
/// each sent after the reply to the one before (`next` sees that reply),
/// then stops the server.
fn drive(
    server: &mut ServerProc,
    pool: &[Item],
    mut next: impl FnMut(Option<&str>) -> Option<Sent>,
) -> Result<Pass, String> {
    let before = server.health()?;
    let mut c = Connection::connect(&server.endpoint).map_err(|e| format!("connect: {e}"))?;
    let rss = PeakRss::start(server.pid().to_string(), false);
    let mut replies: Vec<Reply> = Vec::new();
    let start = Instant::now();
    while let Some(s) = next(replies.last().and_then(|r| r.reply.as_deref())) {
        let id = format!("r{}", replies.len());
        let request = solve_request(&id, &pool[s.item].renamed(s.tag), None, None, false);
        let sent = Instant::now();
        let reply = c.roundtrip(&request);
        let latency = sent.elapsed();
        if reply.is_err() {
            c = Connection::connect(&server.endpoint).map_err(|e| format!("reconnect: {e}"))?;
        }
        replies.push(Reply {
            reply: reply.ok(),
            latency,
            at: start.elapsed(),
        });
    }
    let peak_rss = rss.read();
    let served = server.health()?.minus(&before);
    server.stop()?;
    Ok(Pass {
        replies,
        peak_rss,
        served,
    })
}

/// Audits a pass's replies on two threads.
fn audit_all(pool: &[Item], sent: &[Sent], replies: &[Reply], keep_model: bool) -> Vec<Audited> {
    std::thread::scope(|s| {
        let half = replies.len().div_ceil(2).max(1);
        let parts: Vec<_> = sent
            .chunks(half)
            .zip(replies.chunks(half))
            .map(|(sent, replies)| {
                s.spawn(move || {
                    sent.iter()
                        .zip(replies)
                        .map(|(s, r)| audit(&pool[s.item], s.tag, r, keep_model))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("audit thread panicked"))
            .collect()
    })
}

/// One reply after the client-side audit.
struct Audited {
    verdict: String,
    cache: String,
    /// Why the reply counts as a failed operation.
    failure: Option<String>,
    /// A sat reply's model, when asked for.
    model: Option<Vec<(String, Value)>>,
}

/// `client::audit_reply` (well-formedness, and exact evaluation of a sat
/// model against the text sent), plus: a sat reply must carry a model
/// that reads back completely, and a verdict must agree with the
/// generator's ground truth.
fn audit(item: &Item, tag: u64, r: &Reply, keep_model: bool) -> Audited {
    let Some(reply) = r.reply.as_deref() else {
        return Audited {
            verdict: String::new(),
            cache: String::new(),
            failure: Some("transport error".into()),
            model: None,
        };
    };
    let text = item.renamed(tag);
    let a = audit_reply(&text, reply);
    let mut model = None;
    let failure = if !a.well_formed || !a.sound {
        Some(format!("reply audit failed: {a:?}"))
    } else {
        match (a.verdict.as_str(), item.expected) {
            ("sat", expected) => {
                model = json::parse(reply)
                    .ok()
                    .and_then(|j| bindings(&text, j.get("model")?));
                if model.is_none() {
                    Some("sat without a readable model".to_string())
                } else {
                    (expected == Some(false))
                        .then(|| "sat on a constraint known to be unsat".to_string())
                }
            }
            ("unsat", Some(true)) => Some("unsat on a constraint known to be sat".to_string()),
            ("unsat" | "unknown", _) => None,
            (other, _) => Some(format!("{other} reply")),
        }
    };
    Audited {
        verdict: a.verdict,
        cache: a.cache,
        failure,
        model: model.filter(|_| keep_model),
    }
}

/// A sat reply's model, keyed by name, read back by each symbol's sort.
fn bindings(text: &str, model: &Json) -> Option<Vec<(String, Value)>> {
    let Json::Obj(pairs) = model else { return None };
    let script = Script::parse(text).ok()?;
    let store = script.store();
    pairs
        .iter()
        .map(|(name, v)| {
            let printed = v.as_str()?;
            let value = match store.symbol_sort(store.symbol(name)?) {
                Sort::Bool => Value::Bool(printed.parse().ok()?),
                Sort::Int => Value::Int(BigInt::from_str(printed).ok()?),
                Sort::Real => Value::Real(BigRational::from_str(printed).ok()?),
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect()
}

/// Server-side counters from a `health` reply.
#[derive(Default, Clone, Copy)]
struct Health {
    hits: u64,
    misses: u64,
    insertions: u64,
    appends: u64,
    requests: u64,
    overloaded: u64,
}

impl Health {
    fn parse(reply: &str) -> Result<Health, String> {
        let j = json::parse(reply).map_err(|e| format!("health reply is not JSON: {e}"))?;
        if j.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("unhealthy: {reply}"));
        }
        let num = |path: &[&str]| -> u64 {
            let mut v = Some(&j);
            for key in path {
                v = v.and_then(|x| x.get(key));
            }
            v.and_then(Json::as_u64).unwrap_or(0)
        };
        Ok(Health {
            hits: num(&["cache", "hits"]),
            misses: num(&["cache", "misses"]),
            insertions: num(&["cache", "insertions"]),
            appends: num(&["persist", "log_records"]),
            requests: num(&["requests"]),
            overloaded: num(&["metrics", "counters", "serve.overloaded"]),
        })
    }

    fn minus(&self, o: &Health) -> Health {
        Health {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            insertions: self.insertions - o.insertions,
            appends: self.appends - o.appends,
            requests: self.requests - o.requests,
            overloaded: self.overloaded - o.overloaded,
        }
    }

    /// What the server should have counted for these replies: a decided
    /// miss is inserted and appended to the log.
    fn tally(audits: &[Audited]) -> Health {
        let mut h = Health::default();
        for a in audits {
            match a.cache.as_str() {
                "hit" => h.hits += 1,
                "miss" => {
                    h.misses += 1;
                    h.insertions += u64::from(matches!(a.verdict.as_str(), "sat" | "unsat"));
                }
                _ => {}
            }
        }
        h.appends = h.insertions;
        h
    }
}

/// The server child process. Dropping it kills and reaps the child.
struct ServerProc {
    child: Option<Child>,
    endpoint: Endpoint,
    dir: PathBuf,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns the server on an ephemeral port with a fresh persist
    /// directory and returns once a `health` request answers `ok`.
    fn spawn(staub: &Path, dir: &Path) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut child = Command::new(staub)
            .arg("serve")
            .args(["--addr", "tcp:127.0.0.1:0", "--workers", "2"])
            .arg("--persist")
            .arg(dir)
            // Appends stay countable in `health` (log_records) only while
            // the log is never compacted within a run.
            .args(["--snapshot-every", "1000000000"])
            .args(["--steps", &STEPS.to_string()])
            .args(["--timeout-ms", &DEADLINE.as_millis().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", staub.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let endpoint = match stdout.read_line(&mut line) {
            Err(e) => Err(format!("no handshake from the server: {e}")),
            Ok(_) => match line.trim().strip_prefix("listening on ") {
                None => Err(format!("unexpected handshake {line:?}")),
                Some(addr) => Endpoint::parse(addr).map_err(|e| e.to_string()),
            },
        };
        let endpoint = match endpoint {
            Ok(e) => e,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let server = ServerProc {
            child: Some(child),
            endpoint,
            dir: dir.to_path_buf(),
            _stdout: stdout,
        };
        server.health()?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn roundtrip(&self, request: &str) -> Result<String, String> {
        let mut c = Connection::connect(&self.endpoint).map_err(|e| format!("connect: {e}"))?;
        c.roundtrip(request)
            .map_err(|e| format!("request failed: {e}"))
    }

    fn health(&self) -> Result<Health, String> {
        Health::parse(&self.roundtrip(&health_request())?)
    }

    /// Asks the server to drain, waits for it to exit, removes its store.
    fn stop(&mut self) -> Result<(), String> {
        let asked = self.roundtrip(&shutdown_request());
        let mut child = self.child.take().expect("stopped once");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("server exited with {s}")),
            None => Err("server did not drain within 10 s".into()),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

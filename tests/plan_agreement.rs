//! Every entry point plans the same lanes: a library [`Session`] check,
//! a serve `session_check`, `staub FILE --stats` and `staub batch` all
//! report exactly the lane labels [`plan_lanes`] returns for the same
//! constraint and configuration, and no two of their verdicts contradict.
//!
//! The three constraints cover the three plan shapes: a difference-logic
//! `unsat` (with the `dl/` lane), a certified pure-LIA `unsat` (with the
//! `complete/` lane), and an NIA `sat` (baseline plus the bounded width
//! ladder only).

use std::path::{Path, PathBuf};
use std::process::Command;

use staub::core::sched::plan_lanes;
use staub::core::{BatchConfig, LaneSpec, Session};
use staub::service::json::{self, Json};
use staub::service::{
    assert_request, check_request, session_open_request, Connection, Endpoint, Server, ServerConfig,
};
use staub::smtlib::Script;

const CASES: &[(&str, &str)] = &[
    (
        "dl-unsat",
        "(declare-fun x () Int)(declare-fun y () Int)\
         (assert (<= (- x y) 1))(assert (< (- y x) (- 1)))",
    ),
    (
        "lia-unsat",
        "(declare-fun x () Int)(declare-fun y () Int)\
         (assert (= (+ (* 2 x) (* 2 y)) 7))",
    ),
    ("nia-sat", "(declare-fun x () Int)(assert (= (* x x) 49))"),
];

/// The configuration every surface runs under: the defaults `staub FILE`
/// and `staub batch` use.
fn config() -> BatchConfig {
    BatchConfig::default()
}

fn planned(script: &Script) -> Vec<String> {
    plan_lanes(script, &config())
        .iter()
        .map(LaneSpec::label)
        .collect()
}

/// The lane labels of a JSON `lanes` array.
fn labels_of(lanes: &Json) -> Vec<String> {
    match lanes {
        Json::Arr(items) => items
            .iter()
            .map(|l| {
                l.get("label")
                    .and_then(Json::as_str)
                    .expect("lane label")
                    .to_string()
            })
            .collect(),
        other => panic!("lanes is not an array: {other:?}"),
    }
}

fn contradicts(a: &str, b: &str) -> bool {
    matches!((a, b), ("sat", "unsat") | ("unsat", "sat"))
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("staub-plan-agreement-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `staub FILE --stats`: the verdict on stdout, one `;   <label> <verdict>`
/// line per lane on stderr.
fn cli_file(path: &Path) -> (String, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_staub"))
        .arg(path)
        .arg("--stats")
        .output()
        .expect("run staub");
    assert!(out.status.success(), "staub FILE failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let verdict = stdout.lines().next().expect("verdict line").to_string();
    let labels = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(";   "))
        .map(|l| l.split_whitespace().next().expect("label").to_string())
        .collect();
    (verdict, labels)
}

/// `staub batch FILE`: one JSONL record with the verdict and lanes.
fn cli_batch(path: &Path) -> (String, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_staub"))
        .arg("batch")
        .arg("--no-stats")
        .arg(path)
        .output()
        .expect("run staub batch");
    assert!(out.status.success(), "staub batch failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let record = json::parse(stdout.lines().next().expect("one record")).expect("JSONL parses");
    let verdict = record
        .get("verdict")
        .and_then(Json::as_str)
        .expect("verdict");
    (
        verdict.to_string(),
        labels_of(record.get("lanes").expect("lanes")),
    )
}

/// A serve session: open, assert, check; the reply's stats block lists the
/// lanes.
fn serve_session(
    conn: &mut Connection<staub::service::EndpointStream>,
    src: &str,
) -> (String, Vec<String>) {
    let opened = json::parse(
        &conn
            .roundtrip(&session_open_request(None, None))
            .expect("open"),
    )
    .expect("open reply parses");
    let name = opened
        .get("session")
        .and_then(Json::as_str)
        .expect("session name")
        .to_string();
    conn.roundtrip(&assert_request(&name, src)).expect("assert");
    let reply = json::parse(&conn.roundtrip(&check_request(&name, true)).expect("check"))
        .expect("check reply parses");
    let verdict = reply
        .get("verdict")
        .and_then(Json::as_str)
        .expect("verdict");
    let lanes = reply
        .get("stats")
        .and_then(|s| s.get("lanes"))
        .expect("session check reports its lanes");
    (verdict.to_string(), labels_of(lanes))
}

#[test]
fn every_entry_point_plans_the_same_lanes() {
    let dir = scratch_dir();
    let server = Server::launch(ServerConfig::new().batch(config()).cache(None)).expect("bind");
    let mut conn =
        Connection::connect(&Endpoint::Tcp(server.local_addr().to_string())).expect("connect");

    for &(name, src) in CASES {
        let script = Script::parse(src).expect("case parses");
        let plan = planned(&script);
        match name {
            "dl-unsat" => assert!(plan.contains(&"dl/zed".to_string()), "{plan:?}"),
            "lia-unsat" => assert!(plan.contains(&"complete/zed".to_string()), "{plan:?}"),
            _ => assert!(
                plan.iter()
                    .all(|l| !l.starts_with("dl/") && !l.starts_with("complete/")),
                "{plan:?}"
            ),
        }

        let mut session = Session::new(config());
        session.assert_text(src).expect("case parses");
        let report = session.check().expect("non-empty");
        let lib = (
            report.verdict.name().to_string(),
            report
                .lanes
                .iter()
                .map(|l| l.spec.label())
                .collect::<Vec<_>>(),
        );

        let path = dir.join(format!("{name}.smt2"));
        std::fs::write(&path, src).expect("write case");
        let results = [
            ("Session::check", lib),
            ("serve session_check", serve_session(&mut conn, src)),
            ("staub FILE --stats", cli_file(&path)),
            ("staub batch", cli_batch(&path)),
        ];
        for (surface, (verdict, labels)) in &results {
            assert_eq!(
                labels, &plan,
                "{name}: {surface} lanes differ from plan_lanes"
            );
            assert!(
                ["sat", "unsat", "unknown"].contains(&verdict.as_str()),
                "{name}: {surface} verdict {verdict}"
            );
        }
        for (a, (va, _)) in &results {
            for (b, (vb, _)) in &results {
                assert!(!contradicts(va, vb), "{name}: {a} says {va}, {b} says {vb}");
            }
        }
        let expected = if name == "nia-sat" { "sat" } else { "unsat" };
        assert_eq!(
            results[0].1 .0, expected,
            "{name}: the library session decides it"
        );
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

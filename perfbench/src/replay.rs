//! In-process replay of the service layers over a run's own request
//! lines: request parsing, the answer cache, and the persistent store's
//! append path. Also the metrics-registry micro-measure.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use staub_core::Metrics;
use staub_service::{
    parse_request, AnswerCache, AnswerStore, CacheConfig, CachedVerdict, PersistConfig,
    PersistentStore,
};
use staub_smtlib::{canonicalize, Script, Value};

use crate::report::{ratio, us, Outcome};

/// Request lines kept for the replay, so a traced run's tail stays short.
pub const MAX_LINES: usize = 20_000;

/// One request of the run, with the answer the run got for it.
pub struct Line {
    pub request: String,
    pub constraint: String,
    /// `Some(None)` for unsat, `Some(Some(model))` for sat (keyed by
    /// name), `None` for unknown (never cached).
    pub answer: Option<Option<Vec<(String, Value)>>>,
}

/// Replays `lines` through `parse_request`, a fresh `AnswerCache` and a
/// fresh `PersistentStore` under `dir`, and reports the per-operation
/// times of each layer. Returns the replay's cache hits and appends.
pub fn service_layers(lines: &[Line], dir: &Path, out: &mut Outcome) -> Result<(u64, u64), String> {
    let mut protocol = Duration::ZERO;
    let mut cache_time = Duration::ZERO;
    let mut cache_ops = 0u64;
    let mut append_time = Duration::ZERO;
    let mut appends = 0u64;
    let mut hits = 0u64;
    let _ = std::fs::remove_dir_all(dir);
    let config = CacheConfig::default();
    let cache = AnswerCache::new(&config);
    let store = PersistentStore::open(&config, &PersistConfig::in_dir(dir))
        .map_err(|e| format!("cannot open the replay store: {e}"))?;
    for line in lines {
        let t = Instant::now();
        let parsed = parse_request(&line.request);
        protocol += t.elapsed();
        parsed.map_err(|e| format!("replayed request does not parse: {}", e.message))?;

        let script = Script::parse(&line.constraint).map_err(|e| e.to_string())?;
        let canon = canonicalize(&script);
        let t = Instant::now();
        let found = cache.get(canon.fingerprint, &canon.key);
        cache_time += t.elapsed();
        cache_ops += 1;
        if found.is_some() {
            hits += 1;
            continue;
        }
        let Some(answer) = &line.answer else { continue };
        let verdict = match answer {
            None => CachedVerdict::Unsat { winner: None },
            Some(model) => CachedVerdict::Sat {
                model: model
                    .iter()
                    .filter_map(|(name, v)| {
                        let sym = script.store().symbol(name)?;
                        canon.var_index(sym).map(|i| (i, v.clone()))
                    })
                    .collect(),
                winner: None,
            },
        };
        let t = Instant::now();
        cache.insert(canon.fingerprint, canon.key.clone(), verdict.clone());
        cache_time += t.elapsed();
        cache_ops += 1;
        let t = Instant::now();
        store.record(canon.fingerprint, &canon.key, verdict);
        append_time += t.elapsed();
        appends += 1;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let n = lines.len() as f64;
    out.push("service.protocol_us", ratio(us(protocol), n), "us");
    out.push(
        "service.cache_us",
        ratio(us(cache_time), cache_ops as f64),
        "us",
    );
    out.push(
        "service.persist_append_us",
        ratio(us(append_time), appends as f64),
        "us",
    );
    out.samples("service.replay_lines", lines.len());
    Ok((hits, appends))
}

/// `Metrics::incr` and `Metrics::time` from two threads on one shared
/// registry, as serve workers call them; nanoseconds per call.
pub fn metrics_incr_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let metrics = Arc::new(Metrics::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let m = &metrics;
            s.spawn(move || {
                for _ in 0..CALLS / 2 {
                    m.incr("serve.requests", 1);
                    m.time("serve.solve", || std::hint::black_box(()));
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / f64::from(2 * CALLS)
}

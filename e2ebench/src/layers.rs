//! Per-operation costs of each layer. Where the workload's in-process
//! replay reaches a layer, its cost comes from the replay's spans and from
//! the spans and histograms the engine records itself (`EngineProbe`);
//! [`probe`] then times calls into the layer's public functions on the
//! workload's own inputs only for the layers the replay does not reach, so
//! every workload reports every layer and no layer is measured twice.

use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

use snoop_mva::engine::{BackendId, DiskStore, Engine, Evaluation, ResultCache, Scenario};
use snoop_numeric::json::JsonValue;
use snoop_numeric::probe::{self, hist::Hist};
use snoop_serve::http::{read_request, ChunkedWriter};

use crate::check::Expected;
use crate::inputs::Cell;
use crate::stats;
use crate::trace::Tracer;
use crate::Metrics;

/// Store operations timed per workload (each is a file create, rename or
/// read, so a few hundred give a stable mean).
const STORE_OPS: usize = 300;
/// Requests fed to `http::read_request` per workload.
const HTTP_REQUESTS: usize = 2_000;

/// What the probes run on.
pub struct ProbeInput<'a> {
    /// Every job of the workload, in input order.
    pub jobs: &'a [Scenario],
    /// The distinct grid cells the workload evaluates.
    pub cells: &'a [Cell],
    /// Raw HTTP requests carrying the workload's scenarios.
    pub requests: &'a [Vec<u8>],
    /// The direct solves (and their timings).
    pub expected: &'a Expected,
    /// An empty scratch directory for the store probe.
    pub store_dir: &'a Path,
}

/// An in-memory duplex stream: reads a request, discards the interim
/// `100 Continue` writes.
struct Duplex<'a> {
    input: &'a [u8],
}

impl Read for Duplex<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parses one raw request as the daemon does.
pub fn read_raw_request(raw: &[u8]) -> Option<snoop_serve::http::Request> {
    read_request(&mut Duplex { input: raw }).ok()
}

/// What the engine recorded about itself (`snoop_numeric::probe` spans
/// and histograms) over the engine calls of the traced replays: the
/// inner split of `Engine::evaluate_batch` / `Engine::evaluate`.
#[derive(Debug, Clone, Default)]
pub struct EngineProbe {
    /// Nanoseconds inside `mva_solve` spans (the fixed-point run of
    /// `MvaModel::solve`).
    solve_ns: f64,
    /// `mva_solve` spans.
    solves: u64,
    /// Cache consults that hit (`engine.cache.hit_ms`): count and total ns.
    cache_hits: u64,
    cache_hit_ns: f64,
    /// Store consults that hit (`store.hit_ms`: read, decode, cache fill).
    store_hits: u64,
    store_hit_ns: f64,
    /// Per-solve wall time, ms (`engine.job_ms.mva`).
    job_ms: Option<Hist>,
}

impl EngineProbe {
    /// Adds what the engine recorded since the current `probe::session`
    /// started.
    pub fn collect(&mut self) {
        let snapshot = probe::snapshot();
        for (path, span) in &snapshot.spans {
            if path == "mva_solve" || path.ends_with("/mva_solve") {
                self.solve_ns += span.total_ns as f64;
                self.solves += span.count;
            }
        }
        for (name, hist) in &snapshot.hists {
            match name.as_str() {
                "engine.cache.hit_ms" => {
                    self.cache_hits += hist.count();
                    self.cache_hit_ns += hist.sum() * 1e6;
                }
                "store.hit_ms" => {
                    self.store_hits += hist.count();
                    self.store_hit_ns += hist.sum() * 1e6;
                }
                "engine.job_ms.mva" => match &mut self.job_ms {
                    Some(all) => all.merge(hist),
                    None => self.job_ms = Some(hist.clone()),
                },
                _ => {}
            }
        }
    }

    /// Splits `engine_ns`, the time the replays spent inside engine calls,
    /// into named rows (ns): the fixed-point solves, cache hits and store
    /// hits (each when there were any), and the rest of the engine
    /// (`engine.batch`: keys, dedup, grouping, model builds, cache
    /// inserts, result assembly).
    pub fn rows(&self, engine_ns: f64) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = [
            ("mva.solve", self.solves, self.solve_ns),
            ("cache.hit", self.cache_hits, self.cache_hit_ns),
            ("store.hit", self.store_hits, self.store_hit_ns),
        ]
        .into_iter()
        .filter(|(_, count, _)| *count > 0)
        .map(|(name, _, ns)| (name, ns))
        .collect();
        let inner: f64 = rows.iter().map(|(_, ns)| ns).sum();
        rows.push(("engine.batch", engine_ns - inner));
        rows
    }

    /// The metrics the engine's own records give: the cache-hit cost, and
    /// the solve distribution when the replays solved anything.
    /// `iterations` are the fixed-point iterations of the solves.
    pub fn metrics(&self, iterations: &[f64], m: &mut Metrics) {
        if self.cache_hits > 0 {
            m.insert("cache.get_ns", self.cache_hit_ns / self.cache_hits as f64);
        }
        let Some(hist) = self.job_ms.as_ref().filter(|h| h.count() > 0) else {
            return;
        };
        let buckets: Vec<(f64, f64)> = hist
            .cumulative_buckets()
            .map(|(upper, count)| (upper, count as f64))
            .collect();
        let quantile_us =
            |q: f64| stats::bucket_quantile(&buckets, q, hist.min(), hist.max()) * 1e3;
        m.insert("mva.solve_us.p50", quantile_us(0.5));
        m.insert("mva.solve_us.p99", quantile_us(0.99));
        m.insert("mva.iterations_per_solve.mean", stats::mean(iterations));
        m.insert(
            "mva.iterations_per_solve.p99",
            stats::tail(iterations).value,
        );
        m.insert(
            "mva.ns_per_iteration",
            self.solve_ns / iterations.iter().sum::<f64>().max(1.0),
        );
    }
}

/// Times `op` over `items`, inside one span, and returns the mean cost in
/// nanoseconds per item.
fn per_op<T>(t: &mut Tracer, name: &'static str, items: &[T], mut op: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        op(item);
    }
    let ended = Instant::now();
    t.record(name, started, ended);
    (ended - started).as_nanos() as f64 / items.len().max(1) as f64
}

/// Times calls into each layer the workload's replay did not reach (every
/// metric not yet in `m`) and writes the metrics into `m`. The store is
/// never reached by a timed write and its read is not split from the
/// decode on any replay, so its probes always run.
///
/// # Errors
///
/// A message if the scratch store cannot be opened or written.
pub fn probe(t: &mut Tracer, input: &ProbeInput<'_>, m: &mut Metrics) -> Result<(), String> {
    let evals: Vec<&Evaluation> = input
        .cells
        .iter()
        .map(|c| input.expected.eval(*c))
        .collect();
    let keys: Vec<String> = input
        .cells
        .iter()
        .map(|c| Engine::job_key(BackendId::Mva, &c.scenario()))
        .collect();
    let missing = |m: &Metrics, name: &str| !m.contains_key(name);
    t.begin("probe");

    if missing(m, "engine.key_ns_per_job") {
        let ns = per_op(t, "probe.engine.key", input.jobs, |s| {
            black_box(Engine::job_key(BackendId::Mva, black_box(s)));
        });
        m.insert("engine.key_ns_per_job", ns);
    }
    if missing(m, "cache.get_ns") {
        let cache = ResultCache::new(keys.len().max(1));
        for (key, eval) in keys.iter().zip(&evals) {
            cache.insert(key, (*eval).clone());
        }
        let ns = per_op(t, "probe.cache.get", &keys, |key| {
            black_box(cache.get(black_box(key)));
        });
        m.insert("cache.get_ns", ns);
    }
    if missing(m, "eval.to_json_us") {
        let ns = per_op(t, "probe.eval.to_json", &evals, |e| {
            black_box(e.to_json());
        });
        m.insert("eval.to_json_us", ns / 1e3);
    }
    if missing(m, "eval.summary_us") {
        let ns = per_op(t, "probe.eval.summary", &evals, |e| {
            black_box(e.summary());
        });
        m.insert("eval.summary_us", ns / 1e3);
    }

    let store = DiskStore::open(input.store_dir).map_err(|e| format!("probe store: {e}"))?;
    let n = STORE_OPS.min(keys.len());
    let entries: Vec<(&String, String)> = keys
        .iter()
        .zip(&evals)
        .take(n)
        .map(|(k, e)| (k, e.to_json()))
        .collect();
    let mut put_failed = false;
    let ns = per_op(t, "probe.store.put", &entries, |(key, json)| {
        put_failed |= store.put(key, json.as_bytes()).is_err();
    });
    if put_failed {
        return Err("probe store: put failed".to_string());
    }
    m.insert("store.put_us", ns / 1e3);
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(n);
    let ns = per_op(t, "probe.store.get", &entries, |(key, _)| {
        blobs.push(store.get(key).unwrap_or_default());
    });
    m.insert("store.get_us", ns / 1e3);
    let ns = per_op(t, "probe.store.decode", &blobs, |bytes| {
        let eval = std::str::from_utf8(bytes)
            .ok()
            .and_then(|text| JsonValue::parse(text).ok())
            .and_then(|doc| Evaluation::from_json(&doc).ok());
        black_box(eval);
    });
    m.insert("store.decode_us", ns / 1e3);

    if missing(m, "http.read_request_us") {
        let requests = &input.requests[..HTTP_REQUESTS.min(input.requests.len())];
        let ns = per_op(t, "probe.http.read_request", requests, |raw| {
            black_box(read_raw_request(raw));
        });
        m.insert("http.read_request_us", ns / 1e3);
    }
    if missing(m, "http.chunk_write_us") {
        let lines: Vec<String> = evals.iter().map(|e| format!("{}\n", e.to_json())).collect();
        let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
        let mut writer = ChunkedWriter::start(&mut sink, 200, "application/x-ndjson")
            .map_err(|e| e.to_string())?;
        let ns = per_op(t, "probe.http.chunk_write", &lines, |line| {
            let _ = writer.chunk(line.as_bytes());
        });
        let _ = writer.finish();
        m.insert("http.chunk_write_us", ns / 1e3);
    }

    if missing(m, "mva.solve_us.p50") {
        // The direct solves of the correctness gate, one per distinct cell.
        let solve_us: Vec<f64> = input
            .cells
            .iter()
            .map(|c| input.expected.solve_us[c.index()])
            .collect();
        let iterations: Vec<f64> = evals
            .iter()
            .map(|e| e.provenance.iterations as f64)
            .collect();
        m.insert("mva.solve_us.p50", stats::median(&solve_us));
        m.insert("mva.solve_us.p99", stats::tail(&solve_us).value);
        m.insert("mva.iterations_per_solve.mean", stats::mean(&iterations));
        m.insert(
            "mva.iterations_per_solve.p99",
            stats::tail(&iterations).value,
        );
        m.insert(
            "mva.ns_per_iteration",
            solve_us.iter().sum::<f64>() * 1e3 / iterations.iter().sum::<f64>().max(1.0),
        );
    }
    t.end();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_requests_parse_like_the_daemon_reads_them() {
        let raw = crate::client::post_request("/eval", b"{\"x\":1}");
        let request = read_raw_request(&raw).expect("parses");
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/eval")
        );
        assert_eq!(request.body, b"{\"x\":1}");
    }
}

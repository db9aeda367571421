//! `serve-seq` and `serve-batch`: closed-loop clients over loopback raw
//! `TcpStream`s against a daemon built with `Server::bind` (2 workers,
//! 1 engine thread, the default result cache) in a child process of the
//! benchmark, so its peak resident set is its own.

use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use snoop_mva::engine::{BackendId, Engine, EngineResult, MvaBackend, Scenario, DEFAULT_CAPACITY};
use snoop_numeric::exec::ExecOptions;
use snoop_numeric::json::JsonValue;
use snoop_numeric::probe;
use snoop_serve::http::{json_string, ChunkedWriter};
use snoop_serve::{ServeConfig, Server};

use crate::check::{self, Expected};
use crate::client::{decode_response, exchange, get_request, post_request, Timing};
use crate::inputs::{batch_body, serve_batch, Cell, FreshStream, Item, Rng, BATCH, CELLS};
use crate::layers::{self, read_raw_request, EngineProbe, ProbeInput};
use crate::stats::{self, mean, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Daemon request workers.
const WORKERS: usize = 2;
/// Daemon boots per run; `setup_s` is their median. A boot takes about a
/// millisecond, so a few more than the other workloads' set-ups keep the
/// median steady.
const BOOTS: usize = 9;
/// `serve-batch` clients: one per core of a 2-core host.
const BATCH_CLIENTS: usize = 2;
/// Requests replayed in process to split the daemon's service time: the
/// first ones sent, up to this many requests or [`REPLAY_JOBS`] jobs.
const REPLAY_REQUESTS: usize = 2_000;
/// See [`REPLAY_REQUESTS`].
const REPLAY_JOBS: usize = 50_000;
/// `serve-seq` think time: the client pauses this long after each reply,
/// as a script that reads the reply before sending the next request does.
/// Without it, whether a request meets an awake or a sleeping acceptor
/// depends on scheduler jitter of a few hundred microseconds, which splits
/// the latencies into two clusters of nearly equal weight and makes their
/// medians jump between runs.
const SEQ_THINK: Duration = Duration::from_millis(1);
/// `serve-seq` sends at least this many requests even when that takes
/// longer than the run's duration.
const SEQ_MIN_REQUESTS: usize = 1_000;
/// `serve-batch` think time after each reply: seeded, uniform below this
/// bound, which is one period of the acceptor's idle poll. With a fixed
/// think time the next connection arrives at a fixed phase of the poll,
/// and the latency becomes a step function of the service time (a
/// slowdown that does not cross a poll boundary does not show); with a
/// uniform one, the wait for the acceptor averages half a period whatever
/// the service time, and the latency moves one for one with it.
const BATCH_THINK_US: usize = 20_000;
/// Throughput and the latency tail are taken per interval of this length,
/// and the run reports their median over its intervals, so a stall of the
/// host that covers less than half of the run does not move them.
const INTERVAL_S: f64 = 10.0;

/// Runs the daemon in this process until it is shut down; the parent
/// reads the bound address from the first line of stdout.
pub fn daemon_main() -> Result<(), String> {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        backends: vec![BackendId::Mva],
        engine_threads: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    println!("{}", server.local_addr());
    server.run().map(|_| ()).map_err(|e| e.to_string())
}

/// A running daemon child. Dropping it without [`Daemon::stop`] kills and
/// reaps the process, so no error path leaves a daemon behind.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = crate::proc::reap(&child, Duration::from_secs(10));
        }
    }
}

impl Daemon {
    /// Starts the daemon and waits until it answers `GET /healthz`.
    fn boot() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| format!("daemon address: {e}"))?;
        let addr: SocketAddr = match line.trim().parse() {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = crate::proc::reap(&child, Duration::from_secs(10));
                return Err(format!("daemon did not start (said {line:?})"));
            }
        };
        let daemon = Daemon {
            child: Some(child),
            addr,
        };
        let healthy = exchange(
            addr,
            &get_request("/healthz"),
            &mut Tracer::new(false, Instant::now()),
        )
        .ok()
        .and_then(|(raw, _)| decode_response(&raw).ok())
        .is_some_and(|r| r.status == 200);
        if !healthy {
            daemon.stop()?;
            return Err("daemon did not answer /healthz".to_string());
        }
        Ok(daemon)
    }

    /// The daemon's `GET /metrics` snapshot.
    fn metrics(&self) -> Result<JsonValue, String> {
        let (raw, _) = exchange(
            self.addr,
            &get_request("/metrics"),
            &mut Tracer::new(false, Instant::now()),
        )
        .map_err(|e| format!("scrape: {e}"))?;
        let body = decode_response(&raw)?.body;
        JsonValue::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("scrape: {e}"))
    }

    /// Shuts the daemon down and returns its peak resident set (KiB).
    #[allow(clippy::zombie_processes, reason = "proc::reap waits for the child")]
    fn stop(mut self) -> Result<u64, String> {
        let _ = exchange(
            self.addr,
            &post_request("/shutdown", b""),
            &mut Tracer::new(false, Instant::now()),
        );
        let child = self.child.take().expect("a daemon is stopped once");
        let reaped = crate::proc::reap(&child, Duration::from_secs(30))
            .map_err(|e| format!("wait4: {e}"))?;
        if !reaped.success() {
            return Err(format!("daemon exited with {:?}", reaped.code));
        }
        Ok(reaped.peak_rss_kb)
    }
}

/// One client-observed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    timing: Timing,
    /// Scenarios evaluated fresh (not cache hits) in this request.
    computed: u64,
    jobs: u64,
    failed: u64,
    body_bytes: u64,
    traced: bool,
    /// Seconds from the start of the window to the last byte.
    done_s: f64,
}

impl Sample {
    fn cold(&self) -> bool {
        self.computed > 0
    }
}

/// The raw value text of a scalar field of one NDJSON line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Checks one `POST /eval` response against the direct solves of the
/// request's items. Returns (jobs failed, jobs computed, NDJSON bytes, the
/// evaluation texts in order).
fn verify(raw: &[u8], items: &[Item], expected: &Expected) -> (u64, u64, u64, Vec<String>) {
    let all = items.len() as u64;
    let Ok(response) = decode_response(raw) else {
        return (all, 0, 0, Vec::new());
    };
    let bytes = response.body.len() as u64;
    if response.status != 200 {
        return (all, 0, bytes, Vec::new());
    }
    let text = String::from_utf8_lossy(&response.body);
    let mut lines: Vec<&str> = text.lines().collect();
    let done = lines.pop().unwrap_or("");
    let num = |key: &str| field(done, key).and_then(|v| v.parse::<u64>().ok());
    if field(done, "done") != Some("true") || num("jobs") != Some(all) || lines.len() != items.len()
    {
        return (all, 0, bytes, Vec::new());
    }
    let (mut failed, mut computed) = (0, 0);
    let mut evals = Vec::with_capacity(items.len());
    for line in lines {
        let item = field(line, "scenario")
            .and_then(|i| i.parse::<usize>().ok())
            .and_then(|i| items.get(i));
        let eval = line
            .find(",\"evaluation\":")
            .map(|at| &line[at + 14..line.len() - 1]);
        match (item, eval) {
            (Some(item), Some(eval)) if expected.json_matches(item.cell, eval) => {
                computed += u64::from(field(line, "cached") == Some("false"));
                evals.push(eval.to_string());
            }
            _ => {
                failed += 1;
                evals.push(String::new());
            }
        }
    }
    (failed, computed, bytes, evals)
}

/// The requests one client sends, as a pure function of the seed.
enum Plan {
    /// One never-seen scenario, then the same scenario again.
    Seq(FreshStream),
    /// `serve-batch` client `client`.
    Batch {
        stream: FreshStream,
        seed: u64,
        client: usize,
    },
}

impl Plan {
    fn items(&self, k: usize) -> Vec<Item> {
        match self {
            Plan::Seq(stream) => vec![stream.item(k / 2)],
            Plan::Batch {
                stream,
                seed,
                client,
            } => serve_batch(stream, *seed, *client, k),
        }
    }

    /// The pause after the reply to request `k`.
    fn think(&self, k: usize) -> Duration {
        match self {
            Plan::Seq(_) => SEQ_THINK,
            Plan::Batch { seed, client, .. } => {
                let stream = (5 << 40) + ((*client as u64) << 32) + k as u64;
                Duration::from_micros(Rng::new(*seed, stream).below(BATCH_THINK_US) as u64)
            }
        }
    }
}

/// One closed-loop client: sends the plan's requests until the deadline,
/// verifying each response before sending the next. In a traced run every
/// second request is traced (and `serve-seq` traces whole cold/warm pairs).
fn client_loop(
    addr: SocketAddr,
    plan: &Plan,
    expected: &Expected,
    deadline: Instant,
    traced: bool,
    epoch: Instant,
) -> (Vec<Sample>, Tracer) {
    let mut tracer = Tracer::new(true, epoch);
    let mut plain = Tracer::new(false, epoch);
    let mut samples = Vec::new();
    let mut cold_eval = String::new();
    let mut k = 0;
    let seq = matches!(plan, Plan::Seq(_));
    while Instant::now() < deadline || (seq && (k % 2 == 1 || k < SEQ_MIN_REQUESTS)) {
        let items = plan.items(k);
        let request = post_request("/eval", batch_body(&items).as_bytes());
        let trace_this = traced && (if seq { k / 2 } else { k }) % 2 == 1;
        let t = if trace_this { &mut tracer } else { &mut plain };
        let started = Instant::now();
        let sample = match exchange(addr, &request, t) {
            Ok((raw, timing)) => {
                let (mut failed, computed, body_bytes, evals) = verify(&raw, &items, expected);
                if seq {
                    // The repeat must be a cache hit, byte-identical to the
                    // cold evaluation.
                    let eval = evals.first().cloned().unwrap_or_default();
                    if k % 2 == 0 {
                        failed += u64::from(computed != 1);
                        cold_eval = eval;
                    } else {
                        failed += u64::from(computed != 0 || eval != cold_eval);
                    }
                    failed = failed.min(1);
                }
                Sample {
                    timing,
                    computed,
                    jobs: items.len() as u64,
                    failed,
                    body_bytes,
                    traced: trace_this,
                    done_s: 0.0,
                }
            }
            // A request that fails still took its time.
            Err(_) => Sample {
                timing: Timing {
                    total_ms: started.elapsed().as_secs_f64() * 1e3,
                    ..Timing::default()
                },
                computed: 0,
                jobs: items.len() as u64,
                failed: items.len() as u64,
                body_bytes: 0,
                traced: trace_this,
                done_s: 0.0,
            },
        };
        samples.push(Sample {
            done_s: epoch.elapsed().as_secs_f64(),
            ..sample
        });
        std::thread::sleep(plan.think(k));
        k += 1;
    }
    (samples, tracer)
}

/// Runs `serve-seq` (`batch == false`) or `serve-batch`.
///
/// # Errors
///
/// A message when the daemon cannot be started or stopped.
pub fn run(ctx: &Ctx, batch: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut stream = None;
    for s in 0..BOOTS {
        let started = Instant::now();
        stream = Some(FreshStream::new(ctx.seed));
        let booted = Daemon::boot()?;
        setup_s.push(started.elapsed().as_secs_f64());
        if s + 1 < BOOTS {
            booted.stop()?;
        } else {
            daemon = Some(booted);
        }
    }
    let (daemon, stream) = (daemon.expect("BOOTS > 0"), stream.expect("BOOTS > 0"));
    let expected = Expected::solve_grid();
    let (fill_jobs, fill_failed) = fill_cache(&daemon, ctx.seed, &expected);
    let before = if ctx.traced {
        Some(daemon.metrics()?)
    } else {
        None
    };
    let plans: Vec<Plan> = if batch {
        (0..BATCH_CLIENTS)
            .map(|client| Plan::Batch {
                stream: stream.clone(),
                seed: ctx.seed,
                client,
            })
            .collect()
    } else {
        vec![Plan::Seq(stream)]
    };

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                scope.spawn(|| {
                    client_loop(daemon.addr, plan, &expected, deadline, ctx.traced, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let snapshot = if ctx.traced {
        Some(daemon.metrics()?)
    } else {
        None
    };
    let peak_rss_kb = daemon.stop()?;

    let samples: Vec<Sample> = per_client
        .iter()
        .flat_map(|(s, _)| s.iter().copied())
        .collect();
    let mut out = Outcome {
        attempted: fill_jobs + samples.iter().map(|s| s.jobs).sum::<u64>(),
        failed: fill_failed + samples.iter().map(|s| s.failed).sum::<u64>(),
        ..Outcome::default()
    };
    // Table 4.1 cells are covered by the direct-solve check of every
    // response; the published values are checked against those solves.
    out.failed += check::table_cells()
        .iter()
        .filter(|(cell, published)| !check::table_matches(expected.eval(*cell).speedup, *published))
        .count() as u64;

    let latencies = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.timing.total_ms)
            .collect()
    };
    let all = latencies(&|_| true);
    let cold = latencies(&|s| s.cold());
    let warm = latencies(&|s| !s.cold());
    let jobs: f64 = samples.iter().map(|s| s.jobs as f64).sum();
    let intervals = per_interval(&samples, window_s);
    let rates: Vec<f64> = intervals.iter().map(|i| i.jobs / i.seconds).collect();
    let tails: Vec<stats::Tail> = intervals
        .iter()
        .map(|i| stats::tail(&i.latencies_ms))
        .collect();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("jobs_per_s", median(&rates));
    m.insert("req_p50_ms", median(&all));
    m.insert(
        "req_p99_ms",
        median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
    );
    m.insert("cold_req_p50_ms", median(&cold));
    m.insert("warm_req_p50_ms", median(&warm));
    m.insert("peak_rss_mb", peak_rss_kb as f64 / 1024.0);

    let sent: Vec<Vec<Item>> = interleave(&plans, &per_client);
    let keys: Vec<u64> = sent
        .iter()
        .flatten()
        .map(|i| i.scenario().content_hash())
        .collect();
    let unique = keys.iter().collect::<HashSet<_>>().len() as f64;
    let computed: f64 = samples.iter().map(|s| s.computed as f64).sum();
    let bytes: f64 = samples.iter().map(|s| s.body_bytes as f64).sum();
    let cold_share = cold.len() as f64 / all.len().max(1) as f64;
    m.insert("engine.dup_share", 1.0 - unique / jobs);
    m.insert("cache.hit_ratio", 1.0 - computed / jobs);
    m.insert("store.hit_ratio", 0.0);
    m.insert("store.hits", 0.0);
    m.insert("store.bytes_read", 0.0);
    m.insert("cold_request_share", cold_share);
    m.insert("response.bytes_per_job", bytes / jobs);
    m.insert(
        "client.connect_ms",
        median(
            &samples
                .iter()
                .map(|s| s.timing.connect_ms)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert(
        "client.ttfb_ms",
        median(&samples.iter().map(|s| s.timing.ttfb_ms).collect::<Vec<_>>()),
    );
    out.record.extend([
        ("cache_fill_jobs", fill_jobs.to_string()),
        ("clients", plans.len().to_string()),
        ("requests", all.len().to_string()),
        ("window_s", format!("{window_s:.3}")),
        ("interval_jobs_per_s", stats::json_array(&rates, 1)),
        (
            "interval_tail_ms",
            stats::json_array(&tails.iter().map(|t| t.value).collect::<Vec<_>>(), 3),
        ),
        (
            "interval_tail_percentile",
            stats::json_array(&tails.iter().map(|t| t.percentile).collect::<Vec<_>>(), 2),
        ),
        (
            "interval_tail_samples",
            stats::json_array(
                &tails.iter().map(|t| t.samples as f64).collect::<Vec<_>>(),
                0,
            ),
        ),
        (
            "interval_tail_samples_beyond",
            stats::json_array(
                &tails.iter().map(|t| t.beyond as f64).collect::<Vec<_>>(),
                0,
            ),
        ),
        ("cold_samples", cold.len().to_string()),
        ("warm_samples", warm.len().to_string()),
        ("dup_share", format!("{:.6}", 1.0 - unique / jobs)),
        ("cache_hit_share", format!("{:.6}", 1.0 - computed / jobs)),
        ("store_hit_share", "0".to_string()),
        ("cold_request_share", format!("{cold_share:.6}")),
        ("bytes_per_job", format!("{:.1}", bytes / jobs)),
    ]);

    if let (Some(before), Some(after)) = (before, snapshot) {
        let mut tracer = Tracer::new(true, epoch);
        for (_, t) in per_client {
            tracer.absorb(t);
        }
        traced_layers(
            ctx,
            &Window {
                before: &before,
                after: &after,
            },
            &samples,
            &sent,
            unique,
            &expected,
            tracer,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Fills the daemon's result cache to its default capacity with scenarios
/// the workload never sends, after the timed boots and before the
/// measured window. The daemon then runs in the state of a long-lived
/// daemon, and its resident set does not depend on how far a run got.
/// Returns the jobs sent and the jobs that failed the correctness gate.
fn fill_cache(daemon: &Daemon, seed: u64, expected: &Expected) -> (u64, u64) {
    let stream = FreshStream::fill(seed);
    let mut plain = Tracer::new(false, Instant::now());
    let (mut jobs, mut failed) = (0, 0);
    for start in (0..DEFAULT_CAPACITY).step_by(BATCH) {
        let items: Vec<Item> = (start..(start + BATCH).min(DEFAULT_CAPACITY))
            .map(|j| stream.item(j))
            .collect();
        let request = post_request("/eval", batch_body(&items).as_bytes());
        jobs += items.len() as u64;
        failed += match exchange(daemon.addr, &request, &mut plain) {
            Ok((raw, _)) => verify(&raw, &items, expected).0,
            Err(_) => items.len() as u64,
        };
    }
    (jobs, failed)
}

/// The requests that completed within one interval of the window.
struct Interval {
    seconds: f64,
    jobs: f64,
    latencies_ms: Vec<f64>,
}

/// Splits the window into [`INTERVAL_S`] intervals (the last one also takes
/// any remainder) and sorts each request into the one it completed in.
fn per_interval(samples: &[Sample], window_s: f64) -> Vec<Interval> {
    let n = ((window_s / INTERVAL_S) as usize).max(1);
    let mut out: Vec<Interval> = (0..n)
        .map(|k| Interval {
            seconds: if k + 1 == n {
                window_s - k as f64 * INTERVAL_S
            } else {
                INTERVAL_S
            },
            jobs: 0.0,
            latencies_ms: Vec::new(),
        })
        .collect();
    for s in samples {
        let slot = &mut out[((s.done_s / INTERVAL_S) as usize).min(n - 1)];
        slot.jobs += s.jobs as f64;
        slot.latencies_ms.push(s.timing.total_ms);
    }
    out
}

/// The items of every request sent, in an order that interleaves the
/// clients request by request.
fn interleave(plans: &[Plan], per_client: &[(Vec<Sample>, Tracer)]) -> Vec<Vec<Item>> {
    let longest = per_client.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut sent = Vec::new();
    for k in 0..longest {
        for (plan, (samples, _)) in plans.iter().zip(per_client) {
            if k < samples.len() {
                sent.push(plan.items(k));
            }
        }
    }
    sent
}

/// The daemon's `GET /metrics` snapshots before and after the measured
/// window. Counters and histograms are cumulative over the daemon's life,
/// so the window's share is their difference; this leaves out the boot
/// check and the cache fill.
struct Window<'a> {
    before: &'a JsonValue,
    after: &'a JsonValue,
}

impl Window<'_> {
    fn counter(&self, name: &str) -> f64 {
        let at = |s: &JsonValue| {
            s.get("counters")
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        at(self.after) - at(self.before)
    }

    /// A histogram over the window: its non-empty buckets as
    /// `(upper bound, cumulative count)` and its sum.
    fn hist(&self, name: &str) -> (Vec<(f64, f64)>, f64) {
        let parse = |s: &JsonValue| -> (Vec<(f64, f64)>, f64) {
            let h = s.get("histograms").and_then(|h| h.get(name));
            let buckets = h
                .and_then(|h| h.get("buckets"))
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|b| {
                    let pair = b.as_array()?;
                    Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?))
                })
                .collect();
            let sum = h
                .and_then(|h| h.get("sum"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            (buckets, sum)
        };
        let (before, sum_before) = parse(self.before);
        let (after, sum_after) = parse(self.after);
        let cumulative_before = |le: f64| {
            before
                .iter()
                .take_while(|(upper, _)| *upper <= le)
                .last()
                .map_or(0.0, |(_, c)| *c)
        };
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for (upper, cumulative) in after {
            let c = cumulative - cumulative_before(upper);
            if c > buckets.last().map_or(0.0, |(_, last)| *last) {
                buckets.push((upper, c));
            }
        }
        (buckets, sum_after - sum_before)
    }

    fn mean(&self, name: &str) -> f64 {
        let (buckets, sum) = self.hist(name);
        sum / buckets.last().map_or(f64::NAN, |(_, c)| *c)
    }

    fn quantile(&self, name: &str, q: f64) -> f64 {
        stats::bucket_quantile(&self.hist(name).0, q, 0.0, f64::INFINITY)
    }
}

/// The traced run's layer table. The client spans give connect and
/// first-byte times; the daemon's own histograms give queue wait and
/// service time over the window; an in-process replay of the first
/// requests through the program's public functions (the ones the daemon's
/// request handler calls, on an engine configured like the daemon's)
/// splits the service time; what remains of the client-observed latency
/// is unattributed.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    ctx: &Ctx,
    window: &Window<'_>,
    samples: &[Sample],
    sent: &[Vec<Item>],
    unique: f64,
    expected: &Expected,
    client_tracer: Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let m = &mut out.metrics;
    let queue_mean = window.mean("serve.queue_wait_ms");
    let service_mean = window.mean("serve.service_ms.eval");
    for (metric, hist, q) in [
        ("serve.queue_wait_ms.p50", "serve.queue_wait_ms", 0.5),
        ("serve.queue_wait_ms.p99", "serve.queue_wait_ms", 0.99),
        ("serve.service_ms.eval.p50", "serve.service_ms.eval", 0.5),
        ("serve.service_ms.eval.p99", "serve.service_ms.eval", 0.99),
    ] {
        m.insert(metric, window.quantile(hist, q));
    }
    m.insert(
        "engine.computed_per_unique_key",
        window.counter("engine.computed") / unique,
    );

    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.timing.total_ms)
        .collect();
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.timing.total_ms)
        .collect();
    m.insert("trace.overhead_ms", median(&traced) - median(&plain));
    let latency_mean = mean(&traced);
    m.insert(
        "serve.unattributed_ms",
        latency_mean - queue_mean - service_mean,
    );

    // Replay the first requests in process, layer by layer, on a fresh
    // engine configured like the daemon's, with the engine's own probe
    // spans and histograms on.
    let epoch = Instant::now();
    let mut replay = Tracer::new(true, epoch);
    let mut replayed = 0;
    let mut replayed_jobs = 0;
    while replayed < sent.len().min(REPLAY_REQUESTS) && replayed_jobs < REPLAY_JOBS {
        replayed_jobs += sent[replayed].len();
        replayed += 1;
    }
    let requests: Vec<Vec<u8>> = sent[..replayed]
        .iter()
        .map(|items| post_request("/eval", batch_body(items).as_bytes()))
        .collect();
    let engine = Engine::new()
        .with_exec(ExecOptions::with_threads(1))
        .with_backend(MvaBackend);
    let mut engine_probe = EngineProbe::default();
    let mut iterations = Vec::new();
    let mut parse_bytes = 0usize;
    {
        let _session = probe::session();
        for (raw, items) in requests.iter().zip(sent) {
            let results = replay_request(&mut replay, &engine, raw, &mut parse_bytes)?;
            out.attempted += results.len() as u64;
            out.failed += items
                .iter()
                .zip(&results)
                .filter(|(item, r)| {
                    !r.result
                        .as_ref()
                        .is_ok_and(|e| check::close(e, expected.eval(item.cell)))
                })
                .count() as u64;
            iterations.extend(
                results
                    .iter()
                    .filter_map(|r| r.result.as_ref().ok())
                    .filter(|e| !e.provenance.cached)
                    .map(|e| e.provenance.iterations as f64),
            );
        }
        engine_probe.collect();
    }
    let n = requests.len().max(1) as f64;
    let self_times = replay.self_times();
    let per_op = |name: &str, scale: f64| {
        self_times.get(name).map_or(f64::NAN, |st| {
            st.self_ns as f64 / st.count.max(1) as f64 / scale
        })
    };
    let parse_ms = replay.durations("scenario.parse").iter().sum::<f64>() / 1e6;
    m.insert("scenario.parse_ms", parse_ms / n);
    m.insert(
        "scenario.parse_ns_per_byte",
        parse_ms * 1e6 / parse_bytes.max(1) as f64,
    );
    m.insert(
        "engine.batch_ms",
        replay.durations("engine.evaluate").iter().sum::<f64>() / 1e6 / n,
    );
    m.insert("eval.to_json_us", per_op("eval.to_json", 1e3));
    m.insert("http.read_request_us", per_op("http.read_request", 1e3));
    m.insert("http.chunk_write_us", per_op("http.chunk_write", 1e3));
    engine_probe.metrics(&iterations, m);

    // Reconciliation per traced request: queue wait and service from the
    // daemon, the head read and the service split from the replay, and
    // the rest of the client-observed latency unattributed.
    let mut rows: Vec<(String, f64)> = vec![("serve.queue_wait".to_string(), queue_mean)];
    let mut service_parts = 0.0;
    for (name, st) in &self_times {
        let ns = st.self_ns as f64;
        let split = if *name == "engine.evaluate" {
            engine_probe.rows(ns)
        } else {
            vec![(*name, ns)]
        };
        for (name, ns) in split {
            let ms = ns / 1e6 / n;
            if name != "http.read_request" {
                service_parts += ms;
            }
            rows.push((name.to_string(), ms));
        }
    }
    rows.push((
        "serve.service_other".to_string(),
        service_mean - service_parts,
    ));
    let named: f64 = rows.iter().map(|(_, ms)| ms).sum();
    rows.push(("unattributed".to_string(), latency_mean - named));
    m.insert("unattributed_ms", latency_mean - named);
    out.rows = rows;
    out.total_ms = latency_mean;
    out.record.extend([
        ("traced_requests", traced.len().to_string()),
        ("untraced_requests", plain.len().to_string()),
        ("replayed_requests", requests.len().to_string()),
        ("replayed_jobs", replayed_jobs.to_string()),
        ("daemon_queue_wait_mean_ms", format!("{queue_mean:.6}")),
        ("daemon_service_mean_ms", format!("{service_mean:.6}")),
    ]);

    let mut cells: Vec<Cell> = sent
        .iter()
        .flatten()
        .map(|i| i.cell)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    cells.sort();
    let jobs: Vec<Scenario> = sent
        .iter()
        .flatten()
        .take(6 * CELLS)
        .map(Item::scenario)
        .collect();
    let probe_store = ctx.work.join("probe-store");
    let mut probe_tracer = Tracer::new(true, epoch);
    layers::probe(
        &mut probe_tracer,
        &ProbeInput {
            jobs: &jobs,
            cells: &cells,
            requests: &requests,
            expected,
            store_dir: &probe_store,
        },
        m,
    )?;
    let mut trace = client_tracer;
    trace.absorb(replay);
    trace.absorb(probe_tracer);
    out.trace = Some(trace);
    Ok(())
}

/// What the daemon's `POST /eval` handler does with one request, through
/// the same public functions: read the request, parse the batch, and for
/// each scenario hash it, `Engine::evaluate` it, format the result line
/// around `Evaluation::to_json`, and write the line as one chunk.
fn replay_request(
    t: &mut Tracer,
    engine: &Engine,
    raw: &[u8],
    parse_bytes: &mut usize,
) -> Result<Vec<EngineResult>, String> {
    let request = t
        .span("http.read_request", || read_raw_request(raw))
        .ok_or("replayed request does not parse")?;
    t.begin("serve.request");
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    *parse_bytes += text.len();
    let scenarios = t
        .span("scenario.parse", || Scenario::parse_batch(text))
        .map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let mut writer = t
        .span("http.chunk_write", || {
            ChunkedWriter::start(&mut sink, 200, "application/x-ndjson")
        })
        .map_err(|e| e.to_string())?;
    let mut all = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.iter().enumerate() {
        let hash = t.span("scenario.hash", || scenario.content_hash());
        for outcome in t.span("engine.evaluate", || engine.evaluate(scenario)) {
            let line = t.span("eval.to_json", || match &outcome.result {
                Ok(eval) => format!(
                    "{{\"scenario\":{index},\"hash\":\"{hash:016x}\",\"backend\":\"{}\",\
                     \"key\":{},\"cached\":{},\"queue_wait_ms\":0,\"evaluation\":{}}}\n",
                    outcome.backend,
                    json_string(&outcome.key),
                    eval.provenance.cached,
                    eval.to_json(),
                ),
                Err(e) => format!(
                    "{{\"scenario\":{index},\"hash\":\"{hash:016x}\",\"backend\":\"{}\",\
                     \"key\":{},\"error\":{}}}\n",
                    outcome.backend,
                    json_string(&outcome.key),
                    json_string(&e.to_string()),
                ),
            });
            t.span("http.chunk_write", || writer.chunk(line.as_bytes()))
                .map_err(|e| e.to_string())?;
            all.push(outcome);
        }
    }
    let summary = format!(
        "{{\"done\":true,\"scenarios\":{},\"jobs\":{}}}\n",
        scenarios.len(),
        all.len()
    );
    t.span("http.chunk_write", || {
        writer.chunk(summary.as_bytes())?;
        writer.finish()
    })
    .map_err(|e| e.to_string())?;
    t.end();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(done_s: f64, total_ms: f64) -> Sample {
        Sample {
            timing: Timing {
                total_ms,
                ..Timing::default()
            },
            computed: 0,
            jobs: 2,
            failed: 0,
            body_bytes: 0,
            traced: false,
            done_s,
        }
    }

    #[test]
    fn window_histograms_are_the_difference_of_two_scrapes() {
        let scrape = |buckets: &str, sum: f64, computed: u64| {
            JsonValue::parse(&format!(
                "{{\"counters\":{{\"engine.computed\":{computed}}},\
                 \"histograms\":{{\"h\":{{\"sum\":{sum},\"buckets\":{buckets}}}}}}}"
            ))
            .expect("valid JSON")
        };
        // Before: 3 samples ≤ 1.125 and 1 ≤ 4.0. After: 2 more ≤ 1.125,
        // 2 more ≤ 2.25 and 4 more ≤ 4.0.
        let before = scrape("[[1.125,3],[4.0,4]]", 7.0, 10);
        let after = scrape("[[1.125,5],[2.25,7],[4.0,12]]", 35.0, 16);
        let window = Window {
            before: &before,
            after: &after,
        };
        assert_eq!(window.counter("engine.computed"), 6.0);
        let (buckets, sum) = window.hist("h");
        assert_eq!(buckets, vec![(1.125, 2.0), (2.25, 4.0), (4.0, 8.0)]);
        assert_eq!(sum, 28.0);
        assert_eq!(window.mean("h"), 3.5);
        // Rank 4 of 8 is the last sample of the (2.0, 2.25] bucket.
        assert!((window.quantile("h", 0.5) - 2.25).abs() < 1e-12);
        assert!(window.mean("missing").is_nan());
    }

    #[test]
    fn requests_fall_into_their_interval_and_the_last_takes_the_rest() {
        let samples = [
            sample(0.5, 1.0),
            sample(9.9, 2.0),
            sample(10.1, 3.0),
            sample(26.0, 4.0),
        ];
        let intervals = per_interval(&samples, 26.5);
        assert_eq!(intervals.len(), 2);
        assert_eq!(intervals[0].latencies_ms, vec![1.0, 2.0]);
        assert_eq!(intervals[1].latencies_ms, vec![3.0, 4.0]);
        assert_eq!((intervals[0].seconds, intervals[1].seconds), (10.0, 16.5));
        assert_eq!(intervals[1].jobs, 4.0);
        let short = per_interval(&samples, 4.0);
        assert_eq!((short.len(), short[0].latencies_ms.len()), (1, 4));
    }
}

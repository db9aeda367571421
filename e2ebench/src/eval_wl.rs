//! `eval-grid` and `eval-resume`: the release `snoop eval` binary over the
//! seeded design-space grid, cold against an empty store or resumed
//! against a store populated during set-up.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snoop_mva::engine::{BackendId, DiskStore, Engine, EngineResult, MvaBackend, Scenario};
use snoop_numeric::exec::ExecOptions;
use snoop_numeric::probe;

use crate::check::{self, Expected};
use crate::client::post_request;
use crate::inputs::{batch_body, eval_grid, Cell, Item};
use crate::layers::{self, EngineProbe, ProbeInput};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest invocations of the workload's own kind per run, and the
/// untraced reference invocations of a traced run.
const MIN_REPS: usize = 3;
/// Every this many invocations, one is of the other kind (warm for
/// `eval-grid`, cold for `eval-resume`). Interleaving exposes both kinds
/// to the same drift in host speed.
const SIDE_EVERY: usize = 4;
/// A `snoop eval` invocation that outlives this is killed.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// One timed `snoop eval` invocation.
struct Invocation {
    wall_ms: f64,
    spawn_ms: f64,
    ttfb_ms: f64,
    stdout: Vec<u8>,
    stderr: String,
    ok: bool,
    peak_rss_kb: u64,
    cpu_ms: [f64; 2],
}

impl Invocation {
    /// A `name=value` counter from the stderr line starting with `prefix`.
    fn stat(&self, prefix: &str, name: &str) -> f64 {
        self.stderr
            .lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| {
                l.split_whitespace()
                    .find_map(|w| w.strip_prefix(name)?.strip_prefix('='))
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

fn invoke(snoop: &Path, grid: &Path, store: Option<&Path>) -> Result<Invocation, String> {
    let mut command = Command::new(snoop);
    command
        .arg("eval")
        .arg("--scenarios")
        .arg(grid)
        .args(["--backends", "mva", "--threads", "1"]);
    if let Some(store) = store {
        command.arg("--store").arg(store);
    }
    let started = Instant::now();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", snoop.display()))?;
    let spawned = Instant::now();
    let mut stdout = Vec::with_capacity(1 << 20);
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut buf = [0u8; 64 * 1024];
    let mut first_byte = None;
    let read = loop {
        match out.read(&mut buf) {
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                if n == 0 {
                    break Ok(());
                }
                stdout.extend_from_slice(&buf[..n]);
            }
            Err(e) => break Err(format!("reading snoop stdout: {e}")),
        }
    };
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr);
    if read.is_err() {
        let _ = child.kill();
    }
    let reaped = crate::proc::reap(&child, CHILD_LIMIT).map_err(|e| format!("wait4: {e}"))?;
    read?;
    let ended = Instant::now();
    let ms = |t: Instant| (t - started).as_secs_f64() * 1e3;
    Ok(Invocation {
        wall_ms: ms(ended),
        spawn_ms: ms(spawned),
        ttfb_ms: ms(first_byte.unwrap_or(ended)),
        stdout,
        stderr,
        ok: reaped.success(),
        peak_rss_kb: reaped.peak_rss_kb,
        cpu_ms: [reaped.user_ms, reaped.sys_ms],
    })
}

/// Jobs of `items` whose printed result does not match the direct solve.
fn stdout_failures(stdout: &[u8], items: &[Item], expected: &Expected) -> u64 {
    let Ok(text) = std::str::from_utf8(stdout) else {
        return items.len() as u64;
    };
    let mut lines = text.lines();
    let header = format!("eval: {} scenario(s) × 1 backend(s) [mva]", items.len());
    if lines.next() != Some(header.as_str()) {
        return items.len() as u64;
    }
    let mut failed = 0;
    for (i, item) in items.iter().enumerate() {
        let scenario = item.scenario();
        let head = format!("[{i}] {scenario}  (hash {:016x})", scenario.content_hash());
        let ok = lines.next() == Some(head.as_str())
            && lines
                .next()
                .and_then(|l| l.strip_prefix("    "))
                .is_some_and(|l| expected.summary_matches(item.cell, l));
        failed += u64::from(!ok);
    }
    failed
}

/// Table 4.1 cells whose printed speedup is off the published one by more
/// than the reproduction tolerance.
fn table_failures(stdout: &[u8], items: &[Item]) -> u64 {
    let text = String::from_utf8_lossy(stdout);
    let speedups: HashMap<Cell, f64> = items
        .iter()
        .zip(text.lines().skip(2).step_by(2))
        .filter_map(|(item, line)| {
            let v = line
                .split_whitespace()
                .find_map(|w| w.strip_prefix("speedup="))?;
            Some((item.cell, v.parse().ok()?))
        })
        .collect();
    check::table_cells()
        .iter()
        .filter(|(cell, published)| {
            !speedups
                .get(cell)
                .is_some_and(|s| check::table_matches(*s, *published))
        })
        .count() as u64
}

/// Distinct jobs whose stored entry is missing or does not match the
/// direct solve at 1e-9.
fn store_failures(dir: &Path, items: &[Item], expected: &Expected) -> Result<u64, String> {
    let store = DiskStore::open(dir).map_err(|e| format!("reopen store: {e}"))?;
    let cells: HashSet<Cell> = items.iter().map(|i| i.cell).collect();
    Ok(cells
        .into_iter()
        .filter(|cell| {
            let key = Engine::job_key(BackendId::Mva, &cell.scenario());
            !store
                .get(&key)
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .is_some_and(|text| expected.json_matches(*cell, &text))
        })
        .count() as u64)
}

/// Counts jobs and checks every invocation's output. The first output
/// checked becomes the reference; it is validated in full (every line
/// against the direct solve, the Table 4.1 cells against the paper, every
/// stored entry at 1e-9 when the invocation wrote a store). Every later
/// output must be byte-identical to it, or is checked line by line.
#[derive(Default)]
struct Checker {
    reference: Option<Vec<u8>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(
        &mut self,
        inv: &Invocation,
        store: Option<&Path>,
        items: &[Item],
        expected: &Expected,
    ) -> Result<(), String> {
        let jobs = items.len() as u64;
        self.attempted += jobs;
        let failed = if !inv.ok {
            jobs
        } else if self.reference.as_deref() == Some(inv.stdout.as_slice()) {
            0
        } else {
            stdout_failures(&inv.stdout, items, expected)
        };
        let failed = if self.reference.is_none() && inv.ok {
            self.reference = Some(inv.stdout.clone());
            failed + table_failures(&inv.stdout, items)
        } else {
            failed
        };
        let failed = match store {
            Some(dir) if inv.ok => failed + store_failures(dir, items, expected)?,
            _ => failed,
        };
        self.failed += failed.min(jobs);
        Ok(())
    }
}

/// Set-up: generate the grid file; for `eval-resume` also populate a store
/// with one cold invocation. Repeated [`SETUPS`] times; the last store is
/// used. No store is deleted before the run ends (the work directory goes
/// as a whole).
struct Setup {
    items: Vec<Item>,
    grid: PathBuf,
    setup_s: Vec<f64>,
    /// The populating invocations and their stores (`eval-resume` only).
    populated: Vec<(Invocation, PathBuf)>,
}

impl Setup {
    fn store(&self) -> Option<&Path> {
        self.populated.last().map(|(_, store)| store.as_path())
    }
}

fn setup(ctx: &Ctx, snoop: &Path, resume: bool) -> Result<Setup, String> {
    let grid = ctx.work.join("grid.json");
    let mut out = Setup {
        items: Vec::new(),
        grid: grid.clone(),
        setup_s: Vec::new(),
        populated: Vec::new(),
    };
    for s in 0..SETUPS {
        let started = Instant::now();
        out.items = eval_grid(ctx.seed);
        std::fs::write(&grid, batch_body(&out.items)).map_err(|e| format!("write grid: {e}"))?;
        if resume {
            let store = ctx.work.join(format!("store-{s}"));
            out.populated
                .push((invoke(snoop, &grid, Some(&store))?, store));
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// Runs `eval-grid` (`resume == false`) or `eval-resume`.
///
/// `eval-grid` times cold invocations without a store and, interleaved,
/// warm ones against a store populated before the window (untimed);
/// `eval-resume` times warm invocations against the store populated during
/// set-up and, interleaved, cold ones without a store. No timed
/// invocation writes a store: creating files costs between 20 and 450 µs
/// each on a 2-core virtual machine with an ext4 disk, varying from one
/// ten-second stretch to the next independently of the program, which
/// swamps every other effect on a 4,800-entry write.
///
/// # Errors
///
/// A message when the binary cannot be run or the work directory cannot
/// be written.
pub fn run(ctx: &Ctx, snoop: &Path, resume: bool) -> Result<Outcome, String> {
    let set = setup(ctx, snoop, resume)?;
    let expected = Expected::solve_grid();
    let items = &set.items;
    let jobs = items.len() as f64;
    let mut checker = Checker::default();
    let mut out = Outcome::default();
    out.metrics.insert("setup_s", median(&set.setup_s));
    // The populated store is validated first, with the populating run as
    // the reference output.
    for (inv, store) in set.populated.iter().rev() {
        checker.check(
            inv,
            (Some(store.as_path()) == set.store()).then_some(store.as_path()),
            items,
            &expected,
        )?;
    }

    let (mut invocations, mut side) = (Vec::new(), Vec::new());
    if ctx.traced {
        traced_layers(
            ctx,
            snoop,
            &set,
            &expected,
            &mut invocations,
            &mut checker,
            &mut out,
        )?;
    } else {
        // eval-grid's warm invocations read a store populated here,
        // untimed and outside set-up.
        let warm_store = ctx.work.join("store-warm");
        if !resume {
            let populate = invoke(snoop, &set.grid, Some(&warm_store))?;
            checker.check(&populate, Some(&warm_store), items, &expected)?;
        }
        let started = Instant::now();
        let mut k = 0;
        while invocations.len() < MIN_REPS
            || side.len() < MIN_REPS
            || started.elapsed().as_secs_f64() < ctx.seconds
        {
            let other_kind = k % SIDE_EVERY == SIDE_EVERY - 1;
            let store = match (resume, other_kind) {
                (false, false) | (true, true) => None,
                (false, true) => Some(warm_store.as_path()),
                (true, false) => set.store(),
            };
            let inv = invoke(snoop, &set.grid, store)?;
            checker.check(&inv, None, items, &expected)?;
            if other_kind {
                side.push(inv)
            } else {
                invocations.push(inv)
            }
            k += 1;
        }
    }

    let walls: Vec<f64> = invocations.iter().map(|i| i.wall_ms).collect();
    let side_walls: Vec<f64> = side.iter().map(|i| i.wall_ms).collect();
    let (cold, warm) = if resume {
        (&side_walls, &walls)
    } else {
        (&walls, &side_walls)
    };
    let tail = stats::tail(&walls);
    let cold_share = cold.len() as f64 / (cold.len() + warm.len()) as f64;
    let m = &mut out.metrics;
    m.insert(
        "jobs_per_s",
        median(&walls.iter().map(|w| jobs / (w / 1e3)).collect::<Vec<_>>()),
    );
    m.insert("req_p50_ms", median(&walls));
    m.insert("req_p99_ms", tail.value);
    m.insert("cold_req_p50_ms", median(cold));
    m.insert("warm_req_p50_ms", median(warm));
    m.insert(
        "peak_rss_mb",
        median(
            &invocations
                .iter()
                .map(|i| i.peak_rss_kb as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    let first = &invocations[0];
    let unique = items.iter().map(|i| i.cell).collect::<HashSet<_>>().len() as f64;
    let cache_hits = first.stat("cache:", "hits");
    let store_hits = first.stat("store:", "hits");
    let store_lookups = store_hits + first.stat("store:", "misses");
    let computed = if resume {
        first.stat("store:", "writes")
    } else {
        first.stat("cache:", "entries")
    };
    let list = |v: &[f64]| stats::json_array(v, 1);
    out.record.extend([
        ("invocation_walls_ms", list(&walls)),
        ("side_walls_ms", list(&side_walls)),
        (
            "invocation_user_ms",
            list(&invocations.iter().map(|i| i.cpu_ms[0]).collect::<Vec<_>>()),
        ),
        (
            "invocation_sys_ms",
            list(&invocations.iter().map(|i| i.cpu_ms[1]).collect::<Vec<_>>()),
        ),
        ("invocations", invocations.len().to_string()),
        ("jobs_per_invocation", items.len().to_string()),
        ("req_tail_percentile", format!("{:.1}", tail.percentile)),
        ("req_tail_samples_beyond", tail.beyond.to_string()),
        ("cold_samples", cold.len().to_string()),
        ("warm_samples", warm.len().to_string()),
        ("dup_share", format!("{:.6}", 1.0 - unique / jobs)),
        ("cache_hit_share", format!("{:.6}", cache_hits / jobs)),
        (
            "store_hit_share",
            format!("{:.6}", store_hits / store_lookups.max(1.0)),
        ),
        ("cold_request_share", format!("{cold_share:.6}")),
        (
            "bytes_per_job",
            format!("{:.1}", first.stdout.len() as f64 / jobs),
        ),
    ]);
    m.insert("engine.dup_share", 1.0 - unique / jobs);
    m.insert("cache.hit_ratio", cache_hits / jobs);
    m.insert("store.hit_ratio", store_hits / store_lookups.max(1.0));
    m.insert("store.hits", store_hits);
    m.insert("engine.computed_per_unique_key", computed / unique);
    m.insert("cold_request_share", cold_share);
    m.insert("response.bytes_per_job", first.stdout.len() as f64 / jobs);
    m.insert(
        "client.connect_ms",
        median(&invocations.iter().map(|i| i.spawn_ms).collect::<Vec<_>>()),
    );
    m.insert(
        "client.ttfb_ms",
        median(&invocations.iter().map(|i| i.ttfb_ms).collect::<Vec<_>>()),
    );
    for name in [
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99",
        "serve.service_ms.eval.p50",
        "serve.service_ms.eval.p99",
        "serve.unattributed_ms",
    ] {
        m.insert(name, 0.0);
    }
    out.attempted = checker.attempted;
    out.failed = checker.failed;
    Ok(out)
}

/// The engine `snoop eval --backends mva --threads 1 [--store DIR]`
/// builds.
fn cli_engine(store: Option<&Path>) -> Result<Engine, String> {
    let engine = Engine::new()
        .with_exec(ExecOptions::with_threads(1))
        .with_backend(MvaBackend);
    Ok(match store {
        Some(dir) => engine.with_store(Arc::new(
            DiskStore::open(dir).map_err(|e| format!("replay store: {e}"))?,
        )),
        None => engine,
    })
}

/// Does in process what one `snoop eval` invocation does with the grid
/// file, through the program's public functions: read the file, parse the
/// batch, build the engine, `Engine::evaluate_batch`, format the summary
/// lines and write them out. Returns the engine's results.
fn replay(
    t: &mut Tracer,
    grid: &Path,
    store: Option<&Path>,
    sink: &Path,
) -> Result<Vec<EngineResult>, String> {
    t.begin("eval.run");
    let text = t
        .span("io.read", || std::fs::read_to_string(grid))
        .map_err(|e| e.to_string())?;
    let scenarios = t
        .span("scenario.parse", || Scenario::parse_batch(&text))
        .map_err(|e| e.to_string())?;
    let engine = t.span("engine.new", || cli_engine(store))?;
    let results = t.span("engine.evaluate_batch", || {
        engine.evaluate_batch(&scenarios)
    });
    let output = t.span("eval.summary", || {
        let mut out = format!(
            "eval: {} scenario(s) × 1 backend(s) [mva]\n",
            scenarios.len()
        );
        for ((i, scenario), r) in scenarios.iter().enumerate().zip(&results) {
            let _ = writeln!(
                out,
                "[{i}] {scenario}  (hash {:016x})",
                scenario.content_hash()
            );
            match &r.result {
                Ok(eval) => {
                    let _ = writeln!(out, "    {}", eval.summary());
                }
                Err(e) => {
                    let _ = writeln!(out, "    {:<13} error: {e}", r.backend.to_string());
                }
            }
        }
        out
    });
    t.span("io.write", || std::fs::write(sink, output))
        .map_err(|e| e.to_string())?;
    t.end();
    Ok(results)
}

/// The traced run: `snoop eval` invocations of the workload's own kind,
/// untraced replays and traced replays, in turn for the run's duration,
/// then the layer probes. Traced replays run under a `probe::session`, so
/// the engine records its own spans and histograms.
///
/// The reconciliation rows add up to the median `snoop eval` wall time:
/// the replay's layers (self time), the engine's inner split
/// ([`EngineProbe::rows`]), `unattributed` (the replay's own glue) and
/// `process` (wall time minus the in-process replay: process start-up,
/// argument handling, pipes).
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    ctx: &Ctx,
    snoop: &Path,
    set: &Setup,
    expected: &Expected,
    invocations: &mut Vec<Invocation>,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut traced = Tracer::new(true, epoch);
    let mut engine = EngineProbe::default();
    let mut iterations: Vec<f64> = Vec::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let sink = ctx.work.join("replay-out.txt");
    let mut k = 0;
    while k < 3 * MIN_REPS || epoch.elapsed().as_secs_f64() < ctx.seconds {
        if k % 3 == 0 {
            let inv = invoke(snoop, &set.grid, set.store())?;
            checker.check(&inv, None, &set.items, expected)?;
            invocations.push(inv);
            k += 1;
            continue;
        }
        let is_traced = k % 3 == 2;
        let mut plain = Tracer::new(false, epoch);
        let session = is_traced.then(probe::session);
        let started = Instant::now();
        let results = replay(
            if is_traced { &mut traced } else { &mut plain },
            &set.grid,
            set.store(),
            &sink,
        )?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if is_traced {
            engine.collect();
            drop(session);
            traced_ms.push(ms);
            // Fixed-point iterations of each job computed (duplicates in
            // the batch share their first occurrence's result).
            let computed: HashMap<&str, usize> = results
                .iter()
                .filter_map(|r| Some((r.key.as_str(), r.result.as_ref().ok()?)))
                .filter(|(_, e)| !e.provenance.cached)
                .map(|(key, e)| (key, e.provenance.iterations))
                .collect();
            iterations.extend(computed.values().map(|&i| i as f64));
        } else {
            plain_ms.push(ms);
        }
        checker.attempted += results.len() as u64;
        checker.failed += set
            .items
            .iter()
            .zip(&results)
            .filter(|(item, r)| {
                !r.result
                    .as_ref()
                    .is_ok_and(|e| check::close(e, expected.eval(item.cell)))
            })
            .count() as u64;
        k += 1;
    }

    let m = &mut out.metrics;
    let jobs = set.items.len() as f64;
    let reps = traced_ms.len() as f64;
    let parse_ms = median(&traced.durations("scenario.parse")) / 1e6;
    let grid_bytes = std::fs::metadata(&set.grid)
        .map(|md| md.len() as f64)
        .unwrap_or(f64::NAN);
    m.insert("scenario.parse_ms", parse_ms);
    m.insert("scenario.parse_ns_per_byte", parse_ms * 1e6 / grid_bytes);
    m.insert(
        "engine.batch_ms",
        median(&traced.durations("engine.evaluate_batch")) / 1e6,
    );
    m.insert("trace.overhead_ms", median(&traced_ms) - median(&plain_ms));
    engine.metrics(&iterations, m);

    let self_times = traced.self_times();
    let per_rep = |ns: f64| ns / 1e6 / reps;
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut unattributed = 0.0;
    for (name, st) in &self_times {
        let ms = per_rep(st.self_ns as f64);
        match *name {
            "eval.run" => unattributed = ms,
            "engine.evaluate_batch" => {
                for (inner, ns) in engine.rows(st.self_ns as f64) {
                    rows.push((inner.to_string(), per_rep(ns)));
                }
            }
            _ => rows.push((name.to_string(), ms)),
        }
    }
    m.insert(
        "eval.summary_us",
        self_times
            .get("eval.summary")
            .map_or(f64::NAN, |st| st.self_ns as f64 / 1e3 / (jobs * reps)),
    );
    let in_process_ms = per_rep(traced.durations("eval.run").iter().sum::<f64>());
    let wall_ms = median(&invocations.iter().map(|i| i.wall_ms).collect::<Vec<_>>());
    rows.push(("process".to_string(), wall_ms - in_process_ms));
    rows.push(("unattributed".to_string(), unattributed));
    m.insert("unattributed_ms", unattributed);
    out.rows = rows;
    out.total_ms = wall_ms;

    let mut cells: Vec<Cell> = set
        .items
        .iter()
        .map(|i| i.cell)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    cells.sort();
    // Bytes the invocation reads from the store: one entry per distinct
    // job, every one a store hit on eval-resume.
    let bytes_read = match set.store() {
        Some(dir) => {
            let store = DiskStore::open(dir).map_err(|e| format!("reopen store: {e}"))?;
            cells
                .iter()
                .filter_map(|c| store.get(&Engine::job_key(BackendId::Mva, &c.scenario())))
                .map(|bytes| bytes.len() as f64)
                .sum()
        }
        None => 0.0,
    };
    m.insert("store.bytes_read", bytes_read);
    out.record.extend([
        ("traced_replays", traced_ms.len().to_string()),
        ("untraced_replays", plain_ms.len().to_string()),
        ("untraced_replay_ms", format!("{:.3}", median(&plain_ms))),
        ("traced_replay_ms", format!("{:.3}", median(&traced_ms))),
        ("in_process_ms", format!("{in_process_ms:.3}")),
        ("process_wall_ms", format!("{wall_ms:.3}")),
    ]);

    let jobs: Vec<Scenario> = set.items.iter().map(Item::scenario).collect();
    let requests = vec![post_request(
        "/eval",
        &std::fs::read(&set.grid).map_err(|e| e.to_string())?,
    )];
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
    traced.absorb(probe_tracer);
    out.trace = Some(traced);
    Ok(())
}

//! End-to-end benchmark of `snoop eval` sweeps and `snoop serve` requests,
//! with a per-layer table from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload eval-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See `README.md` for the workloads and metrics.

mod check;
mod client;
mod eval_wl;
mod inputs;
mod layers;
mod proc;
mod serve_wl;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use snoop_serve::http::json_string;
use trace::Tracer;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Metric names with their units.
type MetricTable = &'static [(&'static str, &'static str)];

/// The workloads. `BENCHMARK.json` lists the `serve-*` ones; a run of an
/// `eval-*` one has only a dozen process invocations, whose wall times
/// swing too much with host speed for a gate over separate runs (see
/// `README.md`).
const WORKLOADS: [&str; 4] = ["eval-grid", "eval-resume", "serve-seq", "serve-batch"];

/// End-to-end metrics (name, unit), printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("cold_req_p50_ms", "ms"),
    ("warm_req_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 35] = [
    ("scenario.parse_ms", "ms"),
    ("scenario.parse_ns_per_byte", "ns/byte"),
    ("engine.batch_ms", "ms"),
    ("engine.key_ns_per_job", "ns"),
    ("engine.dup_share", "ratio"),
    ("cache.get_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("engine.computed_per_unique_key", "ratio"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.decode_us", "us"),
    ("store.hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_read", "bytes"),
    ("mva.solve_us.p50", "us"),
    ("mva.solve_us.p99", "us"),
    ("mva.iterations_per_solve.mean", "count"),
    ("mva.iterations_per_solve.p99", "count"),
    ("mva.ns_per_iteration", "ns"),
    ("eval.to_json_us", "us"),
    ("eval.summary_us", "us"),
    ("response.bytes_per_job", "bytes"),
    ("http.read_request_us", "us"),
    ("http.chunk_write_us", "us"),
    ("client.connect_ms", "ms"),
    ("client.ttfb_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.eval.p50", "ms"),
    ("serve.service_ms.eval.p99", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("cold_request_share", "ratio"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.reconciled_ms", "ms"),
];

/// Run settings shared by every workload.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed or returned a wrong value.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: Metrics,
    /// Extra fields of the result record (name, JSON value).
    pub record: Vec<(&'static str, String)>,
    /// Reconciliation rows of a traced run: (layer, ms per unit of work).
    pub rows: Vec<(String, f64)>,
    /// The client-observed total the rows add up to (ms per unit).
    pub total_ms: f64,
    /// Every span of a traced run.
    pub trace: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; have {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Builds the release `snoop` binary of the checkout (the working
/// directory) and returns its path.
fn build_snoop(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a snoop checkout (no crates/cli)",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "snoop-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building snoop-cli failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let snoop = target.join("release/snoop");
    snoop
        .is_file()
        .then_some(snoop.clone())
        .ok_or_else(|| format!("{} was not built", snoop.display()))
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_sha(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args) -> Result<(Outcome, MetricTable), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let snoop = if args.workload.starts_with("eval") {
        Some(build_snoop(&root)?)
    } else {
        None
    };
    let work = root
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: work.clone(),
    };
    let started = Instant::now();
    let outcome = match (args.workload.as_str(), &snoop) {
        ("eval-grid", Some(snoop)) => eval_wl::run(&ctx, snoop, false),
        ("eval-resume", Some(snoop)) => eval_wl::run(&ctx, snoop, true),
        ("serve-seq", _) => serve_wl::run(&ctx, false),
        ("serve-batch", _) => serve_wl::run(&ctx, true),
        _ => unreachable!("workload names are validated"),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome?;
    let attempted = outcome.attempted.max(1);
    outcome
        .metrics
        .insert("ok_ratio", 1.0 - outcome.failed as f64 / attempted as f64);
    outcome.metrics.insert(
        "trace.reconciled_ms",
        outcome.rows.iter().map(|(_, ms)| ms).sum(),
    );

    let seconds_total = started.elapsed().as_secs_f64();
    let mut record = format!(
        "{{\"schema\":\"snoop-e2ebench-record-v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"nproc\":{},\"git_sha\":{},\"run_s\":{seconds_total:.3},\"attempted\":{},\
         \"failed\":{},\"error_ratio\":{}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&git_sha(&root)),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / attempted as f64,
    );
    for (key, value) in &outcome.record {
        let _ = write!(record, ",{}:{value}", json_string(key));
    }
    record.push('}');
    println!("record {record}");

    if let Some(trace) = outcome.trace.take() {
        let dir = root.join(".bench_work");
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", trace.spans().len(), path.display());
        println!(
            "layer reconciliation ({}), ms per unit of work:",
            args.workload
        );
        let mut rows = outcome.rows.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in &rows {
            println!(
                "  {name:<28} {ms:>12.4}  {:>6.1}%",
                100.0 * ms / outcome.total_ms
            );
        }
        println!(
            "  {:<28} {:>12.4}  (client-observed total)",
            "total", outcome.total_ms
        );
    }
    let table: MetricTable = if args.traced { &PER_LAYER } else { &END_TO_END };
    Ok((outcome, table))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--daemon") {
        return match serve_wl::daemon_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (outcome, table) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = String::new();
    for (name, unit) in table {
        let Some(value) = outcome.metrics.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("e2ebench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        println!("{name:<32} {value:>16.6} {unit}");
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-seq --seed 4 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("serve-seq", 4, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload eval-grid --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload eval-grid --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics_and_known_workloads() {
        use snoop_numeric::json::JsonValue;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        for (name, _) in list("workloads") {
            assert!(WORKLOADS.contains(&name.as_str()), "{name}");
        }
    }
}

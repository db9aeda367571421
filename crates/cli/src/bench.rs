//! The `bench` subcommand: machine-readable timing JSON.
//!
//! Emits four files so the perf trajectory of the suite is tracked from
//! one PR to the next:
//!
//! * `BENCH_sweep.json` — the full Figure 4.1 sweep grid through the
//!   engine's warm-chained resilient backend (the path `snoop sweep`
//!   takes), serial vs. parallel, with wall time, total solver
//!   iterations, thread count and a bit-identical check. The printed
//!   summary adds the MVA solve time at N = 1 … 10 000 (the Section 3.2
//!   efficiency claim).
//! * `BENCH_gtpn.json` — the Write-Once coherence GTPN: reachability
//!   expansion (serial vs. parallel frontier) and stationary-distribution
//!   timing, dense LU vs. sparse Aitken-accelerated power iteration.
//! * `BENCH_sim.json` — independent simulation replications, serial vs.
//!   parallel, with a bit-identical check.
//! * `BENCH_exec.json` — executor microbenchmark: per-item `par_map`
//!   dispatch cost against the persistent worker pool, serial vs.
//!   parallel over trivial jobs, so scheduling overhead is tracked
//!   separately from solver work.
//!
//! `--stage sweep|gtpn|sim|exec` limits a run to one stage (default
//! `all`); every emitted file carries the same run metadata, including
//! `host_parallelism` (the machine's available cores, independent of
//! `--threads`/`SNOOP_THREADS`) so CI can decide whether measured
//! speedups are meaningful on the runner that produced them.
//!
//! With `--metrics-out FILE` (handled by the dispatcher) the run also
//! emits per-stage solver metrics: because every stage above exercises
//! the instrumented paths, the file covers MVA solves, GTPN reachability,
//! GTPN steady state and sim replications in one run.
//!
//! The JSON is hand-rolled (flat objects, no escaping needed for the keys
//! and values we emit) because the workspace is offline-first and carries
//! no serde dependency.

use std::fmt::Write as _;
use std::time::Instant;

use snoop_gtpn::chain::transition_matrix;
use snoop_gtpn::models::coherence::CoherenceNet;
use snoop_gtpn::reachability::{explore, ReachabilityOptions};
use snoop_mva::engine::{Engine, ResilientMvaBackend, Scenario};
use snoop_mva::sweep::figure_4_1_grid;
use snoop_mva::{MvaModel, SolverOptions};
use snoop_numeric::exec::{hardware_parallelism, par_map, ExecOptions};
use snoop_numeric::markov::{steady_state_dense, steady_state_sparse, SparseOptions};
use snoop_numeric::probe::trace;
use snoop_protocol::ModSet;
use snoop_sim::runner::replicate_exec;
use snoop_sim::SimConfig;
use snoop_workload::derived::ModelInputs;
use snoop_workload::params::{SharingLevel, WorkloadParams};
use snoop_workload::timing::TimingModel;

use crate::args::ParsedArgs;

/// Runs the selected benchmark stages (default: all) and writes their
/// JSON files into `--out-dir`.
///
/// # Errors
///
/// Returns a user-facing message on bad flags, solver failures or
/// unwritable output files.
pub fn cmd_bench(args: &ParsedArgs) -> Result<String, String> {
    let threads: usize = args.flag_num("threads", 0)?;
    let exec = ExecOptions::with_threads(threads);
    let out_dir = args.flag_str("out-dir", ".");
    let quick = args.switch("quick");
    let stage = args.flag_str("stage", "all");
    if !matches!(stage.as_str(), "all" | "sweep" | "gtpn" | "sim" | "exec") {
        return Err(format!(
            "unknown --stage {stage:?}, expected sweep, gtpn, sim, exec or all"
        ));
    }
    let meta = run_metadata(args, exec.resolved_threads(), quick);

    let mut out = String::new();
    let mut written: Vec<String> = Vec::new();
    let stages: [(&str, StageFn); 4] = [
        ("sweep", bench_sweep),
        ("gtpn", bench_gtpn),
        ("sim", bench_sim),
        ("exec", bench_exec),
    ];
    for (name, run) in stages {
        if stage != "all" && stage != name {
            continue;
        }
        let json = run(&exec, quick, &meta, &mut out)?;
        let path = format!("{out_dir}/BENCH_{name}.json");
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        written.push(path);
    }
    let _ = writeln!(out, "wrote {}", written.join(" and "));
    Ok(out)
}

/// One benchmark stage: runs, appends its human summary to `out`, and
/// returns the JSON document to write.
type StageFn = fn(&ExecOptions, bool, &str, &mut String) -> Result<String, String>;

fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Escapes a flag value for a JSON string literal (run ids and git shas
/// are normally plain, but a hostile value must not corrupt the file).
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The run-metadata lines shared by the `BENCH_*.json` files: schema
/// tag, thread count, the host's actual hardware parallelism (so CI can
/// tell whether a measured speedup is meaningful — a 4-thread run on a
/// 1-core runner cannot go faster than serial), quick-mode flag and the
/// optional `--run-id` / `--git-sha` passthrough, so `snoop perf diff`
/// verdicts are attributable to a specific run.
fn run_metadata(args: &ParsedArgs, threads: usize, quick: bool) -> String {
    let mut meta = String::new();
    let _ = writeln!(meta, "  \"schema\": \"snoop-bench-v1\",");
    let _ = writeln!(meta, "  \"threads\": {threads},");
    let _ = writeln!(meta, "  \"host_parallelism\": {},", hardware_parallelism());
    let _ = writeln!(meta, "  \"quick\": {quick},");
    for key in ["run-id", "git-sha"] {
        let value = args.flag_str(key, "");
        if !value.is_empty() {
            let _ = writeln!(
                meta,
                "  \"{}\": \"{}\",",
                key.replace('-', "_"),
                json_escape(&value)
            );
        }
    }
    meta
}

/// Times the Figure 4.1 resilient sweep grid, serial vs. parallel.
fn bench_sweep(
    exec: &ExecOptions,
    quick: bool,
    meta: &str,
    out: &mut String,
) -> Result<String, String> {
    let _trace = trace::span("bench.sweep");
    let sizes: Vec<usize> = if quick {
        vec![1, 2, 4, 8]
    } else {
        (1..=20).chain([30, 50, 100]).collect()
    };
    // The sweep path: warm-chained escalation ladders through the
    // engine, one fresh engine per run so nothing is served from cache.
    let grid = figure_4_1_grid();
    let scenarios: Vec<Scenario> = grid
        .iter()
        .flat_map(|&(mods, sharing)| {
            sizes.iter().map(move |&n| Scenario::appendix_a(mods, sharing, n))
        })
        .collect();
    let run = |exec: ExecOptions| {
        Engine::new()
            .with_backend(ResilientMvaBackend { warm_start_chains: true, ..Default::default() })
            .with_exec(exec)
            .evaluate_batch(&scenarios)
    };

    let start = Instant::now();
    let serial = {
        let _t = trace::span("bench.sweep.serial");
        run(ExecOptions::SERIAL)
    };
    let serial_ms = millis(start);

    let start = Instant::now();
    let parallel = {
        let _t = trace::span("bench.sweep.parallel");
        run(*exec)
    };
    let parallel_ms = millis(start);

    let bit_identical = serial == parallel;
    let total_iterations: usize = serial
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|e| e.provenance.iterations)
        .sum();
    let threads = exec.resolved_threads();
    let speedup = serial_ms / parallel_ms.max(1e-9);

    let _ = writeln!(
        out,
        "sweep: {} cells x {} sizes, serial {serial_ms:.1} ms, \
         {threads}-thread {parallel_ms:.1} ms ({speedup:.2}x), bit-identical: {bit_identical}",
        grid.len(),
        sizes.len()
    );

    solve_time_vs_n(quick, out)?;

    let mut json = String::from("{\n");
    json.push_str(meta);
    let _ = writeln!(json, "  \"benchmark\": \"figure_4_1_resilient_sweep\",");
    let _ = writeln!(json, "  \"grid_cells\": {},", grid.len());
    let _ = writeln!(json, "  \"sizes\": {},", sizes.len());
    let _ = writeln!(json, "  \"max_n\": {},", sizes.last().copied().unwrap_or(0));
    let _ = writeln!(json, "  \"total_iterations\": {total_iterations},");
    let _ = writeln!(json, "  \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(json, "  \"parallel_ms\": {parallel_ms:.3},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"bit_identical\": {bit_identical}");
    json.push_str("}\n");
    Ok(json)
}

/// Section 3.2's efficiency claim, measured: the MVA solve time stays
/// small as the system grows from 1 to 10 000 processors. Appends one
/// row per size (mean wall time over repeated solves, iterations to the
/// default 1e-12 tolerance) to the human summary only.
fn solve_time_vs_n(quick: bool, out: &mut String) -> Result<(), String> {
    let _t = trace::span("bench.sweep.solve_vs_n");
    let model =
        MvaModel::for_protocol(&WorkloadParams::appendix_a(SharingLevel::Five), ModSet::new())
            .map_err(|e| e.to_string())?;
    let reps = if quick { 5 } else { 100 };
    let _ = writeln!(
        out,
        "sweep: MVA solve time vs N (WO, 5% sharing, tolerance 1e-12, mean of {reps} solves):"
    );
    for n in [1usize, 2, 10, 100, 1_000, 10_000] {
        let start = Instant::now();
        let mut iterations = 0;
        for _ in 0..reps {
            iterations =
                model.solve(n, &SolverOptions::default()).map_err(|e| e.to_string())?.iterations;
        }
        let per_solve_us = millis(start) * 1e3 / reps as f64;
        let _ = writeln!(
            out,
            "  N = {n:<6} {per_solve_us:>10.1} µs/solve   {iterations} iterations"
        );
    }
    Ok(())
}

/// Times the Write-Once coherence GTPN: parallel frontier expansion and
/// dense-vs-sparse stationary distribution.
fn bench_gtpn(
    exec: &ExecOptions,
    quick: bool,
    meta: &str,
    out: &mut String,
) -> Result<String, String> {
    let _trace = trace::span("bench.gtpn");
    // N = 3 is the largest Write-Once graph the dense LU baseline can
    // factor in bench-friendly time (its cost grows as states³); `--quick`
    // drops to N = 2.
    let n = if quick { 2 } else { 3 };
    let inputs = ModelInputs::derive_adjusted(
        &WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
        &TimingModel::default(),
    )
    .map_err(|e| e.to_string())?;
    let net = CoherenceNet::build(&inputs, n).map_err(|e| e.to_string())?;

    let serial_options = ReachabilityOptions { threads: 1, ..ReachabilityOptions::default() };
    let start = Instant::now();
    let graph = {
        let _t = trace::span("bench.gtpn.explore_serial");
        explore(&net.net, &serial_options).map_err(|e| e.to_string())?
    };
    let explore_serial_ms = millis(start);

    let threads = exec.resolved_threads();
    let parallel_options =
        ReachabilityOptions { threads: exec.threads, ..ReachabilityOptions::default() };
    let start = Instant::now();
    let graph_parallel = {
        let _t = trace::span("bench.gtpn.explore_parallel");
        explore(&net.net, &parallel_options).map_err(|e| e.to_string())?
    };
    let explore_parallel_ms = millis(start);
    let explore_identical = graph == graph_parallel;
    let explore_speedup = explore_serial_ms / explore_parallel_ms.max(1e-9);

    let p = transition_matrix(&graph).map_err(|e| e.to_string())?;
    let mut initial = vec![0.0; graph.len()];
    for &(s, prob) in &graph.initial {
        initial[s] += prob;
    }

    let start = Instant::now();
    let dense = {
        let _t = trace::span("bench.gtpn.steady_state_dense");
        steady_state_dense(&p).map_err(|e| e.to_string())?
    };
    let dense_ms = millis(start);

    // Force the iterative path (the configuration every graph above the
    // dense threshold gets) for an honest dense-vs-sparse comparison.
    let sparse_options = SparseOptions {
        dense_threshold: 0,
        dense_fallback_limit: 0,
        ..SparseOptions::default()
    };
    let start = Instant::now();
    let sparse = {
        let _t = trace::span("bench.gtpn.steady_state_sparse");
        steady_state_sparse(&p, Some(&initial), &sparse_options).map_err(|e| e.to_string())?
    };
    let sparse_ms = millis(start);

    let max_diff = dense
        .iter()
        .zip(&sparse.pi)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    let sparse_speedup = dense_ms / sparse_ms.max(1e-9);

    let _ = writeln!(
        out,
        "gtpn:  N={n} write-once, {} states, {} nnz; explore serial \
         {explore_serial_ms:.1} ms, {threads}-thread {explore_parallel_ms:.1} ms \
         ({explore_speedup:.2}x, identical: {explore_identical})",
        graph.len(),
        p.nnz()
    );
    let _ = writeln!(
        out,
        "       steady state: dense {dense_ms:.1} ms, sparse {sparse_ms:.1} ms \
         ({sparse_speedup:.1}x, {} iterations, max |dπ| {max_diff:.2e})",
        sparse.iterations
    );

    let mut json = String::from("{\n");
    json.push_str(meta);
    let _ = writeln!(json, "  \"benchmark\": \"write_once_gtpn\",");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"states\": {},", graph.len());
    let _ = writeln!(json, "  \"nnz\": {},", p.nnz());
    let _ = writeln!(json, "  \"explore_serial_ms\": {explore_serial_ms:.3},");
    let _ = writeln!(json, "  \"explore_parallel_ms\": {explore_parallel_ms:.3},");
    let _ = writeln!(json, "  \"explore_speedup\": {explore_speedup:.3},");
    let _ = writeln!(json, "  \"explore_bit_identical\": {explore_identical},");
    let _ = writeln!(json, "  \"dense_ms\": {dense_ms:.3},");
    let _ = writeln!(json, "  \"sparse_ms\": {sparse_ms:.3},");
    let _ = writeln!(json, "  \"sparse_speedup\": {sparse_speedup:.3},");
    let _ = writeln!(json, "  \"sparse_iterations\": {},", sparse.iterations);
    let _ = writeln!(json, "  \"max_pi_difference\": {max_diff:.3e}");
    json.push_str("}\n");
    Ok(json)
}

/// Times independent simulation replications, serial vs. parallel.
fn bench_sim(
    exec: &ExecOptions,
    quick: bool,
    meta: &str,
    out: &mut String,
) -> Result<String, String> {
    let _trace = trace::span("bench.sim");
    let mut config = SimConfig::for_protocol(
        8,
        WorkloadParams::appendix_a(SharingLevel::Five),
        ModSet::new(),
    );
    config.warmup_references = 500;
    config.measured_references = if quick { 3_000 } else { 10_000 };
    let replications = 4;

    let start = Instant::now();
    let serial = {
        let _t = trace::span("bench.sim.serial");
        replicate_exec(&config, replications, 0.95, &ExecOptions::SERIAL)
            .map_err(|e| e.to_string())?
    };
    let serial_ms = millis(start);

    let threads = exec.resolved_threads();
    let start = Instant::now();
    let parallel = {
        let _t = trace::span("bench.sim.parallel");
        replicate_exec(&config, replications, 0.95, exec).map_err(|e| e.to_string())?
    };
    let parallel_ms = millis(start);

    let bit_identical = serial
        .replications
        .iter()
        .zip(&parallel.replications)
        .all(|(a, b)| a == b)
        && serial.speedup.mean.to_bits() == parallel.speedup.mean.to_bits();
    let speedup = serial_ms / parallel_ms.max(1e-9);

    let _ = writeln!(
        out,
        "sim:   {replications} replications x {} refs, serial {serial_ms:.1} ms, \
         {threads}-thread {parallel_ms:.1} ms ({speedup:.2}x), bit-identical: {bit_identical}",
        config.measured_references
    );

    let mut json = String::from("{\n");
    json.push_str(meta);
    let _ = writeln!(json, "  \"benchmark\": \"sim_replications\",");
    let _ = writeln!(json, "  \"n\": {},", config.n);
    let _ = writeln!(json, "  \"replications\": {replications},");
    let _ = writeln!(json, "  \"measured_references\": {},", config.measured_references);
    let _ = writeln!(json, "  \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(json, "  \"parallel_ms\": {parallel_ms:.3},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"bit_identical\": {bit_identical}");
    json.push_str("}\n");
    Ok(json)
}

/// Microbenchmarks `par_map` dispatch against the persistent worker
/// pool: many repetitions of a map over trivial jobs, so the measured
/// cost is scheduling (chunk claiming, wakeup, result scatter), not
/// work. Reported as nanoseconds per item; the first call warms the
/// pool so thread spawning is excluded — exactly the steady state the
/// solver layers run in.
fn bench_exec(
    exec: &ExecOptions,
    quick: bool,
    meta: &str,
    out: &mut String,
) -> Result<String, String> {
    let _trace = trace::span("bench.exec");
    let items: Vec<u64> = (0..4096).collect();
    let repetitions: usize = if quick { 50 } else { 400 };
    let threads = exec.resolved_threads();
    let job = |&x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);

    // Anti-DCE accumulator (wrapping: the sums overflow by design).
    let fold = |mapped: Vec<u64>| mapped.iter().fold(0u64, |a, &b| a.wrapping_add(b));

    // Warm-up: the first parallel call spawns the pool's workers.
    let mut checksum: u64 = fold(par_map(&items, exec, job));

    let start = Instant::now();
    for _ in 0..repetitions {
        checksum ^= fold(par_map(&items, &ExecOptions::SERIAL, job));
    }
    let serial_ms = millis(start);

    let start = Instant::now();
    for _ in 0..repetitions {
        checksum ^= fold(par_map(&items, exec, job));
    }
    let parallel_ms = millis(start);

    let total_jobs = (repetitions * items.len()) as f64;
    let serial_ns_per_job = serial_ms * 1e6 / total_jobs;
    let parallel_ns_per_job = parallel_ms * 1e6 / total_jobs;
    // Scheduling cost the pool adds on top of the work itself. Negative
    // on multicore hosts (the work parallelizes); clamped at zero so the
    // field gates cleanly as overhead.
    let dispatch_ns_per_job = (parallel_ns_per_job - serial_ns_per_job).max(0.0);

    let _ = writeln!(
        out,
        "exec:  {} items x {repetitions} reps, serial {serial_ns_per_job:.1} ns/job, \
         {threads}-thread {parallel_ns_per_job:.1} ns/job \
         (dispatch overhead {dispatch_ns_per_job:.1} ns/job, checksum {checksum:#x})",
        items.len()
    );

    let mut json = String::from("{\n");
    json.push_str(meta);
    let _ = writeln!(json, "  \"benchmark\": \"exec_dispatch\",");
    let _ = writeln!(json, "  \"items\": {},", items.len());
    let _ = writeln!(json, "  \"repetitions\": {repetitions},");
    let _ = writeln!(json, "  \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(json, "  \"parallel_ms\": {parallel_ms:.3},");
    let _ = writeln!(json, "  \"serial_ns_per_job\": {serial_ns_per_job:.3},");
    let _ = writeln!(json, "  \"parallel_ns_per_job\": {parallel_ns_per_job:.3},");
    let _ = writeln!(json, "  \"dispatch_ns_per_job\": {dispatch_ns_per_job:.3}");
    json.push_str("}\n");
    Ok(json)
}

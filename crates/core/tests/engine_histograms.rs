//! The telemetry plane stays observational: collecting job wall-time
//! histograms from concurrently executing workers cannot perturb the
//! solve.
//!
//! This is its own test binary because the probe registry is
//! process-global: a lib test running alongside would record its own
//! jobs into `engine.job_ms.mva` and break the exact count below.

use snoop_mva::engine::{Engine, MvaBackend, Scenario};
use snoop_numeric::exec::ExecOptions;
use snoop_protocol::ModSet;
use snoop_workload::params::SharingLevel;

#[test]
fn engine_output_is_bit_identical_across_threads_with_histograms_enabled() {
    let _session = snoop_numeric::probe::session();
    let scenarios =
        [2, 4, 8, 16].map(|n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n));
    let run = |threads: usize| {
        Engine::new()
            .with_backend(MvaBackend)
            .with_exec(ExecOptions::with_threads(threads))
            .evaluate_batch(&scenarios)
    };
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{threads} threads");
            assert_eq!(a.provenance.iterations, b.provenance.iterations);
        }
    }
    // And collection really ran: every computed job fed the per-backend
    // wall-time histogram (3 cold runs x 4 scenarios).
    let snap = snoop_numeric::probe::snapshot();
    let hist = snap.hists.iter().find(|(n, _)| n == "engine.job_ms.mva");
    assert!(hist.is_some_and(|(_, h)| h.count() == 12), "job histogram populated");
}

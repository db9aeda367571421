//! Parameter sweeps: speedup curves over system size, protocols and
//! sharing levels — the data behind Figure 4.1 and Table 4.1.
//!
//! [`resilient_speedup_series`] is the production entry point: each system
//! size is solved through the escalation ladder of [`crate::resilient`],
//! **warm-started** from the previous size's converged state (with a cold
//! retry on failure), and a size that defeats the whole ladder is reported
//! as [`SweepPoint::Failed`] instead of aborting the sweep.

use std::fmt;

use snoop_numeric::exec::{par_map, ExecOptions};
use snoop_protocol::ModSet;
use snoop_workload::params::{SharingLevel, WorkloadParams};

use crate::resilient::{ResilientOptions, ResilientSolution};
use crate::solver::{MvaModel, SolverOptions};
use crate::{MvaError, MvaSolution};

/// The processor counts of Table 4.1.
pub const TABLE_4_1_N: [usize; 9] = [1, 2, 4, 6, 8, 10, 15, 20, 100];

/// One speedup-vs-N series for a (protocol, sharing level) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupSeries {
    /// Modification set of the protocol.
    pub mods: ModSet,
    /// Sharing level of the workload.
    pub sharing: SharingLevel,
    /// Solutions, parallel to the requested `n` values.
    pub points: Vec<MvaSolution>,
}

impl SpeedupSeries {
    /// The speedups of the series.
    pub fn speedups(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.speedup).collect()
    }
}

/// One point of a resilient sweep: solved with diagnostics, or failed with
/// a reason — never a panic, never a silently-missing entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepPoint {
    /// The ladder converged at this size.
    Solved(ResilientSolution),
    /// Every strategy failed at this size; the sweep carried on.
    Failed {
        /// System size of the failed point.
        n: usize,
        /// The error that defeated the ladder (its display includes the
        /// per-attempt diagnostics).
        reason: String,
    },
}

impl SweepPoint {
    /// The system size of the point.
    pub fn n(&self) -> usize {
        match self {
            SweepPoint::Solved(r) => r.solution.n,
            SweepPoint::Failed { n, .. } => *n,
        }
    }

    /// The solution, when the point converged.
    pub fn solution(&self) -> Option<&MvaSolution> {
        match self {
            SweepPoint::Solved(r) => Some(&r.solution),
            SweepPoint::Failed { .. } => None,
        }
    }
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepPoint::Solved(r) => {
                write!(f, "N={}: speedup {:.3}", r.solution.n, r.solution.speedup)
            }
            SweepPoint::Failed { n, reason } => write!(f, "N={n}: FAILED ({reason})"),
        }
    }
}

/// A resilient speedup-vs-N series: one [`SweepPoint`] per requested size.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientSweep {
    /// Modification set of the protocol.
    pub mods: ModSet,
    /// Sharing level of the workload.
    pub sharing: SharingLevel,
    /// One point per requested size, solved or failed.
    pub points: Vec<SweepPoint>,
}

impl ResilientSweep {
    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| matches!(p, SweepPoint::Failed { .. })).count()
    }

    /// Iterations summed over every attempt of every point — the metric
    /// that warm-starting is meant to shrink.
    pub fn total_iterations(&self) -> usize {
        self.points
            .iter()
            .filter_map(|p| match p {
                SweepPoint::Solved(r) => Some(r.diagnostics.total_iterations()),
                SweepPoint::Failed { .. } => None,
            })
            .sum()
    }
}

/// Solves one (protocol, sharing) series through the escalation ladder,
/// warm-starting each size from the previous size's converged state.
///
/// The warm seed is dropped (cold start) after a failed point. When
/// `warm_start` is false every point starts cold — useful for measuring
/// what warm-starting buys.
///
/// # Errors
///
/// Returns `Err` only if the workload itself is invalid (model
/// construction); solver failures degrade to [`SweepPoint::Failed`].
pub fn resilient_speedup_series(
    mods: ModSet,
    sharing: SharingLevel,
    sizes: &[usize],
    options: &ResilientOptions,
    warm_start: bool,
) -> Result<ResilientSweep, MvaError> {
    let model = MvaModel::for_protocol(&WorkloadParams::appendix_a(sharing), mods)?;
    Ok(ResilientSweep { mods, sharing, points: resilient_sweep(&model, sizes, options, warm_start) })
}

/// Sweeps an already-built model over `sizes` with warm-starting and
/// graceful degradation (the engine under [`resilient_speedup_series`]).
pub fn resilient_sweep(
    model: &MvaModel,
    sizes: &[usize],
    options: &ResilientOptions,
    warm_start: bool,
) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(sizes.len());
    let mut seed: Option<[f64; 3]> = None;
    for &n in sizes {
        let warm = seed.filter(|_| warm_start);
        let result = model.solve_resilient_seeded(n, warm, options).or_else(|e| {
            // A poisoned warm seed must not fail the point: retry cold.
            if warm.is_some() && !matches!(e, MvaError::InvalidSystemSize(_)) {
                model.solve_resilient(n, options)
            } else {
                Err(e)
            }
        });
        match result {
            Ok(resilient) => {
                let s = &resilient.solution;
                seed = Some([s.w_bus, s.w_mem, s.r]);
                points.push(SweepPoint::Solved(resilient));
            }
            Err(e) => {
                seed = None;
                points.push(SweepPoint::Failed { n, reason: e.to_string() });
            }
        }
    }
    points
}

/// Solves one (protocol, sharing) series over the given system sizes.
///
/// # Errors
///
/// Propagates model construction and solver errors.
pub fn speedup_series(
    mods: ModSet,
    sharing: SharingLevel,
    sizes: &[usize],
    options: &SolverOptions,
) -> Result<SpeedupSeries, MvaError> {
    let model = MvaModel::for_protocol(&WorkloadParams::appendix_a(sharing), mods)?;
    let points =
        sizes.iter().map(|&n| model.solve(n, options)).collect::<Result<Vec<_>, _>>()?;
    Ok(SpeedupSeries { mods, sharing, points })
}

/// The (protocol, sharing) grid of Figure 4.1: the three protocols the
/// paper plots (Write-Once, modification 1, modifications 1+4), each at
/// the three sharing levels, in plot order.
pub fn figure_4_1_grid() -> Vec<(ModSet, SharingLevel)> {
    use snoop_protocol::Modification;
    let protocols = [
        ModSet::new(),
        ModSet::new().with(Modification::ExclusiveLoad),
        ModSet::new().with(Modification::ExclusiveLoad).with(Modification::DistributedWrite),
    ];
    let mut grid = Vec::with_capacity(protocols.len() * SharingLevel::ALL.len());
    for mods in protocols {
        for sharing in SharingLevel::ALL {
            grid.push((mods, sharing));
        }
    }
    grid
}

/// Solves the full Figure 4.1 family with the grid cells evaluated in
/// parallel: each (protocol, sharing) series is an independent work item,
/// and within a series the sizes remain sequential. Results are
/// bit-identical to the serial evaluation for any thread count.
///
/// # Errors
///
/// Propagates model construction and solver errors (the first failing
/// cell in grid order, matching the serial evaluation).
pub fn figure_4_1_family_exec(
    sizes: &[usize],
    options: &SolverOptions,
    exec: &ExecOptions,
) -> Result<Vec<SpeedupSeries>, MvaError> {
    par_map(&figure_4_1_grid(), exec, |&(mods, sharing)| {
        speedup_series(mods, sharing, sizes, options)
    })
    .into_iter()
    .collect()
}

/// Solves the Figure 4.1 family through the resilient escalation ladder,
/// one grid cell per work item: series run concurrently while
/// warm-starting stays *within* each series (sequential over N, exactly
/// as in [`resilient_speedup_series`]). Results are bit-identical to the
/// serial evaluation for any thread count.
///
/// # Errors
///
/// Returns `Err` only for invalid workloads (model construction); solver
/// failures degrade to [`SweepPoint::Failed`] entries.
pub fn resilient_figure_4_1_family(
    sizes: &[usize],
    options: &ResilientOptions,
    warm_start: bool,
    exec: &ExecOptions,
) -> Result<Vec<ResilientSweep>, MvaError> {
    par_map(&figure_4_1_grid(), exec, |&(mods, sharing)| {
        resilient_speedup_series(mods, sharing, sizes, options, warm_start)
    })
    .into_iter()
    .collect()
}

/// Solves one series with the size-dependent sharing refinement (the
/// \[GrMi87\] improvement the paper's Section 2.3 calls for), anchored so
/// the Appendix-A `csupply` values hold exactly at `reference_n`.
///
/// Unlike [`speedup_series`], the derived inputs change with `N`: the
/// probability that some other cache can supply a shared block grows as
/// `1 − (1 − q)^(N−1)`.
///
/// # Errors
///
/// Propagates model construction and solver errors.
pub fn refined_speedup_series(
    mods: ModSet,
    sharing: SharingLevel,
    sizes: &[usize],
    options: &SolverOptions,
    reference_n: usize,
) -> Result<SpeedupSeries, MvaError> {
    let base = WorkloadParams::appendix_a(sharing);
    let refinement =
        snoop_workload::sharing::SizeDependentSharing::anchored(&base, reference_n)?;
    let points = sizes
        .iter()
        .map(|&n| {
            let params = refinement.at_size(&base, n);
            MvaModel::for_protocol(&params, mods)?.solve(n, options)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SpeedupSeries { mods, sharing, points })
}

/// Sweeps one scalar workload parameter, returning `(value, speedup)`
/// pairs. `set` mutates a copy of `base` for each swept value.
///
/// # Errors
///
/// Propagates model construction and solver errors (e.g. an invalid swept
/// value).
pub fn parameter_sweep<F>(
    base: &WorkloadParams,
    mods: ModSet,
    n: usize,
    values: &[f64],
    options: &SolverOptions,
    mut set: F,
) -> Result<Vec<(f64, MvaSolution)>, MvaError>
where
    F: FnMut(&mut WorkloadParams, f64),
{
    values
        .iter()
        .map(|&v| {
            let mut params = *base;
            set(&mut params, v);
            let model = MvaModel::for_protocol(&params, mods)?;
            Ok((v, model.solve(n, options)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_one_point_per_size() {
        let s = speedup_series(
            ModSet::new(),
            SharingLevel::Five,
            &TABLE_4_1_N,
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(s.points.len(), 9);
        assert_eq!(s.speedups().len(), 9);
        assert_eq!(s.points[0].n, 1);
        assert_eq!(s.points[8].n, 100);
    }

    #[test]
    fn figure_family_has_nine_series() {
        let family =
            figure_4_1_family_exec(&[1, 10], &SolverOptions::default(), &ExecOptions::SERIAL)
                .unwrap();
        assert_eq!(family.len(), 9);
        // Distinct protocol/sharing combinations.
        let mut keys: Vec<String> =
            family.iter().map(|s| format!("{}/{}", s.mods, s.sharing)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn refined_series_anchors_at_reference() {
        let fixed = speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[2, 10, 50],
            &SolverOptions::default(),
        )
        .unwrap();
        let refined = refined_speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[2, 10, 50],
            &SolverOptions::default(),
            10,
        )
        .unwrap();
        // At the anchor the two models coincide.
        assert!(
            (fixed.points[1].speedup - refined.points[1].speedup).abs() < 1e-9,
            "anchor mismatch: {} vs {}",
            fixed.points[1].speedup,
            refined.points[1].speedup
        );
        // Away from it they differ (csupply moved).
        assert!((fixed.points[0].speedup - refined.points[0].speedup).abs() > 1e-6);
        assert!((fixed.points[2].speedup - refined.points[2].speedup).abs() > 1e-6);
    }

    #[test]
    fn refinement_helps_at_scale_for_write_once() {
        // More caches holding copies means more cache-supplied (fast)
        // misses at large N — with Write-Once partially offset by extra
        // supplier write-backs; the net effect is positive for the
        // Appendix-A workload.
        let fixed = speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[100],
            &SolverOptions::default(),
        )
        .unwrap();
        let refined = refined_speedup_series(
            ModSet::new(),
            SharingLevel::Twenty,
            &[100],
            &SolverOptions::default(),
            10,
        )
        .unwrap();
        assert!(
            refined.points[0].speedup > fixed.points[0].speedup,
            "refined {} vs fixed {}",
            refined.points[0].speedup,
            fixed.points[0].speedup
        );
    }

    #[test]
    fn resilient_series_matches_plain_series() {
        let plain = speedup_series(
            ModSet::new(),
            SharingLevel::Five,
            &TABLE_4_1_N,
            &SolverOptions::default(),
        )
        .unwrap();
        let resilient = resilient_speedup_series(
            ModSet::new(),
            SharingLevel::Five,
            &TABLE_4_1_N,
            &ResilientOptions::default(),
            true,
        )
        .unwrap();
        assert_eq!(resilient.failures(), 0);
        for (p, q) in plain.points.iter().zip(&resilient.points) {
            let s = q.solution().expect("solved");
            assert!(
                (p.speedup - s.speedup).abs() < 1e-6 * p.speedup.max(1.0),
                "N={}: plain {} vs resilient {}",
                p.n,
                p.speedup,
                s.speedup
            );
        }
    }

    #[test]
    fn warm_start_beats_cold_on_table_4_1_configs() {
        // The ISSUE's acceptance criterion: over the paper's Table 4.1
        // protocol/sharing grid, warm-started sweeps spend strictly fewer
        // total iterations than cold-started ones.
        use snoop_protocol::Modification;
        let protocols = [
            ModSet::new(),
            ModSet::new().with(Modification::ExclusiveLoad),
            ModSet::new().with(Modification::ExclusiveLoad).with(Modification::DistributedWrite),
        ];
        for mods in protocols {
            for sharing in SharingLevel::ALL {
                let options = ResilientOptions::default();
                let warm = resilient_speedup_series(mods, sharing, &TABLE_4_1_N, &options, true)
                    .unwrap();
                let cold = resilient_speedup_series(mods, sharing, &TABLE_4_1_N, &options, false)
                    .unwrap();
                assert_eq!(warm.failures(), 0, "{mods} {sharing}");
                assert_eq!(cold.failures(), 0, "{mods} {sharing}");
                assert!(
                    warm.total_iterations() < cold.total_iterations(),
                    "{mods} {sharing}: warm {} vs cold {}",
                    warm.total_iterations(),
                    cold.total_iterations()
                );
            }
        }
    }

    #[test]
    fn failed_points_degrade_gracefully() {
        // An unreachable tolerance defeats every strategy at every size:
        // the sweep must still return one (failed) point per size rather
        // than aborting, and each failure must carry a reason.
        let options = ResilientOptions {
            base: SolverOptions { max_iterations: 8, tolerance: 0.0, damping: 1.0 },
            ..ResilientOptions::default()
        };
        let sweep = resilient_speedup_series(
            ModSet::new(),
            SharingLevel::Five,
            &[1, 2, 4],
            &options,
            true,
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.failures(), 3);
        for p in &sweep.points {
            match p {
                SweepPoint::Failed { reason, .. } => {
                    assert!(!reason.is_empty());
                    assert!(p.solution().is_none());
                }
                SweepPoint::Solved(_) => panic!("expected failure: {p}"),
            }
        }
    }

    #[test]
    fn parallel_family_is_bit_identical_to_serial() {
        let sizes = [1, 4, 10];
        let options = ResilientOptions::default();
        let serial =
            resilient_figure_4_1_family(&sizes, &options, true, &ExecOptions::SERIAL).unwrap();
        for threads in [2, 8] {
            let parallel = resilient_figure_4_1_family(
                &sizes,
                &options,
                true,
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn grid_has_nine_distinct_cells() {
        let grid = figure_4_1_grid();
        assert_eq!(grid.len(), 9);
        let mut keys: Vec<String> =
            grid.iter().map(|(m, s)| format!("{m}/{s}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn parameter_sweep_tracks_hit_rate() {
        let sweep = parameter_sweep(
            &WorkloadParams::default(),
            ModSet::new(),
            10,
            &[0.80, 0.90, 0.99],
            &SolverOptions::default(),
            |p, v| p.h_private = v,
        )
        .unwrap();
        assert_eq!(sweep.len(), 3);
        // Higher private hit rate, higher speedup.
        assert!(sweep[2].1.speedup > sweep[0].1.speedup);
    }

    #[test]
    fn parameter_sweep_propagates_invalid_values() {
        let err = parameter_sweep(
            &WorkloadParams::default(),
            ModSet::new(),
            4,
            &[1.5],
            &SolverOptions::default(),
            |p, v| p.h_private = v,
        );
        assert!(err.is_err());
    }
}

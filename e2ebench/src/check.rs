//! The correctness gate. Every value the program returns is compared with a
//! direct in-process `MvaModel` solve of the same scenario at 1e-9
//! relative, and the grid cells that are Table 4.1 cells are compared with
//! the published speedups at the 5% tolerance of the reproduction test.

use std::time::Instant;

use snoop_mva::engine::{BackendId, Evaluation, Provenance};
use snoop_mva::paper::{table_4_1, TABLE_N};
use snoop_mva::MvaSolution;
use snoop_numeric::json::JsonValue;

use crate::inputs::{mask_of, Cell, CELLS};

/// Relative tolerance against the direct solve.
pub const REL_TOL: f64 = 1e-9;
/// Relative tolerance against the published Table 4.1 speedups.
pub const TABLE_TOL: f64 = 0.05;

/// The direct solve of every grid cell.
pub struct Expected {
    /// Per cell index: the evaluation the MVA backend must return.
    pub evals: Vec<Evaluation>,
    /// Per cell index: its `Evaluation::to_json` form.
    pub json: Vec<String>,
    /// Per cell index: microseconds the `to_mva_model` + `solve` call took.
    pub solve_us: Vec<f64>,
}

impl Expected {
    /// Solves every grid cell directly (`Scenario::to_mva_model` +
    /// `MvaModel::solve`), timing each solve.
    ///
    /// # Panics
    ///
    /// If a grid cell fails to solve: the grid is fixed and every cell
    /// converges, so a failure is a defect to report, not an input.
    pub fn solve_grid() -> Expected {
        let mut evals = Vec::with_capacity(CELLS);
        let mut solve_us = Vec::with_capacity(CELLS);
        for i in 0..CELLS {
            let scenario = Cell::from_index(i).scenario();
            let started = Instant::now();
            let solution = scenario
                .to_mva_model()
                .ok()
                .and_then(|model| model.solve(scenario.n, &scenario.solver_options()).ok());
            solve_us.push(started.elapsed().as_secs_f64() * 1e6);
            let s = solution.unwrap_or_else(|| panic!("grid cell {scenario} does not solve"));
            evals.push(evaluation_of(&s));
        }
        let json = evals.iter().map(Evaluation::to_json).collect();
        Expected {
            evals,
            json,
            solve_us,
        }
    }

    /// The expected evaluation of a cell.
    pub fn eval(&self, cell: Cell) -> &Evaluation {
        &self.evals[cell.index()]
    }

    /// Whether a returned `Evaluation::to_json` text matches the cell's
    /// direct solve: byte-equal, or equal at [`REL_TOL`] after parsing.
    pub fn json_matches(&self, cell: Cell, text: &str) -> bool {
        text == self.json[cell.index()]
            || JsonValue::parse(text)
                .ok()
                .and_then(|doc| Evaluation::from_json(&doc).ok())
                .is_some_and(|got| close(&got, self.eval(cell)))
    }

    /// Whether an `Evaluation::summary` line matches the cell's direct
    /// solve to the printed precision.
    pub fn summary_matches(&self, cell: Cell, line: &str) -> bool {
        let want = self.eval(cell).summary();
        line == want || summary_close(line, &want)
    }
}

/// The evaluation the MVA backend builds from a solution.
pub fn evaluation_of(s: &MvaSolution) -> Evaluation {
    Evaluation {
        backend: BackendId::Mva,
        n: s.n,
        r: s.r,
        speedup: s.speedup,
        speedup_half_width: None,
        bus_utilization: s.bus_utilization,
        memory_utilization: Some(s.memory_utilization),
        w_bus: Some(s.w_bus),
        w_mem: Some(s.w_mem),
        q_bus: Some(s.q_bus),
        provenance: Provenance::new(s.iterations, 0, 0),
    }
}

/// Equality at [`REL_TOL`] on every measure; the cost counters in the
/// provenance are not compared.
pub fn close(a: &Evaluation, b: &Evaluation) -> bool {
    let near =
        |x: f64, y: f64| (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
    let near_opt = |x: Option<f64>, y: Option<f64>| match (x, y) {
        (Some(x), Some(y)) => near(x, y),
        (None, None) => true,
        _ => false,
    };
    a.backend == b.backend
        && a.n == b.n
        && near(a.r, b.r)
        && near(a.speedup, b.speedup)
        && near_opt(a.speedup_half_width, b.speedup_half_width)
        && near(a.bus_utilization, b.bus_utilization)
        && near_opt(a.memory_utilization, b.memory_utilization)
        && near_opt(a.w_bus, b.w_bus)
        && near_opt(a.w_mem, b.w_mem)
        && near_opt(a.q_bus, b.q_bus)
}

/// Summary lines print six decimals: equal words, and numbers within one
/// unit of the last printed digit.
fn summary_close(got: &str, want: &str) -> bool {
    let (got, want): (Vec<&str>, Vec<&str>) = (
        got.split_whitespace().collect(),
        want.split_whitespace().collect(),
    );
    got.len() == want.len()
        && got.iter().zip(&want).all(|(g, w)| {
            g == w
                || match (g.split_once('='), w.split_once('=')) {
                    (Some((gk, gv)), Some((wk, wv))) if gk == wk => {
                        matches!((gv.parse::<f64>(), wv.parse::<f64>()), (Ok(a), Ok(b)) if (a - b).abs() <= 1.5e-6)
                    }
                    _ => false,
                }
        })
}

/// The grid cells of Table 4.1 with their published MVA speedups.
pub fn table_cells() -> Vec<(Cell, f64)> {
    let mut cells = Vec::new();
    for row in table_4_1() {
        for (i, &n) in TABLE_N.iter().enumerate() {
            if let Some(cell) = Cell::find(mask_of(row.mods()), row.sharing, n) {
                cells.push((cell, row.mva[i]));
            }
        }
    }
    cells
}

/// Whether a returned speedup is within [`TABLE_TOL`] of the published one.
pub fn table_matches(speedup: f64, published: f64) -> bool {
    (speedup - published).abs() / published < TABLE_TOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cells_are_all_in_the_grid() {
        let cells = table_cells();
        assert_eq!(cells.len(), 9 * 9);
    }

    #[test]
    fn tolerances_accept_reformatting_and_reject_drift() {
        let expected = Expected::solve_grid();
        let cell = Cell::from_index(1234);
        let want = expected.eval(cell).clone();
        assert!(expected.json_matches(cell, &expected.json[cell.index()]));
        let mut nudged = want.clone();
        nudged.speedup *= 1.0 + 1e-12;
        assert!(expected.json_matches(cell, &nudged.to_json()));
        nudged.speedup *= 1.0 + 1e-6;
        assert!(!expected.json_matches(cell, &nudged.to_json()));
        assert!(!expected.json_matches(cell, "{\"truncated\":"));
        assert!(expected.summary_matches(cell, &want.summary()));
        nudged = want.clone();
        nudged.r += 1e-3;
        assert!(!expected.summary_matches(cell, &nudged.summary()));
        for (cell, published) in table_cells() {
            assert!(
                table_matches(expected.eval(cell).speedup, published),
                "{cell:?}"
            );
        }
    }
}

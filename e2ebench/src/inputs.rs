//! Seeded input generation. Every workload input is a pure function of the
//! `--seed` argument; the program only ever sees the generated files and
//! request bodies.
//!
//! The design-space grid is the paper's use case: the 16 subsets of the
//! four protocol modifications × the three Appendix-A sharing levels ×
//! N = 1..100, i.e. 4,800 cells.

use snoop_mva::engine::Scenario;
use snoop_protocol::{ModSet, Modification};
use snoop_workload::params::SharingLevel;

/// Mod-sets in the grid (every subset of the four modifications).
pub const MOD_SETS: usize = 16;
/// Largest system size in the grid.
pub const MAX_N: usize = 100;
/// Cells in the grid.
pub const CELLS: usize = MOD_SETS * 3 * MAX_N;
/// Extra, re-spelled copies of grid cells in the `eval-*` batch file:
/// one job in six is a duplicate.
pub const GRID_DUPLICATES: usize = CELLS / 5;
/// Scenarios per `serve-batch` request: enough that the daemon's service
/// time, not the acceptor's 20 ms idle poll, dominates a request.
pub const BATCH: usize = 500;
/// Never-seen scenarios in each fresh `serve-batch` request.
pub const BATCH_FRESH: usize = 50;
/// `serve-batch` repeats are drawn from this many most recent fresh
/// scenarios. The daemon's result cache evicts in insertion order and
/// holds 16,384 results by default, so these are always still cached.
pub const HOT_WINDOW: usize = 2_000;
/// Offset of the cache-fill stream's `sim.seed` cycles from the workload's
/// own: the workload's stream would need this many passes over the grid
/// (157 million scenarios) to reach the fill stream's first key.
const FILL_CYCLES: u64 = 32_768;

const SHARING: [(SharingLevel, &str); 3] = [
    (SharingLevel::One, "1"),
    (SharingLevel::Five, "5"),
    (SharingLevel::Twenty, "20"),
];

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One grid cell: a mod-set bitmask, a sharing level and a system size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell(u16);

impl Cell {
    /// The cell with this index in `0..CELLS`.
    pub fn from_index(index: usize) -> Cell {
        assert!(index < CELLS, "cell index {index} out of range");
        Cell(index as u16)
    }

    /// The cell's index in `0..CELLS`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The cell for a mod-set mask, sharing level and `n` if it is in the
    /// grid.
    pub fn find(mods: usize, sharing: SharingLevel, n: usize) -> Option<Cell> {
        let s = SHARING.iter().position(|(level, _)| *level == sharing)?;
        (mods < MOD_SETS && (1..=MAX_N).contains(&n))
            .then(|| Cell::from_index((mods * 3 + s) * MAX_N + n - 1))
    }

    /// Bitmask of modifications (bit k = modification k + 1).
    pub fn mods(self) -> usize {
        self.index() / (3 * MAX_N)
    }

    fn sharing_slot(self) -> usize {
        self.index() / MAX_N % 3
    }

    /// The system size.
    pub fn n(self) -> usize {
        self.index() % MAX_N + 1
    }

    /// The cell's modification set.
    pub fn mod_set(self) -> ModSet {
        mod_set(self.mods())
    }

    /// The scenario the program evaluates for this cell (engine defaults
    /// for every knob the batch files leave out).
    pub fn scenario(self) -> Scenario {
        Scenario::appendix_a(self.mod_set(), SHARING[self.sharing_slot()].0, self.n())
    }
}

/// The modification set of a bitmask.
pub fn mod_set(mask: usize) -> ModSet {
    Modification::ALL
        .iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0)
        .fold(ModSet::new(), |set, (_, m)| set.with(*m))
}

/// The bitmask of a modification set.
pub fn mask_of(set: ModSet) -> usize {
    Modification::ALL
        .iter()
        .enumerate()
        .filter(|(_, m)| set.contains(**m))
        .map(|(bit, _)| 1 << bit)
        .sum()
}

/// One scenario as a client writes it: a grid cell, the spelling of its
/// protocol, and for streams that must never repeat a key, a simulation
/// seed (part of the content hash, ignored by the MVA backend).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Item {
    /// The grid cell.
    pub cell: Cell,
    /// The protocol spelling, e.g. `WO+4+1`.
    pub protocol: String,
    /// `sim.seed`, when set.
    pub sim_seed: Option<u64>,
}

impl Item {
    fn new(cell: Cell, rng: Option<&mut Rng>, sim_seed: Option<u64>) -> Item {
        let mut bits: Vec<usize> = (0..4).filter(|bit| cell.mods() & (1 << bit) != 0).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut bits);
        }
        let mut protocol = String::from("WO");
        for bit in bits {
            protocol.push_str(&format!("+{}", bit + 1));
        }
        Item {
            cell,
            protocol,
            sim_seed,
        }
    }

    /// The compact JSON object of this scenario.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"protocol\":\"{}\",\"sharing\":\"{}\",\"n\":{}",
            self.protocol,
            SHARING[self.cell.sharing_slot()].1,
            self.cell.n()
        );
        if let Some(seed) = self.sim_seed {
            s.push_str(&format!(",\"sim\":{{\"seed\":{seed}}}"));
        }
        s.push('}');
        s
    }

    /// The scenario the program parses from [`Item::json`].
    pub fn scenario(&self) -> Scenario {
        let mut scenario = self.cell.scenario();
        if let Some(seed) = self.sim_seed {
            scenario.sim.seed = seed;
        }
        scenario
    }
}

/// A `snoop-scenario-v1` batch document, one scenario per line.
pub fn batch_body(items: &[Item]) -> String {
    let mut out = String::from("{\"schema\":\"snoop-scenario-v1\",\"scenarios\":[\n");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&item.json());
    }
    out.push_str("\n]}\n");
    out
}

/// The `eval-*` batch: every grid cell once plus [`GRID_DUPLICATES`]
/// re-spelled copies of seeded cells, in seeded order.
pub fn eval_grid(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed, 1);
    let mut items: Vec<Item> = (0..CELLS)
        .map(|i| Item::new(Cell::from_index(i), None, None))
        .collect();
    for _ in 0..GRID_DUPLICATES {
        let cell = Cell::from_index(rng.below(CELLS));
        items.push(Item::new(cell, Some(&mut rng), None));
    }
    rng.shuffle(&mut items);
    items
}

/// An unbounded stream of never-repeating scenarios: a seeded permutation
/// of the grid, walked cycle after cycle with a new `sim.seed` per cycle,
/// so every key is new while the MVA work mix stays the grid's.
#[derive(Debug, Clone)]
pub struct FreshStream {
    order: Vec<Cell>,
    base: u64,
}

impl FreshStream {
    /// The stream of one seed.
    pub fn new(seed: u64) -> FreshStream {
        let mut rng = Rng::new(seed, 2);
        let mut order: Vec<Cell> = (0..CELLS).map(Cell::from_index).collect();
        rng.shuffle(&mut order);
        FreshStream {
            order,
            base: 1_000 + (seed & 0xFFFF_FFFF) * 65_536,
        }
    }

    /// A stream of the same seed that never meets [`FreshStream::new`]'s,
    /// used to fill the daemon's cache before the measured window.
    pub fn fill(seed: u64) -> FreshStream {
        let stream = FreshStream::new(seed);
        FreshStream {
            base: stream.base + FILL_CYCLES,
            ..stream
        }
    }

    /// The `j`-th scenario of the stream.
    pub fn item(&self, j: usize) -> Item {
        let cycle = (j / CELLS) as u64;
        Item::new(self.order[j % CELLS], None, Some(self.base + cycle))
    }
}

/// Request `k` of `serve-batch` client `client`. Even requests carry
/// [`BATCH_FRESH`] never-seen scenarios, shared by both clients so the
/// same new jobs are often in flight twice, plus repeats of recent ones;
/// odd requests are all repeats.
pub fn serve_batch(stream: &FreshStream, seed: u64, client: usize, k: usize) -> Vec<Item> {
    let mut rng = Rng::new(seed, 3 + ((client as u64) << 32) + k as u64);
    let frontier = (k / 2 + 1) * BATCH_FRESH;
    let fresh = if k.is_multiple_of(2) { BATCH_FRESH } else { 0 };
    let window_start = frontier.saturating_sub(HOT_WINDOW);
    let mut items: Vec<Item> = (frontier - fresh..frontier)
        .map(|j| stream.item(j))
        .collect();
    while items.len() < BATCH {
        let j = window_start + rng.below(frontier - window_start);
        items.push(stream.item(j));
    }
    rng.shuffle(&mut items);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(batch_body(&eval_grid(7)), batch_body(&eval_grid(7)));
        let (a, b) = (FreshStream::new(7), FreshStream::new(7));
        for j in [0, 1, 4_799, 4_800, 12_345] {
            assert_eq!(a.item(j), b.item(j));
        }
        for k in 0..4 {
            assert_eq!(
                batch_body(&serve_batch(&a, 7, 1, k)),
                batch_body(&serve_batch(&b, 7, 1, k))
            );
        }
    }

    #[test]
    fn another_seed_gives_the_same_shape_in_another_order() {
        let (a, b) = (eval_grid(1), eval_grid(2));
        assert_ne!(a, b);
        for grid in [&a, &b] {
            assert_eq!(grid.len(), CELLS + GRID_DUPLICATES);
            let cells: HashSet<Cell> = grid.iter().map(|item| item.cell).collect();
            assert_eq!(cells.len(), CELLS, "every grid cell appears");
        }
        let (sa, sb) = (FreshStream::new(1), FreshStream::new(2));
        let first = |s: &FreshStream| (0..CELLS).map(|j| s.item(j).cell).collect::<Vec<_>>();
        assert_ne!(first(&sa), first(&sb));
        let mut cells_a = first(&sa);
        let mut cells_b = first(&sb);
        cells_a.sort();
        cells_b.sort();
        assert_eq!(cells_a, cells_b, "one cycle covers the whole grid");
    }

    #[test]
    fn fresh_stream_never_repeats_a_scenario() {
        let s = FreshStream::new(3);
        let hashes: HashSet<u64> = (0..2 * CELLS + 10)
            .map(|j| s.item(j).scenario().content_hash())
            .collect();
        assert_eq!(hashes.len(), 2 * CELLS + 10);
        let fill = FreshStream::fill(3);
        assert!((0..2 * CELLS).all(|j| !hashes.contains(&fill.item(j).scenario().content_hash())));
    }

    #[test]
    fn respelled_duplicates_hash_like_their_cell() {
        for item in eval_grid(5)
            .iter()
            .filter(|item| item.cell.mods().count_ones() > 1)
        {
            assert_eq!(
                item.scenario().content_hash(),
                item.cell.scenario().content_hash()
            );
        }
        let dups = eval_grid(5).len() - CELLS;
        assert_eq!(dups * 6, CELLS + dups, "one job in six is a duplicate");
    }

    #[test]
    fn serve_batches_mix_fresh_and_repeated_scenarios() {
        let s = FreshStream::new(9);
        let even = serve_batch(&s, 9, 0, 4);
        let odd = serve_batch(&s, 9, 0, 5);
        assert_eq!((even.len(), odd.len()), (BATCH, BATCH));
        let fresh: HashSet<Item> = (2 * BATCH_FRESH..3 * BATCH_FRESH)
            .map(|j| s.item(j))
            .collect();
        assert!(fresh.iter().all(|item| even.contains(item)));
        assert!(fresh
            .iter()
            .all(|item| serve_batch(&s, 9, 1, 4).contains(item)));
        let seen: HashSet<Item> = (0..3 * BATCH_FRESH).map(|j| s.item(j)).collect();
        assert!(odd.iter().all(|item| seen.contains(item)));
    }

    #[test]
    fn cells_round_trip_through_masks() {
        for i in 0..CELLS {
            let cell = Cell::from_index(i);
            assert_eq!(mask_of(cell.mod_set()), cell.mods());
            let level = cell.scenario().sharing.expect("preset");
            assert_eq!(Cell::find(cell.mods(), level, cell.n()), Some(cell));
        }
    }
}

//! Report generators: one function per table and figure of the paper.
//!
//! [`crate::campaign::Campaign::execute`] performs the measurement
//! campaign once (every scenario stream simulated on every core
//! configuration the analyses need), [`crate::campaign::aggregate`]
//! folds it into [`SuiteResults`], and the `fig*`/`tab*` functions
//! compute the same rows and series the paper reports as a typed
//! [`Table`]: every number stays a number, readable with
//! [`Table::get`], until `Display` renders the table as text.

use crate::campaign::{failure_summary, panic_message, shard_indexed, KernelFailure};
use crate::kernel::{
    AutoObstacle, AutoOutcome, Impl, Kernel, KernelMeta, Library, Pattern, Scale, VsNeon,
};
use crate::runner::{measure, Measurement};
use crate::stats::{geomean, mean};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use swan_accel::{DspModel, GpuModel};
use swan_simd::trace::{Class, Op};
use swan_simd::Width;
use swan_uarch::CoreConfig;

/// The paper's eight Figure 5 representative kernels (library symbol,
/// kernel name), in figure order.
pub const FIG5_KERNELS: [(&str, &str); 8] = [
    ("XP", "gemm_f32"),
    ("LJ", "rgb_to_ycbcr"),
    ("ZL", "adler32"),
    ("WA", "audible"),
    ("SK", "convolve_vertical"),
    ("LO", "pitch_corr"),
    ("LW", "tm_predict"),
    ("LV", "sad16x16"),
];

/// Every measurement the analyses need for one kernel.
#[derive(Clone, Debug)]
pub struct KernelResults {
    /// Kernel metadata.
    pub meta: KernelMeta,
    /// Scalar / Auto / Neon on the Prime core.
    pub scalar: Measurement,
    /// Auto-vectorized build on the Prime core.
    pub auto: Measurement,
    /// Neon (128-bit) on the Prime core.
    pub neon: Measurement,
    /// Scalar and Neon on Gold and Silver (Figure 4).
    pub scalar_gold: Measurement,
    /// Neon on Gold.
    pub neon_gold: Measurement,
    /// Scalar on Silver.
    pub scalar_silver: Measurement,
    /// Neon on Silver.
    pub neon_silver: Measurement,
    /// Neon at 128/256/512/1024 bits on Prime (Figure 5a
    /// representatives only).
    pub widths: Option<[Measurement; 4]>,
    /// Neon on the six Figure 5(b) core configurations
    /// (representatives only).
    pub sweep: Option<[Measurement; 6]>,
}

/// Picks a (baseline, improved) pair of one kernel's measurements.
type Pair = fn(&KernelResults) -> (&Measurement, &Measurement);

/// Auto over Scalar on the Prime core.
const AUTO: Pair = |k| (&k.scalar, &k.auto);
/// Neon over Scalar on the Prime core.
const NEON: Pair = |k| (&k.scalar, &k.neon);

impl KernelResults {
    /// How many times faster the improved side of `pair` runs.
    fn speedup(&self, pair: Pair) -> f64 {
        let (base, m) = pair(self);
        base.seconds() / m.seconds().max(1e-12)
    }

    /// How many times less energy the improved side of `pair` uses.
    fn energy_gain(&self, pair: Pair) -> f64 {
        let (base, m) = pair(self);
        base.energy_j / m.energy_j.max(1e-18)
    }

    /// Scalar over Neon dynamic instruction count (Figure 1).
    fn instr_reduction(&self) -> f64 {
        self.scalar.trace.total() as f64 / self.neon.trace.total().max(1) as f64
    }
}

/// All suite measurements plus the configuration they were taken with.
#[derive(Clone, Debug)]
pub struct SuiteResults {
    /// Per-kernel results, suite order.
    pub kernels: Vec<KernelResults>,
    /// Input scale used.
    pub scale: Scale,
}

impl SuiteResults {
    /// One row per library with evaluated kernels, in library order:
    /// the library symbol, then `cells` computed over its kernels.
    fn library_rows(&self, cells: impl Fn(&[&KernelResults]) -> Vec<Cell>) -> Vec<Vec<Cell>> {
        Library::ALL
            .iter()
            .filter_map(|&lib| {
                let ks: Vec<&KernelResults> = self
                    .kernels
                    .iter()
                    .filter(|k| k.meta.library == lib && !k.meta.excluded_from_eval)
                    .collect();
                if ks.is_empty() {
                    return None;
                }
                let mut row = vec![Cell::from(lib.to_string())];
                row.extend(cells(&ks));
                Some(row)
            })
            .collect()
    }

    fn find(&self, lib: &str, name: &str) -> Option<&KernelResults> {
        self.kernels
            .iter()
            .find(|k| k.meta.library.info().symbol == lib && k.meta.name == name)
    }
}

/// Geomean of `f` over `ks`, as a two-decimal cell.
fn geo(ks: &[&KernelResults], f: impl Fn(&KernelResults) -> f64) -> Cell {
    Cell::num(geomean(ks.iter().map(|&k| f(k))), 2)
}

/// Mean of `f` over `ks`, printed with `decimals` places.
fn avg(ks: &[&KernelResults], decimals: usize, f: impl Fn(&KernelResults) -> f64) -> Cell {
    Cell::num(mean(ks.iter().map(|&k| f(k))), decimals)
}

// =====================================================================
// Typed tables and their one renderer
// =====================================================================

/// One table cell. A number keeps its value; the cell only says how
/// to print it.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Free text: row labels, configuration details, `-` for no data.
    Text(String),
    /// An exact count.
    Int(u64),
    /// A measured number, printed with `decimals` places and then
    /// `suffix` (`x`, `%`, or nothing).
    Num {
        /// The number itself.
        value: f64,
        /// Places after the decimal point.
        decimals: usize,
        /// Text printed right after the number.
        suffix: &'static str,
    },
}

impl Cell {
    /// A number printed with `decimals` places and no suffix.
    pub fn num(value: f64, decimals: usize) -> Cell {
        Cell::Num {
            value,
            decimals,
            suffix: "",
        }
    }

    /// The cell's number; `None` for text.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Int(n) => Some(n as f64),
            Cell::Num { value, .. } => Some(value),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Num {
                value,
                decimals,
                suffix,
            } => write!(f, "{value:.decimals$}{suffix}"),
        }
    }
}

/// A titled table of typed cells — what every `tab*`/`fig*` generator
/// returns.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Title, printed as `=== title ===`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, one per column; the first cell names the row.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    fn new(
        title: &str,
        columns: impl IntoIterator<Item = impl Into<String>>,
        rows: Vec<Vec<Cell>>,
    ) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows,
        }
    }

    /// The cell in `column` of the first row whose first cell is the
    /// text `row`.
    pub fn get(&self, row: &str, column: &str) -> Option<&Cell> {
        let c = self.columns.iter().position(|h| h == column)?;
        self.rows
            .iter()
            .find(|r| matches!(r.first(), Some(Cell::Text(t)) if t == row))?
            .get(c)
    }
}

/// The `=== title ===` line, then right-aligned cells separated by two
/// spaces, with a dashed rule as long as the header line under it.
/// Column widths count bytes while `{:>w$}` pads by chars, so a column
/// holding a multi-byte label (the `§` of the patterns table) is wider
/// than its longest cell by the extra bytes; the pinned report bytes
/// depend on it.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head = line(&self.columns);
        writeln!(f, "=== {} ===", self.title)?;
        writeln!(f, "{head}")?;
        writeln!(f, "{}", "-".repeat(head.len()))?;
        for row in &rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

/// Column layout of the per-scenario row renderers: (header, width,
/// left-aligned). Fixed widths — unlike a [`Table`], a row's bytes
/// depend on nothing but its own scenario and measurement, so rows can
/// be rendered (and streamed) one at a time and still line up.
const SCENARIO_COLUMNS: [(&str, usize, bool); 7] = [
    ("Scenario", 38, true),
    ("Instrs", 12, false),
    ("Cycles", 12, false),
    ("IPC", 6, false),
    ("Time(us)", 12, false),
    ("Power(W)", 9, false),
    ("Energy(uJ)", 12, false),
];

fn scenario_cells(cells: [String; 7]) -> String {
    let mut s = String::new();
    for (i, (cell, (_, width, left))) in cells.iter().zip(SCENARIO_COLUMNS).enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        if left {
            s.push_str(&format!("{cell:<width$}"));
        } else {
            s.push_str(&format!("{cell:>width$}"));
        }
    }
    s.trim_end().to_string()
}

/// Header (plus dashed rule) above a run of [`scenario_row`]s — the
/// `swan-report --only` table head. Newline-terminated, ready for
/// `print!`.
pub fn scenario_row_header() -> String {
    let head = scenario_cells(SCENARIO_COLUMNS.map(|(h, _, _)| h.to_string()));
    let width = SCENARIO_COLUMNS
        .iter()
        .map(|(_, w, _)| w + 2)
        .sum::<usize>()
        - 2;
    format!("{head}\n{}\n", "-".repeat(width))
}

/// Render one measured scenario as a single self-contained text row.
///
/// This is the *one* per-scenario row format in the system:
/// `swan-report --only` prints these rows after a full batch campaign,
/// and the campaign server streams the identical strings back as each
/// scenario group completes — so "served rows are byte-identical to
/// the batch run" holds by construction, not by parallel maintenance
/// of two formatters.
pub fn scenario_row(sc: &crate::scenario::Scenario, m: &Measurement) -> String {
    scenario_cells([
        sc.id(),
        m.sim.instrs.to_string(),
        m.sim.cycles.to_string(),
        format!("{:.2}", m.sim.ipc()),
        format!("{:.3}", m.seconds() * 1e6),
        format!("{:.2}", m.power_w),
        format!("{:.3}", m.energy_j * 1e6),
    ])
}

// =====================================================================
// Table 2 / Table 3 (static)
// =====================================================================

/// Table 2: the library inventory.
pub fn tab2(kernels: &[Box<dyn Kernel>]) -> Table {
    let yes = |v: bool| Cell::from(if v { "yes" } else { "-" });
    let pct = |v: Option<f64>| v.map_or(Cell::from("-"), |p| Cell::num(p, 1));
    let rows = Library::ALL
        .iter()
        .map(|lib| {
            let i = lib.info();
            let n = kernels
                .iter()
                .filter(|k| k.meta().library == *lib && !k.meta().excluded_from_eval)
                .count();
            vec![
                i.name.into(),
                i.domain.into(),
                i.symbol.into(),
                yes(i.used_by.0),
                yes(i.used_by.1),
                yes(i.used_by.2),
                yes(i.used_by.3),
                pct(i.chromium_max_pct),
                pct(i.chromium_avg_pct),
                n.into(),
            ]
        })
        .collect();
    Table::new(
        "Table 2: accelerated libraries",
        [
            "Library", "Domain", "Sym", "Chromium", "Android", "WebRTC", "PDFium", "Max(%)",
            "Avg(%)", "Kernels",
        ],
        rows,
    )
}

/// Table 3: the simulated Prime-core baseline configuration.
pub fn tab3() -> Table {
    let p = CoreConfig::prime();
    let order = if p.in_order {
        "in-order"
    } else {
        "out-of-order"
    };
    let rows = [
        (
            "Scalar core",
            format!(
                "{:.1}GHz, {} entry ROB, {order}, {}-way decode, {}-way commit",
                p.freq_ghz, p.rob, p.decode_width, p.commit_width
            ),
        ),
        (
            "Vector engine",
            format!("{} 128-bit ASIMD units + crypto ext", p.asimd_units),
        ),
        (
            "L1-D cache",
            format!(
                "{} KiB, {}-way, {} cycle latency",
                p.mem.l1d.size >> 10,
                p.mem.l1d.ways,
                p.mem.l1d.latency
            ),
        ),
        (
            "L2 cache",
            format!(
                "{} KiB, {}-way, private, inclusive, {} cycle latency",
                p.mem.l2.size >> 10,
                p.mem.l2.ways,
                p.mem.l2.latency
            ),
        ),
        (
            "LLC",
            format!(
                "{} MiB, {}-way, shared, inclusive, {} cycle latency",
                p.mem.llc.size >> 20,
                p.mem.llc.ways,
                p.mem.llc.latency
            ),
        ),
    ];
    Table::new(
        "Table 3: Cortex-A76 Prime core baseline",
        ["Configuration", "Detail"],
        rows.into_iter()
            .map(|(name, detail)| vec![name.into(), detail.into()])
            .collect(),
    )
}

// =====================================================================
// Figure 1: instruction mix + instruction reduction
// =====================================================================

/// Figure 1 data: per library, the Neon instruction-class distribution
/// (percent) and the Scalar/Neon dynamic-instruction reduction.
pub fn fig1(suite: &SuiteResults) -> Table {
    Table::new(
        "Figure 1: Neon instruction distribution and instruction reduction",
        [
            "Lib",
            "S-Int%",
            "S-Flt%",
            "V-Ld%",
            "V-St%",
            "V-Int%",
            "V-Flt%",
            "V-Crypto%",
            "V-Misc%",
            "InstrRed(x)",
        ],
        suite.library_rows(|ks| {
            let classes = Class::ALL.map(|c| ks.iter().map(|k| k.neon.trace.class_count(c)).sum());
            let total: u64 = classes.iter().sum();
            classes
                .iter()
                .map(|&n: &u64| Cell::num(100.0 * n as f64 / total.max(1) as f64, 1))
                .chain([geo(ks, KernelResults::instr_reduction)])
                .collect()
        }),
    )
}

// =====================================================================
// Figure 2: speedup and energy improvement
// =====================================================================

/// Figure 2 data: per library geomean performance and energy
/// improvement of Auto and Neon over Scalar (Prime core).
pub fn fig2(suite: &SuiteResults) -> Table {
    Table::new(
        "Figure 2: Auto and Neon performance / energy improvement over Scalar",
        [
            "Lib",
            "Auto perf(x)",
            "Neon perf(x)",
            "Auto energy(x)",
            "Neon energy(x)",
        ],
        suite.library_rows(|ks| {
            vec![
                geo(ks, |k| k.speedup(AUTO)),
                geo(ks, |k| k.speedup(NEON)),
                geo(ks, |k| k.energy_gain(AUTO)),
                geo(ks, |k| k.energy_gain(NEON)),
            ]
        }),
    )
}

// =====================================================================
// Figure 3: power
// =====================================================================

/// Figure 3 data: average chip power per library and implementation.
pub fn fig3(suite: &SuiteResults) -> Table {
    Table::new(
        "Figure 3: total chip power (including DRAM)",
        ["Lib", "Scalar(W)", "Auto(W)", "Neon(W)"],
        suite.library_rows(|ks| {
            vec![
                avg(ks, 2, |k| k.scalar.power_w),
                avg(ks, 2, |k| k.auto.power_w),
                avg(ks, 2, |k| k.neon.power_w),
            ]
        }),
    )
}

// =====================================================================
// Table 4: auto-vectorization outcomes
// =====================================================================

/// Table 4: auto-vectorization outcome and obstacle counts. It reads
/// each kernel's declared [`AutoOutcome`] and obstacles only; no
/// measurement enters it.
pub fn tab4(suite: &SuiteResults) -> Table {
    use AutoOutcome::{SameAsScalar, SlowerThanScalar, Vectorized};
    use VsNeon::{Better, Similar, Worse};
    type Counts = fn(AutoOutcome) -> bool;
    let outcomes: [(&str, Counts); 6] = [
        ("Auto ~ Scalar", |a| a == SameAsScalar),
        ("Auto < Scalar", |a| a == SlowerThanScalar),
        ("Auto > Scalar", |a| matches!(a, Vectorized(_))),
        ("  of which Auto ~ Neon", |a| a == Vectorized(Similar)),
        ("  of which Auto < Neon", |a| a == Vectorized(Worse)),
        ("  of which Auto > Neon", |a| a == Vectorized(Better)),
    ];
    let obstacles = [
        ("uncountable loop", AutoObstacle::UncountableLoop),
        ("indirect access", AutoObstacle::IndirectMemoryAccess),
        ("loop dependency (PHI)", AutoObstacle::LoopDependency),
        ("other legality", AutoObstacle::OtherLegality),
        ("cost model", AutoObstacle::CostModel),
    ];
    let metas = || suite.kernels.iter().map(|k| &k.meta);
    let rows = outcomes
        .iter()
        .map(|&(label, is)| {
            let n = metas()
                .filter(|m| !m.excluded_from_eval && is(m.auto))
                .count();
            vec![label.into(), n.into()]
        })
        .chain(obstacles.iter().map(|(label, o)| {
            let n = metas().filter(|m| m.obstacles.contains(o)).count();
            vec![format!("Obstacle: {label}").into(), n.into()]
        }))
        .collect();
    Table::new(
        "Table 4: Auto performance w.r.t. Scalar and Neon",
        ["Comparison", "#Kernels"],
        rows,
    )
}

// =====================================================================
// Table 5: microarchitectural characteristics
// =====================================================================

/// Table 5: cache MPKI, stall shares and IPC, Scalar (S) vs Neon (V).
pub fn tab5(suite: &SuiteResults) -> Table {
    type Stat = fn(&Measurement) -> f64;
    // (decimals, statistic), each shown for Scalar and then Neon.
    let stats: [(usize, Stat); 6] = [
        (1, |m| m.sim.l1d.mpki(m.sim.instrs)),
        (1, |m| m.sim.l2.mpki(m.sim.instrs)),
        (1, |m| m.sim.llc.mpki(m.sim.instrs)),
        (1, |m| m.sim.fe_stall_pct()),
        (1, |m| m.sim.be_stall_pct()),
        (2, |m| m.sim.ipc()),
    ];
    Table::new(
        "Table 5: microarchitectural characteristics (S=Scalar, V=Neon)",
        [
            "Lib", "L1D S", "L1D V", "L2 S", "L2 V", "LLC S", "LLC V", "FE% S", "FE% V", "BE% S",
            "BE% V", "IPC S", "IPC V",
        ],
        suite.library_rows(|ks| {
            stats
                .iter()
                .flat_map(|&(decimals, stat)| {
                    [
                        avg(ks, decimals, |k| stat(&k.scalar)),
                        avg(ks, decimals, |k| stat(&k.neon)),
                    ]
                })
                .collect()
        }),
    )
}

// =====================================================================
// Figure 4: core sensitivity
// =====================================================================

/// Figure 4 data: Neon performance and energy improvement over Scalar
/// on the Silver, Gold and Prime cores.
pub fn fig4(suite: &SuiteResults) -> Table {
    let cores: [Pair; 3] = [
        |k| (&k.scalar_silver, &k.neon_silver),
        |k| (&k.scalar_gold, &k.neon_gold),
        NEON,
    ];
    Table::new(
        "Figure 4: Neon improvement by core (Silver/Gold/Prime)",
        [
            "Lib",
            "Silver perf",
            "Gold perf",
            "Prime perf",
            "Silver energy",
            "Gold energy",
            "Prime energy",
        ],
        suite.library_rows(|ks| {
            let perf = cores.map(|p| geo(ks, |k| k.speedup(p)));
            let energy = cores.map(|p| geo(ks, |k| k.energy_gain(p)));
            perf.into_iter().chain(energy).collect()
        }),
    )
}

// =====================================================================
// Figure 5: scalability
// =====================================================================

/// One row per Figure 5 representative that has the `series`: its
/// cycle speedup at each point over the first.
fn fig5_rows(
    suite: &SuiteResults,
    series: fn(&KernelResults) -> Option<&[Measurement]>,
) -> Vec<Vec<Cell>> {
    FIG5_KERNELS
        .iter()
        .filter_map(|&(lib, name)| {
            let ms = series(suite.find(lib, name)?)?;
            let base = ms[0].sim.cycles.max(1) as f64;
            let speedups = ms
                .iter()
                .map(|m| Cell::num(base / m.sim.cycles.max(1) as f64, 2));
            Some(
                std::iter::once(format!("{lib} {name}").into())
                    .chain(speedups)
                    .collect(),
            )
        })
        .collect()
}

/// Figure 5(a): speedup of 256/512/1024-bit registers over 128-bit for
/// the eight representative kernels.
pub fn fig5a(suite: &SuiteResults) -> Table {
    Table::new(
        "Figure 5(a): Neon scalability with wider vector registers",
        ["Kernel", "128-bit", "256-bit", "512-bit", "1024-bit"],
        fig5_rows(suite, |k| k.widths.as_ref().map(|w| &w[..])),
    )
}

/// Figure 5(b): speedup of the decode-way / ASIMD-unit sweep over the
/// `4W-2V` baseline for the eight representative kernels.
pub fn fig5b(suite: &SuiteResults) -> Table {
    let configs = CoreConfig::fig5b_sweep().into_iter().map(|c| c.name);
    Table::new(
        "Figure 5(b): Neon scalability with more ASIMD units / decode ways",
        std::iter::once("Kernel".to_string()).chain(configs),
        fig5_rows(suite, |k| k.sweep.as_ref().map(|s| &s[..])),
    )
}

// =====================================================================
// Table 6: strided accesses
// =====================================================================

/// Table 6: number of kernels using each strided-access instruction and
/// the average share of those instructions within the kernels that use
/// them (measured from the dynamic traces).
pub fn tab6(suite: &SuiteResults) -> Table {
    let groups: [(&str, &[Op]); 6] = [
        ("LD stride-2", &[Op::VLd2]),
        ("ST stride-2", &[Op::VSt2]),
        ("ZIP", &[Op::VZip]),
        ("UZP", &[Op::VUzp]),
        ("LD stride-4", &[Op::VLd3, Op::VLd4]),
        ("ST stride-4", &[Op::VSt3, Op::VSt4]),
    ];
    let rows = groups
        .iter()
        .map(|&(label, ops)| {
            let portions: Vec<f64> = suite
                .kernels
                .iter()
                .filter(|k| !k.meta.excluded_from_eval)
                .filter_map(|k| {
                    let cnt: u64 = ops.iter().map(|&o| k.neon.trace.op_count(o)).sum();
                    (cnt > 0).then(|| 100.0 * cnt as f64 / k.neon.trace.total().max(1) as f64)
                })
                .collect();
            vec![
                label.into(),
                portions.len().into(),
                Cell::num(mean(portions), 1),
            ]
        })
        .collect();
    Table::new(
        "Table 6: strided memory access census",
        ["Instruction", "#Kernels", "Avg. portion(%)"],
        rows,
    )
}

// =====================================================================
// Table 7 / Figure 6: accelerator comparison
// =====================================================================

/// Table 7: GPU/DSP kernel-launch overhead vs Neon kernel execution
/// times for the nine non-offloaded libraries.
pub fn tab7(suite: &SuiteResults) -> Table {
    let gpu = GpuModel::default();
    let dsp = DspModel::default();
    // One suite invocation at the reduced simulation scale is a good
    // proxy for the paper's fine-grain per-API-call execution times
    // (the paper's APIs process one row/frame/buffer per call).
    let times: Vec<f64> = suite
        .kernels
        .iter()
        .filter(|k| !k.meta.excluded_from_eval && !k.meta.library.info().gpu_offloaded)
        .map(|k| k.neon.seconds())
        .collect();
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0, f64::max);
    let avg = mean(times.iter().cloned());
    let rows = [
        (
            "Adreno 640 GPU kernel launch",
            Cell::num(gpu.launch_overhead_s * 1e6, 0),
        ),
        (
            "Hexagon 690 DSP kernel launch",
            Cell::num(dsp.launch_overhead_s * 1e6, 0),
        ),
        ("Neon kernel execution (min)", Cell::num(min * 1e6, 1)),
        ("Neon kernel execution (avg)", Cell::num(avg * 1e6, 1)),
        ("Neon kernel execution (max)", Cell::num(max * 1e6, 1)),
        (
            "GPU launch / avg Neon",
            Cell::Num {
                value: gpu.launch_overhead_s / avg.max(1e-12),
                decimals: 1,
                suffix: "x",
            },
        ),
        (
            "DSP launch / avg Neon",
            Cell::Num {
                value: 100.0 * dsp.launch_overhead_s / avg.max(1e-12),
                decimals: 0,
                suffix: "%",
            },
        ),
    ];
    Table::new(
        "Table 7: accelerator launch overhead vs Neon execution time",
        ["Quantity", "Time (us)"],
        rows.into_iter()
            .map(|(label, cell)| vec![label.into(), cell])
            .collect(),
    )
}

/// One Figure 6 sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// FP32 MAC operations of the layer.
    pub macs: u64,
    /// Simulated Neon time (seconds).
    pub neon_s: f64,
    /// Modelled GPU time (seconds).
    pub gpu_s: f64,
}

/// Figure 6: Neon vs GPU execution time for GEMM and SpMM across the
/// convolutional layer sweep — [`fig6_threads`] on the calling thread.
///
/// # Panics
///
/// Panics naming every sweep point whose measurement panicked.
pub fn fig6(
    layers: &[(usize, usize, usize)],
    points: usize,
    gemm: impl Fn(usize, usize, usize) -> Box<dyn Kernel> + Sync,
    spmm: impl Fn(usize, usize, usize) -> Box<dyn Kernel> + Sync,
    progress: impl Fn(&str) + Sync,
) -> (Vec<Fig6Point>, Vec<Fig6Point>, Table) {
    fig6_threads(1, layers, points, gemm, spmm, progress)
        .unwrap_or_else(|f| panic!("{}", failure_summary("figure 6 points", &f)))
}

/// Figure 6: Neon vs GPU execution time for GEMM and SpMM across the
/// convolutional layer sweep. `gemm`/`spmm` are closures producing a
/// shape-pinned kernel (wired to `swan-kernels` by the caller to avoid
/// a dependency cycle); `layers` is subsampled to `points`.
///
/// The sweep points (one GEMM and one SpMM per sampled layer) are
/// measured on up to `threads` workers of the campaign pool, dispatched
/// longest first — by `m·k·n`, GEMM before SpMM on the same shape — so
/// the largest layer starts at once instead of ending the sweep alone.
/// Results land back in sweep order: the points and the table are
/// identical for every thread count. A point whose measurement panics
/// becomes one [`KernelFailure`] naming its kernel and shape, and the
/// sweep returns every such failure instead of a figure.
pub fn fig6_threads(
    threads: usize,
    layers: &[(usize, usize, usize)],
    points: usize,
    gemm: impl Fn(usize, usize, usize) -> Box<dyn Kernel> + Sync,
    spmm: impl Fn(usize, usize, usize) -> Box<dyn Kernel> + Sync,
    progress: impl Fn(&str) + Sync,
) -> Result<(Vec<Fig6Point>, Vec<Fig6Point>, Table), Vec<KernelFailure>> {
    let gpu = GpuModel::default();
    let prime = CoreConfig::prime();
    let step = (layers.len() / points).max(1);
    // Sweep order: every sampled layer's GEMM point, then its SpMM
    // point, as (layer index, is_spmm, shape).
    let sweep: Vec<(usize, bool, (usize, usize, usize))> = layers
        .iter()
        .copied()
        .enumerate()
        .step_by(step)
        .flat_map(|(i, shape)| [(i, false, shape), (i, true, shape)])
        .collect();
    let mut order: Vec<usize> = (0..sweep.len()).collect();
    order.sort_by_key(|&p| {
        let (_, is_spmm, (m, k, n)) = sweep[p];
        (std::cmp::Reverse(m * k * n), is_spmm)
    });
    let measured = shard_indexed(order.len(), threads, |j| {
        let (i, is_spmm, (m, k, n)) = sweep[order[j]];
        let kind = if is_spmm { "SpMM" } else { "GEMM" };
        progress(&format!("fig6 layer {i}: {kind} {m}x{k}x{n}"));
        // Named by the kind until the kernel exists to name itself.
        let mut id = kind.to_string();
        catch_unwind(AssertUnwindSafe(|| {
            let kernel = if is_spmm {
                spmm(m, k, n)
            } else {
                gemm(m, k, n)
            };
            id = kernel.meta().id();
            let meas = measure(
                kernel.as_ref(),
                Impl::Neon,
                Width::W128,
                &prime,
                Scale(1.0),
                7,
            );
            let ops = meas.work_ops;
            let gpu_s = if is_spmm {
                gpu.spmm_time(ops)
            } else {
                gpu.gemm_time(ops)
            };
            Fig6Point {
                macs: ops,
                neon_s: meas.seconds(),
                gpu_s: gpu_s.seconds().unwrap(),
            }
        }))
        .map_err(|p| KernelFailure {
            message: format!("{id} {m}x{k}x{n}: {}", panic_message(&*p)),
            id,
        })
    });
    let mut in_sweep: Vec<(usize, Result<Fig6Point, KernelFailure>)> =
        order.into_iter().zip(measured).collect();
    in_sweep.sort_by_key(|&(p, _)| p);
    let mut gemm_pts = Vec::new();
    let mut spmm_pts = Vec::new();
    let mut failures = Vec::new();
    for (p, r) in in_sweep {
        match r {
            Ok(pt) if sweep[p].1 => spmm_pts.push(pt),
            Ok(pt) => gemm_pts.push(pt),
            Err(f) => failures.push(f),
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut rows = Vec::new();
    for (kind, pts) in [("GEMM", &gemm_pts), ("SpMM", &spmm_pts)] {
        for p in pts.iter() {
            rows.push(vec![
                kind.into(),
                Cell::Int(p.macs),
                Cell::num(p.neon_s * 1e3, 3),
                Cell::num(p.gpu_s * 1e3, 3),
                if p.neon_s <= p.gpu_s { "Neon" } else { "GPU" }.into(),
            ]);
        }
        // Report the crossover, if any.
        if let Some(x) = pts.iter().find(|p| p.gpu_s < p.neon_s) {
            rows.push(vec![
                format!("{kind} crossover").into(),
                format!("~{:.1}M MACs", x.macs as f64 / 1e6).into(),
                "".into(),
                "".into(),
                "".into(),
            ]);
        }
    }
    let table = Table::new(
        "Figure 6: Neon vs GPU across operation counts",
        ["Kind", "MACs", "Neon (ms)", "GPU (ms)", "Winner"],
        rows,
    );
    Ok((gemm_pts, spmm_pts, table))
}

// =====================================================================
// Computation-pattern census (§6)
// =====================================================================

/// §6 summary: kernels per computation pattern.
pub fn patterns(kernels: &[Box<dyn Kernel>]) -> Table {
    let pats: [(Pattern, &str); 6] = [
        (Pattern::Reduction, "Reduction (§6.1)"),
        (Pattern::SequentialReduction, "Sequential reduction (§6.1)"),
        (
            Pattern::RandomMemoryAccess,
            "Random memory access / LUT (§6.2)",
        ),
        (Pattern::StridedMemoryAccess, "Strided memory access (§6.3)"),
        (Pattern::MatrixTransposition, "Matrix transposition (§6.4)"),
        (Pattern::VectorApi, "Portable vector APIs (§6.5)"),
    ];
    let rows = pats
        .iter()
        .map(|(p, label)| {
            let n = kernels
                .iter()
                .filter(|k| k.meta().patterns.contains(p) && !k.meta().excluded_from_eval)
                .count();
            vec![(*label).into(), n.into()]
        })
        .collect();
    Table::new(
        "Section 6: common computation patterns",
        ["Pattern", "#Kernels"],
        rows,
    )
}

/// Per-kernel detail dump (kernel-level companion to Figures 1-3).
pub fn kernel_detail(suite: &SuiteResults) -> Table {
    let rows = suite
        .kernels
        .iter()
        .map(|k| {
            vec![
                k.meta.id().into(),
                Cell::Int(k.meta.vre(Width::W128).into()),
                Cell::num(k.speedup(NEON), 2),
                Cell::num(k.speedup(AUTO), 2),
                Cell::num(k.instr_reduction(), 2),
                Cell::num(k.neon.sim.ipc(), 2),
                Cell::num(k.neon.power_w, 2),
            ]
        })
        .collect();
    Table::new(
        "Per-kernel detail",
        [
            "Kernel",
            "VRE",
            "Neon perf(x)",
            "Auto perf(x)",
            "InstrRed(x)",
            "Neon IPC",
            "Neon power(W)",
        ],
        rows,
    )
}

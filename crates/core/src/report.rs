//! Report generators: one function per table and figure of the paper.
//!
//! [`crate::campaign::Campaign::execute`] performs the measurement
//! campaign once (every scenario stream simulated on every core
//! configuration the analyses need), [`crate::campaign::aggregate`]
//! folds it into [`SuiteResults`], and the `fig*`/`tab*` functions
//! format the same rows and series the paper reports. All generators also emit CSV via
//! their `Display` counterparts' `csv()` methods where applicable.

use crate::campaign::{failure_summary, panic_message, shard_indexed, KernelFailure};
use crate::kernel::{
    AutoObstacle, AutoOutcome, Impl, Kernel, KernelMeta, Library, Pattern, Scale, VsNeon,
};
use crate::runner::{measure, Measurement};
use crate::stats::{geomean, mean};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use swan_accel::{DspModel, GpuModel};
use swan_simd::trace::Op;
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

/// All suite measurements plus the configuration they were taken with.
#[derive(Clone, Debug)]
pub struct SuiteResults {
    /// Per-kernel results, suite order.
    pub kernels: Vec<KernelResults>,
    /// Input scale used.
    pub scale: Scale,
}

impl SuiteResults {
    fn by_library(&self, lib: Library) -> Vec<&KernelResults> {
        self.kernels
            .iter()
            .filter(|k| k.meta.library == lib && !k.meta.excluded_from_eval)
            .collect()
    }

    fn find(&self, lib: &str, name: &str) -> Option<&KernelResults> {
        self.kernels
            .iter()
            .find(|k| k.meta.library.info().symbol == lib && k.meta.name == name)
    }
}

/// Format a right-aligned text table with a dashed rule under the
/// header — the layout every `tab*`/`fig*` report body uses (also
/// consumed by the `swan-report --only` per-scenario output).
pub fn fmt_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut s = String::new();
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    s.push_str(&line(header, &widths));
    s.push('\n');
    s.push_str(&"-".repeat(s.len().saturating_sub(1)));
    s.push('\n');
    for row in rows {
        s.push_str(&line(row, &widths));
        s.push('\n');
    }
    s
}

/// Column layout of the per-scenario row renderers: (header, width,
/// left-aligned). Fixed widths — unlike [`fmt_table`], a row's bytes
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

/// A generic text report with an optional CSV form.
#[derive(Clone, Debug)]
pub struct Report {
    /// Report title (e.g. `"Figure 2"`).
    pub title: String,
    /// Pre-formatted table body.
    pub body: String,
    /// CSV form of the data.
    pub csv: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        write!(f, "{}", self.body)
    }
}

fn make_report(title: &str, header: Vec<String>, rows: Vec<Vec<String>>) -> Report {
    let csv = std::iter::once(header.join(","))
        .chain(rows.iter().map(|r| r.join(",")))
        .collect::<Vec<_>>()
        .join("\n");
    Report {
        title: title.to_string(),
        body: fmt_table(&header, &rows),
        csv,
    }
}

// =====================================================================
// Table 2 / Table 3 (static)
// =====================================================================

/// Table 2: the library inventory.
pub fn tab2(kernels: &[Box<dyn Kernel>]) -> Report {
    let header = vec![
        "Library".into(),
        "Domain".into(),
        "Sym".into(),
        "Chromium".into(),
        "Android".into(),
        "WebRTC".into(),
        "PDFium".into(),
        "Max(%)".into(),
        "Avg(%)".into(),
        "Kernels".into(),
    ];
    let rows = Library::ALL
        .iter()
        .map(|lib| {
            let i = lib.info();
            let n = kernels
                .iter()
                .filter(|k| k.meta().library == *lib && !k.meta().excluded_from_eval)
                .count();
            let b = |v: bool| if v { "yes" } else { "-" }.to_string();
            let pct = |v: Option<f64>| v.map_or("-".into(), |p| format!("{p:.1}"));
            vec![
                i.name.into(),
                i.domain.into(),
                i.symbol.into(),
                b(i.used_by.0),
                b(i.used_by.1),
                b(i.used_by.2),
                b(i.used_by.3),
                pct(i.chromium_max_pct),
                pct(i.chromium_avg_pct),
                n.to_string(),
            ]
        })
        .collect();
    make_report("Table 2: accelerated libraries", header, rows)
}

/// Table 3: the simulated Prime-core baseline configuration.
pub fn tab3() -> Report {
    let p = CoreConfig::prime();
    let header = vec!["Configuration".to_string(), "Detail".to_string()];
    let rows = vec![
        vec![
            "Scalar core".into(),
            format!(
                "{:.1}GHz, {} entry ROB, {}, {}-way decode, {}-way commit",
                p.freq_ghz,
                p.rob,
                if p.in_order {
                    "in-order"
                } else {
                    "out-of-order"
                },
                p.decode_width,
                p.commit_width
            ),
        ],
        vec![
            "Vector engine".into(),
            format!("{} 128-bit ASIMD units + crypto ext", p.asimd_units),
        ],
        vec![
            "L1-D cache".into(),
            format!(
                "{} KiB, {}-way, {} cycle latency",
                p.mem.l1d.size >> 10,
                p.mem.l1d.ways,
                p.mem.l1d.latency
            ),
        ],
        vec![
            "L2 cache".into(),
            format!(
                "{} KiB, {}-way, private, inclusive, {} cycle latency",
                p.mem.l2.size >> 10,
                p.mem.l2.ways,
                p.mem.l2.latency
            ),
        ],
        vec![
            "LLC".into(),
            format!(
                "{} MiB, {}-way, shared, inclusive, {} cycle latency",
                p.mem.llc.size >> 20,
                p.mem.llc.ways,
                p.mem.llc.latency
            ),
        ],
    ];
    make_report("Table 3: Cortex-A76 Prime core baseline", header, rows)
}

// =====================================================================
// Figure 1: instruction mix + instruction reduction
// =====================================================================

/// Figure 1 data: per library, the Neon instruction-class distribution
/// (percent) and the Scalar/Neon dynamic-instruction reduction.
pub fn fig1(suite: &SuiteResults) -> Report {
    use swan_simd::trace::Class;
    let header: Vec<String> = [
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
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for lib in Library::ALL {
        let ks = suite.by_library(lib);
        if ks.is_empty() {
            continue;
        }
        let mut classes = [0u64; 8];
        for k in &ks {
            for c in Class::ALL {
                classes[c as usize] += k.neon.trace.class_count(c);
            }
        }
        let total: u64 = classes.iter().sum();
        let pct = |c: Class| 100.0 * classes[c as usize] as f64 / total.max(1) as f64;
        let red = geomean(
            ks.iter()
                .map(|k| k.scalar.trace.total() as f64 / k.neon.trace.total().max(1) as f64),
        );
        rows.push(vec![
            lib.to_string(),
            format!("{:.1}", pct(Class::SInt)),
            format!("{:.1}", pct(Class::SFloat)),
            format!("{:.1}", pct(Class::VLoad)),
            format!("{:.1}", pct(Class::VStore)),
            format!("{:.1}", pct(Class::VInt)),
            format!("{:.1}", pct(Class::VFloat)),
            format!("{:.1}", pct(Class::VCrypto)),
            format!("{:.1}", pct(Class::VMisc)),
            format!("{:.2}", red),
        ]);
    }
    make_report(
        "Figure 1: Neon instruction distribution and instruction reduction",
        header,
        rows,
    )
}

// =====================================================================
// Figure 2: speedup and energy improvement
// =====================================================================

/// Figure 2 data: per library geomean performance and energy
/// improvement of Auto and Neon over Scalar (Prime core).
pub fn fig2(suite: &SuiteResults) -> Report {
    let header: Vec<String> = [
        "Lib",
        "Auto perf(x)",
        "Neon perf(x)",
        "Auto energy(x)",
        "Neon energy(x)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for lib in Library::ALL {
        let ks = suite.by_library(lib);
        if ks.is_empty() {
            continue;
        }
        let perf = |sel: fn(&KernelResults) -> &Measurement| {
            geomean(
                ks.iter()
                    .map(|k| k.scalar.seconds() / sel(k).seconds().max(1e-12)),
            )
        };
        let energy = |sel: fn(&KernelResults) -> &Measurement| {
            geomean(
                ks.iter()
                    .map(|k| k.scalar.energy_j / sel(k).energy_j.max(1e-18)),
            )
        };
        rows.push(vec![
            lib.to_string(),
            format!("{:.2}", perf(|k| &k.auto)),
            format!("{:.2}", perf(|k| &k.neon)),
            format!("{:.2}", energy(|k| &k.auto)),
            format!("{:.2}", energy(|k| &k.neon)),
        ]);
    }
    make_report(
        "Figure 2: Auto and Neon performance / energy improvement over Scalar",
        header,
        rows,
    )
}

// =====================================================================
// Figure 3: power
// =====================================================================

/// Figure 3 data: average chip power per library and implementation.
pub fn fig3(suite: &SuiteResults) -> Report {
    let header: Vec<String> = ["Lib", "Scalar(W)", "Auto(W)", "Neon(W)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for lib in Library::ALL {
        let ks = suite.by_library(lib);
        if ks.is_empty() {
            continue;
        }
        rows.push(vec![
            lib.to_string(),
            format!("{:.2}", mean(ks.iter().map(|k| k.scalar.power_w))),
            format!("{:.2}", mean(ks.iter().map(|k| k.auto.power_w))),
            format!("{:.2}", mean(ks.iter().map(|k| k.neon.power_w))),
        ]);
    }
    make_report("Figure 3: total chip power (including DRAM)", header, rows)
}

// =====================================================================
// Table 4: auto-vectorization outcomes
// =====================================================================

/// Table 4: auto-vectorization outcome counts, from kernel metadata
/// cross-checked against the measured runtimes.
pub fn tab4(suite: &SuiteResults) -> Report {
    let mut same = 0;
    let mut slower = 0;
    let mut faster = 0;
    let (mut sim, mut worse, mut better) = (0, 0, 0);
    for k in &suite.kernels {
        if k.meta.excluded_from_eval {
            continue;
        }
        match k.meta.auto {
            AutoOutcome::SameAsScalar => same += 1,
            AutoOutcome::SlowerThanScalar => slower += 1,
            AutoOutcome::Vectorized(v) => {
                faster += 1;
                match v {
                    VsNeon::Similar => sim += 1,
                    VsNeon::Worse => worse += 1,
                    VsNeon::Better => better += 1,
                }
            }
        }
    }
    let count_obs = |o: AutoObstacle| {
        suite
            .kernels
            .iter()
            .filter(|k| k.meta.obstacles.contains(&o))
            .count()
    };
    let header = vec!["Comparison".to_string(), "#Kernels".to_string()];
    let rows = vec![
        vec!["Auto ~ Scalar".into(), same.to_string()],
        vec!["Auto < Scalar".into(), slower.to_string()],
        vec!["Auto > Scalar".into(), faster.to_string()],
        vec!["  of which Auto ~ Neon".into(), sim.to_string()],
        vec!["  of which Auto < Neon".into(), worse.to_string()],
        vec!["  of which Auto > Neon".into(), better.to_string()],
        vec![
            "Obstacle: uncountable loop".into(),
            count_obs(AutoObstacle::UncountableLoop).to_string(),
        ],
        vec![
            "Obstacle: indirect access".into(),
            count_obs(AutoObstacle::IndirectMemoryAccess).to_string(),
        ],
        vec![
            "Obstacle: loop dependency (PHI)".into(),
            count_obs(AutoObstacle::LoopDependency).to_string(),
        ],
        vec![
            "Obstacle: other legality".into(),
            count_obs(AutoObstacle::OtherLegality).to_string(),
        ],
        vec![
            "Obstacle: cost model".into(),
            count_obs(AutoObstacle::CostModel).to_string(),
        ],
    ];
    make_report(
        "Table 4: Auto performance w.r.t. Scalar and Neon",
        header,
        rows,
    )
}

// =====================================================================
// Table 5: microarchitectural characteristics
// =====================================================================

/// Table 5: cache MPKI, stall shares and IPC, Scalar (S) vs Neon (V).
pub fn tab5(suite: &SuiteResults) -> Report {
    let header: Vec<String> = [
        "Lib", "L1D S", "L1D V", "L2 S", "L2 V", "LLC S", "LLC V", "FE% S", "FE% V", "BE% S",
        "BE% V", "IPC S", "IPC V",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for lib in Library::ALL {
        let ks = suite.by_library(lib);
        if ks.is_empty() {
            continue;
        }
        let m = |f: &dyn Fn(&KernelResults) -> f64| mean(ks.iter().map(|k| f(k)));
        rows.push(vec![
            lib.to_string(),
            format!("{:.1}", m(&|k| k.scalar.sim.l1d.mpki(k.scalar.sim.instrs))),
            format!("{:.1}", m(&|k| k.neon.sim.l1d.mpki(k.neon.sim.instrs))),
            format!("{:.1}", m(&|k| k.scalar.sim.l2.mpki(k.scalar.sim.instrs))),
            format!("{:.1}", m(&|k| k.neon.sim.l2.mpki(k.neon.sim.instrs))),
            format!("{:.1}", m(&|k| k.scalar.sim.llc.mpki(k.scalar.sim.instrs))),
            format!("{:.1}", m(&|k| k.neon.sim.llc.mpki(k.neon.sim.instrs))),
            format!("{:.1}", m(&|k| k.scalar.sim.fe_stall_pct())),
            format!("{:.1}", m(&|k| k.neon.sim.fe_stall_pct())),
            format!("{:.1}", m(&|k| k.scalar.sim.be_stall_pct())),
            format!("{:.1}", m(&|k| k.neon.sim.be_stall_pct())),
            format!("{:.2}", m(&|k| k.scalar.sim.ipc())),
            format!("{:.2}", m(&|k| k.neon.sim.ipc())),
        ]);
    }
    make_report(
        "Table 5: microarchitectural characteristics (S=Scalar, V=Neon)",
        header,
        rows,
    )
}

// =====================================================================
// Figure 4: core sensitivity
// =====================================================================

/// Figure 4 data: Neon performance and energy improvement over Scalar
/// on the Silver, Gold and Prime cores.
pub fn fig4(suite: &SuiteResults) -> Report {
    let header: Vec<String> = [
        "Lib",
        "Silver perf",
        "Gold perf",
        "Prime perf",
        "Silver energy",
        "Gold energy",
        "Prime energy",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for lib in Library::ALL {
        let ks = suite.by_library(lib);
        if ks.is_empty() {
            continue;
        }
        let perf = |s: fn(&KernelResults) -> (&Measurement, &Measurement)| {
            geomean(ks.iter().map(|k| {
                let (sc, ne) = s(k);
                sc.seconds() / ne.seconds().max(1e-12)
            }))
        };
        let energy = |s: fn(&KernelResults) -> (&Measurement, &Measurement)| {
            geomean(ks.iter().map(|k| {
                let (sc, ne) = s(k);
                sc.energy_j / ne.energy_j.max(1e-18)
            }))
        };
        rows.push(vec![
            lib.to_string(),
            format!("{:.2}", perf(|k| (&k.scalar_silver, &k.neon_silver))),
            format!("{:.2}", perf(|k| (&k.scalar_gold, &k.neon_gold))),
            format!("{:.2}", perf(|k| (&k.scalar, &k.neon))),
            format!("{:.2}", energy(|k| (&k.scalar_silver, &k.neon_silver))),
            format!("{:.2}", energy(|k| (&k.scalar_gold, &k.neon_gold))),
            format!("{:.2}", energy(|k| (&k.scalar, &k.neon))),
        ]);
    }
    make_report(
        "Figure 4: Neon improvement by core (Silver/Gold/Prime)",
        header,
        rows,
    )
}

// =====================================================================
// Figure 5: scalability
// =====================================================================

/// Figure 5(a): speedup of 256/512/1024-bit registers over 128-bit for
/// the eight representative kernels.
pub fn fig5a(suite: &SuiteResults) -> Report {
    let header: Vec<String> = ["Kernel", "128-bit", "256-bit", "512-bit", "1024-bit"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (lib, name) in FIG5_KERNELS {
        if let Some(k) = suite.find(lib, name) {
            if let Some(ws) = &k.widths {
                let base = ws[0].sim.cycles.max(1) as f64;
                rows.push(vec![
                    format!("{lib} {name}"),
                    "1.00".to_string(),
                    format!("{:.2}", base / ws[1].sim.cycles.max(1) as f64),
                    format!("{:.2}", base / ws[2].sim.cycles.max(1) as f64),
                    format!("{:.2}", base / ws[3].sim.cycles.max(1) as f64),
                ]);
            }
        }
    }
    make_report(
        "Figure 5(a): Neon scalability with wider vector registers",
        header,
        rows,
    )
}

/// Figure 5(b): speedup of the decode-way / ASIMD-unit sweep over the
/// `4W-2V` baseline for the eight representative kernels.
pub fn fig5b(suite: &SuiteResults) -> Report {
    let cfg_names: Vec<String> = CoreConfig::fig5b_sweep()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut header = vec!["Kernel".to_string()];
    header.extend(cfg_names);
    let mut rows = Vec::new();
    for (lib, name) in FIG5_KERNELS {
        if let Some(k) = suite.find(lib, name) {
            if let Some(sw) = &k.sweep {
                let base = sw[0].sim.cycles.max(1) as f64;
                let mut row = vec![format!("{lib} {name}")];
                for m in sw.iter() {
                    row.push(format!("{:.2}", base / m.sim.cycles.max(1) as f64));
                }
                rows.push(row);
            }
        }
    }
    make_report(
        "Figure 5(b): Neon scalability with more ASIMD units / decode ways",
        header,
        rows,
    )
}

// =====================================================================
// Table 6: strided accesses
// =====================================================================

/// Table 6: number of kernels using each strided-access instruction and
/// the average share of those instructions within the kernels that use
/// them (measured from the dynamic traces).
pub fn tab6(suite: &SuiteResults) -> Report {
    let groups: [(&str, &[Op]); 6] = [
        ("LD stride-2", &[Op::VLd2]),
        ("ST stride-2", &[Op::VSt2]),
        ("ZIP", &[Op::VZip]),
        ("UZP", &[Op::VUzp]),
        ("LD stride-4", &[Op::VLd3, Op::VLd4]),
        ("ST stride-4", &[Op::VSt3, Op::VSt4]),
    ];
    let header: Vec<String> = ["Instruction", "#Kernels", "Avg. portion(%)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (label, ops) in groups {
        let mut users = 0;
        let mut portions = Vec::new();
        for k in &suite.kernels {
            if k.meta.excluded_from_eval {
                continue;
            }
            let cnt: u64 = ops.iter().map(|&o| k.neon.trace.op_count(o)).sum();
            if cnt > 0 {
                users += 1;
                portions.push(100.0 * cnt as f64 / k.neon.trace.total().max(1) as f64);
            }
        }
        rows.push(vec![
            label.to_string(),
            users.to_string(),
            format!("{:.1}", mean(portions)),
        ]);
    }
    make_report("Table 6: strided memory access census", header, rows)
}

// =====================================================================
// Table 7 / Figure 6: accelerator comparison
// =====================================================================

/// Table 7: GPU/DSP kernel-launch overhead vs Neon kernel execution
/// times for the nine non-offloaded libraries.
pub fn tab7(suite: &SuiteResults) -> Report {
    let gpu = GpuModel::default();
    let dsp = DspModel::default();
    let nine: Vec<&KernelResults> = suite
        .kernels
        .iter()
        .filter(|k| !k.meta.excluded_from_eval && !k.meta.library.info().gpu_offloaded)
        .collect();
    // One suite invocation at the reduced simulation scale is a good
    // proxy for the paper's fine-grain per-API-call execution times
    // (the paper's APIs process one row/frame/buffer per call).
    let times: Vec<f64> = nine.iter().map(|k| k.neon.seconds()).collect();
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0, f64::max);
    let avg = mean(times.iter().cloned());
    let header: Vec<String> = ["Quantity", "Time (us)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows = vec![
        vec![
            "Adreno 640 GPU kernel launch".into(),
            format!("{:.0}", gpu.launch_overhead_s * 1e6),
        ],
        vec![
            "Hexagon 690 DSP kernel launch".into(),
            format!("{:.0}", dsp.launch_overhead_s * 1e6),
        ],
        vec![
            "Neon kernel execution (min)".into(),
            format!("{:.1}", min * 1e6),
        ],
        vec![
            "Neon kernel execution (avg)".into(),
            format!("{:.1}", avg * 1e6),
        ],
        vec![
            "Neon kernel execution (max)".into(),
            format!("{:.1}", max * 1e6),
        ],
        vec![
            "GPU launch / avg Neon".into(),
            format!("{:.1}x", gpu.launch_overhead_s / avg.max(1e-12)),
        ],
        vec![
            "DSP launch / avg Neon".into(),
            format!("{:.0}%", 100.0 * dsp.launch_overhead_s / avg.max(1e-12)),
        ],
    ];
    make_report(
        "Table 7: accelerator launch overhead vs Neon execution time",
        header,
        rows,
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
) -> (Vec<Fig6Point>, Vec<Fig6Point>, Report) {
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
/// Results land back in sweep order: the points and the report are
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
) -> Result<(Vec<Fig6Point>, Vec<Fig6Point>, Report), Vec<KernelFailure>> {
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
    let header: Vec<String> = ["Kind", "MACs", "Neon (ms)", "GPU (ms)", "Winner"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (kind, pts) in [("GEMM", &gemm_pts), ("SpMM", &spmm_pts)] {
        for p in pts.iter() {
            rows.push(vec![
                kind.to_string(),
                p.macs.to_string(),
                format!("{:.3}", p.neon_s * 1e3),
                format!("{:.3}", p.gpu_s * 1e3),
                if p.neon_s <= p.gpu_s { "Neon" } else { "GPU" }.to_string(),
            ]);
        }
        // Report the crossover, if any.
        if let Some(x) = pts.iter().find(|p| p.gpu_s < p.neon_s) {
            rows.push(vec![
                format!("{kind} crossover"),
                format!("~{:.1}M MACs", x.macs as f64 / 1e6),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
    }
    let report = make_report(
        "Figure 6: Neon vs GPU across operation counts",
        header,
        rows,
    );
    Ok((gemm_pts, spmm_pts, report))
}

// =====================================================================
// Computation-pattern census (§6)
// =====================================================================

/// §6 summary: kernels per computation pattern.
pub fn patterns(kernels: &[Box<dyn Kernel>]) -> Report {
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
    let header = vec!["Pattern".to_string(), "#Kernels".to_string()];
    let rows = pats
        .iter()
        .map(|(p, label)| {
            let n = kernels
                .iter()
                .filter(|k| k.meta().patterns.contains(p) && !k.meta().excluded_from_eval)
                .count();
            vec![label.to_string(), n.to_string()]
        })
        .collect();
    make_report("Section 6: common computation patterns", header, rows)
}

/// Per-kernel detail dump (kernel-level companion to Figures 1-3).
pub fn kernel_detail(suite: &SuiteResults) -> Report {
    let header: Vec<String> = [
        "Kernel",
        "VRE",
        "Neon perf(x)",
        "Auto perf(x)",
        "InstrRed(x)",
        "Neon IPC",
        "Neon power(W)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for k in &suite.kernels {
        rows.push(vec![
            k.meta.id(),
            k.meta.vre(Width::W128).to_string(),
            format!("{:.2}", k.scalar.seconds() / k.neon.seconds().max(1e-12)),
            format!("{:.2}", k.scalar.seconds() / k.auto.seconds().max(1e-12)),
            format!(
                "{:.2}",
                k.scalar.trace.total() as f64 / k.neon.trace.total().max(1) as f64
            ),
            format!("{:.2}", k.neon.sim.ipc()),
            format!("{:.2}", k.neon.power_w),
        ]);
    }
    make_report("Per-kernel detail", header, rows)
}

/// Group kernels per library for quick summaries in examples/tests.
pub fn library_speedups(suite: &SuiteResults) -> BTreeMap<Library, f64> {
    Library::ALL
        .iter()
        .map(|&lib| {
            let ks = suite.by_library(lib);
            let s = geomean(
                ks.iter()
                    .map(|k| k.scalar.seconds() / k.neon.seconds().max(1e-12)),
            );
            (lib, s)
        })
        .collect()
}

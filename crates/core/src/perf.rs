//! Self-timing perf harness: how fast is the simulator itself?
//!
//! The paper's methodology replays one recorded instruction stream
//! into every core configuration, so the reproduction's wall-clock
//! budget is dominated by the replay hot loop. This module times that
//! loop against itself: [`probe`] records each representative kernel
//! once and then drives the recording through every pipeline phase —
//! decode-only, cache warm-up and timed simulation — reporting
//! nanoseconds per instruction for each and **instructions simulated
//! per second** as the headline metric.
//!
//! The same module owns the CI throughput gate: [`parse_bench_json`]
//! reads the machine-readable report the vendored Criterion shim
//! writes (`BENCH_ci.json`), and [`gate`] compares element-throughput
//! benches against a committed baseline, failing on regressions
//! beyond a tolerance.

use crate::kernel::{Impl, Kernel, Scale};
use crate::runner::record_group;
use crate::tracestore::TraceStore;
use std::time::Instant;
use swan_simd::Width;
use swan_uarch::{CoreConfig, MultiCore};

/// One representative kernel per library, covering every figure's mix.
pub const REPRESENTATIVES: [(&str, &str); 12] = [
    ("LJ", "rgb_to_ycbcr"),
    ("LP", "filter_paeth"),
    ("LW", "tm_predict"),
    ("SK", "convolve_vertical"),
    ("WA", "audible"),
    ("PF", "fft_forward"),
    ("ZL", "adler32"),
    ("BS", "aes128_ctr"),
    ("OR", "memchr"),
    ("LO", "pitch_corr"),
    ("LV", "sad16x16"),
    ("XP", "gemm_f32"),
];

/// Look up a kernel by `(library symbol, name)`.
pub fn find<'a>(kernels: &'a [Box<dyn Kernel>], lib: &str, name: &str) -> &'a dyn Kernel {
    kernels
        .iter()
        .find(|k| k.meta().library.info().symbol == lib && k.meta().name == name)
        .unwrap_or_else(|| panic!("{lib}.{name} not in suite"))
        .as_ref()
}

/// Accumulated self-timing of the replay pipeline over the
/// representative kernels. All `_ns` fields are wall-clock totals;
/// [`PerfReport::instrs`] counts decoded instructions per full replay
/// pass (each timed pass steps `instrs * cores` model steps).
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Input scale the probe ran at.
    pub scale: Scale,
    /// Input-generation seed.
    pub seed: u64,
    /// Number of representative kernels probed.
    pub kernels: usize,
    /// Number of core models in the fan-out (Prime/Gold/Silver).
    pub cores: usize,
    /// Decoded instructions per full replay pass, summed over kernels.
    pub instrs: u64,
    /// Functional execution + encoding (one per kernel).
    pub record_ns: u128,
    /// Decode-only replay: chunk/record decode into batch arenas,
    /// no simulation.
    pub decode_ns: u128,
    /// Batch-path cache warm-up pass across all core models.
    pub warm_ns: u128,
    /// Batch-path timed simulation pass across all core models.
    pub timed_ns: u128,
}

/// Nanoseconds per unit, as a short human string.
fn ns_per(ns: u128, units: u64) -> String {
    if units == 0 {
        return "-".to_string();
    }
    format!("{:8.2}", ns as f64 / units as f64)
}

impl PerfReport {
    /// Model steps per timed pass: every decoded instruction is
    /// stepped through every core model.
    pub fn sim_steps(&self) -> u64 {
        self.instrs * self.cores as u64
    }

    /// Headline metric: instructions simulated per second on the
    /// timed batch pass (model steps / timed wall-clock).
    pub fn instrs_per_sec(&self) -> f64 {
        if self.timed_ns == 0 {
            return 0.0;
        }
        self.sim_steps() as f64 * 1e9 / self.timed_ns as f64
    }

    /// Multi-line human-readable breakdown, ending in the headline
    /// `perf:` line CI greps for.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "perf probe: {} kernels x {} cores at scale {:.5} (seed {})\n",
            self.kernels, self.cores, self.scale.0, self.seed
        ));
        s.push_str(&format!(
            "  {} instrs decoded per pass, {} model steps per timed pass\n",
            self.instrs,
            self.sim_steps()
        ));
        s.push_str("  phase                     total ms   ns/instr\n");
        let row = |name: &str, ns: u128, units: u64| {
            format!(
                "  {name:<24} {:>9.2}   {}\n",
                ns as f64 / 1e6,
                ns_per(ns, units)
            )
        };
        s.push_str(&row("record (execute+encode)", self.record_ns, self.instrs));
        s.push_str(&row("decode-only replay", self.decode_ns, self.instrs));
        s.push_str(&row("warm batch", self.warm_ns, self.sim_steps()));
        s.push_str(&row("timed batch", self.timed_ns, self.sim_steps()));
        s.push_str(&format!(
            "perf: {:.3e} instrs/sec timed batch throughput\n",
            self.instrs_per_sec()
        ));
        s
    }
}

/// Record every representative kernel once (Neon at 128 bits, the
/// dominant scenario shape) and time each replay-pipeline phase over
/// the Prime/Gold/Silver fan-out.
pub fn probe(
    kernels: &[Box<dyn Kernel>],
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
) -> PerfReport {
    let cfgs = [
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ];
    let mut rep = PerfReport {
        scale,
        seed,
        kernels: REPRESENTATIVES.len(),
        cores: cfgs.len(),
        instrs: 0,
        record_ns: 0,
        decode_ns: 0,
        warm_ns: 0,
        timed_ns: 0,
    };
    for (lib, name) in REPRESENTATIVES {
        let k = find(kernels, lib, name);

        let t0 = Instant::now();
        let mut rec = record_group(k, Impl::Neon, Width::W128, scale, seed, store);
        rep.record_ns += t0.elapsed().as_nanos();

        let t0 = Instant::now();
        let mut n = 0u64;
        rec.replay_batches(|b| n += b.len() as u64);
        rep.decode_ns += t0.elapsed().as_nanos();
        rep.instrs += n;

        // Per-batch profile spans mirror `runner::measure_recorded`,
        // so `--perf --profile` attributes the probe's replay passes.
        let mut batch = MultiCore::new(&cfgs);
        batch.begin_warm();
        let t0 = Instant::now();
        rec.replay_batches(|b| {
            let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::ReplayWarm);
            batch.warm_batch(b)
        });
        rep.warm_ns += t0.elapsed().as_nanos();
        batch.begin_timed();
        let t0 = Instant::now();
        rec.replay_batches(|b| {
            let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::Timed);
            batch.step_batch(b)
        });
        rep.timed_ns += t0.elapsed().as_nanos();
        let bstats = batch.batch_stats();
        crate::profile::add_counts(crate::profile::Phase::ReplayWarm, bstats.warm_instrs, 0);
        crate::profile::add_counts(crate::profile::Phase::Timed, bstats.timed_instrs, 0);
    }
    rep
}

/// One row of the Criterion shim's JSON report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Benchmark id (`group/bench`).
    pub id: String,
    /// Median wall-clock per iteration.
    pub median_ns: u128,
    /// Declared element throughput per iteration, if the bench set
    /// one (`Throughput::Elements`).
    pub elements: Option<u64>,
}

impl BenchRow {
    /// Elements per second, for throughput-carrying benches.
    pub fn elems_per_sec(&self) -> Option<f64> {
        let e = self.elements?;
        if self.median_ns == 0 {
            return None;
        }
        Some(e as f64 * 1e9 / self.median_ns as f64)
    }
}

/// Extract a `"key": value` numeric field from one JSON object line.
fn field_u128(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Unescape the shim's minimal JSON string escaping.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(u) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(u);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Parse the vendored Criterion shim's JSON report (the
/// `BENCH_ci.json` artifact). The shim writes one bench object per
/// line; rows missing an id or median are skipped. Tolerates both
/// format 1 (no throughput fields) and format 2 (with `elements`).
pub fn parse_bench_json(text: &str) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(start) = line.find("\"id\": \"") else {
            continue;
        };
        let rest = &line[start + "\"id\": \"".len()..];
        // The id ends at the first unescaped quote.
        let mut end = None;
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let Some(end) = end else { continue };
        let Some(median_ns) = field_u128(line, "median_ns") else {
            continue;
        };
        rows.push(BenchRow {
            id: unescape(&rest[..end]),
            median_ns,
            elements: field_u128(line, "elements").map(|e| e as u64),
        });
    }
    rows
}

/// Outcome of the throughput gate: one report line per compared
/// bench, plus the subset that regressed beyond tolerance.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// One human-readable line per throughput comparison.
    pub lines: Vec<String>,
    /// Failures: regressions beyond tolerance and missing benches.
    pub regressions: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes (no regression, nothing missing).
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare element-throughput benches in `current` against
/// `baseline`: any bench whose elements/sec falls below
/// `(1 - max_regression)` of the baseline value fails the gate, as
/// does a baseline throughput bench missing from the current run.
/// Wall-clock-only rows (no `elements`) are informational and never
/// gate — absolute times vary across machines, but a >`max_regression`
/// drop in same-machine throughput means the hot loop got slower.
pub fn gate(current: &[BenchRow], baseline: &[BenchRow], max_regression: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    for base in baseline {
        let Some(base_tp) = base.elems_per_sec() else {
            continue;
        };
        let Some(cur) = current.iter().find(|r| r.id == base.id) else {
            out.regressions.push(format!(
                "{}: present in baseline, missing from run",
                base.id
            ));
            continue;
        };
        let Some(cur_tp) = cur.elems_per_sec() else {
            out.regressions.push(format!(
                "{}: baseline has throughput, current run does not",
                base.id
            ));
            continue;
        };
        let ratio = cur_tp / base_tp;
        let verdict = if ratio < 1.0 - max_regression {
            out.regressions.push(format!(
                "{}: {:.3e} elems/sec is {:.0}% of baseline {:.3e} (floor {:.0}%)",
                base.id,
                cur_tp,
                ratio * 100.0,
                base_tp,
                (1.0 - max_regression) * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        out.lines.push(format!(
            "{:<55} {:>12.3e} vs {:>12.3e} elems/sec ({:+.1}%) {verdict}",
            base.id,
            cur_tp,
            base_tp,
            (ratio - 1.0) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // `probe` itself is exercised from swan-bench's tests (this crate
    // cannot depend on the kernel inventory).

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let text = "{\n  \"format\": 2,\n  \"benches\": [\n    \
                    {\"id\": \"g/plain\", \"median_ns\": 1500},\n    \
                    {\"id\": \"g/tp\", \"median_ns\": 2000, \"elements\": 4000, \
                     \"elems_per_sec\": 2000000000}\n  ]\n}\n";
        let rows = parse_bench_json(text);
        assert_eq!(
            rows,
            vec![
                BenchRow {
                    id: "g/plain".into(),
                    median_ns: 1500,
                    elements: None
                },
                BenchRow {
                    id: "g/tp".into(),
                    median_ns: 2000,
                    elements: Some(4000)
                },
            ]
        );
        assert_eq!(rows[1].elems_per_sec(), Some(2e9));
        assert_eq!(rows[0].elems_per_sec(), None);
    }

    #[test]
    fn parser_unescapes_ids() {
        let text = "{\"id\": \"g\\\\q\\\"x\\u0041\", \"median_ns\": 7}";
        let rows = parse_bench_json(text);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "g\\q\"xA");
    }

    #[test]
    fn gate_passes_identical_runs_and_flags_regressions() {
        let base = vec![
            BenchRow {
                id: "g/tp".into(),
                median_ns: 1000,
                elements: Some(1000),
            },
            BenchRow {
                id: "g/plain".into(),
                median_ns: 1000,
                elements: None,
            },
        ];
        // Identical run: passes; wall-clock-only rows never compared.
        let out = gate(&base, &base, 0.25);
        assert!(out.ok(), "{:?}", out.regressions);
        assert_eq!(out.lines.len(), 1);

        // 10% slower: inside the 25% tolerance.
        let slower = vec![BenchRow {
            id: "g/tp".into(),
            median_ns: 1100,
            elements: Some(1000),
        }];
        assert!(gate(&slower, &base, 0.25).ok());

        // 2x slower: regression.
        let much_slower = vec![BenchRow {
            id: "g/tp".into(),
            median_ns: 2000,
            elements: Some(1000),
        }];
        let out = gate(&much_slower, &base, 0.25);
        assert!(!out.ok());
        assert_eq!(out.regressions.len(), 1);

        // Throughput bench vanished: regression.
        let out = gate(&[], &base, 0.25);
        assert!(!out.ok());
    }
}

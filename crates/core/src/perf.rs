//! Self-timing perf harness: how fast is the simulator itself?
//!
//! The paper's methodology replays one recorded instruction stream
//! into every core configuration, so the reproduction's wall-clock
//! budget is dominated by the replay hot loop. This module times that
//! loop against itself: [`probe`] runs each representative kernel
//! untraced, traced into a null sink and recorded (splitting the record
//! cost into execute, trace and encode), then drives the recording
//! through every pipeline phase — decode-only, cache warm-up and timed
//! simulation — reporting nanoseconds per instruction for each and
//! **instructions simulated per second** as the headline metric.
//!
//! The probe reports wall clock and is never gated: the exact work
//! counters (executed, twinned and shared groups, functional
//! executions, instructions) are pinned in `tests/profile_output.rs`.

use crate::kernel::{Impl, Kernel, Scale};
use crate::runner::record_group;
use crate::tracestore::TraceStore;
use std::time::Instant;
use swan_simd::trace::stream_into_at;
use swan_simd::{Class, Op, TraceInstr, TraceSink, Width};
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
    /// Untraced functional execution: `instantiate` + `run` with no
    /// trace session (one per kernel).
    pub execute_ns: u128,
    /// Traced functional execution into a sink that drops every
    /// instruction: emulation plus the tracer, no encoding.
    pub trace_ns: u128,
    /// Functional execution + tracing + encoding (one per kernel).
    pub record_ns: u128,
    /// Decode-only replay: chunk/record decode into batch arenas,
    /// no simulation.
    pub decode_ns: u128,
    /// Cache warm-up across all core models: time inside the
    /// `warm_batch` calls only, without the decode that feeds them.
    pub warm_ns: u128,
    /// Timed simulation across all core models: time inside the
    /// `step_batch` calls only, without the decode that feeds them.
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

    /// Encoding alone: recording minus the null-sink traced run
    /// (clamped at zero when timing noise inverts them).
    pub fn encode_ns(&self) -> u128 {
        self.record_ns.saturating_sub(self.trace_ns)
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
        s.push_str(&row("execute (untraced)", self.execute_ns, self.instrs));
        s.push_str(&row("trace (null sink)", self.trace_ns, self.instrs));
        s.push_str(&row("encode (record-trace)", self.encode_ns(), self.instrs));
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

/// The probe's null sink: the tracer runs in full, every instruction
/// is dropped.
struct Discard;

impl TraceSink for Discard {
    fn on_instr(&mut self, _: &TraceInstr) {}
    fn on_overhead(&mut self, _: Op, _: Class, _: u32, _: u64) {}
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
        execute_ns: 0,
        trace_ns: 0,
        record_ns: 0,
        decode_ns: 0,
        warm_ns: 0,
        timed_ns: 0,
    };
    for (lib, name) in REPRESENTATIVES {
        let k = find(kernels, lib, name);

        let t0 = Instant::now();
        k.instantiate(scale, seed).run(Impl::Neon, Width::W128);
        rep.execute_ns += t0.elapsed().as_nanos();

        let t0 = Instant::now();
        let mut inst = k.instantiate(scale, seed);
        stream_into_at(Width::W128, Discard, || inst.run(Impl::Neon, Width::W128));
        rep.trace_ns += t0.elapsed().as_nanos();

        let t0 = Instant::now();
        let mut rec = record_group(k, Impl::Neon, Width::W128, scale, seed, store);
        rep.record_ns += t0.elapsed().as_nanos();

        let t0 = Instant::now();
        let mut n = 0u64;
        rec.replay_batches(|b| n += b.len() as u64);
        rep.decode_ns += t0.elapsed().as_nanos();
        rep.instrs += n;

        // The warm and timed rows time only the model calls, one
        // `Instant` per batch, so neither includes the decode pass the
        // row above already measures. Per-batch profile spans mirror
        // `runner::measure_recorded`, so `--perf --profile` attributes
        // the probe's replay passes.
        let mut batch = MultiCore::new(&cfgs);
        batch.begin_warm();
        rec.replay_batches(|b| {
            let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::ReplayWarm);
            let t = Instant::now();
            batch.warm_batch(b);
            rep.warm_ns += t.elapsed().as_nanos();
        });
        batch.begin_timed();
        rec.replay_batches(|b| {
            let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::Timed);
            let t = Instant::now();
            batch.step_batch(b);
            rep.timed_ns += t.elapsed().as_nanos();
        });
        let bstats = batch.batch_stats();
        crate::profile::add_counts(crate::profile::Phase::ReplayWarm, bstats.warm_instrs, 0);
        crate::profile::add_counts(crate::profile::Phase::Timed, bstats.timed_instrs, 0);
    }
    rep
}

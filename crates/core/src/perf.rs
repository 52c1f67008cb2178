//! Self-timing perf harness: how fast is the simulator itself?
//!
//! A scenario group's wall clock is two functional executions (live)
//! or one recorded execution plus one decode (record/replay), and the
//! model stepping of a warm and a timed pass. This module times each
//! of those layers on its own: [`probe`] builds each representative
//! kernel's inputs, runs it untraced, traced into a null sink, recorded
//! and traced into the live timed sink, then drives the recording
//! through decode-only, cache warm-up and timed simulation. Every row
//! is the median of three runs per kernel, reported as nanoseconds per
//! instruction, with **instructions simulated per second** as the
//! headline metric.
//!
//! The probe reports wall clock and is never gated: the exact work
//! counters (executed, twinned and shared groups, functional
//! executions, instructions) are pinned in `tests/profile_output.rs`.

use crate::kernel::{Impl, Kernel, Runnable, Scale};
use crate::profile::{self, Phase, ProfileScope};
use crate::runner::{record_group, TimedSink};
use crate::tracestore::TraceStore;
use std::time::Instant;
use swan_simd::trace::stream_into_at;
use swan_simd::{RecordSink, Width};
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

/// Accumulated self-timing of the pipeline's layers over the
/// representative kernels. Every `_ns` field sums, over the kernels,
/// the median of three runs; [`PerfReport::instrs`] counts decoded
/// instructions per full replay pass (each timed pass steps
/// `instrs * cores` model steps).
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
    /// Building a kernel instance's inputs (`instantiate`).
    pub instantiate_ns: u128,
    /// Untraced functional execution: `run` with no trace session.
    pub execute_ns: u128,
    /// Traced functional execution into a sink that drops every
    /// instruction: emulation plus the tracer, no encoding.
    pub trace_ns: u128,
    /// Functional execution + tracing + encoding.
    pub record_ns: u128,
    /// Traced functional execution into the live timed pass's
    /// [`TimedSink`] with no core models: emulation, the tracer and
    /// batch collection, what the live path pays instead of encode +
    /// decode.
    pub reexecute_ns: u128,
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
        s.push_str(&row("instantiate", self.instantiate_ns, self.instrs));
        s.push_str(&row("execute (untraced)", self.execute_ns, self.instrs));
        s.push_str(&row("trace (null sink)", self.trace_ns, self.instrs));
        s.push_str(&row("encode (record-trace)", self.encode_ns(), self.instrs));
        s.push_str(&row(
            "re-execute (timed sink)",
            self.reexecute_ns,
            self.instrs,
        ));
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

/// Runs per row and kernel; each row takes the median.
const RUNS: usize = 3;

/// The median of `RUNS` samples.
fn median(mut samples: [u128; RUNS]) -> u128 {
    samples.sort_unstable();
    samples[RUNS / 2]
}

/// Nanoseconds `f` takes.
fn time(f: impl FnOnce()) -> u128 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos()
}

/// Record every representative kernel (Neon at 128 bits, the dominant
/// scenario shape) and time each layer of the pipeline over the
/// Prime/Gold/Silver fan-out. The execution rows each run a fresh
/// instance whose inputs were built outside the clock; the replay rows
/// drive the group recording [`record_group`] returns (from `store`
/// when one is given).
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
        instantiate_ns: 0,
        execute_ns: 0,
        trace_ns: 0,
        record_ns: 0,
        reexecute_ns: 0,
        decode_ns: 0,
        warm_ns: 0,
        timed_ns: 0,
    };
    let (imp, w) = (Impl::Neon, Width::W128);
    for (lib, name) in REPRESENTATIVES {
        let k = find(kernels, lib, name);
        // One sample of `f` on a fresh instance, built off the clock.
        let on_fresh = |f: &dyn Fn(&mut dyn Runnable)| {
            let mut inst = k.instantiate(scale, seed);
            time(|| f(&mut *inst))
        };

        rep.instantiate_ns += median(std::array::from_fn(|_| {
            let t0 = Instant::now();
            let inst = k.instantiate(scale, seed);
            let ns = t0.elapsed().as_nanos();
            drop(inst);
            ns
        }));
        rep.execute_ns += median(std::array::from_fn(|_| on_fresh(&|inst| inst.run(imp, w))));
        rep.trace_ns += median(std::array::from_fn(|_| {
            on_fresh(&|inst| {
                stream_into_at(w, (), || inst.run(imp, w));
            })
        }));
        rep.record_ns += median(std::array::from_fn(|_| {
            on_fresh(&|inst| {
                let (_, rec, ()) = stream_into_at(w, RecordSink::new(), || inst.run(imp, w));
                rec.finish();
            })
        }));
        rep.reexecute_ns += median(std::array::from_fn(|_| {
            on_fresh(&|inst| {
                let sink = TimedSink::new((), MultiCore::new(&[]));
                stream_into_at(w, sink, || inst.run(imp, w)).1.finish();
            })
        }));

        let mut rec = record_group(k, imp, w, scale, seed, store);
        let mut n = 0u64;
        rep.decode_ns += median(std::array::from_fn(|_| {
            n = 0;
            time(|| rec.replay_batches(|b| n += b.len() as u64))
        }));
        rep.instrs += n;

        // The warm and timed rows time only the model calls, one
        // `Instant` per batch, so neither includes the decode pass the
        // row above already measures. Per-batch profile spans mirror
        // `runner::measure_recorded`, so `--perf --profile` attributes
        // the probe's replay passes.
        let (mut warm, mut timed) = ([0u128; RUNS], [0u128; RUNS]);
        for run in 0..RUNS {
            let mut cores = MultiCore::new(&cfgs);
            cores.begin_warm();
            rec.replay_batches(|b| {
                let _span = ProfileScope::enter(Phase::ReplayWarm);
                warm[run] += time(|| cores.warm_batch(b));
            });
            cores.begin_timed();
            rec.replay_batches(|b| {
                let _span = ProfileScope::enter(Phase::Timed);
                timed[run] += time(|| cores.step_batch(b));
            });
            let stats = cores.batch_stats();
            profile::add_counts(Phase::ReplayWarm, stats.warm_instrs, 0);
            profile::add_counts(Phase::Timed, stats.timed_instrs, 0);
        }
        rep.warm_ns += median(warm);
        rep.timed_ns += median(timed);
    }
    rep
}

//! Measurement runner: trace a kernel invocation, drive it through
//! the timing model, and attach power/energy.
//!
//! There is one path, *record-once / replay-many*: the kernel
//! executes exactly once under a [`swan_simd::RecordSink`] that
//! encodes the dynamic instruction stream into a compact replay
//! buffer ([`record_group`]); [`measure_recorded`] then replays the
//! recording in decoded batches into one incremental
//! [`swan_uarch::CoreModel`] per core configuration — once to warm
//! the caches (§4.3) and once timed — so N configurations cost one
//! functional execution plus cheap stream decodes, mirroring the
//! paper's capture-one-trace, replay-into-every-core methodology.
//! [`measure`] is the single-point form. Replay is bit-identical to
//! the live stream (the codec's contract; the `streaming_equivalence`
//! integration tests hold a whole campaign to a live-execution
//! reference).

use crate::kernel::{Impl, Kernel, Scale};
use crate::profile::{self, Phase, ProfileScope};
use crate::tracestore::{StoreKey, StoredRecording, TraceStore};
use swan_simd::trace::{self, session_width, stream_into_at, TraceSink};
use swan_simd::{EncodedTrace, RecordSink, TraceData, TraceInstr, Width};
use swan_uarch::{CoreConfig, EnergyModel, MultiCore, SimResult};

/// One measured (kernel, implementation, width, core) point.
/// Equality is exact (floats compare bitwise-equal values), which is
/// what the checkpoint journal's byte-identity tests rely on.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Dynamic instruction histograms.
    pub trace: TraceData,
    /// Timing simulation result.
    pub sim: SimResult,
    /// Average chip power in watts (includes DRAM), Figure 3.
    pub power_w: f64,
    /// Energy in joules for one invocation.
    pub energy_j: f64,
    /// Useful arithmetic ops per invocation (Figure 6 axis).
    pub work_ops: u64,
}

impl Measurement {
    /// Execution time in seconds for one invocation.
    pub fn seconds(&self) -> f64 {
        self.sim.seconds
    }
}

/// Attach the energy model to a finished simulation.
fn attach_energy(
    histograms: TraceData,
    sim: SimResult,
    cfg: &CoreConfig,
    width_factor: f64,
    work_ops: u64,
) -> Measurement {
    let energy = EnergyModel::default().energy(&sim, cfg, width_factor);
    let power_w = if sim.seconds > 0.0 {
        energy.total_j() / sim.seconds
    } else {
        0.0
    };
    Measurement {
        trace: histograms,
        sim,
        power_w,
        energy_j: energy.total_j(),
        work_ops,
    }
}

/// Execute a kernel configuration exactly once under a
/// [`RecordSink`], producing the compact replayable encoding of its
/// dynamic instruction stream. Returns the histograms, the recording,
/// and the kernel's useful-operation count.
///
/// The session opens at the scenario's width and the kernel invocation
/// reads it back from the session, instead of the width being threaded
/// through every call layer.
pub fn record(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
) -> (TraceData, EncodedTrace, u64) {
    let mut inst = kernel.instantiate(scale, seed);
    let (data, rec, ()) = stream_into_at(w, RecordSink::new(), || inst.run(imp, session_width()));
    (data, rec.finish(), inst.work_ops())
}

/// A scenario group's recording, however it was obtained: freshly
/// executed into memory, freshly executed while spilling into a
/// trace-store entry, or replayed straight from a verified store hit.
/// All three replay the bit-identical stream.
#[derive(Debug)]
pub struct GroupRecording {
    /// Instruction histograms of the recorded stream (never a
    /// materialized trace).
    pub data: TraceData,
    /// Useful-operation count of the recorded invocation.
    pub work_ops: u64,
    /// Fallback-pool references of the recorded session.
    pub fallback_refs: u64,
    source: RecordingSource,
}

#[derive(Debug)]
enum RecordingSource {
    Memory(EncodedTrace),
    Store(Box<StoredRecording>),
}

impl GroupRecording {
    /// Whether this recording replays from a trace-store file
    /// (O(chunk) resident) rather than an in-memory buffer.
    pub fn from_store(&self) -> bool {
        matches!(self.source, RecordingSource::Store(_))
    }

    /// Drive the recorded stream out as decoded instruction batches —
    /// the monomorphic fast path for core-model consumers. Store-backed
    /// recordings decode double-buffered (chunk `k+1` is read and
    /// verified while the consumer simulates chunk `k`); in-memory
    /// recordings decode serially into one reusable arena. The
    /// concatenated batches equal the live stream with overhead runs
    /// expanded (what a [`swan_simd::VecSink`] receives).
    pub fn replay_batches(&mut self, consume: impl FnMut(&[TraceInstr])) {
        match &mut self.source {
            RecordingSource::Memory(enc) => enc.replay_batches(consume),
            RecordingSource::Store(stored) => stored.replay_batches(consume),
        }
    }
}

/// Execute a kernel configuration exactly once and hold the session's
/// fallback counter alongside the usual outputs — the shared recording
/// closure of the memory and store paths.
fn execute_recorded<S: TraceSink>(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    sink: S,
) -> (TraceData, S, u64, u64) {
    let mut inst = kernel.instantiate(scale, seed);
    let (data, sink, fallback_refs) = stream_into_at(w, sink, || {
        inst.run(imp, session_width());
        // Read inside the session so the value is bound to this
        // session's registry.
        trace::buffer_fallback_refs()
    });
    (data, sink, fallback_refs, inst.work_ops())
}

/// Obtain a scenario group's recording, consulting `store` first when
/// one is given: a verified hit replays from disk with **no**
/// functional execution; a miss executes the kernel exactly once,
/// spilling the encoding chunk by chunk into a new store entry
/// (O(chunk budget) resident); without a store the recording stays in
/// memory, exactly as before the store existed. All three paths yield
/// bit-identical replays, which is the store's cardinal invariant.
///
/// Store I/O failures never fail the measurement: they are logged and
/// the group falls back to an in-memory recording.
pub fn record_group(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
) -> GroupRecording {
    if let Some(store) = store {
        let key = StoreKey::group(&kernel.meta().id(), imp, w, scale, seed);
        let hit = {
            let _span = ProfileScope::enter(Phase::StoreLookup);
            store.lookup(&key)
        };
        if let Some(stored) = hit {
            return GroupRecording {
                data: stored.histograms.histograms(),
                work_ops: stored.work_ops,
                fallback_refs: stored.fallback_refs,
                source: RecordingSource::Store(Box::new(stored)),
            };
        }
        match store.begin_insert(&key) {
            Ok((pending, spill)) => {
                // The codec times its own spill writes; subtract the
                // delta from the recording and commit spans so their
                // self time stays exclusive of spill I/O.
                let (data, spill, fallback_refs, work_ops) = {
                    let _span = ProfileScope::enter(Phase::Record);
                    let spill0 = profile::codec_spill_ns();
                    let out = execute_recorded(kernel, imp, w, scale, seed, spill);
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                profile::add_counts(Phase::Record, data.total(), 0);
                let committed = {
                    let _span = ProfileScope::enter(Phase::StoreCommit);
                    let spill0 = profile::codec_spill_ns();
                    let out =
                        store.commit(pending, spill, work_ops, fallback_refs, data.histograms());
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                match committed {
                    Ok(stored) => {
                        return GroupRecording {
                            data: data.histograms(),
                            work_ops,
                            fallback_refs,
                            source: RecordingSource::Store(Box::new(stored)),
                        }
                    }
                    Err(e) => eprintln!(
                        "trace store: commit of {} failed ({e}); re-recording in memory",
                        key.stream_id()
                    ),
                }
            }
            Err(e) => eprintln!(
                "trace store: cannot start entry for {} ({e}); recording in memory",
                key.stream_id()
            ),
        }
    }
    let (data, rec, fallback_refs, work_ops) = {
        let _span = ProfileScope::enter(Phase::Record);
        execute_recorded(kernel, imp, w, scale, seed, RecordSink::new())
    };
    profile::add_counts(Phase::Record, data.total(), 0);
    GroupRecording {
        data: data.histograms(),
        work_ops,
        fallback_refs,
        source: RecordingSource::Memory(rec.finish()),
    }
}

/// Vector-op energy scale factor for an implementation at a width.
pub(crate) fn width_factor(imp: Impl, w: Width) -> f64 {
    if imp == Impl::Neon {
        w.factor() as f64
    } else {
        1.0
    }
}

/// Measure a group recording on several core configurations: the
/// recording drives a fan-out of one incremental core model per
/// configuration twice — a first replay warms every model's caches
/// (§4.3) and a second replay is timed. Both replays run on the batch
/// path: each arena of decoded instructions is stepped through all N
/// models while (for store-backed recordings) the next chunk decodes
/// on a second thread. Where the arena boundaries fall never changes
/// the result (`tests/batch_equivalence.rs`). Returns one
/// [`Measurement`] per entry of `cfgs`, in order.
pub fn measure_recorded(
    rec: &mut GroupRecording,
    cfgs: &[CoreConfig],
    width_factor: f64,
) -> Vec<Measurement> {
    let mut multi = MultiCore::new(cfgs);
    multi.begin_warm();
    // One profiling span per batch (not per pass): the decode work
    // between batches — inline arena refills or the decoder thread's
    // chunk reads — times itself inside the codec, so span time here
    // is purely model stepping.
    rec.replay_batches(|b| {
        let _span = ProfileScope::enter(Phase::Warm);
        multi.warm_batch(b)
    });
    multi.begin_timed();
    rec.replay_batches(|b| {
        let _span = ProfileScope::enter(Phase::Timed);
        multi.step_batch(b)
    });
    let stats = multi.batch_stats();
    profile::add_counts(Phase::Warm, stats.warm_instrs, 0);
    profile::add_counts(Phase::Timed, stats.timed_instrs, 0);
    let sims = multi.finalize();
    cfgs.iter()
        .zip(sims)
        .map(|(cfg, sim)| {
            attach_energy(rec.data.histograms(), sim, cfg, width_factor, rec.work_ops)
        })
        .collect()
}

/// Measure one configuration of a kernel: record it once
/// ([`record_group`], no store) and replay the recording warm + timed
/// into one core model ([`measure_recorded`]). The single-point
/// convenience form; whole plans go through
/// [`crate::campaign::Campaign::execute`].
pub fn measure(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    cfg: &CoreConfig,
    scale: Scale,
    seed: u64,
) -> Measurement {
    let mut rec = record_group(kernel, imp, w, scale, seed, None);
    measure_recorded(&mut rec, std::slice::from_ref(cfg), width_factor(imp, w))
        .pop()
        .expect("one config in, one measurement out")
}

/// Verify a kernel: run the Scalar and Neon implementations (every
/// width) on the same inputs and compare outputs within the kernel's
/// tolerance. Returns a description of the first mismatch.
pub fn verify_kernel(kernel: &dyn Kernel, scale: Scale, seed: u64) -> Result<(), String> {
    let meta = kernel.meta();
    let mut reference = kernel.instantiate(scale, seed);
    reference.run(Impl::Scalar, Width::W128);
    let expect = reference.output();
    for w in Width::ALL {
        let mut inst = kernel.instantiate(scale, seed);
        inst.run(Impl::Neon, w);
        compare(
            &meta.id(),
            &format!("Neon@{w}"),
            &expect,
            &inst.output(),
            meta.tolerance,
        )?;
    }
    let mut auto = kernel.instantiate(scale, seed);
    auto.run(Impl::Auto, Width::W128);
    compare(&meta.id(), "Auto", &expect, &auto.output(), meta.tolerance)?;
    Ok(())
}

fn compare(id: &str, which: &str, expect: &[f64], got: &[f64], tol: f64) -> Result<(), String> {
    if expect.len() != got.len() {
        return Err(format!(
            "{id} {which}: output length {} != scalar {}",
            got.len(),
            expect.len()
        ));
    }
    for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
        let err = (e - g).abs();
        let bound = tol * e.abs().max(1.0);
        if err > bound {
            return Err(format!(
                "{id} {which}: output[{i}] = {g}, scalar = {e} (tol {tol})"
            ));
        }
    }
    Ok(())
}

//! Measurement runner: trace a kernel invocation, drive it through
//! the timing model, and attach power/energy.
//!
//! A scenario group is measured by a warm pass and a timed pass over
//! its dynamic instruction stream. Both step one incremental
//! [`swan_uarch::CoreModel`] per distinct core timing (§4.3).
//! Configurations that differ only in clock and energy
//! ([`CoreConfig::same_timing`]: Gold and the Figure 5(b) `4W-2V`
//! baseline against Prime) share one model; each member still gets
//! its own `seconds` and energy. Where each pass gets the stream
//! depends on the trace store:
//!
//! - **No store: the live path.** The kernel executes twice and nothing
//!   is recorded. The warm pass runs into a [`WarmingSink`] with no
//!   recorder behind it, which cuts the stream into batches and warms
//!   the cores with their memory references. The timed pass runs a
//!   fresh instance with the same seed into a [`TimedSink`], which
//!   steps the cores on each batch and then hands the batch on (the
//!   golden digest hashes it). A group holds one batch of its stream,
//!   never the whole of it.
//! - **A store miss** executes the kernel once under the recorder,
//!   spilling into a new entry, and warms the cores from the live
//!   stream while it records. The timed pass replays the entry.
//! - **A store hit** executes nothing. One replay warms, a second is
//!   timed.
//!
//! [`measure`] is the single-point form, used by Figure 6: it records
//! in memory, warming live, and replays the recording once, timed.
//! Whole plans go through [`crate::campaign::Campaign::execute`],
//! which measures each distinct stream once per call: an Auto group
//! that runs the same stream as a Scalar or Neon group of the same
//! call copies that group's measurements.
//!
//! [`record_group`] + [`measure_recorded`] are the two-pass form of
//! the same measurement (record, then replay warm + timed), kept for
//! callers that hold a recording apart from its cores. It still steps
//! one model per configuration, shared timing or not: the benchmark's
//! traced pass times its per-layer copy against exactly that form.
//! Every form gives identical [`Measurement`]s: the warm pass sees the
//! same addresses in the same order, batch boundaries never change a
//! result, and a shared model finalizes to what each member's own
//! model would (`tests/warm_on_record.rs`). A fresh instance with the
//! same seed emits the identical stream, and a replay is bit-identical
//! to the live stream (the codec's contract); `tests/
//! streaming_equivalence.rs` holds the live path, a cold store and a
//! warm store to the same rows and golden entries.

use crate::kernel::{Impl, Kernel, Runnable, Scale};
use crate::profile::{self, Phase, ProfileScope};
use crate::tracestore::{StoreKey, StoredRecording, TraceStore};
use swan_simd::trace::{
    self, session_width, stream_into_at, Class, MemRef, TraceSink, DEFAULT_BATCH_INSTRS,
};
use swan_simd::{EncodedTrace, Op, RecordSink, TraceData, TraceInstr, Width};
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

/// A sink that warms a core fan-out from the live stream: every call
/// is forwarded to the wrapped sink `S` (a [`RecordSink`] in memory, a
/// trace store's [`swan_simd::SpillSink`], or `()` when nothing is
/// recorded), and the stream is cut into batches of
/// [`DEFAULT_BATCH_INSTRS`] instructions, exactly where a replay of a
/// recording would cut it, each of which warms the cores through
/// [`MultiCore::warm_refs`]. The warm pass reads nothing of an
/// instruction but its memory reference, so the reusable arena holds
/// only the batch's references, and an overhead run (which has none)
/// only advances the batch. The arena is allocated once, in the
/// constructor; feeding the sink allocates nothing beyond what `S`
/// itself allocates (`tests/hot_loop_alloc.rs`). Each flush is one
/// profiling span: [`Phase::RecordWarm`] inside a recording,
/// [`Phase::Warm`] inside the live warm pass.
#[derive(Debug)]
pub struct WarmingSink<S: TraceSink> {
    inner: S,
    cores: MultiCore,
    /// Memory references of the pending batch, in program order.
    refs: Vec<MemRef>,
    /// Stream instructions in the pending batch.
    pending: u64,
    cap: u64,
    phase: Phase,
}

impl<S: TraceSink> WarmingSink<S> {
    /// Wrap the recorder `inner`, warming `cores` (put into their warm
    /// phase here) in batches of [`DEFAULT_BATCH_INSTRS`] instructions.
    pub fn new(inner: S, cores: MultiCore) -> WarmingSink<S> {
        WarmingSink::with_batch(inner, cores, DEFAULT_BATCH_INSTRS, Phase::RecordWarm)
    }

    /// [`WarmingSink::new`] with an explicit batch size (at least 1)
    /// and profiling phase; tests use tiny batches to put many batch
    /// edges into short streams.
    fn with_batch(inner: S, mut cores: MultiCore, cap: usize, phase: Phase) -> WarmingSink<S> {
        let cap = cap.max(1);
        cores.begin_warm();
        WarmingSink {
            inner,
            cores,
            refs: Vec::with_capacity(cap),
            pending: 0,
            cap: cap as u64,
            phase,
        }
    }

    /// Warm the cores with the pending batch and start the next one.
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        let _span = ProfileScope::enter(self.phase);
        self.cores.warm_refs(&self.refs, self.pending);
        self.refs.clear();
        self.pending = 0;
    }

    /// Warm the cores with the last, partial batch and hand back the
    /// recorder and the warmed cores.
    pub fn finish(mut self) -> (S, MultiCore) {
        self.flush();
        (self.inner, self.cores)
    }
}

impl WarmingSink<()> {
    /// The live warm pass of a store-less group: a warming sink with no
    /// recorder behind it, charging its flushes to [`Phase::Warm`].
    pub fn unrecorded(cores: MultiCore) -> WarmingSink<()> {
        WarmingSink::with_batch((), cores, DEFAULT_BATCH_INSTRS, Phase::Warm)
    }
}

impl<S: TraceSink> TraceSink for WarmingSink<S> {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.inner.on_instr(ins);
        if let Some(m) = ins.mem {
            self.refs.push(m);
        }
        self.pending += 1;
        if self.pending >= self.cap {
            self.flush();
        }
    }

    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        self.inner.on_overhead(op, class, first_id, n);
        let mut left = n;
        while left > 0 {
            let take = left.min(self.cap - self.pending);
            self.pending += take;
            left -= take;
            if self.pending >= self.cap {
                self.flush();
            }
        }
    }
}

/// The sink of the live timed pass: it collects the stream into
/// batches of [`DEFAULT_BATCH_INSTRS`] instructions, exactly as a
/// replay of a recording would decode it (overhead runs expanded), and
/// steps the cores (put into their timed phase here) on each batch in
/// a [`Phase::Timed`] span. Then it hands every instruction of the
/// batch to `observer`, outside the span. The batch arena is allocated
/// once, in the constructor; feeding the sink allocates nothing beyond
/// what `observer` allocates (`tests/hot_loop_alloc.rs`).
#[derive(Debug)]
pub struct TimedSink<O: TraceSink> {
    observer: O,
    cores: MultiCore,
    batch: Vec<TraceInstr>,
    cap: usize,
}

impl<O: TraceSink> TimedSink<O> {
    /// Time `cores` on the stream in batches of
    /// [`DEFAULT_BATCH_INSTRS`] instructions, handing each batch on to
    /// `observer` (`()` drops it).
    pub fn new(observer: O, cores: MultiCore) -> TimedSink<O> {
        TimedSink::with_batch(observer, cores, DEFAULT_BATCH_INSTRS)
    }

    /// [`TimedSink::new`] with an explicit batch size (at least 1).
    fn with_batch(observer: O, mut cores: MultiCore, cap: usize) -> TimedSink<O> {
        let cap = cap.max(1);
        cores.begin_timed();
        TimedSink {
            observer,
            cores,
            batch: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Step the cores on the pending batch, observe it, and start the
    /// next one.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        {
            let _span = ProfileScope::enter(Phase::Timed);
            self.cores.step_batch(&self.batch);
        }
        for ins in &self.batch {
            self.observer.on_instr(ins);
        }
        self.batch.clear();
    }

    /// Step the cores on the last, partial batch and hand back the
    /// observer and the cores, ready to finalize.
    pub fn finish(mut self) -> (O, MultiCore) {
        self.flush();
        (self.observer, self.cores)
    }
}

impl<O: TraceSink> TraceSink for TimedSink<O> {
    // Overhead runs take the trait's default expansion into
    // `on_instr` calls, which is what a replay's batches hold.
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.batch.push(*ins);
        if self.batch.len() >= self.cap {
            self.flush();
        }
    }
}

/// What one functional execution into a sink leaves behind.
struct Executed<S> {
    data: TraceData,
    sink: S,
    fallback_refs: u64,
    work_ops: u64,
    /// The cores handed in, warmed on the live stream.
    cores: Option<MultiCore>,
}

/// Run `inst` once into `sink` in a trace session at width `w`. The
/// session's fallback counter is read inside the session, so the value
/// is bound to this session's registry.
fn execute_into<S: TraceSink>(
    inst: &mut dyn Runnable,
    imp: Impl,
    w: Width,
    sink: S,
) -> Executed<S> {
    let (data, sink, fallback_refs) = stream_into_at(w, sink, || {
        inst.run(imp, session_width());
        trace::buffer_fallback_refs()
    });
    Executed {
        data,
        sink,
        fallback_refs,
        work_ops: inst.work_ops(),
        cores: None,
    }
}

/// Execute a kernel configuration exactly once into the recorder
/// `sink` — the record half shared by every recording path. With
/// `cores`, the sink is wrapped in a [`WarmingSink`] and the cores
/// come back warmed.
fn execute_recorded<S: TraceSink>(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    sink: S,
    cores: Option<MultiCore>,
) -> Executed<S> {
    let mut inst = kernel.instantiate(scale, seed);
    let Some(cores) = cores else {
        return execute_into(&mut *inst, imp, w, sink);
    };
    let run = execute_into(&mut *inst, imp, w, WarmingSink::new(sink, cores));
    let (sink, cores) = run.sink.finish();
    profile::add_counts(Phase::RecordWarm, cores.batch_stats().warm_instrs, 0);
    Executed {
        data: run.data,
        sink,
        fallback_refs: run.fallback_refs,
        work_ops: run.work_ops,
        cores: Some(cores),
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
    let run = execute_recorded(kernel, imp, w, scale, seed, RecordSink::new(), None);
    (run.data, run.sink.finish(), run.work_ops)
}

/// A scenario group's stream, however it is obtained: freshly
/// executed into memory, freshly executed while spilling into a
/// trace-store entry, replayed straight from a verified store hit, or
/// not recorded at all (the live path, whose timed pass executes the
/// kernel again). All four give the bit-identical stream.
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
    Live(LiveRun),
}

/// The timed pass of a group on the live path: a fresh instance of the
/// kernel, built from the group's seed, that has not run yet.
struct LiveRun {
    inst: Box<dyn Runnable>,
    imp: Impl,
    w: Width,
}

impl std::fmt::Debug for LiveRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRun")
            .field("imp", &self.imp)
            .field("w", &self.w)
            .finish_non_exhaustive()
    }
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
    ///
    /// Every recording [`record_group`] returns replays. The live path
    /// of the campaign executor holds no recording; its groups never
    /// leave the crate.
    pub fn replay_batches(&mut self, consume: impl FnMut(&[TraceInstr])) {
        match &mut self.source {
            RecordingSource::Memory(enc) => enc.replay_batches(consume),
            RecordingSource::Store(stored) => stored.replay_batches(consume),
            RecordingSource::Live(_) => {
                unreachable!("a live group has no recording; its timed pass executes the kernel")
            }
        }
    }
}

/// Warm `cores` with one replay of a recording (the warm half when no
/// live stream is available).
fn warm_by_replay(rec: &mut GroupRecording, cores: &mut MultiCore) {
    cores.begin_warm();
    // One profiling span per batch (not per pass): the decode work
    // between batches — inline arena refills or the decoder thread's
    // chunk reads — times itself inside the codec, so span time here
    // is purely model stepping.
    rec.replay_batches(|b| {
        let _span = ProfileScope::enter(Phase::ReplayWarm);
        cores.warm_batch(b)
    });
    profile::add_counts(Phase::ReplayWarm, cores.batch_stats().warm_instrs, 0);
}

/// [`record_group`], optionally with cores: `cores`, when given, come
/// back warmed, live while the kernel records or by one replay of a
/// store hit. A store insert whose commit fails has already warmed
/// them, so the in-memory re-recording does not warm them again.
fn obtain_group(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
    mut cores: Option<MultiCore>,
) -> (GroupRecording, Option<MultiCore>) {
    // Cores already warmed by a store insert whose commit failed.
    let mut warmed = None;
    if let Some(store) = store {
        let key = StoreKey::group(&kernel.meta().id(), imp, w, scale, seed);
        let hit = {
            let _span = ProfileScope::enter(Phase::StoreLookup);
            store.lookup(&key)
        };
        if let Some(stored) = hit {
            let mut rec = GroupRecording {
                data: stored.histograms.histograms(),
                work_ops: stored.work_ops,
                fallback_refs: stored.fallback_refs,
                source: RecordingSource::Store(Box::new(stored)),
            };
            if let Some(cores) = cores.as_mut() {
                warm_by_replay(&mut rec, cores);
            }
            return (rec, cores);
        }
        match store.begin_insert(&key) {
            Ok((pending, spill)) => {
                // The codec times its own spill writes; subtract the
                // delta from the recording and commit spans so their
                // self time stays exclusive of spill I/O.
                let run = {
                    let _span = ProfileScope::enter(Phase::Record);
                    let spill0 = profile::codec_spill_ns();
                    let out = execute_recorded(kernel, imp, w, scale, seed, spill, cores.take());
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                profile::add_counts(Phase::Record, run.data.total(), 0);
                let committed = {
                    let _span = ProfileScope::enter(Phase::StoreCommit);
                    let spill0 = profile::codec_spill_ns();
                    let out = store.commit(
                        pending,
                        run.sink,
                        run.work_ops,
                        run.fallback_refs,
                        run.data.histograms(),
                    );
                    profile::exclude_enclosed(profile::codec_spill_ns() - spill0);
                    out
                };
                match committed {
                    Ok(stored) => {
                        let rec = GroupRecording {
                            data: run.data,
                            work_ops: run.work_ops,
                            fallback_refs: run.fallback_refs,
                            source: RecordingSource::Store(Box::new(stored)),
                        };
                        return (rec, run.cores);
                    }
                    Err(e) => {
                        eprintln!(
                            "trace store: commit of {} failed ({e}); re-recording in memory",
                            key.stream_id()
                        );
                        warmed = run.cores;
                    }
                }
            }
            Err(e) => eprintln!(
                "trace store: cannot start entry for {} ({e}); recording in memory",
                key.stream_id()
            ),
        }
    }
    let run = {
        let _span = ProfileScope::enter(Phase::Record);
        execute_recorded(kernel, imp, w, scale, seed, RecordSink::new(), cores)
    };
    profile::add_counts(Phase::Record, run.data.total(), 0);
    let rec = GroupRecording {
        data: run.data,
        work_ops: run.work_ops,
        fallback_refs: run.fallback_refs,
        source: RecordingSource::Memory(run.sink.finish()),
    };
    (rec, run.cores.or(warmed))
}

/// Obtain a scenario group's recording, consulting `store` first when
/// one is given: a verified hit replays from disk with **no**
/// functional execution; a miss executes the kernel exactly once,
/// spilling the encoding chunk by chunk into a new store entry
/// (O(chunk budget) resident); without a store the recording stays in
/// memory. All three paths yield bit-identical replays, which is the
/// store's cardinal invariant. [`measure_recorded`] measures the
/// recording; the campaign executor instead warms the cores while it
/// obtains the stream.
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
    obtain_group(kernel, imp, w, scale, seed, store, None).0
}

/// The core models of one group's member configurations: one
/// [`MultiCore`] model per distinct timing
/// ([`CoreConfig::same_timing`]), in order of first appearance, each
/// measuring every member with that timing.
#[derive(Debug)]
pub(crate) struct GroupCores {
    models: MultiCore,
    /// The members' configurations, in member order.
    cfgs: Vec<CoreConfig>,
    /// For each member, the index of the model that measures it.
    model_of: Vec<usize>,
}

impl GroupCores {
    /// Cold models for the members `cfgs`.
    fn new(cfgs: &[CoreConfig]) -> GroupCores {
        let mut distinct: Vec<&CoreConfig> = Vec::new();
        let model_of = cfgs
            .iter()
            .map(|cfg| {
                distinct
                    .iter()
                    .position(|d| d.same_timing(cfg))
                    .unwrap_or_else(|| {
                        distinct.push(cfg);
                        distinct.len() - 1
                    })
            })
            .collect();
        let distinct: Vec<CoreConfig> = distinct.into_iter().cloned().collect();
        GroupCores {
            models: MultiCore::new(&distinct),
            cfgs: cfgs.to_vec(),
            model_of,
        }
    }

    /// Members measured from another member's model.
    pub(crate) fn shared(&self) -> usize {
        self.cfgs.len() - self.models.len()
    }

    /// One result per member, in member order, from one per model: a
    /// member's `seconds` come from its own clock, every other field
    /// from its model, which steps exactly like the member's own.
    fn expand(&self, sims: Vec<SimResult>) -> Vec<SimResult> {
        self.cfgs
            .iter()
            .zip(&self.model_of)
            .map(|(cfg, &m)| SimResult {
                seconds: cfg.cycles_to_seconds(sims[m].cycles),
                ..sims[m].clone()
            })
            .collect()
    }
}

/// Obtain a scenario group's recording together with the core models
/// of the member configurations `cfgs`, already warmed on its stream:
/// live while a fresh or store-miss group records, by one replay on a
/// store hit. [`measure_warmed`] then runs the timed pass.
pub(crate) fn record_warmed(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    store: Option<&TraceStore>,
    cfgs: &[CoreConfig],
) -> (GroupRecording, GroupCores) {
    let mut cores = GroupCores::new(cfgs);
    let (rec, models) = obtain_group(kernel, imp, w, scale, seed, store, Some(cores.models));
    cores.models = models.expect("cores handed in come back warmed");
    (rec, cores)
}

/// The warm pass of the live path: execute the kernel into a
/// [`WarmingSink`] with no recorder behind it, warming the core models
/// of the member configurations `cfgs`. The returned group records
/// nothing; it holds a fresh instance built from the same seed, which
/// [`measure_warmed`] (or the golden digest) runs for the timed pass.
/// Both executions are [`Phase::Execute`] spans.
pub(crate) fn execute_warmed(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    scale: Scale,
    seed: u64,
    cfgs: &[CoreConfig],
) -> (GroupRecording, GroupCores) {
    let mut cores = GroupCores::new(cfgs);
    let (rec, models) = {
        let _span = ProfileScope::enter(Phase::Execute);
        let mut inst = kernel.instantiate(scale, seed);
        let run = execute_into(&mut *inst, imp, w, WarmingSink::unrecorded(cores.models));
        drop(inst);
        let rec = GroupRecording {
            data: run.data,
            work_ops: run.work_ops,
            fallback_refs: run.fallback_refs,
            source: RecordingSource::Live(LiveRun {
                inst: kernel.instantiate(scale, seed),
                imp,
                w,
            }),
        };
        (rec, run.sink.finish().1)
    };
    cores.models = models;
    profile::add_counts(Phase::Execute, rec.data.total(), 0);
    profile::add_counts(Phase::Warm, cores.models.batch_stats().warm_instrs, 0);
    (rec, cores)
}

/// Vector-op energy scale factor for an implementation at a width.
pub(crate) fn width_factor(imp: Impl, w: Width) -> f64 {
    if imp == Impl::Neon {
        w.factor() as f64
    } else {
        1.0
    }
}

/// The timed pass over warmed `cores`: `replay` drives a recording's
/// decoded batches, each stepped through the cores and then handed to
/// `observe` (outside the timed span). Returns one [`SimResult`] per
/// core, in order.
fn step_timed(
    cores: &mut MultiCore,
    replay: impl FnOnce(&mut dyn FnMut(&[TraceInstr])),
    mut observe: impl FnMut(&[TraceInstr]),
) -> Vec<SimResult> {
    cores.begin_timed();
    replay(&mut |b| {
        {
            let _span = ProfileScope::enter(Phase::Timed);
            cores.step_batch(b);
        }
        observe(b);
    });
    profile::add_counts(Phase::Timed, cores.batch_stats().timed_instrs, 0);
    cores.finalize()
}

/// The timed pass of the live path: run the fresh instance into a
/// [`TimedSink`] over `cores`, in one [`Phase::Execute`] span, and
/// hand every batch to `observer`. Panics if the stream's histograms
/// differ from the warm pass's `warm`: the kernel is then not
/// deterministic across instances, and the two passes measured
/// different streams.
fn time_live<O: TraceSink>(
    mut live: LiveRun,
    warm: &TraceData,
    cores: &mut MultiCore,
    observer: O,
) -> (Vec<SimResult>, O) {
    let models = std::mem::replace(cores, MultiCore::new(&[]));
    let (data, observer) = {
        let _span = ProfileScope::enter(Phase::Execute);
        let run = execute_into(
            &mut *live.inst,
            live.imp,
            live.w,
            TimedSink::new(observer, models),
        );
        let (observer, models) = run.sink.finish();
        *cores = models;
        (run.data, observer)
    };
    profile::add_counts(Phase::Execute, data.total(), 0);
    profile::add_counts(Phase::Timed, cores.batch_stats().timed_instrs, 0);
    assert!(
        &data == warm,
        "the timed execution emitted another stream than the warm one \
         ({} vs {} instrs): the kernel is not deterministic for its seed",
        data.total(),
        warm.total()
    );
    (cores.finalize(), observer)
}

/// The timed pass over a group's warmed `cores`, the last use of its
/// stream: a live group executes its kernel again, a recording replays
/// once more (an in-memory one frees each chunk once decoded, so it
/// shrinks while the pass runs). Every instruction of the timed stream
/// then goes to `observer`, which comes back with one [`SimResult`]
/// per member, in member order.
pub(crate) fn replay_timed<O: TraceSink>(
    rec: GroupRecording,
    cores: &mut GroupCores,
    mut observer: O,
) -> (Vec<SimResult>, O) {
    let models = &mut cores.models;
    let sims = match rec.source {
        RecordingSource::Live(live) => {
            let (sims, observed) = time_live(live, &rec.data, models, observer);
            observer = observed;
            sims
        }
        RecordingSource::Memory(enc) => step_timed(
            models,
            |f| enc.into_batches(f),
            |b| b.iter().for_each(|ins| observer.on_instr(ins)),
        ),
        RecordingSource::Store(mut stored) => step_timed(
            models,
            |f| stored.replay_batches(f),
            |b| b.iter().for_each(|ins| observer.on_instr(ins)),
        ),
    };
    (cores.expand(sims), observer)
}

/// Attach the energy model to one finished simulation per entry of
/// `cfgs`, in order.
fn with_energy(
    data: &TraceData,
    work_ops: u64,
    cfgs: &[CoreConfig],
    sims: Vec<SimResult>,
    width_factor: f64,
) -> Vec<Measurement> {
    cfgs.iter()
        .zip(sims)
        .map(|(cfg, sim)| attach_energy(data.histograms(), sim, cfg, width_factor, work_ops))
        .collect()
}

/// Measure a group on its warmed `cores` (as [`record_warmed`] or
/// [`execute_warmed`] returns them): one timed pass, the stream's
/// last, then the energy model with each member's own configuration.
/// Returns one [`Measurement`] per member, in member order.
pub(crate) fn measure_warmed(
    rec: GroupRecording,
    mut cores: GroupCores,
    width_factor: f64,
) -> Vec<Measurement> {
    let (data, work_ops) = (rec.data.histograms(), rec.work_ops);
    let (sims, ()) = replay_timed(rec, &mut cores, ());
    with_energy(&data, work_ops, &cores.cfgs, sims, width_factor)
}

/// Measure a group recording on several core configurations: the
/// recording drives a fan-out of one incremental core model per
/// configuration twice — a first replay warms every model's caches
/// (§4.3) and a second replay is timed. Both replays run on the batch
/// path: each arena of decoded instructions is stepped through all N
/// models while (for store-backed recordings) the next chunk decodes
/// on a second thread. Where the arena boundaries fall never changes
/// the result (`tests/batch_equivalence.rs`), so this equals warming
/// live, as the campaign executor does on every path but a store hit.
/// The recording is left intact for further replays. Unlike the fused
/// path it steps one model per entry of `cfgs` even where two share
/// their timing ([`CoreConfig::same_timing`]), with identical results;
/// the benchmark's traced pass times its own per-model copy against
/// this form. Returns one [`Measurement`] per entry of `cfgs`, in
/// order.
pub fn measure_recorded(
    rec: &mut GroupRecording,
    cfgs: &[CoreConfig],
    width_factor: f64,
) -> Vec<Measurement> {
    let mut cores = MultiCore::new(cfgs);
    warm_by_replay(rec, &mut cores);
    let sims = step_timed(&mut cores, |f| rec.replay_batches(f), |_| {});
    with_energy(&rec.data, rec.work_ops, cfgs, sims, width_factor)
}

/// Measure one configuration of a kernel: record it once with no
/// store, warming one core model live while it records, then replay
/// the recording once, timed. The single-point convenience form;
/// whole plans go through [`crate::campaign::Campaign::execute`].
pub fn measure(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    cfg: &CoreConfig,
    scale: Scale,
    seed: u64,
) -> Measurement {
    let (rec, cores) = record_warmed(kernel, imp, w, scale, seed, None, std::slice::from_ref(cfg));
    measure_warmed(rec, cores, width_factor(imp, w))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AutoOutcome, KernelMeta, Library, Runnable};
    use swan_simd::trace::next_value_id;
    use swan_simd::{VecSink, Vreg};

    const OVERHEAD_RUN: u64 = DEFAULT_BATCH_INSTRS as u64 + 1000;

    /// One 16-byte load into line-crossing slot `i`.
    fn load(sink: &mut impl TraceSink, i: u64, id: &mut u32) {
        sink.on_instr(&TraceInstr {
            op: Op::VLd1,
            class: Class::VLoad,
            dst: *id,
            srcs: [0; 4],
            nsrc: 0,
            mem: Some(MemRef {
                addr: 0x1000 + i * 72,
                bytes: 16,
            }),
        });
        *id = next_value_id(*id);
    }

    /// Feed a hand-built stream into `sink`: a sweep of loads, one
    /// overhead run longer than the default batch, then the sweep
    /// backwards.
    fn feed(sink: &mut impl TraceSink) {
        let mut id = 1u32;
        for i in 0..3000 {
            load(sink, i, &mut id);
        }
        sink.on_overhead(Op::SAlu, Class::SInt, id, OVERHEAD_RUN);
        id = trace::advance_value_id(id, OVERHEAD_RUN);
        for i in (0..3000).rev() {
            load(sink, i, &mut id);
        }
    }

    fn cfgs() -> Vec<CoreConfig> {
        vec![CoreConfig::prime(), CoreConfig::silver()]
    }

    /// Warm through a sink cutting batches of `cap` instructions, then
    /// time the stream again through a timed sink cutting the same
    /// batches.
    fn warmed_then_timed(cap: usize) -> (Vec<SimResult>, u64) {
        let cores = MultiCore::new(&cfgs());
        let mut sink = WarmingSink::with_batch(VecSink::default(), cores, cap, Phase::Warm);
        feed(&mut sink);
        let (vec, cores) = sink.finish();
        let stats = cores.batch_stats();
        let warmed = stats.warm_instrs;
        assert_eq!(warmed, vec.instrs.len() as u64, "every instruction warms");
        assert_eq!(
            stats.warm_batches,
            warmed.div_ceil(cap as u64),
            "batches cut where a replay would cut them"
        );
        let mut sink = TimedSink::with_batch(VecSink::default(), cores, cap);
        feed(&mut sink);
        let (seen, mut cores) = sink.finish();
        assert!(seen.instrs == vec.instrs, "the observer sees the stream");
        let stats = cores.batch_stats();
        assert_eq!(stats.timed_instrs, warmed, "every instruction is timed");
        assert_eq!(stats.timed_batches, warmed.div_ceil(cap as u64));
        (cores.finalize(), warmed)
    }

    #[test]
    fn warming_and_timed_sink_batch_sizes_never_change_results() {
        let (reference, n) = warmed_then_timed(DEFAULT_BATCH_INSTRS);
        assert_eq!(n, 6000 + OVERHEAD_RUN);
        for cap in [1, 7] {
            assert_eq!(warmed_then_timed(cap).0, reference, "batch size {cap}");
        }
        // The whole stream as one warm batch: what a replay of the
        // recording would warm with.
        let mut vec = VecSink::default();
        feed(&mut vec);
        let mut cores = MultiCore::new(&cfgs());
        cores.begin_warm();
        cores.warm_batch(&vec.instrs);
        cores.begin_timed();
        cores.step_batch(&vec.instrs);
        assert_eq!(cores.finalize(), reference);
        // Warming matters on this stream, so the equalities above are
        // not vacuous.
        let mut cold = MultiCore::new(&cfgs());
        cold.begin_timed();
        cold.step_batch(&vec.instrs);
        assert_ne!(cold.finalize(), reference);
    }

    /// Sums one line in four of a buffer twice the size of Prime's
    /// LLC, twice: independent loads that all miss, so a smaller
    /// reorder buffer keeps fewer in flight and changes the timing.
    struct Sweep;

    struct SweepRun(Vec<f32>);

    impl Runnable for SweepRun {
        fn run(&mut self, _imp: Impl, w: Width) {
            trace::register_slice(&self.0);
            let mut acc = Vreg::zero(w);
            for _ in 0..2 {
                for off in (0..self.0.len()).step_by(64) {
                    acc = acc.add(Vreg::load(w, &self.0, off));
                }
            }
            acc.store(&mut self.0, 0);
        }

        fn output(&self) -> Vec<f64> {
            Vec::new()
        }
    }

    impl Kernel for Sweep {
        fn meta(&self) -> KernelMeta {
            KernelMeta {
                name: "sweep",
                library: Library::XP,
                precision_bits: 32,
                is_float: true,
                auto: AutoOutcome::SameAsScalar,
                auto_stream: None,
                obstacles: &[],
                patterns: &[],
                tolerance: 0.0,
                excluded_from_eval: false,
            }
        }

        fn instantiate(&self, _scale: Scale, _seed: u64) -> Box<dyn Runnable> {
            Box::new(SweepRun(vec![1.0; 1 << 20]))
        }
    }

    #[test]
    fn shared_timing_models_measure_like_one_model_per_config() {
        let prime = CoreConfig::prime();
        let cfgs = [
            prime.clone(),
            CoreConfig {
                freq_ghz: 1.7,
                energy_scale: 0.6,
                static_watts: 0.2,
                ..prime.clone()
            },
            CoreConfig {
                rob: 64,
                ..prime.clone()
            },
            CoreConfig::silver(),
        ];
        let (imp, w, scale) = (Impl::Neon, Width::W128, Scale::test());
        let (rec, cores) = record_warmed(&Sweep, imp, w, scale, 1, None, &cfgs);
        assert_eq!(cores.shared(), 1, "only the re-clocked Prime shares");
        let shared = measure_warmed(rec, cores, 1.0);
        let mut rec = record_group(&Sweep, imp, w, scale, 1, None);
        assert_eq!(shared, measure_recorded(&mut rec, &cfgs, 1.0));
        let (live, cores) = execute_warmed(&Sweep, imp, w, scale, 1, &cfgs);
        assert_eq!(shared, measure_warmed(live, cores, 1.0), "the live path");
        // The re-clocked member keeps Prime's cycles with its own
        // seconds and energy; the rob-64 member has a model of its own.
        assert_eq!(shared[1].sim.cycles, shared[0].sim.cycles);
        assert_ne!(shared[1].sim.seconds, shared[0].sim.seconds);
        assert_ne!(shared[1].energy_j, shared[0].energy_j);
        assert_ne!(shared[2].sim.cycles, shared[0].sim.cycles);
    }
}

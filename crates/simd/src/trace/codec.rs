//! Record-once / replay-many trace codec.
//!
//! The campaign measures every scenario group (one instruction stream
//! fanned out to N cores) from a warm pass and a timed pass. Replaying
//! a *recording* of the stream instead of functionally re-executing
//! the kernel removes the second emulator run from the hottest path —
//! the paper captures each kernel's dynamic trace once and replays it
//! into every simulated core (§4.3).
//!
//! [`RecordSink`] is a [`TraceSink`] that encodes the live stream into
//! a compact binary form, held in memory as a list of fixed-budget
//! chunks split at record boundaries; [`EncodedTrace::replay_into`]
//! drives any sink back out with the *bit-identical* sequence of
//! [`TraceSink::on_instr`] / [`TraceSink::on_overhead`] calls. The
//! encoding exploits the stream's structure:
//!
//! * operation and class tags are single bytes;
//! * destination value ids are elided entirely when they follow the
//!   tracer's sequential assignment (they almost always do — including
//!   across the `u32::MAX → 1` wraparound that skips the 0 sentinel),
//!   and varint-encoded otherwise;
//! * source ids are zigzag varints of their distance to the
//!   destination id (dataflow edges point at recent producers);
//! * memory addresses are delta-encoded per *operation tag* against
//!   the previous access of that op, predicting the next sequential
//!   address. Virtualized addresses stream through the
//!   [`BufferRegistry`](super::BufferRegistry) arenas one buffer per
//!   op at a time, so the common delta is zero (one byte) and a
//!   buffer switch costs one varint — never the 60-bit arena base;
//! * loop-control overhead runs stay runs: one record replays as one
//!   [`TraceSink::on_overhead`] call, preserving the sink-visible call
//!   sequence exactly.
//!
//! The decoder reconstructs predictions from the same already-decoded
//! prefix the encoder saw, so no prediction ever needs a correction
//! channel: encode → decode is lossless for any instruction sequence
//! whose `srcs[nsrc..]` entries are zero (which the tracer guarantees;
//! see [`TraceInstr`]).
//!
//! # Chunked container (persistence)
//!
//! The same record encoding also has a *segmented* on-disk form so a
//! recording never has to be resident in one piece: [`SpillSink`]
//! seals the encode buffer into fixed-budget chunks (split only at
//! record boundaries) and spills each completed chunk through an
//! [`std::io::Write`], and [`replay_chunked`] drives any sink back out
//! from an [`std::io::Read`] with only one chunk resident — per-worker
//! recording footprint becomes O(chunk budget) instead of O(stream).
//! Every chunk carries its byte length, record/instruction counts, and
//! an FNV-1a digest of its payload; the trailer repeats the totals and
//! the running digest of the whole payload, so truncation, bit flips,
//! and stale format versions are all detected before a single record
//! reaches a sink ([`CodecError`]).

use super::{advance_value_id, next_value_id, Class, MemRef, Op, TraceInstr, TraceSink};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Record kinds (low bit of the header byte).
const KIND_INSTR: u8 = 0;
const KIND_OVERHEAD: u8 = 1;
/// Header flag: the destination id is encoded explicitly (it does not
/// equal the sequential prediction).
const F_EXPLICIT_ID: u8 = 1 << 1;
/// Header flag: the instruction carries a memory reference.
const F_MEM: u8 = 1 << 2;
/// Source count shift (3 bits: 0..=4).
const NSRC_SHIFT: u8 = 3;

/// Running totals of every finished recording in this process.
/// Campaign-level observability for the codec's memory bound — the
/// encoded footprint of a scenario group versus the `Vec<TraceInstr>`
/// it replaces, and (for spilling recorders) how much of it was ever
/// resident at once.
static RECORDED_BYTES: AtomicU64 = AtomicU64::new(0);
static RECORDED_INSTRS: AtomicU64 = AtomicU64::new(0);
static SPILLED_BYTES: AtomicU64 = AtomicU64::new(0);
static RESIDENT_PEAK: AtomicU64 = AtomicU64::new(0);

/// Gate for the codec's self-profiling segment timers below. The
/// codec sits *under* `swan_core::profile` in the dependency order, so
/// it carries its own counters; `swan_core::profile::set_enabled`
/// flips this gate alongside its own and folds [`codec_profile`] into
/// the campaign-level phase report. Off means each instrumented
/// segment costs one relaxed load and no clock read.
static PROFILING: AtomicBool = AtomicBool::new(false);
static DECODE_NS: AtomicU64 = AtomicU64::new(0);
static DECODE_SEGMENTS: AtomicU64 = AtomicU64::new(0);
static DECODE_INSTRS: AtomicU64 = AtomicU64::new(0);
static DECODE_BYTES: AtomicU64 = AtomicU64::new(0);
static SPILL_NS: AtomicU64 = AtomicU64::new(0);
static SPILL_CHUNKS: AtomicU64 = AtomicU64::new(0);
static SPILL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Switch the codec's decode/spill segment timers on or off
/// (process-wide). Normally driven by `swan_core::profile`.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether the codec segment timers are currently recording.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Accumulated decode/spill segment counters (see [`codec_profile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecProfile {
    /// Wall nanoseconds spent expanding encoded records into
    /// instruction batches — arena refills on the in-memory path;
    /// chunk read + digest verify + expand on the store path
    /// (channel hand-off waits excluded).
    pub decode_ns: u64,
    /// Timed decode segments (batch refills and chunk reads).
    pub decode_segments: u64,
    /// Instructions expanded by timed decode segments.
    pub decode_instrs: u64,
    /// Encoded bytes consumed by timed decode segments.
    pub decode_bytes: u64,
    /// Wall nanoseconds spent writing spill chunks and trailers.
    pub spill_ns: u64,
    /// Spill chunks written by timed segments.
    pub spill_chunks: u64,
    /// Payload bytes written by timed spill segments.
    pub spill_bytes: u64,
}

/// Process-wide decode/spill segment counters, populated only while
/// [`set_profiling`] is on. Monotone between [`reset_codec_profile`]
/// calls.
pub fn codec_profile() -> CodecProfile {
    CodecProfile {
        decode_ns: DECODE_NS.load(Ordering::Relaxed),
        decode_segments: DECODE_SEGMENTS.load(Ordering::Relaxed),
        decode_instrs: DECODE_INSTRS.load(Ordering::Relaxed),
        decode_bytes: DECODE_BYTES.load(Ordering::Relaxed),
        spill_ns: SPILL_NS.load(Ordering::Relaxed),
        spill_chunks: SPILL_CHUNKS.load(Ordering::Relaxed),
        spill_bytes: SPILL_BYTES.load(Ordering::Relaxed),
    }
}

/// Zero the decode/spill segment counters.
pub fn reset_codec_profile() {
    for c in [
        &DECODE_NS,
        &DECODE_SEGMENTS,
        &DECODE_INSTRS,
        &DECODE_BYTES,
        &SPILL_NS,
        &SPILL_CHUNKS,
        &SPILL_BYTES,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Segment start: a clock read only while profiling is on.
#[inline]
fn prof_now() -> Option<Instant> {
    if PROFILING.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a decode segment opened by [`prof_now`].
#[inline]
fn prof_decode(t0: Option<Instant>, instrs: u64, bytes: u64) {
    if let Some(t0) = t0 {
        DECODE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        DECODE_SEGMENTS.fetch_add(1, Ordering::Relaxed);
        DECODE_INSTRS.fetch_add(instrs, Ordering::Relaxed);
        DECODE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Close a spill segment opened by [`prof_now`].
#[inline]
fn prof_spill(t0: Option<Instant>, chunks: u64, bytes: u64) {
    if let Some(t0) = t0 {
        SPILL_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        SPILL_CHUNKS.fetch_add(chunks, Ordering::Relaxed);
        SPILL_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Process-wide codec counters (see [`recorded_totals`]). All fields
/// are monotone over the process lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordedTotals {
    /// Encoded bytes across every finished recording, in-memory
    /// ([`RecordSink`]) and spilled ([`SpillSink`]) alike.
    pub bytes: u64,
    /// Dynamic instructions across every finished recording.
    pub instrs: u64,
    /// Encoded bytes that left the process through a [`SpillSink`]'s
    /// writer instead of staying resident.
    pub spilled_bytes: u64,
    /// Largest chunk buffer any [`SpillSink`] ever held resident —
    /// the spill path's actual per-recording memory bound, O(chunk
    /// budget) by construction (in-memory [`RecordSink`]s, whose
    /// residency is the whole encoded stream by design, do not count
    /// here).
    pub resident_peak: u64,
}

/// Process-wide codec counters: encoded bytes, dynamic instructions,
/// spilled bytes, and the peak resident chunk buffer across every
/// finished recording. Monotone; used by tests and diagnostics to
/// bound the campaign's replay-buffer footprint — O(chunk budget) on
/// the spill path — against the naive materialized-trace cost.
pub fn recorded_totals() -> RecordedTotals {
    RecordedTotals {
        bytes: RECORDED_BYTES.load(Ordering::Relaxed),
        instrs: RECORDED_INSTRS.load(Ordering::Relaxed),
        spilled_bytes: SPILLED_BYTES.load(Ordering::Relaxed),
        resident_peak: RESIDENT_PEAK.load(Ordering::Relaxed),
    }
}

/// Shared encoder/decoder prediction state. Both sides advance it from
/// the records already processed, so the encoder's elisions are always
/// reconstructible.
#[derive(Debug)]
struct Pred {
    /// Next destination id the tracer would assign.
    next_id: u32,
    /// Predicted next address per operation tag: one sequential stream
    /// per op, tracking `addr + bytes` of its previous access.
    next_addr: [u64; super::OP_COUNT],
}

impl Pred {
    fn new() -> Pred {
        Pred {
            next_id: 1,
            next_addr: [0; super::OP_COUNT],
        }
    }

    /// Advance past an instruction record.
    fn after_instr(&mut self, ins: &TraceInstr) {
        self.next_id = next_value_id(ins.dst);
        if let Some(m) = ins.mem {
            self.next_addr[ins.op as usize] = m.addr.wrapping_add(m.bytes as u64);
        }
    }

    /// Advance past an overhead record. Mirrors the tracer's id
    /// bookkeeping for real streams (`first_id >= 1`); for arbitrary
    /// sink input with `first_id == 0` the prediction simply stays put
    /// (predictions affect compactness, never correctness).
    fn after_overhead(&mut self, first_id: u32, n: u64) {
        if first_id != 0 {
            self.next_id = advance_value_id(first_id, n);
        }
    }
}

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

#[inline]
fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn get_zigzag(buf: &[u8], pos: &mut usize) -> i64 {
    let v = get_varint(buf, pos);
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one instruction record into `buf`, advancing `pred` exactly
/// as the decoder will. The shared encode core of [`RecordSink`] and
/// [`SpillSink`].
fn encode_instr(buf: &mut Vec<u8>, pred: &mut Pred, ins: &TraceInstr) {
    debug_assert!(
        ins.srcs[ins.nsrc as usize..].iter().all(|&s| s == 0),
        "sources beyond nsrc must be zero (tracer invariant)"
    );
    let nsrc = ins.nsrc.min(4);
    let mut header = KIND_INSTR | (nsrc << NSRC_SHIFT);
    let explicit = ins.dst != pred.next_id;
    if explicit {
        header |= F_EXPLICIT_ID;
    }
    if ins.mem.is_some() {
        header |= F_MEM;
    }
    buf.push(header);
    buf.push(ins.op as u8);
    buf.push(ins.class as u8);
    if explicit {
        put_varint(buf, ins.dst as u64);
    }
    for &s in &ins.srcs[..nsrc as usize] {
        put_zigzag(buf, (ins.dst as i64).wrapping_sub(s as i64));
    }
    if let Some(m) = ins.mem {
        let predicted = pred.next_addr[ins.op as usize];
        put_zigzag(buf, m.addr.wrapping_sub(predicted) as i64);
        put_varint(buf, m.bytes as u64);
    }
    pred.after_instr(ins);
}

/// Encode one overhead-run record into `buf`, advancing `pred`.
fn encode_overhead(
    buf: &mut Vec<u8>,
    pred: &mut Pred,
    op: Op,
    class: Class,
    first_id: u32,
    n: u64,
) {
    let mut header = KIND_OVERHEAD;
    let explicit = first_id != pred.next_id;
    if explicit {
        header |= F_EXPLICIT_ID;
    }
    buf.push(header);
    buf.push(op as u8);
    buf.push(class as u8);
    if explicit {
        put_varint(buf, first_id as u64);
    }
    put_varint(buf, n);
    pred.after_overhead(first_id, n);
}

/// One parsed record, before it is handed to a consumer: either a
/// single instruction or an overhead run still in its compact form.
enum Rec {
    Instr(TraceInstr),
    Run {
        op: Op,
        class: Class,
        first_id: u32,
        n: u64,
    },
}

/// Parse the record at `pos`, advancing `pred`. The shared decode core
/// of the sink path ([`decode_record`]) and the batch path
/// ([`BatchFill`]); `buf` must hold whole records (all producers split
/// only at record boundaries).
fn parse_record(buf: &[u8], pos: &mut usize, pred: &mut Pred) -> Rec {
    let header = buf[*pos];
    *pos += 1;
    let op = Op::ALL[buf[*pos] as usize];
    *pos += 1;
    let class = Class::ALL[buf[*pos] as usize];
    *pos += 1;
    if header & 1 == KIND_OVERHEAD {
        let first_id = if header & F_EXPLICIT_ID != 0 {
            get_varint(buf, pos) as u32
        } else {
            pred.next_id
        };
        let n = get_varint(buf, pos);
        pred.after_overhead(first_id, n);
        return Rec::Run {
            op,
            class,
            first_id,
            n,
        };
    }
    let dst = if header & F_EXPLICIT_ID != 0 {
        get_varint(buf, pos) as u32
    } else {
        pred.next_id
    };
    let nsrc = (header >> NSRC_SHIFT) & 0x7;
    let mut srcs = [0u32; 4];
    for s in srcs.iter_mut().take(nsrc as usize) {
        *s = (dst as i64).wrapping_sub(get_zigzag(buf, pos)) as u32;
    }
    let mem = if header & F_MEM != 0 {
        let delta = get_zigzag(buf, pos);
        let addr = pred.next_addr[op as usize].wrapping_add(delta as u64);
        let bytes = get_varint(buf, pos) as u32;
        Some(MemRef { addr, bytes })
    } else {
        None
    };
    let ins = TraceInstr {
        op,
        class,
        dst,
        srcs,
        nsrc,
        mem,
    };
    pred.after_instr(&ins);
    Rec::Instr(ins)
}

/// Decode the record at `pos`, drive it into `sink`, and return the
/// number of dynamic instructions it carried (1 for an instruction,
/// the run length for an overhead record). The sink-path dispatch over
/// [`parse_record`], shared by [`EncodedTrace::replay_into`] and
/// [`replay_chunked`].
fn decode_record(buf: &[u8], pos: &mut usize, pred: &mut Pred, sink: &mut dyn TraceSink) -> u64 {
    match parse_record(buf, pos, pred) {
        Rec::Instr(ins) => {
            sink.on_instr(&ins);
            1
        }
        Rec::Run {
            op,
            class,
            first_id,
            n,
        } => {
            sink.on_overhead(op, class, first_id, n);
            n
        }
    }
}

// =====================================================================
// Batch decode
// =====================================================================

/// Default capacity of a [`DecodedBatch`] arena in instructions. Large
/// enough to amortize the per-batch consumer call to nothing, small
/// enough (~320 KiB of `TraceInstr`) to stay cache- and
/// memory-friendly even with two arenas in flight.
pub const DEFAULT_BATCH_INSTRS: usize = 8 * 1024;

/// A reusable arena of decoded instructions — the batch replay path's
/// alternative to pushing every instruction through a
/// `&mut dyn TraceSink` virtual call. Overhead runs arrive *expanded*,
/// exactly as the default [`TraceSink::on_overhead`] would expand
/// them, so a batch consumer sees the identical instruction sequence a
/// sink-path consumer without an `on_overhead` override sees.
#[derive(Debug)]
pub struct DecodedBatch {
    instrs: Vec<TraceInstr>,
    cap: usize,
}

impl DecodedBatch {
    /// An empty arena that fills up to `cap` instructions per batch
    /// (at least 1).
    pub fn with_capacity(cap: usize) -> DecodedBatch {
        let cap = cap.max(1);
        DecodedBatch {
            instrs: Vec::with_capacity(cap),
            cap,
        }
    }

    /// The decoded instructions currently in the arena.
    pub fn instrs(&self) -> &[TraceInstr] {
        &self.instrs
    }

    /// Whether the arena holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Whether the arena reached its per-batch capacity.
    fn is_full(&self) -> bool {
        self.instrs.len() >= self.cap
    }

    /// Drop the instructions, keeping the allocation.
    fn clear(&mut self) {
        self.instrs.clear();
    }
}

/// Streaming decoder state for the batch path: the codec prediction
/// state plus the unexpanded remainder of an overhead run, so runs of
/// any length (they exceed `u32::MAX` in adversarial streams) expand
/// incrementally across batches with bounded memory.
struct BatchFill {
    pred: Pred,
    run_op: Op,
    run_class: Class,
    run_id: u32,
    run_left: u64,
}

impl BatchFill {
    fn new() -> BatchFill {
        BatchFill {
            pred: Pred::new(),
            run_op: Op::SAlu,
            run_class: Class::SInt,
            run_id: 0,
            run_left: 0,
        }
    }

    /// Expand the pending overhead run into `batch` until the batch is
    /// full or the run is exhausted. The expansion shape — zero
    /// sources, no memory reference, sequential destination ids — is
    /// exactly the default [`TraceSink::on_overhead`] expansion.
    fn drain_run(&mut self, batch: &mut DecodedBatch) {
        while self.run_left > 0 && !batch.is_full() {
            batch.instrs.push(TraceInstr {
                op: self.run_op,
                class: self.run_class,
                dst: self.run_id,
                srcs: [0; 4],
                nsrc: 0,
                mem: None,
            });
            self.run_id = next_value_id(self.run_id);
            self.run_left -= 1;
        }
    }

    /// Decode records from `buf[*pos..]` into `batch` until the batch
    /// is full or the buffer is exhausted (whole records only; a run
    /// that overflows the batch is held as pending state). Returns the
    /// `(records, instrs)` consumed *from the buffer* — instruction
    /// counts accrue when a record is parsed, matching the sink path's
    /// per-chunk accounting even when the expansion spills into later
    /// batches.
    fn fill(&mut self, buf: &[u8], pos: &mut usize, batch: &mut DecodedBatch) -> (u64, u64) {
        let mut records = 0u64;
        let mut instrs = 0u64;
        self.drain_run(batch);
        while !batch.is_full() && *pos < buf.len() {
            match parse_record(buf, pos, &mut self.pred) {
                Rec::Instr(ins) => {
                    batch.instrs.push(ins);
                    instrs += 1;
                }
                Rec::Run {
                    op,
                    class,
                    first_id,
                    n,
                } => {
                    self.run_op = op;
                    self.run_class = class;
                    self.run_id = first_id;
                    self.run_left = n;
                    instrs += n;
                    self.drain_run(batch);
                }
            }
            records += 1;
        }
        (records, instrs)
    }
}

/// A finished recording: the compact binary form of one dynamic
/// instruction stream, replayable any number of times. The bytes are
/// held as a list of chunks of about [`DEFAULT_CHUNK_BUDGET`] bytes,
/// split at record boundaries exactly as [`SpillSink`] splits its
/// spilled chunks, so a long recording never needs one contiguous
/// buffer (or the copies of growing one). The prediction state runs
/// on across chunk edges: the chunking is invisible to every replay.
#[derive(Clone, Debug, Default)]
pub struct EncodedTrace {
    chunks: Vec<Vec<u8>>,
    instrs: u64,
    records: u64,
}

impl EncodedTrace {
    /// Size of the encoded buffer in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.chunk_lens().sum()
    }

    /// Total dynamic instructions in the stream (overhead runs counted
    /// at their full length).
    pub fn instr_count(&self) -> u64 {
        self.instrs
    }

    /// Encoded records (an overhead run of any length is one record).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Byte length of each in-memory chunk, in stream order. Every
    /// chunk but the last reached the recorder's budget, and none
    /// exceeds it by more than the one record that crossed it.
    pub fn chunk_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().map(Vec::len)
    }

    /// What materializing this stream as a `Vec<TraceInstr>` would
    /// cost — the footprint the codec replaces.
    pub fn naive_bytes(&self) -> u64 {
        self.instrs * std::mem::size_of::<TraceInstr>() as u64
    }

    /// Drive the recorded stream back out into `sink`, reproducing the
    /// live execution's sink calls bit-identically: the same
    /// [`TraceSink::on_instr`] instructions (every field, memory
    /// addresses included) and the same [`TraceSink::on_overhead`]
    /// runs, in the same order.
    pub fn replay_into(&self, sink: &mut dyn TraceSink) {
        let mut pred = Pred::new();
        for chunk in &self.chunks {
            let mut pos = 0usize;
            while pos < chunk.len() {
                decode_record(chunk, &mut pos, &mut pred, sink);
            }
        }
    }

    /// Drive the recorded stream out as [`DecodedBatch`]-sized slices
    /// of expanded instructions — the monomorphic fast path for
    /// consumers that step every instruction anyway (core models).
    /// The concatenated batches equal what a sink without an
    /// `on_overhead` override would receive from
    /// [`EncodedTrace::replay_into`], instruction for instruction.
    pub fn replay_batches(&self, consume: impl FnMut(&[TraceInstr])) {
        self.replay_batches_with(DEFAULT_BATCH_INSTRS, consume)
    }

    /// [`EncodedTrace::replay_batches`] with an explicit per-batch
    /// instruction capacity (tests use tiny capacities to exercise
    /// batch boundaries). One decoder state walks every chunk, so
    /// batches (and overhead runs) span chunk edges freely and only
    /// the final batch may be partial.
    pub fn replay_batches_with(&self, cap: usize, consume: impl FnMut(&[TraceInstr])) {
        chunk_batches(self.chunks.iter(), cap, consume)
    }

    /// [`EncodedTrace::replay_batches`] for a recording's last replay:
    /// each chunk is freed as soon as it is decoded, so the recording's
    /// resident size falls to zero as the replay proceeds. The batches
    /// are identical.
    pub fn into_batches(self, consume: impl FnMut(&[TraceInstr])) {
        chunk_batches(self.chunks.into_iter(), DEFAULT_BATCH_INSTRS, consume)
    }

    /// Write this recording in the segmented container form: the same
    /// record bytes re-chunked at `budget`-byte boundaries through a
    /// fresh [`SpillSink`]. `replay_chunked` of the result is
    /// bit-identical to [`EncodedTrace::replay_into`].
    pub fn write_chunked<W: Write + 'static>(
        &self,
        budget: usize,
        writer: W,
    ) -> io::Result<(ChunkedSummary, W)> {
        let mut spill = SpillSink::new(writer, budget);
        self.replay_into(&mut spill);
        spill.finish()
    }
}

/// Decode a list of in-memory chunks into [`DecodedBatch`]-sized
/// slices of `cap` instructions: the loop behind
/// [`EncodedTrace::replay_batches_with`] (borrowed chunks) and
/// [`EncodedTrace::into_batches`] (owned chunks, each dropped when the
/// next one is taken).
fn chunk_batches<C: AsRef<[u8]>>(
    mut chunks: impl Iterator<Item = C>,
    cap: usize,
    mut consume: impl FnMut(&[TraceInstr]),
) {
    let mut fill = BatchFill::new();
    let mut batch = DecodedBatch::with_capacity(cap);
    let mut chunk: Option<C> = None;
    let mut pos = 0usize;
    loop {
        batch.clear();
        let t0 = prof_now();
        let mut bytes = 0usize;
        loop {
            let pos0 = pos;
            let buf = chunk.as_ref().map_or(&[][..], AsRef::as_ref);
            fill.fill(buf, &mut pos, &mut batch);
            bytes += pos - pos0;
            if batch.is_full() {
                break;
            }
            // The chunk is exhausted and any pending run expanded:
            // keep filling from the next chunk.
            match chunks.next() {
                Some(next) => {
                    chunk = Some(next);
                    pos = 0;
                }
                None => break,
            }
        }
        prof_decode(t0, batch.instrs().len() as u64, bytes as u64);
        if batch.is_empty() {
            return;
        }
        consume(batch.instrs());
    }
}

/// Longest record the encoder can emit: three tag bytes, an explicit
/// 32-bit id, four 64-bit source deltas, a 64-bit address delta and a
/// 32-bit access size, all as varints. A fresh chunk reserves the
/// budget plus this much, so the record that crosses the budget never
/// reallocates it.
const MAX_RECORD_BYTES: usize = 3 + 5 + 4 * 10 + 10 + 5;

/// A [`TraceSink`] that encodes the stream it receives. Install it
/// under a trace session (or tee into it from another sink), then call
/// [`RecordSink::finish`] to obtain the replayable [`EncodedTrace`].
///
/// The encoding accumulates in fixed-budget chunks (see
/// [`EncodedTrace`]): a chunk is sealed at the first record boundary
/// at or past the budget and a new one started, so a recording grows
/// by one budget-sized allocation at a time and never copies what it
/// already holds.
#[derive(Debug)]
pub struct RecordSink {
    chunks: Vec<Vec<u8>>,
    buf: Vec<u8>,
    budget: usize,
    instrs: u64,
    records: u64,
    pred: Pred,
}

impl Default for RecordSink {
    fn default() -> RecordSink {
        RecordSink::new()
    }
}

impl RecordSink {
    /// An empty recording with [`DEFAULT_CHUNK_BUDGET`]-byte chunks.
    pub fn new() -> RecordSink {
        RecordSink::with_chunk_budget(DEFAULT_CHUNK_BUDGET)
    }

    /// An empty recording that seals its in-memory chunks at `budget`
    /// bytes (clamped to `1..=`[`MAX_CHUNK_BYTES`]). The chunking never
    /// changes the encoded bytes or any replay; tests use tiny budgets
    /// to put many chunk edges into short streams.
    pub fn with_chunk_budget(budget: usize) -> RecordSink {
        RecordSink {
            chunks: Vec::new(),
            buf: Vec::new(),
            budget: budget.clamp(1, MAX_CHUNK_BYTES),
            instrs: 0,
            records: 0,
            pred: Pred::new(),
        }
    }

    /// Bytes encoded so far.
    pub fn encoded_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum::<usize>() + self.buf.len()
    }

    /// Move the open chunk, trimmed to its length, onto the list.
    fn seal(&mut self) {
        let mut full = std::mem::take(&mut self.buf);
        full.shrink_to_fit();
        self.chunks.push(full);
    }

    fn after_record(&mut self) {
        if self.buf.len() >= self.budget {
            self.seal();
            self.buf.reserve_exact(self.budget + MAX_RECORD_BYTES);
        }
    }

    /// Seal the recording. Updates the process-wide
    /// [`recorded_totals`] counters.
    pub fn finish(mut self) -> EncodedTrace {
        if !self.buf.is_empty() {
            self.seal();
        }
        let enc = EncodedTrace {
            chunks: self.chunks,
            instrs: self.instrs,
            records: self.records,
        };
        RECORDED_BYTES.fetch_add(enc.encoded_bytes() as u64, Ordering::Relaxed);
        RECORDED_INSTRS.fetch_add(enc.instrs, Ordering::Relaxed);
        enc
    }
}

impl TraceSink for RecordSink {
    fn on_instr(&mut self, ins: &TraceInstr) {
        encode_instr(&mut self.buf, &mut self.pred, ins);
        self.instrs += 1;
        self.records += 1;
        self.after_record();
    }

    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        encode_overhead(&mut self.buf, &mut self.pred, op, class, first_id, n);
        self.instrs += n;
        self.records += 1;
        self.after_record();
    }
}

// =====================================================================
// Chunked container
// =====================================================================

/// Version of the chunked container format. Bump on any change to the
/// record encoding or the container layout: decoders refuse other
/// versions ([`CodecError::Version`]), which is what invalidates
/// persisted trace-store entries across codec changes.
pub const CHUNK_FORMAT_VERSION: u32 = 1;

/// Container magic: "SWan Trace Chunks".
const CHUNK_MAGIC: [u8; 4] = *b"SWTC";
/// Record-stream tag bytes. Deliberately far apart in Hamming distance
/// so a low-order bit flip cannot turn one into the other.
const TAG_CHUNK: u8 = 0xC5;
const TAG_TRAILER: u8 = 0x3A;

/// Default chunk budget in bytes. At the codec's ~4-5 bytes per
/// instruction one chunk holds roughly 13-16 k instructions — small
/// enough that a worker's resident recording state is negligible,
/// large enough that chunk framing overhead disappears.
pub const DEFAULT_CHUNK_BUDGET: usize = 64 * 1024;

/// Hard ceiling on one chunk's payload. [`SpillSink`] clamps its
/// budget to this, and the decoder refuses larger declared lengths
/// *before* allocating — so a corrupted length varint in a damaged
/// stream yields a clean [`CodecError`] (→ the store's
/// delete-and-re-record fallback) instead of an unbounded allocation.
pub const MAX_CHUNK_BYTES: usize = 64 << 20;

/// FNV-1a offset basis (the running payload digest starts here).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a digest.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Shape of a finished chunked stream: what the trailer records, what
/// the decoder verifies, and what both sides hand back to callers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkedSummary {
    /// Number of chunks written.
    pub chunks: u64,
    /// Encoded records across all chunks.
    pub records: u64,
    /// Dynamic instructions across all chunks (overhead runs counted
    /// at their full length).
    pub instrs: u64,
    /// Payload bytes across all chunks (excluding container framing).
    pub payload_bytes: u64,
    /// FNV-1a digest of the concatenated chunk payloads.
    pub digest: u64,
}

/// Why a chunked stream failed to decode. Every variant means the
/// bytes must not be trusted: callers fall back to re-recording (the
/// trace store deletes the entry and records a replacement).
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader failed (includes truncation inside a
    /// fixed-size field or chunk payload).
    Io(io::Error),
    /// The stream does not start with the container magic.
    BadMagic,
    /// The stream was written by a different codec format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this decoder speaks ([`CHUNK_FORMAT_VERSION`]).
        expected: u32,
    },
    /// A record-stream tag byte was neither chunk nor trailer.
    BadTag(u8),
    /// A chunk's payload digest did not match its header (bit flip or
    /// in-place tampering), or its decoded record/instruction counts
    /// disagreed with its header.
    Chunk {
        /// Zero-based index of the failing chunk.
        chunk: u64,
        /// What mismatched.
        what: &'static str,
    },
    /// The stream ended without a trailer (truncated at a chunk
    /// boundary), or the trailer's totals/digest did not match the
    /// chunks actually read.
    Trailer(&'static str),
    /// Bytes followed the trailer.
    TrailingData,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "chunked trace read failed: {e}"),
            CodecError::BadMagic => write!(f, "not a chunked trace (bad magic)"),
            CodecError::Version { found, expected } => {
                write!(
                    f,
                    "chunked trace format version {found} (expected {expected})"
                )
            }
            CodecError::BadTag(t) => write!(f, "unknown record-stream tag {t:#04x}"),
            CodecError::Chunk { chunk, what } => write!(f, "chunk {chunk}: {what} mismatch"),
            CodecError::Trailer(what) => write!(f, "trailer: {what}"),
            CodecError::TrailingData => write!(f, "trailing bytes after the trailer"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> CodecError {
        CodecError::Io(e)
    }
}

/// A [`TraceSink`] that encodes the stream it receives and spills
/// completed fixed-budget chunks through an [`std::io::Write`], so the
/// resident recording state is one chunk buffer — O(chunk budget) —
/// no matter how long the stream runs. Chunks split only at record
/// boundaries (the buffer may briefly exceed the budget by one
/// record's bytes before sealing).
///
/// Writer errors cannot surface through the sink interface, so they
/// are held and returned by [`SpillSink::finish`]; once a write has
/// failed the sink stops encoding (the recording is lost either way).
#[derive(Debug)]
pub struct SpillSink<W: Write> {
    writer: W,
    budget: usize,
    buf: Vec<u8>,
    pred: Pred,
    chunk_records: u64,
    chunk_instrs: u64,
    summary: ChunkedSummary,
    resident_peak: usize,
    header_written: bool,
    err: Option<io::Error>,
}

impl<W: Write> SpillSink<W> {
    /// A spilling recorder writing chunks of (about) `budget` bytes
    /// into `writer` (see [`DEFAULT_CHUNK_BUDGET`]; clamped to
    /// `1..=`[`MAX_CHUNK_BYTES`]). The container header is written
    /// lazily with the first bytes.
    pub fn new(writer: W, budget: usize) -> SpillSink<W> {
        SpillSink {
            writer,
            budget: budget.clamp(1, MAX_CHUNK_BYTES),
            buf: Vec::new(),
            pred: Pred::new(),
            chunk_records: 0,
            chunk_instrs: 0,
            summary: ChunkedSummary {
                digest: FNV_OFFSET,
                ..ChunkedSummary::default()
            },
            resident_peak: 0,
            header_written: false,
            err: None,
        }
    }

    /// Largest chunk buffer this sink has held resident so far.
    pub fn resident_peak(&self) -> usize {
        self.resident_peak
    }

    fn try_io(&mut self, f: impl FnOnce(&mut W) -> io::Result<()>) {
        if self.err.is_none() {
            if let Err(e) = f(&mut self.writer) {
                self.err = Some(e);
            }
        }
    }

    /// Seal the current buffer as one chunk and spill it.
    fn flush_chunk(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let t0 = prof_now();
        let payload_len = self.buf.len() as u64;
        if !self.header_written {
            self.header_written = true;
            self.try_io(|w| {
                w.write_all(&CHUNK_MAGIC)?;
                w.write_all(&CHUNK_FORMAT_VERSION.to_le_bytes())
            });
        }
        let digest = fnv1a(FNV_OFFSET, &self.buf);
        let mut frame = Vec::with_capacity(40);
        frame.push(TAG_CHUNK);
        put_varint(&mut frame, self.buf.len() as u64);
        put_varint(&mut frame, self.chunk_records);
        put_varint(&mut frame, self.chunk_instrs);
        frame.extend_from_slice(&digest.to_le_bytes());
        let payload = std::mem::take(&mut self.buf);
        self.try_io(|w| {
            w.write_all(&frame)?;
            w.write_all(&payload)
        });
        self.buf = payload;
        self.summary.chunks += 1;
        self.summary.records += self.chunk_records;
        self.summary.instrs += self.chunk_instrs;
        self.summary.payload_bytes += self.buf.len() as u64;
        self.summary.digest = fnv1a(self.summary.digest, &self.buf);
        self.buf.clear();
        self.chunk_records = 0;
        self.chunk_instrs = 0;
        prof_spill(t0, 1, payload_len);
    }

    fn after_record(&mut self) {
        self.resident_peak = self.resident_peak.max(self.buf.len());
        if self.buf.len() >= self.budget {
            self.flush_chunk();
        }
    }

    /// Seal the final chunk, write the trailer, flush the writer, and
    /// return the stream summary together with the writer. Updates the
    /// process-wide [`recorded_totals`] counters (spill path).
    pub fn finish(mut self) -> io::Result<(ChunkedSummary, W)> {
        self.flush_chunk();
        let t0 = prof_now();
        if !self.header_written {
            // Empty stream: still a well-formed container.
            self.header_written = true;
            self.try_io(|w| {
                w.write_all(&CHUNK_MAGIC)?;
                w.write_all(&CHUNK_FORMAT_VERSION.to_le_bytes())
            });
        }
        let mut frame = Vec::with_capacity(40);
        frame.push(TAG_TRAILER);
        put_varint(&mut frame, self.summary.chunks);
        put_varint(&mut frame, self.summary.records);
        put_varint(&mut frame, self.summary.instrs);
        frame.extend_from_slice(&self.summary.digest.to_le_bytes());
        self.try_io(|w| {
            w.write_all(&frame)?;
            w.flush()
        });
        prof_spill(t0, 0, frame.len() as u64);
        if let Some(e) = self.err {
            return Err(e);
        }
        RECORDED_BYTES.fetch_add(self.summary.payload_bytes, Ordering::Relaxed);
        RECORDED_INSTRS.fetch_add(self.summary.instrs, Ordering::Relaxed);
        SPILLED_BYTES.fetch_add(self.summary.payload_bytes, Ordering::Relaxed);
        RESIDENT_PEAK.fetch_max(self.resident_peak as u64, Ordering::Relaxed);
        Ok((self.summary, self.writer))
    }
}

impl<W: Write + 'static> TraceSink for SpillSink<W> {
    fn on_instr(&mut self, ins: &TraceInstr) {
        if self.err.is_some() {
            return;
        }
        encode_instr(&mut self.buf, &mut self.pred, ins);
        self.chunk_instrs += 1;
        self.chunk_records += 1;
        self.after_record();
    }

    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        if self.err.is_some() {
            return;
        }
        encode_overhead(&mut self.buf, &mut self.pred, op, class, first_id, n);
        self.chunk_instrs += n;
        self.chunk_records += 1;
        self.after_record();
    }
}

/// Read exactly `n` bytes into `buf` (resized), mapping EOF to
/// [`CodecError::Io`] with `UnexpectedEof` — a truncated stream.
fn read_payload(r: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> Result<(), CodecError> {
    buf.resize(n, 0);
    r.read_exact(buf)?;
    Ok(())
}

/// Read one varint from a byte-at-a-time reader.
fn read_varint(r: &mut impl Read) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Trailer("varint overflow"));
        }
    }
}

/// Replay a chunked stream from `reader` into `sink` with only one
/// chunk resident, verifying every chunk digest and the trailer before
/// trusting a byte: records reach the sink only from chunks whose
/// payload digest already checked out, so a corrupt stream fails
/// cleanly instead of driving garbage into a model. The sink-visible
/// call sequence is bit-identical to replaying the equivalent
/// in-memory [`EncodedTrace`].
pub fn replay_chunked<R: Read>(
    mut reader: R,
    sink: &mut dyn TraceSink,
) -> Result<ChunkedSummary, CodecError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != CHUNK_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut ver = [0u8; 4];
    reader.read_exact(&mut ver)?;
    let found = u32::from_le_bytes(ver);
    if found != CHUNK_FORMAT_VERSION {
        return Err(CodecError::Version {
            found,
            expected: CHUNK_FORMAT_VERSION,
        });
    }
    let mut pred = Pred::new();
    let mut seen = ChunkedSummary {
        digest: FNV_OFFSET,
        ..ChunkedSummary::default()
    };
    let mut payload = Vec::new();
    loop {
        let mut tag = [0u8; 1];
        if let Err(e) = reader.read_exact(&mut tag) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                CodecError::Trailer("stream ended before the trailer")
            } else {
                CodecError::Io(e)
            });
        }
        match tag[0] {
            TAG_CHUNK => {
                let len = read_varint(&mut reader)?;
                // Reject before allocating: the encoder can overshoot
                // its (clamped) budget by at most one record, so any
                // larger declared length is corruption.
                if len > (MAX_CHUNK_BYTES + 1024) as u64 {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "payload length",
                    });
                }
                let len = len as usize;
                let records = read_varint(&mut reader)?;
                let instrs = read_varint(&mut reader)?;
                let mut digest = [0u8; 8];
                reader.read_exact(&mut digest)?;
                read_payload(&mut reader, &mut payload, len)?;
                if fnv1a(FNV_OFFSET, &payload) != u64::from_le_bytes(digest) {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "payload digest",
                    });
                }
                let mut pos = 0usize;
                let mut got_records = 0u64;
                let mut got_instrs = 0u64;
                while pos < payload.len() {
                    got_instrs += decode_record(&payload, &mut pos, &mut pred, sink);
                    got_records += 1;
                }
                if got_records != records || got_instrs != instrs {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "record/instruction count",
                    });
                }
                seen.chunks += 1;
                seen.records += records;
                seen.instrs += instrs;
                seen.payload_bytes += len as u64;
                seen.digest = fnv1a(seen.digest, &payload);
            }
            TAG_TRAILER => {
                let chunks = read_varint(&mut reader)?;
                let records = read_varint(&mut reader)?;
                let instrs = read_varint(&mut reader)?;
                let mut digest = [0u8; 8];
                reader.read_exact(&mut digest)?;
                if chunks != seen.chunks || records != seen.records || instrs != seen.instrs {
                    return Err(CodecError::Trailer("totals"));
                }
                if u64::from_le_bytes(digest) != seen.digest {
                    return Err(CodecError::Trailer("stream digest"));
                }
                let mut extra = [0u8; 1];
                return match reader.read_exact(&mut extra) {
                    Ok(()) => Err(CodecError::TrailingData),
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(seen),
                    Err(e) => Err(CodecError::Io(e)),
                };
            }
            t => return Err(CodecError::BadTag(t)),
        }
    }
}

/// Replay a chunked stream as expanded instruction batches, decoding
/// chunk `k+1` on a second thread while the caller consumes chunk `k`
/// — store I/O, digest verification, and record decode overlap the
/// consumer's (model) time. Degrades gracefully to interleaved
/// execution on a single hardware thread. Verification is identical
/// to [`replay_chunked`]: instructions reach the consumer only from
/// chunks whose payload digest already checked out, and the trailer's
/// totals and stream digest are enforced. The concatenated batches
/// equal what a sink without an `on_overhead` override receives from
/// [`replay_chunked`], instruction for instruction.
pub fn replay_chunked_batches<R: Read + Send>(
    reader: R,
    consume: impl FnMut(&[TraceInstr]),
) -> Result<ChunkedSummary, CodecError> {
    replay_chunked_batches_with(reader, DEFAULT_BATCH_INSTRS, consume)
}

/// [`replay_chunked_batches`] with an explicit per-batch instruction
/// capacity (tests use tiny capacities to exercise batch and chunk
/// boundary interleavings).
pub fn replay_chunked_batches_with<R: Read + Send>(
    reader: R,
    cap: usize,
    mut consume: impl FnMut(&[TraceInstr]),
) -> Result<ChunkedSummary, CodecError> {
    use std::sync::mpsc;
    std::thread::scope(|scope| {
        // Two arenas in flight plus one resident with the decoder:
        // the decoder refills one batch while the consumer drains
        // another, and neither ever blocks on a well-paced peer.
        let (full_tx, full_rx) = mpsc::sync_channel::<DecodedBatch>(2);
        let (free_tx, free_rx) = mpsc::channel::<DecodedBatch>();
        for _ in 0..3 {
            free_tx
                .send(DecodedBatch::with_capacity(cap))
                .expect("free channel open at seed time");
        }
        let decoder = scope.spawn(move || decode_chunked_into_batches(reader, full_tx, free_rx));
        while let Ok(batch) = full_rx.recv() {
            consume(batch.instrs());
            // A send failure means the decoder bailed on an error; the
            // channel then drains and `recv` ends the loop.
            let _ = free_tx.send(batch);
        }
        drop(free_tx);
        decoder.join().expect("chunk decoder thread panicked")
    })
}

/// The consumer of a batch replay disappeared mid-stream — only
/// possible when its closure panicked, in which case this error is
/// discarded and the panic resurfaces from the thread scope.
fn consumer_gone() -> CodecError {
    CodecError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "batch consumer disconnected",
    ))
}

/// Decoder half of [`replay_chunked_batches`]: frame parsing, digest
/// and count verification exactly as [`replay_chunked`], with decoded
/// instructions accumulating into arenas that cycle through the
/// channel pair. Batches span chunk boundaries freely; only the final
/// batch may be partial.
fn decode_chunked_into_batches<R: Read>(
    mut reader: R,
    full_tx: std::sync::mpsc::SyncSender<DecodedBatch>,
    free_rx: std::sync::mpsc::Receiver<DecodedBatch>,
) -> Result<ChunkedSummary, CodecError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != CHUNK_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut ver = [0u8; 4];
    reader.read_exact(&mut ver)?;
    let found = u32::from_le_bytes(ver);
    if found != CHUNK_FORMAT_VERSION {
        return Err(CodecError::Version {
            found,
            expected: CHUNK_FORMAT_VERSION,
        });
    }
    let mut fill = BatchFill::new();
    let mut batch = free_rx.recv().map_err(|_| consumer_gone())?;
    batch.clear();
    let mut seen = ChunkedSummary {
        digest: FNV_OFFSET,
        ..ChunkedSummary::default()
    };
    let mut payload = Vec::new();
    loop {
        let mut tag = [0u8; 1];
        if let Err(e) = reader.read_exact(&mut tag) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                CodecError::Trailer("stream ended before the trailer")
            } else {
                CodecError::Io(e)
            });
        }
        match tag[0] {
            TAG_CHUNK => {
                // Profiled as decode segments: chunk read + digest
                // verify as one segment, then each arena refill as its
                // own — so the channel hand-off waits between refills
                // never count as decode time.
                let t_read = prof_now();
                let len = read_varint(&mut reader)?;
                if len > (MAX_CHUNK_BYTES + 1024) as u64 {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "payload length",
                    });
                }
                let len = len as usize;
                let records = read_varint(&mut reader)?;
                let instrs = read_varint(&mut reader)?;
                let mut digest = [0u8; 8];
                reader.read_exact(&mut digest)?;
                read_payload(&mut reader, &mut payload, len)?;
                if fnv1a(FNV_OFFSET, &payload) != u64::from_le_bytes(digest) {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "payload digest",
                    });
                }
                prof_decode(t_read, 0, len as u64);
                let mut pos = 0usize;
                let mut got_records = 0u64;
                let mut got_instrs = 0u64;
                loop {
                    let t_fill = prof_now();
                    let (r, i) = fill.fill(&payload, &mut pos, &mut batch);
                    prof_decode(t_fill, i, 0);
                    got_records += r;
                    got_instrs += i;
                    if !batch.is_full() {
                        // Payload exhausted and any pending run fully
                        // expanded; the partial batch keeps filling
                        // from the next chunk.
                        break;
                    }
                    full_tx.send(batch).map_err(|_| consumer_gone())?;
                    batch = free_rx.recv().map_err(|_| consumer_gone())?;
                    batch.clear();
                }
                if got_records != records || got_instrs != instrs {
                    return Err(CodecError::Chunk {
                        chunk: seen.chunks,
                        what: "record/instruction count",
                    });
                }
                seen.chunks += 1;
                seen.records += records;
                seen.instrs += instrs;
                seen.payload_bytes += len as u64;
                seen.digest = fnv1a(seen.digest, &payload);
            }
            TAG_TRAILER => {
                // Ship the final partial batch first: the sink path
                // likewise delivers every record before the trailer is
                // verified.
                if !batch.is_empty() {
                    full_tx.send(batch).map_err(|_| consumer_gone())?;
                }
                let chunks = read_varint(&mut reader)?;
                let records = read_varint(&mut reader)?;
                let instrs = read_varint(&mut reader)?;
                let mut digest = [0u8; 8];
                reader.read_exact(&mut digest)?;
                if chunks != seen.chunks || records != seen.records || instrs != seen.instrs {
                    return Err(CodecError::Trailer("totals"));
                }
                if u64::from_le_bytes(digest) != seen.digest {
                    return Err(CodecError::Trailer("stream digest"));
                }
                let mut extra = [0u8; 1];
                return match reader.read_exact(&mut extra) {
                    Ok(()) => Err(CodecError::TrailingData),
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(seen),
                    Err(e) => Err(CodecError::Io(e)),
                };
            }
            t => return Err(CodecError::BadTag(t)),
        }
    }
}

/// Record everything `f` emits while also forwarding it to `inner` —
/// the tee that lets a live execution warm a model (or feed a digest)
/// in the same pass that produces the recording.
#[derive(Debug)]
pub struct TeeRecord<S> {
    /// The recording half.
    pub record: RecordSink,
    /// The pass-through half.
    pub inner: S,
}

impl<S: TraceSink> TeeRecord<S> {
    /// Tee into `inner` while recording.
    pub fn new(inner: S) -> TeeRecord<S> {
        TeeRecord {
            record: RecordSink::new(),
            inner,
        }
    }

    /// Split back into the finished recording and the inner sink.
    pub fn finish(self) -> (EncodedTrace, S) {
        (self.record.finish(), self.inner)
    }
}

impl<S: TraceSink> TraceSink for TeeRecord<S> {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.record.on_instr(ins);
        self.inner.on_instr(ins);
    }

    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        self.record.on_overhead(op, class, first_id, n);
        self.inner.on_overhead(op, class, first_id, n);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{VecSink, OP_COUNT};
    use super::*;

    /// A sink that remembers the exact call sequence it received, so
    /// replay can be compared call for call (not just instruction for
    /// instruction).
    #[derive(Debug, Default, PartialEq)]
    struct CallLog {
        calls: Vec<Call>,
    }

    #[derive(Debug, PartialEq)]
    enum Call {
        Instr(TraceInstr),
        Overhead(Op, Class, u32, u64),
    }

    impl TraceSink for CallLog {
        fn on_instr(&mut self, ins: &TraceInstr) {
            self.calls.push(Call::Instr(*ins));
        }
        fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
            self.calls.push(Call::Overhead(op, class, first_id, n));
        }
    }

    fn roundtrip(feed: impl Fn(&mut dyn TraceSink)) -> (CallLog, CallLog, EncodedTrace) {
        let mut live = CallLog::default();
        feed(&mut live);
        let mut rec = RecordSink::new();
        feed(&mut rec);
        let enc = rec.finish();
        let mut replayed = CallLog::default();
        enc.replay_into(&mut replayed);
        (live, replayed, enc)
    }

    fn ins(op: Op, class: Class, dst: u32, srcs: &[u32], mem: Option<MemRef>) -> TraceInstr {
        let mut s = [0u32; 4];
        s[..srcs.len()].copy_from_slice(srcs);
        TraceInstr {
            op,
            class,
            dst,
            srcs: s,
            nsrc: srcs.len() as u8,
            mem,
        }
    }

    #[test]
    fn empty_recording_replays_nothing() {
        let (live, replayed, enc) = roundtrip(|_| {});
        assert_eq!(live, replayed);
        assert_eq!(enc.encoded_bytes(), 0);
        assert_eq!(enc.instr_count(), 0);
        assert_eq!(enc.naive_bytes(), 0);
    }

    #[test]
    fn sequential_stream_roundtrips_and_is_compact() {
        // A realistic loop body: sequential ids, streaming loads from
        // one buffer and stores to another, a dependent ALU op.
        let base_in = 0xF000_0000_0000_0000u64;
        let base_out = 0xF000_0400_0000_2000u64;
        let (live, replayed, enc) = roundtrip(|sink| {
            let mut id = 1u32;
            for i in 0..1000u64 {
                let ld = ins(
                    Op::VLd1,
                    Class::VLoad,
                    id,
                    &[],
                    Some(MemRef {
                        addr: base_in + i * 16,
                        bytes: 16,
                    }),
                );
                sink.on_instr(&ld);
                let alu = ins(Op::VAlu, Class::VInt, id + 1, &[id, id], None);
                sink.on_instr(&alu);
                let st = ins(
                    Op::VSt1,
                    Class::VStore,
                    id + 2,
                    &[id + 1],
                    Some(MemRef {
                        addr: base_out + i * 16,
                        bytes: 16,
                    }),
                );
                sink.on_instr(&st);
                id += 3;
            }
        });
        assert_eq!(live, replayed);
        assert_eq!(enc.instr_count(), 3000);
        // Sequential prediction: dst elided, addresses delta-0 after
        // the first touch — well under 8 bytes per instruction versus
        // the 40-byte materialized form.
        assert!(
            (enc.encoded_bytes() as u64) * 5 < enc.naive_bytes(),
            "{} bytes encoded vs {} naive",
            enc.encoded_bytes(),
            enc.naive_bytes()
        );
    }

    #[test]
    fn value_id_wraparound_is_preserved() {
        // The tracer skips the 0 sentinel on wrap: ...MAX-1, MAX, 1, 2.
        let (live, replayed, _) = roundtrip(|sink| {
            let mut id = u32::MAX - 1;
            let mut prev = 0u32;
            for _ in 0..5 {
                sink.on_instr(&ins(Op::VAlu, Class::VInt, id, &[prev], None));
                prev = id;
                id = next_value_id(id);
            }
        });
        assert_eq!(live, replayed);
        // The wrapped successor really is 1 (sentinel skipped), and the
        // sequential prediction followed it without explicit encoding.
        match &replayed.calls[2] {
            Call::Instr(i) => assert_eq!(i.dst, 1),
            c => panic!("expected instr, got {c:?}"),
        }
    }

    #[test]
    fn overhead_runs_replay_as_runs() {
        let (live, replayed, enc) = roundtrip(|sink| {
            sink.on_instr(&ins(Op::SAlu, Class::SInt, 1, &[], None));
            sink.on_overhead(Op::SBranch, Class::SInt, 2, 1_000_000);
            sink.on_instr(&ins(
                Op::SAlu,
                Class::SInt,
                advance_value_id(2, 1_000_000),
                &[],
                None,
            ));
            // A run crossing the id wraparound.
            sink.on_overhead(Op::SAlu, Class::SInt, u32::MAX - 3, 10);
        });
        assert_eq!(live, replayed);
        assert_eq!(enc.instr_count(), 2 + 1_000_000 + 10);
        assert_eq!(enc.record_count(), 4);
        assert!(matches!(
            replayed.calls[1],
            Call::Overhead(Op::SBranch, Class::SInt, 2, 1_000_000)
        ));
    }

    #[test]
    fn explicit_ids_and_zero_operands_roundtrip() {
        let (live, replayed, _) = roundtrip(|sink| {
            // Non-sequential dst, dst = 0, untracked (0) sources, and
            // sources larger than dst.
            sink.on_instr(&ins(Op::VMul, Class::VInt, 77, &[0, 200], None));
            sink.on_instr(&ins(Op::VAlu, Class::VInt, 0, &[77], None));
            sink.on_instr(&ins(Op::SAlu, Class::SInt, u32::MAX, &[1, 2, 3, 4], None));
            sink.on_overhead(Op::SAlu, Class::SInt, 0, 3);
        });
        assert_eq!(live, replayed);
    }

    #[test]
    fn max_delta_address_jumps_roundtrip() {
        // Alternating extremes through one op: deltas near ±u64::MAX,
        // plus every arena/pool region in one stream.
        let addrs = [
            0u64,
            u64::MAX,
            1,
            u64::MAX - 7,
            0xF000_0000_0000_0000, // buffer arena
            0xFFFE_0000_0000_0040, // anonymous pool
            0xFFFF_F000_0000_0010, // literal pool
            64,
        ];
        let (live, replayed, _) = roundtrip(|sink| {
            let mut id = 1;
            for &addr in &addrs {
                sink.on_instr(&ins(
                    Op::SLoad,
                    Class::SInt,
                    id,
                    &[],
                    Some(MemRef { addr, bytes: 8 }),
                ));
                sink.on_instr(&ins(
                    Op::VSt1,
                    Class::VStore,
                    id + 1,
                    &[id],
                    Some(MemRef {
                        addr: addr ^ 0x8000_0000_0000_0000,
                        bytes: 64,
                    }),
                ));
                id = next_value_id(next_value_id(id));
            }
        });
        assert_eq!(live, replayed);
    }

    #[test]
    fn every_op_and_class_roundtrips() {
        let (live, replayed, _) = roundtrip(|sink| {
            let mut id = 1;
            for (i, &op) in Op::ALL.iter().enumerate() {
                let class = Class::ALL[i % Class::ALL.len()];
                let mem = if op.is_load() || op.is_store() {
                    Some(MemRef {
                        addr: 4096 + i as u64 * 64,
                        bytes: 16,
                    })
                } else {
                    None
                };
                sink.on_instr(&ins(op, class, id, &[id.wrapping_sub(1)], mem));
                id = next_value_id(id);
            }
        });
        assert_eq!(live, replayed);
        assert!(OP_COUNT <= u8::MAX as usize, "op tags must fit one byte");
    }

    #[test]
    fn tee_records_while_forwarding() {
        let mut tee = TeeRecord::new(VecSink::default());
        let a = ins(
            Op::VLd1,
            Class::VLoad,
            1,
            &[],
            Some(MemRef {
                addr: 64,
                bytes: 16,
            }),
        );
        tee.on_instr(&a);
        tee.on_overhead(Op::SAlu, Class::SInt, 2, 5);
        let (enc, inner) = tee.finish();
        // Inner sink saw the live stream (VecSink expands overhead).
        assert_eq!(inner.instrs.len(), 6);
        assert_eq!(inner.instrs[0], a);
        // The recording replays the identical call sequence.
        let mut log = CallLog::default();
        enc.replay_into(&mut log);
        assert_eq!(log.calls.len(), 2);
        assert_eq!(log.calls[0], Call::Instr(a));
    }

    #[test]
    fn recorded_totals_are_monotone() {
        let t0 = recorded_totals();
        let mut rec = RecordSink::new();
        rec.on_instr(&ins(Op::VAlu, Class::VInt, 1, &[], None));
        let enc = rec.finish();
        let t1 = recorded_totals();
        assert!(t1.bytes >= t0.bytes + enc.encoded_bytes() as u64);
        assert!(t1.instrs > t0.instrs);
        // In-memory recordings never count as spilled.
        assert!(t1.spilled_bytes >= t0.spilled_bytes);
    }

    /// Encode a stream twice — unsegmented and chunked at `budget` —
    /// and return (unsegmented, chunked container bytes).
    fn chunked(feed: impl Fn(&mut dyn TraceSink), budget: usize) -> (EncodedTrace, Vec<u8>) {
        let mut rec = RecordSink::new();
        feed(&mut rec);
        let enc = rec.finish();
        let mut spill = SpillSink::new(Vec::new(), budget);
        feed(&mut spill);
        let (_, bytes) = spill.finish().expect("Vec writer cannot fail");
        (enc, bytes)
    }

    fn workload(sink: &mut dyn TraceSink) {
        let mut id = 1u32;
        for i in 0..500u64 {
            sink.on_instr(&ins(
                Op::VLd1,
                Class::VLoad,
                id,
                &[],
                Some(MemRef {
                    addr: 0xF000_0000_0000_0000 + i * 16,
                    bytes: 16,
                }),
            ));
            sink.on_instr(&ins(Op::VAlu, Class::VInt, id + 1, &[id], None));
            id += 2;
            if i % 64 == 0 {
                sink.on_overhead(Op::SBranch, Class::SInt, id, 3);
                id += 3;
            }
        }
    }

    #[test]
    fn chunked_replay_is_bit_identical_to_unsegmented() {
        for budget in [1usize, 7, 256, 1 << 20] {
            let (enc, bytes) = chunked(workload, budget);
            let mut from_memory = CallLog::default();
            enc.replay_into(&mut from_memory);
            let mut from_chunks = CallLog::default();
            let summary =
                replay_chunked(&bytes[..], &mut from_chunks).expect("valid stream decodes");
            assert_eq!(from_memory, from_chunks, "budget {budget}");
            assert_eq!(summary.instrs, enc.instr_count());
            assert_eq!(summary.records, enc.record_count());
            assert_eq!(summary.payload_bytes, enc.encoded_bytes() as u64);
            if budget == 1 {
                // One record per chunk at the smallest budget.
                assert_eq!(summary.chunks, enc.record_count());
            }
        }
    }

    #[test]
    fn spill_residency_is_bounded_by_the_budget() {
        let budget = 128usize;
        let mut spill = SpillSink::new(Vec::new(), budget);
        workload(&mut spill);
        let peak = spill.resident_peak();
        let (summary, bytes) = spill.finish().expect("Vec writer cannot fail");
        // The buffer may overshoot by at most one record before
        // sealing; it must never hold the stream.
        assert!(peak <= budget + 64, "peak {peak}");
        assert!((peak as u64) < summary.payload_bytes / 4);
        assert!(bytes.len() as u64 > summary.payload_bytes);
        let t = recorded_totals();
        assert!(t.spilled_bytes >= summary.payload_bytes);
        assert!(t.resident_peak >= peak as u64);
    }

    #[test]
    fn empty_chunked_stream_roundtrips() {
        let (_, bytes) = chunked(|_| {}, 64);
        let mut log = CallLog::default();
        let summary = replay_chunked(&bytes[..], &mut log).expect("empty stream is well-formed");
        assert_eq!(
            summary,
            ChunkedSummary {
                digest: FNV_OFFSET,
                ..ChunkedSummary::default()
            }
        );
        assert!(log.calls.is_empty());
    }

    #[test]
    fn chunked_decode_rejects_malformed_streams() {
        let (_, bytes) = chunked(workload, 256);
        let sink = &mut CallLog::default();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            replay_chunked(&bad[..], sink),
            Err(CodecError::BadMagic)
        ));
        // Stale format version.
        let mut bad = bytes.clone();
        bad[4] = 0xfe;
        assert!(matches!(
            replay_chunked(&bad[..], sink),
            Err(CodecError::Version { found: 0xfe, .. })
        ));
        // Truncation: anywhere strictly inside the stream.
        for cut in [8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                replay_chunked(&bytes[..cut], sink).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage after the trailer.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            replay_chunked(&bad[..], sink),
            Err(CodecError::TrailingData)
        ));
        // A flipped payload byte fails its chunk digest.
        let mut bad = bytes.clone();
        let payload_at = bad.len() - 40; // inside the last chunk
        bad[payload_at] ^= 0x01;
        assert!(replay_chunked(&bad[..], sink).is_err());
    }

    #[test]
    fn absurd_chunk_length_is_rejected_before_allocation() {
        // A hand-built stream whose first chunk declares a near-u64
        // payload length: the decoder must fail cleanly (no attempt to
        // allocate the declared size).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CHUNK_MAGIC);
        bytes.extend_from_slice(&CHUNK_FORMAT_VERSION.to_le_bytes());
        bytes.push(TAG_CHUNK);
        put_varint(&mut bytes, u64::MAX - 7);
        assert!(matches!(
            replay_chunked(&bytes[..], &mut CallLog::default()),
            Err(CodecError::Chunk {
                chunk: 0,
                what: "payload length"
            })
        ));
    }

    #[test]
    fn replay_matches_vec_sink_expansion() {
        // Replaying into a sink without an on_overhead override must
        // expand runs exactly like the live default implementation.
        let feed = |sink: &mut dyn TraceSink| {
            sink.on_instr(&ins(Op::VAlu, Class::VInt, 1, &[], None));
            sink.on_overhead(Op::SAlu, Class::SInt, 2, 7);
            sink.on_instr(&ins(Op::VMul, Class::VInt, 9, &[8], None));
        };
        let mut live = VecSink::default();
        feed(&mut live);
        let mut rec = RecordSink::new();
        feed(&mut rec);
        let mut replayed = VecSink::default();
        rec.finish().replay_into(&mut replayed);
        assert_eq!(live.instrs, replayed.instrs);
    }

    #[test]
    fn batch_replay_matches_vec_sink_expansion() {
        let mut live = VecSink::default();
        workload(&mut live);
        let mut rec = RecordSink::new();
        workload(&mut rec);
        let enc = rec.finish();
        for cap in [1usize, 3, 100, DEFAULT_BATCH_INSTRS] {
            let mut got: Vec<TraceInstr> = Vec::new();
            enc.replay_batches_with(cap, |b| {
                assert!(!b.is_empty() && b.len() <= cap);
                got.extend_from_slice(b);
            });
            assert_eq!(live.instrs, got, "cap {cap}");
        }
        // The default-capacity entry point sees the same stream.
        let mut got = Vec::new();
        enc.replay_batches(|b| got.extend_from_slice(b));
        assert_eq!(live.instrs, got);
    }

    #[test]
    fn batch_replay_expands_runs_across_batch_boundaries() {
        // Runs longer than the batch capacity, crossing the id
        // wraparound, plus the arbitrary-sink first_id == 0 case.
        let feed = |sink: &mut dyn TraceSink| {
            sink.on_instr(&ins(Op::VAlu, Class::VInt, 1, &[], None));
            sink.on_overhead(Op::SBranch, Class::SInt, u32::MAX - 5, 1000);
            sink.on_overhead(Op::SAlu, Class::SInt, 0, 3);
            sink.on_overhead(Op::SAlu, Class::SInt, 7, 0);
            sink.on_instr(&ins(Op::VMul, Class::VInt, 9, &[8], None));
        };
        let mut live = VecSink::default();
        feed(&mut live);
        let mut rec = RecordSink::new();
        feed(&mut rec);
        let enc = rec.finish();
        let mut got = Vec::new();
        enc.replay_batches_with(64, |b| got.extend_from_slice(b));
        assert_eq!(live.instrs, got);
    }

    #[test]
    fn chunked_batch_replay_is_bit_identical_to_sink_path() {
        for budget in [1usize, 7, 256, 1 << 20] {
            let (_, bytes) = chunked(workload, budget);
            let mut sink = VecSink::default();
            let s1 = replay_chunked(&bytes[..], &mut sink).expect("valid stream decodes");
            for cap in [1usize, 5, DEFAULT_BATCH_INSTRS] {
                let mut got: Vec<TraceInstr> = Vec::new();
                let s2 = replay_chunked_batches_with(&bytes[..], cap, |b| got.extend_from_slice(b))
                    .expect("valid stream decodes");
                assert_eq!(sink.instrs, got, "budget {budget} cap {cap}");
                assert_eq!(s1, s2, "budget {budget} cap {cap}");
            }
        }
    }

    #[test]
    fn empty_chunked_stream_batch_replays_nothing() {
        let (_, bytes) = chunked(|_| {}, 64);
        let mut batches = 0usize;
        let summary =
            replay_chunked_batches(&bytes[..], |_| batches += 1).expect("empty stream decodes");
        assert_eq!(batches, 0);
        assert_eq!(summary.instrs, 0);
    }

    #[test]
    fn chunked_batch_replay_rejects_malformed_streams() {
        let (_, bytes) = chunked(workload, 256);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            replay_chunked_batches(&bad[..], |_| {}),
            Err(CodecError::BadMagic)
        ));
        // Truncation anywhere strictly inside the stream.
        for cut in [8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                replay_chunked_batches(&bytes[..cut], |_| {}).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // A flipped payload byte fails its chunk digest.
        let mut bad = bytes.clone();
        let payload_at = bad.len() - 40;
        bad[payload_at] ^= 0x01;
        assert!(replay_chunked_batches(&bad[..], |_| {}).is_err());
    }
}

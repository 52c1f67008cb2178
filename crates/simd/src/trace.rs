//! Dynamic-instruction tracing.
//!
//! Every intrinsic call on a [`crate::Vreg`] or tracked scalar emits one
//! dynamic instruction into a per-thread tracer. A [`Session`] brackets a
//! kernel invocation and only counts: finishing it yields [`TraceData`],
//! the per-class/per-op histograms.
//!
//! The full dynamic trace — dataflow edges (value ids) and memory
//! references — exists only as a *stream*: [`stream_into`] routes each
//! dynamic instruction into a [`TraceSink`] the moment it is emitted,
//! mirroring the paper's DynamoRIO → Ramulator pipe. The codec's
//! [`RecordSink`] encodes it for replay; a [`VecSink`] materializes it
//! as a `Vec<TraceInstr>` for hand inspection and small references.

pub mod codec;

pub use codec::{
    replay_chunked, replay_chunked_batches, replay_chunked_batches_with, ChunkedSummary,
    CodecError, DecodedBatch, EncodedTrace, RecordSink, SpillSink, TeeRecord, CHUNK_FORMAT_VERSION,
    DEFAULT_BATCH_INSTRS, DEFAULT_CHUNK_BUDGET,
};

use crate::Width;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;

/// Instruction classes, matching the Figure 1 breakdown of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Class {
    /// Scalar integer (including scalar loads/stores and branches).
    SInt = 0,
    /// Scalar floating-point.
    SFloat = 1,
    /// Vector load.
    VLoad = 2,
    /// Vector store.
    VStore = 3,
    /// Vector integer arithmetic/logic.
    VInt = 4,
    /// Vector floating-point arithmetic.
    VFloat = 5,
    /// Vector cryptography (AES, SHA, PMULL).
    VCrypto = 6,
    /// Vector miscellaneous: permutes, lane moves, width/type
    /// conversions, register manipulation.
    VMisc = 7,
}

/// Number of instruction classes.
pub const CLASS_COUNT: usize = 8;

impl Class {
    /// All classes in `Figure 1` order.
    pub const ALL: [Class; CLASS_COUNT] = [
        Class::SInt,
        Class::SFloat,
        Class::VLoad,
        Class::VStore,
        Class::VInt,
        Class::VFloat,
        Class::VCrypto,
        Class::VMisc,
    ];

    /// Whether the class is a vector class.
    pub fn is_vector(self) -> bool {
        !matches!(self, Class::SInt | Class::SFloat)
    }

    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Class::SInt => "S-Integer",
            Class::SFloat => "S-Float",
            Class::VLoad => "V-Load",
            Class::VStore => "V-Store",
            Class::VInt => "V-Integer",
            Class::VFloat => "V-Float",
            Class::VCrypto => "V-Crypto",
            Class::VMisc => "V-Misc",
        }
    }
}

macro_rules! ops {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Operation tags. Each maps to an execution latency and a
        /// functional-unit class in `swan-uarch` (taken from the Arm
        /// Cortex-A76 Software Optimization Guide).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        #[repr(u8)]
        pub enum Op { $($(#[$doc])* $name),+ }

        /// Number of distinct operation tags.
        pub const OP_COUNT: usize = [$(Op::$name),+].len();

        impl Op {
            /// All operation tags.
            pub const ALL: [Op; OP_COUNT] = [$(Op::$name),+];
        }
    };
}

ops! {
    // --- scalar ---
    SAlu, SMul, SDiv, SLoad, SStore, SBranch, SFAdd, SFMul, SFDiv, SFma,
    // --- vector memory (suffix = interleave stride) ---
    VLd1, VLd2, VLd3, VLd4, VSt1, VSt2, VSt3, VSt4,
    // --- vector integer ---
    VAlu, VMul, VMla, VMull, VAbd, VShift, VCmp, VBsl, VPadd,
    // --- vector float ---
    VFAdd, VFMul, VFma, VFDiv, VFCvt,
    // --- reductions ---
    VAddv, VAddlv, VMaxv, VMinv,
    // --- permutes / register manipulation ---
    VZip, VUzp, VTrn, VExt, VRev, VTbl, VDup, VGetLane, VSetLane,
    VWiden, VNarrow,
    // --- crypto ---
    VAes, VSha, VPmull,
}

impl Op {
    /// Whether this op reads memory.
    pub fn is_load(self) -> bool {
        matches!(self, Op::SLoad | Op::VLd1 | Op::VLd2 | Op::VLd3 | Op::VLd4)
    }

    /// Whether this op writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Op::SStore | Op::VSt1 | Op::VSt2 | Op::VSt3 | Op::VSt4)
    }

    /// Interleave stride for multi-register structure loads/stores
    /// (`vld2/3/4`, `vst2/3/4`), 1 otherwise.
    pub fn stride(self) -> usize {
        match self {
            Op::VLd2 | Op::VSt2 => 2,
            Op::VLd3 | Op::VSt3 => 3,
            Op::VLd4 | Op::VSt4 => 4,
            _ => 1,
        }
    }
}

/// Memory reference attached to a load/store instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address. In a recorded trace this is a *virtual* address:
    /// intrinsics capture the host address of the accessed slice
    /// element, and the session's [`BufferRegistry`] rewrites it into
    /// a synthetic, registration-order-derived space before it reaches
    /// any sink — so identical executions trace identical addresses
    /// regardless of where the host allocator placed the buffers.
    pub addr: u64,
    /// Access footprint in bytes.
    pub bytes: u32,
}

/// One dynamic instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceInstr {
    /// Operation tag.
    pub op: Op,
    /// Instruction class (Figure 1 taxonomy).
    pub class: Class,
    /// Destination value id (0 = none).
    pub dst: u32,
    /// Source value ids (first `nsrc` entries are valid; 0 = immediate
    /// or untracked).
    pub srcs: [u32; 4],
    /// Number of valid sources.
    pub nsrc: u8,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
}

/// Successor of a value id: increments, skipping the 0 sentinel ("no
/// value") on wraparound so a wrapped id can never alias an untracked
/// operand and corrupt dataflow edges.
#[inline]
pub fn next_value_id(id: u32) -> u32 {
    match id.wrapping_add(1) {
        0 => 1,
        v => v,
    }
}

/// `next_value_id` applied `n` times, in O(1): value ids cycle through
/// `1..=u32::MAX` (period `2^32 - 1`).
#[inline]
pub fn advance_value_id(id: u32, n: u64) -> u32 {
    const PERIOD: u64 = u32::MAX as u64;
    debug_assert!(id != 0, "value ids start at 1");
    let z = (id as u64 - 1 + n % PERIOD) % PERIOD;
    (z + 1) as u32
}

/// Consumer of a streamed dynamic-instruction trace.
///
/// A sink receives every dynamic instruction the moment it is emitted,
/// so a timing model can simulate a kernel *while it executes* without
/// the trace ever being materialized (peak memory O(model window)
/// instead of O(dynamic instruction count)).
///
/// Sinks must not themselves execute traced operations (`Vreg`/`Tr`
/// intrinsics): emission happens with the tracer borrowed, so a
/// re-entrant emit panics.
///
/// The `Any` supertrait lets [`stream_into`] hand a concrete sink
/// back to the caller after the session.
pub trait TraceSink: Any {
    /// One dynamic instruction.
    fn on_instr(&mut self, ins: &TraceInstr);

    /// `n` repeated bookkeeping instructions of the same op (loop
    /// control overhead), with consecutive destination value ids
    /// starting at `first_id`. The default expands to `on_instr`
    /// calls, which keeps bulk emission bit-identical to per-op
    /// emission; sinks that only count may override it with an O(1)
    /// update.
    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        let mut id = first_id;
        for _ in 0..n {
            self.on_instr(&TraceInstr {
                op,
                class,
                dst: id,
                srcs: [0; 4],
                nsrc: 0,
                mem: None,
            });
            id = next_value_id(id);
        }
    }
}

/// The null sink: drops every instruction. The tracer still runs in
/// full (histograms, value ids, address virtualization); only the
/// stream is discarded.
impl TraceSink for () {
    fn on_instr(&mut self, _: &TraceInstr) {}
    fn on_overhead(&mut self, _: Op, _: Class, _: u32, _: u64) {}
}

/// The materializing sink: appends every instruction to a `Vec`.
/// `stream_into(VecSink::default(), f)` is the one way to hold a
/// kernel's complete dynamic trace in memory.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The materialized dynamic trace.
    pub instrs: Vec<TraceInstr>,
}

impl TraceSink for VecSink {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.instrs.push(*ins);
    }
}

/// Order-sensitive FNV-1a digest of a dynamic-instruction stream, in
/// O(1) memory. Two streams hash equal iff every field of every
/// instruction — op, class, dataflow edges, and (virtualized) memory
/// reference — is identical, which is exactly the golden-suite
/// byte-reproducibility contract.
#[derive(Clone, Debug)]
pub struct HashSink {
    hash: u64,
    count: u64,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }
}

impl HashSink {
    /// A fresh digest.
    pub fn new() -> HashSink {
        HashSink::default()
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Instructions hashed so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl TraceSink for HashSink {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.count += 1;
        self.mix(((ins.op as u64) << 32) | ((ins.class as u64) << 16) | ins.nsrc as u64);
        self.mix(ins.dst as u64);
        for i in 0..ins.nsrc as usize {
            self.mix(ins.srcs[i] as u64);
        }
        match ins.mem {
            Some(m) => {
                self.mix(1);
                self.mix(m.addr);
                self.mix(m.bytes as u64);
            }
            None => self.mix(0),
        }
    }
}

/// What a plain [`Session`] records. The complete dynamic trace is
/// only ever streamed into a sink ([`stream_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// No tracing; intrinsics run at full emulation speed.
    #[default]
    Off,
    /// Histogram instruction counts only (Figure 1, Table 6).
    Count,
}

/// Synthetic base address of the per-session literal pool (far above
/// any userspace host address, so pool lines never alias real
/// buffers in the cache model).
const LITERAL_POOL_BASE: u64 = 0xFFFF_F000_0000_0000;

// ---------------------------------------------------------------------
// Buffer address virtualization
// ---------------------------------------------------------------------

/// Base of the virtual buffer arenas. One arena per size class, each
/// [`BUF_ARENA_BYTES`] wide, all far above any userspace host address
/// and disjoint from the anonymous pool and the literal pool.
const BUF_ARENA_BASE: u64 = 0xF000_0000_0000_0000;
/// log2 of one size-class arena (1 PiB per class).
const BUF_ARENA_SHIFT: u32 = 50;
/// Smallest size class: buffers shorter than 4 KiB share its slots.
const BUF_MIN_CLASS: u32 = 12;
/// Largest supported size class (64 TiB buffer).
const BUF_MAX_CLASS: u32 = 46;
/// Guard gap between slots, so next-line prefetches past the end of
/// one buffer never walk into the next one.
const BUF_GUARD: u64 = 4096;
/// Base of the anonymous first-touch pool for unregistered addresses.
const ANON_POOL_BASE: u64 = 0xFFFE_0000_0000_0000;
/// Cache-line granularity of the anonymous pool.
const ANON_LINE: u64 = 64;

/// One registered buffer: a host address range and its virtual base.
#[derive(Clone, Copy, Debug)]
struct BufRange {
    host: u64,
    bytes: u64,
    virt: u64,
}

/// Per-session virtual address space for traced memory.
///
/// Every kernel buffer registered here (see [`register_slice`] and the
/// `swan_simd::with_buffers!` helper) is assigned a *synthetic* base
/// address derived only from its size class and the registration order
/// within that class — never from where the host allocator happened to
/// put it. [`BufferRegistry::translate`] then rewrites each traced
/// [`MemRef`] so the cache model sees a host-layout-independent address
/// stream: the same kernel, scale, and seed produce bit-identical
/// traces across runs, processes, and machines.
///
/// Layout guarantees:
///
/// * same registration sequence (sizes, in order) ⇒ same virtual bases;
/// * distinct live buffers never alias: each class-`c` slot is
///   `2^c + 4 KiB` wide, so ranges (plus a prefetch guard gap) are
///   disjoint within a class, and classes live in disjoint arenas;
/// * offsets within a buffer are preserved exactly, so spatial
///   locality matches the host run;
/// * virtual bases are 4 KiB-aligned, normalizing away host `malloc`
///   alignment jitter.
///
/// Addresses not covered by any registered buffer fall back to an
/// anonymous pool that maps each touched host cache line to the next
/// free virtual line (offset within the line preserved). First-touch
/// order is deterministic for rerun-deterministic kernels, so even
/// unregistered traffic reproduces within a container — but only
/// registered buffers carry cross-line spatial locality, so kernels
/// must register everything they stream through (the golden-suite test
/// asserts the fallback is never hit by the 59-kernel campaign).
#[derive(Debug)]
pub struct BufferRegistry {
    /// Registered ranges, sorted by host base.
    ranges: Vec<BufRange>,
    /// Next free slot index per size class.
    class_next: [u64; (BUF_MAX_CLASS + 1) as usize],
    /// Anonymous fallback: host line -> virtual line index.
    anon: HashMap<u64, u64>,
    /// Number of `translate` calls answered by the fallback pool.
    anon_refs: u64,
    /// Index of the most recently hit range (loads stream through one
    /// buffer at a time, so this caches almost every lookup).
    last: usize,
}

impl Default for BufferRegistry {
    fn default() -> BufferRegistry {
        BufferRegistry {
            ranges: Vec::new(),
            class_next: [0; (BUF_MAX_CLASS + 1) as usize],
            anon: HashMap::new(),
            anon_refs: 0,
            last: 0,
        }
    }
}

impl BufferRegistry {
    /// An empty registry.
    pub fn new() -> BufferRegistry {
        BufferRegistry::default()
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no buffer has been registered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of translations that missed every registered buffer and
    /// were answered by the anonymous first-touch pool.
    pub fn fallback_refs(&self) -> u64 {
        self.anon_refs
    }

    /// Size class of a buffer: log2 of the slot capacity.
    fn class_of(bytes: u64) -> u32 {
        let c = bytes.next_power_of_two().trailing_zeros();
        c.max(BUF_MIN_CLASS)
    }

    /// Register a host buffer `[host, host + bytes)`; returns its
    /// virtual base. Registering a range already covered by (or
    /// identical to) an existing registration is a no-op returning the
    /// established mapping, so re-running a kernel inside one session
    /// re-registers harmlessly.
    ///
    /// # Panics
    ///
    /// Panics if the range partially overlaps an existing registration
    /// (two live Rust buffers cannot overlap; a partial overlap means
    /// a stale registration from freed memory) or exceeds the largest
    /// supported size class.
    pub fn register(&mut self, host: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let idx = self.ranges.partition_point(|r| r.host <= host);
        if idx > 0 {
            let prev = self.ranges[idx - 1];
            if host + bytes <= prev.host + prev.bytes {
                // Fully contained (idempotent re-registration or a
                // sub-slice of a registered buffer).
                return prev.virt + (host - prev.host);
            }
            assert!(
                host >= prev.host + prev.bytes,
                "buffer registration [{host:#x}, +{bytes}) overlaps [{:#x}, +{})",
                prev.host,
                prev.bytes
            );
        }
        if let Some(next) = self.ranges.get(idx) {
            assert!(
                host + bytes <= next.host,
                "buffer registration [{host:#x}, +{bytes}) overlaps [{:#x}, +{})",
                next.host,
                next.bytes
            );
        }
        let class = Self::class_of(bytes);
        assert!(
            class <= BUF_MAX_CLASS,
            "buffer of {bytes} bytes exceeds the largest size class"
        );
        let slot = (1u64 << class) + BUF_GUARD;
        let n = self.class_next[class as usize];
        self.class_next[class as usize] = n + 1;
        let off = n * slot;
        assert!(
            off + (1u64 << class) < 1u64 << BUF_ARENA_SHIFT,
            "size class {class} arena exhausted"
        );
        let virt = BUF_ARENA_BASE + ((class as u64) << BUF_ARENA_SHIFT) + off;
        self.ranges.insert(idx, BufRange { host, bytes, virt });
        self.last = idx;
        virt
    }

    /// Translate a host byte address into the virtual space. Addresses
    /// inside a registered buffer map to `virt_base + offset`; anything
    /// else goes through the anonymous first-touch line pool.
    pub fn translate(&mut self, addr: u64) -> u64 {
        if let Some(r) = self.ranges.get(self.last) {
            if addr >= r.host && addr < r.host + r.bytes {
                return r.virt + (addr - r.host);
            }
        }
        let idx = self.ranges.partition_point(|r| r.host <= addr);
        if idx > 0 {
            let r = self.ranges[idx - 1];
            if addr < r.host + r.bytes {
                self.last = idx - 1;
                return r.virt + (addr - r.host);
            }
        }
        self.anon_refs += 1;
        let next = self.anon.len() as u64;
        let line = *self.anon.entry(addr / ANON_LINE).or_insert(next);
        ANON_POOL_BASE + line * ANON_LINE + (addr % ANON_LINE)
    }

    /// Translate a memory reference (address mapped, footprint kept).
    pub fn translate_ref(&mut self, mem: MemRef) -> MemRef {
        MemRef {
            addr: self.translate(mem.addr),
            bytes: mem.bytes,
        }
    }

    /// Forget all registrations and fallback mappings.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.class_next = [0; (BUF_MAX_CLASS + 1) as usize];
        self.anon.clear();
        self.anon_refs = 0;
        self.last = 0;
    }
}

/// Register a buffer slice with the active session's
/// [`BufferRegistry`] so its traced loads/stores are virtualized.
/// No-op outside a sink session ([`stream_into`]). Prefer the
/// `swan_simd::with_buffers!` macro, which registers several buffers
/// at once.
pub fn register_slice<T>(s: &[T]) {
    if s.is_empty() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.sink.is_none() {
            return;
        }
        t.bufs
            .register(s.as_ptr() as u64, std::mem::size_of_val(s) as u64);
    });
}

/// Number of [`MemRef`] translations in the current session answered
/// by the anonymous fallback pool instead of a registered buffer
/// (0 when every traced access hit a registered buffer).
pub fn buffer_fallback_refs() -> u64 {
    TRACER.with(|t| t.borrow().bufs.fallback_refs())
}

/// The vector register width of the active trace session on this
/// thread ([`Width::W128`] when no session is active or none was
/// requested). The measurement runner opens each session at its
/// scenario's width, so kernel invocations inside the session can read
/// the width from here instead of having it plumbed through every
/// call.
pub fn session_width() -> Width {
    TRACER.with(|t| {
        let t = t.borrow();
        if t.active {
            t.width
        } else {
            Width::W128
        }
    })
}

/// Register each listed buffer (anything indexable to a slice, e.g.
/// `Vec<T>` or an array) with the active trace session's
/// [`trace::BufferRegistry`](crate::trace::BufferRegistry). Kernels
/// call this on entry to `run` for every buffer they load from or
/// store to, making the traced address stream independent of the host
/// allocator's layout.
#[macro_export]
macro_rules! with_buffers {
    ($($buf:expr),+ $(,)?) => {
        $($crate::trace::register_slice(&$buf[..]);)+
    };
}

struct Tracer {
    mode: Mode,
    active: bool,
    /// Vector register width this session measures at. Set once when
    /// the session begins (the *scenario's* width); kernels and sinks
    /// read it back through [`session_width`] instead of having the
    /// width threaded through every call.
    width: Width,
    next_id: u32,
    by_op: [u64; OP_COUNT],
    by_class: [u64; CLASS_COUNT],
    /// The sink of a [`stream_into`] session, which receives every
    /// instruction; plain sessions have none and only count.
    sink: Option<Box<dyn TraceSink>>,
    /// Literal pool: content → synthetic address. Constant
    /// materializations (`Vreg::from_lanes`) are addressed here so
    /// traces never depend on where a caller's staging buffer happens
    /// to live (stack frame, allocator state) — a requirement for
    /// streamed and batch captures of the same execution to be
    /// bit-identical.
    lit_pool: HashMap<Vec<u8>, u64>,
    lit_next: u64,
    /// Buffer virtualization: every load/store [`MemRef`] is rewritten
    /// from its host address into the registry's synthetic space, the
    /// buffer-level generalization of the literal pool.
    bufs: BufferRegistry,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            mode: Mode::Off,
            active: false,
            width: Width::W128,
            next_id: 1,
            by_op: [0; OP_COUNT],
            by_class: [0; CLASS_COUNT],
            sink: None,
            lit_pool: HashMap::new(),
            lit_next: LITERAL_POOL_BASE,
            bufs: BufferRegistry::new(),
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Instruction histograms of a tracing session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceData {
    /// Per-op dynamic instruction counts, indexed by `Op as usize`.
    pub by_op: [u64; OP_COUNT],
    /// Per-class dynamic instruction counts, indexed by `Class as usize`.
    pub by_class: [u64; CLASS_COUNT],
}

impl Default for TraceData {
    fn default() -> Self {
        TraceData {
            by_op: [0; OP_COUNT],
            by_class: [0; CLASS_COUNT],
        }
    }
}

impl TraceData {
    /// Total dynamic instruction count.
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Count for one instruction class.
    pub fn class_count(&self, c: Class) -> u64 {
        self.by_class[c as usize]
    }

    /// Count for one operation tag.
    pub fn op_count(&self, op: Op) -> u64 {
        self.by_op[op as usize]
    }

    /// Total vector-class instructions.
    pub fn vector_total(&self) -> u64 {
        Class::ALL
            .iter()
            .filter(|c| c.is_vector())
            .map(|c| self.class_count(*c))
            .sum()
    }

    /// A copy of the histograms.
    pub fn histograms(&self) -> TraceData {
        self.clone()
    }

    /// Add another session's histograms (used when a measurement spans
    /// several invocations).
    pub fn merge(&mut self, other: &TraceData) {
        for i in 0..OP_COUNT {
            self.by_op[i] += other.by_op[i];
        }
        for i in 0..CLASS_COUNT {
            self.by_class[i] += other.by_class[i];
        }
    }
}

/// An active tracing session (RAII).
///
/// Only one session per thread may be active at a time; nesting panics.
/// Dropping a session without calling [`Session::finish`] discards its
/// data and re-arms the tracer.
#[derive(Debug)]
pub struct Session {
    done: bool,
}

impl Session {
    fn begin_inner(mode: Mode, width: Width, sink: Option<Box<dyn TraceSink>>) -> Session {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            assert!(!t.active, "a trace session is already active");
            t.active = true;
            t.mode = mode;
            t.width = width;
            t.next_id = 1;
            t.by_op = [0; OP_COUNT];
            t.by_class = [0; CLASS_COUNT];
            t.sink = sink;
            t.lit_pool.clear();
            t.lit_next = LITERAL_POOL_BASE;
            t.bufs.clear();
        });
        Session { done: false }
    }

    /// Start tracing on the current thread at the default 128-bit
    /// session width ([`Session::begin_at`] selects another).
    ///
    /// # Panics
    ///
    /// Panics if a session is already active on this thread.
    pub fn begin(mode: Mode) -> Session {
        Session::begin_inner(mode, Width::W128, None)
    }

    /// Start tracing on the current thread with the session width set
    /// to `width` — the scenario's register width, readable anywhere in
    /// the session through [`session_width`].
    ///
    /// # Panics
    ///
    /// Panics if a session is already active on this thread.
    pub fn begin_at(mode: Mode, width: Width) -> Session {
        Session::begin_inner(mode, width, None)
    }

    /// Stop tracing and return the collected histograms.
    pub fn finish(self) -> TraceData {
        self.finish_inner().0
    }

    /// Stop tracing; hand back the histograms and the session's sink.
    fn finish_inner(mut self) -> (TraceData, Option<Box<dyn TraceSink>>) {
        self.done = true;
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.active = false;
            t.mode = Mode::Off;
            let data = TraceData {
                by_op: t.by_op,
                by_class: t.by_class,
            };
            (data, t.sink.take())
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.done {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                t.active = false;
                t.mode = Mode::Off;
                t.sink = None;
            });
        }
    }
}

/// Run `f` with every emitted dynamic instruction streamed into
/// `sink`, then hand the sink back: `(histograms, sink, f's result)`.
///
/// This is the only way to observe the full dynamic trace; the sink
/// type survives the trip through the tracer, so callers keep working
/// with the concrete consumer they passed in:
///
/// ```
/// use swan_simd::trace::{stream_into, Class, Op, TraceInstr, TraceSink};
///
/// #[derive(Default)]
/// struct Count(u64);
/// impl TraceSink for Count {
///     fn on_instr(&mut self, _: &TraceInstr) { self.0 += 1; }
/// }
///
/// let (data, count, sum) = stream_into(Count::default(), || {
///     use swan_simd::{Vreg, Width};
///     let v = Vreg::<u8>::splat(Width::W128, 3);
///     v.add(v).lane_value(0) as u64
/// });
/// assert_eq!(count.0, data.total());
/// assert_eq!(sum, 6);
/// ```
pub fn stream_into<S: TraceSink, R>(sink: S, f: impl FnOnce() -> R) -> (TraceData, S, R) {
    stream_into_at(Width::W128, sink, f)
}

/// [`stream_into`] with the session width set to `width` (the
/// scenario's register width; see [`session_width`]).
pub fn stream_into_at<S: TraceSink, R>(
    width: Width,
    sink: S,
    f: impl FnOnce() -> R,
) -> (TraceData, S, R) {
    let sess = Session::begin_inner(Mode::Count, width, Some(Box::new(sink)));
    let out = f();
    let (data, sink) = sess.finish_inner();
    let sink: Box<dyn Any> = sink.expect("sink session always holds a sink");
    let sink = *sink
        .downcast::<S>()
        .expect("the session hands back the sink it was given");
    (data, sink, out)
}

fn emit_inner(t: &mut Tracer, op: Op, class: Class, srcs: &[u32], mem: Option<MemRef>) -> u32 {
    t.by_op[op as usize] += 1;
    t.by_class[class as usize] += 1;
    let id = t.next_id;
    t.next_id = next_value_id(id);
    if let Some(sink) = t.sink.as_mut() {
        let mut s = [0u32; 4];
        let n = srcs.len().min(4);
        s[..n].copy_from_slice(&srcs[..n]);
        sink.on_instr(&TraceInstr {
            op,
            class,
            dst: id,
            srcs: s,
            nsrc: n as u8,
            mem,
        });
    }
    id
}

/// Emit one dynamic instruction; returns the fresh destination value id
/// (0 when tracing is off). In a sink session memory references are
/// translated through the session's [`BufferRegistry`], so the streamed
/// trace never contains a host address.
#[inline]
pub(crate) fn emit(op: Op, class: Class, srcs: &[u32], mem: Option<MemRef>) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.mode == Mode::Off {
            return 0;
        }
        let t = &mut *t;
        let mem = if t.sink.is_some() {
            mem.map(|m| t.bufs.translate_ref(m))
        } else {
            mem
        };
        emit_inner(t, op, class, srcs, mem)
    })
}

/// Emit a constant-materialization load (`Vreg::from_lanes`): the
/// memory reference points into the session's synthetic literal pool,
/// interned by content, so the traced address is deterministic —
/// independent of where the caller staged the lane values. Repeated
/// materialization of the same constant hits the same pool line, as a
/// real literal pool would.
pub(crate) fn emit_literal(op: Op, class: Class, content: &[u8]) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.mode == Mode::Off {
            return 0;
        }
        let t = &mut *t;
        let mem = if t.sink.is_some() {
            let bytes = content.len() as u32;
            // Look up by borrowed content: only a pool miss allocates
            // the owned key.
            let addr = match t.lit_pool.get(content) {
                Some(&a) => a,
                None => {
                    let a = t.lit_next;
                    t.lit_next += bytes as u64;
                    t.lit_pool.insert(content.to_vec(), a);
                    a
                }
            };
            Some(MemRef { addr, bytes })
        } else {
            None
        };
        emit_inner(t, op, class, &[], mem)
    })
}

/// Emit `n` repeated bookkeeping instructions of the same op (used for
/// loop-control overhead). Cheaper than `n` separate `emit` calls.
#[inline]
pub(crate) fn emit_overhead(op: Op, class: Class, n: u64) {
    if n == 0 {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.mode == Mode::Off {
            return;
        }
        let t = &mut *t;
        t.by_op[op as usize] += n;
        t.by_class[class as usize] += n;
        if let Some(sink) = t.sink.as_mut() {
            let first = t.next_id;
            t.next_id = advance_value_id(first, n);
            sink.on_overhead(op, class, first, n);
        }
    })
}

/// Whether tracing is currently enabled on this thread.
pub fn is_tracing() -> bool {
    TRACER.with(|t| t.borrow().mode != Mode::Off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_counts_and_resets() {
        let s = Session::begin(Mode::Count);
        emit(Op::VAlu, Class::VInt, &[1, 2], None);
        emit(
            Op::SLoad,
            Class::SInt,
            &[],
            Some(MemRef { addr: 64, bytes: 4 }),
        );
        let d = s.finish();
        assert_eq!(d.total(), 2);
        assert_eq!(d.class_count(Class::VInt), 1);
        assert_eq!(d.op_count(Op::SLoad), 1);
        assert!(!is_tracing());
    }

    /// The full dynamic trace of `f`, materialized.
    fn trace_of(f: impl FnOnce()) -> Vec<TraceInstr> {
        stream_into(VecSink::default(), f).1.instrs
    }

    #[test]
    fn vec_sink_records_dataflow() {
        let (mut a, mut b) = (0, 0);
        let instrs = trace_of(|| {
            a = emit(
                Op::VLd1,
                Class::VLoad,
                &[],
                Some(MemRef { addr: 0, bytes: 16 }),
            );
            b = emit(Op::VAlu, Class::VInt, &[a, a], None);
            emit(
                Op::VSt1,
                Class::VStore,
                &[b],
                Some(MemRef {
                    addr: 64,
                    bytes: 16,
                }),
            );
        });
        assert_eq!(instrs.len(), 3);
        assert_eq!(instrs[1].srcs[0], a);
        assert_eq!(instrs[2].srcs[0], b);
        assert_eq!(instrs[0].mem.unwrap().bytes, 16);
    }

    #[test]
    fn off_mode_is_free() {
        // No session: emit returns 0 and records nothing.
        let id = emit(Op::VAlu, Class::VInt, &[], None);
        assert_eq!(id, 0);
        let s = Session::begin(Mode::Count);
        let d = s.finish();
        assert_eq!(d.total(), 0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_sessions_panic() {
        let _a = Session::begin(Mode::Count);
        let _b = Session::begin(Mode::Count);
    }

    #[test]
    fn session_width_is_set_at_begin_and_defaults_to_128() {
        assert_eq!(session_width(), Width::W128);
        {
            let _s = Session::begin_at(Mode::Count, Width::W512);
            assert_eq!(session_width(), Width::W512);
        }
        // Outside a session the width is back to the default, even
        // though the last session ran wider.
        assert_eq!(session_width(), Width::W128);
        let (_, _, w) = stream_into_at(Width::W256, VecSink::default(), session_width);
        assert_eq!(w, Width::W256);
    }

    #[test]
    fn dropped_session_rearms() {
        {
            let _s = Session::begin(Mode::Count);
            emit(Op::VAlu, Class::VInt, &[], None);
        }
        let s = Session::begin(Mode::Count);
        let d = s.finish();
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn op_strides() {
        assert_eq!(Op::VLd4.stride(), 4);
        assert_eq!(Op::VSt2.stride(), 2);
        assert_eq!(Op::VLd1.stride(), 1);
        assert!(Op::VLd3.is_load());
        assert!(Op::VSt3.is_store());
        assert!(!Op::VAlu.is_load());
    }

    #[test]
    fn value_ids_skip_zero_on_wrap() {
        assert_eq!(next_value_id(1), 2);
        assert_eq!(next_value_id(u32::MAX), 1, "0 is the no-value sentinel");
        assert_eq!(advance_value_id(1, 0), 1);
        assert_eq!(advance_value_id(u32::MAX - 1, 3), 2);
        // Closed form matches iterated stepping across the wrap.
        let mut id = u32::MAX - 2;
        for n in 0..6u64 {
            assert_eq!(advance_value_id(u32::MAX - 2, n), id);
            id = next_value_id(id);
        }
        // Full period returns to the start.
        assert_eq!(advance_value_id(7, u32::MAX as u64), 7);
    }

    #[test]
    fn emit_wraparound_never_hands_out_zero() {
        let (mut a, mut b, mut c) = (0, 0, 0);
        let instrs = trace_of(|| {
            TRACER.with(|t| t.borrow_mut().next_id = u32::MAX);
            a = emit(Op::VAlu, Class::VInt, &[], None);
            b = emit(Op::VAlu, Class::VInt, &[a], None);
            c = emit(Op::VAlu, Class::VInt, &[b], None);
        });
        assert_eq!(a, u32::MAX);
        assert_eq!(b, 1, "id 0 must be skipped on wrap");
        assert_eq!(c, 2);
        assert_eq!(instrs[1].srcs[0], a);
        assert_eq!(instrs[2].srcs[0], b);
    }

    #[test]
    fn emit_overhead_wraps_like_emit() {
        let mut next = 0;
        let instrs = trace_of(|| {
            TRACER.with(|t| t.borrow_mut().next_id = u32::MAX - 1);
            emit_overhead(Op::SAlu, Class::SInt, 4);
            next = emit(Op::VAlu, Class::VInt, &[], None);
        });
        let dsts: Vec<u32> = instrs.iter().map(|i| i.dst).collect();
        assert_eq!(dsts, vec![u32::MAX - 1, u32::MAX, 1, 2, 3]);
        assert_eq!(next, 3);
    }

    #[test]
    fn sink_session_streams_without_materializing() {
        #[derive(Default)]
        struct Probe {
            instrs: Vec<TraceInstr>,
            overheads: Vec<(Op, u64)>,
        }
        impl TraceSink for Probe {
            fn on_instr(&mut self, ins: &TraceInstr) {
                self.instrs.push(*ins);
            }
            fn on_overhead(&mut self, op: Op, _c: Class, _first: u32, n: u64) {
                self.overheads.push((op, n));
            }
        }

        let (data, probe, ()) = stream_into(Probe::default(), || {
            let a = emit(
                Op::VLd1,
                Class::VLoad,
                &[],
                Some(MemRef { addr: 0, bytes: 16 }),
            );
            emit(Op::VAlu, Class::VInt, &[a], None);
            emit_overhead(Op::SAlu, Class::SInt, 10);
        });
        assert_eq!(data.total(), 12);
        assert_eq!(probe.instrs.len(), 2);
        assert_eq!(probe.instrs[1].srcs[0], probe.instrs[0].dst);
        assert_eq!(probe.overheads, vec![(Op::SAlu, 10)]);
    }

    #[test]
    fn literal_pool_interns_by_content() {
        let (_, sink, ()) = stream_into(VecSink::default(), || {
            emit_literal(Op::VLd1, Class::VLoad, &[1; 16]);
            emit_literal(Op::VLd1, Class::VLoad, &[2; 8]);
            emit_literal(Op::VLd1, Class::VLoad, &[1; 16]);
            emit_literal(Op::VLd1, Class::VLoad, &[3; 16]);
        });
        let refs: Vec<(u64, u32)> = sink
            .instrs
            .iter()
            .map(|i| i.mem.map(|m| (m.addr, m.bytes)).expect("literal load"))
            .collect();
        let base = LITERAL_POOL_BASE;
        assert_eq!(
            refs,
            vec![(base, 16), (base + 16, 8), (base, 16), (base + 24, 16)],
            "a repeat hits its first address; a new constant is appended"
        );
    }

    #[test]
    fn registry_same_sequence_same_bases() {
        let mut a = BufferRegistry::new();
        let mut b = BufferRegistry::new();
        let sizes = [4096u64, 100, 65536, 100, 4097];
        let va: Vec<u64> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| a.register(0x7000_0000 + i as u64 * 0x10_0000, s))
            .collect();
        // Different host bases, same size sequence.
        let vb: Vec<u64> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| b.register(0x1234_5000 + i as u64 * 0x20_0000, s))
            .collect();
        assert_eq!(va, vb, "bases depend only on size class + order");
        // 100-byte buffers share the 4 KiB size class: consecutive
        // slots advance by class size + guard.
        assert_eq!(va[3], va[1] + 4096 + BUF_GUARD);
    }

    #[test]
    fn registry_distinct_buffers_never_alias() {
        let mut r = BufferRegistry::new();
        let sizes = [1u64, 64, 4096, 4097, 100_000, 64, 1 << 20];
        let mut spans: Vec<(u64, u64)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (r.register(0x10_0000 + i as u64 * 0x100_0000, s), s))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].0 + w[0].1 + BUF_GUARD <= w[1].0,
                "slots must be disjoint with a guard gap: {spans:?}"
            );
        }
    }

    #[test]
    fn registry_translation_preserves_offsets() {
        let mut r = BufferRegistry::new();
        let base = r.register(0x5000, 1000);
        assert_eq!(r.translate(0x5000), base);
        assert_eq!(r.translate(0x5000 + 999), base + 999);
        assert_eq!(base % 4096, 0, "virtual bases are page-aligned");
        // Idempotent re-registration (second run in one session).
        assert_eq!(r.register(0x5000, 1000), base);
        // A sub-slice maps through the containing buffer.
        assert_eq!(r.register(0x5010, 100), base + 0x10);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn registry_partial_overlap_panics() {
        let mut r = BufferRegistry::new();
        r.register(0x5000, 1000);
        r.register(0x5100, 5000);
    }

    #[test]
    fn registry_fallback_is_first_touch_deterministic() {
        let mut a = BufferRegistry::new();
        let mut b = BufferRegistry::new();
        for addr in [0x9000u64, 0x9008, 0x9100, 0x9000, 0xABCD] {
            assert_eq!(a.translate(addr), b.translate(addr));
        }
        // Same line -> same virtual line; offset preserved.
        assert_eq!(a.translate(0x9008), a.translate(0x9000) + 8);
        assert!(a.fallback_refs() > 0);
        // Registered buffers do not bump the fallback counter.
        let before = a.fallback_refs();
        let base = a.register(0x20_0000, 4096);
        assert_eq!(a.translate(0x20_0040), base + 0x40);
        assert_eq!(a.fallback_refs(), before);
    }

    #[test]
    fn emit_translates_mem_through_session_registry() {
        let data = vec![0u8; 256];
        let instrs = trace_of(|| {
            register_slice(&data);
            emit(
                Op::VLd1,
                Class::VLoad,
                &[],
                Some(MemRef {
                    addr: data.as_ptr() as u64 + 32,
                    bytes: 16,
                }),
            );
        });
        let m = instrs[0].mem.unwrap();
        assert!(
            m.addr >= BUF_ARENA_BASE && m.addr < ANON_POOL_BASE,
            "registered access must map into a buffer arena: {:#x}",
            m.addr
        );
        assert_eq!(m.addr % 4096, 32, "offset within the buffer preserved");
        assert_eq!(buffer_fallback_refs(), 0);
    }

    #[test]
    fn merge_accumulates_histograms() {
        let mk = |ops: &[(Op, Class)]| {
            let s = Session::begin(Mode::Count);
            for &(op, class) in ops {
                emit(op, class, &[], None);
            }
            s.finish()
        };
        let a = mk(&[(Op::VAlu, Class::VInt), (Op::SLoad, Class::SInt)]);
        let b = mk(&[
            (Op::VAlu, Class::VInt),
            (Op::SFma, Class::SFloat),
            (Op::SBranch, Class::SInt),
        ]);

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.total(), a.total() + b.total());
        assert_eq!(ab.op_count(Op::VAlu), 2);
        assert_eq!(ab.op_count(Op::SFma), 1);
        assert_eq!(ab.class_count(Class::SInt), 2);

        // Histogram totals are order-independent (commutative add)...
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, ab);
        // ...and associative.
        let c = mk(&[(Op::VSt1, Class::VStore)]);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = Session::begin(Mode::Count);
        emit(Op::VMul, Class::VInt, &[], None);
        let a = s.finish();
        let mut m = a.clone();
        m.merge(&TraceData::default());
        assert_eq!(m, a);
    }

    #[test]
    fn hash_sink_distinguishes_streams() {
        let run = |addr: u64| {
            let (_, h, ()) = stream_into(HashSink::new(), || {
                let a = emit(
                    Op::VLd1,
                    Class::VLoad,
                    &[],
                    Some(MemRef { addr, bytes: 16 }),
                );
                emit(Op::VAlu, Class::VInt, &[a], None);
            });
            (h.digest(), h.count())
        };
        let (h1, n1) = run(0);
        let (h2, n2) = run(0);
        assert_eq!(h1, h2, "identical streams hash identically");
        assert_eq!((n1, n2), (2, 2));
        // 0 and 64 are distinct *lines* and the anonymous pool maps
        // first touches identically — but a different offset within
        // the line survives virtualization and must change the digest.
        let (h3, _) = run(8);
        assert_ne!(h1, h3, "a differing address must change the digest");
    }
}

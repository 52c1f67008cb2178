//! Trace-driven core timing model.
//!
//! A list-scheduling out-of-order model: instructions flow through
//! fetch/rename (decode-width limited), dispatch (ROB-occupancy
//! limited), issue (operand readiness + functional-unit structural
//! hazards, program-order for in-order cores), execute (per-op latency,
//! loads through the cache hierarchy), and in-order commit
//! (commit-width limited). Branch mispredictions insert front-end
//! bubbles. The model attributes stall cycles to front-end (fetch
//! bubbles) and back-end (ROB-full / operand wait) following the
//! top-down method the paper uses (§5.4).

use crate::cache::{CacheHierarchy, CacheStats};
use crate::config::CoreConfig;
use swan_simd::trace::{CLASS_COUNT, OP_COUNT};
use swan_simd::{Op, TraceInstr};

/// Functional-unit pools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fu {
    Alu = 0,
    Asimd = 1,
    Load = 2,
    Store = 3,
}

/// Number of functional-unit pools.
const FU_COUNT: usize = 4;

/// Execution properties of an op: unit pool, latency (cycles; loads
/// add cache latency), and whether it blocks its unit (non-pipelined).
#[derive(Clone, Copy, Debug)]
struct OpCost {
    fu: Fu,
    lat: u32,
    blocking: bool,
}

const fn cost(fu: Fu, lat: u32, blocking: bool) -> OpCost {
    OpCost { fu, lat, blocking }
}

const fn op_cost(op: Op) -> OpCost {
    use Op::*;
    match op {
        SAlu | SBranch => cost(Fu::Alu, 1, false),
        SMul => cost(Fu::Alu, 3, false),
        SDiv => cost(Fu::Alu, 12, true),
        SLoad => cost(Fu::Load, 0, false),
        SStore => cost(Fu::Store, 1, false),
        // Scalar FP executes on the ASIMD pipes (Cortex-A76).
        SFAdd => cost(Fu::Asimd, 2, false),
        SFMul => cost(Fu::Asimd, 3, false),
        SFma => cost(Fu::Asimd, 4, false),
        SFDiv => cost(Fu::Asimd, 10, true),
        VLd1 => cost(Fu::Load, 0, false),
        VLd2 => cost(Fu::Load, 2, false),
        VLd3 => cost(Fu::Load, 3, false),
        VLd4 => cost(Fu::Load, 4, false),
        VSt1 => cost(Fu::Store, 1, false),
        VSt2 => cost(Fu::Store, 2, false),
        VSt3 => cost(Fu::Store, 3, false),
        VSt4 => cost(Fu::Store, 4, false),
        VAlu | VAbd | VShift | VCmp | VBsl | VPadd => cost(Fu::Asimd, 2, false),
        VMul | VMla | VMull => cost(Fu::Asimd, 4, false),
        VFAdd => cost(Fu::Asimd, 2, false),
        VFMul => cost(Fu::Asimd, 3, false),
        VFma => cost(Fu::Asimd, 4, false),
        VFDiv => cost(Fu::Asimd, 10, true),
        VFCvt => cost(Fu::Asimd, 3, false),
        VAddv => cost(Fu::Asimd, 5, false),
        VAddlv => cost(Fu::Asimd, 6, false),
        VMaxv | VMinv => cost(Fu::Asimd, 5, false),
        VZip | VUzp | VTrn | VExt | VRev | VDup => cost(Fu::Asimd, 2, false),
        VTbl => cost(Fu::Asimd, 3, false),
        VGetLane | VSetLane => cost(Fu::Asimd, 2, false),
        VWiden | VNarrow => cost(Fu::Asimd, 2, false),
        VAes => cost(Fu::Asimd, 2, false),
        VSha => cost(Fu::Asimd, 4, false),
        VPmull => cost(Fu::Asimd, 3, false),
    }
}

/// [`op_cost`] as a const lookup table indexed by the op tag, so the
/// hot loop replaces the 50-arm match with one array load.
/// `Op::ALL[i] as usize == i` is the same invariant the trace codec's
/// one-byte op encoding relies on.
const OP_COST: [OpCost; OP_COUNT] = {
    let mut t = [cost(Fu::Alu, 0, false); OP_COUNT];
    let mut i = 0;
    while i < OP_COUNT {
        t[i] = op_cost(Op::ALL[i]);
        i += 1;
    }
    t
};

/// Ring buffer mapping value ids to completion cycles. Ids are
/// monotonically increasing; entries older than the ring are treated
/// as long-since complete. This is exact as long as the ring covers
/// the ROB window: dispatch of instruction `i` waits for the commit
/// of instruction `i - rob` (the `rob_ring` below), commit is
/// monotone and bounds completion, so any producer more than `rob`
/// instructions back has completed before `i` can dispatch and its
/// exact completion time cannot matter. Ids advance by one per
/// instruction, so a ring of a few multiples of `rob` is
/// collision-free over that window — O(core window) state instead of
/// the megabyte-scale table a trace-length ring would need.
struct ReadyRing {
    times: Vec<u64>,
    ids: Vec<u32>,
    mask: usize,
}

impl ReadyRing {
    fn new(rob: usize) -> ReadyRing {
        // Exact ROB bound: dispatch of instruction `i` waits for the
        // commit of instruction `i - rob`, so only producers at most
        // `rob` instructions back can still be pending at dispatch.
        // Ids advance by one per instruction but skip the 0 sentinel
        // on wrap, so a producer `k` instructions back differs
        // numerically by `k` or `k + 1` (mod 2^32); with at least
        // `rob + 2` slots neither residue is 0 mod the ring size for
        // any `k` in `1..=rob`, i.e. no pending producer can alias a
        // newer value's slot. `rob_bounded_ready_ring_is_exact`
        // checks this against a trace-length ring.
        ReadyRing::with_size((rob + 2).next_power_of_two())
    }

    fn with_size(size: usize) -> ReadyRing {
        debug_assert!(size.is_power_of_two());
        ReadyRing {
            times: vec![0; size],
            ids: vec![0; size],
            mask: size - 1,
        }
    }

    fn set(&mut self, id: u32, t: u64) {
        let slot = id as usize & self.mask;
        self.times[slot] = t;
        self.ids[slot] = id;
    }

    fn get(&self, id: u32) -> u64 {
        if id == 0 {
            return 0;
        }
        let slot = id as usize & self.mask;
        if self.ids[slot] == id {
            self.times[slot]
        } else {
            0
        }
    }
}

/// Result of simulating one trace on one core.
///
/// `PartialEq` compares all fields exactly; the simulator is
/// deterministic, so streaming and batch runs of the same instruction
/// stream must compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Dynamic instructions simulated.
    pub instrs: u64,
    /// Cycles attributed to front-end stalls (mispredict bubbles).
    pub fe_stall_cycles: u64,
    /// Cycles attributed to back-end stalls (ROB full on dispatch).
    pub be_stall_cycles: u64,
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// DRAM accesses (LLC misses + prefetch fills).
    pub dram_accesses: u64,
    /// Execution time in seconds at the core's frequency.
    pub seconds: f64,
    /// Per-op dynamic instruction histogram (copied from the trace).
    pub by_op: [u64; swan_simd::trace::OP_COUNT],
    /// Per-class dynamic instruction histogram.
    pub by_class: [u64; swan_simd::trace::CLASS_COUNT],
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Front-end stall share of all cycles, in percent (Table 5).
    pub fn fe_stall_pct(&self) -> f64 {
        100.0 * self.fe_stall_cycles as f64 / self.cycles.max(1) as f64
    }

    /// Back-end stall share of all cycles, in percent (Table 5).
    pub fn be_stall_pct(&self) -> f64 {
        100.0 * self.be_stall_cycles as f64 / self.cycles.max(1) as f64
    }

    /// DRAM accesses per cycle — the paper's "main memory access
    /// rate" (§5.3).
    pub fn dram_access_rate(&self) -> f64 {
        self.dram_accesses as f64 / self.cycles.max(1) as f64
    }
}

/// Upper bound on units per functional-unit pool. Fixed-size arrays
/// keep the issue stage's min-scan free of pointer chasing; every
/// registered configuration stays far below this (the widest sweep
/// point has 8 ASIMD units).
const MAX_UNITS: usize = 16;

/// One functional-unit pool: next-free cycle per unit, in a fixed
/// array scanned branch-light at issue.
#[derive(Clone, Copy, Debug)]
struct Pool {
    free_at: [u64; MAX_UNITS],
    n: usize,
}

impl Pool {
    fn new(n: u32) -> Pool {
        assert!(
            (1..=MAX_UNITS as u32).contains(&n),
            "unit pool size {n} outside 1..={MAX_UNITS}"
        );
        Pool {
            free_at: [0; MAX_UNITS],
            n: n as usize,
        }
    }

    /// The unit with the earliest next-free cycle. Strict `<` keeps
    /// the *first* minimum on ties — the same unit the previous
    /// `min_by_key` scan over `Vec` pools picked, so batch results
    /// stay bit-identical to the historical per-instruction path.
    #[inline]
    fn earliest(&self) -> (usize, u64) {
        let mut ui = 0usize;
        let mut best = self.free_at[0];
        for u in 1..self.n {
            let t = self.free_at[u];
            if t < best {
                best = t;
                ui = u;
            }
        }
        (ui, best)
    }
}

/// Per-run scheduler state of the incremental core model. Reset by
/// [`CoreModel::begin_timed`] and [`CoreModel::finalize`]; advanced by
/// the timed phase of [`CoreModel::step_batch`]. This is the entire
/// O(core window) resident state of a measurement — the trace itself
/// is never materialized.
struct Sched {
    ready: ReadyRing,
    // Functional-unit pools, indexed by `Fu as usize`.
    pools: [Pool; FU_COUNT],
    // Fetch group accounting.
    fetch_cycle: u64,
    fetched_in_cycle: u32,
    // Commit accounting (in order).
    commit_cycle: u64,
    committed_in_cycle: u32,
    last_commit: u64,
    // ROB occupancy: commit cycles of the last `rob` instructions;
    // `rob_pos` is the slot of instruction `idx` (`idx % rob`).
    rob_ring: Vec<u64>,
    rob_pos: usize,
    idx: usize,
    last_issue: u64,
    fe_stalls: u64,
    be_stalls: u64,
    be_mark: u64,
    branch_seed: u64,
    // Dynamic-instruction histograms accumulated from the stream.
    by_op: [u64; OP_COUNT],
    by_class: [u64; CLASS_COUNT],
}

impl Sched {
    fn new(cfg: &CoreConfig) -> Sched {
        Sched {
            ready: ReadyRing::new(cfg.rob as usize),
            pools: [
                Pool::new(cfg.scalar_alus),
                Pool::new(cfg.asimd_units),
                Pool::new(cfg.load_units),
                Pool::new(cfg.store_units),
            ],
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            commit_cycle: 0,
            committed_in_cycle: 0,
            last_commit: 0,
            rob_ring: vec![0; cfg.rob as usize],
            rob_pos: 0,
            idx: 0,
            last_issue: 0,
            fe_stalls: 0,
            be_stalls: 0,
            be_mark: 0,
            branch_seed: 0x9e3779b97f4a7c15,
            by_op: [0; OP_COUNT],
            by_class: [0; CLASS_COUNT],
        }
    }

    fn reset(&mut self) {
        self.ready.times.fill(0);
        self.ready.ids.fill(0);
        for p in &mut self.pools {
            p.free_at = [0; MAX_UNITS];
        }
        self.fetch_cycle = 0;
        self.fetched_in_cycle = 0;
        self.commit_cycle = 0;
        self.committed_in_cycle = 0;
        self.last_commit = 0;
        self.rob_ring.fill(0);
        self.rob_pos = 0;
        self.idx = 0;
        self.last_issue = 0;
        self.fe_stalls = 0;
        self.be_stalls = 0;
        self.be_mark = 0;
        self.branch_seed = 0x9e3779b97f4a7c15;
        self.by_op = [0; OP_COUNT];
        self.by_class = [0; CLASS_COUNT];
    }
}

/// Simulation phase of an incremental model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Only the memory reference stream touches the caches (the
    /// paper's pre-measurement cache warming, §4.3).
    Warm,
    /// Full timed scheduling.
    Timed,
}

/// The trace-driven core model (caches persist across runs so a warm-up
/// pass can precede the timed run).
///
/// The model is *incremental*: it consumes a dynamic instruction
/// stream batch by batch, in two phases. [`CoreModel::begin_warm`] +
/// [`CoreModel::warm_batch`] replay the memory references into the
/// caches; [`CoreModel::begin_timed`] + [`CoreModel::step_batch`] run
/// the timed schedule; [`CoreModel::finalize`] returns the result.
/// Where the batch boundaries fall never changes the result.
pub struct CoreModel {
    cfg: CoreConfig,
    caches: CacheHierarchy,
    phase: Phase,
    sched: Sched,
}

impl std::fmt::Debug for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreModel")
            .field("cfg", &self.cfg.name)
            .field("phase", &self.phase)
            .field("instrs", &self.sched.idx)
            .finish()
    }
}

impl CoreModel {
    /// Create a model with cold caches, ready for a timed run.
    pub fn new(cfg: CoreConfig) -> CoreModel {
        let caches = CacheHierarchy::new(&cfg.mem);
        let sched = Sched::new(&cfg);
        CoreModel {
            cfg,
            caches,
            phase: Phase::Timed,
            sched,
        }
    }

    /// The configuration this model simulates.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Test hook: a model with an explicitly sized ready ring, for
    /// checking that the ROB-bounded default ring is exact.
    #[cfg(test)]
    fn with_ready_ring(cfg: CoreConfig, size: usize) -> CoreModel {
        let mut m = CoreModel::new(cfg);
        m.sched.ready = ReadyRing::with_size(size);
        m
    }

    /// Enter the warm-up phase: subsequent [`CoreModel::step_batch`]es
    /// replay only the memory reference stream into the caches (no
    /// timing).
    pub fn begin_warm(&mut self) {
        self.phase = Phase::Warm;
    }

    /// Enter (or restart) the timed phase: scheduler state and cache
    /// *statistics* are reset; cache *contents* persist, so a completed
    /// warm-up pass carries over exactly as in the batch flow.
    pub fn begin_timed(&mut self) {
        self.sched.reset();
        self.caches.reset_stats();
        self.phase = Phase::Timed;
    }

    /// Replay a batch's memory reference stream into the caches — the
    /// warm pass, with no per-instruction phase check. Touches only
    /// cache state; never allocates (see CONTRIBUTING, "The hot
    /// loop").
    pub fn warm_batch(&mut self, batch: &[TraceInstr]) {
        for ins in batch {
            if let Some(m) = ins.mem {
                self.caches.access(m.addr, m.bytes);
            }
        }
    }

    /// Consume a batch of dynamic instructions: one phase dispatch for
    /// the whole slice, then the monomorphic warm or timed loop. This
    /// is the devirtualized fast path the replay engine feeds with
    /// [`swan_simd::EncodedTrace::replay_batches`]-style decoded
    /// arenas; the scheduler state carries across calls, so any split
    /// of a stream into batches gives bit-identical results.
    pub fn step_batch(&mut self, batch: &[TraceInstr]) {
        match self.phase {
            Phase::Warm => self.warm_batch(batch),
            Phase::Timed => self.timed_batch(batch),
        }
    }

    /// The timed hot loop. Loop-invariant configuration reads are
    /// hoisted into the prologue; the body is one `OP_COST` load, the
    /// fixed-array unit min-scan, and the cache walk — no allocation,
    /// no virtual calls, no re-derived invariants (see CONTRIBUTING,
    /// "The hot loop").
    fn timed_batch(&mut self, batch: &[TraceInstr]) {
        let caches = &mut self.caches;
        let s = &mut self.sched;
        // --- prologue: loop-invariant config reads ---
        let decode_width = self.cfg.decode_width;
        let commit_width = self.cfg.commit_width;
        let in_order = self.cfg.in_order;
        let mispredict_per_mille = self.cfg.mispredict_per_mille as u64;
        let mispredict_penalty = self.cfg.mispredict_penalty as u64;
        let rob = s.rob_ring.len();
        let mut rob_pos = s.rob_pos;
        for ins in batch {
            s.by_op[ins.op as usize] += 1;
            s.by_class[ins.class as usize] += 1;

            // --- fetch/decode ---
            if s.fetched_in_cycle >= decode_width {
                s.fetch_cycle += 1;
                s.fetched_in_cycle = 0;
            }
            s.fetched_in_cycle += 1;

            // --- dispatch: ROB space ---
            let rob_free = s.rob_ring[rob_pos];
            let mut dispatch = s.fetch_cycle;
            if rob_free > dispatch {
                // Attribute the blocked interval once (intervals are
                // monotone in program order, so `be_mark` dedups).
                let start = dispatch.max(s.be_mark);
                if rob_free > start {
                    s.be_stalls += rob_free - start;
                }
                s.be_mark = s.be_mark.max(rob_free);
                dispatch = rob_free;
                // Fetch stream also pauses while dispatch is blocked.
                s.fetch_cycle = dispatch;
                s.fetched_in_cycle = 1;
            }

            // --- operand readiness ---
            let mut ready_at = dispatch;
            for i in 0..ins.nsrc as usize {
                ready_at = ready_at.max(s.ready.get(ins.srcs[i]));
            }

            // --- issue: structural hazard on the unit pool ---
            let OpCost { fu, lat, blocking } = OP_COST[ins.op as usize];
            if in_order {
                ready_at = ready_at.max(s.last_issue);
            }
            let (ui, unit_free) = s.pools[fu as usize].earliest();
            let issue = ready_at.max(unit_free);
            s.last_issue = issue;

            // --- execute ---
            let exec_lat = if ins.op.is_load() {
                let m = ins.mem.expect("load without memory reference");
                lat + caches.access(m.addr, m.bytes)
            } else if ins.op.is_store() {
                let m = ins.mem.expect("store without memory reference");
                caches.access(m.addr, m.bytes);
                lat // store buffer hides the cache latency
            } else {
                lat.max(1)
            };
            s.pools[fu as usize].free_at[ui] = issue + if blocking { exec_lat as u64 } else { 1 };
            let complete = issue + exec_lat as u64;
            s.ready.set(ins.dst, complete);

            // --- branch misprediction: front-end bubble ---
            if ins.op == Op::SBranch && ins.nsrc > 0 {
                s.branch_seed = s
                    .branch_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (s.branch_seed >> 33) % 1000 < mispredict_per_mille {
                    let redirect = complete + mispredict_penalty;
                    if redirect > s.fetch_cycle {
                        s.fe_stalls += redirect - s.fetch_cycle;
                        s.fetch_cycle = redirect;
                        s.fetched_in_cycle = 0;
                    }
                }
            }

            // --- commit: in order, width-limited ---
            let mut c = complete.max(s.commit_cycle);
            if c == s.commit_cycle && s.committed_in_cycle >= commit_width {
                c += 1;
            }
            if c > s.commit_cycle {
                s.commit_cycle = c;
                s.committed_in_cycle = 0;
            }
            s.committed_in_cycle += 1;
            s.rob_ring[rob_pos] = c;
            rob_pos += 1;
            if rob_pos == rob {
                rob_pos = 0;
            }
            s.last_commit = c;
            s.idx += 1;
        }
        s.rob_pos = rob_pos;
    }

    /// Finish a timed run: aggregate statistics, reset the scheduler
    /// and cache statistics for the next run. Cache contents persist.
    pub fn finalize(&mut self) -> SimResult {
        let s = &self.sched;
        let cycles = s.last_commit + 1;
        let (l1d, l2, llc) = self.caches.stats();
        let dram = self.caches.dram_accesses();
        let result = SimResult {
            cycles,
            instrs: s.idx as u64,
            fe_stall_cycles: s.fe_stalls.min(cycles),
            be_stall_cycles: s.be_stalls.min(cycles),
            l1d,
            l2,
            llc,
            dram_accesses: dram,
            seconds: self.cfg.cycles_to_seconds(cycles),
            by_op: s.by_op,
            by_class: s.by_class,
        };
        self.caches.reset_stats();
        self.sched.reset();
        self.phase = Phase::Timed;
        result
    }
}

/// Cumulative batch-phase counters of one [`MultiCore`] fan-out:
/// how many decoded batches (and stream instructions) each replay
/// phase consumed. Always on — four `u64` adds per batch are noise
/// next to stepping the batch through N models — and surfaced by
/// `swan_core::profile` as the warm/timed instruction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches consumed during the cache-warming phase.
    pub warm_batches: u64,
    /// Stream instructions replayed during the cache-warming phase.
    pub warm_instrs: u64,
    /// Batches consumed during the timed phase.
    pub timed_batches: u64,
    /// Stream instructions replayed during the timed phase.
    pub timed_instrs: u64,
}

/// Fan-out driving several core models from one instruction stream:
/// each batch is stepped through every model, so N core
/// configurations are measured from a single recorded kernel run.
#[derive(Debug)]
pub struct MultiCore {
    models: Vec<CoreModel>,
    stats: BatchStats,
    timed: bool,
}

impl MultiCore {
    /// Build one cold model per configuration.
    pub fn new(cfgs: &[CoreConfig]) -> MultiCore {
        MultiCore {
            models: cfgs.iter().map(|c| CoreModel::new(c.clone())).collect(),
            stats: BatchStats::default(),
            timed: false,
        }
    }

    /// Batch-phase counters accumulated so far.
    pub fn batch_stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of driven models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the fan-out is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Enter the cache warm-up phase on every model.
    pub fn begin_warm(&mut self) {
        self.timed = false;
        for m in &mut self.models {
            m.begin_warm();
        }
    }

    /// Enter the timed phase on every model.
    pub fn begin_timed(&mut self) {
        self.timed = true;
        for m in &mut self.models {
            m.begin_timed();
        }
    }

    /// Warm every model's caches from one resident decoded batch: the
    /// batch is decoded once and walked N times (the fan-out form of
    /// [`CoreModel::warm_batch`]).
    pub fn warm_batch(&mut self, batch: &[TraceInstr]) {
        self.stats.warm_batches += 1;
        self.stats.warm_instrs += batch.len() as u64;
        for m in &mut self.models {
            m.warm_batch(batch);
        }
    }

    /// Step every model over one resident decoded batch, per its
    /// phase (the fan-out form of [`CoreModel::step_batch`]): decode
    /// once, simulate all N configurations.
    pub fn step_batch(&mut self, batch: &[TraceInstr]) {
        if self.timed {
            self.stats.timed_batches += 1;
            self.stats.timed_instrs += batch.len() as u64;
        } else {
            self.stats.warm_batches += 1;
            self.stats.warm_instrs += batch.len() as u64;
        }
        for m in &mut self.models {
            m.step_batch(batch);
        }
    }

    /// Finish the timed run on every model, in configuration order.
    pub fn finalize(&mut self) -> Vec<SimResult> {
        self.models.iter_mut().map(|m| m.finalize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_simd::trace::{stream_into, Class, MemRef};
    use swan_simd::{RecordSink, TraceSink, VecSink};
    use swan_simd::{Vreg, Width};

    fn trace_of(f: impl FnOnce()) -> Vec<TraceInstr> {
        stream_into(VecSink::default(), f).1.instrs
    }

    /// A timed run with no warm-up pass: whatever the caches already
    /// hold (nothing, for a fresh model) carries over.
    fn timed(m: &mut CoreModel, t: &[TraceInstr]) -> SimResult {
        m.begin_timed();
        m.step_batch(t);
        m.finalize()
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let t = trace_of(|| {
            for _ in 0..4000 {
                swan_simd::scalar::lit(1u32);
                let a = swan_simd::scalar::lit(1u32) + 1u32;
                let _ = a; // 1 SAlu each, all independent
            }
        });
        let r = crate::simulate(&t, &CoreConfig::prime());
        assert!(r.ipc() > 2.5, "independent ALU IPC {} too low", r.ipc());
        assert!(r.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        let t = trace_of(|| {
            let mut a = swan_simd::scalar::lit(1u32);
            for _ in 0..4000 {
                a = a * a; // SMul latency 3, serial chain
            }
        });
        let r = crate::simulate(&t, &CoreConfig::prime());
        assert!(r.ipc() < 0.5, "dependent multiply chain IPC {}", r.ipc());
        assert!(r.cycles >= 3 * 4000);
    }

    #[test]
    fn more_asimd_units_help_only_parallel_code() {
        // 8 independent vector accumulator chains: ILP of 8.
        let parallel = trace_of(|| {
            let w = Width::W128;
            let mut acc: Vec<Vreg<i32>> = (0..8).map(|_| Vreg::zero(w)).collect();
            let one = Vreg::<i32>::splat(w, 1);
            for _ in 0..1000 {
                for a in acc.iter_mut() {
                    *a = a.add(one);
                }
            }
        });
        let serial = trace_of(|| {
            let w = Width::W128;
            let mut a = Vreg::<i32>::zero(w);
            let one = Vreg::<i32>::splat(w, 1);
            for _ in 0..8000 {
                a = a.add(one);
            }
        });
        let two_v = crate::simulate(&parallel, &CoreConfig::sweep(8, 2));
        let eight_v = crate::simulate(&parallel, &CoreConfig::sweep(8, 8));
        let speedup_parallel = two_v.cycles as f64 / eight_v.cycles as f64;
        assert!(
            speedup_parallel > 1.5,
            "parallel code should scale with units: {speedup_parallel}"
        );

        let two_s = crate::simulate(&serial, &CoreConfig::sweep(8, 2));
        let eight_s = crate::simulate(&serial, &CoreConfig::sweep(8, 8));
        let speedup_serial = two_s.cycles as f64 / eight_s.cycles as f64;
        assert!(
            speedup_serial < 1.1,
            "serial chain must not scale with units: {speedup_serial}"
        );
    }

    #[test]
    fn narrow_decode_caps_wide_backend() {
        // 16 independent latency-2 chains need 8 issues/cycle to
        // saturate: decode width 4 halves the achievable rate.
        let t = trace_of(|| {
            let w = Width::W128;
            let mut acc: Vec<Vreg<i32>> = (0..16).map(|_| Vreg::zero(w)).collect();
            let one = Vreg::<i32>::splat(w, 1);
            for _ in 0..1000 {
                for a in acc.iter_mut() {
                    *a = a.add(one);
                }
            }
        });
        let w4v8 = crate::simulate(&t, &CoreConfig::sweep(4, 8));
        let w8v8 = crate::simulate(&t, &CoreConfig::sweep(8, 8));
        assert!(
            w8v8.cycles * 3 < w4v8.cycles * 2,
            "8-wide decode should clearly beat 4-wide with 8 units: {} vs {}",
            w8v8.cycles,
            w4v8.cycles
        );
        // 4W can feed at most 4 IPC.
        assert!(w4v8.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn in_order_never_faster_than_out_of_order() {
        let t = trace_of(|| {
            let data: Vec<i32> = (0..4096).collect();
            let w = Width::W128;
            let mut acc = Vreg::<i32>::zero(w);
            for off in (0..4096).step_by(4) {
                let v = Vreg::load(w, &data, off);
                acc = acc.add(v.mul(v));
            }
            std::hint::black_box(acc.lane_value(0));
        });
        let mut ooo_cfg = CoreConfig::prime();
        ooo_cfg.mispredict_per_mille = 0;
        let mut ino_cfg = ooo_cfg.clone();
        ino_cfg.in_order = true;
        let ooo = crate::simulate(&t, &ooo_cfg);
        let ino = crate::simulate(&t, &ino_cfg);
        assert!(ino.cycles >= ooo.cycles);
    }

    #[test]
    fn cache_misses_show_up_as_backend_stalls() {
        // Strided walk: every access a fresh line, far beyond the LLC,
        // with each load feeding the next (pointer-chase style).
        let t: Vec<TraceInstr> = (0..20_000u32)
            .map(|i| TraceInstr {
                op: Op::SLoad,
                class: Class::SInt,
                dst: i + 1,
                srcs: [i, 0, 0, 0],
                nsrc: 1,
                mem: Some(MemRef {
                    addr: (i as u64).wrapping_mul(997) * 64,
                    bytes: 4,
                }),
            })
            .collect();
        let mut cfg = CoreConfig::prime();
        cfg.mem.prefetch_degree = 0;
        let r = timed(&mut CoreModel::new(cfg), &t);
        assert!(r.llc.misses > 10_000, "LLC misses {}", r.llc.misses);
        assert!(r.ipc() < 0.1, "pointer-chase IPC {}", r.ipc());
        assert!(r.be_stall_pct() > 50.0, "BE stalls {}", r.be_stall_pct());
    }

    #[test]
    fn simulated_seconds_track_frequency() {
        let t = trace_of(|| {
            let mut a = swan_simd::scalar::lit(1u32);
            for _ in 0..1000 {
                a = a + 1u32;
            }
        });
        let prime = crate::simulate(&t, &CoreConfig::prime());
        let gold = crate::simulate(&t, &CoreConfig::gold());
        assert_eq!(prime.cycles, gold.cycles, "same uarch, same cycles");
        assert!(
            prime.seconds < gold.seconds,
            "2.8GHz beats 2.4GHz wall-clock"
        );
    }

    #[test]
    fn empty_trace() {
        let r = crate::simulate(&[], &CoreConfig::prime());
        assert_eq!(r.instrs, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn load_dependency_delays_consumer() {
        // load -> add chain vs independent add: the chain must be
        // at least L1-latency slower per pair.
        let buf = vec![0u32; 1024];
        let dep = trace_of(|| {
            for i in 0..1000 {
                let v = swan_simd::scalar::load(&buf, i % 1024);
                let _ = v + 1u32;
            }
        });
        let r = crate::simulate(&dep, &CoreConfig::prime());
        // Loads hit L1 (warm): 4-cycle latency but pipelined across
        // iterations, so IPC stays decent yet below the ALU-only peak.
        assert!(r.ipc() > 1.0);
    }

    /// A mixed trace exercising dependences, memory, branches, and
    /// every structural hazard path.
    fn mixed_trace() -> Vec<TraceInstr> {
        let data: Vec<i32> = (0..8192).collect();
        let mut out = vec![0i32; 8192];
        trace_of(|| {
            let w = Width::W128;
            let mut acc = Vreg::<i32>::zero(w);
            for off in (0..8192).step_by(4) {
                let v = Vreg::load(w, &data, off);
                acc = acc.add(v.mul(v));
                v.store(&mut out, off);
                let i = swan_simd::scalar::lit(off as u32);
                let _ = i + 4u32;
            }
            std::hint::black_box(acc.lane_value(0));
        })
    }

    #[test]
    fn multicore_fanout_matches_independent_models() {
        let t = mixed_trace();
        let cfgs = [
            CoreConfig::prime(),
            CoreConfig::gold(),
            CoreConfig::silver(),
        ];
        let solo: Vec<SimResult> = cfgs.iter().map(|c| crate::simulate(&t, c)).collect();
        let mut multi = MultiCore::new(&cfgs);
        multi.begin_warm();
        for b in t.chunks(8192) {
            multi.warm_batch(b);
        }
        multi.begin_timed();
        for b in t.chunks(8192) {
            multi.step_batch(b);
        }
        assert_eq!(solo, multi.finalize());
    }

    #[test]
    fn rob_bounded_ready_ring_is_exact() {
        // Dependence distances far beyond the ring: a splat constant
        // referenced by every instruction of a long chain, plus the
        // mixed trace. The ROB-sized ring must reproduce a
        // trace-length ring bit for bit (producers older than the ROB
        // window have always completed by dispatch).
        let data: Vec<i32> = (0..4096).collect();
        let long_range = trace_of(|| {
            let w = Width::W128;
            let one = Vreg::<i32>::splat(w, 1);
            let mut a = Vreg::<i32>::zero(w);
            for off in (0..40_000).step_by(4) {
                let v = Vreg::load(w, &data, off % 4096);
                a = a.add(one).add(v);
            }
            std::hint::black_box(a.lane_value(0));
        });
        for t in [&long_range, &mixed_trace()] {
            for cfg in [CoreConfig::prime(), CoreConfig::silver()] {
                let small = crate::simulate(t, &cfg);
                let mut big = CoreModel::with_ready_ring(cfg.clone(), 1 << 20);
                big.begin_warm();
                big.warm_batch(t);
                assert_eq!(small, timed(&mut big, t), "cfg {}", cfg.name);
            }
        }
    }

    #[test]
    fn op_tags_index_the_cost_table() {
        // OP_COST[op as usize] must be op's cost: the discriminants
        // must equal the Op::ALL positions (the same invariant the
        // codec's one-byte op encoding relies on).
        for (i, &op) in Op::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn batch_boundaries_never_change_results() {
        // Single-instruction batches, awkward sizes, and different
        // splits between the warm and timed passes must all equal one
        // whole-stream batch per pass.
        let t = mixed_trace();
        for cfg in [
            CoreConfig::prime(),
            CoreConfig::silver(),
            CoreConfig::sweep(8, 8),
        ] {
            let whole = crate::simulate(&t, &cfg);
            for (warm_cap, timed_cap) in [(1, 1), (7, 13), (8192, 1)] {
                let mut m = CoreModel::new(cfg.clone());
                m.begin_warm();
                for chunk in t.chunks(warm_cap) {
                    m.step_batch(chunk);
                }
                m.begin_timed();
                for chunk in t.chunks(timed_cap) {
                    m.step_batch(chunk);
                }
                assert_eq!(
                    whole,
                    m.finalize(),
                    "cfg {} batches {warm_cap}/{timed_cap}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn recorded_batches_match_the_live_stream_at_any_capacity() {
        // The executor's actual fast path: a recorded stream decoded
        // into batches feeding MultiCore::warm_batch/step_batch must
        // equal simulating the live stream directly, including the
        // expansion of a bulk overhead run, whatever the arena size.
        let t = mixed_trace();
        let mut rec = RecordSink::new();
        let mut live = VecSink::default();
        for ins in &t {
            rec.on_instr(ins);
            live.on_instr(ins);
        }
        rec.on_overhead(Op::SBranch, Class::SInt, 424242, 1000);
        live.on_overhead(Op::SBranch, Class::SInt, 424242, 1000);
        let enc = rec.finish();
        let cfgs = [
            CoreConfig::prime(),
            CoreConfig::gold(),
            CoreConfig::silver(),
        ];
        let solo: Vec<SimResult> = cfgs
            .iter()
            .map(|c| crate::simulate(&live.instrs, c))
            .collect();
        for cap in [1usize, 33, 8192] {
            let mut batched = MultiCore::new(&cfgs);
            batched.begin_warm();
            enc.replay_batches_with(cap, |b| batched.warm_batch(b));
            batched.begin_timed();
            enc.replay_batches_with(cap, |b| batched.step_batch(b));
            assert_eq!(solo, batched.finalize(), "cap {cap}");
        }
    }

    #[test]
    fn model_is_reusable_after_finalize() {
        let t = mixed_trace();
        let mut m = CoreModel::new(CoreConfig::prime());
        let first = timed(&mut m, &t);
        // Second run on a warmed cache: deterministic, and not slower
        // bookkeeping-wise (same instruction count).
        let second = timed(&mut m, &t);
        assert_eq!(first.instrs, second.instrs);
        assert!(
            second.cycles <= first.cycles,
            "warmed rerun can't be slower"
        );
        // A cold model warmed explicitly reproduces the warmed rerun.
        assert_eq!(crate::simulate(&t, &CoreConfig::prime()), second);
    }
}

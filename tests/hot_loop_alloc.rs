//! Hot-loop rule 3 (docs/PERFORMANCE.md): no allocation inside the
//! batch loop. A counting global allocator watches `warm_batch` and
//! `step_batch` on the three-core fan-out while a hand-built stream
//! touches more distinct lines than the last-level cache holds, so
//! every set of every level fills and evicts. All cache and scheduler
//! state must have been allocated when the models were built. The
//! same holds for the loop that warms the cores while a kernel
//! records: a `WarmingSink` allocates its arena of memory references
//! when it is built and nothing while it is fed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swan_core::WarmingSink;
use swan_simd::trace::{Class, HashSink, MemRef, TraceSink, DEFAULT_BATCH_INSTRS};
use swan_simd::{Op, TraceInstr};
use swan_uarch::{CoreConfig, MultiCore};

/// Counts allocations made by threads that opted in, per thread, so
/// neither the test harness's own threads nor a test running
/// alongside show up in a count.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread-locals without destructors, which do not
// allocate. The default `alloc_zeroed` and `realloc`
// go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));
    after - before
}

fn instr(op: Op, class: Class, dst: u32, src: u32, mem: Option<MemRef>) -> TraceInstr {
    TraceInstr {
        op,
        class,
        dst,
        srcs: [src, 0, 0, 0],
        nsrc: u8::from(src != 0),
        mem,
    }
}

/// A load, an add and a store per line over `lines` consecutive
/// 64-byte lines (the stores into a second region of the same size),
/// plus a dependent branch per line so the mispredict path runs too.
fn sweep(lines: u64) -> Vec<TraceInstr> {
    let mut out = Vec::new();
    let mut id = 1;
    for l in 0..lines {
        let addr = l * 64;
        out.push(instr(
            Op::VLd1,
            Class::VLoad,
            id,
            0,
            Some(MemRef { addr, bytes: 16 }),
        ));
        out.push(instr(Op::VAlu, Class::VInt, id + 1, id, None));
        out.push(instr(
            Op::VSt1,
            Class::VStore,
            0,
            id + 1,
            Some(MemRef {
                addr: addr + (lines << 6) + 8,
                bytes: 32,
            }),
        ));
        out.push(instr(Op::SBranch, Class::SInt, 0, id + 1, None));
        id += 2;
    }
    out
}

#[test]
fn warm_and_timed_batches_never_allocate() {
    let prime = CoreConfig::prime();
    let llc = &prime.mem.llc;
    let llc_lines = (llc.size / llc.line) as u64;
    let stream = sweep(llc_lines + llc_lines / 4);
    let mut multi = MultiCore::new(&[prime, CoreConfig::gold(), CoreConfig::silver()]);

    let warm = allocations_during(|| {
        multi.begin_warm();
        for batch in stream.chunks(4096) {
            multi.warm_batch(batch);
        }
    });
    let timed = allocations_during(|| {
        multi.begin_timed();
        for batch in stream.chunks(4096) {
            multi.step_batch(batch);
        }
    });
    let results = multi.finalize();

    assert_eq!(warm, 0, "allocations during begin_warm + warm_batch");
    assert_eq!(timed, 0, "allocations during begin_timed + step_batch");
    for r in &results {
        assert_eq!(r.instrs, stream.len() as u64);
        // The sweep outgrows the LLC, so the timed pass refetches
        // every line from DRAM: every set filled and evicted.
        assert!(
            r.dram_accesses > llc_lines,
            "{} DRAM accesses for a {llc_lines}-line LLC",
            r.dram_accesses
        );
    }
}

#[test]
fn warming_sink_never_allocates_after_construction() {
    // Four instructions per line: six batches' worth of the sweep.
    let stream = sweep(DEFAULT_BATCH_INSTRS as u64 * 3 / 2);
    const RUN: u64 = 300;
    let cores = MultiCore::new(&[
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ]);
    let mut sink = WarmingSink::new(HashSink::new(), cores);

    let fed = allocations_during(|| {
        // The overhead run starts 100 instructions before the first
        // batch edge and ends past it.
        let (head, tail) = stream.split_at(DEFAULT_BATCH_INSTRS - 100);
        for ins in head {
            sink.on_instr(ins);
        }
        sink.on_overhead(Op::SAlu, Class::SInt, 1 << 20, RUN);
        for ins in tail {
            sink.on_instr(ins);
        }
    });
    let (hash, cores) = sink.finish();

    assert_eq!(fed, 0, "allocations while feeding the warming sink");
    let total = stream.len() as u64 + RUN;
    assert!(total >= 5 * DEFAULT_BATCH_INSTRS as u64, "{total} instrs");
    assert_eq!(hash.count(), total, "every call reaches the recorder");
    let stats = cores.batch_stats();
    assert_eq!(
        stats.warm_instrs, total,
        "every instruction warms the cores"
    );
    assert_eq!(
        stats.warm_batches,
        total.div_ceil(DEFAULT_BATCH_INSTRS as u64),
        "full batches, then one partial"
    );
}

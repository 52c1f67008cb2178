//! Hot-loop rule 3 (docs/PERFORMANCE.md): no allocation inside the
//! batch loop. A counting global allocator watches `warm_batch` and
//! `step_batch` on the three-core fan-out while a hand-built stream
//! touches more distinct lines than the last-level cache holds, so
//! every set of every level fills and evicts. All cache and scheduler
//! state must have been allocated when the models were built. The
//! same holds for the loop that warms the cores while a kernel
//! records: a `WarmingSink` allocates its arena of memory references
//! when it is built and nothing while it is fed, with a recorder behind
//! it or none (the live warm pass). The live timed pass's `TimedSink`
//! allocates its batch arena when it is built and nothing while it
//! steps the cores and hands batches on. And the tracer stages
//! the sources and literal bytes of the intrinsics it records on the
//! stack, so tracing them allocates nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swan_core::{TimedSink, WarmingSink};
use swan_simd::trace::stream_into_at;
use swan_simd::trace::{Class, HashSink, MemRef, TraceSink, DEFAULT_BATCH_INSTRS};
use swan_simd::{Op, TraceInstr, Vreg, Width};
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

/// Length of the overhead run `feed` puts across the first batch edge.
const RUN: u64 = 300;

/// Feed `stream` into `sink` with an overhead run of `RUN`
/// instructions that starts 100 instructions before the first batch
/// edge and ends past it.
fn feed(sink: &mut impl TraceSink, stream: &[TraceInstr]) {
    let (head, tail) = stream.split_at(DEFAULT_BATCH_INSTRS - 100);
    for ins in head {
        sink.on_instr(ins);
    }
    sink.on_overhead(Op::SAlu, Class::SInt, 1 << 20, RUN);
    for ins in tail {
        sink.on_instr(ins);
    }
}

fn three_cores() -> MultiCore {
    MultiCore::new(&[
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ])
}

#[test]
fn warming_sink_never_allocates_after_construction() {
    // Four instructions per line: six batches' worth of the sweep.
    let stream = sweep(DEFAULT_BATCH_INSTRS as u64 * 3 / 2);
    let mut sink = WarmingSink::new(HashSink::new(), three_cores());
    let fed = allocations_during(|| feed(&mut sink, &stream));
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

#[test]
fn live_warm_and_timed_passes_never_allocate_after_construction() {
    let stream = sweep(DEFAULT_BATCH_INSTRS as u64 * 3 / 2);
    let total = stream.len() as u64 + RUN;
    let batches = total.div_ceil(DEFAULT_BATCH_INSTRS as u64);

    // The warm pass with no recorder behind it.
    let mut warm = WarmingSink::unrecorded(three_cores());
    let warm_fed = allocations_during(|| feed(&mut warm, &stream));
    let ((), cores) = warm.finish();
    // The timed pass, stepping the warmed cores and hashing each batch.
    let mut timed = TimedSink::new(HashSink::new(), cores);
    let timed_fed = allocations_during(|| feed(&mut timed, &stream));
    let (hash, mut cores) = timed.finish();

    assert_eq!(warm_fed, 0, "allocations while feeding the live warm pass");
    assert_eq!(timed_fed, 0, "allocations while feeding the timed sink");
    assert_eq!(hash.count(), total, "the observer sees every instruction");
    let stats = cores.batch_stats();
    assert_eq!((stats.warm_instrs, stats.warm_batches), (total, batches));
    assert_eq!(
        (stats.timed_instrs, stats.timed_batches),
        (total, batches),
        "full batches, then one partial"
    );
    for r in cores.finalize() {
        assert_eq!(r.instrs, total);
    }
}

#[test]
fn traced_literals_strided_stores_and_table_lookups_never_allocate() {
    for w in [Width::W128, Width::W1024] {
        let n = w.lanes::<u8>();
        let lanes: Vec<u8> = (0..n).map(|i| i as u8).collect();
        let mut dst = vec![0u8; 4 * n];
        let (_, hash, allocs) = stream_into_at(w, HashSink::new(), || {
            swan_simd::with_buffers!(dst);
            // The literal pool allocates its key on the first miss only.
            let a = Vreg::<u8>::from_lanes(w, &lanes);
            let b = a.add(a);
            allocations_during(|| {
                let c = Vreg::<u8>::from_lanes(w, &lanes);
                Vreg::store2(&[a, c], &mut dst, 0);
                Vreg::store3(&[a, b, c], &mut dst, 0);
                Vreg::store4(&[a, b, c, a], &mut dst, 0);
                let t = Vreg::tbl(&[a, b, c, a], c);
                t.store(&mut dst, 0);
            })
        });
        assert_eq!(allocs, 0, "allocations while tracing at {w}");
        assert_eq!(hash.count(), 8, "every traced instruction reached the sink");
    }
}

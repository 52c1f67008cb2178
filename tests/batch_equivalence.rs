//! Batch-step equivalence: the devirtualized hot loop must be
//! invisible in the results.
//!
//! The replay engine decodes recorded streams into resident
//! instruction batches (`replay_batches`) and steps them through
//! monomorphic `warm_batch`/`step_batch` loops. The model carries its
//! scheduler state across calls, so where the batch boundaries fall
//! must never matter. These tests hold single-instruction, odd-sized
//! and full-arena splits of one stream per library to exact
//! `SimResult` equality with the recording's own arenas — every core
//! the stream fans out to — and pin the double-buffered (threaded)
//! store replay to the in-memory batch path bit for bit. The golden
//! suite pins the batch path across the whole plan, so one stream per
//! library is enough to catch a batch-boundary divergence.

use swan_core::{
    execution_groups, filter_plan, plan, record_group, Scale, ScenarioFilter, TraceStore,
};
use swan_simd::trace::{HashSink, TraceSink};
use swan_simd::TraceInstr;
use swan_uarch::{CoreConfig, MultiCore, SimResult};

const GOLDEN_SEED: u64 = 42;

/// Warm + timed batch replay of a recording through one model per
/// config, returning the finalized results.
fn run_batched(rec: &mut swan_core::GroupRecording, cfgs: &[CoreConfig]) -> Vec<SimResult> {
    let mut multi = MultiCore::new(cfgs);
    multi.begin_warm();
    rec.replay_batches(|b| multi.warm_batch(b));
    multi.begin_timed();
    rec.replay_batches(|b| multi.step_batch(b));
    multi.finalize()
}

/// Warm + timed replay of a decoded stream, split into batches of
/// `warm_cap` and `timed_cap` instructions.
fn run_split(
    stream: &[TraceInstr],
    cfgs: &[CoreConfig],
    warm_cap: usize,
    timed_cap: usize,
) -> Vec<SimResult> {
    let mut multi = MultiCore::new(cfgs);
    multi.begin_warm();
    for b in stream.chunks(warm_cap) {
        multi.warm_batch(b);
    }
    multi.begin_timed();
    for b in stream.chunks(timed_cap) {
        multi.step_batch(b);
    }
    multi.finalize()
}

/// Batches of 1, 7 and 8192 instructions — each used once for the warm
/// pass and once for the timed pass — equal the recording's own
/// `replay_batches` arenas, `SimResult` field for field, on the
/// Neon@128 stream of each library's first kernel (one scenario group
/// per library, replayed into every core of the group — the Figure
/// 5(b) sweep included for representatives).
#[test]
fn batch_boundaries_never_change_results_on_one_stream_per_library() {
    let kernels = swan_kernels::all_kernels();
    let neon = ScenarioFilter::parse("impl=neon,width=128").expect("filter");
    let scenarios = filter_plan(&plan(&kernels, Scale::test(), GOLDEN_SEED), &[neon]);
    let mut libraries = std::collections::HashSet::new();
    let groups: Vec<Vec<usize>> = execution_groups(&scenarios)
        .into_iter()
        .filter(|g| libraries.insert(kernels[scenarios[g[0]].kernel].meta().library))
        .collect();
    assert_eq!(groups.len(), 12, "one stream group per library");
    for group in groups {
        let sc0 = &scenarios[group[0]];
        let mut rec = record_group(
            kernels[sc0.kernel].as_ref(),
            sc0.imp,
            sc0.width,
            sc0.scale,
            sc0.seed,
            None,
        );
        let cfgs: Vec<CoreConfig> = group.iter().map(|&i| scenarios[i].core.config()).collect();
        let reference = run_batched(&mut rec, &cfgs);
        let mut stream = Vec::new();
        rec.replay_batches(|b| stream.extend_from_slice(b));
        assert_eq!(stream.len() as u64, rec.data.total());
        for (warm_cap, timed_cap) in [(1, 7), (7, 8192), (8192, 1)] {
            assert_eq!(
                reference,
                run_split(&stream, &cfgs, warm_cap, timed_cap),
                "{}: batches of {warm_cap} (warm) / {timed_cap} (timed) diverged \
                 from the recording's arenas",
                sc0.stream_id()
            );
        }
    }
}

/// Double-buffered store replay: a recording replayed from a chunked
/// trace-store file (decoder thread running ahead of the simulating
/// thread, small chunk budget so every batch crosses several chunk
/// frames) must produce the same instruction stream — same FNV digest,
/// same count — and the same `SimResult`s as the in-memory batch path.
#[test]
fn double_buffered_store_replay_matches_in_memory_batches() {
    const BUDGET: usize = 2048;
    let kernels = swan_kernels::all_kernels();
    let k = kernels
        .iter()
        .find(|k| k.meta().id() == "ZL.adler32")
        .expect("ZL.adler32");
    let cfgs = [
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ];

    // In-memory reference recording.
    let mut mem = record_group(
        k.as_ref(),
        swan_core::Impl::Neon,
        swan_simd::Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        None,
    );
    assert!(!mem.from_store());
    let mut mem_hash = HashSink::new();
    mem.replay_batches(|b| {
        for ins in b {
            mem_hash.on_instr(ins);
        }
    });
    let mem_sims = run_batched(&mut mem, &cfgs);

    // Store-backed: record once (cold), then replay from the verified
    // on-disk entry (warm hit) through the double-buffered decoder.
    let dir = std::env::temp_dir().join(format!("swan-batch-equiv-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir, &kernels)
        .expect("open trace store")
        .chunk_budget(BUDGET);
    let cold = record_group(
        k.as_ref(),
        swan_core::Impl::Neon,
        swan_simd::Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        Some(&store),
    );
    assert!(cold.from_store(), "cold recording spills into the store");
    let mut warm = record_group(
        k.as_ref(),
        swan_core::Impl::Neon,
        swan_simd::Width::W128,
        Scale::quick(),
        GOLDEN_SEED,
        Some(&store),
    );
    assert!(warm.from_store(), "second lookup must hit the store");
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let mut store_hash = HashSink::new();
    warm.replay_batches(|b| {
        for ins in b {
            store_hash.on_instr(ins);
        }
    });
    assert_eq!(
        (mem_hash.digest(), mem_hash.count()),
        (store_hash.digest(), store_hash.count()),
        "double-buffered store replay must yield the identical stream"
    );
    assert!(
        mem_hash.count() as usize > 100 * BUDGET / 64,
        "the stream must span many chunks at this budget"
    );
    let store_sims = run_batched(&mut warm, &cfgs);
    assert_eq!(
        mem_sims, store_sims,
        "store-backed batch simulation must equal in-memory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

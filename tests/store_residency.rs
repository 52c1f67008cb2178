//! Trace-store residency: recording through a store keeps O(chunk
//! budget) bytes resident. The assertions read the process-wide
//! `codec::recorded_totals()`, whose `resident_peak` is a maximum over
//! every recorder the process ever ran; a test that spills at the
//! default 64 KiB budget would raise it past this test's 4 KiB budget.
//! So this test lives alone in its own binary.

use swan::prelude::*;

/// Record one W128 group (through `store` when given) and replay it
/// into `cfgs` — the executor's per-group body.
fn fan_out(
    kernel: &dyn Kernel,
    imp: Impl,
    cfgs: &[CoreConfig],
    scale: Scale,
    seed: u64,
    store: Option<&swan_core::TraceStore>,
) -> Vec<swan_core::Measurement> {
    let mut rec = swan_core::record_group(kernel, imp, Width::W128, scale, seed, store);
    swan_core::measure_recorded(&mut rec, cfgs, 1.0)
}

/// Store memory bound: recording a scenario group *through a trace
/// store* spills the encoding chunk by chunk, so the resident
/// recording state is O(chunk budget) — not O(stream) like the
/// in-memory path — and a warm-store replay performs no functional
/// execution while measuring bit-identically. So at full paper scale,
/// per-worker replay buffers do not grow with the stream.
#[test]
fn store_backed_recording_is_chunk_resident_and_bit_identical() {
    const BUDGET: usize = 4096;
    // One encoded record is at most a few dozen bytes; the chunk
    // buffer may overshoot the budget by at most one record.
    const RECORD_SLACK: u64 = 128;

    let kernels = swan::suite();
    let kernel = kernels
        .iter()
        .find(|k| k.meta().id() == "ZL.adler32")
        .expect("ZL.adler32");
    let dir = std::env::temp_dir().join(format!("swan-residency-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = swan_core::TraceStore::open(&dir, &kernels)
        .expect("open trace store")
        .chunk_budget(BUDGET);
    let cfgs = [
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ];

    // This is the only test in its binary, so the process-wide spill
    // counters, `resident_peak` included, see this store's recorders
    // and nothing else.
    let before = swan_simd::trace::codec::recorded_totals();
    let cold = fan_out(
        kernel.as_ref(),
        Impl::Scalar,
        &cfgs,
        Scale::quick(),
        42,
        Some(&store),
    );
    let after = swan_simd::trace::codec::recorded_totals();
    let spilled = after.spilled_bytes - before.spilled_bytes;
    assert!(
        spilled > 10 * BUDGET as u64,
        "the group's stream ({spilled} encoded bytes) must span many chunks"
    );
    assert!(
        after.resident_peak <= BUDGET as u64 + RECORD_SLACK,
        "resident recording state must be O(chunk budget): peak {} vs budget {BUDGET}",
        after.resident_peak
    );
    assert!(
        after.resident_peak * 8 < spilled,
        "O(chunk) residency, not O(stream): peak {} vs {spilled} spilled",
        after.resident_peak
    );

    // Warm-store replay: zero functional executions (all hits), same
    // bits as the storeless in-memory flow.
    let warm = fan_out(
        kernel.as_ref(),
        Impl::Scalar,
        &cfgs,
        Scale::quick(),
        42,
        Some(&store),
    );
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    let memory = fan_out(
        kernel.as_ref(),
        Impl::Scalar,
        &cfgs,
        Scale::quick(),
        42,
        None,
    );
    for ((c, w), m) in cold.iter().zip(&warm).zip(&memory) {
        assert_eq!(c.sim, w.sim, "cold == warm");
        assert_eq!(w.sim, m.sim, "store == memory");
        assert_eq!(c.trace.by_op, m.trace.by_op);
        assert_eq!(c.work_ops, m.work_ops);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

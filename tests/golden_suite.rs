//! Golden-suite regression gate.
//!
//! The address-virtualized tracer promises that a given scenario —
//! (kernel, implementation, width, core, scale, seed) — produces a
//! bit-identical dynamic instruction stream, including every memory
//! address, on every run, every process, and every machine. These
//! tests hold the *full scenario matrix* (per-width and per-core, not
//! just Prime at 128-bit) to that promise and pin the results to the
//! committed `tests/golden/suite.json` baseline, so any change to
//! kernels, tracer, or timing model shows up as a reviewable diff
//! (regenerate with `swan-report --write-golden tests/golden/suite.json`).

use swan_core::{golden, plan, Impl, Kernel, Scale, TraceStore};
use swan_simd::trace::stream_into;
use swan_simd::{TraceData, TraceInstr, VecSink, Width};

/// The committed baseline's parameters: quick scale, seed 42.
const GOLDEN_SEED: u64 = 42;

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite.json")
}

/// The tables that need no simulation — Table 2, Table 3 and the §6
/// pattern census — print exactly the committed bytes. This pins the
/// table renderer itself: right alignment, the two-space separators,
/// the dashed rule, Table 3's text cells, and column widths counted in
/// bytes (each `§` is two bytes, so the pattern column is one space
/// wider than its longest label).
#[test]
fn static_tables_match_committed_text() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_swan-report"))
        .args(["--quick", "tab2", "tab3", "patterns"])
        .output()
        .expect("spawn swan-report");
    assert!(out.status.success(), "swan-report failed: {out:?}");
    let want = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/static_tables.txt"),
    )
    .expect("read tests/golden/static_tables.txt");
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs", i + 1);
    }
    assert_eq!(got, want, "static tables differ");
}

/// The full scenario campaign, run twice in-process — once against a
/// *cold* persistent trace store (every group recorded to disk) and
/// once against the now-*warm* store (every group replayed from disk,
/// zero functional executions) — must be byte-identical: trace
/// digests (covering every instruction field and address) and
/// cycle/cache statistics alike, with every memory reference resolved
/// through a registered buffer. Both must match the committed
/// baseline exactly, one entry per planned scenario — and the
/// baseline was generated with *no* store, so this pins the cardinal
/// invariant that cold-store, warm-store, and store-disabled
/// campaigns agree on all 485 scenarios.
#[test]
fn golden_suite_reproduces_and_matches_baseline() {
    let kernels = swan_kernels::all_kernels();
    let scale = Scale::quick();

    let dir = std::env::temp_dir().join(format!("swan-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir, &kernels).expect("open trace store");

    let matrix = plan(&kernels, scale, GOLDEN_SEED);
    let first = golden::collect(&kernels, &matrix, 1, Some(&store), |_| {}).expect("collect");
    let cold = store.stats();
    assert_eq!(cold.hits, 0, "first campaign runs against a cold store");
    assert!(cold.inserts > 0 && cold.inserts == cold.misses);

    let second = golden::collect(&kernels, &matrix, 1, Some(&store), |_| {}).expect("collect");
    let warm = store.stats();
    assert_eq!(
        warm.misses, cold.misses,
        "second campaign must be all hits (no new misses)"
    );
    assert_eq!(warm.hits, cold.inserts, "one hit per stored group");
    assert_eq!(warm.corrupt_replaced, 0);
    assert_eq!(
        first, second,
        "cold-store and warm-store campaigns must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The baseline covers the whole plan, keyed by scenario id: every
    // kernel × {Scalar, Auto, Neon} × its widths × its cores.
    assert_eq!(first.len(), matrix.len(), "one entry per planned scenario");
    for (e, sc) in first.iter().zip(&matrix) {
        assert_eq!(e.id, sc.id(), "entries follow canonical plan order");
    }
    for e in &first {
        assert_eq!(
            e.fallback_refs, 0,
            "{}: every traced access must hit a registered buffer \
             (a fallback means the kernel forgot a with_buffers! entry)",
            e.id
        );
    }

    let actual = golden::to_json(scale, GOLDEN_SEED, &first);
    let expected = std::fs::read_to_string(baseline_path())
        .expect("committed baseline tests/golden/suite.json");
    if let Some(d) = golden::diff(&expected, &actual, 40) {
        panic!(
            "campaign drifted from the committed golden baseline:\n{d}\
             regenerate with `swan-report --write-golden tests/golden/suite.json` \
             if the change is intended"
        );
    }
}

/// One fresh instance's histograms and complete dynamic trace, streamed
/// into memory.
fn materialize(kernel: &dyn Kernel, imp: Impl) -> (TraceData, Vec<TraceInstr>) {
    let mut inst = kernel.instantiate(Scale::test(), 9);
    let (data, trace, ()) = stream_into(VecSink::default(), || inst.run(imp, Width::W128));
    (data, trace.instrs)
}

/// The stronger form of trace byte-identity for a representative
/// sample: the *complete materialized* trace — every `TraceInstr`
/// including virtualized addresses — is equal across two fresh
/// instantiations, which is exactly what host-layout
/// independence means (the second instance's buffers live at
/// different host addresses).
#[test]
fn materialized_traces_are_instantiation_independent() {
    let kernels = swan_kernels::all_kernels();
    for id in ["ZL.crc32", "BS.aes128_ctr", "XP.gemm_f32", "PF.fft_forward"] {
        let kernel = kernels
            .iter()
            .find(|k| k.meta().id() == id)
            .expect("representative kernel");
        for imp in [Impl::Scalar, Impl::Neon] {
            let (a_hist, a) = materialize(kernel.as_ref(), imp);
            let (b_hist, b) = materialize(kernel.as_ref(), imp);
            assert_eq!(a_hist, b_hist, "{id} {imp:?}");
            assert_eq!(
                a, b,
                "{id} {imp:?}: traces from two instantiations must be \
                 bit-identical (addresses included)"
            );
        }
    }
}

//! Figure 6 on several workers: `report::fig6_threads` shards the
//! sweep points longest first across the campaign pool and writes the
//! results back in sweep order, so every thread count must produce
//! the same points, bit for bit, and the same report text. A point
//! whose measurement panics becomes one named failure instead of
//! killing the sweep.

use swan_core::report::{self, Fig6Point, Table};
use swan_core::{Impl, Kernel, KernelFailure, KernelMeta, Runnable, Scale};
use swan_kernels::xp::{conv_layers, GemmF32, Shape, SpmmF32};
use swan_simd::Width;

/// The first layers of the paper sweep — the smallest shapes, so the
/// debug build measures them in seconds — and a subsampling that
/// keeps six of them (twelve points).
const LAYERS: usize = 24;
const POINTS: usize = 6;

fn small_layers() -> Vec<(usize, usize, usize)> {
    conv_layers()[..LAYERS]
        .iter()
        .map(|s| (s.m, s.k, s.n))
        .collect()
}

fn gemm(m: usize, k: usize, n: usize) -> Box<dyn Kernel> {
    Box::new(GemmF32::with_shape(Shape { m, k, n }))
}

fn spmm(m: usize, k: usize, n: usize) -> Box<dyn Kernel> {
    Box::new(SpmmF32::with_shape(Shape { m, k, n }))
}

type Sweep = (Vec<Fig6Point>, Vec<Fig6Point>, Table);

fn sweep_on(threads: usize) -> Sweep {
    report::fig6_threads(threads, &small_layers(), POINTS, gemm, spmm, |_| {})
        .unwrap_or_else(|f| panic!("small Figure 6 sweep failed: {f:?}"))
}

fn bits(pts: &[Fig6Point]) -> Vec<(u64, u64, u64)> {
    pts.iter()
        .map(|p| (p.macs, p.neon_s.to_bits(), p.gpu_s.to_bits()))
        .collect()
}

#[test]
fn two_workers_match_the_serial_sweep_bit_for_bit() {
    let (gemm1, spmm1, rep1) = sweep_on(1);
    let (gemm2, spmm2, rep2) = sweep_on(2);
    assert_eq!(bits(&gemm1), bits(&gemm2), "GEMM points differ");
    assert_eq!(bits(&spmm1), bits(&spmm2), "SpMM points differ");
    assert_eq!(rep1.to_string(), rep2.to_string(), "report text differs");

    // Rows are in sweep order: one GEMM point per sampled layer, in
    // layer order, each carrying its layer's MAC count.
    let step = LAYERS / POINTS;
    let sampled: Vec<u64> = small_layers()
        .iter()
        .step_by(step)
        .map(|&(m, k, n)| (m * k * n) as u64)
        .collect();
    assert_eq!(gemm2.len(), sampled.len());
    assert_eq!(spmm2.len(), sampled.len());
    let gemm_macs: Vec<u64> = gemm2.iter().map(|p| p.macs).collect();
    assert_eq!(gemm_macs, sampled, "GEMM points out of sweep order");
    let text = rep2.to_string();
    let row_macs = |kind: &str| -> Vec<u64> {
        text.lines()
            .filter_map(|l| {
                let mut cells = l.split_whitespace();
                (cells.next() == Some(kind)).then(|| cells.next()?.parse().ok())?
            })
            .collect()
    };
    assert_eq!(row_macs("GEMM"), gemm_macs, "GEMM rows out of sweep order");
    let spmm_macs: Vec<u64> = spmm2.iter().map(|p| p.macs).collect();
    assert_eq!(row_macs("SpMM"), spmm_macs, "SpMM rows out of sweep order");
}

/// A GEMM stand-in whose measurement always panics.
struct Exploding;

struct ExplodingRun;

impl Runnable for ExplodingRun {
    fn run(&mut self, _imp: Impl, _w: Width) {
        panic!("gemm exploded by design");
    }

    fn output(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl Kernel for Exploding {
    fn meta(&self) -> KernelMeta {
        KernelMeta {
            name: "gemm_exploding",
            library: swan_core::Library::XP,
            precision_bits: 32,
            is_float: true,
            auto: swan_core::AutoOutcome::SameAsScalar,
            auto_stream: Some(Impl::Scalar),
            obstacles: &[],
            patterns: &[],
            tolerance: 0.0,
            excluded_from_eval: true,
        }
    }

    fn instantiate(&self, _scale: Scale, _seed: u64) -> Box<dyn Runnable> {
        Box::new(ExplodingRun)
    }
}

#[test]
fn one_panicking_point_is_one_named_failure() {
    let layers = small_layers();
    let (m, k, n) = layers[LAYERS / POINTS];
    let boom = |mm: usize, kk: usize, nn: usize| -> Box<dyn Kernel> {
        if (mm, kk, nn) == (m, k, n) {
            Box::new(Exploding)
        } else {
            gemm(mm, kk, nn)
        }
    };
    for threads in [1, 2] {
        let failures: Vec<KernelFailure> =
            match report::fig6_threads(threads, &layers, POINTS, boom, spmm, |_| {}) {
                Ok(_) => panic!("a panicking point must fail the sweep"),
                Err(f) => f,
            };
        assert_eq!(failures.len(), 1, "{threads} threads: {failures:?}");
        let f = &failures[0];
        assert_eq!(f.id, "XP.gemm_exploding");
        assert_eq!(
            f.message,
            format!("XP.gemm_exploding {m}x{k}x{n}: gemm exploded by design"),
        );
    }
    // The serial wrapper keeps its infallible signature and panics
    // with the named failure instead.
    let err = std::panic::catch_unwind(|| report::fig6(&layers, POINTS, boom, spmm, |_| {}))
        .expect_err("fig6 must panic on a failed point");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("XP.gemm_exploding"), "{msg}");
}

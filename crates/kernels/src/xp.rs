//! `XP` — XNNPACK machine-learning kernels: dense GEMM and
//! sparse-times-dense SpMM in four precisions (FP32, FP16, QS8, QU8),
//! the back-end primitives of TensorFlow Lite / PyTorch convolutional
//! and fully-connected layers (§3.2).
//!
//! The vector GEMM parallelizes across output columns with eight
//! accumulator registers (the unrolling the paper credits for XP's
//! high vector ILP in §5.5/§7.2); when the remaining columns don't
//! fill a register, it falls back to narrower registers, the §7.1
//! utilization effect. `conv_layers` provides the 156 synthetic
//! convolutional layer shapes swept by Figure 6.

use crate::util::{gen_f32, rng, runnable, swan_kernel, AutoStream};
use rand::Rng;
use swan_core::{AutoOutcome, Impl, Kernel, KernelMeta, Runnable, Scale, VsNeon};
use swan_simd::scalar::{self as sc, counted};
use swan_simd::{Half, Vreg, Width};

/// Accumulator registers per GEMM tile (8 x lanes output columns).
pub const NR_REGS: usize = 8;

/// A GEMM problem shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Output rows (channels).
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns (spatial pixels), multiple of 32.
    pub n: usize,
}

impl Shape {
    /// Multiply-accumulate operations for a dense GEMM.
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    fn default_for(scale: Scale) -> Shape {
        // 1568 = 28x28x2 spatial positions: deliberately NOT divisible
        // by the widest register tile, so wide-register utilization
        // drops on the column remainder (§7.1's GEMM observation).
        Shape {
            m: 32,
            k: 128,
            n: scale.dim(1568, 416, 32),
        }
    }
}

/// The 156 convolutional-layer GEMM shapes of the paper's Figure 6
/// sweep: operation counts from ~5K to ~51M MACs (geometric ladder).
pub fn conv_layers() -> Vec<Shape> {
    let lo: f64 = 5e3;
    let hi: f64 = 51e6;
    (0..156)
        .map(|i| {
            let macs = lo * (hi / lo).powf(i as f64 / 155.0);
            // Factor into a plausible layer: n grows with the layer,
            // m/k split the rest.
            let n = ((macs / 64.0).sqrt() as usize)
                .clamp(1, 4096)
                .next_multiple_of(128);
            let rest = (macs / n as f64).max(1.0);
            let m = (rest.sqrt() as usize).clamp(1, 512).max(1);
            let k = ((rest / m as f64) as usize).max(1);
            Shape { m, k, n }
        })
        .collect()
}

// =====================================================================
// GEMM (generic over the four precisions via small trait impls)
// =====================================================================

/// State for the FP32 GEMM.
#[derive(Debug)]
pub struct GemmF32State {
    shape: Shape,
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl GemmF32State {
    fn with_shape(shape: Shape, seed: u64) -> Self {
        let mut r = rng(seed);
        GemmF32State {
            shape,
            a: gen_f32(&mut r, shape.m * shape.k, 1.0),
            b: gen_f32(&mut r, shape.k * shape.n, 1.0),
            out: vec![0.0; shape.m * shape.n],
        }
    }

    fn new(scale: Scale, seed: u64) -> Self {
        Self::with_shape(Shape::default_for(scale), seed)
    }

    /// Scalar GEMM with XNNPACK's 1x4 register blocking: the A value
    /// is loaded once per `k` step and reused across four output
    /// columns (the superscalar-optimized baseline the paper compiles
    /// with auto-vectorization disabled).
    fn scalar(&mut self) {
        let Shape { m, k, n } = self.shape;
        for i in counted(0..m) {
            for j in counted((0..n).step_by(4)) {
                let mut acc = [sc::lit(0.0f32); 4];
                for p in counted(0..k) {
                    let a = sc::load(&self.a, i * k + p);
                    for (c, slot) in acc.iter_mut().enumerate() {
                        *slot = a.mul_add(sc::load(&self.b, p * n + j + c), *slot);
                    }
                }
                for (c, slot) in acc.iter().enumerate() {
                    sc::store(&mut self.out, i * n + j + c, *slot);
                }
            }
        }
    }

    fn neon(&mut self, w: Width) {
        let Shape { m, k, n } = self.shape;
        let mut j = 0;
        let mut w_cur = w;
        while j < n {
            // Fall back to narrower registers for the column remainder
            // (the paper's GEMM utilization effect, §7.1).
            let mut lanes = w_cur.lanes::<f32>();
            while j + lanes * NR_REGS > n {
                match w_cur.narrower() {
                    Some(nw) => {
                        w_cur = nw;
                        lanes = w_cur.lanes::<f32>();
                    }
                    None => break,
                }
            }
            let tile = lanes * NR_REGS;
            for i in counted(0..m) {
                let mut acc = vec![Vreg::<f32>::zero(w_cur); NR_REGS];
                for p in counted(0..k) {
                    let av = Vreg::<f32>::splat_tr(w_cur, sc::load(&self.a, i * k + p));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let bv = Vreg::<f32>::load(w_cur, &self.b, p * n + j + r * lanes);
                        *slot = slot.mla(bv, av);
                    }
                }
                for (r, slot) in acc.iter().enumerate() {
                    slot.store(&mut self.out, i * n + j + r * lanes);
                }
            }
            j += tile;
        }
    }

    fn out(&self) -> Vec<f64> {
        self.out.iter().map(|&v| v as f64).collect()
    }

    fn macs(&self) -> u64 {
        self.shape.macs()
    }
}

impl AutoStream for GemmF32State {
    const AUTO_STREAM: Option<Impl> = Some(Impl::Neon);
}

impl Runnable for GemmF32State {
    fn run(&mut self, imp: Impl, w: Width) {
        swan_simd::with_buffers!(self.a, self.b, self.out);
        match imp {
            Impl::Scalar => self.scalar(),
            Impl::Neon => self.neon(w),
            Impl::Auto => self.neon(Width::W128),
        }
    }
    fn output(&self) -> Vec<f64> {
        self.out()
    }
    fn work_ops(&self) -> u64 {
        self.macs()
    }
}

/// FP32 dense GEMM (XNNPACK `f32_gemm`). Supports custom shapes for
/// the Figure 6 sweep via [`GemmF32::with_shape`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GemmF32 {
    shape: Option<Shape>,
}

impl GemmF32 {
    /// A GEMM kernel pinned to a specific layer shape.
    pub fn with_shape(shape: Shape) -> GemmF32 {
        GemmF32 { shape: Some(shape) }
    }
}

impl Kernel for GemmF32 {
    fn meta(&self) -> KernelMeta {
        KernelMeta {
            name: "gemm_f32",
            library: swan_core::Library::XP,
            precision_bits: 32,
            is_float: true,
            auto: AutoOutcome::Vectorized(VsNeon::Worse),
            auto_stream: GemmF32State::AUTO_STREAM,
            obstacles: &[],
            patterns: &[swan_core::Pattern::MatrixTransposition],
            tolerance: 0.0,
            excluded_from_eval: false,
        }
    }

    fn instantiate(&self, scale: Scale, seed: u64) -> Box<dyn Runnable> {
        Box::new(match self.shape {
            Some(s) => GemmF32State::with_shape(s, seed),
            None => GemmF32State::new(scale, seed),
        })
    }
}

// ---------------------------------------------------------------------
// FP16 GEMM
// ---------------------------------------------------------------------

/// State for the FP16 GEMM.
#[derive(Debug)]
pub struct GemmF16State {
    shape: Shape,
    a: Vec<Half>,
    b: Vec<Half>,
    out: Vec<Half>,
}

impl GemmF16State {
    fn new(scale: Scale, seed: u64) -> Self {
        let shape = Shape::default_for(scale);
        let mut r = rng(seed);
        let gen = |r: &mut rand::rngs::StdRng, n: usize| -> Vec<Half> {
            (0..n)
                .map(|_| Half::from_f32(r.gen_range(-1.0..1.0)))
                .collect()
        };
        GemmF16State {
            shape,
            a: gen(&mut r, shape.m * shape.k),
            b: gen(&mut r, shape.k * shape.n),
            out: vec![Half(0); shape.m * shape.n],
        }
    }

    fn scalar(&mut self) {
        let Shape { m, k, n } = self.shape;
        for i in counted(0..m) {
            for j in counted((0..n).step_by(4)) {
                let mut acc = [sc::lit(Half(0)); 4];
                for p in counted(0..k) {
                    let a = sc::load(&self.a, i * k + p);
                    for (c, slot) in acc.iter_mut().enumerate() {
                        *slot = a.mul_add(sc::load(&self.b, p * n + j + c), *slot);
                    }
                }
                for (c, slot) in acc.iter().enumerate() {
                    sc::store(&mut self.out, i * n + j + c, *slot);
                }
            }
        }
    }

    fn neon(&mut self, w: Width) {
        let Shape { m, k, n } = self.shape;
        let mut j = 0;
        let mut w_cur = w;
        while j < n {
            // Narrow the register width for the column remainder.
            let mut lanes = w_cur.lanes::<Half>();
            while n - j < lanes {
                w_cur = w_cur.narrower().expect("n is a multiple of 8 halves");
                lanes = w_cur.lanes::<Half>();
            }
            let cur_regs = ((n - j) / lanes).clamp(1, NR_REGS);
            for i in counted(0..m) {
                let mut acc = vec![Vreg::<Half>::zero(w_cur); cur_regs];
                for p in counted(0..k) {
                    let av = Vreg::<Half>::splat_tr(w_cur, sc::load(&self.a, i * k + p));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let bv = Vreg::<Half>::load(w_cur, &self.b, p * n + j + r * lanes);
                        *slot = slot.mlah(bv, av);
                    }
                }
                for (r, slot) in acc.iter().enumerate() {
                    slot.store(&mut self.out, i * n + j + r * lanes);
                }
            }
            j += cur_regs * lanes;
        }
    }

    fn out(&self) -> Vec<f64> {
        self.out.iter().map(|&v| v.to_f32() as f64).collect()
    }
}

runnable!(
    GemmF16State,
    auto = scalar,
    buffers = |s| {
        swan_simd::with_buffers!(s.a, s.b, s.out);
    }
);

swan_kernel!(
    /// FP16 dense GEMM (XNNPACK `f16_gemm`): double the VRE of FP32.
    GemmF16, GemmF16State, {
        name: "gemm_f16",
        library: XP,
        precision_bits: 16,
        is_float: true,
        auto: AutoOutcome::SameAsScalar,
        obstacles: [OtherLegality, CostModel],
        patterns: [MatrixTransposition],
        tolerance: 0.0,
    }
);

// ---------------------------------------------------------------------
// QS8 / QU8 GEMM
// ---------------------------------------------------------------------

/// State for the signed/unsigned 8-bit quantized GEMMs.
#[derive(Debug)]
pub struct GemmQ8State<const UNSIGNED: bool> {
    shape: Shape,
    a: Vec<i16>, // pre-widened (zero-point removed) activations
    b: Vec<i16>, // pre-widened weights
    out: Vec<i32>,
}

impl<const UNSIGNED: bool> GemmQ8State<UNSIGNED> {
    fn new(scale: Scale, seed: u64) -> Self {
        let shape = Shape::default_for(scale);
        let mut r = rng(seed);
        // QU8 subtracts a 128 zero point; QS8 is symmetric. Either way
        // the MAC stream is i16 x i16 -> i32 with the same input range.
        let lim = 127;
        let gen = |r: &mut rand::rngs::StdRng, n: usize| -> Vec<i16> {
            (0..n).map(|_| r.gen_range(-lim..=lim)).collect()
        };
        GemmQ8State {
            shape,
            a: gen(&mut r, shape.m * shape.k),
            b: gen(&mut r, shape.k * shape.n),
            out: vec![0i32; shape.m * shape.n],
        }
    }

    fn scalar(&mut self) {
        let Shape { m, k, n } = self.shape;
        for i in counted(0..m) {
            for j in counted((0..n).step_by(4)) {
                let mut acc = [sc::lit(0i32); 4];
                for p in counted(0..k) {
                    let a = sc::load(&self.a, i * k + p).cast::<i32>();
                    for (c, slot) in acc.iter_mut().enumerate() {
                        let b = sc::load(&self.b, p * n + j + c).cast::<i32>();
                        *slot = a.mul_add(b, *slot);
                    }
                }
                for (c, slot) in acc.iter().enumerate() {
                    sc::store(&mut self.out, i * n + j + c, *slot);
                }
            }
        }
    }

    fn neon(&mut self, w: Width) {
        let Shape { m, k, n } = self.shape;
        let regs = NR_REGS / 2; // accumulators are 2x wider than b rows
        let mut j = 0;
        let mut w_cur = w;
        while j < n {
            let mut lanes = w_cur.lanes::<i16>();
            while n - j < lanes {
                w_cur = w_cur.narrower().expect("n is a multiple of 8 lanes");
                lanes = w_cur.lanes::<i16>();
            }
            let cur_regs = ((n - j) / lanes).min(regs).max(1);
            for i in counted(0..m) {
                let mut acc_lo = vec![Vreg::<i32>::zero(w_cur); cur_regs];
                let mut acc_hi = vec![Vreg::<i32>::zero(w_cur); cur_regs];
                for p in counted(0..k) {
                    let av = Vreg::<i16>::splat_tr(w_cur, sc::load(&self.a, i * k + p));
                    for r in 0..cur_regs {
                        let bv = Vreg::<i16>::load(w_cur, &self.b, p * n + j + r * lanes);
                        acc_lo[r] = acc_lo[r].mlal_lo_i16(bv, av);
                        acc_hi[r] = acc_hi[r].mlal_hi_i16(bv, av);
                    }
                }
                for r in 0..cur_regs {
                    acc_lo[r].store(&mut self.out, i * n + j + r * lanes);
                    acc_hi[r].store(&mut self.out, i * n + j + r * lanes + lanes / 2);
                }
            }
            j += cur_regs * lanes;
        }
    }

    fn out(&self) -> Vec<f64> {
        self.out.iter().map(|&v| v as f64).collect()
    }
}

runnable!(
    GemmQ8State<false>,
    auto = neon,
    buffers = |s| {
        swan_simd::with_buffers!(s.a, s.b, s.out);
    }
);
runnable!(
    GemmQ8State<true>,
    auto = neon,
    buffers = |s| {
        swan_simd::with_buffers!(s.a, s.b, s.out);
    }
);

swan_kernel!(
    /// Signed 8-bit quantized GEMM (XNNPACK `qs8_gemm`).
    GemmQs8, GemmQ8State<false>, {
        name: "gemm_qs8",
        library: XP,
        precision_bits: 16,
        is_float: false,
        auto: AutoOutcome::Vectorized(VsNeon::Worse),
        obstacles: [],
        patterns: [],
        tolerance: 0.0,
    }
);

swan_kernel!(
    /// Unsigned 8-bit quantized GEMM with zero point (XNNPACK
    /// `qu8_gemm`).
    GemmQu8, GemmQ8State<true>, {
        name: "gemm_qu8",
        library: XP,
        precision_bits: 16,
        is_float: false,
        auto: AutoOutcome::Vectorized(VsNeon::Worse),
        obstacles: [],
        patterns: [],
        tolerance: 0.0,
    }
);

// =====================================================================
// SpMM
// =====================================================================

/// Sparsity of the weight matrix (the paper's Figure 6 uses 80%).
pub const SPARSITY: f64 = 0.8;

/// CSR-style sparse matrix with f32 values.
#[derive(Debug)]
struct Csr<T> {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

fn gen_csr_f32(r: &mut rand::rngs::StdRng, m: usize, k: usize) -> Csr<f32> {
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for _ in 0..m {
        for c in 0..k {
            if r.gen_bool(1.0 - SPARSITY) {
                col_idx.push(c as u32);
                values.push(r.gen_range(-1.0..1.0f32));
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Csr {
        row_ptr,
        col_idx,
        values,
    }
}

/// State for the SpMM kernels; `P` selects precision behaviour:
/// 0 = f32, 1 = f16, 2 = qs8, 3 = qu8 (quantized paths run pre-widened
/// i16 x i16 -> i32 like the GEMM).
#[derive(Debug)]
pub struct SpmmState<const P: u8> {
    shape: Shape,
    w_f: Csr<f32>,
    b_f: Vec<f32>,
    out_f: Vec<f32>,
}

impl<const P: u8> SpmmState<P> {
    fn with_shape(shape: Shape, seed: u64) -> Self {
        let mut r = rng(seed);
        let w_f = gen_csr_f32(&mut r, shape.m, shape.k);
        let quant = |v: f32| (v * 64.0).round() / 64.0;
        let mut w_f = w_f;
        match P {
            1 => {
                for v in w_f.values.iter_mut() {
                    *v = Half::from_f32(*v).to_f32();
                }
            }
            2 | 3 => {
                for v in w_f.values.iter_mut() {
                    *v = quant(*v);
                }
            }
            _ => {}
        }
        let mut b_f = gen_f32(&mut r, shape.k * shape.n, 1.0);
        match P {
            1 => {
                for v in b_f.iter_mut() {
                    *v = Half::from_f32(*v).to_f32();
                }
            }
            2 | 3 => {
                for v in b_f.iter_mut() {
                    *v = quant(*v);
                }
            }
            _ => {}
        }
        SpmmState {
            shape,
            w_f,
            b_f,
            out_f: vec![0.0; shape.m * shape.n],
        }
    }

    fn new(scale: Scale, seed: u64) -> Self {
        Self::with_shape(Shape::default_for(scale), seed)
    }

    fn scalar(&mut self) {
        let Shape { m, n, .. } = self.shape;
        for i in counted(0..m) {
            let start = self.w_f.row_ptr[i] as usize;
            let end = self.w_f.row_ptr[i + 1] as usize;
            for j in counted((0..n).step_by(4)) {
                let mut acc = [sc::lit(0.0f32); 4];
                // Uncountable sparse loop with indirect column access.
                for nz in counted(start..end) {
                    let col = sc::load(&self.w_f.col_idx, nz);
                    let v = sc::load(&self.w_f.values, nz);
                    for (c, slot) in acc.iter_mut().enumerate() {
                        let b = sc::load_dep(&self.b_f, col.get() as usize * n + j + c, col);
                        *slot = v.mul_add(b, *slot);
                    }
                }
                for (c, slot) in acc.iter().enumerate() {
                    sc::store(&mut self.out_f, i * n + j + c, *slot);
                }
            }
        }
    }

    fn neon(&mut self, w: Width) {
        let Shape { m, n, .. } = self.shape;
        let lanes = w.lanes::<f32>();
        for i in counted(0..m) {
            let start = self.w_f.row_ptr[i] as usize;
            let end = self.w_f.row_ptr[i + 1] as usize;
            for j in counted((0..n).step_by(lanes)) {
                let mut acc = Vreg::<f32>::zero(w);
                for nz in counted(start..end) {
                    let col = sc::load(&self.w_f.col_idx, nz);
                    let v = sc::load(&self.w_f.values, nz);
                    let bv = Vreg::<f32>::load(w, &self.b_f, col.get() as usize * n + j);
                    acc = acc.mla(bv, Vreg::<f32>::splat_tr(w, v));
                }
                acc.store(&mut self.out_f, i * n + j);
            }
        }
    }

    fn out(&self) -> Vec<f64> {
        self.out_f.iter().map(|&v| v as f64).collect()
    }

    fn macs(&self) -> u64 {
        (self.w_f.values.len() * self.shape.n) as u64
    }
}

impl<const P: u8> AutoStream for SpmmState<P> {
    const AUTO_STREAM: Option<Impl> = Some(Impl::Scalar);
}

impl<const P: u8> Runnable for SpmmState<P> {
    fn run(&mut self, imp: Impl, w: Width) {
        swan_simd::with_buffers!(
            self.w_f.row_ptr,
            self.w_f.col_idx,
            self.w_f.values,
            self.b_f,
            self.out_f
        );
        match imp {
            Impl::Scalar | Impl::Auto => self.scalar(),
            Impl::Neon => self.neon(w),
        }
    }
    fn output(&self) -> Vec<f64> {
        self.out()
    }
    fn work_ops(&self) -> u64 {
        self.macs()
    }
}

macro_rules! spmm_kernel {
    ($(#[$doc:meta])* $name:ident, $p:expr, $kname:expr, $bits:expr, $isf:expr,
     $obs:tt, $pats:tt) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name {
            shape: Option<Shape>,
        }

        impl $name {
            /// A kernel pinned to a specific layer shape (Figure 6).
            pub fn with_shape(shape: Shape) -> $name {
                $name { shape: Some(shape) }
            }
        }

        impl Kernel for $name {
            fn meta(&self) -> KernelMeta {
                KernelMeta {
                    name: $kname,
                    library: swan_core::Library::XP,
                    precision_bits: $bits,
                    is_float: $isf,
                    auto: AutoOutcome::SameAsScalar,
                    auto_stream: SpmmState::<$p>::AUTO_STREAM,
                    obstacles: &$obs,
                    patterns: &$pats,
                    tolerance: 0.0,
                    excluded_from_eval: false,
                }
            }

            fn instantiate(&self, scale: Scale, seed: u64) -> Box<dyn Runnable> {
                Box::new(match self.shape {
                    Some(s) => SpmmState::<$p>::with_shape(s, seed),
                    None => SpmmState::<$p>::new(scale, seed),
                })
            }
        }
    };
}

spmm_kernel!(
    /// FP32 sparse-dense matrix multiply (XNNPACK `f32_spmm`).
    SpmmF32, 0, "spmm_f32", 32, true,
    [swan_core::AutoObstacle::UncountableLoop, swan_core::AutoObstacle::IndirectMemoryAccess],
    [swan_core::Pattern::RandomMemoryAccess]
);
spmm_kernel!(
    /// FP16 sparse-dense matrix multiply (values rounded to FP16).
    SpmmF16, 1, "spmm_f16", 16, true,
    [swan_core::AutoObstacle::UncountableLoop, swan_core::AutoObstacle::IndirectMemoryAccess],
    [swan_core::Pattern::RandomMemoryAccess]
);
spmm_kernel!(
    /// QS8 sparse-dense matrix multiply (quantized values).
    SpmmQs8, 2, "spmm_qs8", 16, false,
    [swan_core::AutoObstacle::UncountableLoop, swan_core::AutoObstacle::IndirectMemoryAccess],
    [swan_core::Pattern::RandomMemoryAccess]
);
spmm_kernel!(
    /// QU8 sparse-dense matrix multiply (quantized values, zero point).
    SpmmQu8, 3, "spmm_qu8", 16, false,
    [swan_core::AutoObstacle::UncountableLoop, swan_core::AutoObstacle::IndirectMemoryAccess],
    // The paper counts seven look-up-table kernels (§6.2); QU8 SpMM
    // shares the qs8 code path and is not double-counted.
    []
);

/// All eight XNNPACK kernels.
pub fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(GemmF32::default()),
        Box::new(GemmF16),
        Box::new(GemmQs8),
        Box::new(GemmQu8),
        Box::new(SpmmF32::default()),
        Box::new(SpmmF16::default()),
        Box::new(SpmmQs8::default()),
        Box::new(SpmmQu8::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_core::{verify_kernel, Scale};

    #[test]
    fn all_xp_kernels_verify() {
        for k in kernels() {
            verify_kernel(k.as_ref(), Scale::test(), 111).unwrap();
        }
    }

    #[test]
    fn gemm_f32_identityish() {
        // A = all ones, B = all twos: out[i][j] = 2k exactly.
        let mut st = GemmF32State::with_shape(
            Shape {
                m: 4,
                k: 16,
                n: 128,
            },
            1,
        );
        st.a.fill(1.0);
        st.b.fill(2.0);
        st.scalar();
        assert!(st.out.iter().all(|&v| v == 32.0));
        let mut st2 = GemmF32State::with_shape(
            Shape {
                m: 4,
                k: 16,
                n: 128,
            },
            1,
        );
        st2.a.fill(1.0);
        st2.b.fill(2.0);
        st2.neon(Width::W256);
        assert_eq!(st.out, st2.out);
    }

    #[test]
    fn conv_layer_table_spans_fig6_range() {
        let layers = conv_layers();
        assert_eq!(layers.len(), 156);
        let first = layers.first().unwrap().macs();
        let last = layers.last().unwrap().macs();
        assert!(first < 200_000, "smallest layer {first}");
        assert!(last > 20_000_000, "largest layer {last}");
        assert!(layers.windows(2).all(|w| w[0].macs() <= w[1].macs() * 2));
        assert!(layers.iter().all(|s| s.n % 128 == 0));
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let mut st = SpmmState::<0>::with_shape(
            Shape {
                m: 4,
                k: 32,
                n: 128,
            },
            5,
        );
        st.scalar();
        // Dense reference from the CSR data.
        let Shape { m, k: _, n } = st.shape;
        for i in 0..m {
            for j in (0..n).step_by(37) {
                let mut acc = 0.0f32;
                for nz in st.w_f.row_ptr[i] as usize..st.w_f.row_ptr[i + 1] as usize {
                    // Tr::mul_add rounds twice (mul then add); match it.
                    acc += st.w_f.values[nz] * st.b_f[st.w_f.col_idx[nz] as usize * n + j];
                }
                assert_eq!(st.out_f[i * n + j], acc);
            }
        }
    }
}

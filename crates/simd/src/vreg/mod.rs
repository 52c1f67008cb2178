//! Vector register values and the Neon-style intrinsic surface.
//!
//! Each method on [`Vreg`] models one Arm Neon (or fake wide-Neon)
//! instruction: it computes the lane-wise result functionally and emits
//! exactly one dynamic instruction into the tracer (a few composite
//! helpers, documented as such, emit the same short sequence a real
//! Neon implementation would use).

mod convert;
mod crypto;

pub use crypto::aes_sbox;

use crate::elem::Elem;
use crate::scalar::Tr;
use crate::trace::{self, Class, MemRef, Op};
use crate::width::{Width, MAX_LANES};

/// A vector register value with `n` active lanes of type `T`.
///
/// Lane count is fixed at creation from a [`Width`]; all binary
/// operations require matching lane counts.
#[derive(Clone, Copy)]
pub struct Vreg<T: Elem> {
    lanes: T::Lanes,
    n: u16,
    id: u32,
}

impl<T: Elem> std::fmt::Debug for Vreg<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Vreg<{}>{:?}", T::NAME, &self.lanes[..self.n as usize])
    }
}

#[inline]
fn vclass<T: Elem>() -> Class {
    if T::IS_FLOAT {
        Class::VFloat
    } else {
        Class::VInt
    }
}

impl<T: Elem> Vreg<T> {
    #[inline]
    pub(crate) fn raw(lanes: T::Lanes, n: u16, id: u32) -> Vreg<T> {
        Vreg { lanes, n, id }
    }

    #[inline]
    pub(crate) fn empty(n: usize) -> (T::Lanes, u16) {
        debug_assert!(n <= T::ZERO_LANES.as_ref().len() && n > 0);
        (T::ZERO_LANES, n as u16)
    }

    /// Number of active lanes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The register width this value was created with.
    pub fn width(&self) -> Width {
        match self.n as usize * T::BYTES * 8 {
            128 => Width::W128,
            256 => Width::W256,
            512 => Width::W512,
            1024 => Width::W1024,
            bits => panic!("register of {bits} bits"),
        }
    }

    /// Dataflow id of the instruction that produced this value.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Untraced lane accessor (for tests and output checking only).
    #[inline]
    pub fn lane_value(&self, i: usize) -> T {
        assert!(i < self.n());
        self.lanes[i]
    }

    /// Untraced view of the active lanes (for tests only).
    #[inline]
    pub fn lanes(&self) -> &[T] {
        &self.lanes[..self.n()]
    }

    // ---------------------------------------------------------------
    // Construction and memory.
    // ---------------------------------------------------------------

    /// Broadcast a constant to all lanes (`VDUP`).
    pub fn splat(w: Width, v: T) -> Vreg<T> {
        let (mut l, n) = Self::empty(w.lanes::<T>());
        l[..n as usize].fill(v);
        let id = trace::emit(Op::VDup, Class::VMisc, &[], None);
        Vreg { lanes: l, n, id }
    }

    /// Broadcast a tracked scalar to all lanes (`VDUP Vd, Rn`): the
    /// result depends on the scalar's producer.
    pub fn splat_tr(w: Width, v: Tr<T>) -> Vreg<T> {
        let (mut l, n) = Self::empty(w.lanes::<T>());
        l[..n as usize].fill(v.get());
        let id = trace::emit(Op::VDup, Class::VMisc, &[v.id()], None);
        Vreg { lanes: l, n, id }
    }

    /// An all-zero register (`MOVI #0`).
    pub fn zero(w: Width) -> Vreg<T> {
        let (l, n) = Self::empty(w.lanes::<T>());
        let id = trace::emit(Op::VDup, Class::VMisc, &[], None);
        Vreg { lanes: l, n, id }
    }

    /// Build a register from explicit lane values (models a constant
    /// table materialization: one load from the literal pool).
    ///
    /// The traced memory reference is a synthetic, content-interned
    /// literal-pool address — not the address of `vals` — so callers
    /// may stage lane values in stack or heap temporaries without
    /// making the trace depend on where those temporaries live.
    pub fn from_lanes(w: Width, vals: &[T]) -> Vreg<T> {
        let (mut l, n) = Self::empty(w.lanes::<T>());
        assert_eq!(vals.len(), n as usize, "lane count mismatch");
        l[..n as usize].copy_from_slice(vals);
        let id = if trace::is_tracing() {
            // One register's bytes, staged on the stack: at most
            // `MAX_LANES` bytes at the widest width.
            let mut content = [0u8; MAX_LANES];
            let len = vals.len() * T::BYTES;
            for (dst, v) in content[..len].chunks_exact_mut(T::BYTES).zip(vals) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes()[..T::BYTES]);
            }
            trace::emit_literal(Op::VLd1, Class::VLoad, &content[..len])
        } else {
            0
        };
        Vreg { lanes: l, n, id }
    }

    /// Unit-stride vector load of one register's worth of lanes
    /// starting at `src[off]` (`VLD1`).
    ///
    /// # Panics
    ///
    /// Panics if `off + lanes` exceeds `src.len()`.
    pub fn load(w: Width, src: &[T], off: usize) -> Vreg<T> {
        let (mut l, n) = Self::empty(w.lanes::<T>());
        let nn = n as usize;
        assert!(
            off + nn <= src.len(),
            "vector load out of bounds: {}+{} > {}",
            off,
            nn,
            src.len()
        );
        l[..nn].copy_from_slice(&src[off..off + nn]);
        let id = trace::emit(
            Op::VLd1,
            Class::VLoad,
            &[],
            Some(MemRef {
                addr: &src[off] as *const T as u64,
                bytes: (nn * T::BYTES) as u32,
            }),
        );
        Vreg { lanes: l, n, id }
    }

    /// Unit-stride store of all lanes to `dst[off..]` (`VST1`).
    ///
    /// # Panics
    ///
    /// Panics if the register does not fit at `off`.
    pub fn store(&self, dst: &mut [T], off: usize) {
        let nn = self.n();
        assert!(off + nn <= dst.len(), "vector store out of bounds");
        let addr = &dst[off] as *const T as u64;
        dst[off..off + nn].copy_from_slice(&self.lanes[..nn]);
        trace::emit(
            Op::VSt1,
            Class::VStore,
            &[self.id],
            Some(MemRef {
                addr,
                bytes: (nn * T::BYTES) as u32,
            }),
        );
    }

    /// De-interleaving structure load with stride `R` (`VLD2/3/4`):
    /// reads `R * lanes` consecutive elements and splits them round-
    /// robin into `R` registers, one traced instruction.
    fn load_n<const R: usize>(w: Width, src: &[T], off: usize, op: Op) -> [Vreg<T>; R] {
        let n = w.lanes::<T>();
        assert!(off + n * R <= src.len(), "strided load out of bounds");
        let id = trace::emit(
            op,
            Class::VLoad,
            &[],
            Some(MemRef {
                addr: &src[off] as *const T as u64,
                bytes: (n * R * T::BYTES) as u32,
            }),
        );
        std::array::from_fn(|r| {
            let (mut l, nn) = Self::empty(n);
            for e in 0..n {
                l[e] = src[off + e * R + r];
            }
            Vreg {
                lanes: l,
                n: nn,
                id,
            }
        })
    }

    /// Interleaving structure store with stride `R` (`VST2/3/4`).
    fn store_n<const R: usize>(regs: &[Vreg<T>; R], dst: &mut [T], off: usize, op: Op) {
        let n = regs[0].n();
        for r in regs.iter() {
            assert_eq!(r.n(), n, "stride-store lane mismatch");
        }
        assert!(off + n * R <= dst.len(), "strided store out of bounds");
        let addr = &dst[off] as *const T as u64;
        for e in 0..n {
            for (r, reg) in regs.iter().enumerate() {
                dst[off + e * R + r] = reg.lanes[e];
            }
        }
        let srcs: [u32; R] = std::array::from_fn(|r| regs[r].id);
        trace::emit(
            op,
            Class::VStore,
            &srcs,
            Some(MemRef {
                addr,
                bytes: (n * R * T::BYTES) as u32,
            }),
        );
    }

    /// `VLD2`: load `2 * lanes` elements, de-interleaving with stride 2.
    pub fn load2(w: Width, src: &[T], off: usize) -> [Vreg<T>; 2] {
        Self::load_n::<2>(w, src, off, Op::VLd2)
    }

    /// `VLD3`: load `3 * lanes` elements, de-interleaving with stride 3.
    pub fn load3(w: Width, src: &[T], off: usize) -> [Vreg<T>; 3] {
        Self::load_n::<3>(w, src, off, Op::VLd3)
    }

    /// `VLD4`: load `4 * lanes` elements, de-interleaving with stride 4.
    pub fn load4(w: Width, src: &[T], off: usize) -> [Vreg<T>; 4] {
        Self::load_n::<4>(w, src, off, Op::VLd4)
    }

    /// `VST2`: interleave two registers into memory with stride 2.
    pub fn store2(regs: &[Vreg<T>; 2], dst: &mut [T], off: usize) {
        Self::store_n::<2>(regs, dst, off, Op::VSt2)
    }

    /// `VST3`: interleave three registers into memory with stride 3.
    pub fn store3(regs: &[Vreg<T>; 3], dst: &mut [T], off: usize) {
        Self::store_n::<3>(regs, dst, off, Op::VSt3)
    }

    /// `VST4`: interleave four registers into memory with stride 4.
    pub fn store4(regs: &[Vreg<T>; 4], dst: &mut [T], off: usize) {
        Self::store_n::<4>(regs, dst, off, Op::VSt4)
    }

    // ---------------------------------------------------------------
    // Lane access.
    // ---------------------------------------------------------------

    /// Move one lane to a scalar register (`UMOV`/`SMOV`): the paper's
    /// §6.2 look-up-table export path is built from this.
    pub fn get_lane(&self, i: usize) -> Tr<T> {
        assert!(i < self.n());
        let id = trace::emit(Op::VGetLane, Class::VMisc, &[self.id], None);
        Tr::raw(self.lanes[i], id)
    }

    /// Insert a scalar into one lane (`INS`), returning the new register.
    pub fn set_lane(&self, i: usize, v: Tr<T>) -> Vreg<T> {
        assert!(i < self.n());
        let mut l = self.lanes;
        l[i] = v.get();
        let id = trace::emit(Op::VSetLane, Class::VMisc, &[self.id, v.id()], None);
        Vreg {
            lanes: l,
            n: self.n,
            id,
        }
    }

    /// Broadcast lane `i` to every lane (`DUP Vd, Vn[i]`).
    pub fn dup_lane(&self, i: usize) -> Vreg<T> {
        assert!(i < self.n());
        let (mut l, n) = Self::empty(self.n());
        l[..self.n()].fill(self.lanes[i]);
        let id = trace::emit(Op::VDup, Class::VMisc, &[self.id], None);
        Vreg { lanes: l, n, id }
    }

    // ---------------------------------------------------------------
    // Internal op helpers.
    // ---------------------------------------------------------------

    #[inline]
    fn un_op(&self, op: Op, class: Class, f: impl Fn(T) -> T) -> Vreg<T> {
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            l[i] = f(self.lanes[i]);
        }
        let id = trace::emit(op, class, &[self.id], None);
        Vreg { lanes: l, n, id }
    }

    #[inline]
    fn bin_op(&self, o: &Vreg<T>, op: Op, class: Class, f: impl Fn(T, T) -> T) -> Vreg<T> {
        assert_eq!(self.n, o.n, "lane count mismatch in vector op");
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            l[i] = f(self.lanes[i], o.lanes[i]);
        }
        let id = trace::emit(op, class, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    // ---------------------------------------------------------------
    // Arithmetic.
    // ---------------------------------------------------------------

    /// Lane-wise addition (wrapping for integers; `VADD`/`FADD`).
    pub fn add(&self, o: Vreg<T>) -> Vreg<T> {
        let op = if T::IS_FLOAT { Op::VFAdd } else { Op::VAlu };
        self.bin_op(&o, op, vclass::<T>(), |a, b| a.wadd(b))
    }

    /// Lane-wise subtraction (`VSUB`/`FSUB`).
    pub fn sub(&self, o: Vreg<T>) -> Vreg<T> {
        let op = if T::IS_FLOAT { Op::VFAdd } else { Op::VAlu };
        self.bin_op(&o, op, vclass::<T>(), |a, b| a.wsub(b))
    }

    /// Lane-wise multiplication (`VMUL`/`FMUL`).
    pub fn mul(&self, o: Vreg<T>) -> Vreg<T> {
        let op = if T::IS_FLOAT { Op::VFMul } else { Op::VMul };
        self.bin_op(&o, op, vclass::<T>(), |a, b| a.wmul(b))
    }

    /// Multiply-accumulate: `self + a * b` as one instruction
    /// (`VMLA`/`FMLA`).
    pub fn mla(&self, a: Vreg<T>, b: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, a.n);
        assert_eq!(self.n, b.n);
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            l[i] = self.lanes[i].wadd(a.lanes[i].wmul(b.lanes[i]));
        }
        let op = if T::IS_FLOAT { Op::VFma } else { Op::VMla };
        let id = trace::emit(op, vclass::<T>(), &[self.id, a.id, b.id], None);
        Vreg { lanes: l, n, id }
    }

    /// Multiply-subtract: `self - a * b` (`VMLS`/`FMLS`).
    pub fn mls(&self, a: Vreg<T>, b: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, a.n);
        assert_eq!(self.n, b.n);
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            l[i] = self.lanes[i].wsub(a.lanes[i].wmul(b.lanes[i]));
        }
        let op = if T::IS_FLOAT { Op::VFma } else { Op::VMla };
        let id = trace::emit(op, vclass::<T>(), &[self.id, a.id, b.id], None);
        Vreg { lanes: l, n, id }
    }

    /// Saturating addition (`VQADD`).
    pub fn sat_add(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.sat_add(b))
    }

    /// Saturating subtraction (`VQSUB`).
    pub fn sat_sub(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.sat_sub(b))
    }

    /// Halving add `(a + b) >> 1` (`VHADD`).
    pub fn hadd(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.hadd(b, false))
    }

    /// Rounding halving add (`VRHADD`).
    pub fn rhadd(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.hadd(b, true))
    }

    /// Absolute difference (`VABD`).
    pub fn abd(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAbd, vclass::<T>(), |a, b| a.abd(b))
    }

    /// Absolute-difference-and-accumulate: `self + |a - b|` (`VABA`).
    pub fn aba(&self, a: Vreg<T>, b: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, a.n);
        assert_eq!(self.n, b.n);
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            l[i] = self.lanes[i].wadd(a.lanes[i].abd(b.lanes[i]));
        }
        let id = trace::emit(Op::VAbd, vclass::<T>(), &[self.id, a.id, b.id], None);
        Vreg { lanes: l, n, id }
    }

    /// Lane minimum (`VMIN`).
    pub fn min(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.emin(b))
    }

    /// Lane maximum (`VMAX`).
    pub fn max(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, vclass::<T>(), |a, b| a.emax(b))
    }

    /// Lane negation (`VNEG`/`FNEG`).
    pub fn neg(&self) -> Vreg<T> {
        let op = if T::IS_FLOAT { Op::VFAdd } else { Op::VAlu };
        self.un_op(op, vclass::<T>(), |a| T::zero().wsub(a))
    }

    /// Lane absolute value (`VABS`).
    pub fn abs(&self) -> Vreg<T> {
        self.un_op(Op::VAlu, vclass::<T>(), |a| {
            T::zero().emax(a).emax(T::zero().wsub(a))
        })
    }

    /// Lane-wise division (`FDIV`, float only in real Neon).
    pub fn div(&self, o: Vreg<T>) -> Vreg<T> {
        let op = if T::IS_FLOAT { Op::VFDiv } else { Op::VMul };
        self.bin_op(&o, op, vclass::<T>(), |a, b| a.ediv(b))
    }

    // ---------------------------------------------------------------
    // Bitwise, shifts and compares.
    // ---------------------------------------------------------------

    /// Bitwise AND (`VAND`).
    pub fn and(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, Class::VInt, |a, b| {
            T::from_bits(a.to_bits() & b.to_bits())
        })
    }

    /// Bitwise OR (`VORR`).
    pub fn or(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, Class::VInt, |a, b| {
            T::from_bits(a.to_bits() | b.to_bits())
        })
    }

    /// Bitwise XOR (`VEOR`).
    pub fn xor(&self, o: Vreg<T>) -> Vreg<T> {
        self.bin_op(&o, Op::VAlu, Class::VInt, |a, b| {
            T::from_bits(a.to_bits() ^ b.to_bits())
        })
    }

    /// Bitwise NOT (`VMVN`).
    pub fn not(&self) -> Vreg<T> {
        self.un_op(Op::VAlu, Class::VInt, |a| T::from_bits(!a.to_bits()))
    }

    /// Left shift by an immediate (`VSHL #imm`).
    pub fn shl(&self, imm: u32) -> Vreg<T> {
        self.un_op(Op::VShift, Class::VInt, |a| a.shl(imm))
    }

    /// Right shift by an immediate, arithmetic for signed lanes
    /// (`VSHR #imm`).
    pub fn shr(&self, imm: u32) -> Vreg<T> {
        self.un_op(Op::VShift, Class::VInt, |a| a.shr(imm))
    }

    /// Rounding right shift (`VRSHR #imm`).
    pub fn shr_round(&self, imm: u32) -> Vreg<T> {
        self.un_op(Op::VShift, Class::VInt, |a| a.shr_round(imm))
    }

    /// Rotate left by an immediate. Neon has no rotate, so this is the
    /// standard two-instruction `SHL` + `SRI` idiom and emits two
    /// shift instructions.
    pub fn rotl(&self, imm: u32) -> Vreg<T> {
        let bits = (T::BYTES * 8) as u32;
        assert!(imm > 0 && imm < bits);
        let mask = if T::BYTES == 8 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            let b = self.lanes[i].to_bits() & mask;
            l[i] = T::from_bits(((b << imm) | (b >> (bits - imm))) & mask);
        }
        let t = trace::emit(Op::VShift, Class::VInt, &[self.id], None);
        let id = trace::emit(Op::VShift, Class::VInt, &[self.id, t], None);
        Vreg { lanes: l, n, id }
    }

    #[inline]
    fn cmp_mask(&self, o: &Vreg<T>, f: impl Fn(T, T) -> bool) -> Vreg<T> {
        self.bin_op(&o.clone(), Op::VCmp, Class::VInt, |a, b| {
            if f(a, b) {
                T::from_bits(u64::MAX)
            } else {
                T::from_bits(0)
            }
        })
    }

    /// Lane equality mask (`VCEQ`): all-ones where equal.
    pub fn eq_mask(&self, o: Vreg<T>) -> Vreg<T> {
        self.cmp_mask(&o, |a, b| a == b)
    }

    /// Lane greater-than mask (`VCGT`).
    pub fn gt_mask(&self, o: Vreg<T>) -> Vreg<T> {
        self.cmp_mask(&o, |a, b| a > b)
    }

    /// Lane greater-or-equal mask (`VCGE`).
    pub fn ge_mask(&self, o: Vreg<T>) -> Vreg<T> {
        self.cmp_mask(&o, |a, b| a >= b)
    }

    /// Lane less-than mask (`VCLT`).
    pub fn lt_mask(&self, o: Vreg<T>) -> Vreg<T> {
        self.cmp_mask(&o, |a, b| a < b)
    }

    /// Bitwise select (`VBSL`): where a mask bit is set take `a`, else
    /// `b`. This is the paper's if-conversion primitive (§5.4).
    pub fn bsl(&self, a: Vreg<T>, b: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, a.n);
        assert_eq!(self.n, b.n);
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            let m = self.lanes[i].to_bits();
            l[i] = T::from_bits((m & a.lanes[i].to_bits()) | (!m & b.lanes[i].to_bits()));
        }
        let id = trace::emit(Op::VBsl, Class::VInt, &[self.id, a.id, b.id], None);
        Vreg { lanes: l, n, id }
    }

    // ---------------------------------------------------------------
    // Pairwise operations and reductions.
    // ---------------------------------------------------------------

    /// Pairwise add (`VPADD`): `[a0+a1, a2+a3, …, b0+b1, …]`.
    pub fn padd(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        let h = self.n() / 2;
        for i in 0..h {
            l[i] = self.lanes[2 * i].wadd(self.lanes[2 * i + 1]);
            l[h + i] = o.lanes[2 * i].wadd(o.lanes[2 * i + 1]);
        }
        let op = if T::IS_FLOAT { Op::VFAdd } else { Op::VPadd };
        let id = trace::emit(op, vclass::<T>(), &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// Sum all lanes to a scalar (`ADDV` / `FADDP` tree): one traced
    /// reduction instruction. Integer lanes accumulate wrapping.
    pub fn addv(&self) -> Tr<T> {
        let mut acc = T::zero();
        for i in 0..self.n() {
            acc = acc.wadd(self.lanes[i]);
        }
        let id = trace::emit(Op::VAddv, vclass::<T>(), &[self.id], None);
        Tr::raw(acc, id)
    }

    /// Maximum across lanes (`VMAXV`).
    pub fn maxv(&self) -> Tr<T> {
        let mut acc = self.lanes[0];
        for i in 1..self.n() {
            acc = acc.emax(self.lanes[i]);
        }
        let id = trace::emit(Op::VMaxv, vclass::<T>(), &[self.id], None);
        Tr::raw(acc, id)
    }

    /// Minimum across lanes (`VMINV`).
    pub fn minv(&self) -> Tr<T> {
        let mut acc = self.lanes[0];
        for i in 1..self.n() {
            acc = acc.emin(self.lanes[i]);
        }
        let id = trace::emit(Op::VMinv, vclass::<T>(), &[self.id], None);
        Tr::raw(acc, id)
    }

    // ---------------------------------------------------------------
    // Permutes.
    // ---------------------------------------------------------------

    /// `ZIP1`: interleave the low halves of two registers.
    pub fn zip_lo(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() / 2 {
            l[2 * i] = self.lanes[i];
            l[2 * i + 1] = o.lanes[i];
        }
        let id = trace::emit(Op::VZip, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `ZIP2`: interleave the high halves of two registers.
    pub fn zip_hi(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        let h = self.n() / 2;
        for i in 0..h {
            l[2 * i] = self.lanes[h + i];
            l[2 * i + 1] = o.lanes[h + i];
        }
        let id = trace::emit(Op::VZip, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `UZP1`: concatenate even-indexed lanes of `self` then `o`.
    pub fn uzp_even(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        let h = self.n() / 2;
        for i in 0..h {
            l[i] = self.lanes[2 * i];
            l[h + i] = o.lanes[2 * i];
        }
        let id = trace::emit(Op::VUzp, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `UZP2`: concatenate odd-indexed lanes of `self` then `o`.
    pub fn uzp_odd(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        let h = self.n() / 2;
        for i in 0..h {
            l[i] = self.lanes[2 * i + 1];
            l[h + i] = o.lanes[2 * i + 1];
        }
        let id = trace::emit(Op::VUzp, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `TRN1`: interleave even lanes of the two registers.
    pub fn trn1(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        for i in (0..self.n()).step_by(2) {
            l[i] = self.lanes[i];
            l[i + 1] = o.lanes[i];
        }
        let id = trace::emit(Op::VTrn, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `TRN2`: interleave odd lanes of the two registers.
    pub fn trn2(&self, o: Vreg<T>) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        let (mut l, n) = Self::empty(self.n());
        for i in (0..self.n()).step_by(2) {
            l[i] = self.lanes[i + 1];
            l[i + 1] = o.lanes[i + 1];
        }
        let id = trace::emit(Op::VTrn, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `EXT`: extract `n` lanes from the concatenation `self:o`
    /// starting at lane `k`.
    pub fn ext(&self, o: Vreg<T>, k: usize) -> Vreg<T> {
        assert_eq!(self.n, o.n);
        assert!(k <= self.n());
        let (mut l, n) = Self::empty(self.n());
        for i in 0..self.n() {
            let j = k + i;
            l[i] = if j < self.n() {
                self.lanes[j]
            } else {
                o.lanes[j - self.n()]
            };
        }
        let id = trace::emit(Op::VExt, Class::VMisc, &[self.id, o.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `REV`: reverse lanes within groups of `group` lanes
    /// (`REV16/32/64` depending on `group * lane size`).
    pub fn rev(&self, group: usize) -> Vreg<T> {
        assert!(group >= 2 && self.n().is_multiple_of(group));
        let (mut l, n) = Self::empty(self.n());
        for g in (0..self.n()).step_by(group) {
            for i in 0..group {
                l[g + i] = self.lanes[g + group - 1 - i];
            }
        }
        let id = trace::emit(Op::VRev, Class::VMisc, &[self.id], None);
        Vreg { lanes: l, n, id }
    }

    /// `RBIT`: reverse the bits within every lane.
    pub fn rbit(&self) -> Vreg<T> {
        let bits = (T::BYTES * 8) as u32;
        self.un_op(Op::VRev, Class::VMisc, |a| {
            let mut b = a.to_bits();
            if T::BYTES < 8 {
                b &= (1u64 << bits) - 1;
            }
            T::from_bits(b.reverse_bits() >> (64 - bits))
        })
    }
}

impl Vreg<u8> {
    /// `TBL`: table lookup. Indexes the byte concatenation of
    /// `tables` with each lane of `idx`; out-of-range indices yield 0
    /// (Neon semantics). One instruction regardless of table size up
    /// to four registers.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or longer than four registers.
    pub fn tbl(tables: &[Vreg<u8>], idx: Vreg<u8>) -> Vreg<u8> {
        assert!(
            !tables.is_empty() && tables.len() <= 4,
            "TBL takes 1-4 table registers"
        );
        let n = idx.n();
        let (mut l, nn) = Self::empty(n);
        let tn = tables[0].n();
        for i in 0..n {
            let j = idx.lanes[i] as usize;
            l[i] = if j < tn * tables.len() {
                tables[j / tn].lanes[j % tn]
            } else {
                0
            };
        }
        // The tables' ids then the index's, staged on the stack; the
        // tracer keeps the first four sources.
        let mut srcs = [0u32; 5];
        for (s, t) in srcs.iter_mut().zip(tables) {
            *s = t.id;
        }
        srcs[tables.len()] = idx.id;
        let id = trace::emit(Op::VTbl, Class::VMisc, &srcs[..=tables.len()], None);
        Vreg {
            lanes: l,
            n: nn,
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Mode, Session};

    const W: Width = Width::W128;

    fn v8(vals: &[u8]) -> Vreg<u8> {
        Vreg::from_lanes(W, vals)
    }

    #[test]
    fn load_store_round_trip() {
        let src: Vec<u8> = (0..32).collect();
        let mut dst = vec![0u8; 32];
        let s = Session::begin(Mode::Count);
        Vreg::<u8>::load(W, &src, 0).store(&mut dst, 0);
        Vreg::<u8>::load(W, &src, 16).store(&mut dst, 16);
        let d = s.finish();
        assert_eq!(src, dst);
        assert_eq!(d.op_count(Op::VLd1), 2);
        assert_eq!(d.op_count(Op::VSt1), 2);
    }

    #[test]
    fn ld4_deinterleaves() {
        let src: Vec<u8> = (0..64).collect();
        let [r, g, b, a] = Vreg::<u8>::load4(W, &src, 0);
        assert_eq!(r.lane_value(0), 0);
        assert_eq!(g.lane_value(0), 1);
        assert_eq!(b.lane_value(0), 2);
        assert_eq!(a.lane_value(0), 3);
        assert_eq!(r.lane_value(15), 60);
        let mut out = vec![0u8; 64];
        Vreg::store4(&[r, g, b, a], &mut out, 0);
        assert_eq!(src, out);
    }

    #[test]
    fn ld2_st2_round_trip() {
        let src: Vec<i16> = (0..16).collect();
        let [even, odd] = Vreg::<i16>::load2(W, &src, 0);
        assert_eq!(even.lanes(), &[0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(odd.lanes(), &[1, 3, 5, 7, 9, 11, 13, 15]);
        let mut out = vec![0i16; 16];
        Vreg::store2(&[even, odd], &mut out, 0);
        assert_eq!(src, out);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = v8(&[250; 16]);
        let b = v8(&[10; 16]);
        assert_eq!(a.sat_add(b).lane_value(0), 255);
        assert_eq!(a.add(b).lane_value(0), 4); // wrapping
        assert_eq!(b.sat_sub(a).lane_value(0), 0);
    }

    #[test]
    fn mla_matches_mul_add() {
        let w = Width::W256;
        let a = Vreg::<i32>::splat(w, 3);
        let b = Vreg::<i32>::splat(w, 4);
        let acc = Vreg::<i32>::splat(w, 10);
        let r = acc.mla(a, b);
        assert_eq!(r.n(), 8);
        assert!(r.lanes().iter().all(|&x| x == 22));
    }

    #[test]
    fn compare_and_bsl_if_conversion() {
        let a = v8(&[
            1, 200, 3, 200, 5, 200, 7, 200, 9, 200, 11, 200, 13, 200, 15, 200,
        ]);
        let hi = Vreg::<u8>::splat(W, 100);
        let mask = a.gt_mask(hi);
        let sel = mask.bsl(hi, a); // clamp to 100
        for i in 0..16 {
            assert_eq!(sel.lane_value(i), a.lane_value(i).min(100));
        }
    }

    #[test]
    fn zip_uzp_inverse() {
        let a = v8(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let b = v8(&[
            16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
        ]);
        let lo = a.zip_lo(b);
        let hi = a.zip_hi(b);
        assert_eq!(lo.lanes()[..4], [0, 16, 1, 17]);
        let back_a = lo.uzp_even(hi);
        let back_b = lo.uzp_odd(hi);
        assert_eq!(back_a.lanes(), a.lanes());
        assert_eq!(back_b.lanes(), b.lanes());
    }

    #[test]
    fn ext_concatenates() {
        let a = v8(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let b = v8(&[16; 16]);
        let e = a.ext(b, 3);
        assert_eq!(e.lane_value(0), 3);
        assert_eq!(e.lane_value(12), 15);
        assert_eq!(e.lane_value(13), 16);
    }

    #[test]
    fn tbl_out_of_range_is_zero() {
        let table = v8(&[
            10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        ]);
        let idx = v8(&[0, 15, 16, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let r = Vreg::tbl(&[table], idx);
        assert_eq!(r.lane_value(0), 10);
        assert_eq!(r.lane_value(1), 25);
        assert_eq!(r.lane_value(2), 0);
        assert_eq!(r.lane_value(3), 0);
    }

    #[test]
    fn tbl_two_registers() {
        let t0 = v8(&[0; 16]);
        let t1 = v8(&[1; 16]);
        let idx = v8(&[0, 16, 31, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let r = Vreg::tbl(&[t0, t1], idx);
        assert_eq!(r.lanes()[..4], [0, 1, 1, 0]);
    }

    #[test]
    fn reductions() {
        let a = Vreg::<u32>::from_lanes(W, &[1, 2, 3, 4]);
        assert_eq!(a.addv().get(), 10);
        assert_eq!(a.maxv().get(), 4);
        assert_eq!(a.minv().get(), 1);
        let f = Vreg::<f32>::from_lanes(W, &[0.5, 1.5, 2.0, -1.0]);
        assert_eq!(f.addv().get(), 3.0);
    }

    #[test]
    fn padd_pairs() {
        let a = Vreg::<i16>::from_lanes(W, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = Vreg::<i16>::from_lanes(W, &[10, 10, 20, 20, 30, 30, 40, 40]);
        let r = a.padd(b);
        assert_eq!(r.lanes(), &[3, 7, 11, 15, 20, 40, 60, 80]);
    }

    #[test]
    fn rotl_is_two_shifts() {
        let s = Session::begin(Mode::Count);
        let a = Vreg::<u32>::splat(W, 0x80000001);
        let r = a.rotl(1);
        let d = s.finish();
        assert_eq!(r.lane_value(0), 3);
        assert_eq!(d.op_count(Op::VShift), 2);
    }

    #[test]
    fn rbit_reverses_lane_bits() {
        let a = Vreg::<u8>::splat(W, 0b1000_0000);
        assert_eq!(a.rbit().lane_value(0), 1);
        let b = Vreg::<u32>::splat(W, 1);
        assert_eq!(b.rbit().lane_value(0), 0x8000_0000);
    }

    #[test]
    fn rev_groups() {
        let a = v8(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let r = a.rev(4);
        assert_eq!(r.lanes()[..8], [3, 2, 1, 0, 7, 6, 5, 4]);
    }

    #[test]
    fn lane_access_traced() {
        let s = Session::begin(Mode::Count);
        let a = Vreg::<u16>::splat(W, 7);
        let x = a.get_lane(3);
        let b = a.set_lane(0, x);
        let d = s.finish();
        assert_eq!(b.lane_value(0), 7);
        assert_eq!(d.op_count(Op::VGetLane), 1);
        assert_eq!(d.op_count(Op::VSetLane), 1);
    }

    #[test]
    fn widths_propagate() {
        for w in Width::ALL {
            let a = Vreg::<f32>::splat(w, 1.0);
            assert_eq!(a.n(), w.lanes::<f32>());
            assert_eq!(a.width(), w);
            let b = a.add(a);
            assert_eq!(b.n(), a.n());
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mixed_width_ops_panic() {
        let a = Vreg::<u8>::splat(Width::W128, 1);
        let b = Vreg::<u8>::splat(Width::W256, 1);
        let _ = a.add(b);
    }

    #[test]
    fn float_abs_neg() {
        let a = Vreg::<f32>::from_lanes(W, &[-1.5, 2.0, -0.0, 3.0]);
        assert_eq!(a.abs().lanes(), &[1.5, 2.0, 0.0, 3.0]);
        assert_eq!(a.neg().lane_value(0), 1.5);
    }

    /// Lane storage holds exactly one 1024-bit register of each lane
    /// type: never 128 lanes of a wide type, never too few for the
    /// widest register.
    #[test]
    fn lane_storage_is_one_widest_register() {
        fn check<T: Elem>() {
            assert!(
                std::mem::size_of::<Vreg<T>>() <= 136,
                "Vreg<{}> is {} bytes",
                T::NAME,
                std::mem::size_of::<Vreg<T>>()
            );
            assert_eq!(
                T::ZERO_LANES.as_ref().len(),
                Width::W1024.lanes::<T>(),
                "{}",
                T::NAME
            );
        }
        check::<u8>();
        check::<i8>();
        check::<u16>();
        check::<i16>();
        check::<u32>();
        check::<i32>();
        check::<u64>();
        check::<i64>();
        check::<f32>();
        check::<f64>();
        check::<crate::Half>();
    }
}

//! Tracked scalar values.
//!
//! The scalar implementations of the Swan kernels (and the scalar
//! portions of the vector implementations — address math, loop control,
//! reduction epilogues) are written against [`Tr`] so that every scalar
//! operation emits exactly one dynamic instruction with real dataflow
//! edges, just like the vector intrinsics. This is what lets Figure 1's
//! scalar/vector instruction split and Table 5's microarchitectural
//! profile come out of one unified trace.

use crate::elem::Elem;
use crate::trace::{self, Class, MemRef, Op};
use std::ops::{Add, BitAnd, BitOr, BitXor, Mul, Neg, Shl, Shr, Sub};

/// A tracked scalar value of element type `T`.
///
/// Arithmetic between two `Tr` values (or a `Tr` and an untracked
/// literal, which models an immediate operand) emits one scalar
/// instruction. Use [`lit`] to introduce constants, [`load`]/[`store`]
/// for memory traffic, and [`counted`] to attribute loop-control
/// overhead.
#[derive(Clone, Copy, Debug)]
pub struct Tr<T: Elem> {
    v: T,
    id: u32,
}

impl<T: Elem> Tr<T> {
    pub(crate) fn raw(v: T, id: u32) -> Tr<T> {
        Tr { v, id }
    }

    /// The underlying value (reading it emits nothing).
    #[inline]
    pub fn get(self) -> T {
        self.v
    }

    /// The dataflow id (0 for untracked constants).
    #[inline]
    pub fn id(self) -> u32 {
        self.id
    }

    #[inline]
    fn alu2(self, o: Tr<T>, v: T, op: Op) -> Tr<T> {
        let class = if T::IS_FLOAT {
            Class::SFloat
        } else {
            Class::SInt
        };
        let id = trace::emit(op, class, &[self.id, o.id], None);
        Tr { v, id }
    }

    /// Saturating addition.
    #[inline]
    pub fn sat_add(self, o: Tr<T>) -> Tr<T> {
        self.alu2(o, self.v.sat_add(o.v), arith_op::<T>())
    }

    /// Saturating subtraction.
    #[inline]
    pub fn sat_sub(self, o: Tr<T>) -> Tr<T> {
        self.alu2(o, self.v.sat_sub(o.v), arith_op::<T>())
    }

    /// Minimum. One compare-select instruction.
    #[inline]
    pub fn min(self, o: Tr<T>) -> Tr<T> {
        self.alu2(o, self.v.emin(o.v), arith_op::<T>())
    }

    /// Maximum. One compare-select instruction.
    #[inline]
    pub fn max(self, o: Tr<T>) -> Tr<T> {
        self.alu2(o, self.v.emax(o.v), arith_op::<T>())
    }

    /// Absolute difference.
    #[inline]
    pub fn abd(self, o: Tr<T>) -> Tr<T> {
        self.alu2(o, self.v.abd(o.v), arith_op::<T>())
    }

    /// Division (emits a scalar divide, ~12 cycles on the A76).
    /// Deliberately a plain method, not `std::ops::Div`: kernels call
    /// it explicitly because it emits an expensive `SDiv`/`SFDiv`.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, o: Tr<T>) -> Tr<T> {
        let op = if T::IS_FLOAT { Op::SFDiv } else { Op::SDiv };
        self.alu2(o, self.v.ediv(o.v), op)
    }

    /// Rounding right shift by an immediate.
    #[inline]
    pub fn shr_round(self, imm: u32) -> Tr<T> {
        let id = trace::emit(Op::SAlu, Class::SInt, &[self.id], None);
        Tr {
            v: self.v.shr_round(imm),
            id,
        }
    }

    /// Fused multiply-add: `self * a + b` as one instruction (scalar
    /// `MADD`/`FMADD`).
    #[inline]
    pub fn mul_add(self, a: Tr<T>, b: Tr<T>) -> Tr<T> {
        let (op, class) = if T::IS_FLOAT {
            (Op::SFma, Class::SFloat)
        } else {
            (Op::SMul, Class::SInt)
        };
        let id = trace::emit(op, class, &[self.id, a.id, b.id], None);
        Tr {
            v: self.v.wmul(a.v).wadd(b.v),
            id,
        }
    }

    /// Rotate left by an immediate (one `ROR`-class instruction;
    /// integer types only).
    ///
    /// # Panics
    ///
    /// Panics for floating-point element types.
    #[inline]
    pub fn rotl(self, imm: u32) -> Tr<T> {
        assert!(!T::IS_FLOAT, "rotate on float");
        let bits = (T::BYTES * 8) as u32;
        let imm = imm % bits;
        let mask = if T::BYTES == 8 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let b = self.v.to_bits() & mask;
        let v = T::from_bits(((b << imm) | (b >> ((bits - imm) % bits))) & mask);
        let id = trace::emit(Op::SAlu, Class::SInt, &[self.id], None);
        Tr { v, id }
    }

    /// Rotate right by an immediate (one `ROR` instruction).
    ///
    /// # Panics
    ///
    /// Panics for floating-point element types.
    #[inline]
    pub fn rotr(self, imm: u32) -> Tr<T> {
        let bits = (T::BYTES * 8) as u32;
        self.rotl((bits - (imm % bits)) % bits)
    }

    /// Numeric cast to another element type (one ALU instruction).
    /// Integer-to-integer casts are bit-level (sign-extending);
    /// casts involving floats convert numerically.
    #[inline]
    pub fn cast<U: Elem>(self) -> Tr<U> {
        let v = if !T::IS_FLOAT && !U::IS_FLOAT {
            U::from_bits(self.v.to_bits())
        } else {
            U::from_f64(self.v.to_f64())
        };
        let class = if T::IS_FLOAT || U::IS_FLOAT {
            Class::SFloat
        } else {
            Class::SInt
        };
        let id = trace::emit(Op::SAlu, class, &[self.id], None);
        Tr { v, id }
    }

    /// Data-dependent comparison used for control flow: emits the
    /// compare and a dependent branch, then hands back a host `bool`.
    #[inline]
    pub fn lt_branch(self, o: Tr<T>) -> bool {
        let c = trace::emit(Op::SAlu, Class::SInt, &[self.id, o.id], None);
        trace::emit(Op::SBranch, Class::SInt, &[c], None);
        self.v < o.v
    }

    /// Data-dependent `<=` with branch (see [`Tr::lt_branch`]).
    #[inline]
    pub fn le_branch(self, o: Tr<T>) -> bool {
        let c = trace::emit(Op::SAlu, Class::SInt, &[self.id, o.id], None);
        trace::emit(Op::SBranch, Class::SInt, &[c], None);
        self.v <= o.v
    }

    /// Data-dependent equality with branch (see [`Tr::lt_branch`]).
    #[inline]
    pub fn eq_branch(self, o: Tr<T>) -> bool {
        let c = trace::emit(Op::SAlu, Class::SInt, &[self.id, o.id], None);
        trace::emit(Op::SBranch, Class::SInt, &[c], None);
        self.v == o.v
    }

    /// Branch-free select (`CSEL`): `if cond { a } else { b }` where
    /// `cond` came from this value (compare + select, two instructions).
    #[inline]
    pub fn select_le(self, o: Tr<T>, a: Tr<T>, b: Tr<T>) -> Tr<T> {
        let c = trace::emit(Op::SAlu, Class::SInt, &[self.id, o.id], None);
        let id = trace::emit(Op::SAlu, Class::SInt, &[c, a.id, b.id], None);
        Tr {
            v: if self.v <= o.v { a.v } else { b.v },
            id,
        }
    }
}

#[inline]
fn arith_op<T: Elem>() -> Op {
    if T::IS_FLOAT {
        Op::SFAdd
    } else {
        Op::SAlu
    }
}

#[inline]
fn mul_op<T: Elem>() -> Op {
    if T::IS_FLOAT {
        Op::SFMul
    } else {
        Op::SMul
    }
}

/// Introduce an untracked constant (models an immediate; emits nothing).
#[inline]
pub fn lit<T: Elem>(v: T) -> Tr<T> {
    Tr { v, id: 0 }
}

/// Tracked scalar load: one `LDR` with the real address of `src[i]`.
///
/// # Panics
///
/// Panics if `i` is out of bounds.
#[inline]
pub fn load<T: Elem>(src: &[T], i: usize) -> Tr<T> {
    let v = src[i];
    let id = trace::emit(
        Op::SLoad,
        if T::IS_FLOAT {
            Class::SFloat
        } else {
            Class::SInt
        },
        &[],
        Some(MemRef {
            addr: &src[i] as *const T as u64,
            bytes: T::BYTES as u32,
        }),
    );
    Tr { v, id }
}

/// Tracked scalar load whose address depends on a tracked value (an
/// indirect `A[B[i]]` access, §6.2): the load's dataflow includes the
/// index producer, so the timing model sees the serial chain.
///
/// # Panics
///
/// Panics if `i` is out of bounds.
#[inline]
pub fn load_dep<T: Elem, U: Elem>(src: &[T], i: usize, dep: Tr<U>) -> Tr<T> {
    let v = src[i];
    let id = trace::emit(
        Op::SLoad,
        if T::IS_FLOAT {
            Class::SFloat
        } else {
            Class::SInt
        },
        &[dep.id],
        Some(MemRef {
            addr: &src[i] as *const T as u64,
            bytes: T::BYTES as u32,
        }),
    );
    Tr { v, id }
}

/// Tracked scalar store: one `STR` to the real address of `dst[i]`.
///
/// # Panics
///
/// Panics if `i` is out of bounds.
#[inline]
pub fn store<T: Elem>(dst: &mut [T], i: usize, t: Tr<T>) {
    let addr = &dst[i] as *const T as u64;
    dst[i] = t.v;
    trace::emit(
        Op::SStore,
        if T::IS_FLOAT {
            Class::SFloat
        } else {
            Class::SInt
        },
        &[t.id],
        Some(MemRef {
            addr,
            bytes: T::BYTES as u32,
        }),
    );
}

/// Emit an explicit data-dependent branch on a tracked value.
#[inline]
pub fn branch<T: Elem>(t: Tr<T>) {
    trace::emit(Op::SBranch, Class::SInt, &[t.id], None);
}

/// Wrap a loop iterator so that each iteration charges its control-flow
/// overhead: one index-update ALU op and one (well-predicted) branch.
#[inline]
pub fn counted<I: IntoIterator>(it: I) -> Counted<I::IntoIter> {
    Counted { it: it.into_iter() }
}

/// Iterator adapter returned by [`counted`].
#[derive(Debug)]
pub struct Counted<I> {
    it: I,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let n = self.it.next();
        if n.is_some() {
            trace::emit_overhead(Op::SAlu, Class::SInt, 1);
            trace::emit_overhead(Op::SBranch, Class::SInt, 1);
        }
        n
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.it.size_hint()
    }
}

macro_rules! tr_binop {
    ($trait:ident, $m:ident, $elem:ident, $opf:ident) => {
        impl<T: Elem> $trait for Tr<T> {
            type Output = Tr<T>;
            #[inline]
            fn $m(self, o: Tr<T>) -> Tr<T> {
                self.alu2(o, self.v.$elem(o.v), $opf::<T>())
            }
        }
        impl<T: Elem> $trait<T> for Tr<T> {
            type Output = Tr<T>;
            #[inline]
            fn $m(self, o: T) -> Tr<T> {
                self.alu2(lit(o), self.v.$elem(o), $opf::<T>())
            }
        }
    };
}

tr_binop!(Add, add, wadd, arith_op);
tr_binop!(Sub, sub, wsub, arith_op);
tr_binop!(Mul, mul, wmul, mul_op);

macro_rules! tr_bitop {
    ($trait:ident, $m:ident, $op:tt) => {
        impl<T: Elem> $trait for Tr<T> {
            type Output = Tr<T>;
            #[inline]
            fn $m(self, o: Tr<T>) -> Tr<T> {
                let v = T::from_bits(self.v.to_bits() $op o.v.to_bits());
                self.alu2(o, v, Op::SAlu)
            }
        }
        impl<T: Elem> $trait<T> for Tr<T> {
            type Output = Tr<T>;
            #[inline]
            fn $m(self, o: T) -> Tr<T> {
                let v = T::from_bits(self.v.to_bits() $op o.to_bits());
                self.alu2(lit(o), v, Op::SAlu)
            }
        }
    };
}

tr_bitop!(BitAnd, bitand, &);
tr_bitop!(BitOr, bitor, |);
tr_bitop!(BitXor, bitxor, ^);

impl<T: Elem> Shl<u32> for Tr<T> {
    type Output = Tr<T>;
    #[inline]
    fn shl(self, imm: u32) -> Tr<T> {
        let id = trace::emit(Op::SAlu, Class::SInt, &[self.id], None);
        Tr {
            v: self.v.shl(imm),
            id,
        }
    }
}

impl<T: Elem> Shr<u32> for Tr<T> {
    type Output = Tr<T>;
    #[inline]
    fn shr(self, imm: u32) -> Tr<T> {
        let id = trace::emit(Op::SAlu, Class::SInt, &[self.id], None);
        Tr {
            v: self.v.shr(imm),
            id,
        }
    }
}

impl<T: Elem> Neg for Tr<T> {
    type Output = Tr<T>;
    #[inline]
    fn neg(self) -> Tr<T> {
        lit(T::zero()).alu2(self, T::zero().wsub(self.v), arith_op::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{stream_into, Mode, Session, VecSink};

    #[test]
    fn arithmetic_counts_instructions() {
        let s = Session::begin(Mode::Count);
        let a = lit(3u32);
        let b = lit(4u32);
        let c = a + b; // 1 SAlu
        let d = c * b; // 1 SMul
        let _ = d - a; // 1 SAlu
        let data = s.finish();
        assert_eq!(data.op_count(Op::SAlu), 2);
        assert_eq!(data.op_count(Op::SMul), 1);
        assert_eq!(data.class_count(Class::SInt), 3);
    }

    #[test]
    fn float_ops_count_as_sfloat() {
        let s = Session::begin(Mode::Count);
        let a = lit(1.5f32);
        let b = a + 2.5f32;
        let _ = b * b;
        let data = s.finish();
        assert_eq!(data.class_count(Class::SFloat), 2);
        assert_eq!(data.class_count(Class::SInt), 0);
    }

    #[test]
    fn load_store_round_trip() {
        let src = vec![10u16, 20, 30];
        let mut dst = vec![0u16; 3];
        let (data, trace, ()) = stream_into(VecSink::default(), || {
            for i in counted(0..3) {
                let v = load(&src, i);
                store(&mut dst, i, v + 1u16);
            }
        });
        assert_eq!(dst, vec![11, 21, 31]);
        assert_eq!(data.op_count(Op::SLoad), 3);
        assert_eq!(data.op_count(Op::SStore), 3);
        assert_eq!(data.op_count(Op::SBranch), 3);
        // Store depends on the add result.
        let st = trace.instrs.iter().find(|i| i.op == Op::SStore).unwrap();
        assert_ne!(st.srcs[0], 0);
    }

    #[test]
    fn values_compute_correctly() {
        let a = lit(200u8);
        assert_eq!((a + 100u8).get(), 44); // wrapping
        assert_eq!(a.sat_add(lit(100)).get(), 255);
        assert_eq!((a >> 2).get(), 50);
        assert_eq!(a.min(lit(7)).get(), 7);
        assert_eq!(a.abd(lit(255)).get(), 55);
        assert_eq!(lit(-8i32).cast::<i64>().get(), -8);
        assert_eq!(lit(3.7f32).cast::<i32>().get(), 3);
    }

    #[test]
    fn select_is_branch_free() {
        let s = Session::begin(Mode::Count);
        let x = lit(5u32).select_le(lit(9), lit(1), lit(2));
        let data = s.finish();
        assert_eq!(x.get(), 1);
        assert_eq!(data.op_count(Op::SBranch), 0);
        assert_eq!(data.op_count(Op::SAlu), 2);
    }

    #[test]
    fn branchy_compare_emits_branch() {
        let s = Session::begin(Mode::Count);
        let taken = lit(5u32).lt_branch(lit(9));
        let data = s.finish();
        assert!(taken);
        assert_eq!(data.op_count(Op::SBranch), 1);
    }
}

#[cfg(test)]
mod rot_tests {
    use super::*;

    #[test]
    fn rotates() {
        assert_eq!(lit(0x80000001u32).rotl(1).get(), 3);
        assert_eq!(lit(3u32).rotr(1).get(), 0x80000001);
        assert_eq!(lit(0x01u8).rotl(7).get(), 0x80);
        assert_eq!(lit(1u64).rotr(1).get(), 1 << 63);
        assert_eq!(lit(7u32).rotl(0).get(), 7);
    }
}

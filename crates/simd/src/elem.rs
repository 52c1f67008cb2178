//! Element types that can populate vector lanes and tracked scalars.
//!
//! [`Elem`] abstracts over the ten lane types the Swan kernels use
//! (`u8/i8/u16/i16/u32/i32/u64/i64/f32` and the emulated half-precision
//! [`Half`]). The trait exposes exactly the lane-wise semantics the Neon
//! intrinsic surface needs: wrapping, saturating, halving and widening
//! arithmetic, bit-level reinterpretation (for masks and `BSL`), and
//! lossless round-trips through `f64` for input generation and checks.

use crate::width::MAX_LANES;
use std::fmt;
use std::ops::{Index, IndexMut, Range, RangeTo};

/// A lane element type.
///
/// Implemented for the integer types, `f32`/`f64`, and [`Half`]. The
/// methods mirror Neon's per-lane semantics; integer operations wrap
/// unless the name says otherwise.
pub trait Elem:
    Copy + Default + PartialEq + PartialOrd + fmt::Debug + Send + Sync + 'static
{
    /// Lane size in bytes.
    const BYTES: usize;
    /// Whether operations on this type count as floating-point
    /// instructions (paper classes `S-Float` / `V-Float`).
    const IS_FLOAT: bool;
    /// Short type name used in reports (for example `"u8"`).
    const NAME: &'static str;
    /// Lane storage of one register: exactly one 1024-bit register of
    /// this type, `[Self; 128 / BYTES]`, so a `Vreg` of any lane type
    /// stays 136 bytes instead of carrying 128 lanes of every type.
    type Lanes: Copy
        + AsRef<[Self]>
        + Index<usize, Output = Self>
        + IndexMut<usize>
        + Index<Range<usize>, Output = [Self]>
        + IndexMut<Range<usize>>
        + Index<RangeTo<usize>, Output = [Self]>
        + IndexMut<RangeTo<usize>>;
    /// All-zero lane storage.
    const ZERO_LANES: Self::Lanes;

    /// The additive identity.
    fn zero() -> Self;
    /// Reinterpret the lane as raw bits, sign-extended to 64 bits for
    /// signed integers so that `-1` becomes the all-ones mask.
    fn to_bits(self) -> u64;
    /// Reinterpret 64 raw bits as a lane (truncating).
    fn from_bits(bits: u64) -> Self;
    /// Lossy conversion to `f64` (exact for every type but `u64`/`i64`
    /// extremes).
    fn to_f64(self) -> f64;
    /// Conversion from `f64`, truncating toward zero and saturating at
    /// the type bounds for integers.
    fn from_f64(v: f64) -> Self;

    /// Wrapping addition (float: plain addition).
    fn wadd(self, o: Self) -> Self;
    /// Wrapping subtraction (float: plain subtraction).
    fn wsub(self, o: Self) -> Self;
    /// Wrapping multiplication (float: plain multiplication).
    fn wmul(self, o: Self) -> Self;
    /// Saturating addition (float: plain addition).
    fn sat_add(self, o: Self) -> Self;
    /// Saturating subtraction (float: plain subtraction).
    fn sat_sub(self, o: Self) -> Self;
    /// Lane minimum.
    fn emin(self, o: Self) -> Self;
    /// Lane maximum.
    fn emax(self, o: Self) -> Self;
    /// Absolute difference, `|a - b|`, computed without overflow.
    fn abd(self, o: Self) -> Self;
    /// Halving add `(a + b) >> 1` computed in wider arithmetic;
    /// `round` adds the rounding constant first (Neon `VRHADD`).
    fn hadd(self, o: Self, round: bool) -> Self;
    /// Left shift by an immediate. Panics for floats.
    fn shl(self, imm: u32) -> Self;
    /// Right shift by an immediate (arithmetic for signed types).
    /// Panics for floats.
    fn shr(self, imm: u32) -> Self;
    /// Rounding right shift: `(a + (1 << (imm - 1))) >> imm` in wider
    /// arithmetic (Neon `VRSHR`). Panics for floats.
    fn shr_round(self, imm: u32) -> Self;
    /// Division (integer division truncates; used only by scalar code).
    fn ediv(self, o: Self) -> Self;
}

macro_rules! int_elem {
    ($t:ty, $wide:ty, $bytes:expr, $name:expr) => {
        impl Elem for $t {
            const BYTES: usize = $bytes;
            const IS_FLOAT: bool = false;
            const NAME: &'static str = $name;
            type Lanes = [$t; MAX_LANES / $bytes];
            const ZERO_LANES: Self::Lanes = [0; MAX_LANES / $bytes];

            #[inline]
            fn zero() -> Self {
                0
            }
            #[inline]
            fn to_bits(self) -> u64 {
                self as i64 as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                if v.is_nan() {
                    0
                } else if v >= <$t>::MAX as f64 {
                    <$t>::MAX
                } else if v <= <$t>::MIN as f64 {
                    <$t>::MIN
                } else {
                    v as $t
                }
            }
            #[inline]
            fn wadd(self, o: Self) -> Self {
                self.wrapping_add(o)
            }
            #[inline]
            fn wsub(self, o: Self) -> Self {
                self.wrapping_sub(o)
            }
            #[inline]
            fn wmul(self, o: Self) -> Self {
                self.wrapping_mul(o)
            }
            #[inline]
            fn sat_add(self, o: Self) -> Self {
                self.saturating_add(o)
            }
            #[inline]
            fn sat_sub(self, o: Self) -> Self {
                self.saturating_sub(o)
            }
            #[inline]
            fn emin(self, o: Self) -> Self {
                Ord::min(self, o)
            }
            #[inline]
            fn emax(self, o: Self) -> Self {
                Ord::max(self, o)
            }
            #[inline]
            fn abd(self, o: Self) -> Self {
                if self > o {
                    self.wrapping_sub(o)
                } else {
                    o.wrapping_sub(self)
                }
            }
            #[inline]
            fn hadd(self, o: Self, round: bool) -> Self {
                let r = if round { 1 } else { 0 };
                ((self as $wide + o as $wide + r) >> 1) as $t
            }
            #[inline]
            fn shl(self, imm: u32) -> Self {
                self.wrapping_shl(imm)
            }
            #[inline]
            fn shr(self, imm: u32) -> Self {
                self.wrapping_shr(imm)
            }
            #[inline]
            fn shr_round(self, imm: u32) -> Self {
                if imm == 0 {
                    self
                } else {
                    (((self as $wide) + (1 << (imm - 1))) >> imm) as $t
                }
            }
            #[inline]
            fn ediv(self, o: Self) -> Self {
                if o == 0 {
                    0
                } else {
                    self.wrapping_div(o)
                }
            }
        }
    };
}

int_elem!(u8, u16, 1, "u8");
int_elem!(i8, i16, 1, "i8");
int_elem!(u16, u32, 2, "u16");
int_elem!(i16, i32, 2, "i16");
int_elem!(u32, u64, 4, "u32");
int_elem!(i32, i64, 4, "i32");
int_elem!(u64, u128, 8, "u64");
int_elem!(i64, i128, 8, "i64");

macro_rules! float_elem {
    ($t:ty, $bytes:expr, $name:expr, $to:ident, $from:ident) => {
        impl Elem for $t {
            const BYTES: usize = $bytes;
            const IS_FLOAT: bool = true;
            const NAME: &'static str = $name;
            type Lanes = [$t; MAX_LANES / $bytes];
            const ZERO_LANES: Self::Lanes = [0.0; MAX_LANES / $bytes];

            #[inline]
            fn zero() -> Self {
                0.0
            }
            #[inline]
            fn to_bits(self) -> u64 {
                <$t>::$to(self) as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                <$t>::$from(bits as _)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn wadd(self, o: Self) -> Self {
                self + o
            }
            #[inline]
            fn wsub(self, o: Self) -> Self {
                self - o
            }
            #[inline]
            fn wmul(self, o: Self) -> Self {
                self * o
            }
            #[inline]
            fn sat_add(self, o: Self) -> Self {
                self + o
            }
            #[inline]
            fn sat_sub(self, o: Self) -> Self {
                self - o
            }
            #[inline]
            fn emin(self, o: Self) -> Self {
                self.min(o)
            }
            #[inline]
            fn emax(self, o: Self) -> Self {
                self.max(o)
            }
            #[inline]
            fn abd(self, o: Self) -> Self {
                (self - o).abs()
            }
            #[inline]
            fn hadd(self, o: Self, _round: bool) -> Self {
                (self + o) * 0.5
            }
            fn shl(self, _imm: u32) -> Self {
                panic!("shift on floating-point lanes")
            }
            fn shr(self, _imm: u32) -> Self {
                panic!("shift on floating-point lanes")
            }
            fn shr_round(self, _imm: u32) -> Self {
                panic!("shift on floating-point lanes")
            }
            #[inline]
            fn ediv(self, o: Self) -> Self {
                self / o
            }
        }
    };
}

float_elem!(f32, 4, "f32", to_bits, from_bits);
float_elem!(f64, 8, "f64", to_bits, from_bits);

/// IEEE 754 half-precision value, stored as raw bits.
///
/// Arm Neon's FP16 extension is emulated by round-tripping every
/// operation through `f32` with a correctly rounded (round-to-nearest-
/// even) conversion back to 16 bits. This preserves the property the
/// paper relies on: FP16 doubles the Vector Register Elements (`VRE`)
/// relative to FP32.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Half(pub u16);

impl Half {
    /// Convert from `f32` with round-to-nearest-even, handling
    /// subnormals, overflow to infinity, and NaN.
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;
        if exp == 0xff {
            // Inf / NaN.
            let m = if mant != 0 { 0x0200 } else { 0 };
            return Half(sign | 0x7c00 | m);
        }
        // Re-bias from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return Half(sign | 0x7c00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal range: 10-bit mantissa, round to nearest even.
            let half_exp = (unbiased + 15) as u32;
            let shifted = mant >> 13;
            let rest = mant & 0x1fff;
            let mut out = (half_exp << 10) | shifted;
            if rest > 0x1000 || (rest == 0x1000 && (shifted & 1) == 1) {
                out += 1; // may carry into the exponent, which is correct
            }
            return Half(sign | out as u16);
        }
        if unbiased >= -25 {
            // Subnormal half.
            let full_mant = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let shifted = full_mant >> shift;
            let rest = full_mant & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = shifted;
            if rest > halfway || (rest == halfway && (shifted & 1) == 1) {
                out += 1;
            }
            return Half(sign | out as u16);
        }
        Half(sign) // underflow to signed zero
    }

    /// Convert to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1f) as u32;
        let mant = (self.0 & 0x3ff) as u32;
        let bits = if exp == 0x1f {
            sign | 0x7f80_0000 | (mant << 13)
        } else if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Normalize the subnormal: value = mant * 2^-24, so
                // after k shifts the exponent is -14 - k (bias 127).
                let mut k = 0i32;
                let mut m = mant;
                while m & 0x400 == 0 {
                    m <<= 1;
                    k += 1;
                }
                let exp32 = (113 - k) as u32;
                sign | (exp32 << 23) | ((m & 0x3ff) << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Half({})", self.to_f32())
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! half_binop {
    ($f:ident, $op:tt) => {
        #[inline]
        fn $f(self, o: Self) -> Self {
            Half::from_f32(self.to_f32() $op o.to_f32())
        }
    };
}

impl Elem for Half {
    const BYTES: usize = 2;
    const IS_FLOAT: bool = true;
    const NAME: &'static str = "f16";
    type Lanes = [Half; MAX_LANES / 2];
    const ZERO_LANES: Self::Lanes = [Half(0); MAX_LANES / 2];

    #[inline]
    fn zero() -> Self {
        Half(0)
    }
    #[inline]
    fn to_bits(self) -> u64 {
        self.0 as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        Half(bits as u16)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        Half::from_f32(v as f32)
    }
    half_binop!(wadd, +);
    half_binop!(wsub, -);
    half_binop!(wmul, *);
    half_binop!(sat_add, +);
    half_binop!(sat_sub, -);
    half_binop!(ediv, /);
    #[inline]
    fn emin(self, o: Self) -> Self {
        Half::from_f32(self.to_f32().min(o.to_f32()))
    }
    #[inline]
    fn emax(self, o: Self) -> Self {
        Half::from_f32(self.to_f32().max(o.to_f32()))
    }
    #[inline]
    fn abd(self, o: Self) -> Self {
        Half::from_f32((self.to_f32() - o.to_f32()).abs())
    }
    #[inline]
    fn hadd(self, o: Self, _round: bool) -> Self {
        Half::from_f32((self.to_f32() + o.to_f32()) * 0.5)
    }
    fn shl(self, _imm: u32) -> Self {
        panic!("shift on floating-point lanes")
    }
    fn shr(self, _imm: u32) -> Self {
        panic!("shift on floating-point lanes")
    }
    fn shr_round(self, _imm: u32) -> Self {
        panic!("shift on floating-point lanes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_to_bits_sign_extends() {
        assert_eq!((-1i8).to_bits(), u64::MAX);
        assert_eq!((-1i16).to_bits(), u64::MAX);
        assert_eq!(i8::from_bits(u64::MAX), -1);
    }

    #[test]
    fn from_f64_saturates_integers() {
        assert_eq!(u8::from_f64(300.0), 255);
        assert_eq!(i8::from_f64(-1000.0), -128);
        assert_eq!(u8::from_f64(f64::NAN), 0);
        assert_eq!(i32::from_f64(1.9), 1);
    }

    #[test]
    fn halving_add_never_overflows() {
        assert_eq!(250u8.hadd(254, false), 252);
        assert_eq!(250u8.hadd(253, true), 252);
        assert_eq!((-120i8).hadd(-121, false), -121);
    }

    #[test]
    fn rounding_shift_matches_definition() {
        assert_eq!(7u8.shr_round(1), 4);
        assert_eq!(255u8.shr_round(4), 16); // needs wide arithmetic
        assert_eq!((-5i16).shr_round(1), -2);
    }

    #[test]
    fn abd_is_symmetric_and_unsigned_safe() {
        assert_eq!(3u8.abd(250), 247);
        assert_eq!(250u8.abd(3), 247);
        assert_eq!((-100i8).abd(100), i8::from_bits(200));
    }

    #[test]
    fn half_round_trip_simple_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 65504.0, 1e-4, std::f32::consts::PI] {
            let h = Half::from_f32(v);
            let back = h.to_f32();
            let rel = if v == 0.0 {
                back.abs()
            } else {
                ((back - v) / v).abs()
            };
            assert!(rel < 1e-3, "v={v} back={back}");
        }
    }

    #[test]
    fn half_overflow_and_nan() {
        assert_eq!(Half::from_f32(1e9).0, 0x7c00);
        assert_eq!(Half::from_f32(-1e9).0, 0xfc00);
        assert!(Half::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn half_round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between two halves; RNE keeps 1.0.
        let v = 1.0f32 + f32::powi(2.0, -11);
        assert_eq!(Half::from_f32(v).0, Half::from_f32(1.0).0);
        // Slightly above halfway rounds up.
        let v2 = 1.0f32 + f32::powi(2.0, -11) + f32::powi(2.0, -20);
        assert_eq!(Half::from_f32(v2).0, Half::from_f32(1.0).0 + 1);
    }

    #[test]
    fn half_subnormals() {
        let tiny = f32::powi(2.0, -24); // smallest subnormal half
        let h = Half::from_f32(tiny);
        assert_eq!(h.0, 1);
        assert_eq!(h.to_f32(), tiny);
    }
}

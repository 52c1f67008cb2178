//! Shared helpers for kernel definitions: input generators and the
//! kernel/runnable boilerplate macros.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for input generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random bytes.
pub fn gen_u8(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Random `i16` samples bounded to avoid overflow in fixed-point
/// filters.
pub fn gen_i16(rng: &mut StdRng, n: usize, max_abs: i16) -> Vec<i16> {
    (0..n).map(|_| rng.gen_range(-max_abs..=max_abs)).collect()
}

/// Random `f32` samples in `[-amp, amp]`.
pub fn gen_f32(rng: &mut StdRng, n: usize, amp: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-amp..=amp)).collect()
}

/// Random `u32` words.
pub fn gen_u32(rng: &mut StdRng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen()).collect()
}

/// What a kernel state's Auto build runs, declared beside the `run`
/// that chooses the code path: `Some(imp)` when [`swan_core::Impl::Auto`]
/// runs exactly the code `imp` runs at 128 bits (the two streams are
/// byte-identical, so a campaign measures them once), `None` when the
/// state has Auto code of its own. [`runnable!`] implements it from its
/// `auto` argument; hand-written `Runnable`s implement it themselves.
/// [`swan_kernel!`] copies it into `KernelMeta::auto_stream`.
pub(crate) trait AutoStream {
    /// The implementation whose 128-bit stream Auto runs, if any.
    const AUTO_STREAM: Option<swan_core::Impl>;
}

/// Define the `Kernel` wrapper type for a kernel state struct.
///
/// The state type must provide `new(Scale, u64) -> Self` and implement
/// [`swan_core::Runnable`] and [`AutoStream`].
macro_rules! swan_kernel {
    (
        $(#[$doc:meta])*
        $kernel:ident, $state:ty, {
            name: $name:expr,
            library: $lib:ident,
            precision_bits: $bits:expr,
            is_float: $isf:expr,
            auto: $auto:expr,
            obstacles: [$($obs:ident),* $(,)?],
            patterns: [$($pat:ident),* $(,)?],
            tolerance: $tol:expr
            $(, excluded: $exc:expr)? $(,)?
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $kernel;

        impl swan_core::Kernel for $kernel {
            fn meta(&self) -> swan_core::KernelMeta {
                #[allow(unused_mut, unused_assignments)]
                let mut excluded = false;
                $(excluded = $exc;)?
                swan_core::KernelMeta {
                    name: $name,
                    library: swan_core::Library::$lib,
                    precision_bits: $bits,
                    is_float: $isf,
                    auto: $auto,
                    auto_stream: <$state as crate::util::AutoStream>::AUTO_STREAM,
                    obstacles: &[$(swan_core::AutoObstacle::$obs),*],
                    patterns: &[$(swan_core::Pattern::$pat),*],
                    tolerance: $tol,
                    excluded_from_eval: excluded,
                }
            }

            fn instantiate(
                &self,
                scale: swan_core::Scale,
                seed: u64,
            ) -> Box<dyn swan_core::Runnable> {
                Box::new(<$state>::new(scale, seed))
            }
        }
    };
}

/// Implement [`swan_core::Runnable`] for a state struct with
/// `scalar(&mut self)`, `neon(&mut self, Width)` and `out(&self)`
/// methods. The `auto` argument selects what the compiler-vectorized
/// build runs: `scalar` (vectorization failed), `neon` (vectorized at
/// 128 bits), or `custom` (the state provides `fn auto(&mut self)`).
/// The same argument implements [`AutoStream`]: `scalar` and `neon`
/// declare the Auto stream a twin of that implementation's 128-bit
/// stream, `custom` declares none.
///
/// The mandatory `buffers` clause runs at `run()` entry and must
/// register every buffer the kernel loads from or stores to
/// (`swan_simd::with_buffers!`), so the trace's memory references are
/// virtualized to host-layout-independent addresses. Forgetting a
/// buffer falls back to deterministic-but-locality-blind anonymous
/// mapping; `tests/golden_suite.rs` asserts the whole campaign never
/// hits the fallback.
macro_rules! runnable {
    ($state:ty, auto = scalar, buffers = |$s:ident| $reg:block) => {
        impl crate::util::AutoStream for $state {
            const AUTO_STREAM: Option<swan_core::Impl> = Some(swan_core::Impl::Scalar);
        }
        impl swan_core::Runnable for $state {
            fn run(&mut self, imp: swan_core::Impl, w: swan_simd::Width) {
                {
                    let $s: &Self = self;
                    $reg
                }
                match imp {
                    swan_core::Impl::Scalar | swan_core::Impl::Auto => self.scalar(),
                    swan_core::Impl::Neon => self.neon(w),
                }
            }
            fn output(&self) -> Vec<f64> {
                self.out()
            }
        }
    };
    ($state:ty, auto = neon, buffers = |$s:ident| $reg:block) => {
        impl crate::util::AutoStream for $state {
            const AUTO_STREAM: Option<swan_core::Impl> = Some(swan_core::Impl::Neon);
        }
        impl swan_core::Runnable for $state {
            fn run(&mut self, imp: swan_core::Impl, w: swan_simd::Width) {
                {
                    let $s: &Self = self;
                    $reg
                }
                match imp {
                    swan_core::Impl::Scalar => self.scalar(),
                    swan_core::Impl::Neon => self.neon(w),
                    swan_core::Impl::Auto => self.neon(swan_simd::Width::W128),
                }
            }
            fn output(&self) -> Vec<f64> {
                self.out()
            }
        }
    };
    ($state:ty, auto = custom, buffers = |$s:ident| $reg:block) => {
        impl crate::util::AutoStream for $state {
            const AUTO_STREAM: Option<swan_core::Impl> = None;
        }
        impl swan_core::Runnable for $state {
            fn run(&mut self, imp: swan_core::Impl, w: swan_simd::Width) {
                {
                    let $s: &Self = self;
                    $reg
                }
                match imp {
                    swan_core::Impl::Scalar => self.scalar(),
                    swan_core::Impl::Neon => self.neon(w),
                    swan_core::Impl::Auto => self.auto(),
                }
            }
            fn output(&self) -> Vec<f64> {
                self.out()
            }
        }
    };
}

pub(crate) use {runnable, swan_kernel};

use swan_simd::elem::Elem;
use swan_simd::{Tr, Vreg};

/// Tree reduction of all lanes to a tracked scalar: log2(lanes)
/// EXT+ADD steps followed by a lane move — the multi-step reduction the
/// paper describes for wide registers (§7.1), whose cost grows with
/// register width.
pub(crate) fn tree_reduce_add<T: Elem>(v: Vreg<T>) -> Tr<T> {
    let z = Vreg::<T>::zero(v.width());
    let mut s = v;
    let mut m = v.n();
    while m > 1 {
        m /= 2;
        s = s.add(s.ext(z, m));
    }
    s.get_lane(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_simd::Width;

    #[test]
    fn tree_reduce_sums_all_lanes() {
        for w in Width::ALL {
            let vals: Vec<f32> = (0..w.lanes::<f32>()).map(|i| i as f32).collect();
            let v = Vreg::<f32>::from_lanes(w, &vals);
            let expect: f32 = vals.iter().sum();
            assert_eq!(tree_reduce_add(v).get(), expect, "width {w}");
            let iv =
                Vreg::<i32>::from_lanes(w, &vals.iter().map(|&x| x as i32).collect::<Vec<_>>());
            assert_eq!(tree_reduce_add(iv).get(), expect as i32);
        }
    }
}

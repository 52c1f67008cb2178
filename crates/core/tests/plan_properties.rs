//! Properties of the scenario planner: `campaign::plan()` must be a
//! pure function of (inventory, scale, seed) — deterministic,
//! duplicate-free, and canonically ordered — for *any* scale and seed,
//! because scenario ids key the golden baselines and execution groups.
//!
//! Runs against a synthetic inventory (a Figure 5 representative and a
//! plain kernel) so the properties are checked on both expansion
//! shapes without depending on `swan-kernels`.

use proptest::prelude::*;
use std::collections::HashSet;
use swan_core::{plan, AutoOutcome, Impl, Kernel, KernelMeta, Library, Runnable, Scale};
use swan_simd::Width;

/// A do-nothing kernel with a configurable identity. `XP.gemm_f32`
/// matches the Figure 5 representative list, so the planner gives it
/// the width/core sweeps; any other name gets the base matrix only.
struct Fake {
    name: &'static str,
    library: Library,
}

struct FakeRun;

impl Runnable for FakeRun {
    fn run(&mut self, _imp: Impl, _w: Width) {}

    fn output(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl Kernel for Fake {
    fn meta(&self) -> KernelMeta {
        KernelMeta {
            name: self.name,
            library: self.library,
            precision_bits: 32,
            is_float: true,
            auto: AutoOutcome::SameAsScalar,
            auto_stream: Some(Impl::Scalar),
            obstacles: &[],
            patterns: &[],
            tolerance: 0.0,
            excluded_from_eval: false,
        }
    }

    fn instantiate(&self, _scale: Scale, _seed: u64) -> Box<dyn Runnable> {
        Box::new(FakeRun)
    }
}

fn inventory() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Fake {
            name: "gemm_f32",
            library: Library::XP,
        }),
        Box::new(Fake {
            name: "memcpy",
            library: Library::OR,
        }),
    ]
}

/// Base matrix: Scalar on 3 cores + Auto on Prime + Neon on 3 cores.
const BASE: usize = 7;
/// Representative extras: 6 Figure 5(b) cores + 3 wider widths.
const REP_EXTRA: usize = 9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same inputs, same plan — scenario by scenario — and every
    /// scenario id is unique (ids are golden-baseline keys).
    #[test]
    fn plan_is_deterministic_and_duplicate_free(
        seed in any::<u64>(),
        scale in 0.001f64..4.0,
    ) {
        let kernels = inventory();
        let a = plan(&kernels, Scale(scale), seed);
        let b = plan(&kernels, Scale(scale), seed);
        prop_assert_eq!(&a, &b);

        prop_assert_eq!(a.len(), BASE + REP_EXTRA + BASE);
        let ids: HashSet<String> = a.iter().map(|sc| sc.id()).collect();
        prop_assert_eq!(ids.len(), a.len(), "duplicate scenario ids");

        // Every scenario carries the plan's scale and seed verbatim,
        // and kernel indices stay within the inventory.
        for sc in &a {
            prop_assert_eq!(sc.seed, seed);
            prop_assert_eq!(sc.scale.0.to_bits(), scale.to_bits());
            prop_assert!(sc.kernel < kernels.len());
        }
    }

    /// Canonical ordering: kernels appear in inventory order, each
    /// kernel's scenarios contiguous, the representative carrying the
    /// width/core sweeps and the plain kernel only the base matrix.
    #[test]
    fn plan_order_is_canonical(seed in any::<u64>()) {
        let kernels = inventory();
        let p = plan(&kernels, Scale::test(), seed);
        let firsts: Vec<usize> = p.iter().map(|sc| sc.kernel).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(firsts, sorted, "kernels must be contiguous, in order");

        let rep: Vec<_> = p.iter().filter(|sc| sc.kernel == 0).collect();
        let plain: Vec<_> = p.iter().filter(|sc| sc.kernel == 1).collect();
        prop_assert_eq!(rep.len(), BASE + REP_EXTRA);
        prop_assert_eq!(plain.len(), BASE);
        prop_assert!(plain.iter().all(|sc| sc.width == Width::W128));
        prop_assert_eq!(rep.iter().filter(|sc| sc.width != Width::W128).count(), 3);
    }
}

//! # Swan-rs — Rust reproduction of the Swan mobile vector-processing
//! benchmark suite
//!
//! A from-scratch implementation of *"Vector-Processing for Mobile
//! Devices: Benchmark and Analysis"* (IISWC 2023): the 59 data-parallel
//! kernels from 12 mobile libraries, an instrumented fake-Neon vector
//! engine with 128–1024-bit registers, a trace-driven out-of-order
//! core/cache/power simulator modelling the Snapdragon 855, analytical
//! GPU/DSP offload models, and report generators for every table and
//! figure in the paper.
//!
//! ## Quickstart
//!
//! ```
//! use swan::prelude::*;
//!
//! // Pick a kernel, verify scalar == vector, and measure both.
//! let kernel = &swan::suite()[0];
//! verify_kernel(kernel.as_ref(), Scale::test(), 42).unwrap();
//! let scalar = measure(kernel.as_ref(), Impl::Scalar, Width::W128,
//!                      &CoreConfig::prime(), Scale::test(), 42);
//! let neon = measure(kernel.as_ref(), Impl::Neon, Width::W128,
//!                    &CoreConfig::prime(), Scale::test(), 42);
//! assert!(neon.seconds() < scalar.seconds());
//!
//! // Whole campaigns: plan the paper's scenario matrix, keep a slice
//! // of it, and execute it — one recorded run per instruction stream,
//! // replayed into every core the slice names.
//! let kernels = swan::suite();
//! let only = ScenarioFilter::parse("kernel=adler32,impl=neon,width=128").unwrap();
//! let scenarios = filter_plan(&plan(&kernels, Scale::test(), 42), &[only]);
//! let run = Campaign { threads: 2, ..Campaign::default() }.execute(&kernels, &scenarios, |_| {});
//! assert_eq!(run.executed_groups, 1);
//! assert_eq!(run.complete().len(), scenarios.len());
//! ```

pub use swan_accel as accel;
pub use swan_core as core;
pub use swan_kernels as kernels;
pub use swan_simd as simd;
pub use swan_uarch as uarch;

/// The 59 evaluated Swan kernels.
pub fn suite() -> Vec<Box<dyn swan_core::Kernel>> {
    swan_kernels::all_kernels()
}

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use swan_core::{
        aggregate, filter_plan, measure, plan, verify_kernel, Campaign, CampaignRun, Impl, Kernel,
        KernelMeta, Library, Measurement, Scale, Scenario, ScenarioFilter,
    };
    pub use swan_simd::{Vreg, Width};
    pub use swan_uarch::{CoreConfig, CoreId};
}

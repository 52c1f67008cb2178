//! # swan-uarch — trace-driven core, cache, and power models
//!
//! Consumes the dynamic instruction traces produced by `swan-simd`
//! (operation tags, dataflow value ids, memory references) and replays
//! them through:
//!
//! * a three-level set-associative [`cache::CacheHierarchy`] configured
//!   per the paper's Table 3 (Snapdragon 855 Cortex-A76 Prime core);
//! * an out-of-order [`core::CoreModel`] with configurable decode/commit
//!   ways, ROB size, and functional-unit pools (including the 2x128-bit
//!   ASIMD pipes the paper analyses, and the wider sweeps of Figure 5b);
//! * an event-based [`power::EnergyModel`] that converts the activity
//!   counts into chip power/energy, reproducing the paper's Figure 3
//!   observation that vectorisation raises power through DRAM access
//!   rate while still saving energy.
//!
//! This mirrors the paper's own methodology for its scalability study:
//! DynamoRIO instruction traces fed to a Ramulator-style CPU model (§4.3).
//!
//! ## Example
//!
//! ```
//! use swan_simd::{trace, Vreg, VecSink, Width};
//! use swan_uarch::{simulate, CoreConfig};
//!
//! let data: Vec<f32> = vec![1.0; 256];
//! let (_, trace, ()) = trace::stream_into(VecSink::default(), || {
//!     let mut acc = Vreg::<f32>::zero(Width::W128);
//!     for off in (0..256).step_by(4) {
//!         acc = acc.add(Vreg::load(Width::W128, &data, off));
//!     }
//! });
//! let result = simulate(&trace.instrs, &CoreConfig::prime());
//! assert!(result.cycles > 0);
//! assert!(result.ipc() <= CoreConfig::prime().commit_width as f64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod core;
pub mod power;

pub use cache::{CacheConfig, CacheHierarchy, CacheStats, MemConfig};
pub use config::{CoreConfig, CoreId};
pub use core::{BatchStats, CoreModel, MultiCore, SimResult};
pub use power::{EnergyBreakdown, EnergyModel};

use swan_simd::TraceInstr;

/// Simulate a hand-built instruction stream on the given core with
/// warmed caches: the memory reference stream is replayed once to warm
/// the hierarchy (the paper warms caches before each measured
/// iteration, §4.3), then the timed simulation runs.
pub fn simulate(instrs: &[TraceInstr], cfg: &CoreConfig) -> SimResult {
    let mut model = CoreModel::new(cfg.clone());
    model.begin_warm();
    model.warm_batch(instrs);
    model.begin_timed();
    model.step_batch(instrs);
    model.finalize()
}

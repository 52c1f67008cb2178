//! # swan-bench — benchmark harness helpers
//!
//! The Criterion benches under `benches/` regenerate each paper
//! table/figure's data on reduced inputs (so a full `cargo bench` run
//! stays tractable) and time the two halves of the pipeline the
//! reproduction is built from: functional trace capture (the fake-Neon
//! emulator) and trace-driven timing simulation. The full-size numbers
//! come from the `swan-report` binary.

use swan_core::{measure, Impl, Kernel, Measurement, Scale};
use swan_simd::Width;
use swan_uarch::CoreConfig;

// The representative-kernel registry lives in `swan_core::perf` (the
// self-timing perf harness probes the same kernels the benches
// exercise); re-exported here so benches keep one import path.
pub use swan_core::perf::{find, REPRESENTATIVES};

/// Trace + simulate one configuration end to end (what one data point
/// of Figures 2-5 costs): [`swan_core::measure`] records the kernel
/// once and replays the recording warm + timed into the core model.
pub fn measure_point(
    kernel: &dyn Kernel,
    imp: Impl,
    w: Width,
    cfg: &CoreConfig,
    scale: Scale,
) -> Measurement {
    measure(kernel, imp, w, cfg, scale, 42)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representatives_exist_and_cover_all_libraries() {
        let kernels = swan_kernels::all_kernels();
        let mut libs = std::collections::HashSet::new();
        for (lib, name) in REPRESENTATIVES {
            let k = find(&kernels, lib, name);
            libs.insert(k.meta().library);
        }
        assert_eq!(libs.len(), 12);
    }

    #[test]
    fn perf_probe_times_every_phase() {
        let kernels = swan_kernels::all_kernels();
        let rep = swan_core::probe(&kernels, Scale::test(), 42, None);
        assert_eq!(rep.kernels, 12);
        assert_eq!(rep.cores, 3);
        assert!(rep.instrs > 0);
        assert!(rep.timed_ns > 0);
        assert!(rep.instrs_per_sec() > 0.0);
        let text = rep.render();
        assert!(text.contains("instrs/sec"), "headline missing: {text}");
        assert!(text.contains("timed batch"));
    }

    #[test]
    fn measure_point_round_trips() {
        let kernels = swan_kernels::all_kernels();
        let k = find(&kernels, "ZL", "adler32");
        let m = measure_point(
            k,
            Impl::Neon,
            Width::W128,
            &CoreConfig::prime(),
            Scale::test(),
        );
        assert!(m.sim.cycles > 0);
    }
}

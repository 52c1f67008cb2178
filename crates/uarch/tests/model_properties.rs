//! Property-based tests of the timing model's invariants.

use proptest::prelude::*;
use swan_simd::trace::{Class, MemRef, Op};
use swan_simd::TraceInstr;
use swan_uarch::{simulate, CoreConfig, CoreModel, SimResult};

/// A timed run on cold caches (no warm-up pass).
fn run_cold(t: &[TraceInstr], cfg: &CoreConfig) -> SimResult {
    let mut model = CoreModel::new(cfg.clone());
    model.begin_timed();
    model.step_batch(t);
    model.finalize()
}

/// Build a synthetic trace of `n` instructions with a configurable mix.
fn synth_trace(n: u32, loads: bool, chain: bool) -> Vec<TraceInstr> {
    let mut t = Vec::with_capacity(n as usize);
    for i in 1..=n {
        let (op, class, mem) = if loads && i % 3 == 0 {
            (
                Op::SLoad,
                Class::SInt,
                Some(MemRef {
                    addr: (i as u64 % 256) * 64,
                    bytes: 4,
                }),
            )
        } else {
            (Op::SAlu, Class::SInt, None)
        };
        let src = if chain { i - 1 } else { 0 };
        t.push(TraceInstr {
            op,
            class,
            dst: i,
            srcs: [src, 0, 0, 0],
            nsrc: 1,
            mem,
        });
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ipc_bounded_by_commit_width(n in 100u32..4000, loads: bool, chain: bool) {
        let t = synth_trace(n, loads, chain);
        let cfg = CoreConfig::prime();
        let r = simulate(&t, &cfg);
        prop_assert!(r.ipc() <= cfg.commit_width as f64 + 1e-9);
        prop_assert_eq!(r.instrs, n as u64);
    }

    #[test]
    fn cycles_monotone_in_instruction_count(n in 100u32..2000) {
        let cfg = CoreConfig::prime();
        let small = simulate(&synth_trace(n, true, false), &cfg);
        let large = simulate(&synth_trace(2 * n, true, false), &cfg);
        prop_assert!(large.cycles >= small.cycles);
    }

    #[test]
    fn dependent_chain_never_faster_than_independent(n in 200u32..2000) {
        let cfg = CoreConfig::prime();
        let dep = simulate(&synth_trace(n, false, true), &cfg);
        let ind = simulate(&synth_trace(n, false, false), &cfg);
        prop_assert!(dep.cycles >= ind.cycles);
    }

    #[test]
    fn warm_caches_never_slower_than_cold(n in 300u32..3000) {
        let cfg = CoreConfig::prime();
        let t = synth_trace(n, true, false);
        let warm = simulate(&t, &cfg);
        let cold = run_cold(&t, &cfg);
        prop_assert!(warm.cycles <= cold.cycles);
        prop_assert!(warm.l1d.misses <= cold.l1d.misses);
    }

    #[test]
    fn wider_core_never_slower(n in 200u32..2000, chain: bool) {
        let t = synth_trace(n, false, chain);
        let narrow = simulate(&t, &CoreConfig::sweep(4, 2));
        let wide = simulate(&t, &CoreConfig::sweep(8, 8));
        prop_assert!(wide.cycles <= narrow.cycles);
    }

    #[test]
    fn stall_accounting_stays_within_total(n in 100u32..3000, loads: bool) {
        let t = synth_trace(n, loads, true);
        let r = simulate(&t, &CoreConfig::prime());
        prop_assert!(r.fe_stall_cycles <= r.cycles);
        prop_assert!(r.be_stall_cycles <= r.cycles);
    }

    /// The cache model is address-translation-invariant: relocating a
    /// whole trace by any page-aligned offset — in particular up into
    /// the tracer's virtual buffer arenas near the top of the 64-bit
    /// space — changes no timing or cache statistic. This is what lets
    /// the uarch layer consume virtualized addresses unchanged.
    #[test]
    fn simulation_invariant_under_page_aligned_relocation(
        n in 300u32..3000,
        page in 0u64..1024,
    ) {
        let t = synth_trace(n, true, false);
        let a = simulate(&t, &CoreConfig::prime());
        // Snapdragon 855 L1D: 64 KiB / 4-way / 64 B lines = 256 sets,
        // so set indices repeat every 16 KiB; relocate by multiples of
        // the largest set span (LLC: 2 MiB / 8-way = 4096 sets,
        // 256 KiB span).
        for base in [
            page * (256 << 10),
            0xF000_0000_0000_0000u64 + page * (256 << 10),
            0xFFFE_0000_0000_0000u64,
        ] {
            let mut moved = t.clone();
            for ins in &mut moved {
                if let Some(m) = &mut ins.mem {
                    m.addr += base;
                }
            }
            let b = simulate(&moved, &CoreConfig::prime());
            prop_assert_eq!(&a, &b, "relocation by {:#x} changed the simulation", base);
        }
    }

    #[test]
    fn energy_positive_and_scales_with_width_factor(n in 100u32..1000) {
        use swan_uarch::EnergyModel;
        let t = synth_trace(n, true, false);
        let cfg = CoreConfig::prime();
        let r = simulate(&t, &cfg);
        let m = EnergyModel::default();
        let e1 = m.energy(&r, &cfg, 1.0).total_j();
        let e8 = m.energy(&r, &cfg, 8.0).total_j();
        prop_assert!(e1 > 0.0);
        prop_assert!(e8 >= e1);
    }
}

//! Paper-shape integration tests: the qualitative claims of the
//! paper's evaluation must hold in the reproduction (who wins, by
//! roughly what factor, where the crossovers fall).

use swan::prelude::*;
use swan_accel::{GpuModel, NEON_PEAK_MACS_PER_SEC};
use swan_core::report::{self, Cell, FIG5_KERNELS};
use swan_core::{measure, Library};
use swan_kernels::xp::{GemmF32, Shape};

fn find(kernels: &[Box<dyn Kernel>], lib: &str, name: &str) -> usize {
    kernels
        .iter()
        .position(|k| {
            k.meta().library == Library::from_symbol(lib).unwrap() && k.meta().name == name
        })
        .unwrap_or_else(|| panic!("{lib}.{name} not found"))
}

#[test]
fn crypto_libraries_have_highest_instruction_reduction() {
    // Figure 1: ZL and BS reduce dynamic instructions the most among
    // same-precision libraries thanks to the crypto extension.
    let prime = CoreConfig::prime();
    let kernels = swan::suite();
    let red = |lib: &str, name: &str| {
        let k = &kernels[find(&kernels, lib, name)];
        let s = measure(
            k.as_ref(),
            Impl::Scalar,
            Width::W128,
            &prime,
            Scale::test(),
            2,
        );
        let v = measure(
            k.as_ref(),
            Impl::Neon,
            Width::W128,
            &prime,
            Scale::test(),
            2,
        );
        s.trace.total() as f64 / v.trace.total() as f64
    };
    let aes = red("BS", "aes128_ctr");
    let fft = red("PF", "fft_forward");
    let audio = red("WA", "gain");
    assert!(aes > 8.0, "AES reduction {aes:.1}");
    assert!(fft < 4.0, "FFT reduction {fft:.1} (scalar-heavy library)");
    assert!(
        aes > 1.5 * audio,
        "crypto {aes:.1} vs vector-API {audio:.1}"
    );
}

#[test]
fn lower_precision_means_higher_reduction() {
    // Equation 1: 8-bit image kernels encode more work per instruction
    // than 32-bit float audio kernels.
    let prime = CoreConfig::prime();
    let kernels = swan::suite();
    let red = |lib: &str, name: &str| {
        let k = &kernels[find(&kernels, lib, name)];
        let s = measure(
            k.as_ref(),
            Impl::Scalar,
            Width::W128,
            &prime,
            Scale::test(),
            2,
        );
        let v = measure(
            k.as_ref(),
            Impl::Neon,
            Width::W128,
            &prime,
            Scale::test(),
            2,
        );
        s.trace.total() as f64 / v.trace.total() as f64
    };
    let image8 = red("SK", "convolve_vertical");
    let float32 = red("WA", "vector_add");
    assert!(
        image8 > float32,
        "8-bit {image8:.1}x vs 32-bit {float32:.1}x"
    );
}

#[test]
fn wider_registers_help_streaming_more_than_blocked_kernels() {
    // Figure 5(a): convolve (streaming) scales well to 1024-bit;
    // TM-prediction (16x16 blocks) barely moves.
    let prime = CoreConfig::prime();
    let kernels = swan::suite();
    let speedup_1024 = |lib: &str, name: &str| {
        let k = &kernels[find(&kernels, lib, name)];
        let cycles = |w| {
            let m = measure(k.as_ref(), Impl::Neon, w, &prime, Scale::test(), 2);
            m.sim.cycles as f64
        };
        cycles(Width::W128) / cycles(Width::W1024)
    };
    let streaming = speedup_1024("SK", "convolve_vertical");
    let blocked = speedup_1024("LW", "tm_predict");
    assert!(streaming > 2.5, "streaming 1024-bit speedup {streaming:.2}");
    assert!(
        streaming > 1.4 * blocked,
        "streaming {streaming:.2} vs blocked {blocked:.2}"
    );
}

#[test]
fn gpu_crossover_is_in_the_mflop_range() {
    // Figure 6: the Neon/GPU crossover falls in the single-digit
    // MFLOP range (the paper reports ~4M).
    let prime = CoreConfig::prime();
    let gpu = GpuModel::default();
    let shape = Shape {
        m: 64,
        k: 64,
        n: 512,
    };
    let kernel = GemmF32::with_shape(shape);
    let m = measure(&kernel, Impl::Neon, Width::W128, &prime, Scale(1.0), 3);
    let neon_rate = m.work_ops as f64 / m.seconds();
    assert!(
        neon_rate < NEON_PEAK_MACS_PER_SEC,
        "effective rate cannot exceed peak"
    );
    let crossover = gpu.crossover_macs(neon_rate, gpu.gemm_efficiency);
    assert!(
        (1e6..2e7).contains(&crossover),
        "crossover {crossover:.2e} MACs should be order-4M"
    );
}

#[test]
fn table4_counts_and_fig5_kernels_exist() {
    // Table 4 reads each kernel's declared outcome and obstacles only,
    // so one placeholder measurement stands in for every slot.
    let kernels = swan::suite();
    let m = measure(
        kernels[find(&kernels, "ZL", "adler32")].as_ref(),
        Impl::Scalar,
        Width::W128,
        &CoreConfig::prime(),
        Scale::test(),
        2,
    );
    let suite = report::SuiteResults {
        kernels: kernels
            .iter()
            .map(|k| k.meta())
            .filter(|meta| !meta.excluded_from_eval)
            .map(|meta| report::KernelResults {
                meta,
                scalar: m.clone(),
                auto: m.clone(),
                neon: m.clone(),
                scalar_gold: m.clone(),
                neon_gold: m.clone(),
                scalar_silver: m.clone(),
                neon_silver: m.clone(),
                widths: None,
                sweep: None,
            })
            .collect(),
        scale: Scale::test(),
    };
    let tab4 = report::tab4(&suite);
    // The paper's counts: Auto matches, loses to or beats Scalar; of
    // the kernels it vectorizes, how it compares with Neon; and how
    // often each obstacle blocks the compiler.
    let rows = [
        ("Auto ~ Scalar", 34),
        ("Auto < Scalar", 2),
        ("Auto > Scalar", 23),
        ("  of which Auto ~ Neon", 6),
        ("  of which Auto < Neon", 12),
        ("  of which Auto > Neon", 5),
        ("Obstacle: uncountable loop", 8),
        ("Obstacle: indirect access", 8),
        ("Obstacle: loop dependency (PHI)", 9),
        ("Obstacle: other legality", 10),
        ("Obstacle: cost model", 12),
    ];
    for (row, n) in rows {
        assert_eq!(
            tab4.get(row, "#Kernels"),
            Some(&Cell::Int(n)),
            "Table 4 row `{row}`"
        );
    }
    assert_eq!(tab4.rows.len(), rows.len(), "Table 4 has no other rows");
    for (lib, name) in FIG5_KERNELS {
        find(&kernels, lib, name);
    }
}

#[test]
fn vectorization_raises_power_but_saves_energy() {
    // Figure 3 vs Figure 2: Neon draws more power yet finishes so much
    // earlier that energy drops.
    let prime = CoreConfig::prime();
    let kernels = swan::suite();
    let k = &kernels[find(&kernels, "LJ", "rgb_to_ycbcr")];
    let s = measure(
        k.as_ref(),
        Impl::Scalar,
        Width::W128,
        &prime,
        Scale::test(),
        2,
    );
    let v = measure(
        k.as_ref(),
        Impl::Neon,
        Width::W128,
        &prime,
        Scale::test(),
        2,
    );
    assert!(
        v.power_w > s.power_w,
        "Neon power {} vs {}",
        v.power_w,
        s.power_w
    );
    assert!(
        v.energy_j < s.energy_j,
        "Neon energy {} vs {}",
        v.energy_j,
        s.energy_j
    );
}

//! Quickstart: run one Swan kernel in all three builds and compare.
//!
//! ```text
//! cargo run --release --example quickstart [LIB.kernel]
//! ```

use swan::prelude::*;

fn main() {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ZL.adler32".into());
    let kernels = swan::suite();
    let kernel = kernels
        .iter()
        .find(|k| k.meta().id() == target)
        .unwrap_or_else(|| {
            eprintln!("unknown kernel {target}; available:");
            for k in &kernels {
                eprintln!("  {}", k.meta().id());
            }
            std::process::exit(1);
        });
    let meta = kernel.meta();
    println!("kernel     : {} ({})", meta.id(), meta.library.info().name);
    println!(
        "precision  : {} bits (VRE at 128-bit = {})",
        meta.precision_bits,
        meta.vre(Width::W128)
    );

    // Correctness first: Scalar and every Neon width must agree.
    verify_kernel(kernel.as_ref(), Scale::test(), 42).expect("outputs match");
    println!("verified   : Scalar == Neon at 128/256/512/1024 bits");

    let prime = CoreConfig::prime();
    let scale = Scale::quick();
    let scalar = measure(
        kernel.as_ref(),
        Impl::Scalar,
        Width::W128,
        &prime,
        scale,
        42,
    );
    let auto = measure(kernel.as_ref(), Impl::Auto, Width::W128, &prime, scale, 42);
    let neon = measure(kernel.as_ref(), Impl::Neon, Width::W128, &prime, scale, 42);

    println!(
        "\n{:<8} {:>12} {:>10} {:>8} {:>10} {:>10}",
        "impl", "instrs", "cycles", "IPC", "time(us)", "power(W)"
    );
    for (name, m) in [("Scalar", &scalar), ("Auto", &auto), ("Neon", &neon)] {
        println!(
            "{:<8} {:>12} {:>10} {:>8.2} {:>10.1} {:>10.2}",
            name,
            m.trace.total(),
            m.sim.cycles,
            m.sim.ipc(),
            m.seconds() * 1e6,
            m.power_w
        );
    }
    println!(
        "\nNeon speedup {:.2}x, instruction reduction {:.2}x, energy saving {:.2}x",
        scalar.seconds() / neon.seconds(),
        scalar.trace.total() as f64 / neon.trace.total() as f64,
        scalar.energy_j / neon.energy_j
    );

    // The campaign path: this kernel's Neon@128 scenarios on the three
    // Figure 4 cores are one stream group — one recorded execution
    // replayed into every core (no materialized trace, no re-capture).
    let only = CoreId::BASE.map(|core| ScenarioFilter {
        kernel: Some(meta.id().to_ascii_lowercase()),
        imp: Some(Impl::Neon),
        width: Some(Width::W128),
        core: Some(core),
        ..ScenarioFilter::default()
    });
    let scenarios = filter_plan(&plan(&kernels, scale, 42), &only);
    let multi = Campaign::default()
        .execute(&kernels, &scenarios, |_| {})
        .complete();
    println!("\nNeon across cores (single traced execution):");
    for (sc, m) in scenarios.iter().zip(&multi) {
        println!(
            "  {:<28} {:>10} cycles {:>9.1} us {:>7.2} W",
            sc.core.config().name,
            m.sim.cycles,
            m.seconds() * 1e6,
            m.power_w
        );
    }
}

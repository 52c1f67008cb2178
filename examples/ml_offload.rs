//! CNN-layer offload advisor: for a ladder of convolutional layer
//! shapes (as GEMMs), simulate the Neon time and compare with the
//! Adreno-class GPU model to find the crossover the paper's Figure 6
//! reports near 4 MFLOP.
//!
//! ```text
//! cargo run --release --example ml_offload
//! ```

use swan::prelude::*;
use swan_accel::GpuModel;
use swan_core::measure;
use swan_kernels::xp::{conv_layers, GemmF32, Shape};

fn main() {
    let prime = CoreConfig::prime();
    let gpu = GpuModel::default();
    let layers = conv_layers();
    println!("CNN layer offload advisor (dense FP32 GEMM):\n");
    println!(
        "{:>4} {:>22} {:>10} {:>11} {:>11}  advice",
        "#", "layer (MxKxN)", "MACs", "Neon (us)", "GPU (us)"
    );
    let mut crossover: Option<u64> = None;
    // Measure a denser ladder for the crossover, print sparsely.
    for (i, s) in layers.iter().enumerate().step_by(13) {
        let kernel = GemmF32::with_shape(Shape {
            m: s.m,
            k: s.k,
            n: s.n,
        });
        let neon = measure(&kernel, Impl::Neon, Width::W128, &prime, Scale(1.0), 9);
        let macs = neon.work_ops;
        let gpu_t = gpu.gemm_time(macs).seconds().unwrap();
        let advice = if neon.seconds() <= gpu_t {
            "keep on Neon"
        } else {
            "offload to GPU"
        };
        if gpu_t < neon.seconds() && crossover.is_none() {
            // Refine: effective Neon rate is ~constant, so solve
            // overhead = m*(1/neon_rate - 1/gpu_rate).
            let neon_rate = macs as f64 / neon.seconds();
            crossover = Some(gpu.crossover_macs(neon_rate, gpu.gemm_efficiency) as u64);
        }
        if i % 26 == 0 {
            println!(
                "{:>4} {:>22} {:>10} {:>11.1} {:>11.1}  {}",
                i,
                format!("{}x{}x{}", s.m, s.k, s.n),
                macs,
                neon.seconds() * 1e6,
                gpu_t * 1e6,
                advice
            );
        }
    }
    match crossover {
        Some(m) => println!(
            "\ncrossover near {:.1}M MACs — the paper's Figure 6 places it at ~4M.",
            m as f64 / 1e6
        ),
        None => println!("\nno crossover in the sampled range"),
    }
}

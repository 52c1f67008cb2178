//! Parallel suite campaign: plan the paper's scenario matrix, execute
//! it across worker threads with [`Campaign::execute`], fold it with
//! [`aggregate`], and print the per-library speedup summary — the
//! path `swan-report --threads N` takes for the full campaign.
//!
//! ```text
//! cargo run --release --example campaign [threads]
//! ```

use swan::prelude::*;
use swan_core::report::{fig2, Cell};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("thread count"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let kernels = swan::suite();
    println!(
        "campaign over {} kernels on {threads} thread{}...",
        kernels.len(),
        if threads == 1 { "" } else { "s" }
    );

    let t0 = std::time::Instant::now();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let scenarios = plan(&kernels, Scale::test(), 42);
    let campaign = Campaign {
        threads,
        ..Campaign::default()
    };
    let run = campaign.execute(&kernels, &scenarios, |msg| {
        let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        eprintln!("  [{n:>3}] {msg}");
    });
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let suite = aggregate(&kernels, &scenarios, &run.measurements, Scale::test());
    println!("campaign finished in {:.1}s\n", t0.elapsed().as_secs_f32());

    let fig2 = fig2(&suite);
    let speedups: Vec<(String, f64)> = fig2
        .rows
        .iter()
        .map(|row| {
            let lib = row[0].to_string();
            let s = fig2.get(&lib, "Neon perf(x)").and_then(Cell::value);
            (lib, s.expect("Figure 2 has a Neon perf(x) column"))
        })
        .collect();
    println!("{:<6} {:>14}", "lib", "Neon perf(x)");
    for (lib, s) in &speedups {
        println!("{lib:<6} {s:>14.2}");
    }
    let geomean = speedups.iter().map(|(_, s)| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!("\nsuite geomean speedup: {:.2}x", geomean.exp());
}

//! `Campaign::execute` error paths: a panicking kernel in one shard
//! must not poison sibling shards' results.

use swan_core::report::SuiteResults;
use swan_core::{
    aggregate, plan, Campaign, Impl, Kernel, KernelFailure, KernelMeta, Runnable, Scale,
};
use swan_simd::Width;

/// Execute the full plan of `kernels` on `threads` workers and fold
/// it: the kernels whose every group measured, plus one failure per
/// failed group.
fn execute_suite(
    kernels: &[Box<dyn Kernel>],
    threads: usize,
) -> (SuiteResults, Vec<KernelFailure>) {
    let plan = plan(kernels, Scale::test(), 7);
    let campaign = Campaign {
        threads,
        ..Campaign::default()
    };
    let run = campaign.execute(kernels, &plan, |_| {});
    let suite = aggregate(kernels, &plan, &run.measurements, Scale::test());
    (suite, run.failures)
}

/// A kernel whose measurement always panics — optionally only after
/// emitting part of a trace, so the tracer session is mid-flight (the
/// worst case for thread-local state) when the unwind happens.
#[derive(Debug)]
struct Exploding {
    name: &'static str,
    after_some_trace: bool,
}

struct ExplodingRun {
    after_some_trace: bool,
}

impl Runnable for ExplodingRun {
    fn run(&mut self, _imp: Impl, w: Width) {
        if self.after_some_trace {
            let v = swan_simd::Vreg::<u8>::splat(w, 1);
            let _ = v.add(v);
        }
        panic!("kernel exploded by design");
    }

    fn output(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl Kernel for Exploding {
    fn meta(&self) -> KernelMeta {
        KernelMeta {
            name: self.name,
            library: swan_core::Library::ZL,
            precision_bits: 8,
            is_float: false,
            auto: swan_core::AutoOutcome::SameAsScalar,
            // Every implementation runs the same exploding code, so
            // the Auto group is measured from (and fails with) its
            // Scalar twin.
            auto_stream: Some(Impl::Scalar),
            obstacles: &[],
            patterns: &[],
            tolerance: 0.0,
            excluded_from_eval: true,
        }
    }

    fn instantiate(&self, _scale: Scale, _seed: u64) -> Box<dyn Runnable> {
        Box::new(ExplodingRun {
            after_some_trace: self.after_some_trace,
        })
    }
}

fn mixed_inventory() -> Vec<Box<dyn Kernel>> {
    // Real kernels interleaved with exploding ones, so failures land
    // in the middle of shards, not just at the edges.
    let mut v: Vec<Box<dyn Kernel>> = Vec::new();
    let mut real = swan_kernels::zl::kernels()
        .into_iter()
        .chain(swan_kernels::or::kernels());
    v.push(real.next().unwrap());
    v.push(Box::new(Exploding {
        name: "exploding_early",
        after_some_trace: false,
    }));
    v.extend(real.by_ref().take(2));
    v.push(Box::new(Exploding {
        name: "exploding_mid_trace",
        after_some_trace: true,
    }));
    v.extend(real);
    v
}

#[test]
fn panicking_kernel_does_not_poison_sibling_shards() {
    let kernels = mixed_inventory();
    let good: Vec<String> = kernels
        .iter()
        .map(|k| k.meta().id())
        .filter(|id| !id.contains("exploding"))
        .collect();

    for threads in [1, 3] {
        let (suite, failures) = execute_suite(&kernels, threads);
        let measured: Vec<String> = suite.kernels.iter().map(|k| k.meta.id()).collect();
        assert_eq!(
            measured, good,
            "({threads} threads) every healthy kernel must be fully \
             measured, in suite order"
        );
        // One failure per scenario group of each exploding kernel.
        let mut failed: Vec<&str> = failures.iter().map(|f| f.id.as_str()).collect();
        failed.sort_unstable();
        failed.dedup();
        assert_eq!(failed, ["ZL.exploding_early", "ZL.exploding_mid_trace"]);
        for f in &failures {
            assert!(
                f.message.contains("exploded by design"),
                "panic payload must be preserved: {:?}",
                f.message
            );
        }
        // Sibling results are not just present but correct: they match
        // a clean campaign of only the healthy kernels bit for bit.
        let (clean, clean_failures) = execute_suite(&suite_only(&good), threads);
        assert!(clean_failures.is_empty());
        for (a, b) in suite.kernels.iter().zip(clean.kernels.iter()) {
            assert_eq!(a.meta.id(), b.meta.id());
            assert_eq!(a.neon.sim, b.neon.sim, "{}", a.meta.id());
            assert_eq!(a.scalar.trace.by_op, b.scalar.trace.by_op);
        }
    }
}

fn suite_only(ids: &[String]) -> Vec<Box<dyn Kernel>> {
    swan_kernels::all_kernels()
        .into_iter()
        .filter(|k| ids.contains(&k.meta().id()))
        .collect()
}

#[test]
fn run_panics_with_failure_summary() {
    let kernels = mixed_inventory();
    let plan = plan(&kernels, Scale::test(), 7);
    let run = Campaign {
        threads: 2,
        ..Campaign::default()
    }
    .execute(&kernels, &plan, |_| {});
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.complete()))
        .expect_err("complete() must surface kernel failures");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("exploding_early") && msg.contains("exploding_mid_trace"),
        "aggregate panic must name every failed kernel: {msg}"
    );
}

/// After a kernel panics mid-trace on a worker thread, the
/// thread-local tracer must be re-armed: the same thread measuring
/// the next kernel produces exactly the results a fresh thread would.
#[test]
fn tracer_rearms_after_mid_trace_panic_on_same_thread() {
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(Exploding {
            name: "exploding_mid_trace",
            after_some_trace: true,
        }),
        swan_kernels::zl::kernels().remove(0),
    ];
    // Single-threaded: the healthy kernel measures on the thread the
    // panic unwound through.
    let (suite, failures) = execute_suite(&kernels, 1);
    assert!(!failures.is_empty());
    assert!(failures.iter().all(|f| f.id == "ZL.exploding_mid_trace"));
    assert_eq!(suite.kernels.len(), 1);
    let clean = execute_suite(&kernels[1..], 1).0;
    assert_eq!(
        suite.kernels[0].neon.sim, clean.kernels[0].neon.sim,
        "post-panic measurement must equal a clean-thread measurement"
    );
}

//! Auto twins: a kernel whose Auto build runs the code of its Scalar
//! or Neon implementation declares it (`KernelMeta::auto_stream`), and
//! `Campaign::execute` then measures the Auto group from that twin
//! group instead of executing the same stream again.
//!
//! Both halves are checked differentially. The declaration is held to
//! the streams themselves: a declared twin must produce the identical
//! stream, and an undeclared one must not. The executor is held to a
//! plan without twins, where every Auto group executes itself.

use swan::prelude::*;
use swan_core::{CampaignJournal, KernelFailure, Runnable};
use swan_simd::trace::{stream_into_at, HashSink};
use swan_simd::TraceData;

const SEED: u64 = 7;

/// One 128-bit stream of a kernel: its digest and instruction count,
/// its histograms, and the kernel's useful-operation count.
fn stream(kernel: &dyn Kernel, imp: Impl) -> ((u64, u64), TraceData, u64) {
    let mut inst = kernel.instantiate(Scale::test(), SEED);
    let (data, hash, ()) =
        stream_into_at(Width::W128, HashSink::new(), || inst.run(imp, Width::W128));
    ((hash.digest(), hash.count()), data, inst.work_ops())
}

#[test]
fn declared_twins_run_identical_streams_and_undeclared_ones_do_not() {
    let mut declared = 0;
    for kernel in swan::suite() {
        let meta = kernel.meta();
        let id = meta.id();
        let auto = stream(kernel.as_ref(), Impl::Auto);
        match meta.auto_stream {
            Some(twin) => {
                assert_ne!(twin, Impl::Auto, "{id}: Auto cannot twin itself");
                let want = stream(kernel.as_ref(), twin);
                assert_eq!(auto.0, want.0, "{id}: Auto digest and count vs {twin}@128");
                assert_eq!(auto.1, want.1, "{id}: Auto histograms vs {twin}@128");
                assert_eq!(auto.2, want.2, "{id}: Auto work_ops vs {twin}@128");
                declared += 1;
            }
            None => {
                for imp in [Impl::Scalar, Impl::Neon] {
                    assert_ne!(
                        auto.0,
                        stream(kernel.as_ref(), imp).0,
                        "{id}: Auto runs the {imp}@128 stream but declares no twin"
                    );
                }
            }
        }
    }
    // 34 kernels run the Scalar code as Auto and 23 the Neon code at
    // 128 bits; SK and LV each have one Auto of their own.
    assert_eq!(declared, 57);
}

fn filters(specs: &[&str]) -> Vec<ScenarioFilter> {
    specs
        .iter()
        .map(|s| ScenarioFilter::parse(s).expect("filter"))
        .collect()
}

/// The Auto scenarios of `plan`, each with its measurement.
fn auto_rows(plan: &[Scenario], run: CampaignRun) -> Vec<(String, Measurement)> {
    plan.iter()
        .zip(run.complete())
        .filter(|(sc, _)| sc.imp == Impl::Auto)
        .map(|(sc, m)| (sc.id(), m))
        .collect()
}

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swan-twins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ZL (two twinned kernels) and LV (five twinned, plus `quantize`,
/// whose Auto has code of its own): with the twins in the plan, every
/// Auto scenario equals, as a full `Measurement`, the Auto scenario of
/// an `impl=auto`-only plan, which executes every Auto stream itself —
/// at one and two threads, and when the twins are resumed from a
/// journal.
#[test]
fn twinned_auto_groups_equal_auto_groups_that_execute_themselves() {
    let kernels = swan::suite();
    let full = plan(&kernels, Scale::test(), SEED);
    let both = filter_plan(&full, &filters(&["lib=ZL", "lib=LV"]));
    let auto_only = filter_plan(&full, &filters(&["lib=ZL,impl=auto", "lib=LV,impl=auto"]));
    assert_eq!(auto_only.len(), 8);

    let alone = Campaign::default().execute(&kernels, &auto_only, |_| {});
    assert_eq!(alone.twinned_groups, 0, "no twin in the plan");
    assert_eq!(alone.executed_groups, 8);
    let want = auto_rows(&auto_only, alone);

    for threads in [1, 2] {
        let run = Campaign {
            threads,
            ..Campaign::default()
        }
        .execute(&kernels, &both, |_| {});
        assert_eq!(run.twinned_groups, 7, "{threads} threads");
        assert_eq!(run.executed_groups, run.total_groups);
        assert_eq!(auto_rows(&both, run), want, "{threads} threads");
    }

    // Journal round: one shard journals half the groups. Auto groups
    // and their twins sit in adjacent groups, so the shard holds no
    // pair; the resume then copies twins it loads from the journal.
    let dir = test_dir("resume");
    let journal = CampaignJournal::open(&dir, &kernels, Scale::test(), SEED).expect("open journal");
    let campaign = Campaign {
        threads: 2,
        journal: Some(&journal),
        ..Campaign::default()
    };
    let half = Campaign {
        shard: Some((0, 2)),
        ..campaign
    }
    .execute(&kernels, &both, |_| {});
    assert!(half.failures.is_empty());
    assert_eq!(half.twinned_groups, 0, "a shard without the twins");
    let resumed = campaign.execute(&kernels, &both, |_| {});
    assert!(resumed.resumed_groups > 0 && resumed.twinned_groups > 0);
    assert_eq!(
        auto_rows(&both, resumed),
        want,
        "twins resumed from the journal"
    );
    // Twinned groups were journaled like executed ones.
    let again = campaign.execute(&kernels, &both, |_| {});
    assert_eq!(again.resumed_groups, again.total_groups);
    assert_eq!(auto_rows(&both, again), want, "everything resumed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kernel whose every implementation panics, declaring a Scalar twin.
struct Exploding;

struct ExplodingRun;

impl Runnable for ExplodingRun {
    fn run(&mut self, _imp: Impl, _w: Width) {
        panic!("twin exploded by design");
    }

    fn output(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl Kernel for Exploding {
    fn meta(&self) -> KernelMeta {
        KernelMeta {
            name: "exploding",
            library: Library::ZL,
            precision_bits: 8,
            is_float: false,
            auto: swan_core::AutoOutcome::SameAsScalar,
            auto_stream: Some(Impl::Scalar),
            obstacles: &[],
            patterns: &[],
            tolerance: 0.0,
            excluded_from_eval: true,
        }
    }

    fn instantiate(&self, _scale: Scale, _seed: u64) -> Box<dyn Runnable> {
        Box::new(ExplodingRun)
    }
}

fn auto_failure(failures: &[KernelFailure]) -> &str {
    let f: Vec<&KernelFailure> = failures
        .iter()
        .filter(|f| f.message.starts_with("ZL.exploding/Auto/w128"))
        .collect();
    assert_eq!(f.len(), 1, "one failure for the Auto group: {failures:?}");
    &f[0].message
}

#[test]
fn a_failing_twin_fails_its_auto_group_by_name() {
    let kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Exploding)];
    let full = plan(&kernels, Scale::test(), SEED);
    let run = Campaign::default().execute(&kernels, &full, |_| {});
    assert_eq!(run.failures.len(), run.total_groups, "every group fails");
    assert_eq!((run.executed_groups, run.twinned_groups), (0, 0));
    let msg = auto_failure(&run.failures);
    assert!(
        msg.contains("twin ZL.exploding/Scalar/w128") && msg.contains("twin exploded by design"),
        "the Auto failure names its twin and the twin's panic: {msg}"
    );

    // Without its twin in the plan the Auto group fails on its own.
    let only = filter_plan(&full, &filters(&["impl=auto"]));
    let run = Campaign::default().execute(&kernels, &only, |_| {});
    let msg = auto_failure(&run.failures);
    assert!(!msg.contains("twin ZL"), "{msg}");
}

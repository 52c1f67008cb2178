//! Warm-on-record equivalence: warming the cores from the live stream
//! while the kernel records must be invisible in the results.
//!
//! The executor warms each group's core fan-out through a warming sink
//! while the kernel runs under its recorder, and decodes the recording
//! only once, for the timed pass; a trace-store hit warms with one
//! replay instead. These tests hold every execution group of two
//! libraries at `Scale::test()` to full `Measurement` equality with
//! the two-pass reference (`record_group` + `measure_recorded`: record,
//! then replay warm + timed) with no store, with a cold store (every
//! group misses and spills while it warms) and with a warm store (every
//! group hits), and hold the single-point `measure` to the same
//! reference.

use swan_core::{
    execution_groups, filter_plan, measure, measure_recorded, plan, record_group, Campaign, Impl,
    Measurement, Scale, Scenario, ScenarioFilter, TraceStore,
};
use swan_simd::trace::{stream_into_at, Class, TraceInstr, TraceSink};
use swan_simd::{Op, Width};
use swan_uarch::CoreConfig;

const SEED: u64 = 42;

/// The two libraries under test. ZL's kernels count their loops, so
/// their streams carry overhead runs the warming sink must expand.
const OVERHEAD_LIBRARY: &str = "lib=ZL";
const SECOND_LIBRARY: &str = "lib=LW";

fn scenarios(kernels: &[Box<dyn swan_core::Kernel>]) -> Vec<Scenario> {
    let filters = [
        ScenarioFilter::parse(OVERHEAD_LIBRARY).expect("filter"),
        ScenarioFilter::parse(SECOND_LIBRARY).expect("filter"),
    ];
    filter_plan(&plan(kernels, Scale::test(), SEED), &filters)
}

fn width_factor(imp: Impl, w: Width) -> f64 {
    if imp == Impl::Neon {
        w.factor() as f64
    } else {
        1.0
    }
}

/// The two-pass reference, in plan order: each group recorded in
/// memory, then replayed once to warm and once timed.
fn reference(kernels: &[Box<dyn swan_core::Kernel>], scenarios: &[Scenario]) -> Vec<Measurement> {
    let mut out: Vec<Option<Measurement>> = vec![None; scenarios.len()];
    for group in execution_groups(scenarios) {
        let sc = &scenarios[group[0]];
        let kernel = kernels[sc.kernel].as_ref();
        let mut rec = record_group(kernel, sc.imp, sc.width, sc.scale, sc.seed, None);
        let cfgs: Vec<CoreConfig> = group.iter().map(|&i| scenarios[i].core.config()).collect();
        let ms = measure_recorded(&mut rec, &cfgs, width_factor(sc.imp, sc.width));
        for (&i, m) in group.iter().zip(ms) {
            out[i] = Some(m);
        }
    }
    out.into_iter().map(|m| m.expect("measured")).collect()
}

fn assert_same(what: &str, scenarios: &[Scenario], got: &[Measurement], want: &[Measurement]) {
    assert_eq!(got.len(), want.len(), "{what}: scenario count");
    for ((sc, g), w) in scenarios.iter().zip(got).zip(want) {
        assert_eq!(
            g,
            w,
            "{what}: {} differs from the two-pass reference",
            sc.id()
        );
    }
}

#[test]
fn live_warming_matches_two_pass_reference_with_no_cold_and_warm_store() {
    let kernels = swan_kernels::all_kernels();
    let scenarios = scenarios(&kernels);
    let groups = execution_groups(&scenarios).len();
    assert!(groups >= 2 * 7, "{groups} groups: two whole libraries");
    let want = reference(&kernels, &scenarios);

    let no_store = Campaign::default()
        .execute(&kernels, &scenarios, |_| {})
        .complete();
    assert_same("no store", &scenarios, &no_store, &want);

    let dir = std::env::temp_dir().join(format!("swan-warm-on-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir, &kernels)
        .expect("open trace store")
        .chunk_budget(4096);
    let campaign = Campaign {
        store: Some(&store),
        ..Campaign::default()
    };
    let cold = campaign.execute(&kernels, &scenarios, |_| {}).complete();
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.inserts),
        (0, groups as u64, groups as u64),
        "cold store: every group misses and spills"
    );
    assert_same("cold store", &scenarios, &cold, &want);

    let warm = campaign.execute(&kernels, &scenarios, |_| {}).complete();
    assert_eq!(
        store.stats().hits,
        groups as u64,
        "warm store: every group hits"
    );
    assert_same("warm store", &scenarios, &warm, &want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_point_measure_matches_two_pass_reference() {
    let kernels = swan_kernels::all_kernels();
    let scenarios = scenarios(&kernels);
    let want = reference(&kernels, &scenarios);
    for (sc, w) in scenarios.iter().zip(&want) {
        let cfg = sc.core.config();
        let got = measure(
            kernels[sc.kernel].as_ref(),
            sc.imp,
            sc.width,
            &cfg,
            sc.scale,
            sc.seed,
        );
        assert_eq!(&got, w, "measure({}) differs", sc.id());
    }
}

/// The equalities above cover overhead-run expansion only if the
/// streams carry overhead runs: every ZL group's stream does.
#[test]
fn zl_streams_carry_overhead_runs() {
    #[derive(Default)]
    struct Runs(u64);
    impl TraceSink for Runs {
        fn on_instr(&mut self, _: &TraceInstr) {}
        fn on_overhead(&mut self, _: Op, _: Class, _: u32, _: u64) {
            self.0 += 1;
        }
    }
    let kernels = swan_kernels::all_kernels();
    let scenarios = filter_plan(
        &plan(&kernels, Scale::test(), SEED),
        &[ScenarioFilter::parse(OVERHEAD_LIBRARY).expect("filter")],
    );
    for group in execution_groups(&scenarios) {
        let sc = &scenarios[group[0]];
        let mut inst = kernels[sc.kernel].instantiate(sc.scale, sc.seed);
        let (_, runs, ()) =
            stream_into_at(sc.width, Runs::default(), || inst.run(sc.imp, sc.width));
        assert!(runs.0 > 0, "{} emits no overhead runs", sc.stream_id());
    }
}

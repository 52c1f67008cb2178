//! Live, recorded and replayed streams measure alike: a campaign must
//! equal one measured from freshly executed, materialized streams, bit
//! for bit.
//!
//! With no trace store, every scenario group's kernel executes twice,
//! a warm pass and a timed pass on a fresh instance, and nothing is
//! recorded. With a store, a miss executes once under the recorder and
//! its entry is replayed, timed; a hit executes nothing. These tests
//! pin the facts that make that sound: re-running an instance
//! reproduces its dynamic trace exactly (same buffers, same addresses,
//! same control flow); a campaign equals a reference that simulates
//! freshly executed, materialized streams; results do not depend on
//! plan order, filtering, thread count or process sharding; and each
//! group executes its kernel exactly once per pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use swan::prelude::*;
use swan_core::Runnable;
use swan_simd::trace::{stream_into, stream_into_at};
use swan_simd::{RecordSink, VecSink};
use swan_uarch::SimResult;

const SEED: u64 = 7;

/// Execute a plan with no store and no journal on `threads` workers.
fn execute(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    threads: usize,
) -> Vec<swan_core::Measurement> {
    let campaign = Campaign {
        threads,
        ..Campaign::default()
    };
    campaign.execute(kernels, plan, |_| {}).complete()
}

/// Re-running the same instance reproduces the dynamic trace
/// bit-for-bit — for every kernel and implementation in the suite,
/// and across *capture sinks*: the first run materializes into a
/// `VecSink` (whose growing instruction `Vec` perturbs the allocator
/// mid-run) and the second records through the codec (chunked
/// encoding, a different allocation pattern), whose replay must equal
/// the first. Any traced address that depends on a run-local
/// temporary's location — stack frame or heap chunk — fails here.
#[test]
fn every_kernel_rerun_reproduces_its_trace() {
    for kernel in swan::suite() {
        for imp in [Impl::Scalar, Impl::Auto, Impl::Neon] {
            let mut inst = kernel.instantiate(Scale::test(), SEED);
            let (first, live, ()) = stream_into(VecSink::default(), || inst.run(imp, Width::W128));
            let (second, rec, ()) = stream_into(RecordSink::new(), || inst.run(imp, Width::W128));
            assert_eq!(first, second, "{} {imp:?}", kernel.meta().id());
            let mut replayed = Vec::with_capacity(live.instrs.len());
            rec.finish()
                .replay_batches(|b| replayed.extend_from_slice(b));
            assert!(
                live.instrs == replayed,
                "{} {imp:?}: the rerun must replay the identical stream \
                 (a mismatch usually means a traced address depends on a \
                 run-local temporary — hoist the buffer into instance state)",
                kernel.meta().id()
            );
        }
    }
}

/// One recording fanned out to three cores (`record_group` +
/// `measure_recorded`, the executor's group body) agrees with
/// single-core `measure` calls on histograms, instruction counts and
/// work, and orders the cores as the paper does.
#[test]
fn fanout_measurements_are_consistent_with_single_measures() {
    let kernels = swan::suite();
    let kernel = kernels
        .iter()
        .find(|k| k.meta().id() == "ZL.adler32")
        .expect("ZL.adler32");
    let cfgs = [
        CoreConfig::prime(),
        CoreConfig::gold(),
        CoreConfig::silver(),
    ];
    let mut rec = swan_core::record_group(
        kernel.as_ref(),
        Impl::Neon,
        Width::W128,
        Scale::test(),
        SEED,
        None,
    );
    let multi = swan_core::measure_recorded(&mut rec, &cfgs, 1.0);
    assert_eq!(multi.len(), 3);
    // Prime and Gold share the microarchitecture: identical cycles,
    // different wall-clock (frequency) — exactly as in the batch flow.
    assert_eq!(multi[0].sim.cycles, multi[1].sim.cycles);
    assert!(multi[0].seconds() < multi[1].seconds());
    // Silver (in-order, narrow) must be slower in cycles.
    assert!(multi[2].sim.cycles > multi[0].sim.cycles);
    for m in &multi {
        assert_eq!(m.trace.total(), multi[0].trace.total());
        assert_eq!(m.sim.instrs, m.trace.total());
    }

    let single = measure(
        kernel.as_ref(),
        Impl::Neon,
        Width::W128,
        &CoreConfig::prime(),
        Scale::test(),
        SEED,
    );
    assert_eq!(
        single, multi[0],
        "one core of a fan-out equals a single measure"
    );
}

/// A scenario's measurement depends only on the scenario itself, not
/// on where it sits in the plan: executing a *permuted* plan (and a
/// filtered subset of it) yields bit-identical per-scenario results,
/// scenario by scenario. This is what makes `--only` subsets and any
/// future sharding policy safe by construction.
#[test]
fn permuted_and_filtered_plans_are_scenario_bit_identical() {
    use std::collections::HashMap;
    let kernels: Vec<_> = swan::suite().into_iter().take(4).collect();
    let plan = swan_core::plan(&kernels, Scale::test(), SEED);
    let baseline = execute(&kernels, &plan, 1);
    let by_id: HashMap<String, &swan_core::Measurement> = plan
        .iter()
        .zip(baseline.iter())
        .map(|(sc, m)| (sc.id(), m))
        .collect();

    // Deterministic permutation: reverse, which breaks up every
    // execution group's adjacency and inverts kernel order.
    let mut permuted = plan.clone();
    permuted.reverse();
    let results = execute(&kernels, &permuted, 2);
    assert_eq!(results.len(), permuted.len());
    for (sc, m) in permuted.iter().zip(results.iter()) {
        let b = by_id[&sc.id()];
        assert_eq!(m.sim, b.sim, "{}: permuted plan must not change", sc.id());
        assert_eq!(m.trace.by_op, b.trace.by_op, "{}", sc.id());
        assert_eq!(m.work_ops, b.work_ops, "{}", sc.id());
    }

    // A filtered subset reuses the same path and reproduces the same
    // per-scenario numbers.
    let only = swan_core::ScenarioFilter::parse("impl=neon,width=128").unwrap();
    let subset = swan_core::filter_plan(&plan, &[only]);
    assert!(!subset.is_empty() && subset.len() < plan.len());
    let sub_results = execute(&kernels, &subset, 1);
    for (sc, m) in subset.iter().zip(sub_results.iter()) {
        assert_eq!(m.sim, by_id[&sc.id()].sim, "{}: subset must match", sc.id());
    }
}

/// Differential proof at campaign level: the executor (the live path,
/// with no store) must produce *exact* `SimResult` equality with a
/// functional-execution reference (a fresh stream materialized into a
/// `VecSink` and simulated per scenario) — at thread counts {1, 2, 7}
/// and under a permuted plan.
#[test]
fn replayed_campaign_matches_functionally_executed_campaign() {
    let kernels: Vec<_> = swan::suite().into_iter().take(4).collect();
    let plan = swan_core::plan(&kernels, Scale::test(), SEED);

    // Reference: functionally execute every stream once more,
    // materialize the trace, and batch warm+timed simulate each
    // scenario's core from it — the paper's capture-then-replay flow
    // with no codec anywhere in the path.
    let mut streams: HashMap<String, Vec<swan_simd::TraceInstr>> = HashMap::new();
    let mut reference: HashMap<String, SimResult> = HashMap::new();
    for sc in &plan {
        let stream = streams.entry(sc.stream_id()).or_insert_with(|| {
            let mut inst = kernels[sc.kernel].instantiate(sc.scale, sc.seed);
            let (_, live, ()) =
                stream_into_at(sc.width, VecSink::default(), || inst.run(sc.imp, sc.width));
            live.instrs
        });
        reference.insert(sc.id(), swan_uarch::simulate(stream, &sc.core.config()));
    }

    for threads in [1, 2, 7] {
        let results = execute(&kernels, &plan, threads);
        for (sc, m) in plan.iter().zip(&results) {
            assert_eq!(
                m.sim,
                reference[&sc.id()],
                "{} ({threads} threads): the campaign must equal \
                 functional execution exactly",
                sc.id()
            );
        }
    }

    // The equality must also hold when the plan order is permuted
    // (groups broken up, kernels inverted).
    let mut permuted = plan.clone();
    permuted.reverse();
    let results = execute(&kernels, &permuted, 2);
    for (sc, m) in permuted.iter().zip(&results) {
        assert_eq!(m.sim, reference[&sc.id()], "{}: permuted plan", sc.id());
    }
}

/// A kernel wrapper counting functional executions (`Runnable::run`
/// calls) across all of its instances.
struct CountingKernel {
    inner: Box<dyn Kernel>,
    runs: Arc<AtomicUsize>,
}

struct CountingRunnable {
    inner: Box<dyn Runnable>,
    runs: Arc<AtomicUsize>,
}

impl Kernel for CountingKernel {
    fn meta(&self) -> KernelMeta {
        self.inner.meta()
    }
    fn instantiate(&self, scale: Scale, seed: u64) -> Box<dyn Runnable> {
        Box::new(CountingRunnable {
            inner: self.inner.instantiate(scale, seed),
            runs: self.runs.clone(),
        })
    }
}

impl Runnable for CountingRunnable {
    fn run(&mut self, imp: Impl, w: Width) {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(imp, w);
    }
    fn output(&self) -> Vec<f64> {
        self.inner.output()
    }
    fn work_ops(&self) -> u64 {
        self.inner.work_ops()
    }
}

/// The execution count, asserted directly: executing a campaign plan
/// performs exactly one functional kernel execution per distinct
/// instruction stream and per pass that needs a live stream —
/// independent of how many cores a group fans out to or how many
/// workers shard it, and none for an Auto group whose kernel declares
/// that Auto runs the stream of a twin group the plan also measures.
/// With no store both passes execute: two per stream. (A store miss
/// executes once and a hit not at all; `tests/warm_on_record.rs`
/// counts those through the store.)
#[test]
fn each_scenario_group_executes_its_kernel_exactly_once() {
    let runs = Arc::new(AtomicUsize::new(0));
    let kernels: Vec<Box<dyn Kernel>> = swan::suite()
        .into_iter()
        .take(3)
        .map(|inner| {
            Box::new(CountingKernel {
                inner,
                runs: runs.clone(),
            }) as Box<dyn Kernel>
        })
        .collect();
    let plan = swan_core::plan(&kernels, Scale::test(), SEED);
    let groups: std::collections::HashSet<String> = plan.iter().map(|sc| sc.stream_id()).collect();
    assert!(plan.len() > groups.len(), "groups must fan out to cores");
    // The full plan measures every 128-bit Scalar and Neon stream on
    // Prime, so each Auto group with a declared twin runs no stream of
    // its own.
    let twinned: std::collections::HashSet<String> = plan
        .iter()
        .filter(|sc| sc.imp == Impl::Auto && kernels[sc.kernel].meta().auto_stream.is_some())
        .map(|sc| sc.stream_id())
        .collect();
    assert!(!twinned.is_empty(), "the first kernels declare Auto twins");
    let distinct_streams = groups.len() - twinned.len();
    for threads in [1, 2] {
        runs.store(0, Ordering::SeqCst);
        let run = Campaign {
            threads,
            ..Campaign::default()
        }
        .execute(&kernels, &plan, |_| {});
        assert_eq!(run.executed_groups, groups.len());
        assert_eq!(run.twinned_groups, twinned.len());
        assert_eq!(run.complete().len(), plan.len());
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2 * distinct_streams,
            "exactly two functional executions per distinct stream, the \
             warm and the timed pass ({threads} threads)"
        );
    }
}

/// Multi-process extension of the sharding equivalence: three
/// concurrent `swan-report --worker i/3` processes, sharing one
/// checkpoint journal and one trace store, must jointly cover the plan
/// in disjoint shards — and an in-process resume over their journal
/// must reproduce a serial in-process campaign *exactly*, full-struct
/// equality per scenario, with nothing left to simulate.
#[test]
fn multi_process_worker_shards_resume_to_serial_campaign() {
    use std::process::Command;

    let scale_arg = format!("{}", Scale::test().0);
    let base = std::env::temp_dir().join(format!("swan-mp-workers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let ckpt = base.join("journal");
    let tstore = base.join("traces");

    let children: Vec<_> = (0..3)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_swan-report"))
                .args(["--scale", &scale_arg, "--seed", "7"])
                .args(["--only", "lib=ZL", "--threads", "1"])
                .args(["--checkpoint", ckpt.to_str().expect("utf8")])
                .args(["--trace-store", tstore.to_str().expect("utf8")])
                .args(["--worker", &format!("{i}/3")])
                .output()
                .expect("spawn worker")
        })
        .collect();
    for (i, out) in children.iter().enumerate() {
        assert!(
            out.status.success(),
            "worker {i}/3 failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The serial in-process reference over the same subset.
    let kernels = swan::suite();
    let full = swan_core::plan(&kernels, Scale::test(), SEED);
    let only = swan_core::ScenarioFilter::parse("lib=ZL").expect("filter");
    let selected = swan_core::filter_plan(&full, &[only]);
    assert!(!selected.is_empty());
    let serial = execute(&kernels, &selected, 1);

    // Jointly, the workers measured every Gold or 4W-2V member from
    // the Prime model of its group, each once (`shared=` on their
    // `checkpoint-worker:` lines).
    let groups = swan_core::execution_groups(&selected);
    let want_shared = groups
        .iter()
        .filter(|g| g.iter().any(|&i| selected[i].core == CoreId::Prime))
        .flatten()
        .filter(|&&i| matches!(selected[i].core, CoreId::Gold | CoreId::Sweep4W2V))
        .count();
    let shared: usize = children
        .iter()
        .map(|out| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let line = stderr
                .lines()
                .find(|l| l.starts_with("checkpoint-worker:"))
                .unwrap_or_else(|| panic!("no checkpoint-worker line:\n{stderr}"));
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix("shared="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("no numeric shared= in: {line}"))
        })
        .sum();
    assert!(want_shared > 0);
    assert_eq!(shared, want_shared, "shared cores across the three shards");

    // Resume over the workers' joint journal: everything present,
    // nothing remaining, every measurement bit-identical to serial.
    let journal =
        swan_core::CampaignJournal::open(&ckpt, &kernels, Scale::test(), SEED).expect("open");
    let resume = journal.resume(&selected);
    assert!(
        resume.remaining.is_empty(),
        "three disjoint 1-of-3 shards must jointly complete the plan \
         (remaining: {:?})",
        resume.remaining
    );
    assert_eq!(journal.stats().discarded, 0, "no worker tore an entry");
    for ((sc, got), want) in selected.iter().zip(&resume.measurements).zip(&serial) {
        assert_eq!(
            got.as_ref(),
            Some(want),
            "{}: multi-process shard must equal serial in-process exactly",
            sc.id()
        );
    }

    // The coordinator CLI sees the same completeness: resumed == all
    // groups, executed == 0, and its row output matches a plain run.
    let coord = Command::new(env!("CARGO_BIN_EXE_swan-report"))
        .args(["--scale", &scale_arg, "--seed", "7"])
        .args(["--only", "lib=ZL", "--threads", "1"])
        .args(["--checkpoint", ckpt.to_str().expect("utf8")])
        .output()
        .expect("spawn coordinator");
    assert!(coord.status.success());
    let stderr = String::from_utf8_lossy(&coord.stderr);
    assert!(
        stderr.contains("executed=0"),
        "coordinator must only aggregate:\n{stderr}"
    );
    let plain = Command::new(env!("CARGO_BIN_EXE_swan-report"))
        .args(["--scale", &scale_arg, "--seed", "7"])
        .args(["--only", "lib=ZL", "--threads", "1"])
        .output()
        .expect("spawn plain run");
    assert!(plain.status.success());
    assert_eq!(
        plain.stdout, coord.stdout,
        "coordinator rows must be byte-identical to an uncheckpointed run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// Codec memory bound: the encoded recording of a scenario group's
/// stream must be far smaller than the `Vec<TraceInstr>` it replaces,
/// at the golden (quick) scale — and the process-wide codec counters
/// must report it.
#[test]
fn recorded_stream_is_far_smaller_than_materialized_trace() {
    let kernels = swan::suite();
    let kernel = kernels
        .iter()
        .find(|k| k.meta().id() == "ZL.adler32")
        .expect("ZL.adler32");
    let before = swan_simd::trace::codec::recorded_totals();
    let (data, enc, _) =
        swan_core::record(kernel.as_ref(), Impl::Neon, Width::W128, Scale::quick(), 42);
    assert_eq!(
        enc.instr_count(),
        data.total(),
        "recording covers the stream"
    );
    let naive = enc.naive_bytes();
    assert_eq!(
        naive,
        data.total() * std::mem::size_of::<swan_simd::TraceInstr>() as u64
    );
    assert!(
        (enc.encoded_bytes() as u64) * 8 < naive,
        "encoded {} bytes vs naive {} bytes: the replay buffer must be \
         an order of magnitude below the materialized trace",
        enc.encoded_bytes(),
        naive
    );
    let after = swan_simd::trace::codec::recorded_totals();
    assert!(after.bytes >= before.bytes + enc.encoded_bytes() as u64);
    assert!(after.instrs >= before.instrs + enc.instr_count());
}

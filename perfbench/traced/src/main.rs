//! Traced pass of the Swan benchmark.
//!
//! One in-process pass over the quick-scale plan at the program's
//! default seed, driven from a single thread. It calls the public functions of every
//! layer — `swan_simd` (execute, encode, decode), `swan_uarch` (warm
//! and timed stepping per core), `swan_core::{campaign, runner,
//! tracestore, checkpoint, report}` and `swan_serve` — and times each
//! call from outside. Nothing inside the program is instrumented.
//!
//! Usage: `perfbench-traced --seed N --work DIR`
//!
//! `--seed` orders the cache-tier serve queries; `DIR` receives the trace store,
//! the checkpoint journal, and the rendered outputs (`rows.txt`,
//! `report.txt`, `fig6.txt`) that `perfbench/run.py` checks against
//! its pinned digests. Stdout carries one `kind name value...` record
//! per line:
//!
//! - `count NAME N` — exact work counters (repeat exactly run to run);
//! - `ns NAME N` — summed wall time of one kind of timed call;
//! - `samples NAME V...` — per-call latencies (µs or ms, per name);
//! - `group STREAM_ID NS` — one scenario group's record + warm + timed;
//! - `checks N FAILED` — internal consistency checks made and failed;
//! - `wall_ns N` — the pass's own wall clock.
//!
//! Internal checks that fail are listed on stderr and counted; the
//! pass still finishes so every metric is reported.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use swan_core::report::{self, scenario_row};
use swan_core::tracestore::StoreKey;
use swan_core::{CampaignJournal, Impl, Measurement, Scale, ScenarioFilter, TraceStore};
use swan_kernels::xp::{conv_layers, GemmF32, Shape, SpmmF32};
use swan_serve::{Server, ServerConfig};
use swan_simd::trace::{self, session_width, stream_into_at};
use swan_simd::{Class, Op, TraceData, TraceInstr, TraceSink, Width};
use swan_uarch::{CoreConfig, CoreId, CoreModel, EnergyModel, SimResult};

/// The program's default seed: the benchmark pins its outputs.
const PLAN_SEED: u64 = 42;
/// Figure 6 sweep points, as `swan-report` draws them.
const FIG6_POINTS: usize = 13;
/// Cache-tier queries timed against the in-process server: enough for
/// ten samples beyond the 99th percentile.
const CACHE_QUERIES: usize = 1000;
/// Full-plan (`*`) queries answered from cache: ten beyond the median.
const STAR_QUERIES: usize = 20;
/// Every `SAMPLE_STRIDE`-th group is replayed from the store, and
/// measured from the store to set against its in-memory measurement,
/// exposing the decode the store path does not hide; lookups cover
/// every group.
const SAMPLE_STRIDE: usize = 20;

/// Every `MODEL_STRIDE`-th group is stepped one `CoreModel` per core,
/// each timed on its own, beside `swan_core::runner`'s own path.
const MODEL_STRIDE: usize = 4;
/// How far the pass's per-layer record + warm + timed time may stray
/// from `swan_core::runner`'s own path over the same groups before the
/// run counts as failed: well above the few percent two passes over
/// the same work differ by, well below what a change to only one of
/// the two paths (decode once, one executor) would move.
const RUNNER_TOLERANCE: f64 = 0.15;

/// Core kinds the timed step is split by: out-of-order Prime/Gold,
/// in-order Silver, and the Figure 5(b) sweep points.
const KINDS: [&str; 4] = ["prime", "gold", "silver", "sweep"];

fn kind(core: CoreId) -> usize {
    match core {
        CoreId::Prime => 0,
        CoreId::Gold => 1,
        CoreId::Silver => 2,
        _ => 3,
    }
}

/// A sink that drops the stream: the kernel's functional execution
/// and the tracer's own bookkeeping, without any encoding.
struct NullSink;

impl TraceSink for NullSink {
    fn on_instr(&mut self, _: &TraceInstr) {}
    fn on_overhead(&mut self, _: Op, _: Class, _: u32, _: u64) {}
}

/// Accumulates the wall time of one kind of call.
#[derive(Default)]
struct Timer(u128);

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0 += t.elapsed().as_nanos();
        r
    }
}

/// Consistency checks made and failed; failures are named on stderr.
#[derive(Default)]
struct Checks {
    made: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced check failed: {}", what());
        }
    }
}

/// A measurement exactly as `swan_core::runner` attaches energy to a
/// finished simulation.
fn measurement(
    hist: &TraceData,
    sim: SimResult,
    cfg: &CoreConfig,
    imp: Impl,
    w: Width,
    work_ops: u64,
) -> Measurement {
    let energy = EnergyModel::default().energy(&sim, cfg, width_factor(imp, w));
    let power_w = if sim.seconds > 0.0 {
        energy.total_j() / sim.seconds
    } else {
        0.0
    };
    Measurement {
        trace: hist.histograms(),
        sim,
        power_w,
        energy_j: energy.total_j(),
        work_ops,
    }
}

fn width_factor(imp: Impl, w: Width) -> f64 {
    if imp == Impl::Neon {
        w.factor() as f64
    } else {
        1.0
    }
}

/// SplitMix64: the serve query order is a pure function of `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn parse_args() -> (u64, PathBuf) {
    let mut seed = None;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--seed", Some(v)) => seed = v.parse().ok(),
            ("--work", Some(v)) => work = Some(PathBuf::from(v)),
            _ => {
                eprintln!("usage: perfbench-traced --seed N --work DIR");
                std::process::exit(2);
            }
        }
    }
    match (seed, work) {
        (Some(s), Some(w)) => (s, w),
        _ => {
            eprintln!("usage: perfbench-traced --seed N --work DIR");
            std::process::exit(2);
        }
    }
}

fn write(path: &Path, text: &str) {
    fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn main() {
    let (seed, work) = parse_args();
    fs::create_dir_all(&work).expect("create work dir");
    let wall = Instant::now();
    let scale = Scale::quick();
    let kernels = swan_kernels::all_kernels();
    let mut checks = Checks::default();

    // ---- campaign: plan ------------------------------------------------
    let mut plan_t = Timer::default();
    let (plan, groups) = plan_t.time(|| {
        let plan = swan_core::plan(&kernels, scale, PLAN_SEED);
        let groups = swan_core::execution_groups(&plan);
        (plan, groups)
    });

    // ---- simd, uarch and runner: every group from memory ---------------
    // `swan_core::runner` (`record_group` + `measure_recorded`) measures
    // every group: its results are the rows and its time per group ranks
    // the slowest groups. Every MODEL_STRIDE-th group is also stepped
    // through one `CoreModel` per member core, each model timed on its
    // own, for the per-core-kind figures. On those groups the copy's
    // results must equal the runner's, and its record + warm + timed
    // time must stay within RUNNER_TOLERANCE of the runner's, or the
    // per-layer figures no longer describe the program.
    let (mut exec_t, mut record_t, mut decode_t) =
        (Timer::default(), Timer::default(), Timer::default());
    let (mut warm_pass_t, mut timed_pass_t) = (Timer::default(), Timer::default());
    let (mut runner_record_t, mut runner_measure_t) = (Timer::default(), Timer::default());
    let mut warm_model_ns = 0u128;
    let mut timed_model_ns = [0u128; 4];
    let mut kind_steps = [0u64; 4];
    let (mut instrs, mut encoded_bytes, mut warm_steps) = (0u64, 0u64, 0u64);
    let (mut copy_ns, mut copied_runner_ns, mut copied_steps) = (0u128, 0u128, 0u64);
    let mut group_instrs = Vec::with_capacity(groups.len());
    let mut group_ns = Vec::with_capacity(groups.len());
    let mut measure_ns = Vec::with_capacity(groups.len());
    let mut meas: Vec<Option<Measurement>> = vec![None; plan.len()];
    for (gi, g) in groups.iter().enumerate() {
        let sc = &plan[g[0]];
        let kernel = kernels[sc.kernel].as_ref();
        let cfgs: Vec<CoreConfig> = g.iter().map(|&i| plan[i].core.config()).collect();
        let wf = width_factor(sc.imp, sc.width);
        let executed = exec_t.time(|| {
            let mut inst = kernel.instantiate(scale, PLAN_SEED);
            let (data, NullSink, ()) =
                stream_into_at(sc.width, NullSink, || inst.run(sc.imp, session_width()));
            data.total()
        });
        let t_record = Instant::now();
        let (hist, enc, work_ops) =
            record_t.time(|| swan_core::record(kernel, sc.imp, sc.width, scale, PLAN_SEED));
        let record_ns = t_record.elapsed().as_nanos();
        let n = enc.instr_count();
        checks.check(executed == n && hist.total() == n, || {
            format!("{}: executed {executed}, recorded {n}", sc.stream_id())
        });
        instrs += n;
        encoded_bytes += enc.encoded_bytes() as u64;
        group_instrs.push(n);

        let decoded = decode_t.time(|| {
            let mut d = 0u64;
            enc.replay_batches(|b| d += b.len() as u64);
            d
        });
        checks.check(decoded == n, || {
            format!("{}: decoded {decoded} of {n}", sc.stream_id())
        });

        let t_runner = Instant::now();
        let mut rec = runner_record_t
            .time(|| swan_core::record_group(kernel, sc.imp, sc.width, scale, PLAN_SEED, None));
        let t_measure = Instant::now();
        let got = runner_measure_t.time(|| swan_core::measure_recorded(&mut rec, &cfgs, wf));
        measure_ns.push(t_measure.elapsed().as_nanos());
        let runner_ns = t_runner.elapsed().as_nanos();
        group_ns.push(runner_ns);
        for (&i, m) in g.iter().zip(got) {
            meas[i] = Some(m);
        }
        if gi % MODEL_STRIDE != 0 {
            continue;
        }

        let kinds: Vec<usize> = g.iter().map(|&i| kind(plan[i].core)).collect();
        let mut models: Vec<CoreModel> = cfgs.iter().map(|c| CoreModel::new(c.clone())).collect();
        models.iter_mut().for_each(CoreModel::begin_warm);
        let t_pass = Instant::now();
        warm_pass_t.time(|| {
            enc.replay_batches(|b| {
                let t = Instant::now();
                for m in models.iter_mut() {
                    m.warm_batch(b);
                }
                warm_model_ns += t.elapsed().as_nanos();
            })
        });
        models.iter_mut().for_each(CoreModel::begin_timed);
        timed_pass_t.time(|| {
            enc.replay_batches(|b| {
                for (m, &k) in models.iter_mut().zip(&kinds) {
                    let t = Instant::now();
                    m.step_batch(b);
                    timed_model_ns[k] += t.elapsed().as_nanos();
                }
            })
        });
        copy_ns += record_ns + t_pass.elapsed().as_nanos();
        copied_runner_ns += runner_ns;
        warm_steps += n * g.len() as u64;
        for &k in &kinds {
            kind_steps[k] += n;
        }
        for ((&i, cfg), mut model) in g.iter().zip(&cfgs).zip(models) {
            let sim = model.finalize();
            let m = measurement(&hist, sim, cfg, sc.imp, sc.width, work_ops);
            copied_steps += m.sim.instrs;
            checks.check(meas[i].as_ref() == Some(&m), || {
                format!(
                    "{}: per-model result differs from the runner's",
                    plan[i].id()
                )
            });
        }
    }
    let ratio = copy_ns as f64 / copied_runner_ns as f64;
    checks.check((ratio - 1.0).abs() <= RUNNER_TOLERANCE, || {
        format!("per-layer record + warm + timed take {ratio:.3}x the runner's own path")
    });
    let timed_steps: u64 = meas.iter().flatten().map(|m| m.sim.instrs).sum();
    checks.check(copied_steps == kind_steps.iter().sum::<u64>(), || {
        format!(
            "sampled timed steps {copied_steps} != stepped {}",
            kind_steps.iter().sum::<u64>()
        )
    });
    let measurements: Vec<Measurement> = meas.iter().flatten().cloned().collect();
    let rows: Vec<String> = plan
        .iter()
        .zip(&measurements)
        .map(|(sc, m)| scenario_row(sc, m))
        .collect();
    write(&work.join("rows.txt"), &(rows.join("\n") + "\n"));

    // ---- campaign: aggregate; report: render ---------------------------
    let mut aggregate_t = Timer::default();
    let suite = aggregate_t.time(|| swan_core::aggregate(&kernels, &plan, &meas, scale));
    let mut render_t = Timer::default();
    let text = render_t.time(|| {
        [
            report::tab2(&kernels),
            report::tab3(),
            report::patterns(&kernels),
            report::fig1(&suite),
            report::fig2(&suite),
            report::fig3(&suite),
            report::tab4(&suite),
            report::tab5(&suite),
            report::fig4(&suite),
            report::fig5a(&suite),
            report::fig5b(&suite),
            report::tab6(&suite),
            report::tab7(&suite),
            report::kernel_detail(&suite),
        ]
        .iter()
        .map(|r| format!("{r}\n"))
        .collect::<String>()
    });
    write(&work.join("report.txt"), &text);

    // ---- report: Figure 6 (outside the plan) ---------------------------
    let layers: Vec<(usize, usize, usize)> =
        conv_layers().iter().map(|s| (s.m, s.k, s.n)).collect();
    let fig6_before = trace::codec::recorded_totals().instrs;
    let mut fig6_t = Timer::default();
    let (gemm, spmm, fig6) = fig6_t.time(|| {
        report::fig6(
            &layers,
            FIG6_POINTS,
            |m, k, n| Box::new(GemmF32::with_shape(Shape { m, k, n })),
            |m, k, n| Box::new(SpmmF32::with_shape(Shape { m, k, n })),
            |_| {},
        )
    });
    let fig6_instrs = trace::codec::recorded_totals().instrs - fig6_before;
    write(&work.join("fig6.txt"), &format!("{fig6}\n"));

    // ---- tracestore: commit, look up, replay ---------------------------
    let store = Arc::new(TraceStore::open(work.join("store"), &kernels).expect("open trace store"));
    let key_of = |gi: usize| {
        let sc = &plan[groups[gi][0]];
        StoreKey::group(&sc.kernel_id, sc.imp, sc.width, scale, PLAN_SEED)
    };
    let (mut spill_t, mut commit_t) = (Timer::default(), Timer::default());
    for (gi, g) in groups.iter().enumerate() {
        let sc = &plan[g[0]];
        let kernel = kernels[sc.kernel].as_ref();
        let (pending, spill) = store.begin_insert(&key_of(gi)).expect("begin store insert");
        let mut inst = kernel.instantiate(scale, PLAN_SEED);
        let (data, spill, fallback_refs) = spill_t.time(|| {
            stream_into_at(sc.width, spill, || {
                inst.run(sc.imp, session_width());
                trace::buffer_fallback_refs()
            })
        });
        commit_t
            .time(|| {
                store.commit(
                    pending,
                    spill,
                    inst.work_ops(),
                    fallback_refs,
                    data.histograms(),
                )
            })
            .expect("commit store entry");
    }
    let written = store.stats();
    let (mut lookup_t, mut store_decode_t) = (Timer::default(), Timer::default());
    let (mut hits, mut misses, mut sampled_instrs) = (0u64, 0u64, 0u64);
    for (gi, &n) in group_instrs.iter().enumerate() {
        match lookup_t.time(|| store.lookup(&key_of(gi))) {
            Some(_) if gi % SAMPLE_STRIDE != 0 => hits += 1,
            Some(mut stored) => {
                hits += 1;
                sampled_instrs += n;
                let d = store_decode_t.time(|| {
                    let mut d = 0u64;
                    stored.replay_batches(|b| d += b.len() as u64);
                    d
                });
                checks.check(d == n, || {
                    format!("store replay of group {gi}: {d} of {n} instrs")
                });
            }
            None => misses += 1,
        }
    }
    let looked = store.stats();
    let (mut exposed_mem_ns, mut exposed_store_t) = (0u128, Timer::default());
    let mut exposed_groups = 0u64;
    for (gi, g) in groups.iter().enumerate().step_by(SAMPLE_STRIDE) {
        let sc = &plan[g[0]];
        let kernel = kernels[sc.kernel].as_ref();
        let cfgs: Vec<CoreConfig> = g.iter().map(|&i| plan[i].core.config()).collect();
        let wf = width_factor(sc.imp, sc.width);
        exposed_mem_ns += measure_ns[gi];
        let mut disk =
            swan_core::record_group(kernel, sc.imp, sc.width, scale, PLAN_SEED, Some(&store));
        let from_disk = exposed_store_t.time(|| swan_core::measure_recorded(&mut disk, &cfgs, wf));
        let expect: Vec<Measurement> = g.iter().map(|&i| measurements[i].clone()).collect();
        checks.check(disk.from_store() && from_disk == expect, || {
            format!("group {gi}: store-backed measurement differs from the in-memory one")
        });
        exposed_groups += 1;
    }

    // ---- checkpoint: journal every group, load it back -----------------
    let journal = CampaignJournal::open(work.join("journal"), &kernels, scale, PLAN_SEED)
        .expect("open checkpoint journal");
    let (mut ck_write_t, mut ck_load_t) = (Timer::default(), Timer::default());
    for g in &groups {
        let ms: Vec<Measurement> = g.iter().map(|&i| measurements[i].clone()).collect();
        ck_write_t
            .time(|| journal.record_group(&plan, g, &ms))
            .expect("journal a group");
        let loaded = ck_load_t.time(|| journal.load_group(&plan, g));
        checks.check(loaded.as_deref() == Some(&ms[..]), || {
            format!(
                "journal entry of {} did not load back",
                plan[g[0]].stream_id()
            )
        });
    }
    let journal_bytes = journal.stats().bytes_written;

    // ---- serve: fresh, cache, and full-plan queries --------------------
    let row_of: HashMap<String, &String> = plan.iter().map(|sc| sc.id()).zip(&rows).collect();
    // The server replays from the pass's warm store, so filling its
    // cache costs simulation only; the pool is as wide as `serve_mix`.
    let server = Server::new(
        swan_kernels::all_kernels(),
        Some(store.clone()),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let filter_of = |gi: usize| {
        let sc = &plan[groups[gi][0]];
        vec![ScenarioFilter {
            kernel: Some(sc.kernel_id.to_ascii_lowercase()),
            imp: Some(sc.imp),
            width: Some(sc.width),
            ..ScenarioFilter::default()
        }]
    };
    let serve_check = |reply: &swan_serve::QueryReply, checks: &mut Checks| {
        let same = reply.plan.iter().zip(&reply.measurements).all(|(sc, m)| {
            m.as_ref().is_some_and(|m| {
                row_of
                    .get(&sc.id())
                    .is_some_and(|r| **r == scenario_row(sc, m))
            })
        });
        checks.check(same && reply.stats.failures == 0, || {
            format!(
                "served rows differ from the traced pass ({} scenarios)",
                reply.plan.len()
            )
        });
    };
    let mut fresh_t = Timer::default();
    let reply = fresh_t
        .time(|| server.query(&[]))
        .expect("cold full-plan query");
    let fresh_groups = reply.stats.fresh as u64;
    serve_check(&reply, &mut checks);
    let mut rng = Rng(seed);
    let mut cache_us = Vec::with_capacity(CACHE_QUERIES);
    for _ in 0..CACHE_QUERIES {
        let filters = filter_of(rng.below(groups.len()));
        let t = Instant::now();
        let reply = server.query(&filters).expect("cache query");
        cache_us.push(t.elapsed().as_secs_f64() * 1e6);
        checks.check(reply.stats.cached == reply.stats.groups, || {
            "a repeated query was not answered from cache".into()
        });
        serve_check(&reply, &mut checks);
    }
    let mut star_ms = Vec::with_capacity(STAR_QUERIES);
    for _ in 0..STAR_QUERIES {
        let t = Instant::now();
        let reply = server.query(&[]).expect("full-plan query");
        star_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.check(reply.stats.cached == groups.len(), || {
            "the full plan was not answered from cache".into()
        });
        serve_check(&reply, &mut checks);
    }
    drop(server);
    let wall_ns = wall.elapsed().as_nanos();
    let cache_ns = (cache_us.iter().sum::<f64>() * 1e3) as u128;
    let star_ns = (star_ms.iter().sum::<f64>() * 1e6) as u128;

    let counts: [(&str, u64); 20] = [
        ("plan_scenarios", plan.len() as u64),
        ("plan_groups", groups.len() as u64),
        ("plan_instrs", instrs),
        ("sampled_warm_steps", warm_steps),
        ("plan_timed_steps", timed_steps),
        ("encoded_bytes", encoded_bytes),
        ("fig6_instrs", fig6_instrs),
        ("fig6_execs", (gemm.len() + spmm.len()) as u64),
        ("store_inserts", written.inserts),
        ("store_bytes_written", written.bytes_written),
        ("store_hits", hits),
        ("store_misses", misses),
        ("store_bytes_read", looked.bytes_read - written.bytes_read),
        (
            "sampled_model_groups",
            groups.len().div_ceil(MODEL_STRIDE) as u64,
        ),
        ("sampled_groups", exposed_groups),
        ("sampled_instrs", sampled_instrs),
        ("journal_groups", groups.len() as u64),
        ("journal_bytes", journal_bytes),
        ("serve_fresh_groups", fresh_groups),
        ("serve_queries", (1 + CACHE_QUERIES + STAR_QUERIES) as u64),
    ];
    for (name, n) in counts {
        println!("count {name} {n}");
    }
    let mut timers: Vec<(String, u128)> = vec![
        ("plan".into(), plan_t.0),
        ("exec".into(), exec_t.0),
        ("record".into(), record_t.0),
        ("decode".into(), decode_t.0),
        ("warm_pass".into(), warm_pass_t.0),
        ("warm_model".into(), warm_model_ns),
        ("timed_pass".into(), timed_pass_t.0),
        ("aggregate".into(), aggregate_t.0),
        ("render".into(), render_t.0),
        ("fig6".into(), fig6_t.0),
        ("store_record".into(), spill_t.0),
        ("store_commit".into(), commit_t.0),
        ("store_lookup".into(), lookup_t.0),
        ("store_decode".into(), store_decode_t.0),
        ("exposed_mem".into(), exposed_mem_ns),
        ("exposed_store".into(), exposed_store_t.0),
        ("runner_record".into(), runner_record_t.0),
        ("runner_measure".into(), runner_measure_t.0),
        ("copy_sampled".into(), copy_ns),
        ("runner_sampled".into(), copied_runner_ns),
        ("checkpoint_write".into(), ck_write_t.0),
        ("checkpoint_load".into(), ck_load_t.0),
        ("serve_fresh".into(), fresh_t.0),
        ("serve_cache".into(), cache_ns),
        ("serve_star".into(), star_ns),
    ];
    for (k, name) in KINDS.iter().enumerate() {
        timers.push((format!("timed_model.{name}"), timed_model_ns[k]));
        println!("count steps.{name} {}", kind_steps[k]);
    }
    for (name, ns) in timers {
        println!("ns {name} {ns}");
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("samples cache_us {}", fmt(&cache_us));
    println!("samples star_ms {}", fmt(&star_ms));
    for (g, ns) in groups.iter().zip(&group_ns) {
        println!("group {} {ns}", plan[g[0]].stream_id());
    }
    println!("checks {} {}", checks.made, checks.failed);
    println!("wall_ns {wall_ns}");
}

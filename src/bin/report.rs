//! `swan-report` — regenerate the paper's tables and figures, and
//! maintain the golden regression baseline.
//!
//! Usage:
//!
//! ```text
//! swan-report [--quick | --scale F] [--seed N] [--threads N]
//!             [--trace-store DIR] [--trace-store-stats]
//!             [--checkpoint DIR [--resume]]
//!             [--profile [--profile-json PATH] [--profile-folded PATH]]
//!             <what>...
//! swan-report [...] --list-scenarios [--only FILTER]...
//! swan-report [...] --only FILTER [--only FILTER]...
//! swan-report [...] --checkpoint DIR --worker I/OF [--only FILTER]...
//! swan-report [--scale F] [--seed N] [--threads N] --write-golden <path>
//! swan-report [--scale F] [--seed N] [--threads N] --golden <path>
//! swan-report [--scale F] [--seed N] --replay-smoke
//! swan-report [--scale F] [--seed N] [--trace-store DIR] --perf
//! swan-report --bench-gate <current.json> <baseline.json>
//! ```
//!
//! where `<what>` is any of `tab2 tab3 fig1 fig2 fig3 tab4 tab5 fig4
//! fig5a fig5b tab6 tab7 fig6 patterns detail all`. The default scale
//! is the report scale (0.4 of paper-size inputs, preserving the
//! cache-pressure regimes); `--quick` runs a much smaller scale for a
//! fast smoke pass. `--scale F` takes any finite factor above 0. `--threads N` shards the measurement campaign
//! across N worker threads at scenario-group granularity, and then
//! the Figure 6 sweep across the same N workers one GEMM/SpMM point
//! at a time, largest first (`0` or omitted: auto-detect the core
//! count). The output is byte-identical for every N.
//!
//! Every campaign — full reports, subsets, goldens — goes through the
//! same plan → execute → aggregate pipeline. `--list-scenarios`
//! prints the scenario plan (no measurement); `--only` restricts the
//! plan with `key=value[,key=value]` filters over `lib`, `kernel`,
//! `impl`, `width`, and `core` (several `--only` flags form a union)
//! and prints one measured row per scenario.
//!
//! `--write-golden` measures the full scenario matrix and writes the
//! canonical baseline JSON; `--golden` re-measures and diffs against
//! the committed baseline, exiting non-zero on any drift. Both default
//! to the quick scale and seed 42 (the committed
//! `tests/golden/suite.json` parameters) unless `--scale`/`--seed`
//! are given explicitly.
//!
//! `--replay-smoke` checks the record-once/replay-many codec in
//! seconds: one kernel executes once while being recorded and
//! digested, the recording is replayed into a fresh digest, and the
//! two must match bit for bit (exit non-zero otherwise). CI runs it
//! ahead of the full golden check.
//!
//! `--perf` times the simulator against itself: each representative
//! kernel is recorded once and replayed through every pipeline phase
//! (decode-only, warm, timed), printing ns/instr per phase and
//! **instructions simulated per second** as the headline. Defaults to
//! the quick scale unless `--scale` is given.
//!
//! `--bench-gate current.json baseline.json` compares the
//! element-throughput benches of a `cargo bench` JSON report
//! (`CRITERION_JSON_PATH`) against a committed baseline and exits
//! non-zero if any regressed more than 25% — the CI guard on the
//! replay hot loop's throughput.
//!
//! `--profile` composes with every measuring mode (full suite,
//! `--only` subsets, goldens, workers, `--perf`): the
//! `swan_core::profile` attribution layer is switched on for the run
//! and, when it finishes, a per-phase table (record, store I/O,
//! decode, warm, timed, checkpoint, …) plus one greppable `profile:`
//! headline go to stderr — stdout rows stay byte-identical to an
//! unprofiled run — and the machine-readable per-phase report is
//! written to `BENCH_profile.json` (`--profile-json PATH` overrides).
//! `--profile-folded PATH` additionally writes folded stacks
//! (`swan;campaign;timed 1234` per line) that `flamegraph.pl` /
//! inferno consume directly. See `docs/PERFORMANCE.md`.
//!
//! `--trace-store DIR` backs every campaign (full suite, `--only`
//! subsets, goldens) with the persistent chunked trace store rooted at
//! `DIR`: scenario groups whose recordings the store already holds are
//! replayed from disk instead of functionally executed, and misses
//! record into the store for every later run. Results are bit-identical
//! with a cold store, a warm store, or no store at all (corrupted
//! entries are detected, deleted, and re-recorded). `--trace-store-stats`
//! prints one machine-greppable `trace-store:` summary line (hits,
//! misses, bytes, evictions) after the run — CI posts it to the step
//! summary.
//!
//! `--checkpoint DIR` makes the measurement campaign (full suite and
//! `--only` subsets) *resumable*: each scenario group's measurements
//! are journaled into `DIR` (tmp + fsync + atomic rename — an entry is
//! either fully visible or absent, no matter when the process dies)
//! the moment the group completes, and groups the journal already
//! holds are loaded instead of re-simulated. A killed campaign
//! restarted with the same flags therefore resumes where it died, with
//! byte-identical output. `--resume` is the explicit coordinator form
//! (it additionally *requires* the journal, finishes any stragglers,
//! and aggregates); `--worker I/OF` runs only the `I`-th of `OF`
//! disjoint group shards into the shared journal and exits without
//! reports — launch `OF` worker processes against one `--checkpoint`
//! directory, then aggregate with `--resume`. Both print one greppable
//! `checkpoint:` summary line. Golden modes ignore the journal (they
//! pin trace digests the journal does not persist; see CONTRIBUTING,
//! "The checkpoint journal").

use swan_core::report::{self, SuiteResults};
use swan_core::{
    golden, Campaign, CampaignJournal, CampaignRun, KernelFailure, Scale, Scenario, ScenarioFilter,
    TraceStore,
};
use swan_kernels::xp::{conv_layers, GemmF32, Shape, SpmmF32};

fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const USAGE: &str = "usage: swan-report [--quick | --scale F] [--seed N] [--threads N]\n\
                     \x20                  [--trace-store DIR [--trace-store-stats]]\n\
                     \x20                  [--checkpoint DIR [--resume | --worker I/OF]]\n\
                     \x20                  [--profile [--profile-json PATH] [--profile-folded PATH]]\n\
                     \x20                  [--only FILTER]... [--list-scenarios]\n\
                     \x20                  [--write-golden PATH | --golden PATH]\n\
                     \x20                  [--replay-smoke | --perf | --bench-gate CUR BASE]\n\
                     \x20                  [tab2 tab3 fig1 fig2 fig3 tab4 tab5 fig4 fig5a\n\
                     \x20                   fig5b tab6 tab7 fig6 patterns detail all]";

/// Reject a malformed command line: diagnostic to stderr, usage hint,
/// exit 2 (the argument-error code, distinct from check failures' 1).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The flag's required value, or exit 2 with a diagnostic naming the
/// flag. A following `--flag` means the value was forgotten, not given.
fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => die(&format!("{flag} needs a value")),
    }
}

/// The flag's value parsed as `T`, or exit 2 with a diagnostic naming
/// the flag and the reason.
fn parse_num<T: std::str::FromStr<Err: std::fmt::Display>>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|e| die(&format!("invalid {flag} value `{raw}`: {e}")))
}

/// Every `<what>` token the report generator understands.
const REPORT_TOKENS: [&str; 16] = [
    "tab2", "tab3", "fig1", "fig2", "fig3", "tab4", "tab5", "fig4", "fig5a", "fig5b", "tab6",
    "tab7", "fig6", "patterns", "detail", "all",
];

fn main() {
    let mut scale = Scale::sim();
    let mut scale_explicit = false;
    let mut seed = 42u64;
    let mut threads = auto_threads();
    let mut golden_write: Option<String> = None;
    let mut golden_check: Option<String> = None;
    let mut list_scenarios = false;
    let mut replay_smoke = false;
    let mut perf = false;
    let mut bench_gate: Option<(String, String)> = None;
    let mut store_dir: Option<String> = None;
    let mut store_stats = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut worker: Option<(usize, usize)> = None;
    let mut profile = false;
    let mut profile_json: Option<String> = None;
    let mut profile_folded: Option<String> = None;
    let mut filters: Vec<ScenarioFilter> = Vec::new();
    let mut wants: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                scale = Scale::quick();
                scale_explicit = true;
            }
            "--scale" => {
                scale = parse_num("--scale", &value_of("--scale", &mut args));
                scale_explicit = true;
            }
            "--seed" => {
                seed = parse_num("--seed", &value_of("--seed", &mut args));
            }
            "--threads" => {
                let n: usize = parse_num("--threads", &value_of("--threads", &mut args));
                // 0 = auto-detect the worker count.
                threads = if n == 0 { auto_threads() } else { n };
            }
            "--list-scenarios" => list_scenarios = true,
            "--replay-smoke" => replay_smoke = true,
            "--perf" => perf = true,
            "--bench-gate" => {
                let cur = value_of("--bench-gate", &mut args);
                let base = match args.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => die("--bench-gate needs <current.json> <baseline.json>"),
                };
                bench_gate = Some((cur, base));
            }
            "--trace-store" => {
                store_dir = Some(value_of("--trace-store", &mut args));
            }
            "--trace-store-stats" => store_stats = true,
            "--checkpoint" => {
                checkpoint_dir = Some(value_of("--checkpoint", &mut args));
            }
            "--resume" => resume = true,
            "--profile" => profile = true,
            "--profile-json" => {
                profile_json = Some(value_of("--profile-json", &mut args));
            }
            "--profile-folded" => {
                profile_folded = Some(value_of("--profile-folded", &mut args));
            }
            "--worker" => {
                let spec = value_of("--worker", &mut args);
                let parsed = spec.split_once('/').and_then(|(i, of)| {
                    let i: usize = i.trim().parse().ok()?;
                    let of: usize = of.trim().parse().ok()?;
                    (of >= 1 && i < of).then_some((i, of))
                });
                match parsed {
                    Some(w) => worker = Some(w),
                    None => die(&format!(
                        "invalid --worker spec `{spec}`: expected I/OF with I < OF"
                    )),
                }
            }
            "--only" => {
                let spec = value_of("--only", &mut args);
                match ScenarioFilter::parse(&spec) {
                    Ok(f) => filters.push(f),
                    Err(e) => die(&format!("invalid --only filter `{spec}`: {e}")),
                }
            }
            "--write-golden" => {
                golden_write = Some(value_of("--write-golden", &mut args));
            }
            "--golden" => {
                golden_check = Some(value_of("--golden", &mut args));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                die(&format!("unrecognized flag `{other}`"));
            }
            other if !REPORT_TOKENS.contains(&other) => {
                die(&format!(
                    "unknown report token `{other}` (expected one of: {})",
                    REPORT_TOKENS.join(" ")
                ));
            }
            other => wants.push(other.to_string()),
        }
    }

    // Flag-dependency audit: every modifier that is meaningless
    // without its prerequisite is an up-front error (exit 2), not a
    // mid-run surprise or a silently ignored request.
    if resume && checkpoint_dir.is_none() {
        die("--resume requires --checkpoint DIR");
    }
    if worker.is_some() && checkpoint_dir.is_none() {
        die("--worker requires --checkpoint DIR");
    }
    if resume && worker.is_some() {
        die("--resume is the coordinator; a --worker shard cannot also resume-all");
    }
    if store_stats && store_dir.is_none() {
        die("--trace-store-stats requires --trace-store DIR");
    }
    if profile_json.is_some() && !profile {
        die("--profile-json requires --profile");
    }
    if profile_folded.is_some() && !profile {
        die("--profile-folded requires --profile");
    }
    if profile && bench_gate.is_some() {
        die("--bench-gate compares existing files; there is no run to --profile");
    }
    if profile && list_scenarios {
        die("--list-scenarios plans without measuring; there is no run to --profile");
    }

    // The attribution layer switches on before any measurement and
    // reports at the end of whichever mode runs below. The table and
    // headline go to stderr so stdout rows stay byte-identical to an
    // unprofiled run.
    if profile {
        swan_core::profile::set_enabled(true);
    }
    let profile_t0 = std::time::Instant::now();
    let emit_profile = |what: &str| {
        if !profile {
            return;
        }
        let rep = swan_core::profile::snapshot(profile_t0.elapsed().as_nanos() as u64);
        eprint!("{}", rep.render_table());
        eprintln!("{}", rep.headline());
        let json_path = profile_json.as_deref().unwrap_or("BENCH_profile.json");
        std::fs::write(json_path, rep.to_json()).unwrap_or_else(|e| {
            eprintln!("error: write profile json {json_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("profile: {what} phases written to {json_path}");
        if let Some(path) = profile_folded.as_deref() {
            std::fs::write(path, rep.to_folded()).unwrap_or_else(|e| {
                eprintln!("error: write folded stacks {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("profile: folded stacks written to {path} (flamegraph.pl/inferno input)");
        }
    };

    if let Some((cur_path, base_path)) = bench_gate {
        // Pure file comparison — no kernels, no measurement.
        let read = |path: &str| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read bench report {path}: {e}"));
            let rows = swan_core::parse_bench_json(&text);
            if rows.is_empty() {
                eprintln!("error: no bench rows parsed from {path}");
                std::process::exit(2);
            }
            rows
        };
        let current = read(&cur_path);
        let baseline = read(&base_path);
        let outcome = swan_core::gate(&current, &baseline, 0.25);
        if outcome.lines.is_empty() {
            eprintln!("warning: baseline {base_path} has no throughput benches; nothing gated");
        }
        for line in &outcome.lines {
            println!("{line}");
        }
        if outcome.ok() {
            eprintln!(
                "bench gate OK: {} throughput bench{} within 25% of {base_path}",
                outcome.lines.len(),
                if outcome.lines.len() == 1 { "" } else { "es" }
            );
        } else {
            for r in &outcome.regressions {
                eprintln!("bench gate FAILED: {r}");
            }
            eprintln!(
                "(regenerate the baseline with `CRITERION_JSON_PATH={base_path} \
                 cargo bench -p swan-bench` if the change is intended)"
            );
            std::process::exit(1);
        }
        return;
    }

    let kernels = swan_kernels::all_kernels();

    // The persistent trace store, if requested. Opened once and shared
    // by whichever campaign runs below; keyed by this inventory.
    let store: Option<TraceStore> = store_dir.as_ref().map(|dir| {
        TraceStore::open(dir, &kernels).unwrap_or_else(|e| panic!("open trace store {dir}: {e}"))
    });
    let print_store_stats = || {
        if !store_stats {
            return;
        }
        if let Some(s) = &store {
            let st = s.stats();
            let (entries, bytes) = s.disk_usage();
            eprintln!(
                "trace-store: dir={} entries={entries} bytes={bytes} hits={} misses={} \
                 inserts={} corrupt_replaced={} evictions={} read={} written={}",
                s.dir().display(),
                st.hits,
                st.misses,
                st.inserts,
                st.corrupt_replaced,
                st.evictions,
                st.bytes_read,
                st.bytes_written,
            );
        }
    };

    // The campaign checkpoint journal, if requested. Opened where the
    // scale is final (perf/golden modes adjust it after parsing);
    // keyed by the inventory, scale, and seed like the trace store.
    let open_journal = || -> Option<CampaignJournal> {
        checkpoint_dir.as_ref().map(|dir| {
            CampaignJournal::open(dir, &kernels, scale, seed)
                .unwrap_or_else(|e| panic!("open checkpoint journal {dir}: {e}"))
        })
    };
    let print_checkpoint_stats = |journal: &CampaignJournal, run: &CampaignRun| {
        let s = journal.stats();
        eprintln!(
            "checkpoint: dir={} groups={} resumed={} executed={} twinned={} \
             shared={} skipped={} discarded={} written={} bytes={}",
            journal.dir().display(),
            run.total_groups,
            run.resumed_groups,
            run.executed_groups,
            run.twinned_groups,
            run.shared_cores,
            run.skipped_groups,
            s.discarded,
            s.written,
            s.bytes_written,
        );
    };

    if let Some((wi, wof)) = worker {
        // Worker mode: simulate one disjoint shard of the remaining
        // scenario groups into the shared journal, then exit — the
        // coordinator (`--resume`) aggregates once every shard is in.
        if golden_write.is_some()
            || golden_check.is_some()
            || list_scenarios
            || replay_smoke
            || perf
        {
            eprintln!("error: --worker only executes campaign groups; run other modes separately");
            std::process::exit(2);
        }
        if !wants.is_empty() {
            eprintln!(
                "warning: --worker journals measurements without aggregating; \
                 table/figure tokens ignored: {}",
                wants.join(" ")
            );
        }
        let journal = open_journal().expect("--worker requires --checkpoint");
        let full = swan_core::plan(&kernels, scale, seed);
        let selected = swan_core::filter_plan(&full, &filters);
        if selected.is_empty() {
            eprintln!("--only filters match no scenarios (try --list-scenarios)");
            std::process::exit(2);
        }
        let t0 = std::time::Instant::now();
        eprintln!(
            "worker {wi}/{wof}: {} scenarios at scale {:.5} (seed {seed}, {threads} thread{})...",
            selected.len(),
            scale.0,
            if threads == 1 { "" } else { "s" }
        );
        let campaign = Campaign {
            threads,
            store: store.as_ref(),
            journal: Some(&journal),
            shard: Some((wi, wof)),
        };
        let run = campaign.execute(&kernels, &selected, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f32())
        });
        print_store_stats();
        let s = journal.stats();
        eprintln!(
            "checkpoint-worker: shard={wi}/{wof} groups={} resumed={} executed={} \
             twinned={} shared={} skipped={} failures={} discarded={} written={} bytes={}",
            run.total_groups,
            run.resumed_groups,
            run.executed_groups,
            run.twinned_groups,
            run.shared_cores,
            run.skipped_groups,
            run.failures.len(),
            s.discarded,
            s.written,
            s.bytes_written,
        );
        eprintln!("worker done in {:.1}s", t0.elapsed().as_secs_f32());
        emit_profile("worker shard");
        exit_on_failures(&run.failures);
        return;
    }

    if checkpoint_dir.is_some()
        && (perf
            || replay_smoke
            || list_scenarios
            || golden_write.is_some()
            || golden_check.is_some())
    {
        // Golden baselines and probes must observe a full functional
        // execution; resuming from a journal would let a stale entry
        // masquerade as a fresh measurement.
        eprintln!("warning: this mode re-simulates unconditionally; --checkpoint/--resume ignored");
    }

    if perf {
        if golden_write.is_some() || golden_check.is_some() || list_scenarios || replay_smoke {
            eprintln!("error: --perf is a standalone mode; run other checks separately");
            std::process::exit(2);
        }
        if !filters.is_empty() {
            eprintln!("warning: --perf always probes the representative kernels; --only ignored");
        }
        if !scale_explicit {
            scale = Scale::quick();
        }
        let t0 = std::time::Instant::now();
        eprintln!(
            "perf probe at scale {:.5} (seed {seed}, {} kernels)...",
            scale.0,
            swan_core::perf::REPRESENTATIVES.len()
        );
        let rep = swan_core::probe(&kernels, scale, seed, store.as_ref());
        print_store_stats();
        print!("{}", rep.render());
        eprintln!("perf probe done in {:.1}s", t0.elapsed().as_secs_f32());
        emit_profile("perf probe");
        return;
    }

    if replay_smoke {
        // Record one kernel's dynamic stream while digesting it live,
        // replay the recording, and require bit-identical digests —
        // the fast stand-in for the full replay ≡ execute proof the
        // golden suite provides.
        if golden_write.is_some() || golden_check.is_some() || list_scenarios || !wants.is_empty() {
            eprintln!(
                "error: --replay-smoke is a standalone check; run --golden / \
                 --write-golden / --list-scenarios / table-figure reports as \
                 separate invocations"
            );
            std::process::exit(2);
        }
        if !filters.is_empty() {
            eprintln!("warning: --replay-smoke always records ZL.adler32; --only filters ignored");
        }
        if store.is_some() {
            eprintln!(
                "warning: --replay-smoke exercises the in-memory codec; --trace-store ignored"
            );
        }
        if !scale_explicit {
            scale = Scale::quick();
        }
        let id = "ZL.adler32";
        let kernel = kernels
            .iter()
            .find(|k| k.meta().id() == id)
            .expect("replay-smoke kernel");
        let mut inst = kernel.instantiate(scale, seed);
        let (data, tee, ()) = swan_simd::stream_into_at(
            swan_simd::Width::W128,
            swan_simd::TeeRecord::new(swan_simd::HashSink::new()),
            || inst.run(swan_core::Impl::Neon, swan_simd::trace::session_width()),
        );
        let (enc, live) = tee.finish();
        let mut replayed = swan_simd::HashSink::new();
        enc.replay_into(&mut replayed);
        eprintln!(
            "replay smoke {id} (scale {:.5}, seed {seed}): {} instrs, \
             live digest {:016x}, replay digest {:016x}, {} encoded bytes \
             ({} materialized)",
            scale.0,
            data.total(),
            live.digest(),
            replayed.digest(),
            enc.encoded_bytes(),
            enc.naive_bytes(),
        );
        if live.digest() != replayed.digest() || live.count() != replayed.count() {
            eprintln!("replay smoke FAILED: recorded replay diverges from the live stream");
            std::process::exit(1);
        }
        eprintln!("replay smoke OK: replay is bit-identical to the live execution");
        emit_profile("replay smoke");
        return;
    }

    if list_scenarios {
        if golden_write.is_some() || golden_check.is_some() {
            eprintln!(
                "warning: --list-scenarios only prints the plan; --write-golden/--golden ignored"
            );
        }
        // Plan only — no measurement. Composes with --only.
        let full = swan_core::plan(&kernels, scale, seed);
        let selected = swan_core::filter_plan(&full, &filters);
        for sc in &selected {
            println!("{}", sc.id());
        }
        eprintln!(
            "{} scenarios ({} planned, {} kernels, scale {:.5}, seed {seed})",
            selected.len(),
            full.len(),
            kernels.len(),
            scale.0
        );
        return;
    }

    if golden_write.is_some() || golden_check.is_some() {
        if !wants.is_empty() {
            eprintln!(
                "warning: golden mode ignores table/figure tokens: {}",
                wants.join(" ")
            );
        }
        if !filters.is_empty() {
            eprintln!(
                "warning: golden baselines always cover the full scenario matrix; \
                 --only filters ignored"
            );
        }
        // The committed baseline is generated at the quick scale.
        if !scale_explicit {
            scale = Scale::quick();
        }
        // Read the baseline up front so a bad path fails in
        // milliseconds, not after the whole campaign has run.
        let check = golden_check.map(|path| {
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read golden baseline {path}: {e}"));
            (path, expected)
        });
        let t0 = std::time::Instant::now();
        eprintln!(
            "collecting golden campaign at scale {:.5} (seed {seed}, {threads} thread{})...",
            scale.0,
            if threads == 1 { "" } else { "s" }
        );
        let plan = swan_core::plan(&kernels, scale, seed);
        let collected = golden::collect(&kernels, &plan, threads, store.as_ref(), |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f32());
        });
        print_store_stats();
        let entries = collected.unwrap_or_else(|failures| {
            exit_on_failures(&failures);
            unreachable!("collection failed without failures")
        });
        let actual = golden::to_json(scale, seed, &entries);
        if let Some(path) = golden_write {
            std::fs::write(&path, &actual).expect("write golden baseline");
            eprintln!(
                "wrote {} entries to {path} in {:.1}s",
                entries.len(),
                t0.elapsed().as_secs_f32()
            );
        }
        if let Some((path, expected)) = check {
            match golden::diff(&expected, &actual, 40) {
                None => eprintln!(
                    "golden check OK: {} entries match {path} ({:.1}s)",
                    entries.len(),
                    t0.elapsed().as_secs_f32()
                ),
                Some(d) => {
                    eprintln!("golden check FAILED against {path}:");
                    eprint!("{d}");
                    eprintln!(
                        "(regenerate with `swan-report --write-golden {path}` \
                         if the change is intended)"
                    );
                    std::process::exit(1);
                }
            }
        }
        emit_profile("golden campaign");
        return;
    }

    if !filters.is_empty() {
        // Scenario-subset mode: the same plan/execute path as the full
        // campaign, restricted by the --only filters, reported
        // per-scenario (a subset has no complete per-kernel matrix to
        // aggregate).
        if !wants.is_empty() {
            eprintln!(
                "warning: --only selects scenarios; table/figure tokens ignored: {}",
                wants.join(" ")
            );
        }
        let full = swan_core::plan(&kernels, scale, seed);
        let selected = swan_core::filter_plan(&full, &filters);
        if selected.is_empty() {
            eprintln!("--only filters match no scenarios (try --list-scenarios)");
            std::process::exit(2);
        }
        let t0 = std::time::Instant::now();
        eprintln!(
            "running {} of {} scenarios at scale {:.5} (seed {seed}, {threads} thread{})...",
            selected.len(),
            full.len(),
            scale.0,
            if threads == 1 { "" } else { "s" }
        );
        let journal = open_journal();
        let campaign = Campaign {
            threads,
            store: store.as_ref(),
            journal: journal.as_ref(),
            shard: None,
        };
        let run = campaign.execute(&kernels, &selected, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f32())
        });
        if let Some(journal) = &journal {
            print_checkpoint_stats(journal, &run);
        }
        exit_on_failures(&run.failures);
        print_store_stats();
        print_scenarios(&selected, &run.complete());
        eprintln!("done in {:.1}s", t0.elapsed().as_secs_f32());
        emit_profile("scenario subset");
        return;
    }

    if wants.is_empty() {
        wants.push("all".to_string());
    }
    let all = wants.iter().any(|w| w == "all");
    let want = |w: &str| all || wants.iter().any(|x| x == w);

    if want("tab2") {
        println!("{}", report::tab2(&kernels));
    }
    if want("tab3") {
        println!("{}", report::tab3());
    }
    if want("patterns") {
        println!("{}", report::patterns(&kernels));
    }

    let needs_suite = [
        "fig1", "fig2", "fig3", "tab4", "tab5", "fig4", "fig5a", "fig5b", "tab6", "tab7", "detail",
    ]
    .iter()
    .any(|w| want(w));
    let suite: Option<SuiteResults> = if needs_suite {
        eprintln!(
            "running suite at scale {:.3} (seed {seed}, {threads} thread{})...",
            scale.0,
            if threads == 1 { "" } else { "s" }
        );
        let t0 = std::time::Instant::now();
        // With --checkpoint, resume whatever the journal already holds
        // (from a killed run or `--worker` shards) and simulate only
        // the remaining groups.
        let journal = open_journal();
        let campaign = Campaign {
            threads,
            store: store.as_ref(),
            journal: journal.as_ref(),
            shard: None,
        };
        let full = swan_core::plan(&kernels, scale, seed);
        let run = campaign.execute(&kernels, &full, |msg| {
            eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f32())
        });
        if let Some(journal) = &journal {
            print_checkpoint_stats(journal, &run);
        }
        exit_on_failures(&run.failures);
        let s = swan_core::aggregate(&kernels, &full, &run.measurements, scale);
        eprintln!("suite done in {:.1}s", t0.elapsed().as_secs_f32());
        print_store_stats();
        Some(s)
    } else {
        None
    };

    if let Some(suite) = &suite {
        if want("fig1") {
            println!("{}", report::fig1(suite));
        }
        if want("fig2") {
            println!("{}", report::fig2(suite));
        }
        if want("fig3") {
            println!("{}", report::fig3(suite));
        }
        if want("tab4") {
            println!("{}", report::tab4(suite));
        }
        if want("tab5") {
            println!("{}", report::tab5(suite));
        }
        if want("fig4") {
            println!("{}", report::fig4(suite));
        }
        if want("fig5a") {
            println!("{}", report::fig5a(suite));
        }
        if want("fig5b") {
            println!("{}", report::fig5b(suite));
        }
        if want("tab6") {
            println!("{}", report::tab6(suite));
        }
        if want("tab7") {
            println!("{}", report::tab7(suite));
        }
        if want("detail") {
            println!("{}", report::kernel_detail(suite));
        }
    }

    if want("fig6") {
        let layers: Vec<(usize, usize, usize)> =
            conv_layers().iter().map(|s| (s.m, s.k, s.n)).collect();
        let t0 = std::time::Instant::now();
        // Runs after every suite table is printed: the sweep's points
        // share the --threads workers, never the suite's time to its
        // first table.
        let fig6 = report::fig6_threads(
            threads,
            &layers,
            13,
            |m, k, n| Box::new(GemmF32::with_shape(Shape { m, k, n })),
            |m, k, n| Box::new(SpmmF32::with_shape(Shape { m, k, n })),
            |msg| eprintln!("  [{:6.1}s] {msg}", t0.elapsed().as_secs_f32()),
        );
        match fig6 {
            Ok((_, _, rep)) => println!("{rep}"),
            Err(failures) => exit_on_failures(&failures),
        }
    }

    emit_profile("report suite");
}

/// Name every failed campaign group on stderr and exit 1 (a runtime
/// failure, not an argument error), unless there are none.
fn exit_on_failures(failures: &[KernelFailure]) {
    if failures.is_empty() {
        return;
    }
    for f in failures {
        eprintln!("campaign kernel failed: {}: {}", f.id, f.message);
    }
    std::process::exit(1);
}

/// Print one measured row per scenario (the `--only` output form).
/// Rendered by `report::scenario_row` — the same formatter `swan-serve`
/// streams — so served query output diffs clean against batch output.
fn print_scenarios(plan: &[Scenario], measurements: &[swan_core::Measurement]) {
    print!("{}", report::scenario_row_header());
    for (sc, m) in plan.iter().zip(measurements) {
        println!("{}", report::scenario_row(sc, m));
    }
}

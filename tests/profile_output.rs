//! Pins of the self-profiling attribution layer (`swan_core::profile`):
//!
//! 1. **Bit-identity**: a campaign measured with profiling enabled is
//!    byte-identical to one with it disabled — timers observe, they
//!    never steer. Its exact work counters show each fresh group
//!    decoded once: warm instrs equal recorded instrs, decoded instrs
//!    equal timed instrs.
//! 2. **`BENCH_profile.json` is sane**: the file `swan-report
//!    --profile` writes parses back, and on a single-threaded campaign
//!    the summed exclusive phase time never exceeds the wall clock.
//! 3. **Folded stacks are well-formed**: every line is
//!    `frame(;frame)* <ns>` with clean frame names, rooted at `swan`.
//! 4. **Serve latency fields**: the daemon's `stats` line carries
//!    per-tier cumulative wait counters (`cache_ns`/`shared_ns`/
//!    `fresh_ns`).

use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

use swan_core::profile::{self, Phase, ProfileReport};
use swan_core::report::{scenario_row, scenario_row_header};
use swan_core::{filter_plan, plan, Campaign, Scale, ScenarioFilter, TraceStore};

/// The profiling switch is process-global; tests that flip it
/// serialize here so the default-parallel test harness cannot
/// interleave an enabled and a disabled campaign.
fn profiling_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Render a small campaign subset exactly like `swan-report --only`.
fn subset_rows() -> String {
    let kernels = swan::suite();
    let full = plan(&kernels, Scale::test(), 42);
    let filter = ScenarioFilter::parse("lib=ZL").expect("valid filter");
    let selected = filter_plan(&full, std::slice::from_ref(&filter));
    assert!(!selected.is_empty());
    let measurements = Campaign::default()
        .execute(&kernels, &selected, |_| {})
        .complete();
    let mut out = scenario_row_header();
    for (sc, m) in selected.iter().zip(&measurements) {
        out.push_str(&scenario_row(sc, m));
        out.push('\n');
    }
    out
}

#[test]
fn profiling_on_and_off_are_byte_identical() {
    let _guard = profiling_lock();
    profile::set_enabled(false);
    let off = subset_rows();
    profile::reset();
    profile::set_enabled(true);
    let on = subset_rows();
    profile::set_enabled(false);
    assert_eq!(off, on, "profiling perturbed measured rows");

    // And the enabled run actually attributed the pipeline phases.
    let rep = profile::snapshot(u64::MAX);
    let record = rep.phase(Phase::Record).expect("record sampled");
    let timed = rep.phase(Phase::Timed).expect("timed sampled");
    let decode = rep.phase(Phase::Decode).expect("decode sampled");
    assert!(record.calls > 0 && record.instrs > 0, "{record:?}");
    assert!(timed.calls > 0 && timed.instrs > 0, "{timed:?}");
    assert!(decode.calls > 0 && decode.instrs > 0, "{decode:?}");
    assert_eq!(
        record.instrs, timed.instrs,
        "timed pass replays exactly what was recorded"
    );
    // Exact work counters of record-once / replay-once: the cores warm
    // on the live stream while it records, so the recording is decoded
    // once, for the timed pass only.
    let warm = rep.phase(Phase::Warm).expect("warm sampled");
    assert_eq!(
        warm.instrs, record.instrs,
        "the warm pass sees every recorded instruction"
    );
    assert_eq!(
        decode.instrs, timed.instrs,
        "a fresh group decodes its recording once, for the timed pass"
    );
    profile::reset();
}

/// One real `swan-report --profile` invocation shared by the
/// JSON/folded/stderr pins below.
fn profiled_run(dir: &std::path::Path) -> (ProfileReport, String, String) {
    let json = dir.join("BENCH_profile.json");
    let folded = dir.join("profile.folded");
    let out = Command::new(env!("CARGO_BIN_EXE_swan-report"))
        .args([
            "--quick",
            "--threads",
            "1",
            "--only",
            "kernel=adler32,impl=neon",
            "--profile",
            "--profile-json",
            json.to_str().unwrap(),
            "--profile-folded",
            folded.to_str().unwrap(),
        ])
        .output()
        .expect("run swan-report --profile");
    assert!(
        out.status.success(),
        "swan-report --profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    let json_text = std::fs::read_to_string(&json).expect("profile json written");
    let folded_text = std::fs::read_to_string(&folded).expect("folded stacks written");
    let rep = ProfileReport::parse_json(&json_text).expect("BENCH_profile.json parses");
    (rep, folded_text, stderr)
}

#[test]
fn profile_outputs_parse_sum_below_wall_and_fold_cleanly() {
    let dir = std::env::temp_dir().join(format!("swan-profile-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (rep, folded, stderr) = profiled_run(&dir);

    // JSON: every phase present, and on this single-threaded,
    // store-less campaign the attributed (exclusive) time is bounded
    // by the process wall clock.
    assert_eq!(rep.phases.len(), profile::PHASE_COUNT);
    assert!(rep.wall_ns > 0);
    assert!(
        rep.attributed_ns() <= rep.wall_ns,
        "exclusive phase times exceed wall: {} > {}",
        rep.attributed_ns(),
        rep.wall_ns
    );
    let timed = rep.phase(Phase::Timed).expect("timed phase");
    assert!(timed.self_ns > 0 && timed.instrs > 0, "{timed:?}");

    // Folded stacks: well-formed `frames ns` lines, rooted at swan,
    // and width (with the unattributed filler) equal to the wall.
    let mut width = 0u64;
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("`frames ns` shape");
        assert!(stack.starts_with("swan"), "unrooted stack: {line}");
        for frame in stack.split(';') {
            assert!(
                !frame.is_empty()
                    && frame
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad frame `{frame}` in: {line}"
            );
        }
        width += ns.parse::<u64>().expect("numeric sample count");
    }
    assert_eq!(width, rep.wall_ns, "folded width equals wall clock");
    assert!(folded.contains("swan;campaign;timed "), "{folded}");

    // Human outputs land on stderr (stdout rows must stay
    // byte-comparable to an unprofiled run).
    assert!(stderr.contains("profile: wall_ms="), "{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("timed")), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_warming_folds_under_record_and_store_hits_warm_by_replay() {
    let dir = std::env::temp_dir().join(format!("swan-profile-nest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (rep, folded, stderr) = profiled_run(&dir);
    // No store: every group warms on its live stream, inside its
    // recording span.
    assert!(folded.contains("swan;campaign;record;warm "), "{folded}");
    assert!(
        !folded.lines().any(|l| l.starts_with("swan;campaign;warm ")),
        "live warming folded as a sibling of record:\n{folded}"
    );
    let replay = rep.phase(Phase::ReplayWarm).expect("replay_warm sampled");
    assert_eq!(replay.calls, 0, "no store hit, no replay warm: {replay:?}");
    // The table indents live warming under record.
    assert!(stderr.lines().any(|l| l.starts_with("  warm ")), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);

    // A warm store: every group replays to warm, outside any record.
    let _guard = profiling_lock();
    let kernels = swan::suite();
    let filter = ScenarioFilter::parse("lib=ZL,impl=neon").expect("valid filter");
    let selected = filter_plan(
        &plan(&kernels, Scale::test(), 42),
        std::slice::from_ref(&filter),
    );
    let store_dir = std::env::temp_dir().join(format!("swan-profile-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = TraceStore::open(&store_dir, &kernels).expect("open store");
    let campaign = Campaign {
        store: Some(&store),
        ..Campaign::default()
    };
    let cold = campaign.execute(&kernels, &selected, |_| {}).complete();
    profile::reset();
    profile::set_enabled(true);
    let warm = campaign.execute(&kernels, &selected, |_| {}).complete();
    profile::set_enabled(false);
    assert_eq!(cold, warm);
    let rep = profile::snapshot(u64::MAX);
    let record = rep.phase(Phase::Record).expect("record sampled");
    let live = rep.phase(Phase::Warm).expect("warm sampled");
    let replay = rep.phase(Phase::ReplayWarm).expect("replay_warm sampled");
    let timed = rep.phase(Phase::Timed).expect("timed sampled");
    assert_eq!((record.calls, live.calls), (0, 0), "all store hits");
    assert!(replay.calls > 0, "{replay:?}");
    assert_eq!(replay.instrs, timed.instrs, "each hit warms by one replay");
    profile::reset();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn serve_stats_line_reports_per_tier_latency() {
    let kernels = swan::suite();
    let config = swan_serve::ServerConfig {
        scale: Scale::test(),
        workers: 2,
        ..swan_serve::ServerConfig::default()
    };
    let server = swan_serve::Server::new(kernels, None, config);
    let filter = ScenarioFilter::parse("kernel=adler32,impl=neon").expect("valid filter");
    // First query executes fresh; the repeat answers from the cache.
    for _ in 0..2 {
        server
            .query(std::slice::from_ref(&filter))
            .expect("query succeeds");
    }
    let stats = server.stats_line();
    let field = |key: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key}= in: {stats}"))
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}= in: {stats}"))
    };
    assert!(
        field("fresh_ns") > 0,
        "fresh execution waited a measurable time: {stats}"
    );
    // Cache answers resolve without waiting on a cell; the counter
    // exists and stays small but non-negative (parse is the pin).
    let _ = field("cache_ns");
    let _ = field("shared_ns");
    assert!(field("fresh") >= 1, "first query executed fresh: {stats}");
    assert_eq!(
        field("cache_hits"),
        field("fresh"),
        "repeat query answered every group from the cache: {stats}"
    );
}

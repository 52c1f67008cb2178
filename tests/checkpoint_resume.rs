//! Kill-resume fault injection: a campaign killed with SIGKILL at a
//! randomized point must resume to *byte-identical* report output,
//! without one functional re-execution of any completed group.
//!
//! The subprocess tests drive the real `swan-report` binary (the same
//! code path CI and users run) against a shared checkpoint directory,
//! killing it the instant the journal reaches a randomized entry
//! count — so the kill lands inside the campaign, between, and (by
//! scheduling jitter) *during* entry commits. The in-process tests pin
//! the zero-re-execution guarantee with a counting kernel, which a
//! subprocess boundary cannot observe.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use swan::prelude::*;
use swan_core::{CampaignJournal, Runnable};

const SEED: u64 = 7;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swan-report")
}

/// `Scale::test()` rendered the way a shell user would pass it:
/// `{}` prints the shortest string that round-trips to the same bits,
/// so the subprocess campaign runs at *exactly* the in-process scale.
fn scale_arg() -> String {
    format!("{}", Scale::test().0)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swan-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journal_entries(dir: &Path) -> usize {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("swcp"))
        .count()
}

/// The fault-injection subset: three libraries, ~48 scenario groups,
/// a couple of seconds of simulation — wide enough that SIGKILL
/// reliably lands mid-campaign (one group is ~35ms).
const KILL_SUBSET: [&str; 6] = ["--only", "lib=ZL", "--only", "lib=LJ", "--only", "lib=SK"];

/// Run the campaign subprocess to completion and return its output.
fn run_campaign(extra: &[&str]) -> std::process::Output {
    let out = Command::new(bin())
        .args(["--scale", &scale_arg(), "--seed", "7"])
        .args(KILL_SUBSET)
        .args(["--threads", "2"])
        .args(extra)
        .output()
        .expect("spawn swan-report");
    assert!(
        out.status.success(),
        "swan-report {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A tiny deterministic LCG (no external RNG in the container), seeded
/// from the wall clock so successive CI runs kill at different points;
/// the seed is printed so any failure replays exactly.
struct Lcg(u64);

impl Lcg {
    fn from_clock() -> Lcg {
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
            | 1;
        eprintln!("kill-point LCG seed: {seed:#x}");
        Lcg(seed)
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// SIGKILL a checkpointed campaign at randomized journal fill levels —
/// repeatedly, so later rounds also exercise resume-then-die — and
/// require the final resumed run's stdout to be byte-identical to an
/// uninterrupted run's.
#[test]
fn sigkilled_campaign_resumes_to_byte_identical_output() {
    let reference = run_campaign(&[]);
    assert!(!reference.stdout.is_empty(), "reference must print rows");

    let dir = test_dir("sigkill");
    let dir_s = dir.to_str().expect("utf8 temp dir").to_string();
    let mut lcg = Lcg::from_clock();
    let mut killed = 0u32;
    for _round in 0..4 {
        // Kill when the journal has grown by a random 1..=12 entries
        // (the subset has ~48 groups; thresholds beyond the remaining
        // count just let the child finish, which the loop tolerates).
        let threshold = journal_entries(&dir) + 1 + lcg.next(12) as usize;
        let mut child = Command::new(bin())
            .args(["--scale", &scale_arg(), "--seed", "7"])
            .args(KILL_SUBSET)
            .args(["--threads", "2"])
            .args(["--checkpoint", &dir_s])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn checkpointed campaign");
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut completed = false;
        loop {
            if journal_entries(&dir) >= threshold {
                // SIGKILL: no destructors, no flushes — the crash the
                // journal's atomic-rename protocol must survive.
                let _ = child.kill();
                killed += 1;
                break;
            }
            if child.try_wait().expect("try_wait").is_some() {
                completed = true;
                break;
            }
            assert!(Instant::now() < deadline, "campaign subprocess hung");
            std::thread::sleep(Duration::from_micros(300));
        }
        let _ = child.wait();
        if completed {
            break;
        }
    }
    assert!(killed > 0, "fault injection must land at least one SIGKILL");
    assert!(journal_entries(&dir) > 0, "killed runs must leave progress");

    let resumed = run_campaign(&["--checkpoint", &dir_s, "--resume"]);
    assert_eq!(
        reference.stdout, resumed.stdout,
        "resumed campaign output must be byte-identical to uninterrupted"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("checkpoint: dir="),
        "resume must report journal stats:\n{stderr}"
    );

    // A second resume against the now-complete journal re-simulates
    // nothing (resumed == groups, executed == 0) and still matches.
    let again = run_campaign(&["--checkpoint", &dir_s, "--resume"]);
    assert_eq!(reference.stdout, again.stdout);
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(
        stderr.contains("executed=0")
            && stderr.contains("shared=0")
            && stderr.contains("skipped=0"),
        "complete journal must fully satisfy the plan:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Member scenarios whose core differs from Prime only in clock and
/// energy (Gold, and the Figure 5(b) `4W-2V` baseline) in a group that
/// also measures Prime: the members the executor measures from Prime's
/// core model instead of their own.
fn prime_timed_members(plan: &[Scenario]) -> usize {
    swan_core::execution_groups(plan)
        .iter()
        .filter(|g| g.iter().any(|&i| plan[i].core == CoreId::Prime))
        .flatten()
        .filter(|&&i| matches!(plan[i].core, CoreId::Gold | CoreId::Sweep4W2V))
        .count()
}

/// A kernel wrapper counting functional executions across instances
/// (same shape as the streaming_equivalence counting harness).
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

/// The zero-re-execution guarantee, counted directly: resuming over a
/// partially filled journal performs exactly one functional execution
/// per *remaining* group — completed groups cost zero — and the
/// resumed measurements equal a fresh serial campaign's exactly
/// (full-struct equality: histograms, timing, energy, floats bitwise).
#[test]
fn resume_reexecutes_nothing_and_matches_serial_bitwise() {
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
    let total_groups: usize = plan
        .iter()
        .map(|sc| sc.stream_id())
        .collect::<std::collections::HashSet<_>>()
        .len();

    let dir = test_dir("counting");
    let journal = CampaignJournal::open(&dir, &kernels, Scale::test(), SEED).expect("open journal");

    // Phase 1: one worker's disjoint half fills part of the journal.
    let campaign = Campaign {
        threads: 2,
        journal: Some(&journal),
        ..Campaign::default()
    };
    let half = Campaign {
        shard: Some((0, 2)),
        ..campaign
    }
    .execute(&kernels, &plan, |_| {});
    assert!(half.failures.is_empty());
    assert!(half.executed_groups > 0 && half.skipped_groups > 0);
    assert_eq!(half.executed_groups + half.skipped_groups, total_groups);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        half.executed_groups - half.twinned_groups,
        "one functional execution per executed group not measured from \
         its twin"
    );

    // Phase 2: full resume — only the other shard's groups execute, and
    // an Auto group among them whose twin was journaled in phase 1
    // copies the resumed twin.
    let full = campaign.execute(&kernels, &plan, |_| {});
    assert!(full.failures.is_empty());
    assert_eq!(full.resumed_groups, half.executed_groups);
    assert_eq!(full.executed_groups, half.skipped_groups);
    assert!(full.twinned_groups > 0, "resumed twins are used");
    let distinct_runs = total_groups - half.twinned_groups - full.twinned_groups;
    assert_eq!(
        runs.load(Ordering::SeqCst),
        distinct_runs,
        "across both runs every group executes at most once: resumed \
         groups and twinned groups cost zero functional executions"
    );
    let shared = prime_timed_members(&plan);
    assert!(shared > 0 && half.shared_cores > 0 && full.shared_cores > 0);
    assert_eq!(
        half.shared_cores + full.shared_cores,
        shared,
        "every Gold and 4W-2V member is measured from Prime's model, once"
    );

    // Phase 3: the journal now satisfies the whole plan for free.
    let replay = campaign.execute(&kernels, &plan, |_| {});
    assert_eq!(replay.resumed_groups, total_groups);
    assert_eq!(replay.executed_groups, 0);
    assert_eq!(replay.twinned_groups, 0);
    assert_eq!(replay.shared_cores, 0, "resumed groups drive no core");
    assert_eq!(runs.load(Ordering::SeqCst), distinct_runs, "still zero");

    let serial = Campaign::default()
        .execute(&kernels, &plan, |_| {})
        .complete();
    for ((sc, got), want) in plan.iter().zip(&replay.measurements).zip(&serial) {
        assert_eq!(
            got.as_ref(),
            Some(want),
            "{}: journaled measurement must equal fresh serial bitwise",
            sc.id()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

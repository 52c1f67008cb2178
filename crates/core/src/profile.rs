//! Self-profiling attribution: where campaign wall time actually goes.
//!
//! The `--perf` probe answers "how fast is the hot loop"; this module
//! answers "which pipeline phase is the bottleneck" — the same question
//! the paper's Table 5 asks of the simulated workloads, turned on the
//! simulator itself. Every phase of the record-once/replay-once
//! pipeline (functional recording, trace-store I/O, chunk decode, warm
//! and timed batch stepping, checkpoint journal writes, serve answer
//! tiers) charges its wall time to a fixed [`Phase`] slot through a
//! [`ProfileScope`] RAII timer, with per-phase call, instruction, and
//! byte counters alongside.
//!
//! Design constraints, in order:
//!
//! - **Off means free.** Profiling is a process-global runtime switch
//!   ([`set_enabled`]); a disabled [`ProfileScope::enter`] is one
//!   relaxed atomic load and no clock read. Scopes sit at batch
//!   granularity (thousands of instructions), never per instruction,
//!   so the disabled cost is far below 1% of the `--perf` headline
//!   (see `docs/PERFORMANCE.md`).
//! - **Zero allocation in steady state.** The phase tree is static:
//!   thirteen slots of relaxed atomics, no maps, no strings, no heap
//!   traffic while measuring. Allocation happens only when a
//!   [`snapshot`] is rendered.
//! - **Bit-identity is untouched.** Timers observe the pipeline, they
//!   never steer it: golden campaigns with profiling on and off are
//!   byte-identical (`tests/profile_output.rs`).
//!
//! Time is *exclusive* (self time): a scope subtracts the time of
//! scopes nested inside it on the same thread, and externally measured
//! sub-phase time (the codec's spill writes inside a recording, see
//! [`exclude_enclosed`]) is subtracted the same way. Summed self time
//! across phases therefore never exceeds wall time on a
//! single-threaded campaign — the invariant `tests/profile_output.rs`
//! pins.
//!
//! Three output forms, all derived from one [`snapshot`]:
//!
//! - [`ProfileReport::render_table`] — the human table behind
//!   `swan-report --profile` (stderr, so stdout rows stay
//!   byte-comparable);
//! - [`ProfileReport::to_json`] — `BENCH_profile.json`, the same
//!   line-oriented JSON family as `BENCH_baseline.json`, so the CI
//!   gate can grow per-phase thresholds;
//! - [`ProfileReport::to_folded`] — folded stacks
//!   (`swan;campaign;timed 1234` per line), directly consumable by
//!   standard flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
//!
//! # Example
//!
//! ```
//! use swan_core::profile::{self, Phase, ProfileScope};
//!
//! profile::reset();
//! profile::set_enabled(true);
//! {
//!     let _scope = ProfileScope::enter(Phase::Timed);
//!     profile::add_counts(Phase::Timed, 8192, 0);
//! }
//! profile::set_enabled(false);
//! let report = profile::snapshot(1_000_000_000);
//! let timed = report.phase(Phase::Timed).unwrap();
//! assert_eq!(timed.instrs, 8192);
//! assert!(report.to_folded().contains("swan;campaign;timed "));
//! ```

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One phase of the pipeline that charges time to its own slot. The
/// set is static (no dynamic registration): a fixed tree keeps the
/// steady state allocation-free and the folded-stack paths stable
/// across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Functional kernel execution under the recording codec
    /// (`runner::record_group`), excluding spill I/O and live warming.
    Record = 0,
    /// Chunk writes of a spilling recording ([`swan_simd::SpillSink`])
    /// — measured inside the codec, charged under [`Phase::Record`].
    Spill = 1,
    /// Cache-warming batch stepping of the core models on the live
    /// stream while a fresh or store-miss group records, nested inside
    /// [`Phase::Record`].
    Warm = 2,
    /// Trace-store lookup: open, verify, and index a stored recording.
    StoreLookup = 3,
    /// Trace-store commit: seal and publish a freshly spilled entry.
    StoreCommit = 4,
    /// Decoding recorded streams into instruction batches (in-memory
    /// arena refills and the store path's read + digest-verify +
    /// expand segments) — measured inside the codec.
    Decode = 5,
    /// Cache-warming batch stepping of the core models by a replay of
    /// a recording that has no live stream: a trace-store hit, or the
    /// two-pass `runner::measure_recorded`.
    ReplayWarm = 6,
    /// Timed batch replay into the core models (the measured pass).
    Timed = 7,
    /// Checkpoint journal entry writes (serialize + fsync + rename).
    CheckpointWrite = 8,
    /// Checkpoint journal entry loads (read + verify + decode).
    CheckpointLoad = 9,
    /// `swan-serve`: answering a group from the warm result cache.
    ServeCache = 10,
    /// `swan-serve`: waiting on another request's in-flight execution.
    ServeShared = 11,
    /// `swan-serve`: executing a group on this request's behalf.
    ServeFresh = 12,
}

/// Number of phases (size of the static slot table).
pub const PHASE_COUNT: usize = 13;

impl Phase {
    /// Every phase, in slot order (the order of tables and JSON): each
    /// child right after its parent, so the table reads as the tree.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Record,
        Phase::Spill,
        Phase::Warm,
        Phase::StoreLookup,
        Phase::StoreCommit,
        Phase::Decode,
        Phase::ReplayWarm,
        Phase::Timed,
        Phase::CheckpointWrite,
        Phase::CheckpointLoad,
        Phase::ServeCache,
        Phase::ServeShared,
        Phase::ServeFresh,
    ];

    /// Stable lowercase identifier (JSON `"id"` field, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Record => "record",
            Phase::Spill => "spill",
            Phase::StoreLookup => "store_lookup",
            Phase::StoreCommit => "store_commit",
            Phase::Decode => "decode",
            Phase::Warm => "warm",
            Phase::ReplayWarm => "replay_warm",
            Phase::Timed => "timed",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::CheckpointLoad => "checkpoint_load",
            Phase::ServeCache => "serve_cache",
            Phase::ServeShared => "serve_shared",
            Phase::ServeFresh => "serve_fresh",
        }
    }

    /// Parent in the static phase tree (table indentation and folded
    /// stack nesting).
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Spill | Phase::Warm => Some(Phase::Record),
            _ => None,
        }
    }

    /// Semicolon-separated folded-stack frame path, rooted at the
    /// subsystem (`swan;campaign;…` / `swan;serve;…`) — the format
    /// `flamegraph.pl` and compatible tools consume directly.
    pub fn path(self) -> &'static str {
        match self {
            Phase::Record => "swan;campaign;record",
            Phase::Spill => "swan;campaign;record;spill",
            Phase::StoreLookup => "swan;campaign;store_lookup",
            Phase::StoreCommit => "swan;campaign;store_commit",
            Phase::Decode => "swan;campaign;decode",
            Phase::Warm => "swan;campaign;record;warm",
            Phase::ReplayWarm => "swan;campaign;replay_warm",
            Phase::Timed => "swan;campaign;timed",
            Phase::CheckpointWrite => "swan;campaign;checkpoint_write",
            Phase::CheckpointLoad => "swan;campaign;checkpoint_load",
            Phase::ServeCache => "swan;serve;cache",
            Phase::ServeShared => "swan;serve;shared",
            Phase::ServeFresh => "swan;serve;fresh",
        }
    }

    /// The phase with the given [`Phase::name`], if any (JSON parsing).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// One phase's accumulation slot: all relaxed atomics, so concurrent
/// scopes on campaign worker threads never contend on a lock.
struct Slot {
    self_ns: AtomicU64,
    total_ns: AtomicU64,
    calls: AtomicU64,
    instrs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // template for static array init only
const ZERO_SLOT: Slot = Slot {
    self_ns: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    calls: AtomicU64::new(0),
    instrs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static SLOTS: [Slot; PHASE_COUNT] = [ZERO_SLOT; PHASE_COUNT];
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Nanoseconds charged by scopes (and external exclusions) nested
    /// inside the innermost open scope of this thread — what makes
    /// recorded self time exclusive.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Turn the profiling layer on or off, process-wide. Also switches the
/// codec's decode/spill segment timers (`swan_simd::trace::codec`),
/// which live below this crate in the dependency order and therefore
/// carry their own gate.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
    swan_simd::trace::codec::set_profiling(on);
}

/// Whether the profiling layer is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Zero every phase slot, the codec's segment counters, and this
/// thread's nesting state. Tests and long-lived daemons use this to
/// scope a measurement window.
pub fn reset() {
    for slot in &SLOTS {
        slot.self_ns.store(0, Relaxed);
        slot.total_ns.store(0, Relaxed);
        slot.calls.store(0, Relaxed);
        slot.instrs.store(0, Relaxed);
        slot.bytes.store(0, Relaxed);
    }
    swan_simd::trace::codec::reset_codec_profile();
    CHILD_NS.with(|c| c.set(0));
}

/// RAII span timer: charges the enclosed wall time to `phase` when
/// dropped, minus any time nested scopes (same thread) already
/// charged. Disabled profiling makes both ends a single relaxed load.
#[derive(Debug)]
pub struct ProfileScope {
    phase: Phase,
    start: Option<Instant>,
    outer_child_ns: u64,
}

impl ProfileScope {
    /// Open a span for `phase`. Cheap no-op while profiling is off.
    #[inline]
    pub fn enter(phase: Phase) -> ProfileScope {
        if !ENABLED.load(Relaxed) {
            return ProfileScope {
                phase,
                start: None,
                outer_child_ns: 0,
            };
        }
        ProfileScope {
            phase,
            outer_child_ns: CHILD_NS.with(|c| c.replace(0)),
            start: Some(Instant::now()),
        }
    }
}

impl Drop for ProfileScope {
    #[inline]
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total = start.elapsed().as_nanos() as u64;
        let child = CHILD_NS.with(|c| c.get());
        let slot = &SLOTS[self.phase as usize];
        slot.self_ns.fetch_add(total.saturating_sub(child), Relaxed);
        slot.total_ns.fetch_add(total, Relaxed);
        slot.calls.fetch_add(1, Relaxed);
        // The enclosing scope (if any) sees this span as child time.
        CHILD_NS.with(|c| c.set(self.outer_child_ns.saturating_add(total)));
    }
}

/// Attach instruction/byte counts to a phase (no timing). No-op while
/// profiling is off.
#[inline]
pub fn add_counts(phase: Phase, instrs: u64, bytes: u64) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    let slot = &SLOTS[phase as usize];
    if instrs > 0 {
        slot.instrs.fetch_add(instrs, Relaxed);
    }
    if bytes > 0 {
        slot.bytes.fetch_add(bytes, Relaxed);
    }
}

/// Subtract externally measured sub-phase time from the innermost open
/// scope on this thread, as if a nested [`ProfileScope`] had charged
/// it. The codec times its spill writes itself (it sits below this
/// crate); the recording scope calls this with the spill delta so
/// record self time stays exclusive.
pub fn exclude_enclosed(ns: u64) {
    if ns == 0 || !ENABLED.load(Relaxed) {
        return;
    }
    CHILD_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Nanoseconds the codec has charged to spill writes so far (0 while
/// profiling is off). Deltas of this around a recording bound the
/// [`exclude_enclosed`] correction.
pub fn codec_spill_ns() -> u64 {
    if !ENABLED.load(Relaxed) {
        return 0;
    }
    swan_simd::trace::codec::codec_profile().spill_ns
}

/// One phase's accumulated numbers in a [`ProfileReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    /// Which phase this row describes.
    pub phase: Phase,
    /// Exclusive wall nanoseconds (nested span time subtracted).
    pub self_ns: u64,
    /// Inclusive wall nanoseconds.
    pub total_ns: u64,
    /// Spans (or codec segments) that charged this phase.
    pub calls: u64,
    /// Instructions processed in this phase.
    pub instrs: u64,
    /// Bytes moved in this phase.
    pub bytes: u64,
}

/// A point-in-time copy of every phase slot plus the measurement's
/// wall clock, with renderers for the three output forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileReport {
    /// Wall nanoseconds of the measured window (campaign start to
    /// snapshot), the denominator of the `% wall` column.
    pub wall_ns: u64,
    /// One sample per [`Phase`], in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSample>,
}

/// Copy every slot into a [`ProfileReport`], folding in the codec's
/// self-measured decode/spill segments. `wall_ns` is the caller's
/// measurement window (the campaign's elapsed wall time).
pub fn snapshot(wall_ns: u64) -> ProfileReport {
    let codec = swan_simd::trace::codec::codec_profile();
    let phases = Phase::ALL
        .iter()
        .map(|&phase| {
            let slot = &SLOTS[phase as usize];
            let mut s = PhaseSample {
                phase,
                self_ns: slot.self_ns.load(Relaxed),
                total_ns: slot.total_ns.load(Relaxed),
                calls: slot.calls.load(Relaxed),
                instrs: slot.instrs.load(Relaxed),
                bytes: slot.bytes.load(Relaxed),
            };
            // The codec phases live below this crate and time
            // themselves; their slots here stay untouched by scopes,
            // so merging cannot double-count.
            match phase {
                Phase::Decode => {
                    s.self_ns += codec.decode_ns;
                    s.total_ns += codec.decode_ns;
                    s.calls += codec.decode_segments;
                    s.instrs += codec.decode_instrs;
                    s.bytes += codec.decode_bytes;
                }
                Phase::Spill => {
                    s.self_ns += codec.spill_ns;
                    s.total_ns += codec.spill_ns;
                    s.calls += codec.spill_chunks;
                    s.bytes += codec.spill_bytes;
                }
                _ => {}
            }
            s
        })
        .collect();
    ProfileReport { wall_ns, phases }
}

impl ProfileReport {
    /// The sample for `phase`, if present.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSample> {
        self.phases.iter().find(|s| s.phase == phase)
    }

    /// Summed exclusive time across every phase — the attributed part
    /// of the wall clock. Never exceeds `wall_ns` on a
    /// single-threaded campaign; may exceed it when worker threads
    /// profile concurrently (thread-seconds, like `time`'s `user`).
    pub fn attributed_ns(&self) -> u64 {
        self.phases.iter().map(|s| s.self_ns).sum()
    }

    /// Phases with any activity, heaviest exclusive time first.
    fn active_sorted(&self) -> Vec<&PhaseSample> {
        let mut active: Vec<&PhaseSample> = self
            .phases
            .iter()
            .filter(|s| s.self_ns > 0 || s.calls > 0 || s.instrs > 0 || s.bytes > 0)
            .collect();
        active.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(a.phase.name().cmp(b.phase.name()))
        });
        active
    }

    /// The human attribution table `swan-report --profile` prints to
    /// stderr: one row per active phase (tree order, children
    /// indented), exclusive milliseconds, share of wall, call /
    /// instruction / byte counters.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>7} {:>10} {:>14} {:>12}",
            "phase", "self(ms)", "%wall", "calls", "instrs", "bytes"
        );
        let _ = writeln!(out, "{}", "-".repeat(80));
        let mut any = false;
        for &phase in Phase::ALL.iter() {
            let s = self.phase(phase).expect("every phase sampled");
            if s.self_ns == 0 && s.calls == 0 && s.instrs == 0 && s.bytes == 0 {
                continue;
            }
            any = true;
            let indent = if phase.parent().is_some() { "  " } else { "" };
            let pct = if self.wall_ns > 0 {
                100.0 * s.self_ns as f64 / self.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<22} {:>10.2} {:>6.1}% {:>10} {:>14} {:>12}",
                format!("{indent}{}", phase.name()),
                s.self_ns as f64 / 1e6,
                pct,
                s.calls,
                s.instrs,
                s.bytes
            );
        }
        if !any {
            let _ = writeln!(out, "(no profiled activity)");
        }
        let _ = writeln!(
            out,
            "wall {:.2} ms, attributed {:.2} ms ({:.1}%)",
            self.wall_ns as f64 / 1e6,
            self.attributed_ns() as f64 / 1e6,
            if self.wall_ns > 0 {
                100.0 * self.attributed_ns() as f64 / self.wall_ns as f64
            } else {
                0.0
            }
        );
        out
    }

    /// One greppable `profile:` summary line: wall clock, attributed
    /// share, and the top three phases by exclusive time — what CI
    /// posts to the step summary.
    pub fn headline(&self) -> String {
        let active = self.active_sorted();
        let top: Vec<String> = active
            .iter()
            .take(3)
            .map(|s| {
                let pct = if self.wall_ns > 0 {
                    100.0 * s.self_ns as f64 / self.wall_ns as f64
                } else {
                    0.0
                };
                format!("{}:{:.1}%", s.phase.name(), pct)
            })
            .collect();
        format!(
            "profile: wall_ms={:.1} attributed_ms={:.1} top={}",
            self.wall_ns as f64 / 1e6,
            self.attributed_ns() as f64 / 1e6,
            if top.is_empty() {
                "none".to_string()
            } else {
                top.join(",")
            }
        )
    }

    /// Machine-readable JSON (`BENCH_profile.json`): the same
    /// line-oriented shape family as `BENCH_baseline.json` — one
    /// object per line with an `"id"` and flat integer fields — so the
    /// bench-gate's field scanner can grow per-phase thresholds.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"format\": 1,\n");
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        out.push_str("  \"phases\": [\n");
        for (i, s) in self.phases.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"self_ns\": {}, \"total_ns\": {}, \
                 \"calls\": {}, \"instrs\": {}, \"bytes\": {}}}",
                s.phase.name(),
                s.self_ns,
                s.total_ns,
                s.calls,
                s.instrs,
                s.bytes
            );
            out.push_str(if i + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse [`ProfileReport::to_json`] output back (line-oriented,
    /// like `perf::parse_bench_json`): every line with an `"id"`
    /// naming a known phase contributes one sample; unknown ids are
    /// skipped so the format can grow.
    pub fn parse_json(text: &str) -> Result<ProfileReport, String> {
        let mut wall_ns = None;
        let mut phases = Vec::new();
        for line in text.lines() {
            if wall_ns.is_none() {
                if let Some(v) = field_u64(line, "wall_ns") {
                    wall_ns = Some(v);
                }
            }
            let Some(id) = field_str(line, "id") else {
                continue;
            };
            let Some(phase) = Phase::from_name(id) else {
                continue;
            };
            let need = |key: &str| {
                field_u64(line, key).ok_or_else(|| format!("phase {id}: missing \"{key}\""))
            };
            phases.push(PhaseSample {
                phase,
                self_ns: need("self_ns")?,
                total_ns: need("total_ns")?,
                calls: need("calls")?,
                instrs: need("instrs")?,
                bytes: need("bytes")?,
            });
        }
        if phases.is_empty() {
            return Err("no phase rows parsed".into());
        }
        Ok(ProfileReport {
            wall_ns: wall_ns.ok_or("missing \"wall_ns\"")?,
            phases,
        })
    }

    /// Folded-stacks text: one `frame;frame;frame self_ns` line per
    /// active phase, the input format of `flamegraph.pl` / inferno /
    /// speedscope. Unattributed wall time (if any) appears as
    /// `swan;unattributed` so the flame graph's width equals the wall
    /// clock on single-threaded runs.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for &phase in Phase::ALL.iter() {
            let s = self.phase(phase).expect("every phase sampled");
            if s.self_ns == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {}", phase.path(), s.self_ns);
        }
        let attributed = self.attributed_ns();
        if self.wall_ns > attributed {
            let _ = writeln!(out, "swan;unattributed {}", self.wall_ns - attributed);
        }
        out
    }
}

/// `"key": <integer>` scanner over one JSON line (the same permissive
/// style as `perf::parse_bench_json` — the emitters above write one
/// object per line, which keeps parsing dependency-free).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"key": "<string>"` scanner over one JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The slots are process-global; tests that enable profiling
    /// serialize on this lock so concurrent test threads cannot bleed
    /// samples into each other.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn children_fold_under_their_parent_and_follow_it_in_slot_order() {
        for (i, &phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase as usize, i, "{phase:?} indexes its own slot");
            if let Some(parent) = phase.parent() {
                assert!(
                    phase.path().starts_with(&format!("{};", parent.path())),
                    "{phase:?} folds under {parent:?}"
                );
                let at = Phase::ALL.iter().position(|&p| p == parent).unwrap();
                assert!(
                    Phase::ALL[at + 1..=i]
                        .iter()
                        .all(|p| p.parent() == Some(parent)),
                    "{phase:?} is listed right after {parent:?}'s other children"
                );
            }
        }
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _guard = lock();
        reset();
        set_enabled(false);
        {
            let _s = ProfileScope::enter(Phase::Timed);
            add_counts(Phase::Timed, 100, 100);
        }
        let rep = snapshot(0);
        let t = rep.phase(Phase::Timed).unwrap();
        assert_eq!((t.calls, t.instrs, t.self_ns), (0, 0, 0));
    }

    #[test]
    fn nested_scopes_are_exclusive() {
        let _guard = lock();
        reset();
        set_enabled(true);
        {
            let _outer = ProfileScope::enter(Phase::Record);
            std::thread::sleep(std::time::Duration::from_millis(2));
            // Not `Spill` or `Decode`: their snapshots merge the
            // codec's process-wide counters, which sibling tests that
            // spill through a trace store bump while profiling is on.
            {
                let _inner = ProfileScope::enter(Phase::Timed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let rep = snapshot(0);
        let outer = rep.phase(Phase::Record).unwrap();
        let inner = rep.phase(Phase::Timed).unwrap();
        assert!(inner.self_ns > 0);
        // Outer total covers the inner span; outer self excludes it.
        assert!(outer.total_ns >= outer.self_ns + inner.self_ns);
        assert!(outer.self_ns < outer.total_ns);
    }

    #[test]
    fn exclude_enclosed_subtracts_external_time() {
        let _guard = lock();
        reset();
        set_enabled(true);
        {
            let _outer = ProfileScope::enter(Phase::Record);
            std::thread::sleep(std::time::Duration::from_millis(2));
            exclude_enclosed(u64::MAX / 2); // larger than the span
        }
        set_enabled(false);
        let rep = snapshot(0);
        let outer = rep.phase(Phase::Record).unwrap();
        assert_eq!(outer.self_ns, 0, "external time saturates self to 0");
        assert!(outer.total_ns > 0);
    }

    #[test]
    fn json_round_trips() {
        let _guard = lock();
        reset();
        set_enabled(true);
        {
            let _s = ProfileScope::enter(Phase::Warm);
            add_counts(Phase::Warm, 12345, 678);
        }
        set_enabled(false);
        let rep = snapshot(999_999);
        let parsed = ProfileReport::parse_json(&rep.to_json()).expect("parses");
        assert_eq!(parsed, rep);
    }

    #[test]
    fn folded_lines_are_well_formed_and_bounded_by_wall() {
        let _guard = lock();
        reset();
        set_enabled(true);
        {
            let _s = ProfileScope::enter(Phase::Timed);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let rep = snapshot(10_000_000_000);
        let folded = rep.to_folded();
        assert!(!folded.is_empty());
        let mut total = 0u64;
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame count");
            assert!(stack.starts_with("swan"), "rooted: {line}");
            assert!(
                stack
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == ';' || c == '_'),
                "clean frame names: {line}"
            );
            total += count.parse::<u64>().expect("numeric count");
        }
        // Including the unattributed filler, folded width == wall.
        assert_eq!(total, rep.wall_ns);
    }

    #[test]
    fn headline_names_top_phases() {
        let _guard = lock();
        reset();
        set_enabled(true);
        {
            let _s = ProfileScope::enter(Phase::Timed);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let rep = snapshot(2_000_000);
        let line = rep.headline();
        assert!(line.starts_with("profile: wall_ms="), "{line}");
        assert!(line.contains("top=timed:"), "{line}");
    }
}

//! Golden-suite regression baselines.
//!
//! The address-virtualized tracer makes the whole campaign
//! bit-reproducible: a given scenario — (kernel, implementation,
//! width, core, scale, seed) — yields the same dynamic-instruction
//! stream, including every memory address, on every run and every
//! machine. This module turns that into a regression gate over the
//! *full scenario matrix*: [`collect`] measures every scenario of a
//! [`crate::campaign::plan`] into compact [`GoldenEntry`] records
//! keyed by scenario id (an order-sensitive trace digest plus that
//! core's cycle/cache stats), [`to_json`] serializes them canonically,
//! and [`diff`] compares a fresh collection against the committed
//! `tests/golden/suite.json` so any perf- or trace-visible change
//! shows up as a reviewable baseline diff.
//!
//! Regenerate the baseline with `swan-report --write-golden <path>`
//! and check it with `swan-report --golden <path>` (CI does the
//! latter on every push).

use crate::campaign::{drive_groups, execution_groups, scatter_groups, KernelFailure};
use crate::kernel::{Kernel, Scale};
use crate::runner::{replay_timed, GroupCores, GroupRecording};
use crate::scenario::Scenario;
use crate::tracestore::TraceStore;
use std::fmt::Write as _;
use swan_simd::trace::HashSink;
use swan_uarch::SimResult;

/// One golden record: everything that must stay bit-identical for one
/// scenario of the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenEntry {
    /// Scenario id (`LIB.kernel/Impl/wBITS/core`).
    pub id: String,
    /// Dynamic instruction count of one invocation.
    pub instrs: u64,
    /// Order-sensitive FNV-1a digest of the timed dynamic-instruction
    /// stream (ops, classes, dataflow edges, virtualized addresses).
    /// Scenarios sharing one stream share the digest.
    pub trace_hash: u64,
    /// Memory references that missed every registered buffer and went
    /// through the anonymous fallback pool. Must be 0: a non-zero
    /// count means a kernel forgot to register a buffer and its
    /// cross-line locality is not being modelled.
    pub fallback_refs: u64,
    /// Timing simulation of the timed pass on this scenario's core.
    pub sim: SimResult,
}

/// Fold one execution group into golden points: `cores` arrive warmed
/// on the stream (see [`crate::campaign::drive_groups`]), and the timed
/// pass steps them and hashes every instruction it times, so the
/// digest is of exactly the timed stream. That pass executes the
/// kernel again on the live path and replays the recording otherwise;
/// a replay expands overhead runs exactly like [`HashSink`]'s default
/// sink expansion, so digests and statistics are identical with no
/// store, a cold store and a warm store.
fn hash_group(
    rec: GroupRecording,
    mut cores: GroupCores,
    plan: &[Scenario],
    group: &[usize],
) -> Vec<GoldenEntry> {
    let (instrs, fallback_refs) = (rec.data.total(), rec.fallback_refs);
    let (sims, hash) = replay_timed(rec, &mut cores, HashSink::new());
    let trace_hash = hash.digest();
    group
        .iter()
        .zip(sims)
        .map(|(&i, sim)| GoldenEntry {
            id: plan[i].id(),
            instrs,
            trace_hash,
            fallback_refs,
            sim,
        })
        .collect()
}

/// Collect golden entries for every scenario of a plan, in plan order,
/// sharded across `threads` workers at execution-group granularity and
/// consulting the optional trace `store` exactly like
/// [`crate::campaign::Campaign::execute`] (the two share one group
/// driver; per-scenario results are independent, so neither sharding
/// nor the store can change them). There is no journal: the journal
/// does not persist the trace digests a baseline pins. `progress`
/// receives one status line per group. Every group runs even when
/// another panics; the failures are returned instead of the entries.
pub fn collect(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    threads: usize,
    store: Option<&TraceStore>,
    progress: impl Fn(&str) + Sync,
) -> Result<Vec<GoldenEntry>, Vec<KernelFailure>> {
    let groups = execution_groups(plan);
    let work: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
    let results = drive_groups(
        kernels,
        plan,
        &work,
        threads,
        store,
        &progress,
        |rec, cores, group| hash_group(rec, cores, plan, group),
    );
    let mut failures = Vec::new();
    let per_group: Vec<Vec<GoldenEntry>> = results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|f| {
                failures.push(f);
                Vec::new()
            })
        })
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    Ok(scatter_groups(plan.len(), &groups, per_group)
        .into_iter()
        .map(|e| e.expect("every scenario collected"))
        .collect())
}

/// Serialize a golden collection to its canonical JSON form: fixed key
/// order, one entry per line, integer-only measurement fields — so a
/// baseline check is an exact string comparison and a mismatch is a
/// readable line diff.
pub fn to_json(scale: Scale, seed: u64, entries: &[GoldenEntry]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": 2,");
    let _ = writeln!(s, "  \"scale\": {},", scale.0);
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"scenarios\": {},", entries.len());
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let m = &e.sim;
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"instrs\": {}, \
             \"trace_hash\": \"{:016x}\", \"fallback_refs\": {}, \
             \"cycles\": {}, \"fe_stall\": {}, \"be_stall\": {}, \
             \"l1d\": [{}, {}], \"l2\": [{}, {}], \"llc\": [{}, {}], \
             \"dram\": {}}}",
            e.id,
            e.instrs,
            e.trace_hash,
            e.fallback_refs,
            m.cycles,
            m.fe_stall_cycles,
            m.be_stall_cycles,
            m.l1d.accesses,
            m.l1d.misses,
            m.l2.accesses,
            m.l2.misses,
            m.llc.accesses,
            m.llc.misses,
            m.dram_accesses,
        );
        s.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The scenario key of a canonical entry line, if it is one.
fn entry_key(line: &str) -> Option<&str> {
    let start = line.find("{\"scenario\": ")?;
    let end = line.find(", \"instrs\":")?;
    line.get(start..end)
}

/// Compare a freshly generated canonical baseline against the
/// committed one. Returns `None` on an exact match, or a diff of the
/// first `limit` differences suitable for CI output. Entry lines are
/// matched by their scenario key — not by position — so adding or
/// removing one scenario reports exactly that entry instead of
/// misaligning everything after it; header lines (format, scale, seed,
/// scenario count) compare positionally.
pub fn diff(expected: &str, actual: &str, limit: usize) -> Option<String> {
    if expected.trim_end() == actual.trim_end() {
        return None;
    }
    let mut out = String::new();
    let mut shown = 0;
    // The elision note is written only when a difference past `limit`
    // actually exists, so a diff of exactly `limit` entries is shown
    // in full without a misleading trailer.
    let mut emit = |minus: Option<&str>, plus: Option<&str>| -> bool {
        if shown >= limit {
            let _ = writeln!(out, "... (further differences elided)");
            return false;
        }
        if let Some(m) = minus {
            let _ = writeln!(out, "- {m}");
        }
        if let Some(p) = plus {
            let _ = writeln!(out, "+ {p}");
        }
        shown += 1;
        true
    };

    let partition = |doc: &str| {
        let mut headers: Vec<String> = Vec::new();
        let mut entries: Vec<(String, String)> = Vec::new();
        for line in doc.trim_end().lines() {
            match entry_key(line) {
                Some(k) => entries.push((k.to_string(), line.to_string())),
                None => headers.push(line.to_string()),
            }
        }
        (headers, entries)
    };
    let (eh, ee) = partition(expected);
    let (ah, ae) = partition(actual);

    'done: {
        for i in 0..eh.len().max(ah.len()) {
            let e = eh.get(i).map(String::as_str);
            let a = ah.get(i).map(String::as_str);
            if e != a && !emit(e, a) {
                break 'done;
            }
        }
        let exp_map: std::collections::HashMap<&str, &str> =
            ee.iter().map(|(k, l)| (k.as_str(), l.as_str())).collect();
        let act_keys: std::collections::HashSet<&str> =
            ae.iter().map(|(k, _)| k.as_str()).collect();
        for (k, a) in &ae {
            match exp_map.get(k.as_str()) {
                Some(e) if *e == a.as_str() => {}
                Some(e) => {
                    if !emit(Some(e), Some(a)) {
                        break 'done;
                    }
                }
                None => {
                    if !emit(None, Some(a)) {
                        break 'done;
                    }
                }
            }
        }
        for (k, e) in &ee {
            if !act_keys.contains(k.as_str()) && !emit(Some(e), None) {
                break 'done;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, cycles: u64) -> GoldenEntry {
        GoldenEntry {
            id: id.into(),
            instrs: 10,
            trace_hash: 0xabc,
            fallback_refs: 0,
            sim: SimResult {
                cycles,
                instrs: 10,
                fe_stall_cycles: 1,
                be_stall_cycles: 2,
                l1d: Default::default(),
                l2: Default::default(),
                llc: Default::default(),
                dram_accesses: 3,
                seconds: 0.0,
                by_op: [0; swan_simd::trace::OP_COUNT],
                by_class: [0; swan_simd::trace::CLASS_COUNT],
            },
        }
    }

    #[test]
    fn json_shape_and_diff() {
        let e = entry("ZL.adler32/Neon/w128/prime", 100);
        let a = to_json(Scale(0.25), 42, std::slice::from_ref(&e));
        assert!(a.contains("\"scenario\": \"ZL.adler32/Neon/w128/prime\""));
        assert!(a.contains("\"trace_hash\": \"0000000000000abc\""));
        assert!(a.contains("\"scenarios\": 1"));
        assert!(diff(&a, &a, 8).is_none());
        let mut e2 = e.clone();
        e2.sim.cycles = 101;
        let b = to_json(Scale(0.25), 42, &[e2]);
        let d = diff(&a, &b, 8).expect("must differ");
        assert!(d.contains("\"cycles\": 100"));
        assert!(d.contains("\"cycles\": 101"));
        // Exactly one difference at limit 1: shown in full, no
        // misleading elision trailer; at limit 0 the trailer appears.
        let d1 = diff(&a, &b, 1).expect("must differ");
        assert!(d1.contains("\"cycles\": 101"));
        assert!(!d1.contains("elided"), "{d1}");
        assert!(diff(&a, &b, 0).expect("must differ").contains("elided"));
    }

    #[test]
    fn diff_aligns_entries_by_key_not_position() {
        let old = [
            entry("A.a/Neon/w128/prime", 1),
            entry("C.c/Neon/w128/prime", 3),
        ];
        // One entry inserted in the middle, one changed after it.
        let new = [
            entry("A.a/Neon/w128/prime", 1),
            entry("B.b/Neon/w128/prime", 2),
            entry("C.c/Neon/w128/prime", 30),
        ];
        let a = to_json(Scale(0.25), 42, &old);
        let b = to_json(Scale(0.25), 42, &new);
        let d = diff(&a, &b, 40).expect("must differ");
        // The unchanged A.a entry must not appear; B.b is a pure
        // addition; C.c is a changed pair. (The scenario-count header
        // changes too, accounting for one extra diff pair.)
        assert!(!d.contains("A.a"), "unchanged entry leaked into diff:\n{d}");
        assert_eq!(d.matches("B.b").count(), 1, "{d}");
        assert_eq!(d.matches("C.c").count(), 2, "{d}");
        // Removal reports the old line alone.
        let d2 = diff(&b, &a, 40).expect("must differ");
        assert_eq!(d2.matches("B.b").count(), 1, "{d2}");
    }
}

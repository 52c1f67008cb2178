//! Trace-store corruption recovery: a damaged store must never change
//! campaign results — only cost a re-record.
//!
//! Each scenario damages committed entries a different way (truncated
//! chunk, flipped digest byte, stale format version, garbage file) and
//! asserts the same three facts: the damage is detected *on open*
//! (before a single record reaches a model), the entry is deleted and
//! counted (`corrupt_replaced`, alongside the stderr log line), and
//! the campaign falls back to record-and-replace with results
//! bit-identical to a cold store — which `streaming_equivalence` and
//! `golden_suite` in turn pin to the store-disabled flow.

use std::fs;
use std::path::PathBuf;
use swan::prelude::*;
use swan_core::{plan, Measurement, Scenario, TraceStore};

const SEED: u64 = 7;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swan-corruption-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry_paths(store: &TraceStore) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(store.dir())
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("swst"))
        .collect();
    out.sort();
    out
}

/// Execute `matrix` serially against `store`.
fn execute_with(
    kernels: &[Box<dyn Kernel>],
    matrix: &[Scenario],
    store: &TraceStore,
) -> Vec<Measurement> {
    let campaign = Campaign {
        store: Some(store),
        ..Campaign::default()
    };
    campaign.execute(kernels, matrix, |_| {}).complete()
}

fn assert_bit_identical(a: &[Measurement], b: &[Measurement], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: measurement count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.sim, y.sim, "{what}: SimResult must be bit-identical");
        assert_eq!(x.trace.by_op, y.trace.by_op, "{what}: histograms");
        assert_eq!(x.work_ops, y.work_ops, "{what}: work ops");
    }
}

/// Run one corruption scenario: populate a store, damage its entries
/// with `corrupt`, re-run the campaign, and require detection +
/// replacement + bit-identical results.
fn corruption_scenario(tag: &str, corrupt: impl Fn(&PathBuf)) {
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(2).collect();
    let dir = store_dir(tag);
    let store = TraceStore::open(&dir, &kernels)
        .expect("open store")
        // Small chunks so even test-scale streams span several.
        .chunk_budget(512);
    let matrix = plan(&kernels, Scale::test(), SEED);

    let cold = execute_with(&kernels, &matrix, &store);
    let populated = store.stats();
    assert!(populated.inserts > 0, "cold run must populate the store");
    let entries = entry_paths(&store);
    assert_eq!(entries.len() as u64, populated.inserts);

    for path in &entries {
        corrupt(path);
    }

    let recovered = execute_with(&kernels, &matrix, &store);
    let after = store.stats();
    assert_eq!(
        after.corrupt_replaced,
        entries.len() as u64,
        "{tag}: every damaged entry must be detected on open and counted"
    );
    assert_eq!(
        after.hits, populated.hits,
        "{tag}: no damaged entry may be served as a hit"
    );
    assert_eq!(
        after.inserts,
        populated.inserts * 2,
        "{tag}: every damaged entry must be re-recorded (record-and-replace)"
    );
    assert_bit_identical(&cold, &recovered, tag);

    // The replacements are healthy: a third run is all hits and still
    // bit-identical.
    let warm = execute_with(&kernels, &matrix, &store);
    let healed = store.stats();
    assert_eq!(
        healed.corrupt_replaced, after.corrupt_replaced,
        "{tag}: healed"
    );
    assert_eq!(
        healed.hits,
        after.hits + populated.inserts,
        "{tag}: all hits"
    );
    assert_bit_identical(&cold, &warm, tag);

    let _ = fs::remove_dir_all(&dir);
}

/// A chunk truncated mid-payload is detected on open.
#[test]
fn truncated_chunk_falls_back_to_rerecord() {
    corruption_scenario("truncate", |path| {
        let bytes = fs::read(path).expect("read entry");
        assert!(bytes.len() > 64, "entry large enough to truncate");
        fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate entry");
    });
}

/// A single flipped byte in the trailing stream digest is detected on
/// open (the chunk digests cover every payload byte; the trailer
/// covers the totals and the running digest).
#[test]
fn flipped_digest_byte_falls_back_to_rerecord() {
    corruption_scenario("digest-flip", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        let last = bytes.len() - 1; // inside the trailer's digest field
        bytes[last] ^= 0x01;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// An entry written by a different (stale) store format version is
/// refused outright.
#[test]
fn stale_format_version_falls_back_to_rerecord() {
    corruption_scenario("stale-version", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        // Bytes 4..8 hold the store format version (little endian).
        bytes[4] = 0xEE;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// A file that is not an entry at all (wrong magic, arbitrary bytes)
/// is refused and replaced like any other corruption.
#[test]
fn garbage_entry_falls_back_to_rerecord() {
    corruption_scenario("garbage", |path| {
        fs::write(path, b"definitely not a trace").expect("rewrite entry");
    });
}

//! Checkpoint-journal corruption recovery: a damaged journal must
//! never change campaign results — only cost a re-simulation.
//!
//! Mirrors `tracestore_corruption.rs`: each scenario damages committed
//! entries a different way (truncated entry, flipped digest byte,
//! stale format version, garbage file) and asserts the same three
//! facts — the damage is detected on resume (before any measurement is
//! trusted), the entry is deleted and counted (`discarded`, alongside
//! the stderr log line), and the campaign falls back to re-simulation
//! with results bit-identical to the uncorrupted run, healing the
//! journal in place.

use std::fs;
use std::path::PathBuf;
use swan::prelude::*;
use swan_core::{plan, CampaignJournal, CampaignRun, Measurement};

const SEED: u64 = 7;

fn journal_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("swan-ckpt-corruption-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry_paths(journal: &CampaignJournal) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(journal.dir())
        .expect("journal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("swcp"))
        .collect();
    out.sort();
    out
}

/// Execute the plan of `kernels` serially against `journal`.
fn journaled(kernels: &[Box<dyn Kernel>], journal: &CampaignJournal) -> CampaignRun {
    let campaign = Campaign {
        journal: Some(journal),
        ..Campaign::default()
    };
    campaign.execute(kernels, &plan(kernels, Scale::test(), SEED), |_| {})
}

fn assert_bit_identical(a: &[Option<Measurement>], b: &[Option<Measurement>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: measurement count");
    for (x, y) in a.iter().zip(b) {
        // Full-struct equality: histograms, timing, cache statistics,
        // power/energy floats — all bitwise.
        assert_eq!(x, y, "{what}: measurements must be bit-identical");
    }
}

/// Run one corruption scenario: populate a journal, damage every entry
/// with `corrupt`, resume, and require detection + re-simulation +
/// bit-identical results + a healed journal.
fn corruption_scenario(tag: &str, corrupt: impl Fn(&PathBuf)) {
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(2).collect();
    let dir = journal_dir(tag);

    let journal = CampaignJournal::open(&dir, &kernels, Scale::test(), SEED).expect("open journal");
    let populated = journaled(&kernels, &journal);
    assert!(populated.failures.is_empty());
    let cold = &populated.measurements;
    assert_eq!(populated.resumed_groups, 0);
    assert!(
        populated.executed_groups > 0,
        "cold run must journal groups"
    );
    let entries = entry_paths(&journal);
    assert_eq!(entries.len(), populated.executed_groups);

    for path in &entries {
        corrupt(path);
    }

    // Fresh handle (fresh counters), same directory — like a new
    // process resuming after the damage happened.
    let journal = CampaignJournal::open(&dir, &kernels, Scale::test(), SEED).expect("reopen");
    let run = journaled(&kernels, &journal);
    assert_eq!(
        journal.stats().discarded,
        entries.len() as u64,
        "{tag}: every damaged entry must be detected on resume and counted"
    );
    assert_eq!(
        run.resumed_groups, 0,
        "{tag}: no damaged entry may be served as resumed progress"
    );
    assert_eq!(
        run.executed_groups,
        entries.len(),
        "{tag}: every damaged group must be re-simulated"
    );
    assert_bit_identical(cold, &run.measurements, tag);

    // The re-simulation healed the journal in place: a third run
    // resumes everything and is still bit-identical.
    let journal = CampaignJournal::open(&dir, &kernels, Scale::test(), SEED).expect("reopen");
    let run = journaled(&kernels, &journal);
    assert_eq!(journal.stats().discarded, 0, "{tag}: healed");
    assert_eq!(run.resumed_groups, entries.len(), "{tag}: all resumed");
    assert_eq!(run.executed_groups, 0, "{tag}: nothing re-simulated");
    assert_bit_identical(cold, &run.measurements, tag);

    let _ = fs::remove_dir_all(&dir);
}

/// An entry truncated mid-payload is detected on resume.
#[test]
fn truncated_entry_falls_back_to_resimulation() {
    corruption_scenario("truncate", |path| {
        let bytes = fs::read(path).expect("read entry");
        assert!(bytes.len() > 64, "entry large enough to truncate");
        fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate entry");
    });
}

/// A single flipped byte in the trailing digest is detected on resume
/// (the digest covers every preceding byte of the entry).
#[test]
fn flipped_digest_byte_falls_back_to_resimulation() {
    corruption_scenario("digest-flip", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        let last = bytes.len() - 1; // inside the trailing digest field
        bytes[last] ^= 0x01;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// A payload bit flip (inside a serialized measurement, not the
/// trailer) is equally fatal: the digest mismatch is detected before
/// a single field is trusted.
#[test]
fn flipped_payload_byte_falls_back_to_resimulation() {
    corruption_scenario("payload-flip", |path| {
        let mut bytes = fs::read(path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        fs::write(path, bytes).expect("rewrite entry");
    });
}

/// An entry written by a different (stale) checkpoint format version
/// is refused outright — even with a valid digest.
#[test]
fn stale_format_version_falls_back_to_resimulation() {
    corruption_scenario("stale-version", |path| {
        let bytes = fs::read(path).expect("read entry");
        // Bytes 4..8 hold the checkpoint format version (little
        // endian). Rewrite it and re-seal the digest so only the
        // version check can reject the entry.
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[4] = 0xEE;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &payload {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        payload.extend_from_slice(&hash.to_le_bytes());
        fs::write(path, payload).expect("rewrite entry");
    });
}

/// A file that is not an entry at all (wrong magic, arbitrary bytes)
/// at an entry path is refused and replaced like any other corruption.
#[test]
fn garbage_entry_falls_back_to_resimulation() {
    corruption_scenario("garbage", |path| {
        fs::write(path, b"definitely not a checkpoint").expect("rewrite entry");
    });
}

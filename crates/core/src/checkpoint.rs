//! Crash-safe campaign checkpoint journal: persist each scenario
//! group's [`Measurement`]s as the group completes, and resume a
//! killed campaign without re-simulating.
//!
//! The campaign executor's unit of work is the *scenario group* (all
//! scenarios sharing one instruction stream, fanned out to their
//! cores), and every group's result is a pure function of the group
//! itself — so a completed group is durable progress. The journal
//! makes it durable in fact: one entry file per completed group,
//! written with the tmp-write → fsync → atomic-rename protocol, so at
//! every instant each entry is either fully visible and verified or
//! absent entirely (the *kill-window guarantee* — there is no point in
//! a campaign where SIGKILL can leave a half-entry that a later resume
//! would trust).
//!
//! Layout: `<safe-stream-id>-<key-digest>.swcp` per group, where the
//! key digest covers the full key string — stream id, the group's
//! member cores in group order, scale bits, seed, the codec and
//! checkpoint format versions, and the kernel-inventory digest
//! (composed exactly like the trace store's key, see
//! [`crate::tracestore`]). A format bump, a different scale/seed, a
//! changed kernel roster, or a different core fan-out makes old
//! entries unreachable instead of wrong. Each entry holds the key
//! string (collision defense), one serialized [`Measurement`] per
//! group member in group order, and a trailing FNV-1a digest over
//! every preceding byte.
//!
//! Integrity: [`CampaignJournal::load_group`] re-derives the expected
//! key, verifies the magic, version, digest, key string, and member
//! count, and fully decodes the payload before anything is trusted;
//! anything malformed — truncation, bit flips, stale versions, garbage
//! at an entry path — is logged, deleted, counted, and reported as
//! not-done, so the group is simply re-simulated (bit-identically, by
//! the campaign's reproducibility invariant). Files the journal does
//! not recognize (foreign names, live `.swcp-partial` temps of
//! concurrent workers) are left alone, which is what makes one journal
//! directory safely shareable by multi-process workers writing
//! disjoint group subsets; duplicate writes of the same group are
//! idempotent because the content is bit-reproducible and the rename
//! is atomic.
//!
//! Measurements serialize exactly (floats as IEEE bits), so a resumed
//! campaign aggregates to *byte-identical* [`crate::report`] output —
//! pinned by `tests/checkpoint_resume.rs` under randomized SIGKILL.

use crate::campaign::execution_groups;
use crate::kernel::{Kernel, Scale};
use crate::runner::Measurement;
use crate::scenario::Scenario;
use crate::tracestore::{fnv1a, inventory_digest, sanitize_id, FNV_OFFSET};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use swan_simd::trace::{codec, CLASS_COUNT, OP_COUNT};
use swan_simd::TraceData;
use swan_uarch::{CacheStats, SimResult};

/// Version of the journal entry layout. Bumping it (or the codec
/// format version) re-keys — and thereby invalidates — every entry.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// The full identity string of one completed scenario group: the
/// stream id, the group's member cores in group order, the scale bits,
/// seed, the codec and checkpoint format versions, and the
/// kernel-inventory digest ([`crate::tracestore::inventory_digest`]).
/// A format bump, a parameter change, a roster change, or a different
/// group fan-out produces a different key, so stale results miss
/// instead of lying.
///
/// This is the one group-result key in the system: the checkpoint
/// journal addresses entries with it, and the campaign server's warm
/// result cache and in-flight dedup registry key on the identical
/// string — so a result is interchangeable between the two exactly
/// when its key matches.
pub fn group_key_string(
    plan: &[Scenario],
    group: &[usize],
    scale: Scale,
    seed: u64,
    inventory: u64,
) -> String {
    let sc = &plan[group[0]];
    let cores: Vec<String> = group.iter().map(|&i| plan[i].core.to_string()).collect();
    format!(
        "{}|cores={}|scale={:016x}|seed={}|codec=v{}|checkpoint=v{}|inventory={:016x}",
        sc.stream_id(),
        cores.join("+"),
        scale.0.to_bits(),
        seed,
        codec::CHUNK_FORMAT_VERSION,
        CHECKPOINT_FORMAT_VERSION,
        inventory
    )
}

/// Entry magic: "SWan CheckPoint".
const ENTRY_MAGIC: [u8; 4] = *b"SWCP";

/// Counters of one journal's activity, all monotone over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries loaded after full verification (each one a group whose
    /// simulation was skipped on resume).
    pub loaded: u64,
    /// Entries that failed verification and were deleted; their groups
    /// re-simulate.
    pub discarded: u64,
    /// Entries committed by this process.
    pub written: u64,
    /// Entry bytes committed by this process.
    pub bytes_written: u64,
}

/// A crash-safe campaign journal rooted at one directory. Shareable
/// across threads (`&CampaignJournal` is `Sync`) and across worker
/// processes (atomic per-entry visibility).
#[derive(Debug)]
pub struct CampaignJournal {
    dir: PathBuf,
    inventory: u64,
    scale_bits: u64,
    seed: u64,
    loaded: AtomicU64,
    discarded: AtomicU64,
    written: AtomicU64,
    bytes_written: AtomicU64,
}

/// What a journal knows about a plan: per-scenario measurements for
/// every journaled group, and the canonical indices (into
/// `execution_groups(plan)`) of the groups still to simulate.
#[derive(Debug)]
pub struct Resume {
    /// One slot per plan scenario, `Some` where the scenario's group
    /// has a verified journal entry.
    pub measurements: Vec<Option<Measurement>>,
    /// Canonical group indices with no (usable) journal entry.
    pub remaining: Vec<usize>,
    /// Total group count of the plan.
    pub total_groups: usize,
}

impl CampaignJournal {
    /// Open (creating if needed) a journal at `dir` for campaigns over
    /// `kernels` at the given scale and seed; all three are part of
    /// every entry key, so a journal directory can never leak entries
    /// across campaigns with different parameters.
    pub fn open(
        dir: impl AsRef<Path>,
        kernels: &[Box<dyn Kernel>],
        scale: Scale,
        seed: u64,
    ) -> io::Result<CampaignJournal> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(CampaignJournal {
            dir,
            inventory: inventory_digest(kernels),
            scale_bits: scale.0.to_bits(),
            seed,
            loaded: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The journal's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the journal's activity counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            written: self.written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Number of committed entry files currently on disk.
    pub fn entries_on_disk(&self) -> u64 {
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return 0;
        };
        rd.flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("swcp"))
            .count() as u64
    }

    /// The full key string embedded in (and checked against) every
    /// entry — [`group_key_string`] at this journal's parameters. The
    /// member core list pins the group's exact fan-out, so an entry
    /// written under a subset plan (fewer cores per group) can never
    /// satisfy the full plan's group.
    fn key_string(&self, plan: &[Scenario], group: &[usize]) -> String {
        group_key_string(
            plan,
            group,
            Scale(f64::from_bits(self.scale_bits)),
            self.seed,
            self.inventory,
        )
    }

    /// Entry path for a group: sanitized stream id for debuggability
    /// plus the digest of the full key string for addressing.
    fn entry_path(&self, plan: &[Scenario], group: &[usize]) -> PathBuf {
        let ks = self.key_string(plan, group);
        let digest = fnv1a(FNV_OFFSET, ks.as_bytes());
        let safe = sanitize_id(&plan[group[0]].stream_id());
        self.dir.join(format!("{safe}-{digest:016x}.swcp"))
    }

    /// Persist one completed group: serialize its measurements (group
    /// order), write them to a uniquely named temp file, fsync, and
    /// atomically rename into place — the entry becomes visible all at
    /// once or not at all, no matter when the process dies.
    pub fn record_group(
        &self,
        plan: &[Scenario],
        group: &[usize],
        measurements: &[Measurement],
    ) -> io::Result<()> {
        assert_eq!(
            group.len(),
            measurements.len(),
            "one measurement per group member"
        );
        let ks = self.key_string(plan, group);
        assert!(ks.len() <= u16::MAX as usize, "key string too long");
        let mut buf = Vec::new();
        buf.extend_from_slice(&ENTRY_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(ks.len() as u16).to_le_bytes());
        buf.extend_from_slice(ks.as_bytes());
        buf.extend_from_slice(&(group.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(OP_COUNT as u16).to_le_bytes());
        buf.extend_from_slice(&(CLASS_COUNT as u16).to_le_bytes());
        for m in measurements {
            encode_measurement(&mut buf, m);
        }
        let digest = fnv1a(FNV_OFFSET, &buf);
        buf.extend_from_slice(&digest.to_le_bytes());

        // Process-global sequence: several journal handles on one
        // directory (worker threads, tests) share the pid, so the seq
        // alone must make concurrent temp names collision-free.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{seq}.swcp-partial", std::process::id()));
        let write_all = || -> io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(&buf)?;
            // The entry must be durable *before* the rename makes it
            // visible; otherwise a crash could expose a valid-looking
            // name over unflushed bytes.
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(plan, group))?;
            // Make the rename itself durable (best-effort: directory
            // fsync is a no-op or an error on some platforms).
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        };
        let written = {
            let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::CheckpointWrite);
            write_all()
        };
        match written {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
                crate::profile::add_counts(
                    crate::profile::Phase::CheckpointWrite,
                    0,
                    buf.len() as u64,
                );
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Load and fully verify one group's entry. `Some` means the
    /// magic, version, digest, key string, and member count all
    /// checked out and the payload decoded completely; `None` means
    /// the group must be simulated — including the corrupt-entry case,
    /// where the bad file has been logged, deleted, and counted so the
    /// fresh result replaces it.
    pub fn load_group(&self, plan: &[Scenario], group: &[usize]) -> Option<Vec<Measurement>> {
        let _span = crate::profile::ProfileScope::enter(crate::profile::Phase::CheckpointLoad);
        let path = self.entry_path(plan, group);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None, // absent: simply not done yet
        };
        match self.verify_entry(&bytes, &self.key_string(plan, group), group.len()) {
            Ok(ms) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                crate::profile::add_counts(
                    crate::profile::Phase::CheckpointLoad,
                    0,
                    bytes.len() as u64,
                );
                Some(ms)
            }
            Err(e) => {
                eprintln!(
                    "checkpoint: entry for {} failed verification ({e}); \
                     deleting {} and re-simulating",
                    plan[group[0]].stream_id(),
                    path.display()
                );
                let _ = fs::remove_file(&path);
                self.discarded.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parse and verify one entry end to end.
    fn verify_entry(
        &self,
        bytes: &[u8],
        expected_key: &str,
        members: usize,
    ) -> Result<Vec<Measurement>, String> {
        if bytes.len() < 4 + 4 + 2 + 8 {
            return Err("entry shorter than any valid layout".into());
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let digest = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(FNV_OFFSET, payload) != digest {
            return Err("entry digest mismatch".into());
        }
        let mut cur = Cursor { b: payload, pos: 0 };
        if cur.take(4)? != ENTRY_MAGIC {
            return Err("bad entry magic".into());
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes"));
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(format!(
                "checkpoint format version {version} (expected {CHECKPOINT_FORMAT_VERSION})"
            ));
        }
        let key_len = u16::from_le_bytes(cur.take(2)?.try_into().expect("2 bytes")) as usize;
        let key = cur.take(key_len)?;
        if key != expected_key.as_bytes() {
            return Err(format!(
                "key mismatch: entry holds `{}`, wanted `{expected_key}`",
                String::from_utf8_lossy(key)
            ));
        }
        let count = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes")) as usize;
        if count != members {
            return Err(format!("entry holds {count} members, group has {members}"));
        }
        let ops = u16::from_le_bytes(cur.take(2)?.try_into().expect("2 bytes")) as usize;
        let classes = u16::from_le_bytes(cur.take(2)?.try_into().expect("2 bytes")) as usize;
        if ops != OP_COUNT || classes != CLASS_COUNT {
            return Err(format!(
                "histogram shape {ops}x{classes} (expected {OP_COUNT}x{CLASS_COUNT})"
            ));
        }
        let out: Vec<Measurement> = (0..count)
            .map(|_| decode_measurement(&mut cur))
            .collect::<Result<_, _>>()?;
        if cur.pos != payload.len() {
            return Err("trailing bytes after last member".into());
        }
        Ok(out)
    }

    /// Resume state for a plan: load (and verify) every group's entry,
    /// scatter the journaled measurements into plan order, and report
    /// which canonical groups remain. Idempotent: a second call on the
    /// same journal state returns the same result
    /// (`crates/core/tests/checkpoint_properties.rs`).
    pub fn resume(&self, plan: &[Scenario]) -> Resume {
        let groups = execution_groups(plan);
        let mut measurements: Vec<Option<Measurement>> =
            std::iter::repeat_with(|| None).take(plan.len()).collect();
        let mut remaining = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            match self.load_group(plan, group) {
                Some(ms) => {
                    for (&i, m) in group.iter().zip(ms) {
                        measurements[i] = Some(m);
                    }
                }
                None => remaining.push(gi),
            }
        }
        Resume {
            measurements,
            remaining,
            total_groups: groups.len(),
        }
    }
}

// =====================================================================
// Measurement codec: fixed-width little-endian, floats as IEEE bits —
// the decode is the exact inverse of the encode, so a journal
// round-trip is bit-identity by construction.
// =====================================================================

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn encode_measurement(buf: &mut Vec<u8>, m: &Measurement) {
    for v in m.trace.by_op {
        put_u64(buf, v);
    }
    for v in m.trace.by_class {
        put_u64(buf, v);
    }
    let s = &m.sim;
    put_u64(buf, s.cycles);
    put_u64(buf, s.instrs);
    put_u64(buf, s.fe_stall_cycles);
    put_u64(buf, s.be_stall_cycles);
    for c in [&s.l1d, &s.l2, &s.llc] {
        put_u64(buf, c.accesses);
        put_u64(buf, c.misses);
    }
    put_u64(buf, s.dram_accesses);
    put_f64(buf, s.seconds);
    for v in s.by_op {
        put_u64(buf, v);
    }
    for v in s.by_class {
        put_u64(buf, v);
    }
    put_f64(buf, m.power_w);
    put_f64(buf, m.energy_j);
    put_u64(buf, m.work_ops);
}

/// Bounds-checked reader over an entry payload.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or("entry truncated")?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn decode_measurement(cur: &mut Cursor) -> Result<Measurement, String> {
    let mut trace = TraceData::default();
    for v in trace.by_op.iter_mut() {
        *v = cur.u64()?;
    }
    for v in trace.by_class.iter_mut() {
        *v = cur.u64()?;
    }
    let cycles = cur.u64()?;
    let instrs = cur.u64()?;
    let fe_stall_cycles = cur.u64()?;
    let be_stall_cycles = cur.u64()?;
    let mut caches = [CacheStats::default(); 3];
    for c in caches.iter_mut() {
        c.accesses = cur.u64()?;
        c.misses = cur.u64()?;
    }
    let dram_accesses = cur.u64()?;
    let seconds = cur.f64()?;
    let mut by_op = [0u64; OP_COUNT];
    for v in by_op.iter_mut() {
        *v = cur.u64()?;
    }
    let mut by_class = [0u64; CLASS_COUNT];
    for v in by_class.iter_mut() {
        *v = cur.u64()?;
    }
    let sim = SimResult {
        cycles,
        instrs,
        fe_stall_cycles,
        be_stall_cycles,
        l1d: caches[0],
        l2: caches[1],
        llc: caches[2],
        dram_accesses,
        seconds,
        by_op,
        by_class,
    };
    let power_w = cur.f64()?;
    let energy_j = cur.f64()?;
    let work_ops = cur.u64()?;
    Ok(Measurement {
        trace,
        sim,
        power_w,
        energy_j,
        work_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Impl;
    use swan_simd::Width;
    use swan_uarch::CoreId;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swan-checkpoint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn scenario(core: CoreId) -> Scenario {
        Scenario {
            kernel: 0,
            kernel_id: "ZL.adler32".into(),
            imp: Impl::Neon,
            width: Width::W128,
            core,
            scale: Scale(0.25),
            seed: 42,
        }
    }

    fn measurement(tag: u64) -> Measurement {
        let mut trace = TraceData::default();
        trace.by_op[0] = tag;
        trace.by_class[1] = tag * 3;
        let mut by_op = [0u64; OP_COUNT];
        by_op[0] = tag;
        Measurement {
            trace,
            sim: SimResult {
                cycles: 100 + tag,
                instrs: tag,
                fe_stall_cycles: 1,
                be_stall_cycles: 2,
                l1d: CacheStats {
                    accesses: 10,
                    misses: 1,
                },
                l2: CacheStats {
                    accesses: 5,
                    misses: 2,
                },
                llc: CacheStats {
                    accesses: 2,
                    misses: 1,
                },
                dram_accesses: 1,
                seconds: 0.125 * tag as f64,
                by_op,
                by_class: [0; CLASS_COUNT],
            },
            power_w: 1.5,
            energy_j: 1e-6 * tag as f64,
            work_ops: tag * 7,
        }
    }

    #[test]
    fn record_then_resume_roundtrips_exactly() {
        let dir = test_dir("roundtrip");
        let journal = CampaignJournal::open(&dir, &[], Scale(0.25), 42).expect("open");
        let plan = vec![scenario(CoreId::Prime), scenario(CoreId::Gold)];
        let ms = [measurement(11), measurement(22)];
        journal.record_group(&plan, &[0, 1], &ms).expect("record");

        let resume = journal.resume(&plan);
        assert_eq!(resume.total_groups, 1);
        assert!(resume.remaining.is_empty());
        assert_eq!(resume.measurements[0].as_ref(), Some(&ms[0]));
        assert_eq!(resume.measurements[1].as_ref(), Some(&ms[1]));
        let s = journal.stats();
        assert_eq!((s.written, s.loaded, s.discarded), (1, 1, 0));
        assert!(s.bytes_written > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_isolate_scale_seed_cores_and_inventory() {
        let dir = test_dir("keys");
        let plan = vec![scenario(CoreId::Prime), scenario(CoreId::Gold)];
        let a = CampaignJournal::open(&dir, &[], Scale(0.25), 42).expect("open");
        a.record_group(&plan, &[0, 1], &[measurement(1), measurement(2)])
            .expect("record");

        // Different seed, different scale: same directory, no hits.
        for j in [
            CampaignJournal::open(&dir, &[], Scale(0.25), 7).expect("open"),
            CampaignJournal::open(&dir, &[], Scale(0.5), 42).expect("open"),
        ] {
            let r = j.resume(&plan);
            assert_eq!(r.remaining, vec![0]);
            assert_eq!(j.stats().discarded, 0, "a foreign key is not corruption");
        }
        // A subset of the group's cores is a different fan-out → miss.
        let partial = vec![scenario(CoreId::Prime)];
        assert_eq!(a.resume(&partial).remaining, vec![0]);
        // The full group still loads.
        assert!(a.resume(&plan).remaining.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_writes_are_idempotent() {
        let dir = test_dir("dup");
        let journal = CampaignJournal::open(&dir, &[], Scale(0.25), 42).expect("open");
        let plan = vec![scenario(CoreId::Prime)];
        let ms = [measurement(5)];
        journal.record_group(&plan, &[0], &ms).expect("record");
        journal.record_group(&plan, &[0], &ms).expect("re-record");
        assert_eq!(journal.entries_on_disk(), 1);
        let r = journal.resume(&plan);
        assert_eq!(r.measurements[0].as_ref(), Some(&ms[0]));
        let _ = fs::remove_dir_all(&dir);
    }
}

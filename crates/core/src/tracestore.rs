//! Persistent, content-addressed store of recorded scenario-group
//! traces.
//!
//! Every recording the campaign produces is bit-reproducible (address
//! virtualization) and keyed by a stable scenario-group identity
//! (kernel, implementation, width, scale, seed) — which makes it
//! perfect cache material: persist the chunked encoding once, and any
//! later campaign run over the same matrix replays from disk instead
//! of functionally executing the kernel at all. CI reuses the store
//! across runs via `actions/cache`.
//!
//! Layout: one file per scenario group, named
//! `<stream-id>-<key-digest>.swst`, where the key digest covers the
//! stream id, scale bits, seed, the codec and store format versions,
//! and the kernel-inventory digest ([`inventory_digest`]) — so a codec
//! bump or an inventory change makes old entries unreachable instead
//! of wrong. Each entry holds a fixed header (magic, store version,
//! work-op and fallback-ref metadata, the full key string for
//! collision defense) followed by the chunked trace container, and is
//! written atomically: recorded into a temp file chunk by chunk
//! (O(chunk budget) resident, never O(stream)) and renamed into place.
//!
//! Integrity: [`TraceStore::lookup`] verifies the header, the key
//! string, and every chunk digest plus the trailer before the entry is
//! trusted (the verification pass doubles as the histogram
//! reconstruction); anything malformed — truncation, bit flips, stale
//! format versions — is logged, deleted, and reported as a miss, so
//! the caller records a replacement and a corrupted store degrades to
//! a cold one, never to wrong results. The cardinal invariant is that
//! cold-store, warm-store, and store-disabled campaigns are
//! bit-identical (`tests/tracestore_corruption.rs`,
//! `tests/golden_suite.rs`).
//!
//! The store does **not** hash kernel *code*: an edited kernel with an
//! unchanged id would replay its old stream from a warm store. In CI
//! the cache key hashes the kernel and tracer sources, so edits roll
//! the whole store; locally, clear the store directory (or pass a
//! fresh one) after editing a kernel. See CONTRIBUTING, "The trace
//! store".

use crate::kernel::{Impl, Kernel, Scale};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use swan_simd::trace::codec::{self, ChunkedSummary, SpillSink};
use swan_simd::trace::{Class, Op, TraceInstr, TraceSink, CLASS_COUNT, OP_COUNT};
use swan_simd::{replay_chunked, replay_chunked_batches, TraceData, Width};

/// Version of the entry-file layout around the chunked trace. Bumping
/// it (or [`codec::CHUNK_FORMAT_VERSION`]) re-keys every entry.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Entry magic: "SWan STore".
const ENTRY_MAGIC: [u8; 4] = *b"SWST";

/// Fixed entry-header length up to the key string: magic (4), store
/// version (4), work_ops (8), fallback_refs (8), key length (2).
const HEADER_FIXED: u64 = 4 + 4 + 8 + 8 + 2;
/// Offset of the metadata patched in at commit time.
const META_OFFSET: u64 = 8;

/// FNV-1a offset basis, the seed of every digest in the store and the
/// checkpoint journal.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Sanitize a stream/scenario id into a filename-safe prefix (the
/// digest does the addressing; the prefix is for debuggability).
pub(crate) fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Digest of a kernel inventory: folds every kernel's `LIB.kernel` id
/// (and the inventory length) into one value, part of every store
/// key. Adding, removing, renaming, or reordering kernels re-keys the
/// store; editing a kernel's *body* does not (see the module docs for
/// why that is handled by the CI cache key instead).
pub fn inventory_digest(kernels: &[Box<dyn Kernel>]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(kernels.len() as u64).to_le_bytes());
    for k in kernels {
        h = fnv1a(h, k.meta().id().as_bytes());
        h = fnv1a(h, b"\0");
    }
    h
}

/// Identity of one stored recording: the scenario-group stream plus
/// everything that invalidates it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreKey {
    stream_id: String,
    scale_bits: u64,
    seed: u64,
}

impl StoreKey {
    /// Key for a scenario group's instruction stream — the same
    /// (kernel, implementation, width, scale, seed) identity the
    /// campaign executor groups by.
    pub fn group(kernel_id: &str, imp: Impl, width: Width, scale: Scale, seed: u64) -> StoreKey {
        StoreKey {
            stream_id: format!("{}/{}/w{}", kernel_id, imp.name(), width.bits()),
            scale_bits: scale.0.to_bits(),
            seed,
        }
    }

    /// The group's stream id (`LIB.kernel/Impl/wBITS`).
    pub fn stream_id(&self) -> &str {
        &self.stream_id
    }
}

/// Counters of one store's activity, all monotone over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered by a verified on-disk entry.
    pub hits: u64,
    /// Lookups with no (usable) entry — each one records a trace.
    pub misses: u64,
    /// Entries committed (misses that persisted their recording).
    pub inserts: u64,
    /// Entries that failed verification and were deleted for
    /// record-and-replace.
    pub corrupt_replaced: u64,
    /// Entries deleted to stay under the capacity budget.
    pub evictions: u64,
    /// Entry bytes written (committed files, framing included).
    pub bytes_written: u64,
    /// Entry bytes read by verified lookups.
    pub bytes_read: u64,
}

/// A persistent trace store rooted at one directory. Shareable across
/// campaign workers (`&TraceStore` is `Sync`; all counters are
/// atomic).
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    inventory: u64,
    chunk_budget: usize,
    capacity: Option<u64>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl TraceStore {
    /// Open (creating if needed) a store at `dir` for campaigns over
    /// `kernels` (whose [`inventory_digest`] becomes part of every
    /// key).
    pub fn open(dir: impl AsRef<Path>, kernels: &[Box<dyn Kernel>]) -> io::Result<TraceStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(TraceStore {
            dir,
            inventory: inventory_digest(kernels),
            chunk_budget: codec::DEFAULT_CHUNK_BUDGET,
            capacity: None,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// Use `budget`-byte chunks for new entries (existing entries keep
    /// whatever budget they were written with; replay never needs to
    /// know it).
    pub fn chunk_budget(mut self, budget: usize) -> TraceStore {
        self.chunk_budget = budget.max(1);
        self
    }

    /// Evict oldest entries after an insert pushes the store past
    /// `bytes` on disk.
    pub fn capacity(mut self, bytes: u64) -> TraceStore {
        self.capacity = Some(bytes);
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the store's activity counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            corrupt_replaced: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Entry count and total entry bytes currently on disk.
    pub fn disk_usage(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for (_, len, _) in self.entry_files() {
            entries += 1;
            bytes += len;
        }
        (entries, bytes)
    }

    /// Delete every entry (the stats counters are untouched). The next
    /// campaign run re-records from scratch — by the store invariant,
    /// with bit-identical results.
    pub fn clear(&self) -> io::Result<()> {
        for (path, _, _) in self.entry_files() {
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// The full key string embedded in (and checked against) every
    /// entry: collision defense for the filename digest.
    fn key_string(&self, key: &StoreKey) -> String {
        format!(
            "{}|scale={:016x}|seed={}|codec=v{}|store=v{}|inventory={:016x}",
            key.stream_id,
            key.scale_bits,
            key.seed,
            codec::CHUNK_FORMAT_VERSION,
            STORE_FORMAT_VERSION,
            self.inventory
        )
    }

    /// Entry path for a key: a sanitized stream id for debuggability
    /// plus the digest of the full key string for addressing.
    fn entry_path(&self, key: &StoreKey) -> PathBuf {
        let ks = self.key_string(key);
        let digest = fnv1a(FNV_OFFSET, ks.as_bytes());
        let safe = sanitize_id(&key.stream_id);
        self.dir.join(format!("{safe}-{digest:016x}.swst"))
    }

    /// All entry files in the store: (path, byte length, mtime).
    fn entry_files(&self) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return out;
        };
        for e in rd.flatten() {
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some("swst") {
                continue;
            }
            if let Ok(md) = e.metadata() {
                out.push((
                    path,
                    md.len(),
                    md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH),
                ));
            }
        }
        out
    }

    /// Look up and fully verify an entry. `Some` means the entry's
    /// header, key, and every chunk digest checked out and the
    /// returned recording can be replayed straight into a model;
    /// `None` is a miss — including the corrupt-entry case, where the
    /// bad file has been logged, deleted, and counted so the caller's
    /// fresh recording replaces it.
    pub fn lookup(&self, key: &StoreKey) -> Option<StoredRecording> {
        let path = self.entry_path(key);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match self.verify_entry(&file, key) {
            Ok(rec) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(
                    file.metadata().map(|m| m.len()).unwrap_or(0),
                    Ordering::Relaxed,
                );
                Some(StoredRecording {
                    file,
                    data_start: rec.data_start,
                    summary: rec.summary,
                    work_ops: rec.work_ops,
                    fallback_refs: rec.fallback_refs,
                    histograms: rec.histograms,
                })
            }
            Err(e) => {
                eprintln!(
                    "trace store: entry for {} failed verification ({e}); \
                     deleting {} and re-recording",
                    key.stream_id,
                    path.display()
                );
                drop(file);
                let _ = fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parse and verify one entry file end to end (header, key string,
    /// chunked stream digests), reconstructing the stream's histograms
    /// along the way.
    fn verify_entry(&self, file: &File, key: &StoreKey) -> Result<VerifiedEntry, String> {
        (&*file)
            .seek(SeekFrom::Start(0))
            .map_err(|e| e.to_string())?;
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| e.to_string())?;
        if magic != ENTRY_MAGIC {
            return Err("bad entry magic".into());
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word).map_err(|e| e.to_string())?;
        let version = u32::from_le_bytes(word);
        if version != STORE_FORMAT_VERSION {
            return Err(format!(
                "store format version {version} (expected {STORE_FORMAT_VERSION})"
            ));
        }
        let mut meta = [0u8; 16];
        r.read_exact(&mut meta).map_err(|e| e.to_string())?;
        let work_ops = u64::from_le_bytes(meta[..8].try_into().expect("8 bytes"));
        let fallback_refs = u64::from_le_bytes(meta[8..].try_into().expect("8 bytes"));
        let mut len = [0u8; 2];
        r.read_exact(&mut len).map_err(|e| e.to_string())?;
        let key_len = u16::from_le_bytes(len) as usize;
        let mut key_bytes = vec![0u8; key_len];
        r.read_exact(&mut key_bytes).map_err(|e| e.to_string())?;
        let expected = self.key_string(key);
        if key_bytes != expected.as_bytes() {
            return Err(format!(
                "key mismatch: entry holds `{}`, wanted `{expected}`",
                String::from_utf8_lossy(&key_bytes)
            ));
        }
        let data_start = HEADER_FIXED + key_len as u64;
        let mut hist = HistSink::default();
        let summary = replay_chunked(&mut r, &mut hist).map_err(|e| e.to_string())?;
        Ok(VerifiedEntry {
            data_start,
            summary,
            work_ops,
            fallback_refs,
            histograms: hist.into_data(),
        })
    }

    /// Start inserting an entry: creates a uniquely named temp file in
    /// the store directory, writes the header (metadata zeroed, to be
    /// patched at commit), and returns the pending handle plus the
    /// spilling sink to record through — the recording goes to disk
    /// chunk by chunk, never resident in full.
    pub fn begin_insert(
        &self,
        key: &StoreKey,
    ) -> io::Result<(PendingEntry, SpillSink<BufWriter<File>>)> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{seq}.swst-partial", std::process::id()));
        // Read+write: the handle is handed back as a replayable
        // recording after the rename.
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let ks = self.key_string(key);
        assert!(ks.len() <= u16::MAX as usize, "key string too long");
        file.write_all(&ENTRY_MAGIC)?;
        file.write_all(&STORE_FORMAT_VERSION.to_le_bytes())?;
        file.write_all(&[0u8; 16])?; // work_ops + fallback_refs, patched at commit
        file.write_all(&(ks.len() as u16).to_le_bytes())?;
        file.write_all(ks.as_bytes())?;
        let data_start = HEADER_FIXED + ks.len() as u64;
        Ok((
            PendingEntry {
                tmp,
                final_path: self.entry_path(key),
                data_start,
            },
            SpillSink::new(BufWriter::new(file), self.chunk_budget),
        ))
    }

    /// Finish a pending insert: seal the chunked stream, patch the
    /// metadata into the header, atomically rename the temp file into
    /// place, and hand back the (still open, already renamed) file as
    /// a replayable recording. Runs the eviction sweep afterwards when
    /// a capacity is set.
    pub fn commit(
        &self,
        pending: PendingEntry,
        spill: SpillSink<BufWriter<File>>,
        work_ops: u64,
        fallback_refs: u64,
        histograms: TraceData,
    ) -> io::Result<StoredRecording> {
        let PendingEntry {
            tmp,
            final_path,
            data_start,
        } = pending;
        let commit_inner = || -> io::Result<(ChunkedSummary, File)> {
            let (summary, writer) = spill.finish()?;
            let mut file = writer.into_inner().map_err(|e| e.into_error())?;
            file.seek(SeekFrom::Start(META_OFFSET))?;
            file.write_all(&work_ops.to_le_bytes())?;
            file.write_all(&fallback_refs.to_le_bytes())?;
            file.flush()?;
            fs::rename(&tmp, &final_path)?;
            Ok((summary, file))
        };
        match commit_inner() {
            Ok((summary, file)) => {
                let len = file.metadata().map(|m| m.len()).unwrap_or(0);
                self.inserts.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(len, Ordering::Relaxed);
                self.evict_to_capacity(&final_path);
                Ok(StoredRecording {
                    file,
                    data_start,
                    summary,
                    work_ops,
                    fallback_refs,
                    histograms,
                })
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Delete oldest entries (by mtime) until the store fits its
    /// capacity, never touching `keep` (the entry just inserted). Open
    /// handles keep replaying evicted files; only fresh lookups miss.
    fn evict_to_capacity(&self, keep: &Path) {
        let Some(cap) = self.capacity else { return };
        let mut files = self.entry_files();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= cap {
                break;
            }
            if path == keep {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A verified entry's parsed contents (internal to lookup).
struct VerifiedEntry {
    data_start: u64,
    summary: ChunkedSummary,
    work_ops: u64,
    fallback_refs: u64,
    histograms: TraceData,
}

/// An in-flight insert: the temp file being recorded into (through
/// the [`SpillSink`] returned alongside it), finished by
/// [`TraceStore::commit`].
#[derive(Debug)]
pub struct PendingEntry {
    tmp: PathBuf,
    final_path: PathBuf,
    data_start: u64,
}

/// One verified on-disk recording, replayable any number of times.
/// Holds the entry file open, so eviction or replacement of the
/// directory entry cannot invalidate it mid-campaign.
#[derive(Debug)]
pub struct StoredRecording {
    file: File,
    data_start: u64,
    /// Chunked-stream shape (counts and digest), as verified on open.
    pub summary: ChunkedSummary,
    /// The recorded kernel invocation's useful-operation count.
    pub work_ops: u64,
    /// Fallback-pool references of the recorded session (0 for every
    /// registered kernel; the golden suite asserts it).
    pub fallback_refs: u64,
    /// Instruction histograms of the recorded stream.
    pub histograms: TraceData,
}

impl StoredRecording {
    /// Replay the recording into `sink`, streaming chunk by chunk —
    /// O(chunk budget) resident. Verification already happened on
    /// open, so a failure here means the file changed underneath an
    /// open handle (impossible through the store's own atomic
    /// replace/evict operations).
    ///
    /// # Panics
    ///
    /// Panics on I/O or decode errors; the campaign executor's
    /// per-group panic isolation turns that into a `KernelFailure`.
    pub fn replay_into(&mut self, sink: &mut dyn TraceSink) {
        (&self.file)
            .seek(SeekFrom::Start(self.data_start))
            .expect("seek stored recording");
        let summary = replay_chunked(BufReader::new(&self.file), sink)
            .expect("verified store entry must replay");
        assert_eq!(summary, self.summary, "stored recording changed shape");
    }

    /// Replay the recording as decoded instruction batches,
    /// double-buffered: chunk `k+1` is read, verified, and decoded
    /// while the consumer simulates chunk `k`
    /// ([`swan_simd::replay_chunked_batches`]). Same verification and
    /// panic contract as [`StoredRecording::replay_into`]; the
    /// concatenated batches equal what a sink without an
    /// `on_overhead` override would receive from it.
    pub fn replay_batches(&mut self, consume: impl FnMut(&[TraceInstr])) {
        (&self.file)
            .seek(SeekFrom::Start(self.data_start))
            .expect("seek stored recording");
        let summary = replay_chunked_batches(BufReader::new(&self.file), consume)
            .expect("verified store entry must replay");
        assert_eq!(summary, self.summary, "stored recording changed shape");
    }
}

/// Histogram-reconstruction sink: counts per-op/per-class totals in
/// O(1) per record (overhead runs are not expanded), matching what a
/// live session's `TraceData` reports for the same stream.
#[derive(Debug)]
struct HistSink {
    by_op: [u64; OP_COUNT],
    by_class: [u64; CLASS_COUNT],
}

impl Default for HistSink {
    fn default() -> HistSink {
        HistSink {
            by_op: [0; OP_COUNT],
            by_class: [0; CLASS_COUNT],
        }
    }
}

impl HistSink {
    fn into_data(self) -> TraceData {
        TraceData {
            by_op: self.by_op,
            by_class: self.by_class,
        }
    }
}

impl TraceSink for HistSink {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.by_op[ins.op as usize] += 1;
        self.by_class[ins.class as usize] += 1;
    }

    fn on_overhead(&mut self, op: Op, class: Class, _first_id: u32, n: u64) {
        self.by_op[op as usize] += n;
        self.by_class[class as usize] += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_simd::trace::MemRef;
    use swan_simd::VecSink;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swan-tracestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn feed(sink: &mut dyn TraceSink, n: u64) {
        let mut id = 1u32;
        for i in 0..n {
            sink.on_instr(&TraceInstr {
                op: Op::VLd1,
                class: Class::VLoad,
                dst: id,
                srcs: [0; 4],
                nsrc: 0,
                mem: Some(MemRef {
                    addr: 0xF000_0000_0000_0000 + i * 16,
                    bytes: 16,
                }),
            });
            id = id.wrapping_add(1);
        }
        sink.on_overhead(Op::SBranch, Class::SInt, id, 9);
    }

    fn insert(store: &TraceStore, key: &StoreKey, n: u64) -> StoredRecording {
        let (pending, mut sink) = store.begin_insert(key).expect("begin insert");
        feed(&mut sink, n);
        let mut hist = HistSink::default();
        feed(&mut hist, n);
        store
            .commit(pending, sink, 1234, 0, hist.into_data())
            .expect("commit")
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let dir = test_dir("roundtrip");
        let store = TraceStore::open(&dir, &[]).expect("open").chunk_budget(64);
        let key = StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.25), 42);
        assert!(store.lookup(&key).is_none(), "cold store misses");
        let mut fresh = insert(&store, &key, 100);
        let mut from_fresh = VecSink::default();
        fresh.replay_into(&mut from_fresh);

        let mut stored = store.lookup(&key).expect("warm store hits");
        assert_eq!(stored.work_ops, 1234);
        assert_eq!(stored.fallback_refs, 0);
        assert_eq!(stored.histograms.total(), 109);
        let mut from_disk = VecSink::default();
        stored.replay_into(&mut from_disk);
        assert_eq!(from_fresh.instrs, from_disk.instrs);
        // Replay is repeatable on one handle.
        let mut again = VecSink::default();
        stored.replay_into(&mut again);
        assert_eq!(from_disk.instrs, again.instrs);

        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!(s.bytes_written > 0 && s.bytes_read > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let dir = test_dir("keys");
        let store = TraceStore::open(&dir, &[]).expect("open");
        let a = StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.25), 42);
        for other in [
            StoreKey::group("ZL.adler32", Impl::Scalar, Width::W128, Scale(0.25), 42),
            StoreKey::group("ZL.adler32", Impl::Neon, Width::W256, Scale(0.25), 42),
            StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.5), 42),
            StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.25), 7),
            StoreKey::group("ZL.crc32", Impl::Neon, Width::W128, Scale(0.25), 42),
        ] {
            assert_ne!(store.entry_path(&a), store.entry_path(&other));
        }
        insert(&store, &a, 10);
        assert!(store
            .lookup(&StoreKey::group(
                "ZL.adler32",
                Impl::Neon,
                Width::W128,
                Scale(0.25),
                7
            ))
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let dir = test_dir("evict");
        let store = TraceStore::open(&dir, &[])
            .expect("open")
            .chunk_budget(64)
            .capacity(1); // everything but the newest entry must go
        let keys: Vec<StoreKey> = (0..3)
            .map(|i| StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.25), i))
            .collect();
        for k in &keys {
            insert(&store, k, 50);
        }
        let (entries, _) = store.disk_usage();
        assert_eq!(entries, 1, "only the just-inserted entry survives");
        assert_eq!(store.stats().evictions, 2);
        assert!(store.lookup(&keys[2]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_store() {
        let dir = test_dir("clear");
        let store = TraceStore::open(&dir, &[]).expect("open");
        let key = StoreKey::group("ZL.adler32", Impl::Neon, Width::W128, Scale(0.25), 42);
        insert(&store, &key, 10);
        assert_eq!(store.disk_usage().0, 1);
        store.clear().expect("clear");
        assert_eq!(store.disk_usage().0, 0);
        assert!(store.lookup(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inventory_digest_tracks_roster_changes() {
        let empty: Vec<Box<dyn Kernel>> = Vec::new();
        let d = inventory_digest(&empty);
        assert_ne!(d, 0);
        // Stable across calls.
        assert_eq!(d, inventory_digest(&empty));
    }
}

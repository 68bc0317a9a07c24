//! Persistent content-addressed cache store.
//!
//! The store maps 128-bit content signatures (see
//! [`StageSig`](crate::StageSig)) to opaque payload bytes and persists them
//! in *append-only segment files* under one directory. The evaluator keeps
//! its transient solves there ([`NS_SOLVE`]), the one result that is
//! costly to recompute, so they survive process restarts and are shared
//! across concurrent campaign workers and the serve daemon. Stage
//! lowerings and `INITIAL` trees are not stored: they are cheap to
//! recompute, and a key over a run's inputs would not cover the code that
//! builds them, so a store could replay what an older build computed.
//!
//! # Layout and sharing model
//!
//! A store directory holds any number of `*.seg` files. Each file starts
//! with an 8-byte magic and is followed by self-checking records:
//!
//! ```text
//! ns: u8 | key.lo: u64 | key.hi: u64 | len: u32 | checksum: u64 | payload
//! ```
//!
//! (all integers little-endian; the checksum is FNV-1a over the namespace,
//! key and payload bytes). Every [`CacheStore`] instance appends to its
//! *own* segment file, created with `create_new` under a process-unique
//! name, so concurrent writers — threads, the daemon, other processes —
//! never interleave bytes in one file and need no locks. Readers tolerate a
//! file whose tail is still being written: the first record that fails its
//! checksum (or runs past the end of the file) ends the scan of that file.
//!
//! # Snapshot vs. added entries
//!
//! Entries present on disk when the store is opened form the immutable
//! *snapshot*, read lock-free for the store's lifetime. Entries inserted
//! later live in a mutex-guarded side map (and are appended to the segment
//! file). The split is what keeps per-job cache accounting deterministic:
//! snapshot membership is a pure function of the directory at open time,
//! independent of worker scheduling.
//!
//! # Corruption
//!
//! A truncated, bit-flipped or partially written record is never an error
//! and never a wrong result: the checksum rejects it, the rest of that
//! segment is skipped, and the affected keys simply degrade to cold misses
//! (recomputed and re-appended by whoever needs them). Only real I/O
//! failures — an unreadable directory, a failed append — surface as
//! [`StoreError`].

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Namespace for transition-solve payloads keyed by a mix of the stage
/// signature, the evaluation-context fingerprint and the solve key.
///
/// Namespaces 1 (lowered stages) and 3 (`INITIAL` trees) are retired and
/// not reused: stores written when they were in use still open, and
/// [`CacheStore::open`] leaves their entries out of the snapshot.
pub const NS_SOLVE: u8 = 2;

/// Namespaces no build reads any more. [`CacheStore::open`] checks their
/// records like any other, so the scan still walks past them, and then
/// leaves them out of the snapshot.
const RETIRED_NAMESPACES: [u8; 2] = [1, 3];

/// Magic bytes opening every segment file.
const MAGIC: [u8; 8] = *b"CTGCACH1";
/// Fixed per-record header size: ns + key + payload length + checksum.
const RECORD_HEADER: usize = 1 + 8 + 8 + 4 + 8;
/// Upper bound on a single payload; anything larger is treated as
/// corruption on read and silently not persisted on write.
const MAX_PAYLOAD: usize = 64 << 20;

/// A content address: a namespace plus a 128-bit content signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Payload namespace ([`NS_SOLVE`] or a user-chosen namespace ≥ 16).
    pub ns: u8,
    /// Low 64 bits of the content signature.
    pub lo: u64,
    /// High 64 bits of the content signature.
    pub hi: u64,
}

impl StoreKey {
    /// Creates a key from a namespace and the two signature halves.
    pub fn new(ns: u8, lo: u64, hi: u64) -> Self {
        Self { ns, lo, hi }
    }
}

/// Deterministic cache-lookup counters.
///
/// These are the fields surfaced in campaign JSONL lines, the suite cache
/// table and daemon response frames; they are wall-clock-free and, when
/// produced by a per-job cache profile (see
/// [`IncrementalEvaluator::take_job_profile`](crate::IncrementalEvaluator::take_job_profile)),
/// independent of worker count and scheduling: the job runs on an
/// evaluator with empty caches, and only the store's open-time snapshot
/// counts as disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from in-memory caches.
    pub mem_hits: u64,
    /// Lookups answered from the on-disk snapshot.
    pub disk_hits: u64,
    /// Lookups that found nothing and had to compute, plus those answered
    /// by store entries added after the store opened (a cold evaluator
    /// without a store computes those too).
    pub misses: u64,
    /// Entries evicted from bounded in-memory caches.
    pub evictions: u64,
}

impl CacheCounters {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: CacheCounters) {
        self.mem_hits += other.mem_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// Total number of lookups counted.
    pub fn lookups(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.misses
    }
}

/// A real I/O failure of the store (never mere data corruption).
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system error while reading or writing the store.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "cache store I/O error at {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Which tier of the store answered a [`CacheStore::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// The entry was on disk when the store was opened.
    Snapshot,
    /// The entry was inserted after the store was opened (by this
    /// process; other processes' later appends are not visible until the
    /// next open).
    Added,
}

#[derive(Debug, Default)]
struct Inner {
    added: HashMap<StoreKey, Vec<u8>>,
    writer: Option<Writer>,
}

#[derive(Debug)]
struct Writer {
    path: PathBuf,
    file: fs::File,
}

/// Distinguishes segment files created by several stores within one
/// process (threads of a campaign, the daemon's per-request stores, …).
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A persistent content-addressed cache backed by one directory of
/// append-only segment files. See the [module docs](self) for the layout,
/// sharing and corruption model.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    snapshot: HashMap<StoreKey, Vec<u8>>,
    corrupt_segments: usize,
    inner: Mutex<Inner>,
}

impl CacheStore {
    /// Opens (creating if necessary) the store at `dir` and scans every
    /// segment file into the immutable snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created or
    /// listed, or a segment file cannot be read. Corrupt records are *not*
    /// errors; they end the scan of their file and are counted in
    /// [`CacheStore::corrupt_segments`].
    pub fn open(dir: impl AsRef<Path>) -> Result<CacheStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let io = |path: &Path, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;
        let mut segments: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io(&dir, e))? {
            let entry = entry.map_err(|e| io(&dir, e))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "seg") {
                segments.push(path);
            }
        }
        // Scan in file-name order so the snapshot is a pure function of
        // the directory contents, not of readdir order.
        segments.sort();
        let mut snapshot = HashMap::new();
        let mut corrupt_segments = 0;
        for path in &segments {
            let bytes = fs::read(path).map_err(|e| io(path, e))?;
            if !scan_segment(&bytes, &mut snapshot) {
                corrupt_segments += 1;
            }
        }
        Ok(CacheStore {
            dir,
            snapshot,
            corrupt_segments,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries in the immutable open-time snapshot.
    pub fn snapshot_len(&self) -> usize {
        self.snapshot.len()
    }

    /// Number of entries inserted since the store was opened.
    pub fn added_len(&self) -> usize {
        self.inner.lock().expect("store lock").added.len()
    }

    /// Number of segment files whose scan ended at a corrupt or partial
    /// record (their remaining entries degraded to cold misses).
    pub fn corrupt_segments(&self) -> usize {
        self.corrupt_segments
    }

    /// Looks up `key`, preferring the lock-free snapshot. The tier tells a
    /// per-job cache profile whether the answer was on disk at open time
    /// (a pure function of the directory) or added since (which depends on
    /// scheduling).
    pub fn get(&self, key: StoreKey) -> Option<(Vec<u8>, HitTier)> {
        if let Some(payload) = self.snapshot.get(&key) {
            return Some((payload.clone(), HitTier::Snapshot));
        }
        let inner = self.inner.lock().expect("store lock");
        inner
            .added
            .get(&key)
            .map(|payload| (payload.clone(), HitTier::Added))
    }

    /// Inserts `payload` under `key` and appends it to this store's
    /// segment file. A key already present (either tier) is left untouched
    /// — entries are content-addressed, so equal keys mean equal payloads.
    /// Oversized payloads are silently not persisted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the segment file cannot be created
    /// or appended to. Callers for whom the cache is best-effort may ignore
    /// the error; the in-memory side map is updated regardless, so a store
    /// on a read-only directory still deduplicates within the process.
    pub fn put(&self, key: StoreKey, payload: &[u8]) -> Result<(), StoreError> {
        if payload.len() > MAX_PAYLOAD || self.snapshot.contains_key(&key) {
            return Ok(());
        }
        let mut inner = self.inner.lock().expect("store lock");
        if inner.added.contains_key(&key) {
            return Ok(());
        }
        inner.added.insert(key, payload.to_vec());
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.push(key.ns);
        record.extend_from_slice(&key.lo.to_le_bytes());
        record.extend_from_slice(&key.hi.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&record_checksum(key, payload).to_le_bytes());
        record.extend_from_slice(payload);
        let writer = match inner.writer.as_mut() {
            Some(writer) => writer,
            None => {
                let writer = self.create_segment()?;
                inner.writer.insert(writer)
            }
        };
        // One write per record keeps a concurrently scanning reader's
        // exposure to a partial tail record, which its checksum rejects.
        writer
            .file
            .write_all(&record)
            .and_then(|()| writer.file.flush())
            .map_err(|e| StoreError::Io {
                path: writer.path.clone(),
                message: e.to_string(),
            })
    }

    /// Creates this store's private segment file under a name unique
    /// across processes (pid) and across stores within a process
    /// (sequence counter), so append-only writers never share a file.
    fn create_segment(&self) -> Result<Writer, StoreError> {
        let pid = std::process::id();
        loop {
            let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!("{pid:08x}-{seq:04x}.seg"));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(&MAGIC)
                        .and_then(|()| file.flush())
                        .map_err(|e| StoreError::Io {
                            path: path.clone(),
                            message: e.to_string(),
                        })?;
                    return Ok(Writer { path, file });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => {
                    return Err(StoreError::Io {
                        path,
                        message: e.to_string(),
                    })
                }
            }
        }
    }
}

/// Scans one segment file's bytes into `snapshot`, leaving out the records
/// of [`RETIRED_NAMESPACES`]. Returns `false` when the scan stopped early
/// at a corrupt or partial record.
fn scan_segment(bytes: &[u8], snapshot: &mut HashMap<StoreKey, Vec<u8>>) -> bool {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return false;
    }
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER {
            return false;
        }
        let ns = bytes[pos];
        let lo = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(bytes[pos + 9..pos + 17].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[pos + 17..pos + 21].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[pos + 21..pos + 29].try_into().expect("8 bytes"));
        pos += RECORD_HEADER;
        if len > MAX_PAYLOAD || bytes.len() - pos < len {
            return false;
        }
        let key = StoreKey::new(ns, lo, hi);
        let payload = &bytes[pos..pos + len];
        if record_checksum(key, payload) != checksum {
            return false;
        }
        if !RETIRED_NAMESPACES.contains(&ns) {
            snapshot.entry(key).or_insert_with(|| payload.to_vec());
        }
        pos += len;
    }
    true
}

/// FNV-1a over the namespace, key and payload bytes; covering the key
/// means a bit flip in the *key* is caught too, not just in the payload.
fn record_checksum(key: StoreKey, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&[key.ns]);
    eat(&key.lo.to_le_bytes());
    eat(&key.hi.to_le_bytes());
    eat(payload);
    h
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Builds a little-endian payload word by word. The workspace's vendored
/// `serde` is a no-op stand-in, so the solve codec is hand-rolled on this;
/// floats are stored via [`f64::to_bits`], so decoded values are bit-exact
/// and warm runs stay byte-identical to cold ones.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64`, little-endian.
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its bit pattern.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// The encoded bytes.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads a payload written by [`ByteWriter`]. Every accessor returns
/// `None` past the end of the buffer (or on a malformed value), so decoders
/// written as `?`-chains degrade corrupt payloads to cold misses instead of
/// panicking.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` stored as a `u64`; `None` when it does not fit.
    pub(crate) fn take_usize(&mut self) -> Option<usize> {
        usize::try_from(self.take_u64()?).ok()
    }

    /// Reads an `f64` from its bit pattern.
    pub(crate) fn take_f64(&mut self) -> Option<f64> {
        self.take_u64().map(f64::from_bits)
    }

    /// Whether the whole buffer was consumed; decoders check this last so
    /// trailing garbage is rejected.
    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "contango-store-{tag}-{}-{}",
            std::process::id(),
            SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entries_survive_a_reopen_as_snapshot() {
        let dir = temp_dir("reopen");
        let key = StoreKey::new(NS_SOLVE, 7, 9);
        {
            let store = CacheStore::open(&dir).expect("open");
            assert_eq!(store.snapshot_len(), 0);
            store.put(key, b"payload").expect("put");
            // Same-process lookups see the entry in the added tier.
            assert_eq!(store.get(key), Some((b"payload".to_vec(), HitTier::Added)));
        }
        let store = CacheStore::open(&dir).expect("reopen");
        assert_eq!(store.snapshot_len(), 1);
        assert_eq!(
            store.get(key),
            Some((b"payload".to_vec(), HitTier::Snapshot))
        );
        assert_eq!(store.corrupt_segments(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_namespaces_stay_out_of_the_snapshot() {
        let dir = temp_dir("retired");
        let solve = StoreKey::new(NS_SOLVE, 5, 6);
        {
            let store = CacheStore::open(&dir).expect("open");
            store.put(StoreKey::new(1, 5, 6), b"stage").expect("put");
            store.put(solve, b"solve").expect("put");
            store.put(StoreKey::new(3, 5, 6), b"tree").expect("put");
        }
        let store = CacheStore::open(&dir).expect("reopen");
        assert_eq!(store.snapshot_len(), 1);
        assert_eq!(
            store.get(solve),
            Some((b"solve".to_vec(), HitTier::Snapshot))
        );
        assert_eq!(store.get(StoreKey::new(1, 5, 6)), None);
        assert_eq!(store.corrupt_segments(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_write_once() {
        let dir = temp_dir("dedup");
        {
            let store = CacheStore::open(&dir).expect("open");
            let key = StoreKey::new(NS_SOLVE, 1, 2);
            for _ in 0..5 {
                store.put(key, b"abc").expect("put");
            }
            assert_eq!(store.added_len(), 1);
        }
        let store = CacheStore::open(&dir).expect("reopen");
        assert_eq!(store.snapshot_len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_degrades_to_missing_entries() {
        let dir = temp_dir("trunc");
        {
            let store = CacheStore::open(&dir).expect("open");
            store
                .put(StoreKey::new(NS_SOLVE, 1, 1), b"first")
                .expect("put");
            store
                .put(StoreKey::new(NS_SOLVE, 2, 2), b"second")
                .expect("put");
        }
        // Chop bytes off the single segment file's tail: the first record
        // must survive, the second must vanish, and nothing may panic.
        let seg = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("segment");
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 3]).expect("truncate");
        let store = CacheStore::open(&dir).expect("reopen");
        assert_eq!(
            store.get(StoreKey::new(NS_SOLVE, 1, 1)),
            Some((b"first".to_vec(), HitTier::Snapshot))
        );
        assert_eq!(store.get(StoreKey::new(NS_SOLVE, 2, 2)), None);
        assert_eq!(store.corrupt_segments(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_rejected_by_the_checksum() {
        let dir = temp_dir("flip");
        {
            let store = CacheStore::open(&dir).expect("open");
            store
                .put(StoreKey::new(NS_SOLVE, 3, 4), b"payload!")
                .expect("put");
        }
        let seg = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("segment");
        let mut bytes = fs::read(&seg).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&seg, &bytes).expect("rewrite");
        let store = CacheStore::open(&dir).expect("reopen");
        assert_eq!(store.snapshot_len(), 0);
        assert_eq!(store.corrupt_segments(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_writer_and_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-0.125);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u64(), Some(u64::MAX - 1));
        assert_eq!(r.take_usize(), Some(42));
        assert_eq!(r.take_f64(), Some(-0.125));
        assert!(r.is_done());
        assert_eq!(r.take_u64(), None);
    }

    #[test]
    fn counters_absorb_and_count_lookups() {
        let mut a = CacheCounters {
            mem_hits: 1,
            disk_hits: 2,
            misses: 3,
            evictions: 4,
        };
        a.absorb(CacheCounters {
            mem_hits: 10,
            disk_hits: 20,
            misses: 30,
            evictions: 40,
        });
        assert_eq!(a.mem_hits, 11);
        assert_eq!(a.disk_hits, 22);
        assert_eq!(a.misses, 33);
        assert_eq!(a.evictions, 44);
        assert_eq!(a.lookups(), 66);
    }
}

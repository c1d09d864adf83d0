//! Append-only write-ahead log with group commit.
//!
//! The snapshot path ([`Database::save_to`](crate::Database::save_to))
//! re-serializes and fsyncs the whole database on every call — O(total DB
//! size) per write. The WAL makes the write path O(delta): each mutation is
//! appended to a log as one checksummed, length-prefixed frame, and a
//! **group-commit** layer coalesces concurrent writers into a single fsync.
//!
//! # Frame format
//!
//! A log segment starts with the 8-byte magic [`WAL_MAGIC`] followed by a
//! sequence of frames:
//!
//! ```text
//! ┌──────────┬─────────────┬───────────────────┬──────────────────────┐
//! │ LSN (u64 │ payload len │ payload: encoded  │ SHA-256 over         │
//! │ LE, 8 B) │ (u32 LE, 4B)│ Mutation (codec)  │ lsn‖len‖payload (32B)│
//! └──────────┴─────────────┴───────────────────┴──────────────────────┘
//! ```
//!
//! LSNs are assigned densely and monotonically; [`scan_segment`] rejects any
//! frame that breaks the sequence, fails its checksum, or is truncated, and
//! reports the byte length of the well-formed prefix so recovery can cut a
//! torn tail without ever losing an *acked* (committed) record.
//!
//! # Group commit
//!
//! [`Wal::append_put`] and friends stamp the mutation with the next LSN and
//! buffer the encoded frame in memory — that LSN is the writer's *commit
//! ticket*. [`Wal::commit`] then parks the writer until `durable_lsn` covers
//! its ticket: the first writer to arrive becomes the *flush leader* and at
//! once writes + fsyncs everything pending with the state lock released
//! (appenders keep making progress during the fsync). Writers that commit
//! while that fsync is in flight wait on the condvar; when it completes,
//! the first of them to wake leads one flush of everything they appended
//! meanwhile. The fsync in flight is the only batching window: the log
//! never sleeps to wait for writers.
//!
//! I/O failures are sticky: once a flush fails, every in-flight and future
//! commit reports the error rather than silently running non-durably.

use crate::codec;
use crate::error::StoreError;
use amnesia_crypto::{ct_eq, sha256_concat};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Log sequence number. LSN 0 means "nothing logged"; the first mutation
/// gets LSN 1. LSNs are dense: every append increments by exactly one.
pub type Lsn = u64;

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"AWALOG1\0";

/// Bytes of frame header (LSN + payload length) preceding the payload.
pub const FRAME_HEADER_LEN: usize = 12;

/// Bytes of SHA-256 trailer following the payload.
pub const FRAME_TRAILER_LEN: usize = 32;

/// One logged mutation, in the order it was applied to the in-memory maps.
///
/// Replaying mutations in LSN order over a snapshot reproduces the database
/// exactly: `Put`/`Remove` are keyed upserts/deletes, so re-applying a
/// record that the snapshot already folded in is harmless (idempotent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Insert or replace the row `key` of `table` with `value`.
    Put {
        /// Target table name.
        table: String,
        /// Encoded key bytes.
        key: Vec<u8>,
        /// Encoded row bytes.
        value: Vec<u8>,
    },
    /// Remove the row `key` of `table` (no-op if absent).
    Remove {
        /// Target table name.
        table: String,
        /// Encoded key bytes.
        key: Vec<u8>,
    },
    /// Drop `table` and all its rows.
    DropTable {
        /// Target table name.
        table: String,
    },
    /// Remove every row of `table`, keeping the (empty) table.
    ClearTable {
        /// Target table name.
        table: String,
    },
}

crate::record_enum! {
    Mutation {
        0 => Put { table, key, value },
        1 => Remove { table, key },
        2 => DropTable { table },
        3 => ClearTable { table },
    }
}

/// Tuning knobs for the durable write path.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Whether the leader fsyncs after writing. Disabling this trades crash
    /// durability for throughput (page-cache writes only) — used by the
    /// benchmarks to build long logs quickly, never by the server.
    pub fsync: bool,
    /// Auto-compaction threshold for
    /// [`Database::compact_if_needed`](crate::Database::compact_if_needed):
    /// compact once the live log exceeds this many bytes. `None` disables
    /// automatic compaction.
    pub compact_log_bytes: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: true,
            compact_log_bytes: Some(64 * 1024 * 1024),
        }
    }
}

/// Sink for WAL bytes. The production implementation is [`DiskWalFile`];
/// tests inject faulting implementations to prove that a commit is only
/// acked once its bytes have reached `sync`.
pub trait WalFile: Send {
    /// Appends raw bytes to the log tail.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes every appended byte durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// [`WalFile`] backed by a real file, the segment's parent directory
/// fsynced on creation so the file itself survives a crash.
pub struct DiskWalFile {
    file: fs::File,
}

impl DiskWalFile {
    /// Creates a fresh segment at `path`: writes the magic header, fsyncs
    /// the file, then fsyncs the parent directory so the creation itself is
    /// durable.
    pub fn create(path: &Path) -> std::io::Result<DiskWalFile> {
        let mut file = fs::OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        sync_parent_dir(path)?;
        Ok(DiskWalFile { file })
    }

    /// Opens an existing segment for appending (recovery reopens the tail
    /// segment after validating it).
    pub fn open_append(path: &Path) -> std::io::Result<DiskWalFile> {
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(DiskWalFile { file })
    }
}

impl WalFile for DiskWalFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// Fsyncs the parent directory of `path`, making a rename or file creation
/// within it durable. A rename is only crash-safe once the *directory*
/// entry has been synced; fsyncing the file alone is not enough.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

/// Counters exported by [`Wal::stats`]: enough to compute the group-commit
/// coalescing ratio (`appended_records / flushes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Mutations appended (tickets issued).
    pub appended_records: u64,
    /// Flush-leader write+sync passes (one fsync each when fsync is on).
    pub flushes: u64,
    /// Total frame bytes written by flushes.
    pub flushed_bytes: u64,
}

struct WalState {
    /// Encoded frames appended but not yet handed to a flush leader.
    pending: Vec<u8>,
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Highest LSN whose frame has been written and synced.
    durable_lsn: Lsn,
    /// A flush leader is writing outside the lock.
    flushing: bool,
    /// Sticky I/O failure: set on the first failed flush, fails every
    /// subsequent commit.
    failed: Option<String>,
    /// Bytes appended to the current segment since the last rotation
    /// (drives the auto-compaction threshold).
    segment_bytes: u64,
    /// Scratch buffer reused across payload encodings.
    scratch: Vec<u8>,
}

/// The write-ahead log: ticketed appends plus a group-committing flusher.
///
/// Created internally by
/// [`Database::open_durable`](crate::Database::open_durable); tests can
/// build one over an injected [`WalFile`] via [`Wal::with_file`].
pub struct Wal {
    state: Mutex<WalState>,
    /// Touched only by the flush leader (and rotation). Lock order: `state`
    /// before `file`; the leader takes `file` *without* holding `state`, so
    /// appends keep making progress during the fsync. Rotation takes both
    /// (state first) only after draining any in-flight flush, so no cycle.
    file: Mutex<Box<dyn WalFile>>,
    cv: Condvar,
    fsync: bool,
    appended_records: AtomicU64,
    flushes: AtomicU64,
    flushed_bytes: AtomicU64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock_state();
        f.debug_struct("Wal")
            .field("next_lsn", &st.next_lsn)
            .field("durable_lsn", &st.durable_lsn)
            .field("pending_bytes", &st.pending.len())
            .finish()
    }
}

impl Wal {
    /// Builds a WAL over `file`, which must already be positioned at the
    /// end of a valid log whose last record is `last_lsn` (0 for a fresh
    /// log). `segment_bytes` seeds the compaction accounting with the bytes
    /// already in the tail segment.
    pub fn with_file(file: Box<dyn WalFile>, last_lsn: Lsn, config: &DurabilityConfig) -> Wal {
        Wal {
            state: Mutex::new(WalState {
                pending: Vec::new(),
                next_lsn: last_lsn.saturating_add(1),
                durable_lsn: last_lsn,
                flushing: false,
                failed: None,
                segment_bytes: 0,
                scratch: Vec::new(),
            }),
            file: Mutex::new(file),
            cv: Condvar::new(),
            fsync: config.fsync,
            appended_records: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flushed_bytes: AtomicU64::new(0),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, WalState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_file(&self) -> MutexGuard<'_, Box<dyn WalFile>> {
        self.file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends a `Put` frame; returns the commit ticket.
    pub fn append_put(&self, table: &str, key: &[u8], value: &[u8]) -> Result<Lsn, StoreError> {
        self.append_payload(|out| {
            codec::write_varint(0, out);
            write_bytes(table.as_bytes(), out);
            write_bytes(key, out);
            write_bytes(value, out);
        })
    }

    /// Appends a `Remove` frame; returns the commit ticket.
    pub fn append_remove(&self, table: &str, key: &[u8]) -> Result<Lsn, StoreError> {
        self.append_payload(|out| {
            codec::write_varint(1, out);
            write_bytes(table.as_bytes(), out);
            write_bytes(key, out);
        })
    }

    /// Appends a `DropTable` frame; returns the commit ticket.
    pub fn append_drop_table(&self, table: &str) -> Result<Lsn, StoreError> {
        self.append_payload(|out| {
            codec::write_varint(2, out);
            write_bytes(table.as_bytes(), out);
        })
    }

    /// Appends a `ClearTable` frame; returns the commit ticket.
    pub fn append_clear(&self, table: &str) -> Result<Lsn, StoreError> {
        self.append_payload(|out| {
            codec::write_varint(3, out);
            write_bytes(table.as_bytes(), out);
        })
    }

    fn append_payload(&self, build: impl FnOnce(&mut Vec<u8>)) -> Result<Lsn, StoreError> {
        let mut st = self.lock_state();
        if let Some(reason) = &st.failed {
            return Err(wal_failed(reason));
        }
        let mut payload = std::mem::take(&mut st.scratch);
        payload.clear();
        build(&mut payload);
        let lsn = st.next_lsn;
        let framed = encode_frame(lsn, &payload, &mut st.pending);
        st.scratch = payload;
        let frame_len = framed?;
        st.next_lsn = lsn.saturating_add(1);
        st.segment_bytes = st.segment_bytes.saturating_add(frame_len);
        self.appended_records.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Parks until every record up to and including `lsn` is durable.
    ///
    /// # Errors
    ///
    /// Returns the sticky I/O error if any flush has failed; the record may
    /// then be in memory but is not guaranteed on disk.
    pub fn commit(&self, lsn: Lsn) -> Result<(), StoreError> {
        let mut st = self.lock_state();
        loop {
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if let Some(reason) = &st.failed {
                return Err(wal_failed(reason));
            }
            if st.flushing {
                // A leader is writing our batch (or the one before it);
                // park on the commit ticket until durable_lsn advances.
                // lint: allow(lock-discipline) condvar wait releases the guard while parked
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                continue;
            }
            // We are the flush leader: write + sync everything pending
            // outside the lock, at once.
            st.flushing = true;
            let batch = std::mem::take(&mut st.pending);
            let target = st.next_lsn.saturating_sub(1);
            drop(st);

            let write_res = self.write_batch_to_file(&batch);

            st = self.lock_state();
            st.flushing = false;
            match write_res {
                Ok(()) => {
                    st.durable_lsn = st.durable_lsn.max(target);
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                    self.flushed_bytes
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                }
                Err(e) => {
                    st.failed = Some(e.to_string());
                }
            }
            self.cv.notify_all();
        }
    }

    /// Writes and (configurably) syncs one batch. Called by the flush
    /// leader with the state lock released, so appends continue in parallel.
    fn write_batch_to_file(&self, batch: &[u8]) -> std::io::Result<()> {
        let mut file = self.lock_file();
        if !batch.is_empty() {
            file.append(batch)?;
        }
        if self.fsync {
            file.sync()
        } else {
            Ok(())
        }
    }

    /// Flushes everything appended so far and returns the highest durable
    /// LSN — the compaction cut.
    pub fn sync_all(&self) -> Result<Lsn, StoreError> {
        let target = self.lock_state().next_lsn.saturating_sub(1);
        self.commit(target)?;
        Ok(target)
    }

    /// Highest LSN acked durable so far.
    pub fn durable_lsn(&self) -> Lsn {
        self.lock_state().durable_lsn
    }

    /// Bytes appended to the current segment since the last rotation.
    pub fn segment_bytes(&self) -> u64 {
        self.lock_state().segment_bytes
    }

    /// Seeds the segment-size accounting with bytes already present in the
    /// tail segment at recovery, so a reopened log still compacts on time.
    pub(crate) fn seed_segment_bytes(&self, bytes: u64) {
        self.lock_state().segment_bytes = bytes;
    }

    /// Flush/append counters for coalescing-ratio reporting.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended_records: self.appended_records.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_bytes: self.flushed_bytes.load(Ordering::Relaxed),
        }
    }

    /// Seals the current segment and switches appends to a fresh one in
    /// `dir`, returning the cut LSN `S`: every record with LSN ≤ S is
    /// durable in sealed segments; every later record lands in the new
    /// segment. If the current segment holds no frames, no new file is
    /// created and the current segment simply continues.
    pub(crate) fn rotate(&self, dir: &Path) -> Result<Lsn, StoreError> {
        let mut st = self.lock_state();
        loop {
            if let Some(reason) = &st.failed {
                return Err(wal_failed(reason));
            }
            if !st.flushing {
                break;
            }
            // Drain the in-flight flush before swapping files.
            // lint: allow(lock-discipline) condvar wait releases the guard while parked
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let cut = st.next_lsn.saturating_sub(1);
        // No leader is in flight and we hold the state lock, so taking the
        // file lock here (state → file order) cannot deadlock. Appends
        // pause on the state lock for the duration — rotation is rare (one
        // per compaction).
        let mut file = self.lock_file();
        if !st.pending.is_empty() {
            let batch = std::mem::take(&mut st.pending);
            let res = file
                .append(&batch)
                .and_then(|()| if self.fsync { file.sync() } else { Ok(()) });
            if let Err(e) = res {
                st.failed = Some(e.to_string());
                self.cv.notify_all();
                return Err(StoreError::Io(e));
            }
            st.durable_lsn = st.durable_lsn.max(cut);
            st.segment_bytes = st.segment_bytes.saturating_add(batch.len() as u64);
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.flushed_bytes
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.cv.notify_all();
        }
        if st.segment_bytes > 0 {
            let next = segment_path(dir, cut.saturating_add(1));
            let fresh = DiskWalFile::create(&next)?;
            *file = Box::new(fresh);
            st.segment_bytes = 0;
        }
        Ok(cut)
    }
}

fn wal_failed(reason: &str) -> StoreError {
    StoreError::Io(std::io::Error::other(format!(
        "write-ahead log failed: {reason}"
    )))
}

fn write_bytes(b: &[u8], out: &mut Vec<u8>) {
    codec::write_varint(b.len() as u64, out);
    out.extend_from_slice(b);
}

/// Encodes one frame (header, payload, checksum trailer) into `out`,
/// returning the frame's byte length.
fn encode_frame(lsn: Lsn, payload: &[u8], out: &mut Vec<u8>) -> Result<u64, StoreError> {
    let payload_len = u32::try_from(payload.len()).map_err(|_| StoreError::Corrupt {
        reason: "wal record payload exceeds 4 GiB".into(),
    })?;
    let lsn_bytes = lsn.to_le_bytes();
    let len_bytes = payload_len.to_le_bytes();
    out.reserve(FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN);
    out.extend_from_slice(&lsn_bytes);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(payload);
    out.extend_from_slice(&sha256_concat(&[&lsn_bytes, &len_bytes, payload]));
    Ok((FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN) as u64)
}

/// One decoded WAL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The frame's log sequence number.
    pub lsn: Lsn,
    /// The decoded mutation.
    pub mutation: Mutation,
}

/// Result of scanning one segment's bytes.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Frames of the well-formed prefix, in LSN order.
    pub records: Vec<WalRecord>,
    /// Byte length of the well-formed prefix (magic included). Equal to the
    /// input length when `clean`.
    pub valid_len: u64,
    /// Whether the whole segment parsed: `false` means a torn or corrupt
    /// tail begins at `valid_len`.
    pub clean: bool,
}

/// Parses a segment: magic header then frames, stopping at the first
/// truncated frame, checksum mismatch, undecodable payload, or LSN-sequence
/// break. Everything before the stop point is returned; recovery truncates
/// the file at `valid_len` and carries on.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] only if the magic header itself is
/// missing or wrong — the file is then not a WAL segment at all.
pub fn scan_segment(bytes: &[u8]) -> Result<ScanOutcome, StoreError> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            reason: "bad wal segment magic".into(),
        });
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let mut prev_lsn: Option<Lsn> = None;
    let clean = loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            break true;
        }
        let Some(frame) = decode_frame(rest) else {
            break false;
        };
        let (lsn, payload, frame_len) = frame;
        if let Some(prev) = prev_lsn {
            if lsn != prev.saturating_add(1) {
                break false;
            }
        }
        let Ok(mutation) = codec::from_bytes::<Mutation>(payload) else {
            break false;
        };
        records.push(WalRecord { lsn, mutation });
        prev_lsn = Some(lsn);
        offset += frame_len;
    };
    Ok(ScanOutcome {
        records,
        valid_len: offset as u64,
        clean,
    })
}

/// Decodes one frame from the head of `bytes`: returns `(lsn, payload,
/// frame_len)` or `None` on truncation / checksum mismatch.
fn decode_frame(bytes: &[u8]) -> Option<(Lsn, &[u8], usize)> {
    if bytes.len() < FRAME_HEADER_LEN + FRAME_TRAILER_LEN {
        return None;
    }
    let lsn_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    let len_bytes: [u8; 4] = bytes.get(8..12)?.try_into().ok()?;
    let payload_len = usize::try_from(u32::from_le_bytes(len_bytes)).ok()?;
    let frame_len = FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN;
    if bytes.len() < frame_len {
        return None;
    }
    let payload = bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + payload_len)?;
    let checksum = bytes.get(FRAME_HEADER_LEN + payload_len..frame_len)?;
    let expect = sha256_concat(&[&lsn_bytes, &len_bytes, payload]);
    if !ct_eq(&expect, checksum) {
        return None;
    }
    Some((Lsn::from_le_bytes(lsn_bytes), payload, frame_len))
}

/// Path of the segment whose first record is `first_lsn`.
pub(crate) fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

/// Lists segment files in `dir`, sorted by first LSN.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(Lsn, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(first_lsn) = stem.parse::<Lsn>() else {
            continue;
        };
        segments.push((first_lsn, entry.path()));
    }
    segments.sort();
    Ok(segments)
}

/// Applies one mutation to a plain map-of-maps (the recovery working set).
pub(crate) fn apply_mutation(
    tables: &mut BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>,
    mutation: Mutation,
) {
    match mutation {
        Mutation::Put { table, key, value } => {
            tables.entry(table).or_default().insert(key, value);
        }
        Mutation::Remove { table, key } => {
            if let Some(rows) = tables.get_mut(&table) {
                rows.remove(&key);
            }
        }
        Mutation::DropTable { table } => {
            tables.remove(&table);
        }
        Mutation::ClearTable { table } => {
            tables.entry(table).or_default().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Mutex as StdMutex};

    /// In-memory [`WalFile`] with an explicit volatile/durable split: bytes
    /// reach `durable` only on `sync`, modelling a kill between write-back
    /// and fsync.
    struct MemFile {
        shared: Arc<StdMutex<MemFileState>>,
    }

    #[derive(Default)]
    struct MemFileState {
        volatile: Vec<u8>,
        durable: Vec<u8>,
        fail_after_syncs: Option<u64>,
        syncs: u64,
    }

    impl MemFile {
        fn new() -> (MemFile, Arc<StdMutex<MemFileState>>) {
            let shared = Arc::new(StdMutex::new(MemFileState {
                volatile: WAL_MAGIC.to_vec(),
                durable: WAL_MAGIC.to_vec(),
                ..Default::default()
            }));
            (
                MemFile {
                    shared: Arc::clone(&shared),
                },
                shared,
            )
        }
    }

    impl WalFile for MemFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.shared
                .lock()
                .unwrap()
                .volatile
                .extend_from_slice(bytes);
            Ok(())
        }

        fn sync(&mut self) -> std::io::Result<()> {
            let mut st = self.shared.lock().unwrap();
            if let Some(limit) = st.fail_after_syncs {
                if st.syncs >= limit {
                    return Err(std::io::Error::other("injected sync failure"));
                }
            }
            st.syncs += 1;
            let volatile = std::mem::take(&mut st.volatile);
            st.durable = volatile.clone();
            st.volatile = volatile;
            Ok(())
        }
    }

    /// [`MemFile`] whose first `sync` reports that it has started, then
    /// blocks until the test releases it: a flush leader held inside its
    /// fsync with the state lock released.
    struct GatedFile {
        inner: MemFile,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl WalFile for GatedFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.append(bytes)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            if let Some((entered, release)) = self.gate.take() {
                entered.send(()).map_err(std::io::Error::other)?;
                release.recv().map_err(std::io::Error::other)?;
            }
            self.inner.sync()
        }
    }

    #[test]
    fn payload_encoding_matches_mutation_codec() {
        let m = Mutation::Put {
            table: "users".into(),
            key: vec![1, 2, 3],
            value: vec![9, 8],
        };
        let via_enum = codec::to_bytes(&m).unwrap();
        let mut via_manual = Vec::new();
        codec::write_varint(0, &mut via_manual);
        write_bytes(b"users", &mut via_manual);
        write_bytes(&[1, 2, 3], &mut via_manual);
        write_bytes(&[9, 8], &mut via_manual);
        assert_eq!(via_enum, via_manual);

        let m = Mutation::Remove {
            table: "t".into(),
            key: vec![7],
        };
        let via_enum = codec::to_bytes(&m).unwrap();
        let mut via_manual = Vec::new();
        codec::write_varint(1, &mut via_manual);
        write_bytes(b"t", &mut via_manual);
        write_bytes(&[7], &mut via_manual);
        assert_eq!(via_enum, via_manual);
    }

    #[test]
    fn append_commit_scan_roundtrip() {
        let (file, shared) = MemFile::new();
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        let l1 = wal.append_put("t", b"k1", b"v1").unwrap();
        let l2 = wal.append_remove("t", b"k1").unwrap();
        assert_eq!((l1, l2), (1, 2));
        wal.commit(l2).unwrap();

        let bytes = shared.lock().unwrap().durable.clone();
        let outcome = scan_segment(&bytes).unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.records[0].lsn, 1);
        assert_eq!(
            outcome.records[1].mutation,
            Mutation::Remove {
                table: "t".into(),
                key: b"k1".to_vec(),
            }
        );
    }

    #[test]
    fn commit_is_acked_only_after_sync() {
        let (file, shared) = MemFile::new();
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        let lsn = wal.append_put("t", b"k", b"v").unwrap();
        // Before commit: the record must not be durable.
        {
            let st = shared.lock().unwrap();
            let outcome = scan_segment(&st.durable).unwrap();
            assert!(outcome.records.is_empty());
        }
        wal.commit(lsn).unwrap();
        let st = shared.lock().unwrap();
        let outcome = scan_segment(&st.durable).unwrap();
        assert_eq!(outcome.records.len(), 1);
    }

    #[test]
    fn sync_failure_is_sticky_and_commit_errors() {
        let (file, shared) = MemFile::new();
        shared.lock().unwrap().fail_after_syncs = Some(0);
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        let lsn = wal.append_put("t", b"k", b"v").unwrap();
        assert!(wal.commit(lsn).is_err());
        // Sticky: the next append also reports the failure.
        assert!(wal.append_put("t", b"k2", b"v2").is_err());
        // And nothing was acked durable.
        let st = shared.lock().unwrap();
        assert!(scan_segment(&st.durable).unwrap().records.is_empty());
    }

    #[test]
    fn writers_that_append_during_an_fsync_share_the_next_one() {
        const WRITERS: u64 = 6;
        let (inner, shared) = MemFile::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let file = GatedFile {
            inner,
            gate: Some((entered_tx, release_rx)),
        };
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        std::thread::scope(|s| {
            let wal = &wal;
            s.spawn(move || {
                let lsn = wal.append_put("t", b"leader", b"v").unwrap();
                wal.commit(lsn).unwrap();
            });
            // The leader has taken its one-record batch and is in its fsync.
            entered_rx.recv().unwrap();
            let (appended_tx, appended_rx) = mpsc::channel();
            for t in 0..WRITERS {
                let appended = appended_tx.clone();
                s.spawn(move || {
                    let lsn = wal.append_put("t", &t.to_le_bytes(), b"v").unwrap();
                    appended.send(()).unwrap();
                    wal.commit(lsn).unwrap();
                });
            }
            for _ in 0..WRITERS {
                appended_rx.recv().unwrap();
            }
            release_tx.send(()).unwrap();
        });
        assert_eq!(
            wal.stats().flushes,
            2,
            "the leader's fsync, then one shared by every writer that appended during it"
        );
        assert_eq!(wal.durable_lsn(), 1 + WRITERS);
        let outcome = scan_segment(&shared.lock().unwrap().durable).unwrap();
        let lsns: Vec<Lsn> = outcome.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (1..=1 + WRITERS).collect::<Vec<Lsn>>());
    }

    #[test]
    fn concurrent_commits_are_all_durable() {
        let (file, shared) = MemFile::new();
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let key = (t * 1000 + i).to_le_bytes();
                        let lsn = wal.append_put("t", &key, b"v").unwrap();
                        wal.commit(lsn).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.stats().appended_records, 400);
        assert_eq!(wal.durable_lsn(), 400);
        let outcome = scan_segment(&shared.lock().unwrap().durable).unwrap();
        assert!(outcome.clean);
        let lsns: Vec<Lsn> = outcome.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (1..=400).collect::<Vec<Lsn>>());
    }

    #[test]
    fn scan_stops_at_torn_tail_and_bit_flip() {
        let (file, shared) = MemFile::new();
        let wal = Wal::with_file(Box::new(file), 0, &DurabilityConfig::default());
        for i in 0..5u8 {
            let lsn = wal.append_put("t", &[i], &[i, i]).unwrap();
            wal.commit(lsn).unwrap();
        }
        let full = shared.lock().unwrap().durable.clone();
        let outcome = scan_segment(&full).unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.records.len(), 5);
        assert_eq!(outcome.valid_len, full.len() as u64);

        // Torn tail: truncating exactly at the fourth frame's end is a
        // clean, shorter log; every cut *inside* the final frame yields the
        // first four records with a dirty tail.
        let frame_len = (full.len() - WAL_MAGIC.len()) / 5;
        let fourth_end = WAL_MAGIC.len() + 4 * frame_len;
        let boundary = scan_segment(&full[..fourth_end]).unwrap();
        assert!(boundary.clean);
        assert_eq!(boundary.records.len(), 4);
        for cut in fourth_end + 1..full.len() {
            let torn = &full[..cut];
            let outcome = scan_segment(torn).unwrap();
            assert_eq!(outcome.records.len(), 4, "cut at {cut}");
            assert!(!outcome.clean, "cut at {cut}");
            assert_eq!(outcome.valid_len, fourth_end as u64);
        }

        // Bit flip mid-log: records before the flipped frame survive.
        let mut flipped = full.clone();
        let target = WAL_MAGIC.len() + 2 * frame_len + FRAME_HEADER_LEN + 1;
        flipped[target] ^= 0x40;
        let outcome = scan_segment(&flipped).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert!(!outcome.clean);
    }

    #[test]
    fn scan_rejects_bad_magic() {
        assert!(scan_segment(b"NOTAWAL!").is_err());
        assert!(scan_segment(b"").is_err());
    }

    #[test]
    fn lsn_sequence_break_stops_scan() {
        // Hand-build two frames with a gap in the LSN sequence.
        let mut bytes = WAL_MAGIC.to_vec();
        let payload = codec::to_bytes(&Mutation::ClearTable { table: "t".into() }).unwrap();
        encode_frame(1, &payload, &mut bytes).unwrap();
        encode_frame(3, &payload, &mut bytes).unwrap();
        let outcome = scan_segment(&bytes).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert!(!outcome.clean);
    }
}

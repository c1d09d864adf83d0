//! The database: a set of named tables with checksummed snapshot
//! persistence and an optional durable write path (WAL + group commit).

use crate::codec::{self, Record};
use crate::error::StoreError;
use crate::table::{RawTable, TypedTable};
use crate::wal::{self, DiskWalFile, DurabilityConfig, Lsn, Wal, WalStats};
use amnesia_crypto::{ct_eq, sha256};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// Snapshot file magic: identifies the format and major version.
const MAGIC: &[u8; 8] = b"ABINDB1\0";

/// Durable-directory snapshot magic: payload carries the compaction-cut
/// LSN before the table dump, so recovery knows where log replay starts.
const MAGIC_DURABLE: &[u8; 8] = b"ABINDB2\0";

/// Name of the snapshot file inside a durable directory.
const SNAPSHOT_FILE: &str = "snapshot.adb";

/// On-disk shape of one table: name plus raw `(key, value)` rows.
type TableDump = (String, Vec<(Vec<u8>, Vec<u8>)>);

/// Every table as a plain map: name → raw key → raw value.
type TableMaps = BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>;

/// The durable half of a [`Database`]: the directory, the WAL, and the
/// compaction latch.
struct DurableEngine {
    dir: PathBuf,
    wal: Arc<Wal>,
    /// Serializes compactions; `compact_if_needed` try-locks so writers
    /// never stall behind one already in flight.
    compacting: Mutex<()>,
    compact_log_bytes: Option<u64>,
}

/// A database of named tables — the reproduction's SQLite stand-in.
///
/// Create one [`in_memory`](Database::in_memory), hand out
/// [`TypedTable`] handles, and optionally persist with
/// [`save_to`](Database::save_to) / reload with [`open`](Database::open).
/// Snapshots are atomic (temp file + rename + parent-directory fsync) and
/// integrity-checked with a SHA-256 trailer.
///
/// For a write path that is O(delta) instead of O(database), open the
/// database [*durably*](Database::open_durable): every mutation is then
/// appended to a write-ahead log and group-committed before the mutating
/// call returns, and [`compact`](Database::compact) folds the log back into
/// a snapshot. See the [`wal`](crate::wal) module for the format and
/// protocol.
///
/// ```
/// use amnesia_store::Database;
///
/// # fn main() -> Result<(), amnesia_store::StoreError> {
/// let dir = std::env::temp_dir().join("amnesia-doc-db");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("demo.adb");
///
/// let db = Database::in_memory();
/// db.table::<String, u32>("counts").insert(&"hits".into(), &3)?;
/// db.save_to(&path)?;
///
/// let reloaded = Database::open(&path)?;
/// assert_eq!(reloaded.table::<String, u32>("counts").get(&"hits".into())?, Some(3));
/// # std::fs::remove_file(&path)?;
/// # Ok(())
/// # }
/// ```
pub struct Database {
    tables: RwLock<BTreeMap<String, RawTable>>,
    durable: Option<Arc<DurableEngine>>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables = self.read_tables();
        f.debug_struct("Database")
            .field("tables", &tables.keys().collect::<Vec<_>>())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl Database {
    /// Creates an empty in-memory database.
    pub fn in_memory() -> Self {
        Database {
            tables: RwLock::new(BTreeMap::new()),
            durable: None,
        }
    }

    /// Opens (or creates) a durable database rooted at directory `dir`,
    /// with default [`DurabilityConfig`].
    ///
    /// Recovery loads the snapshot (if any), replays every WAL segment in
    /// LSN order skipping records the snapshot already covers, and
    /// truncates a torn tail at the first truncated frame or bad checksum —
    /// never losing a mutation whose commit was acked.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, [`StoreError::Corrupt`] if the snapshot or a
    /// *sealed* (non-tail) WAL segment fails validation, or if any segment
    /// holds a frame whose checksum holds but whose LSN breaks the sequence
    /// or whose payload does not decode (nothing is truncated then).
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_durable_with(dir, DurabilityConfig::default())
    }

    /// [`open_durable`](Database::open_durable) with explicit tuning.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // 1. Snapshot, if one has been compacted.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let (mut tables, snap_lsn) = match fs::read(&snap_path) {
            Ok(bytes) => decode_durable_snapshot(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (BTreeMap::new(), 0),
            Err(e) => return Err(e.into()),
        };

        // 2. Replay the log segments in LSN order.
        let segments = wal::list_segments(&dir)?;
        let mut last_lsn = snap_lsn;
        let mut tail_bytes: u64 = 0;
        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let is_tail = i + 1 == segments.len();
            let bytes = fs::read(path)?;
            let outcome = wal::scan_segment(&bytes)?;
            if !outcome.clean {
                if is_tail {
                    // Torn tail: cut the file back to its well-formed
                    // prefix. Anything past it was never acked (commit
                    // returns only after fsync), so no durability promise
                    // is broken.
                    let file = fs::OpenOptions::new().write(true).open(path)?;
                    file.set_len(outcome.valid_len)?;
                    file.sync_all()?;
                } else {
                    return Err(StoreError::Corrupt {
                        reason: format!("sealed wal segment {first_lsn} is corrupt mid-stream"),
                    });
                }
            }
            for record in outcome.records {
                if record.lsn > last_lsn {
                    wal::apply_mutation(&mut tables, record.mutation);
                    last_lsn = record.lsn;
                }
            }
            if is_tail {
                tail_bytes = outcome.valid_len;
            }
        }

        // 3. Re-open the tail segment for appends (or start segment 1).
        let file: DiskWalFile = match segments.last() {
            Some((_, path)) => DiskWalFile::open_append(path)?,
            None => DiskWalFile::create(&wal::segment_path(&dir, last_lsn.saturating_add(1)))?,
        };
        let wal = Arc::new(Wal::with_file(Box::new(file), last_lsn, &config));
        wal.seed_segment_bytes(tail_bytes);

        let tables: BTreeMap<String, RawTable> = tables
            .into_iter()
            .map(|(name, rows)| (name, Arc::new(RwLock::new(rows))))
            .collect();
        Ok(Database {
            tables: RwLock::new(tables),
            durable: Some(Arc::new(DurableEngine {
                dir,
                wal,
                compacting: Mutex::new(()),
                compact_log_bytes: config.compact_log_bytes,
            })),
        })
    }

    /// Whether this database runs the durable write path.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// WAL flush counters (None for in-memory databases).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|e| e.wal.stats())
    }

    /// Read lock on the table registry, explicitly recovering from
    /// poisoning (see [`crate::table::read_lock`] for why this is sound).
    fn read_tables(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, RawTable>> {
        self.tables
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write lock on the table registry, explicitly recovering from
    /// poisoning.
    fn write_tables(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, RawTable>> {
        self.tables
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Returns a typed handle onto the named table, creating the table if it
    /// does not exist.
    ///
    /// The caller chooses `K`/`V`; all handles onto one table must use the
    /// same types or decoding will fail at access time.
    pub fn table<K, V>(&self, name: &str) -> TypedTable<K, V>
    where
        K: Record,
        V: Record,
    {
        let wal = self.durable.as_ref().map(|e| Arc::clone(&e.wal));
        // Fast path: the table almost always exists already, so probe under
        // the shared read lock and only upgrade to the write lock on miss.
        if let Some(raw) = self.read_tables().get(name) {
            return TypedTable::new(name.to_string(), Arc::clone(raw), wal);
        }
        let raw = {
            let mut tables = self.write_tables();
            Arc::clone(
                tables
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(RwLock::new(BTreeMap::new()))),
            )
        };
        TypedTable::new(name.to_string(), raw, wal)
    }

    /// Names of all tables (including empty ones).
    pub fn table_names(&self) -> Vec<String> {
        self.read_tables().keys().cloned().collect()
    }

    /// Stream-encodes every table into `out` in the snapshot payload
    /// layout, without first cloning rows into an intermediate dump. The
    /// bytes are identical to encoding a `Vec<TableDump>` with the codec.
    fn encode_tables_into(&self, out: &mut Vec<u8>) {
        let tables = self.read_tables();
        codec::write_varint(tables.len() as u64, out);
        for (name, raw) in tables.iter() {
            name.encode(out);
            let rows = crate::table::read_lock(raw);
            codec::write_varint(rows.len() as u64, out);
            for (k, v) in rows.iter() {
                codec::write_varint(k.len() as u64, out);
                out.extend_from_slice(k);
                codec::write_varint(v.len() as u64, out);
                out.extend_from_slice(v);
            }
        }
    }

    /// Serializes every table into the snapshot byte format (magic, payload,
    /// SHA-256 trailer). Public so benchmarks and tools can measure or ship
    /// snapshots without touching the filesystem.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        self.encode_tables_into(&mut out);
        let digest = sha256(&out[MAGIC.len()..]);
        out.extend_from_slice(&digest);
        Ok(out)
    }

    /// Clones every table into an owned `(name, rows)` dump — the
    /// double-buffered shape [`snapshot_bytes`](Database::snapshot_bytes)
    /// used to build internally. Exposed for migration tooling and for the
    /// benchmark that quantifies what stream-encoding saves.
    pub fn export_tables(&self) -> Vec<TableDump> {
        let tables = self.read_tables();
        let mut dump: Vec<TableDump> = Vec::new();
        for (name, raw) in tables.iter() {
            let rows: Vec<(Vec<u8>, Vec<u8>)> = crate::table::read_lock(raw)
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            dump.push((name.clone(), rows));
        }
        dump
    }

    /// Serializes the durable-directory snapshot: like
    /// [`snapshot_bytes`](Database::snapshot_bytes) but with the compaction
    /// cut `lsn` ahead of the table dump.
    fn durable_snapshot_bytes(&self, lsn: Lsn) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_DURABLE);
        lsn.encode(&mut out);
        self.encode_tables_into(&mut out);
        let digest = sha256(&out[MAGIC_DURABLE.len()..]);
        out.extend_from_slice(&digest);
        out
    }

    /// Parses snapshot bytes produced by [`snapshot_bytes`].
    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let payload = checked_payload(bytes, MAGIC)?;
        let dump: Vec<TableDump> = codec::from_bytes(payload)?;
        let mut tables = BTreeMap::new();
        for (name, rows) in dump {
            let map: BTreeMap<Vec<u8>, Vec<u8>> = rows.into_iter().collect();
            tables.insert(name, Arc::new(RwLock::new(map)));
        }
        Ok(Database {
            tables: RwLock::new(tables),
            durable: None,
        })
    }

    /// Writes an atomic, checksummed snapshot of the database to `path`.
    ///
    /// The snapshot is first written to `path` + `.tmp`, fsynced, renamed
    /// over `path`, and the parent directory is then fsynced — without that
    /// last step a crash shortly after the rename could lose the directory
    /// entry and with it the whole save.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the filesystem or codec errors from row
    /// encoding.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let bytes = self.snapshot_bytes()?;
        write_atomically(path.as_ref(), &bytes)
    }

    /// Loads a database from a snapshot file written by
    /// [`save_to`](Database::save_to).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] if the file fails its magic or
    /// checksum validation, plus I/O and codec errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let bytes = fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
    }

    /// Blocks until every mutation issued so far is durable; no-op for
    /// in-memory databases.
    ///
    /// # Errors
    ///
    /// Surfaces the WAL's sticky I/O error, if any flush has failed.
    pub fn sync(&self) -> Result<(), StoreError> {
        if let Some(engine) = &self.durable {
            engine.wal.sync_all()?;
        }
        Ok(())
    }

    /// Folds the log into a fresh snapshot and deletes the sealed segments,
    /// bounding both recovery time and disk usage. No-op for in-memory
    /// databases.
    ///
    /// Writers are only paused while the log rotates (one file creation);
    /// the snapshot itself is written under read locks.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; on error the old snapshot and segments are left
    /// in place, so the database stays recoverable.
    pub fn compact(&self) -> Result<(), StoreError> {
        let Some(engine) = &self.durable else {
            return Ok(());
        };
        let guard = engine
            .compacting
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.compact_locked(engine, guard)
    }

    /// Runs [`compact`](Database::compact) iff the live log has outgrown
    /// [`DurabilityConfig::compact_log_bytes`] and no compaction is already
    /// in flight. Cheap when there is nothing to do; returns whether a
    /// compaction ran.
    pub fn compact_if_needed(&self) -> Result<bool, StoreError> {
        let Some(engine) = &self.durable else {
            return Ok(false);
        };
        let Some(threshold) = engine.compact_log_bytes else {
            return Ok(false);
        };
        if engine.wal.segment_bytes() < threshold {
            return Ok(false);
        }
        let Ok(guard) = engine.compacting.try_lock() else {
            return Ok(false);
        };
        self.compact_locked(engine, guard)?;
        Ok(true)
    }

    fn compact_locked(
        &self,
        engine: &DurableEngine,
        _guard: std::sync::MutexGuard<'_, ()>,
    ) -> Result<(), StoreError> {
        // 1. Seal the current segment at cut S: everything ≤ S is durable
        //    in sealed segments, everything later lands in the new segment.
        let cut = engine.wal.rotate(&engine.dir)?;
        // 2. Snapshot at S. Every mutation with LSN ≤ S was applied to its
        //    map before the appending thread released the table write lock,
        //    so the read locks below observe all of them. Later mutations
        //    may also be visible — harmless, replay is idempotent.
        let bytes = self.durable_snapshot_bytes(cut);
        write_atomically(&engine.dir.join(SNAPSHOT_FILE), &bytes)?;
        // 3. Drop the sealed segments the snapshot now covers.
        for (first_lsn, path) in wal::list_segments(&engine.dir)? {
            if first_lsn <= cut {
                fs::remove_file(&path)?;
            }
        }
        wal::sync_parent_dir(&engine.dir.join(SNAPSHOT_FILE))?;
        Ok(())
    }
}

/// Validates `magic` + SHA-256 trailer and returns the payload in between.
fn checked_payload<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], StoreError> {
    if bytes.len() < magic.len() + 32 {
        return Err(StoreError::Corrupt {
            reason: format!("snapshot file too short ({} bytes)", bytes.len()),
        });
    }
    let (head, rest) = bytes.split_at(magic.len());
    if head != magic {
        return Err(StoreError::Corrupt {
            reason: "bad magic (not an amnesia-store snapshot)".into(),
        });
    }
    let (payload, checksum) = rest.split_at(rest.len() - 32);
    if !ct_eq(&sha256(payload), checksum) {
        return Err(StoreError::Corrupt {
            reason: "snapshot checksum mismatch".into(),
        });
    }
    Ok(payload)
}

/// Parses a durable-directory snapshot into plain maps plus the cut LSN.
fn decode_durable_snapshot(bytes: &[u8]) -> Result<(TableMaps, Lsn), StoreError> {
    let payload = checked_payload(bytes, MAGIC_DURABLE)?;
    let (lsn, dump): (Lsn, Vec<TableDump>) = codec::from_bytes(payload)?;
    let mut tables = BTreeMap::new();
    for (name, rows) in dump {
        tables.insert(name, rows.into_iter().collect());
    }
    Ok((tables, lsn))
}

/// Temp-file + fsync + rename + parent-directory fsync. The directory sync
/// is what makes the rename itself survive a crash.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    wal::sync_parent_dir(path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("amnesia-store-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.adb", std::process::id()))
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("amnesia-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_and_reload_roundtrip() {
        let db = Database::in_memory();
        let t = db.table::<String, Vec<u8>>("blobs");
        t.insert(&"k".into(), &vec![1, 2, 3]).unwrap();
        db.table::<u32, String>("other")
            .insert(&7, &"seven".into())
            .unwrap();

        let path = temp_path("roundtrip");
        db.save_to(&path).unwrap();
        let reloaded = Database::open(&path).unwrap();
        assert_eq!(
            reloaded
                .table::<String, Vec<u8>>("blobs")
                .get(&"k".into())
                .unwrap(),
            Some(vec![1, 2, 3])
        );
        assert_eq!(reloaded.table_names(), vec!["blobs", "other"]);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupt_payload_detected() {
        let db = Database::in_memory();
        db.table::<u8, u8>("t").insert(&1, &2).unwrap();
        let path = temp_path("corrupt");
        db.save_to(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let path = temp_path("magic");
        fs::write(
            &path,
            b"NOTADB!!--------------------------------------------",
        )
        .unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn truncated_file_detected() {
        let path = temp_path("short");
        fs::write(&path, b"AB").unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Database::open("/definitely/not/here.adb").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::in_memory();
        let path = temp_path("empty");
        db.save_to(&path).unwrap();
        let reloaded = Database::open(&path).unwrap();
        assert!(reloaded.table_names().is_empty());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn snapshot_excludes_nothing_and_is_deterministic() {
        let db = Database::in_memory();
        db.table::<u8, u8>("a").insert(&1, &1).unwrap();
        db.table::<u8, u8>("b").insert(&2, &2).unwrap();
        let s1 = db.snapshot_bytes().unwrap();
        let s2 = db.snapshot_bytes().unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn streamed_snapshot_matches_double_buffered_encoding() {
        // The satellite rewrite must be byte-identical to encoding the old
        // `Vec<TableDump>` clone, or existing snapshot files would break.
        let db = Database::in_memory();
        db.table::<String, Vec<u8>>("x")
            .insert(&"k1".into(), &vec![1; 40])
            .unwrap();
        db.table::<u32, String>("y")
            .insert(&42, &"value".into())
            .unwrap();
        db.table::<u8, u8>("empty");

        let dump = db.export_tables();
        let payload_naive = codec::to_bytes(&dump).unwrap();
        let mut payload_streamed = Vec::new();
        db.encode_tables_into(&mut payload_streamed);
        assert_eq!(payload_naive, payload_streamed);
    }

    #[test]
    fn durable_roundtrip_without_compaction() {
        let dir = temp_dir("durable-roundtrip");
        {
            let db = Database::open_durable(&dir).unwrap();
            assert!(db.is_durable());
            let t = db.table::<String, Vec<u8>>("blobs");
            t.insert(&"a".into(), &vec![1]).unwrap();
            t.put(&"a".into(), &vec![2]).unwrap();
            t.insert(&"b".into(), &vec![3]).unwrap();
        }
        let db = Database::open_durable(&dir).unwrap();
        let t = db.table::<String, Vec<u8>>("blobs");
        assert_eq!(t.get(&"a".into()).unwrap(), Some(vec![2]));
        assert_eq!(t.get(&"b".into()).unwrap(), Some(vec![3]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_roundtrip_across_compaction() {
        let dir = temp_dir("durable-compact");
        {
            let db = Database::open_durable(&dir).unwrap();
            let t = db.table::<u32, String>("t");
            for i in 0..10u32 {
                t.insert(&i, &format!("v{i}")).unwrap();
            }
            db.compact().unwrap();
            // Post-compaction mutations land in the fresh segment.
            t.put(&3, &"rewritten".into()).unwrap();
            db.table::<u8, u8>("later").insert(&1, &1).unwrap();
        }
        let db = Database::open_durable(&dir).unwrap();
        let t = db.table::<u32, String>("t");
        assert_eq!(t.len(), 10);
        assert_eq!(t.get(&3).unwrap(), Some("rewritten".into()));
        assert_eq!(t.get(&4).unwrap(), Some("v4".into()));
        assert_eq!(db.table::<u8, u8>("later").get(&1).unwrap(), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_sealed_segments() {
        let dir = temp_dir("durable-segments");
        let db = Database::open_durable(&dir).unwrap();
        let t = db.table::<u32, u32>("t");
        for i in 0..5u32 {
            t.insert(&i, &i).unwrap();
        }
        db.compact().unwrap();
        let segments = wal::list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "sealed segments must be deleted");
        assert!(dir.join(SNAPSHOT_FILE).exists());
        // A second compaction with no new writes must be a no-op that does
        // not stack empty segments.
        db.compact().unwrap();
        assert_eq!(wal::list_segments(&dir).unwrap().len(), 1);
        drop(db);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_concurrent_writers_all_recovered() {
        let dir = temp_dir("durable-concurrent");
        {
            let db = Database::open_durable(&dir).unwrap();
            let t = db.table::<u64, u64>("c");
            std::thread::scope(|s| {
                for worker in 0..4u64 {
                    let t = t.clone();
                    s.spawn(move || {
                        for i in 0..100u64 {
                            t.insert(&(worker * 1000 + i), &i).unwrap();
                        }
                    });
                }
            });
        }
        let db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.table::<u64, u64>("c").len(), 400);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_if_needed_respects_threshold() {
        let dir = temp_dir("durable-threshold");
        let config = DurabilityConfig {
            compact_log_bytes: Some(512),
            ..DurabilityConfig::default()
        };
        let db = Database::open_durable_with(&dir, config).unwrap();
        let t = db.table::<u32, Vec<u8>>("t");
        assert!(!db.compact_if_needed().unwrap());
        for i in 0..20u32 {
            t.insert(&i, &vec![0u8; 64]).unwrap();
        }
        assert!(db.compact_if_needed().unwrap());
        assert!(!db.compact_if_needed().unwrap());
        drop(t);
        drop(db);
        fs::remove_dir_all(&dir).unwrap();
    }
}

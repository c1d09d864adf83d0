//! Typed table handles over the raw byte store.

use crate::codec::{self, Record};
use crate::error::StoreError;
use crate::wal::{Lsn, Wal};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub(crate) type RawMap = BTreeMap<Vec<u8>, Vec<u8>>;
pub(crate) type RawTable = Arc<RwLock<RawMap>>;

/// Acquires the read lock, explicitly recovering from poisoning.
///
/// A poisoned lock means some writer panicked mid-update. For this store the
/// map is always left structurally valid (every mutation is a single
/// `BTreeMap` call, which is panic-atomic for the map itself), so recovering
/// the guard is sound; we do it deliberately rather than unwrapping.
pub(crate) fn read_lock(raw: &RwLock<RawMap>) -> RwLockReadGuard<'_, RawMap> {
    raw.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires the write lock, explicitly recovering from poisoning (see
/// [`read_lock`]).
pub(crate) fn write_lock(raw: &RwLock<RawMap>) -> RwLockWriteGuard<'_, RawMap> {
    raw.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A typed view over one named table of a [`Database`](crate::Database).
///
/// Keys and rows are any [`Record`] types; the table enforces key uniqueness
/// and orders iteration by the encoded key bytes. Handles are cheap to clone
/// and safe to share across threads (the server's request threads all hold
/// handles onto the same tables).
///
/// ```
/// use amnesia_store::{Database, TypedTable};
///
/// # fn main() -> Result<(), amnesia_store::StoreError> {
/// let db = Database::in_memory();
/// let t: TypedTable<u32, String> = db.table("names");
/// t.insert(&1, &"one".to_string())?;
/// assert!(t.insert(&1, &"uno".to_string()).is_err()); // duplicate key
/// t.put(&1, &"uno".to_string())?; // upsert succeeds
/// assert_eq!(t.get(&1)?, Some("uno".to_string()));
/// # Ok(())
/// # }
/// ```
pub struct TypedTable<K, V> {
    name: String,
    raw: RawTable,
    /// Present when the owning database is durable: every mutation appends
    /// a WAL record *under the table's write lock* (so per-table log order
    /// equals map order) and group-commits after releasing it.
    wal: Option<Arc<Wal>>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for TypedTable<K, V> {
    fn clone(&self) -> Self {
        TypedTable {
            name: self.name.clone(),
            raw: Arc::clone(&self.raw),
            wal: self.wal.clone(),
            _marker: PhantomData,
        }
    }
}

impl<K, V> fmt::Debug for TypedTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedTable")
            .field("name", &self.name)
            .field("rows", &read_lock(&self.raw).len())
            .finish()
    }
}

impl<K, V> TypedTable<K, V>
where
    K: Record,
    V: Record,
{
    pub(crate) fn new(name: String, raw: RawTable, wal: Option<Arc<Wal>>) -> Self {
        TypedTable {
            name,
            raw,
            wal,
            _marker: PhantomData,
        }
    }

    /// Group-commits `lsn` if this table is WAL-backed. Called after the
    /// write lock is released so the fsync never blocks other writers on
    /// this table.
    fn commit(&self, lsn: Option<Lsn>) -> Result<(), StoreError> {
        match (&self.wal, lsn) {
            (Some(wal), Some(lsn)) => wal.commit(lsn),
            _ => Ok(()),
        }
    }

    /// The table's name within its database.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts a new row.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateKey`] if the key already exists, or a
    /// codec error if the key/row fails to encode.
    pub fn insert(&self, key: &K, value: &V) -> Result<(), StoreError> {
        let k = codec::to_bytes(key)?;
        let v = codec::to_bytes(value)?;
        let lsn = {
            let mut raw = write_lock(&self.raw);
            if raw.contains_key(&k) {
                return Err(StoreError::DuplicateKey {
                    table: self.name.clone(),
                });
            }
            let lsn = match &self.wal {
                Some(wal) => Some(wal.append_put(&self.name, &k, &v)?),
                None => None,
            };
            raw.insert(k, v);
            lsn
        };
        self.commit(lsn)
    }

    /// Inserts or replaces a row. The replaced row is dropped undecoded:
    /// read it with [`get`](Self::get) first if it is needed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the table is WAL-backed and the log write
    /// fails.
    pub fn put(&self, key: &K, value: &V) -> Result<(), StoreError> {
        let k = codec::to_bytes(key)?;
        let v = codec::to_bytes(value)?;
        let lsn = {
            let mut raw = write_lock(&self.raw);
            let lsn = match &self.wal {
                Some(wal) => Some(wal.append_put(&self.name, &k, &v)?),
                None => None,
            };
            raw.insert(k, v);
            lsn
        };
        self.commit(lsn)
    }

    /// Inserts or replaces every row of `rows`, in order, under one write
    /// lock and one group commit: a durable table appends a WAL record per
    /// row and flushes them together, where a [`put`](Self::put) per row
    /// would flush once each. Nothing is written when `rows` is empty.
    ///
    /// # Errors
    ///
    /// Returns a codec error if a key or row fails to encode, before any
    /// row is written, or an I/O error if the table is WAL-backed and the
    /// log write fails; the rows before the failing one are then in the
    /// table but not known durable, as after a [`put`](Self::put) whose
    /// commit fails.
    pub fn put_all<'a>(
        &self,
        rows: impl IntoIterator<Item = (&'a K, &'a V)>,
    ) -> Result<(), StoreError>
    where
        K: 'a,
        V: 'a,
    {
        let encoded = rows
            .into_iter()
            .map(|(key, value)| Ok((codec::to_bytes(key)?, codec::to_bytes(value)?)))
            .collect::<Result<Vec<_>, StoreError>>()?;
        let mut last = None;
        {
            let mut raw = write_lock(&self.raw);
            for (k, v) in encoded {
                if let Some(wal) = &self.wal {
                    last = Some(wal.append_put(&self.name, &k, &v)?);
                }
                raw.insert(k, v);
            }
        }
        self.commit(last)
    }

    /// Fetches the row for `key`.
    ///
    /// # Errors
    ///
    /// Returns a codec error if encoding or decoding fails.
    pub fn get(&self, key: &K) -> Result<Option<V>, StoreError> {
        let k = codec::to_bytes(key)?;
        let raw = read_lock(&self.raw);
        raw.get(&k)
            .map(|bytes| codec::from_bytes(bytes).map_err(StoreError::from))
            .transpose()
    }

    /// Whether a row exists for `key`.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the key fails to encode.
    pub fn contains(&self, key: &K) -> Result<bool, StoreError> {
        let k = codec::to_bytes(key)?;
        Ok(read_lock(&self.raw).contains_key(&k))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        read_lock(&self.raw).len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        read_lock(&self.raw).is_empty()
    }

    /// Decodes and returns all rows, ordered by encoded key.
    ///
    /// This takes a consistent snapshot under the read lock; mutations made
    /// after the call are not reflected.
    ///
    /// # Errors
    ///
    /// Returns a codec error if any stored row fails to decode (indicating
    /// the table was written with a different row type).
    pub fn scan(&self) -> Result<Vec<(K, V)>, StoreError> {
        let raw = read_lock(&self.raw);
        raw.iter()
            .map(|(k, v)| {
                Ok((
                    codec::from_bytes(k).map_err(StoreError::from)?,
                    codec::from_bytes(v).map_err(StoreError::from)?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;

    #[derive(PartialEq, Debug, Clone)]
    struct Row {
        v: u64,
        label: String,
    }
    crate::record_struct! { Row { v, label } }

    fn row(v: u64) -> Row {
        Row {
            v,
            label: format!("row-{v}"),
        }
    }

    #[test]
    fn insert_get_cycle() {
        let db = Database::in_memory();
        let t = db.table::<String, Row>("t");
        assert!(t.is_empty());
        t.insert(&"a".into(), &row(1)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&"a".into()).unwrap(), Some(row(1)));
        assert_eq!(t.get(&"b".into()).unwrap(), None);
    }

    #[test]
    fn duplicate_insert_rejected_put_allowed() {
        let db = Database::in_memory();
        let t = db.table::<u32, Row>("t");
        t.insert(&1, &row(1)).unwrap();
        assert!(t.insert(&1, &row(2)).is_err());
        assert_eq!(t.get(&1).unwrap(), Some(row(1)));
        t.put(&1, &row(2)).unwrap();
        assert_eq!(t.get(&1).unwrap(), Some(row(2)));
    }

    #[test]
    fn scan_is_ordered_and_complete() {
        let db = Database::in_memory();
        let t = db.table::<u32, Row>("t");
        for i in (0u32..10).rev() {
            t.insert(&i, &row(i as u64)).unwrap();
        }
        let all = t.scan().unwrap();
        assert_eq!(all.len(), 10);
        // u32 keys encode little-endian, so byte order == numeric order only
        // within a byte; just assert completeness and decodability here.
        let mut keys: Vec<u32> = all.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handles_share_state() {
        let db = Database::in_memory();
        let t1 = db.table::<u32, Row>("shared");
        let t2 = db.table::<u32, Row>("shared");
        t1.insert(&1, &row(1)).unwrap();
        assert_eq!(t2.get(&1).unwrap(), Some(row(1)));
        let t3 = t1.clone();
        t3.put(&2, &row(2)).unwrap();
        assert_eq!(t1.len(), 2);
        assert_eq!(t2.get(&2).unwrap(), Some(row(2)));
    }

    #[test]
    fn concurrent_writers_do_not_lose_rows() {
        let db = Database::in_memory();
        let t = db.table::<u64, Row>("c");
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..250u64 {
                        t.insert(&(worker * 1000 + i), &row(i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn table_usable_after_poisoning_panic() {
        // A thread panicking while holding the write lock poisons it; the
        // store recovers explicitly instead of propagating the poison
        // forever.
        let db = std::sync::Arc::new(Database::in_memory());
        let t = db.table::<u32, Row>("p");
        t.insert(&1, &row(1)).unwrap();
        let t2 = t.clone();
        let joined = std::thread::spawn(move || {
            let _guard = super::write_lock(&t2.raw);
            panic!("poison the lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(t.raw.is_poisoned());
        // Still fully usable afterwards.
        assert_eq!(t.get(&1).unwrap(), Some(row(1)));
        t.put(&2, &row(2)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn put_all_writes_every_row_in_one_flush() {
        let dir = std::env::temp_dir().join(format!(
            "amnesia-store-put-all-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let rows: Vec<(u32, Row)> = (0..50u32).map(|i| (i, row(u64::from(i)))).collect();
        {
            let db = Database::open_durable(&dir).unwrap();
            let t = db.table::<u32, Row>("batch");
            t.put(&7, &row(0)).unwrap();
            let before = db.wal_stats().unwrap();
            t.put_all(rows.iter().map(|(k, v)| (k, v))).unwrap();
            let after = db.wal_stats().unwrap();
            assert_eq!(after.appended_records - before.appended_records, 50);
            assert_eq!(after.flushes - before.flushes, 1);
            assert_eq!(t.len(), 50);
            assert_eq!(t.get(&7).unwrap(), Some(row(7)), "a put_all row replaces");
            t.put_all(std::iter::empty()).unwrap();
            assert_eq!(db.wal_stats().unwrap(), after, "an empty batch writes");
        }
        let db = Database::open_durable(&dir).unwrap();
        let mut replayed = db.table::<u32, Row>("batch").scan().unwrap();
        replayed.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(replayed, rows);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_shows_name_and_rows() {
        let db = Database::in_memory();
        let t = db.table::<u32, Row>("dbg");
        t.insert(&1, &row(1)).unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("dbg"));
        assert!(s.contains('1'));
    }
}

//! Recovery refuses a log record whose checksum holds but whose payload
//! does not decode, or whose LSN does not follow its predecessor's, instead
//! of cutting the log there.
//!
//! Every frame here is built by hand from the on-disk format (LSN, payload
//! length, payload, SHA-256 trailer; DESIGN.md §13), so the tests pin what a
//! segment holds rather than what the writer happens to produce.

use amnesia_crypto::sha256_concat;
use amnesia_store::wal::WAL_MAGIC;
use amnesia_store::{Database, StoreError};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-store-undecodable-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Appends `bytes` behind their one-byte length prefix (every field here is
/// shorter than 128 bytes, so its varint length is one byte).
fn field(bytes: &[u8], out: &mut Vec<u8>) {
    out.push(u8::try_from(bytes.len()).unwrap());
    out.extend_from_slice(bytes);
}

/// The payload of a put of `key` → `value` into table `t`: tag 0, then the
/// table name, the encoded key and the encoded row, each length-prefixed.
/// Key and row are one-byte-length strings, as a `TypedTable<String,
/// String>` encodes them.
fn put(key: &str, value: &str) -> Vec<u8> {
    let mut payload = vec![0];
    field(b"t", &mut payload);
    let mut k = Vec::new();
    field(key.as_bytes(), &mut k);
    field(&k, &mut payload);
    let mut v = Vec::new();
    field(value.as_bytes(), &mut v);
    field(&v, &mut payload);
    payload
}

/// Appends one frame: LSN and payload length, little-endian, the payload,
/// and the SHA-256 of all three.
fn frame(lsn: u64, payload: &[u8], out: &mut Vec<u8>) {
    let lsn = lsn.to_le_bytes();
    let len = u32::try_from(payload.len()).unwrap().to_le_bytes();
    out.extend_from_slice(&lsn);
    out.extend_from_slice(&len);
    out.extend_from_slice(payload);
    out.extend_from_slice(&sha256_concat(&[&lsn, &len, payload]));
}

/// Writes a segment whose first record is `first_lsn` holding `payloads`
/// at consecutive LSNs, and returns its path.
fn write_segment(dir: &Path, first_lsn: u64, payloads: &[Vec<u8>]) -> PathBuf {
    let mut bytes = WAL_MAGIC.to_vec();
    for (lsn, payload) in (first_lsn..).zip(payloads) {
        frame(lsn, payload, &mut bytes);
    }
    let path = dir.join(format!("wal-{first_lsn:020}.log"));
    fs::write(&path, &bytes).unwrap();
    path
}

fn corrupt_reason(dir: &Path) -> String {
    match Database::open_durable(dir) {
        Err(StoreError::Corrupt { reason }) => reason,
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(db) => panic!(
            "a log holding an undecodable record opened with {} rows",
            db.table::<String, String>("t").len()
        ),
    }
}

#[test]
fn a_record_of_unknown_kind_fails_recovery_and_keeps_the_log() {
    // Put (LSN 1), a checksummed frame of kind 9 (LSN 2), put (LSN 3).
    let dir = temp_dir("unknown-kind");
    let mut unknown = vec![9];
    field(b"t", &mut unknown);
    let path = write_segment(&dir, 1, &[put("k1", "v1"), unknown, put("k3", "v3")]);
    assert_eq!(fs::metadata(&path).unwrap().len(), 165);

    let reason = corrupt_reason(&dir);
    assert!(reason.contains("lsn 2"), "{reason}");
    // Nothing was cut: the acked put at LSN 3 is still on disk.
    assert_eq!(fs::metadata(&path).unwrap().len(), 165);
    // And a second open refuses it the same way.
    assert!(corrupt_reason(&dir).contains("lsn 2"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_retired_remove_record_fails_recovery() {
    // Tag 1 was a remove of (table, key); no component ever wrote one.
    let dir = temp_dir("remove");
    let mut remove = vec![1];
    field(b"t", &mut remove);
    field(&[2, b'k', b'1'], &mut remove);
    let path = write_segment(&dir, 1, &[put("k1", "v1"), remove, put("k3", "v3")]);
    let len = fs::metadata(&path).unwrap().len();

    let reason = corrupt_reason(&dir);
    assert!(reason.contains("lsn 2"), "{reason}");
    assert_eq!(fs::metadata(&path).unwrap().len(), len);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_undecodable_record_in_a_sealed_segment_names_its_lsn() {
    let dir = temp_dir("sealed");
    let mut unknown = vec![9];
    field(b"t", &mut unknown);
    write_segment(&dir, 1, &[put("k1", "v1"), unknown]);
    write_segment(&dir, 3, &[put("k3", "v3")]);

    let reason = corrupt_reason(&dir);
    assert!(reason.contains("lsn 2"), "{reason}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checksummed_lsn_break_fails_recovery_and_keeps_the_log() {
    // Puts at LSN 1, 3 and 4, every trailer valid: no torn write leaves a
    // gap, so the puts at 3 and 4 may have been acked.
    let dir = temp_dir("lsn-break");
    let mut bytes = WAL_MAGIC.to_vec();
    for (lsn, key, value) in [(1, "k1", "v1"), (3, "k3", "v3"), (4, "k4", "v4")] {
        frame(lsn, &put(key, value), &mut bytes);
    }
    let path = dir.join(format!("wal-{:020}.log", 1));
    fs::write(&path, &bytes).unwrap();
    assert_eq!(fs::metadata(&path).unwrap().len(), 173);

    let reason = corrupt_reason(&dir);
    assert!(reason.contains("lsn 3"), "{reason}");
    assert!(reason.contains("lsn 1"), "{reason}");
    assert_eq!(fs::metadata(&path).unwrap().len(), 173);
    assert!(corrupt_reason(&dir).contains("lsn 3"));
    fs::remove_dir_all(&dir).unwrap();
}

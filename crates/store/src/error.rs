//! Error type for the store.

use crate::codec::CodecError;
use std::error::Error;
use std::fmt;

/// Errors produced by database and table operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A row or key failed to encode/decode.
    Codec(CodecError),
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// `insert` was called with a key that already exists.
    DuplicateKey {
        /// Table the insert targeted.
        table: String,
    },
    /// Data at rest was malformed or failed its integrity check: a snapshot
    /// file, or a WAL segment. The reason names which.
    Corrupt {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::DuplicateKey { table } => {
                write!(f, "duplicate key in table {table:?}")
            }
            StoreError::Corrupt { reason } => write!(f, "corrupt store data: {reason}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_crypto::sha256_concat;

    #[test]
    fn display_and_source() {
        let e = StoreError::from(CodecError::UnexpectedEof);
        assert!(e.to_string().contains("codec"));
        assert!(e.source().is_some());

        let e = StoreError::DuplicateKey {
            table: "users".into(),
        };
        assert!(e.to_string().contains("users"));
        assert!(e.source().is_none());

        // A WAL segment whose one frame passes its checksum but holds a
        // record of unknown kind 9: the scan's error does not call itself a
        // snapshot.
        let (lsn, len, payload) = (1u64.to_le_bytes(), 1u32.to_le_bytes(), [9u8]);
        let mut segment = crate::wal::WAL_MAGIC.to_vec();
        for part in [
            &lsn[..],
            &len,
            &payload,
            &sha256_concat(&[&lsn, &len, &payload]),
        ] {
            segment.extend_from_slice(part);
        }
        let e = crate::wal::scan_segment(&segment).unwrap_err();
        assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
        assert!(
            e.to_string()
                .starts_with("corrupt store data: wal record lsn 1"),
            "{e}"
        );
        assert!(!e.to_string().contains("snapshot"), "{e}");
        assert!(e.source().is_none());

        // A snapshot file too short to hold its magic and checksum still
        // says it is a snapshot.
        let path = std::env::temp_dir().join(format!(
            "amnesia-store-error-display-{}",
            std::process::id()
        ));
        std::fs::write(&path, b"AB").unwrap();
        let e = crate::Database::open(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
        assert!(e.to_string().contains("snapshot"), "{e}");
    }
}

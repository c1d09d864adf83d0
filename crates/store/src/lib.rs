//! Embedded storage substrate for the Amnesia reproduction.
//!
//! The paper's prototype keeps both the server state (`Ks`, hashed
//! verifiers, registration IDs) and the phone state (`Kp`) in SQLite
//! databases. This crate is the Rust stand-in: a small embedded store with
//!
//! * a **compact binary codec** ([`codec`]) built on the in-repo
//!   [`codec::Record`] trait, so any row type can be persisted without
//!   pulling an external serialization crate — types opt in via the
//!   [`record_struct!`], [`record_tuple!`] and [`record_enum!`] macros,
//! * **named typed tables** ([`TypedTable`]) with unique primary keys and
//!   ordered iteration, guarded by `std::sync` locks (lock poisoning is
//!   recovered explicitly) so server request threads can share one
//!   database, and
//! * **checksummed atomic snapshots** ([`Database::save_to`] /
//!   [`Database::open`]) — the file carries a magic header, format version
//!   and SHA-256 integrity checksum, and is written via a temp-file rename
//!   (parent directory fsynced) so a crash never leaves a torn database,
//!   and
//! * a **durable write path** ([`Database::open_durable`]) — an
//!   append-only, checksummed write-ahead log ([`wal`]) with group commit,
//!   making each write O(delta) instead of O(database), plus
//!   snapshot-and-truncate compaction ([`Database::compact`]) and
//!   crash recovery that cuts a torn log tail but refuses a record that
//!   passes its checksum and does not decode. The log holds puts only:
//!   [`TypedTable::insert`] and [`TypedTable::put`] add or replace a row,
//!   and nothing removes one, so replay is a sequence of upserts.
//!
//! # Example
//!
//! ```
//! use amnesia_store::{record_struct, Database, TypedTable};
//!
//! #[derive(PartialEq, Debug)]
//! struct UserRow {
//!     name: String,
//!     logins: u32,
//! }
//! record_struct! { UserRow { name, logins } }
//!
//! # fn main() -> Result<(), amnesia_store::StoreError> {
//! let db = Database::in_memory();
//! let users: TypedTable<String, UserRow> = db.table("users");
//! users.insert(&"alice".to_string(), &UserRow { name: "Alice".into(), logins: 3 })?;
//! assert_eq!(users.get(&"alice".to_string())?.unwrap().logins, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod db;
mod error;
mod table;
pub mod wal;

pub use db::Database;
pub use error::StoreError;
pub use table::TypedTable;
pub use wal::{DurabilityConfig, Lsn, WalStats};

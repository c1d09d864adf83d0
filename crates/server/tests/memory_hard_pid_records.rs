//! `Pid` verifiers stored at a memory-hard rung still verify.
//!
//! The server derives every `Pid` verifier with the paper's salted hash,
//! whatever the deployment's rung; earlier builds derived it at the rung.
//! Verification re-derives under the *stored* policy, so a store holding
//! such a verifier needs no migration: recovery and master-password change
//! accept its `Pid`, and the phone a recovery pairs gets the paper's hash.
//! The user row here is built by hand and written through the durable
//! (WAL) path, as an earlier build would have written it.

use amnesia_core::{EntryTable, OnlineId, PhoneId};
use amnesia_crypto::{KdfPolicy, SecretRng};
use amnesia_rendezvous::RendezvousServer;
use amnesia_server::auth::Verifier;
use amnesia_server::protocol::KpBackup;
use amnesia_server::{AmnesiaServer, ServerConfig, ServerError, UserRecord};
use amnesia_store::Database;
use std::path::{Path, PathBuf};

/// A memory-hard rung small enough to keep the test fast; the hardness
/// class is what matters.
const TINY: KdfPolicy = KdfPolicy::MemoryHard {
    log_n: 4,
    r: 1,
    p: 1,
};
const MASTER_PASSWORD: &str = "correct horse battery staple";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-memhard-pid-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServerConfig {
    ServerConfig {
        endpoint: "memhard-pid-server".into(),
        seed: 7,
        kdf_policy: TINY,
    }
}

/// Writes a paired user whose master-password and `Pid` verifiers are both
/// at [`TINY`] through the durable path, and returns the directory and the
/// phone's `Pid`.
fn write_memory_hard_pid_store(name: &str) -> (PathBuf, PhoneId) {
    let dir = temp_dir(name);
    let mut rng = SecretRng::seeded(0xC0FFEE);
    let pid = PhoneId::random(&mut rng);
    let record = UserRecord {
        user_id: "alice".into(),
        oid: OnlineId::random(&mut rng),
        mp_verifier: Verifier::derive(MASTER_PASSWORD.as_bytes(), &TINY, &mut rng).unwrap(),
        pid_verifier: Some(Verifier::derive(pid.as_bytes(), &TINY, &mut rng).unwrap()),
        registration_id: Some(RendezvousServer::new("gcm", 5).register_device("phone")),
        accounts: Vec::new(),
    };
    let db = Database::open_durable(&dir).unwrap();
    db.table::<String, UserRecord>("users")
        .insert(&"alice".to_string(), &record)
        .unwrap();
    drop(db);
    (dir, pid)
}

/// Reopens the store and checks both verifiers kept their rung.
fn reopen(dir: &Path) -> AmnesiaServer {
    let server = AmnesiaServer::open_durable(config(), dir).unwrap();
    let record = server.user_record("alice").unwrap();
    assert!(record.phone_paired());
    assert_eq!(*record.mp_verifier.policy(), TINY);
    assert_eq!(*record.pid_verifier.as_ref().unwrap().policy(), TINY);
    server
}

#[test]
fn recovery_accepts_a_memory_hard_pid_verifier_and_pairs_with_the_paper_hash() {
    let (dir, pid) = write_memory_hard_pid_store("recover");
    let mut server = reopen(&dir);
    let entries: Vec<_> = EntryTable::random(&mut SecretRng::seeded(3), 64)
        .iter()
        .cloned()
        .collect();
    let backup = |pid: PhoneId| KpBackup {
        pid,
        entries: entries.clone(),
    };

    let wrong = PhoneId::random(&mut SecretRng::seeded(4));
    assert_eq!(
        server
            .recover_phone("alice", MASTER_PASSWORD, &backup(wrong))
            .err(),
        Some(ServerError::PidMismatch)
    );
    let (_, purged) = server
        .recover_phone("alice", MASTER_PASSWORD, &backup(pid))
        .unwrap();
    assert!(purged.is_some());
    assert!(server.user_record("alice").unwrap().pid_verifier.is_none());

    // The restored phone pairs again: its verifier is the paper's hash.
    let session = server.login("alice", MASTER_PASSWORD).unwrap();
    let captcha = server.begin_phone_pairing(&session).unwrap();
    let new_pid = PhoneId::random(&mut SecretRng::seeded(5));
    let registration = RendezvousServer::new("gcm", 6).register_device("phone2");
    server
        .complete_phone_pairing("alice", &captcha, &new_pid, registration)
        .unwrap();
    drop(server);
    let server = AmnesiaServer::open_durable(config(), &dir).unwrap();
    let record = server.user_record("alice").unwrap();
    let pid_verifier = record.pid_verifier.as_ref().unwrap();
    assert_eq!(*pid_verifier.policy(), KdfPolicy::PAPER);
    assert!(pid_verifier.verify(new_pid.as_bytes()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn master_password_change_accepts_a_memory_hard_pid_verifier() {
    let (dir, pid) = write_memory_hard_pid_store("change");
    let mut server = reopen(&dir);

    let wrong = PhoneId::random(&mut SecretRng::seeded(4));
    assert_eq!(
        server.change_master_password("alice", MASTER_PASSWORD, &wrong, "new password"),
        Err(ServerError::PidMismatch)
    );
    server
        .change_master_password("alice", MASTER_PASSWORD, &pid, "new password")
        .unwrap();
    drop(server);

    // The `Pid` verifier is untouched; the new master password is at the rung.
    let mut server = reopen(&dir);
    server.login("alice", "new password").unwrap();
    assert_eq!(
        server.login("alice", MASTER_PASSWORD).err(),
        Some(ServerError::BadCredentials)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

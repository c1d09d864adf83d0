//! Compatibility of pre-ladder verifier records with the [`KdfPolicy`]
//! ladder (PR 10).
//!
//! Before the ladder, a [`Verifier`] was `{ salt, hash, iterations: u32 }`
//! on the wire. The versioned encoding keeps CPU-policy records
//! byte-identical to that layout, so databases written by older builds —
//! including durable write-ahead-logged stores from PR 9 — must reopen and
//! verify unchanged. These tests write records through *mirror structs*
//! that reproduce the legacy layout exactly, then reopen them through the
//! real server.

use amnesia_core::{OnlineId, Salt};
use amnesia_crypto::{KdfPolicy, SecretRng};
use amnesia_server::auth::Verifier;
use amnesia_server::{AmnesiaServer, ServerConfig, ServerError};
use amnesia_store::Database;
use std::path::PathBuf;

/// The pre-PR-10 verifier wire layout, reproduced field-for-field.
struct LegacyVerifier {
    salt: Salt,
    hash: Vec<u8>,
    iterations: u32,
}
amnesia_store::record_struct! { LegacyVerifier { salt, hash, iterations } }

/// The pre-PR-10 user record layout (identical shape; only the verifier
/// encoding differs between generations).
struct LegacyUserRecord {
    user_id: String,
    oid: OnlineId,
    mp_verifier: LegacyVerifier,
    pid_verifier: Option<LegacyVerifier>,
    registration_id: Option<amnesia_rendezvous::RegistrationId>,
    accounts: Vec<amnesia_server::StoredAccount>,
}
amnesia_store::record_struct! {
    LegacyUserRecord { user_id, oid, mp_verifier, pid_verifier, registration_id, accounts }
}

const LEGACY_ITERATIONS: u32 = 3;
const MASTER_PASSWORD: &str = "correct horse battery staple";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-legacy-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn legacy_mirror(v: &Verifier, iterations: u32) -> LegacyVerifier {
    LegacyVerifier {
        salt: v.salt().clone(),
        hash: v.hash_bytes().to_vec(),
        iterations,
    }
}

/// Writes a legacy-layout user record through the PR 9 durable (WAL) path
/// and returns the directory it lives in.
fn write_legacy_durable_store(name: &str) -> PathBuf {
    let dir = temp_dir(name);
    let policy = KdfPolicy::Cpu {
        iterations: LEGACY_ITERATIONS,
    };
    let mut rng = SecretRng::seeded(0xA11CE);
    let mp = Verifier::derive(MASTER_PASSWORD.as_bytes(), &policy, &mut rng).unwrap();
    let record = LegacyUserRecord {
        user_id: "alice".into(),
        oid: OnlineId::random(&mut rng),
        mp_verifier: legacy_mirror(&mp, LEGACY_ITERATIONS),
        pid_verifier: None,
        registration_id: None,
        accounts: Vec::new(),
    };
    let db = Database::open_durable(&dir).unwrap();
    db.table::<String, LegacyUserRecord>("users")
        .insert(&"alice".to_string(), &record)
        .unwrap();
    drop(db);
    dir
}

fn server_config(kdf_policy: KdfPolicy) -> ServerConfig {
    ServerConfig {
        endpoint: "legacy-test-server".into(),
        seed: 7,
        kdf_policy,
    }
}

#[test]
fn legacy_wal_store_reopens_and_verifies_under_cpu_policy() {
    let dir = write_legacy_durable_store("cpu-reopen");

    let mut server = AmnesiaServer::open_durable(
        server_config(KdfPolicy::Cpu {
            iterations: LEGACY_ITERATIONS,
        }),
        &dir,
    )
    .unwrap();

    // The bare-iterations record decodes as a CPU policy…
    let record = server.user_record("alice").unwrap();
    assert_eq!(
        *record.mp_verifier.policy(),
        KdfPolicy::Cpu {
            iterations: LEGACY_ITERATIONS
        }
    );
    // …and still authenticates.
    server.login("alice", MASTER_PASSWORD).unwrap();
    assert!(matches!(
        server.login("alice", "wrong password"),
        Err(ServerError::BadCredentials)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_record_verifies_under_stronger_deployment_policy() {
    // Upgrading a deployment to a memory-hard rung must not lock legacy
    // users out: verification re-derives under the *stored* (weaker)
    // policy, and the record is re-derived at the stronger rung on the
    // next password change.
    let dir = write_legacy_durable_store("upgrade-reopen");
    let mut server =
        AmnesiaServer::open_durable(server_config(KdfPolicy::INTERACTIVE), &dir).unwrap();
    server.login("alice", MASTER_PASSWORD).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_hard_record_round_trips_through_durable_store() {
    let dir = temp_dir("memhard-roundtrip");
    // Small rung so the test stays fast; class is still MemoryHard.
    let tiny = KdfPolicy::MemoryHard {
        log_n: 4,
        r: 1,
        p: 1,
    };

    let mut server = AmnesiaServer::open_durable(server_config(tiny), &dir).unwrap();
    server.register_user("bob", MASTER_PASSWORD).unwrap();
    drop(server);

    let mut reopened = AmnesiaServer::open_durable(server_config(tiny), &dir).unwrap();
    assert_eq!(
        *reopened.user_record("bob").unwrap().mp_verifier.policy(),
        tiny
    );
    reopened.login("bob", MASTER_PASSWORD).unwrap();

    // Reopening the same store under a CPU-only config refuses to serve
    // the memory-hard record: downgrades are loud, never silent.
    drop(reopened);
    let mut downgraded =
        AmnesiaServer::open_durable(server_config(KdfPolicy::Cpu { iterations: 10 }), &dir)
            .unwrap();
    assert!(matches!(
        downgraded.login("bob", MASTER_PASSWORD),
        Err(ServerError::PolicyDowngrade { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored account whose policy is written as raw fields, so a test can
/// put a policy no constructor would build at rest.
struct RawStoredAccount {
    entry: amnesia_core::AccountEntry,
    policy: (Vec<char>, usize),
    kind: amnesia_server::storage::AccountKind,
}
amnesia_store::record_struct! { RawStoredAccount { entry, policy, kind } }

/// [`LegacyUserRecord`] over raw accounts, with today's verifier layout.
struct RawUserRecord {
    user_id: String,
    oid: OnlineId,
    mp_verifier: Verifier,
    pid_verifier: Option<Verifier>,
    registration_id: Option<amnesia_rendezvous::RegistrationId>,
    accounts: Vec<RawStoredAccount>,
}
amnesia_store::record_struct! {
    RawUserRecord { user_id, oid, mp_verifier, pid_verifier, registration_id, accounts }
}

#[test]
fn a_stored_policy_with_no_characters_fails_at_open() {
    let mut rng = SecretRng::seeded(0xB0B);
    let policy = KdfPolicy::Cpu { iterations: 1 };
    let account = |charset: Vec<char>, rng: &mut SecretRng| RawStoredAccount {
        entry: amnesia_core::AccountEntry::new(
            amnesia_core::Username::new("bob").unwrap(),
            amnesia_core::Domain::new("d.example.com").unwrap(),
            amnesia_core::Seed::random(rng),
        ),
        policy: (charset, 32),
        kind: amnesia_server::storage::AccountKind::Generated,
    };
    for (charset, opens) in [(vec!['a', 'b'], true), (Vec::new(), false)] {
        let record = RawUserRecord {
            user_id: "bob".into(),
            oid: OnlineId::random(&mut rng),
            mp_verifier: Verifier::derive(b"mp", &policy, &mut rng).unwrap(),
            pid_verifier: None,
            registration_id: None,
            accounts: vec![account(charset, &mut rng)],
        };
        let db = Database::in_memory();
        db.table::<String, RawUserRecord>("users")
            .put(&"bob".to_string(), &record)
            .unwrap();
        let opened = AmnesiaServer::with_database(ServerConfig::default(), db);
        assert_eq!(opened.is_ok(), opens, "{:?}", opened.err());
        if let Err(e) = opened {
            assert!(matches!(e, ServerError::Store(_)), "{e:?}");
            assert!(e.to_string().contains("character table"), "{e}");
        }
    }
}

//! The server reads users from its decoded copy of the `users` table and
//! writes them to both. These tests drive every flow that changes a user
//! record, and some that fail, on a durable server, and check after each
//! step that the decoded copy encodes to exactly the rows at rest. Reopening
//! the store must then give the same rows and the same passwords.

use amnesia_core::{Domain, EntryTable, EntryValue, PasswordPolicy, PhoneId, Username};
use amnesia_crypto::{KdfPolicy, SecretRng};
use amnesia_net::SimInstant;
use amnesia_rendezvous::RendezvousServer;
use amnesia_server::protocol::{KpBackup, Push, TokenResponse};
use amnesia_server::storage::AccountRef;
use amnesia_server::{AmnesiaServer, ServerConfig, ServerError, SessionToken, TokenOutcome};
use amnesia_store::{codec, Database};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-decoded-rows-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServerConfig {
    ServerConfig {
        endpoint: "decoded-rows-server".into(),
        seed: 41,
        kdf_policy: KdfPolicy::PAPER,
    }
}

/// Every row at rest, encoded, by user id. Asserts on the way that the
/// server's decoded copy of each row encodes to the same bytes.
fn rows(server: &AmnesiaServer, step: &str) -> BTreeMap<String, Vec<u8>> {
    server
        .export_data_at_rest_for_attack_model()
        .iter()
        .map(|at_rest| {
            let bytes = codec::to_bytes(at_rest).unwrap();
            let decoded = server.user_record(&at_rest.user_id).unwrap();
            assert_eq!(
                codec::to_bytes(&decoded).unwrap(),
                bytes,
                "{step}: decoded row of {} differs from the table",
                at_rest.user_id
            );
            (at_rest.user_id.clone(), bytes)
        })
        .collect()
}

/// The phone side: pairs with the CAPTCHA and answers pushes from `table`.
struct Phone {
    pid: PhoneId,
    entries: Vec<EntryValue>,
    table: EntryTable,
}

impl Phone {
    fn new(seed: u64) -> Self {
        let mut rng = SecretRng::seeded(seed);
        let pid = PhoneId::random(&mut rng);
        let entries: Vec<EntryValue> = (0..64).map(|_| EntryValue::random(&mut rng)).collect();
        let table = EntryTable::from_entries(entries.clone()).unwrap();
        Phone {
            pid,
            entries,
            table,
        }
    }

    fn pair(&self, server: &mut AmnesiaServer, user: &str, session: &SessionToken) {
        let captcha = server.begin_phone_pairing(session).unwrap();
        let registration = RendezvousServer::new("gcm", 3).register_device(user);
        server
            .complete_phone_pairing(user, &captcha, &self.pid, registration)
            .unwrap();
    }

    fn answer(&self, push: &Push) -> TokenResponse {
        let push = &push.message;
        TokenResponse {
            request_id: push.request_id,
            token: self.table.token(&push.request).unwrap(),
            request: push.request.clone(),
            tstart: push.tstart,
        }
    }
}

/// Steps 2–5 of Figure 1 for one account, returning the password.
fn generate(
    server: &mut AmnesiaServer,
    phone: &Phone,
    session: &SessionToken,
    username: &Username,
    domain: &Domain,
) -> String {
    let push = server
        .request_password(session, username, domain, 1, "browser", SimInstant::EPOCH)
        .unwrap();
    match server.receive_token(&phone.answer(&push)).unwrap() {
        TokenOutcome::PasswordReady { password, .. } => password.as_str().to_string(),
        TokenOutcome::VaultStored { .. } => panic!("a generation stored a vault entry"),
    }
}

#[test]
fn decoded_rows_track_the_table_through_every_flow_and_reopen() {
    let dir = temp_dir("flows");
    let mut server = AmnesiaServer::open_durable(config(), &dir).unwrap();
    let alice_phone = Phone::new(1);
    let bob_phone = Phone::new(2);
    let mail = (
        Username::new("alice").unwrap(),
        Domain::new("mail.example").unwrap(),
    );
    let bank = (
        Username::new("alice").unwrap(),
        Domain::new("bank.example").unwrap(),
    );
    let vault = (
        Username::new("alice").unwrap(),
        Domain::new("vault.example").unwrap(),
    );
    let forum = (
        Username::new("bob").unwrap(),
        Domain::new("forum.example").unwrap(),
    );

    server.register_user("alice", "alice-mp").unwrap();
    server.register_user("bob", "bob-mp").unwrap();
    let mut last = rows(&server, "register");
    assert_eq!(last.len(), 2);
    assert!(matches!(
        server.register_user("alice", "again"),
        Err(ServerError::UserExists { .. })
    ));
    assert_eq!(rows(&server, "duplicate user"), last);

    let alice = server.login("alice", "alice-mp").unwrap();
    let bob = server.login("bob", "bob-mp").unwrap();
    server.begin_phone_pairing(&alice).unwrap();
    assert_eq!(
        server.complete_phone_pairing(
            "alice",
            "not-the-code",
            &alice_phone.pid,
            RendezvousServer::new("gcm", 3).register_device("alice"),
        ),
        Err(ServerError::BadCaptcha)
    );
    assert_eq!(rows(&server, "bad captcha"), last);
    alice_phone.pair(&mut server, "alice", &alice);
    bob_phone.pair(&mut server, "bob", &bob);
    let paired = rows(&server, "pairing");
    assert_ne!(paired, last);
    last = paired;

    for (session, (username, domain)) in [(&alice, &mail), (&alice, &bank), (&bob, &forum)] {
        server
            .add_account(
                session,
                username.clone(),
                domain.clone(),
                PasswordPolicy::default(),
            )
            .unwrap();
        let added = rows(&server, "add account");
        assert_ne!(added, last);
        last = added;
    }
    assert_eq!(
        server.add_account(
            &alice,
            mail.0.clone(),
            mail.1.clone(),
            PasswordPolicy::default()
        ),
        Err(ServerError::AccountExists)
    );
    assert_eq!(rows(&server, "duplicate account"), last);

    let mail_before = generate(&mut server, &alice_phone, &alice, &mail.0, &mail.1);
    assert_eq!(rows(&server, "generation"), last);
    server.rotate_seed(&alice, &mail.0, &mail.1).unwrap();
    let rotated = rows(&server, "rotate");
    assert_ne!(rotated, last);
    last = rotated;
    assert_ne!(
        generate(&mut server, &alice_phone, &alice, &mail.0, &mail.1),
        mail_before
    );
    assert_eq!(
        server.rotate_seed(&alice, &forum.0, &forum.1),
        Err(ServerError::UnknownAccount)
    );
    assert_eq!(rows(&server, "unknown account"), last);

    let push = server
        .store_chosen_password(
            &alice,
            AccountRef {
                username: vault.0.clone(),
                domain: vault.1.clone(),
            },
            "chosen by alice".into(),
            2,
            "browser",
            SimInstant::EPOCH,
        )
        .unwrap();
    assert_eq!(rows(&server, "vault request"), last);
    assert!(matches!(
        server.receive_token(&alice_phone.answer(&push)).unwrap(),
        TokenOutcome::VaultStored { .. }
    ));
    let stored = rows(&server, "vault store");
    assert_ne!(stored, last);
    last = stored;
    assert_eq!(
        generate(&mut server, &alice_phone, &alice, &vault.0, &vault.1),
        "chosen by alice"
    );

    server
        .change_master_password("alice", "alice-mp", &alice_phone.pid, "alice-mp-2")
        .unwrap();
    let changed = rows(&server, "change master password");
    assert_ne!(changed, last);
    last = changed;

    let backup = KpBackup {
        pid: alice_phone.pid.clone(),
        entries: alice_phone.entries.clone(),
    };
    let (credentials, old_registration) = server
        .recover_phone("alice", "alice-mp-2", &backup)
        .unwrap();
    assert_eq!(credentials.len(), 3);
    assert!(old_registration.is_some());
    let recovered = rows(&server, "recover");
    assert_ne!(recovered, last);

    // Re-pair Alice so both users can generate after the reopen.
    let alice = server.login("alice", "alice-mp-2").unwrap();
    alice_phone.pair(&mut server, "alice", &alice);
    let before_reopen = rows(&server, "re-pair");
    let every_password = |server: &mut AmnesiaServer, alice: &SessionToken, bob: &SessionToken| {
        let mut passwords: Vec<String> = [&mail, &bank, &vault]
            .into_iter()
            .map(|(u, d)| generate(server, &alice_phone, alice, u, d))
            .collect();
        passwords.push(generate(server, &bob_phone, bob, &forum.0, &forum.1));
        passwords
    };
    let passwords = every_password(&mut server, &alice, &bob);
    drop(server);

    let mut reopened = AmnesiaServer::open_durable(config(), &dir).unwrap();
    assert_eq!(rows(&reopened, "reopen"), before_reopen);
    let alice = reopened.login("alice", "alice-mp-2").unwrap();
    let bob = reopened.login("bob", "bob-mp").unwrap();
    assert_eq!(every_password(&mut reopened, &alice, &bob), passwords);

    // A snapshot reopens to the same rows too.
    let snapshot = dir.join("snapshot.db");
    reopened.save_to(&snapshot).unwrap();
    let from_snapshot = AmnesiaServer::open(config(), &snapshot).unwrap();
    assert_eq!(rows(&from_snapshot, "snapshot"), before_reopen);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_row_fails_at_open() {
    let db = Database::in_memory();
    db.table::<String, String>("users")
        .insert(&"mallory".to_string(), &"not a user record".to_string())
        .unwrap();
    assert!(matches!(
        AmnesiaServer::with_database(config(), db),
        Err(ServerError::Store(_))
    ));
}

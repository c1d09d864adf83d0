//! Stores written before accounts had a table of their own hold each user's
//! accounts inside the user's row of `users`. These tests write such
//! stores through a *mirror row* that reproduces that layout field for
//! field, then open them through the real server, which moves the accounts
//! into rows of the `accounts` table. The accounts, their order, the
//! passwords and the at-rest export must come out unchanged, from a durable
//! store, from a snapshot, and from a durable store cut partway through the
//! move.

use amnesia_core::{Domain, EntryTable, EntryValue, OnlineId, PasswordPolicy, PhoneId, Username};
use amnesia_crypto::{KdfPolicy, SecretRng};
use amnesia_net::SimInstant;
use amnesia_rendezvous::{RegistrationId, RendezvousServer};
use amnesia_server::auth::Verifier;
use amnesia_server::protocol::{Push, TokenResponse};
use amnesia_server::storage::AccountRef;
use amnesia_server::{
    AmnesiaServer, ServerConfig, ServerError, StoredAccount, TokenOutcome, UserRecord,
};
use amnesia_store::wal::{scan_segment, FRAME_HEADER_LEN, FRAME_TRAILER_LEN, WAL_MAGIC};
use amnesia_store::{codec, Database};
use std::path::{Path, PathBuf};

/// A `users` row that holds the user's accounts, as every build wrote it
/// before accounts had their own table.
struct WholeUserRow {
    user_id: String,
    oid: OnlineId,
    mp_verifier: Verifier,
    pid_verifier: Option<Verifier>,
    registration_id: Option<RegistrationId>,
    accounts: Vec<StoredAccount>,
}
amnesia_store::record_struct! {
    WholeUserRow { user_id, oid, mp_verifier, pid_verifier, registration_id, accounts }
}

impl WholeUserRow {
    fn of(record: &UserRecord) -> Self {
        WholeUserRow {
            user_id: record.user_id.clone(),
            oid: record.oid.clone(),
            mp_verifier: record.mp_verifier.clone(),
            pid_verifier: record.pid_verifier.clone(),
            registration_id: record.registration_id.clone(),
            accounts: record.accounts.clone(),
        }
    }
}

/// The key of an account row: user id and position in creation order.
type AccountKey = (String, u32);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-whole-record-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServerConfig {
    ServerConfig {
        endpoint: "whole-record-server".into(),
        seed: 61,
        kdf_policy: KdfPolicy::PAPER,
    }
}

/// The phone side: pairs with the CAPTCHA and answers pushes.
struct Phone {
    pid: PhoneId,
    table: EntryTable,
}

impl Phone {
    fn new(seed: u64) -> Self {
        let mut rng = SecretRng::seeded(seed);
        let pid = PhoneId::random(&mut rng);
        let entries: Vec<EntryValue> = (0..64).map(|_| EntryValue::random(&mut rng)).collect();
        Phone {
            pid,
            table: EntryTable::from_entries(entries).unwrap(),
        }
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

/// One user of the reference deployment.
struct User {
    id: &'static str,
    master_password: &'static str,
    /// The paired phone; `None` for a user who never paired.
    phone: Option<Phone>,
    accounts: usize,
}

fn users(large: usize) -> Vec<User> {
    vec![
        User {
            id: "alice",
            master_password: "alice-mp",
            phone: Some(Phone::new(1)),
            accounts: 3,
        },
        User {
            id: "bob",
            master_password: "bob-mp",
            phone: Some(Phone::new(2)),
            accounts: large,
        },
        User {
            id: "carol",
            master_password: "carol-mp",
            phone: None,
            accounts: 0,
        },
    ]
}

fn account(i: usize) -> (Username, Domain) {
    (
        Username::new("me").unwrap(),
        Domain::new(format!("site{i}.example")).unwrap(),
    )
}

/// Every account's password for the users with a phone, in user and
/// creation order.
fn passwords(server: &mut AmnesiaServer, users: &[User]) -> Vec<String> {
    let mut passwords = Vec::new();
    for user in users {
        let Some(phone) = &user.phone else { continue };
        let session = server.login(user.id, user.master_password).unwrap();
        let refs = server.list_accounts(&session).unwrap();
        for AccountRef { username, domain } in refs {
            let push = server
                .request_password(&session, &username, &domain, 1, "b", SimInstant::EPOCH)
                .unwrap();
            match server.receive_token(&phone.answer(&push)).unwrap() {
                TokenOutcome::PasswordReady { password, .. } => {
                    passwords.push(password.as_str().to_string())
                }
                TokenOutcome::VaultStored { .. } => panic!("a generation stored a vault entry"),
            }
        }
    }
    passwords
}

/// Runs the reference deployment in memory: users, pairing, generated
/// accounts, one vaulted account and one rotation.
fn reference(users: &[User]) -> AmnesiaServer {
    let mut server = AmnesiaServer::new(config());
    for user in users {
        server.register_user(user.id, user.master_password).unwrap();
        let session = server.login(user.id, user.master_password).unwrap();
        if let Some(phone) = &user.phone {
            let captcha = server.begin_phone_pairing(&session).unwrap();
            let registration = RendezvousServer::new("gcm", 3).register_device(user.id);
            server
                .complete_phone_pairing(user.id, &captcha, &phone.pid, registration)
                .unwrap();
        }
        for i in 0..user.accounts {
            let (username, domain) = account(i);
            server
                .add_account(&session, username, domain, PasswordPolicy::default())
                .unwrap();
        }
    }
    let alice = &users[0];
    let session = server.login(alice.id, alice.master_password).unwrap();
    let (username, domain) = account(1);
    server.rotate_seed(&session, &username, &domain).unwrap();
    let vault = AccountRef {
        username: Username::new("me").unwrap(),
        domain: Domain::new("vault.example").unwrap(),
    };
    let push = server
        .store_chosen_password(&session, vault, "chosen".into(), 2, "b", SimInstant::EPOCH)
        .unwrap();
    let token = alice.phone.as_ref().unwrap().answer(&push);
    assert!(matches!(
        server.receive_token(&token).unwrap(),
        TokenOutcome::VaultStored { .. }
    ));
    server
}

/// Writes every user of `reference` into `db` in the whole-record layout.
fn write_whole_records(db: &Database, reference: &AmnesiaServer, users: &[User]) {
    let table = db.table::<String, WholeUserRow>("users");
    for user in users {
        let record = reference.user_record(user.id).unwrap();
        table
            .insert(&user.id.to_string(), &WholeUserRow::of(&record))
            .unwrap();
    }
}

/// `server` holds every user of `reference` byte for byte, accounts and
/// their order included, in its decoded copy and in its at-rest export.
fn assert_same_users(server: &AmnesiaServer, reference: &AmnesiaServer, users: &[User], at: &str) {
    for user in users {
        let record = |s: &AmnesiaServer| codec::to_bytes(&s.user_record(user.id).unwrap()).unwrap();
        assert_eq!(record(server), record(reference), "{at}: {}", user.id);
    }
    let export = |s: &AmnesiaServer| {
        s.export_data_at_rest_for_attack_model()
            .iter()
            .map(|r| codec::to_bytes(r).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(export(server), export(reference), "{at}: at-rest export");
}

/// The rows at rest are in the account-row layout: no user row holds an
/// account, and the account rows number `accounts`.
fn assert_account_rows(db: &Database, accounts: usize, at: &str) {
    let users = db.table::<String, WholeUserRow>("users").scan().unwrap();
    assert!(
        users.iter().all(|(_, row)| row.accounts.is_empty()),
        "{at}: a user row still holds accounts"
    );
    let rows = db.table::<AccountKey, StoredAccount>("accounts");
    assert_eq!(rows.len(), accounts, "{at}: account rows");
}

fn total_accounts(reference: &AmnesiaServer, users: &[User]) -> usize {
    users
        .iter()
        .map(|u| reference.user_record(u.id).unwrap().accounts.len())
        .sum()
}

#[test]
fn a_durable_store_of_whole_records_reopens_unchanged() {
    // Bob's 300 accounts take positions past 255, whose little-endian keys
    // the table orders out of creation order.
    let users = users(300);
    let mut reference = reference(&users);
    let expected = passwords(&mut reference, &users);
    let accounts = total_accounts(&reference, &users);
    let dir = temp_dir("durable");
    let db = Database::open_durable(&dir).unwrap();
    write_whole_records(&db, &reference, &users);
    drop(db);

    let mut server = AmnesiaServer::open_durable(config(), &dir).unwrap();
    // One row per account, then one rewritten row per user that had any.
    let migrated = users.iter().filter(|u| u.accounts > 0).count();
    assert_eq!(
        server.database().wal_stats().unwrap().appended_records,
        (accounts + migrated) as u64
    );
    assert_same_users(&server, &reference, &users, "first open");
    assert_account_rows(server.database(), accounts, "first open");
    assert_eq!(passwords(&mut server, &users), expected);
    drop(server);

    let mut again = AmnesiaServer::open_durable(config(), &dir).unwrap();
    assert_eq!(again.database().wal_stats().unwrap().appended_records, 0);
    assert_same_users(&again, &reference, &users, "second open");
    assert_eq!(passwords(&mut again, &users), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_of_whole_records_reopens_unchanged() {
    let users = users(300);
    let mut reference = reference(&users);
    let expected = passwords(&mut reference, &users);
    let accounts = total_accounts(&reference, &users);
    let dir = temp_dir("snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let db = Database::in_memory();
    write_whole_records(&db, &reference, &users);
    let whole = dir.join("whole.db");
    db.save_to(&whole).unwrap();

    let mut server = AmnesiaServer::open(config(), &whole).unwrap();
    assert_same_users(&server, &reference, &users, "snapshot");
    assert_account_rows(server.database(), accounts, "snapshot");
    assert_eq!(passwords(&mut server, &users), expected);

    // Saved again, the snapshot holds account rows and reopens the same.
    let rows = dir.join("rows.db");
    server.save_to(&rows).unwrap();
    assert_account_rows(&Database::open(&rows).unwrap(), accounts, "resaved");
    let mut resaved = AmnesiaServer::open(config(), &rows).unwrap();
    assert_same_users(&resaved, &reference, &users, "resaved");
    assert_eq!(passwords(&mut resaved, &users), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_move_takes_two_flushes_whatever_the_account_count() {
    let users = users(40);
    let mut reference = reference(&users);
    let bob = &users[1..2];
    let expected = passwords(&mut reference, bob);
    let dir = temp_dir("two-flushes");
    let db = Database::open_durable(&dir).unwrap();
    write_whole_records(&db, &reference, bob);
    drop(db);

    let mut server = AmnesiaServer::open_durable(config(), &dir).unwrap();
    let stats = server.database().wal_stats().unwrap();
    assert_eq!(stats.appended_records, 41, "40 account rows and bob's row");
    assert_eq!(stats.flushes, 2, "the account rows, then the user row");
    let record = |s: &AmnesiaServer| codec::to_bytes(&s.user_record("bob").unwrap()).unwrap();
    assert_eq!(record(&server), record(&reference));
    assert_account_rows(server.database(), 40, "moved");
    assert_eq!(passwords(&mut server, bob), expected);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one `wal-*.log` segment in `dir`.
fn segment_file(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segments.len(), 1, "expected one segment in {dir:?}");
    segments.pop().unwrap()
}

/// The end offset of each frame of a segment.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut offset = WAL_MAGIC.len();
    while offset < bytes.len() {
        let len = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
        offset += FRAME_HEADER_LEN + len as usize + FRAME_TRAILER_LEN;
        ends.push(offset);
    }
    assert_eq!(offset, bytes.len(), "frames must end at the file's end");
    ends
}

#[test]
fn a_store_cut_partway_through_the_move_reopens_the_same() {
    let users = users(2);
    let reference = reference(&users);
    let accounts = total_accounts(&reference, &users);
    let dir = temp_dir("cut-source");
    let db = Database::open_durable(&dir).unwrap();
    write_whole_records(&db, &reference, &users);
    drop(db);
    drop(AmnesiaServer::open_durable(config(), &dir).unwrap());

    // The log holds one frame per whole record, then the move's frames.
    let segment = segment_file(&dir);
    let full = std::fs::read(&segment).unwrap();
    let ends = frame_ends(&full);
    assert_eq!(scan_segment(&full).unwrap().records.len(), ends.len());
    let moved = ends.len() - users.len();
    assert_eq!(
        moved,
        accounts + 2,
        "alice's and bob's rows, then each user row"
    );

    let work = temp_dir("cut-work");
    std::fs::create_dir_all(&work).unwrap();
    for kept in 0..=moved {
        let cut = ends[users.len() + kept - 1];
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
        }
        std::fs::write(segment_file(&work), &full[..cut]).unwrap();
        let server = AmnesiaServer::open_durable(config(), &work).unwrap();
        let at = format!("cut after {kept} moved rows");
        assert_same_users(&server, &reference, &users, &at);
        assert_account_rows(server.database(), accounts, &at);
        drop(server);
        let again = AmnesiaServer::open_durable(config(), &work).unwrap();
        assert_eq!(
            again.database().wal_stats().unwrap().appended_records,
            0,
            "{at}: second open wrote"
        );
        drop(again);
        std::fs::remove_dir_all(&work).unwrap();
        std::fs::create_dir_all(&work).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

/// A database holding bob's user row and the given rows of `accounts`.
fn with_account_rows(rows: &[(&str, u32)]) -> Database {
    let users = users(1);
    let reference = reference(&users);
    let bob = reference.user_record("bob").unwrap();
    let account = bob.accounts[0].clone();
    let db = Database::in_memory();
    let mut row = WholeUserRow::of(&bob);
    row.accounts.clear();
    db.table::<String, WholeUserRow>("users")
        .insert(&"bob".to_string(), &row)
        .unwrap();
    let table = db.table::<AccountKey, StoredAccount>("accounts");
    for (user_id, position) in rows {
        table
            .insert(&(user_id.to_string(), *position), &account)
            .unwrap();
    }
    db
}

#[test]
fn an_account_row_without_its_user_fails_at_open() {
    let db = with_account_rows(&[("bob", 0), ("mallory", 0)]);
    assert_eq!(
        AmnesiaServer::with_database(config(), db).err(),
        Some(ServerError::OrphanAccount {
            user_id: "mallory".into(),
            position: 0,
        })
    );
}

#[test]
fn a_gap_in_a_users_positions_fails_at_open() {
    let db = with_account_rows(&[("bob", 0), ("bob", 2)]);
    assert_eq!(
        AmnesiaServer::with_database(config(), db).err(),
        Some(ServerError::AccountPositionGap {
            user_id: "bob".into(),
            expected: 1,
            found: 2,
        })
    );
    let db = with_account_rows(&[("bob", 1)]);
    assert_eq!(
        AmnesiaServer::with_database(config(), db).err(),
        Some(ServerError::AccountPositionGap {
            user_id: "bob".into(),
            expected: 0,
            found: 1,
        })
    );
}

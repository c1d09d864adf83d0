//! Table I keeps one row per account, so adding or rotating an account
//! logs one account row, whatever the user's other accounts. These tests
//! measure the write-ahead-log bytes each write appends on a durable
//! server and require the same cost for a user's 1st and 40th account.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_crypto::KdfPolicy;
use amnesia_server::{AmnesiaServer, ServerConfig, SessionToken};
use std::path::PathBuf;

/// Accounts of the larger user: enough that a record holding all of them
/// would be tens of times one account's row.
const ACCOUNTS: usize = 40;

/// How far two writes of equal-length rows may differ: the width of the
/// varint that prefixes the key in a log record (one byte for keys under
/// 128 bytes, as every key here is).
const KEY_VARINT_WIDTH: u64 = 1;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amnesia-account-write-bytes-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServerConfig {
    ServerConfig {
        endpoint: "account-write-bytes-server".into(),
        seed: 53,
        kdf_policy: KdfPolicy::PAPER,
    }
}

/// Account `i`: every username and domain has the same length, so every
/// account row encodes to the same number of bytes.
fn account(i: usize) -> (Username, Domain) {
    (
        Username::new("user").unwrap(),
        Domain::new(format!("site{i:02}.example")).unwrap(),
    )
}

/// The log bytes `write` appends on `server`.
fn logged(server: &mut AmnesiaServer, write: impl FnOnce(&mut AmnesiaServer)) -> u64 {
    let flushed = |server: &AmnesiaServer| server.database().wal_stats().unwrap().flushed_bytes;
    let before = flushed(server);
    write(server);
    flushed(server) - before
}

fn add(server: &mut AmnesiaServer, session: &SessionToken, i: usize) -> u64 {
    logged(server, |server| {
        let (username, domain) = account(i);
        server
            .add_account(session, username, domain, PasswordPolicy::default())
            .unwrap();
    })
}

fn rotate(server: &mut AmnesiaServer, session: &SessionToken, i: usize) -> u64 {
    logged(server, |server| {
        let (username, domain) = account(i);
        server.rotate_seed(session, &username, &domain).unwrap();
    })
}

#[test]
fn an_account_write_costs_the_same_bytes_at_any_account_count() {
    let dir = temp_dir("cost");
    let mut server = AmnesiaServer::open_durable(config(), &dir).unwrap();
    // Two user ids of one length, so both users' account keys are the
    // same size.
    server.register_user("solo", "mp").unwrap();
    server.register_user("many", "mp").unwrap();
    let solo = server.login("solo", "mp").unwrap();
    let many = server.login("many", "mp").unwrap();

    let added: Vec<u64> = (0..ACCOUNTS).map(|i| add(&mut server, &many, i)).collect();
    let (first, last) = (added[0], added[ACCOUNTS - 1]);
    assert!(
        first.abs_diff(last) <= KEY_VARINT_WIDTH,
        "adding account 1 logged {first} bytes, account {ACCOUNTS} {last}: {added:?}"
    );

    add(&mut server, &solo, 0);
    let one = rotate(&mut server, &solo, 0);
    let forty = rotate(&mut server, &many, ACCOUNTS - 1);
    assert!(
        one.abs_diff(forty) <= KEY_VARINT_WIDTH,
        "rotating the account of a 1-account user logged {one} bytes, \
         of a {ACCOUNTS}-account user {forty}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

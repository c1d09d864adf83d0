//! Integration tests for the §VIII extensions: the vault (user-chosen
//! passwords under bilateral encryption) and the session mechanism
//! (one confirmation buys a bounded run of generations).

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_phone::ConfirmPolicy;
use amnesia_server::AccountKind;
use amnesia_system::{AmnesiaSystem, SystemConfig};

fn setup(seed: u64) -> AmnesiaSystem {
    let mut sys = AmnesiaSystem::new(SystemConfig::default().with_seed(seed).with_table_size(128));
    sys.add_browser("browser");
    sys.add_phone("phone", seed + 1);
    sys.setup_user("alice", "master password", "browser", "phone")
        .unwrap();
    sys
}

#[test]
fn vault_stores_and_retrieves_chosen_passwords() {
    let mut sys = setup(1);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("legacy-bank.example.com").unwrap();

    let account = sys
        .store_chosen_password(
            "browser",
            "phone",
            u.clone(),
            d.clone(),
            "my-pre-existing-bank-password",
        )
        .unwrap();
    assert_eq!(account.username, u);

    // Retrieval goes through the full bilateral flow and returns the
    // *chosen* password.
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(outcome.password.as_str(), "my-pre-existing-bank-password");

    // The vault entry appears in the account list like any other.
    let accounts = sys.list_accounts("browser").unwrap();
    assert_eq!(accounts.len(), 1);
}

#[test]
fn vault_ciphertext_at_rest_is_opaque() {
    let mut sys = setup(2);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("v.example.com").unwrap();
    sys.store_chosen_password(
        "browser",
        "phone",
        u.clone(),
        d.clone(),
        "chosen secret value",
    )
    .unwrap();

    // Server breach: the stored row is AEAD ciphertext, not the password.
    let dump = sys.server().export_data_at_rest_for_attack_model();
    let account = dump[0].find_account(&u, &d).unwrap();
    match &account.kind {
        AccountKind::Vaulted { ciphertext } => {
            let needle = b"chosen secret value";
            assert!(
                !ciphertext
                    .windows(needle.len())
                    .any(|w| w == needle.as_slice()),
                "chosen password visible in data at rest"
            );
            assert!(ciphertext.len() >= needle.len() + 48, "nonce+tag overhead");
        }
        other => panic!("expected vaulted account, found {other:?}"),
    }
}

#[test]
fn vault_entries_survive_phone_recovery() {
    let mut sys = setup(3);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("vr.example.com").unwrap();
    sys.store_chosen_password(
        "browser",
        "phone",
        u.clone(),
        d.clone(),
        "survives recovery",
    )
    .unwrap();

    sys.remove_phone("phone");
    let recovery = sys
        .recover_phone("alice", "master password", "browser", "phone-2", 33)
        .unwrap();
    // The recovered credential for the vault entry is the chosen password
    // itself (decrypted with the uploaded old table).
    assert_eq!(
        recovery.credentials[0].old_password.as_str(),
        "survives recovery"
    );
}

#[test]
fn vault_store_rejects_duplicate_accounts() {
    let mut sys = setup(4);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("dup.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    let err = sys
        .store_chosen_password("browser", "phone", u, d, "x")
        .unwrap_err();
    assert!(err.to_string().contains("already managed"), "{err}");
}

#[test]
fn seed_rotation_refused_for_vaulted_accounts() {
    let mut sys = setup(5);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("norotate.example.com").unwrap();
    sys.store_chosen_password("browser", "phone", u.clone(), d.clone(), "x")
        .unwrap();
    let err = sys.rotate_seed("browser", u, d).unwrap_err();
    assert!(err.to_string().contains("vaulted"), "{err}");
}

#[test]
fn session_grant_skips_phone_interaction_for_exactly_n_uses() {
    let mut sys = setup(6);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("s.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();

    // Manual policy: without a session, generation requires a confirmation.
    sys.phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::Manual);

    let granted = sys
        .enable_generation_session("alice", "phone", "browser", 3)
        .unwrap();
    assert_eq!(granted, 3);

    // Three generations auto-confirm (no pending requests appear).
    for i in 0..3 {
        let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
        assert_eq!(outcome.password.as_str().len(), 32, "use {i}");
    }
    assert_eq!(sys.phone("phone").unwrap().session_grant_remaining(), 0);
    assert_eq!(sys.server().session_grant_remaining("alice"), 0);

    // The fourth generation falls back to manual confirmation — and still
    // succeeds because the flow confirms the pending request.
    let before = sys.phone("phone").unwrap().notifications_raised();
    sys.generate_password("browser", "phone", &u, &d).unwrap();
    let after = sys.phone("phone").unwrap().notifications_raised();
    assert_eq!(after, before + 1, "fourth push renotifies the user");
}

#[test]
fn session_grants_do_not_transfer_between_phones() {
    let mut sys = setup(7);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("xfer.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    sys.enable_generation_session("alice", "phone", "browser", 2)
        .unwrap();

    // A *different* phone minting its own grant cannot redeem the pushes
    // keyed to the first phone's grant: redeem compares token identity.
    let mut other = amnesia_phone::AmnesiaPhone::new(
        amnesia_phone::PhoneConfig::new("other", 999).with_table_size(64),
    );
    let mut gcm = amnesia_rendezvous::RendezvousServer::new("gcm2", 1);
    other.register_with_rendezvous(&mut gcm);
    // Generation still works against the real phone.
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(outcome.password.as_str().len(), 32);
}

#[test]
fn revoked_session_falls_back_to_manual() {
    let mut sys = setup(8);
    let u = Username::new("alice").unwrap();
    let d = Domain::new("revoke.example.com").unwrap();
    sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
        .unwrap();
    sys.enable_generation_session("alice", "phone", "browser", 5)
        .unwrap();
    // The user revokes on the device; the server still attaches the grant,
    // but the phone refuses to redeem it and queues a confirmation instead.
    sys.phone_mut("phone").unwrap().revoke_session();
    let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
    assert_eq!(outcome.password.as_str().len(), 32);
    assert_eq!(sys.phone("phone").unwrap().session_grant_remaining(), 0);
}

#[test]
fn vaulted_and_generated_accounts_coexist() {
    let mut sys = setup(9);
    let u = Username::new("alice").unwrap();
    let d_gen = Domain::new("gen.example.com").unwrap();
    let d_vault = Domain::new("vault.example.com").unwrap();
    sys.add_account(
        "browser",
        u.clone(),
        d_gen.clone(),
        PasswordPolicy::default(),
    )
    .unwrap();
    sys.store_chosen_password("browser", "phone", u.clone(), d_vault.clone(), "chosen!")
        .unwrap();

    let generated = sys
        .generate_password("browser", "phone", &u, &d_gen)
        .unwrap();
    let vaulted = sys
        .generate_password("browser", "phone", &u, &d_vault)
        .unwrap();
    assert_eq!(generated.password.as_str().len(), 32);
    assert_eq!(vaulted.password.as_str(), "chosen!");
    assert_eq!(sys.list_accounts("browser").unwrap().len(), 2);
}

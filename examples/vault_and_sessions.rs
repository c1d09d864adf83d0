//! The §VIII extensions in action: the *vault* stores a user-chosen
//! password under the bilateral key, and the *session mechanism* lets one
//! phone confirmation authorize a bounded run of generations.
//!
//! ```sh
//! cargo run --example vault_and_sessions
//! ```

use amnesia::core::{Domain, PasswordPolicy, Username};
use amnesia::phone::ConfirmPolicy;
use amnesia::system::{AmnesiaSystem, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut system = AmnesiaSystem::new(SystemConfig::default().with_seed(21));
    system.add_browser("browser");
    system.add_phone("phone", 210);
    system.setup_user("erin", "master password", "browser", "phone")?;

    // --- Vault: keep a password you cannot change -------------------------
    // Some accounts (a router, a legacy system) have passwords the user
    // cannot regenerate. The vault stores them sealed under
    // k = SHA-512(T || Oid || sigma): the server at rest holds only AEAD
    // ciphertext.
    let u = Username::new("erin")?;
    let router = Domain::new("router.local")?;
    system.store_chosen_password(
        "browser",
        "phone",
        u.clone(),
        router.clone(),
        "Adm1n-R0uter!",
    )?;
    println!("vault: chosen password stored (sealed server-side)");

    let retrieved = system.generate_password("browser", "phone", &u, &router)?;
    assert_eq!(retrieved.password.as_str(), "Adm1n-R0uter!");
    println!(
        "vault: retrieval through the bilateral flow -> {}",
        retrieved.password
    );

    // Prove the at-rest representation is opaque.
    let dump = system.server().export_data_at_rest_for_attack_model();
    let account = dump[0].find_account(&u, &router).expect("vault row");
    match &account.kind {
        amnesia::server::AccountKind::Vaulted { ciphertext } => {
            assert!(!ciphertext
                .windows("Adm1n-R0uter!".len())
                .any(|w| w == "Adm1n-R0uter!".as_bytes()));
            println!(
                "vault: server breach would see {} opaque bytes",
                ciphertext.len()
            );
        }
        _ => unreachable!("stored as vaulted"),
    }

    // --- Session mechanism: confirm once, generate many --------------------
    let site = Domain::new("work.example.com")?;
    system.add_account(
        "browser",
        u.clone(),
        site.clone(),
        PasswordPolicy::default(),
    )?;
    system
        .phone_mut("phone")
        .unwrap()
        .set_confirm_policy(ConfirmPolicy::Manual);

    let uses = system.enable_generation_session("erin", "phone", "browser", 5)?;
    println!("\nsession: user confirmed once on the phone; {uses} auto-confirm uses granted");
    for i in 1..=5 {
        let outcome = system.generate_password("browser", "phone", &u, &site)?;
        println!(
            "session use {i}: {}… (remaining {})",
            &outcome.password.as_str()[..8],
            system.phone("phone").unwrap().session_grant_remaining()
        );
    }
    println!(
        "session exhausted; the next generation will notify the phone again \
         (notifications so far: {})",
        system.phone("phone").unwrap().notifications_raised()
    );
    Ok(())
}

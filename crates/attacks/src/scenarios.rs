//! The executable §IV attack scenarios.

use crate::guessing::{GuessingReport, KdfAttackCost};
use crate::report::{AttackReport, AttackVector};
use amnesia_client::{DummyWebsite, SitePolicy};
use amnesia_core::{
    derive_password, Domain, EntryTable, PasswordPolicy, PasswordRequest, Username,
};
use amnesia_crypto::sha256_concat;
use amnesia_net::{LatencyModel, LinkProfile, SecureChannel};
use amnesia_phone::ConfirmPolicy;
use amnesia_rendezvous::PushEnvelope;
use amnesia_server::protocol::{FromServer, KpBackup, PhonePush, Reply, ToServer};
use amnesia_system::{AmnesiaSystem, SystemConfig, GCM_ENDPOINT, SERVER_ENDPOINT};

/// A standard victim deployment: one user, three accounts (the Table I
/// examples), phone paired and backed up.
pub struct Victim {
    /// The live deployment under attack.
    pub system: AmnesiaSystem,
    /// The victim's Amnesia login.
    pub user_id: String,
    /// The victim's master password (known to the harness; attackers only
    /// get it in the scenarios that grant it).
    pub master_password: String,
    /// The victim's browser endpoint.
    pub browser: &'static str,
    /// The victim's phone endpoint.
    pub phone: &'static str,
    /// The managed accounts.
    pub accounts: Vec<(Username, Domain)>,
}

impl Victim {
    /// Builds the standard victim.
    ///
    /// # Panics
    ///
    /// Panics only on internal harness misconfiguration.
    pub fn standard(seed: u64) -> Self {
        let mut system = AmnesiaSystem::new(SystemConfig::default().with_seed(seed));
        system.add_browser("victim-browser");
        system.add_phone("victim-phone", seed.wrapping_add(7));
        system
            .setup_user(
                "alice",
                "correct horse battery",
                "victim-browser",
                "victim-phone",
            )
            .expect("victim setup");
        let accounts = vec![
            (
                Username::new("Alice").expect("valid"),
                Domain::new("mail.google.com").expect("valid"),
            ),
            (
                Username::new("Alice2").expect("valid"),
                Domain::new("www.facebook.com").expect("valid"),
            ),
            (
                Username::new("Bob").expect("valid"),
                Domain::new("www.yahoo.com").expect("valid"),
            ),
        ];
        for (u, d) in &accounts {
            system
                .add_account(
                    "victim-browser",
                    u.clone(),
                    d.clone(),
                    PasswordPolicy::default(),
                )
                .expect("add account");
        }
        Victim {
            system,
            user_id: "alice".into(),
            master_password: "correct horse battery".into(),
            browser: "victim-browser",
            phone: "victim-phone",
            accounts,
        }
    }

    /// Generates the password for account `index` through the legitimate
    /// flow (the harness's ground truth).
    pub fn ground_truth_password(&mut self, index: usize) -> String {
        let (u, d) = self.accounts[index].clone();
        self.system
            .generate_password(self.browser, self.phone, &u, &d)
            .expect("legitimate generation")
            .password
            .as_str()
            .to_string()
    }
}

/// §IV-A, browser link: "the attacker can eavesdrop on password P that the
/// victim has generated ... a far greater threat."
pub fn broken_https_browser_link(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::BrokenHttpsBrowserLink);
    let mut victim = Victim::standard(seed);

    let tap = victim
        .system
        .net_mut()
        .tap(SERVER_ENDPOINT, victim.browser)
        .expect("link exists");
    let keys = victim
        .system
        .export_channel_keys_for_attack_model(SERVER_ENDPOINT, victim.browser)
        .expect("channel exists");
    report.note("attacker taps the server->browser HTTPS link and holds its keys");

    let truth = victim.ground_truth_password(0);

    for record in tap.records() {
        let Ok(plaintext) =
            SecureChannel::decrypt_with_stolen_keys(&keys.0, &keys.1, &record.payload)
        else {
            continue;
        };
        let Ok(reply) = Reply::from_wire(&plaintext) else {
            continue;
        };
        if let FromServer::PasswordReady {
            account, password, ..
        } = reply.message
        {
            report.note(format!("decrypted a PasswordReady frame for {account}"));
            report.recovered_password(account.to_string(), password.as_str());
        }
    }
    assert_eq!(
        report.recovered.first().map(|(_, p)| p.as_str()),
        Some(truth.as_str()),
        "harness self-check: captured password must match ground truth"
    );
    report
}

/// §IV-A, phone link: "having T alone is useless."
pub fn broken_https_phone_link(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::BrokenHttpsPhoneLink);
    let mut victim = Victim::standard(seed);

    let tap = victim
        .system
        .net_mut()
        .tap(victim.phone, SERVER_ENDPOINT)
        .expect("link exists");
    let keys = victim
        .system
        .export_channel_keys_for_attack_model(victim.phone, SERVER_ENDPOINT)
        .expect("channel exists");
    report.note("attacker taps the phone->server HTTPS link and holds its keys");

    let _truth = victim.ground_truth_password(0);

    let mut tokens_seen = 0;
    for record in tap.records() {
        let Ok(plaintext) =
            SecureChannel::decrypt_with_stolen_keys(&keys.0, &keys.1, &record.payload)
        else {
            continue;
        };
        if let Ok(ToServer::Token(response)) = ToServer::from_wire(&plaintext) {
            tokens_seen += 1;
            report.note(format!(
                "captured token T = 0x{}... for request 0x{}...",
                &response.token.to_hex()[..8],
                &response.request.to_hex()[..8]
            ));
        }
    }
    assert!(tokens_seen > 0, "harness self-check: tap must capture T");
    report.note(format!(
        "password derivation blocked: {}",
        GuessingReport::server_secret_guessing().summary()
    ));
    report.note("no website password recoverable from T without Ks");
    report
}

/// §IV-B: the rendezvous eavesdropper sees `R` but σ prevents linking it to
/// an account; the ablation shows the linkage that would exist without σ.
pub fn rendezvous_eavesdrop(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::RendezvousEavesdrop);
    let mut victim = Victim::standard(seed);

    let tap = victim
        .system
        .net_mut()
        .tap(GCM_ENDPOINT, victim.phone)
        .expect("link exists");
    report.note("attacker observes rendezvous routing to the phone");

    let _ = victim.ground_truth_password(0);

    // Candidate catalogue: the victim's real accounts plus decoys.
    let mut candidates: Vec<(Username, Domain)> = victim.accounts.clone();
    for i in 0..7 {
        candidates.push((
            Username::new(format!("decoy{i}")).expect("valid"),
            Domain::new(format!("decoy{i}.example.com")).expect("valid"),
        ));
    }

    let mut observed_requests = Vec::new();
    for record in tap.records() {
        if let Ok(push) = PhonePush::from_wire(&record.payload) {
            observed_requests.push(push.request);
        }
    }
    assert!(
        !observed_requests.is_empty(),
        "harness self-check: tap must capture R"
    );
    report.note(format!("captured {} request(s) R", observed_requests.len()));

    // Linkage attempt against the real (σ-blinded) scheme.
    let mut linked = 0;
    for request in &observed_requests {
        for (u, d) in &candidates {
            let guess = sha256_concat(&[u.as_str().as_bytes(), b"\0", d.as_str().as_bytes()]);
            if guess == *request.as_bytes() {
                linked += 1;
            }
        }
    }
    report.note(format!(
        "linkage attempts against sigma-blinded requests: {linked}/{} candidates matched",
        candidates.len()
    ));
    assert_eq!(linked, 0, "sigma must blind the request");

    // Ablation: without σ the same attack succeeds.
    let (u0, d0) = &victim.accounts[0];
    let unblinded = PasswordRequest::derive_unblinded(u0, d0);
    let ablation_linked = candidates.iter().any(|(u, d)| {
        sha256_concat(&[u.as_str().as_bytes(), b"\0", d.as_str().as_bytes()])
            == *unblinded.as_bytes()
    });
    assert!(ablation_linked, "ablation: unblinded requests are linkable");
    report.note(
        "ablation: had R been H(u||d) without sigma, the attacker's candidate hash \
         matches and confirms which account the user is accessing",
    );
    report
}

/// §IV-C: full access to data at rest — account list leaks, passwords do
/// not; the forged-push abuse of the stolen registration ID is also run.
pub fn server_breach(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::ServerBreach);
    let mut victim = Victim::standard(seed);
    let truth = victim.ground_truth_password(0);

    let dump = victim
        .system
        .server()
        .export_data_at_rest_for_attack_model();
    assert_eq!(dump.len(), 1);
    let record = &dump[0];
    report.note(format!(
        "data at rest captured: Oid, {} account entries with sigma, hashed MP, hashed Pid, \
         plaintext registration id",
        record.accounts.len()
    ));
    for account in &record.accounts {
        report.note(format!(
            "  attacker learns managed account: {}",
            account.account_ref()
        ));
    }
    report.note(format!(
        "offline password derivation blocked: {}",
        GuessingReport::token_guessing().summary()
    ));
    // The captured verifiers are also what an offline master-password
    // grinder attacks; the KDF ladder prices that per rung.
    report.note("offline verifier grinding cost by KDF rung (area-time model):");
    for row in KdfAttackCost::ladder() {
        report.note(format!("  {}", row.summary()));
    }

    // Forged push using the stolen registration ID (paper: "the attacker may
    // abscond with the victim's Ks and then send a request R from his own
    // malicious server using the victim's registration id").
    let registration_id = record.registration_id.clone().expect("paired");
    let account = &record.accounts[0];
    let forged_request = PasswordRequest::derive(
        account.entry.username(),
        account.entry.domain(),
        account.entry.seed(),
    );
    let now = victim.system.now();
    let forged = PushEnvelope {
        registration_id,
        data: PhonePush {
            request_id: 0,
            request: forged_request,
            origin: "mallory.evil.example".into(),
            tstart: now,
            session_grant: None,
        }
        .to_wire()
        .expect("encodes"),
    };

    {
        let net = victim.system.net_mut();
        net.register("mallory");
        net.connect(
            "mallory",
            GCM_ENDPOINT,
            LinkProfile::new(LatencyModel::constant_ms(5.0)),
        );
    }
    // A naive user presses accept on the unsolicited request (§IV-C).
    victim
        .system
        .phone_mut(victim.phone)
        .expect("phone present")
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);
    let rejected_before = victim.system.server().stats().tokens_rejected;
    victim
        .system
        .net_mut()
        .send("mallory", GCM_ENDPOINT, forged.to_wire().expect("encodes"))
        .expect("send");
    victim.system.pump();
    let rejected_after = victim.system.server().stats().tokens_rejected;

    report.note(
        "forged push delivered; naive user accepted; phone computed T and sent it to the \
         legitimate Amnesia server",
    );
    if rejected_after > rejected_before {
        report.note(
            "the token returned to the real server (matched no pending request, rejected); \
             with data-at-rest access only — no process-memory access per the threat model — \
             the attacker never sees T",
        );
    }
    let notified = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .notifications()
        .iter()
        .any(|n| n.origin == "mallory.evil.example");
    assert!(notified, "the suspicious origin is visible to the user");
    report.note("the request notification showed origin mallory.evil.example to the user");
    assert!(!report.recovered.iter().any(|(_, p)| p == &truth));
    report
}

/// §IV-D: the phone alone — `Kp` plus on-device observation of `R` and `T`,
/// but neither `Ks` nor the account the request targets.
pub fn phone_compromise(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::PhoneCompromise);
    let mut victim = Victim::standard(seed);

    // The attacker images the device.
    let stolen_kp = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .create_backup();
    report.note(format!(
        "attacker images the phone: Pid and the {}-entry table stolen",
        stolen_kp.entries.len()
    ));

    // The user generates a password while the attacker watches device memory.
    let _ = victim.ground_truth_password(0);
    let observed = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .notifications_raised();
    report.note(format!(
        "attacker observed {observed} request(s) and the computation T = H(e_i0 || ... || e_i15)"
    ));

    report.note(
        "the attacker can compute T for any R, but sigma hides which account R belongs to \
         (see rendezvous analysis) and the password needs Ks",
    );
    report.note(format!(
        "password derivation blocked: {}",
        GuessingReport::server_secret_guessing().summary()
    ));
    report
}

/// Threat model §II: the master password alone. The attacker logs in from
/// their own machine and can *see* the managed-account list, but every
/// password request lights up the victim's phone — a vigilant user rejects
/// the unsolicited prompt (and then runs the §III-C2 recovery).
pub fn master_password_only(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::MasterPasswordOnly);
    let mut victim = Victim::standard(seed);
    report.note("attacker phished the master password; has no device access");

    victim.system.add_browser("mallory-browser");
    victim
        .system
        .login("mallory-browser", &victim.user_id, &victim.master_password)
        .expect("login succeeds with the stolen master password");
    let accounts = victim
        .system
        .list_accounts("mallory-browser")
        .expect("account list visible");
    report.note(format!(
        "metadata leak: attacker sees the {} managed accounts",
        accounts.len()
    ));

    // The victim still holds the phone and rejects the unsolicited request.
    victim
        .system
        .phone_mut(victim.phone)
        .expect("phone present")
        .set_confirm_policy(ConfirmPolicy::AutoReject);
    let (u, d) = victim.accounts[0].clone();
    let attempt = victim
        .system
        .generate_password("mallory-browser", victim.phone, &u, &d);
    assert!(attempt.is_err(), "rejection must block the password");
    report.note("victim rejected the unsolicited confirmation: no password delivered");
    let notified = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .notifications()
        .iter()
        .any(|n| n.origin == "mallory-browser");
    assert!(notified, "the victim is alerted by the rogue request");
    report.note("the rogue request itself alerted the victim (origin shown on the phone)");

    // The user responds with the §III-C2 recovery: rotate the master
    // password using the phone as proof of possession.
    victim
        .system
        .change_master_password(
            &victim.user_id,
            &victim.master_password,
            "a fresh master password",
            victim.browser,
            victim.phone,
        )
        .expect("master password recovery");
    let relogin = victim
        .system
        .login("mallory-browser", &victim.user_id, &victim.master_password);
    assert!(relogin.is_err(), "stolen master password is now dead");
    report.note("victim ran the master-password recovery; the stolen credential is dead");
    report
}

/// Threat-model boundary: stolen phone **and** master password — the
/// attacker logs in from their own machine and drains every account.
pub fn phone_plus_master_password(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::PhonePlusMasterPassword);
    let mut victim = Victim::standard(seed);
    report.note("attacker holds the victim's phone and knows the master password");

    victim.system.add_browser("mallory-browser");
    victim
        .system
        .login("mallory-browser", &victim.user_id, &victim.master_password)
        .expect("login with stolen master password succeeds");
    report.note("logged into the Amnesia server from the attacker's browser");

    // The attacker physically holds the phone, so confirmations are theirs.
    victim
        .system
        .phone_mut(victim.phone)
        .expect("phone present")
        .set_confirm_policy(ConfirmPolicy::AutoConfirm);

    let accounts = victim.accounts.clone();
    for (u, d) in &accounts {
        let outcome = victim
            .system
            .generate_password("mallory-browser", victim.phone, u, d)
            .expect("generation through stolen factors");
        report.recovered_password(format!("{u}@{d}"), outcome.password.as_str());
    }
    assert_eq!(report.recovered.len(), 3);
    report
}

/// Threat-model boundary: server data at rest **and** the phone's `Kp` —
/// passwords derive entirely offline.
pub fn server_breach_plus_phone(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::ServerBreachPlusPhone);
    let mut victim = Victim::standard(seed);

    // Ground truth via the legitimate path.
    let truth: Vec<String> = (0..victim.accounts.len())
        .map(|i| victim.ground_truth_password(i))
        .collect();

    let stolen_kp: KpBackup = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .create_backup();
    let dump = victim
        .system
        .server()
        .export_data_at_rest_for_attack_model();
    let record = &dump[0];
    let table = EntryTable::from_entries(stolen_kp.entries).expect("valid table");
    report.note("attacker holds Ks (breach) and Kp (phone image): deriving offline");

    for (i, account) in record.accounts.iter().enumerate() {
        let password = derive_password(&account.entry, &record.oid, &table, &account.policy)
            .expect("offline derivation");
        assert_eq!(password.as_str(), truth[i], "offline derivation must match");
        report.recovered_password(account.account_ref().to_string(), password.as_str());
    }
    report
}

/// §III-C1: after recovery, the old `Kp` no longer opens anything — the
/// websites hold passwords generated from the *new* table.
pub fn stolen_phone_after_recovery(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::StolenPhoneAfterRecovery);
    let mut victim = Victim::standard(seed);

    // The victim's website account, provisioned with the current password.
    let (u0, d0) = victim.accounts[0].clone();
    let old_password = victim.ground_truth_password(0);
    let mut website = DummyWebsite::new(d0.as_str(), SitePolicy::permissive(), seed);
    website.signup(u0.as_str(), &old_password).expect("signup");

    // Theft: attacker images the phone before the user notices.
    let stolen_kp = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .create_backup();
    victim.system.remove_phone(victim.phone);
    report.note("attacker stole the phone and imaged Kp; user noticed and started recovery");

    // Recovery: regenerate old credentials, pair a new phone.
    let recovery = victim
        .system
        .recover_phone(
            &victim.user_id,
            &victim.master_password,
            victim.browser,
            "victim-phone-2",
            seed.wrapping_add(99),
        )
        .expect("recovery");
    let recovered_old = recovery
        .credentials
        .iter()
        .find(|c| c.username == u0 && c.domain == d0)
        .expect("credential present")
        .old_password
        .as_str()
        .to_string();
    assert_eq!(recovered_old, old_password);

    // The user resets the website password to the newly generated one.
    let new_password = victim
        .system
        .generate_password(victim.browser, "victim-phone-2", &u0, &d0)
        .expect("new generation")
        .password;
    website
        .change_password(u0.as_str(), &recovered_old, new_password.as_str())
        .expect("password reset");
    report.note("user reset the website password using the recovered credentials");

    // Later, the attacker even breaches the server — and still derives only
    // the dead password.
    let dump = victim
        .system
        .server()
        .export_data_at_rest_for_attack_model();
    let record = &dump[0];
    let account = record
        .accounts
        .iter()
        .find(|a| a.entry.username() == &u0 && a.entry.domain() == &d0)
        .expect("account present");
    let old_table = EntryTable::from_entries(stolen_kp.entries).expect("valid table");
    let derived = derive_password(&account.entry, &record.oid, &old_table, &account.policy)
        .expect("derivation");
    report.note("attacker (old Kp + later breach) derives the pre-recovery password");
    assert_eq!(
        derived.as_str(),
        old_password,
        "derives only the old password"
    );

    match website.login(u0.as_str(), derived.as_str()) {
        Err(_) => report.note("the website rejects it: recovery restored bilateral security"),
        Ok(()) => {
            report.recovered_password(format!("{u0}@{d0}"), derived.as_str());
            report.note("UNEXPECTED: old password still valid");
        }
    }
    report
}

/// §VIII vault extension under the §IV-C breach model: the sealed chosen
/// password resists a data-at-rest breach exactly like generated passwords
/// do, and falls exactly when the phone's `Kp` is also taken.
pub fn vault_server_breach(seed: u64) -> AttackReport {
    let mut report = AttackReport::new(AttackVector::VaultServerBreach);
    let mut victim = Victim::standard(seed);
    let u = Username::new("alice-vault").expect("valid");
    let d = Domain::new("legacy.example.com").expect("valid");
    victim
        .system
        .store_chosen_password(
            victim.browser,
            victim.phone,
            u.clone(),
            d.clone(),
            "users-own-chosen-password",
        )
        .expect("vault store");

    let dump = victim
        .system
        .server()
        .export_data_at_rest_for_attack_model();
    let record = &dump[0];
    let account = record.find_account(&u, &d).expect("vault account");
    let ciphertext = match &account.kind {
        amnesia_server::AccountKind::Vaulted { ciphertext } => ciphertext.clone(),
        other => panic!("expected vaulted account, found {other:?}"),
    };
    report.note(format!(
        "breach captured a {}-byte AEAD blob plus Oid and sigma",
        ciphertext.len()
    ));

    // Data at rest alone: the attacker holds Oid and sigma but not T, so the
    // key k = SHA-512(T||Oid||sigma) is out of reach.
    let needle = b"users-own-chosen-password";
    assert!(
        !ciphertext
            .windows(needle.len())
            .any(|w| w == needle.as_slice()),
        "plaintext must not appear in the blob"
    );
    report.note(format!(
        "decryption blocked without the phone: {}",
        GuessingReport::token_guessing().summary()
    ));

    // Adding the phone's Kp crosses the designed boundary: rebuild the key
    // offline and open the blob.
    let stolen_kp = victim
        .system
        .phone(victim.phone)
        .expect("phone present")
        .create_backup();
    let table = EntryTable::from_entries(stolen_kp.entries).expect("valid table");
    let request = PasswordRequest::derive(&u, &d, account.entry.seed());
    let token = table.token(&request).expect("token");
    let key = amnesia_core::derive_intermediate(&token, &record.oid, account.entry.seed());
    let aad = format!("{u}@{d}");
    match amnesia_crypto::aead::open(&key, &ciphertext, aad.as_bytes()) {
        Ok(plaintext) => {
            report.note("with Kp as well, the bilateral key reassembles offline");
            report.recovered_password(
                format!("{u}@{d}"),
                String::from_utf8(plaintext).expect("utf8"),
            );
        }
        Err(e) => report.note(format!("UNEXPECTED: decryption failed: {e}")),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_fixture_is_functional() {
        let mut v = Victim::standard(50);
        let p0 = v.ground_truth_password(0);
        let p1 = v.ground_truth_password(1);
        assert_ne!(p0, p1);
        assert_eq!(p0.len(), 32);
    }

    #[test]
    fn browser_link_breach_recovers_exact_password() {
        let r = broken_https_browser_link(51);
        assert!(r.success);
        assert_eq!(r.recovered.len(), 1);
    }

    #[test]
    fn phone_link_breach_sees_token_but_no_password() {
        let r = broken_https_phone_link(52);
        assert!(!r.success);
        assert!(r.observations.iter().any(|o| o.contains("captured token")));
    }

    #[test]
    fn rendezvous_eavesdropper_cannot_link() {
        let r = rendezvous_eavesdrop(53);
        assert!(!r.success);
        assert!(r.observations.iter().any(|o| o.contains("ablation")));
    }

    #[test]
    fn server_breach_leaks_metadata_only() {
        let r = server_breach(54);
        assert!(!r.success);
        assert!(r.observations.iter().any(|o| o.contains("managed account")));
        assert!(r
            .observations
            .iter()
            .any(|o| o.contains("mallory.evil.example")));
    }

    #[test]
    fn phone_compromise_alone_fails() {
        let r = phone_compromise(55);
        assert!(!r.success);
    }

    #[test]
    fn master_password_alone_blocked_and_recovered() {
        let r = master_password_only(59);
        assert!(!r.success);
        assert!(r.observations.iter().any(|o| o.contains("metadata leak")));
        assert!(r.observations.iter().any(|o| o.contains("recovery")));
    }

    #[test]
    fn both_factors_break_everything() {
        let r = phone_plus_master_password(56);
        assert!(r.success);
        assert_eq!(r.recovered.len(), 3);
        let r = server_breach_plus_phone(57);
        assert!(r.success);
        assert_eq!(r.recovered.len(), 3);
    }

    #[test]
    fn vault_resists_breach_until_phone_falls() {
        let r = vault_server_breach(60);
        // success=true here records the *combined* breach; the single-surface
        // resistance is asserted inside the scenario.
        assert!(r.success);
        assert_eq!(r.recovered[0].1, "users-own-chosen-password");
    }

    #[test]
    fn recovery_kills_stolen_kp() {
        let r = stolen_phone_after_recovery(58);
        assert!(!r.success);
        assert!(r
            .observations
            .iter()
            .any(|o| o.contains("restored bilateral security")));
    }
}

//! Server-side persistent state — the concrete realization of Table I.

use crate::auth::Verifier;
use amnesia_core::{AccountEntry, Domain, GeneratedPassword, OnlineId, PasswordPolicy, Username};
use amnesia_crypto::hex;
use amnesia_rendezvous::RegistrationId;
use std::fmt;

/// A `(username, domain)` pair naming one managed website account.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountRef {
    /// The account username `µ`.
    pub username: Username,
    /// The account domain `d`.
    pub domain: Domain,
}
amnesia_store::record_struct! { AccountRef { username, domain } }

impl fmt::Display for AccountRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.username, self.domain)
    }
}

/// How an account's password is produced.
///
/// The paper's base design is purely generative; §VIII plans "a vault ...
/// in a fully fledged Amnesia system" for user-chosen passwords. The vault
/// variant stores the chosen password sealed under the bilateral key
/// `k = SHA-512(T ‖ Oid ‖ σ)`, so the ciphertext at rest is useless without
/// a token from the phone — data-breach resistance is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum AccountKind {
    /// Password is rendered from the template function (the paper's §III-B).
    Generated,
    /// Password is user-chosen, stored AEAD-sealed under the bilateral key.
    Vaulted {
        /// `nonce ‖ ciphertext ‖ tag` produced by `amnesia_crypto::aead`.
        ciphertext: Vec<u8>,
    },
}
amnesia_store::record_enum! { AccountKind { 0 => Generated, 1 => Vaulted { ciphertext } } }

/// One managed account: the `(µ, d, σ)` entry of `Ks` plus the per-account
/// template policy (§III-B4 lets users adjust charset and length per site).
#[derive(Clone, Debug, PartialEq)]
pub struct StoredAccount {
    /// The `(µ, d, σ)` entry.
    pub entry: AccountEntry,
    /// Template policy used when rendering this account's password.
    pub policy: PasswordPolicy,
    /// Generated (template) or vaulted (chosen, sealed).
    pub kind: AccountKind,
}
amnesia_store::record_struct! { StoredAccount { entry, policy, kind } }

impl StoredAccount {
    /// The account's reference key.
    pub fn account_ref(&self) -> AccountRef {
        AccountRef {
            username: self.entry.username().clone(),
            domain: self.entry.domain().clone(),
        }
    }
}

/// Everything the Amnesia server stores about one user (paper Table I).
///
/// At rest the server keeps Table I in two tables: the `users` row holds
/// this record with `accounts` empty, and each account is a row of its own
/// in the `accounts` table, keyed by the user id and the account's position
/// in creation order. The user row keeps this encoding, an empty list
/// included, so rows written by earlier builds, which held every account in
/// the user row, decode with the same codec; the server moves their
/// accounts into account rows when it opens the store.
#[derive(Clone, Debug)]
pub struct UserRecord {
    /// Login name for the Amnesia web account.
    pub user_id: String,
    /// The 512-bit online ID `Oid` (part of `Ks`).
    pub oid: OnlineId,
    /// Salted verifier for the master password (`H(MP+salt)`).
    pub mp_verifier: Verifier,
    /// Salted verifier for the paired phone's `Pid` (`H(Pid+salt)`); `None`
    /// until a phone completes pairing.
    pub pid_verifier: Option<Verifier>,
    /// The rendezvous registration ID, stored in plaintext per Table I.
    pub registration_id: Option<RegistrationId>,
    /// Managed website accounts `{(µ, d, σ)}`, in creation order.
    pub accounts: Vec<StoredAccount>,
}
amnesia_store::record_struct! {
    UserRecord { user_id, oid, mp_verifier, pid_verifier, registration_id, accounts }
}

impl UserRecord {
    /// Finds a managed account by `(username, domain)`.
    pub fn find_account(&self, username: &Username, domain: &Domain) -> Option<&StoredAccount> {
        self.find_account_at(username, domain)
            .map(|(_, account)| account)
    }

    /// [`find_account`](Self::find_account) with the account's position in
    /// creation order.
    pub(crate) fn find_account_at(
        &self,
        username: &Username,
        domain: &Domain,
    ) -> Option<(usize, &StoredAccount)> {
        self.accounts
            .iter()
            .enumerate()
            .find(|(_, a)| a.entry.username() == username && a.entry.domain() == domain)
    }

    /// A copy of the user's own fields with no accounts: the user's row in
    /// the `users` table.
    pub(crate) fn without_accounts(&self) -> UserRecord {
        UserRecord {
            user_id: self.user_id.clone(),
            oid: self.oid.clone(),
            mp_verifier: self.mp_verifier.clone(),
            pid_verifier: self.pid_verifier.clone(),
            registration_id: self.registration_id.clone(),
            accounts: Vec::new(),
        }
    }

    /// Whether a phone is currently paired.
    pub fn phone_paired(&self) -> bool {
        self.pid_verifier.is_some() && self.registration_id.is_some()
    }

    /// Renders this record in the layout of the paper's **Table I**
    /// (values truncated like the paper's `0xa457fe1…`).
    pub fn render_table_i(&self) -> String {
        fn trunc(hexstr: &str) -> String {
            format!("0x{}...", &hexstr[..7.min(hexstr.len())])
        }
        let mut out = String::new();
        out.push_str("Data                 | Value\n");
        out.push_str("---------------------+---------------------------------------------\n");
        out.push_str(&format!(
            "Oid                  | {}\n",
            // lint: allow(secret-format) paper-style render of the truncated Oid
            trunc(&self.oid.to_hex())
        ));
        out.push_str(&format!(
            "Registration ID      | {}\n",
            self.registration_id
                .as_ref()
                .map(|r| {
                    let s = r.as_str();
                    format!("{}...", &s[..16.min(s.len())])
                })
                .unwrap_or_else(|| "(none)".into())
        ));
        out.push_str(&format!(
            "H(MP + salt)         | {}\n",
            trunc(&hex::encode(self.mp_verifier.hash_bytes()))
        ));
        out.push_str(&format!(
            "H(Pid + salt)        | {}\n",
            self.pid_verifier
                .as_ref()
                .map(|v| trunc(&hex::encode(v.hash_bytes())))
                .unwrap_or_else(|| "(none)".into())
        ));
        out.push_str(&format!(
            "Salt                 | {}\n",
            trunc(&self.mp_verifier.salt().to_hex())
        ));
        for (i, account) in self.accounts.iter().enumerate() {
            out.push_str(&format!(
                "(u, d, sigma)_{:<6} | ({}, {}, {})\n",
                i + 1,
                account.entry.username(),
                account.entry.domain(),
                trunc(&account.entry.seed().to_hex())
            ));
        }
        out
    }
}

/// One regenerated credential handed to the user during phone recovery
/// (§III-C1): the *old* password, which the user needs in order to log into
/// the website and change it.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredCredential {
    /// The account username.
    pub username: Username,
    /// The account domain.
    pub domain: Domain,
    /// The password as generated with the old phone's entry table.
    pub old_password: GeneratedPassword,
}
amnesia_store::record_struct! { RecoveredCredential { username, domain, old_password } }

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::Seed;
    use amnesia_crypto::SecretRng;

    fn record() -> UserRecord {
        let mut rng = SecretRng::seeded(31);
        UserRecord {
            user_id: "alice".into(),
            oid: OnlineId::random(&mut rng),
            mp_verifier: Verifier::derive(b"mp", &amnesia_crypto::KdfPolicy::PAPER, &mut rng)
                .unwrap(),
            pid_verifier: None,
            registration_id: None,
            accounts: vec![StoredAccount {
                entry: AccountEntry::new(
                    Username::new("Alice").unwrap(),
                    Domain::new("mail.google.com").unwrap(),
                    Seed::random(&mut rng),
                ),
                policy: PasswordPolicy::default(),
                kind: AccountKind::Generated,
            }],
        }
    }

    #[test]
    fn find_account_by_pair() {
        let r = record();
        let u = Username::new("Alice").unwrap();
        let d = Domain::new("mail.google.com").unwrap();
        assert!(r.find_account(&u, &d).is_some());
        assert!(r.find_account(&Username::new("Bob").unwrap(), &d).is_none());
        assert!(r
            .find_account(&u, &Domain::new("other.com").unwrap())
            .is_none());
    }

    #[test]
    fn phone_paired_requires_both_fields() {
        let mut r = record();
        assert!(!r.phone_paired());
        let mut rng = SecretRng::seeded(32);
        r.pid_verifier =
            Some(Verifier::derive(b"pid", &amnesia_crypto::KdfPolicy::PAPER, &mut rng).unwrap());
        assert!(!r.phone_paired());
    }

    #[test]
    fn table_i_render_contains_all_rows() {
        let r = record();
        let table = r.render_table_i();
        for needle in [
            "Oid",
            "Registration ID",
            "H(MP + salt)",
            "H(Pid + salt)",
            "Salt",
        ] {
            assert!(table.contains(needle), "missing {needle}: \n{table}");
        }
        assert!(table.contains("mail.google.com"));
        assert!(table.contains("(none)"));
        // Secrets must appear truncated, not in full.
        assert!(!table.contains(&r.oid.to_hex()));
    }

    #[test]
    fn account_ref_display() {
        let r = record();
        assert_eq!(
            r.accounts[0].account_ref().to_string(),
            "Alice@mail.google.com"
        );
    }
}

//! Output checks: generated passwords stay stable until a rotation or a
//! recovery changes them, and a digest pins the op stream's results.
//!
//! Only SHA-256 hashes of passwords are kept; no plaintext password is
//! stored, printed, traced or written.

use amnesia_core::GeneratedPassword;
use amnesia_crypto::{hex, sha256, Sha256};
use std::collections::BTreeMap;

/// What the next generation of an account must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// Exactly this password hash.
    Same([u8; 32]),
    /// Anything but this hash: the account's seed was rotated, or the user
    /// recovered onto a phone with a fresh entry table.
    ChangedFrom([u8; 32]),
}

#[derive(Debug)]
pub struct Checker {
    expect: BTreeMap<(usize, usize), Expect>,
    digest: Sha256,
    digest_ops: u64,
    digest_limit: u64,
    violations: u64,
    first_violation: Option<String>,
}

impl Checker {
    /// `digest_limit`: the digest covers ops `0..digest_limit`, a prefix every
    /// run completes, so it repeats for a seed whatever the machine's speed.
    pub fn new(digest_limit: u64) -> Self {
        Checker {
            expect: BTreeMap::new(),
            digest: Sha256::new(),
            digest_ops: 0,
            digest_limit,
            violations: 0,
            first_violation: None,
        }
    }

    fn absorb(&mut self, op_index: u64, bytes: &[u8]) {
        if op_index < self.digest_limit {
            self.digest.update(&op_index.to_le_bytes());
            self.digest.update(bytes);
            self.digest_ops = self.digest_ops.max(op_index + 1);
        }
    }

    /// Folds a result without a password (login, rotate, recover) into the
    /// digest.
    pub fn note(&mut self, op_index: u64, tag: &str) {
        self.absorb(op_index, tag.as_bytes());
    }

    /// Checks a generated password for `(user, account)`. With `settled`
    /// false the account changed inside the same wave, so either side of
    /// the change is a valid answer and only the digest records it.
    pub fn password(
        &mut self,
        op_index: u64,
        user: usize,
        account: usize,
        password: &GeneratedPassword,
        settled: bool,
    ) {
        let hash = sha256(password.as_str().as_bytes());
        self.absorb(op_index, &hash);
        if !settled {
            return;
        }
        match self.expect.get(&(user, account)).copied() {
            Some(Expect::Same(known)) if known != hash => self.violation(format!(
                "op {op_index}: user {user} account {account} generated a different password \
                 with no rotation or recovery in between"
            )),
            Some(Expect::ChangedFrom(old)) if old == hash => self.violation(format!(
                "op {op_index}: user {user} account {account} still generates its old password \
                 after a rotation or recovery"
            )),
            _ => {
                self.expect.insert((user, account), Expect::Same(hash));
            }
        }
    }

    /// The account's password is about to change (a completed rotation, or
    /// a recovery of its user).
    pub fn changed(&mut self, user: usize, account: usize) {
        if let Some(Expect::Same(old)) = self.expect.get(&(user, account)).copied() {
            self.expect
                .insert((user, account), Expect::ChangedFrom(old));
        }
    }

    pub fn violation(&mut self, message: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(message);
    }

    pub fn violations(&self) -> u64 {
        self.violations
    }

    pub fn first_violation(&self) -> Option<&str> {
        self.first_violation.as_deref()
    }

    /// Hex digest over `(op index, result)` for the ops of the prefix, and
    /// how many ops it covers.
    pub fn digest(&self) -> (String, u64) {
        (
            hex::encode(&self.digest.clone().finalize()),
            self.digest_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pw(s: &str) -> GeneratedPassword {
        GeneratedPassword::from_plaintext(s)
    }

    #[test]
    fn stable_password_passes_and_drift_is_caught() {
        let mut c = Checker::new(10);
        c.password(0, 1, 0, &pw("alpha"), true);
        c.password(1, 1, 0, &pw("alpha"), true);
        assert_eq!(c.violations(), 0);
        c.password(2, 1, 0, &pw("beta"), true);
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn rotation_must_change_the_password() {
        let mut c = Checker::new(10);
        c.password(0, 0, 0, &pw("alpha"), true);
        c.changed(0, 0);
        c.password(1, 0, 0, &pw("alpha"), true);
        assert_eq!(c.violations(), 1);
        let mut c = Checker::new(10);
        c.password(0, 0, 0, &pw("alpha"), true);
        c.changed(0, 0);
        c.password(1, 0, 0, &pw("beta"), false);
        c.password(2, 0, 0, &pw("beta"), true);
        c.password(3, 0, 0, &pw("beta"), true);
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn digest_covers_only_the_prefix_and_tracks_results() {
        let run = |tail: &str, second: &str| {
            let mut c = Checker::new(2);
            c.password(0, 0, 0, &pw("alpha"), true);
            c.note(1, second);
            c.password(2, 0, 1, &pw(tail), true);
            c.digest()
        };
        assert_eq!(run("x", "login"), run("y", "login"));
        assert_ne!(run("x", "login"), run("x", "rotate"));
        assert_eq!(run("x", "login").1, 2);
    }

    #[test]
    fn digest_is_not_the_plaintext() {
        let mut c = Checker::new(1);
        c.password(0, 0, 0, &pw("hunter2"), true);
        assert!(!c.digest().0.contains("hunter2"));
    }
}

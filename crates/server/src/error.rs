//! Error type for the Amnesia server.

use std::error::Error;
use std::fmt;

/// Errors returned by [`AmnesiaServer`](crate::AmnesiaServer) operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerError {
    /// The user ID is already taken.
    UserExists {
        /// The contested user ID.
        user_id: String,
    },
    /// No such user.
    UnknownUser {
        /// The missing user ID.
        user_id: String,
    },
    /// Master password verification failed.
    BadCredentials,
    /// The account is temporarily locked after repeated failures.
    AccountLocked {
        /// Consecutive failures recorded.
        failures: u32,
    },
    /// The session token is missing or expired.
    InvalidSession,
    /// No phone is paired with this user.
    NoPhonePaired,
    /// A phone is already paired; it must be recovered/unpaired first.
    PhoneAlreadyPaired,
    /// The CAPTCHA pairing code did not match or expired.
    BadCaptcha,
    /// The `(username, domain)` account already exists for this user.
    AccountExists,
    /// No such `(username, domain)` account.
    UnknownAccount,
    /// An arriving token matched no pending password request.
    UnknownRequest,
    /// The uploaded `Pid` did not match the stored salted hash.
    PidMismatch,
    /// Seed rotation was attempted on a vaulted account (the seed keys the
    /// stored ciphertext; rotate by re-storing the chosen password).
    VaultedSeedRotation,
    /// A vault ciphertext failed to open (corrupt row or wrong token).
    VaultCorrupt,
    /// A core-algorithm error (invalid policy, entry table, …).
    Core(amnesia_core::CoreError),
    /// A cryptographic parameter error (e.g. a zero PBKDF2 iteration count
    /// in the server configuration).
    Crypto(amnesia_crypto::CryptoError),
    /// A verifier stored under a memory-hard policy was asked to verify
    /// under a weaker (CPU-only) deployment policy. Refusing makes a
    /// hardness downgrade — misconfiguration or an attacker steering
    /// logins onto the cheap-to-guess path — loud instead of silent.
    PolicyDowngrade {
        /// Parameter summary of the policy the record was derived under.
        stored: String,
        /// Parameter summary of the weaker policy the deployment requested.
        requested: String,
    },
    /// A user already holds `u32::MAX` accounts, the most a position in
    /// the `accounts` table can number.
    TooManyAccounts,
    /// An account row at rest names a user that has no row.
    OrphanAccount {
        /// The user the row names.
        user_id: String,
        /// The row's position.
        position: u32,
    },
    /// A user's account rows at rest skip or repeat a position, so the
    /// accounts' creation order cannot be rebuilt.
    AccountPositionGap {
        /// The user whose rows are out of place.
        user_id: String,
        /// The position the next row should hold.
        expected: u32,
        /// The position it holds.
        found: u32,
    },
    /// A storage error.
    Store(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UserExists { user_id } => write!(f, "user {user_id:?} already exists"),
            ServerError::UnknownUser { user_id } => write!(f, "unknown user {user_id:?}"),
            ServerError::BadCredentials => write!(f, "invalid master password"),
            ServerError::AccountLocked { failures } => {
                write!(f, "account locked after {failures} failed attempts")
            }
            ServerError::InvalidSession => write!(f, "invalid or expired session"),
            ServerError::NoPhonePaired => write!(f, "no phone paired with this account"),
            ServerError::PhoneAlreadyPaired => write!(f, "a phone is already paired"),
            ServerError::BadCaptcha => write!(f, "captcha verification failed"),
            ServerError::AccountExists => write!(f, "account already managed"),
            ServerError::UnknownAccount => write!(f, "no such managed account"),
            ServerError::UnknownRequest => write!(f, "token matches no pending request"),
            ServerError::PidMismatch => write!(f, "phone id does not match the paired phone"),
            ServerError::VaultedSeedRotation => {
                write!(f, "cannot rotate the seed of a vaulted account")
            }
            ServerError::VaultCorrupt => write!(f, "vault entry failed to decrypt"),
            ServerError::Core(e) => write!(f, "core error: {e}"),
            ServerError::Crypto(e) => write!(f, "crypto error: {e}"),
            ServerError::PolicyDowngrade { stored, requested } => write!(
                f,
                "refusing KDF policy downgrade: record stored under {stored}, \
                 deployment requested {requested}"
            ),
            ServerError::TooManyAccounts => write!(f, "no account position left for this user"),
            ServerError::OrphanAccount { user_id, position } => write!(
                f,
                "account row {position} names user {user_id:?}, who has no row"
            ),
            ServerError::AccountPositionGap {
                user_id,
                expected,
                found,
            } => write!(
                f,
                "account rows of user {user_id:?} skip or repeat a position: \
                 expected {expected}, found {found}"
            ),
            ServerError::Store(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::Core(e) => Some(e),
            ServerError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amnesia_core::CoreError> for ServerError {
    fn from(e: amnesia_core::CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<amnesia_crypto::CryptoError> for ServerError {
    fn from(e: amnesia_crypto::CryptoError) -> Self {
        ServerError::Crypto(e)
    }
}

impl From<amnesia_store::StoreError> for ServerError {
    fn from(e: amnesia_store::StoreError) -> Self {
        ServerError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(ServerError::BadCredentials.to_string().contains("master"));
        assert!(ServerError::UnknownUser {
            user_id: "x".into()
        }
        .to_string()
        .contains('x'));
        assert!(ServerError::AccountLocked { failures: 5 }
            .to_string()
            .contains('5'));
    }
}

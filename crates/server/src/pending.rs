//! Pending password requests awaiting a token from the phone.

use crate::storage::AccountRef;
use amnesia_core::{PasswordRequest, Seed};
use amnesia_net::SimInstant;
use std::collections::HashMap;
use std::fmt;

/// Why the server is waiting for a token.
#[derive(Clone, PartialEq, Eq)]
pub enum RequestPurpose {
    /// Ordinary generation (Figure 1's six-step flow).
    Generate,
    /// Vault extension: the token will key the sealing of a user-chosen
    /// password; the account (with `seed`) is created once sealing
    /// succeeds.
    StoreVaulted {
        /// The fresh seed minted for the vault entry.
        seed: Seed,
        /// The user-chosen password waiting to be sealed.
        chosen_password: String,
    },
}

impl fmt::Debug for RequestPurpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestPurpose::Generate => f.write_str("Generate"),
            // Never log the chosen password.
            RequestPurpose::StoreVaulted { .. } => f.write_str("StoreVaulted(…)"),
        }
    }
}

/// A password request the server has pushed to the phone and is waiting on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingRequest {
    /// Owning Amnesia user.
    pub user_id: String,
    /// The targeted website account.
    pub account: AccountRef,
    /// Correlation id of the protocol session that issued the request; the
    /// final reply is tagged with it so the browser can route the password
    /// back to the right in-flight session.
    pub request_id: u64,
    /// Browser endpoint to deliver the final password to.
    pub reply_to: String,
    /// When the request was issued (the `tstart` of the Figure 3 latency
    /// measurement).
    pub issued_at: SimInstant,
    /// What the returned token will be used for.
    pub purpose: RequestPurpose,
}

/// Request table keyed by the request value `R` itself.
///
/// The phone echoes `R` alongside the token `T`, which is how the server
/// matches a token to the account it belongs to without the phone ever
/// learning the account identity (§IV-D: "the attacker does not know which
/// account R is for").
#[derive(Debug, Default)]
pub struct PendingRequests {
    by_request: HashMap<PasswordRequest, PendingRequest>,
}

impl PendingRequests {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pushed request. A repeated push for the same `R` (user
    /// re-clicking) replaces the earlier pending entry.
    pub fn insert(&mut self, request: PasswordRequest, pending: PendingRequest) {
        self.by_request.insert(request, pending);
    }

    /// Claims the pending entry for a returned token's request, removing it.
    pub fn claim(&mut self, request: &PasswordRequest) -> Option<PendingRequest> {
        self.by_request.remove(request)
    }

    /// Requests still in flight.
    pub fn len(&self) -> usize {
        self.by_request.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.by_request.is_empty()
    }

    /// Drops every pending request for `user_id` (e.g. after recovery).
    pub fn purge_user(&mut self, user_id: &str) -> usize {
        let before = self.by_request.len();
        self.by_request.retain(|_, p| p.user_id != user_id);
        before - self.by_request.len()
    }

    /// Drops every pending request for one of `user_id`'s accounts (e.g.
    /// after its seed rotates).
    pub fn purge_account(&mut self, user_id: &str, account: &AccountRef) -> usize {
        let before = self.by_request.len();
        self.by_request
            .retain(|_, p| p.user_id != user_id || p.account != *account);
        before - self.by_request.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::{Domain, Seed, Username};
    use amnesia_crypto::SecretRng;

    fn request(tag: u64) -> PasswordRequest {
        let mut rng = SecretRng::seeded(tag);
        PasswordRequest::derive(
            &Username::new("u").unwrap(),
            &Domain::new("d").unwrap(),
            &Seed::random(&mut rng),
        )
    }

    fn pending(user: &str) -> PendingRequest {
        PendingRequest {
            user_id: user.into(),
            account: AccountRef {
                username: Username::new("u").unwrap(),
                domain: Domain::new("d").unwrap(),
            },
            request_id: 1,
            reply_to: "browser".into(),
            issued_at: SimInstant::EPOCH,
            purpose: RequestPurpose::Generate,
        }
    }

    #[test]
    fn claim_removes() {
        let mut p = PendingRequests::new();
        let r = request(1);
        p.insert(r.clone(), pending("alice"));
        assert_eq!(p.len(), 1);
        assert!(p.claim(&r).is_some());
        assert!(p.claim(&r).is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn reissue_replaces() {
        let mut p = PendingRequests::new();
        let r = request(2);
        p.insert(r.clone(), pending("alice"));
        let mut newer = pending("alice");
        newer.reply_to = "browser-2".into();
        p.insert(r.clone(), newer.clone());
        assert_eq!(p.len(), 1);
        assert_eq!(p.claim(&r).unwrap(), newer);
    }

    #[test]
    fn purge_account_is_selective() {
        let mut p = PendingRequests::new();
        let mut other_account = pending("alice");
        other_account.account.domain = Domain::new("e").unwrap();
        p.insert(request(6), pending("alice"));
        p.insert(request(7), pending("alice"));
        p.insert(request(8), other_account);
        p.insert(request(9), pending("bob"));
        assert_eq!(p.purge_account("alice", &pending("alice").account), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.purge_account("alice", &pending("alice").account), 0);
    }

    #[test]
    fn purge_user_is_selective() {
        let mut p = PendingRequests::new();
        p.insert(request(3), pending("alice"));
        p.insert(request(4), pending("alice"));
        p.insert(request(5), pending("bob"));
        assert_eq!(p.purge_user("alice"), 2);
        assert_eq!(p.len(), 1);
    }
}

//! The browser agent running on the user's computer.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_server::protocol::{FromServer, ToServer};
use amnesia_server::SessionToken;
use std::error::Error;
use std::fmt;

/// Errors from browser-side protocol building.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BrowserError {
    /// An authenticated message was requested before login succeeded.
    NotLoggedIn,
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::NotLoggedIn => write!(f, "no active session"),
        }
    }
}

impl Error for BrowserError {}

/// The thin web client of Figure 1: builds requests and tracks the
/// session. It keeps no password: one that arrives goes to whoever drives
/// the browser, to autofill, and is stored nowhere.
///
/// ```
/// use amnesia_client::Browser;
/// let browser = Browser::new("browser-1");
/// let msg = browser.register_message("alice", "master password", 1);
/// // send `msg` to the Amnesia server endpoint...
/// ```
#[derive(Debug)]
pub struct Browser {
    endpoint: String,
    session: Option<SessionToken>,
}

impl Browser {
    /// Creates a browser at the given network endpoint name.
    pub fn new(endpoint: impl Into<String>) -> Self {
        Browser {
            endpoint: endpoint.into(),
            session: None,
        }
    }

    /// The browser's network endpoint name (used as `reply_to`).
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The active session, if logged in.
    pub fn session(&self) -> Option<&SessionToken> {
        self.session.as_ref()
    }

    fn require_session(&self) -> Result<SessionToken, BrowserError> {
        self.session.clone().ok_or(BrowserError::NotLoggedIn)
    }

    // -- message builders ---------------------------------------------------

    /// Builds an account-creation request tagged with `request_id`.
    pub fn register_message(
        &self,
        user_id: &str,
        master_password: &str,
        request_id: u64,
    ) -> ToServer {
        ToServer::Register {
            user_id: user_id.into(),
            master_password: master_password.into(),
            request_id,
            reply_to: self.endpoint.clone(),
        }
    }

    /// Builds a login request tagged with `request_id`.
    pub fn login_message(&self, user_id: &str, master_password: &str, request_id: u64) -> ToServer {
        ToServer::Login {
            user_id: user_id.into(),
            master_password: master_password.into(),
            request_id,
            reply_to: self.endpoint.clone(),
        }
    }

    /// Builds a logout request.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn logout_message(&self, request_id: u64) -> Result<ToServer, BrowserError> {
        Ok(ToServer::Logout {
            session: self.require_session()?,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    /// Builds the phone-pairing kickoff request.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn begin_pairing_message(&self, request_id: u64) -> Result<ToServer, BrowserError> {
        Ok(ToServer::BeginPhonePairing {
            session: self.require_session()?,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    /// Builds an add-account request.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn add_account_message(
        &self,
        username: Username,
        domain: Domain,
        policy: PasswordPolicy,
        request_id: u64,
    ) -> Result<ToServer, BrowserError> {
        Ok(ToServer::AddAccount {
            session: self.require_session()?,
            username,
            domain,
            policy,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    /// Builds a list-accounts request.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn list_accounts_message(&self, request_id: u64) -> Result<ToServer, BrowserError> {
        Ok(ToServer::ListAccounts {
            session: self.require_session()?,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    /// Builds a password request for a managed account (Figure 1, step 2).
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn request_password_message(
        &self,
        username: Username,
        domain: Domain,
        request_id: u64,
    ) -> Result<ToServer, BrowserError> {
        Ok(ToServer::RequestPassword {
            session: self.require_session()?,
            username,
            domain,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    /// Builds a seed-rotation (password change) request.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::NotLoggedIn`] without a session.
    pub fn rotate_seed_message(
        &self,
        username: Username,
        domain: Domain,
        request_id: u64,
    ) -> Result<ToServer, BrowserError> {
        Ok(ToServer::RotateSeed {
            session: self.require_session()?,
            username,
            domain,
            request_id,
            reply_to: self.endpoint.clone(),
        })
    }

    // -- reply handling -------------------------------------------------------

    /// Processes a server reply: captures the session on `LoginOk` and
    /// forgets it on `LoggedOut`. Every other reply leaves the browser as
    /// it was.
    pub fn handle_reply(&mut self, reply: &FromServer) {
        match reply {
            FromServer::LoginOk { session } => self.session = Some(session.clone()),
            FromServer::LoggedOut => self.session = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::PasswordPolicy;

    #[test]
    fn unauthenticated_builders_work() {
        let b = Browser::new("browser");
        assert!(matches!(
            b.register_message("alice", "mp", 1),
            ToServer::Register { request_id: 1, .. }
        ));
        assert!(matches!(
            b.login_message("alice", "mp", 2),
            ToServer::Login { request_id: 2, .. }
        ));
    }

    #[test]
    fn session_gated_builders_require_login() {
        let mut b = Browser::new("browser");
        assert_eq!(b.list_accounts_message(1), Err(BrowserError::NotLoggedIn));
        assert_eq!(
            b.request_password_message(
                Username::new("u").unwrap(),
                Domain::new("d.com").unwrap(),
                2
            ),
            Err(BrowserError::NotLoggedIn)
        );

        // Simulate a login reply; builders now succeed.
        let mut server = amnesia_server::AmnesiaServer::new(Default::default());
        server.register_user("alice", "mp").unwrap();
        let session = server.login("alice", "mp").unwrap();
        b.handle_reply(&FromServer::LoginOk { session });
        assert!(b.session().is_some());
        assert!(b.list_accounts_message(3).is_ok());
        assert!(b
            .add_account_message(
                Username::new("u").unwrap(),
                Domain::new("d.com").unwrap(),
                PasswordPolicy::default(),
                4
            )
            .is_ok());

        b.handle_reply(&FromServer::LoggedOut);
        assert!(b.session().is_none());
    }
}

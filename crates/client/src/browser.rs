//! The browser agent running on the user's computer.

use amnesia_server::protocol::FromServer;
use amnesia_server::SessionToken;
use std::error::Error;
use std::fmt;

/// Why the browser cannot start a flow.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BrowserError {
    /// An authenticated flow was started before login succeeded.
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

/// The thin web client of Figure 1: tracks the session. It keeps no
/// password: one that arrives goes to whoever drives the browser, to
/// autofill, and is stored nowhere. The session engine builds every
/// message the browser sends.
///
/// ```
/// use amnesia_client::Browser;
/// use amnesia_server::protocol::FromServer;
/// use amnesia_server::AmnesiaServer;
///
/// let mut server = AmnesiaServer::new(Default::default());
/// server.register_user("alice", "master password").unwrap();
/// let session = server.login("alice", "master password").unwrap();
///
/// let mut browser = Browser::default();
/// browser.handle_reply(&FromServer::LoginOk { session });
/// assert!(browser.session().is_some());
/// ```
#[derive(Debug, Default)]
pub struct Browser {
    session: Option<SessionToken>,
}

impl Browser {
    /// The active session, if logged in.
    pub fn session(&self) -> Option<&SessionToken> {
        self.session.as_ref()
    }

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

    #[test]
    fn login_ok_captures_the_session_and_logged_out_forgets_it() {
        let mut b = Browser::default();
        assert!(b.session().is_none());
        let mut server = amnesia_server::AmnesiaServer::new(Default::default());
        server.register_user("alice", "mp").unwrap();
        let session = server.login("alice", "mp").unwrap();
        b.handle_reply(&FromServer::LoginOk { session });
        assert!(b.session().is_some());

        b.handle_reply(&FromServer::LoggedOut);
        assert!(b.session().is_none());
    }
}

//! User-computer components: the browser agent and the dummy website.
//!
//! The user's computer "does not store any variables necessary to generate
//! particular passwords" (paper §III-A1) — it only authenticates to the
//! Amnesia server with the master password and receives generated passwords
//! over HTTPS. [`Browser`] reproduces that thin client: it tracks the
//! session and keeps no password it receives. The session engine of
//! `amnesia-system` builds every message the browser sends.
//!
//! [`DummyWebsite`] reproduces the site the user study built "so users can
//! practice adding accounts to Amnesia" (§VII-A): account signup/login with
//! a salted credential store, a configurable password policy, and the
//! comment feed used by study task 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod browser;
mod website;

pub use browser::{Browser, BrowserError};
pub use website::{DummyWebsite, PolicyViolation, SitePolicy, WebsiteError};

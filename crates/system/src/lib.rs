//! The wired-up Amnesia deployment (paper Figure 1).
//!
//! This crate assembles every component — [`Browser`](amnesia_client::Browser)
//! on the user's computer, the [`AmnesiaServer`](amnesia_server::AmnesiaServer),
//! the [`RendezvousServer`](amnesia_rendezvous::RendezvousServer) (GCM), the
//! [`AmnesiaPhone`](amnesia_phone::AmnesiaPhone), and a
//! [`CloudProvider`](amnesia_cloud::CloudProvider) — over the simulated
//! network of `amnesia-net`, and drives the six-step protocol:
//!
//! 1. browser forwards the account's `(µ, d)` to the server;
//! 2. the server derives `R` and
//! 3. pushes it to the phone through the rendezvous;
//! 4. the phone (after user confirmation) computes `T` and sends it
//!    directly to the server;
//! 5. the server combines `T` with `Ks` into the password and
//! 6. returns it to the browser for autofill.
//!
//! [`NetProfile`] carries the calibrated per-leg latency models for the
//! paper's Wifi and 4G conditions; [`latency::run_latency_trials`]
//! regenerates Figure 3. Channel encryption between browser↔server and
//! phone↔server reproduces the HTTPS protections of §II; the rendezvous
//! legs carry the push in the clear *relative to the rendezvous*, which is
//! exactly the §IV-B eavesdropping surface.
//!
//! # Example
//!
//! ```
//! use amnesia_system::{AmnesiaSystem, SystemConfig};
//! use amnesia_core::{Domain, PasswordPolicy, Username};
//!
//! let mut system = AmnesiaSystem::new(SystemConfig::default());
//! system.add_browser("browser-1");
//! system.add_phone("phone-1", 42);
//!
//! system.setup_user("alice", "master password", "browser-1", "phone-1")?;
//! let u = Username::new("Alice")?;
//! let d = Domain::new("mail.google.com")?;
//! system.add_account("browser-1", u.clone(), d.clone(), PasswordPolicy::default())?;
//!
//! let outcome = system.generate_password("browser-1", "phone-1", &u, &d)?;
//! assert_eq!(outcome.password.as_str().len(), 32);
//! // Same request later ⇒ same password: nothing is stored anywhere.
//! let again = system.generate_password("browser-1", "phone-1", &u, &d)?;
//! assert_eq!(outcome.password, again.password);
//! # Ok::<(), amnesia_system::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod host;
pub mod latency;
mod metrics;
pub mod realtime;
pub mod session;
mod system;

pub use config::{NetProfile, SystemConfig};
pub use error::SystemError;
pub use host::{Finished, SessionHost};
pub use metrics::HostMetrics;
pub use session::{Action, Event, FlowSpec, Origin, Session, SessionId, SessionOutcome};
pub use system::{
    AmnesiaSystem, GenerationOutcome, GenerationRequest, RecoveryOutcome, GCM_ENDPOINT,
    SERVER_ENDPOINT,
};

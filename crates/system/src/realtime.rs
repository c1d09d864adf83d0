//! Real-threads runtime mode.
//!
//! The paper's prototype was a *threaded* deployment — CherryPy with a
//! 10-thread pool on EC2, a GCM service, and an Android app all running
//! concurrently. The simulated network ([`SimNet`](amnesia_net::SimNet))
//! makes experiments deterministic, but it never proves the components are
//! actually safe to run concurrently. This module does: each component runs
//! on its own OS thread, frames travel over `std::sync::mpsc` channels
//! (senders are cloned wherever several components feed one inbox; every
//! receiver has exactly one consumer), and the six-step protocol executes
//! with genuine parallelism.
//!
//! The protocol logic is not duplicated here: the host drives the same
//! sans-IO [`Session`] engine as the simulated deployment, executing its
//! [`Action`]s against channels instead of a [`SimNet`](amnesia_net::SimNet)
//! and feeding it [`Event`]s as replies arrive — every reply carries the
//! session's `request_id`, so stale frames from earlier flows are discarded
//! rather than misinterpreted.
//!
//! Latency here is real compute latency (microseconds), not modelled
//! network latency — use the simulated deployment for Figure 3.
//!
//! # Example
//!
//! ```
//! use amnesia_system::realtime::RealtimeDeployment;
//!
//! let mut rt = RealtimeDeployment::start(7);
//! rt.setup_user("alice", "master password").unwrap();
//! rt.add_account("alice-acct", "mail.google.com").unwrap();
//! let (password, elapsed) = rt.generate("alice-acct", "mail.google.com").unwrap();
//! assert_eq!(password.len(), 32);
//! assert!(elapsed.as_secs() < 5);
//! rt.shutdown();
//! ```

use crate::error::SystemError;
use crate::session::{Action, Event, FlowSpec, Origin, Session, SessionId, SessionOutcome};
use amnesia_client::Browser;
use amnesia_core::{Domain, PasswordPolicy, PhoneId, Username};
use amnesia_crypto::KdfPolicy;
use amnesia_net::SimInstant;
use amnesia_phone::{AmnesiaPhone, ConfirmPolicy, PhoneConfig, PushOutcome};
use amnesia_rendezvous::{PushEnvelope, RegistrationId};
use amnesia_server::protocol::{Reply, ToServer};
use amnesia_server::{AmnesiaServer, ServerConfig};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors from the threaded deployment — the same type the simulated
/// deployment raises, so callers handle one error surface regardless of
/// runtime.
pub type RealtimeError = SystemError;

/// Seeds and sizing for a threaded deployment.
///
/// [`RealtimeDeployment::start`] derives all of these from one seed; use
/// [`start_with`](RealtimeDeployment::start_with) to pin them individually —
/// e.g. to mirror a simulated deployment component-for-component (same
/// server seed, same phone seed, same table size) and check both runtimes
/// derive byte-identical passwords.
#[derive(Clone, Debug)]
pub struct RealtimeConfig {
    /// Seed for the server's `Ks` derivations.
    pub server_seed: u64,
    /// Seed for the phone's `Kp` (entry-table) generation.
    pub phone_seed: u64,
    /// Entry-table size `N`.
    pub table_size: usize,
    /// KDF hardness rung of the server's master-password verifier. The
    /// `Pid` verifier is the paper's salted hash at every rung: a 512-bit
    /// random `Pid` needs no per-guess cost.
    pub kdf_policy: KdfPolicy,
}

/// Messages entering the server thread.
enum ServerInbound {
    FromBrowser(ToServer),
    FromPhone(ToServer),
    Shutdown,
}

/// Messages entering the rendezvous thread.
enum GcmInbound {
    Register(RegistrationId, Sender<Vec<u8>>),
    Push(PushEnvelope),
    Shutdown,
}

/// A full Amnesia deployment on real threads: server, rendezvous and phone
/// each own a thread; the caller plays the browser by driving the shared
/// [`Session`] engine. See the module docs.
pub struct RealtimeDeployment {
    to_server: Sender<ServerInbound>,
    to_gcm: Sender<GcmInbound>,
    browser_rx: Receiver<Reply>,
    browser: Browser,
    /// Identity the phone thread announced after registering; fed to the
    /// engine when a pairing flow asks for `RegisterPhone`.
    phone_identity: Option<(PhoneId, RegistrationId)>,
    next_request_id: SessionId,
    handles: Vec<JoinHandle<()>>,
    timeout: Duration,
}

impl RealtimeDeployment {
    /// Spawns the component threads, deriving the per-component seeds from
    /// one deployment seed.
    pub fn start(seed: u64) -> Self {
        Self::start_with(RealtimeConfig {
            server_seed: seed,
            phone_seed: seed.wrapping_add(1),
            table_size: 512,
            kdf_policy: KdfPolicy::PAPER,
        })
    }

    /// Spawns the component threads with explicit per-component seeds.
    pub fn start_with(config: RealtimeConfig) -> Self {
        let (to_server, server_rx) = channel::<ServerInbound>();
        let (to_gcm, gcm_rx) = channel::<GcmInbound>();
        let (browser_tx, browser_rx) = channel::<Reply>();
        let (phone_tx, phone_rx) = channel::<Vec<u8>>();
        let (identity_tx, identity_rx) = channel::<(PhoneId, RegistrationId)>();

        // --- rendezvous thread: registration-ID → phone channel routing ----
        let gcm_handle = std::thread::spawn(move || {
            let mut registry: BTreeMap<RegistrationId, Sender<Vec<u8>>> = BTreeMap::new();
            while let Ok(message) = gcm_rx.recv() {
                match message {
                    GcmInbound::Register(id, tx) => {
                        registry.insert(id, tx);
                    }
                    GcmInbound::Push(envelope) => {
                        if let Some(tx) = registry.get(&envelope.registration_id) {
                            // A dead phone is dropped traffic, like GCM.
                            let _ = tx.send(envelope.data);
                        }
                    }
                    GcmInbound::Shutdown => break,
                }
            }
        });

        // --- server thread --------------------------------------------------
        let server_to_gcm = to_gcm.clone();
        let server_browser_tx = browser_tx;
        let server_seed = config.server_seed;
        let server_kdf_policy = config.kdf_policy;
        let server_handle = std::thread::spawn(move || {
            let mut server = AmnesiaServer::new(ServerConfig {
                endpoint: "amnesia-server".into(),
                seed: server_seed,
                kdf_policy: server_kdf_policy,
            });
            while let Ok(inbound) = server_rx.recv() {
                let message = match inbound {
                    ServerInbound::FromBrowser(m) | ServerInbound::FromPhone(m) => m,
                    ServerInbound::Shutdown => break,
                };
                // Real time stands in for the simulated clock; latency
                // numbers from this mode are compute-only.
                let reaction = server.handle_message(message, SimInstant::EPOCH);
                if let Some(push) = reaction.push {
                    let _ = server_to_gcm.send(GcmInbound::Push(push.to_envelope()));
                }
                if let Some((_dest, reply)) = reaction.reply {
                    // Single-browser deployment: every reply goes to the
                    // caller, which routes by the echoed request_id.
                    let _ = server_browser_tx.send(reply);
                }
            }
        });

        // --- phone thread ----------------------------------------------------
        let phone_to_server = to_server.clone();
        let phone_to_gcm = to_gcm.clone();
        let phone_seed = config.phone_seed;
        let table_size = config.table_size;
        let phone_handle = std::thread::spawn(move || {
            let mut phone = AmnesiaPhone::new(
                PhoneConfig::new("phone", phone_seed).with_table_size(table_size),
            );
            phone.set_confirm_policy(ConfirmPolicy::AutoConfirm);

            // Register with the rendezvous: mint the ID locally (the thread
            // owns no RendezvousServer; the registry lives in the gcm
            // thread), then announce the identity so the host's pairing
            // flow can complete `RegisterPhone`.
            let mut gcm_stub =
                amnesia_rendezvous::RendezvousServer::new("gcm", phone_seed ^ 0xF00D);
            let registration_id = phone.register_with_rendezvous(&mut gcm_stub);
            let _ = phone_to_gcm.send(GcmInbound::Register(registration_id.clone(), phone_tx));
            let _ = identity_tx.send((phone.pid().clone(), registration_id));

            // Password-request pushes auto-confirm into tokens.
            while let Ok(payload) = phone_rx.recv() {
                if let Ok(PushOutcome::Respond(response)) =
                    phone.handle_push(&payload, SimInstant::EPOCH)
                {
                    let _ =
                        phone_to_server.send(ServerInbound::FromPhone(ToServer::Token(response)));
                }
            }
        });

        let phone_identity = identity_rx.recv_timeout(Duration::from_secs(5)).ok();

        RealtimeDeployment {
            to_server,
            to_gcm,
            browser_rx,
            browser: Browser::default(),
            phone_identity,
            next_request_id: 1,
            handles: vec![gcm_handle, server_handle, phone_handle],
            timeout: Duration::from_secs(5),
        }
    }

    /// Runs one engine session to completion over the live threads.
    fn run_session(&mut self, spec: FlowSpec) -> Result<SessionOutcome, RealtimeError> {
        let sid = self.next_request_id;
        self.next_request_id += 1;
        let mut engine = Session::new(sid, "browser", spec);
        if let Some(token) = self.browser.session().cloned() {
            engine = engine.with_auth(token);
        }
        let mut pending = engine.start();
        let mut deadline = Instant::now() + self.timeout;
        loop {
            // Execute the engine's actions against the channel fabric.
            for action in std::mem::take(&mut pending) {
                match action {
                    Action::Send { origin, message } => {
                        let inbound = match origin {
                            Origin::Browser => ServerInbound::FromBrowser(message),
                            Origin::Phone => ServerInbound::FromPhone(message),
                        };
                        self.to_server
                            .send(inbound)
                            .map_err(|_| SystemError::Disconnected)?;
                    }
                    Action::ArmTimer(duration) => {
                        // Simulated timeout budget, spent in real time.
                        deadline = Instant::now() + Duration::from_micros(duration.as_micros());
                    }
                    // The phone thread runs AutoConfirm: no user to wait on.
                    Action::ExpectUserConfirm => {}
                    Action::RegisterPhone => {
                        let (pid, registration_id) = self
                            .phone_identity
                            .clone()
                            .ok_or(SystemError::Disconnected)?;
                        let followup = engine.on_event(Event::PairingInfo {
                            pid,
                            registration_id,
                        });
                        pending.extend(followup);
                    }
                    // No cloud provider rides along in the threaded mode;
                    // backup is exercised by the simulated deployment.
                    Action::BackupPhoneToCloud => {}
                    Action::NoteRetry => {}
                    Action::Deliver(outcome) => return Ok(outcome),
                    Action::Fail(error) => return Err(error),
                    // Recovery/grant flows are not exposed over threads.
                    Action::FetchBackup | Action::InstallPhone | Action::MintGrant { .. } => {
                        return Err(SystemError::MissingReply {
                            expected: "realtime flow support",
                        })
                    }
                }
            }
            if !pending.is_empty() {
                continue;
            }

            // Wait for the next frame addressed to this session.
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.browser_rx.recv_timeout(remaining) {
                Ok(reply) => {
                    if reply.request_id != sid {
                        // A stale reply from an abandoned session.
                        continue;
                    }
                    self.browser.handle_reply(&reply.message);
                    pending = engine.on_event(Event::FrameReceived(reply.message));
                }
                Err(RecvTimeoutError::Timeout) => {
                    pending = engine.on_event(Event::TimerFired);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(SystemError::Disconnected),
            }
        }
    }

    /// Registers the user, logs in, and completes phone pairing across the
    /// live threads.
    ///
    /// # Errors
    ///
    /// Propagates server rejections and channel failures.
    pub fn setup_user(
        &mut self,
        user_id: &str,
        master_password: &str,
    ) -> Result<(), RealtimeError> {
        match self.run_session(FlowSpec::Setup {
            user_id: user_id.into(),
            master_password: master_password.into(),
        })? {
            SessionOutcome::SetupDone => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "SetupDone",
            }),
        }
    }

    /// Logs the caller's browser in (again) over the live threads.
    ///
    /// # Errors
    ///
    /// Propagates server rejections and channel failures.
    pub fn login(&mut self, user_id: &str, master_password: &str) -> Result<(), RealtimeError> {
        match self.run_session(FlowSpec::Login {
            user_id: user_id.into(),
            master_password: master_password.into(),
        })? {
            SessionOutcome::LoggedIn => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "LoginOk",
            }),
        }
    }

    /// Adds a managed account over the live threads.
    ///
    /// # Errors
    ///
    /// Propagates server rejections and channel failures.
    pub fn add_account(&mut self, username: &str, domain: &str) -> Result<(), RealtimeError> {
        match self.run_session(FlowSpec::AddAccount {
            username: Username::new(username).map_err(SystemError::Core)?,
            domain: Domain::new(domain).map_err(SystemError::Core)?,
            policy: PasswordPolicy::default(),
        })? {
            SessionOutcome::AccountAdded => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "AccountAdded",
            }),
        }
    }

    /// Runs the six-step generation across the threads and returns the
    /// password with the wall-clock time it took.
    ///
    /// # Errors
    ///
    /// Propagates server rejections and channel failures.
    pub fn generate(
        &mut self,
        username: &str,
        domain: &str,
    ) -> Result<(String, Duration), RealtimeError> {
        let start = Instant::now();
        match self.run_session(FlowSpec::Generate {
            username: Username::new(username).map_err(SystemError::Core)?,
            domain: Domain::new(domain).map_err(SystemError::Core)?,
        })? {
            SessionOutcome::Password { password, .. } => {
                Ok((password.as_str().to_string(), start.elapsed()))
            }
            _ => Err(SystemError::MissingReply {
                expected: "PasswordReady",
            }),
        }
    }

    /// Stops the component threads and joins them.
    pub fn shutdown(self) {
        let _ = self.to_server.send(ServerInbound::Shutdown);
        let _ = self.to_gcm.send(GcmInbound::Shutdown);
        // The phone thread exits when every sender onto its channel is gone;
        // the only live one sits in the (now stopping) gcm thread's
        // registry. Drop our channel ends before joining to avoid deadlock.
        let RealtimeDeployment {
            to_server,
            to_gcm,
            browser_rx,
            mut handles,
            ..
        } = self;
        drop(to_server);
        drop(to_gcm);
        drop(browser_rx);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_generation_end_to_end() {
        let mut rt = RealtimeDeployment::start(100);
        rt.setup_user("alice", "mp").unwrap();
        rt.add_account("alice", "threads.example.com").unwrap();
        let (p1, elapsed) = rt.generate("alice", "threads.example.com").unwrap();
        assert_eq!(p1.len(), 32);
        assert!(elapsed < Duration::from_secs(5));
        // Regeneration across live threads is deterministic.
        let (p2, _) = rt.generate("alice", "threads.example.com").unwrap();
        assert_eq!(p1, p2);
        rt.shutdown();
    }

    #[test]
    fn same_seed_same_password_across_deployments() {
        let run = |seed: u64| {
            let mut rt = RealtimeDeployment::start(seed);
            rt.setup_user("bob", "mp").unwrap();
            rt.add_account("bob", "x.example.com").unwrap();
            let (p, _) = rt.generate("bob", "x.example.com").unwrap();
            rt.shutdown();
            p
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn wrong_master_password_rejected_across_threads() {
        let mut rt = RealtimeDeployment::start(9);
        rt.setup_user("carol", "mp").unwrap();
        // A second login attempt with the wrong password errors.
        let err = rt.login("carol", "wrong").unwrap_err();
        assert!(matches!(err, SystemError::ServerRejected { .. }));
        rt.shutdown();
    }

    #[test]
    fn explicit_config_controls_every_seed() {
        let run = |config: RealtimeConfig| {
            let mut rt = RealtimeDeployment::start_with(config);
            rt.setup_user("dana", "mp").unwrap();
            rt.add_account("dana", "cfg.example.com").unwrap();
            let (p, _) = rt.generate("dana", "cfg.example.com").unwrap();
            rt.shutdown();
            p
        };
        let base = RealtimeConfig {
            server_seed: 41,
            phone_seed: 42,
            table_size: 64,
            kdf_policy: KdfPolicy::PAPER,
        };
        assert_eq!(run(base.clone()), run(base.clone()));
        // Changing either secret-bearing seed changes the password.
        assert_ne!(
            run(base.clone()),
            run(RealtimeConfig {
                server_seed: 43,
                ..base.clone()
            })
        );
        assert_ne!(
            run(base.clone()),
            run(RealtimeConfig {
                phone_seed: 43,
                ..base
            })
        );
    }

    #[test]
    fn shutdown_joins_cleanly_without_activity() {
        let rt = RealtimeDeployment::start(10);
        rt.shutdown(); // must not deadlock
    }
}

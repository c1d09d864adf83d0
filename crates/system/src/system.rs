//! The deployment object: the paper's Figure 1 topology — one server, one
//! rendezvous service — on the [`SessionHost`] event loop.
//!
//! Every end-to-end flow is one session in the host's table; frames coming
//! off the simulated network are routed back to the owning session by the
//! `request_id` echoed in every server reply. Because sessions are just
//! table entries, any number of flows can be in flight at once —
//! [`generate_passwords_concurrent`](AmnesiaSystem::generate_passwords_concurrent)
//! drives hundreds of interleaved generations through one network.

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::host::{Finished, SessionHost};
use crate::session::{FlowSpec, SessionId, SessionOutcome};
use amnesia_client::Browser;
use amnesia_cloud::CloudProvider;
use amnesia_core::{Domain, GeneratedPassword, PasswordPolicy, Username};
use amnesia_crypto::SecretRng;
use amnesia_net::{EndpointId, SecureChannel, SimDuration, SimInstant, SimNet};
use amnesia_phone::AmnesiaPhone;
use amnesia_rendezvous::RendezvousServer;
use amnesia_server::storage::AccountRef;
use amnesia_server::{AmnesiaServer, ServerConfig};
use amnesia_telemetry::Registry;
use std::fmt;

/// Endpoint name of the Amnesia server.
pub const SERVER_ENDPOINT: &str = "amnesia-server";
/// Endpoint name of the rendezvous service.
pub const GCM_ENDPOINT: &str = "gcm";

/// The single host's only shard and rendezvous instance.
const ONLY: usize = 0;

/// Result of one end-to-end password generation.
#[derive(Clone, Debug)]
pub struct GenerationOutcome {
    /// The account the password belongs to.
    pub account: AccountRef,
    /// The generated password, as delivered to the browser.
    pub password: GeneratedPassword,
    /// The paper's measured latency: server `tend` − `tstart`
    /// (push creation to password completion), attributed to *this*
    /// session's reply.
    pub latency: SimDuration,
}

/// Result of the phone-compromise recovery flow.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Old passwords regenerated from the uploaded backup, which the user
    /// must now change on each website.
    pub credentials: Vec<amnesia_server::RecoveredCredential>,
}

/// One generation request inside a
/// [`generate_passwords_concurrent`](AmnesiaSystem::generate_passwords_concurrent)
/// batch.
#[derive(Clone, Debug)]
pub struct GenerationRequest {
    /// Browser endpoint the request originates from.
    pub browser: String,
    /// Phone endpoint that confirms the request.
    pub phone: String,
    /// Account username `µ`.
    pub username: Username,
    /// Account domain `d`.
    pub domain: Domain,
}

/// The assembled deployment. See the crate-level docs and example.
pub struct AmnesiaSystem {
    host: SessionHost,
    server_seed: u64,
}

impl fmt::Debug for AmnesiaSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmnesiaSystem")
            .field("profile", &self.config().profile.name)
            .field("host", &self.host)
            .finish()
    }
}

impl AmnesiaSystem {
    /// Builds a deployment with a server, rendezvous service and cloud
    /// provider; add browsers and phones afterwards.
    pub fn new(config: SystemConfig) -> Self {
        let mut seed_rng = SecretRng::seeded(config.seed);
        let net = SimNet::new(seed_rng.next_u64());
        // Always draw, even when overridden, so the downstream rendezvous
        // and channel streams are independent of the override.
        let drawn_server_seed = seed_rng.next_u64();
        let server_seed = config.server_seed.unwrap_or(drawn_server_seed);
        let server = AmnesiaServer::new(ServerConfig {
            endpoint: SERVER_ENDPOINT.into(),
            seed: server_seed,
            kdf_policy: config.kdf_policy,
        });
        let gcm = RendezvousServer::new(GCM_ENDPOINT, seed_rng.next_u64());
        let host = SessionHost::new(
            config,
            "system",
            net,
            vec![(server, server_seed)],
            vec![gcm],
            seed_rng.fork(),
            CloudProvider::new("sim-cloud"),
        );
        AmnesiaSystem { host, server_seed }
    }

    // -- topology -----------------------------------------------------------

    /// Adds a browser endpoint connected to the server over the profile's
    /// HTTPS link.
    pub fn add_browser(&mut self, name: &str) {
        let latency = self.config().profile.browser_server.clone();
        self.host.wire_browser(name, latency, ONLY, ONLY);
    }

    /// Adds a browser running *on the phone* (paper §III: "The process is
    /// the same for a user using a mobile browser. In this case, the phone
    /// would also take on the role of the PC."): its HTTPS link to the
    /// server uses the phone's access-network latency instead of the
    /// computer's.
    pub fn add_mobile_browser(&mut self, name: &str) {
        let latency = self.config().profile.phone_server.clone();
        self.host.wire_browser(name, latency, ONLY, ONLY);
    }

    /// Installs a phone: endpoint, push link from the rendezvous, direct
    /// link to the server, and a protected phone↔server channel.
    pub fn add_phone(&mut self, name: &str, seed: u64) {
        self.host.wire_phone(name, seed, ONLY, ONLY);
    }

    /// Removes a phone component (a lost/stolen device leaving the
    /// deployment). Its network endpoint remains but nothing handles its
    /// frames.
    pub fn remove_phone(&mut self, name: &str) -> Option<AmnesiaPhone> {
        self.host.remove_phone(name)
    }

    /// Exports the channel keys for one direction — the §IV-A broken-HTTPS
    /// attack model ("the attacker is somehow able to compromise the
    /// connection").
    pub fn export_channel_keys_for_attack_model(
        &self,
        from: &str,
        to: &str,
    ) -> Option<([u8; 32], [u8; 32])> {
        self.host
            .channel(from, to)
            .map(SecureChannel::export_keys_for_attack_model)
    }

    /// Delivers and dispatches frames until the network is idle.
    ///
    /// Component-level rejections (unknown registrations, malformed pushes,
    /// replayed tokens) are recorded in [`faults`](Self::faults) rather than
    /// aborting the pump — on a real network they are just dropped traffic.
    pub fn pump(&mut self) {
        self.host.pump();
    }

    // -- flow helpers --------------------------------------------------------------

    /// Runs one session to completion and returns its outcome.
    fn run_flow(
        &mut self,
        browser: &str,
        phone: Option<&str>,
        user_id: Option<&str>,
        spec: FlowSpec,
        install: Option<(String, u64)>,
    ) -> Result<SessionOutcome, SystemError> {
        let (browser, phone) = self.endpoints(browser, phone)?;
        let sid = self.host.begin(browser, phone, user_id, spec, 1, install)?;
        self.host.run(sid).result
    }

    /// Resolves a flow's browser and phone names, browser first.
    fn endpoints(
        &self,
        browser: &str,
        phone: Option<&str>,
    ) -> Result<(EndpointId, Option<EndpointId>), SystemError> {
        let endpoint = |name: &str| {
            self.host
                .net()
                .endpoint(name)
                .ok_or_else(|| SystemError::UnknownComponent {
                    endpoint: name.into(),
                })
        };
        Ok((endpoint(browser)?, phone.map(endpoint).transpose()?))
    }

    /// Opens a generation session for `(username, domain)`.
    fn begin_generation(
        &mut self,
        browser: &str,
        phone: &str,
        username: &Username,
        domain: &Domain,
        attempts: u32,
    ) -> Result<SessionId, SystemError> {
        let (browser, phone) = self.endpoints(browser, Some(phone))?;
        let spec = FlowSpec::Generate {
            username: username.clone(),
            domain: domain.clone(),
        };
        self.host.begin(browser, phone, None, spec, attempts, None)
    }

    /// The generation outcome of a finished session, with its measured
    /// window as the latency.
    fn generation(&self, finished: Finished) -> Result<GenerationOutcome, SystemError> {
        match finished.result? {
            SessionOutcome::Password {
                account,
                password,
                requested_at,
            } => Ok(GenerationOutcome {
                account,
                password,
                latency: finished
                    .window
                    .unwrap_or_else(|| self.now().duration_since(requested_at)),
            }),
            _ => Err(SystemError::MissingReply {
                expected: "PasswordReady",
            }),
        }
    }

    // -- end-to-end flows -----------------------------------------------------------

    /// Registers an Amnesia account, logs the browser in, pairs the phone
    /// (CAPTCHA flow), and performs the one-time cloud backup.
    ///
    /// # Errors
    ///
    /// Propagates any rejection along the flow.
    pub fn setup_user(
        &mut self,
        user_id: &str,
        master_password: &str,
        browser: &str,
        phone: &str,
    ) -> Result<(), SystemError> {
        match self.run_flow(
            browser,
            Some(phone),
            Some(user_id),
            FlowSpec::Setup {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            None,
        )? {
            SessionOutcome::SetupDone => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "SetupDone",
            }),
        }
    }

    /// Logs a browser into the Amnesia server.
    ///
    /// # Errors
    ///
    /// Propagates login rejections.
    pub fn login(
        &mut self,
        browser: &str,
        user_id: &str,
        master_password: &str,
    ) -> Result<(), SystemError> {
        match self.run_flow(
            browser,
            None,
            Some(user_id),
            FlowSpec::Login {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            None,
        )? {
            SessionOutcome::LoggedIn => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "LoginOk",
            }),
        }
    }

    /// Adds a managed website account.
    ///
    /// # Errors
    ///
    /// Propagates server rejections.
    pub fn add_account(
        &mut self,
        browser: &str,
        username: Username,
        domain: Domain,
        policy: PasswordPolicy,
    ) -> Result<(), SystemError> {
        match self.run_flow(
            browser,
            None,
            None,
            FlowSpec::AddAccount {
                username,
                domain,
                policy,
            },
            None,
        )? {
            SessionOutcome::AccountAdded => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "AccountAdded",
            }),
        }
    }

    /// Lists the logged-in user's managed accounts.
    ///
    /// # Errors
    ///
    /// Propagates server rejections.
    pub fn list_accounts(&mut self, browser: &str) -> Result<Vec<AccountRef>, SystemError> {
        match self.run_flow(browser, None, None, FlowSpec::ListAccounts, None)? {
            SessionOutcome::Accounts(accounts) => Ok(accounts),
            _ => Err(SystemError::MissingReply {
                expected: "Accounts",
            }),
        }
    }

    /// Rotates an account's seed — changing its generated password.
    ///
    /// # Errors
    ///
    /// Propagates server rejections.
    pub fn rotate_seed(
        &mut self,
        browser: &str,
        username: Username,
        domain: Domain,
    ) -> Result<(), SystemError> {
        match self.run_flow(
            browser,
            None,
            None,
            FlowSpec::RotateSeed { username, domain },
            None,
        )? {
            SessionOutcome::SeedRotated => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "SeedRotated",
            }),
        }
    }

    /// Runs the full six-step generation flow and returns the password with
    /// its measured latency. If the phone's policy is `Manual`, the pending
    /// confirmation is accepted (the user taps "accept").
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow.
    pub fn generate_password(
        &mut self,
        browser: &str,
        phone: &str,
        username: &Username,
        domain: &Domain,
    ) -> Result<GenerationOutcome, SystemError> {
        self.generate_password_with_retry(browser, phone, username, domain, 1)
    }

    /// [`generate_password`](Self::generate_password) with bounded retries
    /// for lossy push delivery: mobile push is best-effort, and a dropped
    /// push leaves the request pending forever, so the session re-sends its
    /// request (same `request_id`, fresh push) up to `attempts` times.
    ///
    /// # Errors
    ///
    /// Returns the session's terminal error if all `attempts` fail.
    pub fn generate_password_with_retry(
        &mut self,
        browser: &str,
        phone: &str,
        username: &Username,
        domain: &Domain,
        attempts: u32,
    ) -> Result<GenerationOutcome, SystemError> {
        let sid = self.begin_generation(browser, phone, username, domain, attempts)?;
        let finished = self.host.run(sid);
        self.generation(finished)
    }

    /// Drives a whole batch of generations through the deployment at once:
    /// every session is opened up front, then the event loop interleaves
    /// their pushes, confirmations and replies over the shared network.
    /// Results (and per-session latencies) come back in request order.
    /// A bounded in-flight window (`SystemConfig::max_inflight`) admits
    /// the batch in a sliding fashion: at most `cap` sessions are open at
    /// once, a new one is admitted each time one settles, so the session
    /// table never grows past the cap no matter how large the batch is.
    pub fn generate_passwords_concurrent(
        &mut self,
        requests: &[GenerationRequest],
        attempts: u32,
    ) -> Vec<Result<GenerationOutcome, SystemError>> {
        let cap = self.config().max_inflight.max(1);
        let mut slots: Vec<Result<SessionId, SystemError>> = Vec::with_capacity(requests.len());
        // Every session of the batch enters the settle queue exactly once,
        // so the settles drained so far count the open ones down.
        let mut open = 0;
        let mut settled = Vec::new();
        for request in requests {
            while open >= cap {
                self.host.drive_until_settled(&mut settled);
                open = open.saturating_sub(settled.len());
            }
            let slot = self.begin_generation(
                &request.browser,
                &request.phone,
                &request.username,
                &request.domain,
                attempts,
            );
            if slot.is_ok() {
                open += 1;
            }
            slots.push(slot);
        }
        while open > 0 {
            self.host.drive_until_settled(&mut settled);
            open = open.saturating_sub(settled.len());
        }
        slots
            .into_iter()
            .map(|slot| {
                let finished = self.host.finish_session(slot?);
                self.generation(finished)
            })
            .collect()
    }

    /// Vault extension (§VIII): stores a user-chosen password for
    /// `(username, domain)`. The phone round obtains the token that keys the
    /// sealing; under the `Manual` policy the pending confirmation is
    /// accepted.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow.
    pub fn store_chosen_password(
        &mut self,
        browser: &str,
        phone: &str,
        username: Username,
        domain: Domain,
        chosen_password: &str,
    ) -> Result<AccountRef, SystemError> {
        match self.run_flow(
            browser,
            Some(phone),
            None,
            FlowSpec::StoreChosen {
                username,
                domain,
                chosen_password: chosen_password.to_string(),
            },
            None,
        )? {
            SessionOutcome::Stored { account } => Ok(account),
            _ => Err(SystemError::MissingReply {
                expected: "ChosenPasswordStored",
            }),
        }
    }

    /// Session-mechanism extension (§VIII): the user enables a generation
    /// session on the phone; the grant travels to the server and subsequent
    /// generations auto-confirm without phone interaction, up to `max_uses`.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow.
    pub fn enable_generation_session(
        &mut self,
        user_id: &str,
        phone: &str,
        browser: &str,
        max_uses: u32,
    ) -> Result<u32, SystemError> {
        match self.run_flow(
            browser,
            Some(phone),
            Some(user_id),
            FlowSpec::GrantSession {
                user_id: user_id.into(),
                max_uses,
            },
            None,
        )? {
            SessionOutcome::Granted { remaining_uses } => Ok(remaining_uses),
            _ => Err(SystemError::MissingReply {
                expected: "SessionGranted",
            }),
        }
    }

    /// Phone-compromise recovery (§III-C1), end to end: downloads the cloud
    /// backup, uploads it to the server, collects the regenerated old
    /// passwords, purges the old phone at the rendezvous, installs and pairs
    /// a replacement phone, and re-runs the cloud backup.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow; a `new_phone` name
    /// that is already registered fails before anything changes.
    pub fn recover_phone(
        &mut self,
        user_id: &str,
        master_password: &str,
        browser: &str,
        new_phone: &str,
        new_phone_seed: u64,
    ) -> Result<RecoveryOutcome, SystemError> {
        match self.run_flow(
            browser,
            None,
            Some(user_id),
            FlowSpec::Recover {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            Some((new_phone.to_string(), new_phone_seed)),
        )? {
            SessionOutcome::Recovered { credentials } => Ok(RecoveryOutcome { credentials }),
            _ => Err(SystemError::MissingReply {
                expected: "PhoneRecovered",
            }),
        }
    }

    /// Master-password-compromise recovery (§III-C2): the phone proves
    /// possession of `Pid` and the master password changes.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow.
    pub fn change_master_password(
        &mut self,
        user_id: &str,
        old_master_password: &str,
        new_master_password: &str,
        browser: &str,
        phone: &str,
    ) -> Result<(), SystemError> {
        let pid = self
            .phone(phone)
            .ok_or_else(|| SystemError::UnknownComponent {
                endpoint: phone.into(),
            })?
            .pid()
            .clone();
        match self.run_flow(
            browser,
            Some(phone),
            Some(user_id),
            FlowSpec::ChangeMasterPassword {
                user_id: user_id.into(),
                old_master_password: old_master_password.into(),
                new_master_password: new_master_password.into(),
                pid,
            },
            None,
        )? {
            SessionOutcome::MasterPasswordChanged => Ok(()),
            _ => Err(SystemError::MissingReply {
                expected: "MasterPasswordChanged",
            }),
        }
    }

    // -- accessors -----------------------------------------------------------------

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        self.host.config()
    }

    /// The seed the Amnesia server was constructed with (drawn from the
    /// deployment seed), for building a byte-identical server in another
    /// runtime.
    pub fn server_seed(&self) -> u64 {
        self.server_seed
    }

    /// The simulated network (attach wiretaps here).
    pub fn net_mut(&mut self) -> &mut SimNet {
        self.host.net_mut()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.host.now()
    }

    /// The Amnesia server.
    pub fn server(&self) -> &AmnesiaServer {
        self.host.server(ONLY)
    }

    /// Mutable access to the server (attack models, direct inspection).
    pub fn server_mut(&mut self) -> &mut AmnesiaServer {
        self.host.server_mut(ONLY)
    }

    /// The rendezvous service.
    pub fn gcm_mut(&mut self) -> &mut RendezvousServer {
        self.host.rendezvous_mut(ONLY)
    }

    /// The cloud provider.
    pub fn cloud_mut(&mut self) -> &mut CloudProvider {
        self.host.cloud_mut()
    }

    /// A phone agent by endpoint name.
    pub fn phone(&self, name: &str) -> Option<&AmnesiaPhone> {
        self.host.phone(name)
    }

    /// Mutable phone access (confirmation policies, compromise models).
    pub fn phone_mut(&mut self, name: &str) -> Option<&mut AmnesiaPhone> {
        self.host.phone_mut(name)
    }

    /// A browser by endpoint name.
    pub fn browser_ref(&self, name: &str) -> Option<&Browser> {
        self.host.browser(name)
    }

    /// Dispatch faults recorded during pumping (dropped/rejected traffic).
    pub fn faults(&self) -> &[String] {
        self.host.faults()
    }

    /// The deployment-wide metrics registry. Every component — network,
    /// server, rendezvous, phones — records into this one registry, so a
    /// single [`snapshot`](Registry::snapshot) covers the whole deployment.
    ///
    /// The crypto crate is dependency-free and cannot record directly;
    /// its process-wide hot-path stats are mirrored in here on every
    /// access, so reports and snapshots always carry the current
    /// `crypto.hmac.keys_created` and `crypto.kdf.{cpu,memhard}.derivations`
    /// counts plus the `crypto.pbkdf2.threads` and
    /// `crypto.scrypt.lane_workers` fan-out widths.
    pub fn telemetry(&self) -> &Registry {
        let telemetry = self.host.telemetry();
        // Counters are monotonic: add only the delta since the last mirror.
        for (name, current) in [
            (
                "crypto.hmac.keys_created",
                amnesia_crypto::stats::hmac_keys_created(),
            ),
            (
                "crypto.kdf.cpu.derivations",
                amnesia_crypto::stats::kdf_cpu_derivations(),
            ),
            (
                "crypto.kdf.memhard.derivations",
                amnesia_crypto::stats::kdf_memhard_derivations(),
            ),
        ] {
            let counter = telemetry.counter(name);
            counter.add(current.saturating_sub(counter.get()));
        }
        telemetry
            .gauge("crypto.pbkdf2.threads")
            .set_u64(amnesia_crypto::stats::pbkdf2_threads());
        telemetry
            .gauge("crypto.scrypt.lane_workers")
            .set_u64(amnesia_crypto::stats::scrypt_lane_workers());
        telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetProfile;
    use amnesia_phone::ConfirmPolicy;

    fn small() -> SystemConfig {
        SystemConfig::default().with_table_size(64)
    }

    fn setup() -> (AmnesiaSystem, Username, Domain) {
        let mut sys = AmnesiaSystem::new(small().with_seed(1));
        sys.add_browser("browser");
        sys.add_phone("phone", 11);
        sys.setup_user("alice", "correct horse", "browser", "phone")
            .unwrap();
        let u = Username::new("Alice").unwrap();
        let d = Domain::new("mail.google.com").unwrap();
        sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        (sys, u, d)
    }

    #[test]
    fn full_setup_and_generation() {
        let (mut sys, u, d) = setup();
        let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
        assert_eq!(outcome.password.as_str().len(), 32);
        assert_eq!(outcome.account.username, u);
        assert!(outcome.latency > SimDuration::ZERO);
        assert!(sys.faults().is_empty(), "{:?}", sys.faults());

        // Deterministic: a second generation yields the same password.
        let again = sys.generate_password("browser", "phone", &u, &d).unwrap();
        assert_eq!(outcome.password, again.password);
    }

    #[test]
    fn generation_equals_logical_derivation() {
        let (mut sys, u, d) = setup();
        let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
        let record = sys.server().user_record("alice").unwrap();
        let account = record.find_account(&u, &d).unwrap();
        let expected = amnesia_core::derive_password(
            &account.entry,
            &record.oid,
            sys.phone("phone").unwrap().entry_table(),
            &account.policy,
        )
        .unwrap();
        assert_eq!(outcome.password, expected);
    }

    #[test]
    fn auto_confirm_policy_works_through_push_path() {
        let (mut sys, u, d) = setup();
        sys.phone_mut("phone")
            .unwrap()
            .set_confirm_policy(ConfirmPolicy::AutoConfirm);
        let outcome = sys.generate_password("browser", "phone", &u, &d).unwrap();
        assert_eq!(outcome.password.as_str().len(), 32);
    }

    #[test]
    fn rejecting_user_blocks_generation() {
        let (mut sys, u, d) = setup();
        sys.phone_mut("phone")
            .unwrap()
            .set_confirm_policy(ConfirmPolicy::AutoReject);
        let err = sys
            .generate_password("browser", "phone", &u, &d)
            .unwrap_err();
        assert!(matches!(err, SystemError::MissingReply { .. }));
    }

    #[test]
    fn seed_rotation_changes_password() {
        let (mut sys, u, d) = setup();
        let before = sys.generate_password("browser", "phone", &u, &d).unwrap();
        sys.rotate_seed("browser", u.clone(), d.clone()).unwrap();
        let after = sys.generate_password("browser", "phone", &u, &d).unwrap();
        assert_ne!(before.password, after.password);
    }

    #[test]
    fn list_accounts_flow() {
        let (mut sys, u, d) = setup();
        let accounts = sys.list_accounts("browser").unwrap();
        assert_eq!(accounts.len(), 1);
        assert_eq!(accounts[0].username, u);
        assert_eq!(accounts[0].domain, d);
    }

    #[test]
    fn phone_recovery_end_to_end() {
        let (mut sys, u, d) = setup();
        let before = sys.generate_password("browser", "phone", &u, &d).unwrap();

        // The phone is stolen: remove it, recover onto a new device.
        sys.remove_phone("phone");
        let recovery = sys
            .recover_phone("alice", "correct horse", "browser", "phone-2", 999)
            .unwrap();
        assert_eq!(recovery.credentials.len(), 1);
        // The recovered (old) password matches what the user had.
        assert_eq!(recovery.credentials[0].old_password, before.password);

        // Generating with the new phone produces a *different* password
        // (new entry table), restoring bilateral security.
        let after = sys.generate_password("browser", "phone-2", &u, &d).unwrap();
        assert_ne!(after.password, before.password);
    }

    #[test]
    fn master_password_change_end_to_end() {
        let (mut sys, _, _) = setup();
        sys.change_master_password("alice", "correct horse", "new mp", "browser", "phone")
            .unwrap();
        // Old password no longer logs in; the new one does.
        assert!(sys.login("browser", "alice", "correct horse").is_err());
        sys.login("browser", "alice", "new mp").unwrap();
    }

    #[test]
    fn wrong_master_password_rejected_over_wire() {
        let mut sys = AmnesiaSystem::new(small().with_seed(2));
        sys.add_browser("browser");
        sys.add_phone("phone", 3);
        sys.setup_user("bob", "mp", "browser", "phone").unwrap();
        let err = sys.login("browser", "bob", "wrong").unwrap_err();
        assert!(matches!(err, SystemError::ServerRejected { .. }));
    }

    #[test]
    fn wiretap_on_https_sees_only_ciphertext() {
        let mut sys = AmnesiaSystem::new(small().with_seed(3));
        sys.add_browser("browser");
        sys.add_phone("phone", 4);
        let tap = sys.net_mut().tap("browser", SERVER_ENDPOINT).unwrap();
        sys.setup_user("carol", "super secret mp", "browser", "phone")
            .unwrap();
        assert!(!tap.is_empty());
        for record in tap.records() {
            assert!(
                !record
                    .payload
                    .windows(b"super secret mp".len())
                    .any(|w| w == b"super secret mp"),
                "master password visible on the wire"
            );
        }
    }

    #[test]
    fn insecure_channels_expose_plaintext() {
        // Ablation: with secure_channels off the same tap sees the secret.
        let mut sys = AmnesiaSystem::new(small().with_seed(4).with_secure_channels(false));
        sys.add_browser("browser");
        sys.add_phone("phone", 5);
        let tap = sys.net_mut().tap("browser", SERVER_ENDPOINT).unwrap();
        sys.setup_user("dave", "super secret mp", "browser", "phone")
            .unwrap();
        let seen = tap.records().iter().any(|r| {
            r.payload
                .windows(b"super secret mp".len())
                .any(|w| w == b"super secret mp")
        });
        assert!(seen, "plaintext should be visible without channel crypto");
    }

    /// Asserts that `system.generate_password_us` holds exactly the
    /// outcomes' `latencies`: the same count, sum, min and max in µs.
    fn assert_window_holds(sys: &AmnesiaSystem, latencies: &[SimDuration]) {
        let window = &sys.telemetry().snapshot().histograms["system.generate_password_us"];
        let micros = || latencies.iter().map(SimDuration::as_micros);
        assert_eq!(window.count(), latencies.len() as u64);
        assert_eq!(window.sum(), micros().map(u128::from).sum::<u128>());
        assert_eq!(window.min(), micros().min());
        assert_eq!(window.max(), micros().max());
    }

    #[test]
    fn latency_accumulates_per_generation() {
        let mut sys = AmnesiaSystem::new(small().with_seed(5).with_profile(NetProfile::wifi()));
        sys.add_browser("browser");
        sys.add_phone("phone", 6);
        sys.setup_user("erin", "mp", "browser", "phone").unwrap();
        let u = Username::new("erin").unwrap();
        let d = Domain::new("site.com").unwrap();
        sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        let latencies: Vec<SimDuration> = (0..5)
            .map(|_| {
                sys.generate_password("browser", "phone", &u, &d)
                    .unwrap()
                    .latency
            })
            .collect();
        assert_window_holds(&sys, &latencies);
        for l in &latencies {
            // Plausible wifi-profile window.
            let ms = l.as_millis_f64();
            assert!((200.0..2000.0).contains(&ms), "latency {ms}ms");
        }
    }

    #[test]
    fn outcome_latency_is_the_sessions_own_window() {
        // The latency on each outcome must match the recorded sample for
        // that generation, not the last one that happened to complete.
        let mut sys = AmnesiaSystem::new(small().with_seed(9).with_profile(NetProfile::wifi()));
        sys.add_browser("browser");
        sys.add_phone("phone", 6);
        sys.setup_user("erin", "mp", "browser", "phone").unwrap();
        let u = Username::new("erin").unwrap();
        let d = Domain::new("site.com").unwrap();
        sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        let mut latencies = Vec::new();
        for _ in 0..4 {
            latencies.push(
                sys.generate_password("browser", "phone", &u, &d)
                    .unwrap()
                    .latency,
            );
        }
        assert_window_holds(&sys, &latencies);
    }

    #[test]
    fn concurrent_generations_complete_with_distinct_passwords() {
        let mut sys = AmnesiaSystem::new(small().with_seed(21));
        sys.add_browser("browser");
        sys.add_phone("phone", 7);
        sys.setup_user("alice", "mp", "browser", "phone").unwrap();
        sys.phone_mut("phone")
            .unwrap()
            .set_confirm_policy(ConfirmPolicy::AutoConfirm);
        let accounts: Vec<(Username, Domain)> = (0..8)
            .map(|i| {
                let u = Username::new(format!("user{i}")).unwrap();
                let d = Domain::new(format!("site{i}.example.com")).unwrap();
                sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
                    .unwrap();
                (u, d)
            })
            .collect();
        let requests: Vec<GenerationRequest> = accounts
            .iter()
            .map(|(u, d)| GenerationRequest {
                browser: "browser".into(),
                phone: "phone".into(),
                username: u.clone(),
                domain: d.clone(),
            })
            .collect();
        let results = sys.generate_passwords_concurrent(&requests, 1);
        assert_eq!(results.len(), 8);
        for (result, (u, _)) in results.iter().zip(&accounts) {
            let outcome = result.as_ref().unwrap();
            assert_eq!(&outcome.account.username, u);
            // Each session got its own attributed latency.
            assert!(outcome.latency > SimDuration::ZERO);
        }
        // Batch results agree with sequential regeneration.
        for (result, (u, d)) in results.iter().zip(&accounts) {
            let sequential = sys.generate_password("browser", "phone", u, d).unwrap();
            assert_eq!(result.as_ref().unwrap().password, sequential.password);
        }
    }

    #[test]
    fn telemetry_covers_every_component_and_step() {
        let (mut sys, u, d) = setup();
        for _ in 0..3 {
            sys.generate_password("browser", "phone", &u, &d).unwrap();
        }
        let snapshot = sys.telemetry().snapshot();

        // Counters from all four instrumented components.
        assert!(snapshot.counters["net.frames_sent"] > 0);
        assert_eq!(snapshot.counters["server.requests_pushed"], 3);
        assert_eq!(snapshot.counters["rendezvous.push_forwarded"], 3);
        assert_eq!(snapshot.counters["phone.pushes_received"], 3);
        assert_eq!(snapshot.counters["phone.tokens_computed"], 3);
        assert_eq!(snapshot.counters["system.generations"], 3);

        // No generation is left in flight once the flows return.
        assert_eq!(snapshot.gauges["system.session.inflight"], 0);

        // Every protocol step of Fig. 1 has a latency histogram with one
        // sample per generation, plus the end-to-end measures.
        for step in [
            "steps.step1_request_upload_us",
            "steps.step2_server_to_gcm_us",
            "steps.step3_push_delivery_us",
            "steps.step4_token_upload_us",
            "steps.step5_password_compute_us",
            "steps.step6_password_download_us",
            "system.generate_password_us",
            "system.generate_password_e2e_us",
        ] {
            assert_eq!(snapshot.histograms[step].count(), 3, "{step}");
        }

        // The measured window (steps 2–5) is a lower bound on the e2e span,
        // and the per-step legs sum to less than the e2e total.
        let window = snapshot.histograms["system.generate_password_us"]
            .mean()
            .unwrap();
        let e2e = snapshot.histograms["system.generate_password_e2e_us"]
            .mean()
            .unwrap();
        assert!(
            window < e2e,
            "window {window}us should be within e2e {e2e}us"
        );

        // Confirm latency was recorded via the confirm path under the
        // Manual policy.
        assert_eq!(snapshot.histograms["phone.confirm_latency_us"].count(), 3);

        // Crypto hot-path stats are mirrored into the deployment registry:
        // setup + generations key HMACs (channel keys, verifiers, DRBG), and
        // at least one PBKDF2 derivation ran (width >= 1).
        assert!(snapshot.counters["crypto.hmac.keys_created"] > 0);
        assert!(snapshot.gauges["crypto.pbkdf2.threads"] >= 1);
    }

    #[test]
    fn retry_counter_tracks_lossy_push_attempts() {
        let mut sys = AmnesiaSystem::new(
            small()
                .with_seed(77)
                .with_profile(NetProfile::wifi().with_push_drop_probability(1.0)),
        );
        sys.add_browser("browser");
        sys.add_phone("phone", 8);
        sys.setup_user("frank", "mp", "browser", "phone").unwrap();
        let u = Username::new("frank").unwrap();
        let d = Domain::new("site.com").unwrap();
        sys.add_account("browser", u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        // Every push drops, so all 3 attempts fail and 2 retries are counted.
        sys.generate_password_with_retry("browser", "phone", &u, &d, 3)
            .unwrap_err();
        let snapshot = sys.telemetry().snapshot();
        assert_eq!(snapshot.counters["system.generation_retries"], 2);
        assert!(snapshot.counters["net.frames_dropped"] >= 3);
        assert_eq!(snapshot.counters.get("system.generations"), None);
    }

    #[test]
    fn timeouts_are_counted_per_session() {
        let (mut sys, u, d) = setup();
        sys.phone_mut("phone")
            .unwrap()
            .set_confirm_policy(ConfirmPolicy::AutoReject);
        sys.generate_password("browser", "phone", &u, &d)
            .unwrap_err();
        let snapshot = sys.telemetry().snapshot();
        assert_eq!(snapshot.counters["system.session.timeouts"], 1);
        assert_eq!(snapshot.gauges["system.session.inflight"], 0);
    }
}

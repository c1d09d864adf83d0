//! The Amnesia server state machine.

use crate::auth::{Session, SessionManager, Verifier};
use crate::error::ServerError;
use crate::pending::{PendingRequest, PendingRequests, RequestPurpose};
use crate::protocol::{
    FromServer, KpBackup, PhonePush, Push, Reply, SessionGrantToken, ToServer, TokenResponse,
};
use crate::storage::{AccountKind, AccountRef, RecoveredCredential, StoredAccount, UserRecord};
use amnesia_core::{
    derive_intermediate, derive_password, AccountEntry, Domain, EntryTable, GeneratedPassword,
    OnlineId, PasswordPolicy, PasswordRequest, PhoneId, Seed, Token, Username,
};
use amnesia_crypto::{aead, KdfPolicy, SecretRng};
use amnesia_net::SimInstant;
use amnesia_rendezvous::RegistrationId;
use amnesia_store::{Database, TypedTable};
use amnesia_telemetry::{Counter, Gauge, HistogramHandle, LazyHandle, Registry, WallClock};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// A logged-in session handle (alias of the auth-layer token).
pub type SessionToken = Session;

/// Server deployment parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Network endpoint name of this server.
    pub endpoint: String,
    /// Seed for all server-side randomness (`Oid`, `σ`, salts, sessions).
    pub seed: u64,
    /// KDF hardness policy for stored verifiers. [`KdfPolicy::PAPER`]
    /// (one PBKDF2 iteration) reproduces the paper's plain salted hash;
    /// the memory-hard ladder rungs (`KdfPolicy::INTERACTIVE`/`BALANCED`/
    /// `PARANOID`) price offline guessing in attacker silicon area × time.
    pub kdf_policy: KdfPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            endpoint: "amnesia-server".into(),
            seed: 0,
            kdf_policy: KdfPolicy::PAPER,
        }
    }
}

/// Counters the evaluation harness reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests pushed to phones.
    pub requests_pushed: u64,
    /// Passwords generated from returned tokens.
    pub passwords_generated: u64,
    /// Tokens that matched no pending request.
    pub tokens_rejected: u64,
    /// Failed logins observed.
    pub failed_logins: u64,
}

/// What the server wants transmitted after handling one message: at most
/// one reply and at most one push.
#[derive(Debug, Default)]
pub struct ServerReaction {
    /// The reply to deliver, with the browser endpoint it goes to, tagged
    /// with the request id of the session it answers. An unmatched token
    /// gets none.
    pub reply: Option<(String, Reply)>,
    /// A push to forward to the rendezvous service, if any.
    pub push: Option<Push>,
}

/// What a returned token produced (see
/// [`AmnesiaServer::receive_token`]).
#[derive(Debug)]
pub enum TokenOutcome {
    /// A password is ready for delivery to the requesting browser.
    PasswordReady {
        /// The pending request the token satisfied.
        pending: PendingRequest,
        /// The generated (or vault-recovered) password.
        password: GeneratedPassword,
    },
    /// A chosen password was sealed and stored (vault extension).
    VaultStored {
        /// The pending store request the token satisfied.
        pending: PendingRequest,
    },
}

/// The metric handles a generation records into, resolved once per
/// registry so steps 2 and 5 never look a name up. The two failure
/// counters register at their first event, so a run without failures
/// snapshots no key for them.
struct ServerMetrics {
    step2: HistogramHandle,
    step5: HistogramHandle,
    requests_pushed: Counter,
    passwords_generated: Counter,
    pending_requests: Gauge,
    failed_logins: LazyHandle<Counter>,
    tokens_rejected: LazyHandle<Counter>,
}

impl ServerMetrics {
    fn resolve(registry: &Registry) -> Self {
        ServerMetrics {
            step2: registry.histogram("server.step2_derive_request_us"),
            step5: registry.histogram("server.step5_assemble_password_us"),
            requests_pushed: registry.counter("server.requests_pushed"),
            passwords_generated: registry.counter("server.passwords_generated"),
            pending_requests: registry.gauge("server.pending_requests"),
            failed_logins: LazyHandle::new(registry, "server.failed_logins"),
            tokens_rejected: LazyHandle::new(registry, "server.tokens_rejected"),
        }
    }
}

/// The Amnesia web server (see the crate-level docs for the protocol map).
pub struct AmnesiaServer {
    config: ServerConfig,
    rng: SecretRng,
    db: Database,
    /// The durable copy of Table I (write-ahead-logged when `db` is
    /// durable). The breach model reads it; no other flow does.
    users: TypedTable<String, UserRecord>,
    /// Every acknowledged row of `users`, decoded: filled by one scan when
    /// the server opens a database, and written only by `register_user`
    /// and `store_user` once the table write has returned `Ok`. Hashed:
    /// nothing iterates it (the breach model reads `users`).
    records: HashMap<String, UserRecord>,
    sessions: SessionManager,
    pending: PendingRequests,
    captchas: HashMap<String, String>,
    session_grants: HashMap<String, (SessionGrantToken, u32)>,
    stats: ServerStats,
    telemetry: Registry,
    metrics: ServerMetrics,
}

impl fmt::Debug for AmnesiaServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmnesiaServer")
            .field("endpoint", &self.config.endpoint)
            .field("users", &self.records.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// The decoded row of `user_id`. A free function rather than a method, so
/// a flow can hold the row while it updates the server's other fields.
fn row<'a>(
    records: &'a HashMap<String, UserRecord>,
    user_id: &str,
) -> Result<&'a UserRecord, ServerError> {
    records
        .get(user_id)
        .ok_or_else(|| ServerError::UnknownUser {
            user_id: user_id.into(),
        })
}

/// Pops one use of `user_id`'s active session grant, if any.
fn consume_session_grant(
    grants: &mut HashMap<String, (SessionGrantToken, u32)>,
    user_id: &str,
) -> Option<SessionGrantToken> {
    match grants.get_mut(user_id) {
        Some((grant, remaining)) if *remaining > 0 => {
            *remaining -= 1;
            let token = grant.clone();
            if *remaining == 0 {
                grants.remove(user_id);
            }
            Some(token)
        }
        _ => None,
    }
}

impl AmnesiaServer {
    /// Creates a server with a fresh in-memory database.
    pub fn new(config: ServerConfig) -> Self {
        Self::unloaded(config, Database::in_memory())
    }

    /// Creates a server over an existing database (e.g. one reloaded from a
    /// snapshot), decoding every row of its `users` table once.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] if a stored row fails to decode.
    pub fn with_database(config: ServerConfig, db: Database) -> Result<Self, ServerError> {
        let mut server = Self::unloaded(config, db);
        server.records = server.users.scan()?.into_iter().collect();
        Ok(server)
    }

    /// A server over `db` that has not decoded any of its rows yet.
    fn unloaded(config: ServerConfig, db: Database) -> Self {
        let users = db.table("users");
        let telemetry = Registry::new();
        AmnesiaServer {
            rng: SecretRng::seeded(config.seed),
            config,
            db,
            users,
            records: HashMap::new(),
            sessions: SessionManager::new(),
            pending: PendingRequests::new(),
            captchas: HashMap::new(),
            session_grants: HashMap::new(),
            stats: ServerStats::default(),
            metrics: ServerMetrics::resolve(&telemetry),
            telemetry,
        }
    }

    /// The server's network endpoint name.
    pub fn endpoint(&self) -> &str {
        &self.config.endpoint
    }

    /// Replaces the metrics registry this server records into (`server.*`
    /// counters, the pending-request gauge, and per-step compute spans).
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.metrics = ServerMetrics::resolve(&registry);
        self.telemetry = registry;
    }

    /// Number of password requests currently awaiting their phone tokens
    /// (the queue depth sharded deployments report per shard).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn note_pending_depth(&self) {
        self.metrics.pending_requests.set_usize(self.pending.len());
    }

    /// Evaluation counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Persists the user database to a checksummed snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates storage/IO errors.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), ServerError> {
        self.db.save_to(path).map_err(ServerError::from)
    }

    /// Reopens a server from a database snapshot.
    ///
    /// # Errors
    ///
    /// Propagates storage/IO errors.
    pub fn open(config: ServerConfig, path: impl AsRef<Path>) -> Result<Self, ServerError> {
        Self::with_database(config, Database::open(path)?)
    }

    /// Opens (or creates) a server over a durable database rooted at `dir`:
    /// every user mutation is write-ahead-logged and group-committed before
    /// the handler returns, and crash recovery replays the log over the
    /// last compacted snapshot (see `amnesia_store::wal`).
    ///
    /// # Errors
    ///
    /// Propagates storage/IO and recovery errors.
    pub fn open_durable(config: ServerConfig, dir: impl AsRef<Path>) -> Result<Self, ServerError> {
        Self::with_database(config, Database::open_durable(dir)?)
    }

    /// The server's backing database (durable deployments use this to drive
    /// compaction policy). Write users only through the server: it keeps
    /// its own decoded copy of the `users` table.
    pub fn database(&self) -> &Database {
        &self.db
    }

    // -- user lifecycle ----------------------------------------------------

    /// Signs up a new Amnesia user with a master password.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UserExists`] for a taken ID.
    pub fn register_user(
        &mut self,
        user_id: &str,
        master_password: &str,
    ) -> Result<(), ServerError> {
        if self.records.contains_key(user_id) {
            return Err(ServerError::UserExists {
                user_id: user_id.into(),
            });
        }
        let mp_verifier = self.derive_verifier(master_password.as_bytes())?;
        let record = UserRecord {
            user_id: user_id.into(),
            oid: OnlineId::random(&mut self.rng),
            mp_verifier,
            pid_verifier: None,
            registration_id: None,
            accounts: Vec::new(),
        };
        self.users.insert(&record.user_id, &record)?;
        self.records.insert(record.user_id.clone(), record);
        Ok(())
    }

    /// Derives a verifier under the deployment's [`KdfPolicy`], timing the
    /// derivation into the per-class latency histogram
    /// (`crypto.kdf.{cpu,memhard}.derive_us`).
    fn derive_verifier(&mut self, secret: &[u8]) -> Result<Verifier, ServerError> {
        let _kdf = self.telemetry.span(
            Self::kdf_span_name(&self.config.kdf_policy),
            WallClock::new(),
        );
        Ok(Verifier::derive(
            secret,
            &self.config.kdf_policy,
            &mut self.rng,
        )?)
    }

    /// Histogram name for one KDF execution under `policy`.
    fn kdf_span_name(policy: &KdfPolicy) -> &'static str {
        match policy.class_name() {
            "memhard" => "crypto.kdf.memhard.derive_us",
            _ => "crypto.kdf.cpu.derive_us",
        }
    }

    /// Writes `record` to the table, then, once the write is acknowledged,
    /// replaces the decoded row.
    fn store_user(&mut self, record: UserRecord) -> Result<(), ServerError> {
        self.users.put(&record.user_id, &record)?;
        self.records.insert(record.user_id.clone(), record);
        Ok(())
    }

    /// The session user's decoded row.
    fn session_user(&self, session: &SessionToken) -> Result<&UserRecord, ServerError> {
        row(&self.records, self.sessions.resolve(session)?)
    }

    fn verify_master_password(
        &mut self,
        user_id: &str,
        master_password: &str,
    ) -> Result<(), ServerError> {
        if self.sessions.is_locked(user_id) {
            return Err(ServerError::AccountLocked {
                failures: crate::auth::LOCKOUT_THRESHOLD,
            });
        }
        let record = row(&self.records, user_id)?;
        // Verification re-derives under the *stored* policy (the hash is a
        // function of it); `verify_expecting` additionally refuses to serve
        // a memory-hard record under a CPU-only deployment config, so a
        // hardness downgrade is a loud error, never a silent weakening.
        let ok = {
            let _kdf = self.telemetry.span(
                Self::kdf_span_name(record.mp_verifier.policy()),
                WallClock::new(),
            );
            record
                .mp_verifier
                .verify_expecting(master_password.as_bytes(), &self.config.kdf_policy)?
        };
        if ok {
            self.sessions.clear_failures(user_id);
            Ok(())
        } else {
            self.stats.failed_logins += 1;
            self.metrics.failed_logins.get().inc();
            Err(self.sessions.record_failure(user_id))
        }
    }

    /// Authenticates with the master password and issues a session.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::BadCredentials`], escalating to
    /// [`ServerError::AccountLocked`] after repeated failures.
    pub fn login(
        &mut self,
        user_id: &str,
        master_password: &str,
    ) -> Result<SessionToken, ServerError> {
        self.verify_master_password(user_id, master_password)?;
        Ok(self.sessions.issue(user_id, &mut self.rng))
    }

    /// Ends a session; returns whether it existed.
    pub fn logout(&mut self, session: &SessionToken) -> bool {
        self.sessions.revoke(session)
    }

    // -- phone pairing -----------------------------------------------------

    /// Starts phone pairing: returns the CAPTCHA code displayed on the web
    /// page, which the user must type into the Amnesia application.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::PhoneAlreadyPaired`] if a phone is paired, or
    /// session errors.
    pub fn begin_phone_pairing(&mut self, session: &SessionToken) -> Result<String, ServerError> {
        let record = row(&self.records, self.sessions.resolve(session)?)?;
        if record.phone_paired() {
            return Err(ServerError::PhoneAlreadyPaired);
        }
        let code = format!("{:06}", self.rng.next_u64() % 1_000_000);
        self.captchas.insert(record.user_id.clone(), code.clone());
        Ok(code)
    }

    /// Completes pairing with the phone-supplied CAPTCHA, `Pid` and
    /// registration ID. Stores the registration ID in plaintext and the
    /// `Pid` hashed and salted (Table I).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::BadCaptcha`] on code mismatch and
    /// [`ServerError::PhoneAlreadyPaired`] if pairing already completed.
    pub fn complete_phone_pairing(
        &mut self,
        user_id: &str,
        captcha: &str,
        pid: &PhoneId,
        registration_id: RegistrationId,
    ) -> Result<(), ServerError> {
        let mut record = row(&self.records, user_id)?.clone();
        if record.phone_paired() {
            return Err(ServerError::PhoneAlreadyPaired);
        }
        match self.captchas.get(user_id) {
            Some(expected) if expected == captcha => {}
            _ => return Err(ServerError::BadCaptcha),
        }
        self.captchas.remove(user_id);
        record.pid_verifier = Some(self.derive_verifier(pid.as_bytes())?);
        record.registration_id = Some(registration_id);
        self.store_user(record)
    }

    // -- account management --------------------------------------------------

    /// Adds a managed website account `(µ, d)` with a fresh seed `σ`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::AccountExists`] for duplicates.
    pub fn add_account(
        &mut self,
        session: &SessionToken,
        username: Username,
        domain: Domain,
        policy: PasswordPolicy,
    ) -> Result<(), ServerError> {
        let mut record = self.session_user(session)?.clone();
        if record.find_account(&username, &domain).is_some() {
            return Err(ServerError::AccountExists);
        }
        let seed = Seed::random(&mut self.rng);
        record.accounts.push(StoredAccount {
            entry: AccountEntry::new(username, domain, seed),
            policy,
            kind: AccountKind::Generated,
        });
        self.store_user(record)
    }

    /// Lists the session user's managed accounts.
    ///
    /// # Errors
    ///
    /// Returns session errors.
    pub fn list_accounts(&self, session: &SessionToken) -> Result<Vec<AccountRef>, ServerError> {
        Ok(self
            .session_user(session)?
            .accounts
            .iter()
            .map(StoredAccount::account_ref)
            .collect())
    }

    /// Rotates the seed `σ` of one account — the paper's password-change
    /// mechanism (§III-A2). Requests still pending for the account are
    /// dropped: their `R` was derived from the old `σ`, so a late token
    /// would render a password under neither seed. It is rejected as
    /// [`ServerError::UnknownRequest`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownAccount`] if the pair is not managed.
    pub fn rotate_seed(
        &mut self,
        session: &SessionToken,
        username: &Username,
        domain: &Domain,
    ) -> Result<(), ServerError> {
        let mut record = self.session_user(session)?.clone();
        let seed = Seed::random(&mut self.rng);
        let account = record
            .find_account_mut(username, domain)
            .ok_or(ServerError::UnknownAccount)?;
        if !matches!(account.kind, AccountKind::Generated) {
            // The seed keys the vault ciphertext; rotating it would orphan
            // the stored password.
            return Err(ServerError::VaultedSeedRotation);
        }
        account.entry = account.entry.with_seed(seed);
        let account = account.account_ref();
        let user_id = record.user_id.clone();
        self.store_user(record)?;
        self.pending.purge_account(&user_id, &account);
        self.note_pending_depth();
        Ok(())
    }

    // -- password generation -------------------------------------------------

    /// Step 2–3 of Figure 1: derives `R = H(µ‖d‖σ)`, records the pending
    /// request, and returns the [`Push`] to forward to the rendezvous
    /// service.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::NoPhonePaired`] without a paired phone and
    /// [`ServerError::UnknownAccount`] for unmanaged accounts.
    pub fn request_password(
        &mut self,
        session: &SessionToken,
        username: &Username,
        domain: &Domain,
        request_id: u64,
        reply_to: &str,
        now: SimInstant,
    ) -> Result<Push, ServerError> {
        let _step2 = self.metrics.step2.span(WallClock::new());
        let record = row(&self.records, self.sessions.resolve(session)?)?;
        let registration_id = record
            .registration_id
            .clone()
            .ok_or(ServerError::NoPhonePaired)?;
        let account = record
            .find_account(username, domain)
            .ok_or(ServerError::UnknownAccount)?;

        let request = PasswordRequest::derive(username, domain, account.entry.seed());
        self.pending.insert(
            request.clone(),
            PendingRequest {
                user_id: record.user_id.clone(),
                account: account.account_ref(),
                request_id,
                reply_to: reply_to.to_string(),
                issued_at: now,
                purpose: RequestPurpose::Generate,
            },
        );
        let push = PhonePush {
            request_id,
            request,
            origin: reply_to.to_string(),
            tstart: now,
            session_grant: consume_session_grant(&mut self.session_grants, &record.user_id),
        };
        self.stats.requests_pushed += 1;
        self.metrics.requests_pushed.inc();
        self.note_pending_depth();
        Ok(Push {
            registration_id,
            message: push,
        })
    }

    /// Vault extension (§VIII): begins storing a user-chosen password. The
    /// returned push obtains the token that keys the sealing; the account is
    /// created when the token arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::NoPhonePaired`] without a paired phone and
    /// [`ServerError::AccountExists`] for an already-managed pair.
    pub fn store_chosen_password(
        &mut self,
        session: &SessionToken,
        account: AccountRef,
        chosen_password: String,
        request_id: u64,
        reply_to: &str,
        now: SimInstant,
    ) -> Result<Push, ServerError> {
        let record = row(&self.records, self.sessions.resolve(session)?)?;
        let registration_id = record
            .registration_id
            .clone()
            .ok_or(ServerError::NoPhonePaired)?;
        if record
            .find_account(&account.username, &account.domain)
            .is_some()
        {
            return Err(ServerError::AccountExists);
        }
        let seed = Seed::random(&mut self.rng);
        let request = PasswordRequest::derive(&account.username, &account.domain, &seed);
        self.pending.insert(
            request.clone(),
            PendingRequest {
                user_id: record.user_id.clone(),
                account,
                request_id,
                reply_to: reply_to.to_string(),
                issued_at: now,
                purpose: RequestPurpose::StoreVaulted {
                    seed,
                    chosen_password,
                },
            },
        );
        let push = PhonePush {
            request_id,
            request,
            origin: reply_to.to_string(),
            tstart: now,
            session_grant: consume_session_grant(&mut self.session_grants, &record.user_id),
        };
        self.stats.requests_pushed += 1;
        self.metrics.requests_pushed.inc();
        self.note_pending_depth();
        Ok(Push {
            registration_id,
            message: push,
        })
    }

    /// Session-mechanism extension (§VIII): installs a phone-issued grant;
    /// subsequent pushes carry it so the phone can auto-confirm. Returns the
    /// number of uses installed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownUser`] for unregistered users.
    pub fn set_session_grant(
        &mut self,
        user_id: &str,
        grant: SessionGrantToken,
        max_uses: u32,
    ) -> Result<u32, ServerError> {
        // Validate the user exists; the grant's authenticity is established
        // by the phone↔server channel it arrived on.
        row(&self.records, user_id)?;
        self.session_grants
            .insert(user_id.to_string(), (grant, max_uses));
        Ok(max_uses)
    }

    /// Remaining uses on the user's session grant (0 when absent).
    pub fn session_grant_remaining(&self, user_id: &str) -> u32 {
        self.session_grants
            .get(user_id)
            .map(|(_, remaining)| *remaining)
            .unwrap_or(0)
    }

    /// Step 5 of Figure 1: consumes a returned token `T` and completes the
    /// pending request — rendering a generated password, opening a vault
    /// entry, or sealing a new one, depending on the request's purpose.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownRequest`] if no pending request matches
    /// the echoed `R`, and [`ServerError::VaultCorrupt`] if a vault
    /// ciphertext fails authentication.
    pub fn receive_token(&mut self, response: &TokenResponse) -> Result<TokenOutcome, ServerError> {
        let _step5 = self.metrics.step5.span(WallClock::new());
        let pending = self.pending.claim(&response.request).ok_or_else(|| {
            self.stats.tokens_rejected += 1;
            self.metrics.tokens_rejected.get().inc();
            ServerError::UnknownRequest
        })?;
        self.note_pending_depth();
        let record = row(&self.records, &pending.user_id)?;
        match &pending.purpose {
            RequestPurpose::Generate => {
                let account = record
                    .find_account(&pending.account.username, &pending.account.domain)
                    .ok_or(ServerError::UnknownAccount)?;
                let password = match &account.kind {
                    AccountKind::Generated => {
                        let p =
                            derive_intermediate(&response.token, &record.oid, account.entry.seed());
                        account.policy.render(&p)
                    }
                    AccountKind::Vaulted { ciphertext } => {
                        let key = Self::vault_key(&response.token, record, account.entry.seed());
                        let aad = pending.account.to_string();
                        let plaintext = aead::open(&key, ciphertext, aad.as_bytes())
                            .map_err(|_| ServerError::VaultCorrupt)?;
                        let chosen =
                            String::from_utf8(plaintext).map_err(|_| ServerError::VaultCorrupt)?;
                        GeneratedPassword::from_plaintext(chosen)
                    }
                };
                self.stats.passwords_generated += 1;
                self.metrics.passwords_generated.inc();
                Ok(TokenOutcome::PasswordReady { pending, password })
            }
            RequestPurpose::StoreVaulted {
                seed,
                chosen_password,
            } => {
                if record
                    .find_account(&pending.account.username, &pending.account.domain)
                    .is_some()
                {
                    return Err(ServerError::AccountExists);
                }
                let key = Self::vault_key(&response.token, record, seed);
                let aad = pending.account.to_string();
                let ciphertext = aead::seal(
                    &key,
                    chosen_password.as_bytes(),
                    aad.as_bytes(),
                    &mut self.rng,
                );
                let mut record = record.clone();
                record.accounts.push(StoredAccount {
                    entry: AccountEntry::new(
                        pending.account.username.clone(),
                        pending.account.domain.clone(),
                        seed.clone(),
                    ),
                    policy: PasswordPolicy::default(),
                    kind: AccountKind::Vaulted { ciphertext },
                });
                self.store_user(record)?;
                Ok(TokenOutcome::VaultStored { pending })
            }
        }
    }

    /// The bilateral vault key `k = SHA-512(T ‖ Oid ‖ σ)` — structurally
    /// identical to the intermediate value of password generation, so every
    /// §IV breach argument carries over to vault entries.
    fn vault_key(token: &Token, record: &UserRecord, seed: &Seed) -> [u8; 64] {
        derive_intermediate(token, &record.oid, seed)
    }

    // -- recovery --------------------------------------------------------------

    /// Phone-compromise recovery (§III-C1).
    ///
    /// Verifies the master password and the uploaded `Pid` against the
    /// stored salted hash, regenerates every account's password using the
    /// uploaded (old) entry table so the user can log in and change them,
    /// then purges the old phone's `H(Pid)` and registration ID. Returns the
    /// recovered credentials and the purged registration ID (so the
    /// deployment can also unregister the device at the rendezvous).
    ///
    /// # Errors
    ///
    /// Returns credential errors, [`ServerError::PidMismatch`] when the
    /// backup's `Pid` does not hash to the stored verifier, or
    /// [`ServerError::NoPhonePaired`].
    pub fn recover_phone(
        &mut self,
        user_id: &str,
        master_password: &str,
        backup: &KpBackup,
    ) -> Result<(Vec<RecoveredCredential>, Option<RegistrationId>), ServerError> {
        self.verify_master_password(user_id, master_password)?;
        let mut record = row(&self.records, user_id)?.clone();
        let pid_verifier = record
            .pid_verifier
            .as_ref()
            .ok_or(ServerError::NoPhonePaired)?;
        if !pid_verifier.verify_expecting(backup.pid.as_bytes(), &self.config.kdf_policy)? {
            return Err(ServerError::PidMismatch);
        }
        let table = EntryTable::from_entries(backup.entries.clone())?;

        let mut credentials = Vec::with_capacity(record.accounts.len());
        for account in &record.accounts {
            let old_password = match &account.kind {
                AccountKind::Generated => {
                    derive_password(&account.entry, &record.oid, &table, &account.policy)?
                }
                AccountKind::Vaulted { ciphertext } => {
                    // Vault entries recover too: rebuild the bilateral key
                    // from the uploaded (old) table and open the ciphertext.
                    let request = PasswordRequest::derive(
                        account.entry.username(),
                        account.entry.domain(),
                        account.entry.seed(),
                    );
                    let token = table.token(&request)?;
                    let key = Self::vault_key(&token, &record, account.entry.seed());
                    let aad = account.account_ref().to_string();
                    let plaintext = aead::open(&key, ciphertext, aad.as_bytes())
                        .map_err(|_| ServerError::VaultCorrupt)?;
                    GeneratedPassword::from_plaintext(
                        String::from_utf8(plaintext).map_err(|_| ServerError::VaultCorrupt)?,
                    )
                }
            };
            credentials.push(RecoveredCredential {
                username: account.entry.username().clone(),
                domain: account.entry.domain().clone(),
                old_password,
            });
        }

        let old_registration = record.registration_id.take();
        record.pid_verifier = None;
        self.pending.purge_user(user_id);
        self.note_pending_depth();
        self.store_user(record)?;
        Ok((credentials, old_registration))
    }

    /// Master-password-compromise recovery (§III-C2): the user logs in with
    /// the (compromised) master password, proves possession of the phone by
    /// sending `Pid`, and sets a new master password. All sessions are
    /// revoked.
    ///
    /// # Errors
    ///
    /// Returns credential errors, [`ServerError::NoPhonePaired`], or
    /// [`ServerError::PidMismatch`].
    pub fn change_master_password(
        &mut self,
        user_id: &str,
        old_master_password: &str,
        pid: &PhoneId,
        new_master_password: &str,
    ) -> Result<(), ServerError> {
        self.verify_master_password(user_id, old_master_password)?;
        let mut record = row(&self.records, user_id)?.clone();
        let pid_verifier = record
            .pid_verifier
            .as_ref()
            .ok_or(ServerError::NoPhonePaired)?;
        if !pid_verifier.verify_expecting(pid.as_bytes(), &self.config.kdf_policy)? {
            return Err(ServerError::PidMismatch);
        }
        // Re-deriving here is the upgrade path: a legacy CPU record becomes
        // a record at the deployment's current rung on password change.
        record.mp_verifier = self.derive_verifier(new_master_password.as_bytes())?;
        self.store_user(record)?;
        self.sessions.revoke_all_for(user_id);
        Ok(())
    }

    // -- introspection -----------------------------------------------------

    /// A copy of one user's record — drives the Table I rendering.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownUser`] for missing users.
    pub fn user_record(&self, user_id: &str) -> Result<UserRecord, ServerError> {
        row(&self.records, user_id).cloned()
    }

    /// Everything at rest on the server — **the §IV-C server-breach attack
    /// surface**. The attack harness calls this to model an attacker with
    /// full access to data at rest (and nothing else), so it decodes the
    /// `users` table rather than copying the server's decoded rows.
    pub fn export_data_at_rest_for_attack_model(&self) -> Vec<UserRecord> {
        self.users
            .scan()
            .map(|rows| rows.into_iter().map(|(_, r)| r).collect())
            .unwrap_or_default()
    }

    // -- wire adapter --------------------------------------------------------

    /// Dispatches one decoded protocol message, translating results into
    /// replies/pushes for the deployment to transmit. Every reply is wrapped
    /// in a [`Reply`] envelope echoing the request id, so hosts with many
    /// sessions in flight can route each answer to its session.
    pub fn handle_message(&mut self, message: ToServer, now: SimInstant) -> ServerReaction {
        fn envelope(request_id: u64, message: FromServer) -> Reply {
            Reply {
                request_id,
                message,
            }
        }
        let mut reaction = ServerReaction::default();
        match message {
            ToServer::Register {
                user_id,
                master_password,
                request_id,
                reply_to,
            } => {
                let reply = match self.register_user(&user_id, &master_password) {
                    Ok(()) => FromServer::Registered,
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::Login {
                user_id,
                master_password,
                request_id,
                reply_to,
            } => {
                let reply = match self.login(&user_id, &master_password) {
                    Ok(session) => FromServer::LoginOk { session },
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::Logout {
                session,
                request_id,
                reply_to,
            } => {
                self.logout(&session);
                reaction.reply = Some((reply_to, envelope(request_id, FromServer::LoggedOut)));
            }
            ToServer::BeginPhonePairing {
                session,
                request_id,
                reply_to,
            } => {
                let reply = match self.begin_phone_pairing(&session) {
                    Ok(captcha) => FromServer::PairingChallenge { captcha },
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::CompletePhonePairing {
                user_id,
                captcha,
                pid,
                registration_id,
                request_id,
                reply_to,
            } => {
                let reply =
                    match self.complete_phone_pairing(&user_id, &captcha, &pid, registration_id) {
                        Ok(()) => FromServer::PhonePaired,
                        Err(e) => FromServer::Error {
                            message: e.to_string(),
                        },
                    };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::AddAccount {
                session,
                username,
                domain,
                policy,
                request_id,
                reply_to,
            } => {
                let reply = match self.add_account(&session, username, domain, policy) {
                    Ok(()) => FromServer::AccountAdded,
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::ListAccounts {
                session,
                request_id,
                reply_to,
            } => {
                let reply = match self.list_accounts(&session) {
                    Ok(accounts) => FromServer::Accounts { accounts },
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::RotateSeed {
                session,
                username,
                domain,
                request_id,
                reply_to,
            } => {
                let reply = match self.rotate_seed(&session, &username, &domain) {
                    Ok(()) => FromServer::SeedRotated,
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::RequestPassword {
                session,
                username,
                domain,
                request_id,
                reply_to,
            } => {
                match self
                    .request_password(&session, &username, &domain, request_id, &reply_to, now)
                {
                    Ok(push) => {
                        reaction.push = Some(push);
                        reaction.reply =
                            Some((reply_to, envelope(request_id, FromServer::RequestPushed)));
                    }
                    Err(e) => {
                        reaction.reply = Some((
                            reply_to,
                            envelope(
                                request_id,
                                FromServer::Error {
                                    message: e.to_string(),
                                },
                            ),
                        ))
                    }
                }
            }
            ToServer::Token(response) => match self.receive_token(&response) {
                Ok(TokenOutcome::PasswordReady { pending, password }) => {
                    reaction.reply = Some((
                        pending.reply_to,
                        envelope(
                            pending.request_id,
                            FromServer::PasswordReady {
                                account: pending.account,
                                password,
                                requested_at: pending.issued_at,
                            },
                        ),
                    ));
                }
                Ok(TokenOutcome::VaultStored { pending }) => {
                    reaction.reply = Some((
                        pending.reply_to,
                        envelope(
                            pending.request_id,
                            FromServer::ChosenPasswordStored {
                                account: pending.account,
                            },
                        ),
                    ));
                }
                Err(_) => {
                    // An unmatched token is dropped silently on the wire; the
                    // rejection is visible in stats.
                }
            },
            ToServer::StoreChosenPassword {
                session,
                username,
                domain,
                chosen_password,
                request_id,
                reply_to,
            } => match self.store_chosen_password(
                &session,
                AccountRef { username, domain },
                chosen_password,
                request_id,
                &reply_to,
                now,
            ) {
                Ok(push) => {
                    reaction.push = Some(push);
                    reaction.reply =
                        Some((reply_to, envelope(request_id, FromServer::RequestPushed)));
                }
                Err(e) => {
                    reaction.reply = Some((
                        reply_to,
                        envelope(
                            request_id,
                            FromServer::Error {
                                message: e.to_string(),
                            },
                        ),
                    ))
                }
            },
            ToServer::SessionGrant {
                user_id,
                grant,
                max_uses,
                request_id,
                reply_to,
            } => {
                let reply = match self.set_session_grant(&user_id, grant, max_uses) {
                    Ok(remaining_uses) => FromServer::SessionGranted { remaining_uses },
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::RecoverPhone {
                user_id,
                master_password,
                backup,
                request_id,
                reply_to,
            } => {
                let reply = match self.recover_phone(&user_id, &master_password, &backup) {
                    Ok((credentials, _old_reg)) => FromServer::PhoneRecovered { credentials },
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
            ToServer::ChangeMasterPassword {
                user_id,
                old_master_password,
                pid,
                new_master_password,
                request_id,
                reply_to,
            } => {
                let reply = match self.change_master_password(
                    &user_id,
                    &old_master_password,
                    &pid,
                    &new_master_password,
                ) {
                    Ok(()) => FromServer::MasterPasswordChanged,
                    Err(e) => FromServer::Error {
                        message: e.to_string(),
                    },
                };
                reaction.reply = Some((reply_to, envelope(request_id, reply)));
            }
        }
        reaction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::EntryValue;

    fn server() -> AmnesiaServer {
        AmnesiaServer::new(ServerConfig {
            endpoint: "server".into(),
            seed: 99,
            kdf_policy: KdfPolicy::PAPER,
        })
    }

    fn pair_phone(s: &mut AmnesiaServer, user: &str, mp: &str) -> (PhoneId, RegistrationId) {
        let session = s.login(user, mp).unwrap();
        let captcha = s.begin_phone_pairing(&session).unwrap();
        let mut rng = SecretRng::seeded(1234);
        let pid = PhoneId::random(&mut rng);
        let reg = amnesia_rendezvous::RendezvousServer::new("gcm", 5).register_device("phone");
        s.complete_phone_pairing(user, &captcha, &pid, reg.clone())
            .unwrap();
        (pid, reg)
    }

    #[test]
    fn register_login_logout() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        assert!(matches!(
            s.register_user("alice", "other"),
            Err(ServerError::UserExists { .. })
        ));
        let session = s.login("alice", "mp").unwrap();
        assert_eq!(s.list_accounts(&session).unwrap(), vec![]);
        assert!(s.logout(&session));
        assert_eq!(s.list_accounts(&session), Err(ServerError::InvalidSession));
    }

    #[test]
    fn wrong_password_rejected_and_lockout_engages() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        for _ in 0..9 {
            assert!(matches!(
                s.login("alice", "wrong"),
                Err(ServerError::BadCredentials) | Err(ServerError::AccountLocked { .. })
            ));
        }
        // 10th failure locks.
        assert!(matches!(
            s.login("alice", "wrong"),
            Err(ServerError::AccountLocked { .. })
        ));
        // Even the correct password is now refused.
        assert!(matches!(
            s.login("alice", "mp"),
            Err(ServerError::AccountLocked { .. })
        ));
    }

    #[test]
    fn pairing_flow() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let session = s.login("alice", "mp").unwrap();
        let captcha = s.begin_phone_pairing(&session).unwrap();
        assert_eq!(captcha.len(), 6);

        let mut rng = SecretRng::seeded(7);
        let pid = PhoneId::random(&mut rng);
        let reg = amnesia_rendezvous::RendezvousServer::new("gcm", 5).register_device("phone");

        // Wrong captcha rejected.
        assert_eq!(
            s.complete_phone_pairing("alice", "000000x", &pid, reg.clone()),
            Err(ServerError::BadCaptcha)
        );
        s.complete_phone_pairing("alice", &captcha, &pid, reg)
            .unwrap();
        let record = s.user_record("alice").unwrap();
        assert!(record.phone_paired());
        // Pid stored hashed, not plaintext.
        assert!(record.pid_verifier.as_ref().unwrap().verify(pid.as_bytes()));

        // Re-pairing while paired is refused.
        let session = s.login("alice", "mp").unwrap();
        assert_eq!(
            s.begin_phone_pairing(&session),
            Err(ServerError::PhoneAlreadyPaired)
        );
    }

    #[test]
    fn account_management() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let session = s.login("alice", "mp").unwrap();
        let u = Username::new("Alice").unwrap();
        let d = Domain::new("mail.google.com").unwrap();
        s.add_account(&session, u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        assert_eq!(
            s.add_account(&session, u.clone(), d.clone(), PasswordPolicy::default()),
            Err(ServerError::AccountExists)
        );
        assert_eq!(s.list_accounts(&session).unwrap().len(), 1);

        let before = s
            .user_record("alice")
            .unwrap()
            .find_account(&u, &d)
            .unwrap()
            .entry
            .seed()
            .clone();
        s.rotate_seed(&session, &u, &d).unwrap();
        let after = s
            .user_record("alice")
            .unwrap()
            .find_account(&u, &d)
            .unwrap()
            .entry
            .seed()
            .clone();
        assert_ne!(before, after);
    }

    #[test]
    fn full_generation_handshake() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        pair_phone(&mut s, "alice", "mp");
        let session = s.login("alice", "mp").unwrap();
        let u = Username::new("Alice").unwrap();
        let d = Domain::new("site.com").unwrap();
        s.add_account(&session, u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();

        let push = s
            .request_password(&session, &u, &d, 9001, "browser-1", SimInstant::EPOCH)
            .unwrap();
        let phone_push = push.message;
        assert_eq!(phone_push.request_id, 9001);

        // Simulate the phone: compute the token over its entry table.
        let mut rng = SecretRng::seeded(55);
        let table = EntryTable::random(&mut rng, 100);
        let token = table.token(&phone_push.request).unwrap();
        let outcome = s
            .receive_token(&TokenResponse {
                request_id: phone_push.request_id,
                request: phone_push.request.clone(),
                token: token.clone(),
                tstart: phone_push.tstart,
            })
            .unwrap();
        let TokenOutcome::PasswordReady { pending, password } = outcome else {
            panic!("expected PasswordReady");
        };
        assert_eq!(pending.reply_to, "browser-1");
        assert_eq!(pending.request_id, 9001);
        assert_eq!(password.len(), 32);

        // The password equals the logical one-shot derivation.
        let record = s.user_record("alice").unwrap();
        let account = record.find_account(&u, &d).unwrap();
        let expected =
            derive_password(&account.entry, &record.oid, &table, &account.policy).unwrap();
        assert_eq!(password, expected);

        // A replayed token no longer matches a pending request.
        assert!(matches!(
            s.receive_token(&TokenResponse {
                request_id: phone_push.request_id,
                request: phone_push.request,
                token,
                tstart: phone_push.tstart,
            }),
            Err(ServerError::UnknownRequest)
        ));
        assert_eq!(s.stats().passwords_generated, 1);
        assert_eq!(s.stats().tokens_rejected, 1);
    }

    #[test]
    fn rotation_between_steps_2_and_5_rejects_the_late_token() {
        let mut s = server();
        let registry = Registry::new();
        s.set_telemetry(registry.clone());
        s.register_user("alice", "mp").unwrap();
        pair_phone(&mut s, "alice", "mp");
        let session = s.login("alice", "mp").unwrap();
        let u = Username::new("a").unwrap();
        let d = Domain::new("d.com").unwrap();
        let other = Domain::new("e.com").unwrap();
        for domain in [&d, &other] {
            s.add_account(
                &session,
                u.clone(),
                domain.clone(),
                PasswordPolicy::default(),
            )
            .unwrap();
        }
        let table = EntryTable::random(&mut SecretRng::seeded(56), 100);
        let answer = |push: &Push| TokenResponse {
            request_id: push.message.request_id,
            token: table.token(&push.message.request).unwrap(),
            request: push.message.request.clone(),
            tstart: push.message.tstart,
        };

        let stale = s
            .request_password(&session, &u, &d, 1, "browser", SimInstant::EPOCH)
            .unwrap();
        let untouched = s
            .request_password(&session, &u, &other, 2, "browser", SimInstant::EPOCH)
            .unwrap();
        s.rotate_seed(&session, &u, &d).unwrap();
        // Only the rotated account's request is dropped.
        assert_eq!(s.pending_count(), 1);
        assert_eq!(registry.gauge("server.pending_requests").get(), 1);
        assert!(matches!(
            s.receive_token(&answer(&stale)),
            Err(ServerError::UnknownRequest)
        ));
        assert_eq!(s.stats().tokens_rejected, 1);
        assert_eq!(registry.counter("server.tokens_rejected").get(), 1);
        assert!(s.receive_token(&answer(&untouched)).is_ok());

        // A request issued after the rotation renders under the new seed.
        let fresh = s
            .request_password(&session, &u, &d, 3, "browser", SimInstant::EPOCH)
            .unwrap();
        let Ok(TokenOutcome::PasswordReady { password, .. }) = s.receive_token(&answer(&fresh))
        else {
            panic!("expected PasswordReady");
        };
        let record = s.user_record("alice").unwrap();
        let account = record.find_account(&u, &d).unwrap();
        let expected =
            derive_password(&account.entry, &record.oid, &table, &account.policy).unwrap();
        assert_eq!(password, expected);
    }

    #[test]
    fn request_password_requires_paired_phone() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let session = s.login("alice", "mp").unwrap();
        let u = Username::new("a").unwrap();
        let d = Domain::new("d.com").unwrap();
        s.add_account(&session, u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();
        assert_eq!(
            s.request_password(&session, &u, &d, 1, "b", SimInstant::EPOCH),
            Err(ServerError::NoPhonePaired)
        );
    }

    #[test]
    fn phone_recovery_regenerates_and_purges() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let (pid, _reg) = pair_phone(&mut s, "alice", "mp");
        let session = s.login("alice", "mp").unwrap();
        let u = Username::new("a").unwrap();
        let d = Domain::new("d.com").unwrap();
        s.add_account(&session, u.clone(), d.clone(), PasswordPolicy::default())
            .unwrap();

        let mut rng = SecretRng::seeded(77);
        let entries: Vec<EntryValue> = (0..50).map(|_| EntryValue::random(&mut rng)).collect();
        let backup = KpBackup {
            pid: pid.clone(),
            entries: entries.clone(),
        };
        let (credentials, old_reg) = s.recover_phone("alice", "mp", &backup).unwrap();
        assert!(old_reg.is_some());
        assert_eq!(credentials.len(), 1);

        // The recovered password equals the old-table derivation.
        let record = s.user_record("alice").unwrap();
        let account = record.find_account(&u, &d).unwrap();
        let table = EntryTable::from_entries(entries).unwrap();
        let expected =
            derive_password(&account.entry, &record.oid, &table, &account.policy).unwrap();
        assert_eq!(credentials[0].old_password, expected);

        // Old phone data purged.
        assert!(!record.phone_paired());
        assert!(record.pid_verifier.is_none());
        assert!(record.registration_id.is_none());
    }

    #[test]
    fn phone_recovery_rejects_wrong_pid() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        pair_phone(&mut s, "alice", "mp");
        let mut rng = SecretRng::seeded(88);
        let backup = KpBackup {
            pid: PhoneId::random(&mut rng), // not the paired phone
            entries: vec![EntryValue::random(&mut rng)],
        };
        assert_eq!(
            s.recover_phone("alice", "mp", &backup),
            Err(ServerError::PidMismatch)
        );
    }

    #[test]
    fn master_password_change_requires_phone_proof() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let (pid, _) = pair_phone(&mut s, "alice", "mp");
        let mut rng = SecretRng::seeded(89);
        let wrong_pid = PhoneId::random(&mut rng);

        assert_eq!(
            s.change_master_password("alice", "mp", &wrong_pid, "new-mp"),
            Err(ServerError::PidMismatch)
        );
        s.change_master_password("alice", "mp", &pid, "new-mp")
            .unwrap();
        assert!(matches!(
            s.login("alice", "mp"),
            Err(ServerError::BadCredentials)
        ));
        assert!(s.login("alice", "new-mp").is_ok());
    }

    #[test]
    fn master_password_change_revokes_sessions() {
        let mut s = server();
        s.register_user("alice", "mp").unwrap();
        let (pid, _) = pair_phone(&mut s, "alice", "mp");
        let session = s.login("alice", "mp").unwrap();
        s.change_master_password("alice", "mp", &pid, "new")
            .unwrap();
        assert_eq!(s.list_accounts(&session), Err(ServerError::InvalidSession));
    }

    #[test]
    fn handle_message_wire_adapter() {
        let mut s = server();
        let r = s.handle_message(
            ToServer::Register {
                user_id: "bob".into(),
                master_password: "pw".into(),
                request_id: 11,
                reply_to: "browser".into(),
            },
            SimInstant::EPOCH,
        );
        assert_eq!(
            r.reply,
            Some((
                "browser".into(),
                Reply {
                    request_id: 11,
                    message: FromServer::Registered
                }
            ))
        );

        let r = s.handle_message(
            ToServer::Login {
                user_id: "bob".into(),
                master_password: "bad".into(),
                request_id: 12,
                reply_to: "browser".into(),
            },
            SimInstant::EPOCH,
        );
        let (_, reply) = r.reply.unwrap();
        assert_eq!(reply.request_id, 12);
        assert!(matches!(reply.message, FromServer::Error { .. }));
    }

    #[test]
    fn breach_export_contains_no_plaintext_secrets() {
        let mut s = server();
        s.register_user("alice", "my-master-password").unwrap();
        let (pid, _) = pair_phone(&mut s, "alice", "my-master-password");
        let dump = s.export_data_at_rest_for_attack_model();
        assert_eq!(dump.len(), 1);
        let record = &dump[0];
        // The dump holds verifiers, not the master password or Pid.
        assert!(record.mp_verifier.hash_bytes() != b"my-master-password");
        assert!(
            record.pid_verifier.as_ref().unwrap().hash_bytes().to_vec() != pid.as_bytes().to_vec()
        );
    }

    use amnesia_crypto::SecretRng;
}

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

/// The policy of every `Pid` verifier, at every rung: the paper's salted
/// hash `H(Pid + salt)` (Table I). The ladder's per-guess cost prices an
/// offline search of a low-entropy master password; a `Pid` is 512 random
/// bits drawn from [`SecretRng`], so a search of its space costs 2^511
/// guesses on average however cheap each guess is, and stretching it would
/// spend a memory-hard derivation on every pairing for nothing.
const PID_VERIFIER_POLICY: KdfPolicy = KdfPolicy::PAPER;

/// A logged-in session handle (alias of the auth-layer token).
pub type SessionToken = Session;

/// The key of an account row: the user id and the account's position in
/// the user's creation order.
type AccountKey = (String, u32);

/// Server deployment parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Network endpoint name of this server.
    pub endpoint: String,
    /// Seed for all server-side randomness (`Oid`, `σ`, salts, sessions).
    pub seed: u64,
    /// KDF hardness policy for the master-password verifier.
    /// [`KdfPolicy::PAPER`] (one PBKDF2 iteration) reproduces the paper's
    /// plain salted hash; the memory-hard ladder rungs
    /// (`KdfPolicy::INTERACTIVE`/`BALANCED`/`PARANOID`) price offline
    /// guessing in attacker silicon area × time. The `Pid` verifier is the
    /// paper's salted hash at every rung: a 512-bit random `Pid` needs no
    /// per-guess cost. Verification re-derives under each verifier's stored
    /// policy (DESIGN.md §14).
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
    /// The durable copy of Table I is two tables, write-ahead-logged when
    /// `db` is durable. This one holds each user's own fields, with
    /// `accounts` empty.
    users: TypedTable<String, UserRecord>,
    /// One row per account, keyed by user id and position in creation
    /// order. The breach model reads both tables; no other flow does.
    accounts: TypedTable<AccountKey, StoredAccount>,
    /// Every acknowledged user, decoded, with its accounts in creation
    /// order: filled by one scan of each table when the server opens a
    /// database. A user's position here is its index, which sessions,
    /// pending requests and the per-user tables below carry instead of its
    /// id: registration appends, and opening assigns the indices in the
    /// `users` table's row order. A write changes one row, then, once the
    /// table write has returned `Ok`, changes the decoded user in place.
    records: Vec<UserRecord>,
    /// User id → index into `records`, consulted only by the flows that
    /// name their user by id (registration, login, pairing, grants,
    /// recovery, master-password change). Hashed: nothing iterates it.
    user_index: HashMap<String, usize>,
    sessions: SessionManager,
    pending: PendingRequests,
    captchas: HashMap<usize, String>,
    session_grants: HashMap<usize, (SessionGrantToken, u32)>,
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

/// `UnknownUser` for an index no user holds. The server keeps every user
/// it gives an index, so its own sessions and pending requests never name
/// one.
fn unknown_index(user: usize) -> ServerError {
    ServerError::UnknownUser {
        user_id: format!("#{user}"),
    }
}

/// The decoded row of the user at index `user`. A free function rather
/// than a method, so a flow can hold the row while it updates the
/// server's other fields.
fn row(records: &[UserRecord], user: usize) -> Result<&UserRecord, ServerError> {
    records.get(user).ok_or_else(|| unknown_index(user))
}

/// Mutable variant of [`row`].
fn row_mut(records: &mut [UserRecord], user: usize) -> Result<&mut UserRecord, ServerError> {
    records.get_mut(user).ok_or_else(|| unknown_index(user))
}

/// The row key of `user_id`'s account at `index` in creation order.
fn account_key(user_id: &str, index: usize) -> Result<AccountKey, ServerError> {
    let position = u32::try_from(index).map_err(|_| ServerError::TooManyAccounts)?;
    Ok((user_id.to_string(), position))
}

/// Splits `users` rows into the decoded records, each user's index being
/// its row's position, and the user id → index map.
fn index_rows(rows: Vec<(String, UserRecord)>) -> (Vec<UserRecord>, HashMap<String, usize>) {
    let mut index = HashMap::with_capacity(rows.len());
    let mut records = Vec::with_capacity(rows.len());
    for (user_id, record) in rows {
        index.insert(user_id, records.len());
        records.push(record);
    }
    (records, index)
}

/// Appends each account row to its user's record, in position order.
///
/// # Errors
///
/// Returns [`ServerError::OrphanAccount`] for a row whose user has no
/// record and [`ServerError::AccountPositionGap`] when a user's positions
/// do not run 0, 1, 2, … after the accounts the record already holds.
fn attach_accounts(
    records: &mut [UserRecord],
    index: &HashMap<String, usize>,
    mut rows: Vec<(AccountKey, StoredAccount)>,
) -> Result<(), ServerError> {
    // The table orders rows by encoded key, and a position encodes
    // little-endian, so past 255 accounts scan order is not creation order.
    rows.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    for ((user_id, position), account) in rows {
        let Some(record) = index.get(&user_id).and_then(|&i| records.get_mut(i)) else {
            return Err(ServerError::OrphanAccount { user_id, position });
        };
        let expected =
            u32::try_from(record.accounts.len()).map_err(|_| ServerError::TooManyAccounts)?;
        if position != expected {
            return Err(ServerError::AccountPositionGap {
                user_id,
                expected,
                found: position,
            });
        }
        record.accounts.push(account);
    }
    Ok(())
}

/// Pops one use of the session grant of the user at index `user`, if any.
fn consume_session_grant(
    grants: &mut HashMap<usize, (SessionGrantToken, u32)>,
    user: usize,
) -> Option<SessionGrantToken> {
    match grants.get_mut(&user) {
        Some((grant, remaining)) if *remaining > 0 => {
            *remaining -= 1;
            let token = grant.clone();
            if *remaining == 0 {
                grants.remove(&user);
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
    /// snapshot), decoding every row of its `users` and `accounts` tables
    /// once.
    ///
    /// A user row written by an earlier build holds the user's accounts.
    /// Opening moves them into account rows in two group commits: every
    /// such user's account rows first, then each of those user rows
    /// rewritten empty. A store cut partway still holds every account in
    /// its user row, and the next open writes the same rows again; a
    /// migrated store opens without a write.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Store`] if a stored row fails to decode or a
    /// migration write fails, [`ServerError::OrphanAccount`] for an account
    /// row whose user has no row, and [`ServerError::AccountPositionGap`]
    /// when a user's account positions skip or repeat one.
    pub fn with_database(config: ServerConfig, db: Database) -> Result<Self, ServerError> {
        let mut server = Self::unloaded(config, db);
        let mut rows = server.users.scan()?;
        let mut moved = Vec::new();
        for (user_id, record) in &rows {
            for (index, account) in record.accounts.iter().enumerate() {
                moved.push((account_key(user_id, index)?, account));
            }
        }
        server
            .accounts
            .put_all(moved.iter().map(|(key, account)| (key, *account)))?;
        let whole: Vec<bool> = rows
            .iter()
            .map(|(_, record)| !record.accounts.is_empty())
            .collect();
        for (_, record) in &mut rows {
            record.accounts.clear();
        }
        server.users.put_all(
            rows.iter()
                .zip(&whole)
                .filter(|(_, &whole)| whole)
                .map(|((user_id, record), _)| (user_id, record)),
        )?;
        let (mut records, user_index) = index_rows(rows);
        attach_accounts(&mut records, &user_index, server.accounts.scan()?)?;
        server.records = records;
        server.user_index = user_index;
        Ok(server)
    }

    /// A server over `db` that has not decoded any of its rows yet.
    fn unloaded(config: ServerConfig, db: Database) -> Self {
        let users = db.table("users");
        let accounts = db.table("accounts");
        let telemetry = Registry::new();
        AmnesiaServer {
            rng: SecretRng::seeded(config.seed),
            config,
            db,
            users,
            accounts,
            records: Vec::new(),
            user_index: HashMap::new(),
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
    /// compaction policy). Write users and accounts only through the
    /// server: it keeps its own decoded copy of the `users` and `accounts`
    /// tables.
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
        if self.user_index.contains_key(user_id) {
            return Err(ServerError::UserExists {
                user_id: user_id.into(),
            });
        }
        let mp_verifier =
            self.derive_verifier(master_password.as_bytes(), self.config.kdf_policy)?;
        let record = UserRecord {
            user_id: user_id.into(),
            oid: OnlineId::random(&mut self.rng),
            mp_verifier,
            pid_verifier: None,
            registration_id: None,
            accounts: Vec::new(),
        };
        self.users.insert(&record.user_id, &record)?;
        self.user_index
            .insert(record.user_id.clone(), self.records.len());
        self.records.push(record);
        Ok(())
    }

    /// The index of the user named `user_id`.
    fn user_index(&self, user_id: &str) -> Result<usize, ServerError> {
        self.user_index
            .get(user_id)
            .copied()
            .ok_or_else(|| ServerError::UnknownUser {
                user_id: user_id.into(),
            })
    }

    /// Derives a verifier for `secret` under `policy`, timing the
    /// derivation into the per-class latency histogram
    /// (`crypto.kdf.{cpu,memhard}.derive_us`). The master password takes
    /// the deployment's rung; a `Pid` takes [`PID_VERIFIER_POLICY`].
    fn derive_verifier(
        &mut self,
        secret: &[u8],
        policy: KdfPolicy,
    ) -> Result<Verifier, ServerError> {
        let _kdf = self
            .telemetry
            .span(Self::kdf_span_name(&policy), WallClock::new());
        Ok(Verifier::derive(secret, &policy, &mut self.rng)?)
    }

    /// Histogram name for one KDF execution under `policy`.
    fn kdf_span_name(policy: &KdfPolicy) -> &'static str {
        match policy.class_name() {
            "memhard" => "crypto.kdf.memhard.derive_us",
            _ => "crypto.kdf.cpu.derive_us",
        }
    }

    /// Writes `fields`, a record with no accounts, to the row of the user
    /// at index `user`, then, once the write is acknowledged, replaces the
    /// decoded user's own fields, keeping its accounts.
    fn store_user_fields(&mut self, user: usize, fields: UserRecord) -> Result<(), ServerError> {
        self.users.put(&fields.user_id, &fields)?;
        let record = row_mut(&mut self.records, user)?;
        let accounts = std::mem::take(&mut record.accounts);
        *record = UserRecord { accounts, ..fields };
        Ok(())
    }

    /// Inserts `account` as the row at `key`, then, once the write is
    /// acknowledged, appends it to the accounts of the decoded user at
    /// index `user`.
    fn insert_account(
        &mut self,
        user: usize,
        key: AccountKey,
        account: StoredAccount,
    ) -> Result<(), ServerError> {
        self.accounts.insert(&key, &account)?;
        row_mut(&mut self.records, user)?.accounts.push(account);
        Ok(())
    }

    /// The session user's decoded row.
    fn session_user(&self, session: &SessionToken) -> Result<&UserRecord, ServerError> {
        row(&self.records, self.sessions.resolve(session)?)
    }

    /// Checks `user_id`'s master password; returns the user's index.
    fn verify_master_password(
        &mut self,
        user_id: &str,
        master_password: &str,
    ) -> Result<usize, ServerError> {
        let user = self.user_index(user_id)?;
        if self.sessions.is_locked(user) {
            return Err(ServerError::AccountLocked {
                failures: crate::auth::LOCKOUT_THRESHOLD,
            });
        }
        let record = row(&self.records, user)?;
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
            self.sessions.clear_failures(user);
            Ok(user)
        } else {
            self.stats.failed_logins += 1;
            self.metrics.failed_logins.get().inc();
            Err(self.sessions.record_failure(user))
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
        let user = self.verify_master_password(user_id, master_password)?;
        Ok(self.sessions.issue(user, &mut self.rng))
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
        let user = self.sessions.resolve(session)?;
        if row(&self.records, user)?.phone_paired() {
            return Err(ServerError::PhoneAlreadyPaired);
        }
        let code = format!("{:06}", self.rng.next_u64() % 1_000_000);
        self.captchas.insert(user, code.clone());
        Ok(code)
    }

    /// Completes pairing with the phone-supplied CAPTCHA, `Pid` and
    /// registration ID. Stores the registration ID in plaintext and the
    /// `Pid` hashed and salted (Table I): the paper's salted hash at every
    /// rung, since a 512-bit random `Pid` needs no per-guess cost, timed
    /// into `crypto.kdf.cpu.derive_us`.
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
        let user = self.user_index(user_id)?;
        let mut fields = row(&self.records, user)?.without_accounts();
        if fields.phone_paired() {
            return Err(ServerError::PhoneAlreadyPaired);
        }
        match self.captchas.get(&user) {
            Some(expected) if expected == captcha => {}
            _ => return Err(ServerError::BadCaptcha),
        }
        self.captchas.remove(&user);
        fields.pid_verifier = Some(self.derive_verifier(pid.as_bytes(), PID_VERIFIER_POLICY)?);
        fields.registration_id = Some(registration_id);
        self.store_user_fields(user, fields)
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
        let user = self.sessions.resolve(session)?;
        let record = row(&self.records, user)?;
        if record.find_account(&username, &domain).is_some() {
            return Err(ServerError::AccountExists);
        }
        let key = account_key(&record.user_id, record.accounts.len())?;
        let seed = Seed::random(&mut self.rng);
        let account = StoredAccount {
            entry: AccountEntry::new(username, domain, seed),
            policy,
            kind: AccountKind::Generated,
        };
        self.insert_account(user, key, account)
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
        let user = self.sessions.resolve(session)?;
        let record = row(&self.records, user)?;
        let seed = Seed::random(&mut self.rng);
        let (index, account) = record
            .find_account_at(username, domain)
            .ok_or(ServerError::UnknownAccount)?;
        if !matches!(account.kind, AccountKind::Generated) {
            // The seed keys the vault ciphertext; rotating it would orphan
            // the stored password.
            return Err(ServerError::VaultedSeedRotation);
        }
        let rotated = StoredAccount {
            entry: account.entry.with_seed(seed),
            policy: account.policy.clone(),
            kind: AccountKind::Generated,
        };
        let key = account_key(&record.user_id, index)?;
        self.accounts.put(&key, &rotated)?;
        if let Some(slot) = row_mut(&mut self.records, user)?.accounts.get_mut(index) {
            *slot = rotated;
        }
        self.pending.purge_account(user, index);
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
        let user = self.sessions.resolve(session)?;
        let record = row(&self.records, user)?;
        let registration_id = record
            .registration_id
            .clone()
            .ok_or(ServerError::NoPhonePaired)?;
        let (position, account) = record
            .find_account_at(username, domain)
            .ok_or(ServerError::UnknownAccount)?;

        let request = PasswordRequest::derive(username, domain, account.entry.seed());
        self.pending.insert(
            request.clone(),
            PendingRequest {
                user,
                account: account.account_ref(),
                request_id,
                reply_to: reply_to.to_string(),
                issued_at: now,
                purpose: RequestPurpose::Generate { position },
            },
        );
        let push = PhonePush {
            request_id,
            request,
            origin: reply_to.to_string(),
            tstart: now,
            session_grant: consume_session_grant(&mut self.session_grants, user),
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
        let user = self.sessions.resolve(session)?;
        let record = row(&self.records, user)?;
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
                user,
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
            session_grant: consume_session_grant(&mut self.session_grants, user),
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
        let user = self.user_index(user_id)?;
        self.session_grants.insert(user, (grant, max_uses));
        Ok(max_uses)
    }

    /// Remaining uses on the user's session grant (0 when absent).
    pub fn session_grant_remaining(&self, user_id: &str) -> u32 {
        self.user_index
            .get(user_id)
            .and_then(|user| self.session_grants.get(user))
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
        let record = row(&self.records, pending.user)?;
        match &pending.purpose {
            RequestPurpose::Generate { position } => {
                // A rotation drops the account's pending requests, so the
                // position still holds the account the request names.
                let account = record
                    .accounts
                    .get(*position)
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
                let row_key = account_key(&record.user_id, record.accounts.len())?;
                let account = StoredAccount {
                    entry: AccountEntry::new(
                        pending.account.username.clone(),
                        pending.account.domain.clone(),
                        seed.clone(),
                    ),
                    policy: PasswordPolicy::default(),
                    kind: AccountKind::Vaulted { ciphertext },
                };
                self.insert_account(pending.user, row_key, account)?;
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
        let user = self.verify_master_password(user_id, master_password)?;
        let record = row(&self.records, user)?;
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
                    let key = Self::vault_key(&token, record, account.entry.seed());
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

        let mut fields = record.without_accounts();
        let old_registration = fields.registration_id.take();
        fields.pid_verifier = None;
        self.pending.purge_user(user);
        self.note_pending_depth();
        self.store_user_fields(user, fields)?;
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
        let user = self.verify_master_password(user_id, old_master_password)?;
        let mut fields = row(&self.records, user)?.without_accounts();
        let pid_verifier = fields
            .pid_verifier
            .as_ref()
            .ok_or(ServerError::NoPhonePaired)?;
        if !pid_verifier.verify_expecting(pid.as_bytes(), &self.config.kdf_policy)? {
            return Err(ServerError::PidMismatch);
        }
        // Re-deriving here is the upgrade path: a legacy CPU record becomes
        // a record at the deployment's current rung on password change.
        fields.mp_verifier =
            self.derive_verifier(new_master_password.as_bytes(), self.config.kdf_policy)?;
        self.store_user_fields(user, fields)?;
        self.sessions.revoke_all_for(user);
        Ok(())
    }

    // -- introspection -----------------------------------------------------

    /// A copy of one user's record — drives the Table I rendering.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownUser`] for missing users.
    pub fn user_record(&self, user_id: &str) -> Result<UserRecord, ServerError> {
        row(&self.records, self.user_index(user_id)?).cloned()
    }

    /// Everything at rest on the server — **the §IV-C server-breach attack
    /// surface**. The attack harness calls this to model an attacker with
    /// full access to data at rest (and nothing else), so it decodes the
    /// `users` and `accounts` tables and joins them rather than copying the
    /// server's decoded rows. Users come in the `users` table's order, each
    /// with its accounts in creation order.
    pub fn export_data_at_rest_for_attack_model(&self) -> Vec<UserRecord> {
        self.rows_at_rest().unwrap_or_default()
    }

    /// The join behind
    /// [`export_data_at_rest_for_attack_model`](Self::export_data_at_rest_for_attack_model).
    fn rows_at_rest(&self) -> Result<Vec<UserRecord>, ServerError> {
        let (mut records, index) = index_rows(self.users.scan()?);
        attach_accounts(&mut records, &index, self.accounts.scan()?)?;
        Ok(records)
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

    /// A user as the index test below drives it: its phone, its sessions
    /// (each with whether it was revoked) and its accounts.
    struct Driven {
        name: String,
        master_password: String,
        registered: bool,
        pid: Option<PhoneId>,
        entries: Vec<EntryValue>,
        sessions: Vec<(SessionToken, bool)>,
        accounts: Vec<(Username, Domain)>,
    }

    impl Driven {
        fn live_session(&self) -> Option<&SessionToken> {
            self.sessions
                .iter()
                .rev()
                .find(|(_, revoked)| !revoked)
                .map(|(token, _)| token)
        }
    }

    /// Every index holds the name it replaces: each user id maps to the
    /// row with that id, each live session to its issuer's index, and each
    /// pending generation's position to the account its `AccountRef`
    /// names.
    fn assert_indices_hold(s: &AmnesiaServer, users: &[Driven]) {
        assert_eq!(s.records.len(), s.user_index.len());
        for (i, record) in s.records.iter().enumerate() {
            assert_eq!(s.user_index.get(&record.user_id), Some(&i));
        }
        let mut live = 0;
        for user in users {
            for (token, revoked) in &user.sessions {
                match s.sessions.resolve(token) {
                    Ok(index) => {
                        assert!(!revoked, "{} kept a revoked session", user.name);
                        assert_eq!(Some(&index), s.user_index.get(&user.name));
                        live += 1;
                    }
                    Err(e) => assert!(*revoked, "{}: {e}", user.name),
                }
            }
        }
        assert_eq!(s.sessions.live_count(), live);
        for pending in s.pending.iter() {
            let record = &s.records[pending.user];
            if let RequestPurpose::Generate { position } = pending.purpose {
                assert_eq!(record.accounts[position].account_ref(), pending.account);
            }
        }
    }

    /// Pairs `user`'s fresh phone.
    fn pair(s: &mut AmnesiaServer, user: &mut Driven, rng: &mut SecretRng) {
        let session = s.login(&user.name, &user.master_password).unwrap();
        user.sessions.push((session.clone(), false));
        let captcha = s.begin_phone_pairing(&session).unwrap();
        let pid = PhoneId::random(rng);
        user.entries = (0..64).map(|_| EntryValue::random(rng)).collect();
        let reg = amnesia_rendezvous::RendezvousServer::new("gcm", rng.next_u64())
            .register_device(&user.name);
        s.complete_phone_pairing(&user.name, &captcha, &pid, reg)
            .unwrap();
        user.pid = Some(pid);
    }

    /// Drives register, add account, login, request, rotate, token,
    /// recover, master-password change and vault store for several users
    /// in a seeded random order, starting with a rotation between steps 2
    /// and 5 (a late token must not render under the new seed), and
    /// checks every index after each step and every password a token
    /// renders.
    #[test]
    fn every_index_holds_the_name_it_replaces() {
        let mut s = server();
        let mut rng = SecretRng::seeded(0x1d5);
        let mut users: Vec<Driven> = ["alice", "bob", "carol", "dave"]
            .iter()
            .map(|name| Driven {
                name: name.to_string(),
                master_password: format!("mp-{name}"),
                registered: false,
                pid: None,
                entries: Vec::new(),
                sessions: Vec::new(),
                accounts: Vec::new(),
            })
            .collect();
        // Pushes awaiting a token: (user, push).
        let mut outstanding: Vec<(usize, Push)> = Vec::new();
        let (mut rendered, mut rejected) = (0, 0);
        let mut next_account = 0;

        // First, a rotation between steps 2 and 5.
        for user in &mut users {
            s.register_user(&user.name, &user.master_password).unwrap();
            user.registered = true;
            pair(&mut s, user, &mut rng);
        }
        let session = users[0].live_session().cloned().unwrap();
        let (username, domain) = (Username::new("a0").unwrap(), Domain::new("d0.com").unwrap());
        s.add_account(
            &session,
            username.clone(),
            domain.clone(),
            PasswordPolicy::default(),
        )
        .unwrap();
        users[0].accounts.push((username.clone(), domain.clone()));
        let push = s
            .request_password(
                &session,
                &username,
                &domain,
                1,
                "browser",
                SimInstant::EPOCH,
            )
            .unwrap();
        s.rotate_seed(&session, &username, &domain).unwrap();
        assert_indices_hold(&s, &users);
        outstanding.push((0, push));

        for step in 0..600u64 {
            let u = (rng.next_u64() % users.len() as u64) as usize;
            let session = users[u].live_session().cloned();
            match rng.next_u64() % 12 {
                0 => {
                    let exists = s.register_user(&users[u].name, "other");
                    assert!(matches!(exists, Err(ServerError::UserExists { .. })));
                }
                1 => {
                    if let Some(session) = session {
                        next_account += 1;
                        let username = Username::new(format!("a{next_account}")).unwrap();
                        let domain = Domain::new(format!("d{next_account}.com")).unwrap();
                        s.add_account(
                            &session,
                            username.clone(),
                            domain.clone(),
                            PasswordPolicy::default(),
                        )
                        .unwrap();
                        users[u].accounts.push((username, domain));
                    }
                }
                2 => {
                    let session = s.login(&users[u].name, &users[u].master_password).unwrap();
                    users[u].sessions.push((session, false));
                }
                3 | 4 | 9 if !users[u].accounts.is_empty() && session.is_some() => {
                    let (username, domain) = users[u].accounts
                        [(rng.next_u64() % users[u].accounts.len() as u64) as usize]
                        .clone();
                    let session = session.unwrap();
                    let id = step + 2;
                    if rng.next_u64().is_multiple_of(3) {
                        // Rotation, unless the account is vaulted.
                        let _ = s.rotate_seed(&session, &username, &domain);
                    } else if let Ok(push) = s.request_password(
                        &session,
                        &username,
                        &domain,
                        id,
                        "browser",
                        SimInstant::EPOCH,
                    ) {
                        outstanding.push((u, push));
                    }
                }
                5 | 10 | 11 if !outstanding.is_empty() => {
                    let (owner, push) = outstanding
                        .swap_remove((rng.next_u64() % outstanding.len() as u64) as usize);
                    let table = EntryTable::from_entries(users[owner].entries.clone()).unwrap();
                    let response = TokenResponse {
                        request_id: push.message.request_id,
                        token: table.token(&push.message.request).unwrap(),
                        request: push.message.request.clone(),
                        tstart: push.message.tstart,
                    };
                    match s.receive_token(&response) {
                        Ok(TokenOutcome::PasswordReady { pending, password }) => {
                            let record = s.user_record(&users[owner].name).unwrap();
                            let account = record
                                .find_account(&pending.account.username, &pending.account.domain)
                                .unwrap();
                            if matches!(account.kind, AccountKind::Generated) {
                                let expected = derive_password(
                                    &account.entry,
                                    &record.oid,
                                    &table,
                                    &account.policy,
                                )
                                .unwrap();
                                assert_eq!(password, expected, "step {step}");
                            }
                            rendered += 1;
                        }
                        Ok(TokenOutcome::VaultStored { pending }) => {
                            users[owner]
                                .accounts
                                .push((pending.account.username, pending.account.domain));
                        }
                        Err(_) => rejected += 1,
                    }
                }
                6 if users[u].pid.is_some() => {
                    let backup = KpBackup {
                        pid: users[u].pid.clone().unwrap(),
                        entries: users[u].entries.clone(),
                    };
                    // A vault entry sealed under an earlier phone's table
                    // does not open under this one's, and the recovery
                    // fails before it changes anything.
                    match s.recover_phone(&users[u].name, &users[u].master_password, &backup) {
                        Ok(_) => {
                            // The old phone's pushes are purged; a new
                            // phone pairs.
                            outstanding.retain(|(owner, _)| *owner != u);
                            pair(&mut s, &mut users[u], &mut rng);
                        }
                        Err(e) => assert_eq!(e, ServerError::VaultCorrupt),
                    }
                }
                7 if users[u].pid.is_some() => {
                    let new = format!("mp-{}-{step}", users[u].name);
                    let pid = users[u].pid.clone().unwrap();
                    s.change_master_password(&users[u].name, &users[u].master_password, &pid, &new)
                        .unwrap();
                    users[u].master_password = new;
                    for (_, revoked) in &mut users[u].sessions {
                        *revoked = true;
                    }
                }
                8 => {
                    if let Some(session) = session {
                        next_account += 1;
                        let account = AccountRef {
                            username: Username::new(format!("v{next_account}")).unwrap(),
                            domain: Domain::new(format!("v{next_account}.com")).unwrap(),
                        };
                        let push = s
                            .store_chosen_password(
                                &session,
                                account,
                                "chosen".into(),
                                step + 2,
                                "browser",
                                SimInstant::EPOCH,
                            )
                            .unwrap();
                        outstanding.push((u, push));
                    }
                }
                _ => {}
            }
            assert_indices_hold(&s, &users);
        }
        assert!(users.iter().all(|u| u.registered));
        assert!(
            rendered > 20 && rejected > 0,
            "{rendered} rendered, {rejected} rejected"
        );
    }

    use amnesia_crypto::SecretRng;
}

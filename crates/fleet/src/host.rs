//! The sharded deployment host.
//!
//! A [`Fleet`] instantiates N Amnesia server shards and M rendezvous
//! instances over **one** shared [`SimNet`] on [`SessionHost`], the session
//! host `AmnesiaSystem` runs on — sessions never learn they are sharded.
//! The fleet configures everything shard-aware:
//!
//! * **routing** — every user is pinned to a shard by the consistent-hash
//!   [`FleetRouter`]; all of the user's protocol frames (browser and phone
//!   alike) travel to that shard's endpoint;
//! * **cross-instance rendezvous forwarding** — a shard always pushes to
//!   its *local* rendezvous instance; when the target phone registered on
//!   a different instance, the local instance forwards the envelope over
//!   an inter-instance link (one extra hop, counted per origin shard);
//! * **finite shard capacity** — each shard owns a small pool of compute
//!   workers; per-request compute (deriving `R`, assembling passwords)
//!   occupies the earliest-free worker, so a saturated shard *queues* and
//!   sustained throughput scales with the shard count — the quantity
//!   `bench_fleet` measures;
//! * **admission control** — [`run_ops`](Fleet::run_ops) opens at most
//!   `max_inflight` sessions at once, holds a bounded backlog behind
//!   them, and sheds (counts, and rejects with a typed error) everything
//!   beyond `max_inflight + admission_queue`. Duplicate in-flight
//!   generations for the same `(user, account)` are coalesced onto the
//!   existing session, the way browsers dedup identical pending requests.

use crate::ring::FleetRouter;
use amnesia_cloud::CloudProvider;
use amnesia_core::{Domain, GeneratedPassword, PasswordPolicy, Username};
use amnesia_crypto::{sha256, KdfPolicy, SecretRng};
use amnesia_net::{EndpointId, SimDuration, SimInstant, SimNet};
use amnesia_phone::AmnesiaPhone;
use amnesia_rendezvous::RendezvousServer;
use amnesia_server::storage::AccountRef;
use amnesia_server::{AmnesiaServer, ServerConfig};
use amnesia_system::session::{FlowSpec, SessionId, SessionOutcome};
use amnesia_system::{Finished, NetProfile, SessionHost, SystemConfig, SystemError};
use amnesia_telemetry::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Fleet-level errors: admission decisions wrap the underlying
/// [`SystemError`] a session terminated with.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The op was offered beyond `max_inflight + admission_queue` and shed.
    AdmissionRejected,
    /// No shard is on the ring.
    NoShards,
    /// The user was never added to the fleet.
    UnknownUser(String),
    /// The user has no account at this index.
    UnknownAccount {
        /// Owning user.
        user: String,
        /// Requested account index.
        index: usize,
    },
    /// The op's session terminated with a deployment error.
    System(SystemError),
    /// The op was coalesced onto an identical in-flight generation which
    /// then failed; the rendered upstream reason is carried along.
    Coalesced(String),
    /// A durable shard store failed to open, recover, or log a mutation.
    Store(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::AdmissionRejected => f.write_str("admission rejected: fleet overloaded"),
            FleetError::NoShards => f.write_str("no shards on the ring"),
            FleetError::UnknownUser(u) => write!(f, "unknown fleet user {u:?}"),
            FleetError::UnknownAccount { user, index } => {
                write!(f, "user {user:?} has no account #{index}")
            }
            FleetError::System(e) => write!(f, "{e}"),
            FleetError::Coalesced(reason) => write!(f, "coalesced request failed: {reason}"),
            FleetError::Store(reason) => write!(f, "shard store error: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemError> for FleetError {
    fn from(e: SystemError) -> Self {
        FleetError::System(e)
    }
}

/// Deployment parameters for a [`Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Seed splitting into per-component deterministic streams.
    pub seed: u64,
    /// Number of server shards.
    pub shards: usize,
    /// Number of rendezvous (push) instances.
    pub rendezvous: usize,
    /// Network latency profile (shared by every link).
    pub profile: NetProfile,
    /// KDF hardness policy of the master-password verifier (shared by
    /// every shard). The `Pid` verifier is the paper's salted hash at every
    /// rung: a 512-bit random `Pid` needs no per-guess cost.
    pub kdf_policy: KdfPolicy,
    /// Entry-table size for provisioned phones.
    pub table_size: usize,
    /// Per-session timeout.
    pub session_timeout: SimDuration,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes_per_shard: usize,
    /// Compute workers per shard; per-request compute queues on the
    /// earliest-free worker, bounding sustained per-shard throughput.
    pub shard_workers: usize,
    /// Maximum sessions [`run_ops`](Fleet::run_ops) keeps open at once.
    pub max_inflight: usize,
    /// Backlog bound behind the in-flight window; offered ops beyond
    /// `max_inflight + admission_queue` are rejected.
    pub admission_queue: usize,
    /// Retry attempts for generation sessions (lossy push legs).
    pub generate_attempts: u32,
    /// Durability root: when set, each shard opens a write-ahead-logged
    /// database under `<dir>/shard-<i>` instead of an in-memory one, so
    /// user state survives crashes ([`Fleet::try_new`] surfaces recovery
    /// errors).
    pub durable_dir: Option<std::path::PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            shards: 1,
            rendezvous: 1,
            profile: NetProfile::lan(),
            kdf_policy: KdfPolicy::PAPER,
            table_size: 64,
            session_timeout: amnesia_system::session::DEFAULT_TIMEOUT,
            vnodes_per_shard: crate::ring::DEFAULT_VNODES_PER_SHARD,
            shard_workers: 4,
            max_inflight: 256,
            admission_queue: usize::MAX,
            generate_attempts: 1,
            durable_dir: None,
        }
    }
}

impl FleetConfig {
    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the rendezvous instance count.
    pub fn with_rendezvous(mut self, instances: usize) -> Self {
        self.rendezvous = instances.max(1);
        self
    }

    /// Overrides the network profile.
    pub fn with_profile(mut self, profile: NetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the phone entry-table size.
    pub fn with_table_size(mut self, table_size: usize) -> Self {
        self.table_size = table_size;
        self
    }

    /// Overrides the per-session timeout.
    pub fn with_session_timeout(mut self, timeout: SimDuration) -> Self {
        self.session_timeout = timeout;
        self
    }

    /// Overrides the per-shard compute worker count.
    pub fn with_shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers;
        self
    }

    /// Overrides the in-flight session cap.
    pub fn with_max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap.max(1);
        self
    }

    /// Overrides the admission backlog bound.
    ///
    /// A test fixture: no deployment sets it, so no op is ever shed.
    /// `tests/fleet_e2e.rs`'s `admission_rejects_beyond_window_plus_queue`
    /// needs a finite bound to see ops shed.
    pub fn with_admission_queue(mut self, backlog: usize) -> Self {
        self.admission_queue = backlog;
        self
    }

    /// Overrides the generation retry budget.
    ///
    /// A test fixture: no deployment sets it, so a generation is sent
    /// once. `tests/fleet_e2e.rs` needs retries to hold a one-shard fleet
    /// to the single host on a lossy profile
    /// (`single_host_is_a_one_shard_fleet`) and to see lost pushes retried
    /// in a shared window (`push_drops_retry_within_a_shared_window`).
    pub fn with_generate_attempts(mut self, attempts: u32) -> Self {
        self.generate_attempts = attempts.max(1);
        self
    }

    /// Roots every shard's database in a durable directory (WAL + group
    /// commit; see `amnesia_store::wal`).
    pub fn with_durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }
}

/// Deterministic phone seed for a fleet user; ground-truth comparisons
/// (single-host `AmnesiaSystem` with the same shard seed) must install
/// phones with the same seeds the fleet does.
pub fn phone_seed(fleet_seed: u64, user_id: &str) -> u64 {
    let digest = sha256(user_id.as_bytes());
    let h = digest
        .iter()
        .take(8)
        .fold(0u64, |acc, b| (acc << 8) | u64::from(*b));
    fleet_seed ^ h ^ 0x9e37_79b9_7f4a_7c15
}

/// One load-generator operation against the fleet.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum FleetOp {
    /// Re-login the user's browser.
    Login {
        /// Acting user.
        user: String,
    },
    /// Generate the password for one of the user's accounts.
    Generate {
        /// Acting user.
        user: String,
        /// Index into the user's account list.
        account: usize,
    },
    /// Rotate one account's seed (the paper's password change).
    Rotate {
        /// Acting user.
        user: String,
        /// Index into the user's account list.
        account: usize,
    },
    /// Phone-compromise recovery onto a fresh device.
    Recover {
        /// Acting user.
        user: String,
    },
}

impl FleetOp {
    fn user(&self) -> &str {
        match self {
            FleetOp::Login { user }
            | FleetOp::Generate { user, .. }
            | FleetOp::Rotate { user, .. }
            | FleetOp::Recover { user } => user,
        }
    }
}

/// Successful result of one [`FleetOp`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum OpOutcome {
    /// Login succeeded.
    LoggedIn,
    /// A password was generated and delivered.
    Password {
        /// The account it belongs to.
        account: AccountRef,
        /// The generated password.
        password: GeneratedPassword,
        /// The §VI-B measured window attributed to this session.
        latency: SimDuration,
    },
    /// The seed was rotated.
    SeedRotated,
    /// Recovery completed onto a fresh phone.
    Recovered {
        /// Number of credentials regenerated from the backup.
        credentials: usize,
    },
}

/// Per-user fleet state.
struct UserState {
    /// The user id ops name the user by.
    id: String,
    shard: usize,
    home_gcm: usize,
    browser: EndpointId,
    phone: EndpointId,
    master_password: String,
    accounts: Vec<(Username, Domain)>,
    phone_generation: u32,
}

/// A user's hold on `run_ops`' window: how many of its accounts have an
/// op in flight, and whether a recovery locks the user whole.
#[derive(Clone, Copy, Default)]
struct UserHold {
    accounts: usize,
    recovering: bool,
}

/// The sharded deployment. See the module docs.
pub struct Fleet {
    config: FleetConfig,
    host: SessionHost,
    router: FleetRouter,
    /// Every user, in setup order; a user's index is its position here.
    users: Vec<UserState>,
    /// User id → index into `users`: consulted once where an op's user
    /// enters, never per frame. Hashed: nothing iterates it.
    user_index: HashMap<String, usize>,
    admission_rejected: Counter,
    coalesced: Counter,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.host.shard_count())
            .field("rendezvous", &self.host.rendezvous_count())
            .field("users", &self.users.len())
            .field("now", &self.host.now())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Builds the sharded deployment: N shards, M rendezvous instances,
    /// inter-instance forwarding links, and the routing ring.
    ///
    /// # Panics
    ///
    /// Panics if a durable shard store fails to open; deployments that set
    /// [`FleetConfig::durable_dir`] should prefer [`Fleet::try_new`].
    pub fn new(config: FleetConfig) -> Self {
        match Self::try_new(config) {
            Ok(fleet) => fleet,
            // lint: allow(no-panic-macro) in-memory construction is infallible; durable callers use try_new
            Err(e) => panic!("fleet construction failed: {e}"),
        }
    }

    /// Fallible [`Fleet::new`]: surfaces durable-store open/recovery errors
    /// instead of panicking. With [`FleetConfig::durable_dir`] set, each
    /// shard recovers its user table from `<dir>/shard-<i>` (snapshot + WAL
    /// replay) and write-ahead-logs every mutation from then on.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Store`] if a shard database fails to open or
    /// recover.
    pub fn try_new(config: FleetConfig) -> Result<Self, FleetError> {
        let mut seed_rng = SecretRng::seeded(config.seed);
        let net = SimNet::new(seed_rng.next_u64());
        let telemetry = net.telemetry().clone();

        let shard_count = config.shards.max(1);
        let gcm_count = config.rendezvous.max(1);

        let mut router = FleetRouter::new(config.seed, config.vnodes_per_shard);
        router.set_telemetry(telemetry.clone());

        let mut servers = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let endpoint = format!("shard-{i}");
            let seed = seed_rng.next_u64();
            let server_config = ServerConfig {
                endpoint: endpoint.clone(),
                seed,
                kdf_policy: config.kdf_policy,
            };
            let server = match &config.durable_dir {
                Some(root) => AmnesiaServer::open_durable(server_config, root.join(&endpoint))
                    .map_err(|e| FleetError::Store(e.to_string()))?,
                None => AmnesiaServer::new(server_config),
            };
            router.add_shard(&endpoint);
            servers.push((server, seed));
        }
        let rendezvous = (0..gcm_count)
            .map(|j| RendezvousServer::new(format!("gcm-{j}"), seed_rng.next_u64()))
            .collect();

        // The host reads the profile, table size and timeout from here; the
        // fleet always seals its channels (the default).
        let host_config = SystemConfig::default()
            .with_profile(config.profile.clone())
            .with_table_size(config.table_size)
            .with_session_timeout(config.session_timeout);
        let mut host = SessionHost::new(
            host_config,
            "fleet",
            net,
            servers,
            rendezvous,
            seed_rng.fork(),
            CloudProvider::new("fleet-cloud"),
        );
        for i in 0..shard_count {
            host.provision_shard(i, config.shard_workers, "fleet");
        }

        Ok(Fleet {
            config,
            host,
            router,
            users: Vec::new(),
            user_index: HashMap::new(),
            admission_rejected: telemetry.counter("fleet.admission.rejected"),
            coalesced: telemetry.counter("fleet.admission.coalesced"),
        })
    }

    // -- topology -----------------------------------------------------------

    /// Default home rendezvous instance for a user (hash-spread over the
    /// instances, independent of the user's shard).
    pub fn default_home_gcm(&self, user_id: &str) -> usize {
        let digest = sha256(user_id.as_bytes());
        let h = digest
            .iter()
            .skip(8)
            .take(8)
            .fold(0u64, |acc, b| (acc << 8) | u64::from(*b));
        (h % self.host.rendezvous_count().max(1) as u64) as usize
    }

    /// Adds a user: routes them to a shard, wires browser/phone endpoints
    /// and secure channels, registers the phone's push path on its home
    /// rendezvous instance, and runs the full setup flow (register, login,
    /// pair, cloud backup). Returns the owning shard index.
    ///
    /// # Errors
    ///
    /// Propagates setup-flow rejections.
    pub fn add_user(&mut self, user_id: &str, master_password: &str) -> Result<usize, FleetError> {
        let home = self.default_home_gcm(user_id);
        self.add_user_with_home(user_id, master_password, home)
    }

    /// [`add_user`](Self::add_user) with an explicit home rendezvous
    /// instance (outage and forwarding tests pin the topology with this).
    ///
    /// # Errors
    ///
    /// Propagates setup-flow rejections.
    pub fn add_user_with_home(
        &mut self,
        user_id: &str,
        master_password: &str,
        home_gcm: usize,
    ) -> Result<usize, FleetError> {
        if self.user_index.contains_key(user_id) {
            return Err(FleetError::System(SystemError::ServerRejected {
                message: format!("user {user_id:?} already exists"),
            }));
        }
        let home_gcm = home_gcm % self.host.rendezvous_count().max(1);
        let shard_name = self.router.route(user_id).ok_or(FleetError::NoShards)?;
        let shard = self
            .host
            .shard_index(&shard_name)
            .ok_or(FleetError::NoShards)?;

        let browser = self.host.wire_browser(
            &format!("{user_id}.b"),
            self.config.profile.browser_server.clone(),
            shard,
            home_gcm,
        );
        let phone = self.host.wire_phone(
            &format!("{user_id}.p0"),
            phone_seed(self.config.seed, user_id),
            shard,
            home_gcm,
        );

        self.user_index
            .insert(user_id.to_string(), self.users.len());
        self.users.push(UserState {
            id: user_id.to_string(),
            shard,
            home_gcm,
            browser,
            phone,
            master_password: master_password.to_string(),
            accounts: Vec::new(),
            phone_generation: 0,
        });

        let sid = self.host.begin(
            browser,
            Some(phone),
            FlowSpec::Setup {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            1,
            None,
        )?;
        match self.host.run(sid).result? {
            SessionOutcome::SetupDone => Ok(shard),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "SetupDone",
            })),
        }
    }

    /// Adds a managed account for a fleet user (driven sequentially).
    ///
    /// # Errors
    ///
    /// Propagates server rejections.
    pub fn add_account(
        &mut self,
        user_id: &str,
        username: Username,
        domain: Domain,
        policy: PasswordPolicy,
    ) -> Result<usize, FleetError> {
        let user = self.user_index(user_id)?;
        let browser = self.users[user].browser;
        let sid = self.host.begin(
            browser,
            None,
            FlowSpec::AddAccount {
                username: username.clone(),
                domain: domain.clone(),
                policy,
            },
            1,
            None,
        )?;
        match self.host.run(sid).result? {
            SessionOutcome::AccountAdded => {
                let accounts = &mut self.users[user].accounts;
                accounts.push((username, domain));
                Ok(accounts.len() - 1)
            }
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "AccountAdded",
            })),
        }
    }

    /// The index of the user named `user_id`.
    fn user_index(&self, user_id: &str) -> Result<usize, FleetError> {
        self.user_index
            .get(user_id)
            .copied()
            .ok_or_else(|| FleetError::UnknownUser(user_id.into()))
    }

    /// The state of the user named `user_id`.
    fn user(&self, user_id: &str) -> Option<&UserState> {
        self.users.get(*self.user_index.get(user_id)?)
    }

    // -- single-op helpers (sequential; tests and small flows) ---------------

    /// Logs the user's browser in again.
    ///
    /// # Errors
    ///
    /// Propagates login rejections.
    pub fn login(&mut self, user_id: &str) -> Result<(), FleetError> {
        match self.run_one(FleetOp::Login {
            user: user_id.into(),
        })? {
            OpOutcome::LoggedIn => Ok(()),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "LoginOk",
            })),
        }
    }

    /// Runs one six-step generation for the user's account at `index`.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow.
    pub fn generate(
        &mut self,
        user_id: &str,
        index: usize,
    ) -> Result<(AccountRef, GeneratedPassword, SimDuration), FleetError> {
        match self.run_one(FleetOp::Generate {
            user: user_id.into(),
            account: index,
        })? {
            OpOutcome::Password {
                account,
                password,
                latency,
            } => Ok((account, password, latency)),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "PasswordReady",
            })),
        }
    }

    /// Rotates the seed of the user's account at `index`.
    ///
    /// # Errors
    ///
    /// Propagates server rejections.
    pub fn rotate(&mut self, user_id: &str, index: usize) -> Result<(), FleetError> {
        match self.run_one(FleetOp::Rotate {
            user: user_id.into(),
            account: index,
        })? {
            OpOutcome::SeedRotated => Ok(()),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "SeedRotated",
            })),
        }
    }

    /// Runs phone-compromise recovery onto a fresh device.
    ///
    /// # Errors
    ///
    /// Propagates rejections anywhere along the flow; if the replacement's
    /// endpoint name is already registered, fails before anything changes.
    pub fn recover(&mut self, user_id: &str) -> Result<usize, FleetError> {
        match self.run_one(FleetOp::Recover {
            user: user_id.into(),
        })? {
            OpOutcome::Recovered { credentials } => Ok(credentials),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "PhoneRecovered",
            })),
        }
    }

    fn run_one(&mut self, op: FleetOp) -> Result<OpOutcome, FleetError> {
        let user = self.user_index(op.user())?;
        let sid = self.begin_op(user, &op)?;
        let finished = self.host.run(sid);
        self.finish_op(user, &op, finished)
    }

    // -- admission-controlled batch driver -----------------------------------

    /// Drives one burst of operations through the fleet under admission
    /// control. Results come back in offer order. Ops offered beyond
    /// `max_inflight + admission_queue` are shed with
    /// [`FleetError::AdmissionRejected`] (counted in
    /// `fleet.admission.rejected`); duplicate in-flight generations for
    /// the same `(user, account)` are coalesced (counted in
    /// `fleet.admission.coalesced`) and share the primary's outcome.
    pub fn run_ops(&mut self, ops: &[FleetOp]) -> Vec<Result<OpOutcome, FleetError>> {
        let cap = self.config.max_inflight.max(1);
        let budget = cap.saturating_add(self.config.admission_queue);

        let mut results: Vec<Option<Result<OpOutcome, FleetError>>> =
            ops.iter().map(|_| None).collect();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for i in 0..ops.len() {
            if queue.len() < budget {
                queue.push_back(i);
            } else {
                self.admission_rejected.inc();
                if let Some(slot) = results.get_mut(i) {
                    *slot = Some(Err(FleetError::AdmissionRejected));
                }
            }
        }

        // Each op's user, resolved once; an unknown user's op fails with
        // `UnknownUser` where it is admitted.
        let op_users: Vec<Option<usize>> = ops
            .iter()
            .map(|op| self.user_index.get(op.user()).copied())
            .collect();
        // In-flight bookkeeping: which op each session serves, plus the
        // coalesced waiters riding on it.
        let mut open: HashMap<SessionId, (usize, Vec<usize>)> = HashMap::new();
        // (user index, account) → owning session; `true` = coalescible
        // (Generate).
        let mut busy_accounts: HashMap<(usize, usize), (SessionId, bool)> = HashMap::new();
        // Users with an op in flight (a recovery replaces the phone, so it
        // locks the user whole).
        let mut busy_users: HashMap<usize, UserHold> = HashMap::new();

        let mut settled = Vec::new();
        loop {
            // Admit from the backlog until the window is full; an op whose
            // target is busy parks at the back of the queue.
            let mut scanned = 0;
            let backlog = queue.len();
            while open.len() < cap && scanned < backlog {
                let Some(i) = queue.pop_front() else { break };
                scanned += 1;
                let Some(op) = ops.get(i) else { continue };
                let Some(&Some(user)) = op_users.get(i) else {
                    if let Some(slot) = results.get_mut(i) {
                        *slot = Some(Err(FleetError::UnknownUser(op.user().into())));
                    }
                    continue;
                };
                let hold = busy_users.get(&user).copied().unwrap_or_default();
                match op {
                    FleetOp::Generate { account, .. } => {
                        if hold.recovering {
                            queue.push_back(i);
                            continue;
                        }
                        if let Some((sid, coalescible)) = busy_accounts.get(&(user, *account)) {
                            if *coalescible {
                                if let Some((_, waiters)) = open.get_mut(sid) {
                                    waiters.push(i);
                                    self.coalesced.inc();
                                    continue;
                                }
                            }
                            queue.push_back(i);
                            continue;
                        }
                    }
                    FleetOp::Rotate { account, .. } => {
                        if hold.recovering || busy_accounts.contains_key(&(user, *account)) {
                            queue.push_back(i);
                            continue;
                        }
                    }
                    FleetOp::Recover { .. } => {
                        if hold.recovering || hold.accounts > 0 {
                            queue.push_back(i);
                            continue;
                        }
                    }
                    FleetOp::Login { .. } => {}
                }
                match self.begin_op(user, op) {
                    Ok(sid) => {
                        match op {
                            FleetOp::Generate { account, .. } | FleetOp::Rotate { account, .. } => {
                                let coalescible = matches!(op, FleetOp::Generate { .. });
                                busy_accounts.insert((user, *account), (sid, coalescible));
                                busy_users.entry(user).or_default().accounts += 1;
                            }
                            FleetOp::Recover { .. } => {
                                busy_users.entry(user).or_default().recovering = true;
                            }
                            FleetOp::Login { .. } => {}
                        }
                        open.insert(sid, (i, Vec::new()));
                    }
                    Err(e) => {
                        if let Some(slot) = results.get_mut(i) {
                            *slot = Some(Err(e));
                        }
                    }
                }
            }

            if open.is_empty() {
                // Nothing in flight. Either we are done, or the backlog is
                // wedged on targets that can never free up (impossible while
                // sessions exist; shed defensively rather than spin).
                for i in queue.drain(..) {
                    self.admission_rejected.inc();
                    if let Some(slot) = results.get_mut(i) {
                        *slot = Some(Err(FleetError::AdmissionRejected));
                    }
                }
                break;
            }

            // Run the event loop until at least one in-flight op settles,
            // then retire the settled ops in session (= admission) order.
            self.host.drive_until_settled(&mut settled);
            settled.sort_unstable();
            for &sid in &settled {
                let Some((index, waiters)) = open.remove(&sid) else {
                    continue;
                };
                let (Some(op), Some(&Some(user))) = (ops.get(index), op_users.get(index)) else {
                    continue;
                };
                let hold = busy_users.entry(user).or_default();
                match op {
                    FleetOp::Generate { account, .. } | FleetOp::Rotate { account, .. } => {
                        busy_accounts.remove(&(user, *account));
                        hold.accounts = hold.accounts.saturating_sub(1);
                    }
                    FleetOp::Recover { .. } => hold.recovering = false,
                    FleetOp::Login { .. } => {}
                }
                if hold.accounts == 0 && !hold.recovering {
                    busy_users.remove(&user);
                }
                let finished = self.host.finish_session(sid);
                let outcome = self.finish_op(user, op, finished);
                for w in waiters {
                    let shared = match &outcome {
                        Ok(o) => Ok(o.clone()),
                        Err(e) => Err(FleetError::Coalesced(e.to_string())),
                    };
                    if let Some(slot) = results.get_mut(w) {
                        *slot = Some(shared);
                    }
                }
                if let Some(slot) = results.get_mut(index) {
                    *slot = Some(outcome);
                }
            }
        }

        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(FleetError::AdmissionRejected)))
            .collect()
    }

    /// Opens the session of `op`, an op of the user at index `user`.
    fn begin_op(&mut self, user: usize, op: &FleetOp) -> Result<SessionId, FleetError> {
        let state = &self.users[user];
        let (browser, phone) = (state.browser, state.phone);
        let account = |index: usize| {
            state
                .accounts
                .get(index)
                .cloned()
                .ok_or_else(|| FleetError::UnknownAccount {
                    user: op.user().into(),
                    index,
                })
        };
        let (phone, spec, attempts, install) = match op {
            FleetOp::Login { user } => (
                None,
                FlowSpec::Login {
                    user_id: user.clone(),
                    master_password: state.master_password.clone(),
                },
                1,
                None,
            ),
            FleetOp::Generate { account: index, .. } => {
                let (username, domain) = account(*index)?;
                (
                    Some(phone),
                    FlowSpec::Generate { username, domain },
                    self.config.generate_attempts,
                    None,
                )
            }
            FleetOp::Rotate { account: index, .. } => {
                let (username, domain) = account(*index)?;
                (None, FlowSpec::RotateSeed { username, domain }, 1, None)
            }
            FleetOp::Recover { user } => {
                let generation = state.phone_generation + 1;
                let endpoint = format!("{user}.p{generation}");
                let seed = phone_seed(self.config.seed, user)
                    .wrapping_add(u64::from(generation).wrapping_mul(0x2545_f491_4f6c_dd1d));
                (
                    None,
                    FlowSpec::Recover {
                        user_id: user.clone(),
                        master_password: state.master_password.clone(),
                    },
                    1,
                    Some((endpoint, seed)),
                )
            }
        };
        Ok(self.host.begin(browser, phone, spec, attempts, install)?)
    }

    /// Turns the finished session of `op`, an op of the user at index
    /// `user`, into the op's outcome.
    fn finish_op(
        &mut self,
        user: usize,
        op: &FleetOp,
        finished: Finished,
    ) -> Result<OpOutcome, FleetError> {
        // A recovery's replacement phone is the user's phone from its
        // install on, whether or not the rest of the flow succeeded.
        if let (FleetOp::Recover { .. }, Some(phone)) = (op, finished.phone) {
            if let Some(state) = self.users.get_mut(user) {
                state.phone = phone;
                state.phone_generation += 1;
            }
        }
        match finished.result? {
            SessionOutcome::Password {
                account,
                password,
                requested_at,
            } => Ok(OpOutcome::Password {
                account,
                password,
                latency: finished
                    .window
                    .unwrap_or_else(|| self.host.now().duration_since(requested_at)),
            }),
            SessionOutcome::LoggedIn => Ok(OpOutcome::LoggedIn),
            SessionOutcome::SeedRotated => Ok(OpOutcome::SeedRotated),
            SessionOutcome::Recovered { credentials } => Ok(OpOutcome::Recovered {
                credentials: credentials.len(),
            }),
            other => Err(FleetError::System(SystemError::ServerRejected {
                message: format!("unexpected outcome {other:?}"),
            })),
        }
    }

    // -- outage injection ------------------------------------------------------

    /// Takes a rendezvous instance offline (frames addressed to it are
    /// lost) or brings it back. The instance's registry is durable across
    /// restarts.
    pub fn set_rendezvous_online(&mut self, instance: usize, online: bool) {
        self.host.set_rendezvous_online(instance, online);
    }

    // -- accessors -------------------------------------------------------------

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of server shards.
    pub fn shard_count(&self) -> usize {
        self.host.shard_count()
    }

    /// Number of rendezvous instances.
    pub fn rendezvous_count(&self) -> usize {
        self.host.rendezvous_count()
    }

    /// The seed shard `i`'s server was constructed with, for building a
    /// byte-identical single-host ground truth.
    pub fn shard_server_seed(&self, i: usize) -> Option<u64> {
        self.host.shard_seed(i)
    }

    /// The shard a user is routed to.
    pub fn user_shard(&self, user_id: &str) -> Option<usize> {
        self.user(user_id).map(|u| u.shard)
    }

    /// The user's home rendezvous instance.
    pub fn user_home_gcm(&self, user_id: &str) -> Option<usize> {
        self.user(user_id).map(|u| u.home_gcm)
    }

    /// The user's accounts, in creation order.
    pub fn user_accounts(&self, user_id: &str) -> Option<&[(Username, Domain)]> {
        self.user(user_id).map(|u| u.accounts.as_slice())
    }

    /// The local rendezvous instance shard `i` pushes through.
    pub fn shard_local_gcm(&self, i: usize) -> Option<usize> {
        self.host.shard_local_gcm(i)
    }

    /// User ids routed to shard `i`, in fleet setup order — the order a
    /// ground-truth single-host replay must repeat to consume the server
    /// seed stream identically.
    pub fn users_on_shard(&self, i: usize) -> Vec<String> {
        self.users
            .iter()
            .filter(|u| u.shard == i)
            .map(|u| u.id.clone())
            .collect()
    }

    /// Total users on the fleet.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The shared simulated network.
    pub fn net_mut(&mut self) -> &mut SimNet {
        self.host.net_mut()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.host.now()
    }

    /// Shard `i`'s Amnesia server.
    pub fn shard_server(&self, i: usize) -> Option<&AmnesiaServer> {
        (i < self.host.shard_count()).then(|| self.host.server(i))
    }

    /// A phone agent by endpoint name.
    pub fn phone(&self, name: &str) -> Option<&AmnesiaPhone> {
        self.host.phone(name)
    }

    /// Mutable phone access (confirmation policies).
    pub fn phone_mut(&mut self, name: &str) -> Option<&mut AmnesiaPhone> {
        self.host.phone_mut(name)
    }

    /// The user's current phone endpoint.
    pub fn user_phone(&self, user_id: &str) -> Option<&str> {
        self.user(user_id).map(|u| self.host.net().name(u.phone))
    }

    /// Dispatch faults recorded so far (rejected/undeliverable traffic).
    pub fn faults(&self) -> &[String] {
        self.host.faults()
    }

    /// The router (ring membership, key movement accounting).
    pub fn router_mut(&mut self) -> &mut FleetRouter {
        &mut self.router
    }

    /// The fleet-wide metrics registry (all shards, instances, phones and
    /// the network record here; `fleet.shard.<i>.*` labels are per shard).
    pub fn telemetry(&self) -> &Registry {
        self.host.telemetry()
    }
}

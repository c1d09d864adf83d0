//! The sharded deployment host.
//!
//! A [`Fleet`] instantiates N Amnesia server shards and M rendezvous
//! instances over **one** shared [`SimNet`], and drives the same sans-IO
//! [`Session`] engine `AmnesiaSystem` uses — sessions never learn they are
//! sharded. The host supplies everything shard-aware:
//!
//! * **routing** — every user is pinned to a shard by the consistent-hash
//!   [`FleetRouter`](crate::ring::FleetRouter); all of the user's protocol
//!   frames (browser and phone alike) travel to that shard's endpoint;
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
use amnesia_client::Browser;
use amnesia_cloud::CloudProvider;
use amnesia_core::{Domain, GeneratedPassword, PasswordPolicy, Username};
use amnesia_crypto::{sha256, KdfPolicy, SecretRng};
use amnesia_net::{
    ChannelMap, EndpointId, Frame, LinkProfile, NetError, SimDuration, SimInstant, SimNet,
};
use amnesia_phone::{AmnesiaPhone, PhoneConfig, PhoneError, PushOutcome};
use amnesia_rendezvous::{PushEnvelope, RegistrationId, RendezvousServer};
use amnesia_server::protocol::{FromServer, PhonePush, Reply, ToServer};
use amnesia_server::storage::AccountRef;
use amnesia_server::{AmnesiaServer, ServerConfig};
use amnesia_system::session::{
    Action, Event, FlowSpec, Origin, Session, SessionId, SessionOutcome,
};
use amnesia_system::{HostMetrics, NetProfile, SystemError};
use amnesia_telemetry::{Counter, Gauge, HistogramHandle, LazyHandle, Registry, Span};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
    /// KDF hardness policy on stored verifiers (shared by every shard).
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
    pub fn with_admission_queue(mut self, backlog: usize) -> Self {
        self.admission_queue = backlog;
        self
    }

    /// Overrides the generation retry budget.
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

/// Host bookkeeping around one engine session (mirrors the single-host
/// `AmnesiaSystem` entry, plus the owning shard).
struct SessionEntry {
    engine: Session,
    browser: EndpointId,
    phone: Option<EndpointId>,
    user_id: Option<String>,
    shard: usize,
    deadline: Option<SimInstant>,
    window: Option<SimDuration>,
    confirm_approved: bool,
    outcome: Option<Result<SessionOutcome, SystemError>>,
    install: Option<(String, u64)>,
    purge_registration: Option<RegistrationId>,
    span: Option<Span<amnesia_net::SimClock>>,
}

/// One server shard plus its cached per-shard telemetry handles.
struct Shard {
    endpoint: EndpointId,
    server: AmnesiaServer,
    seed: u64,
    local_gcm: usize,
    /// Busy-until instant of each compute worker slot.
    workers: Vec<SimInstant>,
    routed: Counter,
    forwards: Counter,
    pending_depth: Gauge,
    queue_wait: HistogramHandle,
}

/// One rendezvous instance with an outage flag (an offline instance
/// silently loses every frame addressed to it, like a crashed push
/// service; its durable registry survives restarts).
struct GcmInstance {
    endpoint: EndpointId,
    server: RendezvousServer,
    online: bool,
}

/// What an endpoint is to the fleet. `dispatch` routes every delivered
/// frame by the role of its receiver, one index into `Fleet::roles`.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// Server shard `i`.
    Shard(usize),
    /// Rendezvous instance `j`.
    Rendezvous(usize),
    /// A phone, and the shard its user is routed to.
    Phone { shard: usize },
    /// A user's browser.
    Browser,
}

/// Per-user fleet state.
struct UserState {
    shard: usize,
    home_gcm: usize,
    browser: EndpointId,
    phone: EndpointId,
    master_password: String,
    accounts: Vec<(Username, Domain)>,
    phone_generation: u32,
}

/// The sharded deployment. See the module docs.
pub struct Fleet {
    config: FleetConfig,
    net: SimNet,
    shards: Vec<Shard>,
    gcms: Vec<GcmInstance>,
    router: FleetRouter,
    cloud: CloudProvider,
    /// Registration id → owning rendezvous instance (the host performs
    /// every registration, so it can maintain the directory).
    registration_home: BTreeMap<String, usize>,
    /// Every endpoint's role, indexed by its id; an endpoint registered on
    /// the network behind the fleet's back has none.
    roles: Vec<Option<Role>>,
    users: BTreeMap<String, UserState>,
    setup_order: Vec<String>,
    phones: BTreeMap<EndpointId, AmnesiaPhone>,
    browsers: BTreeMap<EndpointId, Browser>,
    channels: ChannelMap,
    channel_rng: SecretRng,
    sessions: BTreeMap<SessionId, SessionEntry>,
    /// Armed deadlines of unsettled sessions, earliest first. `ArmTimer`
    /// replaces a session's entry; `complete` and `finish_session` remove
    /// it, so the event loop finds the next deadline without a scan.
    deadlines: BTreeSet<(SimInstant, SessionId)>,
    /// Sessions settled since `drive_until_settled` last handed this
    /// queue over (pushed by `complete`); never longer than the in-flight
    /// window.
    settled: Vec<SessionId>,
    next_session_id: SessionId,
    inflight: u64,
    seen_drops: u64,
    faults: Vec<String>,
    generation_latencies: Vec<SimDuration>,
    admission_rejected: Counter,
    coalesced: Counter,
    telemetry: Registry,
    metrics: HostMetrics,
    /// The fleet's own rendezvous metrics: the second hop of a
    /// cross-instance forward, forwards, and frames an offline or
    /// unregistered instance lost.
    forward_hop: LazyHandle<HistogramHandle>,
    rendezvous_forwarded: LazyHandle<Counter>,
    rendezvous_dropped: LazyHandle<Counter>,
    rendezvous_rejected: LazyHandle<Counter>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards.len())
            .field("rendezvous", &self.gcms.len())
            .field("users", &self.users.len())
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

fn shard_endpoint(i: usize) -> String {
    format!("shard-{i}")
}

fn gcm_endpoint(j: usize) -> String {
    format!("gcm-{j}")
}

/// Gives endpoint `id` its role, growing the table as endpoints register.
fn set_role(roles: &mut Vec<Option<Role>>, id: EndpointId, role: Role) {
    let index = id.index();
    if roles.len() <= index {
        roles.resize(index + 1, None);
    }
    if let Some(slot) = roles.get_mut(index) {
        *slot = Some(role);
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
        let telemetry = Registry::new();
        let mut seed_rng = SecretRng::seeded(config.seed);
        let mut net = SimNet::new(seed_rng.next_u64());
        net.set_telemetry(telemetry.clone());

        let shard_count = config.shards.max(1);
        let gcm_count = config.rendezvous.max(1);

        let mut router = FleetRouter::new(config.seed, config.vnodes_per_shard);
        router.set_telemetry(telemetry.clone());

        let epoch = net.now();
        let mut roles = Vec::new();
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let endpoint = shard_endpoint(i);
            let seed = seed_rng.next_u64();
            let server_config = ServerConfig {
                endpoint: endpoint.clone(),
                seed,
                kdf_policy: config.kdf_policy,
            };
            let mut server = match &config.durable_dir {
                Some(root) => AmnesiaServer::open_durable(server_config, root.join(&endpoint))
                    .map_err(|e| FleetError::Store(e.to_string()))?,
                None => AmnesiaServer::new(server_config),
            };
            server.set_telemetry(telemetry.clone());
            let id = net.register(&endpoint);
            set_role(&mut roles, id, Role::Shard(i));
            router.add_shard(&endpoint);
            shards.push(Shard {
                endpoint: id,
                server,
                seed,
                local_gcm: i % gcm_count,
                workers: vec![epoch; config.shard_workers],
                routed: telemetry.counter(&format!("fleet.shard.{i}.sessions_routed")),
                forwards: telemetry.counter(&format!("fleet.shard.{i}.forwards")),
                pending_depth: telemetry.gauge(&format!("fleet.shard.{i}.pending_depth")),
                queue_wait: telemetry.histogram(&format!("fleet.shard.{i}.queue_wait_us")),
            });
        }

        let mut gcms = Vec::with_capacity(gcm_count);
        for j in 0..gcm_count {
            let endpoint = gcm_endpoint(j);
            let id = net.register(&endpoint);
            set_role(&mut roles, id, Role::Rendezvous(j));
            let mut server = RendezvousServer::new(endpoint, seed_rng.next_u64());
            server.set_telemetry(telemetry.clone());
            gcms.push(GcmInstance {
                endpoint: id,
                server,
                online: true,
            });
        }

        // Shard → local rendezvous push links, and a full inter-instance
        // mesh for cross-instance forwarding.
        let server_gcm = LinkProfile::new(config.profile.server_gcm.clone());
        for (i, shard) in shards.iter().enumerate() {
            if let Some(gcm) = gcms.get(i % gcm_count) {
                net.connect_ids(shard.endpoint, gcm.endpoint, server_gcm.clone());
            }
        }
        for from in &gcms {
            for to in gcms.iter().filter(|to| to.endpoint != from.endpoint) {
                net.connect_ids(from.endpoint, to.endpoint, server_gcm.clone());
            }
        }

        let channel_rng = seed_rng.fork();

        Ok(Fleet {
            config,
            net,
            shards,
            gcms,
            router,
            cloud: CloudProvider::new("fleet-cloud"),
            registration_home: BTreeMap::new(),
            roles,
            users: BTreeMap::new(),
            setup_order: Vec::new(),
            phones: BTreeMap::new(),
            browsers: BTreeMap::new(),
            channels: ChannelMap::default(),
            channel_rng,
            sessions: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            settled: Vec::new(),
            next_session_id: 1,
            inflight: 0,
            seen_drops: 0,
            faults: Vec::new(),
            generation_latencies: Vec::new(),
            admission_rejected: telemetry.counter("fleet.admission.rejected"),
            coalesced: telemetry.counter("fleet.admission.coalesced"),
            metrics: HostMetrics::new(&telemetry, "fleet"),
            forward_hop: LazyHandle::new(&telemetry, "fleet.forward_hop_us"),
            rendezvous_forwarded: LazyHandle::new(&telemetry, "fleet.rendezvous.forwarded"),
            rendezvous_dropped: LazyHandle::new(&telemetry, "fleet.rendezvous.dropped"),
            rendezvous_rejected: LazyHandle::new(&telemetry, "fleet.rendezvous.rejected"),
            telemetry,
        })
    }

    // -- topology -----------------------------------------------------------

    /// The role of endpoint `id`, if the fleet gave it one.
    fn role(&self, id: EndpointId) -> Option<Role> {
        self.roles.get(id.index()).copied().flatten()
    }

    /// `UnknownComponent` for an endpoint that has no live component.
    fn unknown(&self, id: EndpointId) -> SystemError {
        SystemError::UnknownComponent {
            endpoint: self.net.name(id).into(),
        }
    }

    /// Default home rendezvous instance for a user (hash-spread over the
    /// instances, independent of the user's shard).
    pub fn default_home_gcm(&self, user_id: &str) -> usize {
        let digest = sha256(user_id.as_bytes());
        let h = digest
            .iter()
            .skip(8)
            .take(8)
            .fold(0u64, |acc, b| (acc << 8) | u64::from(*b));
        (h % self.gcms.len().max(1) as u64) as usize
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
        if self.users.contains_key(user_id) {
            return Err(FleetError::System(SystemError::ServerRejected {
                message: format!("user {user_id:?} already exists"),
            }));
        }
        let home_gcm = home_gcm % self.gcms.len().max(1);
        let shard_name = self.router.route(user_id).ok_or(FleetError::NoShards)?;
        let shard = match self.net.endpoint(&shard_name).and_then(|id| self.role(id)) {
            Some(Role::Shard(shard)) => shard,
            _ => return Err(FleetError::NoShards),
        };

        let browser = self.wire_browser(&format!("{user_id}.b"), shard);
        let phone = self.wire_phone(
            &format!("{user_id}.p0"),
            phone_seed(self.config.seed, user_id),
            shard,
            home_gcm,
        );

        self.users.insert(
            user_id.to_string(),
            UserState {
                shard,
                home_gcm,
                browser,
                phone,
                master_password: master_password.to_string(),
                accounts: Vec::new(),
                phone_generation: 0,
            },
        );
        self.setup_order.push(user_id.to_string());

        let sid = self.begin(
            browser,
            Some(phone),
            Some(user_id),
            shard,
            FlowSpec::Setup {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            1,
            None,
        )?;
        self.drive_until_settled();
        match self.finish_session(sid).0? {
            SessionOutcome::SetupDone => Ok(shard),
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "SetupDone",
            })),
        }
    }

    fn wire_browser(&mut self, name: &str, shard: usize) -> EndpointId {
        let id = self.net.register(name);
        if let Some(s) = self.shards.get(shard) {
            let profile = LinkProfile::new(self.config.profile.browser_server.clone());
            self.net.connect_ids(id, s.endpoint, profile.clone());
            self.net.connect_ids(s.endpoint, id, profile);
            self.channels
                .provision_pair(id, s.endpoint, &mut self.channel_rng);
        }
        self.browsers.insert(id, Browser::new(name));
        set_role(&mut self.roles, id, Role::Browser);
        id
    }

    fn wire_phone(&mut self, name: &str, seed: u64, shard: usize, home_gcm: usize) -> EndpointId {
        let id = self.net.register(name);
        if let (Some(s), Some(g)) = (self.shards.get(shard), self.gcms.get(home_gcm)) {
            self.net.connect_ids(
                g.endpoint,
                id,
                LinkProfile::new(self.config.profile.gcm_phone.clone())
                    .with_drop_probability(self.config.profile.push_drop_probability),
            );
            self.net.connect_ids(
                id,
                s.endpoint,
                LinkProfile::new(self.config.profile.phone_server.clone()),
            );
            self.channels
                .provision_pair(id, s.endpoint, &mut self.channel_rng);
        }
        let mut phone =
            AmnesiaPhone::new(PhoneConfig::new(name, seed).with_table_size(self.config.table_size));
        phone.set_telemetry(self.telemetry.clone());
        self.phones.insert(id, phone);
        set_role(&mut self.roles, id, Role::Phone { shard });
        id
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
        let state = self.user(user_id)?;
        let (browser, shard) = (state.browser, state.shard);
        let sid = self.begin(
            browser,
            None,
            Some(user_id),
            shard,
            FlowSpec::AddAccount {
                username: username.clone(),
                domain: domain.clone(),
                policy,
            },
            1,
            None,
        )?;
        self.drive_until_settled();
        match self.finish_session(sid).0? {
            SessionOutcome::AccountAdded => {
                let entry = self
                    .users
                    .get_mut(user_id)
                    .ok_or_else(|| FleetError::UnknownUser(user_id.into()))?;
                entry.accounts.push((username, domain));
                Ok(entry.accounts.len() - 1)
            }
            _ => Err(FleetError::System(SystemError::MissingReply {
                expected: "AccountAdded",
            })),
        }
    }

    fn user(&self, user_id: &str) -> Result<&UserState, FleetError> {
        self.users
            .get(user_id)
            .ok_or_else(|| FleetError::UnknownUser(user_id.into()))
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
    /// Propagates rejections anywhere along the flow.
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
        let sid = self.begin_op(&op)?;
        self.drive_until_settled();
        self.finish_op(sid)
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

        // In-flight bookkeeping: which op each session serves, plus the
        // coalesced waiters riding on it.
        let mut open: BTreeMap<SessionId, (usize, Vec<usize>)> = BTreeMap::new();
        // (user, account) → owning session; `true` = coalescible (Generate).
        let mut busy_accounts: BTreeMap<(String, usize), (SessionId, bool)> = BTreeMap::new();
        // Users locked whole (recovery replaces the phone).
        let mut busy_users: BTreeSet<String> = BTreeSet::new();

        loop {
            // Admit from the backlog until the window is full; an op whose
            // target is busy parks at the back of the queue.
            let mut scanned = 0;
            let backlog = queue.len();
            while open.len() < cap && scanned < backlog {
                let Some(i) = queue.pop_front() else { break };
                scanned += 1;
                let Some(op) = ops.get(i) else { continue };
                let user = op.user().to_string();
                match op {
                    FleetOp::Generate { account, .. } => {
                        if busy_users.contains(&user) {
                            queue.push_back(i);
                            continue;
                        }
                        if let Some((sid, coalescible)) =
                            busy_accounts.get(&(user.clone(), *account))
                        {
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
                        if busy_users.contains(&user)
                            || busy_accounts.contains_key(&(user.clone(), *account))
                        {
                            queue.push_back(i);
                            continue;
                        }
                    }
                    FleetOp::Recover { .. } => {
                        let user_busy = busy_users.contains(&user)
                            || busy_accounts
                                .range((user.clone(), 0)..=(user.clone(), usize::MAX))
                                .next()
                                .is_some();
                        if user_busy {
                            queue.push_back(i);
                            continue;
                        }
                    }
                    FleetOp::Login { .. } => {}
                }
                match self.begin_op(op) {
                    Ok(sid) => {
                        match op {
                            FleetOp::Generate { account, .. } => {
                                busy_accounts.insert((user, *account), (sid, true));
                            }
                            FleetOp::Rotate { account, .. } => {
                                busy_accounts.insert((user, *account), (sid, false));
                            }
                            FleetOp::Recover { .. } => {
                                busy_users.insert(user);
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
            let mut settled = self.drive_until_settled();
            settled.sort_unstable();
            for sid in settled {
                let Some((index, waiters)) = open.remove(&sid) else {
                    continue;
                };
                if let Some(op) = ops.get(index) {
                    let user = op.user().to_string();
                    match op {
                        FleetOp::Generate { account, .. } | FleetOp::Rotate { account, .. } => {
                            busy_accounts.remove(&(user, *account));
                        }
                        FleetOp::Recover { .. } => {
                            busy_users.remove(&user);
                        }
                        FleetOp::Login { .. } => {}
                    }
                }
                let outcome = self.finish_op(sid);
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

    fn begin_op(&mut self, op: &FleetOp) -> Result<SessionId, FleetError> {
        let state = self.user(op.user())?;
        let (browser, phone, shard) = (state.browser, state.phone, state.shard);
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
        Ok(self.begin(
            browser,
            phone,
            Some(op.user()),
            shard,
            spec,
            attempts,
            install,
        )?)
    }

    fn finish_op(&mut self, sid: SessionId) -> Result<OpOutcome, FleetError> {
        let (result, window) = self.finish_session(sid);
        match result? {
            SessionOutcome::Password {
                account,
                password,
                requested_at,
            } => Ok(OpOutcome::Password {
                account,
                password,
                latency: window.unwrap_or_else(|| self.net.now().duration_since(requested_at)),
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

    // -- session table (mirrors the single-host event loop) ------------------

    /// Opens a session for `spec` on `shard` (the shard of the user it
    /// acts for) and executes its first actions.
    #[allow(clippy::too_many_arguments)]
    fn begin(
        &mut self,
        browser: EndpointId,
        phone: Option<EndpointId>,
        user_id: Option<&str>,
        shard: usize,
        spec: FlowSpec,
        attempts: u32,
        install: Option<(String, u64)>,
    ) -> Result<SessionId, SystemError> {
        let Some(browser_agent) = self.browsers.get(&browser) else {
            return Err(self.unknown(browser));
        };
        let is_generate = matches!(spec, FlowSpec::Generate { .. });
        let id = self.next_session_id;
        self.next_session_id += 1;
        let mut engine = Session::new(id, self.net.name(browser), spec)
            .with_attempts(attempts.max(1))
            .with_timeout(self.config.session_timeout);
        if let Some(token) = browser_agent.session().cloned() {
            engine = engine.with_auth(token);
        }
        let span = is_generate.then(|| self.metrics.e2e.get().span(self.net.clock()));
        self.sessions.insert(
            id,
            SessionEntry {
                engine,
                browser,
                phone,
                user_id: user_id.map(str::to_string),
                shard,
                deadline: None,
                window: None,
                confirm_approved: false,
                outcome: None,
                install,
                purge_registration: None,
                span,
            },
        );
        if let Some(s) = self.shards.get(shard) {
            s.routed.inc();
        }
        self.inflight += 1;
        self.update_inflight_gauge();
        let actions = match self.sessions.get_mut(&id) {
            Some(entry) => entry.engine.start(),
            None => Vec::new(),
        };
        self.run_actions(id, actions);
        Ok(id)
    }

    fn feed(&mut self, sid: SessionId, event: Event) {
        let Some(entry) = self.sessions.get_mut(&sid) else {
            return;
        };
        if entry.outcome.is_some() {
            return;
        }
        let actions = entry.engine.on_event(event);
        self.run_actions(sid, actions);
    }

    fn run_actions(&mut self, sid: SessionId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { origin, message } => {
                    if let Err(e) = self.session_send(sid, origin, &message) {
                        self.complete(sid, Err(e));
                    }
                }
                Action::ArmTimer(duration) => {
                    let deadline = self.net.now() + duration;
                    // A session settled by an earlier action of this batch
                    // keeps no timer.
                    if let Some(entry) = self.sessions.get_mut(&sid) {
                        if entry.outcome.is_none() {
                            if let Some(old) = entry.deadline.replace(deadline) {
                                self.deadlines.remove(&(old, sid));
                            }
                            self.deadlines.insert((deadline, sid));
                        }
                    }
                }
                Action::ExpectUserConfirm => {
                    if let Some(entry) = self.sessions.get_mut(&sid) {
                        entry.confirm_approved = true;
                    }
                    if let Err(e) = self.try_confirm(sid) {
                        self.complete(sid, Err(e));
                    }
                }
                Action::RegisterPhone { .. } => match self.exec_register_phone(sid) {
                    Ok(event) => self.feed(sid, event),
                    Err(e) => self.complete(sid, Err(e)),
                },
                Action::FetchBackup => match self.exec_fetch_backup(sid) {
                    Ok(event) => self.feed(sid, event),
                    Err(e) => self.complete(sid, Err(e)),
                },
                Action::InstallPhone => match self.exec_install_phone(sid) {
                    Ok(event) => self.feed(sid, event),
                    Err(e) => self.complete(sid, Err(e)),
                },
                Action::MintGrant { max_uses } => match self.exec_mint_grant(sid, max_uses) {
                    Ok(event) => self.feed(sid, event),
                    Err(e) => self.complete(sid, Err(e)),
                },
                Action::BackupPhoneToCloud => {
                    if let Err(e) = self.exec_backup_to_cloud(sid) {
                        self.complete(sid, Err(e));
                    }
                }
                Action::NoteRetry => self.metrics.retries.get().inc(),
                Action::Deliver(outcome) => self.complete(sid, Ok(outcome)),
                Action::Fail(error) => self.complete(sid, Err(error)),
                _ => {
                    self.complete(
                        sid,
                        Err(SystemError::MissingReply {
                            expected: "known action",
                        }),
                    );
                }
            }
        }
    }

    fn session_send(
        &mut self,
        sid: SessionId,
        origin: Origin,
        message: &ToServer,
    ) -> Result<(), SystemError> {
        let entry = self.sessions.get(&sid).ok_or(SystemError::MissingReply {
            expected: "session",
        })?;
        let shard = self.shard_endpoint(entry.shard)?;
        let from = match origin {
            Origin::Browser => entry.browser,
            Origin::Phone => entry.phone.ok_or_else(|| SystemError::UnknownComponent {
                endpoint: "phone".into(),
            })?,
        };
        let bytes = message.to_wire()?;
        let sealed = self.channels.seal(from, shard, bytes)?;
        self.net.transmit(from, shard, sealed, SimDuration::ZERO)?;
        Ok(())
    }

    /// The endpoint of shard `i`.
    fn shard_endpoint(&self, i: usize) -> Result<EndpointId, SystemError> {
        self.shards
            .get(i)
            .map(|s| s.endpoint)
            .ok_or(SystemError::MissingReply { expected: "shard" })
    }

    fn complete(&mut self, sid: SessionId, result: Result<SessionOutcome, SystemError>) {
        let Some(entry) = self.sessions.get_mut(&sid) else {
            return;
        };
        if entry.outcome.is_some() {
            return;
        }
        if let Some(deadline) = entry.deadline.take() {
            self.deadlines.remove(&(deadline, sid));
        }
        if let Some(span) = entry.span.take() {
            match &result {
                Ok(_) => {
                    span.finish();
                }
                Err(_) => span.cancel(),
            }
        }
        if matches!(result, Ok(SessionOutcome::Password { .. })) {
            self.metrics.generations.get().inc();
        }
        entry.outcome = Some(result);
        self.settled.push(sid);
        self.inflight = self.inflight.saturating_sub(1);
        self.update_inflight_gauge();
    }

    fn update_inflight_gauge(&self) {
        self.metrics.inflight.get().set_u64(self.inflight);
    }

    fn try_confirm(&mut self, sid: SessionId) -> Result<(), SystemError> {
        let Some(entry) = self.sessions.get(&sid) else {
            return Ok(());
        };
        let Some(phone) = entry.phone else {
            return Ok(());
        };
        let now = self.net.now();
        let response = match self.phones.get_mut(&phone) {
            Some(agent) => match agent.confirm_request(sid, now) {
                Ok(response) => response,
                Err(PhoneError::NoSuchPending) => return Ok(()),
                Err(e) => return Err(e.into()),
            },
            None => return Ok(()),
        };
        self.send_token_from_phone(phone, response)
    }

    // -- host-executed actions -----------------------------------------------

    fn exec_register_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let home = self
            .sessions
            .get(&sid)
            .and_then(|e| e.user_id.as_ref())
            .and_then(|u| self.users.get(u))
            .map_or(0, |u| u.home_gcm);
        let Some(agent) = self.phones.get_mut(&phone) else {
            return Err(self.unknown(phone));
        };
        let gcm = self
            .gcms
            .get_mut(home)
            .ok_or(SystemError::MissingReply { expected: "gcm" })?;
        let registration_id = agent.register_with_rendezvous(&mut gcm.server);
        self.registration_home
            .insert(registration_id.as_str().to_string(), home);
        Ok(Event::PairingInfo {
            pid: agent.pid().clone(),
            registration_id,
        })
    }

    fn exec_fetch_backup(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let (user_id, shard) = {
            let entry = self.sessions.get(&sid);
            let user_id =
                entry
                    .and_then(|e| e.user_id.clone())
                    .ok_or(SystemError::MissingReply {
                        expected: "user id",
                    })?;
            let shard = entry.map_or(0, |e| e.shard);
            (user_id, shard)
        };
        let backup = AmnesiaPhone::download_backup_from_cloud(&mut self.cloud, &user_id)?;
        let server = &self
            .shards
            .get(shard)
            .ok_or(SystemError::MissingReply { expected: "shard" })?
            .server;
        let old_registration = server.user_record(&user_id)?.registration_id.clone();
        if let Some(entry) = self.sessions.get_mut(&sid) {
            entry.purge_registration = old_registration;
        }
        Ok(Event::BackupFetched(backup))
    }

    fn exec_install_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let (install, purge, user_id, shard) = match self.sessions.get_mut(&sid) {
            Some(entry) => (
                entry.install.take(),
                entry.purge_registration.take(),
                entry.user_id.clone(),
                entry.shard,
            ),
            None => (None, None, None, 0),
        };
        if let Some(reg) = purge {
            if let Some(&home) = self.registration_home.get(reg.as_str()) {
                if let Some(gcm) = self.gcms.get_mut(home) {
                    gcm.server.unregister(&reg);
                }
                self.registration_home.remove(reg.as_str());
            }
        }
        let (name, seed) = install.ok_or(SystemError::MissingReply {
            expected: "replacement phone",
        })?;
        let home = user_id
            .as_ref()
            .and_then(|u| self.users.get(u))
            .map_or(0, |u| u.home_gcm);
        let phone = self.wire_phone(&name, seed, shard, home);
        if let Some(user_id) = &user_id {
            if let Some(state) = self.users.get_mut(user_id) {
                state.phone = phone;
                state.phone_generation += 1;
            }
        }
        if let Some(entry) = self.sessions.get_mut(&sid) {
            entry.phone = Some(phone);
        }
        Ok(Event::PhoneInstalled)
    }

    fn exec_mint_grant(&mut self, sid: SessionId, max_uses: u32) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get_mut(&phone) else {
            return Err(self.unknown(phone));
        };
        let grant = agent.grant_session(max_uses, &mut self.channel_rng);
        Ok(Event::GrantMinted(grant))
    }

    fn exec_backup_to_cloud(&mut self, sid: SessionId) -> Result<(), SystemError> {
        let user_id = self
            .sessions
            .get(&sid)
            .and_then(|e| e.user_id.clone())
            .ok_or(SystemError::MissingReply {
                expected: "user id",
            })?;
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get(&phone) else {
            return Err(self.unknown(phone));
        };
        agent.backup_to_cloud(&mut self.cloud, &user_id)?;
        Ok(())
    }

    /// The phone a session was started with.
    fn session_phone(&self, sid: SessionId) -> Result<EndpointId, SystemError> {
        self.sessions
            .get(&sid)
            .and_then(|e| e.phone)
            .ok_or_else(|| SystemError::UnknownComponent {
                endpoint: "phone".into(),
            })
    }

    // -- event loop -----------------------------------------------------------

    /// Drives the network until at least one in-flight session settles,
    /// and returns the drained settle queue (in settle order). Same
    /// interleaving rules as the single-host loop: frames batch under the
    /// earliest timer deadline, timers fire between deliveries, push drops
    /// are attributed when the network idles.
    ///
    /// Each step costs O(log in-flight): the next deadline comes from
    /// `deadlines` and a settle shows up in `settled`. Only the two
    /// idle-network paths (push-drop attribution and failing sessions that
    /// can never finish) walk the session table, and they run at most once
    /// per lost push or stall, never per frame.
    fn drive_until_settled(&mut self) -> Vec<SessionId> {
        // A lone session takes its frames in batches: it keeps delivering
        // past its own settle, up to the deadline read before the batch.
        // With several in flight, control returns after every frame so the
        // admission window refills promptly.
        let batch = self.inflight <= 1;
        while self.settled.is_empty() {
            let next_deadline = self.deadlines.first().map(|&(deadline, _)| deadline);

            let mut delivered_any = false;
            while let Some(frame_at) = self.net.next_delivery_at() {
                if next_deadline.is_some_and(|deadline| deadline < frame_at) {
                    break;
                }
                self.deliver_one_frame();
                delivered_any = true;
                if !batch {
                    break;
                }
            }
            if delivered_any {
                continue;
            }

            match self.net.next_delivery_at() {
                Some(_) => {
                    if let Some(deadline) = next_deadline {
                        self.fire_timers(deadline);
                    }
                }
                None => {
                    let dropped = self.net.dropped_count();
                    if dropped > self.seen_drops {
                        self.seen_drops = dropped;
                        let exposed = self.unsettled(|e| e.engine.awaits_push());
                        for &sid in &exposed {
                            self.feed(sid, Event::PushDropped);
                        }
                        if !exposed.is_empty() {
                            continue;
                        }
                    }
                    match next_deadline {
                        Some(deadline) => self.fire_timers(deadline),
                        None => {
                            // Idle network, no timer: nothing in flight can
                            // ever finish.
                            for sid in self.unsettled(|_| true) {
                                let expected = self
                                    .sessions
                                    .get(&sid)
                                    .map(|e| e.engine.expected_reply())
                                    .unwrap_or("reply");
                                self.complete(sid, Err(SystemError::MissingReply { expected }));
                            }
                        }
                    }
                }
            }
        }
        std::mem::take(&mut self.settled)
    }

    /// Unsettled sessions matching `filter`, in id order.
    fn unsettled(&self, filter: impl Fn(&SessionEntry) -> bool) -> Vec<SessionId> {
        self.sessions
            .iter()
            .filter(|(_, e)| e.outcome.is_none() && filter(e))
            .map(|(&sid, _)| sid)
            .collect()
    }

    /// Advances the clock to `deadline` and fires every timer due by then,
    /// in session-id order.
    fn fire_timers(&mut self, deadline: SimInstant) {
        let now = self.net.now();
        if deadline > now {
            self.net.advance(deadline.duration_since(now));
        }
        let now = self.net.now();
        let mut expired = Vec::new();
        while let Some(&(at, sid)) = self.deadlines.first() {
            if at > now {
                break;
            }
            self.deadlines.pop_first();
            if let Some(entry) = self.sessions.get_mut(&sid) {
                entry.deadline = None;
            }
            expired.push(sid);
        }
        expired.sort_unstable();
        for sid in expired {
            self.metrics.timeouts.get().inc();
            self.feed(sid, Event::TimerFired);
        }
    }

    fn deliver_one_frame(&mut self) {
        if let Some(frame) = self.net.step() {
            if let Err(e) = self.dispatch(frame) {
                self.metrics.dispatch_faults.get().inc();
                self.faults.push(e.to_string());
            }
        }
    }

    fn finish_session(
        &mut self,
        sid: SessionId,
    ) -> (Result<SessionOutcome, SystemError>, Option<SimDuration>) {
        match self.sessions.remove(&sid) {
            Some(entry) => {
                if let Some(deadline) = entry.deadline {
                    self.deadlines.remove(&(deadline, sid));
                }
                if entry.outcome.is_none() {
                    self.inflight = self.inflight.saturating_sub(1);
                    self.update_inflight_gauge();
                }
                let fallback = SystemError::MissingReply {
                    expected: entry.engine.expected_reply(),
                };
                (entry.outcome.unwrap_or(Err(fallback)), entry.window)
            }
            None => (
                Err(SystemError::MissingReply {
                    expected: "session",
                }),
                None,
            ),
        }
    }

    // -- dispatch --------------------------------------------------------------

    fn leg_micros(frame: &Frame) -> u64 {
        (frame.delivered_at - frame.sent_at).as_micros()
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), SystemError> {
        match self.role(frame.to) {
            Some(Role::Shard(i)) => self.dispatch_to_shard(i, frame),
            Some(Role::Rendezvous(j)) => self.dispatch_to_gcm(j, frame),
            Some(Role::Phone { .. }) => self.dispatch_to_phone(frame),
            Some(Role::Browser) => self.dispatch_to_browser(frame),
            None => Err(self.unknown(frame.to)),
        }
    }

    /// Claims a compute slot on the shard for `compute` of work starting
    /// now; returns the delay until the result leaves (queue wait plus the
    /// compute itself). With every worker busy the request waits — this is
    /// the finite per-shard capacity that makes throughput scale with the
    /// shard count.
    fn claim_worker(&mut self, shard: usize, compute: SimDuration) -> SimDuration {
        let now = self.net.now();
        let Some(s) = self.shards.get_mut(shard) else {
            return compute;
        };
        if compute == SimDuration::ZERO || s.workers.is_empty() {
            return compute;
        }
        let mut best = 0;
        for (i, busy_until) in s.workers.iter().enumerate() {
            if *busy_until < s.workers[best] {
                best = i;
            }
        }
        let start = s.workers[best].max(now);
        let finish = start + compute;
        s.workers[best] = finish;
        s.queue_wait.record(start.duration_since(now).as_micros());
        finish.duration_since(now)
    }

    fn dispatch_to_shard(&mut self, idx: usize, frame: Frame) -> Result<(), SystemError> {
        let shard = self.shard_endpoint(idx)?;
        let plaintext = self.channels.open(frame.from, shard, &frame.payload)?;
        let message = ToServer::from_wire(&plaintext)?;
        let compute = match &message {
            ToServer::RequestPassword { .. } => {
                self.metrics.step1.get().record(Self::leg_micros(&frame));
                self.config.profile.request_compute
            }
            ToServer::Token(_) => {
                self.metrics.step4.get().record(Self::leg_micros(&frame));
                self.metrics
                    .step5
                    .get()
                    .record(self.config.profile.password_compute.as_micros());
                self.config.profile.password_compute
            }
            _ => SimDuration::ZERO,
        };
        // Queue wait + compute on a finite worker pool; the resulting
        // frames leave only once the shard actually finished the work.
        let delay = self.claim_worker(idx, compute);
        let now = self.net.now() + delay;
        let (reaction, local_gcm, pending) = {
            let Some(s) = self.shards.get_mut(idx) else {
                return Err(SystemError::MissingReply { expected: "shard" });
            };
            let reaction = s.server.handle_message(message, now);
            (reaction, s.local_gcm, s.server.pending_count())
        };
        if let Some(s) = self.shards.get(idx) {
            s.pending_depth.set_usize(pending);
            // Durable shards: fold the WAL into a snapshot once it outgrows
            // its threshold (a cheap atomic-read check when nothing to do).
            if let Err(e) = s.server.database().compact_if_needed() {
                self.faults
                    .push(format!("shard {idx} compaction failed: {e}"));
            }
        }
        if let Some(push) = reaction.push {
            let gcm = self
                .gcms
                .get(local_gcm)
                .ok_or(SystemError::MissingReply { expected: "gcm" })?
                .endpoint;
            self.net.transmit(shard, gcm, push.to_wire()?, delay)?;
        }
        for (dest, reply) in reaction.replies {
            if let FromServer::PasswordReady { requested_at, .. } = &reply.message {
                let latency = now.duration_since(*requested_at);
                self.metrics.window.get().record(latency.as_micros());
                self.generation_latencies.push(latency);
                if let Some(entry) = self.sessions.get_mut(&reply.request_id) {
                    entry.window = Some(latency);
                }
            }
            // The reply is addressed by the name the request carried.
            let to = self
                .net
                .endpoint(&dest)
                .ok_or(NetError::UnknownEndpoint { name: dest })?;
            let bytes = reply.to_wire()?;
            let sealed = self.channels.seal(shard, to, bytes)?;
            self.net.transmit(shard, to, sealed, delay)?;
        }
        Ok(())
    }

    fn dispatch_to_gcm(&mut self, idx: usize, frame: Frame) -> Result<(), SystemError> {
        let online = self.gcms.get(idx).is_some_and(|g| g.online);
        if !online {
            // A crashed push service: the frame is simply gone. The owning
            // session's timer converts the silence into a typed timeout.
            self.rendezvous_dropped.get().inc();
            return Ok(());
        }
        let from_gcm = matches!(self.role(frame.from), Some(Role::Rendezvous(_)));
        if from_gcm {
            // Second hop of a cross-instance forward.
            self.forward_hop.get().record(Self::leg_micros(&frame));
        } else {
            self.metrics.step2.get().record(Self::leg_micros(&frame));
        }
        let envelope =
            PushEnvelope::from_wire(&frame.payload).map_err(|e| SystemError::ServerRejected {
                message: format!("rendezvous: malformed envelope: {e}"),
            })?;
        let registered_here = self
            .gcms
            .get(idx)
            .is_some_and(|g| g.server.is_registered(&envelope.registration_id));
        if registered_here {
            let Some(g) = self.gcms.get_mut(idx) else {
                return Ok(());
            };
            return g
                .server
                .handle_frame(&frame, &mut self.net)
                .map(|_| ())
                .map_err(|e| SystemError::ServerRejected {
                    message: format!("rendezvous: {e}"),
                });
        }
        // Not registered here: forward to the owning instance — but only
        // on the first hop, so a stale directory can never loop a frame
        // between instances.
        let owner = self
            .registration_home
            .get(envelope.registration_id.as_str())
            .copied();
        match owner {
            Some(owner) if owner != idx && !from_gcm => {
                let (Some(from), Some(to)) = (self.gcms.get(idx), self.gcms.get(owner)) else {
                    return Err(SystemError::MissingReply { expected: "gcm" });
                };
                self.net
                    .transmit(from.endpoint, to.endpoint, frame.payload, SimDuration::ZERO)?;
                if let Some(Role::Shard(origin)) = self.role(frame.from) {
                    if let Some(s) = self.shards.get(origin) {
                        s.forwards.inc();
                    }
                }
                self.rendezvous_forwarded.get().inc();
                Ok(())
            }
            _ => {
                self.rendezvous_rejected.get().inc();
                Err(SystemError::ServerRejected {
                    message: format!(
                        "rendezvous: unknown registration {:?}",
                        envelope.registration_id
                    ),
                })
            }
        }
    }

    fn dispatch_to_phone(&mut self, frame: Frame) -> Result<(), SystemError> {
        self.metrics.step3.get().record(Self::leg_micros(&frame));
        let now = self.net.now();
        let outcome = match self.phones.get_mut(&frame.to) {
            Some(phone) => phone.handle_push(&frame.payload, now)?,
            None => return Err(self.unknown(frame.to)),
        };
        match outcome {
            PushOutcome::Respond(response) => {
                self.send_token_from_phone(frame.to, response)?;
            }
            PushOutcome::AwaitingConfirmation => {
                let sid = PhonePush::from_wire(&frame.payload)?.request_id;
                let approved = self
                    .sessions
                    .get(&sid)
                    .is_some_and(|e| e.outcome.is_none() && e.confirm_approved);
                if approved {
                    self.try_confirm(sid)?;
                }
            }
            PushOutcome::Rejected => {}
        }
        Ok(())
    }

    fn send_token_from_phone(
        &mut self,
        phone: EndpointId,
        response: amnesia_server::protocol::TokenResponse,
    ) -> Result<(), SystemError> {
        let shard = match self.role(phone) {
            Some(Role::Phone { shard }) => shard,
            _ => 0,
        };
        let shard = self.shard_endpoint(shard)?;
        let bytes = ToServer::Token(response).to_wire()?;
        let sealed = self.channels.seal(phone, shard, bytes)?;
        self.net
            .transmit(phone, shard, sealed, self.config.profile.token_compute)?;
        Ok(())
    }

    fn dispatch_to_browser(&mut self, frame: Frame) -> Result<(), SystemError> {
        let plaintext = self.channels.open(frame.from, frame.to, &frame.payload)?;
        let reply = Reply::from_wire(&plaintext)?;
        if matches!(reply.message, FromServer::PasswordReady { .. }) {
            self.metrics.step6.get().record(Self::leg_micros(&frame));
        }
        match self.browsers.get_mut(&frame.to) {
            Some(browser) => browser.handle_reply(reply.message.clone()),
            None => return Err(self.unknown(frame.to)),
        }
        let late = self
            .sessions
            .get(&reply.request_id)
            .is_none_or(|e| e.outcome.is_some());
        if late {
            self.metrics.late_replies.get().inc();
        } else {
            self.feed(reply.request_id, Event::FrameReceived(reply.message));
        }
        Ok(())
    }

    // -- outage injection ------------------------------------------------------

    /// Takes a rendezvous instance offline (frames addressed to it are
    /// lost) or brings it back. The instance's registry is durable across
    /// restarts.
    pub fn set_rendezvous_online(&mut self, instance: usize, online: bool) {
        if let Some(g) = self.gcms.get_mut(instance) {
            g.online = online;
        }
    }

    // -- accessors -------------------------------------------------------------

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of server shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of rendezvous instances.
    pub fn rendezvous_count(&self) -> usize {
        self.gcms.len()
    }

    /// The seed shard `i`'s server was constructed with, for building a
    /// byte-identical single-host ground truth.
    pub fn shard_server_seed(&self, i: usize) -> Option<u64> {
        self.shards.get(i).map(|s| s.seed)
    }

    /// The shard a user is routed to.
    pub fn user_shard(&self, user_id: &str) -> Option<usize> {
        self.users.get(user_id).map(|u| u.shard)
    }

    /// The user's home rendezvous instance.
    pub fn user_home_gcm(&self, user_id: &str) -> Option<usize> {
        self.users.get(user_id).map(|u| u.home_gcm)
    }

    /// The user's accounts, in creation order.
    pub fn user_accounts(&self, user_id: &str) -> Option<&[(Username, Domain)]> {
        self.users.get(user_id).map(|u| u.accounts.as_slice())
    }

    /// The local rendezvous instance shard `i` pushes through.
    pub fn shard_local_gcm(&self, i: usize) -> Option<usize> {
        self.shards.get(i).map(|s| s.local_gcm)
    }

    /// User ids routed to shard `i`, in fleet setup order — the order a
    /// ground-truth single-host replay must repeat to consume the server
    /// seed stream identically.
    pub fn users_on_shard(&self, i: usize) -> Vec<String> {
        self.setup_order
            .iter()
            .filter(|u| self.users.get(*u).is_some_and(|s| s.shard == i))
            .cloned()
            .collect()
    }

    /// Total users on the fleet.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The shared simulated network.
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.net.now()
    }

    /// Shard `i`'s Amnesia server.
    pub fn shard_server(&self, i: usize) -> Option<&AmnesiaServer> {
        self.shards.get(i).map(|s| &s.server)
    }

    /// A phone agent by endpoint name.
    pub fn phone(&self, name: &str) -> Option<&AmnesiaPhone> {
        self.phones.get(&self.net.endpoint(name)?)
    }

    /// Mutable phone access (confirmation policies).
    pub fn phone_mut(&mut self, name: &str) -> Option<&mut AmnesiaPhone> {
        self.phones.get_mut(&self.net.endpoint(name)?)
    }

    /// The user's current phone endpoint.
    pub fn user_phone(&self, user_id: &str) -> Option<&str> {
        self.users.get(user_id).map(|u| self.net.name(u.phone))
    }

    /// Dispatch faults recorded so far (rejected/undeliverable traffic).
    pub fn faults(&self) -> &[String] {
        &self.faults
    }

    /// Measured generation latencies in completion order.
    pub fn generation_latencies(&self) -> &[SimDuration] {
        &self.generation_latencies
    }

    /// The router (ring membership, key movement accounting).
    pub fn router_mut(&mut self) -> &mut FleetRouter {
        &mut self.router
    }

    /// The fleet-wide metrics registry (all shards, instances, phones and
    /// the network record here; `fleet.shard.<i>.*` labels are per shard).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }
}

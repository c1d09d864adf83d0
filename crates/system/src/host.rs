//! The session host: the one event loop every simulated deployment runs.
//!
//! A [`SessionHost`] owns the topology (server shards, rendezvous instances,
//! each endpoint's role, the registration directory), the agents and their
//! channels, and a table of sans-IO [`Session`]s. `AmnesiaSystem` is the
//! host with one shard and one rendezvous instance; the sharded fleet adds
//! shards, instances, worker pools and admission on top.

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::metrics::HostMetrics;
use crate::session::{Action, Event, FlowSpec, Origin, Session, SessionId, SessionOutcome};
use amnesia_client::Browser;
use amnesia_cloud::CloudProvider;
use amnesia_crypto::SecretRng;
use amnesia_net::{
    ChannelMap, EndpointId, Frame, LatencyModel, LinkProfile, NetError, SecureChannel, SimClock,
    SimDuration, SimInstant, SimNet,
};
use amnesia_phone::{AmnesiaPhone, PhoneConfig, PhoneError, PushOutcome};
use amnesia_rendezvous::{PushEnvelope, RegistrationId, RendezvousServer};
use amnesia_server::protocol::{FromServer, Reply, ToServer, TokenResponse};
use amnesia_server::AmnesiaServer;
use amnesia_telemetry::{Counter, Gauge, HistogramHandle, Registry, Span};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A session removed from the host's table by
/// [`finish_session`](SessionHost::finish_session).
#[derive(Debug)]
pub struct Finished {
    /// The terminal result; `MissingReply` if the session never settled.
    pub result: Result<SessionOutcome, SystemError>,
    /// The §VI-B window of the `PasswordReady` reply routed to the session.
    pub window: Option<SimDuration>,
    /// The phone the session ended with: a recovery's replacement once it
    /// is installed.
    pub phone: Option<EndpointId>,
}

/// Host-side bookkeeping around one engine [`Session`].
struct SessionEntry {
    engine: Session,
    browser: EndpointId,
    phone: Option<EndpointId>,
    user_id: Option<String>,
    /// The shard the session's browser is linked to.
    shard: usize,
    /// The rendezvous instance the session's phones register on.
    home_gcm: usize,
    /// Simulated deadline of the last `ArmTimer`.
    deadline: Option<SimInstant>,
    /// The §VI-B measured window of this session's `PasswordReady` reply.
    window: Option<SimDuration>,
    /// The host (simulated user) has approved the pending confirmation.
    confirm_approved: bool,
    /// Terminal result; `Some` freezes the session (first writer wins).
    outcome: Option<Result<SessionOutcome, SystemError>>,
    /// Replacement phone `(endpoint, seed)` installed by `InstallPhone`.
    install: Option<(String, u64)>,
    /// Old rendezvous registration purged when the replacement installs.
    purge_registration: Option<RegistrationId>,
    /// End-to-end span over simulated time (generation flows only).
    span: Option<Span<SimClock>>,
}

/// `<prefix>.shard.<i>.*`: sessions opened on the shard, its pushes that
/// took the forwarding hop, its pending requests, its worker queue wait.
struct ShardMetrics {
    routed: Counter,
    forwards: Counter,
    pending_depth: Gauge,
    queue_wait: HistogramHandle,
}

/// One server shard.
struct Shard {
    endpoint: EndpointId,
    server: AmnesiaServer,
    seed: u64,
    /// The rendezvous instance the shard pushes through.
    local_gcm: usize,
    /// Busy-until instant of each compute worker slot; none means every
    /// request computes on its own worker.
    workers: Vec<SimInstant>,
    metrics: Option<ShardMetrics>,
}

/// One rendezvous instance with an outage flag (an offline instance
/// silently loses every frame addressed to it, like a crashed push
/// service; its durable registry survives restarts).
struct GcmInstance {
    endpoint: EndpointId,
    server: RendezvousServer,
    online: bool,
}

/// What an endpoint is to the host. `dispatch` routes every delivered
/// frame by the role of its receiver, one index into `SessionHost::roles`.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// Server shard `i`.
    Shard(usize),
    /// Rendezvous instance `j`.
    Rendezvous(usize),
    /// A phone, and the shard it uploads tokens to.
    Phone { shard: usize },
    /// A browser, the shard its flows run on, and the rendezvous instance
    /// its user's phones register on.
    Browser { shard: usize, home_gcm: usize },
}

/// The session host. See the module docs.
pub struct SessionHost {
    config: SystemConfig,
    net: SimNet,
    shards: Vec<Shard>,
    gcms: Vec<GcmInstance>,
    /// Every endpoint's role; an endpoint registered on the network behind
    /// the host's back has none.
    roles: Slots<Role>,
    /// Registration id → owning rendezvous instance (the host performs
    /// every registration, so it can maintain the directory). Hashed:
    /// nothing iterates it.
    registration_home: HashMap<String, usize>,
    phones: Slots<AmnesiaPhone>,
    browsers: Slots<Browser>,
    cloud: CloudProvider,
    channels: ChannelMap,
    channel_rng: SecretRng,
    /// The one buffer every outgoing message is encoded into, cleared
    /// before each; a frame takes its own copy only when it is sealed (or
    /// copied, on a leg with no channel), so a frame costs one allocation.
    wire: Vec<u8>,
    /// Ordered: [`unsettled`](Self::unsettled) walks it in id order.
    sessions: BTreeMap<SessionId, SessionEntry>,
    /// Armed deadlines of unsettled sessions, earliest first. `ArmTimer`
    /// replaces a session's entry; `complete` and `finish_session` remove
    /// it, so the event loop finds the next deadline without a scan.
    deadlines: BTreeSet<(SimInstant, SessionId)>,
    /// Sessions settled since the event loop last handed this queue over
    /// (pushed by `complete`); never longer than the in-flight window.
    settled: Vec<SessionId>,
    next_session_id: SessionId,
    /// Count of unsettled sessions (tracked incrementally; scanning the
    /// table per completion made the event loop quadratic in batch size).
    inflight: u64,
    /// Network drops already attributed to sessions (drop detection edge).
    seen_drops: u64,
    faults: Vec<String>,
    telemetry: Registry,
    metrics: HostMetrics,
}

impl fmt::Debug for SessionHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHost")
            .field("shards", &self.shards.len())
            .field("rendezvous", &self.gcms.len())
            .field("phones", &self.phones.count())
            .field("browsers", &self.browsers.count())
            .field("sessions", &self.sessions.len())
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

/// A per-endpoint table: slot `i` holds the entry of the endpoint with id
/// `i`, so a frame's receiver finds its role or agent by one index.
struct Slots<T>(Vec<Option<T>>);

impl<T> Slots<T> {
    fn get(&self, id: EndpointId) -> Option<&T> {
        self.0.get(id.index())?.as_ref()
    }

    fn get_mut(&mut self, id: EndpointId) -> Option<&mut T> {
        self.0.get_mut(id.index())?.as_mut()
    }

    /// Puts `value` in `id`'s slot, growing the table as endpoints register.
    fn insert(&mut self, id: EndpointId, value: T) {
        let index = id.index();
        if self.0.len() <= index {
            self.0.resize_with(index + 1, || None);
        }
        if let Some(slot) = self.0.get_mut(index) {
            *slot = Some(value);
        }
    }

    fn remove(&mut self, id: EndpointId) -> Option<T> {
        self.0.get_mut(id.index())?.take()
    }

    /// The number of endpoints with an entry.
    fn count(&self) -> usize {
        self.0.iter().flatten().count()
    }
}

/// The frame's time on the wire — the per-leg latency attributed to the
/// protocol step the frame carries.
fn leg_micros(frame: &Frame) -> u64 {
    (frame.delivered_at - frame.sent_at).as_micros()
}

impl SessionHost {
    /// Builds a host over `net`, recording into the network's registry with
    /// its metrics under `prefix`. `servers` are the shards' servers with
    /// their seeds, in shard order, each on its own endpoint; shard `i`
    /// pushes through rendezvous instance `i mod M`.
    pub fn new(
        config: SystemConfig,
        prefix: &str,
        mut net: SimNet,
        servers: Vec<(AmnesiaServer, u64)>,
        rendezvous: Vec<RendezvousServer>,
        channel_rng: SecretRng,
        cloud: CloudProvider,
    ) -> Self {
        let telemetry = net.telemetry().clone();
        let gcm_count = rendezvous.len().max(1);
        let mut roles = Slots(Vec::new());
        let mut shards = Vec::with_capacity(servers.len());
        for (i, (mut server, seed)) in servers.into_iter().enumerate() {
            server.set_telemetry(telemetry.clone());
            let endpoint = net.register(server.endpoint());
            roles.insert(endpoint, Role::Shard(i));
            shards.push(Shard {
                endpoint,
                server,
                seed,
                local_gcm: i % gcm_count,
                workers: Vec::new(),
                metrics: None,
            });
        }
        let mut gcms = Vec::with_capacity(rendezvous.len());
        for (j, mut server) in rendezvous.into_iter().enumerate() {
            server.set_telemetry(telemetry.clone());
            let endpoint = net.register(server.endpoint());
            roles.insert(endpoint, Role::Rendezvous(j));
            gcms.push(GcmInstance {
                endpoint,
                server,
                online: true,
            });
        }

        // Shard → local rendezvous push links, and a full inter-instance
        // mesh for cross-instance forwarding.
        let server_gcm = LinkProfile::new(config.profile.server_gcm.clone());
        for shard in &shards {
            if let Some(gcm) = gcms.get(shard.local_gcm) {
                net.connect_ids(shard.endpoint, gcm.endpoint, server_gcm.clone());
            }
        }
        for from in &gcms {
            for to in gcms.iter().filter(|to| to.endpoint != from.endpoint) {
                net.connect_ids(from.endpoint, to.endpoint, server_gcm.clone());
            }
        }

        SessionHost {
            config,
            net,
            shards,
            gcms,
            roles,
            registration_home: HashMap::new(),
            phones: Slots(Vec::new()),
            browsers: Slots(Vec::new()),
            cloud,
            channels: ChannelMap::default(),
            channel_rng,
            wire: Vec::new(),
            sessions: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            settled: Vec::new(),
            next_session_id: 1,
            inflight: 0,
            seen_drops: 0,
            faults: Vec::new(),
            metrics: HostMetrics::new(&telemetry, prefix),
            telemetry,
        }
    }

    /// Gives shard `i` a pool of `workers` compute slots, so a saturated
    /// shard queues, and its own `<prefix>.shard.<i>.*` telemetry.
    pub fn provision_shard(&mut self, i: usize, workers: usize, prefix: &str) {
        let now = self.net.now();
        let name = |metric: &str| format!("{prefix}.shard.{i}.{metric}");
        let metrics = ShardMetrics {
            routed: self.telemetry.counter(&name("sessions_routed")),
            forwards: self.telemetry.counter(&name("forwards")),
            pending_depth: self.telemetry.gauge(&name("pending_depth")),
            queue_wait: self.telemetry.histogram(&name("queue_wait_us")),
        };
        if let Some(shard) = self.shards.get_mut(i) {
            shard.workers = vec![now; workers];
            shard.metrics = Some(metrics);
        }
    }

    // -- topology -----------------------------------------------------------

    /// The role of endpoint `id`, if the host gave it one.
    fn role(&self, id: EndpointId) -> Option<Role> {
        self.roles.get(id).copied()
    }

    /// The index of the shard listening on endpoint `name`.
    pub fn shard_index(&self, name: &str) -> Option<usize> {
        match self.role(self.net.endpoint(name)?) {
            Some(Role::Shard(i)) => Some(i),
            _ => None,
        }
    }

    /// The endpoint of shard `i`.
    fn shard_endpoint(&self, i: usize) -> Result<EndpointId, SystemError> {
        self.shards
            .get(i)
            .map(|s| s.endpoint)
            .ok_or(SystemError::MissingReply { expected: "shard" })
    }

    /// `UnknownComponent` for an endpoint that has no live component.
    fn unknown(&self, id: EndpointId) -> SystemError {
        SystemError::UnknownComponent {
            endpoint: self.net.name(id).into(),
        }
    }

    /// Registers a browser endpoint with an HTTPS link to shard `shard`
    /// over `latency` and a protected channel pair. Its flows run on that
    /// shard, and the phones it pairs register on rendezvous instance
    /// `home_gcm`.
    pub fn wire_browser(
        &mut self,
        name: &str,
        latency: LatencyModel,
        shard: usize,
        home_gcm: usize,
    ) -> EndpointId {
        let id = self.net.register(name);
        if let Some(s) = self.shards.get(shard) {
            let profile = LinkProfile::new(latency);
            self.net.connect_ids(id, s.endpoint, profile.clone());
            self.net.connect_ids(s.endpoint, id, profile);
            self.channels
                .provision_pair(id, s.endpoint, &mut self.channel_rng);
        }
        self.browsers.insert(id, Browser::new(name));
        self.roles.insert(id, Role::Browser { shard, home_gcm });
        id
    }

    /// Installs a phone: endpoint, push link from rendezvous instance
    /// `home_gcm`, direct link to shard `shard`, and a protected
    /// phone↔shard channel.
    pub fn wire_phone(
        &mut self,
        name: &str,
        seed: u64,
        shard: usize,
        home_gcm: usize,
    ) -> EndpointId {
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
        self.roles.insert(id, Role::Phone { shard });
        id
    }

    /// Removes a phone component (a lost/stolen device leaving the
    /// deployment). Its network endpoint remains but nothing handles its
    /// frames.
    pub fn remove_phone(&mut self, name: &str) -> Option<AmnesiaPhone> {
        let id = self.net.endpoint(name)?;
        self.phones.remove(id)
    }

    // -- channel plumbing ------------------------------------------------------

    /// Encodes one message with `write` into the host's reused buffer and
    /// returns the frame for `from → to`: sealed on a protected channel, a
    /// copy of the buffer on any other leg.
    fn frame(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Vec<u8>, SystemError> {
        self.wire.clear();
        write(&mut self.wire);
        if !self.config.secure_channels {
            return Ok(self.wire.to_vec());
        }
        Ok(self.channels.seal(from, to, &self.wire)?)
    }

    /// Opens a delivered frame's payload inside its own buffer and returns
    /// the plaintext.
    fn open<'a>(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        bytes: &'a mut [u8],
    ) -> Result<&'a [u8], SystemError> {
        if !self.config.secure_channels {
            return Ok(bytes);
        }
        Ok(self.channels.open_in_place(from, to, bytes)?)
    }

    /// The protected channel for traffic from endpoint `from` to `to`.
    pub fn channel(&self, from: &str, to: &str) -> Option<&SecureChannel> {
        let (from, to) = (self.net.endpoint(from)?, self.net.endpoint(to)?);
        self.channels.get(from, to)
    }

    // -- session table ---------------------------------------------------------

    /// Opens a session for `spec` on the shard of `browser` and executes
    /// its first actions. The returned id is also the wire `request_id` of
    /// every frame the session sends.
    ///
    /// # Errors
    ///
    /// Returns `UnknownComponent` if `browser` is not a browser, and
    /// `Net(DuplicateEndpoint)` if `install` names a registered endpoint:
    /// the replacement is installed mid-flow, after the server took the
    /// backup, so a taken name must fail here, before anything changes.
    pub fn begin(
        &mut self,
        browser: EndpointId,
        phone: Option<EndpointId>,
        user_id: Option<&str>,
        spec: FlowSpec,
        attempts: u32,
        install: Option<(String, u64)>,
    ) -> Result<SessionId, SystemError> {
        if let Some((name, _)) = install.as_ref().filter(|(n, _)| self.net.has_endpoint(n)) {
            return Err(NetError::DuplicateEndpoint { name: name.clone() }.into());
        }
        let (Some(Role::Browser { shard, home_gcm }), Some(browser_agent)) =
            (self.role(browser), self.browsers.get(browser))
        else {
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
        // End-to-end span over simulated time: browser click to password in
        // the browser, a superset of the paper's measured tstart→tend window.
        let span = is_generate.then(|| self.metrics.e2e.get().span(self.net.clock()));
        self.sessions.insert(
            id,
            SessionEntry {
                engine,
                browser,
                phone,
                user_id: user_id.map(str::to_string),
                shard,
                home_gcm,
                deadline: None,
                window: None,
                confirm_approved: false,
                outcome: None,
                install,
                purge_registration: None,
                span,
            },
        );
        if let Some(m) = self.shards.get(shard).and_then(|s| s.metrics.as_ref()) {
            m.routed.inc();
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

    /// Feeds one event into a live session and executes the reaction.
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

    /// Executes engine actions; host-side failures terminate the session
    /// rather than propagating (the session owns its own error).
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
                    // The simulated user always approves; the push may
                    // arrive at the phone before or after this ack.
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
            }
        }
    }

    /// Seals and transmits one engine-built message from the session's
    /// originating agent to its shard.
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
        let frame = self.frame(from, shard, |out| message.write_wire(out))?;
        self.net.transmit(from, shard, frame, SimDuration::ZERO)?;
        Ok(())
    }

    /// Records a session's terminal result (first writer wins), settles
    /// its telemetry and queues it for the event loop's caller.
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
        self.metrics.inflight_peak.get().set_max_u64(self.inflight);
    }

    /// If the session's phone holds a pending confirmation for it and the
    /// user has approved, confirm and send the token (step 4 of Fig. 1).
    fn try_confirm(&mut self, sid: SessionId) -> Result<(), SystemError> {
        let Some(entry) = self.sessions.get(&sid) else {
            return Ok(());
        };
        let Some(phone) = entry.phone else {
            return Ok(());
        };
        let now = self.net.now();
        let response = match self.phones.get_mut(phone) {
            Some(agent) => match agent.confirm_request(sid, now) {
                Ok(response) => response,
                // The push has not reached the phone yet (or was consumed by
                // a grant); the dispatch path will confirm on arrival.
                Err(PhoneError::NoSuchPending) => return Ok(()),
                Err(e) => return Err(e.into()),
            },
            None => return Ok(()),
        };
        self.send_token_from_phone(phone, response)
    }

    // -- host-executed actions -------------------------------------------------

    /// `Action::RegisterPhone`: the phone registers with the session's home
    /// rendezvous instance and reports its identity for
    /// `CompletePhonePairing`.
    fn exec_register_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let home = self.sessions.get(&sid).map_or(0, |e| e.home_gcm);
        let Some(agent) = self.phones.get_mut(phone) else {
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

    /// `Action::FetchBackup`: download the user's `Kp` backup from the cloud
    /// and note the to-be-purged rendezvous registration.
    fn exec_fetch_backup(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let entry = self.sessions.get(&sid);
        let shard = entry.map_or(0, |e| e.shard);
        let user_id = entry
            .and_then(|e| e.user_id.clone())
            .ok_or(SystemError::MissingReply {
                expected: "user id",
            })?;
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

    /// `Action::InstallPhone`: purge the stolen phone's registration on the
    /// session's home instance, then install the replacement device the
    /// flow was started with; it registers there too.
    fn exec_install_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let Some(entry) = self.sessions.get_mut(&sid) else {
            return Err(SystemError::MissingReply {
                expected: "session",
            });
        };
        let (install, purge) = (entry.install.take(), entry.purge_registration.take());
        let (shard, home) = (entry.shard, entry.home_gcm);
        if let Some(reg) = purge {
            if let Some(gcm) = self.gcms.get_mut(home) {
                gcm.server.unregister(&reg);
            }
            self.registration_home.remove(reg.as_str());
        }
        let (name, seed) = install.ok_or(SystemError::MissingReply {
            expected: "replacement phone",
        })?;
        let phone = self.wire_phone(&name, seed, shard, home);
        if let Some(entry) = self.sessions.get_mut(&sid) {
            entry.phone = Some(phone);
        }
        Ok(Event::PhoneInstalled)
    }

    /// `Action::MintGrant`: the phone mints the §VIII session grant.
    fn exec_mint_grant(&mut self, sid: SessionId, max_uses: u32) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get_mut(phone) else {
            return Err(self.unknown(phone));
        };
        let grant = agent.grant_session(max_uses, &mut self.channel_rng);
        Ok(Event::GrantMinted(grant))
    }

    /// `Action::BackupPhoneToCloud`: the §III-C1 one-time `Kp` backup.
    fn exec_backup_to_cloud(&mut self, sid: SessionId) -> Result<(), SystemError> {
        let user_id = self
            .sessions
            .get(&sid)
            .and_then(|e| e.user_id.clone())
            .ok_or(SystemError::MissingReply {
                expected: "user id",
            })?;
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get(phone) else {
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

    // -- event loop ------------------------------------------------------------

    /// Drives the network until at least one session settles, and hands
    /// the settled ids over in `settled` (in settle order, replacing its
    /// contents); both buffers keep their allocations.
    pub fn drive_until_settled(&mut self, settled: &mut Vec<SessionId>) {
        self.drive();
        settled.clear();
        std::mem::swap(settled, &mut self.settled);
    }

    /// Drives a lone session until it settles and removes it. Sessions
    /// that settle meanwhile leave the settle queue, so this serves
    /// sequential flows, with nothing else in flight.
    pub fn run(&mut self, sid: SessionId) -> Finished {
        while self.sessions.get(&sid).is_some_and(|e| e.outcome.is_none()) {
            self.settled.clear();
            self.drive();
        }
        self.settled.clear();
        self.finish_session(sid)
    }

    /// The event loop: runs until the settle queue is non-empty. Frames and
    /// timers interleave by time: a timer that expires before the next
    /// frame lands fires first, even while the frame is in flight (it then
    /// arrives as a late reply). Push drops are attributed when the network
    /// goes idle.
    ///
    /// Each step costs O(log in-flight): the next deadline comes from
    /// `deadlines` and a settle shows up in `settled`. Only the two
    /// idle-network paths (push-drop attribution and failing sessions that
    /// can never finish) walk the session table, and they run at most once
    /// per lost push or stall, never per frame.
    fn drive(&mut self) {
        // A lone session takes its frames in batches: it keeps delivering
        // past its own settle, up to the deadline read before the batch.
        // With several in flight, control returns after every frame so the
        // caller notices a settle promptly.
        let batch = self.inflight <= 1;
        while self.settled.is_empty() {
            let next_deadline = self.deadlines.first().map(|&(deadline, _)| deadline);

            // Deliver every frame scheduled no later than the earliest
            // deadline. The bound stays valid across the batch: every
            // session re-arms with the same configured timeout, so a re-arm
            // lands at `frame time + timeout` — never before an armed
            // deadline — and completions only clear deadlines.
            let mut delivered_any = false;
            while let Some(frame_at) = self.net.next_delivery_at() {
                if next_deadline.is_some_and(|deadline| deadline < frame_at) {
                    break;
                }
                if let Some(frame) = self.net.step() {
                    self.dispatch_or_fault(frame);
                }
                delivered_any = true;
                if !batch {
                    break;
                }
            }
            if delivered_any {
                continue;
            }

            match self.net.next_delivery_at() {
                // A deadline strictly before the next delivery expires now;
                // the in-flight frame will be counted late on arrival.
                Some(_) => {
                    if let Some(deadline) = next_deadline {
                        self.fire_timers(deadline);
                    }
                }
                None => {
                    // Push loss: the only lossy leg is rendezvous → phone, so
                    // when the network is idle, new drops mean some
                    // awaiting-push session's push is gone. Every exposed
                    // session reacts.
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
                            // No timer armed and nothing in flight: the flow
                            // can never finish. Fail every unsettled session
                            // with the reply it was waiting for.
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

    /// Dispatches one delivered frame, recording a component-level
    /// rejection as a fault.
    fn dispatch_or_fault(&mut self, frame: Frame) {
        if let Err(e) = self.dispatch(frame) {
            self.metrics.dispatch_faults.get().inc();
            self.faults.push(e.to_string());
        }
    }

    /// Removes a session, returning its result, the §VI-B window attributed
    /// to it (if a `PasswordReady` was routed to it) and its final phone.
    pub fn finish_session(&mut self, sid: SessionId) -> Finished {
        let Some(entry) = self.sessions.remove(&sid) else {
            return Finished {
                result: Err(SystemError::MissingReply {
                    expected: "session",
                }),
                window: None,
                phone: None,
            };
        };
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
        Finished {
            result: entry.outcome.unwrap_or(Err(fallback)),
            window: entry.window,
            phone: entry.phone,
        }
    }

    // -- dispatch ----------------------------------------------------------------

    /// Delivers and dispatches frames until the network is idle, without
    /// firing timers.
    ///
    /// Component-level rejections (unknown registrations, malformed pushes,
    /// replayed tokens) are recorded in [`faults`](Self::faults) rather than
    /// aborting the pump — on a real network they are just dropped traffic.
    pub fn pump(&mut self) {
        while let Some(frame) = self.net.step() {
            self.dispatch_or_fault(frame);
        }
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), SystemError> {
        match self.role(frame.to) {
            Some(Role::Shard(i)) => self.dispatch_to_shard(i, frame),
            Some(Role::Rendezvous(j)) => self.dispatch_to_gcm(j, frame),
            Some(Role::Phone { .. }) => self.dispatch_to_phone(frame),
            Some(Role::Browser { .. }) => self.dispatch_to_browser(frame),
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
        if let Some(m) = &s.metrics {
            m.queue_wait.record(start.duration_since(now).as_micros());
        }
        finish.duration_since(now)
    }

    fn dispatch_to_shard(&mut self, idx: usize, mut frame: Frame) -> Result<(), SystemError> {
        let shard = self.shard_endpoint(idx)?;
        let plaintext = self.open(frame.from, shard, &mut frame.payload)?;
        let message = ToServer::from_wire(plaintext)?;
        // Per-request server compute (deriving R, assembling the password) is
        // modelled as a delay on this request's *outgoing* frames, not as a
        // global clock advance: one session's compute must not inflate
        // every other in-flight session's measured window.
        let compute = match &message {
            ToServer::RequestPassword { .. } => {
                // Step 1 of Fig. 1: the browser's request reaching the server.
                self.metrics.step1.get().record(leg_micros(&frame));
                self.config.profile.request_compute
            }
            ToServer::Token(_) => {
                // Step 4 leg (token upload) and step 5 (password assembly,
                // modelled as the configured compute delay).
                self.metrics.step4.get().record(leg_micros(&frame));
                self.metrics
                    .step5
                    .get()
                    .record(self.config.profile.password_compute.as_micros());
                self.config.profile.password_compute
            }
            _ => SimDuration::ZERO,
        };
        // Queue wait + compute; the resulting frames leave only once the
        // shard actually finished the work. The server's view of time
        // includes it.
        let delay = self.claim_worker(idx, compute);
        let now = self.net.now() + delay;
        let Some(s) = self.shards.get_mut(idx) else {
            return Err(SystemError::MissingReply { expected: "shard" });
        };
        let reaction = s.server.handle_message(message, now);
        let local_gcm = s.local_gcm;
        if let Some(m) = &s.metrics {
            m.pending_depth.set_usize(s.server.pending_count());
        }
        // Durable shards: fold the WAL into a snapshot once it outgrows its
        // threshold (a cheap atomic-read check when nothing to do).
        if let Err(e) = s.server.database().compact_if_needed() {
            self.faults
                .push(format!("shard {idx} compaction failed: {e}"));
        }
        if let Some(push) = reaction.push {
            let gcm = self
                .gcms
                .get(local_gcm)
                .ok_or(SystemError::MissingReply { expected: "gcm" })?
                .endpoint;
            let frame = self.frame(shard, gcm, |out| push.write_wire(out))?;
            self.net.transmit(shard, gcm, frame, delay)?;
        }
        if let Some((dest, reply)) = reaction.reply {
            if let FromServer::PasswordReady { requested_at, .. } = &reply.message {
                let latency = now.duration_since(*requested_at);
                self.metrics.window.get().record(latency.as_micros());
                // Attribute the measured window to the owning session.
                if let Some(entry) = self.sessions.get_mut(&reply.request_id) {
                    entry.window = Some(latency);
                }
            }
            // The reply is addressed by the name the request carried.
            let to = self
                .net
                .endpoint(&dest)
                .ok_or(NetError::UnknownEndpoint { name: dest })?;
            let frame = self.frame(shard, to, |out| reply.write_wire(out))?;
            self.net.transmit(shard, to, frame, delay)?;
        }
        Ok(())
    }

    /// A frame reaching rendezvous instance `idx`. The host handles the two
    /// cases that need the topology — an offline instance loses the frame,
    /// and a first-hop push whose registration lives on another instance
    /// is forwarded there — and hands every other frame to the instance
    /// itself, which forwards it to the phone or rejects it.
    fn dispatch_to_gcm(&mut self, idx: usize, frame: Frame) -> Result<(), SystemError> {
        if !self.gcms.get(idx).is_some_and(|g| g.online) {
            // A crashed push service: the frame is simply gone. The owning
            // session's timer converts the silence into a typed timeout.
            self.metrics.rendezvous_dropped.get().inc();
            return Ok(());
        }
        if matches!(self.role(frame.from), Some(Role::Rendezvous(_))) {
            // Second hop of a cross-instance forward.
            self.metrics.forward_hop.get().record(leg_micros(&frame));
        } else {
            // Step 2 leg of Fig. 1: the server's push reaching the
            // rendezvous service.
            self.metrics.step2.get().record(leg_micros(&frame));
            if let Some(owner) = self.forward_owner(idx, &frame) {
                return self.forward(idx, owner, frame);
            }
        }
        let Some(gcm) = self.gcms.get_mut(idx) else {
            return Err(self.unknown(frame.to));
        };
        gcm.server
            .handle_frame(frame, &mut self.net)
            .map(|_| ())
            .map_err(|e| SystemError::ServerRejected {
                message: format!("rendezvous: {e}"),
            })
    }

    /// The instance a push reaching instance `idx` must be forwarded to:
    /// its registration is not here, and the directory places it on
    /// another instance. With one instance nothing is ever forwarded, so
    /// the envelope header is not read; with more, the registration id is
    /// read in place.
    fn forward_owner(&self, idx: usize, frame: &Frame) -> Option<usize> {
        if self.gcms.len() < 2 {
            return None;
        }
        let (registration_id, _) = PushEnvelope::header(&frame.payload).ok()?;
        if self.gcms.get(idx)?.server.is_registered(registration_id) {
            return None;
        }
        self.registration_home
            .get(registration_id)
            .copied()
            .filter(|&owner| owner != idx)
    }

    /// Forwards a push from instance `idx` to instance `owner` over the
    /// inter-instance mesh (one extra hop, counted per origin shard). A
    /// forwarded frame is never forwarded again, so a stale directory
    /// cannot loop it.
    fn forward(&mut self, idx: usize, owner: usize, frame: Frame) -> Result<(), SystemError> {
        let (Some(from), Some(to)) = (self.gcms.get(idx), self.gcms.get(owner)) else {
            return Err(SystemError::MissingReply { expected: "gcm" });
        };
        self.net
            .transmit(from.endpoint, to.endpoint, frame.payload, SimDuration::ZERO)?;
        if let Some(Role::Shard(origin)) = self.role(frame.from) {
            if let Some(m) = self.shards.get(origin).and_then(|s| s.metrics.as_ref()) {
                m.forwards.inc();
            }
        }
        self.metrics.rendezvous_forwarded.get().inc();
        Ok(())
    }

    fn dispatch_to_phone(&mut self, frame: Frame) -> Result<(), SystemError> {
        let now = self.net.now();
        let Some(phone) = self.phones.get_mut(frame.to) else {
            return Err(self.unknown(frame.to));
        };
        // Step 3 of Fig. 1: the rendezvous push arriving at the phone.
        self.metrics.step3.get().record(leg_micros(&frame));
        match phone.handle_push(&frame.payload, now)? {
            PushOutcome::Respond(response) => {
                self.send_token_from_phone(frame.to, response)?;
            }
            PushOutcome::AwaitingConfirmation { request_id: sid } => {
                // If the owning session's user already approved (the
                // RequestPushed ack beat the push here), confirm now.
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

    /// Seals and sends a confirmed token upload to the phone's shard,
    /// delayed by the phone's Algorithm 1 compute time (the phone works on
    /// its own core; its compute must not pause the rest of the
    /// simulation).
    fn send_token_from_phone(
        &mut self,
        phone: EndpointId,
        response: TokenResponse,
    ) -> Result<(), SystemError> {
        let shard = match self.role(phone) {
            Some(Role::Phone { shard }) => shard,
            _ => 0,
        };
        let shard = self.shard_endpoint(shard)?;
        let message = ToServer::Token(response);
        let frame = self.frame(phone, shard, |out| message.write_wire(out))?;
        self.net
            .transmit(phone, shard, frame, self.config.profile.token_compute)?;
        Ok(())
    }

    fn dispatch_to_browser(&mut self, mut frame: Frame) -> Result<(), SystemError> {
        let plaintext = self.open(frame.from, frame.to, &mut frame.payload)?;
        let reply = Reply::from_wire(plaintext)?;
        if matches!(reply.message, FromServer::PasswordReady { .. }) {
            // Step 6 of Fig. 1: the assembled password reaching the browser.
            self.metrics.step6.get().record(leg_micros(&frame));
        }
        match self.browsers.get_mut(frame.to) {
            Some(browser) => browser.handle_reply(&reply.message),
            None => return Err(self.unknown(frame.to)),
        }
        // Route the reply to the session that is waiting for it. A session
        // that already settled (e.g. its timer fired while this frame was in
        // flight) or was already finished must not be resolved twice; the
        // frame is valid but late, and is counted as such.
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

    // -- outage injection --------------------------------------------------------

    /// Takes rendezvous instance `j` offline (frames addressed to it are
    /// lost) or brings it back. The instance's registry is durable across
    /// restarts.
    pub fn set_rendezvous_online(&mut self, j: usize, online: bool) {
        if let Some(g) = self.gcms.get_mut(j) {
            g.online = online;
        }
    }

    // -- accessors -----------------------------------------------------------------

    /// The configuration the host was built with.
    pub fn config(&self) -> &SystemConfig {
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

    /// Shard `i`'s server; panics if there is no shard `i`.
    pub fn server(&self, i: usize) -> &AmnesiaServer {
        &self.shards[i].server
    }

    /// Mutable access to shard `i`'s server; panics if there is none.
    pub fn server_mut(&mut self, i: usize) -> &mut AmnesiaServer {
        &mut self.shards[i].server
    }

    /// The seed shard `i`'s server was built from.
    pub fn shard_seed(&self, i: usize) -> Option<u64> {
        self.shards.get(i).map(|s| s.seed)
    }

    /// The rendezvous instance shard `i` pushes through.
    pub fn shard_local_gcm(&self, i: usize) -> Option<usize> {
        self.shards.get(i).map(|s| s.local_gcm)
    }

    /// Rendezvous instance `j`; panics if there is none.
    pub fn rendezvous_mut(&mut self, j: usize) -> &mut RendezvousServer {
        &mut self.gcms[j].server
    }

    /// The cloud provider.
    pub fn cloud_mut(&mut self) -> &mut CloudProvider {
        &mut self.cloud
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The simulated network (attach wiretaps here).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.net.now()
    }

    /// A phone agent by endpoint name.
    pub fn phone(&self, name: &str) -> Option<&AmnesiaPhone> {
        self.phones.get(self.net.endpoint(name)?)
    }

    /// Mutable phone access (confirmation policies, compromise models).
    pub fn phone_mut(&mut self, name: &str) -> Option<&mut AmnesiaPhone> {
        self.phones.get_mut(self.net.endpoint(name)?)
    }

    /// A browser by endpoint name.
    pub fn browser(&self, name: &str) -> Option<&Browser> {
        self.browsers.get(self.net.endpoint(name)?)
    }

    /// Dispatch faults recorded so far (dropped/rejected traffic).
    pub fn faults(&self) -> &[String] {
        &self.faults
    }

    /// The registry every component of the deployment records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }
}

//! The deployment object: an event-loop host for the sans-IO session engine.
//!
//! Every end-to-end flow begins by inserting a [`Session`] into the session
//! table and executing the actions it emits; frames coming off the simulated
//! network are routed back to the owning session by the `request_id` echoed
//! in every server [`Reply`] envelope. Because sessions are just table
//! entries, any number of flows can be in flight at once —
//! [`generate_passwords_concurrent`](AmnesiaSystem::generate_passwords_concurrent)
//! drives hundreds of interleaved generations through one network.

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::metrics::HostMetrics;
use crate::session::{Action, Event, FlowSpec, Origin, Session, SessionId, SessionOutcome};
use amnesia_client::Browser;
use amnesia_cloud::CloudProvider;
use amnesia_core::{Domain, GeneratedPassword, PasswordPolicy, Username};
use amnesia_crypto::SecretRng;
use amnesia_net::{
    ChannelMap, EndpointId, Frame, LatencyModel, LinkProfile, NetError, SecureChannel, SimClock,
    SimDuration, SimInstant, SimNet,
};
use amnesia_phone::{AmnesiaPhone, PhoneConfig, PhoneError, PushOutcome};
use amnesia_rendezvous::{RegistrationId, RendezvousServer};
use amnesia_server::protocol::FromServer;
use amnesia_server::protocol::{PhonePush, Reply, ToServer};
use amnesia_server::storage::AccountRef;
use amnesia_server::{AmnesiaServer, ServerConfig};
use amnesia_telemetry::{Gauge, LazyHandle, Registry, Span};
use std::collections::BTreeMap;
use std::fmt;

/// Endpoint name of the Amnesia server.
pub const SERVER_ENDPOINT: &str = "amnesia-server";
/// Endpoint name of the rendezvous service.
pub const GCM_ENDPOINT: &str = "gcm";

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

/// Host-side bookkeeping around one engine [`Session`].
struct SessionEntry {
    engine: Session,
    browser: EndpointId,
    phone: Option<EndpointId>,
    user_id: Option<String>,
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

/// The assembled deployment. See the crate-level docs and example.
pub struct AmnesiaSystem {
    config: SystemConfig,
    net: SimNet,
    server: AmnesiaServer,
    server_seed: u64,
    gcm: RendezvousServer,
    cloud: CloudProvider,
    /// The endpoints of the server and of the rendezvous service.
    server_id: EndpointId,
    gcm_id: EndpointId,
    phones: BTreeMap<EndpointId, AmnesiaPhone>,
    browsers: BTreeMap<EndpointId, Browser>,
    channels: ChannelMap,
    channel_rng: SecretRng,
    sessions: BTreeMap<SessionId, SessionEntry>,
    next_session_id: SessionId,
    /// Count of unsettled sessions (tracked incrementally; scanning the
    /// table per completion made the event loop quadratic in batch size).
    inflight: u64,
    /// Network drops already attributed to sessions (drop detection edge).
    seen_drops: u64,
    generation_latencies: Vec<SimDuration>,
    faults: Vec<String>,
    telemetry: Registry,
    metrics: HostMetrics,
    /// `system.session.inflight_peak`, which only the single host keeps.
    inflight_peak: LazyHandle<Gauge>,
}

impl fmt::Debug for AmnesiaSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |id: &EndpointId| self.net.name(*id);
        f.debug_struct("AmnesiaSystem")
            .field("profile", &self.config.profile.name)
            .field("phones", &self.phones.keys().map(name).collect::<Vec<_>>())
            .field(
                "browsers",
                &self.browsers.keys().map(name).collect::<Vec<_>>(),
            )
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

impl AmnesiaSystem {
    /// Builds a deployment with a server, rendezvous service and cloud
    /// provider; add browsers and phones afterwards.
    pub fn new(config: SystemConfig) -> Self {
        let telemetry = Registry::new();
        let mut seed_rng = SecretRng::seeded(config.seed);
        let mut net = SimNet::new(seed_rng.next_u64());
        net.set_telemetry(telemetry.clone());
        let server_id = net.register(SERVER_ENDPOINT);
        let gcm_id = net.register(GCM_ENDPOINT);
        net.connect_ids(
            server_id,
            gcm_id,
            LinkProfile::new(config.profile.server_gcm.clone()),
        );

        // Always draw, even when overridden, so the downstream rendezvous
        // and channel streams are independent of the override.
        let drawn_server_seed = seed_rng.next_u64();
        let server_seed = config.server_seed.unwrap_or(drawn_server_seed);
        let mut server = AmnesiaServer::new(ServerConfig {
            endpoint: SERVER_ENDPOINT.into(),
            seed: server_seed,
            kdf_policy: config.kdf_policy,
        });
        server.set_telemetry(telemetry.clone());
        let mut gcm = RendezvousServer::new(GCM_ENDPOINT, seed_rng.next_u64());
        gcm.set_telemetry(telemetry.clone());
        let channel_rng = seed_rng.fork();

        AmnesiaSystem {
            config,
            net,
            server,
            server_seed,
            gcm,
            cloud: CloudProvider::new("sim-cloud"),
            server_id,
            gcm_id,
            phones: BTreeMap::new(),
            browsers: BTreeMap::new(),
            channels: ChannelMap::default(),
            channel_rng,
            sessions: BTreeMap::new(),
            next_session_id: 1,
            inflight: 0,
            seen_drops: 0,
            generation_latencies: Vec::new(),
            faults: Vec::new(),
            metrics: HostMetrics::new(&telemetry, "system"),
            inflight_peak: LazyHandle::new(&telemetry, "system.session.inflight_peak"),
            telemetry,
        }
    }

    // -- topology -----------------------------------------------------------

    /// Registers a browser endpoint with an HTTPS link to the server over
    /// `latency` and a protected channel pair.
    fn wire_browser(&mut self, name: &str, latency: LatencyModel) {
        let id = self.net.register(name);
        let profile = LinkProfile::new(latency);
        self.net.connect_ids(id, self.server_id, profile.clone());
        self.net.connect_ids(self.server_id, id, profile);
        self.channels
            .provision_pair(id, self.server_id, &mut self.channel_rng);
        self.browsers.insert(id, Browser::new(name));
    }

    /// Adds a browser endpoint connected to the server over the profile's
    /// HTTPS link.
    pub fn add_browser(&mut self, name: &str) {
        self.wire_browser(name, self.config.profile.browser_server.clone());
    }

    /// Adds a browser running *on the phone* (paper §III: "The process is
    /// the same for a user using a mobile browser. In this case, the phone
    /// would also take on the role of the PC."): its HTTPS link to the
    /// server uses the phone's access-network latency instead of the
    /// computer's.
    pub fn add_mobile_browser(&mut self, name: &str) {
        self.wire_browser(name, self.config.profile.phone_server.clone());
    }

    /// Installs a phone: endpoint, push link from the rendezvous, direct
    /// link to the server, and a protected phone↔server channel.
    pub fn add_phone(&mut self, name: &str, seed: u64) {
        self.wire_phone(name, seed);
    }

    fn wire_phone(&mut self, name: &str, seed: u64) -> EndpointId {
        let id = self.net.register(name);
        self.net.connect_ids(
            self.gcm_id,
            id,
            LinkProfile::new(self.config.profile.gcm_phone.clone())
                .with_drop_probability(self.config.profile.push_drop_probability),
        );
        self.net.connect_ids(
            id,
            self.server_id,
            LinkProfile::new(self.config.profile.phone_server.clone()),
        );
        self.channels
            .provision_pair(id, self.server_id, &mut self.channel_rng);
        let mut phone =
            AmnesiaPhone::new(PhoneConfig::new(name, seed).with_table_size(self.config.table_size));
        phone.set_telemetry(self.telemetry.clone());
        self.phones.insert(id, phone);
        id
    }

    /// Removes a phone component (a lost/stolen device leaving the
    /// deployment). Its network endpoint remains but nothing handles its
    /// frames.
    pub fn remove_phone(&mut self, name: &str) -> Option<AmnesiaPhone> {
        let id = self.net.endpoint(name)?;
        self.phones.remove(&id)
    }

    /// The id of the endpoint a public method names.
    fn endpoint(&self, name: &str) -> Result<EndpointId, SystemError> {
        self.net
            .endpoint(name)
            .ok_or_else(|| SystemError::UnknownComponent {
                endpoint: name.into(),
            })
    }

    /// `UnknownComponent` for an endpoint that has no live component.
    fn unknown(&self, id: EndpointId) -> SystemError {
        SystemError::UnknownComponent {
            endpoint: self.net.name(id).into(),
        }
    }

    // -- channel plumbing ------------------------------------------------------

    fn seal(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        bytes: Vec<u8>,
    ) -> Result<Vec<u8>, SystemError> {
        if !self.config.secure_channels {
            return Ok(bytes);
        }
        Ok(self.channels.seal(from, to, bytes)?)
    }

    fn open(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<Vec<u8>, SystemError> {
        if !self.config.secure_channels {
            return Ok(bytes.to_vec());
        }
        Ok(self.channels.open(from, to, bytes)?)
    }

    /// Exports the channel keys for one direction — the §IV-A broken-HTTPS
    /// attack model ("the attacker is somehow able to compromise the
    /// connection").
    pub fn export_channel_keys_for_attack_model(
        &self,
        from: &str,
        to: &str,
    ) -> Option<([u8; 32], [u8; 32])> {
        let (from, to) = (self.net.endpoint(from)?, self.net.endpoint(to)?);
        self.channels
            .get(from, to)
            .map(SecureChannel::export_keys_for_attack_model)
    }

    // -- session table ---------------------------------------------------------

    /// Opens a session for `spec` and executes its first actions. The
    /// returned id is also the wire `request_id` of every frame the session
    /// sends.
    fn begin(
        &mut self,
        browser: EndpointId,
        phone: Option<EndpointId>,
        user_id: Option<&str>,
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
                deadline: None,
                window: None,
                confirm_approved: false,
                outcome: None,
                install,
                purge_registration: None,
                span,
            },
        );
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
                    if let Some(entry) = self.sessions.get_mut(&sid) {
                        entry.deadline = Some(deadline);
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
    /// originating agent.
    fn session_send(
        &mut self,
        sid: SessionId,
        origin: Origin,
        message: &ToServer,
    ) -> Result<(), SystemError> {
        let entry = self.sessions.get(&sid).ok_or(SystemError::MissingReply {
            expected: "session",
        })?;
        let from = match origin {
            Origin::Browser => entry.browser,
            Origin::Phone => entry.phone.ok_or_else(|| SystemError::UnknownComponent {
                endpoint: "phone".into(),
            })?,
        };
        let bytes = message.to_wire()?;
        let sealed = self.seal(from, self.server_id, bytes)?;
        self.net
            .transmit(from, self.server_id, sealed, SimDuration::ZERO)?;
        Ok(())
    }

    /// Records a session's terminal result (first writer wins) and settles
    /// its telemetry.
    fn complete(&mut self, sid: SessionId, result: Result<SessionOutcome, SystemError>) {
        let Some(entry) = self.sessions.get_mut(&sid) else {
            return;
        };
        if entry.outcome.is_some() {
            return;
        }
        entry.deadline = None;
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
        self.inflight = self.inflight.saturating_sub(1);
        self.update_inflight_gauge();
    }

    fn update_inflight_gauge(&self) {
        self.metrics.inflight.get().set_u64(self.inflight);
        self.inflight_peak.get().set_max_u64(self.inflight);
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
        let response = match self.phones.get_mut(&phone) {
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

    /// `Action::RegisterPhone`: the phone registers with the rendezvous and
    /// reports its identity for `CompletePhonePairing`.
    fn exec_register_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get_mut(&phone) else {
            return Err(self.unknown(phone));
        };
        let registration_id = agent.register_with_rendezvous(&mut self.gcm);
        Ok(Event::PairingInfo {
            pid: agent.pid().clone(),
            registration_id,
        })
    }

    /// `Action::FetchBackup`: download the user's `Kp` backup from the cloud
    /// and note the to-be-purged rendezvous registration.
    fn exec_fetch_backup(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let user_id = self
            .sessions
            .get(&sid)
            .and_then(|e| e.user_id.clone())
            .ok_or(SystemError::MissingReply {
                expected: "user id",
            })?;
        let backup = AmnesiaPhone::download_backup_from_cloud(&mut self.cloud, &user_id)?;
        let old_registration = self.server.user_record(&user_id)?.registration_id.clone();
        if let Some(entry) = self.sessions.get_mut(&sid) {
            entry.purge_registration = old_registration;
        }
        Ok(Event::BackupFetched(backup))
    }

    /// `Action::InstallPhone`: purge the stolen phone's registration, then
    /// install the replacement device the flow was started with.
    fn exec_install_phone(&mut self, sid: SessionId) -> Result<Event, SystemError> {
        let (install, purge) = match self.sessions.get_mut(&sid) {
            Some(entry) => (entry.install.take(), entry.purge_registration.take()),
            None => (None, None),
        };
        if let Some(reg) = purge {
            self.gcm.unregister(&reg);
        }
        let (name, seed) = install.ok_or(SystemError::MissingReply {
            expected: "replacement phone",
        })?;
        let phone = self.wire_phone(&name, seed);
        if let Some(entry) = self.sessions.get_mut(&sid) {
            entry.phone = Some(phone);
        }
        Ok(Event::PhoneInstalled)
    }

    /// `Action::MintGrant`: the phone mints the §VIII session grant.
    fn exec_mint_grant(&mut self, sid: SessionId, max_uses: u32) -> Result<Event, SystemError> {
        let phone = self.session_phone(sid)?;
        let Some(agent) = self.phones.get_mut(&phone) else {
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

    // -- event loop ------------------------------------------------------------

    /// Drives the network and the given sessions until every one of them is
    /// settled, interleaving frame delivery with timer deadlines: a timer
    /// that expires before the next frame lands fires first, even while the
    /// frame is still in flight (its eventual arrival is then a late
    /// reply). Push drops are attributed when the network goes idle.
    fn drive(&mut self, targets: &[SessionId]) {
        self.drive_until_below(targets, 1);
    }

    /// Like [`drive`](Self::drive), but returns as soon as fewer than
    /// `below` of the targets remain unsettled. `below == 1` runs
    /// everything to completion; `below == targets.len()` returns after
    /// the first settles — how a bounded-in-flight batch driver frees an
    /// admission slot without waiting for the whole window.
    fn drive_until_below(&mut self, targets: &[SessionId], below: usize) {
        let below = below.max(1);
        loop {
            let live: Vec<SessionId> = targets
                .iter()
                .copied()
                .filter(|sid| self.sessions.get(sid).is_some_and(|e| e.outcome.is_none()))
                .collect();
            if live.len() < below {
                return;
            }

            let next_deadline = live
                .iter()
                .filter_map(|sid| self.sessions.get(sid).and_then(|e| e.deadline))
                .min();

            // Deliver every frame scheduled no later than the earliest
            // deadline in one tight batch. The cached minimum stays a valid
            // bound for the whole batch: every session re-arms with the same
            // configured timeout, so a re-arm during the batch lands at
            // `frame time + timeout` — never before an already-armed
            // deadline — and completions only clear deadlines.
            let mut delivered_any = false;
            while let Some(frame_at) = self.net.next_delivery_at() {
                if next_deadline.is_some_and(|deadline| deadline < frame_at) {
                    break;
                }
                self.deliver_one_frame();
                delivered_any = true;
                // When the caller only waits for a slot to free up, hand
                // control back per frame so a settle is noticed promptly.
                if below > 1 {
                    break;
                }
            }
            if delivered_any {
                continue; // re-derive live sessions and the deadline
            }

            match self.net.next_delivery_at() {
                // A deadline strictly before the next delivery expires now;
                // the in-flight frame will be counted late on arrival.
                Some(_) => {
                    if let Some(deadline) = next_deadline {
                        self.fire_timers(&live, deadline);
                    }
                }
                None => {
                    // Push loss: the only lossy leg is rendezvous → phone, so
                    // when the network is idle, new drops mean some
                    // awaiting-push session's push is gone. Let every exposed
                    // session react (a session whose push actually arrived
                    // ignores the retry hint at worst by re-sending; with
                    // per-session drop bookkeeping the sim profiles used by
                    // the tests never hit that case).
                    let dropped = self.net.dropped_count();
                    if dropped > self.seen_drops {
                        self.seen_drops = dropped;
                        let mut fired = false;
                        for sid in &live {
                            let exposed = self
                                .sessions
                                .get(sid)
                                .is_some_and(|e| e.engine.awaits_push());
                            if exposed {
                                fired = true;
                                self.feed(*sid, Event::PushDropped);
                            }
                        }
                        if fired {
                            continue;
                        }
                    }
                    match next_deadline {
                        Some(deadline) => self.fire_timers(&live, deadline),
                        None => {
                            // No timer armed and nothing in flight: the flow
                            // can never finish. Fail every remaining session
                            // with the reply it was waiting for.
                            for sid in live {
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

    /// Advances simulated time to `deadline` and feeds `TimerFired` to every
    /// live session whose deadline has passed.
    fn fire_timers(&mut self, live: &[SessionId], deadline: SimInstant) {
        let now = self.net.now();
        if deadline > now {
            self.net.advance(deadline.duration_since(now));
        }
        let now = self.net.now();
        for sid in live {
            let expired = self
                .sessions
                .get(sid)
                .and_then(|e| e.deadline)
                .is_some_and(|d| d <= now);
            if expired {
                self.metrics.timeouts.get().inc();
                self.feed(*sid, Event::TimerFired);
            }
        }
    }

    /// Delivers and dispatches the single earliest pending frame, recording
    /// component-level rejections as faults (same policy as [`pump`](Self::pump)).
    fn deliver_one_frame(&mut self) {
        if let Some(frame) = self.net.step() {
            self.dispatch_or_fault(frame);
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

    /// Removes a settled session, returning its result and the attributed
    /// §VI-B latency window (if a `PasswordReady` was routed to it).
    fn finish_session(
        &mut self,
        sid: SessionId,
    ) -> (Result<SessionOutcome, SystemError>, Option<SimDuration>) {
        match self.sessions.remove(&sid) {
            Some(entry) => {
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

    // -- dispatch ----------------------------------------------------------------

    /// Delivers and dispatches frames until the network is idle.
    ///
    /// Component-level rejections (unknown registrations, malformed pushes,
    /// replayed tokens) are recorded in [`faults`](Self::faults) rather than
    /// aborting the pump — on a real network they are just dropped traffic.
    pub fn pump(&mut self) {
        while let Some(frame) = self.net.step() {
            self.dispatch_or_fault(frame);
        }
    }

    /// The frame's time on the wire — the per-leg latency attributed to the
    /// protocol step the frame carries.
    fn leg_micros(frame: &Frame) -> u64 {
        (frame.delivered_at - frame.sent_at).as_micros()
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), SystemError> {
        if frame.to == self.server_id {
            self.dispatch_to_server(frame)
        } else if frame.to == self.gcm_id {
            // Step 2 leg of Fig. 1: the server's push travelling to the
            // rendezvous service.
            self.metrics.step2.get().record(Self::leg_micros(&frame));
            self.gcm
                .handle_frame(&frame, &mut self.net)
                .map(|_| ())
                .map_err(|e| SystemError::ServerRejected {
                    message: format!("rendezvous: {e}"),
                })
        } else if self.phones.contains_key(&frame.to) {
            self.dispatch_to_phone(frame)
        } else if self.browsers.contains_key(&frame.to) {
            self.dispatch_to_browser(frame)
        } else {
            // Endpoint exists but no live component (e.g. removed phone).
            Err(self.unknown(frame.to))
        }
    }

    fn dispatch_to_server(&mut self, frame: Frame) -> Result<(), SystemError> {
        let plaintext = self.open(frame.from, self.server_id, &frame.payload)?;
        let message = ToServer::from_wire(&plaintext)?;
        // Per-request server compute (deriving R, assembling the password) is
        // modelled as a delay on this request's *outgoing* frames, not as a
        // global clock advance: the server handles concurrent requests on
        // independent workers, so one session's compute must not inflate
        // every other in-flight session's measured window.
        let compute = match &message {
            ToServer::RequestPassword { .. } => {
                // Step 1 of Fig. 1: the browser's request reaching the server.
                self.metrics.step1.get().record(Self::leg_micros(&frame));
                self.config.profile.request_compute
            }
            ToServer::Token(_) => {
                // Step 4 leg (token upload) and step 5 (password assembly,
                // modelled as the configured compute delay).
                self.metrics.step4.get().record(Self::leg_micros(&frame));
                self.metrics
                    .step5
                    .get()
                    .record(self.config.profile.password_compute.as_micros());
                self.config.profile.password_compute
            }
            _ => SimDuration::ZERO,
        };
        // The server's view of time includes its own compute on this request.
        let now = self.net.now() + compute;
        let reaction = self.server.handle_message(message, now);
        if let Some(push) = reaction.push {
            self.net
                .transmit(self.server_id, self.gcm_id, push.to_wire()?, compute)?;
        }
        for (dest, reply) in reaction.replies {
            if let FromServer::PasswordReady { requested_at, .. } = &reply.message {
                let latency = now.duration_since(*requested_at);
                self.metrics.window.get().record(latency.as_micros());
                self.generation_latencies.push(latency);
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
            let bytes = reply.to_wire()?;
            let sealed = self.seal(self.server_id, to, bytes)?;
            self.net.transmit(self.server_id, to, sealed, compute)?;
        }
        Ok(())
    }

    fn dispatch_to_phone(&mut self, frame: Frame) -> Result<(), SystemError> {
        // Step 3 of Fig. 1: the rendezvous push arriving at the phone.
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
                // If the owning session's user already approved (the
                // RequestPushed ack beat the push here), confirm now.
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

    /// Seals and sends a confirmed token upload, delayed by the phone's
    /// Algorithm 1 compute time (the phone works on its own core; its
    /// compute must not pause the rest of the simulation).
    fn send_token_from_phone(
        &mut self,
        phone: EndpointId,
        response: amnesia_server::protocol::TokenResponse,
    ) -> Result<(), SystemError> {
        let bytes = ToServer::Token(response).to_wire()?;
        let sealed = self.seal(phone, self.server_id, bytes)?;
        self.net.transmit(
            phone,
            self.server_id,
            sealed,
            self.config.profile.token_compute,
        )?;
        Ok(())
    }

    fn dispatch_to_browser(&mut self, frame: Frame) -> Result<(), SystemError> {
        let plaintext = self.open(frame.from, frame.to, &frame.payload)?;
        let reply = Reply::from_wire(&plaintext)?;
        if matches!(reply.message, FromServer::PasswordReady { .. }) {
            // Step 6 of Fig. 1: the assembled password reaching the browser.
            self.metrics.step6.get().record(Self::leg_micros(&frame));
        }
        match self.browsers.get_mut(&frame.to) {
            Some(browser) => browser.handle_reply(reply.message.clone()),
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

    // -- flow helpers --------------------------------------------------------------

    /// Runs one session to completion and returns its outcome.
    fn run_flow(
        &mut self,
        browser: &str,
        phone: Option<&str>,
        user_id: Option<&str>,
        spec: FlowSpec,
        attempts: u32,
        install: Option<(String, u64)>,
    ) -> Result<SessionOutcome, SystemError> {
        let (browser, phone) = self.endpoints(browser, phone)?;
        let sid = self.begin(browser, phone, user_id, spec, attempts, install)?;
        self.drive(&[sid]);
        self.finish_session(sid).0
    }

    /// Resolves a flow's browser and phone names, browser first.
    fn endpoints(
        &self,
        browser: &str,
        phone: Option<&str>,
    ) -> Result<(EndpointId, Option<EndpointId>), SystemError> {
        let browser = self.endpoint(browser)?;
        let phone = phone.map(|name| self.endpoint(name)).transpose()?;
        Ok((browser, phone))
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
            1,
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
            1,
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
            1,
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
        match self.run_flow(browser, None, None, FlowSpec::ListAccounts, 1, None)? {
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
            1,
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
        let (browser, phone) = self.endpoints(browser, Some(phone))?;
        let sid = self.begin(
            browser,
            phone,
            None,
            FlowSpec::Generate {
                username: username.clone(),
                domain: domain.clone(),
            },
            attempts,
            None,
        )?;
        self.drive(&[sid]);
        let (result, window) = self.finish_session(sid);
        match result? {
            SessionOutcome::Password {
                account,
                password,
                requested_at,
            } => Ok(GenerationOutcome {
                account,
                password,
                latency: window.unwrap_or_else(|| self.net.now().duration_since(requested_at)),
            }),
            _ => Err(SystemError::MissingReply {
                expected: "PasswordReady",
            }),
        }
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
        let cap = self.config.max_inflight.max(1);
        let mut slots: Vec<Result<SessionId, SystemError>> = Vec::with_capacity(requests.len());
        let mut live: Vec<SessionId> = Vec::new();
        for request in requests {
            while live.len() >= cap {
                self.drive_until_below(&live, live.len());
                live.retain(|sid| self.sessions.get(sid).is_some_and(|e| e.outcome.is_none()));
            }
            let slot = self
                .endpoints(&request.browser, Some(&request.phone))
                .and_then(|(browser, phone)| {
                    self.begin(
                        browser,
                        phone,
                        None,
                        FlowSpec::Generate {
                            username: request.username.clone(),
                            domain: request.domain.clone(),
                        },
                        attempts,
                        None,
                    )
                });
            if let Ok(sid) = &slot {
                live.push(*sid);
            }
            slots.push(slot);
        }
        self.drive(&live);
        slots
            .into_iter()
            .map(|slot| {
                let sid = slot?;
                let (result, window) = self.finish_session(sid);
                match result? {
                    SessionOutcome::Password {
                        account,
                        password,
                        requested_at,
                    } => Ok(GenerationOutcome {
                        account,
                        password,
                        latency: window
                            .unwrap_or_else(|| self.net.now().duration_since(requested_at)),
                    }),
                    _ => Err(SystemError::MissingReply {
                        expected: "PasswordReady",
                    }),
                }
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
            1,
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
            1,
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
    /// Propagates rejections anywhere along the flow.
    pub fn recover_phone(
        &mut self,
        user_id: &str,
        master_password: &str,
        browser: &str,
        new_phone: &str,
        new_phone_seed: u64,
    ) -> Result<RecoveryOutcome, SystemError> {
        // The replacement is installed mid-flow, after the server accepted
        // the backup and the old registration is purged; a name already
        // taken must fail here, before anything changes.
        if self.net.has_endpoint(new_phone) {
            return Err(NetError::DuplicateEndpoint {
                name: new_phone.into(),
            }
            .into());
        }
        match self.run_flow(
            browser,
            None,
            Some(user_id),
            FlowSpec::Recover {
                user_id: user_id.into(),
                master_password: master_password.into(),
            },
            1,
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
            1,
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
        &self.config
    }

    /// The seed the Amnesia server was constructed with (drawn from the
    /// deployment seed), for building a byte-identical server in another
    /// runtime.
    pub fn server_seed(&self) -> u64 {
        self.server_seed
    }

    /// The simulated network (attach wiretaps here).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.net.now()
    }

    /// The Amnesia server.
    pub fn server(&self) -> &AmnesiaServer {
        &self.server
    }

    /// Mutable access to the server (attack models, direct inspection).
    pub fn server_mut(&mut self) -> &mut AmnesiaServer {
        &mut self.server
    }

    /// The rendezvous service.
    pub fn gcm_mut(&mut self) -> &mut RendezvousServer {
        &mut self.gcm
    }

    /// The cloud provider.
    pub fn cloud_mut(&mut self) -> &mut CloudProvider {
        &mut self.cloud
    }

    /// A phone agent by endpoint name.
    pub fn phone(&self, name: &str) -> Option<&AmnesiaPhone> {
        self.phones.get(&self.net.endpoint(name)?)
    }

    /// Mutable phone access (confirmation policies, compromise models).
    pub fn phone_mut(&mut self, name: &str) -> Option<&mut AmnesiaPhone> {
        self.phones.get_mut(&self.net.endpoint(name)?)
    }

    /// A browser by endpoint name.
    pub fn browser_ref(&self, name: &str) -> Option<&Browser> {
        self.browsers.get(&self.net.endpoint(name)?)
    }

    /// Measured generation latencies, in completion order (the Figure 3
    /// samples).
    pub fn generation_latencies(&self) -> &[SimDuration] {
        &self.generation_latencies
    }

    /// Dispatch faults recorded during pumping (dropped/rejected traffic).
    pub fn faults(&self) -> &[String] {
        &self.faults
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
            let counter = self.telemetry.counter(name);
            counter.add(current.saturating_sub(counter.get()));
        }
        self.telemetry
            .gauge("crypto.pbkdf2.threads")
            .set_u64(amnesia_crypto::stats::pbkdf2_threads());
        self.telemetry
            .gauge("crypto.scrypt.lane_workers")
            .set_u64(amnesia_crypto::stats::scrypt_lane_workers());
        &self.telemetry
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
        for _ in 0..5 {
            sys.generate_password("browser", "phone", &u, &d).unwrap();
        }
        assert_eq!(sys.generation_latencies().len(), 5);
        for l in sys.generation_latencies() {
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
        assert_eq!(latencies.as_slice(), sys.generation_latencies());
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

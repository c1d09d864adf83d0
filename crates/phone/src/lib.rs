//! The Amnesia mobile application (paper §III-A3, §V-B).
//!
//! The phone holds the **phone-side secret** `Kp = (Pid, TE)`: a 512-bit
//! phone ID regenerated on every install, and an entry table of `N = 5000`
//! random 256-bit values (Table II). Its runtime components mirror the
//! Android prototype's three services:
//!
//! * a **push listener** ([`AmnesiaPhone::handle_push`]) standing in for the
//!   GCM service listener — it raises a notification showing the request's
//!   origin (Fig. 2b) and, once the user confirms, hands the request to
//! * the **cryptography service** ([`AmnesiaPhone::compute_token`]) —
//!   Algorithm 1 over the entry table, and
//! * the **database handler** — `Kp` persisted through `amnesia-store`
//!   ([`AmnesiaPhone::save_to`] / [`AmnesiaPhone::open`]), the stand-in for
//!   the prototype's SQLite database.
//!
//! User interaction is modelled by a [`ConfirmPolicy`]: interactive tests
//! queue pushes for explicit confirmation; the Figure 3 latency experiment
//! uses [`ConfirmPolicy::AutoConfirm`], exactly matching the paper's
//! modified build ("we removed the user verification notification ... and
//! made the phone automatically compute T").
//!
//! # Example
//!
//! ```
//! use amnesia_phone::{AmnesiaPhone, PhoneConfig};
//! use amnesia_core::{Domain, PasswordRequest, Seed, Username};
//! use amnesia_crypto::SecretRng;
//!
//! let mut phone = AmnesiaPhone::new(PhoneConfig::new("phone", 7));
//! let mut rng = SecretRng::seeded(9);
//! let request = PasswordRequest::derive(
//!     &Username::new("alice")?,
//!     &Domain::new("example.com")?,
//!     &Seed::random(&mut rng),
//! );
//! let token = phone.compute_token(&request)?;
//! assert_eq!(token.as_bytes().len(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amnesia_cloud::{CloudError, CloudProvider};
use amnesia_core::{CoreError, EntryTable, PasswordRequest, PhoneId, Token};
use amnesia_crypto::SecretRng;
use amnesia_net::SimInstant;
use amnesia_rendezvous::{RegistrationId, RendezvousServer};
use amnesia_server::protocol::{KpBackup, PhonePush, SessionGrantToken, TokenResponse};
use amnesia_store::{codec, Database};
use amnesia_telemetry::{Counter, HistogramHandle, LazyHandle, Registry};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Object key under which the phone stores its cloud backup.
pub const BACKUP_OBJECT_KEY: &str = "amnesia-kp-backup";

/// Errors produced by the phone agent.
#[derive(Debug)]
#[non_exhaustive]
pub enum PhoneError {
    /// A pushed payload failed to decode.
    MalformedPush(codec::CodecError),
    /// The application has not registered with the rendezvous service yet.
    NotRegistered,
    /// No pending confirmation exists for the given request.
    NoSuchPending,
    /// A core-algorithm failure (empty entry table, …).
    Core(CoreError),
    /// Cloud backup/restore failed.
    Cloud(CloudError),
    /// Persistence failed.
    Store(String),
}

impl fmt::Display for PhoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhoneError::MalformedPush(e) => write!(f, "malformed push payload: {e}"),
            PhoneError::NotRegistered => write!(f, "application is not registered"),
            PhoneError::NoSuchPending => write!(f, "no matching pending confirmation"),
            PhoneError::Core(e) => write!(f, "core error: {e}"),
            PhoneError::Cloud(e) => write!(f, "cloud error: {e}"),
            PhoneError::Store(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl Error for PhoneError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PhoneError::MalformedPush(e) => Some(e),
            PhoneError::Core(e) => Some(e),
            PhoneError::Cloud(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for PhoneError {
    fn from(e: CoreError) -> Self {
        PhoneError::Core(e)
    }
}

impl From<CloudError> for PhoneError {
    fn from(e: CloudError) -> Self {
        PhoneError::Cloud(e)
    }
}

/// How the simulated user responds to password-request notifications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConfirmPolicy {
    /// Queue each push and wait for [`AmnesiaPhone::confirm_request`] —
    /// the normal interactive behaviour (Fig. 2b).
    #[default]
    Manual,
    /// Compute and return the token immediately — the paper's instrumented
    /// latency build (§VI-B).
    AutoConfirm,
    /// Reject every request — models a vigilant user dismissing the
    /// suspicious unsolicited requests of §IV-C.
    AutoReject,
}

/// How many notifications the phone's tray keeps: the most recent ones,
/// oldest first. [`AmnesiaPhone::notifications_raised`] counts every
/// notification over the phone's lifetime.
pub const NOTIFICATION_TRAY: usize = 16;

/// A notification raised for the user, mirroring Fig. 2(b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// Origin string carried in the push (requesting browser/IP).
    pub origin: String,
    /// When the push arrived at the phone.
    pub arrived_at: SimInstant,
}

/// What [`AmnesiaPhone::handle_push`] decided.
#[derive(Debug, PartialEq)]
pub enum PushOutcome {
    /// Token computed (auto-confirm policy); send this to the server.
    Respond(TokenResponse),
    /// Notification raised; awaiting user confirmation of the push
    /// carrying this correlation id.
    AwaitingConfirmation {
        /// The push's [`PhonePush::request_id`].
        request_id: u64,
    },
    /// The (simulated) user rejected the request.
    Rejected,
}

/// Phone deployment parameters.
#[derive(Clone, Debug)]
pub struct PhoneConfig {
    /// Network endpoint name of this phone.
    pub endpoint: String,
    /// Seed for `Kp` generation.
    pub seed: u64,
    /// Entry-table size `N` (paper default 5000).
    pub table_size: usize,
}

impl PhoneConfig {
    /// Config with the paper's `N = 5000`.
    pub fn new(endpoint: impl Into<String>, seed: u64) -> Self {
        PhoneConfig {
            endpoint: endpoint.into(),
            seed,
            table_size: EntryTable::DEFAULT_SIZE,
        }
    }

    /// Overrides the entry-table size (ablation experiments).
    pub fn with_table_size(mut self, table_size: usize) -> Self {
        self.table_size = table_size;
        self
    }
}

/// The phone's metric handles, each registered at its first event and kept,
/// so a push costs no name lookup.
struct PhoneMetrics {
    pushes_received: LazyHandle<Counter>,
    tokens_computed: LazyHandle<Counter>,
    confirm_latency: LazyHandle<HistogramHandle>,
}

impl PhoneMetrics {
    fn new(registry: &Registry) -> Self {
        PhoneMetrics {
            pushes_received: LazyHandle::new(registry, "phone.pushes_received"),
            tokens_computed: LazyHandle::new(registry, "phone.tokens_computed"),
            confirm_latency: LazyHandle::new(registry, "phone.confirm_latency_us"),
        }
    }
}

/// The Amnesia mobile application agent.
pub struct AmnesiaPhone {
    config: PhoneConfig,
    pid: PhoneId,
    table: EntryTable,
    registration_id: Option<RegistrationId>,
    policy: ConfirmPolicy,
    pending: Vec<PhonePush>,
    /// The tray: a fixed ring of the last [`NOTIFICATION_TRAY`]
    /// notifications, oldest first; a new notification overwrites the
    /// oldest in place, reusing its text buffer, once the ring is full.
    notifications: Vec<Notification>,
    notifications_raised: u64,
    tokens_computed: u64,
    session_grant: Option<(SessionGrantToken, u32)>,
    metrics: PhoneMetrics,
}

impl fmt::Debug for AmnesiaPhone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmnesiaPhone")
            .field("endpoint", &self.config.endpoint)
            .field("table_size", &self.table.len())
            .field("registered", &self.registration_id.is_some())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl AmnesiaPhone {
    /// Installs the application: generates a fresh `Kp = (Pid, TE)`.
    ///
    /// # Panics
    ///
    /// Panics if `config.table_size` is zero or exceeds the 4-hex-digit
    /// address space (`16^4`).
    pub fn new(config: PhoneConfig) -> Self {
        let mut rng = SecretRng::seeded(config.seed);
        let pid = PhoneId::random(&mut rng);
        let table = EntryTable::random(&mut rng, config.table_size);
        AmnesiaPhone {
            config,
            pid,
            table,
            registration_id: None,
            policy: ConfirmPolicy::default(),
            pending: Vec::new(),
            notifications: Vec::new(),
            notifications_raised: 0,
            tokens_computed: 0,
            session_grant: None,
            metrics: PhoneMetrics::new(&Registry::new()),
        }
    }

    /// Replaces the metrics registry this phone records into (`phone.*`
    /// counters and the push-to-confirm latency histogram).
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.metrics = PhoneMetrics::new(&registry);
    }

    /// The phone's network endpoint name.
    pub fn endpoint(&self) -> &str {
        &self.config.endpoint
    }

    /// The phone ID `Pid` (the phone legitimately knows its own secret; the
    /// server only ever sees its hash except during pairing and recovery
    /// proofs).
    pub fn pid(&self) -> &PhoneId {
        &self.pid
    }

    /// The entry table `TE`.
    pub fn entry_table(&self) -> &EntryTable {
        &self.table
    }

    /// The rendezvous registration ID, once registered.
    pub fn registration_id(&self) -> Option<&RegistrationId> {
        self.registration_id.as_ref()
    }

    /// Sets the user-confirmation policy.
    pub fn set_confirm_policy(&mut self, policy: ConfirmPolicy) {
        self.policy = policy;
    }

    /// Registers with the rendezvous service, obtaining the registration ID
    /// that the Amnesia server will push to.
    pub fn register_with_rendezvous(&mut self, gcm: &mut RendezvousServer) -> RegistrationId {
        let id = gcm.register_device(&self.config.endpoint);
        self.registration_id = Some(id.clone());
        id
    }

    /// Computes the token `T` for a request via Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::Core`] if the entry table is unusable.
    pub fn compute_token(&mut self, request: &PasswordRequest) -> Result<Token, PhoneError> {
        let token = self.table.token(request)?;
        self.tokens_computed += 1;
        self.metrics.tokens_computed.get().inc();
        Ok(token)
    }

    /// Records how long a push waited between leaving the server (`tstart`)
    /// and being confirmed on the phone at `now`.
    fn note_confirm_latency(&self, tstart: SimInstant, now: SimInstant) {
        self.metrics
            .confirm_latency
            .get()
            .record(now.as_micros().saturating_sub(tstart.as_micros()));
    }

    /// Handles a push delivered from the rendezvous service.
    ///
    /// Decodes the [`PhonePush`], raises a notification, and applies the
    /// confirmation policy.
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::NotRegistered`] before registration and
    /// [`PhoneError::MalformedPush`] for undecodable payloads.
    pub fn handle_push(
        &mut self,
        payload: &[u8],
        now: SimInstant,
    ) -> Result<PushOutcome, PhoneError> {
        if self.registration_id.is_none() {
            return Err(PhoneError::NotRegistered);
        }
        let push = PhonePush::from_wire(payload).map_err(PhoneError::MalformedPush)?;
        self.metrics.pushes_received.get().inc();
        self.notify(&push.origin, now);
        // Session-mechanism extension (§VIII): a push carrying a grant this
        // phone issued (with uses remaining) auto-confirms, sparing the user
        // one interaction. The phone's count is authoritative.
        if let Some(grant) = &push.session_grant {
            if self.redeem_session_grant(grant) {
                let token = self.compute_token(&push.request)?;
                self.note_confirm_latency(push.tstart, now);
                return Ok(PushOutcome::Respond(TokenResponse {
                    request_id: push.request_id,
                    request: push.request,
                    token,
                    tstart: push.tstart,
                }));
            }
        }
        match self.policy {
            ConfirmPolicy::AutoConfirm => {
                let token = self.compute_token(&push.request)?;
                self.note_confirm_latency(push.tstart, now);
                Ok(PushOutcome::Respond(TokenResponse {
                    request_id: push.request_id,
                    request: push.request,
                    token,
                    tstart: push.tstart,
                }))
            }
            ConfirmPolicy::AutoReject => Ok(PushOutcome::Rejected),
            ConfirmPolicy::Manual => {
                let request_id = push.request_id;
                self.pending.push(push);
                Ok(PushOutcome::AwaitingConfirmation { request_id })
            }
        }
    }

    /// Puts a notification for a push from `origin` in the tray, evicting
    /// the oldest once the tray is full.
    fn notify(&mut self, origin: &str, now: SimInstant) {
        self.notifications_raised += 1;
        if self.notifications.len() < NOTIFICATION_TRAY {
            self.notifications.push(Notification {
                origin: origin.to_string(),
                arrived_at: now,
            });
            return;
        }
        if let Some(oldest) = self.notifications.first_mut() {
            oldest.origin.clear();
            oldest.origin.push_str(origin);
            oldest.arrived_at = now;
        }
        self.notifications.rotate_left(1);
    }

    /// Pending confirmations, oldest first.
    pub fn pending_requests(&self) -> &[PhonePush] {
        &self.pending
    }

    /// The user taps "accept" on the pending push carrying `request_id` —
    /// how a host with many sessions in flight approves the one push
    /// belonging to a particular session without guessing queue positions.
    /// Records the push-to-confirm latency (`now - tstart`) in the phone's
    /// telemetry, the simulated analogue of how long the notification sat
    /// in the tray.
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::NoSuchPending`] when no pending push carries
    /// that id.
    pub fn confirm_request(
        &mut self,
        request_id: u64,
        now: SimInstant,
    ) -> Result<TokenResponse, PhoneError> {
        let index = self
            .pending
            .iter()
            .position(|push| push.request_id == request_id)
            .ok_or(PhoneError::NoSuchPending)?;
        let push = self.pending.remove(index);
        let token = self.compute_token(&push.request)?;
        self.note_confirm_latency(push.tstart, now);
        Ok(TokenResponse {
            request_id: push.request_id,
            request: push.request,
            token,
            tstart: push.tstart,
        })
    }

    /// The notification tray, mirroring Android's: the last
    /// [`NOTIFICATION_TRAY`] notifications, most recent last.
    pub fn notifications(&self) -> &[Notification] {
        &self.notifications
    }

    /// Notifications raised over the phone's lifetime, including those the
    /// tray has since evicted.
    pub fn notifications_raised(&self) -> u64 {
        self.notifications_raised
    }

    /// Tokens computed over the phone's lifetime.
    pub fn tokens_computed(&self) -> u64 {
        self.tokens_computed
    }

    // -- session mechanism (§VIII extension) ---------------------------------

    /// The user enables a generation session on the device: mints a grant
    /// valid for `max_uses` auto-confirmed generations. The caller transmits
    /// it to the server via `ToServer::SessionGrant`.
    ///
    /// # Panics
    ///
    /// Panics if `max_uses` is zero (a zero-use session is a UI bug).
    pub fn grant_session(&mut self, max_uses: u32, rng: &mut SecretRng) -> SessionGrantToken {
        assert!(max_uses > 0, "session must allow at least one use");
        let token = SessionGrantToken(rng.bytes::<16>().to_vec());
        self.session_grant = Some((token.clone(), max_uses));
        token
    }

    /// Remaining auto-confirm uses on the active grant (0 when none).
    pub fn session_grant_remaining(&self) -> u32 {
        self.session_grant
            .as_ref()
            .map(|(_, remaining)| *remaining)
            .unwrap_or(0)
    }

    /// The user revokes the session early.
    pub fn revoke_session(&mut self) {
        self.session_grant = None;
    }

    /// Consumes one use if `grant` matches the active grant.
    fn redeem_session_grant(&mut self, grant: &SessionGrantToken) -> bool {
        match &mut self.session_grant {
            Some((active, remaining)) if active == grant && *remaining > 0 => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.session_grant = None;
                }
                true
            }
            _ => false,
        }
    }

    // -- backup and persistence ---------------------------------------------

    /// Serializes `Kp` for backup (§III-C1: `Pid` and the entry table).
    pub fn create_backup(&self) -> KpBackup {
        KpBackup {
            pid: self.pid.clone(),
            entries: self.table.iter().cloned().collect(),
        }
    }

    /// Performs the one-time backup of `Kp` to a third-party cloud provider
    /// under the user's bucket.
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::Cloud`] if the provider is unavailable.
    pub fn backup_to_cloud(
        &self,
        provider: &mut CloudProvider,
        user: &str,
    ) -> Result<(), PhoneError> {
        let bytes = self
            .create_backup()
            .to_wire()
            .map_err(|e| PhoneError::Store(e.to_string()))?;
        provider.upload(user, BACKUP_OBJECT_KEY, bytes)?;
        Ok(())
    }

    /// Downloads a previously uploaded `Kp` backup — what the *user* does
    /// during phone recovery before uploading it to the Amnesia server.
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::Cloud`] when the provider is unavailable or the
    /// backup is missing, and [`PhoneError::Store`] for undecodable backups.
    pub fn download_backup_from_cloud(
        provider: &mut CloudProvider,
        user: &str,
    ) -> Result<KpBackup, PhoneError> {
        let bytes = provider.download(user, BACKUP_OBJECT_KEY)?;
        KpBackup::from_wire(&bytes).map_err(|e| PhoneError::Store(e.to_string()))
    }

    /// Persists `Kp` to an `amnesia-store` snapshot (the SQLite stand-in).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), PhoneError> {
        let db = Database::in_memory();
        db.table::<String, KpBackup>("kp")
            .insert(&"kp".to_string(), &self.create_backup())
            .map_err(|e| PhoneError::Store(e.to_string()))?;
        db.save_to(path)
            .map_err(|e| PhoneError::Store(e.to_string()))
    }

    /// Reopens a phone from a persisted `Kp` (same installation, so the
    /// registration ID must be re-established with the rendezvous service).
    ///
    /// # Errors
    ///
    /// Returns [`PhoneError::Store`] for missing/corrupt files.
    pub fn open(config: PhoneConfig, path: impl AsRef<Path>) -> Result<Self, PhoneError> {
        let db = Database::open(path).map_err(|e| PhoneError::Store(e.to_string()))?;
        let backup: KpBackup = db
            .table::<String, KpBackup>("kp")
            .get(&"kp".to_string())
            .map_err(|e| PhoneError::Store(e.to_string()))?
            .ok_or_else(|| PhoneError::Store("no Kp record in snapshot".into()))?;
        let table = EntryTable::from_entries(backup.entries)?;
        Ok(AmnesiaPhone {
            config,
            pid: backup.pid,
            table,
            registration_id: None,
            policy: ConfirmPolicy::default(),
            pending: Vec::new(),
            notifications: Vec::new(),
            notifications_raised: 0,
            tokens_computed: 0,
            session_grant: None,
            metrics: PhoneMetrics::new(&Registry::new()),
        })
    }

    /// Renders the application-side data in the layout of the paper's
    /// **Table II**.
    pub fn render_table_ii(&self) -> String {
        fn trunc(hexstr: &str) -> String {
            format!("0x{}...", &hexstr[..7.min(hexstr.len())])
        }
        let mut out = String::new();
        out.push_str("Data   | Value\n");
        out.push_str("-------+-------------\n");
        // lint: allow(secret-format) paper-style render of the truncated Pid
        out.push_str(&format!("Pid    | {}\n", trunc(&self.pid.to_hex())));
        let n = self.table.len();
        for (i, entry) in self.table.iter().enumerate() {
            if i < 2 || i + 1 == n {
                out.push_str(&format!("e{:<5} | {}\n", i + 1, trunc(&entry.to_hex())));
            } else if i == 2 {
                out.push_str("...    | ...\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::{Domain, Seed, Username};
    use amnesia_net::SimDuration;

    fn push_bytes(seed: u64) -> (PhonePush, Vec<u8>) {
        let mut rng = SecretRng::seeded(seed);
        let push = PhonePush {
            request_id: seed,
            request: PasswordRequest::derive(
                &Username::new("u").unwrap(),
                &Domain::new("d.com").unwrap(),
                &Seed::random(&mut rng),
            ),
            origin: "198.51.100.7".into(),
            tstart: SimInstant::EPOCH,
            session_grant: None,
        };
        let bytes = push.to_wire().unwrap();
        (push, bytes)
    }

    fn registered_phone(seed: u64) -> AmnesiaPhone {
        let mut phone = AmnesiaPhone::new(PhoneConfig::new("phone", seed).with_table_size(64));
        let mut gcm = RendezvousServer::new("gcm", 1);
        phone.register_with_rendezvous(&mut gcm);
        phone
    }

    #[test]
    fn install_generates_fresh_kp() {
        let a = AmnesiaPhone::new(PhoneConfig::new("p", 1).with_table_size(16));
        let b = AmnesiaPhone::new(PhoneConfig::new("p", 2).with_table_size(16));
        assert_ne!(a.pid(), b.pid());
        assert_ne!(a.entry_table(), b.entry_table());
        assert_eq!(a.entry_table().len(), 16);
    }

    #[test]
    fn default_table_size_is_paper_n() {
        let phone = AmnesiaPhone::new(PhoneConfig::new("p", 3));
        assert_eq!(phone.entry_table().len(), 5000);
    }

    #[test]
    fn unregistered_phone_rejects_pushes() {
        let mut phone = AmnesiaPhone::new(PhoneConfig::new("p", 4).with_table_size(16));
        let (_, bytes) = push_bytes(10);
        assert!(matches!(
            phone.handle_push(&bytes, SimInstant::EPOCH),
            Err(PhoneError::NotRegistered)
        ));
    }

    #[test]
    fn manual_policy_queues_until_confirmed() {
        let mut phone = registered_phone(5);
        let (push, bytes) = push_bytes(11);
        let outcome = phone.handle_push(&bytes, SimInstant::EPOCH).unwrap();
        assert_eq!(
            outcome,
            PushOutcome::AwaitingConfirmation {
                request_id: push.request_id
            }
        );
        assert_eq!(phone.pending_requests().len(), 1);
        assert_eq!(phone.notifications().len(), 1);
        assert_eq!(phone.notifications()[0].origin, "198.51.100.7");

        let response = phone
            .confirm_request(push.request_id, SimInstant::EPOCH)
            .unwrap();
        assert_eq!(response.request, push.request);
        assert!(phone.pending_requests().is_empty());
        assert_eq!(phone.tokens_computed(), 1);
    }

    #[test]
    fn auto_confirm_matches_direct_computation() {
        let mut phone = registered_phone(6);
        phone.set_confirm_policy(ConfirmPolicy::AutoConfirm);
        let (push, bytes) = push_bytes(12);
        let outcome = phone.handle_push(&bytes, SimInstant::EPOCH).unwrap();
        let expected = phone.entry_table().token(&push.request).unwrap();
        match outcome {
            PushOutcome::Respond(resp) => {
                assert_eq!(resp.token, expected);
                assert_eq!(resp.tstart, push.tstart);
            }
            other => panic!("expected Respond, got {other:?}"),
        }
    }

    #[test]
    fn auto_reject_discards() {
        let mut phone = registered_phone(7);
        phone.set_confirm_policy(ConfirmPolicy::AutoReject);
        let (_, bytes) = push_bytes(13);
        assert_eq!(
            phone.handle_push(&bytes, SimInstant::EPOCH).unwrap(),
            PushOutcome::Rejected
        );
        assert!(phone.pending_requests().is_empty());
        assert_eq!(phone.tokens_computed(), 0);
        // The user still saw the suspicious notification (§IV-C).
        assert_eq!(phone.notifications().len(), 1);
    }

    #[test]
    fn the_tray_keeps_the_latest_notifications_and_counts_them_all() {
        let mut phone = registered_phone(8);
        phone.set_confirm_policy(ConfirmPolicy::AutoReject);
        let (_, bytes) = push_bytes(14);
        let pushes = NOTIFICATION_TRAY as u64 + 5;
        for at in 0..pushes {
            phone
                .handle_push(&bytes, SimInstant::EPOCH + SimDuration::from_millis(at))
                .unwrap();
        }
        assert_eq!(phone.notifications_raised(), pushes);
        let tray = phone.notifications();
        assert_eq!(tray.len(), NOTIFICATION_TRAY);
        let arrivals: Vec<u64> = tray.iter().map(|n| n.arrived_at.as_micros()).collect();
        let expected: Vec<u64> = (pushes - NOTIFICATION_TRAY as u64..pushes)
            .map(|ms| ms * 1_000)
            .collect();
        assert_eq!(arrivals, expected, "the most recent, oldest first");
        assert!(tray.iter().all(|n| n.origin == "198.51.100.7"));
    }

    #[test]
    fn confirm_request_picks_the_matching_push() {
        let mut phone = registered_phone(20);
        let (first, first_bytes) = push_bytes(21);
        let (second, second_bytes) = push_bytes(22);
        phone.handle_push(&first_bytes, SimInstant::EPOCH).unwrap();
        phone.handle_push(&second_bytes, SimInstant::EPOCH).unwrap();

        // Confirm the *second* session's push first; correlation, not queue
        // order, decides which token is computed.
        let response = phone
            .confirm_request(second.request_id, SimInstant::EPOCH)
            .unwrap();
        assert_eq!(response.request_id, second.request_id);
        assert_eq!(response.request, second.request);
        assert_eq!(phone.pending_requests().len(), 1);
        assert_eq!(phone.pending_requests()[0].request_id, first.request_id);
        assert!(matches!(
            phone.confirm_request(9999, SimInstant::EPOCH),
            Err(PhoneError::NoSuchPending)
        ));
    }

    #[test]
    fn unknown_and_consumed_requests_are_not_pending() {
        let mut phone = registered_phone(8);
        let (push, bytes) = push_bytes(14);
        phone.handle_push(&bytes, SimInstant::EPOCH).unwrap();
        assert!(matches!(
            phone.confirm_request(push.request_id + 1, SimInstant::EPOCH),
            Err(PhoneError::NoSuchPending)
        ));
        assert_eq!(phone.pending_requests().len(), 1);
        phone
            .confirm_request(push.request_id, SimInstant::EPOCH)
            .unwrap();
        assert!(matches!(
            phone.confirm_request(push.request_id, SimInstant::EPOCH),
            Err(PhoneError::NoSuchPending)
        ));
    }

    #[test]
    fn malformed_push_rejected() {
        let mut phone = registered_phone(9);
        assert!(matches!(
            phone.handle_push(&[1, 2, 3], SimInstant::EPOCH),
            Err(PhoneError::MalformedPush(_))
        ));
    }

    #[test]
    fn backup_roundtrip_through_cloud() {
        let phone = registered_phone(10);
        let mut cloud = CloudProvider::new("drive");
        phone.backup_to_cloud(&mut cloud, "alice").unwrap();
        let backup = AmnesiaPhone::download_backup_from_cloud(&mut cloud, "alice").unwrap();
        assert_eq!(&backup.pid, phone.pid());
        assert_eq!(backup.entries.len(), phone.entry_table().len());
    }

    #[test]
    fn backup_fails_when_cloud_down() {
        let phone = registered_phone(11);
        let mut cloud = CloudProvider::new("drive");
        cloud.set_available(false);
        assert!(matches!(
            phone.backup_to_cloud(&mut cloud, "alice"),
            Err(PhoneError::Cloud(CloudError::Unavailable { .. }))
        ));
    }

    #[test]
    fn persistence_roundtrip_preserves_kp() {
        let dir = std::env::temp_dir().join("amnesia-phone-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("kp-{}.adb", std::process::id()));

        let mut phone = registered_phone(12);
        phone.save_to(&path).unwrap();
        let mut reopened =
            AmnesiaPhone::open(PhoneConfig::new("phone", 0).with_table_size(64), &path).unwrap();
        assert_eq!(reopened.pid(), phone.pid());

        // Same Kp ⇒ same tokens.
        let (push, _) = push_bytes(15);
        assert_eq!(
            reopened.compute_token(&push.request).unwrap(),
            phone.compute_token(&push.request).unwrap()
        );
        // Registration does not survive reinstallation of the transport.
        assert!(reopened.registration_id().is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn table_ii_render() {
        let phone = registered_phone(13);
        let table = phone.render_table_ii();
        assert!(table.contains("Pid"));
        assert!(table.contains("e1"));
        assert!(table.contains("e64"));
        assert!(table.contains("..."));
        assert!(!table.contains(&phone.pid().to_hex()), "must truncate");
    }
}

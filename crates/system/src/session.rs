//! The sans-IO protocol session engine.
//!
//! Every user-visible flow — the six-step generation protocol of Figure 1,
//! the vault-store extension, account setup with phone pairing, and the two
//! §III-C recovery protocols — is encoded **once** here as an explicit state
//! machine. The engine performs no I/O: hosts feed it typed [`Event`]s
//! (frames off the wire, timer expiry, push loss, the results of the steps
//! hosts run for it) and execute the [`Action`]s it emits (send a frame,
//! arm a timer, deliver the outcome). Both deployments host the same machine:
//!
//! * `AmnesiaSystem` runs sessions over the simulated network, keyed by
//!   [`SessionId`] in a session table, which is what lets hundreds of
//!   generations interleave in one sim run;
//! * `RealtimeDeployment` runs the identical machine over OS threads and
//!   mpsc channels, so the two deployments cannot drift apart.
//!
//! The session id doubles as the wire-level `request_id`: every `ToServer`
//! message the engine emits carries it, and every server reply echoes it in
//! the [`Reply`](amnesia_server::protocol::Reply) envelope, which is how a
//! host routes a frame back to the one session that is waiting for it.
//!
//! Retries are bounded and built in: a push flow re-sends its request (same
//! `request_id`, so the server simply replaces the pending entry) on
//! [`Event::TimerFired`] or [`Event::PushDropped`] until its attempt budget
//! is exhausted, then fails with the typed
//! [`SystemError::MissingReply`](crate::SystemError) naming the reply it
//! never got.

use crate::error::SystemError;
use amnesia_client::BrowserError;
use amnesia_core::{Domain, GeneratedPassword, PasswordPolicy, PhoneId, Username};
use amnesia_net::{SimDuration, SimInstant};
use amnesia_rendezvous::RegistrationId;
use amnesia_server::protocol::{FromServer, KpBackup, SessionGrantToken, ToServer};
use amnesia_server::storage::{AccountRef, RecoveredCredential};
use amnesia_server::SessionToken;
use std::fmt;

/// Correlates one protocol session across frames, timers and hosts; also
/// used verbatim as the wire-level `request_id`.
pub type SessionId = u64;

/// Which local agent a [`Action::Send`] frame leaves from. The server
/// treats phone-originated messages differently only in that replies route
/// back over the phone's channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The user's browser endpoint.
    Browser,
    /// The user's phone endpoint.
    Phone,
}

/// What the user asked this session to accomplish.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum FlowSpec {
    /// The six-step generation flow of Figure 1.
    Generate {
        /// Account username `µ`.
        username: Username,
        /// Account domain `d`.
        domain: Domain,
    },
    /// Vault extension (§VIII): seal and store a user-chosen password.
    StoreChosen {
        /// Account username `µ`.
        username: Username,
        /// Account domain `d`.
        domain: Domain,
        /// The password to seal.
        chosen_password: String,
    },
    /// Register, log in, pair the phone, and back `Kp` up to the cloud.
    Setup {
        /// New Amnesia user id.
        user_id: String,
        /// Master password `MP`.
        master_password: String,
    },
    /// Plain login, capturing the session token.
    Login {
        /// Amnesia user id.
        user_id: String,
        /// Master password `MP`.
        master_password: String,
    },
    /// Add a managed account `(µ, d)`.
    AddAccount {
        /// Account username `µ`.
        username: Username,
        /// Account domain `d`.
        domain: Domain,
        /// Rendering policy for generated passwords.
        policy: PasswordPolicy,
    },
    /// List the user's managed accounts.
    ListAccounts,
    /// Rotate one account's seed `σ` (the paper's password change).
    RotateSeed {
        /// Account username `µ`.
        username: Username,
        /// Account domain `d`.
        domain: Domain,
    },
    /// Session-mechanism extension (§VIII): enable auto-confirmed
    /// generations.
    GrantSession {
        /// Amnesia user id the grant is installed for.
        user_id: String,
        /// Auto-confirm budget.
        max_uses: u32,
    },
    /// Phone-compromise recovery (§III-C1): upload the cloud backup, regain
    /// the old passwords, and pair a fresh phone.
    Recover {
        /// Amnesia user id.
        user_id: String,
        /// Master password `MP`.
        master_password: String,
    },
    /// Master-password-compromise recovery (§III-C2), proved with the
    /// phone's `Pid`.
    ChangeMasterPassword {
        /// Amnesia user id.
        user_id: String,
        /// The (compromised) current master password.
        old_master_password: String,
        /// The replacement master password.
        new_master_password: String,
        /// The phone id proving phone possession.
        pid: PhoneId,
    },
}

/// What a completed session hands back to the caller.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SessionOutcome {
    /// A generated (or vault-opened) password arrived.
    Password {
        /// The account it belongs to.
        account: AccountRef,
        /// The password itself.
        password: GeneratedPassword,
        /// Server-side `tstart` — the start of the §VI-B latency window.
        requested_at: SimInstant,
    },
    /// The chosen password was sealed and stored.
    Stored {
        /// The vaulted account.
        account: AccountRef,
    },
    /// Setup (register → login → pair → backup) completed.
    SetupDone,
    /// Login succeeded; the token is readable via [`Session::auth`].
    LoggedIn,
    /// The account was added.
    AccountAdded,
    /// The account listing.
    Accounts(Vec<AccountRef>),
    /// The seed was rotated.
    SeedRotated,
    /// The session grant is active server-side.
    Granted {
        /// Uses installed.
        remaining_uses: u32,
    },
    /// Phone recovery completed; old passwords recovered and a fresh phone
    /// paired.
    Recovered {
        /// The credentials regenerated from the uploaded backup.
        credentials: Vec<RecoveredCredential>,
    },
    /// The master password was changed.
    MasterPasswordChanged,
}

/// Inputs a host feeds into [`Session::on_event`].
#[derive(Debug)]
#[non_exhaustive]
pub enum Event {
    /// A server reply addressed to this session arrived.
    FrameReceived(FromServer),
    /// The timer armed by the last [`Action::ArmTimer`] expired.
    TimerFired,
    /// The host observed the session's push being dropped in transit.
    PushDropped,
    /// [`Action::FetchBackup`] completed with the downloaded backup.
    BackupFetched(KpBackup),
    /// [`Action::InstallPhone`] completed; a fresh phone exists.
    PhoneInstalled,
    /// [`Action::RegisterPhone`] completed: the phone registered with the
    /// rendezvous and reports its identity for `CompletePhonePairing`.
    PairingInfo {
        /// The phone's `Pid`.
        pid: PhoneId,
        /// The rendezvous registration id.
        registration_id: RegistrationId,
    },
    /// [`Action::MintGrant`] completed with the phone-minted grant token.
    GrantMinted(SessionGrantToken),
}

/// Instructions the engine hands back for the host to execute.
#[derive(Debug)]
#[non_exhaustive]
pub enum Action {
    /// Transmit `message` to the server from the given local agent.
    Send {
        /// Which agent the frame leaves from.
        origin: Origin,
        /// The protocol message (already carrying this session's id).
        message: ToServer,
    },
    /// (Re-)arm this session's timeout; fire [`Event::TimerFired`] if no
    /// relevant event arrives within the duration.
    ArmTimer(SimDuration),
    /// The request was pushed to the phone: have the user approve it
    /// there. No event answers this action; the phone's token reaches the
    /// server, and the server's reply advances the session.
    /// [`SessionHost`](crate::SessionHost) marks the session approved and
    /// confirms on the phone once the push has arrived;
    /// [`RealtimeDeployment`](crate::realtime::RealtimeDeployment)'s phone
    /// auto-confirms.
    ExpectUserConfirm,
    /// Register the phone with the rendezvous service and reply with
    /// [`Event::PairingInfo`]. The session keeps the CAPTCHA for the
    /// `CompletePhonePairing` it then sends.
    RegisterPhone,
    /// Download the user's `Kp` backup and reply with
    /// [`Event::BackupFetched`].
    FetchBackup,
    /// Install a fresh phone (new `Kp`) and reply with
    /// [`Event::PhoneInstalled`].
    InstallPhone,
    /// Ask the phone to mint a session grant and reply with
    /// [`Event::GrantMinted`].
    MintGrant {
        /// Auto-confirm budget to mint.
        max_uses: u32,
    },
    /// Back the phone's `Kp` up to the cloud provider (§III-C1's one-time
    /// backup).
    BackupPhoneToCloud,
    /// The session is re-sending after a timeout/drop; hosts count these.
    NoteRetry,
    /// The flow completed; hand the outcome to the caller.
    Deliver(SessionOutcome),
    /// The flow failed terminally.
    Fail(SystemError),
}

/// Where the machine currently is. One state per awaited reply keeps the
/// transition table auditable against Figure 1.
#[derive(Clone, Debug, PartialEq, Eq)]
enum State {
    Idle,
    AwaitRegistered,
    AwaitLoginOk { then: AfterLogin },
    AwaitPairingChallenge,
    AwaitPaired,
    AwaitPushAck,
    AwaitPassword,
    AwaitStored,
    AwaitBackup,
    AwaitRecovered,
    AwaitPhoneInstalled,
    AwaitGrantMinted,
    AwaitGranted,
    AwaitSimpleReply { expected: &'static str },
    Done,
    Failed,
}

/// What a successful login leads into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterLogin {
    DeliverLoggedIn,
    BeginPairing,
}

impl State {
    /// The reply name a timeout in this state reports via
    /// [`SystemError::MissingReply`].
    fn expected_reply(&self) -> &'static str {
        match self {
            State::Idle => "start",
            State::AwaitRegistered => "Registered",
            State::AwaitLoginOk { .. } => "LoginOk",
            State::AwaitPairingChallenge => "PairingChallenge",
            State::AwaitPaired => "PhonePaired",
            State::AwaitPushAck => "RequestPushed",
            State::AwaitPassword => "PasswordReady",
            State::AwaitStored => "ChosenPasswordStored",
            State::AwaitBackup => "BackupFetched",
            State::AwaitRecovered => "PhoneRecovered",
            State::AwaitPhoneInstalled => "PhoneInstalled",
            State::AwaitGrantMinted => "GrantMinted",
            State::AwaitGranted => "SessionGranted",
            State::AwaitSimpleReply { expected } => expected,
            State::Done | State::Failed => "nothing",
        }
    }
}

/// Default per-session timeout: comfortably above the 4G push path's
/// worst-case leg sum, far below a stuck run.
pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_micros(5_000_000);

/// One in-flight protocol session (the sans-IO state machine).
pub struct Session {
    id: SessionId,
    reply_to: String,
    spec: FlowSpec,
    auth: Option<SessionToken>,
    state: State,
    attempts_left: u32,
    timeout: SimDuration,
    captcha: Option<String>,
    credentials: Vec<RecoveredCredential>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("attempts_left", &self.attempts_left)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a session; call [`start`](Self::start) to obtain the first
    /// actions. `reply_to` is the browser endpoint replies are addressed
    /// to; `id` doubles as the wire `request_id`.
    pub fn new(id: SessionId, reply_to: impl Into<String>, spec: FlowSpec) -> Self {
        Session {
            id,
            reply_to: reply_to.into(),
            spec,
            auth: None,
            state: State::Idle,
            attempts_left: 0,
            timeout: DEFAULT_TIMEOUT,
            captcha: None,
            credentials: Vec::new(),
        }
    }

    /// Supplies an existing login token (required before flows that send
    /// authenticated messages).
    pub fn with_auth(mut self, auth: SessionToken) -> Self {
        self.auth = Some(auth);
        self
    }

    /// Allows up to `attempts` transmissions (1 = no retry) for the push
    /// flows; other flows ignore the budget.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts_left = attempts.saturating_sub(1);
        self
    }

    /// Overrides the per-session timeout armed with every send.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The session id (== wire `request_id`).
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The Amnesia user id the flow's spec names, if it names one (setup,
    /// login, grant, recovery and master-password change).
    pub fn user_id(&self) -> Option<&str> {
        match &self.spec {
            FlowSpec::Setup { user_id, .. }
            | FlowSpec::Login { user_id, .. }
            | FlowSpec::GrantSession { user_id, .. }
            | FlowSpec::Recover { user_id, .. }
            | FlowSpec::ChangeMasterPassword { user_id, .. } => Some(user_id),
            _ => None,
        }
    }

    /// The login token, once captured from `LoginOk` (or supplied).
    pub fn auth(&self) -> Option<&SessionToken> {
        self.auth.as_ref()
    }

    /// Whether the session reached `Done` or `Failed`.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, State::Done | State::Failed)
    }

    /// Whether the session is a push flow — i.e. currently exposed to push
    /// loss and therefore interested in [`Event::PushDropped`].
    pub fn awaits_push(&self) -> bool {
        matches!(
            self.state,
            State::AwaitPushAck | State::AwaitPassword | State::AwaitStored
        )
    }

    /// The reply a timeout right now would report as missing.
    pub fn expected_reply(&self) -> &'static str {
        self.state.expected_reply()
    }

    /// Kicks the flow off, returning the first actions to execute.
    pub fn start(&mut self) -> Vec<Action> {
        debug_assert_eq!(self.state, State::Idle, "start() is one-shot");
        match self.spec.clone() {
            FlowSpec::Generate { .. } | FlowSpec::StoreChosen { .. } => {
                match self.push_request_message() {
                    Ok(message) => {
                        self.state = State::AwaitPushAck;
                        vec![
                            Action::Send {
                                origin: Origin::Browser,
                                message,
                            },
                            Action::ArmTimer(self.timeout),
                        ]
                    }
                    Err(e) => self.fail(e),
                }
            }
            FlowSpec::Setup {
                user_id,
                master_password,
            } => {
                self.state = State::AwaitRegistered;
                vec![
                    self.send_browser(ToServer::Register {
                        user_id,
                        master_password,
                        request_id: self.id,
                        reply_to: self.reply_to.clone(),
                    }),
                    Action::ArmTimer(self.timeout),
                ]
            }
            FlowSpec::Login {
                user_id,
                master_password,
            } => {
                self.state = State::AwaitLoginOk {
                    then: AfterLogin::DeliverLoggedIn,
                };
                vec![
                    self.send_browser(ToServer::Login {
                        user_id,
                        master_password,
                        request_id: self.id,
                        reply_to: self.reply_to.clone(),
                    }),
                    Action::ArmTimer(self.timeout),
                ]
            }
            FlowSpec::AddAccount {
                username,
                domain,
                policy,
            } => match self.require_auth() {
                Ok(session) => {
                    self.state = State::AwaitSimpleReply {
                        expected: "AccountAdded",
                    };
                    vec![
                        self.send_browser(ToServer::AddAccount {
                            session,
                            username,
                            domain,
                            policy,
                            request_id: self.id,
                            reply_to: self.reply_to.clone(),
                        }),
                        Action::ArmTimer(self.timeout),
                    ]
                }
                Err(e) => self.fail(e),
            },
            FlowSpec::ListAccounts => match self.require_auth() {
                Ok(session) => {
                    self.state = State::AwaitSimpleReply {
                        expected: "Accounts",
                    };
                    vec![
                        self.send_browser(ToServer::ListAccounts {
                            session,
                            request_id: self.id,
                            reply_to: self.reply_to.clone(),
                        }),
                        Action::ArmTimer(self.timeout),
                    ]
                }
                Err(e) => self.fail(e),
            },
            FlowSpec::RotateSeed { username, domain } => match self.require_auth() {
                Ok(session) => {
                    self.state = State::AwaitSimpleReply {
                        expected: "SeedRotated",
                    };
                    vec![
                        self.send_browser(ToServer::RotateSeed {
                            session,
                            username,
                            domain,
                            request_id: self.id,
                            reply_to: self.reply_to.clone(),
                        }),
                        Action::ArmTimer(self.timeout),
                    ]
                }
                Err(e) => self.fail(e),
            },
            FlowSpec::GrantSession { max_uses, .. } => {
                self.state = State::AwaitGrantMinted;
                vec![
                    Action::MintGrant { max_uses },
                    Action::ArmTimer(self.timeout),
                ]
            }
            FlowSpec::Recover { .. } => {
                self.state = State::AwaitBackup;
                vec![Action::FetchBackup, Action::ArmTimer(self.timeout)]
            }
            FlowSpec::ChangeMasterPassword {
                user_id,
                old_master_password,
                new_master_password,
                pid,
            } => {
                self.state = State::AwaitSimpleReply {
                    expected: "MasterPasswordChanged",
                };
                vec![
                    Action::Send {
                        origin: Origin::Phone,
                        message: ToServer::ChangeMasterPassword {
                            user_id,
                            old_master_password,
                            pid,
                            new_master_password,
                            request_id: self.id,
                            reply_to: self.reply_to.clone(),
                        },
                    },
                    Action::ArmTimer(self.timeout),
                ]
            }
        }
    }

    /// Advances the machine with one event, returning actions to execute.
    /// Events that do not apply in the current state are ignored (sans-IO
    /// machines must tolerate stale timers and crossed frames).
    pub fn on_event(&mut self, event: Event) -> Vec<Action> {
        if self.is_terminal() {
            return Vec::new();
        }
        match event {
            Event::FrameReceived(frame) => self.on_frame(frame),
            Event::TimerFired | Event::PushDropped => self.on_lost_progress(),
            Event::BackupFetched(backup) => self.on_backup_fetched(backup),
            Event::PhoneInstalled => self.on_phone_installed(),
            Event::PairingInfo {
                pid,
                registration_id,
            } => self.on_pairing_info(pid, registration_id),
            Event::GrantMinted(grant) => self.on_grant_minted(grant),
        }
    }

    // -- transitions ---------------------------------------------------------

    fn on_frame(&mut self, frame: FromServer) -> Vec<Action> {
        if let FromServer::Error { message } = frame {
            return self.fail(SystemError::ServerRejected { message });
        }
        match (&self.state, frame) {
            (State::AwaitRegistered, FromServer::Registered) => {
                let FlowSpec::Setup {
                    user_id,
                    master_password,
                } = self.spec.clone()
                else {
                    return self.fail(SystemError::MissingReply { expected: "Setup" });
                };
                self.state = State::AwaitLoginOk {
                    then: AfterLogin::BeginPairing,
                };
                vec![
                    self.send_browser(ToServer::Login {
                        user_id,
                        master_password,
                        request_id: self.id,
                        reply_to: self.reply_to.clone(),
                    }),
                    Action::ArmTimer(self.timeout),
                ]
            }
            (State::AwaitLoginOk { then }, FromServer::LoginOk { session }) => {
                let then = *then;
                self.auth = Some(session.clone());
                match then {
                    AfterLogin::DeliverLoggedIn => self.deliver(SessionOutcome::LoggedIn),
                    AfterLogin::BeginPairing => {
                        self.state = State::AwaitPairingChallenge;
                        vec![
                            self.send_browser(ToServer::BeginPhonePairing {
                                session,
                                request_id: self.id,
                                reply_to: self.reply_to.clone(),
                            }),
                            Action::ArmTimer(self.timeout),
                        ]
                    }
                }
            }
            (State::AwaitPairingChallenge, FromServer::PairingChallenge { captcha }) => {
                self.captcha = Some(captcha);
                self.state = State::AwaitPaired;
                vec![Action::RegisterPhone, Action::ArmTimer(self.timeout)]
            }
            (State::AwaitPaired, FromServer::PhonePaired) => {
                let outcome = match &self.spec {
                    FlowSpec::Recover { .. } => SessionOutcome::Recovered {
                        credentials: std::mem::take(&mut self.credentials),
                    },
                    _ => SessionOutcome::SetupDone,
                };
                let mut actions = vec![Action::BackupPhoneToCloud];
                actions.extend(self.deliver(outcome));
                actions
            }
            (State::AwaitPushAck, FromServer::RequestPushed) => {
                self.state = match self.spec {
                    FlowSpec::StoreChosen { .. } => State::AwaitStored,
                    _ => State::AwaitPassword,
                };
                vec![Action::ExpectUserConfirm, Action::ArmTimer(self.timeout)]
            }
            // Non-FIFO links can deliver the terminal reply before the
            // RequestPushed ack it logically follows (the phone confirmed
            // without the browser's ack, e.g. auto-confirm). The ack is then
            // redundant: resolve directly instead of waiting for a frame
            // that no longer matters.
            (
                State::AwaitPushAck,
                FromServer::PasswordReady {
                    account,
                    password,
                    requested_at,
                },
            ) => self.deliver(SessionOutcome::Password {
                account,
                password,
                requested_at,
            }),
            (State::AwaitPushAck, FromServer::ChosenPasswordStored { account }) => {
                self.deliver(SessionOutcome::Stored { account })
            }
            (
                State::AwaitPassword,
                FromServer::PasswordReady {
                    account,
                    password,
                    requested_at,
                },
            ) => self.deliver(SessionOutcome::Password {
                account,
                password,
                requested_at,
            }),
            (State::AwaitStored, FromServer::ChosenPasswordStored { account }) => {
                self.deliver(SessionOutcome::Stored { account })
            }
            (State::AwaitRecovered, FromServer::PhoneRecovered { credentials }) => {
                self.credentials = credentials;
                self.state = State::AwaitPhoneInstalled;
                vec![Action::InstallPhone, Action::ArmTimer(self.timeout)]
            }
            (State::AwaitGranted, FromServer::SessionGranted { remaining_uses }) => {
                self.deliver(SessionOutcome::Granted { remaining_uses })
            }
            (State::AwaitSimpleReply { expected }, frame) => match (*expected, frame) {
                ("AccountAdded", FromServer::AccountAdded) => {
                    self.deliver(SessionOutcome::AccountAdded)
                }
                ("Accounts", FromServer::Accounts { accounts }) => {
                    self.deliver(SessionOutcome::Accounts(accounts))
                }
                ("SeedRotated", FromServer::SeedRotated) => {
                    self.deliver(SessionOutcome::SeedRotated)
                }
                ("MasterPasswordChanged", FromServer::MasterPasswordChanged) => {
                    self.deliver(SessionOutcome::MasterPasswordChanged)
                }
                _ => Vec::new(),
            },
            // Any other (state, frame) pairing is a stale or crossed reply.
            _ => Vec::new(),
        }
    }

    /// A timer fired or the push was observed dropped: retry if the budget
    /// allows, otherwise fail with the missing reply's name.
    fn on_lost_progress(&mut self) -> Vec<Action> {
        let retryable = self.awaits_push();
        if retryable && self.attempts_left > 0 {
            self.attempts_left -= 1;
            match self.push_request_message() {
                Ok(message) => {
                    self.state = State::AwaitPushAck;
                    vec![
                        Action::NoteRetry,
                        Action::Send {
                            origin: Origin::Browser,
                            message,
                        },
                        Action::ArmTimer(self.timeout),
                    ]
                }
                Err(e) => self.fail(e),
            }
        } else {
            let expected = self.state.expected_reply();
            self.fail(SystemError::MissingReply { expected })
        }
    }

    fn on_backup_fetched(&mut self, backup: KpBackup) -> Vec<Action> {
        if self.state != State::AwaitBackup {
            return Vec::new();
        }
        let FlowSpec::Recover {
            user_id,
            master_password,
        } = self.spec.clone()
        else {
            return Vec::new();
        };
        self.state = State::AwaitRecovered;
        vec![
            self.send_browser(ToServer::RecoverPhone {
                user_id,
                master_password,
                backup,
                request_id: self.id,
                reply_to: self.reply_to.clone(),
            }),
            Action::ArmTimer(self.timeout),
        ]
    }

    fn on_phone_installed(&mut self) -> Vec<Action> {
        if self.state != State::AwaitPhoneInstalled {
            return Vec::new();
        }
        let FlowSpec::Recover {
            user_id,
            master_password,
        } = self.spec.clone()
        else {
            return Vec::new();
        };
        self.state = State::AwaitLoginOk {
            then: AfterLogin::BeginPairing,
        };
        vec![
            self.send_browser(ToServer::Login {
                user_id,
                master_password,
                request_id: self.id,
                reply_to: self.reply_to.clone(),
            }),
            Action::ArmTimer(self.timeout),
        ]
    }

    fn on_pairing_info(&mut self, pid: PhoneId, registration_id: RegistrationId) -> Vec<Action> {
        if self.state != State::AwaitPaired {
            return Vec::new();
        }
        let (Some(user_id), Some(captcha)) = (self.user_id(), &self.captcha) else {
            return Vec::new();
        };
        vec![
            Action::Send {
                origin: Origin::Phone,
                message: ToServer::CompletePhonePairing {
                    user_id: user_id.to_string(),
                    captcha: captcha.clone(),
                    pid,
                    registration_id,
                    request_id: self.id,
                    reply_to: self.reply_to.clone(),
                },
            },
            Action::ArmTimer(self.timeout),
        ]
    }

    fn on_grant_minted(&mut self, grant: SessionGrantToken) -> Vec<Action> {
        if self.state != State::AwaitGrantMinted {
            return Vec::new();
        }
        let FlowSpec::GrantSession { user_id, max_uses } = self.spec.clone() else {
            return Vec::new();
        };
        self.state = State::AwaitGranted;
        vec![
            Action::Send {
                origin: Origin::Phone,
                message: ToServer::SessionGrant {
                    user_id,
                    grant,
                    max_uses,
                    request_id: self.id,
                    reply_to: self.reply_to.clone(),
                },
            },
            Action::ArmTimer(self.timeout),
        ]
    }

    // -- helpers -------------------------------------------------------------

    /// The (re-)sendable request opening a push flow.
    fn push_request_message(&self) -> Result<ToServer, SystemError> {
        let session = self.require_auth()?;
        match self.spec.clone() {
            FlowSpec::Generate { username, domain } => Ok(ToServer::RequestPassword {
                session,
                username,
                domain,
                request_id: self.id,
                reply_to: self.reply_to.clone(),
            }),
            FlowSpec::StoreChosen {
                username,
                domain,
                chosen_password,
            } => Ok(ToServer::StoreChosenPassword {
                session,
                username,
                domain,
                chosen_password,
                request_id: self.id,
                reply_to: self.reply_to.clone(),
            }),
            _ => Err(SystemError::MissingReply {
                expected: "push flow",
            }),
        }
    }

    fn require_auth(&self) -> Result<SessionToken, SystemError> {
        self.auth
            .clone()
            .ok_or(SystemError::Browser(BrowserError::NotLoggedIn))
    }

    fn send_browser(&self, message: ToServer) -> Action {
        Action::Send {
            origin: Origin::Browser,
            message,
        }
    }

    fn deliver(&mut self, outcome: SessionOutcome) -> Vec<Action> {
        self.state = State::Done;
        vec![Action::Deliver(outcome)]
    }

    fn fail(&mut self, error: SystemError) -> Vec<Action> {
        self.state = State::Failed;
        vec![Action::Fail(error)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_server::{AmnesiaServer, ServerConfig};

    fn account() -> (Username, Domain) {
        (
            Username::new("alice").unwrap(),
            Domain::new("example.com").unwrap(),
        )
    }

    fn auth_token() -> SessionToken {
        let mut server = AmnesiaServer::new(ServerConfig::default());
        server.register_user("alice", "mp").unwrap();
        server.login("alice", "mp").unwrap()
    }

    fn generate_session(id: SessionId, attempts: u32) -> Session {
        let (username, domain) = account();
        Session::new(id, "browser", FlowSpec::Generate { username, domain })
            .with_auth(auth_token())
            .with_attempts(attempts)
    }

    fn sample_account_ref() -> AccountRef {
        let (username, domain) = account();
        AccountRef { username, domain }
    }

    fn sample_password() -> GeneratedPassword {
        PasswordPolicy::default().render(&[3u8; 64])
    }

    #[test]
    fn generate_happy_path_emits_figure_one_sequence() {
        let mut s = generate_session(7, 1);
        let actions = s.start();
        assert!(matches!(
            &actions[..],
            [
                Action::Send {
                    origin: Origin::Browser,
                    message: ToServer::RequestPassword { request_id: 7, .. }
                },
                Action::ArmTimer(_)
            ]
        ));

        let actions = s.on_event(Event::FrameReceived(FromServer::RequestPushed));
        assert!(matches!(
            &actions[..],
            [Action::ExpectUserConfirm, Action::ArmTimer(_)]
        ));
        assert!(s.awaits_push());

        let actions = s.on_event(Event::FrameReceived(FromServer::PasswordReady {
            account: sample_account_ref(),
            password: sample_password(),
            requested_at: SimInstant::EPOCH,
        }));
        assert!(matches!(
            &actions[..],
            [Action::Deliver(SessionOutcome::Password { .. })]
        ));
        assert!(s.is_terminal());
    }

    #[test]
    fn password_ready_overtaking_push_ack_resolves_the_session() {
        // Non-FIFO delivery: the terminal reply lands before the
        // RequestPushed ack. The session must resolve, and the stale ack
        // must then be inert.
        let mut s = generate_session(8, 1);
        s.start();
        let actions = s.on_event(Event::FrameReceived(FromServer::PasswordReady {
            account: sample_account_ref(),
            password: sample_password(),
            requested_at: SimInstant::EPOCH,
        }));
        assert!(matches!(
            &actions[..],
            [Action::Deliver(SessionOutcome::Password { .. })]
        ));
        assert!(s.is_terminal());
        assert!(s
            .on_event(Event::FrameReceived(FromServer::RequestPushed))
            .is_empty());
    }

    #[test]
    fn stored_ack_overtaking_push_ack_resolves_the_session() {
        let (username, domain) = account();
        let mut s = Session::new(
            9,
            "browser",
            FlowSpec::StoreChosen {
                username,
                domain,
                chosen_password: "chosen-password".into(),
            },
        )
        .with_auth(auth_token());
        s.start();
        let actions = s.on_event(Event::FrameReceived(FromServer::ChosenPasswordStored {
            account: sample_account_ref(),
        }));
        assert!(matches!(
            &actions[..],
            [Action::Deliver(SessionOutcome::Stored { .. })]
        ));
        assert!(s.is_terminal());
    }

    #[test]
    fn retry_budget_resends_then_fails_with_missing_reply() {
        let mut s = generate_session(1, 3);
        s.start();
        s.on_event(Event::FrameReceived(FromServer::RequestPushed));

        // Two drops consume the two retries, each re-sending the request.
        for _ in 0..2 {
            let actions = s.on_event(Event::PushDropped);
            assert!(matches!(
                &actions[..],
                [
                    Action::NoteRetry,
                    Action::Send {
                        message: ToServer::RequestPassword { request_id: 1, .. },
                        ..
                    },
                    Action::ArmTimer(_)
                ]
            ));
        }
        // Budget exhausted: the third loss is terminal and names the reply.
        let actions = s.on_event(Event::TimerFired);
        let [Action::Fail(SystemError::MissingReply { expected })] = &actions[..] else {
            panic!("expected Fail, got {actions:?}");
        };
        assert_eq!(*expected, "RequestPushed");
        assert!(s.is_terminal());
    }

    #[test]
    fn timeout_while_awaiting_password_names_password_ready() {
        let mut s = generate_session(2, 1);
        s.start();
        s.on_event(Event::FrameReceived(FromServer::RequestPushed));
        let actions = s.on_event(Event::TimerFired);
        let [Action::Fail(SystemError::MissingReply { expected })] = &actions[..] else {
            panic!("expected Fail, got {actions:?}");
        };
        assert_eq!(*expected, "PasswordReady");
    }

    #[test]
    fn server_error_fails_session() {
        let mut s = generate_session(3, 5);
        s.start();
        let actions = s.on_event(Event::FrameReceived(FromServer::Error {
            message: "no phone paired".into(),
        }));
        assert!(matches!(
            &actions[..],
            [Action::Fail(SystemError::ServerRejected { .. })]
        ));
        // Terminal: further events are inert even with retry budget left.
        assert!(s.on_event(Event::TimerFired).is_empty());
    }

    #[test]
    fn authenticated_flows_fail_before_sending_without_auth() {
        let (username, domain) = account();
        let flows = [
            (
                "Generate",
                FlowSpec::Generate {
                    username: username.clone(),
                    domain: domain.clone(),
                },
            ),
            (
                "StoreChosen",
                FlowSpec::StoreChosen {
                    username: username.clone(),
                    domain: domain.clone(),
                    chosen_password: "chosen-password".into(),
                },
            ),
            (
                "AddAccount",
                FlowSpec::AddAccount {
                    username: username.clone(),
                    domain: domain.clone(),
                    policy: PasswordPolicy::default(),
                },
            ),
            ("ListAccounts", FlowSpec::ListAccounts),
            ("RotateSeed", FlowSpec::RotateSeed { username, domain }),
        ];
        for (flow, spec) in flows {
            let mut s = Session::new(4, "browser", spec);
            let actions = s.start();
            assert!(
                matches!(
                    &actions[..],
                    [Action::Fail(SystemError::Browser(
                        BrowserError::NotLoggedIn
                    ))]
                ),
                "{flow}: {actions:?}"
            );
            assert!(s.is_terminal(), "{flow}");
        }
    }

    #[test]
    fn stale_frames_are_ignored() {
        let mut s = generate_session(5, 1);
        s.start();
        // PasswordReady before the push ack is a crossed frame, not progress.
        let actions = s.on_event(Event::FrameReceived(FromServer::PhonePaired));
        assert!(actions.is_empty());
        assert!(!s.is_terminal());
    }

    #[test]
    fn setup_flow_walks_register_login_pair_backup() {
        let mut s = Session::new(
            9,
            "browser",
            FlowSpec::Setup {
                user_id: "alice".into(),
                master_password: "mp".into(),
            },
        );
        assert!(matches!(
            &s.start()[..],
            [
                Action::Send {
                    message: ToServer::Register { request_id: 9, .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        assert!(matches!(
            &s.on_event(Event::FrameReceived(FromServer::Registered))[..],
            [
                Action::Send {
                    message: ToServer::Login { request_id: 9, .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        let login_ok = FromServer::LoginOk {
            session: auth_token(),
        };
        assert!(matches!(
            &s.on_event(Event::FrameReceived(login_ok))[..],
            [
                Action::Send {
                    message: ToServer::BeginPhonePairing { .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        assert!(s.auth().is_some(), "LoginOk captures the token");
        assert!(matches!(
            &s.on_event(Event::FrameReceived(FromServer::PairingChallenge {
                captcha: "123456".into()
            }))[..],
            [Action::RegisterPhone, Action::ArmTimer(_)]
        ));
        // Sim-style hosts answer with PairingInfo → CompletePhonePairing.
        let mut rng = amnesia_crypto::SecretRng::seeded(4);
        let pid = PhoneId::random(&mut rng);
        let reg = amnesia_rendezvous::RendezvousServer::new("gcm", 5).register_device("phone");
        let actions = s.on_event(Event::PairingInfo {
            pid,
            registration_id: reg,
        });
        assert!(matches!(
            &actions[..],
            [
                Action::Send {
                    origin: Origin::Phone,
                    message: ToServer::CompletePhonePairing { captcha, .. }
                },
                Action::ArmTimer(_)
            ] if captcha == "123456"
        ));
        let actions = s.on_event(Event::FrameReceived(FromServer::PhonePaired));
        assert!(matches!(
            &actions[..],
            [
                Action::BackupPhoneToCloud,
                Action::Deliver(SessionOutcome::SetupDone)
            ]
        ));
    }

    #[test]
    fn store_chosen_flow_ends_in_stored() {
        let (username, domain) = account();
        let mut s = Session::new(
            11,
            "browser",
            FlowSpec::StoreChosen {
                username,
                domain,
                chosen_password: "hunter2".into(),
            },
        )
        .with_auth(auth_token());
        assert!(matches!(
            &s.start()[..],
            [
                Action::Send {
                    message: ToServer::StoreChosenPassword { .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        s.on_event(Event::FrameReceived(FromServer::RequestPushed));
        let actions = s.on_event(Event::FrameReceived(FromServer::ChosenPasswordStored {
            account: sample_account_ref(),
        }));
        assert!(matches!(
            &actions[..],
            [Action::Deliver(SessionOutcome::Stored { .. })]
        ));
    }

    #[test]
    fn grant_flow_mints_then_announces() {
        let mut s = Session::new(
            13,
            "browser",
            FlowSpec::GrantSession {
                user_id: "alice".into(),
                max_uses: 3,
            },
        );
        assert!(matches!(
            &s.start()[..],
            [Action::MintGrant { max_uses: 3 }, Action::ArmTimer(_)]
        ));
        let actions = s.on_event(Event::GrantMinted(SessionGrantToken(vec![1, 2])));
        assert!(matches!(
            &actions[..],
            [
                Action::Send {
                    origin: Origin::Phone,
                    message: ToServer::SessionGrant { max_uses: 3, .. }
                },
                Action::ArmTimer(_)
            ]
        ));
        let actions = s.on_event(Event::FrameReceived(FromServer::SessionGranted {
            remaining_uses: 3,
        }));
        assert!(matches!(
            &actions[..],
            [Action::Deliver(SessionOutcome::Granted {
                remaining_uses: 3
            })]
        ));
    }

    #[test]
    fn recover_flow_fetches_backup_then_repairs() {
        let mut s = Session::new(
            17,
            "browser",
            FlowSpec::Recover {
                user_id: "alice".into(),
                master_password: "mp".into(),
            },
        );
        assert!(matches!(
            &s.start()[..],
            [Action::FetchBackup, Action::ArmTimer(_)]
        ));
        let mut rng = amnesia_crypto::SecretRng::seeded(5);
        let backup = KpBackup {
            pid: PhoneId::random(&mut rng),
            entries: vec![amnesia_core::EntryValue::random(&mut rng)],
        };
        assert!(matches!(
            &s.on_event(Event::BackupFetched(backup))[..],
            [
                Action::Send {
                    message: ToServer::RecoverPhone { .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        let credential = RecoveredCredential {
            username: account().0,
            domain: account().1,
            old_password: sample_password(),
        };
        assert!(matches!(
            &s.on_event(Event::FrameReceived(FromServer::PhoneRecovered {
                credentials: vec![credential]
            }))[..],
            [Action::InstallPhone, Action::ArmTimer(_)]
        ));
        assert!(matches!(
            &s.on_event(Event::PhoneInstalled)[..],
            [
                Action::Send {
                    message: ToServer::Login { .. },
                    ..
                },
                Action::ArmTimer(_)
            ]
        ));
        s.on_event(Event::FrameReceived(FromServer::LoginOk {
            session: auth_token(),
        }));
        s.on_event(Event::FrameReceived(FromServer::PairingChallenge {
            captcha: "000111".into(),
        }));
        let actions = s.on_event(Event::FrameReceived(FromServer::PhonePaired));
        let [Action::BackupPhoneToCloud, Action::Deliver(SessionOutcome::Recovered { credentials })] =
            &actions[..]
        else {
            panic!("expected recovery delivery, got {actions:?}");
        };
        assert_eq!(credentials.len(), 1);
    }
}

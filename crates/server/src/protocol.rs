//! The wire protocol between browser, Amnesia server and phone.
//!
//! Messages serialize with the `amnesia-store` codec; channel encryption is
//! layered on by the deployment (`amnesia-system`), mirroring the paper
//! where HTTPS wraps the application protocol.

use crate::auth::Session;
use crate::storage::{AccountRef, RecoveredCredential};
use amnesia_core::{
    Domain, EntryValue, GeneratedPassword, PasswordPolicy, PasswordRequest, PhoneId, Token,
    Username,
};
use amnesia_net::SimInstant;
use amnesia_rendezvous::{PushEnvelope, RegistrationId};
use amnesia_store::codec::{self, CodecError, Record};

/// The phone-side secret `Kp` as stored in the one-time cloud backup
/// (§III-C1) and as uploaded back to the server during phone recovery.
#[derive(Clone)]
pub struct KpBackup {
    /// The phone ID `Pid`.
    pub pid: PhoneId,
    /// The entry table values `{e_i}` in order.
    pub entries: Vec<EntryValue>,
}
amnesia_store::record_struct! { KpBackup { pid, entries } }

/// The backup *is* `Kp`; `Debug` shows the (already truncating) `Pid`
/// render and the entry count, never the entry values.
impl std::fmt::Debug for KpBackup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KpBackup")
            .field("pid", &self.pid)
            .field(
                "entries",
                &format_args!("<{} secret entries>", self.entries.len()),
            )
            .finish()
    }
}

/// Constant-time over the whole backup: `Pid` and every entry are compared
/// without short-circuiting, so timing reveals only the entry count.
impl PartialEq for KpBackup {
    fn eq(&self, other: &Self) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        let mut equal = amnesia_crypto::ct_eq(self.pid.as_bytes(), other.pid.as_bytes());
        for (a, b) in self.entries.iter().zip(&other.entries) {
            equal &= amnesia_crypto::ct_eq(a.as_bytes(), b.as_bytes());
        }
        equal
    }
}

impl Eq for KpBackup {}

/// Payload the server pushes to the phone through the rendezvous service.
///
/// Carries the request `R`, the origin metadata the paper shows in the
/// confirmation screen (Fig. 2b includes the requesting IP), and the
/// `tstart` timestamp of the §VI-B latency measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct PhonePush {
    /// Correlation id of the originating protocol session. The phone echoes
    /// it in its [`TokenResponse`] so the deployment can attribute the token
    /// round to the session that asked for it, even with many generations in
    /// flight. Opaque to the phone; carries no account information (§IV-D).
    pub request_id: u64,
    /// The password request `R`.
    pub request: PasswordRequest,
    /// Where the original browser request came from (shown to the user for
    /// confirmation).
    pub origin: String,
    /// Server-side timestamp when `R` left for the rendezvous.
    pub tstart: SimInstant,
    /// Session-mechanism extension (§VIII): if this matches a grant the
    /// phone previously issued, the phone auto-confirms without user
    /// interaction.
    pub session_grant: Option<SessionGrantToken>,
}
amnesia_store::record_struct! { PhonePush { request_id, request, origin, tstart, session_grant } }

/// A push on its way to the rendezvous service, kept typed until the
/// deployment encodes it: the registration id the service forwards by and
/// the [`PhonePush`] the phone receives.
#[derive(Clone, Debug, PartialEq)]
pub struct Push {
    /// The phone's rendezvous registration.
    pub registration_id: RegistrationId,
    /// The payload forwarded to the phone.
    pub message: PhonePush,
}

impl Push {
    /// Appends the push's [`PushEnvelope`] wire bytes to `out`, with the
    /// [`PhonePush`] encoded once, straight into its envelope: the bytes
    /// of `self.to_envelope().to_wire()`.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        PushEnvelope::write_wire(&self.registration_id, out, |out| self.message.encode(out));
    }

    /// The push as a [`PushEnvelope`] whose data is the encoded
    /// [`PhonePush`].
    pub fn to_envelope(&self) -> PushEnvelope {
        let mut data = Vec::new();
        self.message.encode(&mut data);
        PushEnvelope {
            registration_id: self.registration_id.clone(),
            data,
        }
    }
}

/// An opaque token the phone mints when the user enables a generation
/// session (§VIII's "session mechanism ... in a fully fledged Amnesia
/// system"). The phone keeps the authoritative use-count; the server merely
/// echoes the token in pushes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SessionGrantToken(pub Vec<u8>);
amnesia_store::record_tuple! { SessionGrantToken(token) }

/// The phone's answer: the token `T` plus the echoed request and timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenResponse {
    /// Echo of the push's correlation id (see [`PhonePush::request_id`]).
    pub request_id: u64,
    /// Echo of the request `R`, letting the server match the pending entry.
    pub request: PasswordRequest,
    /// The computed token `T`.
    pub token: Token,
    /// Echo of the server's `tstart` (per the paper's instrumented
    /// prototype).
    pub tstart: SimInstant,
}
amnesia_store::record_struct! { TokenResponse { request_id, request, token, tstart } }

/// Requests arriving at the Amnesia server (from browsers and phones).
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // field meanings documented on the handler methods
#[non_exhaustive]
pub enum ToServer {
    Register {
        user_id: String,
        master_password: String,
        request_id: u64,
        reply_to: String,
    },
    Login {
        user_id: String,
        master_password: String,
        request_id: u64,
        reply_to: String,
    },
    Logout {
        session: Session,
        request_id: u64,
        reply_to: String,
    },
    BeginPhonePairing {
        session: Session,
        request_id: u64,
        reply_to: String,
    },
    CompletePhonePairing {
        user_id: String,
        captcha: String,
        pid: PhoneId,
        registration_id: RegistrationId,
        request_id: u64,
        reply_to: String,
    },
    AddAccount {
        session: Session,
        username: Username,
        domain: Domain,
        policy: PasswordPolicy,
        request_id: u64,
        reply_to: String,
    },
    ListAccounts {
        session: Session,
        request_id: u64,
        reply_to: String,
    },
    RotateSeed {
        session: Session,
        username: Username,
        domain: Domain,
        request_id: u64,
        reply_to: String,
    },
    RequestPassword {
        session: Session,
        username: Username,
        domain: Domain,
        request_id: u64,
        reply_to: String,
    },
    Token(TokenResponse),
    /// Vault extension (§VIII): store a user-chosen password, sealed under
    /// a bilaterally-derived key.
    StoreChosenPassword {
        session: Session,
        username: Username,
        domain: Domain,
        chosen_password: String,
        request_id: u64,
        reply_to: String,
    },
    /// Session-mechanism extension (§VIII): the phone announces a grant the
    /// user enabled on the device; pushes carrying it auto-confirm.
    SessionGrant {
        user_id: String,
        grant: SessionGrantToken,
        max_uses: u32,
        request_id: u64,
        reply_to: String,
    },
    RecoverPhone {
        user_id: String,
        master_password: String,
        backup: KpBackup,
        request_id: u64,
        reply_to: String,
    },
    ChangeMasterPassword {
        user_id: String,
        old_master_password: String,
        pid: PhoneId,
        new_master_password: String,
        request_id: u64,
        reply_to: String,
    },
}
amnesia_store::record_enum! { ToServer {
    0 => Register { user_id, master_password, request_id, reply_to },
    1 => Login { user_id, master_password, request_id, reply_to },
    2 => Logout { session, request_id, reply_to },
    3 => BeginPhonePairing { session, request_id, reply_to },
    4 => CompletePhonePairing { user_id, captcha, pid, registration_id, request_id, reply_to },
    5 => AddAccount { session, username, domain, policy, request_id, reply_to },
    6 => ListAccounts { session, request_id, reply_to },
    7 => RotateSeed { session, username, domain, request_id, reply_to },
    8 => RequestPassword { session, username, domain, request_id, reply_to },
    9 => Token(response),
    10 => StoreChosenPassword { session, username, domain, chosen_password, request_id, reply_to },
    11 => SessionGrant { user_id, grant, max_uses, request_id, reply_to },
    12 => RecoverPhone { user_id, master_password, backup, request_id, reply_to },
    13 => ChangeMasterPassword { user_id, old_master_password, pid, new_master_password, request_id, reply_to },
} }

/// Responses the server sends back to browser endpoints.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
#[non_exhaustive]
pub enum FromServer {
    Registered,
    LoginOk {
        session: Session,
    },
    LoggedOut,
    PairingChallenge {
        /// CAPTCHA code the user must type into the phone.
        captcha: String,
    },
    PhonePaired,
    AccountAdded,
    Accounts {
        accounts: Vec<AccountRef>,
    },
    SeedRotated,
    /// Ack that the request `R` was pushed to the phone; the password
    /// follows asynchronously as [`FromServer::PasswordReady`].
    RequestPushed,
    PasswordReady {
        account: AccountRef,
        password: GeneratedPassword,
        /// The `tstart` the latency experiment subtracts from arrival time.
        requested_at: SimInstant,
    },
    PhoneRecovered {
        credentials: Vec<RecoveredCredential>,
    },
    /// Vault extension: the chosen password was sealed and stored.
    ChosenPasswordStored {
        account: AccountRef,
    },
    /// Session-mechanism extension: the grant is active server-side.
    SessionGranted {
        remaining_uses: u32,
    },
    MasterPasswordChanged,
    Error {
        message: String,
    },
}
amnesia_store::record_enum! { FromServer {
    0 => Registered,
    1 => LoginOk { session },
    2 => LoggedOut,
    3 => PairingChallenge { captcha },
    4 => PhonePaired,
    5 => AccountAdded,
    6 => Accounts { accounts },
    7 => SeedRotated,
    8 => RequestPushed,
    9 => PasswordReady { account, password, requested_at },
    10 => PhoneRecovered { credentials },
    11 => ChosenPasswordStored { account },
    12 => SessionGranted { remaining_uses },
    13 => MasterPasswordChanged,
    14 => Error { message },
} }

macro_rules! wire_impls {
    ($ty:ty) => {
        impl $ty {
            /// Encodes for transmission.
            ///
            /// # Errors
            ///
            /// Propagates codec errors (practically unreachable here).
            pub fn to_wire(&self) -> Result<Vec<u8>, CodecError> {
                codec::to_bytes(self)
            }

            /// Appends the encoding to `out`: the bytes
            /// [`to_wire`](Self::to_wire) returns, without a buffer of
            /// their own.
            pub fn write_wire(&self, out: &mut Vec<u8>) {
                self.encode(out);
            }

            /// Decodes from received bytes.
            ///
            /// # Errors
            ///
            /// Returns a codec error for malformed input.
            pub fn from_wire(bytes: &[u8]) -> Result<Self, CodecError> {
                codec::from_bytes(bytes)
            }
        }
    };
}

/// Wire envelope for every server→browser reply: the [`FromServer`] payload
/// tagged with the `request_id` of the protocol session it answers, so a
/// host interleaving many sessions over one endpoint can route each reply to
/// the state machine that is waiting for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// Correlation id echoed from the originating [`ToServer`] request.
    pub request_id: u64,
    /// The actual response payload.
    pub message: FromServer,
}
amnesia_store::record_struct! { Reply { request_id, message } }

wire_impls!(ToServer);
wire_impls!(FromServer);
wire_impls!(Reply);
wire_impls!(PhonePush);
wire_impls!(TokenResponse);
wire_impls!(KpBackup);

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_core::Seed;
    use amnesia_crypto::SecretRng;

    #[test]
    fn to_server_roundtrip() {
        let msg = ToServer::Login {
            user_id: "alice".into(),
            master_password: "mp".into(),
            request_id: 7,
            reply_to: "browser".into(),
        };
        assert_eq!(ToServer::from_wire(&msg.to_wire().unwrap()).unwrap(), msg);
    }

    #[test]
    fn reply_roundtrip_preserves_request_id() {
        let reply = Reply {
            request_id: u64::MAX,
            message: FromServer::RequestPushed,
        };
        assert_eq!(Reply::from_wire(&reply.to_wire().unwrap()).unwrap(), reply);
    }

    #[test]
    fn phone_push_roundtrip() {
        let mut rng = SecretRng::seeded(1);
        let push = PhonePush {
            request_id: 42,
            request: PasswordRequest::derive(
                &Username::new("u").unwrap(),
                &Domain::new("d").unwrap(),
                &Seed::random(&mut rng),
            ),
            origin: "203.0.113.9".into(),
            tstart: SimInstant::EPOCH,
            session_grant: None,
        };
        assert_eq!(
            PhonePush::from_wire(&push.to_wire().unwrap()).unwrap(),
            push
        );

        let with_grant = PhonePush {
            session_grant: Some(SessionGrantToken(vec![1, 2, 3])),
            ..push
        };
        assert_eq!(
            PhonePush::from_wire(&with_grant.to_wire().unwrap()).unwrap(),
            with_grant
        );
    }

    #[test]
    fn push_is_written_as_its_envelope() {
        let mut rng = SecretRng::seeded(3);
        let push = Push {
            registration_id: amnesia_rendezvous::RendezvousServer::new("gcm", 1)
                .register_device("phone"),
            message: PhonePush {
                request_id: 7,
                request: PasswordRequest::derive(
                    &Username::new("u").unwrap(),
                    &Domain::new("d").unwrap(),
                    &Seed::random(&mut rng),
                ),
                origin: "browser".into(),
                tstart: SimInstant::EPOCH,
                session_grant: Some(SessionGrantToken(vec![4; 40])),
            },
        };
        let mut out = vec![0xaa];
        push.write_wire(&mut out);
        let envelope = push.to_envelope();
        assert_eq!(out[1..], envelope.to_wire().unwrap()[..]);
        assert_eq!(PhonePush::from_wire(&envelope.data).unwrap(), push.message);
    }

    #[test]
    fn kp_backup_roundtrip() {
        let mut rng = SecretRng::seeded(2);
        let backup = KpBackup {
            pid: PhoneId::random(&mut rng),
            entries: (0..10).map(|_| EntryValue::random(&mut rng)).collect(),
        };
        assert_eq!(
            KpBackup::from_wire(&backup.to_wire().unwrap()).unwrap(),
            backup
        );
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(ToServer::from_wire(&[0xff; 3]).is_err());
        assert!(FromServer::from_wire(&[]).is_err());
    }
}

//! Master-password verifiers and session management.

use crate::error::ServerError;
use amnesia_core::Salt;
use amnesia_crypto::{ct_eq, hex, kdf, CryptoError, KdfPolicy, SecretRng};
use amnesia_store::codec::{CodecError, Reader, Record};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Number of consecutive failures after which an account locks.
pub const LOCKOUT_THRESHOLD: u32 = 10;

/// Wire version of the policy-tagged [`Verifier`] record (the legacy
/// bare-iterations layout is implicitly version 1).
const VERIFIER_WIRE_VERSION: u8 = 2;

/// A salted password verifier, policy-tagged: `KDF(MP, salt)` under an
/// explicit [`KdfPolicy`].
///
/// The paper stores a single salted hash; [`KdfPolicy::PAPER`] reproduces
/// that construction exactly, while the memory-hard ladder rungs harden
/// the same record against offline guessing. The policy the hash was
/// derived under is stored alongside it — verification always re-derives
/// under the *stored* policy, so records created at different rungs
/// coexist in one database.
///
/// ```
/// use amnesia_server::auth::Verifier;
/// use amnesia_crypto::{KdfPolicy, SecretRng};
///
/// let mut rng = SecretRng::seeded(1);
/// let policy = KdfPolicy::Cpu { iterations: 1000 };
/// let v = Verifier::derive(b"master password", &policy, &mut rng).unwrap();
/// assert!(v.verify(b"master password"));
/// assert!(!v.verify(b"master passwore"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Verifier {
    salt: Salt,
    hash: Vec<u8>,
    policy: KdfPolicy,
}

// Versioned wire format (DESIGN.md §14). Rows written before the policy
// ladder were `record_struct! { Verifier { salt, hash, iterations } }` —
// a bare trailing u32 iteration count. The tagged form must be decodable
// mid-stream (a `Verifier` sits inside the server's `UserRecord`), so it
// cannot key off "bytes remaining"; instead a zero u32 where `iterations`
// used to live marks the versioned layout. That sentinel is unambiguous:
// zero iterations is rejected at derive time ([`CryptoError::ZeroIterations`]),
// so no valid legacy row can carry it. CPU policies still encode through
// the legacy field, keeping paper-mode stores byte-identical to the
// pre-ladder format.
impl Record for Verifier {
    fn encode(&self, out: &mut Vec<u8>) {
        self.salt.encode(out);
        self.hash.encode(out);
        match self.policy {
            KdfPolicy::Cpu { iterations } => iterations.encode(out),
            policy => {
                0u32.encode(out);
                VERIFIER_WIRE_VERSION.encode(out);
                policy.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let salt = Salt::decode(r)?;
        let hash = Vec::<u8>::decode(r)?;
        let legacy_iterations = u32::decode(r)?;
        let policy = if legacy_iterations != 0 {
            KdfPolicy::Cpu {
                iterations: legacy_iterations,
            }
        } else {
            let version = u8::decode(r)?;
            if version != VERIFIER_WIRE_VERSION {
                return Err(CodecError::InvalidVariant(version as u64));
            }
            KdfPolicy::decode(r)?
        };
        Ok(Verifier { salt, hash, policy })
    }
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Verifier(0x{}…, {})",
            &hex::encode(&self.hash)[..8],
            self.policy.describe()
        )
    }
}

impl Verifier {
    /// Derives a verifier for `secret` under `policy` with a fresh random
    /// salt.
    ///
    /// # Errors
    ///
    /// Returns the [`CryptoError`] for invalid policy parameters (zero
    /// iterations, out-of-range scrypt cost or working set).
    pub fn derive(
        secret: &[u8],
        policy: &KdfPolicy,
        rng: &mut SecretRng,
    ) -> Result<Self, CryptoError> {
        let salt = Salt::random(rng);
        let mut hash = vec![0u8; 32];
        kdf::derive(policy, secret, salt.as_bytes(), &mut hash)?;
        Ok(Verifier {
            salt,
            hash,
            policy: *policy,
        })
    }

    /// Checks `candidate` against the stored hash in constant time,
    /// re-deriving under the verifier's stored policy.
    ///
    /// A verifier whose stored policy is invalid (possible only via a
    /// corrupted record) rejects every candidate rather than panicking.
    pub fn verify(&self, candidate: &[u8]) -> bool {
        let mut hash = vec![0u8; 32];
        if kdf::derive(&self.policy, candidate, self.salt.as_bytes(), &mut hash).is_err() {
            return false;
        }
        ct_eq(&hash, &self.hash)
    }

    /// [`verify`](Self::verify), refusing a silent hardness downgrade.
    ///
    /// `requested` is the policy the deployment's configuration would use
    /// for this verification. If the record was stored under a stronger
    /// hardness *class* than the deployment now requests (memory-hard
    /// record, CPU-only config), the mismatch is an error — the operator
    /// either misconfigured the tier or something is steering logins onto
    /// the cheap-to-guess path. The upgrade direction (legacy CPU record
    /// under a memory-hard deployment) verifies normally; such records are
    /// re-derived at the stronger rung on the next password change.
    pub fn verify_expecting(
        &self,
        candidate: &[u8],
        requested: &KdfPolicy,
    ) -> Result<bool, ServerError> {
        if self.policy.class() > requested.class() {
            return Err(ServerError::PolicyDowngrade {
                stored: self.policy.describe(),
                requested: requested.describe(),
            });
        }
        Ok(self.verify(candidate))
    }

    /// The policy the stored hash was derived under.
    pub fn policy(&self) -> &KdfPolicy {
        &self.policy
    }

    /// The verifier's salt (exposed so Table I can be rendered).
    pub fn salt(&self) -> &Salt {
        &self.salt
    }

    /// The stored hash bytes (exposed for Table I and the server-breach
    /// attack model, which captures data at rest).
    pub fn hash_bytes(&self) -> &[u8] {
        &self.hash
    }
}

/// An opaque session token issued after a successful login. The text is
/// shared, so the copy every authenticated message carries costs no
/// allocation; it encodes as a `String`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Session(Arc<str>);
amnesia_store::record_tuple! { Session(token) }

impl Session {
    fn random(rng: &mut SecretRng) -> Self {
        Session(Arc::from(hex::encode(&rng.bytes::<16>())))
    }

    /// The token text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Session({}…)", &self.0[..8.min(self.0.len())])
    }
}

/// Tracks live sessions and per-user failure counters. A user is named by
/// its index among the server's users, so a session costs no copy of the
/// user id.
#[derive(Debug, Default)]
pub struct SessionManager {
    sessions: HashMap<Session, usize>,
    failures: HashMap<usize, u32>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the user is currently locked out.
    pub fn is_locked(&self, user: usize) -> bool {
        self.failures.get(&user).copied().unwrap_or(0) >= LOCKOUT_THRESHOLD
    }

    /// Records a failed login.
    ///
    /// Returns [`ServerError::AccountLocked`] once the threshold is crossed,
    /// [`ServerError::BadCredentials`] before that.
    pub fn record_failure(&mut self, user: usize) -> ServerError {
        let count = self.failures.entry(user).or_insert(0);
        *count += 1;
        if *count >= LOCKOUT_THRESHOLD {
            ServerError::AccountLocked { failures: *count }
        } else {
            ServerError::BadCredentials
        }
    }

    /// Clears the failure counter (successful login or admin unlock).
    pub fn clear_failures(&mut self, user: usize) {
        self.failures.remove(&user);
    }

    /// Issues a session for the user at index `user`.
    pub fn issue(&mut self, user: usize, rng: &mut SecretRng) -> Session {
        let session = Session::random(rng);
        self.sessions.insert(session.clone(), user);
        session
    }

    /// Resolves a session to its user's index.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidSession`] for unknown tokens.
    pub fn resolve(&self, session: &Session) -> Result<usize, ServerError> {
        self.sessions
            .get(session)
            .copied()
            .ok_or(ServerError::InvalidSession)
    }

    /// Ends a session; returns whether it existed.
    pub fn revoke(&mut self, session: &Session) -> bool {
        self.sessions.remove(session).is_some()
    }

    /// Ends every session of the user at index `user` (used after a
    /// master-password change).
    pub fn revoke_all_for(&mut self, user: usize) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|_, owner| *owner != user);
        before - self.sessions.len()
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPU_10: KdfPolicy = KdfPolicy::Cpu { iterations: 10 };
    /// Two users' indices.
    const ALICE: usize = 0;
    const BOB: usize = 1;
    /// A deliberately tiny memory-hard policy so tests stay fast.
    const TINY_MEMHARD: KdfPolicy = KdfPolicy::MemoryHard {
        log_n: 4,
        r: 1,
        p: 2,
    };

    #[test]
    fn verifier_accepts_only_exact_secret() {
        let mut rng = SecretRng::seeded(1);
        let v = Verifier::derive(b"correct horse", &CPU_10, &mut rng).unwrap();
        assert!(v.verify(b"correct horse"));
        assert!(!v.verify(b"correct horsf"));
        assert!(!v.verify(b""));
    }

    #[test]
    fn memory_hard_verifier_accepts_only_exact_secret() {
        let mut rng = SecretRng::seeded(11);
        let v = Verifier::derive(b"correct horse", &TINY_MEMHARD, &mut rng).unwrap();
        assert_eq!(v.policy(), &TINY_MEMHARD);
        assert!(v.verify(b"correct horse"));
        assert!(!v.verify(b"correct horsf"));
    }

    #[test]
    fn same_password_different_salt_different_hash() {
        let mut rng = SecretRng::seeded(2);
        let a = Verifier::derive(b"mp", &CPU_10, &mut rng).unwrap();
        let b = Verifier::derive(b"mp", &CPU_10, &mut rng).unwrap();
        assert_ne!(a.hash_bytes(), b.hash_bytes());
    }

    #[test]
    fn paper_mode_single_iteration() {
        let mut rng = SecretRng::seeded(3);
        let v = Verifier::derive(b"mp", &KdfPolicy::PAPER, &mut rng).unwrap();
        assert!(v.verify(b"mp"));
    }

    #[test]
    fn zero_iterations_is_rejected() {
        let mut rng = SecretRng::seeded(8);
        assert_eq!(
            Verifier::derive(b"mp", &KdfPolicy::Cpu { iterations: 0 }, &mut rng).unwrap_err(),
            CryptoError::ZeroIterations
        );
    }

    #[test]
    fn cpu_record_encodes_byte_identical_to_legacy_layout() {
        // Pre-ladder rows were `record_struct! { salt, hash, iterations }`.
        // CPU policies must keep producing exactly those bytes so existing
        // durable stores neither change on rewrite nor need migration.
        #[derive(PartialEq, Debug)]
        struct LegacyVerifier {
            salt: Salt,
            hash: Vec<u8>,
            iterations: u32,
        }
        amnesia_store::record_struct! { LegacyVerifier { salt, hash, iterations } }

        let mut rng = SecretRng::seeded(21);
        let v = Verifier::derive(b"mp", &CPU_10, &mut rng).unwrap();
        let legacy = LegacyVerifier {
            salt: v.salt().clone(),
            hash: v.hash_bytes().to_vec(),
            iterations: 10,
        };
        assert_eq!(
            amnesia_store::codec::to_bytes(&v).unwrap(),
            amnesia_store::codec::to_bytes(&legacy).unwrap()
        );
    }

    #[test]
    fn legacy_bytes_decode_as_cpu_policy() {
        #[derive(PartialEq, Debug)]
        struct LegacyVerifier {
            salt: Salt,
            hash: Vec<u8>,
            iterations: u32,
        }
        amnesia_store::record_struct! { LegacyVerifier { salt, hash, iterations } }

        let mut rng = SecretRng::seeded(22);
        let legacy = LegacyVerifier {
            salt: Salt::random(&mut rng),
            hash: vec![0xab; 32],
            iterations: 1,
        };
        let bytes = amnesia_store::codec::to_bytes(&legacy).unwrap();
        let decoded: Verifier = amnesia_store::codec::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.policy(), &KdfPolicy::Cpu { iterations: 1 });
        assert_eq!(decoded.salt(), &legacy.salt);
        assert_eq!(decoded.hash_bytes(), &legacy.hash[..]);
    }

    #[test]
    fn memory_hard_record_roundtrips_versioned() {
        let mut rng = SecretRng::seeded(23);
        let v = Verifier::derive(b"mp", &TINY_MEMHARD, &mut rng).unwrap();
        let bytes = amnesia_store::codec::to_bytes(&v).unwrap();
        // The sentinel (zero u32) sits right after the salt and hash.
        assert_eq!(&bytes[16 + 1 + 32..16 + 1 + 32 + 4], &[0, 0, 0, 0]);
        let decoded: Verifier = amnesia_store::codec::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, v);
        assert!(decoded.verify(b"mp"));
    }

    #[test]
    fn unknown_wire_version_is_a_decode_error() {
        let mut rng = SecretRng::seeded(24);
        let v = Verifier::derive(b"mp", &TINY_MEMHARD, &mut rng).unwrap();
        let mut bytes = amnesia_store::codec::to_bytes(&v).unwrap();
        bytes[16 + 1 + 32 + 4] = 99; // corrupt the version byte
        let decoded: Result<Verifier, _> = amnesia_store::codec::from_bytes(&bytes);
        assert_eq!(decoded.unwrap_err(), CodecError::InvalidVariant(99));
    }

    #[test]
    fn stored_policy_past_the_lane_bound_rejects_every_candidate() {
        // A row whose policy asks for 128 · 1024 · 2^24 bytes (2 TiB) per
        // lane: verification refuses it before allocating anything.
        let huge = KdfPolicy::MemoryHard {
            log_n: 24,
            r: 1024,
            p: 1,
        };
        let mut rng = SecretRng::seeded(26);
        let mut bytes = Vec::new();
        Salt::random(&mut rng).encode(&mut bytes);
        vec![0xab_u8; 32].encode(&mut bytes);
        0u32.encode(&mut bytes);
        VERIFIER_WIRE_VERSION.encode(&mut bytes);
        huge.encode(&mut bytes);
        let decoded: Verifier = amnesia_store::codec::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.policy(), &huge);
        assert_eq!(decoded.policy().memory_bytes(), 1 << 41);
        assert!(!decoded.verify(b"mp"));
        assert!(!decoded.verify(b""));
    }

    #[test]
    fn stored_policy_past_the_derivation_bound_rejects_every_candidate_at_once() {
        // 1 024 lanes of 1 GiB each: every lane fits, the derivation does
        // not, so verification refuses it before deriving anything (the
        // derivation itself would take about 1.5 CPU-hours).
        let huge = KdfPolicy::MemoryHard {
            log_n: 20,
            r: 8,
            p: 1024,
        };
        let mut rng = SecretRng::seeded(27);
        let mut bytes = Vec::new();
        Salt::random(&mut rng).encode(&mut bytes);
        vec![0xab_u8; 32].encode(&mut bytes);
        0u32.encode(&mut bytes);
        VERIFIER_WIRE_VERSION.encode(&mut bytes);
        huge.encode(&mut bytes);
        let decoded: Verifier = amnesia_store::codec::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.policy(), &huge);
        assert!(!decoded.verify(b"mp"));
        assert!(!decoded.verify(b""));
    }

    #[test]
    fn downgrade_is_refused_upgrade_is_allowed() {
        let mut rng = SecretRng::seeded(25);
        let hard = Verifier::derive(b"mp", &TINY_MEMHARD, &mut rng).unwrap();
        // MemoryHard record, CPU request: refused regardless of candidate.
        let err = hard.verify_expecting(b"mp", &KdfPolicy::PAPER).unwrap_err();
        assert!(matches!(err, ServerError::PolicyDowngrade { .. }));
        // Same class: verifies.
        assert!(hard.verify_expecting(b"mp", &KdfPolicy::PARANOID).unwrap());
        // Legacy CPU record under a memory-hard deployment: allowed
        // (upgrade path), and still verifies under its stored policy.
        let legacy = Verifier::derive(b"mp", &KdfPolicy::PAPER, &mut rng).unwrap();
        assert!(legacy.verify_expecting(b"mp", &TINY_MEMHARD).unwrap());
        assert!(!legacy.verify_expecting(b"wrong", &TINY_MEMHARD).unwrap());
    }

    #[test]
    fn sessions_resolve_and_revoke() {
        let mut rng = SecretRng::seeded(4);
        let mut mgr = SessionManager::new();
        let s = mgr.issue(ALICE, &mut rng);
        assert_eq!(mgr.resolve(&s).unwrap(), ALICE);
        assert!(mgr.revoke(&s));
        assert!(!mgr.revoke(&s));
        assert_eq!(mgr.resolve(&s), Err(ServerError::InvalidSession));
    }

    #[test]
    fn revoke_all_for_user() {
        let mut rng = SecretRng::seeded(5);
        let mut mgr = SessionManager::new();
        let _a1 = mgr.issue(ALICE, &mut rng);
        let _a2 = mgr.issue(ALICE, &mut rng);
        let b = mgr.issue(BOB, &mut rng);
        assert_eq!(mgr.revoke_all_for(ALICE), 2);
        assert_eq!(mgr.live_count(), 1);
        assert_eq!(mgr.resolve(&b).unwrap(), BOB);
    }

    #[test]
    fn lockout_after_threshold() {
        let mut mgr = SessionManager::new();
        for i in 1..LOCKOUT_THRESHOLD {
            assert_eq!(
                mgr.record_failure(ALICE),
                ServerError::BadCredentials,
                "attempt {i}"
            );
        }
        assert!(matches!(
            mgr.record_failure(ALICE),
            ServerError::AccountLocked { .. }
        ));
        assert!(mgr.is_locked(ALICE));
        assert!(!mgr.is_locked(BOB));
        mgr.clear_failures(ALICE);
        assert!(!mgr.is_locked(ALICE));
    }

    #[test]
    fn tokens_are_unique() {
        let mut rng = SecretRng::seeded(6);
        let mut mgr = SessionManager::new();
        let a = mgr.issue(ALICE, &mut rng);
        let b = mgr.issue(ALICE, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts() {
        let mut rng = SecretRng::seeded(7);
        let v = Verifier::derive(b"mp", &KdfPolicy::PAPER, &mut rng).unwrap();
        let dbg = format!("{v:?}");
        assert!(dbg.len() < 64, "debug leaks too much: {dbg}");
        assert!(!dbg.contains(&hex::encode(v.hash_bytes())));
        let mut mgr = SessionManager::new();
        let s = mgr.issue(ALICE, &mut rng);
        assert!(!format!("{s:?}").contains(s.as_str()));
    }
}

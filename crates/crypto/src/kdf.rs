//! Deployment-selectable key-derivation policy: one entry point, two
//! hardness families.
//!
//! Every place the system stretches a low-entropy secret — the server's
//! master-password verifier, the phone-pairing PID verifier — goes through
//! [`derive`](fn@derive) with an explicit [`KdfPolicy`]. The policy names
//! *what the attacker must pay per guess*:
//!
//! * [`KdfPolicy::Cpu`] — PBKDF2-HMAC-SHA-256 with an iteration count.
//!   `iterations = 1` is the paper's single-salted-hash construction
//!   ([`KdfPolicy::PAPER`]); higher counts buy linear CPU cost.
//! * [`KdfPolicy::MemoryHard`] — scrypt (RFC 7914). Cost is area × time:
//!   each guess must sweep a `128·r·2^log_n`-byte working set, so
//!   specialized silicon cannot shrink the per-guess price the way it
//!   does for pure hashing.
//!
//! Three named rungs form the deployment ladder — [`KdfPolicy::INTERACTIVE`]
//! (8 MiB), [`KdfPolicy::BALANCED`] (32 MiB) and [`KdfPolicy::PARANOID`]
//! (128 MiB across two lanes) — enumerated by [`KdfPolicy::ladder`]. The
//! serialized form of a policy is owned by `amnesia-store` (verifier
//! records are policy-tagged and versioned there); this module only defines
//! the semantics.

use crate::error::CryptoError;
use crate::pbkdf2::{pbkdf2_hmac_sha256, pbkdf2_hmac_sha256_with_fanout};
use crate::scrypt::{scrypt, scrypt_with_fanout};
use crate::stats;

/// Hardness family of a [`KdfPolicy`], ordered by attacker cost class.
///
/// `Cpu < MemoryHard`: a memory-hard policy is strictly harder to attack
/// per guess than any pure-CPU policy, regardless of iteration count, so
/// deployment layers can detect a *downgrade* (stored class stronger than
/// the class the configuration would re-derive at) with a single compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KdfClass {
    /// CPU-hard only (PBKDF2): attacker cost scales with compute.
    Cpu,
    /// Memory-hard (scrypt): attacker cost scales with memory area × time.
    MemoryHard,
}

/// A key-derivation hardness policy: which KDF, at which parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KdfPolicy {
    /// PBKDF2-HMAC-SHA-256 with `iterations` rounds (CPU-hard).
    Cpu {
        /// RFC 8018 iteration count; must be nonzero.
        iterations: u32,
    },
    /// scrypt with `N = 2^log_n`, block-size factor `r`, parallelism `p`
    /// (memory-hard; `p` lanes fan out across threads).
    MemoryHard {
        /// log2 of the scrypt cost parameter `N`.
        log_n: u8,
        /// scrypt block-size factor; the working set is `128·r·N` bytes.
        r: u32,
        /// scrypt parallelization factor (independent lanes).
        p: u32,
    },
}

impl KdfPolicy {
    /// The paper's construction: a single salted PBKDF2 round — no
    /// stretching beyond the hash itself.
    pub const PAPER: KdfPolicy = KdfPolicy::Cpu { iterations: 1 };

    /// Ladder rung for interactive logins: 8 MiB working set
    /// (`N = 2^13`, `r = 8`, `p = 1`), ~10⁴× the paper's per-guess cost
    /// on commodity hardware while staying well under human-visible
    /// latency.
    pub const INTERACTIVE: KdfPolicy = KdfPolicy::MemoryHard {
        log_n: 13,
        r: 8,
        p: 1,
    };

    /// Middle rung: 32 MiB working set (`N = 2^15`, `r = 8`, `p = 1`).
    pub const BALANCED: KdfPolicy = KdfPolicy::MemoryHard {
        log_n: 15,
        r: 8,
        p: 1,
    };

    /// Top rung: 128 MiB total across two lanes (`N = 2^16`, `r = 8`,
    /// `p = 2`); the lanes run on separate threads so wall-clock latency
    /// is roughly one lane's worth.
    pub const PARANOID: KdfPolicy = KdfPolicy::MemoryHard {
        log_n: 16,
        r: 8,
        p: 2,
    };

    /// The named deployment ladder, weakest rung first.
    pub fn ladder() -> [(&'static str, KdfPolicy); 3] {
        [
            ("interactive", KdfPolicy::INTERACTIVE),
            ("balanced", KdfPolicy::BALANCED),
            ("paranoid", KdfPolicy::PARANOID),
        ]
    }

    /// The hardness family this policy belongs to.
    pub fn class(&self) -> KdfClass {
        match self {
            KdfPolicy::Cpu { .. } => KdfClass::Cpu,
            KdfPolicy::MemoryHard { .. } => KdfClass::MemoryHard,
        }
    }

    /// Short class label for metric names: `"cpu"` or `"memhard"`.
    pub fn class_name(&self) -> &'static str {
        match self.class() {
            KdfClass::Cpu => "cpu",
            KdfClass::MemoryHard => "memhard",
        }
    }

    /// Bytes of working memory one guess must touch (all lanes summed).
    ///
    /// `Cpu` policies report the PBKDF2 state size (two hash blocks —
    /// effectively zero); `MemoryHard` reports `p · 128 · r · 2^log_n`.
    pub fn memory_bytes(&self) -> u64 {
        match *self {
            KdfPolicy::Cpu { .. } => 128,
            KdfPolicy::MemoryHard { log_n, r, p } => {
                (p as u64) * 128 * (r as u64) * (1u64 << log_n)
            }
        }
    }

    /// Human-readable parameter summary, e.g. `cpu(iterations=1)` or
    /// `memhard(N=2^15, r=8, p=1)` — used in error messages and reports.
    pub fn describe(&self) -> String {
        match *self {
            KdfPolicy::Cpu { iterations } => format!("cpu(iterations={iterations})"),
            KdfPolicy::MemoryHard { log_n, r, p } => {
                format!("memhard(N=2^{log_n}, r={r}, p={p})")
            }
        }
    }
}

/// Derives `out.len()` bytes from `secret` and `salt` under `policy`.
///
/// This is the single dispatch point every derivation site in the
/// workspace goes through; the policy fully determines the output, so two
/// deployments agree on a verifier exactly when they agree on the policy.
///
/// ```
/// use amnesia_crypto::kdf::{self, KdfPolicy};
/// let mut a = [0u8; 32];
/// let mut b = [0u8; 32];
/// kdf::derive(&KdfPolicy::PAPER, b"mp", b"salt", &mut a).unwrap();
/// kdf::derive(&KdfPolicy::INTERACTIVE, b"mp", b"salt", &mut b).unwrap();
/// assert_ne!(a, b); // the policy is part of the function
/// ```
pub fn derive(
    policy: &KdfPolicy,
    secret: &[u8],
    salt: &[u8],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    match *policy {
        KdfPolicy::Cpu { iterations } => {
            stats::note_kdf_cpu_derivation();
            pbkdf2_hmac_sha256(secret, salt, iterations, out)
        }
        KdfPolicy::MemoryHard { log_n, r, p } => {
            stats::note_kdf_memhard_derivation();
            scrypt(secret, salt, log_n, r, p, out)
        }
    }
}

/// [`derive`](fn@derive) with a caller-pinned thread fan-out width.
///
/// The derived bytes are identical at every width (lanes and output
/// blocks are data-independent); property-tested in `tests/properties.rs`.
pub fn derive_with_fanout(
    policy: &KdfPolicy,
    secret: &[u8],
    salt: &[u8],
    out: &mut [u8],
    fanout: usize,
) -> Result<(), CryptoError> {
    match *policy {
        KdfPolicy::Cpu { iterations } => {
            stats::note_kdf_cpu_derivation();
            pbkdf2_hmac_sha256_with_fanout(secret, salt, iterations, out, fanout)
        }
        KdfPolicy::MemoryHard { log_n, r, p } => {
            stats::note_kdf_memhard_derivation();
            scrypt_with_fanout(secret, salt, log_n, r, p, out, fanout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_policy_matches_raw_pbkdf2() {
        let mut via_policy = [0u8; 32];
        let mut direct = [0u8; 32];
        derive(
            &KdfPolicy::Cpu { iterations: 7 },
            b"mp",
            b"salt",
            &mut via_policy,
        )
        .unwrap();
        pbkdf2_hmac_sha256(b"mp", b"salt", 7, &mut direct).unwrap();
        assert_eq!(via_policy, direct);
    }

    #[test]
    fn memhard_policy_matches_raw_scrypt() {
        let policy = KdfPolicy::MemoryHard {
            log_n: 4,
            r: 1,
            p: 1,
        };
        let mut via_policy = [0u8; 32];
        let mut direct = [0u8; 32];
        derive(&policy, b"mp", b"salt", &mut via_policy).unwrap();
        scrypt(b"mp", b"salt", 4, 1, 1, &mut direct).unwrap();
        assert_eq!(via_policy, direct);
    }

    #[test]
    fn classes_order_cpu_below_memhard() {
        assert!(KdfPolicy::PAPER.class() < KdfPolicy::INTERACTIVE.class());
        assert!(
            KdfPolicy::Cpu {
                iterations: u32::MAX
            }
            .class()
                < KdfClass::MemoryHard
        );
        assert_eq!(KdfPolicy::PAPER.class_name(), "cpu");
        assert_eq!(KdfPolicy::BALANCED.class_name(), "memhard");
    }

    #[test]
    fn ladder_memory_is_strictly_increasing() {
        let ladder = KdfPolicy::ladder();
        assert!(KdfPolicy::PAPER.memory_bytes() < ladder[0].1.memory_bytes());
        for pair in ladder.windows(2) {
            assert!(pair[0].1.memory_bytes() < pair[1].1.memory_bytes());
        }
        assert_eq!(KdfPolicy::INTERACTIVE.memory_bytes(), 8 << 20);
        assert_eq!(KdfPolicy::BALANCED.memory_bytes(), 32 << 20);
        assert_eq!(KdfPolicy::PARANOID.memory_bytes(), 128 << 20);
    }

    #[test]
    fn invalid_parameters_surface_as_typed_errors() {
        let mut out = [0u8; 16];
        assert_eq!(
            derive(&KdfPolicy::Cpu { iterations: 0 }, b"s", b"n", &mut out),
            Err(CryptoError::ZeroIterations)
        );
        assert_eq!(
            derive(
                &KdfPolicy::MemoryHard {
                    log_n: 0,
                    r: 1,
                    p: 1
                },
                b"s",
                b"n",
                &mut out
            ),
            Err(CryptoError::ScryptCostOutOfRange)
        );
    }

    #[test]
    fn describe_names_the_parameters() {
        assert_eq!(KdfPolicy::PAPER.describe(), "cpu(iterations=1)");
        assert_eq!(KdfPolicy::BALANCED.describe(), "memhard(N=2^15, r=8, p=1)");
    }
}

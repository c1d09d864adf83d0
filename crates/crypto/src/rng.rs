//! Random generation of the scheme's secret values.
//!
//! Implemented as an HMAC-SHA-256 deterministic random bit generator in the
//! style of NIST SP 800-90A (HMAC_DRBG), built entirely on the crate's own
//! [`hmac_sha256`] — no external RNG crate.

use crate::hmac::HmacKey;
use crate::sha256::store_words;
use crate::zeroize::{zeroize, zeroize_u32};
use crate::Sha256;
use std::fmt;

/// Source of secret random material (`Oid`, `Pid`, seeds `σ`, entry tables,
/// salts).
///
/// An HMAC-SHA-256 DRBG (NIST SP 800-90A construction), built with
/// [`SecretRng::seeded`] from a 64-bit seed: every deployment, experiment
/// and test seeds its generators that way, so every paper artifact
/// regenerates bit-for-bit.
///
/// ```
/// use amnesia_crypto::SecretRng;
///
/// let mut a = SecretRng::seeded(7);
/// let mut b = SecretRng::seeded(7);
/// assert_eq!(a.bytes::<32>(), b.bytes::<32>());
/// ```
pub struct SecretRng {
    /// The SP 800-90A key `K`, kept only in expanded form: its ipad/opad
    /// midstates. Replaced whenever `update` or `refresh` replaces `K`.
    key: HmacKey<Sha256>,
    /// Chaining value `V` from SP 800-90A, as eight big-endian words.
    v: [u32; 8],
}

impl fmt::Debug for SecretRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never expose internal RNG state.
        f.debug_struct("SecretRng").finish_non_exhaustive()
    }
}

/// The `K`/`V` state determines every future output, so it is wiped when the
/// generator goes away rather than left for the allocator to recycle. `V`
/// is wiped here; the midstates of `K` wipe themselves when `key` drops.
impl Drop for SecretRng {
    fn drop(&mut self) {
        zeroize_u32(&mut self.v);
    }
}

impl SecretRng {
    /// Instantiates the DRBG from raw seed material of any length.
    fn instantiate(seed_material: &[u8]) -> Self {
        let mut rng = SecretRng {
            key: HmacKey::new(&[0x00; 32]),
            v: [0x0101_0101; 8],
        };
        rng.update(seed_material);
        rng
    }

    /// The SP 800-90A `HMAC_DRBG_Update` step: folds `data` (possibly empty)
    /// into the `K`/`V` state.
    ///
    /// Streams `V || round || data` through the cached key instead of
    /// concatenating into a `Vec`, and expands each new `K` once, here; the
    /// output stream is bit-identical (pinned by the `KAT_*` tests below).
    /// Only seeding calls this; `Generate` closes with [`refresh`], which
    /// is the same step for empty `data`, on words.
    ///
    /// [`refresh`]: SecretRng::refresh
    fn update(&mut self, data: &[u8]) {
        for round in [0x00u8, 0x01] {
            let mut v = [0u8; 32];
            store_words(&self.v, &mut v);
            let mut k = [0u8; 32];
            let mut m = self.key.begin();
            m.update(&v);
            m.update(&[round]);
            m.update(data);
            m.finalize_into(&mut k);
            self.key = HmacKey::new(&k);
            zeroize(&mut k);
            zeroize(&mut v);
            self.ratchet();
            if data.is_empty() {
                return;
            }
        }
    }

    /// `V = HMAC(K, V)`: two compressions on words under the cached key.
    fn ratchet(&mut self) {
        self.v = self.key.mac_words(&self.v, None);
    }

    /// `HMAC_DRBG_Update` with no data, on words: `K = HMAC(K, V || 0x00)`,
    /// expanded once, then a ratchet. Six compressions.
    fn refresh(&mut self) {
        let mut k = self.key.mac_words(&self.v, Some(0x00));
        self.key = HmacKey::from_words(&k);
        zeroize_u32(&mut k);
        self.ratchet();
    }

    /// Creates a deterministic generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        SecretRng::instantiate(&seed.to_le_bytes())
    }

    /// Fills `buf` with random bytes (the SP 800-90A `Generate` step).
    ///
    /// The generator keeps `K` expanded, so each 32-byte chunk is one
    /// ratchet of `V`: two compressions. The closing `update` costs six
    /// more (two for the new `K`, two to expand it, two for `V`), so a
    /// [`next_u64`](SecretRng::next_u64) costs eight compressions and one
    /// key expansion, all of them one block of words each.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(32) {
            self.ratchet();
            store_words(&self.v, chunk);
        }
        // Post-generate state refresh, so past output can't be reconstructed
        // from a captured state (backtracking resistance).
        self.refresh();
    }

    /// Returns `N` random bytes as a fixed-size array.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.bytes::<8>())
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated component its own stream from one experiment seed.
    pub fn fork(&mut self) -> SecretRng {
        SecretRng::seeded(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn seeded_is_reproducible() {
        let mut a = SecretRng::seeded(42);
        let mut b = SecretRng::seeded(42);
        assert_eq!(a.bytes::<64>(), b.bytes::<64>());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SecretRng::seeded(1);
        let mut b = SecretRng::seeded(2);
        assert_ne!(a.bytes::<32>(), b.bytes::<32>());
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut root1 = SecretRng::seeded(9);
        let mut root2 = SecretRng::seeded(9);
        let mut f1 = root1.fork();
        let mut f2 = root2.fork();
        assert_eq!(f1.bytes::<16>(), f2.bytes::<16>());
        // The fork stream differs from the parent stream.
        assert_ne!(root1.bytes::<16>(), f1.bytes::<16>());
    }

    #[test]
    fn fill_covers_whole_buffer() {
        let mut rng = SecretRng::seeded(3);
        let mut buf = [0u8; 257];
        rng.fill(&mut buf);
        // Overwhelmingly unlikely to be all zeros if filled.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn debug_hides_state() {
        let rng = SecretRng::seeded(1);
        let s = format!("{rng:?}");
        assert!(s.contains("SecretRng"));
        assert!(!s.contains("inner"));
        assert!(!s.contains("k:"));
    }

    /// Known-answer test pinning the DRBG output stream. If this ever
    /// changes, every seeded experiment artifact in the repo changes with
    /// it — treat a failure here as a wire-format break, not a flake.
    #[test]
    fn known_answer_seed_zero() {
        let mut rng = SecretRng::seeded(0);
        let out = rng.bytes::<64>();
        assert_eq!(hex::encode(&out), KAT_SEED_0);
    }

    #[test]
    fn known_answer_seed_42() {
        let mut rng = SecretRng::seeded(42);
        let out = rng.bytes::<64>();
        assert_eq!(hex::encode(&out), KAT_SEED_42);
    }

    /// The stream must not depend on read granularity: one 64-byte read and
    /// sixty-four 1-byte reads traverse different `Generate` calls, but the
    /// single-read form is the canonical stream the KATs pin.
    #[test]
    fn single_read_matches_kat_regardless_of_later_reads() {
        let mut rng = SecretRng::seeded(0);
        let first: [u8; 32] = rng.bytes();
        let mut rng2 = SecretRng::seeded(0);
        let both: [u8; 64] = rng2.bytes();
        // First 32 bytes of a longer read match a shorter read: within one
        // Generate call the stream is a pure function of the seed.
        assert_eq!(first, both[..32]);
    }

    /// The KATs above read once from a fresh generator; these pin the
    /// stream across many calls, so a key that goes stale between
    /// `Generate` calls shows up here.
    #[test]
    fn known_answer_thousand_consecutive_u64s() {
        let mut rng = SecretRng::seeded(0);
        let mut h = Sha256::new();
        for _ in 0..1_000 {
            h.update(&rng.next_u64().to_le_bytes());
        }
        assert_eq!(hex::encode(&h.finalize()), KAT_SEED_0_THOUSAND_U64S);
    }

    #[test]
    fn known_answer_mixed_fills_and_fork() {
        let mut rng = SecretRng::seeded(42);
        let mut h = Sha256::new();
        for len in [0usize, 1, 8, 31, 32, 33, 64, 257] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf);
            h.update(&buf);
        }
        h.update(&rng.fork().bytes::<32>());
        h.update(&rng.bytes::<32>());
        assert_eq!(hex::encode(&h.finalize()), KAT_SEED_42_FILLS_AND_FORK);
    }

    // Pinned first 64 bytes of the stream for fixed seeds. Derived once from
    // this implementation (HMAC_DRBG/SHA-256, seed material = 8-byte LE
    // integer) and frozen.
    const KAT_SEED_0: &str = "56bf5265dbb807133943771ddcd50685\
c064a37db3fab6ed3812367902bc98ab\
e0850106cc2b89303740fe94ae5bd196\
715792ee599c3ef4528a8dd7c48359a6";
    const KAT_SEED_42: &str = "46f02e8ad2dd0658c0621e77696626f6\
82db3013064a7b14b8e72afc08d4454e\
ec2921fd70fc1dc9302e43822c026b4e\
6b0c7c1ec1e2c4b86de82edd7bf9133f";
    // SHA-256 digests of longer streams, frozen the same way.
    const KAT_SEED_0_THOUSAND_U64S: &str =
        "b65e9149b2812a05fa0cc13df390cc4ac18875ebf142850d656dce41ed2dc6b4";
    const KAT_SEED_42_FILLS_AND_FORK: &str =
        "16fa24d4d7dba164a7ddbd3126e719acc13b0f64cdc7b7438593c5e456843774";
}

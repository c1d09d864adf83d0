//! A minimal digest abstraction so [`Hmac`](crate::Hmac), [`HmacKey`]
//! and PBKDF2 can be generic over the two hash functions this crate
//! provides.
//!
//! [`HmacKey`]: crate::HmacKey

use crate::zeroize::zeroize;

/// Largest digest output length (bytes) of any [`Digest`] in this crate
/// (SHA-512). Lets generic code hold digests in fixed stack buffers —
/// `[u8; MAX_OUTPUT_LEN]` sliced to `D::OUTPUT_LEN` — instead of `Vec`s.
pub const MAX_OUTPUT_LEN: usize = 64;

/// Largest internal block length (bytes) of any [`Digest`] in this crate
/// (SHA-512). Lets generic HMAC key processing run allocation-free.
pub const MAX_BLOCK_LEN: usize = 128;

/// A cryptographic hash function usable by HMAC and PBKDF2.
///
/// This trait is sealed in spirit: it is implemented by [`Sha256`] and
/// [`Sha512`] and exists so the MAC/KDF code is written once. Implementations
/// must be deterministic and must match the streaming semantics of the
/// underlying specification.
///
/// ```
/// use amnesia_crypto::{Digest, Sha256};
/// let mut h = Sha256::fresh();
/// h.absorb(b"abc");
/// assert_eq!(h.produce(), amnesia_crypto::sha256(b"abc").to_vec());
/// ```
///
/// # Midstates
///
/// [`save`](Digest::save) exports the *compressed* midstate — the chaining
/// value plus the message length, without any partially buffered block — and
/// [`restore`](Digest::restore) stamps out a fresh hasher from it. Saving is
/// only lossless at a block boundary (`absorbed bytes % BLOCK_LEN == 0`);
/// HMAC's ipad/opad prefixes are exactly one block, which is the use this
/// API exists for. Midstate values are key-derived in that use, so the
/// concrete midstate types wipe themselves on drop.
///
/// ```
/// use amnesia_crypto::{Digest, Sha256};
/// let mut prefix = Sha256::fresh();
/// prefix.absorb(&[0x36u8; 64]); // one full block
/// let mid = prefix.save();
/// let mut a = Sha256::restore(&mid);
/// a.absorb(b"suffix");
/// let mut b = Sha256::fresh();
/// b.absorb(&[0x36u8; 64]);
/// b.absorb(b"suffix");
/// assert_eq!(a.produce(), b.produce());
/// ```
///
/// [`Sha256`]: crate::Sha256
/// [`Sha512`]: crate::Sha512
pub trait Digest: Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (needed for HMAC key processing).
    const BLOCK_LEN: usize;

    /// Compressed midstate: chaining value + absorbed length. `Send + Sync`
    /// so precomputed HMAC keys can be shared across PBKDF2 workers.
    type Midstate: Clone + Send + Sync;

    /// Creates a hasher in the initial state.
    fn fresh() -> Self;
    /// Absorbs bytes into the state.
    fn absorb(&mut self, data: &[u8]);
    /// Finishes the hash, writing the first `min(out.len(), OUTPUT_LEN)`
    /// digest bytes into `out`. Allocation-free; callers pass a fixed
    /// `[u8; OUTPUT_LEN]` (or a slice of one) to receive the whole digest.
    fn produce_into(self, out: &mut [u8]);
    /// Exports the compressed midstate (valid at block boundaries; any
    /// partially buffered bytes are not captured).
    fn save(&self) -> Self::Midstate;
    /// Creates a hasher that resumes from a saved midstate.
    fn restore(midstate: &Self::Midstate) -> Self;

    /// Finishes and returns the digest (length [`Self::OUTPUT_LEN`]).
    fn produce(self) -> Vec<u8> {
        let mut out = vec![0u8; Self::OUTPUT_LEN];
        self.produce_into(&mut out);
        out
    }

    /// One-shot convenience over the trait methods.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::fresh();
        h.absorb(data);
        h.produce()
    }

    /// Finishes an HMAC whose inner hash is `self`: hashes the inner digest
    /// on from `outer` (the midstate after the opad block) and writes the
    /// first `min(out.len(), OUTPUT_LEN)` tag bytes into `out`.
    ///
    /// This default goes through a fresh hasher and the digest's bytes, and
    /// zeroizes the inner digest. [`Sha256`] overrides it to stay on words.
    ///
    /// [`Sha256`]: crate::Sha256
    fn finish_mac(self, outer: &Self::Midstate, out: &mut [u8]) {
        let mut inner_digest = [0u8; MAX_OUTPUT_LEN];
        self.produce_into(&mut inner_digest[..Self::OUTPUT_LEN]);
        let mut h = Self::restore(outer);
        h.absorb(&inner_digest[..Self::OUTPUT_LEN]);
        h.produce_into(out);
        zeroize(&mut inner_digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha256, Sha512};

    #[test]
    fn trait_constants_match_reality() {
        assert_eq!(Sha256::digest(b"x").len(), Sha256::OUTPUT_LEN);
        assert_eq!(Sha512::digest(b"x").len(), Sha512::OUTPUT_LEN);
        assert_eq!(Sha256::BLOCK_LEN, 64);
        assert_eq!(Sha512::BLOCK_LEN, 128);
        const {
            assert!(Sha256::OUTPUT_LEN <= MAX_OUTPUT_LEN);
            assert!(Sha512::OUTPUT_LEN <= MAX_OUTPUT_LEN);
            assert!(Sha256::BLOCK_LEN <= MAX_BLOCK_LEN);
            assert!(Sha512::BLOCK_LEN <= MAX_BLOCK_LEN);
        }
    }

    #[test]
    fn produce_into_truncates_and_extends() {
        // Shorter buffer gets a digest prefix; an oversized buffer gets the
        // digest and nothing past OUTPUT_LEN.
        let full = Sha256::digest(b"abc");
        let mut short = [0u8; 7];
        let mut h = Sha256::fresh();
        h.absorb(b"abc");
        h.produce_into(&mut short);
        assert_eq!(short, full[..7]);

        let mut long = [0xffu8; 40];
        let mut h = Sha256::fresh();
        h.absorb(b"abc");
        h.produce_into(&mut long);
        assert_eq!(long[..32], full[..]);
        assert_eq!(long[32..], [0xffu8; 8]);
    }

    fn save_restore_roundtrip<D: Digest>() {
        let mut prefix = D::fresh();
        let block = vec![0xa7u8; D::BLOCK_LEN];
        prefix.absorb(&block);
        let mid = prefix.save();
        let mut resumed = D::restore(&mid);
        resumed.absorb(b"tail");
        let mut straight = D::fresh();
        straight.absorb(&block);
        straight.absorb(b"tail");
        assert_eq!(resumed.produce(), straight.produce());
    }

    #[test]
    fn save_restore_matches_straight_hash() {
        save_restore_roundtrip::<Sha256>();
        save_restore_roundtrip::<Sha512>();
    }

    #[test]
    fn restore_is_repeatable() {
        // One midstate stamps out many identical hashers (the HMAC pattern).
        let mut prefix = Sha256::fresh();
        prefix.absorb(&[0x5cu8; 64]);
        let mid = prefix.save();
        let a = {
            let mut h = Sha256::restore(&mid);
            h.absorb(b"m1");
            h.produce()
        };
        let b = {
            let mut h = Sha256::restore(&mid);
            h.absorb(b"m1");
            h.produce()
        };
        assert_eq!(a, b);
    }
}

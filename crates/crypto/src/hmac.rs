//! HMAC (RFC 2104), generic over the crate's [`Digest`] implementations,
//! with precomputed-key midstate caching.
//!
//! # Midstate caching
//!
//! RFC 2104 defines `HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m))`.
//! Both pad prefixes are exactly one digest block, so the compression
//! states after absorbing them depend only on the key. [`HmacKey`] runs
//! those two compressions once at construction and saves the compressed
//! midstates; every subsequent MAC is stamped out by *restoring* them —
//! two `memcpy`s of a chaining value — instead of re-hashing the pads.
//! That halves the compression-function count for short messages and is
//! the classic PBKDF2 optimization: the inner loop keys once, not per
//! iteration. Every MAC closes through [`Digest::finish_mac`]; for SHA-256
//! that is one compression on words, with no outer hasher.
//!
//! All key material moves through fixed stack buffers
//! ([`MAX_BLOCK_LEN`](crate::MAX_BLOCK_LEN) /
//! [`MAX_OUTPUT_LEN`](crate::MAX_OUTPUT_LEN)) that are zeroized before
//! return, and the saved midstates wipe themselves on drop.

use crate::digest::{Digest, MAX_BLOCK_LEN, MAX_OUTPUT_LEN};
use crate::sha256::{Sha256, Sha256Midstate};
use crate::stats;
use crate::zeroize::{zeroize, zeroize_u32};
use std::fmt;

/// A precomputed HMAC key: the ipad/opad compression midstates.
///
/// Construct once per key, then stamp out any number of MACs with
/// [`begin`](HmacKey::begin) or [`mac_into`](HmacKey::mac_into) — each MAC
/// restores two saved compression states instead of re-deriving the key,
/// and allocates nothing.
///
/// ```
/// use amnesia_crypto::{HmacKey, Sha256};
///
/// let key = HmacKey::<Sha256>::new(b"key");
/// let mut tag = [0u8; 32];
/// key.mac_into(b"The quick brown fox jumps over the lazy dog", &mut tag);
/// assert_eq!(
///     amnesia_crypto::hex::encode(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
/// );
/// ```
pub struct HmacKey<D: Digest> {
    /// State after absorbing `K' ^ ipad` (one block).
    inner: D::Midstate,
    /// State after absorbing `K' ^ opad` (one block).
    outer: D::Midstate,
}

impl<D: Digest> HmacKey<D> {
    /// Derives the pad midstates from `key`.
    ///
    /// Keys longer than the digest block length are first hashed, per
    /// RFC 2104. The intermediate key block lives in a fixed stack buffer
    /// and is zeroized before this returns.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; MAX_BLOCK_LEN];
        let mut hashed = [0u8; MAX_OUTPUT_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::fresh();
            h.absorb(key);
            h.produce_into(&mut hashed[..D::OUTPUT_LEN]);
            key_block[..D::OUTPUT_LEN].copy_from_slice(&hashed[..D::OUTPUT_LEN]);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        for b in key_block[..D::BLOCK_LEN].iter_mut() {
            *b ^= 0x36;
        }
        let mut h = D::fresh();
        h.absorb(&key_block[..D::BLOCK_LEN]);
        let inner = h.save();

        // 0x36 ^ 0x5c: flip the ipad block into the opad block in place.
        for b in key_block[..D::BLOCK_LEN].iter_mut() {
            *b ^= 0x6a;
        }
        let mut h = D::fresh();
        h.absorb(&key_block[..D::BLOCK_LEN]);
        let outer = h.save();

        zeroize(&mut key_block);
        zeroize(&mut hashed);
        stats::note_hmac_key_created();
        HmacKey { inner, outer }
    }

    /// Starts a streaming MAC from the cached inner midstate.
    pub fn begin(&self) -> HmacMac<'_, D> {
        HmacMac {
            inner: D::restore(&self.inner),
            key: self,
        }
    }

    /// One-shot MAC, writing the first `min(out.len(), OUTPUT_LEN)` tag
    /// bytes into `out` without allocating.
    pub fn mac_into(&self, message: &[u8], out: &mut [u8]) {
        let mut m = self.begin();
        m.update(message);
        m.finalize_into(out);
    }
}

/// HMAC's pad bytes (RFC 2104), four to a word.
const IPAD: u32 = 0x3636_3636;
const OPAD: u32 = 0x5c5c_5c5c;

/// The word path for 32-byte keys and messages (DESIGN.md §9): what the
/// DRBG runs on.
impl HmacKey<Sha256> {
    /// The same key as [`new`](HmacKey::new) on `key`'s 32 bytes, with each
    /// pad block built as words: two compressions.
    pub(crate) fn from_words(key: &[u32; 8]) -> Self {
        let mut pad_block: [u32; 16] =
            std::array::from_fn(|i| key.get(i).map_or(IPAD, |word| word ^ IPAD));
        let inner = Sha256Midstate::from_block(&pad_block);
        for word in pad_block.iter_mut() {
            *word ^= IPAD ^ OPAD;
        }
        let outer = Sha256Midstate::from_block(&pad_block);
        zeroize_u32(&mut pad_block);
        stats::note_hmac_key_created();
        HmacKey { inner, outer }
    }

    /// The tag over the 32 bytes `words` followed by the byte `extra`, if
    /// any: two compressions, on words throughout.
    pub(crate) fn mac_words(&self, words: &[u32; 8], extra: Option<u8>) -> [u32; 8] {
        let mut inner = self.inner.finish(words, extra);
        let tag = self.outer.finish(&inner, None);
        zeroize_u32(&mut inner);
        tag
    }
}

impl<D: Digest> Clone for HmacKey<D> {
    fn clone(&self) -> Self {
        // Manual impl: the derive would demand `D: Clone` *and* fail to see
        // that only `D::Midstate: Clone` is needed.
        HmacKey {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }
}

impl<D: Digest> fmt::Debug for HmacKey<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are key-equivalent; never print them.
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// An in-progress MAC stamped out from an [`HmacKey`]: the streaming
/// path.
///
/// Created by [`HmacKey::begin`]; absorb message bytes with
/// [`update`](HmacMac::update) and close with
/// [`finalize_into`](HmacMac::finalize_into).
pub struct HmacMac<'k, D: Digest> {
    inner: D,
    key: &'k HmacKey<D>,
}

impl<D: Digest> HmacMac<'_, D> {
    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.absorb(data);
    }

    /// Completes the MAC, writing the first `min(out.len(), OUTPUT_LEN)`
    /// tag bytes into `out`, through [`Digest::finish_mac`]. The
    /// intermediate inner digest is zeroized.
    pub fn finalize_into(self, out: &mut [u8]) {
        self.inner.finish_mac(&self.key.outer, out);
    }
}

/// One-shot HMAC-SHA-256, returning a fixed-size tag. Allocation-free.
///
/// ```
/// let tag = amnesia_crypto::hmac_sha256(b"key", b"msg");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut tag = [0u8; 32];
    HmacKey::<Sha256>::new(key).mac_into(message, &mut tag);
    tag
}

/// One-shot HMAC-SHA-512, returning a fixed-size tag. Allocation-free.
///
/// ```
/// let tag = amnesia_crypto::hmac_sha512(b"key", b"msg");
/// assert_eq!(tag.len(), 64);
/// ```
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> [u8; 64] {
    let mut tag = [0u8; 64];
    HmacKey::<crate::Sha512>::new(key).mac_into(message, &mut tag);
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::{Sha256, Sha512};

    // RFC 4231 test vectors.

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex::encode(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex::encode(&hmac_sha512(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_case2_jefe() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex::encode(&hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_fill_bytes() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex::encode(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        // Key longer than the block size must be hashed first.
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex::encode(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        assert_eq!(
            hex::encode(&hmac_sha512(&key, data)),
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352\
6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let key = b"some-key";
        let msg = b"split across several updates";
        let hmac_key = HmacKey::<Sha256>::new(key);
        let mut m = hmac_key.begin();
        for chunk in msg.chunks(5) {
            m.update(chunk);
        }
        let mut streamed = [0u8; 32];
        m.finalize_into(&mut streamed);
        assert_eq!(streamed, hmac_sha256(key, msg));

        let hmac_key = HmacKey::<Sha256>::new(b"key");
        let mut m = hmac_key.begin();
        m.update(b"The quick brown fox ");
        m.update(b"jumps over the lazy dog");
        m.finalize_into(&mut streamed);
        assert_eq!(
            hex::encode(&streamed),
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
        );
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha512(b"k1", b"m"), hmac_sha512(b"k2", b"m"));
    }

    #[test]
    fn block_length_key_edge_cases() {
        // Keys at exactly BLOCK_LEN-1, BLOCK_LEN and BLOCK_LEN+1 bytes.
        for len in [
            Sha256::BLOCK_LEN - 1,
            Sha256::BLOCK_LEN,
            Sha256::BLOCK_LEN + 1,
        ] {
            let key = vec![0x42u8; len];
            // Should not panic, and should be deterministic.
            assert_eq!(hmac_sha256(&key, b"m"), hmac_sha256(&key, b"m"));
        }
        for len in [
            Sha512::BLOCK_LEN - 1,
            Sha512::BLOCK_LEN,
            Sha512::BLOCK_LEN + 1,
        ] {
            let key = vec![0x42u8; len];
            assert_eq!(hmac_sha512(&key, b"m"), hmac_sha512(&key, b"m"));
        }
    }

    #[test]
    fn key_reuse_matches_fresh_keying() {
        // Many MACs from one HmacKey must equal independently keyed MACs.
        let key = HmacKey::<Sha256>::new(b"reused-key");
        for msg in [&b"a"[..], b"", b"longer message spanning a block or two"] {
            let mut reused = [0u8; 32];
            key.mac_into(msg, &mut reused);
            assert_eq!(reused, hmac_sha256(b"reused-key", msg));
        }
    }

    #[test]
    fn hmac_key_streaming_equals_oneshot() {
        let key = HmacKey::<Sha512>::new(b"k");
        let msg = b"chunked message for the streaming path";
        let mut m = key.begin();
        for chunk in msg.chunks(7) {
            m.update(chunk);
        }
        let mut streamed = [0u8; 64];
        m.finalize_into(&mut streamed);
        assert_eq!(streamed, hmac_sha512(b"k", msg));
    }

    #[test]
    fn truncated_tag_is_a_prefix() {
        let key = HmacKey::<Sha256>::new(b"k");
        let mut short = [0u8; 16];
        key.mac_into(b"m", &mut short);
        assert_eq!(short, hmac_sha256(b"k", b"m")[..16]);
    }

    #[test]
    fn cloned_key_produces_identical_tags() {
        let key = HmacKey::<Sha256>::new(b"clone-me");
        let copy = key.clone();
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        key.mac_into(b"msg", &mut a);
        copy.mac_into(b"msg", &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_output_is_redacted() {
        let key = HmacKey::<Sha256>::new(b"secret");
        let s = format!("{key:?}");
        assert!(s.contains("HmacKey"));
        assert!(!s.contains("secret"));
        // No state words leak either: the struct body is elided.
        assert!(s.contains(".."));
    }

    use crate::digest::Digest;
}

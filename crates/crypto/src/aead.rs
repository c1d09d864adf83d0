//! Authenticated encryption for stored blobs (encrypt-then-MAC).
//!
//! Used by the server-side *vault* extension (paper §VIII: "users ... are
//! unable to store specific chosen passwords. We plan to address these two
//! issues in the future by including a vault ..."). A vault entry is sealed
//! under a key derived bilaterally — `k = SHA-512(T ‖ Oid ‖ σ)` — so the
//! ciphertext at rest is useless without a token from the phone.
//!
//! Construction (same building blocks as the channel cipher in
//! `amnesia-net`, but nonce-explicit and suited to data at rest):
//!
//! * keys: `k_enc = HMAC-SHA-256(key, "blob-enc")`,
//!   `k_mac = HMAC-SHA-256(key, "blob-mac")`;
//! * confidentiality: SHA-256 counter mode ([`keystream_xor`], which the
//!   channel uses too) keyed by `k_enc` and a random 16-byte nonce;
//! * integrity: `HMAC-SHA-256(k_mac, nonce ‖ aad-length ‖ aad ‖ ciphertext)`;
//! * output layout: `nonce(16) ‖ ciphertext ‖ tag(32)`.

use crate::ct::ct_eq;
use crate::hmac::hmac_sha256;
use crate::rng::SecretRng;
use crate::sha256::{digest_words, Sha256};
use crate::zeroize::zeroize_u32;
use std::error::Error;
use std::fmt;

const NONCE_LEN: usize = 16;
const TAG_LEN: usize = 32;

/// Errors from [`open`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AeadError {
    /// Input shorter than nonce + tag.
    Truncated {
        /// Observed length.
        len: usize,
    },
    /// Authentication failed (wrong key, wrong AAD, or tampering).
    BadTag,
}

impl fmt::Display for AeadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeadError::Truncated { len } => write!(f, "sealed blob too short ({len} bytes)"),
            AeadError::BadTag => write!(f, "blob authentication failed"),
        }
    }
}

impl Error for AeadError {}

fn subkeys(key: &[u8]) -> ([u8; 32], [u8; 32]) {
    (hmac_sha256(key, b"blob-enc"), hmac_sha256(key, b"blob-mac"))
}

/// XORs `data` with the SHA-256 counter-mode keystream of `key` and
/// `nonce`: the `i`-th 32 bytes with `SHA-256(key ‖ nonce ‖ i)`, where `i`
/// is a 64-bit little-endian block counter.
///
/// The vault seals with 16-byte nonces and `amnesia-net`'s secure channel
/// with 8-byte ones. Each block's message is built as words and hashed on
/// the word path: 48 bytes and one compression for an 8-byte nonce, 56
/// bytes and two for a 16-byte one. The nonce must be whole words, at most
/// four of them; anything else fails to compile.
///
/// ```
/// use amnesia_crypto::aead::keystream_xor;
/// let mut data = *b"counter mode";
/// keystream_xor(&[7; 32], &[1; 8], &mut data);
/// assert_ne!(&data, b"counter mode");
/// keystream_xor(&[7; 32], &[1; 8], &mut data);
/// assert_eq!(&data, b"counter mode");
/// ```
pub fn keystream_xor<const N: usize>(key: &[u8; 32], nonce: &[u8; N], data: &mut [u8]) {
    const {
        assert!(
            N.is_multiple_of(4) && N <= 16,
            "the nonce must be 0, 4, 8, 12 or 16 bytes"
        )
    };
    let counter_at = 8 + N / 4;
    let mut message = [0u32; 14];
    let prefix = key
        .as_chunks::<4>()
        .0
        .iter()
        .chain(nonce.as_chunks::<4>().0);
    for (word, bytes) in message.iter_mut().zip(prefix) {
        *word = u32::from_be_bytes(*bytes);
    }
    for (i, chunk) in data.chunks_mut(32).enumerate() {
        let counter = (i as u64).to_le_bytes();
        for (word, bytes) in message
            .iter_mut()
            .skip(counter_at)
            .zip(counter.as_chunks::<4>().0)
        {
            *word = u32::from_be_bytes(*bytes);
        }
        let mut block = digest_words(&message[..counter_at + 2]);
        let (whole, rest) = chunk.as_chunks_mut::<4>();
        for (bytes, word) in whole.iter_mut().zip(block) {
            *bytes = (u32::from_be_bytes(*bytes) ^ word).to_be_bytes();
        }
        if let Some(word) = block.get(whole.len()) {
            for (b, k) in rest.iter_mut().zip(word.to_be_bytes()) {
                *b ^= k;
            }
        }
        zeroize_u32(&mut block);
    }
    zeroize_u32(&mut message);
}

fn mac(mac_key: &[u8; 32], nonce: &[u8], aad: &[u8], ciphertext: &[u8]) -> [u8; 32] {
    let key = crate::hmac::HmacKey::<Sha256>::new(mac_key);
    let mut h = key.begin();
    h.update(nonce);
    h.update(&(aad.len() as u64).to_le_bytes());
    h.update(aad);
    h.update(ciphertext);
    let mut tag = [0u8; 32];
    h.finalize_into(&mut tag);
    tag
}

/// Seals `plaintext` under `key` with a random nonce, binding `aad`
/// (associated data that must match at open time, e.g. the account
/// identity).
///
/// ```
/// use amnesia_crypto::{aead, SecretRng};
/// let mut rng = SecretRng::seeded(1);
/// let sealed = aead::seal(b"key material", b"chosen password", b"alice@site", &mut rng);
/// let opened = aead::open(b"key material", &sealed, b"alice@site").unwrap();
/// assert_eq!(opened, b"chosen password");
/// ```
pub fn seal(key: &[u8], plaintext: &[u8], aad: &[u8], rng: &mut SecretRng) -> Vec<u8> {
    let (enc_key, mac_key) = subkeys(key);
    let nonce = rng.bytes::<NONCE_LEN>();
    let mut ciphertext = plaintext.to_vec();
    keystream_xor(&enc_key, &nonce, &mut ciphertext);
    let tag = mac(&mac_key, &nonce, aad, &ciphertext);

    let mut out = Vec::with_capacity(NONCE_LEN + ciphertext.len() + TAG_LEN);
    out.extend_from_slice(&nonce);
    out.extend_from_slice(&ciphertext);
    out.extend_from_slice(&tag);
    out
}

/// Opens a blob produced by [`seal`] with the same key and AAD.
///
/// # Errors
///
/// Returns [`AeadError::Truncated`] for undersized input and
/// [`AeadError::BadTag`] when the key, AAD or blob do not match.
pub fn open(key: &[u8], sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, AeadError> {
    if sealed.len() < NONCE_LEN + TAG_LEN {
        return Err(AeadError::Truncated { len: sealed.len() });
    }
    let (enc_key, mac_key) = subkeys(key);
    let (nonce, rest) = sealed.split_at(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
    let expected = mac(&mac_key, nonce, aad, ciphertext);
    if !ct_eq(&expected, tag) {
        return Err(AeadError::BadTag);
    }
    let mut plaintext = ciphertext.to_vec();
    // `split_at(NONCE_LEN)` guarantees the width; surface a typed error
    // anyway instead of a panic path in the decryption hot path.
    let nonce_arr: [u8; NONCE_LEN] = nonce
        .try_into()
        .map_err(|_| AeadError::Truncated { len: sealed.len() })?;
    keystream_xor(&enc_key, &nonce_arr, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        let mut rng = SecretRng::seeded(1);
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let pt = vec![0x5au8; len];
            let sealed = seal(b"k", &pt, b"aad", &mut rng);
            assert_eq!(open(b"k", &sealed, b"aad").unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = SecretRng::seeded(2);
        let sealed = seal(b"k1", b"secret", b"", &mut rng);
        assert_eq!(open(b"k2", &sealed, b""), Err(AeadError::BadTag));
    }

    #[test]
    fn wrong_aad_fails() {
        let mut rng = SecretRng::seeded(3);
        let sealed = seal(b"k", b"secret", b"alice@a.com", &mut rng);
        assert_eq!(open(b"k", &sealed, b"alice@b.com"), Err(AeadError::BadTag));
    }

    #[test]
    fn every_bitflip_fails() {
        let mut rng = SecretRng::seeded(4);
        let sealed = seal(b"k", b"integrity", b"aad", &mut rng);
        for i in 0..sealed.len() {
            let mut forged = sealed.clone();
            forged[i] ^= 1;
            assert_eq!(
                open(b"k", &forged, b"aad"),
                Err(AeadError::BadTag),
                "byte {i}"
            );
        }
    }

    #[test]
    fn truncated_fails() {
        assert_eq!(
            open(b"k", &[0u8; 10], b""),
            Err(AeadError::Truncated { len: 10 })
        );
    }

    #[test]
    fn nonce_randomizes_ciphertext() {
        let mut rng = SecretRng::seeded(5);
        let a = seal(b"k", b"same", b"", &mut rng);
        let b = seal(b"k", b"same", b"", &mut rng);
        assert_ne!(a, b);
    }

    /// Known answer for the sealed bytes: the SHA-256 over the outputs of
    /// eight successive seals (fixed key and AAD, seeded nonces). A round
    /// trip cannot see a keystream change that `seal` and `open` share; this
    /// can. Computed once from this implementation and frozen.
    #[test]
    fn sealed_bytes_are_pinned() {
        let mut rng = SecretRng::seeded(0xae4d);
        let mut sealed = Sha256::new();
        for len in [0usize, 1, 31, 32, 33, 64, 100, 300] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            sealed.update(&seal(
                b"pinned vault key",
                &plaintext,
                b"alice@example.org",
                &mut rng,
            ));
        }
        assert_eq!(crate::hex::encode(&sealed.finalize()), SEALED_KAT);
    }

    const SEALED_KAT: &str = "3f00bf90bbe9b143232bd340c8ca772df8456443886a358bd8598f57b8d6829e";

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut rng = SecretRng::seeded(6);
        let pt = b"a very recognizable chosen password";
        let sealed = seal(b"k", pt, b"", &mut rng);
        assert!(!sealed.windows(pt.len()).any(|w| w == pt.as_slice()));
    }
}

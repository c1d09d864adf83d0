//! From-scratch cryptographic primitives for the Amnesia password manager.
//!
//! The Amnesia paper's prototype used PyCrypto on the server and
//! `java.security` on the phone. This crate rebuilds the primitives those
//! toolkits supplied, implemented directly from the public specifications:
//!
//! * [`Sha256`] and [`Sha512`] — FIPS 180-4 secure hash algorithms. These are
//!   the only hash functions the Amnesia scheme needs: `R` and `T` are
//!   SHA-256 digests, the intermediate password value `p` is a SHA-512
//!   digest, and stored verifiers use salted hashes. SHA-256 compresses on
//!   the x86 SHA extensions when the CPU has them and on a portable kernel
//!   otherwise, with identical output. One-block hashes whose last block is
//!   known in advance (the DRBG, every HMAC's outer hash, the counter-mode
//!   keystream) are built and compressed as words, with no hasher.
//! * [`HmacKey`] — RFC 2104 keyed-hash message authentication code,
//!   generic over any [`Digest`] implementation. It caches the ipad/opad
//!   compression midstates so repeated MACs under one key (the secure
//!   channel in `amnesia-net`, the PBKDF2 inner loop, the DRBG ratchet)
//!   cost two state restores instead of two extra compressions. MACs
//!   stream through [`HmacKey::begin`] or are one-shot through
//!   [`HmacKey::mac_into`], [`hmac_sha256`] and [`hmac_sha512`].
//! * [`pbkdf2_hmac_sha256`] — RFC 8018 password-based key derivation, used to
//!   harden the stored master-password verifier beyond the single salted hash
//!   the paper describes (configurable; a single-iteration mode reproduces
//!   the paper exactly). Multi-block derivations fan output blocks across
//!   scoped threads; results are bit-identical at every width.
//! * [`scrypt`](fn@scrypt) — RFC 7914 memory-hard key derivation (Salsa20/8 core,
//!   BlockMix, ROMix, PBKDF2 envelope), built on the same HMAC midstate
//!   machinery. Forces each password guess through a large RAM working set
//!   so specialized attacker silicon pays area × time, not just compute.
//!   ROMix runs on an AVX-512VL vector kernel when the CPU has it and on a
//!   portable kernel otherwise, with identical output.
//! * [`kdf`] — the [`KdfPolicy`] hardness ladder (`Cpu` / `MemoryHard`,
//!   with named rungs `INTERACTIVE`/`BALANCED`/`PARANOID`) and the single
//!   [`kdf::derive`] dispatch point every derivation site goes through.
//! * [`hex`] — lowercase hex encoding/decoding. Amnesia's token and template
//!   algorithms are specified over *hex digit strings*, so hex is part of the
//!   algorithm, not just presentation.
//! * [`ct_eq`] — constant-time equality for secret comparison.
//! * [`SecretRng`] — a seedable CSPRNG-style byte source for generating
//!   `Oid`, `Pid`, seeds `σ` and entry tables.
//! * [`zeroize`] — best-effort wiping of secret buffers on drop.
//!
//! # Example
//!
//! ```
//! use amnesia_crypto::{sha256, sha512, hex};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! assert_eq!(sha512(b"abc").len(), 64);
//! ```

// Two fns may use `unsafe`, each a kernel dispatch whose call is sound
// right after its CPU feature check (DESIGN.md §9): the SHA-NI one in
// `sha256.rs` and the AVX-512VL ROMix one in `scrypt.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
mod ct;
mod digest;
mod error;
pub mod hex;
mod hmac;
pub mod kdf;
mod pbkdf2;
mod rng;
pub mod scrypt;
mod sha256;
mod sha512;
pub mod stats;
mod zeroize;

pub use ct::ct_eq;
pub use digest::{Digest, MAX_BLOCK_LEN, MAX_OUTPUT_LEN};
pub use error::CryptoError;
pub use hmac::{hmac_sha256, hmac_sha512, HmacKey, HmacMac};
pub use kdf::{KdfClass, KdfPolicy};
pub use pbkdf2::{
    pbkdf2_hmac_sha256, pbkdf2_hmac_sha256_with_fanout, pbkdf2_hmac_sha512, PARALLEL_MIN_ITERATIONS,
};
pub use rng::SecretRng;
pub use scrypt::{scrypt, scrypt_with_fanout};
pub use sha256::{sha256, Sha256, Sha256Midstate};
pub use sha512::{sha512, Sha512, Sha512Midstate};
pub use zeroize::{zeroize, zeroize_u32, zeroize_u64};

/// Convenience: SHA-256 over the concatenation of several byte slices.
///
/// The Amnesia algorithms are all defined over concatenations
/// (`R = H(u‖d‖σ)`, `T = H(e0‖…‖e15)`), so this helper avoids intermediate
/// allocations at every call site.
///
/// ```
/// use amnesia_crypto::{sha256, sha256_concat};
/// assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
/// ```
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Convenience: SHA-512 over the concatenation of several byte slices.
///
/// ```
/// use amnesia_crypto::{sha512, sha512_concat};
/// assert_eq!(sha512_concat(&[b"ab", b"c"]), sha512(b"abc"));
/// ```
pub fn sha512_concat(parts: &[&[u8]]) -> [u8; 64] {
    let mut h = Sha512::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_helpers_match_oneshot() {
        assert_eq!(sha256_concat(&[]), sha256(b""));
        assert_eq!(sha512_concat(&[b"", b"x", b""]), sha512(b"x"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sha256>();
        assert_send_sync::<Sha512>();
        assert_send_sync::<SecretRng>();
    }
}

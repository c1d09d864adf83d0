//! Best-effort zeroization of secret buffers, without `unsafe`.
//!
//! The crate denies `unsafe` everywhere but the SHA-NI dispatch call in
//! `sha256.rs`, so this does not use `ptr::write_volatile`. Instead it
//! writes zeros through ordinary stores and then pins the buffer
//! with [`std::hint::black_box`] behind a [`compiler_fence`]: the fence
//! orders the stores, and `black_box` makes the zeroed bytes observable so
//! the optimizer cannot prove the writes dead and elide them. That is the
//! same contract the popular `zeroize` crate documents — a best-effort
//! barrier against dead-store elimination, not a defense against swap,
//! registers, or hibernation images.
//!
//! Used on drop for every long-lived half-secret: the DRBG state (`V`
//! directly, `K` through the midstates of its cached `HmacKey`), the
//! fixed-byte newtypes (`Seed`, `EntryValue`, `OnlineId`, `PhoneId`,
//! `Salt`) and the token `T`. Integration tests in `tests/zeroize_drop.rs`
//! read the freed bytes back through a raw pointer to check the wipe
//! actually happened.

use std::sync::atomic::{compiler_fence, Ordering};

/// Overwrites `buf` with zeros and forces the writes to stick.
pub fn zeroize(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = 0;
    }
    compiler_fence(Ordering::SeqCst);
    // An opaque observation of the zeroed bytes: the compiler must assume
    // they are read, so the stores above cannot be optimized away.
    std::hint::black_box(&mut *buf);
}

/// [`zeroize`] for `u32` words — the SHA-256 chaining value held by
/// digest midstates.
pub fn zeroize_u32(words: &mut [u32]) {
    for w in words.iter_mut() {
        *w = 0;
    }
    compiler_fence(Ordering::SeqCst);
    std::hint::black_box(&mut *words);
}

/// [`zeroize`] for `u64` words — the SHA-512 chaining value held by
/// digest midstates.
pub fn zeroize_u64(words: &mut [u64]) {
    for w in words.iter_mut() {
        *w = 0;
    }
    compiler_fence(Ordering::SeqCst);
    std::hint::black_box(&mut *words);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroes_every_byte() {
        let mut buf = [0xAAu8; 97];
        zeroize(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut buf: [u8; 0] = [];
        zeroize(&mut buf);
    }

    #[test]
    fn word_variants_zero_every_word() {
        let mut w32 = [0xdead_beefu32; 8];
        zeroize_u32(&mut w32);
        assert!(w32.iter().all(|&w| w == 0));
        let mut w64 = [0xdead_beef_cafe_f00du64; 8];
        zeroize_u64(&mut w64);
        assert!(w64.iter().all(|&w| w == 0));
    }
}

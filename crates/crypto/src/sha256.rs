//! SHA-256 implemented from FIPS 180-4.

use crate::digest::Digest;
use crate::zeroize::zeroize_u32;
use std::fmt;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use amnesia_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, amnesia_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes so far.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            Self::compress(&mut self.state, block);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash and returns the 32-byte digest, consuming the hasher.
    pub fn finalize(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.finalize_into(&mut out);
        out
    }

    /// Completes the hash, writing the first `min(out.len(), 32)` digest
    /// bytes into `out` without allocating.
    pub fn finalize_into(self, out: &mut [u8]) {
        store_words(&self.finish_words(), out);
    }

    /// Completes the hash and returns the digest as its eight big-endian
    /// words: the final chaining value, not yet turned into bytes.
    fn finish_words(mut self) -> [u32; 8] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // written straight into the block buffer. `update` never leaves a
        // full block buffered, so the 0x80 byte always fits.
        if let Some((marker, zeros)) = self.buf[self.buf_len..].split_first_mut() {
            *marker = 0x80;
            zeros.fill(0);
        }
        if self.buf_len >= 56 {
            // No room left for the length: it gets a block of its own.
            Self::compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);
        self.state
    }

    /// Exports the compressed midstate (chaining value + length). Only
    /// lossless at a block boundary; see [`Digest::save`].
    pub fn save(&self) -> Sha256Midstate {
        debug_assert!(self.buf_len == 0, "midstate save at a non-block boundary");
        Sha256Midstate {
            state: self.state,
            len: self.len,
        }
    }

    /// Resumes hashing from a saved midstate.
    pub fn restore(midstate: &Sha256Midstate) -> Self {
        Sha256 {
            state: midstate.state,
            len: midstate.len,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Compresses one block of bytes into `state`: the bytes become words
    /// once, here, and [`compress_words`](Self::compress_words) takes it
    /// from there.
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut words = block_words(block);
        Self::compress_words(state, &words);
        zeroize_u32(&mut words);
    }

    /// Compresses one block of sixteen big-endian words into `state`: on the
    /// SHA-NI kernel when this CPU has the SHA extensions, on the portable
    /// kernel otherwise. Both compute the same function;
    /// `dispatched_compression_matches_portable_kernel` checks it.
    #[allow(unsafe_code)]
    fn compress_words(state: &mut [u32; 8], block: &[u32; 16]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `compress_sha_ni` is a safe fn whose one requirement is
            // the target features it enables. The check above just found every
            // one of them on this CPU; SSE2 is part of the x86-64 baseline.
            unsafe { compress_sha_ni(state, block) };
            return;
        }
        Self::portable_kernel(state, block);
    }

    /// [`portable_kernel`](Self::portable_kernel) on a block of bytes: the
    /// reference `dispatched_compression_matches_portable_kernel` holds the
    /// dispatch to.
    #[cfg(test)]
    fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
        Self::portable_kernel(state, &block_words(block));
    }

    /// The FIPS 180-4 compression function in portable scalar code: the only
    /// kernel on CPUs without the SHA extensions, and the reference the
    /// SHA-NI kernel is tested against.
    fn portable_kernel(state: &mut [u32; 8], block: &[u32; 16]) {
        let mut w = [0u32; 64];
        for (slot, word) in w.iter_mut().zip(block) {
            *slot = *word;
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (slot, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *slot = slot.wrapping_add(add);
        }
        zeroize_u32(&mut w);
    }
}

/// A block's 64 bytes as sixteen big-endian words.
fn block_words(block: &[u8; 64]) -> [u32; 16] {
    let mut words = [0u32; 16];
    for (word, bytes) in words.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    words
}

/// Writes the first `min(out.len(), 4 * words.len())` bytes of `words`,
/// big-endian, into `out`.
#[inline]
pub(crate) fn store_words(words: &[u32], out: &mut [u8]) {
    let (whole, rest) = out.as_chunks_mut::<4>();
    for (bytes, word) in whole.iter_mut().zip(words) {
        *bytes = word.to_be_bytes();
    }
    if let Some(word) = words.get(whole.len()) {
        rest.copy_from_slice(&word.to_be_bytes()[..rest.len()]);
    }
}

/// The compression function on the x86 SHA extensions, four rounds per
/// step. The round instruction holds the working variables as two vectors,
/// `ABEF` and `CDGH`, with `A` and `C` in the high lanes. Vectors are built
/// with `_mm_set_epi32` (high lane first) and read back lane by lane, so
/// the kernel needs no pointer loads or stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], m: &[u32; 16]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };
    use std::sync::atomic::{compiler_fence, Ordering};

    let lanes = |hi: u32, x2: u32, x1: u32, lo: u32| -> __m128i {
        _mm_set_epi32(
            hi.cast_signed(),
            x2.cast_signed(),
            x1.cast_signed(),
            lo.cast_signed(),
        )
    };
    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes(a, b, e, f);
    let mut cdgh = lanes(c, d, g, h);

    // The rounds are one dependency chain, so they should start as soon as
    // the state is in. Without this fence the compiler loads the message
    // first, expands a whole schedule ahead of the first round and spills
    // it, which made chained one-block hashes (the DRBG, HMAC) about a
    // quarter slower (EXPERIMENTS.md). The fence emits no instruction; it
    // only keeps the state loads ahead of the message loads.
    compiler_fence(Ordering::SeqCst);

    // The message as four vectors of its words, `W[t]` in lane `t % 4`.
    let [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15] = *m;
    let (mut w0, mut w1, mut w2, mut w3) = (
        lanes(m3, m2, m1, m0),
        lanes(m7, m6, m5, m4),
        lanes(m11, m10, m9, m8),
        lanes(m15, m14, m13, m12),
    );

    let (round_keys, _) = K.as_chunks::<4>();
    for &[k0, k1, k2, k3] in round_keys {
        let wk = _mm_add_epi32(w0, lanes(k3, k2, k1, k0));
        // Two rounds per instruction. Afterwards the old `ABEF` is the new
        // `CDGH`, so the two vectors swap roles between the calls.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        // W[t + 16 .. t + 20] from W[t .. t + 16].
        let next = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
            w3,
        );
        (w0, w1, w2, w3) = (w1, w2, w3, next);
    }

    let words = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ];
    for (slot, add) in state.iter_mut().zip(words) {
        *slot = slot.wrapping_add(add.cast_unsigned());
    }
}

/// Compressed SHA-256 midstate: chaining value + absorbed length.
///
/// Produced by [`Sha256::save`] at block boundaries; [`HmacKey`] holds two
/// of these per key. The state is key-derived in that use, so it is wiped
/// on drop.
///
/// [`HmacKey`]: crate::HmacKey
#[derive(Clone)]
pub struct Sha256Midstate {
    state: [u32; 8],
    len: u64,
}

impl Drop for Sha256Midstate {
    fn drop(&mut self) {
        zeroize_u32(&mut self.state);
        self.len = 0;
    }
}

impl fmt::Debug for Sha256Midstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the chaining value; it may be key-derived.
        f.debug_struct("Sha256Midstate").finish_non_exhaustive()
    }
}

// The word path: a hash whose last block is known in advance is built as
// sixteen big-endian words and compressed straight from a chaining value,
// with no hasher and no byte buffer (DESIGN.md §9).

/// The `0x80` byte that opens the padding, leading a word.
const MARKER: u32 = 0x8000_0000;

impl Sha256Midstate {
    /// The midstate after one block from the initial hash value: what
    /// keying HMAC keeps for each pad block.
    pub(crate) fn from_block(block: &[u32; 16]) -> Self {
        let mut state = H0;
        Sha256::compress_words(&mut state, block);
        Sha256Midstate { state, len: 64 }
    }

    /// The digest of this midstate's message followed by the 32 bytes
    /// `words` and the byte `extra`, if any. That tail and its padding fill
    /// one block, so this is one compression.
    pub(crate) fn finish(&self, words: &[u32; 8], extra: Option<u8>) -> [u32; 8] {
        let (tail, tail_bytes) = match extra {
            None => (MARKER, 0),
            Some(byte) => ((u32::from(byte) << 24) | (MARKER >> 8), 1),
        };
        let bits = self.len.wrapping_add(32 + tail_bytes).wrapping_mul(8);
        let [a, b, c, d, e, f, g, h] = *words;
        let mut block = [
            a,
            b,
            c,
            d,
            e,
            f,
            g,
            h,
            tail,
            0,
            0,
            0,
            0,
            0,
            (bits >> 32) as u32,
            bits as u32,
        ];
        let mut state = self.state;
        Sha256::compress_words(&mut state, &block);
        zeroize_u32(&mut block);
        state
    }
}

/// SHA-256 of a message of whole big-endian words, compressed from the
/// initial hash value with the padding built as words too.
pub(crate) fn digest_words(message: &[u32]) -> [u32; 8] {
    let bits = 32 * message.len() as u64;
    let mut state = H0;
    let (blocks, rest) = message.as_chunks::<16>();
    for block in blocks {
        Sha256::compress_words(&mut state, block);
    }
    // The rest of the message, the marker word and the 64-bit length: one
    // more block, or two when the length no longer fits behind the marker.
    let mut last = [0u32; 32];
    last[..rest.len()].copy_from_slice(rest);
    last[rest.len()] = MARKER;
    let last_blocks = if rest.len() + 3 <= 16 { 1 } else { 2 };
    last[16 * last_blocks - 2] = (bits >> 32) as u32;
    last[16 * last_blocks - 1] = bits as u32;
    for block in last.as_chunks::<16>().0.iter().take(last_blocks) {
        Sha256::compress_words(&mut state, block);
    }
    zeroize_u32(&mut last);
    state
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    type Midstate = Sha256Midstate;

    fn fresh() -> Self {
        Sha256::new()
    }

    fn absorb(&mut self, data: &[u8]) {
        self.update(data);
    }

    fn produce_into(self, out: &mut [u8]) {
        self.finalize_into(out);
    }

    fn save(&self) -> Sha256Midstate {
        Sha256::save(self)
    }

    fn restore(midstate: &Sha256Midstate) -> Self {
        Sha256::restore(midstate)
    }

    /// The inner digest stays as words and becomes the outer hash's last
    /// block directly: one compression past `outer`, no byte round trip.
    fn finish_mac(self, outer: &Sha256Midstate, out: &mut [u8]) {
        let mut inner = self.finish_words();
        let mut tag = outer.finish(&inner, None);
        store_words(&tag, out);
        zeroize_u32(&mut inner);
        zeroize_u32(&mut tag);
    }
}

/// One-shot SHA-256.
///
/// ```
/// let d = amnesia_crypto::sha256(b"");
/// assert_eq!(
///     amnesia_crypto::hex::encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hexdigest(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hexdigest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hexdigest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hexdigest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hexdigest(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hexdigest(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // Lengths around the 64-byte block and 56-byte padding boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129] {
            let msg = vec![0xa5u8; len];
            let mut streaming = Sha256::new();
            for b in &msg {
                streaming.update(std::slice::from_ref(b));
            }
            assert_eq!(streaming.finalize(), sha256(&msg), "len={len}");
        }
    }

    /// FIPS 180-4 §5.1.1 padding fed through `update` one byte at a time:
    /// the reference for the padding `finalize_into` writes in place.
    fn digest_with_bytewise_padding(msg: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(msg);
        let bit_len = h.len * 8;
        h.update(&[0x80]);
        while h.buf_len != 56 {
            h.update(&[0x00]);
        }
        h.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_mut(4).zip(h.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn in_place_padding_matches_bytewise_padding() {
        for len in 0..=300usize {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            assert_eq!(
                sha256(&msg),
                digest_with_bytewise_padding(&msg),
                "len={len}"
            );
        }
    }

    /// The dispatched kernel (SHA-NI where this CPU has it) against the
    /// portable one on random chaining values and blocks.
    #[test]
    fn dispatched_compression_matches_portable_kernel() {
        let mut g = amnesia_testkit::Gen::new(0x5a25_6c0e);
        for case in 0..100_000 {
            let state: [u32; 8] = std::array::from_fn(|_| g.next_u64() as u32);
            let mut block = [0u8; 64];
            block.fill_with(|| g.next_u8());
            let mut dispatched = state;
            Sha256::compress(&mut dispatched, &block);
            let mut portable = state;
            Sha256::compress_portable(&mut portable, &block);
            assert_eq!(dispatched, portable, "case {case}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_on_random_splits() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), sha256(&msg));
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"prefix-");
        let mut h2 = h.clone();
        h.update(b"a");
        h2.update(b"a");
        assert_eq!(h.finalize(), h2.finalize());
    }
}

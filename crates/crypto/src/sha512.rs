//! SHA-512 implemented from FIPS 180-4.

use crate::digest::Digest;
use crate::zeroize::zeroize_u64;
use std::fmt;

/// Round constants: first 64 bits of the fractional parts of the cube roots
/// of the first 80 primes (FIPS 180-4 §4.2.3).
const K: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Initial hash value (FIPS 180-4 §5.3.5).
const H0: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Streaming SHA-512 hasher.
///
/// ```
/// use amnesia_crypto::Sha512;
///
/// let mut h = Sha512::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize(), amnesia_crypto::sha512(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha512 {
    state: [u64; 8],
    /// Total message length in bytes so far (128-bit length field; the low
    /// 64 bits are enough for any realistic message in this system).
    len: u128,
    buf: [u8; 128],
    buf_len: usize,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha512 {
            state: H0,
            len: 0,
            buf: [0; 128],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 128 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<128>();
        for block in blocks {
            Self::compress(&mut self.state, block);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash and returns the 64-byte digest, consuming the hasher.
    pub fn finalize(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        self.finalize_into(&mut out);
        out
    }

    /// Completes the hash, writing the first `min(out.len(), 64)` digest
    /// bytes into `out` without allocating.
    pub fn finalize_into(mut self, out: &mut [u8]) {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 128-bit big-endian bit length,
        // written straight into the block buffer as in `Sha256`.
        if let Some((marker, zeros)) = self.buf[self.buf_len..].split_first_mut() {
            *marker = 0x80;
            zeros.fill(0);
        }
        if self.buf_len >= 112 {
            Self::compress(&mut self.state, &self.buf);
            self.buf = [0; 128];
        }
        self.buf[112..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);

        for (chunk, word) in out.chunks_mut(8).zip(self.state.iter()) {
            let be = word.to_be_bytes();
            chunk.copy_from_slice(&be[..chunk.len()]);
        }
    }

    /// Exports the compressed midstate (chaining value + length). Only
    /// lossless at a block boundary; see [`Digest::save`].
    pub fn save(&self) -> Sha512Midstate {
        debug_assert!(self.buf_len == 0, "midstate save at a non-block boundary");
        Sha512Midstate {
            state: self.state,
            len: self.len,
        }
    }

    /// Resumes hashing from a saved midstate.
    pub fn restore(midstate: &Sha512Midstate) -> Self {
        Sha512 {
            state: midstate.state,
            len: midstate.len,
            buf: [0; 128],
            buf_len: 0,
        }
    }

    fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (slot, chunk) in w.iter_mut().zip(block.chunks_exact(8)) {
            let mut be = [0u8; 8];
            be.copy_from_slice(chunk);
            *slot = u64::from_be_bytes(be);
        }
        for t in 16..80 {
            let s0 = w[t - 15].rotate_right(1) ^ w[t - 15].rotate_right(8) ^ (w[t - 15] >> 7);
            let s1 = w[t - 2].rotate_right(19) ^ w[t - 2].rotate_right(61) ^ (w[t - 2] >> 6);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..80 {
            let big_s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
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
    }
}

/// Compressed SHA-512 midstate: chaining value + absorbed length.
///
/// Produced by [`Sha512::save`] at block boundaries; [`HmacKey`] holds two
/// of these per key. The state is key-derived in that use, so it is wiped
/// on drop.
///
/// [`HmacKey`]: crate::HmacKey
#[derive(Clone)]
pub struct Sha512Midstate {
    state: [u64; 8],
    len: u128,
}

impl Drop for Sha512Midstate {
    fn drop(&mut self) {
        zeroize_u64(&mut self.state);
        self.len = 0;
    }
}

impl fmt::Debug for Sha512Midstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the chaining value; it may be key-derived.
        f.debug_struct("Sha512Midstate").finish_non_exhaustive()
    }
}

impl Digest for Sha512 {
    const OUTPUT_LEN: usize = 64;
    const BLOCK_LEN: usize = 128;

    type Midstate = Sha512Midstate;

    fn fresh() -> Self {
        Sha512::new()
    }

    fn absorb(&mut self, data: &[u8]) {
        self.update(data);
    }

    fn produce_into(self, out: &mut [u8]) {
        self.finalize_into(out);
    }

    fn save(&self) -> Sha512Midstate {
        Sha512::save(self)
    }

    fn restore(midstate: &Sha512Midstate) -> Self {
        Sha512::restore(midstate)
    }
}

/// One-shot SHA-512.
///
/// ```
/// let d = amnesia_crypto::sha512(b"abc");
/// assert!(amnesia_crypto::hex::encode(&d).starts_with("ddaf35a19361"));
/// ```
pub fn sha512(data: &[u8]) -> [u8; 64] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hexdigest(data: &[u8]) -> String {
        hex::encode(&sha512(data))
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hexdigest(b""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hexdigest(b"abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hexdigest(msg),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hexdigest(&msg),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb\
de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        for len in [
            111usize, 112, 113, 127, 128, 129, 239, 240, 241, 255, 256, 257,
        ] {
            let msg = vec![0x5au8; len];
            let mut streaming = Sha512::new();
            for chunk in msg.chunks(7) {
                streaming.update(chunk);
            }
            assert_eq!(streaming.finalize(), sha512(&msg), "len={len}");
        }
    }

    /// Bytewise reference padding, as in the SHA-256 tests.
    fn digest_with_bytewise_padding(msg: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(msg);
        let bit_len = h.len * 8;
        h.update(&[0x80]);
        while h.buf_len != 112 {
            h.update(&[0x00]);
        }
        h.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 64];
        for (chunk, word) in out.chunks_mut(8).zip(h.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn in_place_padding_matches_bytewise_padding() {
        for len in 0..=300usize {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            assert_eq!(
                sha512(&msg),
                digest_with_bytewise_padding(&msg),
                "len={len}"
            );
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha512::new();
        h.update(b"prefix-");
        let mut h2 = h.clone();
        h.update(b"tail");
        h2.update(b"tail");
        assert_eq!(h.finalize(), h2.finalize());
    }
}

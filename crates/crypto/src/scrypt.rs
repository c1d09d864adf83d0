//! scrypt (RFC 7914) — a from-scratch memory-hard key-derivation function.
//!
//! PBKDF2 is CPU-hard only: an attacker with password-hashing ASICs pays
//! orders of magnitude less per guess than the defender's general-purpose
//! core. scrypt forces every guess through a large pseudorandom memory
//! working set, so the attacker's cost is *area × time* — silicon cannot
//! shrink the RAM. This module implements the full RFC 7914 construction:
//!
//! 1. **Salsa20/8 core** (§3) — eight rounds of the Salsa20 quarter-round
//!    function over a 64-byte block, output added to the input.
//! 2. **scryptBlockMix** (§4) — chains the Salsa core over `2r` 64-byte
//!    blocks with an even/odd output shuffle.
//! 3. **scryptROMix** (§5) — fills an `N`-entry vector `V` of `128·r`-byte
//!    blocks, then performs `N` data-*dependent* lookups into it. This is
//!    the memory-hard step: evaluating without storing `V` costs ~`N²`
//!    Salsa calls instead of `2N`.
//! 4. **scrypt** (§6) — a single-iteration PBKDF2-HMAC-SHA-256 envelope
//!    (reusing this crate's midstate-cached [`HmacKey`](crate::HmacKey)
//!    machinery) expands the password into `p` independent lanes, each lane
//!    is ROMixed, and a second PBKDF2 pass compresses the lanes into the
//!    derived key.
//!
//! Lanes are data-independent, so `p > 1` derivations fan out across
//! scoped threads exactly like multi-block PBKDF2 — the result is
//! bit-identical at every fan-out width (property-tested in
//! `tests/properties.rs`). All working buffers (`V`, the lane blocks, the
//! Salsa scratch) are zeroized before return; they held values derived
//! from the password.
//!
//! **Two ROMix kernels, one function.** Each lane is ROMixed once, on the
//! kernel this CPU picks ([`romix_kernel`] names it). On x86-64 with
//! AVX-512F and AVX-512VL a vector kernel holds every 64-byte block in
//! the diagonal layout of Percival's SSE2 scrypt: row `k` of the block
//! holds words `(4k + 5i) mod 16`, so lane `i` of the four rows is column
//! `i` of the Salsa matrix. A column round is then four vector
//! quarter-round steps (add, rotate by `7`/`9`/`13`/`18` on the AVX-512VL
//! rotate, XOR), and a row round is the same four steps after three lane
//! shuffles. Word-wise XOR and addition do not see the layout, so
//! BlockMix and ROMix run on it unchanged; `Integerify` reads word 0 of
//! the last block, which the layout leaves at position 0. The kernel
//! computes `BlockMix(X ⊕ V_j)` without storing the XOR, and builds `V` by
//! appending to an unfilled allocation. Everywhere else the portable
//! scalar kernels below run; they are the reference the vector kernel is
//! tested against, and they give the same bytes.
//!
//! Known-answer tests pin the §8 Salsa20/8, §9 BlockMix, §10 ROMix and
//! §12 scrypt vectors (the 1 GiB `N = 2^20` vector is `#[ignore]`d).

use crate::error::CryptoError;
use crate::pbkdf2::pbkdf2_hmac_sha256;
use crate::stats;
use crate::zeroize::{zeroize, zeroize_u32};

/// Words per 64-byte Salsa block.
const SALSA_WORDS: usize = 16;

/// Largest accepted `log2(N)`. It keeps `N` under `2^32` and the size
/// `check_params` computes from overflowing; the work itself is bounded
/// by [`MAX_DERIVATION_BYTES`], which at `r = p = 1` already stops at
/// `N = 2^23`.
pub const MAX_LOG_N: u8 = 24;

/// Largest accepted derivation, `128·r·N·p` bytes over all `p` lanes:
/// 1 GiB, the size of RFC 7914's `N = 2^20`, `r = 8`, `p = 1` vector and
/// 8× a [`PARANOID`](crate::KdfPolicy::PARANOID) derivation. ROMix reads
/// and writes each lane's `V` twice, so this bounds both the memory of a
/// lane and the work of the whole derivation. A policy decoded from a
/// corrupt record fails here with a typed error, instead of aborting the
/// process on the allocation of `V` or spending hours on a thousand
/// 1 GiB lanes.
pub const MAX_DERIVATION_BYTES: u64 = 1 << 30;

/// Largest accepted block-size factor `r` (RFC 7914 leaves `r` open;
/// `128·r` must stay a sane block length).
pub const MAX_R: u32 = 1024;

/// Largest accepted parallelization factor `p`.
pub const MAX_P: u32 = 1024;

/// The Salsa20/8 core (RFC 7914 §3): four double-rounds over sixteen
/// 32-bit words, output added word-wise to the input, in place.
fn salsa20_8(block: &mut [u32; SALSA_WORDS]) {
    let mut x = *block;
    // R(a,b,c,d): a ^= (b + c) <<< d, applied column-wise then row-wise.
    macro_rules! qr {
        ($a:expr, $b:expr, $c:expr, $d:expr) => {
            x[$a] ^= x[$b].wrapping_add(x[$c]).rotate_left($d);
        };
    }
    for _ in 0..4 {
        // Column round.
        qr!(4, 0, 12, 7);
        qr!(8, 4, 0, 9);
        qr!(12, 8, 4, 13);
        qr!(0, 12, 8, 18);
        qr!(9, 5, 1, 7);
        qr!(13, 9, 5, 9);
        qr!(1, 13, 9, 13);
        qr!(5, 1, 13, 18);
        qr!(14, 10, 6, 7);
        qr!(2, 14, 10, 9);
        qr!(6, 2, 14, 13);
        qr!(10, 6, 2, 18);
        qr!(3, 15, 11, 7);
        qr!(7, 3, 15, 9);
        qr!(11, 7, 3, 13);
        qr!(15, 11, 7, 18);
        // Row round.
        qr!(1, 0, 3, 7);
        qr!(2, 1, 0, 9);
        qr!(3, 2, 1, 13);
        qr!(0, 3, 2, 18);
        qr!(6, 5, 4, 7);
        qr!(7, 6, 5, 9);
        qr!(4, 7, 6, 13);
        qr!(5, 4, 7, 18);
        qr!(11, 10, 9, 7);
        qr!(8, 11, 10, 9);
        qr!(9, 8, 11, 13);
        qr!(10, 9, 8, 18);
        qr!(12, 15, 14, 7);
        qr!(13, 12, 15, 9);
        qr!(14, 13, 12, 13);
        qr!(15, 14, 13, 18);
    }
    for (b, xi) in block.iter_mut().zip(x.iter()) {
        *b = b.wrapping_add(*xi);
    }
}

/// scryptBlockMix (RFC 7914 §4) over `2r` Salsa blocks, word-oriented.
///
/// `input` and `output` are both `32·r` words (`2r` Salsa blocks). The
/// even-indexed intermediate blocks land in the first half of `output`,
/// the odd-indexed ones in the second half.
fn block_mix(input: &[u32], output: &mut [u32], r: usize) {
    let mut x = [0u32; SALSA_WORDS];
    x.copy_from_slice(&input[(2 * r - 1) * SALSA_WORDS..][..SALSA_WORDS]);
    for i in 0..2 * r {
        for (xw, bw) in x.iter_mut().zip(&input[i * SALSA_WORDS..][..SALSA_WORDS]) {
            *xw ^= bw;
        }
        salsa20_8(&mut x);
        // Y_i lands at B'_{i/2} (even) or B'_{r + i/2} (odd).
        let dest = if i % 2 == 0 { i / 2 } else { r + i / 2 };
        output[dest * SALSA_WORDS..][..SALSA_WORDS].copy_from_slice(&x);
    }
    zeroize_u32(&mut x);
}

/// `Integerify(X) mod N` (RFC 7914 §5): the little-endian integer held in
/// the first 8 bytes of the last Salsa block of `x`, reduced mod the
/// power-of-two `n`.
fn integerify(x: &[u32], r: usize, n: usize) -> usize {
    let base = (2 * r - 1) * SALSA_WORDS;
    let lo = x[base] as u64;
    let hi = x[base + 1] as u64;
    ((lo | (hi << 32)) & (n as u64 - 1)) as usize
}

/// scryptROMix (RFC 7914 §5) over one `128·r`-byte lane, in place.
///
/// `lane` is `32·r` words. Allocates the `N`-entry vector `V`
/// (`32·r·N` words) plus one block of scratch; both are zeroized before
/// return — every entry of `V` is a pure function of the password.
fn romix(lane: &mut [u32], r: usize, n: usize) {
    let words = 32 * r;
    let mut romix_x = lane.to_vec();
    let mut romix_t = vec![0u32; words];
    // `V` is allocated last, as the vector kernel does: once glibc's
    // dynamic mmap threshold has passed the size of a freed `V`, that `V`
    // stays on the heap, and a block buffer allocated after the next `V`
    // would be carved from it, so the next `V` could not reuse it and the
    // process would keep a second table.
    let mut romix_v = vec![0u32; words * n];

    // Fill phase: V_i = X; X = BlockMix(X).
    for i in 0..n {
        romix_v[i * words..][..words].copy_from_slice(&romix_x);
        block_mix(&romix_x, &mut romix_t, r);
        std::mem::swap(&mut romix_x, &mut romix_t);
    }
    // Mix phase: j = Integerify(X) mod N; X = BlockMix(X ^ V_j).
    for _ in 0..n {
        let j = integerify(&romix_x, r, n);
        for (xw, vw) in romix_x.iter_mut().zip(&romix_v[j * words..][..words]) {
            *xw ^= vw;
        }
        block_mix(&romix_x, &mut romix_t, r);
        std::mem::swap(&mut romix_x, &mut romix_t);
    }
    lane.copy_from_slice(&romix_x);

    zeroize_u32(&mut romix_v);
    zeroize_u32(&mut romix_x);
    zeroize_u32(&mut romix_t);
}

/// The ROMix kernel this CPU runs: `"avx512vl"` on x86-64 with AVX-512F
/// and AVX-512VL, `"portable"` everywhere else. Both derive the same
/// bytes; a timing of scrypt means little without the name of its kernel.
pub fn romix_kernel() -> &'static str {
    if vector_kernel_available() {
        "avx512vl"
    } else {
        "portable"
    }
}

/// Whether this CPU has the target features [`romix_avx512vl`] enables.
/// std caches the detection, so this is a few loads per lane.
fn vector_kernel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// ROMix over one lane stored as RFC byte order, in place: on the vector
/// kernel when this CPU has AVX-512F and AVX-512VL, on the portable kernel
/// otherwise. Both compute the same function;
/// `dispatched_romix_matches_portable_kernel` checks it.
#[allow(unsafe_code)]
fn romix_lane(lane: &mut [u8], r: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if vector_kernel_available() {
        // SAFETY: `romix_avx512vl` is a safe fn whose one requirement is the
        // target features it enables, and the check above just found both of
        // them on this CPU.
        unsafe { romix_avx512vl(lane, r, n) };
        return;
    }
    romix_lane_portable(lane, r, n);
}

/// The portable ROMix over one lane stored as RFC byte order: load
/// little-endian words, mix, store back.
fn romix_lane_portable(lane: &mut [u8], r: usize, n: usize) {
    let mut lane_words: Vec<u32> = lane
        .chunks_exact(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w.copy_from_slice(c);
            u32::from_le_bytes(w)
        })
        .collect();
    romix(&mut lane_words, r, n);
    for (chunk, w) in lane.chunks_exact_mut(4).zip(&lane_words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    zeroize_u32(&mut lane_words);
}

/// Position `p` of a block's diagonal layout holds word `DIAGONAL[p]`: row
/// `k` (positions `4k..4k + 4`) holds words `(4k + 5i) mod 16`.
#[cfg(target_arch = "x86_64")]
const DIAGONAL: [usize; SALSA_WORDS] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];

/// One Salsa block in the diagonal layout, a row per vector.
#[cfg(target_arch = "x86_64")]
type Rows = [std::arch::x86_64::__m128i; 4];

/// scryptROMix over one lane stored as RFC byte order, in place, on the
/// AVX-512VL vector rotate. The blocks of `X`, `V` and the BlockMix output
/// are kept in the diagonal layout from the lane's load to its store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn romix_avx512vl(lane: &mut [u8], r: usize, n: usize) {
    let blocks = 2 * r;
    let mut romix_x: Vec<[u32; SALSA_WORDS]> = lane
        .as_chunks::<64>()
        .0
        .iter()
        .map(|block| {
            let (words, _) = block.as_chunks::<4>();
            DIAGONAL.map(|w| u32::from_le_bytes(words[w]))
        })
        .collect();
    let mut romix_t = vec![[0u32; SALSA_WORDS]; blocks];
    // Every entry is written before it is read, so `V` is not zero-filled.
    let mut romix_v: Vec<[u32; SALSA_WORDS]> = Vec::with_capacity(blocks * n);

    // Fill phase: V_i = X; X = BlockMix(X).
    for _ in 0..n {
        romix_v.extend_from_slice(&romix_x);
        block_mix_rows(&romix_x, None, &mut romix_t);
        std::mem::swap(&mut romix_x, &mut romix_t);
    }
    // Mix phase: j = Integerify(X) mod N; X = BlockMix(X ^ V_j). `N` is at
    // most 2^MAX_LOG_N, so word 0 of the last block holds every bit of `j`.
    for _ in 0..n {
        let j = romix_x.last().map_or(0, |&[w0, ..]| w0 as usize) & (n - 1);
        let v_j = &romix_v[j * blocks..][..blocks];
        block_mix_rows(&romix_x, Some(v_j), &mut romix_t);
        std::mem::swap(&mut romix_x, &mut romix_t);
    }
    for (block, x) in lane.as_chunks_mut::<64>().0.iter_mut().zip(&romix_x) {
        let (words, _) = block.as_chunks_mut::<4>();
        for (&w, word) in DIAGONAL.iter().zip(x) {
            words[w] = word.to_le_bytes();
        }
    }

    zeroize_u32(romix_v.as_flattened_mut());
    zeroize_u32(romix_x.as_flattened_mut());
    zeroize_u32(romix_t.as_flattened_mut());
}

/// scryptBlockMix of `input ⊕ v` (of `input` when `v` is `None`) on blocks
/// in the diagonal layout: `Y_0, Y_2, …` land in the first half of
/// `output`, `Y_1, Y_3, …` in the second. The XOR with `v` is never
/// stored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn block_mix_rows(
    input: &[[u32; SALSA_WORDS]],
    v: Option<&[[u32; SALSA_WORDS]]>,
    output: &mut [[u32; SALSA_WORDS]],
) {
    let block = |i: usize| match v {
        Some(v) => xor_rows(load_rows(&input[i]), load_rows(&v[i])),
        None => load_rows(&input[i]),
    };
    let r = input.len() / 2;
    let (evens, odds) = output.split_at_mut(r);
    let mut x = block(2 * r - 1);
    for (i, (even, odd)) in evens.iter_mut().zip(odds).enumerate() {
        x = salsa20_8_rows(xor_rows(x, block(2 * i)));
        store_rows(x, even);
        x = salsa20_8_rows(xor_rows(x, block(2 * i + 1)));
        store_rows(x, odd);
    }
}

/// The Salsa20/8 core on one block in the diagonal layout. Lane `i` of
/// the rows `a, b, c, d` is column `i` of the Salsa matrix, top to bottom,
/// so every column's quarter-round runs at once. Rotating `b`, `c` and `d`
/// by one, two and three lanes lines the matrix's rows up the same way for
/// the row round, and the opposite rotation restores the layout.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn salsa20_8_rows(input: Rows) -> Rows {
    use std::arch::x86_64::{_mm_add_epi32, _mm_shuffle_epi32};

    let [mut a, mut b, mut c, mut d] = input;
    for _ in 0..4 {
        b = quarter_step::<7>(b, a, d);
        c = quarter_step::<9>(c, b, a);
        d = quarter_step::<13>(d, c, b);
        a = quarter_step::<18>(a, d, c);
        b = _mm_shuffle_epi32::<0x93>(b);
        c = _mm_shuffle_epi32::<0x4e>(c);
        d = _mm_shuffle_epi32::<0x39>(d);
        d = quarter_step::<7>(d, a, b);
        c = quarter_step::<9>(c, d, a);
        b = quarter_step::<13>(b, c, d);
        a = quarter_step::<18>(a, b, c);
        b = _mm_shuffle_epi32::<0x39>(b);
        c = _mm_shuffle_epi32::<0x4e>(c);
        d = _mm_shuffle_epi32::<0x93>(d);
    }
    let [a0, b0, c0, d0] = input;
    [
        _mm_add_epi32(a, a0),
        _mm_add_epi32(b, b0),
        _mm_add_epi32(c, c0),
        _mm_add_epi32(d, d0),
    ]
}

/// `x ^ ((y + z) <<< R)` on four lanes: one step of four quarter-rounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn quarter_step<const R: i32>(
    x: std::arch::x86_64::__m128i,
    y: std::arch::x86_64::__m128i,
    z: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::{_mm_add_epi32, _mm_rol_epi32, _mm_xor_si128};
    _mm_xor_si128(x, _mm_rol_epi32::<R>(_mm_add_epi32(y, z)))
}

/// [`Rows`] ⊕ [`Rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn xor_rows(x: Rows, y: Rows) -> Rows {
    use std::arch::x86_64::_mm_xor_si128;
    let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (x, y);
    [
        _mm_xor_si128(x0, y0),
        _mm_xor_si128(x1, y1),
        _mm_xor_si128(x2, y2),
        _mm_xor_si128(x3, y3),
    ]
}

/// A block's sixteen words as four rows, position `4k` in the low lane of
/// row `k`. The words are read by value, so no pointer is loaded from.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn load_rows(block: &[u32; SALSA_WORDS]) -> Rows {
    use std::arch::x86_64::_mm_set_epi32;
    let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3] =
        block.map(u32::cast_signed);
    [
        _mm_set_epi32(a3, a2, a1, a0),
        _mm_set_epi32(b3, b2, b1, b0),
        _mm_set_epi32(c3, c2, c1, c0),
        _mm_set_epi32(d3, d2, d1, d0),
    ]
}

/// [`load_rows`] in reverse: the rows' lanes back into a block's words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[inline]
fn store_rows(rows: Rows, block: &mut [u32; SALSA_WORDS]) {
    use std::arch::x86_64::_mm_extract_epi32;
    let [a, b, c, d] = rows;
    *block = [
        _mm_extract_epi32::<0>(a),
        _mm_extract_epi32::<1>(a),
        _mm_extract_epi32::<2>(a),
        _mm_extract_epi32::<3>(a),
        _mm_extract_epi32::<0>(b),
        _mm_extract_epi32::<1>(b),
        _mm_extract_epi32::<2>(b),
        _mm_extract_epi32::<3>(b),
        _mm_extract_epi32::<0>(c),
        _mm_extract_epi32::<1>(c),
        _mm_extract_epi32::<2>(c),
        _mm_extract_epi32::<3>(c),
        _mm_extract_epi32::<0>(d),
        _mm_extract_epi32::<1>(d),
        _mm_extract_epi32::<2>(d),
        _mm_extract_epi32::<3>(d),
    ]
    .map(i32::cast_unsigned);
}

fn check_params(log_n: u8, r: u32, p: u32) -> Result<(), CryptoError> {
    if log_n == 0 || log_n > MAX_LOG_N {
        return Err(CryptoError::ScryptCostOutOfRange);
    }
    if r == 0 || r > MAX_R {
        return Err(CryptoError::ScryptBlockSizeOutOfRange);
    }
    if p == 0 || p > MAX_P {
        return Err(CryptoError::ScryptParallelismOutOfRange);
    }
    // At most 2^7 · 2^10 · 2^24 · 2^10 = 2^51 by the bounds above: no
    // overflow. With `p ≥ 1` this bounds each lane too.
    if (128 * u64::from(r) * u64::from(p)) << log_n > MAX_DERIVATION_BYTES {
        return Err(CryptoError::ScryptMemoryOutOfRange);
    }
    Ok(())
}

/// Derives `out.len()` bytes with scrypt (RFC 7914 §6), parameters
/// `N = 2^log_n`, block-size factor `r`, parallelization `p`.
///
/// Lane fan-out width is chosen automatically (one worker per lane, capped
/// at available parallelism). Peak memory is `p` concurrent lanes of
/// `128·r·N` bytes each when fanned out.
///
/// ```
/// let mut key = [0u8; 32];
/// amnesia_crypto::scrypt(b"master password", b"salt", 10, 8, 1, &mut key)
///     .expect("valid parameters");
/// assert_ne!(key, [0u8; 32]);
/// ```
pub fn scrypt(
    password: &[u8],
    salt: &[u8],
    log_n: u8,
    r: u32,
    p: u32,
    out: &mut [u8],
) -> Result<(), CryptoError> {
    let fanout = if p > 1 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        1
    };
    scrypt_with_fanout(password, salt, log_n, r, p, out, fanout)
}

/// [`scrypt`] with a caller-pinned lane fan-out width.
///
/// Lanes are data-independent, so the derived key is bit-identical for
/// every `fanout`; this entry point exists so tests and benchmarks can
/// compare the sequential and threaded paths directly.
pub fn scrypt_with_fanout(
    password: &[u8],
    salt: &[u8],
    log_n: u8,
    r: u32,
    p: u32,
    out: &mut [u8],
    fanout: usize,
) -> Result<(), CryptoError> {
    check_params(log_n, r, p)?;
    let n = 1usize << log_n;
    let r = r as usize;
    let p = p as usize;
    let lane_len = 128 * r;

    // B = PBKDF2-HMAC-SHA-256(P, S, c=1, dkLen=p·128·r).
    let mut scrypt_blocks = vec![0u8; p * lane_len];
    pbkdf2_hmac_sha256(password, salt, 1, &mut scrypt_blocks)?;

    let workers = fanout.clamp(1, p);
    stats::note_scrypt_lane_workers(workers as u64);
    if workers <= 1 || p <= 1 {
        for lane in scrypt_blocks.chunks_mut(lane_len) {
            romix_lane(lane, r, n);
        }
    } else {
        // Contiguous lane spans per worker; each worker allocates its own
        // V so peak memory scales with the fan-out width, not with p.
        let lanes_per_worker = p.div_ceil(workers);
        let span = lanes_per_worker * lane_len;
        std::thread::scope(|scope| {
            for span_chunk in scrypt_blocks.chunks_mut(span) {
                scope.spawn(move || {
                    for lane in span_chunk.chunks_mut(lane_len) {
                        romix_lane(lane, r, n);
                    }
                });
            }
        });
    }

    // DK = PBKDF2-HMAC-SHA-256(P, B, c=1, dkLen).
    pbkdf2_hmac_sha256(password, &scrypt_blocks, 1, out)?;
    zeroize(&mut scrypt_blocks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn words_of(bytes: &[u8]) -> Vec<u32> {
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn bytes_of(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    // RFC 7914 §8: Salsa20/8 core.
    #[test]
    fn rfc7914_salsa20_8_core() {
        let input = hex::decode(
            "7e879a214f3ec9867ca940e641718f26\
             baee555b8c61c1b50df846116dcd3b1d\
             ee24f319df9b3d8514121e4b5ac5aa32\
             76021d2909c74829edebc68db8b8c25e",
        )
        .unwrap();
        let mut block: [u32; 16] = words_of(&input).try_into().unwrap();
        salsa20_8(&mut block);
        assert_eq!(
            hex::encode(&bytes_of(&block)),
            "a41f859c6608cc993b81cacb020cef05\
             044b2181a2fd337dfd7b1c6396682f29\
             b4393168e3c9e6bcfe6bc5b7a06d96ba\
             e424cc102c91745c24ad673dc7618f81"
        );
    }

    // RFC 7914 §9: scryptBlockMix with r = 1.
    #[test]
    fn rfc7914_block_mix() {
        let input = hex::decode(
            "f7ce0b653d2d72a4108cf5abe912ffdd\
             777616dbbb27a70e8204f3ae2d0f6fad\
             89f68f4811d1e87bcc3bd7400a9ffd29\
             094f0184639574f39ae5a1315217bcd7\
             894991447213bb226c25b54da86370fb\
             cd984380374666bb8ffcb5bf40c254b0\
             67d27c51ce4ad5fed829c90b505a571b\
             7f4d1cad6a523cda770e67bceaaf7e89",
        )
        .unwrap();
        let want = "a41f859c6608cc993b81cacb020cef05\
             044b2181a2fd337dfd7b1c6396682f29\
             b4393168e3c9e6bcfe6bc5b7a06d96ba\
             e424cc102c91745c24ad673dc7618f81\
             20edc975323881a80540f64c162dcd3c\
             21077cfe5f8d5fe2b1a4168f953678b7\
             7d3b3d803b60e4ab920996e59b4d53b6\
             5d2a225877d5edf5842cb9f14eefe425";
        let input_words = words_of(&input);
        let mut output = vec![0u32; 32];
        block_mix(&input_words, &mut output, 1);
        assert_eq!(hex::encode(&bytes_of(&output)), want);
    }

    // RFC 7914 §10: scryptROMix with r = 1, N = 16.
    #[test]
    fn rfc7914_romix() {
        let input = hex::decode(
            "f7ce0b653d2d72a4108cf5abe912ffdd\
             777616dbbb27a70e8204f3ae2d0f6fad\
             89f68f4811d1e87bcc3bd7400a9ffd29\
             094f0184639574f39ae5a1315217bcd7\
             894991447213bb226c25b54da86370fb\
             cd984380374666bb8ffcb5bf40c254b0\
             67d27c51ce4ad5fed829c90b505a571b\
             7f4d1cad6a523cda770e67bceaaf7e89",
        )
        .unwrap();
        let want = "79ccc193629debca047f0b70604bf6b6\
             2ce3dd4a9626e355fafc6198e6ea2b46\
             d58413673b99b029d665c357601fb426\
             a0b2f4bba200ee9f0a43d19b571a9c71\
             ef1142e65d5a266fddca832ce59faa7c\
             ac0b9cf1be2bffca300d01ee387619c4\
             ae12fd4438f203a0e4e1c47ec314861f\
             4e9087cb33396a6873e8f9d2539a4b8e";
        let mut lane = words_of(&input);
        romix(&mut lane, 1, 16);
        assert_eq!(hex::encode(&bytes_of(&lane)), want);
        // The same vector through the dispatched entry point, on whichever
        // kernel this CPU runs.
        let mut lane_bytes = input.clone();
        romix_lane(&mut lane_bytes, 1, 16);
        assert_eq!(hex::encode(&lane_bytes), want);
    }

    /// The dispatched kernel (the vector one where this CPU has AVX-512VL)
    /// against the portable one on random lanes in RFC byte order.
    #[test]
    fn dispatched_romix_matches_portable_kernel() {
        let mut g = amnesia_testkit::Gen::new(0x5a15_a208);
        for r in [1usize, 2, 3, 8] {
            for n in [2usize, 16, 1024] {
                for case in 0..2 {
                    let mut dispatched = vec![0u8; 128 * r];
                    dispatched.fill_with(|| g.next_u8());
                    let mut portable = dispatched.clone();
                    romix_lane(&mut dispatched, r, n);
                    romix_lane_portable(&mut portable, r, n);
                    assert_eq!(dispatched, portable, "r={r} N={n} case {case}");
                }
            }
        }
    }

    // RFC 7914 §12, vector 1: the empty password/salt case.
    #[test]
    fn rfc7914_scrypt_vector_1() {
        let mut out = [0u8; 64];
        scrypt(b"", b"", 4, 1, 1, &mut out).unwrap();
        assert_eq!(
            hex::encode(&out),
            "77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442\
             fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906"
        );
    }

    // RFC 7914 §12, vector 2: N=1024, r=8, p=16 — exercises the multi-lane
    // path (and, via scrypt()'s automatic width, the thread fan-out).
    #[test]
    fn rfc7914_scrypt_vector_2() {
        let mut out = [0u8; 64];
        scrypt(b"password", b"NaCl", 10, 8, 16, &mut out).unwrap();
        assert_eq!(
            hex::encode(&out),
            "fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162\
             2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640"
        );
    }

    // RFC 7914 §12, vector 3: N=16384, r=8, p=1 — the acceptance-criteria
    // vector; a 16 MiB single-lane working set.
    #[test]
    fn rfc7914_scrypt_vector_3() {
        let mut out = [0u8; 64];
        scrypt(b"pleaseletmein", b"SodiumChloride", 14, 8, 1, &mut out).unwrap();
        assert_eq!(
            hex::encode(&out),
            "7023bdcb3afd7348461c06cd81fd38ebfda8fbba904f8e3ea9b543f6545da1f2\
             d5432955613f0fcf62d49705242a9af9e61e85dc0d651e40dfcf017b45575887"
        );
    }

    /// RFC 7914 §12, vector 4: N=2^20, r=8, p=1 — a 1 GiB working set;
    /// run with `cargo test -p amnesia-crypto --release -- --ignored`.
    #[test]
    #[ignore = "1 GiB working set; slow — run with --ignored"]
    fn rfc7914_scrypt_vector_4() {
        let mut out = [0u8; 64];
        scrypt(b"pleaseletmein", b"SodiumChloride", 20, 8, 1, &mut out).unwrap();
        assert_eq!(
            hex::encode(&out),
            "2101cb9b6a511aaeaddbbe09cf70f881ec568d574a2ffd4dabe5ee9820adaa47\
             8e56fd8f4ba5d09ffa1c6d927c40f4c337304049e8a952fbcbf45c6fa77a41a4"
        );
    }

    #[test]
    fn fanout_width_does_not_change_output() {
        let mut sequential = [0u8; 40];
        scrypt_with_fanout(b"pw", b"salt", 5, 2, 4, &mut sequential, 1).unwrap();
        for fanout in [2usize, 3, 4, 16] {
            let mut threaded = [0u8; 40];
            scrypt_with_fanout(b"pw", b"salt", 5, 2, 4, &mut threaded, fanout).unwrap();
            assert_eq!(threaded, sequential, "fanout={fanout}");
        }
    }

    #[test]
    fn parameters_change_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        let mut c = [0u8; 32];
        let mut d = [0u8; 32];
        scrypt(b"pw", b"s", 4, 1, 1, &mut a).unwrap();
        scrypt(b"pw", b"s", 5, 1, 1, &mut b).unwrap();
        scrypt(b"pw", b"s", 4, 2, 1, &mut c).unwrap();
        scrypt(b"pw", b"s", 4, 1, 2, &mut d).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let mut out = [0u8; 32];
        assert_eq!(
            scrypt(b"p", b"s", 0, 1, 1, &mut out),
            Err(CryptoError::ScryptCostOutOfRange)
        );
        assert_eq!(
            scrypt(b"p", b"s", MAX_LOG_N + 1, 1, 1, &mut out),
            Err(CryptoError::ScryptCostOutOfRange)
        );
        assert_eq!(
            scrypt(b"p", b"s", 4, 0, 1, &mut out),
            Err(CryptoError::ScryptBlockSizeOutOfRange)
        );
        assert_eq!(
            scrypt(b"p", b"s", 4, MAX_R + 1, 1, &mut out),
            Err(CryptoError::ScryptBlockSizeOutOfRange)
        );
        assert_eq!(
            scrypt(b"p", b"s", 4, 1, 0, &mut out),
            Err(CryptoError::ScryptParallelismOutOfRange)
        );
        assert_eq!(
            scrypt(b"p", b"s", 4, 1, MAX_P + 1, &mut out),
            Err(CryptoError::ScryptParallelismOutOfRange)
        );
        // The output buffer is untouched on error.
        assert_eq!(out, [0u8; 32]);
    }

    #[test]
    fn oversized_lanes_are_typed_errors_before_any_allocation() {
        let mut out = [0u8; 32];
        // 16 GiB and 2 TiB per lane: the check runs before `B` or `V` exist.
        for (log_n, r) in [(24, 8), (24, MAX_R)] {
            assert_eq!(
                scrypt(b"p", b"s", log_n, r, 1, &mut out),
                Err(CryptoError::ScryptMemoryOutOfRange),
                "log_n={log_n} r={r}"
            );
        }
        assert_eq!(out, [0u8; 32]);
        // RFC 7914 vector 4's 1 GiB lane is the largest accepted one.
        assert_eq!(check_params(20, 8, 1), Ok(()));
        assert_eq!(
            check_params(21, 8, 1),
            Err(CryptoError::ScryptMemoryOutOfRange)
        );
    }

    #[test]
    fn oversized_derivations_are_typed_errors_before_any_allocation() {
        let mut out = [0u8; 32];
        // 1 024 lanes of 1 GiB, and 65 lanes of 16 MiB: each lane fits,
        // the derivation does not, and nothing is allocated.
        for (log_n, r, p) in [(20, 8, 1024), (14, 8, 65)] {
            assert_eq!(
                scrypt(b"p", b"s", log_n, r, p, &mut out),
                Err(CryptoError::ScryptMemoryOutOfRange),
                "log_n={log_n} r={r} p={p}"
            );
        }
        assert_eq!(out, [0u8; 32]);
        // 64 lanes of 16 MiB and one of 1 GiB are exactly the bound.
        assert_eq!(check_params(14, 8, 64), Ok(()));
        assert_eq!(check_params(20, 8, 1), Ok(()));
    }
}

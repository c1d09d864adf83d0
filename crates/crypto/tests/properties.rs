//! Property-based tests for the cryptographic primitives, on the in-repo
//! `amnesia-testkit` harness.

use amnesia_crypto::kdf::{self, KdfPolicy};
use amnesia_crypto::{
    aead, ct_eq, hex, hmac_sha256, pbkdf2_hmac_sha256, pbkdf2_hmac_sha256_with_fanout, sha256,
    sha512, Digest, HmacKey, SecretRng, Sha256, Sha512,
};
use amnesia_testkit::{for_all, require, require_eq, require_ne, Gen};

const CASES: u32 = 128;

/// Streaming over arbitrary chunk splits equals one-shot hashing.
#[test]
fn sha256_streaming_equals_oneshot() {
    for_all("sha256 streaming equals oneshot", CASES, |g: &mut Gen| {
        let data = g.bytes_upto(2048);
        let mut h = Sha256::new();
        let mut rest: &[u8] = &data;
        for _ in 0..g.usize_in(0, 7) {
            let cut = g.usize_in(0, rest.len());
            let (head, tail) = rest.split_at(cut);
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        require_eq!(h.finalize(), sha256(&data));
        Ok(())
    });
}

/// Same for SHA-512.
#[test]
fn sha512_streaming_equals_oneshot() {
    for_all("sha512 streaming equals oneshot", CASES, |g: &mut Gen| {
        let data = g.bytes_upto(2048);
        let cut = g.usize_in(0, data.len());
        let mut h = Sha512::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        require_eq!(h.finalize(), sha512(&data));
        Ok(())
    });
}

/// Streaming equals one-shot at every length through both hashes' padding
/// boundaries (55/56/63/64 bytes for SHA-256, 111/112/127/128 for
/// SHA-512), fed a byte at a time and in random pieces.
#[test]
fn streaming_equals_oneshot_at_every_length() {
    let mut g = Gen::new(0x0300);
    for len in 0..=300 {
        let data = g.bytes(len);
        let (mut bytewise256, mut bytewise512) = (Sha256::new(), Sha512::new());
        for b in &data {
            bytewise256.update(std::slice::from_ref(b));
            bytewise512.update(std::slice::from_ref(b));
        }
        let (mut pieces256, mut pieces512) = (Sha256::new(), Sha512::new());
        let mut rest: &[u8] = &data;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(g.usize_in(1, rest.len()));
            pieces256.update(head);
            pieces512.update(head);
            rest = tail;
        }
        let (oneshot256, oneshot512) = (sha256(&data), sha512(&data));
        assert_eq!(
            bytewise256.finalize(),
            oneshot256,
            "sha256 bytewise, len={len}"
        );
        assert_eq!(pieces256.finalize(), oneshot256, "sha256 pieces, len={len}");
        assert_eq!(
            bytewise512.finalize(),
            oneshot512,
            "sha512 bytewise, len={len}"
        );
        assert_eq!(pieces512.finalize(), oneshot512, "sha512 pieces, len={len}");
    }
}

/// Hex encode/decode is a bijection on byte strings.
#[test]
fn hex_roundtrip() {
    for_all("hex roundtrip", CASES, |g: &mut Gen| {
        let data = g.bytes_upto(512);
        let encoded = hex::encode(&data);
        require_eq!(encoded.len(), data.len() * 2);
        require_eq!(hex::decode(&encoded).unwrap(), data);
        Ok(())
    });
}

/// Decoding arbitrary hex-alphabet strings never panics; success implies
/// canonical re-encoding (modulo case).
#[test]
fn hex_decode_total() {
    const HEX_DIGITS: &[u8] = b"0123456789abcdefABCDEF";
    for_all("hex decode total", CASES, |g: &mut Gen| {
        let len = g.usize_in(0, 64);
        let s: String = (0..len).map(|_| *g.pick(HEX_DIGITS) as char).collect();
        match hex::decode(&s) {
            Ok(bytes) => require_eq!(hex::encode(&bytes), s.to_lowercase()),
            Err(_) => require!(s.len() % 2 == 1, "even-length hex rejected: {s:?}"),
        }
        Ok(())
    });
}

/// HMAC differs whenever the key differs (no trivial key collisions in the
/// sampled space).
#[test]
fn hmac_keys_separate() {
    for_all("hmac keys separate", CASES, |g: &mut Gen| {
        let k1 = g.bytes_upto(99);
        let k2 = g.bytes_upto(99);
        let msg = g.bytes_upto(99);
        if k1 == k2 {
            return Ok(());
        }
        // Keys that normalize to the same block (e.g. trailing zeros) are a
        // documented HMAC property; skip the padding-equivalent case.
        let mut n1 = k1.clone();
        let mut n2 = k2.clone();
        if n1.len().max(n2.len()) <= 64 {
            n1.resize(64, 0);
            n2.resize(64, 0);
            if n1 == n2 {
                return Ok(());
            }
        }
        require_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        Ok(())
    });
}

/// Streaming HMAC equals one-shot.
#[test]
fn hmac_streaming() {
    for_all("hmac streaming", CASES, |g: &mut Gen| {
        let key = g.bytes_upto(130);
        let msg = g.bytes_upto(500);
        let cut = g.usize_in(0, msg.len());
        let hmac_key = HmacKey::<Sha256>::new(&key);
        let mut m = hmac_key.begin();
        m.update(&msg[..cut]);
        m.update(&msg[cut..]);
        let mut streamed = [0u8; 32];
        m.finalize_into(&mut streamed);
        require_eq!(streamed, hmac_sha256(&key, &msg));
        Ok(())
    });
}

/// PBKDF2 output prefixes agree across requested lengths.
#[test]
fn pbkdf2_prefix_consistency() {
    for_all("pbkdf2 prefix consistency", CASES, |g: &mut Gen| {
        let pw = g.bytes_upto(31);
        let salt = g.bytes_upto(31);
        let iters = g.u64_in(1, 3) as u32;
        let mut short = [0u8; 16];
        let mut long = [0u8; 48];
        pbkdf2_hmac_sha256(&pw, &salt, iters, &mut short).unwrap();
        pbkdf2_hmac_sha256(&pw, &salt, iters, &mut long).unwrap();
        require_eq!(&short[..], &long[..16]);
        Ok(())
    });
}

/// The threaded PBKDF2 block fan-out is bit-identical to the sequential
/// path for arbitrary parameters, output lengths and widths.
#[test]
fn pbkdf2_parallel_equals_sequential() {
    for_all("pbkdf2 parallel equals sequential", CASES, |g: &mut Gen| {
        let pw = g.bytes_upto(40);
        let salt = g.bytes_upto(40);
        let iters = g.u64_in(1, 8) as u32;
        let len = g.usize_in(1, 200);
        let fanout = g.usize_in(2, 6);
        let mut sequential = vec![0u8; len];
        let mut threaded = vec![0u8; len];
        pbkdf2_hmac_sha256_with_fanout(&pw, &salt, iters, &mut sequential, 1).unwrap();
        pbkdf2_hmac_sha256_with_fanout(&pw, &salt, iters, &mut threaded, fanout).unwrap();
        require_eq!(sequential, threaded);
        Ok(())
    });
}

/// `kdf::derive` is bit-identical across lane fan-out widths: a `p = 4`
/// memory-hard derivation run on one worker equals the same derivation run
/// on four (and on arbitrary sampled widths), for arbitrary parameters and
/// output lengths. Lane order is fixed by the RFC, so threading must not
/// be observable in the derived key.
#[test]
fn kdf_derive_identical_across_lane_counts() {
    for_all("kdf derive across lane counts", 24, |g: &mut Gen| {
        let secret = g.bytes_upto(40);
        let salt = g.bytes_upto(40);
        let policy = KdfPolicy::MemoryHard {
            log_n: g.u64_in(2, 6) as u8,
            r: g.u64_in(1, 3) as u32,
            p: 4,
        };
        let len = g.usize_in(1, 80);
        let mut one_lane = vec![0u8; len];
        let mut four_lanes = vec![0u8; len];
        let mut sampled = vec![0u8; len];
        kdf::derive_with_fanout(&policy, &secret, &salt, &mut one_lane, 1).unwrap();
        kdf::derive_with_fanout(&policy, &secret, &salt, &mut four_lanes, 4).unwrap();
        let width = g.usize_in(2, 8);
        kdf::derive_with_fanout(&policy, &secret, &salt, &mut sampled, width).unwrap();
        require_eq!(one_lane, four_lanes);
        require_eq!(one_lane, sampled);
        // And the automatic-width entry point agrees with the pinned one.
        let mut auto = vec![0u8; len];
        kdf::derive(&policy, &secret, &salt, &mut auto).unwrap();
        require_eq!(one_lane, auto);
        Ok(())
    });
}

/// A precomputed [`HmacKey`] produces the same tags as fresh keying, for
/// arbitrary keys (short, block-length and hashed-down) and messages.
#[test]
fn hmac_key_reuse_equals_fresh_keying() {
    for_all("hmac key reuse equals fresh", CASES, |g: &mut Gen| {
        let key_len = g.usize_in(0, Sha256::BLOCK_LEN * 2);
        let key = g.bytes(key_len);
        let precomputed = HmacKey::<Sha256>::new(&key);
        for _ in 0..3 {
            let msg = g.bytes_upto(300);
            let mut tag = [0u8; 32];
            precomputed.mac_into(&msg, &mut tag);
            require_eq!(tag, hmac_sha256(&key, &msg));
        }
        Ok(())
    });
}

/// AEAD roundtrips for arbitrary keys, plaintexts and AAD.
#[test]
fn aead_roundtrip() {
    for_all("aead roundtrip", CASES, |g: &mut Gen| {
        let key = g.bytes_upto(64);
        let pt = g.bytes_upto(300);
        let aad = g.bytes_upto(64);
        let mut rng = SecretRng::seeded(g.next_u64());
        let sealed = aead::seal(&key, &pt, &aad, &mut rng);
        require_eq!(aead::open(&key, &sealed, &aad).unwrap(), pt);
        Ok(())
    });
}

/// Any single-byte corruption of a sealed blob is rejected.
#[test]
fn aead_tamper_detected() {
    for_all("aead tamper detected", CASES, |g: &mut Gen| {
        let pt_len = g.usize_in(1, 100);
        let pt = g.bytes(pt_len);
        let mut rng = SecretRng::seeded(g.next_u64());
        let mut sealed = aead::seal(b"key", &pt, b"aad", &mut rng);
        let idx = g.usize_in(0, sealed.len() - 1);
        let flip = g.u64_in(1, 255) as u8;
        sealed[idx] ^= flip;
        require!(
            aead::open(b"key", &sealed, b"aad").is_err(),
            "corruption at byte {idx} (xor {flip:#04x}) not detected"
        );
        Ok(())
    });
}

/// Constant-time equality agrees with `==`.
#[test]
fn ct_eq_is_equality() {
    for_all("ct_eq is equality", CASES, |g: &mut Gen| {
        let a = g.bytes_upto(64);
        // Half the cases compare equal inputs, half independent ones.
        let b = if g.next_bool() {
            a.clone()
        } else {
            g.bytes_upto(64)
        };
        require_eq!(ct_eq(&a, &b), a == b);
        Ok(())
    });
}

/// Digests never collide in the sampled space and avalanche on a single bit
/// flip.
#[test]
fn sha256_avalanche() {
    for_all("sha256 avalanche", CASES, |g: &mut Gen| {
        let data_len = g.usize_in(1, 256);
        let data = g.bytes(data_len);
        let mut flipped = data.clone();
        let idx = g.usize_in(0, flipped.len() - 1);
        let bit = g.usize_in(0, 7);
        flipped[idx] ^= 1 << bit;
        let a = sha256(&data);
        let b = sha256(&flipped);
        require_ne!(a, b);
        // Hamming distance should be substantial (>= 64 of 256 bits).
        let distance: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        require!(distance >= 64, "weak avalanche: {distance} bits");
        Ok(())
    });
}

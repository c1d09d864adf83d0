//! The MAC and DRBG constructions checked against their definitions, written
//! out plainly over byte slices: HMAC (RFC 2104) from the streaming hashers,
//! PBKDF2 (RFC 8018 §5.2) from that HMAC, and HMAC_DRBG (NIST SP 800-90A
//! §10.1.2) from `hmac_sha256`. The references use no `HmacKey`, no
//! midstates and no word-level hashing, so they share none of the fast
//! paths they check.

use amnesia_crypto::{
    hmac_sha256, hmac_sha512, pbkdf2_hmac_sha256, sha256, sha512, Hmac, HmacKey, SecretRng, Sha256,
    Sha512,
};
use amnesia_testkit::Gen;

/// `H((K' ⊕ opad) ‖ H((K' ⊕ ipad) ‖ m))` for SHA-256, where `K'` is the key
/// (hashed first when longer than a block) zero-padded to 64 bytes.
fn hmac_sha256_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = if key.len() > 64 {
        sha256(key).to_vec()
    } else {
        key.to_vec()
    };
    block.resize(64, 0);
    let inner_pad: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    let outer_pad: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    let mut inner = Sha256::new();
    inner.update(&inner_pad);
    inner.update(message);
    let mut outer = Sha256::new();
    outer.update(&outer_pad);
    outer.update(&inner.finalize());
    outer.finalize()
}

/// The same definition for SHA-512 (128-byte blocks).
fn hmac_sha512_reference(key: &[u8], message: &[u8]) -> [u8; 64] {
    let mut block = if key.len() > 128 {
        sha512(key).to_vec()
    } else {
        key.to_vec()
    };
    block.resize(128, 0);
    let inner_pad: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    let outer_pad: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    let mut inner = Sha512::new();
    inner.update(&inner_pad);
    inner.update(message);
    let mut outer = Sha512::new();
    outer.update(&outer_pad);
    outer.update(&inner.finalize());
    outer.finalize()
}

/// The first PBKDF2-HMAC-SHA-256 block, `T_1 = U_1 ⊕ … ⊕ U_c` with
/// `U_1 = HMAC(P, S ‖ INT(1))` and `U_j = HMAC(P, U_{j-1})`.
fn pbkdf2_first_block_reference(password: &[u8], salt: &[u8], iterations: u32) -> [u8; 32] {
    let mut u = hmac_sha256_reference(password, &[salt, &1u32.to_be_bytes()].concat());
    let mut t = u;
    for _ in 1..iterations {
        u = hmac_sha256_reference(password, &u);
        for (acc, b) in t.iter_mut().zip(u) {
            *acc ^= b;
        }
    }
    t
}

/// Every HMAC-SHA-256 entry point against the definition: all key lengths
/// 0..=130 (past 64 the key is hashed first), message lengths 0..=300 in a
/// stride that shifts with the key length, and tags truncated to 1..=32
/// bytes. PBKDF2 with 1–3 iterations rides along, with the key as the
/// password and the message as the salt.
#[test]
fn hmac_sha256_equals_its_definition() {
    let mut g = Gen::new(0x4d4ac);
    for key_len in 0..=130usize {
        let key = g.bytes(key_len);
        let hmac_key = HmacKey::<Sha256>::new(&key);
        for message_len in (key_len % 7..=300).step_by(7) {
            let message = g.bytes(message_len);
            let expected = hmac_sha256_reference(&key, &message);
            let case = format!("key {key_len} B, message {message_len} B");

            let out_len = g.usize_in(1, 32);
            let mut truncated = [0u8; 32];
            hmac_key.mac_into(&message, &mut truncated[..out_len]);
            assert_eq!(
                truncated[..out_len],
                expected[..out_len],
                "mac_into, {case}"
            );
            assert!(
                truncated[out_len..].iter().all(|&b| b == 0),
                "mac_into wrote past {out_len} bytes, {case}"
            );

            assert_eq!(hmac_sha256(&key, &message), expected, "hmac_sha256, {case}");

            let mut streamed = Hmac::<Sha256>::new(&key);
            let cut = g.usize_in(0, message.len());
            streamed.update(&message[..cut]);
            streamed.update(&message[cut..]);
            assert_eq!(streamed.finalize(), expected, "Hmac::<Sha256>, {case}");

            let iterations = g.u64_in(1, 3) as u32;
            let mut derived = [0u8; 32];
            pbkdf2_hmac_sha256(&key, &message, iterations, &mut derived[..out_len]).unwrap();
            let reference = pbkdf2_first_block_reference(&key, &message, iterations);
            assert_eq!(
                derived[..out_len],
                reference[..out_len],
                "pbkdf2_hmac_sha256, {iterations} iterations, {case}"
            );
        }
    }
}

/// SHA-512 keeps the generic HMAC finish; one sweep across its 128-byte
/// block and 111/112-byte padding boundaries keeps that covered.
#[test]
fn hmac_sha512_equals_its_definition() {
    let mut g = Gen::new(0x4d4a_c512);
    for (key_len, message_len) in [(0, 0), (20, 8), (128, 111), (129, 112), (131, 239)] {
        let key = g.bytes(key_len);
        let message = g.bytes(message_len);
        let expected = hmac_sha512_reference(&key, &message);
        let mut tag = [0u8; 64];
        HmacKey::<Sha512>::new(&key).mac_into(&message, &mut tag);
        assert_eq!(tag, expected, "key {key_len} B, message {message_len} B");
        assert_eq!(hmac_sha512(&key, &message), expected);
        assert_eq!(Hmac::<Sha512>::mac(&key, &message), expected.to_vec());
    }
}

/// HMAC_DRBG (SP 800-90A §10.1.2) with SHA-256, no reseeding and no
/// additional input, straight from the standard's pseudocode.
struct TextbookDrbg {
    k: [u8; 32],
    v: [u8; 32],
}

impl TextbookDrbg {
    /// `SecretRng::seeded(seed)`: the seed material is the seed's 8
    /// little-endian bytes.
    fn seeded(seed: u64) -> Self {
        let mut drbg = TextbookDrbg {
            k: [0x00; 32],
            v: [0x01; 32],
        };
        drbg.update(&seed.to_le_bytes());
        drbg
    }

    /// `HMAC_DRBG_Update(provided_data, K, V)`.
    fn update(&mut self, provided: &[u8]) {
        self.k = hmac_sha256(&self.k, &[&self.v[..], &[0x00], provided].concat());
        self.v = hmac_sha256(&self.k, &self.v);
        if provided.is_empty() {
            return;
        }
        self.k = hmac_sha256(&self.k, &[&self.v[..], &[0x01], provided].concat());
        self.v = hmac_sha256(&self.k, &self.v);
    }

    /// `HMAC_DRBG_Generate` of `len` bytes.
    fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 32);
        while out.len() < len {
            self.v = hmac_sha256(&self.k, &self.v);
            out.extend_from_slice(&self.v);
        }
        out.truncate(len);
        self.update(&[]);
        out
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.generate(8));
        u64::from_le_bytes(bytes)
    }

    /// `SecretRng::fork`: a generator seeded with the parent's next `u64`.
    fn fork(&mut self) -> Self {
        TextbookDrbg::seeded(self.next_u64())
    }
}

/// `SecretRng` and the textbook DRBG driven through the same random call
/// sequence: fills of 0..=100 bytes (across the 32-byte chunk boundary
/// several times), `next_u64`, `bytes::<N>` and `fork`, with each fork's
/// child drawn from too.
#[test]
fn secret_rng_matches_textbook_hmac_drbg() {
    for seed in [0u64, 1, 42, 3001, 0x5eed_0000_0000_0001, u64::MAX] {
        let mut g = Gen::new(seed ^ 0xd4b6);
        let mut rng = SecretRng::seeded(seed);
        let mut reference = TextbookDrbg::seeded(seed);
        for call in 0..400 {
            let case = format!("seed {seed}, call {call}");
            match g.usize_in(0, 5) {
                0 | 1 => {
                    let len = g.usize_in(0, 100);
                    let mut buf = vec![0u8; len];
                    rng.fill(&mut buf);
                    assert_eq!(buf, reference.generate(len), "fill({len}), {case}");
                }
                2 => assert_eq!(rng.next_u64(), reference.next_u64(), "next_u64, {case}"),
                3 => {
                    assert_eq!(rng.bytes::<1>().to_vec(), reference.generate(1), "{case}");
                    assert_eq!(rng.bytes::<32>().to_vec(), reference.generate(32), "{case}");
                }
                4 => {
                    assert_eq!(rng.bytes::<33>().to_vec(), reference.generate(33), "{case}");
                    assert_eq!(rng.bytes::<64>().to_vec(), reference.generate(64), "{case}");
                }
                _ => {
                    let mut child = rng.fork();
                    let mut reference_child = reference.fork();
                    let len = g.usize_in(0, 100);
                    let mut buf = vec![0u8; len];
                    child.fill(&mut buf);
                    assert_eq!(buf, reference_child.generate(len), "fork, {case}");
                    assert_eq!(child.next_u64(), reference_child.next_u64(), "fork, {case}");
                }
            }
        }
    }
}

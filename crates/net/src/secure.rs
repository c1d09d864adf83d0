//! A toy authenticated-encryption channel standing in for HTTPS.
//!
//! The Amnesia threat model needs exactly two channel behaviours: a
//! *protected* link hides plaintext from a passive wiretap, and a *broken*
//! link (compromised HTTPS, §IV-A) exposes it. Rather than a boolean flag,
//! this module implements a real (if simple) AE construction over the
//! crate's own primitives, so "breaking HTTPS" in the attack harness means
//! what it means in practice: the attacker obtains the channel key and
//! decrypts captured ciphertext.
//!
//! Construction (encrypt-then-MAC):
//!
//! * keys: `k_enc = HMAC-SHA-256(secret, "enc" ‖ role)`,
//!   `k_mac = HMAC-SHA-256(secret, "mac" ‖ role)`;
//! * confidentiality: SHA-256 in counter mode —
//!   `keystream_i = SHA-256(k_enc ‖ nonce ‖ i)`, the vault's construction
//!   ([`amnesia_crypto::aead::keystream_xor`]) with an 8-byte nonce, so each
//!   block is one compression;
//! * integrity: `tag = HMAC-SHA-256(k_mac, nonce ‖ ciphertext)`;
//! * replay: explicit 64-bit sequence numbers checked against a
//!   DTLS/QUIC-style sliding window ([`REPLAY_WINDOW`] nonces wide), so
//!   frames may arrive out of order but each nonce is accepted exactly
//!   once. Duplicates fail with [`ChannelError::Replayed`]; nonces that
//!   have slid below the window fail with [`ChannelError::TooOld`].
//!
//! This is **not** a production cipher; it is a faithful simulation substrate
//! (the paper's prototype likewise used a self-signed certificate).

use crate::network::EndpointId;
use amnesia_crypto::aead::keystream_xor;
use amnesia_crypto::{ct_eq, hmac_sha256, HmacKey, SecretRng, Sha256};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Errors from sealing or opening a message.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelError {
    /// The sealed message is too short to contain nonce and tag.
    Truncated {
        /// Actual length received.
        len: usize,
    },
    /// The authentication tag did not verify.
    BadTag,
    /// The nonce was already accepted once — a duplicate or replay.
    Replayed {
        /// The nonce carried by the rejected message.
        nonce: u64,
    },
    /// The nonce has slid below the anti-replay window and can no longer
    /// be proven fresh.
    TooOld {
        /// The nonce carried by the rejected message.
        nonce: u64,
        /// The lowest nonce still inside the receive window.
        window_start: u64,
    },
    /// The send nonce space is exhausted; the channel must be rekeyed.
    /// A nonce is never silently reused.
    Exhausted,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Truncated { len } => {
                write!(f, "sealed message too short ({len} bytes)")
            }
            ChannelError::BadTag => write!(f, "authentication tag mismatch"),
            ChannelError::Replayed { nonce } => {
                write!(f, "replayed nonce {nonce}")
            }
            ChannelError::TooOld {
                nonce,
                window_start,
            } => {
                write!(
                    f,
                    "nonce {nonce} below replay window (starts at {window_start})"
                )
            }
            ChannelError::Exhausted => {
                write!(f, "send nonce space exhausted; channel must be rekeyed")
            }
        }
    }
}

impl Error for ChannelError {}

const NONCE_LEN: usize = 8;
const TAG_LEN: usize = 32;

const WINDOW_WORDS: usize = 16;

/// Width of the receive anti-replay window in nonces.
///
/// Sized for the deployment's worst observed reordering: with 256 sessions
/// in flight, one direction of a shared link can carry ~512 frames whose
/// latency jitter spans the whole burst, so the DTLS minimum of 64 would
/// misclassify late-but-genuine frames as too old.
pub const REPLAY_WINDOW: u64 = (WINDOW_WORDS * 64) as u64;

/// Sliding anti-replay window: the highest authenticated nonce seen plus a
/// bitmap of the [`REPLAY_WINDOW`] nonces at and below it.
///
/// Bit `d` of the conceptual bitmap records whether nonce `top - d` has
/// been accepted; bit `d` lives in `bitmap[d / 64]` at position `d % 64`.
#[derive(Clone)]
struct ReplayWindow {
    top: u64,
    seen_any: bool,
    bitmap: [u64; WINDOW_WORDS],
}

impl ReplayWindow {
    fn new() -> Self {
        ReplayWindow {
            top: 0,
            seen_any: false,
            bitmap: [0; WINDOW_WORDS],
        }
    }

    /// The lowest nonce still inside the window.
    fn window_start(&self) -> u64 {
        self.top.saturating_sub(REPLAY_WINDOW - 1)
    }

    /// Slides the window up by `k` nonces (all recorded distances grow).
    fn shift_up(&mut self, k: u64) {
        if k >= REPLAY_WINDOW {
            self.bitmap = [0; WINDOW_WORDS];
            return;
        }
        let words = (k / 64) as usize;
        let bits = (k % 64) as u32;
        let mut next = [0u64; WINDOW_WORDS];
        for i in (0..WINDOW_WORDS).rev() {
            if i < words {
                continue;
            }
            let mut w = self.bitmap[i - words] << bits;
            if bits > 0 && i > words {
                w |= self.bitmap[i - words - 1] >> (64 - bits);
            }
            next[i] = w;
        }
        self.bitmap = next;
    }

    fn bit(&self, d: u64) -> bool {
        self.bitmap[(d / 64) as usize] & (1u64 << (d % 64)) != 0
    }

    fn set_bit(&mut self, d: u64) {
        self.bitmap[(d / 64) as usize] |= 1u64 << (d % 64);
    }

    /// Records an *authenticated* nonce, accepting it exactly once.
    ///
    /// Must only be called after the MAC verified: admission mutates the
    /// window, and a forgery must never be able to poison it.
    fn admit(&mut self, nonce: u64) -> Result<(), ChannelError> {
        if !self.seen_any {
            self.seen_any = true;
            self.top = nonce;
            self.bitmap = [0; WINDOW_WORDS];
            self.set_bit(0);
            return Ok(());
        }
        if nonce > self.top {
            self.shift_up(nonce - self.top);
            self.top = nonce;
            self.set_bit(0);
            return Ok(());
        }
        let d = self.top - nonce;
        if d >= REPLAY_WINDOW {
            return Err(ChannelError::TooOld {
                nonce,
                window_start: self.window_start(),
            });
        }
        if self.bit(d) {
            return Err(ChannelError::Replayed { nonce });
        }
        self.set_bit(d);
        Ok(())
    }
}

impl fmt::Debug for ReplayWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayWindow")
            .field("top", &self.top)
            .field("seen_any", &self.seen_any)
            .finish_non_exhaustive()
    }
}

/// One direction of a protected connection.
///
/// The sender calls [`seal`](SecureChannel::seal); the receiver holds a
/// channel constructed from the same secret and role and calls
/// [`open`](SecureChannel::open). For a bidirectional connection create two
/// channels with distinct roles (e.g. `"c2s"` and `"s2c"`). The receiver
/// tolerates arbitrary reordering within [`REPLAY_WINDOW`] nonces while
/// still accepting every nonce at most once.
///
/// ```
/// use amnesia_net::SecureChannel;
///
/// let mut tx = SecureChannel::new(b"session secret", "c2s");
/// let mut rx = SecureChannel::new(b"session secret", "c2s");
/// let wire = tx.seal(b"password request").unwrap();
/// assert_ne!(&wire[8..wire.len() - 32], b"password request".as_slice());
/// assert_eq!(rx.open(&wire).unwrap(), b"password request");
/// ```
#[derive(Clone)]
pub struct SecureChannel {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
    /// Precomputed HMAC midstates for `mac_key`: every frame restores two
    /// cached compression states instead of re-expanding the key, so the
    /// per-frame MAC cost no longer scales with key processing.
    mac: HmacKey<Sha256>,
    send_nonce: u64,
    recv_window: ReplayWindow,
}

impl fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureChannel")
            .field("send_nonce", &self.send_nonce)
            .field("recv_window", &self.recv_window)
            .finish_non_exhaustive()
    }
}

impl SecureChannel {
    /// Derives a channel from a shared secret and a direction label.
    pub fn new(shared_secret: &[u8], role: &str) -> Self {
        let enc_key = hmac_sha256(shared_secret, format!("enc\0{role}").as_bytes());
        let mac_key = hmac_sha256(shared_secret, format!("mac\0{role}").as_bytes());
        let mac = HmacKey::<Sha256>::new(&mac_key);
        SecureChannel {
            enc_key,
            mac_key,
            mac,
            send_nonce: 0,
            recv_window: ReplayWindow::new(),
        }
    }

    /// The raw channel keys — exists solely so the attack harness can model
    /// a "broken HTTPS" connection by stealing them.
    pub fn export_keys_for_attack_model(&self) -> ([u8; 32], [u8; 32]) {
        (self.enc_key, self.mac_key)
    }

    /// Encrypts and authenticates `plaintext`, producing
    /// `nonce ‖ ciphertext ‖ tag` in one buffer of that size: the
    /// plaintext is copied in once and encrypted in place.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Exhausted`] once the 64-bit nonce space is
    /// spent (`u64::MAX` itself is never issued): the channel must be
    /// rekeyed, a nonce is never reused under the same keys.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, ChannelError> {
        if self.send_nonce == u64::MAX {
            return Err(ChannelError::Exhausted);
        }
        let nonce = self.send_nonce.to_le_bytes();
        self.send_nonce += 1;

        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        keystream_xor(&self.enc_key, &nonce, &mut out[NONCE_LEN..]);
        let mut tag = [0u8; TAG_LEN];
        self.mac.mac_into(&out, &mut tag);
        out.extend_from_slice(&tag);
        Ok(out)
    }

    /// Verifies and decrypts a message produced by [`seal`](Self::seal)
    /// into a fresh buffer.
    ///
    /// Frames may arrive in any order; each nonce is accepted at most once,
    /// and only while it is within [`REPLAY_WINDOW`] of the highest nonce
    /// seen. The window is only advanced after the tag verifies, so forged
    /// frames cannot desynchronise it.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Truncated`] for undersized input,
    /// [`ChannelError::BadTag`] when authentication fails (any bit flip),
    /// [`ChannelError::Replayed`] when a nonce repeats, and
    /// [`ChannelError::TooOld`] when a nonce has slid below the window.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let (nonce, body) = self.authenticate(sealed)?;
        let mut plaintext = sealed[body].to_vec();
        keystream_xor(&self.enc_key, &nonce, &mut plaintext);
        Ok(plaintext)
    }

    /// [`open`](Self::open) without the copy: decrypts inside `sealed` and
    /// returns the plaintext, the part of `sealed` between nonce and tag.
    /// `sealed` is left as it was unless the message is admitted.
    ///
    /// # Errors
    ///
    /// Returns the [`open`](Self::open) errors.
    pub fn open_in_place<'a>(&mut self, sealed: &'a mut [u8]) -> Result<&'a [u8], ChannelError> {
        let (nonce, body) = self.authenticate(sealed)?;
        let plaintext = &mut sealed[body];
        keystream_xor(&self.enc_key, &nonce, plaintext);
        Ok(plaintext)
    }

    /// Verifies the tag of `sealed` and admits its nonce into the receive
    /// window, returning the nonce and the range of the ciphertext.
    fn authenticate(
        &mut self,
        sealed: &[u8],
    ) -> Result<([u8; NONCE_LEN], Range<usize>), ChannelError> {
        let len = sealed.len();
        if len < NONCE_LEN + TAG_LEN {
            return Err(ChannelError::Truncated { len });
        }
        let (body, tag) = sealed.split_at(len - TAG_LEN);
        let mut expected = [0u8; TAG_LEN];
        self.mac.mac_into(body, &mut expected);
        if !ct_eq(&expected, tag) {
            return Err(ChannelError::BadTag);
        }
        let nonce: [u8; NONCE_LEN] = body[..NONCE_LEN]
            .try_into()
            .map_err(|_| ChannelError::Truncated { len })?;
        self.recv_window.admit(u64::from_le_bytes(nonce))?;
        Ok((nonce, NONCE_LEN..body.len()))
    }

    /// Decrypts a captured message using stolen keys, bypassing replay
    /// state — the passive-attacker decryption path used by
    /// `amnesia-attacks` for the broken-HTTPS scenario.
    ///
    /// # Errors
    ///
    /// Returns the same tag/truncation errors as [`open`](Self::open).
    pub fn decrypt_with_stolen_keys(
        enc_key: &[u8; 32],
        mac_key: &[u8; 32],
        sealed: &[u8],
    ) -> Result<Vec<u8>, ChannelError> {
        if sealed.len() < NONCE_LEN + TAG_LEN {
            return Err(ChannelError::Truncated { len: sealed.len() });
        }
        let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        if !ct_eq(&hmac_sha256(mac_key, body), tag) {
            return Err(ChannelError::BadTag);
        }
        let nonce_bytes: [u8; NONCE_LEN] = body[..NONCE_LEN]
            .try_into()
            .map_err(|_| ChannelError::Truncated { len: sealed.len() })?;
        let mut plaintext = body[NONCE_LEN..].to_vec();
        keystream_xor(enc_key, &nonce_bytes, &mut plaintext);
        Ok(plaintext)
    }
}

/// The directed secure channels between a deployment's endpoints, keyed
/// `(from, to)` by endpoint id: what a session host seals and opens every
/// frame with.
///
/// A pair is provisioned once per browser or phone, as a stand-in for the
/// TLS handshake; traffic between two endpoints with no channel (the
/// rendezvous legs) passes through in the clear.
///
/// The channels live in a slab, one slot per direction, behind a hashed
/// index from `(from, to)` to a `u32` slot, so the buckets a doubling
/// leaves empty cost a few bytes each rather than a whole channel.
/// Re-provisioning a pair overwrites its two slots.
///
/// ```
/// use amnesia_crypto::SecretRng;
/// use amnesia_net::{ChannelMap, SimNet};
///
/// let mut net = SimNet::new(1);
/// let (browser, server) = (net.register("browser"), net.register("server"));
/// let mut channels = ChannelMap::default();
/// channels.provision_pair(browser, server, &mut SecretRng::seeded(2));
/// let mut wire = channels.seal(browser, server, b"hello").unwrap();
/// assert_ne!(wire, b"hello");
/// let plaintext = channels.open_in_place(browser, server, &mut wire).unwrap();
/// assert_eq!(plaintext, b"hello");
/// ```
#[derive(Default)]
pub struct ChannelMap {
    /// Hashed: nothing iterates it.
    slots: HashMap<(EndpointId, EndpointId), u32>,
    /// The slab `slots` indexes.
    channels: Vec<SecureChannel>,
}

impl fmt::Debug for ChannelMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelMap")
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl ChannelMap {
    /// Keys both directions between `a` and `b` from one fresh 32-byte
    /// secret drawn from `rng` (`a → b` is the `"fwd"` role, `b → a` the
    /// `"rev"` role), replacing any channels already there in their slots.
    ///
    /// # Panics
    ///
    /// Panics if a new pair would take a slot past `u32::MAX`.
    pub fn provision_pair(&mut self, a: EndpointId, b: EndpointId, rng: &mut SecretRng) {
        let secret = rng.bytes::<32>();
        self.put((a, b), SecureChannel::new(&secret, "fwd"));
        self.put((b, a), SecureChannel::new(&secret, "rev"));
    }

    /// Stores `channel` in the slot of `pair`, taking a new slot for a pair
    /// seen for the first time.
    fn put(&mut self, pair: (EndpointId, EndpointId), channel: SecureChannel) {
        if let Some(old) = self.channel_mut(pair) {
            *old = channel;
            return;
        }
        let slot = u32::try_from(self.channels.len());
        assert!(slot.is_ok(), "channel slots exhausted");
        self.slots.insert(pair, slot.unwrap_or(u32::MAX));
        self.channels.push(channel);
    }

    /// The slot of `pair`'s channel, if it has one.
    fn slot(&self, pair: (EndpointId, EndpointId)) -> Option<usize> {
        usize::try_from(*self.slots.get(&pair)?).ok()
    }

    fn channel_mut(&mut self, pair: (EndpointId, EndpointId)) -> Option<&mut SecureChannel> {
        let slot = self.slot(pair)?;
        self.channels.get_mut(slot)
    }

    /// The channel `from → to`, if one was provisioned.
    pub fn get(&self, from: EndpointId, to: EndpointId) -> Option<&SecureChannel> {
        self.channels.get(self.slot((from, to))?)
    }

    /// Seals `bytes` on the channel `from → to` into a frame of its own,
    /// or copies them unchanged when there is none: one allocation of the
    /// frame's exact size either way, so the caller can encode every
    /// message into one reused buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Exhausted`] when the channel's nonces are
    /// spent.
    pub fn seal(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ChannelError> {
        match self.channel_mut((from, to)) {
            Some(channel) => channel.seal(bytes),
            None => Ok(bytes.to_vec()),
        }
    }

    /// Opens `bytes` received on the channel `from → to` inside the
    /// buffer ([`SecureChannel::open_in_place`]), or returns them as they
    /// are when there is none.
    ///
    /// # Errors
    ///
    /// Returns the [`SecureChannel::open_in_place`] errors.
    pub fn open_in_place<'a>(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        bytes: &'a mut [u8],
    ) -> Result<&'a [u8], ChannelError> {
        match self.channel_mut((from, to)) {
            Some(channel) => channel.open_in_place(bytes),
            None => Ok(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecureChannel, SecureChannel) {
        (
            SecureChannel::new(b"secret", "c2s"),
            SecureChannel::new(b"secret", "c2s"),
        )
    }

    #[test]
    fn roundtrip() {
        let (mut tx, mut rx) = pair();
        for msg in [
            b"".as_slice(),
            b"a",
            b"exactly-32-bytes-of-plaintext!!!",
            &[0u8; 100],
        ] {
            let sealed = tx.seal(msg).unwrap();
            assert_eq!(rx.open(&sealed).unwrap(), msg);
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut tx, _) = pair();
        let msg = b"the generated password is hunter2";
        let sealed = tx.seal(msg).unwrap();
        let body = &sealed[NONCE_LEN..sealed.len() - TAG_LEN];
        assert_eq!(body.len(), msg.len());
        assert_ne!(body, msg.as_slice());
        // No window of the ciphertext equals the plaintext.
        assert!(!sealed.windows(msg.len()).any(|w| w == msg.as_slice()));
    }

    #[test]
    fn any_bitflip_is_rejected() {
        let (mut tx, _) = pair();
        let sealed = tx.seal(b"integrity matters").unwrap();
        for i in 0..sealed.len() {
            let mut forged = sealed.clone();
            forged[i] ^= 0x01;
            let mut rx = SecureChannel::new(b"secret", "c2s");
            assert_eq!(rx.open(&forged), Err(ChannelError::BadTag), "byte {i}");
        }
    }

    #[test]
    fn replay_is_rejected() {
        let (mut tx, mut rx) = pair();
        let sealed = tx.seal(b"one").unwrap();
        assert!(rx.open(&sealed).is_ok());
        assert_eq!(rx.open(&sealed), Err(ChannelError::Replayed { nonce: 0 }));
    }

    #[test]
    fn reordered_frames_are_accepted_exactly_once() {
        let (mut tx, mut rx) = pair();
        let first = tx.seal(b"first").unwrap();
        let second = tx.seal(b"second").unwrap();
        // Out-of-order delivery: both decrypt...
        assert_eq!(rx.open(&second).unwrap(), b"second");
        assert_eq!(rx.open(&first).unwrap(), b"first");
        // ...but a second copy of either is still a replay.
        assert_eq!(rx.open(&first), Err(ChannelError::Replayed { nonce: 0 }));
        assert_eq!(rx.open(&second), Err(ChannelError::Replayed { nonce: 1 }));
    }

    #[test]
    fn arbitrary_permutation_within_window_is_accepted() {
        let (mut tx, mut rx) = pair();
        let n = REPLAY_WINDOW as usize;
        let sealed: Vec<Vec<u8>> = (0..n)
            .map(|i| tx.seal(format!("frame {i}").as_bytes()).unwrap())
            .collect();
        // Deliver in a fixed scrambled order: all stride-7 residue classes,
        // descending within each — far from FIFO, within the window.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for r in 0..7 {
            order.extend((0..n).filter(|i| i % 7 == r).rev());
        }
        for i in order {
            assert_eq!(
                rx.open(&sealed[i]).unwrap(),
                format!("frame {i}").as_bytes(),
                "frame {i}"
            );
        }
    }

    #[test]
    fn nonce_below_window_is_too_old() {
        let (mut tx, mut rx) = pair();
        let first = tx.seal(b"early").unwrap();
        // Advance the window far past nonce 0.
        for _ in 0..REPLAY_WINDOW {
            let s = tx.seal(b"filler").unwrap();
            rx.open(&s).unwrap();
        }
        // Highest nonce seen is REPLAY_WINDOW; nonce 0 is out of reach.
        assert_eq!(
            rx.open(&first),
            Err(ChannelError::TooOld {
                nonce: 0,
                window_start: 1,
            })
        );
    }

    #[test]
    fn window_edge_is_inclusive() {
        let (mut tx, mut rx) = pair();
        let early: Vec<Vec<u8>> = (0..2).map(|_| tx.seal(b"early").unwrap()).collect();
        for _ in 2..REPLAY_WINDOW {
            let _ = tx.seal(b"skipped").unwrap();
        }
        let late = tx.seal(b"late").unwrap(); // nonce REPLAY_WINDOW
        rx.open(&late).unwrap();
        // Nonce 1 sits exactly at the oldest in-window slot; nonce 0 is out.
        assert_eq!(rx.open(&early[1]).unwrap(), b"early");
        assert!(matches!(
            rx.open(&early[0]),
            Err(ChannelError::TooOld { nonce: 0, .. })
        ));
    }

    #[test]
    fn forged_frames_do_not_advance_the_window() {
        let (mut tx, mut rx) = pair();
        // A forged frame claiming a huge nonce fails the MAC and must not
        // slide the window (which would orphan genuine in-flight frames).
        let mut forged = tx.seal(b"genuine tag base").unwrap();
        forged[..NONCE_LEN].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(rx.open(&forged), Err(ChannelError::BadTag));
        let genuine = tx.seal(b"still fresh").unwrap();
        assert_eq!(rx.open(&tx.seal(b"gap").unwrap()).unwrap(), b"gap");
        assert_eq!(rx.open(&genuine).unwrap(), b"still fresh");
    }

    #[test]
    fn send_nonce_exhaustion_is_a_typed_error_not_a_reuse() {
        let (mut tx, _) = pair();
        tx.send_nonce = u64::MAX - 1;
        // The penultimate nonce still seals...
        let last = tx.seal(b"last frame").unwrap();
        assert_eq!(last[..NONCE_LEN], (u64::MAX - 1).to_le_bytes());
        // ...then the channel is exhausted, repeatedly and without wrapping.
        assert_eq!(tx.seal(b"one too many"), Err(ChannelError::Exhausted));
        assert_eq!(tx.seal(b"still refused"), Err(ChannelError::Exhausted));
        assert_eq!(tx.send_nonce, u64::MAX);
    }

    #[test]
    fn max_nonce_frames_are_openable_if_ever_sealed_elsewhere() {
        // The receiver window itself handles nonces up to u64::MAX even
        // though our sender stops one short.
        let mut w = ReplayWindow::new();
        assert!(w.admit(u64::MAX).is_ok());
        assert_eq!(
            w.admit(u64::MAX),
            Err(ChannelError::Replayed { nonce: u64::MAX })
        );
        assert!(w.admit(u64::MAX - 1).is_ok());
        assert!(matches!(
            w.admit(u64::MAX - REPLAY_WINDOW),
            Err(ChannelError::TooOld { .. })
        ));
    }

    #[test]
    fn wrong_secret_or_role_fails() {
        let mut tx = SecureChannel::new(b"secret", "c2s");
        let sealed = tx.seal(b"msg").unwrap();
        let mut wrong_secret = SecureChannel::new(b"other", "c2s");
        assert_eq!(wrong_secret.open(&sealed), Err(ChannelError::BadTag));
        let mut wrong_role = SecureChannel::new(b"secret", "s2c");
        assert_eq!(wrong_role.open(&sealed), Err(ChannelError::BadTag));
    }

    #[test]
    fn truncated_rejected() {
        let mut rx = SecureChannel::new(b"secret", "c2s");
        assert_eq!(
            rx.open(&[0u8; 10]),
            Err(ChannelError::Truncated { len: 10 })
        );
    }

    #[test]
    fn stolen_keys_decrypt_wiretapped_ciphertext() {
        // The broken-HTTPS attack path: wiretap + stolen keys = plaintext.
        let (mut tx, _) = pair();
        let (enc, mac) = tx.export_keys_for_attack_model();
        let sealed = tx.seal(b"password: p4ss").unwrap();
        let plain = SecureChannel::decrypt_with_stolen_keys(&enc, &mac, &sealed).unwrap();
        assert_eq!(plain, b"password: p4ss");
    }

    /// Known answer for the wire bytes: the SHA-256 over eight successive
    /// seals (nonces 0 to 7) under a fixed secret and role. A round trip
    /// cannot see a keystream or tag change that `seal` and `open` share;
    /// this can. Computed once from this implementation and frozen.
    #[test]
    fn sealed_bytes_are_pinned() {
        let mut tx = SecureChannel::new(b"pinned channel secret", "fwd");
        let mut wire = Sha256::new();
        for len in [0usize, 1, 31, 32, 33, 64, 100, 300] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            wire.update(&tx.seal(&plaintext).unwrap());
        }
        assert_eq!(amnesia_crypto::hex::encode(&wire.finalize()), SEALED_KAT);
    }

    const SEALED_KAT: &str = "e06a14d0fc2b5232e8280d0e2835806665ac5d4c07ae11f829f9b24b73a6b225";

    #[test]
    fn distinct_messages_distinct_ciphertexts() {
        let (mut tx, _) = pair();
        let a = tx.seal(b"same plaintext").unwrap();
        let b = tx.seal(b"same plaintext").unwrap();
        assert_ne!(a, b, "nonce must vary the ciphertext");
    }

    #[test]
    fn channel_map_keys_each_direction_and_passes_unkeyed_pairs_through() {
        let mut net = crate::SimNet::new(1);
        let (a, b, c) = (net.register("a"), net.register("b"), net.register("c"));
        let mut channels = ChannelMap::default();
        channels.provision_pair(a, b, &mut SecretRng::seeded(3));
        let up = channels.seal(a, b, b"up").unwrap();
        let mut down = channels.seal(b, a, b"down").unwrap();
        assert_eq!(
            channels.open_in_place(b, a, &mut up.clone()),
            Err(ChannelError::BadTag)
        );
        assert_eq!(
            channels.open_in_place(a, b, &mut up.clone()).unwrap(),
            b"up"
        );
        assert_eq!(channels.open_in_place(b, a, &mut down).unwrap(), b"down");
        assert!(channels.get(a, c).is_none());
        assert_eq!(channels.seal(a, c, b"clear").unwrap(), b"clear");
        assert_eq!(
            channels
                .open_in_place(c, a, &mut b"clear".to_vec())
                .unwrap(),
            b"clear"
        );
    }

    #[test]
    fn reprovisioning_a_pair_replaces_both_directions_in_place() {
        let mut net = crate::SimNet::new(1);
        let (a, b, c) = (net.register("a"), net.register("b"), net.register("c"));
        let mut channels = ChannelMap::default();
        channels.provision_pair(a, b, &mut SecretRng::seeded(4));
        channels.provision_pair(a, c, &mut SecretRng::seeded(5));
        let old_up = channels.seal(a, b, b"old up").unwrap();
        let old_down = channels.seal(b, a, b"old down").unwrap();
        let old_keys = channels.get(a, b).unwrap().export_keys_for_attack_model();

        channels.provision_pair(a, b, &mut SecretRng::seeded(6));
        assert_eq!(channels.channels.len(), 4, "the slab grew");
        assert_eq!(channels.slots.len(), 4);
        assert_eq!(
            channels.open_in_place(a, b, &mut old_up.clone()),
            Err(ChannelError::BadTag)
        );
        assert_eq!(
            channels.open_in_place(b, a, &mut old_down.clone()),
            Err(ChannelError::BadTag)
        );

        // `get` hands out the new channels: fresh keys, no nonce spent yet.
        let up = channels.get(a, b).unwrap();
        assert_ne!(up.export_keys_for_attack_model(), old_keys);
        assert_eq!(up.send_nonce, 0);
        let mut wire = channels.seal(a, b, b"new up").unwrap();
        assert_eq!(wire[..NONCE_LEN], 0u64.to_le_bytes());
        assert_eq!(channels.open_in_place(a, b, &mut wire).unwrap(), b"new up");
        let mut wire = channels.seal(b, a, b"new down").unwrap();
        assert_eq!(
            channels.open_in_place(b, a, &mut wire).unwrap(),
            b"new down"
        );
        // The other pair keeps its slots and keys.
        let mut wire = channels.seal(a, c, b"side").unwrap();
        assert_eq!(channels.open_in_place(a, c, &mut wire).unwrap(), b"side");
    }

    #[test]
    fn debug_hides_keys() {
        let c = SecureChannel::new(b"secret", "x");
        let dbg = format!("{c:?}");
        assert!(!dbg.contains("enc_key"));
    }
}

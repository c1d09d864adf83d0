//! Read-back tests for drop-zeroization of the DRBG state.
//!
//! `amnesia-crypto` itself denies `unsafe` outside its two kernel dispatch
//! calls, so the raw-pointer inspection lives here, in an integration test
//! (a separate crate). The pattern: park the value in a [`ManuallyDrop`]
//! slot, run its destructor in place, then read the slot's bytes back
//! through a raw pointer with `read_volatile` — if the `Drop` impl (or the
//! optimizer) skipped the wipe, secret bytes survive in the dead slot and
//! the assertion fails. For `SecretRng` that covers `V` and both cached
//! midstates of `K`.

use amnesia_crypto::{zeroize, SecretRng};
use std::mem::ManuallyDrop;

/// Bytes of `v`'s storage without touching it.
fn raw_bytes<T>(v: &ManuallyDrop<T>) -> Vec<u8> {
    let p = (&**v) as *const T as *const u8;
    (0..std::mem::size_of::<T>())
        .map(|i| unsafe { p.add(i).read_volatile() })
        .collect()
}

/// Runs `v`'s destructor in place and returns the bytes left in the slot.
fn bytes_after_drop<T>(mut v: ManuallyDrop<T>) -> Vec<u8> {
    unsafe { ManuallyDrop::drop(&mut v) };
    raw_bytes(&v)
}

#[test]
fn drbg_state_is_wiped_on_drop() {
    let mut rng = SecretRng::seeded(7);
    let _ = rng.bytes::<32>(); // churn so K/V hold generated state
    let slot = ManuallyDrop::new(rng);
    let before = raw_bytes(&slot);
    assert!(
        before.iter().any(|&b| b != 0),
        "sanity: live DRBG state must be nonzero"
    );
    let after = bytes_after_drop(slot);
    assert!(
        after.iter().all(|&b| b == 0),
        "DRBG K/V state survived drop: {after:02x?}"
    );
}

#[test]
fn zeroize_survives_optimization() {
    // Same read-back discipline for the helper itself: after zeroize() the
    // buffer must be observably zero through a volatile read.
    let mut buf = [0x5Au8; 48];
    zeroize(&mut buf);
    let p = buf.as_ptr();
    for i in 0..buf.len() {
        assert_eq!(unsafe { p.add(i).read_volatile() }, 0, "byte {i} not wiped");
    }
}

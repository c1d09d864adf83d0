//! Typed errors for the crate's fallible operations.

use std::error::Error;
use std::fmt;

/// Errors from the key-derivation functions.
///
/// The crate's no-panic policy (DESIGN.md §8) requires hot-path functions to
/// return typed errors instead of asserting; this enum carries the cases a
/// caller can actually trigger with bad parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// PBKDF2 was invoked with an iteration count of zero; RFC 8018
    /// requires at least one iteration.
    ZeroIterations,
    /// scrypt `log2(N)` was zero or above
    /// [`MAX_LOG_N`](crate::scrypt::MAX_LOG_N).
    ScryptCostOutOfRange,
    /// scrypt block-size factor `r` was zero or above
    /// [`MAX_R`](crate::scrypt::MAX_R).
    ScryptBlockSizeOutOfRange,
    /// scrypt parallelization factor `p` was zero or above
    /// [`MAX_P`](crate::scrypt::MAX_P).
    ScryptParallelismOutOfRange,
    /// scrypt's working set per lane, `128·r·N` bytes, was above
    /// [`MAX_LANE_BYTES`](crate::scrypt::MAX_LANE_BYTES).
    ScryptMemoryOutOfRange,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::ZeroIterations => {
                write!(f, "PBKDF2 requires at least one iteration")
            }
            CryptoError::ScryptCostOutOfRange => {
                write!(f, "scrypt cost parameter log2(N) is out of range")
            }
            CryptoError::ScryptBlockSizeOutOfRange => {
                write!(f, "scrypt block-size factor r is out of range")
            }
            CryptoError::ScryptParallelismOutOfRange => {
                write!(f, "scrypt parallelization factor p is out of range")
            }
            CryptoError::ScryptMemoryOutOfRange => {
                write!(f, "scrypt working set 128*r*N per lane is out of range")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let msg = CryptoError::ZeroIterations.to_string();
        assert!(msg.contains("at least one iteration"));
    }
}

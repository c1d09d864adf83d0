//! Account identity types: username `µ`, domain `d`, and the account entry
//! `(µ, d, σ)` stored in the server-side secret `Ks`.

use crate::error::CoreError;
use crate::ids::Seed;
use amnesia_store::codec::{self, CodecError, Reader, Record};
use std::fmt;
use std::sync::Arc;

/// Why `name` cannot be one side of `µ ‖ d`: it is empty or holds the
/// `\0` separator.
fn name_fault(name: &str) -> Option<&'static str> {
    if name.is_empty() {
        Some("must not be empty")
    } else if name.contains('\0') {
        Some("must not contain NUL")
    } else {
        None
    }
}

/// The account username `µ`.
///
/// Usernames participate in `R = H(µ ‖ d ‖ σ)`. To keep the concatenation
/// injective (so `("ab", "c")` and `("a", "bc")` cannot collide) this type
/// rejects the `\0` separator byte the request derivation inserts, as well as
/// empty strings.
///
/// ```
/// use amnesia_core::Username;
/// let u = Username::new("alice")?;
/// assert_eq!(u.as_str(), "alice");
/// assert!(Username::new("").is_err());
/// # Ok::<(), amnesia_core::CoreError>(())
/// ```
///
/// The text is shared: a clone costs no allocation, so a name can ride
/// along every message and table that needs it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Username(Arc<str>);

impl Username {
    /// Validates and wraps a username.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidUsername`] if `name` is empty or contains
    /// a NUL byte.
    pub fn new(name: impl Into<String>) -> Result<Self, CoreError> {
        let name = name.into();
        match name_fault(&name) {
            None => Ok(Username(Arc::from(name))),
            Some(fault) => Err(CoreError::InvalidUsername {
                reason: format!("username {fault}"),
            }),
        }
    }

    /// The username as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Username {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Encoded as a `String`; decoding applies [`Username::new`]'s checks.
impl Record for Username {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::write_str(&self.0, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.str()?;
        match name_fault(name) {
            None => Ok(Username(Arc::from(name))),
            Some(_) => Err(CodecError::InvalidValue { what: "username" }),
        }
    }
}

/// The account domain `d`.
///
/// The paper: "The account domain can be anything (for example a URL) that
/// identifies a website or entity that the user has an account on." The same
/// injectivity restriction as [`Username`] applies.
///
/// ```
/// use amnesia_core::Domain;
/// let d = Domain::new("mail.google.com")?;
/// assert_eq!(d.to_string(), "mail.google.com");
/// # Ok::<(), amnesia_core::CoreError>(())
/// ```
///
/// Like [`Username`], the text is shared.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain(Arc<str>);

impl Domain {
    /// Validates and wraps a domain identifier.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDomain`] if `domain` is empty or contains
    /// a NUL byte.
    pub fn new(domain: impl Into<String>) -> Result<Self, CoreError> {
        let domain = domain.into();
        match name_fault(&domain) {
            None => Ok(Domain(Arc::from(domain))),
            Some(fault) => Err(CoreError::InvalidDomain {
                reason: format!("domain {fault}"),
            }),
        }
    }

    /// The domain as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Encoded as a `String`; decoding applies [`Domain::new`]'s checks.
impl Record for Domain {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::write_str(&self.0, out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let domain = r.str()?;
        match name_fault(domain) {
            None => Ok(Domain(Arc::from(domain))),
            Some(_) => Err(CodecError::InvalidValue { what: "domain" }),
        }
    }
}

/// One `(µ, d, σ)` entry of the server-side secret `Ks` (paper Table I).
///
/// The pair `(µ, d)` uniquely identifies a user account; `σ` is the
/// per-account seed.
///
/// ```
/// use amnesia_core::{AccountEntry, Domain, Seed, Username};
/// use amnesia_crypto::SecretRng;
/// let mut rng = SecretRng::seeded(3);
/// let entry = AccountEntry::new(
///     Username::new("Alice")?,
///     Domain::new("mail.google.com")?,
///     Seed::random(&mut rng),
/// );
/// assert_eq!(entry.username().as_str(), "Alice");
/// # Ok::<(), amnesia_core::CoreError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccountEntry {
    username: Username,
    domain: Domain,
    seed: Seed,
}
amnesia_store::record_struct! { AccountEntry { username, domain, seed } }

impl AccountEntry {
    /// Assembles an account entry.
    pub fn new(username: Username, domain: Domain, seed: Seed) -> Self {
        AccountEntry {
            username,
            domain,
            seed,
        }
    }

    /// The account username `µ`.
    pub fn username(&self) -> &Username {
        &self.username
    }

    /// The account domain `d`.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The per-account seed `σ`.
    pub fn seed(&self) -> &Seed {
        &self.seed
    }

    /// Replaces the seed with a specific value: a fresh `Seed::random` is
    /// the paper's password-change mechanism (§III-A2), and phone recovery
    /// installs regenerated credentials deterministically.
    pub fn with_seed(&self, seed: Seed) -> Self {
        AccountEntry {
            username: self.username.clone(),
            domain: self.domain.clone(),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_crypto::SecretRng;

    #[test]
    fn username_validation() {
        assert!(Username::new("alice").is_ok());
        assert!(Username::new("alice with spaces and ünïcode").is_ok());
        assert!(Username::new("").is_err());
        assert!(Username::new("a\0b").is_err());
    }

    #[test]
    fn domain_validation() {
        assert!(Domain::new("www.yahoo.com").is_ok());
        assert!(Domain::new("https://example.com/login?x=1").is_ok());
        assert!(Domain::new("").is_err());
        assert!(Domain::new("x\0y").is_err());
    }

    #[test]
    fn rotated_seed_preserves_identity() {
        let mut rng = SecretRng::seeded(11);
        let entry = AccountEntry::new(
            Username::new("bob").unwrap(),
            Domain::new("www.yahoo.com").unwrap(),
            Seed::random(&mut rng),
        );
        let rotated = entry.with_seed(Seed::random(&mut rng));
        assert_eq!(entry.username(), rotated.username());
        assert_eq!(entry.domain(), rotated.domain());
        assert_ne!(entry.seed(), rotated.seed());
    }

    #[test]
    fn with_seed_installs_exact_value() {
        let mut rng = SecretRng::seeded(12);
        let entry = AccountEntry::new(
            Username::new("bob").unwrap(),
            Domain::new("d.com").unwrap(),
            Seed::random(&mut rng),
        );
        let target = Seed::random(&mut rng);
        assert_eq!(entry.with_seed(target.clone()).seed(), &target);
    }

    #[test]
    fn names_encode_as_strings_and_decode_through_the_checks() {
        let name = Username::new("alice").unwrap();
        let bytes = codec::to_bytes(&name).unwrap();
        assert_eq!(bytes, codec::to_bytes(&String::from("alice")).unwrap());
        assert_eq!(codec::from_bytes::<Username>(&bytes).unwrap(), name);
        for bad in ["", "a\0b"] {
            let bytes = codec::to_bytes(&String::from(bad)).unwrap();
            assert_eq!(
                codec::from_bytes::<Username>(&bytes),
                Err(CodecError::InvalidValue { what: "username" })
            );
            assert_eq!(
                codec::from_bytes::<Domain>(&bytes),
                Err(CodecError::InvalidValue { what: "domain" })
            );
        }
    }

    #[test]
    fn clones_share_the_text() {
        let name = Username::new("alice").unwrap();
        let copy = name.clone();
        assert!(std::ptr::eq(name.as_str(), copy.as_str()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Username::new("u").unwrap().to_string(), "u");
        assert_eq!(Domain::new("d").unwrap().to_string(), "d");
    }
}

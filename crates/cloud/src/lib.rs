//! Simulated third-party cloud storage.
//!
//! Amnesia's phone-compromise recovery (paper §III-C1) relies on a one-time
//! backup of the phone-side secret `Kp = (Pid, TE)` to "a third-party cloud
//! provider such as Google Drive or Dropbox", trusted per the threat model.
//! This crate is the stand-in: per-user object buckets with upload /
//! download / delete, plus an availability switch for fault-injection tests
//! (what happens to recovery when the provider is down).
//!
//! # Example
//!
//! ```
//! use amnesia_cloud::CloudProvider;
//!
//! let mut drive = CloudProvider::new("sim-drive");
//! drive.upload("alice", "kp-backup", vec![1, 2, 3])?;
//! assert_eq!(drive.download("alice", "kp-backup")?, vec![1, 2, 3]);
//! # Ok::<(), amnesia_cloud::CloudError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors produced by the simulated provider.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CloudError {
    /// The provider is currently unreachable (fault injection).
    Unavailable {
        /// Provider name, for diagnostics.
        provider: String,
    },
    /// No object exists under the given user/key.
    NotFound {
        /// Object owner.
        user: String,
        /// Object key.
        key: String,
    },
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Unavailable { provider } => {
                write!(f, "cloud provider {provider:?} is unavailable")
            }
            CloudError::NotFound { user, key } => {
                write!(f, "no object {key:?} for user {user:?}")
            }
        }
    }
}

impl Error for CloudError {}

/// A simulated cloud storage provider with per-user object buckets.
///
/// The connection between phone and provider is assumed secure (paper §II),
/// so this type models storage semantics only; transport is out of scope.
#[derive(Clone, Debug)]
pub struct CloudProvider {
    name: String,
    objects: BTreeMap<(String, String), Vec<u8>>,
    available: bool,
    uploads: u64,
    downloads: u64,
}

impl CloudProvider {
    /// Creates an empty, available provider.
    pub fn new(name: impl Into<String>) -> Self {
        CloudProvider {
            name: name.into(),
            objects: BTreeMap::new(),
            available: true,
            uploads: 0,
            downloads: 0,
        }
    }

    /// The provider's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Toggles availability — fault injection for recovery tests.
    pub fn set_available(&mut self, available: bool) {
        self.available = available;
    }

    /// Whether the provider currently accepts requests.
    pub fn is_available(&self) -> bool {
        self.available
    }

    fn check_available(&self) -> Result<(), CloudError> {
        if self.available {
            Ok(())
        } else {
            Err(CloudError::Unavailable {
                provider: self.name.clone(),
            })
        }
    }

    /// Stores (or overwrites) an object, kept at its exact length: a
    /// buffer that grew by doubling while it was encoded gives back its
    /// spare capacity here rather than holding it for as long as the
    /// object lives.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Unavailable`] when faulted.
    pub fn upload(&mut self, user: &str, key: &str, mut bytes: Vec<u8>) -> Result<(), CloudError> {
        self.check_available()?;
        bytes.shrink_to_fit();
        self.objects
            .insert((user.to_string(), key.to_string()), bytes);
        self.uploads += 1;
        Ok(())
    }

    /// Fetches an object.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Unavailable`] when faulted or
    /// [`CloudError::NotFound`] for missing objects.
    pub fn download(&mut self, user: &str, key: &str) -> Result<Vec<u8>, CloudError> {
        self.check_available()?;
        let bytes = self
            .objects
            .get(&(user.to_string(), key.to_string()))
            .cloned()
            .ok_or_else(|| CloudError::NotFound {
                user: user.to_string(),
                key: key.to_string(),
            })?;
        self.downloads += 1;
        Ok(bytes)
    }

    /// Deletes an object; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Unavailable`] when faulted.
    pub fn delete(&mut self, user: &str, key: &str) -> Result<bool, CloudError> {
        self.check_available()?;
        Ok(self
            .objects
            .remove(&(user.to_string(), key.to_string()))
            .is_some())
    }

    /// Lists a user's object keys.
    pub fn list(&self, user: &str) -> Vec<String> {
        self.objects
            .keys()
            .filter(|(u, _)| u == user)
            .map(|(_, k)| k.clone())
            .collect()
    }

    /// Lifetime upload count.
    pub fn upload_count(&self) -> u64 {
        self.uploads
    }

    /// Lifetime download count.
    pub fn download_count(&self) -> u64 {
        self.downloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let mut c = CloudProvider::new("drive");
        c.upload("u", "k", vec![1, 2]).unwrap();
        assert_eq!(c.download("u", "k").unwrap(), vec![1, 2]);
        assert_eq!(c.upload_count(), 1);
        assert_eq!(c.download_count(), 1);
    }

    #[test]
    fn objects_are_kept_at_their_length() {
        let mut c = CloudProvider::new("drive");
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend_from_slice(&[7u8; 2100]);
        c.upload("u", "k", bytes).unwrap();
        let stored = c.objects.get(&("u".to_string(), "k".to_string())).unwrap();
        assert_eq!((stored.len(), stored.capacity()), (2100, 2100));
        assert_eq!(c.download("u", "k").unwrap(), vec![7u8; 2100]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut c = CloudProvider::new("drive");
        c.upload("u", "k", vec![1]).unwrap();
        c.upload("u", "k", vec![2]).unwrap();
        assert_eq!(c.download("u", "k").unwrap(), vec![2]);
    }

    #[test]
    fn missing_object_not_found() {
        let mut c = CloudProvider::new("drive");
        assert_eq!(
            c.download("u", "nope"),
            Err(CloudError::NotFound {
                user: "u".into(),
                key: "nope".into()
            })
        );
    }

    #[test]
    fn users_are_isolated() {
        let mut c = CloudProvider::new("drive");
        c.upload("alice", "k", vec![1]).unwrap();
        assert!(c.download("bob", "k").is_err());
        assert_eq!(c.list("alice"), vec!["k".to_string()]);
        assert!(c.list("bob").is_empty());
    }

    #[test]
    fn fault_injection_blocks_everything() {
        let mut c = CloudProvider::new("drive");
        c.upload("u", "k", vec![1]).unwrap();
        c.set_available(false);
        assert!(matches!(
            c.download("u", "k"),
            Err(CloudError::Unavailable { .. })
        ));
        assert!(matches!(
            c.upload("u", "k2", vec![2]),
            Err(CloudError::Unavailable { .. })
        ));
        assert!(matches!(
            c.delete("u", "k"),
            Err(CloudError::Unavailable { .. })
        ));
        c.set_available(true);
        assert_eq!(c.download("u", "k").unwrap(), vec![1]);
    }

    #[test]
    fn delete_reports_existence() {
        let mut c = CloudProvider::new("drive");
        c.upload("u", "k", vec![1]).unwrap();
        assert!(c.delete("u", "k").unwrap());
        assert!(!c.delete("u", "k").unwrap());
    }
}

//! The template function mapping the intermediate value `p` to a real
//! password (paper §III-B4), and the per-account password policy.

use crate::charset::{CharClass, CharacterTable};
use crate::error::CoreError;
use amnesia_store::codec::{CodecError, Reader, Record};
use std::fmt;

/// Number of 4-hex-digit segments in the 128-hex-digit intermediate value,
/// and therefore the maximum password length.
pub const MAX_PASSWORD_LEN: usize = 32;

/// Per-account password policy: character table plus target length.
///
/// Defaults reproduce the paper: full 94-character table, 32-character
/// output. Websites with restrictive rules get a narrowed table and/or a
/// shorter length; the extra template characters "are simply discarded".
///
/// ```
/// use amnesia_core::{CharClass, CharacterTable, PasswordPolicy};
///
/// let default = PasswordPolicy::default();
/// assert_eq!(default.length(), 32);
///
/// let constrained = PasswordPolicy::new(
///     CharacterTable::from_classes(&[CharClass::Lower, CharClass::Digit])?,
///     16,
/// )?;
/// assert_eq!(constrained.length(), 16);
/// # Ok::<(), amnesia_core::CoreError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PasswordPolicy {
    charset: CharacterTable,
    length: usize,
}

/// Fields in declaration order; decoding applies [`PasswordPolicy::new`]'s
/// checks, so a policy off the wire or out of a stored row can render.
impl Record for PasswordPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.charset.encode(out);
        self.length.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let charset = CharacterTable::decode(r)?;
        let length = usize::decode(r)?;
        PasswordPolicy::new(charset, length).map_err(|_| CodecError::InvalidValue {
            what: "password policy",
        })
    }
}

impl PasswordPolicy {
    /// Creates a policy with the given table and length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] if `length` is zero or exceeds
    /// [`MAX_PASSWORD_LEN`].
    pub fn new(charset: CharacterTable, length: usize) -> Result<Self, CoreError> {
        if length == 0 {
            return Err(CoreError::InvalidPolicy {
                reason: "password length must be at least 1".into(),
            });
        }
        if length > MAX_PASSWORD_LEN {
            return Err(CoreError::InvalidPolicy {
                reason: format!(
                    "password length {length} exceeds the {MAX_PASSWORD_LEN}-character template output"
                ),
            });
        }
        Ok(PasswordPolicy { charset, length })
    }

    /// The character table `Tc`.
    pub fn charset(&self) -> &CharacterTable {
        &self.charset
    }

    /// The target password length.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Applies the template function to the intermediate value `p`.
    ///
    /// The 128 hex digits of `p` split into 32 segments
    /// `g_i = p[4i : 4i+4]`; each selects `c_i = Tc[g_i mod Nc]`; the first
    /// `length` characters form the password.
    pub fn render(&self, p: &[u8; 64]) -> GeneratedPassword {
        let nc = self.charset.len();
        let mut out = String::with_capacity(self.length);
        for chunk in p.chunks_exact(2).take(self.length) {
            // Two bytes are exactly one 4-hex-digit segment, big-endian.
            let &[hi, lo] = chunk else {
                continue; // unreachable: chunks_exact(2) yields exact pairs
            };
            let g = u16::from_be_bytes([hi, lo]) as usize;
            // `g % nc < nc`, so the lookup always succeeds; `if let` keeps
            // the hot path panic-free all the same.
            if let Some(c) = self.charset.get(g % nc) {
                out.push(c);
            }
        }
        GeneratedPassword(out)
    }

    /// `log2` of the password space `Nc^length` this policy spans (§IV-E
    /// reports 94^32 ≈ 1.38 × 10^63 for the defaults).
    pub fn space_bits(&self) -> f64 {
        self.length as f64 * (self.charset.len() as f64).log2()
    }
}

impl Default for PasswordPolicy {
    /// The paper's defaults: 94-character table, 32-character password.
    fn default() -> Self {
        PasswordPolicy {
            charset: CharacterTable::full(),
            length: MAX_PASSWORD_LEN,
        }
    }
}

/// A generated website password `P = c0‖c1‖…`.
///
/// `Display` yields the password (the browser must autofill it); `Debug`
/// redacts it so passwords do not leak into logs.
///
/// ```
/// use amnesia_core::PasswordPolicy;
/// let p = PasswordPolicy::default().render(&[0u8; 64]);
/// assert_eq!(p.as_str().len(), 32);
/// assert_eq!(format!("{p:?}"), "GeneratedPassword(********)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct GeneratedPassword(String);
amnesia_store::record_tuple! { GeneratedPassword(password) }

impl GeneratedPassword {
    /// Wraps an existing password string.
    ///
    /// Used by the vault extension, where the value delivered to the browser
    /// is a user-*chosen* password recovered from bilaterally-encrypted
    /// storage rather than a template rendering.
    pub fn from_plaintext(password: impl Into<String>) -> Self {
        GeneratedPassword(password.into())
    }

    /// The password text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Password length in characters.
    pub fn len(&self) -> usize {
        self.0.chars().count()
    }

    /// Whether the password is empty (policies forbid zero length; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Counts characters per class — the quantity the §IV-E composition
    /// analysis averages.
    pub fn composition(&self) -> Composition {
        let mut comp = Composition::default();
        for c in self.0.chars() {
            match CharClass::of(c) {
                Some(CharClass::Lower) => comp.lower += 1,
                Some(CharClass::Upper) => comp.upper += 1,
                Some(CharClass::Digit) => comp.digit += 1,
                Some(CharClass::Special) => comp.special += 1,
                None => comp.other += 1,
            }
        }
        comp
    }
}

impl fmt::Display for GeneratedPassword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for GeneratedPassword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GeneratedPassword(********)")
    }
}

/// Character-class counts of a password (see
/// [`GeneratedPassword::composition`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Composition {
    /// Lowercase letters.
    pub lower: usize,
    /// Uppercase letters.
    pub upper: usize,
    /// Digits.
    pub digit: usize,
    /// Special characters.
    pub special: usize,
    /// Characters outside all classes (non-ASCII; zero for generated
    /// passwords).
    pub other: usize,
}

impl Composition {
    /// Total character count.
    pub fn total(&self) -> usize {
        self.lower + self.upper + self.digit + self.special + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_store::codec;

    #[test]
    fn decoded_policies_pass_the_constructor_checks() {
        let policy = PasswordPolicy::default();
        let bytes = codec::to_bytes(&policy).unwrap();
        assert_eq!(codec::from_bytes::<PasswordPolicy>(&bytes).unwrap(), policy);
        // An empty character table would divide by zero in `render`.
        let mut empty_table = Vec::new();
        Vec::<char>::new().encode(&mut empty_table);
        32usize.encode(&mut empty_table);
        assert_eq!(
            codec::from_bytes::<PasswordPolicy>(&empty_table),
            Err(CodecError::InvalidValue {
                what: "character table"
            })
        );
        let mut duplicate = Vec::new();
        vec!['a', 'a'].encode(&mut duplicate);
        assert!(codec::from_bytes::<CharacterTable>(&duplicate).is_err());
        for length in [0usize, MAX_PASSWORD_LEN + 1] {
            let mut bytes = Vec::new();
            CharacterTable::full().encode(&mut bytes);
            length.encode(&mut bytes);
            assert_eq!(
                codec::from_bytes::<PasswordPolicy>(&bytes),
                Err(CodecError::InvalidValue {
                    what: "password policy"
                })
            );
        }
    }

    fn p_bytes(fill: u8) -> [u8; 64] {
        [fill; 64]
    }

    #[test]
    fn default_policy_renders_32_chars_from_full_table() {
        let pw = PasswordPolicy::default().render(&p_bytes(0));
        assert_eq!(pw.len(), 32);
        // Segment 0x0000 % 94 = 0 → first table char 'a'.
        assert_eq!(pw.as_str(), "a".repeat(32));
    }

    #[test]
    fn render_matches_manual_segment_math() {
        let mut p = [0u8; 64];
        for (i, b) in p.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let policy = PasswordPolicy::default();
        let pw = policy.render(&p);
        let table = CharacterTable::full();
        let expected: String = p
            .chunks_exact(2)
            .map(|c| {
                let g = u16::from_be_bytes([c[0], c[1]]) as usize;
                table.get(g % 94).unwrap()
            })
            .collect();
        assert_eq!(pw.as_str(), expected);
    }

    #[test]
    fn truncation_discards_trailing_segments() {
        let policy = PasswordPolicy::new(CharacterTable::full(), 10).unwrap();
        let full = PasswordPolicy::default().render(&p_bytes(0x5a));
        let short = policy.render(&p_bytes(0x5a));
        assert_eq!(short.as_str(), &full.as_str()[..10]);
    }

    #[test]
    fn restricted_charset_is_respected() {
        let table = CharacterTable::from_classes(&[CharClass::Digit]).unwrap();
        let policy = PasswordPolicy::new(table, 32).unwrap();
        let pw = policy.render(&p_bytes(0xc4));
        assert!(pw.as_str().chars().all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn policy_length_validation() {
        assert!(PasswordPolicy::new(CharacterTable::full(), 0).is_err());
        assert!(PasswordPolicy::new(CharacterTable::full(), 33).is_err());
        assert!(PasswordPolicy::new(CharacterTable::full(), 1).is_ok());
        assert!(PasswordPolicy::new(CharacterTable::full(), 32).is_ok());
    }

    #[test]
    fn space_bits_matches_paper_defaults() {
        // 94^32 ≈ 1.38e63 ⇒ log2 ≈ 209.7 bits.
        let bits = PasswordPolicy::default().space_bits();
        assert!((bits - 32.0 * 94f64.log2()).abs() < 1e-9);
        assert!(bits > 209.0 && bits < 210.0);
    }

    #[test]
    fn composition_counts() {
        let pw = GeneratedPassword("aB3!aB3!".to_string());
        let c = pw.composition();
        assert_eq!(
            (c.lower, c.upper, c.digit, c.special, c.other),
            (2, 2, 2, 2, 0)
        );
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn debug_redacts() {
        let pw = PasswordPolicy::default().render(&p_bytes(1));
        assert!(!format!("{pw:?}").contains(pw.as_str()));
    }
}

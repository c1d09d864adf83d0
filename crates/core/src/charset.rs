//! The server's character table `Tc` (paper §III-B4).
//!
//! The default table holds `Nc = 94` characters — lowercase letters,
//! uppercase letters, digits, and special characters (all printable ASCII
//! except space). The table "can be adjusted per account by the user to adapt
//! to various website password policy", e.g. excluding special characters.

use crate::error::CoreError;
use amnesia_store::codec::{CodecError, Reader, Record};
use std::fmt;

/// The four character classes the paper's strength analysis counts (§IV-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CharClass {
    /// `a`–`z` (26 characters).
    Lower,
    /// `A`–`Z` (26 characters).
    Upper,
    /// `0`–`9` (10 characters).
    Digit,
    /// The 32 printable ASCII punctuation/symbol characters.
    Special,
}
amnesia_store::record_enum! { CharClass { 0 => Lower, 1 => Upper, 2 => Digit, 3 => Special } }

impl CharClass {
    /// All four classes in canonical order.
    pub const ALL: [CharClass; 4] = [
        CharClass::Lower,
        CharClass::Upper,
        CharClass::Digit,
        CharClass::Special,
    ];

    /// The characters belonging to this class, in table order.
    pub fn chars(self) -> &'static [u8] {
        match self {
            CharClass::Lower => b"abcdefghijklmnopqrstuvwxyz",
            CharClass::Upper => b"ABCDEFGHIJKLMNOPQRSTUVWXYZ",
            CharClass::Digit => b"0123456789",
            CharClass::Special => b"!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~",
        }
    }

    /// Classifies an ASCII character, if it belongs to any class.
    pub fn of(c: char) -> Option<CharClass> {
        match c {
            'a'..='z' => Some(CharClass::Lower),
            'A'..='Z' => Some(CharClass::Upper),
            '0'..='9' => Some(CharClass::Digit),
            c if c.is_ascii_graphic() => Some(CharClass::Special),
            _ => None,
        }
    }
}

impl fmt::Display for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CharClass::Lower => "lowercase",
            CharClass::Upper => "uppercase",
            CharClass::Digit => "digit",
            CharClass::Special => "special",
        };
        f.write_str(name)
    }
}

/// The ordered character table the template function indexes into.
///
/// ```
/// use amnesia_core::{CharClass, CharacterTable};
///
/// let full = CharacterTable::full();
/// assert_eq!(full.len(), 94);
///
/// // A site that forbids special characters:
/// let no_special =
///     CharacterTable::from_classes(&[CharClass::Lower, CharClass::Upper, CharClass::Digit])?;
/// assert_eq!(no_special.len(), 62);
/// # Ok::<(), amnesia_core::CoreError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CharacterTable {
    chars: Vec<char>,
}

/// Whether `chars` holds a character twice: one pass over a bitmap for
/// ASCII tables (every table a policy builds, and what a stored row or an
/// `AddAccount` frame decodes), a sorted copy when any character lies
/// outside ASCII.
fn repeats(chars: &[char]) -> bool {
    let mut seen = 0u128;
    for &c in chars {
        if !c.is_ascii() {
            let mut sorted = chars.to_vec();
            sorted.sort_unstable();
            return sorted.windows(2).any(|pair| pair.first() == pair.last());
        }
        let bit = 1u128 << u32::from(c);
        if seen & bit != 0 {
            return true;
        }
        seen |= bit;
    }
    false
}

/// Encoded as its `Vec<char>`; decoding applies
/// [`CharacterTable::custom`]'s checks (non-empty, no duplicates).
impl Record for CharacterTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.chars.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        CharacterTable::custom(Vec::<char>::decode(r)?).map_err(|_| CodecError::InvalidValue {
            what: "character table",
        })
    }
}

impl CharacterTable {
    /// The default full table: 26 lower + 26 upper + 10 digits + 32 special
    /// = 94 characters (`Nc = 94`).
    pub fn full() -> Self {
        // Built directly rather than through the fallible `from_classes`:
        // `CharClass::ALL` is a fixed, non-empty, duplicate-free constant.
        let mut chars = Vec::new();
        for class in CharClass::ALL {
            chars.extend(class.chars().iter().map(|&b| b as char));
        }
        CharacterTable { chars }
    }

    /// Builds a table from the union of the given classes, in class order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] if `classes` is empty.
    pub fn from_classes(classes: &[CharClass]) -> Result<Self, CoreError> {
        if classes.is_empty() {
            return Err(CoreError::InvalidPolicy {
                reason: "character table needs at least one class".into(),
            });
        }
        let mut chars = Vec::new();
        let mut seen = [false; 4];
        for &class in classes {
            let idx = class as usize;
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            chars.extend(class.chars().iter().map(|&b| b as char));
        }
        Ok(CharacterTable { chars })
    }

    /// Builds a table from an explicit character list (order matters, as the
    /// template indexes positions; duplicates are rejected because they
    /// would skew the output distribution).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] if `chars` is empty or contains
    /// duplicates.
    pub fn custom(chars: impl IntoIterator<Item = char>) -> Result<Self, CoreError> {
        let chars: Vec<char> = chars.into_iter().collect();
        if chars.is_empty() {
            return Err(CoreError::InvalidPolicy {
                reason: "character table must not be empty".into(),
            });
        }
        if repeats(&chars) {
            return Err(CoreError::InvalidPolicy {
                reason: "character table must not contain duplicates".into(),
            });
        }
        Ok(CharacterTable { chars })
    }

    /// Number of characters `Nc`.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Whether the table is empty (construction forbids this; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// The character at table position `index`.
    pub fn get(&self, index: usize) -> Option<char> {
        self.chars.get(index).copied()
    }

    /// Whether `c` appears in the table.
    pub fn contains(&self, c: char) -> bool {
        self.chars.contains(&c)
    }

    /// Iterates over the table's characters in order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, char>> {
        self.chars.iter().copied()
    }

    /// Number of table characters falling in `class` — used by the §IV-E
    /// expected-composition analysis.
    pub fn count_in_class(&self, class: CharClass) -> usize {
        self.chars
            .iter()
            .filter(|&&c| CharClass::of(c) == Some(class))
            .count()
    }
}

impl Default for CharacterTable {
    fn default() -> Self {
        CharacterTable::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_is_94_printable_ascii_minus_space() {
        let t = CharacterTable::full();
        assert_eq!(t.len(), 94);
        for c in 33u8..=126 {
            assert!(t.contains(c as char), "missing {:?}", c as char);
        }
        assert!(!t.contains(' '));
    }

    #[test]
    fn class_sizes() {
        assert_eq!(CharClass::Lower.chars().len(), 26);
        assert_eq!(CharClass::Upper.chars().len(), 26);
        assert_eq!(CharClass::Digit.chars().len(), 10);
        assert_eq!(CharClass::Special.chars().len(), 32);
    }

    #[test]
    fn classification_is_total_over_the_full_table() {
        for c in CharacterTable::full().iter() {
            assert!(CharClass::of(c).is_some(), "{c:?} unclassified");
        }
        assert_eq!(CharClass::of(' '), None);
        assert_eq!(CharClass::of('é'), None);
    }

    #[test]
    fn from_classes_deduplicates() {
        let t = CharacterTable::from_classes(&[CharClass::Digit, CharClass::Digit]).unwrap();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn from_classes_rejects_empty() {
        assert!(CharacterTable::from_classes(&[]).is_err());
    }

    #[test]
    fn custom_rejects_duplicates_and_empty() {
        assert!(CharacterTable::custom("aba".chars()).is_err());
        assert!(CharacterTable::custom("".chars()).is_err());
        assert!(CharacterTable::custom("abc".chars()).is_ok());
        // Both ends of the ASCII bitmap, and tables reaching past it.
        assert!(CharacterTable::custom("\0\x7f".chars()).is_ok());
        assert!(CharacterTable::custom("\x7fa\x7f".chars()).is_err());
        assert!(CharacterTable::custom("aäb".chars()).is_ok());
        assert!(CharacterTable::custom("äaä".chars()).is_err());
        assert!(CharacterTable::custom("aäa".chars()).is_err());
    }

    #[test]
    fn count_in_class_on_full_table() {
        let t = CharacterTable::full();
        assert_eq!(t.count_in_class(CharClass::Lower), 26);
        assert_eq!(t.count_in_class(CharClass::Upper), 26);
        assert_eq!(t.count_in_class(CharClass::Digit), 10);
        assert_eq!(t.count_in_class(CharClass::Special), 32);
    }
}

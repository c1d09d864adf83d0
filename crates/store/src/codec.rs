//! A compact, non-self-describing binary codec ("abin"), built on the
//! in-repo [`Record`] trait — no external serialization framework.
//!
//! This is the wire/disk format used by every persisted row and every
//! simulated network payload in the workspace. Encoding rules:
//!
//! * integers: fixed-width little-endian; collection lengths and enum
//!   variant indices as LEB128 varints;
//! * `bool`: one byte, `0` or `1`;
//! * `str`: varint length followed by the raw UTF-8 bytes;
//! * `Option`: one tag byte then the value if present;
//! * structs/tuples: fields in declaration order, no field names;
//! * enums: varint variant index then the payload;
//! * fixed byte arrays `[u8; N]`: the raw `N` bytes, no length prefix.
//!
//! The format is not self-describing, so decoding requires the same type
//! that encoded the value — exactly the property a typed table store needs,
//! and it keeps rows small.
//!
//! Types opt in by implementing [`Record`], usually via the
//! [`record_struct!`](crate::record_struct), [`record_tuple!`](crate::record_tuple)
//! and [`record_enum!`](crate::record_enum) helper macros:
//!
//! ```
//! #[derive(PartialEq, Debug)]
//! struct Row(String, u32);
//! amnesia_store::record_tuple! { Row(name, count) }
//!
//! # fn main() -> Result<(), amnesia_store::codec::CodecError> {
//! let bytes = amnesia_store::codec::to_bytes(&Row("x".into(), 7))?;
//! let row: Row = amnesia_store::codec::from_bytes(&bytes)?;
//! assert_eq!(row, Row("x".into(), 7));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors produced while encoding or decoding the binary format.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Decoding finished but input bytes remained.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A char code point was invalid.
    InvalidChar(u32),
    /// String bytes were not valid UTF-8.
    InvalidUtf8,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A length prefix was implausibly large for the remaining input.
    LengthOverflow {
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum variant index had no corresponding variant.
    InvalidVariant(u64),
    /// The bytes decode to a value its type's constructor rejects (an
    /// empty username, a password policy with no characters).
    InvalidValue {
        /// What the value was meant to be.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::InvalidBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            CodecError::InvalidChar(c) => write!(f, "invalid char code point {c:#x}"),
            CodecError::InvalidUtf8 => write!(f, "string bytes are not valid UTF-8"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::LengthOverflow {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds remaining input {remaining}"
            ),
            CodecError::InvalidVariant(idx) => write!(f, "unknown enum variant index {idx}"),
            CodecError::InvalidValue { what } => write!(f, "decoded {what} fails validation"),
        }
    }
}

impl Error for CodecError {}

/// A value encodable to and decodable from the abin byte format.
///
/// Implementations must be lossless and deterministic: `decode(encode(v))`
/// yields a value equal to `v`, and equal values encode to identical bytes
/// (the checksummed snapshots depend on this).
pub trait Record: Sized {
    /// Appends this value's encoding to `out`. Encoding is infallible.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Serializes `value` into the compact binary format.
///
/// # Errors
///
/// Encoding itself cannot fail; the `Result` is kept so call sites share one
/// error-handling shape with [`from_bytes`].
pub fn to_bytes<T: Record>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Deserializes a value previously produced by [`to_bytes`].
///
/// # Errors
///
/// Fails on malformed input, type mismatches, or trailing bytes.
pub fn from_bytes<T: Record>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader { input: bytes };
    let value = T::decode(&mut r)?;
    if !r.input.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: r.input.len(),
        });
    }
    Ok(value)
}

/// Appends `s` to `out` as a `str`: varint length, then the UTF-8 bytes.
pub fn write_str(s: &str, out: &mut Vec<u8>) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed byte string — the encoding of a `Vec<u8>` —
/// whose bytes `write` appends to `out`, so a nested value is encoded in
/// place rather than into a buffer of its own first. The varint prefix
/// is written after the bytes it counts and moved in front of them.
pub fn write_nested(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    write(out);
    let len = out.len() - start;
    write_varint(len as u64, out);
    let width = out.len() - start - len;
    out[start..].rotate_right(width);
}

/// Appends `v` to `out` as a LEB128 varint.
pub fn write_varint(v: u64, out: &mut Vec<u8>) {
    let mut v = v;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over the bytes being decoded.
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `bytes` for decoding. Most callers want [`from_bytes`], which
    /// additionally rejects trailing input.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { input: bytes }
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// Consumes the next `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on short input.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::UnexpectedEof)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::VarintOverflow`] past 64 bits, or EOF.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 {
                return Err(CodecError::VarintOverflow);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a `str` (varint length, then UTF-8 bytes) without copying it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidUtf8`] for bytes that are not UTF-8,
    /// or the [`length`](Self::length) errors.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.length()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a varint length prefix and sanity-checks it against the
    /// remaining input, so hostile prefixes fail fast instead of driving a
    /// huge allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::LengthOverflow`] for implausible lengths.
    pub fn length(&mut self) -> Result<usize, CodecError> {
        let declared = self.varint()?;
        if declared > self.input.len() as u64 {
            return Err(CodecError::LengthOverflow {
                declared,
                remaining: self.input.len(),
            });
        }
        Ok(declared as usize)
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_record_le {
    ($($ty:ty),+) => {
        $(
            impl Record for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(<$ty>::from_le_bytes(r.take_array()?))
                }
            }
        )+
    };
}

impl_record_le!(i8, i16, i32, i64, i128, u16, u32, u64, u128, f32, f64);

impl Record for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
}

impl Record for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::InvalidBool(b)),
        }
    }
}

// `usize` travels as u64 so 32- and 64-bit encodings agree.
impl Record for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::LengthOverflow {
            declared: v,
            remaining: r.remaining(),
        })
    }
}

impl Record for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let code = u32::decode(r)?;
        char::from_u32(code).ok_or(CodecError::InvalidChar(code))
    }
}

impl Record for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Record for String {
    fn encode(&self, out: &mut Vec<u8>) {
        write_str(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.str().map(str::to_owned)
    }
}

// Shared text: the same bytes as `String`, and a clone costs no allocation.
impl Record for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_str(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.str().map(Arc::from)
    }
}

impl<const N: usize> Record for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_array()
    }
}

impl<T: Record> Record for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.length()?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Record> Record for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(CodecError::InvalidBool(b)),
        }
    }
}

impl<T: Record> Record for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<K: Record + Ord, V: Record> Record for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.len() as u64, out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.length()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! impl_record_tuple {
    ($(($($t:ident . $idx:tt),+))+) => {
        $(
            impl<$($t: Record),+> Record for ($($t,)+) {
                fn encode(&self, out: &mut Vec<u8>) {
                    $( self.$idx.encode(out); )+
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(($($t::decode(r)?,)+))
                }
            }
        )+
    };
}

impl_record_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// Derive-style helper macros
// ---------------------------------------------------------------------------

/// Implements [`Record`](crate::codec::Record) for a struct with named
/// fields, encoding the listed fields in order.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// struct Point { x: f64, y: f64 }
/// amnesia_store::record_struct! { Point { x, y } }
///
/// let bytes = amnesia_store::codec::to_bytes(&Point { x: 1.0, y: -2.0 }).unwrap();
/// assert_eq!(bytes.len(), 16);
/// ```
#[macro_export]
macro_rules! record_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Record for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Record::encode(&self.$field, out); )+
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name {
                    $( $field: $crate::codec::Record::decode(r)?, )+
                })
            }
        }
    };
}

/// Implements [`Record`](crate::codec::Record) for a tuple struct; the
/// identifiers are binders naming each positional field.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// struct Pair(u8, String);
/// amnesia_store::record_tuple! { Pair(a, b) }
/// ```
#[macro_export]
macro_rules! record_tuple {
    ($name:ident ( $($field:ident),+ $(,)? )) => {
        impl $crate::codec::Record for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                let $name($($field),+) = self;
                $( $crate::codec::Record::encode($field, out); )+
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name($( $crate::__record_decode_one!(r, $field) ),+))
            }
        }
    };
}

/// Implements [`Record`](crate::codec::Record) for an enum. Each variant is
/// listed with an explicit wire index (documenting the format and keeping it
/// stable under reordering), and tuple/struct payload fields are named as
/// binders.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// enum Shape {
///     Unit,
///     Newtype(u64),
///     Tuple(i8, String),
///     Struct { x: f64, y: f64 },
/// }
/// amnesia_store::record_enum! { Shape {
///     0 => Unit,
///     1 => Newtype(v),
///     2 => Tuple(a, b),
///     3 => Struct { x, y },
/// } }
/// ```
#[macro_export]
macro_rules! record_enum {
    ($name:ident {
        $(
            $idx:literal => $variant:ident
                $( ( $($tfield:ident),+ $(,)? ) )?
                $( { $($sfield:ident),+ $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $crate::codec::Record for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $name::$variant
                            $( ( $($tfield),+ ) )?
                            $( { $($sfield),+ } )?
                        => {
                            $crate::codec::write_varint($idx as u64, out);
                            $( $( $crate::codec::Record::encode($tfield, out); )+ )?
                            $( $( $crate::codec::Record::encode($sfield, out); )+ )?
                        }
                    )+
                }
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match r.varint()? {
                    $(
                        $idx => Ok($name::$variant
                            $( ( $( $crate::__record_decode_one!(r, $tfield) ),+ ) )?
                            $( { $( $sfield: $crate::codec::Record::decode(r)? ),+ } )?
                        ),
                    )+
                    other => Err($crate::codec::CodecError::InvalidVariant(other)),
                }
            }
        }
    };
}

/// Internal: expands to one decode call per ignored field binder.
#[doc(hidden)]
#[macro_export]
macro_rules! __record_decode_one {
    ($r:ident, $field:ident) => {
        $crate::codec::Record::decode($r)?
    };
}

// `amnesia_crypto::KdfPolicy` crosses the store boundary inside
// policy-tagged verifier records. The wire form lives here because this
// crate owns `Record` (coherence forbids implementing it downstream):
// variant 0 is `Cpu`, 1 is `MemoryHard`, payload fields in declaration
// order. Versioning of the *surrounding* verifier record (legacy
// bare-iterations rows) is handled by the record's own encoding in
// `amnesia-server`; this impl only defines the policy payload.
use amnesia_crypto::KdfPolicy;
crate::record_enum! { KdfPolicy {
    0 => Cpu { iterations },
    1 => MemoryHard { log_n, r, p },
} }

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Record + PartialEq + fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[derive(PartialEq, Debug)]
    struct Nested {
        name: String,
        tags: Vec<u32>,
        blob: Vec<u8>,
        maybe: Option<Box<Nested>>,
    }
    crate::record_struct! { Nested { name, tags, blob, maybe } }

    #[derive(PartialEq, Debug)]
    enum Shape {
        Unit,
        Newtype(u64),
        Tuple(i8, String),
        Struct { x: f64, y: f64 },
    }
    crate::record_enum! { Shape {
        0 => Unit,
        1 => Newtype(v),
        2 => Tuple(a, b),
        3 => Struct { x, y },
    } }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(i128::MIN);
        roundtrip(u128::MAX);
        roundtrip(3.5f32);
        roundtrip(-0.25f64);
        roundtrip('λ');
        roundtrip(String::from("héllo"));
        roundtrip(Option::<u32>::None);
        roundtrip(Some(9u32));
        roundtrip(());
        roundtrip(usize::MAX);
        roundtrip([0xabu8; 17]);
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), 1u8);
        map.insert("b".to_string(), 2u8);
        roundtrip(map);
        roundtrip((1u8, "two".to_string(), 3.0f64));
    }

    #[test]
    fn nested_struct_roundtrip() {
        roundtrip(Nested {
            name: "outer".into(),
            tags: vec![7, 8],
            blob: vec![0, 255, 1],
            maybe: Some(Box::new(Nested {
                name: "inner".into(),
                tags: vec![],
                blob: vec![],
                maybe: None,
            })),
        });
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(Shape::Unit);
        roundtrip(Shape::Newtype(42));
        roundtrip(Shape::Tuple(-3, "t".into()));
        roundtrip(Shape::Struct { x: 1.0, y: -2.0 });
    }

    #[test]
    fn kdf_policy_roundtrip_and_wire_format() {
        roundtrip(KdfPolicy::Cpu { iterations: 1 });
        roundtrip(KdfPolicy::PAPER);
        for (_, rung) in KdfPolicy::ladder() {
            roundtrip(rung);
        }
        // Pinned wire form: variant index, then fields little-endian.
        assert_eq!(
            to_bytes(&KdfPolicy::Cpu { iterations: 7 }).unwrap(),
            vec![0, 7, 0, 0, 0]
        );
        assert_eq!(
            to_bytes(&KdfPolicy::MemoryHard {
                log_n: 15,
                r: 8,
                p: 2
            })
            .unwrap(),
            vec![1, 15, 8, 0, 0, 0, 2, 0, 0, 0]
        );
    }

    #[test]
    fn enum_wire_index_is_explicit() {
        // The macro's explicit indices are the wire format.
        assert_eq!(to_bytes(&Shape::Unit).unwrap(), vec![0]);
        assert_eq!(to_bytes(&Shape::Newtype(1)).unwrap()[0], 1);
        let r: Result<Shape, _> = from_bytes(&[9]);
        assert_eq!(r, Err(CodecError::InvalidVariant(9)));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0usize, 127, 128, 16383, 16384, 1 << 20] {
            roundtrip(vec![0u8; v % 1000]); // length prefix exercises varint
            roundtrip(v as u64);
        }
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = to_bytes(&String::from("hello")).unwrap();
        for cut in 0..bytes.len() {
            let r: Result<String, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u8).unwrap();
        bytes.push(0);
        let r: Result<u8, _> = from_bytes(&bytes);
        assert_eq!(r, Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool, _> = from_bytes(&[2]);
        assert_eq!(r, Err(CodecError::InvalidBool(2)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Length 2, bytes [0xff, 0xff] — invalid UTF-8.
        let r: Result<String, _> = from_bytes(&[2, 0xff, 0xff]);
        assert_eq!(r, Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Declares 2^62 elements with 1 byte of payload: must fail fast,
        // not attempt allocation.
        let mut bytes = Vec::new();
        write_varint(1 << 62, &mut bytes);
        bytes.push(0);
        let r: Result<Vec<u8>, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn encoding_is_compact() {
        // A struct of small values stays small: no field names stored.
        let bytes = to_bytes(&(1u8, 2u8, 3u8)).unwrap();
        assert_eq!(bytes.len(), 3);
        let bytes = to_bytes(&String::from("abc")).unwrap();
        assert_eq!(bytes.len(), 4); // 1 length byte + 3 payload
    }

    #[test]
    fn shared_text_encodes_like_a_string() {
        let shared: Arc<str> = Arc::from("héllo");
        assert_eq!(
            to_bytes(&shared).unwrap(),
            to_bytes(&String::from("héllo")).unwrap()
        );
        roundtrip(shared);
        let mut r = Reader::new(&[3, b'a', b'b', b'c', 9]);
        assert_eq!(r.str(), Ok("abc"));
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn nested_writes_equal_an_encoded_byte_vector() {
        // Lengths on both sides of a varint width step (127 | 128 bytes).
        for len in [0usize, 1, 127, 128, 300] {
            let inner: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut out = vec![0xee];
            write_nested(&mut out, |out| out.extend_from_slice(&inner));
            let mut expected = vec![0xee];
            inner.encode(&mut expected);
            assert_eq!(out, expected, "len {len}");
        }
    }

    #[test]
    fn fixed_arrays_have_no_length_prefix() {
        assert_eq!(to_bytes(&[7u8; 32]).unwrap().len(), 32);
    }

    #[test]
    fn deterministic_encoding() {
        let v = Shape::Struct { x: 0.5, y: 0.5 };
        assert_eq!(to_bytes(&v).unwrap(), to_bytes(&v).unwrap());
    }
}

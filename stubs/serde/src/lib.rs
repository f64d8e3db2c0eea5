//! Offline stub of the `serde` crate.
//!
//! Real serde abstracts over data formats with `Serializer`/`Deserializer`
//! visitors; this workspace only ever serialises to and from JSON via
//! `serde_json`, so the stub collapses the abstraction to a single
//! in-memory [`Value`] tree. [`Serialize`] renders a type into a `Value`,
//! [`Deserialize`] rebuilds the type from one, and the `serde_json` stub
//! handles text. The derive macros (re-exported from `serde_derive`)
//! generate real field-by-field implementations, so round-trips are
//! lossless for every type in this repository.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// In-memory JSON-shaped value: the single interchange format of the stub.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction or exponent).
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object, insertion-ordered.
    Map(Vec<(String, Value)>),
}

/// Error produced during (de)serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Self {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Short type tag for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }

    /// Looks up a struct field in an object value.
    pub fn get_field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Err(Error::custom(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// Decomposes an externally-tagged enum value into `(variant, payload)`.
    ///
    /// `"Name"` is a unit variant; `{"Name": payload}` carries data.
    pub fn variant(&self) -> Result<(&str, Option<&Value>), Error> {
        match self {
            Value::Str(name) => Ok((name, None)),
            Value::Map(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), Some(&entries[0].1)))
            }
            other => Err(Error::custom(format!(
                "expected enum variant (string or single-key object), found {}",
                other.kind()
            ))),
        }
    }

    /// Views the value as an array.
    pub fn as_seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) => Ok(items),
            other => Err(Error::custom(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` to the interchange value.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
///
/// The lifetime parameter mirrors real serde's `Deserialize<'de>` so that
/// derive output and trait bounds written against upstream serde compile
/// unchanged; the stub never borrows from the input.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds `Self` from the interchange value.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Any JSON document, untyped (upstream's `serde_json::Value`).
impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

/// Convenience alias matching serde's owned-deserialisation bound.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! unsigned_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

unsigned_impl!(u8, u16, u32, u64, usize);

macro_rules! signed_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error::custom(format!("{u} out of range for i64")))?,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

signed_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            // serde_json maps non-finite floats to null; accept it back as NaN.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::custom(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // Widening f32 -> f64 is exact, so the round-trip is lossless.
        Value::Float(f64::from(*self))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_seq()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! tuple_impl {
    ($len:expr => $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_seq()?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected {}-tuple, found array of {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    };
}

tuple_impl!(1 => A.0);
tuple_impl!(2 => A.0, B.1);
tuple_impl!(3 => A.0, B.1, C.2);
tuple_impl!(4 => A.0, B.1, C.2, D.3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f32::from_value(&0.1f32.to_value()).unwrap(), 0.1f32);
        assert_eq!(
            Option::<usize>::from_value(&None::<usize>.to_value()).unwrap(),
            None
        );
        let v: Vec<(f32, bool)> = vec![(1.5, true), (-2.0, false)];
        let back: Vec<(f32, bool)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn field_lookup_and_variants() {
        let obj = Value::Map(vec![("a".into(), Value::Int(1))]);
        assert_eq!(obj.get_field("a").unwrap(), &Value::Int(1));
        assert!(obj.get_field("b").is_err());

        let unit = Value::Str("Up".into());
        assert_eq!(unit.variant().unwrap(), ("Up", None));
        let tagged = Value::Map(vec![("Down".into(), Value::Int(3))]);
        assert_eq!(tagged.variant().unwrap(), ("Down", Some(&Value::Int(3))));
    }
}

//! Offline stand-in for `serde`.
//!
//! The real crates.io `serde` is unavailable in this build environment, so
//! this crate provides the subset of its API the workspace uses, built
//! around a concrete JSON-like value tree instead of serde's visitor
//! machinery:
//!
//! * [`Serialize`] / [`Deserialize`] traits (`derive` re-exported from the
//!   companion proc-macro crate `serde_derive`),
//! * a [`Value`] data model ([`Number`], [`Map`]) shared with the
//!   `serde_json` stand-in,
//! * impls for the primitive, container, and tuple types the workspace
//!   serializes.
//!
//! Fidelity goal: self-consistent round-trips (`to_string` → `from_str`
//! reproduces the value exactly, including i64/u64 beyond 2^53 and f32/f64
//! bit patterns) — not wire compatibility with upstream serde.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

// ================= data model =================

/// A JSON-like value tree: the serialization target for every type.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// A JSON number: integer, unsigned, or float, kept lossless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    I(i64),
    U(u64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I(i) => i as f64,
            Number::U(u) => u as f64,
            Number::F(f) => f,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::I(i) => Some(i),
            Number::U(u) => i64::try_from(u).ok(),
            Number::F(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(f as i64),
            Number::F(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::I(i) => u64::try_from(i).ok(),
            Number::U(u) => Some(u),
            Number::F(f) if f.fract() == 0.0 && (0.0..1.8e19).contains(&f) => Some(f as u64),
            Number::F(_) => None,
        }
    }
}

/// An ordered string-keyed map (JSON object). Insertion order preserved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map {
            entries: Vec::new(),
        }
    }

    /// Insert, replacing any existing entry with the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Append an entry whose key is not in the map yet (the keys of a
    /// `HashMap` or `BTreeMap` being serialized), without `insert`'s scan
    /// over every existing key.
    pub(crate) fn append_new(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The sole entry of a single-key object (how enums are encoded).
    pub fn single(&self) -> Option<(&str, &Value)> {
        match self.entries.as_slice() {
            [(k, v)] => Some((k.as_str(), v)),
            _ => None,
        }
    }
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

// ================= conversions =================

macro_rules! value_from {
    ($($t:ty => $body:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                #[allow(clippy::redundant_closure_call)]
                ($body)(v)
            }
        }
    )*};
}

value_from! {
    bool => Value::Bool,
    i32 => |v: i32| Value::Number(Number::I(v as i64)),
    i64 => |v| Value::Number(Number::I(v)),
    u32 => |v: u32| Value::Number(Number::U(v as u64)),
    u64 => |v| Value::Number(Number::U(v)),
    usize => |v: usize| Value::Number(Number::U(v as u64)),
    f32 => |v: f32| Value::Number(Number::F(v as f64)),
    f64 => |v| Value::Number(Number::F(v)),
    String => Value::String,
    &str => |v: &str| Value::String(v.to_string()),
    Vec<Value> => Value::Array,
    Map => Value::Object,
}

// ================= error =================

/// Serialization / deserialization error (shared with `serde_json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

// ================= traits =================

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    fn serialize_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

/// Helper used by derived code: fetch a struct field (missing → Null, so
/// `Option` fields default to `None`).
pub fn field<'v>(m: &'v Map, name: &str) -> &'v Value {
    static NULL: Value = Value::Null;
    m.get(name).unwrap_or(&NULL)
}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, Error> {
    Err(Error::custom(format!("expected {expected}, got {got:?}")))
}

// ================= primitive impls =================

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().map_or_else(|| type_err("bool", v), Ok)
    }
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(Number::I(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match v.as_i64() {
                    Some(i) => <$t>::try_from(i)
                        .map_err(|_| Error::custom(format!("{i} out of range"))),
                    None => type_err("integer", v),
                }
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, isize);

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match v.as_u64() {
                    Some(u) => <$t>::try_from(u)
                        .map_err(|_| Error::custom(format!("{u} out of range"))),
                    None => type_err("unsigned integer", v),
                }
            }
        }
    )*};
}

uint_impl!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Number(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            // Non-finite floats serialize as null (JSON has no NaN).
            Value::Null => Ok(f64::NAN),
            _ => type_err("number", v),
        }
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        // f32 → f64 is exact, so the round-trip back to f32 is exact too.
        Value::Number(Number::F(*self as f64))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        f64::deserialize_value(v).map(|f| f as f32)
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v.as_str().and_then(|s| {
            let mut it = s.chars();
            match (it.next(), it.next()) {
                (Some(c), None) => Some(c),
                _ => None,
            }
        }) {
            Some(c) => Ok(c),
            None => type_err("single-char string", v),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map_or_else(|| type_err("string", v), |s| Ok(s.to_string()))
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

// ================= container impls =================

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        T::deserialize_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.serialize_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        self.as_slice().serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some(items) => items.iter().map(T::deserialize_value).collect(),
            None => type_err("array", v),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        self.as_slice().serialize_value()
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected {N} elements, got {n}")))
    }
}

macro_rules! tuple_impl {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$i.serialize_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match v.as_array() {
                    Some(items) => {
                        let mut it = items.iter();
                        let out = ($(
                            {
                                let slot = it.next()
                                    .ok_or_else(|| Error::custom("tuple too short"))?;
                                $t::deserialize_value(slot)?
                            },
                        )+);
                        Ok(out)
                    }
                    None => type_err("tuple array", v),
                }
            }
        }
    )*};
}

tuple_impl! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// Generic over the hasher so maps keyed with a custom `BuildHasher`
// (e.g. the workspace's `fxhash` stand-in) serialize identically to the
// SipHash default — the wire form is key-sorted either way.
impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn serialize_value(&self) -> Value {
        // Sort keys so serialization is deterministic.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut m = Map::new();
        for k in keys {
            m.append_new(k.clone(), self[k].serialize_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v.as_object() {
            Some(m) => m
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::deserialize_value(val)?)))
                .collect(),
            None => type_err("object", v),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        let mut m = Map::new();
        for (k, val) in self {
            m.append_new(k.clone(), val.serialize_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v.as_object() {
            Some(m) => m
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::deserialize_value(val)?)))
                .collect(),
            None => type_err("object", v),
        }
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for Map {
    fn serialize_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Deserialize for Map {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .map_or_else(|| type_err("object", v), |m| Ok(m.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::deserialize_value(&(-5i64).serialize_value()), Ok(-5));
        assert_eq!(
            u64::deserialize_value(&u64::MAX.serialize_value()),
            Ok(u64::MAX)
        );
        assert_eq!(f64::deserialize_value(&0.1f64.serialize_value()), Ok(0.1));
        assert_eq!(bool::deserialize_value(&true.serialize_value()), Ok(true));
        assert_eq!(
            String::deserialize_value(&"hi".to_string().serialize_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn big_i64_is_lossless() {
        let big = (1i64 << 56) + 7;
        assert_eq!(i64::deserialize_value(&big.serialize_value()), Ok(big));
    }

    #[test]
    fn options_and_vecs() {
        let v: Option<i32> = None;
        assert_eq!(v.serialize_value(), Value::Null);
        assert_eq!(Option::<i32>::deserialize_value(&Value::Null), Ok(None));
        let xs = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::deserialize_value(&xs.serialize_value()), Ok(xs));
    }

    #[test]
    fn map_insert_replaces() {
        let mut m = Map::new();
        m.insert("a".into(), Value::Bool(true));
        let old = m.insert("a".into(), Value::Bool(false));
        assert_eq!(old, Some(Value::Bool(true)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn large_map_serializes_in_linear_time() {
        let n = 200_000;
        let hashed: HashMap<String, u64> = (0..n).map(|i| (format!("k{i}"), i)).collect();
        let sorted: BTreeMap<String, u64> = hashed.clone().into_iter().collect();

        let start = std::time::Instant::now();
        let (a, b) = (hashed.serialize_value(), sorted.serialize_value());
        let elapsed = start.elapsed();
        // Both encode the keys in sorted order.
        assert_eq!(a, b);
        let m = a.as_object().unwrap();
        assert_eq!(m.len(), n as usize);
        assert_eq!(m.iter().next().map(|(k, _)| k.as_str()), Some("k0"));
        // Appending takes milliseconds even unoptimized; scanning every
        // earlier key per insert takes minutes.
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "serializing {n} keys took {elapsed:?}"
        );
    }
}

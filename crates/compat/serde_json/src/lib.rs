//! Offline stand-in for `serde_json`.
//!
//! Serializes the shared [`serde::Value`] tree to JSON text and parses it
//! back. Numbers round-trip losslessly: integers print exactly, floats
//! print with Rust's shortest round-trip formatting (`{:?}`), non-finite
//! floats print as `null` (matching upstream serde_json).

use std::fmt::Write as _;

pub use serde::{Error, Map, Number, Value};

// ================= serialization =================

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.serialize_value())
}

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serialize to 2-space-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: &Number) {
    match *n {
        Number::I(i) => {
            let _ = write!(out, "{i}");
        }
        Number::U(u) => {
            let _ = write!(out, "{u}");
        }
        Number::F(f) if f.is_finite() => {
            // `{:?}` is Rust's shortest round-trip float rendering.
            let _ = write!(out, "{f:?}");
        }
        Number::F(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ================= parsing =================

/// Parse JSON text and deserialize into `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value_str(s)?;
    T::deserialize_value(&v)
}

fn parse_value_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::custom("unterminated string"))?;
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| Error::custom("invalid UTF-8"))?,
            );
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| Error::custom("bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error::custom("bad \\u escape"))?;
                    // Surrogate pairs are not produced by our writer;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    self.pos += 4;
                }
                other => return Err(Error::custom(format!("bad escape {other:?}"))),
            }
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => return Err(Error::custom(format!("bad object at byte {}", self.pos))),
            }
        }
    }
}

// ================= json! macro =================

/// Build a [`Value`] from JSON-like syntax. Object values and array
/// elements may be nested `{...}`/`[...]` literals or arbitrary
/// `Serialize` expressions (keys must be string literals).
#[macro_export]
macro_rules! json {
    // ---- object member muncher: json!(@obj map key : value, ...) ----
    (@obj $m:ident) => {};
    (@obj $m:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $m.insert(String::from($key), $crate::Value::Null);
        $crate::json!(@obj $m $($($rest)*)?);
    };
    (@obj $m:ident $key:literal : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $m.insert(String::from($key), $crate::json!({$($inner)*}));
        $crate::json!(@obj $m $($($rest)*)?);
    };
    (@obj $m:ident $key:literal : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $m.insert(String::from($key), $crate::json!([$($inner)*]));
        $crate::json!(@obj $m $($($rest)*)?);
    };
    (@obj $m:ident $key:literal : $val:expr , $($rest:tt)*) => {
        $m.insert(String::from($key), $crate::json!($val));
        $crate::json!(@obj $m $($rest)*);
    };
    (@obj $m:ident $key:literal : $val:expr) => {
        $m.insert(String::from($key), $crate::json!($val));
    };
    // ---- array element muncher: json!(@arr [acc...] elem, ...) ----
    // Accumulates converted elements into one `vec![...]` literal, so the
    // whole array stays a single expression in the caller's context
    // (`?`/`return`/`break` inside elements keep working) and the
    // expansion never contains a Vec-init-then-push statement pair.
    (@arr [$($acc:expr),*]) => {
        $crate::Value::Array(vec![$($acc),*])
    };
    (@arr [$($acc:expr),*] null $(, $($rest:tt)*)?) => {
        $crate::json!(@arr [$($acc,)* $crate::Value::Null] $($($rest)*)?)
    };
    (@arr [$($acc:expr),*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json!(@arr [$($acc,)* $crate::json!({$($inner)*})] $($($rest)*)?)
    };
    (@arr [$($acc:expr),*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json!(@arr [$($acc,)* $crate::json!([$($inner)*])] $($($rest)*)?)
    };
    (@arr [$($acc:expr),*] $val:expr , $($rest:tt)*) => {
        $crate::json!(@arr [$($acc,)* $crate::json!($val)] $($rest)*)
    };
    (@arr [$($acc:expr),*] $val:expr) => {
        $crate::json!(@arr [$($acc,)* $crate::json!($val)])
    };
    // ---- entry points ----
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {
        $crate::json!(@arr [] $($tt)*)
    };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $crate::json!(@obj m $($tt)*);
        $crate::Value::Object(m)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("serializing into json! cannot fail")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "\"hi\\n\""] {
            let v: Value = from_str(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text);
        }
    }

    #[test]
    fn round_trip_big_integers() {
        let big = (1u64 << 60) + 3;
        let v: Value = from_str(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn round_trip_floats_exactly() {
        for f in [0.1f64, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn nested_structures() {
        let v = json!({"a": [1, 2, {"b": null}], "c": "x"});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn pretty_output_parses() {
        let v = json!({"k": [true, false]});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_macro_embeds_serialize_exprs() {
        let xs = vec![1u8, 2];
        let v = json!({"xs": xs, "n": 5});
        assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("n").unwrap().as_i64(), Some(5));
    }

    #[test]
    fn json_macro_arrays_stay_in_expression_context() {
        // `?` inside an array element must propagate from the enclosing
        // function (real serde_json semantics) — the expansion cannot
        // hide elements behind a closure boundary.
        fn build(x: Option<u8>) -> Option<Value> {
            Some(json!([x?, 2, [x?], {"k": 3}]))
        }
        let v = build(Some(1)).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 4);
        assert_eq!(build(None), None);

        // Empty and trailing-comma forms.
        assert_eq!(json!([]).as_array().unwrap().len(), 0);
        assert_eq!(json!([1, 2,]).as_array().unwrap().len(), 2);
    }

    #[test]
    fn long_string_parses_in_linear_time() {
        // One unit holds every kind of run the parser copies or decodes:
        // plain ASCII, the `\"`, `\\` and `\n` escapes, a `\u` escape for
        // `é`, and raw two- and four-byte characters.
        let unit_json = r#"ab\"c\\d\ne\u00e9é😀 "#;
        let unit = "ab\"c\\d\neéé😀 ";
        // Over 1 MiB once decoded.
        let n = (1 << 20) / unit.len() + 1;
        let text = format!(r#"{{"k": "{}"}}"#, unit_json.repeat(n));

        let start = std::time::Instant::now();
        let v: Value = from_str(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(&*unit.repeat(n)));
        // Linear parsing takes milliseconds even unoptimized; rescanning
        // the rest of the input per character takes minutes.
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }
}

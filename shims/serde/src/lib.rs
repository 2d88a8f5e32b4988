//! Offline stand-in for `serde`.
//!
//! The real crates.io `serde` is unavailable in this workspace (no network
//! registry), so this shim provides the subset the workspace uses:
//!
//! - a [`Serialize`] trait that writes compact JSON directly into a `String`
//!   (the full serde data model is collapsed to "serialize to JSON", which is
//!   the only format the workspace emits);
//! - a marker [`Deserialize`] trait so derived bounds typecheck;
//! - re-exported `#[derive(Serialize, Deserialize)]` macros from the
//!   sibling `serde_derive` shim.
//!
//! Swap the workspace `path` dependency for a crates.io version requirement
//! to migrate to real serde; call sites are source-compatible for the derive
//! + `serde_json::to_string` usage pattern.

pub use serde_derive::{Deserialize, Serialize};

/// Serialization to compact JSON.
///
/// `json` appends the JSON encoding of `self` to `out`. Implementations for
/// primitives, strings, tuples, options, sequences and maps are provided
/// here; structs and enums get theirs from `#[derive(Serialize)]`.
pub trait Serialize {
    /// Appends the compact-JSON encoding of `self` to `out`.
    fn json(&self, out: &mut String);

    /// The compact-JSON encoding of `self` as a fresh string.
    fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.json(&mut out);
        out
    }
}

/// Marker for deserializable types.
///
/// The shim does not implement JSON parsing into arbitrary types; the trait
/// exists so `#[derive(Deserialize)]` and `T: Deserialize` bounds compile.
pub trait Deserialize {}

/// Writes a JSON string literal (with escaping) into `out`.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The number of bytes [`write_json_string`] writes for `s`, quotes
/// included, so a caller can size its buffer to the line.
pub fn json_string_len(s: &str) -> usize {
    let escaped = |b: &u8| match b {
        b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
        0..=0x1f => 6,
        _ => 1,
    };
    2 + s.as_bytes().iter().map(escaped).sum::<usize>()
}

/// Writes an `f64` as JSON (NaN/Inf become `null`). Uses Rust's `Display`,
/// which prints integral floats WITHOUT a trailing `.0` (`1`, not `1.0`) —
/// real serde_json prints `1.0`, so byte-level JSON baselines captured under
/// this shim will change when migrating to crates.io serde_json.
fn write_json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

macro_rules! impl_serialize_display_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
        impl Deserialize for $t {}
    )*};
}

impl_serialize_display_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

impl Serialize for f32 {
    fn json(&self, out: &mut String) {
        write_json_f64(*self as f64, out);
    }
}
impl Deserialize for f32 {}

impl Serialize for f64 {
    fn json(&self, out: &mut String) {
        write_json_f64(*self, out);
    }
}
impl Deserialize for f64 {}

impl Serialize for char {
    fn json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        write_json_string(self.encode_utf8(&mut buf), out);
    }
}
impl Deserialize for char {}

impl Serialize for str {
    fn json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}
impl Deserialize for String {}

impl Serialize for () {
    fn json(&self, out: &mut String) {
        out.push_str("null");
    }
}
impl Deserialize for () {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.json(out),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

/// Map keys must render as JSON strings; anything `Display` qualifies.
impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&k.to_string(), out);
            out.push(':');
            v.json(out);
        }
        out.push('}');
    }
}

/// `HashMap` serializes with keys sorted by their rendered form so output is
/// deterministic regardless of hasher state.
impl<K: std::fmt::Display, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn json(&self, out: &mut String) {
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_string(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        out.push('{');
        for (i, (k, v)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            out.push(':');
            v.json(out);
        }
        out.push('}');
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {}
    )*};
}

impl_serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_strings() {
        assert_eq!(42u64.to_json_string(), "42");
        assert_eq!((-7i32).to_json_string(), "-7");
        assert_eq!(true.to_json_string(), "true");
        assert_eq!(1.5f64.to_json_string(), "1.5");
        assert_eq!("a\"b\n".to_string().to_json_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn string_lengths_match_what_is_written() {
        for s in ["", "plain", "a\"b\\c", "\n\r\t", "\0\u{7}\u{1f}\u{7f}", "é Σ 日 😀", "x\u{1}é\""]
        {
            let mut out = String::new();
            write_json_string(s, &mut out);
            assert_eq!(json_string_len(s), out.len(), "{s:?}");
        }
    }

    #[test]
    fn containers() {
        assert_eq!(vec![1u8, 2, 3].to_json_string(), "[1,2,3]");
        assert_eq!(Some(5u8).to_json_string(), "5");
        assert_eq!(None::<u8>.to_json_string(), "null");
        assert_eq!((1u8, "x".to_string()).to_json_string(), "[1,\"x\"]");
        let mut m = std::collections::HashMap::new();
        m.insert("b".to_string(), 2u8);
        m.insert("a".to_string(), 1u8);
        assert_eq!(m.to_json_string(), "{\"a\":1,\"b\":2}");
    }
}

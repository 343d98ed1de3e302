//! The one JSON writer: every artifact the workspace commits and every
//! `to_json` renders through it, so commas, quoting, escaping and the
//! number format live here alone. A type that appears in an artifact
//! implements [`ToJson`]; an [`Object`] keeps its members in the order they
//! were added. An `f64` renders in Rust's shortest round-trip form (always
//! with a `.` or an exponent), a non-finite one as `0.0`.
//!
//! ```
//! use batchzk_metrics::json::{Array, Object, ToJson};
//!
//! let stages: Array = ["leaf", "node"].into_iter().collect();
//! let doc = Object::new().field("share", 0.5).field("stages", stages);
//! assert_eq!(doc.to_json(), r#"{"share":0.5,"stages":["leaf","node"]}"#);
//! ```

use std::fmt::Write as _;

/// A value with a JSON rendering.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// This value's JSON text.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(u32, u64, u128, usize, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("0.0");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// An already-rendered JSON value, embedded unchanged.
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// A JSON object: `"key":value` members in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Object(String);

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the member `"key":value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        separate(&mut self.0);
        key.write_json(&mut self.0);
        self.0.push(':');
        value.write_json(&mut self.0);
        self
    }
}

impl<K: AsRef<str>, V: ToJson> FromIterator<(K, V)> for Object {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(members: I) -> Self {
        members
            .into_iter()
            .fold(Self::new(), |o, (k, v)| o.field(k.as_ref(), v))
    }
}

impl ToJson for Object {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{{}}}", self.0);
    }
}

/// A JSON array of the values it was collected from, in order.
#[derive(Debug, Clone, Default)]
pub struct Array(String);

impl<V: ToJson> FromIterator<V> for Array {
    fn from_iter<I: IntoIterator<Item = V>>(elements: I) -> Self {
        let mut array = Self::default();
        for v in elements {
            separate(&mut array.0);
            v.write_json(&mut array.0);
        }
        array
    }
}

impl ToJson for Array {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "[{}]", self.0);
    }
}

/// The comma before every member or element but the first.
fn separate(body: &mut String) {
    if !body.is_empty() {
        body.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_the_same_in_keys_and_values() {
        let nasty = "q\"b\\n\nr\rt\tc\u{1}e\u{1f}é";
        let escaped = r#""q\"b\\n\nr\rt\tc\u0001e\u001fé""#;
        assert_eq!(nasty.to_json(), escaped);
        assert_eq!(nasty.to_string().to_json(), escaped);
        assert_eq!(
            Object::new().field(nasty, nasty).to_json(),
            format!("{{{escaped}:{escaped}}}")
        );
    }

    #[test]
    fn numbers_and_booleans_render_in_the_one_format() {
        assert_eq!(2.0.to_json(), "2.0");
        assert_eq!(0.5.to_json(), "0.5");
        assert_eq!((-1.25e-7).to_json(), "-1.25e-7");
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(v.to_json(), "0.0", "non-finite {v} must render as 0.0");
        }
        assert_eq!(0u32.to_json(), "0");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(u128::MAX.to_json(), u128::MAX.to_string());
        assert_eq!(7usize.to_json(), "7");
        assert_eq!(true.to_json(), "true");
        assert_eq!(false.to_json(), "false");
    }

    #[test]
    fn empty_and_nested_composites() {
        assert_eq!(Object::new().to_json(), "{}");
        assert_eq!(Array::default().to_json(), "[]");
        assert_eq!(std::iter::empty::<u64>().collect::<Array>().to_json(), "[]");
        let inner: Array = [1u64, 2].into_iter().collect();
        let middle = Object::new().field("c", inner).field("e", Object::new());
        let outer: Array = [middle.clone(), middle].into_iter().collect();
        assert_eq!(
            Object::new().field("a", outer).field("z", false).to_json(),
            r#"{"a":[{"c":[1,2],"e":{}},{"c":[1,2],"e":{}}],"z":false}"#
        );
        let pairs: Object = [("x", 1u64), ("y", 2)].into_iter().collect();
        assert_eq!(pairs.to_json(), r#"{"x":1,"y":2}"#);
    }

    #[test]
    fn raw_documents_embed_unchanged() {
        let doc = r#"{"k":[1,"a\"b"],"f":0.5}"#;
        assert_eq!(Raw(doc).to_json(), doc);
        let outer: Array = [Raw(doc), Raw("7")].into_iter().collect();
        assert_eq!(
            Object::new().field("doc", outer).to_json(),
            format!(r#"{{"doc":[{doc},7]}}"#)
        );
    }
}

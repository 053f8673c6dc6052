//! The workspace's one JSON writer: the field helpers behind the JSONL
//! trace exporter, and compact / pretty rendering of a [`JsonValue`] tree
//! for the CLI replies and the `BENCH_*.json` documents.
//!
//! Hand-rolled on purpose: felip-obs depends on nothing but std, and every
//! document the workspace writes needs only objects, arrays, strings,
//! integers, floats, bools and null. Integers print exactly; finite floats
//! print in Rust's shortest round-trip form with a forced `.0`; non-finite
//! floats, which JSON cannot encode, print as `null`. [`crate::jsonread`]
//! parses all of it back.

use crate::metrics::Value;

pub use crate::jsonread::JsonValue;

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub(crate) fn push_str(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number. Non-finite values have no JSON encoding
/// and are emitted as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `format!` prints integral floats without a point; keep the type
        // visible to readers expecting a float field.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends a [`Value`] in its natural JSON form.
pub(crate) fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => push_f64(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_str(out, s),
    }
}

/// Appends a `"key":value` list (no surrounding braces) for a field set,
/// prefixing each pair with a comma. Used to extend an already-open object.
pub(crate) fn push_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    for (k, v) in fields {
        out.push(',');
        push_str(out, k);
        out.push(':');
        push_value(out, v);
    }
}

/// Conversion into a [`JsonValue`]: what [`json!`](crate::json!) applies
/// to each member value. Integers become [`JsonValue::Int`], floats
/// [`JsonValue::Num`].
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> JsonValue;
}

macro_rules! int_to_json {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as i128)
            }
        }
    )*};
}

int_to_json!(u32 u64 usize);

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

/// Builds a [`JsonValue::Object`] from `{ "key": expr, ... }`, members in
/// source order. Each value goes through [`ToJson`] by reference; nest
/// objects with inner `json!` calls.
///
/// ```
/// let doc = felip_obs::json!({ "n": 3u64, "mae": 0.25, "ids": vec![1u32, 2] });
/// assert_eq!(doc.to_compact(), r#"{"n":3,"mae":0.25,"ids":[1,2]}"#);
/// ```
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::jsonread::JsonValue::Object(vec![
            $( ($key.to_string(), $crate::json::ToJson::to_json(&$value)) ),*
        ])
    };
}

impl JsonValue {
    /// Compact JSON text: no whitespace between tokens.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write(&mut out, self, None);
        out
    }

    /// Pretty JSON text: one member or element per line, indented two
    /// spaces per level, `"key": value`; empty containers stay `[]`/`{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write(&mut out, self, Some(0));
        out
    }

    /// Appends the member `key: value` to an object.
    ///
    /// # Panics
    /// When `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl ToJson) {
        match self {
            JsonValue::Object(members) => members.push((key.to_string(), value.to_json())),
            other => panic!("JsonValue::push on a non-object: {other:?}"),
        }
    }
}

/// Writes `v` compactly (`indent` = `None`) or pretty at nesting level
/// `indent`.
fn write(out: &mut String, v: &JsonValue, indent: Option<usize>) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(n) => out.push_str(&n.to_string()),
        JsonValue::Num(f) => push_f64(out, *f),
        JsonValue::Str(s) => push_str(out, s),
        JsonValue::Array(items) => {
            write_container(out, '[', ']', items, indent, |out, item, inner| {
                write(out, item, inner)
            })
        }
        JsonValue::Object(members) => {
            write_container(out, '{', '}', members, indent, |out, (k, v), inner| {
                push_str(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                write(out, v, inner);
            })
        }
    }
}

fn write_container<T>(
    out: &mut String,
    open: char,
    close: char,
    items: &[T],
    indent: Option<usize>,
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|i| i + 1);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        item(out, x, inner);
    }
    if let (Some(level), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonread::parse;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let mut out = String::new();
        push_f64(&mut out, 3.0);
        assert_eq!(out, "3.0");
        out.clear();
        push_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }

    #[test]
    fn non_finite_floats_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn values_serialize_naturally() {
        let cases: Vec<(Value, &str)> = vec![
            (Value::U64(7), "7"),
            (Value::I64(-2), "-2"),
            (Value::Bool(true), "true"),
            (Value::Str("hi".into()), "\"hi\""),
        ];
        for (v, want) in cases {
            let mut out = String::new();
            push_value(&mut out, &v);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let mut doc = crate::json!({
            "k": vec![1u32, 2],
            "empty": Vec::<u32>::new(),
            "inner": crate::json!({ "x": 0.5, "none": JsonValue::Null }),
        });
        doc.push("last", "s");
        assert_eq!(
            doc.to_compact(),
            r#"{"k":[1,2],"empty":[],"inner":{"x":0.5,"none":null},"last":"s"}"#
        );
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"inner\": {\n    \
             \"x\": 0.5,\n    \"none\": null\n  },\n  \"last\": \"s\"\n}"
        );
        assert_eq!(crate::json!({}).to_pretty(), "{}");
    }

    /// splitmix64: the test's own deterministic generator (felip-obs has
    /// no dev-dependencies).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Property: whatever the writer prints, `jsonread` parses back to the
    /// same thing. Strings (quotes, backslashes, control characters,
    /// non-ASCII) come back equal, finite floats bit-identical, non-finite
    /// floats as `null`, and integers up to `u64::MAX` exactly.
    #[test]
    fn writer_output_reads_back_exactly() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let mut rng = 0x5eed;
        for case in 0..2_000 {
            let len = next(&mut rng) % 24;
            let s: String = (0..len)
                .map(|_| match next(&mut rng) % 4 {
                    0 => '"',
                    1 => '\\',
                    _ => char::from_u32((next(&mut rng) % 0x11_0000) as u32).unwrap_or('\u{1}'),
                })
                .collect();
            let f = match specials.get(case) {
                Some(&x) => x,
                None => f64::from_bits(next(&mut rng)),
            };
            let u = next(&mut rng) >> (case % 64);
            let doc = crate::json!({
                "s": s,
                "f": f,
                "u": u,
                "max": u64::MAX,
                "a": vec![crate::json!({ "s": s })],
            });
            for text in [doc.to_compact(), doc.to_pretty()] {
                let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                assert_eq!(back.get("s").and_then(JsonValue::as_str), Some(s.as_str()));
                let a = back.get("a").and_then(JsonValue::as_array).unwrap();
                assert_eq!(a[0].get("s").and_then(JsonValue::as_str), Some(s.as_str()));
                match back.get("f").unwrap() {
                    JsonValue::Null => assert!(!f.is_finite()),
                    g => assert_eq!(g.as_f64().map(f64::to_bits), Some(f.to_bits()), "{text}"),
                }
                assert_eq!(back.get("u").and_then(JsonValue::as_u64), Some(u));
                assert_eq!(back.get("max").and_then(JsonValue::as_u64), Some(u64::MAX));
                assert!(text.contains(&u64::MAX.to_string()));
            }
        }
    }
}

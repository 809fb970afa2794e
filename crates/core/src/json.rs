//! A minimal, dependency-free JSON document model.
//!
//! The Campaign API ([`crate::plan`]) serialises [`PlanRequest`]s and
//! [`PlanOutcome`]s as JSON so campaigns are *data* — files on disk, rows
//! in a queue — rather than Rust code. The repository must build with no
//! external crates, so this module implements the small subset of a JSON
//! library the planner needs: a [`Json`] value tree, a strict parser, a
//! deterministic writer, and typed accessors with descriptive errors.
//!
//! [`PlanRequest`]: crate::plan::PlanRequest
//! [`PlanOutcome`]: crate::plan::PlanOutcome
//!
//! Numbers are `f64` (integers survive exactly up to 2^53 — far beyond any
//! cycle count the planner produces). Object member order is preserved, so
//! write→parse→write is byte-stable.
//!
//! ```
//! use noctest_core::json::Json;
//!
//! let doc = Json::parse(r#"{"mesh": {"width": 4}, "tags": ["a", "b"]}"#)?;
//! assert_eq!(doc.get("mesh").and_then(|m| m.get("width")).and_then(Json::as_u64), Some(4));
//! # Ok::<(), noctest_core::json::JsonError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parse or access error, with a character offset for parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed (0 for access errors).
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. A
/// deeper document is refused with a [`JsonError`] instead of recursing
/// until the stack overflows, which would abort the process.
pub const MAX_DEPTH: usize = 256;

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err(p.pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Serialises with two-space indentation and `\n` line ends.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serialises compactly (no whitespace).
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |out, item, ind| {
                item.write(out, ind);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, '{', '}', members.iter(), |out, (k, v), ind| {
                    write_string(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind);
                });
            }
        }
    }

    /// Member lookup on an object (None on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs (convenience constructor).
    #[must_use]
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// A string value (convenience constructor).
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (convenience constructor).
    #[must_use]
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

/// Typed member access used by the request/outcome decoders (and by
/// sibling crates building on this module): object member `key`, decoded
/// by `f`, with a qualified error when absent or mistyped.
///
/// # Errors
///
/// A [`JsonError`] naming the member when it is missing or `f` rejects it.
pub fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    what: &str,
    f: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, JsonError> {
    let value = doc
        .get(key)
        .ok_or_else(|| err(0, format!("missing member `{key}` ({what})")))?;
    f(value).ok_or_else(|| err(0, format!("member `{key}` is not {what}")))
}

/// Like [`field`] but returns `None` when the member is absent or null;
/// a present member that fails to decode is still an error (never
/// silently ignored).
///
/// # Errors
///
/// A [`JsonError`] naming the member when `f` rejects a present value.
pub fn field_opt<'a, T>(
    doc: &'a Json,
    key: &str,
    what: &str,
    f: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, JsonError> {
    field_or(doc, key, what, None, |value| f(value).map(Some))
}

/// Like [`field`] but with a default when the member is absent or null.
///
/// # Errors
///
/// A [`JsonError`] naming the member when `f` rejects a present value.
pub fn field_or<'a, T>(
    doc: &'a Json,
    key: &str,
    what: &str,
    default: T,
    f: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, JsonError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => f(value).ok_or_else(|| err(0, format!("member `{key}` is not {what}"))),
    }
}

/// Refuses any member of object `doc` outside `allowed`: a decoder that
/// skips what it does not know turns a misspelt knob into a silent
/// default. `path` names the object in the error; a value that is not an
/// object has no members to refuse.
///
/// # Errors
///
/// A [`JsonError`] `` `<path>` has unknown member `<key>` `` naming the
/// first member outside `allowed`.
pub fn only_members(
    doc: &Json,
    path: impl fmt::Display,
    allowed: &[&str],
) -> Result<(), JsonError> {
    match doc.as_obj().and_then(|members| {
        members
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
    }) {
        Some((key, _)) => Err(err(0, format!("`{path}` has unknown member `{key}`"))),
        None => Ok(()),
    }
}

fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON cannot represent NaN/±inf; a programmatically built
        // Json::Num with one degrades to null (serde_json's behaviour)
        // rather than emitting an unparsable token.
        return "null".to_owned();
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        // `{}` on f64 is shortest-roundtrip in Rust: parse(format(n)) == n.
        format!("{n}")
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, Option<usize>),
) {
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(out, item, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(err(self.pos, format!("unexpected byte `{}`", b as char))),
            None => Err(err(self.pos, "unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(err(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(err(self.pos, format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            // Rust's f64 parse saturates overflow to ±inf; JSON has no
            // such value, so reject it instead of storing something the
            // writer could never round-trip.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(err(start, format!("number `{text}` overflows f64"))),
            Err(_) => Err(err(start, format!("invalid number `{text}`"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Consume raw UTF-8 runs between escapes wholesale.
            let run_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| err(run_start, "invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| err(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: decode the low half if present.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                let hi = code;
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(err(self.pos, "invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| err(self.pos, "invalid \\u escape"))?);
                        }
                        other => {
                            return Err(err(
                                self.pos - 1,
                                format!("unknown escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                Some(b) => return Err(err(self.pos, format!("raw control byte {b:#04x}"))),
                None => return Err(err(self.pos, "unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| err(self.pos, "truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| err(self.pos, "bad \\u escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| err(self.pos, "bad \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(err(self.pos, "expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        let mut keys = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if keys.insert(key.clone(), ()).is_some() {
                return Err(err(key_at, format!("duplicate member `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(err(self.pos, "expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.compact(), text);
        }
    }

    #[test]
    fn nested_document_roundtrips() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": "x\ny", "d": -0.25}"#;
        let v = Json::parse(text).unwrap();
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        let compact = v.compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 42, "s": "x", "b": true, "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_obj().unwrap().len(), 5);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1, ]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("  nope").unwrap_err();
        assert_eq!(e.at, 2);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair (😀 U+1F600).
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Escapes survive the writer.
        let s = Json::Str("tab\there \"q\" \u{1}".into());
        assert_eq!(Json::parse(&s.compact()).unwrap(), s);
    }

    #[test]
    fn big_integers_survive() {
        let n = 9_007_199_254_740_992u64; // 2^53
        let v = Json::parse(&format!("{n}")).unwrap();
        assert_eq!(v.as_f64(), Some(n as f64));
        // Makespans are far below 2^53; exactness holds there.
        let m = 1_400_000u64;
        assert_eq!(Json::int(m).compact(), "1400000");
        assert_eq!(Json::parse("1400000").unwrap().as_u64(), Some(m));
    }

    #[test]
    fn non_finite_numbers_are_rejected_or_degraded() {
        // Overflowing literals must not sneak in as infinity.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        // Programmatically built non-finite numbers degrade to null so the
        // writer never emits an unparsable token.
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        let doc = Json::obj(vec![("x", Json::Num(f64::NEG_INFINITY))]);
        assert!(Json::parse(&doc.compact()).is_ok());
    }

    #[test]
    fn deep_nesting_is_refused_before_the_stack_runs_out() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let hostile = "[".repeat(200_000);
        assert_eq!(
            Json::parse(&hostile).unwrap_err().to_string(),
            "json error at byte 256: nesting deeper than 256 levels"
        );
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert_eq!(
            Json::parse(&objects).unwrap_err().to_string(),
            "json error at byte 1280: nesting deeper than 256 levels"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap().compact(), "[]");
        assert_eq!(Json::parse("{}").unwrap().compact(), "{}");
        assert_eq!(Json::parse("[]").unwrap().pretty(), "[]");
    }
}

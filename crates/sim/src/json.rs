//! The one JSON module: a value type, its parser and its writer.
//!
//! Every document this workspace writes — the sweep goldens, the chaos
//! campaigns, the trace and metrics exports — is built as a [`Json`]
//! value and printed by its `Display`, and every document it reads back
//! goes through [`Json::parse`]. Objects keep document order, and a
//! number keeps the exact text its producer chose (an integer, fixed
//! decimals, or the shortest round-trip form), so a parsed document
//! prints back byte for byte and two documents compare equal exactly
//! when they hold the same keys in the same order and the same number
//! texts.
//!
//! The writer has one layout: a container whose members are all
//! scalars prints on one line (`{"k": 1, "s": "x"}`, `[1, 2]`); any
//! other container prints one member per line, indented two spaces per
//! level.
//!
//! ```
//! use nob_sim::json::Json;
//!
//! let doc = Json::object([
//!     ("name", Json::from("fill")),
//!     ("cells", Json::Array(vec![Json::object([("us", Json::fixed(1.5, 3))])])),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, "{\n  \"name\": \"fill\",\n  \"cells\": [\n    {\"us\": 1.500}\n  ]\n}");
//! assert_eq!(Json::parse(&text), Some(doc));
//! ```

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object, its fields in document order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    String(String),
    /// A number.
    Number(Number),
    /// A boolean.
    Bool(bool),
    /// The `null` literal.
    Null,
}

/// A JSON number, held as the exact text it prints as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Json {
    /// An object of `fields`, in the order given.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` printed with exactly `decimals` decimals; `null` unless finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::finite(x, format!("{x:.decimals$}"))
    }

    /// `x` in its shortest round-trip form; `null` unless finite.
    pub fn shortest(x: f64) -> Json {
        Json::finite(x, x.to_string())
    }

    fn finite(x: f64, text: String) -> Json {
        if x.is_finite() {
            Json::Number(Number(text))
        } else {
            Json::Null
        }
    }

    /// Parses a JSON document.
    ///
    /// Returns `None` on any syntax error or trailing garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { b: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == text.len()).then_some(v)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Object(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number under `key` of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// The string under `key` of an object.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::String(s) = self else { return None };
        Some(s)
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Number(Number(text)) = self else { return None };
        text.parse().ok()
    }

    /// Array content, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Array(v) = self else { return None };
        Some(v)
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Object(_) | Json::Array(_))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Object(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(&**k), v)).collect())
            }
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::String(s) => return json_escape(f, s),
            Json::Number(Number(text)) => return f.write_str(text),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Null => return f.write_str("null"),
        };
        let flat = members.iter().all(|(_, v)| v.is_scalar());
        let (comma, indent) = if flat { (", ", 0) } else { (",", 2 * depth + 2) };
        f.write_char(open)?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            f.write_str(if i > 0 { comma } else { "" })?;
            if !flat {
                write!(f, "\n{:indent$}", "")?;
            }
            if let Some(key) = key {
                json_escape(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !flat {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_char(close)
    }
}

/// The writer: see the module docs for its one layout.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! from {
    ($($t:ty),* => |$v:ident| $value:expr) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $value
            }
        }
    )*};
}
from!(u32, u64, usize, i64 => |n| Json::Number(Number(n.to_string())));
from!(&str => |s| Json::String(s.to_string()));
from!(String => |s| Json::String(s));
from!(bool => |b| Json::Bool(b));

/// `s` as a quoted JSON string literal: quote, backslash and every
/// control character below `0x20` escaped, so the literal never holds a
/// raw quote or control.
fn json_escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A cursor over a document's bytes: every method consumes what it read.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let next = self.b.get(self.pos) == Some(&byte);
        self.pos += usize::from(next);
        next
    }

    fn next(&mut self) -> Option<u8> {
        let c = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(c)
    }

    fn value(&mut self) -> Option<Json> {
        if self.eat(b'{') {
            let field = |p: &mut Self| {
                let key = p.string()?;
                p.eat(b':').then(|| Some((key, p.value()?)))?
            };
            return self.members(b'}', field).map(Json::Object);
        }
        if self.eat(b'[') {
            return self.members(b']', Self::value).map(Json::Array);
        }
        let rest = &self.b[self.pos..];
        let (word, value) = match rest.first()? {
            b't' => ("true", Json::Bool(true)),
            b'f' => ("false", Json::Bool(false)),
            b'n' => ("null", Json::Null),
            b'"' => return self.string().map(Json::String),
            _ => return self.number(),
        };
        self.pos += word.len();
        rest.starts_with(word.as_bytes()).then_some(value)
    }

    /// The comma-separated members of a container, through `close`.
    fn members<T>(&mut self, close: u8, member: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut out = Vec::new();
        while !self.eat(close) {
            if !out.is_empty() && !self.eat(b',') {
                return None;
            }
            out.push(member(self)?);
        }
        Some(out)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        // Bytes, not chars: a multi-byte character passes through whole.
        let mut out = Vec::new();
        loop {
            let unescaped = match self.next()? {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => match self.next()? {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = std::str::from_utf8(self.b.get(self.pos..self.pos + 4)?).ok()?;
                        self.pos += 4;
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                    }
                    _ => return None,
                },
                c => {
                    out.push(c);
                    continue;
                }
            };
            out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    /// A number keeps its text; it must read as a finite `f64`.
    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        let numeric = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
        while self.b.get(self.pos).is_some_and(numeric) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).ok()?;
        text.parse::<f64>().ok()?.is_finite().then(|| Json::Number(Number(text.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A document in the harness's own layout prints back byte for byte:
    /// document order, number texts and escapes all survive the parse.
    #[test]
    fn parses_the_harness_schema() {
        let doc = "{\n  \"id\": \"fig4a\",\n  \"title\": \"a \\\"quoted\\\" title\",\n  \
                   \"scale\": 512,\n  \"cells\": [\n    \
                   {\"series\": \"NobLSM\", \"x\": \"1024\", \"value\": 19.750, \"ok\": true},\n    \
                   {\"series\": \"LevelDB\", \"x\": \"1024\", \"value\": 27.75, \"err\": null}\n  \
                   ]\n}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.text("title"), Some("a \"quoted\" title"));
        assert_eq!(v.num("scale"), Some(512.0));
        let cells = v.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells[0].num("value"), Some(19.75));
        assert_eq!(cells[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.to_string(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} trailing", "", "1e999", "-"] {
            assert!(Json::parse(bad).is_none(), "{bad:?} should fail");
        }
    }

    /// Escapes the writer never emits still parse.
    #[test]
    fn parses_literals_and_escapes() {
        assert_eq!(Json::parse(r#""A\r\/b""#), Some(Json::from("A\r/b")));
        assert_eq!(Json::parse("\"\\u0041Z\""), Some(Json::from("AZ")));
    }

    /// Number forms the writer never emits keep their text and value.
    #[test]
    fn parses_primitives_and_nesting() {
        let v = Json::parse(" [ -2e3 ,0.50] ").unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_f64(), Some(-2000.0));
        assert_eq!(v.to_string(), "[-2e3, 0.50]");
        assert_eq!(Json::shortest(f64::NAN), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 2), Json::Null);
    }

    /// Maps raw bytes onto a charset chosen to stress every escaping
    /// path: quotes, backslashes, short-form and `\u` controls, and
    /// multi-byte unicode.
    fn hostile(bytes: &[u64]) -> String {
        const CHARSET: [char; 12] =
            ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', ' ', '/', 'a', '\u{e9}', '\u{1f980}'];
        bytes.iter().map(|&b| CHARSET[b as usize % CHARSET.len()]).collect()
    }

    /// A value drawn from `words`: scalars of every kind the emitters
    /// produce, and objects and arrays nested up to `depth` deep.
    fn value(words: &mut dyn Iterator<Item = u64>, depth: usize) -> Json {
        let w = words.next().unwrap_or(0);
        let n = (w >> 8) % 4;
        match w % if depth == 0 { 7 } else { 9 } {
            0 => Json::from(w),
            1 => Json::from(w as i64),
            2 => Json::fixed(w as f64 / 1e6 - 1e6, (w % 7) as usize),
            3 => Json::shortest(f64::from_bits(w)),
            4 => Json::from(hostile(&words.take((w % 9) as usize).collect::<Vec<_>>())),
            5 => Json::from(w & 1 == 0),
            6 => Json::Null,
            7 => Json::object((0..n).map(|i| (hostile(&[i, w >> 16]), value(words, depth - 1)))),
            _ => Json::Array((0..n).map(|_| value(words, depth - 1)).collect()),
        }
    }

    /// The lines the layout rule gives `v`: one for a scalar or a
    /// container of scalars, else its open and close lines around its
    /// members' lines.
    fn lines(v: &Json) -> usize {
        let members: Vec<&Json> = match v {
            Json::Object(fields) => fields.iter().map(|(_, m)| m).collect(),
            Json::Array(items) => items.iter().collect(),
            _ => vec![],
        };
        if members.iter().all(|m| m.is_scalar()) {
            1
        } else {
            2 + members.into_iter().map(lines).sum::<usize>()
        }
    }

    proptest! {
        /// Every value prints as a document that parses back to itself,
        /// with every control character inside its strings escaped, and
        /// laid out by the one rule: a container of scalars on one line,
        /// any other one member per line, at any depth.
        #[test]
        fn printed_values_parse_back_to_themselves(
            words in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let v = value(&mut words.into_iter(), 3);
            let text = v.to_string();
            prop_assert_eq!(Json::parse(&text), Some(v.clone()), "{}", text);
            prop_assert!(!text.chars().any(|c| (c as u32) < 0x20 && c != '\n'), "{:?}", text);
            prop_assert_eq!(text.lines().count(), lines(&v), "{}", text);
        }
    }
}

//! A minimal JSON parser for reading back the harness's own result files
//! (kept dependency-free; supports the subset the harnesses emit: objects,
//! arrays, strings, numbers, booleans and `null`).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object (sorted keys).
    Object(BTreeMap<String, Json>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    String(String),
    /// A number.
    Number(f64),
    /// A boolean.
    Bool(bool),
    /// The `null` literal.
    Null,
}

impl Json {
    /// Parses a JSON document.
    ///
    /// Returns `None` on any syntax error or trailing garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
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
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array content, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match b.get(*pos)? {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos).map(Json::String),
        b't' => parse_literal(b, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(b, pos, "false", Json::Bool(false)),
        b'n' => parse_literal(b, pos, "null", Json::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Object(map));
            }
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '['
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Array(v));
    }
    loop {
        v.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Array(v));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    // Bytes, not chars: a multi-byte character passes through whole.
    let mut out = Vec::new();
    loop {
        match b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                let unescaped = match b.get(*pos)? {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        *pos += 4;
                        char::from_u32(code)?
                    }
                    _ => return None,
                };
                out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
                *pos += 1;
            }
            &c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Option<Json> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if start == *pos {
        return None;
    }
    std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok().map(Json::Number)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_schema() {
        let doc = r#"{
  "id": "fig4a",
  "title": "a \"quoted\" title",
  "scale": 512,
  "cells": [
    {"series": "NobLSM", "x": "1024", "value": 19.75, "unit": "us/op"},
    {"series": "LevelDB", "x": "1024", "value": 27.75, "unit": "us/op"}
  ]
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig4a"));
        assert_eq!(v.get("scale").unwrap().as_f64(), Some(512.0));
        assert_eq!(v.get("title").unwrap().as_str(), Some("a \"quoted\" title"));
        let cells = v.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("value").unwrap().as_f64(), Some(19.75));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} trailing", ""] {
            assert!(Json::parse(bad).is_none(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_literals_and_escapes() {
        assert_eq!(Json::parse("true"), Some(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Some(Json::Bool(false)));
        assert_eq!(Json::parse("null"), Some(Json::Null));
        let v = Json::parse(r#"{"ok": true, "err": null}"#).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("err"), Some(&Json::Null));
        assert_eq!(Json::parse(r#""A\r\/b""#), Some(Json::String("A\r/b".into())));
        assert_eq!(Json::parse("\"\\u0041Z\""), Some(Json::String("AZ".into())));
        assert_eq!(Json::parse("\"×16 µs\""), Some(Json::String("×16 µs".into())));
    }

    #[test]
    fn parses_primitives_and_nesting() {
        assert_eq!(Json::parse("3.5"), Some(Json::Number(3.5)));
        assert_eq!(Json::parse("-2e3"), Some(Json::Number(-2000.0)));
        assert_eq!(Json::parse("[]"), Some(Json::Array(vec![])));
        let v = Json::parse(r#"{"a": {"b": [1, 2]}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_array().unwrap().len(), 2);
    }
}

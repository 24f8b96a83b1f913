//! A minimal JSON value type with a recursive-descent parser and a
//! serializer, sufficient for the line-framed wire protocol.
//!
//! The offline build has no serde. Replies and the client's frame decoding
//! go through the [`Json`] enum; the hot paths do not build one.
//! [`crate::protocol::Request::decode`] walks a request line in one pass
//! with the same grammar functions the tree parser is made of (objects and
//! arrays member by member, strings borrowed from the line unless they hold
//! escapes), and the push, notification and reply encoders write straight
//! into a `String` with this module's escaping and number formatting.
//!
//! Numbers are kept as `f64` — every count the protocol carries (query
//! ids, embedding totals) fits exactly below 2^53, and [`Json::as_u64`]
//! rejects anything that does not round-trip. The accepted grammar is
//! RFC 8259's, except that raw control characters inside strings are let
//! through.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Object members preserve insertion order, which
/// keeps serialized frames deterministic (handy for the differential
/// tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is a number that
    /// round-trips through `f64` without loss.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to single-line JSON (no added whitespace), so a frame is
/// always exactly one line on the wire.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes a number: integral values up to 2^53 without a fraction.
pub(crate) fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a string literal. Runs of bytes that need no escape are
/// copied whole; the bytes that do are all ASCII, so every run ends on a
/// character boundary.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    expect_end(bytes, &mut pos)?;
    Ok(value)
}

pub(crate) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Checks that only whitespace follows the document.
pub(crate) fn expect_end(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses one value (leading whitespace included) into a tree.
pub(crate) fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_str(bytes, pos).map(|s| Json::Str(s.into_owned())),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_array(bytes, pos, |pos| {
                items.push(parse_value(bytes, pos)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut members = Vec::new();
            parse_object(bytes, pos, |key, pos| {
                members.push((key.into_owned(), parse_value(bytes, pos)?));
                Ok(())
            })?;
            Ok(Json::Obj(members))
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Walks the array at `pos`, calling `element` once per element with `pos`
/// on its first byte; `element` must consume exactly that value.
pub(crate) fn parse_array(
    bytes: &[u8],
    pos: &mut usize,
    mut element: impl FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        element(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

/// Walks the object at `pos`, calling `member` once per member, in order,
/// with its decoded key and `pos` on the first byte of its value; `member`
/// must consume exactly that value.
pub(crate) fn parse_object<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as RFC 8259.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let invalid = || format!("invalid number at byte {start}");
    let digits = |pos: &mut usize| {
        let first = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > first
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(invalid());
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| invalid())
}

/// Parses the string literal at `pos`. The result borrows from `bytes`
/// unless the literal holds an escape. Each run of bytes up to the next
/// `"` or `\` is checked and copied once, so a string costs time linear
/// in its length.
pub(crate) fn parse_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, String> {
    expect(bytes, pos, b'"')?;
    let mut unescaped: Option<String> = None;
    loop {
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        // `"` and `\` never occur inside a multi-byte UTF-8 sequence, so
        // the run is whole characters.
        let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(match unescaped {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            Some(_) => {
                let out = unescaped.get_or_insert_with(String::new);
                out.push_str(run);
                *pos += 1;
                push_escape(bytes, pos, out)?;
            }
        }
    }
}

/// Decodes the escape whose letter is at `pos` (just past the `\`).
fn push_escape(bytes: &[u8], pos: &mut usize, out: &mut String) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'"') => out.push('"'),
        Some(b'\\') => out.push('\\'),
        Some(b'/') => out.push('/'),
        Some(b'b') => out.push('\u{8}'),
        Some(b'f') => out.push('\u{c}'),
        Some(b'n') => out.push('\n'),
        Some(b'r') => out.push('\r'),
        Some(b't') => out.push('\t'),
        Some(b'u') => {
            let hi = parse_hex4(bytes, pos)?;
            let code = if (0xD800..0xDC00).contains(&hi) {
                // Surrogate pair: expect `\uXXXX` low half next.
                *pos += 1;
                if bytes.get(*pos) != Some(&b'\\') {
                    return Err("lone high surrogate".into());
                }
                *pos += 1;
                if bytes.get(*pos) != Some(&b'u') {
                    return Err("lone high surrogate".into());
                }
                let lo = parse_hex4(bytes, pos)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err("invalid low surrogate".into());
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                hi
            };
            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
        }
        _ => return Err(format!("invalid escape at byte {}", *pos)),
    }
    *pos += 1;
    Ok(())
}

/// Reads the four hex digits after the `u` at `pos`, leaving `pos` on the
/// last of them.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or("truncated \\u escape")?;
    let mut code = 0;
    for &d in digits {
        code = code * 16 + (d as char).to_digit(16).ok_or("invalid \\u escape")?;
    }
    *pos += 4;
    Ok(code)
}

/// Convenience constructor for an object from key/value pairs.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience constructor for a number from an unsigned integer.
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_the_serializer() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"42"#,
            r#"-7"#,
            r#""hi there""#,
            r#"["a",1,false,null]"#,
            r#"{"op":"push","edges":[["+","likes","u1","p1"]]}"#,
            r#"{"nested":{"a":[{"b":2}]}}"#,
        ];
        for case in cases {
            let parsed = parse(case).unwrap();
            assert_eq!(parsed.to_string(), case, "round trip of {case}");
            assert_eq!(parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn escapes_and_unicode_survive() {
        let parsed = parse(r#""line\nbreak \"quoted\" A 😀""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "line\nbreak \"quoted\" A 😀");
        let reparsed = parse(&parsed.to_string()).unwrap();
        assert_eq!(reparsed, parsed);
        let parsed = parse(r#""\u00e9\ud83d\ude00 é\/\\ \u001f""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "é😀 é/\\ \u{1f}");
        assert_eq!(parsed.to_string(), "\"é😀 é/\\\\ \\u001f\"");
    }

    #[test]
    fn strings_borrow_from_the_input_unless_escaped() {
        let mut pos = 0;
        let plain = parse_str("\"héllo\" ".as_bytes(), &mut pos).unwrap();
        assert!(matches!(plain, Cow::Borrowed("héllo")));
        assert_eq!(pos, 8);
        let mut pos = 0;
        let escaped = parse_str(br#""a\tb""#, &mut pos).unwrap();
        assert!(matches!(escaped, Cow::Owned(ref s) if s == "a\tb"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One check per run, not per character: a 1 MiB string would take
        // minutes if every character re-validated the rest of the input.
        let text = format!("\"{}\"", "x".repeat(1 << 20));
        assert_eq!(parse(&text).unwrap().as_str().unwrap().len(), 1 << 20);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "[1]extra",
            r#""\u+041""#,
            "+1",
            ".5",
            "1.",
            "01",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-3.25", -3.25),
            ("1e3", 1000.0),
            ("2E-2", 0.02),
            ("0.5e+1", 5.0),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Num(value), "{text}");
        }
        for bad in ["-", "1e", "1e+", "-.5", "1.e3", "0x10", "00", "-01"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors_check_types_and_exactness() {
        let v = parse(r#"{"n":3,"s":"x","b":true,"f":1.5,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}

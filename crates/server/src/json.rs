//! A minimal, dependency-free JSON reader for the wire protocol.
//!
//! The server's *output* is hand-assembled (like `abcd::metrics`), but
//! requests arrive as arbitrary client-formatted JSON and need a real
//! parser. This one supports the full value grammar with strict errors;
//! numbers are kept as `i64` when integral (counts, ids) and `f64`
//! otherwise.
//!
//! * **Linear time.** A string body is copied run by run: the reader
//!   scans to the next `"`, `\` or control byte and appends the whole run
//!   at once, so decoding a frame costs O(frame) however long its strings
//!   are. Every delimiter is ASCII, so a run always ends on a char
//!   boundary.
//! * **Bounded nesting.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   deep; a deeper document is an error, not a stack overflow that would
//!   take the whole daemon down.
//! * **Strict numbers.** Numbers follow RFC 8259 exactly: `-0`, `0.5`,
//!   `1e5` and `1E+2` parse; `+1`, `01`, `.5`, `1.`, `-.5` and `-` are
//!   errors.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Json::parse`] accepts. Real frames
/// nest at most five deep (batch → request → profile → rows → row); the
/// cap only exists so a hostile frame cannot recurse the reader off its
/// stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not semantic; a sorted map keeps lookups
    /// and re-emission deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (rejects negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a `usize` (rejects negatives).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}, found `{}`",
            ch as char,
            pos,
            bytes.get(*pos).map(|&b| b as char).unwrap_or('∅')
        ))
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !is_rfc8259_number(text.as_bytes()) {
        return Err(format!("bad number `{text}` at byte {start}"));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Json::Int(n));
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

/// True when `t` is exactly RFC 8259's `-? int frac? exp?`: no leading
/// `+`, no leading zeros, and at least one digit after a `-`, after a
/// `.`, and in an exponent.
fn is_rfc8259_number(t: &[u8]) -> bool {
    let digits = |i: &mut usize| {
        let from = *i;
        while t.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    let mut i = usize::from(t.first() == Some(&b'-'));
    match t.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if t.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(t.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == t.len()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of plain bytes up to the next delimiter in one step.
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let plain =
            std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8 in string".to_string())?;
        out.push_str(plain);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
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
                        let ch = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err("bad low surrogate".to_string());
                            }
                            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code).ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or("bad \\u escape")?
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => return Err("raw control character in string".to_string()),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[start..end]).map_err(|_| "bad \\u escape")?;
    // `from_str_radix` would also take a sign (`\u+041`); JSON takes 4 hex digits.
    if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad \\u escape `{text}`"));
    }
    let n = u32::from_str_radix(text, 16).expect("four hex digits");
    *pos = end - 1;
    Ok(n)
}

/// Escapes `s` as a JSON string literal body. Delegates to the one shared
/// escaper ([`abcd::json_escape`]) so every emitter in the workspace agrees
/// with this parser, byte for byte.
pub fn escape(s: &str) -> String {
    abcd::json_escape(s)
}

/// Appends `s`, escaped as by [`escape`], to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    abcd::json_escape_into(out, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(r#"{"a":[1,-2,3.5,null,true],"b":{"c":"x\ny"},"d":false}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1], Json::Int(-2));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2], Json::Float(3.5));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote \" slash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap().as_str(),
            Some("é😀")
        );
        assert!(Json::parse("\"\\u+041\"").is_err(), "no sign in \\u");
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(
            Json::parse("\"\\ud83d\\u0041\"").is_err(),
            "bad low surrogate"
        );
        assert!(Json::parse("\"\\u12\"").is_err(), "truncated \\u");
    }

    fn parse_str(doc: &str) -> Result<String, String> {
        match Json::parse(doc)? {
            Json::Str(s) => Ok(s),
            other => panic!("{doc:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn multibyte_text_around_escapes_and_at_the_ends() {
        let cases = [
            (r#""é\n😀""#, "é\n😀"),
            (r#""😀\"é""#, "😀\"é"),
            (r#""é""#, "é"),
            (r#""😀abcé""#, "😀abcé"),
            (r#""\u00e9é\ud83d\ude00😀""#, "éé😀😀"),
            (r#""\té""#, "\té"),
            (r#""é\\""#, "é\\"),
        ];
        for (doc, want) in cases {
            assert_eq!(parse_str(doc).as_deref(), Ok(want), "{doc}");
        }
    }

    #[test]
    fn escape_as_first_and_last_character() {
        assert_eq!(parse_str(r#""\nabc""#).as_deref(), Ok("\nabc"));
        assert_eq!(parse_str(r#""abc\n""#).as_deref(), Ok("abc\n"));
        assert_eq!(parse_str(r#""\"""#).as_deref(), Ok("\""));
        assert_eq!(parse_str(r#""\u0041""#).as_deref(), Ok("A"));
        assert_eq!(parse_str(r#""""#).as_deref(), Ok(""));
    }

    #[test]
    fn string_errors_survive_the_run_scan() {
        let long = "x".repeat(10_000);
        let err = parse_str(&format!("\"{long}\u{1}{long}\"")).unwrap_err();
        assert!(err.contains("raw control character"), "{err}");
        let err = parse_str(&format!("\"{long}é\n\"")).unwrap_err();
        assert!(err.contains("raw control character"), "{err}");
        let err = parse_str(&format!("\"{long}é")).unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
        let err = parse_str(&format!("\"{long}\\q\"")).unwrap_err();
        assert!(err.contains("bad escape"), "{err}");
        let err = parse_str(&format!("\"{long}\\")).unwrap_err();
        assert!(err.contains("bad escape"), "{err}");
    }

    /// Every string of up to four characters over an alphabet of plain
    /// ASCII, 2- and 4-byte UTF-8, both escaped ASCII characters, a
    /// named-escape control and a `\u`-escape control survives
    /// `escape` → `parse` unchanged.
    #[test]
    fn exhaustive_short_string_round_trip() {
        const ALPHABET: [char; 7] = ['a', 'é', '😀', '"', '\\', '\n', '\u{1}'];
        let mut strings = vec![String::new()];
        let mut frontier = strings.clone();
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|s| {
                    ALPHABET.iter().map(move |&c| {
                        let mut t = s.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
            strings.extend(frontier.iter().cloned());
        }
        assert_eq!(strings.len(), 1 + 7 + 49 + 343 + 2401);
        for s in &strings {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse_str(&doc).as_deref(), Ok(s.as_str()), "{doc}");
        }
    }

    /// A 16 MiB string body parses, and parses to the right text. Under a
    /// per-character re-validation of the rest of the frame this would be
    /// quadratic; no timing is asserted, the test just has to finish.
    #[test]
    fn sixteen_mib_string_body_parses() {
        let unit = "plain run é 😀 with an escape\n ";
        let text = unit.repeat((16 << 20) / unit.len() + 1);
        assert!(text.len() >= 16 << 20);
        let doc = format!("\"{}\"", escape(&text));
        assert_eq!(parse_str(&doc).unwrap(), text);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .contains("nesting deeper"));
        // Far past the cap is the same structured error, not a stack overflow.
        assert!(Json::parse(&nested(200_000))
            .unwrap_err()
            .contains("nesting deeper"));
    }

    #[test]
    fn accepts_rfc8259_numbers() {
        let cases = [
            ("-0", Json::Int(0)),
            ("0", Json::Int(0)),
            ("-12", Json::Int(-12)),
            ("0.5", Json::Float(0.5)),
            ("1e5", Json::Float(1e5)),
            ("1E+2", Json::Float(100.0)),
            ("-1.25e-2", Json::Float(-0.0125)),
            ("10", Json::Int(10)),
        ];
        for (doc, want) in cases {
            assert_eq!(Json::parse(doc), Ok(want), "{doc}");
        }
    }

    #[test]
    fn rejects_non_rfc8259_numbers() {
        for doc in [
            "+1", "01", "-01", ".5", "1.", "-.5", "-", "1e", "1e+", "1.e3", "--1", "1-2",
        ] {
            assert!(Json::parse(doc).is_err(), "{doc} must be rejected");
            assert!(
                Json::parse(&format!("[{doc}]")).is_err(),
                "[{doc}] must be rejected"
            );
        }
    }
}

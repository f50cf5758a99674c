//! The JSON format: a [`Writer`] that appends compact or pretty JSON to a `String`,
//! and a [`Reader`] that pulls tokens straight from the input bytes.
//!
//! Decoding is linear in the input's length: every byte is looked at a bounded
//! number of times, and each run of plain string bytes is copied with one
//! `push_str`. Arrays and objects nest at most [`MAX_DEPTH`] deep, so no input can
//! recurse the reader deeper than that. Out-of-range numbers and unpaired UTF-16
//! surrogates are errors.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{Deserialize, Error, Serialize};

/// The deepest nesting of arrays and objects the reader accepts (real serde_json
/// uses the same limit).
pub const MAX_DEPTH: usize = 128;

/// Serialize `value` as JSON: compact, or pretty (two-space indent, `": "` after
/// keys, `[]` and `{}` when empty).
pub fn to_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut writer = Writer {
        out: String::new(),
        pretty,
        depth: 0,
        first: true,
    };
    value.serialize(&mut writer);
    writer.out
}

/// Deserialize a `T` from a whole JSON document.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut reader = Reader {
        input,
        pos: 0,
        depth: 0,
        first: true,
    };
    let value = T::deserialize(&mut reader)?;
    reader.skip_ws();
    if reader.pos != input.len() {
        return Err(reader.error("trailing characters"));
    }
    Ok(value)
}

/// `slot`'s value, or a missing-field error naming `key`.
pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, Error> {
    slot.ok_or_else(|| Error::custom(format!("missing field `{key}`")))
}

/// Appends JSON to a `String`, tracking the commas between elements.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// No element was written yet in the innermost open container.
    first: bool,
}

impl Writer {
    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, value: u64) {
        let _ = write!(self.out, "{value}");
    }

    /// Write a signed integer.
    pub fn i64(&mut self, value: i64) {
        let _ = write!(self.out, "{value}");
    }

    /// Write a float as its shortest round-trip text (always with a `.0` or an
    /// exponent); a non-finite float, which JSON cannot spell, as `null`.
    pub fn f64(&mut self, value: f64) {
        if value.is_finite() {
            let _ = write!(self.out, "{value:?}");
        } else {
            self.null();
        }
    }

    /// Write a string, escaping `"`, `\` and control characters.
    pub fn str(&mut self, value: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, byte) in value.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so each run ends on a char boundary.
            self.out.push_str(&value[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&value[run..]);
        self.out.push('"');
    }

    /// Open an array; write each element after [`Writer::element`].
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Start the next array element.
    pub fn element(&mut self) {
        self.separate();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Open an object; write each member as [`Writer::key`] and then its value.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Start the next object member with its key.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Write one object member.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.serialize(self);
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        // The enclosing container, if any, has written the element just closed.
        self.first = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}

/// The kind of the next JSON value, as [`Reader::peek`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// Pulls JSON tokens from the input bytes.
pub struct Reader<'a> {
    input: &'a str,
    /// Always on a char boundary: it only ever steps over ASCII bytes and over
    /// string runs that end at an ASCII delimiter.
    pos: usize,
    depth: usize,
    /// No element was read yet from the innermost open container.
    first: bool,
}

impl<'a> Reader<'a> {
    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<Token, Error> {
        self.skip_ws();
        match self.input.as_bytes().get(self.pos) {
            Some(b'n') => Ok(Token::Null),
            Some(b't' | b'f') => Ok(Token::Bool),
            Some(b'"') => Ok(Token::String),
            Some(b'[') => Ok(Token::Array),
            Some(b'{') => Ok(Token::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(Error::custom("unexpected end of JSON input")),
        }
    }

    /// Consume a `null` if one is next; say whether it was.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek()? != Token::Null {
            return Ok(false);
        }
        self.keyword("null").map(|()| true)
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        self.expect_token(Token::Bool, "bool")?;
        if self.input.as_bytes()[self.pos] == b't' {
            self.keyword("true").map(|()| true)
        } else {
            self.keyword("false").map(|()| false)
        }
    }

    /// Read a number as an unsigned integer: integer text in range, or an integral
    /// float below 2^64. Anything else is an error.
    pub fn u64(&mut self) -> Result<u64, Error> {
        let text = self.number("unsigned integer")?;
        if is_integer(text) {
            return text.parse().map_err(|_| out_of_range(text, "u64"));
        }
        match float(text)? {
            x if x >= 0.0 && x.fract() == 0.0 && x < 18_446_744_073_709_551_616.0 => Ok(x as u64),
            _ => Err(out_of_range(text, "u64")),
        }
    }

    /// Read a number as a signed integer: integer text in range, or an integral
    /// float in [-2^63, 2^63). Anything else is an error.
    pub fn i64(&mut self) -> Result<i64, Error> {
        const BOUND: f64 = 9_223_372_036_854_775_808.0;
        let text = self.number("integer")?;
        if is_integer(text) {
            return text.parse().map_err(|_| out_of_range(text, "i64"));
        }
        match float(text)? {
            x if x.fract() == 0.0 && (-BOUND..BOUND).contains(&x) => Ok(x as i64),
            _ => Err(out_of_range(text, "i64")),
        }
    }

    /// Read any number as a float.
    pub fn f64(&mut self) -> Result<f64, Error> {
        float(self.number("number")?)
    }

    /// Read a string. It borrows from the input unless it holds escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect_token(Token::String, "string")?;
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let rest = &self.input.as_bytes()[start..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::custom("unterminated string in JSON input"))?;
            // Both delimiters are ASCII, so the run ends on a char boundary.
            let run = &self.input[start..start + len];
            self.pos = start + len + 1;
            if rest[len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            }
            let text = owned.get_or_insert_with(String::new);
            text.push_str(run);
            text.push(self.escape()?);
        }
    }

    /// Open an array; read its elements while [`Reader::next_element`] says so.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect_token(Token::Array, "array")?;
        self.open()
    }

    /// Whether another element follows; `false` consumes the closing `]`.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next(b']')
    }

    /// The next element of an array that must hold `len` elements.
    pub fn element<T: Deserialize>(&mut self, len: usize) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(Error::custom(format!("expected {len}-element array")));
        }
        T::deserialize(self)
    }

    /// Close an array that must hold `len` elements, all of them read.
    pub fn end_array(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            return Err(Error::custom(format!("expected {len}-element array")));
        }
        Ok(())
    }

    /// Open an object; read its members while [`Reader::next_key`] yields keys.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect_token(Token::Object, "object")?;
        self.open()
    }

    /// The next member's key, with its `:` consumed; `None` consumes the closing
    /// `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Read a member's value into `slot`; a repeated key keeps its first value, and
    /// later ones are skipped.
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>) -> Result<(), Error> {
        match slot {
            Some(_) => self.skip(),
            None => T::deserialize(self).map(|value| *slot = Some(value)),
        }
    }

    /// Begin a value of the externally tagged enum `name`: a string names a unit
    /// variant (`false`); an object with one key names a data variant (`true`),
    /// whose value is read next and followed by [`Reader::end_variant`].
    pub fn variant(&mut self, name: &str) -> Result<(Cow<'a, str>, bool), Error> {
        if self.peek()? == Token::String {
            return Ok((self.str()?, false));
        }
        self.expect_token(Token::Object, &format!("enum {name}"))?;
        self.open()?;
        match self.next_key()? {
            Some(tag) => Ok((tag, true)),
            None => Err(Error::custom(format!("expected enum {name}, found {{}}"))),
        }
    }

    /// Close a data variant's object, which must have no second key.
    pub fn end_variant(&mut self) -> Result<(), Error> {
        if self.next(b'}')? {
            return Err(self.error("expected a single-key variant object"));
        }
        Ok(())
    }

    /// Read and discard one value of any kind.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Token::Null => self.null().map(drop),
            Token::Bool => self.bool().map(drop),
            Token::Number => self.f64().map(drop),
            Token::String => self.str().map(drop),
            Token::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Token::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    fn expect_token(&mut self, token: Token, expected: &str) -> Result<(), Error> {
        let found = self.peek()?;
        if found != token {
            return Err(Error::custom(format!(
                "expected {expected}, found {found:?}"
            )));
        }
        Ok(())
    }

    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    fn next(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let bytes = self.input.as_bytes();
        if bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            self.depth -= 1;
            // The enclosing container, if any, has read the element just closed.
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else if bytes.get(self.pos) == Some(&b',') {
            self.pos += 1;
        } else {
            return Err(self.error(&format!("expected `,` or `{}`", close as char)));
        }
        Ok(true)
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.input.as_bytes().get(self.pos) != Some(&byte) {
            return Err(self.error(&format!("expected `{}`", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, keyword: &str) -> Result<(), Error> {
        if !self.input[self.pos..].starts_with(keyword) {
            return Err(self.error("invalid literal"));
        }
        self.pos += keyword.len();
        Ok(())
    }

    /// The text of the next number, which must be one.
    fn number(&mut self, expected: &str) -> Result<&'a str, Error> {
        self.expect_token(Token::Number, expected)?;
        let start = self.pos;
        let rest = &self.input.as_bytes()[start + 1..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        self.pos = start + 1 + len;
        Ok(&self.input[start..self.pos])
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let byte = self.input.as_bytes().get(self.pos).copied();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unpaired = || Error::custom("unpaired surrogate in JSON string");
                let code = match self.hex4()? {
                    high @ 0xD800..=0xDBFF => {
                        if !self.input[self.pos..].starts_with("\\u") {
                            return Err(unpaired());
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xDC00..=0xDFFF => {
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            }
                            _ => return Err(unpaired()),
                        }
                    }
                    code => code,
                };
                // A lone low surrogate is the only code here that is not a char.
                char::from_u32(code).ok_or_else(unpaired)?
            }
            _ => return Err(Error::custom("invalid escape in JSON string")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .input
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape in JSON string"))?;
        let mut value = 0;
        for &digit in digits {
            let nibble = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| Error::custom("invalid \\u escape in JSON string"))?;
            value = value << 4 | nibble;
        }
        self.pos += 4;
        Ok(value)
    }

    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {} of JSON input", self.pos))
    }
}

fn is_integer(text: &str) -> bool {
    !text.contains(['.', 'e', 'E'])
}

fn out_of_range(text: &str, target: &str) -> Error {
    Error::custom(format!("`{text}` is not a valid {target}"))
}

/// A number's value as a float; one beyond `f64`'s range, which would read as an
/// infinity that JSON cannot spell, is an error.
fn float(text: &str) -> Result<f64, Error> {
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        Ok(_) => Err(out_of_range(text, "f64")),
        Err(_) => Err(Error::custom(format!("invalid number `{text}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::time::Duration;

    fn reader(input: &str) -> Reader<'_> {
        Reader {
            input,
            pos: 0,
            depth: 0,
            first: true,
        }
    }

    /// A JSON string literal spelling each UTF-16 code unit as a `\u` escape.
    fn escaped(units: &[u32], tail: &str) -> String {
        let escapes: String = units.iter().map(|u| format!("\\u{u:04x}")).collect();
        format!("\"{escapes}{tail}\"")
    }

    #[test]
    fn round_trips_scalars_and_containers() {
        type Doc = HashMap<String, (Vec<Option<f64>>, String, bool)>;
        let text = r#"{"a": [[1, -2, 3.5, null], "x\n\"y\"", true], "b": [[], "", false]}"#;
        let doc: Doc = from_str(text).unwrap();
        assert_eq!(doc["a"].0, [Some(1.0), Some(-2.0), Some(3.5), None]);
        assert_eq!(doc["a"].1, "x\n\"y\"");
        assert_eq!(from_str::<Doc>(&to_string(&doc, false)).unwrap(), doc);
        assert_eq!(from_str::<Doc>(&to_string(&doc, true)).unwrap(), doc);
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "not json", "[1,]", "[,1]", "[1 2]", "[1", "\"open", "01x", "-", "[]]",
        ] {
            assert!(from_str::<Vec<u32>>(text).is_err(), "{text}");
        }
        assert!(from_str::<HashMap<String, u32>>("{\"a\":}").is_err());
        assert!(from_str::<HashMap<String, u32>>("{\"a\":1,}").is_err());
        assert!(from_str::<u32>("not json").is_err());
    }

    #[test]
    fn pretty_form_indents_two_spaces_and_keeps_empty_containers_inline() {
        let doc: HashMap<String, Vec<Vec<u8>>> =
            [("value".to_string(), vec![vec![], vec![7]])].into();
        assert_eq!(
            to_string(&doc, true),
            "{\n  \"value\": [\n    [],\n    [\n      7\n    ]\n  ]\n}"
        );
        assert_eq!(to_string(&doc, false), r#"{"value":[[],[7]]}"#);
        assert_eq!(to_string(&HashMap::<String, u8>::new(), true), "{}");
    }

    #[test]
    fn surrogates_must_pair() {
        let read = |text: String| from_str::<String>(&text);
        for (units, tail) in [
            (&[0xd800, 0x41][..], ""),
            (&[0xd800, 0xe000], ""),
            (&[0xd800], "A"),
            (&[0xd800], ""),
            (&[0xdc00], ""),
            (&[0xdbff, 0xd800], ""),
            (&[0xdfff, 0xd800], ""),
        ] {
            assert!(read(escaped(units, tail)).is_err(), "{units:x?} {tail}");
        }
        assert_eq!(read(escaped(&[0xd800, 0xdc00], "")).unwrap(), "\u{10000}");
        assert_eq!(read(escaped(&[0xdbff, 0xdfff], "")).unwrap(), "\u{10FFFF}");
        assert_eq!(read(escaped(&[0xd834, 0xdd1e], "!")).unwrap(), "\u{1D11E}!");
        assert_eq!(
            read(escaped(&[0xd7ff, 0xe000], "")).unwrap(),
            "\u{D7FF}\u{E000}"
        );
    }

    /// Each number either reads as the stated value or is refused; none is
    /// saturated, wrapped or truncated.
    #[test]
    fn out_of_range_numbers_are_errors() {
        fn read<T: Deserialize>(text: &str) -> Option<T> {
            from_str(text).ok()
        }
        assert_eq!(read::<u64>("18446744073709551615"), Some(u64::MAX));
        assert_eq!(read::<u64>("18446744073709551616"), None);
        assert_eq!(read::<u64>("1.8446744073709552e19"), None); // 2^64
        assert_eq!(
            read::<u64>("1.844674407370955e19"),
            Some(18446744073709549568)
        );
        assert_eq!(read::<u64>("1e2"), Some(100));
        assert_eq!(read::<u64>("1.5"), None);
        assert_eq!(read::<u64>("-1"), None);
        assert_eq!(read::<u64>("-0.0"), Some(0));
        assert_eq!(read::<i64>("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(read::<i64>("-9223372036854775809"), None);
        assert_eq!(read::<i64>("9223372036854775808"), None);
        assert_eq!(read::<i64>("9.223372036854775807e18"), None); // rounds to 2^63
        assert_eq!(read::<i64>("-9.223372036854775808e18"), Some(i64::MIN));
        assert_eq!(read::<u32>("4294967296"), None);
        assert_eq!(read::<u8>("256"), None);
        assert_eq!(read::<i8>("-129"), None);
        assert_eq!(
            read::<f64>("18446744073709551616"),
            Some(18446744073709551616.0)
        );
        assert_eq!(read::<f64>("1e999"), None);
        assert_eq!(read::<f64>("-1e999"), None);
        assert_eq!(read::<f64>("1e-999"), Some(0.0));

        let duration = |text: &str| read::<Duration>(text);
        assert_eq!(
            duration(r#"{"secs":18446744073709551615,"nanos":999999999}"#),
            Some(Duration::MAX)
        );
        assert_eq!(
            duration(r#"{"secs":18446744073709551615,"nanos":1000000000}"#),
            None
        );
        assert_eq!(duration(r#"{"secs":1,"nanos":4294967301}"#), None);
        assert_eq!(duration(r#"{"secs":1,"nanos":-1}"#), None);
        assert_eq!(
            duration(r#"{"nanos":1500000000,"secs":1}"#),
            Some(Duration::from_millis(2500))
        );
        assert_eq!(duration(r#"{"secs":1}"#), None);
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_refused() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = nested(MAX_DEPTH);
        let mut ok = reader(&deepest);
        ok.skip().unwrap();
        assert_eq!(ok.pos, ok.input.len());
        let deep = nested(MAX_DEPTH + 1);
        let error = reader(&deep).skip().unwrap_err();
        assert!(
            error.to_string().contains("nesting deeper than 128"),
            "{error}"
        );
        // An unknown member's value is skipped under the same limit.
        let member = format!("{{\"x\":{}}}", nested(MAX_DEPTH));
        assert!(reader(&member).skip().is_err());
        // A typed read stops at the first element whose type does not match.
        assert!(from_str::<Vec<u8>>(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn strings_escape_controls_and_read_back() {
        let text = "\u{0}\u{1f}\"\\/\u{8}\u{c}\r\t\n\u{7f}€𝄞";
        let json = to_string(text, false);
        let expected = format!(
            "\"{}{}\\\"\\\\/{}{}\\r\\t\\n\u{7f}€𝄞\"",
            "\\u0000", "\\u001f", "\\u0008", "\\u000c"
        );
        assert_eq!(json, expected);
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        assert_eq!(
            from_str::<String>(r#""\/\b\fé€""#).unwrap(),
            "/\u{8}\u{c}é€"
        );
        for bad in [r#""\x""#, "\"\\u12\"", "\"\\u12g4\"", "\"\\", "\"\\u00e9"] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }
}

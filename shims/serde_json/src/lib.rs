//! A minimal, dependency-free stand-in for the `serde_json` crate, used
//! because this workspace builds without network access to crates.io.
//!
//! The serialization half — [`to_string`], [`to_string_pretty`], and the
//! [`Value`] re-export — covers the experiment harness writing JSON records
//! under `results/`. A small recursive-descent parser ([`from_str`])
//! covers reading JSON back (used by the HTTP gateway's request bodies and
//! by the benchmark). The parser handles the full JSON grammar the writer
//! emits: objects, arrays, strings with escapes, integers, floats, booleans
//! and null.

pub use serde::json::Value;

/// Serialization or parse error.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn parse(message: impl Into<String>, offset: usize) -> Self {
        Self(format!("{} at byte {offset}", message.into()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Parses a JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] on malformed input or trailing non-whitespace.
pub fn from_str(input: &str) -> Result<Value> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::parse("trailing characters", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected '{}'", byte as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::parse(format!("expected '{word}'"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::parse("expected a JSON value", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            entries.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::parse("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| Error::parse("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::parse("bad \\u escape", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::parse("bad \\u escape", self.pos))?;
                            self.pos = end;
                            // Surrogate pairs are not produced by the shim's
                            // writer; map lone surrogates to the replacement
                            // character like serde_json's lossy readers.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::parse(
                                format!("unknown escape '\\{}'", other as char),
                                self.pos,
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume the whole run of ordinary characters up to
                    // the next quote or escape in one step. UTF-8
                    // continuation bytes are >= 0x80, so scanning for the
                    // ASCII delimiters can never split a multi-byte
                    // character, and the input came in as a &str so the
                    // run is valid UTF-8.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chunk = std::str::from_utf8(&rest[..run])
                        .map_err(|_| Error::parse("invalid UTF-8", self.pos))?;
                    out.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse("invalid number", start))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse("invalid number", start))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::parse("invalid number", start))
        }
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value as compact single-line JSON.
pub fn to_string<T>(value: &T) -> Result<String>
where
    T: ?Sized + serde::Serialize,
{
    Ok(value.to_value().to_string_compact())
}

/// Serializes a value as pretty-printed JSON with two-space indentation.
pub fn to_string_pretty<T>(value: &T) -> Result<String>
where
    T: ?Sized + serde::Serialize,
{
    Ok(value.to_value().to_string_pretty())
}

/// Converts a value to a [`Value`] tree.
pub fn to_value<T>(value: &T) -> Result<Value>
where
    T: ?Sized + serde::Serialize,
{
    Ok(value.to_value())
}

#[cfg(test)]
mod tests {
    use serde::Serialize;

    #[derive(Serialize)]
    struct Record {
        id: String,
        score: f64,
        tags: Vec<&'static str>,
    }

    #[test]
    fn derived_struct_serializes_to_json() {
        let r = Record {
            id: "fig5".to_string(),
            score: 0.25,
            tags: vec!["tpot", "latency"],
        };
        let json = super::to_string(&r).unwrap();
        assert_eq!(
            json,
            "{\"id\":\"fig5\",\"score\":0.25,\"tags\":[\"tpot\",\"latency\"]}"
        );
    }

    #[derive(Serialize)]
    enum Kind {
        Unit,
        Payload { n: usize },
    }

    #[test]
    fn derived_enum_uses_external_tagging() {
        assert_eq!(super::to_string(&Kind::Unit).unwrap(), "\"Unit\"");
        assert_eq!(
            super::to_string(&Kind::Payload { n: 4 }).unwrap(),
            "{\"Payload\":{\"n\":4}}"
        );
    }

    #[derive(Serialize)]
    struct Newtype(u16);

    #[test]
    fn newtype_structs_serialize_transparently() {
        assert_eq!(super::to_string(&Newtype(7)).unwrap(), "7");
    }

    #[derive(Serialize)]
    struct Generic<T: serde::Serialize> {
        rows: T,
    }

    #[test]
    fn generic_structs_serialize() {
        let g = Generic {
            rows: vec![1u32, 2, 3],
        };
        assert_eq!(super::to_string(&g).unwrap(), "{\"rows\":[1,2,3]}");
    }

    #[rustfmt::skip]
    #[derive(Serialize)]
    struct TrailingComma(u32, u32,);

    #[test]
    fn tuple_struct_with_trailing_comma_counts_fields_correctly() {
        assert_eq!(super::to_string(&TrailingComma(1, 2)).unwrap(), "[1,2]");
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let r = Record {
            id: "fig5 \"quoted\"\nline".to_string(),
            score: -0.25,
            tags: vec!["tpot", "latency"],
        };
        for json in [
            super::to_string(&r).unwrap(),
            super::to_string_pretty(&r).unwrap(),
        ] {
            let value = super::from_str(&json).unwrap();
            assert_eq!(value, r.to_value());
        }
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        use super::Value;
        assert_eq!(super::from_str("null").unwrap(), Value::Null);
        assert_eq!(super::from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(super::from_str("-17").unwrap(), Value::Int(-17));
        assert_eq!(super::from_str("2.5e3").unwrap(), Value::Float(2500.0));
        assert_eq!(
            super::from_str(" [1, {\"a\": []}] ").unwrap(),
            Value::Array(vec![
                Value::Int(1),
                Value::Object(vec![("a".to_string(), Value::Array(vec![]))]),
            ])
        );
        assert_eq!(
            super::from_str("\"\\u0041\"").unwrap(),
            Value::String("A".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(super::from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[derive(Serialize)]
    struct WhereBound<T>(T)
    where
        T: serde::Serialize;

    #[test]
    fn tuple_struct_where_clause_is_kept_on_the_impl() {
        assert_eq!(super::to_string(&WhereBound(9u8)).unwrap(), "9");
    }

    #[derive(Serialize)]
    struct Skipped {
        kept: bool,
        #[serde(skip)]
        gone: Vec<u8>,
    }

    #[test]
    fn serde_skip_omits_the_field() {
        let s = Skipped {
            kept: true,
            gone: vec![1],
        };
        assert_eq!(s.gone.len(), 1);
        assert_eq!(super::to_string(&s).unwrap(), "{\"kept\":true}");
    }
}

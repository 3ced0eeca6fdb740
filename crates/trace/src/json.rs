//! The workspace's one JSON module: a small value tree, a strict parser
//! and a pretty printer, all std-only.
//!
//! Three things go through it: Chrome trace re-import
//! ([`crate::parse_chrome_trace`]), the §3.5 DeepSpeed-style engine
//! configuration (`EngineConfig::from_deepspeed_json`), and every JSON
//! document the bench binaries write (`repro --json`, the committed
//! `BENCH_*.json` files). Objects keep their fields in insertion
//! order and [`Value::pretty`] prints them two-space indented — the layout
//! of the committed files, so parse → print is byte-identical on them
//! and a regenerated file diffs in values only.

/// A JSON value. Integers stay integers (`12`, not `12.0`) so counts and
/// byte totals print the way they were written.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The field `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, integer or not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation, fields in insertion
    /// order; no trailing newline. Non-finite numbers print as `null`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push_str(&format!("\"{}\": ", escape(key)));
                    value.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

macro_rules! value_from {
    ($($variant:ident: $($ty:ty),+;)+) => {$($(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::$variant(v.into())
            }
        }
    )+)+};
}
value_from! {
    Bool: bool;
    Num: f64;
    Str: String, &str;
}

impl From<u64> for Value {
    /// Counts and byte totals; one past `i64::MAX` degrades to a float.
    fn from(v: u64) -> Value {
        i64::try_from(v).map_or(Value::Num(v as f64), Value::Int)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

/// Collects rows into an array: `rows.iter().map(Value::from).collect()`.
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().collect())
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and its input comes from outside the program (user
/// configuration, imported traces), so unbounded nesting is a stack
/// overflow; nothing the workspace reads or writes nests past six.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object, one level further down.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
        {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.err("non-UTF-8 number"))?;
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let len = match b {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn committed_baselines_round_trip_byte_identically() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("workspace root") {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read baseline");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                doc.pretty() + "\n",
                text,
                "{name} must re-print byte-identically"
            );
            seen += 1;
        }
        assert_eq!(seen, 2, "two committed BENCH_*.json files");
    }

    #[test]
    fn integers_and_floats_keep_their_spelling() {
        let doc = parse(r#"{"b": 1.0, "a": 12, "c": [], "d": {}, "e": -0.15, "f": 741442682880}"#)
            .expect("valid");
        assert_eq!(doc.get("a"), Some(&Value::Int(12)));
        assert_eq!(doc.get("b"), Some(&Value::Num(1.0)));
        assert_eq!(
            doc.pretty(),
            "{\n  \"b\": 1.0,\n  \"a\": 12,\n  \"c\": [],\n  \"d\": {},\n  \"e\": -0.15,\n  \"f\": 741442682880\n}"
        );
    }

    #[test]
    fn builders_keep_field_order_escape_strings_and_null_out_non_finite() {
        let doc = Value::obj([
            ("z", Value::from("quote \" and — dash\n")),
            ("a", Value::from(3usize)),
            (
                "m",
                [Value::from(true), Value::from(f64::NAN)]
                    .into_iter()
                    .collect(),
            ),
        ]);
        let text = doc.pretty();
        assert_eq!(
            text,
            "{\n  \"z\": \"quote \\\" and — dash\\n\",\n  \"a\": 3,\n  \"m\": [\n    true,\n    null\n  ]\n}"
        );
        // What the printer writes, the parser reads back (NaN became null).
        let back = parse(&text).expect("valid");
        assert_eq!(
            back.get("z").and_then(Value::as_str),
            Some("quote \" and — dash\n")
        );
        assert_eq!(Value::from(u64::MAX), Value::Num(u64::MAX as f64));
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,2,",
            "nul",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "{} x",
            "[1e999x]",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_and_the_error_names_the_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for bad in [nested(MAX_DEPTH + 1), "[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = parse(&bad).expect_err("too deep");
            assert!(err.contains("deeper than 128 levels"), "{err}");
        }
    }
}

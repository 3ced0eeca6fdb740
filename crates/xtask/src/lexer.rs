//! A minimal Rust lexer for the invariant linter.
//!
//! The rules in [`crate::rules`] are textual, so they need source text
//! with the two classic false-positive channels separated out:
//!
//! * the **code channel** — the source with comment text and
//!   string/char-literal *contents* blanked to spaces (delimiters are
//!   kept so column positions line up with the original), and
//! * the **comment channel** — only comment text, everything else
//!   blanked — where `// relaxed-ok:`, `// lint:hot-root` and
//!   `// lint:allow(...)` annotations live.
//!
//! The lexer understands line comments, nested block comments, string
//! and byte-string literals with escapes, raw (byte) strings with any
//! number of `#`s, char/byte-char literals, and the char-vs-lifetime
//! ambiguity (`'a'` vs `&'a`). It does not attempt full tokenization —
//! masking is all the rules need.
//!
//! The semantic pass ([`crate::parser`]) additionally needs the *text*
//! of string literals (meter names like `"aio.{backend}.reads"` live
//! there), so [`mask`] also records every string literal it blanks as a
//! [`Literal`] with its opening position.

/// One string literal captured during masking: the line/column of its
/// opening `"` (0-based) and its raw content (escapes unprocessed,
/// delimiters and any `r#` prefix excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    pub line: usize,
    pub col: usize,
    pub text: String,
}

/// Per-line views of a source file, split into channels.
pub struct Masked {
    /// Code channel: comments and literal contents replaced by spaces.
    pub code: Vec<String>,
    /// Comment channel: comment text only (markers kept), rest spaces.
    pub comments: Vec<String>,
    /// Every string literal, in source order (char literals excluded).
    pub literals: Vec<Literal>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the current depth.
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Split `src` into the code and comment channels, line by line.
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments = String::with_capacity(src.len());
    let mut literals: Vec<Literal> = Vec::new();
    // Current string literal under construction: (line, col, text).
    let mut cur_lit: Option<(usize, usize, String)> = None;
    let mut state = State::Code;
    let mut i = 0usize;
    // 0-based position of the *next* char to emit, for literal capture.
    let mut line = 0usize;
    let mut col = 0usize;

    // Push one source char to the right channel, a space to the other.
    // Newlines go to both so the line structures stay aligned.
    macro_rules! emit {
        (code $c:expr) => {{
            code.push($c);
            comments.push(if $c == '\n' { '\n' } else { ' ' });
            emit!(@advance $c);
        }};
        (blank $c:expr) => {{
            let fill = if $c == '\n' { '\n' } else { ' ' };
            code.push(fill);
            comments.push(fill);
            emit!(@advance $c);
        }};
        (comment $c:expr) => {{
            comments.push($c);
            code.push(if $c == '\n' { '\n' } else { ' ' });
            emit!(@advance $c);
        }};
        (@advance $c:expr) => {{
            if $c == '\n' {
                line += 1;
                col = 0;
            } else {
                col += 1;
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    emit!(comment '/');
                    emit!(comment '/');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    emit!(comment '/');
                    emit!(comment '*');
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    cur_lit = Some((line, col, String::new()));
                    emit!(code '"');
                    i += 1;
                }
                'r' | 'b' if starts_raw_string(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = State::RawStr(hashes);
                    cur_lit = Some((line, col, String::new()));
                    for k in 0..consumed {
                        emit!(code chars[i + k]);
                    }
                    i += consumed;
                }
                'b' if next == Some('"') && !ident_tail(&chars, i) => {
                    state = State::Str;
                    cur_lit = Some((line, col, String::new()));
                    emit!(code 'b');
                    emit!(code '"');
                    i += 2;
                }
                'b' if next == Some('\'') && !ident_tail(&chars, i) => {
                    state = State::Char;
                    emit!(code 'b');
                    emit!(code '\'');
                    i += 2;
                }
                '\'' => {
                    if is_char_literal(&chars, i) {
                        state = State::Char;
                        emit!(code '\'');
                        i += 1;
                    } else {
                        // Lifetime (`'a`) or label (`'outer:`): plain code.
                        emit!(code '\'');
                        i += 1;
                    }
                }
                _ => {
                    emit!(code c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    emit!(comment '\n');
                } else {
                    emit!(comment c);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    emit!(comment '/');
                    emit!(comment '*');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    emit!(comment '*');
                    emit!(comment '/');
                    i += 2;
                } else {
                    emit!(comment c);
                    i += 1;
                }
            }
            State::Str => match c {
                '\\' => {
                    // Skip the escaped char (covers \" and \\).
                    if let Some(l) = cur_lit.as_mut() {
                        l.2.push('\\');
                        l.2.extend(next);
                    }
                    emit!(blank '\\');
                    if let Some(n) = next {
                        emit!(blank n);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '"' => {
                    state = State::Code;
                    if let Some((ll, lc, text)) = cur_lit.take() {
                        literals.push(Literal { line: ll, col: lc, text });
                    }
                    emit!(code '"');
                    i += 1;
                }
                _ => {
                    if let Some(l) = cur_lit.as_mut() {
                        l.2.push(c);
                    }
                    emit!(blank c);
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    if let Some((ll, lc, text)) = cur_lit.take() {
                        literals.push(Literal { line: ll, col: lc, text });
                    }
                    emit!(code '"');
                    for k in 0..hashes as usize {
                        emit!(code chars[i + 1 + k]);
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    if let Some(l) = cur_lit.as_mut() {
                        l.2.push(c);
                    }
                    emit!(blank c);
                    i += 1;
                }
            }
            State::Char => match c {
                '\\' => {
                    emit!(blank '\\');
                    if let Some(n) = next {
                        emit!(blank n);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '\'' => {
                    state = State::Code;
                    emit!(code '\'');
                    i += 1;
                }
                _ => {
                    emit!(blank c);
                    i += 1;
                }
            },
        }
    }

    // An unterminated literal at EOF still gets captured, so a truncated
    // file degrades gracefully instead of losing its last literal.
    if let Some((ll, lc, text)) = cur_lit.take() {
        literals.push(Literal { line: ll, col: lc, text });
    }

    Masked {
        code: code.lines().map(str::to_owned).collect(),
        comments: comments.lines().map(str::to_owned).collect(),
        literals,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if the char *before* `i` continues an identifier (so `chars[i]`
/// cannot start a literal prefix like `r"` / `b'`).
fn ident_tail(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// Does `chars[i..]` start a raw (byte) string: `r"`, `r#"`, `br"`, ...?
fn starts_raw_string(chars: &[char], i: usize) -> bool {
    if ident_tail(chars, i) {
        return false;
    }
    // `'r` is a lifetime, so a following `"` opens a *plain* string:
    // `f::<'r>("x")`-style code must not be read as a raw-string opener.
    if i > 0 && chars[i - 1] == '\'' {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Length of the raw-string opener at `i` and its `#` count.
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // '"'
    (hashes, j - i)
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Disambiguate `'` at `i`: char literal (`'x'`, `'\n'`) vs lifetime
/// (`'a`, `'static`). A lifetime is `'` + identifier with no closing `'`.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if is_ident_char(c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // e.g. '(' — punctuation chars are literals
        None => false,
    }
}

/// Mark the lines of `code` (the code channel) that belong to
/// test-gated regions: the item following `#[cfg(test)]` /
/// `#[cfg(all(test, ...))]` or `#[test]`, tracked by brace matching.
pub fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut line = 0usize;
    while line < code.len() {
        let l = &code[line];
        if l.contains("#[cfg(test)]")
            || l.contains("#[cfg(all(test")
            || l.contains("#[cfg(any(test")
            || l.trim() == "#[test]"
            || l.contains("#[test]")
        {
            let end = region_end(code, line);
            for flag in in_test.iter_mut().take(end + 1).skip(line) {
                *flag = true;
            }
            line = end + 1;
        } else {
            line += 1;
        }
    }
    in_test
}

/// Find the last line of the item starting at `start`: scan forward to
/// the first `{` and return the line of its matching `}`. Items with no
/// brace before a `;` (e.g. `#[cfg(test)] mod tests;`) end at the `;`.
fn region_end(code: &[String], start: usize) -> usize {
    let mut depth = 0i32;
    let mut seen_open = false;
    // Skip past the attribute itself (everything up to its closing `]`)
    // so `#[cfg(test)]` braces in attr args don't confuse matching.
    let mut line = start;
    let mut col = code[line].find("#[").map(|p| p + 1).unwrap_or(0);
    while line < code.len() {
        let chars: Vec<char> = code[line].chars().collect();
        while col < chars.len() {
            match chars[col] {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_open && depth == 0 {
                        return line;
                    }
                }
                ';' if !seen_open => return line,
                _ => {}
            }
            col += 1;
        }
        line += 1;
        col = 0;
    }
    code.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked_from_code() {
        let m = mask("let s = \"unsafe // not code\"; // unwrap() here\n");
        assert!(!m.code[0].contains("unsafe"));
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.code[0].contains("let s ="));
        assert!(m.comments[0].contains("unwrap() here"));
        assert!(!m.comments[0].contains("let s"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let m = mask("a /* x /* y */ z */ b\n");
        assert!(m.code[0].contains('a'));
        assert!(m.code[0].contains('b'));
        assert!(!m.code[0].contains('y'));
        assert!(!m.code[0].contains('z'));
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let m = mask("let r = r#\"panic!(\"inner\")\"#; after\n");
        assert!(!m.code[0].contains("panic"));
        assert!(m.code[0].contains("after"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = mask("fn f<'a>(x: &'a str) -> &'a str { x } // 'c'\n");
        assert!(m.code[0].contains("'a str"));
        let m2 = mask("let c = 'x'; let esc = '\\''; keep\n");
        assert!(!m2.code[0].contains('x'));
        assert!(m2.code[0].contains("keep"));
    }

    #[test]
    fn raw_string_edge_cases() {
        // Multiple hashes: the closer needs the exact hash count.
        let m = mask("let r = r##\"a \"# b unwrap()\"##; tail\n");
        assert!(!m.code[0].contains("unwrap"));
        assert!(m.code[0].contains("tail"));
        assert_eq!(m.literals[0].text, "a \"# b unwrap()");

        // Raw *byte* strings take the same path.
        let m2 = mask("let b = br#\"x // y\"#; after\n");
        assert!(!m2.code[0].contains("x // y"));
        assert!(m2.comments[0].trim().is_empty());
        assert!(m2.code[0].contains("after"));

        // An identifier ending in `r` followed by `"` is NOT a raw
        // string: `var"` never occurs in valid Rust, but a lexer that
        // mis-fires here would swallow the rest of the file.
        let m3 = mask("let r = 1; for_r\"plain\"; after\n");
        assert!(m3.code[0].contains("after"));

        // A lifetime named 'r directly before a plain string must not
        // look like a raw-string opener (`'r` + `"` != `r"`).
        let m4 = mask("m!{'r\"one\"}; two(\"second\"); end\n");
        assert!(m4.code[0].contains("end"));
        assert_eq!(m4.literals.len(), 2);
        assert_eq!(m4.literals[1].text, "second");

        // Multi-line raw string: content spans lines, code resumes after.
        let m5 = mask("let s = r#\"line1\nline2\"#;\nnext();\n");
        assert!(!m5.code[0].contains("line1"));
        assert!(!m5.code[1].contains("line2"));
        assert!(m5.code[2].contains("next()"));
        assert_eq!(m5.literals[0].text, "line1\nline2");
    }

    #[test]
    fn nested_block_comment_edge_cases() {
        // Three levels deep, with decoy `*/`-less openers in between.
        let m = mask("a /* 1 /* 2 /* 3 */ 2 */ 1 */ b\n");
        assert!(m.code[0].contains('a'));
        assert!(m.code[0].contains('b'));
        assert!(!m.code[0].contains('3'));

        // A `/*` inside a line comment does not open a block.
        let m2 = mask("x(); // note: /* not a block\ny();\n");
        assert!(m2.code[1].contains("y()"));

        // A `//` inside a block comment does not extend it to line end.
        let m3 = mask("a /* c1 // c2 */ b\n");
        assert!(m3.code[0].contains('b'));

        // Multi-line nesting: still inside after one `*/`.
        let m4 = mask("/* outer /* inner\n*/ still comment */ code\n");
        assert!(!m4.code[1].contains("still"));
        assert!(m4.code[1].contains("code"));
    }

    #[test]
    fn lifetime_vs_char_edge_cases() {
        // Generic params, bounds, and labels are code, not literals.
        let m = mask("impl<'a, 'b: 'a> S<'a, 'b> { fn f(&'a self) {} }\n");
        assert!(m.code[0].contains("'a, 'b: 'a"));

        // `'a'` (char) right next to `'a` (lifetime) on one line.
        let m2 = mask("let c: char = 'a'; let r: &'a str = s;\n");
        assert!(!m2.code[0].contains("= 'a';"));
        assert!(m2.code[0].contains("&'a str"));

        // Escaped quote and escaped backslash chars terminate correctly.
        let m3 = mask("let q = '\\''; let bs = '\\\\'; done\n");
        assert!(m3.code[0].contains("done"));

        // Byte chars `b'x'` vs an identifier ending in `b` before a quote.
        let m4 = mask("let x = b'\\n'; let grab = ident_b; done\n");
        assert!(m4.code[0].contains("done"));

        // Loop labels are lifetimes syntactically: `'outer: loop`.
        let m5 = mask("'outer: loop { break 'outer; } after\n");
        assert!(m5.code[0].contains("'outer: loop"));
        assert!(m5.code[0].contains("after"));

        // `'_'` is a char literal; `'_` alone is the wildcard lifetime.
        let m6 = mask("let u = '_'; fn g(x: &'_ str) {} tail\n");
        assert!(m6.code[0].contains("&'_ str"));
        assert!(m6.code[0].contains("tail"));
    }

    #[test]
    fn literals_are_captured_with_positions() {
        let m = mask("emit(\"first\");\nlet c = 'x';\nemit(\"sec\\\"ond\");\n");
        assert_eq!(m.literals.len(), 2, "{:?}", m.literals);
        assert_eq!(m.literals[0], Literal { line: 0, col: 5, text: "first".into() });
        // Char literals are not captured; escapes stay raw.
        assert_eq!(m.literals[1].line, 2);
        assert_eq!(m.literals[1].text, "sec\\\"ond");
    }

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let m = mask(src);
        let regions = test_regions(&m.code);
        assert_eq!(regions, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_attribute_covers_single_function() {
        let src = "#[test]\nfn t() {\n    y.unwrap();\n}\nfn hot() {}\n";
        let m = mask(src);
        let regions = test_regions(&m.code);
        assert_eq!(regions, vec![true, true, true, true, false]);
    }
}

//! A comment-, string-, and char-literal-aware tokenizer for Rust source.
//!
//! The analyzer matches *token* sequences, never raw text, so an
//! `unwrap()` inside a string literal or a call mentioned in a doc comment
//! can never fire a rule.
//! The lexer handles the constructs that defeat regex-based linters:
//!
//! * nested block comments (`/* a /* b */ c */`),
//! * raw strings with arbitrary hash fences (`r##"…"##`), byte and
//!   byte-raw strings, and raw identifiers (`r#type`),
//! * lifetimes vs char literals (`'a` vs `'a'`, including escapes and
//!   multi-byte scalars),
//! * number literals, including hex/octal/binary prefixes, fractions,
//!   exponents, and suffixes — while leaving `0..n` and `1.max(y)`
//!   un-mangled.
//!
//! Tokens carry 1-based line spans for diagnostics, and an `in_test` flag
//! set by [`mark_test_regions`] for items under `#[cfg(test)]` / `#[test]`.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`unsafe`, `fn`, `unwrap`, …).
    Ident,
    /// Number literal (`42`, `0xFF`, `1_000u64`, `1.0`, `2e-3`, `1f32`).
    Num,
    /// String literal of any flavour (plain, raw, byte, byte-raw).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Punctuation; multi-char operators the rules care about (`::`, `==`,
    /// `!=`, …) are fused into a single token.
    Punct,
    /// `// …` (including `///` and `//!` doc comments).
    LineComment,
    /// `/* … */`, possibly nested and spanning lines.
    BlockComment,
}

/// One lexed token with its 1-based line span.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    /// Line the token starts on (1-based).
    pub line: u32,
    /// Line the token ends on (inclusive; differs from `line` only for
    /// multi-line strings and block comments).
    pub end_line: u32,
    /// True when the token sits inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

impl Token {
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, Kind::LineComment | Kind::BlockComment)
    }
}

/// Two-character operators fused during lexing. Longest-match-first is not
/// needed because no entry is a prefix of another entry's first two chars.
const TWO_CHAR_OPS: &[&[u8; 2]] = &[
    b"::", b"==", b"!=", b"<=", b">=", b"->", b"=>", b"..", b"&&", b"||",
    b"<<", b">>", b"+=", b"-=", b"*=", b"/=", b"%=", b"^=", b"|=", b"&=",
];

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Tokenize `src`. Unterminated strings/comments lex to a token that runs to
/// end of input — the lexer never panics on malformed source.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { b: src.as_bytes(), src, i: 0, line: 1, toks: Vec::new() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    toks: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => self.punct(),
            }
        }
        self.toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: Kind, start: usize, start_line: u32) {
        self.toks.push(Token {
            kind,
            text: self.src[start..self.i].to_string(),
            line: start_line,
            end_line: self.line,
            in_test: false,
        });
    }

    fn line_comment(&mut self) {
        let (start, start_line) = (self.i, self.line);
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.push(Kind::LineComment, start, start_line);
    }

    fn block_comment(&mut self) {
        let (start, start_line) = (self.i, self.line);
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
            } else if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.i += 1;
            }
        }
        self.push(Kind::BlockComment, start, start_line);
    }

    /// Plain (escaped) string body, starting at the opening quote.
    fn string(&mut self) {
        let (start, start_line) = (self.i, self.line);
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push(Kind::Str, start, start_line);
    }

    /// Raw string body: `"` fenced by `hashes` trailing `#`s.
    fn raw_string(&mut self, start: usize, start_line: u32, hashes: usize) {
        // self.i sits on the opening quote.
        self.i += 1;
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.i += 1;
            } else if self.b[self.i] == b'"'
                && self.b[self.i + 1..].len() >= hashes
                && self.b[self.i + 1..self.i + 1 + hashes].iter().all(|&h| h == b'#')
            {
                self.i += 1 + hashes;
                break;
            } else {
                self.i += 1;
            }
        }
        self.push(Kind::Str, start, start_line);
    }

    fn char_or_lifetime(&mut self) {
        let (start, start_line) = (self.i, self.line);
        if self.peek(1) == Some(b'\\') {
            // Escaped char literal: skip to the unescaped closing quote.
            self.i += 2;
            while self.i < self.b.len() {
                match self.b[self.i] {
                    b'\\' => self.i += 2,
                    b'\'' => {
                        self.i += 1;
                        break;
                    }
                    _ => self.i += 1,
                }
            }
            self.push(Kind::Char, start, start_line);
            return;
        }
        // `'X'` (X possibly multi-byte) is a char literal; `'ident` is a
        // lifetime.
        let scalar_len = match self.peek(1) {
            Some(c) if c < 0x80 => 1,
            Some(c) if c >= 0xF0 => 4,
            Some(c) if c >= 0xE0 => 3,
            Some(c) if c >= 0xC0 => 2,
            _ => 0,
        };
        if scalar_len > 0 && self.peek(1 + scalar_len) == Some(b'\'') {
            self.i += 2 + scalar_len;
            self.push(Kind::Char, start, start_line);
        } else {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            self.push(Kind::Lifetime, start, start_line);
        }
    }

    fn number(&mut self) {
        let (start, start_line) = (self.i, self.line);
        if self.b[self.i] == b'0' && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            // Radix literal: digits and underscores only (hex may use a-f).
            self.i += 2;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_hexdigit() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        } else {
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
            // A `.` continues the literal only when not starting a range
            // (`0..n`) or a method call (`1.max(2)`).
            if self.i < self.b.len() && self.b[self.i] == b'.' {
                let after = self.peek(1);
                let is_range_or_method =
                    matches!(after, Some(c) if c == b'.' || is_ident_start(c));
                if !is_range_or_method {
                    self.i += 1;
                    while self.i < self.b.len()
                        && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
                    {
                        self.i += 1;
                    }
                }
            }
            // Exponent.
            if self.i < self.b.len() && matches!(self.b[self.i], b'e' | b'E') {
                let mut j = self.i + 1;
                if matches!(self.b.get(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if matches!(self.b.get(j), Some(c) if c.is_ascii_digit()) {
                    self.i = j;
                    while self.i < self.b.len()
                        && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
                    {
                        self.i += 1;
                    }
                }
            }
        }
        // Type suffix (`u64`, `f32`, …).
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(Kind::Num, start, start_line);
    }

    /// Identifier, or a string/char literal behind an `r`/`b`/`br`/`rb`
    /// prefix, or a raw identifier (`r#type`).
    fn ident_or_prefixed_literal(&mut self) {
        let (start, start_line) = (self.i, self.line);
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        let text = &self.src[start..self.i];
        let next = self.b.get(self.i).copied();
        match (text, next) {
            // Byte-char literal `b'…'`.
            ("b", Some(b'\'')) => {
                self.char_or_lifetime();
                self.retag_last(start, start_line);
            }
            // Plain-quoted with prefix: `b"…"`, `r"…"`, `br"…"`.
            ("b", Some(b'"')) => self.string_with_start(start, start_line),
            ("r" | "br" | "rb", Some(b'"')) => {
                self.raw_string_with_start(start, start_line, 0)
            }
            // Hash-fenced raw string or raw identifier.
            ("r" | "br" | "rb", Some(b'#')) => {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some(b'"') {
                    self.i += hashes;
                    self.raw_string_with_start(start, start_line, hashes);
                } else if text == "r" && hashes == 1 {
                    // Raw identifier `r#type`.
                    self.i += 1;
                    while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                        self.i += 1;
                    }
                    self.push(Kind::Ident, start, start_line);
                } else {
                    self.push(Kind::Ident, start, start_line);
                }
            }
            _ => self.push(Kind::Ident, start, start_line),
        }
    }

    fn string_with_start(&mut self, start: usize, start_line: u32) {
        self.string();
        self.retag_last(start, start_line);
    }

    fn raw_string_with_start(&mut self, start: usize, start_line: u32, hashes: usize) {
        self.raw_string(self.i, start_line, hashes);
        self.retag_last(start, start_line);
    }

    /// Extend the last pushed literal token to include its prefix bytes.
    fn retag_last(&mut self, start: usize, start_line: u32) {
        if let Some(last) = self.toks.last_mut() {
            last.text = self.src[start..self.i].to_string();
            last.line = start_line;
        }
    }

    fn punct(&mut self) {
        let (start, start_line) = (self.i, self.line);
        if self.i + 1 < self.b.len() {
            let pair = [self.b[self.i], self.b[self.i + 1]];
            if TWO_CHAR_OPS.iter().any(|op| **op == pair) {
                self.i += 2;
                self.push(Kind::Punct, start, start_line);
                return;
            }
        }
        self.i += 1;
        self.push(Kind::Punct, start, start_line);
    }
}

/// Mark tokens belonging to `#[cfg(test)]` / `#[test]` items.
///
/// An attribute whose identifier list contains `test` (and not `not`, so
/// `#[cfg(not(test))]` stays production code) puts the *following item* —
/// up to its matching close brace, or `;` for brace-less items — into test
/// scope. Test-scoped functions are not call-graph nodes.
pub fn mark_test_regions(toks: &mut [Token]) {
    // Indices of non-comment tokens; all structure scanning happens here.
    let idx: Vec<usize> = (0..toks.len()).filter(|&t| !toks[t].is_comment()).collect();
    let text = |k: usize| toks[idx[k]].text.as_str();
    let mut ranges: Vec<(usize, usize)> = Vec::new();

    let mut k = 0usize;
    while k < idx.len() {
        if !(text(k) == "#" && k + 1 < idx.len()) {
            k += 1;
            continue;
        }
        let mut a = k + 1;
        if a < idx.len() && text(a) == "!" {
            a += 1;
        }
        if a >= idx.len() || text(a) != "[" {
            k += 1;
            continue;
        }
        // Scan the attribute body for `test` / `not`.
        let mut depth = 1usize;
        let mut j = a + 1;
        let (mut has_test, mut has_not) = (false, false);
        while j < idx.len() && depth > 0 {
            match text(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[idx[j]].kind == Kind::Ident => has_test = true,
                "not" if toks[idx[j]].kind == Kind::Ident => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            k = j;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut m = j;
        while m + 1 < idx.len() && text(m) == "#" && text(m + 1) == "[" {
            let mut d = 1usize;
            m += 2;
            while m < idx.len() && d > 0 {
                match text(m) {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                m += 1;
            }
        }
        // Find the item extent: first `{` (then match braces) or `;` at
        // paren/bracket depth 0.
        let mut d = 0isize;
        let mut end = None;
        while m < idx.len() {
            match text(m) {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                ";" if d <= 0 => {
                    end = Some(m);
                    break;
                }
                "{" if d <= 0 => {
                    let mut braces = 1usize;
                    m += 1;
                    while m < idx.len() && braces > 0 {
                        match text(m) {
                            "{" => braces += 1,
                            "}" => braces -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    end = Some(m.saturating_sub(1));
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        let end = end.unwrap_or(idx.len() - 1);
        ranges.push((idx[k], idx[end]));
        k = end + 1;
    }

    for (lo, hi) in ranges {
        for t in toks.iter_mut().take(hi + 1).skip(lo) {
            t.in_test = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("let x: u32 = a::b(c);");
        assert!(ts.contains(&(Kind::Punct, "::".into())));
        assert!(ts.contains(&(Kind::Ident, "let".into())));
    }

    #[test]
    fn string_contents_are_not_tokens() {
        let ts = kinds(r#"let s = "unsafe { x.unwrap() } static mut";"#);
        let idents: Vec<&str> =
            ts.iter().filter(|(k, _)| *k == Kind::Ident).map(|(_, t)| t.as_str()).collect();
        assert_eq!(idents, vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r##"quote " and "# inside"##; let y = 1;"####;
        let ts = kinds(src);
        let strs: Vec<&str> =
            ts.iter().filter(|(k, _)| *k == Kind::Str).map(|(_, t)| t.as_str()).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].starts_with("r##\""));
        assert!(ts.contains(&(Kind::Ident, "y".into())));
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let ts = kinds(r#"let a = b"bytes"; let c = br"raw"; let d = b'x';"#);
        assert_eq!(ts.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
        assert_eq!(ts.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("/* outer /* inner */ still comment */ fn x() {}");
        assert_eq!(ts[0].0, Kind::BlockComment);
        assert!(ts[0].1.contains("inner"));
        assert!(ts.contains(&(Kind::Ident, "fn".into())));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'b'; let n = '\\n'; let u = '→'; }");
        let lifetimes = ts.iter().filter(|(k, _)| *k == Kind::Lifetime).count();
        let chars = ts.iter().filter(|(k, _)| *k == Kind::Char).count();
        assert_eq!(lifetimes, 2, "{ts:?}");
        assert_eq!(chars, 3, "{ts:?}");
    }

    #[test]
    fn number_literals_leave_ranges_and_method_calls_alone() {
        let ts = kinds("a == 0.0; b == 0; c != 1e-3; d == 0x1F; e == 2f32; f = 0..n; g = 1.max(2);");
        let nums: Vec<&str> =
            ts.iter().filter(|(k, _)| *k == Kind::Num).map(|(_, t)| t.as_str()).collect();
        assert_eq!(nums, vec!["0.0", "0", "1e-3", "0x1F", "2f32", "0", "1", "2"]);
        assert!(ts.contains(&(Kind::Punct, "..".into())));
        assert!(ts.contains(&(Kind::Ident, "max".into())));
    }

    #[test]
    fn comments_track_line_spans() {
        let src = "fn a() {}\n/* two\nline */\nfn b() {}\n";
        let ts = lex(src);
        let c = ts.iter().find(|t| t.kind == Kind::BlockComment).unwrap();
        assert_eq!((c.line, c.end_line), (2, 3));
        let b = ts.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let ts = kinds("let s = \"never closed");
        assert!(ts.iter().any(|(k, _)| *k == Kind::Str));
    }

    #[test]
    fn raw_identifiers() {
        let ts = kinds("let r#type = 1;");
        assert!(ts.contains(&(Kind::Ident, "r#type".into())));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn prod2() {}";
        let mut ts = lex(src);
        mark_test_regions(&mut ts);
        let find = |name: &str| ts.iter().find(|t| t.text == name).unwrap();
        assert!(!find("prod").in_test);
        assert!(find("tests").in_test);
        assert!(find("y").in_test);
        assert!(!find("prod2").in_test);
    }

    #[test]
    fn cfg_not_test_stays_production() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let mut ts = lex(src);
        mark_test_regions(&mut ts);
        assert!(!ts.iter().find(|t| t.text == "unwrap").unwrap().in_test);
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn check_it() { a.unwrap(); }\nfn prod() { b.unwrap(); }";
        let mut ts = lex(src);
        mark_test_regions(&mut ts);
        assert!(ts.iter().find(|t| t.text == "a").unwrap().in_test);
        assert!(!ts.iter().find(|t| t.text == "b").unwrap().in_test);
    }
}

//! A minimal Rust lexer.
//!
//! The container builds offline, so `syn` is not available; the lint rules
//! instead run over this hand-rolled token stream. It is not a full Rust
//! grammar — it only needs to be exact about the things that make naive
//! `grep`-style linting unsound: comments (including nested block
//! comments), string/char/byte literals (including raw strings with hash
//! fences), and lifetimes vs. char literals. Everything else is split into
//! identifiers, number literals, and single-character punctuation with
//! line numbers attached.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text. For comments this includes the delimiters; for string
    /// literals it is the raw source slice.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `unsafe`, `as`, `r#match`).
    Ident,
    /// `'a` (not a char literal).
    Lifetime,
    /// String/char/byte-string literal, delimiters included.
    Str,
    /// Number literal (`0x1f`, `1_000u64`, `1.5e3`).
    Num,
    /// `// ...` or `/* ... */`, delimiters included.
    Comment,
    /// A single punctuation character (`.`, `:`, `{`, `&`, ...).
    Punct,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] as char == c
    }
}

/// Lex `src` into tokens. Never fails: malformed input degrades into
/// punctuation tokens rather than aborting the lint pass.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, toks: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let c = self.src[self.pos] as char;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                    self.push(TokKind::Comment, start, line);
                }
                '/' if self.peek(1) == Some('*') => {
                    self.block_comment();
                    self.push(TokKind::Comment, start, line);
                }
                '"' => {
                    self.string();
                    self.push(TokKind::Str, start, line);
                }
                'r' | 'b' if self.raw_or_byte_string() => {
                    self.push(TokKind::Str, start, line);
                }
                '\'' => {
                    if self.lifetime_ahead() {
                        self.bump(); // '
                        while self.ident_continues() {
                            self.pos += 1;
                        }
                        self.push(TokKind::Lifetime, start, line);
                    } else {
                        self.char_literal();
                        self.push(TokKind::Str, start, line);
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    self.pos += 1;
                    while self.ident_continues() {
                        self.pos += 1;
                    }
                    self.push(TokKind::Ident, start, line);
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokKind::Num, start, line);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, start, line);
                }
            }
        }
        self.toks
    }

    fn peek(&self, off: usize) -> Option<char> {
        self.src.get(self.pos + off).map(|&b| b as char)
    }

    fn bump(&mut self) {
        if self.src[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        // Keep `line` tracking exact for multi-line tokens consumed via
        // raw `pos += 1` loops (comments, strings count their own \n).
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        self.line = line + u32::try_from(newlines).unwrap_or(u32::MAX);
        self.toks.push(Tok { kind, text, line });
    }

    fn ident_continues(&self) -> bool {
        matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_')
    }

    fn block_comment(&mut self) {
        // Nested: /* /* */ */ is one comment.
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
    }

    fn string(&mut self) {
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Handle `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`. Returns false if
    /// the `r`/`b` at `pos` starts a plain identifier (caller lexes it).
    fn raw_or_byte_string(&mut self) -> bool {
        let mut p = self.pos;
        if self.src[p] == b'b' {
            p += 1;
        }
        let raw = self.src.get(p) == Some(&b'r');
        if raw {
            p += 1;
        }
        let mut hashes = 0usize;
        while self.src.get(p) == Some(&b'#') {
            hashes += 1;
            p += 1;
        }
        match self.src.get(p) {
            Some(&b'"') if raw => {
                p += 1;
                // Scan for `"` followed by `hashes` hashes; no escapes in raw.
                loop {
                    match self.src.get(p) {
                        None => break,
                        Some(&b'"')
                            if self.src[p + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&b| b == b'#')
                                .count()
                                == hashes =>
                        {
                            p += 1 + hashes;
                            break;
                        }
                        Some(_) => p += 1,
                    }
                }
                self.pos = p;
                true
            }
            Some(&b'"') if !raw && hashes == 0 && self.src[self.pos] == b'b' => {
                self.pos = p;
                self.string_from_quote();
                true
            }
            Some(&b'\'') if !raw && hashes == 0 && self.src[self.pos] == b'b' => {
                self.pos = p;
                self.char_literal();
                true
            }
            _ => false,
        }
    }

    fn string_from_quote(&mut self) {
        self.string();
    }

    fn number(&mut self) {
        // Digits, underscores, type suffixes, hex/bin/oct prefixes, and
        // float forms (`1.5e-3`). Greedy and approximate: the rules only
        // care that the literal is not an identifier.
        self.pos += 1;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // Don't eat a method call on a literal (`1.max(x)`) or a
                // range (`0..n`).
                if c == '.' && !matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                    break;
                }
                self.pos += 1;
            } else if (c == '+' || c == '-')
                && matches!(self.src.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            {
                self.pos += 1; // exponent sign
            } else {
                break;
            }
        }
    }

    fn char_literal(&mut self) {
        self.pos += 1; // opening '
        if self.peek(0) == Some('\\') {
            self.pos += 2;
            // \u{...}
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.pos += 1;
            }
            self.pos += 1;
        } else {
            self.pos += 1; // the char (ASCII assumption is fine: non-ASCII
                           // just consumes continuation bytes below)
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.pos += 1;
            }
            self.pos = (self.pos + 1).min(self.src.len());
        }
    }

    /// At a `'`: lifetime if followed by ident-start and NOT a char literal
    /// like `'a'`.
    fn lifetime_ahead(&self) -> bool {
        match (self.peek(1), self.peek(2)) {
            (Some(c), Some('\'')) if c.is_ascii_alphanumeric() || c == '_' => false, // 'a'
            (Some(c), _) if c.is_ascii_alphabetic() || c == '_' => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("let x: u32 = y.z();");
        assert_eq!(ts[0], (TokKind::Ident, "let".into()));
        assert!(ts.iter().any(|t| t.1 == "." && t.0 == TokKind::Punct));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let ts = kinds("a /* HashMap */ b // Instant\nc");
        let idents: Vec<_> =
            ts.iter().filter(|t| t.0 == TokKind::Ident).map(|t| t.1.clone()).collect();
        assert_eq!(idents, ["a", "b", "c"]);
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Comment).count(), 2);
    }

    #[test]
    fn nested_block_comment() {
        let ts = kinds("/* outer /* inner */ still */ x");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1].1, "x");
    }

    #[test]
    fn strings_hide_their_contents() {
        let ts = kinds(r#"f("HashMap iter()", 'x', "esc \" quote")"#);
        assert!(ts.iter().all(|t| t.0 != TokKind::Ident || t.1 == "f"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let ts = kinds(r##"let s = r#"has "quotes" and HashMap"#; done"##);
        let idents: Vec<_> =
            ts.iter().filter(|t| t.0 == TokKind::Ident).map(|t| t.1.as_str()).collect();
        // The `r#"…"#` lexes as ONE Str token (prefix included), so no
        // ident leaks out of the raw string.
        assert_eq!(idents, ["let", "s", "done"].to_vec());
        assert!(ts.iter().any(|t| t.0 == TokKind::Str && t.1.contains("HashMap")));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ts = kinds("fn f<'a>(x: &'a u8) { let c = 'z'; let n = '\\n'; let u = '_'; }");
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Lifetime).count(), 2);
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Str).count(), 3);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let ts = lex("a\nb\n/* c\nd */\ne");
        let e = ts.iter().find(|t| t.text == "e").unwrap();
        assert_eq!(e.line, 5);
    }

    #[test]
    fn byte_strings() {
        let ts = kinds(r#"let b = b"Instant"; let c = b'x';"#);
        assert!(ts.iter().filter(|t| t.0 == TokKind::Ident).all(|t| t.1 != "Instant"));
    }
}

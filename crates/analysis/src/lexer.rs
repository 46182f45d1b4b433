//! A std-only Rust lexer sufficient for finding unsafe sites.
//!
//! The ledger must never see `unsafe` inside a comment or string literal
//! (a doc example mentioning `unsafe fn` is not a site), and must never
//! *miss* code because of surrounding syntax. That forces the lexer to
//! get the genuinely tricky parts of Rust's lexical grammar right:
//!
//! * raw strings `r"…"` / `r#"…"#` with arbitrarily many `#`s (and their
//!   byte-string variants `br#"…"#`) — a raw string may contain `"` and
//!   even `unsafe fn` without ending;
//! * nested block comments `/* /* … */ */`, which C-family lexers get
//!   wrong;
//! * the `'` ambiguity: `'a'` is a char literal, `'a` is a lifetime, and
//!   `'\n'`, `b'x'`, `'\u{1F600}'` are chars again;
//! * raw identifiers `r#type` (not a raw string).
//!
//! Comments are not tokens: the lexer skips them.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `br"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\xFF'`).
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Numeric literal.
    Num,
    /// A single punctuation byte (`.`, `(`, `[`, `{`, `!`, …).
    Punct,
}

/// One token: kind, byte span into the source, and 1-based line number.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
}

/// Token stream for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order; comments and whitespace removed.
    pub tokens: Vec<Tok>,
}

impl Lexed {
    /// Text of token `i` within `src`.
    pub fn text<'a>(&self, src: &'a str, i: usize) -> &'a str {
        let t = &self.tokens[i];
        &src[t.start..t.end]
    }
}

/// Lex `src` into tokens, skipping comments.
///
/// The lexer is total: any byte sequence produces *some* token stream (an
/// unterminated string simply runs to end of file), so a syntactically
/// broken file degrades to weaker analysis instead of an error.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                c if ident_start(c) => self.ident_or_prefixed(),
                _ => {
                    self.push(TokKind::Punct, self.pos, self.pos + 1);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, end: usize) {
        self.out.tokens.push(Tok {
            kind,
            start,
            end,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.src.len() && depth > 0 {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Cooked string starting at `"`; `tok_start` may precede it (`b"…"`).
    fn string(&mut self, tok_start: usize) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Tok {
            kind: TokKind::Str,
            start: tok_start,
            end: self.pos,
            line,
        });
    }

    /// Raw string starting at `r`'s hashes: `pos` sits on the first `#` or
    /// the `"`. `tok_start` covers the `r`/`br` prefix.
    fn raw_string(&mut self, tok_start: usize) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos] == b'"' && self.src[self.pos..].starts_with(&closer) {
                self.pos += closer.len();
                break;
            }
            self.pos += 1;
        }
        self.out.tokens.push(Tok {
            kind: TokKind::Str,
            start: tok_start,
            end: self.pos,
            line,
        });
    }

    /// `'` — lifetime or char literal. A lifetime is `'` + ident not
    /// followed by a closing `'`; everything else is a char literal.
    fn quote(&mut self) {
        let start = self.pos;
        let line = self.line;
        // `'` + ident-start + (ident-continue)* not ending in `'` = lifetime.
        if let Some(c1) = self.peek(1) {
            if ident_start(c1) {
                // scan the would-be lifetime body
                let mut j = self.pos + 2;
                while j < self.src.len() && ident_continue(self.src[j]) {
                    j += 1;
                }
                if self.src.get(j) != Some(&b'\'') {
                    self.push(TokKind::Lifetime, start, j);
                    self.pos = j;
                    return;
                }
            }
        }
        // Char literal: consume until closing quote, honouring escapes.
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => break, // stray quote; don't swallow the file
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Tok {
            kind: TokKind::Char,
            start,
            end: self.pos,
            line,
        });
    }

    fn number(&mut self) {
        let start = self.pos;
        // Good enough for lint purposes: digits, hex/bin/oct letters,
        // underscores, one dot (not `..`), and type suffixes.
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            let fraction_dot = c == b'.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.src[start..self.pos].contains(&b'.');
            if c.is_ascii_alphanumeric() || c == b'_' || fraction_dot {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokKind::Num, start, self.pos);
    }

    fn ident_or_prefixed(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len() && ident_continue(self.src[self.pos]) {
            self.pos += 1;
        }
        let word = &self.src[start..self.pos];
        match self.peek(0) {
            // r"…", br"…", r#"…"#, br#"…"#  — raw (byte) strings.
            Some(b'"') if word == b"r" || word == b"br" => self.raw_string(start),
            Some(b'#') if word == b"r" || word == b"br" => {
                // distinguish raw string `r#"` from raw identifier `r#type`
                let mut j = self.pos;
                while self.src.get(j) == Some(&b'#') {
                    j += 1;
                }
                if self.src.get(j) == Some(&b'"') {
                    self.raw_string(start);
                } else if word == b"r" {
                    // raw identifier: consume `#` + ident
                    self.pos += 1;
                    while self.pos < self.src.len() && ident_continue(self.src[self.pos]) {
                        self.pos += 1;
                    }
                    self.push(TokKind::Ident, start, self.pos);
                } else {
                    self.push(TokKind::Ident, start, self.pos);
                }
            }
            // b"…" cooked byte string, b'…' byte char.
            Some(b'"') if word == b"b" => self.string(start),
            Some(b'\'') if word == b"b" => {
                self.pos += 1; // consume the quote; then reuse char logic
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b'\\' => self.pos += 2,
                        b'\'' => {
                            self.pos += 1;
                            break;
                        }
                        b'\n' => break,
                        _ => self.pos += 1,
                    }
                }
                self.push(TokKind::Char, start, self.pos);
            }
            _ => self.push(TokKind::Ident, start, self.pos),
        }
    }
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .map(|t| (t.kind, src[t.start..t.end].to_string()))
            .collect()
    }

    #[test]
    fn raw_string_containing_unsafe_is_one_token() {
        let src = r##"let s = r#"unsafe fn panic!() { unwrap() }"#;"##;
        let toks = kinds(src);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("unsafe fn"));
        // no `unsafe` / `unwrap` identifier leaked out of the string
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "unsafe" || t == "unwrap")));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let lexed = lex(src);
        let idents: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(idents, vec!["fn", "f"]);
    }

    #[test]
    fn commented_out_panic_is_not_a_token() {
        let src = "// panic!(\"nope\")\nlet x = 1; /* unwrap() */";
        let lexed = lex(src);
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| src[t.start..t.end].contains("panic") || src[t.start..t.end] == *"unwrap"));
        let texts: Vec<_> = lexed.tokens.iter().map(|t| &src[t.start..t.end]).collect();
        assert_eq!(texts, vec!["let", "x", "=", "1", ";"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }  let nl = '\\n'; let u = '\\u{1F600}';";
        let toks = kinds(src);
        let lifetimes: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert_eq!(chars.len(), 3, "{toks:?}");
        assert_eq!(chars[0].1, "'x'");
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let toks = kinds("&'static str, &'_ T");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'_"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let c = b'\xFF'; let r = br#"raw"#;"##);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t.starts_with("b\"")));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t.starts_with("b'")));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn strings_with_escaped_quotes() {
        let toks = kinds(r#"let s = "he said \"hi\" // not a comment";"#);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("not a comment"));
        assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some(";"));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\nlet s = \"two\nlines\";\nlet b = 2;";
        let lexed = lex(src);
        let b_tok = lexed
            .tokens
            .iter()
            .find(|t| &src[t.start..t.end] == "b")
            .unwrap();
        assert_eq!(b_tok.line, 4);
    }

    #[test]
    fn shift_operators_and_generic_closes_keep_idents_intact() {
        let src = "let x = a >> 2; let v: Vec<Vec<u8>> = Vec::new();";
        let toks = kinds(src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            idents,
            vec!["let", "x", "a", "let", "v", "Vec", "Vec", "u8", "Vec", "new"]
        );
    }

    #[test]
    fn multi_hash_raw_strings() {
        let src = r###"let s = r##"contains "# inside"##;"###;
        let toks = kinds(src);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("inside"));
    }
}

//! A hand-rolled Rust tokenizer — just enough lexical structure for the
//! audit rules, with zero dependencies (no `syn`, no proc-macro bridge).
//!
//! The lexer preserves what rustc's lexer throws away and the audit pass
//! needs: **comments** (the `// audit:` annotation grammar lives there) and
//! the **line number** of every token. It deliberately does not build an
//! AST; the rules in [`crate::rules`] pattern-match over the flat token
//! stream plus the item table recovered by [`crate::items`].
//!
//! Correctness notes on the gnarly corners of Rust's lexical grammar:
//!
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`) by a
//!   one-character lookahead past the label;
//! * raw strings (`r#"…"#`, any number of `#`s) and raw/byte variants
//!   (`br#"…"#`, `b"…"`) are consumed without interpreting escapes;
//! * block comments nest, per the reference;
//! * doc comments (`///`, `//!`, `/** */`, `/*! */`) are lexed as comments,
//!   so code inside doc examples is never mistaken for crate code.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#type`, …).
    Ident,
    /// Lifetime label (`'a`) — no trailing quote.
    Lifetime,
    /// Integer or float literal (including suffixed forms).
    Number,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// One punctuation character (`.` `,` `{` `<` …). Multi-character
    /// operators appear as consecutive single-character tokens.
    Punct,
    /// A `//` line comment, text including the slashes, excluding newline.
    LineComment,
    /// A `/* … */` block comment (possibly spanning lines).
    BlockComment,
}

/// One lexeme with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokKind,
    /// Raw source text of the lexeme.
    pub text: String,
    /// 1-indexed line of the lexeme's first character.
    pub line: u32,
}

impl Token {
    /// True when this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// True when this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for either comment kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Tokenizes `src` into a flat stream, comments included.
///
/// The lexer is total: any byte sequence produces a token stream (unknown
/// characters become single-character [`TokKind::Punct`] tokens), so a file
/// that rustc would reject still gets audited rather than skipped.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { s: src.as_bytes(), i: 0, line: 1, out: Vec::new() }.run(src)
}

struct Lexer<'a> {
    s: &'a [u8],
    i: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self, src: &str) -> Vec<Token> {
        while self.i < self.s.len() {
            let start = self.i;
            let line = self.line;
            let c = self.s[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.i < self.s.len() && self.s[self.i] != b'\n' {
                        self.i += 1;
                    }
                    self.push(TokKind::LineComment, src, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    self.push(TokKind::BlockComment, src, start, line);
                }
                b'r' | b'b' if self.raw_or_byte_string() => {
                    self.push(TokKind::Literal, src, start, line);
                }
                c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                    self.ident();
                    self.push(TokKind::Ident, src, start, line);
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokKind::Number, src, start, line);
                }
                b'"' => {
                    self.string(b'"');
                    self.push(TokKind::Literal, src, start, line);
                }
                b'\'' => {
                    if self.lifetime_not_char() {
                        self.i += 1; // the quote
                        self.ident();
                        self.push(TokKind::Lifetime, src, start, line);
                    } else {
                        self.string(b'\'');
                        self.push(TokKind::Literal, src, start, line);
                    }
                }
                _ => {
                    self.i += 1;
                    self.push(TokKind::Punct, src, start, line);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.s.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, src: &str, start: usize, line: u32) {
        self.out.push(Token { kind, text: src[start..self.i].to_string(), line });
    }

    fn ident(&mut self) {
        while self.i < self.s.len() {
            let c = self.s[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80 {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn number(&mut self) {
        // Digits, underscores, hex/bin/oct prefixes, exponents, suffixes,
        // and a fractional point when followed by a digit (`1.5` but not
        // the range `1..4` or the method call `1.max(2)`).
        while self.i < self.s.len() {
            let c = self.s[self.i];
            let fraction = c == b'.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && self.peek(1) != Some(b'.');
            if c.is_ascii_alphanumeric() || c == b'_' || fraction {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn string(&mut self, quote: u8) {
        self.i += 1; // opening quote
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'\\' => {
                    // An escaped newline (string line-continuation) still
                    // ends a source line — skipping it silently would shift
                    // every later token's line number.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c == quote => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// At `'`: true when this is a lifetime (`'a` without closing quote).
    fn lifetime_not_char(&self) -> bool {
        let first = match self.peek(1) {
            Some(c) => c,
            None => return false,
        };
        if !(first.is_ascii_alphabetic() || first == b'_') {
            return false; // '\n' , '1' … are char literals
        }
        // 'a' is a char literal; 'ab or 'a (no closing quote) a lifetime.
        let mut j = self.i + 2;
        while j < self.s.len()
            && (self.s[j].is_ascii_alphanumeric() || self.s[j] == b'_')
        {
            j += 1;
        }
        self.s.get(j) != Some(&b'\'')
    }

    /// At `r` or `b`: consume a raw/byte string if one starts here.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut j = self.i;
        if self.s[j] == b'b' {
            j += 1;
        }
        let raw = self.s.get(j) == Some(&b'r');
        if raw {
            j += 1;
        }
        let mut hashes = 0;
        while raw && self.s.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.s.get(j) != Some(&b'"') || (!raw && self.s[self.i] == b'r') {
            return false;
        }
        if !raw && hashes == 0 && self.s[self.i] == b'b' && self.s.get(self.i + 1) != Some(&b'"') {
            return false; // plain ident starting with b
        }
        j += 1; // opening quote
        if raw {
            // Scan to `"` followed by `hashes` hashes.
            while j < self.s.len() {
                if self.s[j] == b'\n' {
                    self.line += 1;
                }
                if self.s[j] == b'"' && self.s[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes {
                    self.i = j + 1 + hashes;
                    return true;
                }
                j += 1;
            }
            self.i = j;
            return true;
        }
        // b"…" with escapes.
        self.i = j;
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'\\' => {
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    return true;
                }
                _ => self.i += 1,
            }
        }
        true
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.s.len() && depth > 0 {
            match (self.s[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
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
    fn idents_numbers_puncts() {
        let t = kinds("let x = 42;");
        assert_eq!(t[0], (TokKind::Ident, "let".into()));
        assert_eq!(t[1], (TokKind::Ident, "x".into()));
        assert_eq!(t[2], (TokKind::Punct, "=".into()));
        assert_eq!(t[3], (TokKind::Number, "42".into()));
        assert_eq!(t[4], (TokKind::Punct, ";".into()));
    }

    #[test]
    fn comments_preserved_with_lines() {
        let toks = lex("a\n// audit: merge\nb");
        assert_eq!(toks[1].kind, TokKind::LineComment);
        assert_eq!(toks[1].text, "// audit: merge");
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn lifetime_vs_char() {
        let t = kinds("&'a str '\\n' 'x' 'ab");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'a"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Literal && s == "'\\n'"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Literal && s == "'x'"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'ab"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let t = kinds(r####"r#"has "quotes" inside"# b"bytes" br#"raw"# rest"####);
        assert_eq!(t[0].0, TokKind::Literal);
        assert_eq!(t[1], (TokKind::Literal, "b\"bytes\"".into()));
        assert_eq!(t[2].0, TokKind::Literal);
        assert_eq!(t[3], (TokKind::Ident, "rest".into()));
    }

    #[test]
    fn nested_block_comments_and_doc_examples() {
        let t = kinds("/* outer /* inner */ still */ x");
        assert_eq!(t[0].0, TokKind::BlockComment);
        assert_eq!(t[1], (TokKind::Ident, "x".into()));
        // Doc-comment bodies are comments, not code.
        let t = kinds("/// let m = HashMap::new();\nfn f() {}");
        assert_eq!(t[0].0, TokKind::LineComment);
        assert!(t[1..].iter().all(|(_, s)| s != "HashMap"));
    }

    #[test]
    fn string_with_escaped_quote_and_newline_tracking() {
        let toks = lex("\"a\\\"b\nc\" x");
        assert_eq!(toks[0].kind, TokKind::Literal);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn escaped_newline_in_string_still_counts_the_line() {
        // String line-continuations (`\` at end of line) are everywhere in
        // this workspace's rule explanations; line numbers after them must
        // stay correct.
        let toks = lex("let s = \"a\\\nb\";\nfn f() {}");
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 3);
        let toks = lex("let s = b\"a\\\nb\";\nfn g() {}");
        let g = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn raw_strings_with_newlines_and_inner_quote_hashes() {
        // Inner `"#` with too few hashes must not close an `r##` string,
        // and embedded newlines must advance the line counter.
        let src = "let s = r##\"line1\n\"# not the end\nline3\"##;\nfn f() {}";
        let toks = lex(src);
        let lit = toks.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert!(lit.text.contains("not the end"));
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4);
        // Empty raw string and a raw string holding a backslash.
        let t = kinds("r#\"\"# r\"\\\" after");
        assert_eq!(t[0], (TokKind::Literal, "r#\"\"#".into()));
        assert_eq!(t[1], (TokKind::Literal, "r\"\\\"".into()));
        assert_eq!(t[2], (TokKind::Ident, "after".into()));
        // A raw identifier is not a raw string.
        let t = kinds("r#type = 1");
        assert_eq!(t[2], (TokKind::Ident, "type".into()));
    }

    #[test]
    fn deeply_nested_block_comments_track_lines() {
        let src = "/* 1 /* 2 /* 3 */\n2 */ 1 */\nfn f() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 3);
        // Code after the comment is lexed normally.
        assert!(toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn lifetime_ticks_never_misread_as_char_literals() {
        // `'_` and `'static` are lifetimes, also at end of input.
        let t = kinds("&'_ str &'static str 'end");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'_"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'static"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'end"));
        // Escaped-quote and non-alphabetic char literals stay literals.
        let t = kinds(r"'\'' '\\' '9' ' '");
        assert!(t.iter().all(|(k, _)| *k == TokKind::Literal));
        assert_eq!(t.len(), 4);
        // A lifetime bound followed by a char literal on one line.
        let t = kinds("fn f<'a>(c: char) { let x = 'x'; }");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Lifetime && s == "'a"));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Literal && s == "'x'"));
    }

    #[test]
    fn number_forms() {
        let t = kinds("0x1F 1_000 1.5e3 1..4 1.max");
        assert_eq!(t[0], (TokKind::Number, "0x1F".into()));
        assert_eq!(t[1], (TokKind::Number, "1_000".into()));
        assert_eq!(t[2], (TokKind::Number, "1.5e3".into()));
        assert_eq!(t[3], (TokKind::Number, "1".into()));
        assert!(t[4].1 == "." && t[5].1 == ".");
        let dot_max = &t[9];
        assert_eq!(dot_max.1, "max");
    }
}

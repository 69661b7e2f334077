//! A small Rust lexer: just enough tokenization for source-level invariant
//! checking, and not a token more.
//!
//! The rules in this crate match on *token sequences* (`const … TAG`,
//! `. recv_any (`), so the lexer's one job is to make those matches sound:
//! nothing inside a string, raw string, char literal, or (nested) comment
//! may ever surface as a token.
//!
//! `#[cfg(test)]` items and `#[test]` functions are stripped after lexing:
//! test code builds protocol fragments on purpose (a local tag, a loop over
//! trees) that the rules must not read as product code.

/// One lexical token. Literal payloads are not kept — no rule needs the
/// contents of a string, only the fact that it is *not* code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `rank`, `HashMap`, ...).
    Ident(String),
    /// Single punctuation character (`::` is two `Punct(':')` tokens).
    Punct(char),
    /// Numeric literal, verbatim (needed for tag-value uniqueness checks).
    Num(String),
    /// Any string / byte-string / char literal (contents dropped).
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// Tokenizes `source` and strips test-only items.
pub fn lex(source: &str) -> Vec<Token> {
    let mut lx = Lexer::new(source);
    lx.run();
    strip_test_items(lx.tokens)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer { src: source.as_bytes(), pos: 0, line: 1, col: 1, tokens: Vec::new() }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek(0);
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn push(&mut self, tok: Tok, line: u32, col: u32) {
        self.tokens.push(Token { tok, line, col });
    }

    fn run(&mut self) {
        while self.pos < self.src.len() {
            let (line, col) = (self.line, self.col);
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => {
                    self.bump();
                    self.string_body();
                    self.push(Tok::Literal, line, col);
                }
                b'\'' => self.char_or_lifetime(line, col),
                b'r' | b'b' if self.raw_or_byte_literal(line, col) => {}
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(line, col),
                _ if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    self.bump();
                    self.push(Tok::Punct(c as char), line, col);
                }
            }
        }
    }

    /// Consumes `// ...` to end of line.
    fn line_comment(&mut self) {
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
    }

    /// Consumes `/* ... */`, honouring nesting as Rust does.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a string body after the opening quote (escapes honoured).
    fn string_body(&mut self) {
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump();
                }
                b'"' => return,
                _ => {}
            }
        }
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A quote followed by
    /// an identifier char is a lifetime unless a closing quote follows one
    /// character later.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // opening '
        let c = self.peek(0);
        if c == b'\\' {
            self.bump();
            self.bump(); // the escaped char
            // Multi-char escapes like '\x7f' / '\u{..}': scan to closing '.
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump();
            self.push(Tok::Literal, line, col);
        } else if (c == b'_' || c.is_ascii_alphanumeric()) && self.peek(1) != b'\'' {
            while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
                self.bump();
            }
            self.push(Tok::Lifetime, line, col);
        } else {
            self.bump(); // the char
            if self.peek(0) == b'\'' {
                self.bump();
            }
            self.push(Tok::Literal, line, col);
        }
    }

    /// Raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`, `br#"…"#`),
    /// and byte chars (`b'x'`). Returns false if the `r`/`b` starts a plain
    /// identifier instead.
    fn raw_or_byte_literal(&mut self, line: u32, col: u32) -> bool {
        let c0 = self.peek(0);
        let mut i = 1;
        if c0 == b'b' && (self.peek(1) == b'r' || self.peek(1) == b'"' || self.peek(1) == b'\'') {
            if self.peek(1) == b'\'' {
                // b'x' byte char
                self.bump(); // b
                self.char_or_lifetime(line, col);
                return true;
            }
            if self.peek(1) == b'r' {
                i = 2;
            }
        } else if c0 != b'r' {
            return false;
        }
        // From src[pos+i]: zero or more '#' then '"' makes this raw.
        let mut hashes = 0usize;
        while self.peek(i + hashes) == b'#' {
            hashes += 1;
        }
        if self.peek(i + hashes) != b'"' {
            if i == 2 && self.peek(1) == b'"' {
                // b"..." plain byte string
                self.bump(); // b
                self.bump(); // "
                self.string_body();
                self.push(Tok::Literal, line, col);
                return true;
            }
            if c0 == b'b' && self.peek(1) == b'"' {
                self.bump();
                self.bump();
                self.string_body();
                self.push(Tok::Literal, line, col);
                return true;
            }
            return false;
        }
        // Consume prefix, hashes, opening quote.
        for _ in 0..(i + hashes + 1) {
            self.bump();
        }
        // Raw string: ends at '"' followed by `hashes` '#' chars, no escapes.
        'scan: while self.pos < self.src.len() {
            if self.bump() == b'"' {
                for h in 0..hashes {
                    if self.peek(h) != b'#' {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(Tok::Literal, line, col);
        true
    }

    fn ident(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric() {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("").to_string();
        self.push(Tok::Ident(text), line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let start = self.pos;
        while {
            let c = self.peek(0);
            c == b'_'
                || c.is_ascii_alphanumeric()
                // Decimal point — but never eat a `..` range operator
                // (`0..n` must stay three tokens).
                || (c == b'.' && self.peek(1).is_ascii_digit())
        } {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("").to_string();
        self.push(Tok::Num(text), line, col);
    }
}

/// Removes `#[cfg(test)]` items and `#[test]` functions from the token
/// stream. The item following the attribute is skipped up to its closing
/// brace (or trailing semicolon for `mod tests;` declarations).
fn strip_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if let Some(end) = test_attr_end(&tokens, i) {
            // Skip past any further attributes, then the item itself.
            let mut j = end;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attribute(&tokens, j);
            }
            i = skip_item(&tokens, j);
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// If tokens at `i` start a `#[cfg(test)]` or `#[test]` attribute, returns
/// the index just past its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    let head = tokens.get(i + 2)?.ident()?;
    let is_test = match head {
        "test" => tokens.get(i + 3)?.is_punct(']'),
        "cfg" => {
            tokens.get(i + 3)?.is_punct('(')
                && tokens.get(i + 4)?.ident() == Some("test")
                && tokens.get(i + 5)?.is_punct(')')
        }
        _ => false,
    };
    if !is_test {
        return None;
    }
    // Scan to the matching `]`.
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    Some(j)
}

/// Skips one `#[...]` attribute starting at `i`, returning the index past it.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at '['
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skips one item (to its closing brace, or `;` if braceless), returning the
/// index past it.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(';') {
            return j + 1;
        }
        if tokens[j].is_punct('{') {
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return j;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn strings_and_comments_never_tokenize() {
        let src = r###"
            // a line comment with unwrap() inside
            /* block /* nested */ still comment unwrap() */
            let s = "calls unwrap() in a string";
            let r = r#"raw with all_reduce_f64("#;
            let c = 'u';
            let b = b"bytes unwrap()";
            real_ident();
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"all_reduce_f64".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; }";
        let tokens = lex(src);
        let lifetimes = tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = tokens.iter().filter(|t| t.tok == Tok::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn ranges_do_not_merge_into_numbers() {
        let tokens = lex("for i in 0..n_trees {}");
        let dots = tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        assert!(tokens.iter().any(|t| t.tok == Tok::Num("0".into())));
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = r#"
            fn keep_me() {}
            #[cfg(test)]
            mod tests {
                fn dropped() { x.unwrap(); }
            }
            fn also_kept() {}
        "#;
        let ids = idents(src);
        assert!(ids.contains(&"keep_me".to_string()));
        assert!(ids.contains(&"also_kept".to_string()));
        assert!(!ids.contains(&"dropped".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn test_fns_are_stripped_with_stacked_attributes() {
        let src = r#"
            #[test]
            #[should_panic(expected = "boom")]
            fn dies() { panic!("boom"); }
            fn stays() {}
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"dies".to_string()));
        assert!(ids.contains(&"stays".to_string()));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let src = "#[cfg(feature = \"x\")] fn kept() {}";
        assert!(idents(src).contains(&"kept".to_string()));
    }

    #[test]
    fn hex_numbers_with_underscores_lex_whole() {
        let tokens = lex("const T: u64 = 0x7261_7274;");
        assert!(tokens.iter().any(|t| t.tok == Tok::Num("0x7261_7274".into())));
    }
}

//! A small hand-rolled Rust lexer: just enough token structure for the
//! rule patterns in [`crate::rules`], with line/column positions and the
//! comment stream kept separate (suppression directives live in comments).
//!
//! The point of lexing — rather than regex-matching raw source — is that
//! rule patterns match **token** sequences: `"std::env::var"` appearing
//! inside a string literal, a comment, or a `#[cfg(test)]` item never
//! fires. The lexer understands:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments,
//! * string literals with escapes, raw strings (`r#"…"#`, any hash
//!   count), byte strings (`b"…"`, `br#"…"#`),
//! * char literals vs lifetimes (`'a'` vs `'a`), raw identifiers
//!   (`r#type`),
//! * identifiers, numbers (including `1.5e-3` / `0xff` / `1_000`), and
//!   single-char punctuation.
//!
//! It does **not** build an AST; [`strip_test_items`] removes
//! `#[test]`/`#[cfg(test)]`-gated items from the token stream by brace
//! matching, which is as much structure as the rules need.

/// Token kind. Literal payloads are not interpreted — rules only ever
/// match identifiers and punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (also raw identifiers, with `r#` stripped).
    Ident,
    /// One punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// String literal of any flavor (plain, raw, byte).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Identifier text (empty for literals and punctuation).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment with the line it starts on (block comments may span more).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexed file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek_at(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into tokens and comments. Malformed input (an unterminated
/// string, say) never panics — the lexer consumes to end of file and
/// returns what it saw, which is the right behavior for a linter that
/// must not die on the file it is diagnosing.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Comments.
        if c == '/' && cur.peek_at(1) == Some('/') {
            cur.bump();
            cur.bump();
            let mut text = String::new();
            while let Some(ch) = cur.peek() {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment { text, line });
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            let mut text = String::new();
            while depth > 0 {
                match (cur.peek(), cur.peek_at(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                        text.push_str("/*");
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                        if depth > 0 {
                            text.push_str("*/");
                        }
                    }
                    (Some(ch), _) => {
                        text.push(ch);
                        cur.bump();
                    }
                    (None, _) => break, // unterminated: consume to EOF
                }
            }
            out.comments.push(Comment { text, line });
            continue;
        }

        // Raw strings / raw identifiers: r"..." r#"..."# r#ident
        if c == 'r' {
            let mut hashes = 0usize;
            while cur.peek_at(1 + hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek_at(1 + hashes) == Some('"') {
                for _ in 0..1 + hashes + 1 {
                    cur.bump();
                }
                consume_raw_string_body(&mut cur, hashes);
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                    col,
                });
                continue;
            }
            if hashes == 1 && cur.peek_at(2).is_some_and(is_ident_start) {
                cur.bump(); // r
                cur.bump(); // #
                let text = consume_ident(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
                continue;
            }
        }

        // Byte strings and byte chars: b"..." br#"..."# b'x'
        if c == 'b' {
            if cur.peek_at(1) == Some('"') {
                cur.bump();
                cur.bump();
                consume_string_body(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                    col,
                });
                continue;
            }
            if cur.peek_at(1) == Some('r') {
                let mut hashes = 0usize;
                while cur.peek_at(2 + hashes) == Some('#') {
                    hashes += 1;
                }
                if cur.peek_at(2 + hashes) == Some('"') {
                    for _ in 0..2 + hashes + 1 {
                        cur.bump();
                    }
                    consume_raw_string_body(&mut cur, hashes);
                    out.tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line,
                        col,
                    });
                    continue;
                }
            }
            if cur.peek_at(1) == Some('\'') {
                cur.bump(); // b
                cur.bump(); // '
                consume_char_body(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                    col,
                });
                continue;
            }
        }

        // Plain strings.
        if c == '"' {
            cur.bump();
            consume_string_body(&mut cur);
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line,
                col,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            cur.bump();
            match cur.peek() {
                Some('\\') => {
                    consume_char_body(&mut cur);
                    out.tokens.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                        col,
                    });
                }
                Some(ch) if is_ident_start(ch) && cur.peek_at(1) != Some('\'') => {
                    // `'a` in `<'a>` or `&'static` — a lifetime.
                    let text = consume_ident(&mut cur);
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text,
                        line,
                        col,
                    });
                }
                Some(_) => {
                    consume_char_body(&mut cur);
                    out.tokens.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                        col,
                    });
                }
                None => {}
            }
            continue;
        }

        // Identifiers and keywords.
        if is_ident_start(c) {
            let text = consume_ident(&mut cur);
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }

        // Numbers (loose: enough to step over any valid literal).
        if c.is_ascii_digit() {
            cur.bump();
            loop {
                match cur.peek() {
                    Some(ch) if is_ident_continue(ch) => {
                        let exp = ch == 'e' || ch == 'E';
                        cur.bump();
                        // exponent sign: 1e-3, 2.5E+10
                        if exp
                            && matches!(cur.peek(), Some('+') | Some('-'))
                            && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                        {
                            cur.bump();
                        }
                    }
                    // A `.` continues the number only for `1.5`, not `0..n`
                    // (range) or `1.pow()` (method call on a literal).
                    Some('.') if cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                        cur.bump();
                    }
                    _ => break,
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Num,
                text: String::new(),
                line,
                col,
            });
            continue;
        }

        // Everything else: one punctuation char.
        cur.bump();
        out.tokens.push(Token {
            kind: TokKind::Punct(c),
            text: String::new(),
            line,
            col,
        });
    }

    out
}

fn consume_ident(cur: &mut Cursor) -> String {
    let mut text = String::new();
    while let Some(ch) = cur.peek() {
        if !is_ident_continue(ch) {
            break;
        }
        text.push(ch);
        cur.bump();
    }
    text
}

fn consume_string_body(cur: &mut Cursor) {
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump(); // the escaped char, whatever it is
            }
            '"' => break,
            _ => {}
        }
    }
}

fn consume_raw_string_body(cur: &mut Cursor, hashes: usize) {
    'outer: while let Some(ch) = cur.bump() {
        if ch == '"' {
            for k in 0..hashes {
                if cur.peek_at(k) != Some('#') {
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
}

fn consume_char_body(cur: &mut Cursor) {
    // Called with the cursor just past the opening `'`; handles escapes
    // (`'\n'`, `'\u{7fff}'`) by skipping the char after each backslash.
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

/// Removes test-gated items from the token stream: any item annotated
/// `#[test]` or `#[cfg(... test ...)]` (but not `#[cfg(not(test))]`,
/// which gates production code) is dropped along with its attributes and
/// body. Rules therefore apply to non-test code only — tests may
/// `unwrap()` and spawn threads freely.
pub fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let end = attr_end(tokens, i);
            if attr_is_test_gate(&tokens[i + 2..end.saturating_sub(1)]) {
                let mut j = end;
                // Further attributes on the same item ride along.
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = attr_end(tokens, j);
                }
                // Skip the item: through the matching `}` of its first
                // top-level brace, or to a `;` for braceless items.
                let mut depth = 0i64;
                while j < tokens.len() {
                    match tokens[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth <= 0 {
                                j += 1;
                                break;
                            }
                        }
                        TokKind::Punct(';') if depth == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            out.extend_from_slice(&tokens[i..end]);
            i = end;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index just past the closing `]` of the attribute starting at `i`
/// (which must point at `#`).
fn attr_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

fn attr_is_test_gate(body: &[Token]) -> bool {
    // `#[test]` exactly.
    if body.len() == 1 && body[0].is_ident("test") {
        return true;
    }
    // `#[cfg(...)]` mentioning `test` — but `not(test)` gates *non*-test
    // code, so any `not` makes us keep the item (conservative).
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        let has_test = body.iter().any(|t| t.is_ident("test"));
        let has_not = body.iter().any(|t| t.is_ident("not"));
        return has_test && !has_not;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_kept_out_of_the_token_stream() {
        let l = lex("let x = 1; // env::var in a comment\n/* block env::var */ let y;");
        assert!(l.tokens.iter().all(|t| !t.is_ident("env")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("env::var"));
        assert_eq!(l.comments[0].line, 1);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let l = lex("/* outer /* inner */ still comment */ fn after() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert_eq!(idents("/* /* */ */ real"), ["real"]);
        assert!(l.tokens.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"call("std::env::var", "quote \" inside", 'x')"#;
        let ids = idents(src);
        assert_eq!(ids, ["call"], "string/char contents must not tokenize");
        let l = lex(src);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
    }

    #[test]
    fn raw_and_byte_strings_lex_as_one_token() {
        let src = "a(r\"x\", r#\"has \"quotes\" inside\"#, br##\"double\"# hash\"##, b\"bytes\")";
        let l = lex(src);
        assert_eq!(idents(src), ["a"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            4
        );
    }

    #[test]
    fn raw_identifiers_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a r#type) -> char { 'b' }");
        assert!(l.tokens.iter().any(|t| t.is_ident("type")), "r#type");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1,
            "'b' is a char, not a lifetime"
        );
    }

    #[test]
    fn nested_generics_produce_matched_angle_punct() {
        let src = "let m: Mutex<HashMap<ThreadId, u64>> = x;";
        let l = lex(src);
        let open = l.tokens.iter().filter(|t| t.is_punct('<')).count();
        let close = l.tokens.iter().filter(|t| t.is_punct('>')).count();
        assert_eq!((open, close), (2, 2), "`>>` must lex as two `>` tokens");
        assert!(l.tokens.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let l = lex("for i in 0..10 { x = 1.5e-3 + 0xff + 1_000; }");
        let nums = l.tokens.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 5, "0, 10, 1.5e-3, 0xff, 1_000");
        assert!(
            l.tokens.iter().filter(|t| t.is_punct('.')).count() == 2,
            "range dots survive"
        );
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let l = lex("ab\n  cd");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = r#"
            fn keep() { env_read(); }
            #[cfg(test)]
            mod tests {
                fn inner() { std::env::var("X"); }
            }
            #[test]
            fn a_test() { thread_spawn(); }
            #[cfg(not(test))]
            fn prod_only() { kept_too(); }
            fn also_keep() {}
        "#;
        let l = lex(src);
        let stripped = strip_test_items(&l.tokens);
        let names: Vec<&str> = stripped
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"also_keep"));
        assert!(names.contains(&"prod_only"), "cfg(not(test)) is production");
        assert!(names.contains(&"kept_too"));
        assert!(!names.contains(&"inner"), "cfg(test) mod dropped");
        assert!(!names.contains(&"a_test"), "#[test] fn dropped");
        assert!(!names.contains(&"var"));
    }

    #[test]
    fn strip_handles_semicolon_items_and_extra_attrs() {
        let src = r#"
            #[cfg(test)]
            use crate::test_helpers::Thing;
            #[test]
            #[should_panic]
            fn boom() { let _ = span(); }
            fn keep() {}
        "#;
        let stripped = strip_test_items(&lex(src).tokens);
        let names: Vec<&str> = stripped
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        // keywords lex as plain idents, so `fn` survives the filter
        assert_eq!(names, ["fn", "keep"]);
    }
}

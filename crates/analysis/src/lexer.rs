//! A hand-rolled Rust token scanner.
//!
//! Every pass needs to see source *structure* — brace nesting, `impl`
//! headers, statement boundaries — which no line-oriented scan can
//! recover once an expression spans lines. A full parser (`syn`) is
//! overkill and off-limits (no new dependencies); a lexer is enough,
//! because Rust's brace/paren/bracket structure is unambiguous at the
//! token level once comments and literals are out of the way.
//!
//! The scanner handles exactly the hard parts: nested block comments,
//! string/char/byte literals with escapes, raw strings with `#` fences,
//! and the `'a` lifetime vs `'a'` char-literal ambiguity. Everything
//! else is an ident, a number, or a single-character punct — multi-char
//! operators (`::`, `=>`, `->`) are left as punct sequences and matched
//! by the consumers, which keeps the scanner trivially correct.

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `impl`, `actor_ref`, ...).
    Ident,
    /// Single punctuation character (`{`, `:`, `?`, ...).
    Punct,
    /// String literal (text is the *content*, quotes and fences removed).
    Str,
    /// Char or byte literal.
    Char,
    /// Numeric literal (integer or float mantissa chunk).
    Num,
    /// Lifetime (`'a`, `'_`, `'static`), tick included in the text.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True if this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True if this is this punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == ch as u8
    }
}

/// Lexes Rust source into tokens, discarding comments and whitespace.
///
/// The scanner never fails: unterminated literals or comments simply end
/// at EOF, which is the right behavior for a lint that must not crash on
/// the code it is criticizing.
pub fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 6);
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1u32;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (content, next) = scan_string(src, i + 1, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line: start_line,
                });
                i = next;
            }
            'r' | 'b' if is_raw_or_byte_string(bytes, i) => {
                let start_line = line;
                let (content, next) = scan_raw_or_byte(src, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line: start_line,
                });
                i = next;
            }
            '\'' => {
                let start_line = line;
                let (tok, next) = scan_tick(src, i, start_line);
                toks.push(tok);
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && {
                    let b = bytes[i] as char;
                    b.is_alphanumeric() || b == '_'
                } {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && {
                    let b = bytes[i] as char;
                    b.is_alphanumeric() || b == '_'
                } {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += c.len_utf8();
            }
        }
    }
    toks
}

// ------------------------------------------------- token-stream helpers
//
// The two questions every pass asks of a token stream, answered once:
// "is this identifier a method call?" and "where does this bracket
// group end?".

/// True when token `j` is the name of a method call (`.name(`).
pub(crate) fn is_method_call(toks: &[Tok], j: usize) -> bool {
    j > 0
        && toks[j].kind == TokKind::Ident
        && toks[j - 1].is_punct('.')
        && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
}

/// Index just past the closer `c` matching the opener `o` at `open`
/// (`end` when the group is unterminated). Only the one bracket kind is
/// counted: literals and comments are already gone, so the other kinds
/// nest inside it without confusing the depth.
pub(crate) fn skip_group(toks: &[Tok], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Scans an ordinary string body starting just after the opening quote;
/// returns (content, index after closing quote).
fn scan_string(src: &str, mut i: usize, line: &mut u32) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                i += 2; // skip the escaped byte (content fidelity is irrelevant)
            }
            b'"' => return (out, i + 1),
            b'\n' => {
                *line += 1;
                out.push('\n');
                i += 1;
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    (out, i)
}

/// True if position `i` starts `r"`, `r#`, `b"`, `br"`, `br#`, `b'`-free
/// raw/byte string forms (byte *char* `b'x'` is handled by the tick path
/// being unreachable here — we only claim forms that open a string).
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Scans `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at the
/// `r`/`b`; returns (content, index after the closing fence).
fn scan_raw_or_byte(src: &str, mut i: usize, line: &mut u32) -> (String, usize) {
    let bytes = src.as_bytes();
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = i < bytes.len() && bytes[i] == b'r';
    if raw {
        i += 1;
    }
    let mut fence = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        fence += 1;
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'"' {
        i += 1;
    }
    if !raw {
        // plain byte string: ordinary escape rules
        return scan_string(src, i, line);
    }
    let mut out = String::new();
    while i < bytes.len() {
        if bytes[i] == b'"'
            && src.as_bytes()[i + 1..]
                .iter()
                .take(fence)
                .all(|b| *b == b'#')
        {
            return (out, i + 1 + fence);
        }
        if bytes[i] == b'\n' {
            *line += 1;
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    (out, i)
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) starting at
/// the tick; returns the token and the index after it.
fn scan_tick(src: &str, i: usize, line: u32) -> (Tok, usize) {
    let bytes = src.as_bytes();
    // Escaped char literal: '\n', '\'', '\u{...}'.
    if bytes.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (
            Tok {
                kind: TokKind::Char,
                text: src[i..(j + 1).min(bytes.len())].to_string(),
                line,
            },
            (j + 1).min(bytes.len()),
        );
    }
    // Unescaped char literal: exactly one char then a closing tick.
    if let Some(c) = src[i + 1..].chars().next() {
        let after = i + 1 + c.len_utf8();
        if bytes.get(after) == Some(&b'\'') {
            return (
                Tok {
                    kind: TokKind::Char,
                    text: src[i..after + 1].to_string(),
                    line,
                },
                after + 1,
            );
        }
    }
    // Lifetime: tick plus ident chars.
    let mut j = i + 1;
    while j < bytes.len() && {
        let b = bytes[j] as char;
        b.is_alphanumeric() || b == '_'
    } {
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Lifetime,
            text: src[i..j].to_string(),
            line,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(
            texts("fn f(x: u32) -> u32 { x + 1 }"),
            ["fn", "f", "(", "x", ":", "u32", ")", "-", ">", "u32", "{", "x", "+", "1", "}"]
        );
    }

    #[test]
    fn comments_are_discarded() {
        assert_eq!(
            texts("a // line\nb /* block /* nested */ still */ c"),
            ["a", "b", "c"]
        );
    }

    #[test]
    fn strings_do_not_leak_braces() {
        let toks = lex(r#"let s = "{ not a } brace"; }"#);
        let braces: Vec<_> = toks.iter().filter(|t| t.is_punct('}')).collect();
        assert_eq!(braces.len(), 1);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn raw_string_with_fence() {
        let toks = lex(r###"let s = r#"quote " inside"#; x"###);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "quote \" inside");
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("let c = 'x'; fn f<'a>(s: &'a str, u: &'_ str) {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'x'"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'_"));
        // The char literal's quotes must not have eaten the semicolon.
        assert!(toks.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let toks = lex(r"let c = '\''; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
        assert_eq!(toks.iter().filter(|t| t.is_punct('}')).count(), 1);
    }

    #[test]
    fn line_numbers_track_every_form() {
        let src = "a\n\"two\nlines\"\nb /* c\nd */ e";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("e"), 5);
    }

    #[test]
    fn byte_strings() {
        let toks = lex(r#"let b = b"bytes { }"; }"#);
        assert_eq!(toks.iter().filter(|t| t.is_punct('}')).count(), 1);
    }
}

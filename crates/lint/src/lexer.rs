//! A minimal Rust lexer: source text → token stream with line spans.
//!
//! This is deliberately *not* a parser. The lint passes work on flat
//! token sequences plus brace-depth tracking, which is enough to
//! recognise every pattern they care about (method calls, paths, match
//! arms, struct fields) without the maintenance burden of a grammar.
//! The lexer's one hard job is getting the *boundaries* right: comments
//! (line, nested block), string/char literals (escapes, raw strings
//! with arbitrary `#` fences, byte strings), and the `'a` lifetime vs
//! `'a'` char-literal ambiguity. Getting those wrong would make every
//! downstream lint misfire inside literals.

/// Token classification. Coarse on purpose: lints match on `Ident`
/// text and single-character punctuation sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `HashMap`, ...).
    Ident,
    /// Lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// String literal of any flavour (`"..."`, `r#"..."#`, `b"..."`).
    /// Text is the inner content for plain strings (escapes left as-is).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lex `src` into tokens. Comments and whitespace are skipped; comment
/// *text* is not needed by token-level lints (suppression comments are
/// looked up in the raw source lines instead, see `baseline`).
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (tok, ni, nl) = lex_plain_string(&b, i, line);
                toks.push(tok);
                i = ni;
                line = nl;
            }
            'r' | 'b' | 'c' if starts_string_prefix(&b, i) => {
                let (tok, ni, nl) = lex_prefixed_string(&b, i, line);
                toks.push(tok);
                i = ni;
                line = nl;
            }
            '\'' => {
                let (tok, ni, nl) = lex_quote(&b, i, line);
                toks.push(tok);
                i = ni;
                line = nl;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < n {
                    let d = b[i];
                    if d.is_alphanumeric() || d == '_' {
                        i += 1;
                    } else if d == '.' {
                        // `0..5` is a range, not a float continuation.
                        if i + 1 < n && b[i + 1] == '.' {
                            break;
                        }
                        if i + 1 >= n || b[i + 1].is_ascii_digit() || b[i + 1].is_whitespace() {
                            i += 1;
                        } else {
                            // `1.max(..)` — method call on an integer.
                            break;
                        }
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Does the `r`/`b`/`c` at `i` start a string/char literal prefix
/// (`r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`, `c"`, ...)? If the next
/// characters don't form one, it's just an identifier starting with
/// that letter.
fn starts_string_prefix(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    // Up to two prefix letters (`br`, `rb` is invalid but harmless).
    let mut letters = 0;
    while j < n && matches!(b[j], 'r' | 'b' | 'c') && letters < 2 {
        j += 1;
        letters += 1;
    }
    let mut hashes = false;
    while j < n && b[j] == '#' {
        j += 1;
        hashes = true;
    }
    if j >= n {
        return false;
    }
    if hashes {
        // `r#ident` raw identifiers have hashes but no quote.
        b[j] == '"'
    } else {
        b[j] == '"' || (b[j] == '\'' && b[i] == 'b')
    }
}

fn lex_plain_string(b: &[char], mut i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let n = b.len();
    i += 1; // opening quote
    let mut text = String::new();
    while i < n {
        match b[i] {
            '\\' if i + 1 < n => {
                text.push(b[i]);
                text.push(b[i + 1]);
                if b[i + 1] == '\n' {
                    line += 1;
                }
                i += 2;
            }
            '"' => {
                i += 1;
                break;
            }
            '\n' => {
                text.push('\n');
                line += 1;
                i += 1;
            }
            c => {
                text.push(c);
                i += 1;
            }
        }
    }
    (
        Tok {
            kind: TokKind::Str,
            text,
            line: start_line,
        },
        i,
        line,
    )
}

fn lex_prefixed_string(b: &[char], mut i: usize, mut line: u32) -> (Tok, usize, u32) {
    let start_line = line;
    let n = b.len();
    let mut raw = false;
    while i < n && matches!(b[i], 'r' | 'b' | 'c') {
        if b[i] == 'r' {
            raw = true;
        }
        i += 1;
    }
    if i < n && b[i] == '\'' {
        // Byte char literal `b'x'`.
        return lex_quote(b, i, line);
    }
    let mut fence = 0usize;
    while i < n && b[i] == '#' {
        fence += 1;
        i += 1;
    }
    i += 1; // opening quote
    let mut text = String::new();
    if raw {
        while i < n {
            if b[i] == '"' {
                // Check for closing fence of `fence` hashes.
                let mut k = 0;
                while k < fence && i + 1 + k < n && b[i + 1 + k] == '#' {
                    k += 1;
                }
                if k == fence {
                    i += 1 + fence;
                    break;
                }
                text.push('"');
                i += 1;
            } else {
                if b[i] == '\n' {
                    line += 1;
                }
                text.push(b[i]);
                i += 1;
            }
        }
    } else {
        // Non-raw prefixed string (`b"..."`): same rules as plain.
        let (tok, ni, nl) = lex_plain_string(&b[i - 1..], 0, line);
        return (
            Tok {
                kind: TokKind::Str,
                text: tok.text,
                line: start_line,
            },
            i - 1 + ni,
            nl,
        );
    }
    (
        Tok {
            kind: TokKind::Str,
            text,
            line: start_line,
        },
        i,
        line,
    )
}

/// Lex from a `'`: either a lifetime (`'a`, `'static`) or a char
/// literal (`'x'`, `'\''`, `'\u{1f600}'`).
fn lex_quote(b: &[char], mut i: usize, line: u32) -> (Tok, usize, u32) {
    let n = b.len();
    let start = i;
    // Skip a `b` prefix for byte chars.
    if b[i] == 'b' {
        i += 1;
    }
    i += 1; // the quote
    if i < n && b[i] == '\\' {
        // Escaped char literal.
        i += 2;
        while i < n && b[i] != '\'' {
            i += 1;
        }
        i += 1;
        return (
            Tok {
                kind: TokKind::Char,
                text: b[start..i.min(n)].iter().collect(),
                line,
            },
            i.min(n),
            line,
        );
    }
    // `'a'` is a char; `'a` followed by non-quote is a lifetime.
    if i + 1 < n && b[i + 1] == '\'' {
        let text: String = b[start..i + 2].iter().collect();
        return (
            Tok {
                kind: TokKind::Char,
                text,
                line,
            },
            i + 2,
            line,
        );
    }
    // Lifetime: consume ident chars after the quote.
    let id_start = i;
    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
        i += 1;
    }
    (
        Tok {
            kind: TokKind::Lifetime,
            text: b[id_start..i].iter().collect(),
            line,
        },
        i,
        line,
    )
}

/// Remove `#[cfg(test)]` / `#[test]` items from a token stream: the
/// attribute plus the item it decorates (through the item's closing
/// brace or terminating semicolon). Lints only police shipping code;
/// tests are free to `unwrap()` and read the clock.
pub fn strip_test_items(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && is_test_attr(toks, i) {
            i = skip_attr_and_item(toks, i);
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

/// Is the `#` at `i` the start of `#[cfg(test)]` or `#[test]`?
fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    let t = |k: usize| toks.get(i + k);
    let Some(open) = t(1) else { return false };
    if !open.is_punct('[') {
        return false;
    }
    match t(2) {
        Some(tok) if tok.is_ident("test") => {
            matches!(t(3), Some(close) if close.is_punct(']'))
        }
        Some(tok) if tok.is_ident("cfg") => {
            // `#[cfg(test)]` exactly; `#[cfg(feature = ...)]` passes through.
            matches!(
                (t(3), t(4), t(5), t(6)),
                (Some(a), Some(b), Some(c), Some(d))
                    if a.is_punct('(') && b.is_ident("test") && c.is_punct(')') && d.is_punct(']')
            )
        }
        _ => false,
    }
}

/// Skip the attribute starting at `i` (a `#`), any further attributes,
/// and the decorated item. Items end at their matching `}` (fn, mod,
/// impl) or at a top-level `;` reached before any `{` (use, struct X;).
fn skip_attr_and_item(toks: &[Tok], mut i: usize) -> usize {
    let n = toks.len();
    // Skip one or more attributes.
    while i < n && toks[i].is_punct('#') {
        i += 1; // '#'
        if i < n && toks[i].is_punct('[') {
            let mut depth = 0i32;
            while i < n {
                if toks[i].is_punct('[') {
                    depth += 1;
                } else if toks[i].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
    }
    // Skip the item: first `{...}` group or `;` wins.
    let mut brace = 0i32;
    while i < n {
        if toks[i].is_punct('{') {
            brace += 1;
        } else if toks[i].is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return i + 1;
            }
        } else if toks[i].is_punct(';') && brace == 0 {
            return i + 1;
        }
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_and_calls() {
        let toks = lex("let x = map.iter();");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "map", ".", "iter", "(", ")", ";"]);
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
// unwrap() in a comment
/* nested /* block */ with unwrap() */
let s = "unwrap() inside string";
let r = r#"raw "quoted" unwrap()"#;
let c = 'x';
"##;
        let toks = lex(src);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[1].contains("raw \"quoted\""));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'b'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn strips_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn after() {}";
        let toks = strip_test_items(&lex(src));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("live")));
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn strips_test_fns_but_keeps_cfg_feature() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() {}\n#[test]\nfn t() { panic!(); }";
        let toks = strip_test_items(&lex(src));
        assert!(toks.iter().any(|t| t.is_ident("gated")));
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
    }
}

//! Panic-path lint for the serving layer.
//!
//! A panic inside request handling or the job driver either kills a
//! client connection mid-stream or poisons server state (the server's
//! admission-slot guard exists because exactly that happened). In the
//! files on the request/driver path, `unwrap()`, `expect(..)`, `panic!`,
//! `unreachable!`, `todo!` and `unimplemented!` are forbidden; a site
//! that genuinely cannot fail gets a baseline entry *and* an inline
//! `// lint: allow(PANIC_PATH) — <reason>` comment, both of which the
//! tool verifies.

use crate::lexer::TokKind;
use crate::source::{Diagnostic, SourceFile};

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // `.unwrap()` / `.expect(..)` — method form only, so
            // idents like `unwrap_or_else` or struct fields named
            // `expect` don't match.
            "unwrap" | "expect"
                if i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) =>
            {
                out.push(Diagnostic::new(
                    &file.rel,
                    t.line,
                    "PANIC_PATH",
                    format!(
                        "`.{}(..)` on a serving path — return a typed error or recover (poisoned locks: `unwrap_or_else(PoisonError::into_inner)`)",
                        t.text
                    ),
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|p| p.is_punct('!')) =>
            {
                out.push(Diagnostic::new(
                    &file.rel,
                    t.line,
                    "PANIC_PATH",
                    format!("`{}!` on a serving path", t.text),
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text("t.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panic() {
        let d = run("fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); }");
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.lint == "PANIC_PATH"));
    }

    #[test]
    fn ignores_recovery_combinators_and_tests() {
        let d = run(
            "fn f() { a.unwrap_or_else(PoisonError::into_inner); b.unwrap_or(0); }\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}

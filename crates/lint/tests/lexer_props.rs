//! Property tests for the hand-rolled lexer, driven by `amnesia-testkit`.
//!
//! The analyzer's soundness rests on the lexer getting comments, strings
//! and raw strings right: a mis-lexed string boundary would let rule
//! matches leak out of (or into) literal text. These properties fuzz
//! generated source fragments and check the invariants that matter:
//! totality, exact span coverage, and opacity of literals/comments.

use amnesia_lint::lexer::{lex, TokenKind};
use amnesia_testkit::{for_all, Gen};

/// Random printable source soup, with the characters that exercise the
/// tricky lexer paths heavily over-represented.
fn soup(g: &mut Gen, max_len: usize) -> String {
    const SPICE: &[&str] = &[
        "\"", "'", "r#\"", "\"#", "//", "/*", "*/", "\\", "\n", "r#", "#", "'a", "b\"", "==", "!=",
        "::", "ident", "0x1f", " ", "{", "}", "(", ")",
    ];
    let n = g.usize_in(0, max_len);
    let mut out = String::new();
    for _ in 0..n {
        if g.next_bool() {
            out.push_str(SPICE[g.usize_in(0, SPICE.len() - 1)]);
        } else {
            out.push(char::from(g.u64_in(0x20, 0x7e) as u8));
        }
    }
    out
}

#[test]
fn lexer_is_total_and_spans_are_monotonic() {
    for_all("lexer total", 400, |g| {
        let src = soup(g, 80);
        let tokens = lex(&src); // must not panic on any input
        let mut prev_end = 0usize;
        for t in &tokens {
            if t.start < prev_end || t.end < t.start || t.end > src.len() {
                return Err(format!("bad span {}..{} in {src:?}", t.start, t.end));
            }
            if !src.is_char_boundary(t.start) || !src.is_char_boundary(t.end) {
                return Err(format!("span splits a char in {src:?}"));
            }
            prev_end = t.end;
        }
        Ok(())
    });
}

#[test]
fn string_contents_are_opaque() {
    // Whatever soup lands inside a cooked string, the lexer must treat the
    // literal as one token: no `unwrap`/`==`/comment-opener inside a string
    // may surface as its own token.
    for_all("string opaque", 400, |g| {
        let inner = soup(g, 24).replace(['"', '\\'], ""); // keep the literal well-terminated
        let src = format!("let s = \"{inner}\";");
        let tokens = lex(&src);
        let strings: Vec<_> = tokens.iter().filter(|t| t.kind == TokenKind::Str).collect();
        if strings.len() != 1 {
            return Err(format!(
                "expected 1 string token in {src:?}, got {strings:?}"
            ));
        }
        let body = strings[0].text(&src);
        if body != format!("\"{inner}\"") {
            return Err(format!("string span {body:?} != literal in {src:?}"));
        }
        Ok(())
    });
}

#[test]
fn raw_string_contents_are_opaque() {
    for_all("raw string opaque", 400, |g| {
        let inner = soup(g, 24).replace(['#', '"'], "");
        let src = format!("let s = r#\"{inner}\"#;");
        let tokens = lex(&src);
        let raws: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::RawStr)
            .collect();
        if raws.len() != 1 {
            return Err(format!("expected 1 raw string in {src:?}, got {raws:?}"));
        }
        if raws[0].text(&src) != format!("r#\"{inner}\"#") {
            return Err(format!("raw string span wrong in {src:?}"));
        }
        Ok(())
    });
}

#[test]
fn line_comments_swallow_to_newline() {
    for_all("line comment opaque", 400, |g| {
        let tail = soup(g, 24).replace('\n', "");
        let src = format!("let x = 1; // {tail}\nlet y = 2;");
        let tokens = lex(&src);
        let comments: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::LineComment)
            .collect();
        if comments.len() != 1 {
            return Err(format!("expected 1 line comment in {src:?}"));
        }
        if comments[0].text(&src) != format!("// {tail}") {
            return Err(format!("comment span wrong in {src:?}"));
        }
        Ok(())
    });
}

#[test]
fn concatenation_only_grows_the_stream() {
    // Lexing `a` then `b` separately and lexing `a + newline + b` must agree
    // on token counts when `a` is itself well-formed at a token boundary —
    // a cheap check that lexer state never leaks across statements.
    for_all("concat stable", 200, |g| {
        let a = "let a = 1;";
        let b_soup = soup(g, 30);
        let combined = format!("{a}\n{b_soup}");
        let first = lex(a);
        let whole = lex(&combined);
        if whole.len() < first.len() {
            return Err(format!("tokens vanished when appending {b_soup:?}"));
        }
        for (x, y) in first.iter().zip(&whole) {
            if x.kind != y.kind || x.start != y.start {
                return Err(format!("prefix tokens changed when appending {b_soup:?}"));
            }
        }
        Ok(())
    });
}

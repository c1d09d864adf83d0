//! The rule families: secret-hygiene (taint-tracking), determinism,
//! no-panic, hermeticity, nondet-iteration, lock-discipline, and
//! cast-truncation.
//!
//! Every rule works on the lexed token stream plus the [`FileMap`]
//! structure; none of them re-scan raw text, so occurrences inside
//! strings, comments, and doc examples are never findings. Each rule
//! honors `// lint: allow(<rule>) <reason>` waivers (same line or the
//! line above) and the global disabled-rule list in [`Config`].
//!
//! | rule id                  | family        | fires on |
//! |--------------------------|---------------|----------|
//! | `secret-debug-derive`    | secret        | `#[derive(.., Debug, ..)]` on a secret type |
//! | `secret-eq-derive`       | secret        | `#[derive(.., PartialEq, ..)]` on a secret type (derived equality is not constant-time) |
//! | `secret-display-impl`    | secret        | `impl Display for <secret type>` |
//! | `secret-byte-compare`    | secret        | `==`/`!=` with an `.as_bytes()` operand (use `amnesia_crypto::ct_eq`) |
//! | `secret-format`          | secret        | a secret-tainted value (direct mention *or* alias traced by [`crate::taint`]) inside `format!`-family macro arguments |
//! | `secret-telemetry`       | secret        | a secret-tainted value passed to a telemetry method (`counter`, `gauge`, …) |
//! | `secret-encode`          | secret        | a secret-tainted value reaching a wire-encode call outside the codec allowlist |
//! | `secret-unwiped-buffer`  | secret        | a heap-allocated `let` binding named like key material (`ipad`, `key_block`, …) with no `zeroize` call on it |
//! | `determinism`            | determinism   | `SystemTime` / `Instant` / `UNIX_EPOCH` outside the clock allowlist |
//! | `no-panic-unwrap`        | no-panic      | `.unwrap()` outside test code |
//! | `no-panic-expect`        | no-panic      | `.expect(…)` outside test code |
//! | `no-panic-macro`         | no-panic      | `panic!` / `unreachable!` / `todo!` / `unimplemented!` outside test code |
//! | `no-panic-index`         | no-panic      | indexing with an integer literal (`frames[0]`) outside test code |
//! | `hermeticity-extern-crate` | hermeticity | `extern crate` in source |
//! | `hermeticity-dependency` | hermeticity   | a manifest dependency that is not an in-workspace path crate |
//! | `nondet-iteration`       | nondet-iteration | iterating a `HashMap`/`HashSet` in an order-sensitive position (for-loop, ordered collect, extend) |
//! | `lock-discipline`        | lock-discipline | a blocking call (`send`, `recv`, `sleep`, …) while a `Mutex`/`RwLock` guard is live |
//! | `cast-truncation`        | cast-truncation | a narrowing `as` cast on a counter/length/clock-named value with no visible bound |

use crate::config::Config;
use crate::findings::{line_snippet, Finding};
use crate::lexer::TokenKind;
use crate::parse::FileMap;

/// Shared context for one file's rule run.
pub struct RuleCtx<'a> {
    /// Workspace-relative path.
    pub file: &'a str,
    /// Raw source text.
    pub src: &'a str,
    /// Structural facts.
    pub map: &'a FileMap,
    /// Analyzer configuration.
    pub cfg: &'a Config,
}

impl<'a> RuleCtx<'a> {
    pub(crate) fn emit(
        &self,
        out: &mut Vec<Finding>,
        rule: &str,
        offset: usize,
        line: u32,
        message: String,
    ) {
        if self.cfg.rule_disabled(rule) || self.map.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            file: self.file.to_string(),
            line,
            rule: rule.to_string(),
            snippet: line_snippet(self.src, offset),
            message,
        });
    }

    pub(crate) fn text(&self, ci: usize) -> &'a str {
        self.map.code_text(self.src, ci)
    }
}

/// One source-rule pass: reads the file through its context and appends
/// what it finds.
type SourcePass = fn(&RuleCtx<'_>, &mut Vec<Finding>);

/// The source-rule passes in execution order, labelled for the CLI's
/// `--timing` report. Each label names the pass (usually the rule family it
/// implements), not an individual rule id.
pub const SOURCE_PASSES: &[(&str, SourcePass)] = &[
    ("secret-derives", secret_derives),
    ("secret-display-impl", secret_display_impl),
    ("secret-byte-compare", secret_byte_compare),
    ("secret-taint", crate::taint::check),
    ("secret-unwiped-buffer", secret_unwiped_buffer),
    ("determinism", determinism),
    ("no-panic", no_panic),
    ("hermeticity-extern-crate", extern_crate),
    ("nondet-iteration", crate::flow::nondet_iteration),
    ("lock-discipline", crate::flow::lock_discipline),
    ("cast-truncation", crate::flow::cast_truncation),
];

/// Runs every source rule over one file.
pub fn check_source(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (_, pass) in SOURCE_PASSES {
        pass(ctx, &mut out);
    }
    // Nested functions get their own `FnDef` *and* appear inside their
    // parent's block tree, so a pass may report the same site twice.
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// secret-hygiene
// ---------------------------------------------------------------------------

fn secret_derives(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    for attr in &ctx.map.attributes {
        if attr.name != "derive" {
            continue;
        }
        let Some(item) = attr.item_name.as_deref() else {
            continue;
        };
        if !ctx.cfg.secret_types.iter().any(|t| t == item) {
            continue;
        }
        if attr.args.iter().any(|a| a == "Debug") {
            ctx.emit(
                out,
                "secret-debug-derive",
                attr.start,
                attr.line,
                format!(
                    "secret type `{item}` derives Debug; derive leaks every byte — write a \
                     truncating manual impl instead"
                ),
            );
        }
        if attr.args.iter().any(|a| a == "PartialEq") {
            ctx.emit(
                out,
                "secret-eq-derive",
                attr.start,
                attr.line,
                format!(
                    "secret type `{item}` derives PartialEq; derived equality short-circuits — \
                     implement it over `amnesia_crypto::ct_eq`"
                ),
            );
        }
    }
}

fn secret_display_impl(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let code = &ctx.map.code;
    let mut i = 0usize;
    while i < code.len() {
        if ctx.text(i) != "impl" {
            i += 1;
            continue;
        }
        // Scan `impl …` up to `for` or the opening `{`, remembering the last
        // path identifier seen (the trait's terminal segment).
        let mut last_ident = "";
        let mut j = i + 1;
        let mut found = false;
        while j < code.len() && j < i + 24 {
            match ctx.text(j) {
                "{" | ";" => break,
                "for" => {
                    found = true;
                    break;
                }
                t if ctx
                    .map
                    .code_tok(j)
                    .is_some_and(|tok| tok.kind == TokenKind::Ident) =>
                {
                    last_ident = t;
                }
                _ => {}
            }
            j += 1;
        }
        if found && last_ident == "Display" {
            let ty = ctx.text(j + 1);
            if ctx.cfg.secret_types.iter().any(|t| t == ty) {
                let tok_line = ctx.map.code_tok(i).map_or(1, |t| t.line);
                let tok_start = ctx.map.code_tok(i).map_or(0, |t| t.start);
                ctx.emit(
                    out,
                    "secret-display-impl",
                    tok_start,
                    tok_line,
                    format!(
                        "secret type `{ty}` implements Display; secrets must never have a \
                         user-facing rendering"
                    ),
                );
            }
        }
        i = j.max(i + 1);
    }
}

fn secret_byte_compare(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .cfg
        .ct_impl_files
        .iter()
        .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return; // the constant-time primitive itself
    }
    let code = &ctx.map.code;
    for i in 0..code.len() {
        let op = ctx.text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        let Some(tok) = ctx.map.code_tok(i) else {
            continue;
        };
        if ctx.map.in_test_code(tok.start) {
            continue; // test assertions on fixed vectors are fine
        }
        // Operand before: `… .as_bytes ( ) ==`
        let before = i >= 3
            && ctx.text(i - 3) == "as_bytes"
            && ctx.text(i - 2) == "("
            && ctx.text(i - 1) == ")";
        // Operand after: `== <borrow/path>* as_bytes (` within a few tokens.
        let mut after = false;
        let mut j = i + 1;
        while j < code.len() && j <= i + 8 {
            match ctx.text(j) {
                "as_bytes" => {
                    after = ctx.text(j + 1) == "(";
                    break;
                }
                "&" | "." | "::" | "(" | ")" | "self" => j += 1,
                t if ctx
                    .map
                    .code_tok(j)
                    .is_some_and(|tok| tok.kind == TokenKind::Ident) =>
                {
                    j += 1;
                    let _ = t;
                }
                _ => break,
            }
        }
        if before || after {
            ctx.emit(
                out,
                "secret-byte-compare",
                tok.start,
                tok.line,
                "byte-slice comparison with `==`/`!=` is not constant-time; use \
                 `amnesia_crypto::ct_eq`"
                    .to_string(),
            );
        }
    }
}

// `secret-format` is implemented by the taint engine in [`crate::taint`]
// since PR 8 (the PR 3 token-window scan only saw directly-spelled secret
// idents; the engine also follows aliases across statements).

/// Identifiers interpolated in a format string body (`"{oid:x}"` → `oid`).
pub(crate) fn format_string_idents(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2; // escaped `{{`
                continue;
            }
            let end = body[i + 1..]
                .find(['}', ':'])
                .map(|e| i + 1 + e)
                .unwrap_or(bytes.len());
            let name: String = body[i + 1..end]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .to_ascii_lowercase();
            if !name.is_empty() && !name.chars().all(|c| c.is_ascii_digit()) {
                out.push(name);
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn secret_unwiped_buffer(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.cfg.secret_buffer_idents.is_empty() {
        return;
    }
    let code = &ctx.map.code;
    // Pass 1: identifiers handed to a `zeroize`-family call, with the code
    // index of the call. A binding counts as wiped when a call naming it
    // sits in the same fn body (the wipe usually sits a few statements below
    // the binding, so the check is fn-scoped rather than statement-scoped;
    // two fns of one file may bind the same buffer name).
    let mut wiped: Vec<(&str, usize)> = Vec::new();
    for i in 0..code.len() {
        if !matches!(ctx.text(i), "zeroize" | "zeroize_u32" | "zeroize_u64")
            || ctx.text(i + 1) != "("
        {
            continue;
        }
        let mut depth = 1i32;
        let mut j = i + 2;
        while j < code.len() && depth > 0 {
            match ctx.text(j) {
                "(" => depth += 1,
                ")" => depth -= 1,
                t if ctx
                    .map
                    .code_tok(j)
                    .is_some_and(|tok| tok.kind == TokenKind::Ident) =>
                {
                    wiped.push((t, i));
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Pass 2: `let [mut] <ident> … = <heap-allocating initializer>;` where
    // the name marks key material and nothing in its fn wipes it.
    let mut i = 0usize;
    while i < code.len() {
        if ctx.text(i) != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ctx.text(j) == "mut" {
            j += 1;
        }
        let Some(tok) = ctx.map.code_tok(j) else {
            i += 1;
            continue;
        };
        if tok.kind != TokenKind::Ident || ctx.map.in_test_code(tok.start) {
            i = j + 1;
            continue;
        }
        let name = ctx.text(j);
        let lowered = name.to_ascii_lowercase();
        if !ctx
            .cfg
            .secret_buffer_idents
            .iter()
            .any(|s| lowered.contains(s.as_str()))
        {
            i = j + 1;
            continue;
        }
        // Scan the type and initializer up to the statement's `;` for an
        // allocation; a `;` inside brackets (`[u32; 16]`, a block) is not it.
        let mut heap = false;
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < code.len() {
            match ctx.text(k) {
                ";" if depth == 0 => break,
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "vec" if ctx.text(k + 1) == "!" => heap = true,
                "to_vec" | "collect" | "with_capacity" if ctx.text(k + 1) == "(" => heap = true,
                _ => {}
            }
            k += 1;
        }
        // The innermost fn body holding the binding (the whole file for a
        // binding outside any fn).
        let (open, close) = ctx
            .map
            .fns
            .iter()
            .map(|f| (f.body.open, f.body.close))
            .filter(|&(open, close)| open < j && j < close)
            .min_by_key(|&(open, close)| close - open)
            .unwrap_or((0, code.len()));
        let wiped_here = wiped
            .iter()
            .any(|&(w, at)| w == name && open < at && at < close);
        if heap && !wiped_here {
            ctx.emit(
                out,
                "secret-unwiped-buffer",
                tok.start,
                tok.line,
                format!(
                    "heap-allocated key-material buffer `{name}` is never zeroized; wipe it \
                     with `amnesia_crypto::zeroize` before drop, or use a fixed stack array"
                ),
            );
        }
        i = k.max(j + 1);
    }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

fn determinism(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .cfg
        .determinism_allow_files
        .iter()
        .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return;
    }
    for &idx in &ctx.map.code {
        let tok = &ctx.map.tokens[idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let t = tok.text(ctx.src);
        if matches!(t, "SystemTime" | "Instant" | "UNIX_EPOCH") {
            ctx.emit(
                out,
                "determinism",
                tok.start,
                tok.line,
                format!(
                    "wall-clock read (`{t}`) outside the clock allowlist; route time through \
                     `amnesia_telemetry::Clock` so simulation and replay stay deterministic"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic
// ---------------------------------------------------------------------------

fn no_panic(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let code = &ctx.map.code;
    for i in 0..code.len() {
        let Some(tok) = ctx.map.code_tok(i) else {
            continue;
        };
        if ctx.map.in_test_code(tok.start) {
            continue;
        }
        let t = tok.text(ctx.src);
        match t {
            "unwrap" | "expect" if i >= 1 && ctx.text(i - 1) == "." && ctx.text(i + 1) == "(" => {
                let rule = if t == "unwrap" {
                    "no-panic-unwrap"
                } else {
                    "no-panic-expect"
                };
                ctx.emit(
                    out,
                    rule,
                    tok.start,
                    tok.line,
                    format!(
                        "`.{t}(…)` in library code panics on the error path; return a typed \
                         error (or waive with `lint: allow({rule}) <reason>`)"
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if ctx.text(i + 1) == "!" => {
                ctx.emit(
                    out,
                    "no-panic-macro",
                    tok.start,
                    tok.line,
                    format!("`{t}!` aborts the caller; library code must return a typed error"),
                );
            }
            "[" => {
                let prev_is_place = i >= 1
                    && (ctx.text(i - 1) == ")"
                        || ctx.text(i - 1) == "]"
                        || ctx.map.code_tok(i - 1).is_some_and(|p| {
                            p.kind == TokenKind::Ident && !is_keyword(ctx.text(i - 1))
                        }));
                let lit_index = ctx
                    .map
                    .code_tok(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Number)
                    && ctx.text(i + 2) == "]";
                if prev_is_place && lit_index {
                    ctx.emit(
                        out,
                        "no-panic-index",
                        tok.start,
                        tok.line,
                        "indexing with a literal panics when the collection is shorter; use \
                         `.get(…)` or pattern-match"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede `[` without forming an indexing
/// expression (`return [0]`, `break`, array types after `impl`…).
fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "return" | "break" | "in" | "as" | "mut" | "ref" | "move" | "else" | "match" | "if"
    )
}

// ---------------------------------------------------------------------------
// hermeticity
// ---------------------------------------------------------------------------

fn extern_crate(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let code = &ctx.map.code;
    for i in 0..code.len() {
        if ctx.text(i) == "extern" && ctx.text(i + 1) == "crate" {
            let Some(tok) = ctx.map.code_tok(i) else {
                continue;
            };
            ctx.emit(
                out,
                "hermeticity-extern-crate",
                tok.start,
                tok.line,
                "`extern crate` bypasses the manifest; the workspace is zero-dependency by \
                 design (DESIGN.md §6)"
                    .to_string(),
            );
        }
    }
}

/// Checks one Cargo manifest: every dependency must be an in-workspace
/// path crate (`path = …` or `….workspace = true`).
pub fn check_manifest(file: &str, text: &str, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if cfg.rule_disabled("hermeticity-dependency") {
        return out;
    }
    let mut in_dep_section = false;
    let mut subsection: Option<(String, u32, String)> = None; // (name, line, accumulated keys)
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno as u32 + 1;
        if line.starts_with('[') {
            // Close any open `[dependencies.foo]` subsection first.
            if let Some((name, at, keys)) = subsection.take() {
                if !keys.contains("path") && !keys.contains("workspace") {
                    out.push(dep_finding(file, at, &name));
                }
            }
            let section = line.trim_matches(['[', ']']).trim();
            let is_deps = section.ends_with("dependencies");
            in_dep_section = is_deps;
            if !is_deps {
                if let Some(name) = section
                    .strip_suffix(']')
                    .unwrap_or(section)
                    .rsplit_once("dependencies.")
                    .map(|(_, n)| n.to_string())
                {
                    subsection = Some((name, lineno, String::new()));
                }
            }
            continue;
        }
        if let Some((_, _, keys)) = subsection.as_mut() {
            if let Some((k, _)) = line.split_once('=') {
                keys.push_str(k.trim());
                keys.push(' ');
            }
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let ok = key.ends_with(".workspace")
            || value.contains("path")
            || value.contains("workspace = true");
        if !ok {
            out.push(dep_finding(file, lineno, key));
        }
    }
    if let Some((name, at, keys)) = subsection.take() {
        if !keys.contains("path") && !keys.contains("workspace") {
            out.push(dep_finding(file, at, &name));
        }
    }
    out
}

fn dep_finding(file: &str, line: u32, name: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: "hermeticity-dependency".to_string(),
        snippet: name.to_string(),
        message: format!(
            "dependency `{name}` is not an in-workspace path crate; the workspace builds \
             offline with zero external crates (DESIGN.md §6)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let cfg = Config::default();
        let map = FileMap::build(src, lex(src));
        check_source(&RuleCtx {
            file: "test.rs",
            src,
            map: &map,
            cfg: &cfg,
        })
    }

    fn rules(src: &str) -> Vec<String> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn derive_debug_on_secret_type() {
        let found = rules("#[derive(Clone, Debug, PartialEq)]\npub struct Seed([u8; 32]);");
        assert!(found.contains(&"secret-debug-derive".to_string()));
        assert!(found.contains(&"secret-eq-derive".to_string()));
    }

    #[test]
    fn derive_debug_on_public_type_is_fine() {
        assert!(rules("#[derive(Clone, Debug)]\npub struct Config { n: u32 }").is_empty());
    }

    #[test]
    fn display_impl_on_secret() {
        let found = rules("impl std::fmt::Display for Token { }");
        assert_eq!(found, vec!["secret-display-impl"]);
    }

    #[test]
    fn debug_impl_on_secret_is_fine() {
        // Manual Debug impls are the approved truncating path.
        assert!(rules("impl fmt::Debug for Token { }").is_empty());
    }

    #[test]
    fn byte_compare_flagged_both_sides() {
        let found = rules("fn f() { if a.as_bytes() == b { } }");
        assert_eq!(found, vec!["secret-byte-compare"]);
        let found = rules("fn f() { if x != y.as_bytes() { } }");
        assert_eq!(found, vec!["secret-byte-compare"]);
    }

    #[test]
    fn byte_compare_in_tests_is_fine() {
        assert!(rules("#[test]\nfn t() { assert!(a.as_bytes() == b); }").is_empty());
    }

    #[test]
    fn secret_ident_in_format_macro() {
        let found = rules(r#"fn f(oid: &OnlineId) { println!("leak {}", oid); }"#);
        assert_eq!(found, vec!["secret-format"]);
        let found = rules(r#"fn f(kp: &[u8]) { let s = format!("{kp:?}"); }"#);
        assert_eq!(found, vec!["secret-format"]);
    }

    #[test]
    fn benign_format_is_fine() {
        assert!(rules(r#"fn f(count: u32) { println!("done {count}"); }"#).is_empty());
    }

    #[test]
    fn unwiped_heap_key_buffer_flagged() {
        let found = rules("fn f(pw: &[u8]) { let mut key_block = pw.to_vec(); }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
        let found = rules("fn f() { let ipad = vec![0x36u8; 64]; }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
        let found =
            rules("fn f(xs: &[u8]) { let opad: Vec<u8> = xs.iter().map(|b| b ^ 0x5c).collect(); }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
    }

    #[test]
    fn unwiped_with_capacity_key_buffer_flagged() {
        let found = rules("fn f(n: usize) { let mut key_block = Vec::with_capacity(n); }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
    }

    #[test]
    fn array_element_type_does_not_end_the_initializer() {
        let found =
            rules("fn f(n: usize) { let key_block: Vec<[u32; 16]> = Vec::with_capacity(n); }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
        let found = rules("fn f() { let ipad: Vec<[u8; 4]> = vec![[0x36; 4]; 16]; }");
        assert_eq!(found, vec!["secret-unwiped-buffer"]);
    }

    #[test]
    fn zeroized_with_capacity_key_buffer_is_fine() {
        let src = "fn f(n: usize) { let mut key_block: Vec<u32> = Vec::with_capacity(n); \
                   zeroize_u32(&mut key_block); }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn wipe_in_another_fn_does_not_count() {
        // Two kernels binding the same name: each must wipe its own.
        let src =
            "fn portable() { let mut key_block = vec![0u32; 8]; zeroize_u32(&mut key_block); }\n\
                   fn vector(n: usize) { let mut key_block = Vec::with_capacity(n); }";
        assert_eq!(rules(src), vec!["secret-unwiped-buffer"]);
    }

    #[test]
    fn stack_array_key_buffer_is_fine() {
        assert!(rules("fn f() { let mut key_block = [0u8; 64]; }").is_empty());
    }

    #[test]
    fn zeroized_heap_key_buffer_is_fine() {
        let src = "fn f(pw: &[u8]) { let mut key_block = pw.to_vec(); zeroize(&mut key_block); }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unwiped_buffer_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod t { fn f(pw: &[u8]) { let ipad = pw.to_vec(); } }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unwiped_buffer_waivable() {
        let src = "fn f(pw: &[u8]) {\n    // lint: allow(secret-unwiped-buffer) dropped by callee\n    let ipad = pw.to_vec();\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn non_secret_heap_buffer_is_fine() {
        assert!(rules("fn f(xs: &[u8]) { let frames = xs.to_vec(); }").is_empty());
    }

    #[test]
    fn wallclock_reads_flagged() {
        let found = rules("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(found, vec!["determinism"]);
    }

    #[test]
    fn duration_is_deterministic_and_fine() {
        assert!(rules("fn f(d: std::time::Duration) -> u128 { d.as_micros() }").is_empty());
    }

    #[test]
    fn unwrap_expect_and_macros_flagged_outside_tests() {
        let found = rules("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }");
        assert_eq!(
            found,
            vec!["no-panic-expect", "no-panic-macro", "no-panic-unwrap"]
        );
    }

    #[test]
    fn unwrap_in_test_code_is_fine() {
        assert!(rules("#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        assert!(rules("fn f() { x.unwrap_or_default(); y.unwrap_or(3); }").is_empty());
    }

    #[test]
    fn literal_index_flagged_but_ranges_fine() {
        assert_eq!(rules("fn f() { let a = xs[0]; }"), vec!["no-panic-index"]);
        assert!(rules("fn f() { let a = &xs[..4]; }").is_empty());
        assert!(rules("fn f() { let a: [u8; 32] = [0; 32]; }").is_empty());
    }

    #[test]
    fn allow_directive_waives_exact_rule() {
        let src =
            "fn f() {\n    // lint: allow(no-panic-unwrap) startup invariant\n    x.unwrap();\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn extern_crate_flagged() {
        assert_eq!(
            rules("extern crate serde;"),
            vec!["hermeticity-extern-crate"]
        );
    }

    #[test]
    fn unwrap_in_string_or_comment_is_not_code() {
        assert!(rules(r#"fn f() { let s = "x.unwrap()"; } // y.unwrap()"#).is_empty());
    }

    #[test]
    fn manifest_external_dep_flagged() {
        let cfg = Config::default();
        let bad = "[dependencies]\nserde = \"1.0\"\namnesia-core = { path = \"../core\" }\n";
        let found = check_manifest("Cargo.toml", bad, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].snippet, "serde");
        let good = "[dependencies]\namnesia-core.workspace = true\n";
        assert!(check_manifest("Cargo.toml", good, &cfg).is_empty());
    }

    #[test]
    fn manifest_subsection_dep_flagged() {
        let cfg = Config::default();
        let bad = "[dependencies.rand]\nversion = \"0.8\"\n\n[features]\n";
        let found = check_manifest("Cargo.toml", bad, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].snippet, "rand");
    }
}

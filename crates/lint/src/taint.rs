//! Intra-procedural secret taint tracking.
//!
//! The window-limited `secret-format` check from PR 3 only saw a secret
//! identifier spelled *directly* inside a macro's argument list. This
//! engine walks each function's block tree ([`crate::parse::FnDef`]) with
//! an environment of tainted bindings, so an alias survives any number of
//! statements:
//!
//! ```text
//! fn audit(oid: &OnlineId) {
//!     let label = oid.clone();      // label inherits oid's taint
//!     let shown = label;            // and so does shown
//!     println!("granting {shown}"); // finding: secret-format
//! }
//! ```
//!
//! **Sources.** A binding is tainted when (a) its name (lowercased) is in
//! `[secret_idents]`, (b) its declared type mentions a `[secret_types]`
//! name, or (c) its initializer reads a tainted binding or calls a secret
//! type's constructor (`OnlineId::…`). Taint propagates through `let`,
//! re-assignment, `clone()`, `as_bytes()`, field access and arbitrary
//! method chains — any expression that *mentions* a tainted value taints
//! the binding. Re-assigning from an untainted expression clears it.
//!
//! **Sanitizers.** An occurrence immediately followed by `.len(`,
//! `.is_empty(` or `.capacity(` does not carry taint — lengths of secrets
//! are not secrets.
//!
//! **Sinks.** Three rules fire when a tainted value reaches:
//!
//! * `secret-format` — a `[secret_format] macros` macro argument,
//!   including `{ident}` interpolation in the format string (this subsumes
//!   and replaces the PR 3 token-window rule; direct secret-ident hits are
//!   preserved byte-for-byte so the baseline does not churn);
//! * `secret-telemetry` — an argument of a `[taint] telemetry_methods`
//!   call (`.counter(label)`, `.span(name)`, …): metric names and labels
//!   are exported in snapshots;
//! * `secret-encode` — the receiver or argument of a `Record` codec call
//!   (`tainted.encode(buf)`, `encode_bytes(buf, tainted)`) outside the
//!   `[taint] encode_allow_files` list — wire records with embedded
//!   secrets leave the custodian.
//!
//! Aliased (environment-carried) findings skip `#[cfg(test)]` code; direct
//! secret-ident hits keep the PR 3 behavior and fire everywhere. Nested
//! items inside a body are walked with an *empty* environment (their own
//! `FnDef` entry re-seeds them from their own parameters), and every
//! nested fn is also analyzed standalone, so findings are deduplicated at
//! the end.

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::parse::{Block, Stmt, StmtKind};
use crate::rules::RuleCtx;

/// Codec call names whose arguments are `secret-encode` sinks.
const ENCODE_FNS: &[&str] = &["encode", "encode_bytes", "to_wire", "to_bytes"];

/// Methods that launder taint: the length of a secret is not a secret.
const SANITIZERS: &[&str] = &["len", "is_empty", "capacity"];

/// Runs the taint engine over every parsed fn in the file.
pub fn check(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    for f in &ctx.map.fns {
        let mut env: BTreeSet<String> = BTreeSet::new();
        for p in &f.params {
            if is_secret_ident(ctx, &p.name) || ty_mentions_secret(ctx, &p.ty) {
                env.insert(p.name.clone());
            }
        }
        walk_block(ctx, &f.body, &mut env, out);
    }
    // Nested fns are walked twice (as an Item child and standalone); drop
    // the duplicates.
    out.sort();
    out.dedup();
}

fn is_secret_ident(ctx: &RuleCtx<'_>, name: &str) -> bool {
    let lowered = name.to_ascii_lowercase();
    ctx.cfg.secret_idents.contains(&lowered)
}

fn ty_mentions_secret(ctx: &RuleCtx<'_>, ty: &str) -> bool {
    ctx.cfg.secret_types.iter().any(|t| {
        ty.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == t)
    })
}

fn walk_block(
    ctx: &RuleCtx<'_>,
    block: &Block,
    env: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        scan_sinks(ctx, stmt, env, out);
        for child in &stmt.children {
            // Nested items start from a clean environment; control-flow
            // children (loop bodies, if arms, match bodies) see a copy of
            // the current one. Mutations inside a branch do not merge
            // back — the engine is deliberately may-analysis on sinks and
            // must-analysis on kills only within straight-line code.
            let mut child_env = if matches!(stmt.kind, StmtKind::Item) {
                BTreeSet::new()
            } else {
                env.clone()
            };
            walk_block(ctx, child, &mut child_env, out);
        }
        match &stmt.kind {
            StmtKind::Let { name, ty, init } => {
                let from_ty = ty.is_some_and(|(a, b)| range_mentions_secret_type(ctx, a, b));
                let from_init = init.is_some_and(|(a, b)| expr_tainted(ctx, env, a, b))
                    || is_secret_ident(ctx, name);
                if name.is_empty() {
                    continue;
                }
                if from_ty || from_init {
                    env.insert(name.clone());
                } else {
                    env.remove(name);
                }
            }
            StmtKind::Assign { name, value } => {
                if expr_tainted(ctx, env, value.0, value.1) || is_secret_ident(ctx, name) {
                    env.insert(name.clone());
                } else {
                    env.remove(name);
                }
            }
            _ => {}
        }
    }
}

/// Whether the code range `[a, b)` names a secret type.
fn range_mentions_secret_type(ctx: &RuleCtx<'_>, a: usize, b: usize) -> bool {
    (a..b).any(|ci| {
        ctx.map
            .code_tok(ci)
            .is_some_and(|t| t.kind == TokenKind::Ident)
            && ctx.cfg.secret_types.iter().any(|t| t == ctx.text(ci))
    })
}

/// Whether the expression in code range `[a, b)` carries taint: it reads a
/// tainted binding, a configured secret ident, or a secret type's
/// constructor — unless the occurrence is immediately sanitized.
fn expr_tainted(ctx: &RuleCtx<'_>, env: &BTreeSet<String>, a: usize, b: usize) -> bool {
    for ci in a..b.min(ctx.map.code.len()) {
        let Some(tok) = ctx.map.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(ci);
        let secret_ty = ctx.cfg.secret_types.iter().any(|s| s == t) && ctx.text(ci + 1) == "::";
        let tainted_read = env.contains(t) || is_secret_ident(ctx, t);
        if (secret_ty || tainted_read) && !sanitized_at(ctx, ci) {
            return true;
        }
    }
    false
}

/// Whether the identifier occurrence at `ci` is immediately followed by a
/// sanitizing method call (`x.len()`, `x.is_empty()`).
fn sanitized_at(ctx: &RuleCtx<'_>, ci: usize) -> bool {
    ctx.text(ci + 1) == "." && SANITIZERS.contains(&ctx.text(ci + 2)) && ctx.text(ci + 3) == "("
}

/// Scans one statement's flat token range (children excluded — recursion
/// covers them) for the three sink shapes.
fn scan_sinks(ctx: &RuleCtx<'_>, stmt: &Stmt, env: &BTreeSet<String>, out: &mut Vec<Finding>) {
    let mut ci = stmt.first;
    while ci <= stmt.last && ci < ctx.map.code.len() {
        if stmt.in_child(ci) {
            ci += 1;
            continue;
        }
        ci = format_sink(ctx, env, ci, out)
            .or_else(|| telemetry_sink(ctx, env, ci, out))
            .or_else(|| encode_sink(ctx, env, ci, out))
            .unwrap_or(ci + 1);
    }
}

/// `macro ! ( … )` — returns the index past the argument list when `ci`
/// starts a format-family macro invocation.
fn format_sink(
    ctx: &RuleCtx<'_>,
    env: &BTreeSet<String>,
    ci: usize,
    out: &mut Vec<Finding>,
) -> Option<usize> {
    if !ctx.cfg.format_macros.iter().any(|m| m == ctx.text(ci))
        || ctx.text(ci + 1) != "!"
        || !matches!(ctx.text(ci + 2), "(" | "[" | "{")
    {
        return None;
    }
    let macro_name = ctx.text(ci);
    let mut depth = 0i32;
    let mut j = ci + 2;
    while j < ctx.map.code.len() {
        match ctx.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                let Some(tok) = ctx.map.code_tok(j) else {
                    break;
                };
                let (direct, aliased) = match tok.kind {
                    TokenKind::Ident => {
                        let t = tok.text(ctx.src);
                        (
                            is_secret_ident(ctx, t),
                            env.contains(t) && !sanitized_at(ctx, j),
                        )
                    }
                    TokenKind::Str => {
                        let ids = crate::rules::format_string_idents(tok.text(ctx.src));
                        (
                            ids.iter().any(|id| is_secret_ident(ctx, id)),
                            ids.iter().any(|id| env.contains(id.as_str())),
                        )
                    }
                    _ => (false, false),
                };
                // Direct hits keep the PR 3 semantics (fire even in test
                // code); aliased hits are new and skip tests.
                if direct || (aliased && !ctx.map.in_test_code(tok.start)) {
                    ctx.emit(
                        out,
                        "secret-format",
                        tok.start,
                        tok.line,
                        format!(
                            "secret value reaches a `{macro_name}!` argument; secrets must not \
                             be formatted or logged"
                        ),
                    );
                }
            }
        }
        j += 1;
    }
    Some(j.max(ci + 1))
}

/// `. method ( … )` where `method` is a configured telemetry sink.
fn telemetry_sink(
    ctx: &RuleCtx<'_>,
    env: &BTreeSet<String>,
    ci: usize,
    out: &mut Vec<Finding>,
) -> Option<usize> {
    if ctx.text(ci) != "."
        || !ctx
            .cfg
            .taint_telemetry_methods
            .iter()
            .any(|m| m == ctx.text(ci + 1))
        || ctx.text(ci + 2) != "("
    {
        return None;
    }
    let method = ctx.text(ci + 1);
    let mut depth = 1i32;
    let mut j = ci + 3;
    while j < ctx.map.code.len() && depth > 0 {
        match ctx.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            t => {
                let Some(tok) = ctx.map.code_tok(j) else {
                    break;
                };
                if tok.kind == TokenKind::Ident
                    && (env.contains(t) || is_secret_ident(ctx, t))
                    && !sanitized_at(ctx, j)
                    && !ctx.map.in_test_code(tok.start)
                {
                    ctx.emit(
                        out,
                        "secret-telemetry",
                        tok.start,
                        tok.line,
                        format!(
                            "secret value reaches `.{method}(…)`; metric names and labels are \
                             exported in telemetry snapshots"
                        ),
                    );
                }
            }
        }
        j += 1;
    }
    Some(j)
}

/// `tainted . encode ( … )` or `encode_bytes ( …, tainted, … )`.
fn encode_sink(
    ctx: &RuleCtx<'_>,
    env: &BTreeSet<String>,
    ci: usize,
    out: &mut Vec<Finding>,
) -> Option<usize> {
    if ctx
        .cfg
        .taint_encode_allow_files
        .iter()
        .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return None;
    }
    let t = ctx.text(ci);
    if !ENCODE_FNS.contains(&t) {
        return None;
    }
    let tok = ctx.map.code_tok(ci)?;
    if tok.kind != TokenKind::Ident || ctx.map.in_test_code(tok.start) {
        return None;
    }
    // Receiver form: `ident . encode (` with a tainted receiver.
    let recv_tainted = ctx.text(ci.wrapping_sub(1)) == "."
        && ci >= 2
        && ctx
            .map
            .code_tok(ci - 2)
            .is_some_and(|r| r.kind == TokenKind::Ident)
        && {
            let r = ctx.text(ci - 2);
            env.contains(r) || is_secret_ident(ctx, r)
        };
    // Argument form: any tainted ident inside the call parens. Only for
    // `encode_bytes(buf, value)` — a bare `encode(…)` name also matches
    // unrelated helpers (`hex::encode` minting session tokens from the
    // DRBG), where the argument is consumed, not serialized.
    let mut arg_tainted = false;
    if t == "encode_bytes" && ctx.text(ci + 1) == "(" {
        let mut depth = 1i32;
        let mut j = ci + 2;
        while j < ctx.map.code.len() && depth > 0 {
            match ctx.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                a => {
                    if ctx
                        .map
                        .code_tok(j)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                        && (env.contains(a) || is_secret_ident(ctx, a))
                        && !sanitized_at(ctx, j)
                    {
                        arg_tainted = true;
                    }
                }
            }
            j += 1;
        }
    }
    if recv_tainted || arg_tainted {
        ctx.emit(
            out,
            "secret-encode",
            tok.start,
            tok.line,
            format!(
                "secret value reaches the `{t}` codec call; wire records must not embed raw \
                 key material (seal it first, or allow the file in [taint] encode_allow_files)"
            ),
        );
        return Some(ci + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;
    use crate::parse::FileMap;

    fn run(src: &str) -> Vec<Finding> {
        let cfg = Config::default();
        let map = FileMap::build(src, lex(src));
        let ctx = RuleCtx {
            file: "test.rs",
            src,
            map: &map,
            cfg: &cfg,
        };
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    fn rules(src: &str) -> Vec<String> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn direct_secret_in_macro_still_fires() {
        let found = rules(r#"fn f(oid: &OnlineId) { println!("leak {}", oid); }"#);
        assert_eq!(found, vec!["secret-format"]);
    }

    #[test]
    fn alias_across_two_statements_fires() {
        let src = r#"fn f(secret_key: &OnlineId) {
            let label = secret_key.clone();
            let shown = label;
            println!("granting {shown}");
        }"#;
        assert_eq!(rules(src), vec!["secret-format"]);
    }

    #[test]
    fn alias_reaching_telemetry_label_fires() {
        let src = r#"fn f(secret_key: &PhoneId) {
            let label = format_label(secret_key);
            registry.counter(&label);
        }"#;
        // The format_label call taints `label`; the counter arg is a sink.
        assert_eq!(rules(src), vec!["secret-telemetry"]);
    }

    #[test]
    fn reassignment_clears_taint() {
        let src = r#"fn f(secret_key: &OnlineId) {
            let mut label = secret_key.clone();
            label = public_name();
            println!("granting {label}");
        }"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn length_is_sanitized() {
        let src = r#"fn f(secret_key: &EntryTable) {
            let n = secret_key.len();
            println!("table holds {n}");
        }"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn secret_type_constructor_taints() {
        let src = r#"fn f(bytes: [u8; 32]) {
            let id = OnlineId::from_bytes(bytes);
            println!("{id:?}");
        }"#;
        assert_eq!(rules(src), vec!["secret-format"]);
    }

    #[test]
    fn taint_flows_into_loop_body() {
        let src = r#"fn f(secret_key: &OnlineId) {
            let label = secret_key.clone();
            for _ in 0..3 {
                println!("try {label}");
            }
        }"#;
        assert_eq!(rules(src), vec!["secret-format"]);
    }

    #[test]
    fn nested_fn_does_not_inherit_outer_taint() {
        let src = r#"fn outer(secret_key: &OnlineId) {
            let label = secret_key.clone();
            fn inner() {
                let label = default_name();
                println!("{label}");
            }
            inner();
        }"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn tainted_encode_receiver_fires() {
        let src = r#"fn f(table: &EntryTable, buf: &mut Vec<u8>) {
            let copy = table.clone();
            copy.encode(buf);
        }"#;
        assert_eq!(rules(src), vec!["secret-encode"]);
    }

    #[test]
    fn untainted_encode_is_fine() {
        let src = "fn f(rec: &Manifest, buf: &mut Vec<u8>) { rec.encode(buf); }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn aliased_hits_skip_test_code() {
        let src = r#"#[cfg(test)]
mod t {
    fn f(secret_key: &OnlineId) {
        let label = secret_key.clone();
        println!("{label}");
    }
}"#;
        assert!(rules(src).is_empty());
    }

    #[test]
    fn waiver_silences_taint_finding() {
        let src = r#"fn f(secret_key: &OnlineId) {
    let label = secret_key.clone();
    // lint: allow(secret-format) truncated preview only
    println!("granting {label}");
}"#;
        assert!(rules(src).is_empty());
    }
}

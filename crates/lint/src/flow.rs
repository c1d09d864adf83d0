//! Flow-sensitive rule families over the block trees: `nondet-iteration`,
//! `lock-discipline`, and `cast-truncation`.
//!
//! These three families exist because the fleet-scale runtimes (PR 5–7)
//! stake correctness claims that plain token scans cannot check:
//!
//! * **`nondet-iteration`** — seed-replay determinism requires every
//!   iteration whose order can reach an output (telemetry snapshots,
//!   serialized records, routing decisions) to be over an ordered
//!   collection. Iterating a `HashMap`/`HashSet` is a finding unless the
//!   chain terminates in an order-insensitive adapter (`any`, `sum`,
//!   `count`, …), the file is in `[nondet_iteration] allow_files`, or a
//!   waiver explains why order cannot escape.
//! * **`lock-discipline`** — the event-loop hosts must never hold a
//!   `MutexGuard` across an mpsc `send`/`recv` or another configured
//!   blocking call: the guard serializes every other session on the lock
//!   for the full blocking latency (and deadlocks if the peer needs the
//!   same lock). The rule tracks `let guard = ….lock()…;` bindings and
//!   flags blocking calls made before `drop(guard)` in the same block.
//!   `[lock_discipline] files` scopes it to the event-loop hosts.
//! * **`cast-truncation`** — `SecureChannel::seal` runs a 64-bit sequence
//!   space and the latency attribution runs micros-precision clocks; a
//!   narrowing `as` cast on anything named like a sequence number, length,
//!   or clock value silently wraps. Casts are exempt when the expression
//!   is visibly bounded (`% n`, `& mask`, `.min(…)`/`.clamp(…)`, float
//!   rounding) or the file is in `[cast_truncation] allow_files`.

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::parse::{Block, StmtKind};
use crate::rules::RuleCtx;

// ---------------------------------------------------------------------------
// nondet-iteration
// ---------------------------------------------------------------------------

/// Iterator-producing methods on hash collections.
const HASH_ITER_FNS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminals whose result does not depend on iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "any",
    "all",
    "count",
    "sum",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "retain",
];

/// Flags `HashMap`/`HashSet` iteration whose order can escape: `for` loops
/// over a hash-typed binding and iterator chains that do not end in an
/// order-insensitive adapter.
pub fn nondet_iteration(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .cfg
        .nondet_allow_files
        .iter()
        .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return;
    }
    let hashed = collect_hash_idents(ctx);
    if hashed.is_empty() {
        return;
    }

    // `for … in <range containing a hash ident> { … }` — order reaches the
    // loop body, which we cannot prove order-insensitive.
    for f in &ctx.map.fns {
        if ctx.map.in_test_code(f.start) {
            continue;
        }
        flag_for_loops(ctx, &f.body, &hashed, out);
    }

    // Method chains: `<hash ident> . iter() . map(…) . collect()` — flag
    // unless the terminal adapter is order-insensitive.
    let code = &ctx.map.code;
    for i in 0..code.len() {
        let Some(tok) = ctx.map.code_tok(i) else {
            continue;
        };
        if tok.kind != TokenKind::Ident
            || !hashed.iter().any(|h| h == ctx.text(i))
            || ctx.map.in_test_code(tok.start)
        {
            continue;
        }
        if ctx.text(i + 1) != "." || !HASH_ITER_FNS.contains(&ctx.text(i + 2)) {
            continue;
        }
        if ctx.text(i + 3) != "(" {
            continue;
        }
        let terminal = chain_terminal(ctx, i + 2);
        if ORDER_INSENSITIVE.contains(&terminal.as_str()) {
            continue;
        }
        ctx.emit(
            out,
            "nondet-iteration",
            tok.start,
            tok.line,
            format!(
                "iteration over hash collection `{}` is order-nondeterministic and the chain \
                 (ends in `{terminal}`) lets order escape; use BTreeMap/BTreeSet or sort \
                 before emitting",
                ctx.text(i)
            ),
        );
    }
}

/// Identifiers bound or declared with a `HashMap`/`HashSet` type in this
/// file (field declarations, lets, params — any `name : … HashMap`
/// pattern, plus `let name = HashMap::new()`).
fn collect_hash_idents(ctx: &RuleCtx<'_>) -> Vec<String> {
    let code = &ctx.map.code;
    let mut out: Vec<String> = Vec::new();
    for i in 0..code.len() {
        let t = ctx.text(i);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // Walk back over the type expression to the `:` or `=` that binds
        // it, then take the identifier before that.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 16 {
            match ctx.text(j - 1) {
                ":" if ctx.text(j.wrapping_sub(2)) != ":" => {
                    // `name : … HashMap` (skip `::` paths).
                    if let Some(name_tok) = ctx.map.code_tok(j - 2) {
                        if name_tok.kind == TokenKind::Ident {
                            let name = ctx.text(j - 2).to_string();
                            if !out.contains(&name) {
                                out.push(name);
                            }
                        }
                    }
                    break;
                }
                "=" => {
                    // `let name = HashMap::new()` — name sits before `=`.
                    if let Some(name_tok) = ctx.map.code_tok(j - 2) {
                        if name_tok.kind == TokenKind::Ident {
                            let name = ctx.text(j - 2).to_string();
                            if !out.contains(&name) {
                                out.push(name);
                            }
                        }
                    }
                    break;
                }
                "<" | ">" | "," | "::" | "std" | "collections" | "String" | "usize" | "u64"
                | "u32" | "Vec" | "(" | ")" | "&" => {
                    j -= 1;
                    steps += 1;
                }
                _ => break,
            }
        }
    }
    out
}

/// Recursively flags `for` loops whose iterated expression mentions a
/// hash-collection ident.
fn flag_for_loops(ctx: &RuleCtx<'_>, block: &Block, hashed: &[String], out: &mut Vec<Finding>) {
    for stmt in &block.stmts {
        if let StmtKind::ForLoop { iter } = &stmt.kind {
            for ci in iter.0..iter.1 {
                let Some(tok) = ctx.map.code_tok(ci) else {
                    continue;
                };
                if tok.kind == TokenKind::Ident && hashed.iter().any(|h| h == ctx.text(ci)) {
                    ctx.emit(
                        out,
                        "nondet-iteration",
                        tok.start,
                        tok.line,
                        format!(
                            "`for` loop iterates hash collection `{}`; iteration order is \
                             nondeterministic — use BTreeMap/BTreeSet or sort first",
                            ctx.text(ci)
                        ),
                    );
                    break;
                }
            }
        }
        for child in &stmt.children {
            flag_for_loops(ctx, child, hashed, out);
        }
    }
}

/// Follows a postfix method chain starting at the method name at `ci`
/// (`iter` in `m.iter().map(…).collect()`) and returns the last method
/// name in the chain.
fn chain_terminal(ctx: &RuleCtx<'_>, ci: usize) -> String {
    let mut terminal = ctx.text(ci).to_string();
    let mut j = ci + 1; // at `(`
    loop {
        if ctx.text(j) != "(" {
            break;
        }
        let mut depth = 1i32;
        j += 1;
        while j < ctx.map.code.len() && depth > 0 {
            match ctx.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if ctx.text(j) == "." && ctx.text(j + 2) == "(" {
            terminal = ctx.text(j + 1).to_string();
            j += 2;
            continue;
        }
        if ctx.text(j) == "?" && ctx.text(j + 1) == "." && ctx.text(j + 3) == "(" {
            terminal = ctx.text(j + 2).to_string();
            j += 3;
            continue;
        }
        break;
    }
    terminal
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// Flags blocking calls made while a `MutexGuard` binding is live in the
/// same block (no intervening `drop(guard)`).
pub fn lock_discipline(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.cfg.lock_files.is_empty()
        && !ctx
            .cfg
            .lock_files
            .iter()
            .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return;
    }
    for f in &ctx.map.fns {
        if ctx.map.in_test_code(f.start) {
            continue;
        }
        lock_walk(ctx, &f.body, out);
    }
}

fn lock_walk(ctx: &RuleCtx<'_>, block: &Block, out: &mut Vec<Finding>) {
    let mut guards: Vec<String> = Vec::new();
    for stmt in &block.stmts {
        // Blocking call while a guard is live? Scan the statement's flat
        // range (children too: an `if` arm under the guard still blocks).
        if !guards.is_empty() {
            scan_blocking(ctx, stmt.first, stmt.last, &guards, out);
        }
        // `drop(guard)` releases it.
        for ci in stmt.first..=stmt.last {
            if ctx.text(ci) == "drop" && ctx.text(ci + 1) == "(" {
                let name = ctx.text(ci + 2);
                guards.retain(|g| g != name);
            }
        }
        // New guard binding: `let g = ….lock()…;`
        if let StmtKind::Let {
            name,
            init: Some((a, b)),
            ..
        } = &stmt.kind
        {
            // Skip child blocks: a guard taken inside `{ … }` dies at
            // that block's end and never escapes into this binding.
            let is_lock = (*a..*b)
                .any(|ci| !stmt.in_child(ci) && ctx.text(ci) == "lock" && ctx.text(ci + 1) == "(");
            if is_lock && !name.is_empty() {
                guards.push(name.clone());
            }
        }
        // Children of a guard-free statement still need their own walk
        // (they may take their own locks).
        if guards.is_empty() {
            for child in &stmt.children {
                lock_walk(ctx, child, out);
            }
        }
    }
}

/// Scans `[first, last]` for `…. send ( / recv ( / sleep (` style calls.
fn scan_blocking(
    ctx: &RuleCtx<'_>,
    first: usize,
    last: usize,
    guards: &[String],
    out: &mut Vec<Finding>,
) {
    for ci in first..=last.min(ctx.map.code.len().saturating_sub(1)) {
        let Some(tok) = ctx.map.code_tok(ci) else {
            continue;
        };
        if tok.kind != TokenKind::Ident || ctx.text(ci + 1) != "(" {
            continue;
        }
        let t = ctx.text(ci);
        if !ctx.cfg.lock_blocking_calls.iter().any(|b| b == t) {
            continue;
        }
        ctx.emit(
            out,
            "lock-discipline",
            tok.start,
            tok.line,
            format!(
                "`{t}(…)` can block while MutexGuard `{}` is live; drop the guard first \
                 (every other session serializes on the lock for the full blocking latency)",
                guards.join("`, `")
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// cast-truncation
// ---------------------------------------------------------------------------

/// Target types an `as` cast can narrow into.
const NARROW_TYPES: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "i64", "isize", "usize",
];

/// Methods that visibly bound the value right before the cast.
const BOUNDING_METHODS: &[&str] = &["round", "ceil", "floor", "trunc", "min", "max", "clamp"];

/// Flags narrowing `as` casts whose source expression names a quantity
/// from `[cast_truncation] name_substrings` (sequence numbers, lengths,
/// clock values) without a visible bound.
pub fn cast_truncation(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .cfg
        .cast_allow_files
        .iter()
        .any(|f| ctx.file.ends_with(f.as_str()))
    {
        return;
    }
    let code = &ctx.map.code;
    for i in 1..code.len() {
        if ctx.text(i) != "as" || !NARROW_TYPES.contains(&ctx.text(i + 1)) {
            continue;
        }
        let Some(tok) = ctx.map.code_tok(i) else {
            continue;
        };
        if tok.kind != TokenKind::Ident || ctx.map.in_test_code(tok.start) {
            continue;
        }
        let Some(hit) = cast_source_hit(ctx, i) else {
            continue;
        };
        ctx.emit(
            out,
            "cast-truncation",
            tok.start,
            tok.line,
            format!(
                "narrowing `as {}` cast on `{hit}` can silently truncate; use `try_from` \
                 with a typed error, a saturating helper, or bound the value visibly",
                ctx.text(i + 1)
            ),
        );
    }
}

/// Scans the postfix expression ending at `as_ci` (exclusive) backwards.
/// Returns the offending identifier when the expression names a tracked
/// quantity and is not visibly bounded.
fn cast_source_hit(ctx: &RuleCtx<'_>, as_ci: usize) -> Option<String> {
    let mut j = as_ci; // exclusive end
    let mut idents: Vec<String> = Vec::new();
    let mut bounded = false;
    // Walk back over the postfix chain: ident, `.`, `::`, `?`, matched
    // `(…)` / `[…]` groups. Collect every identifier seen; note bounding
    // tokens (`%`, `& literal`) inside matched groups too.
    loop {
        if j == 0 {
            break;
        }
        let prev = ctx.text(j - 1);
        match prev {
            ")" | "]" => {
                let open = if prev == ")" { "(" } else { "[" };
                let close = prev;
                let mut depth = 1i32;
                let mut k = j - 1;
                while k > 0 && depth > 0 {
                    k -= 1;
                    let t = ctx.text(k);
                    if t == close {
                        depth += 1;
                    } else if t == open {
                        depth -= 1;
                    } else if depth == 1 {
                        if t == "%" {
                            bounded = true;
                        }
                        if t == "&"
                            && ctx
                                .map
                                .code_tok(k + 1)
                                .is_some_and(|n| n.kind == TokenKind::Number)
                        {
                            bounded = true;
                        }
                        if ctx
                            .map
                            .code_tok(k)
                            .is_some_and(|t| t.kind == TokenKind::Ident)
                        {
                            idents.push(ctx.text(k).to_string());
                        }
                    }
                    // Deeper levels: still look for `%` (e.g. `((x % 4))`).
                    if depth >= 1 && t == "%" {
                        bounded = true;
                    }
                }
                // Method name before the `(`?
                if k > 0
                    && ctx
                        .map
                        .code_tok(k - 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    let m = ctx.text(k - 1);
                    if BOUNDING_METHODS.contains(&m) {
                        bounded = true;
                    }
                }
                j = k;
            }
            "." | "::" | "?" => j -= 1,
            "%" => {
                bounded = true;
                j -= 1;
            }
            t if ctx
                .map
                .code_tok(j - 1)
                .is_some_and(|tok| tok.kind == TokenKind::Ident) =>
            {
                idents.push(t.to_string());
                j -= 1;
                // Keep walking only if the chain continues (`a.b`, `a::b`).
                if j == 0 || !matches!(ctx.text(j - 1), "." | "::") {
                    break;
                }
            }
            _ => break,
        }
    }
    if bounded {
        return None;
    }
    idents.into_iter().find(|id| {
        // Constants (SCREAMING_CASE) are compile-time bounded.
        if id
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        {
            return false;
        }
        if BOUNDING_METHODS.contains(&id.as_str()) {
            return false;
        }
        let lowered = id.to_ascii_lowercase();
        ctx.cfg
            .cast_ident_substrings
            .iter()
            .any(|s| lowered.contains(s.as_str()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;
    use crate::parse::FileMap;
    use crate::rules::check_source;

    fn rules_with(src: &str, cfg: &Config) -> Vec<String> {
        let map = FileMap::build(src, lex(src));
        check_source(&RuleCtx {
            file: "test.rs",
            src,
            map: &map,
            cfg,
        })
        .into_iter()
        .map(|f| f.rule)
        .collect()
    }

    fn rules(src: &str) -> Vec<String> {
        rules_with(src, &Config::default())
    }

    // -- nondet-iteration ----------------------------------------------

    #[test]
    fn for_loop_over_hashmap_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct S { routes: HashMap<String, usize> }\n\
                   impl S { fn dump(&self) { for (k, v) in &self.routes { emit(k, v); } } }";
        assert_eq!(rules(src), vec!["nondet-iteration"]);
    }

    #[test]
    fn hash_chain_with_order_escaping_terminal_flagged() {
        let src = "fn f(m: &std::collections::HashMap<String, u32>) -> Vec<String> {\n\
                   m.keys().cloned().collect()\n}";
        assert_eq!(rules(src), vec!["nondet-iteration"]);
    }

    #[test]
    fn order_insensitive_terminal_is_fine() {
        let src = "fn f(m: &std::collections::HashMap<String, u32>) -> bool {\n\
                   m.values().any(|v| *v > 3)\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "fn f(m: &std::collections::BTreeMap<String, u32>) {\n\
                   for (k, v) in m.iter() { emit(k, v); }\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn nondet_in_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn f(m: &std::collections::HashMap<String, u32>) -> Vec<u32> {\n\
                   m.values().cloned().collect()\n} }";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn nondet_allow_file_silences() {
        let mut cfg = Config::default();
        cfg.nondet_allow_files.push("test.rs".into());
        let src = "fn f(m: &std::collections::HashMap<String, u32>) -> Vec<u32> {\n\
                   m.values().cloned().collect()\n}";
        assert!(rules_with(src, &cfg).is_empty());
    }

    // -- lock-discipline -----------------------------------------------

    #[test]
    fn send_under_live_guard_flagged() {
        let src = "fn f(&self, tx: &Sender<u32>) {\n\
                   let state = self.state.lock();\n\
                   tx.send(state.next).ok();\n}";
        assert_eq!(rules(src), vec!["lock-discipline"]);
    }

    #[test]
    fn drop_before_send_is_fine() {
        let src = "fn f(&self, tx: &Sender<u32>) {\n\
                   let state = self.state.lock();\n\
                   let n = state.next;\n\
                   drop(state);\n\
                   tx.send(n).ok();\n}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn send_in_branch_under_guard_flagged() {
        let src = "fn f(&self, tx: &Sender<u32>) {\n\
                   let g = self.state.lock();\n\
                   if g.ready { tx.send(1).ok(); }\n}";
        assert_eq!(rules(src), vec!["lock-discipline"]);
    }

    #[test]
    fn lock_files_scope_respected() {
        let mut cfg = Config::default();
        cfg.lock_files.push("host.rs".into());
        let src = "fn f(&self, tx: &Sender<u32>) {\n\
                   let g = self.state.lock();\n\
                   tx.send(1).ok();\n}";
        assert!(rules_with(src, &cfg).is_empty());
    }

    #[test]
    fn scoped_guard_block_is_fine() {
        // Guard lives in an inner block that ends before the send.
        let src = "fn f(&self, tx: &Sender<u32>) {\n\
                   let n = { let g = self.state.lock(); g.next };\n\
                   tx.send(n).ok();\n}";
        assert!(rules(src).is_empty());
    }

    // -- cast-truncation -----------------------------------------------

    #[test]
    fn seq_narrowing_cast_flagged() {
        assert_eq!(
            rules("fn f(seq: u64) -> u32 { seq as u32 }"),
            vec!["cast-truncation"]
        );
    }

    #[test]
    fn len_cast_through_method_chain_flagged() {
        assert_eq!(
            rules("fn f(q: &Queue) -> i64 { q.pending.len() as i64 }"),
            vec!["cast-truncation"]
        );
    }

    #[test]
    fn modulo_bounded_cast_is_fine() {
        assert!(rules("fn f(seq: u64) -> u8 { (seq % 256) as u8 }").is_empty());
    }

    #[test]
    fn mask_bounded_cast_is_fine() {
        assert!(rules("fn f(seq: u64) -> u8 { (seq & 0xff) as u8 }").is_empty());
    }

    #[test]
    fn min_bounded_cast_is_fine() {
        assert!(rules("fn f(len: usize) -> u32 { len.min(1024) as u32 }").is_empty());
    }

    #[test]
    fn widening_or_untracked_cast_is_fine() {
        assert!(rules("fn f(flags: u8) -> u64 { flags as u64 }").is_empty());
        assert!(rules("fn f(id: u64) -> u64 { id as u64 }").is_empty());
    }

    #[test]
    fn const_cast_is_fine() {
        assert!(rules("fn f() -> u32 { SUB_COUNT as u32 }").is_empty());
    }

    #[test]
    fn cast_in_test_code_is_fine() {
        assert!(rules("#[test]\nfn t() { let x = seq as u32; }").is_empty());
    }

    #[test]
    fn cast_allow_file_silences() {
        let mut cfg = Config::default();
        cfg.cast_allow_files.push("test.rs".into());
        assert!(rules_with("fn f(seq: u64) -> u32 { seq as u32 }", &cfg).is_empty());
    }
}

//! The project rule catalog (DESIGN.md §10).
//!
//! Every rule scans the token stream of one file; none of them needs a
//! full parse. Test code is exempt from most rules: tokens under a
//! `#[cfg(test)]` / `#[test]` item, and whole files under `tests/`,
//! `benches/` or `examples/`, are masked out (except where a rule says
//! otherwise, e.g. `no-seqcst` applies everywhere).
//!
//! Findings can be suppressed two ways, both leaving an audit trail:
//! an inline `// analyzer: allow(rule-name): reason` comment on the
//! offending line or the line above, or an entry in the checked-in
//! waiver file (see [`crate::waiver`]).

use crate::diag::{Finding, Severity};
use crate::lexer::{lex, Tok, TokKind};

/// `(id, summary)` of every rule, for CLI help and docs.
pub const RULES: [(&str, &str); 10] = [
    (
        "safety-comment",
        "`unsafe` requires a `// SAFETY:` (or `# Safety` doc) justification within 10 lines",
    ),
    (
        "no-panic",
        "no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code (tests exempt)",
    ),
    (
        "no-seqcst",
        "`SeqCst` ordering is forbidden workspace-wide (tests included) outside the waiver allowlist",
    ),
    (
        "relaxed-telemetry",
        "atomic orderings inside crates/telemetry must be `Ordering::Relaxed`",
    ),
    (
        "guard-poll",
        "lotus-core fns taking `&RunGuard` must poll `should_stop()` or forward the guard",
    ),
    (
        "result-errors-doc",
        "`pub fn … -> Result` requires an `# Errors` doc section or `#[must_use = \"…\"]`",
    ),
    (
        "stale-waiver",
        "waiver entries that match no finding must be removed",
    ),
    (
        "no-thread-spawn",
        "raw `std::thread` spawning is confined to `shims/par` and the serving engine in `crates/serve` (tests exempt)",
    ),
    (
        "no-shared-mut-statics",
        "`static mut` is forbidden; `UnsafeCell` is confined to SAFETY-annotated `shims/par` internals",
    ),
    (
        "relaxed-handshake",
        "handshake flags (`*_done`/`*_ready`) must not use `Ordering::Relaxed` — publication needs Acquire/Release",
    ),
];

/// Marker for inline suppressions: `// analyzer: allow(rule): reason`.
const ALLOW_MARKER: &str = "analyzer: allow(";

struct Ctx<'a> {
    path: &'a str,
    toks: &'a [Tok<'a>],
    /// `true` for tokens inside test-only code.
    mask: &'a [bool],
    /// `(line, rule)` pairs from inline allow comments.
    allows: &'a [(u32, String)],
}

impl Ctx<'_> {
    fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        let waived = self
            .allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || l + 1 == line));
        out.push(Finding {
            rule,
            severity: Severity::Error,
            file: self.path.to_owned(),
            line,
            message,
            waived,
        });
    }
}

/// Runs every rule over one source file, appending findings to `out`.
pub(crate) fn lint_source(path: &str, src: &str, out: &mut Vec<Finding>) {
    let toks = lex(src);
    let whole_file_test =
        path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/");
    let mask = if whole_file_test {
        vec![true; toks.len()]
    } else {
        test_mask(&toks)
    };
    let allows = inline_allows(&toks);
    let ctx = Ctx {
        path,
        toks: &toks,
        mask: &mask,
        allows: &allows,
    };
    rule_safety_comment(&ctx, out);
    rule_no_panic(&ctx, out);
    rule_no_seqcst(&ctx, out);
    rule_relaxed_telemetry(&ctx, out);
    rule_guard_poll(&ctx, out);
    rule_result_errors_doc(&ctx, out);
    rule_no_thread_spawn(&ctx, out);
    rule_no_shared_mut_statics(&ctx, out);
    rule_relaxed_handshake(&ctx, out);
}

pub(crate) fn is_punct(t: &Tok<'_>, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

pub(crate) fn is_ident(t: &Tok<'_>, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

pub(crate) fn is_comment(t: &Tok<'_>) -> bool {
    !t.kind.is_code()
}

/// Index of the next non-comment token after `i`.
pub(crate) fn next_code(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, t)| t.kind.is_code())
        .map(|(j, _)| j)
}

/// Index of the previous non-comment token before `i`.
pub(crate) fn prev_code(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind.is_code())
}

/// Index of the delimiter matching `toks[open_idx]`, or the last token
/// if the file is truncated.
pub(crate) fn match_delim(toks: &[Tok<'_>], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if is_punct(t, open) {
            depth += 1;
        } else if is_punct(t, close) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Marks every token belonging to an item decorated with a test
/// attribute (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`, …).
pub(crate) fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !is_punct(&toks[i], "#") {
            i += 1;
            continue;
        }
        let Some(mut j) = next_code(toks, i) else {
            break;
        };
        let inner = is_punct(&toks[j], "!");
        if inner {
            let Some(after_bang) = next_code(toks, j) else {
                break;
            };
            j = after_bang;
        }
        if !is_punct(&toks[j], "[") {
            i += 1;
            continue;
        }
        let close = match_delim(toks, j, "[", "]");
        let has_test = toks[j..=close].iter().any(|t| is_ident(t, "test"));
        if inner || !has_test {
            i = close + 1;
            continue;
        }
        // Skip trailing comments and further attributes to reach the item.
        let mut k = close + 1;
        loop {
            while k < toks.len() && is_comment(&toks[k]) {
                k += 1;
            }
            if k < toks.len() && is_punct(&toks[k], "#") {
                if let Some(a) = next_code(toks, k) {
                    if is_punct(&toks[a], "[") {
                        k = match_delim(toks, a, "[", "]") + 1;
                        continue;
                    }
                }
            }
            break;
        }
        // The item extends to the first top-level `;` or a matched `{…}`.
        let mut end = k;
        while end < toks.len() {
            if is_punct(&toks[end], ";") {
                break;
            }
            if is_punct(&toks[end], "{") {
                end = match_delim(toks, end, "{", "}");
                break;
            }
            end += 1;
        }
        let end = end.min(toks.len().saturating_sub(1));
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Collects inline `// analyzer: allow(rule): reason` suppressions.
pub(crate) fn inline_allows(toks: &[Tok<'_>]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for t in toks {
        if !is_comment(t) {
            continue;
        }
        if let Some(pos) = t.text.find(ALLOW_MARKER) {
            let rest = &t.text[pos + ALLOW_MARKER.len()..];
            if let Some(rule) = rest.split(')').next() {
                out.push((t.line, rule.trim().to_owned()));
            }
        }
    }
    out
}

fn has_safety_text(s: &str) -> bool {
    s.contains("SAFETY:") || s.contains("# Safety")
}

/// `safety-comment`: every `unsafe` outside tests needs a nearby
/// `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`).
/// The 10-line window leaves room for a multi-line justification whose
/// `SAFETY:` marker opens the block.
fn rule_safety_comment(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !is_ident(t, "unsafe") || ctx.mask[i] {
            continue;
        }
        let line = t.line;
        let mut justified = ctx.toks[..i]
            .iter()
            .rev()
            .take_while(|c| c.line + 10 >= line)
            .any(|c| is_comment(c) && has_safety_text(c.text));
        if !justified {
            // Also accept a trailing comment on the same line.
            justified = ctx.toks[i + 1..]
                .iter()
                .take_while(|c| c.line == line)
                .any(|c| is_comment(c) && has_safety_text(c.text));
        }
        if !justified {
            ctx.emit(
                out,
                "safety-comment",
                line,
                "`unsafe` without a `// SAFETY:` justification within 10 lines".to_owned(),
            );
        }
    }
}

/// `no-panic`: library code must not call `.unwrap()`/`.expect()` or
/// invoke `panic!`/`todo!`/`unimplemented!`. `unreachable!` and the
/// assert family stay allowed: they document impossibility rather than
/// fallibility.
fn rule_no_panic(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.mask[i] {
            continue;
        }
        match t.text {
            "unwrap" | "expect" => {
                let dotted = prev_code(ctx.toks, i).is_some_and(|p| is_punct(&ctx.toks[p], "."));
                let called = next_code(ctx.toks, i).is_some_and(|n| is_punct(&ctx.toks[n], "("));
                if dotted && called {
                    ctx.emit(
                        out,
                        "no-panic",
                        t.line,
                        format!(
                            "library code calls `.{}()`; return a typed error instead",
                            t.text
                        ),
                    );
                }
            }
            "panic" | "todo" | "unimplemented"
                if next_code(ctx.toks, i).is_some_and(|n| is_punct(&ctx.toks[n], "!")) =>
            {
                ctx.emit(
                    out,
                    "no-panic",
                    t.line,
                    format!(
                        "library code invokes `{}!`; return a typed error instead",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

/// `no-seqcst`: applies everywhere, tests included — sequentially
/// consistent ordering hides the actual synchronization contract.
fn rule_no_seqcst(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    for t in ctx.toks {
        if is_ident(t, "SeqCst") {
            ctx.emit(
                out,
                "no-seqcst",
                t.line,
                "`SeqCst` is forbidden workspace-wide; state the real contract with \
                 Relaxed/Acquire/Release"
                    .to_owned(),
            );
        }
    }
}

/// `relaxed-telemetry`: inside crates/telemetry every atomic ordering
/// must be `Relaxed` — counters are monotonic statistics, and anything
/// stronger hints at a counter being misused for synchronization.
fn rule_relaxed_telemetry(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if !ctx.path.starts_with("crates/telemetry/") {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !is_ident(t, "Ordering") || ctx.mask[i] {
            continue;
        }
        let Some(c1) = next_code(ctx.toks, i) else {
            continue;
        };
        let Some(c2) = next_code(ctx.toks, c1) else {
            continue;
        };
        let Some(v) = next_code(ctx.toks, c2) else {
            continue;
        };
        if is_punct(&ctx.toks[c1], ":")
            && is_punct(&ctx.toks[c2], ":")
            && ctx.toks[v].kind == TokKind::Ident
            && ctx.toks[v].text != "Relaxed"
        {
            ctx.emit(
                out,
                "relaxed-telemetry",
                ctx.toks[v].line,
                format!(
                    "telemetry atomics must use `Ordering::Relaxed` (found `{}`)",
                    ctx.toks[v].text
                ),
            );
        }
    }
}

/// `guard-poll`: in lotus-core, a fn that accepts `&RunGuard` exists to
/// be interruptible — its body must poll `should_stop()` or pass the
/// guard on to a callee that does.
fn rule_guard_poll(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if !ctx.path.starts_with("crates/core/src") {
        return;
    }
    let toks = ctx.toks;
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "fn") || ctx.mask[i] {
            i += 1;
            continue;
        }
        let Some(name_i) = next_code(toks, i) else {
            break;
        };
        // Find the parameter list, stepping over generics (whose `->`
        // arrows inside Fn bounds must not unbalance the angles).
        let mut k = name_i + 1;
        let mut angle = 0i64;
        let popen = loop {
            if k >= toks.len() {
                break None;
            }
            let t = &toks[k];
            if is_punct(t, "-") && toks.get(k + 1).is_some_and(|n| is_punct(n, ">")) {
                k += 2;
                continue;
            }
            if is_punct(t, "<") {
                angle += 1;
            } else if is_punct(t, ">") {
                angle -= 1;
            } else if is_punct(t, "(") && angle == 0 {
                break Some(k);
            } else if is_punct(t, "{") || is_punct(t, ";") {
                break None;
            }
            k += 1;
        };
        let Some(popen) = popen else {
            i = name_i + 1;
            continue;
        };
        let pclose = match_delim(toks, popen, "(", ")");
        let guard_name = find_run_guard_param(toks, popen, pclose);
        let Some(guard_name) = guard_name else {
            i = pclose + 1;
            continue;
        };
        // Locate the body (a declaration-only `;` has nothing to check).
        let mut b = pclose + 1;
        while b < toks.len() && !is_punct(&toks[b], "{") && !is_punct(&toks[b], ";") {
            b += 1;
        }
        if b >= toks.len() || is_punct(&toks[b], ";") {
            i = b + 1;
            continue;
        }
        let bclose = match_delim(toks, b, "{", "}");
        let polled = toks[b..=bclose]
            .iter()
            .any(|t| is_ident(t, "should_stop") || is_ident(t, guard_name));
        if !polled {
            ctx.emit(
                out,
                "guard-poll",
                toks[i].line,
                format!(
                    "fn `{}` takes `&RunGuard` but neither polls `should_stop()` nor \
                     forwards the guard",
                    toks[name_i].text
                ),
            );
        }
        i = bclose + 1;
    }
}

/// Finds the name of a `…: &RunGuard` parameter between `popen..=pclose`.
fn find_run_guard_param<'a>(toks: &[Tok<'a>], popen: usize, pclose: usize) -> Option<&'a str> {
    for p in popen..=pclose.min(toks.len() - 1) {
        if !is_ident(&toks[p], "RunGuard") {
            continue;
        }
        // Walk back over `&`, lifetimes and `::` path separators to the
        // parameter's `name:` colon.
        let mut q = p;
        while let Some(prev) = prev_code(toks, q) {
            let t = &toks[prev];
            if is_punct(t, "&") || t.kind == TokKind::Lifetime || t.kind == TokKind::Ident {
                q = prev;
                continue;
            }
            if is_punct(t, ":") {
                if let Some(pp) = prev_code(toks, prev) {
                    if is_punct(&toks[pp], ":") {
                        // `::` path separator — keep walking.
                        q = pp;
                        continue;
                    }
                    if toks[pp].kind == TokKind::Ident {
                        return Some(toks[pp].text);
                    }
                }
            }
            break;
        }
    }
    None
}

/// `result-errors-doc`: a `pub fn` returning any `…Result` type must
/// carry an `# Errors` doc section (rustdoc convention) or a reasoned
/// `#[must_use = "…"]`. Bare `#[must_use]` is not accepted: `Result` is
/// already `must_use`, so that spelling trips `clippy::double_must_use`.
fn rule_result_errors_doc(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "pub") || ctx.mask[i] {
            continue;
        }
        let Some(fn_i) = next_code(toks, i) else {
            continue;
        };
        if !is_ident(&toks[fn_i], "fn") {
            continue; // `pub(crate)`, `pub struct`, …
        }
        let Some(name_i) = next_code(toks, fn_i) else {
            continue;
        };
        let Some(ret) = signature_return_ident(toks, name_i) else {
            continue;
        };
        // Exact match only: the workspace's `FooResult` types are plain
        // stats structs, not fallible `Result`s.
        if ret != "Result" {
            continue;
        }
        if has_errors_doc_or_reasoned_must_use(toks, i) {
            continue;
        }
        ctx.emit(
            out,
            "result-errors-doc",
            toks[name_i].line,
            format!(
                "pub fn `{}` returns `{ret}` but has no `# Errors` doc section \
                 (or `#[must_use = \"…\"]` with a reason)",
                toks[name_i].text
            ),
        );
    }
}

/// The last path segment of a fn signature's return type, if any.
/// Scans from just after the fn name to the body/`;`, tracking paren and
/// angle depth so arrows inside `Fn(...) -> T` bounds are ignored.
fn signature_return_ident<'a>(toks: &[Tok<'a>], name_i: usize) -> Option<&'a str> {
    let mut k = name_i + 1;
    let mut paren = 0i64;
    let mut angle = 0i64;
    let arrow_at = loop {
        if k >= toks.len() {
            return None;
        }
        let t = &toks[k];
        if is_punct(t, "-") && toks.get(k + 1).is_some_and(|n| is_punct(n, ">")) {
            if paren == 0 && angle == 0 {
                break k + 2;
            }
            k += 2;
            continue;
        }
        if is_punct(t, "(") {
            paren += 1;
        } else if is_punct(t, ")") {
            paren -= 1;
        } else if is_punct(t, "<") {
            angle += 1;
        } else if is_punct(t, ">") {
            angle -= 1;
        } else if (is_punct(t, "{") || is_punct(t, ";")) && paren == 0 {
            return None;
        }
        k += 1;
    };
    // First identifier of the return type (skipping `&`, lifetimes and
    // `mut`), then follow `::` path separators to the last segment.
    let mut seg: Option<usize> = None;
    let mut k = arrow_at;
    while k < toks.len() {
        let t = &toks[k];
        if is_punct(t, "&") || t.kind == TokKind::Lifetime || is_ident(t, "mut") || is_comment(t) {
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            seg = Some(k);
        }
        break;
    }
    let mut seg = seg?;
    while let Some(c1) = next_code(toks, seg) {
        let Some(c2) = next_code(toks, c1) else { break };
        let Some(nxt) = next_code(toks, c2) else {
            break;
        };
        if is_punct(&toks[c1], ":") && is_punct(&toks[c2], ":") && toks[nxt].kind == TokKind::Ident
        {
            seg = nxt;
        } else {
            break;
        }
    }
    Some(toks[seg].text)
}

/// Whether the doc/attr block immediately above token `i` contains an
/// `# Errors` doc section or a `#[must_use = "…"]` with a reason.
fn has_errors_doc_or_reasoned_must_use(toks: &[Tok<'_>], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if is_comment(t) {
            if t.text.contains("# Errors") {
                return true;
            }
            continue;
        }
        if is_punct(t, "]") {
            // Reverse-match the attribute brackets.
            let mut depth = 0i64;
            let mut open = j;
            loop {
                let t = &toks[open];
                if is_punct(t, "]") {
                    depth += 1;
                } else if is_punct(t, "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if open == 0 {
                    return false;
                }
                open -= 1;
            }
            let attr = &toks[open..=j];
            if attr.iter().any(|t| is_ident(t, "must_use")) && attr.iter().any(|t| is_punct(t, "="))
            {
                return true;
            }
            // Step over the `#` introducing the attribute.
            j = open;
            if let Some(h) = prev_code(toks, open) {
                if is_punct(&toks[h], "#") {
                    j = h;
                }
            }
            continue;
        }
        break;
    }
    false
}

/// Paths whose library code may spawn OS threads: the work-stealing
/// pool itself and the serving engine's acceptor/loop/worker threads
/// (the cluster coordinator runs on that engine and spawns none).
/// Everything else must go through the `rayon` shim so the pool's
/// thread budget, panic isolation and telemetry stay authoritative.
fn may_spawn_threads(path: &str) -> bool {
    path.starts_with("shims/par/") || path.starts_with("crates/serve/")
}

/// `no-thread-spawn`: flags `thread::spawn` / `thread::Builder` outside
/// the two sanctioned layers. Tests are exempt — a test harness driving
/// real concurrency is fine; library code smuggling its own threads
/// past the pool is not.
fn rule_no_thread_spawn(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if may_spawn_threads(ctx.path) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !is_ident(t, "thread") || ctx.mask[i] {
            continue;
        }
        let Some(c1) = next_code(ctx.toks, i) else {
            continue;
        };
        let Some(c2) = next_code(ctx.toks, c1) else {
            continue;
        };
        let Some(callee) = next_code(ctx.toks, c2) else {
            continue;
        };
        if is_punct(&ctx.toks[c1], ":")
            && is_punct(&ctx.toks[c2], ":")
            && (is_ident(&ctx.toks[callee], "spawn") || is_ident(&ctx.toks[callee], "Builder"))
        {
            ctx.emit(
                out,
                "no-thread-spawn",
                t.line,
                format!(
                    "`thread::{}` outside `shims/par`/`crates/serve`; \
                     parallel work must go through the rayon shim's pool",
                    ctx.toks[callee].text
                ),
            );
        }
    }
}

/// `no-shared-mut-statics`: `static mut` is flagged workspace-wide
/// (tests included — there is always a sound alternative), and
/// `UnsafeCell` is confined to `shims/par` pool internals where it must
/// carry a `// SAFETY:` justification like any other `unsafe` surface.
fn rule_no_shared_mut_statics(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if is_ident(t, "static")
            && next_code(ctx.toks, i).is_some_and(|n| is_ident(&ctx.toks[n], "mut"))
        {
            ctx.emit(
                out,
                "no-shared-mut-statics",
                t.line,
                "`static mut` creates unsynchronized shared `&mut`; use an atomic, a lock, \
                 or `OnceLock`"
                    .to_owned(),
            );
        }
        if is_ident(t, "UnsafeCell") && !ctx.mask[i] {
            if !ctx.path.starts_with("shims/par/") {
                ctx.emit(
                    out,
                    "no-shared-mut-statics",
                    t.line,
                    "`UnsafeCell` outside `shims/par`; shared mutability belongs behind the \
                     pool's audited internals"
                        .to_owned(),
                );
            } else {
                let line = t.line;
                let justified = ctx.toks[..i]
                    .iter()
                    .rev()
                    .take_while(|c| c.line + 10 >= line)
                    .any(|c| is_comment(c) && has_safety_text(c.text));
                if !justified {
                    ctx.emit(
                        out,
                        "no-shared-mut-statics",
                        line,
                        "`UnsafeCell` in pool internals without a `// SAFETY:` justification \
                         within 10 lines"
                            .to_owned(),
                    );
                }
            }
        }
    }
}

/// Whether an identifier names a completion/readiness handshake flag.
fn is_handshake_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower == "done" || lower == "ready" || lower.ends_with("_done") || lower.ends_with("_ready")
}

/// `relaxed-handshake`: a statement that touches a `*_done`/`*_ready`
/// flag with `Ordering::Relaxed` is the classic broken-publication
/// pattern — the flag becomes visible without the data it guards.
/// Detection is line-based: a handshake-named identifier and a
/// `Relaxed` ordering on the same line.
fn rule_relaxed_handshake(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let relaxed_lines: Vec<u32> = ctx
        .toks
        .iter()
        .filter(|t| is_ident(t, "Relaxed"))
        .map(|t| t.line)
        .collect();
    if relaxed_lines.is_empty() {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.mask[i] || !is_handshake_name(t.text) {
            continue;
        }
        if relaxed_lines.contains(&t.line) {
            ctx.emit(
                out,
                "relaxed-handshake",
                t.line,
                format!(
                    "handshake flag `{}` used with `Ordering::Relaxed`; publication requires \
                     Release on the store and Acquire on the load",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_source(path, src, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn flags_unwrap_in_library_code() {
        let f = findings(
            "crates/x/src/lib.rs",
            "fn f(o: Option<u32>) -> u32 { o.unwrap() }",
        );
        assert_eq!(rules_of(&f), ["no-panic"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(o: Option<u32>) -> u32 { o.unwrap() }\n}\n";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_dir_is_exempt() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert!(findings("crates/x/tests/it.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn panic_macro_is_flagged_but_unreachable_is_not() {
        let src = "fn f(x: u32) { if x > 2 { panic!(\"boom\") } else { unreachable!() } }";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["no-panic"]);
    }

    #[test]
    fn unsafe_without_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["safety-comment"]);
    }

    #[test]
    fn unsafe_with_safety_comment_is_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n  // SAFETY: caller guarantees p is valid\n  unsafe { *p }\n}";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_inside_macro_body_still_needs_safety() {
        let src = "macro_rules! deref {\n  ($p:expr) => { unsafe { *$p } };\n}\n";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["safety-comment"]);
    }

    #[test]
    fn seqcst_is_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::sync::atomic::Ordering;\n  fn f() { let _ = Ordering::SeqCst; }\n}\n";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["no-seqcst"]);
    }

    #[test]
    fn telemetry_ordering_must_be_relaxed() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) { c.store(1, Ordering::Release); }";
        let f = findings("crates/telemetry/src/counters.rs", src);
        assert_eq!(rules_of(&f), ["relaxed-telemetry"]);
        // Outside crates/telemetry the rule does not apply.
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn guard_poll_flags_ignored_guard() {
        let src = "fn run(g: &RunGuard) -> u32 { 42 }";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["guard-poll"]);
    }

    #[test]
    fn guard_poll_accepts_polling_and_forwarding() {
        let polling =
            "fn run(g: &RunGuard) -> u32 { if g.should_stop().is_some() { 0 } else { 1 } }";
        assert!(findings("crates/core/src/x.rs", polling).is_empty());
        let forwarding = "fn run(the_guard: &RunGuard) -> u32 { inner(the_guard) }";
        assert!(findings("crates/core/src/x.rs", forwarding).is_empty());
    }

    #[test]
    fn pub_result_fn_needs_errors_doc() {
        let src = "pub fn f() -> Result<(), E> { Ok(()) }";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["result-errors-doc"]);
    }

    #[test]
    fn errors_doc_section_satisfies_the_rule() {
        let src = "/// Does f.\n///\n/// # Errors\n///\n/// Fails when e.\npub fn f() -> Result<(), E> { Ok(()) }";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn reasoned_must_use_satisfies_the_rule() {
        let src = "#[must_use = \"handle the failure\"]\npub fn f() -> io::Result<()> { Ok(()) }";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn non_result_pub_fn_is_fine() {
        let src = "pub fn f() -> u32 { 0 }\npub fn g(h: impl Fn(u32) -> u64) { h(1); }";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_confined_to_pool_and_serve() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }";
        let builder = "fn f() { std::thread::Builder::new(); }";
        assert_eq!(
            rules_of(&findings("crates/core/src/x.rs", spawn)),
            ["no-thread-spawn"]
        );
        assert_eq!(
            rules_of(&findings("crates/core/src/x.rs", builder)),
            ["no-thread-spawn"]
        );
        assert!(findings("shims/par/src/pool.rs", spawn).is_empty());
        assert!(findings("crates/serve/src/server.rs", builder).is_empty());
        assert_eq!(
            rules_of(&findings("crates/cluster/src/coordinator.rs", builder)),
            ["no-thread-spawn"]
        );
        // Tests may drive real threads.
        let in_test = "#[cfg(test)]\nmod tests {\n  fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(findings("crates/core/src/x.rs", in_test).is_empty());
    }

    #[test]
    fn static_mut_is_flagged_everywhere() {
        let src = "static mut COUNTER: u32 = 0;";
        assert_eq!(
            rules_of(&findings("crates/x/src/lib.rs", src)),
            ["no-shared-mut-statics"]
        );
        // Even inside the pool internals.
        assert_eq!(
            rules_of(&findings("shims/par/src/pool.rs", src)),
            ["no-shared-mut-statics"]
        );
    }

    #[test]
    fn unsafe_cell_needs_pool_internals_and_safety_comment() {
        let bare = "struct S { v: UnsafeCell<u32> }";
        assert_eq!(
            rules_of(&findings("crates/x/src/lib.rs", bare)),
            ["no-shared-mut-statics"]
        );
        assert_eq!(
            rules_of(&findings("shims/par/src/pool.rs", bare)),
            ["no-shared-mut-statics"]
        );
        let justified = "// SAFETY: only the owning worker dereferences between fences\nstruct S { v: UnsafeCell<u32> }";
        assert!(findings("shims/par/src/pool.rs", justified).is_empty());
    }

    #[test]
    fn relaxed_handshake_flags_done_and_ready_names() {
        let bad = "fn f(io_done: &AtomicBool) {\n  io_done.store(true, Ordering::Relaxed);\n}";
        let f = findings("crates/x/src/lib.rs", bad);
        assert_eq!(rules_of(&f), ["relaxed-handshake"]);
        // Release/Acquire handshakes and non-handshake names are fine.
        let good = "fn f(x: &AtomicBool) {\n  let io_done = x.load(Ordering::Acquire);\n  let stopped = x.load(Ordering::Relaxed);\n  let _ = (io_done, stopped);\n}";
        assert!(findings("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn inline_allow_marks_finding_waived() {
        let src =
            "fn f(o: Option<u32>) -> u32 {\n  // analyzer: allow(no-panic): demo\n  o.unwrap()\n}";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }
}

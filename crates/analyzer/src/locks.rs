//! Static lock-order analysis (DESIGN.md §15).
//!
//! Built on the item parser (the `parser` module): per crate, the pass
//! inventories lock fields (`Mutex`/`RwLock`/`TracedMutex` struct
//! fields and `static`s), resolves guard-returning helper functions,
//! computes a flow-insensitive *lock effect* (which locks a function
//! may acquire, whether it may block) closed over the crate-local call
//! graph, and then walks every non-test function body with a guard
//! lifetime model to extract:
//!
//! * **lock-order edges** `A → B` (lock `B` acquired while `A` held),
//!   merged into a cross-crate graph checked for cycles (ABBA
//!   candidates, rule `lock-order-cycle`);
//! * **blocking calls under a guard** — `write_all`/`sync_data`/
//!   `sync_all`/`accept`/argument-less `join()`, directly or via a
//!   crate-local callee, and condvar waits while holding an unrelated
//!   lock (rule `lock-blocking-call`);
//! * **double acquisition** of one lock in a single scope (rule
//!   `lock-double-acquire`).
//!
//! The guard lifetime model mirrors the borrow rules the code actually
//! relies on: `let`-bound guards die at the `}` closing their block or
//! at `drop(guard)`; temporaries die at the `;` ending their statement
//! (so `mem::take(&mut *m.lock())` before a join is clean); `if`/
//! `while` condition temporaries die at the condition's `{`; `match`
//! and `for`-head temporaries live through the expression; `if let`/
//! `while let` bindings die with their block.
//!
//! Documented blind spots (DESIGN.md §15): calls through trait objects
//! or function pointers, guards passed by reference or stored in
//! locals, lock collections iterated through a local name, closures
//! (analyzed in their lexical context even when deferred), and
//! same-named lock fields across types of one crate (first wins).
//!
//! Planted negative controls — an ABBA pair, a blocking write under a
//! guard, a double acquire — are analyzed on every run; a control that
//! fails to fire fails the gate, proving the detector itself works.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::diag::{json_str, Finding, Severity};
use crate::engine::SourceFile;
use crate::lexer::{lex, Tok, TokKind};
use crate::parser::{parse_items, FnDef, ParsedFile};
use crate::rules::{
    inline_allows, is_ident, is_punct, match_delim, next_code, prev_code, test_mask,
};

/// Rule catalog for `lotus analyze locks` (kept separate from the lint
/// [`crate::rules::RULES`] so each mode's waivers are scoped to it).
pub const LOCK_RULES: [(&str, &str); 3] = [
    (
        "lock-order-cycle",
        "the static lock-order graph contains a cycle (ABBA deadlock candidate)",
    ),
    (
        "lock-blocking-call",
        "blocking I/O, thread join, accept, or condvar wait while holding a lock guard",
    ),
    (
        "lock-double-acquire",
        "the same lock is acquired twice in one scope (self-deadlock)",
    ),
];

/// Method names treated as blocking when called with a guard live.
const BLOCKING_METHODS: [&str; 4] = ["sync_data", "sync_all", "write_all", "accept"];

/// Method names never resolved to crate-local functions: common std
/// container/iterator/atomic vocabulary that would otherwise collide
/// with same-named project functions.
const SKIP_METHODS: [&str; 40] = [
    "clone",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "ok",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "push_front",
    "insert",
    "remove",
    "get",
    "get_mut",
    "take",
    "replace",
    "load",
    "store",
    "fetch_add",
    "swap",
    "send",
    "recv",
    "extend",
    "drain",
    "clear",
    "retain",
    "spawn",
    "min",
    "max",
    "contains_key",
];

/// One directed lock-order edge: `to` was acquired while `from` was
/// held, first observed at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held at the acquisition site.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Repo-relative file of the first site establishing the edge.
    pub file: String,
    /// 1-based line of that site.
    pub line: u32,
}

/// The cross-crate static lock-order graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every lock acquired anywhere in non-test code, sorted.
    pub nodes: Vec<String>,
    /// Ordering edges, sorted by `(from, to)`; one entry per pair.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Whether the graph contains the ordering edge `from → to`.
    #[must_use]
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// Finds a cycle, returned as a node path whose last element
    /// repeats the first (`[a, b, a]`), or `None` if acyclic.
    #[must_use]
    pub fn cycle(&self) -> Option<Vec<String>> {
        // Iterative white/grey/black DFS over the adjacency map.
        let index: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if let (Some(&f), Some(&t)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) {
                adj[f].push(t);
            }
        }
        let mut color = vec![0u8; self.nodes.len()]; // 0 white, 1 grey, 2 black
        for start in 0..self.nodes.len() {
            if color[start] != 0 {
                continue;
            }
            // Stack of (node, next-neighbor index); `path` mirrors it.
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if let Some(&succ) = adj[node].get(*next) {
                    *next += 1;
                    match color[succ] {
                        0 => {
                            color[succ] = 1;
                            stack.push((succ, 0));
                        }
                        1 => {
                            // Back edge: the cycle is the stack suffix
                            // from `succ` onward, closed with `succ`.
                            let mut path: Vec<String> = stack
                                .iter()
                                .map(|&(n, _)| self.nodes[n].clone())
                                .skip_while(|n| *n != self.nodes[succ])
                                .collect();
                            path.push(self.nodes[succ].clone());
                            return Some(path);
                        }
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Whether the ordering relation is cycle-free.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.cycle().is_none()
    }
}

/// Outcome of one planted negative control.
#[derive(Debug, Clone)]
pub struct LockControl {
    /// Control name (`planted-abba`, …).
    pub name: &'static str,
    /// Rule the control must trigger.
    pub rule: &'static str,
    /// Whether the detector fired on the planted source.
    pub flagged: bool,
}

/// A full `analyze locks` run: graph, findings, planted controls.
#[derive(Debug, Clone, Default)]
pub struct LockSuiteReport {
    /// The cross-crate lock-order graph.
    pub graph: LockGraph,
    /// Findings, waived ones included, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Planted-control outcomes, in fixed order.
    pub controls: Vec<LockControl>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl LockSuiteReport {
    /// Number of findings not covered by a waiver or inline allow.
    #[must_use]
    pub fn unwaived(&self) -> usize {
        self.findings.iter().filter(|f| !f.waived).count()
    }

    /// Whether every planted control fired.
    #[must_use]
    pub fn controls_ok(&self) -> bool {
        self.controls.iter().all(|c| c.flagged)
    }

    /// Gate: zero unwaived findings and every control fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unwaived() == 0 && self.controls_ok()
    }

    /// Sorts findings into the stable report order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the report as stable JSON (fixed key order, findings
    /// and edges sorted), mirroring the lint/race report shapes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.findings.len() * 128);
        out.push_str(
            "{\n  \"schema_version\": 1,\n  \"tool\": \"lotus-analyzer\",\n  \"mode\": \"locks\",\n",
        );
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"nodes\": [");
        for (i, n) in self.graph.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("],\n  \"edges\": [");
        for (i, e) in self.graph.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line
            ));
        }
        if !self.graph.edges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"acyclic\": {},\n", self.graph.is_acyclic()));
        out.push_str(&format!("  \"total\": {},\n", self.findings.len()));
        out.push_str(&format!("  \"unwaived\": {},\n", self.unwaived()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            out.push_str(&format!(
                "\"severity\": {}, ",
                json_str(f.severity.as_str())
            ));
            out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            out.push_str(&format!("\"waived\": {}", f.waived));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"controls\": [");
        for (i, c) in self.controls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"rule\": {}, \"flagged\": {}}}",
                json_str(c.name),
                json_str(c.rule),
                c.flagged
            ));
        }
        if !self.controls.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

impl fmt::Display for LockSuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        writeln!(
            f,
            "lock-order graph: {} node(s), {} edge(s){}",
            self.graph.nodes.len(),
            self.graph.edges.len(),
            if self.graph.is_acyclic() {
                ", acyclic"
            } else {
                ", CYCLIC"
            }
        )?;
        for e in &self.graph.edges {
            writeln!(f, "  {} -> {} ({}:{})", e.from, e.to, e.file, e.line)?;
        }
        for c in &self.controls {
            writeln!(
                f,
                "control '{}' ({}): {}",
                c.name,
                c.rule,
                if c.flagged {
                    "fired"
                } else {
                    "MISSED — detector failed to fire"
                }
            )?;
        }
        write!(
            f,
            "{} file(s) scanned, {} finding(s), {} unwaived",
            self.files_scanned,
            self.findings.len(),
            self.unwaived()
        )
    }
}

/// Runs the full lock suite: static analysis over `files` plus the
/// planted negative controls.
#[must_use]
pub fn run_lock_suite(files: &[SourceFile]) -> LockSuiteReport {
    let (graph, findings) = analyze_lock_sources(files);
    let mut report = LockSuiteReport {
        graph,
        findings,
        controls: run_controls(),
        files_scanned: files.len(),
    };
    report.sort();
    report
}

// ---------------------------------------------------------------------
// Per-crate model
// ---------------------------------------------------------------------

struct FileData<'a> {
    path: &'a str,
    toks: Vec<Tok<'a>>,
    allows: Vec<(u32, String)>,
}

#[derive(Clone)]
struct LockInfo {
    id: String,
    rwlock: bool,
}

/// Guard-returning helper classification.
#[derive(Clone, PartialEq, Eq)]
enum Helper {
    /// Always acquires this lock (e.g. `Registry::lock`).
    Fixed(String),
    /// Locks whichever mutex is passed as parameter `i` (e.g.
    /// `shims/par`'s `fn lock<T>(m: &Mutex<T>)`).
    Param(usize),
}

struct FnSig {
    file: usize,
    def: FnDef,
}

#[derive(Default, Clone)]
struct Effects {
    acquires: BTreeSet<String>,
    /// `(callee name, blocking op)` when the function may block.
    blocking: Option<(String, String)>,
    calls: BTreeSet<usize>,
}

struct CrateModel<'a> {
    files: Vec<FileData<'a>>,
    fields: BTreeMap<String, LockInfo>,
    statics: BTreeMap<String, String>,
    condvars: BTreeSet<String>,
    fns: Vec<FnSig>,
    by_name: BTreeMap<String, Vec<usize>>,
    helpers: Vec<Option<Helper>>,
    effects: Vec<Effects>,
}

/// `crates/x/...` → `crates/x`; `shims/x/...` → `shims/x`;
/// `src/...` → `src`; anything else keeps its first component.
fn crate_key(path: &str) -> String {
    let mut it = path.split('/');
    match (it.next(), it.next()) {
        (Some(a @ ("crates" | "shims")), Some(b)) => format!("{a}/{b}"),
        (Some(a), _) => a.to_owned(),
        _ => path.to_owned(),
    }
}

fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/")
}

/// Extracts `field: TracedMutex::new("name", …)` literal names.
fn traced_names(toks: &[Tok<'_>], out: &mut BTreeMap<String, String>) {
    for (i, t) in toks.iter().enumerate() {
        if !(is_ident(t, "TracedMutex") || is_ident(t, "TracedCondvar")) {
            continue;
        }
        // Forward: `:: new ( "lit"`.
        let Some(c1) = next_code(toks, i) else {
            continue;
        };
        let Some(c2) = next_code(toks, c1) else {
            continue;
        };
        if !is_punct(&toks[c1], ":") || !is_punct(&toks[c2], ":") {
            continue;
        }
        let Some(new_i) = next_code(toks, c2) else {
            continue;
        };
        if !is_ident(&toks[new_i], "new") {
            continue;
        }
        let Some(open) = next_code(toks, new_i) else {
            continue;
        };
        if !is_punct(&toks[open], "(") {
            continue;
        }
        let Some(lit_i) = next_code(toks, open) else {
            continue;
        };
        if toks[lit_i].kind != TokKind::Str {
            continue;
        }
        // Backward: `field :`.
        let Some(colon) = prev_code(toks, i) else {
            continue;
        };
        if !is_punct(&toks[colon], ":") {
            continue;
        }
        let Some(field_i) = prev_code(toks, colon) else {
            continue;
        };
        if toks[field_i].kind != TokKind::Ident {
            continue;
        }
        let lit = toks[lit_i].text;
        if lit.len() >= 2 {
            out.entry(toks[field_i].text.to_owned())
                .or_insert_with(|| lit[1..lit.len() - 1].to_owned());
        }
    }
}

fn build_crate_model<'a>(key: &str, files: &[&'a SourceFile]) -> CrateModel<'a> {
    let mut data = Vec::with_capacity(files.len());
    let mut parsed: Vec<ParsedFile> = Vec::with_capacity(files.len());
    let mut traced = BTreeMap::new();
    for f in files {
        let toks = lex(&f.src);
        let mask = test_mask(&toks);
        let allows = inline_allows(&toks);
        traced_names(&toks, &mut traced);
        parsed.push(parse_items(&toks, &mask));
        data.push(FileData {
            path: &f.path,
            toks,
            allows,
        });
    }
    let mut fields = BTreeMap::new();
    let mut statics = BTreeMap::new();
    let mut condvars = BTreeSet::new();
    let mut fns = Vec::new();
    for (fi, p) in parsed.iter().enumerate() {
        for s in &p.structs {
            for field in &s.fields {
                if field.ty.contains("Condvar") {
                    condvars.insert(field.name.clone());
                    continue;
                }
                let traced_mutex = field.ty.contains("TracedMutex<");
                let rwlock = field.ty.contains("RwLock<");
                if !(traced_mutex || rwlock || field.ty.contains("Mutex<")) {
                    continue;
                }
                let id = if traced_mutex {
                    traced
                        .get(&field.name)
                        .cloned()
                        .unwrap_or_else(|| format!("{key}::{}.{}", s.name, field.name))
                } else {
                    format!("{key}::{}.{}", s.name, field.name)
                };
                fields
                    .entry(field.name.clone())
                    .or_insert(LockInfo { id, rwlock });
            }
        }
        for st in &p.statics {
            if st.ty.contains("Mutex<") || st.ty.contains("RwLock<") {
                statics
                    .entry(st.name.clone())
                    .or_insert_with(|| format!("{key}::{}", st.name));
            }
        }
        for d in &p.fns {
            fns.push(FnSig {
                file: fi,
                def: d.clone(),
            });
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.def.name.clone()).or_default().push(i);
    }
    let mut model = CrateModel {
        files: data,
        fields,
        statics,
        condvars,
        fns,
        by_name,
        helpers: Vec::new(),
        effects: Vec::new(),
    };
    model.helpers = model.fns.iter().map(|f| detect_helper(&model, f)).collect();
    model.effects = compute_effects(&model);
    model
}

/// Stage 1: classify guard-returning helpers from signature + direct
/// field/static acquisitions only.
fn detect_helper(model: &CrateModel<'_>, f: &FnSig) -> Option<Helper> {
    if !f.def.ret.contains("Guard") {
        return None;
    }
    for (i, (_, ty)) in f.def.params.iter().enumerate() {
        if ty.contains("Mutex<") || ty.contains("RwLock<") {
            return Some(Helper::Param(i));
        }
    }
    let (open, close) = f.def.body?;
    let toks = &model.files[f.file].toks;
    let mut k = open + 1;
    while k < close {
        if let Some(id) = direct_acquire_at(model, toks, k) {
            return Some(Helper::Fixed(id));
        }
        k += 1;
    }
    None
}

/// Detects a direct `recv.lock()` / `recv.read()` / `recv.write()` on a
/// known lock field or static at token `k` (which must hold the `.`).
fn direct_acquire_at(model: &CrateModel<'_>, toks: &[Tok<'_>], k: usize) -> Option<String> {
    if !is_punct(&toks[k], ".") {
        return None;
    }
    let name_i = next_code(toks, k)?;
    if toks[name_i].kind != TokKind::Ident {
        return None;
    }
    let name = toks[name_i].text;
    let open = next_code(toks, name_i)?;
    if !is_punct(&toks[open], "(") {
        return None;
    }
    let recv = receiver(toks, k)?;
    match name {
        "lock" | "try_lock" => model
            .fields
            .get(recv)
            .map(|l| l.id.clone())
            .or_else(|| model.statics.get(recv).cloned()),
        "read" | "write" => model
            .fields
            .get(recv)
            .filter(|l| l.rwlock)
            .map(|l| l.id.clone()),
        _ => None,
    }
}

/// Index of the receiver identifier of the method call whose `.` is at
/// `k`, skipping one `[…]` index suffix (`deques[i].lock()`).
fn receiver_idx(toks: &[Tok<'_>], k: usize) -> Option<usize> {
    let mut p = prev_code(toks, k)?;
    if is_punct(&toks[p], "]") {
        let mut depth = 0i64;
        loop {
            let t = &toks[p];
            if is_punct(t, "]") {
                depth += 1;
            } else if is_punct(t, "[") {
                depth -= 1;
                if depth == 0 {
                    p = prev_code(toks, p)?;
                    break;
                }
            }
            if p == 0 {
                return None;
            }
            p -= 1;
        }
    }
    (toks[p].kind == TokKind::Ident).then_some(p)
}

/// Resolves the receiver identifier text of the method call whose `.`
/// is at `k`.
fn receiver<'a>(toks: &'a [Tok<'a>], k: usize) -> Option<&'a str> {
    receiver_idx(toks, k).map(|p| toks[p].text)
}

/// Walks back to the first token of the place/postfix chain ending in
/// the acquisition at `k` (`self.shared.queue.lock()` → `self`;
/// `lock(&m)` → `lock`). Returns `None` when the chain hangs off a
/// call result.
fn chain_start(toks: &[Tok<'_>], k: usize) -> Option<usize> {
    let mut cur = if is_punct(&toks[k], ".") {
        receiver_idx(toks, k)?
    } else {
        k
    };
    loop {
        let Some(p) = prev_code(toks, cur) else {
            return Some(cur);
        };
        if is_punct(&toks[p], ".") {
            let q = prev_code(toks, p)?;
            if toks[q].kind == TokKind::Ident {
                cur = q;
                continue;
            }
            if is_punct(&toks[q], ")") {
                return None;
            }
            return Some(cur);
        }
        if is_punct(&toks[p], ":") {
            let q = prev_code(toks, p)?;
            if is_punct(&toks[q], ":") {
                if let Some(r) = prev_code(toks, q) {
                    if toks[r].kind == TokKind::Ident {
                        cur = r;
                        continue;
                    }
                }
            }
            return Some(cur);
        }
        return Some(cur);
    }
}

/// Adapter methods that pass the guard through unchanged, so a binding
/// after them still owns the guard.
const GUARD_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Whether the value produced by the acquisition call at `k` reaches
/// the end of its statement intact — i.e. the `let` binding owns the
/// guard rather than something derived from it
/// (`m.lock().unwrap_or_else(..)` yes; `lock(&m).take()` no).
fn guard_flows_to_stmt_end(toks: &[Tok<'_>], k: usize) -> bool {
    let open = if is_punct(&toks[k], ".") {
        next_code(toks, k).and_then(|n| next_code(toks, n))
    } else {
        next_code(toks, k)
    };
    let Some(open) = open else {
        return false;
    };
    let mut end = match_delim(toks, open, "(", ")");
    loop {
        let Some(n) = next_code(toks, end) else {
            return false;
        };
        let t = &toks[n];
        if is_punct(t, ";") || is_punct(t, "{") {
            return true;
        }
        if is_punct(t, "?") {
            end = n;
            continue;
        }
        if is_punct(t, ".") {
            let Some(m) = next_code(toks, n) else {
                return false;
            };
            if toks[m].kind == TokKind::Ident && GUARD_ADAPTERS.contains(&toks[m].text) {
                if let Some(o) = next_code(toks, m) {
                    if is_punct(&toks[o], "(") {
                        end = match_delim(toks, o, "(", ")");
                        continue;
                    }
                }
            }
            return false;
        }
        return false;
    }
}

/// Finds the `=` of a `let`/`if let` statement between `s` and `k`,
/// skipping `==`, `=>`, and compound assignment operators.
fn find_eq(toks: &[Tok<'_>], s: usize, k: usize) -> Option<usize> {
    let mut j = s;
    while j < k {
        if is_punct(&toks[j], "=") {
            let next_is_eq_or_gt = toks
                .get(j + 1)
                .is_some_and(|t| is_punct(t, "=") || is_punct(t, ">"));
            let prev_compound = j > 0
                && ["=", "<", ">", "!", "+", "-", "*", "/", "&", "|", "^", "%"]
                    .iter()
                    .any(|p| is_punct(&toks[j - 1], p));
            if next_is_eq_or_gt || prev_compound {
                j += 2;
                continue;
            }
            return Some(j);
        }
        j += 1;
    }
    None
}

/// First identifier strictly inside the paren group opening at `open`.
fn first_ident_in<'a>(toks: &'a [Tok<'a>], open: usize) -> Option<&'a str> {
    let mut depth = 0i64;
    for t in &toks[open..] {
        if is_punct(t, "(") {
            depth += 1;
        } else if is_punct(t, ")") {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.kind == TokKind::Ident {
            return Some(t.text);
        }
    }
    None
}

/// Splits the paren group opening at `open` into top-level argument
/// token ranges.
fn split_args(toks: &[Tok<'_>], open: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    let mut k = open;
    while k < toks.len() {
        let t = &toks[k];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                if k > start {
                    args.push((start, k));
                }
                return args;
            }
        } else if is_punct(t, ",") && depth == 1 {
            args.push((start, k));
            start = k + 1;
        }
        k += 1;
    }
    args
}

/// One classified site in a function body.
enum Site {
    Acquire {
        lock: String,
    },
    Wait {
        condvar: String,
        guard_arg: Option<String>,
    },
    Blocking {
        what: String,
    },
    Call {
        callees: Vec<usize>,
    },
    Release {
        var: String,
    },
}

/// Classifies the token at `k` as a lock-relevant site, if any.
/// `enclosing` is the index of the function being scanned (excluded
/// from call resolution so `append`-style recursion does not fold a
/// function's own effects into its call sites).
fn classify(
    model: &CrateModel<'_>,
    file: usize,
    k: usize,
    enclosing: Option<usize>,
) -> Option<Site> {
    let toks = &model.files[file].toks;
    let t = &toks[k];
    if is_punct(t, ".") {
        return classify_method(model, file, k, enclosing);
    }
    if t.kind == TokKind::Ident {
        return classify_free(model, toks, k, enclosing);
    }
    None
}

fn classify_method(
    model: &CrateModel<'_>,
    file: usize,
    k: usize,
    enclosing: Option<usize>,
) -> Option<Site> {
    let toks = &model.files[file].toks;
    let name_i = next_code(toks, k)?;
    if toks[name_i].kind != TokKind::Ident {
        return None;
    }
    let name = toks[name_i].text;
    let open = next_code(toks, name_i)?;
    if !is_punct(&toks[open], "(") {
        return None;
    }
    match name {
        "lock" | "try_lock" => {
            let recv = receiver(toks, k)?;
            if recv == "self" {
                return resolve_self_helper(model, name, enclosing);
            }
            direct_acquire_at(model, toks, k).map(|lock| Site::Acquire { lock })
        }
        "read" | "write" => direct_acquire_at(model, toks, k).map(|lock| Site::Acquire { lock }),
        "wait" | "wait_timeout" | "wait_while" => {
            let recv = receiver(toks, k)?;
            if !model.condvars.contains(recv) {
                return None;
            }
            Some(Site::Wait {
                condvar: recv.to_owned(),
                guard_arg: first_ident_in(toks, open).map(str::to_owned),
            })
        }
        n if BLOCKING_METHODS.contains(&n) => Some(Site::Blocking { what: n.to_owned() }),
        "join" => {
            // Only the argument-less thread join; `PathBuf::join(..)`
            // and `slice.join(sep)` take arguments.
            let after = next_code(toks, open)?;
            is_punct(&toks[after], ")").then(|| Site::Blocking {
                what: "join".to_owned(),
            })
        }
        n if SKIP_METHODS.contains(&n) => None,
        _ => {
            let recv = receiver(toks, k)?;
            let callees = if recv == "self" {
                let owner = enclosing.and_then(|e| model.fns[e].def.owner.clone())?;
                candidate_fns(model, name, Some(&owner), enclosing)
            } else {
                candidate_fns(model, name, None, enclosing)
            };
            let callees = arity_filter(model, callees, split_args(toks, open).len());
            finish_call(model, callees)
        }
    }
}

/// Drops candidates whose declared parameter count does not match the
/// call site (separates `TcpStream::shutdown(how)` from a project
/// `shutdown()`, for example).
fn arity_filter(model: &CrateModel<'_>, mut callees: Vec<usize>, nargs: usize) -> Vec<usize> {
    callees.retain(|&i| model.fns[i].def.params.len() == nargs);
    callees
}

fn classify_free(
    model: &CrateModel<'_>,
    toks: &[Tok<'_>],
    k: usize,
    enclosing: Option<usize>,
) -> Option<Site> {
    let name = toks[k].text;
    let open = next_code(toks, k)?;
    if !is_punct(&toks[open], "(") {
        return None;
    }
    if let Some(p) = prev_code(toks, k) {
        if is_punct(&toks[p], ".") || is_ident(&toks[p], "fn") {
            return None;
        }
        if is_punct(&toks[p], ":") {
            // Path call `…::name(`: resolve one path segment back.
            let seg_colon = prev_code(toks, p)?;
            if !is_punct(&toks[seg_colon], ":") {
                return None;
            }
            let seg_i = prev_code(toks, seg_colon)?;
            if toks[seg_i].kind != TokKind::Ident {
                return None;
            }
            let seg = toks[seg_i].text;
            let deeper = prev_code(toks, seg_i).is_some_and(|q| is_punct(&toks[q], ":"));
            if seg == "Self" {
                let owner = enclosing.and_then(|e| model.fns[e].def.owner.clone())?;
                let callees = candidate_fns(model, name, Some(&owner), enclosing);
                return finish_acquire_or_call(model, toks, open, callees);
            }
            if seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let callees = candidate_fns(model, name, Some(seg), enclosing);
                return finish_acquire_or_call(model, toks, open, callees);
            }
            if deeper {
                // `std::mem::take(…)` and friends: out of scope.
                return None;
            }
            // `module::free_fn(…)` within the crate.
            let callees = free_fns(model, name, enclosing);
            return finish_acquire_or_call(model, toks, open, callees);
        }
    }
    if name == "drop" {
        return first_ident_in(toks, open).map(|v| Site::Release { var: v.to_owned() });
    }
    let callees = free_fns(model, name, enclosing);
    finish_acquire_or_call(model, toks, open, callees)
}

fn resolve_self_helper(
    model: &CrateModel<'_>,
    name: &str,
    enclosing: Option<usize>,
) -> Option<Site> {
    let owner = enclosing.and_then(|e| model.fns[e].def.owner.clone())?;
    let cands = candidate_fns(model, name, Some(&owner), enclosing);
    if let [single] = cands[..] {
        if let Some(Helper::Fixed(id)) = &model.helpers[single] {
            return Some(Site::Acquire { lock: id.clone() });
        }
    }
    None
}

fn candidate_fns(
    model: &CrateModel<'_>,
    name: &str,
    owner: Option<&str>,
    enclosing: Option<usize>,
) -> Vec<usize> {
    model
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&i| Some(i) != enclosing)
                .filter(|&i| match owner {
                    Some(o) => model.fns[i].def.owner.as_deref() == Some(o),
                    None => true,
                })
                .collect()
        })
        .unwrap_or_default()
}

fn free_fns(model: &CrateModel<'_>, name: &str, enclosing: Option<usize>) -> Vec<usize> {
    model
        .by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&i| Some(i) != enclosing && model.fns[i].def.owner.is_none())
                .collect()
        })
        .unwrap_or_default()
}

/// Turns a resolved candidate set into an `Acquire` (when it is a
/// single guard helper) or a plain `Call`.
fn finish_acquire_or_call(
    model: &CrateModel<'_>,
    toks: &[Tok<'_>],
    open: usize,
    callees: Vec<usize>,
) -> Option<Site> {
    let callees = arity_filter(model, callees, split_args(toks, open).len());
    if let [single] = callees[..] {
        match &model.helpers[single] {
            Some(Helper::Fixed(id)) => {
                return Some(Site::Acquire { lock: id.clone() });
            }
            Some(Helper::Param(i)) => {
                let args = split_args(toks, open);
                let (lo, hi) = *args.get(*i)?;
                let lock = toks[lo..hi]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .find_map(|t| {
                        model
                            .fields
                            .get(t.text)
                            .map(|l| l.id.clone())
                            .or_else(|| model.statics.get(t.text).cloned())
                    })?;
                return Some(Site::Acquire { lock });
            }
            None => {}
        }
    }
    finish_call(model, callees)
}

fn finish_call(model: &CrateModel<'_>, callees: Vec<usize>) -> Option<Site> {
    if callees.is_empty() {
        return None;
    }
    if callees
        .iter()
        .all(|&i| matches!(&model.helpers[i], Some(Helper::Fixed(_))))
    {
        if let Some(Helper::Fixed(id)) = &model.helpers[callees[0]] {
            let id = id.clone();
            if callees
                .iter()
                .all(|&i| model.helpers[i] == Some(Helper::Fixed(id.clone())))
            {
                return Some(Site::Acquire { lock: id });
            }
        }
    }
    Some(Site::Call { callees })
}

/// Stage 2: direct lock effects per function, closed transitively over
/// crate-local calls.
fn compute_effects(model: &CrateModel<'_>) -> Vec<Effects> {
    let mut effects: Vec<Effects> = Vec::with_capacity(model.fns.len());
    for (fi, f) in model.fns.iter().enumerate() {
        let mut e = Effects::default();
        if let Some((open, close)) = f.def.body {
            let mut k = open + 1;
            while k < close {
                match classify(model, f.file, k, Some(fi)) {
                    Some(Site::Acquire { lock }) => {
                        e.acquires.insert(lock);
                    }
                    Some(Site::Blocking { what }) if e.blocking.is_none() => {
                        e.blocking = Some((f.def.name.clone(), what));
                    }
                    Some(Site::Call { callees }) => {
                        e.calls.extend(callees);
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        effects.push(e);
    }
    // Fixpoint over the crate-local call graph.
    loop {
        let mut changed = false;
        for fi in 0..effects.len() {
            let calls: Vec<usize> = effects[fi].calls.iter().copied().collect();
            for c in calls {
                let (acq, blk) = {
                    let ce = &effects[c];
                    (ce.acquires.clone(), ce.blocking.clone())
                };
                let e = &mut effects[fi];
                for a in acq {
                    changed |= e.acquires.insert(a);
                }
                if e.blocking.is_none() {
                    if let Some(b) = blk {
                        e.blocking = Some(b);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    effects
}

// ---------------------------------------------------------------------
// Stateful body scan
// ---------------------------------------------------------------------

struct Guard {
    lock: String,
    var: Option<String>,
    depth: i64,
    temp: bool,
    /// Kill when the `}` closing this depth is reached (`if let` /
    /// `while let` bindings die with their block).
    kill_at: Option<i64>,
}

struct ScanOut {
    findings: Vec<Finding>,
    edges: BTreeMap<(String, String), (String, u32)>,
    nodes: BTreeSet<String>,
}

fn emit(
    out: &mut Vec<Finding>,
    allows: &[(u32, String)],
    path: &str,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let waived = allows
        .iter()
        .any(|(l, r)| r == rule && (*l == line || l + 1 == line));
    out.push(Finding {
        rule,
        severity: Severity::Error,
        file: path.to_owned(),
        line,
        message,
        waived,
    });
}

fn held_list(guards: &[Guard]) -> String {
    let names: Vec<String> = guards.iter().map(|g| format!("`{}`", g.lock)).collect();
    names.join(", ")
}

/// Extracts the binding name of the statement starting at `stmt_start`
/// whose right-hand side produced a guard: `let [mut] name = …`, or the
/// last pattern identifier of `if let` / `while let`.
fn stmt_binding(toks: &[Tok<'_>], stmt_start: usize, upto: usize) -> Option<String> {
    let first = &toks[stmt_start];
    if is_ident(first, "let") {
        let mut j = next_code(toks, stmt_start)?;
        if is_ident(&toks[j], "mut") {
            j = next_code(toks, j)?;
        }
        return (toks[j].kind == TokKind::Ident).then(|| toks[j].text.to_owned());
    }
    if is_ident(first, "if") || is_ident(first, "while") {
        let second = next_code(toks, stmt_start)?;
        if !is_ident(&toks[second], "let") {
            return None;
        }
        // Last pattern identifier before the `=`.
        let mut j = second + 1;
        let mut last = None;
        while j < upto {
            let t = &toks[j];
            if is_punct(t, "=") {
                break;
            }
            if t.kind == TokKind::Ident && !is_ident(t, "mut") && !is_ident(t, "ref") {
                last = Some(t.text.to_owned());
            }
            j += 1;
        }
        return last;
    }
    None
}

#[allow(clippy::too_many_lines)]
fn scan_fn_body(model: &CrateModel<'_>, fi: usize, out: &mut ScanOut) {
    let f = &model.fns[fi];
    let Some((open, close)) = f.def.body else {
        return;
    };
    let file = f.file;
    let toks = &model.files[file].toks;
    let path = model.files[file].path;
    let allows = &model.files[file].allows;
    let mut depth = 0i64;
    let mut round = 0i64;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt_start: Option<usize> = None;
    let mut stmt_bound = false;
    // Statement head of each open block, for head-temporary lifetimes.
    let mut heads: Vec<Option<&str>> = Vec::new();
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        if !t.kind.is_code() {
            k += 1;
            continue;
        }
        if is_punct(t, "(") || is_punct(t, "[") {
            round += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            round -= 1;
        } else if is_punct(t, ",") && round == 0 {
            // Match-arm / struct-literal separators end the current
            // temporary's statement scope.
            guards.retain(|g| !(g.temp && g.depth == depth));
            stmt_start = None;
            k += 1;
            continue;
        }
        if stmt_start.is_none() && !is_punct(t, "{") && !is_punct(t, "}") && !is_punct(t, ";") {
            stmt_start = Some(k);
            stmt_bound = false;
        }
        if is_punct(t, "{") {
            // `if` / `while` condition temporaries die before the block
            // runs; `match` scrutinees and `for`-head iterators do not.
            let head_kills = stmt_start.is_some_and(|s| {
                let h = &toks[s];
                (is_ident(h, "if") || is_ident(h, "while"))
                    && next_code(toks, s).is_none_or(|n| !is_ident(&toks[n], "let"))
            });
            if head_kills {
                guards.retain(|g| !(g.temp && g.depth == depth));
            }
            heads.push(stmt_start.map(|s| toks[s].text));
            depth += 1;
            stmt_start = None;
            k += 1;
            continue;
        }
        if is_punct(t, "}") {
            guards.retain(|g| g.depth < depth && g.kill_at != Some(depth));
            depth -= 1;
            // `if let` / `match` / `for` head temporaries (scrutinees,
            // iterator chains) die when the statement-expression ends.
            if matches!(
                heads.pop().flatten(),
                Some("if" | "while" | "match" | "for")
            ) {
                guards.retain(|g| !(g.temp && g.depth == depth));
            }
            stmt_start = None;
            k += 1;
            continue;
        }
        if is_punct(t, ";") {
            guards.retain(|g| !(g.temp && g.depth == depth));
            stmt_start = None;
            k += 1;
            continue;
        }
        match classify(model, file, k, Some(fi)) {
            Some(Site::Acquire { lock }) => {
                out.nodes.insert(lock.clone());
                if guards.iter().any(|g| g.lock == lock) {
                    emit(
                        &mut out.findings,
                        allows,
                        path,
                        "lock-double-acquire",
                        t.line,
                        format!(
                            "`{}` is acquired again while already held in this scope (self-deadlock)",
                            lock
                        ),
                    );
                } else {
                    for g in &guards {
                        out.edges
                            .entry((g.lock.clone(), lock.clone()))
                            .or_insert_with(|| (path.to_owned(), t.line));
                    }
                }
                let var = if stmt_bound {
                    None
                } else {
                    stmt_start.and_then(|s| {
                        let v = stmt_binding(toks, s, k)?;
                        let eq = find_eq(toks, s, k)?;
                        let eq_next = next_code(toks, eq)?;
                        let start = chain_start(toks, k)?;
                        (eq_next == start && guard_flows_to_stmt_end(toks, k)).then_some(v)
                    })
                };
                if var.is_some() {
                    stmt_bound = true;
                }
                let if_let_bound = var.is_some()
                    && stmt_start
                        .is_some_and(|s| is_ident(&toks[s], "if") || is_ident(&toks[s], "while"));
                guards.push(Guard {
                    lock,
                    temp: var.is_none(),
                    var,
                    depth,
                    kill_at: if_let_bound.then_some(depth + 1),
                });
            }
            Some(Site::Release { var }) => {
                if let Some(pos) = guards.iter().rposition(|g| g.var.as_deref() == Some(&var)) {
                    guards.remove(pos);
                }
            }
            Some(Site::Wait { condvar, guard_arg }) => {
                let others: Vec<&Guard> = guards
                    .iter()
                    .filter(|g| g.var.as_deref() != guard_arg.as_deref() || g.var.is_none())
                    .collect();
                if !others.is_empty() {
                    let names: Vec<String> =
                        others.iter().map(|g| format!("`{}`", g.lock)).collect();
                    emit(
                        &mut out.findings,
                        allows,
                        path,
                        "lock-blocking-call",
                        t.line,
                        format!(
                            "waits on condvar `{condvar}` while holding {}",
                            names.join(", ")
                        ),
                    );
                }
            }
            Some(Site::Blocking { what }) if !guards.is_empty() => {
                emit(
                    &mut out.findings,
                    allows,
                    path,
                    "lock-blocking-call",
                    t.line,
                    format!("blocking `{what}` while holding {}", held_list(&guards)),
                );
            }
            Some(Site::Call { callees }) if !guards.is_empty() => {
                let mut acq = BTreeSet::new();
                let mut blocking: Option<(String, String)> = None;
                for &c in &callees {
                    acq.extend(model.effects[c].acquires.iter().cloned());
                    if blocking.is_none() {
                        blocking = model.effects[c].blocking.clone();
                    }
                }
                for a in &acq {
                    if guards.iter().any(|g| &g.lock == a) {
                        continue;
                    }
                    out.nodes.insert(a.clone());
                    for g in &guards {
                        out.edges
                            .entry((g.lock.clone(), a.clone()))
                            .or_insert_with(|| (path.to_owned(), t.line));
                    }
                }
                if let Some((via, what)) = blocking {
                    emit(
                        &mut out.findings,
                        allows,
                        path,
                        "lock-blocking-call",
                        t.line,
                        format!(
                            "calls `{via}`, which performs blocking `{what}`, while holding {}",
                            held_list(&guards)
                        ),
                    );
                }
            }
            _ => {}
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------
// Whole-run assembly
// ---------------------------------------------------------------------

/// Analyzes `files` (grouped per crate) and returns the merged graph
/// plus all findings, cycle findings included.
pub(crate) fn analyze_lock_sources(files: &[SourceFile]) -> (LockGraph, Vec<Finding>) {
    let mut by_crate: BTreeMap<String, Vec<&SourceFile>> = BTreeMap::new();
    for f in files {
        if is_test_path(&f.path) {
            continue;
        }
        by_crate.entry(crate_key(&f.path)).or_default().push(f);
    }
    let mut out = ScanOut {
        findings: Vec::new(),
        edges: BTreeMap::new(),
        nodes: BTreeSet::new(),
    };
    let mut allows_by_file: BTreeMap<String, Vec<(u32, String)>> = BTreeMap::new();
    for (key, group) in &by_crate {
        let model = build_crate_model(key, group);
        for fd in &model.files {
            allows_by_file.insert(fd.path.to_owned(), fd.allows.clone());
        }
        for fi in 0..model.fns.len() {
            if model.fns[fi].def.masked {
                continue;
            }
            scan_fn_body(&model, fi, &mut out);
        }
    }
    let mut graph = LockGraph::default();
    for (f, t) in out.edges.keys() {
        out.nodes.insert(f.clone());
        out.nodes.insert(t.clone());
    }
    graph.nodes = out.nodes.iter().cloned().collect();
    graph.edges = out
        .edges
        .iter()
        .map(|((f, t), (file, line))| LockEdge {
            from: f.clone(),
            to: t.clone(),
            file: file.clone(),
            line: *line,
        })
        .collect();
    let mut findings = out.findings;
    // Cycle findings: peel one edge per reported cycle so independent
    // cycles each get a finding (capped defensively).
    let mut work = graph.clone();
    for _ in 0..8 {
        let Some(cyc) = work.cycle() else {
            break;
        };
        let chain = cyc
            .iter()
            .map(|n| format!("`{n}`"))
            .collect::<Vec<_>>()
            .join(" -> ");
        let (file, line) = graph
            .edges
            .iter()
            .find(|e| cyc.len() > 1 && e.from == cyc[0] && e.to == cyc[1])
            .map_or((String::new(), 0), |e| (e.file.clone(), e.line));
        let allows = allows_by_file.get(&file).cloned().unwrap_or_default();
        emit(
            &mut findings,
            &allows,
            &file,
            "lock-order-cycle",
            line,
            format!("lock-order cycle: {chain} (ABBA deadlock candidate)"),
        );
        if cyc.len() >= 2 {
            let (last_from, last_to) = (cyc[cyc.len() - 2].clone(), cyc[cyc.len() - 1].clone());
            work.edges
                .retain(|e| !(e.from == last_from && e.to == last_to));
        } else {
            break;
        }
    }
    (graph, findings)
}

// ---------------------------------------------------------------------
// Planted negative controls
// ---------------------------------------------------------------------

const PLANTED_ABBA: &str = "\
struct PlantedAbba {\n\
    a: Mutex<u32>,\n\
    b: Mutex<u32>,\n\
}\n\
impl PlantedAbba {\n\
    fn forward(&self) {\n\
        let ga = self.a.lock();\n\
        let gb = self.b.lock();\n\
        drop(gb);\n\
        drop(ga);\n\
    }\n\
    fn backward(&self) {\n\
        let gb = self.b.lock();\n\
        let ga = self.a.lock();\n\
        drop(ga);\n\
        drop(gb);\n\
    }\n\
}\n";

const PLANTED_BLOCKING: &str = "\
struct PlantedBlocking {\n\
    log: Mutex<std::fs::File>,\n\
}\n\
impl PlantedBlocking {\n\
    fn commit(&self, buf: &[u8]) {\n\
        let mut f = self.log.lock();\n\
        f.write_all(buf);\n\
        f.sync_data();\n\
    }\n\
}\n";

const PLANTED_DOUBLE: &str = "\
struct PlantedDouble {\n\
    m: Mutex<u32>,\n\
}\n\
impl PlantedDouble {\n\
    fn oops(&self) -> u32 {\n\
        let g1 = self.m.lock();\n\
        let g2 = self.m.lock();\n\
        *g1 + *g2\n\
    }\n\
}\n";

const PLANTED_CONTROLS: [(&str, &str, &str); 3] = [
    ("planted-abba", "lock-order-cycle", PLANTED_ABBA),
    ("planted-blocking", "lock-blocking-call", PLANTED_BLOCKING),
    ("planted-double", "lock-double-acquire", PLANTED_DOUBLE),
];

fn run_controls() -> Vec<LockControl> {
    PLANTED_CONTROLS
        .iter()
        .map(|&(name, rule, src)| {
            let files = [SourceFile {
                path: format!("planted/{name}.rs"),
                src: src.to_owned(),
            }];
            let (_, findings) = analyze_lock_sources(&files);
            LockControl {
                name,
                rule,
                flagged: findings.iter().any(|f| f.rule == rule && !f.waived),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_owned(),
            src: src.to_owned(),
        }
    }

    fn run(src: &str) -> (LockGraph, Vec<Finding>) {
        analyze_lock_sources(&[sf("crates/t/src/lib.rs", src)])
    }

    #[test]
    fn planted_controls_all_fire() {
        let controls = run_controls();
        assert_eq!(controls.len(), 3);
        for c in &controls {
            assert!(c.flagged, "control {} did not fire", c.name);
        }
    }

    #[test]
    fn abba_order_is_a_cycle_finding() {
        let (graph, findings) = run(
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn fwd(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); drop(g); drop(h); }\n\
                 pub fn bwd(&self) { let g = self.b.lock().unwrap(); let h = self.a.lock().unwrap(); drop(g); drop(h); }\n\
             }\n",
        );
        assert!(graph.has_edge("crates/t::S.a", "crates/t::S.b"));
        assert!(graph.has_edge("crates/t::S.b", "crates/t::S.a"));
        assert!(!graph.is_acyclic());
        assert!(findings.iter().any(|f| f.rule == "lock-order-cycle"));
    }

    #[test]
    fn blocking_write_under_guard_is_flagged() {
        let (_, findings) = run(
            "use std::sync::Mutex;\n\
             pub struct S { m: Mutex<std::fs::File> }\n\
             impl S {\n\
                 pub fn f(&self) { let mut g = self.m.lock().unwrap(); g.write_all(b\"x\").unwrap(); }\n\
             }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lock-blocking-call");
        assert!(findings[0].message.contains("write_all"));
    }

    #[test]
    fn take_then_join_pattern_is_clean() {
        // The guard inside `mem::take(&mut *…lock()…)` is a temporary
        // that dies at the `;`, so the join below holds nothing.
        let (_, findings) = run("use std::sync::Mutex;\n\
             pub struct P { workers: Mutex<Vec<std::thread::JoinHandle<()>>> }\n\
             impl P {\n\
                 pub fn shutdown(&self) {\n\
                     let handles = std::mem::take(&mut *self.workers.lock().unwrap());\n\
                     for h in handles {\n\
                         h.join().unwrap();\n\
                     }\n\
                 }\n\
             }\n");
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn double_acquire_in_one_scope_is_flagged() {
        let (_, findings) = run(
            "use std::sync::Mutex;\n\
             pub struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 pub fn f(&self) { let a = self.m.lock().unwrap(); let b = self.m.lock().unwrap(); drop(a); drop(b); }\n\
             }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lock-double-acquire");
    }

    #[test]
    fn drop_releases_the_guard() {
        let (graph, findings) = run(
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn f(&self) { let g = self.a.lock().unwrap(); drop(g); let _h = self.b.lock().unwrap(); }\n\
             }\n",
        );
        assert!(findings.is_empty());
        assert!(
            graph.edges.is_empty(),
            "unexpected edges: {:?}",
            graph.edges
        );
        assert_eq!(graph.nodes.len(), 2);
    }

    #[test]
    fn param_helper_resolves_to_argument_lock() {
        // shims/par idiom: a free `lock(&mutex)` poison-stripping helper.
        let (graph, findings) = run("use std::sync::{Mutex, MutexGuard};\n\
             fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                 m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
             }\n\
             pub struct P { q: Mutex<u32>, r: Mutex<u32> }\n\
             impl P {\n\
                 pub fn f(&self) { let g = lock(&self.q); let _h = lock(&self.r); drop(g); }\n\
             }\n");
        assert!(findings.is_empty(), "unexpected: {findings:?}");
        assert!(graph.has_edge("crates/t::P.q", "crates/t::P.r"));
    }

    #[test]
    fn callee_effects_add_edges_at_call_site() {
        let (graph, _) = run("use std::sync::Mutex;\n\
             pub struct S { flag: Mutex<bool>, data: Mutex<u32> }\n\
             impl S {\n\
                 fn is_on(&self) -> bool { *self.flag.lock().unwrap() }\n\
                 pub fn f(&self) {\n\
                     let g = self.data.lock().unwrap();\n\
                     if self.is_on() {\n\
                         let _ = &g;\n\
                     }\n\
                 }\n\
             }\n");
        assert!(graph.has_edge("crates/t::S.data", "crates/t::S.flag"));
    }

    #[test]
    fn condvar_wait_on_own_guard_is_clean() {
        let (_, findings) = run("use std::sync::{Condvar, Mutex};\n\
             pub struct S { m: Mutex<bool>, cv: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let mut g = self.m.lock().unwrap();\n\
                     while !*g {\n\
                         g = self.cv.wait(g).unwrap();\n\
                     }\n\
                 }\n\
             }\n");
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn condvar_wait_holding_another_lock_is_flagged() {
        let (_, findings) = run("use std::sync::{Condvar, Mutex};\n\
             pub struct S { m: Mutex<bool>, other: Mutex<u32>, cv: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let a = self.other.lock().unwrap();\n\
                     let g = self.m.lock().unwrap();\n\
                     let g = self.cv.wait(g).unwrap();\n\
                     drop(g);\n\
                     drop(a);\n\
                 }\n\
             }\n");
        assert!(findings
            .iter()
            .any(|f| f.rule == "lock-blocking-call" && f.message.contains("condvar")));
    }

    #[test]
    fn inline_allow_waives_a_lock_finding() {
        let (_, findings) = run(
            "use std::sync::Mutex;\n\
             pub struct S { m: Mutex<std::fs::File> }\n\
             impl S {\n\
                 pub fn f(&self) {\n\
                     let mut g = self.m.lock().unwrap();\n\
                     // analyzer: allow(lock-blocking-call): flush must happen under the commit lock\n\
                     g.write_all(b\"x\").unwrap();\n\
                 }\n\
             }\n",
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived);
    }

    #[test]
    fn while_condition_temporary_dies_at_body_open() {
        let (graph, findings) = run("use std::sync::Mutex;\n\
             pub struct S { m: Mutex<bool>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn f(&self) {\n\
                     while *self.m.lock().unwrap() {\n\
                         let _g = self.b.lock().unwrap();\n\
                     }\n\
                 }\n\
             }\n");
        assert!(findings.is_empty());
        assert!(
            graph.edges.is_empty(),
            "unexpected edges: {:?}",
            graph.edges
        );
    }

    #[test]
    fn if_let_scrutinee_lives_through_block_then_dies() {
        // Edition-2021 semantics: the scrutinee temporary is live inside
        // the `if let` block (edge expected) but dropped at its `}`.
        let (graph, _) = run("use std::sync::Mutex;\n\
             pub struct S { m: Mutex<Option<u32>>, b: Mutex<u32>, c: Mutex<u32> }\n\
             impl S {\n\
                 pub fn inside(&self) {\n\
                     if let Some(v) = self.m.lock().unwrap().take() {\n\
                         let _g = self.b.lock().unwrap();\n\
                         let _ = v;\n\
                     }\n\
                 }\n\
                 pub fn after(&self) {\n\
                     if let Some(v) = self.m.lock().unwrap().take() {\n\
                         let _ = v;\n\
                     }\n\
                     let _g = self.c.lock().unwrap();\n\
                 }\n\
             }\n");
        assert!(graph.has_edge("crates/t::S.m", "crates/t::S.b"));
        assert!(!graph.has_edge("crates/t::S.m", "crates/t::S.c"));
    }

    #[test]
    fn statics_and_rwlocks_are_inventoried() {
        let (graph, findings) = run(
            "use std::sync::{Mutex, RwLock};\n\
             static REG: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
             pub struct S { m: Mutex<u32>, s: RwLock<u32> }\n\
             impl S {\n\
                 pub fn f(&self) { let g = self.m.lock().unwrap(); REG.lock().unwrap().push(1); drop(g); }\n\
                 pub fn r(&self) { let g = self.s.read().unwrap(); let _h = self.m.lock().unwrap(); drop(g); }\n\
             }\n",
        );
        assert!(findings.is_empty(), "unexpected: {findings:?}");
        assert!(graph.has_edge("crates/t::S.m", "crates/t::REG"));
        assert!(graph.has_edge("crates/t::S.s", "crates/t::S.m"));
    }

    #[test]
    fn traced_mutex_uses_registered_name() {
        let (graph, _) = run(
            "use lotus_telemetry::sync::TracedMutex;\n\
             use std::sync::Mutex;\n\
             pub struct S { inner: TracedMutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn new() -> Self { Self { inner: TracedMutex::new(\"t.inner\", 0), b: Mutex::new(0) } }\n\
                 pub fn f(&self) { let g = self.inner.lock(); let _h = self.b.lock().unwrap(); drop(g); }\n\
             }\n",
        );
        assert!(graph.has_edge("t.inner", "crates/t::S.b"));
    }

    #[test]
    fn report_json_is_stable_and_structured() {
        let files = [sf(
            "crates/t/src/lib.rs",
            "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn f(&self) { let g = self.a.lock().unwrap(); let _h = self.b.lock().unwrap(); drop(g); }\n\
             }\n",
        )];
        let report = run_lock_suite(&files);
        assert!(report.controls_ok());
        let json = report.to_json();
        assert_eq!(json, run_lock_suite(&files).to_json(), "output not stable");
        for needle in [
            "\"schema_version\": 1",
            "\"mode\": \"locks\"",
            "\"acyclic\": true",
            "\"nodes\": [\"crates/t::S.a\", \"crates/t::S.b\"]",
            "\"controls\": [",
            "\"flagged\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}

//! Per-function fact extraction: the semantic layer under the
//! interprocedural rules.
//!
//! For every named function in the workspace this pass records the facts
//! the call-graph rules consume:
//!
//! * **calls** — free calls, `path::to::fn(…)` calls, and `.method(…)`
//!   calls (turbofish included), each with its source line, whether it is
//!   lexically inside a `catch_unwind(…)` argument (the fallback ladder's
//!   guard boundary), and — for lock-returning helpers — how long a
//!   returned guard stays live;
//! * **panic sites** — `.unwrap()`/`.expect()` and the panicking macros
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`; not the
//!   `assert!` family, because asserts encode programmer-error contracts,
//!   not input-driven availability hazards);
//! * **lock acquisitions** — `.lock(…)` calls keyed by the receiver's
//!   last path segment, with the token range the guard is held for
//!   (`let`-bound guards live to the end of the enclosing block,
//!   temporaries to the end of the statement);
//! * **heap allocations** — `Vec::new`/`with_capacity`, `vec!`,
//!   `Box::new`, `format!`, `.to_vec()`, `.to_string()`, `.clone()`,
//!   `.collect()` and friends;
//! * **blocking operations** — lock/condvar/channel waits,
//!   `thread::sleep`, thread joins, and file/socket I/O entry points.
//!
//! Functions inside `#[cfg(test)]`/`#[test]` regions, `macro_rules!`
//! bodies, vendored shims, and integration-test files contribute no
//! facts. Symbols are `crate::module::[Type::]name`, with the module path
//! derived from the file path and `impl`/`trait`/inline-`mod` nesting
//! tracked structurally.

use std::collections::{HashMap, HashSet};

use crate::lexer::TokKind;
use crate::parse::FileModel;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a bare call in scope.
    Free,
    /// `a::b::foo(…)` — an explicit path call.
    Path,
    /// `.foo(…)` — a method call on some receiver.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Free, path, or method.
    pub kind: CallKind,
    /// The callee's final name segment.
    pub name: String,
    /// Full path segments for [`CallKind::Path`] calls (ends with `name`).
    pub path: Vec<String>,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name (event ordering within the body).
    pub tok: usize,
    /// Lexically inside a `catch_unwind(…)` argument: the fallback ladder
    /// catches panics that escape this call.
    pub guarded: bool,
    /// Last ident of the first argument, when it is a plain path — used to
    /// name the lock acquired through a `lock(…)` helper.
    pub first_arg: Option<String>,
    /// Token one past where a value returned by this call stops being
    /// held: end of the enclosing block for `let`-bound results, end of
    /// the statement otherwise.
    pub hold_end: usize,
}

/// One potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The construct, e.g. `unwrap` or `panic`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// Lexically inside a `catch_unwind(…)` argument.
    pub guarded: bool,
}

/// One `.lock(…)` acquisition.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: the receiver's last path segment (`self.queue.lock()`
    /// → `queue`).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the `lock` ident (event ordering).
    pub tok: usize,
    /// Token one past where the guard is released (block end for
    /// `let`-bound guards, statement end for temporaries).
    pub hold_end: usize,
}

/// An allocation or blocking-operation site.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// The construct, e.g. `Vec::new`, `vec!`, `recv`, `thread::sleep`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// Everything recorded about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Fully-qualified symbol: `crate::module::[Type::]name`.
    pub symbol: String,
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Annotated `// analysis: hot` — a hot-path inner-loop function.
    pub hot: bool,
    /// Defined inside an `impl`/`trait` block (a method or assoc fn).
    pub is_method: bool,
    /// All call sites, in token order.
    pub calls: Vec<CallSite>,
    /// All panic sites.
    pub panics: Vec<PanicSite>,
    /// All lock acquisitions, in token order.
    pub locks: Vec<LockSite>,
    /// All allocation sites.
    pub allocs: Vec<EffectSite>,
    /// All blocking-operation sites.
    pub blocking: Vec<EffectSite>,
}

/// The extracted facts for a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceFacts {
    /// Every function, indexed by position.
    pub functions: Vec<FnFact>,
    /// Bare name → function indices (for name-match resolution).
    pub by_name: HashMap<String, Vec<usize>>,
    /// Type names seen as `impl`/`trait` subjects (for classifying
    /// `Type::method` paths as local-looking).
    pub local_types: HashMap<String, ()>,
    /// File → names bound as closures (`let f = |…| …`) in that file, so
    /// the resolver can classify calls to them as local control flow
    /// rather than unresolved free functions.
    pub closures: HashMap<String, HashSet<String>>,
}

impl WorkspaceFacts {
    /// Add one file's functions.
    pub fn add_file(&mut self, rel: &str, src: &str, model: &FileModel) {
        if !facts_in_scope(rel) {
            return;
        }
        extract_file(self, rel, src, model);
    }

    /// Function indices whose symbol ends with `suffix` at a segment
    /// boundary (`server::handle_connection` matches
    /// `dcdiff_serve::server::handle_connection`).
    pub fn by_suffix(&self, suffix: &str) -> Vec<usize> {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| symbol_ends_with(&f.symbol, suffix))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Does `symbol` end with `suffix` on a `::` boundary?
pub fn symbol_ends_with(symbol: &str, suffix: &str) -> bool {
    symbol == suffix
        || symbol
            .strip_suffix(suffix)
            .is_some_and(|rest| rest.ends_with("::"))
}

/// Files that contribute facts: workspace sources, excluding vendored
/// shims, integration tests, examples, and benches (no request path runs
/// through them).
fn facts_in_scope(rel: &str) -> bool {
    !(rel.starts_with("vendor/")
        || rel.starts_with("examples/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/"))
}

/// `crates/jpeg/src/kernels/idct.rs` → `dcdiff_jpeg::kernels::idct`.
fn module_path(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => (format!("dcdiff_{}", c.replace('-', "_")), rest),
        ["src", rest @ ..] => ("dcdiff".to_string(), rest),
        _ => (rel.replace(['/', '-'], "_"), &[]),
    };
    let mut path = krate;
    for (i, seg) in rest.iter().enumerate() {
        let is_last = i + 1 == rest.len();
        let seg = if is_last {
            seg.trim_end_matches(".rs")
        } else {
            seg
        };
        if is_last && (seg == "lib" || seg == "main" || seg == "mod") {
            continue;
        }
        path.push_str("::");
        path.push_str(seg);
    }
    path
}

/// Item-nesting context while scanning a file.
enum Ctx {
    /// `impl Type { … }` or `trait Name { … }` — methods get `Type::`.
    Typed(String),
    /// `mod name { … }` — names get `name::`.
    Mod(String),
    /// A function body (index into `out.functions`).
    Fn(usize),
    /// Any other block.
    Other,
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Method calls that allocate a fresh heap buffer.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "concat",
    "repeat",
];
/// `Type::fn` paths that allocate.
const ALLOC_PATHS: &[[&str; 2]] = &[
    ["Vec", "new"],
    ["Vec", "with_capacity"],
    ["Vec", "from"],
    ["String", "new"],
    ["String", "with_capacity"],
    ["String", "from"],
    ["Box", "new"],
    ["HashMap", "new"],
    ["BTreeMap", "new"],
    ["VecDeque", "new"],
];
/// Method calls that can block the calling thread.
const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout", "wait", "wait_timeout", "wait_while"];
/// Path calls that block (I/O entry points and sleeps).
const BLOCKING_PATHS: &[[&str; 2]] = &[
    ["thread", "sleep"],
    ["File", "open"],
    ["File", "create"],
    ["fs", "read"],
    ["fs", "write"],
    ["fs", "read_to_string"],
    ["TcpStream", "connect"],
];

/// Keywords that look like calls when followed by `(`.
fn call_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "let"
            | "else"
            | "unsafe"
            | "impl"
            | "dyn"
            | "where"
            | "mut"
            | "ref"
            | "break"
            | "continue"
    )
}

#[allow(clippy::too_many_lines)]
fn extract_file(out: &mut WorkspaceFacts, rel: &str, src: &str, model: &FileModel) {
    let toks = &model.lexed.tokens;
    let text = |i: usize| -> &str { &src[toks[i].start..toks[i].end] };
    let module = module_path(rel);

    // Hot annotations: comment lines whose body is `analysis: hot`. Each
    // annotation marks exactly one function — the first `fn` on the same
    // line or within two lines below — so the list is consumed as matched.
    let mut hot_lines: Vec<u32> = model
        .lexed
        .comments
        .iter()
        .filter(|c| {
            c.text
                .trim_start_matches(['/', '!', '*'])
                .trim()
                .starts_with("analysis: hot")
        })
        .map(|c| c.line_end)
        .collect();

    // Closure bindings: `let [mut] name = [move] |…|`. Calls to these
    // names are local control flow, not free functions — record them so
    // the resolver can tell the difference.
    for k in 0..toks.len() {
        if text(k) != "let" {
            continue;
        }
        let mut j = k + 1;
        if j < toks.len() && text(j) == "mut" {
            j += 1;
        }
        if j + 1 >= toks.len() || toks[j].kind != TokKind::Ident || text(j + 1) != "=" {
            continue;
        }
        let mut v = j + 2;
        if v < toks.len() && text(v) == "move" {
            v += 1;
        }
        if v < toks.len() && (text(v) == "|" || text(v) == "||") {
            out.closures
                .entry(rel.to_string())
                .or_default()
                .insert(text(j).to_string());
        }
    }

    // Pre-compute `catch_unwind(…)` argument token ranges.
    let mut guarded_ranges: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && text(i) == "catch_unwind"
            && toks.get(i + 1).is_some_and(|_| text(i + 1) == "(")
        {
            let close = match_forward(toks.len(), i + 1, |k| text(k), "(", ")");
            guarded_ranges.push((i + 1, close));
        }
    }
    let guarded = |i: usize| guarded_ranges.iter().any(|&(a, b)| a < i && i < b);

    // Single pass with a context stack mirroring brace nesting.
    let mut stack: Vec<Ctx> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let word = text(i);
            match word {
                // `macro_rules! name { … }` — token soup, skip the body.
                "macro_rules" if next_is(toks, src, i + 1, "!") => {
                    let mut j = i + 2;
                    while j < toks.len() && text(j) != "{" {
                        j += 1;
                    }
                    i = match_forward(toks.len(), j, |k| text(k), "{", "}") + 1;
                    continue;
                }
                "impl" | "trait" => {
                    // Subject type: last ident before the body `{` (after
                    // `for` when present), skipping generics and bounds.
                    let (name, body_open) = impl_subject(toks.len(), i, |k| text(k));
                    if let Some(open) = body_open {
                        if let Some(n) = &name {
                            out.local_types.insert(n.clone(), ());
                        }
                        // Push contexts for every unconsumed `{` between
                        // here and the body so the stack stays aligned.
                        stack.push(Ctx::Typed(name.unwrap_or_default()));
                        i = open + 1;
                        continue;
                    }
                }
                "mod" if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) => {
                    if next_is(toks, src, i + 2, "{") {
                        stack.push(Ctx::Mod(text(i + 1).to_string()));
                        i += 3;
                        continue;
                    }
                }
                "fn" => {
                    if let Some((fn_idx, body_open)) =
                        start_fn(out, rel, src, model, &module, &stack, &mut hot_lines, i)
                    {
                        stack.push(Ctx::Fn(fn_idx));
                        i = body_open + 1;
                        continue;
                    }
                    // Signature-only (trait method decl, fn-pointer type):
                    // fall through token by token.
                }
                _ => {
                    if let Some(Ctx::Fn(fn_idx)) = stack.iter().rev().find_map(|c| match c {
                        Ctx::Fn(k) => Some(Ctx::Fn(*k)),
                        _ => None,
                    }) {
                        record_facts(out, src, model, fn_idx, i, guarded(i));
                    }
                }
            }
        } else if t.kind == TokKind::Punct {
            match text(i) {
                "{" => stack.push(Ctx::Other),
                "}" => {
                    stack.pop();
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// Is token `i` exactly `what`?
fn next_is(toks: &[crate::lexer::Tok], src: &str, i: usize, what: &str) -> bool {
    toks.get(i).is_some_and(|t| &src[t.start..t.end] == what)
}

/// Forward-match a delimiter pair starting at token `open_at` (which must
/// be `open`); returns the index of the matching `close`, or `len`.
fn match_forward<'a>(
    len: usize,
    open_at: usize,
    text: impl Fn(usize) -> &'a str,
    open: &str,
    close: &str,
) -> usize {
    let mut depth = 0i32;
    let mut j = open_at;
    while j < len {
        let t = text(j);
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    len
}

/// Parse the subject of an `impl`/`trait` item starting at token `i`.
/// Returns the subject type name and the body-`{` token index (None for
/// `impl Trait for Type;`-style or unparseable forms).
fn impl_subject<'a>(
    len: usize,
    i: usize,
    text: impl Fn(usize) -> &'a str,
) -> (Option<String>, Option<usize>) {
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut seen_for = false;
    let mut j = i + 1;
    let mut angle = 0i32;
    while j < len {
        let t = text(j);
        match t {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => {
                let name = if seen_for { after_for } else { last_ident };
                return (name, Some(j));
            }
            ";" if angle <= 0 => return (None, None),
            "for" if angle <= 0 => seen_for = true,
            "where" if angle <= 0 => {
                // bounds follow; the subject is already decided
            }
            _ => {
                if angle <= 0 && t.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    if seen_for {
                        if after_for.is_none() || text(j.saturating_sub(1)) == ":" {
                            after_for = Some(t.to_string());
                        }
                    } else if !matches!(t, "const" | "unsafe" | "dyn" | "mut") {
                        last_ident = Some(t.to_string());
                    }
                }
            }
        }
        j += 1;
    }
    (None, None)
}

/// Begin a function at the `fn` keyword token `i`: register the [`FnFact`]
/// and return its index plus the body-open token, or None for body-less
/// signatures.
#[allow(clippy::too_many_arguments)]
fn start_fn(
    out: &mut WorkspaceFacts,
    rel: &str,
    src: &str,
    model: &FileModel,
    module: &str,
    stack: &[Ctx],
    hot_lines: &mut Vec<u32>,
    i: usize,
) -> Option<(usize, usize)> {
    let toks = &model.lexed.tokens;
    let text = |k: usize| -> &str { &src[toks[k].start..toks[k].end] };
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(` pointer type
    }
    let name = text(i + 1).to_string();
    // Find the body `{`: scan forward past the signature. A `;` first
    // means a body-less declaration. Angle depth guards `where F: Fn() ->
    // Vec<u8>` returns; brace-in-signature only occurs inside type
    // position we do not need (const generics braces are rare and fail
    // soft: we treat them as the body open and recover at its close).
    let mut j = i + 2;
    let mut depth = 0i32;
    while j < toks.len() {
        match text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return None,
            "{" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    if model.is_excluded(toks[i].line) {
        // Test code: align the stack by pushing a throwaway fn context so
        // nesting stays correct, but record no facts. Achieved by
        // returning an index pointing at a sentinel "test" function that
        // is dropped at the end? Simpler: register and mark via name.
        // We instead skip registration and let the caller fall through —
        // but then the `{` would push Ctx::Other, which is fine.
        return None;
    }
    let typed = stack.iter().rev().find_map(|c| match c {
        Ctx::Typed(t) if !t.is_empty() => Some(t.clone()),
        _ => None,
    });
    let mods: Vec<&str> = stack
        .iter()
        .filter_map(|c| match c {
            Ctx::Mod(m) => Some(m.as_str()),
            _ => None,
        })
        .collect();
    let mut symbol = module.to_string();
    for m in &mods {
        symbol.push_str("::");
        symbol.push_str(m);
    }
    if let Some(t) = &typed {
        symbol.push_str("::");
        symbol.push_str(t);
    }
    symbol.push_str("::");
    symbol.push_str(&name);
    let line = toks[i].line;
    let hot = match hot_lines
        .iter()
        .position(|&h| h == line || (h < line && line - h <= 2))
    {
        Some(pos) => {
            hot_lines.remove(pos);
            true
        }
        None => false,
    };
    let idx = out.functions.len();
    out.functions.push(FnFact {
        symbol,
        name: name.clone(),
        file: rel.to_string(),
        line,
        hot,
        is_method: typed.is_some(),
        calls: Vec::new(),
        panics: Vec::new(),
        locks: Vec::new(),
        allocs: Vec::new(),
        blocking: Vec::new(),
    });
    out.by_name.entry(name).or_default().push(idx);
    Some((idx, j))
}

/// Record any facts rooted at ident token `i` into function `fn_idx`.
#[allow(clippy::too_many_lines)]
fn record_facts(
    out: &mut WorkspaceFacts,
    src: &str,
    model: &FileModel,
    fn_idx: usize,
    i: usize,
    guarded: bool,
) {
    let toks = &model.lexed.tokens;
    let text = |k: usize| -> &str { &src[toks[k].start..toks[k].end] };
    let word = text(i);
    let line = toks[i].line;
    let prev = i.checked_sub(1).map(text);
    let prev2 = i.checked_sub(2).map(text);

    // Macro facts: `name!(…)` / `name!{…}` / `name![…]`.
    if next_is(toks, src, i + 1, "!") && prev != Some(".") {
        if PANIC_MACROS.contains(&word) {
            out.functions[fn_idx].panics.push(PanicSite {
                what: word.to_string(),
                line,
                guarded,
            });
        } else if ALLOC_MACROS.contains(&word) {
            out.functions[fn_idx].allocs.push(EffectSite {
                what: format!("{word}!"),
                line,
            });
        }
        return;
    }

    // Call facts: ident followed by `(`, or turbofish `ident::<…>(`.
    let after = call_paren(toks.len(), i, &text);
    let Some(open) = after else { return };

    let is_method = prev == Some(".");
    let is_path_seg = prev == Some(":") && prev2 == Some(":");

    if is_method {
        // Panic facts.
        if word == "unwrap" || word == "expect" {
            out.functions[fn_idx].panics.push(PanicSite {
                what: word.to_string(),
                line,
                guarded,
            });
            return;
        }
        // Allocation facts.
        if ALLOC_METHODS.contains(&word) {
            out.functions[fn_idx].allocs.push(EffectSite {
                what: format!(".{word}()"),
                line,
            });
            return;
        }
        // `.join()` with no argument is a thread join (blocking); with an
        // argument it is slice join (allocation).
        if word == "join" {
            if next_is(toks, src, open + 1, ")") {
                out.functions[fn_idx]
                    .blocking
                    .push(EffectSite { what: ".join()".to_string(), line });
            } else {
                out.functions[fn_idx]
                    .allocs
                    .push(EffectSite { what: ".join(sep)".to_string(), line });
            }
            return;
        }
        // Lock and blocking facts (a lock is also blocking).
        if word == "lock" {
            let name = receiver_name(toks.len(), i, &text).unwrap_or_else(|| "<expr>".to_string());
            let hold_end = hold_end(model, src, i, open);
            out.functions[fn_idx].locks.push(LockSite {
                name,
                line,
                tok: i,
                hold_end,
            });
            out.functions[fn_idx]
                .blocking
                .push(EffectSite { what: ".lock()".to_string(), line });
            return;
        }
        if BLOCKING_METHODS.contains(&word) {
            out.functions[fn_idx]
                .blocking
                .push(EffectSite { what: format!(".{word}()"), line });
            // fall through: also a resolvable call (e.g. our own recv impl)
        }
        let call = CallSite {
            kind: CallKind::Method,
            name: word.to_string(),
            path: Vec::new(),
            line,
            tok: i,
            guarded,
            first_arg: first_arg_name(toks.len(), open, &text),
            hold_end: hold_end(model, src, i, open),
        };
        out.functions[fn_idx].calls.push(call);
        return;
    }

    if is_path_seg || next_is(toks, src, i + 1, "(") || turbofish_call(toks.len(), i, &text) {
        // Reconstruct the full path by walking back over `seg::`.
        let mut segs: Vec<String> = vec![word.to_string()];
        let mut k = i;
        while k >= 2 && text(k - 1) == ":" && text(k - 2) == ":" {
            if k >= 3 && toks[k - 3].kind == TokKind::Ident {
                segs.push(text(k - 3).to_string());
                k -= 3;
            } else if k >= 3 && text(k - 3) == ">" {
                // `Vec::<u8>::new` style — skip the generic args.
                let mut depth = 0i32;
                let mut m = k - 3;
                loop {
                    match text(m) {
                        ">" => depth += 1,
                        "<" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                if m >= 1 && toks[m - 1].kind == TokKind::Ident {
                    segs.push(text(m - 1).to_string());
                    k = m - 1;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        segs.reverse();
        if call_keyword(word) || (segs.len() == 1 && prev == Some("fn")) {
            return;
        }
        let kind = if segs.len() > 1 { CallKind::Path } else { CallKind::Free };
        // Allocation / blocking classification on the last two segments.
        if segs.len() >= 2 {
            let pair = [segs[segs.len() - 2].as_str(), segs[segs.len() - 1].as_str()];
            if ALLOC_PATHS.iter().any(|p| p[0] == pair[0] && p[1] == pair[1]) {
                out.functions[fn_idx].allocs.push(EffectSite {
                    what: segs.join("::"),
                    line,
                });
                return;
            }
            if BLOCKING_PATHS.iter().any(|p| p[0] == pair[0] && p[1] == pair[1]) {
                out.functions[fn_idx].blocking.push(EffectSite {
                    what: segs.join("::"),
                    line,
                });
                return;
            }
        }
        out.functions[fn_idx].calls.push(CallSite {
            kind,
            name: word.to_string(),
            path: segs,
            line,
            tok: i,
            guarded,
            first_arg: first_arg_name(toks.len(), open, &text),
            hold_end: hold_end(model, src, i, open),
        });
    }
}

/// The `(` token index of a call whose callee name sits at `i` — handles
/// the plain `name(` and turbofish `name::<…>(` forms. None when `i` is
/// not a call.
fn call_paren<'a>(len: usize, i: usize, text: &impl Fn(usize) -> &'a str) -> Option<usize> {
    if i + 1 < len && text(i + 1) == "(" {
        return Some(i + 1);
    }
    // turbofish: `::` `<` … `>` `(`
    if i + 3 < len && text(i + 1) == ":" && text(i + 2) == ":" && text(i + 3) == "<" {
        let close = match_forward(len, i + 3, text, "<", ">");
        if close + 1 < len && text(close + 1) == "(" {
            return Some(close + 1);
        }
    }
    None
}

/// Is `name::<…>(…)` rooted at `i`? (Path-call detection helper.)
fn turbofish_call<'a>(len: usize, i: usize, text: &impl Fn(usize) -> &'a str) -> bool {
    call_paren(len, i, text).is_some()
}

/// For a method call at ident `i` (receiver `.` before it): the last plain
/// ident of the receiver chain (`self.state.inner` → `inner`).
fn receiver_name<'a>(_len: usize, i: usize, text: &impl Fn(usize) -> &'a str) -> Option<String> {
    // toks[i-1] is `.`; toks[i-2] is the receiver tail.
    if i < 2 {
        return None;
    }
    let mut k = i - 2;
    // Skip over a `()` call tail: `guard().lock()` — use the called name.
    loop {
        let t = text(k);
        if t == ")" {
            // walk back to the matching `(` then take the ident before it
            let mut depth = 0i32;
            loop {
                match text(k) {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
            continue;
        }
        let first = t.chars().next()?;
        if first.is_alphanumeric() || first == '_' {
            return Some(t.to_string());
        }
        return None;
    }
}

/// Last ident of the first argument when it is a plain path (`lock(results)`
/// → `results`, `lock(self.state)` → `state`).
fn first_arg_name<'a>(len: usize, open: usize, text: &impl Fn(usize) -> &'a str) -> Option<String> {
    let mut last: Option<String> = None;
    let mut j = open + 1;
    while j < len {
        let t = text(j);
        match t {
            ")" | "," => return last,
            "." => {}
            "&" | "*" => {}
            _ => {
                let first = t.chars().next()?;
                if first.is_alphabetic() || first == '_' {
                    last = Some(t.to_string());
                } else {
                    return None; // literal or complex expression
                }
            }
        }
        j += 1;
    }
    None
}

/// Token one past where a value produced at call/lock token `i` stops
/// being held: the enclosing block's close for `let`-bound results, the
/// end of the current statement otherwise.
fn hold_end(model: &FileModel, src: &str, i: usize, open: usize) -> usize {
    let toks = &model.lexed.tokens;
    let text = |k: usize| -> &str { &src[toks[k].start..toks[k].end] };
    // Is this part of a `let` statement? Scan back to the statement start.
    let mut k = i;
    let mut let_bound = false;
    while k > 0 {
        k -= 1;
        match text(k) {
            ";" | "{" | "}" => break,
            "let" => {
                let_bound = true;
                break;
            }
            _ => {}
        }
    }
    if let_bound {
        return model
            .enclosing_blocks(i)
            .last()
            .map_or(toks.len(), |b| b.close);
    }
    // Statement end: the next `;` at the current nesting depth.
    let close = match_forward(toks.len(), open, text, "(", ")");
    let mut depth = 0i32;
    let mut j = close + 1;
    while j < toks.len() {
        match text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" if depth == 0 => return j,
            "}" => depth -= 1,
            ";" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> WorkspaceFacts {
        let mut ws = WorkspaceFacts::default();
        let model = FileModel::build(src);
        ws.add_file("crates/demo/src/lib.rs", src, &model);
        ws
    }

    fn find<'a>(ws: &'a WorkspaceFacts, name: &str) -> &'a FnFact {
        let idx = ws.by_name[name][0];
        &ws.functions[idx]
    }

    #[test]
    fn free_path_and_method_calls_are_recorded() {
        let ws = facts(
            "fn f() { g(); helper::run(1); x.step(); }\nfn g() {}\n",
        );
        let f = find(&ws, "f");
        let kinds: Vec<_> = f.calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (CallKind::Free, "g"),
                (CallKind::Path, "run"),
                (CallKind::Method, "step"),
            ]
        );
        assert_eq!(f.calls[1].path, vec!["helper", "run"]);
    }

    #[test]
    fn symbols_carry_module_impl_and_mod_nesting() {
        let src = "impl Widget {\n    fn poke(&self) {}\n}\nmod inner {\n    fn deep() {}\n}\ntrait Runs {\n    fn go(&self) { self.poke(); }\n}\nimpl Runs for Widget {\n    fn run(&self) {}\n}\n";
        let ws = facts(src);
        assert_eq!(find(&ws, "poke").symbol, "dcdiff_demo::Widget::poke");
        assert_eq!(find(&ws, "deep").symbol, "dcdiff_demo::inner::deep");
        assert_eq!(find(&ws, "go").symbol, "dcdiff_demo::Runs::go");
        assert_eq!(find(&ws, "run").symbol, "dcdiff_demo::Widget::run");
        assert!(ws.local_types.contains_key("Widget"));
    }

    #[test]
    fn panic_lock_alloc_blocking_facts() {
        let src = "fn f(m: &std::sync::Mutex<u8>, x: Option<u8>) {\n    let g = m.lock();\n    let v = x.unwrap();\n    if v > 3 { panic!(\"no\") }\n    let b = Vec::new();\n    let s = vec![1, 2];\n    std::thread::sleep(d);\n    let got = rx.recv();\n}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].name, "m");
        let panics: Vec<_> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(panics, vec!["unwrap", "panic"]);
        let allocs: Vec<_> = f.allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(allocs, vec!["Vec::new", "vec!"]);
        let blocking: Vec<_> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(blocking, vec![".lock()", "std::thread::sleep", ".recv()"]);
    }

    #[test]
    fn catch_unwind_argument_is_guarded() {
        let src = "fn f() {\n    let r = catch_unwind(AssertUnwindSafe(|| inner()));\n    outer();\n}\nfn inner() {}\nfn outer() {}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        let inner = f.calls.iter().find(|c| c.name == "inner").unwrap();
        let outer = f.calls.iter().find(|c| c.name == "outer").unwrap();
        assert!(inner.guarded);
        assert!(!outer.guarded);
    }

    #[test]
    fn hot_annotation_marks_the_function() {
        let src = "// analysis: hot\nfn kernel() {}\nfn cold() {}\n";
        let ws = facts(src);
        assert!(find(&ws, "kernel").hot);
        assert!(!find(&ws, "cold").hot);
    }

    #[test]
    fn test_code_and_macro_rules_contribute_no_facts() {
        let src = "macro_rules! boom {\n    () => { panic!(\"in macro\") };\n}\nfn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        let ws = facts(src);
        assert!(ws.by_name.contains_key("real"));
        assert!(!ws.by_name.contains_key("helper"));
        assert!(ws.functions.iter().all(|f| f.panics.is_empty()));
    }

    #[test]
    fn turbofish_and_nested_generics_parse_as_calls() {
        let src = "fn f() -> Vec<Vec<u8>> {\n    let v = parse::<Vec<Vec<u8>>>(x);\n    let c = items.iter().map(step).collect::<Vec<_>>();\n    v\n}\nfn parse(x: u8) {}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        assert!(f.calls.iter().any(|c| c.name == "parse"));
        // collect is an allocation, not a call
        assert!(f.allocs.iter().any(|a| a.what == ".collect()"));
    }

    #[test]
    fn method_chain_split_across_lines_keeps_lines_straight() {
        let src = "fn f(q: &Q) {\n    q.items()\n        .filter(keep)\n        .step();\n}\nfn keep() {}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        let step = f.calls.iter().find(|c| c.name == "step").unwrap();
        assert_eq!(step.line, 4);
    }

    #[test]
    fn macro_rules_with_nested_brace_arms_skips_to_the_next_item() {
        // Arms whose bodies open extra braces (`=> {{ … }}`) must not
        // desynchronise the skip: the item after the macro still gets its
        // own facts, and no arm becomes a phantom function.
        let src = "macro_rules! emit {\n    ($n:ident) => {{\n        panic!(\"arm one\")\n    }};\n    ($n:ident, $m:ident) => {\n        { let v = Vec::new(); v.pop().unwrap() }\n    };\n}\nfn after(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let ws = facts(src);
        assert_eq!(ws.functions.len(), 1, "{:?}", ws.functions);
        let after = find(&ws, "after");
        assert_eq!(after.panics.len(), 1);
        assert_eq!(after.panics[0].line, 9);
    }

    #[test]
    fn shift_operators_do_not_derail_turbofish_parsing() {
        let src = "fn f(a: u32) -> Vec<Vec<u8>> {\n    let x = (a >> 2) << 1;\n    let v = decode::<Vec<Vec<u8>>>(x >> 3);\n    v\n}\nfn decode(x: u32) {}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        assert!(f.calls.iter().any(|c| c.name == "decode"), "{:?}", f.calls);
        assert_eq!(ws.functions.len(), 2);
    }

    #[test]
    fn multi_line_chain_with_turbofish_and_trailing_comments() {
        let src = "fn f(items: &[u8]) {\n    let out = items\n        .iter() // per element\n        .map(convert)\n        .collect::<Vec<Vec<u8>>>();\n}\nfn convert(x: &u8) -> Vec<u8> { Vec::new() }\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        let collect = f.allocs.iter().find(|a| a.what == ".collect()").unwrap();
        assert_eq!(collect.line, 5);
        let convert = find(&ws, "convert");
        assert!(convert.allocs.iter().any(|a| a.what == "Vec::new"));
    }

    #[test]
    fn lock_hold_ranges_let_vs_temporary() {
        let src = "fn f(a: &M, b: &M) {\n    let g = a.lock();\n    work();\n    let n = *b.lock();\n}\nfn work() {}\n";
        let ws = facts(src);
        let f = find(&ws, "f");
        assert_eq!(f.locks.len(), 2);
        // `let g =` guard lives to the block close; both are let-bound here
        // so both extend to block end — the temporary case needs a
        // non-let statement:
        let src2 = "fn h(a: &M) {\n    *a.lock() += 1;\n    work();\n}\nfn work() {}\n";
        let ws2 = facts(src2);
        let h = find(&ws2, "h");
        let work = h.calls.iter().find(|c| c.name == "work").unwrap();
        assert!(
            h.locks[0].hold_end < work.tok,
            "temporary guard must be released before the next statement"
        );
    }

    #[test]
    fn suffix_matching_respects_segment_boundaries() {
        assert!(symbol_ends_with("a::b::handle", "handle"));
        assert!(symbol_ends_with("a::b::handle", "b::handle"));
        assert!(!symbol_ends_with("a::b::mishandle", "handle"));
    }

    #[test]
    fn vendored_and_test_files_are_out_of_scope() {
        let mut ws = WorkspaceFacts::default();
        let src = "fn v() {}\n";
        let model = FileModel::build(src);
        ws.add_file("vendor/rand/src/lib.rs", src, &model);
        ws.add_file("crates/serve/tests/protocol.rs", src, &model);
        ws.add_file("tests/lint_clean.rs", src, &model);
        assert!(ws.functions.is_empty());
    }
}

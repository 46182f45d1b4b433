//! Structural model of one source file, built on the token stream.
//!
//! The ledger does not need a real AST — it needs three structural facts
//! the raw token stream cannot answer directly:
//!
//! 1. **Which lines are test code.** `#[cfg(test)]` modules and `#[test]`
//!    functions are excluded: their unsafe code is not ledgered.
//! 2. **Where the unsafe sites are.** Every `unsafe` block, `unsafe fn`
//!    definition, and `unsafe impl`, with the exact source text captured so
//!    it can be hashed into the ledger. The `unsafe fn(…)` *type* (a
//!    function-pointer field) is not a site.
//! 3. **The block structure.** Each `{…}` with its introducer keyword
//!    (`fn`, `unsafe`, or anything else), which bounds test regions and
//!    each site's extent.

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// What introduced a brace-delimited block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Introducer {
    /// `fn name(…) {`
    Fn,
    /// `unsafe {`
    Unsafe,
    /// Anything else: loops, `if`, `match` arms, struct literals, plain
    /// blocks…
    Other,
}

/// One brace-matched block: token indices of `{` and `}` plus introducer.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// What kind of construct opened this block.
    pub introducer: Introducer,
    /// Token index of the `{`.
    pub open: usize,
    /// Token index of the matching `}` (or one past the last token if the
    /// file is truncated).
    pub close: usize,
}

/// Kind of unsafe site for the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` expression block.
    Block,
    /// `unsafe fn name(…) { … }` definition.
    Fn,
    /// `unsafe impl Trait for Type { … }`.
    Impl,
}

impl UnsafeKind {
    /// Short label used in the ledger table.
    pub fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
        }
    }
}

/// One audited unsafe site.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Block, fn, or impl.
    pub kind: UnsafeKind,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// 1-based line of the closing brace (== `line` for one-liners).
    pub line_end: u32,
    /// FNV-1a 64-bit hash of the whitespace-normalised site text; the
    /// ledger keys on `(file, hash)` so entries survive line drift.
    pub hash: u64,
    /// First-line excerpt for diagnostics and ledger summaries.
    pub excerpt: String,
}

/// Parsed structural model of a file.
pub struct FileModel {
    /// Token stream.
    pub lexed: Lexed,
    /// Line ranges (inclusive, 1-based) belonging to `#[cfg(test)]` /
    /// `#[test]` items — exempt from contract rules.
    pub excluded: Vec<(u32, u32)>,
    /// All unsafe sites outside excluded regions.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Brace-matched blocks in open order.
    pub blocks: Vec<Block>,
}

impl FileModel {
    /// Build the model for one file's source text.
    pub fn build(src: &str) -> FileModel {
        let lexed = lex(src);
        let blocks = match_blocks(&lexed, src);
        let excluded = test_regions(&lexed, src, &blocks);
        let unsafe_sites = unsafe_sites(&lexed, src, &blocks, &excluded);
        FileModel {
            lexed,
            excluded,
            unsafe_sites,
            blocks,
        }
    }

    /// Is 1-based `line` inside test code?
    pub fn is_excluded(&self, line: u32) -> bool {
        self.excluded.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// FNV-1a 64-bit over the bytes of `text` with ASCII whitespace removed,
/// so reformatting does not change a site's identity.
pub fn fnv1a_normalised(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        if b.is_ascii_whitespace() {
            continue;
        }
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Match `{`/`}` pairs and classify each block's introducer.
fn match_blocks(lexed: &Lexed, src: &str) -> Vec<Block> {
    let toks = &lexed.tokens;
    let mut blocks = Vec::new();
    let mut stack: Vec<usize> = Vec::new(); // indices into `blocks`
    // The pending introducer keyword seen since the last statement
    // boundary at paren-depth 0.
    let mut pending = Introducer::Other;
    let mut paren_depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        let text = &src[t.start..t.end];
        match (t.kind, text) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => paren_depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => paren_depth -= 1,
            (TokKind::Ident, "fn") if paren_depth == 0 => pending = Introducer::Fn,
            (TokKind::Ident, "unsafe") if paren_depth == 0 => {
                // `unsafe fn` resolves to Fn when `fn` follows; keep Unsafe
                // only until overwritten.
                pending = Introducer::Unsafe;
            }
            (TokKind::Punct, ";") if paren_depth == 0 => pending = Introducer::Other,
            (TokKind::Punct, "{") => {
                blocks.push(Block {
                    introducer: pending,
                    open: i,
                    close: toks.len(),
                });
                stack.push(blocks.len() - 1);
                pending = Introducer::Other;
            }
            (TokKind::Punct, "}") => {
                if let Some(idx) = stack.pop() {
                    blocks[idx].close = i;
                }
                pending = Introducer::Other;
            }
            _ => {}
        }
    }
    blocks
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// Algorithm: on seeing one of those attributes, remember it as pending;
/// the next `{` at the item level starts the excluded region, which runs
/// to the matching `}`. A `;` before any `{` (e.g. an attributed `use`)
/// cancels the pending state.
fn test_regions(lexed: &Lexed, src: &str, blocks: &[Block]) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while i < toks.len() {
        let text = &src[toks[i].start..toks[i].end];
        if toks[i].kind == TokKind::Punct && text == "#" && matches_attr(toks, src, i) {
            pending = true;
            i = skip_attr(toks, src, i);
            continue;
        }
        if pending {
            match (toks[i].kind, text) {
                (TokKind::Punct, ";") => pending = false,
                (TokKind::Punct, "{") => {
                    pending = false;
                    if let Some(block) = blocks.iter().find(|b| b.open == i) {
                        let start = toks[i].line;
                        let end = toks
                            .get(block.close)
                            .map_or(u32::MAX, |t| t.line);
                        regions.push((start, end));
                        // Jump past the region so nested attrs inside test
                        // modules don't re-trigger.
                        i = block.close;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    regions
}

/// Does the attribute starting at token `i` (a `#`) contain `test`?
/// Matches `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[tokio::test]`-style.
fn matches_attr(toks: &[Tok], src: &str, i: usize) -> bool {
    if src.get(toks[i].start..toks[i].end) != Some("#") {
        return false;
    }
    let Some(open) = toks.get(i + 1) else { return false };
    if &src[open.start..open.end] != "[" {
        return false;
    }
    let end = attr_end(toks, src, i);
    toks[i + 2..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && &src[t.start..t.end] == "test")
}

/// Token index one past the attribute's closing `]`.
fn attr_end(toks: &[Tok], src: &str, i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i + 1) {
        match &src[t.start..t.end] {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

fn skip_attr(toks: &[Tok], src: &str, i: usize) -> usize {
    attr_end(toks, src, i)
}

/// Extract unsafe sites outside test regions.
fn unsafe_sites(
    lexed: &Lexed,
    src: &str,
    blocks: &[Block],
    excluded: &[(u32, u32)],
) -> Vec<UnsafeSite> {
    let toks = &lexed.tokens;
    let in_test = |line: u32| excluded.iter().any(|&(a, b)| a <= line && line <= b);
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || &src[t.start..t.end] != "unsafe" || in_test(t.line) {
            continue;
        }
        let next = toks.get(i + 1).map(|n| &src[n.start..n.end]);
        let kind = match next {
            Some("{") => UnsafeKind::Block,
            Some("fn") => {
                // `unsafe fn(` with no name is a function-pointer *type*,
                // not a definition — there is nothing to audit.
                match toks.get(i + 2).map(|n| &src[n.start..n.end]) {
                    Some("(") => continue,
                    _ => UnsafeKind::Fn,
                }
            }
            Some("impl") => UnsafeKind::Impl,
            // `unsafe extern "C" {…}` would land here; treat as a block.
            Some("extern") => UnsafeKind::Block,
            _ => continue,
        };
        // The site's extent: from `unsafe` to the close of the first block
        // opened at or after it (for `unsafe impl Send for T {}` that is
        // the empty body; for a no-body trait decl fall back to the line).
        let (end_tok, line_end) = blocks
            .iter()
            .find(|b| b.open > i && enclosing_ok(blocks, b.open, i))
            .and_then(|b| toks.get(b.close).map(|c| (b.close, c.line)))
            .unwrap_or((i + 1, t.line));
        let end_byte = toks.get(end_tok).map_or(src.len(), |e| e.end);
        let text = &src[t.start..end_byte];
        let excerpt: String = text.lines().next().unwrap_or("").trim().to_string();
        sites.push(UnsafeSite {
            kind,
            line: t.line,
            line_end,
            hash: fnv1a_normalised(text),
            excerpt,
        });
    }
    sites
}

/// Is the block opening at token `open` the first block belonging to the
/// construct that starts at token `site`? True when no `}` that closes a
/// block *containing* `site` sits between them (i.e. we have not left the
/// enclosing scope before finding a body).
fn enclosing_ok(blocks: &[Block], open: usize, site: usize) -> bool {
    !blocks
        .iter()
        .any(|b| b.open < site && site < b.close && b.close < open)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn also_real() {}\n";
        let m = FileModel::build(src);
        assert!(!m.is_excluded(1));
        assert!(m.is_excluded(4));
        assert!(!m.is_excluded(6));
    }

    #[test]
    fn test_attr_fn_is_excluded_but_attributed_use_is_not() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() {}\n#[test]\nfn t() {\n    assert!(true);\n}\n";
        let m = FileModel::build(src);
        assert!(!m.is_excluded(3), "the `use` must cancel the pending attr");
        assert!(m.is_excluded(6));
    }

    #[test]
    fn unsafe_block_and_fn_are_sites_but_fn_pointer_type_is_not() {
        let src = "struct K { f: unsafe fn(x: i32) }\nunsafe fn danger() { work(); }\nfn g() { let v = unsafe { *p }; }\nunsafe impl Send for K {}\n";
        let m = FileModel::build(src);
        let kinds: Vec<_> = m.unsafe_sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![UnsafeKind::Fn, UnsafeKind::Block, UnsafeKind::Impl],
            "{:?}",
            m.unsafe_sites
        );
    }

    #[test]
    fn unsafe_in_test_module_is_not_audited() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { poke() } }\n}\n";
        let m = FileModel::build(src);
        assert!(m.unsafe_sites.is_empty());
    }

    #[test]
    fn site_hash_ignores_reformatting_but_not_content() {
        let a = FileModel::build("fn f() { unsafe { ptr.read() } }");
        let b = FileModel::build("fn f() {\n    unsafe {\n        ptr.read()\n    }\n}");
        let c = FileModel::build("fn f() { unsafe { ptr.write(x) } }");
        assert_eq!(a.unsafe_sites[0].hash, b.unsafe_sites[0].hash);
        assert_ne!(a.unsafe_sites[0].hash, c.unsafe_sites[0].hash);
    }

    #[test]
    fn fn_with_nested_generic_bounds_still_finds_its_body() {
        // `Into<Vec<Vec<u8>>>` closes three generics at once; the body
        // finder must not mistake any of it for the fn's block.
        let src = "fn f<T: Into<Vec<Vec<u8>>>, const N: usize>(x: [T; N]) -> Result<Vec<Vec<u8>>, ()> {\n    loop { g(); }\n}\n";
        let m = FileModel::build(src);
        let intros: Vec<_> = m.blocks.iter().map(|b| b.introducer).collect();
        assert_eq!(intros, vec![Introducer::Fn, Introducer::Other]);
    }
}

//! Pass 1 of the semantic analyzer: per-file symbol extraction.
//!
//! Walks the token stream once per file and records item-level structure —
//! function definitions (with impl/trait qualification and arity), call
//! expressions (plain, path, and method form), panic sites (`unwrap` /
//! `expect` / `panic!`-family / non-literal indexing) and allocation calls
//! inside loops. Pass 2 ([`crate::graph`]) links the per-file tables into a
//! workspace call graph.
//!
//! The extractor is a heuristic parser over tokens, not a full grammar:
//! the known approximations (closure braces in `for` headers, turbofish
//! calls) are documented in DESIGN.md §5b under "resolution limits". It
//! never panics on malformed source — confusion degrades to "no symbol
//! recorded", and unresolved calls surface in the graph's explicit
//! `unresolved` bucket rather than vanishing.

use crate::lexer::{Kind, Token};

/// The `parallel_*` entry points of the wr-runtime pool. A closure passed
/// to one of these runs on pool workers: its body becomes a pseudo-function
/// in the symbol table (see [`FnDef::is_closure_root`]).
pub const PARALLEL_FNS: &[&str] = &["parallel_map", "parallel_chunks_mut"];

/// A call expression recorded inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `Some(prefix)` for `prefix::name(…)` path calls: a type, `Self`,
    /// or a module path such as `wr_eval` or `crate`.
    pub recv: Option<String>,
    /// True for `.name(…)` method-call syntax.
    pub is_method: bool,
    /// Argument count, excluding any method receiver.
    pub arity: usize,
    pub line: u32,
}

/// A potential panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Display text for diagnostics (e.g. `.unwrap()` or `` `seen[row]` ``).
    pub what: String,
    pub line: u32,
}

/// An allocation call inside a loop.
#[derive(Debug, Clone)]
pub struct AllocSite {
    pub what: String,
    pub line: u32,
}

/// One function (or parallel-closure pseudo-function) and everything the
/// rules need to know about its body.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `Type::name` inside impl/trait blocks, bare `name` for free
    /// functions, `parent::{closure@LINE}` for parallel-closure bodies.
    pub qual: String,
    pub line: u32,
    /// Parameter count excluding any `self` receiver.
    pub arity: usize,
    pub has_self: bool,
    /// Defined in an `impl Trait for Type` or a `trait` body: reachable by
    /// dynamic dispatch from crates that cannot name `Type`.
    pub in_trait: bool,
    pub is_test: bool,
    /// Body of a closure passed to a `parallel_*` entry point — it runs
    /// on pool workers.
    pub is_closure_root: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub allocs: Vec<AllocSite>,
}

/// Symbol table for one file.
#[derive(Debug, Clone)]
pub struct FileSymbols {
    pub path: String,
    /// Crate name for `crates/<name>/…` paths, else `"workspace"`.
    pub krate: String,
    pub fns: Vec<FnDef>,
}

/// Returns the crate name for `crates/<name>/…` paths.
pub fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("workspace")
}

// ---------------------------------------------------------------------------
// Pre-scan: classify every `{` (impl body, trait body, fn body, loop body)
// and mark token ranges the main walk must not read as expressions
// (attributes, item signatures).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Open {
    /// An impl body: the implemented-on type, and whether the impl is of
    /// a trait.
    Impl(String, bool),
    Trait(String),
    Fn {
        name: String,
        /// Names the parameter patterns bind.
        params: Vec<String>,
        arity: usize,
        has_self: bool,
        line: u32,
        in_test: bool,
    },
    Loop { var: Option<String> },
}

struct Stream<'a> {
    toks: &'a [Token],
    /// Indices of non-comment tokens.
    ids: Vec<usize>,
    /// Partner index for each bracket token (filtered positions).
    partner: Vec<Option<usize>>,
    /// Positions the expression walk must skip (attributes, signatures).
    skip: Vec<bool>,
    /// Classification for `{` positions.
    opens: Vec<Option<Open>>,
}

impl<'a> Stream<'a> {
    fn text(&self, k: usize) -> &str {
        &self.toks[self.ids[k]].text
    }
    fn kind(&self, k: usize) -> Kind {
        self.toks[self.ids[k]].kind
    }
    fn line(&self, k: usize) -> u32 {
        self.toks[self.ids[k]].line
    }
    fn in_test(&self, k: usize) -> bool {
        self.toks[self.ids[k]].in_test
    }
    fn len(&self) -> usize {
        self.ids.len()
    }
    fn is(&self, k: usize, s: &str) -> bool {
        k < self.len() && self.text(k) == s
    }
}

fn build_stream(toks: &[Token]) -> Stream<'_> {
    let ids: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let n = ids.len();
    let mut partner = vec![None; n];
    let mut stacks: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for k in 0..n {
        let which = match toks[ids[k]].text.as_str() {
            "(" | ")" => 0,
            "[" | "]" => 1,
            "{" | "}" => 2,
            _ => continue,
        };
        let open = matches!(toks[ids[k]].text.as_str(), "(" | "[" | "{");
        if open {
            stacks[which].push(k);
        } else if let Some(o) = stacks[which].pop() {
            partner[o] = Some(k);
            partner[k] = Some(o);
        }
    }
    Stream { toks, ids, partner, skip: vec![false; n], opens: vec![None; n] }
}

/// Skip a `<…>` generic group starting at `k` (which must be `<`); returns
/// the position after the closing `>`. Bails at a safety horizon so a
/// misparse can't loop.
fn skip_angles(s: &Stream, mut k: usize) -> usize {
    let mut depth = 0i32;
    let mut brace = 0i32;
    let start = k;
    while k < s.len() && k - start < 512 {
        match s.text(k) {
            "<" | "<<" if brace == 0 => depth += if s.text(k) == "<<" { 2 } else { 1 },
            ">" if brace == 0 => depth -= 1,
            ">>" if brace == 0 => depth -= 2,
            "{" => brace += 1,
            "}" => brace -= 1,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            return k;
        }
    }
    k
}

/// Parse a parameter list starting at the `(` position. Returns
/// `(bound_names, arity_excluding_self, has_self, position_after_close)`.
fn parse_params(s: &Stream, open: usize) -> (Vec<String>, usize, bool, usize) {
    let close = match s.partner[open] {
        Some(c) => c,
        None => return (Vec::new(), 0, false, s.len()),
    };
    let mut count = 0usize;
    let mut has_self = false;
    let mut depth = (0i32, 0i32, 0i32); // paren, bracket, angle
    let mut cur_tokens = 0usize;
    let mut first_param_self = false;
    // Still inside the current parameter's pattern (before its `:`).
    let mut in_pattern = true;
    let mut names = Vec::new();
    for k in open + 1..close {
        let t = s.text(k);
        match t {
            "(" => depth.0 += 1,
            ")" => depth.0 -= 1,
            "[" => depth.1 += 1,
            "]" => depth.1 -= 1,
            "<" => depth.2 += 1,
            "<<" => depth.2 += 2,
            ">" => depth.2 -= 1,
            ">>" => depth.2 -= 2,
            ":" if depth == (0, 0, 0) => in_pattern = false,
            "," if depth == (0, 0, 0) => {
                if cur_tokens > 0 {
                    count += 1;
                    if count == 1 && first_param_self {
                        has_self = true;
                    }
                }
                cur_tokens = 0;
                in_pattern = true;
                continue;
            }
            _ => {}
        }
        if t == "self" && count == 0 && depth == (0, 0, 0) {
            first_param_self = true;
        } else if in_pattern && s.kind(k) == Kind::Ident && !KEYWORDS.contains(&t) {
            names.push(t.to_string());
        }
        cur_tokens += 1;
    }
    if cur_tokens > 0 {
        count += 1;
        if count == 1 && first_param_self {
            has_self = true;
        }
    }
    let arity = if has_self { count.saturating_sub(1) } else { count };
    (names, arity, has_self, close + 1)
}

/// First `{` at zero paren/bracket depth from `k` (used for loop and impl
/// headers, where a brace inside parens belongs to a closure argument).
fn find_body_open(s: &Stream, mut k: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while k < s.len() {
        match s.text(k) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => return Some(k),
            ";" if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "pub", "use", "mod", "struct", "enum", "trait", "impl", "type", "const",
    "static", "unsafe", "extern", "crate", "super", "as", "in", "where", "dyn", "move", "box",
    "async", "await", "true", "false",
];

fn pre_scan(s: &mut Stream) {
    let mut c = 0usize;
    while c < s.len() {
        let t = s.text(c).to_string();
        match t.as_str() {
            // Attribute: skip `#[ … ]` wholesale.
            "#" if s.is(c + 1, "[") => {
                if let Some(close) = s.partner[c + 1] {
                    for k in c..=close {
                        s.skip[k] = true;
                    }
                    c = close + 1;
                } else {
                    c += 1;
                }
            }
            "impl" => {
                let header_start = c;
                let mut k = c + 1;
                if s.is(k, "<") {
                    k = skip_angles(s, k);
                }
                // Collect the implemented-on type: last ident at angle
                // depth zero before `{` / `where`, restarting after `for`.
                let mut name: Option<String> = None;
                let mut of_trait = false;
                let mut body = None;
                let mut angle = 0i32;
                while k < s.len() {
                    let tk = s.text(k);
                    match tk {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "for" if angle <= 0 => {
                            name = None;
                            of_trait = true;
                        }
                        "where" if angle <= 0 => {
                            body = find_body_open(s, k);
                            break;
                        }
                        "{" if angle <= 0 => {
                            body = Some(k);
                            break;
                        }
                        ";" if angle <= 0 => break, // e.g. `impl Trait` in a type position gone wrong
                        _ => {
                            if angle <= 0 && s.kind(k) == Kind::Ident && !KEYWORDS.contains(&tk) {
                                name = Some(tk.to_string());
                            }
                        }
                    }
                    k += 1;
                }
                match body {
                    Some(b) => {
                        s.opens[b] =
                            Some(Open::Impl(name.unwrap_or_else(|| "?".to_string()), of_trait));
                        for i in header_start..b {
                            s.skip[i] = true;
                        }
                        c = b; // the `{` itself is processed by the walk
                    }
                    None => c = k.max(c + 1),
                }
            }
            "trait" => {
                let header_start = c;
                let name = if c + 1 < s.len() && s.kind(c + 1) == Kind::Ident {
                    s.text(c + 1).to_string()
                } else {
                    "?".to_string()
                };
                match find_body_open(s, c + 1) {
                    Some(b) => {
                        s.opens[b] = Some(Open::Trait(name));
                        for i in header_start..b {
                            s.skip[i] = true;
                        }
                        c = b;
                    }
                    None => c += 1,
                }
            }
            "fn" => {
                // `fn` not followed by a name is a function-pointer type.
                if c + 1 >= s.len() || s.kind(c + 1) != Kind::Ident {
                    c += 1;
                    continue;
                }
                let name = s.text(c + 1).to_string();
                let line = s.line(c);
                let in_test = s.in_test(c);
                let mut k = c + 2;
                if s.is(k, "<") {
                    k = skip_angles(s, k);
                }
                if !s.is(k, "(") {
                    c += 1;
                    continue;
                }
                let (params, arity, has_self, after) = parse_params(s, k);
                // Find the body `{` (or `;` for a bodyless trait method).
                let mut j = after;
                let mut body = None;
                while j < s.len() {
                    match s.text(j) {
                        "{" => {
                            body = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => j += 1,
                    }
                }
                match body {
                    Some(b) => {
                        s.opens[b] =
                            Some(Open::Fn { name, params, arity, has_self, line, in_test });
                        for i in c..b {
                            s.skip[i] = true;
                        }
                        c = b;
                    }
                    None => {
                        for i in c..j.min(s.len()) {
                            s.skip[i] = true;
                        }
                        c = j + 1;
                    }
                }
            }
            "for" | "while" | "loop" => {
                // Loop headers stay visible to the expression walk (they
                // contain calls); only the `{` gets classified.
                if let Some(b) = find_body_open(s, c + 1) {
                    if s.opens[b].is_none() {
                        // `for IDENT in <range-expr> {` exposes a
                        // bounds-carrying loop variable.
                        let var = if t == "for"
                            && c + 2 < s.len()
                            && s.kind(c + 1) == Kind::Ident
                            && s.is(c + 2, "in")
                        {
                            let mut has_range = false;
                            let mut depth = 0i32;
                            for k in c + 3..b {
                                match s.text(k) {
                                    "(" | "[" => depth += 1,
                                    ")" | "]" => depth -= 1,
                                    ".." | "..=" if depth == 0 => has_range = true,
                                    _ => {}
                                }
                            }
                            if has_range {
                                Some(s.text(c + 1).to_string())
                            } else {
                                None
                            }
                        } else {
                            None
                        };
                        s.opens[b] = Some(Open::Loop { var });
                    }
                }
                c += 1;
            }
            _ => c += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Main walk: build FnDefs and record events into the innermost function.
// ---------------------------------------------------------------------------

enum Frame {
    Plain,
    Type(Option<(String, bool)>), // previous type context (impl or trait)
    Fn,
    Loop { pushed_var: bool },
}

struct Builder {
    def: FnDef,
    /// Range-loop variables currently in scope (plus closure params for
    /// parallel-closure pseudo-functions).
    range_vars: Vec<String>,
    /// Parameters and local bindings seen so far: a plain call of one of
    /// these names calls a closure or fn pointer, not a workspace function.
    locals: Vec<String>,
    loop_depth: usize,
}

/// The body of a closure passed to a `parallel_*` call, found ahead of
/// the cursor: it becomes a pseudo-function when the walk reaches it.
struct Region {
    start: usize,
    /// Last position of the body (inclusive).
    end: usize,
    params: Vec<String>,
    /// The enclosing function's bindings, visible inside the body.
    locals: Vec<String>,
    parent_qual: String,
    line: u32,
    in_test: bool,
}

const ALLOC_TYPES: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
    ("String", &["new", "from", "with_capacity"]),
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
/// Tokens after which a `|` opens a closure's parameter list.
const CLOSURE_OPENERS: &[&str] = &["(", ",", "=", "move", "{", ";", "=>", "return"];

fn new_def(name: String, qual: String, line: u32, arity: usize) -> FnDef {
    FnDef {
        name,
        qual,
        line,
        arity,
        has_self: false,
        in_trait: false,
        is_test: false,
        is_closure_root: false,
        calls: Vec::new(),
        panics: Vec::new(),
        allocs: Vec::new(),
    }
}

/// Extract the symbol table for one file. `rel_path` selects the crate.
pub fn extract(rel_path: &str, toks: &[Token]) -> FileSymbols {
    let mut s = build_stream(toks);
    pre_scan(&mut s);
    let krate = crate_of(rel_path).to_string();
    let test_path = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");

    let mut fns: Vec<FnDef> = Vec::new();
    let mut builders: Vec<Builder> = Vec::new(); // stack; innermost last
    let mut frames: Vec<Frame> = Vec::new();
    let mut type_ctx: Option<(String, bool)> = None;
    // End positions of the active parallel-closure bodies.
    let mut closure_ends: Vec<usize> = Vec::new();
    let mut pending: Vec<Region> = Vec::new();

    let finish = |builders: &mut Vec<Builder>, fns: &mut Vec<FnDef>| {
        if let Some(b) = builders.pop() {
            fns.push(b.def);
        }
    };

    let mut k = 0usize;
    while k < s.len() {
        // Close any expression-bodied closure regions that ended before here.
        while let Some(&end) = closure_ends.last() {
            if k > end {
                closure_ends.pop();
                finish(&mut builders, &mut fns);
            } else {
                break;
            }
        }
        // Open any closure region starting here.
        if let Some(pos) = pending.iter().position(|r| r.start == k) {
            let r = pending.remove(pos);
            let mut def = new_def(
                "{closure}".to_string(),
                format!("{}::{{closure@{}}}", r.parent_qual, r.line),
                r.line,
                r.params.len(),
            );
            def.is_test = r.in_test || test_path;
            def.is_closure_root = true;
            let mut locals = r.locals;
            locals.extend(r.params.iter().cloned());
            builders.push(Builder { def, range_vars: r.params, locals, loop_depth: 0 });
            closure_ends.push(r.end);
        }

        let text = s.text(k).to_string();

        if text == "{" {
            match s.opens[k].take() {
                Some(Open::Impl(t, of_trait)) => {
                    frames.push(Frame::Type(type_ctx.take()));
                    type_ctx = Some((t, of_trait));
                }
                Some(Open::Trait(t)) => {
                    frames.push(Frame::Type(type_ctx.take()));
                    type_ctx = Some((t, true));
                }
                Some(Open::Fn { name, params, arity, has_self, line, in_test }) => {
                    let qual = match &type_ctx {
                        Some((t, _)) => format!("{t}::{name}"),
                        None => name.clone(),
                    };
                    let mut def = new_def(name, qual, line, arity);
                    def.has_self = has_self;
                    def.in_trait = type_ctx.as_ref().is_some_and(|c| c.1);
                    def.is_test = in_test || test_path;
                    builders.push(Builder {
                        def,
                        range_vars: Vec::new(),
                        locals: params,
                        loop_depth: 0,
                    });
                    frames.push(Frame::Fn);
                }
                Some(Open::Loop { var }) => {
                    let pushed = if let Some(b) = builders.last_mut() {
                        b.loop_depth += 1;
                        if let Some(v) = var {
                            b.range_vars.push(v);
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    };
                    frames.push(Frame::Loop { pushed_var: pushed });
                }
                None => frames.push(Frame::Plain),
            }
            k += 1;
            continue;
        }
        if text == "}" {
            match frames.pop() {
                Some(Frame::Type(prev)) => type_ctx = prev,
                Some(Frame::Fn) => finish(&mut builders, &mut fns),
                Some(Frame::Loop { pushed_var }) => {
                    if let Some(b) = builders.last_mut() {
                        b.loop_depth = b.loop_depth.saturating_sub(1);
                        if pushed_var {
                            b.range_vars.pop();
                        }
                    }
                }
                _ => {}
            }
            k += 1;
            continue;
        }
        if let (false, Some(b)) = (s.skip[k], builders.last_mut()) {
            record_events(&s, k, b, &mut pending);
        }
        k += 1;
    }
    while !builders.is_empty() {
        finish(&mut builders, &mut fns);
    }
    // Stable order: by source line, closures after their parents.
    fns.sort_by_key(|f| (f.line, f.is_closure_root));
    FileSymbols { path: rel_path.to_string(), krate, fns }
}

/// Names bound by the pattern starting at `k` and ending at the first
/// depth-zero token in `stops`.
fn pattern_names(s: &Stream, mut k: usize, stops: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth = 0i32;
    while k < s.len() {
        let t = s.text(k);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => break,
            ")" | "]" | "}" => depth -= 1,
            _ if depth == 0 && stops.contains(&t) => break,
            _ if s.kind(k) == Kind::Ident && !KEYWORDS.contains(&t) => names.push(t.to_string()),
            _ => {}
        }
        k += 1;
    }
    names
}

/// Record call/panic/alloc events and local bindings at position `k` into `b`.
fn record_events(s: &Stream, k: usize, b: &mut Builder, pending: &mut Vec<Region>) {
    let text = s.text(k);
    let kind = s.kind(k);
    let line = s.line(k);
    let prev = |n: usize| k.checked_sub(n).map(|i| s.text(i));

    // --- local bindings: `let PAT`, closure parameters `|PAT, …|` ---
    if text == "let" {
        b.locals.extend(pattern_names(s, k + 1, &["=", ":", ";"]));
        return;
    }
    if text == "|" && prev(1).is_some_and(|p| CLOSURE_OPENERS.contains(&p)) {
        b.locals.extend(pattern_names(s, k + 1, &["|"]));
        return;
    }

    // --- panic macros & alloc macros ---
    if kind == Kind::Ident && s.is(k + 1, "!") {
        if PANIC_MACROS.contains(&text) {
            b.def.panics.push(PanicSite { what: format!("{text}!"), line });
        } else if ALLOC_MACROS.contains(&text) && b.loop_depth > 0 {
            b.def.allocs.push(AllocSite { what: format!("{text}!"), line });
        }
        return;
    }

    // --- method calls, unwrap/expect, allocs: `.name(` ---
    if kind == Kind::Ident && prev(1) == Some(".") && s.is(k + 1, "(") {
        match text {
            "unwrap" => b.def.panics.push(PanicSite { what: ".unwrap()".to_string(), line }),
            "expect" => b.def.panics.push(PanicSite { what: ".expect(…)".to_string(), line }),
            _ => {}
        }
        if ALLOC_METHODS.contains(&text) && b.loop_depth > 0 {
            b.def.allocs.push(AllocSite { what: format!(".{text}()"), line });
        }
        let arity = call_arity(s, k + 1, pending, b, text);
        b.def.calls.push(CallSite {
            name: text.to_string(),
            recv: None,
            is_method: true,
            arity,
            line,
        });
        return;
    }

    // --- path & plain calls: `name(` not preceded by `.` ---
    if kind == Kind::Ident && s.is(k + 1, "(") && prev(1) != Some(".") && !KEYWORDS.contains(&text)
    {
        let recv = if prev(1) == Some("::") {
            k.checked_sub(2).filter(|&i| s.kind(i) == Kind::Ident).map(|i| s.text(i).to_string())
        } else {
            None
        };
        // Allocation constructors.
        if b.loop_depth > 0 {
            if let Some(r) = &recv {
                if ALLOC_TYPES.iter().any(|(t, ms)| t == r && ms.contains(&text)) {
                    b.def.allocs.push(AllocSite { what: format!("{r}::{text}()"), line });
                }
            }
        }
        let arity = call_arity(s, k + 1, pending, b, text);
        // A plain call of a parameter or local binding calls a closure
        // (whose body the walk scans inline) or a fn pointer: no edge.
        if recv.is_some() || !b.locals.iter().any(|l| l == text) {
            b.def.calls.push(CallSite {
                name: text.to_string(),
                recv,
                is_method: false,
                arity,
                line,
            });
        }
        return;
    }

    // --- non-literal indexing: postfix `[ … ]` ---
    if text == "[" {
        let postfix = k > 0 && {
            let p = s.text(k - 1);
            (s.kind(k - 1) == Kind::Ident && !KEYWORDS.contains(&p)) || p == ")" || p == "]"
        };
        if postfix && !s.skip[k.saturating_sub(1)] {
            if let Some(close) = s.partner[k] {
                let inner: Vec<usize> = (k + 1..close).collect();
                if !inner.is_empty() {
                    let all_literal = inner.iter().all(|&i| {
                        s.kind(i) == Kind::Num || s.text(i) == ".." || s.text(i) == "..="
                    });
                    let idents: Vec<&str> = inner
                        .iter()
                        .filter(|&&i| s.kind(i) == Kind::Ident)
                        .map(|&i| s.text(i))
                        .collect();
                    let bounded = idents.iter().any(|id| b.range_vars.iter().any(|v| v == id));
                    if !all_literal && !idents.is_empty() && !bounded {
                        let recv = if s.kind(k - 1) == Kind::Ident { s.text(k - 1) } else { "…" };
                        let mut expr = String::new();
                        for &i in inner.iter().take(8) {
                            let t = s.text(i);
                            // Readable spacing: tight around `.`/parens,
                            // spaced around operators.
                            let tight = matches!(t, "." | "(" | ")" | "::" | ",")
                                || expr.ends_with(['.', '('])
                                || expr.ends_with("::");
                            if !expr.is_empty() && !tight {
                                expr.push(' ');
                            }
                            expr.push_str(t);
                        }
                        b.def.panics.push(PanicSite { what: format!("`{recv}[{expr}]`"), line });
                    }
                }
            }
        }
    }
}

/// Count a call's arguments and, for `parallel_*` callees, register the
/// closure argument as a pseudo-function region.
fn call_arity(
    s: &Stream,
    open: usize,
    pending: &mut Vec<Region>,
    b: &Builder,
    callee: &str,
) -> usize {
    let close = match s.partner[open] {
        Some(c) => c,
        None => return 0,
    };
    let mut count = 0usize;
    let mut any = false;
    let mut depth = (0i32, 0i32, 0i32); // paren, bracket, brace
    let mut in_closure_params = false;
    for k in open + 1..close {
        match s.text(k) {
            "(" => depth.0 += 1,
            ")" => depth.0 -= 1,
            "[" => depth.1 += 1,
            "]" => depth.1 -= 1,
            "{" => depth.2 += 1,
            "}" => depth.2 -= 1,
            "|" if depth == (0, 0, 0) => in_closure_params = !in_closure_params,
            "," if depth == (0, 0, 0) && !in_closure_params => {
                count += 1;
                continue;
            }
            _ => {}
        }
        any = true;
    }
    let arity = if any { count + 1 } else { 0 };

    if PARALLEL_FNS.contains(&callee) {
        if let Some((start, end, params)) = closure_region(s, open, close) {
            pending.push(Region {
                start,
                end,
                params,
                locals: b.locals.clone(),
                parent_qual: b.def.qual.clone(),
                line: s.line(start),
                in_test: s.in_test(start),
            });
        }
    }
    arity
}

/// Locate the closure argument inside a `parallel_*` call's parens:
/// returns `(body_start_k, body_end_k_inclusive, param_names)`.
fn closure_region(s: &Stream, open: usize, close: usize) -> Option<(usize, usize, Vec<String>)> {
    let mut depth = 0i32;
    let mut k = open + 1;
    let mut params_open = None;
    while k < close {
        match s.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => {
                params_open = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    let popen = params_open?;
    let mut pclose = popen + 1;
    while pclose < close && s.text(pclose) != "|" {
        pclose += 1;
    }
    if pclose >= close {
        return None;
    }
    let params: Vec<String> = (popen + 1..pclose)
        .filter(|&i| s.kind(i) == Kind::Ident && s.text(i) != "mut" && s.text(i) != "_")
        .map(|i| s.text(i).to_string())
        .collect();
    let body_start = pclose + 1;
    if body_start >= close {
        return None;
    }
    if s.text(body_start) == "{" {
        let end = s.partner[body_start]?;
        Some((body_start, end, params))
    } else {
        // Expression body: runs to the call's close paren or a top-level comma.
        let mut depth = 0i32;
        let mut k = body_start;
        while k < close {
            match s.text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => return Some((body_start, k - 1, params)),
                _ => {}
            }
            k += 1;
        }
        Some((body_start, close - 1, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn syms(path: &str, src: &str) -> FileSymbols {
        let mut toks = lexer::lex(src);
        lexer::mark_test_regions(&mut toks);
        extract(path, &toks)
    }

    #[test]
    fn extracts_impl_methods_with_qual_and_arity() {
        let f = syms(
            "crates/serve/src/a.rs",
            "impl ServeEngine { pub fn serve(&self, reqs: &[Req]) -> Vec<R> { helper(reqs, 3) } }\n\
             fn helper(r: &[Req], k: usize) -> Vec<R> { Vec::new() }",
        );
        assert_eq!(f.fns.len(), 2, "{:#?}", f.fns);
        let serve = &f.fns[0];
        assert_eq!(serve.qual, "ServeEngine::serve");
        assert_eq!(serve.arity, 1);
        assert!(serve.has_self);
        assert_eq!(serve.calls.len(), 1);
        assert_eq!(serve.calls[0].name, "helper");
        assert_eq!(serve.calls[0].arity, 2);
        let helper = &f.fns[1];
        assert_eq!(helper.qual, "helper");
        assert_eq!(helper.arity, 2);
        assert!(!helper.has_self);
    }

    #[test]
    fn trait_methods_qual_by_type_and_are_marked() {
        let f = syms(
            "crates/models/src/a.rs",
            "impl ScoreModel for SasRec { fn score(&self, u: usize) -> f32 { 0.0 } }\n\
             impl SasRec { fn new() -> Self { SasRec } }\n\
             trait Replay { fn replay(&self) -> u32 { 0 } }",
        );
        let got: Vec<(&str, bool)> = f.fns.iter().map(|d| (d.qual.as_str(), d.in_trait)).collect();
        assert_eq!(got, vec![("SasRec::score", true), ("SasRec::new", false), ("Replay::replay", true)]);
    }

    #[test]
    fn records_panic_sites() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn f(x: Option<u32>) { x.unwrap(); y.expect(\"msg\"); panic!(\"no\"); }",
        );
        let what: Vec<&str> = f.fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(what, vec![".unwrap()", ".expect(…)", "panic!"]);
    }

    #[test]
    fn calls_of_params_and_earlier_local_bindings_are_not_recorded() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn f(try_batch: impl Fn(u32), (a, mut b): (u8, u8)) {\n\
                 helper(1); try_batch(0); a(); b();\n\
                 let run = |x: u32| helper(x); run(2);\n\
                 items.iter().map(|score| score(3));\n\
                 later(4); let later = 5;\n\
                 wr_eval::run(6);\n\
             }",
        );
        let names: Vec<&str> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        // `later` is bound only after its call; a path call always names an item.
        assert_eq!(names, vec!["helper", "helper", "iter", "map", "later", "run"]);
    }

    #[test]
    fn range_loop_indexing_is_exempt_but_free_indexing_is_not() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn f(row: &[f32], j: usize) -> f32 {\n\
                 let mut acc = 0.0;\n\
                 for i in 0..row.len() { acc += row[i]; }\n\
                 acc + row[j]\n\
             }",
        );
        let panics = &f.fns[0].panics;
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].what, "`row[j]`");
    }

    #[test]
    fn literal_index_is_exempt() {
        let f = syms("crates/serve/src/a.rs", "fn f(r: &[f32]) -> f32 { r[0] + r[1] }");
        assert!(f.fns[0].panics.is_empty(), "{:?}", f.fns[0].panics);
    }

    #[test]
    fn parallel_closure_becomes_pseudo_fn_with_exempt_params() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn spread(n: usize, out: &mut [f32]) {\n\
                 parallel_map(n, 1, |i| { out[i] = work(i); });\n\
             }",
        );
        assert_eq!(f.fns.len(), 2, "{:#?}", f.fns);
        let closure = f.fns.iter().find(|d| d.is_closure_root).expect("closure pseudo-fn");
        assert!(closure.qual.starts_with("spread::{closure@"), "{}", closure.qual);
        // `out[i]` indexing by the closure param is exempt.
        assert!(closure.panics.is_empty(), "{:?}", closure.panics);
        assert_eq!(closure.calls.len(), 1);
        assert_eq!(closure.calls[0].name, "work");
        // The parent records the parallel_map call but not the closure's body.
        let parent = f.fns.iter().find(|d| !d.is_closure_root).expect("parent");
        assert!(parent.calls.iter().any(|c| c.name == "parallel_map"));
        assert!(parent.calls.iter().all(|c| c.name != "work"));
    }

    #[test]
    fn alloc_in_loop_recorded_outside_loop_not() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn f(n: usize) {\n\
                 let hoisted = Vec::with_capacity(n);\n\
                 for i in 0..n { let s = format!(\"x{i}\"); use_it(s); }\n\
             }",
        );
        let allocs = &f.fns[0].allocs;
        assert_eq!(allocs.len(), 1, "{allocs:?}");
        assert_eq!(allocs[0].what, "format!");
    }

    #[test]
    fn test_fns_are_marked() {
        let f = syms(
            "crates/serve/src/a.rs",
            "#[cfg(test)]\nmod tests { #[test]\nfn t() { x.unwrap(); } }",
        );
        assert!(f.fns[0].is_test);
    }

    #[test]
    fn path_call_records_receiver_type() {
        let f = syms(
            "crates/serve/src/a.rs",
            "fn f() { let t = TopK::new(5); wr_eval::merge_top_k(3, &parts); }",
        );
        let calls = &f.fns[0].calls;
        assert_eq!(calls[0].recv.as_deref(), Some("TopK"));
        assert_eq!(calls[0].arity, 1);
        assert_eq!(calls[1].name, "merge_top_k");
        assert_eq!(calls[1].arity, 2);
    }
}

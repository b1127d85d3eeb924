//! Static lock-order analysis for `ff-service` (and `ff-obs`, whose
//! logger/registry locks the service layer takes while holding its
//! own).
//!
//! Model: a lock *node* is a `(Struct, field)` pair for every struct
//! field whose type mentions `Mutex`/`RwLock`. Walking each function
//! body with brace-depth tracking gives a conservative guard-scope
//! simulation that mirrors Rust drop rules:
//!
//! - `let g = lock(&self.x);` holds `x` until the end of the enclosing
//!   block (or an explicit `drop(g)`),
//! - a guard temporary (`lock(&self.x).push(..)`, or a lock in a match
//!   scrutinee / struct literal) holds until the end of the enclosing
//!   *statement* (the next `;` at its depth),
//! - acquiring `B` while `A` is held adds the edge `A → B`,
//! - calling a function defined in the scanned set while holding `A`
//!   adds `A → L` for every lock in the callee's one-level-inlined
//!   acquisition set (its own acquisitions plus its direct callees').
//!
//! Any cycle in the resulting graph — including a self-loop, which is
//! a single-thread deadlock with `Mutex` — is a `LOCK_CYCLE` finding.
//! The analysis is name-based and deliberately over-approximate: a
//! false edge costs a baseline entry; a missed deadlock costs an
//! outage.
//!
//! A `Mutex`/`RwLock` declared anywhere else — in a tuple struct or in
//! an enum variant — has no field name to resolve its acquisitions by,
//! so it cannot be a node, and a cycle through it would go unseen. Each
//! such declaration is a `LOCK_UNTRACKED` finding at its line instead of
//! a guessed node.

use crate::lexer::{Tok, TokKind};
use crate::source::{Diagnostic, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// A lock-acquisition-order edge with its witness site.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
}

/// The extracted graph, exposed so `--locks` can print it.
#[derive(Debug, Default)]
pub struct LockGraph {
    pub nodes: BTreeSet<String>,
    pub edges: Vec<Edge>,
}

struct LockField {
    strukt: String,
    field: String,
    file_idx: usize,
}

/// Method names excluded from call inlining because they collide with
/// ubiquitous std methods (`map.get(..)`, `vec.len()`, atomic
/// `load`/`store`, Debug-builder `finish`, ...). A scanned fn that
/// shares one of these names still contributes its *own* acquisition
/// edges when its body is walked; only `.name(..)` call-site inlining
/// is skipped, since the receiver is far more often a std type. Any
/// real nested use of such a fn under a held lock must be covered by a
/// direct edge or a rename.
const STD_COLLISIONS: &[&str] = &[
    "get",
    "get_mut",
    "len",
    "is_empty",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "iter",
    "clone",
    "take",
    "load",
    "store",
    "swap",
    "next",
    "last",
    "first",
    "contains",
    "contains_key",
    "fmt",
    "flush",
    "join",
    "wait",
    "finish",
    "min",
    "max",
];

#[derive(Default)]
struct FnInfo {
    /// Lock nodes this fn acquires directly.
    acquires: BTreeSet<String>,
    /// Names of scanned-set fns this fn calls.
    calls: BTreeSet<String>,
}

/// Run the analysis over the scanned files; push `LOCK_CYCLE` and
/// `LOCK_UNTRACKED` findings and return the graph.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) -> LockGraph {
    let fields = collect_lock_fields(files, out);
    let fn_bodies = collect_fns(files);

    // Pass 1: per-fn direct acquisitions and calls (holds ignored).
    let mut info: BTreeMap<String, FnInfo> = BTreeMap::new();
    let fn_names: BTreeSet<String> = fn_bodies.iter().map(|f| f.name.clone()).collect();
    for f in &fn_bodies {
        let mut walk = Walk::new(files, &fields, &fn_names, f);
        walk.run(None);
        let e = info.entry(f.name.clone()).or_default();
        e.acquires.extend(walk.acquired);
        e.calls.extend(walk.called);
    }

    // One level of call inlining: effective = direct ∪ callees' direct.
    let mut effective: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, fi) in &info {
        let mut set = fi.acquires.clone();
        for callee in &fi.calls {
            if let Some(ci) = info.get(callee) {
                set.extend(ci.acquires.iter().cloned());
            }
        }
        effective.insert(name.clone(), set);
    }

    // Pass 2: hold-tracking walk emitting edges.
    let mut graph = LockGraph::default();
    for f in &fields {
        graph.nodes.insert(format!("{}.{}", f.strukt, f.field));
    }
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &fn_bodies {
        let mut walk = Walk::new(files, &fields, &fn_names, f);
        walk.run(Some(&effective));
        for e in walk.edges {
            if seen.insert((e.from.clone(), e.to.clone())) {
                graph.edges.push(e);
            }
        }
    }

    report_cycles(&graph, out);
    graph
}

/// Every named struct field whose type mentions a lock; a lock in a
/// tuple struct or an enum variant is reported as `LOCK_UNTRACKED`.
fn collect_lock_fields(files: &[SourceFile], out: &mut Vec<Diagnostic>) -> Vec<LockField> {
    let mut fields = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let toks = &file.toks;
        let mut i = 0;
        while i < toks.len() {
            let is_enum = toks[i].is_ident("enum");
            if toks[i].is_ident("struct") || is_enum {
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    let name = name.text.clone();
                    // Find the body `{` or `(` (skip generics) or bail at `;`.
                    let mut j = i + 2;
                    let mut angle = 0i32;
                    while j < toks.len() {
                        let t = &toks[j];
                        if t.is_punct('<') {
                            angle += 1;
                        } else if t.is_punct('>') {
                            angle -= 1;
                        } else if angle == 0 && t.is_punct(';') {
                            break;
                        } else if angle == 0 && (t.is_punct('{') || t.is_punct('(')) {
                            if is_enum {
                                report_variant_locks(file, j, &name, out);
                            } else if t.is_punct('{') {
                                scan_fields(toks, j, &name, fi, &mut fields);
                            } else {
                                report_tuple_locks(file, j, &name, out);
                            }
                            break;
                        }
                        j += 1;
                    }
                }
            }
            i += 1;
        }
    }
    fields
}

fn untracked(file: &SourceFile, tok: &Tok, owner: &str, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic::new(
        &file.rel,
        tok.line,
        "LOCK_UNTRACKED",
        format!(
            "`{}` in {owner} is no lock-order node: only named struct fields are, so its \
             acquisitions go unchecked; hold it in a named struct field",
            tok.text
        ),
    ));
}

fn is_lock_type(t: &Tok) -> bool {
    t.is_ident("Mutex") || t.is_ident("RwLock")
}

/// Report every lock type in the tuple-struct field list opening at `open`.
fn report_tuple_locks(file: &SourceFile, open: usize, strukt: &str, out: &mut Vec<Diagnostic>) {
    let mut depth = 0i32;
    for t in &file.toks[open..] {
        depth += i32::from(t.is_punct('(')) - i32::from(t.is_punct(')'));
        if depth == 0 {
            return;
        }
        if is_lock_type(t) {
            untracked(file, t, &format!("tuple struct `{strukt}`"), out);
        }
    }
}

/// Report every lock type in the enum body opening at `open`, named by
/// its variant.
fn report_variant_locks(file: &SourceFile, open: usize, enm: &str, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    let mut depth = 0i32;
    let mut variant = "";
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return;
            }
        } else if depth == 1
            && t.kind == TokKind::Ident
            && (toks[i - 1].is_punct('{') || toks[i - 1].is_punct(',') || toks[i - 1].is_punct(']'))
        {
            variant = &t.text;
        } else if is_lock_type(t) {
            untracked(file, t, &format!("enum variant `{enm}::{variant}`"), out);
        }
    }
}

/// Scan a struct body starting at its `{` for `field: ..Mutex/RwLock..`.
fn scan_fields(toks: &[Tok], open: usize, strukt: &str, file_idx: usize, out: &mut Vec<LockField>) {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return;
            }
        } else if depth == 1
            && toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            // Field `name: Type` — scan the type up to the next `,` at
            // this depth (or the closing brace) for a lock type.
            let field = toks[i].text.clone();
            let mut j = i + 2;
            let mut d2 = 0i32;
            let mut is_lock = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                    d2 += 1;
                } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                    d2 -= 1;
                } else if d2 <= 0 && (t.is_punct(',') || t.is_punct('}')) {
                    break;
                } else if is_lock_type(t) {
                    is_lock = true;
                }
                j += 1;
            }
            if is_lock {
                out.push(LockField {
                    strukt: strukt.to_string(),
                    field,
                    file_idx,
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

struct FnBody {
    name: String,
    file_idx: usize,
    /// Token index of the body `{` and one past its matching `}`.
    start: usize,
    end: usize,
    impl_target: Option<String>,
}

/// Locate every `fn name(..) { .. }` and the struct its `impl` block
/// targets (`impl X` and `impl Trait for X` both resolve to `X`).
fn collect_fns(files: &[SourceFile]) -> Vec<FnBody> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let toks = &file.toks;
        // (depth_at_open, target) for impl blocks currently open.
        let mut impl_stack: Vec<(i32, Option<String>)> = Vec::new();
        let mut pending_impl: Option<Option<String>> = None;
        let mut depth = 0i32;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                if let Some(target) = pending_impl.take() {
                    impl_stack.push((depth, target));
                }
            } else if t.is_punct('}') {
                if let Some(&(d, _)) = impl_stack.last() {
                    if d == depth {
                        impl_stack.pop();
                    }
                }
                depth -= 1;
            } else if t.is_ident("impl") {
                pending_impl = Some(impl_target(toks, i));
            } else if t.is_ident("fn") {
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    if let Some((start, end)) = fn_body_range(toks, i + 2) {
                        out.push(FnBody {
                            name: name.text.clone(),
                            file_idx: fi,
                            start,
                            end,
                            impl_target: impl_stack.last().and_then(|(_, t)| t.clone()),
                        });
                        i = end;
                        // The body was consumed without updating
                        // `depth` — ranges are brace-balanced, so the
                        // net effect is zero.
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// Parse the target type name of an `impl` header at `i`.
fn impl_target(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last_path_head: Option<String> = None;
    let mut take_next_ident = true;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                take_next_ident = true;
            } else if t.kind == TokKind::Ident && take_next_ident {
                last_path_head = Some(t.text.clone());
                take_next_ident = false;
            }
        }
        j += 1;
    }
    last_path_head
}

/// Given the tokens after `fn name`, find the body `{..}` range, or
/// `None` for a bodyless (trait) declaration.
fn fn_body_range(toks: &[Tok], mut i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(';') {
            return None;
        } else if depth <= 0 && t.is_punct('{') {
            // Match braces to find the end.
            let start = i;
            let mut b = 0i32;
            while i < toks.len() {
                if toks[i].is_punct('{') {
                    b += 1;
                } else if toks[i].is_punct('}') {
                    b -= 1;
                    if b == 0 {
                        return Some((start, i + 1));
                    }
                }
                i += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

struct Hold {
    node: String,
    depth: i32,
    stmt_scoped: bool,
    var: Option<String>,
}

/// One walk over a fn body. With `effective == None` it only records
/// direct acquisitions/calls (pass 1); otherwise it tracks holds and
/// emits edges (pass 2).
struct Walk<'a> {
    files: &'a [SourceFile],
    fields: &'a [LockField],
    fn_names: &'a BTreeSet<String>,
    body: &'a FnBody,
    acquired: BTreeSet<String>,
    called: BTreeSet<String>,
    edges: Vec<Edge>,
}

impl<'a> Walk<'a> {
    fn new(
        files: &'a [SourceFile],
        fields: &'a [LockField],
        fn_names: &'a BTreeSet<String>,
        body: &'a FnBody,
    ) -> Walk<'a> {
        Walk {
            files,
            fields,
            fn_names,
            body,
            acquired: BTreeSet::new(),
            called: BTreeSet::new(),
            edges: Vec::new(),
        }
    }

    fn run(&mut self, effective: Option<&BTreeMap<String, BTreeSet<String>>>) {
        let toks = &self.files[self.body.file_idx].toks;
        let file = self.files[self.body.file_idx].rel.clone();
        let mut holds: Vec<Hold> = Vec::new();
        let mut depth = 0i32;
        let mut i = self.body.start;
        while i < self.body.end {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                holds.retain(|h| h.depth <= depth);
            } else if t.is_punct(';') {
                holds.retain(|h| !(h.stmt_scoped && h.depth >= depth));
            } else if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
                && toks.get(i + 2).map(|v| v.kind) == Some(TokKind::Ident)
                && toks.get(i + 3).is_some_and(|p| p.is_punct(')'))
            {
                let var = &toks[i + 2].text;
                holds.retain(|h| h.var.as_deref() != Some(var.as_str()));
                i += 4;
                continue;
            } else if let Some(acq) = self.acquisition_at(toks, i) {
                self.acquired.insert(acq.node.clone());
                for h in &holds {
                    self.edges.push(Edge {
                        from: h.node.clone(),
                        to: acq.node.clone(),
                        file: file.clone(),
                        line: acq.line,
                    });
                }
                holds.push(Hold {
                    node: acq.node,
                    depth,
                    stmt_scoped: acq.var.is_none(),
                    var: acq.var,
                });
                i = acq.resume;
                continue;
            } else if t.kind == TokKind::Ident
                && self.fn_names.contains(&t.text)
                && !matches!(t.text.as_str(), "lock" | "read" | "write" | "drop")
                && !STD_COLLISIONS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
                && !toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| p.is_ident("fn"))
            {
                self.called.insert(t.text.clone());
                if let Some(eff) = effective {
                    if !holds.is_empty() {
                        if let Some(callee_locks) = eff.get(&t.text) {
                            for h in &holds {
                                for l in callee_locks {
                                    self.edges.push(Edge {
                                        from: h.node.clone(),
                                        to: l.clone(),
                                        file: file.clone(),
                                        line: t.line,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// Try to recognise a lock acquisition starting at token `i`:
    /// `recv.field.lock()` / `.read()` / `.write()` (empty-arg method
    /// form) or the poison-recovering helper `lock(&recv.field)`.
    fn acquisition_at(&self, toks: &[Tok], i: usize) -> Option<Acq> {
        // Method form: detect at the method ident.
        if matches!(toks[i].text.as_str(), "lock" | "read" | "write")
            && toks[i].kind == TokKind::Ident
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            let (path, path_start) = receiver_path(toks, i - 2)?;
            let node = self.resolve(&path)?;
            let var = binding_before(toks, path_start).filter(|_| binds_guard(toks, i + 3));
            return Some(Acq {
                node,
                line: toks[i].line,
                var,
                resume: i + 3,
            });
        }
        // Helper form: `lock(&path.to.field)`, not preceded by `.`/`fn`.
        if toks[i].is_ident("lock")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('&'))
            && !(i >= 1 && (toks[i - 1].is_punct('.') || toks[i - 1].is_ident("fn")))
        {
            let mut j = i + 2;
            while toks.get(j).is_some_and(|t| t.is_punct('&')) {
                j += 1;
            }
            let mut path = Vec::new();
            while let Some(t) = toks.get(j) {
                if t.kind == TokKind::Ident {
                    path.push(t.text.clone());
                    j += 1;
                    if toks.get(j).is_some_and(|t| t.is_punct('.')) {
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            if !toks.get(j).is_some_and(|t| t.is_punct(')')) || path.is_empty() {
                return None;
            }
            let node = self.resolve(&path)?;
            let var = binding_before(toks, i).filter(|_| binds_guard(toks, j + 1));
            return Some(Acq {
                node,
                line: toks[i].line,
                var,
                resume: j + 1,
            });
        }
        None
    }

    /// Resolve a receiver path (e.g. `["self", "jobs"]` or
    /// `["state", "gate", "state"]`) to a `(Struct, field)` node. The
    /// last segment is the field name; ownership comes from, in order:
    /// the enclosing impl (for `self.field`), a unique declaring
    /// struct, a declaring struct in the same file, else a merged
    /// `?.field` node. Paths whose last segment is no known lock field
    /// resolve to `None` (not an acquisition we track).
    fn resolve(&self, path: &[String]) -> Option<String> {
        let field = path.last()?;
        let owners: Vec<&LockField> = self.fields.iter().filter(|f| &f.field == field).collect();
        if owners.is_empty() {
            return None;
        }
        if path.len() == 2 && path[0] == "self" {
            if let Some(target) = &self.body.impl_target {
                if let Some(f) = owners.iter().find(|f| &f.strukt == target) {
                    return Some(format!("{}.{}", f.strukt, f.field));
                }
            }
        }
        if owners.len() == 1 {
            let f = owners[0];
            return Some(format!("{}.{}", f.strukt, f.field));
        }
        if let Some(f) = owners.iter().find(|f| f.file_idx == self.body.file_idx) {
            return Some(format!("{}.{}", f.strukt, f.field));
        }
        Some(format!("?.{field}"))
    }
}

struct Acq {
    node: String,
    line: u32,
    var: Option<String>,
    /// Token index to resume scanning at.
    resume: usize,
}

/// Walk back from `i` over an `ident (. ident)*` receiver chain;
/// returns the path left-to-right and the index of its first token.
fn receiver_path(toks: &[Tok], mut i: usize) -> Option<(Vec<String>, usize)> {
    let mut rev = Vec::new();
    loop {
        let t = toks.get(i)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        rev.push(t.text.clone());
        if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokKind::Ident {
            i -= 2;
        } else {
            break;
        }
    }
    rev.reverse();
    Some((rev, i))
}

/// Is the receiver starting at `start` the RHS of `let [mut] name =`?
fn binding_before(toks: &[Tok], start: usize) -> Option<String> {
    if start < 3 {
        return None;
    }
    if !toks[start - 1].is_punct('=') {
        return None;
    }
    let name = &toks[start - 2];
    if name.kind != TokKind::Ident {
        return None;
    }
    let k = start - 3;
    if toks[k].is_ident("let") || (toks[k].is_ident("mut") && k >= 1 && toks[k - 1].is_ident("let"))
    {
        return Some(name.text.clone());
    }
    None
}

/// Does the acquisition ending before token `i` make up the whole `let`
/// initializer, optionally followed by `.unwrap()`, `.expect(..)` or
/// `?`? Only then does the `let` bind the guard itself; in
/// `let n = lock(&x).len();` the guard is a statement temporary, dropped
/// at the `;`.
fn binds_guard(toks: &[Tok], mut i: usize) -> bool {
    if toks.get(i).is_some_and(|t| t.is_punct('?')) {
        i += 1;
    } else if toks.get(i).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(i + 1)
            .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        // Skip the call's balanced argument list.
        let mut depth = 0i32;
        i += 2;
        while let Some(t) = toks.get(i) {
            depth += i32::from(t.is_punct('(')) - i32::from(t.is_punct(')'));
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    toks.get(i).is_some_and(|t| t.is_punct(';'))
}

/// Tarjan SCC over the edge list; every SCC with an internal edge
/// (size > 1, or a self-loop) is a cycle.
fn report_cycles(graph: &LockGraph, out: &mut Vec<Diagnostic>) {
    let nodes: Vec<&String> = graph.nodes.iter().collect();
    let index_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in &graph.edges {
        if let (Some(&a), Some(&b)) = (index_of.get(e.from.as_str()), index_of.get(e.to.as_str())) {
            adj[a].push(b);
        }
    }

    // Iterative Tarjan.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next-child cursor)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    for comp in sccs {
        let is_cycle = comp.len() > 1 || comp.iter().any(|&v| adj[v].contains(&v));
        if !is_cycle {
            continue;
        }
        let members: Vec<&str> = comp.iter().rev().map(|&v| nodes[v].as_str()).collect();
        let witness = graph
            .edges
            .iter()
            .find(|e| members.contains(&e.from.as_str()) && members.contains(&e.to.as_str()));
        let (file, line) = witness
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_else(|| ("<unknown>".to_string(), 0));
        out.push(Diagnostic::new(
            &file,
            line,
            "LOCK_CYCLE",
            format!(
                "lock-order cycle between {{{}}} — acquisition order must be a DAG",
                members.join(", ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> (Vec<Diagnostic>, LockGraph) {
        let files = vec![SourceFile::from_text("t.rs", src)];
        let mut out = Vec::new();
        let g = check(&files, &mut out);
        (out, g)
    }

    #[test]
    fn nested_locks_build_edges_no_cycle() {
        let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
}
"#;
        let (diags, g) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, "S.a");
        assert_eq!(g.edges[0].to, "S.b");
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }
    fn g(&self) { let g = self.b.lock(); let h = self.a.lock(); }
}
"#;
        let (diags, _) = run(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "LOCK_CYCLE");
        assert!(diags[0].message.contains("S.a"));
    }

    #[test]
    fn statement_temporaries_release_at_semicolon() {
        let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) { self.a.lock().insert(1); self.b.lock().insert(2); }
    fn g(&self) { self.b.lock().insert(1); self.a.lock().insert(2); }
}
"#;
        let (diags, g) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn let_binding_a_value_read_through_a_guard_holds_nothing() {
        let read = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) { let n = lock(&a).len(); lock(&b); }
    fn g(&self) { let m = self.a.lock().unwrap().len(); lock(&b); }
}
"#;
        let (diags, g) = run(read);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        for held in [
            "let g = lock(&a); lock(&b);",
            "let g = x.a.lock().unwrap(); lock(&b);",
            "let g = x.a.lock().expect(\"poisoned\"); lock(&b);",
            "let g = x.a.read()?; lock(&b);",
        ] {
            let src =
                format!("struct S {{ a: Mutex<u32>, b: Mutex<u32> }}\nfn f(x: &S) {{ {held} }}\n");
            let (_, g) = run(&src);
            assert_eq!(g.edges.len(), 1, "{held}: {:?}", g.edges);
            assert_eq!(
                (g.edges[0].from.as_str(), g.edges[0].to.as_str()),
                ("S.a", "S.b")
            );
        }
    }

    #[test]
    fn explicit_drop_releases() {
        let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) { let g = self.a.lock(); drop(g); let h = self.b.lock(); }
    fn g(&self) { let g = self.b.lock(); drop(g); let h = self.a.lock(); }
}
"#;
        let (diags, g) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn one_level_call_inlining_finds_hidden_cycle() {
        let src = r#"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn take_b(&self) { let g = self.b.lock(); }
    fn f(&self) { let g = self.a.lock(); self.take_b(); }
    fn g(&self) { let g = self.b.lock(); let h = self.a.lock(); }
}
"#;
        let (diags, _) = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "LOCK_CYCLE");
    }

    #[test]
    fn helper_form_and_self_loop() {
        let src = r#"
struct S { a: Mutex<u32> }
impl S {
    fn f(&self) { let g = lock(&self.a); let h = lock(&self.a); }
}
"#;
        let (diags, _) = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("S.a"));
    }

    #[test]
    fn locks_outside_named_fields_are_reported_not_guessed() {
        let src = r#"
struct Named { a: Mutex<u32>, b: Arc<RwLock<u32>> }
struct Unit;
pub struct Tuple(pub u32, Mutex<u32>);
enum E {
    Plain,
    #[allow(dead_code)]
    Wrapped(Arc<RwLock<u32>>),
    Fields { n: u32, m: Mutex<u32> },
}
impl Tuple {
    fn f(&self, e: &E) { let g = self.1.lock(); if let E::Wrapped(l) = e { l.read(); } }
}
"#;
        let (diags, g) = run(src);
        let found: Vec<(u32, &str, &str)> = diags
            .iter()
            .map(|d| (d.line, d.lint, d.message.split(" is ").next().unwrap()))
            .collect();
        assert_eq!(
            found,
            [
                (4, "LOCK_UNTRACKED", "`Mutex` in tuple struct `Tuple`"),
                (8, "LOCK_UNTRACKED", "`RwLock` in enum variant `E::Wrapped`"),
                (9, "LOCK_UNTRACKED", "`Mutex` in enum variant `E::Fields`"),
            ]
        );
        assert_eq!(
            g.nodes.iter().collect::<Vec<_>>(),
            ["Named.a", "Named.b"],
            "no node is guessed for an unnamed lock"
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn same_field_name_resolves_per_impl() {
        let src = r#"
struct A { state: Mutex<u32> }
struct B { state: Mutex<u32> }
impl A { fn f(&self) { let g = self.state.lock(); } }
impl B { fn f(&self) { let g = self.state.lock(); } }
"#;
        let (diags, g) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(g.nodes.contains("A.state") && g.nodes.contains("B.state"));
    }
}

//! The workspace-wide cross-crate call graph and the three interprocedural
//! rules built on it: R12 hot-path allocation freedom, R13 panic-free hot
//! fns, R14 determinism taint.
//!
//! The per-file rules (R1–R11) reason about one file at a time; a
//! `Vec::push` hidden one call away from a hot loop, or a `HashMap`
//! iteration two crates upstream of a wire encoder, sails straight through
//! them. This module builds one graph over every library file in the
//! workspace — nodes are non-test fns keyed `module::fn` /
//! `module::Owner::fn`, edges are resolved call sites — and runs
//! reachability proofs over it.
//!
//! Resolution is heuristic and *honest about it* (DESIGN.md §11 documents
//! the soundness story in full):
//!
//! - `path::to::fn(..)` resolves by module-tail matching against node keys,
//!   with crate-alias heads (`msc_trace` → `trace`) normalised; a path that
//!   matches nothing in the workspace is external (std) and contributes no
//!   edge. Crate-root re-exports (`msc_trace::match_downstream`) resolve to
//!   every same-name free fn in the crate — deliberately conservative.
//! - `Type::fn(..)` resolves through the global impl table.
//! - `self.m(..)` resolves through the enclosing impl's type;
//!   `self.field.m(..)` through the global struct field-type table. Any
//!   other receiver falls back to *every* workspace method named `m`
//!   (conservative trait dispatch) — except names on the [`STD_METHODS`]
//!   precision list, which overwhelmingly mean std types and would only
//!   manufacture phantom edges.
//! - A bare `f(..)` resolves to a same-file fn first (shadowing wins), then
//!   by `use`-import tail matching, then to every same-name free fn.
//!
//! Crucially, *leaves are detected by name at the call site*, not through
//! resolution: `.push(` allocates and `.unwrap(` panics whoever the callee
//! turns out to be. Unresolved calls can therefore hide a transitive chain,
//! never the final allocation/panic itself — the conservative direction for
//! R12/R13. The same holds for R14 sources, which are statement-local
//! scans ([`crate::rules::unordered_iteration_sites`],
//! [`crate::rules::float_accumulation_sites`], `Instant::now`).

use crate::findings::{Finding, RuleId};
use crate::hotpath::HotpathManifest;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parse::Parsed;
use crate::rules::{self, FileCtx};
use crate::wire::{comment_at, WIRE_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// One library file ready for graph construction: the driver stashes every
/// Lib file it walks, paired with its parsed items.
pub struct GraphFile<'a> {
    /// `module_key` of the file (e.g. `trace::matching`).
    pub module_key: String,
    pub ctx: &'a FileCtx,
    pub parsed: &'a Parsed,
}

/// Size counters surfaced in `LintRun` for the lint bench.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub sccs: usize,
}

/// Method names that overwhelmingly resolve to std types in this workspace.
/// An unknown-receiver call to one of these contributes *no* edge instead
/// of fanning out to every same-name workspace method: the precision list
/// kills phantom edges, and the name-based leaf detection still catches the
/// allocating/panicking ones (`push`, `insert`, `collect`, `to_vec`,
/// `clone`, `unwrap`, `expect`) regardless.
#[rustfmt::skip]
const STD_METHODS: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str", "back",
    "binary_search", "by_ref", "ceil", "chain", "chars", "checked_add", "checked_div",
    "checked_mul", "checked_sub", "chunks", "clear", "clone", "cloned", "cmp", "collect",
    "contains", "contains_key", "copied", "copy_from_slice", "count", "dedup", "display",
    "div_euclid", "drain", "enumerate", "entry", "eq", "err", "expect", "extend", "fill", "filter",
    "filter_map", "find", "first", "flat_map", "flatten", "floor", "flush", "fmt", "fold", "from",
    "front", "get", "get_mut", "hash", "insert", "into", "into_iter", "is_empty", "is_err",
    "is_none", "is_ok", "is_some", "iter", "iter_mut", "join", "keys", "last", "leading_zeros",
    "len", "lines", "map", "map_err", "map_or", "max", "max_by", "max_by_key", "min", "min_by",
    "min_by_key", "ne", "next", "ok", "ok_or", "ok_or_else", "parse", "partial_cmp",
    "partition_point", "pop", "pop_back", "pop_front", "position", "push", "push_back",
    "push_front", "push_str", "read", "rem_euclid", "remove", "resize", "retain", "rev", "round",
    "rposition", "saturating_add", "saturating_mul", "saturating_sub", "select_nth_unstable",
    "skip", "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by", "split",
    "split_first", "split_last", "split_off", "sqrt", "starts_with", "step_by", "sum", "swap",
    "take", "then", "then_with", "to_string", "to_vec", "total_cmp", "trailing_zeros", "trim",
    "truncate", "try_from", "try_into", "unwrap", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "values", "values_mut", "windows", "wrapping_add", "wrapping_mul",
    "wrapping_sub", "write", "write_all", "zip",
];

/// Keywords that look like calls, mirrored from [`crate::parse`].
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "let", "else", "fn",
    "impl", "where", "unsafe", "break", "continue",
];

/// Allocating method names (the R12 leaf set). Detected at the call site by
/// name, so resolution failures cannot hide them. `vec!`, `with_capacity`,
/// `reserve`, `resize`, and `extend` are deliberately *not* leaves: they are
/// the bulk-construction idioms hot code is supposed to hoist into, and
/// R12's job is the per-call growth that defeats that hoisting.
const ALLOC_METHODS: &[&str] = &["push", "insert", "collect", "to_vec", "clone"];

/// Panicking macro names (the R13 leaf set, together with
/// `.unwrap(`/`.expect(`). `assert!`/`debug_assert!` are deliberately
/// exempt: precondition checks are contracts, not reachable panics
/// in correct callers.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One detected leaf or source site inside a fn body.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    what: String,
}

/// One call-graph node: a non-test fn of one library file.
struct Node {
    /// `module::fn` or `module::Owner::fn`.
    key: String,
    name: String,
    owner: Option<String>,
    file_idx: usize,
    line: u32,
    /// Token range of the body in the file's token stream.
    body: Option<(usize, usize)>,
    hot_marked: bool,
    /// Unwaived allocating sites (R12 leaves).
    alloc_sites: Vec<Site>,
    /// Panicking sites (R13 leaves; no waiver exists).
    panic_sites: Vec<Site>,
    /// Unsuppressed nondeterminism sources (R14).
    taint_sites: Vec<Site>,
}

/// True when the first char is uppercase — the path-segment heuristic
/// separating `Type::method` from `module::free_fn`.
fn is_type_segment(seg: &str) -> bool {
    seg.chars().next().is_some_and(char::is_uppercase)
}

/// True when the `use`/path head `head` plausibly names the crate whose
/// directory (and module-key root) is `crate_dir`: the exact dir name, or
/// the dir with the workspace's `msc-`/`nf-` package prefixes.
fn alias_matches(head: &str, crate_dir: &str) -> bool {
    let h = head.replace('-', "_");
    h == crate_dir || h == format!("msc_{crate_dir}") || h == format!("nf_{crate_dir}")
}

/// True when the qualifier segments `quals` are compatible with a node
/// living at module path `mods` (module_key split on `::`, so `mods[0]` is
/// the crate dir): either a plain suffix of the module path, or a
/// crate-alias head followed by a *prefix* of the in-crate path — the
/// prefix form is what makes crate-root re-exports
/// (`msc_trace::match_downstream` for `trace::matching::match_downstream`)
/// resolve.
fn quals_match(quals: &[String], mods: &[&str]) -> bool {
    if quals.len() <= mods.len()
        && mods[mods.len() - quals.len()..]
            .iter()
            .zip(quals)
            .all(|(a, b)| *a == b.as_str())
    {
        return true;
    }
    if let Some(head) = quals.first() {
        if alias_matches(head, mods[0]) {
            let rest = &quals[1..];
            return rest.len() < mods.len()
                && mods[1..1 + rest.len()]
                    .iter()
                    .zip(rest)
                    .all(|(a, b)| *a == b.as_str());
        }
    }
    false
}

/// True when the comment *is* a marker comment for `tag` — the tag must
/// lead the comment text (after the `//`/`///` prefix), so prose that
/// merely mentions the marker syntax does not register.
fn marker_leads(comment: &str, tag: &str) -> bool {
    comment
        .trim_start_matches(['/', '!'])
        .trim_start()
        .starts_with(tag)
}

/// True when `line` (or the contiguous comment/attribute block above it)
/// carries a `// hot:` marker. Attribute lines (`#[inline]`) between the
/// marker and the fn are skipped so the marker can sit above them.
fn hot_marked(lexed: &Lexed, attr_lines: &BTreeSet<u32>, line: u32) -> bool {
    if marker_leads(lexed.comment_on(line), "hot:") {
        return true;
    }
    let mut l = line;
    while l > 1 {
        let c = lexed.comment_on(l - 1);
        if !c.is_empty() {
            if marker_leads(c, "hot:") {
                return true;
            }
        } else if !attr_lines.contains(&(l - 1)) {
            return false;
        }
        l -= 1;
    }
    false
}

/// True when the allocation site at `line` carries an
/// `// alloc: amortized(reason)` waiver with a non-empty reason on the same
/// line or the contiguous comment block above it.
fn alloc_amortized(lexed: &Lexed, line: u32) -> bool {
    comment_at(lexed, line, |c| {
        if !marker_leads(c, "alloc:") {
            return false;
        }
        let Some(at) = c.find("alloc:") else {
            return false;
        };
        let rest = &c[at..];
        let Some(s) = rest.find("amortized(") else {
            return false;
        };
        let after = &rest[s + "amortized(".len()..];
        match after.find(')') {
            Some(close) => !after[..close].trim().is_empty(),
            None => false,
        }
    })
}

/// Splits the leaf names out of a `use` path rendered by the parse layer
/// (`a::b::{c,d}` — token texts concatenated): returns
/// `(module segments, imported names)`.
fn split_use(path: &str) -> (Vec<String>, Vec<String>) {
    let (prefix, group) = match path.find('{') {
        Some(at) => (&path[..at], path[at..].trim_matches(['{', '}'])),
        None => {
            let segs: Vec<&str> = path.split("::").filter(|s| !s.is_empty()).collect();
            let Some((name, mods)) = segs.split_last() else {
                return (Vec::new(), Vec::new());
            };
            return (
                mods.iter().map(|s| s.to_string()).collect(),
                vec![name.to_string()],
            );
        }
    };
    let mods: Vec<String> = prefix
        .split("::")
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let names = group
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && !s.contains(['{', '}', ':']))
        .collect();
    (mods, names)
}

/// Strips `crate`/`self`/`super` heads from a path-qualifier list.
fn strip_relative_heads(quals: &mut Vec<String>) {
    while quals
        .first()
        .is_some_and(|q| q == "crate" || q == "self" || q == "super")
    {
        quals.remove(0);
    }
}

/// The workspace call graph plus per-node leaf/source sites.
pub struct Graph {
    nodes: Vec<Node>,
    adj: Vec<BTreeSet<usize>>,
    files: Vec<(String, String)>,
    stats: GraphStats,
}

impl Graph {
    pub fn stats(&self) -> GraphStats {
        self.stats
    }

    /// `key → file` for every `// hot:`-marked fn (the `--write-hotpath`
    /// scaffold source).
    pub fn hot_fns(&self) -> BTreeMap<String, String> {
        self.nodes
            .iter()
            .filter(|n| n.hot_marked)
            .map(|n| (n.key.clone(), self.files[n.file_idx].0.clone()))
            .collect()
    }

    /// Builds the graph over every stashed library file.
    pub fn build(files: &[GraphFile<'_>]) -> Graph {
        let mut nodes: Vec<Node> = Vec::new();
        // Per-file attribute lines (for the hot-marker scan) and per-file
        // R14 source sites, computed once.
        let mut file_meta: Vec<(BTreeSet<u32>, Vec<Site>)> = Vec::new();
        for gf in files {
            let toks = &gf.ctx.lexed.tokens;
            let attr_lines: BTreeSet<u32> = toks
                .iter()
                .filter(|t| t.text == "#")
                .map(|t| t.line)
                .collect();
            let mut sources: Vec<Site> = rules::unordered_iteration_sites(gf.ctx)
                .into_iter()
                .map(|(line, name)| Site {
                    line,
                    what: format!("unordered iteration over `{name}`"),
                })
                .collect();
            sources.extend(rules::float_accumulation_sites(gf.ctx).into_iter().map(
                |(line, op)| Site {
                    line,
                    what: format!("unjustified float accumulation `{op}`"),
                },
            ));
            file_meta.push((attr_lines, sources));
        }

        for (fi, gf) in files.iter().enumerate() {
            let toks = &gf.ctx.lexed.tokens;
            let (attr_lines, sources) = &file_meta[fi];
            for f in &gf.parsed.fns {
                if f.test_only {
                    continue;
                }
                let key = match &f.owner {
                    Some(o) => format!("{}::{}::{}", gf.module_key, o, f.name),
                    None => format!("{}::{}", gf.module_key, f.name),
                };
                let mut node = Node {
                    key,
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    file_idx: fi,
                    line: f.line,
                    body: f.body,
                    hot_marked: hot_marked(&gf.ctx.lexed, attr_lines, f.line),
                    alloc_sites: Vec::new(),
                    panic_sites: Vec::new(),
                    taint_sites: Vec::new(),
                };
                if let Some(body) = f.body {
                    scan_leaves(toks, body, &gf.ctx.lexed, &mut node);
                    let (lo, hi) = (toks[body.0].line, toks[body.1].line);
                    node.taint_sites.extend(
                        sources
                            .iter()
                            .filter(|s| s.line >= lo && s.line <= hi)
                            .cloned(),
                    );
                }
                nodes.push(node);
            }
        }

        // Global resolution tables.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_of: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut same_file_free: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
        for (idx, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    methods_by_name.entry(&n.name).or_default().push(idx);
                    methods_of
                        .entry((o.as_str(), &n.name))
                        .or_default()
                        .push(idx);
                }
                None => {
                    free_by_name.entry(&n.name).or_default().push(idx);
                    same_file_free
                        .entry((n.file_idx, &n.name))
                        .or_default()
                        .push(idx);
                }
            }
        }
        let mut field_ty: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        for gf in files {
            for s in &gf.parsed.structs {
                if s.test_only {
                    continue;
                }
                for fld in &s.fields {
                    field_ty
                        .entry((s.name.as_str(), fld.name.as_str()))
                        .or_insert(fld.ty.as_str());
                }
            }
        }
        // Per-file imports: name → module segments, from `use` items.
        let mut imports: Vec<BTreeMap<String, Vec<String>>> = Vec::new();
        for gf in files {
            let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for u in &gf.parsed.uses {
                let (mods, names) = split_use(u);
                for name in names {
                    map.entry(name).or_insert_with(|| mods.clone());
                }
            }
            imports.push(map);
        }
        let mod_segs: Vec<Vec<&str>> = files
            .iter()
            .map(|gf| gf.module_key.split("::").collect())
            .collect();

        // Edges.
        let node_files: Vec<usize> = nodes.iter().map(|n| n.file_idx).collect();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        for idx in 0..nodes.len() {
            let Some(body) = nodes[idx].body else {
                continue;
            };
            let fi = nodes[idx].file_idx;
            let toks = &files[fi].ctx.lexed.tokens;
            for i in body.0 + 1..body.1 {
                let t = &toks[i];
                if t.kind != TokKind::Ident
                    || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                    || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
                    || toks.get(i.wrapping_sub(1)).map(|t| t.text.as_str()) == Some("fn")
                {
                    continue;
                }
                let targets = resolve_call(
                    toks,
                    i,
                    &nodes[idx],
                    fi,
                    &free_by_name,
                    &methods_by_name,
                    &methods_of,
                    &same_file_free,
                    &field_ty,
                    &imports[fi],
                    &mod_segs,
                    &node_files,
                );
                for tgt in targets {
                    if tgt != idx {
                        adj[idx].insert(tgt);
                    }
                }
            }
        }

        let stats = GraphStats {
            nodes: nodes.len(),
            edges: adj.iter().map(BTreeSet::len).sum(),
            sccs: scc_count(&adj),
        };
        let files = files
            .iter()
            .map(|gf| (gf.ctx.path.clone(), gf.ctx.crate_name.clone()))
            .collect();
        Graph {
            nodes,
            adj,
            files,
            stats,
        }
    }

    /// Runs R12, R13, R14, and the two-sided hotpath staleness checks,
    /// appending findings.
    pub fn check(&self, manifest: &HotpathManifest, findings: &mut Vec<Finding>) {
        let key_to_idx: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.key.as_str(), i))
            .collect();

        // Two-sided staleness: marked-but-unregistered and registered-but-
        // unmarked both gate (R12 governs the manifest).
        for n in &self.nodes {
            if n.hot_marked && !manifest.entries.contains_key(&n.key) {
                findings.push(Finding {
                    rule: RuleId::HotPathAlloc,
                    file: self.files[n.file_idx].0.clone(),
                    line: n.line,
                    message: format!(
                        "`// hot:`-marked fn `{}` is not registered in \
                         hotpath-manifest.toml; add it (scaffold with --write-hotpath) \
                         or drop the marker",
                        n.key
                    ),
                });
            }
        }
        for key in manifest.entries.keys() {
            let marked = key_to_idx
                .get(key.as_str())
                .is_some_and(|&i| self.nodes[i].hot_marked);
            if !marked {
                findings.push(Finding {
                    rule: RuleId::HotPathAlloc,
                    file: format!("hotpath-manifest.toml ({key})"),
                    line: 1,
                    message: format!(
                        "stale hotpath entry: no fn with a `// hot:` marker matches \
                         `{key}`; remove the entry or re-mark the fn"
                    ),
                });
            }
        }

        // Hot roots in deterministic key order, so the first root to reach a
        // site is stable across runs.
        let hot_roots: Vec<usize> = {
            let mut v: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].hot_marked)
                .collect();
            v.sort_by(|&a, &b| self.nodes[a].key.cmp(&self.nodes[b].key));
            v
        };

        // R12: no unwaived allocation reachable from a hot root.
        self.reach_findings(
            &hot_roots,
            |n| &n.alloc_sites,
            RuleId::HotPathAlloc,
            "allocating call",
            "hoist the allocation out of the hot path or waive the site with \
             `// alloc: amortized(reason)`",
            findings,
        );
        // R13: no panic reachable from a hot root.
        self.reach_findings(
            &hot_roots,
            |n| &n.panic_sites,
            RuleId::PanicFreeKernels,
            "panicking call",
            "restructure with a typed error or let-else so the panic is \
             unreachable from hot code",
            findings,
        );

        // R14: no nondeterminism source reachable from an output sink.
        let mut sinks: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.is_sink(i)).collect();
        sinks.sort_by(|&a, &b| self.nodes[a].key.cmp(&self.nodes[b].key));
        for &sink in &sinks {
            if let Some((src, path)) = self.first_reached(sink, |n| !n.taint_sites.is_empty()) {
                let site = &self.nodes[src].taint_sites[0];
                findings.push(Finding {
                    rule: RuleId::DeterminismTaint,
                    file: self.files[self.nodes[sink].file_idx].0.clone(),
                    line: self.nodes[sink].line,
                    message: format!(
                        "output sink `{}` reaches nondeterminism source `{}` \
                         ({} at {}:{}) via {}; sort or suppress at the source site, \
                         never at the sink",
                        self.nodes[sink].key,
                        self.nodes[src].key,
                        site.what,
                        self.files[self.nodes[src].file_idx].0,
                        site.line,
                        path.join(" -> "),
                    ),
                });
            }
        }
    }

    /// True when node `i` is an R14 output sink: a wire writer
    /// (`encode_*`/`write_*`/`save_*`/`put_*` in the collector/types
    /// crates) or anything in `core::report` — the fns whose bytes land in
    /// artifacts that must be bit-identical across runs.
    fn is_sink(&self, i: usize) -> bool {
        let n = &self.nodes[i];
        let (_, crate_name) = &self.files[n.file_idx];
        if WIRE_CRATES.contains(&crate_name.as_str()) {
            const WRITER_PREFIXES: &[&str] = &["encode_", "write_", "save_", "put_"];
            if WRITER_PREFIXES.iter().any(|p| n.name.starts_with(p)) {
                return true;
            }
        }
        n.key.starts_with("core::report::")
    }

    /// BFS from `root`; returns the first node (in BFS order over sorted
    /// adjacency) satisfying `pred`, with the key path from the root.
    fn first_reached(
        &self,
        root: usize,
        pred: impl Fn(&Node) -> bool,
    ) -> Option<(usize, Vec<String>)> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        seen.insert(root);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            if pred(&self.nodes[v]) {
                return Some((v, self.key_path(root, v, &parent)));
            }
            for &w in &self.adj[v] {
                if seen.insert(w) {
                    parent.insert(w, v);
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// The key chain `root -> .. -> v` recovered from BFS parents.
    fn key_path(&self, root: usize, v: usize, parent: &BTreeMap<usize, usize>) -> Vec<String> {
        let mut chain = vec![v];
        let mut cur = v;
        while cur != root {
            cur = parent[&cur];
            chain.push(cur);
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|i| self.nodes[i].key.clone())
            .collect()
    }

    /// Shared R12/R13 engine: BFS every root (already in deterministic
    /// order); each leaf site is reported once, attributed to the first
    /// root that reaches it, at the leaf's own file:line.
    fn reach_findings(
        &self,
        roots: &[usize],
        sites: impl Fn(&Node) -> &Vec<Site>,
        rule: RuleId,
        noun: &str,
        advice: &str,
        findings: &mut Vec<Finding>,
    ) {
        let mut flagged: BTreeMap<(usize, u32, String), (usize, Vec<String>)> = BTreeMap::new();
        for &root in roots {
            let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
            seen.insert(root);
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                for s in sites(&self.nodes[v]) {
                    let k = (self.nodes[v].file_idx, s.line, s.what.clone());
                    flagged
                        .entry(k)
                        .or_insert_with(|| (root, self.key_path(root, v, &parent)));
                }
                for &w in &self.adj[v] {
                    if seen.insert(w) {
                        parent.insert(w, v);
                        queue.push_back(w);
                    }
                }
            }
        }
        for ((file_idx, line, what), (root, path)) in flagged {
            findings.push(Finding {
                rule,
                file: self.files[file_idx].0.clone(),
                line,
                message: format!(
                    "{noun} `{what}` is reachable from `{}` via {}; {advice}",
                    self.nodes[root].key,
                    path.join(" -> "),
                ),
            });
        }
    }
}

/// Scans one fn body for R12 alloc leaves (minus `// alloc: amortized`
/// waivers), R13 panic leaves, and `Instant::now`-style R14 sources.
fn scan_leaves(toks: &[Tok], body: (usize, usize), lexed: &Lexed, node: &mut Node) {
    for i in body.0..=body.1.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let prev = (i > 0).then(|| toks[i - 1].text.as_str());
        let name = t.text.as_str();

        if prev == Some(".") {
            // `.collect::<Vec<_>>()` spells the turbofish before the parens.
            let called = next == Some("(")
                || (next == Some("::") && toks.get(i + 2).map(|t| t.text.as_str()) == Some("<"));
            if ALLOC_METHODS.contains(&name) && called && !alloc_amortized(lexed, t.line) {
                node.alloc_sites.push(Site {
                    line: t.line,
                    what: format!(".{name}("),
                });
            }
            if (name == "unwrap" || name == "expect") && next == Some("(") {
                node.panic_sites.push(Site {
                    line: t.line,
                    what: format!(".{name}("),
                });
            }
            continue;
        }
        if next == Some("!") {
            if name == "format" && !alloc_amortized(lexed, t.line) {
                node.alloc_sites.push(Site {
                    line: t.line,
                    what: "format!".into(),
                });
            }
            if PANIC_MACROS.contains(&name) {
                node.panic_sites.push(Site {
                    line: t.line,
                    what: format!("{name}!"),
                });
            }
            continue;
        }
        if next == Some("::") && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(") {
            let seg2 = toks.get(i + 2).map(|t| t.text.as_str());
            if name == "Box" && seg2 == Some("new") && !alloc_amortized(lexed, t.line) {
                node.alloc_sites.push(Site {
                    line: t.line,
                    what: "Box::new(".into(),
                });
            }
            if (name == "Instant" || name == "SystemTime") && seg2 == Some("now") {
                node.taint_sites.push(Site {
                    line: t.line,
                    what: format!("{name}::now()"),
                });
            }
        }
    }
}

/// Resolves the call site at token `i` (an ident directly followed by `(`)
/// to zero or more node indices. Empty means external/unresolved — no edge.
#[allow(clippy::too_many_arguments)]
fn resolve_call(
    toks: &[Tok],
    i: usize,
    node: &Node,
    file_idx: usize,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_of: &BTreeMap<(&str, &str), Vec<usize>>,
    same_file_free: &BTreeMap<(usize, &str), Vec<usize>>,
    field_ty: &BTreeMap<(&str, &str), &str>,
    imports: &BTreeMap<String, Vec<String>>,
    mod_segs: &[Vec<&str>],
    node_files: &[usize],
) -> Vec<usize> {
    let name = toks[i].text.as_str();
    let prev = (i > 0).then(|| toks[i - 1].text.as_str());

    // Method call: `recv.name(..)`.
    if prev == Some(".") {
        // `self.name(..)` — the enclosing impl's own method wins.
        if i >= 2 && toks[i - 2].text == "self" {
            if let Some(owner) = &node.owner {
                if let Some(v) = methods_of.get(&(owner.as_str(), name)) {
                    return v.clone();
                }
            }
        }
        // `self.field.name(..)` — the field's declared type, if we know it.
        if i >= 4
            && toks[i - 2].kind == TokKind::Ident
            && toks[i - 3].text == "."
            && toks[i - 4].text == "self"
        {
            if let Some(owner) = &node.owner {
                let fld = toks[i - 2].text.as_str();
                if let Some(ty) = field_ty.get(&(owner.as_str(), fld)) {
                    if let Some(v) = methods_of.get(&(*ty, name)) {
                        return v.clone();
                    }
                }
            }
        }
        // Unknown receiver: conservative trait dispatch to every workspace
        // method with this name — unless the name means std.
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        return methods_by_name.get(name).cloned().unwrap_or_default();
    }

    // Path call: `a::b::name(..)`.
    if prev == Some("::") {
        let mut quals: Vec<String> = Vec::new();
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
            quals.insert(0, toks[j - 2].text.clone());
            j -= 2;
        }
        strip_relative_heads(&mut quals);
        if quals.is_empty() {
            // `crate::name(..)` — fall through to the bare-call rules below
            // with the local-shadowing step skipped (an explicit path is
            // never a local nested fn), which same-file free fns satisfy
            // anyway.
            return free_by_name.get(name).cloned().unwrap_or_default();
        }
        // `Type::name(..)` — the global impl table.
        if let Some(last) = quals.last() {
            if is_type_segment(last) {
                return methods_of
                    .get(&(last.as_str(), name))
                    .cloned()
                    .unwrap_or_default();
            }
        }
        // `module::name(..)` — module-tail matching against node keys. If
        // the path only names a crate root (a re-export), every same-name
        // free fn of that crate matches.
        let candidates: Vec<usize> = free_by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&c| quals_match(&quals, &mod_segs[node_files[c]]))
                    .collect()
            })
            .unwrap_or_default();
        return candidates;
    }

    // Bare call: `name(..)`. Same-file free fns shadow everything.
    if let Some(v) = same_file_free.get(&(file_idx, name)) {
        return v.clone();
    }
    // A `use` import narrows the candidates by module tail; an import that
    // matches nothing falls back to every same-name free fn (the import may
    // rename or re-export in ways the tail heuristic misses).
    if let Some(mods) = imports.get(name) {
        let mut quals = mods.clone();
        strip_relative_heads(&mut quals);
        if let Some(all) = free_by_name.get(name) {
            let narrowed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&c| quals.is_empty() || quals_match(&quals, &mod_segs[node_files[c]]))
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
            return all.clone();
        }
        return Vec::new();
    }
    // No local def, no import: every same-name free fn (same-crate sibling
    // modules need no `use`), or nothing — an external call.
    free_by_name.get(name).cloned().unwrap_or_default()
}

/// Number of strongly connected components (iterative Tarjan — the graph is
/// a few hundred nodes, but recursion depth is still the caller's stack).
fn scc_count(adj: &[BTreeSet<usize>]) -> usize {
    let n = adj.len();
    let adjv: Vec<Vec<usize>> = adj.iter().map(|s| s.iter().copied().collect()).collect();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = 0usize;

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pi)) = frames.last_mut() {
            if *pi < adjv[v].len() {
                let w = adjv[v][*pi];
                *pi += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    sccs += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    sccs
}

//! A lightweight item parser on top of [`crate::lexer`].
//!
//! The per-token rules (R1–R3, R10) reason about local token windows; the
//! item-aware rule (R9 frontier-boundedness) needs to know *which struct a
//! field belongs to*, *which fn a token is inside*, and *who calls whom*.
//! This module extracts exactly that and nothing more: structs with their
//! named fields and outermost field types, fns with their body token
//! ranges — plus an intra-file call map for reachability walks. It is not a
//! Rust parser: no expressions, no patterns, no types beyond the outermost
//! ident. Macro bodies are token soup to it, which is fine — the workspace's
//! invariant surface lives in plain items.
//!
//! One lexer subtlety handled here: the lexer emits `>>` as a single shift
//! token, so balancing the generics of `Vec<Vec<u64>>` must count it as two
//! closing angles (and `<<` as two opening ones).

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::{excluded_ranges, matching};
use std::collections::{BTreeMap, BTreeSet};

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldItem {
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// Outermost type ident after stripping `&`/lifetimes/`mut` and leading
    /// path segments: `std::collections::HashMap<K, V>` → `HashMap`,
    /// `Vec<Vec<u64>>` → `Vec`, `[u8; 4]` → `[`.
    pub ty: String,
}

/// One `struct` item. Tuple structs and unit structs parse with an empty
/// field list (the item-aware rules only care about named fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    pub name: String,
    pub line: u32,
    pub fields: Vec<FieldItem>,
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub test_only: bool,
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Token-index range of the body including both braces; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    pub test_only: bool,
}

/// The items of one parsed file.
#[derive(Debug, Default)]
pub struct Parsed {
    pub structs: Vec<StructItem>,
    pub fns: Vec<FnItem>,
}

impl Parsed {
    /// The first non-test fn with this name (methods and free fns alike).
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| !f.test_only && f.name == name)
    }

    /// The first non-test struct with this name.
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.structs.iter().find(|s| !s.test_only && s.name == name)
    }
}

/// Angle-bracket depth delta of one token, treating the lexer's shift
/// tokens as two angles. `->` and comparison operators never reach this
/// code path inside a type position in practice, but guard `>=` anyway
/// (`const N: usize >= ...` cannot appear in a type; `>>=`/`<<=` can't
/// either — map them conservatively to their shift part).
fn angle_delta(text: &str) -> i32 {
    match text {
        "<" => 1,
        ">" => -1,
        "<<" | "<<=" => 2,
        ">>" | ">>=" => -2,
        _ => 0,
    }
}

/// Skips a generics group starting at `<` (token index `i`), returning the
/// index just past the balanced group. Counts `>>` as two closers so
/// `Vec<Vec<u64>>` balances.
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        depth += angle_delta(&toks[j].text);
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// The outermost type ident of a field/binding type starting at token `i`:
/// strips `&`, lifetimes, `mut`, `dyn`, `Box`-free — then resolves a leading
/// path (`a::b::C`) to its last segment. Non-ident types (`[u8; 4]`,
/// `(A, B)`, `fn(..)`) report their first token text.
fn outermost_ty(toks: &[Tok], mut i: usize) -> Option<String> {
    while let Some(t) = toks.get(i) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&") | (TokKind::Lifetime, _) => i += 1,
            (TokKind::Ident, "mut" | "dyn") => i += 1,
            _ => break,
        }
    }
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return Some(t.text.clone());
    }
    // Follow `a :: b :: C` to the last segment before generics or the end.
    let mut name = t.text.clone();
    let mut j = i + 1;
    while toks.get(j).map(|t| t.text.as_str()) == Some("::") {
        let Some(seg) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            break;
        };
        name = seg.text.clone();
        j += 2;
    }
    Some(name)
}

/// Parses the named fields of a struct body (`toks[open..=close]` with
/// braces at both ends).
fn parse_fields(toks: &[Tok], open: usize, close: usize) -> Vec<FieldItem> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip attributes on the field.
        while toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            match matching(toks, i + 1, "[", "]") {
                Some(e) if e < close => i = e + 1,
                _ => return out,
            }
        }
        // Skip visibility.
        if toks[i].text == "pub" {
            i += 1;
            if toks.get(i).map(|t| t.text.as_str()) == Some("(") {
                match matching(toks, i, "(", ")") {
                    Some(e) if e < close => i = e + 1,
                    _ => return out,
                }
            }
        }
        let (Some(name), Some(colon)) = (toks.get(i), toks.get(i + 1)) else {
            break;
        };
        if name.kind == TokKind::Ident && colon.text == ":" {
            if let Some(ty) = outermost_ty(toks, i + 2) {
                out.push(FieldItem {
                    name: name.text.clone(),
                    line: name.line,
                    ty,
                });
            }
        }
        // Advance to the comma ending this field, skipping nested groups
        // (including generic angles, so a `,` inside `HashMap<K, V>` does
        // not end the field early).
        let mut depth = 0i32;
        let mut angles = 0i32;
        while i < close {
            let t = toks[i].text.as_str();
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => angles += angle_delta(t),
            }
            i += 1;
            if depth == 0 && angles <= 0 && t == "," {
                break;
            }
        }
    }
    out
}

/// Parses the items of a lexed file.
pub fn parse(lexed: &Lexed) -> Parsed {
    let toks = &lexed.tokens;
    let excluded = excluded_ranges(toks);
    let is_excluded = |i: usize| excluded.iter().any(|&(a, b)| i >= a && i <= b);
    let mut out = Parsed::default();

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "struct" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    continue;
                };
                let mut j = i + 2;
                if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
                    j = skip_generics(toks, j);
                }
                // Skip a `where` clause up to the body brace.
                let fields = match toks.get(j).map(|t| t.text.as_str()) {
                    Some("{") => {
                        let open = j;
                        matching(toks, open, "{", "}")
                            .map(|close| parse_fields(toks, open, close))
                            .unwrap_or_default()
                    }
                    Some("where") => {
                        let open = (j..toks.len()).find(|&k| toks[k].text == "{");
                        match open {
                            Some(open) => matching(toks, open, "{", "}")
                                .map(|close| parse_fields(toks, open, close))
                                .unwrap_or_default(),
                            None => Vec::new(),
                        }
                    }
                    // Tuple struct `( .. ) ;` or unit struct `;`.
                    _ => Vec::new(),
                };
                out.structs.push(StructItem {
                    name: name.text.clone(),
                    line: name.line,
                    fields,
                    test_only: is_excluded(i),
                });
            }
            "fn" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    continue; // `fn(..)` pointer type: next token is `(`.
                };
                // The body is the first `{` at paren/angle depth 0 after the
                // signature; a `;` first means a bodiless declaration.
                let mut depth = 0i32;
                let mut angles = 0i32;
                let mut j = i + 2;
                let mut body = None;
                while j < toks.len() {
                    let txt = toks[j].text.as_str();
                    match txt {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 && angles <= 0 => {
                            body = matching(toks, j, "{", "}").map(|close| (j, close));
                            break;
                        }
                        ";" if depth == 0 && angles <= 0 => break,
                        _ => angles += angle_delta(txt),
                    }
                    // `->` resets any stale angle imbalance from comparison
                    // operators in const generic defaults (defensive).
                    if txt == "->" {
                        angles = 0;
                    }
                    j += 1;
                }
                out.fns.push(FnItem {
                    name: name.text.clone(),
                    line: name.line,
                    body,
                    test_only: is_excluded(i),
                });
            }
            _ => {}
        }
    }
    out
}

/// Keywords that look like calls (`if (..)`, `while (..)`, `match (..)`).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "let", "else", "fn",
    "impl", "where", "unsafe", "break", "continue",
];

/// The set of function names called inside `body` (inclusive token range):
/// any ident directly followed by `(`, covering both `foo(..)` and
/// `.foo(..)` spellings, excluding control-flow keywords. Macro calls
/// (`foo!(..)`) are excluded — their token soup is not a call edge.
pub fn calls_in(toks: &[Tok], body: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in body.0..=body.1.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            out.insert(t.text.clone());
        }
    }
    out
}

/// The intra-file call map: fn name → called names. Methods and free fns
/// share one namespace (good enough for reachability inside one module —
/// name collisions only make the walk more generous, never less).
pub fn call_map(toks: &[Tok], parsed: &Parsed) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &parsed.fns {
        if f.test_only {
            continue;
        }
        let Some(body) = f.body else { continue };
        out.entry(f.name.clone())
            .or_default()
            .extend(calls_in(toks, body));
    }
    out
}

/// True when any fn reachable from `start` through the intra-file call map
/// satisfies `pred` on its body. The walk is bounded by the file's fn set,
/// so it always terminates.
pub fn reaches(
    toks: &[Tok],
    parsed: &Parsed,
    start: &str,
    pred: impl Fn(&[Tok], (usize, usize)) -> bool,
) -> bool {
    let map = call_map(toks, parsed);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut work: Vec<&str> = vec![start];
    while let Some(name) = work.pop() {
        if !seen.insert(name) {
            continue;
        }
        let Some(f) = parsed.fn_named(name) else {
            continue;
        };
        if let Some(body) = f.body {
            if pred(toks, body) {
                return true;
            }
        }
        if let Some(callees) = map.get(name) {
            for c in callees {
                if !seen.contains(c.as_str()) {
                    work.push(c);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> (crate::lexer::Lexed, Parsed) {
        let l = lex(src);
        let p = parse(&l);
        (l, p)
    }

    #[test]
    fn struct_fields_with_outermost_types() {
        let (_, p) = parsed(
            "pub struct S<'a> {\n\
             pub entries: VecDeque<(u64, u16)>,\n\
             by_id: std::collections::HashMap<u16, VecDeque<usize>>,\n\
             nested: Vec<Vec<u64>>,\n\
             name: &'a str,\n\
             raw: [u8; 4],\n\
             }\n",
        );
        let s = p.struct_named("S").expect("S parsed");
        let tys: Vec<(&str, &str)> = s
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(
            tys,
            vec![
                ("entries", "VecDeque"),
                ("by_id", "HashMap"),
                ("nested", "Vec"),
                ("name", "str"),
                ("raw", "["),
            ]
        );
    }

    #[test]
    fn shift_token_in_nested_generics_does_not_swallow_fields() {
        // `Vec<Vec<u64>>` ends with the lexer's `>>` token; the next field
        // must still be seen.
        let (_, p) = parsed("struct S { a: Vec<Vec<u64>>, b: u32 }");
        let s = p.struct_named("S").unwrap();
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].name, "b");
    }

    #[test]
    fn fns_get_bodies_inside_and_outside_impls() {
        let (l, p) = parsed(
            "pub fn free(x: u32) -> u32 { helper(x) }\n\
             fn helper(x: u32) -> u32 { x }\n\
             struct S;\n\
             impl S {\n\
                 fn method(&self) { self.other() }\n\
                 fn other(&self) {}\n\
             }\n\
             impl std::fmt::Display for S {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n",
        );
        let free = p.fn_named("free").unwrap();
        assert!(free.body.is_some());
        assert!(p.fn_named("method").unwrap().body.is_some());
        assert!(p.fn_named("fmt").unwrap().body.is_some());
        let calls = calls_in(&l.tokens, free.body.unwrap());
        assert!(calls.contains("helper"));
    }

    #[test]
    fn generic_fn_signatures_parse() {
        let (_, p) = parsed(
            "fn top<K: Clone, V: Ord<Rhs = Vec<Vec<u8>>>>(v: Vec<(K, V)>, cap: usize) -> Vec<K> \
             { v.into_iter().map(|(k, _)| k).collect() }",
        );
        let f = p.fn_named("top").unwrap();
        assert!(f.body.is_some());
    }

    #[test]
    fn raw_identifier_fields_and_fns() {
        let (_, p) =
            parsed("struct S { r#type: Vec<u8> }\nfn r#match(s: &S) -> usize { s.r#type.len() }");
        let s = p.struct_named("S").unwrap();
        assert_eq!(s.fields[0].name, "r#type");
        assert_eq!(s.fields[0].ty, "Vec");
        assert!(p.fn_named("r#match").is_some());
    }

    #[test]
    fn test_items_are_marked() {
        let (_, p) = parsed(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 struct Fixture { xs: Vec<u8> }\n\
                 fn helper() {}\n\
             }\n",
        );
        assert!(!p.fn_named("real").unwrap().test_only);
        assert!(p.fns.iter().any(|f| f.name == "helper" && f.test_only));
        assert!(p.structs.iter().any(|s| s.name == "Fixture" && s.test_only));
        assert!(p.struct_named("Fixture").is_none());
    }

    #[test]
    fn reachability_walks_the_call_map() {
        let (l, p) = parsed(
            "struct S { q: Vec<u8> }\n\
             impl S {\n\
                 fn evict(&mut self) { self.step() }\n\
                 fn step(&mut self) { self.q.pop(); }\n\
                 fn unrelated(&mut self) { self.q.push(1); }\n\
             }\n",
        );
        let pops = |toks: &[Tok], body: (usize, usize)| {
            (body.0..body.1).any(|i| {
                toks[i].text == "q"
                    && toks.get(i + 1).map(|t| t.text.as_str()) == Some(".")
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some("pop")
            })
        };
        assert!(reaches(&l.tokens, &p, "evict", pops));
        assert!(!reaches(&l.tokens, &p, "unrelated", pops));
    }

    #[test]
    fn bodiless_trait_fns_have_no_body() {
        let (_, p) = parsed("trait T { fn sig(&self) -> u32; fn with(&self) -> u32 { 1 } }");
        assert_eq!(p.fn_named("sig").unwrap().body, None);
        assert!(p.fn_named("with").unwrap().body.is_some());
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let (_, p) = parsed("struct P(u8);\nstruct U;\nstruct N { x: u8 }");
        assert!(p.struct_named("P").unwrap().fields.is_empty());
        assert!(p.struct_named("U").unwrap().fields.is_empty());
        assert_eq!(p.struct_named("N").unwrap().fields.len(), 1);
    }
}

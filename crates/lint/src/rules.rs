//! The four per-file rule visitors (R1–R3, R10), operating on the lexed
//! token stream of one file.
//!
//! Every rule is a deliberately *syntactic* over-approximation: this linter
//! has no type information, so it reasons about binding names, declared
//! types, and suffix conventions. False positives are expected and cheap —
//! each rule has an explicit, greppable escape hatch (`// lint: <slug>(...)`
//! annotations for R1–R3, `// float: canonical-order(...)` for R10) that
//! doubles as reviewer-facing documentation of *why* a site is exempt.
//! False negatives are bounded by convention: the rules cover the idioms
//! this workspace actually uses (and the ones that already produced shipped
//! bugs); DESIGN.md §6 lists what each rule does not see.

use crate::findings::{Finding, RuleId};
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// One file ready for linting.
pub struct FileCtx {
    /// Workspace-relative path (as reported in findings).
    pub path: String,
    /// The crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    pub lexed: Lexed,
    /// Token-index ranges (inclusive) belonging to `#[cfg(test)]` / `#[test]`
    /// / `#[bench]` items: excluded from every rule.
    excluded: Vec<(usize, usize)>,
}

/// Crates whose output feeds reports, figures, or serialized artifacts —
/// the R1/R10 scope. `types`, `collector` and `stream` are on the bundle →
/// report path: a nondeterministic value written there reaches the wire or
/// the report without passing through any of the other crates' sites.
pub const OUTPUT_CRATES: &[&str] = &[
    "autofocus",
    "core",
    "trace",
    "stream",
    "collector",
    "types",
    "netmedic",
    "experiments",
    "cli",
];

/// Map/set types whose iteration order is nondeterministic per process.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that begin an iteration over a map/set binding.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that pin an ordering when they appear in the same (or the
/// immediately following) statement as an unordered iteration.
fn is_order_fixing(ident: &str) -> bool {
    ident.starts_with("sort") || ident == "BTreeMap" || ident == "BTreeSet"
}

/// Signed / float cast targets that make a bare timestamp difference safe
/// (`a as i64 - b as i64` is the sanctioned signed-delta idiom — it cannot
/// underflow-wrap the way unsigned `Nanos` subtraction can).
const SIGNED_CASTS: &[&str] = &[
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "TimeDelta",
];

/// Lossy cast targets checked by R3.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32"];

impl FileCtx {
    pub fn new(path: String, crate_name: String, lexed: Lexed) -> Self {
        let excluded = excluded_ranges(&lexed.tokens);
        Self {
            path,
            crate_name,
            lexed,
            excluded,
        }
    }

    fn is_excluded(&self, idx: usize) -> bool {
        self.excluded.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// True when the site at `line` carries a `// lint: <slug>(reason)`
    /// annotation on the same or the preceding line.
    fn annotated(&self, line: u32, slug: &str) -> bool {
        has_annotation(self.lexed.comment_on(line), slug)
            || (line > 1 && has_annotation(self.lexed.comment_on(line - 1), slug))
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.tokens
    }
}

/// Checks `comment` for `lint:` followed (anywhere later) by `slug(reason)`
/// with a non-empty reason.
fn has_annotation(comment: &str, slug: &str) -> bool {
    let Some(at) = comment.find("lint:") else {
        return false;
    };
    let rest = &comment[at..];
    let Some(s) = rest.find(&format!("{slug}(")) else {
        return false;
    };
    let after = &rest[s + slug.len() + 1..];
    match after.find(')') {
        Some(close) => !after[..close].trim().is_empty(),
        None => false,
    }
}

/// Computes token ranges covered by test-only items: any item annotated
/// `#[cfg(test)]`, `#[test]`, or `#[bench]` (including `mod tests { ... }`
/// blocks, which removes their entire contents). Shared with the parse
/// layer ([`crate::parse`]), which marks items inside these ranges
/// test-only.
pub(crate) fn excluded_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let attr_start = i;
            let Some(attr_end) = matching(toks, i + 1, "[", "]") else {
                break;
            };
            let testish = toks[attr_start..=attr_end]
                .iter()
                .any(|t| t.kind == TokKind::Ident && (t.text == "test" || t.text == "bench"));
            if testish {
                // Skip any further attributes on the same item.
                let mut k = attr_end + 1;
                while toks.get(k).map(|t| t.text.as_str()) == Some("#")
                    && toks.get(k + 1).map(|t| t.text.as_str()) == Some("[")
                {
                    match matching(toks, k + 1, "[", "]") {
                        Some(e) => k = e + 1,
                        None => return out,
                    }
                }
                // The item body: first `;` at depth 0, or the matching `}`
                // of the first `{` at depth 0.
                let mut depth = 0i32;
                let mut m = k;
                while m < toks.len() {
                    match toks[m].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ";" if depth == 0 => break,
                        "{" if depth == 0 => {
                            m = matching(toks, m, "{", "}").unwrap_or(toks.len() - 1);
                            break;
                        }
                        _ => {}
                    }
                    m += 1;
                }
                out.push((attr_start, m.min(toks.len().saturating_sub(1))));
                i = m + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the token matching the opener at `open_idx` (`toks[open_idx]`
/// must equal `open`), counting nesting of that delimiter pair only.
pub(crate) fn matching(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Start index of the statement containing `idx`: scans backward to the
/// nearest `;`, `{`, or `}` at the same nesting level.
fn stmt_start(toks: &[Tok], idx: usize) -> usize {
    let mut depth = 0i32;
    let mut j = idx;
    while j > 0 {
        let t = toks[j - 1].text.as_str();
        match t {
            ")" | "]" | "}" if t == "}" && depth == 0 => return j,
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j -= 1;
    }
    0
}

/// End index (exclusive) of the statement containing `idx`: scans forward to
/// the first `;` or block-opening `{` at the same nesting level. Returns the
/// boundary index and whether it stopped at a `;`.
fn stmt_end(toks: &[Tok], idx: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut j = idx;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return (j, false);
                }
                depth -= 1;
            }
            "{" if depth == 0 => return (j, false),
            "}" if depth == 0 => return (j, false),
            ";" if depth == 0 => return (j, true),
            _ => {}
        }
        j += 1;
    }
    (toks.len(), false)
}

/// Timestamp-suffix convention: `ts`, `*_ts`, `*_ns`, `*_nanos`, plus the
/// `Nanos`-typed accessor spellings used across the workspace.
fn is_ts_ident(name: &str) -> bool {
    name == "ts"
        || name == "now"
        || name.ends_with("_ts")
        || name.ends_with("_ns")
        || name.ends_with("_nanos")
}

/// R1 — order-sensitivity: iterating a `HashMap`/`HashSet` binding in
/// non-test code of an output-producing crate must either flow into a sort
/// in the same (or immediately following) statement or carry an
/// `// lint: order-insensitive(reason)` annotation.
pub fn r1_order_sensitivity(ctx: &FileCtx) -> Vec<Finding> {
    if !OUTPUT_CRATES.contains(&ctx.crate_name.as_str()) {
        return Vec::new();
    }
    unordered_iteration_sites(ctx)
        .into_iter()
        .map(|(line, name)| Finding {
            rule: RuleId::OrderSensitivity,
            file: ctx.path.clone(),
            line,
            message: format!(
                "iteration over unordered `{name}` can leak HashMap order into output; \
                 sort in the same statement or annotate \
                 `// lint: order-insensitive(reason)`"
            ),
        })
        .collect()
}

/// The R1 site scan: `(line, binding)` pairs for every unsuppressed
/// unordered iteration in non-test code.
fn unordered_iteration_sites(ctx: &FileCtx) -> Vec<(u32, String)> {
    let toks = ctx.toks();
    let bindings = unordered_bindings(toks);
    if bindings.is_empty() {
        return Vec::new();
    }

    // For-loop expression ranges: (`in`-idx+1 .. body `{`-idx).
    let mut for_ranges: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "for" {
            // Find the `in` of this loop at pattern depth 0.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut in_idx = None;
            while j < toks.len() && j < i + 64 {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" => break,
                    "in" if depth == 0 => {
                        in_idx = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(ii) = in_idx {
                let (end, _) = stmt_end(toks, ii + 1);
                for_ranges.push((ii + 1, end));
            }
        }
    }

    let mut found: BTreeSet<(u32, String)> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !bindings.contains(t.text.as_str()) || ctx.is_excluded(i) {
            continue;
        }
        let name = t.text.as_str();
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let next2 = toks.get(i + 2).map(|t| t.text.as_str());
        let in_for = for_ranges.iter().any(|&(a, b)| i >= a && i < b);

        let method_iter = next == Some(".")
            && next2.is_some_and(|m| ITER_METHODS.contains(&m))
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(");
        // In a for-loop head, a bare (or borrowed) map binding iterates
        // implicitly; `map.len()`-style uses do not.
        let bare_in_for = in_for && next != Some(".");
        if !(method_iter || bare_in_for) {
            continue;
        }

        // Suppression 1: a sort (or ordered-collection collect) in the same
        // statement, or — for `let` statements — in the one that follows
        // (the workspace's `let v: Vec<_> = map.into_iter().collect();
        // v.sort_by(...)` idiom).
        let start = stmt_start(toks, i);
        let (end, ended_at_semi) = stmt_end(toks, i);
        let mut fixing = toks[start..end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && is_order_fixing(&t.text));
        if !fixing && ended_at_semi && toks.get(start).map(|t| t.text.as_str()) == Some("let") {
            let (next_end, _) = stmt_end(toks, end + 1);
            fixing = toks[end + 1..next_end]
                .iter()
                .any(|t| t.kind == TokKind::Ident && is_order_fixing(&t.text));
        }
        if fixing {
            continue;
        }
        // Suppression 2: explicit annotation.
        if ctx.annotated(t.line, "order-insensitive") {
            continue;
        }
        found.insert((t.line, name.to_string()));
    }

    found.into_iter().collect()
}

/// Collects binding names declared with an unordered map/set type in this
/// file: `let` statements whose initializer/type mentions `HashMap`/
/// `HashSet`, plus `name: HashMap<..>` params and fields where the map is
/// the outermost type.
fn unordered_bindings(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !UNORDERED_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Pattern a/c: `let [mut] NAME ... HashMap ...` within one statement.
        let start = stmt_start(toks, i);
        if toks.get(start).map(|t| t.text.as_str()) == Some("let") {
            let mut k = start + 1;
            if toks.get(k).map(|t| t.text.as_str()) == Some("mut") {
                k += 1;
            }
            if let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                out.insert(name.text.clone());
                continue;
            }
        }
        // Pattern b: `NAME : [&] [mut] [std::collections::] HashMap <` —
        // outermost type only (a `Vec<HashMap<..>>` element is reached by
        // indexed/ordered access, not by iterating the map itself).
        let mut j = i;
        let mut ok = true;
        while j > 0 {
            let p = &toks[j - 1];
            match (p.kind, p.text.as_str()) {
                (TokKind::Ident, "std" | "collections" | "mut") => j -= 1,
                (TokKind::Punct, "::" | "&") => j -= 1,
                (TokKind::Lifetime, _) => j -= 1,
                (TokKind::Punct, ":") => break,
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && j >= 2 && toks[j - 1].text == ":" {
            if let Some(name) = toks.get(j - 2).filter(|t| t.kind == TokKind::Ident) {
                out.insert(name.text.clone());
            }
        }
    }
    out
}

/// Operand ident collection for R2/R3: walks outward from an operator,
/// gathering identifiers until an expression boundary at nesting level 0.
///
/// Identifiers *inside* balanced `(...)`/`[...]` groups are skipped: in
/// `bins.entry(d.div_euclid(bin_ns)).or_default() += 1` the quantity being
/// added to is the counter, not the `bin_ns` key buried in the call
/// arguments, and in `rx[rx_idx].ts` the index is not the operand either.
/// Only the top-level receiver chain participates in the suffix check.
fn operand_idents(toks: &[Tok], idx: usize, forward: bool) -> Vec<(usize, String)> {
    let boundary = |t: &str| {
        matches!(
            t,
            ";" | ","
                | "="
                | "=="
                | "!="
                | "<="
                | ">="
                | "<"
                | ">"
                | "&&"
                | "||"
                | "+"
                | "-"
                | "*"
                | "/"
                | "%"
                | "+="
                | "-="
                | "return"
                | "=>"
                | ".."
                | "..="
                | "{"
                | "}"
        )
    };
    let mut out = Vec::new();
    let mut depth = 0i32;
    if forward {
        let mut j = idx + 1;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                s if depth == 0 && boundary(s) => break,
                _ => {}
            }
            if t.kind == TokKind::Ident && depth == 0 {
                out.push((j, t.text.clone()));
            }
            j += 1;
        }
    } else {
        let mut j = idx;
        while j > 0 {
            let t = &toks[j - 1];
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                s if depth == 0 && boundary(s) => break,
                _ => {}
            }
            if t.kind == TokKind::Ident && depth == 0 {
                out.push((j - 1, t.text.clone()));
            }
            j -= 1;
        }
        out.reverse();
    }
    out
}

/// True when the operand ident list contains an `as <signed>` cast — the
/// sanctioned signed-delta idiom.
fn has_signed_cast(idents: &[(usize, String)]) -> bool {
    idents
        .windows(2)
        .any(|w| w[0].1 == "as" && w[0].0 + 1 == w[1].0 && SIGNED_CASTS.contains(&w[1].1.as_str()))
}

/// R2 — saturating time arithmetic: bare `+`, `-`, `+=`, `-=` where either
/// operand is a timestamp-suffixed identifier is an error unless both sides
/// are cast to a signed type first or the site is annotated.
pub fn r2_time_arithmetic(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks();
    let mut out = Vec::new();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "+=" | "-=") {
            continue;
        }
        if ctx.is_excluded(i) {
            continue;
        }
        // Unary +/- (negation, `-1` literals): previous token is an operator
        // or opener, or there is no previous token.
        let unary = match toks.get(i.wrapping_sub(1)) {
            None => true,
            Some(p) => {
                (p.kind == TokKind::Punct && !matches!(p.text.as_str(), ")" | "]" | "}"))
                    || (p.kind == TokKind::Ident
                        && matches!(p.text.as_str(), "return" | "as" | "in" | "if" | "else"))
            }
        };
        if unary && matches!(t.text.as_str(), "+" | "-") {
            continue;
        }
        let left = operand_idents(toks, i, false);
        let right = operand_idents(toks, i, true);
        let ts_involved = left.iter().chain(right.iter()).any(|(j, n)| {
            is_ts_ident(n)
                // Exclude method *names*: `x.checked_sub(slack_ns)` — the
                // ident before a `(` directly after it is a call, fine; but
                // a ts ident used as a call argument still counts. Only
                // skip idents that are path segments of macros (`ns!`).
                && toks.get(j + 1).map(|t| t.text.as_str()) != Some("!")
        });
        if !ts_involved {
            continue;
        }
        if has_signed_cast(&left) && has_signed_cast(&right) {
            continue;
        }
        if seen.contains(&t.line) || ctx.annotated(t.line, "time-arith-ok") {
            continue;
        }
        seen.insert(t.line);
        out.push(Finding {
            rule: RuleId::TimeArithmetic,
            file: ctx.path.clone(),
            line: t.line,
            message: format!(
                "bare `{}` on a timestamp; use saturating_*/wrapping_*/checked_* \
                 (or cast both sides `as i64` for a signed delta, or annotate \
                 `// lint: time-arith-ok(reason)`)",
                t.text
            ),
        });
    }
    out
}

/// R3 — lossy casts on wire-format quantities: `as u8`/`as u16`/`as u32`
/// where the source expression names an IPID / batch / count / length must
/// be `try_into()` (with a typed error) or annotated.
pub fn r3_lossy_cast(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || ctx.is_excluded(i) {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !NARROW_CASTS.contains(&target.text.as_str()) {
            continue;
        }
        let left = operand_idents(toks, i, false);
        let wire = left.iter().any(|(_, n)| {
            let l = n.to_ascii_lowercase();
            l.contains("ipid")
                || l.contains("batch")
                || l.contains("count")
                || l == "len"
                || l.starts_with("n_")
        });
        if !wire || ctx.annotated(t.line, "lossy-cast-ok") {
            continue;
        }
        out.push(Finding {
            rule: RuleId::LossyCast,
            file: ctx.path.clone(),
            line: t.line,
            message: format!(
                "lossy `as {}` on a wire-format quantity; use try_into() with a \
                 typed error or annotate `// lint: lossy-cast-ok(reason)`",
                target.text
            ),
        });
    }
    out
}

/// Runs every per-file rule.
pub fn run_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(r1_order_sensitivity(ctx));
    out.extend(r2_time_arithmetic(ctx));
    out.extend(r3_lossy_cast(ctx));
    out.extend(r10_float_determinism(ctx));
    out
}

/// Idents declared with an `f32`/`f64`-bearing type in this file: struct
/// fields (`qsum: Vec<f64>`), params and `let` ascriptions (`qlen: f64`).
/// The scan is the declaration pattern `ident :` followed by type tokens up
/// to the next top-level boundary; anything containing an `f32`/`f64` ident
/// marks the name. Struct-literal inits match the same pattern, which only
/// over-approximates (the init value would need a float type ident to
/// trigger, and then the name really is float-valued).
fn float_decl_names(toks: &[Tok]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        // `a::b` path segments lex `::`, not `:`; still, skip `ident :` that
        // is actually half of a spaced turbofish — not a thing in this
        // codebase, so no extra guard needed. Scan the type tokens.
        let mut depth = 0i32;
        let mut j = i + 2;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "<<" => depth += 2,
                ">>" => {
                    if depth <= 1 {
                        break;
                    }
                    depth -= 2;
                }
                "," | ";" | "=" if depth == 0 => break,
                "f32" | "f64" if t.kind == TokKind::Ident => {
                    out.insert(toks[i].text.clone());
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// True when a numeric literal is floaty: decimal with a fraction or
/// exponent, or an explicit `f32`/`f64` suffix.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('.')
        || (text.contains(['e', 'E']) && text.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// True when the statement slice shows float involvement: a declared float
/// name, an `f32`/`f64` type ident (covers `as f64` casts, `::<f64>`
/// turbofish, ascriptions), or a floaty literal.
fn stmt_has_float_evidence(toks: &[Tok], float_names: &std::collections::BTreeSet<String>) -> bool {
    toks.iter().any(|t| match t.kind {
        TokKind::Ident => t.text == "f32" || t.text == "f64" || float_names.contains(&t.text),
        TokKind::NumLit => is_float_literal(&t.text),
        _ => false,
    })
}

/// R10 — float determinism: float accumulation (`+=`, `*=`, `.sum()`,
/// `.product()`, `.fold(`) in output-producing crates must carry a
/// `// float: canonical-order(reason)` justification on the same line or in
/// the contiguous comment block above, stating why the operand order is
/// deterministic. Float addition is not associative; if the iteration
/// source is unordered the accumulated value — and therefore the report
/// bytes — can drift between runs (the same failure class R1 guards, one
/// level down). Integer accumulation never triggers: a site is in scope
/// only when the statement shows float involvement.
pub fn r10_float_determinism(ctx: &FileCtx) -> Vec<Finding> {
    if !OUTPUT_CRATES.contains(&ctx.crate_name.as_str()) {
        return Vec::new();
    }
    float_accumulation_sites(ctx)
        .into_iter()
        .map(|(line, op)| Finding {
            rule: RuleId::FloatDeterminism,
            file: ctx.path.clone(),
            line,
            message: format!(
                "float accumulation `{op}` depends on operand order; justify with \
                 `// float: canonical-order(reason)` stating why the order is \
                 deterministic, or accumulate over a sorted source"
            ),
        })
        .collect()
}

/// The R10 site scan: `(line, operator)` pairs for every unjustified float
/// accumulation in non-test code.
fn float_accumulation_sites(ctx: &FileCtx) -> Vec<(u32, String)> {
    let toks = ctx.toks();
    let float_names = float_decl_names(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ctx.is_excluded(i) {
            continue;
        }
        let t = &toks[i];
        let is_acc = match t.text.as_str() {
            "+=" | "*=" => true,
            "sum" | "product" | "fold" if t.kind == TokKind::Ident => {
                i > 0
                    && toks[i - 1].text == "."
                    && matches!(
                        toks.get(i + 1).map(|t| t.text.as_str()),
                        Some("(") | Some("::")
                    )
            }
            _ => false,
        };
        if !is_acc {
            continue;
        }
        let start = stmt_start(toks, i);
        let (end, _) = stmt_end(toks, i);
        if !stmt_has_float_evidence(&toks[start..end.max(i + 1)], &float_names) {
            continue;
        }
        if float_justified(ctx, t.line) {
            continue;
        }
        out.push((t.line, t.text.clone()));
    }
    out
}

/// True when `line` (or the contiguous comment block above it) carries a
/// `// float: canonical-order(reason)` justification with a non-empty
/// reason.
fn float_justified(ctx: &FileCtx, line: u32) -> bool {
    let ok = |c: &str| {
        let Some(at) = c.find("float:") else {
            return false;
        };
        let rest = &c[at..];
        let Some(s) = rest.find("canonical-order(") else {
            return false;
        };
        let after = &rest[s + "canonical-order(".len()..];
        match after.find(')') {
            Some(close) => !after[..close].trim().is_empty(),
            None => false,
        }
    };
    if ok(ctx.lexed.comment_on(line)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        let c = ctx.lexed.comment_on(l - 1);
        if c.is_empty() {
            return false;
        }
        if ok(c) {
            return true;
        }
        l -= 1;
    }
    false
}

//! Finding types and the two output formats (human text, machine JSON).

use std::fmt;

/// The five project invariants `msc-lint` enforces. Retired ids are never
/// reused: R4 (unwrap ratchet), R5 (unsafe audit), R11 (wire parity) and
/// R12–R14 (call-graph rules) are now checked by clippy, the compiler and
/// the golden tests (DESIGN.md §6); R6/R7 belonged to the concurrency
/// rules, R8 to the kernel crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R1 — HashMap/HashSet iteration order must not reach output.
    OrderSensitivity,
    /// R2 — timestamp arithmetic must be saturating/wrapping/checked.
    TimeArithmetic,
    /// R3 — lossy `as` casts on wire-format quantities.
    LossyCast,
    /// R9 — growable collections in streaming scope must be registered in
    /// `frontier-manifest.toml` with a verified eviction path.
    BoundedFrontier,
    /// R10 — float accumulation in output-producing crates requires a
    /// `// float: canonical-order(reason)` justification.
    FloatDeterminism,
}

impl RuleId {
    /// Every rule, in id order — the source of truth for `--explain`
    /// coverage and iteration in tests.
    pub const ALL: [RuleId; 5] = [
        RuleId::OrderSensitivity,
        RuleId::TimeArithmetic,
        RuleId::LossyCast,
        RuleId::BoundedFrontier,
        RuleId::FloatDeterminism,
    ];

    /// Short id used in output and tests ("R1".."R10").
    pub fn id(self) -> &'static str {
        match self {
            RuleId::OrderSensitivity => "R1",
            RuleId::TimeArithmetic => "R2",
            RuleId::LossyCast => "R3",
            RuleId::BoundedFrontier => "R9",
            RuleId::FloatDeterminism => "R10",
        }
    }

    /// Parses a short id ("R9", case-insensitive) back to the rule.
    pub fn from_id(s: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s.trim()))
    }

    /// Human slug used in output ("order-sensitivity", ...).
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::OrderSensitivity => "order-sensitivity",
            RuleId::TimeArithmetic => "time-arithmetic",
            RuleId::LossyCast => "lossy-cast",
            RuleId::BoundedFrontier => "bounded-frontier",
            RuleId::FloatDeterminism => "float-determinism",
        }
    }

    /// One-paragraph doc for `msc-lint --explain R<N>`: what the rule
    /// protects and how a site is suppressed or registered.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::OrderSensitivity => {
                "R1 order-sensitivity: iterating a HashMap/HashSet in an \
                 output-producing crate makes report content depend on hash \
                 seed and insertion history, which breaks the bit-identity \
                 gate. Sort into a Vec or use a BTreeMap before anything \
                 user-visible. Suppress a genuinely order-free loop with \
                 `// lint: order-insensitive(reason)` on the line or in the \
                 comment block above it."
            }
            RuleId::TimeArithmetic => {
                "R2 time-arithmetic: bare `+`/`-` on timestamp-named values \
                 wraps on skew-corrected clocks (the PR 1 skew bug). Use \
                 saturating_/wrapping_/checked_ arithmetic. Suppress a \
                 proven-safe site with `// lint: time-arith-ok(reason)`."
            }
            RuleId::LossyCast => {
                "R3 lossy-cast: `as u8`/`as u16`/`as u32` on wire-format \
                 quantities silently truncates out-of-range values. Use \
                 `try_from` or mask explicitly. Suppress with \
                 `// lint: lossy-cast-ok(reason)`."
            }
            RuleId::BoundedFrontier => {
                "R9 bounded-frontier: every growable collection field \
                 (Vec/VecDeque/HashMap/HashSet/BTreeMap/BTreeSet/BinaryHeap) \
                 on a struct in streaming scope (msc-stream, trace::windowed, \
                 trace::matching, core::streaming) must be registered in \
                 frontier-manifest.toml as `evict(fn): reason` (the named fn \
                 must reach a shrinking call — drain/retain/truncate/clear/\
                 pop_*/split_off/remove — on that field), `fixed: reason` \
                 (the file must never call a growing method on it), or \
                 `retained: reason` (output accumulators, growth accepted). \
                 Unregistered fields and stale entries both gate. Regenerate \
                 scaffolding with `--write-frontier`."
            }
            RuleId::FloatDeterminism => {
                "R10 float-determinism: float accumulation (`+=`, `*=`, \
                 `.sum()`, `.product()`, `.fold(`) in output-producing \
                 crates is sensitive to evaluation order, which breaks the \
                 bit-identity gate if the iteration source is unordered. \
                 Justify each site with `// float: canonical-order(reason)` \
                 on the line or in the comment block above, stating why the \
                 operand order is deterministic."
            }
        }
    }
}

/// One violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {}:{}: {}",
            self.rule.id(),
            self.rule.slug(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// Canonical finding order: (path, line, rule). Both output formats and the
/// driver sort through here, so two runs over the same tree are
/// byte-identical regardless of discovery or rule-evaluation order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (stable field order, sorted input).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"slug\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule.id(),
            f.rule.slug(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_orders_fields() {
        let f = vec![Finding {
            rule: RuleId::OrderSensitivity,
            file: "a\\b\"c.rs".into(),
            line: 7,
            message: "tab\there".into(),
        }];
        let j = to_json(&f);
        assert!(j.contains(r#""rule":"R1""#));
        assert!(j.contains(r#""file":"a\\b\"c.rs""#));
        assert!(j.contains(r#"tab\there"#));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn every_rule_has_a_nonempty_explain_entry() {
        for rule in RuleId::ALL {
            let doc = rule.explain();
            assert!(
                doc.starts_with(&format!("{} {}", rule.id(), rule.slug())),
                "{} explain must open with its id and slug",
                rule.id()
            );
            assert!(
                doc.len() > 80,
                "{} explain too short to be useful",
                rule.id()
            );
        }
    }

    #[test]
    fn rule_ids_round_trip_through_from_id() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_id(rule.id()), Some(rule));
            assert_eq!(RuleId::from_id(&rule.id().to_lowercase()), Some(rule));
        }
        // Retired ids stay unassigned: the panic ratchet, the unsafe audit,
        // the concurrency and kernel-crate rules, wire parity, the call graph.
        for retired in [
            "R4", "R5", "R6", "R7", "R8", "R11", "R12", "R13", "R14", "R15", "",
        ] {
            assert_eq!(RuleId::from_id(retired), None, "{retired:?}");
        }
    }

    #[test]
    fn sort_findings_orders_by_path_line_rule() {
        let f = |rule, file: &str, line| Finding {
            rule,
            file: file.into(),
            line,
            message: String::new(),
        };
        let mut v = vec![
            f(RuleId::FloatDeterminism, "b.rs", 1),
            f(RuleId::OrderSensitivity, "a.rs", 9),
            f(RuleId::TimeArithmetic, "a.rs", 2),
            f(RuleId::OrderSensitivity, "a.rs", 2),
        ];
        sort_findings(&mut v);
        let got: Vec<(&str, u32, &str)> = v
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.rule.id()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a.rs", 2, "R1"),
                ("a.rs", 2, "R2"),
                ("a.rs", 9, "R1"),
                ("b.rs", 1, "R10"),
            ]
        );
    }
}

//! Finding types and the two output formats (human text, machine JSON).

use std::fmt;

/// The eleven project invariants `msc-lint` enforces (ids R6 and R7
/// belonged to the retired concurrency rules, R8 to the retired kernel
/// crate; none is reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R1 — HashMap/HashSet iteration order must not reach output.
    OrderSensitivity,
    /// R2 — timestamp arithmetic must be saturating/wrapping/checked.
    TimeArithmetic,
    /// R3 — lossy `as` casts on wire-format quantities.
    LossyCast,
    /// R4 — panic surface (`unwrap`/`expect`) in library code, baselined.
    PanicSurface,
    /// R5 — `unsafe` requires a `// SAFETY:` comment on the preceding line.
    UnsafeAudit,
    /// R9 — growable collections in streaming scope must be registered in
    /// `frontier-manifest.toml` with a verified eviction path.
    BoundedFrontier,
    /// R10 — float accumulation in output-producing crates requires a
    /// `// float: canonical-order(reason)` justification.
    FloatDeterminism,
    /// R11 — wire-format encode/decode paths must touch the same struct
    /// fields in the same order.
    WireParity,
    /// R12 — functions registered in `hotpath-manifest.toml` must not
    /// transitively reach an allocating call without an
    /// `// alloc: amortized(reason)` annotation at the site.
    HotPathAlloc,
    /// R13 — registered hot fns must not reach
    /// `panic!`/`unwrap`/`expect`/`unreachable!`.
    PanicFreeKernels,
    /// R14 — nondeterminism sources (unordered-map iteration, unjustified
    /// float accumulation, `Instant::now`) must not flow through the call
    /// graph into output sinks (report writers, wire encoders).
    DeterminismTaint,
}

impl RuleId {
    /// Every rule, in id order — the source of truth for `--explain`
    /// coverage and iteration in tests.
    pub const ALL: [RuleId; 11] = [
        RuleId::OrderSensitivity,
        RuleId::TimeArithmetic,
        RuleId::LossyCast,
        RuleId::PanicSurface,
        RuleId::UnsafeAudit,
        RuleId::BoundedFrontier,
        RuleId::FloatDeterminism,
        RuleId::WireParity,
        RuleId::HotPathAlloc,
        RuleId::PanicFreeKernels,
        RuleId::DeterminismTaint,
    ];

    /// Short id used in output and tests ("R1".."R14").
    pub fn id(self) -> &'static str {
        match self {
            RuleId::OrderSensitivity => "R1",
            RuleId::TimeArithmetic => "R2",
            RuleId::LossyCast => "R3",
            RuleId::PanicSurface => "R4",
            RuleId::UnsafeAudit => "R5",
            RuleId::BoundedFrontier => "R9",
            RuleId::FloatDeterminism => "R10",
            RuleId::WireParity => "R11",
            RuleId::HotPathAlloc => "R12",
            RuleId::PanicFreeKernels => "R13",
            RuleId::DeterminismTaint => "R14",
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
            RuleId::PanicSurface => "panic-surface",
            RuleId::UnsafeAudit => "unsafe-audit",
            RuleId::BoundedFrontier => "bounded-frontier",
            RuleId::FloatDeterminism => "float-determinism",
            RuleId::WireParity => "wire-parity",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::PanicFreeKernels => "panic-free-kernels",
            RuleId::DeterminismTaint => "determinism-taint",
        }
    }

    /// The `// lint: <slug>(reason)` annotation that suppresses this rule at
    /// a site, if the rule supports annotations.
    pub fn annotation(self) -> Option<&'static str> {
        match self {
            RuleId::OrderSensitivity => Some("order-insensitive"),
            RuleId::TimeArithmetic => Some("time-arith-ok"),
            RuleId::LossyCast => Some("lossy-cast-ok"),
            RuleId::WireParity => Some("wire-parity-ok"),
            // R4 is governed by the baseline file, R5 by `// SAFETY:`, R9 by
            // the frontier manifest, R10 by `// float: canonical-order`,
            // R12 by the hotpath manifest plus `// alloc: amortized(..)`
            // at the allocation site, R14 by the R1/R10 source-site
            // suppressions — and R13 has no escape hatch at all.
            RuleId::PanicSurface
            | RuleId::UnsafeAudit
            | RuleId::BoundedFrontier
            | RuleId::FloatDeterminism
            | RuleId::HotPathAlloc
            | RuleId::PanicFreeKernels
            | RuleId::DeterminismTaint => None,
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
            RuleId::PanicSurface => {
                "R4 panic-surface: `unwrap`/`expect` in library code turns \
                 malformed input into a crash. Return typed errors instead. \
                 There is no inline suppression; grandfathered counts live \
                 in lint-baseline.toml and only ratchet down (regenerate \
                 with `--write-baseline` after removing sites)."
            }
            RuleId::UnsafeAudit => {
                "R5 unsafe-audit: every `unsafe` block or fn needs a \
                 `// SAFETY:` comment on the preceding lines stating the \
                 invariant that makes it sound. The comment is the \
                 suppression — there is no other escape hatch."
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
            RuleId::WireParity => {
                "R11 wire-parity: for each wire-format struct in the \
                 collector/types crates, a paired writer/reader fn \
                 (encode_/decode_, write_/read_, save_/load_, put_/get_ \
                 with the same suffix, or a reader annotated \
                 `// wire: pair(writer_fn)`) must touch that struct's \
                 fields in the same order and count on both sides. \
                 Suppress a deliberate asymmetry with \
                 `// lint: wire-parity-ok(reason)` on the reader or writer \
                 fn line."
            }
            RuleId::HotPathAlloc => {
                "R12 hot-path-alloc: functions carrying a `// hot:` marker \
                 and registered in hotpath-manifest.toml (the matcher, \
                 timeline and credit-walk inner loops) must not \
                 transitively reach an allocating call — \
                 `.push(`/`.insert(`/`.collect(`/`.to_vec(`/`.clone(`/\
                 `format!`/`Box::new` — through the workspace call graph. \
                 An amortized append into a caller-owned, reused buffer is \
                 waived with `// alloc: amortized(reason)` on the site line \
                 or the comment block above it. Both staleness directions \
                 gate: a `// hot:`-marked fn missing from the manifest, and \
                 a manifest entry whose fn lost its marker or vanished. \
                 Scaffold entries with `--write-hotpath`."
            }
            RuleId::PanicFreeKernels => {
                "R13 panic-free-kernels: every hot fn registered in \
                 hotpath-manifest.toml must not \
                 transitively reach a panicking call — `.unwrap(`/\
                 `.expect(`/`panic!`/`unreachable!`/`todo!`/\
                 `unimplemented!` — through the workspace call graph \
                 (`assert!` contract checks are deliberately exempt). This \
                 turns the R4 count ratchet into a reachability proof on \
                 the paths that matter. There is no suppression: restructure \
                 with typed errors or let-else so the panic is unreachable \
                 from hot code."
            }
            RuleId::DeterminismTaint => {
                "R14 determinism-taint: nondeterminism sources — unordered \
                 HashMap/HashSet iteration without a sort or \
                 `// lint: order-insensitive(reason)`, float accumulation \
                 without `// float: canonical-order(reason)`, and \
                 `Instant::now`/`SystemTime::now` — must not flow through \
                 the workspace call graph into output sinks: wire writers \
                 (`encode_*`/`write_*`/`save_*`/`put_*` in the collector/\
                 types crates) and the report builders in core::report. \
                 This upgrades R1/R10 from statement-local to \
                 interprocedural; suppress at the source site with the \
                 R1/R10 annotations, never at the sink."
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
        assert_eq!(RuleId::from_id("R15"), None);
        // The retired concurrency and kernel-crate rules' ids stay unassigned.
        assert_eq!(RuleId::from_id("R6"), None);
        assert_eq!(RuleId::from_id("R7"), None);
        assert_eq!(RuleId::from_id("R8"), None);
        assert_eq!(RuleId::from_id(""), None);
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
            f(RuleId::WireParity, "b.rs", 1),
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
                ("b.rs", 1, "R11"),
            ]
        );
    }
}

//! Fixture tests: each `tests/fixtures/*.rs` file seeds known violations
//! (or their sanctioned/annotated counterparts) and the assertions here pin
//! the exact (rule, line) sets `msc-lint` must report for them. The fixture
//! files are data, not compiled code — the driver's workspace walk never
//! sees them (it only descends into `src/` trees).

use msc_lint::{lint_source, FrontierManifest, RuleId};

/// Lints a fixture as if it lived in an output-producing library crate.
fn lint_fixture(name: &str, source: &str) -> Vec<(RuleId, u32)> {
    lint_source(&format!("crates/core/src/{name}"), "core", source)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn r1_fixture_lines() {
    let got = lint_fixture(
        "r1_unordered_iteration.rs",
        include_str!("fixtures/r1_unordered_iteration.rs"),
    );
    assert_eq!(
        got,
        vec![
            (RuleId::OrderSensitivity, 8),
            (RuleId::OrderSensitivity, 16)
        ]
    );
}

#[test]
fn r2_fixture_lines() {
    let got = lint_fixture(
        "r2_time_arithmetic.rs",
        include_str!("fixtures/r2_time_arithmetic.rs"),
    );
    assert_eq!(
        got,
        vec![(RuleId::TimeArithmetic, 6), (RuleId::TimeArithmetic, 12)]
    );
}

#[test]
fn r3_fixture_lines() {
    let got = lint_fixture(
        "r3_lossy_cast.rs",
        include_str!("fixtures/r3_lossy_cast.rs"),
    );
    assert_eq!(got, vec![(RuleId::LossyCast, 6), (RuleId::LossyCast, 11)]);
}

#[test]
fn clean_fixture_has_no_findings() {
    let got = lint_fixture("clean.rs", include_str!("fixtures/clean.rs"));
    assert_eq!(got, Vec::new());
}

#[test]
fn violations_vanish_outside_output_crates_for_r1_only() {
    // R1 is scoped to output-producing crates; R2/R3 apply everywhere.
    let r1 = lint_source(
        "crates/sim/src/x.rs",
        "sim",
        include_str!("fixtures/r1_unordered_iteration.rs"),
    );
    assert!(r1.is_empty());
    let r2 = lint_source(
        "crates/sim/src/x.rs",
        "sim",
        include_str!("fixtures/r2_time_arithmetic.rs"),
    );
    assert_eq!(r2.len(), 2);
}

/// Lexer edge cases flowing through the full rule pipeline: raw strings,
/// nested block comments, and `//` inside string literals must neither
/// hide real sites nor fabricate phantom ones.
#[test]
fn lexer_edges_fixture_lines() {
    let got = lint_fixture("lexer_edges.rs", include_str!("fixtures/lexer_edges.rs"));
    assert_eq!(got, vec![(RuleId::LossyCast, 22), (RuleId::LossyCast, 31)]);
}

#[test]
fn r10_fixture_lines() {
    let got = lint_fixture(
        "r10_float_accumulation.rs",
        include_str!("fixtures/r10_float_accumulation.rs"),
    );
    // The bare `+=`, `.sum()`, and `.fold()` fire; the same-line and
    // block-above `// float: canonical-order(...)` justifications pass; the
    // integer counter has no float evidence and is out of scope.
    assert_eq!(
        got,
        vec![
            (RuleId::FloatDeterminism, 6),
            (RuleId::FloatDeterminism, 8),
            (RuleId::FloatDeterminism, 9),
        ]
    );
}

#[test]
fn r10_does_not_apply_outside_output_crates() {
    let got = lint_source(
        "crates/sim/src/x.rs",
        "sim",
        include_str!("fixtures/r10_float_accumulation.rs"),
    );
    assert!(got.iter().all(|f| f.rule != RuleId::FloatDeterminism));
}

/// End-to-end R9 semantics through `msc_lint::run` on a materialized
/// mini-workspace: a verified evictor passes, unregistered growth gates,
/// and both staleness directions (gone field, unverifiable claim) gate.
#[test]
fn frontier_manifest_round_trip() {
    let root = std::env::temp_dir().join(format!("msc-lint-frontier-{}", std::process::id()));
    let src = root.join("crates/stream/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    // `crates/stream/src/lib.rs` → module key `stream`, which is in the R9
    // streaming scope. `buf` is growable; `ingest` grows it and reaches
    // `evict_old`, which shrinks it; `len` touches it without shrinking.
    std::fs::write(
        src.join("lib.rs"),
        "pub struct Engine {\n\
             buf: Vec<u64>,\n\
         }\n\
         impl Engine {\n\
             pub fn ingest(&mut self, v: u64) {\n\
                 self.buf.push(v);\n\
                 self.evict_old();\n\
             }\n\
             pub fn evict_old(&mut self) {\n\
                 while self.buf.len() > 8 {\n\
                     self.buf.pop();\n\
                 }\n\
             }\n\
             pub fn len(&self) -> usize {\n\
                 self.buf.len()\n\
             }\n\
         }\n",
    )
    .expect("fixture lib.rs");

    let verified = FrontierManifest::parse(
        "[frontier]\n\"stream::Engine.buf\" = \"evict(evict_old): ring capped at 8\"\n",
    )
    .expect("frontier manifest");
    let run = msc_lint::run(&root, &verified).expect("lint run");
    assert!(
        run.findings.is_empty(),
        "verified evictor must pass: {:?}",
        run.findings
    );
    assert_eq!(
        run.frontier_fields.get("stream::Engine.buf"),
        Some(&"crates/stream/src/lib.rs".to_string())
    );

    let empty = FrontierManifest::default();
    let run = msc_lint::run(&root, &empty).expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert_eq!(run.findings[0].rule, RuleId::BoundedFrontier);
    assert!(run.findings[0].message.contains("not registered"));

    let gone = FrontierManifest::parse(
        "[frontier]\n\
         \"stream::Engine.buf\" = \"evict(evict_old): ring capped at 8\"\n\
         \"stream::Gone.q\" = \"retained: removed long ago\"\n",
    )
    .expect("frontier manifest");
    let run = msc_lint::run(&root, &gone).expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert!(run.findings[0].message.contains("stale frontier manifest"));
    assert!(run.findings[0].message.contains("stream::Gone.q"));

    let unverifiable = FrontierManifest::parse(
        "[frontier]\n\"stream::Engine.buf\" = \"evict(len): does not actually shrink\"\n",
    )
    .expect("frontier manifest");
    let run = msc_lint::run(&root, &unverifiable).expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert!(run.findings[0]
        .message
        .contains("never calls a shrinking method"));

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// Two identical runs over the same tree must report byte-identical finding
/// lists, already sorted by (path, line, rule) — the property CI diffs rely
/// on.
#[test]
fn findings_output_is_deterministic_and_sorted() {
    let root = std::env::temp_dir().join(format!("msc-lint-determinism-{}", std::process::id()));
    for krate in ["alpha", "zeta"] {
        let src = root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&src).expect("fixture tmp dir");
        std::fs::write(
            src.join("lib.rs"),
            include_str!("fixtures/r2_time_arithmetic.rs"),
        )
        .expect("fixture lib.rs");
    }
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");

    let frontier = FrontierManifest::default();
    let key = |run: &msc_lint::LintRun| -> Vec<(String, u32, &'static str)> {
        run.findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule.id()))
            .collect()
    };
    let first = msc_lint::run(&root, &frontier).expect("lint run");
    let second = msc_lint::run(&root, &frontier).expect("lint run");
    assert_eq!(key(&first), key(&second));
    assert_eq!(first.findings.len(), 4); // 2 R2 sites × 2 crates
    let keys = key(&first);
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out pre-sorted");

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// `--format json` output carries the same findings as the text output, in
/// the same order, with a stable field order — the contract CI diffs and
/// downstream tooling rely on.
#[test]
fn json_output_matches_text_findings() {
    let root = std::env::temp_dir().join(format!("msc-lint-json-{}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    std::fs::write(
        src.join("lib.rs"),
        include_str!("fixtures/r2_time_arithmetic.rs"),
    )
    .expect("fixture lib.rs");
    let run = msc_lint::run(&root, &FrontierManifest::default()).expect("lint run");
    assert!(!run.findings.is_empty());

    let json = msc_lint::to_json(&run.findings);
    let objects: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    assert_eq!(objects.len(), run.findings.len());
    for (obj, f) in objects.iter().zip(&run.findings) {
        // Stable field order: rule, slug, file, line, message.
        let expected = format!(
            "{{\"rule\":\"{}\",\"slug\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule.id(),
            f.rule.slug(),
            f.file,
            f.line,
            f.message
        );
        assert_eq!(obj.trim().trim_end_matches(','), expected);
        // And the text rendering names the same (rule, file, line) triple.
        let text = format!("{f}");
        assert!(text.starts_with(&format!(
            "{} {}: {}:{}: ",
            f.rule.id(),
            f.rule.slug(),
            f.file,
            f.line
        )));
    }

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

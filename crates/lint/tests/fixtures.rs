//! Fixture tests: each `tests/fixtures/*.rs` file seeds known violations
//! (or their sanctioned/annotated counterparts) and the assertions here pin
//! the exact (rule, line) sets `msc-lint` must report for them. The fixture
//! files are data, not compiled code — the driver's workspace walk never
//! sees them (it only descends into `src/` trees).

use msc_lint::{lint_source, Baseline, FileKind, FrontierManifest, HotpathManifest, RuleId};

/// Lints a fixture as if it lived in an output-producing library crate.
fn lint_fixture(name: &str, source: &str) -> Vec<(RuleId, u32)> {
    lint_source(
        &format!("crates/core/src/{name}"),
        "core",
        FileKind::Lib,
        source,
    )
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
fn r4_fixture_lines_exclude_test_module() {
    let got = lint_fixture(
        "r4_panic_surface.rs",
        include_str!("fixtures/r4_panic_surface.rs"),
    );
    // Lines 6 and 11 gate; the unwrap inside `#[cfg(test)] mod tests` does
    // not appear at all.
    assert_eq!(
        got,
        vec![(RuleId::PanicSurface, 6), (RuleId::PanicSurface, 11)]
    );
}

#[test]
fn r5_fixture_lines() {
    let got = lint_fixture("r5_unsafe.rs", include_str!("fixtures/r5_unsafe.rs"));
    assert_eq!(got, vec![(RuleId::UnsafeAudit, 6)]);
}

#[test]
fn clean_fixture_has_no_findings() {
    let got = lint_fixture("clean.rs", include_str!("fixtures/clean.rs"));
    assert_eq!(got, Vec::new());
}

#[test]
fn violations_vanish_outside_output_crates_for_r1_only() {
    // R1 is scoped to output-producing crates; R2/R3/R5 apply everywhere.
    let r1 = lint_source(
        "crates/sim/src/x.rs",
        "sim",
        FileKind::Lib,
        include_str!("fixtures/r1_unordered_iteration.rs"),
    );
    assert!(r1.is_empty());
    let r2 = lint_source(
        "crates/sim/src/x.rs",
        "sim",
        FileKind::Lib,
        include_str!("fixtures/r2_time_arithmetic.rs"),
    );
    assert_eq!(r2.len(), 2);
}

#[test]
fn r4_does_not_apply_to_binaries() {
    let got = lint_source(
        "crates/cli/src/main.rs",
        "cli",
        FileKind::Bin,
        include_str!("fixtures/r4_panic_surface.rs"),
    );
    assert!(got.is_empty());
}

/// End-to-end ratchet semantics through `msc_lint::run` on a materialized
/// mini-workspace: exact baseline passes, over-baseline gates, and an
/// over-generous (stale) baseline gates too.
#[test]
fn baseline_ratchet_round_trip() {
    let root = std::env::temp_dir().join(format!("msc-lint-fixture-{}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    // The driver also walks the workspace-root crate's `src/` tree.
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    std::fs::write(
        src.join("lib.rs"),
        include_str!("fixtures/r4_panic_surface.rs"),
    )
    .expect("fixture lib.rs");

    let exact = Baseline::parse("[r4]\n\"crates/core/src/lib.rs\" = 2\n").expect("baseline");
    let run = msc_lint::run(
        &root,
        &exact,
        &FrontierManifest::default(),
        &HotpathManifest::default(),
    )
    .expect("lint run");
    assert_eq!(run.files, 1);
    assert!(
        run.findings.is_empty(),
        "exact baseline must pass: {:?}",
        run.findings
    );
    assert_eq!(run.r4_counts.get("crates/core/src/lib.rs"), Some(&2));

    let tight = Baseline::parse("[r4]\n\"crates/core/src/lib.rs\" = 1\n").expect("baseline");
    let run = msc_lint::run(
        &root,
        &tight,
        &FrontierManifest::default(),
        &HotpathManifest::default(),
    )
    .expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert_eq!(run.findings[0].rule, RuleId::PanicSurface);
    assert!(run.findings[0].message.contains("baseline allows 1"));

    let stale = Baseline::parse("[r4]\n\"crates/core/src/lib.rs\" = 3\n").expect("baseline");
    let run = msc_lint::run(
        &root,
        &stale,
        &FrontierManifest::default(),
        &HotpathManifest::default(),
    )
    .expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert!(run.findings[0].message.contains("stale baseline"));

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// Lexer edge cases flowing through the full rule pipeline: raw strings,
/// nested block comments, and `//` inside string literals must neither
/// hide real sites nor fabricate phantom ones.
#[test]
fn lexer_edges_fixture_lines() {
    let got = lint_fixture("lexer_edges.rs", include_str!("fixtures/lexer_edges.rs"));
    assert_eq!(
        got,
        vec![(RuleId::UnsafeAudit, 21), (RuleId::UnsafeAudit, 29),]
    );
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
        FileKind::Lib,
        include_str!("fixtures/r10_float_accumulation.rs"),
    );
    assert!(got.iter().all(|f| f.rule != RuleId::FloatDeterminism));
}

#[test]
fn r11_fixture_lines() {
    let got: Vec<(RuleId, u32)> = msc_lint::wire::check_source(
        "crates/collector/src/r11_wire_parity.rs",
        include_str!("fixtures/r11_wire_parity.rs"),
    )
    .into_iter()
    .map(|f| (f.rule, f.line))
    .collect();
    // Only the drifted `decode_rec` gates: `decode_single` matches its
    // writer field-for-field and `decode_skewed` carries a
    // `// lint: wire-parity-ok(...)` justification.
    assert_eq!(got, vec![(RuleId::WireParity, 13)]);
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
    let baseline = Baseline::default();

    let verified = FrontierManifest::parse(
        "[frontier]\n\"stream::Engine.buf\" = \"evict(evict_old): ring capped at 8\"\n",
    )
    .expect("frontier manifest");
    let run =
        msc_lint::run(&root, &baseline, &verified, &HotpathManifest::default()).expect("lint run");
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
    let run =
        msc_lint::run(&root, &baseline, &empty, &HotpathManifest::default()).expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert_eq!(run.findings[0].rule, RuleId::BoundedFrontier);
    assert!(run.findings[0].message.contains("not registered"));

    let gone = FrontierManifest::parse(
        "[frontier]\n\
         \"stream::Engine.buf\" = \"evict(evict_old): ring capped at 8\"\n\
         \"stream::Gone.q\" = \"retained: removed long ago\"\n",
    )
    .expect("frontier manifest");
    let run =
        msc_lint::run(&root, &baseline, &gone, &HotpathManifest::default()).expect("lint run");
    assert_eq!(run.findings.len(), 1);
    assert!(run.findings[0].message.contains("stale frontier manifest"));
    assert!(run.findings[0].message.contains("stream::Gone.q"));

    let unverifiable = FrontierManifest::parse(
        "[frontier]\n\"stream::Engine.buf\" = \"evict(len): does not actually shrink\"\n",
    )
    .expect("frontier manifest");
    let run = msc_lint::run(&root, &baseline, &unverifiable, &HotpathManifest::default())
        .expect("lint run");
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

    let baseline = Baseline::default();
    let frontier = FrontierManifest::default();
    let key = |run: &msc_lint::LintRun| -> Vec<(String, u32, &'static str)> {
        run.findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule.id()))
            .collect()
    };
    let hotpath = HotpathManifest::default();
    let first = msc_lint::run(&root, &baseline, &frontier, &hotpath).expect("lint run");
    let second = msc_lint::run(&root, &baseline, &frontier, &hotpath).expect("lint run");
    assert_eq!(key(&first), key(&second));
    assert_eq!(first.findings.len(), 4); // 2 R2 sites × 2 crates
    let keys = key(&first);
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out pre-sorted");

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// 1-based line of the first source line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    u32::try_from(
        src.lines()
            .position(|l| l.contains(needle))
            .expect("fixture needle present"),
    )
    .expect("fixture fits u32")
        + 1
}

/// End-to-end R12/R13 semantics through `msc_lint::run` on a materialized
/// mini-workspace: a registered hot fn transitively reaching an allocation
/// gates R12 at the leaf, a panic leaf gates R13, an amortized waiver
/// clears the allocation, and both staleness directions (unregistered
/// marker, stale entry) gate.
#[test]
fn hotpath_manifest_round_trip() {
    let root = std::env::temp_dir().join(format!("msc-lint-hotpath-{}", std::process::id()));
    let src = root.join("crates/gr/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    let lib = "pub mod deep;\n\
               \n\
               // hot: fixture scan loop\n\
               pub fn scan(out: &mut Vec<u64>) {\n\
                   crate::deep::extend(out);\n\
               }\n\
               \n\
               // hot: fixture check loop\n\
               pub fn check(x: Option<u64>) -> u64 {\n\
                   crate::deep::guard(x)\n\
               }\n";
    let deep = "pub fn extend(out: &mut Vec<u64>) {\n\
                    out.push(1);\n\
                }\n\
                \n\
                pub fn guard(x: Option<u64>) -> u64 {\n\
                    match x {\n\
                        Some(v) => v,\n\
                        None => panic!(\"fixture\"),\n\
                    }\n\
                }\n";
    std::fs::write(src.join("lib.rs"), lib).expect("fixture lib.rs");
    std::fs::write(src.join("deep.rs"), deep).expect("fixture deep.rs");
    let baseline = Baseline::default();
    let frontier = FrontierManifest::default();

    let registered = HotpathManifest::parse(
        "[hotpath]\n\
         \"gr::scan\" = \"fixture scan\"\n\
         \"gr::check\" = \"fixture check\"\n",
    )
    .expect("hotpath manifest");
    let run = msc_lint::run(&root, &baseline, &frontier, &registered).expect("lint run");
    let got: Vec<(RuleId, &str, u32)> = run
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (
                RuleId::HotPathAlloc,
                "crates/gr/src/deep.rs",
                line_of(deep, "out.push(1);")
            ),
            (
                RuleId::PanicFreeKernels,
                "crates/gr/src/deep.rs",
                line_of(deep, "panic!")
            ),
        ],
        "findings: {:?}",
        run.findings
    );
    assert!(run.findings[0]
        .message
        .contains("gr::scan -> gr::deep::extend"));
    assert!(run.findings[1]
        .message
        .contains("gr::check -> gr::deep::guard"));
    assert_eq!(run.hot_fns.len(), 2);

    // The amortized waiver clears R12 at the site; R13 has no escape hatch.
    let waived = deep.replace(
        "out.push(1);",
        "// alloc: amortized(fixture caller-reserved)\n    out.push(1);",
    );
    std::fs::write(src.join("deep.rs"), waived).expect("fixture deep.rs");
    let run = msc_lint::run(&root, &baseline, &frontier, &registered).expect("lint run");
    assert_eq!(run.findings.len(), 1, "findings: {:?}", run.findings);
    assert_eq!(run.findings[0].rule, RuleId::PanicFreeKernels);
    std::fs::write(src.join("deep.rs"), deep).expect("fixture deep.rs");

    // Two-sided: marked fns missing from the manifest gate...
    let empty = HotpathManifest::default();
    let run = msc_lint::run(&root, &baseline, &frontier, &empty).expect("lint run");
    let unregistered: Vec<&msc_lint::Finding> = run
        .findings
        .iter()
        .filter(|f| f.message.contains("not registered"))
        .collect();
    assert_eq!(unregistered.len(), 2, "findings: {:?}", run.findings);
    assert_eq!(unregistered[0].line, line_of(lib, "pub fn scan"));

    // ...and a stale entry gates too.
    let stale = HotpathManifest::parse(
        "[hotpath]\n\
         \"gr::scan\" = \"fixture scan\"\n\
         \"gr::check\" = \"fixture check\"\n\
         \"gr::gone\" = \"removed long ago\"\n",
    )
    .expect("hotpath manifest");
    let run = msc_lint::run(&root, &baseline, &frontier, &stale).expect("lint run");
    assert!(
        run.findings
            .iter()
            .any(|f| f.message.contains("stale hotpath entry") && f.message.contains("gr::gone")),
        "findings: {:?}",
        run.findings
    );

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// Cross-file resolution, both directions: a same-file fn shadows an
/// allocating import-sibling (no phantom edge), a `use` import resolves
/// into the defining module (no missed edge), and explicit sibling-module
/// paths neither leak to nor miss same-name fns.
#[test]
fn graph_resolution_shadowing_imports_and_siblings() {
    let root = std::env::temp_dir().join(format!("msc-lint-graphres-{}", std::process::id()));
    let src = root.join("crates/gr/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    std::fs::write(
        src.join("lib.rs"),
        "pub mod alloc_mod;\npub mod local_mod;\npub mod import_mod;\npub mod paths;\n",
    )
    .expect("fixture lib.rs");
    let alloc_mod = "pub fn helper(v: &mut Vec<u64>) {\n\
                         v.push(1);\n\
                     }\n\
                     \n\
                     pub fn touch(v: &mut Vec<u64>) {\n\
                         v.push(3);\n\
                     }\n";
    std::fs::write(src.join("alloc_mod.rs"), alloc_mod).expect("fixture alloc_mod.rs");
    // `run_local`'s bare `helper(..)` must bind to the clean same-file fn,
    // not the allocating sibling of the same name.
    std::fs::write(
        src.join("local_mod.rs"),
        "fn helper(v: &mut Vec<u64>) {\n\
             v.pop();\n\
         }\n\
         \n\
         pub fn touch(v: &mut Vec<u64>) {\n\
             v.pop();\n\
         }\n\
         \n\
         // hot: fixture local loop\n\
         pub fn run_local(v: &mut Vec<u64>) {\n\
             helper(v);\n\
         }\n",
    )
    .expect("fixture local_mod.rs");
    // `run_import`'s bare `helper(..)` must follow the `use` into the
    // allocating module.
    std::fs::write(
        src.join("import_mod.rs"),
        "use crate::alloc_mod::helper;\n\
         \n\
         // hot: fixture import loop\n\
         pub fn run_import(v: &mut Vec<u64>) {\n\
             helper(v);\n\
         }\n",
    )
    .expect("fixture import_mod.rs");
    // Explicit sibling paths: `local_mod::touch` is clean and must not pick
    // up `alloc_mod::touch`; `alloc_mod::touch` must not be missed.
    std::fs::write(
        src.join("paths.rs"),
        "// hot: fixture sibling loop\n\
         pub fn run_sibling(v: &mut Vec<u64>) {\n\
             crate::local_mod::touch(v);\n\
         }\n\
         \n\
         // hot: fixture sibling alloc loop\n\
         pub fn run_sibling_alloc(v: &mut Vec<u64>) {\n\
             crate::alloc_mod::touch(v);\n\
         }\n",
    )
    .expect("fixture paths.rs");
    let hotpath = HotpathManifest::parse(
        "[hotpath]\n\
         \"gr::local_mod::run_local\" = \"fixture\"\n\
         \"gr::import_mod::run_import\" = \"fixture\"\n\
         \"gr::paths::run_sibling\" = \"fixture\"\n\
         \"gr::paths::run_sibling_alloc\" = \"fixture\"\n",
    )
    .expect("hotpath manifest");
    let run = msc_lint::run(
        &root,
        &Baseline::default(),
        &FrontierManifest::default(),
        &hotpath,
    )
    .expect("lint run");
    let got: Vec<(RuleId, &str, u32)> = run
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    // Exactly the two real allocations — `v.push(1)` via the import and
    // `v.push(3)` via the explicit path — and nothing from the shadowed or
    // clean-sibling calls.
    assert_eq!(
        got,
        vec![
            (
                RuleId::HotPathAlloc,
                "crates/gr/src/alloc_mod.rs",
                line_of(alloc_mod, "v.push(1);")
            ),
            (
                RuleId::HotPathAlloc,
                "crates/gr/src/alloc_mod.rs",
                line_of(alloc_mod, "v.push(3);")
            ),
        ],
        "findings: {:?}",
        run.findings
    );
    assert!(run.findings[0]
        .message
        .contains("gr::import_mod::run_import -> gr::alloc_mod::helper"));
    assert!(run.findings[1]
        .message
        .contains("gr::paths::run_sibling_alloc -> gr::alloc_mod::touch"));

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// Method-call resolution, both directions: an unknown receiver falls back
/// to every same-name workspace method (conservative trait dispatch — the
/// allocating impl is found), while a `self.field.m(..)` call binds through
/// the field's declared type and must NOT leak to an allocating same-name
/// method on an unrelated type.
#[test]
fn graph_resolution_trait_dispatch_and_field_types() {
    let root = std::env::temp_dir().join(format!("msc-lint-graphdisp-{}", std::process::id()));
    let src = root.join("crates/gt/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    std::fs::write(src.join("lib.rs"), "pub mod scorers;\npub mod fields;\n")
        .expect("fixture lib.rs");
    let scorers = "pub struct Wide;\n\
                   \n\
                   impl Wide {\n\
                       pub fn rescore(&self, v: &mut Vec<u64>) {\n\
                           v.push(1);\n\
                       }\n\
                   }\n\
                   \n\
                   pub struct Greedy;\n\
                   \n\
                   impl Greedy {\n\
                       pub fn bump(&self, v: &mut Vec<u64>) {\n\
                           v.push(2);\n\
                       }\n\
                   }\n\
                   \n\
                   pub trait Scorer {\n\
                       fn rescore(&self, v: &mut Vec<u64>);\n\
                   }\n\
                   \n\
                   // hot: fixture dispatch loop\n\
                   pub fn drive<S: Scorer>(s: &S, v: &mut Vec<u64>) {\n\
                       s.rescore(v);\n\
                   }\n";
    std::fs::write(src.join("scorers.rs"), scorers).expect("fixture scorers.rs");
    std::fs::write(
        src.join("fields.rs"),
        "pub struct Counter {\n\
             n: u64,\n\
         }\n\
         \n\
         impl Counter {\n\
             pub fn bump(&mut self) {\n\
                 self.n += 1;\n\
             }\n\
         }\n\
         \n\
         pub struct Holder {\n\
             c: Counter,\n\
         }\n\
         \n\
         impl Holder {\n\
             // hot: fixture field loop\n\
             pub fn tick(&mut self) {\n\
                 self.c.bump();\n\
             }\n\
         }\n",
    )
    .expect("fixture fields.rs");
    let hotpath = HotpathManifest::parse(
        "[hotpath]\n\
         \"gt::scorers::drive\" = \"fixture\"\n\
         \"gt::fields::Holder::tick\" = \"fixture\"\n",
    )
    .expect("hotpath manifest");
    let run = msc_lint::run(
        &root,
        &Baseline::default(),
        &FrontierManifest::default(),
        &hotpath,
    )
    .expect("lint run");
    let got: Vec<(RuleId, &str, u32)> = run
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    // Only the trait-dispatch fallback finding: `tick`'s field-typed call
    // binds to the clean `Counter::bump`, never the allocating
    // `Greedy::bump` — the `v.push(2)` line must not appear.
    assert_eq!(
        got,
        vec![(
            RuleId::HotPathAlloc,
            "crates/gt/src/scorers.rs",
            line_of(scorers, "v.push(1);")
        )],
        "findings: {:?}",
        run.findings
    );
    assert!(run.findings[0]
        .message
        .contains("gt::scorers::drive -> gt::scorers::Wide::rescore"));

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

/// Re-export resolution: a crate-alias path (`msc_widgets::helper`) whose
/// crate re-exports the fn from an inner module resolves into the defining
/// module — and not to a same-name fn in an unrelated crate.
#[test]
fn graph_resolution_reexports() {
    let root = std::env::temp_dir().join(format!("msc-lint-graphre-{}", std::process::id()));
    let widgets = root.join("crates/widgets/src");
    let other = root.join("crates/other/src");
    std::fs::create_dir_all(&widgets).expect("fixture tmp dir");
    std::fs::create_dir_all(&other).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    std::fs::write(
        widgets.join("lib.rs"),
        "pub mod inner;\n\npub use inner::helper;\n",
    )
    .expect("fixture lib.rs");
    let inner = "pub fn helper(v: &mut Vec<u64>) {\n\
                     v.push(1);\n\
                 }\n";
    std::fs::write(widgets.join("inner.rs"), inner).expect("fixture inner.rs");
    std::fs::write(
        other.join("lib.rs"),
        "pub fn helper(v: &mut Vec<u64>) {\n\
             v.pop();\n\
         }\n\
         \n\
         // hot: fixture reexport loop\n\
         pub fn run(v: &mut Vec<u64>) {\n\
             msc_widgets::helper(v);\n\
         }\n",
    )
    .expect("fixture lib.rs");
    let hotpath =
        HotpathManifest::parse("[hotpath]\n\"other::run\" = \"fixture\"\n").expect("manifest");
    let run = msc_lint::run(
        &root,
        &Baseline::default(),
        &FrontierManifest::default(),
        &hotpath,
    )
    .expect("lint run");
    let got: Vec<(RuleId, &str, u32)> = run
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![(
            RuleId::HotPathAlloc,
            "crates/widgets/src/inner.rs",
            line_of(inner, "v.push(1);")
        )],
        "findings: {:?}",
        run.findings
    );
    assert!(run.findings[0]
        .message
        .contains("other::run -> widgets::inner::helper"));

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
    let run = msc_lint::run(
        &root,
        &Baseline::default(),
        &FrontierManifest::default(),
        &HotpathManifest::default(),
    )
    .expect("lint run");
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

/// The interprocedural rules are wired into the `--explain` registry with
/// their pinned ids and slugs.
#[test]
fn explain_covers_interprocedural_rules() {
    for (id, lead) in [
        ("R12", "R12 hot-path-alloc:"),
        ("R13", "R13 panic-free-kernels:"),
        ("R14", "R14 determinism-taint:"),
    ] {
        let rule = RuleId::from_id(id).expect("registered rule");
        assert!(
            rule.explain().starts_with(lead),
            "explain for {id} must start with {lead:?}"
        );
    }
    assert!(RuleId::from_id("R15").is_none());
}

/// R14 determinism taint end-to-end: a wire-crate `encode_*` sink reaching
/// an unordered-map iteration through the call graph gates at the sink,
/// naming the source site; a sorted helper stays clean.
#[test]
fn determinism_taint_reaches_wire_sinks() {
    let root = std::env::temp_dir().join(format!("msc-lint-taint-{}", std::process::id()));
    let src = root.join("crates/collector/src");
    std::fs::create_dir_all(&src).expect("fixture tmp dir");
    std::fs::create_dir_all(root.join("src")).expect("fixture root src");
    let lib = "use std::collections::HashMap;\n\
               \n\
               fn summarize(m: &HashMap<u32, u32>) -> u32 {\n\
                   let mut acc = 0;\n\
                   for (k, v) in m {\n\
                       acc += k + v;\n\
                   }\n\
                   acc\n\
               }\n\
               \n\
               fn count(m: &HashMap<u32, u32>) -> u32 {\n\
                   m.len() as u32\n\
               }\n\
               \n\
               pub fn encode_summary(m: &HashMap<u32, u32>) -> u32 {\n\
                   summarize(m)\n\
               }\n\
               \n\
               pub fn encode_count(m: &HashMap<u32, u32>) -> u32 {\n\
                   count(m)\n\
               }\n";
    std::fs::write(src.join("lib.rs"), lib).expect("fixture lib.rs");
    let run = msc_lint::run(
        &root,
        &Baseline::default(),
        &FrontierManifest::default(),
        &HotpathManifest::default(),
    )
    .expect("lint run");
    let taint: Vec<&msc_lint::Finding> = run
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::DeterminismTaint)
        .collect();
    // Only the tainted encoder gates — at the sink, naming the source; the
    // `encode_count` path has no nondeterminism and must stay clean.
    assert_eq!(taint.len(), 1, "findings: {:?}", run.findings);
    assert_eq!(taint[0].file, "crates/collector/src/lib.rs");
    assert_eq!(taint[0].line, line_of(lib, "pub fn encode_summary"));
    assert!(taint[0].message.contains("unordered iteration"));
    assert!(taint[0].message.contains("collector::summarize"));

    std::fs::remove_dir_all(&root).expect("fixture tmp cleanup");
}

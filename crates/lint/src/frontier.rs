//! The R9 frontier manifest: `frontier-manifest.toml`.
//!
//! Streaming reconstruction (DESIGN.md §8) only stays within its memory
//! envelope if every collection on the streaming state structs is either
//! evicted by the window frontier, provably fixed-size, or an output
//! accumulator the caller drains. This manifest is the checked-in record of
//! that claim, one entry per growable field, and R9 verifies each entry
//! against the code:
//!
//! * `"module::Struct.field" = "evict(fn_name): reason"` — `fn_name` must
//!   exist in the same file and (directly or through same-file callees)
//!   call a shrinking method on `field`.
//! * `"module::Struct.field" = "fixed: reason"` — the file must never call
//!   a growing method on `field` (sized at construction, only indexed).
//! * `"module::Struct.field" = "retained: reason"` — growth is accepted
//!   (diagnosis output, per-window results the caller consumes).
//!
//! Both staleness directions gate: an unregistered growable field in
//! streaming scope is a finding, and so is an entry whose field vanished,
//! changed to a non-growable type, or whose evictor no longer shrinks it.
//!
//! The file format is a hand-rolled TOML subset (one `[frontier]` table of
//! quoted key/value pairs), no dependencies.

use crate::findings::{Finding, RuleId};
use crate::lexer::Tok;
use crate::parse::{self, Parsed};
use std::collections::BTreeMap;
use std::fmt;

/// Module-key prefixes that put a file in streaming scope for R9.
pub const STREAMING_SCOPE: &[&str] = &[
    "stream",
    "trace::windowed",
    // The windowed engine's send columns and their index live with the
    // matcher step both reconstructors share.
    "trace::matching",
    "core::streaming",
];

/// Outermost field types R9 considers growable.
pub const GROWABLE_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Methods that shrink a collection (satisfy an `evict(fn)` entry).
const SHRINK_METHODS: &[&str] = &[
    "drain",
    "retain",
    "truncate",
    "clear",
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "split_off",
    "remove",
    "remove_entry",
    "take",
];

/// Methods that grow a collection (violate a `fixed` entry).
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "resize",
    "entry",
    "push_str",
];

/// True when `module_key` is in R9's streaming scope.
pub fn in_streaming_scope(module_key: &str) -> bool {
    STREAMING_SCOPE
        .iter()
        .any(|p| module_key == *p || module_key.starts_with(&format!("{p}::")))
}

/// How a registered frontier field is claimed to stay bounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// `evict(fn_name): reason` — fn must reach a shrink call on the field.
    Evict { evictor: String, reason: String },
    /// `fixed: reason` — the file must never grow the field.
    Fixed { reason: String },
    /// `retained: reason` — growth accepted (output accumulator).
    Retained { reason: String },
}

impl Bound {
    fn render(&self) -> String {
        match self {
            Bound::Evict { evictor, reason } => format!("evict({evictor}): {reason}"),
            Bound::Fixed { reason } => format!("fixed: {reason}"),
            Bound::Retained { reason } => format!("retained: {reason}"),
        }
    }

    fn parse(value: &str) -> Option<Bound> {
        if let Some(rest) = value.strip_prefix("evict(") {
            let (evictor, rest) = rest.split_once(')')?;
            let reason = rest.strip_prefix(':')?.trim();
            if evictor.trim().is_empty() || reason.is_empty() {
                return None;
            }
            return Some(Bound::Evict {
                evictor: evictor.trim().to_string(),
                reason: reason.to_string(),
            });
        }
        if let Some(reason) = value.strip_prefix("fixed:") {
            let reason = reason.trim();
            if reason.is_empty() {
                return None;
            }
            return Some(Bound::Fixed {
                reason: reason.to_string(),
            });
        }
        if let Some(reason) = value.strip_prefix("retained:") {
            let reason = reason.trim();
            if reason.is_empty() {
                return None;
            }
            return Some(Bound::Retained {
                reason: reason.to_string(),
            });
        }
        None
    }
}

/// Registered frontier fields: `module::Struct.field` key to [`Bound`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrontierManifest {
    pub fields: BTreeMap<String, Bound>,
}

/// Errors from reading a frontier manifest file.
#[derive(Debug)]
pub enum FrontierError {
    Io(std::io::Error),
    /// Line number and description of the malformed line.
    Parse(usize, String),
}

impl fmt::Display for FrontierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontierError::Io(e) => write!(f, "frontier manifest i/o error: {e}"),
            FrontierError::Parse(line, what) => {
                write!(f, "frontier manifest parse error on line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for FrontierError {}

/// Strips surrounding double quotes, rejecting anything else.
fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
}

impl FrontierManifest {
    /// Parses the manifest text format.
    pub fn parse(text: &str) -> Result<FrontierManifest, FrontierError> {
        let mut out = FrontierManifest::default();
        let mut in_frontier = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                if !line.ends_with(']') {
                    return Err(FrontierError::Parse(
                        lineno,
                        format!("bad table header {line:?}"),
                    ));
                }
                in_frontier = line == "[frontier]";
                continue;
            }
            if !in_frontier {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(FrontierError::Parse(
                    lineno,
                    format!("expected `\"module::Struct.field\" = \"bound\"`, got {line:?}"),
                ));
            };
            let field = unquote(key.trim()).ok_or_else(|| {
                FrontierError::Parse(
                    lineno,
                    format!("field key must be double-quoted, got {:?}", key.trim()),
                )
            })?;
            if !field.contains('.') || !field.contains("::") {
                return Err(FrontierError::Parse(
                    lineno,
                    format!("field key must look like `module::Struct.field`, got {field:?}"),
                ));
            }
            let value = unquote(value.trim()).ok_or_else(|| {
                FrontierError::Parse(
                    lineno,
                    format!("bound must be double-quoted, got {:?}", value.trim()),
                )
            })?;
            let bound = Bound::parse(value).ok_or_else(|| {
                FrontierError::Parse(
                    lineno,
                    format!(
                        "bound must be `evict(fn): reason`, `fixed: reason`, or \
                         `retained: reason`, got {value:?}"
                    ),
                )
            })?;
            out.fields.insert(field.to_string(), bound);
        }
        Ok(out)
    }

    /// Loads from a file; a missing file is an empty manifest.
    pub fn load(path: &std::path::Path) -> Result<FrontierManifest, FrontierError> {
        match std::fs::read_to_string(path) {
            Ok(text) => FrontierManifest::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(FrontierManifest::default()),
            Err(e) => Err(FrontierError::Io(e)),
        }
    }

    /// Renders the canonical file text (sorted, commented header).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# msc-lint frontier manifest (rule R9).\n\
             # Every growable collection field on a streaming-scope struct must be\n\
             # registered here with how it stays bounded:\n\
             #   \"module::Struct.field\" = \"evict(fn_name): reason\"  (fn shrinks the field)\n\
             #   \"module::Struct.field\" = \"fixed: reason\"           (sized at construction)\n\
             #   \"module::Struct.field\" = \"retained: reason\"        (output, caller drains)\n\
             # The lint verifies each claim against the code; stale entries gate.\n\
             # Scaffold new entries with:\n\
             #   cargo run -p msc-lint -- --write-frontier\n\
             \n[frontier]\n",
        );
        for (field, bound) in &self.fields {
            out.push_str(&format!("\"{field}\" = \"{}\"\n", bound.render()));
        }
        out
    }
}

/// True when token `i` starts a direct method call `field . method (` with
/// `method` in `methods`. An intervening index (`field[..].push(..)`)
/// disqualifies — that grows an *element*, not the field itself.
fn field_method_call(toks: &[Tok], i: usize, field: &str, methods: &[&str]) -> bool {
    toks[i].text == field
        && toks.get(i + 1).map(|t| t.text.as_str()) == Some(".")
        && toks
            .get(i + 2)
            .is_some_and(|t| methods.contains(&t.text.as_str()))
        && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
}

/// True when any token in `body` is a `self.field.<method>(` or
/// `x.field.<method>(` style call on `field`.
fn body_calls_on_field(toks: &[Tok], body: (usize, usize), field: &str, methods: &[&str]) -> bool {
    (body.0..=body.1.min(toks.len().saturating_sub(1)))
        .any(|i| field_method_call(toks, i, field, methods))
}

/// One file's worth of R9 analysis. `module_key` is the driver's
/// `crate::module` key for the file; `rel_path` its workspace-relative path.
/// Emits findings for unregistered growable fields and for registered
/// entries whose claims no longer verify. Returns every in-scope growable
/// field key this file contributes (registered or not) — the driver uses
/// the union for the global staleness sweep and `--write-frontier`.
pub fn check_file(
    rel_path: &str,
    module_key: &str,
    toks: &[Tok],
    parsed: &Parsed,
    manifest: &FrontierManifest,
    findings: &mut Vec<Finding>,
) -> Vec<String> {
    let mut seen_keys = Vec::new();
    if !in_streaming_scope(module_key) {
        return seen_keys;
    }
    for st in &parsed.structs {
        if st.test_only {
            continue;
        }
        for field in &st.fields {
            if !GROWABLE_TYPES.contains(&field.ty.as_str()) {
                continue;
            }
            let key = format!("{module_key}::{}.{}", st.name, field.name);
            seen_keys.push(key.clone());
            let Some(bound) = manifest.fields.get(&key) else {
                findings.push(Finding {
                    rule: RuleId::BoundedFrontier,
                    file: rel_path.to_string(),
                    line: field.line,
                    message: format!(
                        "growable field `{}.{}: {}` in streaming scope is not registered \
                         in frontier-manifest.toml (key `{key}`)",
                        st.name, field.name, field.ty
                    ),
                });
                continue;
            };
            match bound {
                Bound::Evict { evictor, .. } => {
                    let Some(f) = parsed.fn_named(evictor) else {
                        findings.push(Finding {
                            rule: RuleId::BoundedFrontier,
                            file: rel_path.to_string(),
                            line: field.line,
                            message: format!(
                                "stale frontier manifest: evictor `{evictor}` for `{key}` \
                                 does not exist in this file"
                            ),
                        });
                        continue;
                    };
                    let shrinks = parse::reaches(toks, parsed, &f.name, |toks, body| {
                        body_calls_on_field(toks, body, &field.name, SHRINK_METHODS)
                    });
                    if !shrinks {
                        findings.push(Finding {
                            rule: RuleId::BoundedFrontier,
                            file: rel_path.to_string(),
                            line: f.line,
                            message: format!(
                                "stale frontier manifest: evictor `{evictor}` for `{key}` \
                                 never calls a shrinking method on `{}`",
                                field.name
                            ),
                        });
                    }
                }
                Bound::Fixed { .. } => {
                    let grows = parsed.fns.iter().filter(|f| !f.test_only).any(|f| {
                        f.body.is_some_and(|body| {
                            body_calls_on_field(toks, body, &field.name, GROW_METHODS)
                        })
                    });
                    if grows {
                        findings.push(Finding {
                            rule: RuleId::BoundedFrontier,
                            file: rel_path.to_string(),
                            line: field.line,
                            message: format!(
                                "stale frontier manifest: `{key}` is registered `fixed` \
                                 but this file calls a growing method on `{}`",
                                field.name
                            ),
                        });
                    }
                }
                Bound::Retained { .. } => {} // existence is the whole claim
            }
        }
    }
    seen_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(module_key: &str, src: &str, manifest: &FrontierManifest) -> Vec<(u32, String)> {
        let lexed = lex(src);
        let parsed = parse::parse(&lexed);
        let mut findings = Vec::new();
        check_file(
            "crates/stream/src/lib.rs",
            module_key,
            &lexed.tokens,
            &parsed,
            manifest,
            &mut findings,
        );
        findings.into_iter().map(|f| (f.line, f.message)).collect()
    }

    const EVICTING: &str = "pub struct Q {\n\
         pending: VecDeque<u64>,\n\
         }\n\
         impl Q {\n\
             pub fn push(&mut self, x: u64) { self.pending.push_back(x) }\n\
             pub fn advance(&mut self) { self.step() }\n\
             fn step(&mut self) { self.pending.pop_front(); }\n\
         }\n";

    #[test]
    fn unregistered_growable_field_gates() {
        let got = check("stream", EVICTING, &FrontierManifest::default());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 2);
        assert!(got[0].1.contains("stream::Q.pending"));
    }

    #[test]
    fn verified_evict_entry_passes() {
        let m = FrontierManifest::parse(
            "[frontier]\n\"stream::Q.pending\" = \"evict(advance): window frontier\"\n",
        )
        .unwrap();
        assert!(check("stream", EVICTING, &m).is_empty());
    }

    #[test]
    fn evictor_reaching_shrink_through_callee_passes() {
        // `advance` itself only calls `step`; the shrink is one hop away.
        let m = FrontierManifest::parse(
            "[frontier]\n\"stream::Q.pending\" = \"evict(step): direct\"\n",
        )
        .unwrap();
        assert!(check("stream", EVICTING, &m).is_empty());
    }

    #[test]
    fn missing_evictor_is_stale() {
        let m = FrontierManifest::parse(
            "[frontier]\n\"stream::Q.pending\" = \"evict(gone): window frontier\"\n",
        )
        .unwrap();
        let got = check("stream", EVICTING, &m);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("does not exist"));
    }

    #[test]
    fn non_shrinking_evictor_is_stale() {
        // `push` only grows; naming it as the evictor must gate.
        let m = FrontierManifest::parse(
            "[frontier]\n\"stream::Q.pending\" = \"evict(push): wrong fn\"\n",
        )
        .unwrap();
        let got = check("stream", EVICTING, &m);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("never calls a shrinking method"));
    }

    #[test]
    fn fixed_entry_verified_against_growth() {
        let src = "pub struct S { slots: Vec<u8> }\n\
             impl S {\n\
                 pub fn get(&self, i: usize) -> u8 { self.slots[i] }\n\
             }\n";
        let m =
            FrontierManifest::parse("[frontier]\n\"stream::S.slots\" = \"fixed: sized at new\"\n")
                .unwrap();
        assert!(check("stream", src, &m).is_empty());

        let growing = "pub struct S { slots: Vec<u8> }\n\
             impl S {\n\
                 pub fn add(&mut self, x: u8) { self.slots.push(x) }\n\
             }\n";
        let got = check("stream", growing, &m);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("registered `fixed`"));
    }

    #[test]
    fn element_growth_does_not_break_a_fixed_outer_vec() {
        // `slots[i].push(..)` grows an element, not the outer Vec.
        let src = "pub struct S { slots: Vec<Vec<u8>> }\n\
             impl S {\n\
                 pub fn add(&mut self, i: usize, x: u8) { self.slots[i].push(x) }\n\
             }\n";
        let m = FrontierManifest::parse(
            "[frontier]\n\"stream::S.slots\" = \"fixed: outer sized at new\"\n",
        )
        .unwrap();
        assert!(check("stream", src, &m).is_empty());
    }

    #[test]
    fn out_of_scope_modules_are_ignored() {
        assert!(check("core::diagnose", EVICTING, &FrontierManifest::default()).is_empty());
        assert!(check("trace::skew", EVICTING, &FrontierManifest::default()).is_empty());
        // But the named submodule scopes do apply.
        assert!(!check("trace::windowed", EVICTING, &FrontierManifest::default()).is_empty());
        assert!(!check("core::streaming", EVICTING, &FrontierManifest::default()).is_empty());
    }

    #[test]
    fn non_growable_fields_need_no_entry() {
        let src = "pub struct S { count: u64, name: String, window: Window }\n";
        assert!(check("stream", src, &FrontierManifest::default()).is_empty());
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = FrontierManifest::default();
        m.fields.insert(
            "stream::Q.pending".into(),
            Bound::Evict {
                evictor: "advance".into(),
                reason: "window frontier".into(),
            },
        );
        m.fields.insert(
            "stream::S.slots".into(),
            Bound::Fixed {
                reason: "sized at new".into(),
            },
        );
        m.fields.insert(
            "stream::Out.diagnoses".into(),
            Bound::Retained {
                reason: "caller drains".into(),
            },
        );
        let parsed = FrontierManifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn missing_file_is_empty() {
        let m =
            FrontierManifest::load(std::path::Path::new("/nonexistent/msc-lint-frontier")).unwrap();
        assert!(m.fields.is_empty());
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(FrontierManifest::parse("[frontier]\nnot a pair\n").is_err());
        assert!(FrontierManifest::parse("[frontier]\n\"a::B.c\" = \"bogus: x\"\n").is_err());
        assert!(FrontierManifest::parse("[frontier]\n\"a::B.c\" = \"evict(): x\"\n").is_err());
        assert!(FrontierManifest::parse("[frontier]\n\"a::B.c\" = \"fixed:\"\n").is_err());
        assert!(FrontierManifest::parse("[frontier]\n\"no-dots\" = \"fixed: x\"\n").is_err());
        assert!(FrontierManifest::parse("[frontier]\n\"a::B.c\" = bare\n").is_err());
    }

    #[test]
    fn unknown_tables_are_ignored() {
        let m = FrontierManifest::parse(
            "[future]\n\"x\" = \"y\"\n[frontier]\n\"a::B.c\" = \"retained: ok\"\n",
        )
        .unwrap();
        assert_eq!(m.fields.len(), 1);
    }
}

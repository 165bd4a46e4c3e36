//! The R12/R13 hotpath manifest: `hotpath-manifest.toml`.
//!
//! The workspace's hot inner loops — the matcher candidate scans, the
//! timeline interval queries and the credit walk — carry a `// hot:` marker
//! comment on the fn and are registered here, each with a one-line reason.
//! Registration is two-sided, like R7/R9: a marked fn missing from the
//! manifest is a finding (the hot surface must be reviewable as a checked-in
//! diff), and a manifest entry whose fn lost its marker or vanished is stale.
//! Registered fns are the roots of the interprocedural R12
//! (allocation-freedom) and R13 (panic-freedom) reachability proofs in
//! [`crate::graph`].
//!
//! Keys are call-graph node keys: `module::fn` for free fns and
//! `module::Owner::fn` for methods (e.g.
//! `trace::matching::EdgeStream::candidate`). The format mirrors
//! [`crate::manifest`]: a hand-rolled TOML subset (one `[hotpath]` table of
//! `"key" = "reason"` entries) keeping the linter dependency-free.

use std::collections::BTreeMap;
use std::fmt;

/// Registered hot fns: call-graph node key to one-line reason.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HotpathManifest {
    pub entries: BTreeMap<String, String>,
}

/// Errors from reading a hotpath manifest file.
#[derive(Debug)]
pub enum HotpathError {
    Io(std::io::Error),
    /// Line number and description of the malformed line.
    Parse(usize, String),
}

impl fmt::Display for HotpathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotpathError::Io(e) => write!(f, "hotpath manifest i/o error: {e}"),
            HotpathError::Parse(line, what) => {
                write!(f, "hotpath manifest parse error on line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for HotpathError {}

/// Strips surrounding double quotes, rejecting anything else.
fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
}

impl HotpathManifest {
    /// Parses the manifest text format.
    pub fn parse(text: &str) -> Result<HotpathManifest, HotpathError> {
        let mut out = HotpathManifest::default();
        let mut in_hotpath = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                if !line.ends_with(']') {
                    return Err(HotpathError::Parse(
                        lineno,
                        format!("bad table header {line:?}"),
                    ));
                }
                in_hotpath = line == "[hotpath]";
                continue;
            }
            if !in_hotpath {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(HotpathError::Parse(
                    lineno,
                    format!("expected `\"module::fn\" = \"reason\"`, got {line:?}"),
                ));
            };
            let fn_key = unquote(key.trim()).ok_or_else(|| {
                HotpathError::Parse(
                    lineno,
                    format!("fn key must be double-quoted, got {:?}", key.trim()),
                )
            })?;
            let reason = unquote(value.trim()).ok_or_else(|| {
                HotpathError::Parse(
                    lineno,
                    format!("reason must be double-quoted, got {:?}", value.trim()),
                )
            })?;
            if reason.trim().is_empty() {
                return Err(HotpathError::Parse(
                    lineno,
                    format!("hot fn {fn_key:?} needs a non-empty reason"),
                ));
            }
            out.entries.insert(fn_key.to_string(), reason.to_string());
        }
        Ok(out)
    }

    /// Loads from a file; a missing file is an empty manifest (so a
    /// workspace with no registered hot paths needs no file).
    pub fn load(path: &std::path::Path) -> Result<HotpathManifest, HotpathError> {
        match std::fs::read_to_string(path) {
            Ok(text) => HotpathManifest::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(HotpathManifest::default()),
            Err(e) => Err(HotpathError::Io(e)),
        }
    }

    /// Renders the canonical file text (sorted, commented header).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# msc-lint hotpath manifest (rules R12/R13).\n\
             # Functions carrying a `// hot:` marker comment are registered here with\n\
             # a one-line reason naming the inner loop they serve. Registered fns are\n\
             # the roots of the interprocedural proofs: they must not transitively\n\
             # reach an allocating call (R12) or a panicking call (R13) through the\n\
             # workspace call graph. Amortized appends into caller-owned, reused\n\
             # buffers are waived site-by-site with `// alloc: amortized(reason)`.\n\
             # A registered fn that loses its marker (or vanishes) trips the stale\n\
             # check. Regenerate with:\n\
             #   cargo run -p msc-lint -- --write-hotpath\n\
             \n[hotpath]\n",
        );
        for (key, reason) in &self.entries {
            out.push_str(&format!("\"{key}\" = \"{reason}\"\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut m = HotpathManifest::default();
        m.entries.insert(
            "trace::matching::EdgeStream::candidate".into(),
            "matcher inner loop".into(),
        );
        m.entries.insert(
            "trace::timeline::NfTimeline::arrived_in".into(),
            "interval query".into(),
        );
        let parsed = HotpathManifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn missing_file_is_empty() {
        let m =
            HotpathManifest::load(std::path::Path::new("/nonexistent/msc-lint-hotpath")).unwrap();
        assert!(m.entries.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(HotpathManifest::parse("[hotpath]\nnot a pair\n").is_err());
        assert!(HotpathManifest::parse("[hotpath]\na::b = \"x\"\n").is_err());
        assert!(HotpathManifest::parse("[hotpath]\n\"a::b\" = bare\n").is_err());
        assert!(HotpathManifest::parse("[hotpath]\n\"a::b\" = \"\"\n").is_err());
    }

    #[test]
    fn unknown_tables_are_ignored() {
        let m = HotpathManifest::parse("[future]\n\"x\" = \"y\"\n[hotpath]\n\"a::b\" = \"ok\"\n")
            .unwrap();
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entries["a::b"], "ok");
    }
}

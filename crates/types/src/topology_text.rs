//! A plain-text deployment description format for the CLI tools.
//!
//! One declaration per line; `#` starts a comment. The operator describes
//! the NF instances (with the offline-measured peak rate `r_i`, §4.1),
//! which NFs the load balancer feeds, and the DAG edges:
//!
//! ```text
//! # name   kind      peak rate (pps)
//! nf  nat1  nat      1923000
//! nf  fw1   firewall 1639000
//! nf  vpn1  vpn       633000
//! entry nat1
//! edge  nat1 fw1
//! edge  fw1  vpn1
//! ```
//!
//! Kinds: `nat`, `firewall`/`fw`, `monitor`/`mon`, `vpn`, or `custom<N>`.

use crate::nf::NfKind;
use crate::topology::{Topology, TopologyError};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse_topology`].
#[derive(Debug)]
pub enum TopologyTextError {
    /// Syntax error at a line (1-based) with a message.
    Syntax(usize, String),
    /// A declaration referenced an undefined NF name.
    UnknownName(usize, String),
    /// The resulting graph failed validation.
    Invalid(TopologyError),
}

impl fmt::Display for TopologyTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyTextError::Syntax(l, m) => write!(f, "line {l}: {m}"),
            TopologyTextError::UnknownName(l, n) => write!(f, "line {l}: unknown NF {n:?}"),
            TopologyTextError::Invalid(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for TopologyTextError {}

fn parse_kind(s: &str) -> Option<NfKind> {
    match s.to_ascii_lowercase().as_str() {
        "nat" => Some(NfKind::Nat),
        "firewall" | "fw" => Some(NfKind::Firewall),
        "monitor" | "mon" => Some(NfKind::Monitor),
        "vpn" => Some(NfKind::Vpn),
        other => other
            .strip_prefix("custom")
            .and_then(|d| d.parse().ok())
            .map(NfKind::Custom),
    }
}

fn kind_str(k: NfKind) -> String {
    match k {
        NfKind::Nat => "nat".into(),
        NfKind::Firewall => "firewall".into(),
        NfKind::Monitor => "monitor".into(),
        NfKind::Vpn => "vpn".into(),
        NfKind::Custom(d) => format!("custom{d}"),
    }
}

/// Parses the text format. Returns the topology and the per-NF peak rates
/// (`r_i`, in `NfId` order).
pub fn parse_topology(text: &str) -> Result<(Topology, Vec<f64>), TopologyTextError> {
    let mut builder = Topology::builder();
    let mut rates: Vec<f64> = Vec::new();
    let mut names: HashMap<String, crate::nf::NfId> = HashMap::new();
    let mut entries: Vec<(usize, String)> = Vec::new();
    let mut edges: Vec<(usize, String, String)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok[0] {
            "nf" => {
                if tok.len() != 4 {
                    return Err(TopologyTextError::Syntax(
                        lineno,
                        "expected: nf <name> <kind> <peak_pps>".into(),
                    ));
                }
                let kind = parse_kind(tok[2]).ok_or_else(|| {
                    TopologyTextError::Syntax(lineno, format!("unknown NF kind {:?}", tok[2]))
                })?;
                let rate: f64 = tok[3].parse().map_err(|_| {
                    TopologyTextError::Syntax(lineno, format!("bad peak rate {:?}", tok[3]))
                })?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(TopologyTextError::Syntax(
                        lineno,
                        "peak rate must be a positive finite number".into(),
                    ));
                }
                let id = builder.add_nf(kind, tok[1]);
                names.insert(tok[1].to_string(), id);
                rates.push(rate);
            }
            "entry" => {
                if tok.len() != 2 {
                    return Err(TopologyTextError::Syntax(
                        lineno,
                        "expected: entry <name>".into(),
                    ));
                }
                entries.push((lineno, tok[1].to_string()));
            }
            "edge" => {
                if tok.len() != 3 {
                    return Err(TopologyTextError::Syntax(
                        lineno,
                        "expected: edge <from> <to>".into(),
                    ));
                }
                edges.push((lineno, tok[1].to_string(), tok[2].to_string()));
            }
            other => {
                return Err(TopologyTextError::Syntax(
                    lineno,
                    format!("unknown declaration {other:?}"),
                ));
            }
        }
    }

    for (lineno, name) in entries {
        let id = *names
            .get(&name)
            .ok_or(TopologyTextError::UnknownName(lineno, name))?;
        builder.add_entry(id);
    }
    for (lineno, from, to) in edges {
        let f = *names
            .get(&from)
            .ok_or_else(|| TopologyTextError::UnknownName(lineno, from.clone()))?;
        let t = *names
            .get(&to)
            .ok_or(TopologyTextError::UnknownName(lineno, to))?;
        builder.add_edge(f, t);
    }
    let topo = builder.build().map_err(|e| match e {
        TopologyError::NoEntry => TopologyTextError::Syntax(
            text.lines().count().max(1),
            "no entry NF: expected at least one `entry <name>` line".into(),
        ),
        e => TopologyTextError::Invalid(e),
    })?;
    Ok((topo, rates))
}

/// Emits the text format for a topology and its peak rates.
pub fn emit_topology(topology: &Topology, rates: &[f64]) -> String {
    let mut out =
        String::from("# Microscope deployment description\n# nf <name> <kind> <peak_pps>\n");
    for (nf, &r) in topology.nfs().iter().zip(rates) {
        out.push_str(&format!(
            "nf {} {} {}\n",
            nf.name,
            kind_str(nf.kind),
            r.round()
        ));
    }
    for &e in topology.entries() {
        out.push_str(&format!("entry {}\n", topology.nf(e).name));
    }
    for nf in topology.nfs() {
        for &d in topology.downstream(nf.id) {
            out.push_str(&format!("edge {} {}\n", nf.name, topology.nf(d).name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_topology;

    #[test]
    fn round_trip_paper_topology() {
        let topo = paper_topology();
        let rates: Vec<f64> = topo
            .nfs()
            .iter()
            .enumerate()
            .map(|(i, _)| 1_000_000.0 + i as f64)
            .collect();
        let text = emit_topology(&topo, &rates);
        let (back, back_rates) = parse_topology(&text).unwrap();
        assert_eq!(back.len(), topo.len());
        for (a, b) in topo.nfs().iter().zip(back.nfs()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
        }
        assert_eq!(back.entries(), topo.entries());
        for nf in topo.nfs() {
            assert_eq!(topo.downstream(nf.id), back.downstream(nf.id));
        }
        assert_eq!(rates, back_rates);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let (t, r) =
            parse_topology("# hello\n\nnf a nat 1000000 # inline comment\nentry a\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(r, vec![1_000_000.0]);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_topology("nf a nat\n").unwrap_err();
        assert!(matches!(err, TopologyTextError::Syntax(1, _)), "{err}");
        let err = parse_topology("nf a nat 1e6\nedge a b\n").unwrap_err();
        assert!(matches!(err, TopologyTextError::UnknownName(2, _)), "{err}");
        let err = parse_topology("bogus\n").unwrap_err();
        assert!(matches!(err, TopologyTextError::Syntax(1, _)));
    }

    #[test]
    fn kind_aliases() {
        assert_eq!(parse_kind("fw"), Some(NfKind::Firewall));
        assert_eq!(parse_kind("mon"), Some(NfKind::Monitor));
        assert_eq!(parse_kind("custom7"), Some(NfKind::Custom(7)));
        assert_eq!(parse_kind("router"), None);
    }

    #[test]
    fn invalid_graph_reported() {
        let err = parse_topology("nf a nat 1e6\nnf b vpn 1e6\nedge a b\nedge b a\n").unwrap_err();
        assert!(matches!(
            err,
            TopologyTextError::Invalid(TopologyError::Cycle)
        ));
    }

    #[test]
    fn rates_that_are_not_positive_finite_numbers_are_rejected() {
        for rate in ["-5", "0", "nan", "inf", "1e400"] {
            let err = parse_topology(&format!("nf a nat 1e6\nnf b nat {rate}\nentry a\n"))
                .expect_err(rate);
            assert!(
                matches!(err, TopologyTextError::Syntax(2, _)),
                "{rate}: {err}"
            );
        }
    }

    #[test]
    fn a_description_without_an_entry_is_rejected_at_its_last_line() {
        let err = parse_topology("nf a nat 1e6\nnf b vpn 1e6\nedge a b\n").unwrap_err();
        assert!(matches!(err, TopologyTextError::Syntax(3, _)), "{err}");
        assert!(err.to_string().contains("no entry NF"), "{err}");
    }
}

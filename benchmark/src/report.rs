//! Reads the diagnosis report `microscope diagnose` / `stream` print on
//! stdout, and scores it against what the workload injected.

/// The numbers and names of one report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub traces: u64,
    pub victims: u64,
    /// "top culprit locations", in printed order: name and victim count.
    pub culprits: Vec<(String, u64)>,
    /// Patterns aggregation produced (the report prints only the top ones).
    pub patterns: u64,
    /// The printed pattern rows, trimmed.
    pub pattern_lines: Vec<String>,
}

/// The unsigned integers of `line`, in order.
fn numbers(line: &str) -> Vec<u64> {
    line.split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// Parses a whole report. Anything short of the full shape — a panic
/// half-way, a killed child, a closed pipe — is an `Err` naming the first
/// part that is missing.
pub fn parse(stdout: &str) -> Result<Report, String> {
    let mut lines = stdout.lines().peekable();

    let head = lines
        .by_ref()
        .find(|l| l.starts_with("reconstructed "))
        .ok_or("no \"reconstructed N traces\" line")?;
    // traces, delivered, dropped, unresolved, ambiguities
    let [traces, _, _, _, _] = numbers(head)[..] else {
        return Err(format!("malformed line: {head:?}"));
    };

    let diag = lines
        .by_ref()
        .find(|l| l.starts_with("diagnosed "))
        .ok_or("no \"diagnosed N victim\" line")?;
    let &[victims] = &numbers(diag)[..] else {
        return Err(format!("malformed line: {diag:?}"));
    };

    lines
        .by_ref()
        .find(|l| l.starts_with("top culprit locations"))
        .ok_or("no \"top culprit locations\" list")?;
    let mut culprits = Vec::new();
    while let Some(l) = lines.next_if(|l| l.starts_with("  ")) {
        let (name, rest) = l
            .split_once(':')
            .ok_or_else(|| format!("malformed culprit row: {l:?}"))?;
        let count = *numbers(rest)
            .first()
            .ok_or_else(|| format!("malformed culprit row: {l:?}"))?;
        culprits.push((name.trim().to_string(), count));
    }

    let summary = lines
        .by_ref()
        .find(|l| l.contains(" causal relations -> "))
        .ok_or("no \"causal relations -> patterns\" line")?;
    let [_relations, patterns, shown] = numbers(summary)[..] else {
        return Err(format!("malformed line: {summary:?}"));
    };
    let pattern_lines: Vec<String> = lines
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.trim().to_string())
        .collect();
    if pattern_lines.len() as u64 != shown {
        return Err(format!(
            "{} of {shown} pattern rows printed",
            pattern_lines.len()
        ));
    }

    Ok(Report {
        traces,
        victims,
        culprits,
        patterns,
        pattern_lines,
    })
}

/// What a workload injected, for scoring.
#[derive(Debug, Clone, Copy)]
pub enum Truth {
    /// Interrupts at these NFs.
    Interrupted(&'static [&'static str]),
    /// A slow path at the NF printed as `loc`, triggered by flows from
    /// source host `src` (printed as a /32 prefix).
    BugFlows {
        src: &'static str,
        loc: &'static str,
    },
}

/// `culprit_recall` of one report.
///
/// Interrupts: the share of interrupted NFs among the first
/// `injected + 1` names under "top culprit locations" (plus one because
/// `traffic-source` is a legitimate answer for the background's bursts).
/// Bug flows: 1 if the culprit side of any printed pattern is a trigger
/// flow at the buggy NF, else 0 — the criterion of `fig14_patterns`; which
/// pattern comes first flips with the service-time noise.
pub fn culprit_recall(report: &Report, truth: Truth) -> f64 {
    match truth {
        Truth::Interrupted(nfs) => {
            let top: Vec<&str> = report
                .culprits
                .iter()
                .take(nfs.len() + 1)
                .map(|(n, _)| n.as_str())
                .collect();
            let hit = nfs.iter().filter(|nf| top.contains(nf)).count();
            hit as f64 / nfs.len().max(1) as f64
        }
        Truth::BugFlows { src, loc } => {
            let names_bug = report.pattern_lines.iter().any(|row| {
                // "<src> <dst> <proto> <sport> <dport> <loc> => <victim side> : score"
                let culprit: Vec<&str> = row
                    .split(" => ")
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect();
                culprit.first() == Some(&src) && culprit.last() == Some(&loc)
            });
            f64::from(u8::from(names_bug))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
estimated clock offsets (ns): [-2000000, 12]

reconstructed 345973 traces: 345970 delivered, 2 dropped, 1 unresolved, 19490 IPID ambiguities
diagnosed 5000 victim (packet, NF) pairs

top culprit locations (victims where ranked #1):
    traffic-source:   2573 victims, blame mass 2331.5
              vpn1:   1297 victims, blame mass 1288.0
              nat2:    294 victims, blame mass 279.8
               fw3:    176 victims, blame mass 169.4
               fw4:    113 victims, blame mass 101.0

1984 causal relations -> 27 patterns; top 2:
  100.0.0.1/32 32.0.0.1/32 6 2003 6003 nf5 => * * * * * nf5 : 41.2
  * * * * * nf8 => 10.0.186.230/32 20.0.9.120/32 6 7486 8080 nf8 : 1.0
";

    #[test]
    fn parses_a_full_report() {
        let r = parse(GOOD).unwrap();
        assert_eq!((r.traces, r.victims), (345_973, 5000));
        assert_eq!(r.culprits.len(), 5);
        assert_eq!(r.culprits[1], ("vpn1".to_string(), 1297));
        assert_eq!(r.patterns, 27);
        assert_eq!(r.pattern_lines.len(), 2);
        assert!(r.pattern_lines[1].starts_with("* * * * * nf8 =>"));
    }

    #[test]
    fn scores_interrupts_and_bug_flows() {
        let r = parse(GOOD).unwrap();
        let all = Truth::Interrupted(&["nat2", "fw3", "vpn1"]);
        assert_eq!(culprit_recall(&r, all), 1.0);
        // fw4 is fifth: outside the four names that count for three NFs.
        let miss = Truth::Interrupted(&["nat2", "fw4", "vpn1"]);
        assert!((culprit_recall(&r, miss) - 2.0 / 3.0).abs() < 1e-12);
        let bug = |loc| Truth::BugFlows {
            src: "100.0.0.1/32",
            loc,
        };
        assert_eq!(culprit_recall(&r, bug("nf5")), 1.0);
        assert_eq!(culprit_recall(&r, bug("nf6")), 0.0);
    }

    #[test]
    fn panicked_report_is_an_error_not_a_crash() {
        // A panic in diagnosis: the head line is out, nothing after it.
        let panicked = GOOD.split("diagnosed").next().unwrap();
        assert!(parse(panicked).unwrap_err().contains("diagnosed"));
        assert!(parse("").unwrap_err().contains("reconstructed"));
        assert!(parse("thread 'main' panicked at ...").is_err());
    }

    #[test]
    fn truncated_report_is_an_error() {
        // Cut inside the pattern rows: fewer rows than the summary names.
        let cut = GOOD.rfind("  * * * * * nf8").unwrap();
        assert!(parse(&GOOD[..cut]).unwrap_err().contains("1 of 2"));
        // Cut before the aggregation summary.
        let cut = GOOD.find("1984 causal").unwrap();
        assert!(parse(&GOOD[..cut])
            .unwrap_err()
            .contains("causal relations"));
        // A mangled head line.
        let bad = GOOD.replace("345973 traces: 345970 delivered,", "traces:");
        assert!(parse(&bad).unwrap_err().contains("malformed"));
    }
}

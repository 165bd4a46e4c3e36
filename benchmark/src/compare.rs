//! `msc-benchmark compare A.json B.json`: two result files of the full
//! run, one row per (workload, end-to-end metric), judged by the metric's
//! own bound and direction as recorded in A.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of either side spread wider than the bound, so a move
    /// inside that spread says nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// `b` against base `a`. `worse` is the share of `a` by which `b` is worse
/// (negative when better). A move within the bound is unchanged, unless
/// the spread of either side exceeds the bound and the move is smaller
/// than that spread: then nothing can be said.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let change = if a.value != 0.0 {
        (b.value - a.value) / a.value.abs()
    } else if b.value == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(b.value)
    };
    // Adding 0.0 turns a negated zero into +0.0, which prints as "+0.00%".
    let worse = if lower_is_better { change } else { -change } + 0.0;
    let noise = a.spread.max(b.spread);
    let verdict = if noise > bound && worse.abs() <= noise {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// Prints the comparison; `Ok(true)` when no row regressed or was
/// unresolved.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = a.get("workloads").ok_or("A has no workloads")?.as_obj();
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>9} {:>7}  verdict (change is a share of A; + is worse)",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut clean = true;
    for (wname, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(wname)) else {
            println!("{wname:<14} missing from B");
            clean = false;
            continue;
        };
        for (mname, ma) in wa.get("end_to_end").map(Json::as_obj).unwrap_or_default() {
            let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64);
            let side = |m: &Json| {
                Some(Side {
                    value: num(m, "value")?,
                    spread: num(m, "spread").unwrap_or(0.0),
                })
            };
            let (Some(sa), Some(sb), Some(bound)) = (
                side(ma),
                wb.get("end_to_end")
                    .and_then(|e| e.get(mname))
                    .and_then(side),
                num(ma, "bound"),
            ) else {
                println!("{wname:<14} {mname:<15} missing from B or malformed");
                clean = false;
                continue;
            };
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let (worse, verdict) = judge(sa, sb, lower, bound);
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            println!(
                "{wname:<14} {mname:<15} {:>12.4} {:>12.4} {:>+8.2}% {:>6.0}%  {}",
                sa.value,
                sb.value,
                worse * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let v = |a, b, lower, bound| judge(a, b, lower, bound).1;
        // Lower is better, bound 10 %.
        assert_eq!(
            v(side(1.0, 0.0), side(1.05, 0.0), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            v(side(1.0, 0.0), side(1.2, 0.0), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            v(side(1.0, 0.0), side(0.8, 0.0), true, 0.1),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            v(side(1.0, 0.0), side(0.8, 0.0), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            v(side(1.0, 0.0), side(1.2, 0.0), false, 0.1),
            Verdict::Improved
        );
        // Bound 0: any worsening regresses, equality is unchanged.
        assert_eq!(
            v(side(1.0, 0.0), side(1.0, 0.0), false, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            v(side(1.0, 0.0), side(0.99, 0.0), false, 0.0),
            Verdict::Regressed
        );
        // Both zero is unchanged; zero to non-zero is an infinite change.
        assert_eq!(
            v(side(0.0, 0.0), side(0.0, 0.0), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            v(side(0.0, 0.0), side(1.0, 0.0), true, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_move_is_wider() {
        let v = |a, b| judge(a, b, true, 0.1).1;
        assert_eq!(v(side(1.0, 0.3), side(1.15, 0.0),), Verdict::Unresolved);
        assert_eq!(v(side(1.0, 0.0), side(0.9, 0.3)), Verdict::Unresolved);
        assert_eq!(v(side(1.0, 0.3), side(1.5, 0.3)), Verdict::Regressed);
        assert_eq!(v(side(1.0, 0.3), side(0.5, 0.3)), Verdict::Improved);
        let (worse, _) = judge(side(2.0, 0.0), side(1.0, 0.0), false, 0.1);
        assert_eq!(worse, 0.5);
    }
}

//! In-memory spans and counts around the calls into each layer.
//!
//! The spans are recorded from this benchmark's own code, at the public
//! function boundaries `crates/cli/src/commands.rs` calls; spans inside
//! the program are a later change (ROADMAP item 1). They stay in memory
//! until the traced pass ends and are then written out as one JSON file.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// The spans and counts of one traced pass; every span carries `run`.
#[derive(Debug)]
pub struct Tracer {
    pub run: u64,
    epoch: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: Vec<(String, f64)>,
}

impl Tracer {
    pub fn new(run: u64) -> Self {
        Self {
            run,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a count taken at the boundary where the work happened.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", s.name.as_str().into()),
                    ("run", self.run.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                ])
            })
            .collect();
        let counts = self.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::obj([
            ("run", self.run.into()),
            ("spans", Json::Arr(spans)),
            ("counts", Json::obj(counts)),
        ])
    }
}

/// A traced pass read back from its file: total milliseconds per span
/// name (a name used more than once, like one push per chunk, adds up),
/// the longest single span per name, and the counts.
#[derive(Debug, Default, Clone)]
pub struct PassSummary {
    pub total_ms: Vec<(String, f64)>,
    pub longest_ms: Vec<(String, f64)>,
    /// Milliseconds covered by spans that have no parent.
    pub top_level_ms: f64,
    pub counts: Vec<(String, f64)>,
}

impl PassSummary {
    pub fn from_json(v: &Json) -> Result<PassSummary, String> {
        let mut s = PassSummary::default();
        for span in v.get("spans").ok_or("trace file has no spans")?.as_arr() {
            let field = |k: &str| span.get(k).and_then(Json::as_f64);
            let (Some(name), Some(start), Some(end)) = (
                span.get("name").and_then(Json::as_str),
                field("start_ns"),
                field("end_ns"),
            ) else {
                return Err(format!("malformed span: {span}"));
            };
            let ms = (end - start) / 1e6;
            add(&mut s.total_ms, name, ms, |a, b| a + b);
            add(&mut s.longest_ms, name, ms, f64::max);
            if span.get("parent") == Some(&Json::Null) {
                s.top_level_ms += ms;
            }
        }
        if let Some(counts) = v.get("counts") {
            for (k, c) in counts.as_obj() {
                s.counts.push((k.clone(), c.as_f64().unwrap_or(0.0)));
            }
        }
        Ok(s)
    }
}

fn add(list: &mut Vec<(String, f64)>, name: &str, v: f64, merge: impl Fn(f64, f64) -> f64) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some((_, acc)) => *acc = merge(*acc, v),
        None => list.push((name.to_string(), v)),
    }
}

/// Looks a name up in one of [`PassSummary`]'s lists.
pub fn lookup(list: &[(String, f64)], name: &str) -> Option<f64> {
    list.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip() {
        let mut t = Tracer::new(7);
        t.span("outer", |t| {
            t.span("inner", |t| t.count("items", 3.0));
            t.span("inner", |_| ());
        });
        t.span("next", |_| ());
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert!(t.spans[1].end_ns <= t.spans[2].start_ns);

        let text = t.to_json().to_string();
        let s = PassSummary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(s.total_ms.len(), 3);
        assert_eq!(lookup(&s.counts, "items"), Some(3.0));
        let outer = lookup(&s.total_ms, "outer").unwrap();
        let inner = lookup(&s.total_ms, "inner").unwrap();
        assert!(inner <= outer);
        assert!(lookup(&s.longest_ms, "inner").unwrap() <= inner);
        let next = lookup(&s.total_ms, "next").unwrap();
        assert!((s.top_level_ms - (outer + next)).abs() < 1e-9);
    }
}

//! Fixture: clean counterpart — every rule's sanctioned form or escape
//! hatch in action. Expected findings: none.

use std::collections::HashMap;

/// R1: collect, then sort in the immediately following statement.
pub fn ranked(scores: &HashMap<String, f64>) -> Vec<(String, f64)> {
    let mut rows: Vec<(String, f64)> = scores.iter().map(|(k, &v)| (k.clone(), v)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// R1: annotated order-insensitive reduction.
pub fn total(counts: &HashMap<String, u64>) -> u64 {
    // lint: order-insensitive(integer summation is commutative and associative)
    counts.values().sum()
}

/// R2: saturating subtraction, the sanctioned form.
pub fn dwell(rx_ts: u64, tx_ts: u64) -> u64 {
    tx_ts.saturating_sub(rx_ts)
}

/// R2: signed-delta idiom — both sides cast to i64 before subtracting.
pub fn skew(rx_ts: u64, tx_ts: u64) -> i64 {
    tx_ts as i64 - rx_ts as i64
}

/// R2: annotated site.
pub fn tick(now_ts: u64) -> u64 {
    // lint: time-arith-ok(fixture exercises the annotation hatch)
    now_ts + 1
}

/// R3: checked narrowing with a typed error.
pub fn pack_len(batch_len: usize) -> Result<u8, std::num::TryFromIntError> {
    u8::try_from(batch_len)
}

/// R3: annotated site.
pub fn small_count(count: u64) -> u32 {
    // lint: lossy-cast-ok(fixture exercises the annotation hatch)
    count as u32
}

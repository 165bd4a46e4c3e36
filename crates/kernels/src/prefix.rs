//! Prefix-sum construction kernels.
//!
//! Both kernels compute their in-chunk running sums with a Hillis–Steele
//! log-step scan over a fixed-width lane array: every step is a shifted
//! lane-wise add over the whole chunk, which the autovectorizer turns into
//! wide adds, and only the chunk carry is a sequential dependency.

use crate::scalar;

const LANES_U32: usize = 16;
const LANES_U64: usize = 8;

/// In-place inclusive prefix sum: `xs[i] <- xs[0] + .. + xs[i]` (wrapping).
///
/// For turning a histogram into offsets. No caller in the pipeline since
/// the IPID index stopped walking the 2^16 IPID space
/// (`msc_trace::matching::IpidRuns` lays runs out in first-appearance
/// order); kept with its twin and equivalence tests until the kernel audit.
// hot: run-offset prefix sum
pub fn inclusive_prefix_sum_u32_in_place(xs: &mut [u32]) {
    if crate::scalar_forced() {
        return scalar::inclusive_prefix_sum_u32_in_place(xs);
    }
    let mut carry = 0u32;
    let mut chunks = xs.chunks_exact_mut(LANES_U32);
    for chunk in &mut chunks {
        let mut v = [0u32; LANES_U32];
        v.copy_from_slice(chunk);
        let mut off = 1;
        while off < LANES_U32 {
            let prev = v;
            for (i, lane) in v.iter_mut().enumerate().skip(off) {
                *lane = lane.wrapping_add(prev[i - off]);
            }
            off *= 2;
        }
        for (dst, lane) in chunk.iter_mut().zip(v) {
            *dst = lane.wrapping_add(carry);
        }
        carry = chunk[LANES_U32 - 1];
    }
    for x in chunks.into_remainder() {
        carry = carry.wrapping_add(*x);
        *x = carry;
    }
}

/// `out <- [0, v0, v0+v1, ...]`: the prefix array with `values.len() + 1`
/// entries, widened to `u64`.
///
/// Used for a timeline's `read_prefix` (batch sizes) and `queued_prefix`
/// (queued-arrival flags).
// hot: cumulative-count prefix sum
pub fn prefix_sum_u64_from_u32(values: &[u32], out: &mut Vec<u64>) {
    if crate::scalar_forced() {
        return scalar::prefix_sum_u64_from_u32(values, out);
    }
    out.clear();
    out.reserve(values.len() + 1);
    // alloc: amortized(appends into the caller's pre-reserved output buffer)
    out.push(0);
    let mut carry = 0u64;
    let mut chunks = values.chunks_exact(LANES_U64);
    for chunk in &mut chunks {
        let mut v = [0u64; LANES_U64];
        for (lane, &x) in v.iter_mut().zip(chunk) {
            *lane = u64::from(x);
        }
        let mut off = 1;
        while off < LANES_U64 {
            let prev = v;
            for (i, lane) in v.iter_mut().enumerate().skip(off) {
                *lane += prev[i - off];
            }
            off *= 2;
        }
        for lane in v {
            // alloc: amortized(capacity reserved up front for values.len() + 1)
            out.push(carry + lane);
        }
        carry += v[LANES_U64 - 1];
    }
    for &x in chunks.remainder() {
        carry += u64::from(x);
        // alloc: amortized(capacity reserved up front for values.len() + 1)
        out.push(carry);
    }
}

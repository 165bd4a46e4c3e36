//! Lexer edge cases: raw strings, nested block comments, and `//` inside
//! string literals must neither hide real sites nor fabricate phantom ones.

/// `unsafe` and a fake justification inside a raw string are not code.
pub fn raw_strings() -> &'static str {
    r#"unsafe { x.unwrap() } // SAFETY: fake"#
}

/// A `//` inside a string literal does not start a comment, so no
/// justification text can be smuggled in through this URL.
pub fn slashes_in_strings() -> String {
    let url = "https://example.invalid/SAFETY:info";
    url.to_string()
}

/* A nested /* block comment */ still hides everything inside it:
   unsafe { } and x.unwrap() never reach the token stream. */

/// SAFETY-free unsafe after the edge cases: the lexer recovered and R5
/// fires at exactly this declaration's line.
pub unsafe fn no_safety_comment() {}

/// After a multi-line raw string with hashes, tokens resume on the right
/// line — this unsafe has no justification and gates at its exact line.
pub fn unjustified_after_edges(v: &[u64]) -> u64 {
    let marker = r##"multi
line "# raw"##;
    let _ = marker;
    unsafe { *v.get_unchecked(0) }
}

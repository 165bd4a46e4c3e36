//! Lexer edge cases: raw strings, nested block comments, and `//` inside
//! string literals must neither hide real sites nor fabricate phantom ones.

/// A narrowing cast and a fake annotation inside a raw string are not code.
pub fn raw_strings() -> &'static str {
    r#"batch_len as u8 // lint: lossy-cast-ok(fake)"#
}

/// A `//` inside a string literal does not start a comment, so no
/// annotation text can be smuggled in through this URL.
pub fn slashes_in_strings() -> String {
    let url = "https://example.invalid/lint: lossy-cast-ok(smuggled)";
    url.to_string()
}

/* A nested /* block comment */ still hides everything inside it:
   `count as u32` and `ipid_counter as u16` never reach the token stream. */

/// An unannotated cast after the edge cases: the lexer recovered and R3
/// fires at exactly this line.
pub fn no_annotation(count: u64) -> u32 {
    count as u32
}

/// After a multi-line raw string with hashes, tokens resume on the right
/// line — this cast has no annotation and gates at its exact line.
pub fn unannotated_after_edges(batch_len: usize) -> u8 {
    let marker = r##"multi
line "# raw"##;
    let _ = marker;
    batch_len as u8
}

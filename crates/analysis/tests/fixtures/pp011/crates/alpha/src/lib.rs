//! PP011 fixture: the declaring crate. Flagged: `only_inside`,
//! `only_in_tests`, `Reexported` (re-export and item), `in_comment_only`;
//! the allows on `named_in_a_string` and `cited_test_gone` are stale.

mod inner;

pub use inner::Reexported;

/// Called only from inside this crate.
pub fn only_inside() -> u32 {
    3
}

/// Called only by this crate's unit tests and its `tests/` directory.
pub fn only_in_tests() -> u32 {
    only_inside()
}

/// Named by the other library crate.
pub fn by_beta() -> u32 {
    1
}

/// Named by this package's bin, a crate of its own.
pub fn by_bin() -> u32 {
    2
}

/// Named by an example.
pub fn by_example() -> u32 {
    4
}

/// Named by the read-only benchmark package.
pub fn by_benchmark() -> u32 {
    5
}

/// Named elsewhere, and its `pub` field names `Mode`.
pub struct Config {
    /// Reachable only through this field.
    pub mode: Mode,
}

/// Used only through `Config`'s signature.
pub enum Mode {
    /// The one mode.
    Fast,
}

/// Mentioned by other crates only in a comment and a string.
pub fn in_comment_only() -> u32 {
    6
}

/// Kept public on purpose.
// tidy:allow(PP011): fixture of a justified exception
pub fn allowed() -> u32 {
    7
}

/// Kept public for the integration test that calls it.
// tidy:allow(PP011): oracle for by_beta, in crates/alpha/tests/it.rs
pub fn held_by_test() -> u32 {
    8
}

/// Stale: the cited test names it only in a string and a comment.
// tidy:allow(PP011): oracle for by_beta, in crates/alpha/tests/it.rs
pub fn named_in_a_string() -> u32 {
    9
}

/// Stale: the cited test is gone.
// tidy:allow(PP011): oracle for by_beta, in crates/alpha/tests/gone.rs
pub fn cited_test_gone() -> u32 {
    10
}

#[allow(dead_code)]
fn hidden() {}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_it() {
        assert_eq!(super::only_in_tests(), 3);
    }
}

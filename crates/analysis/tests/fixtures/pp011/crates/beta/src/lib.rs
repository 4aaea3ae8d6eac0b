//! PP011 fixture: another library crate, a user of `alpha`.

/// Named by an example.
pub fn beta_entry() -> u32 {
    // alpha::in_comment_only() is not a use: comments are masked.
    let label = "in_comment_only";
    let config: Option<alpha::Config> = None;
    drop(config);
    alpha::by_beta() + label.len() as u32
}

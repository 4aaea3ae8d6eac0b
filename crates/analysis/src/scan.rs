//! Token-aware masking of Rust source: a hand-rolled, std-only scanner
//! that blanks out string/char-literal contents and lifts comments into a
//! side channel, so the lint matchers in [`crate::lints`] can search for
//! code patterns with plain substring logic and *never* fire inside a
//! string, a comment, or a doc example.
//!
//! The scanner is a character-level state machine, not a full parser. It
//! understands exactly the lexical features that matter for masking:
//!
//! * line comments (`//`, `///`, `//!`) and (nested) block comments,
//! * string literals with escapes, including multi-line strings,
//! * raw strings `r"…"`, `r#"…"#`, … and their byte variants,
//! * byte strings `b"…"` and char/byte-char literals `'x'`, `b'\n'`,
//! * lifetimes (`'a`) vs. char literals, the classic ambiguity.
//!
//! On top of the masked text, [`analyze_regions`] runs a brace-depth
//! pass that marks which lines live inside `#[cfg(test)]` items and
//! which live inside trait `impl … for …` blocks — the two region kinds
//! the lint scoping rules care about.

/// One source line after masking.
#[derive(Debug, Clone)]
pub(crate) struct MaskedLine {
    /// The line's code with string/char contents and comments replaced by
    /// spaces. Columns are preserved, so byte offsets into `code` match
    /// the original source line.
    pub code: String,
    /// The comment text carried by this line (without the `//`/`/*`
    /// markers), used for `tidy:allow` suppressions.
    pub comment: String,
    /// True when the line carries a doc comment (`///`, `//!`, `/**`).
    pub is_doc: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    LineComment { doc: bool },
    BlockComment { depth: u32, doc: bool },
    Str,
    RawStr { hashes: u32 },
    CharLit,
}

/// Masks `src` into per-line code/comment channels. Never fails: on
/// unterminated constructs the open mode simply runs to end of file,
/// which is the useful behaviour for a linter.
pub(crate) fn mask_source(src: &str) -> Vec<MaskedLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut is_doc = false;
    let mut mode = Mode::Normal;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            lines.push(MaskedLine {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                is_doc: std::mem::take(&mut is_doc),
            });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let Mode::LineComment { .. } = mode {
                mode = Mode::Normal;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Normal => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        let third = chars.get(i + 2).copied();
                        let fourth = chars.get(i + 3).copied();
                        let doc = (third == Some('/') && fourth != Some('/')) || third == Some('!');
                        is_doc |= doc;
                        mode = Mode::LineComment { doc };
                        // Consume the doc marker (`///` or `//!`) so the
                        // lifted comment text starts at the payload.
                        let consumed = if doc { 3 } else { 2 };
                        for _ in 0..consumed {
                            code.push(' ');
                        }
                        i += consumed;
                    }
                    '/' if next == Some('*') => {
                        let third = chars.get(i + 2).copied();
                        let doc = third == Some('*') && chars.get(i + 3).copied() != Some('*')
                            || third == Some('!');
                        is_doc |= doc;
                        mode = Mode::BlockComment { depth: 1, doc };
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' if starts_raw_string(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        for _ in 0..consumed {
                            code.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        mode = Mode::RawStr { hashes };
                        i += consumed;
                    }
                    'b' if next == Some('"') => {
                        code.push(' ');
                        code.push('"');
                        mode = Mode::Str;
                        i += 2;
                    }
                    'b' if next == Some('\'') => {
                        code.push(' ');
                        code.push('\'');
                        mode = Mode::CharLit;
                        i += 2;
                    }
                    '\'' => {
                        if is_char_literal(&chars, i) {
                            mode = Mode::CharLit;
                        }
                        code.push('\'');
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
            Mode::LineComment { .. } => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            Mode::BlockComment { depth, doc } => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    code.push_str("  ");
                    i += 2;
                    if depth == 1 {
                        mode = Mode::Normal;
                    } else {
                        mode = Mode::BlockComment {
                            depth: depth - 1,
                            doc,
                        };
                    }
                } else if c == '/' && next == Some('*') {
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                    mode = Mode::BlockComment {
                        depth: depth + 1,
                        doc,
                    };
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                let next = chars.get(i + 1).copied();
                // An escaped line break still ends the line.
                if c == '\\' && next.is_some_and(|n| n != '\n') {
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr { hashes } => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Normal;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::CharLit => {
                let next = chars.get(i + 1).copied();
                if c == '\\' && next.is_some() {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    mode = Mode::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    flush_line!();
    lines
}

/// True when position `i` (an `r` or `b`) opens a raw string: `r"`,
/// `r#…#"`, `br"`, `br#…#"`. Requires an identifier boundary before `i`
/// so identifiers ending in `r`/`b` are never misread.
fn starts_raw_string(chars: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j).copied() != Some('r') {
            return false;
        }
    }
    if chars.get(j).copied() != Some('r') {
        return false;
    }
    j += 1;
    while chars.get(j).copied() == Some('#') {
        j += 1;
    }
    chars.get(j).copied() == Some('"')
}

/// Returns (hash count, chars consumed through the opening quote).
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0u32;
    while chars.get(j).copied() == Some('#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j + 1 - i)
}

fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k).copied() == Some('#'))
}

/// Distinguishes a char literal from a lifetime at a `'`: a backslash
/// escape or a `'x'` pattern is a literal; anything else (`'a`, `'_`,
/// `'static`) is a lifetime or loop label.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1).copied() {
        Some('\\') => true,
        Some(_) => chars.get(i + 2).copied() == Some('\''),
        None => false,
    }
}

/// True for characters that can appear in a Rust identifier.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Per-line region classification computed from the masked code.
#[derive(Debug, Clone)]
pub(crate) struct Regions {
    /// Line is inside a `#[cfg(test)]` module or function.
    pub in_test: Vec<bool>,
    /// Line is inside a trait implementation (`impl Trait for Type`).
    pub in_trait_impl: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    Test,
    TraitImpl,
    Other,
}

/// Classifies each line of the masked file. A single forward pass tracks
/// brace depth; at every `{` the tokens seen since the last `{`, `}` or
/// `;` decide what region opens: a `mod`/`fn` item carrying a
/// `#[cfg(test)]` or `#[test]` attribute opens a test region, and an
/// `impl … for …` header opens a trait-impl region. Regions nest; a line
/// is "in test" when any enclosing region is.
pub(crate) fn analyze_regions(lines: &[MaskedLine]) -> Regions {
    let mut in_test = vec![false; lines.len()];
    let mut in_trait_impl = vec![false; lines.len()];
    let mut stack: Vec<RegionKind> = Vec::new();
    // Tokens accumulated since the last item boundary.
    let mut pending = String::new();

    for (lineno, line) in lines.iter().enumerate() {
        in_test[lineno] = stack.contains(&RegionKind::Test);
        in_trait_impl[lineno] = stack.contains(&RegionKind::TraitImpl);
        for c in line.code.chars() {
            match c {
                '{' => {
                    let kind = classify_header(&pending);
                    if kind != RegionKind::Other {
                        // The opening line belongs to the region too.
                        match kind {
                            RegionKind::Test => in_test[lineno] = true,
                            RegionKind::TraitImpl => in_trait_impl[lineno] = true,
                            RegionKind::Other => {}
                        }
                    }
                    stack.push(kind);
                    pending.clear();
                }
                '}' => {
                    stack.pop();
                    pending.clear();
                }
                ';' => pending.clear(),
                _ => pending.push(c),
            }
        }
        // Re-evaluate after the line: a `{` earlier on this line may have
        // opened a region covering the line's tail; keep the stronger of
        // the two evaluations.
        in_test[lineno] |= stack.contains(&RegionKind::Test);
        in_trait_impl[lineno] |= stack.contains(&RegionKind::TraitImpl);
    }
    Regions {
        in_test,
        in_trait_impl,
    }
}

fn classify_header(pending: &str) -> RegionKind {
    let has_cfg_test = pending.contains("#[cfg(test)]") || has_word(pending, "#[test]");
    if has_cfg_test && (has_word(pending, "mod") || has_word(pending, "fn")) {
        return RegionKind::Test;
    }
    if has_word(pending, "impl") && has_word(pending, "for") {
        return RegionKind::TraitImpl;
    }
    RegionKind::Other
}

/// True when `word` occurs in `hay` at identifier boundaries.
pub(crate) fn has_word(hay: &str, word: &str) -> bool {
    find_word(hay, word, 0).is_some()
}

/// Finds the next occurrence of `word` in `hay` at identifier boundaries,
/// starting at byte offset `from`.
pub(crate) fn find_word(hay: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while let Some(pos) = hay[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + word.len();
        let first = word.chars().next().map(is_ident_char).unwrap_or(false);
        let last = word.chars().last().map(is_ident_char).unwrap_or(false);
        let after_ok = end >= hay.len() || !is_ident_char(bytes[end] as char);
        // Only enforce the boundary on sides where the pattern itself is
        // identifier-like (e.g. `.unwrap()` needs no left boundary).
        if (!first || before_ok) && (!last || after_ok) {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_string_contents_but_keeps_columns() {
        let lines = mask_source("let x = \"Instant::now()\"; x.len()");
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].code.contains("x.len()"));
        assert_eq!(
            lines[0].code.len(),
            "let x = \"Instant::now()\"; x.len()".len()
        );
    }

    #[test]
    fn masks_line_and_block_comments() {
        let lines = mask_source("a(); // .unwrap() here\nb(); /* .expect( */ c();");
        assert!(!lines[0].code.contains("unwrap"));
        assert_eq!(lines[0].comment.trim(), ".unwrap() here");
        assert!(!lines[1].code.contains("expect"));
        assert!(lines[1].code.contains("c();"));
    }

    #[test]
    fn an_escaped_line_break_in_a_string_keeps_the_line_count() {
        let lines = mask_source("let s = \"a\\\n    b\";\nnext();");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].code.contains("next()"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lines = mask_source("/* outer /* inner */ still */ code()");
        assert!(lines[0].code.contains("code()"));
        assert!(!lines[0].code.contains("outer"));
        assert!(!lines[0].code.contains("still"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let lines = mask_source("let s = r#\"has \"quotes\" and .unwrap()\"#; t()");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("t()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = mask_source("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(lines[0].code.contains("str"));
        let lines = mask_source("let c = 'x'; let d = '\\n'; done()");
        assert!(lines[0].code.contains("done()"));
        assert!(!lines[0].code.contains('x'));
    }

    #[test]
    fn doc_comments_are_flagged_and_lifted() {
        let lines = mask_source("/// # Errors\npub fn f() {}");
        assert!(lines[0].is_doc);
        assert_eq!(lines[0].comment.trim(), "# Errors");
        assert!(!lines[1].is_doc);
    }

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { v.unwrap(); }\n}\npub fn after() {}\n";
        let lines = mask_source(src);
        let regions = analyze_regions(&lines);
        assert!(!regions.in_test[0]);
        assert!(regions.in_test[3]);
        assert!(!regions.in_test[5]);
    }

    #[test]
    fn trait_impl_regions() {
        let src = "impl std::fmt::Display for X {\n    fn fmt(&self) -> fmt::Result { Ok(()) }\n}\nimpl X {\n    pub fn inherent(&self) -> Result<(), E> { Ok(()) }\n}\n";
        let lines = mask_source(src);
        let regions = analyze_regions(&lines);
        assert!(regions.in_trait_impl[1]);
        assert!(!regions.in_trait_impl[4]);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(has_word("impl Display for X", "for"));
        assert!(!has_word("information", "for"));
        assert!(has_word("x.unwrap()", ".unwrap()"));
    }
}

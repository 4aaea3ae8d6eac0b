//! PP011: `pub` items that no other crate names.
//!
//! A cross-file pass over the masked sources. It collects every `pub`
//! item declared in a library crate (`crates/*/src`, outside `src/bin`
//! and `#[cfg(test)]` regions) and flags each one whose name appears as
//! an identifier in no other crate's non-test code. The users are the
//! other library crates, every bin (the declaring package's own bins
//! too: a bin is a separate crate), `examples/` and the read-only
//! `benchmark/src`. Integration tests, `#[cfg(test)]` modules and the
//! `src/tests/` files they are loaded from, comments, strings and
//! doctests are not users.
//!
//! A name in the signature or `pub` field of another *used* `pub` item of
//! the same crate is a use too, so a type reachable only through an API
//! that is named elsewhere stays `pub` (narrowing it would trip rustc's
//! `private_interfaces`). The rule is name-based and so conservative: a
//! method named like any other crate's identifier escapes it, but a
//! finding is always an item no other crate can be calling. Narrowing a
//! finding hands the transitive part to rustc, whose `dead_code` lint
//! then reports whatever nothing in the crate calls.

use crate::lints::Finding;
use crate::scan::{find_word, is_ident_char, MaskedLine, Regions};
use std::collections::{BTreeMap, BTreeSet};

/// One masked source file as the pass sees it.
pub(crate) struct Scanned {
    /// Repo-relative path with forward slashes.
    pub(crate) rel: String,
    /// The masked lines.
    pub(crate) lines: Vec<MaskedLine>,
    /// Test and trait-impl regions of `lines`.
    pub(crate) regions: Regions,
}

/// What a file is to PP011.
enum Role<'a> {
    /// Part of the named library crate: declares items and uses those of
    /// the other library crates.
    Lib(&'a str),
    /// A crate of its own that declares nothing PP011 counts: a bin, an
    /// example, the benchmark package.
    User,
    /// Test code (`tests/`, `src/tests/`): neither declares nor uses.
    Test,
}

fn role(rel: &str) -> Role<'_> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let Some((name, path)) = rest.split_once('/') else {
            return Role::Test;
        };
        if path.starts_with("tests/") || path.starts_with("src/tests/") {
            Role::Test
        } else if path.starts_with("src/bin/") || path == "src/main.rs" {
            Role::User
        } else if path.starts_with("src/") {
            Role::Lib(name)
        } else {
            Role::User
        }
    } else if rel.starts_with("examples/") || rel.starts_with("benchmark/src/") {
        Role::User
    } else {
        Role::Test
    }
}

/// One `pub` item declaration.
struct Decl {
    file: usize,
    line: usize,
    col: usize,
    krate: String,
    name: String,
    /// Identifiers in the item's signature (or `pub` fields, variants,
    /// trait items, re-exported path).
    sig: Vec<String>,
}

/// Runs PP011 over every scanned file; returns its findings, each with
/// the index into `files`. No `tidy:allow` suppresses one.
pub(crate) fn pp011(files: &[Scanned]) -> Vec<(usize, Finding)> {
    let mut lib_tokens: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut user_tokens: BTreeSet<&str> = BTreeSet::new();
    let mut decls = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let tokens = match role(&file.rel) {
            Role::Lib(name) => {
                decls.extend(declarations(fi, name, file));
                lib_tokens.entry(name).or_default()
            }
            Role::User => &mut user_tokens,
            Role::Test => continue,
        };
        for (idx, line) in file.lines.iter().enumerate() {
            if !file.regions.in_test[idx] {
                tokens.extend(idents(&line.code));
            }
        }
    }

    let named_elsewhere = |krate: &str, name: &str| {
        user_tokens.contains(name)
            || lib_tokens
                .iter()
                .any(|(k, toks)| *k != krate && toks.contains(name))
    };
    let mut used: Vec<bool> = decls
        .iter()
        .map(|d| named_elsewhere(&d.krate, &d.name))
        .collect();
    // A used item's signature uses every same-crate item it names.
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, d) in decls.iter().enumerate() {
        by_name.entry((&d.krate, &d.name)).or_default().push(i);
    }
    let mut work: Vec<usize> = (0..decls.len()).filter(|&i| used[i]).collect();
    while let Some(i) = work.pop() {
        for tok in &decls[i].sig {
            for &j in by_name.get(&(&decls[i].krate, tok)).into_iter().flatten() {
                if !used[j] {
                    used[j] = true;
                    work.push(j);
                }
            }
        }
    }

    decls
        .iter()
        .zip(used)
        .filter(|(_, used)| !used)
        .map(|(d, _)| {
            let finding = Finding {
                file: files[d.file].rel.clone(),
                line: d.line + 1,
                col: d.col + 1,
                code: "PP011",
                message: format!(
                    "`pub` item `{}` is named by no other crate; narrow it to pub(crate) or private",
                    d.name
                ),
            };
            (d.file, finding)
        })
        .collect()
}

/// The identifier tokens of a masked code line (numbers excluded).
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident_char(c))
        .filter(|t| t.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// Every `pub` item declared in the non-test code of a library file.
fn declarations(fi: usize, krate: &str, file: &Scanned) -> Vec<Decl> {
    let lines = &file.lines;
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if file.regions.in_test[idx] || cfg_test_above(lines, idx) {
            continue;
        }
        let Some((col, kind, name_at)) = pub_item(&line.code) else {
            continue;
        };
        let text = match kind {
            "mod" => String::new(),
            _ => item_text(lines, idx, col, kind == "fn"),
        };
        let sig = match kind {
            "struct" => struct_signature(&text),
            _ => text.clone(),
        };
        let names = if kind == "use" {
            use_leaves(&text)
        } else {
            let name: String = line.code[name_at..]
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            vec![(name, sig)]
        };
        for (name, sig) in names.into_iter().filter(|(n, _)| !n.is_empty()) {
            out.push(Decl {
                file: fi,
                line: idx,
                col,
                krate: krate.to_string(),
                name,
                sig: idents(&sig).map(str::to_string).collect(),
            });
        }
    }
    out
}

/// True when the attribute lines directly above `idx` carry `#[cfg(test)]`
/// (an item without a brace body, such as a `use`, opens no test region).
fn cfg_test_above(lines: &[MaskedLine], idx: usize) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.code.trim().starts_with("#[") || l.is_doc)
        .any(|l| l.code.trim().starts_with("#[cfg(test)]"))
}

/// A `pub` item on this line: the column of `pub`, the item keyword, and
/// the byte offset of the name after it. `pub(crate)` and friends are not
/// public, and fields (`pub name: T`) are not items.
fn pub_item(code: &str) -> Option<(usize, &'static str, usize)> {
    let at = find_word(code, "pub", 0)?;
    let mut rest = code[at + 3..].strip_prefix(' ')?;
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix("\"\"") {
            rest = after; // the masked ABI string of `extern "C"`
            continue;
        }
        let (word, after) = rest.split_at(rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len()));
        let const_fn = word == "const" && {
            let next = after.trim_start();
            next.starts_with("fn ") || next.starts_with("unsafe ")
        };
        if const_fn || matches!(word, "unsafe" | "async" | "extern") {
            rest = after;
            continue;
        }
        let kind = *KINDS.iter().find(|k| **k == word)?;
        let mut name = after.trim_start();
        if kind == "static" {
            name = name.strip_prefix("mut ").unwrap_or(name).trim_start();
        }
        return Some((at, kind, code.len() - name.len()));
    }
}

const KINDS: [&str; 10] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "union",
];

/// The masked text of the item starting at (`idx`, `col`): up to the
/// `;` or the closing brace that ends it, or, for a function, up to its
/// body's opening brace.
fn item_text(lines: &[MaskedLine], idx: usize, col: usize, signature_only: bool) -> String {
    let mut text = String::new();
    let mut depth = 0usize;
    for (n, line) in lines[idx..].iter().enumerate() {
        let code = if n == 0 {
            &line.code[col..]
        } else {
            &line.code
        };
        for c in code.chars() {
            match c {
                '{' if signature_only && depth == 0 => return text,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        text.push(c);
                        return text;
                    }
                }
                ';' if depth == 0 => return text,
                _ => {}
            }
            text.push(c);
        }
        text.push(' ');
    }
    text
}

/// A struct's header plus its `pub` fields (private field types are not
/// part of its interface).
fn struct_signature(text: &str) -> String {
    let Some(open) = text.find('{') else {
        return text.to_string(); // tuple or unit struct
    };
    let (head, body) = text.split_at(open);
    let body = body.trim_start_matches('{').trim_end_matches('}');
    let mut sig = head.to_string();
    let mut field = String::new();
    let mut depth = 0i32;
    let mut prev = ' ';
    for c in body.chars().chain([',']) {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if prev != '-' => depth -= 1,
            ',' if depth == 0 => {
                // Only `pub` fields (not `pub(crate)` ones) are interface.
                if field.trim_start().starts_with("pub ") {
                    sig.push(' ');
                    sig.push_str(&field);
                }
                field.clear();
                prev = c;
                continue;
            }
            _ => {}
        }
        field.push(c);
        prev = c;
    }
    sig
}

/// The names a `use` item brings into scope, each with its path: each
/// leaf of its tree, or its `as` alias. Globs and `self` imports bring no
/// new name PP011 tracks.
fn use_leaves(text: &str) -> Vec<(String, String)> {
    let Some(at) = find_word(text, "use", 0) else {
        return Vec::new();
    };
    let pieces: Vec<&str> = text[at + 3..]
        .split([',', '{', '}'])
        .map(str::trim)
        .collect();
    // The module prefixes (`a::`, `b::` in `a::{b::{C}}`); a leaf's path
    // counts them all, a conservative over-approximation.
    let prefixes: String = pieces
        .iter()
        .filter(|p| p.ends_with("::"))
        .copied()
        .collect();
    pieces
        .iter()
        .filter_map(|piece| {
            let leaf = match piece.rsplit_once(" as ") {
                Some((_, alias)) => alias.trim(),
                None => piece.rsplit("::").next().unwrap_or("").trim(),
            };
            let is_name = !leaf.is_empty() && leaf != "self" && leaf.chars().all(is_ident_char);
            is_name.then(|| (leaf.to_string(), format!("{prefixes} {piece}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{analyze_regions, mask_source};

    fn scanned(rel: &str, src: &str) -> Scanned {
        let lines = mask_source(src);
        let regions = analyze_regions(&lines);
        Scanned {
            rel: rel.to_string(),
            lines,
            regions,
        }
    }

    fn flagged(files: &[Scanned]) -> Vec<String> {
        // The item's name is the message's second code span.
        let mut names: Vec<String> = pp011(files)
            .into_iter()
            .map(|(_, f)| f.message.split('`').nth(3).unwrap_or_default().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn pub_items_and_their_names() {
        assert_eq!(pub_item("pub fn f() {}"), Some((0, "fn", 7)));
        assert_eq!(pub_item("    pub const fn g() {}"), Some((4, "fn", 17)));
        assert_eq!(pub_item("pub const N: usize = 3;"), Some((0, "const", 10)));
        assert_eq!(
            pub_item("pub static mut S: u8 = 0;"),
            Some((0, "static", 15))
        );
        assert_eq!(
            pub_item("pub unsafe extern \"\" fn h() {}"),
            Some((0, "fn", 24))
        );
        assert_eq!(pub_item("pub(crate) fn f() {}"), None);
        assert_eq!(pub_item("    pub field: u32,"), None);
    }

    #[test]
    fn use_trees_yield_their_leaves() {
        let leaves = use_leaves("pub use a::{b::{C, D as E}, self, F, g::*}");
        let names: Vec<&str> = leaves.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["C", "E", "F"]);
        // A leaf's path names its modules and itself, not its siblings.
        assert!(
            leaves[0].1.contains('a') && leaves[0].1.contains('C') && !leaves[0].1.contains('F')
        );
        assert_eq!(use_leaves("pub use crate::x::Y")[0].0, "Y");
    }

    #[test]
    fn struct_signature_keeps_only_pub_fields() {
        let sig = struct_signature(
            "pub struct S<T> { pub a: Map<K, V>, b: Hidden, pub c: fn(u8) -> Out }",
        );
        assert!(sig.contains("Map<K, V>") && sig.contains("Out") && !sig.contains("Hidden"));
    }

    #[test]
    fn only_other_crates_non_test_code_counts_as_a_use() {
        let files = [
            scanned(
                "crates/a/src/lib.rs",
                "pub fn by_b() {}\npub fn by_own_test() {}\npub fn by_bin() {}\npub fn alone() { by_own_test() }\n#[cfg(test)]\nmod tests { fn t() { super::by_own_test(); } }\n",
            ),
            scanned("crates/a/tests/t.rs", "fn t() { a::by_own_test(); a::alone(); }\n"),
            scanned("crates/a/src/bin/x.rs", "fn main() { a::by_bin(); }\n"),
            scanned("crates/b/src/lib.rs", "pub fn use_it() { a::by_b(); } // a::alone\n"),
        ];
        assert_eq!(flagged(&files), ["alone", "by_own_test", "use_it"]);
    }

    #[test]
    fn a_src_tests_module_is_test_code() {
        // A `#[cfg(test)] #[path = "tests/…"]` module is compiled only for
        // its crate's tests: it neither uses another crate's items nor
        // declares any of its own.
        let files = [
            scanned(
                "crates/a/src/lib.rs",
                "pub fn by_explorer() {}
pub fn by_b() {}
",
            ),
            scanned(
                "crates/b/src/tests/explore.rs",
                "pub fn helper() {}
fn t() { a::by_explorer(); }
",
            ),
            scanned(
                "crates/b/src/lib.rs",
                "pub fn use_it() { a::by_b(); }
",
            ),
            scanned(
                "examples/e.rs",
                "fn main() { b::use_it(); }
",
            ),
        ];
        assert_eq!(flagged(&files), ["by_explorer"]);
    }

    #[test]
    fn a_used_items_signature_is_a_use() {
        let files = [
            scanned(
                "crates/a/src/lib.rs",
                "pub struct Config { pub mode: Mode, hidden: Hidden }\npub enum Mode { A(Inner) }\npub struct Inner;\npub struct Hidden;\npub fn unused(x: Orphan) {}\npub struct Orphan;\n",
            ),
            scanned("examples/e.rs", "fn main() { let _ = a::Config::default(); }\n"),
        ];
        assert_eq!(flagged(&files), ["Hidden", "Orphan", "unused"]);
    }
}
